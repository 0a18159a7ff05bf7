//! `convgpu_lint` — the lock-order analysis of this workspace.
//!
//! rustc and clippy check the workspace's other source rules (no wall
//! clock on the simulation path, poison-recovering locks, one transport
//! file, no `unsafe`, no unordered scheduler loops): `clippy.toml` and the
//! crate-root attributes state them, `docs/LINT.md` lists them. No stock
//! lint follows lock guards through function bodies, so this crate does,
//! on a pure-`std` token stream: `lexer` turns Rust source into tokens
//! (comments become trivia), `items` walks them into function items
//! with `impl` context and `#[cfg(test)]` regions, and [`run`] reports
//! lock cycles and IPC writes under a held guard.
//!
//! The gate is `tests/lint_corpus.rs::real_workspace_is_clean`.
#![forbid(unsafe_code)]

mod items;
mod lexer;
mod lock_order;

use items::SourceFile;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line; 0 when the finding has no single anchor line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [lock-order] {}",
            self.file, self.line, self.message
        )
    }
}

/// Directory names never descended into: build output, the lint corpus
/// (which deliberately contains violations; corpus runs point the root
/// *at* a fixture), and integration tests and benches, which hold no
/// middleware locks.
const SKIP_DIRS: [&str; 4] = ["target", "fixtures", "tests", "benches"];

/// Load the modelled crates of the workspace at `root` and run the
/// analysis. Findings come back with `// lint:allow(lock-order)` lines
/// removed, deduplicated, and sorted by file and line.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    for krate in lock_order::SCOPE {
        let dir = root.join("crates").join(krate);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    let mut out = lock_order::check(&files);
    out.retain(|f| {
        !files
            .iter()
            .any(|sf| sf.rel == Path::new(&f.file) && sf.allowed(f.line))
    });
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out.dedup();
    Ok(out)
}

/// `read_dir` with deterministic (sorted) order.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// Recursively collect `.rs` files under `dir` into `files`.
fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            walk(root, &path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip {}: {e}", path.display()))?
                .to_path_buf();
            files.push(SourceFile::parse(rel, &src));
        }
    }
    Ok(())
}
