//! `convgpu_lint` — the workspace analyzer behind `convgpu-lint`.
//!
//! A pure-`std` static-analysis library: [`lexer`] turns Rust source
//! into a token stream (comments become trivia), [`items`] walks it
//! into function items with `impl` context and `#[cfg(test)]` regions,
//! and [`rules`] holds the six analyses. [`run`] loads a workspace
//! root and returns every finding after `lint:allow` suppression.
//!
//! See `docs/LINT.md` for the rule catalogue and suppression grammar.
#![forbid(unsafe_code)]

pub mod items;
pub mod lexer;
pub mod rules;

use items::SourceFile;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The analyses. Names (`Rule::name`) are the stable identifiers used
/// by `--rules`, `lint:allow(…)`, and the fixture goldens.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// `Instant::now` / `SystemTime` inside simulation-path crates.
    WallClock,
    /// Unordered `HashMap` iteration in the scheduler.
    HashmapIter,
    /// `.lock().unwrap()` / `.expect(…)` instead of the sync wrappers.
    LockUnwrap,
    /// Every non-wrapper crate root carries `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// Lock-acquisition cycles and IPC writes under a held guard.
    LockOrder,
    /// Raw socket construction outside `crates/ipc/src/transport.rs`.
    RawTransport,
}

impl Rule {
    /// All rules, in the order they run and report.
    pub const ALL: [Rule; 6] = [
        Rule::WallClock,
        Rule::HashmapIter,
        Rule::LockUnwrap,
        Rule::ForbidUnsafe,
        Rule::LockOrder,
        Rule::RawTransport,
    ];

    /// Stable kebab-case identifier.
    pub fn name(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::HashmapIter => "hashmap-iter",
            Rule::LockUnwrap => "lock-unwrap",
            Rule::ForbidUnsafe => "forbid-unsafe",
            Rule::LockOrder => "lock-order",
            Rule::RawTransport => "raw-transport",
        }
    }

    /// Reverse of [`Rule::name`].
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::WallClock => "no Instant::now/SystemTime in simulation-path crates",
            Rule::HashmapIter => "no order-sensitive HashMap iteration in the scheduler",
            Rule::LockUnwrap => "no .lock().unwrap(); use convgpu_sim_core::sync wrappers",
            Rule::ForbidUnsafe => "crate roots carry #![forbid(unsafe_code)] (wrapper exempt)",
            Rule::LockOrder => "no lock cycles; no socket/Reply write while a guard is held",
            Rule::RawTransport => {
                "no raw Unix/TCP socket construction outside crates/ipc/src/transport.rs"
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub file: String,
    /// 1-based line; 0 when the finding has no single anchor line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A loaded workspace: every scanned `.rs` file, parsed.
pub struct Workspace {
    /// Absolute root the relative paths hang off.
    pub root: PathBuf,
    /// Parsed source files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Top-level directories scanned for Rust sources.
const SCAN_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Directory names never descended into. `fixtures` keeps the lint
/// corpus (which deliberately contains violations) out of real scans —
/// corpus runs point the root *at* a fixture, so its own `crates/` is
/// still reached.
const SKIP_DIRS: [&str; 2] = ["target", "fixtures"];

impl Workspace {
    /// Read and parse every scanned source under `root`.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        for top in SCAN_ROOTS {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(root, &dir, &mut files)?;
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// The parsed file at `rel`, if it was scanned.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel == Path::new(rel))
    }
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

/// Load the workspace at `root` and run `rules` over it.
pub fn run(root: &Path, rules: &[Rule]) -> Result<Vec<Finding>, String> {
    let ws = Workspace::load(root)?;
    Ok(run_on(&ws, rules))
}

/// Run `rules` over an already-loaded workspace. Findings come back
/// suppression-filtered, deduplicated, and sorted by file/line/rule.
pub fn run_on(ws: &Workspace, rules: &[Rule]) -> Vec<Finding> {
    let mut out = Vec::new();
    for &rule in rules {
        out.extend(match rule {
            Rule::WallClock => rules::wall_clock::check(ws),
            Rule::HashmapIter => rules::hashmap_iter::check(ws),
            Rule::LockUnwrap => rules::lock_unwrap::check(ws),
            Rule::ForbidUnsafe => rules::forbid_unsafe::check(ws),
            Rule::LockOrder => rules::lock_order::check(ws),
            Rule::RawTransport => rules::raw_transport::check(ws),
        });
    }
    out.retain(|f| {
        ws.file(&f.file)
            .is_none_or(|sf| !sf.allowed(f.rule.name(), f.line))
    });
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    out.dedup();
    out
}

/// Shorthand used by every rule module.
pub(crate) fn finding(file: &Path, line: usize, rule: Rule, message: String) -> Finding {
    Finding {
        file: file.to_string_lossy().replace('\\', "/"),
        line,
        rule,
        message,
    }
}
