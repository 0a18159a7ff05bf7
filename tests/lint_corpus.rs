//! Golden-file corpus for the lock-order analysis (crates/lint).
//!
//! Every directory under `tests/fixtures/lint/` is a miniature
//! workspace: `*_bad` fixtures seed a lock cycle or a reply under a held
//! guard, `*_clean` fixtures exercise the same shape without the defect,
//! and `block_comment_clean` / `raw_string_clean` hide a cycle and a
//! reply under a guard inside a nested block comment and a raw string,
//! which the lexer must treat as trivia and text. Each fixture carries an
//! `expected.txt` with the exact findings (`file:line: [lock-order]
//! message`) the analysis must emit.
//!
//! `real_workspace_is_clean` is the analysis' gate on the repository.

use convgpu_lint::run;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn render(root: &Path) -> String {
    let findings = run(root).expect("fixture workspace loads");
    let mut out = String::new();
    for f in findings {
        writeln!(out, "{f}").unwrap();
    }
    out
}

/// Every fixture matches its golden `expected.txt`, line for line.
#[test]
fn corpus_matches_goldens() {
    let root = fixtures_root();
    let mut checked = 0usize;
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("fixtures dir exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    for dir in dirs {
        let expected = std::fs::read_to_string(dir.join("expected.txt"))
            .unwrap_or_else(|e| panic!("{} has no expected.txt: {e}", dir.display()));
        let actual = render(&dir);
        assert_eq!(
            actual,
            expected,
            "findings drifted for fixture {}",
            dir.display()
        );
        checked += 1;
    }
    // Guard against the walker silently matching nothing.
    assert!(
        checked >= 5,
        "expected the full corpus, found {checked} fixtures"
    );
}

/// Bad fixtures must produce findings; clean ones must not. This is
/// the property the goldens encode, asserted independently so a
/// re-blessed-but-wrong golden (e.g. an empty file for a `_bad`
/// fixture) cannot slip through.
#[test]
fn bad_fixtures_find_and_clean_fixtures_pass() {
    let root = fixtures_root();
    for entry in std::fs::read_dir(&root).expect("fixtures dir exists") {
        let dir = entry.expect("readable entry").path();
        if !dir.is_dir() {
            continue;
        }
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        let findings = run(&dir).expect("fixture workspace loads");
        if name.ends_with("_bad") {
            assert!(!findings.is_empty(), "{name} should produce findings");
        } else {
            assert!(
                findings.is_empty(),
                "{name} should be clean, got: {findings:?}"
            );
        }
    }
}

/// The real workspace has no lock-order finding. Failures print one per
/// line, as `file:line: [lock-order] message`.
#[test]
fn real_workspace_is_clean() {
    let findings = render(Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(
        findings.is_empty(),
        "workspace must be free of lock-order findings:\n{findings}"
    );
}
