//! Golden-file corpus for `convgpu-lint` (crates/lint).
//!
//! Every directory under `tests/fixtures/lint/` is a miniature
//! workspace: `*_bad` fixtures seed exactly one class of violation,
//! `*_clean` fixtures exercise the same shape without the defect, and
//! the `*_comment_split` / `raw_string` / `block_comment` fixtures pin
//! the lexer-level regressions the old line scanner missed. Each
//! fixture carries an `expected.txt` with the exact findings
//! (`file:line: [rule] message`) the analyzer must emit — re-bless by
//! re-running the binary over the fixture after an intentional change.

use convgpu_lint::{run, Rule};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

fn render(root: &Path) -> String {
    let findings = run(root, &Rule::ALL).expect("fixture workspace loads");
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
        checked >= 16,
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
        let findings = run(&dir, &Rule::ALL).expect("fixture workspace loads");
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

/// The binary exits 1 on a violation-seeding fixture and prints the
/// finding lines.
#[test]
fn binary_exits_nonzero_on_bad_fixture() {
    for fixture in [
        "lock_order_cycle_bad",
        "lock_order_write_bad",
        "raw_transport_bad",
        "hashmap_iter_bad",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_convgpu-lint"))
            .arg(fixtures_root().join(fixture))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "{fixture} should exit 1");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("finding"), "{fixture} summary line missing");
    }
}

/// The binary exits 0 on a clean fixture and honours `--rules=`.
#[test]
fn binary_exits_zero_on_clean_fixture_and_filters_rules() {
    let clean = fixtures_root().join("lock_order_clean");
    let out = Command::new(env!("CARGO_BIN_EXE_convgpu-lint"))
        .arg(&clean)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "clean fixture should exit 0");

    // Restricting a bad fixture to an unrelated rule suppresses its
    // findings entirely.
    let bad = fixtures_root().join("raw_transport_bad");
    let out = Command::new(env!("CARGO_BIN_EXE_convgpu-lint"))
        .arg(&bad)
        .arg("--rules=wall-clock")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "raw_transport_bad is clean under --rules=wall-clock"
    );
}

/// `--list-rules` names every analysis and exits 0.
#[test]
fn binary_lists_rules() {
    let out = Command::new(env!("CARGO_BIN_EXE_convgpu-lint"))
        .arg("--list-rules")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in Rule::ALL {
        assert!(
            stdout.contains(rule.name()),
            "--list-rules output missing {}",
            rule.name()
        );
    }
}

/// An unknown rule name is a usage error (exit 2), not a silent no-op.
#[test]
fn binary_rejects_unknown_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_convgpu-lint"))
        .arg(fixtures_root().join("lock_order_clean"))
        .arg("--rules=no-such-rule")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// The real workspace lints clean — the self-check the CI gate relies
/// on. Uses the library directly so the test works without a prior
/// `cargo build`.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = run(root, &Rule::ALL).expect("workspace loads");
    assert!(
        findings.is_empty(),
        "workspace must lint clean: {findings:#?}"
    );
}
