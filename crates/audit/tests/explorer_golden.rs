//! The explorer's state counts, pinned: `tests/golden/explorer_quick.golden`
//! holds, for every row of the `--quick` sweep, the states / transitions
//! / depth / terminal / suspended figures the four hand-copied explorers
//! produced before they were merged into one generic explorer. Equal
//! figures on every row are what shows the generic canonical encoding
//! merges exactly the same states on every topology.
//! `tests/golden/explorer_full.golden` pins the full sweep the same way;
//! its test is `#[ignore]`d (about 10 s in release) and run by
//! `ci/check.sh`. Re-bless (an intended change to a universe or the
//! encoding) with
//! `UPDATE_GOLDEN=1 cargo test --release -p convgpu-audit --test explorer_golden -- --include-ignored`.

use convgpu_audit::model::{explore, CheckOutcome};
use convgpu_audit::suite::phases;
use convgpu_scheduler::PolicyKind;
use std::fmt::Write;

/// Sweep every phase, `--quick`-trimmed or not, and compare the rows
/// with `golden`.
fn sweep_matches(golden: &str, quick: bool) {
    let mut got = String::new();
    let phases = phases(&PolicyKind::ALL);
    let total = phases.len() + 1;
    for (i, phase) in phases.into_iter().enumerate() {
        writeln!(got, "[{}/{total}] {}", i + 1, phase.title).unwrap();
        for (label, cfg) in phase.rows {
            let cfg = if quick { cfg.quick() } else { cfg };
            match explore(&cfg) {
                CheckOutcome::Pass(stats) => writeln!(got, "  PASS {label:<24} {stats}").unwrap(),
                CheckOutcome::Fail { failure, trace, .. } => {
                    panic!("{label} failed: {failure} after {trace:?}")
                }
            }
        }
    }
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden file missing");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn quick_sweep_reproduces_every_state_count() {
    sweep_matches("explorer_quick.golden", true);
}

#[test]
#[ignore = "the full sweep; ci/check.sh runs it in release"]
fn full_sweep_reproduces_every_state_count() {
    sweep_matches("explorer_full.golden", false);
}
