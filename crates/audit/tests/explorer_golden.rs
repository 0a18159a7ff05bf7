//! The explorer's state counts, pinned: `tests/golden/explorer_quick.golden`
//! holds, for every row of the `--quick` sweep, the states / transitions
//! / depth / terminal / suspended figures the four hand-copied explorers
//! produced before they were merged into one generic explorer. Equal
//! figures on every row are what shows the generic canonical encoding
//! merges exactly the same states on every topology. Re-bless (an
//! intended change to a universe or the encoding) with
//! `UPDATE_GOLDEN=1 cargo test -p convgpu-audit --test explorer_golden`.

use convgpu_audit::model::{explore, CheckOutcome};
use convgpu_audit::suite::phases;
use convgpu_scheduler::PolicyKind;
use std::fmt::Write;

#[test]
fn quick_sweep_reproduces_every_state_count() {
    let mut got = String::new();
    let phases = phases(&PolicyKind::ALL);
    let total = phases.len() + 1;
    for (i, phase) in phases.into_iter().enumerate() {
        writeln!(got, "[{}/{total}] {}", i + 1, phase.title).unwrap();
        for (label, cfg) in phase.rows {
            match explore(&cfg.quick()) {
                CheckOutcome::Pass(stats) => writeln!(got, "  PASS {label:<24} {stats}").unwrap(),
                CheckOutcome::Fail { failure, trace, .. } => {
                    panic!("{label} failed: {failure} after {trace:?}")
                }
            }
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/explorer_quick.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect("golden file missing");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}
