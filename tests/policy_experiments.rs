//! Integration tests on the Figs. 7/8 experiment engine: the properties
//! that make the reproduced tables trustworthy.

use convgpu::scheduler::policy::PolicyKind;
use convgpu::workloads::trace::TraceSpec;
use convgpu_bench::policies::{sweep, PolicyExperiment};

#[test]
fn the_full_paper_sweep_completes_quickly_and_deterministically() {
    // 18 Ns × 4 policies × 2 reps — a third of the paper's sweep — must
    // run in well under a minute of wall time (virtual time!).
    let ns = TraceSpec::paper_sweep();
    let a = sweep(&ns, &PolicyKind::ALL, 2, 99);
    let b = sweep(&ns, &PolicyKind::ALL, 2, 99);
    assert_eq!(a.len(), 18 * 4);
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(
            pa.finished.samples, pb.finished.samples,
            "nondeterministic sweep"
        );
        assert_eq!(pa.suspended.samples, pb.suspended.samples);
    }
}

#[test]
fn finished_time_roughly_doubles_when_n_doubles() {
    // Paper: "As the number of the containers is doubled, finished time
    // is also roughly increased to double."
    let ns = [8u32, 16, 32];
    let points = sweep(&ns, &[PolicyKind::BestFit], 6, 5);
    let t: Vec<f64> = ns
        .iter()
        .map(|&n| points.iter().find(|p| p.n == n).unwrap().finished.mean)
        .collect();
    let r1 = t[1] / t[0];
    let r2 = t[2] / t[1];
    assert!((1.2..3.2).contains(&r1), "8→16 ratio {r1}");
    assert!((1.2..3.2).contains(&r2), "16→32 ratio {r2}");
}

#[test]
fn best_fit_wins_overall_under_heavy_load() {
    // Paper Fig. 7: "the Best-Fit algorithm is average 30 seconds faster
    // than other algorithms when the number of containers exceeds 18."
    let ns = [24u32, 30, 36];
    let points = sweep(&ns, &PolicyKind::ALL, 6, 77);
    for &n in &ns {
        let mean_of = |p: PolicyKind| {
            points
                .iter()
                .find(|pt| pt.n == n && pt.policy == p)
                .unwrap()
                .finished
                .mean
        };
        let bf = mean_of(PolicyKind::BestFit);
        for other in [PolicyKind::Fifo, PolicyKind::RecentUse, PolicyKind::Random] {
            assert!(
                bf <= mean_of(other) * 1.02,
                "N={n}: BF ({bf:.1}s) should not lose clearly to {other:?} ({:.1}s)",
                mean_of(other)
            );
        }
    }
}

#[test]
fn best_fit_starvation_appears_in_the_waiting_tail() {
    // Paper Fig. 8's mechanism ("starving may occur"): BF's worst-waiting
    // container waits longer than FIFO's under heavy load. (See
    // EXPERIMENTS.md: in this reproduction the starvation shows in the
    // tail, not the mean.)
    let ns = [32u32, 38];
    let points = sweep(&ns, &[PolicyKind::Fifo, PolicyKind::BestFit], 6, 41);
    for &n in &ns {
        let max_of = |p: PolicyKind| {
            points
                .iter()
                .find(|pt| pt.n == n && pt.policy == p)
                .unwrap()
                .suspended_max
                .mean
        };
        assert!(
            max_of(PolicyKind::BestFit) > max_of(PolicyKind::Fifo) * 0.95,
            "N={n}: BF worst-case wait ({:.1}) vs FIFO ({:.1})",
            max_of(PolicyKind::BestFit),
            max_of(PolicyKind::Fifo)
        );
    }
}

#[test]
fn light_load_shows_no_policy_differences() {
    // Paper: "The four algorithms show similar performance when the
    // number of containers is less than 16."
    let points = sweep(&[4, 8], &PolicyKind::ALL, 6, 13);
    for &n in &[4u32, 8] {
        let means: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| {
                points
                    .iter()
                    .find(|pt| pt.n == n && pt.policy == p)
                    .unwrap()
                    .finished
                    .mean
            })
            .collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            spread < 25.0,
            "N={n}: policies should be near-identical, spread {spread:.1}s ({means:?})"
        );
    }
}

#[test]
fn per_container_metrics_are_internally_consistent() {
    let r = PolicyExperiment::paper(26, PolicyKind::RecentUse, 3).run();
    for m in &r.per_container {
        let closed = m.closed_at.expect("all closed");
        assert!(closed >= m.registered_at);
        let turnaround = m.turnaround().unwrap().as_secs_f64();
        assert!(
            m.total_suspended.as_secs_f64() <= turnaround + 1e-9,
            "{}: suspended {} > turnaround {}",
            m.id,
            m.total_suspended.as_secs_f64(),
            turnaround
        );
        assert!(m.granted_allocs <= 1, "sample program allocates once");
    }
}

/// `repro_utilization`'s whole output is pinned, digit for digit: the
/// scheduler's utilization integral feeds every cell. Re-bless an
/// intended change with `UPDATE_GOLDEN=1 cargo test --test policy_experiments`.
#[test]
fn utilization_table_golden() {
    let got = convgpu_bench::report::utilization_report();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/utilization.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden missing — bless with UPDATE_GOLDEN=1 cargo test --test policy_experiments");
    assert_eq!(got, want, "repro_utilization output moved");
}
