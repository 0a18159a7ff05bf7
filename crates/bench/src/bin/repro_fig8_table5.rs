//! Reproduce paper Fig. 8 / Table V: average suspended time per container
//! (N = 4..38 step 2) under the four scheduling algorithms.

use convgpu_bench::policies::sweep;
use convgpu_bench::report::{format_table, secs1};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_workloads::trace::TraceSpec;

fn main() {
    println!("== ConVGPU reproduction: Fig. 8 / Table V — avg suspended time (s) ==");
    println!("(N = 4..38, 4 policies, 6 repetitions, virtual time, 5 GiB K20m)\n");
    let ns = TraceSpec::paper_sweep();
    let points = sweep(&ns, &PolicyKind::ALL, 6, 2017);

    let mut headers = vec!["policy".to_string()];
    headers.extend(ns.iter().map(|n| n.to_string()));
    let rows: Vec<Vec<String>> = PolicyKind::ALL
        .iter()
        .map(|&p| {
            let mut row = vec![format!("{} (sec)", p.label())];
            for &n in &ns {
                let point = points
                    .iter()
                    .find(|pt| pt.n == n && pt.policy == p)
                    .expect("sweep point");
                row.push(secs1(point.suspended.mean));
            }
            row
        })
        .collect();
    println!("{}", format_table(&headers, &rows));
    // Starvation view: the worst-waiting container per run.
    let max_rows: Vec<Vec<String>> = PolicyKind::ALL
        .iter()
        .map(|&p| {
            let mut row = vec![format!("{} (max)", p.label())];
            for &n in &ns {
                let point = points
                    .iter()
                    .find(|pt| pt.n == n && pt.policy == p)
                    .expect("sweep point");
                row.push(secs1(point.suspended_max.mean));
            }
            row
        })
        .collect();
    println!("worst single container's suspended time (starvation view):");
    println!("{}", format_table(&headers, &max_rows));
    println!("paper reference (Table V): little difference below N=24; beyond N=26 BF");
    println!("waits ~15 s MORE per container on average (fast overall, slower individually).");
    println!("NOTE (deviation, see EXPERIMENTS.md): in this reproduction BF's MEAN wait is");
    println!("the lowest, but its WORST-CASE wait stays near FIFO's, about 4x its own mean —");
    println!("the starvation the paper describes shows up in the tail rather than the mean.");
}
