//! The experiment harness: one module per table/figure of the paper's
//! evaluation (§IV), run by the `repro_*` binaries.
//!
//! | paper artifact | module | regenerate with |
//! |---|---|---|
//! | Fig. 4 (API response time) | [`fig4`] | `cargo run -p convgpu-bench --release --bin repro_fig4` |
//! | Fig. 5 (container creation time) | [`fig5`] | `… --bin repro_fig5` |
//! | Fig. 6 (MNIST runtime) | [`fig6`] | `… --bin repro_fig6` |
//! | Fig. 7 / Table IV (finished time) | [`policies`] | `… --bin repro_fig7_table4` |
//! | Fig. 8 / Table V (suspended time) | [`policies`] | `… --bin repro_fig8_table5` |
//!
//! The cluster extension (paper §V, Docker Swarm) gets its own sweep in
//! [`cluster_exp`], regenerated by `repro_cluster`.
//!
//! Beyond the paper's artifacts, [`loadgen`] is the hot-path throughput
//! harness behind the CI perf gate: `cargo run -p convgpu-bench --release
//! --bin loadgen` drives thousands of containers through the live
//! service stack and writes `BENCH_3.json`.
//!
//! Figures 4 and 5 run the **live** stack (real threads, real UNIX
//! sockets) because they measure genuine IPC and setup cost; Figure 6 and
//! the policy sweeps run in **virtual time** so a full paper-scale sweep
//! (18 container counts × 4 policies × 6 repetitions) finishes in
//! milliseconds, deterministically.

#![forbid(unsafe_code)]

pub mod cluster_exp;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod loadgen;
pub mod policies;
pub mod report;
pub mod trend;

pub use cluster_exp::{cluster_sweep, ClusterExperiment, ClusterResult};
pub use fig4::{run_fig4, Fig4Row};
pub use fig5::{run_fig5, Fig5Result};
pub use fig6::{run_fig6, Fig6Result};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport, PolicyRun, Transport};
pub use policies::{PolicyExperiment, RunResult, SweepPoint};
pub use trend::{compare_trend, compare_trend_ci, TrendReport, TrendRow};
