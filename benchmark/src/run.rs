//! What every workload shares: the sub-run record, the cost meter around
//! a timed phase, the per-run temp root and the end-to-end aggregation.

use crate::layers::Request;
use crate::procfs;
use crate::stats;
use crate::trace::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a failed correctness check: fails the whole run.
pub type CheckResult<T> = Result<T, String>;

/// `Err` with a formatted reason unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($arg:tt)*) => {
        if !$cond {
            return Err(format!($($arg)*));
        }
    };
}
pub(crate) use ensure;

/// What one sub-run is asked to do.
pub struct SubCx<'a> {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Ops to time. Fixed by `--seconds`, identical on every commit.
    pub ops: u64,
    /// Ops of untimed warm-up inside the sub-run's set-up.
    pub warm_ops: u64,
    /// Fresh directory for this sub-run's sockets, dirs and journal.
    pub dir: &'a Path,
    /// Record spans (traced sub-run) when set.
    pub tracer: Option<Arc<Tracer>>,
    /// `routed_journal` only: attach the router without its journal
    /// (the traced run's journal-off comparison).
    pub journal_off: bool,
}

/// What one sub-run measured.
#[derive(Default)]
pub struct SubRun {
    /// Which variant ran (the policy on `sched_contended`).
    pub label: String,
    /// Fresh servers, threads, connections and the warm-up ops.
    pub setup_s: f64,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Ops attempted in the timed phase.
    pub ops: u64,
    /// Ops that ended in an unexpected error.
    pub failed: u64,
    /// Wall latency per op (per 256-op batch mean on `sched_contended`).
    pub lat_us: Vec<f64>,
    /// Container admission latency samples.
    pub create_us: Vec<f64>,
    /// Process CPU over the timed phase.
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    /// Voluntary context switches over the timed phase.
    pub vol_ctx_switches: u64,
    /// Threads alive at the end of the timed phase.
    pub threads: u64,
    /// Peak resident set over the timed phase.
    pub peak_rss_mib: f64,
    /// Exact counts and other per-layer numbers read from the program's
    /// books after the sub-run.
    pub layer: BTreeMap<&'static str, f64>,
    /// Spans of a traced sub-run.
    pub spans: Vec<Span>,
    /// Requests recorded by a traced handler (probe corpus).
    pub corpus: Vec<Request>,
}

/// Brackets a timed phase: wall clock plus the `/proc` cost counters.
pub struct Meter {
    t0: Instant,
    cpu0: (f64, f64),
    cs0: u64,
}

impl Meter {
    /// Start metering. With `ctx_switches` off the per-thread `/proc`
    /// walk is skipped (untraced runs do not report it).
    pub fn start(ctx_switches: bool) -> Meter {
        procfs::reset_peak_rss();
        Meter {
            cs0: if ctx_switches {
                procfs::voluntary_ctx_switches()
            } else {
                0
            },
            cpu0: procfs::cpu_seconds(),
            t0: Instant::now(),
        }
    }

    /// Stop metering and fill the cost fields of `run`. Call before the
    /// servers are shut down, so their threads are still counted.
    pub fn finish(self, ctx_switches: bool, run: &mut SubRun) {
        run.wall_s = self.t0.elapsed().as_secs_f64();
        let cpu1 = procfs::cpu_seconds();
        run.cpu_user_s = cpu1.0 - self.cpu0.0;
        run.cpu_sys_s = cpu1.1 - self.cpu0.1;
        run.threads = procfs::threads();
        run.peak_rss_mib = procfs::peak_rss_mib();
        if ctx_switches {
            run.vol_ctx_switches = procfs::voluntary_ctx_switches().saturating_sub(self.cs0);
        }
    }
}

/// The per-run temp root: every socket, container dir and journal lives
/// under it, and it is removed when the run ends — also when a check
/// fails or a thread panics.
///
/// Nothing under it is deleted while the run measures: the checkout's
/// ext4 has no journal and will not reuse an inode freed in the last
/// minutes, skipping such inodes one by one on every allocation, so a run
/// that cleaned up between sub-runs paid 250-320 us per mkdir, create and
/// bind where a fresh block group costs 10 us (README, "Noise facts").
/// `run.sh` puts the temp root on a tmpfs, where this does not arise; the
/// rule stays for the run that falls back to the plain directory.
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    /// Create `<out_dir>/tmp.<pid>`. The path stays relative when
    /// `out_dir` is, which keeps UNIX socket paths inside `sun_path`'s
    /// 108 bytes however deep the checkout sits.
    pub fn create(out_dir: &Path) -> std::io::Result<TempRoot> {
        let path = out_dir.join(format!("tmp.{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempRoot { path })
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One sub-run's end-to-end numbers.
pub struct SubMetrics {
    pub setup_s: f64,
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub op_p95_us: f64,
    pub op_p99_us: f64,
    pub cpu_user_us_per_op: f64,
    pub cpu_sys_us_per_op: f64,
    pub create_p50_us: f64,
    pub peak_rss_mib: f64,
    pub vol_ctx_switches_per_op: f64,
}

impl SubMetrics {
    /// Reduce a sub-run to its metrics.
    pub fn of(run: &SubRun) -> SubMetrics {
        let ops = run.ops.max(1) as f64;
        let mut lat = run.lat_us.clone();
        stats::sort(&mut lat);
        SubMetrics {
            setup_s: run.setup_s,
            ops_per_s: run.ops as f64 / run.wall_s.max(1e-9),
            op_p50_us: stats::quantile_sorted(&lat, 0.50),
            op_p95_us: stats::quantile_sorted(&lat, 0.95),
            op_p99_us: stats::quantile_sorted(&lat, 0.99),
            cpu_user_us_per_op: run.cpu_user_s * 1e6 / ops,
            cpu_sys_us_per_op: run.cpu_sys_s * 1e6 / ops,
            create_p50_us: stats::median(&run.create_us),
            peak_rss_mib: run.peak_rss_mib,
            vol_ctx_switches_per_op: run.vol_ctx_switches as f64 / ops,
        }
    }
}

/// Median over sub-runs of one field.
pub fn median_of(subs: &[SubMetrics], f: impl Fn(&SubMetrics) -> f64) -> f64 {
    stats::median(&subs.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics of a run: each the median over its sub-runs,
/// in `metrics::END_TO_END` order, with every sub-run's value kept.
pub fn end_to_end(runs: &[SubRun]) -> Vec<(&'static str, f64, Vec<f64>)> {
    let subs: Vec<SubMetrics> = runs.iter().map(SubMetrics::of).collect();
    let column = |name: &'static str, f: fn(&SubMetrics) -> f64| {
        let values: Vec<f64> = subs.iter().map(f).collect();
        (name, stats::median(&values), values)
    };
    vec![
        column("setup_s", |s| s.setup_s),
        column("ops_per_s", |s| s.ops_per_s),
        column("op_p50_us", |s| s.op_p50_us),
        column("op_p95_us", |s| s.op_p95_us),
        column("cpu_user_us_per_op", |s| s.cpu_user_us_per_op),
        column("create_p50_us", |s| s.create_p50_us),
        column("peak_rss_mib", |s| s.peak_rss_mib),
    ]
}
