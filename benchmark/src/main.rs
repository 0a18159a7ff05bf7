//! The repo's benchmark: five workloads over the allocation path, seven
//! user-visible numbers each, and a traced run that says where the time
//! went layer by layer. See `benchmark/README.md`.
//!
//! ```text
//! convgpu-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! convgpu-benchmark --check
//! convgpu-benchmark --aa [--seed N] [--seconds S] [--json-out FILE] [--label TEXT]
//! convgpu-benchmark --emit-manifest | --emit-table
//! ```

mod aa;
mod gen;
mod layers;
mod layerstats;
mod metrics;
mod probes;
mod procfs;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, SUBRUNS, WORKLOADS};
use probes::Layer;
use run::{CheckResult, SubCx, SubMetrics, SubRun, TempRoot};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 11;

/// How big a run is.
#[derive(Clone, Copy)]
pub enum Size {
    /// Sized by `--seconds`: the real thing.
    Seconds(u64),
    /// `--check`: a few containers per workload, every check on.
    Smoke,
}

/// Where a run writes.
#[derive(Clone)]
pub struct Dirs {
    /// Chrome traces (kept after the run).
    pub out: PathBuf,
    /// Parent of the per-run temp root (sockets, container dirs, journal
    /// files; removed when the run ends). `run.sh` points it at a tmpfs.
    pub tmp: PathBuf,
}

/// Op counts of one run.
struct Plan {
    ops_per_subrun: u64,
    warm_ops: u64,
    untraced_subruns: usize,
}

impl Plan {
    fn new(workload: &str, size: Size, trace: bool) -> Plan {
        match size {
            Size::Seconds(s) => {
                let ops_per_subrun =
                    (workloads::ops_per_second(workload) * s / SUBRUNS as u64).max(1);
                Plan {
                    ops_per_subrun,
                    warm_ops: ops_per_subrun / 16,
                    untraced_subruns: if trace { 2 } else { SUBRUNS },
                }
            }
            Size::Smoke => Plan {
                ops_per_subrun: match workload {
                    "node_json" => 1_500,
                    "sched_contended" => 16_000,
                    "routed_journal" | "routed_journal_2cpu" => 400,
                    _ => 16,
                },
                warm_ops: 0,
                untraced_subruns: if trace { 1 } else { 2 },
            },
        }
    }
}

/// Everything one run measured.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub regime: procfs::Regime,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, median over sub-runs, every sub-run's value)`.
    pub end_to_end: Vec<(&'static str, f64, Vec<f64>)>,
    /// Traced run only.
    pub per_layer: Option<Layer>,
    /// Counts read from the program's books after the first timed
    /// sub-run; on `sched_contended` they are exact for a seed.
    pub books: Vec<(&'static str, f64)>,
    /// Latency samples behind the percentiles, per sub-run.
    pub samples_per_subrun: usize,
    /// Human-readable extras (`wall.op_p99_us`, self-time table, …).
    pub notes: Vec<String>,
}

fn sub_run(workload: &str, root: &TempRoot, name: &str, cx: SubCxArgs) -> CheckResult<SubRun> {
    let dir = root
        .subdir(name)
        .map_err(|e| format!("{workload}: temp dir: {e}"))?;
    workloads::sub_run(
        workload,
        &SubCx {
            seed: cx.seed,
            ops: cx.ops,
            warm_ops: cx.warm_ops,
            dir: &dir,
            tracer: cx.traced.then(trace::Tracer::new),
            journal_off: cx.journal_off,
        },
    )
}

/// Pin the calling thread (and so every thread the run spawns) to the
/// CPUs the workload is defined on, taken from the front of the list the
/// process was started with.
fn pin(workload: &str) -> CheckResult<()> {
    let at_start = procfs::cpus_at_start();
    let want = workloads::cpus(workload);
    if at_start.len() < want {
        eprintln!(
            "convgpu-benchmark: {workload} is defined on {want} CPUs, this process may use {}: \
             another regime, see cpus_allowed in the output",
            at_start.len()
        );
    }
    let take = &at_start[..want.min(at_start.len())];
    procfs::pin_to(take).map_err(|e| format!("pin to cpus {take:?}: {e}"))
}

struct SubCxArgs {
    seed: u64,
    ops: u64,
    warm_ops: u64,
    traced: bool,
    journal_off: bool,
}

/// Run one workload once: a discarded warm-up sub-run, the timed
/// sub-runs, and (traced) the per-layer pass.
pub fn run_workload(
    workload: &str,
    seed: u64,
    size: Size,
    trace: bool,
    dirs: &Dirs,
) -> CheckResult<Report> {
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    pin(workload)?;
    let root = TempRoot::create(&dirs.tmp)
        .map_err(|e| format!("temp root under {}: {e}", dirs.tmp.display()))?;
    let plan = Plan::new(workload, size, trace);
    let args = |ops: u64, traced: bool, journal_off: bool| SubCxArgs {
        seed,
        ops,
        warm_ops: plan.warm_ops,
        traced,
        journal_off,
    };

    // Process-level warm-up (allocator growth, lazy statics, page
    // faults): a short sub-run whose numbers are thrown away.
    if matches!(size, Size::Seconds(_)) {
        sub_run(
            workload,
            &root,
            "warm",
            args((plan.ops_per_subrun / 4).max(1), false, false),
        )?;
    }

    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for i in 0..plan.untraced_subruns {
        untraced.push(sub_run(
            workload,
            &root,
            &format!("u{i}"),
            args(plan.ops_per_subrun, false, false),
        )?);
        if trace {
            traced.push(sub_run(
                workload,
                &root,
                &format!("t{i}"),
                args(plan.ops_per_subrun, true, false),
            )?);
        }
    }
    if workload == "sched_contended" {
        workloads::sched_contended::cross_check(&untraced)?;
        workloads::sched_contended::cross_check(&traced)?;
    }

    let mut report = Report {
        workload: workload.to_string(),
        seed,
        regime: procfs::Regime::read(&dirs.tmp),
        attempted: untraced.iter().chain(&traced).map(|r| r.ops).sum(),
        failed: untraced.iter().chain(&traced).map(|r| r.failed).sum(),
        end_to_end: run::end_to_end(&untraced),
        per_layer: None,
        books: untraced
            .first()
            .map(|r| r.layer.iter().map(|(k, v)| (*k, *v)).collect())
            .unwrap_or_default(),
        samples_per_subrun: untraced.first().map_or(0, |r| r.lat_us.len()),
        notes: Vec::new(),
    };
    let subs: Vec<SubMetrics> = untraced.iter().map(SubMetrics::of).collect();
    report.notes.push(format!(
        "wall.op_p99_us {} us (informational; median over {} sub-runs)",
        stats::num(run::median_of(&subs, |s| s.op_p99_us)),
        subs.len()
    ));
    report.notes.push(format!(
        "sub-runs: {} ({}), {} ops and {} latency samples each",
        untraced.len(),
        untraced.first().map_or("", |r| r.label.as_str()),
        untraced.first().map_or(0, |r| r.ops),
        report.samples_per_subrun
    ));

    if trace {
        let mut layer = per_layer(
            workload,
            &root,
            &untraced,
            &traced,
            &dirs.out,
            &mut report.notes,
        )?;
        if workload.starts_with("routed_journal") {
            // The journal's share of an op: the same traced sub-run
            // with the router attached journal-less.
            let off = sub_run(
                workload,
                &root,
                "joff",
                args(plan.ops_per_subrun, true, true),
            )?;
            let with = run::median_of(
                &traced.iter().map(SubMetrics::of).collect::<Vec<_>>(),
                |s| s.op_p50_us,
            );
            layer.insert(
                "core.journal.added_us_per_op",
                with - SubMetrics::of(&off).op_p50_us,
            );
            report.attempted += off.ops;
            report.failed += off.failed;
        }
        report.per_layer = Some(layer);
    }
    Ok(report)
}

/// The traced pass: span metrics and book counts (median over the traced
/// sub-runs), `/proc` costs, tracing overhead, then the probes.
fn per_layer(
    workload: &str,
    root: &TempRoot,
    untraced: &[SubRun],
    traced: &[SubRun],
    out_dir: &Path,
    notes: &mut Vec<String>,
) -> CheckResult<Layer> {
    let routed = workload.starts_with("routed_journal");
    let mut samples: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    for (i, run) in traced.iter().enumerate() {
        let (from_spans, stitched) = layerstats::from_spans(run, routed);
        for (k, v) in from_spans.iter().chain(run.layer.iter()) {
            samples.entry(k).or_default().push(*v);
        }
        // Self times computed over a broken tree would be wrong numbers
        // in a table that looks right.
        if let Some(v) = stitched.first_violation() {
            return Err(format!(
                "{workload}: {} spans failed to nest, first: {v}",
                stitched.nesting_violations()
            ));
        }
        if i == 0 && !stitched.spans.is_empty() {
            let path = out_dir.join(format!("{workload}.trace.json"));
            trace::write_chrome(&path, &stitched)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            notes.push(format!(
                "chrome trace: {} ({} spans)",
                path.display(),
                stitched.spans.len().min(trace::CHROME_SPAN_CAP)
            ));
            let table = layerstats::self_time_table(&stitched);
            if !table.is_empty() {
                let rows: Vec<String> = table.iter().map(|(n, v)| format!("{n} {v:.2}")).collect();
                notes.push(format!(
                    "layer shares of an op (p50 self time of a span x spans per op), us: {}",
                    rows.join(", ")
                ));
            }
        }
    }
    let mut layer: Layer = samples
        .into_iter()
        .map(|(k, v)| (k, stats::median(&v)))
        .collect();

    let t: Vec<SubMetrics> = traced.iter().map(SubMetrics::of).collect();
    let u: Vec<SubMetrics> = untraced.iter().map(SubMetrics::of).collect();
    layer.insert(
        "proc.vol_ctx_switches_per_op",
        run::median_of(&t, |s| s.vol_ctx_switches_per_op),
    );
    layer.insert(
        "proc.cpu_sys_us_per_op",
        run::median_of(&t, |s| s.cpu_sys_us_per_op),
    );
    layer.insert(
        "proc.threads_peak",
        traced.iter().map(|r| r.threads).max().unwrap_or(0) as f64,
    );
    layer.insert("wall.op_p99_us", run::median_of(&t, |s| s.op_p99_us));
    let traced_p50 = run::median_of(&t, |s| s.op_p50_us);
    layer.insert("wall.traced_op_p50_us", traced_p50);
    if let Some(sum) = layer.get("obs.layer_self_sum_us") {
        notes.push(format!(
            "the layer shares sum to {sum:.2} us, the traced op_p50_us is {traced_p50:.2} us (ratio {:.3})",
            sum / traced_p50.max(1e-9)
        ));
    }
    layer.insert(
        "obs.trace_overhead_ratio",
        run::median_of(&t, |s| s.ops_per_s) / run::median_of(&u, |s| s.ops_per_s).max(1e-9),
    );

    let dir = root
        .subdir("probes")
        .map_err(|e| format!("probe dir: {e}"))?;
    let corpus = traced.first().map(|r| r.corpus.as_slice()).unwrap_or(&[]);
    match workload {
        "node_json" => {
            probes::codec(corpus, layers::WireCodec::Json, &mut layer);
            probes::inproc(corpus, &dir, &mut layer);
            probes::unix_echo(&dir, &mut layer)?;
        }
        "routed_journal" | "routed_journal_2cpu" => {
            probes::codec(corpus, layers::WireCodec::Binary, &mut layer);
            let peak_homes = workloads::routed_journal::RESIDENTS + workloads::CLIENTS as u64;
            probes::journal(&dir, peak_homes, &mut layer)?;
            probes::multi_gpu_register(&mut layer);
        }
        "churn" => {
            let corpus = probes::churn_corpus(256);
            probes::codec(&corpus, layers::WireCodec::Json, &mut layer);
            probes::inproc(&corpus, &dir, &mut layer);
            probes::conn_setup(&dir, &mut layer)?;
            probes::creation(&dir, &mut layer)?;
        }
        _ => {}
    }
    Ok(layer)
}

/// Print a report: every metric by name with its unit, the notes, and —
/// last — the one JSON line the driver reads.
fn print_report(report: &Report, correct: bool) {
    println!(
        "workload {} seed {} cpus_allowed {} tmp_fs {}",
        report.workload, report.seed, report.regime.cpus_allowed, report.regime.tmp_fs
    );
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .map_or("", |m| m.unit)
    };
    for (name, median, values) in &report.end_to_end {
        println!(
            "  {name:<22} {:>14} {:<6} sub-runs {}",
            stats::num(*median),
            unit_of(name),
            stats::num_array(values)
        );
    }
    // Every per-layer metric by name; 0 where the path misses the layer.
    let per_layer: Option<Vec<(&str, f64, &str)>> = report.per_layer.as_ref().map(|layer| {
        PER_LAYER
            .iter()
            .map(|m| (m.name, layer.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    });
    for (name, value, unit) in per_layer.iter().flatten() {
        println!("  {name:<40} {:>16} {unit}", stats::num(*value));
    }
    for note in &report.notes {
        println!("  {note}");
    }
    println!("{}", detail_line(report));
    let metrics: Vec<String> = match &per_layer {
        Some(rows) => rows
            .iter()
            .map(|(name, value, unit)| stats::metric_json(name, *value, unit))
            .collect(),
        None => report
            .end_to_end
            .iter()
            .map(|(name, median, _)| stats::metric_json(name, *median, unit_of(name)))
            .collect(),
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// The sub-run values behind the medians, as one `detail: {json}` line
/// (`--aa` copies it into the committed result file).
fn detail_line(report: &Report) -> String {
    let subruns: Vec<String> = report
        .end_to_end
        .iter()
        .map(|(name, _, values)| format!("\"{name}\": {}", stats::num_array(values)))
        .collect();
    let books: Vec<String> = report
        .books
        .iter()
        .map(|(name, v)| format!("\"{name}\": {}", stats::num(*v)))
        .collect();
    format!(
        "detail: {{\"workload\": \"{}\", \"seed\": {}, \"cpus_allowed\": \"{}\", \"tmp_fs\": \"{}\", \"samples_per_subrun\": {}, \"subruns\": {{{}}}, \"books\": {{{}}}}}",
        report.workload,
        report.seed,
        report.regime.cpus_allowed,
        report.regime.tmp_fs,
        report.samples_per_subrun,
        subruns.join(", "),
        books.join(", ")
    )
}

/// `--check`: every workload at smoke size, untraced and traced, with
/// all correctness checks on. Also what `cargo test` runs.
pub fn check(dirs: &Dirs) -> CheckResult<()> {
    let started = Instant::now();
    for w in &WORKLOADS {
        for trace in [false, true] {
            let report = run_workload(w.name, DEFAULT_SEED, Size::Smoke, trace, dirs)?;
            run::ensure!(
                report.failed == 0,
                "{}: {} of {} ops failed",
                w.name,
                report.failed,
                report.attempted
            );
            for (name, median, _) in &report.end_to_end {
                // CPU time comes in 10 ms ticks: a smoke run can read 0.
                let tick_sized = *name == "cpu_user_us_per_op" && *median == 0.0;
                let sane = median.is_finite() && (*median > 0.0 || tick_sized);
                run::ensure!(sane, "{}: {name} is {median}", w.name);
            }
            if let Some(layer) = &report.per_layer {
                for key in layer.keys() {
                    run::ensure!(
                        PER_LAYER.iter().any(|m| m.name == *key),
                        "{}: {key} is not a declared per-layer metric",
                        w.name
                    );
                }
                let has_spans = layer.get("obs.spans").copied().unwrap_or(0.0) > 0.0;
                run::ensure!(has_spans, "{}: traced run recorded no spans", w.name);
            }
            println!(
                "check {:<16} trace {} ok: {} ops, 0 failed",
                w.name,
                u8::from(trace),
                report.attempted
            );
        }
    }
    println!("check passed in {:.1} s", started.elapsed().as_secs_f64());
    Ok(())
}

struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    dirs: Dirs,
    json_out: Option<PathBuf>,
    label: String,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    Check,
    Aa,
    EmitManifest,
    EmitTable,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        dirs: Dirs {
            out: PathBuf::from("benchmark/out"),
            tmp: PathBuf::new(),
        },
        json_out: None,
        label: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--check" => args.mode = Mode::Check,
            "--aa" => args.mode = Mode::Aa,
            "--emit-manifest" => args.mode = Mode::EmitManifest,
            "--emit-table" => args.mode = Mode::EmitTable,
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--out-dir" => args.dirs.out = PathBuf::from(value("a directory")?),
            "--tmp-dir" => args.dirs.tmp = PathBuf::from(value("a directory")?),
            "--json-out" => args.json_out = Some(PathBuf::from(value("a file")?)),
            "--label" => args.label = value("text")?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.dirs.tmp.as_os_str().is_empty() {
        args.dirs.tmp = args.dirs.out.clone();
    }
    if args.mode == Mode::Run && args.workload.is_none() {
        return Err("give --workload <name>, --check, --aa or --emit-manifest".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    procfs::cpus_at_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("convgpu-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::EmitManifest => {
            print!("{}", metrics::manifest());
            Ok(())
        }
        Mode::EmitTable => {
            print!("{}", metrics::readme_table());
            Ok(())
        }
        Mode::Check => check(&args.dirs),
        Mode::Aa => aa::run(&aa::AaArgs {
            seed: args.seed,
            seconds: args.seconds,
            dirs: args.dirs.clone(),
            json_out: args.json_out.clone(),
            label: args.label.clone(),
        }),
        Mode::Run => {
            let workload = args.workload.as_deref().unwrap_or_default();
            run_workload(
                workload,
                args.seed,
                Size::Seconds(args.seconds),
                args.trace,
                &args.dirs,
            )
            .and_then(|report| {
                let correct = report.failed == 0;
                print_report(&report, correct);
                if correct {
                    Ok(())
                } else {
                    Err(format!(
                        "{} of {} ops failed",
                        report.failed, report.attempted
                    ))
                }
            })
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("convgpu-benchmark: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// The package's `cargo test` is its `--check`: every workload at
    /// smoke size with all correctness checks on.
    #[test]
    fn check_mode_passes() {
        let out = std::path::PathBuf::from("out");
        super::check(&super::Dirs {
            tmp: out.clone(),
            out,
        })
        .unwrap();
    }
}
