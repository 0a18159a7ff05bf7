//! `--aa`: two full sets of runs of the same code, compared by the rule
//! a later PR is judged with. Each run is a child process (peak memory is
//! per process), seeded `seed`, `seed+1`, …; set B repeats set A's seeds,
//! and the sets take turns run by run.
//! Per workload × end-to-end metric it prints both medians, their ratio,
//! each set's quartile spread, the bound, and `agree` / `unresolved`;
//! any disagreement makes the exit code non-zero. With `--json-out` the
//! whole table, every run's sub-run values and one traced run per
//! workload are written as the committed result file.

use crate::metrics::{EndToEndDef, END_TO_END, PER_LAYER, RUNS_PER_SET, SUBRUNS, WORKLOADS};
use crate::run::CheckResult;
use crate::stats;
use std::path::PathBuf;
use std::process::Command;

pub struct AaArgs {
    pub seed: u64,
    pub seconds: u64,
    pub dirs: crate::Dirs,
    pub json_out: Option<PathBuf>,
    pub label: String,
}

/// What one child run printed.
struct ChildRun {
    seed: u64,
    metrics: Vec<(String, f64)>,
    detail: String,
    attempted: u64,
    failed: u64,
}

/// `"name": {"value": 1.5, …}` pairs of the benchmark's own result line.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let marker = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(marker) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        let tail = &rest[at + marker.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.push((name, v));
        }
        rest = &tail[end..];
    }
    out
}

fn parse_count(line: &str, key: &str) -> u64 {
    let marker = format!("\"{key}\": ");
    line.find(&marker)
        .map(|at| &line[at + marker.len()..])
        .and_then(|tail| {
            tail[..tail.find([',', '}']).unwrap_or(tail.len())]
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// The `"cpus_allowed": "0", "tmp_fs": "tmpfs"` part of a detail line:
/// the regime the child ran under.
fn regime_of(detail: &str) -> &str {
    let Some(from) = detail.find("\"cpus_allowed\"") else {
        return "";
    };
    let len = detail[from..].find(", \"samples_per_subrun\"").unwrap_or(0);
    &detail[from..from + len]
}

fn child(args: &AaArgs, workload: &str, seed: u64, trace: bool) -> CheckResult<ChildRun> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.dirs.out)
        .arg("--tmp-dir")
        .arg(&args.dirs.tmp)
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .unwrap_or("{}")
        .to_string();
    Ok(ChildRun {
        seed,
        metrics: parse_metrics(last),
        detail,
        attempted: parse_count(last, "attempted"),
        failed: parse_count(last, "failed"),
    })
}

fn values(runs: &[ChildRun], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &EndToEndDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

struct Row {
    workload: &'static str,
    /// Whether a disagreement fails the campaign (`WorkloadDef::gated`).
    gated: bool,
    metric: &'static EndToEndDef,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Row {
    /// Agreement by the acceptance rule: neither set's median worse than
    /// the other's by more than the bound, and (except for `setup_s`,
    /// which is only held to the median rule) both spreads within it.
    fn verdict(&self) -> &'static str {
        let (ma, mb) = (stats::median(&self.a), stats::median(&self.b));
        let bound = self.metric.bound;
        let medians_agree =
            worsening(self.metric, ma, mb) <= bound && worsening(self.metric, mb, ma) <= bound;
        let spreads_ok = self.metric.name == "setup_s"
            || (stats::spread(&self.a) <= bound && stats::spread(&self.b) <= bound);
        match (medians_agree, spreads_ok) {
            (true, true) => "agree",
            (true, false) => "unresolved",
            (false, _) => "DISAGREE",
        }
    }
}

pub fn run(args: &AaArgs) -> CheckResult<()> {
    let nproc = crate::procfs::cpus_online();
    println!(
        "A/A: 2 sets x {} workloads x {} runs of {} s ({} sub-runs each), seeds {}.., nproc {nproc}",
        WORKLOADS.len(),
        RUNS_PER_SET,
        args.seconds,
        SUBRUNS,
        args.seed,
    );
    // The host's noise comes in episodes of minutes: the two sets take
    // turns seed by seed (who goes first alternates), so both see the
    // same weather and only the code could tell them apart.
    let mut sets: Vec<Vec<(&'static str, Vec<ChildRun>)>> = vec![Vec::new(), Vec::new()];
    for w in &WORKLOADS {
        let mut runs = [
            Vec::with_capacity(RUNS_PER_SET),
            Vec::with_capacity(RUNS_PER_SET),
        ];
        for i in 0..RUNS_PER_SET {
            for turn in 0..2 {
                let set = (i + turn) % 2;
                let run = child(args, w.name, args.seed + i as u64, false)?;
                crate::run::ensure!(
                    run.failed == 0,
                    "{} seed {}: {} ops failed",
                    w.name,
                    run.seed,
                    run.failed
                );
                runs[set].push(run);
            }
        }
        println!("{:<20} done (2 x {} runs)", w.name, RUNS_PER_SET);
        for (set, runs) in sets.iter_mut().zip(runs) {
            set.push((w.name, runs));
        }
    }
    let traced: Vec<(&'static str, ChildRun)> = if args.json_out.is_some() {
        WORKLOADS
            .iter()
            .map(|w| child(args, w.name, args.seed, true).map(|r| (w.name, r)))
            .collect::<CheckResult<_>>()?
    } else {
        Vec::new()
    };

    // One CPU or two, tmpfs or disk: each sets the level of every timing
    // (README, "Noise facts"), and a run falls back, with only a note on
    // stderr, where it may not pin or mount. Runs of one workload under
    // different regimes are not compared.
    let mut regimes = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let runs = sets.iter().flat_map(|set| &set[wi].1);
        let mut runs = runs.chain(traced.iter().filter(|(n, _)| *n == w.name).map(|(_, r)| r));
        let regime = runs.next().map_or("", |r| regime_of(&r.detail));
        crate::run::ensure!(!regime.is_empty(), "{}: no regime in the output", w.name);
        for r in runs {
            crate::run::ensure!(
                regime_of(&r.detail) == regime,
                "{} seed {} ran under {{{}}}, the first run under {{{regime}}}",
                w.name,
                r.seed,
                regime_of(&r.detail)
            );
        }
        println!("{:<20} every run under {regime}", w.name);
        regimes.push(format!("\"{}\": {{{regime}}}", w.name));
    }
    let regimes = regimes.join(", ");

    // Counts that are exact for a seed must not differ between the sets.
    for (wi, w) in WORKLOADS.iter().enumerate() {
        if w.name != "sched_contended" {
            continue;
        }
        for (a, b) in sets[0][wi].1.iter().zip(&sets[1][wi].1) {
            let books = |r: &ChildRun| r.detail.split("\"books\": ").nth(1).map(str::to_string);
            crate::run::ensure!(
                books(a).is_some() && books(a) == books(b),
                "{} seed {}: exact counts differ between the sets: {:?} vs {:?}",
                w.name,
                a.seed,
                books(a),
                books(b)
            );
        }
        println!(
            "{}: exact counts identical across both sets for every seed",
            w.name
        );
    }

    let mut rows = Vec::new();
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            rows.push(Row {
                workload: w.name,
                gated: w.gated,
                metric: m,
                a: values(&sets[0][wi].1, m.name),
                b: values(&sets[1][wi].1, m.name),
            });
        }
    }
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>8} {:>9} {:>9} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "spread A", "spread B", "bound"
    );
    for r in &rows {
        let (ma, mb) = (stats::median(&r.a), stats::median(&r.b));
        println!(
            "{:<20} {:<20} {:>14.4} {:>14.4} {:>8.4} {:>9.4} {:>9.4} {:>6.2}  {}{}",
            r.workload,
            r.metric.name,
            ma,
            mb,
            if ma != 0.0 { mb / ma } else { 0.0 },
            stats::spread(&r.a),
            stats::spread(&r.b),
            r.metric.bound,
            r.verdict(),
            if r.gated { "" } else { " (informational)" }
        );
    }

    if let Some(path) = &args.json_out {
        let json = render_json(args, nproc, &regimes, &rows, &sets, &traced);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let bad: Vec<String> = rows
        .iter()
        .filter(|r| r.gated && r.verdict() != "agree")
        .map(|r| format!("{}/{} {}", r.workload, r.metric.name, r.verdict()))
        .collect();
    crate::run::ensure!(bad.is_empty(), "A/A sets do not agree: {}", bad.join(", "));
    Ok(())
}

fn quartile_json(v: &[f64]) -> String {
    let (q1, q3) = stats::quartiles_exclusive(v).unwrap_or((0.0, 0.0));
    format!(
        "{{\"values\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}}}",
        stats::num_array(v),
        stats::num(stats::median(v)),
        stats::num(q1),
        stats::num(q3),
        stats::num(stats::spread(v))
    )
}

fn render_json(
    args: &AaArgs,
    nproc: usize,
    regimes: &str,
    rows: &[Row],
    sets: &[Vec<(&'static str, Vec<ChildRun>)>],
    traced: &[(&'static str, ChildRun)],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"convgpu-benchmark\",\n  \"label\": \"{}\",\n  \"nproc\": {nproc},\n  \"regime\": {{{regimes}}},\n  \
         \"run_seconds\": {},\n  \"subruns_per_run\": {SUBRUNS},\n  \"runs_per_set\": {},\n  \
         \"first_seed\": {},\n",
        args.label.replace('"', "'"),
        args.seconds,
        RUNS_PER_SET,
        args.seed
    ));
    out.push_str("  \"end_to_end\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let (ma, mb) = (stats::median(&r.a), stats::median(&r.b));
        out.push_str(&format!(
            "    {{\"workload\": \"{}\", \"gated\": {}, \"metric\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \
             \"bound\": {}, \"ratio_b_over_a\": {}, \"verdict\": \"{}\",\n     \"set_a\": {},\n     \"set_b\": {}}}{}\n",
            r.workload,
            r.gated,
            r.metric.name,
            r.metric.unit,
            r.metric.better,
            r.metric.bound,
            stats::num(if ma != 0.0 { mb / ma } else { 0.0 }),
            r.verdict(),
            quartile_json(&r.a),
            quartile_json(&r.b),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"runs\": [\n");
    let all: Vec<(&str, &str, &ChildRun)> = sets
        .iter()
        .zip(["A", "B"])
        .flat_map(|(set, tag)| {
            set.iter()
                .flat_map(move |(w, runs)| runs.iter().map(move |r| (tag, *w, r)))
        })
        .collect();
    for (i, (tag, _workload, r)) in all.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"set\": \"{tag}\", \"attempted\": {}, \"failed\": {}, \"detail\": {}}}{}\n",
            r.attempted,
            r.failed,
            r.detail,
            if i + 1 == all.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (workload, r)) in traced.iter().enumerate() {
        let cells: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                let v = r
                    .metrics
                    .iter()
                    .find(|(n, _)| n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                stats::metric_json(m.name, v, m.unit)
            })
            .collect();
        out.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"seed\": {}, \"metrics\": {{{}}}}}{}\n",
            r.seed,
            cells.join(", "),
            if i + 1 == traced.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let line = "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
                    {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
                    \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}";
        assert_eq!(
            parse_metrics(line),
            vec![
                ("latency_ms".to_string(), 1.2034),
                ("setup_s".to_string(), 0.8127)
            ]
        );
        assert_eq!(parse_count(line, "attempted"), 1000);
        assert_eq!(parse_count(line, "failed"), 0);
    }

    #[test]
    fn the_regime_is_read_off_a_detail_line() {
        let detail = "{\"workload\": \"churn\", \"seed\": 3, \"cpus_allowed\": \"0-1\", \
                      \"tmp_fs\": \"tmpfs\", \"samples_per_subrun\": 5600, \"subruns\": {}}";
        assert_eq!(
            regime_of(detail),
            "\"cpus_allowed\": \"0-1\", \"tmp_fs\": \"tmpfs\""
        );
        assert_eq!(regime_of("{}"), "");
    }

    #[test]
    fn verdict_follows_the_bound() {
        let m = &END_TO_END[1]; // ops_per_s, higher is better
        assert!(m.better == "higher" && m.bound >= 0.1 && m.bound < 0.3);
        let row = |a: Vec<f64>, b: Vec<f64>| Row {
            workload: "w",
            gated: true,
            metric: m,
            a,
            b,
        };
        assert_eq!(
            row(vec![100.0, 101.0, 99.0], vec![100.5, 100.0, 99.5]).verdict(),
            "agree"
        );
        assert_eq!(
            row(vec![100.0, 101.0, 99.0], vec![60.0, 61.0, 59.0]).verdict(),
            "DISAGREE"
        );
        assert_eq!(
            row(vec![100.0, 160.0, 60.0], vec![100.0, 100.0, 100.0]).verdict(),
            "unresolved"
        );
        assert!((worsening(m, 100.0, 80.0) - 0.2).abs() < 1e-12);
    }
}
