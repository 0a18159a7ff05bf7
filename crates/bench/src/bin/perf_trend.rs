//! `perf-trend` — the one-shot CI perf gate over every benchmark
//! artifact.
//!
//! ```text
//! perf_trend --baseline=ci/perf_baseline.json BENCH_3.json BENCH_4.json ...
//! ```
//!
//! Compares each numeric metric in the baseline file against the first
//! supplied artifact that reports it, prints a per-metric markdown delta
//! table, appends the same table to `$GITHUB_STEP_SUMMARY` when that
//! variable is set (GitHub Actions job summaries), and exits non-zero if
//! any metric regressed below the retention floor
//! ([`convgpu_bench::trend::BASELINE_RETENTION`]) or went missing from
//! the artifact set.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use convgpu_bench::trend::{compare_trend, BASELINE_RETENTION};

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf_trend --baseline=PATH [--retention=FRACTION] ARTIFACT.json [ARTIFACT.json ...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut baseline: Option<PathBuf> = None;
    let mut retention = BASELINE_RETENTION;
    let mut artifacts: Vec<PathBuf> = Vec::new();
    for a in std::env::args().skip(1) {
        if let Some(v) = a.strip_prefix("--baseline=") {
            baseline = Some(PathBuf::from(v));
        } else if let Some(v) = a.strip_prefix("--retention=") {
            match v.parse::<f64>() {
                Ok(f) if f > 0.0 && f <= 1.0 => retention = f,
                _ => return usage(),
            }
        } else if a == "--help" || a == "-h" {
            return usage();
        } else if a.starts_with("--") {
            eprintln!("perf_trend: unknown flag {a}");
            return usage();
        } else {
            artifacts.push(PathBuf::from(a));
        }
    }
    let Some(baseline) = baseline else {
        return usage();
    };
    if artifacts.is_empty() {
        return usage();
    }

    let named: Vec<(String, &std::path::Path)> = artifacts
        .iter()
        .map(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| p.display().to_string());
            (name, p.as_path())
        })
        .collect();

    let report = match compare_trend(&baseline, &named, retention) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_trend: {e}");
            return ExitCode::FAILURE;
        }
    };

    let table = report.markdown();
    println!(
        "perf trend vs {} (retention floor {:.0}%):",
        baseline.display(),
        retention * 100.0
    );
    println!("{table}");

    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary.is_empty() {
            let block = format!(
                "## Perf trend (floor {:.0}% of baseline)\n\n{table}\n",
                retention * 100.0
            );
            match std::fs::OpenOptions::new().append(true).open(&summary) {
                Ok(mut f) => {
                    if let Err(e) = f.write_all(block.as_bytes()) {
                        eprintln!("perf_trend: cannot append to step summary: {e}");
                    }
                }
                Err(e) => eprintln!("perf_trend: cannot open step summary {summary}: {e}"),
            }
        }
    }

    if report.ok() {
        println!(
            "perf trend: all {} metric(s) within budget",
            report.rows.len()
        );
        ExitCode::SUCCESS
    } else {
        let regressed = report.rows.iter().filter(|r| !r.pass).count();
        eprintln!(
            "perf trend: FAIL ({regressed} regressed, {} missing)",
            report.missing.len()
        );
        ExitCode::FAILURE
    }
}
