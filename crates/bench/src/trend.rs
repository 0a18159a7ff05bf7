//! The unified perf-trend gate: one comparison of **every** benchmark
//! artifact's headline throughput metric against the committed baseline
//! (`ci/perf_baseline.json`).
//!
//! The loadgen campaigns (`BENCH_3/4/7.json`) each carry exactly one
//! headline metric — `total_decisions_per_sec`,
//! `sharded_total_decisions_per_sec` and
//! `cluster_total_decisions_per_sec` respectively — and the
//! transport-compare campaign (`BENCH_9.json`) one per leg. No campaign
//! gates itself: CI runs them all with `--out` and then invokes the
//! `perf-trend` binary once over the whole artifact set. That yields a single per-metric
//! delta table (also appended to `$GITHUB_STEP_SUMMARY` on Actions) and
//! one place where the retention threshold ([`BASELINE_RETENTION`]) is
//! enforced — for the cluster and transport metrics too, not just the
//! original two.
//!
//! A baseline metric that no supplied artifact reports is itself a gate
//! failure: it means a campaign silently stopped producing its artifact,
//! which is exactly the kind of rot the trend gate exists to catch.

use std::path::Path;

use convgpu_ipc::json::{self, Json};

/// Fraction of the baseline the measured throughput must retain (the CI
/// gate fails on a >20 % regression).
pub const BASELINE_RETENTION: f64 = 0.80;

/// One metric's baseline-vs-measured comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendRow {
    /// Metric key, e.g. `cluster_total_decisions_per_sec`.
    pub metric: String,
    /// Artifact file the measurement came from (display name).
    pub artifact: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Measured value from the artifact.
    pub measured: f64,
    /// `measured / baseline`.
    pub ratio: f64,
    /// Whether the measurement cleared `baseline * retention`.
    pub pass: bool,
}

/// The full trend comparison across every supplied artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct TrendReport {
    /// One row per baseline metric found in an artifact.
    pub rows: Vec<TrendRow>,
    /// Baseline metrics no supplied artifact reported — a gate failure.
    pub missing: Vec<String>,
    /// The retention fraction the rows were judged against.
    pub retention: f64,
}

impl TrendReport {
    /// True when every metric passed and none went missing.
    pub fn ok(&self) -> bool {
        self.missing.is_empty() && self.rows.iter().all(|r| r.pass)
    }

    /// GitHub-flavoured markdown delta table (used both on stdout and in
    /// the Actions step summary).
    pub fn markdown(&self) -> String {
        // Throughput metrics are large integers; ratio-style metrics
        // (e.g. `transport_tcp_vs_unix_ratio`) live below 10 and would
        // all round to the same value without decimals.
        fn value(v: f64) -> String {
            if v.abs() < 10.0 {
                format!("{v:.4}")
            } else {
                format!("{v:.0}")
            }
        }
        let mut out = String::new();
        out.push_str("| metric | artifact | baseline | measured | ratio | status |\n");
        out.push_str("|--------|----------|----------|----------|-------|--------|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.2}x | {} |\n",
                r.metric,
                r.artifact,
                value(r.baseline),
                value(r.measured),
                r.ratio,
                if r.pass { "pass" } else { "REGRESSED" },
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("| {m} | (no artifact) | — | — | — | MISSING |\n"));
        }
        out
    }
}

fn numeric(value: &Json) -> Option<f64> {
    match value {
        Json::U64(n) => Some(*n as f64),
        Json::I64(n) => Some(*n as f64),
        Json::F64(f) => Some(*f),
        _ => None,
    }
}

/// Compare every numeric metric in the baseline file against the first
/// supplied artifact that reports it. `retention` is the fraction of the
/// baseline the measurement must retain (CI uses
/// [`BASELINE_RETENTION`]). Errors on unreadable/unparsable files; a
/// *missing* metric is not an error but lands in
/// [`TrendReport::missing`] and fails [`TrendReport::ok`].
pub fn compare_trend(
    baseline_path: &Path,
    artifacts: &[(String, &Path)],
    retention: f64,
) -> Result<TrendReport, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text =
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", p.display()))
    };
    let baseline = read(baseline_path)?;
    let Json::Obj(fields) = &baseline else {
        return Err(format!(
            "baseline {} is not a JSON object",
            baseline_path.display()
        ));
    };
    let parsed: Vec<(String, Json)> = artifacts
        .iter()
        .map(|(name, p)| read(p).map(|j| (name.clone(), j)))
        .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (key, value) in fields {
        // String-valued keys are the baseline file's own commentary.
        let Some(base) = numeric(value) else { continue };
        match parsed
            .iter()
            .find_map(|(name, j)| j.get(key).and_then(numeric).map(|m| (name, m)))
        {
            Some((name, measured)) => {
                let ratio = if base > 0.0 {
                    measured / base
                } else {
                    f64::INFINITY
                };
                rows.push(TrendRow {
                    metric: key.clone(),
                    artifact: name.clone(),
                    baseline: base,
                    measured,
                    ratio,
                    pass: measured >= base * retention,
                });
            }
            None => missing.push(key.clone()),
        }
    }
    Ok(TrendReport {
        rows,
        missing,
        retention,
    })
}

/// [`compare_trend`] at the CI retention threshold.
pub fn compare_trend_ci(
    baseline_path: &Path,
    artifacts: &[(String, &Path)],
) -> Result<TrendReport, String> {
    compare_trend(baseline_path, artifacts, BASELINE_RETENTION)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("convgpu-trend-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn trend_compares_every_metric_and_flags_missing() {
        let dir = scratch("basic");
        let baseline = dir.join("baseline.json");
        std::fs::write(
            &baseline,
            r#"{"comment": "x", "a_per_sec": 100, "b_per_sec": 200, "c_per_sec": 300}"#,
        )
        .unwrap();
        let f1 = dir.join("one.json");
        std::fs::write(&f1, r#"{"a_per_sec": 95.0, "noise": "y"}"#).unwrap();
        let f2 = dir.join("two.json");
        std::fs::write(&f2, r#"{"b_per_sec": 120}"#).unwrap();

        let report = compare_trend(
            &baseline,
            &[
                ("one.json".to_string(), f1.as_path()),
                ("two.json".to_string(), f2.as_path()),
            ],
            0.8,
        )
        .unwrap();

        assert_eq!(report.rows.len(), 2);
        let a = &report.rows[0];
        assert_eq!(a.metric, "a_per_sec");
        assert_eq!(a.artifact, "one.json");
        assert!(a.pass, "95 >= 80% of 100");
        let b = &report.rows[1];
        assert_eq!(b.metric, "b_per_sec");
        assert!(!b.pass, "120 < 80% of 200");
        assert_eq!(report.missing, vec!["c_per_sec".to_string()]);
        assert!(!report.ok());

        let md = report.markdown();
        assert!(md.contains("REGRESSED"));
        assert!(md.contains("MISSING"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_passes_a_clean_artifact_set() {
        let dir = scratch("clean");
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, r#"{"a_per_sec": 100}"#).unwrap();
        let f1 = dir.join("one.json");
        std::fs::write(&f1, r#"{"a_per_sec": 100}"#).unwrap();
        let report =
            compare_trend_ci(&baseline, &[("one.json".to_string(), f1.as_path())]).unwrap();
        assert!(report.ok());
        assert!(report
            .markdown()
            .contains("| a_per_sec | one.json | 100 | 100 | 1.00x | pass |"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trend_errors_on_broken_inputs() {
        let dir = scratch("broken");
        let baseline = dir.join("baseline.json");
        std::fs::write(&baseline, "not json").unwrap();
        let f1 = dir.join("one.json");
        std::fs::write(&f1, "{}").unwrap();
        assert!(compare_trend_ci(&baseline, &[("one.json".to_string(), f1.as_path())]).is_err());

        std::fs::write(&baseline, r#"{"a_per_sec": 100}"#).unwrap();
        assert!(compare_trend_ci(
            &baseline,
            &[("gone.json".to_string(), dir.join("gone.json").as_path())]
        )
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
