//! Prometheus text exposition (version 0.0.4) for a metrics
//! [`Snapshot`], plus a small parser so tests — and the acceptance
//! criterion "answer from the exposition output alone" — can consume
//! the rendered text without any external dependency.
//!
//! Conventions:
//!
//! * histogram buckets are rendered in **seconds** (`le="0.000001"` is
//!   1 µs), as Prometheus convention dictates for latency metrics;
//! * series appear in canonical `(name, labels)` order, so the output
//!   is byte-stable for a given snapshot;
//! * one `# TYPE` line precedes each metric family.

use crate::metrics::{Histogram, MetricValue, SeriesKey, Snapshot};

fn render_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
}

fn render_histogram(out: &mut String, key: &SeriesKey, h: &Histogram) {
    for (bound_ns, cum) in h.cumulative() {
        out.push_str(&key.name);
        out.push_str("_bucket");
        let le = if bound_ns == u64::MAX {
            "+Inf".to_string()
        } else {
            (bound_ns as f64 / 1e9).to_string()
        };
        render_labels(out, &key.labels, Some(("le", &le)));
        out.push(' ');
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(&key.name);
    out.push_str("_sum");
    render_labels(out, &key.labels, None);
    out.push(' ');
    out.push_str(&h.sum_secs().to_string());
    out.push('\n');
    out.push_str(&key.name);
    out.push_str("_count");
    render_labels(out, &key.labels, None);
    out.push(' ');
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Render a snapshot as Prometheus exposition text.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for (key, value) in &snapshot.series {
        if last_family != Some(key.name.as_str()) {
            last_family = Some(key.name.as_str());
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str("# TYPE ");
            out.push_str(&key.name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        }
        match value {
            MetricValue::Counter(v) => {
                out.push_str(&key.name);
                render_labels(&mut out, &key.labels, None);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            MetricValue::Gauge(v) => {
                out.push_str(&key.name);
                render_labels(&mut out, &key.labels, None);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            MetricValue::Histogram(h) => render_histogram(&mut out, key, h),
        }
    }
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Full series name as rendered (e.g. `convgpu_x_bucket`).
    pub name: String,
    /// Label pairs in rendered order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// Label lookup.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// True when every pair in `want` appears in this sample's labels.
    pub fn has_labels(&self, want: &[(&str, &str)]) -> bool {
        want.iter().all(|(k, v)| self.label(k) == Some(*v))
    }
}

/// Parse exposition text back into samples. Comment (`#`) and blank
/// lines are skipped; a malformed line is an error (tests should fail
/// loudly, not silently drop data).
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}: {line:?}", no + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.rfind(' ') {
        Some(i) => (&line[..i], line[i + 1..].trim()),
        None => return Err("no value".into()),
    };
    let value = match value_str {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        v => v.parse::<f64>().map_err(|e| format!("bad value: {e}"))?,
    };
    let (name, labels) = match name_and_labels.find('{') {
        None => (name_and_labels.trim().to_string(), Vec::new()),
        Some(open) => {
            let name = name_and_labels[..open].to_string();
            let rest = name_and_labels[open + 1..]
                .strip_suffix('}')
                .ok_or("unterminated label block")?;
            (name, parse_labels(rest)?)
        }
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let eq = s[i..].find('=').map(|p| i + p).ok_or("label without '='")?;
        let key = s[i..eq].trim().to_string();
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        let mut j = eq + 2;
        loop {
            match bytes.get(j) {
                None => return Err("unterminated label value".into()),
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(j + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err("bad escape in label value".into()),
                    }
                    j += 2;
                }
                Some(&b) => {
                    value.push(b as char);
                    j += 1;
                }
            }
        }
        out.push((key, value));
        i = j + 1;
        if bytes.get(i) == Some(&b',') {
            i += 1;
        }
    }
    Ok(out)
}

/// Reconstruct a histogram's cumulative buckets from parsed samples:
/// every `<name>_bucket` sample whose labels include `fixed`, keyed by
/// its `le` bound converted back to nanoseconds. Paired with
/// [`crate::metrics::quantile_from_cumulative`], this answers p50/p99
/// questions from the exposition text alone.
pub fn histogram_buckets(
    samples: &[Sample],
    name: &str,
    fixed: &[(&str, &str)],
) -> Vec<(u64, u64)> {
    let bucket_name = format!("{name}_bucket");
    let mut out: Vec<(u64, u64)> = samples
        .iter()
        .filter(|s| s.name == bucket_name && s.has_labels(fixed))
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound_ns = if le == "+Inf" {
                u64::MAX
            } else {
                (le.parse::<f64>().ok()? * 1e9).round() as u64
            };
            Some((bound_ns, s.value.round() as u64))
        })
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{IPC_CLIENT_RTT, IPC_REQUESTS, SCHED_PROGRESS_STATE};
    use crate::metrics::{quantile_from_cumulative, Registry};
    use convgpu_sim_core::time::SimDuration;

    #[test]
    fn renders_and_reparses_counters_and_gauges() {
        let r = Registry::new();
        r.inc(IPC_REQUESTS, &[("type", "ping")], 3);
        r.set_gauge(SCHED_PROGRESS_STATE, &[], 2.0);
        let text = render(&r.snapshot());
        assert!(
            text.contains("# TYPE convgpu_sched_progress_state gauge"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE convgpu_ipc_requests_total counter"),
            "{text}"
        );
        let samples = parse_text(&text).unwrap();
        let c = samples
            .iter()
            .find(|s| s.name == "convgpu_ipc_requests_total")
            .unwrap();
        assert_eq!(c.value, 3.0);
        assert_eq!(c.label("type"), Some("ping"));
    }

    #[test]
    fn histogram_round_trips_through_text_with_quantiles() {
        let r = Registry::new();
        for i in 1..=100u64 {
            let d = SimDuration::from_nanos(i * 1_000);
            r.observe(IPC_CLIENT_RTT, &[("type", "alloc")], d);
        }
        let name = "convgpu_ipc_client_rtt_seconds";
        let snap = r.snapshot();
        let text = render(&snap);
        assert!(text.contains(&format!("{name}_bucket")), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
        let samples = parse_text(&text).unwrap();
        let buckets = histogram_buckets(&samples, name, &[("type", "alloc")]);
        assert_eq!(buckets.last().unwrap().1, 100, "all samples in +Inf cum");
        // The text-derived quantile equals the in-memory one.
        let direct = snap
            .histogram(name, &[("type", "alloc")])
            .unwrap()
            .quantile_ns(0.99)
            .unwrap();
        let via_text = quantile_from_cumulative(&buckets, 0.99).unwrap();
        assert!(
            (direct - via_text).abs() < 1.0,
            "direct={direct} text={via_text}"
        );
        // Sum and count samples accompany the buckets.
        assert!(samples
            .iter()
            .any(|s| s.name == format!("{name}_count") && s.value == 100.0));
        assert!(samples
            .iter()
            .any(|s| s.name == format!("{name}_sum") && s.value > 0.0));
    }

    #[test]
    fn label_values_with_quotes_survive() {
        let r = Registry::new();
        r.inc(IPC_REQUESTS, &[("k", "a\"b\\c")], 1);
        let text = render(&r.snapshot());
        let samples = parse_text(&text).unwrap();
        assert_eq!(samples[0].label("k"), Some("a\"b\\c"));
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = |order: &[u64]| {
            let r = Registry::new();
            for &i in order {
                r.inc(IPC_REQUESTS, &[("i", &i.to_string())], i);
            }
            render(&r.snapshot())
        };
        assert_eq!(build(&[3, 1, 2]), build(&[2, 3, 1]));
    }
}
