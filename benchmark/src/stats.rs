//! Order statistics and the little JSON the benchmark prints.

/// Sort a sample in place (NaN-free by construction).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
}

/// The `q` quantile (0..=1) of an ascending sample, interpolated between
/// neighbours so the result keeps sub-sample resolution. 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The `q` quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    quantile_sorted(&v, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method) — the rule the acceptance
/// spread is defined with. `None` below two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    sort(&mut v);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles_exclusive(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// A JSON number with all measured digits (never NaN/inf: those print
/// as 0 so the line stays parseable).
pub fn num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// `"name": {"value": v, "unit": "u"}`: one entry of a result line.
pub fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
        num(value)
    )
}

/// `[a, b, c]` as a JSON array of numbers.
pub fn num_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), Some((2.75, 8.25)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles_exclusive(&[1.0, 2.0]), Some((0.75, 2.25)));
    }

    #[test]
    fn numbers_stay_json() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(1.25), "1.25");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num_array(&[1.0, 0.5]), "[1.0, 0.5]");
    }
}
