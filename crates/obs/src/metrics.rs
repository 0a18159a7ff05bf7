//! The metrics registry: counters, gauges and fixed-bucket latency
//! histograms behind one lock, snapshotted for exposition.
//!
//! Design points:
//!
//! * Series are written only through the typed handles of
//!   [`crate::catalogue`], and [`Registry::retire`] drops a closed
//!   container's container-lifetime series, so a long-lived registry
//!   holds the series of live containers only.
//! * Series are keyed by `(name, sorted labels)` in a `BTreeMap`, so a
//!   snapshot — and therefore the Prometheus text rendering — is in a
//!   deterministic order regardless of update order.
//! * Histograms use one fixed bucket ladder (nanoseconds, roughly
//!   1-2-5 per decade from 1 µs to 10 s). Fixed buckets make snapshots
//!   of *different* registries mergeable bucket-by-bucket, which the
//!   bench harness uses to aggregate per-thread recordings.
//! * All counts saturate instead of wrapping: metrics must never panic
//!   or corrupt on pathological inputs.

use crate::catalogue::{Counter, Gauge, Latency, Lifetime, CATALOGUE};
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::time::SimDuration;
use std::collections::BTreeMap;

/// Upper bounds (inclusive, in nanoseconds) of the shared histogram
/// bucket ladder. A final implicit `+Inf` bucket catches the rest.
pub const BUCKET_BOUNDS_NS: [u64; 22] = [
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
    2_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// One metric series identity: metric name plus sorted label pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesKey {
    /// Metric family name (a [`crate::catalogue`] row's `name`).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl SeriesKey {
    /// Build a key, sorting the labels for a canonical identity.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
}

/// A fixed-bucket latency histogram over [`BUCKET_BOUNDS_NS`].
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts; the final slot is the `+Inf`
    /// bucket. Counts are *not* cumulative in memory (they are made
    /// cumulative at exposition time).
    buckets: Vec<u64>,
    /// Saturating sum of observed values, nanoseconds.
    sum_ns: u64,
    /// Saturating total observation count.
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKET_BOUNDS_NS.len() + 1],
            sum_ns: 0,
            count: 0,
        }
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn observe_ns(&mut self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.count = self.count.saturating_add(1);
    }

    /// Record one observed duration.
    pub fn observe(&mut self, d: SimDuration) {
        self.observe_ns(d.as_nanos());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Sum of all observations, seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns as f64 / 1e9
    }

    /// Per-bucket `(upper_bound_ns, cumulative_count)` pairs; the final
    /// entry is the `+Inf` bucket (`upper_bound_ns == u64::MAX`).
    pub fn cumulative(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, &c) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(c);
            let bound = BUCKET_BOUNDS_NS.get(i).copied().unwrap_or(u64::MAX);
            out.push((bound, cum));
        }
        out
    }

    /// Estimate the `q`-quantile (0.0 ..= 1.0) in nanoseconds by linear
    /// interpolation inside the containing bucket — the same estimate
    /// Prometheus' `histogram_quantile` computes. `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        quantile_from_cumulative(&self.cumulative(), q)
    }

    /// Fold another histogram into this one, bucket by bucket.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.count = self.count.saturating_add(other.count);
    }
}

/// Quantile estimation over `(upper_bound_ns, cumulative_count)` buckets
/// (the shape both [`Histogram::cumulative`] and a parsed Prometheus
/// exposition produce). Linear interpolation within the containing
/// bucket; the `+Inf` bucket answers with its lower edge.
pub fn quantile_from_cumulative(buckets: &[(u64, u64)], q: f64) -> Option<f64> {
    let total = buckets.last().map(|&(_, c)| c)?;
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = q * total as f64;
    let mut lower_bound = 0u64;
    let mut lower_cum = 0u64;
    for &(bound, cum) in buckets {
        if (cum as f64) >= rank && cum > 0 {
            if bound == u64::MAX {
                // Open-ended bucket: the lower edge is the best estimate.
                return Some(lower_bound as f64);
            }
            let in_bucket = cum.saturating_sub(lower_cum);
            if in_bucket == 0 {
                return Some(bound as f64);
            }
            let frac = (rank - lower_cum as f64) / in_bucket as f64;
            let width = bound.saturating_sub(lower_bound) as f64;
            return Some(lower_bound as f64 + frac.clamp(0.0, 1.0) * width);
        }
        lower_bound = bound;
        lower_cum = cum;
    }
    None
}

/// One series' current value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone saturating counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Latency histogram.
    Histogram(Histogram),
}

/// A point-in-time copy of every series in a registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// All series, in canonical `(name, labels)` order.
    pub series: BTreeMap<SeriesKey, MetricValue>,
}

impl Snapshot {
    /// Look up a counter's value.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.series.get(&SeriesKey::new(name, labels)) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up a gauge's value.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.series.get(&SeriesKey::new(name, labels)) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Look up a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.series.get(&SeriesKey::new(name, labels)) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Merge another snapshot into this one: counters add (saturating),
    /// histograms merge bucket-wise, gauges take the other's value (the
    /// merged-in snapshot is treated as the more recent observation).
    pub fn merge(&mut self, other: &Snapshot) {
        for (key, theirs) in &other.series {
            match (self.series.get_mut(key), theirs) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    *a = a.saturating_add(*b);
                }
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => {
                    a.merge(b);
                }
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => {
                    *a = *b;
                }
                // Type mismatch (same name registered as two kinds):
                // last merge wins rather than panicking.
                (Some(slot), theirs) => *slot = theirs.clone(),
                (None, theirs) => {
                    self.series.insert(key.clone(), theirs.clone());
                }
            }
        }
    }
}

/// The shared, thread-safe metrics registry.
///
/// Every layer of the middleware holds an `Arc<Registry>` and records
/// into it; exposition takes a [`Snapshot`] and renders it (see
/// [`crate::prometheus`]).
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, MetricValue>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `delta` to a counter (created at zero on first touch).
    pub fn inc(&self, counter: Counter, labels: &[(&str, &str)], delta: u64) {
        let key = SeriesKey::new(counter.0.name, labels);
        let mut series = self.series.lock();
        if let MetricValue::Counter(v) =
            series.entry(key).or_insert_with(|| MetricValue::Counter(0))
        {
            *v = v.saturating_add(delta);
        }
    }

    /// Set a gauge.
    pub fn set_gauge(&self, gauge: Gauge, labels: &[(&str, &str)], value: f64) {
        let key = SeriesKey::new(gauge.0.name, labels);
        self.series.lock().insert(key, MetricValue::Gauge(value));
    }

    /// Record a duration observation into a histogram.
    pub fn observe(&self, latency: Latency, labels: &[(&str, &str)], d: SimDuration) {
        let key = SeriesKey::new(latency.0.name, labels);
        let mut series = self.series.lock();
        if let MetricValue::Histogram(h) = series
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::new()))
        {
            h.observe(d);
        }
    }

    /// Drop the series of every container-lifetime metric whose label set
    /// is exactly `labels` — a closing container's `container` label plus
    /// the labels its scheduler scopes every series with. Series another
    /// scheduler wrote for the same container keep their own labels, and
    /// so survive.
    pub fn retire(&self, labels: &[(&str, &str)]) {
        let mut series = self.series.lock();
        for m in CATALOGUE {
            if m.lifetime == Lifetime::Container {
                series.remove(&SeriesKey::new(m.name, labels));
            }
        }
    }

    /// Copy out every series.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            series: self.series.lock().clone(),
        }
    }

    /// Number of live series.
    pub fn len(&self) -> usize {
        self.series.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{
        IPC_REQUESTS, IPC_SERVER_HANDLE, SCHED_ASSIGNED, SCHED_CONTAINER_USED, SCHED_SUSPEND,
    };

    const C: &str = "convgpu_ipc_requests_total";

    #[test]
    fn empty_registry_snapshots_empty() {
        let r = Registry::new();
        assert!(r.is_empty());
        let snap = r.snapshot();
        assert!(snap.series.is_empty());
        assert_eq!(snap.counter("x", &[]), None);
        assert_eq!(snap.histogram("h", &[]), None);
        // Quantiles of nothing are None, not NaN or a panic.
        assert_eq!(Histogram::new().quantile_ns(0.5), None);
    }

    #[test]
    fn single_sample_quantiles_are_within_its_bucket() {
        let mut h = Histogram::new();
        h.observe_ns(3_000); // bucket (2 µs, 5 µs]
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_ns(), 3_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile_ns(q).unwrap();
            assert!(
                (2_000.0..=5_000.0).contains(&v),
                "q={q} estimated {v} outside the sample's bucket"
            );
        }
    }

    #[test]
    fn bucket_boundary_values_land_in_the_closed_upper_bucket() {
        let mut h = Histogram::new();
        // Exactly on a bound: `le` buckets are inclusive above.
        h.observe_ns(1_000);
        let cum = h.cumulative();
        assert_eq!(cum[0], (1_000, 1), "1000 ns belongs to le=1000");
        // One past the bound falls into the next bucket.
        let mut h2 = Histogram::new();
        h2.observe_ns(1_001);
        let cum2 = h2.cumulative();
        assert_eq!(cum2[0], (1_000, 0));
        assert_eq!(cum2[1], (2_000, 1));
        // Beyond the last finite bound lands in +Inf.
        let mut h3 = Histogram::new();
        h3.observe_ns(u64::MAX);
        let cum3 = h3.cumulative();
        assert_eq!(cum3.last().unwrap(), &(u64::MAX, 1));
        // The +Inf bucket's quantile answers with the last finite edge.
        assert_eq!(
            h3.quantile_ns(0.99).unwrap(),
            *BUCKET_BOUNDS_NS.last().unwrap() as f64
        );
    }

    #[test]
    fn counts_saturate_instead_of_wrapping() {
        let r = Registry::new();
        r.inc(IPC_REQUESTS, &[], u64::MAX - 1);
        r.inc(IPC_REQUESTS, &[], 5);
        assert_eq!(r.snapshot().counter(C, &[]), Some(u64::MAX));

        let mut h = Histogram::new();
        h.sum_ns = u64::MAX - 10;
        h.count = u64::MAX;
        h.observe_ns(1_000_000);
        assert_eq!(h.sum_ns(), u64::MAX, "sum saturates");
        assert_eq!(h.count(), u64::MAX, "count saturates");

        let mut a = Histogram::new();
        a.observe_ns(10);
        a.count = u64::MAX;
        let mut b = Histogram::new();
        b.observe_ns(10);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX, "merge saturates");
    }

    #[test]
    fn merging_two_snapshots_adds_counters_and_buckets() {
        let r1 = Registry::new();
        let ns = SimDuration::from_nanos;
        r1.inc(IPC_REQUESTS, &[("type", "ping")], 3);
        r1.observe(IPC_SERVER_HANDLE, &[], ns(1_500));
        r1.set_gauge(SCHED_ASSIGNED, &[], 1.0);
        let r2 = Registry::new();
        r2.inc(IPC_REQUESTS, &[("type", "ping")], 4);
        r2.inc(IPC_REQUESTS, &[("type", "free")], 1);
        r2.observe(IPC_SERVER_HANDLE, &[], ns(700_000));
        r2.set_gauge(SCHED_ASSIGNED, &[], 2.0);

        let mut merged = r1.snapshot();
        merged.merge(&r2.snapshot());
        assert_eq!(merged.counter(C, &[("type", "ping")]), Some(7));
        assert_eq!(merged.counter(C, &[("type", "free")]), Some(1));
        let g = SCHED_ASSIGNED.0.name;
        assert_eq!(merged.gauge(g, &[]), Some(2.0), "gauge: last write wins");
        let h = merged.histogram(IPC_SERVER_HANDLE.0.name, &[]).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ns(), 701_500);
        // The merged histogram's buckets partition both observations.
        let cum = h.cumulative();
        assert_eq!(cum.last().unwrap().1, 2);
    }

    #[test]
    fn label_order_does_not_split_series() {
        let r = Registry::new();
        r.inc(IPC_REQUESTS, &[("a", "1"), ("b", "2")], 1);
        r.inc(IPC_REQUESTS, &[("b", "2"), ("a", "1")], 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r.snapshot().counter(C, &[("a", "1"), ("b", "2")]), Some(2));
    }

    #[test]
    fn quantiles_interpolate_across_a_spread() {
        let mut h = Histogram::new();
        // 100 samples spread over (0, 100 µs].
        for i in 1..=100u64 {
            h.observe_ns(i * 1_000);
        }
        let p50 = h.quantile_ns(0.50).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!(
            (20_000.0..=100_000.0).contains(&p50),
            "p50={p50} outside plausible range"
        );
        assert!(p99 > p50, "p99={p99} must exceed p50={p50}");
        assert!(p99 <= 100_000.0 + f64::EPSILON);
    }

    #[test]
    fn retire_drops_exactly_one_scope_of_container_series() {
        let r = Registry::new();
        let d = SimDuration::from_nanos(1_000);
        for dev in ["0", "1"] {
            let labels = [("container", "cnt-0001"), ("device", dev)];
            r.set_gauge(SCHED_CONTAINER_USED, &labels, 1.0);
            r.observe(SCHED_SUSPEND, &labels, d);
        }
        r.set_gauge(
            SCHED_CONTAINER_USED,
            &[("container", "cnt-0002"), ("device", "0")],
            1.0,
        );
        r.inc(
            IPC_REQUESTS,
            &[("container", "cnt-0001"), ("device", "0")],
            1,
        );

        r.retire(&[("device", "0"), ("container", "cnt-0001")]);
        let snap = r.snapshot();
        let used = SCHED_CONTAINER_USED.0.name;
        let suspend = SCHED_SUSPEND.0.name;
        let gone = [("container", "cnt-0001"), ("device", "0")];
        assert_eq!(snap.gauge(used, &gone), None);
        assert!(snap.histogram(suspend, &gone).is_none());
        // The same container on another device, another container on the
        // same device, and a daemon-lifetime family all stay.
        let adopter = [("container", "cnt-0001"), ("device", "1")];
        assert_eq!(snap.gauge(used, &adopter), Some(1.0));
        assert!(snap.histogram(suspend, &adopter).is_some());
        assert_eq!(
            snap.gauge(used, &[("container", "cnt-0002"), ("device", "0")]),
            Some(1.0)
        );
        assert_eq!(snap.counter(C, &gone), Some(1));
        assert_eq!(r.len(), 4);
    }
}
