//! GPU memory utilization timeline.
//!
//! The paper reports completion and waiting times but never *utilization*
//! — yet utilization is the quantity Best-Fit actually optimizes ("it
//! maximizes the GPU memory throughput", §IV-C). The scheduler records
//! `(time, assigned, used)` after every event, and the timeline folds
//! each step into a running integral of `used` over time, so a daemon
//! that serves for months keeps a few words here, not one sample per
//! transition. The extension experiment `repro_utilization` reads the
//! time-weighted mean utilization per policy off that integral.

use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;

/// One observation: the step the function is on from `at` onwards.
#[derive(Clone, Copy, Debug)]
struct Sample {
    at: SimTime,
    assigned: Bytes,
    used: Bytes,
}

/// Step function of scheduler memory state, kept as its integral.
#[derive(Clone, Debug, Default)]
pub struct UtilizationTimeline {
    /// Time of the first sample (meaningless while `last` is `None`).
    first: SimTime,
    /// The most recent sample; `None` for an empty timeline.
    last: Option<Sample>,
    /// `∫ used dt` over `[first, last.at]`, in byte·ns — exact.
    used_integral: u128,
    /// Highest `used` ever recorded.
    peak_used: Bytes,
}

impl UtilizationTimeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample; consecutive identical states are merged (the
    /// timeline is a step function, so repeats carry no information).
    /// A timestamp earlier than the last sample (possible under clock
    /// skew between concurrent observers) is clamped forward — the
    /// *order* of scheduler decisions is authoritative, not the reading
    /// of the wall clock.
    pub fn record(&mut self, at: SimTime, assigned: Bytes, used: Bytes) {
        let at = match self.last {
            Some(last) if last.assigned == assigned && last.used == used => return,
            Some(last) => {
                let at = at.max(last.at);
                self.used_integral += byte_ns(last.used, at.saturating_since(last.at).as_nanos());
                at
            }
            None => {
                self.first = at;
                at
            }
        };
        self.last = Some(Sample { at, assigned, used });
        self.peak_used = self.peak_used.max(used);
    }

    /// Highest observed usage.
    pub fn peak_used(&self) -> Bytes {
        self.peak_used
    }

    /// Time-weighted mean of `used / capacity` over `[start of record,
    /// end]`. Zero for an empty timeline or a zero-length window. The
    /// steps before the last sample are already folded in, so an `end`
    /// earlier than the last sample reads as the last sample's time.
    pub fn mean_used_fraction(&self, capacity: Bytes, end: SimTime) -> f64 {
        let Some(last) = self.last else {
            return 0.0;
        };
        let end = end.max(last.at);
        let total = end.saturating_since(self.first).as_nanos();
        if capacity.is_zero() || total == 0 {
            return 0.0;
        }
        let tail = byte_ns(last.used, end.saturating_since(last.at).as_nanos());
        (self.used_integral + tail) as f64 / capacity.as_u64() as f64 / total as f64
    }
}

/// `bytes × ns`, exactly.
fn byte_ns(bytes: Bytes, ns: u64) -> u128 {
    u128::from(bytes.as_u64()) * u128::from(ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_sim_core::DetRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// The timeline as it was before it became an integral: every
    /// sample kept, the mean walked span by span at read time.
    #[derive(Default)]
    struct SampleWalk {
        samples: Vec<Sample>,
    }

    impl SampleWalk {
        fn record(&mut self, at: SimTime, assigned: Bytes, used: Bytes) {
            let at = match self.samples.last() {
                Some(last) if last.assigned == assigned && last.used == used => return,
                Some(last) => at.max(last.at),
                None => at,
            };
            self.samples.push(Sample { at, assigned, used });
        }

        fn peak_used(&self) -> Bytes {
            self.samples
                .iter()
                .map(|s| s.used)
                .max()
                .unwrap_or(Bytes::ZERO)
        }

        fn mean_used_fraction(&self, capacity: Bytes, end: SimTime) -> f64 {
            if self.samples.is_empty() || capacity.is_zero() {
                return 0.0;
            }
            let mut weighted = 0.0_f64;
            let t0 = self.samples[0].at;
            let total = end.saturating_since(t0).as_secs_f64();
            if total <= 0.0 {
                return 0.0;
            }
            for (i, s) in self.samples.iter().enumerate() {
                let until = self
                    .samples
                    .get(i + 1)
                    .map(|n| n.at)
                    .unwrap_or(end)
                    .min(end);
                let span = until.saturating_since(s.at).as_secs_f64();
                weighted += span * (s.used.as_u64() as f64 / capacity.as_u64() as f64);
            }
            weighted / total
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn the_integral_matches_the_sample_walk() {
        let cap = Bytes::mib(5120);
        let mut rng = DetRng::seed_from_u64(41);
        for case in 0..200 {
            let (mut tl, mut walk) = (UtilizationTimeline::new(), SampleWalk::default());
            let mut now = rng.next_below(1_000_000_000);
            for _ in 0..rng.range_inclusive(1, 60) {
                // Few distinct states, so repeats are common; one step in
                // five reads the clock earlier than the last sample.
                let assigned = Bytes::mib(1024 * rng.next_below(4));
                let used = Bytes::mib(512 * rng.next_below(4));
                let at = if rng.next_below(5) == 0 {
                    now.saturating_sub(rng.next_below(2_000_000_000))
                } else {
                    now += rng.next_below(3_000_000_000);
                    now
                };
                tl.record(SimTime::from_nanos(at), assigned, used);
                walk.record(SimTime::from_nanos(at), assigned, used);
            }
            assert_eq!(tl.peak_used(), walk.peak_used(), "case {case}");
            let last = walk.samples.last().unwrap().at;
            let after = SimTime::from_nanos(last.as_nanos() + rng.next_below(5_000_000_000));
            for end in [last, after] {
                let (got, want) = (
                    tl.mean_used_fraction(cap, end),
                    walk.mean_used_fraction(cap, end),
                );
                assert!(close(got, want), "case {case}: {got} vs {want}");
            }
        }
    }

    /// The steps before the last sample are folded away, so an `end`
    /// before it reads as `end` at it (the walk would cut the window).
    #[test]
    fn an_end_before_the_last_sample_reads_as_the_last_sample() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(100);
        tl.record(t(0), cap, Bytes::mib(100));
        tl.record(t(10), cap, Bytes::mib(50));
        tl.record(t(20), cap, Bytes::mib(0));
        assert_eq!(
            tl.mean_used_fraction(cap, t(5)),
            tl.mean_used_fraction(cap, t(20))
        );
        assert!((tl.mean_used_fraction(cap, t(5)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_timestamps_are_clamped() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(2);
        tl.record(t(10), Bytes::mib(1), Bytes::mib(1));
        tl.record(t(5), Bytes::mib(2), Bytes::mib(2)); // skewed observer
                                                       // Clamped to t=10: 1 MiB over [10, 10], then 2 MiB over [10, 20].
        let mean = tl.mean_used_fraction(cap, t(20));
        assert!(
            (mean - 1.0).abs() < 1e-9,
            "clamped to the last sample: {mean}"
        );
    }

    #[test]
    fn identical_states_are_merged() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(100);
        tl.record(t(0), Bytes::mib(100), Bytes::mib(50));
        tl.record(t(1), Bytes::mib(100), Bytes::mib(50));
        // A merged repeat moves no timestamp, so this skewed reading is
        // clamped to t=0's sample, not to the repeat at t=1.
        tl.record(t(0), Bytes::mib(200), Bytes::mib(100));
        let mean = tl.mean_used_fraction(cap, t(10));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn mean_used_fraction_integrates_the_step_function() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(100);
        // 0–10 s at 50 %, 10–20 s at 100 %.
        tl.record(t(0), cap, Bytes::mib(50));
        tl.record(t(10), cap, Bytes::mib(100));
        let mean = tl.mean_used_fraction(cap, t(20));
        assert!((mean - 0.75).abs() < 1e-9, "{mean}");
        // Peak tracks the maximum.
        assert_eq!(tl.peak_used(), Bytes::mib(100));
    }

    #[test]
    fn assigned_memory_does_not_count_as_used() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(100);
        tl.record(t(0), Bytes::mib(80), Bytes::mib(20));
        assert!((tl.mean_used_fraction(cap, t(10)) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn empty_and_degenerate_windows_are_zero() {
        let tl = UtilizationTimeline::new();
        assert_eq!(tl.mean_used_fraction(Bytes::mib(1), t(10)), 0.0);
        let mut tl = UtilizationTimeline::new();
        tl.record(t(5), Bytes::mib(1), Bytes::mib(1));
        assert_eq!(tl.mean_used_fraction(Bytes::mib(1), t(5)), 0.0, "zero span");
        assert_eq!(
            tl.mean_used_fraction(Bytes::ZERO, t(9)),
            0.0,
            "zero capacity"
        );
    }

    #[test]
    fn end_clamps_trailing_samples() {
        let mut tl = UtilizationTimeline::new();
        let cap = Bytes::mib(100);
        tl.record(t(0), cap, Bytes::mib(100));
        tl.record(t(10), cap, Bytes::mib(0));
        // Window ends at t=10: only the 100 % span counts.
        let mean = tl.mean_used_fraction(cap, t(10));
        assert!((mean - 1.0).abs() < 1e-9, "{mean}");
    }
}
