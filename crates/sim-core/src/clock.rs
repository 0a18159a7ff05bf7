//! The [`Clock`] abstraction: one trait, two implementations.
//!
//! * [`RealClock`] — backed by `std::time::Instant`, optionally *time-scaled*
//!   so that one "paper second" of workload time maps to, say, one real
//!   millisecond. The live experiments (paper Figs. 4–6) run on this clock:
//!   IPC latency is real, workload kernel time is scaled.
//! * [`VirtualClock`] — a shared counter advanced either explicitly by the
//!   discrete-event engine or implicitly by `sleep` (single-actor semantics:
//!   sleeping simply jumps the clock forward). The scheduling-policy sweeps
//!   (paper Figs. 7/8) run on this clock, which is why a 38-container,
//!   four-policy, six-repetition experiment finishes in milliseconds.
//!
//! Workload code always takes a [`ClockHandle`] so the same program body can
//! run in either mode — exactly the property ConVGPU itself relies on: the
//! wrapper module does not care whether the GPU "runs" in real time.

#![allow(
    clippy::disallowed_types,
    reason = "the clock shim is the one place that reads the host clock; RealClock is built on Instant"
)]

use crate::sync::Mutex;
use crate::time::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// A source of "now" plus the ability to wait.
pub trait Clock: Send + Sync {
    /// Current time on this clock's timeline.
    fn now(&self) -> SimTime;

    /// Block (really or virtually) for `d` of *workload* time.
    fn sleep(&self, d: SimDuration);

    /// The factor mapping workload time to wall time. `1.0` for unscaled
    /// real clocks and virtual clocks (virtual time *is* workload time).
    fn time_scale(&self) -> f64 {
        1.0
    }
}

/// Shared, clonable clock reference used throughout the workspace.
pub type ClockHandle = Arc<dyn Clock>;

/// Wall-clock time, optionally compressed.
///
/// With `scale = 0.001`, a workload that "runs for 30 s" on the GPU sleeps
/// for 30 ms of real time, but `now()` still reports workload seconds, so
/// metrics stay in paper units.
pub struct RealClock {
    origin: Instant,
    /// wall seconds per workload second
    scale: f64,
}

impl RealClock {
    /// Unscaled wall clock (1 workload second = 1 real second).
    pub fn new() -> Self {
        Self::scaled(1.0)
    }

    /// Wall clock compressed by `scale` (must be finite and positive).
    ///
    /// # Panics
    /// Panics when `scale` is not a positive finite number.
    pub fn scaled(scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be positive and finite, got {scale}"
        );
        RealClock {
            origin: Instant::now(),
            scale,
        }
    }

    /// Convenience: `Arc`-wrapped unscaled clock.
    pub fn handle() -> ClockHandle {
        Arc::new(RealClock::new())
    }

    /// Convenience: `Arc`-wrapped scaled clock.
    pub fn scaled_handle(scale: f64) -> ClockHandle {
        Arc::new(RealClock::scaled(scale))
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> SimTime {
        let wall = SimDuration::from_std(self.origin.elapsed());
        // Report workload time: wall time divided by the compression factor.
        SimTime::ZERO + wall.mul_f64(1.0 / self.scale)
    }

    fn sleep(&self, d: SimDuration) {
        let wall = d.mul_f64(self.scale);
        if wall.is_zero() {
            return;
        }
        // The Fig. 4 experiment measures tens-of-microsecond API latencies;
        // `thread::sleep` has ~50 µs jitter on Linux, so short waits spin on
        // `Instant` instead. 200 µs of spinning per simulated CUDA call is
        // cheap and keeps the latency model faithful.
        const SPIN_THRESHOLD: SimDuration = SimDuration::from_micros(200);
        if wall <= SPIN_THRESHOLD {
            let deadline = Instant::now() + wall.to_std();
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
        } else {
            std::thread::sleep(wall.to_std());
        }
    }

    fn time_scale(&self) -> f64 {
        self.scale
    }
}

/// Virtual time: a shared counter.
///
/// Two ways to advance it:
/// * the discrete-event engine calls [`VirtualClock::advance_to`] when it
///   pops the next event;
/// * sequential virtual-time programs (the MNIST cost model, unit tests)
///   call `sleep`, which jumps the counter forward immediately.
#[derive(Clone)]
pub struct VirtualClock {
    now: Arc<Mutex<SimTime>>,
}

impl VirtualClock {
    /// A virtual clock starting at t = 0.
    pub fn new() -> Self {
        VirtualClock {
            now: Arc::new(Mutex::new(SimTime::ZERO)),
        }
    }

    /// Convenience: `Arc`-wrapped handle plus the clock itself (the engine
    /// keeps the concrete type to call `advance_to`).
    pub fn handle(&self) -> ClockHandle {
        Arc::new(self.clone())
    }

    /// Advance to an absolute time. Never goes backwards: advancing to a
    /// time in the past is a no-op, so event handlers that schedule at
    /// "now" are safe.
    pub fn advance_to(&self, t: SimTime) {
        let mut now = self.now.lock();
        if t > *now {
            *now = t;
        }
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        *self.now.lock()
    }

    fn sleep(&self, d: SimDuration) {
        let mut now = self.now.lock();
        *now += d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_sleeps_forward() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.sleep(SimDuration::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(5));
        c.sleep(SimDuration::from_millis(500));
        assert_eq!(c.now().as_nanos(), 5_500_000_000);
    }

    #[test]
    fn virtual_clock_never_goes_backwards() {
        let c = VirtualClock::new();
        c.advance_to(SimTime::from_secs(10));
        c.advance_to(SimTime::from_secs(3));
        assert_eq!(c.now(), SimTime::from_secs(10));
    }

    #[test]
    fn virtual_clock_clones_share_state() {
        let c = VirtualClock::new();
        let h = c.handle();
        c.advance_to(SimTime::from_secs(7));
        assert_eq!(h.now(), SimTime::from_secs(7));
    }

    #[test]
    fn real_clock_advances() {
        let c = RealClock::new();
        let t0 = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(c.now() > t0);
    }

    #[test]
    fn scaled_real_clock_compresses_sleep() {
        // 1 workload second = 1 real millisecond.
        let c = RealClock::scaled(0.001);
        let wall0 = Instant::now();
        c.sleep(SimDuration::from_secs(2));
        let wall = wall0.elapsed();
        assert!(wall >= std::time::Duration::from_millis(2));
        assert!(wall < std::time::Duration::from_millis(500));
        // now() reports workload time, so ≥ 2 s must have "passed".
        assert!(c.now() >= SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn zero_scale_rejected() {
        let _ = RealClock::scaled(0.0);
    }

    #[test]
    fn zero_sleep_is_noop() {
        let c = RealClock::new();
        c.sleep(SimDuration::ZERO); // must not panic or block
    }
}
