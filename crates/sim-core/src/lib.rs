//! Simulation substrate shared by every crate in the ConVGPU reproduction.
//!
//! The original ConVGPU system (CLUSTER 2017) ran against a physical Tesla
//! K20m and wall-clock time. This reproduction must run the same logic both
//! against real time (threads, UNIX sockets, `std::time`) and against
//! *virtual* time (a discrete-event simulation that sweeps 38-container
//! scheduling experiments in milliseconds). Everything that needs a notion
//! of "now" therefore goes through the [`clock::Clock`] trait.
//!
//! Modules:
//!
//! * [`time`] — [`time::SimTime`] / [`time::SimDuration`]: nanosecond
//!   fixed-point time types shared by real and virtual clocks.
//! * [`clock`] — the [`clock::Clock`] trait plus [`clock::RealClock`]
//!   (optionally time-scaled) and [`clock::VirtualClock`].
//! * [`event`] — a deterministic discrete-event queue used by the policy
//!   experiments (paper Figs. 7/8, Tables IV/V).
//! * [`rng`] — deterministic, splittable PRNG (SplitMix64 seeding a
//!   xoshiro256**) so every experiment is reproducible from a `u64` seed.
//! * [`units`] — byte quantities (`MiB`, `GiB`) and the `--nvidia-memory`
//!   size grammar (`"512m"`, `"1g"`, …).
//! * [`stats`] — online mean/variance, percentiles, and experiment summary
//!   rows used by the benchmark harness.
//! * [`idgen`] — process-wide monotonic ID generation.
//! * [`sync`] — poison-free `Mutex`/`Condvar` wrappers over `std::sync`,
//!   the only locking primitives used in the workspace; debug builds check
//!   lock order on them.

#![forbid(unsafe_code)]
// Simulated time comes from SimClock: std::time::Instant / SystemTime are
// banned here by clippy.toml (docs/LINT.md).
#![deny(clippy::disallowed_types)]

pub mod clock;
pub mod event;
pub mod idgen;
pub mod ids;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod units;

pub use clock::{Clock, ClockHandle, RealClock, VirtualClock};
pub use event::EventQueue;
pub use ids::ContainerId;
pub use rng::DetRng;
pub use stats::{OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
pub use units::Bytes;
