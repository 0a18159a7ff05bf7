//! **convgpu-audit** — the verification layer of the ConVGPU
//! reproduction.
//!
//! Three pieces, all dependency-free:
//!
//! * [`model`] — a bounded model checker that drives the *real*
//!   scheduler through every interleaving of container lifecycle events
//!   for small quantized universes, checking one property list after
//!   every transition: the shared invariant oracle, no record off its
//!   home, the paper's §III-E deadlock-freedom claim per device, wakeup
//!   consistency and tag canonicality under the device ticket tags, and
//!   terminal drain. One explorer, generic over the [`SchedulerBackend`]
//!   under test; [`multi`] defines the universes that put a multi-GPU
//!   host under it.
//! * [`naive`] — the uncoordinated-sharing baseline the paper argues
//!   against, plus a breadth-first search for its **minimal** deadlock
//!   trace: the negative witness that makes the positive proof above
//!   meaningful.
//! * [`prop`] — a small deterministic property-test harness (seeded
//!   [`DetRng`] per case, replayable failures) standing in for
//!   `proptest` in the sealed build environment.
//!
//! * [`suite`] — the phase table: which universes the sweep covers.
//!
//! The `convgpu-audit` binary runs the whole suite:
//!
//! ```text
//! cargo run --release -p convgpu-audit --bin convgpu-audit
//! ```
//!
//! See `docs/AUDIT.md` for the invariants, the state-space bounds and
//! the soundness argument for the canonical state encoding.
//!
//! [`SchedulerBackend`]: convgpu_scheduler::SchedulerBackend
//! [`DetRng`]: convgpu_sim_core::rng::DetRng

#![forbid(unsafe_code)]

pub mod model;
pub mod multi;
pub mod naive;
pub mod prop;
pub mod suite;

pub use model::{CheckOutcome, Event, ExploreStats, Failure, ModelConfig, SearchMode, Topology};
pub use naive::{find_deadlock, NaiveConfig, NaiveScheduler, NaiveWitness};
