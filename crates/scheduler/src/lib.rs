//! The ConVGPU **GPU memory scheduler** (paper §III-D) — the primary
//! contribution of the paper.
//!
//! The scheduler "determines to accept, pause, or reject every GPU memory
//! allocation from the containers". It is implemented here as a *pure
//! synchronous state machine*: every entry point takes the current time and
//! returns the actions to perform (replies to release, containers to
//! resume). Two drivers wrap it:
//!
//! * the live service in `convgpu-core`, which parks withheld replies on
//!   real UNIX-socket connections, and
//! * the discrete-event harness in `convgpu-bench`, which replays the
//!   paper's Figs. 7/8 sweeps in virtual time.
//!
//! Both therefore execute the identical decision logic, which is the
//! property that makes the simulated policy experiments meaningful.
//!
//! Modules:
//! * [`state`] — per-container records: declared limit, *assigned*
//!   (guaranteed) budget, live allocations, per-pid context charges,
//!   pending (suspended) requests, suspension metrics.
//! * [`core`] — the [`core::Scheduler`] state machine: admission,
//!   suspension, the full-guarantee resume rule (Fig. 3d), redistribution
//!   on container exit, and leak reclamation.
//! * [`policy`] — the four paper policies (FIFO, Best-Fit, Recent-Use,
//!   Random) behind one trait.
//! * [`candidates`] — the index of suspended containers the scheduler
//!   keeps and every policy selects from with one ordered-set query.
//! * [`metrics`] — per-container and aggregate suspension statistics
//!   (paper Fig. 8 / Table V).
//! * [`backend`] — the [`backend::SchedulerBackend`] trait unifying the
//!   three topologies behind one message surface, and the
//!   [`backend::TopologyBackend`] enum the live service dispatches on.
//! * [`sharded`] — the one sharding engine behind both §V future-work
//!   extensions: [`sharded::Sharded`] owns the container → shard home
//!   map, routes every message to the container's home, tags tickets in
//!   its [`sharded::TicketLane`], and asks a [`sharded::Placer`] where a
//!   new container goes.
//! * [`multi_gpu`] — the device-level instantiation: one scheduler per
//!   GPU plus the three device placement policies.
//! * [`cluster`] — the node-level instantiation: Docker-Swarm-style
//!   dispatch of containers across multi-GPU nodes.
//! * [`deadlock`] — stall detection used to *demonstrate* that ConVGPU's
//!   guarantee discipline avoids the deadlock of naive sharing.
//! * [`invariant`] — the typed safety invariants behind
//!   [`core::Scheduler::check_invariants`], shared by property tests, the
//!   `convgpu-audit` bounded model checker, and (under the `audit`
//!   feature) every mutating transition of the live scheduler.

#![forbid(unsafe_code)]

pub mod backend;
pub mod candidates;
pub mod cluster;
pub mod core;
pub mod deadlock;
pub mod invariant;
pub mod log;
pub mod metrics;
pub mod multi_gpu;
pub mod policy;
pub mod sharded;
pub mod state;
pub mod timeline;

pub use crate::core::{
    AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler, SchedulerConfig,
};
pub use backend::{BackendDeviceInfo, Placement, SchedulerBackend, TopologyBackend};
pub use candidates::{Candidate, Candidates};
pub use cluster::{ClusterNode, ClusterScheduler, SwarmStrategy};
pub use invariant::InvariantViolation;
pub use log::{Decision, DecisionLog, LogEntry};
pub use metrics::{AggregateMetrics, ContainerMetrics};
pub use multi_gpu::{MultiGpuScheduler, PlacementPolicy};
pub use policy::{Policy, PolicyKind};
pub use sharded::{Placer, Sharded, TicketLane};
pub use state::{ContainerRecord, ContainerState, ResumeRule};
pub use timeline::{UtilizationSample, UtilizationTimeline};
