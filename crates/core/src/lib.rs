//! The **ConVGPU middleware** — the glue the paper's Fig. 2 draws between
//! the user, the customized nvidia-docker, the docker engine, the
//! container, and the GPU memory scheduler.
//!
//! * [`service`] — the live scheduler service: the pure
//!   `convgpu-scheduler` state machine behind a mutex, with a waiter table
//!   that parks suspended allocation replies (in-process channels or
//!   socket [`convgpu_ipc::server::Reply`] handles) and fires them when the
//!   state machine emits resume actions.
//! * [`handler`] — the [`convgpu_ipc::server::RequestHandler`] that
//!   adapts socket messages onto the service (the Go daemon's connection
//!   handler in the original).
//! * [`nvidia_docker`] — the customized nvidia-docker (paper §III-B):
//!   `--nvidia-memory` parsing, label fallback, 1 GiB default, scheduler
//!   registration, volume/env injection (`LD_PRELOAD`), dummy plugin
//!   volume, and the nvidia-docker-plugin analog: the dummy volume's
//!   driver, which sends the scheduler's *close* signal when the engine
//!   unmounts the volume while it stops the container.
//! * [`middleware`] — [`middleware::ConVGpu`], the one-call orchestrator
//!   examples and benches use: device + engine + scheduler + sockets +
//!   container programs run on reused threads.
//! * [`router`] — genuinely distributed cluster mode: per-node
//!   [`router::NodeServer`] socket harnesses fronted by the
//!   fault-tolerant [`router::ClusterRouter`] (Swarm placement,
//!   deadlines, bounded backoff, node health, failover).
//! * [`journal`] — the router's write-ahead home-map journal:
//!   append-only mutation log plus compacted snapshots, replayed on
//!   startup so a restarted router recovers its homes with their full
//!   placement checkpoints (limit / hint) instead of zeros.

#![forbid(unsafe_code)]

pub mod handler;
pub mod journal;
pub mod middleware;
pub mod nvidia_docker;
pub mod router;
pub mod service;

pub use journal::{Journal, JournalConfig, JournalOp, RecoveredHome, Recovery};
pub use middleware::{ConVGpu, ConVGpuConfig, Session, TopologySpec, TransportMode};
pub use nvidia_docker::RunCommand;
pub use nvidia_docker::{resolve_memory_limit, NvidiaDocker, CONVGPU_VOLUME_DRIVER};
pub use router::{ClusterRouter, NodeHealth, NodeServer, RouterConfig, RouterHandler};
pub use service::{InProcEndpoint, ObsHub, SchedulerService};
