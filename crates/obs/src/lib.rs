//! Observability for the ConVGPU reproduction: structured tracing and a
//! metrics registry, with Prometheus-text and Chrome-trace exposition.
//!
//! The paper evaluates ConVGPU only by end-of-run aggregates (finished
//! time, average suspended time — Fig. 8/Table V). A production
//! middleware needs to answer *while it runs*: which container is
//! suspended right now and for how long, what each IPC round trip costs
//! per message type, which policy decisions were taken. This crate is
//! that layer, built with the same constraints as the rest of the
//! workspace:
//!
//! * **zero dependencies** — pure `std` plus `convgpu-sim-core`;
//! * **no wall-clock reads** — every span and every duration is stamped
//!   by the caller with [`convgpu_sim_core::time::SimTime`], so the same
//!   instrumentation works under the real (scaled) clock and the virtual
//!   clock, and the scheduler, where clippy bans `Instant` /
//!   `SystemTime` (docs/LINT.md), instruments itself purely from the
//!   `now` it is handed;
//! * **side-effect-only** — attaching or detaching the instrumentation
//!   must never change a scheduling decision (property-tested in
//!   `tests/scheduler_properties.rs`).
//!
//! Modules:
//!
//! * [`catalogue`] — every `convgpu_*` metric, declared once: kind,
//!   labels, help, and whether its series live as long as the daemon or
//!   as long as one container. Emitters name its typed handles.
//! * [`metrics`] — [`metrics::Registry`]: counters, gauges, fixed-bucket
//!   latency histograms with quantile estimation, mergeable
//!   [`metrics::Snapshot`]s.
//! * [`trace`] — [`trace::Tracer`]: spans with ids/parents and typed
//!   attributes, pluggable sinks (bounded ring, JSONL writer, test
//!   collector), plus the canonical span-tree renderer the golden-trace
//!   regression tests diff against.
//! * [`prometheus`] — Prometheus text exposition (the payload of the
//!   `query_metrics` protocol message) and a small parser for tests.
//! * [`chrome`] — `chrome://tracing` JSON export: one timeline row per
//!   container.

#![forbid(unsafe_code)]

pub mod catalogue;
pub mod chrome;
pub mod metrics;
pub mod prometheus;
pub mod trace;

pub use metrics::{
    quantile_from_cumulative, Histogram, MetricValue, Registry, SeriesKey, Snapshot,
};
pub use trace::{
    render_canonical, CollectorSink, JsonlSink, RingSink, SpanRecord, SpanSink, Tracer,
};
