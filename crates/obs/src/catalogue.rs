//! The metric catalogue — the one place a `convgpu_*` metric is declared.
//!
//! Every metric is one `metrics!` row: handle, kind, name, lifetime,
//! label names and help. A row expands to a typed handle constant — a
//! [`Counter`] can only be incremented, a [`Gauge`] only set, a
//! [`Latency`] histogram only observed (see [`crate::Registry`]) — and the
//! table to [`CATALOGUE`], which the family table of
//! `docs/OBSERVABILITY.md` is checked against and [`Registry::retire`]
//! reads lifetimes from.
//!
//! Scheduler series (`convgpu_sched_*`) written by one device of a
//! multi-GPU or cluster backend also carry that scheduler's own `device`
//! label, appended by the scheduler; the label lists below are what the
//! single-GPU daemon writes.
//!
//! [`Registry::retire`]: crate::Registry::retire

/// What a metric records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotone counter.
    Counter,
    /// Last-write-wins value.
    Gauge,
    /// Latency histogram, in seconds.
    Histogram,
}

/// How long a metric's series live.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lifetime {
    /// As long as the registry.
    Daemon,
    /// Until the container named by its `container` label closes.
    Container,
}

/// One catalogue row.
#[derive(Debug)]
pub struct Metric {
    /// Family name, as exposed.
    pub name: &'static str,
    /// What the metric records.
    pub kind: Kind,
    /// How long its series live.
    pub lifetime: Lifetime,
    /// Label names, in the order the emitter passes them.
    pub labels: &'static [&'static str],
    /// What one series means.
    pub help: &'static str,
}

/// A counter's handle: [`crate::Registry::inc`] is all it allows.
#[derive(Clone, Copy, Debug)]
pub struct Counter(pub(crate) &'static Metric);

/// A gauge's handle: [`crate::Registry::set_gauge`] is all it allows.
#[derive(Clone, Copy, Debug)]
pub struct Gauge(pub(crate) &'static Metric);

/// A latency histogram's handle: [`crate::Registry::observe`] is all it
/// allows.
#[derive(Clone, Copy, Debug)]
pub struct Latency(pub(crate) &'static Metric);

impl Counter {
    const KIND: Kind = Kind::Counter;
}

impl Gauge {
    const KIND: Kind = Kind::Gauge;
}

impl Latency {
    const KIND: Kind = Kind::Histogram;
}

/// Expand the table to one handle constant per row, documented by its
/// help text, plus [`CATALOGUE`].
macro_rules! metrics {
    ($( $handle:ident: $ty:ident($name:literal, $life:ident, [$($label:literal),*]) $help:literal; )*) => {
        $(
            #[doc = concat!("`", $name, "`: ", $help)]
            pub const $handle: $ty = $ty(&Metric {
                name: $name,
                kind: $ty::KIND,
                lifetime: Lifetime::$life,
                labels: &[$($label),*],
                help: $help,
            });
        )*

        /// Every metric, in table order.
        pub const CATALOGUE: &[&Metric] = &[$($handle.0),*];
    };
}

metrics! {
    SCHED_DECISIONS: Counter("convgpu_sched_decisions_total", Daemon, ["kind"])
        "scheduler decisions (`registered`, `granted`, `rejected`, `suspended`, `topped_up`, `resumed`, `closed`, `process_exited`)";
    SCHED_SUSPEND: Latency("convgpu_sched_suspend_seconds", Container, ["container"])
        "suspension episodes: `_count` = episodes, `_sum` = total suspended seconds";
    SCHED_POLICY_DECISIONS: Counter("convgpu_sched_policy_decisions_total", Daemon, ["policy", "outcome"])
        "redistribution selections (`selected` / `none`)";
    SCHED_ASSIGNED: Gauge("convgpu_sched_assigned_bytes", Daemon, [])
        "pool occupancy: bytes reserved for containers";
    SCHED_UNASSIGNED: Gauge("convgpu_sched_unassigned_bytes", Daemon, [])
        "pool occupancy: bytes reserved for nobody";
    SCHED_CONTAINER_ASSIGNED: Gauge("convgpu_sched_container_assigned_bytes", Container, ["container"])
        "bytes reserved for the container";
    SCHED_CONTAINER_USED: Gauge("convgpu_sched_container_used_bytes", Container, ["container"])
        "bytes the container has allocated";
    SCHED_CONTAINER_SUSPEND_EPISODES: Gauge("convgpu_sched_container_suspend_episodes", Container, ["container"])
        "suspension book-keeping mirror: episodes";
    SCHED_CONTAINER_SUSPENDED_SECONDS: Gauge("convgpu_sched_container_suspended_seconds_total", Container, ["container"])
        "suspension book-keeping mirror: seconds suspended";
    SCHED_PLACEMENT: Counter("convgpu_sched_placement_total", Daemon, ["placement", "device"])
        "multi-GPU placement decisions per device";
    SCHED_PROGRESS_STATE: Gauge("convgpu_sched_progress_state", Daemon, [])
        "0 idle, 1 progressing, 2 resume-pending, 3 stalled";
    SCHED_WAITING: Gauge("convgpu_sched_waiting_containers", Daemon, [])
        "waiting-set size during a stall";
    IPC_REQUESTS: Counter("convgpu_ipc_requests_total", Daemon, ["type"])
        "requests received by the daemon";
    IPC_SERVER_HANDLE: Latency("convgpu_ipc_server_handle_seconds", Daemon, ["type"])
        "synchronous handler time";
    IPC_SERVER_WRITE: Latency("convgpu_ipc_server_write_seconds", Daemon, ["type"])
        "reply serialization + socket write";
    IPC_SERVER_TURNAROUND: Latency("convgpu_ipc_server_turnaround_seconds", Daemon, ["type"])
        "receipt → reply; a suspended `alloc_request` parks here";
    IPC_CLIENT_RTT: Latency("convgpu_ipc_client_rtt_seconds", Daemon, ["type"])
        "client-observed round trip";
    IPC_REPORTS_REFUSED: Counter("convgpu_ipc_reports_refused_total", Daemon, ["type"])
        "one-way reports (envelope id 0) the daemon refused; no reply carries the refusal";
    WRAPPER_CALLS: Counter("convgpu_wrapper_calls_total", Daemon, ["api"])
        "interposed CUDA calls (`cuda_malloc`, `cuda_free`, …)";
    WRAPPER_CALL_SECONDS: Latency("convgpu_wrapper_call_seconds", Daemon, ["api"])
        "end-to-end interposed call time, suspension included";
    ROUTER_ROUTE: Latency("convgpu_router_route_seconds", Daemon, ["node"])
        "per-attempt forward latency to a node";
    ROUTER_RETRIES: Counter("convgpu_router_retries_total", Daemon, ["node"])
        "retries after transport failures";
    ROUTER_TIMEOUTS: Counter("convgpu_router_timeouts_total", Daemon, ["node"])
        "forwards that hit the per-request deadline";
    ROUTER_FAILOVERS: Counter("convgpu_router_failovers_total", Daemon, ["node"])
        "calls failed over to degraded answers (e.g. allocation → rejection)";
    ROUTER_NODE_HEALTH: Gauge("convgpu_router_node_health", Daemon, ["node"])
        "the router's health view: 0 up, 1 degraded, 2 down";
    ROUTER_PLACEMENT: Counter("convgpu_router_placement_total", Daemon, ["strategy", "node"])
        "router placement decisions per node";
    ROUTER_MIGRATIONS: Counter("convgpu_router_migrations_total", Daemon, ["from", "status"])
        "container migrations off a node (`completed` / `rejected`)";
    ROUTER_MIGRATION_SECONDS: Latency("convgpu_router_migration_seconds", Daemon, ["node"])
        "end-to-end latency of one container's migration off `node`";
    ROUTER_FORWARDER_SPAWNS: Counter("convgpu_router_forwarder_spawns_total", Daemon, [])
        "forwarder threads a served router created";
    ROUTER_JOURNAL_APPENDS: Counter("convgpu_router_journal_appends_total", Daemon, [])
        "home-map mutations appended to the write-ahead journal";
    ROUTER_JOURNAL_ERRORS: Counter("convgpu_router_journal_errors_total", Daemon, [])
        "journal append/flush/snapshot I/O failures (the router keeps serving)";
    ROUTER_JOURNAL_REPLAYED: Counter("convgpu_router_journal_replayed_records_total", Daemon, [])
        "journal records replayed at startup, on top of the snapshot";
    ROUTER_JOURNAL_RECOVERED: Counter("convgpu_router_journal_recovered_homes_total", Daemon, [])
        "homes recovered from the journal at startup";
    ROUTER_JOURNAL_ORPHANS: Counter("convgpu_router_journal_orphan_homes_total", Daemon, [])
        "recovered homes kept as orphans: their node is not in the `--node` list";
    ROUTER_JOURNAL_TORN_TAIL: Counter("convgpu_router_journal_torn_tail_total", Daemon, [])
        "recoveries that stopped at a torn or corrupt journal tail";
    ROUTER_JOURNAL_CORRUPT_SNAPSHOT: Counter("convgpu_router_journal_corrupt_snapshot_total", Daemon, [])
        "recoveries that discarded an unreadable snapshot";
    ROUTER_SNAPSHOT_SECONDS: Latency("convgpu_router_snapshot_seconds", Daemon, [])
        "one compacted journal snapshot (clone + write + fsync + rename)";
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `docs/OBSERVABILITY.md`'s family table is exactly what the
    /// catalogue renders to.
    #[test]
    fn observability_md_matches_the_catalogue() {
        let doc = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../docs/OBSERVABILITY.md"
        ))
        .expect("docs/OBSERVABILITY.md");
        let mut table = String::from(
            "| family | kind | labels | lifetime | meaning |\n|---|---|---|---|---|\n",
        );
        for m in CATALOGUE {
            let labels: Vec<String> = m.labels.iter().map(|l| format!("`{l}`")).collect();
            let labels = if labels.is_empty() {
                "—".to_string()
            } else {
                labels.join(", ")
            };
            table += &format!(
                "| `{}` | {} | {labels} | {} | {} |\n",
                m.name,
                format!("{:?}", m.kind).to_lowercase(),
                format!("{:?}", m.lifetime).to_lowercase(),
                m.help
            );
        }
        assert!(
            doc.contains(&format!("{table}\n")),
            "docs/OBSERVABILITY.md, \"Metric families\": the table must read\n\n{table}"
        );
    }

    #[test]
    fn names_are_unique_and_container_series_name_their_container() {
        let names: BTreeSet<&str> = CATALOGUE.iter().map(|m| m.name).collect();
        assert_eq!(names.len(), CATALOGUE.len(), "a name declared twice");
        for m in CATALOGUE {
            assert!(m.name.starts_with("convgpu_"), "{}", m.name);
            if m.lifetime == Lifetime::Container {
                assert!(m.labels.contains(&"container"), "{}", m.name);
            }
        }
    }
}
