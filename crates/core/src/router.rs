//! Cluster mode (the paper's §V "clustering system like Docker Swarm"):
//! per-node server harness + the fault-tolerant cluster router.
//!
//! A cluster is real processes: every node runs its own
//! [`crate::service::SchedulerService`] on its own socket (a
//! [`NodeServer`]), and a [`ClusterRouter`] fronts them — owning
//! Swarm-style placement (Spread / BinPack / Random,
//! [`convgpu_scheduler::cluster::SwarmStrategy`]) and forwarding gated
//! calls over the ordinary wire codecs.
//!
//! Distribution buys failure modes a single daemon never had, so
//! the router carries the robustness layer:
//!
//! * **per-request deadlines** — control-plane forwards are bounded by
//!   [`RouterConfig::deadline`] on the sim clock
//!   ([`convgpu_ipc::client::SchedulerClient::request_deadline`]);
//! * **bounded retry with exponential backoff + jitter** — transport
//!   failures retry up to [`RouterConfig::max_retries`] times, sleeping on
//!   the session clock so a virtual-clock test drives the whole schedule
//!   deterministically;
//! * **node health states** (`up` / `degraded` / `down`) — consecutive
//!   transport failures degrade and then down a node; requests to a down
//!   node are answered at once in its place instead of queued;
//! * **graceful degradation** — an allocation forwarded to a node that
//!   dies (even mid-suspension) fails over to an `AllocDecision`-correct
//!   *rejection*, so blocked clients unblock exactly like the paper's
//!   kill-handling path, and teardown calls (`free` / `process_exit` /
//!   `container_close`) degrade to harmless acknowledgements so lifecycle
//!   loops complete with zero hung clients.
//!
//! `alloc_request` itself is deliberately **not** deadline-bounded: a
//! suspended allocation blocking arbitrarily long *is* the paper's
//! mechanism. It unblocks through disconnect detection instead.
//!
//! **Dispatch.** The router is one function from message to reply,
//! [`Transact::transact`] on [`ClusterRouter`]: it answers `ping` and
//! the `query_*` kinds about itself, places a `register`, drops the home
//! at `container_close`, and forwards **every other request as it
//! came** to the home node of `req.container()` — so a new message that
//! only has to reach the container's scheduler needs no router code.
//! What stands in for an unreachable node is a per-kind table
//! (`Unreachable`). The wrapper's reports (`alloc_done`,
//! `alloc_failed`, `free`) that arrive one-way leave one-way
//! ([`Transact::notify`] on [`ClusterRouter`]): the router reads
//! nothing from them, so it waits for nothing. The home map itself
//! changes only through `ClusterRouter::mutate`, which applies a
//! [`JournalOp`] with [`journal::apply`] — the function replay uses —
//! so the live map is what its journal replays to.
//!
//! **Threads.** The router owns none for its calls (a journaled one has
//! its idle flusher): a call runs on its caller's thread, and the
//! per-node clients are read by whichever caller waits. Served on a
//! socket ([`ClusterRouter::serve_on`], [`RouterHandler`]), a request
//! runs on its connection's thread — except `alloc_request`, which is
//! handed to a forwarder thread so that a suspension never stalls the
//! connection's other traffic. Both kinds are reused threads
//! ([`ThreadPool`], the one pool the server's readers and the
//! middleware's container programs use too): one forwarder exists per
//! *concurrently blocked* forward, none is created per request, and a
//! forward never queues behind another.
//!
//! **A container never moves.** Its home is set once, by `register`,
//! and dropped once, by `container_close` — Docker Swarm's rule, which
//! reschedules a failed task as a new container and never moves a live
//! one. A node that goes `down` keeps its homes: the [`Unreachable`]
//! table answers for it (every `alloc_request` rejected, `free` /
//! `process_exit` / `container_close` acknowledged, `mem_info`
//! refused), so no client hangs. When the node answers again, routing
//! to it resumes; a node that came back blank refuses the container as
//! unknown, and the orchestrator re-runs the task as a plain `register`.
//! Moving a live container would close it on a source whose running
//! processes still hold its bytes, and the source could grant them to
//! someone else: the books and the device would disagree.
//!
//! A container id being placed is reserved until its `register` is
//! decided; a request for an id with no home yet parks on that
//! reservation (bounded by the router deadline), so it routes to the
//! home the placement sets.
//!
//! Placement accounting is router-local: the router tracks the limits it
//! has committed per node (plus the 66 MiB context hint) rather than
//! querying live occupancy on every register, so `BinPack` packs by
//! *committed* memory.
//!
//! **Durable state.** A router attached with
//! [`ClusterRouter::attach_with_journal`] records every home-map
//! mutation — placements, re-learned homes and closes — in a
//! write-ahead journal ([`crate::journal`]), with periodic compacted
//! snapshots. On restart the journal replays, so recovered homes carry
//! their full `limit` / `hint` checkpoints and placement keeps counting
//! them against their nodes. A mutation and its journal record are
//! sequenced in **one critical section** (the WAL's memory half lives
//! inside the home-map mutex), so journal order always equals apply
//! order and a compaction can never cover a mutation its map capture
//! missed; the file I/O itself happens under a separate journal lock
//! with the home-map lock released, on the sim-clock flush cadence plus
//! a wall-clock idle ticker. Recovered homes whose journaled node name
//! is missing from the current node list are preserved as *orphans* —
//! carried through every snapshot — so a restart with a corrected node
//! list still recovers them. Without a journal, homes re-learned
//! through [`ClusterRouter::recover_home`] carry a zero hint and zero
//! limit (pinned by the zero-checkpoint baseline tests).
//!
//! Everything is observable through the router's [`ObsHub`]: per-node
//! route latency histograms and retry / timeout / failover counters (see
//! `docs/OBSERVABILITY.md`), plus the served router's forwarder-thread
//! creations, answered over the wire via `query_metrics` and
//! `query_cluster`.

use crate::handler::ServiceHandler;
use crate::journal::{self, Journal, JournalConfig, JournalOp, RecoveredHome, WalBuffer};
use crate::service::{ObsHub, SchedulerService};
use convgpu_ipc::binary::WireCodec;
use convgpu_ipc::client::SchedulerClient;
use convgpu_ipc::endpoint::{IpcError, IpcResult, Transact};
use convgpu_ipc::message::{AllocDecision, ClusterNodeStatus, Request, Response, TopologyDevice};
use convgpu_ipc::server::{ConnId, Reply, RequestHandler, SocketServer};
use convgpu_ipc::transport::EndpointAddr;
use convgpu_obs::catalogue::{
    ROUTER_FAILOVERS, ROUTER_FORWARDER_SPAWNS, ROUTER_JOURNAL_APPENDS,
    ROUTER_JOURNAL_CORRUPT_SNAPSHOT, ROUTER_JOURNAL_ERRORS, ROUTER_JOURNAL_ORPHANS,
    ROUTER_JOURNAL_RECOVERED, ROUTER_JOURNAL_REPLAYED, ROUTER_JOURNAL_TORN_TAIL,
    ROUTER_NODE_HEALTH, ROUTER_PLACEMENT, ROUTER_RETRIES, ROUTER_ROUTE, ROUTER_SNAPSHOT_SECONDS,
    ROUTER_TIMEOUTS,
};
use convgpu_obs::prometheus;
use convgpu_scheduler::backend::TopologyBackend;
use convgpu_scheduler::cluster::SwarmStrategy;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::pool::ThreadPool;
use convgpu_sim_core::rng::DetRng;
use convgpu_sim_core::sync::{Condvar, Mutex};
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One node of a distributed cluster: a full scheduler service plus its
/// socket server, under the node's name. The router connects to
/// [`NodeServer::socket_path`] like any other client — in production each
/// harness runs in its own process (`convgpu-cli cluster serve-node`);
/// tests may host several in one process, which exercises the identical
/// socket path.
pub struct NodeServer {
    name: String,
    service: Arc<SchedulerService>,
    server: SocketServer,
}

impl NodeServer {
    /// Build the node's service around `backend` and serve it on the
    /// UNIX socket at `socket`.
    pub fn serve(
        name: impl Into<String>,
        backend: TopologyBackend,
        clock: ClockHandle,
        base_dir: PathBuf,
        socket: &Path,
    ) -> std::io::Result<NodeServer> {
        NodeServer::serve_endpoint(name, backend, clock, base_dir, &EndpointAddr::from(socket))
    }

    /// Like [`NodeServer::serve`], on any transport endpoint
    /// (`unix:/path` or `tcp:host:port` — the multi-host deployment
    /// shape; a TCP port of 0 is resolved by the kernel and read back
    /// via [`NodeServer::endpoint`]).
    pub fn serve_endpoint(
        name: impl Into<String>,
        backend: TopologyBackend,
        clock: ClockHandle,
        base_dir: PathBuf,
        endpoint: &EndpointAddr,
    ) -> std::io::Result<NodeServer> {
        let service = Arc::new(SchedulerService::new_with_backend(backend, clock, base_dir));
        let server = SocketServer::bind_endpoint(
            endpoint,
            Arc::new(ServiceHandler::new(Arc::clone(&service))),
        )?;
        Ok(NodeServer {
            name: name.into(),
            service,
            server,
        })
    }

    /// The node's name (the router's `node` label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's scheduler service (introspection, invariant checks).
    pub fn service(&self) -> &Arc<SchedulerService> {
        &self.service
    }

    /// Socket path the node answers on (UNIX transport only).
    pub fn socket_path(&self) -> &Path {
        self.server.path()
    }

    /// Endpoint the node answers on, over any transport.
    pub fn endpoint(&self) -> &EndpointAddr {
        self.server.endpoint()
    }

    /// Stop accepting and close every connection.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Router-observed node health. Driven by consecutive transport failures
/// and reset by any successful exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeHealth {
    /// Answering normally.
    Up,
    /// Recent transport failures; still being tried (with backoff).
    Degraded,
    /// Considered dead: requests are answered in its place at once
    /// instead of retried.
    Down,
}

impl NodeHealth {
    /// Wire/metric label.
    pub fn label(self) -> &'static str {
        match self {
            NodeHealth::Up => "up",
            NodeHealth::Degraded => "degraded",
            NodeHealth::Down => "down",
        }
    }

    fn gauge(self) -> f64 {
        match self {
            NodeHealth::Up => 0.0,
            NodeHealth::Degraded => 1.0,
            NodeHealth::Down => 2.0,
        }
    }
}

/// Fault-tolerance knobs of the [`ClusterRouter`]. All durations are sim
/// time: under a virtual clock the backoff/deadline schedule runs
/// deterministically (and instantly); under a real clock it is wall time.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Swarm placement strategy.
    pub strategy: SwarmStrategy,
    /// Deadline per forwarded control-plane request (not `alloc_request`).
    pub deadline: SimDuration,
    /// Transport-failure retries per forwarded call (0 = single attempt).
    pub max_retries: u32,
    /// First retry delay; doubles per retry.
    pub backoff_base: SimDuration,
    /// Upper bound for the exponential backoff (before jitter).
    pub backoff_cap: SimDuration,
    /// Consecutive failures after which a node counts as degraded.
    pub degraded_after: u32,
    /// Consecutive failures after which a node counts as down.
    pub down_after: u32,
    /// Seed for placement randomness and backoff jitter.
    pub seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            strategy: SwarmStrategy::Spread,
            deadline: SimDuration::from_millis(500),
            max_retries: 3,
            backoff_base: SimDuration::from_millis(10),
            backoff_cap: SimDuration::from_millis(200),
            degraded_after: 2,
            down_after: 4,
            seed: 0,
        }
    }
}

/// Mutable per-node connection state, all under one lock.
struct NodeState {
    client: Option<Arc<SchedulerClient>>,
    consecutive_failures: u32,
    health: NodeHealth,
    /// `(max device capacity, total capacity)` learned from the node's
    /// `query_topology`; `None` until the first successful probe.
    caps: Option<(Bytes, Bytes)>,
}

struct RouterNode {
    name: String,
    endpoint: EndpointAddr,
    state: Mutex<NodeState>,
    retries: AtomicU64,
    timeouts: AtomicU64,
    failovers: AtomicU64,
}

impl RouterNode {
    fn new(name: String, endpoint: EndpointAddr) -> Self {
        RouterNode {
            name,
            endpoint,
            state: Mutex::new(NodeState {
                client: None,
                consecutive_failures: 0,
                health: NodeHealth::Up,
                caps: None,
            }),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    fn health(&self) -> NodeHealth {
        self.state.lock().health
    }
}

/// The home map: per placed container, the node it lives on (by name —
/// the journal's shape, so the live map and a replayed one are the same
/// type, changed by the same [`journal::apply`]), the limit it registered
/// with and the memory committed against the node at placement (limit +
/// context hint). A home re-learned after a journal-less restart has
/// zero limit and hint (node-side state the router never saw).
type Homes = BTreeMap<ContainerId, RecoveredHome>;

/// Everything guarded by the router's home-map lock. The journal's
/// memory half lives *here*, beside the map it records: one critical
/// section covers a map mutation and the buffering of its journal
/// record, so journal order always equals apply order and a compaction
/// can never stamp a `covered` sequence whose mutation its map capture
/// missed. Every operation under this lock is pure memory.
struct HomesState {
    /// The home map itself. Every node name in it is an attached node's.
    map: Homes,
    /// The journal's sequencer + append buffer (`None` without a
    /// journal — the volatile router, byte-for-byte unchanged). File
    /// I/O happens in [`drain_wal`] / [`ClusterRouter::snapshot_now`]
    /// under the journal lock, with this lock released.
    wal: Option<WalBuffer>,
    /// Recovered homes whose journaled node name is not in the current
    /// node list. Preserved — written back into every snapshot — so a
    /// restart with a corrected node list still recovers them; an
    /// entry is evicted when the live cluster journals any op reusing
    /// its container id.
    orphans: Homes,
}

/// Drain the buffered journal records to the log file. Lock order is
/// journal → homes (debug builds abort on the reverse, see
/// `convgpu_sim_core::sync`): the batch is extracted from the
/// [`WalBuffer`] while both are held (so batches hit the file in
/// sequence order and can never race a compaction's truncation), then
/// the homes lock is released before the write. Shared by the request
/// path, the idle flusher thread, and shutdown.
fn drain_wal(journal: &Mutex<Journal>, homes: &Mutex<HomesState>, now: SimTime, obs: &ObsHub) {
    let err = {
        let mut j = journal.lock();
        let batch = {
            let mut state = homes.lock();
            match state.wal.as_mut() {
                Some(wal) if wal.has_buffered() => wal.take_batch(now),
                _ => return,
            }
        };
        // The journal mutex guards exactly the file being written; the
        // home-map lock was released above, and no socket peer can
        // wedge a file write.
        j.write_batch(&batch).is_err()
    };
    if err {
        obs.registry.inc(ROUTER_JOURNAL_ERRORS, &[], 1);
    }
}

/// The cluster's front door: places containers across per-node socket
/// servers and forwards the gated protocol with deadlines, bounded
/// backoff, health tracking, and failover (module docs have the full
/// story). One `ClusterRouter` is shared by every connection of its own
/// socket server (see [`ClusterRouter::serve_on`]) — all state is behind
/// its own locks, and no lock is ever held across socket I/O.
pub struct ClusterRouter {
    cfg: RouterConfig,
    clock: ClockHandle,
    codec: WireCodec,
    nodes: Vec<RouterNode>,
    /// Node name → index into `nodes` (the first of that name).
    node_index: BTreeMap<String, usize>,
    /// The home map plus the journal's in-memory half (see
    /// [`HomesState`]); `Arc` so the idle flusher thread can reach it.
    /// Mutators take only this lock — never the journal lock.
    homes: Arc<Mutex<HomesState>>,
    rng: Mutex<DetRng>,
    obs: Arc<ObsHub>,
    /// Container ids whose `register` is being placed; a request for
    /// an id with no home parks on `placed` until its placement is
    /// decided.
    placing: Mutex<BTreeSet<ContainerId>>,
    placed: Condvar,
    /// The write-ahead journal's file half (`None` = the pre-journal
    /// volatile router, byte-for-byte unchanged behavior). Lock order:
    /// the drain and compaction paths acquire this *before* the homes
    /// lock, and the homes lock is released before any file I/O; the
    /// homes lock is never held first (debug builds check this on every
    /// acquisition, `convgpu_sim_core::sync`).
    journal: Option<Arc<Mutex<Journal>>>,
    /// Shutdown signal for the idle flusher: flag + wakeup condvar.
    flusher_stop: Arc<(Mutex<bool>, Condvar)>,
    /// The wall-clock idle flusher thread (journaled routers only): a
    /// quiescent router's buffered records still reach the file within
    /// about one [`JournalConfig::idle_flush`] tick.
    flusher: Option<std::thread::JoinHandle<()>>,
}

/// The context charge a node budgets on top of each limit; mirrored here
/// so the router's capability check agrees with the node's.
fn ctx_hint(limit: Bytes) -> Bytes {
    limit + Bytes::mib(66)
}

/// What the router answers in a node's place when a forwarded request
/// cannot reach it — the per-kind degradation table. A kind not named
/// here is forwarded under the deadline and its failure is the answer.
enum Unreachable {
    /// `alloc_request`: exactly what the scheduler answers for a killed
    /// container's parked requests, so a blocked client unblocks. Also
    /// the one kind forwarded without deadline or retry — a suspension
    /// blocking arbitrarily long is the mechanism.
    Reject,
    /// Teardown-ish calls must never wedge a client: acknowledged with
    /// this (a dead node freed nothing, so a degraded `free` says zero).
    Ack(Response),
    /// Book-keeping answers from a dead node would be fabrications: the
    /// failure goes back, and a node known to be down is not even asked.
    Refuse,
    /// The failure goes back; a down node still gets its one probe.
    Fail,
}

impl Unreachable {
    fn of(req: &Request) -> Unreachable {
        match req {
            Request::AllocRequest { .. } => Unreachable::Reject,
            Request::AllocDone { .. }
            | Request::AllocFailed { .. }
            | Request::ProcessExit { .. }
            | Request::ContainerClose { .. } => Unreachable::Ack(Response::Ok),
            Request::Free { .. } => Unreachable::Ack(Response::Freed { size: Bytes::ZERO }),
            Request::MemInfo { .. } => Unreachable::Refuse,
            _ => Unreachable::Fail,
        }
    }
}

impl ClusterRouter {
    /// Front the given `(name, endpoint)` nodes — endpoints are anything
    /// convertible to an [`EndpointAddr`] (a `PathBuf` keeps meaning a
    /// UNIX socket; parse a `tcp:host:port` URI for multi-host nodes).
    /// Connections are opened lazily on first use (and reopened after
    /// failures), so the router may start before — or restart after —
    /// its nodes.
    ///
    /// # Panics
    /// With an empty node list (a cluster has at least one node).
    pub fn attach<E: Into<EndpointAddr>>(
        nodes: Vec<(String, E)>,
        codec: WireCodec,
        cfg: RouterConfig,
        clock: ClockHandle,
    ) -> ClusterRouter {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        let seed = cfg.seed;
        let obs = Arc::new(ObsHub::new());
        let nodes: Vec<RouterNode> = nodes
            .into_iter()
            .map(|(name, endpoint)| RouterNode::new(name, endpoint.into()))
            .collect();
        let mut node_index = BTreeMap::new();
        for (idx, node) in nodes.iter().enumerate() {
            node_index.entry(node.name.clone()).or_insert(idx);
        }
        let router = ClusterRouter {
            cfg,
            clock,
            codec,
            nodes,
            node_index,
            homes: Arc::new(Mutex::new(HomesState {
                map: BTreeMap::new(),
                wal: None,
                orphans: BTreeMap::new(),
            })),
            rng: Mutex::new(DetRng::seed_from_u64(seed)),
            obs,
            placing: Mutex::new(BTreeSet::new()),
            placed: Condvar::new(),
            journal: None,
            flusher_stop: Arc::new((Mutex::new(false), Condvar::new())),
            flusher: None,
        };
        for node in &router.nodes {
            router.publish_health(node, NodeHealth::Up);
        }
        router
    }

    /// [`ClusterRouter::attach`] with durable state: open (or create)
    /// the write-ahead journal under `journal.dir`, replay it, and seed
    /// the home map with the recovered `limit` / `hint` checkpoints — a
    /// restarted router keeps counting its containers' *pre-restart*
    /// budgets against their nodes instead of zeros.
    ///
    /// Recovery tolerates a torn or corrupt journal tail (replay stops
    /// at the first bad record; never panics) and a discarded corrupt
    /// snapshot. Homes journaled against a node name not in `nodes`
    /// are preserved as *orphans* (counted, carried through every
    /// snapshot, evicted only when the live cluster reuses their
    /// container id) so a restart with a corrected node list still
    /// recovers them. The replay outcome is published on the router's
    /// registry (the `ROUTER_JOURNAL_*` counters, see
    /// docs/OBSERVABILITY.md), the on-disk state is immediately
    /// recompacted into one fresh snapshot, and a background flusher
    /// thread drains buffered records on the
    /// [`JournalConfig::idle_flush`] wall-clock cadence.
    pub fn attach_with_journal<E: Into<EndpointAddr>>(
        nodes: Vec<(String, E)>,
        codec: WireCodec,
        cfg: RouterConfig,
        clock: ClockHandle,
        journal: JournalConfig,
    ) -> std::io::Result<ClusterRouter> {
        let mut router = ClusterRouter::attach(nodes, codec, cfg, clock);
        let (journal, wal, recovery) = Journal::open(journal)?;
        let idle_flush = journal.config().idle_flush;
        let (recovered, orphaned) = {
            let mut state = router.homes.lock();
            let (live, orphans) = recovery
                .homes
                .into_iter()
                .partition(|(_, home)| router.node_index.contains_key(&home.node));
            state.map = live;
            state.orphans = orphans;
            state.wal = Some(wal);
            (state.map.len() as u64, state.orphans.len() as u64)
        };
        let reg = &router.obs.registry;
        reg.inc(ROUTER_JOURNAL_REPLAYED, &[], recovery.replayed);
        reg.inc(ROUTER_JOURNAL_RECOVERED, &[], recovered);
        reg.inc(ROUTER_JOURNAL_ORPHANS, &[], orphaned);
        if recovery.torn_tail {
            reg.inc(ROUTER_JOURNAL_TORN_TAIL, &[], 1);
        }
        if recovery.corrupt_snapshot {
            reg.inc(ROUTER_JOURNAL_CORRUPT_SNAPSHOT, &[], 1);
        }
        router.journal = Some(Arc::new(Mutex::new(journal)));
        // Compact immediately: recovery collapses to one fresh
        // snapshot (orphans included), so restart-after-restart never
        // replays a long log.
        router.snapshot_now();
        // The idle safety net: a quiescent router's buffered records
        // reach the file within about one tick even when no request
        // (and hence no sim-clock flush observation) ever arrives.
        // Condvar-timed on wall time — never the session clock, whose
        // virtual implementation would turn a sleep loop into a spin.
        let journal_arc = Arc::clone(router.journal.as_ref().expect("just set"));
        let homes = Arc::clone(&router.homes);
        let flusher_clock = router.clock.clone();
        let flusher_obs = Arc::clone(&router.obs);
        let stop = Arc::clone(&router.flusher_stop);
        router.flusher = Some(
            std::thread::Builder::new()
                .name("convgpu-journal-flush".into())
                .spawn(move || {
                    let (stopped, tick) = &*stop;
                    loop {
                        {
                            let mut guard = stopped.lock();
                            if !*guard {
                                tick.wait_for(&mut guard, idle_flush);
                            }
                            if *guard {
                                return;
                            }
                        }
                        drain_wal(&journal_arc, &homes, flusher_clock.now(), &flusher_obs);
                    }
                })?,
        );
        Ok(router)
    }

    /// Change the home map: apply `op` through [`journal::apply`] — the
    /// transition replay uses, so the live map is what its journal
    /// replays to — and (with a journal) buffer the op's record **in
    /// the same critical section**: the record's sequence number is
    /// assigned at the instant the map changes, so no interleaving can
    /// journal mutations in an order the map never went through, and no
    /// compaction can cover a sequence whose mutation its capture
    /// missed. Returns whether the op applied; one that did not (its
    /// container has no home any more) is not journaled. Everything
    /// under the lock is pure memory; the due drain or compaction
    /// happens after release.
    fn mutate(&self, op: JournalOp) -> bool {
        let (applied, journaled, flush_due, snapshot_due) = {
            let mut state = self.homes.lock();
            let state = &mut *state;
            let applied = journal::apply(&mut state.map, &op);
            let mut journaled = false;
            let mut flush_due = false;
            let mut snapshot_due = false;
            if let (true, Some(wal)) = (applied, state.wal.as_mut()) {
                // Any journaled op on this container id supersedes a
                // preserved orphan checkpoint: the live cluster owns
                // the id now.
                state.orphans.remove(&op.container());
                wal.append(&op);
                journaled = true;
                snapshot_due = wal.snapshot_due();
                flush_due = !snapshot_due && wal.flush_due(self.clock.now());
            }
            (applied, journaled, flush_due, snapshot_due)
        };
        if journaled {
            self.obs.registry.inc(ROUTER_JOURNAL_APPENDS, &[], 1);
        }
        if snapshot_due {
            self.snapshot_now();
        } else if flush_due {
            if let Some(journal) = &self.journal {
                drain_wal(journal, &self.homes, self.clock.now(), &self.obs);
            }
        }
        applied
    }

    /// Write a compacted snapshot of the current home map — preserved
    /// orphans included — and truncate the log (no-op without a
    /// journal). `covered` and the map state are captured under one
    /// journal → homes critical section, and the homes lock is
    /// released before any file I/O: buffered records the snapshot
    /// covers are discarded (their effects are in the capture), and a
    /// concurrent mutation either lands before the capture (included)
    /// or after (its drain queues behind the journal lock and lands in
    /// the fresh log with a sequence above `covered`).
    fn snapshot_now(&self) {
        let Some(journal) = &self.journal else { return };
        let t0 = self.clock.now();
        let err = {
            let mut j = journal.lock();
            let captured = {
                let mut state = self.homes.lock();
                let state = &mut *state;
                match state.wal.as_mut() {
                    Some(wal) => {
                        let covered = wal.begin_snapshot(t0);
                        let mut snap = state.orphans.clone();
                        // Live homes win over a stale orphan (mutate()
                        // evicts on id reuse, so overlap means a race
                        // this snapshot is about to settle).
                        snap.extend(state.map.clone());
                        Some((covered, snap))
                    }
                    None => None,
                }
            };
            match captured {
                // Guard-is-the-file shape, same as drain_wal; the
                // home-map lock was released with the capture.
                Some((covered, snap)) => j.snapshot(covered, &snap).is_err(),
                None => false,
            }
        };
        if err {
            self.obs.registry.inc(ROUTER_JOURNAL_ERRORS, &[], 1);
        }
        let took = self.clock.now().saturating_since(t0);
        self.obs
            .registry
            .observe(ROUTER_SNAPSHOT_SECONDS, &[], took);
    }

    /// The live home map, with the full checkpoint per home. Preserved
    /// orphans are not part of the live map.
    pub fn homes_snapshot(&self) -> BTreeMap<ContainerId, RecoveredHome> {
        self.homes.lock().map.clone()
    }

    /// Drain any buffered journal records to the OS now, regardless of
    /// the flush cadence (no-op without a journal). Exposed for
    /// operator-driven shutdown paths and tests.
    pub fn journal_flush(&self) {
        if let Some(journal) = &self.journal {
            drain_wal(journal, &self.homes, self.clock.now(), &self.obs);
        }
    }

    /// The router's observability hub.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// The configured placement strategy.
    pub fn strategy(&self) -> SwarmStrategy {
        self.cfg.strategy
    }

    /// The session clock (drives deadlines and backoff).
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Router metrics in Prometheus text exposition format.
    pub fn metrics_text(&self) -> String {
        prometheus::render(&self.obs.registry.snapshot())
    }

    /// Current health of the named node, if it exists.
    pub fn node_health(&self, name: &str) -> Option<NodeHealth> {
        self.node_index.get(name).map(|&i| self.nodes[i].health())
    }

    /// Index of the node a home names.
    fn node_of(&self, home: &RecoveredHome) -> usize {
        self.node_index[home.node.as_str()]
    }

    /// Per node, from one pass over the home map: the bytes committed
    /// against it and the containers homed on it.
    fn node_loads(&self) -> Vec<(Bytes, u64)> {
        let mut loads = vec![(Bytes::ZERO, 0u64); self.nodes.len()];
        let state = self.homes.lock();
        for home in state.map.values() {
            let (committed, placed) = &mut loads[self.node_of(home)];
            *committed += home.hint;
            *placed += 1;
        }
        loads
    }

    /// The `query_cluster` answer: strategy plus per-node status.
    pub fn cluster_status(&self) -> (String, Vec<ClusterNodeStatus>) {
        let nodes = self
            .nodes
            .iter()
            .zip(self.node_loads())
            .map(|(n, (_, containers))| ClusterNodeStatus {
                node: n.name.clone(),
                health: n.health().label().to_string(),
                containers,
                retries: n.retries.load(Ordering::Relaxed),
                timeouts: n.timeouts.load(Ordering::Relaxed),
                failovers: n.failovers.load(Ordering::Relaxed),
            })
            .collect();
        (self.cfg.strategy.label().to_string(), nodes)
    }

    fn publish_health(&self, node: &RouterNode, health: NodeHealth) {
        let labels = [("node", node.name.as_str())];
        self.obs
            .registry
            .set_gauge(ROUTER_NODE_HEALTH, &labels, health.gauge());
    }

    /// A connected client for node `idx`, reusing the cached connection
    /// or dialing a fresh one.
    fn client_for(&self, idx: usize) -> IpcResult<Arc<SchedulerClient>> {
        let node = &self.nodes[idx];
        let mut state = node.state.lock();
        if let Some(c) = &state.client {
            return Ok(Arc::clone(c));
        }
        let client = Arc::new(SchedulerClient::connect_endpoint_with_codec(
            &node.endpoint,
            self.codec,
            None,
        )?);
        state.client = Some(Arc::clone(&client));
        Ok(client)
    }

    fn note_success(&self, idx: usize) {
        let node = &self.nodes[idx];
        let mut state = node.state.lock();
        state.consecutive_failures = 0;
        if state.health != NodeHealth::Up {
            if state.health == NodeHealth::Down {
                // A node coming back from the dead may be a different
                // process on different hardware: whatever capacity we
                // knew is stale until the next topology probe.
                state.caps = None;
            }
            state.health = NodeHealth::Up;
            drop(state);
            self.publish_health(node, NodeHealth::Up);
        }
    }

    /// Record a transport failure; returns the node's resulting health.
    fn note_failure(&self, idx: usize, err: &IpcError) -> NodeHealth {
        let node = &self.nodes[idx];
        let mut state = node.state.lock();
        // A timed-out request leaves the connection itself usable (the
        // late reply is discarded); a broken one must be redialed — and
        // the process behind the redial may have restarted with a
        // smaller GPU, so the cached capacity probe goes with it.
        if !matches!(err, IpcError::TimedOut) {
            state.client = None;
            state.caps = None;
        }
        state.consecutive_failures = state.consecutive_failures.saturating_add(1);
        let health = if state.consecutive_failures >= self.cfg.down_after {
            NodeHealth::Down
        } else if state.consecutive_failures >= self.cfg.degraded_after {
            NodeHealth::Degraded
        } else {
            state.health
        };
        let changed = state.health != health;
        state.health = health;
        drop(state);
        if changed {
            self.publish_health(node, health);
        }
        health
    }

    /// Exponential backoff for retry number `attempt` (1-based), capped,
    /// plus deterministic jitter of up to one base interval.
    fn backoff(&self, attempt: u32) -> SimDuration {
        let shift = (attempt.saturating_sub(1)).min(16);
        // Every step saturates: an extreme configured base (up to
        // `SimDuration::MAX`) must land on the cap, never on an
        // overflow panic.
        let exp = SimDuration::from_nanos(
            self.cfg
                .backoff_base
                .as_nanos()
                .saturating_mul(1u64 << shift),
        );
        let capped = exp.min(self.cfg.backoff_cap);
        let jitter_ns = self
            .rng
            .lock()
            .next_below(self.cfg.backoff_base.as_nanos().max(1));
        capped.saturating_add(SimDuration::from_nanos(jitter_ns))
    }

    /// Send `req` to node `idx` and return what came of it, keeping the
    /// node's health and the route metrics. `bounded` is the
    /// control-plane shape: each attempt under
    /// [`RouterConfig::deadline`], transport failures retried with
    /// backoff. A down node gets exactly one probe attempt (cheap when
    /// the socket is really gone, and the path back to `up` when the
    /// node returns). Unbounded is for `alloc_request` alone: one
    /// attempt that may block for as long as the node suspends the
    /// container, ended by the reply or by the connection's death.
    fn call_node(&self, idx: usize, req: &Request, bounded: bool) -> IpcResult<Response> {
        let node = &self.nodes[idx];
        let retry_budget = if bounded && node.health() != NodeHealth::Down {
            self.cfg.max_retries
        } else {
            0
        };
        let mut attempt: u32 = 0;
        loop {
            let t0 = self.clock.now();
            let result = self.client_for(idx).and_then(|c| match bounded {
                true => c.request_deadline(req.clone(), &self.clock, self.cfg.deadline),
                false => c.request(req.clone()),
            });
            let labels = [("node", node.name.as_str())];
            let took = self.clock.now().saturating_since(t0);
            self.obs.registry.observe(ROUTER_ROUTE, &labels, took);
            match result {
                Ok(resp) => {
                    self.note_success(idx);
                    return Ok(resp);
                }
                // The node answered: the transport is healthy and the
                // scheduler itself refused — never retried.
                Err(e @ (IpcError::Scheduler(_) | IpcError::UnexpectedResponse(_))) => {
                    self.note_success(idx);
                    return Err(e);
                }
                Err(e) => {
                    if matches!(e, IpcError::TimedOut) {
                        node.timeouts.fetch_add(1, Ordering::Relaxed);
                        self.obs.registry.inc(ROUTER_TIMEOUTS, &labels, 1);
                    }
                    let health = self.note_failure(idx, &e);
                    attempt += 1;
                    if attempt > retry_budget || health == NodeHealth::Down {
                        return Err(e);
                    }
                    node.retries.fetch_add(1, Ordering::Relaxed);
                    self.obs.registry.inc(ROUTER_RETRIES, &labels, 1);
                    self.clock.sleep(self.backoff(attempt));
                }
            }
        }
    }

    /// Forward the request the router was handed to node `idx`, and
    /// stand in for the node where [`Unreachable`] says so — when it is
    /// down, or when the transport fails under the call. A refusal by
    /// the node's scheduler is never degraded.
    fn forward(&self, idx: usize, req: &Request) -> IpcResult<Response> {
        let node = &self.nodes[idx];
        let unreachable = Unreachable::of(req);
        let stand_in = |unreachable, error: IpcError| match unreachable {
            Unreachable::Reject => {
                node.failovers.fetch_add(1, Ordering::Relaxed);
                let labels = [("node", node.name.as_str())];
                self.obs.registry.inc(ROUTER_FAILOVERS, &labels, 1);
                let decision = AllocDecision::Rejected;
                Ok(Response::Alloc { decision })
            }
            Unreachable::Ack(fallback) => Ok(fallback),
            Unreachable::Refuse | Unreachable::Fail => Err(error),
        };
        if node.health() == NodeHealth::Down && !matches!(unreachable, Unreachable::Fail) {
            let down = IpcError::Scheduler(format!("node {} is down", node.name));
            return stand_in(unreachable, down);
        }
        let bounded = !matches!(unreachable, Unreachable::Reject);
        match self.call_node(idx, req, bounded) {
            Ok(resp) => Ok(resp),
            Err(e @ (IpcError::Scheduler(_) | IpcError::UnexpectedResponse(_))) => Err(e),
            Err(transport) => stand_in(unreachable, transport),
        }
    }

    /// Learn `(max device, total)` capacities for nodes that have never
    /// answered a topology probe (skipping down nodes).
    fn ensure_caps(&self) {
        for idx in 0..self.nodes.len() {
            let node = &self.nodes[idx];
            {
                let state = node.state.lock();
                if state.caps.is_some() || state.health == NodeHealth::Down {
                    continue;
                }
            }
            if let Ok(Response::Topology { devices, .. }) =
                self.call_node(idx, &Request::QueryTopology, true)
            {
                let max = devices
                    .iter()
                    .map(|d| d.capacity)
                    .max()
                    .unwrap_or(Bytes::ZERO);
                let total = devices.iter().fold(Bytes::ZERO, |acc, d| acc + d.capacity);
                node.state.lock().caps = Some((max, total));
            }
        }
    }

    /// Swarm placement, scored by [`SwarmStrategy::select`] over the
    /// router's own view of the nodes:
    /// committed hints stand for free memory, the home map for container
    /// counts, a never-probed capacity counts as capable, a down node is
    /// out. `excluded` marks nodes already tried (and failed) for this
    /// register.
    fn pick_node(&self, hint: Bytes, excluded: &[bool]) -> Option<usize> {
        let loads = self.node_loads();
        let capable: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| {
                if excluded[i] {
                    return false;
                }
                let state = self.nodes[i].state.lock();
                if state.health == NodeHealth::Down {
                    return false;
                }
                // Unknown capacity (node never probed) counts as capable;
                // the register forward will discover the truth.
                state.caps.is_none_or(|(max, _)| max >= hint)
            })
            .collect();
        let remaining = |i: usize| -> u64 {
            let caps = self.nodes[i].state.lock().caps;
            match caps {
                Some((_, total)) => total.as_u64().saturating_sub(loads[i].0.as_u64()),
                None => u64::MAX,
            }
        };
        self.cfg.strategy.select(
            &capable,
            |_| hint,
            remaining,
            |i| loads[i].1,
            |n| self.rng.lock().index(n),
        )
    }

    /// Place and register a container; returns the chosen node's name.
    /// A node that fails at the transport level during placement is
    /// excluded and the next capable node is tried (placement failover).
    ///
    /// The id is reserved for as long as the placement takes: a second
    /// `register` of it (a retrying or hostile client on another
    /// connection) is refused without being forwarded anywhere — placed
    /// independently it could land on another node, and the later home
    /// would overwrite the earlier one, whose node then keeps an open
    /// container that nothing will ever close. Other requests for the id
    /// park until the placement is decided.
    pub fn register(&self, container: ContainerId, limit: Bytes) -> IpcResult<String> {
        let reserved = self.placing.lock().insert(container);
        let placed = if reserved && !self.homes.lock().map.contains_key(&container) {
            self.place(container, limit)
        } else {
            Err(IpcError::Scheduler(format!(
                "container {container} is already registered"
            )))
        };
        if reserved {
            self.release(container);
        }
        placed
    }

    fn place(&self, container: ContainerId, limit: Bytes) -> IpcResult<String> {
        self.ensure_caps();
        let hint = ctx_hint(limit);
        let mut excluded = vec![false; self.nodes.len()];
        loop {
            let Some(pick) = self.pick_node(hint, &excluded) else {
                return Err(IpcError::Scheduler(format!(
                    "no capable node for container {container} (requirement {hint})"
                )));
            };
            let node = self.nodes[pick].name.clone();
            match self.call_node(pick, &Request::Register { container, limit }, true) {
                Ok(Response::Ok) => {
                    self.mutate(JournalOp::Place {
                        container,
                        node: node.clone(),
                        limit,
                        hint,
                    });
                    let labels = [("strategy", self.cfg.strategy.label()), ("node", &node)];
                    self.obs.registry.inc(ROUTER_PLACEMENT, &labels, 1);
                    return Ok(node);
                }
                Ok(other) => {
                    return Err(IpcError::UnexpectedResponse(format!("{other:?}")));
                }
                // The node itself refused (duplicate, over capacity, …):
                // a real answer, not a placement failure.
                Err(e @ IpcError::Scheduler(_)) => return Err(e),
                Err(_transport) => {
                    excluded[pick] = true;
                }
            }
        }
    }

    /// Home node index for a container the router knows.
    fn home_idx(&self, container: ContainerId) -> Option<usize> {
        let state = self.homes.lock();
        state.map.get(&container).map(|home| self.node_of(home))
    }

    /// Re-learn the home of a container placed by a previous router
    /// incarnation: probe each live node's `query_home`. The recovered
    /// home carries a zero placement hint (the limit is node-side state).
    pub fn recover_home(&self, container: ContainerId) -> Option<usize> {
        for idx in 0..self.nodes.len() {
            if self.nodes[idx].health() == NodeHealth::Down {
                continue;
            }
            if let Ok(Response::Home { .. }) =
                self.call_node(idx, &Request::QueryHome { container }, true)
            {
                self.mutate(JournalOp::Recover {
                    container,
                    node: self.nodes[idx].name.clone(),
                });
                return Some(idx);
            }
        }
        None
    }

    /// The home a request for `container` goes to. A known home is the
    /// answer — only a close changes it. Without one, the request waits
    /// for a placement of the id in flight, then re-learns the home from
    /// the nodes.
    fn route_idx(&self, container: ContainerId) -> IpcResult<usize> {
        if let Some(idx) = self.home_idx(container) {
            return Ok(idx);
        }
        self.await_placement(container);
        self.home_idx(container)
            .or_else(|| self.recover_home(container))
            .ok_or_else(|| IpcError::Scheduler(format!("unknown container {container}")))
    }

    /// Park the caller while `container`'s `register` is being placed,
    /// bounded by the router deadline, so a request racing its own
    /// registration routes to the home it gets. The bound means a stuck
    /// placement can never wedge a client.
    fn await_placement(&self, container: ContainerId) {
        let bound = std::time::Duration::from_nanos(self.cfg.deadline.as_nanos());
        let mut placing = self.placing.lock();
        while placing.contains(&container) {
            if self.placed.wait_for(&mut placing, bound) {
                break;
            }
        }
    }

    /// `container`'s placement is decided: let the requests parked on it
    /// go.
    fn release(&self, container: ContainerId) {
        let mut placing = self.placing.lock();
        placing.remove(&container);
        self.placed.notify_all();
    }

    /// A request that goes where its container lives: forward it to the
    /// home node. This is every container-keyed kind the router has no
    /// reason to know.
    fn route(&self, container: ContainerId, req: &Request) -> IpcResult<Response> {
        let idx = self.route_idx(container)?;
        let mut reply = self.forward(idx, req)?;
        // The node does not know what the router calls it.
        if let Response::Home { node, .. } = &mut reply {
            node.clone_from(&self.nodes[idx].name);
        }
        Ok(reply)
    }

    /// `container_close`: the router's home entry is dropped, and the
    /// node-side close degrades to an ack when the node is gone.
    fn close(&self, container: ContainerId, req: &Request) -> IpcResult<Response> {
        let idx = self.route_idx(container)?;
        let result = self.forward(idx, req);
        self.mutate(JournalOp::Close { container });
        result
    }

    /// Aggregate `query_topology` across live nodes: kind `"cluster"`,
    /// each node's devices stamped with the router's node name. Downed or
    /// unreachable nodes contribute no devices.
    pub fn topology(&self) -> (String, Vec<TopologyDevice>) {
        let mut all = Vec::new();
        for idx in 0..self.nodes.len() {
            if self.nodes[idx].health() == NodeHealth::Down {
                continue;
            }
            if let Ok(Response::Topology { devices, .. }) =
                self.call_node(idx, &Request::QueryTopology, true)
            {
                for mut d in devices {
                    d.node = self.nodes[idx].name.clone();
                    all.push(d);
                }
            }
        }
        ("cluster".to_string(), all)
    }

    /// Serve this router on its own UNIX socket, fronting the whole
    /// cluster behind the ordinary wire protocol.
    pub fn serve_on(self: &Arc<Self>, path: &Path) -> std::io::Result<SocketServer> {
        self.serve_on_endpoint(&EndpointAddr::from(path))
    }

    /// Serve this router on any transport endpoint (`unix:/path` or
    /// `tcp:host:port`), fronting the whole cluster behind the ordinary
    /// wire protocol.
    pub fn serve_on_endpoint(
        self: &Arc<Self>,
        endpoint: &EndpointAddr,
    ) -> std::io::Result<SocketServer> {
        SocketServer::bind_endpoint(endpoint, Arc::new(RouterHandler::new(Arc::clone(self))))
    }
}

/// Graceful shutdown keeps the journal's buffered tail: stop and join
/// the idle flusher, then drain whatever is still buffered. Only a
/// hard kill (`kill -9`) loses records, bounded by roughly one flush
/// tick — the durability contract in the journal module docs.
impl Drop for ClusterRouter {
    fn drop(&mut self) {
        if let Some(handle) = self.flusher.take() {
            let (stopped, tick) = &*self.flusher_stop;
            *stopped.lock() = true;
            tick.notify_all();
            let _ = handle.join();
        }
        self.journal_flush();
    }
}

/// The router's one dispatch: what it answers itself, what it treats
/// specially, and — everything else — what it forwards to the
/// container's home node as it came. Being a [`Transact`] makes the
/// router a [`convgpu_ipc::endpoint::SchedulerEndpoint`], so every
/// driver of that trait (loadgen workers, the wrapper, tests) can run
/// against a routed cluster in-process; [`RouterHandler`] serves the
/// same function on a socket.
impl Transact for ClusterRouter {
    fn transact(&self, req: Request) -> IpcResult<Response> {
        match &req {
            Request::Register { container, limit } => {
                self.register(*container, *limit).map(|_| Response::Ok)
            }
            Request::ContainerClose { container } => self.close(*container, &req),
            Request::Ping => Ok(Response::Pong),
            Request::QueryMetrics => Ok(Response::Metrics {
                text: self.metrics_text(),
            }),
            Request::QueryTopology => {
                let (kind, devices) = self.topology();
                Ok(Response::Topology { kind, devices })
            }
            Request::QueryCluster => {
                let (strategy, nodes) = self.cluster_status();
                Ok(Response::Cluster { strategy, nodes })
            }
            // `migrate` names a container but moves nothing: refused,
            // like `query_migrations`, as a node refuses both.
            req => match req.container() {
                Some(container) if !matches!(req, Request::Migrate { .. }) => {
                    self.route(container, req)
                }
                _ => Err(IpcError::Scheduler(format!(
                    "a router does not answer {}",
                    req.kind()
                ))),
            },
        }
    }

    /// The wrapper's three reports go on to the home node one-way: the
    /// router reads nothing from them, so it waits for nothing. A report
    /// for a node that is down is dropped, and one whose write fails
    /// counts against the node's health and is not retried; either way
    /// it is acknowledged, as [`Unreachable`] acknowledges a waited one
    /// in the node's place. Any other kind — an id-0 `register` or
    /// `container_close` from a hostile client included — takes the
    /// router's own path through [`Transact::transact`], which already
    /// folds an error into `Err`.
    fn notify(&self, req: Request) -> IpcResult<()> {
        let container = match &req {
            Request::AllocDone { container, .. }
            | Request::AllocFailed { container, .. }
            | Request::Free { container, .. } => *container,
            _ => return self.transact(req).map(|_| ()),
        };
        let idx = self.route_idx(container)?;
        if self.nodes[idx].health() != NodeHealth::Down {
            if let Err(e) = self.client_for(idx).and_then(|c| c.notify(req)) {
                self.note_failure(idx, &e);
            }
        }
        Ok(())
    }
}

/// Serves a [`ClusterRouter`] on a socket: every request is answered
/// with the router's [`Transact::transact`], and a report (envelope id
/// 0, no answer wanted) is passed on with its [`Transact::notify`].
///
/// Threads: every request runs on its connection's reader thread, except
/// `alloc_request`, which may block for as long as a node suspends the
/// container. That one is handed to a forwarder thread (a [`ThreadPool`]:
/// one per concurrently blocked forward, reused while idle, never
/// queued), so a suspension on one node never blocks the connection's
/// reader loop (the per-connection analog of the service parking a
/// [`Reply`]). Idle forwarders end when the handler is dropped — the
/// serving [`SocketServer`] shut down and its last connection gone.
pub struct RouterHandler {
    router: Arc<ClusterRouter>,
    forwarders: ThreadPool,
}

impl RouterHandler {
    /// Wrap `router`.
    pub fn new(router: Arc<ClusterRouter>) -> Self {
        RouterHandler {
            router,
            forwarders: ThreadPool::new("convgpu-router-fwd"),
        }
    }
}

/// Answer `req` with what the router makes of it; an `Err` goes out as
/// an `error` reply carrying its text.
fn answer(router: &ClusterRouter, req: Request, reply: Reply) {
    reply.send(router.transact(req).unwrap_or_else(|e| Response::Error {
        message: e.to_string(),
    }));
}

impl RequestHandler for RouterHandler {
    fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
        match req {
            // May block for as long as the node suspends — run it off
            // the reader thread.
            req @ Request::AllocRequest { .. } => {
                let router = Arc::clone(&self.router);
                if self.forwarders.run(move || answer(&router, req, reply)) {
                    let reg = &self.router.obs.registry;
                    reg.inc(ROUTER_FORWARDER_SPAWNS, &[], 1);
                }
            }
            // Nobody reads an answer: nothing to wait for either. The
            // forward's write completes before this thread reads the
            // connection's next frame, so the report still reaches the
            // node ahead of the sender's next request.
            req if reply.is_report() => {
                let _ = self.router.notify(req);
            }
            req => answer(&self.router, req, reply),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_ipc::endpoint::SchedulerEndpoint;
    use convgpu_ipc::message::ApiKind;
    use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
    use convgpu_scheduler::policy::PolicyKind;
    use convgpu_sim_core::clock::{RealClock, VirtualClock};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("convgpu-router-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn node(tag: &str, name: &str, capacity_mib: u64, clock: ClockHandle) -> NodeServer {
        let dir = temp_dir(tag).join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let backend = TopologyBackend::Single(Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
            PolicyKind::Fifo.build(0),
        ));
        NodeServer::serve(name, backend, clock, dir.clone(), &dir.join("node.sock")).unwrap()
    }

    fn router_over(nodes: &[&NodeServer], cfg: RouterConfig, clock: ClockHandle) -> ClusterRouter {
        router_over_codec(nodes, cfg, clock, WireCodec::Json)
    }

    fn router_over_codec(
        nodes: &[&NodeServer],
        cfg: RouterConfig,
        clock: ClockHandle,
        codec: WireCodec,
    ) -> ClusterRouter {
        ClusterRouter::attach(
            nodes
                .iter()
                .map(|n| (n.name().to_string(), n.socket_path().to_path_buf()))
                .collect(),
            codec,
            cfg,
            clock,
        )
    }

    #[test]
    fn spread_places_round_robin_across_nodes() {
        let clock = RealClock::handle();
        let n0 = node("spread", "n0", 1024, clock.clone());
        let n1 = node("spread", "n1", 1024, clock.clone());
        let router = router_over(&[&n0, &n1], RouterConfig::default(), clock);
        let mut names = Vec::new();
        for c in 1..=4 {
            names.push(router.register(ContainerId(c), Bytes::mib(100)).unwrap());
        }
        assert_eq!(names, vec!["n0", "n1", "n0", "n1"]);
        let (strategy, status) = router.cluster_status();
        assert_eq!(strategy, "spread");
        assert_eq!(status[0].containers, 2);
        assert_eq!(status[1].containers, 2);
        assert!(status.iter().all(|s| s.health == "up"));
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn full_lifecycle_routes_to_the_home_node() {
        let clock = RealClock::handle();
        let n0 = node("life", "n0", 1024, clock.clone());
        let n1 = node("life", "n1", 1024, clock.clone());
        let router = router_over(&[&n0, &n1], RouterConfig::default(), clock);
        router.register(ContainerId(1), Bytes::mib(256)).unwrap();
        assert_eq!(
            router
                .request_alloc(ContainerId(1), 7, Bytes::mib(64), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        ClusterRouter::alloc_done(&router, ContainerId(1), 7, 0xA0, Bytes::mib(64)).unwrap();
        assert_eq!(
            ClusterRouter::mem_info(&router, ContainerId(1), 7).unwrap(),
            (Bytes::mib(192), Bytes::mib(256))
        );
        assert_eq!(
            ClusterRouter::free(&router, ContainerId(1), 7, 0xA0).unwrap(),
            Bytes::mib(64)
        );
        let (home, _device) = ClusterRouter::query_home(&router, ContainerId(1)).unwrap();
        assert_eq!(home, "n0");
        ClusterRouter::process_exit(&router, ContainerId(1), 7).unwrap();
        ClusterRouter::container_close(&router, ContainerId(1)).unwrap();
        assert!(router.home_idx(ContainerId(1)).is_none());
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn binpack_fills_one_node_before_the_next() {
        let clock = RealClock::handle();
        let n0 = node("binpack", "n0", 1024, clock.clone());
        let n1 = node("binpack", "n1", 1024, clock.clone());
        let cfg = RouterConfig {
            strategy: SwarmStrategy::BinPack,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0, &n1], cfg, clock);
        // 300 + 66 MiB committed per container: two fit in 1024, the
        // third must spill to the other node.
        let mut names = Vec::new();
        for c in 1..=3 {
            names.push(router.register(ContainerId(c), Bytes::mib(300)).unwrap());
        }
        assert_eq!(names, vec!["n0", "n0", "n1"]);
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn a_down_node_keeps_its_homes() {
        let clock = RealClock::handle();
        let n0 = node("downkeeps", "n0", 1024, clock.clone());
        let n1 = node("downkeeps", "n1", 1024, clock.clone());
        // Virtual clock on the router: backoff and deadlines run in
        // virtual time, so the failure schedule is instant and exact.
        let vclock: ClockHandle = VirtualClock::new().handle();
        let cfg = RouterConfig {
            max_retries: 1,
            down_after: 2,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0, &n1], cfg, vclock);
        let (c, other, closed) = (ContainerId(1), ContainerId(2), ContainerId(3));
        router.register(c, Bytes::mib(400)).unwrap(); // → n0
        router.register(other, Bytes::mib(100)).unwrap(); // → n1
        router.register(closed, Bytes::mib(100)).unwrap(); // → n0
        assert_eq!(
            router
                .request_alloc(c, 7, Bytes::mib(100), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        ClusterRouter::alloc_done(&router, c, 7, 0xA0, Bytes::mib(100)).unwrap();
        let placed = router.homes_snapshot();
        assert_eq!(placed[&c].node, "n0");
        // Take n0 off the network with its books kept: a partition that
        // will heal, not a crash.
        let service = Arc::clone(n0.service());
        let socket = n0.socket_path().to_path_buf();
        let books = |s: &Scheduler, id| {
            s.check_invariants().unwrap();
            s.container(id)
                .map(|r| (r.limit, r.used, r.assigned, r.allocations.len()))
        };
        let before = service.with_scheduler(|s| books(s, c));
        assert!(before.is_some());
        n0.shutdown();
        // The first two rejections are the failures that down n0; the
        // third is answered in its place without asking.
        for _ in 0..3 {
            assert_eq!(
                router
                    .request_alloc(c, 7, Bytes::mib(10), ApiKind::Malloc)
                    .unwrap(),
                AllocDecision::Rejected
            );
        }
        assert_eq!(router.node_health("n0"), Some(NodeHealth::Down));
        assert_eq!(
            ClusterRouter::free(&router, c, 7, 0xA0).unwrap(),
            Bytes::ZERO
        );
        assert!(ClusterRouter::mem_info(&router, c, 7).is_err());
        let (_, status) = router.cluster_status();
        assert_eq!(status[0].failovers, 3, "{status:?}");
        assert_eq!(router.homes_snapshot(), placed, "nothing moved");
        n1.service().with_scheduler(|s| {
            assert_eq!(books(s, c), None, "no register reached the survivor");
        });
        // The live node still serves its own container.
        assert_eq!(
            router
                .request_alloc(other, 2, Bytes::mib(10), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        assert_eq!(router.node_health("n1"), Some(NodeHealth::Up));
        // A close is acknowledged in the down node's place, and the home
        // goes with it.
        ClusterRouter::container_close(&router, closed).unwrap();
        assert!(!router.homes_snapshot().contains_key(&closed));

        // The partition heals: the same service answers on the old
        // socket. The first call that probes a down node brings it back
        // up, and the container's books are as it left them.
        let handler = Arc::new(ServiceHandler::new(Arc::clone(&service)));
        let healed = SocketServer::bind(&socket, handler).unwrap();
        let (home, _) = ClusterRouter::query_home(&router, c).unwrap();
        assert_eq!(home, "n0");
        assert_eq!(router.node_health("n0"), Some(NodeHealth::Up));
        assert_eq!(service.with_scheduler(|s| books(s, c)), before);
        // The known limit: the close acked in n0's place never reached it.
        assert!(service.with_scheduler(|s| books(s, closed)).is_some());
        assert_eq!(
            router
                .request_alloc(c, 7, Bytes::mib(10), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        assert_eq!(
            ClusterRouter::free(&router, c, 7, 0xA0).unwrap(),
            Bytes::mib(100)
        );
        ClusterRouter::container_close(&router, c).unwrap();
        healed.shutdown();
        n1.shutdown();
    }

    #[test]
    fn failed_report_writes_count_against_the_node() {
        let clock = RealClock::handle();
        let n0 = node("reportfail", "n0", 1024, clock.clone());
        let n1 = node("reportfail", "n1", 1024, clock.clone());
        let vclock: ClockHandle = VirtualClock::new().handle();
        let cfg = RouterConfig {
            max_retries: 1,
            down_after: 2,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0, &n1], cfg, vclock);
        let c = ContainerId(1);
        router.register(c, Bytes::mib(100)).unwrap(); // → n0
        n0.shutdown();
        // Each one-way report to the dead node is acknowledged, and its
        // failed write counts: the second downs n0.
        router.report_free(c, 7, 0xA0).unwrap();
        assert_eq!(router.node_health("n0"), Some(NodeHealth::Up));
        router.report_alloc_failed(c, 7, Bytes::mib(1)).unwrap();
        assert_eq!(router.node_health("n0"), Some(NodeHealth::Down));
        // A down node is not written to: the report is acknowledged in
        // its place, and the container stays homed there.
        router.report_alloc_done(c, 7, 0xB0, Bytes::mib(8)).unwrap();
        assert_eq!(router.homes_snapshot()[&c].node, "n0");
        ClusterRouter::container_close(&router, c).unwrap();
        assert!(router.homes_snapshot().is_empty());
        n1.shutdown();
    }

    #[test]
    fn register_fails_over_to_the_next_capable_node() {
        let clock = RealClock::handle();
        let n0 = node("regfail", "n0", 1024, clock.clone());
        let n1 = node("regfail", "n1", 1024, clock.clone());
        let vclock: ClockHandle = VirtualClock::new().handle();
        let cfg = RouterConfig {
            max_retries: 0,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0, &n1], cfg, vclock);
        // Warm the capability cache while both nodes are alive.
        router.register(ContainerId(9), Bytes::mib(1)).unwrap();
        n0.shutdown();
        // Spread would pick n0 next; its transport failure must fail the
        // placement over to n1 instead of erroring out.
        assert_eq!(
            router.register(ContainerId(1), Bytes::mib(100)).unwrap(),
            "n1"
        );
        n1.shutdown();
    }

    #[test]
    fn restarted_router_recovers_homes_from_live_nodes() {
        let clock = RealClock::handle();
        let n0 = node("recover", "n0", 1024, clock.clone());
        let n1 = node("recover", "n1", 1024, clock.clone());
        let first = router_over(&[&n0, &n1], RouterConfig::default(), clock.clone());
        first.register(ContainerId(1), Bytes::mib(100)).unwrap();
        first.register(ContainerId(2), Bytes::mib(100)).unwrap();
        drop(first);
        // A brand-new router (fresh homes map) re-attaches to the same
        // sockets and finds the containers by probing.
        let second = router_over(&[&n0, &n1], RouterConfig::default(), clock);
        assert_eq!(
            second
                .request_alloc(ContainerId(2), 2, Bytes::mib(10), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        let (home, _) = ClusterRouter::query_home(&second, ContainerId(1)).unwrap();
        assert_eq!(home, "n0");
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn backoff_saturates_at_extreme_config() {
        let n0 = node("backoffsat", "n0", 64, RealClock::handle());
        let cfg = RouterConfig {
            backoff_base: SimDuration::MAX,
            backoff_cap: SimDuration::MAX,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0], cfg, VirtualClock::new().handle());
        // Any attempt number must land on the cap — never on the debug
        // overflow abort the unchecked `base * (1 << shift)` used to hit.
        for attempt in [0, 1, 2, 17, u32::MAX] {
            assert_eq!(router.backoff(attempt), SimDuration::MAX);
        }
        n0.shutdown();
    }

    #[test]
    fn restarted_smaller_node_does_not_receive_oversized_placements() {
        let clock = RealClock::handle();
        let n0 = node("stalecaps", "n0", 1024, clock.clone());
        let n1 = node("stalecaps", "n1", 1024, clock.clone());
        let vclock: ClockHandle = VirtualClock::new().handle();
        let cfg = RouterConfig {
            max_retries: 0,
            ..RouterConfig::default()
        };
        let router = router_over(&[&n0, &n1], cfg, vclock);
        // Warm the capability cache at 1024 MiB on both nodes.
        router.register(ContainerId(1), Bytes::mib(100)).unwrap(); // → n0
        router.register(ContainerId(2), Bytes::mib(100)).unwrap(); // → n1
                                                                   // n0 dies; the next placement attempt on it fails over and — the
                                                                   // bugfix — drops the stale 1024 MiB capability entry with the
                                                                   // dead client.
        n0.shutdown();
        assert_eq!(
            router.register(ContainerId(3), Bytes::mib(300)).unwrap(),
            "n1"
        );
        // n0 restarts at the same socket with a smaller GPU. Spread
        // prefers it again (1 container vs 2), but the re-probed
        // capability says 150 MiB, so a 300 MiB container must not land
        // there. With the stale cache it would have.
        let n0b = node("stalecaps", "n0", 150, clock);
        assert_eq!(
            router.register(ContainerId(4), Bytes::mib(300)).unwrap(),
            "n1"
        );
        // A right-sized container still lands on the restarted node.
        assert_eq!(
            router.register(ContainerId(5), Bytes::mib(40)).unwrap(),
            "n0"
        );
        n0b.shutdown();
        n1.shutdown();
    }

    #[test]
    fn restart_without_a_journal_is_pinned_to_zero_checkpoints() {
        // Frozen baseline for the journal's improvement, over both
        // codecs: a router restarted *without* a journal re-learns homes
        // with limit = 0 and hint = 0, so placement counts nothing for
        // them.
        for (tag, codec) in [
            ("zerojson", WireCodec::Json),
            ("zerobin", WireCodec::Binary),
        ] {
            let clock = RealClock::handle();
            let n0 = node(tag, "n0", 1024, clock.clone());
            let n1 = node(tag, "n1", 1024, clock.clone());
            let cfg = RouterConfig {
                max_retries: 1,
                down_after: 2,
                ..RouterConfig::default()
            };
            let first = router_over_codec(
                &[&n0, &n1],
                cfg.clone(),
                VirtualClock::new().handle(),
                codec,
            );
            first.register(ContainerId(1), Bytes::mib(400)).unwrap();
            assert_eq!(
                first
                    .request_alloc(ContainerId(1), 7, Bytes::mib(200), ApiKind::Malloc)
                    .unwrap(),
                AllocDecision::Granted
            );
            ClusterRouter::alloc_done(&first, ContainerId(1), 7, 0xA0, Bytes::mib(200)).unwrap();
            drop(first);
            let second = router_over_codec(&[&n0, &n1], cfg, VirtualClock::new().handle(), codec);
            // Lazy re-learn while the home is alive.
            assert_eq!(
                second
                    .request_alloc(ContainerId(1), 7, Bytes::mib(10), ApiKind::Malloc)
                    .unwrap(),
                AllocDecision::Granted
            );
            let homes = second.homes_snapshot();
            assert_eq!(homes[&ContainerId(1)].node, "n0", "codec {codec:?}");
            assert_eq!(homes[&ContainerId(1)].limit, Bytes::ZERO, "codec {codec:?}");
            assert_eq!(homes[&ContainerId(1)].hint, Bytes::ZERO, "codec {codec:?}");
            n0.shutdown();
            n1.shutdown();
        }
    }

    #[test]
    fn journaled_router_recovers_full_checkpoints_across_restart() {
        let clock = RealClock::handle();
        let n0 = node("junit", "n0", 1024, clock.clone());
        let jdir = temp_dir("junit").join("journal");
        let _ = std::fs::remove_dir_all(&jdir);
        let jcfg = JournalConfig {
            flush_interval: SimDuration::ZERO,
            ..JournalConfig::new(jdir.clone())
        };
        let endpoints = vec![("n0".to_string(), n0.socket_path().to_path_buf())];
        let first = ClusterRouter::attach_with_journal(
            endpoints.clone(),
            WireCodec::Json,
            RouterConfig::default(),
            clock.clone(),
            jcfg.clone(),
        )
        .unwrap();
        first.register(ContainerId(1), Bytes::mib(400)).unwrap();
        assert_eq!(
            first
                .request_alloc(ContainerId(1), 7, Bytes::mib(100), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        ClusterRouter::alloc_done(&first, ContainerId(1), 7, 0xA0, Bytes::mib(100)).unwrap();
        drop(first);
        // The restarted router holds the full checkpoint before touching
        // any node: limit and placement hint. The allocation journaled
        // nothing.
        let second = ClusterRouter::attach_with_journal(
            endpoints,
            WireCodec::Json,
            RouterConfig::default(),
            clock,
            jcfg,
        )
        .unwrap();
        let want = RecoveredHome {
            node: "n0".into(),
            limit: Bytes::mib(400),
            hint: ctx_hint(Bytes::mib(400)),
            used_by_pid: BTreeMap::new(),
        };
        assert_eq!(
            second.homes_snapshot(),
            BTreeMap::from([(ContainerId(1), want)])
        );
        let text = second.metrics_text();
        assert!(
            text.contains("convgpu_router_journal_recovered_homes_total"),
            "{text}"
        );
        n0.shutdown();
    }

    #[test]
    fn concurrent_mutations_survive_compaction_races() {
        // Pins the compaction-atomicity and append-ordering fixes:
        // with a tiny snapshot_every, compactions race concurrent
        // register / close churn constantly. Durable state must replay
        // to exactly the live map — a mutation journaled between the map
        // capture and the log truncation used to be lost (or, in the
        // reverse interleaving, double-applied).
        let clock = RealClock::handle();
        let n0 = node("jrace", "n0", 16384, clock.clone());
        let jdir = temp_dir("jrace").join("journal");
        let _ = std::fs::remove_dir_all(&jdir);
        let jcfg = JournalConfig {
            flush_interval: SimDuration::ZERO,
            snapshot_every: 4,
            ..JournalConfig::new(jdir.clone())
        };
        let endpoints = vec![("n0".to_string(), n0.socket_path().to_path_buf())];
        let router = ClusterRouter::attach_with_journal(
            endpoints,
            WireCodec::Json,
            RouterConfig::default(),
            clock,
            jcfg,
        )
        .unwrap();
        const WORKERS: u64 = 4;
        const OPS: u64 = 30;
        std::thread::scope(|scope| {
            for t in 0..WORKERS {
                let router = &router;
                scope.spawn(move || {
                    // Each worker its own ids; every other one stays.
                    for i in 0..OPS {
                        let container = ContainerId(1 + t * OPS + i);
                        router.register(container, Bytes::mib(64)).unwrap();
                        if i % 2 == 0 {
                            ClusterRouter::container_close(router, container).unwrap();
                        }
                    }
                });
            }
        });
        let live = router.homes_snapshot();
        assert_eq!(live.len() as u64, WORKERS * OPS / 2);
        drop(router); // graceful shutdown drains the buffered tail
        let (_j, _w, recovery) = Journal::open(JournalConfig::new(&jdir)).unwrap();
        assert_eq!(
            recovery.homes, live,
            "durable state diverged from the live map across racing compactions"
        );
        n0.shutdown();
    }

    #[test]
    fn orphaned_homes_survive_a_wrong_node_list_restart() {
        let clock = RealClock::handle();
        let n0 = node("orphan", "n0", 1024, clock.clone());
        let jdir = temp_dir("orphan").join("journal");
        let _ = std::fs::remove_dir_all(&jdir);
        let jcfg = JournalConfig {
            flush_interval: SimDuration::ZERO,
            ..JournalConfig::new(jdir.clone())
        };
        let first = ClusterRouter::attach_with_journal(
            vec![("n0".to_string(), n0.socket_path().to_path_buf())],
            WireCodec::Json,
            RouterConfig::default(),
            clock.clone(),
            jcfg.clone(),
        )
        .unwrap();
        first.register(ContainerId(1), Bytes::mib(400)).unwrap();
        drop(first);
        // Restart with a node list that no longer names n0: the
        // recovered home cannot be matched. It must ride through this
        // router's immediate recompaction as an orphan — not be erased
        // from durable state by a transiently wrong config.
        let ghost = temp_dir("orphan").join("ghost.sock");
        let wrong = ClusterRouter::attach_with_journal(
            vec![("other".to_string(), ghost)],
            WireCodec::Json,
            RouterConfig::default(),
            clock.clone(),
            jcfg.clone(),
        )
        .unwrap();
        assert!(
            wrong.homes_snapshot().is_empty(),
            "an orphan is not a live home"
        );
        let text = wrong.metrics_text();
        assert!(
            text.contains("convgpu_router_journal_orphan_homes_total"),
            "{text}"
        );
        drop(wrong);
        // A corrected restart recovers the full checkpoint.
        let fixed = ClusterRouter::attach_with_journal(
            vec![("n0".to_string(), n0.socket_path().to_path_buf())],
            WireCodec::Json,
            RouterConfig::default(),
            clock,
            jcfg,
        )
        .unwrap();
        let homes = fixed.homes_snapshot();
        let home = &homes[&ContainerId(1)];
        assert_eq!(home.node, "n0");
        assert_eq!(home.limit, Bytes::mib(400));
        assert_eq!(home.hint, ctx_hint(Bytes::mib(400)));
        n0.shutdown();
    }

    #[test]
    fn retry_metrics_and_health_are_exposed() {
        let n0 = node("metrics", "n0", 1024, RealClock::handle());
        let socket = n0.socket_path().to_path_buf();
        let vclock: ClockHandle = VirtualClock::new().handle();
        let router = ClusterRouter::attach(
            vec![
                ("n0".to_string(), socket),
                ("ghost".to_string(), temp_dir("metrics").join("ghost.sock")),
            ],
            WireCodec::Binary,
            RouterConfig::default(),
            vclock,
        );
        router.register(ContainerId(1), Bytes::mib(100)).unwrap();
        let text = router.metrics_text();
        assert!(text.contains("convgpu_router_node_health"), "{text}");
        assert!(text.contains("convgpu_router_placement_total"), "{text}");
        assert!(text.contains("convgpu_router_route_seconds"), "{text}");
        n0.shutdown();
    }
}
