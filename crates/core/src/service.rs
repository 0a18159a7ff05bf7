//! The live scheduler service.
//!
//! Wraps the pure [`Scheduler`] state machine with what the Go daemon had:
//! a lock ("each step is protected by a mutex lock to prevent the race
//! condition", §III-D), a clock, the per-container volume directories, and
//! the **waiter table** that realizes suspension: a suspended request's
//! reply handle is parked under its ticket and fired when a later event
//! produces the matching [`ResumeAction`].
//!
//! [`SchedulerService::call`] is the process's one dispatch from wire
//! message to behaviour: the socket handler
//! ([`crate::handler::ServiceHandler`]) and the in-process endpoint
//! ([`InProcEndpoint`]) both answer a [`Request`] with it.

use convgpu_ipc::endpoint::{IpcResult, Transact};
use convgpu_ipc::message::{
    AllocDecision, ApiKind, ClusterNodeStatus, MigrationRecord, Request, Response, TopologyDevice,
};
use convgpu_ipc::server::Reply;
use convgpu_obs::{chrome, prometheus, Registry, RingSink, SpanSink, Tracer};
use convgpu_scheduler::backend::{Placement, SchedulerBackend, TopologyBackend};
use convgpu_scheduler::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler};
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::units::Bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

/// File name of the daemon's socket, and of its link in a volume.
const SOCKET_NAME: &str = "convgpu.sock";

/// A parked reply for a suspended allocation.
enum Waiter {
    /// In-process caller blocked on a channel.
    Channel(SyncSender<AllocDecision>),
    /// Socket caller; the reply handle writes to its connection.
    Socket(Reply),
}

/// The service's observability fan-in: one metrics registry and one
/// tracer shared by the scheduler, the IPC layer, and the wrapper
/// modules. The ring sink retains the most recent spans for the
/// Chrome-trace export; tests attach a `CollectorSink` for full capture.
pub struct ObsHub {
    /// Metrics registry (counters, gauges, latency histograms).
    pub registry: Arc<Registry>,
    /// Span source; add sinks to receive subsequently emitted spans.
    pub tracer: Arc<Tracer>,
    /// Bounded span retention backing [`SchedulerService::chrome_trace`].
    pub ring: Arc<RingSink>,
}

impl ObsHub {
    /// Spans retained by the live daemon's ring.
    pub const RING_CAPACITY: usize = 4096;

    /// A hub with a fresh registry and a tracer draining into a ring.
    pub fn new() -> Self {
        let tracer = Arc::new(Tracer::new());
        let ring = Arc::new(RingSink::new(Self::RING_CAPACITY));
        tracer.add_sink(Arc::clone(&ring) as Arc<dyn SpanSink>);
        ObsHub {
            registry: Arc::new(Registry::new()),
            tracer,
            ring,
        }
    }

    /// The scheduler-facing view of the hub (no device label: the
    /// single-GPU service's exposition stays exactly as it always was;
    /// multi-device backends scope it per device themselves).
    pub fn sched_obs(&self) -> SchedObs {
        SchedObs::new(Arc::clone(&self.registry), Arc::clone(&self.tracer))
    }
}

impl Default for ObsHub {
    fn default() -> Self {
        Self::new()
    }
}

/// The newest migration records of a daemon or a router, oldest first.
///
/// Bounded, because the whole log travels in one `migrations` reply and
/// a reply has to fit a frame: [`MigrationLog::KEPT`] records with
/// 20-digit ids and sizes and node names of up to 60 bytes stay under
/// the 64 KiB frame limit in either codec. Older records are dropped;
/// the router's migration counter keeps counting all of them.
#[derive(Default)]
pub(crate) struct MigrationLog(VecDeque<MigrationRecord>);

impl MigrationLog {
    const KEPT: usize = 256;

    pub(crate) fn push(&mut self, record: MigrationRecord) {
        if self.0.len() == Self::KEPT {
            self.0.pop_front();
        }
        self.0.push_back(record);
    }

    pub(crate) fn records(&self) -> Vec<MigrationRecord> {
        self.0.iter().cloned().collect()
    }

    /// The part of one drain's `records` that fits a reply: its newest.
    pub(crate) fn newest(mut records: Vec<MigrationRecord>) -> Vec<MigrationRecord> {
        let dropped = records.len().saturating_sub(Self::KEPT);
        records.drain(..dropped);
        records
    }
}

/// The live scheduler service shared by every connection and thread.
///
/// Since the topology refactor the service is **backend-agnostic**: it
/// stores a [`TopologyBackend`] and speaks only the [`SchedulerBackend`]
/// trait, so a single-GPU host, a multi-GPU host, and a Swarm cluster are
/// all served by the same waiter table and IPC stack. Tickets are
/// globally unique across devices/nodes (the backends tag the high bits),
/// so suspension plumbing is topology-blind.
pub struct SchedulerService {
    clock: ClockHandle,
    state: Mutex<TopologyBackend>,
    waiters: Mutex<HashMap<u64, Waiter>>,
    base_dir: PathBuf,
    /// Containers whose volume directory [`SchedulerService::request_dir`]
    /// made and [`SchedulerService::container_close`] has yet to remove.
    volumes: Mutex<HashSet<ContainerId>>,
    obs: Arc<ObsHub>,
    migrations: Mutex<MigrationLog>,
}

impl SchedulerService {
    /// Wrap a single-GPU `scheduler`, serving per-container directories
    /// under `base_dir` (created on demand). The service always carries
    /// an [`ObsHub`] and attaches it to the scheduler.
    pub fn new(scheduler: Scheduler, clock: ClockHandle, base_dir: PathBuf) -> Self {
        Self::new_with_backend(TopologyBackend::Single(scheduler), clock, base_dir)
    }

    /// Wrap an arbitrary topology backend (multi-GPU host or cluster).
    pub fn new_with_backend(
        mut backend: TopologyBackend,
        clock: ClockHandle,
        base_dir: PathBuf,
    ) -> Self {
        let obs = Arc::new(ObsHub::new());
        backend.attach_obs(obs.sched_obs());
        SchedulerService {
            clock,
            state: Mutex::new(backend),
            waiters: Mutex::new(HashMap::new()),
            base_dir,
            volumes: Mutex::new(HashSet::new()),
            obs,
            migrations: Mutex::new(MigrationLog::default()),
        }
    }

    /// The observability hub shared across the middleware layers.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// Current metrics in Prometheus text exposition format. Refreshes
    /// the progress-state gauges from a fresh stall assessment first.
    pub fn metrics_text(&self) -> String {
        self.state.lock().observe_progress();
        prometheus::render(&self.obs.registry.snapshot())
    }

    /// Chrome-trace JSON (trace-event array) of the retained spans.
    pub fn chrome_trace(&self) -> String {
        chrome::render(&self.obs.ring.snapshot())
    }

    /// The directory under which container volumes are created.
    pub fn base_dir(&self) -> &Path {
        &self.base_dir
    }

    /// The session clock.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Run a closure over the locked primary device scheduler (device 0
    /// of node 0) — the legacy single-device introspection surface.
    pub fn with_scheduler<T>(&self, f: impl FnOnce(&Scheduler) -> T) -> T {
        f(self.state.lock().primary())
    }

    /// Run a closure over the locked topology backend (topology-aware
    /// metrics collection, invariant checks in tests).
    pub fn with_backend<T>(&self, f: impl FnOnce(&TopologyBackend) -> T) -> T {
        f(&self.state.lock())
    }

    /// Snapshot the topology for the `query_topology` wire message:
    /// `(kind, devices)`.
    pub fn topology(&self) -> (String, Vec<TopologyDevice>) {
        let state = self.state.lock();
        let devices = state
            .devices()
            .into_iter()
            .map(|d| TopologyDevice {
                node: d.node.unwrap_or_default(),
                device: d.device as u64,
                capacity: d.capacity,
                unassigned: d.unassigned,
                containers: d.open_containers as u64,
                policy: d.policy,
            })
            .collect();
        (state.topology_kind().to_string(), devices)
    }

    /// A container's home placement, if it is registered.
    pub fn query_home(&self, container: ContainerId) -> Option<Placement> {
        self.state.lock().home_of(container)
    }

    /// The `query_cluster` answer for the in-process cluster backend, or
    /// `None` for single / multi-GPU daemons (which answer `error`).
    ///
    /// The in-process backend has no transport between router and nodes,
    /// so every node is `up` and the fault counters are zero; the
    /// distributed router (`crate::router`) overrides these with its real
    /// health view.
    pub fn cluster_status(&self) -> Option<(String, Vec<ClusterNodeStatus>)> {
        let state = self.state.lock();
        let TopologyBackend::Cluster(cs) = &*state else {
            return None;
        };
        let mut per_node = vec![0u64; cs.names().len()];
        for (_, node) in cs.homes() {
            per_node[node] += 1;
        }
        let nodes = cs
            .names()
            .iter()
            .zip(per_node)
            .map(|(name, containers)| ClusterNodeStatus {
                node: name.clone(),
                health: "up".to_string(),
                containers,
                retries: 0,
                timeouts: 0,
                failovers: 0,
            })
            .collect();
        Some((cs.placer().strategy().label().to_string(), nodes))
    }

    /// Deliver resume actions to their parked waiters. Socket replies are
    /// batched: one release can resume many suspended allocations, and
    /// `Reply::send_batch` coalesces their frames into a single write per
    /// connection instead of a lock/write/flush cycle per wakeup.
    fn dispatch(&self, actions: Vec<ResumeAction>) {
        if actions.is_empty() {
            return;
        }
        let mut socket_batch: Vec<(Reply, Response)> = Vec::new();
        {
            let mut waiters = self.waiters.lock();
            for action in actions {
                match waiters.remove(&action.ticket) {
                    Some(Waiter::Channel(tx)) => {
                        let _ = tx.send(action.decision);
                    }
                    Some(Waiter::Socket(reply)) => {
                        socket_batch.push((
                            reply,
                            Response::Alloc {
                                decision: action.decision,
                            },
                        ));
                    }
                    // Waiter already gone (connection died): the scheduler
                    // state was cleaned by process_exit/container_close.
                    None => {}
                }
            }
        }
        // Write outside the waiter lock: a slow client must not stall
        // other dispatchers.
        Reply::send_batch(socket_batch);
    }

    /// Answer one request: the one place a wire message becomes a call
    /// on this service. An `alloc_request` parks the calling thread while
    /// the container is suspended, so a socket's connection thread goes
    /// through [`SchedulerService::alloc_request_deferred`] instead (see
    /// [`crate::handler::ServiceHandler`]).
    pub fn call(&self, req: Request) -> Response {
        fn reply<T>(
            result: Result<T, impl std::fmt::Display>,
            ok: impl FnOnce(T) -> Response,
        ) -> Response {
            match result {
                Ok(v) => ok(v),
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        match req {
            Request::Register { container, limit } => {
                reply(self.register(container, limit), |_| Response::Ok)
            }
            Request::RequestDir { container } => {
                reply(self.request_dir(container), |p| Response::Dir {
                    path: p.display().to_string(),
                })
            }
            Request::AllocRequest {
                container,
                pid,
                size,
                api,
            } => reply(
                self.alloc_request_blocking(container, pid, size, api),
                |decision| Response::Alloc { decision },
            ),
            Request::AllocDone {
                container,
                pid,
                addr,
                size,
            } => reply(self.alloc_done(container, pid, addr, size), |()| {
                Response::Ok
            }),
            Request::AllocFailed {
                container,
                pid,
                size,
            } => reply(self.alloc_failed(container, pid, size), |()| Response::Ok),
            Request::Free {
                container,
                pid,
                addr,
            } => reply(self.free(container, pid, addr), |size| Response::Freed {
                size,
            }),
            Request::MemInfo { container, pid } => {
                reply(self.mem_info(container, pid), |(free, total)| {
                    Response::MemInfo { free, total }
                })
            }
            Request::ProcessExit { container, pid } => {
                reply(self.process_exit(container, pid), |()| Response::Ok)
            }
            Request::ContainerClose { container } => {
                reply(self.container_close(container), |()| Response::Ok)
            }
            Request::Ping => Response::Pong,
            Request::QueryMetrics => Response::Metrics {
                text: self.metrics_text(),
            },
            Request::QueryTopology => {
                let (kind, devices) = self.topology();
                Response::Topology { kind, devices }
            }
            Request::QueryHome { container } => match self.query_home(container) {
                Some(p) => Response::Home {
                    node: p.node.unwrap_or_default(),
                    device: p.device as u64,
                },
                None => Response::Error {
                    message: format!("container {container} is not registered"),
                },
            },
            Request::QueryCluster => match self.cluster_status() {
                Some((strategy, nodes)) => Response::Cluster { strategy, nodes },
                None => Response::Error {
                    message: "not a cluster daemon".to_string(),
                },
            },
            Request::Migrate {
                container,
                node,
                limit,
                used,
            } => reply(self.migrate(container, &node, limit, used), |()| {
                Response::Ok
            }),
            Request::QueryMigrations => Response::Migrations {
                records: self.migration_records(),
            },
        }
    }

    /// Register a container with its limit; reports where it was placed.
    pub fn register(&self, container: ContainerId, limit: Bytes) -> Result<Placement, SchedError> {
        // `now` is read under the lock: concurrent connections would
        // otherwise hand the scheduler out-of-order timestamps.
        let mut state = self.state.lock();
        let now = self.clock.now();
        state.register(container, limit, now)
    }

    /// Adopt a migrated container: register it with `limit` and mark
    /// `used` bytes pre-committed in one step — the receiving half of a
    /// migration hand-off. The adoption is appended to this daemon's
    /// migration log (source unknown at this layer, so `from` is empty).
    pub fn adopt(
        &self,
        container: ContainerId,
        limit: Bytes,
        used: Bytes,
    ) -> Result<Placement, SchedError> {
        let placement = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.adopt(container, limit, used, now)?
        };
        self.migrations.lock().push(MigrationRecord {
            container,
            from: String::new(),
            to: placement.node.clone().unwrap_or_default(),
            limit,
            used,
            status: "completed".to_string(),
        });
        Ok(placement)
    }

    /// Handle the `migrate` wire message. The `container == 0` sentinel
    /// with a node name drains that node of the in-process cluster
    /// backend (re-homing every container it hosts onto survivors); any
    /// other container id is an adoption onto this daemon.
    pub fn migrate(
        &self,
        container: ContainerId,
        node: &str,
        limit: Bytes,
        used: Bytes,
    ) -> Result<(), SchedError> {
        if container != ContainerId(0) {
            return self.adopt(container, limit, used).map(|_| ());
        }
        let (records, actions) = {
            let mut state = self.state.lock();
            let TopologyBackend::Cluster(cs) = &mut *state else {
                return Err(SchedError::ProtocolViolation(
                    "migrate: node drain requires a cluster backend".into(),
                ));
            };
            let Some(idx) = cs.names().iter().position(|n| n == node) else {
                return Err(SchedError::ProtocolViolation(format!(
                    "migrate: unknown node {node:?}"
                )));
            };
            let now = self.clock.now();
            let (moves, actions) = cs.migrate_node(idx, now);
            let records: Vec<MigrationRecord> = moves
                .into_iter()
                .map(|m| MigrationRecord {
                    container: m.container,
                    from: cs.names()[m.from].clone(),
                    to: m.to.map(|n| cs.names()[n].clone()).unwrap_or_default(),
                    limit: m.limit,
                    used: m.used,
                    status: if m.to.is_some() {
                        "completed".to_string()
                    } else {
                        "rejected".to_string()
                    },
                })
                .collect();
            (records, actions)
        };
        {
            let mut log = self.migrations.lock();
            records.into_iter().for_each(|r| log.push(r));
        }
        self.dispatch(actions);
        Ok(())
    }

    /// The migrations this daemon still has on record (the newest ones),
    /// oldest first.
    pub fn migration_records(&self) -> Vec<MigrationRecord> {
        self.migrations.lock().records()
    }

    /// Create (if needed) and return the container's volume directory,
    /// with the daemon's socket linked and the wrapper-module file
    /// "copied" into it (paper §III-D: the scheduler "creates a directory
    /// to share the volume with the container, builds a UNIX socket
    /// inside the directory, and copies the wrapper module to the
    /// directory"). The socket is a hard link to the one listener on
    /// [`SchedulerService::daemon_socket`] — a hard link, not a symlink,
    /// so it still resolves inside a bind mount; a service nobody bound
    /// that socket for (in-process transport) links nothing.
    /// [`SchedulerService::container_close`] removes the directory.
    pub fn request_dir(&self, container: ContainerId) -> std::io::Result<PathBuf> {
        use std::io::ErrorKind::{AlreadyExists, NotFound};
        let dir = self.base_dir.join(container.to_string());
        std::fs::create_dir_all(&dir)?;
        self.volumes.lock().insert(container);
        let (listener, link) = (self.daemon_socket(), self.socket_path(container));
        match std::fs::hard_link(&listener, &link) {
            // Asked twice, or left behind by an earlier daemon on this
            // `base_dir`: the link must name the *live* listener.
            Err(e) if e.kind() == AlreadyExists => {
                std::fs::remove_file(&link)?;
                std::fs::hard_link(&listener, &link)?;
            }
            // `NotFound`: no listener to link (in-process transport).
            Err(e) if e.kind() != NotFound => return Err(e),
            _ => {}
        }
        let module = dir.join("libgpushare.so");
        if !module.exists() {
            std::fs::write(
                &module,
                b"convgpu wrapper module placeholder (simulated shared library)\n",
            )?;
        }
        Ok(dir)
    }

    /// Where the daemon's one listener lives: `<base_dir>/convgpu.sock`.
    /// Operators dial it directly; containers reach it through the link
    /// in their volume ([`SchedulerService::socket_path`]).
    pub fn daemon_socket(&self) -> PathBuf {
        self.base_dir.join(SOCKET_NAME)
    }

    /// Socket path inside a container directory.
    pub fn socket_path(&self, container: ContainerId) -> PathBuf {
        self.base_dir.join(container.to_string()).join(SOCKET_NAME)
    }

    /// Blocking allocation request (in-process path): parks the calling
    /// thread while suspended.
    pub fn alloc_request_blocking(
        &self,
        container: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
    ) -> Result<AllocDecision, SchedError> {
        let (wait_rx, actions) = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            let (outcome, actions) = state.alloc_request(container, pid, size, api, now)?;
            let wait_rx = match outcome {
                AllocOutcome::Granted => Some(Ok(AllocDecision::Granted)),
                AllocOutcome::Rejected => Some(Ok(AllocDecision::Rejected)),
                AllocOutcome::Suspended { ticket } => {
                    let (tx, rx) = sync_channel(1);
                    // Park under the scheduler lock so no resume can race
                    // ahead of the registration.
                    self.waiters.lock().insert(ticket, Waiter::Channel(tx));
                    let _ = tx; // moved into the map
                    None.or(Some(Err(rx)))
                }
            };
            (wait_rx, actions)
        };
        // Side-effect resumes first (they cannot contain our ticket).
        self.dispatch(actions);
        match wait_rx {
            Some(Ok(decision)) => Ok(decision),
            Some(Err(rx)) => {
                // Blocked: this is the container "pausing its execution".
                rx.recv().map_err(|_| {
                    SchedError::ProtocolViolation("scheduler dropped a suspended request".into())
                })
            }
            None => unreachable!(),
        }
    }

    /// Deferred allocation request (socket path): replies immediately or
    /// parks the [`Reply`].
    pub fn alloc_request_deferred(
        &self,
        container: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        reply: Reply,
    ) {
        // Decide under the state lock, but send only after it (and the
        // waiter lock) are released — a blocked peer must never be able
        // to wedge a scheduler lock through a full socket buffer. The
        // suspended arm parks the `Reply` instead of answering.
        let (to_send, actions) = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            match state.alloc_request(container, pid, size, api, now) {
                Ok((AllocOutcome::Granted, actions)) => (
                    Some((
                        reply,
                        Response::Alloc {
                            decision: AllocDecision::Granted,
                        },
                    )),
                    actions,
                ),
                Ok((AllocOutcome::Rejected, actions)) => (
                    Some((
                        reply,
                        Response::Alloc {
                            decision: AllocDecision::Rejected,
                        },
                    )),
                    actions,
                ),
                Ok((AllocOutcome::Suspended { ticket }, actions)) => {
                    self.waiters.lock().insert(ticket, Waiter::Socket(reply));
                    (None, actions)
                }
                Err(e) => (
                    Some((
                        reply,
                        Response::Error {
                            message: e.to_string(),
                        },
                    )),
                    Vec::new(),
                ),
            }
        };
        if let Some((reply, response)) = to_send {
            reply.send(response);
        }
        self.dispatch(actions);
    }

    /// Record a completed device allocation.
    pub fn alloc_done(
        &self,
        container: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
    ) -> Result<(), SchedError> {
        let mut state = self.state.lock();
        let now = self.clock.now();
        state.alloc_done(container, pid, addr, size, now)
    }

    /// Release a reservation whose device allocation failed.
    pub fn alloc_failed(
        &self,
        container: ContainerId,
        pid: u64,
        size: Bytes,
    ) -> Result<(), SchedError> {
        let actions = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.alloc_failed(container, pid, size, now)?
        };
        self.dispatch(actions);
        Ok(())
    }

    /// Record a free; may resume the container's own parked requests.
    pub fn free(&self, container: ContainerId, pid: u64, addr: u64) -> Result<Bytes, SchedError> {
        let (freed, actions) = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.free(container, pid, addr, now)?
        };
        self.dispatch(actions);
        Ok(freed)
    }

    /// Serve `cudaMemGetInfo` from the books.
    pub fn mem_info(&self, container: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        self.state.lock().mem_info(container, pid)
    }

    /// Process exit: reclaim the pid's memory.
    pub fn process_exit(&self, container: ContainerId, pid: u64) -> Result<(), SchedError> {
        let actions = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.process_exit(container, pid, now)?
        };
        self.dispatch(actions);
        Ok(())
    }

    /// Container close: release everything and redistribute. The volume
    /// directory `request_dir` made goes first (outside the state lock),
    /// so whoever sees the container `Closed` also sees it gone; a
    /// container that never asked for one costs a set lookup, no syscall.
    /// Best effort: a close does not fail over a file already missing.
    pub fn container_close(&self, container: ContainerId) -> Result<(), SchedError> {
        if self.volumes.lock().remove(&container) {
            let _ = std::fs::remove_dir_all(self.base_dir.join(container.to_string()));
        }
        let actions = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.container_close(container, now)?
        };
        self.dispatch(actions);
        Ok(())
    }
}

/// The service called in-process, as one more transport — used by tests,
/// the transport ablation bench, and the `TransportMode::InProc` stack.
/// An `alloc_request` parks the calling thread while the container is
/// suspended.
pub struct InProcEndpoint {
    service: Arc<SchedulerService>,
}

impl InProcEndpoint {
    /// Wrap `service`.
    pub fn new(service: Arc<SchedulerService>) -> Self {
        InProcEndpoint { service }
    }
}

impl Transact for InProcEndpoint {
    fn transact(&self, req: Request) -> IpcResult<Response> {
        Ok(self.service.call(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_ipc::endpoint::{IpcError, SchedulerEndpoint};
    use convgpu_scheduler::core::SchedulerConfig;
    use convgpu_scheduler::policy::PolicyKind;
    use convgpu_sim_core::clock::RealClock;
    use std::time::Duration;

    fn service(capacity_mib: u64) -> Arc<SchedulerService> {
        let dir = std::env::temp_dir().join(format!(
            "convgpu-service-test-{}-{}",
            std::process::id(),
            capacity_mib
        ));
        Arc::new(SchedulerService::new(
            Scheduler::new(
                SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
                PolicyKind::Fifo.build(0),
            ),
            RealClock::handle(),
            dir,
        ))
    }

    #[test]
    fn request_dir_creates_module_file() {
        let svc = service(5120);
        svc.register(ContainerId(1), Bytes::mib(256)).unwrap();
        let dir = svc.request_dir(ContainerId(1)).unwrap();
        assert!(dir.join("libgpushare.so").exists());
        assert!(svc
            .socket_path(ContainerId(1))
            .to_string_lossy()
            .ends_with("cnt-0001/convgpu.sock"));
    }

    #[test]
    fn request_dir_links_the_listener_and_close_removes_the_volume() {
        use convgpu_ipc::transport::{Conn, EndpointAddr, TransportListener};
        use std::os::unix::fs::MetadataExt;
        let svc = service(5121);
        let listener = TransportListener::bind(&svc.daemon_socket().into()).unwrap();
        let inode = std::fs::metadata(svc.daemon_socket()).unwrap().ino();
        svc.register(ContainerId(1), Bytes::mib(256)).unwrap();
        // Asked twice: same directory, same single link to the listener.
        let dir = svc.request_dir(ContainerId(1)).unwrap();
        assert_eq!(svc.request_dir(ContainerId(1)).unwrap(), dir);
        let link = svc.socket_path(ContainerId(1));
        assert_eq!(std::fs::metadata(&link).unwrap().ino(), inode);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        // A link left by an earlier daemon is re-pointed at the live one.
        std::fs::remove_file(&link).unwrap();
        std::fs::write(&link, b"stale").unwrap();
        svc.request_dir(ContainerId(1)).unwrap();
        assert_eq!(std::fs::metadata(&link).unwrap().ino(), inode);
        Conn::connect(&EndpointAddr::from(link)).unwrap();

        svc.container_close(ContainerId(1)).unwrap();
        assert!(!dir.exists());
        assert!(svc.daemon_socket().exists());
        // A second close finds no volume and is the scheduler's business.
        let _ = svc.container_close(ContainerId(1));
        drop(listener);
        std::fs::remove_file(svc.daemon_socket()).unwrap();
    }

    #[test]
    fn blocking_suspension_resumes_on_close() {
        let svc = service(1200);
        svc.register(ContainerId(1), Bytes::mib(1000)).unwrap();
        svc.register(ContainerId(2), Bytes::mib(1000)).unwrap();
        assert_eq!(
            svc.alloc_request_blocking(ContainerId(1), 1, Bytes::mib(1000), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        let svc2 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || {
            svc2.alloc_request_blocking(ContainerId(2), 2, Bytes::mib(1000), ApiKind::Malloc)
        });
        // Give the waiter time to park.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "request must be suspended");
        svc.container_close(ContainerId(1)).unwrap();
        let decision = waiter.join().unwrap().unwrap();
        assert_eq!(decision, AllocDecision::Granted);
        svc.with_scheduler(|s| s.check_invariants().unwrap());
    }

    #[test]
    fn a_full_migration_log_fits_a_frame_in_both_codecs() {
        use convgpu_ipc::binary::{encode_with, WireCodec, MAX_FRAME_BYTES};
        use convgpu_ipc::message::Envelope;
        // The widest record the bound allows for: 20-digit numbers and
        // 60-byte node names.
        let widest = |i: u64| MigrationRecord {
            container: ContainerId(u64::MAX - i),
            from: "f".repeat(60),
            to: "t".repeat(60),
            limit: Bytes::new(u64::MAX),
            used: Bytes::new(u64::MAX),
            status: "completed".to_string(),
        };
        let mut log = MigrationLog::default();
        let pushed = MigrationLog::KEPT as u64 + 10;
        (0..pushed).for_each(|i| log.push(widest(i)));
        let kept = log.records();
        assert_eq!(kept.len(), MigrationLog::KEPT);
        assert_eq!(kept[0], widest(10), "the oldest records go first");
        assert_eq!(kept[kept.len() - 1], widest(pushed - 1));
        assert_eq!(
            MigrationLog::newest((0..pushed).map(widest).collect()),
            kept,
            "a drain's reply is cut the same way"
        );
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let reply = Envelope {
                id: u64::MAX,
                body: Response::Migrations {
                    records: kept.clone(),
                },
            };
            let frame = encode_with(&reply, codec);
            assert!(frame.len() <= MAX_FRAME_BYTES, "{codec:?}: {}", frame.len());
        }
    }

    #[test]
    fn endpoint_maps_errors() {
        let svc = service(1000);
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        // Unregistered container → Scheduler error, not a panic.
        let err = ep
            .request_alloc(ContainerId(9), 1, Bytes::mib(1), ApiKind::Malloc)
            .unwrap_err();
        assert!(matches!(err, IpcError::Scheduler(_)));
        ep.register(ContainerId(1), Bytes::mib(100)).unwrap();
        assert!(matches!(
            ep.register(ContainerId(1), Bytes::mib(100)).unwrap_err(),
            IpcError::Scheduler(_)
        ));
        ep.ping().unwrap();
    }

    #[test]
    fn endpoint_full_cycle() {
        let svc = service(5120);
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        ep.register(ContainerId(1), Bytes::mib(512)).unwrap();
        let d = ep
            .request_alloc(ContainerId(1), 1, Bytes::mib(128), ApiKind::Malloc)
            .unwrap();
        assert_eq!(d, AllocDecision::Granted);
        ep.alloc_done(ContainerId(1), 1, 0xABC, Bytes::mib(128))
            .unwrap();
        assert_eq!(ep.free(ContainerId(1), 1, 0xABC).unwrap(), Bytes::mib(128));
        let (free, total) = ep.mem_info(ContainerId(1), 1).unwrap();
        assert_eq!(total, Bytes::mib(512));
        // The context charge is budgeted on top of the limit, so the
        // container sees its full limit free again after the free().
        assert_eq!(free, Bytes::mib(512));
        ep.process_exit(ContainerId(1), 1).unwrap();
        ep.container_close(ContainerId(1)).unwrap();
    }
}
