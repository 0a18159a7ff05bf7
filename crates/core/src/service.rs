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
use convgpu_ipc::message::{AllocDecision, ApiKind, Request, Response, TopologyDevice};
use convgpu_ipc::server::Reply;
use convgpu_ipc::transport;
use convgpu_obs::{chrome, prometheus, Registry, RingSink, SpanSink, Tracer};
use convgpu_scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu_scheduler::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler};
use convgpu_scheduler::multi_gpu::DeviceIndex;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::units::Bytes;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

/// File name of the daemon's socket, and of its link in a volume.
const SOCKET_NAME: &str = "convgpu.sock";

/// File name of the wrapper module in a volume.
const MODULE_NAME: &str = "libgpushare.so";

/// Closed containers' volumes kept for reuse, each renamed to
/// `<base_dir>/.spare-<id>`. Steady traffic needs one per container open
/// at once; what a burst closed beyond this is removed.
pub const SPARE_VOLUMES: usize = 8;

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

/// The live scheduler service shared by every connection and thread.
///
/// Since the topology refactor the service is **backend-agnostic**: it
/// stores a [`TopologyBackend`] and speaks only the [`SchedulerBackend`]
/// trait, so a single-GPU and a multi-GPU host are served by the same
/// waiter table and IPC stack. Tickets are globally unique across devices
/// (the multi-GPU backend tags the high bits), so suspension plumbing is
/// topology-blind. A cluster is a router in front of such daemons
/// ([`crate::router`]).
pub struct SchedulerService {
    clock: ClockHandle,
    state: Mutex<TopologyBackend>,
    waiters: Mutex<HashMap<u64, Waiter>>,
    base_dir: PathBuf,
    /// Containers whose volume directory [`SchedulerService::request_dir`]
    /// made and [`SchedulerService::container_close`] has yet to remove.
    volumes: Mutex<HashSet<ContainerId>>,
    /// Closed containers' volumes, links in place, for `request_dir` to
    /// rename into the next container's; at most [`SPARE_VOLUMES`].
    spares: Mutex<Vec<PathBuf>>,
    obs: Arc<ObsHub>,
}

impl SchedulerService {
    /// Wrap a single-GPU `scheduler`, serving per-container directories
    /// under `base_dir` (created on demand). The service always carries
    /// an [`ObsHub`] and attaches it to the scheduler.
    pub fn new(scheduler: Scheduler, clock: ClockHandle, base_dir: PathBuf) -> Self {
        Self::new_with_backend(TopologyBackend::Single(scheduler), clock, base_dir)
    }

    /// Wrap an arbitrary topology backend (single- or multi-GPU host).
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
            spares: Mutex::new(Vec::new()),
            obs,
        }
    }

    /// The observability hub shared across the middleware layers.
    pub fn obs(&self) -> &Arc<ObsHub> {
        &self.obs
    }

    /// Current metrics in Prometheus text exposition format. Writes the
    /// scheduler's gauges first, under the scheduler lock: its books and
    /// a fresh stall assessment (no transition writes a gauge).
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

    /// Run a closure over the locked primary device scheduler (device 0)
    /// — the legacy single-device introspection surface.
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
                node: String::new(),
                device: d.device as u64,
                capacity: d.capacity,
                unassigned: d.unassigned,
                containers: d.open_containers as u64,
                policy: d.policy,
            })
            .collect();
        (state.topology_kind().to_string(), devices)
    }

    /// A container's home device, if it is registered.
    pub fn query_home(&self, container: ContainerId) -> Option<DeviceIndex> {
        self.state.lock().home_of(container)
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
                Some(device) => Response::Home {
                    node: String::new(),
                    device: device as u64,
                },
                None => Response::Error {
                    message: format!("container {container} is not registered"),
                },
            },
            // Clusters are the router's; nothing answers the retired
            // migration kinds.
            Request::QueryCluster | Request::Migrate { .. } | Request::QueryMigrations => {
                Response::Error {
                    message: "not a cluster daemon".to_string(),
                }
            }
        }
    }

    /// Register a container with its limit; reports the device it was
    /// placed on.
    pub fn register(
        &self,
        container: ContainerId,
        limit: Bytes,
    ) -> Result<DeviceIndex, SchedError> {
        // `now` is read under the lock: concurrent connections would
        // otherwise hand the scheduler out-of-order timestamps.
        let mut state = self.state.lock();
        let now = self.clock.now();
        state.register(container, limit, now)
    }

    /// Create (if needed) and return the container's volume directory,
    /// with the daemon's socket linked and the wrapper-module file
    /// "copied" into it (paper §III-D: the scheduler "creates a directory
    /// to share the volume with the container, builds a UNIX socket
    /// inside the directory, and copies the wrapper module to the
    /// directory"). The socket is a hard link to the one listener on
    /// [`SchedulerService::daemon_socket`] — a hard link, not a symlink,
    /// so it still resolves inside a bind mount; a service nobody bound
    /// that socket for (in-process transport) links nothing. A link no
    /// client could dial (a path too long for a socket address) is
    /// refused with `InvalidInput` before anything is made.
    /// [`SchedulerService::container_close`] takes the directory off the
    /// container's name. A first request renames a closed container's
    /// spare volume into place when there is one: a directory and two
    /// links made and removed per container were most of a lifecycle's
    /// file-system work, on a disk filesystem the bulk of its creation.
    pub fn request_dir(&self, container: ContainerId) -> std::io::Result<PathBuf> {
        use std::io::ErrorKind::{AlreadyExists, NotFound};
        let (listener, link) = (self.daemon_socket(), self.socket_path(container));
        if let Err(e) = transport::check_socket_path(&link) {
            if listener.exists() {
                return Err(e);
            }
        }
        let dir = self.base_dir.join(container.to_string());
        if self.volumes.lock().insert(container) {
            let spare = self.spares.lock().pop();
            if let Some(spare) = spare {
                if std::fs::rename(&spare, &dir).is_ok() {
                    return Ok(dir);
                }
                // Its name was taken (a directory an earlier daemon left).
                let _ = std::fs::remove_dir_all(&spare);
            }
        }
        std::fs::create_dir_all(&dir)?;
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
        let module = dir.join(MODULE_NAME);
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
    /// so whoever sees the container `Closed` also sees its name gone; a
    /// container that never asked for one costs a set lookup, no syscall.
    /// Best effort: a close does not fail over a file already missing.
    pub fn container_close(&self, container: ContainerId) -> Result<(), SchedError> {
        if self.volumes.lock().remove(&container) {
            self.retire_volume(container);
        }
        let actions = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            state.container_close(container, now)?
        };
        self.dispatch(actions);
        Ok(())
    }

    /// Take the closed `container`'s volume off its name: kept as a spare
    /// when it holds just the socket link and the module, as
    /// `request_dir` made it, and fewer than [`SPARE_VOLUMES`] are kept;
    /// else removed.
    fn retire_volume(&self, container: ContainerId) {
        let dir = self.base_dir.join(container.to_string());
        let names = std::fs::read_dir(&dir).and_then(|entries| {
            entries
                .map(|e| Ok(e?.file_name()))
                .collect::<std::io::Result<Vec<_>>>()
        });
        let as_made = names.is_ok_and(|names| {
            names.len() == 2 && names.iter().all(|n| n == SOCKET_NAME || n == MODULE_NAME)
        });
        if as_made {
            let mut spares = self.spares.lock();
            let spare = self.base_dir.join(format!(".spare-{container}"));
            if spares.len() < SPARE_VOLUMES && std::fs::rename(&dir, &spare).is_ok() {
                spares.push(spare);
                return;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Spare volumes go with the service that kept them.
impl Drop for SchedulerService {
    fn drop(&mut self) {
        for spare in self.spares.get_mut().drain(..) {
            let _ = std::fs::remove_dir_all(spare);
        }
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
    fn a_closed_volume_is_renamed_into_the_next_one_and_spares_are_capped() {
        use convgpu_ipc::transport::TransportListener;
        use std::os::unix::fs::MetadataExt;
        let svc = service(5122);
        let listener = TransportListener::bind(&svc.daemon_socket().into()).unwrap();
        let volume = |id: u64| svc.base_dir().join(ContainerId(id).to_string());
        let spares = || {
            let mut names: Vec<String> = std::fs::read_dir(svc.base_dir())
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|n| n.starts_with(".spare-"))
                .collect();
            names.sort();
            names
        };
        let open = |id: u64| {
            svc.register(ContainerId(id), Bytes::mib(64)).unwrap();
            svc.request_dir(ContainerId(id)).unwrap()
        };
        let inode = std::fs::metadata(open(1)).unwrap().ino();
        svc.container_close(ContainerId(1)).unwrap();
        assert!(!volume(1).exists());
        assert_eq!(spares(), [".spare-cnt-0001"]);
        // The next container gets that directory, its links in place.
        let dir = open(2);
        assert_eq!(std::fs::metadata(&dir).unwrap().ino(), inode);
        assert_eq!(spares(), Vec::<String>::new());
        assert_eq!(
            std::fs::metadata(svc.socket_path(ContainerId(2)))
                .unwrap()
                .ino(),
            std::fs::metadata(svc.daemon_socket()).unwrap().ino()
        );
        assert!(dir.join("libgpushare.so").exists());
        // A volume the container wrote into is removed, not kept.
        std::fs::write(dir.join("out.log"), b"ran").unwrap();
        svc.container_close(ContainerId(2)).unwrap();
        assert!(!dir.exists());
        assert_eq!(spares(), Vec::<String>::new());
        // A burst of closes keeps at most SPARE_VOLUMES of them.
        let burst = 3..3 + SPARE_VOLUMES as u64 + 2;
        burst.clone().for_each(|id| drop(open(id)));
        for id in burst {
            svc.container_close(ContainerId(id)).unwrap();
            assert!(!volume(id).exists());
        }
        assert_eq!(spares().len(), SPARE_VOLUMES);
        // They go with the service.
        let base = svc.base_dir().to_path_buf();
        drop(svc);
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 1);
        drop(listener);
        std::fs::remove_dir_all(base).unwrap();
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

    /// No transition writes a `convgpu_sched_*` gauge; a scrape writes
    /// them all from the books, and a closed container has none.
    #[test]
    fn scheduler_gauges_are_written_at_scrape() {
        use convgpu_obs::MetricValue;
        // Room for two full reservations (300 MiB + the 66 MiB context
        // charge) and part of a third.
        let svc = service(1002);
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        let (c1, c2, c3) = (ContainerId(1), ContainerId(2), ContainerId(3));
        for c in [c1, c2, c3] {
            ep.register(c, Bytes::mib(300)).unwrap();
        }
        ep.request_alloc(c1, 1, Bytes::mib(300), ApiKind::Malloc)
            .unwrap();
        ep.alloc_done(c1, 1, 0xA, Bytes::mib(300)).unwrap();
        ep.request_alloc(c2, 2, Bytes::mib(200), ApiKind::Malloc)
            .unwrap();
        ep.alloc_done(c2, 2, 0xB, Bytes::mib(200)).unwrap();
        // c3 parks until c1's close hands it c1's reservation.
        let svc3 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || {
            svc3.alloc_request_blocking(c3, 3, Bytes::mib(300), ApiKind::Malloc)
        });
        while svc.with_scheduler(|s| !s.container(c3).unwrap().is_suspended()) {
            assert!(!waiter.is_finished(), "c3 must park");
            std::thread::sleep(Duration::from_millis(1));
        }
        ep.free(c2, 2, 0xB).unwrap();
        ep.container_close(c1).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), AllocDecision::Granted);

        let sched_gauges = || {
            let snap = svc.obs().registry.snapshot();
            snap.series
                .into_iter()
                .filter(|(k, v)| {
                    k.name.starts_with("convgpu_sched_") && matches!(v, MetricValue::Gauge(_))
                })
                .count()
        };
        assert_eq!(sched_gauges(), 0, "a transition wrote a gauge");
        let Response::Metrics { .. } = svc.call(Request::QueryMetrics) else {
            panic!("query_metrics answers `metrics`");
        };
        let snap = svc.obs().registry.snapshot();
        svc.with_scheduler(|s| {
            let gauge = |name: &str, labels: &[(&str, &str)]| {
                snap.gauge(&format!("convgpu_sched_{name}"), labels)
            };
            let bytes = |b: Bytes| Some(b.as_u64() as f64);
            assert_eq!(gauge("assigned_bytes", &[]), bytes(s.total_assigned()));
            assert_eq!(gauge("unassigned_bytes", &[]), bytes(s.unassigned()));
            for c in [c2, c3] {
                let (rec, id) = (s.container(c).unwrap(), c.to_string());
                let l = [("container", id.as_str())];
                assert_eq!(gauge("container_assigned_bytes", &l), bytes(rec.assigned));
                assert_eq!(gauge("container_used_bytes", &l), bytes(rec.used));
                let episodes = Some(rec.suspend_episodes as f64);
                assert_eq!(gauge("container_suspend_episodes", &l), episodes);
                let suspended = Some(rec.total_suspended.as_secs_f64());
                assert_eq!(gauge("container_suspended_seconds_total", &l), suspended);
            }
            assert_eq!(s.container(c3).unwrap().suspend_episodes, 1);
        });
        let closed = c1.to_string();
        assert!(
            !snap
                .series
                .keys()
                .any(|k| k.labels.iter().any(|(_, v)| *v == closed)),
            "a closed container kept a series"
        );
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
