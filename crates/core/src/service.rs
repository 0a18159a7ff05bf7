//! The live scheduler service.
//!
//! Wraps the pure [`Scheduler`] state machine with what the Go daemon had:
//! a lock ("each step is protected by a mutex lock to prevent the race
//! condition", §III-D), a clock, the per-container volume directories, and
//! the **waiter table** that realizes suspension: a suspended request's
//! reply handle is parked under its ticket and fired when a later event
//! produces the matching [`ResumeAction`].
//!
//! [`SchedulerService::serve`] is the process's one function from a
//! request to its answer: the socket handler
//! ([`crate::handler::ServiceHandler`]) and the in-process endpoint
//! ([`InProcEndpoint`]) both answer a [`Request`] with it, each handing
//! it a [`Reply`] — so a parked waiter is always a `Reply`.

use convgpu_ipc::endpoint::{IpcError, IpcResult, Transact};
use convgpu_ipc::message::{Request, Response};
use convgpu_ipc::server::Reply;
use convgpu_ipc::transport;
use convgpu_obs::{chrome, prometheus, Registry, RingSink, SpanSink, Tracer};
use convgpu_scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu_scheduler::core::{ResumeAction, SchedObs, Scheduler};
use convgpu_scheduler::node::{self, Answer};
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the daemon's socket, and of its link in a volume.
const SOCKET_NAME: &str = "convgpu.sock";

/// File name of the wrapper module in a volume.
const MODULE_NAME: &str = "libgpushare.so";

/// Closed containers' volumes kept for reuse, each renamed to
/// `<base_dir>/.spare-<id>`. Steady traffic needs one per container open
/// at once; what a burst closed beyond this is removed.
pub const SPARE_VOLUMES: usize = 8;

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
    /// Suspended allocations' replies, by ticket.
    waiters: Mutex<HashMap<u64, Reply>>,
    base_dir: PathBuf,
    /// Containers whose volume directory [`SchedulerService::request_dir`]
    /// made and their `container_close` has yet to remove.
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

    /// Answer one request: the one place a wire message becomes a change
    /// of the books, whoever sent it. `request_dir` and `query_metrics`
    /// are answered here; every other kind is [`node::on`] under the
    /// scheduler lock, with the clock read under it too (concurrent
    /// connections would otherwise hand the scheduler out-of-order
    /// timestamps). A suspended `alloc_request` parks `reply` under its
    /// ticket, and a later release sends it; every other request is
    /// answered before this returns, in the order `on` gives. Nothing is
    /// sent under a lock: a blocked peer must never be able to wedge a
    /// scheduler lock through a full socket buffer.
    pub fn serve(&self, req: Request, reply: Reply) {
        match req {
            Request::RequestDir { container } => {
                return reply.send(match self.request_dir(container) {
                    Ok(path) => Response::Dir {
                        path: path.display().to_string(),
                    },
                    Err(e) => node::error(e),
                })
            }
            Request::QueryMetrics => {
                let text = self.metrics_text();
                return reply.send(Response::Metrics { text });
            }
            // The volume goes first, outside the state lock, so whoever
            // sees the container `Closed` also sees its name gone; a
            // container that never asked for one costs a set lookup, no
            // syscall. Best effort: a close does not fail over a file
            // already missing.
            Request::ContainerClose { container } if self.volumes.lock().remove(&container) => {
                self.retire_volume(container)
            }
            _ => {}
        }
        let (answer, resumes, answer_first) = {
            let mut state = self.state.lock();
            let now = self.clock.now();
            let step = node::on(&mut *state, req, now);
            let answer = match step.answer {
                Answer::Now(response) => Some((reply, response)),
                // Parked under the scheduler lock, so no resume can race
                // ahead of the registration.
                Answer::Parked(ticket) => {
                    self.waiters.lock().insert(ticket, reply);
                    None
                }
            };
            (answer, step.resumes, step.answer_first)
        };
        let (first, last) = if answer_first {
            (answer, None)
        } else {
            (None, answer)
        };
        if let Some((reply, response)) = first {
            reply.send(response);
        }
        self.dispatch(resumes);
        if let Some((reply, response)) = last {
            reply.send(response);
        }
    }

    /// Deliver resume actions to their parked replies. One release can
    /// resume many suspended allocations, and `Reply::send_batch`
    /// coalesces their frames into a single write per connection instead
    /// of a lock/write/flush cycle per wakeup.
    fn dispatch(&self, actions: Vec<ResumeAction>) {
        if actions.is_empty() {
            return;
        }
        let alloc = |decision| Response::Alloc { decision };
        let batch: Vec<(Reply, Response)> = {
            let mut waiters = self.waiters.lock();
            actions
                .into_iter()
                // No reply under the ticket: nothing is left to answer,
                // and process_exit / container_close cleaned the
                // scheduler state.
                .filter_map(|action| {
                    let reply = waiters.remove(&action.ticket)?;
                    Some((reply, alloc(action.decision)))
                })
                .collect()
        };
        // Written outside the waiter lock: a slow client must not stall
        // other dispatchers.
        Reply::send_batch(batch);
    }

    /// Create (if needed) and return the container's volume directory,
    /// with the daemon's socket linked and the wrapper-module file
    /// "copied" into it (paper §III-D: the scheduler "creates a directory
    /// to share the volume with the container, builds a UNIX socket
    /// inside the directory, and copies the wrapper module to the
    /// directory"). The socket is a hard link to the one listener on
    /// [`SchedulerService::daemon_socket`] — a hard link, not a symlink,
    /// so it still resolves inside a bind mount; a service nobody bound
    /// that socket for (one called only in process) links nothing. A link no
    /// client could dial (a path too long for a socket address) is
    /// refused with `InvalidInput` before anything is made.
    /// The container's `container_close` takes the directory off the
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
            // `NotFound`: no listener at `<base_dir>/convgpu.sock` — a
            // service called only in-process, or served on another
            // endpoint.
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

/// The service called in-process, with no socket between: the front
/// end's own channel to its scheduler (nvidia-docker's `register` and
/// the volume driver's `close`), the experiment harnesses, and
/// tests. Each request is served with an in-process [`Reply`]; an
/// `alloc_request` parks the calling thread on it while the container is
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
        let (reply, answer) = Reply::in_process();
        self.service.serve(req, reply);
        answer.recv().map_err(|_| IpcError::Disconnected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_ipc::endpoint::{IpcError, SchedulerEndpoint};
    use convgpu_ipc::message::{AllocDecision, ApiKind};
    use convgpu_scheduler::core::SchedulerConfig;
    use convgpu_scheduler::policy::PolicyKind;
    use convgpu_sim_core::clock::RealClock;
    use convgpu_sim_core::units::Bytes;
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
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        ep.register(ContainerId(1), Bytes::mib(256)).unwrap();
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
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        ep.register(ContainerId(1), Bytes::mib(256)).unwrap();
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

        ep.container_close(ContainerId(1)).unwrap();
        assert!(!dir.exists());
        assert!(svc.daemon_socket().exists());
        // A second close finds no volume and is the scheduler's business.
        let _ = ep.container_close(ContainerId(1));
        drop(listener);
        std::fs::remove_file(svc.daemon_socket()).unwrap();
    }

    #[test]
    fn a_closed_volume_is_renamed_into_the_next_one_and_spares_are_capped() {
        use convgpu_ipc::transport::TransportListener;
        use std::os::unix::fs::MetadataExt;
        let svc = service(5122);
        let ep = InProcEndpoint::new(Arc::clone(&svc));
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
            ep.register(ContainerId(id), Bytes::mib(64)).unwrap();
            svc.request_dir(ContainerId(id)).unwrap()
        };
        let inode = std::fs::metadata(open(1)).unwrap().ino();
        ep.container_close(ContainerId(1)).unwrap();
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
        ep.container_close(ContainerId(2)).unwrap();
        assert!(!dir.exists());
        assert_eq!(spares(), Vec::<String>::new());
        // A burst of closes keeps at most SPARE_VOLUMES of them.
        let burst = 3..3 + SPARE_VOLUMES as u64 + 2;
        burst.clone().for_each(|id| drop(open(id)));
        for id in burst {
            ep.container_close(ContainerId(id)).unwrap();
            assert!(!volume(id).exists());
        }
        assert_eq!(spares().len(), SPARE_VOLUMES);
        // They go with the service.
        let base = svc.base_dir().to_path_buf();
        drop((ep, svc));
        assert_eq!(std::fs::read_dir(&base).unwrap().count(), 1);
        drop(listener);
        std::fs::remove_dir_all(base).unwrap();
    }

    #[test]
    fn blocking_suspension_resumes_on_close() {
        let svc = service(1200);
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        ep.register(ContainerId(1), Bytes::mib(1000)).unwrap();
        ep.register(ContainerId(2), Bytes::mib(1000)).unwrap();
        assert_eq!(
            ep.request_alloc(ContainerId(1), 1, Bytes::mib(1000), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        let ep2 = InProcEndpoint::new(Arc::clone(&svc));
        let waiter = std::thread::spawn(move || {
            ep2.request_alloc(ContainerId(2), 2, Bytes::mib(1000), ApiKind::Malloc)
        });
        // Give the waiter time to park.
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "request must be suspended");
        ep.container_close(ContainerId(1)).unwrap();
        let decision = waiter.join().unwrap().unwrap();
        assert_eq!(decision, AllocDecision::Granted);
        svc.with_scheduler(|s| s.check_invariants().unwrap());
    }

    /// One release resumes an in-process waiter and two socket waiters
    /// parked on one connection. Each gets exactly one answer, with its
    /// own decision: the container's stacked second request overruns
    /// its limit once the first is granted.
    #[test]
    fn one_release_answers_in_process_and_socket_waiters_once_each() {
        use crate::handler::ServiceHandler;
        use convgpu_ipc::codec::{read_json, write_json};
        use convgpu_ipc::message::Envelope;
        use convgpu_ipc::server::SocketServer;
        use convgpu_ipc::transport::{Conn, EndpointAddr};
        use std::io::BufReader;
        let svc = service(1203);
        std::fs::create_dir_all(svc.base_dir()).unwrap();
        let server = SocketServer::bind(
            &svc.daemon_socket(),
            Arc::new(ServiceHandler::new(Arc::clone(&svc))),
        )
        .unwrap();
        let ep = InProcEndpoint::new(Arc::clone(&svc));
        let (a, b, c) = (ContainerId(1), ContainerId(2), ContainerId(3));
        ep.register(a, Bytes::mib(1000)).unwrap();
        ep.register(b, Bytes::mib(500)).unwrap();
        ep.register(c, Bytes::mib(200)).unwrap();
        let granted = |d| Response::Alloc { decision: d };
        assert_eq!(
            ep.request_alloc(a, 1, Bytes::mib(1000), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        let parked = |id: ContainerId, n: usize| {
            while svc.with_scheduler(|s| s.container(id).unwrap().pending.len()) < n {
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        // Two socket waiters on one connection: b's 300 MiB, then a
        // second 300 MiB stacked behind it.
        let mut conn = Conn::connect(&EndpointAddr::from(svc.daemon_socket())).unwrap();
        let mut frames = BufReader::new(conn.try_clone().unwrap());
        for id in 1..=2 {
            let body = Request::AllocRequest {
                container: b,
                pid: 2,
                size: Bytes::mib(300),
                api: ApiKind::Malloc,
            };
            write_json(&mut conn, &Envelope { id, body }).unwrap();
            parked(b, id as usize);
        }
        // The in-process waiter.
        let ep_c = InProcEndpoint::new(Arc::clone(&svc));
        let waiter =
            std::thread::spawn(move || ep_c.request_alloc(c, 3, Bytes::mib(100), ApiKind::Malloc));
        parked(c, 1);

        ep.container_close(a).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), AllocDecision::Granted);
        let mut answers: Vec<(u64, Response)> = (0..2)
            .map(|_| {
                let env: Envelope<Response> = read_json(&mut frames).unwrap().unwrap();
                (env.id, env.body)
            })
            .collect();
        answers.sort_by_key(|(id, _)| *id);
        assert_eq!(
            answers,
            [
                (1, granted(AllocDecision::Granted)),
                (2, granted(AllocDecision::Rejected)),
            ]
        );
        // Nothing else was written for them, and nobody is left parked.
        let ping = Envelope {
            id: 3,
            body: Request::Ping,
        };
        write_json(&mut conn, &ping).unwrap();
        let env: Envelope<Response> = read_json(&mut frames).unwrap().unwrap();
        assert_eq!((env.id, env.body), (3, Response::Pong));
        assert!(svc.waiters.lock().is_empty());
        svc.with_scheduler(|s| s.check_invariants().unwrap());
        drop((conn, frames));
        server.shutdown();
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
        let ep3 = InProcEndpoint::new(Arc::clone(&svc));
        let waiter =
            std::thread::spawn(move || ep3.request_alloc(c3, 3, Bytes::mib(300), ApiKind::Malloc));
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
        let Ok(Response::Metrics { .. }) = ep.transact(Request::QueryMetrics) else {
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
