//! The wrapper side of the socket.
//!
//! [`SchedulerClient`] multiplexes requests over one connection with
//! correlation IDs, and **the thread that waits for a reply is the thread
//! that reads the socket** (leader/followers). A caller registers its id,
//! writes its frame, then takes the connection's read role and reads
//! frames itself: its own reply ends the wait, anybody else's goes into
//! that id's slot. A caller that finds the role taken parks until the
//! leader wakes it — it alone, because its slot was filled or because the
//! leader left and it is next in line for the role. A suspended
//! allocation is therefore a thread blocked in `read(2)` on the
//! container's socket until the scheduler decides to answer — the paper's
//! wrapper, not an analog of it.
//!
//! Reports (`alloc_done`, `alloc_failed`, `free`) go one-way through
//! [`Transact::notify`]: written under envelope id 0, which the server
//! never answers, with no slot and no wait.

use crate::binary::{encode_with, take_auto, WireCodec};
use crate::endpoint::{expect_reply, IpcError, IpcResult, Transact};
use crate::message::{ClusterNodeStatus, Envelope, Request, Response};
use crate::transport::{Conn, EndpointAddr};
use convgpu_obs::catalogue::IPC_CLIENT_RTT;
use convgpu_obs::ObsHook;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::sync::{Mutex, MutexGuard};
use convgpu_sim_core::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Real-time length of one wait round of a deadline caller: the window a
/// live server gets to answer before any virtual time is charged.
const POLL: Duration = Duration::from_millis(1);

/// The read half of the connection. Whoever holds it holds the read role.
///
/// Accumulates bytes in its own buffer so that a timed read expiring
/// mid-frame loses nothing: the partial frame stays in `buf[start..end]`
/// and the next poll carries on from there.
struct FrameReader {
    conn: Conn,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Read timeout last set on the socket. An fd-level option shared with
    /// the write handle, but only the read-role holder reads.
    timeout: Option<Duration>,
}

impl FrameReader {
    fn new(conn: Conn) -> FrameReader {
        FrameReader {
            conn,
            buf: vec![0; 4096],
            start: 0,
            end: 0,
            timeout: None,
        }
    }

    /// Read until one reply frame is complete. `Ok(None)` when `timeout`
    /// expired first; the bytes read so far are kept. EOF is an error: a
    /// client only reads while somebody waits for a reply.
    fn poll_frame(&mut self, timeout: Option<Duration>) -> io::Result<Option<Envelope<Response>>> {
        if timeout != self.timeout {
            self.conn.set_read_timeout(timeout)?;
            self.timeout = timeout;
        }
        loop {
            if let Some(env) = self.take_frame()? {
                return Ok(Some(env));
            }
            if self.end == self.buf.len() {
                if self.start > 0 {
                    self.buf.copy_within(self.start..self.end, 0);
                    self.end -= self.start;
                    self.start = 0;
                } else {
                    // One frame larger than the buffer; `take_auto` has
                    // already bounded it by the frame-size limits.
                    self.buf.resize(self.buf.len() * 2, 0);
                }
            }
            match self.conn.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Decode and consume the frame at the head of the buffer, if all of
    /// it has arrived. Replies arrive in whatever codec each request
    /// used; the first byte tells which.
    fn take_frame(&mut self) -> io::Result<Option<Envelope<Response>>> {
        let Some((env, used)) = take_auto(&self.buf[self.start..self.end])? else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(env))
    }
}

/// Everything the callers of one client share, under one mutex.
struct ClientState {
    /// One slot per request in flight, filled by whichever caller reads
    /// that reply off the socket. A reply to an id with no slot is
    /// dropped: its caller already timed out, or it answers a report
    /// (id 0) from a peer that predates one-way reports.
    slots: HashMap<u64, Option<Response>>,
    /// The read half while nobody reads; `None` while a leader has it.
    reader: Option<FrameReader>,
    /// Set once by the leader that saw EOF, an error or a malformed
    /// frame. Every parked and every later caller gets `Disconnected`.
    dead: bool,
    /// The callers parked behind the leader, longest wait first, each
    /// with an empty slot. Whoever wakes one takes it off the list, so a
    /// follower that finds itself still listed knows nobody woke it.
    parked: Vec<(u64, Thread)>,
}

impl ClientState {
    /// The end of `id`'s wait, if it has been decided: its reply, or the
    /// death of the connection.
    fn settled(&mut self, id: u64) -> Option<IpcResult<Response>> {
        let outcome = match self.slots.get_mut(&id).and_then(Option::take) {
            Some(resp) => Ok(resp),
            None if self.dead => Err(IpcError::Disconnected),
            None => return None,
        };
        self.slots.remove(&id);
        Some(outcome)
    }

    /// Take `id`'s caller off the parked list, if it is on it.
    fn unlist(&mut self, id: u64) -> Option<Thread> {
        let at = self.parked.iter().position(|(parked, _)| *parked == id)?;
        Some(self.parked.remove(at).1)
    }
}

/// The deadline of a bounded request, on the caller's sim clock.
struct Bound<'a> {
    clock: &'a ClockHandle,
    at: SimTime,
    /// Sim-time quantum burned per empty poll round; 8 rounds reach the
    /// deadline under a virtual clock that nothing else advances.
    quantum: SimDuration,
}

impl Bound<'_> {
    /// Close one wait round that began at `before` and brought no reply.
    /// True once the deadline has passed.
    fn expired(&self, before: SimTime, full_poll: bool) -> bool {
        let now = self.clock.now();
        if now >= self.at {
            return true;
        }
        // A wall-backed clock already advanced during the poll —
        // charging the quantum on top would oversleep past a reply that
        // is milliseconds away. Only a clock that stood still (virtual,
        // with no external driver) through a full real-time poll needs
        // the explicit jump to ever reach its deadline.
        if full_poll && now <= before {
            self.clock.sleep(self.quantum);
        }
        false
    }
}

/// A connected protocol client.
///
/// Dropping the client closes the connection, so the server observes the
/// disconnect — a container's socket does not outlive its wrapper module.
pub struct SchedulerClient {
    writer: Mutex<Conn>,
    state: Mutex<ClientState>,
    next_id: AtomicU64,
    codec: WireCodec,
    obs: Option<ObsHook>,
}

impl SchedulerClient {
    /// Connect to the scheduler's UNIX socket at `path`.
    pub fn connect(path: &Path) -> IpcResult<SchedulerClient> {
        SchedulerClient::connect_with_obs(path, None)
    }

    /// Like [`SchedulerClient::connect`], but every round-trip latency is
    /// recorded into `obs` under [`IPC_CLIENT_RTT`]`{type}`. For a
    /// suspended allocation the round trip *is* the suspension: the
    /// histogram's tail is the paper's wait time.
    pub fn connect_with_obs(path: &Path, obs: Option<ObsHook>) -> IpcResult<SchedulerClient> {
        SchedulerClient::connect_with_codec(path, WireCodec::Json, obs)
    }

    /// Connect to a UNIX socket speaking `codec`; see
    /// [`SchedulerClient::connect_endpoint_with_codec`].
    pub fn connect_with_codec(
        path: &Path,
        codec: WireCodec,
        obs: Option<ObsHook>,
    ) -> IpcResult<SchedulerClient> {
        SchedulerClient::connect_endpoint_with_codec(&EndpointAddr::from(path), codec, obs)
    }

    /// Connect to any transport endpoint (`unix:/path` or
    /// `tcp:host:port`), speaking JSON.
    pub fn connect_endpoint(addr: &EndpointAddr) -> IpcResult<SchedulerClient> {
        SchedulerClient::connect_endpoint_with_codec(addr, WireCodec::Json, None)
    }

    /// Connect to any transport endpoint speaking `codec`. No *codec*
    /// handshake: the server detects the codec from each frame's first
    /// byte and answers in kind, so a binary client and a JSON CLI can
    /// share one socket. JSON remains the default everywhere
    /// ([`SchedulerClient::connect`]). A TCP endpoint does complete the
    /// *transport* hello (version check) inside [`Conn::connect`] before
    /// this returns.
    pub fn connect_endpoint_with_codec(
        addr: &EndpointAddr,
        codec: WireCodec,
        obs: Option<ObsHook>,
    ) -> IpcResult<SchedulerClient> {
        let writer = Conn::connect(addr)?;
        let reader = FrameReader::new(writer.try_clone()?);
        Ok(SchedulerClient {
            writer: Mutex::new(writer),
            state: Mutex::new(ClientState {
                slots: HashMap::new(),
                reader: Some(reader),
                dead: false,
                parked: Vec::new(),
            }),
            next_id: AtomicU64::new(1),
            codec,
            obs,
        })
    }

    /// Send `req` and block for the matching response. Blocking may last
    /// arbitrarily long — that is the suspension mechanism.
    pub fn request(&self, req: Request) -> IpcResult<Response> {
        self.round_trip(req, None)
    }

    /// Like [`SchedulerClient::request`], but bounded: fails with
    /// [`IpcError::TimedOut`] once `clock` reports that `deadline` has
    /// elapsed since the send. Progress is measured on the *sim* clock —
    /// under a [`convgpu_sim_core::clock::VirtualClock`] each poll round
    /// advances virtual time by a fraction of the deadline, so timeouts
    /// fire deterministically without real waiting; under a real clock
    /// the short receive polls advance it naturally. A late response to a
    /// timed-out request is discarded by whoever reads it (its slot is
    /// gone).
    ///
    /// Deadlines are for *control-plane* calls. `alloc_request` must stay
    /// unbounded — blocking arbitrarily long **is** the paper's
    /// suspension mechanism — and unblocks via [`IpcError::Disconnected`]
    /// when the peer dies instead.
    pub fn request_deadline(
        &self,
        req: Request,
        clock: &ClockHandle,
        deadline: SimDuration,
    ) -> IpcResult<Response> {
        self.round_trip(req, Some((clock, deadline)))
    }

    fn round_trip(
        &self,
        req: Request,
        deadline: Option<(&ClockHandle, SimDuration)>,
    ) -> IpcResult<Response> {
        let kind = req.kind();
        let sent_at = self.obs.as_ref().map(|o| o.clock.now());
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut st = self.state.lock();
            if st.dead {
                return Err(IpcError::Disconnected);
            }
            st.slots.insert(id, None);
        }
        self.write_frame(&Envelope { id, body: req })?;
        let bound = deadline.map(|(clock, deadline)| Bound {
            clock,
            at: clock.now() + deadline,
            quantum: SimDuration::from_nanos((deadline.as_nanos() / 8).max(1)),
        });
        let received = self.await_reply(id, bound.as_ref());
        if let (Some(o), Some(t0)) = (&self.obs, sent_at) {
            let rtt = o.clock.now().saturating_since(t0);
            o.registry.observe(IPC_CLIENT_RTT, &[("type", kind)], rtt);
        }
        match received {
            Ok(Response::Error { message }) => Err(IpcError::Scheduler(message)),
            other => other,
        }
    }

    /// Write `env` as one frame. On failure, unregister its id (0 has no
    /// slot) and wake whoever that leaves with something to do.
    fn write_frame(&self, env: &Envelope<Request>) -> IpcResult<()> {
        let frame = encode_with(env, self.codec);
        let write_result = {
            let mut w = self.writer.lock();
            w.write_all(&frame).and_then(|()| w.flush())
        };
        let Err(e) = write_result else {
            return Ok(());
        };
        // Nobody reads while nobody waits, so a peer that went away in
        // the meantime is first noticed here.
        let gone = matches!(
            e.kind(),
            io::ErrorKind::BrokenPipe
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::NotConnected
        );
        let mut st = self.state.lock();
        st.dead |= gone;
        self.leave(st, env.id);
        Err(if gone {
            IpcError::Disconnected
        } else {
            IpcError::Io(e)
        })
    }

    /// Wait for the reply to `id`: as the connection's reader if the role
    /// is free, parked until somebody else reads it otherwise. Leaves
    /// `id` unregistered whatever the outcome.
    fn await_reply(&self, id: u64, bound: Option<&Bound<'_>>) -> IpcResult<Response> {
        loop {
            let round = bound.map(|b| (b, b.clock.now()));
            let mut st = self.state.lock();
            // Checked again on every pass, with the role still untaken: a
            // leader may have filled the slot and left before this caller
            // got the lock, and nobody would wake it a second time.
            if let Some(outcome) = st.settled(id) {
                return outcome;
            }
            if let Some(mut reader) = st.reader.take() {
                drop(st);
                let outcome = self.lead(id, &mut reader, bound);
                let mut st = self.state.lock();
                st.dead |= matches!(outcome, Err(IpcError::Disconnected));
                st.reader = Some(reader);
                self.leave(st, id);
                return outcome;
            }
            st.parked.push((id, std::thread::current()));
            drop(st);
            let parked_at = bound.map(|_| Instant::now());
            match bound {
                Some(_) => std::thread::park_timeout(POLL),
                None => std::thread::park(),
            }
            let mut st = self.state.lock();
            // Still listed after a whole poll: nobody woke this caller, its
            // poll ran out. A wake-up before that with the caller still
            // listed is spurious — or a stale token that a reused thread
            // carried over from an earlier job — and no round.
            let full_poll =
                st.unlist(id).is_some() && parked_at.is_some_and(|t| t.elapsed() >= POLL);
            if let Some(outcome) = st.settled(id) {
                return outcome;
            }
            drop(st);
            if round.is_some_and(|(b, before)| b.expired(before, full_poll)) {
                // This caller may be the one the last leader woke to
                // succeed it.
                self.leave(self.state.lock(), id);
                return Err(IpcError::TimedOut);
            }
        }
    }

    /// Unregister `id` at the end of its wait and wake whoever has to act
    /// on the state it leaves behind: everybody once the connection is
    /// dead, else the longest-parked follower if the read role is free —
    /// or nobody reads and everybody hangs.
    fn leave(&self, mut st: MutexGuard<'_, ClientState>, id: u64) {
        st.slots.remove(&id);
        if st.dead {
            let all = std::mem::take(&mut st.parked);
            drop(st);
            all.iter().for_each(|(_, follower)| follower.unpark());
        } else if st.reader.is_some() && !st.parked.is_empty() {
            let (_, next) = st.parked.remove(0);
            drop(st);
            next.unpark();
        }
    }

    /// Read frames as the holder of the read role until the reply to `id`
    /// arrives, `bound` expires or the connection fails. A reply to
    /// another caller goes into its slot and wakes that caller alone. The
    /// state mutex is never held across a socket read.
    fn lead(
        &self,
        id: u64,
        reader: &mut FrameReader,
        bound: Option<&Bound<'_>>,
    ) -> IpcResult<Response> {
        loop {
            let round = bound.map(|b| (b, b.clock.now()));
            // An unbounded leader blocks with no timeout: a suspended
            // container must not wake a thousand times a second.
            let full_poll = match reader.poll_frame(bound.map(|_| POLL)) {
                Ok(Some(env)) if env.id == id => return Ok(env.body),
                Ok(Some(env)) => {
                    let mut st = self.state.lock();
                    if let Some(slot) = st.slots.get_mut(&env.id) {
                        *slot = Some(env.body);
                        let owner = st.unlist(env.id);
                        drop(st);
                        if let Some(owner) = owner {
                            owner.unpark();
                        }
                    }
                    false
                }
                Ok(None) => true,
                Err(_) => return Err(IpcError::Disconnected),
            };
            if round.is_some_and(|(b, before)| b.expired(before, full_poll)) {
                return Err(IpcError::TimedOut);
            }
        }
    }

    /// Ask the daemon for its current metrics in Prometheus text format.
    pub fn query_metrics(&self) -> IpcResult<String> {
        expect_reply!(self.request(Request::QueryMetrics), Response::Metrics { text } => text)
    }

    /// Ask a cluster router for its strategy and per-node status. Errors
    /// with the daemon's own message on non-cluster topologies.
    pub fn query_cluster(&self) -> IpcResult<(String, Vec<ClusterNodeStatus>)> {
        expect_reply!(
            self.request(Request::QueryCluster),
            Response::Cluster { strategy, nodes } => (strategy, nodes)
        )
    }
}

/// The socket is one more way to carry a message to the scheduler; the
/// typed [`crate::endpoint::SchedulerEndpoint`] calls come with it.
impl Transact for SchedulerClient {
    fn transact(&self, req: Request) -> IpcResult<Response> {
        self.request(req)
    }

    /// Write `req` under envelope id 0, which the server never answers,
    /// and return once the write completes. Nothing waits, so nothing is
    /// registered. Frames written under the writer lock reach the server
    /// in order, and it handles one connection's frames in order, so a
    /// report lands before any request this connection sends after it.
    fn notify(&self, req: Request) -> IpcResult<()> {
        if self.state.lock().dead {
            return Err(IpcError::Disconnected);
        }
        self.write_frame(&Envelope { id: 0, body: req })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::MAGIC;
    use crate::codec::MAX_LINE_BYTES;
    use crate::endpoint::SchedulerEndpoint;
    use crate::message::{AllocDecision, ApiKind};
    use crate::server::{ConnId, Reply, RequestHandler, SocketServer};
    use convgpu_obs::Registry;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::units::Bytes;
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Duration;

    fn temp_sock(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "convgpu-ipc-client-test-{}-{}",
            std::process::id(),
            name
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sched.sock")
    }

    /// Grants allocations under 100 MiB instantly; suspends (answers after
    /// a delay from another thread) anything larger — a miniature of the
    /// real scheduler's behaviour.
    struct MiniScheduler;

    impl RequestHandler for MiniScheduler {
        fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
            match req {
                Request::Ping => reply.send(Response::Pong),
                Request::Register { .. } => reply.send(Response::Ok),
                Request::RequestDir { container } => reply.send(Response::Dir {
                    path: format!("/tmp/convgpu/{container}"),
                }),
                Request::AllocRequest { size, .. } => {
                    if size <= Bytes::mib(100) {
                        reply.send(Response::Alloc {
                            decision: AllocDecision::Granted,
                        });
                    } else {
                        // Deferred reply: the suspension mechanism.
                        std::thread::spawn(move || {
                            std::thread::sleep(Duration::from_millis(50));
                            reply.send(Response::Alloc {
                                decision: AllocDecision::Granted,
                            });
                        });
                    }
                }
                Request::MemInfo { .. } => reply.send(Response::MemInfo {
                    free: Bytes::mib(10),
                    total: Bytes::mib(512),
                }),
                Request::Free { .. } => reply.send(Response::Freed {
                    size: Bytes::mib(1),
                }),
                _ => reply.send(Response::Ok),
            }
        }
    }

    /// Withholds every `alloc_request` until the test releases it by
    /// size, and answers `free` / `mem_info` with a value taken from the
    /// request, so a reply delivered to the wrong caller shows.
    #[derive(Default)]
    struct Gate {
        parked: Mutex<Vec<(Bytes, Reply)>>,
    }

    impl Gate {
        /// Answer the withheld `alloc_request` of `size`, waiting for it
        /// to arrive first.
        fn release(&self, size: Bytes, decision: AllocDecision) {
            let mut found = None;
            wait_until("the request to be parked", || {
                let mut parked = self.parked.lock();
                found = parked
                    .iter()
                    .position(|(s, _)| *s == size)
                    .map(|i| parked.swap_remove(i).1);
                found.is_some()
            });
            found.unwrap().send(Response::Alloc { decision });
        }
    }

    impl RequestHandler for Gate {
        fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
            match req {
                Request::AllocRequest { size, .. } => self.parked.lock().push((size, reply)),
                Request::Free { addr, .. } => reply.send(Response::Freed {
                    size: Bytes::new(addr),
                }),
                Request::MemInfo { pid, .. } => reply.send(Response::MemInfo {
                    free: Bytes::new(pid),
                    total: Bytes::mib(512),
                }),
                _ => reply.send(Response::Pong),
            }
        }
    }

    /// A clock that stands still until the test moves it: a deadline
    /// caller keeps polling, and times out exactly when told to.
    struct StillClock(convgpu_sim_core::clock::VirtualClock);

    impl convgpu_sim_core::clock::Clock for StillClock {
        fn now(&self) -> SimTime {
            self.0.now()
        }
        fn sleep(&self, _d: SimDuration) {}
    }

    fn still_clock() -> (convgpu_sim_core::clock::VirtualClock, ClockHandle) {
        let inner = convgpu_sim_core::clock::VirtualClock::new();
        (inner.clone(), Arc::new(StillClock(inner)))
    }

    const BOUND: Duration = Duration::from_secs(10);

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let t0 = std::time::Instant::now();
        while !cond() {
            assert!(t0.elapsed() < BOUND, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Run `f` on its own thread; [`finish`] joins it within [`BOUND`].
    fn start<T: Send + 'static>(
        f: impl FnOnce() -> T + Send + 'static,
    ) -> std::sync::mpsc::Receiver<T> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx
    }

    fn finish<T>(rx: std::sync::mpsc::Receiver<T>) -> T {
        rx.recv_timeout(BOUND).expect("caller hung")
    }

    /// (read role taken, callers parked behind it)
    fn role(client: &SchedulerClient) -> (bool, usize) {
        let st = client.state.lock();
        (st.reader.is_none(), st.parked.len())
    }

    fn assert_idle(client: &SchedulerClient) {
        let st = client.state.lock();
        assert!(st.reader.is_some(), "read role not handed back");
        assert!(st.parked.is_empty());
        assert!(st.slots.is_empty(), "slots leaked: {:?}", st.slots);
    }

    fn big_alloc(mib: u64) -> Request {
        Request::AllocRequest {
            container: ContainerId(1),
            pid: 1,
            size: Bytes::mib(mib),
            api: ApiKind::Malloc,
        }
    }

    fn rtt_samples(registry: &Registry, kind: &str) -> u64 {
        registry
            .snapshot()
            .histogram("convgpu_ipc_client_rtt_seconds", &[("type", kind)])
            .map_or(0, |h| h.count())
    }

    fn client_obs() -> (Arc<Registry>, Option<ObsHook>) {
        let registry = Arc::new(Registry::new());
        let obs = ObsHook {
            registry: Arc::clone(&registry),
            clock: convgpu_sim_core::clock::RealClock::handle(),
        };
        (registry, Some(obs))
    }

    /// A hand-driven peer on the bare transport: accepts one connection,
    /// reads `expect` requests, lets `script` write whatever it likes, and
    /// holds the connection open until the client closes it.
    fn raw_peer(
        name: &str,
        expect: usize,
        script: impl FnOnce(Vec<Envelope<Request>>, &mut Conn) + Send + 'static,
    ) -> (EndpointAddr, std::thread::JoinHandle<()>) {
        use crate::transport::TransportListener;
        let listener = TransportListener::bind(&EndpointAddr::from(temp_sock(name))).unwrap();
        let addr = listener.local_endpoint();
        let peer = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = std::io::BufReader::new(conn);
            let requests = (0..expect)
                .map(|_| crate::read_auto(&mut reader).unwrap().unwrap().0)
                .collect();
            script(requests, &mut writer);
            let _ = crate::read_auto::<Envelope<Request>, _>(&mut reader);
        });
        (addr, peer)
    }

    #[test]
    fn full_endpoint_round_trip() {
        let path = temp_sock("roundtrip");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = SchedulerClient::connect(&path).unwrap();

        client.ping().unwrap();
        client.register(ContainerId(1), Bytes::mib(512)).unwrap();
        assert_eq!(
            client.request_dir(ContainerId(1)).unwrap(),
            "/tmp/convgpu/cnt-0001"
        );
        assert_eq!(
            client
                .request_alloc(ContainerId(1), 1, Bytes::mib(10), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        client
            .alloc_done(ContainerId(1), 1, 0x7000, Bytes::mib(10))
            .unwrap();
        assert_eq!(
            client.free(ContainerId(1), 1, 0x7000).unwrap(),
            Bytes::mib(1)
        );
        assert_eq!(
            client.mem_info(ContainerId(1), 1).unwrap(),
            (Bytes::mib(10), Bytes::mib(512))
        );
        client.process_exit(ContainerId(1), 1).unwrap();
        client.container_close(ContainerId(1)).unwrap();
        server.shutdown();
    }

    #[test]
    fn binary_codec_runs_the_full_endpoint() {
        let path = temp_sock("binroundtrip");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = SchedulerClient::connect_with_codec(&path, WireCodec::Binary, None).unwrap();
        client.ping().unwrap();
        client.register(ContainerId(1), Bytes::mib(512)).unwrap();
        assert_eq!(
            client
                .request_alloc(ContainerId(1), 1, Bytes::mib(10), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        assert_eq!(
            client.mem_info(ContainerId(1), 1).unwrap(),
            (Bytes::mib(10), Bytes::mib(512))
        );
        // Deferred (suspended) replies come back binary too.
        assert_eq!(
            client
                .request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        client.container_close(ContainerId(1)).unwrap();
        server.shutdown();
    }

    #[test]
    fn suspended_request_blocks_until_deferred_reply() {
        let path = temp_sock("suspend");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = SchedulerClient::connect(&path).unwrap();
        let t0 = std::time::Instant::now();
        let decision = client
            .request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
            .unwrap();
        assert_eq!(decision, AllocDecision::Granted);
        assert!(
            t0.elapsed() >= Duration::from_millis(45),
            "must have waited for the deferred reply"
        );
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_multiplex_on_one_socket() {
        let path = temp_sock("mux");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = Arc::new(SchedulerClient::connect(&path).unwrap());
        let mut handles = Vec::new();
        // One slow (suspended) request in flight while fast ones complete.
        {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                c.request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
                    .unwrap()
            }));
        }
        for _ in 0..4 {
            let c = Arc::clone(&client);
            handles.push(std::thread::spawn(move || {
                c.request_alloc(ContainerId(1), 2, Bytes::mib(1), ApiKind::Malloc)
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), AllocDecision::Granted);
        }
        server.shutdown();
    }

    #[test]
    fn server_shutdown_unblocks_waiting_clients() {
        let path = temp_sock("shutdown");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = Arc::new(SchedulerClient::connect(&path).unwrap());
        let c = Arc::clone(&client);
        let waiter = std::thread::spawn(move || {
            // Large → deferred 50 ms; we kill the server first.
            c.request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
        });
        std::thread::sleep(Duration::from_millis(10));
        server.shutdown();
        let res = waiter.join().unwrap();
        assert!(res.is_err(), "waiter must error, not hang: {res:?}");
    }

    #[test]
    fn dropping_the_client_disconnects_the_server() {
        use std::sync::atomic::AtomicUsize;
        struct CountDisconnects {
            disconnects: AtomicUsize,
        }
        impl RequestHandler for CountDisconnects {
            fn on_request(&self, _c: ConnId, _r: Request, reply: Reply) {
                reply.send(crate::message::Response::Pong);
            }
            fn on_disconnect(&self, _c: ConnId) {
                self.disconnects
                    .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        }
        let path = temp_sock("dropclient");
        let handler = Arc::new(CountDisconnects {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind(&path, handler.clone()).unwrap();
        {
            let client = SchedulerClient::connect(&path).unwrap();
            client.ping().unwrap();
        } // drop
        for _ in 0..200 {
            if handler
                .disconnects
                .load(std::sync::atomic::Ordering::SeqCst)
                == 1
            {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            handler
                .disconnects
                .load(std::sync::atomic::Ordering::SeqCst),
            1,
            "server must see the disconnect promptly after client drop"
        );
        server.shutdown();
    }

    #[test]
    fn deadline_request_times_out_on_a_stalled_reply() {
        use convgpu_sim_core::clock::VirtualClock;
        let path = temp_sock("deadline-stall");
        let gate = Arc::new(Gate::default());
        let server = SocketServer::bind(&path, gate.clone()).unwrap();
        let (registry, obs) = client_obs();
        let client = SchedulerClient::connect_with_obs(&path, obs).unwrap();
        let vclock = VirtualClock::new();
        let clock: ClockHandle = vclock.handle();
        // The reply is withheld; nothing but the poll rounds advances the
        // virtual clock, and eight of them reach the deadline.
        let res = client.request_deadline(big_alloc(500), &clock, SimDuration::from_millis(5));
        assert!(
            matches!(res, Err(IpcError::TimedOut)),
            "expected TimedOut, got {res:?}"
        );
        assert_eq!(
            rtt_samples(&registry, "alloc_request"),
            1,
            "a timed-out wait is a completed wait"
        );
        // The connection must remain usable after a timeout: the late
        // reply is dropped by the next reader, not misdelivered.
        gate.release(Bytes::mib(500), AllocDecision::Granted);
        client.ping().unwrap();
        assert_idle(&client);
        server.shutdown();
    }

    #[test]
    fn deadline_request_passes_through_a_prompt_reply() {
        use convgpu_sim_core::clock::VirtualClock;
        let path = temp_sock("deadline-ok");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = SchedulerClient::connect(&path).unwrap();
        let vclock = VirtualClock::new();
        let clock: ClockHandle = vclock.handle();
        let resp = client
            .request_deadline(Request::Ping, &clock, SimDuration::from_millis(5))
            .unwrap();
        assert_eq!(resp, Response::Pong);
        server.shutdown();
    }

    /// A virtual clock that records the real instant of every quantum a
    /// deadline caller charges it.
    struct ChargedClock {
        inner: convgpu_sim_core::clock::VirtualClock,
        charged: Mutex<Vec<std::time::Instant>>,
    }

    impl convgpu_sim_core::clock::Clock for ChargedClock {
        fn now(&self) -> SimTime {
            self.inner.now()
        }
        fn sleep(&self, d: SimDuration) {
            self.charged.lock().push(std::time::Instant::now());
            self.inner.sleep(d);
        }
    }

    #[test]
    fn a_stale_wake_up_charges_no_poll_round() {
        let path = temp_sock("deadline-stale-token");
        let gate = Arc::new(Gate::default());
        let server = SocketServer::bind(&path, gate.clone()).unwrap();
        let client = Arc::new(SchedulerClient::connect(&path).unwrap());
        // An unbounded caller holds the read role, so the deadline caller
        // waits as a follower, parked.
        let c = Arc::clone(&client);
        let leader = start(move || c.request(big_alloc(500)));
        wait_until("the leader to read", || role(&client) == (true, 0));
        let clock = Arc::new(ChargedClock {
            inner: convgpu_sim_core::clock::VirtualClock::new(),
            charged: Mutex::new(Vec::new()),
        });
        let handle: ClockHandle = clock.clone();
        let c = Arc::clone(&client);
        let follower = start(move || {
            // What a thread reused from an earlier job may carry: its
            // first park returns at once.
            std::thread::current().unpark();
            let began = std::time::Instant::now();
            let res = c.request_deadline(big_alloc(550), &handle, SimDuration::from_millis(5));
            (began, res)
        });
        let (began, res) = finish(follower);
        assert!(matches!(res, Err(IpcError::TimedOut)), "{res:?}");
        // Eight quanta reach the deadline, each after a whole real poll.
        let charged = clock.charged.lock().clone();
        assert_eq!(charged.len(), 8);
        let mut since = began;
        for at in charged {
            assert!(
                at - since >= POLL,
                "a quantum charged {:?} into its round",
                at - since
            );
            since = at;
        }
        gate.release(Bytes::mib(500), AllocDecision::Granted);
        assert!(finish(leader).is_ok());
        server.shutdown();
    }

    #[test]
    fn deadline_request_errors_not_hangs_when_server_dies() {
        let path = temp_sock("deadline-dead");
        let server = SocketServer::bind(&path, Arc::new(Gate::default())).unwrap();
        let (registry, obs) = client_obs();
        let client = Arc::new(SchedulerClient::connect_with_obs(&path, obs).unwrap());
        // The clock never moves, so only the dead peer can end the wait.
        let (_inner, clock) = still_clock();
        let c = Arc::clone(&client);
        let waiter =
            start(move || c.request_deadline(big_alloc(500), &clock, SimDuration::from_secs(3600)));
        wait_until("the caller to start reading", || role(&client).0);
        server.shutdown();
        let res = finish(waiter);
        assert!(
            matches!(res, Err(IpcError::Disconnected)),
            "expected Disconnected, got {res:?}"
        );
        assert_eq!(
            rtt_samples(&registry, "alloc_request"),
            1,
            "a disconnected wait is a completed wait"
        );
    }

    #[test]
    fn parked_leader_reads_for_its_followers() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let path = temp_sock(&format!("parked-leader-{}", codec.label()));
            let gate = Arc::new(Gate::default());
            let server = SocketServer::bind(&path, gate.clone()).unwrap();
            let client = Arc::new(SchedulerClient::connect_with_codec(&path, codec, None).unwrap());
            let c = Arc::clone(&client);
            let suspended = start(move || c.request(big_alloc(500)));
            wait_until("the suspended caller to take the read role", || {
                role(&client).0
            });
            // This thread's calls complete through the parked caller's
            // reads, each with the reply to its own request.
            assert_eq!(client.free(ContainerId(1), 2, 77).unwrap(), Bytes::new(77));
            assert_eq!(client.mem_info(ContainerId(1), 9).unwrap().0, Bytes::new(9));
            assert_eq!(role(&client), (true, 0), "the suspended caller still reads");
            gate.release(Bytes::mib(500), AllocDecision::Granted);
            assert_eq!(
                finish(suspended).unwrap(),
                Response::Alloc {
                    decision: AllocDecision::Granted
                }
            );
            assert_idle(&client);
            server.shutdown();
        }
    }

    #[test]
    fn every_thread_gets_the_reply_to_its_own_request() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let path = temp_sock(&format!("own-reply-{}", codec.label()));
            let server = SocketServer::bind(&path, Arc::new(Gate::default())).unwrap();
            let client = Arc::new(SchedulerClient::connect_with_codec(&path, codec, None).unwrap());
            let callers: Vec<_> = (0..8u64)
                .map(|t| {
                    let c = Arc::clone(&client);
                    start(move || {
                        for i in 0..500u64 {
                            let tag = t * 1_000_000 + i;
                            match i % 3 {
                                0 => assert_eq!(
                                    c.free(ContainerId(1), t, tag).unwrap(),
                                    Bytes::new(tag)
                                ),
                                1 => assert_eq!(
                                    c.mem_info(ContainerId(1), tag).unwrap().0,
                                    Bytes::new(tag)
                                ),
                                _ => c.ping().unwrap(),
                            }
                        }
                    })
                })
                .collect();
            callers.into_iter().for_each(finish);
            assert_idle(&client);
            server.shutdown();
        }
    }

    #[test]
    fn timed_out_leader_hands_the_read_role_to_a_follower() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let path = temp_sock(&format!("handoff-{}", codec.label()));
            let gate = Arc::new(Gate::default());
            let server = SocketServer::bind(&path, gate.clone()).unwrap();
            let client = Arc::new(SchedulerClient::connect_with_codec(&path, codec, None).unwrap());
            let (inner, clock) = still_clock();
            let deadline = SimDuration::from_millis(5);

            // A deadline caller leads; a second one and an unbounded
            // caller park behind it, in that order.
            let mut bounded = Vec::new();
            for (mib, parked) in [(500, 0), (550, 1)] {
                let (c, clock) = (Arc::clone(&client), Arc::clone(&clock));
                bounded.push(start(move || {
                    c.request_deadline(big_alloc(mib), &clock, deadline)
                }));
                wait_until("the deadline caller to wait", || {
                    role(&client) == (true, parked)
                });
            }
            let c = Arc::clone(&client);
            let unbounded = start(move || c.request(big_alloc(600)));
            wait_until("the unbounded caller to follow", || {
                role(&client) == (true, 2)
            });

            // Both deadline callers give up, whichever of them holds or is
            // handed the role at that moment; it must end up with the one
            // caller that is left.
            inner.advance_to(SimTime::ZERO + deadline);
            for caller in bounded {
                let res = finish(caller);
                assert!(
                    matches!(res, Err(IpcError::TimedOut)),
                    "expected TimedOut, got {res:?}"
                );
            }
            wait_until("the follower to take over", || role(&client) == (true, 0));

            // The late replies to the timed-out ids reach the new leader
            // first and are discarded; its own follows.
            gate.release(Bytes::mib(500), AllocDecision::Rejected);
            gate.release(Bytes::mib(550), AllocDecision::Rejected);
            gate.release(Bytes::mib(600), AllocDecision::Granted);
            assert_eq!(
                finish(unbounded).unwrap(),
                Response::Alloc {
                    decision: AllocDecision::Granted
                }
            );
            assert_eq!(client.free(ContainerId(1), 1, 5).unwrap(), Bytes::new(5));
            assert_idle(&client);
            server.shutdown();
        }
    }

    #[test]
    fn server_shutdown_disconnects_leader_and_followers_alike() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let path = temp_sock(&format!("shutdown-all-{}", codec.label()));
            let server = SocketServer::bind(&path, Arc::new(Gate::default())).unwrap();
            let client = Arc::new(SchedulerClient::connect_with_codec(&path, codec, None).unwrap());
            let callers: Vec<_> = (0..4u64)
                .map(|i| {
                    let c = Arc::clone(&client);
                    start(move || c.request(big_alloc(500 + i)))
                })
                .collect();
            wait_until("one leader and three followers", || {
                role(&client) == (true, 3)
            });
            server.shutdown();
            for caller in callers {
                let res = finish(caller);
                assert!(
                    matches!(res, Err(IpcError::Disconnected)),
                    "expected Disconnected, got {res:?}"
                );
            }
            // Fails fast: the peer holds nothing open that could answer.
            let res = client.request(Request::Ping);
            assert!(
                matches!(res, Err(IpcError::Disconnected)),
                "expected Disconnected, got {res:?}"
            );
        }
    }

    #[test]
    fn a_peer_that_went_away_while_nobody_waited_is_a_disconnect() {
        let path = temp_sock("gone-idle");
        let server = SocketServer::bind(&path, Arc::new(MiniScheduler)).unwrap();
        let client = SchedulerClient::connect(&path).unwrap();
        client.ping().unwrap();
        server.shutdown();
        // Nobody was reading when the peer closed: the next caller finds
        // out, on its write (EPIPE) or on its read (EOF), and says so in
        // the one way every caller after it will hear too.
        for _ in 0..2 {
            let res = client.request(Request::Ping);
            assert!(
                matches!(res, Err(IpcError::Disconnected)),
                "expected Disconnected, got {res:?}"
            );
        }
        assert!(client.state.lock().dead);
        assert_idle(&client);
    }

    #[test]
    fn a_reply_dribbled_across_read_timeouts_is_reassembled() {
        let path = "/var/lib/convgpu/containers/cnt-0001/a-path-long-enough-to-matter".to_string();
        for codec in [WireCodec::Json, WireCodec::Binary] {
            for bounded in [true, false] {
                let reply = Response::Dir { path: path.clone() };
                let (addr, peer) = raw_peer(
                    &format!("dribble-{}-{bounded}", codec.label()),
                    1,
                    move |requests, conn| {
                        let frame = encode_with(
                            &Envelope {
                                id: requests[0].id,
                                body: reply,
                            },
                            codec,
                        );
                        for (i, byte) in frame.iter().enumerate() {
                            conn.write_all(&[*byte]).unwrap();
                            // Mostly faster than a read timeout, now and
                            // then (inside the binary length prefix, too)
                            // slower than the coarsest kernel tick.
                            let pause = if i % 16 == 3 { 25 } else { 2 };
                            std::thread::sleep(Duration::from_millis(pause));
                        }
                    },
                );
                let client = SchedulerClient::connect_endpoint_with_codec(&addr, codec, None)
                    .expect("connect");
                let req = Request::RequestDir {
                    container: ContainerId(1),
                };
                let got = if bounded {
                    let clock = convgpu_sim_core::clock::RealClock::handle();
                    client.request_deadline(req, &clock, SimDuration::from_secs(30))
                } else {
                    client.request(req)
                };
                assert_eq!(got.unwrap(), Response::Dir { path: path.clone() });
                assert_idle(&client);
                drop(client);
                peer.join().unwrap();
            }
        }
    }

    #[test]
    fn a_peer_that_answers_garbage_fails_every_waiter() {
        let mut oversized_line = vec![b'{'];
        oversized_line.resize(MAX_LINE_BYTES + 10, b'x');
        let mut oversized_frame = vec![MAGIC];
        oversized_frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("frame-start", b"garbage\n".to_vec()),
            ("not-json", b"{not json}\n".to_vec()),
            ("not-an-envelope", b"{\"id\":1}\n".to_vec()),
            ("oversized-line", oversized_line),
            ("oversized-frame", oversized_frame),
            ("bad-tag", vec![MAGIC, 2, 0, 0, 0, 1, 0xEE]),
            ("trailing-bytes", vec![MAGIC, 3, 0, 0, 0, 1, 6, 0]),
        ];
        for (name, garbage) in cases {
            let (addr, peer) = raw_peer(&format!("garbage-{name}"), 2, move |_, conn| {
                conn.write_all(&garbage).unwrap();
            });
            let client = Arc::new(SchedulerClient::connect_endpoint(&addr).unwrap());
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&client);
                    start(move || c.request(Request::Ping))
                })
                .collect();
            for waiter in waiters {
                let res = finish(waiter);
                assert!(
                    matches!(res, Err(IpcError::Disconnected)),
                    "{name}: expected Disconnected, got {res:?}"
                );
            }
            let res = client.request(Request::Ping);
            assert!(
                matches!(res, Err(IpcError::Disconnected)),
                "{name}: expected a fast Disconnected, got {res:?}"
            );
            drop(client);
            peer.join().unwrap();
        }
    }

    #[test]
    fn connect_to_missing_socket_errors() {
        let path = temp_sock("missing");
        let _ = std::fs::remove_file(&path);
        assert!(SchedulerClient::connect(&path).is_err());
    }

    #[test]
    fn tcp_endpoint_runs_the_full_endpoint_in_both_codecs() {
        let server = SocketServer::bind_endpoint(
            &EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
            Arc::new(MiniScheduler),
        )
        .unwrap();
        let endpoint = server.endpoint().clone();
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let client =
                SchedulerClient::connect_endpoint_with_codec(&endpoint, codec, None).unwrap();
            client.ping().unwrap();
            client.register(ContainerId(1), Bytes::mib(512)).unwrap();
            assert_eq!(
                client
                    .request_alloc(ContainerId(1), 1, Bytes::mib(10), ApiKind::Malloc)
                    .unwrap(),
                AllocDecision::Granted
            );
            // A deferred (suspended) reply crosses TCP too.
            assert_eq!(
                client
                    .request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
                    .unwrap(),
                AllocDecision::Granted
            );
            assert_eq!(
                client.mem_info(ContainerId(1), 1).unwrap(),
                (Bytes::mib(10), Bytes::mib(512))
            );
            client.container_close(ContainerId(1)).unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn tcp_server_shutdown_unblocks_suspended_tcp_clients() {
        let server = SocketServer::bind_endpoint(
            &EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
            Arc::new(MiniScheduler),
        )
        .unwrap();
        let client = Arc::new(SchedulerClient::connect_endpoint(server.endpoint()).unwrap());
        let c = Arc::clone(&client);
        let waiter = std::thread::spawn(move || {
            c.request_alloc(ContainerId(1), 1, Bytes::mib(500), ApiKind::Malloc)
        });
        std::thread::sleep(Duration::from_millis(10));
        server.shutdown();
        let res = waiter.join().unwrap();
        assert!(res.is_err(), "waiter must error, not hang: {res:?}");
    }
}
