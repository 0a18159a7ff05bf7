//! The scheduler side of the socket: accept loop, per-connection readers,
//! and deferred replies.
//!
//! The key requirement comes from the paper's suspension mechanism: when a
//! container must wait for memory, the scheduler simply *does not answer
//! yet*. [`Reply`] is therefore a detachable one-shot handle — the handler
//! can stash it in the suspended-container queue and fire it minutes later
//! from whatever thread processes the memory release.

use crate::binary::{encode_with, read_auto, WireCodec, MAX_FRAME_BYTES};
use crate::message::{Envelope, Request, Response};
use crate::transport::{self, Conn, EndpointAddr, TransportListener};
use convgpu_obs::catalogue::{
    IPC_REQUESTS, IPC_SERVER_HANDLE, IPC_SERVER_TURNAROUND, IPC_SERVER_WRITE,
};
use convgpu_obs::Registry;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::time::SimTime;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Identifies one accepted connection for the handler's lifetime hooks.
pub type ConnId = u64;

/// Server-side request callback.
pub trait RequestHandler: Send + Sync + 'static {
    /// A request arrived on connection `conn`. Reply now or stash `reply`
    /// and answer later (suspension).
    fn on_request(&self, conn: ConnId, req: Request, reply: Reply);

    /// Connection `conn` closed (client process or container died).
    fn on_disconnect(&self, conn: ConnId) {
        let _ = conn;
    }
}

/// Instrumentation hook for a server: where to record per-message-type
/// request counts and latency histograms, and which clock stamps them
/// (the same scaled/virtual clock the rest of the stack runs on — the
/// ipc layer never reads the wall clock directly).
#[derive(Clone)]
pub struct ServerObs {
    /// Shared metrics registry.
    pub registry: Arc<Registry>,
    /// Time source for the latency measurements.
    pub clock: ClockHandle,
}

/// Per-reply slice of [`ServerObs`]: carried inside the [`Reply`] handle
/// so a *deferred* reply (a suspended allocation) still records its
/// write-back and full receipt→reply turnaround when it finally fires.
struct ReplyObs {
    registry: Arc<Registry>,
    clock: ClockHandle,
    kind: &'static str,
    received_at: SimTime,
}

/// One-shot deferred reply handle. Remembers which codec its request
/// arrived in, so even a reply fired minutes later (a suspension ending)
/// answers in the format the client is reading.
pub struct Reply {
    writer: Arc<Mutex<Conn>>,
    id: u64,
    codec: WireCodec,
    obs: Option<ReplyObs>,
}

impl Reply {
    /// Send the response. Errors (client already gone) are swallowed: the
    /// scheduler must not crash because a container died mid-wait — the
    /// disconnect path reclaims its state instead.
    pub fn send(self, resp: Response) {
        let write_started = self.obs.as_ref().map(|o| o.clock.now());
        let frame = self.frame(resp);
        {
            let mut w = self.writer.lock();
            let _ = w.write_all(&frame).and_then(|()| w.flush());
        }
        Self::observe_sent(&self.obs, write_started);
    }

    /// Send many responses with one syscall per connection: frames are
    /// encoded up front (each in its reply's own codec), grouped by
    /// destination stream, and each group is written with a single
    /// `write_all`. This is the reply-coalescing path `dispatch` uses when
    /// one release resumes a burst of suspended allocations — N wakeups
    /// previously cost N lock/write/flush cycles per socket.
    pub fn send_batch(batch: Vec<(Reply, Response)>) {
        // Tiny batches (the common case) go through the simple path.
        if batch.len() <= 1 {
            for (reply, resp) in batch {
                reply.send(resp);
            }
            return;
        }
        // One entry per destination connection: (stream, coalesced
        // frames, per-reply observability records).
        type Group = (
            Arc<Mutex<Conn>>,
            Vec<u8>,
            Vec<(Option<ReplyObs>, Option<SimTime>)>,
        );
        let mut groups: Vec<Group> = Vec::new();
        for (reply, resp) in batch {
            let write_started = reply.obs.as_ref().map(|o| o.clock.now());
            let frame = reply.frame(resp);
            match groups
                .iter_mut()
                .find(|(w, _, _)| Arc::ptr_eq(w, &reply.writer))
            {
                Some((_, buf, obs)) => {
                    buf.extend_from_slice(&frame);
                    obs.push((reply.obs, write_started));
                }
                None => groups.push((
                    Arc::clone(&reply.writer),
                    frame,
                    vec![(reply.obs, write_started)],
                )),
            }
        }
        for (writer, buf, obs_list) in groups {
            {
                let mut w = writer.lock();
                let _ = w.write_all(&buf).and_then(|()| w.flush());
            }
            for (obs, write_started) in obs_list {
                Self::observe_sent(&obs, write_started);
            }
        }
    }

    /// The bytes that answer this request with `resp`, in its codec. The
    /// peer's reader drops the whole connection — every caller sharing it
    /// — on a frame above [`MAX_FRAME_BYTES`], so a reply that long goes
    /// out as an `error` saying so instead.
    fn frame(&self, resp: Response) -> Vec<u8> {
        let encode = |body| encode_with(&Envelope { id: self.id, body }, self.codec);
        let frame = encode(resp);
        if frame.len() <= MAX_FRAME_BYTES {
            return frame;
        }
        encode(Response::Error {
            message: format!(
                "reply of {} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit",
                frame.len()
            ),
        })
    }

    fn observe_sent(obs: &Option<ReplyObs>, write_started: Option<SimTime>) {
        if let (Some(obs), Some(t0)) = (obs, write_started) {
            let now = obs.clock.now();
            let labels = [("type", obs.kind)];
            let written = now.saturating_since(t0);
            obs.registry.observe(IPC_SERVER_WRITE, &labels, written);
            // Receipt → reply: for a suspended allocation this is the
            // whole time the reply was withheld.
            let turnaround = now.saturating_since(obs.received_at);
            obs.registry
                .observe(IPC_SERVER_TURNAROUND, &labels, turnaround);
        }
    }
}

struct ServerShared {
    handler: Arc<dyn RequestHandler>,
    shutting_down: AtomicBool,
    conns: Mutex<HashMap<ConnId, Arc<Mutex<Conn>>>>,
    next_conn: AtomicU64,
    obs: Option<ServerObs>,
}

/// A socket server for the wire protocol, over any
/// [`crate::transport`] endpoint (UNIX socket by default, TCP for
/// multi-host clusters).
pub struct SocketServer {
    endpoint: EndpointAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SocketServer {
    /// Bind a UNIX socket at `path` (removing a stale socket file first)
    /// and start accepting. Each connection gets its own reader thread;
    /// requests are dispatched to `handler`.
    pub fn bind(path: &Path, handler: Arc<dyn RequestHandler>) -> io::Result<SocketServer> {
        SocketServer::bind_with_obs(path, handler, None)
    }

    /// Like [`SocketServer::bind`], but every request/response round-trip is
    /// recorded into `obs` (per-message-type counters plus handle / write /
    /// turnaround latency histograms).
    pub fn bind_with_obs(
        path: &Path,
        handler: Arc<dyn RequestHandler>,
        obs: Option<ServerObs>,
    ) -> io::Result<SocketServer> {
        SocketServer::bind_endpoint_with_obs(&EndpointAddr::from(path), handler, obs)
    }

    /// Bind any transport endpoint (`unix:/path` or `tcp:host:port`; a
    /// TCP port of 0 is resolved by the kernel — read it back with
    /// [`SocketServer::endpoint`]).
    pub fn bind_endpoint(
        addr: &EndpointAddr,
        handler: Arc<dyn RequestHandler>,
    ) -> io::Result<SocketServer> {
        SocketServer::bind_endpoint_with_obs(addr, handler, None)
    }

    /// Like [`SocketServer::bind_endpoint`], with observability.
    pub fn bind_endpoint_with_obs(
        addr: &EndpointAddr,
        handler: Arc<dyn RequestHandler>,
        obs: Option<ServerObs>,
    ) -> io::Result<SocketServer> {
        let listener = TransportListener::bind(addr)?;
        let endpoint = listener.local_endpoint();
        let shared = Arc::new(ServerShared {
            handler,
            shutting_down: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
            obs,
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("convgpu-ipc-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(SocketServer {
            endpoint,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The UNIX socket path this server listens on.
    ///
    /// # Panics
    /// On a TCP server — use [`SocketServer::endpoint`] there.
    pub fn path(&self) -> &Path {
        self.endpoint
            .unix_path()
            .expect("SocketServer::path() on a non-unix endpoint; use endpoint()")
    }

    /// The endpoint this server listens on (with any TCP port 0 already
    /// resolved to the kernel-assigned port).
    pub fn endpoint(&self) -> &EndpointAddr {
        &self.endpoint
    }

    /// Stop accepting, close every live connection, and join the accept
    /// loop. Reader threads exit as their streams shut down.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throw-away connection.
        transport::wake(&self.endpoint);
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.lock().shutdown(std::net::Shutdown::Both);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(path) = self.endpoint.unix_path() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: TransportListener, shared: Arc<ServerShared>) {
    loop {
        let stream = match listener.accept() {
            Ok(stream) => stream,
            Err(_) => break,
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let writer = Arc::new(Mutex::new(match stream.try_clone() {
            Ok(s) => s,
            Err(_) => continue,
        }));
        shared.conns.lock().insert(conn_id, Arc::clone(&writer));
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name(format!("convgpu-ipc-conn-{conn_id}"))
            .spawn(move || {
                let mut stream = stream;
                // The TCP hello runs on the connection's own thread so a
                // client that never says hello stalls only itself, not
                // the accept loop. A failed handshake (bad magic/version,
                // hello timeout) drops the connection without ever
                // reaching the handler.
                let greeted = transport::server_handshake(&mut stream, &writer);
                match greeted {
                    Ok(()) => reader_loop(stream, writer, conn_id, &conn_shared),
                    Err(e) => debug_log(&format!("conn {conn_id}: handshake failed: {e}")),
                }
                conn_shared.conns.lock().remove(&conn_id);
                if !conn_shared.shutting_down.load(Ordering::SeqCst) {
                    conn_shared.handler.on_disconnect(conn_id);
                }
            });
    }
}

fn reader_loop(stream: Conn, writer: Arc<Mutex<Conn>>, conn_id: ConnId, shared: &ServerShared) {
    let mut reader = BufReader::new(stream);
    // Errors (malformed input) and EOF both end the connection. The codec
    // is detected per frame, and the reply handle carries it so this
    // request's answer goes back in the same format.
    loop {
        match read_auto::<Envelope<Request>, _>(&mut reader) {
            Ok(Some((env, codec))) => {
                let kind = env.body.kind();
                let received_at = shared.obs.as_ref().map(|o| {
                    o.registry.inc(IPC_REQUESTS, &[("type", kind)], 1);
                    o.clock.now()
                });
                let reply = Reply {
                    writer: Arc::clone(&writer),
                    id: env.id,
                    codec,
                    obs: shared.obs.as_ref().zip(received_at).map(|(o, t)| ReplyObs {
                        registry: Arc::clone(&o.registry),
                        clock: o.clock.clone(),
                        kind,
                        received_at: t,
                    }),
                };
                shared.handler.on_request(conn_id, env.body, reply);
                if let (Some(o), Some(t0)) = (&shared.obs, received_at) {
                    // Synchronous handler time; a deferred (suspended) reply
                    // shows up in the turnaround histogram instead.
                    let handled = o.clock.now().saturating_since(t0);
                    o.registry
                        .observe(IPC_SERVER_HANDLE, &[("type", kind)], handled);
                }
            }
            Ok(None) => {
                debug_log(&format!("conn {conn_id}: EOF"));
                break;
            }
            Err(e) => {
                debug_log(&format!("conn {conn_id}: read error: {e}"));
                break;
            }
        }
    }
}

/// Stderr diagnostics, enabled by `CONVGPU_IPC_DEBUG=1` (protocol-level
/// troubleshooting; silent otherwise).
fn debug_log(msg: &str) {
    if std::env::var_os("CONVGPU_IPC_DEBUG").is_some() {
        eprintln!("[convgpu-ipc] {msg}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binary::{read_binary, write_binary};
    use crate::codec::{read_json, write_json};
    use crate::message::AllocDecision;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::units::Bytes;
    use std::sync::atomic::AtomicUsize;

    fn temp_sock(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("convgpu-ipc-test-{}-{}", std::process::id(), name));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("sched.sock")
    }

    fn dial(path: &Path) -> Conn {
        Conn::connect(&EndpointAddr::from(path)).unwrap()
    }

    /// Echo handler: answers Ping with Pong, AllocRequest with Granted,
    /// anything else with Ok.
    struct Echo {
        disconnects: AtomicUsize,
    }

    impl RequestHandler for Echo {
        fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
            match req {
                Request::Ping => reply.send(Response::Pong),
                Request::AllocRequest { .. } => reply.send(Response::Alloc {
                    decision: AllocDecision::Granted,
                }),
                _ => reply.send(Response::Ok),
            }
        }
        fn on_disconnect(&self, _conn: ConnId) {
            self.disconnects.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn serves_requests_and_notices_disconnects() {
        let path = temp_sock("echo");
        let handler = Arc::new(Echo {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind(&path, handler.clone()).unwrap();

        {
            let mut stream = dial(&path);
            write_json(
                &mut stream,
                &Envelope {
                    id: 1,
                    body: Request::Ping,
                },
            )
            .unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let resp: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
            assert_eq!(resp.id, 1);
            assert_eq!(resp.body, Response::Pong);

            write_json(
                &mut stream,
                &Envelope {
                    id: 2,
                    body: Request::AllocRequest {
                        container: ContainerId(1),
                        pid: 1,
                        size: Bytes::mib(1),
                        api: crate::message::ApiKind::Malloc,
                    },
                },
            )
            .unwrap();
            let resp: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
            assert_eq!(
                resp.body,
                Response::Alloc {
                    decision: AllocDecision::Granted
                }
            );
        } // stream drops → disconnect

        // Wait for the disconnect callback.
        for _ in 0..100 {
            if handler.disconnects.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(handler.disconnects.load(Ordering::SeqCst), 1);
        server.shutdown();
        assert!(!path.exists(), "socket file removed on shutdown");
    }

    #[test]
    fn replies_follow_each_requests_codec() {
        let path = temp_sock("codecs");
        let handler = Arc::new(Echo {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind(&path, handler).unwrap();
        let mut stream = dial(&path);
        let mut r = BufReader::new(stream.try_clone().unwrap());
        // A binary request gets a binary reply…
        write_binary(
            &mut stream,
            &Envelope {
                id: 1,
                body: Request::Ping,
            },
        )
        .unwrap();
        let resp: Envelope<Response> = read_binary(&mut r).unwrap().unwrap();
        assert_eq!((resp.id, resp.body), (1, Response::Pong));
        // …and a JSON request on the very same connection a JSON reply.
        write_json(
            &mut stream,
            &Envelope {
                id: 2,
                body: Request::Ping,
            },
        )
        .unwrap();
        let resp: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
        assert_eq!((resp.id, resp.body), (2, Response::Pong));
        server.shutdown();
    }

    #[test]
    fn malformed_input_only_kills_that_connection() {
        let path = temp_sock("malformed");
        let handler = Arc::new(Echo {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind(&path, handler.clone()).unwrap();

        let mut bad = dial(&path);
        bad.write_all(b"this is not json\n").unwrap();
        bad.flush().unwrap();

        // A well-behaved client still works.
        let mut good = dial(&path);
        write_json(
            &mut good,
            &Envelope {
                id: 5,
                body: Request::Ping,
            },
        )
        .unwrap();
        let mut r = BufReader::new(good.try_clone().unwrap());
        let resp: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
        assert_eq!(resp.body, Response::Pong);
        server.shutdown();
    }

    #[test]
    fn bind_replaces_stale_socket_file() {
        let path = temp_sock("stale");
        std::fs::write(&path, b"stale").unwrap();
        let handler = Arc::new(Echo {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind(&path, handler).unwrap();
        assert!(Conn::connect(&EndpointAddr::from(path.as_path())).is_ok());
        server.shutdown();
    }

    #[test]
    fn tcp_endpoint_serves_the_same_protocol() {
        let handler = Arc::new(Echo {
            disconnects: AtomicUsize::new(0),
        });
        let server = SocketServer::bind_endpoint(
            &EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
            handler.clone(),
        )
        .unwrap();
        let endpoint = server.endpoint().clone();
        assert_eq!(endpoint.scheme(), "tcp");
        let mut stream = Conn::connect(&endpoint).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        // Both codecs on one TCP connection, exactly like UNIX.
        write_binary(
            &mut stream,
            &Envelope {
                id: 1,
                body: Request::Ping,
            },
        )
        .unwrap();
        let resp: Envelope<Response> = read_binary(&mut r).unwrap().unwrap();
        assert_eq!((resp.id, resp.body), (1, Response::Pong));
        write_json(
            &mut stream,
            &Envelope {
                id: 2,
                body: Request::Ping,
            },
        )
        .unwrap();
        let resp: Envelope<Response> = read_json(&mut r).unwrap().unwrap();
        assert_eq!((resp.id, resp.body), (2, Response::Pong));
        drop(stream);
        drop(r);
        for _ in 0..100 {
            if handler.disconnects.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(handler.disconnects.load(Ordering::SeqCst), 1);
        server.shutdown();
    }

    #[test]
    fn tcp_client_without_hello_never_reaches_the_handler() {
        use std::sync::atomic::AtomicBool;
        struct FailIfCalled {
            called: Arc<AtomicBool>,
        }
        impl RequestHandler for FailIfCalled {
            fn on_request(&self, _c: ConnId, _r: Request, reply: Reply) {
                self.called.store(true, Ordering::SeqCst);
                reply.send(Response::Pong);
            }
        }
        let called = Arc::new(AtomicBool::new(false));
        let server = SocketServer::bind_endpoint(
            &EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
            Arc::new(FailIfCalled {
                called: Arc::clone(&called),
            }),
        )
        .unwrap();
        let mut raw = Conn::connect_raw(server.endpoint()).unwrap();
        // A protocol frame instead of the hello: the handshake must
        // reject it before the request dispatcher ever sees it.
        write_json(
            &mut raw,
            &Envelope {
                id: 1,
                body: Request::Ping,
            },
        )
        .unwrap();
        let mut r = BufReader::new(raw.try_clone().unwrap());
        let got: Result<Option<Envelope<Response>>, _> = read_json(&mut r);
        assert!(
            !matches!(got, Ok(Some(_))),
            "no reply may cross a failed handshake: {got:?}"
        );
        assert!(!called.load(Ordering::SeqCst), "handler must not run");
        server.shutdown();
    }
}
