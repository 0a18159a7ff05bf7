//! Pluggable transport layer: every socket the stack opens goes through
//! here.
//!
//! The paper's middleware speaks over a local socket; the distributed
//! cluster mode needs the same wire protocol across machines. This module
//! is the single place that constructs OS-level streams — an enum-dispatch
//! mirror of `TopologyBackend`, not a trait object, so the hot path stays
//! a direct match with no vtable. clippy.toml freezes the boundary: the
//! `UnixStream` / `UnixListener` / `TcpStream` / `TcpListener`
//! constructors are disallowed methods everywhere else in the workspace,
//! tests included, and [`Conn::connect_raw`] and [`TransportListener::bind`]
//! are their only callers.
//!
//! Endpoints are written as URIs:
//!
//! * `unix:/run/convgpu/sched.sock` — UNIX domain socket (the default);
//! * `tcp:host:port` — TCP, for real multi-host clusters;
//! * a bare path keeps meaning a UNIX socket, so every pre-transport CLI
//!   invocation and config file still parses.
//!
//! **TCP hello frame.** A UNIX socket's reachability implies a shared
//! filesystem namespace; a TCP port guarantees nothing, so both ends
//! exchange a 4-byte version-checked hello before the first protocol
//! frame: `[0xC7, b'V', version, role]` with role `b'c'` (client) or
//! `b's'` (server). The client sends first and waits for the server's
//! echo under [`TCP_HELLO_TIMEOUT`]; a wrong magic or version fails the
//! connect with a clear error instead of letting two incompatible builds
//! trade garbage frames. UNIX connections skip the hello entirely —
//! their byte streams (and golden traces) are bit-for-bit identical to
//! the pre-transport stack.
//!
//! **Timeouts.** TCP half-open peers are undetectable without them: a
//! read timeout covers only the handshake (and is cleared afterwards —
//! a *suspension* must block indefinitely, that is the paper's
//! mechanism), while [`TCP_WRITE_TIMEOUT`] stays armed for the life of
//! the connection so a peer that stops draining its receive window
//! surfaces as an I/O error — which the router treats exactly like a
//! dead node. Both are fd-level options shared across [`Conn::try_clone`].

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// First byte of the TCP hello frame (distinct from the binary-codec
/// magic `0xC5` and from `{`/digits, so a stray protocol frame can never
/// be mistaken for a hello).
pub const HELLO_MAGIC: u8 = 0xC7;
/// Second byte of the hello frame.
pub const HELLO_TAG: u8 = b'V';
/// Transport protocol version; bumped on incompatible wire changes.
pub const TRANSPORT_VERSION: u8 = 1;
/// Hello role byte sent by the connecting side.
pub const HELLO_ROLE_CLIENT: u8 = b'c';
/// Hello role byte echoed by the accepting side.
pub const HELLO_ROLE_SERVER: u8 = b's';
/// Read timeout covering only the TCP hello exchange.
pub const TCP_HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Permanent TCP write timeout: a peer that stops draining its window
/// turns into an I/O error instead of a wedged writer.
pub const TCP_WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed endpoint address: where a server listens or a client dials.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndpointAddr {
    /// UNIX domain socket at this filesystem path.
    Unix(PathBuf),
    /// TCP `host:port` (as given; resolved at connect/bind time).
    Tcp(String),
}

impl EndpointAddr {
    /// Parse an endpoint URI: `unix:/path`, `tcp:host:port`, or a bare
    /// path (kept as a UNIX socket for backwards compatibility).
    pub fn parse(s: &str) -> io::Result<EndpointAddr> {
        if let Some(rest) = s.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err(invalid(format!("empty unix endpoint path in {s:?}")));
            }
            return Ok(EndpointAddr::Unix(PathBuf::from(rest)));
        }
        if let Some(rest) = s.strip_prefix("tcp:") {
            let Some((host, port)) = rest.rsplit_once(':') else {
                return Err(invalid(format!("tcp endpoint {s:?} must be tcp:host:port")));
            };
            if host.is_empty() || port.parse::<u16>().is_err() {
                return Err(invalid(format!(
                    "tcp endpoint {s:?} must be tcp:host:port with a numeric port"
                )));
            }
            return Ok(EndpointAddr::Tcp(rest.to_string()));
        }
        if s.is_empty() {
            return Err(invalid("empty endpoint".to_string()));
        }
        Ok(EndpointAddr::Unix(PathBuf::from(s)))
    }

    /// The URI scheme label (`"unix"` / `"tcp"`), used for metric labels
    /// and bench axes.
    pub fn scheme(&self) -> &'static str {
        match self {
            EndpointAddr::Unix(_) => "unix",
            EndpointAddr::Tcp(_) => "tcp",
        }
    }

    /// The filesystem path behind a UNIX endpoint, if that is what this
    /// is.
    pub fn unix_path(&self) -> Option<&Path> {
        match self {
            EndpointAddr::Unix(p) => Some(p),
            EndpointAddr::Tcp(_) => None,
        }
    }
}

impl fmt::Display for EndpointAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndpointAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            EndpointAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl From<&Path> for EndpointAddr {
    fn from(p: &Path) -> Self {
        EndpointAddr::Unix(p.to_path_buf())
    }
}

impl From<PathBuf> for EndpointAddr {
    fn from(p: PathBuf) -> Self {
        EndpointAddr::Unix(p)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, msg)
}

/// Whether a UNIX socket could ever be dialled at `path`: an
/// `InvalidInput` error when the path does not fit a socket address
/// (`sun_path`, about 107 bytes) or holds a NUL byte. Pure: no syscall.
pub fn check_socket_path(path: &Path) -> io::Result<()> {
    std::os::unix::net::SocketAddr::from_pathname(path).map(drop)
}

/// One connected stream, over either transport. Implements [`Read`] and
/// [`Write`] by direct dispatch so the codec layer never knows which
/// transport it is framing onto.
pub enum Conn {
    /// A UNIX-domain stream.
    Unix(UnixStream),
    /// A TCP stream (hello already exchanged unless built by
    /// [`Conn::connect_raw`] / [`TransportListener::accept`]).
    Tcp(TcpStream),
}

impl Conn {
    /// Dial `addr` and complete the transport handshake: for TCP this
    /// sends the client hello and validates the server's echo before
    /// returning, so a version-mismatched or non-convgpu peer fails the
    /// connect instead of corrupting the protocol stream.
    pub fn connect(addr: &EndpointAddr) -> io::Result<Conn> {
        let mut conn = Conn::connect_raw(addr)?;
        conn.client_handshake()?;
        Ok(conn)
    }

    /// Dial `addr` without the hello exchange. For hostile-client tests
    /// and the server's own shutdown wake-up; a raw TCP connection will
    /// be rejected by the server's handshake unless it speaks the hello
    /// itself.
    #[allow(
        clippy::disallowed_methods,
        reason = "the transport layer is the one place that builds sockets"
    )]
    pub fn connect_raw(addr: &EndpointAddr) -> io::Result<Conn> {
        match addr {
            EndpointAddr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
            EndpointAddr::Tcp(hostport) => {
                let stream = TcpStream::connect(hostport.as_str())?;
                configure_tcp(&stream)?;
                Ok(Conn::Tcp(stream))
            }
        }
    }

    /// Client side of the TCP hello; a no-op on UNIX.
    fn client_handshake(&mut self) -> io::Result<()> {
        let Conn::Tcp(stream) = self else {
            return Ok(());
        };
        stream.set_read_timeout(Some(TCP_HELLO_TIMEOUT))?;
        stream.write_all(&[HELLO_MAGIC, HELLO_TAG, TRANSPORT_VERSION, HELLO_ROLE_CLIENT])?;
        stream.flush()?;
        let mut echo = [0u8; 4];
        stream.read_exact(&mut echo)?;
        check_hello(&echo, HELLO_ROLE_SERVER)?;
        // Suspension blocks indefinitely by design: only the handshake
        // is read-bounded.
        stream.set_read_timeout(None)?;
        Ok(())
    }

    /// A second handle onto the same OS stream, so that one side can read
    /// while another writes (the server's connection thread and its
    /// [`crate::Reply`] handles; the client's read role and its writers).
    /// Socket options are fd-level and therefore shared with the clone.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => Ok(Conn::Unix(s.try_clone()?)),
            Conn::Tcp(s) => Ok(Conn::Tcp(s.try_clone()?)),
        }
    }

    /// Shut down one or both directions of the stream.
    pub fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.shutdown(how),
            Conn::Tcp(s) => s.shutdown(how),
        }
    }

    /// Set (or clear) the read timeout on the underlying stream.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(dur),
            Conn::Tcp(s) => s.set_read_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // A peer that stops reading blocks this write; it must never wedge
        // a lock, so the only guard it may hold is this stream's own.
        #[cfg(debug_assertions)]
        convgpu_sim_core::sync::assert_unguarded_write(self);
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

fn configure_tcp(stream: &TcpStream) -> io::Result<()> {
    // The protocol is request/response with small frames; Nagle only
    // adds latency. The write timeout stays armed for the connection's
    // whole life (see module docs).
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(TCP_WRITE_TIMEOUT))
}

fn check_hello(frame: &[u8; 4], expected_role: u8) -> io::Result<()> {
    if frame[0] != HELLO_MAGIC || frame[1] != HELLO_TAG {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer is not a convgpu transport (hello {frame:02x?})"),
        ));
    }
    if frame[2] != TRANSPORT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "transport version mismatch: peer v{}, local v{TRANSPORT_VERSION}",
                frame[2]
            ),
        ));
    }
    if frame[3] != expected_role {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected hello role {:#04x}", frame[3]),
        ));
    }
    Ok(())
}

/// Server side of the TCP hello, run on the connection's reader thread (not
/// the accept loop — a hostile client that never sends its hello must
/// only stall its own connection, never the server's accept path).
/// `reader` and `writer` are clones of the same accepted stream. A no-op
/// for UNIX connections.
pub fn server_handshake(
    reader: &mut Conn,
    writer: &convgpu_sim_core::sync::Mutex<Conn>,
) -> io::Result<()> {
    if matches!(reader, Conn::Unix(_)) {
        return Ok(());
    }
    // fd-level timeout, shared with the writer clone; cleared below.
    reader.set_read_timeout(Some(TCP_HELLO_TIMEOUT))?;
    let mut hello = [0u8; 4];
    reader.read_exact(&mut hello)?;
    check_hello(&hello, HELLO_ROLE_CLIENT)?;
    {
        let mut w = writer.lock();
        w.write_all(&[HELLO_MAGIC, HELLO_TAG, TRANSPORT_VERSION, HELLO_ROLE_SERVER])?;
        w.flush()?;
    }
    reader.set_read_timeout(None)
}

/// A bound, accepting socket over either transport.
pub enum TransportListener {
    /// A UNIX-domain listener and the path it is bound to.
    Unix {
        /// The listening socket.
        listener: UnixListener,
        /// Bound filesystem path (removed by the server on shutdown).
        path: PathBuf,
    },
    /// A TCP listener.
    Tcp(TcpListener),
}

impl TransportListener {
    /// Bind `addr`. A UNIX bind removes a stale socket file and creates
    /// the parent directory first; a TCP bind may use port 0 and read the
    /// kernel-assigned port back via [`TransportListener::local_endpoint`].
    #[allow(
        clippy::disallowed_methods,
        reason = "the transport layer is the one place that builds sockets"
    )]
    pub fn bind(addr: &EndpointAddr) -> io::Result<TransportListener> {
        match addr {
            EndpointAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent)?;
                }
                Ok(TransportListener::Unix {
                    listener: UnixListener::bind(path)?,
                    path: path.clone(),
                })
            }
            EndpointAddr::Tcp(hostport) => Ok(TransportListener::Tcp(TcpListener::bind(
                hostport.as_str(),
            )?)),
        }
    }

    /// The endpoint this listener is actually bound to — for TCP this
    /// resolves a requested port 0 to the kernel-assigned port.
    pub fn local_endpoint(&self) -> EndpointAddr {
        match self {
            TransportListener::Unix { path, .. } => EndpointAddr::Unix(path.clone()),
            TransportListener::Tcp(l) => EndpointAddr::Tcp(match l.local_addr() {
                Ok(addr) => addr.to_string(),
                Err(_) => String::new(),
            }),
        }
    }

    /// Block for the next connection. TCP sockets come back configured
    /// (`TCP_NODELAY`, write timeout) but **not** handshaken — the
    /// accepting server runs [`server_handshake`] from the connection's
    /// own thread.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            TransportListener::Unix { listener, .. } => {
                let (stream, _) = listener.accept()?;
                Ok(Conn::Unix(stream))
            }
            TransportListener::Tcp(listener) => {
                let (stream, _) = listener.accept()?;
                configure_tcp(&stream)?;
                Ok(Conn::Tcp(stream))
            }
        }
    }
}

/// Best-effort poke at `addr` to wake a blocking `accept()` (server
/// shutdown). The throw-away connection never speaks the hello; the
/// accept loop notices its shutdown flag before servicing it.
pub fn wake(addr: &EndpointAddr) {
    let _ = Conn::connect_raw(addr);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_unix_tcp_and_bare_paths() {
        assert_eq!(
            EndpointAddr::parse("unix:/run/convgpu/s.sock").unwrap(),
            EndpointAddr::Unix(PathBuf::from("/run/convgpu/s.sock"))
        );
        assert_eq!(
            EndpointAddr::parse("tcp:127.0.0.1:7070").unwrap(),
            EndpointAddr::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            EndpointAddr::parse("/bare/path.sock").unwrap(),
            EndpointAddr::Unix(PathBuf::from("/bare/path.sock"))
        );
        assert_eq!(
            EndpointAddr::parse("tcp:0.0.0.0:0").unwrap(),
            EndpointAddr::Tcp("0.0.0.0:0".to_string())
        );
    }

    #[test]
    fn rejects_malformed_endpoints() {
        assert!(EndpointAddr::parse("").is_err());
        assert!(EndpointAddr::parse("unix:").is_err());
        assert!(EndpointAddr::parse("tcp:").is_err());
        assert!(EndpointAddr::parse("tcp:noport").is_err());
        assert!(EndpointAddr::parse("tcp:host:notaport").is_err());
        assert!(EndpointAddr::parse("tcp::7070").is_err());
    }

    #[test]
    fn display_round_trips() {
        for uri in ["unix:/a/b.sock", "tcp:10.0.0.1:7070"] {
            let addr = EndpointAddr::parse(uri).unwrap();
            assert_eq!(addr.to_string(), uri);
            assert_eq!(EndpointAddr::parse(&addr.to_string()).unwrap(), addr);
        }
    }

    #[test]
    fn scheme_and_unix_path_accessors() {
        let u = EndpointAddr::parse("unix:/x.sock").unwrap();
        let t = EndpointAddr::parse("tcp:127.0.0.1:1").unwrap();
        assert_eq!(u.scheme(), "unix");
        assert_eq!(t.scheme(), "tcp");
        assert_eq!(u.unix_path(), Some(Path::new("/x.sock")));
        assert_eq!(t.unix_path(), None);
    }

    #[test]
    fn tcp_listener_resolves_port_zero() {
        let listener =
            TransportListener::bind(&EndpointAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint();
        assert_eq!(endpoint.scheme(), "tcp");
        assert!(
            !endpoint.to_string().ends_with(":0"),
            "port must be resolved: {endpoint}"
        );
    }

    #[test]
    fn tcp_hello_handshake_completes_and_rejects_bad_version() {
        use convgpu_sim_core::sync::Mutex;
        let listener =
            TransportListener::bind(&EndpointAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let endpoint = listener.local_endpoint();

        // Good client: full hello exchange on both sides.
        let server = std::thread::spawn(move || {
            let mut reader = listener.accept().unwrap();
            let writer = Mutex::new(reader.try_clone().unwrap());
            server_handshake(&mut reader, &writer).unwrap();

            // Bad client: wrong version byte must be rejected.
            let mut reader = listener.accept().unwrap();
            let writer = Mutex::new(reader.try_clone().unwrap());
            assert!(server_handshake(&mut reader, &writer).is_err());
        });
        let conn = Conn::connect(&endpoint).unwrap();
        drop(conn);

        let mut raw = Conn::connect_raw(&endpoint).unwrap();
        raw.write_all(&[
            HELLO_MAGIC,
            HELLO_TAG,
            TRANSPORT_VERSION + 1,
            HELLO_ROLE_CLIENT,
        ])
        .unwrap();
        raw.flush().unwrap();
        // The server drops us without an echo.
        let mut buf = [0u8; 4];
        assert!(raw.read_exact(&mut buf).is_err());
        server.join().unwrap();
    }
}
