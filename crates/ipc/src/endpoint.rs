//! The scheduler as its clients see it, at two levels.
//!
//! * [`Transact`] — the message level: one [`Request`] in, one
//!   [`Response`] out. This is what a transport implements:
//!   [`crate::client::SchedulerClient`] (the live path over a socket),
//!   `convgpu_core::service::InProcEndpoint` (a direct in-process handle
//!   to the scheduler service) and `convgpu_core::router::ClusterRouter`
//!   (the cluster's front door, called in-process).
//! * [`SchedulerEndpoint`] — the typed level the wrapper module programs
//!   against. Its typed↔message conversions are written **once**, in the
//!   blanket impl at the bottom of this file, for everything that
//!   implements [`Transact`]. A type that is not a transport (a test
//!   fake, a tracing decorator) can still implement
//!   [`SchedulerEndpoint`] directly.
//!
//! At either level an `alloc_request` **blocks while the scheduler
//! suspends the container** — the defining mechanism of the paper's
//! design ("the response from the scheduler will be suspended until the
//! required size of memory is available").

use crate::message::{AllocDecision, ApiKind, Request, Response, TopologyDevice};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;
use std::fmt;

/// Errors surfaced by an endpoint (transport failures, protocol
/// violations, scheduler-side errors).
#[derive(Debug)]
pub enum IpcError {
    /// Underlying socket/channel failure.
    Io(std::io::Error),
    /// The peer answered with a protocol-level error.
    Scheduler(String),
    /// The peer sent a response of the wrong variant.
    UnexpectedResponse(String),
    /// The connection closed while a request was outstanding.
    Disconnected,
    /// The request's deadline elapsed before a response arrived (the
    /// response, if it ever comes, is discarded).
    TimedOut,
}

impl fmt::Display for IpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpcError::Io(e) => write!(f, "ipc i/o error: {e}"),
            IpcError::Scheduler(m) => write!(f, "scheduler error: {m}"),
            IpcError::UnexpectedResponse(m) => write!(f, "unexpected response: {m}"),
            IpcError::Disconnected => write!(f, "scheduler connection closed"),
            IpcError::TimedOut => write!(f, "request deadline exceeded"),
        }
    }
}

impl std::error::Error for IpcError {}

impl From<std::io::Error> for IpcError {
    fn from(e: std::io::Error) -> Self {
        IpcError::Io(e)
    }
}

/// Result alias for endpoint operations.
pub type IpcResult<T> = Result<T, IpcError>;

/// The scheduler at the message level: whatever carries one [`Request`]
/// to it and brings the [`Response`] back.
pub trait Transact: Send + Sync {
    /// Send `req`, block for its reply (for an `alloc_request`, possibly
    /// for as long as the container stays suspended). An `error` reply
    /// may arrive as `Ok(Response::Error { .. })` or already folded into
    /// `Err(IpcError::Scheduler(..))`; callers treat the two alike.
    fn transact(&self, req: Request) -> IpcResult<Response>;

    /// Deliver a report that needs no answer (`alloc_done`,
    /// `alloc_failed`, `free`). A socket writes it under envelope id 0
    /// and returns once the write completes; the default waits for the
    /// reply like [`transact`](Self::transact), with an `error` reply
    /// folded into `Err`.
    fn notify(&self, req: Request) -> IpcResult<()> {
        match self.transact(req)? {
            Response::Error { message } => Err(IpcError::Scheduler(message)),
            _ => Ok(()),
        }
    }
}

/// The scheduler as seen by its clients (wrapper module, nvidia-docker,
/// nvidia-docker-plugin).
pub trait SchedulerEndpoint: Send + Sync {
    /// Declare a container and its GPU memory limit (nvidia-docker, before
    /// the container is created).
    fn register(&self, container: ContainerId, limit: Bytes) -> IpcResult<()>;

    /// Obtain the per-container volume directory path (nvidia-docker).
    fn request_dir(&self, container: ContainerId) -> IpcResult<String>;

    /// Ask permission to allocate `size` bytes. **Blocks while the
    /// container is suspended**; returns the eventual verdict.
    fn request_alloc(
        &self,
        container: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
    ) -> IpcResult<AllocDecision>;

    /// Report a successful device allocation at `addr`.
    fn alloc_done(&self, container: ContainerId, pid: u64, addr: u64, size: Bytes)
        -> IpcResult<()>;

    /// Report that a granted allocation failed on the device (the
    /// scheduler must release the reservation it made for it).
    fn alloc_failed(&self, container: ContainerId, pid: u64, size: Bytes) -> IpcResult<()>;

    /// Report a `cudaFree`; returns the size the scheduler had recorded.
    fn free(&self, container: ContainerId, pid: u64, addr: u64) -> IpcResult<Bytes>;

    /// Serve `cudaMemGetInfo` from scheduler book-keeping:
    /// `(free-for-this-container, container-limit)`.
    fn mem_info(&self, container: ContainerId, pid: u64) -> IpcResult<(Bytes, Bytes)>;

    /// [`alloc_done`](Self::alloc_done) as the wrapper sends it: a
    /// transport may return before the scheduler has filed the report.
    /// The default waits for the reply.
    fn report_alloc_done(
        &self,
        container: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
    ) -> IpcResult<()> {
        self.alloc_done(container, pid, addr, size)
    }

    /// [`alloc_failed`](Self::alloc_failed) as the wrapper sends it; see
    /// [`report_alloc_done`](Self::report_alloc_done).
    fn report_alloc_failed(&self, container: ContainerId, pid: u64, size: Bytes) -> IpcResult<()> {
        self.alloc_failed(container, pid, size)
    }

    /// [`free`](Self::free) as the wrapper sends it, without the recorded
    /// size; see [`report_alloc_done`](Self::report_alloc_done).
    fn report_free(&self, container: ContainerId, pid: u64, addr: u64) -> IpcResult<()> {
        self.free(container, pid, addr).map(drop)
    }

    /// `__cudaUnregisterFatBinary`: the process exited.
    fn process_exit(&self, container: ContainerId, pid: u64) -> IpcResult<()>;

    /// The container stopped (plugin saw the dummy volume unmount).
    fn container_close(&self, container: ContainerId) -> IpcResult<()>;

    /// Liveness probe.
    fn ping(&self) -> IpcResult<()>;

    /// Query the daemon's device/node topology: `(kind, devices)`.
    /// Default: unsupported — endpoints predating the topology protocol
    /// keep compiling and report the capability gap explicitly.
    fn query_topology(&self) -> IpcResult<(String, Vec<TopologyDevice>)> {
        Err(IpcError::Scheduler(
            "endpoint does not support query_topology".into(),
        ))
    }

    /// Query a container's home placement: `(node, device)`; the node is
    /// empty for single-host topologies. Same default as
    /// [`query_topology`](Self::query_topology).
    fn query_home(&self, container: ContainerId) -> IpcResult<(String, u64)> {
        let _ = container;
        Err(IpcError::Scheduler(
            "endpoint does not support query_home".into(),
        ))
    }
}

/// Take the expected variant out of a reply; an `error` reply is the
/// scheduler's refusal, anything else a protocol violation.
macro_rules! expect_reply {
    ($reply:expr, $variant:pat => $value:expr) => {
        match $reply? {
            $variant => Ok($value),
            Response::Error { message } => Err(IpcError::Scheduler(message)),
            other => Err(IpcError::UnexpectedResponse(format!("{other:?}"))),
        }
    };
}

pub(crate) use expect_reply;

/// The typed↔message adapter: every [`Transact`] is a
/// [`SchedulerEndpoint`], one wrapper-facing message per method.
impl<T: Transact + ?Sized> SchedulerEndpoint for T {
    fn register(&self, container: ContainerId, limit: Bytes) -> IpcResult<()> {
        let req = Request::Register { container, limit };
        expect_reply!(self.transact(req), Response::Ok => ())
    }

    fn request_dir(&self, container: ContainerId) -> IpcResult<String> {
        let req = Request::RequestDir { container };
        expect_reply!(self.transact(req), Response::Dir { path } => path)
    }

    fn request_alloc(
        &self,
        container: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
    ) -> IpcResult<AllocDecision> {
        let req = Request::AllocRequest {
            container,
            pid,
            size,
            api,
        };
        expect_reply!(self.transact(req), Response::Alloc { decision } => decision)
    }

    fn alloc_done(
        &self,
        container: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
    ) -> IpcResult<()> {
        let req = Request::AllocDone {
            container,
            pid,
            addr,
            size,
        };
        expect_reply!(self.transact(req), Response::Ok => ())
    }

    fn alloc_failed(&self, container: ContainerId, pid: u64, size: Bytes) -> IpcResult<()> {
        let req = Request::AllocFailed {
            container,
            pid,
            size,
        };
        expect_reply!(self.transact(req), Response::Ok => ())
    }

    fn free(&self, container: ContainerId, pid: u64, addr: u64) -> IpcResult<Bytes> {
        let req = Request::Free {
            container,
            pid,
            addr,
        };
        expect_reply!(self.transact(req), Response::Freed { size } => size)
    }

    fn report_alloc_done(
        &self,
        container: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
    ) -> IpcResult<()> {
        self.notify(Request::AllocDone {
            container,
            pid,
            addr,
            size,
        })
    }

    fn report_alloc_failed(&self, container: ContainerId, pid: u64, size: Bytes) -> IpcResult<()> {
        self.notify(Request::AllocFailed {
            container,
            pid,
            size,
        })
    }

    fn report_free(&self, container: ContainerId, pid: u64, addr: u64) -> IpcResult<()> {
        self.notify(Request::Free {
            container,
            pid,
            addr,
        })
    }

    fn mem_info(&self, container: ContainerId, pid: u64) -> IpcResult<(Bytes, Bytes)> {
        let req = Request::MemInfo { container, pid };
        expect_reply!(self.transact(req), Response::MemInfo { free, total } => (free, total))
    }

    fn process_exit(&self, container: ContainerId, pid: u64) -> IpcResult<()> {
        let req = Request::ProcessExit { container, pid };
        expect_reply!(self.transact(req), Response::Ok => ())
    }

    fn container_close(&self, container: ContainerId) -> IpcResult<()> {
        let req = Request::ContainerClose { container };
        expect_reply!(self.transact(req), Response::Ok => ())
    }

    fn ping(&self) -> IpcResult<()> {
        expect_reply!(self.transact(Request::Ping), Response::Pong => ())
    }

    fn query_topology(&self) -> IpcResult<(String, Vec<TopologyDevice>)> {
        expect_reply!(
            self.transact(Request::QueryTopology),
            Response::Topology { kind, devices } => (kind, devices)
        )
    }

    fn query_home(&self, container: ContainerId) -> IpcResult<(String, u64)> {
        let req = Request::QueryHome { container };
        expect_reply!(self.transact(req), Response::Home { node, device } => (node, device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_sim_core::sync::Mutex;

    /// A transport that records what it is asked and answers from a
    /// script.
    struct Recorder {
        seen: Mutex<Vec<Request>>,
        answer: Box<dyn Fn() -> IpcResult<Response> + Send + Sync>,
    }

    impl Transact for Recorder {
        fn transact(&self, req: Request) -> IpcResult<Response> {
            self.seen.lock().push(req);
            (self.answer)()
        }
    }

    fn answering(answer: impl Fn() -> IpcResult<Response> + Send + Sync + 'static) -> Recorder {
        Recorder {
            seen: Mutex::new(Vec::new()),
            answer: Box::new(answer),
        }
    }

    const C: ContainerId = ContainerId(7);

    type Call = Box<dyn Fn(&dyn SchedulerEndpoint) -> IpcResult<String>>;

    /// Every [`SchedulerEndpoint`] method with the reply it expects and
    /// the typed result that reply must become.
    fn calls() -> Vec<(Call, Response, &'static str)> {
        fn call<T: std::fmt::Debug>(
            f: impl Fn(&dyn SchedulerEndpoint) -> IpcResult<T> + 'static,
            reply: Response,
            typed: &'static str,
        ) -> (Call, Response, &'static str) {
            (
                Box::new(move |e| f(e).map(|v| format!("{v:?}"))),
                reply,
                typed,
            )
        }
        let granted = AllocDecision::Granted;
        vec![
            call(|e| e.register(C, Bytes::mib(1)), Response::Ok, "()"),
            call(
                |e| e.request_dir(C),
                Response::Dir { path: "/d".into() },
                "\"/d\"",
            ),
            call(
                |e| e.request_alloc(C, 1, Bytes::mib(1), ApiKind::Malloc),
                Response::Alloc { decision: granted },
                "Granted",
            ),
            call(|e| e.alloc_done(C, 1, 2, Bytes::mib(1)), Response::Ok, "()"),
            call(|e| e.alloc_failed(C, 1, Bytes::mib(1)), Response::Ok, "()"),
            call(
                |e| e.free(C, 1, 2).map(|b| b.as_u64()),
                Response::Freed {
                    size: Bytes::new(5),
                },
                "5",
            ),
            call(
                |e| e.mem_info(C, 1).map(|(f, t)| (f.as_u64(), t.as_u64())),
                Response::MemInfo {
                    free: Bytes::new(3),
                    total: Bytes::new(4),
                },
                "(3, 4)",
            ),
            call(|e| e.process_exit(C, 1), Response::Ok, "()"),
            call(|e| e.container_close(C), Response::Ok, "()"),
            call(|e| e.ping(), Response::Pong, "()"),
            call(
                |e| e.query_topology(),
                Response::Topology {
                    kind: "single".into(),
                    devices: Vec::new(),
                },
                "(\"single\", [])",
            ),
            call(
                |e| e.query_home(C),
                Response::Home {
                    node: "n".into(),
                    device: 1,
                },
                "(\"n\", 1)",
            ),
        ]
    }

    /// The requests only an operator's client sends; the wrapper-facing
    /// trait has no method for them.
    fn operator_requests() -> Vec<Request> {
        vec![
            Request::QueryMetrics,
            Request::QueryCluster,
            Request::Migrate {
                container: C,
                node: String::new(),
                limit: Bytes::ZERO,
                used: Bytes::ZERO,
            },
            Request::QueryMigrations,
        ]
    }

    /// Each report sends its waited twin's message. Only a refusal comes
    /// back as an error: a report has no typed answer to check.
    #[test]
    fn reports_send_their_twins_message_and_fold_only_refusals() {
        type Report = fn(&dyn SchedulerEndpoint) -> IpcResult<()>;
        let pairs: [(Report, Report); 3] = [
            (
                |e| e.report_alloc_done(C, 1, 2, Bytes::mib(1)),
                |e| e.alloc_done(C, 1, 2, Bytes::mib(1)),
            ),
            (
                |e| e.report_alloc_failed(C, 1, Bytes::mib(1)),
                |e| e.alloc_failed(C, 1, Bytes::mib(1)),
            ),
            (|e| e.report_free(C, 1, 2), |e| e.free(C, 1, 2).map(drop)),
        ];
        for (report, twin) in pairs {
            let acked = answering(|| Ok(Response::Pong));
            report(&acked).unwrap();
            let _ = twin(&acked);
            let sent = std::mem::take(&mut *acked.seen.lock());
            assert_eq!(sent.len(), 2);
            assert_eq!(sent[0], sent[1]);

            let refused = answering(|| {
                Ok(Response::Error {
                    message: "no".into(),
                })
            });
            assert!(
                matches!(report(&refused), Err(IpcError::Scheduler(m)) if m == "no"),
                "{}",
                sent[0].kind()
            );
        }
    }

    #[test]
    fn the_adapter_maps_every_method_to_its_message_and_back() {
        let mut sent = Vec::new();
        for (call, right_reply, typed) in calls() {
            let reply = right_reply.clone();
            let ok = answering(move || Ok(reply.clone()));
            assert_eq!(call(&ok).unwrap(), typed);
            let req = ok.seen.lock().pop().expect("one request per call");
            let kind = req.kind();

            // No wrapper-facing call expects `cluster`.
            let wrong = answering(|| {
                Ok(Response::Cluster {
                    strategy: "spread".into(),
                    nodes: Vec::new(),
                })
            });
            assert!(
                matches!(call(&wrong), Err(IpcError::UnexpectedResponse(m)) if m.contains("Cluster")),
                "{kind}: a reply of the wrong variant"
            );
            // An `error` reply is the scheduler's refusal, whichever way
            // the transport hands it over; other failures pass through.
            let refused = answering(|| {
                Ok(Response::Error {
                    message: "no".into(),
                })
            });
            assert!(
                matches!(call(&refused), Err(IpcError::Scheduler(m)) if m == "no"),
                "{kind}: an error reply"
            );
            let folded = answering(|| Err(IpcError::Scheduler("no".into())));
            assert!(
                matches!(call(&folded), Err(IpcError::Scheduler(m)) if m == "no"),
                "{kind}: an error the transport already folded"
            );
            let late = answering(|| Err(IpcError::TimedOut));
            assert!(matches!(call(&late), Err(IpcError::TimedOut)), "{kind}");
            sent.push(req);
        }

        // One method per wrapper-facing row, and none beside them.
        let operator = operator_requests();
        let wrapper_facing: Vec<&str> = Request::SCHEMA
            .iter()
            .map(|row| row.wire)
            .filter(|wire| operator.iter().all(|op| op.kind() != *wire))
            .collect();
        let mut produced: Vec<&str> = sent.iter().map(Request::kind).collect();
        produced.sort_unstable();
        let mut expected = wrapper_facing.clone();
        expected.sort_unstable();
        assert_eq!(produced, expected);

        // `container()` is the row's `container` field, for all 16 rows.
        sent.extend(operator);
        assert_eq!(sent.len(), Request::SCHEMA.len());
        for req in &sent {
            let row = Request::SCHEMA
                .iter()
                .find(|row| row.wire == req.kind())
                .expect("every request has a row");
            let keyed = row.fields.contains(&"container");
            assert_eq!(req.container(), keyed.then_some(C), "{}", req.kind());
        }
    }
}
