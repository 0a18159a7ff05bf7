//! The benchmark's **only** contact surface with the layers under test.
//!
//! Every `convgpu_*` path the benchmark links against is named in this
//! file and nowhere else: the re-exports below, the three span decorators
//! (`TracedCuda`, `TracedEndpoint`, `TracedHandler`), the echo handler
//! and the stack builders. A later PR that changes one of these public
//! signatures has to touch this file and only this file; the list is
//! repeated in `benchmark/README.md`.

use crate::trace::Tracer;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---- sim-core -------------------------------------------------------
pub use convgpu_sim_core::clock::RealClock;
pub use convgpu_sim_core::ids::ContainerId;
pub use convgpu_sim_core::rng::DetRng;
pub use convgpu_sim_core::time::{SimDuration, SimTime};
pub use convgpu_sim_core::units::Bytes;

// ---- gpu-sim --------------------------------------------------------
pub use convgpu_gpu_sim::api::{CudaApi, Extent3D, MemcpyKind, PitchedPtr};
pub use convgpu_gpu_sim::context::Pid;
pub use convgpu_gpu_sim::device::GpuDevice;
pub use convgpu_gpu_sim::error::{CudaError, CudaResult};
pub use convgpu_gpu_sim::kernel::KernelSpec;
pub use convgpu_gpu_sim::latency::LatencyModel;
pub use convgpu_gpu_sim::memory::DevicePtr;
pub use convgpu_gpu_sim::program::{FnProgram, GpuProgram};
pub use convgpu_gpu_sim::props::DeviceProperties;
pub use convgpu_gpu_sim::runtime::RawCudaRuntime;
use convgpu_gpu_sim::stream::{EventId, StreamId};

// ---- container-rt ---------------------------------------------------
pub use convgpu_container_rt::engine::EngineConfig;

// ---- ipc ------------------------------------------------------------
pub use convgpu_ipc::binary::{encode_with, read_auto, WireCodec};
pub use convgpu_ipc::client::SchedulerClient;
pub use convgpu_ipc::endpoint::{IpcResult, SchedulerEndpoint};
use convgpu_ipc::message::TopologyDevice;
pub use convgpu_ipc::message::{AllocDecision, ApiKind, Envelope, Request, Response};
use convgpu_ipc::server::ConnId;
pub use convgpu_ipc::server::{Reply, RequestHandler, SocketServer};
pub use convgpu_ipc::transport::EndpointAddr;

// ---- scheduler ------------------------------------------------------
pub use convgpu_scheduler::backend::{SchedulerBackend, TopologyBackend};
pub use convgpu_scheduler::cluster::SwarmStrategy;
pub use convgpu_scheduler::core::{
    AllocOutcome, ResumeAction, SchedError, Scheduler, SchedulerConfig,
};
pub use convgpu_scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
pub use convgpu_scheduler::policy::PolicyKind;
pub use convgpu_scheduler::state::ContainerState;

// ---- wrapper --------------------------------------------------------
pub use convgpu_wrapper::module::WrapperModule;

// ---- core -----------------------------------------------------------
pub use convgpu_core::handler::ServiceHandler;
pub use convgpu_core::journal::{Journal, JournalConfig, JournalOp, RecoveredHome};
pub use convgpu_core::middleware::{ConVGpu, ConVGpuConfig, TransportMode};
pub use convgpu_core::nvidia_docker::RunCommand;
pub use convgpu_core::router::{ClusterRouter, RouterConfig, RouterHandler};
pub use convgpu_core::service::{InProcEndpoint, SchedulerService};

/// Paper Table III GPU-memory limits: nano … xlarge, 128 MiB … 4 GiB.
pub fn table3_limit(index: u64) -> Bytes {
    Bytes::mib(128 << (index % 6))
}

/// The container a request concerns (0 for container-less requests such
/// as `ping` and `query_topology`, which the span stitcher ignores).
pub fn request_container(req: &Request) -> u64 {
    match req {
        Request::Register { container, .. }
        | Request::RequestDir { container }
        | Request::AllocRequest { container, .. }
        | Request::AllocDone { container, .. }
        | Request::AllocFailed { container, .. }
        | Request::Free { container, .. }
        | Request::MemInfo { container, .. }
        | Request::ProcessExit { container, .. }
        | Request::ContainerClose { container }
        | Request::QueryHome { container }
        | Request::Migrate { container, .. } => container.as_u64(),
        Request::Ping
        | Request::QueryMetrics
        | Request::QueryTopology
        | Request::QueryCluster
        | Request::QueryMigrations => 0,
    }
}

/// A plausible reply for a recorded request, so the codec probes run
/// over a request *and* response corpus of the workload's own mix.
pub fn response_for(req: &Request) -> Response {
    match req {
        Request::AllocRequest { .. } => Response::Alloc {
            decision: AllocDecision::Granted,
        },
        Request::Free { .. } => Response::Freed {
            size: Bytes::mib(32),
        },
        Request::MemInfo { .. } => Response::MemInfo {
            free: Bytes::mib(700),
            total: Bytes::gib(1),
        },
        Request::RequestDir { container } => Response::Dir {
            path: format!("benchmark/out/tmp/{container}"),
        },
        Request::Ping => Response::Pong,
        _ => Response::Ok,
    }
}

/// Make the endpoint call a recorded request stands for (the in-process
/// probe replays a socket run's corpus this way). Results are dropped.
pub fn replay_request(endpoint: &dyn SchedulerEndpoint, req: &Request) {
    match req {
        Request::Register { container, limit } => {
            let _ = endpoint.register(*container, *limit);
        }
        Request::RequestDir { container } => {
            let _ = endpoint.request_dir(*container);
        }
        Request::AllocRequest {
            container,
            pid,
            size,
            api,
        } => {
            let _ = endpoint.request_alloc(*container, *pid, *size, *api);
        }
        Request::AllocDone {
            container,
            pid,
            addr,
            size,
        } => {
            let _ = endpoint.alloc_done(*container, *pid, *addr, *size);
        }
        Request::AllocFailed {
            container,
            pid,
            size,
        } => {
            let _ = endpoint.alloc_failed(*container, *pid, *size);
        }
        Request::Free {
            container,
            pid,
            addr,
        } => {
            let _ = endpoint.free(*container, *pid, *addr);
        }
        Request::MemInfo { container, pid } => {
            let _ = endpoint.mem_info(*container, *pid);
        }
        Request::ProcessExit { container, pid } => {
            let _ = endpoint.process_exit(*container, *pid);
        }
        Request::ContainerClose { container } => {
            let _ = endpoint.container_close(*container);
        }
        _ => {
            let _ = endpoint.ping();
        }
    }
}

// =====================================================================
// Span decorators (traced runs only; untraced runs never construct them)
// =====================================================================

/// `CudaApi` decorator: one span per Table II call. Wraps the
/// `WrapperModule` (`cuda_call`, the root span of an op) and the raw
/// runtime handed to it (`device_call`).
pub struct TracedCuda {
    inner: Arc<dyn CudaApi>,
    tracer: Arc<Tracer>,
    name: &'static str,
    container: u64,
}

impl TracedCuda {
    /// Record `name` spans for `container` around `inner`.
    pub fn wrap(
        inner: Arc<dyn CudaApi>,
        tracer: &Arc<Tracer>,
        name: &'static str,
        container: ContainerId,
    ) -> Arc<dyn CudaApi> {
        Arc::new(TracedCuda {
            inner,
            tracer: Arc::clone(tracer),
            name,
            container: container.as_u64(),
        })
    }

    fn span<T>(&self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = self.tracer.now_ns();
        let out = f();
        self.tracer.record(self.name, kind, self.container, t0);
        out
    }
}

impl CudaApi for TracedCuda {
    fn cuda_malloc(&self, pid: Pid, size: Bytes) -> CudaResult<DevicePtr> {
        self.span("cudaMalloc", || self.inner.cuda_malloc(pid, size))
    }
    fn cuda_malloc_pitch(
        &self,
        pid: Pid,
        width: Bytes,
        height: u64,
    ) -> CudaResult<(DevicePtr, Bytes)> {
        self.span("cudaMallocPitch", || {
            self.inner.cuda_malloc_pitch(pid, width, height)
        })
    }
    fn cuda_malloc_3d(&self, pid: Pid, extent: Extent3D) -> CudaResult<PitchedPtr> {
        self.span("cudaMalloc3D", || self.inner.cuda_malloc_3d(pid, extent))
    }
    fn cuda_malloc_managed(&self, pid: Pid, size: Bytes) -> CudaResult<DevicePtr> {
        self.span("cudaMallocManaged", || {
            self.inner.cuda_malloc_managed(pid, size)
        })
    }
    fn cuda_free(&self, pid: Pid, ptr: DevicePtr) -> CudaResult<()> {
        self.span("cudaFree", || self.inner.cuda_free(pid, ptr))
    }
    fn cuda_mem_get_info(&self, pid: Pid) -> CudaResult<(Bytes, Bytes)> {
        self.span("cudaMemGetInfo", || self.inner.cuda_mem_get_info(pid))
    }
    fn cuda_get_device_properties(&self, pid: Pid) -> CudaResult<DeviceProperties> {
        self.span("cudaGetDeviceProperties", || {
            self.inner.cuda_get_device_properties(pid)
        })
    }
    fn cuda_register_fat_binary(&self, pid: Pid) -> CudaResult<()> {
        self.span("registerFatBinary", || {
            self.inner.cuda_register_fat_binary(pid)
        })
    }
    fn cuda_unregister_fat_binary(&self, pid: Pid) -> CudaResult<()> {
        self.span("unregisterFatBinary", || {
            self.inner.cuda_unregister_fat_binary(pid)
        })
    }

    // The data path is not on the allocation path: straight through.
    fn cuda_memcpy(&self, pid: Pid, kind: MemcpyKind, bytes: Bytes) -> CudaResult<()> {
        self.inner.cuda_memcpy(pid, kind, bytes)
    }
    fn cuda_memcpy_2d(
        &self,
        pid: Pid,
        kind: MemcpyKind,
        width: Bytes,
        height: u64,
    ) -> CudaResult<()> {
        self.inner.cuda_memcpy_2d(pid, kind, width, height)
    }
    fn cuda_memset(&self, pid: Pid, bytes: Bytes) -> CudaResult<()> {
        self.inner.cuda_memset(pid, bytes)
    }
    fn cuda_launch_kernel(&self, pid: Pid, kernel: &KernelSpec) -> CudaResult<()> {
        self.inner.cuda_launch_kernel(pid, kernel)
    }
    fn cuda_device_synchronize(&self, pid: Pid) -> CudaResult<()> {
        self.inner.cuda_device_synchronize(pid)
    }
    fn cuda_stream_create(&self, pid: Pid) -> CudaResult<StreamId> {
        self.inner.cuda_stream_create(pid)
    }
    fn cuda_stream_destroy(&self, pid: Pid, stream: StreamId) -> CudaResult<()> {
        self.inner.cuda_stream_destroy(pid, stream)
    }
    fn cuda_launch_kernel_async(
        &self,
        pid: Pid,
        stream: StreamId,
        kernel: &KernelSpec,
    ) -> CudaResult<()> {
        self.inner.cuda_launch_kernel_async(pid, stream, kernel)
    }
    fn cuda_memcpy_async(
        &self,
        pid: Pid,
        stream: StreamId,
        kind: MemcpyKind,
        bytes: Bytes,
    ) -> CudaResult<()> {
        self.inner.cuda_memcpy_async(pid, stream, kind, bytes)
    }
    fn cuda_stream_synchronize(&self, pid: Pid, stream: StreamId) -> CudaResult<()> {
        self.inner.cuda_stream_synchronize(pid, stream)
    }
    fn cuda_event_create(&self, pid: Pid) -> CudaResult<EventId> {
        self.inner.cuda_event_create(pid)
    }
    fn cuda_event_destroy(&self, pid: Pid, event: EventId) -> CudaResult<()> {
        self.inner.cuda_event_destroy(pid, event)
    }
    fn cuda_event_record(&self, pid: Pid, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.inner.cuda_event_record(pid, event, stream)
    }
    fn cuda_event_synchronize(&self, pid: Pid, event: EventId) -> CudaResult<()> {
        self.inner.cuda_event_synchronize(pid, event)
    }
    fn cuda_event_elapsed(
        &self,
        pid: Pid,
        start: EventId,
        end: EventId,
    ) -> CudaResult<SimDuration> {
        self.inner.cuda_event_elapsed(pid, start, end)
    }
}

/// `SchedulerEndpoint` decorator: one `endpoint_call` span per request,
/// labelled with the request kind, plus call and error counts.
pub struct TracedEndpoint {
    inner: Arc<dyn SchedulerEndpoint>,
    tracer: Arc<Tracer>,
    calls: AtomicU64,
    errors: AtomicU64,
}

impl TracedEndpoint {
    /// Wrap `inner`.
    pub fn wrap(inner: Arc<dyn SchedulerEndpoint>, tracer: &Arc<Tracer>) -> Arc<TracedEndpoint> {
        Arc::new(TracedEndpoint {
            inner,
            tracer: Arc::clone(tracer),
            calls: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        })
    }

    /// `(requests sent, requests that ended in an IpcError)`.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
        )
    }

    fn span<T>(
        &self,
        kind: &'static str,
        container: ContainerId,
        f: impl FnOnce() -> IpcResult<T>,
    ) -> IpcResult<T> {
        let t0 = self.tracer.now_ns();
        let out = f();
        self.tracer
            .record("endpoint_call", kind, container.as_u64(), t0);
        self.calls.fetch_add(1, Ordering::Relaxed);
        if out.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

impl SchedulerEndpoint for TracedEndpoint {
    fn register(&self, c: ContainerId, limit: Bytes) -> IpcResult<()> {
        self.span("register", c, || self.inner.register(c, limit))
    }
    fn request_dir(&self, c: ContainerId) -> IpcResult<String> {
        self.span("request_dir", c, || self.inner.request_dir(c))
    }
    fn request_alloc(
        &self,
        c: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
    ) -> IpcResult<AllocDecision> {
        self.span("alloc_request", c, || {
            self.inner.request_alloc(c, pid, size, api)
        })
    }
    fn alloc_done(&self, c: ContainerId, pid: u64, addr: u64, size: Bytes) -> IpcResult<()> {
        self.span("alloc_done", c, || {
            self.inner.alloc_done(c, pid, addr, size)
        })
    }
    fn alloc_failed(&self, c: ContainerId, pid: u64, size: Bytes) -> IpcResult<()> {
        self.span("alloc_failed", c, || self.inner.alloc_failed(c, pid, size))
    }
    fn free(&self, c: ContainerId, pid: u64, addr: u64) -> IpcResult<Bytes> {
        self.span("free", c, || self.inner.free(c, pid, addr))
    }
    fn mem_info(&self, c: ContainerId, pid: u64) -> IpcResult<(Bytes, Bytes)> {
        self.span("mem_info", c, || self.inner.mem_info(c, pid))
    }
    fn process_exit(&self, c: ContainerId, pid: u64) -> IpcResult<()> {
        self.span("process_exit", c, || self.inner.process_exit(c, pid))
    }
    fn container_close(&self, c: ContainerId) -> IpcResult<()> {
        self.span("container_close", c, || self.inner.container_close(c))
    }
    fn ping(&self) -> IpcResult<()> {
        self.inner.ping()
    }
    fn query_topology(&self) -> IpcResult<(String, Vec<TopologyDevice>)> {
        self.inner.query_topology()
    }
    fn query_home(&self, c: ContainerId) -> IpcResult<(String, u64)> {
        self.inner.query_home(c)
    }
}

/// How many requests a `TracedHandler` keeps for the codec and
/// in-process probes.
pub const CORPUS_CAP: usize = 16_384;

/// `RequestHandler` decorator: one span per request around the inner
/// handler's `on_request` (lock wait + decision + reply write), and the
/// first [`CORPUS_CAP`] requests as the probe corpus.
pub struct TracedHandler {
    inner: Arc<dyn RequestHandler>,
    tracer: Arc<Tracer>,
    name: &'static str,
    corpus: Option<Mutex<Vec<Request>>>,
}

impl TracedHandler {
    /// Wrap `inner`, naming its spans `name` (`handler` for the first
    /// server hop, `node_handler` for a node behind the router).
    pub fn wrap(
        inner: Arc<dyn RequestHandler>,
        tracer: &Arc<Tracer>,
        name: &'static str,
        keep_corpus: bool,
    ) -> Arc<TracedHandler> {
        Arc::new(TracedHandler {
            inner,
            tracer: Arc::clone(tracer),
            name,
            corpus: keep_corpus.then(|| Mutex::new(Vec::with_capacity(CORPUS_CAP))),
        })
    }

    /// Take the recorded request corpus (empty when none was kept).
    pub fn take_corpus(&self) -> Vec<Request> {
        match &self.corpus {
            Some(c) => std::mem::take(&mut *c.lock().expect("corpus lock")),
            None => Vec::new(),
        }
    }
}

impl RequestHandler for TracedHandler {
    fn on_request(&self, conn: ConnId, req: Request, reply: Reply) {
        let kind = req.kind();
        let container = request_container(&req);
        if let Some(corpus) = &self.corpus {
            let mut c = corpus.lock().expect("corpus lock");
            if c.len() < CORPUS_CAP {
                c.push(req.clone());
            }
        }
        let t0 = self.tracer.now_ns();
        self.inner.on_request(conn, req, reply);
        self.tracer.record(self.name, kind, container, t0);
    }

    fn on_disconnect(&self, conn: ConnId) {
        self.inner.on_disconnect(conn);
    }
}

/// Answers every request with `Pong` at once: the transport probe's
/// server side (bare forwarding, smallest frame, no scheduler).
pub struct EchoHandler;

impl RequestHandler for EchoHandler {
    fn on_request(&self, _conn: ConnId, _req: Request, reply: Reply) {
        reply.send(Response::Pong);
    }
}

// =====================================================================
// Stack builders: each composes public items exactly as the repo's own
// front ends do, with an optional handler decorator slipped in.
// =====================================================================

/// The scheduler configuration every live workload uses: the paper's
/// 66 MiB context charge and full-guarantee resume rule on `capacity`.
pub fn sched_config(capacity: Bytes) -> SchedulerConfig {
    SchedulerConfig::with_capacity(capacity)
}

/// A simulated K20m plus the raw runtime on it, with zero modelled
/// latency on the real clock, so only the program's own work is timed.
pub fn raw_runtime() -> (Arc<GpuDevice>, Arc<RawCudaRuntime>) {
    let device = Arc::new(GpuDevice::tesla_k20m());
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::clone(&device),
        LatencyModel::zero(),
        RealClock::handle(),
    ));
    (device, raw)
}

/// A served scheduler: the service, the socket server in front of it and
/// (traced runs) the decorator around its handler.
pub struct ServedService {
    /// The live scheduler service.
    pub service: Arc<SchedulerService>,
    /// Its socket server; `shutdown` it when done.
    pub server: SocketServer,
    /// The handler decorator, when tracing.
    pub traced: Option<Arc<TracedHandler>>,
}

/// `SchedulerService::new_with_backend` + `ServiceHandler` +
/// `SocketServer::bind_endpoint` — what `NodeServer::serve_endpoint` and
/// the daemon do — with the handler optionally wrapped for spans.
pub fn serve_backend(
    backend: TopologyBackend,
    base_dir: &Path,
    socket: &Path,
    trace: Option<(&Arc<Tracer>, &'static str, bool)>,
) -> std::io::Result<ServedService> {
    std::fs::create_dir_all(base_dir)?;
    let service = Arc::new(SchedulerService::new_with_backend(
        backend,
        RealClock::handle(),
        base_dir.to_path_buf(),
    ));
    let handler: Arc<dyn RequestHandler> = Arc::new(ServiceHandler::new(Arc::clone(&service)));
    let (handler, traced) = match trace {
        Some((tracer, name, keep_corpus)) => {
            let t = TracedHandler::wrap(handler, tracer, name, keep_corpus);
            (Arc::clone(&t) as Arc<dyn RequestHandler>, Some(t))
        }
        None => (handler, None),
    };
    let server = SocketServer::bind_endpoint(&EndpointAddr::from(socket), handler)?;
    Ok(ServedService {
        service,
        server,
        traced,
    })
}

/// A single-GPU backend on the paper's 5 GiB card.
pub fn single_gpu_backend(policy: PolicyKind, seed: u64) -> TopologyBackend {
    TopologyBackend::Single(Scheduler::new(
        sched_config(Bytes::gib(5)),
        policy.build(seed),
    ))
}

/// A node backend: `devices` × 5 GiB behind best-fit-device placement,
/// as `convgpu-cli cluster serve-node` builds it.
pub fn multi_gpu_backend(devices: usize, seed: u64) -> TopologyBackend {
    TopologyBackend::MultiGpu(multi_gpu_scheduler(devices, seed))
}

/// The bare multi-GPU scheduler (placement probe).
pub fn multi_gpu_scheduler(devices: usize, seed: u64) -> MultiGpuScheduler {
    MultiGpuScheduler::with_config(
        sched_config(Bytes::gib(5)),
        &vec![Bytes::gib(5); devices],
        PolicyKind::BestFit,
        PlacementPolicy::BestFitDevice,
        seed,
    )
}

/// Serve `router` on `socket` through `RouterHandler` (what
/// `ClusterRouter::serve_on` does), optionally decorated.
pub fn serve_router(
    router: &Arc<ClusterRouter>,
    socket: &Path,
    trace: Option<&Arc<Tracer>>,
) -> std::io::Result<(SocketServer, Option<Arc<TracedHandler>>)> {
    let handler: Arc<dyn RequestHandler> = Arc::new(RouterHandler::new(Arc::clone(router)));
    let (handler, traced) = match trace {
        Some(tracer) => {
            let t = TracedHandler::wrap(handler, tracer, "handler", true);
            (Arc::clone(&t) as Arc<dyn RequestHandler>, Some(t))
        }
        None => (handler, None),
    };
    let server = SocketServer::bind_endpoint(&EndpointAddr::from(socket), handler)?;
    Ok((server, traced))
}

/// The whole front end for lifecycle churn: UNIX-socket transport, zero
/// modelled latency and a zero-cost container engine.
pub fn start_convgpu(base_dir: &Path) -> std::io::Result<ConVGpu> {
    ConVGpu::start(ConVGpuConfig {
        latency: LatencyModel::zero(),
        transport: TransportMode::UnixSocket,
        base_dir: Some(base_dir.to_path_buf()),
        engine: EngineConfig {
            creation_cost: SimDuration::ZERO,
            per_volume_cost: SimDuration::ZERO,
            per_device_cost: SimDuration::ZERO,
            start_cost: SimDuration::ZERO,
        },
        ..ConVGpuConfig::default()
    })
}
