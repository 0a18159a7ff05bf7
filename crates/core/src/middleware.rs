//! [`ConVGpu`] — the assembled middleware.
//!
//! `ConVGpu::start` stands up the whole of the paper's Fig. 2 in one call:
//! the simulated GPU + raw CUDA runtime, the container engine, the GPU
//! memory scheduler service (behind one real UNIX socket by default —
//! one listener per daemon, hard-linked into each live container's
//! volume), and the customized nvidia-docker front end with the dummy
//! volume's driver, which closes a container with the scheduler when the
//! engine stops it.
//! `ConVGpu::run_container` then does what `nvidia-docker run image` did
//! on the paper's testbed: registers, creates, starts, and executes the
//! given [`GpuProgram`] inside the container, with its CUDA calls bound
//! through the `LD_PRELOAD` resolution rules. The container's process is
//! a job on a reused thread ([`ThreadPool`]): one parked since an earlier
//! container exited, or a new one when none is.

use crate::handler::ServiceHandler;
use crate::nvidia_docker::{NvidiaDocker, NvidiaDockerError, RunCommand};
use crate::service::{InProcEndpoint, SchedulerService};
use convgpu_container_rt::engine::{Engine, EngineConfig};
use convgpu_container_rt::image::Image;
use convgpu_gpu_sim::api::CudaApi;
use convgpu_gpu_sim::device::{DeviceConfig, GpuDevice};
use convgpu_gpu_sim::error::{CudaError, CudaResult};
use convgpu_gpu_sim::latency::LatencyModel;
use convgpu_gpu_sim::program::GpuProgram;
use convgpu_gpu_sim::runtime::RawCudaRuntime;
use convgpu_ipc::client::SchedulerClient;
use convgpu_ipc::server::SocketServer;
use convgpu_obs::ObsHook;
use convgpu_scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
use convgpu_scheduler::metrics::{self, ContainerMetrics};
use convgpu_scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_scheduler::state::ContainerState;
use convgpu_sim_core::clock::{ClockHandle, RealClock};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::pool::ThreadPool;
use convgpu_sim_core::sync::OneShot;
use convgpu_sim_core::units::Bytes;
use convgpu_wrapper::module::WrapperModule;
use convgpu_wrapper::preload::{resolve_runtime, LinkSpec, ProcessEnv};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How wrapper modules reach the scheduler: the paper's one way, a UNIX
/// domain socket with JSON framing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportMode {
    /// Real UNIX domain sockets with JSON framing.
    UnixSocket,
}

/// The GPU topology the scheduler service manages.
///
/// The wrapper/engine side of the middleware always executes against the
/// single simulated device; the *scheduler* side can model larger
/// deployments (the paper's §V future work), and the whole IPC stack —
/// sockets, codecs, suspension — serves them unchanged.
#[derive(Clone, Debug)]
pub enum TopologySpec {
    /// One GPU — the paper's deployment and the default. Capacity comes
    /// from [`ConVGpuConfig::device`].
    SingleGpu,
    /// One host, several GPUs behind a placement policy.
    MultiGpu {
        /// Per-device capacities (one scheduler per entry).
        capacities: Vec<Bytes>,
        /// Device placement policy.
        placement: PlacementPolicy,
    },
}

/// Middleware configuration.
#[derive(Clone, Debug)]
pub struct ConVGpuConfig {
    /// Simulated GPU (default: the paper's Tesla K20m).
    pub device: DeviceConfig,
    /// Per-call device latency model (default: K20m calibration).
    pub latency: LatencyModel,
    /// Redistribution policy (default: Best-Fit, the paper's winner).
    pub policy: PolicyKind,
    /// Seed for the Random policy.
    pub policy_seed: u64,
    /// Wall seconds per workload second (default 1.0; examples compress
    /// with 0.001 so a "45 s" container runs in 45 ms).
    pub time_scale: f64,
    /// Wrapper↔scheduler transport: it has one value, and names it for
    /// callers that spell it out.
    pub transport: TransportMode,
    /// Directory for the daemon socket (`convgpu.sock`) and the live
    /// containers' volume directories (default: a fresh directory under
    /// the system temp dir). A UNIX socket address holds ~107 bytes: a
    /// `base_dir` too long for `<base_dir>/convgpu.sock` fails `start`,
    /// and one too long for the link a container dials,
    /// `<base_dir>/cnt-NNNN/convgpu.sock`, fails each `run_container`
    /// before the container is created.
    pub base_dir: Option<PathBuf>,
    /// Container engine cost model.
    pub engine: EngineConfig,
    /// NVIDIA driver version string used in volume names.
    pub driver_version: String,
    /// Scheduler topology (default: the paper's single GPU).
    pub topology: TopologySpec,
}

impl Default for ConVGpuConfig {
    fn default() -> Self {
        ConVGpuConfig {
            device: DeviceConfig::default(),
            latency: LatencyModel::tesla_k20m(),
            policy: PolicyKind::BestFit,
            policy_seed: 0x5eed,
            time_scale: 1.0,
            transport: TransportMode::UnixSocket,
            base_dir: None,
            engine: EngineConfig::default(),
            driver_version: "375.51".into(),
            topology: TopologySpec::SingleGpu,
        }
    }
}

static INSTANCE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A running container session: where the program's result arrives.
pub struct Session {
    /// The container executing the program.
    pub container: ContainerId,
    result: OneShot<CudaResult<()>>,
}

impl Session {
    /// Wait for the program to finish; returns its result. The container
    /// is stopped and closed with the scheduler — its memory released —
    /// regardless of the outcome, and the program and its wrapper — with
    /// it the container's socket connection — are gone when this returns.
    /// A program that panicked yields `LaunchFailure`.
    pub fn wait(self) -> CudaResult<()> {
        self.result.recv().unwrap_or(Err(CudaError::LaunchFailure))
    }
}

/// The container `id`'s process: a pid, the program between the implicit
/// fat-binary registration and unregistration, and the container's stop
/// with the program's exit code, which closes it. A program that panics
/// dies like a killed process: the device reclaims its context, the
/// container stops with a non-zero code, and the result is
/// `LaunchFailure`. Consumes `api` and `program`, so the wrapper — and a
/// socket it holds — is dropped on return.
fn run_process(
    engine: &Engine,
    device: &GpuDevice,
    id: ContainerId,
    api: Arc<dyn CudaApi>,
    mut program: Box<dyn GpuProgram>,
    clock: &ClockHandle,
) -> CudaResult<()> {
    let pid = engine.spawn_pid(id).map_err(|_| CudaError::LaunchFailure)?;
    let _ = api.cuda_register_fat_binary(pid);
    let result = match catch_unwind(AssertUnwindSafe(|| program.run(&*api, pid, clock))) {
        Ok(result) => {
            // Implicit at process exit even when the program errored.
            let _ = api.cuda_unregister_fat_binary(pid);
            result
        }
        Err(_) => {
            // A crashed process runs no exit handler.
            device.destroy_context(pid);
            Err(CudaError::LaunchFailure)
        }
    };
    let exit_code = if result.is_ok() { 0 } else { 1 };
    let _ = engine.stop(id, exit_code);
    result
}

/// The assembled middleware.
pub struct ConVGpu {
    clock: ClockHandle,
    device: Arc<GpuDevice>,
    raw: Arc<RawCudaRuntime>,
    engine: Arc<Engine>,
    service: Arc<SchedulerService>,
    nvidia_docker: NvidiaDocker,
    /// The daemon's one listener.
    server: SocketServer,
    /// Runs the containers' programs; dropping it ends the parked threads.
    programs: ThreadPool,
    /// Multi-device topologies answer `cudaGetDeviceProperties` from the
    /// container's home device.
    device_aware_props: bool,
}

impl ConVGpu {
    /// Stand up the middleware.
    pub fn start(cfg: ConVGpuConfig) -> std::io::Result<ConVGpu> {
        let clock: ClockHandle = Arc::new(RealClock::scaled(cfg.time_scale));
        let device = Arc::new(GpuDevice::new(cfg.device.clone()));
        let raw = Arc::new(RawCudaRuntime::new(
            Arc::clone(&device),
            cfg.latency.clone(),
            Arc::clone(&clock),
        ));
        let engine = Arc::new(Engine::new(cfg.engine.clone(), Arc::clone(&clock)));
        // Stock images so examples work out of the box.
        engine.add_image(Image::cuda("cuda-app", "latest", "8.0"));
        engine.add_image(Image::cuda("tensorflow", "1.2", "8.0"));

        let base_dir = cfg.base_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "convgpu-{}-{}",
                std::process::id(),
                INSTANCE_COUNTER.fetch_add(1, Ordering::Relaxed)
            ))
        });
        std::fs::create_dir_all(&base_dir)?;
        let sched_cfg = SchedulerConfig::with_capacity(device.capacity());
        let backend = match &cfg.topology {
            TopologySpec::SingleGpu => TopologyBackend::Single(Scheduler::new(
                sched_cfg,
                cfg.policy.build(cfg.policy_seed),
            )),
            TopologySpec::MultiGpu {
                capacities,
                placement,
            } => TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
                sched_cfg,
                capacities,
                cfg.policy,
                *placement,
                cfg.policy_seed,
            )),
        };
        let service = Arc::new(SchedulerService::new_with_backend(
            backend,
            Arc::clone(&clock),
            base_dir,
        ));
        // One listener for the daemon's whole life; `request_dir` links it
        // into each container's volume.
        let server = SocketServer::bind_with_obs(
            &service.daemon_socket(),
            Arc::new(ServiceHandler::new(Arc::clone(&service))),
            Some(ObsHook {
                registry: Arc::clone(&service.obs().registry),
                clock: Arc::clone(&clock),
            }),
        )?;
        let nvidia_docker = NvidiaDocker::new(
            Arc::clone(&engine),
            Arc::new(InProcEndpoint::new(Arc::clone(&service))),
            cfg.driver_version.clone(),
        );
        Ok(ConVGpu {
            clock,
            device,
            raw,
            engine,
            service,
            nvidia_docker,
            server,
            programs: ThreadPool::new("convgpu-program"),
            device_aware_props: !matches!(cfg.topology, TopologySpec::SingleGpu),
        })
    }

    /// The session clock (workload time).
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// The simulated GPU.
    pub fn device(&self) -> &Arc<GpuDevice> {
        &self.device
    }

    /// The container engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The scheduler service.
    pub fn service(&self) -> &Arc<SchedulerService> {
        &self.service
    }

    /// The daemon socket — the operator's channel (`query_metrics`,
    /// `query_topology`, …) whether or not any container is alive.
    pub fn socket_path(&self) -> &Path {
        self.server.path()
    }

    /// The customized nvidia-docker front end (for command rewriting
    /// without program execution, e.g. the Fig. 5 creation benchmark).
    pub fn nvidia_docker(&self) -> &NvidiaDocker {
        &self.nvidia_docker
    }

    /// Register an additional image.
    pub fn add_image(&self, image: Image) {
        self.engine.add_image(image);
    }

    /// Run `program` inside a ConVGPU-managed container (the
    /// `nvidia-docker run` path). Returns a [`Session`]. On an error the
    /// container is stopped and closed: its reservation is released.
    pub fn run_container(
        &self,
        cmd: RunCommand,
        program: Box<dyn GpuProgram>,
    ) -> Result<Session, NvidiaDockerError> {
        let id = self.nvidia_docker.run(&cmd)?.id;
        self.launch(id, program)
            .inspect_err(|_| self.nvidia_docker.discard(id))
    }

    /// Execute `program` in the started container `id`, its CUDA calls
    /// bound to a wrapper module that talks to the scheduler.
    fn launch(
        &self,
        id: ContainerId,
        program: Box<dyn GpuProgram>,
    ) -> Result<Session, NvidiaDockerError> {
        // Build the endpoint the wrapper will use: it dials the socket in
        // its own volume, as the module inside a real container would.
        let obs = ObsHook {
            registry: Arc::clone(&self.service.obs().registry),
            clock: Arc::clone(&self.clock),
        };
        let endpoint =
            SchedulerClient::connect_with_obs(&self.service.socket_path(id), Some(obs.clone()))
                .map_err(NvidiaDockerError::Ipc)?;
        let mut module = WrapperModule::new(
            id,
            Arc::clone(&self.raw) as Arc<dyn CudaApi>,
            Arc::new(endpoint),
        )
        .with_obs(obs);
        if self.device_aware_props {
            module = module.with_device_aware_props();
        }
        let wrapper: Arc<dyn CudaApi> = Arc::new(module);
        // Bind the program's CUDA symbols per the LD_PRELOAD rules.
        let container = self.engine.inspect(id).map_err(NvidiaDockerError::Engine)?;
        let env =
            ProcessEnv::from_ld_preload(container.options.env_get("LD_PRELOAD").unwrap_or(""));
        let link = LinkSpec {
            cudart_shared: program.link().cudart_shared,
        };
        let api = resolve_runtime(&env, link, wrapper, Arc::clone(&self.raw) as _);
        Ok(self.start_program(id, api, program))
    }

    /// Run `program` in a container *without* ConVGPU management — the
    /// paper's baseline ("without the solution"). The program talks to
    /// the raw runtime; the scheduler never hears about it.
    pub fn run_container_unmanaged(
        &self,
        cmd: RunCommand,
        program: Box<dyn GpuProgram>,
    ) -> Result<Session, NvidiaDockerError> {
        let id = self.nvidia_docker.run_unmanaged(&cmd)?;
        Ok(self.start_program(id, Arc::clone(&self.raw) as _, program))
    }

    /// Start the container `id`'s process on a program thread: `program`
    /// runs against `api`, and its result arrives at the [`Session`].
    fn start_program(
        &self,
        id: ContainerId,
        api: Arc<dyn CudaApi>,
        program: Box<dyn GpuProgram>,
    ) -> Session {
        let engine = Arc::clone(&self.engine);
        let device = Arc::clone(&self.device);
        let clock = Arc::clone(&self.clock);
        let (tx, result) = OneShot::channel();
        self.programs.run(move || {
            // `api` and `program` are gone before the result is sent.
            tx.send(run_process(&engine, &device, id, api, program, &clock));
        });
        Session {
            container: id,
            result,
        }
    }

    /// Block until the scheduler has processed the close signal for `id`;
    /// `false` on timeout. The close is part of the engine's stop, so a
    /// container whose [`Session::wait`] or `Engine::stop` has returned
    /// is closed already and this returns on its first scan.
    pub fn wait_closed(&self, id: ContainerId, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            // Scan every device: placement may have homed the container
            // off the primary.
            let closed = self.service.with_backend(|b| {
                b.device_schedulers().iter().any(|s| {
                    s.container(id)
                        .map(|r| r.state == ContainerState::Closed)
                        .unwrap_or(false)
                })
            });
            if closed {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The most recent `limit` scheduler decisions of every device,
    /// merged by time and rendered for humans (the operator's
    /// `journalctl` view; see `convgpu_scheduler::log::DecisionLog`).
    pub fn recent_decisions(&self, limit: usize) -> Vec<String> {
        self.service.with_backend(|b| {
            let mut entries: Vec<_> = b
                .device_schedulers()
                .into_iter()
                .flat_map(|s| s.log().entries())
                .collect();
            // Stable: a device's own entries keep their order.
            entries.sort_by_key(|e| e.at);
            entries[entries.len().saturating_sub(limit)..]
                .iter()
                .map(|e| e.to_string())
                .collect()
        })
    }

    /// Per-container scheduler metrics, sorted by container id — across
    /// every device in the topology.
    pub fn metrics(&self) -> Vec<ContainerMetrics> {
        self.service.with_backend(|b| {
            let mut all: Vec<ContainerMetrics> = b
                .device_schedulers()
                .into_iter()
                .flat_map(|s| metrics::collect(s.containers()))
                .collect();
            all.sort_by_key(|m| m.id);
            all
        })
    }

    /// All middleware metrics in Prometheus text exposition format (what
    /// `QueryMetrics` returns over the wire).
    pub fn metrics_text(&self) -> String {
        self.service.metrics_text()
    }

    /// Chrome-trace JSON (trace-event array) of the retained spans —
    /// load into `chrome://tracing` or Perfetto for a per-container
    /// timeline.
    pub fn chrome_trace(&self) -> String {
        self.service.chrome_trace()
    }

    /// Stop the listener and the parked program threads — which is what
    /// dropping the middleware does.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_container_rt::container::ContainerStatus;
    use convgpu_gpu_sim::program::FnProgram;

    fn fast_cfg() -> ConVGpuConfig {
        ConVGpuConfig {
            time_scale: 0.001,
            latency: LatencyModel::zero(),
            engine: EngineConfig::instant(),
            ..ConVGpuConfig::default()
        }
    }

    fn alloc_program(mib: u64) -> Box<dyn GpuProgram> {
        Box::new(FnProgram::new("alloc", move |api, pid, _clock| {
            let p = api.cuda_malloc(pid, Bytes::mib(mib))?;
            api.cuda_free(pid, p)
        }))
    }

    /// The close is part of the stop: once a session's `wait` returns,
    /// its container reads `Closed`, with nothing to wait for.
    fn assert_closed(convgpu: &ConVGpu, id: ContainerId) {
        let state = convgpu
            .service()
            .with_scheduler(|s| s.container(id).unwrap().state);
        assert_eq!(state, ContainerState::Closed, "{id}");
    }

    #[test]
    fn managed_run_over_unix_sockets_completes() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                alloc_program(256),
            )
            .unwrap();
        let id = session.container;
        session.wait().unwrap();
        assert_closed(&convgpu, id);
        let metrics = convgpu.metrics();
        assert_eq!(metrics.len(), 1);
        assert_eq!(metrics[0].granted_allocs, 1);
        // All GPU memory back.
        let (free, total) = convgpu.device().mem_info();
        assert_eq!(free, total);
        convgpu
            .service()
            .with_scheduler(|s| s.check_invariants().unwrap());
        convgpu.shutdown();
    }

    /// Under a multi-GPU topology a container homed off device 0 still
    /// shows in the decision view, in time order with the others.
    #[test]
    fn recent_decisions_merge_every_devices_log() {
        let convgpu = ConVGpu::start(ConVGpuConfig {
            topology: TopologySpec::MultiGpu {
                capacities: vec![Bytes::gib(1), Bytes::gib(5)],
                placement: PlacementPolicy::BestFitDevice,
            },
            ..fast_cfg()
        })
        .unwrap();
        let mut ids = Vec::new();
        // 512 MiB fits device 0 most tightly; 2 GiB fits only device 1.
        for limit in ["512m", "2048m"] {
            let session = convgpu
                .run_container(
                    RunCommand::new("cuda-app").nvidia_memory(limit),
                    alloc_program(256),
                )
                .unwrap();
            ids.push(session.container);
            session.wait().unwrap();
        }
        convgpu.service().with_backend(|b| {
            let devices = b.device_schedulers();
            assert!(devices[0].container(ids[0]).is_some());
            assert!(devices[1].container(ids[1]).is_some());
        });
        let log = convgpu.recent_decisions(64);
        let at = |what: String| {
            log.iter()
                .position(|l| l.contains(&what))
                .unwrap_or_else(|| panic!("no `{what}` in {log:#?}"))
        };
        assert!(at(format!("{} closed", ids[0])) < at(format!("{} registered", ids[1])));
        let last = convgpu.recent_decisions(1);
        assert_eq!(last.len(), 1);
        assert_eq!(&last[0], log.last().unwrap());
        assert!(last[0].contains(&format!("{} closed", ids[1])), "{last:?}");
        convgpu.shutdown();
    }

    #[test]
    fn a_base_dir_too_long_for_a_socket_address_fails_at_start() {
        // `sun_path` holds ~107 bytes; the daemon socket is bound in
        // `start`, so the bind error surfaces there, not at the first
        // container.
        let base = std::env::temp_dir().join(format!("convgpu-{}", "x".repeat(100)));
        let err = ConVGpu::start(ConVGpuConfig {
            base_dir: Some(base.clone()),
            ..fast_cfg()
        })
        .err()
        .expect("bind must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let _ = std::fs::remove_dir_all(base);
    }

    /// A `base_dir` short enough for the daemon socket but too long for a
    /// container's link: the run fails, and nothing of the container
    /// stays registered, reserved or created.
    #[test]
    fn a_failed_run_releases_its_reservation() {
        let prefix = std::env::temp_dir().join("convgpu-");
        let pad = 90usize
            .checked_sub(prefix.as_os_str().len())
            .expect("temp dir short enough for a 90-byte base_dir");
        let base = PathBuf::from(format!("{}{}", prefix.display(), "x".repeat(pad)));
        assert_eq!(base.as_os_str().len(), 90);
        let convgpu = ConVGpu::start(ConVGpuConfig {
            base_dir: Some(base.clone()),
            ..fast_cfg()
        })
        .expect("the 103-byte daemon socket binds");
        let err = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                alloc_program(256),
            )
            .err()
            .expect("a 112-byte link cannot be dialled");
        assert!(matches!(err, NvidiaDockerError::Ipc(_)), "{err}");
        convgpu.service().with_backend(|b| {
            assert_eq!(b.open_containers(), 0);
            assert_eq!(b.primary().unassigned(), convgpu.device().capacity());
        });
        assert!(convgpu.engine().list().is_empty(), "nothing created");
        convgpu.shutdown();
        let _ = std::fs::remove_dir_all(base);
    }

    #[test]
    fn over_limit_program_fails_cleanly() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("128m"),
                alloc_program(512),
            )
            .unwrap();
        let id = session.container;
        let err = session.wait().unwrap_err();
        assert!(err.is_allocation_failure());
        assert_closed(&convgpu, id);
        // Exit code reflects the failure.
        let c = convgpu.engine().inspect(id).unwrap();
        assert_eq!(c.exit_code, Some(1));
        convgpu.shutdown();
    }

    #[test]
    fn statically_linked_program_bypasses_convgpu() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let program = Box::new(
            FnProgram::new("static-alloc", |api, pid, _clock| {
                let p = api.cuda_malloc(pid, Bytes::mib(256))?;
                api.cuda_free(pid, p)
            })
            .with_link(convgpu_gpu_sim::program::ProgramLink {
                cudart_shared: false,
            }),
        );
        let session = convgpu
            .run_container(RunCommand::new("cuda-app").nvidia_memory("128m"), program)
            .unwrap();
        let id = session.container;
        // The 256 MiB allocation exceeds the 128 MiB limit but SUCCEEDS:
        // static linking defeated the wrapper — the paper's pitfall.
        session.wait().unwrap();
        assert_closed(&convgpu, id);
        let metrics = convgpu.metrics();
        assert_eq!(
            metrics[0].granted_allocs, 0,
            "scheduler never saw the allocation"
        );
        convgpu.shutdown();
    }

    #[test]
    fn contention_serializes_via_suspension() {
        // 5 GiB GPU; three containers of 2 GiB each cannot all hold
        // memory at once — ConVGPU suspends, everyone completes.
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let mut sessions = Vec::new();
        for _ in 0..3 {
            // Hold long enough (20 ms wall at the 0.001 scale) that all
            // three program threads overlap even under parallel test
            // load; a 1 ms hold let early containers finish before the
            // last thread spawned, so no suspension was observed.
            let program = Box::new(FnProgram::new("hold", |api, pid, clock| {
                let p = api.cuda_malloc(pid, Bytes::mib(2048))?;
                clock.sleep(convgpu_sim_core::time::SimDuration::from_secs(20));
                api.cuda_free(pid, p)
            }));
            sessions.push(
                convgpu
                    .run_container(RunCommand::new("cuda-app").nvidia_memory("2048m"), program)
                    .unwrap(),
            );
        }
        let ids: Vec<ContainerId> = sessions.iter().map(|s| s.container).collect();
        for s in sessions {
            s.wait().unwrap();
        }
        for id in ids {
            assert_closed(&convgpu, id);
        }
        let metrics = convgpu.metrics();
        assert_eq!(metrics.iter().filter(|m| m.granted_allocs > 0).count(), 3);
        assert!(
            metrics.iter().any(|m| m.suspend_episodes > 0),
            "at least one container must have been suspended: {metrics:?}"
        );
        let (free, total) = convgpu.device().mem_info();
        assert_eq!(free, total);
        convgpu.shutdown();
    }

    #[test]
    fn sequential_containers_reuse_one_program_and_one_connection_thread() {
        use std::collections::BTreeSet;
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let threads = Arc::new(convgpu_sim_core::sync::Mutex::new(BTreeSet::new()));
        for n in 0..50 {
            // The last container's program thread and connection reader
            // park on their own time after `wait` returns: the next
            // container may only be judged once both have.
            let t0 = std::time::Instant::now();
            while n > 0 && (convgpu.programs.parked() == 0 || convgpu.server.readers_parked() == 0)
            {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "container {n}: never parked"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let threads = Arc::clone(&threads);
            let program = FnProgram::new("where", move |api, pid, _clock| {
                let me = std::fs::read_link("/proc/thread-self").unwrap();
                threads.lock().insert(me);
                let p = api.cuda_malloc(pid, Bytes::mib(64))?;
                api.cuda_free(pid, p)
            });
            let session = convgpu
                .run_container(
                    RunCommand::new("cuda-app").nvidia_memory("512m"),
                    Box::new(program),
                )
                .unwrap();
            let id = session.container;
            session.wait().unwrap();
            assert_closed(&convgpu, id);
        }
        // One container at a time: the thread whose container exited, and
        // parked, takes the next one.
        assert_eq!(threads.lock().len(), 1, "program threads for 50 containers");
        assert_eq!(
            convgpu.server.readers_spawned(),
            1,
            "connection threads for 50 containers"
        );
        convgpu.shutdown();
    }

    /// Nothing of a container outlives its stop: the record is `Closed`
    /// and the reservation released when `Engine::stop` returns (Fig. 5
    /// stops its containers that way) and when `Session::wait` does,
    /// with no polling.
    #[test]
    fn a_container_is_closed_when_stop_or_wait_returns() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let cmd = || RunCommand::new("cuda-app").nvidia_memory("512m");
        let assert_closed = |id| {
            convgpu.service().with_backend(|b| {
                assert_eq!(
                    b.primary().container(id).unwrap().state,
                    ContainerState::Closed
                );
                assert_eq!(b.open_containers(), 0);
            })
        };
        for _ in 0..20 {
            let id = convgpu.nvidia_docker().run(&cmd()).unwrap().id;
            convgpu.engine().stop(id, 0).unwrap();
            assert_closed(id);
            let session = convgpu.run_container(cmd(), alloc_program(64)).unwrap();
            let id = session.container;
            session.wait().unwrap();
            assert_closed(id);
        }
        convgpu.shutdown();
    }

    /// A program that panics holding device memory: the wrapper's exit
    /// hook never runs, so the device reclaims the pid's context (the
    /// kill path) and the container stops and closes like any other.
    fn panics_holding_memory() -> Box<dyn GpuProgram> {
        Box::new(FnProgram::new("panics", |api, pid, _clock| {
            let _held = api.cuda_malloc(pid, Bytes::mib(64))?;
            panic!("the program panics")
        }))
    }

    /// The device, the scheduler's books and the engine hold nothing of
    /// any container.
    fn assert_nothing_held(convgpu: &ConVGpu) {
        let (free, total) = convgpu.device().mem_info();
        assert_eq!(free, total, "device memory still in use");
        convgpu.service().with_backend(|b| {
            assert_eq!(b.open_containers(), 0);
            assert_eq!(b.primary().total_assigned(), Bytes::ZERO);
        });
        assert!(convgpu.engine().list().iter().all(|c| !c.is_running()));
    }

    #[test]
    fn a_panicking_program_leaks_nothing() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                panics_holding_memory(),
            )
            .unwrap();
        let id = session.container;
        assert!(matches!(session.wait(), Err(CudaError::LaunchFailure)));
        let c = convgpu.engine().inspect(id).unwrap();
        assert_eq!(c.status, ContainerStatus::Exited);
        assert_eq!(c.exit_code, Some(1));
        convgpu.service().with_scheduler(|s| {
            assert_eq!(s.container(id).unwrap().state, ContainerState::Closed);
            s.check_invariants().unwrap();
        });
        assert_nothing_held(&convgpu);
        convgpu.shutdown();
    }

    #[test]
    fn a_panicking_program_fails_its_launch_and_the_next_run_succeeds() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let cmd = || RunCommand::new("cuda-app").nvidia_memory("512m");
        let session = convgpu
            .run_container(cmd(), panics_holding_memory())
            .unwrap();
        assert!(matches!(session.wait(), Err(CudaError::LaunchFailure)));
        assert_nothing_held(&convgpu);
        let session = convgpu.run_container(cmd(), alloc_program(256)).unwrap();
        session.wait().unwrap();
        assert_nothing_held(&convgpu);
        convgpu.shutdown();
    }

    #[test]
    fn what_the_program_held_is_dropped_when_wait_returns() {
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        let held = Arc::new(());
        let captured = Arc::clone(&held);
        let program = FnProgram::new("holds", move |api, pid, _clock| {
            let _still_here = &captured;
            let p = api.cuda_malloc(pid, Bytes::mib(64))?;
            api.cuda_free(pid, p)
        });
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                Box::new(program),
            )
            .unwrap();
        session.wait().unwrap();
        assert_eq!(Arc::strong_count(&held), 1);
        convgpu.shutdown();
    }

    #[test]
    fn unmanaged_contention_can_fail() {
        // Without ConVGPU, two 3 GiB containers on a 5 GiB GPU race; the
        // loser gets cudaErrorMemoryAllocation — the paper's motivating
        // failure.
        use convgpu_sim_core::sync::{Condvar, Mutex};
        let convgpu = ConVGpu::start(fast_cfg()).unwrap();
        // Each hog counts its cuda_malloc once it has returned, and the
        // winner holds its 3 GiB until both have: the two always overlap.
        let returned = Arc::new((Mutex::new(0), Condvar::new()));
        let mk = || {
            let returned = Arc::clone(&returned);
            Box::new(FnProgram::new("hog", move |api, pid, _clock| {
                let p = api.cuda_malloc(pid, Bytes::mib(3072));
                let (count, cv) = &*returned;
                let mut n = count.lock();
                *n += 1;
                cv.notify_all();
                let p = p?;
                while *n < 2 && !cv.wait_for(&mut n, Duration::from_secs(10)) {}
                drop(n);
                api.cuda_free(pid, p)
            })) as Box<dyn GpuProgram>
        };
        let s1 = convgpu
            .run_container_unmanaged(RunCommand::new("cuda-app"), mk())
            .unwrap();
        let s2 = convgpu
            .run_container_unmanaged(RunCommand::new("cuda-app"), mk())
            .unwrap();
        let r1 = s1.wait();
        let r2 = s2.wait();
        assert!(
            r1.is_err() || r2.is_err(),
            "one container must have failed: {r1:?} {r2:?}"
        );
        convgpu.shutdown();
    }
}
