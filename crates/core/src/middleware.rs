//! [`ConVGpu`] — the assembled middleware.
//!
//! `ConVGpu::start` stands up the whole of the paper's Fig. 2 in one call:
//! the simulated GPU + raw CUDA runtime, the container engine, the GPU
//! memory scheduler service (behind one real UNIX socket by default —
//! one listener per daemon, hard-linked into each live container's
//! volume), the customized nvidia-docker front end, and the plugin that
//! converts volume-unmount events into scheduler close signals.
//! `ConVGpu::run_container` then does what `nvidia-docker run image` did
//! on the paper's testbed: registers, creates, starts, and executes the
//! given [`GpuProgram`] inside the container on its own thread, with its
//! CUDA calls bound through the `LD_PRELOAD` resolution rules.

use crate::handler::ServiceHandler;
use crate::nvidia_docker::{NvidiaDocker, NvidiaDockerError, RunCommand};
use crate::plugin::NvidiaDockerPlugin;
use crate::service::{InProcEndpoint, SchedulerService};
use convgpu_container_rt::engine::{Engine, EngineConfig};
use convgpu_container_rt::image::Image;
use convgpu_gpu_sim::api::CudaApi;
use convgpu_gpu_sim::device::{DeviceConfig, GpuDevice};
use convgpu_gpu_sim::error::CudaResult;
use convgpu_gpu_sim::latency::LatencyModel;
use convgpu_gpu_sim::program::GpuProgram;
use convgpu_gpu_sim::runtime::RawCudaRuntime;
use convgpu_ipc::client::{ClientObs, SchedulerClient};
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_ipc::server::{ServerObs, SocketServer};
use convgpu_scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu_scheduler::cluster::{ClusterNode, ClusterScheduler, SwarmStrategy};
use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
use convgpu_scheduler::metrics::{self, ContainerMetrics};
use convgpu_scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_scheduler::state::{ContainerState, ResumeRule};
use convgpu_sim_core::clock::{ClockHandle, RealClock};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;
use convgpu_wrapper::module::{WrapperModule, WrapperObs};
use convgpu_wrapper::preload::{resolve_runtime, LinkSpec, ProcessEnv};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How wrapper modules reach the scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportMode {
    /// Real UNIX domain sockets with JSON framing — the paper's design
    /// and the default.
    UnixSocket,
    /// Direct in-process calls — the `transport` ablation and fast tests.
    InProc,
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
    /// Docker-Swarm-style cluster of named nodes.
    Cluster {
        /// `(node name, per-GPU capacities)` per node.
        nodes: Vec<(String, Vec<Bytes>)>,
        /// Swarm node-selection strategy.
        strategy: SwarmStrategy,
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
    /// Resume discipline (default: the paper's full guarantee).
    pub resume_rule: ResumeRule,
    /// Charge the 66 MiB per-pid context overhead (default: true).
    pub charge_ctx_overhead: bool,
    /// Wall seconds per workload second (default 1.0; examples compress
    /// with 0.001 so a "45 s" container runs in 45 ms).
    pub time_scale: f64,
    /// Wrapper↔scheduler transport.
    pub transport: TransportMode,
    /// Directory for the daemon socket (`convgpu.sock`) and the live
    /// containers' volume directories (default: a fresh directory under
    /// the system temp dir). A UNIX socket address holds ~107 bytes and
    /// a container dials `<base_dir>/cnt-NNNN/convgpu.sock`: keep it short.
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
            resume_rule: ResumeRule::FullGuarantee,
            charge_ctx_overhead: true,
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

/// A running container session: join handle for the program thread.
pub struct Session {
    /// The container executing the program.
    pub container: ContainerId,
    handle: JoinHandle<CudaResult<()>>,
}

impl Session {
    /// Wait for the program to finish; returns its result. The container
    /// is stopped (and its memory released through the plugin) regardless
    /// of the outcome.
    pub fn wait(self) -> CudaResult<()> {
        self.handle
            .join()
            .unwrap_or(Err(convgpu_gpu_sim::error::CudaError::LaunchFailure))
    }

    /// True when the program thread has exited.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

/// The assembled middleware.
pub struct ConVGpu {
    clock: ClockHandle,
    device: Arc<GpuDevice>,
    raw: Arc<RawCudaRuntime>,
    engine: Arc<Engine>,
    service: Arc<SchedulerService>,
    nvidia_docker: NvidiaDocker,
    /// Held for its lifetime: dropping it stops the close-signal thread.
    _plugin: NvidiaDockerPlugin,
    /// The daemon's one listener; `None` under [`TransportMode::InProc`].
    server: Option<SocketServer>,
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
        let sched_cfg = SchedulerConfig {
            capacity: device.capacity(),
            ctx_overhead: Bytes::mib(66),
            charge_ctx_overhead: cfg.charge_ctx_overhead,
            resume_rule: cfg.resume_rule,
            default_limit: Bytes::gib(1),
        };
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
            TopologySpec::Cluster { nodes, strategy } => {
                TopologyBackend::Cluster(ClusterScheduler::new(
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(i, (name, caps))| {
                            ClusterNode::with_config(
                                name.clone(),
                                sched_cfg.clone(),
                                caps,
                                cfg.policy,
                                cfg.policy_seed.wrapping_add(i as u64),
                            )
                        })
                        .collect(),
                    *strategy,
                    cfg.policy_seed,
                ))
            }
        };
        let service = Arc::new(SchedulerService::new_with_backend(
            backend,
            Arc::clone(&clock),
            base_dir,
        ));
        // One listener for the daemon's whole life; `request_dir` links it
        // into each container's volume.
        let server = match cfg.transport {
            TransportMode::UnixSocket => Some(SocketServer::bind_with_obs(
                &service.daemon_socket(),
                Arc::new(ServiceHandler::new(Arc::clone(&service))),
                Some(ServerObs {
                    registry: Arc::clone(&service.obs().registry),
                    clock: Arc::clone(&clock),
                }),
            )?),
            TransportMode::InProc => None,
        };
        let frontend_endpoint: Arc<dyn SchedulerEndpoint> =
            Arc::new(InProcEndpoint::new(Arc::clone(&service)));
        let nvidia_docker = NvidiaDocker::new(
            Arc::clone(&engine),
            Arc::clone(&frontend_endpoint),
            cfg.driver_version.clone(),
        );
        let plugin = NvidiaDockerPlugin::spawn(&engine, frontend_endpoint);
        Ok(ConVGpu {
            clock,
            device,
            raw,
            engine,
            service,
            nvidia_docker,
            _plugin: plugin,
            server,
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
    /// `query_topology`, …) whether or not any container is alive;
    /// `None` under [`TransportMode::InProc`].
    pub fn socket_path(&self) -> Option<&Path> {
        self.server.as_ref().map(SocketServer::path)
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
    /// `nvidia-docker run` path). Returns a [`Session`].
    pub fn run_container(
        &self,
        cmd: RunCommand,
        mut program: Box<dyn GpuProgram>,
    ) -> Result<Session, NvidiaDockerError> {
        let prepared = self.nvidia_docker.run(&cmd)?;
        let id = prepared.id;

        // Build the endpoint the wrapper will use: it dials the socket in
        // its own volume, as the module inside a real container would.
        let registry = Arc::clone(&self.service.obs().registry);
        let endpoint: Arc<dyn SchedulerEndpoint> = match self.server {
            Some(_) => Arc::new(
                SchedulerClient::connect_with_obs(
                    &self.service.socket_path(id),
                    Some(ClientObs {
                        registry: Arc::clone(&registry),
                        clock: Arc::clone(&self.clock),
                    }),
                )
                .map_err(NvidiaDockerError::Ipc)?,
            ),
            None => Arc::new(InProcEndpoint::new(Arc::clone(&self.service))),
        };
        let mut module =
            WrapperModule::new(id, Arc::clone(&self.raw) as Arc<dyn CudaApi>, endpoint).with_obs(
                WrapperObs {
                    registry,
                    clock: Arc::clone(&self.clock),
                },
            );
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

        let engine = Arc::clone(&self.engine);
        let clock = Arc::clone(&self.clock);
        let handle = std::thread::Builder::new()
            .name(format!("convgpu-{id}"))
            .spawn(move || {
                let pid = match engine.spawn_pid(id) {
                    Ok(pid) => pid,
                    Err(_) => return Err(convgpu_gpu_sim::error::CudaError::LaunchFailure),
                };
                let _ = api.cuda_register_fat_binary(pid);
                let result = program.run(&*api, pid, &clock);
                // Implicit at process exit even when the program errored.
                let _ = api.cuda_unregister_fat_binary(pid);
                let exit_code = if result.is_ok() { 0 } else { 1 };
                let _ = engine.stop(id, exit_code);
                result
            })
            .expect("spawn container program thread");
        Ok(Session {
            container: id,
            handle,
        })
    }

    /// Run `program` in a container *without* ConVGPU management — the
    /// paper's baseline ("without the solution"). The program talks to
    /// the raw runtime; the scheduler never hears about it.
    pub fn run_container_unmanaged(
        &self,
        cmd: RunCommand,
        mut program: Box<dyn GpuProgram>,
    ) -> Result<Session, NvidiaDockerError> {
        let id = self.nvidia_docker.run_unmanaged(&cmd)?;
        let api: Arc<dyn CudaApi> = Arc::clone(&self.raw) as _;
        let engine = Arc::clone(&self.engine);
        let clock = Arc::clone(&self.clock);
        let handle = std::thread::Builder::new()
            .name(format!("convgpu-raw-{id}"))
            .spawn(move || {
                let pid = match engine.spawn_pid(id) {
                    Ok(pid) => pid,
                    Err(_) => return Err(convgpu_gpu_sim::error::CudaError::LaunchFailure),
                };
                let _ = api.cuda_register_fat_binary(pid);
                let result = program.run(&*api, pid, &clock);
                let _ = api.cuda_unregister_fat_binary(pid);
                let exit_code = if result.is_ok() { 0 } else { 1 };
                let _ = engine.stop(id, exit_code);
                result
            })
            .expect("spawn container program thread");
        Ok(Session {
            container: id,
            handle,
        })
    }

    /// Block until the scheduler has processed the close signal for `id`
    /// (the plugin delivers it asynchronously after the program thread
    /// stops the container). Returns `false` on timeout.
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

    /// The most recent scheduler decisions, rendered for humans (the
    /// operator's `journalctl` view; see
    /// `convgpu_scheduler::log::DecisionLog`).
    pub fn recent_decisions(&self, limit: usize) -> Vec<String> {
        self.service.with_scheduler(|s| {
            let len = s.log().len();
            s.log()
                .entries()
                .skip(len.saturating_sub(limit))
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

    /// Stop the plugin, then the listener — which is what dropping the
    /// fields does, in that order.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_gpu_sim::program::FnProgram;

    fn fast_cfg(transport: TransportMode) -> ConVGpuConfig {
        ConVGpuConfig {
            time_scale: 0.001,
            latency: LatencyModel::zero(),
            engine: EngineConfig::instant(),
            transport,
            ..ConVGpuConfig::default()
        }
    }

    fn alloc_program(mib: u64) -> Box<dyn GpuProgram> {
        Box::new(FnProgram::new("alloc", move |api, pid, _clock| {
            let p = api.cuda_malloc(pid, Bytes::mib(mib))?;
            api.cuda_free(pid, p)
        }))
    }

    #[test]
    fn managed_run_over_unix_sockets_completes() {
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::UnixSocket)).unwrap();
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                alloc_program(256),
            )
            .unwrap();
        let id = session.container;
        session.wait().unwrap();
        assert!(convgpu.wait_closed(id, Duration::from_secs(5)));
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

    #[test]
    fn managed_run_in_proc_completes_without_a_socket() {
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::InProc)).unwrap();
        assert_eq!(convgpu.socket_path(), None);
        assert!(!convgpu.service().daemon_socket().exists());
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("512m"),
                alloc_program(256),
            )
            .unwrap();
        // Nothing to link into the volume either.
        assert!(!convgpu.service().socket_path(session.container).exists());
        session.wait().unwrap();
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
            ..fast_cfg(TransportMode::UnixSocket)
        })
        .err()
        .expect("bind must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        let _ = std::fs::remove_dir_all(base);
    }

    #[test]
    fn over_limit_program_fails_cleanly() {
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::UnixSocket)).unwrap();
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory("128m"),
                alloc_program(512),
            )
            .unwrap();
        let id = session.container;
        let err = session.wait().unwrap_err();
        assert!(err.is_allocation_failure());
        assert!(convgpu.wait_closed(id, Duration::from_secs(5)));
        // Exit code reflects the failure.
        let c = convgpu.engine().inspect(id).unwrap();
        assert_eq!(c.exit_code, Some(1));
        convgpu.shutdown();
    }

    #[test]
    fn statically_linked_program_bypasses_convgpu() {
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::UnixSocket)).unwrap();
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
        assert!(convgpu.wait_closed(id, Duration::from_secs(5)));
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
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::UnixSocket)).unwrap();
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
            assert!(convgpu.wait_closed(id, Duration::from_secs(5)));
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
    fn unmanaged_contention_can_fail() {
        // Without ConVGPU, two 3 GiB containers on a 5 GiB GPU race; the
        // loser gets cudaErrorMemoryAllocation — the paper's motivating
        // failure.
        let convgpu = ConVGpu::start(fast_cfg(TransportMode::UnixSocket)).unwrap();
        let mk = || {
            Box::new(FnProgram::new("hog", |api, pid, clock| {
                let p = api.cuda_malloc(pid, Bytes::mib(3072))?;
                clock.sleep(convgpu_sim_core::time::SimDuration::from_secs(1));
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
