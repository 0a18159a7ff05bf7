//! The customized nvidia-docker (paper §III-B).
//!
//! nvidia-docker is "a thin wrapper on top of docker" that rewrites `run`
//! and `create` commands. ConVGPU's customization adds, in order:
//!
//! 1. resolve the GPU memory limit: `--nvidia-memory=<size>` option, else
//!    the image's `com.nvidia.memory.limit` label, else **1 GiB**;
//! 2. send the limit to the scheduler *before* creating the container;
//! 3. ask the scheduler for the per-container directory and mount it
//!    (`--volume`), which carries the wrapper module and the UNIX socket;
//! 4. set `LD_PRELOAD` (`--env`) so the wrapper loads first;
//! 5. mount the usual NVIDIA driver volume and `--device` entries;
//! 6. add the dummy plugin volume whose unmount signals container exit.
//!
//! The front end also registers the dummy volume's driver on the engine:
//! the nvidia-docker-plugin analog. "When the container exits its
//! execution by any reasons, docker unmounts the volume; therefore,
//! nvidia-docker-plugin can identify the container is exited.
//! Subsequently, nvidia-docker-plugin can send a *close* signal to the
//! scheduler for that container." Docker waits for a volume driver's
//! answer while it tears a container down, so the close is part of
//! [`Engine::stop`], on the stopping thread. It comes from the engine's
//! teardown, not from the program's own cleanup, so crashed and killed
//! containers close too.

use convgpu_container_rt::engine::{Engine, EngineError, VolumeDriver};
#[cfg(test)]
use convgpu_container_rt::image::labels;
use convgpu_container_rt::image::Image;
use convgpu_container_rt::spec::{CreateOptions, ResourceSpec, VolumeMount};
use convgpu_ipc::endpoint::{IpcError, SchedulerEndpoint};
use convgpu_scheduler::core::SchedError;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::{Bytes, ParseBytesError};
use std::fmt;
use std::sync::Arc;

/// Driver name of the dummy volume whose unmount closes the container.
pub const CONVGPU_VOLUME_DRIVER: &str = "convgpu";

/// The `convgpu` volume driver: an unmount is the container's exit, and
/// the driver sends the scheduler its *close*.
struct CloseOnUnmount(Arc<dyn SchedulerEndpoint>);

impl VolumeDriver for CloseOnUnmount {
    fn unmount(&self, container: ContainerId, _source: &str) {
        // A dead scheduler must not fail the teardown; closes are
        // best-effort like the original plugin's HTTP callbacks.
        let _ = self.0.container_close(container);
    }
}

/// The paper's default limit when neither option nor label is present.
pub const DEFAULT_MEMORY_LIMIT: Bytes = Bytes(1 << 30);

/// A user command, i.e. `nvidia-docker run [--nvidia-memory=<size>] image`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunCommand {
    /// Image reference.
    pub image: String,
    /// The `--nvidia-memory=<size>` option, verbatim.
    pub nvidia_memory: Option<String>,
    /// Optional container name.
    pub name: Option<String>,
    /// Resource caps (Table III columns).
    pub resources: ResourceSpec,
    /// Extra environment variables from the user command.
    pub env: Vec<(String, String)>,
}

impl RunCommand {
    /// A run command for `image` with defaults.
    pub fn new(image: impl Into<String>) -> Self {
        RunCommand {
            image: image.into(),
            nvidia_memory: None,
            name: None,
            resources: ResourceSpec::default(),
            env: Vec::new(),
        }
    }

    /// Set `--nvidia-memory=<size>` (builder style).
    pub fn nvidia_memory(mut self, size: impl Into<String>) -> Self {
        self.nvidia_memory = Some(size.into());
        self
    }

    /// Set the container name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Set resource caps.
    pub fn resources(mut self, r: ResourceSpec) -> Self {
        self.resources = r;
        self
    }

    /// Add a user environment variable.
    pub fn env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push((key.into(), value.into()));
        self
    }
}

/// nvidia-docker errors.
#[derive(Debug)]
pub enum NvidiaDockerError {
    /// The size string did not parse.
    BadMemorySize(ParseBytesError),
    /// Image missing from the engine.
    Engine(EngineError),
    /// Scheduler refused the registration.
    Scheduler(SchedError),
    /// IPC failure talking to the scheduler.
    Ipc(IpcError),
}

impl fmt::Display for NvidiaDockerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NvidiaDockerError::BadMemorySize(e) => write!(f, "--nvidia-memory: {e}"),
            NvidiaDockerError::Engine(e) => write!(f, "docker: {e}"),
            NvidiaDockerError::Scheduler(e) => write!(f, "scheduler: {e}"),
            NvidiaDockerError::Ipc(e) => write!(f, "scheduler ipc: {e}"),
        }
    }
}

impl std::error::Error for NvidiaDockerError {}

impl From<EngineError> for NvidiaDockerError {
    fn from(e: EngineError) -> Self {
        NvidiaDockerError::Engine(e)
    }
}

impl From<IpcError> for NvidiaDockerError {
    fn from(e: IpcError) -> Self {
        NvidiaDockerError::Ipc(e)
    }
}

/// Resolve the container's GPU memory limit per the paper's precedence:
/// option → image label → 1 GiB default.
pub fn resolve_memory_limit(option: Option<&str>, image: &Image) -> Result<Bytes, ParseBytesError> {
    if let Some(opt) = option {
        return opt.parse();
    }
    if let Some(label) = image.memory_limit_label() {
        return label.parse();
    }
    Ok(DEFAULT_MEMORY_LIMIT)
}

/// The customized nvidia-docker front end.
pub struct NvidiaDocker {
    engine: Arc<Engine>,
    scheduler: Arc<dyn SchedulerEndpoint>,
    /// NVIDIA driver version, used for the driver volume name like the
    /// real nvidia-docker-plugin serves (`nvidia_driver_375.51`).
    driver_version: String,
}

/// Everything `run` prepared: the created container and the pieces the
/// orchestrator needs to launch the program inside it.
#[derive(Clone, Debug)]
pub struct PreparedContainer {
    /// Engine container id (registered with the scheduler).
    pub id: ContainerId,
    /// Resolved GPU memory limit.
    pub limit: Bytes,
    /// Per-container directory served by the scheduler.
    pub convgpu_dir: String,
    /// The final creation options (for inspection/testing).
    pub options: CreateOptions,
}

impl NvidiaDocker {
    /// Build the front end, and register on `engine` the driver that
    /// closes a container with `scheduler` when its dummy volume unmounts.
    pub fn new(
        engine: Arc<Engine>,
        scheduler: Arc<dyn SchedulerEndpoint>,
        driver_version: impl Into<String>,
    ) -> Self {
        engine.register_driver(
            CONVGPU_VOLUME_DRIVER,
            Arc::new(CloseOnUnmount(Arc::clone(&scheduler))),
        );
        NvidiaDocker {
            engine,
            scheduler,
            driver_version: driver_version.into(),
        }
    }

    /// Rewrite and execute a `run` command: registers with the scheduler,
    /// injects the ConVGPU plumbing, creates **and starts** the container.
    /// A step that fails after the registration leaves nothing behind
    /// ([`NvidiaDocker::discard`]).
    pub fn run(&self, cmd: &RunCommand) -> Result<PreparedContainer, NvidiaDockerError> {
        let image = self
            .engine
            .image(&cmd.image)
            .ok_or_else(|| EngineError::UnknownImage(cmd.image.clone()))?;
        let limit = resolve_memory_limit(cmd.nvidia_memory.as_deref(), &image)
            .map_err(NvidiaDockerError::BadMemorySize)?;

        // Identity first: the limit must reach the scheduler before the
        // container exists (paper §III-B).
        let id = self.engine.reserve_id();
        self.scheduler
            .register(id, limit)
            .map_err(NvidiaDockerError::Ipc)?;
        self.create_and_start(id, limit, cmd, &image)
            .inspect_err(|_| self.discard(id))
    }

    /// The one cleanup path for a registered container whose run failed:
    /// close it with the scheduler, which releases its reservation and
    /// removes its volume. A started container closes through its
    /// driver when it is stopped; one the engine never created or never
    /// started gets the close sent here.
    pub(crate) fn discard(&self, id: ContainerId) {
        if self.engine.stop(id, 1).is_err() {
            let _ = self.scheduler.container_close(id);
        }
    }

    /// `run` after the registration: the volume, the rewritten options,
    /// create and start.
    fn create_and_start(
        &self,
        id: ContainerId,
        limit: Bytes,
        cmd: &RunCommand,
        image: &Image,
    ) -> Result<PreparedContainer, NvidiaDockerError> {
        let dir = self.scheduler.request_dir(id)?;

        let mut options = CreateOptions::new(cmd.image.clone())
            .with_volume(VolumeMount::bind(dir.clone(), "/convgpu"))
            .with_env("LD_PRELOAD", "/convgpu/libgpushare.so")
            .with_resources(cmd.resources);
        options.name = cmd.name.clone();
        for (k, v) in &cmd.env {
            options.env.push((k.clone(), v.clone()));
        }
        if image.needs_gpu() {
            options = options
                .with_device("/dev/nvidiactl")
                .with_device("/dev/nvidia-uvm")
                .with_device("/dev/nvidia0")
                .with_volume(VolumeMount::plugin(
                    format!("nvidia_driver_{}", self.driver_version),
                    "/usr/local/nvidia",
                    "nvidia-docker",
                ));
        }
        // The dummy volume whose unmount closes the container.
        options = options.with_volume(VolumeMount::plugin(
            format!("convgpu-close-{id}"),
            "/convgpu-close",
            CONVGPU_VOLUME_DRIVER,
        ));

        self.engine.create_with_id(id, options.clone())?;
        self.engine.start(id)?;
        Ok(PreparedContainer {
            id,
            limit,
            convgpu_dir: dir,
            options,
        })
    }

    /// Plain docker passthrough: create and start *without* any ConVGPU
    /// plumbing — the "without the solution" baseline of §IV.
    pub fn run_unmanaged(&self, cmd: &RunCommand) -> Result<ContainerId, NvidiaDockerError> {
        let image = self
            .engine
            .image(&cmd.image)
            .ok_or_else(|| EngineError::UnknownImage(cmd.image.clone()))?;
        let mut options = CreateOptions::new(cmd.image.clone()).with_resources(cmd.resources);
        options.name = cmd.name.clone();
        for (k, v) in &cmd.env {
            options.env.push((k.clone(), v.clone()));
        }
        if image.needs_gpu() {
            options = options
                .with_device("/dev/nvidiactl")
                .with_device("/dev/nvidia-uvm")
                .with_device("/dev/nvidia0")
                .with_volume(VolumeMount::plugin(
                    format!("nvidia_driver_{}", self.driver_version),
                    "/usr/local/nvidia",
                    "nvidia-docker",
                ));
        }
        let id = self.engine.create(options)?;
        self.engine.start(id)?;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{InProcEndpoint, SchedulerService};
    use convgpu_container_rt::engine::EngineConfig;
    use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
    use convgpu_scheduler::policy::PolicyKind;
    use convgpu_scheduler::state::ContainerState;
    use convgpu_sim_core::clock::VirtualClock;

    fn setup(name: &str) -> (Arc<Engine>, NvidiaDocker, Arc<SchedulerService>) {
        let clock = VirtualClock::new();
        let engine = Arc::new(Engine::new(EngineConfig::default(), clock.handle()));
        engine.add_image(Image::cuda("cuda-app", "latest", "8.0"));
        engine.add_image(
            Image::cuda("labeled-app", "latest", "8.0").with_label(labels::MEMORY_LIMIT, "256m"),
        );
        engine.add_image(Image::new("plain-app", "latest"));
        let dir = std::env::temp_dir().join(format!(
            "convgpu-nvdocker-test-{}-{}",
            std::process::id(),
            name
        ));
        let svc = Arc::new(SchedulerService::new(
            Scheduler::new(SchedulerConfig::paper(), PolicyKind::Fifo.build(0)),
            clock.handle(),
            dir,
        ));
        let nd = NvidiaDocker::new(
            Arc::clone(&engine),
            Arc::new(InProcEndpoint::new(Arc::clone(&svc))),
            "375.51",
        );
        (engine, nd, svc)
    }

    #[test]
    fn limit_precedence_option_label_default() {
        let img_plain = Image::cuda("a", "b", "8.0");
        let img_labeled = Image::cuda("a", "b", "8.0").with_label(labels::MEMORY_LIMIT, "256m");
        assert_eq!(
            resolve_memory_limit(Some("2g"), &img_labeled).unwrap(),
            Bytes::gib(2),
            "option beats label"
        );
        assert_eq!(
            resolve_memory_limit(None, &img_labeled).unwrap(),
            Bytes::mib(256),
            "label beats default"
        );
        assert_eq!(
            resolve_memory_limit(None, &img_plain).unwrap(),
            Bytes::gib(1),
            "paper's 1 GiB default"
        );
        assert!(resolve_memory_limit(Some("garbage"), &img_plain).is_err());
    }

    #[test]
    fn run_injects_convgpu_plumbing() {
        let (engine, nd, svc) = setup("plumbing");
        let prepared = nd
            .run(&RunCommand::new("cuda-app").nvidia_memory("512m"))
            .unwrap();
        assert_eq!(prepared.limit, Bytes::mib(512));
        // Scheduler knows the container with that limit.
        svc.with_scheduler(|s| {
            let rec = s.container(prepared.id).expect("registered");
            assert_eq!(rec.limit, Bytes::mib(512));
        });
        // LD_PRELOAD injected.
        let c = engine.inspect(prepared.id).unwrap();
        assert_eq!(
            c.options.env_get("LD_PRELOAD"),
            Some("/convgpu/libgpushare.so")
        );
        // ConVGPU dir mounted; driver volume and dummy close volume added.
        assert!(c.options.volumes.iter().any(|v| v.target == "/convgpu"));
        assert!(c
            .options
            .volumes
            .iter()
            .any(|v| v.source == "nvidia_driver_375.51"));
        assert!(c
            .options
            .volumes
            .iter()
            .any(|v| v.driver.as_deref() == Some(CONVGPU_VOLUME_DRIVER)));
        assert!(c.options.devices.contains(&"/dev/nvidia0".to_string()));
        assert!(c.is_running(), "run starts the container");
        // The served directory exists with the module inside.
        assert!(std::path::Path::new(&prepared.convgpu_dir)
            .join("libgpushare.so")
            .exists());
    }

    /// The cleanup for a run that failed after its container started:
    /// stopped, closed, reservation released, volume gone.
    #[test]
    fn discard_stops_and_closes_a_started_container() {
        let (engine, nd, svc) = setup("discard");
        let prepared = nd
            .run(&RunCommand::new("cuda-app").nvidia_memory("512m"))
            .unwrap();
        nd.discard(prepared.id);
        assert!(!engine.inspect(prepared.id).unwrap().is_running());
        svc.with_scheduler(|s| {
            assert_eq!(
                s.container(prepared.id).unwrap().state,
                ContainerState::Closed
            );
            assert_eq!(s.unassigned(), s.config().capacity);
        });
        assert!(!std::path::Path::new(&prepared.convgpu_dir).exists());
    }

    /// The driver closes a stopped container on the stopping thread: the
    /// record is `Closed` when `stop` returns, with nothing to wait for.
    #[test]
    fn stop_closes_the_container_before_it_returns() {
        let (engine, nd, svc) = setup("close");
        let prepared = nd
            .run(&RunCommand::new("cuda-app").nvidia_memory("512m"))
            .unwrap();
        engine.stop(prepared.id, 0).unwrap();
        svc.with_scheduler(|s| {
            assert_eq!(
                s.container(prepared.id).unwrap().state,
                ContainerState::Closed
            );
            assert_eq!(s.total_assigned(), Bytes::ZERO);
        });
        assert!(!std::path::Path::new(&prepared.convgpu_dir).exists());
    }

    #[test]
    fn another_drivers_volume_closes_nothing() {
        let (engine, _nd, svc) = setup("foreign");
        let id = engine.reserve_id();
        InProcEndpoint::new(Arc::clone(&svc))
            .register(id, Bytes::mib(128))
            .unwrap();
        engine
            .create_with_id(
                id,
                CreateOptions::new("cuda-app").with_volume(VolumeMount::plugin(
                    "nvidia_driver_375.51",
                    "/usr/local/nvidia",
                    "nvidia-docker",
                )),
            )
            .unwrap();
        engine.start(id).unwrap();
        engine.stop(id, 0).unwrap();
        svc.with_scheduler(|s| assert_ne!(s.container(id).unwrap().state, ContainerState::Closed));
    }

    #[test]
    fn label_fallback_applies() {
        let (_engine, nd, svc) = setup("label");
        let prepared = nd.run(&RunCommand::new("labeled-app")).unwrap();
        assert_eq!(prepared.limit, Bytes::mib(256));
        svc.with_scheduler(|s| {
            assert_eq!(s.container(prepared.id).unwrap().limit, Bytes::mib(256));
        });
    }

    #[test]
    fn default_applies_without_option_or_label() {
        let (_engine, nd, _svc) = setup("default");
        let prepared = nd.run(&RunCommand::new("cuda-app")).unwrap();
        assert_eq!(prepared.limit, Bytes::gib(1));
    }

    #[test]
    fn bad_size_fails_before_any_side_effect() {
        let (engine, nd, _svc) = setup("badsize");
        let err = nd
            .run(&RunCommand::new("cuda-app").nvidia_memory("1.21gw"))
            .unwrap_err();
        assert!(matches!(err, NvidiaDockerError::BadMemorySize(_)));
        assert!(engine.list().is_empty(), "no container created");
    }

    #[test]
    fn non_gpu_image_gets_no_device_mounts() {
        let (engine, nd, _svc) = setup("plain");
        let prepared = nd.run(&RunCommand::new("plain-app")).unwrap();
        let c = engine.inspect(prepared.id).unwrap();
        assert!(c.options.devices.is_empty());
        // But ConVGPU still tracks it (it declared a default limit).
        assert!(c.options.env_get("LD_PRELOAD").is_some());
    }

    #[test]
    fn unmanaged_run_has_no_convgpu_traces() {
        let (engine, nd, svc) = setup("unmanaged");
        let id = nd.run_unmanaged(&RunCommand::new("cuda-app")).unwrap();
        let c = engine.inspect(id).unwrap();
        assert_eq!(c.options.env_get("LD_PRELOAD"), None);
        assert!(!c.options.volumes.iter().any(|v| v.target == "/convgpu"));
        svc.with_scheduler(|s| assert!(s.container(id).is_none()));
    }
}
