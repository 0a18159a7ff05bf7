//! The container engine (the `dockerd` analog).
//!
//! Thread-safe: the ConVGPU orchestrator creates/starts containers from the
//! submission thread while the containers' program threads stop them. The
//! engine charges a configurable creation cost on the session clock so the
//! Fig. 5 experiment has its baseline (~0.4 s for Docker 1.12 on the
//! paper's testbed).

use crate::container::{Container, ContainerStatus};
use crate::image::{Image, ImageRegistry};
use crate::spec::CreateOptions;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::idgen::IdGen;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::time::SimDuration;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Engine construction parameters.
///
/// Creation cost is `creation_cost + per_volume_cost × |volumes| +
/// per_device_cost × |devices|`: Docker's sandbox setup plus mount work
/// per `--volume`/`--device`. The per-volume term is what makes ConVGPU's
/// two extra volumes show up as the paper's Fig. 5 ≈ 15 % creation
/// overhead.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Base cost charged on the clock by `create` (image/sandbox setup;
    /// calibrated to Docker 1.12 on the paper's testbed).
    pub creation_cost: SimDuration,
    /// Additional cost per volume mount.
    pub per_volume_cost: SimDuration,
    /// Additional cost per device node.
    pub per_device_cost: SimDuration,
    /// Cost charged by `start`.
    pub start_cost: SimDuration,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            creation_cost: SimDuration::from_millis(350),
            per_volume_cost: SimDuration::from_millis(25),
            per_device_cost: SimDuration::from_millis(5),
            start_cost: SimDuration::from_millis(50),
        }
    }
}

impl EngineConfig {
    /// A near-free engine for fast tests.
    pub fn instant() -> Self {
        EngineConfig {
            creation_cost: SimDuration::from_millis(1),
            per_volume_cost: SimDuration::ZERO,
            per_device_cost: SimDuration::ZERO,
            start_cost: SimDuration::ZERO,
        }
    }
}

/// Engine errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Image reference not found in the registry.
    UnknownImage(String),
    /// Container id not found.
    UnknownContainer(ContainerId),
    /// Operation invalid in the container's current state.
    InvalidState {
        /// The container.
        container: ContainerId,
        /// Its current status.
        status: ContainerStatus,
        /// The attempted operation.
        op: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownImage(r) => write!(f, "no such image: {r}"),
            EngineError::UnknownContainer(c) => write!(f, "no such container: {c}"),
            EngineError::InvalidState {
                container,
                status,
                op,
            } => write!(f, "cannot {op} {container} in state {status:?}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// A volume driver: Docker's volume plugin protocol, reduced to the one
/// call ConVGPU needs. Docker posts `/VolumeDriver.Unmount` to a volume's
/// driver while it tears the container down and waits for the answer, so
/// [`Engine::stop`] calls `unmount` on the stopping thread and returns
/// after it.
pub trait VolumeDriver: Send + Sync {
    /// `container` exited and its volume `source` was unmounted.
    fn unmount(&self, container: ContainerId, source: &str);
}

/// The engine.
pub struct Engine {
    config: EngineConfig,
    clock: ClockHandle,
    images: Mutex<ImageRegistry>,
    containers: Mutex<HashMap<ContainerId, Container>>,
    drivers: Mutex<HashMap<String, Arc<dyn VolumeDriver>>>,
    ids: IdGen,
    pids: IdGen,
}

impl Engine {
    /// Build an engine on `clock`.
    pub fn new(config: EngineConfig, clock: ClockHandle) -> Self {
        Engine {
            config,
            clock,
            images: Mutex::new(ImageRegistry::new()),
            containers: Mutex::new(HashMap::new()),
            drivers: Mutex::new(HashMap::new()),
            ids: IdGen::new(),
            pids: IdGen::starting_at(1000),
        }
    }

    /// Register an image (the `docker pull` analog).
    pub fn add_image(&self, image: Image) {
        self.images.lock().add(image);
    }

    /// Look up an image by reference.
    pub fn image(&self, reference: &str) -> Option<Image> {
        self.images.lock().get(reference).cloned()
    }

    /// Serve the volumes whose driver is `name` by `driver` (a volume
    /// plugin's activation); a second registration of `name` replaces
    /// the first.
    pub fn register_driver(&self, name: impl Into<String>, driver: Arc<dyn VolumeDriver>) {
        self.drivers.lock().insert(name.into(), driver);
    }

    /// The clock the engine charges costs on.
    pub fn clock(&self) -> &ClockHandle {
        &self.clock
    }

    /// Reserve a container ID before creation. The ConVGPU middleware
    /// needs the identity *before* `create` so it can register the
    /// container with the scheduler and mount the per-container directory
    /// (paper §III-B: "This limitation is sent to the scheduler … before
    /// the container is created").
    pub fn reserve_id(&self) -> ContainerId {
        ContainerId(self.ids.next())
    }

    /// Create a container. Charges the creation cost.
    pub fn create(&self, options: CreateOptions) -> Result<ContainerId, EngineError> {
        let id = self.reserve_id();
        self.create_with_id(id, options)?;
        Ok(id)
    }

    /// Create a container under a previously reserved ID.
    pub fn create_with_id(
        &self,
        id: ContainerId,
        options: CreateOptions,
    ) -> Result<(), EngineError> {
        let image = self
            .image(&options.image)
            .ok_or_else(|| EngineError::UnknownImage(options.image.clone()))?;
        let cost = self.config.creation_cost
            + self.config.per_volume_cost * options.volumes.len() as u64
            + self.config.per_device_cost * options.devices.len() as u64;
        self.clock.sleep(cost);
        let container = Container {
            id,
            name: options.name.clone(),
            image: image.reference(),
            options,
            status: ContainerStatus::Created,
            created_at: self.clock.now(),
            started_at: None,
            exited_at: None,
            exit_code: None,
        };
        self.containers.lock().insert(id, container);
        Ok(())
    }

    /// Start a created container. Charges the start cost.
    pub fn start(&self, id: ContainerId) -> Result<(), EngineError> {
        self.clock.sleep(self.config.start_cost);
        {
            let mut containers = self.containers.lock();
            let c = containers
                .get_mut(&id)
                .ok_or(EngineError::UnknownContainer(id))?;
            if c.status != ContainerStatus::Created {
                return Err(EngineError::InvalidState {
                    container: id,
                    status: c.status,
                    op: "start",
                });
            }
            c.status = ContainerStatus::Running;
            c.started_at = Some(self.clock.now());
        }
        Ok(())
    }

    /// Allocate a pid for a process inside a running container.
    pub fn spawn_pid(&self, id: ContainerId) -> Result<u64, EngineError> {
        let containers = self.containers.lock();
        let c = containers
            .get(&id)
            .ok_or(EngineError::UnknownContainer(id))?;
        if c.status != ContainerStatus::Running {
            return Err(EngineError::InvalidState {
                container: id,
                status: c.status,
                op: "spawn process in",
            });
        }
        Ok(self.pids.next())
    }

    /// Freeze a running container (`docker pause`). The container's
    /// processes stop making progress but keep every resource — which is
    /// why ConVGPU must NOT release a paused container's GPU reservation
    /// (only `stop` does).
    pub fn pause(&self, id: ContainerId) -> Result<(), EngineError> {
        {
            let mut containers = self.containers.lock();
            let c = containers
                .get_mut(&id)
                .ok_or(EngineError::UnknownContainer(id))?;
            if c.status != ContainerStatus::Running {
                return Err(EngineError::InvalidState {
                    container: id,
                    status: c.status,
                    op: "pause",
                });
            }
            c.status = ContainerStatus::Paused;
        }
        Ok(())
    }

    /// Thaw a paused container (`docker unpause`).
    pub fn unpause(&self, id: ContainerId) -> Result<(), EngineError> {
        {
            let mut containers = self.containers.lock();
            let c = containers
                .get_mut(&id)
                .ok_or(EngineError::UnknownContainer(id))?;
            if c.status != ContainerStatus::Paused {
                return Err(EngineError::InvalidState {
                    container: id,
                    status: c.status,
                    op: "unpause",
                });
            }
            c.status = ContainerStatus::Running;
        }
        Ok(())
    }

    /// Stop a running or paused container, then unmount each of its
    /// volumes whose driver is registered through that driver, on this
    /// thread and with no engine lock held. A container that is not
    /// running or paused is left as it is: nothing is unmounted twice.
    pub fn stop(&self, id: ContainerId, exit_code: i32) -> Result<(), EngineError> {
        let unmounts: Vec<(Arc<dyn VolumeDriver>, String)> = {
            let mut containers = self.containers.lock();
            let c = containers
                .get_mut(&id)
                .ok_or(EngineError::UnknownContainer(id))?;
            if !matches!(c.status, ContainerStatus::Running | ContainerStatus::Paused) {
                return Err(EngineError::InvalidState {
                    container: id,
                    status: c.status,
                    op: "stop",
                });
            }
            c.status = ContainerStatus::Exited;
            c.exited_at = Some(self.clock.now());
            c.exit_code = Some(exit_code);
            let drivers = self.drivers.lock();
            c.options
                .volumes
                .iter()
                .filter_map(|v| {
                    let driver = drivers.get(v.driver.as_deref()?)?;
                    Some((Arc::clone(driver), v.source.clone()))
                })
                .collect()
        };
        for (driver, source) in unmounts {
            driver.unmount(id, &source);
        }
        Ok(())
    }

    /// Remove an exited container.
    pub fn remove(&self, id: ContainerId) -> Result<(), EngineError> {
        {
            let mut containers = self.containers.lock();
            let c = containers
                .get_mut(&id)
                .ok_or(EngineError::UnknownContainer(id))?;
            if c.status != ContainerStatus::Exited {
                return Err(EngineError::InvalidState {
                    container: id,
                    status: c.status,
                    op: "remove",
                });
            }
            c.status = ContainerStatus::Removed;
        }
        Ok(())
    }

    /// Inspect a container (clone of its record).
    pub fn inspect(&self, id: ContainerId) -> Result<Container, EngineError> {
        self.containers
            .lock()
            .get(&id)
            .cloned()
            .ok_or(EngineError::UnknownContainer(id))
    }

    /// All container records, sorted by id.
    pub fn list(&self) -> Vec<Container> {
        let mut v: Vec<Container> = self.containers.lock().values().cloned().collect();
        v.sort_by_key(|c| c.id);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::VolumeMount;
    use convgpu_sim_core::clock::VirtualClock;
    use std::sync::Weak;

    fn engine() -> (Engine, VirtualClock) {
        let clock = VirtualClock::new();
        let e = Engine::new(EngineConfig::default(), clock.handle());
        e.add_image(Image::cuda("cuda-app", "latest", "8.0"));
        (e, clock)
    }

    #[test]
    fn lifecycle_happy_path() {
        let (e, _clock) = engine();
        let id = e.create(CreateOptions::new("cuda-app:latest")).unwrap();
        assert_eq!(e.inspect(id).unwrap().status, ContainerStatus::Created);
        e.start(id).unwrap();
        assert!(e.inspect(id).unwrap().is_running());
        let pid = e.spawn_pid(id).unwrap();
        assert!(pid >= 1000);
        e.stop(id, 0).unwrap();
        assert_eq!(e.inspect(id).unwrap().exit_code, Some(0));
        e.remove(id).unwrap();
        assert_eq!(e.inspect(id).unwrap().status, ContainerStatus::Removed);
    }

    #[test]
    fn create_charges_creation_cost_on_clock() {
        let (e, clock) = engine();
        use convgpu_sim_core::clock::Clock;
        let t0 = clock.now();
        e.create(CreateOptions::new("cuda-app")).unwrap();
        let elapsed = clock.now() - t0;
        assert_eq!(
            elapsed,
            SimDuration::from_millis(350),
            "base cost, no mounts"
        );
        let t1 = clock.now();
        e.create(
            CreateOptions::new("cuda-app")
                .with_volume(crate::spec::VolumeMount::bind("/a", "/a"))
                .with_volume(crate::spec::VolumeMount::bind("/b", "/b"))
                .with_device("/dev/nvidia0"),
        )
        .unwrap();
        assert_eq!(
            clock.now() - t1,
            SimDuration::from_millis(350 + 2 * 25 + 5),
            "per-volume and per-device mount costs"
        );
    }

    #[test]
    fn unknown_image_fails_create() {
        let (e, _clock) = engine();
        assert_eq!(
            e.create(CreateOptions::new("nope:latest")).unwrap_err(),
            EngineError::UnknownImage("nope:latest".into())
        );
    }

    #[test]
    fn bare_image_name_resolves_latest() {
        let (e, _clock) = engine();
        let id = e.create(CreateOptions::new("cuda-app")).unwrap();
        assert_eq!(e.inspect(id).unwrap().image, "cuda-app:latest");
    }

    #[test]
    fn invalid_transitions_rejected() {
        let (e, _clock) = engine();
        let id = e.create(CreateOptions::new("cuda-app")).unwrap();
        assert!(matches!(
            e.stop(id, 0).unwrap_err(),
            EngineError::InvalidState { op: "stop", .. }
        ));
        e.start(id).unwrap();
        assert!(matches!(
            e.start(id).unwrap_err(),
            EngineError::InvalidState { op: "start", .. }
        ));
        assert!(matches!(
            e.remove(id).unwrap_err(),
            EngineError::InvalidState { op: "remove", .. }
        ));
        assert!(e.spawn_pid(ContainerId(999)).is_err());
    }

    /// Records each unmount with the status the engine reports while it
    /// runs. It reads that status back through the engine, which would
    /// deadlock if `stop` held an engine lock around the call.
    struct Recorder {
        engine: Weak<Engine>,
        calls: Mutex<Vec<(ContainerId, String, ContainerStatus)>>,
    }

    impl VolumeDriver for Recorder {
        fn unmount(&self, container: ContainerId, source: &str) {
            let engine = self.engine.upgrade().expect("engine alive");
            let status = engine.inspect(container).unwrap().status;
            self.calls.lock().push((container, source.into(), status));
        }
    }

    impl Recorder {
        fn register(e: &Arc<Engine>, name: &str) -> Arc<Recorder> {
            let r = Arc::new(Recorder {
                engine: Arc::downgrade(e),
                calls: Mutex::new(Vec::new()),
            });
            e.register_driver(name, Arc::clone(&r) as Arc<dyn VolumeDriver>);
            r
        }

        fn calls(&self) -> Vec<(ContainerId, String, ContainerStatus)> {
            self.calls.lock().clone()
        }
    }

    #[test]
    fn stop_unmounts_each_volume_through_its_own_driver_once() {
        let (e, _clock) = engine();
        let e = Arc::new(e);
        let convgpu = Recorder::register(&e, "convgpu");
        let other = Recorder::register(&e, "other");
        let id = e
            .create(
                CreateOptions::new("cuda-app")
                    .with_volume(VolumeMount::bind("/data", "/data"))
                    .with_volume(VolumeMount::plugin("convgpu-a", "/a", "convgpu"))
                    .with_volume(VolumeMount::plugin("nv-driver", "/nv", "unregistered"))
                    .with_volume(VolumeMount::plugin("convgpu-b", "/b", "convgpu")),
            )
            .unwrap();
        e.start(id).unwrap();
        assert!(
            convgpu.calls().is_empty(),
            "create and start unmount nothing"
        );
        e.stop(id, 137).unwrap();
        // On the stopping thread, before `stop` returned, with the
        // container already exited.
        assert_eq!(
            convgpu.calls(),
            vec![
                (id, "convgpu-a".into(), ContainerStatus::Exited),
                (id, "convgpu-b".into(), ContainerStatus::Exited),
            ]
        );
        assert!(other.calls().is_empty(), "another driver's volumes only");
        assert_eq!(e.inspect(id).unwrap().exit_code, Some(137));
        // A second stop is refused and unmounts nothing again.
        assert!(matches!(
            e.stop(id, 0).unwrap_err(),
            EngineError::InvalidState { op: "stop", .. }
        ));
        assert_eq!(convgpu.calls().len(), 2);
        assert_eq!(e.inspect(id).unwrap().exit_code, Some(137));
    }

    #[test]
    fn pause_unpause_lifecycle() {
        let (e, _clock) = engine();
        let e = Arc::new(e);
        let driver = Recorder::register(&e, "convgpu");
        let id = e
            .create(
                CreateOptions::new("cuda-app").with_volume(VolumeMount::plugin(
                    "convgpu-cnt",
                    "/convgpu",
                    "convgpu",
                )),
            )
            .unwrap();
        // Cannot pause before start.
        assert!(matches!(
            e.pause(id).unwrap_err(),
            EngineError::InvalidState { op: "pause", .. }
        ));
        e.start(id).unwrap();
        e.pause(id).unwrap();
        assert_eq!(e.inspect(id).unwrap().status, ContainerStatus::Paused);
        // No new processes while frozen.
        assert!(e.spawn_pid(id).is_err());
        // Double pause rejected; unpause restores Running.
        assert!(e.pause(id).is_err());
        e.unpause(id).unwrap();
        assert!(e.inspect(id).unwrap().is_running());
        assert!(e.unpause(id).is_err());
        // A frozen container keeps its volumes mounted.
        e.pause(id).unwrap();
        assert!(
            driver.calls().is_empty(),
            "pause and unpause unmount nothing"
        );
        // Stop works from Paused too (docker semantics).
        e.stop(id, 0).unwrap();
        assert_eq!(
            driver.calls(),
            vec![(id, "convgpu-cnt".into(), ContainerStatus::Exited)]
        );
    }

    #[test]
    fn list_is_sorted_by_id() {
        let (e, _clock) = engine();
        let a = e.create(CreateOptions::new("cuda-app")).unwrap();
        let b = e.create(CreateOptions::new("cuda-app")).unwrap();
        let list = e.list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].id, a);
        assert_eq!(list[1].id, b);
        assert!(a < b);
    }

    #[test]
    fn pids_are_unique_across_containers() {
        let (e, _clock) = engine();
        let a = e.create(CreateOptions::new("cuda-app")).unwrap();
        let b = e.create(CreateOptions::new("cuda-app")).unwrap();
        e.start(a).unwrap();
        e.start(b).unwrap();
        let p1 = e.spawn_pid(a).unwrap();
        let p2 = e.spawn_pid(b).unwrap();
        let p3 = e.spawn_pid(a).unwrap();
        assert_ne!(p1, p2);
        assert_ne!(p2, p3);
        assert_ne!(p1, p3);
    }
}
