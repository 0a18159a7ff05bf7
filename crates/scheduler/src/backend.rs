//! The topology backend abstraction (tentpole of the topology refactor).
//!
//! [`SchedulerBackend`] is the exact message surface `SchedulerService`
//! needs, extracted from the concrete single-device [`Scheduler`] so the
//! multi-GPU and cluster schedulers can stand behind the same IPC stack.
//! It has three implementations: the device ([`Scheduler`]), the
//! sharding engine both multi-device topologies instantiate
//! ([`Sharded`](crate::sharded::Sharded)), and [`TopologyBackend`], the
//! enum-dispatch wrapper the service stores (no trait objects, no
//! generics bleeding into `convgpu-core`'s public types).
//!
//! Design rules:
//!
//! * **Single-device behavior is bit-identical.** The `Single` arm
//!   forwards straight to `Scheduler` — same tickets, same decision log,
//!   same metric label sets (`SchedObs.device == None`).
//! * **Tickets are globally unique** across devices and nodes because
//!   each sharding level tags its shard index into its own ticket lane
//!   (`sharded::TicketLane`); a service can therefore keep one waiter
//!   table keyed on the ticket alone, whatever the topology.
//! * **Placement is observable.** Registration reports where the
//!   container landed, and `devices()` snapshots per-device occupancy for
//!   the `query_topology` wire message.

use crate::cluster::ClusterScheduler;
use crate::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler};
use crate::multi_gpu::{DeviceIndex, MultiGpuScheduler};
use crate::state::ContainerState;
use convgpu_ipc::message::ApiKind;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;

/// Where a container lives: a device, optionally qualified by a cluster
/// node. Single-GPU and multi-GPU topologies report `node: None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Cluster node name, when the backend is a cluster.
    pub node: Option<String>,
    /// Device index within the node (or the whole topology).
    pub device: DeviceIndex,
}

impl Placement {
    /// Render as `node:device` (cluster) or the bare device index.
    pub fn label(&self) -> String {
        match &self.node {
            Some(n) => format!("{n}:{}", self.device),
            None => self.device.to_string(),
        }
    }
}

/// Snapshot of one device, for topology queries and per-device
/// `cudaGetDeviceProperties` answers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendDeviceInfo {
    /// Cluster node name, if any.
    pub node: Option<String>,
    /// Device index within its node.
    pub device: DeviceIndex,
    /// Total device capacity.
    pub capacity: Bytes,
    /// Memory not currently reserved.
    pub unassigned: Bytes,
    /// Containers registered and not yet closed on this device.
    pub open_containers: usize,
    /// Redistribution policy name running on this device.
    pub policy: String,
}

/// The message surface `SchedulerService` requires of any topology.
pub trait SchedulerBackend {
    /// Short kind tag: `"single"`, `"multi-gpu"`, or `"cluster"`.
    fn topology_kind(&self) -> &'static str;

    /// Admit a container, choosing its placement. Rejects (never
    /// suspends) when no device can ever host the limit.
    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError>;

    /// Admit a migrated container with its committed budget pre-reserved
    /// (the migration hand-off path; never suspends, never re-races the
    /// budget). See [`Scheduler::adopt`].
    fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError>;

    /// What registering `limit` here will reserve: the limit plus the
    /// context overhead this backend's config charges, if it charges one.
    /// Placement compares this — not a guess — against free memory and
    /// device capacity.
    fn requirement(&self, limit: Bytes) -> Bytes;

    /// Permission to allocate; resume actions may concern *any*
    /// container of the topology (tickets are globally unique).
    fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError>;

    /// Record a completed allocation.
    fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError>;

    /// Roll back a granted allocation the driver then failed.
    fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError>;

    /// Release an allocation.
    fn free(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError>;

    /// Per-container `cudaMemGetInfo` view, answered by its home device.
    fn mem_info(&self, id: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError>;

    /// A pid died.
    fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError>;

    /// The container is gone.
    fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError>;

    /// Where `id` lives, if registered.
    fn home_of(&self, id: ContainerId) -> Option<Placement>;

    /// The device scheduler `id` lives on, with the full ticket tag that
    /// device's tickets carry when they leave this backend.
    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)>;

    /// Snapshot every device in a stable order (node order, then device
    /// index).
    fn devices(&self) -> Vec<BackendDeviceInfo>;

    /// Structural invariants across the whole topology.
    fn check_invariants(&self) -> Result<(), String>;

    /// Deterministic digest of policy/placement state (golden tests).
    fn fingerprint(&self) -> u64;

    /// Attach observability; multi-device topologies scope the sink per
    /// device so gauges never collide.
    fn attach_obs(&mut self, obs: SchedObs);

    /// The canonical device scheduler (device 0 of node 0) — the
    /// single-device view used by legacy introspection paths.
    fn primary(&self) -> &Scheduler;

    /// Visit every device scheduler in [`devices`](Self::devices) order,
    /// each with the full ticket tag its tickets leave this backend under
    /// (`tag` is the enclosing topology's; pass 0 at the top).
    fn each_device<'a>(&'a self, tag: u64, f: &mut impl FnMut(u64, &'a Scheduler));

    /// Every device scheduler in the topology, in [`devices`](Self::devices)
    /// order — for introspection that must see all containers regardless
    /// of where placement homed them (metrics collection, close waits).
    fn device_schedulers(&self) -> Vec<&Scheduler> {
        let mut out = Vec::new();
        self.each_device(0, &mut |_, s| out.push(s));
        out
    }

    /// Memory not reserved on any device.
    fn unassigned(&self) -> Bytes {
        let mut sum = Bytes::ZERO;
        self.each_device(0, &mut |_, s| sum += s.unassigned());
        sum
    }

    /// Largest single-device capacity (admission bound for one container).
    fn largest_device(&self) -> Bytes {
        let mut max = Bytes::ZERO;
        self.each_device(0, &mut |_, s| max = max.max(s.config().capacity));
        max
    }

    /// Number of containers registered and not yet closed.
    fn open_containers(&self) -> usize {
        let mut open = 0;
        self.each_device(0, &mut |_, s| {
            open += s
                .containers()
                .filter(|r| r.state != ContainerState::Closed)
                .count();
        });
        open
    }

    /// Mirror progress (stall) assessments into the attached registry.
    fn observe_progress(&self) {
        self.each_device(0, &mut |_, s| {
            let _ = crate::deadlock::assess_observed(s);
        });
    }
}

impl SchedulerBackend for Scheduler {
    fn topology_kind(&self) -> &'static str {
        "single"
    }

    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        Scheduler::register(self, id, limit, now)?;
        Ok(Placement {
            node: None,
            device: 0,
        })
    }

    fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        Scheduler::adopt(self, id, limit, used, now)?;
        Ok(Placement {
            node: None,
            device: 0,
        })
    }

    fn requirement(&self, limit: Bytes) -> Bytes {
        // `Scheduler::effective_requirement`, which is private to `core`.
        let cfg = self.config();
        if cfg.charge_ctx_overhead {
            limit + cfg.ctx_overhead
        } else {
            limit
        }
    }

    fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError> {
        Scheduler::alloc_request(self, id, pid, size, api, now)
    }

    fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        Scheduler::alloc_done(self, id, pid, addr, size, now)
    }

    fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        Scheduler::alloc_failed(self, id, pid, size, now)
    }

    fn free(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        Scheduler::free(self, id, pid, addr, now)
    }

    fn mem_info(&self, id: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        Scheduler::mem_info(self, id, pid)
    }

    fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        Scheduler::process_exit(self, id, pid, now)
    }

    fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        Scheduler::container_close(self, id, now)
    }

    fn home_of(&self, id: ContainerId) -> Option<Placement> {
        self.container(id).map(|_| Placement {
            node: None,
            device: 0,
        })
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        self.container(id).map(|_| (0, self))
    }

    fn devices(&self) -> Vec<BackendDeviceInfo> {
        vec![BackendDeviceInfo {
            node: None,
            device: 0,
            capacity: self.config().capacity,
            unassigned: self.unassigned(),
            open_containers: SchedulerBackend::open_containers(self),
            policy: self.policy_name().to_string(),
        }]
    }

    fn check_invariants(&self) -> Result<(), String> {
        Scheduler::check_invariants(self).map_err(|e| e.to_string())
    }

    fn fingerprint(&self) -> u64 {
        self.policy_fingerprint()
    }

    fn attach_obs(&mut self, obs: SchedObs) {
        Scheduler::attach_obs(self, obs);
    }

    fn primary(&self) -> &Scheduler {
        self
    }

    fn each_device<'a>(&'a self, tag: u64, f: &mut impl FnMut(u64, &'a Scheduler)) {
        f(tag, self);
    }
}

/// Enum-dispatched backend the service stores — avoids generics in
/// `convgpu-core`'s public API while keeping static dispatch per arm.
/// `Single` holds its scheduler inline, larger than the other arms: a
/// service stores one backend, and boxing the paper's deployment would
/// put a pointer chase on each of its calls.
#[derive(Clone)]
#[allow(clippy::large_enum_variant)]
pub enum TopologyBackend {
    /// One GPU, the paper's deployment. Bit-identical to the
    /// pre-refactor service.
    Single(Scheduler),
    /// One host, several GPUs, a placement policy.
    MultiGpu(MultiGpuScheduler),
    /// Several nodes under a Docker-Swarm strategy.
    Cluster(ClusterScheduler),
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            TopologyBackend::Single($b) => $e,
            TopologyBackend::MultiGpu($b) => $e,
            TopologyBackend::Cluster($b) => $e,
        }
    };
}

impl SchedulerBackend for TopologyBackend {
    fn topology_kind(&self) -> &'static str {
        dispatch!(self, b => b.topology_kind())
    }

    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        dispatch!(self, b => SchedulerBackend::register(b, id, limit, now))
    }

    fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        dispatch!(self, b => SchedulerBackend::adopt(b, id, limit, used, now))
    }

    fn requirement(&self, limit: Bytes) -> Bytes {
        dispatch!(self, b => SchedulerBackend::requirement(b, limit))
    }

    fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError> {
        dispatch!(self, b => SchedulerBackend::alloc_request(b, id, pid, size, api, now))
    }

    fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        dispatch!(self, b => SchedulerBackend::alloc_done(b, id, pid, addr, size, now))
    }

    fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        dispatch!(self, b => SchedulerBackend::alloc_failed(b, id, pid, size, now))
    }

    fn free(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        dispatch!(self, b => SchedulerBackend::free(b, id, pid, addr, now))
    }

    fn mem_info(&self, id: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        dispatch!(self, b => SchedulerBackend::mem_info(b, id, pid))
    }

    fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        dispatch!(self, b => SchedulerBackend::process_exit(b, id, pid, now))
    }

    fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        dispatch!(self, b => SchedulerBackend::container_close(b, id, now))
    }

    fn home_of(&self, id: ContainerId) -> Option<Placement> {
        dispatch!(self, b => SchedulerBackend::home_of(b, id))
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        dispatch!(self, b => SchedulerBackend::home_device(b, id))
    }

    fn devices(&self) -> Vec<BackendDeviceInfo> {
        dispatch!(self, b => SchedulerBackend::devices(b))
    }

    fn check_invariants(&self) -> Result<(), String> {
        dispatch!(self, b => SchedulerBackend::check_invariants(b))
    }

    fn fingerprint(&self) -> u64 {
        dispatch!(self, b => SchedulerBackend::fingerprint(b))
    }

    fn attach_obs(&mut self, obs: SchedObs) {
        dispatch!(self, b => SchedulerBackend::attach_obs(b, obs))
    }

    fn primary(&self) -> &Scheduler {
        dispatch!(self, b => SchedulerBackend::primary(b))
    }

    fn each_device<'a>(&'a self, tag: u64, f: &mut impl FnMut(u64, &'a Scheduler)) {
        dispatch!(self, b => SchedulerBackend::each_device(b, tag, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterNode, SwarmStrategy};
    use crate::core::SchedulerConfig;
    use crate::multi_gpu::PlacementPolicy;
    use crate::policy::PolicyKind;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn backends() -> Vec<TopologyBackend> {
        vec![
            TopologyBackend::Single(Scheduler::new(
                SchedulerConfig::with_capacity(Bytes::gib(5)),
                PolicyKind::Fifo.build(0),
            )),
            TopologyBackend::MultiGpu(MultiGpuScheduler::new(
                &[Bytes::gib(5), Bytes::gib(5)],
                PolicyKind::Fifo,
                PlacementPolicy::RoundRobin,
                7,
            )),
            TopologyBackend::Cluster(ClusterScheduler::new(
                vec![
                    ClusterNode::new("n0", &[Bytes::gib(5)], PolicyKind::Fifo, 1),
                    ClusterNode::new("n1", &[Bytes::gib(5)], PolicyKind::Fifo, 2),
                ],
                SwarmStrategy::Spread,
                9,
            )),
        ]
    }

    #[test]
    fn every_backend_serves_the_same_lifecycle() {
        for mut b in backends() {
            let place = b.register(ContainerId(1), Bytes::gib(2), t(0)).unwrap();
            assert_eq!(b.home_of(ContainerId(1)), Some(place.clone()));
            let (out, _) = b
                .alloc_request(ContainerId(1), 7, Bytes::gib(1), ApiKind::Malloc, t(1))
                .unwrap();
            assert_eq!(out, AllocOutcome::Granted);
            b.alloc_done(ContainerId(1), 7, 0xA, Bytes::gib(1), t(1))
                .unwrap();
            let (_free, limit) = b.mem_info(ContainerId(1), 7).unwrap();
            assert_eq!(limit, Bytes::gib(2));
            let (freed, _) = b.free(ContainerId(1), 7, 0xA, t(2)).unwrap();
            assert_eq!(freed, Bytes::gib(1));
            b.process_exit(ContainerId(1), 7, t(3)).unwrap();
            b.container_close(ContainerId(1), t(4)).unwrap();
            b.check_invariants().unwrap();
            let devs = b.devices();
            assert!(!devs.is_empty());
            assert!(devs.iter().all(|d| d.open_containers == 0));
            let _ = b.fingerprint();
        }
    }

    #[test]
    fn placement_labels_are_wire_friendly() {
        let single = Placement {
            node: None,
            device: 0,
        };
        assert_eq!(single.label(), "0");
        let clustered = Placement {
            node: Some("node-3".into()),
            device: 1,
        };
        assert_eq!(clustered.label(), "node-3:1");
    }

    #[test]
    fn device_schedulers_cover_every_device_and_lead_with_primary() {
        for b in backends() {
            let scheds = b.device_schedulers();
            assert_eq!(scheds.len(), b.devices().len());
            assert!(std::ptr::eq(scheds[0], b.primary()));
        }
    }

    #[test]
    fn cluster_devices_snapshot_covers_all_nodes() {
        let b = backends().pop().unwrap();
        let devs = b.devices();
        assert_eq!(devs.len(), 2);
        assert_eq!(devs[0].node.as_deref(), Some("n0"));
        assert_eq!(devs[1].node.as_deref(), Some("n1"));
        assert_eq!(b.topology_kind(), "cluster");
    }
}
