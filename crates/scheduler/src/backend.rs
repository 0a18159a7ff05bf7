//! The topology backend abstraction (tentpole of the topology refactor).
//!
//! [`SchedulerBackend`] is the message surface [`crate::node::on`] needs
//! plus what the daemon and the model checker read, extracted from the
//! concrete single-device [`Scheduler`] so the multi-GPU scheduler can
//! stand behind the same IPC stack. It has three implementations: the
//! device ([`Scheduler`]), the multi-GPU host
//! ([`MultiGpuScheduler`]), and [`TopologyBackend`], the enum-dispatch
//! wrapper the service stores (no trait objects, no generics bleeding
//! into `convgpu-core`'s public types).
//!
//! Design rules:
//!
//! * **Single-device behavior is bit-identical.** The `Single` arm
//!   forwards straight to `Scheduler` — same tickets, same decision log,
//!   same metric label sets (`SchedObs.device == None`).
//! * **Tickets are globally unique** across devices because the
//!   multi-GPU scheduler tags the device index into the ticket's device
//!   lane ([`crate::multi_gpu::tag`]); a service can therefore keep one
//!   waiter table keyed on the ticket alone, whatever the topology.
//! * **Placement is observable.** Registration reports the device the
//!   container landed on, and `devices()` snapshots per-device occupancy
//!   for the `query_topology` wire message.

use crate::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler};
use crate::multi_gpu::{DeviceIndex, MultiGpuScheduler};
use convgpu_ipc::message::{ApiKind, TopologyDevice};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;

/// The message surface [`crate::node::on`] requires of any topology.
pub trait SchedulerBackend {
    /// Short kind tag: `"single"` or `"multi-gpu"`.
    fn topology_kind(&self) -> &'static str;

    /// Admit a container, choosing its device. Rejects (never suspends)
    /// when no device can ever host the limit.
    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<DeviceIndex, SchedError>;

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

    /// The device `id` lives on, if registered.
    fn home_of(&self, id: ContainerId) -> Option<DeviceIndex>;

    /// The device scheduler `id` lives on, with the ticket tag that
    /// device's tickets carry when they leave this backend.
    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)>;

    /// Snapshot every device in index order, as `query_topology`
    /// carries it (`node` empty: a host does not know its cluster name).
    fn devices(&self) -> Vec<TopologyDevice>;

    /// Structural invariants across the whole topology.
    fn check_invariants(&self) -> Result<(), String>;

    /// Deterministic digest of policy/placement state (golden tests).
    fn fingerprint(&self) -> u64;

    /// Attach observability; a multi-GPU host scopes the sink per device
    /// so gauges never collide.
    fn attach_obs(&mut self, obs: SchedObs);

    /// The canonical device scheduler (device 0) — the single-device view
    /// used by legacy introspection paths.
    fn primary(&self) -> &Scheduler;

    /// Visit every device scheduler in [`devices`](Self::devices) order,
    /// each with the ticket tag its tickets leave this backend under.
    fn each_device<'a>(&'a self, f: &mut impl FnMut(u64, &'a Scheduler));

    /// Every device scheduler in the topology, in [`devices`](Self::devices)
    /// order — for introspection that must see all containers regardless
    /// of where placement homed them (metrics collection, close waits).
    fn device_schedulers(&self) -> Vec<&Scheduler> {
        let mut out = Vec::new();
        self.each_device(&mut |_, s| out.push(s));
        out
    }

    /// Number of containers registered and not yet closed.
    fn open_containers(&self) -> usize {
        let mut open = 0;
        self.each_device(&mut |_, s| open += s.open().len());
        open
    }

    /// The scrape hook: write each device's books
    /// (`Scheduler::publish_gauges`) and progress (stall) assessment
    /// into the attached registry. Call it under the lock that guards
    /// the backend, right before reading the registry.
    fn observe_progress(&self) {
        self.each_device(&mut |_, s| {
            s.publish_gauges();
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
    ) -> Result<DeviceIndex, SchedError> {
        Scheduler::register(self, id, limit, now).map(|()| 0)
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

    fn home_of(&self, id: ContainerId) -> Option<DeviceIndex> {
        self.container(id).map(|_| 0)
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        self.container(id).map(|_| (0, self))
    }

    fn devices(&self) -> Vec<TopologyDevice> {
        vec![TopologyDevice {
            node: String::new(),
            device: 0,
            capacity: self.config().capacity,
            unassigned: self.unassigned(),
            containers: SchedulerBackend::open_containers(self) as u64,
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

    fn each_device<'a>(&'a self, f: &mut impl FnMut(u64, &'a Scheduler)) {
        f(0, self);
    }
}

/// Enum-dispatched backend the service stores — avoids generics in
/// `convgpu-core`'s public API while keeping static dispatch per arm.
/// `Single` holds its scheduler inline, larger than the other arm: a
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
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            TopologyBackend::Single($b) => $e,
            TopologyBackend::MultiGpu($b) => $e,
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
    ) -> Result<DeviceIndex, SchedError> {
        dispatch!(self, b => SchedulerBackend::register(b, id, limit, now))
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

    fn home_of(&self, id: ContainerId) -> Option<DeviceIndex> {
        dispatch!(self, b => SchedulerBackend::home_of(b, id))
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        dispatch!(self, b => SchedulerBackend::home_device(b, id))
    }

    fn devices(&self) -> Vec<TopologyDevice> {
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

    fn each_device<'a>(&'a self, f: &mut impl FnMut(u64, &'a Scheduler)) {
        dispatch!(self, b => SchedulerBackend::each_device(b, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ]
    }

    #[test]
    fn every_backend_serves_the_same_lifecycle() {
        for mut b in backends() {
            let device = b.register(ContainerId(1), Bytes::gib(2), t(0)).unwrap();
            assert_eq!(b.home_of(ContainerId(1)), Some(device));
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
            assert!(devs.iter().all(|d| d.containers == 0));
            let _ = b.fingerprint();
        }
    }

    #[test]
    fn device_schedulers_cover_every_device_and_lead_with_primary() {
        for b in backends() {
            let scheds = b.device_schedulers();
            assert_eq!(scheds.len(), b.devices().len());
            assert!(std::ptr::eq(scheds[0], b.primary()));
        }
    }
}
