//! Multi-GPU extension (paper §V: "Our future work will extend the
//! ConVGPU in a multiple GPU with an appropriate algorithm").
//!
//! The natural decomposition keeps the single-device scheduler untouched:
//! one [`Scheduler`] per device plus a **placement policy** that picks the
//! device when a container registers (the three policies are compared in
//! the `multi_gpu_placement` bench). Every later message is routed by the
//! container → device **home map** to the container's device.
//!
//! Tickets handed out by different devices are disambiguated by tagging
//! the device index into one byte of the ticket, the device lane at
//! [`DEVICE_TICKET_SHIFT`], so a multi-GPU service can key its waiter
//! table on the ticket alone. Device 0's tag is zero, which keeps
//! single-device golden traces bit-identical when a one-device topology
//! is used. [`tag`] is the only code that shifts a ticket; the lane's
//! width bounds a scheduler at [`MultiGpuScheduler::MAX_DEVICES`]
//! devices, which the constructor enforces.

use crate::backend::SchedulerBackend;
use crate::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler, SchedulerConfig};
use crate::policy::PolicyKind;
use convgpu_ipc::message::{ApiKind, TopologyDevice};
use convgpu_obs::catalogue::SCHED_PLACEMENT;
use convgpu_obs::Registry;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bit position of the device lane: raw per-device tickets are small
/// sequential integers, far below it.
pub const DEVICE_TICKET_SHIFT: u32 = 48;

/// `ticket` with `device` written into the device lane.
pub fn tag(device: DeviceIndex, ticket: u64) -> u64 {
    debug_assert!(device < MultiGpuScheduler::MAX_DEVICES);
    debug_assert_eq!(
        ticket >> DEVICE_TICKET_SHIFT,
        0,
        "ticket {ticket:#x} already carries a device tag"
    );
    ((device as u64) << DEVICE_TICKET_SHIFT) | ticket
}

/// How to choose the device for a new container.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Cycle through devices regardless of load.
    RoundRobin,
    /// The device with the most unassigned memory (load balancing).
    MostFree,
    /// The device whose unassigned memory fits the requirement most
    /// tightly (packing; leaves big holes for big containers).
    BestFitDevice,
}

impl PlacementPolicy {
    /// Stable label used in metrics, reports, and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round-robin",
            PlacementPolicy::MostFree => "most-free",
            PlacementPolicy::BestFitDevice => "best-fit-device",
        }
    }

    /// Parse a CLI spelling (`rr`, `most-free`, `best-fit`, and the full
    /// labels above).
    pub fn parse(s: &str) -> Option<PlacementPolicy> {
        match s {
            "rr" | "round-robin" => Some(PlacementPolicy::RoundRobin),
            "most-free" | "mf" => Some(PlacementPolicy::MostFree),
            "best-fit" | "bf" | "best-fit-device" => Some(PlacementPolicy::BestFitDevice),
            _ => None,
        }
    }
}

/// Index of a device within a [`MultiGpuScheduler`].
pub type DeviceIndex = usize;

/// A scheduler spanning several GPUs; see the module docs.
#[derive(Clone)]
pub struct MultiGpuScheduler {
    devices: Vec<Scheduler>,
    homes: BTreeMap<ContainerId, DeviceIndex>,
    placement: PlacementPolicy,
    /// Round-robin cursor: advanced once per placement.
    rr_next: usize,
    /// Where placements are counted, once observability is attached.
    registry: Option<Arc<Registry>>,
}

impl MultiGpuScheduler {
    /// Most devices the one-byte device lane of a ticket can name.
    pub const MAX_DEVICES: usize = 1 << 8;

    /// Build with one single-device scheduler per capacity entry, all
    /// using the same redistribution policy kind.
    pub fn new(
        capacities: &[Bytes],
        sched_policy: PolicyKind,
        placement: PlacementPolicy,
        seed: u64,
    ) -> Self {
        Self::with_config(
            SchedulerConfig::paper(),
            capacities,
            sched_policy,
            placement,
            seed,
        )
    }

    /// [`new`](Self::new) with an explicit base config (context
    /// overhead and its charging); each device overrides only the
    /// capacity.
    ///
    /// # Panics
    /// On an empty capacity list, or more than
    /// [`MAX_DEVICES`](Self::MAX_DEVICES) devices.
    pub fn with_config(
        base: SchedulerConfig,
        capacities: &[Bytes],
        sched_policy: PolicyKind,
        placement: PlacementPolicy,
        seed: u64,
    ) -> Self {
        assert!(!capacities.is_empty(), "need at least one device");
        assert!(
            capacities.len() <= Self::MAX_DEVICES,
            "{} devices do not fit the ticket's device lane ({} at most)",
            capacities.len(),
            Self::MAX_DEVICES
        );
        let devices = capacities
            .iter()
            .enumerate()
            .map(|(i, &cap)| {
                let cfg = SchedulerConfig {
                    capacity: cap,
                    ..base.clone()
                };
                Scheduler::new(cfg, sched_policy.build(seed.wrapping_add(i as u64)))
            })
            .collect();
        MultiGpuScheduler {
            devices,
            homes: BTreeMap::new(),
            placement,
            rr_next: 0,
            registry: None,
        }
    }

    /// The device schedulers, in index order.
    pub fn shards(&self) -> &[Scheduler] {
        &self.devices
    }

    /// Register a container on the placement policy's device; returns the
    /// device index.
    pub fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<DeviceIndex, SchedError> {
        if self.homes.contains_key(&id) {
            return Err(SchedError::AlreadyRegistered(id));
        }
        let device = self.pick(limit);
        self.devices[device].register(id, limit, now)?;
        self.homes.insert(id, device);
        if let Some(registry) = &self.registry {
            let labels = [
                ("placement", self.placement.label()),
                ("device", &device.to_string()),
            ];
            registry.inc(SCHED_PLACEMENT, &labels, 1);
        }
        Ok(device)
    }

    /// [`SchedulerBackend::container_close`], callable without the trait
    /// in scope.
    pub fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        self.on_home(id, |s| s.container_close(id, now))
    }

    /// The placement policy's device for a container declaring `limit`;
    /// asked once per registration, so the round-robin cursor advances
    /// once per container.
    fn pick(&mut self, limit: Bytes) -> DeviceIndex {
        let devices = &self.devices;
        let most_free = || {
            (0..devices.len())
                .max_by_key(|&i| (devices[i].unassigned(), std::cmp::Reverse(i)))
                .expect("non-empty")
        };
        let pick = match self.placement {
            PlacementPolicy::RoundRobin => {
                let idx = self.rr_next % devices.len();
                self.rr_next = self.rr_next.wrapping_add(1);
                idx
            }
            PlacementPolicy::MostFree => most_free(),
            PlacementPolicy::BestFitDevice => (0..devices.len())
                .filter(|&i| devices[i].unassigned() >= devices[i].requirement(limit))
                .min_by_key(|&i| (devices[i].unassigned(), i))
                // Nothing fits now: fall back to the emptiest device,
                // where the container will be suspended least long.
                .unwrap_or_else(most_free),
        };
        // A device that cannot ever host the limit is skipped in favour of
        // any that can.
        let capable = |i: usize| devices[i].config().capacity >= devices[i].requirement(limit);
        if capable(pick) {
            pick
        } else {
            (0..devices.len()).find(|&i| capable(i)).unwrap_or(pick)
        }
    }

    /// The one home-map lookup every routed message starts with.
    fn route(&self, id: ContainerId) -> Result<DeviceIndex, SchedError> {
        self.homes
            .get(&id)
            .copied()
            .ok_or(SchedError::UnknownContainer(id))
    }

    /// The one route-and-tag: run `op` on `id`'s home device, then write
    /// that device into every ticket it answers with.
    fn on_home<T: Tickets>(
        &mut self,
        id: ContainerId,
        op: impl FnOnce(&mut Scheduler) -> Result<T, SchedError>,
    ) -> Result<T, SchedError> {
        let device = self.route(id)?;
        Ok(op(&mut self.devices[device])?.tagged(device))
    }
}

/// What a device's transition answers with: `tagged` writes the device
/// into each ticket in it. A freed size has none and stays as it is.
trait Tickets: Sized {
    fn tagged(self, _device: DeviceIndex) -> Self {
        self
    }
}

impl Tickets for Bytes {}

impl Tickets for Vec<ResumeAction> {
    fn tagged(mut self, device: DeviceIndex) -> Self {
        for a in &mut self {
            a.ticket = tag(device, a.ticket);
        }
        self
    }
}

impl Tickets for AllocOutcome {
    fn tagged(self, device: DeviceIndex) -> Self {
        match self {
            AllocOutcome::Suspended { ticket } => AllocOutcome::Suspended {
                ticket: tag(device, ticket),
            },
            other => other,
        }
    }
}

impl<T: Tickets> Tickets for (T, Vec<ResumeAction>) {
    fn tagged(self, device: DeviceIndex) -> Self {
        (self.0.tagged(device), self.1.tagged(device))
    }
}

impl SchedulerBackend for MultiGpuScheduler {
    fn topology_kind(&self) -> &'static str {
        "multi-gpu"
    }

    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<DeviceIndex, SchedError> {
        MultiGpuScheduler::register(self, id, limit, now)
    }

    fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError> {
        self.on_home(id, |s| s.alloc_request(id, pid, size, api, now))
    }

    fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        let device = self.route(id)?;
        self.devices[device].alloc_done(id, pid, addr, size, now)
    }

    fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        self.on_home(id, |s| s.alloc_failed(id, pid, size, now))
    }

    fn free(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        self.on_home(id, |s| s.free(id, pid, addr, now))
    }

    fn mem_info(&self, id: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        self.devices[self.route(id)?].mem_info(id, pid)
    }

    fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        self.on_home(id, |s| s.process_exit(id, pid, now))
    }

    fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        MultiGpuScheduler::container_close(self, id, now)
    }

    fn home_of(&self, id: ContainerId) -> Option<DeviceIndex> {
        self.route(id).ok()
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        let device = self.route(id).ok()?;
        Some((tag(device, 0), &self.devices[device]))
    }

    fn devices(&self) -> Vec<TopologyDevice> {
        let mut out = Vec::new();
        for (device, s) in self.devices.iter().enumerate() {
            let device = device as u64;
            out.extend(
                s.devices()
                    .into_iter()
                    .map(|info| TopologyDevice { device, ..info }),
            );
        }
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.devices.iter().enumerate() {
            s.check_invariants()
                .map_err(|e| format!("device {i}: {e}"))?;
        }
        // Homes must point at devices that actually know the container.
        for (&c, &d) in &self.homes {
            if self.devices.get(d).and_then(|s| s.container(c)).is_none() {
                return Err(format!("container {c:?} missing from home device {d}"));
            }
        }
        Ok(())
    }

    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &self.devices {
            h ^= s.policy_fingerprint();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= self.rr_next as u64;
        h.wrapping_mul(0x0000_0100_0000_01b3)
    }

    fn attach_obs(&mut self, obs: SchedObs) {
        for (i, s) in self.devices.iter_mut().enumerate() {
            s.attach_obs(obs.with_device(i.to_string()));
        }
        self.registry = Some(obs.registry);
    }

    fn primary(&self) -> &Scheduler {
        &self.devices[0]
    }

    fn each_device<'a>(&'a self, f: &mut impl FnMut(u64, &'a Scheduler)) {
        for (i, s) in self.devices.iter().enumerate() {
            f(tag(i, 0), s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_obs::Tracer;

    fn two_gpu(placement: PlacementPolicy) -> MultiGpuScheduler {
        MultiGpuScheduler::new(
            &[Bytes::gib(5), Bytes::gib(5)],
            PolicyKind::BestFit,
            placement,
            42,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn round_robin_alternates() {
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        let a = m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        let b = m.register(ContainerId(2), Bytes::gib(1), t(1)).unwrap();
        let c = m.register(ContainerId(3), Bytes::gib(1), t(2)).unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(c, 0);
    }

    #[test]
    fn most_free_balances_load() {
        let mut m = two_gpu(PlacementPolicy::MostFree);
        m.register(ContainerId(1), Bytes::gib(4), t(0)).unwrap(); // dev 0
        let b = m.register(ContainerId(2), Bytes::gib(1), t(1)).unwrap();
        assert_eq!(b, 1, "second lands on the emptier device");
    }

    #[test]
    fn best_fit_device_packs_tightly() {
        let mut m = MultiGpuScheduler::new(
            &[Bytes::gib(16), Bytes::gib(5)],
            PolicyKind::Fifo,
            PlacementPolicy::BestFitDevice,
            1,
        );
        // 1 GiB container: the 5 GiB device fits more tightly.
        let idx = m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(idx, 1);
        // 10 GiB container only fits on the big device.
        let idx = m.register(ContainerId(2), Bytes::gib(10), t(1)).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn oversized_limits_route_to_a_capable_device() {
        let mut m = MultiGpuScheduler::new(
            &[Bytes::gib(2), Bytes::gib(16)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            1,
        );
        // Round-robin would pick device 0, which can never host 8 GiB.
        let idx = m.register(ContainerId(1), Bytes::gib(8), t(0)).unwrap();
        assert_eq!(idx, 1);
    }

    #[test]
    fn oversized_for_every_device_is_rejected_not_suspended() {
        let mut m = two_gpu(PlacementPolicy::BestFitDevice);
        let err = m
            .register(ContainerId(1), Bytes::gib(50), t(0))
            .unwrap_err();
        assert!(
            matches!(err, SchedError::LimitExceedsCapacity { .. }),
            "got {err:?}"
        );
        // Nothing was homed, nothing was suspended.
        assert_eq!(m.home_of(ContainerId(1)), None);
        assert_eq!(m.open_containers(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn exact_fit_tie_breaks_by_device_index() {
        // Both devices identical and empty: BestFitDevice must pick the
        // lower index deterministically.
        let mut m = two_gpu(PlacementPolicy::BestFitDevice);
        let idx = m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(idx, 0, "tie broken by lowest device index");
        // MostFree ties resolve the same way.
        let mut m = two_gpu(PlacementPolicy::MostFree);
        let idx = m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(idx, 0);
    }

    #[test]
    fn best_fit_exhaustion_falls_back_to_emptiest() {
        let mut m = two_gpu(PlacementPolicy::BestFitDevice);
        // Registration reserves the full requirement eagerly, so two
        // 4 GiB containers leave under 1 GiB unassigned on each device.
        m.register(ContainerId(1), Bytes::gib(4), t(0)).unwrap(); // dev 0
        m.register(ContainerId(2), Bytes::gib(4), t(1)).unwrap(); // dev 1

        // A 3 GiB requirement fits no device's unassigned pool right now;
        // the fallback picks the emptiest device (tie → index 0) and the
        // container registers with a partial reservation instead of being
        // rejected — capacity still suffices.
        let idx = m.register(ContainerId(3), Bytes::gib(3), t(2)).unwrap();
        assert_eq!(idx, 0, "fallback lands on the emptiest device");
        assert_eq!(m.open_containers(), 3);
        m.check_invariants().unwrap();
    }

    #[test]
    fn routing_follows_home_device() {
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        m.register(ContainerId(2), Bytes::gib(1), t(0)).unwrap();
        let (out, _) = m
            .alloc_request(ContainerId(2), 7, Bytes::gib(1), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(out, AllocOutcome::Granted);
        assert_eq!(
            m.shards()[1]
                .container(ContainerId(2))
                .unwrap()
                .granted_allocs,
            1
        );
        assert!(m.shards()[0].container(ContainerId(2)).is_none());
        m.container_close(ContainerId(2), t(2)).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn tickets_carry_the_device_tag() {
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        m.register(ContainerId(1), Bytes::gib(4), t(0)).unwrap(); // dev 0
        m.register(ContainerId(2), Bytes::gib(4), t(0)).unwrap(); // dev 1
        m.register(ContainerId(3), Bytes::gib(4), t(0)).unwrap(); // dev 0
        m.register(ContainerId(4), Bytes::gib(4), t(0)).unwrap(); // dev 1

        // Saturate both devices, then suspend one container on each.
        for (c, pid) in [(1u64, 10u64), (2, 20)] {
            let (out, _) = m
                .alloc_request(ContainerId(c), pid, Bytes::gib(4), ApiKind::Malloc, t(1))
                .unwrap();
            assert_eq!(out, AllocOutcome::Granted);
        }
        let (out0, _) = m
            .alloc_request(ContainerId(3), 30, Bytes::gib(4), ApiKind::Malloc, t(2))
            .unwrap();
        let (out1, _) = m
            .alloc_request(ContainerId(4), 40, Bytes::gib(4), ApiKind::Malloc, t(2))
            .unwrap();
        let (t0, t1) = match (out0, out1) {
            (AllocOutcome::Suspended { ticket: a }, AllocOutcome::Suspended { ticket: b }) => {
                (a, b)
            }
            other => panic!("expected suspensions, got {other:?}"),
        };
        assert_ne!(t0, t1, "tickets from different devices never collide");
        assert_eq!(t0 >> DEVICE_TICKET_SHIFT, 0);
        assert_eq!(t1 >> DEVICE_TICKET_SHIFT, 1);
        // Resume actions carry the same tagged ticket.
        let resumed = m.container_close(ContainerId(2), t(3)).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].ticket, t1);
        m.check_invariants().unwrap();
    }

    #[test]
    fn tags_round_trip_at_the_edges() {
        for device in [0, 1, 255] {
            let tagged = tag(device, 7);
            assert_eq!((tagged >> DEVICE_TICKET_SHIFT) as usize, device);
            assert_eq!(tagged ^ tag(device, 0), 7, "raw ticket survives");
        }
        // Device 0 leaves a ticket untouched.
        assert_eq!(tag(0, 9), 9);
        assert_eq!(tag(255, 1), 0x00FF_0000_0000_0001);
    }

    #[test]
    #[should_panic(expected = "already carries a device tag")]
    #[cfg(debug_assertions)]
    fn tagging_a_tagged_ticket_is_a_bug() {
        tag(1, tag(1, 5));
    }

    #[test]
    fn a_full_lane_of_devices_is_accepted() {
        let m = MultiGpuScheduler::new(
            &vec![Bytes::gib(1); MultiGpuScheduler::MAX_DEVICES],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(m.shards().len(), 256);
    }

    #[test]
    #[should_panic(expected = "257 devices do not fit the ticket's device lane")]
    fn one_device_past_the_lane_is_refused() {
        MultiGpuScheduler::new(
            &vec![Bytes::gib(1); MultiGpuScheduler::MAX_DEVICES + 1],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
    }

    /// The placement hint is what the device will charge, not a guess: a
    /// config that does not charge the context overhead admits a limit
    /// equal to the device, as the device itself does.
    #[test]
    fn placement_asks_the_device_what_it_charges() {
        let cfg = SchedulerConfig {
            ctx_overhead: Bytes::ZERO,
            ..SchedulerConfig::with_capacity(Bytes::gib(1))
        };
        let t = SimTime::from_secs(0);
        let mut single = Scheduler::new(cfg.clone(), PolicyKind::Fifo.build(0));
        assert!(single.register(ContainerId(1), Bytes::gib(1), t).is_ok());

        // Round-robin's pick (device 0) can host exactly 1 GiB here; a
        // fixed `limit + 66 MiB` hint would skip it for device 1.
        let mut multi = MultiGpuScheduler::with_config(
            cfg,
            &[Bytes::gib(1), Bytes::mib(1094)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(multi.register(ContainerId(1), Bytes::gib(1), t), Ok(0));

        // And a different overhead is honoured too.
        let cfg = SchedulerConfig {
            ctx_overhead: Bytes::mib(200),
            ..SchedulerConfig::with_capacity(Bytes::gib(1))
        };
        let mut multi = MultiGpuScheduler::with_config(
            cfg,
            &[Bytes::gib(1), Bytes::gib(2)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(multi.register(ContainerId(1), Bytes::mib(900), t), Ok(1));
    }

    /// Each device writes its series under its own `device` label, and a
    /// close retires only the closing container's series on its device.
    /// Gauges are written at scrape, so each count scrapes first.
    #[test]
    fn a_close_retires_the_container_series_of_its_own_device() {
        let registry = Arc::new(Registry::new());
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        m.attach_obs(SchedObs::new(
            Arc::clone(&registry),
            Arc::new(Tracer::new()),
        ));
        m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap(); // dev 0
        m.register(ContainerId(2), Bytes::gib(1), t(1)).unwrap(); // dev 1
        m.alloc_request(ContainerId(1), 1, Bytes::gib(1), ApiKind::Malloc, t(2))
            .unwrap();
        m.alloc_request(ContainerId(2), 2, Bytes::gib(1), ApiKind::Malloc, t(2))
            .unwrap();
        let series_of = |c: ContainerId, device: &str| {
            let (c, snap) = (c.to_string(), registry.snapshot());
            let labels = [
                ("container".to_string(), c),
                ("device".into(), device.into()),
            ];
            let n = snap.series.keys().filter(|k| k.labels == labels).count();
            n
        };
        m.observe_progress();
        assert_eq!(series_of(ContainerId(1), "0"), 4, "four gauges");
        assert_eq!(series_of(ContainerId(2), "1"), 4);
        m.container_close(ContainerId(1), t(3)).unwrap();
        m.observe_progress();
        assert_eq!(series_of(ContainerId(1), "0"), 0, "retired at close");
        assert_eq!(
            series_of(ContainerId(2), "1"),
            4,
            "a bystander keeps its series"
        );
        let placed = registry.snapshot().counter(
            "convgpu_sched_placement_total",
            &[("placement", "round-robin"), ("device", "1")],
        );
        assert_eq!(placed, Some(1));
    }

    #[test]
    fn unknown_container_routing_errors() {
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        assert_eq!(
            m.alloc_request(ContainerId(9), 1, Bytes::mib(1), ApiKind::Malloc, t(0))
                .unwrap_err(),
            SchedError::UnknownContainer(ContainerId(9))
        );
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut m = two_gpu(PlacementPolicy::RoundRobin);
        m.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(
            m.register(ContainerId(1), Bytes::gib(1), t(1)).unwrap_err(),
            SchedError::AlreadyRegistered(ContainerId(1))
        );
    }
}
