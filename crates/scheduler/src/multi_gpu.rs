//! Multi-GPU extension (paper §V: "Our future work will extend the
//! ConVGPU in a multiple GPU with an appropriate algorithm").
//!
//! The natural decomposition keeps the single-device scheduler untouched:
//! one [`Scheduler`] per device plus a **placement policy** that picks the
//! device when a container registers. Every later message is routed by the
//! container → device map. That routing is the sharding engine's
//! ([`Sharded`]); this module is its device-level instantiation: the three
//! placement policies (compared in the `multi_gpu_placement` bench) as a
//! [`Placer`], and the constructors.
//!
//! Tickets handed out by different devices are disambiguated by tagging
//! the device index into the device lane ([`DEVICE_TICKET_SHIFT`]), so a
//! multi-GPU service can key its waiter table on the ticket alone. Device
//! 0 tickets are numerically unchanged, which keeps single-device golden
//! traces bit-identical when a one-device topology is used.

use crate::backend::SchedulerBackend;
use crate::core::{Scheduler, SchedulerConfig};
use crate::policy::PolicyKind;
use crate::sharded::{Placer, Sharded, TicketLane};
use convgpu_obs::catalogue::SCHED_PLACEMENT;
use convgpu_obs::Registry;
use convgpu_sim_core::units::Bytes;

pub use crate::sharded::DEVICE_TICKET_SHIFT;

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

/// The device-level [`Placer`]: a [`PlacementPolicy`] plus the
/// round-robin cursor.
#[derive(Clone, Debug)]
pub struct DevicePlacer {
    policy: PlacementPolicy,
    rr_next: usize,
}

impl DevicePlacer {
    /// The configured placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }
}

impl Placer for DevicePlacer {
    const KIND: &'static str = "multi-gpu";
    const LANE: TicketLane = TicketLane::DEVICE;

    /// The policy's pick first — once per placement, so the round-robin
    /// cursor advances once however many candidates follow — then the
    /// remaining devices in index order.
    fn next<B: SchedulerBackend>(
        &mut self,
        shards: &[B],
        limit: Bytes,
        tried: &[usize],
    ) -> Option<usize> {
        if !tried.is_empty() {
            return (0..shards.len()).find(|i| !tried.contains(i));
        }
        let most_free = || {
            (0..shards.len())
                .max_by_key(|&i| (shards[i].unassigned(), std::cmp::Reverse(i)))
                .expect("non-empty")
        };
        let pick = match self.policy {
            PlacementPolicy::RoundRobin => {
                let idx = self.rr_next % shards.len();
                self.rr_next = self.rr_next.wrapping_add(1);
                idx
            }
            PlacementPolicy::MostFree => most_free(),
            PlacementPolicy::BestFitDevice => (0..shards.len())
                .filter(|&i| shards[i].unassigned() >= shards[i].requirement(limit))
                .min_by_key(|&i| (shards[i].unassigned(), i))
                // Nothing fits now: fall back to the emptiest device,
                // where the container will be suspended least long.
                .unwrap_or_else(most_free),
        };
        // A device that cannot ever host the limit is skipped in favour of
        // any that can.
        let capable = |i: usize| shards[i].largest_device() >= shards[i].requirement(limit);
        if capable(pick) {
            Some(pick)
        } else {
            Some((0..shards.len()).find(|&i| capable(i)).unwrap_or(pick))
        }
    }

    fn count(&self, registry: &Registry, shard: &str) {
        let labels = [("placement", self.policy.label()), ("device", shard)];
        registry.inc(SCHED_PLACEMENT, &labels, 1);
    }

    fn fingerprint(&self) -> u64 {
        self.rr_next as u64
    }
}

/// A scheduler spanning several GPUs.
pub type MultiGpuScheduler = Sharded<Scheduler, DevicePlacer>;

impl MultiGpuScheduler {
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

    /// [`new`](Self::new) with an explicit base config (resume rule,
    /// context-overhead charging); each device overrides only the
    /// capacity.
    ///
    /// # Panics
    /// On an empty capacity list, or more than
    /// [`TicketLane::MAX_SHARDS`] devices.
    pub fn with_config(
        base: SchedulerConfig,
        capacities: &[Bytes],
        sched_policy: PolicyKind,
        placement: PlacementPolicy,
        seed: u64,
    ) -> Self {
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
        let placer = DevicePlacer {
            policy: placement,
            rr_next: 0,
        };
        Sharded::from_shards(devices, Vec::new(), placer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{AllocOutcome, SchedError};
    use convgpu_ipc::message::ApiKind;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::time::SimTime;

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
