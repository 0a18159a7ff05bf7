//! The **multi-GPU** universe: the lifecycle model of [`crate::model`]
//! over a [`MultiGpuScheduler`](convgpu_scheduler::MultiGpuScheduler).
//!
//! What this arrangement adds to the single device is a second place for
//! a record to be: properties 2 (no cross-device budget leakage), 4 and 5
//! (device-tagged tickets neither lost, invented nor cross-wired) of the
//! one property list now have something to catch, and the round-robin
//! cursor joins the canonical state through the topology fingerprint.
//!
//! A multi-GPU host is also what a cluster node daemon runs, and the one
//! piece of the cluster a node serves itself is *adoption*: the `migrate`
//! wire message, by which a router hands it a container drained off
//! another node together with the budget it had committed there. The
//! adoption universe lets one container arrive that way among natively
//! registered co-tenants (property 6).

use crate::model::{ModelConfig, Topology};
use convgpu_scheduler::{PlacementPolicy, PolicyKind};
use convgpu_sim_core::units::Bytes;

impl ModelConfig {
    /// The CI universe: 2 × 768 MiB devices, 3 × 512 MiB containers,
    /// 256/512 MiB quanta — small enough to sweep exhaustively for all
    /// 4 policies × 3 placement policies, contended enough that every
    /// device suspends.
    pub fn two_devices_three_containers(policy: PolicyKind, placement: PlacementPolicy) -> Self {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::MultiGpu {
                capacities: vec![Bytes::new(u.0 * 3); 2],
                placement,
            },
            limits: vec![Bytes::new(u.0 * 2); 3],
            ..ModelConfig::three_containers(policy)
        }
    }

    /// The adoption universe: the CI universe under best-fit-device
    /// placement (what a multi-GPU node daemon runs), in which container
    /// C1 may instead arrive by adoption carrying 256 or 512 MiB of
    /// committed budget.
    pub fn two_devices_with_adoption(policy: PolicyKind) -> Self {
        ModelConfig {
            adoption: true,
            ..Self::two_devices_three_containers(policy, PlacementPolicy::BestFitDevice)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::model::{explore, replay, CheckOutcome, Event, ModelConfig, SearchMode, Topology};
    use convgpu_scheduler::{PlacementPolicy, PolicyKind};
    use convgpu_sim_core::units::Bytes;

    fn tiny(policy: PolicyKind, placement: PlacementPolicy) -> ModelConfig {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::MultiGpu {
                capacities: vec![Bytes::new(u.0 * 2); 2],
                placement,
            },
            limits: vec![Bytes::new(u.0 * 2); 2],
            alloc_sizes: vec![u],
            seed: 7,
            max_states: 1_000_000,
            ..ModelConfig::three_containers(policy)
        }
    }

    #[test]
    fn tiny_universe_passes_for_every_placement() {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::MostFree,
            PlacementPolicy::BestFitDevice,
        ] {
            let out = explore(&tiny(PolicyKind::Fifo, placement));
            match out {
                CheckOutcome::Pass(stats) => {
                    assert!(stats.states > 10, "trivially small: {stats:?}");
                    assert!(stats.terminals > 0);
                }
                CheckOutcome::Fail { failure, trace, .. } => {
                    panic!("{placement:?} failed: {failure} after {trace:?}")
                }
            }
        }
    }

    #[test]
    fn contended_universe_actually_suspends() {
        // Three 512 MiB containers on two 768 MiB devices: at least one
        // device hosts two containers and must suspend under contention.
        let cfg = ModelConfig::two_devices_three_containers(
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
        );
        match explore(&cfg) {
            CheckOutcome::Pass(stats) => {
                assert!(
                    stats.suspended_states > 0,
                    "universe never suspends — checks nothing: {stats:?}"
                );
            }
            CheckOutcome::Fail { failure, trace, .. } => {
                panic!("CI universe failed: {failure} after {trace:?}")
            }
        }
    }

    #[test]
    fn dfs_and_bfs_agree_on_state_count() {
        let mut a = tiny(PolicyKind::BestFit, PlacementPolicy::MostFree);
        let mut b = a.clone();
        a.mode = SearchMode::Dfs;
        b.mode = SearchMode::Bfs;
        match (explore(&a), explore(&b)) {
            (CheckOutcome::Pass(sa), CheckOutcome::Pass(sb)) => {
                assert_eq!(sa.states, sb.states);
                assert_eq!(sa.transitions, sb.transitions);
            }
            other => panic!("expected both to pass: {other:?}"),
        }
    }

    /// An adoption no device can back is refused whole and leaves no
    /// record: the container ends closed, so closing it again is an
    /// unknown container.
    #[test]
    fn an_adoption_no_device_can_back_is_refused() {
        let cfg = ModelConfig::two_devices_with_adoption(PolicyKind::Fifo);
        let u = Bytes::mib(256);
        // Best-fit-device homes C2 and C3 on different devices, leaving
        // 256 MiB unassigned on each.
        let arrive = [
            Event::Register { c: 1 },
            Event::Register { c: 2 },
            Event::Adopt {
                c: 0,
                used: Bytes::new(u.0 * 2),
            },
        ];
        let closes = [Event::Close { c: 1 }, Event::Close { c: 2 }];
        replay(&cfg, &[&arrive[..], &closes].concat()).expect("a clean refusal");
        let (step, _) = replay(&cfg, &[&arrive[..], &[Event::Close { c: 0 }]].concat())
            .expect_err("C1 never arrived");
        assert_eq!(step, 3);
        // 256 MiB fits where 512 did not.
        let fits = [
            &arrive[..2],
            &[Event::Adopt { c: 0, used: u }, Event::Close { c: 0 }],
        ];
        replay(&cfg, &fits.concat()).expect("adopted and closed");
    }
}
