//! The **multi-GPU** universe: the lifecycle model of [`crate::model`]
//! over a [`MultiGpuScheduler`](convgpu_scheduler::MultiGpuScheduler).
//!
//! What this arrangement adds to the single device is a second place for
//! a record to be: properties 2 (no cross-device budget leakage), 4 and 5
//! (device-tagged tickets neither lost, invented nor cross-wired) of the
//! one property list now have something to catch, and the round-robin
//! cursor joins the canonical state through the topology fingerprint.
//!
//! A multi-GPU host is also what a cluster node daemon runs. A container
//! a router migrates onto a node arrives there as a plain `register`, so
//! this universe covers it too.

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
}

#[cfg(test)]
mod tests {
    use crate::model::{explore, CheckOutcome, ModelConfig, SearchMode, Topology};
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
}
