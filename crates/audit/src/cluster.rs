//! The **cluster** universe: the lifecycle model of [`crate::model`]
//! over a [`ClusterScheduler`](convgpu_scheduler::ClusterScheduler).
//!
//! One level up from [`crate::multi`]: records could now leak across
//! *nodes* (property 2 — what the distributed router relies on when it
//! fails a dead node's containers over to rejections), tickets carry a
//! node tag stacked over the device tag (properties 4 and 5), and the
//! Swarm RNG joins the canonical state through the topology fingerprint.

use crate::model::{ModelConfig, Topology};
use convgpu_scheduler::cluster::SwarmStrategy;
use convgpu_scheduler::PolicyKind;
use convgpu_sim_core::units::Bytes;

impl ModelConfig {
    /// The CI universe: 2 single-GPU nodes of 768 MiB, 3 × 512 MiB
    /// containers, 256/512 MiB quanta — small enough to sweep
    /// exhaustively for every Swarm strategy, contended enough that at
    /// least one node suspends (some node hosts two containers).
    pub fn two_nodes_three_containers(policy: PolicyKind, strategy: SwarmStrategy) -> Self {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::Cluster {
                nodes: vec![vec![Bytes::new(u.0 * 3)]; 2],
                strategy,
                node_death: false,
            },
            limits: vec![Bytes::new(u.0 * 2); 3],
            seed: 0xC1F5,
            ..ModelConfig::three_containers(policy)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::model::{explore, CheckOutcome, ModelConfig, SearchMode, Topology};
    use convgpu_scheduler::cluster::SwarmStrategy;
    use convgpu_scheduler::PolicyKind;
    use convgpu_sim_core::units::Bytes;

    /// Two 512 MiB single-GPU nodes, two 256 MiB containers.
    pub(crate) fn tiny(policy: PolicyKind, strategy: SwarmStrategy) -> ModelConfig {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::Cluster {
                nodes: vec![vec![Bytes::new(u.0 * 2)]; 2],
                strategy,
                node_death: false,
            },
            limits: vec![u; 2],
            alloc_sizes: vec![u],
            seed: 7,
            max_states: 1_000_000,
            ..ModelConfig::three_containers(policy)
        }
    }

    #[test]
    fn tiny_universe_passes_for_every_strategy() {
        for strategy in [
            SwarmStrategy::Spread,
            SwarmStrategy::BinPack,
            SwarmStrategy::Random,
        ] {
            let out = explore(&tiny(PolicyKind::Fifo, strategy));
            match out {
                CheckOutcome::Pass(stats) => {
                    assert!(stats.states > 10, "trivially small: {stats:?}");
                    assert!(stats.terminals > 0);
                }
                CheckOutcome::Fail { failure, trace, .. } => {
                    panic!("{strategy:?} failed: {failure} after {trace:?}")
                }
            }
        }
    }

    #[test]
    fn contended_universe_actually_suspends() {
        // Three 512 MiB containers on two single-GPU 768 MiB nodes: some
        // node hosts two containers and must suspend under contention.
        let cfg = ModelConfig::two_nodes_three_containers(PolicyKind::Fifo, SwarmStrategy::Spread);
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
        let mut a = tiny(PolicyKind::BestFit, SwarmStrategy::BinPack);
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
