//! The **live migration** universe: a cluster universe in which a node
//! *dies* at an arbitrary point and its containers are drained onto the
//! survivors via checkpointed adoption
//! ([`ClusterScheduler::migrate_node`](convgpu_scheduler::Sharded::migrate_node)).
//!
//! [`crate::cluster`] shows the cluster scheduler safe while every node
//! stays alive. Here the explorer crosses every interleaving of register
//! / alloc / free / close with **every possible death point** of every
//! node. The definition is three restrictions on the event space, which
//! [`crate::model`]'s `enabled` applies to a universe with node death:
//! no `Exit` (death is studied *after* admission, on live processes),
//! `Kill` offered until the first kill, and no `Register` after it (which
//! keeps placement off dead nodes and bounds the universe). Property 6 of
//! the one list — budget conservation across the hand-off — is defined
//! only here; the others hold mid-migration and after it as everywhere.

use crate::model::{ModelConfig, Topology};

impl ModelConfig {
    /// The same universe with node death: its cluster's nodes can be
    /// killed.
    ///
    /// # Panics
    /// If the topology is not a cluster.
    pub fn with_node_death(mut self) -> Self {
        match &mut self.topology {
            Topology::Cluster { node_death, .. } => *node_death = true,
            other => panic!("node death needs a cluster topology, not {other:?}"),
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::tests::tiny;
    use crate::model::{explore, replay, CheckOutcome, Event, ModelConfig};
    use convgpu_scheduler::cluster::SwarmStrategy;
    use convgpu_scheduler::PolicyKind;
    use convgpu_sim_core::units::Bytes;

    #[test]
    fn tiny_universe_survives_every_death_point() {
        for strategy in [
            SwarmStrategy::Spread,
            SwarmStrategy::BinPack,
            SwarmStrategy::Random,
        ] {
            match explore(&tiny(PolicyKind::Fifo, strategy).with_node_death()) {
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
    fn contended_universe_migrates_and_suspends() {
        let cfg = ModelConfig::two_nodes_three_containers(PolicyKind::Fifo, SwarmStrategy::Spread)
            .with_node_death();
        match explore(&cfg) {
            CheckOutcome::Pass(stats) => {
                assert!(
                    stats.suspended_states > 0,
                    "universe never suspends — checks nothing: {stats:?}"
                );
            }
            CheckOutcome::Fail { failure, trace, .. } => {
                panic!("migration universe failed: {failure} after {trace:?}")
            }
        }
    }

    /// A kill replays like any other event, and only where nodes can die.
    #[test]
    fn kill_is_scriptable_only_with_node_death() {
        let u = Bytes::mib(256);
        let trace = [
            Event::Register { c: 0 },
            Event::Register { c: 1 },
            Event::Alloc { c: 0, size: u },
            Event::Kill { n: 0 },
            Event::Close { c: 0 },
            Event::Close { c: 1 },
        ];
        let alive = tiny(PolicyKind::Fifo, SwarmStrategy::Spread);
        assert_eq!(replay(&alive, &trace).unwrap_err().0, 3);
        replay(&alive.with_node_death(), &trace).expect("legal migration trace");
    }
}
