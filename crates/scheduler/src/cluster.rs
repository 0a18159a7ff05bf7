//! Cluster extension — the paper's second §V future-work item: "Our
//! further step is to adopt the ConVGPU in the clustering system like
//! Docker Swarm."
//!
//! A [`ClusterScheduler`] dispatches containers across *nodes* (each a
//! [`MultiGpuScheduler`] — one or more GPUs behind one host-local ConVGPU
//! scheduler) using Docker Swarm's classic placement strategies:
//!
//! * **Spread** (Swarm's default) — the node with the fewest open
//!   containers, balancing load;
//! * **BinPack** — the node with the least free GPU memory that still
//!   fits the requirement, packing tightly so whole nodes stay free;
//! * **Random** — uniform over capable nodes, deterministic under a seed.
//!
//! After placement every scheduler message routes to the container's home
//! node, preserving all single-node semantics (suspension, guarantees,
//! policy redistribution) unchanged — GPU memory never migrates across
//! nodes, exactly as in a real Swarm deployment. That routing is the
//! sharding engine's ([`Sharded`]); this module is its node-level
//! instantiation: the strategies ([`SwarmStrategy::select`], which the
//! distributed router calls too) as a [`Placer`], and the constructor.
//! The in-process cluster has no code of its own beyond that — it is the
//! pure state machine the bounded model checker drives.
//!
//! Tickets gain the node index in their top byte ([`NODE_TICKET_SHIFT`]),
//! stacked above the device tag applied by each node's
//! [`MultiGpuScheduler`], so one waiter table can serve the whole cluster.

use crate::backend::SchedulerBackend;
use crate::core::SchedulerConfig;
use crate::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use crate::policy::PolicyKind;
use crate::sharded::{Placer, Sharded, TicketLane};
use convgpu_obs::catalogue::SCHED_SWARM_PLACEMENT;
use convgpu_obs::Registry;
use convgpu_sim_core::rng::DetRng;
use convgpu_sim_core::units::Bytes;

pub use crate::sharded::{MigrationMove, NODE_TICKET_SHIFT};

/// Docker-Swarm-style node placement strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwarmStrategy {
    /// Fewest open containers first (Swarm default).
    Spread,
    /// Least free memory that still fits (tight packing).
    BinPack,
    /// Uniform over capable nodes (seeded).
    Random,
}

impl SwarmStrategy {
    /// Stable label used in metrics, reports, and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            SwarmStrategy::Spread => "spread",
            SwarmStrategy::BinPack => "binpack",
            SwarmStrategy::Random => "random",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<SwarmStrategy> {
        match s {
            "spread" => Some(SwarmStrategy::Spread),
            "binpack" | "bin-pack" => Some(SwarmStrategy::BinPack),
            "random" => Some(SwarmStrategy::Random),
            _ => None,
        }
    }

    /// Pick one of `capable` — the nodes still in the running (able to
    /// host the container, not yet tried, and alive as far as the caller
    /// knows). The caller brings its own view of them: `need(i)` is what
    /// the placement would commit on node `i`, `free(i)` the bytes node
    /// `i` has not promised yet, `open(i)` the containers it hosts, and
    /// `draw(n)` a uniform index below `n`. Each is consulted only by the
    /// strategy that scores on it; ties go to the lowest index.
    pub fn select(
        self,
        capable: &[usize],
        need: impl Fn(usize) -> Bytes,
        free: impl Fn(usize) -> u64,
        open: impl Fn(usize) -> u64,
        draw: impl FnOnce(usize) -> usize,
    ) -> Option<usize> {
        if capable.is_empty() {
            return None;
        }
        let nodes = capable.iter().copied();
        match self {
            SwarmStrategy::Spread => nodes.min_by_key(|&i| (open(i), i)),
            // Tightest fit by free memory, preferring nodes that can
            // serve the requirement *now*.
            SwarmStrategy::BinPack => nodes
                .clone()
                .filter(|&i| free(i) >= need(i).as_u64())
                .min_by_key(|&i| (free(i), i))
                .or_else(|| nodes.min_by_key(|&i| (free(i), i))),
            SwarmStrategy::Random => Some(capable[draw(capable.len())]),
        }
    }
}

/// The node-level [`Placer`]: a [`SwarmStrategy`] plus its seeded RNG.
#[derive(Clone, Debug)]
pub struct SwarmPlacer {
    strategy: SwarmStrategy,
    rng: DetRng,
}

impl SwarmPlacer {
    /// The configured Swarm strategy.
    pub fn strategy(&self) -> SwarmStrategy {
        self.strategy
    }
}

impl Placer for SwarmPlacer {
    const KIND: &'static str = "cluster";
    const LANE: TicketLane = TicketLane::NODE;

    /// The strategy's pick among the untried nodes that could ever host
    /// the limit; asked again after a refusal, it picks among the rest
    /// (so Random draws once per attempted node).
    fn next<B: SchedulerBackend>(
        &mut self,
        shards: &[B],
        limit: Bytes,
        tried: &[usize],
    ) -> Option<usize> {
        let need = |i: usize| shards[i].requirement(limit);
        let capable: Vec<usize> = (0..shards.len())
            .filter(|&i| !tried.contains(&i) && shards[i].largest_device() >= need(i))
            .collect();
        self.strategy.select(
            &capable,
            need,
            |i| shards[i].unassigned().as_u64(),
            |i| shards[i].open_containers() as u64,
            |n| self.rng.index(n),
        )
    }

    fn count(&self, registry: &Registry, shard: &str) {
        let labels = [("strategy", self.strategy.label()), ("node", shard)];
        registry.inc(SCHED_SWARM_PLACEMENT, &labels, 1);
    }

    fn fingerprint(&self) -> u64 {
        self.rng.state_fingerprint()
    }
}

/// One cluster node: a named host with its GPUs.
#[derive(Clone)]
pub struct ClusterNode {
    /// Host name, e.g. `"node-03"`.
    pub name: String,
    /// The node's ConVGPU scheduler spanning its GPUs.
    pub gpus: MultiGpuScheduler,
}

impl ClusterNode {
    /// Build a node named `name` with one scheduler per GPU capacity.
    pub fn new(
        name: impl Into<String>,
        gpu_capacities: &[Bytes],
        policy: PolicyKind,
        seed: u64,
    ) -> Self {
        Self::with_config(name, SchedulerConfig::paper(), gpu_capacities, policy, seed)
    }

    /// [`new`](Self::new) with an explicit base scheduler config (resume
    /// rule, context-overhead charging).
    pub fn with_config(
        name: impl Into<String>,
        base: SchedulerConfig,
        gpu_capacities: &[Bytes],
        policy: PolicyKind,
        seed: u64,
    ) -> Self {
        ClusterNode {
            name: name.into(),
            gpus: MultiGpuScheduler::with_config(
                base,
                gpu_capacities,
                policy,
                PlacementPolicy::BestFitDevice,
                seed,
            ),
        }
    }
}

/// Index of a node within the cluster.
pub type NodeIndex = usize;

/// The cluster-level scheduler.
pub type ClusterScheduler = Sharded<MultiGpuScheduler, SwarmPlacer>;

impl ClusterScheduler {
    /// Build a cluster from `nodes` using `strategy`.
    ///
    /// # Panics
    /// On an empty node list, or more than [`TicketLane::MAX_SHARDS`]
    /// nodes.
    pub fn new(nodes: Vec<ClusterNode>, strategy: SwarmStrategy, seed: u64) -> Self {
        let (names, shards) = nodes.into_iter().map(|n| (n.name, n.gpus)).unzip();
        let placer = SwarmPlacer {
            strategy,
            rng: DetRng::seed_from_u64(seed),
        };
        Sharded::from_shards(shards, names, placer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::{AllocOutcome, SchedError};
    use convgpu_ipc::message::ApiKind;
    use convgpu_sim_core::ids::ContainerId;
    use convgpu_sim_core::time::SimTime;

    fn cluster(strategy: SwarmStrategy) -> ClusterScheduler {
        ClusterScheduler::new(
            vec![
                ClusterNode::new("node-0", &[Bytes::gib(5)], PolicyKind::BestFit, 1),
                ClusterNode::new(
                    "node-1",
                    &[Bytes::gib(5), Bytes::gib(5)],
                    PolicyKind::BestFit,
                    2,
                ),
                ClusterNode::new("node-2", &[Bytes::gib(16)], PolicyKind::BestFit, 3),
            ],
            strategy,
            42,
        )
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn spread_balances_container_counts() {
        let mut c = cluster(SwarmStrategy::Spread);
        let mut per_node = [0usize; 3];
        for i in 1..=9u64 {
            let node = c.register(ContainerId(i), Bytes::gib(1), t(i)).unwrap();
            per_node[node] += 1;
        }
        assert_eq!(per_node, [3, 3, 3], "spread must balance counts");
        c.check_invariants().unwrap();
    }

    #[test]
    fn binpack_fills_tightest_node_first() {
        let mut c = cluster(SwarmStrategy::BinPack);
        // node-0 has 5 GiB (tightest), node-1 10 GiB, node-2 16 GiB.
        let first = c.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(first, 0);
        let second = c.register(ContainerId(2), Bytes::gib(1), t(1)).unwrap();
        assert_eq!(second, 0, "keep packing node-0 while it fits");
        // A 10 GiB container only fits node-2's device.
        let big = c.register(ContainerId(3), Bytes::gib(10), t(2)).unwrap();
        assert_eq!(big, 2);
    }

    #[test]
    fn random_is_deterministic_and_capable_only() {
        let picks1: Vec<NodeIndex> = {
            let mut c = cluster(SwarmStrategy::Random);
            (1..=12u64)
                .map(|i| c.register(ContainerId(i), Bytes::gib(1), t(i)).unwrap())
                .collect()
        };
        let picks2: Vec<NodeIndex> = {
            let mut c = cluster(SwarmStrategy::Random);
            (1..=12u64)
                .map(|i| c.register(ContainerId(i), Bytes::gib(1), t(i)).unwrap())
                .collect()
        };
        assert_eq!(picks1, picks2);
        // A 10 GiB container must always land on node-2.
        let mut c = cluster(SwarmStrategy::Random);
        for i in 1..=6u64 {
            assert_eq!(c.register(ContainerId(i), Bytes::gib(10), t(i)).unwrap(), 2);
        }
    }

    #[test]
    fn impossible_containers_are_refused_at_the_cluster_level() {
        let mut c = cluster(SwarmStrategy::Spread);
        assert!(matches!(
            c.register(ContainerId(1), Bytes::gib(32), t(0)),
            Err(SchedError::LimitExceedsCapacity { .. })
        ));
        assert!(c.home_of(ContainerId(1)).is_none());
    }

    #[test]
    fn full_lifecycle_routes_to_home_node() {
        let mut c = cluster(SwarmStrategy::Spread);
        c.register(ContainerId(1), Bytes::gib(2), t(0)).unwrap();
        let home = c.home_of(ContainerId(1)).unwrap();
        let (out, _) = c
            .alloc_request(ContainerId(1), 7, Bytes::gib(2), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(out, AllocOutcome::Granted);
        c.alloc_done(ContainerId(1), 7, 0xA, Bytes::gib(2), t(1))
            .unwrap();
        let (free, limit) = c.mem_info(ContainerId(1), 7).unwrap();
        assert_eq!(limit, Bytes::gib(2));
        // Limit plus the per-pid ctx charge are fully used: no headroom.
        assert_eq!(free, Bytes::ZERO);
        let (freed, _) = c.free(ContainerId(1), 7, 0xA, t(2)).unwrap();
        assert_eq!(freed, Bytes::gib(2));
        c.process_exit(ContainerId(1), 7, t(2)).unwrap();
        c.container_close(ContainerId(1), t(3)).unwrap();
        assert_eq!(c.shards()[home].open_containers(), 0);
        c.check_invariants().unwrap();
        // Unknown container errors.
        assert!(c.container_close(ContainerId(9), t(4)).is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut c = cluster(SwarmStrategy::Spread);
        c.register(ContainerId(1), Bytes::gib(1), t(0)).unwrap();
        assert_eq!(
            c.register(ContainerId(1), Bytes::gib(1), t(1)).unwrap_err(),
            SchedError::AlreadyRegistered(ContainerId(1))
        );
    }

    #[test]
    fn suspension_stays_node_local() {
        // Saturate node-0; the suspended container must not leak onto
        // other nodes' memory.
        let mut c = ClusterScheduler::new(
            vec![
                ClusterNode::new("a", &[Bytes::mib(1200)], PolicyKind::Fifo, 1),
                ClusterNode::new("b", &[Bytes::mib(1200)], PolicyKind::Fifo, 2),
            ],
            SwarmStrategy::BinPack,
            0,
        );
        // BinPack puts both on node "a" (tightest with equal sizes → idx 0).
        c.register(ContainerId(1), Bytes::mib(1000), t(0)).unwrap();
        let n2 = c.register(ContainerId(2), Bytes::mib(1000), t(1)).unwrap();
        // Second container cannot fit node a's remaining pool — BinPack
        // prefers a fitting node: it must pick node b.
        assert_eq!(n2, 1, "binpack avoids the saturated node when another fits");
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_node_carries_budget_and_retags_tickets() {
        let mut c = ClusterScheduler::new(
            vec![
                ClusterNode::new("a", &[Bytes::mib(1200)], PolicyKind::Fifo, 1),
                ClusterNode::new("b", &[Bytes::mib(1200)], PolicyKind::Fifo, 2),
            ],
            SwarmStrategy::Spread,
            0,
        );
        // Spread alternates: c1 → node 0, c2 → node 1.
        c.register(ContainerId(1), Bytes::mib(1000), t(0)).unwrap();
        c.register(ContainerId(2), Bytes::mib(1000), t(0)).unwrap();
        c.alloc_request(ContainerId(2), 20, Bytes::mib(1000), ApiKind::Malloc, t(1))
            .unwrap();
        c.alloc_request(ContainerId(1), 10, Bytes::mib(50), ApiKind::Malloc, t(1))
            .unwrap();
        let (moves, actions) = c.migrate_node(0, t(2));
        assert!(actions.is_empty(), "no parked requests on the drained node");
        assert_eq!(
            moves,
            vec![MigrationMove {
                container: ContainerId(1),
                from: 0,
                to: Some(1),
                limit: Bytes::mib(1000),
                used: Bytes::mib(116),
            }],
            "committed budget (50 MiB + 66 MiB ctx) travels with the move"
        );
        assert_eq!(c.home_of(ContainerId(1)), Some(1));
        c.check_invariants().unwrap();
        // Post-move allocations park with the NEW home's tag at bit 56.
        let (out, _) = c
            .alloc_request(ContainerId(1), 10, Bytes::mib(100), ApiKind::Malloc, t(3))
            .unwrap();
        let ticket = match out {
            AllocOutcome::Suspended { ticket } => ticket,
            other => panic!("expected suspension, got {other:?}"),
        };
        assert_eq!(ticket >> NODE_TICKET_SHIFT, 1, "re-tagged at the new home");
        // Budget conservation end-to-end: once the co-tenant closes, the
        // migrated container completes its guarantee and resumes.
        let resumed = c.container_close(ContainerId(2), t(4)).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].ticket, ticket);
        c.check_invariants().unwrap();
    }

    #[test]
    fn migrate_node_rejects_cleanly_when_no_node_can_adopt() {
        let mut c = ClusterScheduler::new(
            vec![
                ClusterNode::new("a", &[Bytes::mib(1200)], PolicyKind::Fifo, 1),
                ClusterNode::new("b", &[Bytes::mib(1200)], PolicyKind::Fifo, 2),
            ],
            SwarmStrategy::Spread,
            0,
        );
        c.register(ContainerId(1), Bytes::mib(1000), t(0)).unwrap(); // node 0
        c.register(ContainerId(2), Bytes::mib(1000), t(0)).unwrap(); // node 1
                                                                     // Fill both: the survivor cannot back c1's committed budget.
        for (cid, pid) in [(1u64, 10u64), (2, 20)] {
            c.alloc_request(
                ContainerId(cid),
                pid,
                Bytes::mib(1000),
                ApiKind::Malloc,
                t(1),
            )
            .unwrap();
        }
        let (moves, _) = c.migrate_node(0, t(2));
        assert_eq!(moves.len(), 1);
        assert_eq!(moves[0].to, None, "clean rejection, not a hang");
        assert_eq!(c.home_of(ContainerId(1)), None);
        c.check_invariants().unwrap();
        // The survivor is untouched by the failed hand-off.
        assert_eq!(c.shards()[1].open_containers(), 1);
    }

    #[test]
    fn tickets_carry_the_node_tag() {
        let mut c = ClusterScheduler::new(
            vec![
                ClusterNode::new("a", &[Bytes::gib(5)], PolicyKind::Fifo, 1),
                ClusterNode::new("b", &[Bytes::gib(5)], PolicyKind::Fifo, 2),
            ],
            SwarmStrategy::Spread,
            0,
        );
        // Spread alternates: c1 → node 0, c2 → node 1, c3 → node 0, c4 → node 1.
        for i in 1..=4u64 {
            c.register(ContainerId(i), Bytes::gib(4), t(0)).unwrap();
        }
        assert_eq!(c.home_of(ContainerId(4)), Some(1));
        for (cid, pid) in [(1u64, 10u64), (2, 20)] {
            let (out, _) = c
                .alloc_request(ContainerId(cid), pid, Bytes::gib(4), ApiKind::Malloc, t(1))
                .unwrap();
            assert_eq!(out, AllocOutcome::Granted);
        }
        let (out0, _) = c
            .alloc_request(ContainerId(3), 30, Bytes::gib(4), ApiKind::Malloc, t(2))
            .unwrap();
        let (out1, _) = c
            .alloc_request(ContainerId(4), 40, Bytes::gib(4), ApiKind::Malloc, t(2))
            .unwrap();
        let (t0, t1) = match (out0, out1) {
            (AllocOutcome::Suspended { ticket: a }, AllocOutcome::Suspended { ticket: b }) => {
                (a, b)
            }
            other => panic!("expected suspensions, got {other:?}"),
        };
        assert_ne!(t0, t1, "tickets from different nodes never collide");
        assert_eq!(t0 >> NODE_TICKET_SHIFT, 0);
        assert_eq!(t1 >> NODE_TICKET_SHIFT, 1);
        let resumed = c.container_close(ContainerId(2), t(3)).unwrap();
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].ticket, t1);
        c.check_invariants().unwrap();
        // Fingerprints are stable for identical histories.
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
    }
}
