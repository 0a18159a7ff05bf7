//! Cluster-scaling experiment (extension of the paper's §V future work).
//!
//! Replays heavier versions of the §IV-A trace against clusters of 1–4
//! ConVGPU nodes (each one 5 GiB K20m) under the Docker-Swarm placement
//! strategies, in virtual time. The question the paper left open: how
//! does finished time scale when the *cluster*, not the GPU, grows?
//!
//! Each node is one [`Scheduler`]; a container is placed by
//! [`SwarmStrategy::select`] over the nodes' live state (unassigned
//! memory, open containers) and every later call goes to its node.

use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_scheduler::backend::SchedulerBackend;
use convgpu_scheduler::cluster::SwarmStrategy;
use convgpu_scheduler::core::{AllocOutcome, ResumeAction, Scheduler, SchedulerConfig};
use convgpu_scheduler::metrics;
use convgpu_scheduler::policy::PolicyKind;
use convgpu_sim_core::event::EventQueue;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::rng::DetRng;
use convgpu_sim_core::stats::Summary;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use convgpu_workloads::trace::TraceSpec;
use std::collections::HashMap;

/// One cluster experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterExperiment {
    /// Number of single-K20m nodes.
    pub nodes: u32,
    /// Containers in the trace.
    pub containers: u32,
    /// Placement strategy.
    pub strategy: SwarmStrategy,
    /// Workload seed.
    pub seed: u64,
}

/// Aggregated outcome.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Finished time (last close anywhere), seconds.
    pub finished_time_secs: f64,
    /// Mean suspended time per container, seconds.
    pub avg_suspended_secs: f64,
    /// Containers placed per node.
    pub per_node_containers: Vec<usize>,
}

#[derive(Debug)]
enum Ev {
    Launch(u32, Bytes, SimDuration),
    Finish(ContainerId),
}

/// A container's home node and its plan: limit and run time.
type Plan = (usize, Bytes, SimDuration);

impl ClusterExperiment {
    /// Execute in virtual time.
    pub fn run(&self) -> ClusterResult {
        let mut nodes: Vec<Scheduler> = (0..self.nodes)
            .map(|i| {
                Scheduler::new(
                    SchedulerConfig::paper(),
                    PolicyKind::BestFit.build(self.seed.wrapping_add(u64::from(i))),
                )
            })
            .collect();
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x0Cu64);
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut plans: HashMap<ContainerId, Plan> = HashMap::new();
        let mut per_node = vec![0usize; nodes.len()];

        for a in TraceSpec::paper(self.containers, self.seed).generate() {
            queue.schedule(
                a.at,
                Ev::Launch(
                    a.index,
                    a.container_type.gpu_memory(),
                    a.container_type.sample_duration(),
                ),
            );
        }
        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Launch(index, limit, duration) => {
                    let id = ContainerId(u64::from(index) + 1);
                    let node = self.place(&nodes, limit, &mut rng);
                    nodes[node].register(id, limit, now).expect("placement");
                    per_node[node] += 1;
                    plans.insert(id, (node, limit, duration));
                    let (outcome, actions) = nodes[node]
                        .alloc_request(id, 1, limit, ApiKind::Malloc, now)
                        .expect("alloc");
                    if outcome == AllocOutcome::Granted {
                        nodes[node]
                            .alloc_done(id, 1, 0xC000_0000 + id.as_u64(), limit, now)
                            .expect("done");
                        queue.schedule(now + duration, Ev::Finish(id));
                    }
                    Self::apply(&mut nodes[node], &mut queue, &plans, actions, now);
                }
                Ev::Finish(id) => {
                    let node = plans[&id].0;
                    let actions = nodes[node].container_close(id, now).expect("close");
                    Self::apply(&mut nodes[node], &mut queue, &plans, actions, now);
                }
            }
        }

        let mut finished = 0.0_f64;
        let mut susp_sum = 0.0;
        let mut count = 0usize;
        for (n, node) in nodes.iter().enumerate() {
            node.check_invariants().expect("node invariants");
            let ms = metrics::collect(node.containers());
            let agg = metrics::aggregate(&ms);
            if agg.containers > 0 {
                finished = finished.max(agg.finished_time_secs);
                susp_sum += agg.avg_suspended_secs * agg.containers as f64;
                count += agg.containers;
                assert_eq!(agg.closed, agg.containers, "node {n} stranded containers");
            }
        }
        assert_eq!(count as u32, self.containers, "every container accounted");
        ClusterResult {
            finished_time_secs: finished,
            avg_suspended_secs: susp_sum / count.max(1) as f64,
            per_node_containers: per_node,
        }
    }

    /// The node for a container declaring `limit`: the strategy's pick
    /// among the nodes whose device could ever host it.
    fn place(&self, nodes: &[Scheduler], limit: Bytes, rng: &mut DetRng) -> usize {
        let need = |i: usize| nodes[i].requirement(limit);
        let capable: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].config().capacity >= need(i))
            .collect();
        self.strategy
            .select(
                &capable,
                need,
                |i| nodes[i].unassigned().as_u64(),
                |i| nodes[i].open_containers() as u64,
                |n| rng.index(n),
            )
            .expect("placement")
    }

    /// Deliver a node's resume actions: a granted resume allocates and
    /// schedules the container's finish.
    fn apply(
        node: &mut Scheduler,
        queue: &mut EventQueue<Ev>,
        plans: &HashMap<ContainerId, Plan>,
        actions: Vec<ResumeAction>,
        now: SimTime,
    ) {
        for act in actions {
            if act.decision == AllocDecision::Granted {
                let (_, limit, duration) = plans[&act.container];
                node.alloc_done(
                    act.container,
                    act.pid,
                    0xC000_0000 + act.container.as_u64(),
                    limit,
                    now,
                )
                .expect("done after resume");
                queue.schedule(now + duration, Ev::Finish(act.container));
            }
        }
    }
}

/// Averaged sweep cell.
#[derive(Clone, Debug)]
pub struct ClusterSweepPoint {
    /// Node count.
    pub nodes: u32,
    /// Strategy.
    pub strategy: SwarmStrategy,
    /// Finished time over reps.
    pub finished: Summary,
    /// Average suspended time over reps.
    pub suspended: Summary,
}

/// Sweep node counts × strategies with `reps` repetitions on identical
/// workloads.
pub fn cluster_sweep(
    node_counts: &[u32],
    strategies: &[SwarmStrategy],
    containers: u32,
    reps: u32,
    base_seed: u64,
) -> Vec<ClusterSweepPoint> {
    let mut out = Vec::new();
    for &nodes in node_counts {
        for &strategy in strategies {
            let mut finished = Vec::new();
            let mut suspended = Vec::new();
            for rep in 0..reps {
                let r = ClusterExperiment {
                    nodes,
                    containers,
                    strategy,
                    seed: base_seed.wrapping_add(u64::from(rep) * 7919),
                }
                .run();
                finished.push(r.finished_time_secs);
                suspended.push(r.avg_suspended_secs);
            }
            out.push(ClusterSweepPoint {
                nodes,
                strategy,
                finished: Summary::of(&finished),
                suspended: Summary::of(&suspended),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_cluster_matches_single_gpu_shape() {
        let r = ClusterExperiment {
            nodes: 1,
            containers: 20,
            strategy: SwarmStrategy::Spread,
            seed: 3,
        }
        .run();
        assert!(r.finished_time_secs > 0.0);
        assert_eq!(r.per_node_containers, vec![20]);
    }

    #[test]
    fn more_nodes_finish_sooner_under_load() {
        let time_with = |nodes: u32| {
            let mut total = 0.0;
            for seed in 0..4 {
                total += ClusterExperiment {
                    nodes,
                    containers: 30,
                    strategy: SwarmStrategy::Spread,
                    seed,
                }
                .run()
                .finished_time_secs;
            }
            total / 4.0
        };
        let one = time_with(1);
        let four = time_with(4);
        assert!(
            four < one * 0.9,
            "4 nodes must beat 1 under load: {one:.1}s vs {four:.1}s"
        );
    }

    #[test]
    fn spread_distributes_binpack_concentrates() {
        let run = |strategy| {
            ClusterExperiment {
                nodes: 4,
                containers: 16,
                strategy,
                seed: 5,
            }
            .run()
            .per_node_containers
        };
        let spread = run(SwarmStrategy::Spread);
        let binpack = run(SwarmStrategy::BinPack);
        let spread_max = *spread.iter().max().unwrap();
        let binpack_max = *binpack.iter().max().unwrap();
        assert!(
            binpack_max >= spread_max,
            "binpack concentrates: {binpack:?} vs spread {spread:?}"
        );
        let spread_used = spread.iter().filter(|&&c| c > 0).count();
        assert!(spread_used >= 3, "spread uses most nodes: {spread:?}");
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = cluster_sweep(&[2], &[SwarmStrategy::Random], 20, 3, 11);
        let b = cluster_sweep(&[2], &[SwarmStrategy::Random], 20, 3, 11);
        assert_eq!(a[0].finished.samples, b[0].finished.samples);
    }
}
