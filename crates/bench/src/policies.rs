//! The Figs. 7/8 (Tables IV/V) experiment engine.
//!
//! Paper §IV-A: "We emulated the cloud usage by choosing the type of the
//! containers randomly and running it every five seconds. Each container
//! runs "the" sample program, which allocates maximum GPU memory … The
//! time consumed by the sample program varies by the size, from 5 seconds
//! to 45 seconds. We changed the number of the containers from 4 to 38
//! and measured the finished time of all containers and suspended time of
//! each container. All tests are repeated 6 times and the average value
//! is used."
//!
//! The engine replays this in virtual time against the *same*
//! [`Scheduler`] state machine the live stack uses: a container arrives,
//! registers its limit, starts after a fixed creation delay, requests its
//! full limit in one allocation (suspending when memory is short), runs
//! for its type's duration once granted, and closes — releasing its
//! reservation for policy-driven redistribution.

use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_scheduler::core::{AllocOutcome, ResumeAction, SchedError, Scheduler, SchedulerConfig};
use convgpu_scheduler::metrics::{self, AggregateMetrics, ContainerMetrics};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_sim_core::event::EventQueue;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::stats::Summary;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use convgpu_workloads::trace::{Arrival, ArrivalProcess, TraceSpec};
use std::collections::HashMap;

/// One experiment configuration (one cell of Table IV/V before
/// averaging).
#[derive(Clone, Copy, Debug)]
pub struct PolicyExperiment {
    /// Number of containers (4 … 38).
    pub containers: u32,
    /// Redistribution policy under test.
    pub policy: PolicyKind,
    /// Workload seed (same seed ⇒ same arrival trace for every policy,
    /// so policies are compared on identical workloads).
    pub workload_seed: u64,
    /// GPU capacity (paper: 5 GiB K20m).
    pub capacity: Bytes,
    /// Container creation delay before the program's first allocation.
    pub create_delay: SimDuration,
    /// Arrival process (paper: fixed 5 s gaps).
    pub arrival: ArrivalProcess,
}

impl PolicyExperiment {
    /// The paper's configuration.
    pub fn paper(containers: u32, policy: PolicyKind, workload_seed: u64) -> Self {
        PolicyExperiment {
            containers,
            policy,
            workload_seed,
            capacity: Bytes::gib(5),
            create_delay: SimDuration::from_millis(450),
            arrival: ArrivalProcess::Fixed,
        }
    }
}

/// Outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Finished time of all containers, seconds (Fig. 7 metric).
    pub finished_time_secs: f64,
    /// Mean suspended time per container, seconds (Fig. 8 metric).
    pub avg_suspended_secs: f64,
    /// Containers refused at registration because their limit exceeds
    /// the GPU capacity (only nonzero in the capacity-sensitivity
    /// extension, where e.g. xlarge cannot fit a 2 GiB card).
    pub refused: u32,
    /// Time-weighted mean of used GPU memory / capacity over the run
    /// (extension metric: what Best-Fit optimizes).
    pub mean_utilization: f64,
    /// Peak live GPU memory usage.
    pub peak_used: Bytes,
    /// Full aggregate.
    pub aggregate: AggregateMetrics,
    /// Per-container detail.
    pub per_container: Vec<ContainerMetrics>,
}

#[derive(Debug)]
enum Ev {
    Launch(Arrival),
    Start(ContainerId),
    Finish(ContainerId),
}

struct ContainerPlan {
    limit: Bytes,
    duration: SimDuration,
}

/// Synthetic device addresses for the DES (the scheduler only needs
/// uniqueness per container).
fn addr_for(id: ContainerId) -> u64 {
    0x7000_0000_0000 + id.as_u64() * 0x1_0000_0000
}

fn pid_for(id: ContainerId) -> u64 {
    10_000 + id.as_u64()
}

impl PolicyExperiment {
    /// Execute the experiment in virtual time.
    ///
    /// # Panics
    /// Panics on scheduler protocol violations or broken invariants —
    /// these would invalidate the experiment, so they are not recoverable.
    pub fn run(&self) -> RunResult {
        let cfg = SchedulerConfig::with_capacity(self.capacity);
        // The policy seed is fixed relative to the workload seed so the
        // Random policy is reproducible but independent of the draw that
        // produced the trace.
        let mut sched = Scheduler::new(cfg, self.policy.build(self.workload_seed ^ 0xA5A5_A5A5));
        let mut queue: EventQueue<Ev> = EventQueue::new();
        let mut plans: HashMap<ContainerId, ContainerPlan> = HashMap::new();
        let mut refused: u32 = 0;

        let trace = TraceSpec {
            process: self.arrival,
            ..TraceSpec::paper(self.containers, self.workload_seed)
        }
        .generate();
        for arrival in trace {
            queue.schedule(arrival.at, Ev::Launch(arrival));
        }

        while let Some((now, ev)) = queue.pop() {
            match ev {
                Ev::Launch(arrival) => {
                    let id = ContainerId(u64::from(arrival.index) + 1);
                    let limit = arrival.container_type.gpu_memory();
                    // On small-capacity sensitivity runs a type can be
                    // physically impossible; registration refuses it
                    // (the user would see `nvidia-docker run` fail).
                    if let Err(SchedError::LimitExceedsCapacity { .. }) =
                        sched.register(id, limit, now)
                    {
                        refused += 1;
                        continue;
                    }
                    plans.insert(
                        id,
                        ContainerPlan {
                            limit,
                            duration: arrival.container_type.sample_duration(),
                        },
                    );
                    queue.schedule(now + self.create_delay, Ev::Start(id));
                }
                Ev::Start(id) => {
                    let plan = &plans[&id];
                    let (outcome, actions) = sched
                        .alloc_request(id, pid_for(id), plan.limit, ApiKind::Malloc, now)
                        .expect("alloc_request on a live container");
                    match outcome {
                        AllocOutcome::Granted => {
                            sched
                                .alloc_done(id, pid_for(id), addr_for(id), plan.limit, now)
                                .expect("alloc_done after grant");
                            queue.schedule(now + plan.duration, Ev::Finish(id));
                        }
                        AllocOutcome::Suspended { .. } => {
                            // Resumed (or not) by a later Finish.
                        }
                        AllocOutcome::Rejected => {
                            unreachable!("limit-sized request cannot exceed the limit")
                        }
                    }
                    // The give-back of this container's unused
                    // reservation may have completed someone else.
                    self.apply_resumes(&mut sched, &mut queue, &plans, actions, now);
                }
                Ev::Finish(id) => {
                    let actions = sched
                        .container_close(id, now)
                        .expect("close on a live container");
                    self.apply_resumes(&mut sched, &mut queue, &plans, actions, now);
                }
            }
            debug_assert!(sched.check_invariants().is_ok());
        }

        sched
            .check_invariants()
            .expect("scheduler invariants after the run");
        assert!(
            metrics::all_closed(sched.containers()),
            "{} containers failed to finish under {:?}",
            self.containers,
            self.policy
        );
        assert_eq!(
            sched.containers().count() as u32 + refused,
            self.containers,
            "every container either ran or was refused"
        );
        let per_container = metrics::collect(sched.containers());
        let aggregate = metrics::aggregate(&per_container);
        let end = SimTime::ZERO + SimDuration::from_secs_f64(aggregate.finished_time_secs);
        let mean_utilization = sched.timeline().mean_used_fraction(self.capacity, end);
        let peak_used = sched.timeline().peak_used();
        RunResult {
            finished_time_secs: aggregate.finished_time_secs,
            avg_suspended_secs: aggregate.avg_suspended_secs,
            refused,
            mean_utilization,
            peak_used,
            aggregate,
            per_container,
        }
    }

    fn apply_resumes(
        &self,
        sched: &mut Scheduler,
        queue: &mut EventQueue<Ev>,
        plans: &HashMap<ContainerId, ContainerPlan>,
        actions: Vec<ResumeAction>,
        now: SimTime,
    ) {
        for action in actions {
            match action.decision {
                AllocDecision::Granted => {
                    let plan = &plans[&action.container];
                    sched
                        .alloc_done(
                            action.container,
                            action.pid,
                            addr_for(action.container),
                            plan.limit,
                            now,
                        )
                        .expect("alloc_done after resume");
                    queue.schedule(now + plan.duration, Ev::Finish(action.container));
                }
                AllocDecision::Rejected => {
                    // The program fails; the container exits immediately.
                    queue.schedule(now, Ev::Finish(action.container));
                }
            }
        }
    }
}

/// One averaged sweep cell: `(N, policy)` over `reps` repetitions.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Container count.
    pub n: u32,
    /// Policy.
    pub policy: PolicyKind,
    /// Finished-time summary over repetitions (seconds).
    pub finished: Summary,
    /// Average-suspended-time summary over repetitions (seconds).
    pub suspended: Summary,
    /// Worst single container's suspended time per repetition (seconds)
    /// — where Best-Fit's starvation shows up.
    pub suspended_max: Summary,
}

/// Run the paper's full sweep: for every `n`, every policy, `reps`
/// repetitions with rep-indexed workload seeds (identical workloads
/// across policies).
pub fn sweep(ns: &[u32], policies: &[PolicyKind], reps: u32, base_seed: u64) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(ns.len() * policies.len());
    for &n in ns {
        for &policy in policies {
            let mut finished = Vec::with_capacity(reps as usize);
            let mut suspended = Vec::with_capacity(reps as usize);
            let mut suspended_max = Vec::with_capacity(reps as usize);
            for rep in 0..reps {
                let seed = base_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u64::from(n) * 1000 + u64::from(rep));
                let result = PolicyExperiment::paper(n, policy, seed).run();
                finished.push(result.finished_time_secs);
                suspended.push(result.avg_suspended_secs);
                suspended_max.push(result.aggregate.max_suspended_secs);
            }
            out.push(SweepPoint {
                n,
                policy,
                finished: Summary::of(&finished),
                suspended: Summary::of(&suspended),
                suspended_max: Summary::of(&suspended_max),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_completes_and_accounts() {
        let r = PolicyExperiment::paper(4, PolicyKind::Fifo, 42).run();
        assert_eq!(r.aggregate.containers, 4);
        assert_eq!(r.aggregate.closed, 4);
        assert!(r.finished_time_secs > 0.0);
        // 4 containers, launch interval 5 s, runtimes ≤ 45 s: the whole
        // batch must end within a couple of minutes of virtual time.
        assert!(r.finished_time_secs < 200.0, "{}", r.finished_time_secs);
    }

    #[test]
    fn identical_seeds_are_bit_reproducible() {
        let a = PolicyExperiment::paper(20, PolicyKind::Random, 7).run();
        let b = PolicyExperiment::paper(20, PolicyKind::Random, 7).run();
        assert_eq!(a.finished_time_secs, b.finished_time_secs);
        assert_eq!(a.avg_suspended_secs, b.avg_suspended_secs);
        assert_eq!(a.per_container, b.per_container);
    }

    #[test]
    fn heavy_load_produces_suspensions() {
        // 38 containers on 5 GiB with up-to-4-GiB limits must contend.
        let r = PolicyExperiment::paper(38, PolicyKind::Fifo, 3).run();
        assert!(
            r.aggregate.ever_suspended > 0,
            "no contention at N=38 is implausible"
        );
        assert!(r.avg_suspended_secs > 0.0);
    }

    #[test]
    fn all_policies_complete_every_container() {
        for policy in PolicyKind::ALL {
            for seed in [1, 2] {
                let r = PolicyExperiment::paper(26, policy, seed).run();
                assert_eq!(r.aggregate.closed, 26, "{policy:?} seed {seed}");
            }
        }
    }

    #[test]
    fn finished_time_grows_roughly_with_n() {
        // Paper: "as the number of the containers is doubled, finished
        // time is also roughly increased to double".
        let avg = |n: u32| {
            let mut total = 0.0;
            for seed in 0..4 {
                total += PolicyExperiment::paper(n, PolicyKind::Fifo, seed)
                    .run()
                    .finished_time_secs;
            }
            total / 4.0
        };
        let t8 = avg(8);
        let t16 = avg(16);
        let t32 = avg(32);
        assert!(t16 > t8 * 1.3, "t8={t8} t16={t16}");
        assert!(t32 > t16 * 1.3, "t16={t16} t32={t32}");
    }

    #[test]
    fn sweep_shapes_match_inputs() {
        let points = sweep(&[4, 8], &[PolicyKind::Fifo, PolicyKind::BestFit], 3, 11);
        assert_eq!(points.len(), 4);
        assert!(points.iter().all(|p| p.finished.samples.len() == 3));
        // Same workload seeds across policies at the same N: identical
        // traces mean the *light-load* points (N=4, rarely contended)
        // should be near-identical across policies.
        let fifo4 = &points[0];
        let bf4 = &points[1];
        assert_eq!(fifo4.n, 4);
        assert_eq!(bf4.n, 4);
        assert!((fifo4.finished.mean - bf4.finished.mean).abs() < 5.0);
    }
}
