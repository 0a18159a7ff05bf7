//! Counterexample replay: the deadlock the naive baseline reaches is
//! harmless under ConVGPU.
//!
//! `convgpu_audit::naive::find_deadlock` produces a *minimal* trace on
//! which an uncoordinated allocator deadlocks (the paper's motivating
//! failure, §I). These tests replay that exact workload — same device
//! capacity, same per-task chunk plans, same interleaving — through the
//! real [`Scheduler`] under every policy, and watch
//! `deadlock::assess` the whole way: the managed system never stalls
//! and every task finishes.
//!
//! [`Scheduler`]: convgpu::scheduler::core::Scheduler

use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::scheduler::core::{AllocOutcome, Scheduler, SchedulerConfig};
use convgpu::scheduler::deadlock::{self, ProgressState};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::SimTime;
use convgpu::sim::units::Bytes;
use convgpu_audit::model::{self, Event, ModelConfig};
use convgpu_audit::{find_deadlock, NaiveConfig};

/// The baseline deadlocks on the classic workload, and the witness is
/// the canonical 4-step hold-and-wait interleaving.
#[test]
fn naive_baseline_deadlocks_on_the_classic_workload() {
    let cfg = NaiveConfig::classic();
    let w = find_deadlock(&cfg).expect("classic workload must deadlock the baseline");
    assert_eq!(w.trace.len(), 4, "witness should be minimal: {:?}", w.trace);
    assert!(w.end.is_deadlocked());
    // Both tasks appear: deadlock needs interleaving.
    assert!(w.trace.iter().any(|s| s.0 == 0) && w.trace.iter().any(|s| s.0 == 1));
    let shown = w.to_string();
    assert!(
        shown.contains("DEADLOCK"),
        "witness prints a verdict: {shown}"
    );
}

/// Per-task driver state while replaying the naive workload through the
/// real scheduler.
struct Task {
    id: ContainerId,
    next_chunk: usize,
    /// Ticket of a parked (suspended) request, if any.
    parked: Option<u64>,
    done: bool,
}

/// Replay the witness workload through the real scheduler under
/// `policy` with the full-guarantee discipline. Steps where the naive
/// model let a task run map to "request next chunk / complete"; a task
/// the middleware has suspended simply doesn't run until its resume is
/// delivered — that suspension is the mechanism that breaks
/// hold-and-wait. Asserts: never stalled, invariants hold throughout,
/// all tasks finish, memory drains to zero.
fn replay_under_convgpu(policy: PolicyKind) {
    let cfg = NaiveConfig::classic();
    let witness = find_deadlock(&cfg).expect("baseline deadlocks");

    let mut sched = Scheduler::new(
        SchedulerConfig {
            capacity: cfg.capacity,
            ctx_overhead: Bytes::ZERO,
        },
        policy.build(7),
    );
    let mut tasks: Vec<Task> = Vec::new();
    let mut clock = 0u64;
    let mut tick = || {
        clock += 1;
        SimTime::from_secs(clock)
    };
    for (i, plan) in cfg.plans.iter().enumerate() {
        let limit = Bytes::new(plan.iter().map(|b| b.0).sum());
        let id = ContainerId(i as u64 + 1);
        sched.register(id, limit, tick()).expect("register");
        tasks.push(Task {
            id,
            next_chunk: 0,
            parked: None,
            done: false,
        });
    }

    let mut next_addr = 0x1000u64;
    // One "run task c" step. Returns resume actions to deliver.
    fn advance(
        sched: &mut Scheduler,
        cfg: &NaiveConfig,
        tasks: &mut [Task],
        c: usize,
        now: SimTime,
        next_addr: &mut u64,
    ) {
        let plan = &cfg.plans[c];
        let actions = if tasks[c].next_chunk == plan.len() {
            tasks[c].done = true;
            sched.container_close(tasks[c].id, now).expect("close")
        } else {
            let size = plan[tasks[c].next_chunk];
            let (outcome, actions) = sched
                .alloc_request(tasks[c].id, 1, size, ApiKind::Malloc, now)
                .expect("alloc_request");
            match outcome {
                AllocOutcome::Granted => {
                    let addr = *next_addr;
                    *next_addr += 0x1000;
                    sched
                        .alloc_done(tasks[c].id, 1, addr, size, now)
                        .expect("alloc_done");
                    tasks[c].next_chunk += 1;
                }
                AllocOutcome::Suspended { ticket } => tasks[c].parked = Some(ticket),
                AllocOutcome::Rejected => panic!("within-limit chunk rejected"),
            }
            actions
        };
        for a in actions {
            assert_eq!(a.decision, AllocDecision::Granted, "resume must grant");
            let t = tasks
                .iter_mut()
                .find(|t| t.id == a.container)
                .expect("resume targets a known task");
            assert_eq!(
                t.parked.take(),
                Some(a.ticket),
                "resume matches the parked ticket"
            );
            let size = cfg.plans[(a.container.as_u64() - 1) as usize][t.next_chunk];
            let addr = *next_addr;
            *next_addr += 0x1000;
            sched
                .alloc_done(a.container, a.pid, addr, size, now)
                .expect("alloc_done after resume");
            t.next_chunk += 1;
        }
    }

    // Phase 1: follow the witness interleaving. A suspended task skips
    // its turns (the middleware is holding its malloc).
    for step in &witness.trace {
        let c = step.0;
        if tasks[c].done || tasks[c].parked.is_some() {
            continue;
        }
        let now = tick();
        advance(&mut sched, &cfg, &mut tasks, c, now, &mut next_addr);
        sched.check_invariants().expect("invariants hold");
        assert!(
            !matches!(deadlock::assess(&sched), ProgressState::Stalled { .. }),
            "{policy:?}: stalled following the witness trace"
        );
    }

    // Where the baseline is now deadlocked, the managed system still has
    // a runnable task.
    assert!(
        matches!(
            deadlock::assess(&sched),
            ProgressState::Progressing | ProgressState::ResumePending
        ),
        "{policy:?}: expected progress at the witness end, got {:?}",
        deadlock::assess(&sched)
    );

    // Phase 2: drain — keep running any runnable task until all finish.
    let mut guard = 0;
    while tasks.iter().any(|t| !t.done) {
        guard += 1;
        assert!(guard < 100, "{policy:?}: drain did not converge");
        let c = tasks
            .iter()
            .position(|t| !t.done && t.parked.is_none())
            .unwrap_or_else(|| panic!("{policy:?}: all unfinished tasks parked — stalled"));
        let now = tick();
        advance(&mut sched, &cfg, &mut tasks, c, now, &mut next_addr);
        sched.check_invariants().expect("invariants hold in drain");
    }
    assert_eq!(sched.total_assigned(), Bytes::ZERO, "memory fully released");
    assert_eq!(deadlock::assess(&sched), ProgressState::Idle);
}

#[test]
fn convgpu_fifo_survives_the_naive_deadlock_workload() {
    replay_under_convgpu(PolicyKind::Fifo);
}

#[test]
fn convgpu_best_fit_survives_the_naive_deadlock_workload() {
    replay_under_convgpu(PolicyKind::BestFit);
}

#[test]
fn convgpu_recent_use_survives_the_naive_deadlock_workload() {
    replay_under_convgpu(PolicyKind::RecentUse);
}

#[test]
fn convgpu_random_survives_the_naive_deadlock_workload() {
    replay_under_convgpu(PolicyKind::Random);
}

/// The model checker's replay facility accepts a hand-written
/// hold-and-wait interleaving on the standard 3-container universe:
/// the same shape that kills the baseline is a legal, violation-free
/// trace of the managed lifecycle model.
#[test]
fn model_replay_accepts_hold_and_wait_interleaving() {
    let u = Bytes::mib(256);
    for policy in PolicyKind::ALL {
        let cfg = ModelConfig::three_containers(policy);
        let trace = vec![
            Event::Register { c: 0 },
            Event::Register { c: 1 },
            Event::Register { c: 2 },
            Event::Alloc { c: 0, size: u },
            Event::Alloc { c: 1, size: u },
            // C3 takes the remaining half of the device…
            Event::Alloc {
                c: 2,
                size: Bytes::new(u.0 * 2),
            },
            // …so C1's second unit must park (pool is empty): the exact
            // hold-and-wait shape that deadlocks the baseline.
            Event::Alloc { c: 0, size: u },
            // Closing C3 frees enough to fully guarantee C1 — the model
            // delivers the resume and C1's alloc lands.
            Event::Close { c: 2 },
            Event::Close { c: 0 },
            Event::Close { c: 1 },
        ];
        model::replay(&cfg, &trace)
            .unwrap_or_else(|(i, f)| panic!("{policy:?}: step {i} failed: {f}"));
    }
}
