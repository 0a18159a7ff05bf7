//! Cross-validation: the discrete-event harness (used for the paper's
//! Figs. 7/8 sweeps) against the live stack (threads + UNIX sockets +
//! scaled real time) on the *same* workload.
//!
//! This is the test that justifies the reproduction's methodology: the
//! policy experiments are only meaningful if virtual time and the live
//! middleware produce the same schedule. Both paths execute the same
//! scheduler state machine; the live path adds real IPC, thread timing
//! and the sample program's copy/kernel structure, so agreement is
//! expected within tolerance, not bit-exactness.

use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::scheduler::core::{AllocOutcome, Scheduler, SchedulerConfig};
use convgpu::scheduler::metrics;
use convgpu::scheduler::policy::PolicyKind;
use convgpu::scheduler::state::ContainerState;
use convgpu::sim::event::EventQueue;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::{SimDuration, SimTime};
use convgpu::workloads::{ContainerType, SampleProgram};
use std::collections::HashMap;

/// The fixed workload both harnesses run: types and 5 s arrivals.
const WORKLOAD: [ContainerType; 6] = [
    ContainerType::Large,
    ContainerType::Xlarge,
    ContainerType::Large,
    ContainerType::Medium,
    ContainerType::Small,
    ContainerType::Medium,
];

struct Outcome {
    finished_secs: f64,
    total_suspended_secs: f64,
    suspended_containers: usize,
}

/// Replay the workload in virtual time against the pure state machine.
fn run_des(create_delay: SimDuration) -> Outcome {
    #[derive(Debug)]
    enum Ev {
        Launch(u32),
        Start(ContainerId),
        Finish(ContainerId),
    }
    let mut sched = Scheduler::new(SchedulerConfig::paper(), PolicyKind::BestFit.build(0));
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut plans: HashMap<ContainerId, (ContainerType, SimDuration)> = HashMap::new();
    for (i, _) in WORKLOAD.iter().enumerate() {
        queue.schedule(SimTime::from_secs(5 * i as u64), Ev::Launch(i as u32));
    }
    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Launch(i) => {
                let id = ContainerId(u64::from(i) + 1);
                let ty = WORKLOAD[i as usize];
                sched.register(id, ty.gpu_memory(), now).unwrap();
                plans.insert(id, (ty, ty.sample_duration()));
                queue.schedule(now + create_delay, Ev::Start(id));
            }
            Ev::Start(id) => {
                let (ty, duration) = plans[&id];
                let (outcome, actions) = sched
                    .alloc_request(id, id.as_u64(), ty.gpu_memory(), ApiKind::Malloc, now)
                    .unwrap();
                if outcome == AllocOutcome::Granted {
                    sched
                        .alloc_done(id, id.as_u64(), 0xD000 + id.as_u64(), ty.gpu_memory(), now)
                        .unwrap();
                    queue.schedule(now + duration, Ev::Finish(id));
                }
                for a in actions {
                    if a.decision == AllocDecision::Granted {
                        let (aty, ad) = plans[&a.container];
                        sched
                            .alloc_done(
                                a.container,
                                a.pid,
                                0xD000 + a.container.as_u64(),
                                aty.gpu_memory(),
                                now,
                            )
                            .unwrap();
                        queue.schedule(now + ad, Ev::Finish(a.container));
                    }
                }
            }
            Ev::Finish(id) => {
                let actions = sched.container_close(id, now).unwrap();
                for a in actions {
                    if a.decision == AllocDecision::Granted {
                        let (aty, ad) = plans[&a.container];
                        sched
                            .alloc_done(
                                a.container,
                                a.pid,
                                0xD000 + a.container.as_u64(),
                                aty.gpu_memory(),
                                now,
                            )
                            .unwrap();
                        queue.schedule(now + ad, Ev::Finish(a.container));
                    }
                }
            }
        }
    }
    let ms = metrics::collect(sched.containers());
    let agg = metrics::aggregate(&ms);
    Outcome {
        finished_secs: agg.finished_time_secs,
        total_suspended_secs: ms.iter().map(|m| m.total_suspended.as_secs_f64()).sum(),
        suspended_containers: agg.ever_suspended,
    }
}

/// Run the same workload through the full live middleware.
fn run_live() -> Outcome {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        // 1 workload second = 10 ms wall: coarse enough that CPU
        // contention from parallel test binaries cannot distort the
        // schedule by more than a few percent.
        time_scale: 0.01,
        policy: PolicyKind::BestFit,
        ..ConVGpuConfig::default()
    })
    .unwrap();
    let clock = convgpu.clock().clone();
    let t0 = clock.now();
    let mut sessions = Vec::new();
    for ty in WORKLOAD {
        sessions.push(
            convgpu
                .run_container(
                    RunCommand::new("cuda-app").nvidia_memory(ty.nvidia_memory_option()),
                    SampleProgram::for_type(ty).boxed(),
                )
                .unwrap(),
        );
        // The launcher's 5 s cadence, measured from each launch start
        // (nvidia-docker run itself consumes ~0.5 s of the gap, like the
        // DES's create_delay).
        clock.sleep(SimDuration::from_secs(4));
    }
    let ids: Vec<_> = sessions.iter().map(|s| s.container).collect();
    for s in sessions {
        s.wait().expect("live sample program");
    }
    // The close is part of the stop: every container reads `Closed` once
    // its session has been waited.
    convgpu.service().with_scheduler(|s| {
        for id in ids {
            assert_eq!(s.container(id).unwrap().state, ContainerState::Closed);
        }
    });
    let finished_secs = (clock.now() - t0).as_secs_f64();
    let ms = convgpu.metrics();
    let outcome = Outcome {
        finished_secs,
        total_suspended_secs: ms.iter().map(|m| m.total_suspended.as_secs_f64()).sum(),
        suspended_containers: ms.iter().filter(|m| m.suspend_episodes > 0).count(),
    };
    convgpu.shutdown();
    outcome
}

#[test]
fn des_and_live_stack_agree_on_the_schedule() {
    let des = run_des(SimDuration::from_millis(900));
    let live = run_live();

    // Same contention structure: 2×large + xlarge + medium exceed 5 GiB,
    // so some containers must wait in both harnesses.
    assert!(des.suspended_containers >= 1, "DES saw no contention");
    assert!(live.suspended_containers >= 1, "live saw no contention");
    let diff = (des.suspended_containers as i64 - live.suspended_containers as i64).abs();
    assert!(
        diff <= 1,
        "suspended-container counts diverge: DES {} vs live {}",
        des.suspended_containers,
        live.suspended_containers
    );

    // Finished time within 25 % (live pays real IPC, thread scheduling,
    // kernel-chunk rounding and test-parallelism noise).
    let rel = (des.finished_secs - live.finished_secs).abs() / des.finished_secs;
    assert!(
        rel < 0.25,
        "finished time diverges: DES {:.1}s vs live {:.1}s ({:.0}%)",
        des.finished_secs,
        live.finished_secs,
        rel * 100.0
    );

    // Total waiting within 45 % (waiting amplifies small schedule
    // differences, so the band is wider).
    let rel = (des.total_suspended_secs - live.total_suspended_secs).abs()
        / des.total_suspended_secs.max(1.0);
    assert!(
        rel < 0.45,
        "total suspended time diverges: DES {:.1}s vs live {:.1}s ({:.0}%)",
        des.total_suspended_secs,
        live.total_suspended_secs,
        rel * 100.0
    );
}
