//! The paper's §V future work, implemented: ConVGPU scheduling across
//! multiple GPUs with a placement policy.
//!
//! ```text
//! cargo run --release --example multi_gpu
//! ```
//!
//! Runs the same 20-container Table III trace against a two-GPU node
//! (K20m 5 GiB + P100 16 GiB) under each placement policy, in virtual
//! time, and compares finished time and suspensions.

use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::scheduler::backend::SchedulerBackend;
use convgpu::scheduler::core::AllocOutcome;
use convgpu::scheduler::metrics;
use convgpu::scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::event::EventQueue;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;
use convgpu::workloads::trace::TraceSpec;

#[derive(Debug)]
enum Ev {
    Launch(u32, Bytes, SimDuration),
    Finish(ContainerId),
}

fn run(placement: PlacementPolicy, n: u32, seed: u64) -> (f64, u64) {
    let mut sched = MultiGpuScheduler::new(
        &[Bytes::gib(5), Bytes::gib(16)],
        PolicyKind::BestFit,
        placement,
        seed,
    );
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut durations = std::collections::HashMap::new();
    for a in TraceSpec::paper(n, seed).generate() {
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
                sched.register(id, limit, now).expect("register");
                durations.insert(id, (limit, duration));
                let (outcome, actions) = sched
                    .alloc_request(id, 1, limit, ApiKind::Malloc, now)
                    .expect("alloc");
                if let AllocOutcome::Granted = outcome {
                    sched
                        .alloc_done(id, 1, 0x7000_0000 + id.as_u64(), limit, now)
                        .expect("done");
                    queue.schedule(now + duration, Ev::Finish(id));
                }
                for act in actions {
                    if act.decision == AllocDecision::Granted {
                        let (l, d) = durations[&act.container];
                        sched
                            .alloc_done(
                                act.container,
                                act.pid,
                                0x7000_0000 + act.container.as_u64(),
                                l,
                                now,
                            )
                            .expect("done");
                        queue.schedule(now + d, Ev::Finish(act.container));
                    }
                }
            }
            Ev::Finish(id) => {
                let actions = sched.container_close(id, now).expect("close");
                for act in actions {
                    if act.decision == AllocDecision::Granted {
                        let (l, d) = durations[&act.container];
                        sched
                            .alloc_done(
                                act.container,
                                act.pid,
                                0x7000_0000 + act.container.as_u64(),
                                l,
                                now,
                            )
                            .expect("done");
                        queue.schedule(now + d, Ev::Finish(act.container));
                    }
                }
            }
        }
    }
    sched.check_invariants().expect("invariants");
    let mut finished = 0.0_f64;
    let mut suspensions = 0;
    for device in sched.shards() {
        let ms = metrics::collect(device.containers());
        let agg = metrics::aggregate(&ms);
        finished = finished.max(agg.finished_time_secs);
        suspensions += ms.iter().map(|m| m.suspend_episodes).sum::<u64>();
    }
    (finished, suspensions)
}

fn main() {
    let n = 20;
    println!("multi-GPU extension: {n} containers over K20m(5 GiB) + P100(16 GiB), BF scheduler\n");
    println!(
        "{:<16} {:>14} {:>12}",
        "placement", "finished (s)", "suspensions"
    );
    for (name, placement) in [
        ("round-robin", PlacementPolicy::RoundRobin),
        ("most-free", PlacementPolicy::MostFree),
        ("best-fit-device", PlacementPolicy::BestFitDevice),
    ] {
        let mut fin = 0.0;
        let mut susp = 0;
        let reps = 6;
        for seed in 0..reps {
            let (f, s) = run(placement, n, 9000 + seed);
            fin += f;
            susp += s;
        }
        println!(
            "{:<16} {:>14.1} {:>12.1}",
            name,
            fin / reps as f64,
            susp as f64 / reps as f64
        );
    }
    println!("\n(single 5 GiB GPU for comparison: run `cargo run -p convgpu-bench --bin repro_fig7_table4`)");
}
