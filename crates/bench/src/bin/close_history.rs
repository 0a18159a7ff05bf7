//! `close_history` — what one scheduler step costs after many earlier
//! container lifecycles.
//!
//! ```text
//! cargo run --release -p convgpu-bench --bin close_history
//! ```
//!
//! Keeps [`OPEN`] containers registered on the paper's 5 GiB card under
//! FIFO, each small enough that every request is granted at once. A step
//! closes the oldest open container, registers a new one, and makes four
//! `alloc_request` / `alloc_done` / `free` rounds of 1 MiB, each on a
//! different open container. For each [`HISTORY`] size, a fresh scheduler
//! first runs that many register/close lifecycles, then times [`STEPS`]
//! steps. Each line printed is the median ns per step over [`REPS`] such
//! schedulers, made in rounds over the sizes so that a slow spell of the
//! host lands on all of them alike. A scheduler whose step cost follows
//! only its open containers prints the same number for every size.

use convgpu_ipc::message::ApiKind;
use convgpu_scheduler::core::{AllocOutcome, Scheduler, SchedulerConfig};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::VecDeque;
use std::time::Instant;

/// Containers open at any moment: 64 × (8 MiB + 66 MiB) fits 5 GiB.
const OPEN: usize = 64;
/// Earlier lifecycles before the timed steps.
const HISTORY: [u64; 3] = [0, 100_000, 300_000];
/// Timed steps per scheduler.
const STEPS: u64 = 20_000;
/// Schedulers per history size.
const REPS: usize = 7;

/// One scheduler and the ids it holds open, oldest first.
struct Store {
    sched: Scheduler,
    open: VecDeque<ContainerId>,
    next_id: u64,
    now: u64,
}

impl Store {
    /// [`OPEN`] containers registered, `history` lifecycles behind them.
    fn new(history: u64) -> Store {
        let mut store = Store {
            sched: Scheduler::new(SchedulerConfig::paper(), PolicyKind::Fifo.build(1)),
            open: VecDeque::new(),
            next_id: 1,
            now: 0,
        };
        for _ in 0..OPEN {
            store.register();
        }
        for _ in 0..history {
            store.close_oldest();
            store.register();
        }
        store
    }

    fn tick(&mut self) -> SimTime {
        self.now += 1;
        SimTime::from_nanos(self.now)
    }

    fn register(&mut self) {
        let (id, now) = (ContainerId(self.next_id), self.tick());
        self.next_id += 1;
        self.sched
            .register(id, Bytes::mib(8), now)
            .expect("register");
        self.open.push_back(id);
    }

    fn close_oldest(&mut self) {
        let id = self.open.pop_front().expect("an open container");
        let now = self.tick();
        self.sched.container_close(id, now).expect("close");
    }

    fn step(&mut self, step: u64) {
        self.close_oldest();
        self.register();
        for round in 0..4 {
            let id = self.open[(step as usize * 4 + round) % OPEN];
            let (pid, now) = (id.as_u64(), self.tick());
            let (outcome, _) = self
                .sched
                .alloc_request(id, pid, Bytes::mib(1), ApiKind::Malloc, now)
                .expect("alloc_request");
            assert_eq!(outcome, AllocOutcome::Granted, "{id} fits its budget");
            self.sched
                .alloc_done(id, pid, 0x1000, Bytes::mib(1), now)
                .expect("alloc_done");
            self.sched.free(id, pid, 0x1000, now).expect("free");
        }
    }
}

fn main() {
    println!("open containers {OPEN}, {STEPS} steps a run");
    let mut ns = vec![Vec::with_capacity(REPS); HISTORY.len()];
    for _ in 0..REPS {
        for (at, &history) in HISTORY.iter().enumerate() {
            let mut store = Store::new(history);
            let started = Instant::now();
            for step in 0..STEPS {
                store.step(step);
            }
            ns[at].push(started.elapsed().as_nanos() as f64 / STEPS as f64);
        }
    }
    for (history, mut ns) in HISTORY.into_iter().zip(ns) {
        ns.sort_by(f64::total_cmp);
        let runs: Vec<String> = ns.iter().map(|n| format!("{n:.0}")).collect();
        println!(
            "history {history:>7}: {:.0} ns per step (median; runs {})",
            ns[REPS / 2],
            runs.join(", ")
        );
    }
}
