//! `sched_contended` — the pure `Scheduler` state machine: one thread, no
//! ipc, virtual time. A closed population of 512 simultaneously open
//! containers with Table III limits on the 5 GiB card: a handful hold a
//! full guarantee and run, hundreds sit suspended, and every release
//! runs redistribution with partial top-ups (the Fig. 7/8 workload at
//! scale). Every sub-run replays the same seeded op stream once under
//! each of the four policies, on a fresh scheduler each time.
//!
//! An op is one scheduler transition, including applying the resume
//! actions it returns. Ops are timed in batches of 256; a latency sample
//! is a batch's time ÷ its op count.

use crate::layers::{
    sched_config, table3_limit, AllocDecision, AllocOutcome, ApiKind, Bytes, ContainerId,
    ContainerState, DetRng, PolicyKind, ResumeAction, Scheduler, SimDuration, SimTime,
};
use crate::run::{ensure, CheckResult, Meter, SubCx, SubRun};
use std::collections::HashMap;
use std::time::Instant;

/// See `workloads::ops_per_second`.
pub const OPS_PER_SECOND: u64 = 770_000;

/// Containers open at any moment.
pub const POPULATION: usize = 512;
const BATCH: u64 = 256;

/// `(policy, per-layer metric of its release cost)`.
pub const POLICIES: [(PolicyKind, &str); 4] = [
    (PolicyKind::Fifo, "scheduler.policy.fifo.release_ns"),
    (PolicyKind::BestFit, "scheduler.policy.bf.release_ns"),
    (PolicyKind::RecentUse, "scheduler.policy.ru.release_ns"),
    (PolicyKind::Random, "scheduler.policy.rand.release_ns"),
];

struct Slot {
    id: ContainerId,
    limit: Bytes,
    pid: u64,
    /// Live allocations, oldest first: `(addr, size)`.
    live: Vec<(u64, Bytes)>,
    /// Allocation rounds left before the container exits.
    rounds_left: u32,
    /// Size of the request the scheduler is withholding, if any.
    parked: Option<Bytes>,
    /// Resumed at least once, i.e. holds its full guarantee and can never
    /// suspend again. Only then may it keep memory across requests: a
    /// partly guaranteed container that holds memory *and* waits is a
    /// hold-and-wait the scheduler does not break. (Letting every
    /// container keep up to three allocations parked all 512 after ~1260
    /// ops under Rand at seeds 107 and 109: one container suspended
    /// holding 2 GB, the rest of the pool went as a partial top-up to
    /// another suspended container, 0 B unassigned, nobody running.)
    guaranteed: bool,
}

/// Transition kinds timed one by one in a traced sub-run.
#[derive(Clone, Copy)]
enum Kind {
    Register = 0,
    AllocRequest = 1,
    AllocDone = 2,
    Free = 3,
    Release = 4,
}

/// Exact, seed-determined outcome of one policy segment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub op_hash: u64,
    pub alloc_requests: u64,
    pub fast_grants: u64,
    pub suspensions: u64,
    pub resumes: u64,
    pub suspended_peak: u64,
    pub releases: u64,
    pub fingerprint: u64,
}

struct Driver {
    sched: Scheduler,
    rng: DetRng,
    slots: Vec<Slot>,
    runnable: Vec<u32>,
    slot_of: HashMap<u64, u32>,
    parked: u64,
    next_id: u64,
    next_addr: u64,
    tick: u64,
    failed: u64,
    counts: Counts,
    /// Per-kind `(sum ns, calls)`; filled only when `per_call` is set.
    kind_ns: [(u64, u64); 5],
    per_call: bool,
    create_us: Vec<f64>,
    /// `(ns, calls)` of the register sample being gathered.
    create_acc: (u64, u64),
    sample_creates: bool,
}

impl Driver {
    fn new(policy: PolicyKind, seed: u64, per_call: bool) -> Driver {
        Driver {
            sched: Scheduler::new(sched_config(Bytes::gib(5)), policy.build(seed)),
            rng: DetRng::seed_from_u64(seed),
            slots: Vec::with_capacity(POPULATION),
            runnable: Vec::with_capacity(POPULATION),
            slot_of: HashMap::with_capacity(POPULATION * 2),
            parked: 0,
            next_id: 1,
            next_addr: 0x1000,
            tick: 0,
            failed: 0,
            counts: Counts::default(),
            kind_ns: [(0, 0); 5],
            per_call,
            create_us: Vec::new(),
            create_acc: (0, 0),
            sample_creates: false,
        }
    }

    fn now(&mut self) -> SimTime {
        self.tick += 1;
        SimTime::ZERO + SimDuration::from_micros(self.tick)
    }

    /// Count one transition and fold it into the op-stream identity.
    fn note(&mut self, kind: Kind, container: ContainerId, arg: u64) {
        self.counts.ops += 1;
        let mut h = self.counts.op_hash ^ (kind as u64 + 1);
        h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ container.as_u64();
        h = h.wrapping_mul(0x0000_0100_0000_01b3) ^ arg;
        self.counts.op_hash = h.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Run `f` against the scheduler, timing it under `kind` when the
    /// sub-run is traced.
    fn call<T>(&mut self, kind: Kind, f: impl FnOnce(&mut Scheduler, SimTime) -> T) -> T {
        let now = self.now();
        if !self.per_call {
            return f(&mut self.sched, now);
        }
        let t0 = Instant::now();
        let out = f(&mut self.sched, now);
        let slot = &mut self.kind_ns[kind as usize];
        slot.0 += t0.elapsed().as_nanos() as u64;
        slot.1 += 1;
        out
    }

    /// Register a fresh container into slot `s` (one op).
    fn register(&mut self, s: usize) {
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        let limit = table3_limit(self.rng.next_below(6));
        let rounds_left = self.rng.range_inclusive(4, 12) as u32;
        self.note(Kind::Register, id, limit.as_u64());
        let t0 = self.sample_creates.then(Instant::now);
        let ok = self
            .call(Kind::Register, |sched, now| sched.register(id, limit, now))
            .is_ok();
        if let Some(t0) = t0 {
            // A register takes a few hundred nanoseconds and the clock
            // ticks in whole ones: a sample is the mean of 16 calls.
            self.create_acc.0 += t0.elapsed().as_nanos() as u64;
            self.create_acc.1 += 1;
            if self.create_acc.1 == 16 {
                self.create_us.push(self.create_acc.0 as f64 / 16e3);
                self.create_acc = (0, 0);
            }
        }
        self.failed += u64::from(!ok);
        let slot = Slot {
            id,
            limit,
            pid: 100_000 + id.as_u64(),
            live: Vec::with_capacity(4),
            rounds_left,
            parked: None,
            guaranteed: false,
        };
        self.slot_of.insert(id.as_u64(), s as u32);
        if s == self.slots.len() {
            self.slots.push(slot);
            self.runnable.push(s as u32);
        } else {
            self.slots[s] = slot;
        }
    }

    /// Report a granted allocation of `size` for slot `s` (one op).
    fn alloc_done(&mut self, s: usize, size: Bytes) {
        let (id, pid) = (self.slots[s].id, self.slots[s].pid);
        let addr = self.next_addr;
        self.next_addr += 1;
        self.note(Kind::AllocDone, id, size.as_u64());
        let ok = self
            .call(Kind::AllocDone, |sched, now| {
                sched.alloc_done(id, pid, addr, size, now)
            })
            .is_ok();
        self.failed += u64::from(!ok);
        let slot = &mut self.slots[s];
        slot.live.push((addr, size));
        slot.rounds_left = slot.rounds_left.saturating_sub(1);
    }

    /// Deliver withheld decisions: each resumed container completes its
    /// allocation and becomes runnable again.
    fn apply(&mut self, actions: Vec<ResumeAction>) {
        for a in actions {
            let Some(&s) = self.slot_of.get(&a.container.as_u64()) else {
                self.failed += 1;
                continue;
            };
            let s = s as usize;
            let Some(size) = self.slots[s].parked.take() else {
                self.failed += 1;
                continue;
            };
            self.parked -= 1;
            self.slots[s].guaranteed = true;
            self.runnable.push(s as u32);
            if a.decision == AllocDecision::Granted {
                self.counts.resumes += 1;
                self.alloc_done(s, size);
            } else {
                self.failed += 1;
            }
        }
    }

    /// One move of a runnable container: 1–3 scheduler transitions.
    fn step(&mut self) -> CheckResult<()> {
        if self.runnable.is_empty() {
            let holders = self
                .sched
                .containers()
                .filter(|r| !r.used.is_zero())
                .count();
            let held = self
                .sched
                .containers()
                .fold(Bytes::ZERO, |acc, r| acc + r.used);
            return Err(format!(
                "sched_contended: deadlock after {} ops under {}: all {} containers suspended, \
                 {holders} of them hold {held} between them, {} unassigned",
                self.counts.ops,
                self.sched.policy_name(),
                self.parked,
                self.sched.unassigned()
            ));
        }
        let r = self.rng.index(self.runnable.len());
        let s = self.runnable[r] as usize;
        let (id, pid) = (self.slots[s].id, self.slots[s].pid);

        if self.slots[s].rounds_left == 0 {
            // Release: the process exits, the container closes, and a new
            // container takes the slot.
            self.note(Kind::Release, id, 0);
            self.note(Kind::Release, id, 1);
            self.counts.releases += 1;
            let released = self.call(Kind::Release, |sched, now| {
                let mut actions = sched.process_exit(id, pid, now)?;
                actions.extend(sched.container_close(id, now)?);
                Ok::<_, crate::layers::SchedError>(actions)
            });
            self.slot_of.remove(&id.as_u64());
            self.register(s);
            match released {
                Ok(actions) => self.apply(actions),
                Err(_) => self.failed += 1,
            }
            return Ok(());
        }

        let limit = self.slots[s].limit;
        let used = self.slots[s]
            .live
            .iter()
            .fold(Bytes::ZERO, |acc, (_, size)| acc + *size);
        let want = Bytes::new(
            self.rng
                .range_inclusive(limit.as_u64() / 8, limit.as_u64() / 2),
        );
        let held = self.slots[s].live.len();
        let must_free = used + want > limit || held >= 3 || (held > 0 && !self.slots[s].guaranteed);
        if must_free || (!self.slots[s].live.is_empty() && self.rng.next_below(3) == 0) {
            let (addr, size) = self.slots[s].live.remove(0);
            self.note(Kind::Free, id, size.as_u64());
            let freed = self.call(Kind::Free, |sched, now| sched.free(id, pid, addr, now));
            match freed {
                Ok((_, actions)) => self.apply(actions),
                Err(_) => self.failed += 1,
            }
            return Ok(());
        }

        self.note(Kind::AllocRequest, id, want.as_u64());
        self.counts.alloc_requests += 1;
        let outcome = self.call(Kind::AllocRequest, |sched, now| {
            sched.alloc_request(id, pid, want, ApiKind::Malloc, now)
        });
        match outcome {
            Ok((AllocOutcome::Granted, actions)) => {
                self.counts.fast_grants += 1;
                self.alloc_done(s, want);
                self.apply(actions);
            }
            Ok((AllocOutcome::Suspended { .. }, actions)) => {
                self.slots[s].parked = Some(want);
                self.runnable.swap_remove(r);
                self.parked += 1;
                self.counts.suspended_peak = self.counts.suspended_peak.max(self.parked);
                self.apply(actions);
            }
            Ok((AllocOutcome::Rejected, _)) | Err(_) => self.failed += 1,
        }
        Ok(())
    }

    /// Run moves until `ops` more transitions have been made.
    fn run_ops(&mut self, ops: u64, mut on_batch: impl FnMut(f64)) -> CheckResult<()> {
        let target = self.counts.ops + ops;
        while self.counts.ops < target {
            let (t0, ops0) = (Instant::now(), self.counts.ops);
            while self.counts.ops < (ops0 + BATCH).min(target) {
                self.step()?;
            }
            let done = self.counts.ops - ops0;
            on_batch(t0.elapsed().as_nanos() as f64 / 1e3 / done as f64);
        }
        Ok(())
    }

    /// Close out the segment's books.
    fn finish(&mut self) -> CheckResult<()> {
        self.sched
            .check_invariants()
            .map_err(|e| format!("sched_contended: invariant: {e:?}"))?;
        self.counts.suspensions = self.sched.containers().map(|r| r.suspend_episodes).sum();
        self.counts.fingerprint = self.sched.policy_fingerprint();
        let open = self
            .sched
            .containers()
            .filter(|r| r.state != ContainerState::Closed)
            .count();
        ensure!(
            open == POPULATION,
            "sched_contended: {open} containers open, the population is {POPULATION}"
        );
        ensure!(
            self.counts.suspensions >= self.counts.resumes,
            "sched_contended: {} resumes but only {} suspensions",
            self.counts.resumes,
            self.counts.suspensions
        );
        Ok(())
    }
}

/// Replay the seeded stream under `policy`: fill, warm up, run `ops`.
/// Exposed so the tests can pin determinism without a full sub-run.
#[cfg(test)]
pub fn replay(policy: PolicyKind, seed: u64, warm_ops: u64, ops: u64) -> CheckResult<Counts> {
    let mut d = Driver::new(policy, seed, false);
    for s in 0..POPULATION {
        d.register(s);
    }
    d.run_ops(warm_ops + ops, |_| {})?;
    d.finish()?;
    Ok(d.counts)
}

pub fn sub_run(cx: &SubCx) -> CheckResult<SubRun> {
    let tracing = cx.tracer.is_some();
    let mut run = SubRun {
        label: "FIFO+BF+RU+Rand".into(),
        ..SubRun::default()
    };
    let segment_ops = (cx.ops / POLICIES.len() as u64).max(BATCH);
    let segment_warm = cx.warm_ops / POLICIES.len() as u64;
    let mut kind_ns = [(0u64, 0u64); 5];
    let mut totals = Counts::default();
    let mut fingerprint = 0u64;

    for (policy, release_metric) in POLICIES {
        // Set-up: a fresh scheduler, the population registered, warm-up.
        let setup_started = Instant::now();
        let mut d = Driver::new(policy, cx.seed, tracing);
        for s in 0..POPULATION {
            d.register(s);
        }
        d.run_ops(segment_warm, |_| {})?;
        run.setup_s += setup_started.elapsed().as_secs_f64();

        let before = d.counts.ops;
        d.sample_creates = true;
        d.kind_ns = [(0, 0); 5];
        let mut segment = SubRun::default();
        let meter = Meter::start(false);
        let policy_lane = 1 + POLICIES.iter().position(|(p, _)| *p == policy).unwrap_or(0) as u64;
        d.run_ops(segment_ops, |us| {
            run.lat_us.push(us);
            if let Some(t) = &cx.tracer {
                // One span per timed batch, one lane per policy: the
                // Chrome trace shows where the slow batches fall.
                let end = t.now_ns();
                t.record_span(
                    "batch",
                    policy.label(),
                    policy_lane,
                    end.saturating_sub((us * 1e3 * BATCH as f64) as u64),
                    end,
                );
            }
        })?;
        meter.finish(false, &mut segment);
        d.finish()?;

        run.wall_s += segment.wall_s;
        run.cpu_user_s += segment.cpu_user_s;
        run.cpu_sys_s += segment.cpu_sys_s;
        run.threads = segment.threads;
        run.peak_rss_mib = run.peak_rss_mib.max(segment.peak_rss_mib);
        run.ops += d.counts.ops - before;
        run.failed += d.failed;
        run.create_us.append(&mut d.create_us);

        let c = &d.counts;
        totals.alloc_requests += c.alloc_requests;
        totals.fast_grants += c.fast_grants;
        totals.suspensions += c.suspensions;
        totals.resumes += c.resumes;
        totals.suspended_peak = totals.suspended_peak.max(c.suspended_peak);
        // One identity for the whole sub-run: policy state and op stream
        // of every segment, folded in order.
        fingerprint = (fingerprint ^ c.fingerprint ^ c.op_hash.rotate_left(17))
            .wrapping_mul(0x0000_0100_0000_01b3);
        for (total, seg) in kind_ns.iter_mut().zip(d.kind_ns) {
            total.0 += seg.0;
            total.1 += seg.1;
        }
        if tracing {
            let (ns, calls) = d.kind_ns[Kind::Release as usize];
            run.layer
                .insert(release_metric, ns as f64 / calls.max(1) as f64);
        }
    }

    run.layer
        .insert("scheduler.core.suspensions", totals.suspensions as f64);
    run.layer
        .insert("scheduler.core.resumes", totals.resumes as f64);
    run.layer.insert(
        "scheduler.core.suspended_peak",
        totals.suspended_peak as f64,
    );
    run.layer.insert(
        "scheduler.core.fast_path_share",
        totals.fast_grants as f64 / totals.alloc_requests.max(1) as f64,
    );
    // 48 bits survive the trip through an f64 exactly.
    run.layer.insert(
        "scheduler.core.fingerprint",
        (fingerprint & 0xffff_ffff_ffff) as f64,
    );
    if let Some(t) = &cx.tracer {
        run.spans = t.drain();
    }
    if tracing {
        let names = [
            "scheduler.core.register_ns",
            "scheduler.core.alloc_request_ns",
            "scheduler.core.alloc_done_ns",
            "scheduler.core.free_ns",
            "scheduler.core.release_ns",
        ];
        for (name, (ns, calls)) in names.into_iter().zip(kind_ns) {
            run.layer.insert(name, ns as f64 / calls.max(1) as f64);
        }
    }
    Ok(run)
}

/// The exact counts of a seed must repeat across the sub-runs of a run:
/// every sub-run replays the same stream on fresh schedulers.
pub fn cross_check(runs: &[SubRun]) -> CheckResult<()> {
    let exact = [
        "scheduler.core.suspensions",
        "scheduler.core.resumes",
        "scheduler.core.suspended_peak",
        "scheduler.core.fingerprint",
    ];
    let Some(first) = runs.first() else {
        return Ok(());
    };
    for (i, run) in runs.iter().enumerate().skip(1) {
        ensure!(
            run.ops == first.ops,
            "sched_contended: sub-run {i} made {} ops, sub-run 0 made {}",
            run.ops,
            first.ops
        );
        for key in exact {
            ensure!(
                run.layer.get(key) == first.layer.get(key),
                "sched_contended: {key} differs between sub-run 0 ({:?}) and sub-run {i} ({:?})",
                first.layer.get(key),
                run.layer.get(key)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_replays_to_identical_counts() {
        for (policy, _) in POLICIES {
            let a = replay(policy, 7, 500, 20_000).unwrap();
            let b = replay(policy, 7, 500, 20_000).unwrap();
            assert_eq!(a, b, "{policy:?}");
            assert!(
                a.suspended_peak > 400,
                "{policy:?}: the population must be mostly suspended, peak {}",
                a.suspended_peak
            );
            assert!(a.resumes > 0 && a.releases > 0);
        }
        let other = replay(PolicyKind::Fifo, 8, 500, 20_000).unwrap();
        assert_ne!(
            other.op_hash,
            replay(PolicyKind::Fifo, 7, 500, 20_000).unwrap().op_hash
        );
    }
}
