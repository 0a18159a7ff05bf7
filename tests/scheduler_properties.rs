//! Property-based tests on the scheduler state machine and the device
//! allocators — the invariants that make ConVGPU's guarantee meaningful:
//!
//! * **safety**: the full invariant oracle (`Scheduler::check_invariants`)
//!   holds after every operation of every generated trace;
//! * **liveness**: any trace of limit-respecting containers eventually
//!   finishes under every policy;
//! * **conservation**: allocator free+live always partitions capacity.
//!
//! Runs on the deterministic harness in `convgpu_audit::prop` (the
//! sealed build environment has no proptest); failures print a
//! single-case replay seed.

use convgpu::gpu::memory::{DevicePtr, PagedAllocator};
use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu::scheduler::core::{AllocOutcome, ResumeAction, Scheduler, SchedulerConfig};
use convgpu::scheduler::multi_gpu::{DeviceIndex, MultiGpuScheduler, PlacementPolicy};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::rng::DetRng;
use convgpu::sim::time::SimTime;
use convgpu::sim::units::Bytes;
use convgpu_audit::prop;

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// A random scheduler operation over a small id space.
#[derive(Clone, Debug)]
enum Op {
    Register { id: u8, limit_mib: u16 },
    Alloc { id: u8, pid: u8, size_mib: u16 },
    Free { id: u8, addr_idx: u8 },
    ProcessExit { id: u8, pid: u8 },
    Close { id: u8 },
}

fn gen_op(rng: &mut DetRng) -> Op {
    let id = rng.next_below(6) as u8;
    match rng.next_below(5) {
        0 => Op::Register {
            id,
            limit_mib: rng.range_inclusive(64, 2047) as u16,
        },
        1 => Op::Alloc {
            id,
            pid: rng.next_below(3) as u8,
            size_mib: rng.range_inclusive(1, 2047) as u16,
        },
        2 => Op::Free {
            id,
            addr_idx: rng.next_below(16) as u8,
        },
        3 => Op::ProcessExit {
            id,
            pid: rng.next_below(3) as u8,
        },
        _ => Op::Close { id },
    }
}

/// Driver-side bookkeeping for an op stream: granted allocations, so
/// `Free` ops can hit live addresses.
#[derive(Default)]
struct OpDriver {
    /// `(container, pid, addr)` of every allocation granted and not yet
    /// freed, exited or closed.
    live_addrs: Vec<(ContainerId, u64, u64)>,
    allocs_done: u64,
}

fn render_actions(actions: &[ResumeAction]) -> String {
    let parts: Vec<String> = actions
        .iter()
        .map(|a| format!("{:#018x}={:?}", a.ticket, a.decision))
        .collect();
    format!("[{}]", parts.join(" "))
}

/// Apply one generated op to any topology through the backend trait and
/// render what came back: the outcome (tickets in hex), the resume
/// actions' tickets and decisions, and — for a registration — the device
/// the container landed on. `Err` only when a call the driver is entitled to
/// (`alloc_done` after a grant) is refused.
fn apply_op<B: SchedulerBackend>(
    b: &mut B,
    d: &mut OpDriver,
    op: &Op,
    now: SimTime,
) -> Result<(String, Option<DeviceIndex>), String> {
    Ok(match *op {
        Op::Register { id, limit_mib } => {
            let c = ContainerId(u64::from(id));
            let limit = Bytes::mib(u64::from(limit_mib));
            match b.register(c, limit, now) {
                Ok(p) => (format!("register {c} {limit} -> ok"), Some(p)),
                Err(e) => (format!("register {c} {limit} -> {e:?}"), None),
            }
        }
        Op::Alloc { id, pid, size_mib } => {
            let c = ContainerId(u64::from(id));
            let (pid, size) = (u64::from(pid), Bytes::mib(u64::from(size_mib)));
            let head = format!("alloc {c}/{pid} {size}");
            match b.alloc_request(c, pid, size, ApiKind::Malloc, now) {
                Ok((outcome, actions)) => {
                    let out = match outcome {
                        AllocOutcome::Granted => {
                            let addr = 0x1000 + 0x1000 * d.allocs_done;
                            d.allocs_done += 1;
                            b.alloc_done(c, pid, addr, size, now)
                                .map_err(|e| format!("alloc_done: {e:?}"))?;
                            d.live_addrs.push((c, pid, addr));
                            "granted".to_string()
                        }
                        AllocOutcome::Rejected => "rejected".to_string(),
                        // Suspended tickets are simply abandoned here —
                        // the scheduler must survive that too (a dead
                        // client); Close/ProcessExit clean them up.
                        AllocOutcome::Suspended { ticket } => format!("suspended {ticket:#018x}"),
                    };
                    (
                        format!("{head} -> {out} {}", render_actions(&actions)),
                        None,
                    )
                }
                Err(e) => (format!("{head} -> {e:?}"), None),
            }
        }
        Op::Free { id, addr_idx } => {
            let c = ContainerId(u64::from(id));
            let matches: Vec<usize> = d
                .live_addrs
                .iter()
                .enumerate()
                .filter(|(_, (cc, _, _))| *cc == c)
                .map(|(i, _)| i)
                .collect();
            if matches.is_empty() {
                (format!("free {c} -> nothing live"), None)
            } else {
                let i = matches[usize::from(addr_idx) % matches.len()];
                let (cc, pid, addr) = d.live_addrs.remove(i);
                match b.free(cc, pid, addr, now) {
                    Ok((freed, actions)) => (
                        format!(
                            "free {c}/{pid} {addr:#x} -> {freed} {}",
                            render_actions(&actions)
                        ),
                        None,
                    ),
                    Err(e) => (format!("free {c}/{pid} {addr:#x} -> {e:?}"), None),
                }
            }
        }
        Op::ProcessExit { id, pid } => {
            let c = ContainerId(u64::from(id));
            let pid = u64::from(pid);
            match b.process_exit(c, pid, now) {
                Ok(actions) => {
                    d.live_addrs.retain(|(cc, p, _)| !(*cc == c && *p == pid));
                    (
                        format!("exit {c}/{pid} -> {}", render_actions(&actions)),
                        None,
                    )
                }
                Err(e) => (format!("exit {c}/{pid} -> {e:?}"), None),
            }
        }
        Op::Close { id } => {
            let c = ContainerId(u64::from(id));
            match b.container_close(c, now) {
                Ok(actions) => {
                    d.live_addrs.retain(|(cc, _, _)| *cc != c);
                    (format!("close {c} -> {}", render_actions(&actions)), None)
                }
                Err(e) => (format!("close {c} -> {e:?}"), None),
            }
        }
    })
}

/// Whatever sequence of (possibly nonsensical) operations arrives, the
/// full invariant oracle holds after every one, and the scheduler never
/// panics — and a one-device multi-GPU scheduler is the single-device
/// scheduler: identical outcomes, tickets, resume actions and `mem_info`
/// at every step.
#[test]
fn scheduler_invariants_hold_under_arbitrary_ops() {
    prop::cases("scheduler_invariants_hold_under_arbitrary_ops").run(|rng| {
        let policy = PolicyKind::ALL[rng.index(PolicyKind::ALL.len())];
        let n_ops = rng.range_inclusive(1, 120);
        let cap = Bytes::mib(4096);
        let mut sched = Scheduler::new(SchedulerConfig::with_capacity(cap), policy.build(7));
        let mut one_device = MultiGpuScheduler::new(&[cap], policy, PlacementPolicy::RoundRobin, 7);
        let mut drivers: [OpDriver; 2] = Default::default();
        for t in 1..=n_ops {
            let now = SimTime::from_secs(t);
            let op = gen_op(rng);
            let (want, _) = apply_op(&mut sched, &mut drivers[0], &op, now)?;
            let (multi, _) = apply_op(&mut one_device, &mut drivers[1], &op, now)?;
            ensure!(
                multi == want,
                "t={t}: one-device multi-GPU `{multi}` != `{want}`"
            );
            for id in 0..6 {
                let c = ContainerId(id);
                let want = sched.mem_info(c, 0);
                ensure!(
                    SchedulerBackend::mem_info(&one_device, c, 0) == want,
                    "t={t}: mem_info({c}) diverged from {want:?}"
                );
            }
            if let Err(v) = sched.check_invariants() {
                return Err(format!("invariant violated at t={t}: {v}"));
            }
            SchedulerBackend::check_invariants(&one_device)
                .map_err(|e| format!("multi-GPU invariant violated at t={t}: {e}"))?;
            ensure!(sched.total_assigned() <= cap, "over-commit at t={t}");
        }
        Ok(())
    });
}

/// One combination of the decision golden: a 72-op `gen_op` stream (three
/// generations of six container ids, so late registrations meet a loaded
/// topology) and a `register` of a fresh id every twelfth step.
fn render_decisions(label: &str, mut b: TopologyBackend, seed: u64, out: &mut String) {
    use std::fmt::Write;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut d = OpDriver::default();
    let mut seen = std::collections::BTreeSet::new();
    writeln!(out, "== {} {label}", b.topology_kind()).unwrap();
    for t in 1..=72u64 {
        let now = SimTime::from_secs(t);
        let op = if t % 12 == 0 {
            let limit_mib = rng.range_inclusive(64, 2047);
            // This step used to adopt the container with a drawn `used`.
            // The draw stays, discarded, so that every later step draws
            // the op it always drew.
            let _used = rng.range_inclusive(0, limit_mib >> 2);
            Op::Register {
                id: 100 + t as u8,
                limit_mib: limit_mib as u16,
            }
        } else {
            let mut op = gen_op(&mut rng);
            let generation = 6 * ((t - 1) / 24) as u8;
            let id = match &mut op {
                Op::Register { id, .. }
                | Op::Alloc { id, .. }
                | Op::Free { id, .. }
                | Op::ProcessExit { id, .. }
                | Op::Close { id } => {
                    *id += generation;
                    *id
                }
            };
            // An id's first op is its registration, whatever was drawn:
            // most of a raw stream is `UnknownContainer` otherwise.
            if seen.insert(id) && !matches!(op, Op::Register { .. }) {
                let limit_mib = rng.range_inclusive(64, 2047) as u16;
                op = Op::Register { id, limit_mib };
            }
            op
        };
        let (line, placed) = apply_op(&mut b, &mut d, &op, now).expect("alloc_done refused");
        let line = match placed {
            Some(device) => format!("{line} @{device}"),
            None => line,
        };
        writeln!(out, "{t:>2} {line} fp={:016x}", b.fingerprint()).unwrap();
        b.check_invariants().expect("topology invariants");
    }
    for dev in b.devices() {
        writeln!(
            out,
            "   device -:{} capacity {} unassigned {} open {} policy {}",
            dev.device, dev.capacity, dev.unassigned, dev.containers, dev.policy
        )
        .unwrap();
    }
}

/// Every placement decision, pinned: `tests/golden/topology_decisions.golden`
/// holds, for each policy × device placement on a two-GPU host, what a
/// seeded op stream got back at every step — placement, outcome and
/// ticket, resume actions, `fingerprint()` — and the closing `devices()`
/// snapshot. Re-bless (an intended decision change) with
/// `UPDATE_GOLDEN=1 cargo test --test scheduler_properties`.
#[test]
fn topology_decisions_match_the_golden_file() {
    let (big, small) = (Bytes::mib(2560), Bytes::mib(2048));
    let mut got = String::new();
    let mut seed = 0xD0C5u64;
    for policy in PolicyKind::ALL {
        for placement in [
            PlacementPolicy::RoundRobin,
            PlacementPolicy::MostFree,
            PlacementPolicy::BestFitDevice,
        ] {
            seed += 1;
            let b = TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
                SchedulerConfig::paper(),
                &[small, big],
                policy,
                placement,
                seed,
            ));
            let label = format!("{}+{}", policy.label(), placement.label());
            render_decisions(&label, b, seed, &mut got);
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/topology_decisions.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "golden file missing — bless with UPDATE_GOLDEN=1 cargo test --test scheduler_properties",
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "first divergence from the golden file at line {}",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// One container of the redistribution golden's closed population.
struct Tenant {
    id: ContainerId,
    limit: Bytes,
    pid: u64,
    /// Live allocations, oldest first: `(addr, size)`.
    live: Vec<(u64, Bytes)>,
    /// Allocation rounds left before the container exits.
    rounds_left: u64,
    /// Size of the request the scheduler is withholding, if any.
    parked: Option<Bytes>,
    /// Holds its full guarantee, so it may keep memory across requests
    /// without a hold-and-wait.
    guaranteed: bool,
}

/// The log entries appended since the log had seen `seen` decisions in
/// total, as one golden-line suffix: `+id:amount/deficit` per top-up,
/// `>id#ticket` per granted resume (`!` for a rejection). Empty when the
/// op redistributed and resumed nothing.
fn render_redistribution(sched: &Scheduler, seen: u64) -> String {
    use convgpu::scheduler::log::Decision;
    let log = sched.log();
    let total = log.len() as u64 + log.dropped();
    let fresh = (total - seen) as usize;
    let mut parts = Vec::new();
    for e in log.entries().skip(log.len() - fresh) {
        match e.decision {
            Decision::ToppedUp {
                id,
                amount,
                deficit,
            } => parts.push(format!("+{}:{amount}/{deficit}", id.as_u64())),
            Decision::Resumed {
                id,
                ticket,
                decision,
            } => {
                let mark = if decision == AllocDecision::Granted {
                    '>'
                } else {
                    '!'
                };
                parts.push(format!("{mark}{}#{ticket}", id.as_u64()));
            }
            _ => {}
        }
    }
    parts.join(" ")
}

/// One combination of the redistribution golden: 256 open containers with
/// Table III limits (128 MiB … 4 GiB, six values, so deficits tie) on the
/// paper's 5 GiB card, driven like `sched_contended` for 1500 ops. The
/// clock ticks once every eight ops, so registrations and suspensions
/// share a `SimTime` and the FIFO and Recent-Use tie-breaks decide.
fn render_redistribute_decisions(policy: PolicyKind, seed: u64, out: &mut String) {
    use std::fmt::Write;
    const POPULATION: usize = 256;
    let mut sched = Scheduler::new(SchedulerConfig::paper(), policy.build(seed));
    let mut rng = DetRng::seed_from_u64(seed);
    let mut tenants: Vec<Tenant> = Vec::with_capacity(POPULATION);
    let mut runnable: Vec<usize> = Vec::new();
    let mut next_id = 1u64;
    let mut next_addr = 0x1000u64;
    let mut step = 0u64;
    let mut admit = |sched: &mut Scheduler, rng: &mut DetRng, now: SimTime| {
        let id = ContainerId(next_id);
        next_id += 1;
        let limit = Bytes::mib(128 << rng.next_below(6));
        sched
            .register(id, limit, now)
            .expect("Table III limits fit 5 GiB");
        Tenant {
            id,
            limit,
            pid: 1000 + id.as_u64(),
            live: Vec::new(),
            rounds_left: rng.range_inclusive(2, 6),
            parked: None,
            guaranteed: false,
        }
    };
    for s in 0..POPULATION {
        tenants.push(admit(&mut sched, &mut rng, SimTime::ZERO));
        runnable.push(s);
    }
    writeln!(out, "== {} FullGuarantee seed {seed}", policy.label()).unwrap();
    for _ in 0..1500 {
        step += 1;
        let now = SimTime::from_secs(step / 8);
        if runnable.is_empty() {
            writeln!(out, "{step:>4} every container suspended").unwrap();
            break;
        }
        let seen = sched.log().len() as u64 + sched.log().dropped();
        let r = rng.index(runnable.len());
        let s = runnable[r];
        let (id, pid, limit) = (tenants[s].id, tenants[s].pid, tenants[s].limit);
        let (what, actions) = if tenants[s].rounds_left == 0 {
            let mut actions = sched.process_exit(id, pid, now).expect("open");
            actions.extend(sched.container_close(id, now).expect("open"));
            tenants[s] = admit(&mut sched, &mut rng, now);
            ("release", actions)
        } else {
            let held = tenants[s].live.len();
            let want = Bytes::mib(rng.range_inclusive(limit.as_u64() >> 23, limit.as_u64() >> 21));
            let used: Bytes = tenants[s].live.iter().map(|&(_, size)| size).sum();
            let must_free =
                used + want > limit || held >= 3 || (held > 0 && !tenants[s].guaranteed);
            if must_free || (held > 0 && rng.next_below(3) == 0) {
                let (addr, _) = tenants[s].live.remove(0);
                let (_, actions) = sched.free(id, pid, addr, now).expect("open");
                ("free", actions)
            } else {
                let (outcome, actions) = sched
                    .alloc_request(id, pid, want, ApiKind::Malloc, now)
                    .expect("open");
                match outcome {
                    AllocOutcome::Granted => {
                        sched.alloc_done(id, pid, next_addr, want, now).unwrap();
                        tenants[s].live.push((next_addr, want));
                        tenants[s].rounds_left -= 1;
                        next_addr += 1;
                    }
                    AllocOutcome::Suspended { .. } => {
                        tenants[s].parked = Some(want);
                        runnable.swap_remove(r);
                    }
                    AllocOutcome::Rejected => panic!("{id:?}: {want} within {limit} rejected"),
                }
                ("alloc", actions)
            }
        };
        for a in &actions {
            let Some(t) = tenants.iter().position(|t| t.id == a.container) else {
                continue; // cancelled at its own close
            };
            let size = tenants[t].parked.take().expect("resumed a parked request");
            let rec = sched
                .container(a.container)
                .expect("resumed container exists");
            tenants[t].guaranteed = rec.fully_guaranteed();
            runnable.push(t);
            if a.decision == AllocDecision::Granted {
                sched
                    .alloc_done(a.container, a.pid, next_addr, size, now)
                    .unwrap();
                tenants[t].live.push((next_addr, size));
                tenants[t].rounds_left = tenants[t].rounds_left.saturating_sub(1);
                next_addr += 1;
            }
        }
        let picks = render_redistribution(&sched, seen);
        if !picks.is_empty() {
            writeln!(out, "{step:>4} {what} {}: {picks}", id.as_u64()).unwrap();
        }
        sched.check_invariants().expect("scheduler invariants");
    }
    let suspended = sched.containers().filter(|r| r.is_suspended()).count();
    let episodes: u64 = sched.containers().map(|r| r.suspend_episodes).sum();
    writeln!(
        out,
        "   end: {episodes} episodes, {suspended} suspended, {} unassigned, fingerprint {:016x}",
        sched.unassigned(),
        sched.policy_fingerprint()
    )
    .unwrap();
}

/// Every redistribution decision at scale, pinned:
/// `tests/golden/redistribute_decisions.golden` holds, for each policy
/// under the full-guarantee resume rule, which suspended container every
/// release and give-back
/// topped up and resumed, in order, and the policy's final fingerprint.
/// Hundreds of suspended containers with tied deficits, registrations and
/// suspension times reach the selection tie-breaks the small goldens
/// never do. Re-bless (an intended decision change) with
/// `UPDATE_GOLDEN=1 cargo test --test scheduler_properties`.
#[test]
fn redistribute_decisions_match_the_golden_file() {
    let mut got = String::new();
    // The golden file's seeds: 24302, 24304, 24306, 24308.
    for (i, policy) in PolicyKind::ALL.into_iter().enumerate() {
        render_redistribute_decisions(policy, 0x5EED + 1 + 2 * i as u64, &mut got);
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/redistribute_decisions.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path).expect(
        "golden file missing — bless with UPDATE_GOLDEN=1 cargo test --test scheduler_properties",
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "first divergence from the golden file at line {}",
            i + 1
        );
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

/// Observability is side-effect-only: the same operation trace applied
/// to a scheduler with and without an attached obs layer must leave
/// `containers()` in the identical order with identical fields, and
/// `deadlock::assess` must return the identical verdict after every op.
#[test]
fn attaching_observability_never_changes_scheduler_behavior() {
    use convgpu::obs::{CollectorSink, Registry, SpanSink, Tracer};
    use convgpu::scheduler::core::SchedObs;
    use convgpu::scheduler::deadlock;
    use std::sync::Arc;

    // The deterministic fingerprint compared between the two runs:
    // (id, state, assigned, used, limit, grants, rejections, episodes).
    type ContainerFingerprint = (u64, String, u64, u64, u64, u64, u64, u64);
    fn fingerprint(s: &Scheduler) -> Vec<ContainerFingerprint> {
        s.containers()
            .map(|r| {
                (
                    r.id.as_u64(),
                    format!("{:?}", r.state),
                    r.assigned.as_u64(),
                    r.used.as_u64(),
                    r.limit.as_u64(),
                    r.granted_allocs,
                    r.rejected_allocs,
                    r.suspend_episodes,
                )
            })
            .collect()
    }

    prop::cases("attaching_observability_never_changes_scheduler_behavior").run(|rng| {
        let policy = PolicyKind::ALL[rng.index(PolicyKind::ALL.len())];
        let n_ops = rng.range_inclusive(1, 100);
        let ops: Vec<_> = (0..n_ops).map(|_| gen_op(rng)).collect();

        let mut plain = Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(4096)),
            policy.build(7),
        );
        let mut observed = Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(4096)),
            policy.build(7),
        );
        let collector = Arc::new(CollectorSink::new());
        let tracer = Arc::new(Tracer::new());
        tracer.add_sink(Arc::clone(&collector) as Arc<dyn SpanSink>);
        observed.attach_obs(SchedObs::new(Arc::new(Registry::new()), tracer));

        let mut next_addr = 0x1000u64;
        for (t, op) in ops.iter().enumerate() {
            let now = SimTime::from_secs(t as u64 + 1);
            for sched in [&mut plain, &mut observed] {
                match *op {
                    Op::Register { id, limit_mib } => {
                        let _ = sched.register(
                            ContainerId(u64::from(id)),
                            Bytes::mib(u64::from(limit_mib)),
                            now,
                        );
                    }
                    Op::Alloc { id, pid, size_mib } => {
                        let c = ContainerId(u64::from(id));
                        if let Ok((AllocOutcome::Granted, _)) = sched.alloc_request(
                            c,
                            u64::from(pid),
                            Bytes::mib(u64::from(size_mib)),
                            ApiKind::Malloc,
                            now,
                        ) {
                            sched
                                .alloc_done(
                                    c,
                                    u64::from(pid),
                                    next_addr,
                                    Bytes::mib(u64::from(size_mib)),
                                    now,
                                )
                                .map_err(|e| format!("alloc_done: {e:?}"))?;
                        }
                    }
                    Op::Free { id, addr_idx } => {
                        // Frees target whatever both runs granted at the
                        // same step, so derive the address from the step
                        // counter rather than per-run bookkeeping.
                        let c = ContainerId(u64::from(id));
                        let addr = 0x1000 + 0x1000 * u64::from(addr_idx);
                        let _ = sched.free(c, u64::from(pid_of(addr)), addr, now);
                    }
                    Op::ProcessExit { id, pid } => {
                        let _ = sched.process_exit(ContainerId(u64::from(id)), u64::from(pid), now);
                    }
                    Op::Close { id } => {
                        let _ = sched.container_close(ContainerId(u64::from(id)), now);
                    }
                }
            }
            if matches!(op, Op::Alloc { .. }) {
                next_addr += 0x1000;
            }
            ensure!(
                fingerprint(&plain) == fingerprint(&observed),
                "container state diverged at t={t} after {op:?}"
            );
            ensure!(
                deadlock::assess(&plain) == deadlock::assess_observed(&observed),
                "progress verdict diverged at t={t} after {op:?}"
            );
        }
        // Both logged the same decisions, in the same order.
        let plain_log: Vec<_> = plain.log().entries().cloned().collect();
        let obs_log: Vec<_> = observed.log().entries().cloned().collect();
        ensure!(plain_log == obs_log, "decision logs diverged");
        Ok(())
    });
}

/// `Op::Free` above needs a pid for the free call; the scheduler ignores
/// mismatched pids for unknown addresses, so any stable function works.
fn pid_of(addr: u64) -> u8 {
    (addr >> 12) as u8 % 3
}

/// Liveness: a batch of single-shot containers (the paper's sample
/// workload shape) always finishes under every policy, for any sizes
/// and arrival order.
#[test]
fn every_policy_finishes_every_single_shot_batch() {
    prop::cases("every_policy_finishes_every_single_shot_batch").run(|rng| {
        let policy = PolicyKind::ALL[rng.index(PolicyKind::ALL.len())];
        let seed = rng.next_below(1000);
        let n = rng.range_inclusive(1, 24) as usize;
        let sizes: Vec<u64> = (0..n).map(|_| rng.range_inclusive(1, 4095)).collect();
        let mut sched = Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::gib(5)),
            policy.build(seed),
        );
        // Launch everything at t=i, requesting the full limit.
        let mut running: Vec<(ContainerId, u64)> = Vec::new(); // (id, finish_t)
        let mut waiting: std::collections::HashSet<ContainerId> = Default::default();
        let mut limits = std::collections::HashMap::new();
        for (i, &mib) in sizes.iter().enumerate() {
            let id = ContainerId(i as u64 + 1);
            let now = SimTime::from_secs(i as u64);
            sched
                .register(id, Bytes::mib(mib), now)
                .map_err(|e| format!("register: {e:?}"))?;
            limits.insert(id, Bytes::mib(mib));
            let (outcome, actions) = sched
                .alloc_request(id, 1, Bytes::mib(mib), ApiKind::Malloc, now)
                .map_err(|e| format!("alloc_request: {e:?}"))?;
            match outcome {
                AllocOutcome::Granted => {
                    sched
                        .alloc_done(id, 1, 0xA000 + i as u64, Bytes::mib(mib), now)
                        .map_err(|e| format!("alloc_done: {e:?}"))?;
                    running.push((id, i as u64 + 3));
                }
                AllocOutcome::Suspended { .. } => {
                    waiting.insert(id);
                }
                AllocOutcome::Rejected => return Err("limit-sized request rejected".into()),
            }
            for a in actions {
                ensure!(
                    a.decision == AllocDecision::Granted,
                    "resume carried a rejection"
                );
                sched
                    .alloc_done(
                        a.container,
                        a.pid,
                        0xF000 + a.container.as_u64(),
                        limits[&a.container],
                        now,
                    )
                    .map_err(|e| format!("alloc_done after resume: {e:?}"))?;
                waiting.remove(&a.container);
                running.push((a.container, i as u64 + 3));
            }
        }
        // Drain: close running containers in finish order until all done.
        let mut t = sizes.len() as u64 + 10;
        let mut guard = 0;
        while !running.is_empty() {
            guard += 1;
            ensure!(guard < 10_000, "drain did not converge");
            running.sort_by_key(|&(_, ft)| ft);
            let (id, _) = running.remove(0);
            t += 1;
            let actions = sched
                .container_close(id, SimTime::from_secs(t))
                .map_err(|e| format!("container_close: {e:?}"))?;
            for a in actions {
                ensure!(
                    a.decision == AllocDecision::Granted,
                    "resume carried a rejection"
                );
                sched
                    .alloc_done(
                        a.container,
                        a.pid,
                        0xC000_0000 + a.container.as_u64() * 7 + t,
                        limits[&a.container],
                        SimTime::from_secs(t),
                    )
                    .map_err(|e| format!("alloc_done in drain: {e:?}"))?;
                waiting.remove(&a.container);
                running.push((a.container, t + 3));
            }
            if let Err(v) = sched.check_invariants() {
                return Err(format!("invariant violated in drain: {v}"));
            }
        }
        ensure!(
            waiting.is_empty(),
            "{policy:?}: stranded containers {waiting:?}"
        );
        Ok(())
    });
}

/// Paged allocator conservation: free + live == capacity under arbitrary
/// alloc/free interleaving, and any request ≤ the free total succeeds.
#[test]
fn paged_allocator_admits_by_total_free() {
    prop::cases("paged_allocator_admits_by_total_free").run(|rng| {
        let n_ops = rng.range_inclusive(1, 200);
        let mut a = PagedAllocator::new(Bytes::mib(256));
        let mut live: Vec<(DevicePtr, Bytes)> = Vec::new();
        for _ in 0..n_ops {
            let is_alloc = rng.next_below(2) == 0;
            let v = rng.range_inclusive(1, 1999);
            if is_alloc {
                let want = Bytes::kib(v);
                let fits = want.align_up(Bytes::new(256)) <= a.free_bytes();
                match a.alloc(want) {
                    Ok(p) => {
                        ensure!(fits, "alloc succeeded but should not fit");
                        live.push((p, want));
                    }
                    Err(_) => ensure!(!fits, "alloc failed despite fitting"),
                }
            } else if !live.is_empty() {
                let (p, _) = live.swap_remove((v as usize) % live.len());
                a.free(p).map_err(|e| format!("free: {e:?}"))?;
            }
            if let Err(v) = a.check_invariants() {
                return Err(format!("allocator invariant: {v:?}"));
            }
        }
        for (p, _) in live {
            a.free(p).map_err(|e| format!("final free: {e:?}"))?;
        }
        ensure!(
            a.free_bytes() == Bytes::mib(256),
            "leak: {} free after freeing everything",
            a.free_bytes()
        );
        a.check_invariants()
            .map_err(|e| format!("final invariant: {e:?}"))
    });
}
