//! Property tests on the simulation substrate: the event queue, time
//! arithmetic, the stream engine, byte-size parsing, and the cluster
//! dispatcher — the foundations every experiment result rests on.
//!
//! Runs on the deterministic harness in `convgpu_audit::prop`.

use convgpu::gpu::stream::{StreamEngine, StreamId};
use convgpu::scheduler::backend::SchedulerBackend;
use convgpu::scheduler::cluster::{ClusterNode, ClusterScheduler, SwarmStrategy};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::event::EventQueue;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::{SimDuration, SimTime};
use convgpu::sim::units::Bytes;
use convgpu_audit::prop;

macro_rules! ensure {
    ($cond:expr, $($arg:tt)+) => {
        if !$cond {
            return Err(format!($($arg)+));
        }
    };
}

/// Events always pop in non-decreasing time order, with insertion
/// order breaking ties.
#[test]
fn event_queue_pops_sorted() {
    prop::cases("event_queue_pops_sorted").run(|rng| {
        let n = rng.range_inclusive(1, 199) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.next_below(10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut last = (SimTime::ZERO, 0usize);
        let mut popped = 0;
        while let Some((at, idx)) = q.pop() {
            popped += 1;
            ensure!(at >= last.0, "time went backwards");
            if at == last.0 && popped > 1 {
                ensure!(idx > last.1, "tie must respect insertion order");
            }
            ensure!(
                at == SimTime::from_secs(times[idx]),
                "popped time does not match scheduled time"
            );
            last = (at, idx);
        }
        ensure!(
            popped == times.len(),
            "lost events: {popped}/{}",
            times.len()
        );
        Ok(())
    });
}

/// Time arithmetic: (t + d) - t == d and (t + d) - d == t, for any
/// values that do not overflow.
#[test]
fn time_add_sub_round_trips() {
    prop::cases("time_add_sub_round_trips").run(|rng| {
        let t = rng.next_below(u64::MAX / 4);
        let d = rng.next_below(u64::MAX / 4);
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        ensure!((time + dur) - time == dur, "(t+d)-t != d for t={t} d={d}");
        ensure!((time + dur) - dur == time, "(t+d)-d != t for t={t} d={d}");
        Ok(())
    });
}

/// The stream engine serializes within a stream: total time on one
/// stream equals the sum of enqueued durations regardless of when
/// the host enqueues.
#[test]
fn stream_serializes_work() {
    prop::cases("stream_serializes_work").run(|rng| {
        let n = rng.range_inclusive(1, 49) as usize;
        let durs: Vec<u64> = (0..n).map(|_| rng.range_inclusive(1, 999)).collect();
        let mut e = StreamEngine::new();
        let s = e.create_stream(1);
        let mut done = SimTime::ZERO;
        for &d in &durs {
            done = e
                .enqueue(1, s, SimTime::ZERO, SimDuration::from_millis(d))
                .map_err(|err| format!("enqueue: {err:?}"))?;
        }
        let total: u64 = durs.iter().sum();
        ensure!(
            done == SimTime::ZERO + SimDuration::from_millis(total),
            "stream did not serialize: {done:?} != {total}ms"
        );
        Ok(())
    });
}

/// Byte-size strings produced by Display parse back to the same value
/// whenever the value is exactly representable (multiples of the
/// printed unit — always true for Display output).
#[test]
fn bytes_display_parse_round_trips() {
    prop::cases("bytes_display_parse_round_trips").run(|rng| {
        let v = rng.range_inclusive(1, 1u64 << 40);
        let b = Bytes::new(v);
        let shown = b.to_string();
        // Display appends a unit; the grammar parses all of them.
        let parsed: Bytes = shown
            .parse()
            .map_err(|e| format!("parse {shown:?}: {e:?}"))?;
        ensure!(parsed == b, "{shown} parsed to {parsed} != {b}");
        Ok(())
    });
}

/// Any mix of container limits that fits *some* node is placed, and
/// placement never violates per-node invariants, under any strategy.
#[test]
fn cluster_places_every_feasible_container() {
    prop::cases("cluster_places_every_feasible_container").run(|rng| {
        let strategy = [
            SwarmStrategy::Spread,
            SwarmStrategy::BinPack,
            SwarmStrategy::Random,
        ][rng.index(3)];
        let seed = rng.next_below(100);
        let n = rng.range_inclusive(1, 29) as usize;
        let limits: Vec<u64> = (0..n).map(|_| rng.range_inclusive(64, 4095)).collect();
        let mut cluster = ClusterScheduler::new(
            vec![
                ClusterNode::new("a", &[Bytes::gib(5)], PolicyKind::BestFit, 1),
                ClusterNode::new(
                    "b",
                    &[Bytes::gib(5), Bytes::gib(16)],
                    PolicyKind::BestFit,
                    2,
                ),
            ],
            strategy,
            seed,
        );
        for (i, &mib) in limits.iter().enumerate() {
            let id = ContainerId(i as u64 + 1);
            let node = cluster
                .register(id, Bytes::mib(mib), SimTime::from_secs(i as u64))
                .map_err(|e| format!("register: {e:?}"))?;
            ensure!(
                cluster.home_of(id) == Some(node),
                "placement record mismatch for {id}"
            );
        }
        cluster
            .check_invariants()
            .map_err(|e| format!("cluster invariant: {e:?}"))
    });
}

#[test]
fn default_stream_is_usable_without_creation() {
    let mut e = StreamEngine::new();
    let done = e
        .enqueue(
            9,
            StreamId::DEFAULT,
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
        )
        .unwrap();
    assert_eq!(done, SimTime::from_secs(3));
}
