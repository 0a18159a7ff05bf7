//! Property tests on the simulation substrate: the event queue, time
//! arithmetic, the stream engine, byte-size parsing, and the cluster
//! placement function — the foundations every experiment result rests on.
//!
//! Runs on the deterministic harness in `convgpu_audit::prop`.

use convgpu::gpu::stream::{StreamEngine, StreamId};
use convgpu::scheduler::cluster::SwarmStrategy;
use convgpu::sim::event::EventQueue;
use convgpu::sim::time::{SimDuration, SimTime};
use convgpu::sim::units::Bytes;
use convgpu_audit::prop;
use std::cell::Cell;

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

/// `SwarmStrategy::select`, the placement function of the cluster
/// router, over random capable sets and views (small value ranges, so
/// ties are common): the pick is a capable node, there is none exactly
/// when nothing is capable, Spread takes the fewest open containers,
/// BinPack the least free memory among the nodes that fit (or among all
/// when none fits), ties go to the lowest index, and Random makes exactly
/// one draw and takes the drawn node.
#[test]
fn cluster_places_every_feasible_container() {
    prop::cases("cluster_places_every_feasible_container").run(|rng| {
        let strategy = [
            SwarmStrategy::Spread,
            SwarmStrategy::BinPack,
            SwarmStrategy::Random,
        ][rng.index(3)];
        let nodes = rng.range_inclusive(1, 8) as usize;
        let free: Vec<u64> = (0..nodes).map(|_| rng.next_below(4) << 30).collect();
        let need: Vec<Bytes> = (0..nodes).map(|_| Bytes::gib(rng.next_below(4))).collect();
        let open: Vec<u64> = (0..nodes).map(|_| rng.next_below(3)).collect();
        let mut capable: Vec<usize> = (0..nodes).filter(|_| rng.next_below(4) != 0).collect();
        rng.shuffle(&mut capable);
        let drawn = rng.next_below(64) as usize;
        let draws = Cell::new(0);
        let draw = |n: usize| {
            draws.set(draws.get() + 1);
            drawn % n
        };
        let pick = strategy.select(&capable, |i| need[i], |i| free[i], |i| open[i], draw);
        let Some(pick) = pick else {
            ensure!(
                capable.is_empty(),
                "{strategy:?} picked nothing from {capable:?}"
            );
            return Ok(());
        };
        ensure!(
            capable.contains(&pick),
            "{strategy:?} picked {pick} outside {capable:?}"
        );
        let random = strategy == SwarmStrategy::Random;
        ensure!(
            draws.get() == usize::from(random),
            "{strategy:?} drew {} times",
            draws.get()
        );
        // The nodes the strategy ranks, and its score: the pick must
        // score lowest of them, and lowest-indexed among equal scores.
        let fits: Vec<usize> = capable
            .iter()
            .copied()
            .filter(|&i| free[i] >= need[i].as_u64())
            .collect();
        let (ranked, score): (&[usize], &dyn Fn(usize) -> u64) = match strategy {
            SwarmStrategy::Spread => (&capable, &|i| open[i]),
            SwarmStrategy::BinPack if fits.is_empty() => (&capable, &|i| free[i]),
            SwarmStrategy::BinPack => (&fits, &|i| free[i]),
            SwarmStrategy::Random => {
                ensure!(
                    pick == capable[drawn % capable.len()],
                    "Random took {pick}, not the drawn node"
                );
                return Ok(());
            }
        };
        ensure!(
            ranked.contains(&pick),
            "{strategy:?} picked {pick} outside {ranked:?}"
        );
        for &i in ranked {
            ensure!(
                (score(pick), pick) <= (score(i), i),
                "{strategy:?} picked {pick} over {i} (free {free:?}, open {open:?}, need {need:?})"
            );
        }
        Ok(())
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
