//! Durability battery for the router's write-ahead home-map journal.
//!
//! Five properties the journal must hold (`docs/CLUSTER.md`,
//! "Durability & restart"):
//!
//! * **Kill mid-storm, restart** — a real `cluster route --journal`
//!   process is `SIGKILL`ed under concurrent wire load, and a router
//!   reopening the same journal holds exactly the homes the killed one
//!   had drained, each with its **pre-restart** `limit` and `hint` —
//!   the checkpoint a journal-less restart re-learns as zeros.
//! * **Replay equivalence** — the journal of *any* byte prefix of a
//!   live router's operations replays to a home map the router actually
//!   held (after the corresponding prefix of mutations), and a torn cut
//!   never panics recovery.
//! * **Fault campaign** — the same equivalence under randomized kill
//!   points and op schedules; `CONVGPU_JOURNAL_FAULT_ITERS` scales the
//!   iteration budget (nightly runs it wide).
//! * **Frozen on-disk format** — the checked-in fixture at
//!   `tests/fixtures/journal/` (snapshot + log + deliberately torn
//!   tail), written by a router that still kept a `used` ledger, must
//!   keep recovering to the same hardcoded home map. It is never
//!   re-blessed: it is the old-journal pin.
//! * **Idle drain** — a quiescent router's buffered records reach the
//!   log within about one wall-clock `idle_flush` tick, without any
//!   further traffic to trigger the sim-clock flush cadence.

use convgpu::ipc::binary::WireCodec;
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::ipc::message::{AllocDecision, ApiKind, Request, Response};
use convgpu::ipc::transport::EndpointAddr;
use convgpu::middleware::journal::{
    Journal, JournalConfig, RecoveredHome, SNAPSHOT_FILE, WAL_FILE,
};
use convgpu::middleware::router::{ClusterRouter, NodeServer, RouterConfig};
use convgpu::scheduler::backend::TopologyBackend;
use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::{RealClock, VirtualClock};
use convgpu::sim::ids::ContainerId;
use convgpu::sim::rng::DetRng;
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "convgpu-itest-journal-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Same transport matrix as the cluster battery: `CONVGPU_TRANSPORT=tcp`
/// swaps UNIX sockets for TCP loopback listeners.
fn test_endpoint(dir: &Path, name: &str) -> EndpointAddr {
    match std::env::var("CONVGPU_TRANSPORT").as_deref() {
        Ok("tcp") => EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
        _ => EndpointAddr::from(dir.join(name)),
    }
}

fn backend(capacity_mib: u64) -> TopologyBackend {
    TopologyBackend::Single(Scheduler::new(
        SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
        PolicyKind::Fifo.build(7),
    ))
}

// ---------------------------------------------------------------------
// Kill the router mid-storm, restart it from its journal.
// ---------------------------------------------------------------------

/// Spawn a real `convgpu-cli cluster serve-node` process; returns it
/// with the endpoint it actually bound (announced on the ready line).
fn spawn_node(endpoint: &EndpointAddr, name: &str, capacity_mib: u64) -> (Child, EndpointAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_convgpu-cli"))
        .args([
            "cluster",
            "serve-node",
            &format!("--socket={endpoint}"),
            &format!("--name={name}"),
            &format!("--capacity-mib={capacity_mib}"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cluster serve-node");
    let resolved = ready_endpoint(&mut child, name);
    (child, resolved)
}

/// Spawn a real `cluster route --journal` process fronting `nodes`.
fn spawn_router(
    endpoint: &EndpointAddr,
    nodes: &[(String, EndpointAddr)],
    journal_dir: &Path,
) -> (Child, EndpointAddr) {
    let mut args = vec![
        "cluster".to_string(),
        "route".to_string(),
        format!("--socket={endpoint}"),
        format!("--journal={}", journal_dir.display()),
    ];
    for (name, ep) in nodes {
        args.push(format!("--node={name}={ep}"));
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_convgpu-cli"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cluster route");
    let resolved = ready_endpoint(&mut child, "router");
    (child, resolved)
}

/// Read the child's ready line and parse the announced endpoint (the
/// URI is the line's last token; for `tcp:host:0` it is the only way to
/// learn the kernel-assigned port).
fn ready_endpoint(child: &mut Child, who: &str) -> EndpointAddr {
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the ready line");
    line.trim()
        .rsplit(' ')
        .next()
        .and_then(|uri| EndpointAddr::parse(uri).ok())
        .unwrap_or_else(|| panic!("{who} announced no endpoint: {line:?}"))
}

fn kill(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn connect(ep: &EndpointAddr) -> SchedulerClient {
    SchedulerClient::connect_endpoint_with_codec(ep, WireCodec::Json, None).unwrap()
}

fn wire_alloc(client: &SchedulerClient, c: u64, pid: u64, mib: u64) -> AllocDecision {
    match client
        .request(Request::AllocRequest {
            container: ContainerId(c),
            pid,
            size: Bytes::mib(mib),
            api: ApiKind::Malloc,
        })
        .unwrap()
    {
        Response::Alloc { decision } => decision,
        other => panic!("unexpected alloc answer: {other:?}"),
    }
}

/// A `SIGKILL`ed router loses at most its buffered tail: restarted from
/// its journal, it holds exactly the homes the killed process had
/// drained, each with its pre-restart `limit` and `hint`.
#[test]
fn router_killed_mid_storm_recovers_its_drained_homes() {
    let dir = temp_dir("storm");
    let jdir = dir.join("journal");
    let _ = std::fs::remove_dir_all(&jdir);
    let (n0, ep0) = spawn_node(&test_endpoint(&dir, "n0.sock"), "n0", 4096);
    let (n1, ep1) = spawn_node(&test_endpoint(&dir, "n1.sock"), "n1", 4096);
    let nodes = vec![("n0".to_string(), ep0), ("n1".to_string(), ep1)];
    let (r1, rep1) = spawn_router(&test_endpoint(&dir, "router.sock"), &nodes, &jdir);
    let client = connect(&rep1);

    // The checkpoints under test: container 1 registers 400 MiB, the
    // others 128 MiB. Pid 7 confirms 200 + 100 MiB on container 1 and
    // frees the 200, so 100 MiB are live on n0 across the restart; the
    // allocations journal nothing.
    for (c, limit) in [(1u64, 400u64), (2, 128), (3, 128), (4, 128), (5, 128)] {
        client
            .request(Request::Register {
                container: ContainerId(c),
                limit: Bytes::mib(limit),
            })
            .unwrap();
    }
    let mut placed = BTreeMap::new();
    for (c, limit) in [(1u64, 400u64), (2, 128), (3, 128), (4, 128), (5, 128)] {
        let node = match client
            .request(Request::QueryHome {
                container: ContainerId(c),
            })
            .unwrap()
        {
            Response::Home { node, .. } => node,
            other => panic!("unexpected query_home answer: {other:?}"),
        };
        let home = RecoveredHome {
            node,
            limit: Bytes::mib(limit),
            hint: Bytes::mib(limit + 66),
            used_by_pid: BTreeMap::new(),
        };
        placed.insert(ContainerId(c), home);
    }
    assert_eq!(placed[&ContainerId(1)].node, "n0", "Spread places 1 first");
    assert_eq!(wire_alloc(&client, 1, 7, 200), AllocDecision::Granted);
    client
        .request(Request::AllocDone {
            container: ContainerId(1),
            pid: 7,
            addr: 0xA0,
            size: Bytes::mib(200),
        })
        .unwrap();
    assert_eq!(wire_alloc(&client, 1, 7, 100), AllocDecision::Granted);
    client
        .request(Request::AllocDone {
            container: ContainerId(1),
            pid: 7,
            addr: 0xA1,
            size: Bytes::mib(100),
        })
        .unwrap();
    match client
        .request(Request::Free {
            container: ContainerId(1),
            pid: 7,
            addr: 0xA0,
        })
        .unwrap()
    {
        Response::Freed { size } => assert_eq!(size, Bytes::mib(200)),
        other => panic!("unexpected free answer: {other:?}"),
    }

    // Storm: four concurrent wire clients hammer containers 2–5 with
    // allocations and one-way reports, and churn containers of their own
    // so the router keeps journaling; then the router is SIGKILLed
    // mid-run — no graceful flush, exactly a crash. The checkpoint
    // records above are comfortably past the 25 ms flush cadence by then.
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (2..=5u64)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let ep = rep1.clone();
            std::thread::spawn(move || {
                let client = connect(&ep);
                let pid = 1000 + c;
                let mut round = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    round += 1;
                    let addr = c << 32 | round;
                    let granted = client
                        .request(Request::AllocRequest {
                            container: ContainerId(c),
                            pid,
                            size: Bytes::mib(32),
                            api: ApiKind::Malloc,
                        })
                        .map(|r| {
                            matches!(
                                r,
                                Response::Alloc {
                                    decision: AllocDecision::Granted
                                }
                            )
                        })
                        .unwrap_or(false);
                    if granted {
                        let _ = client.report_alloc_done(ContainerId(c), pid, addr, Bytes::mib(32));
                        let _ = client.report_free(ContainerId(c), pid, addr);
                    }
                    let churn = ContainerId(c * 100_000 + round);
                    if client.register(churn, Bytes::mib(16)).is_ok() {
                        let _ = client.container_close(churn);
                    }
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(400));
    kill(r1); // SIGKILL: the journal's Drop never runs.
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // What the killed router had drained is what its files hold, at
    // rest now that the process is gone: the five checkpoints, plus at
    // most one churn container per worker (each registers and closes
    // its own in sequence, and replay lands on a state the router held).
    let (_, _, at_kill) = Journal::open(JournalConfig::new(&jdir)).unwrap();
    assert!(!at_kill.homes.is_empty());
    let mut churn_per_worker = BTreeMap::new();
    for (c, home) in &at_kill.homes {
        match placed.get(c) {
            Some(want) => assert_eq!(home, want, "checkpoint of {c} lost"),
            None => {
                assert_eq!((home.limit, home.hint), (Bytes::mib(16), Bytes::mib(82)));
                *churn_per_worker.entry(c.as_u64() / 100_000).or_insert(0) += 1;
            }
        }
    }
    assert!(placed.keys().all(|c| at_kill.homes.contains_key(c)));
    assert!(
        churn_per_worker.values().all(|&n| n == 1),
        "{churn_per_worker:?}"
    );

    // A restarted router holds exactly those homes, full limit and hint
    // included, and routes to them: container 1's books are still on n0.
    let restarted = ClusterRouter::attach_with_journal(
        nodes.clone(),
        WireCodec::Json,
        RouterConfig::default(),
        RealClock::handle(),
        JournalConfig::new(&jdir),
    )
    .unwrap();
    assert_eq!(restarted.homes_snapshot(), at_kill.homes);
    assert_eq!(
        restarted
            .request_alloc(ContainerId(1), 9, Bytes::mib(10), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    assert_eq!(
        restarted.free(ContainerId(1), 7, 0xA1).unwrap(),
        Bytes::mib(100),
        "the pre-kill allocation is on n0's books"
    );

    drop(restarted);
    kill(n0);
    kill(n1);
}

// ---------------------------------------------------------------------
// Replay equivalence: any journal prefix is a state the router held.
// ---------------------------------------------------------------------

/// Drive `ops` deterministic pseudo-random steps through a journaled
/// in-process two-node router (flush-per-append, virtual clock):
/// registers and closes, which journal one record each, and allocation,
/// free and exit traffic, which must journal nothing. Returns the final
/// WAL bytes and the homes snapshot after every journaled mutation
/// (`states[0]` is the empty map — record `k` of the WAL moves the map
/// from `states[k]` to `states[k + 1]`).
fn scripted_run(
    tag: &str,
    seed: u64,
    ops: usize,
) -> (Vec<u8>, Vec<BTreeMap<ContainerId, RecoveredHome>>) {
    let dir = temp_dir(tag).join(format!("run-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let vclock = VirtualClock::new();
    let mut nodes = Vec::new();
    for i in 0..2usize {
        let ndir = dir.join(format!("n{i}"));
        std::fs::create_dir_all(&ndir).unwrap();
        nodes.push(
            NodeServer::serve_endpoint(
                format!("n{i}"),
                backend(4096),
                vclock.handle(),
                ndir.clone(),
                &EndpointAddr::from(ndir.join("node.sock")),
            )
            .unwrap(),
        );
    }
    let jdir = dir.join("journal");
    let jcfg = JournalConfig {
        flush_interval: SimDuration::ZERO,
        ..JournalConfig::new(&jdir)
    };
    let router = ClusterRouter::attach_with_journal(
        nodes
            .iter()
            .map(|n| (n.name().to_string(), n.endpoint().clone()))
            .collect::<Vec<_>>(),
        WireCodec::Json,
        RouterConfig::default(),
        vclock.handle(),
        jcfg,
    )
    .unwrap();

    let appends = || {
        router
            .obs()
            .registry
            .snapshot()
            .counter("convgpu_router_journal_appends_total", &[])
            .unwrap_or(0)
    };
    let mut rng = DetRng::seed_from_u64(seed);
    let mut states = vec![router.homes_snapshot()];
    let mut next_c = 1u64;
    let mut next_addr = 0x1000u64;
    // Live containers: id → outstanding (pid, addr, size) allocations.
    type Allocs = Vec<(u64, u64, Bytes)>;
    let mut live: Vec<(u64, Allocs)> = Vec::new();
    for _ in 0..ops {
        let before = appends();
        let journals = match rng.next_below(8) {
            // Register a fresh container (kept likely so the map grows).
            0..=2 => {
                if live.len() >= 5 {
                    continue;
                }
                router
                    .register(ContainerId(next_c), Bytes::mib(512))
                    .unwrap();
                live.push((next_c, Vec::new()));
                next_c += 1;
                true
            }
            // Confirmed allocation: request + one-way done, sized well
            // below the limit so it is granted, never parked (a
            // suspended reply would block this single-threaded script).
            3 | 4 => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.index(live.len());
                let outstanding: u64 = live[i].1.iter().map(|(_, _, s)| s.as_u64()).sum();
                if outstanding >= Bytes::mib(200).as_u64() {
                    continue;
                }
                let (c, allocs) = &mut live[i];
                let pid = 1 + rng.next_below(3);
                let size = Bytes::mib(16 + rng.next_below(32));
                let decision = router
                    .request_alloc(ContainerId(*c), pid, size, ApiKind::Malloc)
                    .unwrap();
                assert_eq!(decision, AllocDecision::Granted, "script sized to fit");
                let addr = next_addr;
                next_addr += 1;
                router
                    .report_alloc_done(ContainerId(*c), pid, addr, size)
                    .unwrap();
                allocs.push((pid, addr, size));
                false
            }
            // Free one outstanding allocation (waited: the recorded size
            // also proves the one-way `done` reached the node first).
            5 => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.index(live.len());
                if live[i].1.is_empty() {
                    continue;
                }
                let j = rng.index(live[i].1.len());
                let (c, allocs) = &mut live[i];
                let (pid, addr, size) = allocs.remove(j);
                let freed = ClusterRouter::free(&router, ContainerId(*c), pid, addr).unwrap();
                assert_eq!(freed, size);
                false
            }
            // A pid exits: its allocations (and our tracking) go away.
            6 => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.index(live.len());
                if live[i].1.is_empty() {
                    continue;
                }
                let j = rng.index(live[i].1.len());
                let pid = live[i].1[j].0;
                let (c, allocs) = &mut live[i];
                ClusterRouter::process_exit(&router, ContainerId(*c), pid).unwrap();
                allocs.retain(|(p, _, _)| *p != pid);
                false
            }
            // Close a container outright.
            _ => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.index(live.len());
                let c = live.remove(i).0;
                ClusterRouter::container_close(&router, ContainerId(c)).unwrap();
                true
            }
        };
        assert_eq!(appends() - before, u64::from(journals), "seed {seed}");
        if journals {
            states.push(router.homes_snapshot());
        }
    }
    router.journal_flush();
    drop(router);
    let wal = std::fs::read(jdir.join(WAL_FILE)).unwrap();
    for n in nodes {
        n.shutdown();
    }
    (wal, states)
}

/// Replay a WAL byte-prefix in a scratch dir (recovery truncates the
/// torn tail, so the original bytes are never touched) and return the
/// recovered map plus how many records replayed.
fn replay_prefix(scratch: &Path, prefix: &[u8]) -> (BTreeMap<ContainerId, RecoveredHome>, u64) {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).unwrap();
    std::fs::write(scratch.join(WAL_FILE), prefix).unwrap();
    let (_journal, _wal, recovery) =
        Journal::open(JournalConfig::new(scratch)).expect("open never fails");
    (recovery.homes, recovery.replayed)
}

#[test]
fn any_journal_prefix_replays_to_a_state_the_router_held() {
    let (wal, states) = scripted_run("prefix", 0xD15C0, 128);
    assert!(
        states.len() > 24,
        "the script must journal a useful number of mutations: {}",
        states.len()
    );
    let scratch = temp_dir("prefix").join("replay");
    // Cut at every byte: the recovered map must equal the live map
    // after exactly the complete records in the prefix, and a cut mid-
    // record must never panic or invent state.
    for cut in 0..=wal.len() {
        let prefix = &wal[..cut];
        let complete = prefix.iter().filter(|&&b| b == b'\n').count();
        let (homes, replayed) = replay_prefix(&scratch, prefix);
        assert_eq!(replayed as usize, complete, "cut at byte {cut}");
        assert_eq!(
            homes, states[complete],
            "cut at byte {cut}: replay diverged from the live router's map"
        );
    }
}

/// Nightly-scaled fault campaign: randomized op schedules, one
/// randomized kill point each, replay equivalence asserted every time.
/// `CONVGPU_JOURNAL_FAULT_ITERS` (default 4) scales the budget.
#[test]
fn randomized_kill_points_preserve_replay_equivalence() {
    let iters: u64 = std::env::var("CONVGPU_JOURNAL_FAULT_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    for iter in 0..iters {
        let seed = 0xC0FFEE ^ (iter.wrapping_mul(0x9E37_79B9));
        let (wal, states) = scripted_run("campaign", seed, 160);
        let mut rng = DetRng::seed_from_u64(seed ^ 0xDEAD);
        let scratch = temp_dir("campaign").join("replay");
        // A handful of kill points per schedule, anywhere in the file.
        for _ in 0..8 {
            let cut = rng.next_below(wal.len() as u64 + 1) as usize;
            let prefix = &wal[..cut];
            let complete = prefix.iter().filter(|&&b| b == b'\n').count();
            let (homes, replayed) = replay_prefix(&scratch, prefix);
            assert_eq!(replayed as usize, complete, "iter {iter} cut {cut}");
            assert_eq!(
                homes, states[complete],
                "iter {iter} cut {cut}: replay diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Frozen on-disk format: the checked-in truncated-tail fixture.
// ---------------------------------------------------------------------

fn fixture_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/journal"
    ))
}

/// What the fixture must recover to, written out long-hand so the test
/// fails loudly if either the format or the replay semantics drift.
///
/// The fixture is a journal from a router that still kept a per-pid
/// `used` ledger. Its snapshot holds containers 1 (400 MiB on n0, ledger
/// `7:100 MiB`) and 2 (256 MiB on n1, ledger `9:64 MiB`); its log places
/// container 3 (128 MiB on n0) and records a `done 3 3 32 MiB`, then a
/// record with a wrong checksum and half a record. Replay reads the
/// ledgers and the `done` and keeps none of them.
fn fixture_expected() -> BTreeMap<ContainerId, RecoveredHome> {
    let home = |node: &str, limit_mib: u64| RecoveredHome {
        node: node.into(),
        limit: Bytes::mib(limit_mib),
        hint: Bytes::mib(limit_mib + 66),
        used_by_pid: BTreeMap::new(),
    };
    BTreeMap::from([
        (ContainerId(1), home("n0", 400)),
        (ContainerId(2), home("n1", 256)),
        (ContainerId(3), home("n0", 128)),
    ])
}

#[test]
fn truncated_tail_fixture_recovers_the_frozen_map() {
    let fixtures = fixture_dir();
    // Recovery truncates the torn tail in place, so work on a copy —
    // the checked-in fixture must never be modified by a test run.
    let scratch = temp_dir("fixture").join("copy");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixtures.join(file), scratch.join(file))
            .unwrap_or_else(|e| panic!("fixture {file} missing ({e})"));
    }
    let (_journal, _wal, recovery) =
        Journal::open(JournalConfig::new(&scratch)).expect("recovery must not error");
    assert!(recovery.torn_tail, "the fixture tail must register as torn");
    assert!(!recovery.corrupt_snapshot);
    assert_eq!(
        recovery.snapshot_homes, 2,
        "phase one lives in the snapshot"
    );
    assert_eq!(recovery.replayed, 2, "phase two lives in the WAL");
    assert_eq!(
        recovery.homes,
        fixture_expected(),
        "the frozen on-disk format no longer recovers the frozen map"
    );
}

// ---------------------------------------------------------------------
// The idle ticker: a quiescent router's buffered records still land.
// ---------------------------------------------------------------------

/// With a sim-clock flush interval that will never come due and no
/// further traffic, the wall-clock idle flusher must still drain the
/// buffered record within a tick or two — before the fix, a quiescent
/// router kept its buffered tail in memory indefinitely and `kill -9`
/// lost it no matter how much time had passed.
#[test]
fn idle_flusher_drains_a_quiescent_router() {
    let dir = temp_dir("idle");
    let _ = std::fs::remove_dir_all(&dir);
    let ndir = dir.join("n0");
    std::fs::create_dir_all(&ndir).unwrap();
    let vclock = VirtualClock::new();
    let node = NodeServer::serve_endpoint(
        "n0",
        backend(1024),
        vclock.handle(),
        ndir.clone(),
        &EndpointAddr::from(ndir.join("node.sock")),
    )
    .unwrap();
    let jdir = dir.join("journal");
    let jcfg = JournalConfig {
        // Never due on the (virtual, never advanced) sim cadence, and
        // never compacted on count: only the idle ticker can move the
        // buffered record into the file.
        flush_interval: SimDuration::from_millis(3_600_000),
        snapshot_every: 0,
        idle_flush: Duration::from_millis(10),
        ..JournalConfig::new(&jdir)
    };
    let router = ClusterRouter::attach_with_journal(
        vec![("n0".to_string(), node.endpoint().clone())],
        WireCodec::Json,
        RouterConfig::default(),
        vclock.handle(),
        jcfg,
    )
    .unwrap();
    router.register(ContainerId(1), Bytes::mib(100)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let wal = std::fs::read(jdir.join(WAL_FILE)).unwrap_or_default();
        if !wal.is_empty() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "idle flusher never drained the buffered record"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(router);
    node.shutdown();
}
