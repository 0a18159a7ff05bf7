//! Durability battery for the router's write-ahead home-map journal.
//!
//! Five properties the journal must hold (`docs/CLUSTER.md`,
//! "Durability & restart"):
//!
//! * **Kill mid-storm, restart, migrate** — a real `cluster route
//!   --journal` process is `SIGKILL`ed under concurrent wire load, a
//!   second process reopens the same journal, and when the home node
//!   then dies the migration carries the **pre-restart** `limit` and
//!   wire-observed `used` checkpoint onto the adopter's books — the
//!   exact scenario that used to replay zeros.
//! * **Replay equivalence** — the journal of *any* byte prefix of a
//!   live router's operations replays to a home map the router actually
//!   held (after the corresponding prefix of mutations), and a torn cut
//!   never panics recovery.
//! * **Fault campaign** — the same equivalence under randomized kill
//!   points and op schedules; `CONVGPU_JOURNAL_FAULT_ITERS` scales the
//!   iteration budget (nightly runs it wide).
//! * **Frozen on-disk format** — the checked-in fixture at
//!   `tests/fixtures/journal/` (snapshot + log + deliberately torn
//!   tail) must keep recovering to the same hardcoded home map.
//!   Re-bless with `UPDATE_GOLDEN=1 cargo test --test journal_recovery`.
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
use convgpu::sim::clock::VirtualClock;
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
// Kill the router mid-storm, restart it from its journal, migrate.
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

/// The acceptance scenario from ISSUE 10: the checkpoint a `SIGKILL`ed
/// router journaled must, after restart, travel with a dead node's
/// container onto the adopter — pre-restart limit, wire-observed used.
#[test]
fn router_killed_mid_storm_recovers_checkpoints_and_migrates() {
    let dir = temp_dir("storm");
    let jdir = dir.join("journal");
    let _ = std::fs::remove_dir_all(&jdir);
    let (n0, ep0) = spawn_node(&test_endpoint(&dir, "n0.sock"), "n0", 4096);
    let (n1, ep1) = spawn_node(&test_endpoint(&dir, "n1.sock"), "n1", 4096);
    let nodes = vec![("n0".to_string(), ep0), ("n1".to_string(), ep1)];
    let (r1, rep1) = spawn_router(&test_endpoint(&dir, "router.sock"), &nodes, &jdir);
    let client = connect(&rep1);

    // The checkpoint under test: container 1 registers 400 MiB on n0,
    // pid 7 confirms 200 + 100 MiB and frees the 200 — the router's
    // wire-observed ledger ends at 100 MiB.
    for (c, limit) in [(1u64, 400u64), (2, 128), (3, 128), (4, 128), (5, 128)] {
        client
            .request(Request::Register {
                container: ContainerId(c),
                limit: Bytes::mib(limit),
            })
            .unwrap();
    }
    match client
        .request(Request::QueryHome {
            container: ContainerId(1),
        })
        .unwrap()
    {
        Response::Home { node, .. } => assert_eq!(node, "n0", "Spread places container 1 first"),
        other => panic!("unexpected query_home answer: {other:?}"),
    }
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

    // Storm: four concurrent wire clients hammer containers 2–5 while
    // the router keeps journaling, then the router is SIGKILLed mid-run
    // — no graceful flush, exactly a crash. The checkpoint records above
    // are comfortably past the 25 ms flush cadence by then.
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
                        let _ = client.request(Request::AllocDone {
                            container: ContainerId(c),
                            pid,
                            addr,
                            size: Bytes::mib(32),
                        });
                        let _ = client.request(Request::Free {
                            container: ContainerId(c),
                            pid,
                            addr,
                        });
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

    // Restart the router from the same journal, then kill the home node
    // and drive the drain with rejected allocations.
    let (r2, rep2) = spawn_router(&test_endpoint(&dir, "router2.sock"), &nodes, &jdir);
    let client2 = connect(&rep2);
    kill(n0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let record = loop {
        let records = match client2.request(Request::QueryMigrations).unwrap() {
            Response::Migrations { records } => records,
            other => panic!("unexpected migrations answer: {other:?}"),
        };
        if let Some(r) = records
            .iter()
            .find(|r| r.container == ContainerId(1) && r.status == "completed")
        {
            break r.clone();
        }
        assert!(
            Instant::now() < deadline,
            "container 1 never migrated off the dead node: {records:?}"
        );
        let _ = wire_alloc(&client2, 1, 7, 10);
        std::thread::sleep(Duration::from_millis(20));
    };

    // The acceptance criterion: the migration carried the PRE-restart
    // checkpoint, not the zeros a journal-less restart re-learns.
    assert_eq!(record.to, "n1");
    assert_eq!(
        record.limit,
        Bytes::mib(400),
        "pre-restart limit lost: {record:?}"
    );
    assert_eq!(
        record.used,
        Bytes::mib(100),
        "wire-observed used lost: {record:?}"
    );

    // Behavioral proof on the adopting node's books: with used = 100 and
    // the 66 MiB context for a fresh pid, 350 MiB exceeds the 400 + 66
    // budget (rejected) while 250 MiB fits (granted). Had the adoption
    // started from zero, both would have been granted.
    assert_eq!(wire_alloc(&client2, 1, 9, 350), AllocDecision::Rejected);
    assert_eq!(wire_alloc(&client2, 1, 9, 250), AllocDecision::Granted);

    kill(r2);
    kill(n1);
}

// ---------------------------------------------------------------------
// Replay equivalence: any journal prefix is a state the router held.
// ---------------------------------------------------------------------

/// Drive `ops` deterministic pseudo-random home-map mutations through a
/// journaled in-process two-node router (flush-per-append, virtual
/// clock); returns the final WAL bytes and the homes snapshot after
/// every journaled mutation (`states[0]` is the empty map — record `k`
/// of the WAL moves the map from `states[k]` to `states[k + 1]`).
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

    let mut rng = DetRng::seed_from_u64(seed);
    let mut states = vec![router.homes_snapshot()];
    let mut next_c = 1u64;
    let mut next_addr = 0x1000u64;
    // Live containers: id → outstanding (pid, addr, size) allocations.
    type Allocs = Vec<(u64, u64, Bytes)>;
    let mut live: Vec<(u64, Allocs)> = Vec::new();
    for _ in 0..ops {
        match rng.next_below(8) {
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
            }
            // Confirmed allocation: request + done, sized well below the
            // limit so it is granted, never parked (a suspended reply
            // would block this single-threaded script).
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
                ClusterRouter::alloc_done(&router, ContainerId(*c), pid, addr, size).unwrap();
                allocs.push((pid, addr, size));
            }
            // Free one outstanding allocation.
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
            }
            // A pid exits: its ledger entry (and our tracking) go away.
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
            }
            // Close a container outright.
            _ => {
                if live.is_empty() {
                    continue;
                }
                let i = rng.index(live.len());
                let c = live.remove(i).0;
                ClusterRouter::container_close(&router, ContainerId(c)).unwrap();
            }
        }
        states.push(router.homes_snapshot());
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
    let (wal, states) = scripted_run("prefix", 0xD15C0, 48);
    assert!(
        states.len() > 24,
        "the script must journal a useful number of mutations"
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
        let (wal, states) = scripted_run("campaign", seed, 64);
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

/// The fixed two-phase scenario behind the fixture. Phase one journals
/// six mutations; reopening compacts them into `snapshot.v1` (the
/// startup recompaction) and phase two appends two more records to the
/// fresh WAL. The torn tail is added by the blesser on top.
fn fixture_scenario(dir: &Path) -> BTreeMap<ContainerId, RecoveredHome> {
    let _ = std::fs::remove_dir_all(dir);
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
    let endpoints: Vec<(String, EndpointAddr)> = nodes
        .iter()
        .map(|n| (n.name().to_string(), n.endpoint().clone()))
        .collect();
    let jdir = dir.join("journal");
    let jcfg = JournalConfig {
        flush_interval: SimDuration::ZERO,
        ..JournalConfig::new(&jdir)
    };
    let attach = |jcfg: JournalConfig| {
        ClusterRouter::attach_with_journal(
            endpoints.clone(),
            WireCodec::Json,
            RouterConfig::default(),
            vclock.handle(),
            jcfg,
        )
        .unwrap()
    };
    // Phase one: place two containers, build container 1's ledger.
    let first = attach(jcfg.clone());
    first.register(ContainerId(1), Bytes::mib(400)).unwrap();
    assert_eq!(
        first
            .request_alloc(ContainerId(1), 7, Bytes::mib(200), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    ClusterRouter::alloc_done(&first, ContainerId(1), 7, 0xA0, Bytes::mib(200)).unwrap();
    first.register(ContainerId(2), Bytes::mib(256)).unwrap();
    assert_eq!(
        first
            .request_alloc(ContainerId(1), 7, Bytes::mib(100), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    ClusterRouter::alloc_done(&first, ContainerId(1), 7, 0xA1, Bytes::mib(100)).unwrap();
    assert_eq!(
        ClusterRouter::free(&first, ContainerId(1), 7, 0xA0).unwrap(),
        Bytes::mib(200)
    );
    assert_eq!(
        first
            .request_alloc(ContainerId(2), 9, Bytes::mib(64), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    ClusterRouter::alloc_done(&first, ContainerId(2), 9, 0xB0, Bytes::mib(64)).unwrap();
    drop(first);
    // Phase two: reopen (compacts phase one into the snapshot), then
    // journal a placement and a ledger delta into the fresh WAL.
    let second = attach(jcfg);
    second.register(ContainerId(3), Bytes::mib(128)).unwrap();
    assert_eq!(
        second
            .request_alloc(ContainerId(3), 3, Bytes::mib(32), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    ClusterRouter::alloc_done(&second, ContainerId(3), 3, 0xC0, Bytes::mib(32)).unwrap();
    second.journal_flush();
    let expected = second.homes_snapshot();
    drop(second);
    for n in nodes {
        n.shutdown();
    }
    expected
}

/// What the fixture must recover to, written out long-hand so the test
/// fails loudly if either the format or the replay semantics drift.
fn fixture_expected() -> BTreeMap<ContainerId, RecoveredHome> {
    let hint = |limit_mib: u64| Bytes::mib(limit_mib + 66);
    let mut homes = BTreeMap::new();
    homes.insert(
        ContainerId(1),
        RecoveredHome {
            node: "n0".into(),
            limit: Bytes::mib(400),
            hint: hint(400),
            used_by_pid: [(7u64, Bytes::mib(100))].into_iter().collect(),
        },
    );
    homes.insert(
        ContainerId(2),
        RecoveredHome {
            node: "n1".into(),
            limit: Bytes::mib(256),
            hint: hint(256),
            used_by_pid: [(9u64, Bytes::mib(64))].into_iter().collect(),
        },
    );
    homes.insert(
        ContainerId(3),
        RecoveredHome {
            node: "n0".into(),
            limit: Bytes::mib(128),
            hint: hint(128),
            used_by_pid: [(3u64, Bytes::mib(32))].into_iter().collect(),
        },
    );
    homes
}

#[test]
fn truncated_tail_fixture_recovers_the_frozen_map() {
    let fixtures = fixture_dir();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        let work = temp_dir("fixture-bless");
        let expected = fixture_scenario(&work);
        assert_eq!(
            expected,
            fixture_expected(),
            "fixture_expected() is out of date with the scenario"
        );
        let jdir = work.join("journal");
        let mut wal = std::fs::read(jdir.join(WAL_FILE)).unwrap();
        // The torn tail: a record with a wrong checksum (a line the
        // crash corrupted) followed by half a record with no newline.
        wal.extend_from_slice(b"00000000000000ff 0000000000000000 free 9 9 1048576\n");
        wal.extend_from_slice(b"0000000000000100 12ab");
        std::fs::create_dir_all(&fixtures).unwrap();
        std::fs::write(fixtures.join(WAL_FILE), wal).unwrap();
        std::fs::copy(jdir.join(SNAPSHOT_FILE), fixtures.join(SNAPSHOT_FILE)).unwrap();
        return;
    }
    // Recovery truncates the torn tail in place, so work on a copy —
    // the checked-in fixture must never be modified by a test run.
    let scratch = temp_dir("fixture").join("copy");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    for file in [WAL_FILE, SNAPSHOT_FILE] {
        std::fs::copy(fixtures.join(file), scratch.join(file)).unwrap_or_else(|e| {
            panic!(
                "fixture {file} missing ({e}); bless with \
                 UPDATE_GOLDEN=1 cargo test --test journal_recovery"
            )
        });
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
