//! Cluster-grade acceptance battery for the routed two-node topology.
//!
//! Six properties the distributed mode must hold:
//!
//! * **Golden routed trace** — a fixed two-node scenario produces, on
//!   node 0's span ring, exactly the tree checked in at
//!   `tests/golden/cluster_two_node_routed.trace` (canonicalized — ids
//!   and absolute times do not matter). Re-bless with
//!   `UPDATE_GOLDEN=1 cargo test --test cluster_router`.
//! * **Node locality** — node 0's trace under the router is
//!   *bit-for-bit* the trace a standalone single-device daemon emits
//!   for the same sub-workload: routing adds no scheduler-visible
//!   behavior to a healthy node.
//! * **Ticket canonicality** — the in-process cluster scheduler's
//!   node-0 tickets equal the plain single-device scheduler's tickets
//!   bit for bit (the node tag at bit [`NODE_TICKET_SHIFT`] is zero for
//!   node 0), and node-1 tickets carry tag 1.
//! * **Migrated-ticket canonicality** — after a container migrates, its
//!   suspension tickets carry the *adoptive* node's tag and the adoptive
//!   node's own canonical sequence numbers, bit for bit.
//! * **Golden migration trace** — a scripted drain produces, on the
//!   adoptive node's span ring, exactly the tree checked in at
//!   `tests/golden/cluster_migration_routed.trace`: the migrated
//!   container's post-move lifecycle is indistinguishable from a native
//!   registration.
//! * **Lifecycle under fire** — real node *processes* on both codecs:
//!   concurrent full lifecycles complete with zero hung clients when
//!   one node is killed mid-run, failovers are observable through
//!   `query_metrics` and `query_cluster`, and new registrations land on
//!   the surviving node.
//!
//! Everything here runs with the router's write-ahead journal *off*:
//! these goldens and ticket bit-equalities double as the proof that the
//! journal is opt-in and invisible when disabled. The durability half
//! (kill -9 the router, replay the journal, migrate with pre-restart
//! checkpoints) lives in `tests/journal_recovery.rs`.

use convgpu::ipc::binary::WireCodec;
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::endpoint::{IpcResult, SchedulerEndpoint};
use convgpu::ipc::message::{AllocDecision, ApiKind, Request, Response};
use convgpu::ipc::transport::EndpointAddr;
use convgpu::middleware::router::{ClusterRouter, NodeServer, RouterConfig};
use convgpu::middleware::NodeHealth;
use convgpu::obs::render_canonical;
use convgpu::scheduler::backend::{SchedulerBackend, TopologyBackend};
use convgpu::scheduler::cluster::{
    ClusterNode, ClusterScheduler, SwarmStrategy, NODE_TICKET_SHIFT,
};
use convgpu::scheduler::core::{AllocOutcome, Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::{RealClock, VirtualClock};
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::{SimDuration, SimTime};
use convgpu::sim::units::Bytes;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODE_CAP_MIB: u64 = 1000;
const POLICY_SEED: u64 = 7;

fn ms(t: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(t)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "convgpu-itest-cluster-{}-{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The live-socket suites run as a transport matrix:
/// `CONVGPU_TRANSPORT=tcp` swaps every bound socket for a TCP loopback
/// listener on a kernel-assigned port; anything else (or unset) keeps
/// the original UNIX path. The golden traces and ticket assertions are
/// transport-blind, so both legs check against the same files.
fn test_endpoint(dir: &Path, name: &str) -> EndpointAddr {
    match std::env::var("CONVGPU_TRANSPORT").as_deref() {
        Ok("tcp") => EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
        _ => EndpointAddr::from(dir.join(name)),
    }
}

fn fifo_single_backend() -> TopologyBackend {
    TopologyBackend::Single(Scheduler::new(
        SchedulerConfig::with_capacity(Bytes::mib(NODE_CAP_MIB)),
        PolicyKind::Fifo.build(POLICY_SEED),
    ))
}

/// The fixed two-node workload. `node` is where Spread must place each
/// container (asserted), and the mirror run filters on it.
enum Op {
    Register {
        c: u64,
        limit_mib: u64,
    },
    Alloc {
        c: u64,
        pid: u64,
        mib: u64,
        addr: u64,
    },
    Free {
        c: u64,
        pid: u64,
        addr: u64,
    },
    Exit {
        c: u64,
        pid: u64,
    },
    Close {
        c: u64,
    },
}

fn script() -> Vec<(u64, usize, Op)> {
    vec![
        (
            1,
            0,
            Op::Register {
                c: 1,
                limit_mib: 400,
            },
        ),
        (
            2,
            1,
            Op::Register {
                c: 2,
                limit_mib: 400,
            },
        ),
        (
            3,
            0,
            Op::Register {
                c: 3,
                limit_mib: 400,
            },
        ),
        (
            4,
            1,
            Op::Register {
                c: 4,
                limit_mib: 400,
            },
        ),
        (
            5,
            0,
            Op::Alloc {
                c: 1,
                pid: 101,
                mib: 300,
                addr: 0xA1,
            },
        ),
        (
            6,
            1,
            Op::Alloc {
                c: 2,
                pid: 201,
                mib: 300,
                addr: 0xA2,
            },
        ),
        (
            7,
            0,
            Op::Alloc {
                c: 3,
                pid: 301,
                mib: 300,
                addr: 0xA3,
            },
        ),
        (
            8,
            1,
            Op::Alloc {
                c: 4,
                pid: 401,
                mib: 300,
                addr: 0xA4,
            },
        ),
        (
            9,
            0,
            Op::Free {
                c: 1,
                pid: 101,
                addr: 0xA1,
            },
        ),
        (10, 0, Op::Exit { c: 1, pid: 101 }),
        (11, 0, Op::Close { c: 1 }),
        (
            12,
            1,
            Op::Free {
                c: 2,
                pid: 201,
                addr: 0xA2,
            },
        ),
        (13, 1, Op::Exit { c: 2, pid: 201 }),
        (14, 1, Op::Close { c: 2 }),
        (
            15,
            0,
            Op::Free {
                c: 3,
                pid: 301,
                addr: 0xA3,
            },
        ),
        (16, 0, Op::Exit { c: 3, pid: 301 }),
        (17, 0, Op::Close { c: 3 }),
        (
            18,
            1,
            Op::Free {
                c: 4,
                pid: 401,
                addr: 0xA4,
            },
        ),
        (19, 1, Op::Exit { c: 4, pid: 401 }),
        (20, 1, Op::Close { c: 4 }),
    ]
}

/// Run the scripted workload through a real two-node routed cluster
/// (in-process node servers on real UNIX sockets, shared virtual clock)
/// and return node 0's canonical span trace.
fn routed_node0_canonical(tag: &str) -> String {
    let dir = temp_dir(tag);
    let vclock = VirtualClock::new();
    let mut nodes = Vec::new();
    for i in 0..2usize {
        let node_dir = dir.join(format!("n{i}"));
        std::fs::create_dir_all(&node_dir).unwrap();
        nodes.push(
            NodeServer::serve_endpoint(
                format!("n{i}"),
                fifo_single_backend(),
                vclock.handle(),
                node_dir.clone(),
                &test_endpoint(&node_dir, "node.sock"),
            )
            .unwrap(),
        );
    }
    let endpoints: Vec<(String, EndpointAddr)> = nodes
        .iter()
        .map(|n| (n.name().to_string(), n.endpoint().clone()))
        .collect();
    let router = Arc::new(ClusterRouter::attach(
        endpoints,
        WireCodec::Json,
        RouterConfig::default(),
        RealClock::handle(),
    ));
    for (t, node, op) in script() {
        vclock.advance_to(ms(t));
        match op {
            Op::Register { c, limit_mib } => {
                let placed = router
                    .register(ContainerId(c), Bytes::mib(limit_mib))
                    .unwrap();
                assert_eq!(
                    placed,
                    format!("n{node}"),
                    "Spread placement for container {c}"
                );
            }
            Op::Alloc { c, pid, mib, addr } => {
                let decision = router
                    .request_alloc(ContainerId(c), pid, Bytes::mib(mib), ApiKind::Malloc)
                    .unwrap();
                assert_eq!(decision, AllocDecision::Granted);
                router
                    .alloc_done(ContainerId(c), pid, addr, Bytes::mib(mib))
                    .unwrap();
            }
            Op::Free { c, pid, addr } => {
                let freed = router.free(ContainerId(c), pid, addr).unwrap();
                assert_eq!(freed, Bytes::mib(300));
            }
            Op::Exit { c, pid } => router.process_exit(ContainerId(c), pid).unwrap(),
            Op::Close { c } => router.container_close(ContainerId(c)).unwrap(),
        }
    }
    let canon = render_canonical(&nodes[0].service().obs().ring.snapshot());
    for n in nodes {
        n.shutdown();
    }
    canon
}

/// Drive a standalone single-device daemon over the wire with exactly
/// the node-0 slice of the script (including the `query_topology` probe
/// the router's capability discovery sends before the first register)
/// and return its canonical trace.
fn standalone_node0_canonical(tag: &str) -> String {
    let dir = temp_dir(tag);
    let vclock = VirtualClock::new();
    let node = NodeServer::serve_endpoint(
        "solo",
        fifo_single_backend(),
        vclock.handle(),
        dir.clone(),
        &test_endpoint(&dir, "node.sock"),
    )
    .unwrap();
    let client =
        SchedulerClient::connect_endpoint_with_codec(node.endpoint(), WireCodec::Json, None)
            .unwrap();
    let mut probed = false;
    for (t, node_idx, op) in script() {
        if node_idx != 0 {
            continue;
        }
        vclock.advance_to(ms(t));
        if !probed {
            // The router probes capabilities before its first register.
            let resp = client.request(Request::QueryTopology).unwrap();
            assert!(matches!(resp, Response::Topology { .. }));
            probed = true;
        }
        let resp = match op {
            Op::Register { c, limit_mib } => client.request(Request::Register {
                container: ContainerId(c),
                limit: Bytes::mib(limit_mib),
            }),
            Op::Alloc { c, pid, mib, addr } => {
                let r = client
                    .request(Request::AllocRequest {
                        container: ContainerId(c),
                        pid,
                        size: Bytes::mib(mib),
                        api: ApiKind::Malloc,
                    })
                    .unwrap();
                assert!(matches!(
                    r,
                    Response::Alloc {
                        decision: AllocDecision::Granted
                    }
                ));
                client.request(Request::AllocDone {
                    container: ContainerId(c),
                    pid,
                    addr,
                    size: Bytes::mib(mib),
                })
            }
            Op::Free { c, pid, addr } => client.request(Request::Free {
                container: ContainerId(c),
                pid,
                addr,
            }),
            Op::Exit { c, pid } => client.request(Request::ProcessExit {
                container: ContainerId(c),
                pid,
            }),
            Op::Close { c } => client.request(Request::ContainerClose {
                container: ContainerId(c),
            }),
        };
        resp.unwrap();
    }
    let canon = render_canonical(&node.service().obs().ring.snapshot());
    node.shutdown();
    canon
}

#[test]
fn routed_two_node_golden_trace() {
    let got = routed_node0_canonical("golden");
    // Node 0 hosts containers 1 and 3; container 2 and 4 must never
    // appear in its trace.
    assert!(got.contains("cnt-0001"), "node 0 trace:\n{got}");
    assert!(got.contains("cnt-0003"), "node 0 trace:\n{got}");
    assert!(!got.contains("cnt-0002"), "cross-node leak:\n{got}");
    assert!(!got.contains("cnt-0004"), "cross-node leak:\n{got}");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/cluster_two_node_routed.trace"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden missing; bless with UPDATE_GOLDEN=1 cargo test --test cluster_router");
    assert_eq!(got, want, "routed cluster trace drifted from golden");
}

#[test]
fn node0_trace_matches_standalone_single_device_daemon() {
    let routed = routed_node0_canonical("locality-routed");
    let solo = standalone_node0_canonical("locality-solo");
    assert_eq!(
        routed, solo,
        "routing must add no scheduler-visible behavior on a healthy node"
    );
}

#[test]
fn node0_tickets_bit_identical_to_single_device() {
    let cap = Bytes::mib(NODE_CAP_MIB);
    let mk_node = |name: &str| {
        ClusterNode::with_config(
            name,
            SchedulerConfig::with_capacity(cap),
            &[cap],
            PolicyKind::Fifo,
            POLICY_SEED,
        )
    };
    let mut cluster = ClusterScheduler::new(
        vec![mk_node("n0"), mk_node("n1")],
        SwarmStrategy::Spread,
        42,
    );
    let mut single = Scheduler::new(
        SchedulerConfig::with_capacity(cap),
        PolicyKind::Fifo.build(POLICY_SEED),
    );
    let (c1, c2, c3, c4) = (
        ContainerId(1),
        ContainerId(2),
        ContainerId(3),
        ContainerId(4),
    );

    assert_eq!(cluster.register(c1, Bytes::mib(800), ms(1)).unwrap(), 0);
    single.register(c1, Bytes::mib(800), ms(1)).unwrap();
    assert_eq!(cluster.register(c2, Bytes::mib(800), ms(2)).unwrap(), 1);
    assert_eq!(cluster.register(c3, Bytes::mib(800), ms(3)).unwrap(), 0);
    single.register(c3, Bytes::mib(800), ms(3)).unwrap();
    assert_eq!(cluster.register(c4, Bytes::mib(800), ms(4)).unwrap(), 1);

    // First allocation on each node fits; the second suspends.
    let (out_c, _) = cluster
        .alloc_request(c1, 11, Bytes::mib(700), ApiKind::Malloc, ms(5))
        .unwrap();
    let (out_s, _) = single
        .alloc_request(c1, 11, Bytes::mib(700), ApiKind::Malloc, ms(5))
        .unwrap();
    assert_eq!(out_c, AllocOutcome::Granted);
    assert_eq!(out_c, out_s);
    cluster
        .alloc_done(c1, 11, 0xA, Bytes::mib(700), ms(5))
        .unwrap();
    single
        .alloc_done(c1, 11, 0xA, Bytes::mib(700), ms(5))
        .unwrap();

    let (out_c, _) = cluster
        .alloc_request(c3, 33, Bytes::mib(700), ApiKind::Malloc, ms(6))
        .unwrap();
    let (out_s, _) = single
        .alloc_request(c3, 33, Bytes::mib(700), ApiKind::Malloc, ms(6))
        .unwrap();
    let node0_ticket = match (out_c, out_s) {
        (AllocOutcome::Suspended { ticket: tc }, AllocOutcome::Suspended { ticket: ts }) => {
            assert_eq!(
                tc, ts,
                "node-0 ticket must be bit-identical to single-device"
            );
            assert_eq!(tc >> NODE_TICKET_SHIFT, 0, "node 0 carries tag 0");
            tc
        }
        other => panic!("expected suspensions on both schedulers, got {other:?}"),
    };

    // The same pressure on node 1 yields the same sequence number but
    // the node tag in the top byte.
    let (out, _) = cluster
        .alloc_request(c2, 22, Bytes::mib(700), ApiKind::Malloc, ms(7))
        .unwrap();
    assert_eq!(out, AllocOutcome::Granted);
    cluster
        .alloc_done(c2, 22, 0xB, Bytes::mib(700), ms(7))
        .unwrap();
    let (out, _) = cluster
        .alloc_request(c4, 44, Bytes::mib(700), ApiKind::Malloc, ms(8))
        .unwrap();
    match out {
        AllocOutcome::Suspended { ticket } => {
            assert_eq!(ticket >> NODE_TICKET_SHIFT, 1, "node 1 carries tag 1");
            assert_eq!(
                ticket & ((1u64 << NODE_TICKET_SHIFT) - 1),
                node0_ticket,
                "per-node ticket sequences are independent and identical"
            );
        }
        other => panic!("expected a suspension on node 1, got {other:?}"),
    }

    // Closing the granted container resumes the parked one with the
    // same ticket and decision on both schedulers.
    let actions_c = cluster.container_close(c1, ms(9)).unwrap();
    let actions_s = single.container_close(c1, ms(9)).unwrap();
    assert_eq!(
        actions_c, actions_s,
        "resume actions must match bit for bit"
    );
    assert_eq!(actions_c.len(), 1);
    assert_eq!(actions_c[0].ticket, node0_ticket);
}

/// After a migration, the container's suspension tickets must be
/// canonical on the *adoptive* node: node tag from the new home, low
/// bits from the new node's own sequence — bit-identical to what a
/// plain single-device scheduler issues for the same sub-workload.
#[test]
fn migrated_container_tickets_carry_adoptive_node_tag() {
    let cap = Bytes::mib(NODE_CAP_MIB);
    let mk_node = |name: &str| {
        ClusterNode::with_config(
            name,
            SchedulerConfig::with_capacity(cap),
            &[cap],
            PolicyKind::Fifo,
            POLICY_SEED,
        )
    };
    let mut cluster = ClusterScheduler::new(
        vec![mk_node("n0"), mk_node("n1")],
        SwarmStrategy::Spread,
        42,
    );
    // The single-device mirror of node 1's eventual workload: c2 native,
    // c1 arriving later (the migration is, to the adoptive scheduler, a
    // plain admission with carried budget — zero here, c1 is idle).
    let mut single = Scheduler::new(
        SchedulerConfig::with_capacity(cap),
        PolicyKind::Fifo.build(POLICY_SEED),
    );
    let (c1, c2) = (ContainerId(1), ContainerId(2));

    assert_eq!(cluster.register(c1, Bytes::mib(800), ms(1)).unwrap(), 0);
    assert_eq!(cluster.register(c2, Bytes::mib(800), ms(2)).unwrap(), 1);
    single.register(c2, Bytes::mib(800), ms(2)).unwrap();

    // Pressure on node 1 before the migration.
    let (out, _) = cluster
        .alloc_request(c2, 22, Bytes::mib(700), ApiKind::Malloc, ms(3))
        .unwrap();
    assert_eq!(out, AllocOutcome::Granted);
    cluster
        .alloc_done(c2, 22, 0xB, Bytes::mib(700), ms(3))
        .unwrap();
    let (out, _) = single
        .alloc_request(c2, 22, Bytes::mib(700), ApiKind::Malloc, ms(3))
        .unwrap();
    assert_eq!(out, AllocOutcome::Granted);
    single
        .alloc_done(c2, 22, 0xB, Bytes::mib(700), ms(3))
        .unwrap();

    // Node 0 dies; c1 (idle, so zero carried budget) re-homes on node 1.
    let (moves, actions) = cluster.migrate_node(0, ms(4));
    assert_eq!(moves.len(), 1);
    assert_eq!(moves[0].container, c1);
    assert_eq!(moves[0].to, Some(1), "c1 must adopt onto node 1: {moves:?}");
    assert!(actions.is_empty(), "idle source close resumes nothing");
    single.register(c1, Bytes::mib(800), ms(4)).unwrap();

    // The migrated container's first suspension: adoptive node tag in
    // the top byte, the adoptive node's own sequence in the low bits.
    let (out_c, _) = cluster
        .alloc_request(c1, 11, Bytes::mib(700), ApiKind::Malloc, ms(5))
        .unwrap();
    let (out_s, _) = single
        .alloc_request(c1, 11, Bytes::mib(700), ApiKind::Malloc, ms(5))
        .unwrap();
    match (out_c, out_s) {
        (AllocOutcome::Suspended { ticket: tc }, AllocOutcome::Suspended { ticket: ts }) => {
            assert_eq!(tc >> NODE_TICKET_SHIFT, 1, "post-move tickets carry tag 1");
            assert_eq!(
                tc & ((1u64 << NODE_TICKET_SHIFT) - 1),
                ts,
                "post-move ticket sequence must be the adoptive node's own"
            );
        }
        other => panic!("expected suspensions on both schedulers, got {other:?}"),
    }

    // Resume parity: freeing c2's budget resumes c1 with the same
    // (untagged) action on both schedulers.
    let actions_c = cluster.container_close(c2, ms(6)).unwrap();
    let actions_s = single.container_close(c2, ms(6)).unwrap();
    assert_eq!(actions_c.len(), 1);
    assert_eq!(actions_s.len(), 1);
    assert_eq!(actions_c[0].ticket >> NODE_TICKET_SHIFT, 1);
    assert_eq!(
        actions_c[0].ticket & ((1u64 << NODE_TICKET_SHIFT) - 1),
        actions_s[0].ticket,
        "resume actions must match the adoptive node bit for bit"
    );
}

/// A scripted drain through the real routed stack: after `rebalance`
/// moves container 1 off node 0, its post-move lifecycle on node 1
/// must leave exactly the span tree checked in at
/// `tests/golden/cluster_migration_routed.trace` — indistinguishable
/// from a natively registered container. Re-bless with
/// `UPDATE_GOLDEN=1 cargo test --test cluster_router`.
#[test]
fn routed_migration_golden_trace() {
    let dir = temp_dir("migration-golden");
    let vclock = VirtualClock::new();
    let mut nodes = Vec::new();
    for i in 0..2usize {
        let node_dir = dir.join(format!("n{i}"));
        std::fs::create_dir_all(&node_dir).unwrap();
        nodes.push(
            NodeServer::serve_endpoint(
                format!("n{i}"),
                fifo_single_backend(),
                vclock.handle(),
                node_dir.clone(),
                &test_endpoint(&node_dir, "node.sock"),
            )
            .unwrap(),
        );
    }
    let endpoints: Vec<(String, EndpointAddr)> = nodes
        .iter()
        .map(|n| (n.name().to_string(), n.endpoint().clone()))
        .collect();
    let router = Arc::new(ClusterRouter::attach(
        endpoints,
        WireCodec::Json,
        RouterConfig::default(),
        RealClock::handle(),
    ));

    vclock.advance_to(ms(1));
    assert_eq!(
        router.register(ContainerId(1), Bytes::mib(400)).unwrap(),
        "n0"
    );
    vclock.advance_to(ms(2));
    assert_eq!(
        router.register(ContainerId(2), Bytes::mib(400)).unwrap(),
        "n1"
    );
    // A live allocation on the node about to drain. The source is alive,
    // so its acknowledged close really frees these bytes before the
    // move — the adoption starts from used = 0 (only a *degraded* close,
    // where the source is dead and nothing was freed, carries the
    // wire-observed used budget over).
    vclock.advance_to(ms(3));
    assert_eq!(
        router
            .request_alloc(ContainerId(1), 101, Bytes::mib(300), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    router
        .alloc_done(ContainerId(1), 101, 0xA1, Bytes::mib(300))
        .unwrap();

    vclock.advance_to(ms(4));
    let records = router.rebalance("n0").unwrap();
    assert_eq!(records.len(), 1, "{records:?}");
    assert_eq!(records[0].status, "completed");
    assert_eq!(records[0].to, "n1");
    assert_eq!(
        records[0].used,
        Bytes::ZERO,
        "a live-source drain must not carry used budget"
    );

    // The migrated container's full post-move lifecycle, all on node 1.
    vclock.advance_to(ms(5));
    assert_eq!(
        router
            .request_alloc(ContainerId(1), 102, Bytes::mib(300), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    router
        .alloc_done(ContainerId(1), 102, 0xB1, Bytes::mib(300))
        .unwrap();
    vclock.advance_to(ms(6));
    assert_eq!(
        router.free(ContainerId(1), 102, 0xB1).unwrap(),
        Bytes::mib(300)
    );
    vclock.advance_to(ms(7));
    router.process_exit(ContainerId(1), 102).unwrap();
    vclock.advance_to(ms(8));
    router.container_close(ContainerId(1)).unwrap();
    vclock.advance_to(ms(9));
    router.container_close(ContainerId(2)).unwrap();

    let got = render_canonical(&nodes[1].service().obs().ring.snapshot());
    for n in nodes {
        n.shutdown();
    }
    // Both the native container and the migrant appear on the adoptive
    // node; the migrant's pre-move allocation must not follow it.
    assert!(got.contains("cnt-0001"), "adoptive node trace:\n{got}");
    assert!(got.contains("cnt-0002"), "adoptive node trace:\n{got}");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/cluster_migration_routed.trace"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden missing; bless with UPDATE_GOLDEN=1 cargo test --test cluster_router");
    assert_eq!(got, want, "migration trace drifted from golden");
}

// ---------------------------------------------------------------------
// Lifecycle under fire: real node processes, both codecs.
// ---------------------------------------------------------------------

/// Spawn a real `convgpu-cli cluster serve-node` process on `endpoint`
/// and return it with the endpoint it actually bound. The ready line on
/// the child's stdout is the synchronization point for both transports,
/// and for `tcp:host:0` it is the only way to learn the kernel-assigned
/// port.
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
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the node's ready line");
    // "cluster node <name> ready: ... on <endpoint>" — the URI is last.
    let resolved = line
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|uri| EndpointAddr::parse(uri).ok())
        .unwrap_or_else(|| panic!("node {name} announced no endpoint: {line:?}"));
    (child, resolved)
}

fn kill(mut child: Child) {
    let _ = child.kill();
    let _ = child.wait();
}

fn acceptance_run(codec: WireCodec, tag: &str) {
    acceptance_run_on(codec, tag, test_endpoint);
}

fn acceptance_run_on(codec: WireCodec, tag: &str, endpoint: fn(&Path, &str) -> EndpointAddr) {
    let dir = temp_dir(tag);
    let (n0, ep0) = spawn_node(&endpoint(&dir, "n0.sock"), "n0", 4096);
    let (n1, ep1) = spawn_node(&endpoint(&dir, "n1.sock"), "n1", 4096);

    let router = Arc::new(ClusterRouter::attach(
        vec![("n0".into(), ep0), ("n1".into(), ep1)],
        codec,
        RouterConfig::default(),
        RealClock::handle(),
    ));

    // Register the fleet up front and remember each container's home.
    let mut homes = Vec::new();
    for c in 1..=8u64 {
        homes.push(router.register(ContainerId(c), Bytes::mib(512)).unwrap());
    }
    assert!(
        homes.iter().any(|h| h == "n1"),
        "Spread must place containers on both nodes: {homes:?}"
    );

    // Full lifecycles from eight concurrent clients while node 1 dies.
    let workers: Vec<_> = (1..=8u64)
        .map(|c| {
            let router = Arc::clone(&router);
            std::thread::spawn(move || {
                let pid = 1000 + c;
                for round in 0..6u64 {
                    match router.request_alloc(
                        ContainerId(c),
                        pid,
                        Bytes::mib(256),
                        ApiKind::Malloc,
                    ) {
                        Ok(AllocDecision::Granted) => {
                            let addr = c << 16 | round;
                            let _ = router.alloc_done(ContainerId(c), pid, addr, Bytes::mib(256));
                            let _ = router.free(ContainerId(c), pid, addr);
                        }
                        Ok(AllocDecision::Rejected) | Err(_) => {}
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                let _ = router.process_exit(ContainerId(c), pid);
                let _ = router.container_close(ContainerId(c));
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    kill(n1);

    // Zero hung clients: every worker finishes despite the dead node.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !workers.iter().all(|w| w.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "a client hung after node n1 was killed ({codec:?})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for w in workers {
        w.join().unwrap();
    }

    // New registrations after the death must land on the surviving node
    // (placement skips Down nodes and excludes transport failures).
    for c in 9..=12u64 {
        assert_eq!(
            router.register(ContainerId(c), Bytes::mib(512)).unwrap(),
            "n0",
            "post-failure registrations must land on the live node"
        );
    }
    assert_eq!(router.node_health("n0"), Some(NodeHealth::Up));

    // Allocations for a container homed on the dead node reject instead
    // of hanging; enough consecutive failures mark n1 Down.
    let (status_before, _) = router.cluster_status();
    assert_eq!(status_before, "spread");
    let c9 = ContainerId(9);
    assert_eq!(
        router
            .request_alloc(c9, 9000, Bytes::mib(256), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    router.alloc_done(c9, 9000, 0x9, Bytes::mib(256)).unwrap();
    router.free(c9, 9000, 0x9).unwrap();

    // Fault-tolerance counters are observable over the wire.
    let server = router
        .serve_on_endpoint(&endpoint(&dir, "router.sock"))
        .unwrap();
    let client =
        SchedulerClient::connect_endpoint_with_codec(server.endpoint(), codec, None).unwrap();
    let metrics = client.query_metrics().unwrap();
    assert!(
        metrics.contains("convgpu_router_route_seconds"),
        "route latency histogram missing from exposition"
    );
    let (strategy, nodes) = client.query_cluster().unwrap();
    assert_eq!(strategy, "spread");
    assert_eq!(nodes.len(), 2);
    let dead = nodes.iter().find(|n| n.node == "n1").unwrap();
    assert!(
        dead.failovers >= 1 || dead.timeouts >= 1 || dead.retries >= 1,
        "the dead node must show fault-tolerance activity: {dead:?}"
    );
    server.shutdown();

    for c in 9..=12u64 {
        let _ = router.container_close(ContainerId(c));
    }
    kill(n0);
}

#[test]
fn routed_lifecycle_survives_node_death_binary_codec() {
    acceptance_run(WireCodec::Binary, "fire-binary");
}

#[test]
fn routed_lifecycle_survives_node_death_json_codec() {
    acceptance_run(WireCodec::Json, "fire-json");
}

/// The multi-host acceptance scenario, unconditionally over TCP (no
/// `CONVGPU_TRANSPORT` needed): two real node processes on
/// `tcp:127.0.0.1:0`, one killed mid-run, zero hung clients — the
/// read/write timeouts and failure-counting must degrade a dead TCP
/// peer exactly like a dead UNIX one.
#[test]
fn routed_lifecycle_survives_node_death_tcp_loopback() {
    fn tcp(_dir: &Path, _name: &str) -> EndpointAddr {
        EndpointAddr::parse("tcp:127.0.0.1:0").unwrap()
    }
    acceptance_run_on(WireCodec::Binary, "fire-tcp", tcp);
}

// ---------------------------------------------------------------------
// The served router's forwarder threads (`RouterHandler`): one per
// concurrently blocked `alloc_request`, reused while idle, never queued.
// ---------------------------------------------------------------------

/// Mirrors `MAX_IDLE_FORWARDERS` in `crates/core/src/router.rs` (private
/// there): how many idle forwarders a handler keeps for reuse.
const IDLE_CAP: usize = 8;

const SPAWNS: &str = "convgpu_router_forwarder_spawns_total";

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Exact thread accounting needs the process to itself, and libtest runs
/// this binary's other tests on parallel threads: such a test re-runs
/// itself alone in a child process. Returns whether this *is* that
/// child; the parent has by then asserted the child's success.
fn running_alone(test: &str) -> bool {
    const ALONE: &str = "CONVGPU_TEST_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let child = Command::new(std::env::current_exe().unwrap())
        .args([test, "--exact", "--test-threads=1"])
        .env(ALONE, "1")
        .output()
        .unwrap();
    assert!(
        child.status.success(),
        "{}{}",
        String::from_utf8_lossy(&child.stdout),
        String::from_utf8_lossy(&child.stderr)
    );
    false
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "never happened: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One in-process 1000 MiB FIFO node, a router over it, and the router
/// served on its own front endpoint.
struct Served {
    dir: PathBuf,
    node: NodeServer,
    router: Arc<ClusterRouter>,
    front: convgpu::ipc::server::SocketServer,
    codec: WireCodec,
}

impl Served {
    fn start(tag: &str, codec: WireCodec) -> Served {
        let dir = temp_dir(&format!("{tag}-{}", codec.label()));
        let node = NodeServer::serve_endpoint(
            "n0",
            fifo_single_backend(),
            RealClock::handle(),
            dir.clone(),
            &test_endpoint(&dir, "n0.sock"),
        )
        .unwrap();
        let router = Arc::new(ClusterRouter::attach(
            vec![("n0".to_string(), node.endpoint().clone())],
            codec,
            RouterConfig::default(),
            RealClock::handle(),
        ));
        let front = router
            .serve_on_endpoint(&test_endpoint(&dir, "router.sock"))
            .unwrap();
        Served {
            dir,
            node,
            router,
            front,
            codec,
        }
    }

    /// A new front connection with `container` registered over it (so
    /// its connection thread exists once this returns).
    fn client(&self, container: u64, limit_mib: u64) -> Arc<SchedulerClient> {
        let client =
            SchedulerClient::connect_endpoint_with_codec(self.front.endpoint(), self.codec, None)
                .unwrap();
        client
            .register(ContainerId(container), Bytes::mib(limit_mib))
            .unwrap();
        Arc::new(client)
    }

    fn spawns(&self) -> u64 {
        self.router
            .obs()
            .registry
            .snapshot()
            .counter(SPAWNS, &[])
            .unwrap_or(0)
    }

    fn suspended_on_node(&self) -> usize {
        self.node
            .service()
            .with_scheduler(|s| s.containers().filter(|r| r.is_suspended()).count())
    }
}

/// Take `mib` for `container` and report it done: the holder's part.
fn hold(client: &SchedulerClient, container: u64, mib: u64) {
    let (c, pid) = (ContainerId(container), 1000 + container);
    assert_eq!(
        client
            .request_alloc(c, pid, Bytes::mib(mib), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    client
        .alloc_done(c, pid, 0xA000 + container, Bytes::mib(mib))
        .unwrap();
}

/// `container`'s allocation of `mib`, sent from a thread of its own: it
/// parks for as long as the node suspends the container.
fn park(
    client: &Arc<SchedulerClient>,
    container: u64,
    mib: u64,
) -> std::thread::JoinHandle<IpcResult<AllocDecision>> {
    let client = Arc::clone(client);
    std::thread::spawn(move || {
        client.request_alloc(
            ContainerId(container),
            1000 + container,
            Bytes::mib(mib),
            ApiKind::Malloc,
        )
    })
}

/// (a) Steady traffic creates no threads: 200 allocation rounds over one
/// front connection are forwarded by the forwarder the first of them
/// created, every reply correct.
#[test]
fn sequential_allocations_reuse_one_forwarder() {
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let served = Served::start("fwd-seq", codec);
        let client = served.client(1, 400);
        let (c, pid) = (ContainerId(1), 77);
        for round in 0..200u64 {
            let size = Bytes::mib(1 + round % 7);
            assert_eq!(
                client.request_alloc(c, pid, size, ApiKind::Malloc).unwrap(),
                AllocDecision::Granted,
                "round {round} ({codec:?})"
            );
            client.alloc_done(c, pid, 0x1000 + round, size).unwrap();
            assert_eq!(client.free(c, pid, 0x1000 + round).unwrap(), size);
        }
        // One — or two: a forwarder lists itself idle after its reply is
        // on the wire, so if it is preempted right there the client's
        // next request can find none idle, once. (The unit test
        // `sequential_jobs_reuse_one_forwarder` waits for it to park and
        // pins exactly one.) Never one per request.
        let spawns = served.spawns();
        assert!((1..=2).contains(&spawns), "{spawns} ({codec:?})");
        // The operator's view of the same number.
        let text = client.query_metrics().unwrap();
        assert!(text.contains(&format!("{SPAWNS} {spawns}")), "{text}");
        client.container_close(c).unwrap();
        served.front.shutdown();
        served.node.shutdown();
        let _ = std::fs::remove_dir_all(&served.dir);
    }
}

/// (b) A suspension storm: more containers parked at once than idle
/// forwarders are kept. A grantable request is answered while they stay
/// parked, the reader loop of a connection with a parked request keeps
/// answering, every parked request resumes with its grant, and the
/// surplus forwarders exit afterwards.
#[test]
fn a_suspension_storm_parks_each_forward_on_its_own_thread() {
    const TEST: &str = "a_suspension_storm_parks_each_forward_on_its_own_thread";
    if !running_alone(TEST) {
        return;
    }
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let served = Served::start("fwd-storm", codec);
        // The node's 1000 MiB: the holder's 800 + 66 of context, the
        // bystander's 60 + 66; the 8 left over cover no waiter's 4 + 66.
        let storm = IDLE_CAP as u64 + 4;
        let holder = served.client(1, 800);
        let bystander = served.client(2, 60);
        let waiters: Vec<_> = (0..storm).map(|i| served.client(10 + i, 4)).collect();
        // Every connection thread exists; no forwarder does.
        let baseline = thread_count();

        hold(&holder, 1, 800);
        let parked: Vec<_> = waiters
            .iter()
            .zip(10..)
            .map(|(client, c)| park(client, c, 4))
            .collect();
        wait_until("every waiter is suspended on the node", || {
            served.suspended_on_node() == storm as usize
        });

        // Not queued behind them: what the node can grant is granted.
        hold(&bystander, 2, 50);
        // One forwarder per blocked forward and one for the bystander;
        // the holder's has parked by now and took the first waiter
        // (one more if it had not: see the sequential test).
        let spawns = served.spawns();
        assert!((storm + 1..=storm + 2).contains(&spawns), "{spawns}");
        // A connection whose own alloc_request is parked still answers.
        let (c, pid) = (ContainerId(10), 1010);
        let (free, total) = waiters[0].mem_info(c, pid).unwrap();
        assert!(free <= total, "{free:?} of {total:?}");
        assert_eq!(waiters[0].free(c, pid, 0xDEAD).unwrap(), Bytes::ZERO);
        assert!(parked.iter().all(|p| !p.is_finished()));
        assert_eq!(served.suspended_on_node(), storm as usize);

        // The holder leaves: 866 MiB cover all twelve 70 MiB guarantees.
        holder.container_close(ContainerId(1)).unwrap();
        for p in parked {
            assert_eq!(p.join().unwrap().unwrap(), AllocDecision::Granted);
        }
        // The forwarders park again up to the cap; the surplus exits.
        wait_until("surplus forwarders exit", || {
            thread_count() == baseline + IDLE_CAP
        });
        // ... and steady traffic afterwards creates none.
        let before = served.spawns();
        for (client, c) in waiters.iter().zip(10..) {
            let (id, pid) = (ContainerId(c), 1000 + c);
            client
                .alloc_done(id, pid, 0xB000 + c, Bytes::mib(4))
                .unwrap();
            assert_eq!(client.free(id, pid, 0xB000 + c).unwrap(), Bytes::mib(4));
            hold(client, c, 2);
            client.container_close(id).unwrap();
        }
        assert_eq!(served.spawns(), before);
        assert_eq!(thread_count(), baseline + IDLE_CAP);

        bystander.container_close(ContainerId(2)).unwrap();
        served
            .node
            .service()
            .with_scheduler(|s| s.check_invariants().unwrap());
        drop((holder, bystander, waiters));
        served.front.shutdown();
        served.node.shutdown();
        let _ = std::fs::remove_dir_all(&served.dir);
    }
}

/// (c) Shutting the front server down with idle forwarders and one
/// parked forward neither hangs nor leaks: the idle ones end with the
/// handler, the parked one when its node answers.
#[test]
fn front_shutdown_ends_idle_forwarders_and_lets_a_parked_one_finish() {
    const TEST: &str = "front_shutdown_ends_idle_forwarders_and_lets_a_parked_one_finish";
    if !running_alone(TEST) {
        return;
    }
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let served = Served::start("fwd-shutdown", codec);
        // Two holders of 400 + 66 each leave 68 MiB: short of a 4 + 66
        // guarantee. Two small waiters, and one that a single holder's
        // memory cannot cover.
        let holders = [served.client(1, 400), served.client(2, 400)];
        let small = [served.client(11, 4), served.client(12, 4)];
        let big = served.client(13, 500);
        // No forwarder yet. The front server owns its accept thread and
        // one thread per connection; the rest stays when it shuts down.
        let without_front = thread_count() - (1 + 5);

        hold(&holders[0], 1, 400);
        hold(&holders[1], 2, 400);
        let parked_small = [park(&small[0], 11, 4), park(&small[1], 12, 4)];
        wait_until("the small waiters are suspended", || {
            served.suspended_on_node() == 2
        });
        let parked_big = park(&big, 13, 500);
        wait_until("all three are suspended", || {
            served.suspended_on_node() == 3
        });
        // One per concurrently blocked forward (the holders' one took
        // the first; one more if it had not parked yet).
        let spawns = served.spawns();
        assert!((3..=4).contains(&spawns), "{spawns}");

        // Holder 1 leaves: the small waiters resume, their forwarders go
        // idle; the big one stays parked on the node.
        holders[0].container_close(ContainerId(1)).unwrap();
        for p in parked_small {
            assert_eq!(p.join().unwrap().unwrap(), AllocDecision::Granted);
        }
        assert_eq!(served.suspended_on_node(), 1);
        assert!(!parked_big.is_finished());

        // Front server gone: accept thread, five connection threads and
        // the idle forwarders end; the parked forwarder remains, and its
        // requester sees the connection close.
        let Served {
            dir,
            node,
            router,
            front,
            ..
        } = served;
        front.shutdown();
        assert!(parked_big.join().unwrap().is_err());
        wait_until("only the parked forwarder is left", || {
            thread_count() == without_front + 1
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(thread_count(), without_front + 1, "the parked one stays");

        // The node answers (holder 2 leaves, the big waiter is granted):
        // the last forwarder delivers into the closed connection, finds
        // its handler gone, and ends.
        router.container_close(ContainerId(2)).unwrap();
        wait_until("the parked forwarder ends with its forward", || {
            thread_count() == without_front
        });
        drop((holders, small, big));
        for c in [11, 12, 13] {
            router.container_close(ContainerId(c)).unwrap();
        }
        node.service()
            .with_scheduler(|s| s.check_invariants().unwrap());
        drop(router);
        node.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Dispatch golden: every request kind through the router, in each
// situation the router distinguishes, over both wires and in-process.
// ---------------------------------------------------------------------

/// How one leg of the dispatch script reaches the router.
#[derive(Clone, Copy)]
enum Leg {
    /// Through the served front socket, in this codec.
    Wire(WireCodec),
    /// `&ClusterRouter as &dyn SchedulerEndpoint`, no socket.
    InProcess,
}

/// The typed in-process call a request stands for, rendered back as the
/// reply the served router would put on the wire for that outcome (its
/// handler answers an `Err` with `error{message: e.to_string()}`).
fn in_process_reply(router: &ClusterRouter, req: Request) -> Response {
    let ep: &dyn SchedulerEndpoint = router;
    let outcome = match req {
        Request::Register { container, limit } => {
            ep.register(container, limit).map(|()| Response::Ok)
        }
        Request::RequestDir { container } => {
            ep.request_dir(container).map(|path| Response::Dir { path })
        }
        Request::AllocRequest {
            container,
            pid,
            size,
            api,
        } => ep
            .request_alloc(container, pid, size, api)
            .map(|decision| Response::Alloc { decision }),
        Request::AllocDone {
            container,
            pid,
            addr,
            size,
        } => ep
            .alloc_done(container, pid, addr, size)
            .map(|()| Response::Ok),
        Request::AllocFailed {
            container,
            pid,
            size,
        } => ep.alloc_failed(container, pid, size).map(|()| Response::Ok),
        Request::Free {
            container,
            pid,
            addr,
        } => ep
            .free(container, pid, addr)
            .map(|size| Response::Freed { size }),
        Request::MemInfo { container, pid } => ep
            .mem_info(container, pid)
            .map(|(free, total)| Response::MemInfo { free, total }),
        Request::ProcessExit { container, pid } => {
            ep.process_exit(container, pid).map(|()| Response::Ok)
        }
        Request::ContainerClose { container } => {
            ep.container_close(container).map(|()| Response::Ok)
        }
        Request::Ping => ep.ping().map(|()| Response::Pong),
        Request::QueryMetrics => Ok(Response::Metrics {
            text: router.metrics_text(),
        }),
        Request::QueryTopology => ep
            .query_topology()
            .map(|(kind, devices)| Response::Topology { kind, devices }),
        Request::QueryHome { container } => ep
            .query_home(container)
            .map(|(node, device)| Response::Home { node, device }),
        Request::QueryCluster => {
            let (strategy, nodes) = router.cluster_status();
            Ok(Response::Cluster { strategy, nodes })
        }
        Request::Migrate {
            container, node, ..
        } => {
            if container == ContainerId(0) && !node.is_empty() {
                router.rebalance(&node)
            } else {
                router.migrate_container(container).map(|r| vec![r])
            }
        }
        .map(|records| Response::Migrations { records }),
        Request::QueryMigrations => Ok(Response::Migrations {
            records: router.migration_records(),
        }),
    };
    outcome.unwrap_or_else(|e| Response::Error {
        message: e.to_string(),
    })
}

/// Run the dispatch script on a fresh two-node cluster behind a
/// journaled router on a virtual clock; returns the transcript: per step
/// the request, the reply and the home map, then the journal's records.
fn dispatch_transcript(leg: Leg, tag: &str) -> String {
    use convgpu::ipc::endpoint::IpcError;
    use convgpu::ipc::json::ToJson;
    use convgpu::middleware::journal::{JournalConfig, WAL_FILE};

    let dir = temp_dir(tag);
    let _ = std::fs::remove_dir_all(&dir);
    let vclock = VirtualClock::new();
    let mut nodes = Vec::new();
    for (i, cap_mib) in [2048u64, 4096].into_iter().enumerate() {
        let node_dir = dir.join(format!("n{i}"));
        std::fs::create_dir_all(&node_dir).unwrap();
        let backend = TopologyBackend::Single(Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(cap_mib)),
            PolicyKind::Fifo.build(POLICY_SEED),
        ));
        nodes.push(Some(
            NodeServer::serve_endpoint(
                format!("n{i}"),
                backend,
                vclock.handle(),
                node_dir.clone(),
                &test_endpoint(&node_dir, "node.sock"),
            )
            .unwrap(),
        ));
    }
    let endpoints: Vec<(String, EndpointAddr)> = nodes
        .iter()
        .flatten()
        .map(|n| (n.name().to_string(), n.endpoint().clone()))
        .collect();
    let jdir = dir.join("journal");
    let cfg = RouterConfig {
        max_retries: 1,
        degraded_after: 2,
        // High enough that the dead node stays `degraded` while every
        // kind is sent to it, low enough that a few more failures down it.
        down_after: 40,
        ..RouterConfig::default()
    };
    let router = Arc::new(
        ClusterRouter::attach_with_journal(
            endpoints,
            WireCodec::Json,
            cfg,
            vclock.handle(),
            JournalConfig::new(&jdir),
        )
        .unwrap(),
    );
    let front = match leg {
        Leg::Wire(codec) => {
            let server = router
                .serve_on_endpoint(&test_endpoint(&dir, "router.sock"))
                .unwrap();
            let client =
                SchedulerClient::connect_endpoint_with_codec(server.endpoint(), codec, None)
                    .unwrap();
            Some((server, client))
        }
        Leg::InProcess => None,
    };

    let mut out = String::new();
    let tmp_root = dir.display().to_string();
    // An unchanged home map is shown as `=`.
    let last_homes = std::cell::RefCell::new(String::new());
    let send = |out: &mut String, req: Request| -> Response {
        let reply = match &front {
            Some((_, client)) => match client.request(req.clone()) {
                Ok(resp) => resp,
                // The client folds an `error` reply into this variant.
                Err(IpcError::Scheduler(message)) => Response::Error { message },
                Err(e) => panic!("front connection failed on {req:?}: {e}"),
            },
            None => in_process_reply(&router, req.clone()),
        };
        // Timing data, socket paths and OS error text are not pinned.
        let shown = match &reply {
            Response::Metrics { text } => {
                assert!(text.contains("convgpu_router_node_health"), "{text}");
                Response::Metrics {
                    text: "<exposition>".into(),
                }
            }
            Response::Dir { path } => Response::Dir {
                path: path.replace(&tmp_root, "<tmp>"),
            },
            Response::Error { message } => Response::Error {
                message: match message.split_once("ipc i/o error: ") {
                    Some((before, _)) => format!("{before}ipc i/o error: <os>"),
                    None => message.clone(),
                },
            },
            other => other.clone(),
        };
        let homes: Vec<String> = router
            .homes_snapshot()
            .iter()
            .map(|(c, h)| {
                let ledger: Vec<String> = h
                    .used_by_pid
                    .iter()
                    .map(|(pid, b)| format!("{pid}:{b}"))
                    .collect();
                format!(
                    "{c}@{} limit={} hint={} used=[{}]",
                    h.node,
                    h.limit,
                    h.hint,
                    ledger.join(",")
                )
            })
            .collect();
        let homes = homes.join("; ");
        out.push_str(&format!(
            "> {}\n< {}\n  homes: {}\n",
            req.to_json_string(),
            shown.to_json_string(),
            if homes == last_homes.borrow().as_str() {
                "="
            } else {
                &homes
            }
        ));
        *last_homes.borrow_mut() = homes;
        reply
    };

    let c = ContainerId;
    let mib = Bytes::mib;
    let alloc = |id: u64, pid: u64, m: u64, api: ApiKind| Request::AllocRequest {
        container: c(id),
        pid,
        size: mib(m),
        api,
    };
    let done = |id: u64, pid: u64, addr: u64, m: u64| Request::AllocDone {
        container: c(id),
        pid,
        addr,
        size: mib(m),
    };
    let migrate = |id: u64, node: &str| Request::Migrate {
        container: c(id),
        node: node.to_string(),
        limit: Bytes::ZERO,
        used: Bytes::ZERO,
    };
    // Every kind, aimed at container `id`; `register` and `migrate` are
    // left to the caller, which knows what they should do there.
    let every_kind_for = |id: u64, pid: u64| -> Vec<Request> {
        vec![
            Request::RequestDir { container: c(id) },
            alloc(id, pid, 8, ApiKind::MallocPitch),
            done(id, pid, 0xC0 + id, 8),
            Request::AllocFailed {
                container: c(id),
                pid,
                size: mib(8),
            },
            Request::MemInfo {
                container: c(id),
                pid,
            },
            Request::Free {
                container: c(id),
                pid,
                addr: 0xC0 + id,
            },
            Request::ProcessExit {
                container: c(id),
                pid,
            },
            Request::Ping,
            Request::QueryMetrics,
            Request::QueryTopology,
            Request::QueryHome { container: c(id) },
            Request::QueryCluster,
            Request::QueryMigrations,
        ]
    };

    out.push_str("== setup: six containers, Spread alternates n0 / n1\n");
    for id in 1..=6 {
        send(
            &mut out,
            Request::Register {
                container: c(id),
                limit: mib(256),
            },
        );
    }
    for id in [2, 4, 6] {
        assert_eq!(router.homes_snapshot()[&c(id)].node, "n1", "container {id}");
        send(&mut out, alloc(id, 5, 48, ApiKind::Malloc));
        send(&mut out, done(id, 5, 0xA0 + id, 48));
    }

    out.push_str("== (a) every kind for a container whose home is up\n");
    send(
        &mut out,
        Request::Register {
            container: c(1),
            limit: mib(256),
        },
    );
    send(&mut out, alloc(1, 7, 64, ApiKind::Malloc));
    send(&mut out, done(1, 7, 0xA1, 64));
    send(&mut out, alloc(1, 8, 16, ApiKind::MallocManaged));
    send(&mut out, done(1, 8, 0xB1, 16));
    send(
        &mut out,
        Request::Free {
            container: c(1),
            pid: 7,
            addr: 0xA1,
        },
    );
    send(
        &mut out,
        Request::Free {
            container: c(1),
            pid: 7,
            addr: 0xDEAD,
        },
    );
    for req in every_kind_for(1, 7) {
        send(&mut out, req);
    }
    send(&mut out, migrate(1, ""));
    send(&mut out, Request::QueryMigrations);
    send(&mut out, alloc(1, 8, 16, ApiKind::Malloc3D));
    send(&mut out, Request::ContainerClose { container: c(1) });

    out.push_str("== (c) every kind for a container nobody knows\n");
    for req in every_kind_for(99, 1) {
        send(&mut out, req);
    }
    send(&mut out, Request::ContainerClose { container: c(99) });
    send(&mut out, migrate(99, ""));
    send(&mut out, migrate(0, "nx"));
    send(
        &mut out,
        Request::Register {
            container: c(99),
            limit: mib(256),
        },
    );
    send(&mut out, Request::ContainerClose { container: c(99) });

    out.push_str("== (d) a container an earlier router placed: home re-learned\n");
    nodes[0]
        .as_ref()
        .unwrap()
        .service()
        .register(c(7), mib(128))
        .unwrap();
    send(
        &mut out,
        Request::MemInfo {
            container: c(7),
            pid: 1,
        },
    );
    send(&mut out, Request::ContainerClose { container: c(7) });

    out.push_str("== (b) every kind for a container whose home n1 was shut down\n");
    nodes[1].take().unwrap().shutdown();
    send(
        &mut out,
        Request::Register {
            container: c(2),
            limit: mib(256),
        },
    );
    // The acknowledged `alloc_done` goes first: it finds the connection
    // closed, after which every forward fails at the dial.
    send(&mut out, done(2, 5, 0xD2, 8));
    for req in every_kind_for(2, 5) {
        send(&mut out, req);
    }
    send(&mut out, Request::ContainerClose { container: c(2) });
    send(&mut out, migrate(4, ""));
    send(&mut out, alloc(4, 5, 8, ApiKind::Malloc));

    out.push_str("== n1 driven to down: its last container is drained\n");
    let mut probes = 0;
    while router.node_health("n1") != Some(NodeHealth::Down) {
        probes += 1;
        assert!(probes <= 64, "n1 never went down");
        send(
            &mut out,
            Request::MemInfo {
                container: c(6),
                pid: 5,
            },
        );
    }
    for req in every_kind_for(6, 5) {
        send(&mut out, req);
    }

    out.push_str("== operator drain of the survivor: nowhere to go\n");
    send(&mut out, migrate(0, "n0"));
    send(&mut out, Request::QueryMigrations);
    send(&mut out, Request::QueryCluster);
    send(
        &mut out,
        Request::MemInfo {
            container: c(3),
            pid: 1,
        },
    );

    out.push_str("== journal\n");
    router.journal_flush();
    let wal = std::fs::read_to_string(jdir.join(WAL_FILE)).unwrap();
    for line in wal.lines() {
        // `SEQ CRC PAYLOAD`
        out.push_str(line.splitn(3, ' ').nth(2).expect("a journal record"));
        out.push('\n');
    }

    if let Some((server, client)) = front {
        drop(client);
        server.shutdown();
    }
    drop(router);
    for node in nodes.into_iter().flatten() {
        node.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One scripted, single-threaded run sends every request kind to the
/// router in each situation it tells apart — home up, home shut down,
/// container unknown, home re-learned, node down and drained — plus one
/// single-container `migrate` and two `rebalance`s. Each reply, the home
/// map after it and the journal at the end are pinned by
/// `tests/golden/router_dispatch.golden`; the served router in both
/// codecs and the in-process `SchedulerEndpoint` must all produce it.
/// Re-bless with `UPDATE_GOLDEN=1 cargo test --test cluster_router`.
#[test]
fn router_dispatch_golden() {
    let got = dispatch_transcript(Leg::Wire(WireCodec::Json), "dispatch-json");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/router_dispatch.golden"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
    }
    let want = std::fs::read_to_string(path)
        .expect("golden missing; bless with UPDATE_GOLDEN=1 cargo test --test cluster_router");
    assert_eq!(got, want, "router dispatch drifted from golden (json wire)");
    assert_eq!(
        dispatch_transcript(Leg::Wire(WireCodec::Binary), "dispatch-binary"),
        want,
        "the binary front socket answers differently from the JSON one"
    );
    assert_eq!(
        dispatch_transcript(Leg::InProcess, "dispatch-inproc"),
        want,
        "the in-process endpoint's typed outcomes differ from the wire's"
    );
}
