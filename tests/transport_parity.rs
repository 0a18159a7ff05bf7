//! Transport/codec parity battery: the same FIFO contention scenario
//! driven message by message across every transport × codec combination
//! must be indistinguishable at the scheduler.
//!
//! Two fingerprints are compared across
//! `{unix, tcp-loopback} × {json, binary}` and the in-process endpoint
//! (one more transport: the same messages, no socket):
//!
//! * **Canonical trace** — the served node's span ring, canonicalized
//!   (ids and absolute times stripped), must be byte-identical across
//!   all five legs: the transport and codec leave no residue in the
//!   decision tree.
//! * **Decision log** — every logged scheduling decision, including the
//!   suspension/resume correlation **tickets**, rendered and compared
//!   bit for bit. A transport that perturbed ticket assignment or
//!   decision order would show up here even if the canonical trace
//!   masked it.
//!
//! The scenario is the wire twin of the direct-scheduler golden in
//! `tests/observability.rs`: capacity 5120 MiB, three 2048-MiB
//! containers under FIFO; c3's limit-sized request parks on a second
//! connection (the withheld reply IS the suspension) until c1's close
//! redistributes and resumes it.

use convgpu::ipc::binary::WireCodec;
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::endpoint::Transact;
use convgpu::ipc::message::{AllocDecision, ApiKind, Request, Response};
use convgpu::ipc::transport::EndpointAddr;
use convgpu::middleware::router::NodeServer;
use convgpu::middleware::InProcEndpoint;
use convgpu::scheduler::backend::TopologyBackend;
use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
use convgpu::scheduler::log::Decision;
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::VirtualClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::SimTime;
use convgpu::sim::units::Bytes;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("convgpu-itest-parity-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fifo_backend() -> TopologyBackend {
    TopologyBackend::Single(Scheduler::new(
        SchedulerConfig::with_capacity(Bytes::mib(5120)),
        PolicyKind::Fifo.build(0),
    ))
}

/// Drive the FIFO contention scenario against a served node — over its
/// socket in `codec`, or with no codec in-process against the service
/// behind it; return `(canonical trace, rendered decision log)`.
fn fifo_run(endpoint: &EndpointAddr, codec: Option<WireCodec>, tag: &str) -> (String, Vec<String>) {
    let dir = temp_dir(tag);
    let vclock = VirtualClock::new();
    let node = NodeServer::serve_endpoint("parity", fifo_backend(), vclock.handle(), dir, endpoint)
        .unwrap();
    let (ep, service) = (node.endpoint().clone(), Arc::clone(node.service()));
    let connect = move || -> Box<dyn Transact> {
        match codec {
            Some(codec) => {
                Box::new(SchedulerClient::connect_endpoint_with_codec(&ep, codec, None).unwrap())
            }
            None => Box::new(InProcEndpoint::new(Arc::clone(&service))),
        }
    };
    let client = connect();

    let t = SimTime::from_secs;
    for (i, c) in [1u64, 2, 3].into_iter().enumerate() {
        vclock.advance_to(t(1 + i as u64));
        client
            .transact(Request::Register {
                container: ContainerId(c),
                limit: Bytes::mib(2048),
            })
            .unwrap();
    }
    // c1 and c2 hold their full limits.
    for (at, c, addr) in [(11u64, 1u64, 0xA1u64), (12, 2, 0xA2)] {
        vclock.advance_to(t(at));
        let r = client
            .transact(Request::AllocRequest {
                container: ContainerId(c),
                pid: c,
                size: Bytes::mib(2048),
                api: ApiKind::Malloc,
            })
            .unwrap();
        assert!(
            matches!(
                r,
                Response::Alloc {
                    decision: AllocDecision::Granted
                }
            ),
            "cnt-{c} not granted: {r:?}"
        );
        client
            .transact(Request::AllocDone {
                container: ContainerId(c),
                pid: c,
                addr,
                size: Bytes::mib(2048),
            })
            .unwrap();
    }
    // c3's limit-sized request parks: its reply is withheld, so it must
    // block on its own connection while the main one drives the resume.
    vclock.advance_to(t(13));
    let (done_tx, done_rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let c3 = connect();
        let r = c3
            .transact(Request::AllocRequest {
                container: ContainerId(3),
                pid: 3,
                size: Bytes::mib(2048),
                api: ApiKind::Malloc,
            })
            .unwrap();
        assert!(
            matches!(
                r,
                Response::Alloc {
                    decision: AllocDecision::Granted
                }
            ),
            "resumed c3 not granted: {r:?}"
        );
        c3.transact(Request::AllocDone {
            container: ContainerId(3),
            pid: 3,
            addr: 0xA3,
            size: Bytes::mib(2048),
        })
        .unwrap();
        done_tx.send(()).unwrap();
    });
    // The close must not race the park: wait for the suspension to land
    // in the decision log before redistributing.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let parked = node.service().with_scheduler(|s| {
            s.log().entries().any(
                |e| matches!(e.decision, Decision::Suspended { id, .. } if id == ContainerId(3)),
            )
        });
        if parked {
            break;
        }
        assert!(Instant::now() < deadline, "c3 never suspended");
        std::thread::sleep(Duration::from_millis(2));
    }
    // c1 closes: redistribution fully guarantees c3 and resumes it.
    vclock.advance_to(t(20));
    client
        .transact(Request::ContainerClose {
            container: ContainerId(1),
        })
        .unwrap();
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("resumed c3 never finished its allocation (hung client)");
    waiter.join().unwrap();
    vclock.advance_to(t(25));
    client
        .transact(Request::ContainerClose {
            container: ContainerId(2),
        })
        .unwrap();
    vclock.advance_to(t(30));
    client
        .transact(Request::ContainerClose {
            container: ContainerId(3),
        })
        .unwrap();

    let canon = convgpu::obs::render_canonical(&node.service().obs().ring.snapshot());
    let log = node
        .service()
        .with_scheduler(|s| s.log().entries().map(|e| e.to_string()).collect());
    node.shutdown();
    (canon, log)
}

/// The four transport × codec combos and the in-process endpoint
/// produce byte-identical canonical traces and bit-identical decision
/// logs (tickets included).
#[test]
fn fifo_scenario_identical_across_transports_and_codecs() {
    let combos = [
        ("unix-json", Some(WireCodec::Json), false),
        ("unix-binary", Some(WireCodec::Binary), false),
        ("tcp-json", Some(WireCodec::Json), true),
        ("tcp-binary", Some(WireCodec::Binary), true),
        ("inproc", None, false),
    ];
    let mut runs = Vec::new();
    for (tag, codec, tcp) in combos {
        let endpoint = if tcp {
            EndpointAddr::parse("tcp:127.0.0.1:0").unwrap()
        } else {
            EndpointAddr::from(temp_dir(tag).join("node.sock"))
        };
        runs.push((tag, fifo_run(&endpoint, codec, tag)));
    }

    let (base_tag, (base_canon, base_log)) = &runs[0];
    // The wire-driven trace must equal the direct-scheduler golden from
    // tests/observability.rs: serving the scheduler over any transport
    // adds nothing to (and loses nothing from) the decision tree.
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fifo_three_containers.trace"
    );
    let want = std::fs::read_to_string(golden)
        .expect("golden missing — bless with UPDATE_GOLDEN=1 cargo test --test observability");
    assert_eq!(
        *base_canon, want,
        "wire-driven FIFO trace drifted from the direct-scheduler golden"
    );
    // The scenario really exercised the interesting paths: a ticketed
    // suspension and its resume are both on record.
    assert!(
        base_log.iter().any(|l| l.contains("SUSPENDED ticket=")),
        "no suspension logged:\n{base_log:#?}"
    );
    assert!(
        base_log.iter().any(|l| l.contains("RESUMED ticket=")),
        "no resume logged:\n{base_log:#?}"
    );
    for (tag, (canon, log)) in &runs[1..] {
        assert_eq!(
            canon, base_canon,
            "canonical trace differs between {base_tag} and {tag}"
        );
        assert_eq!(
            log, base_log,
            "decision log (tickets included) differs between {base_tag} and {tag}"
        );
    }
}
