//! Fault tolerance: the paths the paper's §III relies on for cleanup —
//! leaked memory, crashed processes, killed containers, and clients
//! blocked mid-suspension when their container dies — plus the cluster
//! layer's failure modes (`cluster_faults`): node *processes* killed
//! mid-suspension, nodes that stop answering, and router restarts.

use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::ipc::transport::EndpointAddr;
use convgpu::middleware::{InProcEndpoint, SchedulerService};
use convgpu::scheduler::core::{AllocOutcome, Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::scheduler::state::ContainerState;
use convgpu::sim::clock::RealClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::SimTime;
use convgpu::sim::units::Bytes;
use std::sync::Arc;
use std::time::Duration;

/// The cluster halves of this suite run as a transport matrix:
/// `CONVGPU_TRANSPORT=tcp` swaps every bound socket for a TCP loopback
/// listener on a kernel-assigned port; anything else (or unset) keeps
/// the original UNIX path.
fn test_endpoint(dir: &std::path::Path, name: &str) -> EndpointAddr {
    match std::env::var("CONVGPU_TRANSPORT").as_deref() {
        Ok("tcp") => EndpointAddr::parse("tcp:127.0.0.1:0").unwrap(),
        _ => EndpointAddr::from(dir.join(name)),
    }
}

fn service(capacity_mib: u64, tag: &str) -> Arc<SchedulerService> {
    Arc::new(SchedulerService::new(
        Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::mib(capacity_mib)),
            PolicyKind::Fifo.build(0),
        ),
        RealClock::handle(),
        std::env::temp_dir().join(format!("convgpu-itest-fail-{}-{tag}", std::process::id())),
    ))
}

#[test]
fn killed_container_unblocks_its_suspended_requester() {
    let svc = service(1000, "kill");
    let ep = InProcEndpoint::new(Arc::clone(&svc));
    ep.register(ContainerId(1), Bytes::mib(800)).unwrap();
    ep.register(ContainerId(2), Bytes::mib(800)).unwrap();
    assert_eq!(
        ep.request_alloc(ContainerId(1), 1, Bytes::mib(800), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    // Container 2 blocks…
    let ep2 = InProcEndpoint::new(Arc::clone(&svc));
    let waiter = std::thread::spawn(move || {
        ep2.request_alloc(ContainerId(2), 2, Bytes::mib(800), ApiKind::Malloc)
    });
    std::thread::sleep(Duration::from_millis(30));
    assert!(!waiter.is_finished());
    // …and container 2 is then KILLED (docker stop): the close signal
    // must cancel the parked request rather than leave the thread hung.
    ep.container_close(ContainerId(2)).unwrap();
    let decision = waiter.join().unwrap().unwrap();
    assert_eq!(decision, AllocDecision::Rejected, "cancelled, not hung");
    svc.with_scheduler(|s| s.check_invariants().unwrap());
}

#[test]
fn process_exit_cancels_that_pids_parked_requests_only() {
    let svc = service(1000, "pidexit");
    let ep = InProcEndpoint::new(Arc::clone(&svc));
    ep.register(ContainerId(1), Bytes::mib(800)).unwrap();
    ep.register(ContainerId(2), Bytes::mib(800)).unwrap();
    ep.request_alloc(ContainerId(1), 1, Bytes::mib(800), ApiKind::Malloc)
        .unwrap();
    let ep2 = InProcEndpoint::new(Arc::clone(&svc));
    let waiter = std::thread::spawn(move || {
        ep2.request_alloc(ContainerId(2), 42, Bytes::mib(700), ApiKind::Malloc)
    });
    std::thread::sleep(Duration::from_millis(30));
    // Pid 42 inside container 2 dies (__cudaUnregisterFatBinary).
    ep.process_exit(ContainerId(2), 42).unwrap();
    assert_eq!(
        waiter.join().unwrap().unwrap(),
        AllocDecision::Rejected,
        "the dead pid's request is cancelled"
    );
    // Container 2 itself is still registered and usable by another pid.
    svc.with_scheduler(|s| {
        let rec = s.container(ContainerId(2)).unwrap();
        assert!(!rec.is_suspended());
        assert_eq!(rec.used, Bytes::ZERO);
    });
}

#[test]
fn leaked_allocations_return_on_process_exit_and_enable_resumes() {
    let mut sched = Scheduler::new(
        SchedulerConfig::with_capacity(Bytes::mib(1000)),
        PolicyKind::Fifo.build(0),
    );
    let t = SimTime::from_secs;
    sched
        .register(ContainerId(1), Bytes::mib(700), t(0))
        .unwrap();
    sched
        .register(ContainerId(2), Bytes::mib(700), t(1))
        .unwrap();
    let (out, _) = sched
        .alloc_request(ContainerId(1), 1, Bytes::mib(700), ApiKind::Malloc, t(2))
        .unwrap();
    assert_eq!(out, AllocOutcome::Granted);
    sched
        .alloc_done(ContainerId(1), 1, 0xA, Bytes::mib(700), t(2))
        .unwrap();
    let (out, _) = sched
        .alloc_request(ContainerId(2), 2, Bytes::mib(700), ApiKind::Malloc, t(3))
        .unwrap();
    assert!(matches!(out, AllocOutcome::Suspended { .. }));
    // Pid 1 exits WITHOUT freeing — the leak reclaim path. That releases
    // used memory but NOT the container's guarantee; only the close does.
    sched.process_exit(ContainerId(1), 1, t(4)).unwrap();
    assert_eq!(sched.container(ContainerId(1)).unwrap().used, Bytes::ZERO);
    // Close finishes the job and the waiter resumes.
    let actions = sched.container_close(ContainerId(1), t(5)).unwrap();
    assert_eq!(actions.len(), 1);
    assert_eq!(actions[0].decision, AllocDecision::Granted);
    sched.check_invariants().unwrap();
}

#[test]
fn double_close_and_unknown_frees_are_harmless() {
    let svc = service(5120, "idem");
    let ep = InProcEndpoint::new(Arc::clone(&svc));
    ep.register(ContainerId(1), Bytes::mib(128)).unwrap();
    ep.container_close(ContainerId(1)).unwrap();
    // Idempotent close (plugin + explicit stop can both fire).
    ep.container_close(ContainerId(1)).unwrap();
    // Unknown container errors cleanly.
    assert!(ep.container_close(ContainerId(99)).is_err());
    svc.with_scheduler(|s| s.check_invariants().unwrap());
}

#[test]
fn in_proc_endpoint_full_crash_recovery_cycle() {
    use convgpu::ipc::endpoint::SchedulerEndpoint;
    let svc = service(5120, "cycle");
    let ep = InProcEndpoint::new(Arc::clone(&svc));
    // Simulate the wrapper of a container whose program crashes after
    // allocating: alloc granted + done, then process exit without free,
    // then plugin close.
    ep.register(ContainerId(1), Bytes::mib(512)).unwrap();
    assert_eq!(
        ep.request_alloc(ContainerId(1), 7, Bytes::mib(256), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    ep.alloc_done(ContainerId(1), 7, 0xBEEF, Bytes::mib(256))
        .unwrap();
    ep.process_exit(ContainerId(1), 7).unwrap();
    ep.container_close(ContainerId(1)).unwrap();
    svc.with_scheduler(|s| {
        assert_eq!(s.total_assigned(), Bytes::ZERO);
        s.check_invariants().unwrap();
    });
}

/// Cluster-layer fault injection: every node is a **real OS process**
/// (the `convgpu-cli cluster serve-node` binary) behind a real UNIX
/// socket, and the router under test is the library [`ClusterRouter`]
/// the `cluster route` subcommand wraps. See `docs/CLUSTER.md` for the
/// failure semantics these tests pin down.
mod cluster_faults {
    use super::*;
    use convgpu::ipc::binary::WireCodec;
    use convgpu::ipc::endpoint::SchedulerEndpoint;
    use convgpu::middleware::router::{ClusterRouter, NodeHealth, RouterConfig};
    use convgpu::sim::clock::VirtualClock;
    use convgpu::sim::time::SimDuration;
    use std::path::PathBuf;
    use std::process::{Child, Command, Stdio};
    use std::time::Instant;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "convgpu-itest-cluster-{}-{tag}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create cluster test dir");
        dir
    }

    /// Spawn one node process and return it with the endpoint it
    /// actually bound (read from its ready line — the only way to learn
    /// a `tcp:host:0` node's kernel-assigned port).
    fn spawn_node(endpoint: &EndpointAddr, name: &str, capacity_mib: u64) -> (Child, EndpointAddr) {
        use std::io::BufRead;
        let mut child = Command::new(env!("CARGO_BIN_EXE_convgpu-cli"))
            .args([
                "cluster".to_string(),
                "serve-node".to_string(),
                format!("--socket={endpoint}"),
                format!("--name={name}"),
                format!("--capacity-mib={capacity_mib}"),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cluster node process");
        let stdout = child.stdout.take().expect("child stdout is piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the node's ready line");
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

    /// The node **process** dies while a client is parked in a
    /// suspension on it. The router must convert the broken transport
    /// into an `AllocDecision::Rejected` — the same answer a killed
    /// container's parked requests get — so the requester unblocks with
    /// an error instead of hanging forever.
    #[test]
    fn node_process_killed_mid_suspension_unblocks_requesters() {
        let dir = temp_dir("kill-node");
        let (node, ep) = spawn_node(&test_endpoint(&dir, "n0.sock"), "n0", 1000);
        let router = Arc::new(ClusterRouter::attach(
            vec![("n0".to_string(), ep)],
            WireCodec::Binary,
            RouterConfig::default(),
            RealClock::handle(),
        ));
        router.register(ContainerId(1), Bytes::mib(800)).unwrap();
        router.register(ContainerId(2), Bytes::mib(800)).unwrap();
        assert_eq!(
            router
                .request_alloc(ContainerId(1), 1, Bytes::mib(800), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        router
            .alloc_done(ContainerId(1), 1, 0xA, Bytes::mib(800))
            .unwrap();
        // Container 2's allocation suspends on the node…
        let waiter_router = Arc::clone(&router);
        let waiter = std::thread::spawn(move || {
            waiter_router.request_alloc(ContainerId(2), 2, Bytes::mib(800), ApiKind::Malloc)
        });
        std::thread::sleep(Duration::from_millis(100));
        assert!(!waiter.is_finished(), "the allocation must be suspended");
        // …and the node process is then KILLED.
        kill(node);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !waiter.is_finished() {
            assert!(
                Instant::now() < deadline,
                "requester hung after its node died"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            waiter.join().unwrap().unwrap(),
            AllocDecision::Rejected,
            "failed over, not hung"
        );
        let (_, nodes) = router.cluster_status();
        assert!(
            nodes[0].failovers >= 1,
            "the failover must be observable: {nodes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A node that accepts connections but never answers. Deadline-gated
    /// calls must time out, retry with (sim-clock) backoff, and surface
    /// an error — in bounded *real* time, because the deadline runs on
    /// the router's virtual clock.
    #[test]
    fn slow_node_trips_deadline_and_backoff() {
        use convgpu::ipc::transport::{
            Conn, TransportListener, HELLO_MAGIC, HELLO_ROLE_SERVER, HELLO_TAG, TRANSPORT_VERSION,
        };
        use std::io::Write;
        let dir = temp_dir("slow-node");
        let listener = TransportListener::bind(&test_endpoint(&dir, "slow.sock")).unwrap();
        let slow_endpoint = listener.local_endpoint().clone();
        // Hold every connection open without ever replying. On TCP the
        // slowness must live at the *request* layer, so the greeter
        // completes the transport hello (a silent peer would instead
        // fail the client's connect and never reach the deadline path);
        // UNIX has no hello and those 4 bytes would corrupt the stream.
        // The thread blocks in accept() for the life of the test process.
        std::thread::spawn(move || {
            let mut open = Vec::new();
            while let Ok(mut conn) = listener.accept() {
                if matches!(conn, Conn::Tcp(_)) {
                    let _ = conn.write_all(&[
                        HELLO_MAGIC,
                        HELLO_TAG,
                        TRANSPORT_VERSION,
                        HELLO_ROLE_SERVER,
                    ]);
                }
                open.push(conn);
            }
        });
        let vclock = VirtualClock::new();
        let router = ClusterRouter::attach(
            vec![("slow".to_string(), slow_endpoint)],
            WireCodec::Json,
            RouterConfig {
                deadline: SimDuration::from_millis(50),
                max_retries: 2,
                ..RouterConfig::default()
            },
            vclock.handle(),
        );
        let started = Instant::now();
        let err = router
            .register(ContainerId(1), Bytes::mib(100))
            .unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "deadline+backoff must bound the wait, got {err} after {:?}",
            started.elapsed()
        );
        let (_, nodes) = router.cluster_status();
        assert!(
            nodes[0].timeouts >= 1,
            "deadline hits observable: {nodes:?}"
        );
        assert!(nodes[0].retries >= 1, "retries observable: {nodes:?}");
        assert_ne!(
            router.node_health("slow"),
            Some(NodeHealth::Up),
            "consecutive timeouts must degrade the node"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A router restart must re-attach to containers that live on in the
    /// (still running) node processes: the first routed call for an
    /// unknown container re-learns its home via `query_home`. This lazy
    /// path recovers the *home* but not the checkpoint (limit/hint come
    /// back zero — pinned by `restart_without_a_journal_is_pinned_
    /// to_zero_checkpoints` in router.rs); full-checkpoint recovery is
    /// the write-ahead journal's job (`tests/journal_recovery.rs`).
    #[test]
    fn restarted_router_reattaches_to_live_node_processes() {
        let dir = temp_dir("router-restart");
        let (n0, ep0) = spawn_node(&test_endpoint(&dir, "n0.sock"), "n0", 1000);
        let (n1, ep1) = spawn_node(&test_endpoint(&dir, "n1.sock"), "n1", 1000);
        let nodes = vec![("n0".to_string(), ep0), ("n1".to_string(), ep1)];
        let first = ClusterRouter::attach(
            nodes.clone(),
            WireCodec::Json,
            RouterConfig::default(),
            RealClock::handle(),
        );
        first.register(ContainerId(1), Bytes::mib(600)).unwrap();
        first.register(ContainerId(2), Bytes::mib(600)).unwrap();
        assert_eq!(
            first
                .request_alloc(ContainerId(1), 1, Bytes::mib(300), ApiKind::Malloc)
                .unwrap(),
            AllocDecision::Granted
        );
        first
            .alloc_done(ContainerId(1), 1, 0xB, Bytes::mib(300))
            .unwrap();
        drop(first); // the router "crashes"; the node processes live on

        let second = ClusterRouter::attach(
            nodes,
            WireCodec::Json,
            RouterConfig::default(),
            RealClock::handle(),
        );
        // The node-side books survived and are reachable again.
        let (free, total) = second.mem_info(ContainerId(1), 1).unwrap();
        assert_eq!(total, Bytes::mib(600));
        assert_eq!(free, Bytes::mib(300));
        let (home0, _) = second.query_home(ContainerId(1)).unwrap();
        let (home1, _) = second.query_home(ContainerId(2)).unwrap();
        assert_ne!(home0, home1, "spread placed the containers apart");
        // Full cleanup routes correctly through the recovered homes.
        assert_eq!(
            second.free(ContainerId(1), 1, 0xB).unwrap(),
            Bytes::mib(300)
        );
        second.container_close(ContainerId(1)).unwrap();
        second.container_close(ContainerId(2)).unwrap();
        let (_, status) = second.cluster_status();
        assert_eq!(status.iter().map(|n| n.containers).sum::<u64>(), 0);
        kill(n0);
        kill(n1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two `register`s of one container id in flight at once — a
    /// retrying or hostile client on a second connection — must not be
    /// placed independently: under `Random` the second draw lands on the
    /// other node, both nodes answer `ok`, the later home overwrites the
    /// earlier, and the first node keeps an open container nothing will
    /// ever close. The stub nodes withhold every `register` reply, so
    /// the first placement is still undecided when the second arrives.
    #[test]
    fn two_in_flight_registers_of_one_id_home_it_once() {
        use convgpu::ipc::message::{Request, Response, TopologyDevice};
        use convgpu::ipc::server::{ConnId, Reply, RequestHandler, SocketServer};
        use convgpu::scheduler::cluster::SwarmStrategy;
        use convgpu::sim::rng::DetRng;
        use convgpu::sim::sync::Mutex;
        use std::sync::atomic::{AtomicUsize, Ordering};

        #[derive(Default)]
        struct WithholdingNode {
            registers: AtomicUsize,
            withheld: Mutex<Vec<Reply>>,
        }
        impl RequestHandler for WithholdingNode {
            fn on_request(&self, _conn: ConnId, req: Request, reply: Reply) {
                match req {
                    Request::QueryTopology => reply.send(Response::Topology {
                        kind: "single".into(),
                        devices: vec![TopologyDevice {
                            node: String::new(),
                            device: 0,
                            capacity: Bytes::gib(4),
                            unassigned: Bytes::gib(4),
                            containers: 0,
                            policy: "FIFO".into(),
                        }],
                    }),
                    Request::Register { .. } => {
                        self.withheld.lock().push(reply);
                        self.registers.fetch_add(1, Ordering::SeqCst);
                    }
                    _ => reply.send(Response::Ok),
                }
            }
        }

        let dir = temp_dir("double-register");
        let stubs = [
            Arc::new(WithholdingNode::default()),
            Arc::new(WithholdingNode::default()),
        ];
        let servers: Vec<SocketServer> = stubs
            .iter()
            .enumerate()
            .map(|(i, stub)| {
                let handler = Arc::clone(stub) as Arc<dyn RequestHandler>;
                SocketServer::bind_endpoint(&test_endpoint(&dir, &format!("s{i}.sock")), handler)
                    .unwrap()
            })
            .collect();
        // A seed whose first two placement draws pick different nodes.
        let seed = (0..64)
            .find(|&seed| {
                let mut rng = DetRng::seed_from_u64(seed);
                rng.index(2) != rng.index(2)
            })
            .expect("some seed draws two different nodes");
        let router = Arc::new(ClusterRouter::attach(
            servers
                .iter()
                .enumerate()
                .map(|(i, s)| (format!("s{i}"), s.endpoint().clone()))
                .collect(),
            WireCodec::Binary,
            RouterConfig {
                strategy: SwarmStrategy::Random,
                seed,
                // The replies are withheld for as long as the test likes.
                deadline: convgpu::sim::time::SimDuration::from_secs(60),
                ..RouterConfig::default()
            },
            RealClock::handle(),
        ));
        let forwarded = || -> usize {
            stubs
                .iter()
                .map(|s| s.registers.load(Ordering::SeqCst))
                .sum()
        };
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "never happened: {what}");
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let register = || {
            let router = Arc::clone(&router);
            std::thread::spawn(move || router.register(ContainerId(1), Bytes::mib(100)))
        };

        let first = register();
        wait_for("the first register reaches a node", &|| forwarded() == 1);
        let second = register();
        wait_for("the second register is refused, or forwarded", &|| {
            second.is_finished() || forwarded() == 2
        });
        assert_eq!(forwarded(), 1, "the racing register was placed on its own");
        let refusal = second.join().unwrap().unwrap_err();
        assert!(
            refusal.to_string().contains("already registered"),
            "{refusal}"
        );

        for stub in &stubs {
            let withheld = std::mem::take(&mut *stub.withheld.lock());
            for reply in withheld {
                reply.send(Response::Ok);
            }
        }
        let home = first.join().unwrap().expect("the first register succeeds");
        let homes = router.homes_snapshot();
        assert_eq!(homes.len(), 1, "{homes:?}");
        assert_eq!(homes[&ContainerId(1)].node, home);
        let other = stubs
            .iter()
            .zip(["s0", "s1"])
            .find(|(_, name)| *name != home)
            .unwrap()
            .0;
        assert_eq!(
            other.registers.load(Ordering::SeqCst),
            0,
            "the other node saw a register"
        );
        drop(router);
        for server in servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn device_reserve_models_driver_reservations() {
    use convgpu::gpu::device::{DeviceConfig, GpuDevice};
    use convgpu::gpu::props::DeviceProperties;
    let dev = GpuDevice::new(DeviceConfig {
        props: DeviceProperties::tesla_k20m(),
        reserve: Bytes::mib(512),
        ..DeviceConfig::default()
    });
    // 5120 - 66 ctx - 512 reserve = 4542 max single allocation.
    assert!(dev.alloc(1, Bytes::mib(4600)).is_err());
    assert!(dev.alloc(1, Bytes::mib(4500)).is_ok());
    assert_eq!(dev.counters().failed_allocs, 1);
}

#[test]
fn injected_device_faults_stay_contained_per_container() {
    use convgpu::gpu::device::DeviceConfig;
    use convgpu::gpu::fault::{FaultPlan, FaultRates};
    use convgpu::gpu::program::FnProgram;
    use convgpu::gpu::CudaApi;
    use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};

    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.001,
        engine: convgpu::container::engine::EngineConfig::instant(),
        device: DeviceConfig {
            faults: Arc::new(FaultPlan::new(
                FaultRates {
                    alloc_failure: 0.3,
                    launch_failure: 0.0,
                },
                99,
            )),
            ..DeviceConfig::default()
        },
        ..ConVGpuConfig::default()
    })
    .unwrap();

    let mut sessions = Vec::new();
    for _ in 0..6 {
        let program = Box::new(FnProgram::new("flaky", |api: &dyn CudaApi, pid, _| {
            // Retry the allocation a few times, like a robust CUDA app.
            let mut last = Ok(());
            for _ in 0..5 {
                match api.cuda_malloc(pid, Bytes::mib(200)) {
                    Ok(p) => {
                        api.cuda_free(pid, p)?;
                        return Ok(());
                    }
                    Err(e) => last = Err(e),
                }
            }
            last
        }));
        sessions.push(
            convgpu
                .run_container(RunCommand::new("cuda-app").nvidia_memory("256m"), program)
                .unwrap(),
        );
    }
    let ids: Vec<_> = sessions.iter().map(|s| s.container).collect();
    let outcomes: Vec<_> = sessions.into_iter().map(|s| s.wait()).collect();
    // The close is part of the stop: every container reads `Closed` once
    // its session has been waited.
    convgpu.service().with_scheduler(|s| {
        for id in ids {
            assert_eq!(s.container(id).unwrap().state, ContainerState::Closed);
        }
    });
    // Some retries hit faults (30% rate means ~0.2% of containers lose
    // all 5 retries; just require the system survived) — the key
    // assertions are global consistency:
    assert!(outcomes.iter().filter(|o| o.is_ok()).count() >= 4);
    let (free, total) = convgpu.device().mem_info();
    assert_eq!(free, total, "faulty allocations must not leak memory");
    convgpu.service().with_scheduler(|s| {
        s.check_invariants().unwrap();
        assert_eq!(s.total_assigned(), Bytes::ZERO);
    });
    convgpu.shutdown();
}
