//! Live-socket integration for the topology backends: the multi-GPU
//! scheduler served over the real IPC stack, in both wire codecs.
//!
//! The scenario drives register → alloc → suspend → close → resume
//! across two devices through a real UNIX socket, and reads the
//! topology back over the wire (`query_topology` / `query_home`).

use convgpu::middleware::handler::ServiceHandler;
use convgpu::middleware::service::SchedulerService;
use convgpu::scheduler::backend::TopologyBackend;
use convgpu::scheduler::core::SchedulerConfig;
use convgpu::scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::RealClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::units::Bytes;
use convgpu_ipc::binary::WireCodec;
use convgpu_ipc::client::SchedulerClient;
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_ipc::server::SocketServer;
use std::sync::Arc;
use std::time::Duration;

/// Two 1 GiB devices under one host scheduler, round-robin placement.
fn multi_gpu_backend() -> TopologyBackend {
    TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
        SchedulerConfig::with_capacity(Bytes::gib(1)),
        &[Bytes::gib(1), Bytes::gib(1)],
        PolicyKind::Fifo,
        PlacementPolicy::RoundRobin,
        0xC0DE,
    ))
}

fn stack(
    name: &str,
    backend: TopologyBackend,
    codec: WireCodec,
) -> (SocketServer, SchedulerClient, Arc<SchedulerService>) {
    let dir = std::env::temp_dir().join(format!(
        "convgpu-topology-live-{}-{}",
        std::process::id(),
        name
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = Arc::new(SchedulerService::new_with_backend(
        backend,
        RealClock::handle(),
        dir.clone(),
    ));
    let server = SocketServer::bind(
        &dir.join("sched.sock"),
        Arc::new(ServiceHandler::new(Arc::clone(&svc))),
    )
    .unwrap();
    let client = SchedulerClient::connect_with_codec(server.path(), codec, None).unwrap();
    (server, client, svc)
}

/// The scenario: three containers, deterministic placement that homes c1
/// and c3 together and c2 alone, contention on the shared device resolved
/// by closing c1 while c2's device stays responsive.
fn drive_lifecycle(server: SocketServer, client: SchedulerClient, svc: Arc<SchedulerService>) {
    // Host-local devices carry no node name on the wire.
    let home = |device: u64| (String::new(), device);
    let c1 = ContainerId(1);
    let c2 = ContainerId(2);
    let c3 = ContainerId(3);
    // 700 MiB limit + 66 MiB ctx overhead = 766 MiB requirement on a
    // 1024 MiB device: two such containers cannot both hold 600 MiB.
    let limit = Bytes::mib(700);
    client.register(c1, limit).unwrap();
    client.register(c2, limit).unwrap();
    client.register(c3, limit).unwrap();

    // Round-robin placement is deterministic: c1 and c3 share the first
    // device, c2 owns the second.
    assert_eq!(client.query_home(c1).unwrap(), home(0));
    assert_eq!(client.query_home(c2).unwrap(), home(1));
    assert_eq!(client.query_home(c3).unwrap(), home(0));

    let (_kind, devices) = client.query_topology().unwrap();
    assert_eq!(devices.len(), 2);
    for (i, d) in devices.iter().enumerate() {
        let (node, device) = home(i as u64);
        assert_eq!(d.node, node);
        assert_eq!(d.device, device);
        assert_eq!(d.capacity, Bytes::gib(1));
        assert_eq!(d.policy, "FIFO");
    }
    assert_eq!(devices[0].containers, 2);
    assert_eq!(devices[1].containers, 1);

    // c1 fills most of the first device.
    assert_eq!(
        client
            .request_alloc(c1, 11, Bytes::mib(600), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    client.alloc_done(c1, 11, 0xA1, Bytes::mib(600)).unwrap();

    // c3 wants the same on the same device: parked (suspended).
    let client = Arc::new(client);
    let parked = {
        let client = Arc::clone(&client);
        std::thread::spawn(move || client.request_alloc(c3, 33, Bytes::mib(600), ApiKind::Malloc))
    };
    std::thread::sleep(Duration::from_millis(40));
    assert!(!parked.is_finished(), "c3 must be suspended, not answered");

    // The other device is unaffected: c2 allocates while c3 waits.
    assert_eq!(
        client
            .request_alloc(c2, 22, Bytes::mib(600), ApiKind::Malloc)
            .unwrap(),
        AllocDecision::Granted
    );
    client.alloc_done(c2, 22, 0xB1, Bytes::mib(600)).unwrap();

    // Closing c1 releases its budget; the full-guarantee resume wakes
    // c3 and its parked request is granted.
    client.container_close(c1).unwrap();
    assert_eq!(
        parked.join().unwrap().unwrap(),
        AllocDecision::Granted,
        "resume after close must answer the parked request"
    );
    client.alloc_done(c3, 33, 0xC1, Bytes::mib(600)).unwrap();

    // mem_info answers per-device: c3 now owns 600 MiB of its 700 limit.
    let (free, total) = client.mem_info(c3, 33).unwrap();
    assert_eq!(total, limit);
    assert_eq!(free, Bytes::mib(100));

    client.free(c3, 33, 0xC1).unwrap();
    client.container_close(c3).unwrap();
    client.free(c2, 22, 0xB1).unwrap();
    client.container_close(c2).unwrap();

    svc.with_backend(|b| {
        use convgpu::scheduler::backend::SchedulerBackend;
        b.check_invariants().unwrap();
        assert!(b.devices().iter().all(|d| d.containers == 0));
    });
    server.shutdown();
}

#[test]
fn multi_gpu_lifecycle_over_live_socket_both_codecs() {
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let (server, client, svc) = stack(&format!("mg-{codec:?}"), multi_gpu_backend(), codec);
        let (kind, _) = client.query_topology().unwrap();
        assert_eq!(kind, "multi-gpu");
        drive_lifecycle(server, client, svc);
    }
}

#[test]
fn single_topology_answers_queries_too() {
    use convgpu::middleware::InProcEndpoint;
    use convgpu::scheduler::core::Scheduler;
    let dir = std::env::temp_dir().join(format!("convgpu-topology-single-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let svc = Arc::new(SchedulerService::new(
        Scheduler::new(
            SchedulerConfig::with_capacity(Bytes::gib(5)),
            PolicyKind::Fifo.build(0),
        ),
        RealClock::handle(),
        dir,
    ));
    let ep = InProcEndpoint::new(Arc::clone(&svc));
    let (kind, devices) = ep.query_topology().unwrap();
    assert_eq!(kind, "single");
    assert_eq!(devices.len(), 1);
    assert_eq!(devices[0].node, "");
    assert_eq!(devices[0].capacity, Bytes::gib(5));

    ep.register(ContainerId(9), Bytes::mib(512)).unwrap();
    assert_eq!(ep.query_home(ContainerId(9)).unwrap(), (String::new(), 0));
    assert!(ep.query_home(ContainerId(10)).is_err());
}

/// A device count the ticket's one-byte device lane cannot name is the
/// CLI's usage error, not a panic or a silent collision.
#[test]
fn cli_refuses_more_devices_than_a_ticket_lane_names() {
    for args in [
        &[
            "cluster",
            "serve-node",
            "--socket=unused.sock",
            "--devices=257",
        ][..],
        &["metrics", "--devices=257"][..],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_convgpu-cli"))
            .args(args)
            .output()
            .expect("convgpu-cli runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage:"));
    }
}
