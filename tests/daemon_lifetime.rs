//! A long-lived daemon's footprint is bounded by the containers that are
//! alive, not by the containers it has ever run.
//!
//! One `ConVGpu` (real UNIX sockets) runs 300 container lifecycles, two
//! at a time. It binds one listener for its whole life; a container's
//! socket is a hard link to it inside the container's volume directory,
//! made by `request_dir` and taken off the container's name when the
//! scheduler processes the close. A container's program and its
//! connection's reader run on reused threads, which park between
//! containers, and a closed container's volume is kept as a spare for the
//! next one: at most `MAX_IDLE_THREADS` threads of each kind and
//! `SPARE_VOLUMES` spares. So the other threads, file-descriptor and
//! `base_dir` entry counts after 300 lifecycles are what they were after
//! the first 10, and the reused ones stay within their caps. So is the
//! metrics exposition: a closed container's
//! series are retired, and what grows is only the digits of the
//! daemon-lifetime counters, so `query_metrics` keeps answering over the
//! wire.
//!
//! The same holds for the operations it serves: once the daemon is warm,
//! a long run of malloc/done/free cycles on one open container leaves
//! its resident memory where it was, because no scheduler transition
//! keeps a record of itself.
//!
//! One `#[test]` on purpose: the counts are per process, so this file's
//! test binary must run nothing else.

use convgpu::gpu::{FnProgram, LatencyModel};
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::ipc::message::{AllocDecision, ApiKind};
use convgpu::middleware::service::SPARE_VOLUMES;
use convgpu::middleware::{ConVGpu, ConVGpuConfig, InProcEndpoint, RunCommand};
use convgpu::scheduler::backend::SchedulerBackend;
use convgpu::scheduler::state::ContainerState;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::pool::MAX_IDLE_THREADS;
use convgpu::sim::units::Bytes;
use convgpu_container_rt::engine::EngineConfig;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const WARM_LIFECYCLES: u64 = 10;
const LIFECYCLES: u64 = 300;
/// A connection's socket is closed by its reader after the client hangs
/// up, so an fd count read right after the last close may still see a
/// few of them.
const SLACK: usize = 4;
/// Bytes the exposition may gain from 10 to 300 lifecycles: counts and
/// sums gaining digits, about 300 bytes. Its series are counted exactly.
const TEXT_SLACK: usize = 1024;
/// Cycles that fill the decision log's and the span ring's 4096 entries
/// before resident memory is read.
const WARM_CYCLES: u64 = 5_000;
/// malloc/done/free cycles between the two resident-memory readings.
const CYCLES: u64 = 32_000;
/// Resident memory those cycles may add. A scheduler that kept one
/// 24-byte timeline sample per transition added about 1.5 MiB here.
const RSS_SLACK_KIB: u64 = 256;

fn entries(dir: impl AsRef<std::path::Path>) -> usize {
    std::fs::read_dir(dir).unwrap().count()
}

fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// The footprint of this process that must not grow with the containers
/// it has run.
#[derive(Debug, PartialEq)]
struct Footprint {
    /// Threads of the server's reader pool (`convgpu-ipc-conn-N`, a
    /// `comm` cut to 15 bytes) and of the program pool.
    readers: usize,
    programs: usize,
    /// Every other thread.
    others: usize,
    fds: usize,
    /// `base_dir` entries: spare volumes, and every other one.
    spares: usize,
    entries: usize,
    text: String,
}

/// This process' footprint, read once the thread count has stopped
/// falling.
fn footprint(convgpu: &ConVGpu) -> Footprint {
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut tasks = entries("/proc/self/task");
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = entries("/proc/self/task");
        if now >= tasks || Instant::now() >= deadline {
            break;
        }
        tasks = now;
    }
    let (readers, programs) = (
        threads_named("convgpu-ipc-con"),
        threads_named("convgpu-program"),
    );
    let base_dir = convgpu.service().base_dir();
    let spares = std::fs::read_dir(base_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|name| name.to_string_lossy().starts_with(".spare-"))
        .count();
    Footprint {
        readers,
        programs,
        others: entries("/proc/self/task") - readers - programs,
        fds: entries("/proc/self/fd"),
        spares,
        entries: entries(base_dir) - spares,
        text: convgpu.metrics_text(),
    }
}

/// One container lifecycle. While the program holds its allocation the
/// container's own socket path must exist and lead to the daemon.
fn lifecycle(convgpu: &ConVGpu) {
    let (release, held) = channel::<()>();
    let program = Box::new(FnProgram::new("hold", move |api, pid, _clock| {
        let p = api.cuda_malloc(pid, Bytes::mib(128))?;
        let _ = held.recv();
        api.cuda_free(pid, p)
    }));
    let session = convgpu
        .run_container(RunCommand::new("cuda-app").nvidia_memory("512m"), program)
        .unwrap();
    let id = session.container;
    let sock = convgpu.service().socket_path(id);
    assert!(sock.exists(), "{} while {id} runs", sock.display());
    SchedulerClient::connect(&sock).unwrap().ping().unwrap();
    release.send(()).unwrap();
    session.wait().unwrap();
    let state = convgpu
        .service()
        .with_scheduler(|s| s.container(id).unwrap().state);
    assert_eq!(state, ContainerState::Closed, "{id} after its session");
    assert!(!sock.exists(), "{} after {id} closed", sock.display());
}

/// This process' resident set, in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// `n` malloc/done/free cycles of 1 MiB on `id`, through the service.
fn cycles(service: &InProcEndpoint, id: ContainerId, n: u64) {
    for _ in 0..n {
        let decision = service.request_alloc(id, 1, Bytes::mib(1), ApiKind::Malloc);
        assert_eq!(decision.unwrap(), AllocDecision::Granted);
        service.alloc_done(id, 1, 0x1000, Bytes::mib(1)).unwrap();
        assert_eq!(service.free(id, 1, 0x1000).unwrap(), Bytes::mib(1));
    }
}

fn run(convgpu: &ConVGpu, lifecycles: u64) {
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| (0..lifecycles / CLIENTS).for_each(|_| lifecycle(convgpu)));
        }
    });
}

#[test]
fn three_hundred_lifecycles_leave_the_footprint_of_ten() {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.001,
        latency: LatencyModel::zero(),
        engine: EngineConfig::instant(),
        ..ConVGpuConfig::default()
    })
    .unwrap();

    run(&convgpu, WARM_LIFECYCLES);
    let before = footprint(&convgpu);
    run(&convgpu, LIFECYCLES - WARM_LIFECYCLES);
    let after = footprint(&convgpu);

    // Kept between containers, and no more than the caps.
    for f in [&before, &after] {
        assert!(f.readers >= 1 && f.readers <= MAX_IDLE_THREADS, "{f:?}");
        assert!(f.programs >= 1 && f.programs <= MAX_IDLE_THREADS, "{f:?}");
        assert!(f.spares >= 1 && f.spares <= SPARE_VOLUMES, "{f:?}");
    }
    assert_eq!(before.others, after.others, "threads besides the pools");
    assert!(
        after.fds <= before.fds + SLACK,
        "fds {} -> {}",
        before.fds,
        after.fds
    );
    // The daemon socket, and nothing per closed container.
    assert_eq!(
        (before.entries, after.entries),
        (1, 1),
        "entries in base_dir"
    );
    assert!(convgpu.socket_path().exists());
    assert_eq!(threads_named("convgpu-ipc-acc"), 1, "accept threads");
    // Closed containers' series are gone: the wire still carries the whole
    // text (plus the series counting this very `query_metrics`), which
    // has the same series as after 10 lifecycles and a few more digits.
    let daemon = SchedulerClient::connect(convgpu.socket_path()).unwrap();
    let wire = daemon
        .query_metrics()
        .expect("query_metrics answers `metrics`");
    drop(daemon);
    let (text0, text) = (&before.text, &after.text);
    let series = |text: &str| text.lines().count();
    assert!(series(&wire) > series(text), "exposition over the wire");
    assert_eq!(series(text0), series(text), "exposition lines");
    assert!(
        text.len() <= text0.len() + TEXT_SLACK,
        "exposition {} -> {} bytes",
        text0.len(),
        text.len()
    );

    assert_eq!(convgpu.metrics().len() as u64, LIFECYCLES);
    convgpu.service().with_backend(|b| {
        assert_eq!(b.primary().total_assigned(), Bytes::ZERO);
        b.check_invariants().unwrap();
    });
    let (free, total) = convgpu.device().mem_info();
    assert_eq!(free, total);

    // Flat in operations served: one open container, many cycles.
    let id = ContainerId(10_000);
    let service = InProcEndpoint::new(Arc::clone(convgpu.service()));
    service.register(id, Bytes::mib(64)).unwrap();
    cycles(&service, id, WARM_CYCLES);
    let rss0 = vm_rss_kib();
    cycles(&service, id, CYCLES);
    let rss = vm_rss_kib();
    assert!(
        rss <= rss0 + RSS_SLACK_KIB,
        "VmRSS {rss0} -> {rss} KiB over {CYCLES} malloc/done/free cycles"
    );
    service.container_close(id).unwrap();
    drop(service);
    convgpu.shutdown();
}
