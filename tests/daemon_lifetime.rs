//! A long-lived daemon's footprint is bounded by the containers that are
//! alive, not by the containers it has ever run.
//!
//! One `ConVGpu` (real UNIX sockets) runs 300 container lifecycles, two
//! at a time. It binds one listener for its whole life; a container's
//! socket is a hard link to it inside the container's volume directory,
//! made by `request_dir` and removed with the directory when the
//! scheduler processes the close. So thread, file-descriptor and
//! `base_dir` entry counts after 300 lifecycles are what they were after
//! the first 10. So is the metrics exposition: a closed container's
//! series are retired, and what grows is only the digits of the
//! daemon-lifetime counters, so `query_metrics` keeps answering over the
//! wire.
//!
//! One `#[test]` on purpose: the counts are per process, so this file's
//! test binary must run nothing else.

use convgpu::gpu::{FnProgram, LatencyModel};
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand, TransportMode};
use convgpu::scheduler::backend::SchedulerBackend;
use convgpu::sim::units::Bytes;
use convgpu_container_rt::engine::EngineConfig;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

const CLIENTS: u64 = 2;
const WARM_LIFECYCLES: u64 = 10;
const LIFECYCLES: u64 = 300;
/// Connection threads end on their own after the client hangs up, so a
/// count read right after the last close may still see a few of them.
const SLACK: usize = 4;
/// Bytes the exposition may gain from 10 to 300 lifecycles: counts and
/// sums gaining digits, about 300 bytes. Its series are counted exactly.
const TEXT_SLACK: usize = 1024;

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

/// `(threads, open fds, base_dir entries, metrics exposition)` of this
/// process, read once the thread count has stopped falling.
fn footprint(convgpu: &ConVGpu) -> (usize, usize, usize, String) {
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
    (
        entries("/proc/self/task"),
        entries("/proc/self/fd"),
        entries(convgpu.service().base_dir()),
        convgpu.metrics_text(),
    )
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
    assert!(convgpu.wait_closed(id, Duration::from_secs(10)));
    assert!(!sock.exists(), "{} after {id} closed", sock.display());
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
        transport: TransportMode::UnixSocket,
        ..ConVGpuConfig::default()
    })
    .unwrap();

    run(&convgpu, WARM_LIFECYCLES);
    let (tasks0, fds0, entries0, text0) = footprint(&convgpu);
    run(&convgpu, LIFECYCLES - WARM_LIFECYCLES);
    let (tasks, fds, entries, text) = footprint(&convgpu);

    assert!(tasks <= tasks0 + SLACK, "threads {tasks0} -> {tasks}");
    assert!(fds <= fds0 + SLACK, "fds {fds0} -> {fds}");
    // The daemon socket, and nothing per closed container.
    assert_eq!((entries0, entries), (1, 1), "entries in base_dir");
    assert!(convgpu.socket_path().unwrap().exists());
    assert_eq!(threads_named("convgpu-ipc-acc"), 1, "accept threads");
    // Closed containers' series are gone: the wire still carries the whole
    // text (plus the series counting this very `query_metrics`), which
    // has the same series as after 10 lifecycles and a few more digits.
    let daemon = SchedulerClient::connect(convgpu.socket_path().unwrap()).unwrap();
    let wire = daemon
        .query_metrics()
        .expect("query_metrics answers `metrics`");
    drop(daemon);
    let series = |text: &str| text.lines().count();
    assert!(series(&wire) > series(&text), "exposition over the wire");
    assert_eq!(series(&text0), series(&text), "exposition lines");
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
    convgpu.shutdown();
}
