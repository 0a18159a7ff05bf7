//! End-to-end observability: the acceptance criteria of the obs layer.
//!
//! * A live daemon run (real UNIX sockets) must answer, **from the
//!   Prometheus exposition text alone**: each container's suspend count
//!   and total suspended time, a per-message-type IPC latency histogram
//!   with p50/p99, and the policy decision counts.
//! * A fixed three-container FIFO scenario must produce the span tree
//!   checked in at `tests/golden/fifo_three_containers.trace`
//!   (canonicalized — ids and absolute times do not matter). Re-bless
//!   with `UPDATE_GOLDEN=1 cargo test --test observability`.
//! * The Chrome-trace export must be well-formed, non-empty JSON.

use convgpu::gpu::{FnProgram, LatencyModel};
use convgpu::ipc::client::SchedulerClient;
use convgpu::ipc::message::ApiKind;
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand, TransportMode};
use convgpu::obs::{
    prometheus, quantile_from_cumulative, CollectorSink, Registry, SpanSink, Tracer,
};
use convgpu::scheduler::core::{AllocOutcome, SchedObs, Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::{SimDuration, SimTime};
use convgpu::sim::units::Bytes;
use convgpu_container_rt::engine::EngineConfig;
use std::sync::Arc;
use std::time::Duration;

fn fast_cfg() -> ConVGpuConfig {
    ConVGpuConfig {
        time_scale: 0.001,
        latency: LatencyModel::zero(),
        engine: EngineConfig::instant(),
        transport: TransportMode::UnixSocket,
        ..ConVGpuConfig::default()
    }
}

/// Three 2 GiB containers on the 5 GiB device: exactly one must be
/// suspended, every one completes. Returns the container ids.
///
/// Deterministic regardless of thread scheduling: granted containers
/// hold their memory until the test has *observed* a suspension on the
/// scheduler's books, so the third request always parks — a timed hold
/// would let a fast first container free before the third even starts.
fn run_contention_scenario(convgpu: &ConVGpu) -> Vec<ContainerId> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let release = Arc::new(AtomicBool::new(false));
    let mut sessions = Vec::new();
    for _ in 0..3 {
        let release = Arc::clone(&release);
        let program = Box::new(FnProgram::new("hold", move |api, pid, clock| {
            let p = api.cuda_malloc(pid, Bytes::mib(2048))?;
            while !release.load(Ordering::Acquire) {
                clock.sleep(SimDuration::from_millis(50));
            }
            api.cuda_free(pid, p)
        }));
        sessions.push(
            convgpu
                .run_container(RunCommand::new("cuda-app").nvidia_memory("2048m"), program)
                .unwrap(),
        );
    }
    let ids: Vec<ContainerId> = sessions.iter().map(|s| s.container).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !convgpu.metrics().iter().any(|m| m.suspend_episodes > 0) {
        assert!(
            std::time::Instant::now() < deadline,
            "no suspension observed while two containers hold 4 GiB of 5 GiB"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    release.store(true, Ordering::Release);
    for s in sessions {
        s.wait().unwrap();
    }
    for &id in &ids {
        assert!(convgpu.wait_closed(id, Duration::from_secs(10)));
    }
    ids
}

/// The headline acceptance test: run the live daemon, fetch the metrics
/// **over the wire** with `QueryMetrics`, and answer every operational
/// question by parsing the exposition text — no scheduler access.
#[test]
fn live_daemon_answers_operational_questions_from_exposition_text() {
    let convgpu = ConVGpu::start(fast_cfg()).unwrap();
    let ids = run_contention_scenario(&convgpu);

    // Fetch over the wire, on the operator's channel: the daemon socket
    // (the containers are closed and their volumes, socket links
    // included, are gone).
    assert!(!convgpu.service().socket_path(ids[0]).exists());
    let client = SchedulerClient::connect(convgpu.socket_path().unwrap()).unwrap();
    let text = client.query_metrics().unwrap();
    drop(client);

    let samples = prometheus::parse_text(&text).unwrap();

    // 1. Per-container suspend count and total suspended time, checked
    //    against the scheduler's own books.
    let expected = convgpu.metrics();
    let mut suspended_containers = 0;
    for m in &expected {
        let label = m.id.to_string();
        let count = samples
            .iter()
            .find(|s| {
                s.name == "convgpu_sched_suspend_seconds_count"
                    && s.has_labels(&[("container", label.as_str())])
            })
            .map(|s| s.value.round() as u64)
            .unwrap_or(0);
        assert_eq!(
            count, m.suspend_episodes,
            "{label}: exposition suspend count disagrees with the scheduler"
        );
        if m.suspend_episodes > 0 {
            suspended_containers += 1;
            let sum = samples
                .iter()
                .find(|s| {
                    s.name == "convgpu_sched_suspend_seconds_sum"
                        && s.has_labels(&[("container", label.as_str())])
                })
                .map(|s| s.value)
                .expect("suspended container must expose a _sum");
            let book = m.total_suspended.as_secs_f64();
            assert!(
                (sum - book).abs() <= book * 0.01 + 1e-6,
                "{label}: exposition total {sum}s vs books {book}s"
            );
        }
    }
    assert!(
        suspended_containers >= 1,
        "the scenario must suspend at least one container"
    );

    // 2. Per-message-type IPC latency histograms answer p50/p99.
    for (name, ty) in [
        ("convgpu_ipc_server_handle_seconds", "alloc_request"),
        ("convgpu_ipc_client_rtt_seconds", "alloc_request"),
        ("convgpu_ipc_server_handle_seconds", "free"),
    ] {
        let buckets = prometheus::histogram_buckets(&samples, name, &[("type", ty)]);
        assert!(!buckets.is_empty(), "{name}{{type={ty}}} missing");
        let p50 = quantile_from_cumulative(&buckets, 0.5);
        let p99 = quantile_from_cumulative(&buckets, 0.99);
        assert!(p50.is_some() && p99.is_some(), "{name}{{type={ty}}} empty");
        assert!(
            p50.unwrap() <= p99.unwrap(),
            "{name}{{type={ty}}}: p50 above p99"
        );
    }
    // Turnaround (receipt → reply) of a suspended alloc_request includes
    // the parked time, so its histogram must exist too.
    assert!(
        !prometheus::histogram_buckets(
            &samples,
            "convgpu_ipc_server_turnaround_seconds",
            &[("type", "alloc_request")],
        )
        .is_empty(),
        "turnaround histogram missing"
    );

    // 3. Policy decision counts: Best-Fit (the default) must have made at
    //    least one selection during redistribution.
    let selected: f64 = samples
        .iter()
        .filter(|s| {
            s.name == "convgpu_sched_policy_decisions_total"
                && s.has_labels(&[("policy", "BF"), ("outcome", "selected")])
        })
        .map(|s| s.value)
        .sum();
    assert!(
        selected >= 1.0,
        "redistribution must have recorded a policy selection"
    );

    // 4. Scheduler decision counters cover the whole lifecycle. A parked
    //    request's eventual grant counts as `resumed`, not `granted`, so
    //    granted + resumed must cover all three containers.
    let count_kind = |kind: &str| -> f64 {
        samples
            .iter()
            .filter(|s| {
                s.name == "convgpu_sched_decisions_total" && s.has_labels(&[("kind", kind)])
            })
            .map(|s| s.value)
            .sum()
    };
    for kind in ["registered", "closed"] {
        let n = count_kind(kind);
        assert!(n >= 3.0, "expected ≥3 {kind} decisions, saw {n}");
    }
    let served = count_kind("granted") + count_kind("resumed");
    assert!(
        served >= 3.0,
        "granted+resumed must cover all three: {served}"
    );
    assert!(count_kind("suspended") >= 1.0, "no suspension recorded");

    // 5. Wrapper-side instrumentation saw the CUDA calls.
    let malloc_calls: f64 = samples
        .iter()
        .filter(|s| {
            s.name == "convgpu_wrapper_calls_total" && s.has_labels(&[("api", "cuda_malloc")])
        })
        .map(|s| s.value)
        .sum();
    assert!(
        malloc_calls >= 3.0,
        "wrapper malloc counter: {malloc_calls}"
    );

    convgpu.shutdown();
}

/// Drive the fixed FIFO scenario and return the canonical span tree.
///
/// Deterministic by construction: the scheduler is driven directly with
/// explicit `SimTime`s (the same state machine the daemon wraps), so the
/// decision order — the only thing the canonical rendering keeps — never
/// depends on thread scheduling or machine speed.
fn golden_scenario_canonical() -> String {
    let registry = Arc::new(Registry::new());
    let tracer = Arc::new(Tracer::new());
    let collector = Arc::new(CollectorSink::new());
    tracer.add_sink(Arc::clone(&collector) as Arc<dyn SpanSink>);

    let mut sched = Scheduler::new(
        SchedulerConfig::with_capacity(Bytes::mib(5120)),
        PolicyKind::Fifo.build(0),
    );
    sched.attach_obs(SchedObs::new(registry, tracer));

    let t = SimTime::from_secs;
    let c1 = ContainerId(1);
    let c2 = ContainerId(2);
    let c3 = ContainerId(3);
    for (i, c) in [c1, c2, c3].into_iter().enumerate() {
        sched
            .register(c, Bytes::mib(2048), t(1 + i as u64))
            .unwrap();
    }
    // c1 and c2 hold their full limits; c3's reservation is partial, so
    // its limit-sized request parks.
    let (o1, _) = sched
        .alloc_request(c1, 1, Bytes::mib(2048), ApiKind::Malloc, t(11))
        .unwrap();
    assert_eq!(o1, AllocOutcome::Granted);
    sched
        .alloc_done(c1, 1, 0xA1, Bytes::mib(2048), t(11))
        .unwrap();
    let (o2, _) = sched
        .alloc_request(c2, 2, Bytes::mib(2048), ApiKind::Malloc, t(12))
        .unwrap();
    assert_eq!(o2, AllocOutcome::Granted);
    sched
        .alloc_done(c2, 2, 0xA2, Bytes::mib(2048), t(12))
        .unwrap();
    let (o3, _) = sched
        .alloc_request(c3, 3, Bytes::mib(2048), ApiKind::Malloc, t(13))
        .unwrap();
    assert!(matches!(o3, AllocOutcome::Suspended { .. }), "{o3:?}");
    // c1 exits: redistribution fully guarantees c3 and resumes it.
    let resumed = sched.container_close(c1, t(20)).unwrap();
    assert_eq!(resumed.len(), 1);
    sched
        .alloc_done(c3, 3, 0xA3, Bytes::mib(2048), t(20))
        .unwrap();
    sched.container_close(c2, t(25)).unwrap();
    sched.container_close(c3, t(30)).unwrap();
    sched.check_invariants().unwrap();

    convgpu::obs::render_canonical(&collector.records())
}

#[test]
fn golden_trace_matches_fifo_three_container_scenario() {
    let got = golden_scenario_canonical();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fifo_three_containers.trace"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing — bless with UPDATE_GOLDEN=1 cargo test --test observability");
    assert_eq!(
        got, want,
        "span tree drifted from the golden trace; if intended, re-bless \
         with UPDATE_GOLDEN=1 cargo test --test observability"
    );
}

/// The same scenario twice must canonicalize identically (no hidden
/// nondeterminism in the instrumentation itself).
#[test]
fn golden_scenario_is_deterministic() {
    assert_eq!(golden_scenario_canonical(), golden_scenario_canonical());
}

#[test]
fn chrome_trace_export_is_valid_nonempty_json() {
    let convgpu = ConVGpu::start(fast_cfg()).unwrap();
    run_contention_scenario(&convgpu);
    let trace = convgpu.chrome_trace();
    convgpu.shutdown();
    let parsed = convgpu::ipc::json::parse(&trace).unwrap();
    match parsed {
        convgpu::ipc::json::Json::Arr(events) => {
            assert!(!events.is_empty(), "trace export has no events");
            for e in &events {
                assert!(e.get("name").is_some(), "event without name: {e:?}");
                assert!(e.get("ph").is_some(), "event without phase: {e:?}");
            }
        }
        other => panic!("chrome trace is not a JSON array: {other:?}"),
    }
}

/// Per-container series never retire, so a lived-in daemon's exposition
/// outgrows the 64 KiB frame cap. The server must answer that
/// `query_metrics` with an `error` — a frame the client's reader would
/// reject takes the connection, and every caller sharing it, down.
#[test]
fn oversized_metrics_reply_is_an_error_on_a_connection_that_stays_up() {
    use convgpu::ipc::endpoint::{IpcError, SchedulerEndpoint};
    use convgpu::ipc::MAX_FRAME_BYTES;

    let convgpu = ConVGpu::start(fast_cfg()).unwrap();
    let run_one = || {
        let program = Box::new(FnProgram::new("touch", |api, pid, _clock| {
            let p = api.cuda_malloc(pid, Bytes::mib(16))?;
            api.cuda_free(pid, p)
        }));
        let session = convgpu
            .run_container(RunCommand::new("cuda-app").nvidia_memory("64m"), program)
            .unwrap();
        let id = session.container;
        session.wait().unwrap();
        assert!(convgpu.wait_closed(id, Duration::from_secs(10)));
    };
    run_one();
    let client = SchedulerClient::connect(convgpu.socket_path().unwrap()).unwrap();
    assert!(client.query_metrics().unwrap().len() < MAX_FRAME_BYTES);

    let mut containers = 1;
    while convgpu.metrics_text().len() <= MAX_FRAME_BYTES {
        assert!(containers < 1000, "exposition never outgrew the frame cap");
        run_one();
        containers += 1;
    }
    match client.query_metrics() {
        Err(IpcError::Scheduler(message)) => {
            assert!(message.contains("exceeds"), "{message}");
            assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
        }
        other => panic!("after {containers} containers: {other:?}"),
    }
    client.ping().expect("the same connection still answers");
    drop(client);
    convgpu.shutdown();
}

/// The in-proc transport shares the same hub: metrics_text works there
/// too (no sockets, no ServerObs — scheduler + wrapper metrics only).
#[test]
fn in_proc_transport_still_exposes_scheduler_metrics() {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        transport: TransportMode::InProc,
        ..fast_cfg()
    })
    .unwrap();
    run_contention_scenario(&convgpu);
    let samples = prometheus::parse_text(&convgpu.metrics_text()).unwrap();
    convgpu.shutdown();
    assert!(samples
        .iter()
        .any(|s| s.name == "convgpu_sched_decisions_total"));
    assert!(samples
        .iter()
        .any(|s| s.name == "convgpu_wrapper_calls_total"));
}
