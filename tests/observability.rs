//! End-to-end observability: the acceptance criteria of the obs layer.
//!
//! * A live daemon run (real UNIX sockets) must answer, **from the
//!   Prometheus exposition text alone**: each open container's suspend
//!   count and total suspended time, a per-message-type IPC latency
//!   histogram with p50/p99, and the policy decision counts — and once
//!   every container has closed, no per-container series remains while
//!   the daemon-lifetime families still count them.
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
/// suspended, every one completes. `while_resumed` runs once the
/// suspended container has been resumed, has freed its memory and is
/// still open; the others have closed by then. Returns the container ids.
///
/// Deterministic regardless of thread scheduling: granted containers
/// hold their memory until the test has *observed* a suspension on the
/// scheduler's books, so the third request always parks — a timed hold
/// would let a fast first container free before the third even starts.
/// The third container is the suspended one: it registers last, when
/// only a partial reservation is left for it.
fn run_contention_scenario(convgpu: &ConVGpu, while_resumed: impl FnOnce()) -> Vec<ContainerId> {
    use std::sync::atomic::{AtomicBool, Ordering};
    let wait = |flag: &AtomicBool, clock: &convgpu::sim::clock::ClockHandle| {
        while !flag.load(Ordering::Acquire) {
            clock.sleep(SimDuration::from_millis(50));
        }
    };
    // Gate 1 lets the holders free; gate 2 lets the resumed one exit.
    let (release, exit, parked) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    let mut sessions = Vec::new();
    for i in 0..3 {
        let (release, exit, parked) = (release.clone(), exit.clone(), parked.clone());
        let program = Box::new(FnProgram::new("hold", move |api, pid, clock| {
            let p = api.cuda_malloc(pid, Bytes::mib(2048))?;
            wait(&release, clock);
            api.cuda_free(pid, p)?;
            if i == 2 {
                parked.store(true, Ordering::Release);
                wait(&exit, clock);
            }
            Ok(())
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
    while !parked.load(Ordering::Acquire) {
        assert!(
            std::time::Instant::now() < deadline,
            "the suspended container never resumed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    for &id in &ids[..2] {
        assert!(convgpu.wait_closed(id, Duration::from_secs(10)));
    }
    while_resumed();
    exit.store(true, Ordering::Release);
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
/// question by parsing the exposition text — no scheduler access. Asked
/// while the suspended container has resumed but is still open, and again
/// once every container has closed.
#[test]
fn live_daemon_answers_operational_questions_from_exposition_text() {
    let convgpu = ConVGpu::start(fast_cfg()).unwrap();
    // The operator's channel: the daemon socket, not a container's link.
    let client = SchedulerClient::connect(convgpu.socket_path().unwrap()).unwrap();
    let query = || prometheus::parse_text(&client.query_metrics().unwrap()).unwrap();
    let mut open = None;
    let ids = run_contention_scenario(&convgpu, || open = Some((query(), convgpu.metrics())));
    let (samples, books) = open.unwrap();
    let sample = |name: &str, labels: &[(&str, &str)]| {
        samples
            .iter()
            .find(|s| s.name == name && s.has_labels(labels))
            .map(|s| s.value)
    };

    // 1. Per-container suspend count and total suspended time, checked
    //    against the scheduler's own books. The two containers that have
    //    closed already left no series behind.
    let mut suspended_containers = 0;
    for m in &books {
        let label = m.id.to_string();
        let container = [("container", label.as_str())];
        if m.closed_at.is_some() {
            assert!(
                !samples.iter().any(|s| s.has_labels(&container)),
                "{label} closed but its series remain"
            );
            continue;
        }
        let count = sample("convgpu_sched_suspend_seconds_count", &container);
        assert_eq!(
            count.map_or(0, |c| c.round() as u64),
            m.suspend_episodes,
            "{label}: exposition suspend count disagrees with the scheduler"
        );
        if m.suspend_episodes > 0 {
            suspended_containers += 1;
            let sum = sample("convgpu_sched_suspend_seconds_sum", &container)
                .expect("suspended container must expose a _sum");
            let book = m.total_suspended.as_secs_f64();
            assert!(
                (sum - book).abs() <= book * 0.01 + 1e-6,
                "{label}: exposition total {sum}s vs books {book}s"
            );
        }
    }
    assert_eq!(
        suspended_containers, 1,
        "the open container must be the resumed one"
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
    let turnaround = [("type", "alloc_request")];
    let turnaround_count = sample("convgpu_ipc_server_turnaround_seconds_count", &turnaround)
        .expect("turnaround histogram missing");

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

    // 4. Scheduler decision counters cover the whole lifecycle so far. A
    //    parked request's eventual grant counts as `resumed`, not
    //    `granted`, so granted + resumed must cover all three containers.
    let count_kind = |samples: &[prometheus::Sample], kind: &str| -> f64 {
        samples
            .iter()
            .filter(|s| {
                s.name == "convgpu_sched_decisions_total" && s.has_labels(&[("kind", kind)])
            })
            .map(|s| s.value)
            .sum()
    };
    assert!(count_kind(&samples, "registered") >= 3.0);
    assert!(count_kind(&samples, "closed") >= 2.0);
    let served = count_kind(&samples, "granted") + count_kind(&samples, "resumed");
    assert!(
        served >= 3.0,
        "granted+resumed must cover all three: {served}"
    );
    assert!(
        count_kind(&samples, "suspended") >= 1.0,
        "no suspension recorded"
    );

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

    // 6. Every container has closed (and its volume, socket link
    //    included, is gone): no per-container series remains, while the
    //    daemon-lifetime families still count the closed containers.
    assert!(!convgpu.service().socket_path(ids[2]).exists());
    let after = query();
    drop(client);
    let left: Vec<_> = after
        .iter()
        .filter(|s| s.label("container").is_some())
        .collect();
    assert!(
        left.is_empty(),
        "closed containers' series remain: {left:?}"
    );
    assert!(count_kind(&after, "closed") >= 3.0);
    let still = after
        .iter()
        .find(|s| {
            s.name == "convgpu_ipc_server_turnaround_seconds_count" && s.has_labels(&turnaround)
        })
        .map(|s| s.value);
    assert!(
        still >= Some(turnaround_count),
        "turnaround count fell from {turnaround_count} to {still:?} at close"
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
    run_contention_scenario(&convgpu, || {});
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

/// A `query_metrics` reply over the 64 KiB frame cap is answered with an
/// `error` — a frame the client's reader would reject takes the
/// connection, and every caller sharing it, down. Closed containers leave
/// no series behind, so it takes enough containers open at once to outgrow
/// the cap; once they close, the exposition fits again.
#[test]
fn oversized_metrics_reply_is_an_error_on_a_connection_that_stays_up() {
    use convgpu::ipc::endpoint::{IpcError, SchedulerEndpoint};
    use convgpu::ipc::MAX_FRAME_BYTES;

    let convgpu = ConVGpu::start(fast_cfg()).unwrap();
    let client = SchedulerClient::connect(convgpu.socket_path().unwrap()).unwrap();
    assert!(client.query_metrics().unwrap().len() < MAX_FRAME_BYTES);

    let service = convgpu.service();
    let mut open = Vec::new();
    while convgpu.metrics_text().len() <= MAX_FRAME_BYTES {
        assert!(open.len() < 5000, "exposition never outgrew the frame cap");
        let id = ContainerId(1 + open.len() as u64);
        service.register(id, Bytes::mib(16)).unwrap();
        open.push(id);
    }
    match client.query_metrics() {
        Err(IpcError::Scheduler(message)) => {
            assert!(message.contains("exceeds"), "{message}");
            assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
        }
        other => panic!("with {} containers open: {other:?}", open.len()),
    }
    client.ping().expect("the same connection still answers");

    for id in open {
        service.container_close(id).unwrap();
    }
    assert!(client.query_metrics().unwrap().len() < MAX_FRAME_BYTES);
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
    run_contention_scenario(&convgpu, || {});
    let samples = prometheus::parse_text(&convgpu.metrics_text()).unwrap();
    convgpu.shutdown();
    assert!(samples
        .iter()
        .any(|s| s.name == "convgpu_sched_decisions_total"));
    assert!(samples
        .iter()
        .any(|s| s.name == "convgpu_wrapper_calls_total"));
}
