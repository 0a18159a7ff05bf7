//! Probes: timed loops over single layers' public functions, fed the
//! request corpus a traced sub-run recorded (or, on `churn`, the request
//! sequence a lifecycle makes). Each returns per-layer metrics by name.

use crate::layers::{
    encode_with, multi_gpu_scheduler, read_auto, replay_request, response_for, single_gpu_backend,
    start_convgpu, table3_limit, ApiKind, Bytes, ContainerId, EchoHandler, EndpointAddr, Envelope,
    InProcEndpoint, Journal, JournalConfig, JournalOp, PolicyKind, RealClock, RecoveredHome,
    Request, Response, RunCommand, SchedulerClient, SchedulerEndpoint, SchedulerService, SimTime,
    SocketServer, WireCodec,
};
use crate::run::CheckResult;
use crate::stats;
use crate::workloads::churn;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Layer = BTreeMap<&'static str, f64>;

/// How long a throughput-style probe loops.
const PROBE_TIME: Duration = Duration::from_millis(150);

/// The requests one `churn` lifecycle puts on the wire and through the
/// service, for `containers` lifecycles in sequence.
pub fn churn_corpus(containers: u64) -> Vec<Request> {
    let mut out = Vec::new();
    for c in 1..=containers {
        let (container, pid) = (ContainerId(c), 100_000 + c);
        out.push(Request::Register {
            container,
            limit: Bytes::mib(churn::LIMIT_MIB),
        });
        out.push(Request::RequestDir { container });
        for i in 0..churn::MALLOCS as u64 {
            let size = Bytes::mib(churn::MALLOC_MIB);
            out.push(Request::AllocRequest {
                container,
                pid,
                size,
                api: ApiKind::Malloc,
            });
            out.push(Request::AllocDone {
                container,
                pid,
                addr: c * 16 + i,
                size,
            });
        }
        out.push(Request::ProcessExit { container, pid });
        out.push(Request::ContainerClose { container });
    }
    out
}

/// Encode and decode cost of the corpus (requests and their replies) in
/// one codec: `encode_with` and `read_auto`, as client and server use.
pub fn codec(corpus: &[Request], codec: WireCodec, out: &mut Layer) {
    let (enc, dec, bytes) = match codec {
        WireCodec::Json => (
            "ipc.codec_json.encode_ns_per_msg",
            "ipc.codec_json.decode_ns_per_msg",
            "ipc.codec_json.bytes_per_msg",
        ),
        WireCodec::Binary => (
            "ipc.codec_binary.encode_ns_per_msg",
            "ipc.codec_binary.decode_ns_per_msg",
            "ipc.codec_binary.bytes_per_msg",
        ),
    };
    if corpus.is_empty() {
        return;
    }
    let requests: Vec<Envelope<Request>> = corpus
        .iter()
        .enumerate()
        .map(|(i, r)| Envelope {
            id: i as u64 + 1,
            body: r.clone(),
        })
        .collect();
    let responses: Vec<Envelope<Response>> = corpus
        .iter()
        .enumerate()
        .map(|(i, r)| Envelope {
            id: i as u64 + 1,
            body: response_for(r),
        })
        .collect();
    let msgs = (requests.len() + responses.len()) as f64;

    let (mut passes, mut wire_req, mut wire_resp) = (0u32, Vec::new(), Vec::new());
    let started = Instant::now();
    while passes == 0 || started.elapsed() < PROBE_TIME {
        wire_req.clear();
        wire_resp.clear();
        for m in &requests {
            wire_req.extend_from_slice(&encode_with(black_box(m), codec));
        }
        for m in &responses {
            wire_resp.extend_from_slice(&encode_with(black_box(m), codec));
        }
        passes += 1;
    }
    out.insert(
        enc,
        started.elapsed().as_nanos() as f64 / (f64::from(passes) * msgs),
    );
    out.insert(bytes, (wire_req.len() + wire_resp.len()) as f64 / msgs);

    let mut passes = 0u32;
    let started = Instant::now();
    while passes == 0 || started.elapsed() < PROBE_TIME {
        let mut r = &wire_req[..];
        while let Ok(Some((m, _))) = read_auto::<Envelope<Request>, _>(&mut r) {
            black_box(m);
        }
        let mut r = &wire_resp[..];
        while let Ok(Some((m, _))) = read_auto::<Envelope<Response>, _>(&mut r) {
            black_box(m);
        }
        passes += 1;
    }
    out.insert(
        dec,
        started.elapsed().as_nanos() as f64 / (f64::from(passes) * msgs),
    );
}

/// Round trip of the smallest frame against a handler that does nothing:
/// the floor under every socket op.
pub fn unix_echo(dir: &Path, out: &mut Layer) -> CheckResult<()> {
    let socket = dir.join("echo.sock");
    let server =
        SocketServer::bind_endpoint(&EndpointAddr::from(socket.as_path()), Arc::new(EchoHandler))
            .map_err(|e| format!("echo probe: bind: {e}"))?;
    let client = SchedulerClient::connect_with_codec(&socket, WireCodec::Json, None)
        .map_err(|e| format!("echo probe: connect: {e}"))?;
    let mut rtt = Vec::with_capacity(4096);
    for i in 0..4500 {
        let t0 = Instant::now();
        client
            .ping()
            .map_err(|e| format!("echo probe: ping: {e}"))?;
        if i >= 500 {
            rtt.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(client);
    server.shutdown();
    out.insert(
        "ipc.transport.unix_echo_rtt_us_p50",
        stats::quantile(&rtt, 0.50),
    );
    out.insert(
        "ipc.transport.unix_echo_rtt_us_p95",
        stats::quantile(&rtt, 0.95),
    );
    Ok(())
}

/// What a container's own socket costs before its first request:
/// bind + connect + first ping + shutdown.
pub fn conn_setup(dir: &Path, out: &mut Layer) -> CheckResult<()> {
    let mut samples = Vec::with_capacity(200);
    for i in 0..220 {
        let socket = dir.join(format!("c{i}.sock"));
        let t0 = Instant::now();
        let server = SocketServer::bind_endpoint(
            &EndpointAddr::from(socket.as_path()),
            Arc::new(EchoHandler),
        )
        .map_err(|e| format!("conn probe: bind: {e}"))?;
        let client = SchedulerClient::connect_with_codec(&socket, WireCodec::Json, None)
            .map_err(|e| format!("conn probe: connect: {e}"))?;
        client
            .ping()
            .map_err(|e| format!("conn probe: ping: {e}"))?;
        drop(client);
        server.shutdown();
        if i >= 20 {
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    out.insert("ipc.server.conn_setup_us_p50", stats::median(&samples));
    Ok(())
}

/// The corpus straight into the service through `InProcEndpoint`: the
/// same ops with no codec, socket or server thread.
pub fn inproc(corpus: &[Request], dir: &Path, out: &mut Layer) {
    if corpus.is_empty() {
        return;
    }
    let (mut passes, mut ops) = (0u32, 0u64);
    let mut spent = Duration::ZERO;
    while passes == 0 || spent < PROBE_TIME {
        let service = Arc::new(SchedulerService::new_with_backend(
            single_gpu_backend(PolicyKind::BestFit, 1),
            RealClock::handle(),
            dir.join(format!("inproc{passes}")),
        ));
        let endpoint = InProcEndpoint::new(service);
        let t0 = Instant::now();
        for req in corpus {
            replay_request(&endpoint, black_box(req));
        }
        spent += t0.elapsed();
        ops += corpus.len() as u64;
        passes += 1;
    }
    out.insert(
        "core.service.inproc_op_ns",
        spent.as_nanos() as f64 / ops as f64,
    );
}

/// The journal's three costs at the workload's shape: buffered append,
/// a drained batch written to the log, and a compaction at the peak
/// home-map size.
pub fn journal(dir: &Path, peak_homes: u64, out: &mut Layer) -> CheckResult<()> {
    let io = |what: &str, e: std::io::Error| format!("journal probe: {what}: {e}");
    let (mut journal, mut wal, _) =
        Journal::open(JournalConfig::new(dir.join("journal-probe"))).map_err(|e| io("open", e))?;
    // The record mix of one routed container: place, 16×(done, free),
    // exit, close.
    let ops_for = |c: u64| -> Vec<JournalOp> {
        let container = ContainerId(c);
        let mut ops = vec![JournalOp::Place {
            container,
            node: format!("n{}", c % 2),
            limit: table3_limit(c),
            hint: table3_limit(c) + Bytes::mib(66),
        }];
        for _ in 0..16 {
            ops.push(JournalOp::AllocDone {
                container,
                pid: 100_000 + c,
                size: Bytes::mib(17),
            });
            ops.push(JournalOp::Free {
                container,
                pid: 100_000 + c,
                size: Bytes::mib(17),
            });
        }
        ops.push(JournalOp::ProcessExit {
            container,
            pid: 100_000 + c,
        });
        ops.push(JournalOp::Close { container });
        ops
    };
    let records: Vec<JournalOp> = (1..=4u64).flat_map(ops_for).collect();

    // A batch is what accumulates between two 25 ms flushes at this
    // workload's rate: about one hundred records.
    let (mut append_ns, mut appended) = (0u128, 0u64);
    let (mut flush_us, mut batch_bytes, mut batch_records) = (Vec::new(), 0usize, 0u64);
    let started = Instant::now();
    let mut now_us = 0u64;
    while flush_us.len() < 8 || started.elapsed() < PROBE_TIME {
        let t0 = Instant::now();
        for op in &records {
            wal.append(black_box(op));
        }
        append_ns += t0.elapsed().as_nanos();
        appended += records.len() as u64;
        now_us += 25_000;
        let t0 = Instant::now();
        let batch = wal.take_batch(SimTime::from_nanos(now_us * 1_000));
        journal
            .write_batch(&batch)
            .map_err(|e| io("write_batch", e))?;
        flush_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        batch_bytes += batch.len();
        batch_records += records.len() as u64;
    }
    out.insert(
        "core.journal.append_ns_per_record",
        append_ns as f64 / appended as f64,
    );
    out.insert("core.journal.flush_us_per_batch", stats::median(&flush_us));
    out.insert(
        "core.journal.bytes_per_record",
        batch_bytes as f64 / batch_records as f64,
    );

    let homes: BTreeMap<ContainerId, RecoveredHome> = (1..=peak_homes)
        .map(|c| {
            (
                ContainerId(c),
                RecoveredHome {
                    node: format!("n{}", c % 2),
                    limit: table3_limit(c),
                    hint: table3_limit(c) + Bytes::mib(66),
                    used_by_pid: BTreeMap::from([(100_000 + c, Bytes::mib(49))]),
                },
            )
        })
        .collect();
    let mut snapshot_ms = Vec::new();
    for _ in 0..12 {
        wal.append(&records[0]);
        now_us += 25_000;
        let t0 = Instant::now();
        let covered = wal.begin_snapshot(SimTime::from_nanos(now_us * 1_000));
        journal
            .snapshot(covered, &homes)
            .map_err(|e| io("snapshot", e))?;
        snapshot_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
    }
    out.insert("core.journal.snapshot_ms", stats::median(&snapshot_ms));
    Ok(())
}

/// Placement + registration on a two-device node, with the matching
/// close, straight on `MultiGpuScheduler`.
pub fn multi_gpu_register(out: &mut Layer) {
    let mut sched = multi_gpu_scheduler(2, 1);
    let (mut pairs, mut id) = (0u64, 1u64);
    let started = Instant::now();
    while pairs == 0 || started.elapsed() < PROBE_TIME {
        for _ in 0..256 {
            let now = SimTime::from_nanos(id * 1_000);
            let _ = black_box(sched.register(ContainerId(id), table3_limit(id), now));
            let _ = black_box(sched.container_close(ContainerId(id), now));
            id += 1;
        }
        pairs += 256;
    }
    out.insert(
        "scheduler.multi_gpu.register_ns",
        started.elapsed().as_nanos() as f64 / pairs as f64,
    );
}

/// The two halves of Fig. 5: `nvidia_docker().run()` (register, dir,
/// create, start — "with ConVGPU") and `run_unmanaged` (create, start —
/// "without"). Each container is stopped so the plugin closes it.
pub fn creation(dir: &Path, out: &mut Layer) -> CheckResult<()> {
    let convgpu = start_convgpu(&dir.join("create-probe"))
        .map_err(|e| format!("create probe: start: {e}"))?;
    let cmd = RunCommand::new("cuda-app").nvidia_memory("256m");
    let (mut managed, mut unmanaged) = (Vec::new(), Vec::new());
    let mut last = None;
    for i in 0..220 {
        let t0 = Instant::now();
        let prepared = convgpu
            .nvidia_docker()
            .run(&cmd)
            .map_err(|e| format!("create probe: run: {e}"))?;
        let took = t0.elapsed();
        let _ = convgpu.engine().stop(prepared.id, 0);
        last = Some(prepared.id);
        let t0 = Instant::now();
        let id = convgpu
            .nvidia_docker()
            .run_unmanaged(&cmd)
            .map_err(|e| format!("create probe: run_unmanaged: {e}"))?;
        let took_unmanaged = t0.elapsed();
        let _ = convgpu.engine().stop(id, 0);
        if i >= 20 {
            managed.push(took.as_nanos() as f64 / 1e3);
            unmanaged.push(took_unmanaged.as_nanos() as f64 / 1e3);
        }
    }
    if let Some(id) = last {
        convgpu.wait_closed(id, Duration::from_secs(5));
    }
    convgpu.shutdown();
    out.insert("core.nvidia_docker.run_us_p50", stats::median(&managed));
    out.insert(
        "container_rt.create_start_us_p50",
        stats::median(&unmanaged),
    );
    Ok(())
}
