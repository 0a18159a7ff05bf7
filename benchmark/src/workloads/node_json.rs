//! `node_json` — the paper's single-node deployment on the grant fast
//! path (Fig. 4): `WrapperModule` → `SchedulerClient` (JSON) → UNIX
//! socket → `SocketServer` + `ServiceHandler` → single-GPU `Scheduler`.
//! Containers stay far under their 1 GiB limit on the 5 GiB card, so the
//! policy never runs: codec, transport, server thread and wrapper do the
//! work. Closed loop, two client threads on two connections.

use super::{drive_container, ClientStats, CLIENTS};
use crate::gen::{scripts_for, ContainerScript, NODE_JSON_SHAPE};
use crate::layers::{
    raw_runtime, serve_backend, single_gpu_backend, Bytes, ContainerId, CudaApi, PolicyKind,
    SchedulerBackend, SchedulerClient, SchedulerEndpoint, TracedEndpoint, WireCodec,
};
use crate::run::{ensure, CheckResult, Meter, SubCx, SubRun};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// See `workloads::ops_per_second`.
pub const OPS_PER_SECOND: u64 = 48_000;

/// Drive `scripts` (warm-up first, then the timed ones) from `CLIENTS`
/// threads against whatever `connect` reaches. Shared with
/// `routed_journal`, which differs only in the stack behind the socket.
/// Returns the filled sub-run record (set-up time measured from
/// `setup_started`; `ipc.requests` / `ipc.errors` of a traced run).
pub fn run_clients(
    cx: &SubCx,
    setup_started: Instant,
    warm: &[ContainerScript],
    timed: &[ContainerScript],
    connect: &(dyn Fn() -> CheckResult<Arc<dyn SchedulerEndpoint>> + Sync),
    raw_for: &(dyn Fn(usize) -> Arc<dyn CudaApi> + Sync),
) -> CheckResult<SubRun> {
    let mut run = SubRun::default();
    let tracing = cx.tracer.is_some();
    let barrier = Barrier::new(CLIENTS + 1);
    let (results, meter) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(
                    move || -> CheckResult<(ClientStats, Option<Arc<TracedEndpoint>>)> {
                        let plain = connect();
                        let raw = raw_for(t);
                        let mut stats = ClientStats::default();
                        // Warm-up containers take ids above the timed range
                        // and are never traced.
                        if let Ok(ep) = &plain {
                            for (i, script) in warm.iter().enumerate().skip(t).step_by(CLIENTS) {
                                let id = ContainerId(super::UNTIMED_ID_BASE + i as u64);
                                drive_container(ep, &raw, None, id, script, false, &mut stats);
                            }
                        }
                        barrier.wait(); // set-up done
                        barrier.wait(); // timed phase starts
                        let plain = plain?;
                        let traced = cx
                            .tracer
                            .as_ref()
                            .map(|tr| TracedEndpoint::wrap(Arc::clone(&plain), tr));
                        let ep: Arc<dyn SchedulerEndpoint> = match &traced {
                            Some(te) => Arc::clone(te) as Arc<dyn SchedulerEndpoint>,
                            None => plain,
                        };
                        let mine = || timed.iter().enumerate().skip(t).step_by(CLIENTS);
                        stats
                            .lat_us
                            .reserve(mine().map(|(_, script)| script.ops.len()).sum());
                        for (i, script) in mine() {
                            let id = ContainerId(1 + i as u64);
                            drive_container(
                                &ep,
                                &raw,
                                cx.tracer.as_ref(),
                                id,
                                script,
                                true,
                                &mut stats,
                            );
                        }
                        Ok((stats, traced))
                    },
                )
            })
            .collect();
        barrier.wait();
        run.setup_s = setup_started.elapsed().as_secs_f64();
        let meter = Meter::start(tracing);
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, meter)
    });
    meter.finish(tracing, &mut run);
    let mut stats = Vec::new();
    let (mut calls, mut errors) = (0, 0);
    for r in results {
        let (s, endpoint) = r?;
        stats.push(s);
        if let Some(e) = endpoint {
            let (c, err) = e.counts();
            calls += c;
            errors += err;
        }
    }
    ClientStats::merge_into(stats, &mut run);
    if tracing {
        run.layer.insert("ipc.requests", calls as f64);
        run.layer.insert("ipc.errors", errors as f64);
    }
    Ok(run)
}

/// Containers whose scripts make up `ops` calls (at least one per
/// client, so both connections carry load).
pub fn plan_scripts(seed: u64, ops: u64, shape: &crate::gen::ScriptShape) -> Vec<ContainerScript> {
    let mut scripts = scripts_for(seed, ops, shape);
    while scripts.len() < CLIENTS {
        scripts.push(crate::gen::container_script(
            seed,
            scripts.len() as u64,
            shape,
        ));
    }
    scripts
}

pub fn sub_run(cx: &SubCx) -> CheckResult<SubRun> {
    // Inputs first: generating them is the benchmark's work, not set-up.
    let timed = plan_scripts(cx.seed, cx.ops, &NODE_JSON_SHAPE);
    let warm = plan_scripts(cx.seed ^ 0x5eed_cafe, cx.warm_ops, &NODE_JSON_SHAPE);

    let setup_started = Instant::now();
    let socket = cx.dir.join("sched.sock");
    let served = serve_backend(
        single_gpu_backend(PolicyKind::BestFit, cx.seed),
        &cx.dir.join("vol"),
        &socket,
        cx.tracer.as_ref().map(|t| (t, "handler", true)),
    )
    .map_err(|e| format!("node_json: serve: {e}"))?;
    let (device, raw) = raw_runtime();
    let raw: Arc<dyn CudaApi> = raw;

    let connect = || -> CheckResult<Arc<dyn SchedulerEndpoint>> {
        SchedulerClient::connect_with_codec(&socket, WireCodec::Json, None)
            .map(|c| Arc::new(c) as Arc<dyn SchedulerEndpoint>)
            .map_err(|e| format!("node_json: connect: {e}"))
    };
    let outcome = run_clients(cx, setup_started, &warm, &timed, &connect, &|_| {
        Arc::clone(&raw)
    });
    let corpus = served.traced.as_ref().map(|t| t.take_corpus());
    let service = Arc::clone(&served.service);
    served.server.shutdown();
    let mut run = outcome?;
    run.label = "best-fit".into();

    // Correctness: exact decision counts, empty books, invariants.
    let grants: u64 = timed.iter().chain(&warm).map(|s| s.expected_grants()).sum();
    let rejects: u64 = timed
        .iter()
        .chain(&warm)
        .map(|s| s.expected_rejects())
        .sum();
    let containers = (timed.len() + warm.len()) as u64;
    service.with_backend(|b| -> CheckResult<()> {
        let s = b.primary();
        let (mut granted, mut rejected, mut open, mut suspensions, mut seen) = (0, 0, 0, 0, 0u64);
        for r in s.containers() {
            granted += r.granted_allocs;
            rejected += r.rejected_allocs;
            suspensions += r.suspend_episodes;
            open += u64::from(r.closed_at.is_none());
            seen += 1;
        }
        ensure!(
            seen == containers,
            "node_json: {seen} containers on the books, drove {containers}"
        );
        ensure!(
            granted == grants,
            "node_json: {granted} grants on the books, scripts hold {grants}"
        );
        ensure!(
            rejected == rejects,
            "node_json: {rejected} rejections on the books, scripts probe {rejects}"
        );
        ensure!(open == 0, "node_json: {open} containers still open");
        ensure!(
            suspensions == 0,
            "node_json: {suspensions} suspensions on a workload built to have none"
        );
        ensure!(
            s.total_assigned() == Bytes::ZERO,
            "node_json: {} still assigned",
            s.total_assigned()
        );
        b.check_invariants()
            .map_err(|e| format!("node_json: invariant: {e}"))
    })?;
    let (free, total) = device.mem_info();
    ensure!(
        free == total,
        "node_json: device holds {} after the run",
        total - free
    );

    if let Some(t) = &cx.tracer {
        run.corpus = corpus.unwrap_or_default();
        run.spans = super::timed_spans(t);
    }
    Ok(run)
}
