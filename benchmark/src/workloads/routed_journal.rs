//! `routed_journal` — the cluster shape: two wrapper clients → the
//! router's front UNIX socket (`RouterHandler`, binary codec on both
//! hops) → two nodes, each a `MultiGpu` backend with 2×5 GiB behind its
//! own socket. The router is attached with its write-ahead journal at
//! the default cadence (25 ms flushes, compaction every 4096 records),
//! strategy `Spread`. Containers are short, so placement, home-map
//! mutation and journal appends run constantly; nothing ever suspends.

use super::node_json::{plan_scripts, run_clients};
use crate::gen::ROUTED_SHAPE;
use crate::layers::{
    multi_gpu_backend, raw_runtime, serve_backend, serve_router, ClusterRouter, ContainerId,
    CudaApi, Journal, JournalConfig, RealClock, RouterConfig, SchedulerBackend, SchedulerClient,
    SchedulerEndpoint, ServedService, SimDuration, SwarmStrategy, WireCodec,
};
use crate::run::{ensure, CheckResult, SubCx, SubRun};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// See `workloads::ops_per_second`.
pub const OPS_PER_SECOND: u64 = 16_000;
/// The same on two CPUs (`routed_journal_2cpu`): every hop then wakes a
/// thread on the other vCPU, and an op takes twice as long.
pub const OPS_PER_SECOND_2CPU: u64 = 8_000;

const NODES: usize = 2;
const DEVICES_PER_NODE: usize = 2;

/// Containers registered during set-up and left open to the end, so the
/// journal-replay check compares a home map that is not empty.
pub const RESIDENTS: u64 = 8;
const RESIDENT_BASE: u64 = 2_000_000;

pub fn sub_run(cx: &SubCx) -> CheckResult<SubRun> {
    let timed = plan_scripts(cx.seed, cx.ops, &ROUTED_SHAPE);
    let warm = plan_scripts(cx.seed ^ 0x5eed_cafe, cx.warm_ops, &ROUTED_SHAPE);

    let setup_started = Instant::now();
    let io = |what: &str, e: std::io::Error| format!("routed_journal: {what}: {e}");
    let mut nodes: Vec<ServedService> = Vec::with_capacity(NODES);
    let mut sockets: Vec<(String, PathBuf)> = Vec::with_capacity(NODES);
    for i in 0..NODES {
        let name = format!("n{i}");
        let dir = cx.dir.join(&name);
        let socket = dir.join("node.sock");
        nodes.push(
            serve_backend(
                multi_gpu_backend(DEVICES_PER_NODE, cx.seed.wrapping_add(i as u64)),
                &dir,
                &socket,
                cx.tracer.as_ref().map(|t| (t, "node_handler", false)),
            )
            .map_err(|e| io("serve node", e))?,
        );
        sockets.push((name, socket));
    }
    // A deadline far beyond any healthy local round trip: the retry path
    // never fires in a clean run, so its counters must read zero.
    let router_cfg = RouterConfig {
        strategy: SwarmStrategy::Spread,
        deadline: SimDuration::from_secs(30),
        seed: cx.seed,
        ..RouterConfig::default()
    };
    let journal_dir = cx.dir.join("journal");
    let router = if cx.journal_off {
        ClusterRouter::attach(sockets, WireCodec::Binary, router_cfg, RealClock::handle())
    } else {
        ClusterRouter::attach_with_journal(
            sockets,
            WireCodec::Binary,
            router_cfg,
            RealClock::handle(),
            JournalConfig::new(&journal_dir),
        )
        .map_err(|e| io("open journal", e))?
    };
    let router = Arc::new(router);
    let front_socket = cx.dir.join("front.sock");
    let (front, front_traced) = serve_router(&router, &front_socket, cx.tracer.as_ref())
        .map_err(|e| io("serve router", e))?;
    // One simulated card per client: the wrapper's inner runtime is the
    // container host's, and each client runs one container at a time.
    let raws: Vec<_> = (0..super::CLIENTS).map(|_| raw_runtime()).collect();

    for r in 0..RESIDENTS {
        // Small ones (nano..small), so they never crowd out a timed container.
        let limit = crate::layers::table3_limit(r % 3);
        ClusterRouter::register(&router, ContainerId(RESIDENT_BASE + r), limit)
            .map_err(|e| format!("routed_journal: resident register: {e}"))?;
    }

    let connect = || -> CheckResult<Arc<dyn SchedulerEndpoint>> {
        SchedulerClient::connect_with_codec(&front_socket, WireCodec::Binary, None)
            .map(|c| Arc::new(c) as Arc<dyn SchedulerEndpoint>)
            .map_err(|e| format!("routed_journal: connect: {e}"))
    };
    let outcome = run_clients(cx, setup_started, &warm, &timed, &connect, &|t| {
        Arc::clone(&raws[t].1) as Arc<dyn CudaApi>
    });

    // Read the router's books and drain its journal tail while it is
    // quiescent (the clients have finished), then stop front to back.
    // Server reader threads hold the router a moment past `shutdown`, so
    // the replay check below cannot wait for its `Drop`; `journal_flush`
    // is the same drain `Drop` runs.
    let (_, status) = router.cluster_status();
    let live_homes = router.homes_snapshot();
    router.journal_flush();
    let journal_records = router
        .obs()
        .registry
        .snapshot()
        .counter("convgpu_router_journal_appends_total", &[])
        .unwrap_or(0);
    let corpus = front_traced.as_ref().map(|t| t.take_corpus());
    front.shutdown();
    drop(router);
    let services: Vec<_> = nodes.iter().map(|n| Arc::clone(&n.service)).collect();
    for n in nodes {
        n.server.shutdown();
    }
    let mut run = outcome?;
    run.label = if cx.journal_off {
        "journal-off"
    } else {
        "journal"
    }
    .into();

    // Correctness: no robustness machinery fired, every container homed
    // on exactly one node and closed, the journal replays to the live map.
    let retries: u64 = status.iter().map(|n| n.retries).sum();
    let timeouts: u64 = status.iter().map(|n| n.timeouts).sum();
    let failovers: u64 = status.iter().map(|n| n.failovers).sum();
    ensure!(
        retries == 0 && timeouts == 0 && failovers == 0,
        "routed_journal: {retries} retries, {timeouts} timeouts, {failovers} failovers on healthy nodes"
    );
    let driven = (timed.len() + warm.len()) as u64 + RESIDENTS;
    let mut homed = std::collections::BTreeMap::<u64, u32>::new();
    let (mut open, mut granted, mut suspensions) = (0u64, 0u64, 0u64);
    for service in &services {
        service.with_backend(|b| -> CheckResult<()> {
            for s in b.device_schedulers() {
                for r in s.containers() {
                    *homed.entry(r.id.as_u64()).or_default() += 1;
                    open += u64::from(r.closed_at.is_none());
                    granted += r.granted_allocs;
                    suspensions += r.suspend_episodes;
                }
            }
            b.check_invariants()
                .map_err(|e| format!("routed_journal: node invariant: {e}"))
        })?;
    }
    ensure!(
        homed.len() as u64 == driven && homed.values().all(|n| *n == 1),
        "routed_journal: {} containers homed ({} more than once), drove {driven}",
        homed.len(),
        homed.values().filter(|n| **n > 1).count()
    );
    ensure!(
        open == RESIDENTS,
        "routed_journal: {open} containers open, expected the {RESIDENTS} residents"
    );
    let grants: u64 = timed.iter().chain(&warm).map(|s| s.expected_grants()).sum();
    ensure!(
        granted == grants,
        "routed_journal: {granted} grants on the books, scripts hold {grants}"
    );
    ensure!(
        suspensions == 0,
        "routed_journal: {suspensions} suspensions on a workload built to have none"
    );
    ensure!(
        live_homes.len() as u64 == RESIDENTS,
        "routed_journal: {} homes left in the router, expected the {RESIDENTS} residents",
        live_homes.len()
    );
    if !cx.journal_off {
        let (_journal, _wal, recovery) =
            Journal::open(JournalConfig::new(&journal_dir)).map_err(|e| io("reopen journal", e))?;
        ensure!(
            !recovery.torn_tail && !recovery.corrupt_snapshot,
            "routed_journal: journal damaged after a clean stop"
        );
        ensure!(
            recovery.homes == live_homes,
            "routed_journal: journal replays to {} homes, the live router held {}",
            recovery.homes.len(),
            live_homes.len()
        );
    }
    for (device, _) in &raws {
        let (free, total) = device.mem_info();
        ensure!(
            free == total,
            "routed_journal: a client device holds {} after the run",
            total - free
        );
    }

    run.layer.insert("core.router.retries", retries as f64);
    run.layer.insert("core.router.timeouts", timeouts as f64);
    run.layer.insert("core.router.failovers", failovers as f64);
    run.layer
        .insert("core.journal.records", journal_records as f64);
    if let Some(t) = &cx.tracer {
        run.corpus = corpus.unwrap_or_default();
        run.spans = super::timed_spans(t);
    }
    Ok(run)
}
