//! `loadgen` — the hot-path throughput harness behind `BENCH_3.json`.
//!
//! Where [`crate::fig4`] measures one wrapped CUDA call and
//! [`crate::policies`] replays the paper's workload in a single-threaded
//! DES, this module stress-tests the **real service stack**: worker
//! threads drive thousands of containers through the full lifecycle
//! (register → allocation storm → pid churn → close) against a live
//! [`SchedulerService`], contending on its lock exactly like concurrent
//! wrapper processes do. The scheduler runs on the **sim clock**
//! ([`VirtualClock`], advanced one tick per operation so policy
//! timestamps stay meaningful), while throughput and admission latency
//! are measured in wall time with [`Instant`] — the thing a perf gate
//! must catch is a real-time regression, not a virtual one.
//!
//! Transports: in-process ([`InProcEndpoint`], isolating scheduler-core
//! cost) or a real UNIX socket in either wire codec (adding genuine IPC
//! cost; the binary codec is the hot-path option).
//!
//! ## Liveness
//!
//! The storm is deadlock-free by construction:
//!
//! * a worker **frees its held chunk before every admission request**, so
//!   a parked worker never sits on chunk memory;
//! * assignments are released wholesale at `process_exit` /
//!   `container_close`, and every container's op sequence is finite, so
//!   the scheduler's full-guarantee redistribution always finds released
//!   memory to cover parked deficits;
//! * `chunk + ctx_overhead ≤ limit` keeps storm requests from ever being
//!   rejected for exceeding the container limit (the only rejections are
//!   the deliberate over-limit probes), which makes the expected decision
//!   counts exact — and testable.

use convgpu_core::handler::ServiceHandler;
use convgpu_core::router::{ClusterRouter, NodeServer, RouterConfig};
use convgpu_core::service::{InProcEndpoint, SchedulerService};
use convgpu_ipc::binary::WireCodec;
use convgpu_ipc::client::SchedulerClient;
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_ipc::server::SocketServer;
use convgpu_ipc::transport::EndpointAddr;
use convgpu_obs::metrics::Histogram;
use convgpu_scheduler::backend::TopologyBackend;
use convgpu_scheduler::cluster::SwarmStrategy;
use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
use convgpu_scheduler::metrics as sched_metrics;
use convgpu_scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_scheduler::state::ResumeRule;
use convgpu_sim_core::clock::{RealClock, VirtualClock};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Which stack the workers drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Straight into the service (no socket): scheduler-core cost only.
    InProc,
    /// Through a real UNIX socket speaking `codec`.
    Socket(WireCodec),
    /// Through a TCP loopback socket speaking `codec` — the multi-host
    /// transport, measured against the UNIX path by the `BENCH_9.json`
    /// compare campaign.
    Tcp(WireCodec),
}

impl Transport {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Transport::InProc => "inproc",
            Transport::Socket(WireCodec::Json) => "socket-json",
            Transport::Socket(WireCodec::Binary) => "socket-binary",
            Transport::Tcp(WireCodec::Json) => "tcp-json",
            Transport::Tcp(WireCodec::Binary) => "tcp-binary",
        }
    }
}

/// One load-generation campaign (applied to each policy in turn).
#[derive(Clone, Copy, Debug)]
pub struct LoadgenConfig {
    /// Containers driven through the full lifecycle.
    pub containers: u32,
    /// Concurrent worker threads (each owns one container at a time).
    pub workers: u32,
    /// Admission requests in the storm phase, per container.
    pub rounds: u32,
    /// Storm allocation size.
    pub chunk: Bytes,
    /// Per-container registration limit.
    pub limit: Bytes,
    /// GPU capacity under management.
    pub capacity: Bytes,
    /// Every Nth storm round issues a deliberately over-limit request
    /// that the scheduler must reject instantly (0 = never).
    pub reject_every: u32,
    /// Wall microseconds each granted chunk is held before the next
    /// round frees it (0 = release immediately). A non-zero hold makes
    /// the hold window dominate the round, so workers *provably* overlap
    /// — even a fully serializing scheduler cannot run a worker's
    /// alloc while the others' sleeps release the CPU but keep their
    /// memory — which makes contention deterministic rather than a
    /// race-timing accident. Throughput campaigns keep it 0.
    pub hold_us: u64,
    /// In-process or socket transport.
    pub transport: Transport,
}

/// The paper's 66 MiB per-pid context overhead, charged by the harness
/// configuration so admission math matches the live stack.
const CTX_OVERHEAD: Bytes = Bytes::mib(66);

impl LoadgenConfig {
    /// The standard campaign: thousands of containers, contended enough
    /// that suspensions and redistribution run on the hot path. The
    /// capacity is deliberately smaller than the paper's 5 GiB card:
    /// a worker only holds its chunk for part of each round, so ~1/3 of
    /// the workers hold concurrently, and 2 GiB keeps that steady state
    /// over capacity — every policy's suspend/redistribute machinery is
    /// exercised, not just the grant fast path.
    pub fn standard() -> Self {
        LoadgenConfig {
            containers: 2000,
            workers: 16,
            rounds: 8,
            chunk: Bytes::mib(384),
            limit: Bytes::mib(512),
            capacity: Bytes::gib(2),
            reject_every: 4,
            hold_us: 0,
            transport: Transport::InProc,
        }
    }

    /// A seconds-scale smoke campaign for CI and debug builds.
    pub fn smoke() -> Self {
        LoadgenConfig {
            containers: 200,
            ..LoadgenConfig::standard()
        }
    }

    /// Admission decisions one container produces: the storm rounds plus
    /// the churn-phase allocation by the second pid.
    pub fn decisions_per_container(&self) -> u64 {
        u64::from(self.rounds) + 1
    }

    /// Deliberate over-limit probes per container.
    pub fn probes_per_container(&self) -> u64 {
        u64::from(self.rounds.checked_div(self.reject_every).unwrap_or(0))
    }
}

/// Measured outcome of one policy's campaign.
#[derive(Clone, Debug)]
pub struct PolicyRun {
    /// Policy under test.
    pub policy: PolicyKind,
    /// Admission decisions delivered (granted + rejected).
    pub decisions: u64,
    /// Granted decisions.
    pub granted: u64,
    /// Rejected decisions.
    pub rejected: u64,
    /// Suspend episodes recorded on the scheduler's books.
    pub suspensions: u64,
    /// Wall-clock duration of the campaign, seconds.
    pub elapsed_secs: f64,
    /// `decisions / elapsed_secs` — the headline throughput number.
    pub decisions_per_sec: f64,
    /// Wall-clock admission latency (request → decision), one
    /// observation per decision, including time parked while suspended.
    pub admission: Histogram,
}

impl PolicyRun {
    /// Admission-latency quantile in milliseconds (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.admission.quantile_ns(q).unwrap_or(0.0) / 1e6
    }

    /// Mean admission latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.admission.count() == 0 {
            0.0
        } else {
            self.admission.sum_ns() as f64 / self.admission.count() as f64 / 1e6
        }
    }
}

/// A full campaign: one [`PolicyRun`] per policy.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// The configuration every policy ran under.
    pub config: LoadgenConfig,
    /// Per-policy results, in [`PolicyKind::ALL`] order.
    pub runs: Vec<PolicyRun>,
}

impl LoadgenReport {
    /// Aggregate throughput across policies: total decisions over total
    /// wall time. This is the number the perf-trend gate compares
    /// against the committed baseline.
    pub fn total_decisions_per_sec(&self) -> f64 {
        let decisions: u64 = self.runs.iter().map(|r| r.decisions).sum();
        let elapsed: f64 = self.runs.iter().map(|r| r.elapsed_secs).sum();
        if elapsed > 0.0 {
            decisions as f64 / elapsed
        } else {
            0.0
        }
    }
}

/// Run the campaign for every policy in [`PolicyKind::ALL`].
pub fn run_loadgen(cfg: &LoadgenConfig) -> LoadgenReport {
    let runs = PolicyKind::ALL
        .into_iter()
        .map(|policy| run_policy(cfg, policy))
        .collect();
    LoadgenReport { config: *cfg, runs }
}

/// Validate the liveness preconditions from the module docs.
fn check_config(cfg: &LoadgenConfig) {
    assert!(cfg.containers > 0 && cfg.workers > 0 && cfg.rounds > 0);
    assert!(
        cfg.chunk + CTX_OVERHEAD <= cfg.limit,
        "storm chunk + ctx overhead must fit the limit (else storms reject)"
    );
    assert!(
        cfg.limit <= cfg.capacity,
        "limit must fit capacity (else registration refuses)"
    );
}

/// The scheduler configuration every campaign device runs under.
fn sched_config(cfg: &LoadgenConfig) -> SchedulerConfig {
    SchedulerConfig {
        capacity: cfg.capacity,
        ctx_overhead: CTX_OVERHEAD,
        charge_ctx_overhead: true,
        resume_rule: ResumeRule::FullGuarantee,
        default_limit: cfg.limit,
    }
}

/// Bind the socket server when the transport needs one.
fn bind_server(
    cfg: &LoadgenConfig,
    dir: &Path,
    service: &Arc<SchedulerService>,
) -> Option<SocketServer> {
    let endpoint = match cfg.transport {
        Transport::InProc => return None,
        Transport::Socket(_) => EndpointAddr::from(dir.join("sched.sock")),
        Transport::Tcp(_) => EndpointAddr::Tcp("127.0.0.1:0".to_string()),
    };
    Some(
        SocketServer::bind_endpoint(
            &endpoint,
            Arc::new(ServiceHandler::new(Arc::clone(service))),
        )
        .expect("bind loadgen socket"),
    )
}

/// A campaign run's own temp directory (the caller removes it on the
/// way out). The process-wide counter keeps two runs of one label apart
/// when libtest runs them on parallel threads: they bind socket paths
/// under it. Kept short: a UNIX socket path holds about 100 bytes.
fn run_dir(label: &str) -> PathBuf {
    static NEXT_RUN: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "convgpu-lg-{}-{}-{label}",
        std::process::id(),
        NEXT_RUN.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Run one policy's campaign.
///
/// # Panics
/// Panics on scheduler protocol violations or on configurations that
/// would break the liveness argument in the module docs — a hung or
/// invalid campaign must fail loudly, not publish numbers.
pub fn run_policy(cfg: &LoadgenConfig, policy: PolicyKind) -> PolicyRun {
    check_config(cfg);

    let vclock = VirtualClock::new();
    let dir = run_dir(policy.label());
    std::fs::create_dir_all(&dir).expect("create loadgen dir");
    let service = Arc::new(SchedulerService::new(
        Scheduler::new(sched_config(cfg), policy.build(0xC0DE)),
        vclock.handle(),
        dir.clone(),
    ));
    let server = bind_server(cfg, &dir, &service);

    let (merged, elapsed_secs) = storm(cfg, &service, &server, &vclock);

    if let Some(server) = server {
        server.shutdown();
    }
    let (suspensions, open) = service.with_scheduler(|s| {
        let per = sched_metrics::collect(s.containers());
        let open = per.iter().filter(|m| m.closed_at.is_none()).count();
        (per.iter().map(|m| m.suspend_episodes).sum::<u64>(), open)
    });
    assert_eq!(open, 0, "every loadgen container must close");
    let _ = std::fs::remove_dir_all(&dir);

    let decisions = merged.granted + merged.rejected;
    let expected = u64::from(cfg.containers) * cfg.decisions_per_container();
    assert_eq!(
        decisions, expected,
        "decision count must be exact (liveness or protocol bug otherwise)"
    );
    PolicyRun {
        policy,
        decisions,
        granted: merged.granted,
        rejected: merged.rejected,
        suspensions,
        elapsed_secs,
        decisions_per_sec: if elapsed_secs > 0.0 {
            decisions as f64 / elapsed_secs
        } else {
            0.0
        },
        admission: merged.admission,
    }
}

/// The worker storm: every container's full lifecycle, spread over
/// `cfg.workers` threads contending on the live service. Returns the
/// merged per-worker stats and the wall-clock duration in seconds.
fn storm(
    cfg: &LoadgenConfig,
    service: &Arc<SchedulerService>,
    server: &Option<SocketServer>,
    vclock: &VirtualClock,
) -> (WorkerStats, f64) {
    let factory = || -> Arc<dyn SchedulerEndpoint> {
        match cfg.transport {
            Transport::InProc => Arc::new(InProcEndpoint::new(Arc::clone(service))),
            Transport::Socket(codec) | Transport::Tcp(codec) => Arc::new(
                SchedulerClient::connect_endpoint_with_codec(
                    server
                        .as_ref()
                        .expect("socket transport has a server")
                        .endpoint(),
                    codec,
                    None,
                )
                .expect("connect loadgen client"),
            ),
        }
    };
    storm_with(cfg, &factory, vclock)
}

/// [`storm`] over an arbitrary per-worker endpoint factory (the cluster
/// campaign hands every worker the shared router instead of a service).
fn storm_with(
    cfg: &LoadgenConfig,
    endpoint_factory: &(dyn Fn() -> Arc<dyn SchedulerEndpoint> + Sync),
    vclock: &VirtualClock,
) -> (WorkerStats, f64) {
    let next = AtomicU64::new(0);
    let ticks = AtomicU64::new(1);
    let started = Instant::now();
    let mut merged = WorkerStats::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|_| {
                let next = &next;
                let ticks = &ticks;
                scope.spawn(move || {
                    let endpoint = endpoint_factory();
                    let mut stats = WorkerStats::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= u64::from(cfg.containers) {
                            break;
                        }
                        drive_container(
                            &*endpoint,
                            cfg,
                            ContainerId(idx + 1),
                            vclock,
                            ticks,
                            &mut stats,
                        );
                    }
                    stats
                })
            })
            .collect();
        for h in handles {
            merged.merge(h.join().expect("loadgen worker panicked"));
        }
    });
    (merged, started.elapsed().as_secs_f64())
}

struct WorkerStats {
    admission: Histogram,
    granted: u64,
    rejected: u64,
}

impl WorkerStats {
    fn new() -> Self {
        WorkerStats {
            admission: Histogram::new(),
            granted: 0,
            rejected: 0,
        }
    }

    fn merge(&mut self, other: WorkerStats) {
        self.admission.merge(&other.admission);
        self.granted += other.granted;
        self.rejected += other.rejected;
    }

    fn observe(&mut self, started: Instant, decision: AllocDecision) {
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.admission.observe_ns(ns);
        match decision {
            AllocDecision::Granted => self.granted += 1,
            AllocDecision::Rejected => self.rejected += 1,
        }
    }
}

/// Advance the shared sim clock by one tick so scheduler timestamps
/// (registration order, suspension age, recent use) stay distinct.
fn tick(vclock: &VirtualClock, ticks: &AtomicU64) {
    let n = ticks.fetch_add(1, Ordering::Relaxed);
    vclock.advance_to(SimTime::ZERO + SimDuration::from_micros(n));
}

/// One container's full lifecycle, as the module docs describe.
fn drive_container(
    endpoint: &dyn SchedulerEndpoint,
    cfg: &LoadgenConfig,
    id: ContainerId,
    vclock: &VirtualClock,
    ticks: &AtomicU64,
    stats: &mut WorkerStats,
) {
    tick(vclock, ticks);
    endpoint.register(id, cfg.limit).expect("loadgen register");
    let pid = 100_000 + id.as_u64();
    let mut next_addr = id.as_u64() << 20;
    let mut held: Option<u64> = None;

    for round in 0..cfg.rounds {
        // Free the previous hold before a request that could suspend:
        // see the liveness argument in the module docs.
        if let Some(addr) = held.take() {
            tick(vclock, ticks);
            endpoint.free(id, pid, addr).expect("loadgen free");
        }
        let probe = cfg.reject_every != 0 && round % cfg.reject_every == cfg.reject_every - 1;
        let size = if probe {
            cfg.limit + Bytes::new(1)
        } else {
            cfg.chunk
        };
        tick(vclock, ticks);
        let t0 = Instant::now();
        let decision = endpoint
            .request_alloc(id, pid, size, ApiKind::Malloc)
            .expect("loadgen alloc request");
        stats.observe(t0, decision);
        match decision {
            AllocDecision::Granted => {
                assert!(!probe, "an over-limit probe can never be granted");
                let addr = next_addr;
                next_addr += 1;
                endpoint
                    .alloc_done(id, pid, addr, cfg.chunk)
                    .expect("loadgen alloc_done");
                held = Some(addr);
                if cfg.hold_us > 0 {
                    std::thread::sleep(std::time::Duration::from_micros(cfg.hold_us));
                }
            }
            AllocDecision::Rejected => {
                assert!(probe, "an in-limit storm request can never be rejected");
            }
        }
    }

    // Churn: the storm pid dies (releasing its chunk and ctx overhead),
    // a fresh pid performs one more admission, then the container closes.
    tick(vclock, ticks);
    endpoint
        .process_exit(id, pid)
        .expect("loadgen process_exit");
    let pid2 = pid + 1_000_000;
    tick(vclock, ticks);
    let t0 = Instant::now();
    let decision = endpoint
        .request_alloc(id, pid2, cfg.chunk, ApiKind::Malloc)
        .expect("loadgen churn alloc");
    stats.observe(t0, decision);
    if decision == AllocDecision::Granted {
        endpoint
            .alloc_done(id, pid2, next_addr, cfg.chunk)
            .expect("loadgen churn alloc_done");
    }
    tick(vclock, ticks);
    endpoint
        .container_close(id)
        .expect("loadgen container_close");
}

/// Render the machine-readable report (the `BENCH_3.json` schema).
pub fn render_json(report: &LoadgenReport) -> String {
    let cfg = &report.config;
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"loadgen\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"containers\": {}, \"workers\": {}, \"rounds\": {}, \
         \"chunk_mib\": {}, \"limit_mib\": {}, \"capacity_mib\": {}, \
         \"reject_every\": {}, \"hold_us\": {}, \"transport\": \"{}\"}},\n",
        cfg.containers,
        cfg.workers,
        cfg.rounds,
        cfg.chunk.as_mib(),
        cfg.limit.as_mib(),
        cfg.capacity.as_mib(),
        cfg.reject_every,
        cfg.hold_us,
        cfg.transport.label(),
    ));
    out.push_str("  \"policies\": [\n");
    for (i, run) in report.runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"decisions\": {}, \"granted\": {}, \
             \"rejected\": {}, \"suspensions\": {}, \"elapsed_secs\": {:.6}, \
             \"decisions_per_sec\": {:.1}, \"admission_ms\": \
             {{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \"count\": {}}}}}{}\n",
            run.policy.label(),
            run.decisions,
            run.granted,
            run.rejected,
            run.suspensions,
            run.elapsed_secs,
            run.decisions_per_sec,
            run.quantile_ms(0.50),
            run.quantile_ms(0.95),
            run.quantile_ms(0.99),
            run.mean_ms(),
            run.admission.count(),
            if i + 1 == report.runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"total_decisions_per_sec\": {:.1}\n}}\n",
        report.total_decisions_per_sec()
    ));
    out
}

/// The transport-compare campaign behind `BENCH_9.json`: the same
/// single-policy storm driven twice over a real socket — once UNIX,
/// once TCP loopback — in the same wire codec. The headline number is
/// the TCP/UNIX throughput ratio: the perf-trend gate pins it at a
/// `1.0` baseline, so TCP admission throughput must stay within the
/// retention floor (80%) of the UNIX path.
#[derive(Clone, Copy, Debug)]
pub struct TransportCompareConfig {
    /// Campaign parameters shared by both legs (`transport` is
    /// overridden per leg and ignored here).
    pub base: LoadgenConfig,
    /// The one policy both legs run under.
    pub policy: PolicyKind,
    /// Wire codec both legs speak.
    pub codec: WireCodec,
}

impl TransportCompareConfig {
    /// The standard compare: the full storm, hot-path binary codec.
    pub fn standard() -> Self {
        TransportCompareConfig {
            base: LoadgenConfig::standard(),
            policy: PolicyKind::BestFit,
            codec: WireCodec::Binary,
        }
    }

    /// A seconds-scale smoke compare for CI and debug builds.
    pub fn smoke() -> Self {
        TransportCompareConfig {
            base: LoadgenConfig::smoke(),
            ..TransportCompareConfig::standard()
        }
    }
}

/// Measured outcome of the two-leg transport compare.
#[derive(Clone, Debug)]
pub struct TransportCompareReport {
    /// The configuration both legs ran under.
    pub config: TransportCompareConfig,
    /// The UNIX-socket leg.
    pub unix: PolicyRun,
    /// The TCP-loopback leg.
    pub tcp: PolicyRun,
}

impl TransportCompareReport {
    /// UNIX-socket admission throughput (decisions/s).
    pub fn unix_decisions_per_sec(&self) -> f64 {
        self.unix.decisions_per_sec
    }

    /// TCP-loopback admission throughput (decisions/s).
    pub fn tcp_decisions_per_sec(&self) -> f64 {
        self.tcp.decisions_per_sec
    }

    /// TCP throughput as a fraction of UNIX throughput — the gated
    /// number (baseline `1.0`, floor [`crate::trend::BASELINE_RETENTION`]).
    pub fn tcp_vs_unix_ratio(&self) -> f64 {
        if self.unix.decisions_per_sec > 0.0 {
            self.tcp.decisions_per_sec / self.unix.decisions_per_sec
        } else {
            0.0
        }
    }
}

/// Run the two-leg transport compare: UNIX first, then TCP loopback,
/// identical storm parameters.
pub fn run_transport_compare(cfg: &TransportCompareConfig) -> TransportCompareReport {
    let unix = run_policy(
        &LoadgenConfig {
            transport: Transport::Socket(cfg.codec),
            ..cfg.base
        },
        cfg.policy,
    );
    let tcp = run_policy(
        &LoadgenConfig {
            transport: Transport::Tcp(cfg.codec),
            ..cfg.base
        },
        cfg.policy,
    );
    TransportCompareReport {
        config: *cfg,
        unix,
        tcp,
    }
}

/// Render the machine-readable transport compare (the `BENCH_9.json`
/// schema).
pub fn render_transport_json(report: &TransportCompareReport) -> String {
    let cfg = &report.config;
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"loadgen-transport\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"containers\": {}, \"workers\": {}, \"rounds\": {}, \
         \"chunk_mib\": {}, \"limit_mib\": {}, \"capacity_mib\": {}, \
         \"policy\": \"{}\", \"codec\": \"{}\"}},\n",
        cfg.base.containers,
        cfg.base.workers,
        cfg.base.rounds,
        cfg.base.chunk.as_mib(),
        cfg.base.limit.as_mib(),
        cfg.base.capacity.as_mib(),
        cfg.policy.label(),
        cfg.codec.label(),
    ));
    out.push_str("  \"transports\": [\n");
    let legs = [("unix", &report.unix), ("tcp", &report.tcp)];
    for (i, (scheme, run)) in legs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"transport\": \"{}\", \"decisions\": {}, \"granted\": {}, \
             \"rejected\": {}, \"suspensions\": {}, \"elapsed_secs\": {:.6}, \
             \"decisions_per_sec\": {:.1}, \"admission_ms\": \
             {{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \"count\": {}}}}}{}\n",
            scheme,
            run.decisions,
            run.granted,
            run.rejected,
            run.suspensions,
            run.elapsed_secs,
            run.decisions_per_sec,
            run.quantile_ms(0.50),
            run.quantile_ms(0.95),
            run.quantile_ms(0.99),
            run.mean_ms(),
            run.admission.count(),
            if i + 1 == legs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"transport_unix_decisions_per_sec\": {:.1},\n\
         \x20 \"transport_tcp_decisions_per_sec\": {:.1},\n\
         \x20 \"transport_tcp_vs_unix_ratio\": {:.4}\n}}\n",
        report.unix_decisions_per_sec(),
        report.tcp_decisions_per_sec(),
        report.tcp_vs_unix_ratio(),
    ));
    out
}

/// The sharded (multi-GPU) campaign: the same container storm driven
/// against a [`MultiGpuScheduler`] behind the live service, once per
/// placement policy. `base.capacity` is **per device**.
#[derive(Clone, Copy, Debug)]
pub struct ShardedConfig {
    /// Per-device campaign parameters (`capacity` applies to each
    /// device, not the aggregate).
    pub base: LoadgenConfig,
    /// GPU devices under management.
    pub devices: u32,
    /// Redistribution policy every device scheduler runs.
    pub policy: PolicyKind,
}

impl ShardedConfig {
    /// The standard sharded campaign: two 1 GiB devices so the per-device
    /// pressure matches the single-GPU standard campaign (2 GiB split in
    /// half), under the paper's default best-fit redistribution.
    pub fn standard() -> Self {
        ShardedConfig {
            base: LoadgenConfig {
                capacity: Bytes::gib(1),
                ..LoadgenConfig::standard()
            },
            devices: 2,
            policy: PolicyKind::BestFit,
        }
    }

    /// A seconds-scale smoke campaign for CI and debug builds.
    pub fn smoke() -> Self {
        let std_cfg = Self::standard();
        ShardedConfig {
            base: LoadgenConfig {
                containers: 200,
                ..std_cfg.base
            },
            ..std_cfg
        }
    }
}

/// Measured outcome of one placement policy's sharded campaign.
#[derive(Clone, Debug)]
pub struct PlacementRun {
    /// Placement policy under test.
    pub placement: PlacementPolicy,
    /// Admission decisions delivered (granted + rejected).
    pub decisions: u64,
    /// Granted decisions.
    pub granted: u64,
    /// Rejected decisions.
    pub rejected: u64,
    /// Suspend episodes summed over every device's books.
    pub suspensions: u64,
    /// Containers the placement policy homed on each device (lifetime
    /// total, index = device).
    pub containers_per_device: Vec<u64>,
    /// Wall-clock duration of the campaign, seconds.
    pub elapsed_secs: f64,
    /// `decisions / elapsed_secs`.
    pub decisions_per_sec: f64,
    /// Wall-clock admission latency (request → decision).
    pub admission: Histogram,
}

impl PlacementRun {
    /// Admission-latency quantile in milliseconds (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.admission.quantile_ns(q).unwrap_or(0.0) / 1e6
    }

    /// Mean admission latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.admission.count() == 0 {
            0.0
        } else {
            self.admission.sum_ns() as f64 / self.admission.count() as f64 / 1e6
        }
    }
}

/// A full sharded campaign: one [`PlacementRun`] per placement policy.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// The configuration every placement ran under.
    pub config: ShardedConfig,
    /// Per-placement results: round-robin, most-free, best-fit-device.
    pub runs: Vec<PlacementRun>,
}

impl ShardedReport {
    /// Aggregate throughput across placements — the number the
    /// perf-trend gate compares against `sharded_total_decisions_per_sec`
    /// in the committed baseline.
    pub fn sharded_total_decisions_per_sec(&self) -> f64 {
        let decisions: u64 = self.runs.iter().map(|r| r.decisions).sum();
        let elapsed: f64 = self.runs.iter().map(|r| r.elapsed_secs).sum();
        if elapsed > 0.0 {
            decisions as f64 / elapsed
        } else {
            0.0
        }
    }
}

/// The placement policies the sharded campaign sweeps, in report order.
pub const PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobin,
    PlacementPolicy::MostFree,
    PlacementPolicy::BestFitDevice,
];

/// Run the sharded campaign for every placement policy in [`PLACEMENTS`].
pub fn run_sharded(cfg: &ShardedConfig) -> ShardedReport {
    let runs = PLACEMENTS
        .into_iter()
        .map(|placement| run_sharded_placement(cfg, placement))
        .collect();
    ShardedReport { config: *cfg, runs }
}

/// Run one placement policy's sharded campaign.
///
/// The liveness argument from the module docs carries over unchanged:
/// a container lives its whole life on the device the placement chose
/// at registration, so each device is an independent single-GPU storm
/// with a (placement-dependent) share of the containers.
///
/// # Panics
/// As [`run_policy`]: protocol violations and liveness-breaking
/// configurations abort the campaign rather than publish numbers.
pub fn run_sharded_placement(cfg: &ShardedConfig, placement: PlacementPolicy) -> PlacementRun {
    check_config(&cfg.base);
    assert!(cfg.devices > 0, "need at least one device");

    let vclock = VirtualClock::new();
    let dir = run_dir(placement.label());
    std::fs::create_dir_all(&dir).expect("create loadgen dir");
    let capacities = vec![cfg.base.capacity; cfg.devices as usize];
    let backend = TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
        sched_config(&cfg.base),
        &capacities,
        cfg.policy,
        placement,
        0xC0DE,
    ));
    let service = Arc::new(SchedulerService::new_with_backend(
        backend,
        vclock.handle(),
        dir.clone(),
    ));
    let server = bind_server(&cfg.base, &dir, &service);

    let (merged, elapsed_secs) = storm(&cfg.base, &service, &server, &vclock);

    if let Some(server) = server {
        server.shutdown();
    }
    let (suspensions, open, containers_per_device) = service.with_backend(|b| match b {
        TopologyBackend::MultiGpu(m) => {
            let mut suspensions = 0u64;
            let mut open = 0usize;
            let mut per_device = Vec::with_capacity(m.shards().len());
            for device in m.shards() {
                let per = sched_metrics::collect(device.containers());
                suspensions += per.iter().map(|c| c.suspend_episodes).sum::<u64>();
                open += per.iter().filter(|c| c.closed_at.is_none()).count();
                per_device.push(per.len() as u64);
            }
            (suspensions, open, per_device)
        }
        _ => unreachable!("sharded campaign always runs on a MultiGpu backend"),
    });
    assert_eq!(open, 0, "every loadgen container must close");
    let _ = std::fs::remove_dir_all(&dir);

    let decisions = merged.granted + merged.rejected;
    let expected = u64::from(cfg.base.containers) * cfg.base.decisions_per_container();
    assert_eq!(
        decisions, expected,
        "decision count must be exact (liveness or protocol bug otherwise)"
    );
    assert_eq!(
        containers_per_device.iter().sum::<u64>(),
        u64::from(cfg.base.containers),
        "every container must have been homed on exactly one device"
    );
    PlacementRun {
        placement,
        decisions,
        granted: merged.granted,
        rejected: merged.rejected,
        suspensions,
        containers_per_device,
        elapsed_secs,
        decisions_per_sec: if elapsed_secs > 0.0 {
            decisions as f64 / elapsed_secs
        } else {
            0.0
        },
        admission: merged.admission,
    }
}

/// Render the machine-readable sharded report (the `BENCH_4.json`
/// schema).
pub fn render_sharded_json(report: &ShardedReport) -> String {
    let cfg = &report.config;
    let base = &cfg.base;
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"loadgen-sharded\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"containers\": {}, \"workers\": {}, \"rounds\": {}, \
         \"chunk_mib\": {}, \"limit_mib\": {}, \"device_capacity_mib\": {}, \
         \"devices\": {}, \"policy\": \"{}\", \"reject_every\": {}, \
         \"hold_us\": {}, \"transport\": \"{}\"}},\n",
        base.containers,
        base.workers,
        base.rounds,
        base.chunk.as_mib(),
        base.limit.as_mib(),
        base.capacity.as_mib(),
        cfg.devices,
        cfg.policy.label(),
        base.reject_every,
        base.hold_us,
        base.transport.label(),
    ));
    out.push_str("  \"placements\": [\n");
    for (i, run) in report.runs.iter().enumerate() {
        let homes = run
            .containers_per_device
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"placement\": \"{}\", \"decisions\": {}, \"granted\": {}, \
             \"rejected\": {}, \"suspensions\": {}, \"containers_per_device\": [{homes}], \
             \"elapsed_secs\": {:.6}, \"decisions_per_sec\": {:.1}, \"admission_ms\": \
             {{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \"count\": {}}}}}{}\n",
            run.placement.label(),
            run.decisions,
            run.granted,
            run.rejected,
            run.suspensions,
            run.elapsed_secs,
            run.decisions_per_sec,
            run.quantile_ms(0.50),
            run.quantile_ms(0.95),
            run.quantile_ms(0.99),
            run.mean_ms(),
            run.admission.count(),
            if i + 1 == report.runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"sharded_total_decisions_per_sec\": {:.1}\n}}\n",
        report.sharded_total_decisions_per_sec()
    ));
    out
}

/// One cluster campaign (applied to each Swarm strategy in turn): every
/// node is a real [`NodeServer`] process image — its own
/// `SchedulerService` behind its own UNIX socket — and the workers drive
/// a [`ClusterRouter`] fronting those sockets, so every admission pays
/// the genuine route-and-forward cost the distributed deployment pays.
#[derive(Clone, Copy, Debug)]
pub struct ClusterLoadConfig {
    /// Per-node-device campaign parameters (`capacity` applies to each
    /// device of each node; `transport` is ignored — workers hold the
    /// router in process and the router speaks [`ClusterLoadConfig::codec`]
    /// to the node sockets).
    pub base: LoadgenConfig,
    /// Nodes in the cluster, each with its own socket server.
    pub nodes: u32,
    /// GPU devices each node manages.
    pub devices_per_node: u32,
    /// Redistribution policy every node's device schedulers run.
    pub policy: PolicyKind,
    /// Wire codec on the router → node hop.
    pub codec: WireCodec,
}

impl ClusterLoadConfig {
    /// The standard cluster campaign: two single-device 1 GiB nodes (the
    /// sharded campaign's split, but over real sockets), binary codec on
    /// the routed hop. Half the single-stack container count — every
    /// operation crosses a socket here, and the campaign runs once per
    /// strategy.
    pub fn standard() -> Self {
        ClusterLoadConfig {
            base: LoadgenConfig {
                containers: 1000,
                capacity: Bytes::gib(1),
                ..LoadgenConfig::standard()
            },
            nodes: 2,
            devices_per_node: 1,
            policy: PolicyKind::BestFit,
            codec: WireCodec::Binary,
        }
    }

    /// A seconds-scale smoke campaign for CI and debug builds.
    pub fn smoke() -> Self {
        let std_cfg = Self::standard();
        ClusterLoadConfig {
            base: LoadgenConfig {
                containers: 200,
                ..std_cfg.base
            },
            ..std_cfg
        }
    }
}

/// Measured outcome of one Swarm strategy's cluster campaign.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// Placement strategy the router ran.
    pub strategy: SwarmStrategy,
    /// Admission decisions delivered (granted + rejected).
    pub decisions: u64,
    /// Granted decisions.
    pub granted: u64,
    /// Rejected decisions.
    pub rejected: u64,
    /// Suspend episodes summed over every node's device books.
    pub suspensions: u64,
    /// Containers the strategy homed on each node (lifetime total,
    /// index = node).
    pub containers_per_node: Vec<u64>,
    /// Router retries summed over nodes (0 in a healthy run).
    pub retries: u64,
    /// Router deadline hits summed over nodes (0 in a healthy run).
    pub timeouts: u64,
    /// Router degradation failovers summed over nodes (0 in a healthy
    /// run).
    pub failovers: u64,
    /// Wall-clock duration of the campaign, seconds.
    pub elapsed_secs: f64,
    /// `decisions / elapsed_secs`.
    pub decisions_per_sec: f64,
    /// Wall-clock admission latency (request → routed decision).
    pub admission: Histogram,
}

impl ClusterRun {
    /// Admission-latency quantile in milliseconds (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.admission.quantile_ns(q).unwrap_or(0.0) / 1e6
    }

    /// Mean admission latency in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        if self.admission.count() == 0 {
            0.0
        } else {
            self.admission.sum_ns() as f64 / self.admission.count() as f64 / 1e6
        }
    }
}

/// A full cluster campaign: one [`ClusterRun`] per Swarm strategy.
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// The configuration every strategy ran under.
    pub config: ClusterLoadConfig,
    /// Per-strategy results: spread, binpack, random.
    pub runs: Vec<ClusterRun>,
}

impl ClusterReport {
    /// Aggregate routed throughput across strategies — the headline
    /// number in `BENCH_7.json` (published as a CI artifact, not gated:
    /// routed throughput is dominated by socket round trips, which CI
    /// machines vary on too much for a retention floor to be meaningful).
    pub fn cluster_total_decisions_per_sec(&self) -> f64 {
        let decisions: u64 = self.runs.iter().map(|r| r.decisions).sum();
        let elapsed: f64 = self.runs.iter().map(|r| r.elapsed_secs).sum();
        if elapsed > 0.0 {
            decisions as f64 / elapsed
        } else {
            0.0
        }
    }
}

/// The Swarm strategies the cluster campaign sweeps, in report order.
pub const STRATEGIES: [SwarmStrategy; 3] = [
    SwarmStrategy::Spread,
    SwarmStrategy::BinPack,
    SwarmStrategy::Random,
];

/// Run the cluster campaign for every strategy in [`STRATEGIES`].
pub fn run_cluster(cfg: &ClusterLoadConfig) -> ClusterReport {
    let runs = STRATEGIES
        .into_iter()
        .map(|strategy| run_cluster_strategy(cfg, strategy))
        .collect();
    ClusterReport { config: *cfg, runs }
}

/// Run one Swarm strategy's cluster campaign.
///
/// The liveness argument from the module docs carries over through the
/// router: a container lives its whole life on the node the strategy
/// chose at registration, so each node is an independent storm with a
/// (strategy-dependent) share of the containers, and the router adds
/// forwarding but no admission policy of its own.
///
/// # Panics
/// As [`run_policy`], plus: any routed run that needed the robustness
/// layer (a retry deadline hit or a degradation failover) aborts the
/// campaign — against healthy local nodes those counters must be zero,
/// so a non-zero reading is a harness or transport bug, not a number
/// worth publishing.
pub fn run_cluster_strategy(cfg: &ClusterLoadConfig, strategy: SwarmStrategy) -> ClusterRun {
    check_config(&cfg.base);
    assert!(cfg.nodes > 0, "need at least one node");
    assert!(
        cfg.devices_per_node > 0,
        "need at least one device per node"
    );

    let vclock = VirtualClock::new();
    let dir = run_dir(strategy.label());
    let capacities = vec![cfg.base.capacity; cfg.devices_per_node as usize];
    let mut node_servers = Vec::with_capacity(cfg.nodes as usize);
    let mut sockets = Vec::with_capacity(cfg.nodes as usize);
    for i in 0..cfg.nodes {
        let name = format!("n{i}");
        let node_dir = dir.join(&name);
        std::fs::create_dir_all(&node_dir).expect("create cluster node dir");
        let backend = TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
            sched_config(&cfg.base),
            &capacities,
            cfg.policy,
            PlacementPolicy::BestFitDevice,
            0xC0DE + u64::from(i),
        ));
        let socket = node_dir.join("node.sock");
        let node = NodeServer::serve(name.clone(), backend, vclock.handle(), node_dir, &socket)
            .expect("serve cluster node");
        sockets.push((name, socket));
        node_servers.push(node);
    }

    // The router runs on the real clock with a deadline far beyond any
    // healthy local round trip: timeouts never fire in a clean run, so
    // the campaign cannot trip the retry path's duplicate-delivery
    // caveat (docs/CLUSTER.md) and the fault counters must read zero.
    let router = Arc::new(ClusterRouter::attach(
        sockets,
        cfg.codec,
        RouterConfig {
            strategy,
            deadline: SimDuration::from_secs(30),
            ..RouterConfig::default()
        },
        RealClock::handle(),
    ));

    let factory = || -> Arc<dyn SchedulerEndpoint> { Arc::clone(&router) as _ };
    let (merged, elapsed_secs) = storm_with(&cfg.base, &factory, &vclock);

    let (_, status) = router.cluster_status();
    let mut suspensions = 0u64;
    let mut open = 0usize;
    let mut containers_per_node = Vec::with_capacity(node_servers.len());
    for node in &node_servers {
        let (node_susp, node_open, homed) = node.service().with_backend(|b| match b {
            TopologyBackend::MultiGpu(m) => {
                let mut susp = 0u64;
                let mut open = 0usize;
                let mut homed = 0u64;
                for device in m.shards() {
                    let per = sched_metrics::collect(device.containers());
                    susp += per.iter().map(|c| c.suspend_episodes).sum::<u64>();
                    open += per.iter().filter(|c| c.closed_at.is_none()).count();
                    homed += per.len() as u64;
                }
                (susp, open, homed)
            }
            _ => unreachable!("cluster nodes always run a MultiGpu backend"),
        });
        suspensions += node_susp;
        open += node_open;
        containers_per_node.push(homed);
    }
    for node in node_servers {
        node.shutdown();
    }
    assert_eq!(open, 0, "every loadgen container must close");
    let _ = std::fs::remove_dir_all(&dir);

    let retries: u64 = status.iter().map(|n| n.retries).sum();
    let timeouts: u64 = status.iter().map(|n| n.timeouts).sum();
    let failovers: u64 = status.iter().map(|n| n.failovers).sum();
    assert_eq!(timeouts, 0, "healthy cluster run must not hit deadlines");
    assert_eq!(failovers, 0, "healthy cluster run must not fail over");

    let decisions = merged.granted + merged.rejected;
    let expected = u64::from(cfg.base.containers) * cfg.base.decisions_per_container();
    assert_eq!(
        decisions, expected,
        "decision count must be exact (liveness or protocol bug otherwise)"
    );
    assert_eq!(
        containers_per_node.iter().sum::<u64>(),
        u64::from(cfg.base.containers),
        "every container must have been homed on exactly one node"
    );
    ClusterRun {
        strategy,
        decisions,
        granted: merged.granted,
        rejected: merged.rejected,
        suspensions,
        containers_per_node,
        retries,
        timeouts,
        failovers,
        elapsed_secs,
        decisions_per_sec: if elapsed_secs > 0.0 {
            decisions as f64 / elapsed_secs
        } else {
            0.0
        },
        admission: merged.admission,
    }
}

/// Render the machine-readable cluster report (the `BENCH_7.json`
/// schema).
pub fn render_cluster_json(report: &ClusterReport) -> String {
    let cfg = &report.config;
    let base = &cfg.base;
    let mut out = String::with_capacity(2048);
    out.push_str("{\n");
    out.push_str("  \"bench\": \"loadgen-cluster\",\n  \"version\": 1,\n");
    out.push_str(&format!(
        "  \"config\": {{\"containers\": {}, \"workers\": {}, \"rounds\": {}, \
         \"chunk_mib\": {}, \"limit_mib\": {}, \"device_capacity_mib\": {}, \
         \"nodes\": {}, \"devices_per_node\": {}, \"policy\": \"{}\", \
         \"codec\": \"{}\", \"reject_every\": {}, \"hold_us\": {}}},\n",
        base.containers,
        base.workers,
        base.rounds,
        base.chunk.as_mib(),
        base.limit.as_mib(),
        base.capacity.as_mib(),
        cfg.nodes,
        cfg.devices_per_node,
        cfg.policy.label(),
        cfg.codec.label(),
        base.reject_every,
        base.hold_us,
    ));
    out.push_str("  \"strategies\": [\n");
    for (i, run) in report.runs.iter().enumerate() {
        let homes = run
            .containers_per_node
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"strategy\": \"{}\", \"decisions\": {}, \"granted\": {}, \
             \"rejected\": {}, \"suspensions\": {}, \"containers_per_node\": [{homes}], \
             \"retries\": {}, \"timeouts\": {}, \"failovers\": {}, \
             \"elapsed_secs\": {:.6}, \"decisions_per_sec\": {:.1}, \"admission_ms\": \
             {{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"mean\": {:.6}, \"count\": {}}}}}{}\n",
            run.strategy.label(),
            run.decisions,
            run.granted,
            run.rejected,
            run.suspensions,
            run.retries,
            run.timeouts,
            run.failovers,
            run.elapsed_secs,
            run.decisions_per_sec,
            run.quantile_ms(0.50),
            run.quantile_ms(0.95),
            run.quantile_ms(0.99),
            run.mean_ms(),
            run.admission.count(),
            if i + 1 == report.runs.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cluster_total_decisions_per_sec\": {:.1}\n}}\n",
        report.cluster_total_decisions_per_sec()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(transport: Transport) -> LoadgenConfig {
        LoadgenConfig {
            containers: 48,
            workers: 4,
            rounds: 4,
            chunk: Bytes::mib(384),
            limit: Bytes::mib(512),
            capacity: Bytes::gib(5),
            reject_every: 4,
            hold_us: 0,
            transport,
        }
    }

    #[test]
    fn decision_counts_are_exact_inproc() {
        let cfg = tiny(Transport::InProc);
        let run = run_policy(&cfg, PolicyKind::Fifo);
        assert_eq!(run.decisions, 48 * 5);
        // One over-limit probe per container (rounds/reject_every = 1).
        assert_eq!(run.rejected, 48);
        assert_eq!(run.granted, 48 * 4);
        assert_eq!(run.admission.count(), run.decisions);
        assert!(run.elapsed_secs > 0.0);
        assert!(run.decisions_per_sec > 0.0);
    }

    #[test]
    fn contended_storm_suspends_and_still_completes() {
        // 4 workers × (384 MiB chunk + 66 MiB ctx) cannot fit 1200 MiB,
        // and the 200 µs hold keeps chunks resident across the other
        // workers' requests, so suspensions must happen — and the storm
        // must still finish.
        let cfg = LoadgenConfig {
            capacity: Bytes::mib(1200),
            hold_us: 200,
            ..tiny(Transport::InProc)
        };
        for policy in PolicyKind::ALL {
            let run = run_policy(&cfg, policy);
            assert!(
                run.suspensions > 0,
                "{policy:?}: no contention at 1200 MiB is implausible"
            );
            assert_eq!(run.decisions, 48 * 5, "{policy:?}");
        }
    }

    #[test]
    fn socket_transport_matches_inproc_counts() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let cfg = LoadgenConfig {
                containers: 24,
                workers: 3,
                ..tiny(Transport::Socket(codec))
            };
            let run = run_policy(&cfg, PolicyKind::BestFit);
            assert_eq!(run.decisions, 24 * 5, "{codec:?}");
            assert_eq!(run.rejected, 24, "{codec:?}");
        }
    }

    #[test]
    fn tcp_transport_matches_inproc_counts() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let cfg = LoadgenConfig {
                containers: 24,
                workers: 3,
                ..tiny(Transport::Tcp(codec))
            };
            let run = run_policy(&cfg, PolicyKind::BestFit);
            assert_eq!(run.decisions, 24 * 5, "{codec:?}");
            assert_eq!(run.rejected, 24, "{codec:?}");
        }
    }

    #[test]
    fn transport_compare_json_is_valid_and_complete() {
        let cfg = TransportCompareConfig {
            base: LoadgenConfig {
                containers: 24,
                workers: 3,
                ..tiny(Transport::InProc)
            },
            ..TransportCompareConfig::standard()
        };
        let report = run_transport_compare(&cfg);
        assert_eq!(report.unix.decisions, 24 * 5);
        assert_eq!(report.tcp.decisions, 24 * 5);
        assert!(report.tcp_vs_unix_ratio() > 0.0);
        let text = render_transport_json(&report);
        let json = convgpu_ipc::json::parse(&text).expect("BENCH_9.json must parse");
        let legs = match json.get("transports") {
            Some(convgpu_ipc::json::Json::Arr(a)) => a,
            other => panic!("transports must be an array, got {other:?}"),
        };
        assert_eq!(legs.len(), 2);
        for leg in legs {
            assert!(leg.get("decisions_per_sec").is_some());
            let adm = leg.get("admission_ms").expect("admission_ms object");
            for q in ["p50", "p95", "p99", "mean", "count"] {
                assert!(adm.get(q).is_some(), "missing {q}");
            }
        }
        // The perf-trend gate reads exactly these keys.
        for key in [
            "transport_unix_decisions_per_sec",
            "transport_tcp_decisions_per_sec",
            "transport_tcp_vs_unix_ratio",
        ] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn report_json_is_valid_and_complete() {
        let cfg = LoadgenConfig {
            containers: 12,
            workers: 2,
            ..tiny(Transport::InProc)
        };
        let report = run_loadgen(&cfg);
        assert_eq!(report.runs.len(), PolicyKind::ALL.len());
        let text = render_json(&report);
        let json = convgpu_ipc::json::parse(&text).expect("BENCH_3.json must parse");
        let policies = match json.get("policies") {
            Some(convgpu_ipc::json::Json::Arr(a)) => a,
            other => panic!("policies must be an array, got {other:?}"),
        };
        assert_eq!(policies.len(), 4);
        for p in policies {
            assert!(p.get("decisions_per_sec").is_some());
            let adm = p.get("admission_ms").expect("admission_ms object");
            for q in ["p50", "p95", "p99", "mean", "count"] {
                assert!(adm.get(q).is_some(), "missing {q}");
            }
        }
        assert!(json.get("total_decisions_per_sec").is_some());
    }

    fn tiny_sharded(transport: Transport) -> ShardedConfig {
        ShardedConfig {
            base: LoadgenConfig {
                capacity: Bytes::gib(1),
                ..tiny(transport)
            },
            devices: 2,
            policy: PolicyKind::BestFit,
        }
    }

    #[test]
    fn sharded_decision_counts_are_exact_for_every_placement() {
        let cfg = tiny_sharded(Transport::InProc);
        for placement in PLACEMENTS {
            let run = run_sharded_placement(&cfg, placement);
            assert_eq!(run.decisions, 48 * 5, "{placement:?}");
            assert_eq!(run.rejected, 48, "{placement:?}");
            assert_eq!(run.admission.count(), run.decisions, "{placement:?}");
            assert_eq!(run.containers_per_device.len(), 2, "{placement:?}");
            assert_eq!(
                run.containers_per_device.iter().sum::<u64>(),
                48,
                "{placement:?}"
            );
        }
    }

    #[test]
    fn sharded_round_robin_spreads_containers_evenly() {
        let run = run_sharded_placement(
            &tiny_sharded(Transport::InProc),
            PlacementPolicy::RoundRobin,
        );
        assert_eq!(run.containers_per_device, vec![24, 24]);
    }

    #[test]
    fn sharded_socket_transport_matches_inproc_counts() {
        for codec in [WireCodec::Json, WireCodec::Binary] {
            let cfg = ShardedConfig {
                base: LoadgenConfig {
                    containers: 24,
                    workers: 3,
                    capacity: Bytes::gib(1),
                    ..tiny(Transport::Socket(codec))
                },
                ..tiny_sharded(Transport::InProc)
            };
            let run = run_sharded_placement(&cfg, PlacementPolicy::MostFree);
            assert_eq!(run.decisions, 24 * 5, "{codec:?}");
            assert_eq!(run.rejected, 24, "{codec:?}");
        }
    }

    #[test]
    fn sharded_contended_storm_suspends_and_still_completes() {
        // Two 700 MiB devices, 4 workers × (384 MiB chunk + 66 MiB ctx)
        // held 200 µs: whichever device hosts ≥2 concurrent containers
        // (all three placements do at 4 workers × 2 devices) must
        // suspend — and the storm must still finish.
        let cfg = ShardedConfig {
            base: LoadgenConfig {
                capacity: Bytes::mib(700),
                hold_us: 200,
                ..tiny(Transport::InProc)
            },
            devices: 2,
            policy: PolicyKind::BestFit,
        };
        for placement in PLACEMENTS {
            let run = run_sharded_placement(&cfg, placement);
            assert!(
                run.suspensions > 0,
                "{placement:?}: no contention at 700 MiB/device is implausible"
            );
            assert_eq!(run.decisions, 48 * 5, "{placement:?}");
        }
    }

    #[test]
    fn sharded_report_json_is_valid_and_complete() {
        let cfg = ShardedConfig {
            base: LoadgenConfig {
                containers: 12,
                workers: 2,
                capacity: Bytes::gib(1),
                ..tiny(Transport::InProc)
            },
            ..tiny_sharded(Transport::InProc)
        };
        let report = run_sharded(&cfg);
        assert_eq!(report.runs.len(), PLACEMENTS.len());
        let text = render_sharded_json(&report);
        let json = convgpu_ipc::json::parse(&text).expect("BENCH_4.json must parse");
        let placements = match json.get("placements") {
            Some(convgpu_ipc::json::Json::Arr(a)) => a,
            other => panic!("placements must be an array, got {other:?}"),
        };
        assert_eq!(placements.len(), 3);
        for p in placements {
            assert!(p.get("decisions_per_sec").is_some());
            assert!(p.get("containers_per_device").is_some());
            let adm = p.get("admission_ms").expect("admission_ms object");
            for q in ["p50", "p95", "p99", "mean", "count"] {
                assert!(adm.get(q).is_some(), "missing {q}");
            }
        }
        assert!(json.get("sharded_total_decisions_per_sec").is_some());
    }

    fn tiny_cluster(codec: WireCodec) -> ClusterLoadConfig {
        ClusterLoadConfig {
            base: LoadgenConfig {
                capacity: Bytes::gib(1),
                ..tiny(Transport::InProc)
            },
            nodes: 2,
            devices_per_node: 1,
            policy: PolicyKind::BestFit,
            codec,
        }
    }

    #[test]
    fn cluster_decision_counts_are_exact_for_every_strategy() {
        let cfg = tiny_cluster(WireCodec::Binary);
        for strategy in STRATEGIES {
            let run = run_cluster_strategy(&cfg, strategy);
            assert_eq!(run.decisions, 48 * 5, "{strategy:?}");
            assert_eq!(run.rejected, 48, "{strategy:?}");
            assert_eq!(run.admission.count(), run.decisions, "{strategy:?}");
            assert_eq!(run.containers_per_node.len(), 2, "{strategy:?}");
            assert_eq!(
                run.containers_per_node.iter().sum::<u64>(),
                48,
                "{strategy:?}"
            );
            assert_eq!(run.timeouts, 0, "{strategy:?}");
            assert_eq!(run.failovers, 0, "{strategy:?}");
        }
    }

    #[test]
    fn cluster_json_codec_matches_binary_counts() {
        let cfg = ClusterLoadConfig {
            base: LoadgenConfig {
                containers: 24,
                workers: 3,
                capacity: Bytes::gib(1),
                ..tiny(Transport::InProc)
            },
            ..tiny_cluster(WireCodec::Json)
        };
        let run = run_cluster_strategy(&cfg, SwarmStrategy::Spread);
        assert_eq!(run.decisions, 24 * 5);
        assert_eq!(run.rejected, 24);
        // Spread balances the *live* population (homes leave the count at
        // close), so lifetime totals are near-even, not an exact split.
        assert_eq!(run.containers_per_node.iter().sum::<u64>(), 24);
        assert!(
            run.containers_per_node.iter().all(|&n| n > 0),
            "spread must use both nodes, got {:?}",
            run.containers_per_node
        );
    }

    #[test]
    fn cluster_contended_storm_suspends_and_still_completes() {
        // Two 700 MiB single-device nodes, 4 workers × (384 MiB chunk +
        // 66 MiB ctx) held 200 µs: by pigeonhole some node hosts ≥2
        // concurrent containers under every strategy, and 2 × 450 MiB
        // exceeds 700 MiB — so suspensions must happen, routed over real
        // node sockets, and the storm must still finish.
        let cfg = ClusterLoadConfig {
            base: LoadgenConfig {
                capacity: Bytes::mib(700),
                hold_us: 200,
                ..tiny(Transport::InProc)
            },
            ..tiny_cluster(WireCodec::Binary)
        };
        for strategy in STRATEGIES {
            let run = run_cluster_strategy(&cfg, strategy);
            assert!(
                run.suspensions > 0,
                "{strategy:?}: no contention at 700 MiB/node is implausible"
            );
            assert_eq!(run.decisions, 48 * 5, "{strategy:?}");
        }
    }

    #[test]
    fn cluster_report_json_is_valid_and_complete() {
        let cfg = ClusterLoadConfig {
            base: LoadgenConfig {
                containers: 12,
                workers: 2,
                capacity: Bytes::gib(1),
                ..tiny(Transport::InProc)
            },
            ..tiny_cluster(WireCodec::Binary)
        };
        let report = run_cluster(&cfg);
        assert_eq!(report.runs.len(), STRATEGIES.len());
        let text = render_cluster_json(&report);
        let json = convgpu_ipc::json::parse(&text).expect("BENCH_7.json must parse");
        let strategies = match json.get("strategies") {
            Some(convgpu_ipc::json::Json::Arr(a)) => a,
            other => panic!("strategies must be an array, got {other:?}"),
        };
        assert_eq!(strategies.len(), 3);
        for s in strategies {
            assert!(s.get("decisions_per_sec").is_some());
            assert!(s.get("containers_per_node").is_some());
            for counter in ["retries", "timeouts", "failovers"] {
                assert!(s.get(counter).is_some(), "missing {counter}");
            }
            let adm = s.get("admission_ms").expect("admission_ms object");
            for q in ["p50", "p95", "p99", "mean", "count"] {
                assert!(adm.get(q).is_some(), "missing {q}");
            }
        }
        assert!(json.get("cluster_total_decisions_per_sec").is_some());
    }
}
