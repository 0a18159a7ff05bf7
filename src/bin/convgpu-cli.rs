//! `convgpu-cli` — a miniature `nvidia-docker`-style command line over
//! the simulated ConVGPU stack.
//!
//! ```text
//! cargo run --release --bin convgpu-cli -- run --nvidia-memory=512m --workload=sample:small cuda-app
//! cargo run --release --bin convgpu-cli -- burst --containers=12 --policy=bf
//! cargo run --release --bin convgpu-cli -- info
//! ```
//!
//! Subcommands:
//!
//! * `run [--nvidia-memory=<size>] [--policy=<fifo|bf|ru|rand>]
//!   [--workload=<spec>] <image>` — launch one managed container and wait
//!   for it. Workload specs: `sample:<type>` (Table III type),
//!   `mnist[:steps]`, `pipeline[:chunks]`, `inference[:requests]`.
//! * `burst [--containers=N] [--policy=P] [--seed=S]` — the paper's §IV-A
//!   cloud emulation, compressed to milliseconds.
//! * `info` — print the simulated device and scheduler configuration.
//! * `metrics [--policy=P] [--devices=N]` — run a small contention
//!   scenario and print the Prometheus text exposition (what
//!   `QueryMetrics` returns). With `--devices=N` the scenario runs on an
//!   N-GPU topology and the exposition carries per-device gauges.
//! * `trace [--policy=P] [--out=FILE]` — run the same scenario and write
//!   a Chrome-trace JSON timeline (load in `chrome://tracing`).
//! * `cluster serve-node --socket=ENDPOINT [--name=N] [--capacity-mib=M]
//!   [--devices=D] [--policy=P] [--seed=S]` — run one cluster node: a
//!   full `SchedulerService` on its own socket, serving until the
//!   process is killed. One process per node is what makes cluster mode
//!   genuinely distributed (see `docs/CLUSTER.md`). Endpoints are
//!   `unix:/path`, `tcp:host:port`, or a bare path; `tcp:0.0.0.0:7070`
//!   serves real multi-host clusters, and `tcp:host:0` announces the
//!   kernel-assigned port on its ready line.
//! * `cluster route --socket=ENDPOINT --node=NAME=ENDPOINT...
//!   [--strategy=spread|binpack|random] [--codec=json|binary]
//!   [--deadline-ms=N] [--retries=N] [--journal=DIR]` — front the named
//!   node endpoints with the fault-tolerant cluster router: Swarm-style
//!   placement, per-request deadlines, bounded retry with backoff, and
//!   node-health driven degradation, serving the same wire protocol on
//!   `--socket`. With `--journal=DIR` the router's home map is durable:
//!   every mutation lands in a write-ahead journal under `DIR` and a
//!   restarted router replays it, recovering every home with its full
//!   placement checkpoint instead of re-learning homes with zeros
//!   (`docs/CLUSTER.md`, "Durability & restart").

use convgpu::gpu::GpuProgram;
use convgpu::middleware::nvidia_docker::DEFAULT_MEMORY_LIMIT;
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::rng::DetRng;
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;
use convgpu::workloads::{
    ContainerType, InferenceServer, MnistCnnProgram, PipelineProgram, SampleProgram,
};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: convgpu-cli <run|burst|info|metrics|trace|cluster> [options]\n\
         \n\
         run     [--nvidia-memory=<size>] [--policy=<fifo|bf|ru|rand>]\n\
                 [--workload=<sample:TYPE|mnist[:STEPS]|pipeline[:CHUNKS]|inference[:REQS]>]\n\
                 <image>\n\
         burst   [--containers=N] [--policy=P] [--seed=S]\n\
         info\n\
         metrics [--policy=P] [--devices=N]\n\
         trace   [--policy=P] [--out=FILE]\n\
         cluster serve-node --socket=ENDPOINT [--name=N] [--capacity-mib=M]\n\
                 [--devices=D] [--policy=P] [--seed=S]\n\
         cluster route --socket=ENDPOINT --node=NAME=ENDPOINT [--node=...]\n\
                 [--strategy=spread|binpack|random] [--codec=json|binary]\n\
                 [--deadline-ms=N] [--retries=N] [--journal=DIR]\n\
         \n\
         ENDPOINT is `unix:/path`, `tcp:host:port`, or a bare path\n\
         (a UNIX socket). `tcp:host:0` binds a kernel-assigned port,\n\
         announced on the ready line. `--devices` takes 1 to 256."
    );
    ExitCode::from(2)
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    match s {
        "fifo" => Some(PolicyKind::Fifo),
        "bf" | "best-fit" | "bestfit" => Some(PolicyKind::BestFit),
        "ru" | "recent-use" => Some(PolicyKind::RecentUse),
        "rand" | "random" => Some(PolicyKind::Random),
        _ => None,
    }
}

/// A `--devices=` count: at least one, and no more than the ticket's
/// one-byte device lane can name.
fn parse_devices(s: &str) -> Option<u32> {
    use convgpu::scheduler::multi_gpu::MultiGpuScheduler;
    s.parse()
        .ok()
        .filter(|&n| n > 0 && n as usize <= MultiGpuScheduler::MAX_DEVICES)
}

fn parse_type(s: &str) -> Option<ContainerType> {
    ContainerType::ALL.into_iter().find(|t| t.label() == s)
}

fn parse_workload(spec: &str) -> Option<(Box<dyn GpuProgram>, Option<String>)> {
    let (kind, arg) = match spec.split_once(':') {
        Some((k, a)) => (k, Some(a)),
        None => (spec, None),
    };
    match kind {
        "sample" => {
            let ty = parse_type(arg.unwrap_or("small"))?;
            Some((
                SampleProgram::for_type(ty).boxed(),
                Some(ty.nvidia_memory_option()),
            ))
        }
        "mnist" => {
            let steps: u32 = arg.unwrap_or("200").parse().ok()?;
            Some((
                MnistCnnProgram::with_steps(steps)
                    .with_arena(Bytes::mib(1800))
                    .boxed(),
                Some("2g".into()),
            ))
        }
        "pipeline" => {
            let chunks: u32 = arg.unwrap_or("16").parse().ok()?;
            Some((
                PipelineProgram::new(chunks, Bytes::mib(256)).boxed(),
                Some("768m".into()),
            ))
        }
        "inference" => {
            let reqs: u32 = arg.unwrap_or("100").parse().ok()?;
            let srv = InferenceServer::resnet50(reqs, 7);
            let mem = format!("{}m", srv.required_memory().as_mib());
            Some((srv.boxed(), Some(mem)))
        }
        _ => None,
    }
}

fn start(policy: PolicyKind) -> ConVGpu {
    ConVGpu::start(ConVGpuConfig {
        time_scale: 0.002,
        policy,
        ..ConVGpuConfig::default()
    })
    .expect("start ConVGPU middleware")
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut nvidia_memory: Option<String> = None;
    let mut policy = PolicyKind::BestFit;
    let mut workload = "sample:small".to_string();
    let mut image: Option<String> = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--nvidia-memory=") {
            nvidia_memory = Some(v.to_string());
        } else if let Some(v) = a.strip_prefix("--policy=") {
            match parse_policy(v) {
                Some(p) => policy = p,
                None => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--workload=") {
            workload = v.to_string();
        } else if a.starts_with("--") {
            return usage();
        } else {
            image = Some(a.clone());
        }
    }
    let Some(image) = image else { return usage() };
    let Some((program, default_mem)) = parse_workload(&workload) else {
        eprintln!("unknown workload {workload:?}");
        return usage();
    };
    let convgpu = start(policy);
    let mut cmd = RunCommand::new(image);
    if let Some(mem) = nvidia_memory.or(default_mem) {
        cmd = cmd.nvidia_memory(mem);
    }
    println!(
        "running workload {workload} under policy {} on {}…",
        policy.label(),
        convgpu.device().props().name
    );
    let session = match convgpu.run_container(cmd, program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("convgpu-cli: {e}");
            return ExitCode::FAILURE;
        }
    };
    let id = session.container;
    let result = session.wait();
    let code = match result {
        Ok(()) => {
            println!("container {id} completed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("container {id} failed: {e}");
            ExitCode::FAILURE
        }
    };
    for m in convgpu.metrics() {
        println!(
            "  {}: limit {}, {} grants, {} rejections, suspended {:.2}s",
            m.id,
            m.limit,
            m.granted_allocs,
            m.rejected_allocs,
            m.total_suspended.as_secs_f64()
        );
    }
    convgpu.shutdown();
    code
}

fn cmd_burst(args: &[String]) -> ExitCode {
    let mut n: u32 = 12;
    let mut policy = PolicyKind::BestFit;
    let mut seed: u64 = 2017;
    for a in args {
        if let Some(v) = a.strip_prefix("--containers=") {
            n = match v.parse() {
                Ok(v) => v,
                Err(_) => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--policy=") {
            match parse_policy(v) {
                Some(p) => policy = p,
                None => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = match v.parse() {
                Ok(v) => v,
                Err(_) => return usage(),
            };
        } else {
            return usage();
        }
    }
    let convgpu = start(policy);
    let clock = convgpu.clock().clone();
    println!(
        "burst: {n} containers, policy {}, arrivals every 5 s (compressed)",
        policy.label()
    );
    let mut rng = DetRng::seed_from_u64(seed);
    let mut sessions = Vec::new();
    for _ in 0..n {
        let ty = ContainerType::random(&mut rng);
        match convgpu.run_container(
            RunCommand::new("cuda-app").nvidia_memory(ty.nvidia_memory_option()),
            SampleProgram::for_type(ty).boxed(),
        ) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                eprintln!("launch failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        clock.sleep(SimDuration::from_secs(5));
    }
    let mut failures = 0;
    for s in sessions {
        if s.wait().is_err() {
            failures += 1;
        }
    }
    let metrics = convgpu.metrics();
    let avg_susp: f64 = metrics
        .iter()
        .map(|m| m.total_suspended.as_secs_f64())
        .sum::<f64>()
        / metrics.len().max(1) as f64;
    println!(
        "finished at t={:.1}s | avg suspended {:.1}s | {} suspended at least once | {failures} failures",
        clock.now().as_secs_f64(),
        avg_susp,
        metrics.iter().filter(|m| m.suspend_episodes > 0).count(),
    );
    convgpu.shutdown();
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_info() -> ExitCode {
    let convgpu = start(PolicyKind::BestFit);
    let props = convgpu.device().props().clone();
    println!("device: {}", props.name);
    println!("  memory:              {}", props.total_global_mem);
    println!(
        "  compute capability:  {}.{}",
        props.compute_capability.0, props.compute_capability.1
    );
    println!("  SMs:                 {}", props.multiprocessor_count);
    println!("  concurrent kernels:  {}", props.concurrent_kernels);
    println!("  pitch alignment:     {}", props.pitch_alignment);
    println!("  managed granularity: {}", props.managed_granularity);
    println!("scheduler:");
    convgpu.service().with_scheduler(|s| {
        println!("  policy:              {}", s.policy_name());
        println!("  capacity:            {}", s.config().capacity);
        println!("  ctx overhead:        {}", s.config().ctx_overhead);
        println!("  default limit:       {DEFAULT_MEMORY_LIMIT}");
    });
    convgpu.shutdown();
    ExitCode::SUCCESS
}

/// Run a short three-container contention scenario so the metrics and
/// trace subcommands have real data: each container allocates 2 GiB on
/// a 5 GiB device. Granted containers hold their memory until a
/// suspension shows up on the scheduler's books, so the exposition
/// always demonstrates suspend/resume regardless of launch timing.
fn run_sample_scenario(convgpu: &ConVGpu) -> Result<(), ExitCode> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let release = Arc::new(AtomicBool::new(false));
    let mut sessions = Vec::new();
    for _ in 0..3 {
        let release = Arc::clone(&release);
        let program = Box::new(convgpu::gpu::FnProgram::new(
            "hold",
            move |api, pid, clock| {
                let p = api.cuda_malloc(pid, Bytes::mib(2048))?;
                while !release.load(Ordering::Acquire) {
                    clock.sleep(SimDuration::from_millis(50));
                }
                api.cuda_free(pid, p)
            },
        ));
        match convgpu.run_container(RunCommand::new("cuda-app").nvidia_memory("2048m"), program) {
            Ok(s) => sessions.push(s),
            Err(e) => {
                eprintln!("launch failed: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < deadline
        && !convgpu.metrics().iter().any(|m| m.suspend_episodes > 0)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    release.store(true, Ordering::Release);
    for s in sessions {
        let _ = s.wait();
    }
    Ok(())
}

fn parse_policy_args(args: &[String]) -> Result<(PolicyKind, Vec<String>), ExitCode> {
    let mut policy = PolicyKind::BestFit;
    let mut rest = Vec::new();
    for a in args {
        if let Some(v) = a.strip_prefix("--policy=") {
            match parse_policy(v) {
                Some(p) => policy = p,
                None => return Err(usage()),
            }
        } else {
            rest.push(a.clone());
        }
    }
    Ok((policy, rest))
}

fn cmd_metrics(args: &[String]) -> ExitCode {
    use convgpu::middleware::TopologySpec;
    use convgpu::scheduler::multi_gpu::PlacementPolicy;
    let (policy, rest) = match parse_policy_args(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let mut devices: u32 = 1;
    for a in &rest {
        if let Some(v) = a.strip_prefix("--devices=") {
            devices = match parse_devices(v) {
                Some(n) => n,
                None => return usage(),
            };
        } else {
            return usage();
        }
    }
    let convgpu = if devices == 1 {
        start(policy)
    } else {
        // Per-device 3 GiB keeps the 3 × 2 GiB scenario contended on at
        // least one device, so the per-device suspension gauges light up.
        let started = ConVGpu::start(ConVGpuConfig {
            time_scale: 0.002,
            policy,
            topology: TopologySpec::MultiGpu {
                capacities: vec![Bytes::gib(3); devices as usize],
                placement: PlacementPolicy::RoundRobin,
            },
            ..ConVGpuConfig::default()
        });
        match started {
            Ok(c) => c,
            Err(e) => {
                eprintln!("convgpu-cli: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    if let Err(code) = run_sample_scenario(&convgpu) {
        return code;
    }
    print!("{}", convgpu.metrics_text());
    convgpu.shutdown();
    ExitCode::SUCCESS
}

fn cmd_trace(args: &[String]) -> ExitCode {
    let (policy, rest) = match parse_policy_args(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let mut out = "convgpu-trace.json".to_string();
    for a in &rest {
        if let Some(v) = a.strip_prefix("--out=") {
            out = v.to_string();
        } else {
            return usage();
        }
    }
    let convgpu = start(policy);
    if let Err(code) = run_sample_scenario(&convgpu) {
        return code;
    }
    let trace = convgpu.chrome_trace();
    convgpu.shutdown();
    // Sanity: the export must be well-formed JSON before we ship it.
    if let Err(e) = convgpu::ipc::json::parse(&trace) {
        eprintln!("internal error: trace export is not valid JSON: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out, &trace) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {out} ({} bytes) — open in chrome://tracing or Perfetto",
        trace.len()
    );
    ExitCode::SUCCESS
}

/// Announce readiness on stdout and block until the process is killed.
/// The line is flushed explicitly so a parent waiting on a pipe sees it
/// even before the process's buffered exit.
fn serve_forever(ready: String) -> ExitCode {
    use std::io::Write;
    println!("{ready}");
    let _ = std::io::stdout().flush();
    loop {
        std::thread::park();
    }
}

/// Parse a `--socket=` value as an endpoint URI (`unix:/path`,
/// `tcp:host:port`, or a bare filesystem path for compatibility with
/// pre-transport invocations and scripts).
fn parse_endpoint(v: &str) -> Option<convgpu::ipc::transport::EndpointAddr> {
    match convgpu::ipc::transport::EndpointAddr::parse(v) {
        Ok(e) => Some(e),
        Err(e) => {
            eprintln!("convgpu-cli: bad endpoint {v:?}: {e}");
            None
        }
    }
}

fn cmd_cluster_serve_node(args: &[String]) -> ExitCode {
    use convgpu::ipc::transport::EndpointAddr;
    use convgpu::middleware::router::NodeServer;
    use convgpu::scheduler::backend::TopologyBackend;
    use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
    use convgpu::scheduler::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
    use convgpu::sim::clock::RealClock;
    use std::path::Path;

    let mut socket: Option<EndpointAddr> = None;
    let mut name = "node".to_string();
    let mut capacity = Bytes::gib(5);
    let mut devices: u32 = 1;
    let mut policy = PolicyKind::BestFit;
    let mut seed: u64 = 0xC0DE;
    for a in args {
        if let Some(v) = a.strip_prefix("--socket=") {
            socket = match parse_endpoint(v) {
                Some(e) => Some(e),
                None => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--name=") {
            name = v.to_string();
        } else if let Some(v) = a.strip_prefix("--capacity-mib=") {
            capacity = match v.parse() {
                Ok(n) => Bytes::mib(n),
                Err(_) => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--devices=") {
            devices = match parse_devices(v) {
                Some(n) => n,
                None => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--policy=") {
            match parse_policy(v) {
                Some(p) => policy = p,
                None => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = match v.parse() {
                Ok(n) => n,
                Err(_) => return usage(),
            };
        } else {
            return usage();
        }
    }
    let Some(socket) = socket else { return usage() };
    // TCP endpoints have no filesystem home; state goes under temp.
    let base_dir = socket
        .unix_path()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(std::env::temp_dir);
    if let Err(e) = std::fs::create_dir_all(&base_dir) {
        eprintln!("convgpu-cli: cannot create {}: {e}", base_dir.display());
        return ExitCode::FAILURE;
    }
    let config = SchedulerConfig::with_capacity(capacity);
    let backend = if devices == 1 {
        TopologyBackend::Single(Scheduler::new(config, policy.build(seed)))
    } else {
        TopologyBackend::MultiGpu(MultiGpuScheduler::with_config(
            config,
            &vec![capacity; devices as usize],
            policy,
            PlacementPolicy::BestFitDevice,
            seed,
        ))
    };
    let node = match NodeServer::serve_endpoint(
        name.clone(),
        backend,
        RealClock::handle(),
        base_dir,
        &socket,
    ) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("convgpu-cli: cannot serve node on {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The resolved endpoint matters for `tcp:host:0`: the ready line is
    // how a parent process learns the kernel-assigned port.
    let ready = format!(
        "cluster node {name} ready: {devices} device(s) x {} on {}",
        capacity,
        node.endpoint()
    );
    serve_forever(ready)
}

fn cmd_cluster_route(args: &[String]) -> ExitCode {
    use convgpu::ipc::binary::WireCodec;
    use convgpu::ipc::transport::EndpointAddr;
    use convgpu::middleware::journal::JournalConfig;
    use convgpu::middleware::router::{ClusterRouter, RouterConfig};
    use convgpu::scheduler::cluster::SwarmStrategy;
    use convgpu::sim::clock::RealClock;
    use std::sync::Arc;

    let mut socket: Option<EndpointAddr> = None;
    let mut nodes: Vec<(String, EndpointAddr)> = Vec::new();
    let mut cfg = RouterConfig::default();
    let mut codec = WireCodec::Json;
    let mut journal: Option<std::path::PathBuf> = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--socket=") {
            socket = match parse_endpoint(v) {
                Some(e) => Some(e),
                None => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--node=") {
            let Some((name, endpoint)) = v.split_once('=') else {
                return usage();
            };
            let Some(endpoint) = parse_endpoint(endpoint) else {
                return usage();
            };
            nodes.push((name.to_string(), endpoint));
        } else if let Some(v) = a.strip_prefix("--strategy=") {
            match SwarmStrategy::parse(v) {
                Some(s) => cfg.strategy = s,
                None => return usage(),
            }
        } else if let Some(v) = a.strip_prefix("--codec=") {
            codec = match v {
                "json" => WireCodec::Json,
                "binary" => WireCodec::Binary,
                _ => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--deadline-ms=") {
            cfg.deadline = match v.parse() {
                Ok(n) => SimDuration::from_millis(n),
                Err(_) => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--retries=") {
            cfg.max_retries = match v.parse() {
                Ok(n) => n,
                Err(_) => return usage(),
            };
        } else if let Some(v) = a.strip_prefix("--journal=") {
            if v.is_empty() {
                return usage();
            }
            journal = Some(std::path::PathBuf::from(v));
        } else {
            return usage();
        }
    }
    let Some(socket) = socket else { return usage() };
    if nodes.is_empty() {
        eprintln!("convgpu-cli: cluster route needs at least one --node=NAME=ENDPOINT");
        return usage();
    }
    if let Some(parent) = socket.unix_path().and_then(std::path::Path::parent) {
        if let Err(e) = std::fs::create_dir_all(parent) {
            eprintln!("convgpu-cli: cannot create {}: {e}", parent.display());
            return ExitCode::FAILURE;
        }
    }
    let strategy = cfg.strategy;
    let node_names: Vec<String> = nodes.iter().map(|(n, _)| n.clone()).collect();
    // With --journal the home map is durable: the write-ahead journal
    // under DIR replays on startup, recovering full limit/hint/used
    // checkpoints. Without it, a restarted router re-learns container
    // homes lazily with zero checkpoints: the first routed call for an
    // unknown container probes the live nodes' `query_home` (see
    // docs/CLUSTER.md "Durability & restart").
    let journal_note = journal
        .as_ref()
        .map(|d| format!(", journal {}", d.display()))
        .unwrap_or_default();
    let router = match journal {
        Some(dir) => {
            match ClusterRouter::attach_with_journal(
                nodes,
                codec,
                cfg,
                RealClock::handle(),
                JournalConfig::new(dir),
            ) {
                Ok(r) => Arc::new(r),
                Err(e) => {
                    eprintln!("convgpu-cli: cannot open router journal: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Arc::new(ClusterRouter::attach(
            nodes,
            codec,
            cfg,
            RealClock::handle(),
        )),
    };
    let server = match router.serve_on_endpoint(&socket) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("convgpu-cli: cannot serve router on {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ready = format!(
        "cluster router ready: {} node(s) [{}], strategy {}, codec {}{journal_note}, on {}",
        node_names.len(),
        node_names.join(", "),
        strategy.label(),
        codec.label(),
        server.endpoint()
    );
    serve_forever(ready)
}

fn cmd_cluster(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("serve-node") => cmd_cluster_serve_node(&args[1..]),
        Some("route") => cmd_cluster_route(&args[1..]),
        _ => usage(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("burst") => cmd_burst(&args[1..]),
        Some("info") => cmd_info(),
        Some("metrics") => cmd_metrics(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        _ => usage(),
    }
}
