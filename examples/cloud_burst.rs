//! Cloud-burst scenario: the paper's §IV-A emulation, live.
//!
//! ```text
//! cargo run --release --example cloud_burst [N] [policy]
//! ```
//!
//! Launches `N` containers (default 12) of random Table III types, one
//! every five (compressed) seconds, each running the paper's sample
//! program — allocate the limit, copy in, complement kernels, copy out —
//! against ONE simulated 5 GiB K20m, over real UNIX sockets. Prints the
//! per-container schedule at the end. Compare policies:
//!
//! ```text
//! cargo run --release --example cloud_burst 16 fifo
//! cargo run --release --example cloud_burst 16 bf
//! ```

use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::rng::DetRng;
use convgpu::sim::time::SimDuration;
use convgpu::workloads::{ContainerType, SampleProgram};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: u32 = args
        .next()
        .map(|a| a.parse().expect("N must be an integer"))
        .unwrap_or(12);
    let policy = match args.next().as_deref() {
        None | Some("bf") => PolicyKind::BestFit,
        Some("fifo") => PolicyKind::Fifo,
        Some("ru") => PolicyKind::RecentUse,
        Some("rand") => PolicyKind::Random,
        Some(other) => panic!("unknown policy {other:?} (fifo|bf|ru|rand)"),
    };

    // 1 paper second = 5 ms wall: a 45 s xlarge runs in 225 ms.
    let scale = 0.005;
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: scale,
        policy,
        ..ConVGpuConfig::default()
    })
    .expect("start ConVGPU");
    let clock = convgpu.clock().clone();
    println!(
        "cloud burst: {n} containers, policy {}, 5 GiB K20m, arrivals every 5 s (x{scale} wall)",
        policy.label()
    );

    let mut rng = DetRng::seed_from_u64(2017);
    let mut sessions = Vec::new();
    for i in 0..n {
        let ty = ContainerType::random(&mut rng);
        println!(
            "t={:6.1}s  launch #{:<2} {:<6} ({} GPU mem, ~{:.0}s runtime)",
            clock.now().as_secs_f64(),
            i,
            ty.label(),
            ty.gpu_memory(),
            ty.sample_duration().as_secs_f64(),
        );
        let session = convgpu
            .run_container(
                RunCommand::new("cuda-app").nvidia_memory(ty.nvidia_memory_option()),
                SampleProgram::for_type(ty).boxed(),
            )
            .expect("launch container");
        sessions.push(session);
        clock.sleep(SimDuration::from_secs(5));
    }

    for s in sessions {
        s.wait().expect("sample program");
    }

    println!(
        "\nall containers finished at t={:.1}s (workload time)",
        clock.now().as_secs_f64()
    );
    println!(
        "{:<10} {:>8} {:>9} {:>12} {:>12}",
        "container", "limit", "suspends", "suspended(s)", "turnaround(s)"
    );
    let mut total_susp = 0.0;
    let metrics = convgpu.metrics();
    for m in &metrics {
        total_susp += m.total_suspended.as_secs_f64();
        println!(
            "{:<10} {:>8} {:>9} {:>12.1} {:>12.1}",
            m.id.to_string(),
            m.limit.to_string(),
            m.suspend_episodes,
            m.total_suspended.as_secs_f64(),
            m.turnaround().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
        );
    }
    println!(
        "\navg suspended: {:.1}s | device peak usage: {}",
        total_susp / metrics.len() as f64,
        convgpu.device().counters().peak_in_use
    );
    convgpu.shutdown();
}
