//! Quickstart: share one simulated Tesla K20m between two containers with
//! ConVGPU.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! What happens, in paper terms (Fig. 2): `nvidia-docker run
//! --nvidia-memory=…` registers each container's limit with the GPU
//! memory scheduler; the container gets the wrapper module via a volume
//! mount and `LD_PRELOAD`; every `cudaMalloc` is gated over a real UNIX
//! socket; exits release the memory through the plugin's close signal.

use convgpu::gpu::program::FnProgram;
use convgpu::gpu::{CudaApi, GpuProgram};
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;

fn hold_and_compute(mib: u64, secs: u64) -> Box<dyn GpuProgram> {
    Box::new(FnProgram::new(
        format!("hold-{mib}mib"),
        move |api: &dyn CudaApi, pid, clock| {
            let buf = api.cuda_malloc(pid, Bytes::mib(mib))?;
            println!("  [pid {pid}] allocated {mib} MiB at {buf}");
            clock.sleep(SimDuration::from_secs(secs));
            let (free, total) = api.cuda_mem_get_info(pid)?;
            println!("  [pid {pid}] cudaMemGetInfo: {free} free of {total} (container view)");
            api.cuda_free(pid, buf)
        },
    ))
}

fn main() {
    // time_scale 0.01: one "paper second" of GPU work = 10 ms real time.
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.01,
        ..ConVGpuConfig::default()
    })
    .expect("start ConVGPU");
    println!(
        "ConVGPU up: {} with {} memory, policy {}",
        convgpu.device().props().name,
        convgpu.device().capacity(),
        convgpu.service().with_scheduler(|s| s.policy_name()),
    );

    println!("launching container A (limit 2 GiB) and container B (limit 1 GiB)…");
    let a = convgpu
        .run_container(
            RunCommand::new("cuda-app").nvidia_memory("2g").name("a"),
            hold_and_compute(2048, 3),
        )
        .expect("run container A");
    let b = convgpu
        .run_container(
            RunCommand::new("cuda-app").nvidia_memory("1g").name("b"),
            hold_and_compute(1024, 2),
        )
        .expect("run container B");

    a.wait().expect("container A program");
    b.wait().expect("container B program");

    println!("\nscheduler metrics:");
    for m in convgpu.metrics() {
        println!(
            "  {}: limit {}, {} grants, {} suspensions, suspended {:.2}s",
            m.id,
            m.limit,
            m.granted_allocs,
            m.suspend_episodes,
            m.total_suspended.as_secs_f64()
        );
    }
    let (free, total) = convgpu.device().mem_info();
    println!("device memory after both exits: {free} free of {total}");
    println!("\nscheduler decision log:");
    for line in convgpu.recent_decisions(16) {
        println!("  {line}");
    }
    convgpu.shutdown();
    println!("done.");
}
