//! The motivating failure (paper §I): what happens when containers share
//! a GPU *without* ConVGPU, versus with it.
//!
//! ```text
//! cargo run --release --example deadlock_demo
//! ```
//!
//! Three containers each try to allocate 2 × 1.5 GiB in two steps on a
//! 5 GiB device:
//!
//! * **Unmanaged (NVIDIA Docker alone)**: the allocations interleave;
//!   containers grab their first buffer, then fail (or in a
//!   retry-forever program, deadlock) on the second because the others
//!   hold the remainder — "accessing the same GPU at the same time by
//!   different containers may cause a program failure. In the worst
//!   case, a deadlock situation can occur."
//! * **Managed (ConVGPU)**: the scheduler suspends late-comers until the
//!   full requirement can be guaranteed; every container completes.

use convgpu::gpu::program::FnProgram;
use convgpu::gpu::{CudaApi, GpuProgram};
use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;

/// Two-phase allocator: the classic hold-and-wait shape.
fn two_phase(name: &str) -> Box<dyn GpuProgram> {
    Box::new(FnProgram::new(
        name.to_string(),
        move |api: &dyn CudaApi, pid, clock| {
            let first = api.cuda_malloc(pid, Bytes::mib(1536))?;
            // Hold the first buffer while "preparing" …
            clock.sleep(SimDuration::from_secs(2));
            // … then ask for the second.
            let second = api.cuda_malloc(pid, Bytes::mib(1536))?;
            clock.sleep(SimDuration::from_secs(1));
            api.cuda_free(pid, second)?;
            api.cuda_free(pid, first)
        },
    ))
}

fn main() {
    let cfg = || ConVGpuConfig {
        time_scale: 0.01,
        ..ConVGpuConfig::default()
    };

    println!("== round 1: unmanaged sharing (NVIDIA Docker alone) ==");
    {
        let convgpu = ConVGpu::start(cfg()).expect("start");
        let sessions: Vec<_> = (0..3)
            .map(|i| {
                convgpu
                    .run_container_unmanaged(
                        RunCommand::new("cuda-app"),
                        two_phase(&format!("unmanaged-{i}")),
                    )
                    .expect("launch")
            })
            .collect();
        let mut failures = 0;
        for (i, s) in sessions.into_iter().enumerate() {
            match s.wait() {
                Ok(()) => println!("  container {i}: completed"),
                Err(e) => {
                    failures += 1;
                    println!("  container {i}: FAILED — {e}");
                }
            }
        }
        println!("  => {failures} of 3 programs failed without coordination\n");
        convgpu.shutdown();
        assert!(failures > 0, "contention must surface without ConVGPU");
    }

    println!("== round 2: the same workload under ConVGPU ==");
    {
        let convgpu = ConVGpu::start(cfg()).expect("start");
        let sessions: Vec<_> = (0..3)
            .map(|i| {
                convgpu
                    .run_container(
                        // Declared limit covers both phases: 2 × 1536 MiB.
                        RunCommand::new("cuda-app").nvidia_memory("3072m"),
                        two_phase(&format!("managed-{i}")),
                    )
                    .expect("launch")
            })
            .collect();
        for (i, s) in sessions.into_iter().enumerate() {
            match s.wait() {
                Ok(()) => println!("  container {i}: completed"),
                Err(e) => println!("  container {i}: failed — {e} (unexpected!)"),
            }
        }
        let metrics = convgpu.metrics();
        let suspended = metrics.iter().filter(|m| m.suspend_episodes > 0).count();
        println!(
            "  => all completed; {suspended} container(s) were suspended while waiting for their guarantee"
        );
        let (free, total) = convgpu.device().mem_info();
        println!("  => device memory restored: {free} of {total}");
        convgpu.shutdown();
    }
}
