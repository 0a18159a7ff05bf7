//! The paper's Fig. 6 workload as a live run: TensorFlow-MNIST-style CNN
//! training inside a ConVGPU container, with a second MNIST container
//! sharing the same GPU.
//!
//! ```text
//! cargo run --release --example mnist_training [steps]
//! ```
//!
//! The default 200 steps keep the example snappy; the full paper-scale
//! measurement (2000 steps in virtual time) lives in
//! `cargo run -p convgpu-bench --bin repro_fig6`.

use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::sim::units::Bytes;
use convgpu::workloads::MnistCnnProgram;

fn main() {
    let steps: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("steps must be an integer"))
        .unwrap_or(200);

    // 1 workload second = 2 ms wall; a ~40 s (200-step) training run
    // takes ~80 ms plus real IPC.
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.002,
        ..ConVGpuConfig::default()
    })
    .expect("start ConVGPU");
    let clock = convgpu.clock().clone();

    println!("training 2 MNIST CNNs ({steps} steps each) on one shared K20m…");
    let t0 = clock.now();
    // Two trainers with 2 GiB limits each: both fit on the 5 GiB card,
    // arenas sized to their limits.
    let trainers: Vec<_> = (0..2)
        .map(|i| {
            let program = MnistCnnProgram::with_steps(steps)
                .with_arena(Bytes::mib(1800))
                .boxed();
            convgpu
                .run_container(
                    RunCommand::new("tensorflow:1.2")
                        .nvidia_memory("2g")
                        .name(format!("mnist-{i}")),
                    program,
                )
                .expect("launch trainer")
        })
        .collect();

    for (i, s) in trainers.into_iter().enumerate() {
        s.wait().expect("training run");
        println!(
            "  trainer {i} finished at t={:.1}s",
            clock.now().as_secs_f64()
        );
    }
    println!(
        "both finished in {:.1}s workload time; device kernels executed: {}",
        (clock.now() - t0).as_secs_f64(),
        convgpu.device().counters().kernels
    );
    for m in convgpu.metrics() {
        println!(
            "  {}: {} workspace allocations gated, {} suspensions",
            m.id, m.granted_allocs, m.suspend_episodes
        );
    }
    convgpu.shutdown();
}
