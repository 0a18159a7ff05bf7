//! Mixed tenancy: a long-lived inference server and a bursty streaming
//! pipeline sharing one ConVGPU-managed K20m.
//!
//! ```text
//! cargo run --release --example streaming_pipeline
//! ```
//!
//! Shows the asynchronous CUDA surface (streams, async copies, events)
//! running *through* the wrapper module: only allocations are gated, so
//! the pipeline's overlap and the server's request latency are untouched
//! by the middleware.

use convgpu::middleware::{ConVGpu, ConVGpuConfig, RunCommand};
use convgpu::sim::units::Bytes;
use convgpu::workloads::{InferenceServer, PipelineProgram};

fn main() {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.002,
        ..ConVGpuConfig::default()
    })
    .expect("start ConVGPU");
    let clock = convgpu.clock().clone();

    println!("tenant 1: inference server (612 MiB resident, 200 requests)");
    let server = InferenceServer::resnet50(200, 42);
    let server_session = convgpu
        .run_container(
            RunCommand::new("cuda-app")
                .nvidia_memory(format!("{}m", server.required_memory().as_mib()))
                .name("inference"),
            server.boxed(),
        )
        .expect("launch server");

    println!("tenant 2: streaming pipeline (2 x 512 MiB buffers, 24 chunks, overlapped)");
    let pipeline_session = convgpu
        .run_container(
            RunCommand::new("cuda-app")
                .nvidia_memory("1536m")
                .name("pipeline"),
            PipelineProgram::new(24, Bytes::mib(512)).boxed(),
        )
        .expect("launch pipeline");

    server_session.wait().expect("server");
    println!(
        "  inference server done at t={:.1}s",
        clock.now().as_secs_f64()
    );
    pipeline_session.wait().expect("pipeline");
    println!("  pipeline done at t={:.1}s", clock.now().as_secs_f64());

    let c = convgpu.device().counters();
    println!(
        "\ndevice totals: {} kernels, {} memcpys ({} copied), peak memory {}",
        c.kernels,
        c.memcpys,
        Bytes::new(c.bytes_copied),
        c.peak_in_use
    );
    for m in convgpu.metrics() {
        println!(
            "  {}: {} gated allocations, {} suspensions, suspended {:.2}s",
            m.id,
            m.granted_allocs,
            m.suspend_episodes,
            m.total_suspended.as_secs_f64()
        );
    }
    convgpu.shutdown();
}
