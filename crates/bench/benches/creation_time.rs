//! Criterion bench behind paper Fig. 5: container creation cost, with vs
//! without ConVGPU. The engine cost model is compressed 100× so each
//! sample is fast; the *ratio* is the result.
//!
//! Run: `cargo bench -p convgpu-bench --bench creation_time`

use convgpu_bench::micro::Criterion;
use convgpu_core::middleware::{ConVGpu, ConVGpuConfig, TransportMode};
use convgpu_core::nvidia_docker::RunCommand;
use std::time::Duration;

fn bench_creation(c: &mut Criterion) {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale: 0.01,
        transport: TransportMode::UnixSocket,
        ..ConVGpuConfig::default()
    })
    .expect("start middleware");

    let mut group = c.benchmark_group("fig5_creation_time");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(8));

    group.bench_function("create_without_convgpu", |b| {
        b.iter(|| {
            let id = convgpu
                .nvidia_docker()
                .run_unmanaged(&RunCommand::new("cuda-app"))
                .unwrap();
            convgpu.engine().stop(id, 0).unwrap();
        })
    });
    group.bench_function("create_with_convgpu", |b| {
        b.iter(|| {
            let prepared = convgpu
                .nvidia_docker()
                .run(&RunCommand::new("cuda-app").nvidia_memory("256m"))
                .unwrap();
            convgpu.engine().stop(prepared.id, 0).unwrap();
        })
    });
    group.finish();
}

fn main() {
    let mut c = Criterion::default();
    bench_creation(&mut c);
}
