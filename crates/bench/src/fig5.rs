//! Fig. 5: container creation time, with vs without ConVGPU.
//!
//! The paper reports ≈ 0.41 s without and ≈ 0.47 s with (+15 %,
//! +0.0618 s): the customized nvidia-docker's scheduler registration,
//! directory/socket setup and two extra volume mounts. The measurement
//! here spans the same window — from issuing the (rewritten) run command
//! until the container is started — on the session clock.

use convgpu_core::middleware::{ConVGpu, ConVGpuConfig};
use convgpu_core::nvidia_docker::RunCommand;
use convgpu_sim_core::stats::Summary;

/// Fig. 5 outcome.
#[derive(Clone, Debug)]
pub struct Fig5Result {
    /// Creation time without ConVGPU, seconds (workload time).
    pub baseline: Summary,
    /// Creation time with ConVGPU, seconds.
    pub convgpu: Summary,
}

impl Fig5Result {
    /// Overhead fraction (mean over mean − 1).
    pub fn overhead_fraction(&self) -> f64 {
        self.convgpu.mean / self.baseline.mean - 1.0
    }
}

/// Run the Fig. 5 experiment with `reps` repetitions (paper: 10).
///
/// `time_scale` compresses the Docker-side cost model; 1.0 reproduces the
/// paper's absolute numbers but takes `reps × ~0.9 s`, while 0.1 keeps
/// the ratio with a 10× faster run (the real ConVGPU work — registration,
/// directory and socket setup — is microseconds either way and therefore
/// does not distort a 0.1 scale measurably).
pub fn run_fig5(reps: usize, time_scale: f64) -> Fig5Result {
    let convgpu = ConVGpu::start(ConVGpuConfig {
        time_scale,
        ..ConVGpuConfig::default()
    })
    .expect("start middleware");
    let clock = convgpu.clock().clone();

    let mut baseline = Vec::with_capacity(reps);
    let mut with = Vec::with_capacity(reps);
    for _ in 0..reps {
        // Without: plain nvidia-docker (GPU devices + driver volume, no
        // ConVGPU pieces).
        let t0 = clock.now();
        let id = convgpu
            .nvidia_docker()
            .run_unmanaged(&RunCommand::new("cuda-app"))
            .expect("baseline run");
        baseline.push((clock.now() - t0).as_secs_f64());
        convgpu.engine().stop(id, 0).expect("stop baseline");

        // With: the customized nvidia-docker.
        let t0 = clock.now();
        let prepared = convgpu
            .nvidia_docker()
            .run(&RunCommand::new("cuda-app").nvidia_memory("512m"))
            .expect("convgpu run");
        with.push((clock.now() - t0).as_secs_f64());
        convgpu.engine().stop(prepared.id, 0).expect("stop convgpu");
    }
    convgpu.shutdown();
    Fig5Result {
        baseline: Summary::of(&baseline),
        convgpu: Summary::of(&with),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creation_overhead_is_positive_and_moderate() {
        let r = run_fig5(4, 0.05);
        let overhead = r.overhead_fraction();
        assert!(
            overhead > 0.02,
            "ConVGPU must cost something: {overhead:.3} ({r:?})"
        );
        assert!(
            overhead < 0.60,
            "overhead should stay moderate: {overhead:.3} ({r:?})"
        );
    }
}
