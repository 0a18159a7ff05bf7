//! Fig. 6: overall runtime of the TensorFlow MNIST program, with vs
//! without ConVGPU.
//!
//! Paper: 404.93 s with ConVGPU, "only increased 0.7 % more than that of
//! without", because "the user program most spends its time copying data
//! from/to the CPU memory and running GPU kernel code".
//!
//! This experiment runs the MNIST cost model in **virtual time** twice:
//! once against the raw runtime and once through the wrapper module with
//! a *modeled* IPC round-trip cost (defaulting to the paper's measured
//! per-call delta; pass the value measured by your own Fig. 4 run for a
//! machine-calibrated number). Virtual time makes the ratio exact and
//! deterministic.

use convgpu_core::service::{InProcEndpoint, SchedulerService};
use convgpu_gpu_sim::api::CudaApi;
use convgpu_gpu_sim::device::GpuDevice;
use convgpu_gpu_sim::latency::LatencyModel;
use convgpu_gpu_sim::program::GpuProgram;
use convgpu_gpu_sim::runtime::RawCudaRuntime;
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_sim_core::clock::{Clock, VirtualClock};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimDuration;
use convgpu_sim_core::units::Bytes;
use convgpu_workloads::mnist::MnistCnnProgram;
use convgpu_wrapper::module::WrapperModule;
use std::sync::Arc;

/// Fig. 6 outcome.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Result {
    /// Runtime without ConVGPU, seconds (virtual).
    pub baseline_secs: f64,
    /// Runtime with ConVGPU, seconds (virtual).
    pub convgpu_secs: f64,
}

impl Fig6Result {
    /// Overhead percentage.
    pub fn overhead_pct(&self) -> f64 {
        (self.convgpu_secs / self.baseline_secs - 1.0) * 100.0
    }
}

fn run_once(steps: u32, wrapped: Option<SimDuration>) -> f64 {
    let clock = VirtualClock::new();
    let device = Arc::new(GpuDevice::tesla_k20m());
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::clone(&device),
        LatencyModel::tesla_k20m(),
        clock.handle(),
    ));
    let mut program = MnistCnnProgram::with_steps(steps);
    let pid = 1;
    let t0 = clock.now();
    match wrapped {
        None => {
            let handle = clock.handle();
            program.run(&*raw, pid, &handle).expect("baseline mnist");
            raw.cuda_unregister_fat_binary(pid).expect("cleanup");
        }
        Some(ipc_cost) => {
            let container = ContainerId(1);
            let service = Arc::new(SchedulerService::new(
                Scheduler::new(SchedulerConfig::paper(), PolicyKind::BestFit.build(0)),
                clock.handle(),
                std::env::temp_dir().join(format!("convgpu-fig6-{}", std::process::id())),
            ));
            let endpoint = Arc::new(InProcEndpoint::new(service));
            endpoint
                .register(container, Bytes::mib(4096))
                .expect("register");
            let wrapper = WrapperModule::new(
                container,
                Arc::clone(&raw) as Arc<dyn CudaApi>,
                Arc::clone(&endpoint) as Arc<dyn SchedulerEndpoint>,
            )
            .with_modeled_ipc(clock.handle(), ipc_cost);
            let handle = clock.handle();
            program.run(&wrapper, pid, &handle).expect("wrapped mnist");
            wrapper.cuda_unregister_fat_binary(pid).expect("cleanup");
            endpoint.container_close(container).expect("close");
        }
    }
    (clock.now() - t0).as_secs_f64()
}

/// Run the Fig. 6 experiment. `ipc_round_trip` is the per-round-trip
/// wrapper↔scheduler cost to charge (the paper's Fig. 4 delta ≈ 47 µs
/// when `None`).
pub fn run_fig6(steps: u32, ipc_round_trip: Option<SimDuration>) -> Fig6Result {
    let ipc = ipc_round_trip.unwrap_or(SimDuration::from_micros(47));
    Fig6Result {
        baseline_secs: run_once(steps, None),
        convgpu_secs: run_once(steps, Some(ipc)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_small_and_positive() {
        let r = run_fig6(2000, None);
        assert!(
            (300.0..520.0).contains(&r.baseline_secs),
            "baseline scale: {r:?}"
        );
        let pct = r.overhead_pct();
        assert!(pct > 0.0, "ConVGPU costs something: {r:?}");
        assert!(
            pct < 2.0,
            "paper's headline: overhead is marginal (<1-2 %): {pct:.3}% ({r:?})"
        );
    }

    #[test]
    fn overhead_scales_with_ipc_cost() {
        let cheap = run_fig6(200, Some(SimDuration::from_micros(10)));
        let pricey = run_fig6(200, Some(SimDuration::from_millis(5)));
        assert!(pricey.overhead_pct() > cheap.overhead_pct() * 5.0);
        assert_eq!(cheap.baseline_secs, pricey.baseline_secs, "same baseline");
    }
}
