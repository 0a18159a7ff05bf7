//! Fig. 4: response time of the hooked CUDA APIs, with vs without
//! ConVGPU — over **real UNIX sockets**, so the "with" column contains the
//! genuine IPC cost of this machine, exactly as the paper's numbers
//! contain the cost of theirs.

use convgpu_core::handler::ServiceHandler;
use convgpu_core::service::SchedulerService;
use convgpu_gpu_sim::device::GpuDevice;
use convgpu_gpu_sim::latency::LatencyModel;
use convgpu_gpu_sim::runtime::RawCudaRuntime;
use convgpu_ipc::client::SchedulerClient;
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_ipc::server::SocketServer;
use convgpu_scheduler::core::{Scheduler, SchedulerConfig};
use convgpu_scheduler::policy::PolicyKind;
use convgpu_sim_core::clock::RealClock;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;
use convgpu_workloads::apibench::measure_api_response;
use convgpu_wrapper::module::WrapperModule;
use std::path::Path;
use std::sync::Arc;

/// One Fig. 4 pair.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// API label.
    pub api: String,
    /// Mean response time without ConVGPU, milliseconds.
    pub without_ms: f64,
    /// Mean response time with ConVGPU, milliseconds.
    pub with_ms: f64,
}

impl Fig4Row {
    /// `with / without` ratio.
    pub fn ratio(&self) -> f64 {
        self.with_ms / self.without_ms
    }
}

/// The "with ConVGPU" side: container 1's wrapper over `raw`, its
/// scheduler live behind a real socket in `dir`.
fn wrapped(raw: &Arc<RawCudaRuntime>, dir: &Path) -> (WrapperModule, SocketServer) {
    std::fs::create_dir_all(dir).expect("create fig4 dir");
    let service = Arc::new(SchedulerService::new(
        Scheduler::new(SchedulerConfig::paper(), PolicyKind::BestFit.build(0)),
        Arc::clone(raw.clock()),
        dir.to_path_buf(),
    ));
    let server = SocketServer::bind(
        &dir.join("sched.sock"),
        Arc::new(ServiceHandler::new(service)),
    )
    .expect("bind fig4 socket");
    let client = SchedulerClient::connect(server.path()).expect("connect fig4 socket");
    let container = ContainerId(1);
    client
        .register(container, Bytes::gib(2))
        .expect("register fig4 container");
    let wrapper = WrapperModule::new(container, Arc::clone(raw) as _, Arc::new(client));
    (wrapper, server)
}

/// Run the Fig. 4 experiment with `reps` repetitions per API (paper: 10).
pub fn run_fig4(reps: usize) -> Vec<Fig4Row> {
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::new(GpuDevice::tesla_k20m()),
        LatencyModel::tesla_k20m(),
        RealClock::handle(),
    ));

    let dir = std::env::temp_dir().join(format!("convgpu-fig4-{}", std::process::id()));
    let (wrapper, server) = wrapped(&raw, &dir);

    // "Without the solution": straight to the runtime.
    let without = measure_api_response(&*raw, 1, reps).expect("baseline probe");
    // "With the solution": through the wrapper and the socket.
    let with = measure_api_response(&wrapper, 2, reps).expect("wrapped probe");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    without
        .into_iter()
        .zip(with)
        .map(|(w0, w1)| {
            assert_eq!(w0.api, w1.api, "row order must match");
            let (without_ms, with_ms) = (w0.mean_ms(), w1.mean_ms());
            Fig4Row {
                api: w0.api,
                without_ms,
                with_ms,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_gpu_sim::api::CudaApi;
    use std::sync::atomic::Ordering;

    #[test]
    fn fig4_shape_holds() {
        let rows = run_fig4(10);
        assert_eq!(rows.len(), 6);
        let get = |n: &str| rows.iter().find(|r| r.api == n).expect(n).clone();

        // Allocation APIs cost more with ConVGPU (IPC round trips).
        let malloc = get("cudaMalloc");
        assert!(
            malloc.with_ms > malloc.without_ms,
            "wrapped malloc must pay IPC: {malloc:?}"
        );
        // Managed dwarfs everything (mapped-memory setup dominates IPC).
        let managed = get("cudaMallocManaged");
        assert!(managed.without_ms > malloc.without_ms * 10.0);
        // Not asserted: the paper's inversion, cudaMemGetInfo FASTER
        // with ConVGPU (the scheduler answers from its books instead of
        // querying the device). Here that compares wall-clock socket
        // round trips with a modelled 47 us device query, so it follows
        // the host's speed, not the code; on this box it does not hold
        // even in a release build (0.054 ms with, 0.045 ms without).
        // `repro_fig4` prints both and docs/PERFORMANCE.md records them.
        // Not asserted either: the first wrapped `cudaMallocPitch`
        // costing more than the later ones. In a debug build one
        // wall-clock sample against a ten-call mean came out either way
        // round; its cause, the one property fetch, is counted below.
    }

    /// The first wrapped `cudaMallocPitch` makes the wrapper's one
    /// `cudaGetDeviceProperties` fetch (what the "(first)" row adds), and
    /// later calls use the cached geometry.
    #[test]
    fn only_the_first_wrapped_pitch_call_fetches_device_properties() {
        let raw = Arc::new(RawCudaRuntime::new(
            Arc::new(GpuDevice::tesla_k20m()),
            LatencyModel::zero(),
            RealClock::handle(),
        ));
        let dir = std::env::temp_dir().join(format!("convgpu-fig4-pitch-{}", std::process::id()));
        let (wrapper, server) = wrapped(&raw, &dir);
        let fetches = || wrapper.stats().property_fetches.load(Ordering::Relaxed);
        let p = wrapper.cuda_malloc(2, Bytes::mib(1)).unwrap();
        wrapper.cuda_free(2, p).unwrap();
        assert_eq!(fetches(), 0, "cudaMalloc needs no geometry");
        for call in 0..11 {
            let (p, _) = wrapper.cuda_malloc_pitch(2, Bytes::new(1000), 512).unwrap();
            wrapper.cuda_free(2, p).unwrap();
            assert_eq!(fetches(), 1, "after pitch call {call}");
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
