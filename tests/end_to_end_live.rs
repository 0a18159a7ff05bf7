//! End-to-end integration: the full live stack — customized
//! nvidia-docker → engine → wrapper module → UNIX socket → scheduler →
//! simulated K20m — under realistic multi-container workloads.

use convgpu::gpu::device::GpuDevice;
use convgpu::gpu::latency::LatencyModel;
use convgpu::gpu::program::FnProgram;
use convgpu::gpu::runtime::RawCudaRuntime;
use convgpu::gpu::CudaApi;
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::middleware::{ConVGpu, ConVGpuConfig, InProcEndpoint, RunCommand, SchedulerService};
use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::scheduler::state::ContainerState;
use convgpu::sim::clock::RealClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::time::SimDuration;
use convgpu::sim::units::Bytes;
use convgpu::workloads::{ContainerType, SampleProgram};
use convgpu::wrapper::WrapperModule;
use std::sync::Arc;

fn fast() -> ConVGpuConfig {
    ConVGpuConfig {
        time_scale: 0.001,
        engine: convgpu::container::engine::EngineConfig::instant(),
        ..ConVGpuConfig::default()
    }
}

/// The close is part of the stop: once a session's `wait` returns, its
/// container reads `Closed`, with nothing to wait for.
fn assert_closed(convgpu: &ConVGpu, id: ContainerId) {
    let state = convgpu
        .service()
        .with_scheduler(|s| s.container(id).unwrap().state);
    assert_eq!(state, ContainerState::Closed, "{id}");
}

#[test]
fn mixed_container_types_share_one_gpu_over_sockets() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    let types = [
        ContainerType::Nano,
        ContainerType::Small,
        ContainerType::Medium,
        ContainerType::Large,
        ContainerType::Xlarge,
        ContainerType::Large,
    ];
    let mut sessions = Vec::new();
    for ty in types {
        sessions.push(
            convgpu
                .run_container(
                    RunCommand::new("cuda-app").nvidia_memory(ty.nvidia_memory_option()),
                    SampleProgram::for_type(ty).boxed(),
                )
                .unwrap(),
        );
    }
    let ids: Vec<_> = sessions.iter().map(|s| s.container).collect();
    for s in sessions {
        s.wait().expect("every sample program must complete");
    }
    for &id in &ids {
        assert_closed(&convgpu, id);
    }
    // Total demand (2×2048+4096+1024+512+128 = 9856 MiB) exceeds the
    // 5 GiB device: suspension must have happened, yet everyone finished.
    let metrics = convgpu.metrics();
    assert_eq!(metrics.len(), 6);
    assert!(metrics.iter().any(|m| m.suspend_episodes > 0));
    assert!(metrics.iter().all(|m| m.granted_allocs >= 1));
    let (free, total) = convgpu.device().mem_info();
    assert_eq!(free, total, "all device memory restored");
    convgpu
        .service()
        .with_scheduler(|s| s.check_invariants().unwrap());
    convgpu.shutdown();
}

#[test]
fn device_usage_never_exceeds_capacity_under_load() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    let capacity = convgpu.device().capacity();
    let mut sessions = Vec::new();
    for _ in 0..8 {
        let program = Box::new(FnProgram::new("churn", |api: &dyn CudaApi, pid, clock| {
            for _ in 0..5 {
                let p = api.cuda_malloc(pid, Bytes::mib(700))?;
                clock.sleep(SimDuration::from_millis(200));
                api.cuda_free(pid, p)?;
            }
            Ok(())
        }));
        sessions.push(
            convgpu
                .run_container(RunCommand::new("cuda-app").nvidia_memory("768m"), program)
                .unwrap(),
        );
    }
    for s in sessions {
        s.wait().unwrap();
    }
    assert!(
        convgpu.device().counters().peak_in_use <= capacity,
        "device must never over-commit"
    );
    assert_eq!(convgpu.device().counters().failed_allocs, 0);
    convgpu.shutdown();
}

/// The same program through the daemon's UNIX socket and through an
/// in-process endpoint on a bare service: both complete with the same
/// grants, and both devices end empty.
#[test]
fn transports_agree_on_outcomes() {
    let program = || SampleProgram::for_type(ContainerType::Micro).boxed();
    let convgpu = ConVGpu::start(fast()).unwrap();
    let session = convgpu
        .run_container(RunCommand::new("cuda-app").nvidia_memory("256m"), program())
        .unwrap();
    session.wait().unwrap();
    let socket_grants = convgpu.metrics()[0].granted_allocs;
    let (free, total) = convgpu.device().mem_info();
    assert_eq!(free, total, "socket: device memory still in use");
    convgpu.shutdown();

    let clock = RealClock::scaled_handle(0.001);
    let device = Arc::new(GpuDevice::tesla_k20m());
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::clone(&device),
        LatencyModel::tesla_k20m(),
        Arc::clone(&clock),
    ));
    let service = Arc::new(SchedulerService::new(
        Scheduler::new(SchedulerConfig::paper(), PolicyKind::BestFit.build(0)),
        Arc::clone(&clock),
        std::env::temp_dir().join(format!("convgpu-itest-inproc-{}", std::process::id())),
    ));
    let id = ContainerId(1);
    let endpoint = Arc::new(InProcEndpoint::new(Arc::clone(&service)));
    endpoint.register(id, Bytes::mib(256)).unwrap();
    let wrapper = WrapperModule::new(id, raw as Arc<dyn CudaApi>, endpoint);
    let pid = 1;
    wrapper.cuda_register_fat_binary(pid).unwrap();
    program().run(&wrapper, pid, &clock).unwrap();
    wrapper.cuda_unregister_fat_binary(pid).unwrap();
    let grants = service.with_scheduler(|s| s.container(id).unwrap().granted_allocs);
    assert_eq!(grants, socket_grants, "in-process grants");
    let (free, total) = device.mem_info();
    assert_eq!(free, total, "in-process: device memory still in use");
}

#[test]
fn rejected_over_limit_allocation_is_an_oom_to_the_program() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    let program = Box::new(FnProgram::new("greedy", |api: &dyn CudaApi, pid, _| {
        // 300 MiB against a 128 MiB limit: the scheduler must reject.
        api.cuda_malloc(pid, Bytes::mib(300)).map(|_| ())
    }));
    let session = convgpu
        .run_container(RunCommand::new("cuda-app").nvidia_memory("128m"), program)
        .unwrap();
    let err = session.wait().unwrap_err();
    assert!(err.is_allocation_failure());
    // The device itself was never touched by the rejected request.
    assert_eq!(convgpu.device().counters().failed_allocs, 0);
    convgpu.shutdown();
}

#[test]
fn mem_get_info_reports_container_virtualized_view() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    let program = Box::new(FnProgram::new("introspect", |api: &dyn CudaApi, pid, _| {
        let (free0, total) = api.cuda_mem_get_info(pid)?;
        assert_eq!(total, Bytes::mib(512), "total is the container limit");
        assert_eq!(free0, Bytes::mib(512));
        let p = api.cuda_malloc(pid, Bytes::mib(100))?;
        let (free1, _) = api.cuda_mem_get_info(pid)?;
        assert_eq!(free1, Bytes::mib(412));
        api.cuda_free(pid, p)?;
        let (free2, _) = api.cuda_mem_get_info(pid)?;
        assert_eq!(free2, Bytes::mib(512));
        Ok(())
    }));
    convgpu
        .run_container(RunCommand::new("cuda-app").nvidia_memory("512m"), program)
        .unwrap()
        .wait()
        .unwrap();
    convgpu.shutdown();
}

#[test]
fn sequential_batches_reuse_the_device_cleanly() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    for batch in 0..3 {
        let sessions: Vec<_> = (0..3)
            .map(|_| {
                convgpu
                    .run_container(
                        RunCommand::new("cuda-app").nvidia_memory("1g"),
                        SampleProgram::new(Bytes::mib(1024), SimDuration::from_secs(1)).boxed(),
                    )
                    .unwrap()
            })
            .collect();
        let ids: Vec<_> = sessions.iter().map(|s| s.container).collect();
        for s in sessions {
            s.wait().unwrap_or_else(|e| panic!("batch {batch}: {e}"));
        }
        for id in ids {
            assert_closed(&convgpu, id);
        }
        let (free, total) = convgpu.device().mem_info();
        assert_eq!(free, total, "batch {batch} left residue");
    }
    assert_eq!(convgpu.metrics().len(), 9);
    convgpu.shutdown();
}

#[test]
fn decision_log_narrates_the_live_run() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    let session = convgpu
        .run_container(
            RunCommand::new("cuda-app").nvidia_memory("256m"),
            SampleProgram::for_type(ContainerType::Micro).boxed(),
        )
        .unwrap();
    let id = session.container;
    session.wait().unwrap();
    assert_closed(&convgpu, id);
    let log = convgpu.recent_decisions(64);
    let has = |needle: &str| log.iter().any(|l| l.contains(needle));
    assert!(has("registered limit=256MiB"), "{log:?}");
    assert!(has("GRANTED"), "{log:?}");
    assert!(has("exited"), "{log:?}");
    assert!(has("closed"), "{log:?}");
    convgpu.shutdown();
}

#[test]
fn program_crash_mid_allocation_releases_memory() {
    let convgpu = ConVGpu::start(fast()).unwrap();
    // The program leaks its buffer and "crashes" (returns an error).
    let program = Box::new(FnProgram::new("crasher", |api: &dyn CudaApi, pid, _| {
        let _leaked = api.cuda_malloc(pid, Bytes::mib(800))?;
        Err(convgpu::gpu::CudaError::LaunchFailure)
    }));
    let session = convgpu
        .run_container(RunCommand::new("cuda-app").nvidia_memory("1g"), program)
        .unwrap();
    let id = session.container;
    assert!(session.wait().is_err());
    assert_closed(&convgpu, id);
    // Exit code recorded; memory fully reclaimed via
    // __cudaUnregisterFatBinary + plugin close.
    assert_eq!(convgpu.engine().inspect(id).unwrap().exit_code, Some(1));
    let (free, total) = convgpu.device().mem_info();
    assert_eq!(free, total);
    convgpu
        .service()
        .with_scheduler(|s| assert_eq!(s.total_assigned(), Bytes::ZERO));
    convgpu.shutdown();
}
