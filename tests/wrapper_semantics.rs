//! End-to-end checks of the wrapper module's size-adjustment semantics
//! (paper §III-C) as seen by the scheduler: pitched rounding, managed
//! 128 MiB granules, 3-D extents, and the Table II interception set.

use convgpu::gpu::api::{CudaApi, Extent3D};
use convgpu::gpu::device::GpuDevice;
use convgpu::gpu::latency::LatencyModel;
use convgpu::gpu::runtime::RawCudaRuntime;
use convgpu::ipc::endpoint::SchedulerEndpoint;
use convgpu::middleware::{InProcEndpoint, SchedulerService};
use convgpu::scheduler::core::{Scheduler, SchedulerConfig};
use convgpu::scheduler::policy::PolicyKind;
use convgpu::sim::clock::VirtualClock;
use convgpu::sim::ids::ContainerId;
use convgpu::sim::units::Bytes;
use convgpu::wrapper::WrapperModule;
use std::sync::Arc;

fn stack(limit: Bytes) -> (WrapperModule, Arc<SchedulerService>, Arc<GpuDevice>) {
    let clock = VirtualClock::new();
    let device = Arc::new(GpuDevice::tesla_k20m());
    let raw = Arc::new(RawCudaRuntime::new(
        Arc::clone(&device),
        LatencyModel::zero(),
        clock.handle(),
    ));
    let service = Arc::new(SchedulerService::new(
        Scheduler::new(SchedulerConfig::paper(), PolicyKind::BestFit.build(0)),
        clock.handle(),
        std::env::temp_dir().join(format!("convgpu-itest-wrap-{}", std::process::id())),
    ));
    let endpoint = Arc::new(InProcEndpoint::new(Arc::clone(&service)));
    endpoint.register(ContainerId(1), limit).unwrap();
    let wrapper = WrapperModule::new(ContainerId(1), raw as Arc<dyn CudaApi>, endpoint);
    (wrapper, service, device)
}

fn scheduler_used(service: &SchedulerService) -> Bytes {
    service.with_scheduler(|s| s.container(ContainerId(1)).unwrap().used)
}

#[test]
fn managed_allocation_charges_granule_in_scheduler_books() {
    let (w, svc, dev) = stack(Bytes::mib(512));
    let p = w.cuda_malloc_managed(1, Bytes::mib(5)).unwrap();
    // Scheduler sees 128 MiB + 66 MiB ctx; device charged the same.
    assert_eq!(scheduler_used(&svc), Bytes::mib(128 + 66));
    let (free, total) = dev.mem_info();
    assert_eq!(total - free, Bytes::mib(128 + 66));
    w.cuda_free(1, p).unwrap();
    assert_eq!(scheduler_used(&svc), Bytes::mib(66), "ctx charge remains");
}

#[test]
fn pitched_allocation_scheduler_and_device_agree() {
    let (w, svc, dev) = stack(Bytes::mib(512));
    // width 1000 → pitch 1024 on the K20m; 2048 rows → exactly 2 MiB.
    let (p, pitch) = w.cuda_malloc_pitch(1, Bytes::new(1000), 2048).unwrap();
    assert_eq!(pitch, Bytes::new(1024));
    assert_eq!(scheduler_used(&svc), Bytes::mib(2 + 66));
    let (free, total) = dev.mem_info();
    assert_eq!(total - free, Bytes::mib(2 + 66));
    w.cuda_free(1, p).unwrap();
}

#[test]
fn malloc_3d_charges_pitch_times_rows_times_depth() {
    let (w, svc, _dev) = stack(Bytes::mib(512));
    let pp = w
        .cuda_malloc_3d(1, Extent3D::new(Bytes::new(100), 16, 8))
        .unwrap();
    assert_eq!(pp.pitch, Bytes::new(512));
    // 512 × 16 × 8 = 64 KiB.
    assert_eq!(scheduler_used(&svc), Bytes::kib(64) + Bytes::mib(66));
    w.cuda_free(1, pp.ptr).unwrap();
}

#[test]
fn adjusted_size_can_push_a_request_over_the_limit() {
    // A 100 MiB managed request rounds to 128 MiB; against a 150 MiB
    // limit (150 + 66 requirement headroom), 128 + 66 = 194 > 216?? no:
    // requirement = 150+66 = 216, need = 128+66 = 194 ≤ 216 → fits. Use a
    // 120 MiB limit instead: requirement 186, need 194 → REJECTED, even
    // though the *user-visible* request (100 MiB) is within the limit.
    let (w, svc, dev) = stack(Bytes::mib(120));
    let err = w.cuda_malloc_managed(1, Bytes::mib(100)).unwrap_err();
    assert!(err.is_allocation_failure());
    assert_eq!(scheduler_used(&svc), Bytes::ZERO);
    assert_eq!(dev.counters().allocs, 0, "device untouched");
}

#[test]
fn unregister_cleans_both_sides() {
    let (w, svc, dev) = stack(Bytes::mib(512));
    w.cuda_malloc(1, Bytes::mib(64)).unwrap(); // leaked
    w.cuda_malloc_managed(1, Bytes::mib(1)).unwrap(); // leaked
    w.cuda_unregister_fat_binary(1).unwrap();
    assert_eq!(scheduler_used(&svc), Bytes::ZERO);
    let (free, total) = dev.mem_info();
    assert_eq!(free, total);
}

#[test]
fn interception_counters_cover_table_ii() {
    let (w, _svc, _dev) = stack(Bytes::gib(1));
    let p = w.cuda_malloc(1, Bytes::mib(1)).unwrap();
    w.cuda_free(1, p).unwrap();
    w.cuda_malloc_managed(1, Bytes::mib(1)).unwrap();
    w.cuda_malloc_pitch(1, Bytes::new(512), 4).unwrap();
    w.cuda_malloc_3d(1, Extent3D::new(Bytes::new(512), 2, 2))
        .unwrap();
    w.cuda_mem_get_info(1).unwrap();
    w.cuda_get_device_properties(1).unwrap();
    w.cuda_unregister_fat_binary(1).unwrap();
    let s = w.stats();
    use std::sync::atomic::Ordering;
    for (name, count) in [
        ("malloc", s.malloc.load(Ordering::Relaxed)),
        ("managed", s.malloc_managed.load(Ordering::Relaxed)),
        ("pitch", s.malloc_pitch.load(Ordering::Relaxed)),
        ("3d", s.malloc_3d.load(Ordering::Relaxed)),
        ("free", s.free.load(Ordering::Relaxed)),
        ("meminfo", s.mem_get_info.load(Ordering::Relaxed)),
        ("props", s.get_device_properties.load(Ordering::Relaxed)),
        (
            "unregister",
            s.unregister_fat_binary.load(Ordering::Relaxed),
        ),
    ] {
        assert!(count >= 1, "{name} was not intercepted");
    }
}
