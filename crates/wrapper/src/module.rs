//! The interposed CUDA API.

use convgpu_gpu_sim::api::{CudaApi, Extent3D, MemcpyKind, PitchedPtr};
use convgpu_gpu_sim::context::Pid;
use convgpu_gpu_sim::error::{CudaError, CudaResult};
use convgpu_gpu_sim::kernel::KernelSpec;
use convgpu_gpu_sim::memory::DevicePtr;
use convgpu_gpu_sim::props::DeviceProperties;
use convgpu_ipc::endpoint::SchedulerEndpoint;
use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_obs::catalogue::{WRAPPER_CALLS, WRAPPER_CALL_SECONDS};
use convgpu_obs::Registry;
use convgpu_sim_core::clock::ClockHandle;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::sync::Mutex;
use convgpu_sim_core::units::Bytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Observability attachment for a wrapper module: every interposed Table II
/// call ticks [`WRAPPER_CALLS`]`{api}` and lands its duration in
/// [`WRAPPER_CALL_SECONDS`]`{api}`. The clock is the module's own time
/// base (virtual in simulation, scaled-real in the live stack) — the
/// wrapper crate never reads the wall clock.
#[derive(Clone)]
pub struct WrapperObs {
    /// Shared metrics registry.
    pub registry: Arc<Registry>,
    /// Time source for call durations.
    pub clock: ClockHandle,
}

/// Interception counters, one per Table II API (coverage tests, traces).
#[derive(Debug, Default)]
pub struct WrapperStats {
    /// `cudaMalloc` interceptions.
    pub malloc: AtomicU64,
    /// `cudaMallocManaged` interceptions.
    pub malloc_managed: AtomicU64,
    /// `cudaMallocPitch` interceptions.
    pub malloc_pitch: AtomicU64,
    /// `cudaMalloc3D` interceptions.
    pub malloc_3d: AtomicU64,
    /// `cudaFree` interceptions.
    pub free: AtomicU64,
    /// `cudaMemGetInfo` interceptions.
    pub mem_get_info: AtomicU64,
    /// `cudaGetDeviceProperties` interceptions.
    pub get_device_properties: AtomicU64,
    /// `__cudaUnregisterFatBinary` interceptions.
    pub unregister_fat_binary: AtomicU64,
    /// Requests the scheduler rejected.
    pub rejected: AtomicU64,
    /// Grants that then failed on the device (fragmentation).
    pub device_failures_after_grant: AtomicU64,
}

impl WrapperStats {
    /// Total allocation-API interceptions.
    pub fn total_allocs(&self) -> u64 {
        self.malloc.load(Ordering::Relaxed)
            + self.malloc_managed.load(Ordering::Relaxed)
            + self.malloc_pitch.load(Ordering::Relaxed)
            + self.malloc_3d.load(Ordering::Relaxed)
    }
}

/// The wrapper module for one container.
///
/// One instance is "mounted into" each container; every process of the
/// container calls through it (the paper's module is loaded per process,
/// but all its state of record lives in the scheduler, so sharing the
/// instance is behaviourally identical — except the pitch cache, which is
/// intentionally per-module so the expensive property fetch happens once,
/// matching the Fig. 4 "first call" annotation).
pub struct WrapperModule {
    container: ContainerId,
    inner: Arc<dyn CudaApi>,
    scheduler: Arc<dyn SchedulerEndpoint>,
    /// Cached `(pitch_alignment, managed_granularity)` from the first
    /// `cudaGetDeviceProperties` fetch.
    cached_props: Mutex<Option<(Bytes, Bytes)>>,
    /// Sizes charged per live pointer: `cudaFree` must tell the scheduler
    /// *which* reservation to release even though CUDA's free API only
    /// carries the address.
    charged: Mutex<HashMap<DevicePtr, Bytes>>,
    /// Modeled IPC round-trip cost charged on a clock. The live stack
    /// leaves this `None` (its IPC cost is *real*, over actual sockets);
    /// virtual-time experiments set it to the Fig. 4-measured delta so
    /// the Fig. 6 overhead ratio is reproducible deterministically.
    modeled_ipc: Option<(
        convgpu_sim_core::clock::ClockHandle,
        convgpu_sim_core::time::SimDuration,
    )>,
    /// Answer `cudaGetDeviceProperties` from the scheduler's topology:
    /// the reported total memory becomes the container's *home device*
    /// capacity. Off by default — the paper's single-GPU deployment
    /// reports the host device unchanged.
    device_aware_props: bool,
    stats: WrapperStats,
    obs: Option<WrapperObs>,
}

impl WrapperModule {
    /// Wrap `inner` for `container`, gating through `scheduler`.
    pub fn new(
        container: ContainerId,
        inner: Arc<dyn CudaApi>,
        scheduler: Arc<dyn SchedulerEndpoint>,
    ) -> Self {
        WrapperModule {
            container,
            inner,
            scheduler,
            cached_props: Mutex::new(None),
            charged: Mutex::new(HashMap::new()),
            modeled_ipc: None,
            device_aware_props: false,
            stats: WrapperStats::default(),
            obs: None,
        }
    }

    /// Report the container's home-device capacity (looked up through the
    /// scheduler's topology protocol) as `totalGlobalMem` instead of the
    /// host simulator's device. Multi-GPU and cluster deployments opt in;
    /// endpoints without topology support fall back to the inner device.
    pub fn with_device_aware_props(mut self) -> Self {
        self.device_aware_props = true;
        self
    }

    /// Record every interposed call into `obs` (count + duration per API).
    pub fn with_obs(mut self, obs: WrapperObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Charge `per_round_trip` on `clock` for every wrapper↔scheduler
    /// round trip (virtual-time experiments only; see field docs).
    pub fn with_modeled_ipc(
        mut self,
        clock: convgpu_sim_core::clock::ClockHandle,
        per_round_trip: convgpu_sim_core::time::SimDuration,
    ) -> Self {
        self.modeled_ipc = Some((clock, per_round_trip));
        self
    }

    fn charge_ipc(&self, round_trips: u64) {
        if let Some((clock, cost)) = &self.modeled_ipc {
            clock.sleep(*cost * round_trips);
        }
    }

    /// Run one interposed call under observation: count it and time it
    /// (including any scheduler round-trip, i.e. suspension shows up in
    /// the tail of [`WRAPPER_CALL_SECONDS`]).
    fn observed<T>(&self, api: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(o) = &self.obs else { return f() };
        o.registry.inc(WRAPPER_CALLS, &[("api", api)], 1);
        let t0 = o.clock.now();
        let out = f();
        let took = o.clock.now().saturating_since(t0);
        o.registry
            .observe(WRAPPER_CALL_SECONDS, &[("api", api)], took);
        out
    }

    /// The container this module serves.
    pub fn container(&self) -> ContainerId {
        self.container
    }

    /// Interception counters.
    pub fn stats(&self) -> &WrapperStats {
        &self.stats
    }

    /// Pitch alignment and managed granularity, fetching device
    /// properties through the *inner* API on first use (the paper's
    /// "wrapper module retrieves the pitched size of current GPU using
    /// cudaGetDeviceProperties API on the first call").
    fn device_geometry(&self, pid: Pid) -> CudaResult<(Bytes, Bytes)> {
        if let Some(cached) = *self.cached_props.lock() {
            return Ok(cached);
        }
        let props = self.inner.cuda_get_device_properties(pid)?;
        let geom = (props.pitch_alignment, props.managed_granularity);
        *self.cached_props.lock() = Some(geom);
        Ok(geom)
    }

    /// The gate: ask the scheduler (blocking while suspended), run the
    /// real allocation, report the outcome.
    fn gated_alloc<T>(
        &self,
        pid: Pid,
        charged_size: Bytes,
        api: ApiKind,
        do_alloc: impl FnOnce() -> CudaResult<(T, DevicePtr)>,
    ) -> CudaResult<T> {
        let decision = self
            .scheduler
            .request_alloc(self.container, pid, charged_size, api)
            .map_err(|_| CudaError::SchedulerUnavailable)?;
        match decision {
            AllocDecision::Rejected => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.charge_ipc(1);
                Err(CudaError::SchedulerRejected)
            }
            AllocDecision::Granted => match do_alloc() {
                Ok((value, ptr)) => {
                    self.charged.lock().insert(ptr, charged_size);
                    self.scheduler
                        .alloc_done(self.container, pid, ptr.addr(), charged_size)
                        .map_err(|_| CudaError::SchedulerUnavailable)?;
                    self.charge_ipc(2);
                    Ok(value)
                }
                Err(e) => {
                    // Fragmentation or fault injection: release the
                    // reservation the scheduler made for this grant.
                    self.stats
                        .device_failures_after_grant
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = self
                        .scheduler
                        .alloc_failed(self.container, pid, charged_size);
                    Err(e)
                }
            },
        }
    }
}

impl CudaApi for WrapperModule {
    fn cuda_malloc(&self, pid: Pid, size: Bytes) -> CudaResult<DevicePtr> {
        self.observed("cuda_malloc", || {
            self.stats.malloc.fetch_add(1, Ordering::Relaxed);
            self.gated_alloc(pid, size, ApiKind::Malloc, || {
                self.inner.cuda_malloc(pid, size).map(|p| (p, p))
            })
        })
    }

    fn cuda_malloc_pitch(
        &self,
        pid: Pid,
        width: Bytes,
        height: u64,
    ) -> CudaResult<(DevicePtr, Bytes)> {
        self.observed("cuda_malloc_pitch", || {
            self.stats.malloc_pitch.fetch_add(1, Ordering::Relaxed);
            if width.is_zero() || height == 0 {
                return Err(CudaError::InvalidValue);
            }
            // First call pays the property fetch — the Fig. 4 shape.
            let (pitch_align, _) = self.device_geometry(pid)?;
            let pitch = width.align_up(pitch_align);
            let charged = Bytes::new(
                pitch
                    .as_u64()
                    .checked_mul(height)
                    .ok_or(CudaError::InvalidValue)?,
            );
            self.gated_alloc(pid, charged, ApiKind::MallocPitch, || {
                self.inner
                    .cuda_malloc_pitch(pid, width, height)
                    .map(|(p, pitch)| ((p, pitch), p))
            })
        })
    }

    fn cuda_malloc_3d(&self, pid: Pid, extent: Extent3D) -> CudaResult<PitchedPtr> {
        self.observed("cuda_malloc_3d", || {
            self.stats.malloc_3d.fetch_add(1, Ordering::Relaxed);
            if extent.width.is_zero() || extent.height == 0 || extent.depth == 0 {
                return Err(CudaError::InvalidValue);
            }
            let (pitch_align, _) = self.device_geometry(pid)?;
            let pitch = extent.width.align_up(pitch_align);
            let rows = extent
                .height
                .checked_mul(extent.depth)
                .ok_or(CudaError::InvalidValue)?;
            let charged = Bytes::new(
                pitch
                    .as_u64()
                    .checked_mul(rows)
                    .ok_or(CudaError::InvalidValue)?,
            );
            self.gated_alloc(pid, charged, ApiKind::Malloc3D, || {
                self.inner.cuda_malloc_3d(pid, extent).map(|p| (p, p.ptr))
            })
        })
    }

    fn cuda_malloc_managed(&self, pid: Pid, size: Bytes) -> CudaResult<DevicePtr> {
        self.observed("cuda_malloc_managed", || {
            self.stats.malloc_managed.fetch_add(1, Ordering::Relaxed);
            if size.is_zero() {
                return Err(CudaError::InvalidValue);
            }
            // "cudaMallocManaged API allocates memory size which is multiple
            // of 128MiB … wrapper module calculates adjusted allocate size
            // before checking available memory size."
            let granularity = match *self.cached_props.lock() {
                Some((_, g)) => g,
                None => Bytes::mib(128),
            };
            let charged = size.align_up(granularity);
            self.gated_alloc(pid, charged, ApiKind::MallocManaged, || {
                self.inner.cuda_malloc_managed(pid, size).map(|p| (p, p))
            })
        })
    }

    fn cuda_free(&self, pid: Pid, ptr: DevicePtr) -> CudaResult<()> {
        self.observed("cuda_free", || {
            self.stats.free.fetch_add(1, Ordering::Relaxed);
            // Paper order: "wrapper module deallocates the memory using the
            // original CUDA API and sends the address to the GPU memory
            // scheduler."
            self.inner.cuda_free(pid, ptr)?;
            self.charged.lock().remove(&ptr);
            if !ptr.is_null() {
                self.scheduler
                    .free(self.container, pid, ptr.addr())
                    .map_err(|_| CudaError::SchedulerUnavailable)?;
                self.charge_ipc(1);
            }
            Ok(())
        })
    }

    fn cuda_mem_get_info(&self, pid: Pid) -> CudaResult<(Bytes, Bytes)> {
        self.observed("cuda_mem_get_info", || {
            self.stats.mem_get_info.fetch_add(1, Ordering::Relaxed);
            // Served from the scheduler's books — no device round trip.
            self.charge_ipc(1);
            self.scheduler
                .mem_info(self.container, pid)
                .map_err(|_| CudaError::SchedulerUnavailable)
        })
    }

    fn cuda_get_device_properties(&self, pid: Pid) -> CudaResult<DeviceProperties> {
        self.observed("cuda_get_device_properties", || {
            self.stats
                .get_device_properties
                .fetch_add(1, Ordering::Relaxed);
            let mut props = self.inner.cuda_get_device_properties(pid)?;
            *self.cached_props.lock() = Some((props.pitch_alignment, props.managed_granularity));
            if self.device_aware_props {
                // Per-device answer: the container sees *its* GPU, not
                // the host simulator's. Best-effort — a topology-blind
                // endpoint leaves the inner properties untouched.
                if let (Ok((node, device)), Ok((_kind, devices))) = (
                    self.scheduler.query_home(self.container),
                    self.scheduler.query_topology(),
                ) {
                    if let Some(d) = devices
                        .iter()
                        .find(|d| d.node == node && d.device == device)
                    {
                        props.total_global_mem = d.capacity;
                    }
                }
                self.charge_ipc(2);
            }
            Ok(props)
        })
    }

    fn cuda_memcpy(&self, pid: Pid, kind: MemcpyKind, bytes: Bytes) -> CudaResult<()> {
        // Pass-through: the wrapper "leaves other CUDA API available".
        self.inner.cuda_memcpy(pid, kind, bytes)
    }

    fn cuda_memcpy_2d(
        &self,
        pid: Pid,
        kind: MemcpyKind,
        width: Bytes,
        height: u64,
    ) -> CudaResult<()> {
        self.inner.cuda_memcpy_2d(pid, kind, width, height)
    }

    fn cuda_memset(&self, pid: Pid, bytes: Bytes) -> CudaResult<()> {
        self.inner.cuda_memset(pid, bytes)
    }

    fn cuda_launch_kernel(&self, pid: Pid, kernel: &KernelSpec) -> CudaResult<()> {
        self.inner.cuda_launch_kernel(pid, kernel)
    }

    fn cuda_device_synchronize(&self, pid: Pid) -> CudaResult<()> {
        self.inner.cuda_device_synchronize(pid)
    }

    // Stream and event APIs are not in Table II: the wrapper "leaves
    // other CUDA API available" — straight pass-throughs.

    fn cuda_stream_create(&self, pid: Pid) -> CudaResult<convgpu_gpu_sim::stream::StreamId> {
        self.inner.cuda_stream_create(pid)
    }

    fn cuda_stream_destroy(
        &self,
        pid: Pid,
        stream: convgpu_gpu_sim::stream::StreamId,
    ) -> CudaResult<()> {
        self.inner.cuda_stream_destroy(pid, stream)
    }

    fn cuda_launch_kernel_async(
        &self,
        pid: Pid,
        stream: convgpu_gpu_sim::stream::StreamId,
        kernel: &KernelSpec,
    ) -> CudaResult<()> {
        self.inner.cuda_launch_kernel_async(pid, stream, kernel)
    }

    fn cuda_memcpy_async(
        &self,
        pid: Pid,
        stream: convgpu_gpu_sim::stream::StreamId,
        kind: MemcpyKind,
        bytes: Bytes,
    ) -> CudaResult<()> {
        self.inner.cuda_memcpy_async(pid, stream, kind, bytes)
    }

    fn cuda_stream_synchronize(
        &self,
        pid: Pid,
        stream: convgpu_gpu_sim::stream::StreamId,
    ) -> CudaResult<()> {
        self.inner.cuda_stream_synchronize(pid, stream)
    }

    fn cuda_event_create(&self, pid: Pid) -> CudaResult<convgpu_gpu_sim::stream::EventId> {
        self.inner.cuda_event_create(pid)
    }

    fn cuda_event_destroy(
        &self,
        pid: Pid,
        event: convgpu_gpu_sim::stream::EventId,
    ) -> CudaResult<()> {
        self.inner.cuda_event_destroy(pid, event)
    }

    fn cuda_event_record(
        &self,
        pid: Pid,
        event: convgpu_gpu_sim::stream::EventId,
        stream: convgpu_gpu_sim::stream::StreamId,
    ) -> CudaResult<()> {
        self.inner.cuda_event_record(pid, event, stream)
    }

    fn cuda_event_synchronize(
        &self,
        pid: Pid,
        event: convgpu_gpu_sim::stream::EventId,
    ) -> CudaResult<()> {
        self.inner.cuda_event_synchronize(pid, event)
    }

    fn cuda_event_elapsed(
        &self,
        pid: Pid,
        start: convgpu_gpu_sim::stream::EventId,
        end: convgpu_gpu_sim::stream::EventId,
    ) -> CudaResult<convgpu_sim_core::time::SimDuration> {
        self.inner.cuda_event_elapsed(pid, start, end)
    }

    fn cuda_register_fat_binary(&self, pid: Pid) -> CudaResult<()> {
        self.inner.cuda_register_fat_binary(pid)
    }

    fn cuda_unregister_fat_binary(&self, pid: Pid) -> CudaResult<()> {
        self.observed("cuda_unregister_fat_binary", || {
            self.stats
                .unregister_fat_binary
                .fetch_add(1, Ordering::Relaxed);
            self.inner.cuda_unregister_fat_binary(pid)?;
            // "Wrapper module captures this API and sends the information to
            // the GPU memory scheduler to deallocate the GPU memory used by
            // the current process."
            self.scheduler
                .process_exit(self.container, pid)
                .map_err(|_| CudaError::SchedulerUnavailable)?;
            self.charge_ipc(1);
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_ipc::endpoint::{IpcResult, SchedulerEndpoint};
    use convgpu_sim_core::sync::Mutex as PMutex;
    use convgpu_sim_core::time::SimDuration;

    /// Scripted endpoint recording every call; grants/rejects by a size
    /// threshold.
    #[derive(Default)]
    struct FakeEndpoint {
        reject_over: Option<Bytes>,
        log: PMutex<Vec<String>>,
    }

    impl FakeEndpoint {
        fn log_entry(&self, s: String) {
            self.log.lock().push(s);
        }
        fn entries(&self) -> Vec<String> {
            self.log.lock().clone()
        }
    }

    impl SchedulerEndpoint for FakeEndpoint {
        fn register(&self, _c: ContainerId, _l: Bytes) -> IpcResult<()> {
            Ok(())
        }
        fn request_dir(&self, _c: ContainerId) -> IpcResult<String> {
            Ok("/tmp".into())
        }
        fn request_alloc(
            &self,
            _c: ContainerId,
            pid: u64,
            size: Bytes,
            api: ApiKind,
        ) -> IpcResult<AllocDecision> {
            self.log_entry(format!("alloc {} {} {}", pid, size, api.api_name()));
            match self.reject_over {
                Some(cap) if size > cap => Ok(AllocDecision::Rejected),
                _ => Ok(AllocDecision::Granted),
            }
        }
        fn alloc_done(&self, _c: ContainerId, pid: u64, addr: u64, size: Bytes) -> IpcResult<()> {
            self.log_entry(format!("done {pid} 0x{addr:x} {size}"));
            Ok(())
        }
        fn alloc_failed(&self, _c: ContainerId, pid: u64, size: Bytes) -> IpcResult<()> {
            self.log_entry(format!("failed {pid} {size}"));
            Ok(())
        }
        fn free(&self, _c: ContainerId, pid: u64, addr: u64) -> IpcResult<Bytes> {
            self.log_entry(format!("free {pid} 0x{addr:x}"));
            Ok(Bytes::ZERO)
        }
        fn mem_info(&self, _c: ContainerId, _pid: u64) -> IpcResult<(Bytes, Bytes)> {
            Ok((Bytes::mib(42), Bytes::mib(512)))
        }
        fn process_exit(&self, _c: ContainerId, pid: u64) -> IpcResult<()> {
            self.log_entry(format!("exit {pid}"));
            Ok(())
        }
        fn container_close(&self, _c: ContainerId) -> IpcResult<()> {
            Ok(())
        }
        fn ping(&self) -> IpcResult<()> {
            Ok(())
        }
    }

    /// Endpoint that additionally speaks the topology protocol, homing
    /// the container on a 2 GiB device of node "n1".
    struct TopologyEndpoint;

    impl SchedulerEndpoint for TopologyEndpoint {
        fn register(&self, _c: ContainerId, _l: Bytes) -> IpcResult<()> {
            Ok(())
        }
        fn request_dir(&self, _c: ContainerId) -> IpcResult<String> {
            Ok("/tmp".into())
        }
        fn request_alloc(
            &self,
            _c: ContainerId,
            _pid: u64,
            _size: Bytes,
            _api: ApiKind,
        ) -> IpcResult<AllocDecision> {
            Ok(AllocDecision::Granted)
        }
        fn alloc_done(&self, _c: ContainerId, _p: u64, _a: u64, _s: Bytes) -> IpcResult<()> {
            Ok(())
        }
        fn alloc_failed(&self, _c: ContainerId, _p: u64, _s: Bytes) -> IpcResult<()> {
            Ok(())
        }
        fn free(&self, _c: ContainerId, _p: u64, _a: u64) -> IpcResult<Bytes> {
            Ok(Bytes::ZERO)
        }
        fn mem_info(&self, _c: ContainerId, _p: u64) -> IpcResult<(Bytes, Bytes)> {
            Ok((Bytes::ZERO, Bytes::ZERO))
        }
        fn process_exit(&self, _c: ContainerId, _p: u64) -> IpcResult<()> {
            Ok(())
        }
        fn container_close(&self, _c: ContainerId) -> IpcResult<()> {
            Ok(())
        }
        fn ping(&self) -> IpcResult<()> {
            Ok(())
        }
        fn query_topology(&self) -> IpcResult<(String, Vec<convgpu_ipc::message::TopologyDevice>)> {
            Ok((
                "cluster".into(),
                vec![
                    convgpu_ipc::message::TopologyDevice {
                        node: "n0".into(),
                        device: 0,
                        capacity: Bytes::gib(5),
                        unassigned: Bytes::gib(5),
                        containers: 0,
                        policy: "fifo".into(),
                    },
                    convgpu_ipc::message::TopologyDevice {
                        node: "n1".into(),
                        device: 1,
                        capacity: Bytes::gib(2),
                        unassigned: Bytes::gib(2),
                        containers: 1,
                        policy: "fifo".into(),
                    },
                ],
            ))
        }
        fn query_home(&self, _c: ContainerId) -> IpcResult<(String, u64)> {
            Ok(("n1".into(), 1))
        }
    }

    fn wrapper_with(
        endpoint: Arc<FakeEndpoint>,
    ) -> (WrapperModule, Arc<convgpu_gpu_sim::device::GpuDevice>) {
        use convgpu_gpu_sim::device::GpuDevice;
        use convgpu_gpu_sim::latency::LatencyModel;
        use convgpu_gpu_sim::runtime::RawCudaRuntime;
        use convgpu_sim_core::clock::VirtualClock;
        let device = Arc::new(GpuDevice::tesla_k20m());
        let raw = Arc::new(RawCudaRuntime::new(
            Arc::clone(&device),
            LatencyModel::zero(),
            VirtualClock::new().handle(),
        ));
        (WrapperModule::new(ContainerId(1), raw, endpoint), device)
    }

    #[test]
    fn granted_malloc_reaches_device_and_reports_done() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, dev) = wrapper_with(Arc::clone(&ep));
        let p = w.cuda_malloc(10, Bytes::mib(64)).unwrap();
        assert!(!p.is_null());
        assert_eq!(dev.counters().allocs, 1);
        let log = ep.entries();
        assert!(log[0].starts_with("alloc 10"), "{log:?}");
        assert!(log[1].starts_with("done 10"), "{log:?}");
        assert_eq!(w.stats().malloc.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn rejected_malloc_never_touches_device() {
        let ep = Arc::new(FakeEndpoint {
            reject_over: Some(Bytes::mib(10)),
            ..Default::default()
        });
        let (w, dev) = wrapper_with(Arc::clone(&ep));
        let err = w.cuda_malloc(10, Bytes::mib(64)).unwrap_err();
        assert_eq!(err, CudaError::SchedulerRejected);
        assert!(err.is_allocation_failure(), "program sees plain OOM");
        assert_eq!(dev.counters().allocs, 0, "device untouched");
        assert_eq!(w.stats().rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn managed_rounds_before_asking_scheduler() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, _dev) = wrapper_with(Arc::clone(&ep));
        w.cuda_malloc_managed(10, Bytes::mib(1)).unwrap();
        let log = ep.entries();
        assert!(
            log[0].contains("128MiB"),
            "scheduler must see the adjusted 128 MiB size: {log:?}"
        );
    }

    #[test]
    fn pitch_charges_adjusted_size_and_caches_props() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, dev) = wrapper_with(Arc::clone(&ep));
        // width 1000 → pitch 1024; height 1024 → charged 1 MiB.
        let (_p, pitch) = w.cuda_malloc_pitch(10, Bytes::new(1000), 1024).unwrap();
        assert_eq!(pitch, Bytes::new(1024));
        assert!(ep.entries()[0].contains("1MiB"), "{:?}", ep.entries());
        // The first pitch call fetched device properties once…
        let props_calls_after_first = dev.counters();
        let _ = props_calls_after_first;
        w.cuda_malloc_pitch(10, Bytes::new(1000), 1024).unwrap();
        // …and the cache means no further fetches: verify via the inner
        // counter being stable is not tracked per-API on the device, so
        // check the cached value directly.
        assert!(w.cached_props.lock().is_some());
    }

    #[test]
    fn mem_get_info_is_served_by_scheduler_not_device() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, _dev) = wrapper_with(Arc::clone(&ep));
        let (free, total) = w.cuda_mem_get_info(10).unwrap();
        assert_eq!((free, total), (Bytes::mib(42), Bytes::mib(512)));
    }

    #[test]
    fn free_forwards_address_to_scheduler() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, _dev) = wrapper_with(Arc::clone(&ep));
        let p = w.cuda_malloc(10, Bytes::mib(4)).unwrap();
        w.cuda_free(10, p).unwrap();
        let log = ep.entries();
        assert!(log.last().unwrap().starts_with("free 10 0x"), "{log:?}");
    }

    #[test]
    fn free_null_skips_scheduler() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, _dev) = wrapper_with(Arc::clone(&ep));
        w.cuda_free(10, DevicePtr::NULL).unwrap();
        assert!(ep.entries().is_empty());
    }

    #[test]
    fn unregister_notifies_process_exit() {
        let ep = Arc::new(FakeEndpoint::default());
        let (w, dev) = wrapper_with(Arc::clone(&ep));
        w.cuda_malloc(10, Bytes::mib(4)).unwrap(); // leak on purpose
        w.cuda_unregister_fat_binary(10).unwrap();
        assert!(ep.entries().last().unwrap().starts_with("exit 10"));
        // The device reclaimed the leak through context destruction.
        let (free, total) = dev.mem_info();
        assert_eq!(free, total);
    }

    #[test]
    fn device_failure_after_grant_reports_alloc_failed() {
        // A tiny device: grant succeeds (fake endpoint always grants) but
        // the device cannot satisfy it.
        use convgpu_gpu_sim::device::{DeviceConfig, GpuDevice};
        use convgpu_gpu_sim::latency::LatencyModel;
        use convgpu_gpu_sim::props::DeviceProperties;
        use convgpu_gpu_sim::runtime::RawCudaRuntime;
        use convgpu_sim_core::clock::VirtualClock;
        let ep = Arc::new(FakeEndpoint::default());
        let device = Arc::new(GpuDevice::new(DeviceConfig {
            props: DeviceProperties {
                total_global_mem: Bytes::mib(100),
                ..DeviceProperties::tesla_k20m()
            },
            ..DeviceConfig::default()
        }));
        let raw = Arc::new(RawCudaRuntime::new(
            Arc::clone(&device),
            LatencyModel::zero(),
            VirtualClock::new().handle(),
        ));
        let ep_dyn: Arc<dyn SchedulerEndpoint> = Arc::clone(&ep) as _;
        let w = WrapperModule::new(ContainerId(1), raw, ep_dyn);
        let err = w.cuda_malloc(10, Bytes::mib(500)).unwrap_err();
        assert_eq!(err, CudaError::MemoryAllocation);
        assert!(
            ep.entries().iter().any(|l| l.starts_with("failed 10")),
            "{:?}",
            ep.entries()
        );
        assert_eq!(
            w.stats()
                .device_failures_after_grant
                .load(Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn table_ii_coverage_is_complete() {
        // Every Table II API must bump its interception counter.
        let ep = Arc::new(FakeEndpoint::default());
        let (w, _dev) = wrapper_with(Arc::clone(&ep));
        w.cuda_malloc(1, Bytes::mib(1)).unwrap();
        w.cuda_malloc_managed(1, Bytes::mib(1)).unwrap();
        w.cuda_malloc_pitch(1, Bytes::new(512), 8).unwrap();
        w.cuda_malloc_3d(1, Extent3D::new(Bytes::new(512), 4, 2))
            .unwrap();
        let p = w.cuda_malloc(1, Bytes::mib(1)).unwrap();
        w.cuda_free(1, p).unwrap();
        w.cuda_mem_get_info(1).unwrap();
        w.cuda_get_device_properties(1).unwrap();
        w.cuda_unregister_fat_binary(1).unwrap();
        let s = w.stats();
        assert_eq!(s.malloc.load(Ordering::Relaxed), 2);
        assert_eq!(s.malloc_managed.load(Ordering::Relaxed), 1);
        assert_eq!(s.malloc_pitch.load(Ordering::Relaxed), 1);
        assert_eq!(s.malloc_3d.load(Ordering::Relaxed), 1);
        assert_eq!(s.free.load(Ordering::Relaxed), 1);
        assert_eq!(s.mem_get_info.load(Ordering::Relaxed), 1);
        assert_eq!(s.get_device_properties.load(Ordering::Relaxed), 1);
        assert_eq!(s.unregister_fat_binary.load(Ordering::Relaxed), 1);
        assert_eq!(s.total_allocs(), 5);
    }

    #[test]
    fn wrapper_latency_is_zero_extra_on_virtual_clock() {
        // Sanity: with a zero latency model and an in-proc endpoint the
        // wrapper adds no *modeled* time — all Fig. 4 overhead comes from
        // real IPC, measured in the live stack.
        use convgpu_gpu_sim::device::GpuDevice;
        use convgpu_gpu_sim::latency::LatencyModel;
        use convgpu_gpu_sim::runtime::RawCudaRuntime;
        use convgpu_sim_core::clock::Clock;
        use convgpu_sim_core::clock::VirtualClock;
        let clock = VirtualClock::new();
        let device = Arc::new(GpuDevice::tesla_k20m());
        let raw = Arc::new(RawCudaRuntime::new(
            device,
            LatencyModel::zero(),
            clock.handle(),
        ));
        let ep: Arc<dyn SchedulerEndpoint> = Arc::new(FakeEndpoint::default());
        let w = WrapperModule::new(ContainerId(1), raw, ep);
        let t0 = clock.now();
        w.cuda_malloc(1, Bytes::mib(1)).unwrap();
        assert_eq!(clock.now() - t0, SimDuration::ZERO);
    }

    #[test]
    fn device_aware_props_report_home_device_capacity() {
        let ep: Arc<dyn SchedulerEndpoint> = Arc::new(TopologyEndpoint);
        use convgpu_gpu_sim::device::GpuDevice;
        use convgpu_gpu_sim::latency::LatencyModel;
        use convgpu_gpu_sim::runtime::RawCudaRuntime;
        use convgpu_sim_core::clock::VirtualClock;
        let raw = Arc::new(RawCudaRuntime::new(
            Arc::new(GpuDevice::tesla_k20m()),
            LatencyModel::zero(),
            VirtualClock::new().handle(),
        ));
        // Default: the inner (host) device answers.
        let plain = WrapperModule::new(ContainerId(1), Arc::clone(&raw) as _, Arc::clone(&ep));
        let host = plain.cuda_get_device_properties(1).unwrap();
        assert_ne!(host.total_global_mem, Bytes::gib(2));
        // Opted in: the container sees its home device (n1:1, 2 GiB).
        let aware = WrapperModule::new(ContainerId(1), raw as _, ep).with_device_aware_props();
        let props = aware.cuda_get_device_properties(1).unwrap();
        assert_eq!(props.total_global_mem, Bytes::gib(2));
        // Geometry caching still happens (pitch path works afterwards).
        aware.cuda_malloc_pitch(1, Bytes::new(512), 4).unwrap();
    }
}
