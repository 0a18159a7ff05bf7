//! The simulated GPU device: allocator + context table + Hyper-Q slots.
//!
//! [`GpuDevice`] holds the mutable device state behind one mutex (the
//! paper's scheduler likewise serializes accounting under "a mutex lock to
//! prevent the race condition") plus a condvar-based counting semaphore
//! modeling Hyper-Q: at most `concurrent_kernels` kernels execute at once;
//! further launches queue, exactly like work queued behind the K20m's 32
//! hardware queues.

use crate::context::{ContextTable, Pid};
use crate::error::{CudaError, CudaResult};
use crate::fault::FaultPlan;
use crate::memory::{AllocatorStats, DevicePtr, PagedAllocator};
use crate::props::DeviceProperties;
use convgpu_sim_core::sync::{Condvar, Mutex};
use convgpu_sim_core::units::Bytes;

/// Device construction parameters.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Hardware properties (defaults to the paper's Tesla K20m).
    pub props: DeviceProperties,
    /// Fail every allocation once fewer than this much memory would remain
    /// (0 = disabled). Used by fault-injection tests to model driver
    /// reservations.
    pub reserve: Bytes,
    /// Fault injection (default: none).
    pub faults: std::sync::Arc<FaultPlan>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfig {
            props: DeviceProperties::tesla_k20m(),
            reserve: Bytes::ZERO,
            faults: std::sync::Arc::new(FaultPlan::none()),
        }
    }
}

/// Cumulative device activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Successful allocations (all four allocation APIs).
    pub allocs: u64,
    /// Successful frees.
    pub frees: u64,
    /// Allocations refused with `cudaErrorMemoryAllocation`.
    pub failed_allocs: u64,
    /// Kernels completed.
    pub kernels: u64,
    /// Memcpy operations completed.
    pub memcpys: u64,
    /// Bytes moved by memcpy.
    pub bytes_copied: u64,
    /// Contexts created.
    pub contexts_created: u64,
    /// Contexts destroyed.
    pub contexts_destroyed: u64,
    /// High-water mark of in-use memory.
    pub peak_in_use: Bytes,
}

struct DeviceState {
    allocator: PagedAllocator,
    contexts: ContextTable,
    counters: DeviceCounters,
}

/// One simulated GPU.
pub struct GpuDevice {
    props: DeviceProperties,
    reserve: Bytes,
    faults: std::sync::Arc<FaultPlan>,
    state: Mutex<DeviceState>,
    kernel_slots: Mutex<u32>,
    kernel_slot_freed: Condvar,
}

impl GpuDevice {
    /// Build a device from `config`.
    pub fn new(config: DeviceConfig) -> Self {
        let capacity = config.props.total_global_mem;
        GpuDevice {
            kernel_slots: Mutex::new(config.props.concurrent_kernels),
            kernel_slot_freed: Condvar::new(),
            props: config.props,
            reserve: config.reserve,
            faults: config.faults,
            state: Mutex::new(DeviceState {
                allocator: PagedAllocator::new(capacity),
                contexts: ContextTable::new(),
                counters: DeviceCounters::default(),
            }),
        }
    }

    /// A Tesla K20m, the paper's evaluation GPU.
    pub fn tesla_k20m() -> Self {
        Self::new(DeviceConfig::default())
    }

    /// Hardware properties.
    pub fn props(&self) -> &DeviceProperties {
        &self.props
    }

    /// Total device memory.
    pub fn capacity(&self) -> Bytes {
        self.props.total_global_mem
    }

    /// Allocate `size` bytes for `pid`, creating the process context (and
    /// charging its 66 MiB) when this is the process's first allocation.
    /// Returns the pointer and `true` when a context was created — the
    /// runtime uses that to charge context-creation latency.
    pub fn alloc(&self, pid: Pid, size: Bytes) -> CudaResult<(DevicePtr, bool)> {
        let mut st = self.state.lock();
        if size.is_zero() {
            return Err(CudaError::InvalidValue);
        }
        if self.faults.fail_alloc() {
            st.counters.failed_allocs += 1;
            return Err(CudaError::MemoryAllocation);
        }
        let overhead = self.props.first_use_overhead();
        let needs_context = !st.contexts.has_context(pid);
        let total_needed = if needs_context { size + overhead } else { size };
        if !self.fits(&st.allocator, total_needed) {
            st.counters.failed_allocs += 1;
            return Err(CudaError::MemoryAllocation);
        }
        if needs_context {
            // Charge the context block first, owned by the pid so that
            // context destruction reclaims it.
            let ctx_ptr = st.allocator.alloc(overhead).inspect_err(|_e| {
                st.counters.failed_allocs += 1;
            })?;
            st.contexts.ensure(pid, overhead);
            st.contexts.record_alloc(pid, ctx_ptr);
            st.counters.contexts_created += 1;
        }
        match st.allocator.alloc(size) {
            Ok(ptr) => {
                st.contexts.record_alloc(pid, ptr);
                st.counters.allocs += 1;
                let in_use = st.allocator.in_use();
                st.counters.peak_in_use = st.counters.peak_in_use.max(in_use);
                Ok((ptr, needs_context))
            }
            Err(e) => {
                st.counters.failed_allocs += 1;
                Err(e)
            }
        }
    }

    /// Admission by total free bytes, less the modelled driver reserve:
    /// paged memory cannot fail an allocation that fits the total.
    fn fits(&self, allocator: &PagedAllocator, size: Bytes) -> bool {
        allocator.free_bytes() >= size + self.reserve
    }

    /// Free `ptr` on behalf of `pid`. Errors when the pointer is unknown
    /// or owned by another process. Returns the freed size.
    pub fn free(&self, pid: Pid, ptr: DevicePtr) -> CudaResult<Bytes> {
        if ptr.is_null() {
            return Ok(Bytes::ZERO);
        }
        let mut st = self.state.lock();
        if !st.contexts.owns(pid, ptr) {
            return Err(CudaError::InvalidDevicePointer);
        }
        let size = st.allocator.free(ptr)?;
        st.contexts.record_free(pid, ptr);
        st.counters.frees += 1;
        Ok(size)
    }

    /// `(free, total)` memory as `cudaMemGetInfo` reports it.
    pub fn mem_info(&self) -> (Bytes, Bytes) {
        let st = self.state.lock();
        (st.allocator.free_bytes(), self.props.total_global_mem)
    }

    /// Register a fat binary for `pid` (program start).
    pub fn register_fat_binary(&self, pid: Pid) {
        self.state.lock().contexts.register_fat_binary(pid);
    }

    /// Unregister a fat binary for `pid` (program exit). When the last
    /// binary unregisters, the context is destroyed and **all** of the
    /// process's allocations (including leaks) are reclaimed. Returns the
    /// total bytes reclaimed.
    pub fn unregister_fat_binary(&self, pid: Pid) -> Bytes {
        let mut st = self.state.lock();
        if st.contexts.unregister_fat_binary(pid) {
            self.destroy_context_locked(&mut st, pid)
        } else {
            Bytes::ZERO
        }
    }

    /// Forcibly destroy `pid`'s context (container kill / crash path).
    /// Returns bytes reclaimed (zero when no context existed).
    pub fn destroy_context(&self, pid: Pid) -> Bytes {
        let mut st = self.state.lock();
        self.destroy_context_locked(&mut st, pid)
    }

    fn destroy_context_locked(&self, st: &mut DeviceState, pid: Pid) -> Bytes {
        let Some((_overhead, ptrs)) = st.contexts.destroy(pid) else {
            return Bytes::ZERO;
        };
        let mut reclaimed = Bytes::ZERO;
        for ptr in ptrs {
            // The context table and allocator are kept in lockstep, so
            // every owned pointer is live.
            reclaimed += st
                .allocator
                .free(ptr)
                .expect("context-owned pointer must be live");
        }
        st.counters.contexts_destroyed += 1;
        reclaimed
    }

    /// True when `pid` currently has a context.
    pub fn has_context(&self, pid: Pid) -> bool {
        self.state.lock().contexts.has_context(pid)
    }

    /// Allocator statistics snapshot.
    pub fn allocator_stats(&self) -> AllocatorStats {
        self.state.lock().allocator.stats()
    }

    /// Activity counters snapshot.
    pub fn counters(&self) -> DeviceCounters {
        self.state.lock().counters
    }

    /// Acquire a Hyper-Q kernel slot, blocking while all
    /// `concurrent_kernels` slots are busy. Pairs with
    /// [`GpuDevice::release_kernel_slot`].
    pub fn acquire_kernel_slot(&self) {
        let mut slots = self.kernel_slots.lock();
        while *slots == 0 {
            self.kernel_slot_freed.wait(&mut slots);
        }
        *slots -= 1;
    }

    /// Release a Hyper-Q kernel slot.
    pub fn release_kernel_slot(&self) {
        let mut slots = self.kernel_slots.lock();
        *slots += 1;
        drop(slots);
        self.kernel_slot_freed.notify_one();
    }

    /// Record a completed kernel (called by the runtime after execution).
    pub fn note_kernel_completed(&self) {
        self.state.lock().counters.kernels += 1;
    }

    /// Consult the fault plan for a kernel launch.
    pub fn should_fail_launch(&self) -> bool {
        self.faults.fail_launch()
    }

    /// Record a completed memcpy.
    pub fn note_memcpy(&self, bytes: Bytes) {
        let mut st = self.state.lock();
        st.counters.memcpys += 1;
        st.counters.bytes_copied += bytes.as_u64();
    }

    /// Validate allocator invariants (tests / debug).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.state.lock().allocator.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_alloc_charges_context_overhead() {
        let dev = GpuDevice::tesla_k20m();
        let (free0, total) = dev.mem_info();
        assert_eq!(free0, total);
        let (_, created) = dev.alloc(1, Bytes::mib(100)).unwrap();
        assert!(created);
        let (free1, _) = dev.mem_info();
        assert_eq!(total - free1, Bytes::mib(166), "100 MiB + 66 MiB context");
        // Second allocation from the same pid: no extra overhead.
        let (_, created) = dev.alloc(1, Bytes::mib(10)).unwrap();
        assert!(!created);
        let (free2, _) = dev.mem_info();
        assert_eq!(free1 - free2, Bytes::mib(10));
    }

    #[test]
    fn each_pid_pays_its_own_context() {
        let dev = GpuDevice::tesla_k20m();
        dev.alloc(1, Bytes::mib(1)).unwrap();
        dev.alloc(2, Bytes::mib(1)).unwrap();
        let (free, total) = dev.mem_info();
        assert_eq!(total - free, Bytes::mib(2 * 66 + 2));
        assert_eq!(dev.counters().contexts_created, 2);
    }

    #[test]
    fn exhaustion_counts_failed_allocs() {
        let dev = GpuDevice::new(DeviceConfig {
            props: DeviceProperties::gtx_750ti(), // 2 GiB
            ..DeviceConfig::default()
        });
        dev.alloc(1, Bytes::mib(1900)).unwrap();
        assert_eq!(
            dev.alloc(1, Bytes::mib(200)).unwrap_err(),
            CudaError::MemoryAllocation
        );
        assert_eq!(dev.counters().failed_allocs, 1);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn context_overhead_included_in_first_alloc_admission() {
        // 2 GiB device: a first allocation of 2 GiB-32 MiB must fail
        // because the 66 MiB context does not fit alongside it.
        let dev = GpuDevice::new(DeviceConfig {
            props: DeviceProperties::gtx_750ti(),
            ..DeviceConfig::default()
        });
        let req = Bytes::gib(2) - Bytes::mib(32);
        assert_eq!(dev.alloc(1, req).unwrap_err(), CudaError::MemoryAllocation);
        // No context must have been leaked by the failed attempt.
        assert!(!dev.has_context(1));
        let (free, total) = dev.mem_info();
        assert_eq!(free, total);
    }

    #[test]
    fn cross_pid_free_rejected() {
        let dev = GpuDevice::tesla_k20m();
        let (ptr, _) = dev.alloc(1, Bytes::mib(4)).unwrap();
        assert_eq!(dev.free(2, ptr), Err(CudaError::InvalidDevicePointer));
        assert_eq!(dev.free(1, ptr).unwrap(), Bytes::mib(4));
    }

    #[test]
    fn unregister_reclaims_leaks() {
        let dev = GpuDevice::tesla_k20m();
        dev.register_fat_binary(1);
        dev.alloc(1, Bytes::mib(100)).unwrap();
        dev.alloc(1, Bytes::mib(50)).unwrap(); // leaked on purpose
        let reclaimed = dev.unregister_fat_binary(1);
        assert_eq!(reclaimed, Bytes::mib(150 + 66));
        let (free, total) = dev.mem_info();
        assert_eq!(free, total, "all memory back");
        assert!(!dev.has_context(1));
        assert_eq!(dev.counters().contexts_destroyed, 1);
    }

    #[test]
    fn destroy_context_on_kill_path() {
        let dev = GpuDevice::tesla_k20m();
        dev.alloc(7, Bytes::mib(10)).unwrap();
        let reclaimed = dev.destroy_context(7);
        assert_eq!(reclaimed, Bytes::mib(76));
        assert_eq!(dev.destroy_context(7), Bytes::ZERO, "idempotent");
    }

    #[test]
    fn reserve_blocks_allocations_near_capacity() {
        let dev = GpuDevice::new(DeviceConfig {
            props: DeviceProperties::gtx_750ti(),
            reserve: Bytes::mib(256),
            ..DeviceConfig::default()
        });
        // 2048 - 66 ctx - 256 reserve = 1726 max single alloc.
        assert!(dev.alloc(1, Bytes::mib(1800)).is_err());
        assert!(dev.alloc(1, Bytes::mib(1700)).is_ok());
    }

    #[test]
    fn kernel_slots_enforce_hyperq_width() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let props = DeviceProperties {
            concurrent_kernels: 2,
            ..DeviceProperties::tesla_k20m()
        };
        let dev = Arc::new(GpuDevice::new(DeviceConfig {
            props,
            ..DeviceConfig::default()
        }));
        let running = Arc::new(AtomicU32::new(0));
        let peak = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let dev = Arc::clone(&dev);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            handles.push(std::thread::spawn(move || {
                dev.acquire_kernel_slot();
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(5));
                running.fetch_sub(1, Ordering::SeqCst);
                dev.release_kernel_slot();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "Hyper-Q width exceeded");
    }

    #[test]
    fn peak_in_use_tracks_high_water() {
        let dev = GpuDevice::tesla_k20m();
        let (p, _) = dev.alloc(1, Bytes::mib(500)).unwrap();
        dev.free(1, p).unwrap();
        dev.alloc(1, Bytes::mib(10)).unwrap();
        assert_eq!(dev.counters().peak_in_use, Bytes::mib(566));
    }
}
