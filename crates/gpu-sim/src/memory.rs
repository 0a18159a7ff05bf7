//! The device memory allocator.
//!
//! [`PagedAllocator`] models CUDA's `cudaMalloc`: it returns *virtually*
//! contiguous ranges backed by physical pages, so an allocation succeeds
//! whenever enough total memory is free; physical fragmentation cannot
//! fail it. This matters for ConVGPU: the scheduler's guarantee
//! (`Σ assigned ≤ capacity`) is only sound if the device admits by total
//! free space, as real GPUs do (DESIGN.md §7.1).

use crate::error::{CudaError, CudaResult};
use convgpu_sim_core::units::Bytes;
use std::collections::BTreeMap;
use std::fmt;

/// A device pointer. Address 0 is never handed out (it is CUDA's NULL).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DevicePtr(pub u64);

impl DevicePtr {
    /// The null device pointer.
    pub const NULL: DevicePtr = DevicePtr(0);

    /// Raw address value.
    pub fn addr(self) -> u64 {
        self.0
    }

    /// True for the null pointer.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::Display for DevicePtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Device base address for the simulated heap — an arbitrary non-zero
/// constant resembling real unified-addressing values.
const HEAP_BASE: u64 = 0x0007_0000_0000;

/// Minimum allocation granularity. Real CUDA allocations are at least
/// 256-byte aligned; we round sizes up to this too, so "0-byte" requests
/// still occupy a distinguishable block (matching `cudaMalloc(&p, 0)`
/// returning a unique pointer is NOT modeled — zero sizes are rejected
/// earlier by the API layer).
const GRANULE: u64 = 256;

/// Allocation statistics snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocatorStats {
    /// Bytes currently allocated (after granularity rounding).
    pub in_use: Bytes,
    /// Bytes currently free.
    pub free: Bytes,
    /// Number of live allocations.
    pub live_allocations: usize,
    /// Total allocations served over the allocator's lifetime.
    pub total_allocs: u64,
    /// Total frees over the allocator's lifetime.
    pub total_frees: u64,
}

/// Paged allocator: virtual bump addresses, physical accounting by
/// total bytes. Mirrors real `cudaMalloc` semantics (virtually
/// contiguous, physically paged).
pub struct PagedAllocator {
    capacity: Bytes,
    free: Bytes,
    next_addr: u64,
    live: BTreeMap<u64, u64>,
    total_allocs: u64,
    total_frees: u64,
}

impl PagedAllocator {
    /// An empty paged allocator over `capacity` bytes.
    pub fn new(capacity: Bytes) -> Self {
        PagedAllocator {
            capacity,
            free: capacity,
            next_addr: HEAP_BASE,
            live: BTreeMap::new(),
            total_allocs: 0,
            total_frees: 0,
        }
    }

    /// Total device memory.
    pub fn capacity(&self) -> Bytes {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> Bytes {
        self.capacity - self.free
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> Bytes {
        self.free
    }

    /// Allocate: succeeds whenever `size` (rounded to the granule) fits
    /// the free total — no contiguity constraint.
    pub fn alloc(&mut self, size: Bytes) -> CudaResult<DevicePtr> {
        if size.is_zero() {
            return Err(CudaError::InvalidValue);
        }
        let want = size.align_up(Bytes::new(GRANULE));
        if want > self.free {
            return Err(CudaError::MemoryAllocation);
        }
        let addr = self.next_addr;
        // Virtual addresses are never reused; a 64-bit space outlives any
        // simulation.
        self.next_addr = self
            .next_addr
            .checked_add(want.as_u64().max(GRANULE))
            .expect("virtual address space exhausted");
        self.free -= want;
        self.live.insert(addr, want.as_u64());
        self.total_allocs += 1;
        Ok(DevicePtr(addr))
    }

    /// Free a live allocation; NULL is a no-op.
    pub fn free(&mut self, ptr: DevicePtr) -> CudaResult<Bytes> {
        if ptr.is_null() {
            return Ok(Bytes::ZERO);
        }
        let len = self
            .live
            .remove(&ptr.0)
            .ok_or(CudaError::InvalidDevicePointer)?;
        self.free += Bytes::new(len);
        self.total_frees += 1;
        Ok(Bytes::new(len))
    }

    /// Size of a live allocation.
    pub fn size_of(&self, ptr: DevicePtr) -> Option<Bytes> {
        self.live.get(&ptr.0).copied().map(Bytes::new)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> AllocatorStats {
        AllocatorStats {
            in_use: self.in_use(),
            free: self.free,
            live_allocations: self.live.len(),
            total_allocs: self.total_allocs,
            total_frees: self.total_frees,
        }
    }

    /// Consistency: live total + free == capacity.
    pub fn check_invariants(&self) -> Result<(), String> {
        let live: u64 = self.live.values().sum();
        if Bytes::new(live) + self.free != self.capacity {
            return Err(format!(
                "paged accounting broken: live {live} + free {} != capacity {}",
                self.free, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paged_alloc_free_roundtrip() {
        let mut a = PagedAllocator::new(Bytes::mib(64));
        let p = a.alloc(Bytes::mib(16)).unwrap();
        assert_eq!(a.in_use(), Bytes::mib(16));
        assert_eq!(a.size_of(p), Some(Bytes::mib(16)));
        assert_eq!(a.free(p).unwrap(), Bytes::mib(16));
        assert_eq!(a.free_bytes(), Bytes::mib(64));
        a.check_invariants().unwrap();
    }

    #[test]
    fn paged_is_immune_to_fragmentation() {
        // 10+10 free but split: a contiguous allocator would fail 15.
        let mut a = PagedAllocator::new(Bytes::mib(30));
        let p1 = a.alloc(Bytes::mib(10)).unwrap();
        let _p2 = a.alloc(Bytes::mib(10)).unwrap();
        let p3 = a.alloc(Bytes::mib(10)).unwrap();
        a.free(p1).unwrap();
        a.free(p3).unwrap();
        // 20 MiB free → a 15 MiB request SUCCEEDS under paging.
        assert!(a.alloc(Bytes::mib(15)).is_ok());
        a.check_invariants().unwrap();
    }

    #[test]
    fn paged_exhaustion_and_errors() {
        let mut a = PagedAllocator::new(Bytes::mib(10));
        assert_eq!(a.alloc(Bytes::ZERO), Err(CudaError::InvalidValue));
        let p = a.alloc(Bytes::mib(8)).unwrap();
        assert_eq!(a.alloc(Bytes::mib(4)), Err(CudaError::MemoryAllocation));
        assert_eq!(a.free(DevicePtr::NULL).unwrap(), Bytes::ZERO);
        a.free(p).unwrap();
        assert_eq!(a.free(p), Err(CudaError::InvalidDevicePointer));
    }

    #[test]
    fn paged_addresses_are_unique_and_nonnull() {
        let mut a = PagedAllocator::new(Bytes::mib(64));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let p = a.alloc(Bytes::kib(4)).unwrap();
            assert!(!p.is_null());
            assert!(seen.insert(p), "duplicate address {p}");
        }
    }

    #[test]
    fn paged_sizes_round_to_granule_and_counters_accumulate() {
        let mut a = PagedAllocator::new(Bytes::mib(1));
        let p = a.alloc(Bytes::new(1)).unwrap();
        assert_eq!(a.size_of(p), Some(Bytes::new(256)));
        assert_eq!(a.in_use(), Bytes::new(256));
        a.free(p).unwrap();
        let p = a.alloc(Bytes::new(1)).unwrap();
        a.free(p).unwrap();
        let s = a.stats();
        assert_eq!(
            (s.total_allocs, s.total_frees, s.live_allocations),
            (2, 2, 0)
        );
        assert_eq!(
            PagedAllocator::new(Bytes::ZERO).alloc(Bytes::new(1)),
            Err(CudaError::MemoryAllocation)
        );
    }
}
