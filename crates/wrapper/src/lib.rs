//! The CUDA **wrapper API module** — the `libgpushare.so` analog
//! (paper §III-C).
//!
//! In the original system this is a shared library injected via
//! `LD_PRELOAD` that overrides the Table II symbols, consults the GPU
//! memory scheduler over the container's UNIX socket, and calls through to
//! the real `libcudart`. Here the same three-way structure appears as:
//!
//! * [`module::WrapperModule`] — implements
//!   [`convgpu_gpu_sim::api::CudaApi`] by gating allocations through a
//!   [`convgpu_ipc::endpoint::SchedulerEndpoint`] and then delegating to
//!   an inner `CudaApi` (the raw runtime);
//! * [`preload`] — the dynamic-linker model: resolves a process's CUDA
//!   symbols to the wrapper only when `LD_PRELOAD` lists the module *and*
//!   the program was built with `-cudart=shared` (the paper's documented
//!   pitfall: statically linked runtimes bypass `LD_PRELOAD`
//!   interposition).
//!
//! Faithful details carried over from the paper:
//!
//! * `cudaMallocPitch` fetches the device pitch size on its **first**
//!   call (`cudaGetDeviceProperties`), which is why that first call costs
//!   about twice a plain allocation in Fig. 4; the result is cached.
//! * `cudaMallocManaged` sizes are rounded to 128 MiB granules *before*
//!   asking the scheduler.
//! * `cudaMemGetInfo` is answered from the scheduler's book-keeping
//!   without touching the device — measurably *faster* than raw CUDA.
//! * `__cudaUnregisterFatBinary` additionally notifies the scheduler so a
//!   process's leaked memory is reclaimed.

#![forbid(unsafe_code)]
// Simulated time comes from SimClock: std::time::Instant / SystemTime are
// banned here by clippy.toml (docs/LINT.md).
#![deny(clippy::disallowed_types)]

pub mod module;
pub mod preload;

pub use module::{WrapperModule, WrapperStats};
pub use preload::{resolve_runtime, LinkSpec, ProcessEnv, GPUSHARE_SONAME};
