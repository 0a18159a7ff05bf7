//! A simulated NVIDIA GPU and CUDA-Runtime-like API.
//!
//! The paper evaluated ConVGPU on a Tesla K20m with CUDA 8. This crate is
//! the substitution substrate: it reproduces every *observable behaviour of
//! the CUDA Runtime API that ConVGPU depends on* (see DESIGN.md §2):
//!
//! * the Table II API surface: `cudaMalloc`, `cudaMallocManaged`,
//!   `cudaMallocPitch`, `cudaMalloc3D`, `cudaFree`, `cudaMemGetInfo`,
//!   `cudaGetDeviceProperties`, and the implicit
//!   `__cudaRegisterFatBinary` / `__cudaUnregisterFatBinary` pair;
//! * allocation semantics: `cudaErrorMemoryAllocation` on exhaustion, the
//!   ~64 MiB process-data + ~2 MiB context charge on first use by a
//!   process, pitched-width rounding, managed memory's 128 MiB granularity;
//! * timing: a latency model per API call (calibrated to the paper's Fig. 4
//!   "without ConVGPU" bars), a PCIe-bandwidth memcpy model, and a
//!   Hyper-Q kernel executor allowing up to 32 concurrent kernels;
//! * cleanup: destroying a process's context reclaims its leaked
//!   allocations, mirroring the driver's behaviour on process exit.
//!
//! The API is exposed through the [`api::CudaApi`] trait so the ConVGPU
//! wrapper module (`convgpu-wrapper`) can interpose on it exactly like
//! `LD_PRELOAD` interposes on the real shared library.

#![forbid(unsafe_code)]
// Simulated time comes from SimClock: std::time::Instant / SystemTime are
// banned here by clippy.toml (docs/LINT.md).
#![deny(clippy::disallowed_types)]

pub mod api;
pub mod context;
pub mod device;
pub mod error;
pub mod fault;
pub mod kernel;
pub mod latency;
pub mod memory;
pub mod program;
pub mod props;
pub mod runtime;
pub mod stream;

pub use api::{CudaApi, Extent3D, MemcpyKind, PitchedPtr};
pub use device::{DeviceConfig, GpuDevice};
pub use error::{CudaError, CudaResult};
pub use fault::{FaultPlan, FaultRates};
pub use kernel::KernelSpec;
pub use latency::LatencyModel;
pub use memory::DevicePtr;
pub use program::{FnProgram, GpuProgram, ProgramLink};
pub use props::DeviceProperties;
pub use runtime::RawCudaRuntime;
pub use stream::{EventId, StreamEngine, StreamId};
