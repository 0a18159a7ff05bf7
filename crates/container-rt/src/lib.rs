//! A container-runtime simulator — the Docker analog.
//!
//! The paper builds on Docker 1.12 + NVIDIA Docker 1.0.0-rc3. ConVGPU
//! interacts with Docker through a narrow surface, and that surface is what
//! this crate reproduces (DESIGN.md §2):
//!
//! * **images with labels** — nvidia-docker reads
//!   `com.nvidia.volumes.needed`, `com.nvidia.cuda.version` and ConVGPU
//!   adds `com.nvidia.memory.limit`;
//! * **container creation options** — `--env` (ConVGPU injects
//!   `LD_PRELOAD`), `--volume` (the wrapper-module directory and the dummy
//!   plugin volume), `--device` (the GPU nodes);
//! * **lifecycle + volume drivers** — `create` / `start` / `stop` /
//!   `remove`, and the unmount a registered [`VolumeDriver`] answers
//!   while `stop` tears the container down, which is exactly how
//!   nvidia-docker-plugin learns that a container exited and tells the
//!   scheduler to release its memory.
//!
//! The engine charges a configurable creation cost on the session clock so
//! the Fig. 5 container-creation experiment has a realistic baseline.

#![forbid(unsafe_code)]
// Simulated time comes from SimClock: std::time::Instant / SystemTime are
// banned here by clippy.toml (docs/LINT.md).
#![deny(clippy::disallowed_types)]

pub mod container;
pub mod engine;
pub mod image;
pub mod spec;

pub use container::{Container, ContainerStatus};
pub use engine::{Engine, EngineConfig, EngineError, VolumeDriver};
pub use image::{labels, Image, ImageRegistry};
pub use spec::{CreateOptions, ResourceSpec, VolumeMount};
