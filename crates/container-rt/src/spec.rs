//! Container creation options — the subset of `docker create` ConVGPU's
//! customized nvidia-docker manipulates.

use convgpu_sim_core::units::Bytes;

/// cgroup-style resource caps (paper Table III columns "Number of vCPU"
/// and "Memory (GiB)").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResourceSpec {
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Host memory cap.
    pub memory: Bytes,
}

impl Default for ResourceSpec {
    fn default() -> Self {
        ResourceSpec {
            vcpus: 1,
            memory: Bytes::gib(1),
        }
    }
}

/// A `--volume` mount.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VolumeMount {
    /// Host path or named volume.
    pub source: String,
    /// Path inside the container.
    pub target: String,
    /// Volume driver; `Some(name)` marks a plugin volume, whose unmount
    /// the engine hands to the driver registered under `name` (paper
    /// §III-B: the "dummy volume" that signals container exit).
    pub driver: Option<String>,
}

impl VolumeMount {
    /// A plain bind mount.
    pub fn bind(source: impl Into<String>, target: impl Into<String>) -> Self {
        VolumeMount {
            source: source.into(),
            target: target.into(),
            driver: None,
        }
    }

    /// A plugin-managed volume.
    pub fn plugin(
        source: impl Into<String>,
        target: impl Into<String>,
        driver: impl Into<String>,
    ) -> Self {
        VolumeMount {
            source: source.into(),
            target: target.into(),
            driver: Some(driver.into()),
        }
    }
}

/// Options for creating a container (the output of nvidia-docker's
/// command-line rewriting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CreateOptions {
    /// Image reference (`name` or `name:tag`).
    pub image: String,
    /// Optional container name.
    pub name: Option<String>,
    /// Environment variables (`--env`), e.g. `LD_PRELOAD`.
    pub env: Vec<(String, String)>,
    /// Volume mounts (`--volume`).
    pub volumes: Vec<VolumeMount>,
    /// Device nodes (`--device`), e.g. `/dev/nvidia0`.
    pub devices: Vec<String>,
    /// Resource caps.
    pub resources: ResourceSpec,
}

impl CreateOptions {
    /// Minimal options for `image`.
    pub fn new(image: impl Into<String>) -> Self {
        CreateOptions {
            image: image.into(),
            name: None,
            env: Vec::new(),
            volumes: Vec::new(),
            devices: Vec::new(),
            resources: ResourceSpec::default(),
        }
    }

    /// Add an environment variable (builder style).
    pub fn with_env(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.env.push((key.into(), value.into()));
        self
    }

    /// Add a volume mount.
    pub fn with_volume(mut self, v: VolumeMount) -> Self {
        self.volumes.push(v);
        self
    }

    /// Add a device node.
    pub fn with_device(mut self, dev: impl Into<String>) -> Self {
        self.devices.push(dev.into());
        self
    }

    /// Set resource caps.
    pub fn with_resources(mut self, r: ResourceSpec) -> Self {
        self.resources = r;
        self
    }

    /// Look up an env var (last writer wins, like the docker CLI).
    pub fn env_get(&self, key: &str) -> Option<&str> {
        self.env
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let opts = CreateOptions::new("cuda-app:latest")
            .with_env("LD_PRELOAD", "/convgpu/libgpushare.so")
            .with_volume(VolumeMount::bind("/var/lib/convgpu/cnt-1", "/convgpu"))
            .with_volume(VolumeMount::plugin(
                "nvidia_driver_375.51",
                "/usr/local/nvidia",
                "nvidia-docker",
            ))
            .with_device("/dev/nvidia0")
            .with_resources(ResourceSpec {
                vcpus: 2,
                memory: Bytes::gib(4),
            });
        assert_eq!(opts.env_get("LD_PRELOAD"), Some("/convgpu/libgpushare.so"));
        assert_eq!(opts.volumes.len(), 2);
        assert_eq!(opts.volumes[1].driver.as_deref(), Some("nvidia-docker"));
        assert_eq!(opts.devices, vec!["/dev/nvidia0"]);
        assert_eq!(opts.resources.vcpus, 2);
    }

    #[test]
    fn env_last_writer_wins() {
        let opts = CreateOptions::new("a")
            .with_env("X", "1")
            .with_env("X", "2");
        assert_eq!(opts.env_get("X"), Some("2"));
        assert_eq!(opts.env_get("Y"), None);
    }
}
