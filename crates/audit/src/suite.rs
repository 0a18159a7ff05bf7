//! The phase table: every universe the `convgpu-audit` binary sweeps,
//! `ci/check.sh` gates on, and the state-count golden pins. A phase is a
//! title plus one [`ModelConfig`] per policy (× placement);
//! the explorer behind every row is the same.

use crate::model::ModelConfig;
use convgpu_scheduler::{PlacementPolicy, PolicyKind};

/// One phase of the sweep.
pub struct Phase {
    /// What the phase puts under the driver.
    pub title: &'static str,
    /// `(label, universe)` per row.
    pub rows: Vec<(String, ModelConfig)>,
}

/// One row per policy × variant, labelled `policy+variant`.
fn crossed<V: Copy>(
    policies: &[PolicyKind],
    variants: [(V, &str); 3],
    universe: impl Fn(PolicyKind, V) -> ModelConfig,
) -> Vec<(String, ModelConfig)> {
    policies
        .iter()
        .flat_map(|&p| variants.map(|(v, name)| (format!("{}+{name}", p.label()), universe(p, v))))
        .collect()
}

/// The model-check phases for `policies`, in sweep order.
pub fn phases(policies: &[PolicyKind]) -> Vec<Phase> {
    let per_policy = |suffix: &str, universe: fn(PolicyKind) -> ModelConfig| {
        policies
            .iter()
            .map(|&p| (format!("{} / {suffix}", p.label()), universe(p)))
            .collect()
    };
    let placements = [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::MostFree,
        PlacementPolicy::BestFitDevice,
    ]
    .map(|p| (p, p.label()));
    vec![
        Phase {
            title: "3 containers, 1 GiB device, 256 MiB quanta, no ctx overhead",
            rows: per_policy("3-container", ModelConfig::three_containers),
        },
        Phase {
            title: "2 containers, 1 GiB device, 66 MiB per-pid ctx overhead charged",
            rows: per_policy("2-container+ctx", ModelConfig::two_containers_with_ctx),
        },
        Phase {
            title: "multi-GPU: 3 containers on 2 × 768 MiB devices, 256 MiB quanta",
            rows: crossed(
                policies,
                placements,
                ModelConfig::two_devices_three_containers,
            ),
        },
    ]
}
