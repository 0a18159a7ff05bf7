//! Seeded input generation. The program under test sees only these op
//! lists; the same `--seed` yields the same bytes.

use crate::layers::{table3_limit, Bytes, DetRng};

/// One wrapped CUDA memory call of a container script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CudaOp {
    /// `cudaMalloc(mib MiB)`; the pointer joins the live list.
    Malloc { mib: u32 },
    /// `cudaFree` of the live pointer at `slot` (then swap-removed).
    Free { slot: u8 },
    /// `cudaMemGetInfo`.
    MemGetInfo,
    /// `cudaMallocPitch(width bytes, height rows)`.
    MallocPitch { width: u32, height: u32 },
    /// `cudaMallocManaged(mib MiB)` (charged in 128 MiB granules).
    MallocManaged { mib: u32 },
    /// `cudaMalloc(limit + 1)`: the scheduler must reject it.
    Probe,
}

/// One container's life as the workload drives it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ContainerScript {
    /// Declared GPU memory limit.
    pub limit: Bytes,
    /// The calls, in order. Every pointer is freed by the end.
    pub ops: Vec<CudaOp>,
}

impl ContainerScript {
    /// Grants the scheduler must record for this script.
    pub fn expected_grants(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    CudaOp::Malloc { .. }
                        | CudaOp::MallocPitch { .. }
                        | CudaOp::MallocManaged { .. }
                )
            })
            .count() as u64
    }

    /// Rejections the scheduler must record for this script.
    pub fn expected_rejects(&self) -> u64 {
        self.ops.iter().filter(|op| **op == CudaOp::Probe).count() as u64
    }
}

/// Shape of a script family.
pub struct ScriptShape {
    /// `cudaMalloc` rounds per container.
    pub rounds: u32,
    /// Most pointers alive at once.
    pub max_live: usize,
    /// Largest `cudaMalloc`, MiB (sizes are uniform in `1..=max`).
    pub max_mib: u32,
    /// A `cudaMemGetInfo` after every this many calls (0 = never).
    pub meminfo_every: u32,
    /// An over-limit probe after every this many calls (0 = never).
    pub probe_every: u32,
    /// Include one `cudaMallocPitch` and one `cudaMallocManaged`.
    pub pitch_and_managed: bool,
    /// Draw the limit from Table III (else 1 GiB).
    pub table3_limit: bool,
}

/// `node_json`: 256 rounds of 1–64 MiB with at most 8 alive under a
/// 1 GiB limit, so nothing ever suspends; `cudaMemGetInfo` every 16th
/// call, a probe every 64th, one pitched and one managed allocation.
pub const NODE_JSON_SHAPE: ScriptShape = ScriptShape {
    rounds: 256,
    max_live: 8,
    max_mib: 64,
    meminfo_every: 16,
    probe_every: 64,
    pitch_and_managed: true,
    table3_limit: false,
};

/// `routed_journal`: short containers — 16 malloc/free pairs under a
/// Table III limit — so placement, home-map mutation and journal
/// records dominate.
pub const ROUTED_SHAPE: ScriptShape = ScriptShape {
    rounds: 16,
    max_live: 2,
    max_mib: 32,
    meminfo_every: 0,
    probe_every: 0,
    pitch_and_managed: false,
    table3_limit: true,
};

/// The script of container number `index` under `seed`.
pub fn container_script(seed: u64, index: u64, shape: &ScriptShape) -> ContainerScript {
    let mut rng = DetRng::seed_from_u64(seed).split(index);
    let limit = if shape.table3_limit {
        table3_limit(rng.next_below(6))
    } else {
        Bytes::gib(1)
    };
    let pitch_at = rng.next_below(u64::from(shape.rounds)) as u32;
    let managed_at = rng.next_below(u64::from(shape.rounds)) as u32;
    let mut ops = Vec::with_capacity(shape.rounds as usize * 2 + 32);
    let mut live = 0usize;
    let mut calls = 0u32;
    // `calls` counts the malloc/free calls; the extras ride on them.
    let push = |ops: &mut Vec<CudaOp>, calls: &mut u32, op: CudaOp| {
        ops.push(op);
        *calls += 1;
        if shape.meminfo_every != 0 && calls.is_multiple_of(shape.meminfo_every) {
            ops.push(CudaOp::MemGetInfo);
        }
        if shape.probe_every != 0 && calls.is_multiple_of(shape.probe_every) {
            ops.push(CudaOp::Probe);
        }
    };
    let free_one = |ops: &mut Vec<CudaOp>, calls: &mut u32, live: &mut usize, rng: &mut DetRng| {
        let slot = rng.index(*live) as u8;
        *live -= 1;
        push(ops, calls, CudaOp::Free { slot });
    };
    for round in 0..shape.rounds {
        while live >= shape.max_live {
            free_one(&mut ops, &mut calls, &mut live, &mut rng);
        }
        let op = if shape.pitch_and_managed && round == pitch_at {
            CudaOp::MallocPitch {
                width: rng.range_inclusive(1, 4096) as u32,
                height: rng.range_inclusive(1, 1024) as u32,
            }
        } else if shape.pitch_and_managed && round == managed_at {
            CudaOp::MallocManaged {
                mib: rng.range_inclusive(1, 128) as u32,
            }
        } else {
            CudaOp::Malloc {
                mib: rng.range_inclusive(1, u64::from(shape.max_mib)) as u32,
            }
        };
        push(&mut ops, &mut calls, op);
        live += 1;
        // Free about half the time, so the live set wanders between
        // empty and full instead of sitting at the cap.
        if rng.next_below(2) == 0 {
            free_one(&mut ops, &mut calls, &mut live, &mut rng);
        }
    }
    while live > 0 {
        free_one(&mut ops, &mut calls, &mut live, &mut rng);
    }
    ContainerScript { limit, ops }
}

/// Scripts for containers `0..` until they hold at least `ops` calls.
pub fn scripts_for(seed: u64, ops: u64, shape: &ScriptShape) -> Vec<ContainerScript> {
    let mut scripts = Vec::new();
    let mut total = 0u64;
    while total < ops {
        let s = container_script(seed, scripts.len() as u64, shape);
        total += s.ops.len() as u64;
        scripts.push(s);
    }
    scripts
}

/// The scripts as bytes (what "same seed, same inputs" is checked on).
#[cfg(test)]
pub fn encode_scripts(scripts: &[ContainerScript]) -> Vec<u8> {
    let mut out = Vec::new();
    for s in scripts {
        out.extend_from_slice(&s.limit.as_u64().to_le_bytes());
        out.extend_from_slice(&(s.ops.len() as u32).to_le_bytes());
        for op in &s.ops {
            let (tag, a, b): (u8, u32, u32) = match *op {
                CudaOp::Malloc { mib } => (0, mib, 0),
                CudaOp::Free { slot } => (1, u32::from(slot), 0),
                CudaOp::MemGetInfo => (2, 0, 0),
                CudaOp::MallocPitch { width, height } => (3, width, height),
                CudaOp::MallocManaged { mib } => (4, mib, 0),
                CudaOp::Probe => (5, 0, 0),
            };
            out.push(tag);
            out.extend_from_slice(&a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for shape in [&NODE_JSON_SHAPE, &ROUTED_SHAPE] {
            let a = encode_scripts(&scripts_for(42, 20_000, shape));
            let b = encode_scripts(&scripts_for(42, 20_000, shape));
            let c = encode_scripts(&scripts_for(43, 20_000, shape));
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }

    #[test]
    fn scripts_stay_inside_their_limits() {
        for seed in 0..20 {
            for index in 0..8 {
                let s = container_script(seed, index, &NODE_JSON_SHAPE);
                let (mut live, mut peak) = (0usize, 0usize);
                for op in &s.ops {
                    match op {
                        CudaOp::Malloc { mib } => {
                            assert!((1..=64).contains(mib));
                            live += 1;
                        }
                        CudaOp::MallocPitch { .. } | CudaOp::MallocManaged { .. } => live += 1,
                        CudaOp::Free { slot } => {
                            assert!((*slot as usize) < live);
                            live -= 1;
                        }
                        CudaOp::MemGetInfo | CudaOp::Probe => {}
                    }
                    peak = peak.max(live);
                }
                assert_eq!(live, 0, "every pointer is freed");
                assert!(peak <= NODE_JSON_SHAPE.max_live);
                assert_eq!(s.expected_grants(), 256);
                assert_eq!(
                    s.expected_rejects(),
                    8,
                    "a probe after every 64th of 512 calls"
                );
                assert_eq!(s.limit, Bytes::gib(1));
            }
        }
        let r = container_script(7, 3, &ROUTED_SHAPE);
        assert_eq!(r.expected_grants(), 16);
        assert_eq!(r.expected_rejects(), 0);
    }
}
