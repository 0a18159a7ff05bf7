//! Cluster placement — the paper's second §V future-work item: "Our
//! further step is to adopt the ConVGPU in the clustering system like
//! Docker Swarm."
//!
//! A cluster is served by the distributed router
//! (`convgpu_core::router::ClusterRouter`) in front of one node daemon per
//! host; this module holds the one piece of it that is pure policy:
//! Docker Swarm's classic placement strategies, [`SwarmStrategy`].
//!
//! * **Spread** (Swarm's default) — the node with the fewest open
//!   containers, balancing load;
//! * **BinPack** — the node with the least free GPU memory that still
//!   fits the requirement, packing tightly so whole nodes stay free;
//! * **Random** — uniform over capable nodes, deterministic under a seed.
//!
//! After placement every scheduler message routes to the container's home
//! node, preserving all single-node semantics (suspension, guarantees,
//! policy redistribution) unchanged — GPU memory never migrates across
//! nodes, exactly as in a real Swarm deployment.

use convgpu_sim_core::units::Bytes;

/// Docker-Swarm-style node placement strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SwarmStrategy {
    /// Fewest open containers first (Swarm default).
    Spread,
    /// Least free memory that still fits (tight packing).
    BinPack,
    /// Uniform over capable nodes (seeded).
    Random,
}

impl SwarmStrategy {
    /// Stable label used in metrics, reports, and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            SwarmStrategy::Spread => "spread",
            SwarmStrategy::BinPack => "binpack",
            SwarmStrategy::Random => "random",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<SwarmStrategy> {
        match s {
            "spread" => Some(SwarmStrategy::Spread),
            "binpack" | "bin-pack" => Some(SwarmStrategy::BinPack),
            "random" => Some(SwarmStrategy::Random),
            _ => None,
        }
    }

    /// Pick one of `capable` — the nodes still in the running (able to
    /// host the container, not yet tried, and alive as far as the caller
    /// knows). The caller brings its own view of them: `need(i)` is what
    /// the placement would commit on node `i`, `free(i)` the bytes node
    /// `i` has not promised yet, `open(i)` the containers it hosts, and
    /// `draw(n)` a uniform index below `n`. Each is consulted only by the
    /// strategy that scores on it; ties go to the lowest index.
    pub fn select(
        self,
        capable: &[usize],
        need: impl Fn(usize) -> Bytes,
        free: impl Fn(usize) -> u64,
        open: impl Fn(usize) -> u64,
        draw: impl FnOnce(usize) -> usize,
    ) -> Option<usize> {
        if capable.is_empty() {
            return None;
        }
        let nodes = capable.iter().copied();
        match self {
            SwarmStrategy::Spread => nodes.min_by_key(|&i| (open(i), i)),
            // Tightest fit by free memory, preferring nodes that can
            // serve the requirement *now*.
            SwarmStrategy::BinPack => nodes
                .clone()
                .filter(|&i| free(i) >= need(i).as_u64())
                .min_by_key(|&i| (free(i), i))
                .or_else(|| nodes.min_by_key(|&i| (free(i), i))),
            SwarmStrategy::Random => Some(capable[draw(capable.len())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convgpu_sim_core::rng::DetRng;

    /// `select` over a fixed view: `free` and `open` per node, one
    /// requirement for all, and a draw that must not be consulted.
    fn pick(strategy: SwarmStrategy, capable: &[usize], free: &[u64], open: &[u64]) -> usize {
        strategy
            .select(
                capable,
                |_| Bytes::gib(1),
                |i| free[i],
                |i| open[i],
                |_| unreachable!("only Random draws"),
            )
            .expect("a capable node")
    }

    #[test]
    fn spread_balances_container_counts() {
        // Placing nine containers one by one, each on the pick, spreads
        // them evenly over three nodes.
        let mut open = [0u64; 3];
        for _ in 0..9 {
            let node = pick(SwarmStrategy::Spread, &[0, 1, 2], &[0; 3], &open);
            open[node] += 1;
        }
        assert_eq!(open, [3, 3, 3], "spread must balance counts");
        // Fewest open wins whatever the memory says; ties go low.
        let free = [10 << 30, 1, 10 << 30];
        assert_eq!(
            pick(SwarmStrategy::Spread, &[0, 1, 2], &free, &[2, 1, 1]),
            1
        );
    }

    #[test]
    fn binpack_fills_tightest_node_first() {
        let gib = 1u64 << 30;
        // node 0 has 5 GiB free (tightest), node 1 10 GiB, node 2 16 GiB.
        let free = [5 * gib, 10 * gib, 16 * gib];
        assert_eq!(pick(SwarmStrategy::BinPack, &[0, 1, 2], &free, &[0; 3]), 0);
        // A node that cannot serve the requirement now is passed over…
        let free = [gib / 2, 10 * gib, 16 * gib];
        assert_eq!(pick(SwarmStrategy::BinPack, &[0, 1, 2], &free, &[0; 3]), 1);
        // …unless none can: then the least free of all.
        let free = [gib / 2, gib / 4, gib / 2];
        assert_eq!(pick(SwarmStrategy::BinPack, &[0, 1, 2], &free, &[0; 3]), 1);
    }

    #[test]
    fn random_is_deterministic_and_capable_only() {
        // Node 1 cannot host the container, so it is not in `capable`.
        let picks = |seed| {
            let mut rng = DetRng::seed_from_u64(seed);
            (0..12)
                .map(|_| {
                    let draw = |n| rng.index(n);
                    SwarmStrategy::Random.select(&[0, 2], |_| Bytes::ZERO, |_| 0, |_| 0, draw)
                })
                .collect::<Option<Vec<usize>>>()
                .expect("a capable node")
        };
        assert_eq!(picks(42), picks(42));
        assert!(picks(42).iter().all(|&n| n == 0 || n == 2));
        assert!(picks(42).contains(&0) && picks(42).contains(&2));
    }
}
