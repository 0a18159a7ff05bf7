//! The four scheduling algorithms of §III-D.
//!
//! When a container exits, the scheduler repeatedly asks the policy which
//! suspended container should receive the released memory next. The policy
//! only *selects*; the scheduler does the topping-up ("assigns available
//! memory to the container until the assigned memory reaches the required
//! memory size"). Selection repeats until memory or candidates run out.
//!
//! A policy selects from the scheduler's [`Candidates`] index, which keeps
//! every open suspended container in registration, suspension and deficit
//! order, so each pick below is one ordered-set query — never a scan of
//! the suspended containers:
//!
//! * **FIFO** — oldest `registered_at` first (the first entry by
//!   registration; ties by smallest id).
//! * **Best-Fit (BF)** — the container "whose insufficient memory is
//!   closest, but not exceed to the remaining memory. If there is no such
//!   container, it chooses the container which has the least insufficient
//!   memory." Maximizes the number of full guarantees per release, which
//!   is why the paper finds it fastest overall (Fig. 7) at the price of
//!   longer individual waits under heavy load (Fig. 8). Two range queries
//!   on the deficit order; ties by smallest id.
//! * **Recent-Use (RU)** — the most recently suspended container first
//!   (the latest `suspended_since`; ties by smallest id).
//! * **Random (Rand)** — uniform over suspended containers: the
//!   `rng.index(len)`-th entry in suspension order.

use crate::candidates::Candidates;
use crate::core::SchedObs;
use convgpu_obs::catalogue::SCHED_POLICY_DECISIONS;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::rng::DetRng;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;

/// A container-selection policy.
pub trait Policy: Send {
    /// Human-readable policy name (table headers).
    fn name(&self) -> &'static str;

    /// Whether a selected container stays the top-up target across
    /// release events until fully guaranteed ("assigns available memory
    /// to the container until the assigned memory reaches the required
    /// memory size", §III-D). Best-Fit re-selects on every release
    /// instead — the behaviour behind the paper's observation that BF
    /// can starve mismatched containers (Fig. 8 discussion).
    fn sticky(&self) -> bool {
        true
    }

    /// Choose the next suspended container to top up, given `remaining`
    /// unassigned memory. `candidates` is the scheduler's live index of
    /// every open suspended container (each misses part of its
    /// requirement); it is non-empty and `remaining` non-zero when called.
    /// A policy answers with a query on one of the index's orders, not a
    /// walk over it. Returning `None` stops redistribution early (no
    /// built-in policy does).
    fn select(&mut self, candidates: &Candidates, remaining: Bytes) -> Option<ContainerId>;

    /// Clone into a fresh boxed policy, preserving internal state (the
    /// Random policy's RNG). This is what makes [`Scheduler`] cloneable,
    /// which the bounded model checker relies on to branch over event
    /// interleavings.
    ///
    /// [`Scheduler`]: crate::core::Scheduler
    fn clone_box(&self) -> Box<dyn Policy>;

    /// Fingerprint of any internal mutable state. Stateless policies
    /// return 0; the Random policy folds its RNG state in. The model
    /// checker includes this in the canonical state so it never merges
    /// two states whose policies would decide differently later.
    fn fingerprint(&self) -> u64 {
        0
    }
}

impl Clone for Box<dyn Policy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// First-in, first-out: the oldest *created* container.
#[derive(Clone, Debug, Default)]
pub struct FifoPolicy;

impl Policy for FifoPolicy {
    fn name(&self) -> &'static str {
        "FIFO"
    }

    fn select(&mut self, candidates: &Candidates, _remaining: Bytes) -> Option<ContainerId> {
        candidates.by_registration().first().map(|&(_, id)| id)
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// Best-Fit: largest deficit that still fits the remaining memory;
/// otherwise the smallest deficit overall.
#[derive(Clone, Debug, Default)]
pub struct BestFitPolicy;

impl Policy for BestFitPolicy {
    fn name(&self) -> &'static str {
        "BF"
    }

    fn sticky(&self) -> bool {
        false
    }

    fn select(&mut self, candidates: &Candidates, remaining: Bytes) -> Option<ContainerId> {
        let by_deficit = candidates.by_deficit();
        // "closest, but not exceed": the largest fitting deficit, then the
        // smallest id carrying it.
        let fitting = by_deficit
            .range(..=(remaining, ContainerId(u64::MAX)))
            .next_back();
        let least = match fitting {
            Some(&(deficit, _)) => by_deficit.range((deficit, ContainerId(0))..).next(),
            None => by_deficit.first(),
        };
        least.map(|&(_, id)| id)
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// Recent-Use: the container suspended most recently.
#[derive(Clone, Debug, Default)]
pub struct RecentUsePolicy;

impl Policy for RecentUsePolicy {
    fn name(&self) -> &'static str {
        "RU"
    }

    fn select(&mut self, candidates: &Candidates, _remaining: Bytes) -> Option<ContainerId> {
        let by_suspension = candidates.by_suspension();
        let &(latest, _, _) = by_suspension.last()?;
        // Suspension order breaks ties by registration; RU breaks them by
        // id, so read every entry of the latest episode start.
        by_suspension
            .range((latest, SimTime::ZERO, ContainerId(0))..)
            .map(|&(_, _, id)| id)
            .min()
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }
}

/// Random: uniform over suspended containers, deterministic under a seed.
#[derive(Clone, Debug)]
pub struct RandomPolicy {
    rng: DetRng,
}

impl RandomPolicy {
    /// Seeded random policy.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: DetRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> &'static str {
        "Rand"
    }

    fn select(&mut self, candidates: &Candidates, _remaining: Bytes) -> Option<ContainerId> {
        if candidates.is_empty() {
            return None;
        }
        let k = self.rng.index(candidates.len());
        candidates
            .by_suspension()
            .iter()
            .nth(k)
            .map(|&(_, _, id)| id)
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(self.clone())
    }

    fn fingerprint(&self) -> u64 {
        self.rng.state_fingerprint()
    }
}

/// Record one redistribution selection: [`SCHED_POLICY_DECISIONS`] counts
/// how often each policy picked a candidate (`selected`) vs. declined
/// (`none`). The scheduler calls this once per [`Policy::select`]
/// invocation. Inlined into that caller, `Scheduler::redistribute`: left
/// out of line, it shifted the release loop's code enough to cost
/// `sched_contended`'s Best-Fit releases about a third
/// (docs/PERFORMANCE.md, "`sched_contended` and code layout").
#[inline]
pub fn record_selection(obs: &SchedObs, policy: &'static str, selected: bool) {
    let outcome = if selected { "selected" } else { "none" };
    let labels = obs.scoped(&[("policy", policy), ("outcome", outcome)]);
    obs.registry.inc(SCHED_POLICY_DECISIONS, &labels, 1);
}

/// Policy selector used by configuration, traces and the bench harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-in, first-out.
    Fifo,
    /// Best-Fit.
    BestFit,
    /// Recent-Use.
    RecentUse,
    /// Random (seeded).
    Random,
}

impl PolicyKind {
    /// All four, in the paper's table order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Fifo,
        PolicyKind::BestFit,
        PolicyKind::RecentUse,
        PolicyKind::Random,
    ];

    /// Instantiate the policy; `seed` only matters for `Random`.
    pub fn build(self, seed: u64) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::BestFit => Box::new(BestFitPolicy),
            PolicyKind::RecentUse => Box::new(RecentUsePolicy),
            PolicyKind::Random => Box::new(RandomPolicy::new(seed)),
        }
    }

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::BestFit => "BF",
            PolicyKind::RecentUse => "RU",
            PolicyKind::Random => "Rand",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::Candidate;

    fn cand(id: u64, reg: u64, susp: u64, deficit_mib: u64) -> Candidate {
        Candidate {
            id: ContainerId(id),
            registered_at: SimTime::from_secs(reg),
            suspended_since: SimTime::from_secs(susp),
            deficit: Bytes::mib(deficit_mib),
            holds_spare: false,
        }
    }

    fn index(cands: &[Candidate]) -> Candidates {
        cands.iter().copied().collect()
    }

    #[test]
    fn fifo_picks_oldest_registration() {
        let mut p = FifoPolicy;
        let cands = index(&[
            cand(1, 30, 5, 100),
            cand(2, 10, 50, 100),
            cand(3, 20, 1, 100),
        ]);
        assert_eq!(p.select(&cands, Bytes::mib(50)), Some(ContainerId(2)));
    }

    #[test]
    fn fifo_ties_break_by_id() {
        let mut p = FifoPolicy;
        let cands = index(&[cand(5, 10, 0, 1), cand(2, 10, 0, 1)]);
        assert_eq!(p.select(&cands, Bytes::mib(50)), Some(ContainerId(2)));
    }

    #[test]
    fn best_fit_prefers_largest_fitting_deficit() {
        let mut p = BestFitPolicy;
        let cands = index(&[cand(1, 0, 0, 100), cand(2, 0, 0, 300), cand(3, 0, 0, 500)]);
        // 350 MiB remaining: 300 fits best (closest without exceeding).
        assert_eq!(p.select(&cands, Bytes::mib(350)), Some(ContainerId(2)));
        // Exactly 500 remaining: 500 fits.
        assert_eq!(p.select(&cands, Bytes::mib(500)), Some(ContainerId(3)));
    }

    #[test]
    fn best_fit_falls_back_to_least_deficit() {
        let mut p = BestFitPolicy;
        let cands = index(&[cand(1, 0, 0, 800), cand(2, 0, 0, 600)]);
        // Nothing fits in 100 MiB → least insufficient (600).
        assert_eq!(p.select(&cands, Bytes::mib(100)), Some(ContainerId(2)));
    }

    #[test]
    fn best_fit_ties_break_by_id() {
        let mut p = BestFitPolicy;
        let cands = index(&[
            cand(7, 0, 0, 300),
            cand(4, 0, 0, 300),
            cand(9, 0, 0, 600),
            cand(8, 0, 0, 600),
        ]);
        assert_eq!(p.select(&cands, Bytes::mib(400)), Some(ContainerId(4)));
        assert_eq!(p.select(&cands, Bytes::mib(100)), Some(ContainerId(4)));
        assert_eq!(p.select(&cands, Bytes::mib(700)), Some(ContainerId(8)));
    }

    #[test]
    fn recent_use_picks_latest_suspension() {
        let mut p = RecentUsePolicy;
        let cands = index(&[cand(1, 0, 10, 1), cand(2, 0, 99, 1), cand(3, 0, 50, 1)]);
        assert_eq!(p.select(&cands, Bytes::mib(1)), Some(ContainerId(2)));
    }

    #[test]
    fn recent_use_ties_break_by_id_not_registration() {
        let mut p = RecentUsePolicy;
        // Suspension order puts 6 (registered first) ahead of 3.
        let cands = index(&[cand(6, 1, 99, 1), cand(3, 2, 99, 1), cand(1, 0, 10, 1)]);
        assert_eq!(p.select(&cands, Bytes::mib(1)), Some(ContainerId(3)));
    }

    #[test]
    fn random_is_deterministic_under_seed_and_in_range() {
        let cands = index(&[cand(1, 0, 0, 1), cand(2, 0, 0, 1), cand(3, 0, 0, 1)]);
        let picks1: Vec<_> = {
            let mut p = RandomPolicy::new(42);
            (0..20)
                .map(|_| p.select(&cands, Bytes::mib(1)).unwrap())
                .collect()
        };
        let picks2: Vec<_> = {
            let mut p = RandomPolicy::new(42);
            (0..20)
                .map(|_| p.select(&cands, Bytes::mib(1)).unwrap())
                .collect()
        };
        assert_eq!(picks1, picks2);
        assert!(picks1.iter().all(|c| (1..=3).contains(&c.as_u64())));
        // All three candidates appear over 20 draws w.h.p.
        for id in 1..=3 {
            assert!(picks1.contains(&ContainerId(id)), "missing {id}");
        }
    }

    /// The slice bodies the index queries replaced, kept only as the
    /// reference `indexed_select_matches_the_scan` checks against. Random
    /// expects its slice in suspension order, as the old scan built it.
    mod scan {
        use super::*;
        use std::cmp::Reverse;

        pub fn fifo(c: &[Candidate]) -> Option<ContainerId> {
            c.iter()
                .min_by_key(|c| (c.registered_at, c.id))
                .map(|c| c.id)
        }

        pub fn best_fit(c: &[Candidate], remaining: Bytes) -> Option<ContainerId> {
            let fitting = c
                .iter()
                .filter(|c| c.deficit <= remaining)
                .max_by_key(|c| (c.deficit, Reverse(c.id)));
            match fitting {
                Some(c) => Some(c.id),
                None => c.iter().min_by_key(|c| (c.deficit, c.id)).map(|c| c.id),
            }
        }

        pub fn recent_use(c: &[Candidate]) -> Option<ContainerId> {
            c.iter()
                .max_by_key(|c| (c.suspended_since, Reverse(c.id)))
                .map(|c| c.id)
        }

        pub fn random(rng: &mut DetRng, c: &[Candidate]) -> Option<ContainerId> {
            if c.is_empty() {
                return None;
            }
            Some(rng.choose(c).id)
        }
    }

    /// A candidate with few distinct values per key, so ties are common.
    fn arbitrary(rng: &mut DetRng, id: u64) -> Candidate {
        Candidate {
            id: ContainerId(id),
            registered_at: SimTime::from_secs(rng.next_below(4)),
            suspended_since: SimTime::from_secs(rng.next_below(4)),
            deficit: Bytes::mib(64 * rng.range_inclusive(1, 6)),
            holds_spare: rng.next_below(2) == 0,
        }
    }

    /// Every policy's index query picks what its old slice scan picked:
    /// seeded candidate sets with forced registration, suspension and
    /// deficit ties, random `remaining` (exact fits, misses and nothing
    /// fitting), and the index moved between picks by the same `update`
    /// calls the scheduler makes.
    #[test]
    fn indexed_select_matches_the_scan() {
        let mut rng = DetRng::seed_from_u64(0x1DE5);
        for case in 0..2000 {
            let mut ids: Vec<u64> = (1..=96).collect();
            rng.shuffle(&mut ids);
            let n = rng.range_inclusive(1, 48) as usize;
            let mut unused = ids.split_off(n);
            let mut set: Vec<Candidate> = ids.iter().map(|&id| arbitrary(&mut rng, id)).collect();
            let mut idx = index(&set);
            let seed = rng.next_u64();
            let (mut rand, mut rand_scan) = (RandomPolicy::new(seed), DetRng::seed_from_u64(seed));
            for step in 0..8 {
                set.sort_by_key(|c| (c.suspended_since, c.registered_at, c.id));
                let remaining = Bytes::mib(32 * rng.range_inclusive(1, 14));
                let at = format!("case {case} step {step}, {remaining} left");
                assert_eq!(
                    FifoPolicy.select(&idx, remaining),
                    scan::fifo(&set),
                    "FIFO, {at}"
                );
                assert_eq!(
                    BestFitPolicy.select(&idx, remaining),
                    scan::best_fit(&set, remaining),
                    "BF, {at}"
                );
                assert_eq!(
                    RecentUsePolicy.select(&idx, remaining),
                    scan::recent_use(&set),
                    "RU, {at}"
                );
                assert_eq!(
                    rand.select(&idx, remaining),
                    scan::random(&mut rand_scan, &set),
                    "Rand, {at}"
                );
                assert_eq!(rand.fingerprint(), rand_scan.state_fingerprint());
                // One scheduler-shaped transition on a random entry.
                let i = rng.index(set.len());
                let before = set[i];
                let after = match rng.next_below(4) {
                    // Top-up, give-back or reclaim: deficit and spare move.
                    0 => Some(Candidate {
                        deficit: Bytes::mib(64 * rng.range_inclusive(1, 6)),
                        holds_spare: rng.next_below(2) == 0,
                        ..before
                    }),
                    // Resume.
                    1 if set.len() > 1 => None,
                    // Resume and park again in the same transition.
                    2 => Some(Candidate {
                        registered_at: before.registered_at,
                        ..arbitrary(&mut rng, before.id.as_u64())
                    }),
                    // Another container parks; this one is untouched.
                    _ => {
                        let fresh = arbitrary(&mut rng, unused.pop().expect("ids to spare"));
                        idx.update(None, Some(fresh));
                        set.push(fresh);
                        Some(before)
                    }
                };
                idx.update(Some(before), after);
                match after {
                    Some(a) => set[i] = a,
                    None => {
                        set.remove(i);
                    }
                }
                assert_eq!(idx, index(&set), "index drifted, {at}");
            }
        }
    }

    #[test]
    fn kind_builds_matching_policy() {
        for kind in PolicyKind::ALL {
            let p = kind.build(1);
            assert_eq!(p.name(), kind.label());
        }
    }

    #[test]
    fn only_best_fit_reselects() {
        assert!(FifoPolicy.sticky());
        assert!(!BestFitPolicy.sticky());
        assert!(RecentUsePolicy.sticky());
        assert!(RandomPolicy::new(0).sticky());
    }
}
