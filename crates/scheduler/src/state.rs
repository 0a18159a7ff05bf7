//! Per-container scheduler state.
//!
//! One [`ContainerRecord`] per registered container tracks the three byte
//! quantities the whole design revolves around:
//!
//! * **limit** — what the user declared via `--nvidia-memory` (or label or
//!   the 1 GiB default);
//! * **requirement** — `limit` plus the per-process context overhead the
//!   scheduler charges (66 MiB per pid in the paper; we charge it for the
//!   first pid up front, further pids on demand);
//! * **assigned** — the *guaranteed* budget: physical memory reserved for
//!   this container. `Σ assigned ≤ capacity` is the scheduler's safety
//!   invariant, and `used ≤ assigned` is each container's.

use convgpu_ipc::message::ApiKind;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Lifecycle of a container as the scheduler sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerState {
    /// Registered (nvidia-docker announced it); may be running.
    Active,
    /// At least one allocation request is parked.
    Suspended,
    /// Closed (the `convgpu` volume driver reported the unmount from
    /// inside `Engine::stop`); state retained for metrics only.
    Closed,
}

/// One parked allocation request.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingAlloc {
    /// Ticket correlating the eventual resume with the withheld reply.
    pub ticket: u64,
    /// Requesting process.
    pub pid: u64,
    /// Adjusted size requested.
    pub size: Bytes,
    /// Originating API (tracing).
    pub api: ApiKind,
    /// When the request was parked.
    pub since: SimTime,
}

/// Scheduler-side record of one container.
#[derive(Clone, Debug)]
pub struct ContainerRecord {
    /// The container.
    pub id: ContainerId,
    /// Declared GPU memory limit.
    pub limit: Bytes,
    /// `limit` + charged context overhead(s).
    pub requirement: Bytes,
    /// Guaranteed (reserved) physical memory.
    pub assigned: Bytes,
    /// Memory currently charged: live allocations + context overheads +
    /// granted-but-not-yet-reported allocations.
    pub used: Bytes,
    /// Live allocations: device address → (pid, size).
    pub allocations: HashMap<u64, (u64, Bytes)>,
    /// One entry per pid that holds a context charge: the bytes granted to
    /// it and not yet reported by `alloc_done` or `alloc_failed`. A report
    /// may move or release at most its pid's entry, and the pid's exit
    /// drops the entry with its context charge.
    pub in_flight: BTreeMap<u64, Bytes>,
    /// Parked allocation requests, FIFO. A deque so the hot drain path
    /// pops the head in O(1) instead of shifting the whole queue.
    pub pending: VecDeque<PendingAlloc>,
    /// Registration time (FIFO policy key).
    pub registered_at: SimTime,
    /// Most recent suspension start (Recent-Use policy key); meaningful
    /// while suspended.
    pub suspended_since: Option<SimTime>,
    /// Lifecycle state.
    pub state: ContainerState,
    /// Accumulated time with at least one parked request.
    pub total_suspended: SimDuration,
    /// Number of suspension episodes.
    pub suspend_episodes: u64,
    /// Grants issued to this container.
    pub granted_allocs: u64,
    /// Requests rejected (over limit).
    pub rejected_allocs: u64,
    /// Close time, once closed.
    pub closed_at: Option<SimTime>,
}

impl ContainerRecord {
    /// Fresh record at registration.
    pub fn new(id: ContainerId, limit: Bytes, requirement: Bytes, now: SimTime) -> Self {
        ContainerRecord {
            id,
            limit,
            requirement,
            assigned: Bytes::ZERO,
            used: Bytes::ZERO,
            allocations: HashMap::new(),
            in_flight: BTreeMap::new(),
            pending: VecDeque::new(),
            registered_at: now,
            suspended_since: None,
            state: ContainerState::Active,
            total_suspended: SimDuration::ZERO,
            suspend_episodes: 0,
            granted_allocs: 0,
            rejected_allocs: 0,
            closed_at: None,
        }
    }

    /// Memory still missing from the full guarantee.
    pub fn deficit(&self) -> Bytes {
        self.requirement.saturating_sub(self.assigned)
    }

    /// True when the full requirement is guaranteed.
    pub fn fully_guaranteed(&self) -> bool {
        self.assigned >= self.requirement
    }

    /// True when at least one request is parked.
    pub fn is_suspended(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Begin a suspension episode (idempotent while already suspended).
    pub fn note_suspend(&mut self, now: SimTime) {
        if self.suspended_since.is_none() {
            self.suspended_since = Some(now);
            self.suspend_episodes += 1;
            self.state = ContainerState::Suspended;
        }
    }

    /// End the suspension episode, folding its duration into the total.
    /// Returns the episode's duration (None when not suspended) so the
    /// caller can feed the per-container suspension histogram.
    pub fn note_resume(&mut self, now: SimTime) -> Option<SimDuration> {
        if let Some(since) = self.suspended_since.take() {
            let episode = now.saturating_since(since);
            self.total_suspended += episode;
            if self.state == ContainerState::Suspended {
                self.state = ContainerState::Active;
            }
            Some(episode)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> ContainerRecord {
        ContainerRecord::new(
            ContainerId(1),
            Bytes::mib(512),
            Bytes::mib(578),
            SimTime::from_secs(10),
        )
    }

    #[test]
    fn deficit_and_guarantee() {
        let mut r = record();
        assert_eq!(r.deficit(), Bytes::mib(578));
        assert!(!r.fully_guaranteed());
        r.assigned = Bytes::mib(578);
        assert_eq!(r.deficit(), Bytes::ZERO);
        assert!(r.fully_guaranteed());
        r.assigned = Bytes::mib(600);
        assert_eq!(r.deficit(), Bytes::ZERO, "over-assignment clamps");
    }

    #[test]
    fn suspension_accounting() {
        let mut r = record();
        r.note_suspend(SimTime::from_secs(100));
        assert_eq!(r.state, ContainerState::Suspended);
        assert_eq!(r.suspend_episodes, 1);
        // A second suspend while already suspended does not double-count.
        r.note_suspend(SimTime::from_secs(110));
        assert_eq!(r.suspend_episodes, 1);
        assert_eq!(r.suspended_since, Some(SimTime::from_secs(100)));
        r.note_resume(SimTime::from_secs(130));
        assert_eq!(r.total_suspended, SimDuration::from_secs(30));
        assert_eq!(r.state, ContainerState::Active);
        // Resume while not suspended is a no-op.
        r.note_resume(SimTime::from_secs(140));
        assert_eq!(r.total_suspended, SimDuration::from_secs(30));
    }

    #[test]
    fn multiple_episodes_accumulate() {
        let mut r = record();
        r.note_suspend(SimTime::from_secs(10));
        r.note_resume(SimTime::from_secs(15));
        r.note_suspend(SimTime::from_secs(20));
        r.note_resume(SimTime::from_secs(30));
        assert_eq!(r.total_suspended, SimDuration::from_secs(15));
        assert_eq!(r.suspend_episodes, 2);
    }
}
