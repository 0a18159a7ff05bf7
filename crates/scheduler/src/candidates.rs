//! The redistribution candidate index.
//!
//! When a container exits, [`Scheduler`](crate::core::Scheduler) hands
//! the freed memory to suspended containers one policy pick at a time
//! (§III-D, Fig. 3d), under the lock every wrapper's `cudaMalloc` waits
//! on. [`Candidates`] keeps every open suspended container in the three
//! orders the four policies select by, so a pick is one ordered-set query
//! rather than a scan of every suspended container:
//!
//! * suspension order `(suspended_since, registered_at, id)` — Recent-Use
//!   reads its end, Random indexes into it;
//! * registration order `(registered_at, id)` — FIFO reads its start;
//! * deficit order `(deficit, id)` — Best-Fit's range query.
//!
//! Beside them it keeps the *holders*: suspended containers sitting on
//! reservation they do not use (`assigned > used`), the only ones
//! Best-Fit's reclaim has anything to take back from.
//!
//! The scheduler moves a container's entry at exactly the transitions
//! that change a suspended container's keys — park, give-back, top-up,
//! reclaim, the end of a pending-queue drain, and a free, failed
//! allocation, process exit or close of a suspended container — through
//! [`Candidates::update`]. Running containers have no entry, so the
//! admission fast path never touches the index.

use crate::state::{ContainerRecord, ContainerState};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::BTreeSet;

/// Suspension-order key: `(suspended_since, registered_at, id)`.
pub type SuspendKey = (SimTime, SimTime, ContainerId);

/// One suspended container as the index sees it: its key in every order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// The container.
    pub id: ContainerId,
    /// Registration time (FIFO key).
    pub registered_at: SimTime,
    /// Start of the current suspension episode (RU key).
    pub suspended_since: SimTime,
    /// Memory missing from the full guarantee (BF key).
    pub deficit: Bytes,
    /// Holds reservation it does not use (`assigned > used`).
    pub holds_spare: bool,
}

impl Candidate {
    /// `rec`'s entry: `Some` exactly while it is open and suspended.
    pub fn of(rec: &ContainerRecord) -> Option<Candidate> {
        if rec.state == ContainerState::Closed || !rec.is_suspended() {
            return None;
        }
        Some(Candidate {
            id: rec.id,
            registered_at: rec.registered_at,
            suspended_since: rec.suspended_since?,
            deficit: rec.deficit(),
            holds_spare: rec.assigned > rec.used,
        })
    }
}

/// The open suspended containers, in every order a policy selects by.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Candidates {
    by_suspension: BTreeSet<SuspendKey>,
    by_registration: BTreeSet<(SimTime, ContainerId)>,
    by_deficit: BTreeSet<(Bytes, ContainerId)>,
    holders: BTreeSet<ContainerId>,
}

impl Candidates {
    /// Number of suspended containers.
    pub fn len(&self) -> usize {
        self.by_suspension.len()
    }

    /// True when nothing is suspended.
    pub fn is_empty(&self) -> bool {
        self.by_suspension.is_empty()
    }

    /// Suspension order: `(suspended_since, registered_at, id)`.
    pub fn by_suspension(&self) -> &BTreeSet<SuspendKey> {
        &self.by_suspension
    }

    /// Registration order: `(registered_at, id)`.
    pub fn by_registration(&self) -> &BTreeSet<(SimTime, ContainerId)> {
        &self.by_registration
    }

    /// Deficit order: `(deficit, id)`.
    pub fn by_deficit(&self) -> &BTreeSet<(Bytes, ContainerId)> {
        &self.by_deficit
    }

    /// Move one container's entry from `before` (its keys before the
    /// transition, `None` if it had none) to `after`. Within one
    /// suspension episode only the orders whose key changed are touched,
    /// so an unchanged entry costs a few comparisons.
    pub(crate) fn update(&mut self, before: Option<Candidate>, after: Option<Candidate>) {
        match (before, after) {
            (Some(b), Some(a))
                if (b.id, b.suspended_since, b.registered_at)
                    == (a.id, a.suspended_since, a.registered_at) =>
            {
                if b.deficit != a.deficit {
                    self.by_deficit.remove(&(b.deficit, b.id));
                    self.by_deficit.insert((a.deficit, a.id));
                }
                if a.holds_spare && !b.holds_spare {
                    self.holders.insert(a.id);
                } else if b.holds_spare && !a.holds_spare {
                    self.holders.remove(&a.id);
                }
            }
            (before, after) => {
                if let Some(b) = before {
                    self.remove(&b);
                }
                if let Some(a) = after {
                    self.insert(&a);
                }
            }
        }
    }

    /// Take the holder with the smallest id out of the holder set; the
    /// caller reclaims its spare reservation and then updates its entry.
    pub(crate) fn pop_holder(&mut self) -> Option<ContainerId> {
        self.holders.pop_first()
    }

    fn insert(&mut self, c: &Candidate) {
        self.by_suspension
            .insert((c.suspended_since, c.registered_at, c.id));
        self.by_registration.insert((c.registered_at, c.id));
        self.by_deficit.insert((c.deficit, c.id));
        if c.holds_spare {
            self.holders.insert(c.id);
        }
    }

    fn remove(&mut self, c: &Candidate) {
        self.by_suspension
            .remove(&(c.suspended_since, c.registered_at, c.id));
        self.by_registration.remove(&(c.registered_at, c.id));
        self.by_deficit.remove(&(c.deficit, c.id));
        self.holders.remove(&c.id);
    }
}

impl FromIterator<Candidate> for Candidates {
    fn from_iter<I: IntoIterator<Item = Candidate>>(iter: I) -> Self {
        let mut index = Candidates::default();
        for c in iter {
            index.insert(&c);
        }
        index
    }
}
