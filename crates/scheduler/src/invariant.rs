//! The scheduler's safety invariants as a typed, shared oracle.
//!
//! [`crate::core::Scheduler::check_invariants`] evaluates every invariant
//! and reports the first violation as an [`InvariantViolation`]. Three
//! consumers share this single oracle:
//!
//! * the bounded model checker in `convgpu-audit`, after every explored
//!   transition;
//! * the property tests in `tests/scheduler_properties.rs`, after every
//!   generated operation;
//! * the live middleware, after every mutating transition, in debug
//!   builds (violations panic — the middleware state is corrupt and must
//!   not keep serving); release builds skip this walk.
//!
//! The invariants (paper §III-D/E):
//!
//! 1. **Memory conservation** — Σ per-container `assigned` equals the
//!    tracked `total_assigned`, and `total_assigned ≤ capacity`, so
//!    `assigned + unassigned pool = capacity` always.
//! 2. **Limit isolation** — no container's charged usage exceeds its
//!    requirement (declared limit + context overhead), and usage never
//!    exceeds the guaranteed (`assigned`) budget.
//! 3. **Accounting consistency** — an open container's charged usage is
//!    exactly its per-pid ledger: for each pid holding an entry, its
//!    context charge, its bytes in flight and its filed allocations; a
//!    closed container holds no memory.
//! 4. **Ticket uniqueness** — every parked request's ticket is unique
//!    across all containers and below the issuance counter. (Promoted from
//!    a `debug_assert!` so the release-mode model checker checks it too.)
//! 5. **Suspension consistency** — a non-closed container is in state
//!    `Suspended` iff it has parked requests, so no wakeup can be lost by
//!    state skew between `pending` and `state`.
//! 6. **Index coherence** — the incrementally maintained aggregates
//!    (`total_used`, the candidate index in all its orders) always agree
//!    with a full recomputation from the record table, so the
//!    O(1)/indexed hot paths can never drift from the ground truth they
//!    replaced.
//! 7. **Suspension implies need** — an open suspended container always
//!    misses part of its requirement: a top-up that completes a guarantee
//!    drains the parked requests at once. So every indexed container is a
//!    candidate, and a policy selects from the index with no filter.

use crate::state::ContainerState;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::units::Bytes;
use std::fmt;

/// A violated scheduler invariant — which one, where, and the numbers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvariantViolation {
    /// Charged usage exceeds the guaranteed budget.
    UsedExceedsAssigned {
        /// Offending container.
        container: ContainerId,
        /// Charged usage.
        used: Bytes,
        /// Guaranteed budget.
        assigned: Bytes,
    },
    /// Guaranteed budget exceeds the container's requirement.
    AssignedExceedsRequirement {
        /// Offending container.
        container: ContainerId,
        /// Guaranteed budget.
        assigned: Bytes,
        /// Requirement (limit + context overhead).
        requirement: Bytes,
    },
    /// Charged usage exceeds the requirement — the isolation the paper
    /// promises co-located containers.
    UsedExceedsRequirement {
        /// Offending container.
        container: ContainerId,
        /// Charged usage.
        used: Bytes,
        /// Requirement (limit + context overhead).
        requirement: Bytes,
    },
    /// Charged usage differs from the per-pid ledger it should sum.
    LedgerMismatch {
        /// Offending container.
        container: ContainerId,
        /// Per pid with an entry: context charge, bytes in flight and
        /// filed allocations, summed.
        booked: Bytes,
        /// Charged usage.
        used: Bytes,
    },
    /// A closed container still holds assigned or used memory.
    ClosedHoldsMemory {
        /// Offending container.
        container: ContainerId,
    },
    /// Per-container assignments no longer sum to the tracked total.
    AssignedSumMismatch {
        /// Sum over containers.
        sum: Bytes,
        /// Tracked `total_assigned`.
        tracked: Bytes,
    },
    /// Total assignment exceeds physical capacity.
    OverCommit {
        /// Tracked total assignment.
        assigned: Bytes,
        /// Device capacity.
        capacity: Bytes,
    },
    /// The same ticket is parked twice (or reused across containers).
    DuplicateTicket {
        /// The reused ticket.
        ticket: u64,
    },
    /// A parked ticket was never issued by the counter.
    TicketFromFuture {
        /// The impossible ticket.
        ticket: u64,
        /// Current issuance counter (next to be handed out).
        next_ticket: u64,
    },
    /// `state` and `pending` disagree about suspension.
    SuspensionStateMismatch {
        /// Offending container.
        container: ContainerId,
        /// Lifecycle state recorded.
        state: ContainerState,
        /// Number of parked requests.
        pending: usize,
    },
    /// Per-container usages no longer sum to the tracked total.
    UsedSumMismatch {
        /// Sum over containers.
        sum: Bytes,
        /// Tracked `total_used`.
        tracked: Bytes,
    },
    /// The candidate index disagrees with the records: an entry without a
    /// matching suspended container, a suspended container missing its
    /// entry, or an entry under stale keys in one of its orders.
    CandidateIndexMismatch {
        /// Entries in the index.
        indexed: usize,
        /// Suspended containers in the record table.
        suspended: usize,
    },
    /// An open container is suspended although its whole requirement is
    /// assigned.
    SuspendedWithoutDeficit {
        /// Offending container.
        container: ContainerId,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::UsedExceedsAssigned {
                container,
                used,
                assigned,
            } => write!(f, "{container}: used {used} > assigned {assigned}"),
            InvariantViolation::AssignedExceedsRequirement {
                container,
                assigned,
                requirement,
            } => write!(
                f,
                "{container}: assigned {assigned} > requirement {requirement}"
            ),
            InvariantViolation::UsedExceedsRequirement {
                container,
                used,
                requirement,
            } => write!(
                f,
                "{container}: used {used} > requirement {requirement} (limit isolation)"
            ),
            InvariantViolation::LedgerMismatch {
                container,
                booked,
                used,
            } => write!(
                f,
                "{container}: used {used} != {booked} booked per pid (context, in flight, filed)"
            ),
            InvariantViolation::ClosedHoldsMemory { container } => {
                write!(f, "{container}: closed but still holds memory")
            }
            InvariantViolation::AssignedSumMismatch { sum, tracked } => {
                write!(f, "assigned sum {sum} != tracked total {tracked}")
            }
            InvariantViolation::OverCommit { assigned, capacity } => {
                write!(f, "over-commit: assigned {assigned} > capacity {capacity}")
            }
            InvariantViolation::DuplicateTicket { ticket } => {
                write!(f, "ticket {ticket} parked more than once")
            }
            InvariantViolation::TicketFromFuture {
                ticket,
                next_ticket,
            } => write!(
                f,
                "parked ticket {ticket} was never issued (next_ticket {next_ticket})"
            ),
            InvariantViolation::SuspensionStateMismatch {
                container,
                state,
                pending,
            } => write!(
                f,
                "{container}: state {state:?} inconsistent with {pending} pending request(s)"
            ),
            InvariantViolation::UsedSumMismatch { sum, tracked } => {
                write!(f, "used sum {sum} != tracked total {tracked}")
            }
            InvariantViolation::CandidateIndexMismatch { indexed, suspended } => {
                write!(
                    f,
                    "candidate index has {indexed} entr(ies) but {suspended} container(s) are suspended, or keys differ"
                )
            }
            InvariantViolation::SuspendedWithoutDeficit { container } => {
                write!(
                    f,
                    "{container}: suspended with its full requirement assigned"
                )
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}
