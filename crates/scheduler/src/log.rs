//! The scheduler decision log.
//!
//! A bounded ring of timestamped decisions — what a production operator
//! of this middleware would tail to answer "why is container X stuck?".
//! Every admission verdict, top-up, resume and release is recorded; the
//! examples print it and the tests use it to assert *why* something
//! happened, not just that it did.

use convgpu_ipc::message::AllocDecision;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::VecDeque;
use std::fmt;

/// One logged decision.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Container registered with its limit; `assigned` reserved at once.
    Registered {
        /// The container.
        id: ContainerId,
        /// Declared limit.
        limit: Bytes,
        /// Reservation made at registration.
        assigned: Bytes,
    },
    /// Allocation granted immediately.
    Granted {
        /// The container.
        id: ContainerId,
        /// Requesting process.
        pid: u64,
        /// Charged size (incl. any context overhead).
        charged: Bytes,
    },
    /// Allocation rejected (over the declared limit).
    Rejected {
        /// The container.
        id: ContainerId,
        /// Requesting process.
        pid: u64,
        /// Requested size.
        size: Bytes,
    },
    /// Allocation parked.
    Suspended {
        /// The container.
        id: ContainerId,
        /// Correlation ticket.
        ticket: u64,
        /// Requested size.
        size: Bytes,
    },
    /// Memory assigned to a suspended container by redistribution.
    ToppedUp {
        /// The receiving container.
        id: ContainerId,
        /// Amount added to its reservation.
        amount: Bytes,
        /// Remaining deficit after the top-up.
        deficit: Bytes,
    },
    /// A parked request answered.
    Resumed {
        /// The container.
        id: ContainerId,
        /// Correlation ticket.
        ticket: u64,
        /// The delivered verdict.
        decision: AllocDecision,
    },
    /// Container closed; its reservation released.
    Closed {
        /// The container.
        id: ContainerId,
        /// Reservation returned to the pool.
        released: Bytes,
    },
    /// A process exited; its memory reclaimed.
    ProcessExited {
        /// The container.
        id: ContainerId,
        /// The exiting process.
        pid: u64,
        /// Bytes reclaimed (allocations + context charge).
        reclaimed: Bytes,
    },
}

impl Decision {
    /// Stable kind label: the `kind` label of the scheduler's decision
    /// counter and the trace event name.
    pub fn kind(&self) -> &'static str {
        match self {
            Decision::Registered { .. } => "registered",
            Decision::Granted { .. } => "granted",
            Decision::Rejected { .. } => "rejected",
            Decision::Suspended { .. } => "suspended",
            Decision::ToppedUp { .. } => "topped_up",
            Decision::Resumed { .. } => "resumed",
            Decision::Closed { .. } => "closed",
            Decision::ProcessExited { .. } => "process_exited",
        }
    }

    /// The container the decision concerns.
    pub fn container(&self) -> ContainerId {
        match self {
            Decision::Registered { id, .. }
            | Decision::Granted { id, .. }
            | Decision::Rejected { id, .. }
            | Decision::Suspended { id, .. }
            | Decision::ToppedUp { id, .. }
            | Decision::Resumed { id, .. }
            | Decision::Closed { id, .. }
            | Decision::ProcessExited { id, .. } => *id,
        }
    }
}

/// A timestamped log entry.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// When the decision was made.
    pub at: SimTime,
    /// The decision.
    pub decision: Decision,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.at)?;
        match &self.decision {
            Decision::Registered {
                id,
                limit,
                assigned,
            } => {
                write!(f, "{id} registered limit={limit} assigned={assigned}")
            }
            Decision::Granted { id, pid, charged } => {
                write!(f, "{id} pid={pid} GRANTED {charged}")
            }
            Decision::Rejected { id, pid, size } => {
                write!(f, "{id} pid={pid} REJECTED {size} (over limit)")
            }
            Decision::Suspended { id, ticket, size } => {
                write!(f, "{id} SUSPENDED ticket={ticket} size={size}")
            }
            Decision::ToppedUp {
                id,
                amount,
                deficit,
            } => {
                write!(f, "{id} topped up +{amount} (deficit now {deficit})")
            }
            Decision::Resumed {
                id,
                ticket,
                decision,
            } => {
                write!(f, "{id} RESUMED ticket={ticket} -> {decision:?}")
            }
            Decision::Closed { id, released } => {
                write!(f, "{id} closed, released {released}")
            }
            Decision::ProcessExited { id, pid, reclaimed } => {
                write!(f, "{id} pid={pid} exited, reclaimed {reclaimed}")
            }
        }
    }
}

/// Bounded decision ring.
#[derive(Clone, Debug)]
pub struct DecisionLog {
    entries: VecDeque<LogEntry>,
    capacity: usize,
    dropped: u64,
}

impl DecisionLog {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A log holding up to `capacity` entries (older entries drop).
    pub fn with_capacity(capacity: usize) -> Self {
        DecisionLog {
            entries: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            dropped: 0,
        }
    }

    /// Record a decision at `at`.
    pub fn push(&mut self, at: SimTime, decision: Decision) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(LogEntry { at, decision });
    }

    /// Entries currently retained, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Entries concerning one container.
    pub fn for_container(&self, id: ContainerId) -> Vec<&LogEntry> {
        self.entries
            .iter()
            .filter(|e| e.decision.container() == id)
            .collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted (or refused) so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for DecisionLog {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u64) -> Decision {
        Decision::Granted {
            id: ContainerId(i),
            pid: 1,
            charged: Bytes::mib(i),
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut log = DecisionLog::with_capacity(3);
        for i in 1..=5 {
            log.push(SimTime::from_secs(i), entry(i));
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 2);
        let first = log.entries().next().unwrap();
        assert_eq!(first.at, SimTime::from_secs(3), "oldest two evicted");
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut log = DecisionLog::with_capacity(0);
        log.push(SimTime::ZERO, entry(1));
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 1);
    }

    #[test]
    fn for_container_filters() {
        let mut log = DecisionLog::default();
        log.push(SimTime::from_secs(1), entry(1));
        log.push(SimTime::from_secs(2), entry(2));
        log.push(
            SimTime::from_secs(3),
            Decision::Closed {
                id: ContainerId(1),
                released: Bytes::mib(10),
            },
        );
        assert_eq!(log.for_container(ContainerId(1)).len(), 2);
        assert_eq!(log.for_container(ContainerId(2)).len(), 1);
        assert_eq!(log.for_container(ContainerId(9)).len(), 0);
    }

    #[test]
    fn display_is_readable() {
        let e = LogEntry {
            at: SimTime::from_secs(12),
            decision: Decision::Suspended {
                id: ContainerId(3),
                ticket: 7,
                size: Bytes::mib(512),
            },
        };
        let s = e.to_string();
        assert!(s.contains("cnt-0003"), "{s}");
        assert!(s.contains("SUSPENDED"), "{s}");
        assert!(s.contains("512MiB"), "{s}");
    }
}
