//! The scheduler state machine.
//!
//! Faithful to §III-D/E of the paper:
//!
//! * **Register** — nvidia-docker declares a container and its limit
//!   before creation; the scheduler reserves (`assigns`) as much of the
//!   container's requirement as is currently unassigned (Fig. 3b).
//! * **Allocation admission** — a request is **rejected** when it would
//!   push the container past its declared limit; **granted** when it fits
//!   the assigned budget (topping the budget up from the unassigned pool
//!   first if possible); otherwise **suspended** — the reply is withheld
//!   (Fig. 3c).
//! * **Release & redistribution** — when a container closes, its
//!   assignment returns to the pool and the configured policy repeatedly
//!   selects a suspended container to top up "until the assigned memory
//!   reaches the required memory size" (Fig. 3d). Under the paper's
//!   full-guarantee rule a suspended container resumes only once its whole
//!   requirement is assigned; partially topped-up containers (Container D)
//!   keep their reservation but stay suspended.
//! * **Context overhead** — the first allocation from each pid charges an
//!   extra 66 MiB ("CUDA uses 64 MiB … and 2 MiB"), so a container's
//!   effective requirement is `limit + 66 MiB`.
//! * **Cleanup** — `ProcessExit` (from `__cudaUnregisterFatBinary`) drops
//!   a pid's allocations even if the program leaked them; `ContainerClose`
//!   (from the volume-unmount signal) drops everything.

use crate::candidates::{Candidate, Candidates};
use crate::invariant::InvariantViolation;
use crate::log::{Decision, DecisionLog};
use crate::policy::Policy;
use crate::state::{ContainerRecord, ContainerState, PendingAlloc, ResumeRule};
use crate::timeline::UtilizationTimeline;
use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_obs::catalogue::{
    SCHED_ASSIGNED, SCHED_CONTAINER_ASSIGNED, SCHED_CONTAINER_SUSPENDED_SECONDS,
    SCHED_CONTAINER_SUSPEND_EPISODES, SCHED_CONTAINER_USED, SCHED_DECISIONS, SCHED_SUSPEND,
    SCHED_UNASSIGNED,
};
use convgpu_obs::{Registry, SpanRecord, Tracer};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::{SimDuration, SimTime};
use convgpu_sim_core::units::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Physical GPU memory under management.
    pub capacity: Bytes,
    /// Per-pid context overhead charged on first allocation (66 MiB in
    /// the paper).
    pub ctx_overhead: Bytes,
    /// Whether to charge the overhead at all (ablation `ctx_overhead`).
    pub charge_ctx_overhead: bool,
    /// Resume discipline (paper: full guarantee).
    pub resume_rule: ResumeRule,
    /// Limit applied when neither option nor label is present (1 GiB).
    pub default_limit: Bytes,
}

impl SchedulerConfig {
    /// The paper's setup: a 5 GiB Tesla K20m, 66 MiB overhead, full
    /// guarantee, 1 GiB default limit.
    pub fn paper() -> Self {
        SchedulerConfig {
            capacity: Bytes::gib(5),
            ctx_overhead: Bytes::mib(66),
            charge_ctx_overhead: true,
            resume_rule: ResumeRule::FullGuarantee,
            default_limit: Bytes::gib(1),
        }
    }

    /// Same, but for an arbitrary capacity.
    pub fn with_capacity(capacity: Bytes) -> Self {
        SchedulerConfig {
            capacity,
            ..Self::paper()
        }
    }
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Observability attachment for a scheduler: every decision ticks
/// [`SCHED_DECISIONS`] and emits a trace event, every completed suspension
/// episode lands in [`SCHED_SUSPEND`], and each container gets a lifetime
/// span (emitted at close) that parents its events; closing a container
/// retires its container-lifetime series. Both handles are shared
/// (`Arc`), so cloning a scheduler — as the model checker does — shares
/// the sinks rather than forking them; checker runs simply do not attach
/// one.
#[derive(Clone)]
pub struct SchedObs {
    /// Metrics registry receiving the counters, gauges and histograms.
    pub registry: Arc<Registry>,
    /// Tracer receiving per-container spans and decision events.
    pub tracer: Arc<Tracer>,
    /// Device identity for multi-GPU topologies. `None` (the single-GPU
    /// service) emits the exact label sets the exposition always had;
    /// `Some(d)` appends a `device="d"` label to every series and a
    /// `device` attribute to every span ([`SchedObs::scoped`]), so
    /// per-device series coexist in one shared registry.
    pub device: Option<String>,
}

impl SchedObs {
    /// An unlabeled (single-device) attachment.
    pub fn new(registry: Arc<Registry>, tracer: Arc<Tracer>) -> Self {
        SchedObs {
            registry,
            tracer,
            device: None,
        }
    }

    /// The same sinks, labeled as device `device` (used by the multi-GPU
    /// and cluster backends, one label per device scheduler).
    pub fn with_device(&self, device: impl Into<String>) -> Self {
        SchedObs {
            registry: Arc::clone(&self.registry),
            tracer: Arc::clone(&self.tracer),
            device: Some(device.into()),
        }
    }

    /// `base` followed by this scheduler's own labels — `device`, when
    /// scoped: the one path by which a series or span learns which
    /// scheduler wrote it. Unscoped, it is `base` unchanged.
    pub(crate) fn scoped<'a>(&'a self, base: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
        let mut labels = base.to_vec();
        labels.extend(self.device.as_deref().map(|d| ("device", d)));
        labels
    }
}

/// Verdict on an allocation request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    /// Proceed with the real allocation.
    Granted,
    /// Over the container's declared limit.
    Rejected,
    /// Parked; a matching [`ResumeAction`] will carry the eventual
    /// decision. The `ticket` correlates the two.
    Suspended {
        /// Correlation ticket for the withheld reply.
        ticket: u64,
    },
}

/// A previously suspended request whose decision is now available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeAction {
    /// The container whose request resumes.
    pub container: ContainerId,
    /// The requesting process.
    pub pid: u64,
    /// Ticket from the original [`AllocOutcome::Suspended`].
    pub ticket: u64,
    /// The decision to deliver.
    pub decision: AllocDecision,
}

/// Scheduler-level errors (protocol misuse, impossible requests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// Operation referenced a container never registered.
    UnknownContainer(ContainerId),
    /// Register called twice for the same id.
    AlreadyRegistered(ContainerId),
    /// Declared limit (plus overhead) exceeds physical capacity — the
    /// container could never run; refuse at registration, matching the
    /// "Consistency" design goal.
    LimitExceedsCapacity {
        /// The offending container.
        container: ContainerId,
        /// Its effective requirement.
        requirement: Bytes,
        /// Device capacity.
        capacity: Bytes,
    },
    /// Operation on a closed container.
    ContainerClosed(ContainerId),
    /// Malformed message sequence (e.g. duplicate `AllocDone` address).
    ProtocolViolation(String),
    /// A migration hand-off could not be admitted: the container's
    /// pre-committed budget does not fit the device's unassigned pool
    /// right now. Distinct from [`SchedError::LimitExceedsCapacity`] so a
    /// migration driver can fall back to the next placement candidate.
    AdoptionOverCommit {
        /// The container being migrated in.
        container: ContainerId,
        /// Its pre-committed (already used) budget.
        committed: Bytes,
        /// Unassigned memory available on this device.
        unassigned: Bytes,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            SchedError::AlreadyRegistered(c) => write!(f, "container {c} already registered"),
            SchedError::LimitExceedsCapacity {
                container,
                requirement,
                capacity,
            } => write!(
                f,
                "container {container} requires {requirement} but device has {capacity}"
            ),
            SchedError::ContainerClosed(c) => write!(f, "container {c} is closed"),
            SchedError::ProtocolViolation(m) => write!(f, "protocol violation: {m}"),
            SchedError::AdoptionOverCommit {
                container,
                committed,
                unassigned,
            } => write!(
                f,
                "container {container} adoption needs {committed} committed but only {unassigned} is unassigned"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

/// The GPU memory scheduler for one device.
///
/// `Clone` duplicates the complete scheduler state, including the policy's
/// internal RNG — the bounded model checker branches by cloning.
#[derive(Clone)]
pub struct Scheduler {
    cfg: SchedulerConfig,
    policy: Box<dyn Policy>,
    /// Records keyed by container id in an ordered map, so iteration is
    /// deterministic *structurally* — no per-call sort on any path.
    containers: BTreeMap<ContainerId, ContainerRecord>,
    /// The largest id ever registered or adopted. `containers` keeps every
    /// closed record, so it only grows; an id above this mark cannot be in
    /// it, and registering one skips the duplicate check's walk down it.
    max_registered: Option<ContainerId>,
    total_assigned: Bytes,
    /// Σ `used` across all containers, maintained incrementally at every
    /// charge/release so the per-event timeline sample is O(1) instead of
    /// a full-table scan.
    total_used: Bytes,
    /// Every open suspended container, in each order a policy selects by
    /// (see [`Candidates`]). Moved at each transition that changes a
    /// suspended container's keys; `redistribute` hands it to the policy
    /// as is and reclaims from its holder set.
    candidates: Candidates,
    /// Containers mutated since the last gauge publication — the gauge
    /// mirror only rewrites these instead of walking the whole table.
    /// Cleared, never dropped, so its buffer is reused.
    touched: Vec<ContainerId>,
    next_ticket: u64,
    /// The container currently being topped up. Selection is *sticky*:
    /// the paper's policies assign released memory to the selected
    /// container "until the assigned memory reaches the required memory
    /// size", across release events. Without stickiness, policies that
    /// re-select on every release (Recent-Use, Random) scatter partial
    /// reservations over many suspended containers and can strand the
    /// system with every container holding a fragment — the very
    /// hold-and-wait deadlock ConVGPU exists to prevent.
    sticky_target: Option<ContainerId>,
    log: DecisionLog,
    timeline: UtilizationTimeline,
    obs: Option<SchedObs>,
    /// Pre-allocated lifetime span id per container, so decision events
    /// can parent under it before the span itself is emitted at close.
    container_spans: HashMap<ContainerId, u64>,
}

/// `record!(self, now, decision)` — shorthand for `Scheduler::record_parts`
/// that expands to disjoint field borrows in the caller's body, so it stays
/// usable while a container record is mutably borrowed.
macro_rules! record {
    ($sched:ident, $now:expr, $decision:expr) => {
        Scheduler::record_parts(
            &$sched.obs,
            &$sched.container_spans,
            &mut $sched.log,
            $now,
            $decision,
        )
    };
}

impl Scheduler {
    /// Build a scheduler with the given policy.
    pub fn new(cfg: SchedulerConfig, policy: Box<dyn Policy>) -> Self {
        Scheduler {
            cfg,
            policy,
            containers: BTreeMap::new(),
            max_registered: None,
            total_assigned: Bytes::ZERO,
            total_used: Bytes::ZERO,
            candidates: Candidates::default(),
            touched: Vec::new(),
            next_ticket: 1,
            sticky_target: None,
            log: DecisionLog::default(),
            timeline: UtilizationTimeline::new(),
            obs: None,
            container_spans: HashMap::new(),
        }
    }

    /// Attach an observability sink. Purely additive: metrics and spans
    /// are side effects only and never feed back into scheduling.
    pub fn attach_obs(&mut self, obs: SchedObs) {
        self.obs = Some(obs);
    }

    /// The attached observability sink, if any.
    pub fn obs(&self) -> Option<&SchedObs> {
        self.obs.as_ref()
    }

    /// The decision log (bounded ring of recent scheduling decisions).
    pub fn log(&self) -> &DecisionLog {
        &self.log
    }

    /// The utilization timeline (assigned/used after every event).
    pub fn timeline(&self) -> &UtilizationTimeline {
        &self.timeline
    }

    /// Record the current memory state on the timeline. Called by every
    /// public mutating entry point; O(1) — both totals are maintained
    /// incrementally rather than summed over the table.
    fn sample(&mut self, now: SimTime) {
        self.timeline
            .record(now, self.total_assigned, self.total_used);
        self.publish_gauges();
    }

    /// Mirror headline state into gauges so the exposition endpoint can
    /// answer "what is assigned/used/suspended right now" without walking
    /// scheduler state. Per-container gauges are last-write-wins, so only
    /// the open containers dirtied since the previous publication need
    /// rewriting; the `touched` list is emptied here, keeping its buffer
    /// (a transition allocates nothing for it). A closed container's
    /// series were retired at close and are never written again.
    fn publish_gauges(&mut self) {
        let Some(obs) = &self.obs else {
            self.touched.clear();
            return;
        };
        let (reg, pool) = (&obs.registry, obs.scoped(&[]));
        reg.set_gauge(SCHED_ASSIGNED, &pool, self.total_assigned.as_u64() as f64);
        reg.set_gauge(SCHED_UNASSIGNED, &pool, self.unassigned().as_u64() as f64);
        self.touched.sort_unstable();
        self.touched.dedup();
        for &id in &self.touched {
            let Some(rec) = self.containers.get(&id) else {
                continue;
            };
            if rec.state == ContainerState::Closed {
                continue;
            }
            let c = rec.id.to_string();
            let labels = obs.scoped(&[("container", c.as_str())]);
            reg.set_gauge(
                SCHED_CONTAINER_ASSIGNED,
                &labels,
                rec.assigned.as_u64() as f64,
            );
            reg.set_gauge(SCHED_CONTAINER_USED, &labels, rec.used.as_u64() as f64);
            let episodes = rec.suspend_episodes as f64;
            reg.set_gauge(SCHED_CONTAINER_SUSPEND_EPISODES, &labels, episodes);
            let suspended = rec.total_suspended.as_secs_f64();
            reg.set_gauge(SCHED_CONTAINER_SUSPENDED_SECONDS, &labels, suspended);
        }
        self.touched.clear();
    }

    /// Log a decision and mirror it into the attached observability layer:
    /// one [`SCHED_DECISIONS`] tick plus an instant trace event parented
    /// under the container's lifetime span. A free function
    /// over the disjoint fields so call sites holding a `&mut` container
    /// record can still record (field-level borrow splitting).
    fn record_parts(
        obs: &Option<SchedObs>,
        container_spans: &HashMap<ContainerId, u64>,
        log: &mut DecisionLog,
        now: SimTime,
        decision: Decision,
    ) {
        if let Some(o) = obs {
            let kind = decision.kind();
            o.registry
                .inc(SCHED_DECISIONS, &o.scoped(&[("kind", kind)]), 1);
            let id = decision.container();
            let parent = container_spans.get(&id).copied();
            let attrs = o.scoped(&[]);
            let _ = o
                .tracer
                .instant(kind, Some(id.as_u64()), parent, now, &attrs);
        }
        log.push(now, decision);
    }

    /// Emit the span covering one parked request's wait (park → answer),
    /// parented under the container's lifetime span. Associated fn over
    /// disjoint fields for the same borrow-splitting reason as
    /// `record_parts`.
    fn emit_suspend_wait(
        obs: &Option<SchedObs>,
        container_spans: &HashMap<ContainerId, u64>,
        id: ContainerId,
        ticket: u64,
        outcome: &str,
        since: SimTime,
        now: SimTime,
    ) {
        if let Some(o) = obs {
            let parent = container_spans.get(&id).copied();
            let t = ticket.to_string();
            let attrs = o.scoped(&[("ticket", t.as_str()), ("outcome", outcome)]);
            let (container, span) = (Some(id.as_u64()), "suspend_wait");
            let _ = o.tracer.span(span, container, parent, since, now, &attrs);
        }
    }

    /// Feed a completed suspension episode into the per-container
    /// histogram (`_count` = episodes, `_sum` = total suspended time).
    fn observe_suspend_end(obs: &Option<SchedObs>, id: ContainerId, ended: Option<SimDuration>) {
        if let (Some(o), Some(d)) = (obs, ended) {
            let c = id.to_string();
            let labels = o.scoped(&[("container", c.as_str())]);
            o.registry.observe(SCHED_SUSPEND, &labels, d);
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Name of the active policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Memory not reserved for any container.
    pub fn unassigned(&self) -> Bytes {
        self.cfg.capacity.saturating_sub(self.total_assigned)
    }

    /// Total reserved memory (≤ capacity, the safety invariant).
    pub fn total_assigned(&self) -> Bytes {
        self.total_assigned
    }

    /// Read access to a container record.
    pub fn container(&self, id: ContainerId) -> Option<&ContainerRecord> {
        self.containers.get(&id)
    }

    /// Iterate all records in container-id order. Determinism is
    /// structural: the records live in an ordered map, so every consumer
    /// (metrics, deadlock analysis, the model checker) sees the same
    /// sequence with no per-call sort or allocation.
    pub fn containers(&self) -> impl Iterator<Item = &ContainerRecord> {
        self.containers.values()
    }

    /// The container currently locked in as the redistribution target
    /// (sticky policies top it up across release events until fully
    /// guaranteed). Exposed for the model checker's canonical state.
    pub fn sticky_target(&self) -> Option<ContainerId> {
        self.sticky_target
    }

    /// Fingerprint of the policy's internal mutable state (see
    /// [`Policy::fingerprint`]).
    pub fn policy_fingerprint(&self) -> u64 {
        self.policy.fingerprint()
    }

    /// Whether `id` has a record, open or closed. Ids normally arrive in
    /// increasing order, and one above every id seen so far is answered
    /// without a lookup.
    fn is_registered(&self, id: ContainerId) -> bool {
        self.max_registered.is_some_and(|m| id <= m) && self.containers.contains_key(&id)
    }

    /// File a new record and raise the registration mark.
    fn insert_record(&mut self, rec: ContainerRecord) {
        self.max_registered = self.max_registered.max(Some(rec.id));
        self.containers.insert(rec.id, rec);
    }

    fn effective_requirement(&self, limit: Bytes) -> Bytes {
        if self.cfg.charge_ctx_overhead {
            limit + self.cfg.ctx_overhead
        } else {
            limit
        }
    }

    /// nvidia-docker: declare `id` with `limit` before container creation.
    pub fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        if self.is_registered(id) {
            return Err(SchedError::AlreadyRegistered(id));
        }
        let requirement = self.effective_requirement(limit);
        if requirement > self.cfg.capacity {
            return Err(SchedError::LimitExceedsCapacity {
                container: id,
                requirement,
                capacity: self.cfg.capacity,
            });
        }
        let mut rec = ContainerRecord::new(id, limit, requirement, now);
        // Reserve whatever is currently unreserved, up to the requirement
        // (Fig. 3b: partial assignment at creation is normal).
        let take = self.unassigned().min(requirement);
        rec.assigned = take;
        self.total_assigned += take;
        self.insert_record(rec);
        self.touched.push(id);
        // Reserve the lifetime span id up front; the span itself is
        // emitted at close, when its extent is known.
        if let Some(obs) = &self.obs {
            self.container_spans.insert(id, obs.tracer.next_span_id());
        }
        record!(
            self,
            now,
            Decision::Registered {
                id,
                limit,
                assigned: take,
            }
        );
        self.sample(now);
        self.audit_check();
        Ok(())
    }

    /// Migration hand-off: admit a container whose committed budget moves
    /// with it. Unlike [`register`](Self::register), the container arrives
    /// with `used` bytes already charged on its previous home, so that
    /// amount is reserved *and marked used* atomically — it is never
    /// re-raced against concurrent admissions. The adopted container holds
    /// no recorded allocations (they died with, or stayed behind on, the
    /// source); frees of pre-migration addresses report zero, and the
    /// budget is reclaimed at process exit or close.
    pub fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        if self.is_registered(id) {
            return Err(SchedError::AlreadyRegistered(id));
        }
        let requirement = self.effective_requirement(limit);
        if requirement > self.cfg.capacity {
            return Err(SchedError::LimitExceedsCapacity {
                container: id,
                requirement,
                capacity: self.cfg.capacity,
            });
        }
        if used > requirement {
            return Err(SchedError::ProtocolViolation(format!(
                "adopt: committed {used} exceeds effective requirement {requirement}"
            )));
        }
        if used > self.unassigned() {
            return Err(SchedError::AdoptionOverCommit {
                container: id,
                committed: used,
                unassigned: self.unassigned(),
            });
        }
        let mut rec = ContainerRecord::new(id, limit, requirement, now);
        // The committed budget must be fully backed by reservation; beyond
        // it, reserve opportunistically like registration does. Both terms
        // are ≤ unassigned and ≤ requirement, so the invariants
        // used ≤ assigned ≤ requirement and Σ assigned ≤ capacity hold.
        let take = used.max(self.unassigned().min(requirement));
        rec.assigned = take;
        rec.used = used;
        self.total_assigned += take;
        self.total_used += used;
        self.insert_record(rec);
        self.touched.push(id);
        if let Some(obs) = &self.obs {
            self.container_spans.insert(id, obs.tracer.next_span_id());
        }
        record!(
            self,
            now,
            Decision::Adopted {
                id,
                limit,
                assigned: take,
                used,
            }
        );
        self.sample(now);
        self.audit_check();
        Ok(())
    }

    /// Wrapper: permission to allocate. Returns the verdict plus any
    /// resume actions enabled as a side effect (suspending releases the
    /// container's unused reservation back to the pool, which may
    /// complete another suspended container's guarantee). `Suspended`
    /// means the caller must park the reply under the returned ticket;
    /// the side-effect actions never contain that ticket.
    pub fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError> {
        let unassigned = self.cfg.capacity.saturating_sub(self.total_assigned);
        let ctx = self.cfg.ctx_overhead;
        let charge_ctx = self.cfg.charge_ctx_overhead;
        // Single lookup: validate existence and state on the same borrow
        // that serves the decision (the hot path used to pay two).
        let rec = match self.containers.get_mut(&id) {
            None => return Err(SchedError::UnknownContainer(id)),
            Some(r) if r.state == ContainerState::Closed => {
                return Err(SchedError::ContainerClosed(id))
            }
            Some(r) => r,
        };
        if size.is_zero() {
            return Ok((AllocOutcome::Rejected, Vec::new()));
        }
        let need = if charge_ctx && !rec.charged_pids.contains(&pid) {
            size + ctx
        } else {
            size
        };
        // Fast path: a running container whose request fits the budget it
        // already holds grants immediately — no limit check needed
        // (`assigned ≤ requirement` makes the over-limit branch
        // unreachable here), no pool math, no policy machinery.
        if !rec.is_suspended() && rec.used + need <= rec.assigned {
            rec.used += need;
            rec.charged_pids.insert(pid);
            rec.granted_allocs += 1;
            self.total_used += need;
            self.touched.push(id);
            record!(
                self,
                now,
                Decision::Granted {
                    id,
                    pid,
                    charged: need,
                }
            );
            self.sample(now);
            self.audit_check();
            return Ok((AllocOutcome::Granted, Vec::new()));
        }
        // Over the declared limit → reject outright (paper: "rejects if
        // the memory is already exceeded").
        if rec.used + need > rec.requirement {
            rec.rejected_allocs += 1;
            record!(self, now, Decision::Rejected { id, pid, size });
            return Ok((AllocOutcome::Rejected, Vec::new()));
        }
        // Fairness: while earlier requests are parked, later ones park
        // behind them regardless of size.
        let mut was_running = false;
        if !rec.is_suspended() {
            was_running = true;
            // Would exceed the assigned budget: top the budget up from the
            // unassigned pool (Fig. 3b), then re-check.
            let take = unassigned.min(rec.deficit());
            if rec.used + need <= rec.assigned + take {
                rec.assigned += take;
                self.total_assigned += take;
                rec.used += need;
                rec.charged_pids.insert(pid);
                rec.granted_allocs += 1;
                self.total_used += need;
                self.touched.push(id);
                record!(
                    self,
                    now,
                    Decision::Granted {
                        id,
                        pid,
                        charged: need,
                    }
                );
                self.sample(now);
                self.audit_check();
                return Ok((AllocOutcome::Granted, Vec::new()));
            }
        }
        // Suspend (Fig. 3c): the reply is withheld under this ticket.
        let before = Candidate::of(rec);
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        rec.pending.push_back(PendingAlloc {
            ticket,
            pid,
            size,
            api,
            since: now,
        });
        rec.note_suspend(now);
        self.touched.push(id);
        record!(self, now, Decision::Suspended { id, ticket, size });
        // Liveness: a suspended container must not sit on reservation it
        // is not using — scattered partial holds are exactly the
        // hold-and-wait pattern that deadlocks naive sharing. Return the
        // unused part to the pool and let the policy redistribute it
        // (the sticky target accumulates it instead).
        let give_back = if was_running {
            rec.assigned.saturating_sub(rec.used)
        } else {
            Bytes::ZERO
        };
        rec.assigned -= give_back;
        self.total_assigned -= give_back;
        // A fresh park enters the index; a request parking behind earlier
        // ones changes no key.
        self.candidates.update(before, Candidate::of(rec));
        let actions = if give_back.is_zero() {
            Vec::new()
        } else {
            self.redistribute(now)
        };
        // Checked in debug builds and in release-mode `audit` runs; the
        // stronger state-level version (every parked ticket unique) lives
        // in `check_invariants`.
        if cfg!(any(debug_assertions, feature = "audit")) {
            assert!(
                actions.iter().all(|a| a.ticket != ticket),
                "a just-parked request cannot resume from its own give-back"
            );
        }
        self.sample(now);
        self.audit_check();
        Ok((AllocOutcome::Suspended { ticket }, actions))
    }

    /// Wrapper: the granted allocation succeeded on the device at `addr`.
    pub fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        _now: SimTime,
    ) -> Result<(), SchedError> {
        let rec = self.active_mut(id)?;
        if rec.allocations.insert(addr, (pid, size)).is_some() {
            return Err(SchedError::ProtocolViolation(format!(
                "duplicate AllocDone for address 0x{addr:x}"
            )));
        }
        self.audit_check();
        Ok(())
    }

    /// Wrapper: a granted allocation failed on the device (fragmentation).
    /// Releases the reservation made at grant time; the container's own
    /// parked requests may now fit.
    pub fn alloc_failed(
        &mut self,
        id: ContainerId,
        _pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let before = {
            let rec = self.active_mut(id)?;
            let before = Candidate::of(rec);
            let released = rec.used.min(size);
            rec.used -= released;
            self.total_used -= released;
            self.touched.push(id);
            before
        };
        let actions = self.drain_pending(id, before, now, false);
        self.sample(now);
        self.audit_check();
        Ok(actions)
    }

    /// Wrapper: `cudaFree(addr)` completed. Returns the recorded size
    /// (zero for unknown addresses) plus any resumes this release enables
    /// within the container's own assigned budget.
    pub fn free(
        &mut self,
        id: ContainerId,
        _pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        let (freed, before) = {
            let rec = self.active_mut(id)?;
            let before = Candidate::of(rec);
            let freed = match rec.allocations.remove(&addr) {
                Some((_pid, size)) => {
                    let released = rec.used.min(size);
                    rec.used -= released;
                    released
                }
                None => Bytes::ZERO,
            };
            (freed, before)
        };
        let resumes = if freed.is_zero() {
            Vec::new()
        } else {
            self.total_used -= freed;
            self.touched.push(id);
            self.drain_pending(id, before, now, false)
        };
        self.sample(now);
        self.audit_check();
        Ok((freed, resumes))
    }

    /// Wrapper: serve `cudaMemGetInfo` from the books — the container's
    /// virtualized view `(limit - live-usage, limit)`.
    pub fn mem_info(&self, id: ContainerId, _pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        let rec = self
            .containers
            .get(&id)
            .ok_or(SchedError::UnknownContainer(id))?;
        let free = rec.requirement.saturating_sub(rec.used).min(rec.limit);
        Ok((free, rec.limit))
    }

    /// Wrapper: `__cudaUnregisterFatBinary` — process `pid` exited. Drops
    /// every allocation recorded for the pid (leak reclaim) and its
    /// context charge, then re-evaluates the container's parked requests.
    pub fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let (cancelled, before) = {
            let ctx = self.cfg.ctx_overhead;
            let charge_ctx = self.cfg.charge_ctx_overhead;
            // Direct field lookup (not `active_mut`) so the disjoint
            // `total_used` / `log` fields stay borrowable.
            let rec = match self.containers.get_mut(&id) {
                None => return Err(SchedError::UnknownContainer(id)),
                Some(r) if r.state == ContainerState::Closed => {
                    return Err(SchedError::ContainerClosed(id))
                }
                Some(r) => r,
            };
            let before = Candidate::of(rec);
            let used_before = rec.used;
            let addrs: Vec<u64> = rec
                .allocations
                .iter()
                .filter(|(_, (p, _))| *p == pid)
                .map(|(&a, _)| a)
                .collect();
            let mut reclaimed = Bytes::ZERO;
            for a in addrs {
                if let Some((_, size)) = rec.allocations.remove(&a) {
                    rec.used = rec.used.saturating_sub(size);
                    reclaimed += size;
                }
            }
            if charge_ctx && rec.charged_pids.remove(&pid) {
                rec.used = rec.used.saturating_sub(ctx);
                reclaimed += ctx;
            }
            // A dead process cannot receive a resume: cancel its parked
            // requests. The cancellations are delivered as Rejected so a
            // live waiter (e.g. a thread of a killed container still
            // blocked on the socket) unblocks instead of hanging. Each
            // cancellation keeps its park time for the suspend_wait span.
            let mut cancelled: Vec<(ResumeAction, SimTime)> = Vec::new();
            rec.pending.retain(|p| {
                if p.pid == pid {
                    cancelled.push((
                        ResumeAction {
                            container: id,
                            pid: p.pid,
                            ticket: p.ticket,
                            decision: AllocDecision::Rejected,
                        },
                        p.since,
                    ));
                    false
                } else {
                    true
                }
            });
            let ended = if rec.pending.is_empty() {
                rec.note_resume(now)
            } else {
                None
            };
            let released = used_before.saturating_sub(rec.used);
            self.total_used -= released;
            self.touched.push(id);
            Self::observe_suspend_end(&self.obs, id, ended);
            record!(self, now, Decision::ProcessExited { id, pid, reclaimed });
            for (c, since) in &cancelled {
                record!(
                    self,
                    now,
                    Decision::Resumed {
                        id: c.container,
                        ticket: c.ticket,
                        decision: c.decision,
                    }
                );
                Self::emit_suspend_wait(
                    &self.obs,
                    &self.container_spans,
                    id,
                    c.ticket,
                    "cancelled",
                    *since,
                    now,
                );
            }
            (cancelled, before)
        };
        let mut actions: Vec<ResumeAction> = cancelled.into_iter().map(|(c, _)| c).collect();
        actions.extend(self.drain_pending(id, before, now, false));
        self.sample(now);
        self.audit_check();
        Ok(actions)
    }

    /// Plugin: the container stopped. Releases its whole reservation and
    /// redistributes to suspended containers per the policy (Fig. 3d).
    pub fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        {
            let rec = match self.containers.get_mut(&id) {
                Some(r) => r,
                None => return Err(SchedError::UnknownContainer(id)),
            };
            if rec.state == ContainerState::Closed {
                return Ok(Vec::new()); // idempotent: plugin + explicit close
            }
            self.candidates.update(Candidate::of(rec), None);
            let ended = rec.note_resume(now);
            let registered_at = rec.registered_at;
            rec.state = ContainerState::Closed;
            rec.closed_at = Some(now);
            // Cancel parked requests so any still-live waiter unblocks.
            let cancelled: Vec<(ResumeAction, SimTime)> = rec
                .pending
                .drain(..)
                .map(|p| {
                    (
                        ResumeAction {
                            container: id,
                            pid: p.pid,
                            ticket: p.ticket,
                            decision: AllocDecision::Rejected,
                        },
                        p.since,
                    )
                })
                .collect();
            rec.allocations.clear();
            self.total_used -= rec.used;
            rec.used = Bytes::ZERO;
            let released = rec.assigned;
            self.total_assigned -= rec.assigned;
            rec.assigned = Bytes::ZERO;
            self.touched.push(id);
            Self::observe_suspend_end(&self.obs, id, ended);
            record!(self, now, Decision::Closed { id, released });
            for (c, since) in &cancelled {
                record!(
                    self,
                    now,
                    Decision::Resumed {
                        id: c.container,
                        ticket: c.ticket,
                        decision: c.decision,
                    }
                );
                Self::emit_suspend_wait(
                    &self.obs,
                    &self.container_spans,
                    id,
                    c.ticket,
                    "cancelled",
                    *since,
                    now,
                );
            }
            // The container's lifetime span closes here, under the id
            // reserved at registration so its events already parent to it,
            // and its container-lifetime series go with it.
            if let Some(o) = &self.obs {
                let c = id.to_string();
                o.registry.retire(&o.scoped(&[("container", c.as_str())]));
                if let Some(sid) = self.container_spans.get(&id).copied() {
                    let attrs = o.scoped(&[("policy", self.policy.name())]);
                    o.tracer.emit(SpanRecord {
                        id: sid,
                        parent: None,
                        name: "container".into(),
                        container: Some(id.as_u64()),
                        start: registered_at,
                        end: now,
                        attrs: attrs
                            .into_iter()
                            .map(|(k, v)| (k.into(), v.into()))
                            .collect(),
                    });
                }
            }
            let mut actions: Vec<ResumeAction> = cancelled.into_iter().map(|(c, _)| c).collect();
            actions.extend(self.redistribute(now));
            self.sample(now);
            self.audit_check();
            Ok(actions)
        }
    }

    /// Policy-driven redistribution of unassigned memory to suspended
    /// containers.
    fn redistribute(&mut self, now: SimTime) -> Vec<ResumeAction> {
        let mut actions = Vec::new();
        // A re-selecting (non-sticky) policy evaluates each release
        // against the full reclaimable pool: partial top-ups abandoned at
        // earlier releases return to the pool first. This keeps at most
        // one fresh partial holder per redistribution, preserving
        // liveness, while letting Best-Fit re-pick freely — including
        // away from a container it partially served before (the paper's
        // starvation behaviour).
        if !self.policy.sticky() {
            // Only the index's holders have anything to give back: visit
            // them, not every suspended container. Each leaves the holder
            // set as its spare returns to the pool.
            while let Some(id) = self.candidates.pop_holder() {
                let rec = self
                    .containers
                    .get_mut(&id)
                    .expect("indexed containers exist");
                let before = Candidate::of(rec);
                let back = rec.assigned - rec.used;
                rec.assigned = rec.used;
                self.total_assigned -= back;
                self.touched.push(id);
                self.candidates.update(before, Candidate::of(rec));
            }
        }
        loop {
            let remaining = self.unassigned();
            if remaining.is_zero() {
                break;
            }
            // Re-validate the sticky target: it may have resumed, closed
            // or been fully topped since the last release.
            if let Some(t) = self.sticky_target {
                let still_needy = self
                    .containers
                    .get(&t)
                    .map(|r| r.is_suspended() && !r.deficit().is_zero())
                    .unwrap_or(false);
                if !still_needy {
                    self.sticky_target = None;
                }
            }
            let pick = match self.sticky_target {
                Some(t) => t,
                None => {
                    // Every indexed container misses part of its
                    // requirement (`InvariantViolation::SuspendedWithoutDeficit`),
                    // so the index is the candidate set as it stands: the
                    // policy answers with one query on it.
                    if self.candidates.is_empty() {
                        break;
                    }
                    let picked = self.policy.select(&self.candidates, remaining);
                    if let Some(obs) = &self.obs {
                        crate::policy::record_selection(obs, self.policy.name(), picked.is_some());
                    }
                    let Some(pick) = picked else {
                        break;
                    };
                    if self.policy.sticky() {
                        self.sticky_target = Some(pick);
                    }
                    pick
                }
            };
            let rec = self
                .containers
                .get_mut(&pick)
                .expect("policy picked a live candidate");
            let before = Candidate::of(rec);
            // Top up "until the assigned memory reaches the required
            // memory size", bounded by what is left.
            let take = remaining.min(rec.deficit());
            rec.assigned += take;
            self.total_assigned += take;
            self.touched.push(pick);
            let deficit = rec.deficit();
            record!(
                self,
                now,
                Decision::ToppedUp {
                    id: pick,
                    amount: take,
                    deficit,
                }
            );
            if rec.deficit().is_zero() {
                self.sticky_target = None;
            }
            let require_full = self.cfg.resume_rule == ResumeRule::FullGuarantee;
            actions.extend(self.drain_pending(pick, before, now, require_full));
        }
        actions
    }

    /// Re-evaluate a container's parked requests in FIFO order, then move
    /// its candidate-index entry from `before` — its entry as the calling
    /// transition found it — to what the transition and the drain left.
    /// `require_full` gates redistribution-driven resumes on the paper's
    /// full-guarantee rule; releases within the container's own budget
    /// always re-evaluate.
    fn drain_pending(
        &mut self,
        id: ContainerId,
        before: Option<Candidate>,
        now: SimTime,
        require_full: bool,
    ) -> Vec<ResumeAction> {
        let ctx = self.cfg.ctx_overhead;
        let charge_ctx = self.cfg.charge_ctx_overhead;
        let Some(rec) = self.containers.get_mut(&id) else {
            return Vec::new();
        };
        if require_full && !rec.fully_guaranteed() {
            self.candidates.update(before, Candidate::of(rec));
            return Vec::new();
        }
        let mut actions = Vec::new();
        while let Some(p) = rec.pending.front().cloned() {
            let need = if charge_ctx && !rec.charged_pids.contains(&p.pid) {
                p.size + ctx
            } else {
                p.size
            };
            if rec.used + need > rec.requirement {
                // Stacked pendings overran the limit: reject this one now.
                rec.pending.pop_front();
                rec.rejected_allocs += 1;
                record!(
                    self,
                    now,
                    Decision::Resumed {
                        id,
                        ticket: p.ticket,
                        decision: AllocDecision::Rejected,
                    }
                );
                Self::emit_suspend_wait(
                    &self.obs,
                    &self.container_spans,
                    id,
                    p.ticket,
                    "rejected",
                    p.since,
                    now,
                );
                actions.push(ResumeAction {
                    container: id,
                    pid: p.pid,
                    ticket: p.ticket,
                    decision: AllocDecision::Rejected,
                });
            } else if rec.used + need <= rec.assigned {
                rec.pending.pop_front();
                rec.used += need;
                rec.charged_pids.insert(p.pid);
                rec.granted_allocs += 1;
                self.total_used += need;
                record!(
                    self,
                    now,
                    Decision::Resumed {
                        id,
                        ticket: p.ticket,
                        decision: AllocDecision::Granted,
                    }
                );
                Self::emit_suspend_wait(
                    &self.obs,
                    &self.container_spans,
                    id,
                    p.ticket,
                    "granted",
                    p.since,
                    now,
                );
                actions.push(ResumeAction {
                    container: id,
                    pid: p.pid,
                    ticket: p.ticket,
                    decision: AllocDecision::Granted,
                });
            } else {
                break; // head still does not fit; keep FIFO order
            }
        }
        let ended = if rec.pending.is_empty() {
            rec.note_resume(now)
        } else {
            None
        };
        self.candidates.update(before, Candidate::of(rec));
        if !actions.is_empty() || ended.is_some() {
            self.touched.push(id);
        }
        Self::observe_suspend_end(&self.obs, id, ended);
        actions
    }

    fn active_mut(&mut self, id: ContainerId) -> Result<&mut ContainerRecord, SchedError> {
        match self.containers.get_mut(&id) {
            None => Err(SchedError::UnknownContainer(id)),
            Some(rec) if rec.state == ContainerState::Closed => {
                Err(SchedError::ContainerClosed(id))
            }
            Some(rec) => Ok(rec),
        }
    }

    /// The shared safety oracle: evaluates every invariant documented in
    /// [`crate::invariant`] and reports the first violation. Used by unit
    /// and property tests, by the `convgpu-audit` bounded model checker
    /// after every explored transition, and — under the `audit` feature —
    /// by every mutating entry point of the live scheduler itself.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let mut sum_assigned = Bytes::ZERO;
        let mut sum_used = Bytes::ZERO;
        let mut expected_index: Vec<Candidate> = Vec::new();
        let mut seen_tickets = BTreeSet::new();
        for rec in self.containers() {
            sum_assigned += rec.assigned;
            sum_used += rec.used;
            if let Some(c) = Candidate::of(rec) {
                // A top-up that completes a guarantee drains the parked
                // requests at once, so nobody waits with nothing missing.
                if c.deficit.is_zero() {
                    return Err(InvariantViolation::SuspendedWithoutDeficit { container: rec.id });
                }
                expected_index.push(c);
            }
            if rec.used > rec.assigned {
                return Err(InvariantViolation::UsedExceedsAssigned {
                    container: rec.id,
                    used: rec.used,
                    assigned: rec.assigned,
                });
            }
            if rec.assigned > rec.requirement {
                return Err(InvariantViolation::AssignedExceedsRequirement {
                    container: rec.id,
                    assigned: rec.assigned,
                    requirement: rec.requirement,
                });
            }
            if rec.used > rec.requirement {
                return Err(InvariantViolation::UsedExceedsRequirement {
                    container: rec.id,
                    used: rec.used,
                    requirement: rec.requirement,
                });
            }
            let recorded: Bytes = rec.allocations.values().map(|&(_, s)| s).sum();
            if recorded > rec.used {
                return Err(InvariantViolation::RecordedExceedsUsed {
                    container: rec.id,
                    recorded,
                    used: rec.used,
                });
            }
            if rec.state == ContainerState::Closed
                && (!rec.assigned.is_zero() || !rec.used.is_zero())
            {
                return Err(InvariantViolation::ClosedHoldsMemory { container: rec.id });
            }
            // Ticket uniqueness (promoted from the debug_assert in
            // alloc_request): a parked ticket appears exactly once, and
            // only tickets the counter has issued can be parked.
            for p in &rec.pending {
                if p.ticket >= self.next_ticket {
                    return Err(InvariantViolation::TicketFromFuture {
                        ticket: p.ticket,
                        next_ticket: self.next_ticket,
                    });
                }
                if !seen_tickets.insert(p.ticket) {
                    return Err(InvariantViolation::DuplicateTicket { ticket: p.ticket });
                }
            }
            // Suspension consistency: for open containers, `state` must
            // mirror `pending` — skew here is how a wakeup gets lost.
            let suspended = rec.state == ContainerState::Suspended;
            if rec.state != ContainerState::Closed && suspended == rec.pending.is_empty() {
                return Err(InvariantViolation::SuspensionStateMismatch {
                    container: rec.id,
                    state: rec.state,
                    pending: rec.pending.len(),
                });
            }
        }
        if sum_assigned != self.total_assigned {
            return Err(InvariantViolation::AssignedSumMismatch {
                sum: sum_assigned,
                tracked: self.total_assigned,
            });
        }
        if sum_used != self.total_used {
            return Err(InvariantViolation::UsedSumMismatch {
                sum: sum_used,
                tracked: self.total_used,
            });
        }
        // The candidate index must hold exactly the open suspended
        // containers, each under its current keys in every order — any
        // drift and a policy would pick a phantom, miss a candidate or
        // break a tie differently.
        let suspended = expected_index.len();
        if expected_index.into_iter().collect::<Candidates>() != self.candidates {
            return Err(InvariantViolation::CandidateIndexMismatch {
                indexed: self.candidates.len(),
                suspended,
            });
        }
        if self.total_assigned > self.cfg.capacity {
            return Err(InvariantViolation::OverCommit {
                assigned: self.total_assigned,
                capacity: self.cfg.capacity,
            });
        }
        Ok(())
    }

    /// Under the `audit` feature, re-check every invariant; a violation
    /// means the scheduler state is corrupt and continuing would corrupt
    /// container accounting further, so panic with the typed diagnosis.
    #[cfg(feature = "audit")]
    fn audit_check(&self) {
        if let Err(violation) = self.check_invariants() {
            panic!("scheduler invariant violated: {violation}");
        }
    }

    #[cfg(not(feature = "audit"))]
    #[inline(always)]
    fn audit_check(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    const MIB: u64 = 1; // readability: sizes below are in MiB via helper

    fn mib(n: u64) -> Bytes {
        Bytes::mib(n * MIB)
    }

    fn sched(capacity_mib: u64, kind: PolicyKind) -> Scheduler {
        Scheduler::new(
            SchedulerConfig::with_capacity(mib(capacity_mib)),
            kind.build(7),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    const C1: ContainerId = ContainerId(1);
    const C2: ContainerId = ContainerId(2);
    const C3: ContainerId = ContainerId(3);

    #[test]
    fn register_reserves_up_to_requirement() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(1024), t(0)).unwrap();
        let r = s.container(C1).unwrap();
        assert_eq!(r.requirement, mib(1090), "limit + 66 MiB overhead");
        assert_eq!(r.assigned, mib(1090), "fully reserved while memory lasts");
        assert_eq!(s.unassigned(), mib(5120 - 1090));
        s.check_invariants().unwrap();
    }

    #[test]
    fn register_partial_when_memory_scarce() {
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1024), t(0)).unwrap(); // takes 1090
        s.register(C2, mib(1024), t(1)).unwrap(); // only 110 left
        assert_eq!(s.container(C2).unwrap().assigned, mib(110));
        assert_eq!(s.unassigned(), Bytes::ZERO);
        s.check_invariants().unwrap();
    }

    #[test]
    fn register_rejects_impossible_limits_and_duplicates() {
        let mut s = sched(1000, PolicyKind::Fifo);
        assert!(matches!(
            s.register(C1, mib(2000), t(0)),
            Err(SchedError::LimitExceedsCapacity { .. })
        ));
        s.register(C1, mib(100), t(0)).unwrap();
        assert_eq!(
            s.register(C1, mib(100), t(1)),
            Err(SchedError::AlreadyRegistered(C1))
        );
    }

    #[test]
    fn duplicate_check_covers_ids_below_the_mark() {
        let mut s = sched(5120, PolicyKind::Fifo);
        let c9 = ContainerId(9);
        s.register(c9, mib(10), t(0)).unwrap();
        s.register(C2, mib(10), t(0)).unwrap(); // below the mark, unseen
        s.container_close(C2, t(1)).unwrap();
        assert_eq!(
            s.register(C2, mib(10), t(2)),
            Err(SchedError::AlreadyRegistered(C2)),
            "a closed record still holds its id"
        );
        assert_eq!(
            s.adopt(c9, mib(10), Bytes::ZERO, t(2)),
            Err(SchedError::AlreadyRegistered(c9))
        );
    }

    #[test]
    fn grant_within_assigned_budget() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        let (out, _) = s
            .alloc_request(C1, 100, mib(512), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(out, AllocOutcome::Granted);
        let r = s.container(C1).unwrap();
        assert_eq!(r.used, mib(512 + 66), "allocation + first-pid overhead");
        s.alloc_done(C1, 100, 0x7000, mib(512), t(1)).unwrap();
        s.check_invariants().unwrap();
    }

    #[test]
    fn second_pid_charges_second_overhead() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 100, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_request(C1, 200, mib(100), ApiKind::Malloc, t(2))
            .unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(200 + 2 * 66));
    }

    #[test]
    fn over_limit_is_rejected_not_suspended() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(256), t(0)).unwrap();
        let (out, _) = s
            .alloc_request(C1, 1, mib(512), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(out, AllocOutcome::Rejected);
        assert_eq!(s.container(C1).unwrap().rejected_allocs, 1);
        // Limit-sized request is fine (overhead is budgeted on top).
        let (out, _) = s
            .alloc_request(C1, 1, mib(256), ApiKind::Malloc, t(2))
            .unwrap();
        assert_eq!(out, AllocOutcome::Granted);
    }

    #[test]
    fn zero_size_rejected() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(256), t(0)).unwrap();
        assert_eq!(
            s.alloc_request(C1, 1, Bytes::ZERO, ApiKind::Malloc, t(1))
                .unwrap()
                .0,
            AllocOutcome::Rejected
        );
    }

    #[test]
    fn scarce_memory_suspends_and_close_resumes_fifo() {
        // Capacity fits one container's requirement only.
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap(); // assigned 1066
        s.register(C2, mib(1000), t(5)).unwrap(); // assigned 134 (partial)
        assert_eq!(
            s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(6))
                .unwrap()
                .0,
            AllocOutcome::Granted
        );
        // C2's allocation exceeds its partial assignment → suspended.
        let (out, _) = s
            .alloc_request(C2, 2, mib(1000), ApiKind::Malloc, t(7))
            .unwrap();
        let AllocOutcome::Suspended { ticket } = out else {
            panic!("expected suspension, got {out:?}");
        };
        assert!(s.container(C2).unwrap().is_suspended());
        s.check_invariants().unwrap();
        // C1 closes → full 1066 returns → C2 topped to full guarantee →
        // its pending grant fires.
        let resumes = s.container_close(C1, t(20)).unwrap();
        assert_eq!(resumes.len(), 1);
        assert_eq!(
            resumes[0],
            ResumeAction {
                container: C2,
                pid: 2,
                ticket,
                decision: AllocDecision::Granted
            }
        );
        let r = s.container(C2).unwrap();
        assert!(r.fully_guaranteed());
        assert!(!r.is_suspended());
        assert_eq!(
            r.total_suspended,
            convgpu_sim_core::time::SimDuration::from_secs(13)
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn full_guarantee_withholds_partial_topups() {
        // Paper Fig. 3d: D gets leftover memory but stays suspended.
        let mut s = sched(2000, PolicyKind::Fifo);
        s.register(C1, mib(900), t(0)).unwrap(); // 966 assigned
        s.register(C2, mib(900), t(1)).unwrap(); // 966 assigned
        s.register(C3, mib(1500), t(2)).unwrap(); // 68 assigned (leftover)
        s.alloc_request(C1, 1, mib(900), ApiKind::Malloc, t(3))
            .unwrap();
        s.alloc_request(C2, 2, mib(900), ApiKind::Malloc, t(3))
            .unwrap();
        let (out, _) = s
            .alloc_request(C3, 3, mib(1500), ApiKind::Malloc, t(4))
            .unwrap();
        assert!(matches!(out, AllocOutcome::Suspended { .. }));
        // C1 closes: 966 frees; C3 now has 68+966 = 1034 < 1566 required.
        let resumes = s.container_close(C1, t(10)).unwrap();
        assert!(resumes.is_empty(), "partial top-up must not resume");
        let r = s.container(C3).unwrap();
        assert!(r.is_suspended());
        assert_eq!(r.assigned, mib(1034));
        // C2 closes: another 966 → full guarantee → resume.
        let resumes = s.container_close(C2, t(20)).unwrap();
        assert_eq!(resumes.len(), 1);
        assert_eq!(resumes[0].decision, AllocDecision::Granted);
        assert!(s.container(C3).unwrap().fully_guaranteed());
        s.check_invariants().unwrap();
    }

    #[test]
    fn own_free_resumes_within_assigned_budget() {
        let mut s = sched(700, PolicyKind::Fifo);
        s.register(C1, mib(600), t(0)).unwrap(); // assigned 666 (all)
        s.alloc_request(C1, 1, mib(600), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(600), t(1)).unwrap();
        // Second allocation would exceed the limit → rejected.
        assert_eq!(
            s.alloc_request(C1, 1, mib(600), ApiKind::Malloc, t(2))
                .unwrap()
                .0,
            AllocOutcome::Rejected
        );
        // A 300 MiB follow-up is within limit but not within current use:
        // used = 666, need 300, requirement 666 → rejected too. Free first.
        let (freed, resumes) = s.free(C1, 1, 0xA, t(3)).unwrap();
        assert_eq!(freed, mib(600));
        assert!(resumes.is_empty());
        assert_eq!(
            s.alloc_request(C1, 1, mib(300), ApiKind::Malloc, t(4))
                .unwrap()
                .0,
            AllocOutcome::Granted
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn free_then_pending_fits_resumes_without_redistribution() {
        // Two processes in one container: pid 1 holds memory, pid 2's
        // request parks; pid 1's free lets pid 2 proceed within the same
        // assigned budget.
        let mut s = sched(700, PolicyKind::Fifo);
        s.register(C1, mib(500), t(0)).unwrap(); // requirement 566, all assigned
        s.alloc_request(C1, 1, mib(300), ApiKind::Malloc, t(1))
            .unwrap(); // used 366
        s.alloc_done(C1, 1, 0xA, mib(300), t(1)).unwrap();
        // pid 2: 100 MiB + 66 overhead = 166; used would be 532 ≤ 566 OK —
        // need something that suspends: 150 + 66 = 216 → 582 > 566? That
        // rejects. Use remaining-assigned pressure instead: container got
        // full 566 assigned, so exceed assigned == exceed requirement…
        // Shrink the assignment scenario: use a second container to eat
        // the pool so C1 is partially assigned.
        let _ = s;
        let mut s = sched(700, PolicyKind::Fifo);
        s.register(C1, mib(500), t(0)).unwrap(); // assigned 566
        s.register(C2, mib(100), t(0)).unwrap(); // assigned 134 remains? 700-566=134 ≥ 100+66=166? No: 134 < 166 → partial 134.
        s.alloc_request(C1, 1, mib(300), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(300), t(1)).unwrap();
        // C2 wants its full 100 MiB: needs 166 > 134 assigned → suspended.
        let (out, _) = s
            .alloc_request(C2, 2, mib(100), ApiKind::Malloc, t(2))
            .unwrap();
        assert!(matches!(out, AllocOutcome::Suspended { .. }));
        // C1 closes → 566 released → C2 topped to 166 → resumed.
        let resumes = s.container_close(C1, t(3)).unwrap();
        assert_eq!(resumes.len(), 1);
        assert_eq!(resumes[0].container, C2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn process_exit_reclaims_leaks_and_overhead() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(200), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(200), t(1)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(2))
            .unwrap();
        s.alloc_done(C1, 1, 0xB, mib(100), t(2)).unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(366));
        // Process exits without freeing anything.
        s.process_exit(C1, 1, t(3)).unwrap();
        assert_eq!(s.container(C1).unwrap().used, Bytes::ZERO);
        assert!(s.container(C1).unwrap().allocations.is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn container_close_is_idempotent_and_releases_everything() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(512), ApiKind::Malloc, t(1))
            .unwrap();
        s.container_close(C1, t(2)).unwrap();
        assert_eq!(s.total_assigned(), Bytes::ZERO);
        assert_eq!(s.container_close(C1, t(3)).unwrap(), Vec::new());
        // Operations on a closed container error.
        assert_eq!(
            s.alloc_request(C1, 1, mib(1), ApiKind::Malloc, t(4)),
            Err(SchedError::ContainerClosed(C1))
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn alloc_failed_releases_reservation() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(512), ApiKind::Malloc, t(1))
            .unwrap();
        let used_before = s.container(C1).unwrap().used;
        s.alloc_failed(C1, 1, mib(512), t(2)).unwrap();
        assert_eq!(
            s.container(C1).unwrap().used,
            used_before - mib(512),
            "reservation released, context charge kept"
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_alloc_done_is_protocol_violation() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(100), t(1)).unwrap();
        assert!(matches!(
            s.alloc_done(C1, 1, 0xA, mib(100), t(2)),
            Err(SchedError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn mem_info_is_served_from_books() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        assert_eq!(s.mem_info(C1, 1).unwrap(), (mib(512), mib(512)));
        s.alloc_request(C1, 1, mib(200), ApiKind::Malloc, t(1))
            .unwrap();
        // used = 266 (alloc + overhead); free = 578-266 = 312.
        assert_eq!(s.mem_info(C1, 1).unwrap(), (mib(312), mib(512)));
    }

    #[test]
    fn best_fit_selects_fitting_container_first() {
        let mut s = sched(2100, PolicyKind::BestFit);
        s.register(C1, mib(1000), t(0)).unwrap(); // 1066 assigned
        s.register(C2, mib(1500), t(1)).unwrap(); // 1034 partial
        s.register(C3, mib(900), t(2)).unwrap(); // 0 assigned
        s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(3))
            .unwrap();
        assert!(matches!(
            s.alloc_request(C2, 2, mib(1500), ApiKind::Malloc, t(4))
                .unwrap()
                .0,
            AllocOutcome::Suspended { .. }
        ));
        assert!(matches!(
            s.alloc_request(C3, 3, mib(900), ApiKind::Malloc, t(5))
                .unwrap()
                .0,
            AllocOutcome::Suspended { .. }
        ));
        // C2 suspended first and became the sticky top-up target (its
        // give-back flowed straight back to it as the only candidate).
        // When C1 closes, the sticky rule completes C2's guarantee before
        // BF gets to choose again; the remaining 534 MiB is insufficient
        // for C3 (deficit 966), which stays suspended with a partial
        // reservation — the Fig. 3d "Container D" situation.
        let resumes = s.container_close(C1, t(10)).unwrap();
        let resumed: Vec<ContainerId> = resumes.iter().map(|r| r.container).collect();
        assert_eq!(resumed, vec![C2], "sticky target completes first");
        let c3 = s.container(C3).unwrap();
        assert!(c3.is_suspended());
        assert!(
            !c3.assigned.is_zero(),
            "C3 holds the leftover as sticky target"
        );
        s.check_invariants().unwrap();
    }

    #[test]
    fn unknown_container_errors_everywhere() {
        let mut s = sched(1000, PolicyKind::Fifo);
        let e = SchedError::UnknownContainer(C1);
        assert_eq!(
            s.alloc_request(C1, 1, mib(1), ApiKind::Malloc, t(0))
                .unwrap_err(),
            e
        );
        assert_eq!(s.alloc_done(C1, 1, 1, mib(1), t(0)).unwrap_err(), e);
        assert_eq!(s.free(C1, 1, 1, t(0)).unwrap_err(), e);
        assert_eq!(s.mem_info(C1, 1).unwrap_err(), e);
        assert_eq!(s.process_exit(C1, 1, t(0)).unwrap_err(), e);
        assert_eq!(s.container_close(C1, t(0)).unwrap_err(), e);
    }

    #[test]
    fn decision_log_tells_the_story() {
        use crate::log::Decision;
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap();
        s.register(C2, mib(1000), t(5)).unwrap();
        s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(6))
            .unwrap();
        s.alloc_request(C2, 2, mib(1000), ApiKind::Malloc, t(7))
            .unwrap();
        s.container_close(C1, t(20)).unwrap();

        let kinds: Vec<&'static str> = s
            .log()
            .entries()
            .map(|e| match &e.decision {
                Decision::Registered { .. } => "registered",
                Decision::Adopted { .. } => "adopted",
                Decision::Granted { .. } => "granted",
                Decision::Rejected { .. } => "rejected",
                Decision::Suspended { .. } => "suspended",
                Decision::ToppedUp { .. } => "topped_up",
                Decision::Resumed { .. } => "resumed",
                Decision::Closed { .. } => "closed",
                Decision::ProcessExited { .. } => "process_exited",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "registered", // C1
                "registered", // C2 (partial, 134 MiB)
                "granted",    // C1's allocation
                "suspended",  // C2 parks…
                "topped_up",  // …its give-back flows straight back (sticky)
                "closed",     // C1 closes
                "topped_up",  // C2 topped to its full guarantee
                "resumed",    // C2's request granted
            ],
            "full log: {:?}",
            s.log().entries().map(|e| e.to_string()).collect::<Vec<_>>()
        );
        // Per-container view: C2 has register + suspend + two top-ups +
        // resume.
        assert_eq!(s.log().for_container(C2).len(), 5);
    }

    #[test]
    fn containers_iterate_in_id_order_without_sorting() {
        // Regression for the per-call sort `containers()` used to do:
        // determinism is now structural. Register out of order and assert
        // the iterator — backed directly by the ordered map, no sort, no
        // allocation — still yields ascending ids.
        let mut s = sched(5120, PolicyKind::Fifo);
        for id in [5u64, 1, 4, 2, 3] {
            s.register(ContainerId(id), mib(10), t(0)).unwrap();
        }
        let ids: Vec<u64> = s.containers().map(|r| r.id.as_u64()).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        // And the internal map agrees — the public iterator is the map's.
        let keys: Vec<u64> = s.containers.keys().map(|k| k.as_u64()).collect();
        assert_eq!(keys, ids);
        s.check_invariants().unwrap();
    }

    #[test]
    fn candidate_index_tracks_park_and_resume() {
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap();
        s.register(C2, mib(1000), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(1))
            .unwrap();
        assert!(s.candidates.is_empty());
        s.alloc_request(C2, 2, mib(500), ApiKind::Malloc, t(2))
            .unwrap();
        assert_eq!(s.candidates.len(), 1, "park indexes the container");
        s.check_invariants().unwrap();
        s.container_close(C1, t(3)).unwrap();
        assert!(s.candidates.is_empty(), "resume removes the index entry");
        s.check_invariants().unwrap();
    }

    #[test]
    fn corrupted_candidate_index_is_a_violation() {
        let mut s = sched(1200, PolicyKind::BestFit);
        s.register(C1, mib(1000), t(0)).unwrap();
        s.register(C2, mib(1000), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_request(C2, 2, mib(500), ApiKind::Malloc, t(2))
            .unwrap();
        s.check_invariants().unwrap();
        // A stale deficit key: the entry is present in every order, but
        // Best-Fit would rank it wrongly.
        let entry = Candidate::of(s.container(C2).unwrap()).unwrap();
        let stale = Candidate {
            deficit: entry.deficit + mib(1),
            ..entry
        };
        s.candidates.update(Some(entry), Some(stale));
        assert_eq!(
            s.check_invariants(),
            Err(InvariantViolation::CandidateIndexMismatch {
                indexed: 1,
                suspended: 1
            })
        );
        // A missing entry.
        s.candidates.update(Some(stale), None);
        assert_eq!(
            s.check_invariants(),
            Err(InvariantViolation::CandidateIndexMismatch {
                indexed: 0,
                suspended: 1
            })
        );
    }

    #[test]
    fn total_used_matches_recomputation_through_lifecycle() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.register(C2, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(200), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(200), t(1)).unwrap();
        s.alloc_request(C2, 2, mib(300), ApiKind::Malloc, t(2))
            .unwrap();
        s.free(C1, 1, 0xA, t(3)).unwrap();
        s.alloc_failed(C2, 2, mib(300), t(4)).unwrap();
        s.process_exit(C1, 1, t(5)).unwrap();
        s.container_close(C2, t(6)).unwrap();
        // `check_invariants` recomputes Σ used and compares it to the
        // incrementally maintained total after every step above (audit
        // builds), and once more here for non-audit builds.
        s.check_invariants().unwrap();
    }

    #[test]
    fn adopt_pre_commits_the_migrated_budget() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.adopt(C1, mib(1024), mib(700), t(0)).unwrap();
        let r = s.container(C1).unwrap();
        assert_eq!(r.used, mib(700), "committed budget arrives used");
        assert_eq!(r.assigned, mib(1090), "fully reserved while memory lasts");
        assert!(r.allocations.is_empty(), "no recorded addresses travel");
        s.check_invariants().unwrap();
        // The budget behaves like normal usage: within assigned, further
        // allocations grant; the whole thing is reclaimed at close.
        let (out, _) = s
            .alloc_request(C1, 9, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(out, AllocOutcome::Granted);
        s.container_close(C1, t(2)).unwrap();
        assert_eq!(s.total_assigned(), Bytes::ZERO);
        s.check_invariants().unwrap();
    }

    #[test]
    fn adopt_rejects_overcommit_and_misuse() {
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap(); // reserves 1066
                                                  // Only 134 MiB unassigned: a 200 MiB committed budget cannot land.
        assert!(matches!(
            s.adopt(C2, mib(500), mib(200), t(1)).unwrap_err(),
            SchedError::AdoptionOverCommit { .. }
        ));
        assert!(s.container(C2).is_none(), "failed adoption leaves no state");
        // A budget over the effective requirement is a protocol violation.
        let mut s = sched(5120, PolicyKind::Fifo);
        assert!(matches!(
            s.adopt(C2, mib(100), mib(200), t(0)).unwrap_err(),
            SchedError::ProtocolViolation(_)
        ));
        // Duplicate ids and impossible limits behave like register.
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(100), t(0)).unwrap();
        assert!(matches!(
            s.adopt(C1, mib(100), Bytes::ZERO, t(1)).unwrap_err(),
            SchedError::AlreadyRegistered(_)
        ));
        assert!(matches!(
            s.adopt(C3, mib(9000), Bytes::ZERO, t(1)).unwrap_err(),
            SchedError::LimitExceedsCapacity { .. }
        ));
        s.check_invariants().unwrap();
    }

    #[test]
    fn suspension_time_is_accounted_per_episode() {
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap();
        s.register(C2, mib(1000), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(1000), ApiKind::Malloc, t(1))
            .unwrap();
        assert!(matches!(
            s.alloc_request(C2, 2, mib(500), ApiKind::Malloc, t(10))
                .unwrap()
                .0,
            AllocOutcome::Suspended { .. }
        ));
        s.container_close(C1, t(40)).unwrap();
        let r = s.container(C2).unwrap();
        assert_eq!(
            r.total_suspended,
            convgpu_sim_core::time::SimDuration::from_secs(30)
        );
        assert_eq!(r.suspend_episodes, 1);
    }
}
