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
//!   a pid's allocations even if the program leaked them, with its grants
//!   still in flight and its context charge; `ContainerClose`
//!   (from the volume-unmount signal) drops everything.

use crate::candidates::{Candidate, Candidates};
use crate::invariant::InvariantViolation;
use crate::log::{Decision, DecisionLog};
use crate::policy::Policy;
use crate::state::{ContainerRecord, ContainerState, PendingAlloc};
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
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// The paper's per-pid context overhead: "CUDA uses 64 MiB … and 2 MiB".
pub const CTX_OVERHEAD: Bytes = Bytes::mib(66);

/// Scheduler configuration.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Physical GPU memory under management.
    pub capacity: Bytes,
    /// Per-pid context overhead charged with a pid's first grant
    /// ([`CTX_OVERHEAD`] in the paper; zero charges none).
    pub ctx_overhead: Bytes,
}

impl SchedulerConfig {
    /// The paper's setup: a 5 GiB Tesla K20m and its 66 MiB overhead.
    pub fn paper() -> Self {
        SchedulerConfig {
            capacity: Bytes::gib(5),
            ctx_overhead: CTX_OVERHEAD,
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
    /// backend, one label per device scheduler).
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
    /// Registered containers not yet closed, keyed by id in an ordered
    /// map, so iteration is deterministic *structurally* — no per-call
    /// sort on any path. The only map a transition, a pick or a drain
    /// touches, so their cost follows the open containers, not every
    /// container the scheduler has served.
    open: BTreeMap<ContainerId, ContainerRecord>,
    /// Closed records, kept readable for metrics and end-of-run books. A
    /// close moves its record here with empty (unallocated) `allocations`,
    /// `in_flight` and `pending`, so a closed record holds no heap.
    closed: BTreeMap<ContainerId, ContainerRecord>,
    /// The largest id ever registered. `closed` only grows; an id above
    /// this mark is in neither map, and registering one skips the
    /// duplicate check's walk down both.
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
    recorder: Recorder,
    timeline: UtilizationTimeline,
}

/// Where a transition writes down what it did: the decision log and,
/// once observability is attached, the decision counter, trace events,
/// the suspension histogram and each container's lifetime span. A field
/// of its own, so a transition records while it holds a container record
/// mutably (field-level borrow splitting).
#[derive(Clone, Default)]
struct Recorder {
    log: DecisionLog,
    obs: Option<SchedObs>,
    /// Pre-allocated lifetime span id per open container, so decision
    /// events can parent under it before the span itself is emitted at
    /// close.
    container_spans: HashMap<ContainerId, u64>,
}

/// How a parked request is answered.
#[derive(Clone, Copy)]
enum Answer {
    /// Its memory is booked; the request proceeds.
    Granted,
    /// Stacked behind earlier requests, it now overruns the limit.
    Rejected,
    /// Its process exited or its container closed. Delivered as a
    /// rejection, so a still-live waiter unblocks instead of hanging.
    Cancelled,
}

impl Recorder {
    /// Log a decision and mirror it into the attached observability layer:
    /// one [`SCHED_DECISIONS`] tick plus an instant trace event parented
    /// under the container's lifetime span. A registration first reserves
    /// that span's id; the span is emitted at close, when its extent is
    /// known.
    fn decision(&mut self, now: SimTime, decision: Decision) {
        if let Some(o) = &self.obs {
            let id = decision.container();
            if let Decision::Registered { .. } = decision {
                self.container_spans.insert(id, o.tracer.next_span_id());
            }
            let kind = decision.kind();
            o.registry
                .inc(SCHED_DECISIONS, &o.scoped(&[("kind", kind)]), 1);
            let parent = self.container_spans.get(&id).copied();
            let attrs = o.scoped(&[]);
            let _ = o
                .tracer
                .instant(kind, Some(id.as_u64()), parent, now, &attrs);
        }
        self.log.push(now, decision);
    }

    /// The one way a parked request leaves its queue: take entry `at` out
    /// of `rec.pending`, log its `Resumed` decision, emit the span
    /// covering its wait (park → answer) labelled with the outcome, and
    /// return the reply to deliver.
    fn answer(
        &mut self,
        rec: &mut ContainerRecord,
        at: usize,
        answer: Answer,
        now: SimTime,
    ) -> ResumeAction {
        let p = rec.pending.remove(at).expect("answering a parked request");
        let (id, ticket) = (rec.id, p.ticket);
        let (decision, outcome) = match answer {
            Answer::Granted => (AllocDecision::Granted, "granted"),
            Answer::Rejected => (AllocDecision::Rejected, "rejected"),
            Answer::Cancelled => (AllocDecision::Rejected, "cancelled"),
        };
        self.decision(
            now,
            Decision::Resumed {
                id,
                ticket,
                decision,
            },
        );
        if let Some(o) = &self.obs {
            let parent = self.container_spans.get(&id).copied();
            let t = ticket.to_string();
            let attrs = o.scoped(&[("ticket", t.as_str()), ("outcome", outcome)]);
            let (container, span) = (Some(id.as_u64()), "suspend_wait");
            let _ = o.tracer.span(span, container, parent, p.since, now, &attrs);
        }
        ResumeAction {
            container: id,
            pid: p.pid,
            ticket,
            decision,
        }
    }

    /// Feed a finished suspension episode into the per-container
    /// histogram (`_count` = episodes, `_sum` = total suspended time).
    fn episode_ended(&self, id: ContainerId, ended: Option<SimDuration>) {
        if let (Some(o), Some(d)) = (&self.obs, ended) {
            let c = id.to_string();
            let labels = o.scoped(&[("container", c.as_str())]);
            o.registry.observe(SCHED_SUSPEND, &labels, d);
        }
    }

    /// Close `id`'s lifetime span, under the id reserved at registration
    /// so its events already parent to it, and retire its
    /// container-lifetime series.
    fn closed(&mut self, id: ContainerId, opened: SimTime, policy: &str, now: SimTime) {
        let Some(o) = &self.obs else {
            return;
        };
        let c = id.to_string();
        o.registry.retire(&o.scoped(&[("container", c.as_str())]));
        if let Some(sid) = self.container_spans.remove(&id) {
            let attrs = o.scoped(&[("policy", policy)]);
            o.tracer.emit(SpanRecord {
                id: sid,
                parent: None,
                name: "container".into(),
                container: Some(id.as_u64()),
                start: opened,
                end: now,
                attrs: attrs
                    .into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
            });
        }
    }
}

impl SchedulerConfig {
    /// What granting `size` to `pid` charges `rec`: the size, plus the
    /// context overhead when the pid holds no entry yet.
    fn need(&self, rec: &ContainerRecord, pid: u64, size: Bytes) -> Bytes {
        if rec.in_flight.contains_key(&pid) {
            size
        } else {
            size + self.ctx_overhead
        }
    }
}

/// Book a grant of `size` to `pid`, charged as `need`, first topping
/// `rec`'s reservation up by `top_up` from the pool: the one place a
/// grant changes the books, whether it is answered at once or from the
/// queue. The size is in flight until the pid reports it.
fn book_grant(
    rec: &mut ContainerRecord,
    total_assigned: &mut Bytes,
    total_used: &mut Bytes,
    pid: u64,
    size: Bytes,
    need: Bytes,
    top_up: Bytes,
) {
    rec.assigned += top_up;
    *total_assigned += top_up;
    rec.used += need;
    *total_used += need;
    *rec.in_flight.entry(pid).or_default() += size;
    rec.granted_allocs += 1;
}

/// Take a report's `size` off `pid`'s bytes in flight, the bound on what
/// an `alloc_done` may file or an `alloc_failed` release. Refused, with
/// the entry unchanged, when the pid holds less than `size` or no entry
/// at all (it never got a grant, or it exited).
fn take_in_flight(
    in_flight: &mut BTreeMap<u64, Bytes>,
    pid: u64,
    size: Bytes,
    report: &str,
) -> Result<(), SchedError> {
    match in_flight.get_mut(&pid) {
        Some(held) if size <= *held => {
            *held -= size;
            Ok(())
        }
        held => Err(SchedError::ProtocolViolation(format!(
            "{report} for {size} with {} in flight",
            held.map_or(Bytes::ZERO, |h| *h)
        ))),
    }
}

/// `id`'s record, if it is registered and open. Over the two maps alone,
/// so the caller's other fields stay borrowable while it holds the
/// record; `closed` is read only to name the error.
fn open_record<'a>(
    open: &'a mut BTreeMap<ContainerId, ContainerRecord>,
    closed: &BTreeMap<ContainerId, ContainerRecord>,
    id: ContainerId,
) -> Result<&'a mut ContainerRecord, SchedError> {
    open.get_mut(&id).ok_or_else(|| not_open(closed, id))
}

/// Why `id` has no open record: it closed, or it was never registered.
fn not_open(closed: &BTreeMap<ContainerId, ContainerRecord>, id: ContainerId) -> SchedError {
    if closed.contains_key(&id) {
        SchedError::ContainerClosed(id)
    } else {
        SchedError::UnknownContainer(id)
    }
}

impl Scheduler {
    /// Build a scheduler with the given policy.
    pub fn new(cfg: SchedulerConfig, policy: Box<dyn Policy>) -> Self {
        Scheduler {
            cfg,
            policy,
            open: BTreeMap::new(),
            closed: BTreeMap::new(),
            max_registered: None,
            total_assigned: Bytes::ZERO,
            total_used: Bytes::ZERO,
            candidates: Candidates::default(),
            next_ticket: 1,
            sticky_target: None,
            recorder: Recorder::default(),
            timeline: UtilizationTimeline::new(),
        }
    }

    /// Attach an observability sink. Purely additive: metrics and spans
    /// are side effects only and never feed back into scheduling.
    pub fn attach_obs(&mut self, obs: SchedObs) {
        self.recorder.obs = Some(obs);
    }

    /// The attached observability sink, if any.
    pub fn obs(&self) -> Option<&SchedObs> {
        self.recorder.obs.as_ref()
    }

    /// The decision log (bounded ring of recent scheduling decisions).
    pub fn log(&self) -> &DecisionLog {
        &self.recorder.log
    }

    /// The utilization timeline (assigned/used after every event).
    pub fn timeline(&self) -> &UtilizationTimeline {
        &self.timeline
    }

    /// Record the current memory state on the timeline. Called by every
    /// public mutating entry point; O(1) in time and memory — both totals
    /// are maintained incrementally, and the timeline keeps an integral.
    fn sample(&mut self, now: SimTime) {
        self.timeline
            .record(now, self.total_assigned, self.total_used);
    }

    /// Write the books into the attached registry's gauges: the pool's
    /// assigned/unassigned bytes, then the four gauges of each open
    /// container. The scrape hook ([`SchedulerBackend::observe_progress`])
    /// calls it under the scheduler lock, so a transition writes no gauge
    /// and a close, which retires the container's series, cannot race a
    /// scrape that would recreate them.
    ///
    /// [`SchedulerBackend::observe_progress`]: crate::backend::SchedulerBackend::observe_progress
    pub(crate) fn publish_gauges(&self) {
        let Some(obs) = &self.recorder.obs else {
            return;
        };
        let (reg, pool) = (&obs.registry, obs.scoped(&[]));
        reg.set_gauge(SCHED_ASSIGNED, &pool, self.total_assigned.as_u64() as f64);
        reg.set_gauge(SCHED_UNASSIGNED, &pool, self.unassigned().as_u64() as f64);
        for rec in self.open() {
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

    /// Read access to a container record, open or closed.
    pub fn container(&self, id: ContainerId) -> Option<&ContainerRecord> {
        self.open.get(&id).or_else(|| self.closed.get(&id))
    }

    /// Iterate all records, open and closed, in container-id order.
    /// Determinism is structural: the records live in two ordered maps
    /// and this merges them, so every consumer (metrics, the model
    /// checker) sees the same sequence with no per-call sort or
    /// allocation.
    pub fn containers(&self) -> impl Iterator<Item = &ContainerRecord> {
        let mut open = self.open.values().peekable();
        let mut closed = self.closed.values().peekable();
        std::iter::from_fn(move || match (open.peek(), closed.peek()) {
            (Some(o), Some(c)) if c.id < o.id => closed.next(),
            (Some(_), _) => open.next(),
            (None, _) => closed.next(),
        })
    }

    /// Iterate the open (registered, not closed) records in container-id
    /// order: for walks that want only live containers, whose cost then
    /// follows the open containers alone.
    pub fn open(&self) -> impl ExactSizeIterator<Item = &ContainerRecord> {
        self.open.values()
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
        self.max_registered.is_some_and(|m| id <= m)
            && (self.open.contains_key(&id) || self.closed.contains_key(&id))
    }

    /// File a new record and raise the registration mark.
    fn insert_record(&mut self, rec: ContainerRecord) {
        self.max_registered = self.max_registered.max(Some(rec.id));
        self.open.insert(rec.id, rec);
    }

    /// What registering `limit` here reserves: the limit plus the context
    /// overhead this config charges. Placement compares this, not a
    /// guess, against free memory and device capacity.
    pub fn requirement(&self, limit: Bytes) -> Bytes {
        limit + self.cfg.ctx_overhead
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
        let requirement = self.requirement(limit);
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
        self.recorder.decision(
            now,
            Decision::Registered {
                id,
                limit,
                assigned: take,
            },
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
        let rec = open_record(&mut self.open, &self.closed, id)?;
        if size.is_zero() {
            return Ok((AllocOutcome::Rejected, Vec::new()));
        }
        let need = self.cfg.need(rec, pid, size);
        // Over the declared limit → reject outright (paper: "rejects if
        // the memory is already exceeded").
        if rec.used + need > rec.requirement {
            rec.rejected_allocs += 1;
            self.recorder
                .decision(now, Decision::Rejected { id, pid, size });
            return Ok((AllocOutcome::Rejected, Vec::new()));
        }
        // Fairness: while earlier requests are parked, later ones park
        // behind them regardless of size. A running container is granted
        // when the request fits its budget once topped up from the
        // unassigned pool (Fig. 3b); within the budget it already holds
        // the top-up is zero, and no pool math runs.
        let running = !rec.is_suspended();
        if running {
            let short = (rec.used + need).saturating_sub(rec.assigned);
            let top_up = if short.is_zero() {
                Bytes::ZERO
            } else {
                unassigned.min(rec.deficit())
            };
            if short <= top_up {
                let (assigned, used) = (&mut self.total_assigned, &mut self.total_used);
                book_grant(rec, assigned, used, pid, size, need, top_up);
                let charged = need;
                self.recorder
                    .decision(now, Decision::Granted { id, pid, charged });
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
        self.recorder
            .decision(now, Decision::Suspended { id, ticket, size });
        // Liveness: a suspended container must not sit on reservation it
        // is not using — scattered partial holds are exactly the
        // hold-and-wait pattern that deadlocks naive sharing. Return the
        // unused part to the pool and let the policy redistribute it
        // (the sticky target accumulates it instead).
        let give_back = if running {
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
        // The stronger state-level version (every parked ticket unique)
        // lives in `check_invariants`.
        debug_assert!(
            actions.iter().all(|a| a.ticket != ticket),
            "a just-parked request cannot resume from its own give-back"
        );
        self.sample(now);
        self.audit_check();
        Ok((AllocOutcome::Suspended { ticket }, actions))
    }

    /// Wrapper: the granted allocation succeeded on the device at `addr`.
    /// Only the pid's own bytes in flight can have been allocated: a
    /// larger report, one from a pid without a grant (or after its exit),
    /// or a second one for a live address, is refused and the books stay
    /// as they were — a hostile wrapper must not re-size a live
    /// allocation or file bytes a later `free` would take off another's
    /// charge.
    pub fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        _now: SimTime,
    ) -> Result<(), SchedError> {
        let rec = open_record(&mut self.open, &self.closed, id)?;
        let Entry::Vacant(entry) = rec.allocations.entry(addr) else {
            return Err(SchedError::ProtocolViolation(format!(
                "duplicate AllocDone for address 0x{addr:x}"
            )));
        };
        take_in_flight(&mut rec.in_flight, pid, size, "AllocDone")?;
        entry.insert((pid, size));
        self.audit_check();
        Ok(())
    }

    /// Wrapper: a granted allocation failed on the device (fragmentation).
    /// Releases the reservation made at grant time; the container's own
    /// parked requests may now fit. Only the pid's own bytes in flight —
    /// granted, not filed by `alloc_done`, not its context charge — can
    /// have failed: any other report is refused and the books stay as
    /// they were, as for `alloc_done`.
    pub fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let released = self.release(id, now, |rec| {
            take_in_flight(&mut rec.in_flight, pid, size, "AllocFailed").map(|()| size)
        });
        released.map(|(_, resumes)| resumes)
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
        self.release(id, now, |rec| {
            let Some((_pid, size)) = rec.allocations.remove(&addr) else {
                return Ok(Bytes::ZERO);
            };
            Ok(rec.used.min(size))
        })
    }

    /// The release both `free` and `alloc_failed` are: take the bytes
    /// `bytes` picks (or refuses) off `id`'s charge, then re-evaluate the
    /// container's parked requests within its own budget. A release of
    /// nothing changes nothing.
    fn release(
        &mut self,
        id: ContainerId,
        now: SimTime,
        bytes: impl FnOnce(&mut ContainerRecord) -> Result<Bytes, SchedError>,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        let rec = open_record(&mut self.open, &self.closed, id)?;
        let before = Candidate::of(rec);
        let released = bytes(rec)?;
        let resumes = if released.is_zero() {
            Vec::new()
        } else {
            rec.used -= released;
            self.total_used -= released;
            self.drain_pending(id, before, now, false)
        };
        self.sample(now);
        self.audit_check();
        Ok((released, resumes))
    }

    /// Wrapper: serve `cudaMemGetInfo` from the books — the container's
    /// virtualized view `(limit - live-usage, limit)`. A closed container
    /// has no view to serve, as for every other per-container request.
    pub fn mem_info(&self, id: ContainerId, _pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        let rec = self
            .open
            .get(&id)
            .ok_or_else(|| not_open(&self.closed, id))?;
        let free = rec.requirement.saturating_sub(rec.used).min(rec.limit);
        Ok((free, rec.limit))
    }

    /// Wrapper: `__cudaUnregisterFatBinary` — process `pid` exited. Drops
    /// every allocation recorded for the pid (leak reclaim), its grants
    /// still in flight and its context charge, cancels its parked requests
    /// (a dead process cannot receive a resume), then re-evaluates the
    /// container's others.
    pub fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let rec = open_record(&mut self.open, &self.closed, id)?;
        let before = Candidate::of(rec);
        let mut reclaimed = Bytes::ZERO;
        rec.allocations.retain(|_, &mut (p, size)| {
            if p == pid {
                reclaimed += size;
            }
            p != pid
        });
        if let Some(held) = rec.in_flight.remove(&pid) {
            reclaimed += held + self.cfg.ctx_overhead;
        }
        rec.used -= reclaimed;
        self.total_used -= reclaimed;
        self.recorder
            .decision(now, Decision::ProcessExited { id, pid, reclaimed });
        let mut actions = Vec::new();
        let mut at = 0;
        while at < rec.pending.len() {
            if rec.pending[at].pid == pid {
                let answer = Answer::Cancelled;
                actions.push(self.recorder.answer(rec, at, answer, now));
            } else {
                at += 1;
            }
        }
        actions.extend(self.drain_pending(id, before, now, false));
        self.sample(now);
        self.audit_check();
        Ok(actions)
    }

    /// The `convgpu` volume driver, from inside `Engine::stop`: the
    /// container stopped. Releases its whole reservation and
    /// redistributes to suspended containers per the policy (Fig. 3d).
    pub fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let Some(mut rec) = self.open.remove(&id) else {
            // Idempotent: a close the router retries after a lost reply
            // finds the record closed.
            return match not_open(&self.closed, id) {
                SchedError::ContainerClosed(_) => Ok(Vec::new()),
                unknown => Err(unknown),
            };
        };
        self.candidates.update(Candidate::of(&rec), None);
        let ended = rec.note_resume(now);
        rec.state = ContainerState::Closed;
        rec.closed_at = Some(now);
        // Replaced, not cleared: a closed record keeps no heap.
        rec.allocations = HashMap::new();
        rec.in_flight = BTreeMap::new();
        self.total_used -= rec.used;
        rec.used = Bytes::ZERO;
        let released = rec.assigned;
        self.total_assigned -= rec.assigned;
        rec.assigned = Bytes::ZERO;
        self.recorder.episode_ended(id, ended);
        self.recorder
            .decision(now, Decision::Closed { id, released });
        // Cancel parked requests so any still-live waiter unblocks.
        let mut actions = Vec::new();
        while !rec.pending.is_empty() {
            let answer = Answer::Cancelled;
            actions.push(self.recorder.answer(&mut rec, 0, answer, now));
        }
        rec.pending = VecDeque::new();
        let opened = rec.registered_at;
        self.recorder.closed(id, opened, self.policy.name(), now);
        self.closed.insert(id, rec);
        actions.extend(self.redistribute(now));
        self.sample(now);
        self.audit_check();
        Ok(actions)
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
                let rec = self.open.get_mut(&id).expect("indexed containers exist");
                let before = Candidate::of(rec);
                let back = rec.assigned - rec.used;
                rec.assigned = rec.used;
                self.total_assigned -= back;
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
                    .open
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
                    if let Some(obs) = &self.recorder.obs {
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
                .open
                .get_mut(&pick)
                .expect("policy picked a live candidate");
            let before = Candidate::of(rec);
            // Top up "until the assigned memory reaches the required
            // memory size", bounded by what is left.
            let take = remaining.min(rec.deficit());
            rec.assigned += take;
            self.total_assigned += take;
            let deficit = rec.deficit();
            self.recorder.decision(
                now,
                Decision::ToppedUp {
                    id: pick,
                    amount: take,
                    deficit,
                },
            );
            if deficit.is_zero() {
                self.sticky_target = None;
            }
            actions.extend(self.drain_pending(pick, before, now, true));
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
        let Some(rec) = self.open.get_mut(&id) else {
            return Vec::new();
        };
        if require_full && !rec.fully_guaranteed() {
            self.candidates.update(before, Candidate::of(rec));
            return Vec::new();
        }
        let mut actions = Vec::new();
        while let Some(&PendingAlloc { pid, size, .. }) = rec.pending.front() {
            let need = self.cfg.need(rec, pid, size);
            let answer = if rec.used + need > rec.requirement {
                // Stacked pendings overran the limit: reject this one now.
                rec.rejected_allocs += 1;
                Answer::Rejected
            } else if rec.used + need <= rec.assigned {
                let (assigned, used) = (&mut self.total_assigned, &mut self.total_used);
                book_grant(rec, assigned, used, pid, size, need, Bytes::ZERO);
                Answer::Granted
            } else {
                break; // head still does not fit; keep FIFO order
            };
            actions.push(self.recorder.answer(rec, 0, answer, now));
        }
        let ended = if rec.pending.is_empty() {
            rec.note_resume(now)
        } else {
            None
        };
        self.candidates.update(before, Candidate::of(rec));
        self.recorder.episode_ended(id, ended);
        actions
    }
    /// The shared safety oracle: evaluates every invariant documented in
    /// [`crate::invariant`] and reports the first violation. Used by unit
    /// and property tests, by the `convgpu-audit` bounded model checker
    /// after every explored transition, and — in debug builds — by every
    /// mutating entry point of the live scheduler itself.
    pub fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let mut sum_assigned = Bytes::ZERO;
        let mut sum_used = Bytes::ZERO;
        let mut expected_index: Vec<Candidate> = Vec::new();
        let mut seen_tickets = BTreeSet::new();
        // Store consistency: a record sits in `open` exactly while it is
        // not closed, and a closed one keeps nothing a transition could
        // still reach.
        let misfiled = |rec: &ContainerRecord, in_closed| {
            Err(InvariantViolation::MisfiledRecord {
                container: rec.id,
                state: rec.state,
                in_closed,
            })
        };
        if let Some(rec) = self.open().find(|r| r.state == ContainerState::Closed) {
            return misfiled(rec, false);
        }
        if let Some(rec) = self.closed.values().find(|r| {
            r.state != ContainerState::Closed
                || !r.pending.is_empty()
                || !r.in_flight.is_empty()
                || !r.allocations.is_empty()
        }) {
            return misfiled(rec, true);
        }
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
            // An open container's `used` is, per pid holding an entry, its
            // context charge, its bytes in flight and its filed
            // allocations. A filed allocation of a pid without an entry
            // counts for nothing here, so it shows as a mismatch too.
            if rec.state != ContainerState::Closed {
                let ctx = self.cfg.ctx_overhead;
                let held = rec
                    .in_flight
                    .values()
                    .fold(Bytes::ZERO, |s, &b| s + ctx + b);
                let filed: Bytes = rec
                    .allocations
                    .values()
                    .filter(|(pid, _)| rec.in_flight.contains_key(pid))
                    .map(|&(_, size)| size)
                    .sum();
                let booked = held + filed;
                if booked != rec.used {
                    return Err(InvariantViolation::LedgerMismatch {
                        container: rec.id,
                        booked,
                        used: rec.used,
                    });
                }
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

    /// In debug builds, re-check every invariant; a violation means the
    /// scheduler state is corrupt and continuing would corrupt container
    /// accounting further, so panic with the typed diagnosis. Release
    /// builds check nothing here: the walk covers every record, closed
    /// ones included, and would cost every transition on the `cudaMalloc`
    /// path.
    fn audit_check(&self) {
        if cfg!(debug_assertions) {
            if let Err(violation) = self.check_invariants() {
                panic!("scheduler invariant violated: {violation}");
            }
        }
    }
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
            s.register(c9, mib(10), t(2)),
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

    /// A process's exit reclaims all it holds: its filed allocations, its
    /// grant still in flight and its context charge. A report arriving
    /// after the exit is refused and changes nothing.
    #[test]
    fn process_exit_reclaims_leaks_and_overhead() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        let refused_after_exit = |s: &mut Scheduler, pid| {
            assert!(matches!(
                s.alloc_done(C1, pid, 0xF, mib(100), t(9)),
                Err(SchedError::ProtocolViolation(_))
            ));
            assert!(matches!(
                s.alloc_failed(C1, pid, mib(100), t(9)),
                Err(SchedError::ProtocolViolation(_))
            ));
            let r = s.container(C1).unwrap();
            assert_eq!(r.used, Bytes::ZERO);
            assert!(r.allocations.is_empty() && r.in_flight.is_empty());
            s.check_invariants().unwrap();
        };
        // Pid 7 is granted 100 MiB and exits before reporting it.
        s.alloc_request(C1, 7, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(166));
        s.process_exit(C1, 7, t(2)).unwrap();
        refused_after_exit(&mut s, 7);
        // Pid 1 files two allocations and exits without freeing them.
        s.alloc_request(C1, 1, mib(200), ApiKind::Malloc, t(3))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(200), t(3)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(4))
            .unwrap();
        s.alloc_done(C1, 1, 0xB, mib(100), t(4)).unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(366));
        s.process_exit(C1, 1, t(5)).unwrap();
        refused_after_exit(&mut s, 1);
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
        // Every per-container request on a closed container errors,
        // `mem_info` included, and its id cannot register again.
        let e = SchedError::ContainerClosed(C1);
        assert_eq!(
            s.alloc_request(C1, 1, mib(1), ApiKind::Malloc, t(4))
                .unwrap_err(),
            e
        );
        assert_eq!(s.alloc_done(C1, 1, 1, mib(1), t(4)).unwrap_err(), e);
        assert_eq!(s.alloc_failed(C1, 1, mib(1), t(4)).unwrap_err(), e);
        assert_eq!(s.free(C1, 1, 1, t(4)).unwrap_err(), e);
        assert_eq!(s.mem_info(C1, 1).unwrap_err(), e);
        assert_eq!(s.process_exit(C1, 1, t(4)).unwrap_err(), e);
        assert_eq!(
            s.register(C1, mib(512), t(4)),
            Err(SchedError::AlreadyRegistered(C1))
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
        // the iterator — a merge of the two ordered maps, no sort, no
        // allocation — still yields ascending ids.
        let mut s = sched(5120, PolicyKind::Fifo);
        for id in [5u64, 1, 4, 2, 3] {
            s.register(ContainerId(id), mib(10), t(0)).unwrap();
        }
        let ids = |s: &Scheduler| s.containers().map(|r| r.id.as_u64()).collect::<Vec<_>>();
        assert_eq!(ids(&s), vec![1, 2, 3, 4, 5]);
        // Closes interleave with registrations: old ids close while newer
        // ones stay open, and ids below the mark arrive late.
        s.container_close(C2, t(1)).unwrap();
        s.register(ContainerId(9), mib(10), t(1)).unwrap();
        s.container_close(ContainerId(5), t(2)).unwrap();
        s.register(ContainerId(7), mib(10), t(2)).unwrap();
        s.container_close(C1, t(3)).unwrap();
        s.register(ContainerId(6), mib(10), t(3)).unwrap();
        s.container_close(ContainerId(9), t(4)).unwrap();
        assert_eq!(ids(&s), vec![1, 2, 3, 4, 5, 6, 7, 9]);
        // And the two maps agree: the merge is their union, `open()` the
        // open map alone.
        let keys = |m: &BTreeMap<ContainerId, ContainerRecord>| {
            m.keys().map(|k| k.as_u64()).collect::<Vec<_>>()
        };
        assert_eq!(keys(&s.open), vec![3, 4, 6, 7]);
        assert_eq!(keys(&s.closed), vec![1, 2, 5, 9]);
        let open: Vec<u64> = s.open().map(|r| r.id.as_u64()).collect();
        assert_eq!(open, keys(&s.open));
        s.check_invariants().unwrap();
    }

    /// A close moves the record out of the map every transition searches
    /// and leaves it no heap: its tables are replaced, not cleared.
    #[test]
    fn a_closed_record_holds_no_heap() {
        let mut s = sched(1200, PolicyKind::Fifo);
        s.register(C1, mib(1000), t(0)).unwrap();
        s.register(C2, mib(1000), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(500), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(500), t(1)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_request(C2, 2, mib(500), ApiKind::Malloc, t(2))
            .unwrap();
        s.alloc_request(C2, 2, mib(100), ApiKind::Malloc, t(2))
            .unwrap();
        assert!(s.container(C2).unwrap().is_suspended());
        for id in [C2, C1] {
            s.container_close(id, t(3)).unwrap();
            let r = s.container(id).unwrap();
            assert_eq!(r.state, ContainerState::Closed);
            assert_eq!(r.allocations.capacity(), 0, "{id}: allocations");
            assert_eq!(r.pending.capacity(), 0, "{id}: pending");
            assert!(r.in_flight.is_empty(), "{id}: in flight");
            assert!(!s.open.contains_key(&id) && s.closed.contains_key(&id));
        }
        assert_eq!(s.open().count(), 0);
        s.check_invariants().unwrap();
    }

    /// `check_invariants` catches a record in the wrong map: a closed one
    /// left among the open, or a closed one that still holds a request.
    #[test]
    fn a_misfiled_record_is_a_violation() {
        let mut s = sched(1000, PolicyKind::Fifo);
        s.register(C1, mib(100), t(0)).unwrap();
        s.container_close(C1, t(1)).unwrap();
        let mut rec = s.closed.remove(&C1).unwrap();
        s.open.insert(C1, rec.clone());
        let misfiled = |in_closed| InvariantViolation::MisfiledRecord {
            container: C1,
            state: ContainerState::Closed,
            in_closed,
        };
        assert_eq!(s.check_invariants(), Err(misfiled(false)));
        s.open.remove(&C1);
        rec.in_flight.insert(1, Bytes::ZERO);
        s.closed.insert(C1, rec);
        assert_eq!(s.check_invariants(), Err(misfiled(true)));
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

    /// A container's lifetime span id lives from its registration to its
    /// close, so the map holds the open containers, not every one served.
    #[test]
    fn span_ids_are_dropped_at_close() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.attach_obs(SchedObs::new(
            Arc::new(Registry::new()),
            Arc::new(Tracer::new()),
        ));
        for i in 1..=300 {
            s.register(ContainerId(i), mib(10), t(i)).unwrap();
            if i > 2 {
                s.container_close(ContainerId(i - 2), t(i)).unwrap();
            }
        }
        let mut open: Vec<_> = s.recorder.container_spans.keys().copied().collect();
        open.sort_unstable();
        assert_eq!(open, [ContainerId(299), ContainerId(300)]);
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

    /// A report of a failed grant may release only bytes that are in
    /// flight: granted, not yet filed by `alloc_done`, and not a context
    /// charge. Once the grant is filed, its failure report is refused and
    /// the books stay as they were.
    #[test]
    fn alloc_failed_refuses_bytes_already_filed() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_done(C1, 1, 0xA, mib(100), t(1)).unwrap();
        assert!(matches!(
            s.alloc_failed(C1, 1, mib(100), t(2)),
            Err(SchedError::ProtocolViolation(_))
        ));
        assert_eq!(s.container(C1).unwrap().used, mib(166));
        s.check_invariants().unwrap();
    }

    /// `alloc_done` may file only the pid's own bytes in flight. A
    /// 150 MiB report for a 100 MiB grant would let the later `free` take
    /// 50 MiB of the pid's context charge off the books while the device
    /// still holds it. Nor may a report draw on another pid's grant.
    #[test]
    fn alloc_done_refuses_more_than_is_in_flight() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(166));
        let refused = |s: &mut Scheduler, pid, addr, size| {
            assert!(matches!(
                s.alloc_done(C1, pid, addr, mib(size), t(1)),
                Err(SchedError::ProtocolViolation(_))
            ));
        };
        refused(&mut s, 1, 0xA, 150);
        // Pid 2 holds no grant; then one of 10 MiB, which pid 1's bytes
        // in flight do not stretch.
        refused(&mut s, 2, 0xA, 50);
        s.alloc_request(C1, 2, mib(10), ApiKind::Malloc, t(1))
            .unwrap();
        refused(&mut s, 2, 0xA, 50);
        assert!(s.container(C1).unwrap().allocations.is_empty());
        s.check_invariants().unwrap();
        // Each grant itself files, pid 1's in two parts, and nothing more.
        s.alloc_done(C1, 1, 0xA, mib(60), t(2)).unwrap();
        s.alloc_done(C1, 1, 0xB, mib(40), t(2)).unwrap();
        s.alloc_done(C1, 2, 0xC, mib(10), t(2)).unwrap();
        refused(&mut s, 1, 0xD, 1);
        s.check_invariants().unwrap();
        assert_eq!(s.free(C1, 1, 0xA, t(3)).unwrap().0, mib(60));
        assert_eq!(s.free(C1, 1, 0xB, t(3)).unwrap().0, mib(40));
        assert_eq!(s.free(C1, 2, 0xC, t(3)).unwrap().0, mib(10));
        assert_eq!(s.container(C1).unwrap().used, mib(2 * 66));
        s.check_invariants().unwrap();
    }

    /// One failed grant is released once: a second report for it would
    /// take the pid's context charge, and is refused.
    #[test]
    fn second_alloc_failed_for_one_grant_keeps_the_context_charge() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.register(C1, mib(512), t(0)).unwrap();
        s.alloc_request(C1, 1, mib(100), ApiKind::Malloc, t(1))
            .unwrap();
        s.alloc_failed(C1, 1, mib(100), t(2)).unwrap();
        assert_eq!(s.container(C1).unwrap().used, mib(66));
        assert!(matches!(
            s.alloc_failed(C1, 1, mib(100), t(3)),
            Err(SchedError::ProtocolViolation(_))
        ));
        assert_eq!(s.container(C1).unwrap().used, mib(66));
        assert_eq!(s.container(C1).unwrap().in_flight.get(&1), Some(&mib(0)));
        s.check_invariants().unwrap();
    }

    /// Every parked request is answered exactly once, whichever way it
    /// leaves its queue: granted or rejected by a drain, cancelled by its
    /// process's exit or by its container's close. Each answer is one
    /// `ResumeAction` and one `suspend_wait` span naming the outcome.
    #[test]
    fn every_parked_request_is_answered_once() {
        use convgpu_obs::trace::CollectorSink;
        let tracer = Arc::new(Tracer::new());
        let spans = Arc::new(CollectorSink::new());
        tracer.add_sink(Arc::clone(&spans) as Arc<dyn convgpu_obs::trace::SpanSink>);
        let mut s = sched(1000, PolicyKind::Fifo);
        s.attach_obs(SchedObs::new(Arc::new(Registry::new()), tracer));
        s.register(C2, mib(300), t(0)).unwrap(); // 366 assigned
        s.register(C1, mib(600), t(0)).unwrap(); // 634 of 666 assigned
        let grant = |s: &mut Scheduler, pid, size, addr| {
            let (out, _) = s
                .alloc_request(C1, pid, mib(size), ApiKind::Malloc, t(1))
                .unwrap();
            assert_eq!(out, AllocOutcome::Granted);
            s.alloc_done(C1, pid, addr, mib(size), t(1)).unwrap();
        };
        grant(&mut s, 1, 200, 0xA);
        grant(&mut s, 1, 100, 0xB); // used 366
        let mut tickets = Vec::new();
        // pid 2 (286 with its context) parks; pid 1's 200 parks behind it
        // and overruns the limit once pid 2 is granted; pid 3's 40 (106)
        // and pid 1's 100 do not fit the 634 assigned; pid 2's 50 waits
        // behind them.
        for (pid, size) in [(2, 220), (1, 200), (3, 40), (1, 100), (2, 50)] {
            let (out, resumes) = s
                .alloc_request(C1, pid, mib(size), ApiKind::Malloc, t(2))
                .unwrap();
            let AllocOutcome::Suspended { ticket } = out else {
                panic!("pid {pid}'s {size} MiB should park, got {out:?}");
            };
            assert!(resumes.is_empty());
            tickets.push(ticket);
        }
        let mut answered = Vec::new();
        let (freed, resumes) = s.free(C1, 1, 0xB, t(3)).unwrap();
        assert_eq!(freed, mib(100));
        answered.extend(resumes);
        answered.extend(s.process_exit(C1, 3, t(4)).unwrap());
        answered.extend(s.container_close(C1, t(5)).unwrap());
        s.check_invariants().unwrap();

        let rejected = AllocDecision::Rejected;
        let expected = [
            (tickets[0], AllocDecision::Granted, "granted"),
            (tickets[1], rejected, "rejected"),
            (tickets[2], rejected, "cancelled"),
            (tickets[3], rejected, "cancelled"),
            (tickets[4], rejected, "cancelled"),
        ];
        let got: Vec<(u64, AllocDecision)> =
            answered.iter().map(|a| (a.ticket, a.decision)).collect();
        let want: Vec<(u64, AllocDecision)> = expected.iter().map(|&(t, d, _)| (t, d)).collect();
        assert_eq!(got, want, "each ticket answered once, in this order");
        let waits: Vec<(u64, String)> = spans
            .records()
            .into_iter()
            .filter(|r| r.name == "suspend_wait")
            .map(|r| {
                let attr = |k: &str| r.attrs.iter().find(|(n, _)| n == k).unwrap().1.clone();
                (attr("ticket").parse().unwrap(), attr("outcome"))
            })
            .collect();
        let want: Vec<(u64, String)> = expected
            .iter()
            .map(|&(t, _, o)| (t, o.to_string()))
            .collect();
        assert_eq!(waits, want, "one suspend_wait span per ticket");
    }

    #[test]
    #[should_panic(expected = "scheduler invariant violated")]
    #[cfg(debug_assertions)]
    fn a_debug_build_rechecks_the_books_after_a_transition() {
        let mut s = sched(5120, PolicyKind::Fifo);
        s.total_used += mib(1);
        let _ = s.register(C1, mib(10), t(0));
    }
}
