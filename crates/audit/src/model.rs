//! Bounded model checker for the ConVGPU scheduler (§III-D/E), on every
//! topology.
//!
//! The checker drives a real scheduler — not a re-implementation —
//! through **every** interleaving of container lifecycle events for a
//! small, quantized universe, and checks the property list below after
//! every transition. There is one explorer, generic over the
//! [`SchedulerBackend`] under test: a single device ([`Scheduler`]), a
//! multi-GPU host, a cluster, or a cluster whose nodes can die. A
//! universe ([`ModelConfig`]) names the [`Topology`] and the sizes; the
//! sibling modules [`crate::multi`], [`crate::cluster`] and
//! [`crate::migration`] only define universes.
//!
//! # The model
//!
//! Each container is driven by a model of its wrapper + one process:
//!
//! * `Register` — nvidia-docker declares the container (fixed limit);
//! * `Alloc(size)` — the process calls `cudaMalloc(size)`; a granted
//!   request immediately reports `alloc_done` at a fresh address, a
//!   suspended one records the outstanding ticket;
//! * `Free` — the process frees its oldest live allocation;
//! * `Exit` — the process dies (`__cudaUnregisterFatBinary`), possibly
//!   while suspended or while holding memory (leak reclaim path);
//! * `Close` — the container stops (volume-unmount plugin event),
//!   allowed at any point after registration;
//! * `Kill(n)` — node `n` dies and the cluster drains it onto the
//!   survivors (only in a universe with node death, see
//!   [`crate::migration`]).
//!
//! A suspended container issues no new requests (its thread is blocked in
//! the CUDA call, exactly as in the live wrapper) but can still `Exit` or
//! `Close` — those are exactly the paths where wakeups get lost in buggy
//! schedulers.
//!
//! # State-space soundness
//!
//! Explored states are deduplicated under a *canonical* encoding that
//! replaces absolute times with relative ranks (registration order,
//! suspension order, per device) and device addresses with
//! allocation-size sequences. Every scheduler decision — FIFO /
//! Recent-Use comparisons, the redistribution sort, Best-Fit deficits,
//! the sticky target, placement — depends only on those orders and on
//! quantities that the encoding keeps verbatim, so two states with equal
//! encodings are bisimilar and merging them is sound. Every piece of
//! hidden mutable state — each device's policy RNG, the round-robin
//! cursor, the Swarm RNG — is folded in via
//! [`SchedulerBackend::fingerprint`], so states are only merged when
//! their future random draws and placements coincide as well.
//!
//! Keys are stored as 128-bit FNV-style digests of the canonical vector
//! (two independent folds); at the ≤ 10⁷ states this checker is meant
//! for, a collision is beyond negligible (≈ 10⁻²⁴).
//!
//! # What is checked, per transition, on every topology
//!
//! 1. the **whole-topology invariant oracle**
//!    ([`SchedulerBackend::check_invariants`]): every device's safety
//!    invariants plus every level's home-map consistency — with adopted
//!    budgets in the books, committed memory never exceeds a device;
//! 2. **no cross-shard record, no double-home** — a container's record
//!    exists only on its home device, so one device's (or node's)
//!    guarantees can never be backed by another's capacity. Once a node
//!    has been drained it may keep the closed tombstone of a container
//!    that moved on; tombstones hold no budget, so from then on the
//!    property reads "no *open* record off the home";
//! 3. **per-device deadlock-freedom** — [`deadlock::assess`] never
//!    reports `Stalled` on any device, mid-migration included (the §III-E
//!    argument applies per device because memory never migrates across
//!    devices, let alone nodes);
//! 4. **wakeup consistency under stacked ticket tags** — the set of
//!    tickets the driver is owed equals the set of requests parked across
//!    all devices, each under the full tag its device reports
//!    ([`SchedulerBackend::each_device`]), so tagging can neither lose,
//!    invent, nor cross-wire a wakeup; a drain cancels the dying
//!    containers' parked tickets with explicit rejections, never silently;
//! 5. **tag canonicality** — every outstanding ticket is parked on its
//!    container's *current* home device and carries exactly that device's
//!    tag, post-move tickets included (shard 0's tags are zero, which is
//!    why node-0 tickets are bit-for-bit single-host tickets — see
//!    `tests/golden/`);
//! 6. **budget conservation across a drain** — the `used` bytes a
//!    migration carries cover every byte the driver had live on the
//!    source and exceed them by at most what the drain itself granted
//!    from that container's parked tickets, and the adoptive home's own
//!    record opens with exactly the carried budget marked used;
//! 7. at every *terminal* state (all containers closed): no memory is
//!    still assigned on any device and no ticket is still outstanding.
//!    Terminal states are reachable from every state (any registered
//!    container may always close), so these terminal checks imply the
//!    "every suspended container is eventually resumed or rejected"
//!    liveness claim.

use convgpu_ipc::message::{AllocDecision, ApiKind};
use convgpu_scheduler::cluster::{ClusterNode, ClusterScheduler, MigrationMove, SwarmStrategy};
use convgpu_scheduler::deadlock::{self, ProgressState};
use convgpu_scheduler::{
    AllocOutcome, ContainerState, MultiGpuScheduler, PlacementPolicy, PolicyKind, ResumeAction,
    ResumeRule, Scheduler, SchedulerBackend, SchedulerConfig,
};
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;

/// One event of the lifecycle model. `c` is the container *index*
/// (0-based); the scheduler sees [`ContainerId`]`(c + 1)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// nvidia-docker registers container `c` with its configured limit.
    Register {
        /// Container index.
        c: usize,
    },
    /// Container `c`'s process requests `size` of device memory.
    Alloc {
        /// Container index.
        c: usize,
        /// Requested size.
        size: Bytes,
    },
    /// Container `c`'s process frees its oldest live allocation.
    Free {
        /// Container index.
        c: usize,
    },
    /// Container `c`'s process exits (leak-reclaim path).
    Exit {
        /// Container index.
        c: usize,
    },
    /// Container `c` stops.
    Close {
        /// Container index.
        c: usize,
    },
    /// Node `n` dies; the cluster drains it onto survivors.
    Kill {
        /// Node index.
        n: usize,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Register { c } => write!(f, "register(C{})", c + 1),
            Event::Alloc { c, size } => write!(f, "alloc(C{}, {size})", c + 1),
            Event::Free { c } => write!(f, "free(C{}, oldest)", c + 1),
            Event::Exit { c } => write!(f, "exit(C{})", c + 1),
            Event::Close { c } => write!(f, "close(C{})", c + 1),
            Event::Kill { n } => write!(f, "kill(node {n})"),
        }
    }
}

/// Search order. Depth-first needs memory proportional to the path
/// length only; breadth-first additionally keeps the frontier but finds
/// *minimal* counterexample traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchMode {
    /// Depth-first (default; constant memory beyond the visited set).
    Dfs,
    /// Breadth-first (minimal traces; use on small configurations).
    Bfs,
}

/// What stands under the driver.
#[derive(Clone, Debug)]
pub enum Topology {
    /// One device of this capacity.
    Single(Bytes),
    /// One host: a device per capacity, placed by `placement`.
    MultiGpu {
        /// Per-device capacities.
        capacities: Vec<Bytes>,
        /// Device placement policy under test.
        placement: PlacementPolicy,
    },
    /// Several nodes, placed by `strategy`.
    Cluster {
        /// Per-node, per-device capacities.
        nodes: Vec<Vec<Bytes>>,
        /// Swarm placement strategy under test.
        strategy: SwarmStrategy,
        /// Whether nodes can die (the [`crate::migration`] universe).
        node_death: bool,
    },
}

/// A bounded-model-checking configuration: the quantized universe the
/// checker explores exhaustively.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// The scheduler arrangement under test.
    pub topology: Topology,
    /// Per-pid context overhead (only charged if `charge_ctx`).
    pub ctx_overhead: Bytes,
    /// Whether to charge the context overhead.
    pub charge_ctx: bool,
    /// Resume discipline under test.
    pub resume_rule: ResumeRule,
    /// Declared limit per container (the vector length is the container
    /// count).
    pub limits: Vec<Bytes>,
    /// The quantized allocation-size menu.
    pub alloc_sizes: Vec<Bytes>,
    /// Maximum allocation requests *issued* per container (granted,
    /// rejected or parked all count).
    pub max_allocs: u32,
    /// Redistribution policy running on every device.
    pub policy: PolicyKind,
    /// Seed for the Random policy and the Random strategy.
    pub seed: u64,
    /// Abort if the visited set exceeds this bound.
    pub max_states: usize,
    /// Search order.
    pub mode: SearchMode,
}

impl ModelConfig {
    /// The default exhaustive sweep: 3 containers on a 1 GiB device,
    /// 256 MiB quanta, no context overhead, full guarantee.
    pub fn three_containers(policy: PolicyKind) -> Self {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::Single(Bytes::new(u.0 * 4)),
            ctx_overhead: Bytes::ZERO,
            charge_ctx: false,
            resume_rule: ResumeRule::FullGuarantee,
            limits: vec![
                Bytes::new(u.0 * 2),
                Bytes::new(u.0 * 2),
                Bytes::new(u.0 * 3),
            ],
            alloc_sizes: vec![u, Bytes::new(u.0 * 2)],
            max_allocs: 2,
            policy,
            seed: 0xC0DE,
            max_states: 10_000_000,
            mode: SearchMode::Dfs,
        }
    }

    /// A 2-container sweep with the paper's 66 MiB per-pid context
    /// overhead charged, to exercise the overhead accounting paths.
    pub fn two_containers_with_ctx(policy: PolicyKind) -> Self {
        ModelConfig {
            topology: Topology::Single(Bytes::gib(1)),
            ctx_overhead: Bytes::mib(66),
            charge_ctx: true,
            limits: vec![Bytes::mib(512), Bytes::mib(512)],
            alloc_sizes: vec![Bytes::mib(128), Bytes::mib(256)],
            ..Self::three_containers(policy)
        }
    }

    /// The `--quick` trim: at most one allocation request per container.
    pub fn quick(mut self) -> Self {
        self.max_allocs = self.max_allocs.min(1);
        self
    }

    /// Base config of every device; each overrides only its capacity.
    fn device_config(&self, capacity: Bytes) -> SchedulerConfig {
        SchedulerConfig {
            capacity,
            ctx_overhead: self.ctx_overhead,
            charge_ctx_overhead: self.charge_ctx,
            resume_rule: self.resume_rule,
            default_limit: self.limits[0],
        }
    }

    /// Build the root scheduler for the topology and hand it to the
    /// generic search: exhaustive, or along `script` when one is given.
    fn run(&self, script: Option<&[Event]>) -> CheckOutcome {
        match &self.topology {
            Topology::Single(capacity) => {
                let root =
                    Scheduler::new(self.device_config(*capacity), self.policy.build(self.seed));
                search(self, root, None, script)
            }
            Topology::MultiGpu {
                capacities,
                placement,
            } => {
                let root = MultiGpuScheduler::with_config(
                    self.device_config(capacities[0]),
                    capacities,
                    self.policy,
                    *placement,
                    self.seed,
                );
                search(self, root, None, script)
            }
            Topology::Cluster {
                nodes,
                strategy,
                node_death,
            } => {
                let base = self.device_config(nodes[0][0]);
                let built = nodes
                    .iter()
                    .enumerate()
                    .map(|(i, caps)| {
                        ClusterNode::with_config(
                            format!("n{i}"),
                            base.clone(),
                            caps,
                            self.policy,
                            self.seed.wrapping_add(i as u64),
                        )
                    })
                    .collect();
                let root = ClusterScheduler::new(built, *strategy, self.seed);
                let death = NodeDeath {
                    nodes: nodes.len(),
                    home: ClusterScheduler::home_of,
                    drain: ClusterScheduler::migrate_node,
                };
                search(self, root, node_death.then_some(&death), script)
            }
        }
    }
}

/// How the explorer kills a node of backend `B`: the one thing it needs
/// that the message surface does not carry.
struct NodeDeath<B> {
    nodes: usize,
    home: fn(&B, ContainerId) -> Option<usize>,
    drain: fn(&mut B, usize, SimTime) -> Drained,
}

/// What a drain reports: the moves, and the resume actions of the
/// source-side closes.
type Drained = (Vec<MigrationMove>, Vec<ResumeAction>);

/// Why a run failed, if it did.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The shared invariant oracle tripped.
    Invariant(String),
    /// §III-E violated: a reachable state where every open container of
    /// a device is suspended and none can be completed from the pool.
    Stalled {
        /// The deadlocked containers.
        waiting: Vec<ContainerId>,
    },
    /// The scheduler parked a request and the ticket vanished without a
    /// resume — the classic lost wakeup.
    LostWakeup {
        /// Tickets the driver is owed that the scheduler no longer holds.
        tickets: Vec<u64>,
    },
    /// The scheduler emitted a resume for a ticket that was never
    /// outstanding (double wakeup / invented wakeup).
    PhantomWakeup {
        /// The offending ticket.
        ticket: u64,
    },
    /// A model-legal call was refused (protocol regression), or a
    /// topology property (home, tag, conserved budget) broke.
    SchedError(String),
    /// All containers closed but memory is still assigned.
    TerminalResidue {
        /// Memory still assigned at the terminal state.
        assigned: Bytes,
    },
    /// The visited set outgrew `max_states`; the result is inconclusive.
    BoundExceeded {
        /// The configured bound.
        states: usize,
    },
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Invariant(v) => write!(f, "invariant violated: {v}"),
            Failure::Stalled { waiting } => {
                write!(f, "deadlock (Stalled) reached; waiting: {waiting:?}")
            }
            Failure::LostWakeup { tickets } => {
                write!(
                    f,
                    "lost wakeup: tickets {tickets:?} vanished without a resume"
                )
            }
            Failure::PhantomWakeup { ticket } => {
                write!(f, "phantom wakeup: resume for unknown ticket {ticket}")
            }
            Failure::SchedError(e) => write!(f, "scheduler refused a model-legal call: {e}"),
            Failure::TerminalResidue { assigned } => {
                write!(f, "terminal state still has {assigned} assigned")
            }
            Failure::BoundExceeded { states } => {
                write!(f, "state bound exceeded ({states} states); inconclusive")
            }
        }
    }
}

/// Exploration statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExploreStats {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions applied (including ones leading to known states).
    pub transitions: u64,
    /// Longest event path explored.
    pub max_depth: u64,
    /// Terminal (all-closed) states reached.
    pub terminals: u64,
    /// Transitions that left at least one container suspended — sanity
    /// signal that the configuration actually exercises contention.
    pub suspended_states: u64,
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8} states {:>9} transitions  depth {:>2}  {} terminal, {} suspended",
            self.states, self.transitions, self.max_depth, self.terminals, self.suspended_states
        )
    }
}

/// Result of one exhaustive run.
#[derive(Clone, Debug)]
pub enum CheckOutcome {
    /// Every reachable state satisfied every check.
    Pass(ExploreStats),
    /// A reachable state failed; `trace` replays it from the empty
    /// system (minimal under [`SearchMode::Bfs`]).
    Fail {
        /// What went wrong.
        failure: Failure,
        /// Event path from the initial state to the failure.
        trace: Vec<Event>,
        /// Statistics up to the failure.
        stats: ExploreStats,
    },
}

impl CheckOutcome {
    /// True for [`CheckOutcome::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, CheckOutcome::Pass(_))
    }
}

/// Driver-side state for one container's wrapper + process.
#[derive(Clone, Debug, Default)]
struct DriverContainer {
    registered: bool,
    exited: bool,
    closed: bool,
    /// Survived a drain onto a new node: its pre-kill device addresses
    /// died with the source, only the committed budget travelled.
    migrated: bool,
    allocs_issued: u32,
    /// Live device allocations in issue order (`free` pops the front).
    live: VecDeque<(u64, Bytes)>,
}

/// Driver-side state for the whole system.
#[derive(Clone, Debug)]
struct Driver {
    cs: Vec<DriverContainer>,
    /// Parked tickets the driver is owed, as the scheduler handed them
    /// out (fully tagged): ticket → (container, size).
    outstanding: BTreeMap<u64, (usize, Bytes)>,
    next_addr: u64,
    /// The node that died, once one has.
    killed: Option<usize>,
}

/// One node of the search: a full system state plus the path that
/// produced it.
#[derive(Clone)]
struct Node<B> {
    sched: B,
    driver: Driver,
    trace: Vec<Event>,
}

impl<B> Node<B> {
    fn root(sched: B, containers: usize) -> Self {
        Node {
            sched,
            driver: Driver {
                cs: vec![DriverContainer::default(); containers],
                outstanding: BTreeMap::new(),
                next_addr: 0x1000,
                killed: None,
            },
            trace: Vec::new(),
        }
    }
}

fn cid(c: usize) -> ContainerId {
    ContainerId(c as u64 + 1)
}

fn pid(c: usize) -> u64 {
    100 + c as u64
}

/// Whether container `c` is suspended on its current home device.
fn is_suspended<B: SchedulerBackend>(sched: &B, c: usize) -> bool {
    sched
        .home_device(cid(c))
        .and_then(|(_, dev)| dev.container(cid(c)))
        .is_some_and(|r| r.is_suspended())
}

/// Enumerate the events enabled in `node`, in a fixed deterministic
/// order (container index, then event kind, then size menu order; node
/// kills last). A universe with node death studies death *after*
/// admission: it has no `Exit`, offers `Kill` until the first one, and
/// registers nothing after it (which keeps placement off dead nodes and
/// bounds the universe).
fn enabled<B: SchedulerBackend>(
    cfg: &ModelConfig,
    node: &Node<B>,
    death: Option<&NodeDeath<B>>,
) -> Vec<Event> {
    let mut out = Vec::new();
    for (c, d) in node.driver.cs.iter().enumerate() {
        if d.closed {
            continue;
        }
        if !d.registered {
            if node.driver.killed.is_none() {
                out.push(Event::Register { c });
            }
            continue;
        }
        if !d.exited {
            if !is_suspended(&node.sched, c) {
                if d.allocs_issued < cfg.max_allocs {
                    for &size in &cfg.alloc_sizes {
                        out.push(Event::Alloc { c, size });
                    }
                }
                if !d.live.is_empty() {
                    out.push(Event::Free { c });
                }
            }
            if death.is_none() {
                out.push(Event::Exit { c });
            }
        }
        out.push(Event::Close { c });
    }
    if let (Some(death), None) = (death, node.driver.killed) {
        for n in 0..death.nodes {
            let hosts_any =
                (0..node.driver.cs.len()).any(|c| (death.home)(&node.sched, cid(c)) == Some(n));
            if hosts_any {
                out.push(Event::Kill { n });
            }
        }
    }
    out
}

/// Deliver the scheduler's resume actions to the driver, performing the
/// follow-up `alloc_done` for granted resumes. `draining` marks the
/// actions of a node drain, the one place a grant may meet a closed
/// container: the drain can grant a co-tenant's parked request and then
/// fail to re-home that same container, whose close released the grant.
fn deliver<B: SchedulerBackend>(
    node: &mut Node<B>,
    actions: Vec<ResumeAction>,
    now: SimTime,
    draining: bool,
) -> Result<(), Failure> {
    for a in actions {
        let (c, size) = match node.driver.outstanding.remove(&a.ticket) {
            Some(entry) => entry,
            None => return Err(Failure::PhantomWakeup { ticket: a.ticket }),
        };
        if a.container != cid(c) || a.pid != pid(c) {
            return Err(Failure::SchedError(format!(
                "resume for ticket {} addressed {}/pid {}, expected {}/pid {}",
                a.ticket,
                a.container,
                a.pid,
                cid(c),
                pid(c)
            )));
        }
        match a.decision {
            AllocDecision::Granted => {
                let d = &node.driver.cs[c];
                if d.closed && draining {
                    continue;
                }
                if d.exited || d.closed {
                    return Err(Failure::SchedError(format!(
                        "granted resume (ticket {}) for a dead process of C{}",
                        a.ticket,
                        c + 1
                    )));
                }
                let addr = node.driver.next_addr;
                node.driver.next_addr += 1;
                node.sched
                    .alloc_done(cid(c), pid(c), addr, size, now)
                    .map_err(|e| Failure::SchedError(format!("alloc_done after resume: {e:?}")))?;
                node.driver.cs[c].live.push_back((addr, size));
            }
            AllocDecision::Rejected => {}
        }
    }
    Ok(())
}

/// Apply `ev` to a clone of `node`, returning the successor.
fn apply<B: SchedulerBackend + Clone>(
    node: &Node<B>,
    ev: Event,
    cfg: &ModelConfig,
    death: Option<&NodeDeath<B>>,
) -> Result<Node<B>, (Failure, Vec<Event>)> {
    let mut n = node.clone();
    n.trace.push(ev);
    // Times only need to be distinct and increasing along the path; the
    // path length provides exactly that.
    let now = SimTime::from_nanos(n.trace.len() as u64);
    let res: Result<(), Failure> = (|| {
        match ev {
            Event::Register { c } => {
                n.sched
                    .register(cid(c), cfg.limits[c], now)
                    .map_err(|e| Failure::SchedError(format!("register: {e:?}")))?;
                n.driver.cs[c].registered = true;
            }
            Event::Alloc { c, size } => {
                n.driver.cs[c].allocs_issued += 1;
                let (outcome, actions) = n
                    .sched
                    .alloc_request(cid(c), pid(c), size, ApiKind::Malloc, now)
                    .map_err(|e| Failure::SchedError(format!("alloc_request: {e:?}")))?;
                match outcome {
                    AllocOutcome::Granted => {
                        let addr = n.driver.next_addr;
                        n.driver.next_addr += 1;
                        n.sched
                            .alloc_done(cid(c), pid(c), addr, size, now)
                            .map_err(|e| Failure::SchedError(format!("alloc_done: {e:?}")))?;
                        n.driver.cs[c].live.push_back((addr, size));
                    }
                    AllocOutcome::Rejected => {}
                    AllocOutcome::Suspended { ticket } => {
                        n.driver.outstanding.insert(ticket, (c, size));
                    }
                }
                deliver(&mut n, actions, now, false)?;
            }
            Event::Free { c } => {
                let (addr, size) = n.driver.cs[c]
                    .live
                    .pop_front()
                    .expect("Free only enabled with live allocations");
                let (freed, actions) = n
                    .sched
                    .free(cid(c), pid(c), addr, now)
                    .map_err(|e| Failure::SchedError(format!("free: {e:?}")))?;
                if freed != size {
                    return Err(Failure::SchedError(format!(
                        "free(0x{addr:x}) returned {freed}, driver recorded {size}"
                    )));
                }
                deliver(&mut n, actions, now, false)?;
            }
            Event::Exit { c } => {
                n.driver.cs[c].exited = true;
                n.driver.cs[c].live.clear();
                let actions = n
                    .sched
                    .process_exit(cid(c), pid(c), now)
                    .map_err(|e| Failure::SchedError(format!("process_exit: {e:?}")))?;
                deliver(&mut n, actions, now, false)?;
            }
            Event::Close { c } => {
                n.driver.cs[c].closed = true;
                n.driver.cs[c].live.clear();
                let actions = n
                    .sched
                    .container_close(cid(c), now)
                    .map_err(|e| Failure::SchedError(format!("container_close: {e:?}")))?;
                deliver(&mut n, actions, now, false)?;
            }
            Event::Kill { n: dead } => {
                let death = death.ok_or_else(|| {
                    Failure::SchedError("kill in a universe without node death".into())
                })?;
                n.driver.killed = Some(dead);
                // Quiescent checkpoint: at the kill instant every
                // container's committed bytes are exactly what the
                // driver holds live, and its parked budget is the sum of
                // its outstanding tickets. During the drain a co-tenant's
                // close may grant a parked request *before* that
                // container's own checkpoint is captured, so the carried
                // `used` is bounded by, not equal to, the live bytes.
                let live_at_kill: Vec<Bytes> = n
                    .driver
                    .cs
                    .iter()
                    .map(|dc| dc.live.iter().fold(Bytes::ZERO, |acc, &(_, s)| acc + s))
                    .collect();
                let mut parked_at_kill = vec![Bytes::ZERO; n.driver.cs.len()];
                for &(c, size) in n.driver.outstanding.values() {
                    parked_at_kill[c] += size;
                }
                let (moves, actions) = (death.drain)(&mut n.sched, dead, now);
                for m in &moves {
                    let c = (m.container.as_u64() - 1) as usize;
                    // Property 6, first half. Nothing lost: the carried
                    // `used` covers every byte the driver had live.
                    // Nothing invented: it exceeds them by at most the
                    // budget the drain itself granted from the
                    // container's parked tickets.
                    if m.used < live_at_kill[c] || m.used > live_at_kill[c] + parked_at_kill[c] {
                        return Err(Failure::SchedError(format!(
                            "migration of C{} carried used={} outside the conserved \
                             range [{}, {}]",
                            c + 1,
                            m.used,
                            live_at_kill[c],
                            live_at_kill[c] + parked_at_kill[c]
                        )));
                    }
                    // Either way the device addresses died with the
                    // source; only the budget travelled, if anything did.
                    n.driver.cs[c].live.clear();
                    match m.to {
                        Some(to) => {
                            // Second half: conservation must hold in the
                            // adoptive node's *books* too, not just in
                            // the move record — the adopted container
                            // shows exactly the carried `used` before
                            // any post-drain grant lands.
                            let adopted_used = n
                                .sched
                                .home_device(m.container)
                                .and_then(|(_, dev)| dev.container(m.container))
                                .map(|r| r.used);
                            if (death.home)(&n.sched, m.container) != Some(to)
                                || adopted_used != Some(m.used)
                            {
                                return Err(Failure::SchedError(format!(
                                    "C{} adopted on node {to} with used={adopted_used:?}, \
                                     but the migration record carried {}",
                                    c + 1,
                                    m.used
                                )));
                            }
                            n.driver.cs[c].migrated = true;
                        }
                        // No survivor could adopt: a clean rejection,
                        // the container ends closed.
                        None => n.driver.cs[c].closed = true,
                    }
                }
                deliver(&mut n, actions, now, true)?;
            }
        }
        check_state(cfg, &n)
    })();
    match res {
        Ok(()) => Ok(n),
        Err(f) => Err((f, n.trace)),
    }
}

/// The per-state property suite (numbering from the module docs; 6 is
/// checked where the drain happens, in [`apply`]).
fn check_state<B: SchedulerBackend>(cfg: &ModelConfig, n: &Node<B>) -> Result<(), Failure> {
    // 1. Whole-topology invariants, adopted budgets included.
    n.sched.check_invariants().map_err(Failure::Invariant)?;
    let mut failure = None;
    // Tag of each container's home device, if it has a home.
    let homes: Vec<Option<u64>> = (0..n.driver.cs.len())
        .map(|c| n.sched.home_device(cid(c)).map(|(tag, _)| tag))
        .collect();
    // Parked tickets across all devices, under each device's full tag.
    let mut parked: BTreeSet<u64> = BTreeSet::new();
    n.sched.each_device(0, &mut |tag, dev| {
        // 2. No cross-shard record, no double-home.
        for (c, home) in homes.iter().enumerate() {
            let Some(r) = dev.container(cid(c)) else {
                continue;
            };
            let tombstone = n.driver.killed.is_some() && r.state == ContainerState::Closed;
            if *home != Some(tag) && !tombstone {
                failure.get_or_insert(Failure::SchedError(format!(
                    "C{} has a record on the device tagged {tag:#x} but its home is {home:x?}",
                    c + 1
                )));
            }
        }
        // 3. Per-device deadlock-freedom.
        if cfg.resume_rule == ResumeRule::FullGuarantee {
            if let ProgressState::Stalled { waiting } = deadlock::assess(dev) {
                failure.get_or_insert(Failure::Stalled { waiting });
            }
        }
        for r in dev.containers() {
            for p in r.pending.iter() {
                parked.insert(tag | p.ticket);
            }
        }
    });
    if let Some(f) = failure {
        return Err(f);
    }
    // 4. Wakeup consistency: scheduler-parked tickets == driver-owed
    //    tickets, under the stacked tags.
    let lost: Vec<u64> = n
        .driver
        .outstanding
        .keys()
        .filter(|t| !parked.contains(t))
        .copied()
        .collect();
    if !lost.is_empty() {
        return Err(Failure::LostWakeup { tickets: lost });
    }
    if let Some(&ticket) = parked
        .iter()
        .find(|t| !n.driver.outstanding.contains_key(t))
    {
        // The scheduler holds a parked request the driver never issued —
        // from the driver's viewpoint that resume will arrive out of thin
        // air.
        return Err(Failure::PhantomWakeup { ticket });
    }
    // 5. Tag canonicality: an outstanding ticket is parked on its
    //    container's *current* home device, under that device's tag.
    for (&ticket, &(c, _)) in &n.driver.outstanding {
        let at_home = n.sched.home_device(cid(c)).is_some_and(|(tag, dev)| {
            dev.container(cid(c))
                .is_some_and(|r| r.pending.iter().any(|p| tag | p.ticket == ticket))
        });
        if !at_home {
            return Err(Failure::SchedError(format!(
                "ticket {ticket:#x} is not parked under the tag of C{}'s home device",
                c + 1
            )));
        }
    }
    Ok(())
}

/// Checks that apply only at terminal (no-event-enabled) states.
fn check_terminal<B: SchedulerBackend>(n: &Node<B>) -> Result<(), Failure> {
    let mut assigned = Bytes::ZERO;
    n.sched.each_device(0, &mut |_, dev| {
        assigned = assigned.max(dev.total_assigned());
    });
    if !assigned.is_zero() {
        return Err(Failure::TerminalResidue { assigned });
    }
    if let Some((&ticket, _)) = n.driver.outstanding.iter().next() {
        return Err(Failure::LostWakeup {
            tickets: vec![ticket],
        });
    }
    debug_assert_eq!(n.sched.open_containers(), 0);
    Ok(())
}

/// 128-bit digest of the canonical state vector (two independent
/// FNV-1a-style folds over the same words).
fn digest(words: &[u64]) -> (u64, u64) {
    let mut a: u64 = 0xcbf29ce484222325;
    let mut b: u64 = 0x9e3779b97f4a7c15;
    for &w in words {
        a = (a ^ w).wrapping_mul(0x100000001b3);
        b = (b ^ w.rotate_left(17)).wrapping_mul(0xff51afd7ed558ccd);
        b ^= b >> 29;
    }
    (a, b)
}

/// Canonical encoding of a system state; see the module docs for the
/// bisimulation argument. Per container: the driver's view and the tag
/// of its home device. Per device: every record with its time-valued
/// fields as ranks. Then the topology fingerprint, which folds every
/// policy RNG, round-robin cursor and Swarm RNG.
fn canonical<B: SchedulerBackend>(n: &Node<B>) -> (u64, u64) {
    let mut words: Vec<u64> = Vec::with_capacity(64 + n.driver.cs.len() * 16);
    words.push(n.driver.killed.map_or(u64::MAX, |k| k as u64));
    for (c, d) in n.driver.cs.iter().enumerate() {
        words.push(
            u64::from(d.registered)
                | (u64::from(d.exited) << 1)
                | (u64::from(d.closed) << 2)
                | (u64::from(d.migrated) << 3),
        );
        words.push(u64::from(d.allocs_issued));
        words.push(d.live.len() as u64);
        words.extend(d.live.iter().map(|&(_, s)| s.0));
        words.push(n.sched.home_device(cid(c)).map_or(u64::MAX, |(tag, _)| tag));
    }
    n.sched.each_device(0, &mut |_, s| {
        // Relative ranks of the time-valued fields every policy compares.
        let mut reg: Vec<(SimTime, usize)> = Vec::new();
        let mut susp: Vec<(SimTime, usize)> = Vec::new();
        for c in 0..n.driver.cs.len() {
            if let Some(r) = s.container(cid(c)) {
                if r.state != ContainerState::Closed {
                    reg.push((r.registered_at, c));
                    if let Some(t) = r.suspended_since {
                        susp.push((t, c));
                    }
                }
            }
        }
        reg.sort();
        susp.sort();
        let rank = |list: &[(SimTime, usize)], c: usize| -> u64 {
            list.iter()
                .position(|&(_, i)| i == c)
                .map_or(u64::MAX, |p| p as u64)
        };
        for c in 0..n.driver.cs.len() {
            match s.container(cid(c)) {
                None => words.push(u64::MAX),
                Some(r) => {
                    words.push(match r.state {
                        ContainerState::Active => 1,
                        ContainerState::Suspended => 2,
                        ContainerState::Closed => 3,
                    });
                    words.push(r.assigned.0);
                    words.push(r.used.0);
                    words.push(rank(&reg, c));
                    words.push(rank(&susp, c));
                    words.push(u64::from(r.charged_pids.contains(&pid(c))));
                    words.push(r.pending.len() as u64);
                    words.extend(r.pending.iter().map(|p| p.size.0));
                }
            }
        }
        words.push(s.total_assigned().0);
        words.push(s.sticky_target().map_or(u64::MAX, |t| t.as_u64()));
    });
    words.push(n.sched.fingerprint());
    digest(&words)
}

/// The one search loop. Without a `script`: explore every interleaving
/// from `root`, deduplicating under [`canonical`]. With one: walk exactly
/// that event path. Either way every transition runs the full property
/// suite.
fn search<B: SchedulerBackend + Clone>(
    cfg: &ModelConfig,
    root: B,
    death: Option<&NodeDeath<B>>,
    script: Option<&[Event]>,
) -> CheckOutcome {
    let root = Node::root(root, cfg.limits.len());
    let mut stats = ExploreStats::default();
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    seen.insert(canonical(&root));
    stats.states = 1;
    // A VecDeque serves both orders: DFS pops the back, BFS the front.
    let mut work: VecDeque<Node<B>> = VecDeque::new();
    work.push_back(root);
    while let Some(node) = match cfg.mode {
        SearchMode::Dfs => work.pop_back(),
        SearchMode::Bfs => work.pop_front(),
    } {
        let events = match script {
            Some(script) => script.get(node.trace.len()).copied().into_iter().collect(),
            None => enabled(cfg, &node, death),
        };
        if events.is_empty() {
            if script.is_some() {
                break;
            }
            stats.terminals += 1;
            if let Err(failure) = check_terminal(&node) {
                return CheckOutcome::Fail {
                    failure,
                    trace: node.trace,
                    stats,
                };
            }
            continue;
        }
        for ev in events {
            stats.transitions += 1;
            let next = match apply(&node, ev, cfg, death) {
                Ok(n) => n,
                Err((failure, trace)) => {
                    return CheckOutcome::Fail {
                        failure,
                        trace,
                        stats,
                    }
                }
            };
            stats.max_depth = stats.max_depth.max(next.trace.len() as u64);
            if (0..next.driver.cs.len()).any(|c| is_suspended(&next.sched, c)) {
                stats.suspended_states += 1;
            }
            if seen.insert(canonical(&next)) || script.is_some() {
                stats.states += 1;
                if stats.states > cfg.max_states {
                    return CheckOutcome::Fail {
                        failure: Failure::BoundExceeded {
                            states: cfg.max_states,
                        },
                        trace: next.trace,
                        stats,
                    };
                }
                work.push_back(next);
            }
        }
    }
    CheckOutcome::Pass(stats)
}

/// Exhaustively explore `cfg`'s state space, checking every transition.
pub fn explore(cfg: &ModelConfig) -> CheckOutcome {
    cfg.run(None)
}

/// Replay an event trace against a fresh scheduler for `cfg`, re-running
/// the full per-state check suite at every step. Used by the
/// counterexample-replay tests; on failure returns the index of the
/// offending step.
pub fn replay(cfg: &ModelConfig, trace: &[Event]) -> Result<(), (usize, Failure)> {
    match cfg.run(Some(trace)) {
        CheckOutcome::Pass(_) => Ok(()),
        CheckOutcome::Fail { failure, trace, .. } => Err((trace.len() - 1, failure)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: PolicyKind, mode: SearchMode) -> ModelConfig {
        let u = Bytes::mib(256);
        ModelConfig {
            topology: Topology::Single(Bytes::new(u.0 * 2)),
            limits: vec![Bytes::new(u.0 * 2), u],
            alloc_sizes: vec![u],
            seed: 7,
            max_states: 1_000_000,
            mode,
            ..ModelConfig::three_containers(policy)
        }
    }

    #[test]
    fn tiny_config_passes_under_both_orders() {
        for mode in [SearchMode::Dfs, SearchMode::Bfs] {
            let out = explore(&tiny(PolicyKind::Fifo, mode));
            match out {
                CheckOutcome::Pass(stats) => {
                    assert!(stats.states > 10, "state space trivially small: {stats:?}");
                    assert!(stats.terminals > 0);
                    assert!(
                        stats.suspended_states > 0,
                        "configuration never suspends — checks nothing: {stats:?}"
                    );
                }
                CheckOutcome::Fail { failure, trace, .. } => {
                    panic!("tiny config failed: {failure} after {trace:?}")
                }
            }
        }
    }

    #[test]
    fn dfs_and_bfs_agree_on_state_count() {
        let a = explore(&tiny(PolicyKind::BestFit, SearchMode::Dfs));
        let b = explore(&tiny(PolicyKind::BestFit, SearchMode::Bfs));
        match (a, b) {
            (CheckOutcome::Pass(sa), CheckOutcome::Pass(sb)) => {
                assert_eq!(sa.states, sb.states);
                assert_eq!(sa.transitions, sb.transitions);
            }
            other => panic!("expected both to pass: {other:?}"),
        }
    }

    #[test]
    fn replay_of_legal_trace_passes() {
        let cfg = tiny(PolicyKind::Fifo, SearchMode::Bfs);
        let u = Bytes::mib(256);
        let trace = vec![
            Event::Register { c: 0 },
            Event::Register { c: 1 },
            Event::Alloc { c: 0, size: u },
            Event::Alloc { c: 0, size: u }, // fills device; C1 not yet asking
            Event::Alloc { c: 1, size: u }, // parked
            Event::Close { c: 0 },          // redistribution resumes C1
            Event::Close { c: 1 },
        ];
        replay(&cfg, &trace).expect("legal trace must replay cleanly");
    }

    #[test]
    fn random_policy_states_include_rng() {
        // Sanity: the Random policy explores at least as many canonical
        // states as FIFO on the same config (RNG state splits states).
        let f = explore(&tiny(PolicyKind::Fifo, SearchMode::Dfs));
        let r = explore(&tiny(PolicyKind::Random, SearchMode::Dfs));
        match (f, r) {
            (CheckOutcome::Pass(sf), CheckOutcome::Pass(sr)) => {
                assert!(sr.states >= sf.states);
            }
            other => panic!("expected both to pass: {other:?}"),
        }
    }
}
