//! The one sharding engine behind both §V extensions ("a multiple GPU
//! with an appropriate algorithm", "the clustering system like Docker
//! Swarm"): where a container lives and how a ticket names it.
//!
//! [`Sharded<B, P>`] owns a list of shards (any [`SchedulerBackend`]),
//! the container → shard **home map**, and a [`Placer`]. It implements
//! [`SchedulerBackend`] once: `register` / `adopt` ask the placer for the
//! next candidate given the shards already tried; every other message is
//! "look up home, forward, tag". The two topologies are instantiations:
//!
//! * [`MultiGpuScheduler`](crate::multi_gpu::MultiGpuScheduler) =
//!   `Sharded<Scheduler, DevicePlacer>` — one scheduler per GPU;
//! * [`ClusterScheduler`](crate::cluster::ClusterScheduler) =
//!   `Sharded<MultiGpuScheduler, SwarmPlacer>` — one multi-GPU node per
//!   host, shards named.
//!
//! # Ticket lanes
//!
//! Raw per-device tickets are small sequential integers. Each engine tags
//! its shard index into one 8-bit **lane** of the ticket — devices at bit
//! [`DEVICE_TICKET_SHIFT`], nodes at bit [`NODE_TICKET_SHIFT`] above it —
//! so tickets are unique across the whole topology and a service can key
//! its waiter table on the ticket alone. Shard 0's tag is zero, which is
//! why a one-device, one-node topology hands out the single-device
//! scheduler's tickets bit for bit. [`TicketLane::tag`] is the only code
//! that shifts a ticket; eight bits bound an engine at
//! [`TicketLane::MAX_SHARDS`] shards, which the constructor enforces.

use crate::backend::{BackendDeviceInfo, Placement, SchedulerBackend};
use crate::core::{AllocOutcome, ResumeAction, SchedError, SchedObs, Scheduler};
use crate::state::ContainerState;
use convgpu_ipc::message::ApiKind;
use convgpu_obs::Registry;
use convgpu_sim_core::ids::ContainerId;
use convgpu_sim_core::time::SimTime;
use convgpu_sim_core::units::Bytes;
use std::collections::BTreeMap;

/// Bit position of the device lane.
pub const DEVICE_TICKET_SHIFT: u32 = 48;
/// Bit position of the node lane, directly above the device lane.
pub const NODE_TICKET_SHIFT: u32 = 56;

/// One 8-bit field of a ticket, holding a shard index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TicketLane {
    shift: u32,
}

// The lanes are adjacent, disjoint, above every raw ticket a device will
// ever issue, and inside the word.
const _: () = {
    assert!(DEVICE_TICKET_SHIFT == 48 && NODE_TICKET_SHIFT == 56);
    assert!(DEVICE_TICKET_SHIFT + TicketLane::BITS == NODE_TICKET_SHIFT);
    assert!(NODE_TICKET_SHIFT + TicketLane::BITS <= u64::BITS);
};

impl TicketLane {
    /// Width of a lane.
    pub const BITS: u32 = 8;
    /// Most shards one engine can name in its lane.
    pub const MAX_SHARDS: usize = 1 << Self::BITS;
    /// The lane a multi-GPU scheduler tags its device index into.
    pub const DEVICE: TicketLane = TicketLane {
        shift: DEVICE_TICKET_SHIFT,
    };
    /// The lane a cluster tags its node index into.
    pub const NODE: TicketLane = TicketLane {
        shift: NODE_TICKET_SHIFT,
    };

    /// `ticket` with `shard` written into this lane.
    pub fn tag(self, shard: usize, ticket: u64) -> u64 {
        debug_assert!(shard < Self::MAX_SHARDS, "shard {shard} overflows the lane");
        debug_assert_eq!(
            self.shard_of(ticket),
            0,
            "ticket {ticket:#x} already carries a tag in the lane at bit {}",
            self.shift
        );
        ((shard as u64) << self.shift) | ticket
    }

    /// The shard index this lane of `ticket` holds.
    pub fn shard_of(self, ticket: u64) -> usize {
        ((ticket >> self.shift) & (Self::MAX_SHARDS as u64 - 1)) as usize
    }

    fn tag_outcome(self, shard: usize, outcome: AllocOutcome) -> AllocOutcome {
        match outcome {
            AllocOutcome::Suspended { ticket } => AllocOutcome::Suspended {
                ticket: self.tag(shard, ticket),
            },
            other => other,
        }
    }

    fn tag_actions(self, shard: usize, mut actions: Vec<ResumeAction>) -> Vec<ResumeAction> {
        for a in &mut actions {
            a.ticket = self.tag(shard, a.ticket);
        }
        actions
    }
}

/// The placement half of a [`Sharded`] engine: which shard a new
/// container goes to, and what this level of the topology is called.
pub trait Placer {
    /// `topology_kind` of an engine placed by this placer.
    const KIND: &'static str;
    /// The ticket lane this level tags its shard index into.
    const LANE: TicketLane;

    /// The next shard to try for a container declaring `limit`, or `None`
    /// when no untried shard can host it. `tried` lists the shards already
    /// refused (or excluded up front), in the order they were tried; each
    /// shard says what it would charge through
    /// [`SchedulerBackend::requirement`].
    fn next<B: SchedulerBackend>(
        &mut self,
        shards: &[B],
        limit: Bytes,
        tried: &[usize],
    ) -> Option<usize>;

    /// Count one placement onto the shard labelled `shard`.
    fn count(&self, registry: &Registry, shard: &str);

    /// Digest of the placer's mutable state (cursor, RNG).
    fn fingerprint(&self) -> u64;
}

/// One container's move in a shard drain ([`Sharded::migrate_node`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationMove {
    /// The migrated container.
    pub container: ContainerId,
    /// Shard it was drained off.
    pub from: usize,
    /// Shard that adopted it; `None` when no surviving shard could back
    /// the committed budget (the container ends closed — clean rejection).
    pub to: Option<usize>,
    /// Declared limit carried over.
    pub limit: Bytes,
    /// Committed (used) budget carried over.
    pub used: Bytes,
}

/// A scheduler spanning several shards; see the module docs.
#[derive(Clone)]
pub struct Sharded<B, P> {
    shards: Vec<B>,
    /// One name per shard (cluster nodes), or empty when shards are
    /// devices known by their index.
    names: Vec<String>,
    homes: BTreeMap<ContainerId, usize>,
    placer: P,
    obs: Option<SchedObs>,
}

impl<B: SchedulerBackend, P: Placer> Sharded<B, P> {
    /// Build from `shards`; `names` is empty (devices) or one per shard
    /// (nodes).
    ///
    /// # Panics
    /// On an empty shard list, or more shards than a ticket lane can name.
    pub(crate) fn from_shards(shards: Vec<B>, names: Vec<String>, placer: P) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert!(
            shards.len() <= TicketLane::MAX_SHARDS,
            "{} shards do not fit a ticket lane ({} at most)",
            shards.len(),
            TicketLane::MAX_SHARDS
        );
        assert!(names.is_empty() || names.len() == shards.len());
        Sharded {
            shards,
            names,
            homes: BTreeMap::new(),
            placer,
            obs: None,
        }
    }

    /// The shards, in index order.
    pub fn shards(&self) -> &[B] {
        &self.shards
    }

    /// Shard names: one per shard for a cluster, empty for devices.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The placer (its policy and state).
    pub fn placer(&self) -> &P {
        &self.placer
    }

    /// The attached observability sink, if any.
    pub fn obs(&self) -> Option<&SchedObs> {
        self.obs.as_ref()
    }

    /// Which shard hosts `id`, if registered.
    pub fn home_of(&self, id: ContainerId) -> Option<usize> {
        self.homes.get(&id).copied()
    }

    /// All container → shard assignments, in container order.
    pub fn homes(&self) -> impl Iterator<Item = (ContainerId, usize)> + '_ {
        self.homes.iter().map(|(&c, &s)| (c, s))
    }

    /// Register a container, placing it on a shard; returns the shard
    /// index where [`SchedulerBackend::register`] returns the full
    /// [`Placement`].
    pub fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<usize, SchedError> {
        self.place(id, limit, None, false, |s| s.register(id, limit, now))
            .map(|(shard, _)| shard)
    }

    /// Migration hand-off: adopt a container with its committed budget
    /// (see [`Scheduler::adopt`]); returns the shard index. The budget
    /// must land whole, so a shard that cannot back it right now is
    /// passed over for the placer's next candidate.
    pub fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<usize, SchedError> {
        self.place(id, limit, None, true, |s| s.adopt(id, limit, used, now))
            .map(|(shard, _)| shard)
    }

    /// [`SchedulerBackend::container_close`], callable without the trait
    /// in scope.
    pub fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        SchedulerBackend::container_close(self, id, now)
    }

    /// Drain shard `node`: close every container homed on it (cancelling
    /// its parked requests as clean rejections) and re-adopt each on a
    /// surviving shard with its committed budget carried over. Returns
    /// the per-container moves plus the tagged resume actions produced
    /// by the source-side closes. A container no surviving shard can
    /// admit ends closed, reported with `to: None`.
    pub fn migrate_node(
        &mut self,
        node: usize,
        now: SimTime,
    ) -> (Vec<MigrationMove>, Vec<ResumeAction>) {
        let homed: Vec<ContainerId> = self
            .homes()
            .filter(|&(_, s)| s == node)
            .map(|(c, _)| c)
            .collect();
        let mut moves = Vec::new();
        let mut actions = Vec::new();
        for c in homed {
            let rec = self.shards[node]
                .home_device(c)
                .and_then(|(_, dev)| dev.container(c))
                .expect("homed container has a record");
            if rec.state == ContainerState::Closed {
                // A closed tombstone holds no budget; dropping its home
                // with the dead shard is the whole migration.
                self.homes.remove(&c);
                continue;
            }
            let (limit, used) = (rec.limit, rec.used);
            let closed = self.shards[node]
                .container_close(c, now)
                .unwrap_or_default();
            actions.extend(P::LANE.tag_actions(node, closed));
            self.homes.remove(&c);
            let to = self
                .place(c, limit, Some(node), true, |s| s.adopt(c, limit, used, now))
                .ok()
                .map(|(shard, _)| shard);
            moves.push(MigrationMove {
                container: c,
                from: node,
                to,
                limit,
                used,
            });
        }
        (moves, actions)
    }

    /// The one admission loop: ask the placer for candidates until
    /// `admit` succeeds on one. `exclude` is a shard never to try (the
    /// one being drained); with `retry`, a capacity-shaped refusal moves
    /// on to the next candidate (protocol errors are always final).
    fn place(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        exclude: Option<usize>,
        retry: bool,
        mut admit: impl FnMut(&mut B) -> Result<Placement, SchedError>,
    ) -> Result<(usize, Placement), SchedError> {
        if self.homes.contains_key(&id) {
            return Err(SchedError::AlreadyRegistered(id));
        }
        let mut tried: Vec<usize> = exclude.into_iter().collect();
        let mut last_err = None;
        while let Some(shard) = self.placer.next(&self.shards, limit, &tried) {
            match admit(&mut self.shards[shard]) {
                Ok(inner) => {
                    self.homes.insert(id, shard);
                    if let Some(o) = &self.obs {
                        self.placer.count(&o.registry, &self.shard_label(shard));
                    }
                    return Ok((shard, self.placement(shard, inner)));
                }
                Err(
                    e @ (SchedError::AdoptionOverCommit { .. }
                    | SchedError::LimitExceedsCapacity { .. }),
                ) if retry => {
                    last_err = Some(e);
                    tried.push(shard);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            // No shard was even a candidate: report the best the
            // topology could have offered.
            let (requirement, capacity) = self
                .shards
                .iter()
                .enumerate()
                .filter(|&(i, _)| Some(i) != exclude)
                .map(|(_, s)| (s.requirement(limit), s.largest_device()))
                .max_by_key(|&(_, capacity)| capacity)
                .unwrap_or((self.shards[0].requirement(limit), Bytes::ZERO));
            SchedError::LimitExceedsCapacity {
                container: id,
                requirement,
                capacity,
            }
        }))
    }

    /// This level's view of a placement `shard` reported as `inner`:
    /// named shards are nodes and keep the inner device; anonymous shards
    /// *are* the devices.
    fn placement(&self, shard: usize, inner: Placement) -> Placement {
        match self.names.get(shard) {
            Some(name) => Placement {
                node: Some(name.clone()),
                device: inner.device,
            },
            None => Placement {
                node: None,
                device: shard,
            },
        }
    }

    /// Metric label of a shard: its name or index, under the label this
    /// engine itself was attached with (`node:device`).
    fn shard_label(&self, shard: usize) -> String {
        let own = match self.names.get(shard) {
            Some(name) => name.clone(),
            None => shard.to_string(),
        };
        match self.obs.as_ref().and_then(|o| o.device.as_deref()) {
            Some(scope) => format!("{scope}:{own}"),
            None => own,
        }
    }

    /// The one home-map lookup every routed message starts with.
    fn route(&self, id: ContainerId) -> Result<usize, SchedError> {
        self.home_of(id).ok_or(SchedError::UnknownContainer(id))
    }
}

impl<B: SchedulerBackend, P: Placer> SchedulerBackend for Sharded<B, P> {
    fn topology_kind(&self) -> &'static str {
        P::KIND
    }

    fn register(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        self.place(id, limit, None, false, |s| s.register(id, limit, now))
            .map(|(_, placement)| placement)
    }

    fn adopt(
        &mut self,
        id: ContainerId,
        limit: Bytes,
        used: Bytes,
        now: SimTime,
    ) -> Result<Placement, SchedError> {
        self.place(id, limit, None, true, |s| s.adopt(id, limit, used, now))
            .map(|(_, placement)| placement)
    }

    /// Shard 0 answers for all: the devices of a node are built from one
    /// base config ([`MultiGpuScheduler::with_config`]), and a placer asks
    /// each node separately.
    ///
    /// [`MultiGpuScheduler::with_config`]: crate::multi_gpu::MultiGpuScheduler::with_config
    fn requirement(&self, limit: Bytes) -> Bytes {
        self.shards[0].requirement(limit)
    }

    fn alloc_request(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        api: ApiKind,
        now: SimTime,
    ) -> Result<(AllocOutcome, Vec<ResumeAction>), SchedError> {
        let shard = self.route(id)?;
        let (out, actions) = self.shards[shard].alloc_request(id, pid, size, api, now)?;
        Ok((
            P::LANE.tag_outcome(shard, out),
            P::LANE.tag_actions(shard, actions),
        ))
    }

    fn alloc_done(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<(), SchedError> {
        let shard = self.route(id)?;
        self.shards[shard].alloc_done(id, pid, addr, size, now)
    }

    fn alloc_failed(
        &mut self,
        id: ContainerId,
        pid: u64,
        size: Bytes,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let shard = self.route(id)?;
        let actions = self.shards[shard].alloc_failed(id, pid, size, now)?;
        Ok(P::LANE.tag_actions(shard, actions))
    }

    fn free(
        &mut self,
        id: ContainerId,
        pid: u64,
        addr: u64,
        now: SimTime,
    ) -> Result<(Bytes, Vec<ResumeAction>), SchedError> {
        let shard = self.route(id)?;
        let (freed, actions) = self.shards[shard].free(id, pid, addr, now)?;
        Ok((freed, P::LANE.tag_actions(shard, actions)))
    }

    fn mem_info(&self, id: ContainerId, pid: u64) -> Result<(Bytes, Bytes), SchedError> {
        self.shards[self.route(id)?].mem_info(id, pid)
    }

    fn process_exit(
        &mut self,
        id: ContainerId,
        pid: u64,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let shard = self.route(id)?;
        let actions = self.shards[shard].process_exit(id, pid, now)?;
        Ok(P::LANE.tag_actions(shard, actions))
    }

    fn container_close(
        &mut self,
        id: ContainerId,
        now: SimTime,
    ) -> Result<Vec<ResumeAction>, SchedError> {
        let shard = self.route(id)?;
        let actions = self.shards[shard].container_close(id, now)?;
        Ok(P::LANE.tag_actions(shard, actions))
    }

    fn home_of(&self, id: ContainerId) -> Option<Placement> {
        let shard = self.route(id).ok()?;
        Some(self.placement(shard, self.shards[shard].home_of(id)?))
    }

    fn home_device(&self, id: ContainerId) -> Option<(u64, &Scheduler)> {
        let shard = self.route(id).ok()?;
        let (tag, device) = self.shards[shard].home_device(id)?;
        Some((P::LANE.tag(shard, tag), device))
    }

    fn devices(&self) -> Vec<BackendDeviceInfo> {
        let mut out = Vec::new();
        for (shard, s) in self.shards.iter().enumerate() {
            for info in s.devices() {
                // As in `placement`: a named shard is the node of its
                // devices, an anonymous shard is the device.
                out.push(match self.names.get(shard) {
                    Some(name) => BackendDeviceInfo {
                        node: Some(name.clone()),
                        ..info
                    },
                    None => BackendDeviceInfo {
                        device: shard,
                        ..info
                    },
                });
            }
        }
        out
    }

    fn check_invariants(&self) -> Result<(), String> {
        for (i, s) in self.shards.iter().enumerate() {
            s.check_invariants()
                .map_err(|e| format!("shard {}: {e}", self.shard_label(i)))?;
        }
        // Homes must point at shards that actually know the container.
        for (&c, &s) in &self.homes {
            if self.shards.get(s).and_then(|b| b.home_device(c)).is_none() {
                return Err(format!("container {c:?} missing from home shard {s}"));
            }
        }
        Ok(())
    }

    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &self.shards {
            h ^= s.fingerprint();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= self.placer.fingerprint();
        h.wrapping_mul(0x0000_0100_0000_01b3)
    }

    fn attach_obs(&mut self, obs: SchedObs) {
        self.obs = Some(obs.clone());
        for i in 0..self.shards.len() {
            let label = self.shard_label(i);
            self.shards[i].attach_obs(obs.with_device(label));
        }
    }

    fn primary(&self) -> &Scheduler {
        self.shards[0].primary()
    }

    fn each_device<'a>(&'a self, tag: u64, f: &mut impl FnMut(u64, &'a Scheduler)) {
        for (i, s) in self.shards.iter().enumerate() {
            s.each_device(P::LANE.tag(i, tag), f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterNode, ClusterScheduler, SwarmStrategy};
    use crate::core::SchedulerConfig;
    use crate::multi_gpu::{MultiGpuScheduler, PlacementPolicy};
    use crate::policy::PolicyKind;
    use convgpu_obs::Tracer;
    use std::sync::Arc;

    /// A drain closes each container on its source device and re-adopts it
    /// on another device of the same registry: the source's
    /// container-lifetime series are retired, the adopter's stay.
    #[test]
    fn migrate_node_retires_the_source_series_and_keeps_the_adopters() {
        let registry = Arc::new(Registry::new());
        let tracer = Arc::new(Tracer::new());
        let mut m = MultiGpuScheduler::new(
            &[Bytes::gib(2), Bytes::gib(4)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        m.attach_obs(SchedObs::new(Arc::clone(&registry), tracer));
        let t = SimTime::from_secs;
        let (c1, c2, c3) = (ContainerId(1), ContainerId(2), ContainerId(3));
        // Round robin: c1 and c3 on device 0 (c3 only partly reserved),
        // c2 on device 1. c3's request parks until c1 closes.
        for c in [c1, c2, c3] {
            m.register(c, Bytes::gib(1), t(c.as_u64())).unwrap();
        }
        let alloc = |m: &mut MultiGpuScheduler, c: ContainerId, at| {
            m.alloc_request(c, c.as_u64(), Bytes::gib(1), ApiKind::Malloc, t(at))
                .unwrap()
                .0
        };
        assert_eq!(alloc(&mut m, c1, 4), AllocOutcome::Granted);
        assert!(matches!(
            alloc(&mut m, c3, 5),
            AllocOutcome::Suspended { .. }
        ));
        assert_eq!(m.container_close(c1, t(6)).unwrap().len(), 1, "c3 resumes");

        let series_of = |c: ContainerId, device: &str| {
            let (c, snap) = (c.to_string(), registry.snapshot());
            let labels = [
                ("container".to_string(), c),
                ("device".into(), device.into()),
            ];
            let n = snap.series.keys().filter(|k| k.labels == labels).count();
            n
        };
        assert_eq!(series_of(c1, "0"), 0, "closed on device 0");
        assert_eq!(
            series_of(c3, "0"),
            5,
            "four gauges and the suspend histogram"
        );

        let (moves, _) = m.migrate_node(0, t(7));
        assert_eq!(moves.len(), 1);
        assert_eq!((moves[0].container, moves[0].to), (c3, Some(1)));
        assert_eq!(m.home_of(c3), Some(1));
        assert_eq!(series_of(c3, "0"), 0, "the source's series are retired");
        assert_eq!(series_of(c3, "1"), 4, "the adopter's gauges remain");
        assert_eq!(series_of(c2, "1"), 4, "a bystander keeps its series");
        let used = registry.snapshot().gauge(
            "convgpu_sched_container_used_bytes",
            &[("container", "cnt-0003"), ("device", "1")],
        );
        assert_eq!(used, Some((Bytes::gib(1) + Bytes::mib(66)).as_u64() as f64));
    }

    #[test]
    fn lanes_round_trip_at_the_edges() {
        for lane in [TicketLane::DEVICE, TicketLane::NODE] {
            for shard in [0, 1, 255] {
                let tagged = lane.tag(shard, 7);
                assert_eq!(lane.shard_of(tagged), shard);
                assert_eq!(tagged ^ lane.tag(shard, 0), 7, "raw ticket survives");
            }
        }
        // Shard 0 leaves a ticket untouched; the lanes stack.
        assert_eq!(TicketLane::NODE.tag(0, TicketLane::DEVICE.tag(0, 9)), 9);
        let both = TicketLane::NODE.tag(255, TicketLane::DEVICE.tag(255, 1));
        assert_eq!(both, 0xFFFF_0000_0000_0001);
        assert_eq!(TicketLane::DEVICE.shard_of(both), 255);
        assert_eq!(TicketLane::NODE.shard_of(both), 255);
    }

    #[test]
    #[should_panic(expected = "already carries a tag")]
    #[cfg(debug_assertions)]
    fn tagging_an_occupied_lane_is_a_bug() {
        TicketLane::DEVICE.tag(1, TicketLane::DEVICE.tag(1, 5));
    }

    #[test]
    fn a_full_lane_of_shards_is_accepted() {
        let m = MultiGpuScheduler::new(
            &vec![Bytes::gib(1); TicketLane::MAX_SHARDS],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(m.shards().len(), 256);
    }

    #[test]
    #[should_panic(expected = "257 shards do not fit a ticket lane")]
    fn one_shard_past_the_lane_is_refused() {
        MultiGpuScheduler::new(
            &vec![Bytes::gib(1); TicketLane::MAX_SHARDS + 1],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "257 shards do not fit a ticket lane")]
    fn one_node_past_the_lane_is_refused() {
        let nodes = (0..=TicketLane::MAX_SHARDS)
            .map(|i| ClusterNode::new(format!("n{i}"), &[Bytes::gib(1)], PolicyKind::Fifo, 0))
            .collect();
        ClusterScheduler::new(nodes, SwarmStrategy::Spread, 0);
    }

    /// The placement hint is what the shard will charge, not a guess: a
    /// config that does not charge the context overhead admits a limit
    /// equal to the device on every topology, as the device itself does.
    #[test]
    fn placement_asks_the_shard_what_it_charges() {
        let cfg = SchedulerConfig {
            charge_ctx_overhead: false,
            ..SchedulerConfig::with_capacity(Bytes::gib(1))
        };
        let t = SimTime::from_secs(0);
        let mut single = Scheduler::new(cfg.clone(), PolicyKind::Fifo.build(0));
        assert!(single.register(ContainerId(1), Bytes::gib(1), t).is_ok());

        let node =
            ClusterNode::with_config("n0", cfg.clone(), &[Bytes::gib(1)], PolicyKind::Fifo, 0);
        let mut cluster = ClusterScheduler::new(vec![node], SwarmStrategy::Spread, 0);
        assert_eq!(cluster.register(ContainerId(1), Bytes::gib(1), t), Ok(0));

        // Round-robin's pick (device 0) can host exactly 1 GiB here; the
        // old fixed `limit + 66 MiB` hint skipped it for device 1.
        let mut multi = MultiGpuScheduler::with_config(
            cfg,
            &[Bytes::gib(1), Bytes::mib(1094)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(multi.register(ContainerId(1), Bytes::gib(1), t), Ok(0));

        // And a different overhead is honoured too.
        let cfg = SchedulerConfig {
            ctx_overhead: Bytes::mib(200),
            ..SchedulerConfig::with_capacity(Bytes::gib(1))
        };
        let mut multi = MultiGpuScheduler::with_config(
            cfg,
            &[Bytes::gib(1), Bytes::gib(2)],
            PolicyKind::Fifo,
            PlacementPolicy::RoundRobin,
            0,
        );
        assert_eq!(multi.register(ContainerId(1), Bytes::mib(900), t), Ok(1));
    }

    /// The trait method backing the hint agrees with what the device
    /// records at registration (`core::Scheduler::effective_requirement`).
    #[test]
    fn requirement_matches_what_registration_records() {
        for charge in [true, false] {
            let cfg = SchedulerConfig {
                charge_ctx_overhead: charge,
                ctx_overhead: Bytes::mib(70),
                ..SchedulerConfig::with_capacity(Bytes::gib(4))
            };
            let mut s = Scheduler::new(cfg, PolicyKind::Fifo.build(0));
            let hint = s.requirement(Bytes::gib(1));
            s.register(ContainerId(1), Bytes::gib(1), SimTime::from_secs(0))
                .unwrap();
            assert_eq!(s.container(ContainerId(1)).unwrap().requirement, hint);
        }
    }
}
