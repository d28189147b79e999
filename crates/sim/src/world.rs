//! The world: nodes, event loop, radio medium, metrics.
//!
//! [`World`] owns everything. Protocol behaviours are stored beside (not
//! inside) the core state so a behaviour can be borrowed in place while
//! it runs against a [`Ctx`] borrowing the core — the standard
//! split-borrow pattern for callback-driven simulators.

use crate::energy::{Battery, EnergyModel};
use crate::event::{EventKind, EventQueue};
use crate::medium::{CollisionModel, CollisionTracker, MediumConfig};
use crate::metrics::Metrics;
use crate::node::{Behavior, Ctx, NodeConfig, NodeState};
use crate::packet::{Packet, PacketKind};
use crate::phy::{PhyProfile, Tier};
use crate::time::SimTime;
use std::collections::HashMap;
use std::rc::Rc;
use wmsn_trace::{DropCause, TraceEvent, TraceKind, TraceSink, TraceTier};
use wmsn_util::geom::unit_disk_adjacency;
use wmsn_util::{NodeId, NodeRole, Point, SplitMix64};

/// Trace-model tier for a PHY tier.
pub(crate) fn trace_tier(t: Tier) -> TraceTier {
    match t {
        Tier::Sensor => TraceTier::Sensor,
        Tier::Mesh => TraceTier::Mesh,
    }
}

/// Trace-model kind for a packet kind.
pub(crate) fn trace_kind(k: PacketKind) -> TraceKind {
    match k {
        PacketKind::Control => TraceKind::Control,
        PacketKind::Data => TraceKind::Data,
        PacketKind::Security => TraceKind::Security,
    }
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Seed for all randomness in the run.
    pub seed: u64,
    /// Sensor-tier PHY.
    pub sensor_phy: PhyProfile,
    /// Mesh-tier PHY.
    pub mesh_phy: PhyProfile,
    /// Medium imperfections.
    pub medium: MediumConfig,
    /// Energy model.
    pub energy: EnergyModel,
}

impl WorldConfig {
    /// Ideal medium, per-packet energy, default PHYs — the configuration
    /// the paper's analytical arguments assume.
    pub fn ideal(seed: u64) -> Self {
        WorldConfig {
            seed,
            sensor_phy: PhyProfile::zigbee(),
            mesh_phy: PhyProfile::wifi(),
            medium: MediumConfig::default(),
            energy: EnergyModel::per_packet_default(),
        }
    }
}

/// Cross-shard routing state installed by the sharded kernel
/// ([`crate::sharded::ShardedWorld`]). When present, deliveries whose
/// receiver lives on another shard are diverted into `outbox` instead of
/// the local queue; the coordinator routes them between supersteps.
pub(crate) struct ShardState {
    /// Owning shard per node index.
    pub(crate) owner: Vec<u16>,
    /// This world's shard id.
    pub(crate) me: u16,
    /// Deliveries bound for nodes owned by other shards.
    pub(crate) outbox: Vec<RemoteEvent>,
}

/// One reception crossing a shard boundary. Carries the packet by
/// fields (payload as `Arc`, not `Rc`) so the coordinator can move it
/// between shard threads; the receiving shard rebuilds the packet and
/// queues it as a one-receiver fan-out.
pub(crate) struct RemoteEvent {
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) to: NodeId,
    pub(crate) seq: u64,
    pub(crate) src: NodeId,
    pub(crate) link_dst: Option<NodeId>,
    pub(crate) tier: Tier,
    pub(crate) kind: PacketKind,
    pub(crate) payload: std::sync::Arc<[u8]>,
}

/// Everything except the behaviours (so a behaviour can borrow this
/// mutably while it runs).
pub struct WorldCore {
    pub(crate) cfg: WorldConfig,
    pub(crate) nodes: Vec<NodeState>,
    /// Liveness per node index — the only store of it. A node is dead
    /// when its battery drains or an experiment kills it, and off while
    /// it sleeps. Kept dense, apart from [`NodeState`], because every
    /// fan-out build and every delivery reads one flag per receiver: at
    /// one byte a node, a neighbourhood's flags share a cache line or
    /// two instead of one 40-byte node record each.
    pub(crate) alive: Vec<bool>,
    pub(crate) queue: EventQueue,
    pub(crate) now: SimTime,
    pub(crate) metrics: Metrics,
    pub(crate) node_rngs: Vec<SplitMix64>,
    medium_rng: SplitMix64,
    /// Per-node packet sequence counters: a packet's `seq` is
    /// `(src << 32) | counter`, so the sequence stream a node emits
    /// depends only on that node's own transmissions — never on global
    /// interleaving — which is what lets shard-local transmits mint the
    /// same seqs the single-threaded reference would.
    packet_seqs: Vec<u32>,
    /// Per-node causal-key counters: an event scheduled by node `n`
    /// carries key `(n << 32) | counter` and same-time events fire in
    /// ascending key order (see [`crate::event`]). Tie-breaking is a
    /// property of *who scheduled what*, identical under any sharding.
    sched_counters: Vec<u32>,
    /// Counter for driver-phase keys (prefix `0xFFFF_FFFF`, sorting
    /// after every node-minted key at an equal timestamp).
    pub(crate) driver_counter: u64,
    /// Causal key of the currently executing event or driver entry —
    /// stamped onto trace frames and delivery records (the sharded
    /// kernel merges per-shard delivery ledgers by it).
    pub(crate) exec_key: u64,
    /// Cross-shard routing state; `None` on the single-threaded
    /// reference path (see [`crate::sharded`]).
    pub(crate) shard: Option<ShardState>,
    /// In-flight transmissions for carrier sensing, bucketed per tier by
    /// grid cell so `channel_busy` scans only the 3×3 block around the
    /// sender instead of every transmission in the field.
    active_tx: [TxBuckets; 2],
    /// Cached adjacency per tier; built lazily in bulk, updated
    /// incrementally when a node moves.
    adjacency: [Option<AdjacencyCache>; 2],
    collisions: [CollisionTracker; 2],
    /// Reusable slot buffer for `transmit_ranged` receiver collection.
    ranged_scratch: Vec<usize>,
    /// Receiver buffers of served fan-outs, reused by later
    /// transmissions so steady-state sends allocate none.
    rx_pool: Vec<Vec<(NodeId, u64)>>,
    /// Reusable frame-assembly buffer lent to behaviours via
    /// [`Ctx::take_scratch`](crate::node::Ctx::take_scratch) — in-place
    /// flood forwarding builds the outgoing frame here before freezing
    /// it to `Rc<[u8]>`. Behaviours run one at a time, so a single
    /// world-level buffer suffices.
    pub(crate) frame_scratch: Vec<u8>,
    /// Structured-trace sink; `None` (the default) disables tracing, and
    /// every hook below is a branch on this `Option` — the zero-cost-
    /// disabled contract the hot-path numbers depend on.
    pub(crate) trace: Option<Box<dyn TraceSink>>,
}

struct AdjacencyCache {
    /// Node ids participating in this tier (alive or dead — liveness is
    /// checked at use time).
    members: Vec<NodeId>,
    /// For each member (by position in `members`), indices into `members`,
    /// sorted ascending (delivery order is part of determinism).
    adj: Vec<Vec<usize>>,
    /// node id -> member slot.
    slot: Vec<Option<usize>>,
    /// Member slots bucketed by grid cell (side = radio range), anchored
    /// at `origin`. Everything within range of a point lies in the 3×3
    /// cell block around it; the buckets are kept current across moves.
    buckets: HashMap<(i64, i64), Vec<usize>>,
    /// Grid anchor (min corner of the positions at build time; moves may
    /// go outside — cell coordinates just go negative).
    origin: Point,
    /// Grid cell side, equal to the tier's radio range.
    cell: f64,
}

impl AdjacencyCache {
    fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            ((p.x - self.origin.x) / self.cell).floor() as i64,
            ((p.y - self.origin.y) / self.cell).floor() as i64,
        )
    }
}

/// Carrier-sense index: in-flight transmissions bucketed by grid cell
/// (side = the tier's radio range, so audibility is confined to the 3×3
/// block). Expired entries are dropped lazily while scanning and swept
/// whenever the world's event queue drains.
struct TxBuckets {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<(Point, SimTime)>>,
}

impl TxBuckets {
    fn new(range_m: f64) -> Self {
        TxBuckets {
            cell: if range_m > 0.0 { range_m } else { 1.0 },
            buckets: HashMap::new(),
        }
    }

    fn key(&self, p: Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    fn push(&mut self, pos: Point, end: SimTime) {
        self.buckets
            .entry(self.key(pos))
            .or_default()
            .push((pos, end));
    }

    /// Whether any transmission still on the air at `now` is audible
    /// within `range` of `pos`. Prunes expired entries in the scanned
    /// cells as a side effect.
    fn busy_near(&mut self, pos: Point, range: f64, now: SimTime) -> bool {
        let (cx, cy) = self.key(pos);
        let mut busy = false;
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(b) = self.buckets.get_mut(&(cx + dx, cy + dy)) {
                    b.retain(|&(_, end)| end > now);
                    busy = busy || b.iter().any(|&(p, _)| p.within(pos, range));
                }
            }
        }
        busy
    }

    /// Drop every entry that has left the air.
    fn prune(&mut self, now: SimTime) {
        self.buckets.retain(|_, b| {
            b.retain(|&(_, end)| end > now);
            !b.is_empty()
        });
    }
}

fn tier_index(t: Tier) -> usize {
    match t {
        Tier::Sensor => 0,
        Tier::Mesh => 1,
    }
}

impl WorldCore {
    /// Hand one event to the installed sink, if any. Callers on hot
    /// paths guard with `self.trace.is_some()` first so the event is
    /// never even constructed when tracing is off.
    #[inline]
    pub(crate) fn emit(&mut self, ev: TraceEvent) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record_keyed(&ev, self.now, self.exec_key);
        }
    }

    /// Mint the next causal key for an event scheduled by `node`.
    #[inline]
    pub(crate) fn next_key(&mut self, node: NodeId) -> u64 {
        let c = &mut self.sched_counters[node.index()];
        let key = ((node.0 as u64) << 32) | *c as u64;
        *c += 1;
        key
    }

    /// Mint the next packet sequence number for a frame sent by `src`.
    #[inline]
    fn next_seq(&mut self, src: NodeId) -> u64 {
        let c = &mut self.packet_seqs[src.index()];
        let seq = ((src.0 as u64) << 32) | *c as u64;
        *c += 1;
        seq
    }

    /// Stamp a fresh driver-phase key as the executing key. Called at
    /// every external entry point (node start, `with_behavior`, moves,
    /// kills, …) so trace lines emitted outside the event loop still
    /// carry a deterministic merge position. The `0xFFFF_FFFF` prefix
    /// sorts after every node-minted key at an equal timestamp, matching
    /// the fact that driver calls happen after `run_until` returns.
    #[inline]
    pub(crate) fn begin_driver_op(&mut self) {
        self.exec_key = (0xFFFF_FFFFu64 << 32) | self.driver_counter;
        self.driver_counter += 1;
    }

    fn phy(&self, tier: Tier) -> &PhyProfile {
        match tier {
            Tier::Sensor => &self.cfg.sensor_phy,
            Tier::Mesh => &self.cfg.mesh_phy,
        }
    }

    fn invalidate_adjacency(&mut self) {
        self.adjacency = [None, None];
    }

    fn ensure_adjacency(&mut self, tier: Tier) {
        let ti = tier_index(tier);
        if self.adjacency[ti].is_some() {
            return;
        }
        let members: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| match tier {
                Tier::Sensor => n.role.in_sensor_tier(),
                Tier::Mesh => n.role.in_mesh_tier(),
            })
            .map(|n| n.id)
            .collect();
        let positions: Vec<_> = members
            .iter()
            .map(|id| self.nodes[id.index()].pos)
            .collect();
        let range = self.phy(tier).range_m;
        let adj = unit_disk_adjacency(&positions, range);
        let mut slot = vec![None; self.nodes.len()];
        for (s, id) in members.iter().enumerate() {
            slot[id.index()] = Some(s);
        }
        let origin = Point::new(
            positions.iter().map(|p| p.x).fold(0.0, f64::min),
            positions.iter().map(|p| p.y).fold(0.0, f64::min),
        );
        let mut cache = AdjacencyCache {
            members,
            adj,
            slot,
            buckets: HashMap::new(),
            origin,
            cell: if range > 0.0 { range } else { 1.0 },
        };
        for (s, p) in positions.iter().enumerate() {
            let key = cache.cell_of(*p);
            cache.buckets.entry(key).or_default().push(s);
        }
        self.adjacency[ti] = Some(cache);
    }

    /// Incrementally repair a tier's adjacency cache after one node moved:
    /// only the moved node's row, the rows that referenced it, and its
    /// grid bucket change — everything else is untouched. Rebuilding from
    /// scratch costs O(members) allocations per move; gateway mobility
    /// moves one node per round.
    fn update_adjacency_for_move(&mut self, ti: usize, id: NodeId, old_pos: Point) {
        let Some(cache) = self.adjacency[ti].as_mut() else {
            return;
        };
        let Some(s) = cache.slot.get(id.index()).copied().flatten() else {
            return;
        };
        let new_pos = self.nodes[id.index()].pos;
        let old_cell = cache.cell_of(old_pos);
        let new_cell = cache.cell_of(new_pos);
        if old_cell != new_cell {
            if let Some(b) = cache.buckets.get_mut(&old_cell) {
                if let Some(i) = b.iter().position(|&x| x == s) {
                    b.swap_remove(i);
                }
                if b.is_empty() {
                    cache.buckets.remove(&old_cell);
                }
            }
            cache.buckets.entry(new_cell).or_default().push(s);
        }
        // Drop the old edges from both endpoints (rows stay sorted).
        let old_row = std::mem::take(&mut cache.adj[s]);
        for &t in &old_row {
            if let Ok(i) = cache.adj[t].binary_search(&s) {
                cache.adj[t].remove(i);
            }
        }
        // Recompute the moved node's row from its 3×3 cell block; the
        // predicate matches `unit_disk_adjacency` exactly, so the cache is
        // indistinguishable from a full rebuild.
        let range = cache.cell;
        let mut row = old_row;
        row.clear();
        for dx in -1..=1 {
            for dy in -1..=1 {
                if let Some(b) = cache.buckets.get(&(new_cell.0 + dx, new_cell.1 + dy)) {
                    for &t in b {
                        if t != s
                            && self.nodes[cache.members[t].index()]
                                .pos
                                .within(new_pos, range)
                        {
                            row.push(t);
                        }
                    }
                }
            }
        }
        row.sort_unstable();
        for &t in &row {
            if let Err(i) = cache.adj[t].binary_search(&s) {
                cache.adj[t].insert(i, s);
            }
        }
        cache.adj[s] = row;
    }

    pub(crate) fn neighbors_of(&mut self, node: NodeId, tier: Tier) -> Vec<NodeId> {
        self.ensure_adjacency(tier);
        let cache = self.adjacency[tier_index(tier)]
            .as_ref()
            .expect("just built");
        let Some(slot) = cache.slot.get(node.index()).copied().flatten() else {
            return Vec::new();
        };
        cache.adj[slot]
            .iter()
            .map(|&s| cache.members[s])
            .filter(|id| self.alive[id.index()])
            .collect()
    }

    /// Charge `joules` against `node`'s battery; handles death bookkeeping.
    /// Returns `false` if the node is (now) dead.
    fn charge(&mut self, node: NodeId, joules: f64) -> bool {
        let idx = node.index();
        if !self.alive[idx] {
            return false;
        }
        let state = &mut self.nodes[idx];
        let survived = state.battery.spend(joules);
        // Track consumption (finite batteries only; unlimited report 0).
        let consumed = state.battery.consumed_j();
        if let Some(slot) = self.metrics.energy_consumed.get_mut(idx) {
            *slot = consumed;
        }
        if !survived {
            self.alive[idx] = false;
            // A battery death would desynchronise the replicated
            // liveness flags the shards share — the parallel kernel is
            // gated to death-free workloads and must fail loudly, not
            // silently diverge, if that contract is broken.
            assert!(
                self.shard.is_none(),
                "node {node:?} died mid-run under sharded execution; \
                 the parallel kernel requires death-free workloads"
            );
            if state.role == NodeRole::Sensor && self.metrics.first_death.is_none() {
                self.metrics.first_death = Some(self.now);
                self.metrics.first_death_node = Some(node);
            }
        }
        if self.trace.is_some() {
            let t = self.now;
            self.emit(TraceEvent::Energy {
                t,
                node,
                consumed_j: consumed,
            });
            if !survived {
                self.emit(TraceEvent::NodeKill { t, node });
            }
        }
        survived
    }

    /// Crate-visible energy charge for non-radio work (see
    /// [`crate::node::Ctx::consume_energy`]).
    pub(crate) fn charge_public(&mut self, node: NodeId, joules: f64) -> bool {
        self.charge(node, joules)
    }

    /// Whether `src` is alive and has a radio on `tier`.
    #[inline]
    fn can_transmit(&self, src: NodeId, tier: Tier) -> bool {
        let role = self.nodes[src.index()].role;
        self.alive[src.index()]
            && match tier {
                Tier::Sensor => role.in_sensor_tier(),
                Tier::Mesh => role.in_mesh_tier(),
            }
    }

    pub(crate) fn transmit(
        &mut self,
        src: NodeId,
        link_dst: Option<NodeId>,
        tier: Tier,
        kind: PacketKind,
        payload: Rc<[u8]>,
    ) -> bool {
        self.transmit_attempt(src, link_dst, tier, kind, payload, 0)
    }

    /// Whether `src` can currently hear an ongoing transmission on `tier`
    /// (the carrier-sense predicate). Prunes expired windows in the cells
    /// it scans.
    fn channel_busy(&mut self, src: NodeId, tier: Tier) -> bool {
        let now = self.now;
        let pos = self.nodes[src.index()].pos;
        let range = self.phy(tier).range_m;
        self.active_tx[tier_index(tier)].busy_near(pos, range, now)
    }

    pub(crate) fn transmit_attempt(
        &mut self,
        src: NodeId,
        link_dst: Option<NodeId>,
        tier: Tier,
        kind: PacketKind,
        payload: Rc<[u8]>,
        attempt: u8,
    ) -> bool {
        if !self.can_transmit(src, tier) {
            return false;
        }
        // CSMA: defer while the channel is audibly busy, with binary
        // exponential backoff; give up after 6 attempts (counted).
        if self.cfg.medium.csma && self.channel_busy(src, tier) {
            if attempt >= 6 {
                self.metrics.csma_drops += 1;
                if self.trace.is_some() {
                    self.emit(TraceEvent::TxGiveUp {
                        t: self.now,
                        src,
                        tier: trace_tier(tier),
                    });
                }
                return false;
            }
            let slot = self.phy(tier).tx_time_us(32).max(100);
            let backoff = 1 + self.node_rngs[src.index()].next_below(slot << attempt.min(4));
            self.metrics.csma_deferrals += 1;
            if self.trace.is_some() {
                self.emit(TraceEvent::TxDefer {
                    t: self.now,
                    src,
                    tier: trace_tier(tier),
                    attempt,
                });
            }
            let at = self.now + backoff;
            let key = self.next_key(src);
            self.queue.schedule(
                at,
                key,
                EventKind::Retransmit {
                    src,
                    link_dst,
                    tier,
                    kind,
                    payload,
                    attempt: attempt + 1,
                },
            );
            return true; // queued, will go out after backoff
        }
        let seq = self.next_seq(src);
        let packet = Packet {
            seq,
            src,
            link_dst,
            tier,
            kind,
            payload,
        };
        let size = packet.size_bytes();
        let phy = *self.phy(tier);
        // Transmit power is set to cover the full unit-disk range, so the
        // energy charge uses the range as the distance term.
        let tx_cost = self.cfg.energy.tx_cost(size, phy.range_m);
        self.metrics.count_sent(kind, size);
        if let Some(n) = self.metrics.node_tx.get_mut(src.index()) {
            *n += 1;
        }
        if !self.charge(src, tx_cost) {
            // Battery died on this transmission; the frame still leaves
            // the antenna (the energy was spent).
        }
        if self.trace.is_some() {
            self.emit(TraceEvent::TxStart {
                t: self.now,
                seq,
                src,
                dst: link_dst,
                tier: trace_tier(tier),
                kind: trace_kind(kind),
                bytes: size as u32,
            });
        }

        let tx_end = self.now + phy.tx_time_us(size);
        let arrival = self.now + phy.hop_delay_us(size);
        let ti = tier_index(tier);
        if self.cfg.medium.csma {
            let pos = self.nodes[src.index()].pos;
            self.active_tx[ti].push(pos, tx_end);
        }
        // Fan out over the cached adjacency row directly. The cache is
        // taken out of its slot for the duration (a cheap move) so the
        // collision state can be borrowed mutably alongside it. Local
        // receivers go into one pooled buffer, queued as a single
        // fan-out event.
        self.ensure_adjacency(tier);
        let mut rxs = self.rx_pool.pop().unwrap_or_default();
        let use_collisions = self.cfg.medium.collisions == CollisionModel::ReceiverOverlap;
        // On an ideal medium a non-addressed, non-promiscuous receiver's
        // delivery is a pure no-op (the address filter precedes every
        // observable effect in `resolve_delivery`), so leave it out of
        // the fan-out.
        let fast_unicast = link_dst.is_some()
            && self.cfg.medium.unicast_fast_path
            && self.cfg.medium.loss_prob == 0.0
            && !use_collisions;
        let cache = self.adjacency[ti].take().expect("just built");
        if let Some(slot) = cache.slot.get(src.index()).copied().flatten() {
            let mut remote_payload: Option<std::sync::Arc<[u8]>> = None;
            for &s in &cache.adj[slot] {
                let rx = cache.members[s];
                if !self.alive[rx.index()] {
                    continue;
                }
                if fast_unicast && link_dst != Some(rx) && !self.nodes[rx.index()].promiscuous {
                    continue;
                }
                if use_collisions {
                    // Register the airtime window at the receiver;
                    // collisions are resolved at delivery time.
                    self.collisions[ti].register(rx, self.now, tx_end);
                }
                let key = self.next_key(src);
                if let Some(sh) = self.shard.as_mut() {
                    if sh.owner[rx.index()] != sh.me {
                        let payload = remote_payload
                            .get_or_insert_with(|| std::sync::Arc::from(&packet.payload[..]))
                            .clone();
                        sh.outbox.push(RemoteEvent {
                            at: arrival,
                            key,
                            to: rx,
                            seq,
                            src,
                            link_dst,
                            tier,
                            kind,
                            payload,
                        });
                        continue;
                    }
                }
                rxs.push((rx, key));
            }
        }
        self.schedule_fanout(arrival, packet, rxs);
        // Trace-only diagnosis: a unicast whose link destination is not
        // in the sender's adjacency row will never arrive — record the
        // out-of-range drop so `wmsn-trace` can explain it. The cache
        // is still local here, so the membership test is O(log n).
        if self.trace.is_some() {
            if let Some(dst) = link_dst {
                let src_slot = cache.slot.get(src.index()).copied().flatten();
                let dst_slot = cache.slot.get(dst.index()).copied().flatten();
                let reachable = match (src_slot, dst_slot) {
                    (Some(s), Some(d)) => cache.adj[s].binary_search(&d).is_ok(),
                    _ => false,
                };
                if !reachable {
                    self.emit(TraceEvent::Drop {
                        t: self.now,
                        seq,
                        node: dst,
                        cause: DropCause::OutOfRange,
                    });
                }
            }
        }
        self.adjacency[ti] = Some(cache);
        true
    }

    /// Boosted-power transmission: like `transmit`, but reaching every
    /// tier member within `range_m` (ignoring the PHY's nominal range) and
    /// charging transmit energy for that distance. Models LEACH-style
    /// cluster heads talking directly to a far base station by raising
    /// their amplifier power. Receivers come from the adjacency cache's
    /// grid buckets — a `(2k+1)²`-cell block for `k = ⌈range/cell⌉` —
    /// instead of a scan over every node in the world.
    pub(crate) fn transmit_ranged(
        &mut self,
        src: NodeId,
        link_dst: Option<NodeId>,
        tier: Tier,
        kind: PacketKind,
        payload: Rc<[u8]>,
        range_m: f64,
    ) -> bool {
        if !self.can_transmit(src, tier) {
            return false;
        }
        let seq = self.next_seq(src);
        let packet = Packet {
            seq,
            src,
            link_dst,
            tier,
            kind,
            payload,
        };
        let size = packet.size_bytes();
        let phy = *self.phy(tier);
        let tx_cost = self.cfg.energy.tx_cost(size, range_m);
        self.metrics.count_sent(kind, size);
        if let Some(n) = self.metrics.node_tx.get_mut(src.index()) {
            *n += 1;
        }
        let _ = self.charge(src, tx_cost);
        if self.trace.is_some() {
            self.emit(TraceEvent::TxStart {
                t: self.now,
                seq,
                src,
                dst: link_dst,
                tier: trace_tier(tier),
                kind: trace_kind(kind),
                bytes: size as u32,
            });
        }
        let src_pos = self.nodes[src.index()].pos;
        let arrival = self.now + phy.hop_delay_us(size);
        // Tolerant comparison: callers commonly pass the exact geometric
        // distance, and sqrt(x)² can round below x.
        let tolerance = range_m * range_m * (1.0 + 1e-9);
        let ti = tier_index(tier);
        self.ensure_adjacency(tier);
        let cache = self.adjacency[ti].take().expect("just built");
        let mut slots = std::mem::take(&mut self.ranged_scratch);
        slots.clear();
        let (cx, cy) = cache.cell_of(src_pos);
        let k = (range_m / cache.cell).floor() as i64 + 1;
        for dx in -k..=k {
            for dy in -k..=k {
                if let Some(b) = cache.buckets.get(&(cx + dx, cy + dy)) {
                    for &t in b {
                        let id = cache.members[t];
                        if id != src && self.nodes[id.index()].pos.dist_sq(src_pos) <= tolerance {
                            slots.push(t);
                        }
                    }
                }
            }
        }
        // Member slots ascend with node id, so sorting restores the
        // deterministic id-order delivery schedule of a linear scan.
        slots.sort_unstable();
        let mut rxs = self.rx_pool.pop().unwrap_or_default();
        let fast_unicast = link_dst.is_some()
            && self.cfg.medium.unicast_fast_path
            && self.cfg.medium.loss_prob == 0.0
            && self.cfg.medium.collisions != CollisionModel::ReceiverOverlap;
        let mut remote_payload: Option<std::sync::Arc<[u8]>> = None;
        for &t in &slots {
            let rx = cache.members[t];
            if fast_unicast && link_dst != Some(rx) && !self.nodes[rx.index()].promiscuous {
                continue;
            }
            let key = self.next_key(src);
            if let Some(sh) = self.shard.as_mut() {
                if sh.owner[rx.index()] != sh.me {
                    let payload = remote_payload
                        .get_or_insert_with(|| std::sync::Arc::from(&packet.payload[..]))
                        .clone();
                    sh.outbox.push(RemoteEvent {
                        at: arrival,
                        key,
                        to: rx,
                        seq,
                        src,
                        link_dst,
                        tier,
                        kind,
                        payload,
                    });
                    continue;
                }
            }
            rxs.push((rx, key));
        }
        self.schedule_fanout(arrival, packet, rxs);
        self.ranged_scratch = slots;
        self.adjacency[ti] = Some(cache);
        true
    }

    /// Queue one transmission's local receivers (in key order) as a
    /// single fan-out at `(arrival, first key)`; with none, just return
    /// the buffer to the pool.
    fn schedule_fanout(&mut self, arrival: SimTime, packet: Packet, rxs: Vec<(NodeId, u64)>) {
        match rxs.first() {
            Some(&(_, key)) => self.queue.schedule(
                arrival,
                key,
                EventKind::Fanout {
                    packet,
                    rxs,
                    pos: 0,
                },
            ),
            None => self.rx_pool.push(rxs),
        }
    }

    /// Resolve one reception: loss, collision, liveness, addressing,
    /// receive energy. Returns `true` if the behaviour should see the
    /// packet.
    fn resolve_delivery(&mut self, to: NodeId, packet: &Packet) -> bool {
        if !self.alive[to.index()] {
            self.metrics.dead_receiver += 1;
            if self.trace.is_some() {
                self.emit(TraceEvent::Drop {
                    t: self.now,
                    seq: packet.seq,
                    node: to,
                    cause: DropCause::Dead,
                });
            }
            return false;
        }
        if self.cfg.medium.collisions == CollisionModel::ReceiverOverlap {
            let tier = tier_index(packet.tier);
            let phy = self.phy(packet.tier);
            let start = self
                .now
                .saturating_sub(phy.hop_delay_us(packet.size_bytes()));
            if self.collisions[tier].corrupted(to, start) {
                self.metrics.collided += 1;
                if self.trace.is_some() {
                    self.emit(TraceEvent::Drop {
                        t: self.now,
                        seq: packet.seq,
                        node: to,
                        cause: DropCause::Collision,
                    });
                }
                return false;
            }
        }
        if self.cfg.medium.loss_prob > 0.0 {
            let p = self.cfg.medium.loss_prob;
            if self.medium_rng.chance(p) {
                self.metrics.lost += 1;
                if self.trace.is_some() {
                    self.emit(TraceEvent::Drop {
                        t: self.now,
                        seq: packet.seq,
                        node: to,
                        cause: DropCause::Loss,
                    });
                }
                return false;
            }
        }
        if !packet.addressed_to(to) && !self.nodes[to.index()].promiscuous {
            // Not ours; radios filter by address without waking the CPU.
            // Deliberately not a trace `drop`: address filtering is how
            // broadcast radios work, not a lost reception.
            return false;
        }
        let rx_cost = self.cfg.energy.rx_cost(packet.size_bytes());
        if !self.charge(to, rx_cost) {
            // Died receiving: the frame is not processed.
            if self.trace.is_some() {
                self.emit(TraceEvent::Drop {
                    t: self.now,
                    seq: packet.seq,
                    node: to,
                    cause: DropCause::Energy,
                });
            }
            return false;
        }
        self.metrics.received += 1;
        if self.trace.is_some() {
            self.emit(TraceEvent::Rx {
                t: self.now,
                seq: packet.seq,
                node: to,
            });
        }
        true
    }
}

/// The simulation world.
pub struct World {
    pub(crate) core: WorldCore,
    pub(crate) behaviors: Vec<Option<Box<dyn Behavior>>>,
    pub(crate) started: bool,
}

impl World {
    /// Create an empty world.
    pub fn new(cfg: WorldConfig) -> Self {
        let medium_rng = SplitMix64::new(cfg.seed).split(0x4D45_4449_554D); // "MEDIUM"
        let active_tx = [
            TxBuckets::new(cfg.sensor_phy.range_m),
            TxBuckets::new(cfg.mesh_phy.range_m),
        ];
        World {
            core: WorldCore {
                cfg,
                nodes: Vec::new(),
                alive: Vec::new(),
                queue: EventQueue::new(),
                now: 0,
                metrics: Metrics::default(),
                node_rngs: Vec::new(),
                medium_rng,
                packet_seqs: Vec::new(),
                sched_counters: Vec::new(),
                driver_counter: 0,
                exec_key: 0,
                shard: None,
                active_tx,
                adjacency: [None, None],
                collisions: [CollisionTracker::new(), CollisionTracker::new()],
                ranged_scratch: Vec::new(),
                rx_pool: Vec::new(),
                frame_scratch: Vec::new(),
                trace: None,
            },
            behaviors: Vec::new(),
            started: false,
        }
    }

    /// Add a node with its protocol behaviour. Returns the new id.
    pub fn add_node(&mut self, cfg: NodeConfig, behavior: Box<dyn Behavior>) -> NodeId {
        let id = NodeId::from_index(self.core.nodes.len());
        self.core.nodes.push(NodeState {
            id,
            role: cfg.role,
            pos: cfg.pos,
            battery: Battery::new(cfg.battery_j),
            promiscuous: false,
        });
        self.core.alive.push(true);
        let rng = SplitMix64::new(self.core.cfg.seed).split(0x4E0D_E000 + id.0 as u64);
        self.core.node_rngs.push(rng);
        self.core.packet_seqs.push(0);
        self.core.sched_counters.push(0);
        self.core.metrics.energy_consumed.push(0.0);
        self.core.metrics.node_tx.push(0);
        self.behaviors.push(Some(behavior));
        self.core.invalidate_adjacency();
        id
    }

    /// Call every behaviour's `on_start`. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.behaviors.len() {
            let id = NodeId::from_index(i);
            self.start_node(id);
        }
    }

    /// Dispatch one node's `on_start` under a fresh driver key. The
    /// sharded kernel calls this per node (in global id order, on the
    /// owning shard) instead of [`World::start`].
    pub(crate) fn start_node(&mut self, id: NodeId) {
        self.core.begin_driver_op();
        self.dispatch(id, |b, ctx| b.on_start(ctx));
    }

    /// Build an empty-queue replica of this world for one shard of the
    /// parallel kernel: same config, node table and per-node RNG /
    /// counter streams — but no behaviours, no pending events, fresh
    /// metrics (per-node vectors zeroed at full length so shard metrics
    /// sum element-wise) and no trace sink. Only valid before `start`.
    pub(crate) fn clone_shell(&self) -> World {
        let n = self.core.nodes.len();
        World {
            core: WorldCore {
                cfg: self.core.cfg.clone(),
                nodes: self.core.nodes.clone(),
                alive: self.core.alive.clone(),
                queue: EventQueue::new(),
                now: self.core.now,
                metrics: Metrics {
                    energy_consumed: vec![0.0; n],
                    node_tx: vec![0; n],
                    ..Metrics::default()
                },
                node_rngs: self.core.node_rngs.clone(),
                medium_rng: self.core.medium_rng.clone(),
                packet_seqs: self.core.packet_seqs.clone(),
                sched_counters: self.core.sched_counters.clone(),
                driver_counter: self.core.driver_counter,
                exec_key: 0,
                shard: None,
                active_tx: [
                    TxBuckets::new(self.core.cfg.sensor_phy.range_m),
                    TxBuckets::new(self.core.cfg.mesh_phy.range_m),
                ],
                adjacency: [None, None],
                collisions: [CollisionTracker::new(), CollisionTracker::new()],
                ranged_scratch: Vec::new(),
                rx_pool: Vec::new(),
                frame_scratch: Vec::new(),
                trace: None,
            },
            behaviors: (0..n).map(|_| None).collect(),
            started: false,
        }
    }

    /// Install cross-shard routing state (see [`ShardState`]).
    pub(crate) fn install_shard_state(&mut self, owner: Vec<u16>, me: u16) {
        self.core.shard = Some(ShardState {
            owner,
            me,
            outbox: Vec::new(),
        });
    }

    /// Drain deliveries bound for other shards, accumulated during the
    /// last run window.
    pub(crate) fn drain_shard_outbox(&mut self, into: &mut Vec<RemoteEvent>) {
        if let Some(sh) = self.core.shard.as_mut() {
            into.append(&mut sh.outbox);
        }
    }

    /// Schedule a shard-crossing delivery received from another shard
    /// as a one-receiver fan-out. The packet is rebuilt locally (`Arc`
    /// payload copied into a fresh `Rc`), carrying the exact `(at, key)`
    /// the sending shard minted — so it fires in the same global order
    /// the unsharded run would use.
    pub(crate) fn inject_remote(&mut self, e: RemoteEvent) {
        let packet = Packet {
            seq: e.seq,
            src: e.src,
            link_dst: e.link_dst,
            tier: e.tier,
            kind: e.kind,
            payload: Rc::from(&e.payload[..]),
        };
        let mut rxs = self.core.rx_pool.pop().unwrap_or_default();
        rxs.push((e.to, e.key));
        self.core.schedule_fanout(e.at, packet, rxs);
    }

    /// Earliest pending event time, if any (the sharded coordinator's
    /// window input).
    pub(crate) fn peek_event_time(&mut self) -> Option<SimTime> {
        self.core.queue.peek_time()
    }

    fn dispatch<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut Box<dyn Behavior>, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        let behavior = self.behaviors[id.index()].as_mut()?;
        let mut ctx = Ctx {
            core: &mut self.core,
            node: id,
        };
        Some(f(behavior, &mut ctx))
    }

    /// Process events until the queue is empty or `deadline` is passed.
    /// Time is left at `min(deadline, last event time)`… precisely: events
    /// with `at <= deadline` fire; afterwards `now == deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(t) = self.core.queue.peek_time() {
            if t > deadline {
                break;
            }
            let ev = self.core.queue.pop().expect("peeked");
            self.core.now = ev.at;
            self.core.exec_key = ev.key;
            match ev.kind {
                EventKind::Fanout { packet, rxs, pos } => self.fan_out(ev.at, packet, rxs, pos),
                EventKind::Timer { node, tag } => {
                    if self.core.alive[node.index()] {
                        self.dispatch(node, |b, ctx| b.on_timer(ctx, tag));
                    }
                }
                EventKind::Retransmit {
                    src,
                    link_dst,
                    tier,
                    kind,
                    payload,
                    attempt,
                } => {
                    self.core
                        .transmit_attempt(src, link_dst, tier, kind, payload, attempt);
                }
                EventKind::Breakpoint => {}
            }
        }
        self.core.now = self.core.now.max(deadline);
        // A drained queue means every scheduled delivery has resolved, so
        // expired medium state can never be read again — sweep it now to
        // keep the dense tables from accumulating over long runs.
        if self.core.queue.is_empty() {
            let now = self.core.now;
            for c in &mut self.core.collisions {
                c.prune(now);
            }
            for tx in &mut self.core.active_tx {
                tx.prune(now);
            }
        }
    }

    /// Serve a popped fan-out from receiver `pos` on, in key order. The
    /// pop counted the first receiver; each later one is counted as it
    /// is served. Before each later receiver the queue head is checked:
    /// if an event sorts before that receiver's `(at, key)` — a zero-
    /// delay timer an earlier receiver set, say — the rest of the batch
    /// goes back into the queue at that key, so events pop in exactly
    /// the order one event per reception would give.
    fn fan_out(
        &mut self,
        at: SimTime,
        packet: Packet,
        mut rxs: Vec<(NodeId, u64)>,
        mut pos: usize,
    ) {
        loop {
            let (to, key) = rxs[pos];
            self.core.exec_key = key;
            if self.core.resolve_delivery(to, &packet) {
                self.dispatch(to, |b, ctx| b.on_packet(ctx, &packet));
            }
            pos += 1;
            let Some(&(_, next)) = rxs.get(pos) else {
                break;
            };
            if self.core.queue.precedes(at, next) {
                let rest = EventKind::Fanout { packet, rxs, pos };
                self.core.queue.resume(at, next, rest);
                return;
            }
            self.core.queue.count_served();
        }
        rxs.clear();
        self.core.rx_pool.push(rxs);
    }

    /// Run for `dt` more microseconds.
    pub fn run_for(&mut self, dt: SimTime) {
        let deadline = self.core.now + dt;
        self.run_until(deadline);
    }

    /// Run until no events remain (bounded by `max_events` as a runaway
    /// guard). Returns the number of events processed.
    pub fn run_to_idle(&mut self, max_events: u64) -> u64 {
        self.start();
        let mut n = 0;
        while n < max_events {
            let Some(t) = self.core.queue.peek_time() else {
                break;
            };
            self.run_until(t);
            n += 1;
        }
        n
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Immutable node state.
    pub fn node(&self, id: NodeId) -> &NodeState {
        &self.core.nodes[id.index()]
    }

    /// Whether `id` is operational: not dead (drained battery or
    /// killed) and not asleep.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.core.alive[id.index()]
    }

    /// Ids of all nodes with `role`.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.nodes_with_role_iter(role).collect()
    }

    /// Iterator over the ids of all nodes with `role` — the
    /// allocation-free form of [`World::nodes_with_role`].
    pub fn nodes_with_role_iter(&self, role: NodeRole) -> impl Iterator<Item = NodeId> + '_ {
        self.core
            .nodes
            .iter()
            .filter(move |n| n.role == role)
            .map(|n| n.id)
    }

    /// Move a node (gateway mobility between rounds). Updates the
    /// adjacency caches incrementally: only the moved node's row, the
    /// rows referencing it and its grid bucket are touched.
    pub fn set_position(&mut self, id: NodeId, pos: wmsn_util::Point) {
        self.core.begin_driver_op();
        self.set_position_inner(id, pos);
    }

    /// [`World::set_position`] without the driver-op key: the sharded
    /// kernel replicates moves to every shard with it.
    pub(crate) fn set_position_inner(&mut self, id: NodeId, pos: wmsn_util::Point) {
        let old_pos = self.core.nodes[id.index()].pos;
        self.core.nodes[id.index()].pos = pos;
        for ti in 0..2 {
            self.core.update_adjacency_for_move(ti, id, old_pos);
        }
        if self.core.trace.is_some() {
            self.core.emit(TraceEvent::NodeMove {
                t: self.core.now,
                node: id,
                x: pos.x,
                y: pos.y,
            });
        }
    }

    /// Put a node's radio in promiscuous mode (adversaries eavesdropping
    /// unicast traffic).
    pub fn set_promiscuous(&mut self, id: NodeId, on: bool) {
        self.core.begin_driver_op();
        self.core.nodes[id.index()].promiscuous = on;
    }

    /// Put a node to sleep (topology-control scheduling): its radio is
    /// off — it neither transmits nor receives — but unlike [`World::kill`]
    /// this records no death and is freely reversible with
    /// [`World::wake`].
    pub fn sleep(&mut self, id: NodeId) {
        self.core.begin_driver_op();
        self.sleep_inner(id);
    }

    /// [`World::sleep`] body (see [`World::set_position_inner`]).
    pub(crate) fn sleep_inner(&mut self, id: NodeId) {
        self.core.alive[id.index()] = false;
        if self.core.trace.is_some() {
            self.core.emit(TraceEvent::NodeSleep {
                t: self.core.now,
                node: id,
            });
        }
    }

    /// Wake a sleeping node (no-op if its battery is spent).
    pub fn wake(&mut self, id: NodeId) {
        self.core.begin_driver_op();
        self.wake_inner(id);
    }

    /// [`World::wake`] / [`World::revive`] body (see
    /// [`World::set_position_inner`]).
    pub(crate) fn wake_inner(&mut self, id: NodeId) {
        if self.core.nodes[id.index()].battery.alive() {
            self.core.alive[id.index()] = true;
            if self.core.trace.is_some() {
                self.core.emit(TraceEvent::NodeWake {
                    t: self.core.now,
                    node: id,
                });
            }
        }
    }

    /// Kill a node (fault injection / captured-node experiments).
    pub fn kill(&mut self, id: NodeId) {
        self.core.begin_driver_op();
        self.kill_inner(id);
    }

    /// [`World::kill`] body (see [`World::set_position_inner`]).
    pub(crate) fn kill_inner(&mut self, id: NodeId) {
        if self.core.alive[id.index()] {
            self.core.alive[id.index()] = false;
            if self.core.nodes[id.index()].role == NodeRole::Sensor
                && self.core.metrics.first_death.is_none()
            {
                self.core.metrics.first_death = Some(self.core.now);
                self.core.metrics.first_death_node = Some(id);
            }
            if self.core.trace.is_some() {
                self.core.emit(TraceEvent::NodeKill {
                    t: self.core.now,
                    node: id,
                });
            }
        }
    }

    /// Revive a node (round-based protocols that model sleep).
    pub fn revive(&mut self, id: NodeId) {
        self.core.begin_driver_op();
        self.wake_inner(id);
    }

    /// Install a structured-trace sink. Every subsequent packet-
    /// lifecycle and protocol-decision event is recorded into it; pass
    /// the result of [`World::take_trace_sink`] back in to resume.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.core.trace = Some(sink);
    }

    /// Remove and return the trace sink (flushed), disabling tracing.
    /// Downcast it via [`TraceSink::as_any`] to read captured state.
    pub fn take_trace_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        let mut sink = self.core.trace.take()?;
        sink.flush();
        Some(sink)
    }

    /// Whether a trace sink is installed.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace.is_some()
    }

    /// Flush the installed trace sink in place (no-op when tracing is
    /// disabled): a buffered sink writes out what it holds, so a
    /// `CaptureSink`'s file then has every frame recorded so far. Call
    /// it between `run_until` calls; the world never flushes mid-run on
    /// its own.
    pub fn flush_trace(&mut self) {
        if let Some(sink) = self.core.trace.as_deref_mut() {
            sink.flush();
        }
    }

    /// Borrow the installed trace sink downcast to a concrete type —
    /// `None` if no sink is installed or it is a different type. Lets
    /// online consumers (e.g. a health monitor) be interrogated
    /// mid-run without removing the sink.
    pub fn trace_sink_as<T: 'static>(&self) -> Option<&T> {
        self.core.trace.as_deref()?.as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`World::trace_sink_as`] — the hook a policy
    /// loop uses to drain alerts from an installed monitor.
    pub fn trace_sink_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.core
            .trace
            .as_deref_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Total events the event loop has processed (popped) so far.
    pub fn events_processed(&self) -> u64 {
        self.core.queue.total_popped()
    }

    /// High-water mark of the event queue over the run.
    pub fn peak_queue_depth(&self) -> usize {
        self.core.queue.peak_len()
    }

    /// Toggle the unicast fast-path delivery optimisation.
    ///
    /// Test hook: lets `shard_equivalence` check the legacy full-medium
    /// delivery path against the fast path on the same build. Flip it
    /// before handing the world to the sharded kernel — shard shells
    /// clone the configuration at construction.
    pub fn set_unicast_fast_path(&mut self, on: bool) {
        self.core.cfg.medium.unicast_fast_path = on;
    }

    /// Read the metrics ledger.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable metrics (experiments reset counters between phases).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Alive neighbours of `id` on `tier` (same view behaviours get).
    pub fn neighbors(&mut self, id: NodeId, tier: Tier) -> Vec<NodeId> {
        self.core.neighbors_of(id, tier)
    }

    /// Downcast a node's behaviour for inspection.
    pub fn behavior_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.behaviors[id.index()]
            .as_ref()
            .and_then(|b| b.as_any().downcast_ref::<T>())
    }

    /// Invoke protocol-specific entry points (round starts, traffic
    /// injection) on a node's behaviour with a live [`Ctx`].
    pub fn with_behavior<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        self.start();
        self.core.begin_driver_op();
        let typed = self.behaviors[id.index()]
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()?;
        let mut ctx = Ctx {
            core: &mut self.core,
            node: id,
        };
        Some(f(typed, &mut ctx))
    }

    /// Ids of sensors (the subset lifetime/energy metrics range over).
    pub fn sensor_ids(&self) -> Vec<NodeId> {
        self.nodes_with_role(NodeRole::Sensor)
    }

    /// Iterator over sensor ids — the allocation-free form of
    /// [`World::sensor_ids`].
    pub fn sensor_ids_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_with_role_iter(NodeRole::Sensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use wmsn_util::Point;

    /// Test behaviour: floods a counter once, counts receptions, echoes
    /// timers.
    #[derive(Default)]
    struct Probe {
        received: Vec<u64>,
        timers: Vec<u64>,
        send_on_start: bool,
    }

    impl Behavior for Probe {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.send_on_start {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![42]);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: &Packet) {
            self.received.push(pkt.seq);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, tag: u64) {
            self.timers.push(tag);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn probe(send: bool) -> Box<Probe> {
        Box::new(Probe {
            send_on_start: send,
            ..Default::default()
        })
    }

    fn two_node_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(true));
        let b = w.add_node(NodeConfig::sensor(Point::new(10.0, 0.0), 1.0), probe(false));
        (w, a, b)
    }

    #[test]
    fn broadcast_reaches_in_range_neighbor() {
        let (mut w, _a, b) = two_node_world();
        w.run_until(1_000_000);
        let p = w.behavior_as::<Probe>(b).unwrap();
        assert_eq!(p.received.len(), 1);
        assert_eq!(w.metrics().received, 1);
        assert_eq!(w.metrics().sent_data, 1);
    }

    #[test]
    fn trace_sink_records_the_packet_lifecycle() {
        use wmsn_trace::CountingSink;
        let (mut w, _a, _b) = two_node_world();
        w.set_trace_sink(Box::new(CountingSink::new()));
        assert!(w.trace_enabled());
        w.run_until(1_000_000);
        let sink = w.take_trace_sink().expect("installed");
        assert!(!w.trace_enabled());
        let c = sink.as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.count_of("tx_start"), 1);
        assert_eq!(c.count_of("rx"), 1);
        // One energy event per charge: the tx and the rx.
        assert_eq!(c.count_of("energy"), 2);
    }

    #[test]
    fn unreachable_unicast_traces_an_out_of_range_drop() {
        use wmsn_trace::CountingSink;
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        let far = w.add_node(
            NodeConfig::sensor(Point::new(500.0, 0.0), 1.0),
            probe(false),
        );
        w.set_trace_sink(Box::new(CountingSink::new()));
        w.start();
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(Some(far), Tier::Sensor, PacketKind::Data, vec![7]);
        });
        w.run_until(1_000_000);
        let sink = w.take_trace_sink().unwrap();
        let c = sink.as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.drops_of("out_of_range"), 1);
        assert_eq!(c.count_of("rx"), 0);
    }

    #[test]
    fn event_queue_counters_track_throughput_and_depth() {
        let (mut w, _a, _b) = two_node_world();
        assert_eq!(w.events_processed(), 0);
        w.run_until(1_000_000);
        // One broadcast delivery event scheduled and popped.
        assert_eq!(w.events_processed(), 1);
        assert!(w.peak_queue_depth() >= 1);
    }

    #[test]
    fn execution_stats_count_receptions_not_fanouts() {
        // One broadcast heard by four nodes: four receptions served and
        // four pending at the peak, as if each were its own event.
        let mut w = World::new(WorldConfig::ideal(1));
        for i in 0..5 {
            let p = Point::new(i as f64, 0.0);
            w.add_node(NodeConfig::sensor(p, 1.0), probe(i == 0));
        }
        w.run_until(1_000_000);
        assert_eq!(w.metrics().received, 4);
        assert_eq!(w.events_processed(), 4);
        assert_eq!(w.peak_queue_depth(), 4);
    }

    /// Relays the first frame it hears from a zero-delay timer.
    struct TimerRelay {
        kick: bool,
        armed: bool,
    }

    impl Behavior for TimerRelay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.kick {
                self.armed = true;
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![1]);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: &Packet) {
            if !self.armed {
                self.armed = true;
                ctx.set_timer(0, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![2]);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn zero_delay_timers_preempt_the_rest_of_a_fanout() {
        // Node 2 broadcasts to 0, 1, 3 and 4. Nodes 0 and 1 mint timer
        // keys below node 2's reception keys, so each relays before the
        // next reception of the same broadcast; nodes 3 and 4 mint keys
        // above them, so their relays follow the whole fan-out.
        let mut w = World::new(WorldConfig::ideal(1));
        for i in 0..5 {
            let b = Box::new(TimerRelay {
                kick: i == 2,
                armed: false,
            });
            w.add_node(NodeConfig::sensor(Point::new(i as f64, 0.0), 1.0), b);
        }
        w.set_trace_sink(Box::new(wmsn_trace::BufferSink::new()));
        w.run_until(1_000);
        let sink = w.take_trace_sink().expect("installed");
        let out = &sink
            .as_any()
            .downcast_ref::<wmsn_trace::BufferSink>()
            .expect("buffer sink")
            .out;
        let order: Vec<String> = out
            .lines()
            .filter_map(|l| match TraceEvent::from_json_line(l).expect("line") {
                TraceEvent::Rx { node, .. } => Some(format!("rx{}", node.0)),
                TraceEvent::TxStart { src, .. } => Some(format!("tx{}", src.0)),
                _ => None,
            })
            .collect();
        assert_eq!(
            order[..9],
            ["tx2", "rx0", "tx0", "rx1", "tx1", "rx3", "rx4", "tx3", "tx4"]
        );
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let mut w = World::new(WorldConfig::ideal(1));
        let _a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(true));
        let far = w.add_node(
            NodeConfig::sensor(Point::new(500.0, 0.0), 1.0),
            probe(false),
        );
        w.run_until(1_000_000);
        assert!(w.behavior_as::<Probe>(far).unwrap().received.is_empty());
    }

    #[test]
    fn unicast_is_filtered_by_address() {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        let b = w.add_node(NodeConfig::sensor(Point::new(10.0, 0.0), 1.0), probe(false));
        let c = w.add_node(NodeConfig::sensor(Point::new(0.0, 10.0), 1.0), probe(false));
        w.start();
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(Some(b), Tier::Sensor, PacketKind::Data, vec![7]);
        });
        w.run_until(1_000_000);
        assert_eq!(w.behavior_as::<Probe>(b).unwrap().received.len(), 1);
        assert!(w.behavior_as::<Probe>(c).unwrap().received.is_empty());
        // c never paid receive energy for the filtered frame.
        assert_eq!(w.metrics().energy_consumed[c.index()], 0.0);
    }

    #[test]
    fn timers_fire_in_order_with_tags() {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        w.start();
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.set_timer(300, 3);
            ctx.set_timer(100, 1);
            ctx.set_timer(200, 2);
        });
        w.run_until(1_000);
        assert_eq!(w.behavior_as::<Probe>(a).unwrap().timers, vec![1, 2, 3]);
    }

    #[test]
    fn energy_is_charged_for_tx_and_rx() {
        let (mut w, a, b) = two_node_world();
        w.run_until(1_000_000);
        // Per-packet default: 1 mJ per send, 1 mJ per receive.
        assert!((w.metrics().energy_consumed[a.index()] - 1e-3).abs() < 1e-9);
        assert!((w.metrics().energy_consumed[b.index()] - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn battery_exhaustion_kills_and_records_first_death() {
        let mut w = World::new(WorldConfig::ideal(1));
        // Battery covers exactly 2 sends (per-packet 1 mJ).
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 2e-3), probe(false));
        w.start();
        for _ in 0..3 {
            w.with_behavior::<Probe, _>(a, |_, ctx| {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![]);
            });
        }
        assert!(!w.is_alive(a));
        assert_eq!(w.metrics().first_death, Some(0));
        assert_eq!(w.metrics().first_death_node, Some(a));
    }

    #[test]
    fn dead_nodes_neither_send_nor_receive() {
        let (mut w, a, b) = two_node_world();
        w.start();
        w.kill(b);
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            assert!(ctx.send(None, Tier::Sensor, PacketKind::Data, vec![]));
        });
        w.run_until(1_000_000);
        // b was dead at delivery: counted, not processed (1 from on_start
        // broadcast already delivered? No: b was killed before start? We
        // killed after start but before a's broadcast arrived…)
        let got = w.behavior_as::<Probe>(b).unwrap().received.len();
        assert_eq!(got, 0);
        assert!(w.metrics().dead_receiver >= 1);
        w.kill(a);
        let sent = w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![])
        });
        assert_eq!(sent, Some(false));
    }

    /// Counts receptions and timers. Timer tag [`DRAIN`] drains the
    /// node's battery; `drain_on_rx` drains it on the first reception.
    #[derive(Default)]
    struct Life {
        heard: u32,
        timers: Vec<u64>,
        drain_on_rx: bool,
    }

    const DRAIN: u64 = 2;

    impl Behavior for Life {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _pkt: &Packet) {
            self.heard += 1;
            if self.drain_on_rx {
                assert!(!ctx.consume_energy(10.0));
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
            self.timers.push(tag);
            if tag == DRAIN {
                assert!(!ctx.consume_energy(10.0));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn liveness_follows_kill_sleep_wake_revive_and_battery_death() {
        // Five sensors in one another's range; node 2 broadcasts.
        let mut w = World::new(WorldConfig::ideal(1));
        let ids: Vec<NodeId> = (0..5)
            .map(|i| {
                let b = Box::new(Life {
                    drain_on_rx: i == 0,
                    ..Default::default()
                });
                w.add_node(NodeConfig::sensor(Point::new(i as f64, 0.0), 1.0), b)
            })
            .collect();
        let live = |w: &World| -> Vec<bool> { ids.iter().map(|&i| w.is_alive(i)).collect() };
        let heard = |w: &World| -> Vec<u32> {
            ids.iter()
                .map(|&i| w.behavior_as::<Life>(i).unwrap().heard)
                .collect()
        };
        let broadcast = |w: &mut World, from: NodeId| {
            let sent = w.with_behavior::<Life, _>(from, |_, ctx| {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![0])
            });
            assert_eq!(sent, Some(true));
        };
        let neighbors_of_2 = |w: &mut World| -> Vec<u32> {
            w.neighbors(ids[2], Tier::Sensor)
                .iter()
                .map(|n| n.0)
                .collect()
        };
        w.start();
        assert_eq!(live(&w), [true; 5]);
        // A timer node 0 never sees: it is dead when the timer fires.
        w.with_behavior::<Life, _>(ids[0], |_, ctx| ctx.set_timer(500_000, 7));

        // A fan-out built for 0, 1, 3 and 4. Node 4 is killed in flight
        // and counted dead at delivery; node 0, served first, drains its
        // battery mid-fan-out and the rest of the fan-out goes on.
        broadcast(&mut w, ids[2]);
        w.kill(ids[4]);
        assert_eq!(live(&w), [true, true, true, true, false]);
        w.run_until(1_000_000);
        assert_eq!(heard(&w), [1, 1, 0, 1, 0]);
        assert_eq!(w.metrics().received, 3);
        assert_eq!(w.metrics().dead_receiver, 1);
        assert_eq!(live(&w), [false, true, true, true, false]);
        assert!(w.behavior_as::<Life>(ids[0]).unwrap().timers.is_empty());
        assert_eq!(w.metrics().first_death_node, Some(ids[4]));

        // Dead and sleeping receivers are left out when the fan-out is
        // built: one reception is served, none is counted dead.
        w.sleep(ids[3]);
        assert_eq!(live(&w), [false, true, true, false, false]);
        assert_eq!(neighbors_of_2(&mut w), [1]);
        let events = w.events_processed();
        broadcast(&mut w, ids[2]);
        w.run_until(2_000_000);
        assert_eq!(w.events_processed() - events, 1);
        assert_eq!(heard(&w), [1, 2, 0, 1, 0]);
        assert_eq!(w.metrics().dead_receiver, 1);

        // Wake and revive bring back a node whose battery holds charge,
        // never a drained one.
        w.wake(ids[3]);
        w.revive(ids[4]);
        w.revive(ids[0]);
        assert_eq!(live(&w), [false, true, true, true, true]);
        assert_eq!(neighbors_of_2(&mut w), [1, 3, 4]);
        let sent = w.with_behavior::<Life, _>(ids[0], |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![0])
        });
        assert_eq!(sent, Some(false), "a dead node cannot transmit");

        // A fan-out built for 1, 3 and 4: node 4 falls asleep and node
        // 3's battery dies (its own timer) while the frame is in flight.
        broadcast(&mut w, ids[2]);
        w.sleep(ids[4]);
        w.with_behavior::<Life, _>(ids[3], |_, ctx| ctx.set_timer(1, DRAIN));
        let events = w.events_processed();
        w.run_until(3_000_000);
        assert_eq!(
            w.events_processed() - events,
            4,
            "the timer and 3 receptions"
        );
        assert_eq!(heard(&w), [1, 3, 0, 1, 0]);
        assert_eq!(w.metrics().dead_receiver, 3);
        assert_eq!(live(&w), [false, true, true, false, false]);
        assert_eq!(w.behavior_as::<Life>(ids[3]).unwrap().timers, [DRAIN]);
        w.wake(ids[3]);
        w.wake(ids[4]);
        assert_eq!(live(&w), [false, true, true, false, true]);
    }

    #[test]
    fn sensors_cannot_transmit_on_the_mesh_tier() {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        w.start();
        let ok = w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(None, Tier::Mesh, PacketKind::Data, vec![])
        });
        assert_eq!(ok, Some(false));
    }

    #[test]
    fn gateway_bridges_both_tiers() {
        let mut w = World::new(WorldConfig::ideal(1));
        let g = w.add_node(NodeConfig::gateway(Point::new(0.0, 0.0)), probe(false));
        let s = w.add_node(NodeConfig::sensor(Point::new(5.0, 0.0), 1.0), probe(false));
        let r = w.add_node(
            NodeConfig::mesh_router(Point::new(100.0, 0.0)),
            probe(false),
        );
        w.start();
        w.with_behavior::<Probe, _>(g, |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![1]);
            ctx.send(None, Tier::Mesh, PacketKind::Data, vec![2]);
        });
        w.run_until(1_000_000);
        assert_eq!(w.behavior_as::<Probe>(s).unwrap().received.len(), 1);
        assert_eq!(w.behavior_as::<Probe>(r).unwrap().received.len(), 1);
    }

    #[test]
    fn mesh_router_does_not_hear_sensor_tier() {
        let mut w = World::new(WorldConfig::ideal(1));
        let g = w.add_node(NodeConfig::gateway(Point::new(0.0, 0.0)), probe(false));
        let r = w.add_node(NodeConfig::mesh_router(Point::new(5.0, 0.0)), probe(false));
        w.start();
        w.with_behavior::<Probe, _>(g, |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![1]);
        });
        w.run_until(1_000_000);
        assert!(w.behavior_as::<Probe>(r).unwrap().received.is_empty());
    }

    #[test]
    fn moving_a_node_updates_reachability() {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        let b = w.add_node(
            NodeConfig::sensor(Point::new(500.0, 0.0), 1.0),
            probe(false),
        );
        w.start();
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![]);
        });
        w.run_until(10_000);
        assert!(w.behavior_as::<Probe>(b).unwrap().received.is_empty());
        w.set_position(b, Point::new(10.0, 0.0));
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.send(None, Tier::Sensor, PacketKind::Data, vec![]);
        });
        w.run_until(20_000);
        assert_eq!(w.behavior_as::<Probe>(b).unwrap().received.len(), 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut w = World::new(WorldConfig {
                medium: MediumConfig {
                    loss_prob: 0.3,
                    collisions: CollisionModel::None,
                    csma: false,
                    ..MediumConfig::default()
                },
                ..WorldConfig::ideal(99)
            });
            let mut ids = Vec::new();
            for i in 0..20 {
                ids.push(w.add_node(
                    NodeConfig::sensor(Point::new((i % 5) as f64 * 8.0, (i / 5) as f64 * 8.0), 1.0),
                    probe(true),
                ));
            }
            w.run_until(5_000_000);
            (
                w.metrics().received,
                w.metrics().lost,
                w.metrics().total_sent(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_probability_drops_roughly_that_fraction() {
        let mut w = World::new(WorldConfig {
            medium: MediumConfig {
                loss_prob: 0.5,
                collisions: CollisionModel::None,
                csma: false,
                ..MediumConfig::default()
            },
            ..WorldConfig::ideal(7)
        });
        // A dense clique: every send has 24 potential receivers.
        for i in 0..25 {
            w.add_node(
                NodeConfig::sensor(Point::new((i % 5) as f64, (i / 5) as f64), 10.0),
                probe(true),
            );
        }
        w.run_until(1_000_000);
        let m = w.metrics();
        let total = m.received + m.lost;
        assert_eq!(total, 25 * 24);
        let ratio = m.lost as f64 / total as f64;
        assert!((0.4..0.6).contains(&ratio), "loss ratio {ratio}");
    }

    #[test]
    fn colliding_broadcasts_corrupt_receptions() {
        let mut w = World::new(WorldConfig {
            medium: MediumConfig {
                loss_prob: 0.0,
                collisions: CollisionModel::ReceiverOverlap,
                csma: false,
                ..MediumConfig::default()
            },
            ..WorldConfig::ideal(3)
        });
        // Two senders, one receiver in range of both; both transmit at t=0.
        let _s1 = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(true));
        let _s2 = w.add_node(NodeConfig::sensor(Point::new(20.0, 0.0), 1.0), probe(true));
        let r = w.add_node(NodeConfig::sensor(Point::new(10.0, 0.0), 1.0), probe(false));
        w.run_until(1_000_000);
        assert!(w.behavior_as::<Probe>(r).unwrap().received.is_empty());
        assert!(w.metrics().collided >= 2);
    }

    #[test]
    fn csma_defers_instead_of_colliding() {
        // Two senders in mutual range transmit at the same instant at a
        // shared receiver. Without CSMA both frames collide; with CSMA
        // the second sender hears the first and defers, so the receiver
        // decodes both.
        let build = |csma: bool| {
            let mut w = World::new(WorldConfig {
                medium: MediumConfig {
                    loss_prob: 0.0,
                    collisions: CollisionModel::ReceiverOverlap,
                    csma,
                    ..MediumConfig::default()
                },
                ..WorldConfig::ideal(3)
            });
            let s1 = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
            let s2 = w.add_node(NodeConfig::sensor(Point::new(20.0, 0.0), 1.0), probe(false));
            let r = w.add_node(NodeConfig::sensor(Point::new(10.0, 0.0), 1.0), probe(false));
            w.start();
            // s1 transmits first (occupying the air), s2 a hair later.
            w.with_behavior::<Probe, _>(s1, |_, ctx| {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![1; 40]);
            });
            w.run_for(10); // s1's frame is now on the air
            w.with_behavior::<Probe, _>(s2, |_, ctx| {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![2; 40]);
            });
            w.run_until(1_000_000);
            (
                w.behavior_as::<Probe>(r).unwrap().received.len(),
                w.metrics().csma_deferrals,
            )
        };
        let (got_bare, _) = build(false);
        assert_eq!(got_bare, 0, "without CSMA both frames collide");
        let (got_csma, deferrals) = build(true);
        assert_eq!(got_csma, 2, "with CSMA both frames arrive");
        assert!(deferrals >= 1);
    }

    #[test]
    fn run_to_idle_processes_everything() {
        let (mut w, _a, _b) = two_node_world();
        let n = w.run_to_idle(10_000);
        assert!(n >= 1);
        assert_eq!(w.metrics().received, 1);
    }

    #[test]
    fn delivery_and_origination_bookkeeping() {
        let mut w = World::new(WorldConfig::ideal(1));
        let a = w.add_node(NodeConfig::sensor(Point::new(0.0, 0.0), 1.0), probe(false));
        w.start();
        w.with_behavior::<Probe, _>(a, |_, ctx| {
            ctx.record_origination();
            ctx.record_delivery(NodeId(0), 1, 0, 3);
        });
        assert_eq!(w.metrics().originated, 1);
        assert_eq!(w.metrics().deliveries.len(), 1);
        assert!((w.metrics().delivery_ratio() - 1.0).abs() < 1e-12);
    }
}
