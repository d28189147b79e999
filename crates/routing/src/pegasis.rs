//! PEGASIS — Power-Efficient GAthering in Sensor Information Systems
//! (Lindsey & Raghavendra 2002; the paper's reference \[25\]).
//!
//! The hierarchical baseline of §2.2.2 that improves on LEACH: "nodes
//! need only communicate with their closest neighbors and they take turns
//! in communicating with the sink". Nodes form a single **chain** by the
//! classic greedy construction (start from the node farthest from the
//! sink; repeatedly append the nearest unvisited node); each round a
//! rotating **leader** is chosen; data flows along the chain toward the
//! leader, aggregating at every hop, and the leader makes the one
//! long-range transmission to the sink.
//!
//! The chain is computed at deployment (PEGASIS assumes global knowledge
//! of positions, as the original paper does) and the round driver calls
//! [`PegasisSensor::gather`] on each node in chain-order, which matches
//! the token-passing schedule of the original protocol.

use std::any::Any;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::Pad;
use wmsn_util::{NodeId, Point};

wmsn_util::packet_schema! {
    /// PEGASIS wire messages. The defining property of PEGASIS is **in-
    /// network aggregation**: a chain frame is constant-size regardless of
    /// how many readings it subsumes (the original paper fuses readings into
    /// one representative value — a max, a mean — at every hop). The frame
    /// carries the aggregate payload plus bookkeeping: how many readings are
    /// folded in, the earliest origination time (for latency accounting) and
    /// the chain hop count.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum PegasisMsg;
    /// Borrowed decode of a PEGASIS frame.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum PegasisMsgView<'a>;
    /// Fixed byte offsets of the PEGASIS frames' fields.
    pub mod layout;

    /// Aggregate moving along the chain toward the leader.
    0x70 Chain {
        /// Round this aggregate belongs to.
        round: u32,
        /// Readings fused into this aggregate.
        count: u16,
        /// Earliest origination time among them (µs).
        first_sent_at: u64,
        /// Chain hops taken so far.
        hops: u32,
        /// Fused payload size (constant; transmitted as padding).
        payload_len: Pad,
    }
    /// The leader's long-range transmission to the sink.
    0x71 Leader {
        /// Round.
        round: u32,
        /// Readings represented.
        count: u16,
        /// Earliest origination time.
        first_sent_at: u64,
        /// Chain hops before the final sink hop.
        hops: u32,
        /// Fused payload size.
        payload_len: Pad,
    }
}

/// Greedy chain construction: start from the node farthest from the
/// sink, repeatedly append the nearest unvisited node. Returns positions'
/// indices in chain order.
pub fn build_chain(positions: &[Point], sink: Point) -> Vec<usize> {
    let n = positions.len();
    if n == 0 {
        return Vec::new();
    }
    let start = (0..n)
        .max_by(|&a, &b| {
            positions[a]
                .dist_sq(sink)
                .partial_cmp(&positions[b].dist_sq(sink))
                .unwrap()
        })
        .unwrap();
    let mut chain = vec![start];
    let mut used = vec![false; n];
    used[start] = true;
    while chain.len() < n {
        let tail = *chain.last().unwrap();
        let next = (0..n)
            .filter(|&i| !used[i])
            .min_by(|&a, &b| {
                positions[tail]
                    .dist_sq(positions[a])
                    .partial_cmp(&positions[tail].dist_sq(positions[b]))
                    .unwrap()
            })
            .unwrap();
        used[next] = true;
        chain.push(next);
    }
    chain
}

/// Per-node PEGASIS configuration (set at deployment).
#[derive(Clone, Debug)]
pub struct PegasisConfig {
    /// This node's position in the chain.
    pub chain_index: usize,
    /// Node ids in chain order (shared by all nodes).
    pub chain: Vec<NodeId>,
    /// Node positions in chain order (for link-distance power control).
    pub chain_positions: Vec<Point>,
    /// The sink.
    pub sink: NodeId,
    /// Sink position.
    pub sink_pos: Point,
    /// Power-control cap (m).
    pub max_boost_range: f64,
}

/// PEGASIS sensor behaviour.
pub struct PegasisSensor {
    cfg: PegasisConfig,
    /// Readings fused into the aggregate held here, and the earliest
    /// origination time among them.
    pending_count: u16,
    pending_first: u64,
    pending_hops: u32,
    /// Current round (stamped into outgoing frames).
    round: u32,
    /// Whether this node leads the current round.
    pub is_leader: bool,
    /// Sides (lower/upper chain half) still expected by the leader.
    awaiting: u8,
    /// Whether this node's own gather step has run this round (the
    /// leader must fold its own reading in before transmitting).
    gathered: bool,
    next_msg_id: u64,
}

impl PegasisSensor {
    /// New node.
    pub fn new(cfg: PegasisConfig) -> Self {
        PegasisSensor {
            cfg,
            pending_count: 0,
            pending_first: u64::MAX,
            pending_hops: 0,
            round: 0,
            is_leader: false,
            awaiting: 0,
            gathered: false,
            next_msg_id: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: PegasisConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Leader index for a round: rotates along the chain (the original
    /// protocol's `i mod N` rotation).
    pub fn leader_index(round: u32, chain_len: usize) -> usize {
        (round as usize) % chain_len.max(1)
    }

    /// Round start: remember the leader role. The leader expects
    /// aggregates from each side of the chain that contains nodes.
    pub fn start_round(&mut self, round: u32) {
        let li = Self::leader_index(round, self.cfg.chain.len());
        self.is_leader = li == self.cfg.chain_index;
        self.pending_count = 0;
        self.pending_first = u64::MAX;
        self.pending_hops = 0;
        self.round = round;
        self.gathered = false;
        self.awaiting = if self.is_leader {
            u8::from(li > 0) + u8::from(li + 1 < self.cfg.chain.len())
        } else {
            0
        };
    }

    /// Gathering step for this node (driver calls end nodes first, then
    /// inward, mirroring the chain token schedule). End nodes originate;
    /// inner nodes fold their own reading into the passing aggregate.
    ///
    /// In this implementation each non-leader simply adds its reading and
    /// forwards the running aggregate one hop toward the leader; the
    /// driver's ordering guarantees the aggregate has already arrived.
    pub fn gather(&mut self, ctx: &mut Ctx<'_>, round: u32) {
        let me = self.cfg.chain_index;
        let li = Self::leader_index(round, self.cfg.chain.len());
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.record_origination();
        let _ = msg_id; // readings are identified as (node, round) at the sink
        self.pending_count += 1;
        self.pending_first = self.pending_first.min(ctx.now());
        self.gathered = true;
        if self.is_leader {
            self.maybe_flush(ctx);
            return;
        }
        // Forward the (constant-size) aggregate one hop toward the leader.
        let next = if me < li { me + 1 } else { me - 1 };
        let dist = self.cfg.chain_positions[me]
            .dist(self.cfg.chain_positions[next])
            .min(self.cfg.max_boost_range);
        let msg = PegasisMsg::Chain {
            round,
            count: self.pending_count,
            first_sent_at: self.pending_first,
            hops: self.pending_hops + 1,
            payload_len: 24,
        };
        self.pending_count = 0;
        self.pending_first = u64::MAX;
        self.pending_hops = 0;
        ctx.send_ranged(
            Some(self.cfg.chain[next]),
            Tier::Sensor,
            PacketKind::Data,
            msg.encode(),
            dist,
        );
    }

    fn maybe_flush(&mut self, ctx: &mut Ctx<'_>) {
        if self.awaiting > 0 || !self.gathered {
            return; // chain aggregates still incoming, or own reading missing
        }
        let dist = self.cfg.chain_positions[self.cfg.chain_index]
            .dist(self.cfg.sink_pos)
            .min(self.cfg.max_boost_range);
        let msg = PegasisMsg::Leader {
            round: self.round,
            count: self.pending_count,
            first_sent_at: self.pending_first,
            hops: self.pending_hops,
            payload_len: 24,
        };
        self.pending_count = 0;
        self.pending_first = u64::MAX;
        ctx.send_ranged(
            Some(self.cfg.sink),
            Tier::Sensor,
            PacketKind::Data,
            msg.encode(),
            dist,
        );
    }
}

impl Behavior for PegasisSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(PegasisMsg::Chain {
            count,
            first_sent_at,
            hops,
            ..
        }) = PegasisMsg::decode(&pkt.payload)
        else {
            return;
        };
        self.pending_count += count;
        self.pending_first = self.pending_first.min(first_sent_at);
        self.pending_hops = self.pending_hops.max(hops);
        if self.is_leader {
            self.awaiting = self.awaiting.saturating_sub(1);
            self.maybe_flush(ctx);
        }
        // Non-leaders hold the aggregate until their own gather() turn.
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// PEGASIS sink. Knows the chain membership (PEGASIS's global-knowledge
/// assumption), so an aggregate that fused `count` readings is credited
/// to the chain members — the aggregate *is* their information, delivered.
pub struct PegasisSink {
    chain: Vec<NodeId>,
    /// Readings absorbed (aggregated).
    pub absorbed: u64,
}

impl PegasisSink {
    /// New sink serving the given chain.
    pub fn new(chain: Vec<NodeId>) -> Self {
        PegasisSink { chain, absorbed: 0 }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(chain: Vec<NodeId>) -> Box<dyn Behavior> {
        Box::new(Self::new(chain))
    }
}

impl Behavior for PegasisSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(PegasisMsg::Leader {
            round,
            count,
            first_sent_at,
            hops,
            ..
        }) = PegasisMsg::decode(&pkt.payload)
        else {
            return;
        };
        // Credit the first `count` chain members (all of them, in a
        // healthy round); the reading id is the round number.
        for &member in self.chain.iter().take(count as usize) {
            self.absorbed += 1;
            ctx.record_delivery(member, u64::from(round), first_sent_at, hops + 1);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsn_sim::{NodeConfig, World, WorldConfig};
    use wmsn_util::{Rect, SplitMix64};

    fn build(n: usize, seed: u64) -> (World, Vec<NodeId>, Vec<usize>, NodeId) {
        let field = Rect::field(100.0, 100.0);
        let sink_pos = Point::new(50.0, 150.0);
        let mut rng = SplitMix64::new(seed);
        let positions: Vec<Point> = (0..n)
            .map(|_| {
                Point::new(
                    rng.range_f64(field.min.x, field.max.x),
                    rng.range_f64(field.min.y, field.max.y),
                )
            })
            .collect();
        let chain_order = build_chain(&positions, sink_pos);
        // node ids will be 0..n in ADD order; chain[k] = id of k-th node.
        let chain_ids: Vec<NodeId> = chain_order.iter().map(|&i| NodeId(i as u32)).collect();
        let chain_positions: Vec<Point> = chain_order.iter().map(|&i| positions[i]).collect();
        let sink_id = NodeId(n as u32);
        let mut w = World::new(WorldConfig::ideal(seed));
        let mut sensors = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            let chain_index = chain_order.iter().position(|&c| c == i).unwrap();
            let cfg = PegasisConfig {
                chain_index,
                chain: chain_ids.clone(),
                chain_positions: chain_positions.clone(),
                sink: sink_id,
                sink_pos,
                max_boost_range: 400.0,
            };
            sensors.push(w.add_node(NodeConfig::sensor(pos, 100.0), PegasisSensor::boxed(cfg)));
        }
        let sink = w.add_node(
            NodeConfig::gateway(sink_pos),
            PegasisSink::boxed(chain_ids.clone()),
        );
        (w, sensors, chain_order, sink)
    }

    /// One full round: start everyone, then gather from the chain ends
    /// inward toward the leader.
    fn run_round(w: &mut World, sensors: &[NodeId], chain_order: &[usize], round: u32) {
        for &s in sensors {
            w.with_behavior::<PegasisSensor, _>(s, |b, _| b.start_round(round));
        }
        let li = PegasisSensor::leader_index(round, chain_order.len());
        // Lower side: 0 → li-1; upper side: end → li+1; leader last.
        let mut order: Vec<usize> = (0..li).collect();
        order.extend((li + 1..chain_order.len()).rev());
        order.push(li);
        for k in order {
            let node = NodeId(chain_order[k] as u32);
            w.with_behavior::<PegasisSensor, _>(node, |b, ctx| b.gather(ctx, round));
            w.run_for(50_000);
        }
        w.run_for(500_000);
    }

    #[test]
    fn chain_visits_every_node_once() {
        let positions: Vec<Point> = (0..20).map(|i| Point::new(i as f64 * 7.0, 0.0)).collect();
        let chain = build_chain(&positions, Point::new(0.0, 100.0));
        let mut sorted = chain.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        // Farthest node from the sink starts the chain.
        assert_eq!(chain[0], 19);
        // On a line, the greedy chain is the line itself.
        assert_eq!(chain, (0..20).rev().collect::<Vec<_>>());
    }

    #[test]
    fn empty_chain_is_fine() {
        assert!(build_chain(&[], Point::new(0.0, 0.0)).is_empty());
    }

    #[test]
    fn a_round_delivers_every_reading_via_one_leader_transmission() {
        let (mut w, sensors, chain_order, sink) = build(30, 3);
        w.start();
        run_round(&mut w, &sensors, &chain_order, 0);
        let m = w.metrics();
        assert_eq!(m.originated, 30);
        assert_eq!(
            w.behavior_as::<PegasisSink>(sink).unwrap().absorbed,
            30,
            "all readings aggregated to the sink"
        );
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
        // Exactly 30 frames: 29 chain hops + 1 leader transmission.
        assert_eq!(m.sent_data, 30);
    }

    #[test]
    fn leadership_rotates_across_rounds() {
        let (mut w, sensors, chain_order, _sink) = build(10, 4);
        w.start();
        let mut leaders = Vec::new();
        for round in 0..5 {
            run_round(&mut w, &sensors, &chain_order, round);
            for &s in &sensors {
                if w.behavior_as::<PegasisSensor>(s).unwrap().is_leader {
                    leaders.push(s);
                }
            }
        }
        let distinct: std::collections::HashSet<_> = leaders.iter().collect();
        assert_eq!(leaders.len(), 5);
        assert_eq!(distinct.len(), 5, "a new leader each round");
        let m = w.metrics();
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pegasis_spends_less_amplifier_energy_than_leach_style_direct() {
        use wmsn_sim::EnergyModel;
        // Under the first-order model, PEGASIS pays ε·d² only on short
        // chain links plus ONE long leader hop; all-direct pays ε·d² to
        // the sink for every node.
        let mk = |seed| {
            let mut cfg = WorldConfig::ideal(seed);
            cfg.energy = EnergyModel::first_order_default();
            cfg
        };
        // PEGASIS:
        let field = Rect::field(100.0, 100.0);
        let sink_pos = Point::new(50.0, 150.0);
        let mut rng = SplitMix64::new(9);
        let positions: Vec<Point> = (0..25)
            .map(|_| Point::new(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)))
            .collect();
        let chain_order = build_chain(&positions, sink_pos);
        let chain_ids: Vec<NodeId> = chain_order.iter().map(|&i| NodeId(i as u32)).collect();
        let chain_positions: Vec<Point> = chain_order.iter().map(|&i| positions[i]).collect();
        let sink_id = NodeId(25);
        let mut w = World::new(mk(9));
        let mut sensors = Vec::new();
        for (i, &pos) in positions.iter().enumerate() {
            let chain_index = chain_order.iter().position(|&c| c == i).unwrap();
            sensors.push(w.add_node(
                NodeConfig::sensor(pos, 100.0),
                PegasisSensor::boxed(PegasisConfig {
                    chain_index,
                    chain: chain_ids.clone(),
                    chain_positions: chain_positions.clone(),
                    sink: sink_id,
                    sink_pos,
                    max_boost_range: 400.0,
                }),
            ));
        }
        w.add_node(
            NodeConfig::gateway(sink_pos),
            PegasisSink::boxed(chain_ids.clone()),
        );
        w.start();
        run_round(&mut w, &sensors, &chain_order, 0);
        let pegasis_energy: f64 = w.metrics().energy_consumed.iter().sum();

        // All-direct: every sensor boosts straight to the sink.
        let mut wd = World::new(mk(9));
        let mut direct = Vec::new();
        for &pos in &positions {
            direct.push(wd.add_node(
                NodeConfig::sensor(pos, 100.0),
                crate::leach::LeachSensor::boxed(crate::leach::LeachConfig {
                    p: 0.0, // nobody elects: everyone falls back to direct
                    payload_len: 24,
                    sink_pos,
                    sink: NodeId(25),
                    max_boost_range: 400.0,
                }),
            ));
        }
        wd.add_node(
            NodeConfig::gateway(sink_pos),
            crate::leach::LeachSink::boxed(),
        );
        wd.start();
        for &s in &direct {
            wd.with_behavior::<crate::leach::LeachSensor, _>(s, |b, ctx| {
                b.start_round(ctx, 0);
                b.report(ctx);
            });
        }
        wd.run_for(1_000_000);
        let direct_energy: f64 = wd.metrics().energy_consumed.iter().sum();
        assert!((wd.metrics().delivery_ratio() - 1.0).abs() < 1e-12);
        assert!(
            pegasis_energy < direct_energy * 0.6,
            "chain gathering must beat all-direct: {pegasis_energy:.6} vs {direct_energy:.6}"
        );
        let _ = field;
    }
}
