//! LEACH — Low-Energy Adaptive Clustering Hierarchy (Heinzelman et al.
//! 2000, the paper's reference \[17\]).
//!
//! The hierarchical baseline of §2.2.2 and the robustness foil of §2.1
//! ("if a head goes wrong in the LEACH routing, all nodes in the same
//! cluster with the head cannot send back their data"):
//!
//! * Each round, every sensor elects itself cluster head with the
//!   rotating-probability threshold `T(n) = p / (1 − p·(r mod ⌈1/p⌉))`,
//!   barred for `⌈1/p⌉` rounds after serving.
//! * Heads advertise; members join the nearest head by advertisement
//!   signal strength (modelled by geometric distance carried in the ADV).
//! * Members report to their head single-hop; the head aggregates all
//!   member reports into one frame and sends it **directly to the sink**
//!   with boosted transmit power (`Ctx::send_ranged`), paying the
//!   amplifier energy `ε·d²` that makes LEACH "not applicable to networks
//!   deployed in large regions" (§2.2.2).
//! * A member that heard no advertisement falls back to transmitting
//!   directly to the sink, as in the original protocol.
//!
//! The round phases (elect → advertise → join → report → flush) are
//! driven externally by the experiment harness, which matches LEACH's
//! TDMA round structure and keeps the protocol inspectable mid-phase.

use std::any::Any;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::{List, Pad};
use wmsn_util::{NodeId, Point};

wmsn_util::packet_schema! {
    /// LEACH wire messages.
    #[derive(Clone, PartialEq, Debug)]
    pub enum LeachMsg;
    /// Borrowed decode of a LEACH frame.
    #[derive(Clone, Copy, PartialEq, Debug)]
    pub enum LeachMsgView<'a>;
    /// Fixed byte offsets of the LEACH frames' fields.
    pub mod layout;

    /// Cluster-head advertisement.
    0x30 Adv {
        /// The head.
        head: NodeId,
        /// Head position (signal-strength surrogate for nearest-head
        /// selection).
        x: f64,
        /// Head position, y coordinate.
        y: f64,
    }
    /// Member → head data report.
    0x31 Report {
        /// Reporting member.
        origin: NodeId,
        /// Member-unique message id.
        msg_id: u64,
        /// Origination time.
        sent_at: u64,
        /// Payload padding.
        payload_len: Pad,
    }
    /// Head → sink aggregate.
    0x32 Aggregate {
        /// The head.
        head: NodeId,
        /// (origin, msg_id, sent_at) of every aggregated report.
        entries: List<(NodeId, u64, u64), 4096>,
    }
}

/// LEACH tunables.
#[derive(Clone, Copy, Debug)]
pub struct LeachConfig {
    /// Desired cluster-head fraction `p` (typ. 0.05–0.1).
    pub p: f64,
    /// Report payload bytes.
    pub payload_len: u16,
    /// Sink position (known a priori, as LEACH assumes).
    pub sink_pos: Point,
    /// Sink node id.
    pub sink: NodeId,
    /// Boosted-range cap for head↔sink and member↔head sends (m).
    pub max_boost_range: f64,
}

/// LEACH sensor.
pub struct LeachSensor {
    cfg: LeachConfig,
    /// Round the node last served as head (`None` = never).
    last_head_round: Option<u32>,
    /// Whether this node heads the current round.
    pub is_head: bool,
    /// The head this member joined (with its position), if any.
    my_head: Option<(NodeId, Point)>,
    /// Reports collected while heading.
    collected: Vec<(NodeId, u64, u64)>,
    next_msg_id: u64,
    /// Reports that found neither head nor sink.
    pub lost_reports: u64,
}

impl LeachSensor {
    /// New sensor.
    pub fn new(cfg: LeachConfig) -> Self {
        LeachSensor {
            cfg,
            last_head_round: None,
            is_head: false,
            my_head: None,
            collected: Vec::new(),
            next_msg_id: 0,
            lost_reports: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: LeachConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Phase 1 — election + advertisement. Returns whether this node
    /// heads the round.
    pub fn start_round(&mut self, ctx: &mut Ctx<'_>, round: u32) -> bool {
        self.my_head = None;
        self.collected.clear();
        let cycle = (1.0 / self.cfg.p).ceil() as u32;
        let barred = self
            .last_head_round
            .is_some_and(|r| round.saturating_sub(r) < cycle);
        let threshold = if barred {
            0.0
        } else {
            self.cfg.p / (1.0 - self.cfg.p * f64::from(round % cycle))
        };
        self.is_head = ctx.rng().chance(threshold);
        if self.is_head {
            self.last_head_round = Some(round);
            let pos = ctx.pos();
            let adv = LeachMsg::Adv {
                head: ctx.id(),
                x: pos.x,
                y: pos.y,
            };
            ctx.send(None, Tier::Sensor, PacketKind::Control, adv.encode());
        }
        self.is_head
    }

    /// Phase 3 — member report (run after advertisements settled). Heads
    /// record their own reading locally instead of transmitting.
    pub fn report(&mut self, ctx: &mut Ctx<'_>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.record_origination();
        let me = ctx.id();
        if self.is_head {
            self.collected.push((me, msg_id, ctx.now()));
            return;
        }
        let report = LeachMsg::Report {
            origin: me,
            msg_id,
            sent_at: ctx.now(),
            payload_len: self.cfg.payload_len,
        };
        match self.my_head {
            Some((head, head_pos)) => {
                let d = ctx.pos().dist(head_pos).min(self.cfg.max_boost_range);
                ctx.send_ranged(
                    Some(head),
                    Tier::Sensor,
                    PacketKind::Data,
                    report.encode(),
                    d,
                );
            }
            None => {
                // No head heard: direct to sink (original LEACH fallback).
                let d = ctx.pos().dist(self.cfg.sink_pos);
                if d <= self.cfg.max_boost_range {
                    ctx.send_ranged(
                        Some(self.cfg.sink),
                        Tier::Sensor,
                        PacketKind::Data,
                        report.encode(),
                        d,
                    );
                } else {
                    self.lost_reports += 1;
                }
            }
        }
    }

    /// Phase 4 — head flushes its aggregate to the sink.
    pub fn flush(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_head || self.collected.is_empty() {
            return;
        }
        let agg = LeachMsg::Aggregate {
            head: ctx.id(),
            entries: std::mem::take(&mut self.collected),
        };
        let d = ctx
            .pos()
            .dist(self.cfg.sink_pos)
            .min(self.cfg.max_boost_range);
        ctx.send_ranged(
            Some(self.cfg.sink),
            Tier::Sensor,
            PacketKind::Data,
            agg.encode(),
            d,
        );
    }

    /// Members this head collected so far (tests).
    pub fn collected_len(&self) -> usize {
        self.collected.len()
    }
}

impl Behavior for LeachSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = LeachMsg::decode(&pkt.payload) else {
            return;
        };
        match msg {
            LeachMsg::Adv { head, x, y } => {
                if self.is_head {
                    return;
                }
                let pos = Point::new(x, y);
                let better = match self.my_head {
                    None => true,
                    Some((_, current)) => ctx.pos().dist_sq(pos) < ctx.pos().dist_sq(current),
                };
                if better {
                    self.my_head = Some((head, pos));
                }
            }
            LeachMsg::Report {
                origin,
                msg_id,
                sent_at,
                ..
            } => {
                if self.is_head {
                    self.collected.push((origin, msg_id, sent_at));
                }
            }
            LeachMsg::Aggregate { .. } => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// LEACH sink: absorbs aggregates and stray direct reports.
pub struct LeachSink {
    /// Messages absorbed.
    pub absorbed: u64,
}

impl LeachSink {
    /// New sink.
    pub fn new() -> Self {
        LeachSink { absorbed: 0 }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for LeachSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for LeachSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = LeachMsg::decode(&pkt.payload) else {
            return;
        };
        match msg {
            LeachMsg::Aggregate { entries, .. } => {
                for (origin, msg_id, sent_at) in entries {
                    self.absorbed += 1;
                    ctx.record_delivery(origin, msg_id, sent_at, 2);
                }
            }
            LeachMsg::Report {
                origin,
                msg_id,
                sent_at,
                ..
            } => {
                self.absorbed += 1;
                ctx.record_delivery(origin, msg_id, sent_at, 1);
            }
            LeachMsg::Adv { .. } => {}
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
    use wmsn_util::{NodeRole, Rect, SplitMix64};

    fn build(n: usize, seed: u64) -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(WorldConfig::ideal(seed));
        let field = Rect::field(100.0, 100.0);
        let sink_pos = Point::new(50.0, 120.0);
        // The sink id will be n; configure sensors with it up front.
        let cfg = LeachConfig {
            p: 0.15,
            payload_len: 24,
            sink_pos,
            sink: NodeId(n as u32),
            max_boost_range: 400.0,
        };
        let mut rng = SplitMix64::new(seed);
        let mut sensors = Vec::new();
        for _ in 0..n {
            let pos = Point::new(
                rng.range_f64(field.min.x, field.max.x),
                rng.range_f64(field.min.y, field.max.y),
            );
            sensors.push(w.add_node(NodeConfig::sensor(pos, 100.0), LeachSensor::boxed(cfg)));
        }
        let sink = w.add_node(NodeConfig::gateway(sink_pos), LeachSink::boxed());
        assert_eq!(sink, cfg.sink);
        (w, sensors, sink)
    }

    fn run_round(w: &mut World, sensors: &[NodeId], round: u32) {
        for &s in sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| {
                b.start_round(ctx, round);
            });
        }
        w.run_for(200_000); // advertisements settle
        for &s in sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.report(ctx));
        }
        w.run_for(200_000); // reports settle
        for &s in sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.flush(ctx));
        }
        w.run_for(200_000);
    }

    #[test]
    fn wire_roundtrips() {
        for msg in [
            LeachMsg::Adv {
                head: NodeId(4),
                x: 1.5,
                y: -2.25,
            },
            LeachMsg::Report {
                origin: NodeId(1),
                msg_id: 2,
                sent_at: 3,
                payload_len: 4,
            },
            LeachMsg::Aggregate {
                head: NodeId(9),
                entries: vec![(NodeId(1), 2, 3), (NodeId(4), 5, 6)],
            },
        ] {
            assert_eq!(LeachMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn a_round_delivers_everyones_report() {
        let (mut w, sensors, _sink) = build(40, 3);
        w.start();
        run_round(&mut w, &sensors, 0);
        let m = w.metrics();
        assert_eq!(m.originated, 40);
        assert!(
            (m.delivery_ratio() - 1.0).abs() < 1e-9,
            "ratio {} with {} deliveries",
            m.delivery_ratio(),
            m.deliveries.len()
        );
    }

    #[test]
    fn head_fraction_approximates_p() {
        let (mut w, sensors, _sink) = build(200, 9);
        w.start();
        let mut heads = 0usize;
        for &s in &sensors {
            let is_head = w
                .with_behavior::<LeachSensor, _>(s, |b, ctx| b.start_round(ctx, 0))
                .unwrap();
            heads += is_head as usize;
        }
        let frac = heads as f64 / sensors.len() as f64;
        assert!((0.05..=0.30).contains(&frac), "head fraction {frac}");
    }

    #[test]
    fn heads_rotate_across_rounds() {
        let (mut w, sensors, _sink) = build(60, 5);
        w.start();
        let mut ever_heads: std::collections::HashSet<NodeId> = Default::default();
        for round in 0..10 {
            run_round(&mut w, &sensors, round);
            for &s in &sensors {
                if w.behavior_as::<LeachSensor>(s).unwrap().is_head {
                    ever_heads.insert(s);
                }
            }
        }
        // With p=0.15 over 10 rounds, far more than one round's worth of
        // distinct nodes must have served.
        assert!(
            ever_heads.len() > sensors.len() / 4,
            "only {} distinct heads",
            ever_heads.len()
        );
    }

    #[test]
    fn members_join_the_nearest_head() {
        let mut w = World::new(WorldConfig::ideal(1));
        let cfg = LeachConfig {
            p: 0.15,
            payload_len: 8,
            sink_pos: Point::new(500.0, 500.0),
            sink: NodeId(3),
            max_boost_range: 1000.0,
        };
        let member = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            LeachSensor::boxed(cfg),
        );
        let near = w.add_node(
            NodeConfig::sensor(Point::new(5.0, 0.0), 100.0),
            LeachSensor::boxed(cfg),
        );
        let far = w.add_node(
            NodeConfig::sensor(Point::new(9.0, 0.0), 100.0),
            LeachSensor::boxed(cfg),
        );
        let _sink = w.add_node(NodeConfig::gateway(cfg.sink_pos), LeachSink::boxed());
        w.start();
        // Force both candidates to head.
        for head in [near, far] {
            w.with_behavior::<LeachSensor, _>(head, |b, ctx| {
                b.is_head = true;
                let pos = ctx.pos();
                let adv = LeachMsg::Adv {
                    head: ctx.id(),
                    x: pos.x,
                    y: pos.y,
                };
                ctx.send(None, Tier::Sensor, PacketKind::Control, adv.encode());
            });
        }
        w.run_for(200_000);
        w.with_behavior::<LeachSensor, _>(member, |b, ctx| b.report(ctx));
        w.run_for(200_000);
        assert_eq!(
            w.behavior_as::<LeachSensor>(near).unwrap().collected_len(),
            1,
            "member must join the nearer head"
        );
        assert_eq!(
            w.behavior_as::<LeachSensor>(far).unwrap().collected_len(),
            0
        );
    }

    #[test]
    fn dead_head_silences_its_cluster() {
        // The §2.1 robustness argument: kill heads after the join phase;
        // their members' reports go nowhere.
        let (mut w, sensors, _sink) = build(40, 3);
        w.start();
        for &s in &sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| {
                b.start_round(ctx, 0);
            });
        }
        w.run_for(200_000);
        // Kill every head now — members already joined.
        let heads: Vec<NodeId> = sensors
            .iter()
            .copied()
            .filter(|&s| w.behavior_as::<LeachSensor>(s).unwrap().is_head)
            .collect();
        assert!(!heads.is_empty());
        for &h in &heads {
            w.kill(h);
        }
        for &s in &sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.report(ctx));
        }
        w.run_for(200_000);
        for &s in &sensors {
            w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.flush(ctx));
        }
        w.run_for(200_000);
        let m = w.metrics();
        assert!(
            m.delivery_ratio() < 0.9,
            "killing heads must lose cluster traffic: ratio {}",
            m.delivery_ratio()
        );
    }

    #[test]
    fn orphan_members_fall_back_to_direct_transmission() {
        let mut w = World::new(WorldConfig::ideal(1));
        let cfg = LeachConfig {
            p: 0.15,
            payload_len: 8,
            sink_pos: Point::new(200.0, 0.0),
            sink: NodeId(1),
            max_boost_range: 400.0,
        };
        let lonely = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            LeachSensor::boxed(cfg),
        );
        let _sink = w.add_node(NodeConfig::gateway(cfg.sink_pos), LeachSink::boxed());
        w.start();
        // No heads anywhere; report directly.
        w.with_behavior::<LeachSensor, _>(lonely, |b, ctx| b.report(ctx));
        w.run_for(200_000);
        assert_eq!(w.metrics().deliveries.len(), 1);
        assert_eq!(w.metrics().deliveries[0].hops, 1);
    }

    #[test]
    fn boosted_sends_cost_distance_squared_energy() {
        use wmsn_sim::EnergyModel;
        let mut w = World::new(WorldConfig {
            energy: EnergyModel::first_order_default(),
            ..WorldConfig::ideal(1)
        });
        let cfg = LeachConfig {
            p: 1.0,
            payload_len: 8,
            sink_pos: Point::new(300.0, 0.0),
            sink: NodeId(1),
            max_boost_range: 400.0,
        };
        let head = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            LeachSensor::boxed(cfg),
        );
        let _sink = w.add_node(NodeConfig::gateway(cfg.sink_pos), LeachSink::boxed());
        w.start();
        w.with_behavior::<LeachSensor, _>(head, |b, ctx| {
            b.start_round(ctx, 0);
            b.report(ctx);
            b.flush(ctx);
        });
        w.run_for(500_000);
        let spent = w.metrics().energy_consumed[head.index()];
        // ε·d² term at 300 m dominates: 100 pJ/bit/m² · 8·size bits · 9e4 m².
        assert!(spent > 1e-4, "boosted send too cheap: {spent}");
        assert_eq!(w.metrics().deliveries.len(), 1);
        let _ = w.nodes_with_role(NodeRole::Gateway);
    }
}
