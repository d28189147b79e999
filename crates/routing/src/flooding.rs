//! Flooding and gossiping — the classic flat baselines (§2.2.1).
//!
//! *Flooding*: every node rebroadcasts every data packet it has not seen,
//! bounded by a TTL. Robust and stateless, but exhibits the *implosion*
//! pathology the paper cites: O(n) transmissions per message.
//!
//! *Gossiping*: the flooding variant that forwards to **one randomly
//! selected neighbour** instead of all — avoids implosion but "message
//! propagation takes longer time" (and may miss the sink entirely).

use std::any::Any;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_trace::TraceEvent;
use wmsn_util::codec::{self, Pad};
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

/// Rebuild a received flood frame for forwarding without re-encoding:
/// copy the frame into `out` and patch the hops/ttl words in place. The
/// padding bytes are carried verbatim, so the result is byte-identical
/// to decode → bump → re-encode.
fn patch_forward(frame: &[u8], hops: u32, ttl: u32, out: &mut Vec<u8>) {
    let fields: [(usize, &[u8]); 2] = [
        (layout::Data::hops, &hops.to_le_bytes()),
        (layout::Data::ttl, &ttl.to_le_bytes()),
    ];
    // The frame was decoded by the caller, so both fields are in range.
    let _ = codec::patch(frame, &fields, out);
}

/// Forwarding discipline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FloodMode {
    /// Rebroadcast to all neighbours.
    Flood,
    /// Forward to one random neighbour.
    Gossip,
}

wmsn_util::packet_schema! {
    /// Flood/gossip frame.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum FloodMsg;
    /// Borrowed decode of a flood/gossip frame.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum FloodMsgView<'a>;
    /// Fixed byte offsets of the flood frame's fields.
    pub mod layout;

    /// The one flood/gossip message: a reading on its way to a sink.
    0x10 Data {
        /// Source sensor.
        origin: NodeId,
        /// Source-unique id.
        msg_id: u64,
        /// Origination time (µs).
        sent_at: u64,
        /// Hops taken so far.
        hops: u32,
        /// Remaining time-to-live.
        ttl: u32,
        /// Payload padding size.
        payload_len: Pad,
    }
}

/// Sensor behaviour for flooding/gossiping.
pub struct FloodSensor {
    mode: FloodMode,
    initial_ttl: u32,
    payload_len: u16,
    seen: SeenTable,
    next_msg_id: u64,
    /// Frames this node forwarded (implosion measurement).
    pub forwarded: u64,
}

impl FloodSensor {
    /// New sensor with the given mode and TTL.
    pub fn new(mode: FloodMode, initial_ttl: u32, payload_len: u16) -> Self {
        FloodSensor {
            mode,
            initial_ttl,
            payload_len,
            seen: SeenTable::new(),
            next_msg_id: 0,
            forwarded: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(mode: FloodMode, initial_ttl: u32) -> Box<dyn Behavior> {
        Box::new(Self::new(mode, initial_ttl, 24))
    }

    /// Originate one message.
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        let (origin, msg_id) = (ctx.id(), self.next_msg_id);
        let frame = FloodMsg::Data {
            origin,
            msg_id,
            sent_at: ctx.now(),
            hops: 1,
            ttl: self.initial_ttl,
            payload_len: self.payload_len,
        }
        .encode();
        self.next_msg_id += 1;
        self.seen.insert(origin.0, msg_id);
        ctx.record_origination();
        self.emit(ctx, origin, msg_id, frame);
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, origin: NodeId, msg_id: u64, frame: Vec<u8>) {
        match self.mode {
            FloodMode::Flood => {
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::Forward {
                        t: ctx.now(),
                        node: ctx.id(),
                        origin,
                        msg_id,
                        next: None,
                        hops: 1,
                    });
                }
                ctx.send(None, Tier::Sensor, PacketKind::Data, frame);
            }
            FloodMode::Gossip => {
                let neighbors = ctx.neighbors(Tier::Sensor);
                if neighbors.is_empty() {
                    return;
                }
                let pick = neighbors[ctx.rng().next_index(neighbors.len())];
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::Forward {
                        t: ctx.now(),
                        node: ctx.id(),
                        origin,
                        msg_id,
                        next: Some(pick),
                        hops: 1,
                    });
                }
                ctx.send(Some(pick), Tier::Sensor, PacketKind::Data, frame);
            }
        }
    }
}

impl Behavior for FloodSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(FloodMsgView::Data {
            origin,
            msg_id,
            hops,
            ttl,
            ..
        }) = FloodMsgView::decode(&pkt.payload)
        else {
            return;
        };
        // Flooding drops duplicates; gossiping is a random walk, so a
        // revisited node keeps the walk alive (otherwise walks die on the
        // first loop and nothing ever propagates far).
        if self.mode == FloodMode::Flood && !self.seen.insert(origin.0, msg_id) {
            return;
        }
        if ttl == 0 {
            return;
        }
        let (fwd_hops, fwd_ttl) = (hops + 1, ttl - 1);
        self.forwarded += 1;
        match self.mode {
            FloodMode::Flood => {
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::Forward {
                        t: ctx.now(),
                        node: ctx.id(),
                        origin,
                        msg_id,
                        next: None,
                        hops: fwd_hops,
                    });
                }
                let mut buf = ctx.take_scratch();
                patch_forward(&pkt.payload, fwd_hops, fwd_ttl, &mut buf);
                ctx.send(None, Tier::Sensor, PacketKind::Data, &buf[..]);
                ctx.put_scratch(buf);
            }
            FloodMode::Gossip => {
                // Non-backtracking step where possible.
                let neighbors: Vec<_> = ctx
                    .neighbors(Tier::Sensor)
                    .into_iter()
                    .filter(|&n| n != pkt.src)
                    .collect();
                let all = if neighbors.is_empty() {
                    ctx.neighbors(Tier::Sensor)
                } else {
                    neighbors
                };
                if all.is_empty() {
                    return;
                }
                let pick = all[ctx.rng().next_index(all.len())];
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::Forward {
                        t: ctx.now(),
                        node: ctx.id(),
                        origin,
                        msg_id,
                        next: Some(pick),
                        hops: fwd_hops,
                    });
                }
                let mut buf = ctx.take_scratch();
                patch_forward(&pkt.payload, fwd_hops, fwd_ttl, &mut buf);
                ctx.send(Some(pick), Tier::Sensor, PacketKind::Data, &buf[..]);
                ctx.put_scratch(buf);
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Sink behaviour: records deliveries, drops duplicates.
pub struct FloodSink {
    seen: SeenTable,
    /// Messages absorbed.
    pub absorbed: u64,
}

impl FloodSink {
    /// New sink.
    pub fn new() -> Self {
        FloodSink {
            seen: SeenTable::new(),
            absorbed: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for FloodSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for FloodSink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(FloodMsgView::Data {
            origin,
            msg_id,
            sent_at,
            hops,
            ..
        }) = FloodMsgView::decode(&pkt.payload)
        else {
            return;
        };
        if !self.seen.insert(origin.0, msg_id) {
            return;
        }
        self.absorbed += 1;
        ctx.record_delivery(origin, msg_id, sent_at, hops);
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
    use wmsn_util::Point;

    /// Test worlds use a 10 m sensor range so 10 m-spaced chains are
    /// genuine multi-hop topologies.
    fn short_range(seed: u64) -> WorldConfig {
        let mut c = WorldConfig::ideal(seed);
        c.sensor_phy.range_m = 10.0;
        c
    }

    fn grid_world(mode: FloodMode) -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(short_range(5));
        let mut sensors = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                sensors.push(w.add_node(
                    NodeConfig::sensor(Point::new(x as f64 * 9.0, y as f64 * 9.0), 100.0),
                    FloodSensor::boxed(mode, 16),
                ));
            }
        }
        let sink = w.add_node(
            NodeConfig::gateway(Point::new(36.0, 27.0)),
            FloodSink::boxed(),
        );
        (w, sensors, sink)
    }

    #[test]
    fn wire_roundtrip() {
        let msg = FloodMsg::Data {
            origin: NodeId(3),
            msg_id: 9,
            sent_at: 77,
            hops: 2,
            ttl: 5,
            payload_len: 10,
        };
        assert_eq!(FloodMsg::decode(&msg.encode()).unwrap(), msg);
        assert!(FloodMsg::decode(&[0x11, 0, 0]).is_err());
    }

    #[test]
    fn flooding_always_delivers_on_connected_fields() {
        let (mut w, sensors, _sink) = grid_world(FloodMode::Flood);
        w.start();
        w.with_behavior::<FloodSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        assert_eq!(w.metrics().deliveries.len(), 1);
        assert!((w.metrics().delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flooding_implodes_with_n_transmissions_per_message() {
        let (mut w, sensors, _sink) = grid_world(FloodMode::Flood);
        w.start();
        w.with_behavior::<FloodSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        // Every one of the 16 sensors transmits once: 16 data frames for
        // one delivered message — the implosion the paper criticises.
        assert_eq!(w.metrics().sent_data, 16);
    }

    #[test]
    fn gossip_uses_far_fewer_transmissions() {
        let (mut w, sensors, _sink) = grid_world(FloodMode::Gossip);
        w.start();
        w.with_behavior::<FloodSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        // One unicast per hop, bounded by the TTL.
        assert!(w.metrics().sent_data <= 17);
    }

    #[test]
    fn gossip_delivery_is_unreliable_but_sometimes_succeeds() {
        // Over many seeds, gossip should deliver sometimes and fail
        // sometimes on a 4×4 grid with TTL 16.
        let mut delivered = 0;
        let trials = 30;
        for seed in 0..trials {
            let mut w = World::new(short_range(seed));
            let mut first = None;
            for y in 0..4 {
                for x in 0..4 {
                    let id = w.add_node(
                        NodeConfig::sensor(Point::new(x as f64 * 9.0, y as f64 * 9.0), 100.0),
                        FloodSensor::boxed(FloodMode::Gossip, 16),
                    );
                    first.get_or_insert(id);
                }
            }
            let _sink = w.add_node(
                NodeConfig::gateway(Point::new(36.0, 27.0)),
                FloodSink::boxed(),
            );
            w.start();
            w.with_behavior::<FloodSensor, _>(first.unwrap(), |s, ctx| s.originate(ctx));
            w.run_until(5_000_000);
            delivered += w.metrics().deliveries.len();
        }
        assert!(delivered > 0, "gossip never delivered in {trials} trials");
        assert!(
            (delivered as u64) < trials,
            "gossip delivered every time — too reliable for a random walk"
        );
    }

    #[test]
    fn ttl_bounds_propagation() {
        // TTL 1: only direct neighbours of the source transmit.
        let mut w = World::new(short_range(5));
        let mut ids = Vec::new();
        for i in 0..5 {
            ids.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 9.0, 0.0), 100.0),
                FloodSensor::boxed(FloodMode::Flood, 1),
            ));
        }
        w.start();
        w.with_behavior::<FloodSensor, _>(ids[0], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        // Source + its sole neighbour; the neighbour's neighbour gets
        // ttl=0 and stops.
        assert_eq!(w.metrics().sent_data, 2);
    }

    #[test]
    fn duplicate_frames_are_not_reforwarded() {
        let (mut w, sensors, _sink) = grid_world(FloodMode::Flood);
        w.start();
        w.with_behavior::<FloodSensor, _>(sensors[5], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        for &s in &sensors {
            let f = w.behavior_as::<FloodSensor>(s).unwrap().forwarded;
            assert!(f <= 1, "a node forwarded the same message twice");
        }
    }

    #[test]
    fn sink_dedups_multiple_arrivals() {
        let (mut w, sensors, sink) = grid_world(FloodMode::Flood);
        w.start();
        w.with_behavior::<FloodSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        assert_eq!(w.behavior_as::<FloodSink>(sink).unwrap().absorbed, 1);
    }
}
