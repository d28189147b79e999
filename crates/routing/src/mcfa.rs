//! MCFA — Minimum Cost Forwarding Algorithm (Ye et al. 2001, the paper's
//! reference \[24\]).
//!
//! MCFA exploits the fact that in a flat WSN "the direction of routing is
//! always known — towards the fixed external base-station", so nodes keep
//! **no routing tables and no ids**: only a scalar `cost` — the least hop
//! count to any sink — maintained by a beacon wave, and data packets carry
//! the remaining-cost budget. A node forwards a packet iff its own cost
//! equals the packet's remaining budget minus one, i.e. iff it lies on a
//! minimum-cost path. We implement the back-off-based setup refinement
//! from the original paper (delay ∝ advertised cost) that suppresses the
//! exponential re-broadcast storm of naive cost propagation.

use std::any::Any;
use std::collections::HashSet;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::Pad;
use wmsn_util::NodeId;

const TIMER_BEACON: u64 = 0x4D43_0001;

/// Cost not yet known.
pub const COST_INF: u32 = u32::MAX;

wmsn_util::packet_schema! {
    /// MCFA wire messages.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum McfaMsg;
    /// Borrowed decode of an MCFA frame.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum McfaMsgView<'a>;
    /// Fixed byte offsets of the MCFA frames' fields.
    pub mod layout;

    /// Cost advertisement: "I can reach a sink in `cost` hops".
    0x20 Beacon {
        /// Advertised cost.
        cost: u32,
    }
    /// Data with a remaining-cost budget.
    0x21 Data {
        /// Source node (metrics only — MCFA itself never reads it).
        origin: NodeId,
        /// Source-unique id (duplicate suppression).
        msg_id: u64,
        /// Origination time.
        sent_at: u64,
        /// Hops so far.
        hops: u32,
        /// Remaining cost budget.
        budget: u32,
        /// Payload padding.
        payload_len: Pad,
    }
}

/// MCFA sensor: maintains its cost, relays the beacon wave, forwards data
/// on the cost gradient.
pub struct McfaSensor {
    /// This node's current least-cost-to-sink estimate.
    pub cost: u32,
    /// Cost we have already advertised (suppresses redundant beacons).
    advertised: u32,
    /// Back-off per cost unit (µs) for the setup refinement.
    backoff_per_hop_us: u64,
    payload_len: u16,
    seen: HashSet<(NodeId, u64)>,
    next_msg_id: u64,
    beacon_pending: bool,
    /// Data frames this node forwarded.
    pub forwarded: u64,
    /// Data frames dropped because the cost field was not set up.
    pub dropped: u64,
}

impl McfaSensor {
    /// New sensor.
    pub fn new(backoff_per_hop_us: u64) -> Self {
        McfaSensor {
            cost: COST_INF,
            advertised: COST_INF,
            backoff_per_hop_us,
            payload_len: 24,
            seen: HashSet::new(),
            next_msg_id: 0,
            beacon_pending: false,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new(5_000))
    }

    /// Originate one message (requires the cost field to be set up).
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        ctx.record_origination();
        if self.cost == COST_INF {
            self.dropped += 1;
            return;
        }
        let msg = McfaMsg::Data {
            origin: ctx.id(),
            msg_id: self.next_msg_id,
            sent_at: ctx.now(),
            hops: 1,
            budget: self.cost,
            payload_len: self.payload_len,
        };
        self.next_msg_id += 1;
        self.seen.insert((ctx.id(), self.next_msg_id - 1));
        ctx.send(None, Tier::Sensor, PacketKind::Data, msg.encode());
    }

    fn schedule_beacon(&mut self, ctx: &mut Ctx<'_>) {
        if self.beacon_pending {
            return; // the pending timer will advertise the newest cost
        }
        self.beacon_pending = true;
        let delay = self.backoff_per_hop_us * self.cost as u64;
        ctx.set_timer(delay, TIMER_BEACON);
    }
}

impl Behavior for McfaSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = McfaMsg::decode(&pkt.payload) else {
            return;
        };
        match msg {
            McfaMsg::Beacon { cost } => {
                let new_cost = cost.saturating_add(1);
                if new_cost < self.cost {
                    self.cost = new_cost;
                    self.schedule_beacon(ctx);
                }
            }
            McfaMsg::Data {
                origin,
                msg_id,
                sent_at,
                hops,
                budget,
                payload_len,
            } => {
                // On-gradient check: we forward iff we are exactly one
                // cost unit closer to the sink than the budget says.
                if self.cost == COST_INF || budget == 0 || self.cost != budget - 1 {
                    return;
                }
                if !self.seen.insert((origin, msg_id)) {
                    return;
                }
                let fwd = McfaMsg::Data {
                    origin,
                    msg_id,
                    sent_at,
                    hops: hops + 1,
                    budget: self.cost,
                    payload_len,
                };
                self.forwarded += 1;
                ctx.send(None, Tier::Sensor, PacketKind::Data, fwd.encode());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if tag == TIMER_BEACON {
            self.beacon_pending = false;
            if self.cost < self.advertised {
                self.advertised = self.cost;
                let msg = McfaMsg::Beacon { cost: self.cost };
                ctx.send(None, Tier::Sensor, PacketKind::Control, msg.encode());
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

/// MCFA sink: seeds the cost field (cost 0) and absorbs data.
pub struct McfaSink {
    seen: HashSet<(NodeId, u64)>,
    /// Messages absorbed.
    pub absorbed: u64,
}

impl McfaSink {
    /// New sink.
    pub fn new() -> Self {
        McfaSink {
            seen: HashSet::new(),
            absorbed: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for McfaSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for McfaSink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        // Seed the wave.
        let msg = McfaMsg::Beacon { cost: 0 };
        ctx.send(None, Tier::Sensor, PacketKind::Control, msg.encode());
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = McfaMsg::decode(&pkt.payload) else {
            return;
        };
        if let McfaMsg::Data {
            origin,
            msg_id,
            sent_at,
            hops,
            budget,
            ..
        } = msg
        {
            // Accept frames whose next stop is the sink (budget 1 from a
            // direct neighbour, or budget == cost of the neighbour that
            // broadcast with the sink in range).
            if budget >= 1 && self.seen.insert((origin, msg_id)) {
                self.absorbed += 1;
                ctx.record_delivery(origin, msg_id, sent_at, hops);
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

    fn chain_world(n: usize) -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(short_range(13));
        let mut sensors = Vec::new();
        for i in 0..n {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new((i + 1) as f64 * 10.0, 0.0), 100.0),
                McfaSensor::boxed(),
            ));
        }
        let sink = w.add_node(NodeConfig::gateway(Point::new(0.0, 0.0)), McfaSink::boxed());
        (w, sensors, sink)
    }

    #[test]
    fn wire_roundtrip() {
        let b = McfaMsg::Beacon { cost: 4 };
        assert_eq!(McfaMsg::decode(&b.encode()).unwrap(), b);
        let d = McfaMsg::Data {
            origin: NodeId(2),
            msg_id: 3,
            sent_at: 4,
            hops: 1,
            budget: 5,
            payload_len: 8,
        };
        assert_eq!(McfaMsg::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn cost_field_converges_to_hop_distance() {
        let (mut w, sensors, _sink) = chain_world(5);
        w.run_until(2_000_000);
        for (i, &s) in sensors.iter().enumerate() {
            let cost = w.behavior_as::<McfaSensor>(s).unwrap().cost;
            assert_eq!(cost, i as u32 + 1, "sensor {i}");
        }
    }

    #[test]
    fn data_rides_the_gradient_to_the_sink() {
        let (mut w, sensors, sink) = chain_world(5);
        w.run_until(2_000_000);
        w.with_behavior::<McfaSensor, _>(sensors[4], |s, ctx| s.originate(ctx));
        w.run_until(4_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 1);
        assert_eq!(m.deliveries[0].hops, 5);
        assert_eq!(w.behavior_as::<McfaSink>(sink).unwrap().absorbed, 1);
    }

    #[test]
    fn off_gradient_nodes_do_not_forward() {
        // A Y-shaped field: a side branch must stay silent when data flows
        // down the main chain.
        let (mut w, sensors, _sink) = chain_world(4);
        let branch = w.add_node(
            NodeConfig::sensor(Point::new(20.0, 9.0), 100.0),
            McfaSensor::boxed(),
        );
        w.run_until(2_000_000);
        // branch is adjacent to sensors[1] (20,0) and sensors[2]? (30,0) is
        // √(100+81)≈13.4 away — only sensors[1] and (10,0)=sensors[0]
        // (√(100+81) too)… adjacent to sensors[1] only. Its cost is 3.
        assert_eq!(w.behavior_as::<McfaSensor>(branch).unwrap().cost, 3);
        w.with_behavior::<McfaSensor, _>(sensors[3], |s, ctx| s.originate(ctx));
        w.run_until(4_000_000);
        assert_eq!(
            w.behavior_as::<McfaSensor>(branch).unwrap().forwarded,
            0,
            "off-gradient node forwarded"
        );
        assert_eq!(w.metrics().deliveries.len(), 1);
    }

    #[test]
    fn backoff_suppresses_redundant_beacons() {
        // With back-off, each node beacons exactly once on a chain.
        let (mut w, _sensors, _sink) = chain_world(6);
        w.run_until(2_000_000);
        // 1 sink beacon + 6 sensor beacons.
        assert_eq!(w.metrics().sent_control, 7);
    }

    #[test]
    fn origination_before_setup_is_dropped() {
        let (mut w, sensors, _sink) = chain_world(3);
        w.start();
        // Originate immediately — beacons have not propagated yet.
        w.with_behavior::<McfaSensor, _>(sensors[2], |s, ctx| s.originate(ctx));
        let s = w.behavior_as::<McfaSensor>(sensors[2]).unwrap();
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn multiple_sinks_give_each_node_the_nearest_cost() {
        let mut w = World::new(short_range(13));
        let mut sensors = Vec::new();
        for i in 0..5 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new((i + 1) as f64 * 10.0, 0.0), 100.0),
                McfaSensor::boxed(),
            ));
        }
        let _s1 = w.add_node(NodeConfig::gateway(Point::new(0.0, 0.0)), McfaSink::boxed());
        let _s2 = w.add_node(
            NodeConfig::gateway(Point::new(60.0, 0.0)),
            McfaSink::boxed(),
        );
        w.run_until(2_000_000);
        let costs: Vec<u32> = sensors
            .iter()
            .map(|&s| w.behavior_as::<McfaSensor>(s).unwrap().cost)
            .collect();
        assert_eq!(costs, vec![1, 2, 3, 2, 1]);
    }
}
