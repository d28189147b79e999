//! Sinkhole and sybil attacks (§2.3).
//!
//! A **sinkhole** makes itself look like the best route to a sink —
//! here by answering every routing query with a forged reply claiming a
//! 1-hop path to the (real) gateway through itself — and then swallows
//! the attracted traffic. Against plain MLR the forged RREP is
//! indistinguishable from a genuine cache reply (§5.2 step 3.1 allows
//! intermediate replies), so the attack works. Against SecMLR the reply
//! must carry `MAC(K_ij, …)` from the *gateway*, which the adversary
//! cannot produce; the source rejects it.
//!
//! A **sybil** sinkhole mounts the same attack under many fabricated
//! link-layer identities, defeating naive per-node blacklisting.

use std::any::Any;
use wmsn_crypto::mac::Tag;
use wmsn_crypto::SealedMessage;
use wmsn_routing::wire::{RoutingMsg, RoutingMsgView};
use wmsn_secure::wire::{SecMsg, SecMsgView};
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::NodeId;

/// Which protocol family's queries the adversary answers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetProtocol {
    /// Plain MLR/SPR wire format.
    Mlr,
    /// SecMLR wire format (forged seals — should be rejected).
    SecMlr,
}

/// The sinkhole adversary.
pub struct Sinkhole {
    target: TargetProtocol,
    /// The gateway id the forged replies claim to speak for.
    pub claimed_gateway: NodeId,
    /// The place the forged replies claim.
    pub claimed_place: u16,
    /// Forged replies sent.
    pub forged_replies: u64,
    /// Attracted data frames swallowed.
    pub swallowed: u64,
}

impl Sinkhole {
    /// New sinkhole claiming to front for `claimed_gateway`.
    pub fn new(target: TargetProtocol, claimed_gateway: NodeId, claimed_place: u16) -> Self {
        Sinkhole {
            target,
            claimed_gateway,
            claimed_place,
            forged_replies: 0,
            swallowed: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(
        target: TargetProtocol,
        claimed_gateway: NodeId,
        claimed_place: u16,
    ) -> Box<dyn Behavior> {
        Box::new(Self::new(target, claimed_gateway, claimed_place))
    }

    fn forge_mlr_reply(
        &mut self,
        ctx: &mut Ctx<'_>,
        origin: NodeId,
        req_id: u64,
        path: Vec<NodeId>,
    ) {
        let Some(&prev) = path.last() else { return };
        // Claim: gateway is right behind me (path + me, then the
        // gateway) — one fabricated ultra-short route.
        let mut forged_path = path;
        forged_path.push(ctx.id());
        let rrep = RoutingMsg::Rrep {
            origin,
            req_id,
            gateway: self.claimed_gateway,
            place: self.claimed_place,
            energy_pm: 1000, // forgers advertise irresistible freshness
            path: forged_path,
        };
        self.forged_replies += 1;
        ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, rrep.encode());
    }

    fn forge_secmlr_reply(&mut self, ctx: &mut Ctx<'_>, origin: NodeId, path: Vec<NodeId>) {
        let Some(&prev) = path.last() else { return };
        let mut forged_path = path;
        forged_path.push(ctx.id());
        forged_path.push(self.claimed_gateway);
        let rres = SecMsg::Rres {
            origin,
            gateway: self.claimed_gateway,
            place: self.claimed_place,
            path: forged_path,
            // The adversary holds no pair key: the best it can do is a
            // random seal, which the source's MAC check will kill.
            sealed: SealedMessage {
                counter: u64::MAX,
                ciphertext: vec![0xDE, 0xAD, 0xBE, 0xEF],
                tag: Tag([0xEE; 8]),
            },
        };
        self.forged_replies += 1;
        ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, rres.encode());
    }
}

impl Behavior for Sinkhole {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        // Classify via borrowed views: swallowed data is counted without
        // ever materialising a frame, and only answerable queries pay
        // for an owned path (the forged reply needs one).
        match self.target {
            TargetProtocol::Mlr => match RoutingMsgView::decode(&pkt.payload) {
                Ok(RoutingMsgView::Rreq {
                    origin,
                    req_id,
                    path,
                    ..
                }) => {
                    let path = path.iter().map(NodeId).collect();
                    self.forge_mlr_reply(ctx, origin, req_id, path);
                }
                Ok(RoutingMsgView::Data { .. }) => self.swallowed += 1,
                _ => {}
            },
            TargetProtocol::SecMlr => match SecMsgView::decode(&pkt.payload) {
                Ok(SecMsgView::Rreq { origin, path, .. }) => {
                    let path = path.iter().map(NodeId).collect();
                    self.forge_secmlr_reply(ctx, origin, path);
                }
                Ok(SecMsgView::Data { .. }) => self.swallowed += 1,
                _ => {}
            },
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sybil sinkhole: mounts the sinkhole under `identities` fabricated
/// origin ids appended to forged paths, so each reply appears to come
/// from a different node.
pub struct Sybil {
    inner: Sinkhole,
    identities: Vec<NodeId>,
    next: usize,
}

impl Sybil {
    /// New sybil sinkhole cycling through `identities`.
    pub fn new(target: TargetProtocol, claimed_gateway: NodeId, identities: Vec<NodeId>) -> Self {
        assert!(!identities.is_empty());
        Sybil {
            inner: Sinkhole::new(target, claimed_gateway, 0),
            identities,
            next: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(
        target: TargetProtocol,
        claimed_gateway: NodeId,
        identities: Vec<NodeId>,
    ) -> Box<dyn Behavior> {
        Box::new(Self::new(target, claimed_gateway, identities))
    }

    /// Forged replies sent across all identities.
    pub fn forged_replies(&self) -> u64 {
        self.inner.forged_replies
    }

    /// Data frames swallowed.
    pub fn swallowed(&self) -> u64 {
        self.inner.swallowed
    }
}

impl Behavior for Sybil {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        // Rotate the fabricated identity used in the forged path: replies
        // appear to originate from ever-new nodes.
        if self.inner.target == TargetProtocol::Mlr {
            if let Ok(RoutingMsgView::Rreq {
                origin,
                req_id,
                path,
                ..
            }) = RoutingMsgView::decode(&pkt.payload)
            {
                let fake_id = self.identities[self.next % self.identities.len()];
                self.next += 1;
                let Some(prev) = path.last().map(NodeId) else {
                    return;
                };
                let mut forged_path: Vec<NodeId> = path.iter().map(NodeId).collect();
                forged_path.push(fake_id);
                let rrep = RoutingMsg::Rrep {
                    origin,
                    req_id,
                    gateway: self.inner.claimed_gateway,
                    place: self.inner.claimed_place,
                    energy_pm: 1000,
                    path: forged_path,
                };
                self.inner.forged_replies += 1;
                ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, rrep.encode());
                return;
            }
        }
        self.inner.on_packet(ctx, pkt);
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
    use wmsn_crypto::{Key128, KeyStore};
    use wmsn_routing::mlr::{MlrConfig, MlrGateway, MlrSensor};
    use wmsn_secure::{SecGatewayConfig, SecMlrGateway, SecMlrSensor, SecSensorConfig};
    use wmsn_sim::{NodeConfig, World, WorldConfig};
    use wmsn_util::Point;

    fn short_range(seed: u64) -> WorldConfig {
        let mut c = WorldConfig::ideal(seed);
        c.sensor_phy.range_m = 10.0;
        c
    }

    /// Field where S0 is 3 honest hops from the gateway but 1 hop from
    /// the adversary: S0 — S1 — S2 — GW, adversary beside S0.
    #[test]
    fn sinkhole_captures_mlr_traffic() {
        let mut w = World::new(short_range(1));
        let mut sensors = Vec::new();
        for i in 0..3 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 10.0, 0.0), 100.0),
                MlrSensor::boxed(MlrConfig::default()),
            ));
        }
        let gw = w.add_node(
            NodeConfig::gateway(Point::new(30.0, 0.0)),
            MlrGateway::boxed(0),
        );
        let attacker = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 9.0), 100.0),
            Sinkhole::boxed(TargetProtocol::Mlr, gw, 0),
        );
        w.start();
        w.with_behavior::<MlrGateway, _>(gw, |g, ctx| g.set_place(ctx, 0, 0));
        w.run_for(500_000);
        for _ in 0..5 {
            w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
            w.run_for(1_000_000);
        }
        let m = w.metrics();
        assert!(
            m.delivery_ratio() < 0.5,
            "sinkhole should capture most of S0's traffic: {}",
            m.delivery_ratio()
        );
        let a = w.behavior_as::<Sinkhole>(attacker).unwrap();
        assert!(a.forged_replies >= 1);
        assert!(a.swallowed >= 1, "captured traffic must flow to the hole");
    }

    #[test]
    fn secmlr_rejects_the_forged_reply() {
        const MASTER: Key128 = Key128([0x42; 16]);
        let mut w = World::new(short_range(2));
        let gw_id = NodeId(3);
        let mut sensors = Vec::new();
        for i in 0..3 {
            let keys = KeyStore::for_sensor(&MASTER, i, &[gw_id.0]);
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 10.0, 0.0), 100.0),
                SecMlrSensor::boxed(SecSensorConfig::default(), keys),
            ));
        }
        let gw = w.add_node(
            NodeConfig::gateway(Point::new(30.0, 0.0)),
            SecMlrGateway::boxed(SecGatewayConfig::default(), &MASTER, gw_id, 0),
        );
        let _attacker = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 9.0), 100.0),
            Sinkhole::boxed(TargetProtocol::SecMlr, gw, 0),
        );
        for &s in &sensors {
            w.with_behavior::<SecMlrSensor, _>(s, |b, _| b.set_initial_occupancy(&[(gw_id, 0)]));
        }
        w.start();
        for _ in 0..5 {
            w.with_behavior::<SecMlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
            w.run_for(1_000_000);
        }
        let m = w.metrics();
        assert!(
            (m.delivery_ratio() - 1.0).abs() < 1e-9,
            "SecMLR must shrug the sinkhole off: {}",
            m.delivery_ratio()
        );
        let s0 = w.behavior_as::<SecMlrSensor>(sensors[0]).unwrap();
        assert!(
            s0.stats.rres_rejected >= 1,
            "the forged reply must have been seen and rejected"
        );
        // The real route (3 hops) was installed despite the attack.
        assert_eq!(s0.routes[&gw].hops(), 3);
    }

    #[test]
    fn sybil_floods_many_identities() {
        let mut w = World::new(short_range(3));
        let s0 = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            MlrSensor::boxed(MlrConfig::default()),
        );
        let gw = w.add_node(
            NodeConfig::gateway(Point::new(10.0, 0.0)),
            MlrGateway::boxed(0),
        );
        let fakes: Vec<NodeId> = (100..103).map(NodeId).collect();
        let attacker = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 9.0), 100.0),
            Sybil::boxed(TargetProtocol::Mlr, gw, fakes),
        );
        w.start();
        w.with_behavior::<MlrGateway, _>(gw, |g, ctx| g.set_place(ctx, 0, 0));
        w.run_for(500_000);
        for _ in 0..3 {
            // Force rediscovery each time so the sybil keeps answering.
            w.with_behavior::<MlrSensor, _>(s0, |s, ctx| {
                s.table.clear();
                s.originate(ctx);
            });
            w.run_for(1_000_000);
        }
        let a = w.behavior_as::<Sybil>(attacker).unwrap();
        assert!(a.forged_replies() >= 3);
    }
}
