//! The composite WMG behaviour: Fig. 1's dual-homed gateway.
//!
//! A wireless mesh gateway is simultaneously (a) the sink of its sensor
//! subnet — here the MLR gateway protocol — and (b) a router of the
//! 802.11 mesh backbone — here the link-state [`MeshRouter`]. This
//! composite dispatches by radio tier and, when an uplink base station is
//! configured, forwards every accepted sensor reading across the backbone
//! ("Internet for users to remotely access sensed data", §3.2).

use std::any::Any;
use wmsn_routing::mesh::MeshRouter;
use wmsn_routing::mlr::MlrGateway;
use wmsn_routing::wire::RoutingMsgView;
use wmsn_sim::{Behavior, Ctx, Packet, Tier};
use wmsn_util::NodeId;

/// MLR gateway + mesh router in one node.
pub struct WmgBehavior {
    /// Sensor-tier sink protocol.
    pub gateway: MlrGateway,
    /// Backbone link-state engine.
    pub mesh: MeshRouter,
    /// Base station to forward accepted readings to (mesh tier).
    pub uplink: Option<NodeId>,
    /// Readings forwarded up the backbone.
    pub uplinked: u64,
}

impl WmgBehavior {
    /// New WMG at feasible `place`, optionally uplinking to `uplink`.
    pub fn new(place: u16, uplink: Option<NodeId>) -> Self {
        WmgBehavior {
            gateway: MlrGateway::new(place),
            mesh: MeshRouter::new(100_000),
            uplink,
            uplinked: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(place: u16, uplink: Option<NodeId>) -> Box<dyn Behavior> {
        Box::new(Self::new(place, uplink))
    }
}

impl Behavior for WmgBehavior {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.mesh.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        match pkt.tier {
            Tier::Mesh => {
                // WMGs relay backbone traffic; payloads terminating here
                // (rare — readings flow toward base stations) are dropped.
                let _ = self.mesh.on_packet(ctx, pkt);
            }
            Tier::Sensor => {
                // Detect accepted data before handing to the sink logic —
                // a borrowed decode, no frame materialisation.
                let is_my_data = matches!(
                    RoutingMsgView::decode(&pkt.payload),
                    Ok(RoutingMsgView::Data { gateway, .. }) if gateway == ctx.id()
                );
                self.gateway.on_packet(ctx, pkt);
                if is_my_data {
                    if let Some(base) = self.uplink {
                        if self.mesh.send(ctx, base, pkt.payload.to_vec()) {
                            self.uplinked += 1;
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        if !self.mesh.on_timer(ctx, tag) {
            self.gateway.on_timer(ctx, tag);
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
    use wmsn_routing::mesh::MeshNode;
    use wmsn_routing::mlr::{MlrConfig, MlrSensor};
    use wmsn_sim::{NodeConfig, World, WorldConfig};
    use wmsn_util::Point;

    #[test]
    fn wmg_relays_backbone_traffic_between_other_mesh_nodes() {
        // base — WMG — WMR chain on the mesh tier: the WMG must forward
        // backbone frames it is not the destination of.
        let mut w = World::new({
            let mut c = WorldConfig::ideal(2);
            c.mesh_phy.range_m = 120.0;
            c
        });
        let base = w.add_node(
            NodeConfig::base_station(Point::new(0.0, 0.0)),
            MeshNode::boxed(),
        );
        let wmg = w.add_node(
            NodeConfig::gateway(Point::new(100.0, 0.0)),
            WmgBehavior::boxed(0, Some(base)),
        );
        let wmr = w.add_node(
            NodeConfig::mesh_router(Point::new(200.0, 0.0)),
            MeshNode::boxed(),
        );
        w.run_until(2_000_000);
        w.with_behavior::<MeshNode, _>(wmr, |n, ctx| {
            assert!(n.router.send(ctx, base, b"via-wmg".to_vec()));
        });
        w.run_for(1_000_000);
        let delivered = &w.behavior_as::<MeshNode>(base).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, b"via-wmg".to_vec());
        assert_eq!(
            w.behavior_as::<WmgBehavior>(wmg).unwrap().mesh.forwarded,
            1,
            "the WMG must have relayed the frame"
        );
    }

    #[test]
    fn wmg_without_uplink_absorbs_but_does_not_forward() {
        let mut w = World::new({
            let mut c = WorldConfig::ideal(3);
            c.sensor_phy.range_m = 10.0;
            c
        });
        let sensor = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            MlrSensor::boxed(MlrConfig::default()),
        );
        let wmg = w.add_node(
            NodeConfig::gateway(Point::new(10.0, 0.0)),
            WmgBehavior::boxed(0, None),
        );
        w.start();
        w.with_behavior::<WmgBehavior, _>(wmg, |g, ctx| g.gateway.set_place(ctx, 0, 0));
        w.run_for(500_000);
        w.with_behavior::<MlrSensor, _>(sensor, |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        let g = w.behavior_as::<WmgBehavior>(wmg).unwrap();
        assert_eq!(g.gateway.absorbed, 1);
        assert_eq!(g.uplinked, 0, "no uplink configured");
    }

    #[test]
    fn sensor_reading_reaches_the_base_station_end_to_end() {
        let mut w = World::new({
            let mut c = WorldConfig::ideal(1);
            c.sensor_phy.range_m = 10.0;
            c.mesh_phy.range_m = 120.0;
            c
        });
        // Sensor — WMG ——(mesh)—— WMR ——(mesh)—— Base.
        let sensor = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
            MlrSensor::boxed(MlrConfig::default()),
        );
        let base_id = NodeId(3);
        let wmg = w.add_node(
            NodeConfig::gateway(Point::new(10.0, 0.0)),
            WmgBehavior::boxed(0, Some(base_id)),
        );
        let _wmr = w.add_node(
            NodeConfig::mesh_router(Point::new(110.0, 0.0)),
            MeshNode::boxed(),
        );
        let base = w.add_node(
            NodeConfig::base_station(Point::new(210.0, 0.0)),
            MeshNode::boxed(),
        );
        assert_eq!(base, base_id);
        // Let the backbone converge (hellos + LSAs).
        w.run_until(2_000_000);
        // Announce the gateway's place on the sensor tier, then report.
        w.with_behavior::<WmgBehavior, _>(wmg, |g, ctx| g.gateway.set_place(ctx, 0, 0));
        w.run_for(500_000);
        w.with_behavior::<MlrSensor, _>(sensor, |s, ctx| s.originate(ctx));
        w.run_for(3_000_000);
        // Delivered at the WMG (sensor tier) …
        assert_eq!(
            w.behavior_as::<WmgBehavior>(wmg).unwrap().gateway.absorbed,
            1
        );
        assert_eq!(w.behavior_as::<WmgBehavior>(wmg).unwrap().uplinked, 1);
        // … and at the base station (mesh tier), two backbone hops away.
        let delivered = &w.behavior_as::<MeshNode>(base).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0, wmg);
    }
}
