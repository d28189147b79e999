//! Link-state routing for the wireless-mesh backbone (Fig. 1's middle
//! tier).
//!
//! The paper treats mesh routing as a solved substrate ("mesh network
//! routing in middle layer has been well researched", §5) but the
//! three-layer architecture cannot run without one, so we implement a
//! compact link-state protocol in the OLSR/OSPF family:
//!
//! 1. **Hello** — every mesh node (WMG, WMR, base station) broadcasts a
//!    hello at start-up; hearers record the sender as a neighbour
//!    (unit-disk links are symmetric).
//! 2. **LSA flooding** — after the hello phase each node floods a
//!    sequence-numbered link-state advertisement listing its neighbours;
//!    every node assembles the same topology database.
//! 3. **Forwarding** — unicast hop-by-hop along BFS shortest paths
//!    computed from the database on demand (links are unit cost, matching
//!    the hop-count objective used everywhere else in the paper).
//!
//! [`MeshRouter`] is a composable component (not a [`Behavior`]) so a WMG
//! can run it *beside* its sensor-tier gateway protocol; [`MeshNode`]
//! wraps it as a standalone behaviour for WMRs and base stations, with
//! delivered payloads handed to a pluggable sink hook.

use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::{self, Bytes, IdList};
use wmsn_util::NodeId;

/// Timer tag namespace for the mesh component (distinct from any
/// sensor-tier protocol tags a co-located behaviour might use).
pub const MESH_TIMER_LSA: u64 = 0x4D45_5348_0001;

wmsn_util::packet_schema! {
    /// Mesh wire messages.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum MeshMsg;
    /// Borrowed decode of a mesh frame (neighbour lists and inner
    /// payloads stay in the received frame).
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum MeshMsgView<'a>;
    /// Fixed byte offsets of the mesh frames' fields.
    pub mod layout;

    /// Neighbour discovery beacon.
    0x40 Hello {
        /// Sender.
        from: NodeId,
    }
    /// Link-state advertisement.
    0x41 Lsa {
        /// Advertising node.
        origin: NodeId,
        /// Monotone per-origin sequence number.
        seq: u32,
        /// Origin's neighbour list.
        neighbors: IdList<4096>,
    }
    /// Backbone data frame carrying an opaque inner payload.
    0x42 Data {
        /// Final mesh destination.
        dst: NodeId,
        /// Mesh source.
        src: NodeId,
        /// Backbone hops so far.
        hops: u32,
        /// Opaque payload (typically an encoded sensor-tier DATA).
        inner: Bytes<65535>,
    }
}

/// The reusable link-state engine.
pub struct MeshRouter {
    /// Directly heard neighbours.
    pub neighbors: HashSet<NodeId>,
    /// Link-state database: origin → (seq, neighbour list).
    lsdb: HashMap<NodeId, (u32, Vec<NodeId>)>,
    my_seq: u32,
    lsa_delay_us: u64,
    /// Frames forwarded on the backbone.
    pub forwarded: u64,
    /// Frames dropped for want of a route.
    pub dropped: u64,
}

impl MeshRouter {
    /// New engine; LSAs flood `lsa_delay_us` after start so hellos settle
    /// first.
    pub fn new(lsa_delay_us: u64) -> Self {
        MeshRouter {
            neighbors: HashSet::new(),
            lsdb: HashMap::new(),
            my_seq: 0,
            lsa_delay_us,
            forwarded: 0,
            dropped: 0,
        }
    }

    /// Start-up: broadcast a hello, arm the LSA timer.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let hello = MeshMsg::Hello { from: ctx.id() };
        ctx.send(None, Tier::Mesh, PacketKind::Control, hello.encode());
        ctx.set_timer(self.lsa_delay_us, MESH_TIMER_LSA);
    }

    /// Timer hook; returns `true` if the tag belonged to the mesh engine.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) -> bool {
        if tag != MESH_TIMER_LSA {
            return false;
        }
        self.flood_own_lsa(ctx);
        true
    }

    /// Re-advertise the current neighbour set (call after topology
    /// changes, e.g. a WMR died).
    pub fn flood_own_lsa(&mut self, ctx: &mut Ctx<'_>) {
        self.my_seq += 1;
        let mut ns: Vec<NodeId> = self.neighbors.iter().copied().collect();
        ns.sort_unstable();
        self.lsdb.insert(ctx.id(), (self.my_seq, ns.clone()));
        let lsa = MeshMsg::Lsa {
            origin: ctx.id(),
            seq: self.my_seq,
            neighbors: ns,
        };
        ctx.send(None, Tier::Mesh, PacketKind::Control, lsa.encode());
    }

    /// Packet hook. Consumes mesh frames; returns the `(src, inner)` of a
    /// data frame whose final destination is this node. Non-mesh frames
    /// return `None` without side effects.
    pub fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Option<(NodeId, Vec<u8>)> {
        if pkt.tier != Tier::Mesh {
            return None;
        }
        // Data frames are the backbone's bulk traffic: transit nodes
        // forward them as memcpy + hops patch; only the final
        // destination copies the inner payload out.
        match MeshMsgView::decode(&pkt.payload).ok()? {
            MeshMsgView::Data {
                dst,
                src,
                hops,
                inner,
            } => {
                if dst == ctx.id() {
                    return Some((src, inner.to_vec()));
                }
                match self.next_hop(ctx.id(), dst) {
                    Some(next) => {
                        let mut buf = ctx.take_scratch();
                        let hops = (hops + 1).to_le_bytes();
                        let fields = [(layout::Data::hops, &hops[..])];
                        if codec::patch(&pkt.payload, &fields, &mut buf).is_ok() {
                            self.forwarded += 1;
                            ctx.send(Some(next), Tier::Mesh, PacketKind::Data, &buf[..]);
                        }
                        ctx.put_scratch(buf);
                    }
                    None => self.dropped += 1,
                }
                None
            }
            MeshMsgView::Hello { from } => {
                self.neighbors.insert(from);
                None
            }
            MeshMsgView::Lsa {
                origin,
                seq,
                neighbors,
            } => {
                let fresher = self.lsdb.get(&origin).is_none_or(|(have, _)| seq > *have);
                if fresher {
                    self.lsdb
                        .insert(origin, (seq, neighbors.iter().map(NodeId).collect()));
                    // Re-flood the received frame verbatim: re-encoding
                    // the same LSA would produce the same bytes, so an
                    // `Rc` clone of the payload is free and identical.
                    ctx.send(None, Tier::Mesh, PacketKind::Control, pkt.payload.clone());
                }
                None
            }
        }
    }

    /// Send an opaque payload to `dst` across the backbone. Returns
    /// `false` if no route is known.
    pub fn send(&mut self, ctx: &mut Ctx<'_>, dst: NodeId, inner: Vec<u8>) -> bool {
        if dst == ctx.id() {
            return false;
        }
        let Some(next) = self.next_hop(ctx.id(), dst) else {
            self.dropped += 1;
            return false;
        };
        let msg = MeshMsg::Data {
            dst,
            src: ctx.id(),
            hops: 1,
            inner,
        };
        ctx.send(Some(next), Tier::Mesh, PacketKind::Data, msg.encode());
        true
    }

    /// BFS next hop from `me` toward `dst` over the LSDB ∪ direct
    /// neighbours.
    pub fn next_hop(&self, me: NodeId, dst: NodeId) -> Option<NodeId> {
        if self.neighbors.contains(&dst) {
            return Some(dst);
        }
        // Build adjacency from the database (our own entry may be stale;
        // overlay live neighbours).
        let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (&origin, (_, ns)) in &self.lsdb {
            adj.entry(origin).or_default().extend(ns.iter().copied());
        }
        adj.insert(me, self.neighbors.iter().copied().collect());
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::from([me]);
        prev.insert(me, me);
        while let Some(v) = queue.pop_front() {
            if v == dst {
                // Walk back to the first hop.
                let mut cur = dst;
                while prev[&cur] != me {
                    cur = prev[&cur];
                }
                return Some(cur);
            }
            if let Some(ns) = adj.get(&v) {
                for &u in ns {
                    prev.entry(u).or_insert_with(|| {
                        queue.push_back(u);
                        v
                    });
                }
            }
        }
        None
    }

    /// Number of nodes known to the topology database.
    pub fn known_nodes(&self) -> usize {
        self.lsdb.len()
    }
}

/// Standalone mesh behaviour for WMRs and base stations. Delivered data
/// frames whose inner payload parses as a sensor-tier
/// [`crate::wire::RoutingMsg::Data`] are recorded as end-to-end
/// deliveries — this is what makes the base station the Internet-side
/// measurement point of experiment E12.
pub struct MeshNode {
    /// The link-state engine.
    pub router: MeshRouter,
    /// Inner payloads delivered to this node.
    pub delivered: Vec<(NodeId, Vec<u8>)>,
}

impl MeshNode {
    /// New node (LSAs after 100 ms).
    pub fn new() -> Self {
        MeshNode {
            router: MeshRouter::new(100_000),
            delivered: Vec::new(),
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for MeshNode {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for MeshNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.router.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        if let Some((src, inner)) = self.router.on_packet(ctx, pkt) {
            if let Ok(crate::wire::RoutingMsgView::Data {
                origin,
                msg_id,
                sent_at,
                hops,
                ..
            }) = crate::wire::RoutingMsgView::decode(&inner)
            {
                ctx.record_delivery(origin, msg_id, sent_at, hops);
            }
            self.delivered.push((src, inner));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        self.router.on_timer(ctx, tag);
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

    /// A backbone chain: base — R1 — R2 — R3 — far, 200 m spacing
    /// (within the 250 m wifi range, out of 2-hop reach).
    fn backbone() -> (World, Vec<NodeId>) {
        let mut w = World::new(WorldConfig::ideal(17));
        let mut ids = Vec::new();
        for i in 0..5 {
            let pos = Point::new(i as f64 * 200.0, 0.0);
            let cfg = if i == 0 {
                NodeConfig::base_station(pos)
            } else {
                NodeConfig::mesh_router(pos)
            };
            ids.push(w.add_node(cfg, MeshNode::boxed()));
        }
        (w, ids)
    }

    #[test]
    fn wire_roundtrips() {
        for msg in [
            MeshMsg::Hello { from: NodeId(1) },
            MeshMsg::Lsa {
                origin: NodeId(2),
                seq: 3,
                neighbors: vec![NodeId(1), NodeId(4)],
            },
            MeshMsg::Data {
                dst: NodeId(0),
                src: NodeId(4),
                hops: 2,
                inner: vec![9, 9, 9],
            },
        ] {
            assert_eq!(MeshMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn hellos_build_symmetric_neighbor_sets() {
        let (mut w, ids) = backbone();
        w.run_until(500_000);
        let n1 = &w.behavior_as::<MeshNode>(ids[1]).unwrap().router.neighbors;
        assert!(n1.contains(&ids[0]) && n1.contains(&ids[2]));
        assert_eq!(n1.len(), 2);
        let n0 = &w.behavior_as::<MeshNode>(ids[0]).unwrap().router.neighbors;
        assert_eq!(n0.len(), 1);
    }

    #[test]
    fn lsdb_converges_to_the_full_topology() {
        let (mut w, ids) = backbone();
        w.run_until(2_000_000);
        for &id in &ids {
            assert_eq!(
                w.behavior_as::<MeshNode>(id).unwrap().router.known_nodes(),
                5,
                "node {id} has an incomplete database"
            );
        }
    }

    #[test]
    fn multi_hop_unicast_reaches_the_far_end() {
        let (mut w, ids) = backbone();
        w.run_until(2_000_000);
        let base = ids[0];
        let far = ids[4];
        let sent = w.with_behavior::<MeshNode, _>(far, |n, ctx| {
            n.router.send(ctx, base, b"reading".to_vec())
        });
        assert_eq!(sent, Some(true));
        w.run_for(1_000_000);
        let delivered = &w.behavior_as::<MeshNode>(base).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0], (far, b"reading".to_vec()));
    }

    #[test]
    fn forwarding_goes_through_every_intermediate() {
        let (mut w, ids) = backbone();
        w.run_until(2_000_000);
        w.with_behavior::<MeshNode, _>(ids[4], |n, ctx| {
            n.router.send(ctx, ids[0], vec![1]);
        });
        w.run_for(1_000_000);
        for &mid in &ids[1..4] {
            assert_eq!(
                w.behavior_as::<MeshNode>(mid).unwrap().router.forwarded,
                1,
                "router {mid} did not forward"
            );
        }
    }

    #[test]
    fn unknown_destination_is_dropped_not_looped() {
        let (mut w, ids) = backbone();
        w.run_until(2_000_000);
        let ghost = NodeId(999);
        let sent =
            w.with_behavior::<MeshNode, _>(ids[2], |n, ctx| n.router.send(ctx, ghost, vec![1]));
        assert_eq!(sent, Some(false));
        assert_eq!(w.behavior_as::<MeshNode>(ids[2]).unwrap().router.dropped, 1);
    }

    #[test]
    fn rerouting_after_a_router_dies() {
        // Diamond: base(0,0) — A(200,100)/B(200,-100) — far(400,0).
        let mut w = World::new(WorldConfig::ideal(3));
        let base = w.add_node(
            NodeConfig::base_station(Point::new(0.0, 0.0)),
            MeshNode::boxed(),
        );
        let a = w.add_node(
            NodeConfig::mesh_router(Point::new(200.0, 100.0)),
            MeshNode::boxed(),
        );
        let b = w.add_node(
            NodeConfig::mesh_router(Point::new(200.0, -100.0)),
            MeshNode::boxed(),
        );
        let far = w.add_node(
            NodeConfig::mesh_router(Point::new(400.0, 0.0)),
            MeshNode::boxed(),
        );
        w.run_until(2_000_000);
        // Kill A; far must still reach base via B after re-advertising.
        w.kill(a);
        w.with_behavior::<MeshNode, _>(far, |n, ctx| {
            n.router.neighbors.remove(&a);
            n.router.flood_own_lsa(ctx);
        });
        w.with_behavior::<MeshNode, _>(base, |n, ctx| {
            n.router.neighbors.remove(&a);
            n.router.flood_own_lsa(ctx);
        });
        w.run_for(1_000_000);
        w.with_behavior::<MeshNode, _>(far, |n, ctx| {
            n.router.send(ctx, base, vec![7]);
        });
        w.run_for(1_000_000);
        assert_eq!(
            w.behavior_as::<MeshNode>(base).unwrap().delivered.len(),
            1,
            "self-healing failed"
        );
        assert_eq!(w.behavior_as::<MeshNode>(b).unwrap().router.forwarded, 1);
    }

    #[test]
    fn sensor_tier_frames_are_ignored() {
        let (mut w, ids) = backbone();
        w.run_until(2_000_000);
        // A gateway-role node can emit on the sensor tier; routers never
        // see it (tier filter), but even a mesh-tier garbage frame is
        // ignored gracefully.
        w.with_behavior::<MeshNode, _>(ids[1], |_, ctx| {
            ctx.send(None, Tier::Mesh, PacketKind::Data, vec![0xFF, 0, 1]);
        });
        w.run_for(500_000);
        // No panic, no delivery.
        assert!(w
            .behavior_as::<MeshNode>(ids[0])
            .unwrap()
            .delivered
            .is_empty());
    }
}
