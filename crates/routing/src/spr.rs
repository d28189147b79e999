//! SPR — Shortest Path Routing (§5.2).
//!
//! The protocol, step by step from the paper:
//!
//! 1. A source with a cached route sends DATA immediately (step 1).
//! 2. Otherwise it floods an RREQ "with m destinations" — a single flood
//!    that every gateway answers (step 2).
//! 3. Intermediate sensors holding a cached route **answer from the
//!    table** instead of re-flooding, appending their cached path after
//!    the path the RREQ walked (step 3.1, justified by Property 1);
//!    sensors without a route append themselves and re-flood. Gateways
//!    answer directly (step 3.2).
//! 4. The source collects RREPs for a short window and selects the
//!    minimum-hop gateway (step 4).
//! 5. Forwarding state is installed on every node along the winning path
//!    as the RREP relays back, so DATA needs no source route (step 5).
//!
//! Tables are **reset each round** (the "merges table-driven and
//! on-demand" property): the round driver calls [`SprSensor::reset_round`].
//!
//! The flat single-sink baseline of Fig. 2(a) is SPR with `m = 1`.

use crate::table::{Route, RoutingTable};
use crate::wire::{self, RoutingMsg, RoutingMsgView, NO_PLACE};
use std::any::Any;
use std::collections::VecDeque;
use std::rc::Rc;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_trace::TraceEvent;
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

/// Timer tag: RREP collection window expired.
const TIMER_COLLECT: u64 = 1;
/// Timer tag: jittered re-flood.
const TIMER_FLOOD: u64 = 2;
/// Timer tag: deferred origination (see [`SprSensor::schedule_originate`]).
const TIMER_ORIGINATE: u64 = 3;

/// Tunables for SPR (and reused by MLR).
#[derive(Clone, Copy, Debug)]
pub struct SprConfig {
    /// How long a source waits to collect RREPs before choosing (µs).
    pub reply_wait_us: u64,
    /// Application payload size carried in DATA frames (bytes).
    pub data_payload: u16,
    /// Maximum random jitter before re-flooding an RREQ (µs); avoids the
    /// synchronized-broadcast collisions of naive flooding. 0 disables.
    pub flood_jitter_us: u64,
    /// Discovery retries before buffered data is dropped.
    pub max_retries: u32,
}

impl Default for SprConfig {
    fn default() -> Self {
        SprConfig {
            reply_wait_us: 60_000,
            data_payload: 24,
            flood_jitter_us: 2_000,
            max_retries: 2,
        }
    }
}

/// Counters exposed for tests and experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct SprStats {
    /// RREQ floods this node originated.
    pub rreq_originated: u64,
    /// RREQ frames this node re-broadcast.
    pub rreq_forwarded: u64,
    /// RREPs answered from this node's cached table (Property 1 path).
    pub cache_replies: u64,
    /// RREP frames relayed toward an origin.
    pub rrep_relayed: u64,
    /// DATA frames forwarded for others.
    pub data_forwarded: u64,
    /// DATA frames dropped for lack of a route.
    pub data_dropped: u64,
}

/// A buffered application message awaiting a route.
#[derive(Clone, Copy, Debug)]
struct PendingMsg {
    msg_id: u64,
    sent_at: u64,
}

/// The sensor side of SPR.
pub struct SprSensor {
    cfg: SprConfig,
    /// Cached routes (cleared each round).
    pub table: RoutingTable,
    /// Flood duplicate suppression, keyed on the decoded view's
    /// `(origin, req_id)` before any path materialisation.
    seen_rreq: SeenTable,
    /// Best RREP relayed per (origin, req, gateway) — reply-storm damping.
    seen_rrep: std::collections::HashMap<(NodeId, u64, NodeId), usize>,
    seen_announce: SeenTable,
    next_req_id: u64,
    next_msg_id: u64,
    pending: Vec<PendingMsg>,
    /// Outstanding discovery, with retries used.
    discovering: Option<(u64, u32)>,
    flood_queue: VecDeque<Rc<[u8]>>,
    /// Counters.
    pub stats: SprStats,
}

impl SprSensor {
    /// New sensor with the given tunables.
    pub fn new(cfg: SprConfig) -> Self {
        SprSensor {
            cfg,
            table: RoutingTable::new(),
            seen_rreq: SeenTable::new(),
            seen_rrep: std::collections::HashMap::new(),
            seen_announce: SeenTable::new(),
            next_req_id: 0,
            next_msg_id: 0,
            pending: Vec::new(),
            discovering: None,
            flood_queue: VecDeque::new(),
            stats: SprStats::default(),
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: SprConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Round reset (§5.2): drop cached routes and flood-dedup state.
    pub fn reset_round(&mut self) {
        self.table.clear();
        self.seen_rreq.clear();
        self.seen_rrep.clear();
        self.discovering = None;
    }

    /// Slots held by the RREQ flood-dedup table (read-only; bounded by
    /// the origins heard in the current round, see [`SeenTable`]).
    pub fn seen_rreq_capacity(&self) -> usize {
        self.seen_rreq.capacity()
    }

    /// Entries the RREP relay-damping map can hold without reallocating.
    pub fn seen_rrep_capacity(&self) -> usize {
        self.seen_rrep.capacity()
    }

    /// Originate one application message. Sends immediately if a route is
    /// cached, otherwise buffers and (if not already) starts discovery.
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.record_origination();
        let msg = PendingMsg {
            msg_id,
            sent_at: ctx.now(),
        };
        if self.route_known() {
            self.send_data(ctx, msg);
        } else {
            self.pending.push(msg);
            if self.discovering.is_none() {
                self.start_discovery(ctx, 0);
            }
        }
    }

    /// Schedule [`Self::originate`] to fire `delay_us` from now via the
    /// node's own timer, instead of having an external driver call it.
    ///
    /// At large n a driver-side stagger loop serialises the whole world
    /// behind repeated `run_for` calls; timer-driven origination lets a
    /// scenario arm every source up front and then issue one long
    /// `run_until`, which is what the sharded kernel needs to overlap
    /// work across shards.
    pub fn schedule_originate(&mut self, ctx: &mut Ctx<'_>, delay_us: u64) {
        ctx.set_timer(delay_us, TIMER_ORIGINATE);
    }

    fn route_known(&self) -> bool {
        self.table.best().is_some()
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, retries_used: u32) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.discovering = Some((req_id, retries_used));
        self.seen_rreq.insert(ctx.id().0, req_id);
        let rreq = RoutingMsg::Rreq {
            origin: ctx.id(),
            req_id,
            path: vec![ctx.id()],
            wanted: Vec::new(), // SPR: any gateway's route is welcome
        };
        self.stats.rreq_originated += 1;
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::RreqFlood {
                t: ctx.now(),
                node: ctx.id(),
                origin: ctx.id(),
                req_id,
                forwarded: false,
            });
        }
        ctx.send(None, Tier::Sensor, PacketKind::Control, rreq.encode());
        ctx.set_timer(self.cfg.reply_wait_us, TIMER_COLLECT);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, msg: PendingMsg) {
        let Some(route) = self.table.best().cloned() else {
            self.stats.data_dropped += 1;
            return;
        };
        let data = RoutingMsg::Data {
            origin: ctx.id(),
            msg_id: msg.msg_id,
            sent_at: msg.sent_at,
            gateway: route.gateway,
            place: route.place,
            hops: 1,
            payload_len: self.cfg.data_payload,
        };
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::Forward {
                t: ctx.now(),
                node: ctx.id(),
                origin: ctx.id(),
                msg_id: msg.msg_id,
                next: Some(route.next_hop()),
                hops: 1,
            });
        }
        ctx.send(
            Some(route.next_hop()),
            Tier::Sensor,
            PacketKind::Data,
            data.encode(),
        );
    }

    fn queue_flood(&mut self, ctx: &mut Ctx<'_>, bytes: impl Into<Rc<[u8]>>) {
        let bytes = bytes.into();
        if self.cfg.flood_jitter_us == 0 {
            ctx.send(None, Tier::Sensor, PacketKind::Control, bytes);
        } else {
            let jitter = ctx.rng().next_below(self.cfg.flood_jitter_us);
            self.flood_queue.push_back(bytes);
            ctx.set_timer(jitter, TIMER_FLOOD);
        }
    }

    /// RREQ handling. `msg` is the caller's validated view of `frame`;
    /// everything here runs on borrowed views plus in-place frame
    /// builders, so a forwarded flood hop allocates only the frozen
    /// `Rc<[u8]>`.
    fn handle_rreq(&mut self, ctx: &mut Ctx<'_>, frame: &[u8], msg: RoutingMsgView<'_>) {
        let RoutingMsgView::Rreq {
            origin,
            req_id,
            path,
            ..
        } = msg
        else {
            return;
        };
        let me = ctx.id();
        if origin == me || !self.seen_rreq.insert(origin.0, req_id) {
            return;
        }
        if path.contains(me.0) {
            return; // already walked through us
        }
        let Some(prev) = path.last() else { return };
        let prev = NodeId(prev);
        // Step 3.1: answer from the cache when we can. A cached path that
        // loops back through the query path cannot be offered (the
        // combined walk would repeat a node).
        if let Some(route) = self.table.best() {
            if wire::path_with_suffix_is_unique(path, me, &route.relays) {
                let own_pm = (ctx.battery_fraction() * 1000.0) as u16;
                let gateway = route.gateway;
                let place = route.place;
                let energy_pm = route.energy_pm.min(own_pm);
                let mut buf = ctx.take_scratch();
                wire::encode_rrep_into(
                    &mut buf,
                    origin,
                    req_id,
                    gateway,
                    place,
                    energy_pm,
                    path,
                    Some(me),
                    &route.relays,
                );
                self.stats.cache_replies += 1;
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::CacheReply {
                        t: ctx.now(),
                        node: me,
                        origin,
                        req_id,
                        gateway,
                        place,
                    });
                }
                ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, &buf[..]);
                ctx.put_scratch(buf);
                return;
            }
        }
        // Otherwise append ourselves in place and keep flooding.
        let mut buf = ctx.take_scratch();
        if wire::rreq_append_forward(frame, path, me, &mut buf).is_err() {
            ctx.put_scratch(buf);
            return;
        }
        self.stats.rreq_forwarded += 1;
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::RreqFlood {
                t: ctx.now(),
                node: me,
                origin,
                req_id,
                forwarded: true,
            });
        }
        self.queue_flood(ctx, &buf[..]);
        ctx.put_scratch(buf);
    }

    fn handle_rrep(&mut self, ctx: &mut Ctx<'_>, frame: &[u8], msg: RoutingMsgView<'_>) {
        let RoutingMsgView::Rrep {
            origin,
            req_id,
            gateway,
            place,
            energy_pm,
            path,
        } = msg
        else {
            return;
        };
        let me = ctx.id();
        let Some(idx) = path.position(me.0) else {
            return;
        };
        // Install the suffix route (Property 1: suffixes of shortest paths
        // are shortest).
        let route = Route {
            gateway,
            place,
            relays: path.iter().skip(idx + 1).map(NodeId).collect(),
            energy_pm,
        };
        let route_hops = route.hops();
        self.table.upsert(route, false);
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::RouteInstall {
                t: ctx.now(),
                node: me,
                gateway,
                place,
                hops: route_hops,
                energy_pm,
            });
        }
        if idx == 0 {
            // We are the origin; the collection timer decides.
        } else {
            let remaining = path.len() - idx;
            let key = (origin, req_id, gateway);
            if self
                .seen_rrep
                .get(&key)
                .is_some_and(|&best| best <= remaining)
            {
                return;
            }
            self.seen_rrep.insert(key, remaining);
            let Some(prev) = path.get(idx - 1).map(NodeId) else {
                return;
            };
            // Fold our own residual level into the bottleneck; the path
            // itself is relayed untouched, so patch the frame in place.
            let own_pm = (ctx.battery_fraction() * 1000.0) as u16;
            let mut buf = ctx.take_scratch();
            if wire::rrep_energy_patch(frame, energy_pm.min(own_pm), &mut buf).is_err() {
                ctx.put_scratch(buf);
                return;
            }
            self.stats.rrep_relayed += 1;
            ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, &buf[..]);
            ctx.put_scratch(buf);
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, frame: &[u8], msg: RoutingMsgView<'_>) {
        let RoutingMsgView::Data {
            origin,
            msg_id,
            gateway,
            place,
            hops,
            ..
        } = msg
        else {
            return;
        };
        // Forward toward the gateway using our cached entry.
        let route = if place != NO_PLACE {
            self.table.by_place(place)
        } else {
            self.table.by_gateway(gateway)
        };
        let Some(route) = route else {
            self.stats.data_dropped += 1;
            return;
        };
        let next = if route.relays.is_empty() {
            gateway // final hop: the current occupant from the header
        } else {
            route.next_hop()
        };
        let mut buf = ctx.take_scratch();
        if wire::data_hops_patch(frame, hops + 1, &mut buf).is_err() {
            ctx.put_scratch(buf);
            return;
        }
        self.stats.data_forwarded += 1;
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::Forward {
                t: ctx.now(),
                node: ctx.id(),
                origin,
                msg_id,
                next: Some(next),
                hops: hops + 1,
            });
        }
        ctx.send(Some(next), Tier::Sensor, PacketKind::Data, &buf[..]);
        ctx.put_scratch(buf);
    }

    fn on_collect_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some((_, retries)) = self.discovering else {
            return;
        };
        if self.route_known() {
            self.discovering = None;
            let pending = std::mem::take(&mut self.pending);
            for msg in pending {
                self.send_data(ctx, msg);
            }
        } else if retries < self.cfg.max_retries {
            self.start_discovery(ctx, retries + 1);
        } else {
            self.discovering = None;
            self.stats.data_dropped += self.pending.len() as u64;
            self.pending.clear();
        }
    }

    /// Number of buffered, unsent messages (for tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Record an announce for duplicate suppression; returns true if new.
    /// (Used by the MLR subclass-by-composition; SPR ignores announces.)
    fn announce_is_new(&mut self, gateway: NodeId, round: u32) -> bool {
        self.seen_announce.insert(gateway.0, u64::from(round))
    }
}

impl Behavior for SprSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        // One decode validates the whole frame; the handlers run on
        // the borrowed view, so no path materialises.
        let Ok(msg) = RoutingMsgView::decode(&pkt.payload) else {
            return;
        };
        match msg {
            RoutingMsgView::Rreq { .. } => self.handle_rreq(ctx, &pkt.payload, msg),
            RoutingMsgView::Rrep { .. } => self.handle_rrep(ctx, &pkt.payload, msg),
            RoutingMsgView::Data { .. } => self.handle_data(ctx, &pkt.payload, msg),
            RoutingMsgView::Announce { gateway, round, .. } => {
                // SPR has no notion of places; just keep the flood moving
                // so mixed deployments interoperate. The forwarded frame
                // is byte-identical, so re-flood the shared buffer.
                if self.announce_is_new(gateway, round) {
                    self.queue_flood(ctx, pkt.payload.clone());
                }
            }
            RoutingMsgView::Load { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TIMER_COLLECT => self.on_collect_timer(ctx),
            TIMER_FLOOD => {
                if let Some(bytes) = self.flood_queue.pop_front() {
                    ctx.send(None, Tier::Sensor, PacketKind::Control, bytes);
                }
            }
            TIMER_ORIGINATE => self.originate(ctx),
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The gateway (WMG) side of SPR: answers RREQs, absorbs DATA, records
/// deliveries. Optionally hands delivered data to the mesh backbone (set
/// a relay callback target via [`SprGateway::set_uplink`]).
pub struct SprGateway {
    /// Feasible place this gateway currently occupies (NO_PLACE for SPR).
    pub place: u16,
    seen_rreq: SeenTable,
    /// Packets absorbed (per-gateway load, for E10).
    pub absorbed: u64,
    /// If set, delivered data is forwarded on the mesh tier to this node
    /// (a base station), exercising the full three-layer path.
    uplink: Option<NodeId>,
}

impl SprGateway {
    /// New gateway.
    pub fn new() -> Self {
        SprGateway {
            place: NO_PLACE,
            seen_rreq: SeenTable::new(),
            absorbed: 0,
            uplink: None,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }

    /// Route delivered data up the mesh toward `base` (link-layer next
    /// hop is resolved by the mesh behaviour co-located on this node in
    /// the full architecture; here we unicast directly when in range).
    pub fn set_uplink(&mut self, base: NodeId) {
        self.uplink = Some(base);
    }

    /// Reset flood-dedup state (round boundary).
    pub fn reset_round(&mut self) {
        self.seen_rreq.clear();
    }
}

impl Default for SprGateway {
    fn default() -> Self {
        Self::new()
    }
}

impl Behavior for SprGateway {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = RoutingMsgView::decode(&pkt.payload) else {
            return;
        };
        match msg {
            RoutingMsgView::Rreq {
                origin,
                req_id,
                path,
                ..
            } => {
                // Step 3.2: first copy wins (the flood explores in BFS
                // order, so the first arrival walked a fewest-hop path).
                if !self.seen_rreq.insert(origin.0, req_id) {
                    return;
                }
                let Some(prev) = path.last() else { return };
                // Answer with the walked path verbatim — the reply path
                // is assembled straight from the RREQ's path bytes, no
                // intermediate clone.
                let mut buf = ctx.take_scratch();
                wire::encode_rrep_into(
                    &mut buf,
                    origin,
                    req_id,
                    ctx.id(),
                    self.place,
                    1000, // gateways are unconstrained (§5.3)
                    path,
                    None,
                    &[],
                );
                ctx.send(
                    Some(NodeId(prev)),
                    Tier::Sensor,
                    PacketKind::Control,
                    &buf[..],
                );
                ctx.put_scratch(buf);
            }
            RoutingMsgView::Data {
                origin,
                msg_id,
                sent_at,
                gateway,
                hops,
                payload_len,
                ..
            } => {
                if gateway != ctx.id() {
                    return;
                }
                self.absorbed += 1;
                ctx.record_delivery(origin, msg_id, sent_at, hops);
                if let Some(base) = self.uplink {
                    let fwd = RoutingMsg::Data {
                        origin,
                        msg_id,
                        sent_at,
                        gateway: base,
                        place: NO_PLACE,
                        hops: hops + 1,
                        payload_len,
                    };
                    ctx.send(Some(base), Tier::Mesh, PacketKind::Data, fwd.encode());
                }
            }
            _ => {}
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

    /// Chain: S0 at x=0 … S4 at x=40, gateway at x=50, range 10.
    fn chain_world() -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(short_range(42));
        let mut sensors = Vec::new();
        for i in 0..5 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 10.0, 0.0), 10.0),
                SprSensor::boxed(SprConfig::default()),
            ));
        }
        let gw = w.add_node(
            NodeConfig::gateway(Point::new(50.0, 0.0)),
            SprGateway::boxed(),
        );
        (w, sensors, gw)
    }

    #[test]
    fn discovery_then_delivery_over_a_chain() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        let m = w.metrics();
        assert_eq!(m.originated, 1);
        assert_eq!(m.deliveries.len(), 1, "message must arrive");
        assert_eq!(
            m.deliveries[0].hops, 5,
            "S0 is 5 radio hops from the gateway"
        );
        assert_eq!(m.deliveries[0].source, sensors[0]);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn route_is_cached_after_discovery() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        let control_after_discovery = w.metrics().sent_control;
        // Second message: no further control traffic.
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(4_000_000);
        assert_eq!(w.metrics().sent_control, control_after_discovery);
        assert_eq!(w.metrics().deliveries.len(), 2);
    }

    #[test]
    fn intermediate_nodes_learn_routes_from_the_relay() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        // Every sensor on the path now has a cached route with the right
        // hop count (Property 1: suffix shortest paths).
        for (i, &s) in sensors.iter().enumerate() {
            let hops = w
                .behavior_as::<SprSensor>(s)
                .unwrap()
                .table
                .best()
                .map(|r| r.hops());
            assert_eq!(hops, Some(5 - i as u32), "sensor {i}");
        }
    }

    #[test]
    fn cached_nodes_answer_queries_without_reflooding() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        // S1's next discovery should be answered by a neighbour's cache
        // (S0 or S2), not by a fresh flood reaching the gateway.
        // Force S1 to forget its own route first.
        w.with_behavior::<SprSensor, _>(sensors[1], |s, ctx| {
            s.table.clear();
            s.seen_rreq.clear();
            s.originate(ctx);
        });
        w.run_until(4_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 2);
        let repliers: u64 = sensors
            .iter()
            .map(|&s| w.behavior_as::<SprSensor>(s).unwrap().stats.cache_replies)
            .sum();
        assert!(repliers >= 1, "someone must have answered from cache");
    }

    #[test]
    fn source_picks_the_nearest_of_two_gateways() {
        // G_far — S0 S1 S2 — G_near(2 hops from S1? build: sensors at
        // 0,10,20; gateways at -10 (3 hops from S2) and 30 (1 hop from S2).
        let mut w = World::new(short_range(1));
        let mut sensors = Vec::new();
        for i in 0..3 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 10.0, 0.0), 10.0),
                SprSensor::boxed(SprConfig::default()),
            ));
        }
        let g_far = w.add_node(
            NodeConfig::gateway(Point::new(-10.0, 0.0)),
            SprGateway::boxed(),
        );
        let g_near = w.add_node(
            NodeConfig::gateway(Point::new(30.0, 0.0)),
            SprGateway::boxed(),
        );
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[2], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 1);
        assert_eq!(m.deliveries[0].destination, g_near);
        assert_eq!(m.deliveries[0].hops, 1);
        let _ = g_far;
    }

    #[test]
    fn reset_round_forces_rediscovery() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        let control1 = w.metrics().sent_control;
        for &s in &sensors {
            w.with_behavior::<SprSensor, _>(s, |b, _| b.reset_round());
        }
        w.with_behavior::<SprGateway, _>(_gw, |g, _| g.reset_round());
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(4_000_000);
        assert!(
            w.metrics().sent_control > control1,
            "reset must trigger a new flood"
        );
        assert_eq!(w.metrics().deliveries.len(), 2);
    }

    #[test]
    fn unreachable_source_gives_up_after_retries() {
        let mut w = World::new(short_range(1));
        let lonely = w.add_node(
            NodeConfig::sensor(Point::new(0.0, 0.0), 10.0),
            SprSensor::boxed(SprConfig::default()),
        );
        let _gw = w.add_node(
            NodeConfig::gateway(Point::new(500.0, 0.0)),
            SprGateway::boxed(),
        );
        w.start();
        w.with_behavior::<SprSensor, _>(lonely, |s, ctx| s.originate(ctx));
        w.run_until(5_000_000);
        let s = w.behavior_as::<SprSensor>(lonely).unwrap();
        assert_eq!(s.pending_len(), 0, "buffer must be drained");
        assert!(s.stats.data_dropped >= 1);
        assert_eq!(w.metrics().deliveries.len(), 0);
        // 1 original + max_retries floods.
        assert_eq!(
            s.stats.rreq_originated as u32,
            1 + SprConfig::default().max_retries
        );
    }

    #[test]
    fn duplicate_rreqs_are_suppressed() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        // In a 5-chain each intermediate forwards the flood at most once.
        for &s in &sensors[1..] {
            let st = w.behavior_as::<SprSensor>(s).unwrap().stats;
            assert!(st.rreq_forwarded <= 1, "node re-flooded more than once");
        }
    }

    #[test]
    fn gateway_counts_absorbed_load() {
        let (mut w, sensors, gw) = chain_world();
        w.start();
        for _ in 0..3 {
            w.with_behavior::<SprSensor, _>(sensors[4], |s, ctx| s.originate(ctx));
            w.run_for(1_000_000);
        }
        assert_eq!(w.behavior_as::<SprGateway>(gw).unwrap().absorbed, 3);
    }

    #[test]
    fn delivery_latency_is_positive_and_bounded() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        w.with_behavior::<SprSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_until(2_000_000);
        let d = &w.metrics().deliveries[0];
        assert!(d.latency() > 0);
        assert!(d.latency() < 2_000_000);
    }
}
