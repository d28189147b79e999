//! The route-discovery core SPR (§5.2) and MLR (§5.3) share.
//!
//! MLR is SPR plus the feasible-place scheme, and both run the same
//! machinery: one RREQ flood per discovery, cache answers justified by
//! Property 1, RREP relay that installs the suffix route on every hop,
//! hop-by-hop DATA and a collect-then-retry state machine at the
//! source. [`Sensor`] holds that machinery once; a [`Policy`] answers
//! only what differs between the protocols (which route to use, what a
//! query asks for, how a cache answers it, what a round boundary
//! forgets, and what announcements mean). Policies are type parameters,
//! so every call is statically dispatched and the shared code never
//! branches on which protocol it serves.
//!
//! [`Gateway`] is the sink side of both: it answers each RREQ once with
//! the walked path, absorbs DATA addressed to it, and carries the SPR
//! mesh uplink and the MLR place announcement and load window.

use crate::spr::SprConfig;
use crate::table::{Route, RoutingTable};
use crate::wire::{self, RoutingMsg, RoutingMsgView, MAX_PATH, NO_PLACE};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::rc::Rc;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_trace::TraceEvent;
use wmsn_util::codec::{IdListView, U16ListView};
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

/// Timer tag: RREP collection window expired.
const TIMER_COLLECT: u64 = 1;
/// Timer tag: jittered re-flood.
const TIMER_FLOOD: u64 = 2;
/// Timer tag: deferred origination (see [`Sensor::schedule_originate`]).
const TIMER_ORIGINATE: u64 = 3;

/// How an RREQ travels on after this node's cache has answered.
#[derive(Debug)]
pub enum Onward {
    /// Fully answered: the flood stops here.
    Stop,
    /// Re-flood the frame as it came, with this node appended.
    Forward,
    /// Re-flood asking only for these places (a partial answer).
    Narrowed(Vec<u16>),
}

/// What a discovery protocol decides on top of the shared [`Sensor`].
pub trait Policy: 'static {
    /// Whether a fresh message can go out now, without discovery.
    fn can_send_now(&self, table: &RoutingTable) -> bool;

    /// The route to send DATA on and the gateway to address it to.
    fn select<'t>(&self, table: &'t RoutingTable) -> Option<(&'t Route, NodeId)>;

    /// Trace the choice [`Policy::select`] made, if the protocol does.
    fn trace_select(&self, ctx: &mut Ctx<'_>, route: &Route, gateway: NodeId);

    /// The places a new RREQ asks for; empty means any gateway's route.
    fn wanted(&self, table: &RoutingTable) -> Vec<u16>;

    /// Answer an RREQ that walked `path` from the cache: call `reply`
    /// with each cached route to offer and the gateway to name in it.
    fn answer<'t>(
        &self,
        table: &'t RoutingTable,
        path: IdListView<'_>,
        me: NodeId,
        wanted: U16ListView<'_>,
        reply: impl FnMut(&'t Route, NodeId),
    ) -> Onward;

    /// The RREP relay-damping key of a reply from `gateway` at `place`.
    fn damping_key(gateway: NodeId, place: u16) -> u32;

    /// The cached route a DATA frame for `gateway` at `place` rides.
    fn data_route(table: &RoutingTable, gateway: NodeId, place: u16) -> Option<&Route>;

    /// Whether a round boundary also forgets the routes, the flood
    /// dedup and any outstanding discovery (SPR's per-round tables), not
    /// just the RREP relay damping.
    const ROUND_RESETS_ROUTES: bool;

    /// Take note of a new (per gateway and round) place announcement.
    fn on_announce(&mut self, gateway: NodeId, place: u16, round: u32);

    /// Take note of a load advertisement; returns whether to re-flood it.
    fn on_load(&mut self, gateway: NodeId, load: u32, seq: u32) -> bool;
}

/// Counters exposed for tests and experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
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
    /// Messages sent on a cached route without discovery.
    pub table_reuses: u64,
}

/// A buffered application message awaiting a route.
#[derive(Clone, Copy, Debug)]
struct PendingMsg {
    msg_id: u64,
    sent_at: u64,
}

/// The sensor side of a discovery protocol, specialised by `P`.
pub struct Sensor<P> {
    cfg: SprConfig,
    pub(crate) policy: P,
    /// Cached routes.
    pub table: RoutingTable,
    /// Flood duplicate suppression, keyed on the decoded view's
    /// `(origin, req_id)` before any path materialisation.
    seen_rreq: SeenTable,
    /// Best (fewest-hops-to-go) RREP relayed per (origin, req, damping
    /// key): later, no-better copies are installed locally but not
    /// re-relayed, damping the reply storm when many caches answer one
    /// flood.
    seen_rrep: HashMap<(NodeId, u64, u32), usize>,
    seen_announce: SeenTable,
    next_req_id: u64,
    next_msg_id: u64,
    pending: Vec<PendingMsg>,
    /// Outstanding discovery, with retries used.
    discovering: Option<(u64, u32)>,
    flood_queue: VecDeque<Rc<[u8]>>,
    /// Counters.
    pub stats: Stats,
}

impl<P: Policy> Sensor<P> {
    pub(crate) fn with_policy(cfg: SprConfig, policy: P) -> Self {
        Sensor {
            cfg,
            policy,
            table: RoutingTable::new(),
            seen_rreq: SeenTable::new(),
            seen_rrep: HashMap::new(),
            seen_announce: SeenTable::new(),
            next_req_id: 0,
            next_msg_id: 0,
            pending: Vec::new(),
            discovering: None,
            flood_queue: VecDeque::new(),
            stats: Stats::default(),
        }
    }

    /// Round boundary: forget the RREP relay damping, which only ever
    /// matches replies to this round's discoveries, and whatever else
    /// the policy scopes to one round ([`Policy::ROUND_RESETS_ROUTES`]).
    pub fn reset_round(&mut self) {
        self.seen_rrep.clear();
        if P::ROUND_RESETS_ROUTES {
            self.table.clear();
            self.seen_rreq.clear();
            self.discovering = None;
        }
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

    /// Number of buffered, unsent messages (for tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Originate one application message. Sends immediately if the
    /// policy can, otherwise buffers and (if not already) starts
    /// discovery.
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.record_origination();
        let msg = PendingMsg {
            msg_id,
            sent_at: ctx.now(),
        };
        if self.policy.can_send_now(&self.table) {
            self.stats.table_reuses += 1;
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

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, retries_used: u32) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.discovering = Some((req_id, retries_used));
        self.seen_rreq.insert(ctx.id().0, req_id);
        let rreq = RoutingMsg::Rreq {
            origin: ctx.id(),
            req_id,
            path: vec![ctx.id()],
            wanted: self.policy.wanted(&self.table),
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
        let Some((route, gateway)) = self.policy.select(&self.table) else {
            self.stats.data_dropped += 1;
            return;
        };
        // The final hop goes to the gateway the policy names, which may
        // differ from the one the entry was learned from (MLR places).
        let next = if route.relays.is_empty() {
            gateway
        } else {
            route.next_hop()
        };
        let data = RoutingMsg::Data {
            origin: ctx.id(),
            msg_id: msg.msg_id,
            sent_at: msg.sent_at,
            gateway,
            place: route.place,
            hops: 1,
            payload_len: self.cfg.data_payload,
        };
        if ctx.trace_enabled() {
            self.policy.trace_select(ctx, route, gateway);
            ctx.trace(TraceEvent::Forward {
                t: ctx.now(),
                node: ctx.id(),
                origin: ctx.id(),
                msg_id: msg.msg_id,
                next: Some(next),
                hops: 1,
            });
        }
        ctx.send(Some(next), Tier::Sensor, PacketKind::Data, data.encode());
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
            wanted,
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
        // Step 3.1: answer from the cache where the policy can. Each
        // reply path is assembled straight from the RREQ's path bytes
        // plus our cached relays.
        let stats = &mut self.stats;
        let onward = self
            .policy
            .answer(&self.table, path, me, wanted, |route, gateway| {
                let own_pm = (ctx.battery_fraction() * 1000.0) as u16;
                let mut buf = ctx.take_scratch();
                wire::encode_rrep_into(
                    &mut buf,
                    origin,
                    req_id,
                    gateway,
                    route.place,
                    route.energy_pm.min(own_pm),
                    path,
                    Some(me),
                    &route.relays,
                );
                stats.cache_replies += 1;
                if ctx.trace_enabled() {
                    ctx.trace(TraceEvent::CacheReply {
                        t: ctx.now(),
                        node: me,
                        origin,
                        req_id,
                        gateway,
                        place: route.place,
                    });
                }
                ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, &buf[..]);
                ctx.put_scratch(buf);
            });
        // Otherwise append ourselves and keep flooding — unless the path
        // is already full, where any forward would be rejected.
        let mut buf = ctx.take_scratch();
        let forward = match onward {
            Onward::Stop => false,
            Onward::Forward => wire::rreq_append_forward(frame, path, me, &mut buf).is_ok(),
            Onward::Narrowed(wanted) if path.len() < MAX_PATH => {
                let mut path: Vec<NodeId> = path.iter().map(NodeId).collect();
                path.push(me);
                buf.clear();
                RoutingMsg::Rreq {
                    origin,
                    req_id,
                    path,
                    wanted,
                }
                .encode_into(&mut buf);
                true
            }
            Onward::Narrowed(_) => false,
        };
        if forward {
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
        }
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
            return; // we are the origin; the collection timer decides
        }
        let remaining = path.len() - idx;
        let key = (origin, req_id, P::damping_key(gateway, place));
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
        if wire::rrep_energy_patch(frame, energy_pm.min(own_pm), &mut buf).is_ok() {
            self.stats.rrep_relayed += 1;
            ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, &buf[..]);
        }
        ctx.put_scratch(buf);
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
        let Some(route) = P::data_route(&self.table, gateway, place) else {
            self.stats.data_dropped += 1;
            return;
        };
        let next = if route.relays.is_empty() {
            gateway // final hop: the current occupant from the header
        } else {
            route.next_hop()
        };
        let mut buf = ctx.take_scratch();
        if wire::data_hops_patch(frame, hops + 1, &mut buf).is_ok() {
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
        }
        ctx.put_scratch(buf);
    }

    fn on_collect_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some((_, retries)) = self.discovering else {
            return;
        };
        if self.policy.select(&self.table).is_some() {
            self.discovering = None;
            for msg in std::mem::take(&mut self.pending) {
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
}

impl<P: Policy> Behavior for Sensor<P> {
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
            // The forwarded announce and load frames are byte-identical,
            // so re-flood the shared buffer instead of re-encoding.
            RoutingMsgView::Announce {
                gateway,
                place,
                round,
            } => {
                if self.seen_announce.insert(gateway.0, u64::from(round)) {
                    self.policy.on_announce(gateway, place, round);
                    self.queue_flood(ctx, pkt.payload.clone());
                }
            }
            RoutingMsgView::Load { gateway, load, seq } => {
                if self.policy.on_load(gateway, load, seq) {
                    self.queue_flood(ctx, pkt.payload.clone());
                }
            }
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

/// The gateway (WMG) side of a discovery protocol: answers RREQs,
/// absorbs DATA, records deliveries. `P` only tells the SPR and MLR
/// gateways apart as types.
pub struct Gateway<P> {
    /// Feasible place this gateway currently occupies ([`NO_PLACE`]
    /// under SPR).
    pub place: u16,
    seen_rreq: SeenTable,
    /// Data packets absorbed in total (per-gateway load, for E10).
    pub absorbed: u64,
    /// Data packets absorbed since the last load advertisement.
    pub(crate) window_load: u32,
    next_load_seq: u32,
    /// If set, delivered data is forwarded on the mesh tier to this node
    /// (a base station), exercising the full three-layer path.
    uplink: Option<NodeId>,
    policy: PhantomData<P>,
}

impl<P: Policy> Gateway<P> {
    pub(crate) fn at(place: u16) -> Self {
        Gateway {
            place,
            seen_rreq: SeenTable::new(),
            absorbed: 0,
            window_load: 0,
            next_load_seq: 0,
            uplink: None,
            policy: PhantomData,
        }
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

    /// Round start: take the (possibly new) place and flood the
    /// announcement. Call for moved gateways — and for everyone in round
    /// 0, which the paper treats as the initial notification.
    pub fn set_place(&mut self, ctx: &mut Ctx<'_>, place: u16, round: u32) {
        self.place = place;
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::GatewayMove {
                t: ctx.now(),
                gateway: ctx.id(),
                place,
            });
        }
        let msg = RoutingMsg::Announce {
            gateway: ctx.id(),
            place,
            round,
        };
        ctx.send(None, Tier::Sensor, PacketKind::Control, msg.encode());
    }

    /// Advertise the current load window (§4.3) and reset it.
    pub fn announce_load(&mut self, ctx: &mut Ctx<'_>) {
        let seq = self.next_load_seq;
        self.next_load_seq += 1;
        let msg = RoutingMsg::Load {
            gateway: ctx.id(),
            load: self.window_load,
            seq,
        };
        self.window_load = 0;
        ctx.send(None, Tier::Sensor, PacketKind::Control, msg.encode());
    }
}

impl<P: Policy> Behavior for Gateway<P> {
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
                // Answer with the walked path verbatim, assembled from
                // the RREQ's path bytes — no intermediate clone.
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
                let prev = Some(NodeId(prev));
                ctx.send(prev, Tier::Sensor, PacketKind::Control, &buf[..]);
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
                self.window_load += 1;
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
