//! MLR — Maximal network Lifetime Routing (§5.3).
//!
//! MLR refines SPR with the feasible-place scheme:
//!
//! * Gateways occupy `m` of `|P|` fixed feasible places per round and move
//!   between rounds; **moved** gateways flood an authenticated-in-SecMLR
//!   `Announce` at round start ("moved gateways notify all sensor nodes …
//!   unmoved gateways do not need to issue such a notification").
//! * Sensor routing tables are keyed by *place* and **accumulate** across
//!   rounds (Table 1): an entry, once learned, is reused whenever any
//!   gateway re-occupies that place; only never-seen places trigger
//!   discovery. After all `|P|` places have been visited, no discovery
//!   ever happens again — the steady state the paper's overhead argument
//!   (experiment E5) relies on.
//! * Each round the source selects the fewest-hop entry among the `m`
//!   currently occupied places.
//!
//! Two flagged extensions implement §4.3:
//!
//! * **Load balance** ([`MlrConfig::load_alpha`] > 0): gateways advertise
//!   their absorbed-traffic counters; sources score candidate places by
//!   `hops + α · load_share` and divert traffic away from hot gateways.
//! * **Failover**: if a DATA forward fails for lack of a route the packet
//!   is dropped and counted, but sources holding multiple entries can be
//!   switched by purging routes through a dead node
//!   ([`crate::table::RoutingTable::purge_via`]).

use crate::table::{Route, RoutingTable};
use crate::wire::{self, RoutingMsg, RoutingMsgView};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_trace::TraceEvent;
use wmsn_util::codec::IdListView;
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

const TIMER_COLLECT: u64 = 1;
const TIMER_FLOOD: u64 = 2;

/// MLR tunables.
#[derive(Clone, Copy, Debug)]
pub struct MlrConfig {
    /// RREP collection window (µs).
    pub reply_wait_us: u64,
    /// DATA payload bytes.
    pub data_payload: u16,
    /// Flood jitter bound (µs); 0 disables.
    pub flood_jitter_us: u64,
    /// Discovery retries.
    pub max_retries: u32,
    /// Load-balance weight α (0 = pure shortest path). Cost is
    /// `hops + α · gateway_load / mean_load`.
    pub load_alpha: f64,
    /// Energy-aware selection slack (extra hops tolerated to route via a
    /// fresher bottleneck relay); 0 = pure minimum-hop. Implements the
    /// §5.3 balance objective in-protocol (see `RoutingTable::best_energy_aware`).
    pub energy_slack: u32,
}

impl Default for MlrConfig {
    fn default() -> Self {
        MlrConfig {
            reply_wait_us: 60_000,
            data_payload: 24,
            flood_jitter_us: 2_000,
            max_retries: 2,
            load_alpha: 0.0,
            energy_slack: 0,
        }
    }
}

/// Counters for tests/experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct MlrStats {
    /// Discovery floods originated.
    pub rreq_originated: u64,
    /// RREQs re-broadcast.
    pub rreq_forwarded: u64,
    /// Cache replies sent.
    pub cache_replies: u64,
    /// RREPs relayed.
    pub rrep_relayed: u64,
    /// DATA frames forwarded.
    pub data_forwarded: u64,
    /// DATA frames dropped (no route).
    pub data_dropped: u64,
    /// Times a cached place entry was reused without discovery.
    pub table_reuses: u64,
}

#[derive(Clone, Copy, Debug)]
struct PendingMsg {
    msg_id: u64,
    sent_at: u64,
}

/// The sensor side of MLR.
pub struct MlrSensor {
    cfg: MlrConfig,
    /// Persistent, place-keyed routing table (grows toward |P| entries).
    pub table: RoutingTable,
    /// Current round's occupant map: gateway → (place, announce round).
    /// The round stamp disambiguates stale claims: when two gateways have
    /// announced the same place, the most recent announcement wins.
    occupied: HashMap<NodeId, (u16, u32)>,
    /// Gateway load advertisements (for the §4.3 extension).
    loads: HashMap<NodeId, u32>,
    /// Flood duplicate suppression, keyed on the peeked `(origin, req_id)`
    /// header so duplicates drop before any path materialisation.
    seen_rreq: SeenTable,
    /// Best (fewest-hops-to-go) RREP relayed per (origin, req, place):
    /// later, no-better copies are installed locally but not re-relayed,
    /// damping the reply storm when many caches answer one flood.
    /// Cleared by [`MlrSensor::reset_round`].
    seen_rrep: HashMap<(NodeId, u64, u16), usize>,
    seen_announce: SeenTable,
    seen_load: SeenTable,
    next_req_id: u64,
    next_msg_id: u64,
    pending: Vec<PendingMsg>,
    discovering: Option<(u64, u32)>,
    flood_queue: VecDeque<Rc<[u8]>>,
    /// Counters.
    pub stats: MlrStats,
}

impl MlrSensor {
    /// New sensor.
    pub fn new(cfg: MlrConfig) -> Self {
        MlrSensor {
            cfg,
            table: RoutingTable::new(),
            occupied: HashMap::new(),
            loads: HashMap::new(),
            seen_rreq: SeenTable::new(),
            seen_rrep: HashMap::new(),
            seen_announce: SeenTable::new(),
            seen_load: SeenTable::new(),
            next_req_id: 0,
            next_msg_id: 0,
            pending: Vec::new(),
            discovering: None,
            flood_queue: VecDeque::new(),
            stats: MlrStats::default(),
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: MlrConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Round boundary (§5.3): forget the RREP relay-damping state, which
    /// only ever matches replies to this round's discoveries. The
    /// place-keyed table and the flood dedup persist across rounds.
    pub fn reset_round(&mut self) {
        self.seen_rrep.clear();
    }

    /// Entries the RREP relay-damping map can hold without reallocating.
    pub fn seen_rrep_capacity(&self) -> usize {
        self.seen_rrep.capacity()
    }

    /// Places currently occupied (sorted, deduped).
    pub fn occupied_places(&self) -> Vec<u16> {
        let mut v: Vec<u16> = self.occupied.values().map(|&(p, _)| p).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Current occupant of `place`, if known: the gateway with the most
    /// recent announcement (ties break toward the higher id, so the
    /// choice is deterministic).
    pub fn occupant_of(&self, place: u16) -> Option<NodeId> {
        self.occupied
            .iter()
            .filter(|(_, &(p, _))| p == place)
            .max_by_key(|(&g, &(_, round))| (round, g))
            .map(|(&g, _)| g)
    }

    /// Pre-load the initial deployment (sensors are told the round-0
    /// placement at deployment time, like keys in SecMLR). Subsequent
    /// rounds arrive via `Announce` floods.
    pub fn set_initial_occupancy(&mut self, occupants: &[(NodeId, u16)]) {
        self.occupied = occupants.iter().map(|&(g, p)| (g, (p, 0))).collect();
    }

    /// Forget a gateway entirely (a watchdog detected it dead): its
    /// occupancy claim is dropped, so selection falls back to the
    /// surviving gateways — the §4.2 fault-tolerance redirect.
    pub fn remove_gateway(&mut self, gateway: NodeId) {
        self.occupied.remove(&gateway);
    }

    /// Whether every occupied place has a table entry.
    fn all_places_known(&self) -> bool {
        self.occupied_places()
            .iter()
            .all(|&p| self.table.by_place(p).is_some())
    }

    /// Score-and-select: the best route among occupied places, by hops
    /// plus (optionally) the load penalty.
    fn select_route(&self) -> Option<Route> {
        let occupied = self.occupied_places();
        if self.cfg.load_alpha <= 0.0 {
            if self.cfg.energy_slack > 0 {
                return self
                    .table
                    .best_energy_aware(&occupied, self.cfg.energy_slack)
                    .cloned();
            }
            return self.table.best_among_places(&occupied).cloned();
        }
        let total: u64 = self.loads.values().map(|&l| l as u64).sum();
        let mean = (total as f64 / self.loads.len().max(1) as f64).max(1.0);
        self.table
            .iter()
            .filter(|r| occupied.contains(&r.place))
            .min_by(|a, b| {
                let cost = |r: &Route| {
                    let gw = self.occupant_of(r.place);
                    let load = gw.and_then(|g| self.loads.get(&g)).copied().unwrap_or(0) as f64;
                    r.hops() as f64 + self.cfg.load_alpha * load / mean
                };
                cost(a)
                    .partial_cmp(&cost(b))
                    .unwrap()
                    .then(a.place.cmp(&b.place))
            })
            .cloned()
    }

    /// Originate one application message.
    pub fn originate(&mut self, ctx: &mut Ctx<'_>) {
        let msg_id = self.next_msg_id;
        self.next_msg_id += 1;
        ctx.record_origination();
        let msg = PendingMsg {
            msg_id,
            sent_at: ctx.now(),
        };
        if self.all_places_known() && !self.occupied.is_empty() {
            self.stats.table_reuses += 1;
            self.send_data(ctx, msg);
        } else {
            self.pending.push(msg);
            if self.discovering.is_none() {
                self.start_discovery(ctx, 0);
            }
        }
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, retries_used: u32) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.discovering = Some((req_id, retries_used));
        self.seen_rreq.insert(ctx.id().0, req_id);
        // Ask specifically for the occupied places we have no entry for;
        // cached replies for other places must not satisfy (or suppress)
        // this query.
        let wanted: Vec<u16> = self
            .occupied_places()
            .into_iter()
            .filter(|&p| self.table.by_place(p).is_none())
            .collect();
        let rreq = RoutingMsg::Rreq {
            origin: ctx.id(),
            req_id,
            path: vec![ctx.id()],
            wanted,
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
        let Some(route) = self.select_route() else {
            self.stats.data_dropped += 1;
            return;
        };
        // The wire gateway is the *current occupant* of the chosen place —
        // the cached entry may have been learned from a previous occupant.
        let gateway = self.occupant_of(route.place).unwrap_or(route.gateway);
        let data = RoutingMsg::Data {
            origin: ctx.id(),
            msg_id: msg.msg_id,
            sent_at: msg.sent_at,
            gateway,
            place: route.place,
            hops: 1,
            payload_len: self.cfg.data_payload,
        };
        let next = if route.relays.is_empty() {
            gateway
        } else {
            route.next_hop()
        };
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::RouteSelect {
                t: ctx.now(),
                node: ctx.id(),
                gateway,
                place: route.place,
                hops: route.hops(),
                energy_pm: route.energy_pm,
            });
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

    fn queue_flood(&mut self, ctx: &mut Ctx<'_>, bytes: impl Into<Rc<[u8]>>, kind: PacketKind) {
        let bytes = bytes.into();
        if self.cfg.flood_jitter_us == 0 {
            ctx.send(None, Tier::Sensor, kind, bytes);
        } else {
            let jitter = ctx.rng().next_below(self.cfg.flood_jitter_us);
            self.flood_queue.push_back(bytes);
            // Kind is re-derived on pop; stash Control for simplicity —
            // floods are always control traffic.
            let _ = kind;
            ctx.set_timer(jitter, TIMER_FLOOD);
        }
    }

    /// Send one cached-answer RREP assembled straight from the RREQ's
    /// borrowed path bytes plus our cached relays — no intermediate
    /// `Vec<NodeId>` clone.
    #[allow(clippy::too_many_arguments)]
    fn send_cache_reply(
        ctx: &mut Ctx<'_>,
        stats: &mut MlrStats,
        origin: NodeId,
        req_id: u64,
        gateway: NodeId,
        place: u16,
        energy_pm: u16,
        path: IdListView<'_>,
        relays: &[NodeId],
        prev: NodeId,
    ) {
        let mut buf = ctx.take_scratch();
        wire::encode_rrep_into(
            &mut buf,
            origin,
            req_id,
            gateway,
            place,
            energy_pm,
            path,
            Some(ctx.id()),
            relays,
        );
        stats.cache_replies += 1;
        if ctx.trace_enabled() {
            ctx.trace(TraceEvent::CacheReply {
                t: ctx.now(),
                node: ctx.id(),
                origin,
                req_id,
                gateway,
                place,
            });
        }
        ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, &buf[..]);
        ctx.put_scratch(buf);
    }

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
            return;
        }
        let Some(prev) = path.last() else { return };
        let prev = NodeId(prev);
        let occupied = self.occupied_places();
        if wanted.is_empty() {
            // SPR-style query: any occupied route satisfies it entirely.
            // A cached path that loops back through the query path cannot
            // be offered (the combined walk would repeat a node).
            if let Some(route) = self.table.best_among_places(&occupied) {
                if wire::path_with_suffix_is_unique(path, me, &route.relays) {
                    let gateway = self.occupant_of(route.place).unwrap_or(route.gateway);
                    let own_pm = (ctx.battery_fraction() * 1000.0) as u16;
                    Self::send_cache_reply(
                        ctx,
                        &mut self.stats,
                        origin,
                        req_id,
                        gateway,
                        route.place,
                        route.energy_pm.min(own_pm),
                        path,
                        &route.relays,
                        prev,
                    );
                    return;
                }
            }
        } else {
            // Targeted query: answer every wanted place we have cached,
            // and keep the flood alive for the rest — a partial cache
            // answer must not suppress discovery of the other places.
            let mut remaining: Vec<u16> = Vec::new();
            for p in wanted.iter() {
                if !occupied.contains(&p) {
                    continue; // stale want: place no longer occupied
                }
                let answered = self
                    .table
                    .by_place(p)
                    .filter(|route| wire::path_with_suffix_is_unique(path, me, &route.relays));
                match answered {
                    Some(route) => {
                        let gateway = self.occupant_of(p).unwrap_or(route.gateway);
                        let own_pm = (ctx.battery_fraction() * 1000.0) as u16;
                        Self::send_cache_reply(
                            ctx,
                            &mut self.stats,
                            origin,
                            req_id,
                            gateway,
                            p,
                            route.energy_pm.min(own_pm),
                            path,
                            &route.relays,
                            prev,
                        );
                    }
                    None => remaining.push(p),
                }
            }
            if remaining.is_empty() {
                return; // fully answered: the flood stops here
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
            if remaining.len() == wanted.len() {
                // Nothing answered or stripped: the wanted list is
                // unchanged, so forward in place (memcpy + append).
                let mut buf = ctx.take_scratch();
                if wire::rreq_append_forward(frame, path, me, &mut buf).is_ok() {
                    self.queue_flood(ctx, &buf[..], PacketKind::Control);
                }
                ctx.put_scratch(buf);
            } else {
                // The wanted list shrank: re-encode (cold path).
                let mut new_path: Vec<NodeId> = path.iter().map(NodeId).collect();
                new_path.push(me);
                let rreq = RoutingMsg::Rreq {
                    origin,
                    req_id,
                    path: new_path,
                    wanted: remaining,
                };
                self.queue_flood(ctx, rreq.encode(), PacketKind::Control);
            }
            return;
        }
        // Append ourselves in place and keep flooding.
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
        let mut buf = ctx.take_scratch();
        if wire::rreq_append_forward(frame, path, me, &mut buf).is_ok() {
            self.queue_flood(ctx, &buf[..], PacketKind::Control);
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
        if idx > 0 {
            // Relay only the first/best reply per (origin, req, place).
            let remaining = path.len() - idx;
            let key = (origin, req_id, place);
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
            // is relayed untouched, so patch the frame in place.
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
        let Some(route) = self.table.by_place(place) else {
            self.stats.data_dropped += 1;
            return;
        };
        let next = if route.relays.is_empty() {
            gateway
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

    fn handle_announce(
        &mut self,
        ctx: &mut Ctx<'_>,
        bytes: Rc<[u8]>,
        gateway: NodeId,
        place: u16,
        round: u32,
    ) {
        if !self.seen_announce.insert(gateway.0, u64::from(round)) {
            return;
        }
        // Never regress a gateway to an older claim (late or replayed
        // announces).
        let stale = self
            .occupied
            .get(&gateway)
            .is_some_and(|&(_, have)| round < have);
        if !stale {
            self.occupied.insert(gateway, (place, round));
        }
        // Keep the flood moving — the forwarded frame is byte-identical,
        // so re-flood the shared buffer instead of re-encoding.
        self.queue_flood(ctx, bytes, PacketKind::Control);
    }

    fn handle_load(
        &mut self,
        ctx: &mut Ctx<'_>,
        bytes: Rc<[u8]>,
        gateway: NodeId,
        load: u32,
        seq: u32,
    ) {
        if !self.seen_load.insert(gateway.0, u64::from(seq)) {
            return;
        }
        self.loads.insert(gateway, load);
        self.queue_flood(ctx, bytes, PacketKind::Control);
    }

    fn on_collect_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some((_, retries)) = self.discovering else {
            return;
        };
        if self.select_route().is_some() {
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

    /// Buffered message count (tests).
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }
}

impl Behavior for MlrSensor {
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
            RoutingMsgView::Announce {
                gateway,
                place,
                round,
            } => self.handle_announce(ctx, pkt.payload.clone(), gateway, place, round),
            RoutingMsgView::Load { gateway, load, seq } => {
                self.handle_load(ctx, pkt.payload.clone(), gateway, load, seq)
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

/// The gateway (WMG) side of MLR.
pub struct MlrGateway {
    /// Current feasible place.
    pub place: u16,
    seen_rreq: SeenTable,
    /// Data packets absorbed in total.
    pub absorbed: u64,
    /// Data packets absorbed since the last load advertisement.
    window_load: u32,
    next_load_seq: u32,
}

impl MlrGateway {
    /// New gateway, initially at `place`.
    pub fn new(place: u16) -> Self {
        MlrGateway {
            place,
            seen_rreq: SeenTable::new(),
            absorbed: 0,
            window_load: 0,
            next_load_seq: 0,
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(place: u16) -> Box<dyn Behavior> {
        Box::new(Self::new(place))
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

impl Behavior for MlrGateway {
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
                ..
            } => {
                if gateway != ctx.id() {
                    return;
                }
                self.absorbed += 1;
                self.window_load += 1;
                ctx.record_delivery(origin, msg_id, sent_at, hops);
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
    use crate::wire::NO_PLACE;
    use wmsn_sim::{NodeConfig, World, WorldConfig};
    use wmsn_util::Point;

    /// Test worlds use a 10 m sensor range so 10 m-spaced chains are
    /// genuine multi-hop topologies.
    fn short_range(seed: u64) -> WorldConfig {
        let mut c = WorldConfig::ideal(seed);
        c.sensor_phy.range_m = 10.0;
        c
    }

    /// Chain of 6 sensors (x = 0..50) plus one mobile gateway. Feasible
    /// places: place 0 at x=60 (right end), place 1 at x=-10 (left end).
    fn chain_world() -> (World, Vec<NodeId>, NodeId) {
        let mut w = World::new(short_range(7));
        let mut sensors = Vec::new();
        for i in 0..6 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(i as f64 * 10.0, 0.0), 100.0),
                MlrSensor::boxed(MlrConfig::default()),
            ));
        }
        let gw = w.add_node(
            NodeConfig::gateway(Point::new(60.0, 0.0)),
            MlrGateway::boxed(0),
        );
        (w, sensors, gw)
    }

    fn announce(w: &mut World, gw: NodeId, place: u16, round: u32) {
        w.with_behavior::<MlrGateway, _>(gw, |g, ctx| g.set_place(ctx, place, round));
        w.run_for(500_000);
    }

    #[test]
    fn announce_floods_to_every_sensor() {
        let (mut w, sensors, gw) = chain_world();
        w.start();
        announce(&mut w, gw, 0, 0);
        for &s in &sensors {
            let b = w.behavior_as::<MlrSensor>(s).unwrap();
            assert_eq!(b.occupied_places(), vec![0], "sensor {s}");
            assert_eq!(b.occupant_of(0), Some(gw));
        }
    }

    #[test]
    fn discovery_fills_the_place_entry_and_delivers() {
        let (mut w, sensors, gw) = chain_world();
        w.start();
        announce(&mut w, gw, 0, 0);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 1);
        assert_eq!(m.deliveries[0].hops, 6);
        let b = w.behavior_as::<MlrSensor>(sensors[0]).unwrap();
        assert_eq!(b.table.by_place(0).map(|r| r.hops()), Some(6));
    }

    #[test]
    fn cached_place_entries_are_reused_when_a_gateway_returns() {
        let (mut w, sensors, gw) = chain_world();
        w.start();
        // Round 0: gateway at place 0; discover.
        announce(&mut w, gw, 0, 0);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        // Round 1: gateway moves to place 1 (left end, x = -10).
        w.set_position(gw, Point::new(-10.0, 0.0));
        announce(&mut w, gw, 1, 1);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        // Round 2: gateway returns to place 0 — NO new discovery needed.
        w.set_position(gw, Point::new(60.0, 0.0));
        announce(&mut w, gw, 0, 2);
        let control_before = w.metrics().sent_control;
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 3, "all three rounds delivered");
        // Only DATA frames since the round-2 announce (no discovery).
        assert_eq!(
            m.sent_control, control_before,
            "round 2 must reuse the cached place-0 entry"
        );
        let b = w.behavior_as::<MlrSensor>(sensors[0]).unwrap();
        assert_eq!(b.table.len(), 2, "one entry per visited place");
        assert!(b.stats.table_reuses >= 1);
    }

    #[test]
    fn source_selects_the_best_among_occupied_places() {
        // Two gateways: place 0 at the right (6 hops from S0), place 1 at
        // the left (1 hop from S0). S0 must pick place 1.
        let (mut w, sensors, gw0) = chain_world();
        let gw1 = w.add_node(
            NodeConfig::gateway(Point::new(-10.0, 0.0)),
            MlrGateway::boxed(1),
        );
        w.start();
        announce(&mut w, gw0, 0, 0);
        announce(&mut w, gw1, 1, 0);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        let m = w.metrics();
        assert_eq!(m.deliveries.len(), 1);
        assert_eq!(m.deliveries[0].destination, gw1);
        assert_eq!(m.deliveries[0].hops, 1);
    }

    #[test]
    fn moved_gateway_takes_over_a_known_place_entry() {
        // Gateway A discovers place 0; then gateway B occupies place 0.
        // Sensors must route to B through the cached place-0 path.
        let (mut w, sensors, gw_a) = chain_world();
        let gw_b = w.add_node(
            NodeConfig::gateway(Point::new(0.0, 200.0)), // far away initially
            MlrGateway::boxed(NO_PLACE),
        );
        w.start();
        announce(&mut w, gw_a, 0, 0);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        // Round 1: A leaves (to an unannounced nowhere), B takes place 0.
        w.set_position(gw_a, Point::new(0.0, 300.0));
        w.set_position(gw_b, Point::new(60.0, 0.0));
        // A's departure is implicit: B's announce overwrites nothing for
        // A, so also announce A at an unoccupied pseudo-place far away.
        announce(&mut w, gw_a, 7, 1);
        announce(&mut w, gw_b, 0, 1);
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        let m = w.metrics();
        let last = m.deliveries.last().unwrap();
        assert_eq!(last.destination, gw_b, "B now owns place 0");
    }

    #[test]
    fn load_balancing_diverts_traffic_from_the_hot_gateway() {
        // S0 sits 1 hop from G0 and 2 hops from G1. With α=0 all traffic
        // goes to G0; with a large α and G0 advertising heavy load, S0
        // diverts to G1.
        let build = |alpha: f64| -> (World, NodeId, NodeId, NodeId) {
            let mut w = World::new(short_range(3));
            let s0 = w.add_node(
                NodeConfig::sensor(Point::new(0.0, 0.0), 100.0),
                MlrSensor::boxed(MlrConfig {
                    load_alpha: alpha,
                    ..MlrConfig::default()
                }),
            );
            let relay = w.add_node(
                NodeConfig::sensor(Point::new(10.0, 0.0), 100.0),
                MlrSensor::boxed(MlrConfig {
                    load_alpha: alpha,
                    ..MlrConfig::default()
                }),
            );
            let g0 = w.add_node(
                NodeConfig::gateway(Point::new(-10.0, 0.0)),
                MlrGateway::boxed(0),
            );
            let g1 = w.add_node(
                NodeConfig::gateway(Point::new(20.0, 0.0)),
                MlrGateway::boxed(1),
            );
            let _ = relay;
            (w, s0, g0, g1)
        };
        // Baseline: α = 0.
        let (mut w, s0, g0, _g1) = build(0.0);
        w.start();
        announce(&mut w, g0, 0, 0);
        let g1 = w.nodes_with_role(wmsn_util::NodeRole::Gateway)[1];
        announce(&mut w, g1, 1, 0);
        w.with_behavior::<MlrSensor, _>(s0, |s, ctx| s.originate(ctx));
        w.run_for(2_000_000);
        assert_eq!(w.metrics().deliveries[0].destination, g0);

        // Loaded: α = 10, G0 advertises overwhelming load.
        let (mut w2, s0b, g0b, g1b) = build(10.0);
        w2.start();
        announce(&mut w2, g0b, 0, 0);
        announce(&mut w2, g1b, 1, 0);
        // First message discovers both routes (goes to G0, the shorter).
        w2.with_behavior::<MlrSensor, _>(s0b, |s, ctx| s.originate(ctx));
        w2.run_for(2_000_000);
        // G0 advertises a huge load; G1 stays idle.
        w2.with_behavior::<MlrGateway, _>(g0b, |g, ctx| {
            g.window_load = 10_000;
            g.announce_load(ctx);
        });
        w2.with_behavior::<MlrGateway, _>(g1b, |g, ctx| g.announce_load(ctx));
        w2.run_for(500_000);
        w2.with_behavior::<MlrSensor, _>(s0b, |s, ctx| s.originate(ctx));
        w2.run_for(2_000_000);
        let last = w2.metrics().deliveries.last().unwrap();
        assert_eq!(last.destination, g1b, "hot G0 must be avoided");
    }

    #[test]
    fn no_occupied_places_buffers_then_drops() {
        let (mut w, sensors, _gw) = chain_world();
        w.start();
        // No announce at all: sensors know of no occupied place.
        w.with_behavior::<MlrSensor, _>(sensors[0], |s, ctx| s.originate(ctx));
        w.run_for(5_000_000);
        let b = w.behavior_as::<MlrSensor>(sensors[0]).unwrap();
        assert_eq!(b.pending_len(), 0);
        assert!(b.stats.data_dropped >= 1);
        assert!(w.metrics().deliveries.is_empty());
    }

    #[test]
    fn duplicate_announces_are_suppressed() {
        let (mut w, sensors, gw) = chain_world();
        w.start();
        announce(&mut w, gw, 0, 0);
        let control1 = w.metrics().sent_control;
        // Replaying the same (gateway, round) announce must not re-flood.
        announce(&mut w, gw, 0, 0);
        let extra = w.metrics().sent_control - control1;
        assert_eq!(extra, 1, "only the gateway's own rebroadcast, no relay");
        let _ = sensors;
    }
}
