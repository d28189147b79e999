//! The sensor side of SecMLR.
//!
//! A sensor holds only its own pairwise keys (`K_ij` for each gateway it
//! was deployed with), outbound counters, per-gateway replay windows for
//! responses, and μTESLA receivers anchored at deployment. It can seal
//! queries/data for gateways and verify gateway responses — but it can
//! *not* authenticate other sensors, which is why (unlike plain MLR)
//! intermediate sensors never answer queries from cache and forward data
//! only along gateway-authenticated 4-tuple entries.

use crate::wire::{
    announce_plaintext, req_plaintext, sdata_forward_patch, srreq_append_forward, QuerySection,
    SecMsg, SecMsgView,
};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;
use wmsn_crypto::keys::CounterSet;
use wmsn_crypto::tesla::TeslaReceiver;
use wmsn_crypto::{open, seal, KeyStore, ReplayGuard};
use wmsn_sim::{Behavior, Ctx, Packet, PacketKind, Tier};
use wmsn_util::codec::Reader;
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

const TIMER_COLLECT: u64 = 0x5EC1;
const TIMER_FLOOD: u64 = 0x5EC3;

/// Sensor-side tunables.
#[derive(Clone, Copy, Debug)]
pub struct SecSensorConfig {
    /// Response collection window (µs).
    pub reply_wait_us: u64,
    /// Application payload bytes per DATA.
    pub data_payload: u16,
    /// Flood jitter bound (µs); 0 disables.
    pub flood_jitter_us: u64,
    /// Discovery retries.
    pub max_retries: u32,
    /// CPU energy per seal/MAC operation (J) — SecMLR's sensor-side
    /// compute cost, charged via [`Ctx::consume_energy`].
    pub cpu_seal_j: f64,
    /// CPU energy per open/verify operation (J).
    pub cpu_open_j: f64,
}

impl Default for SecSensorConfig {
    fn default() -> Self {
        SecSensorConfig {
            reply_wait_us: 250_000,
            data_payload: 24,
            flood_jitter_us: 2_000,
            max_retries: 2,
            // CC2420-class figures: a block-cipher op costs ~µJ.
            cpu_seal_j: 2e-6,
            cpu_open_j: 2e-6,
        }
    }
}

/// Counters for tests/experiments.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecSensorStats {
    /// Queries originated.
    pub rreq_originated: u64,
    /// Queries re-flooded.
    pub rreq_forwarded: u64,
    /// Responses relayed toward an origin.
    pub rres_relayed: u64,
    /// Responses rejected (bad MAC / replayed counter / path mismatch).
    pub rres_rejected: u64,
    /// DATA frames forwarded via 4-tuple entries.
    pub data_forwarded: u64,
    /// DATA frames dropped (no matching entry).
    pub data_dropped: u64,
    /// Announcements rejected by μTESLA (unsafe arrival / bad key / MAC).
    pub announce_rejected: u64,
    /// Announcements authenticated and applied.
    pub announce_applied: u64,
}

#[derive(Clone, Copy, Debug)]
struct PendingMsg {
    msg_id: u64,
    sent_at: u64,
}

/// A verified route to one gateway.
#[derive(Clone, Debug)]
pub struct SecRoute {
    /// Feasible place the gateway occupied when it answered.
    pub place: u16,
    /// Full path `[me, …, gateway]`.
    pub path: Vec<NodeId>,
}

impl SecRoute {
    /// Radio hops.
    pub fn hops(&self) -> u32 {
        (self.path.len() - 1) as u32
    }
}

/// The SecMLR sensor behaviour.
pub struct SecMlrSensor {
    cfg: SecSensorConfig,
    keys: KeyStore,
    counters: CounterSet,
    replay: ReplayGuard,
    /// Verified per-gateway routes (the paper's multi-entry table that
    /// enables failover).
    pub routes: HashMap<NodeId, SecRoute>,
    /// 4-tuple forwarding entries: (source, destination) → immediate
    /// receiver. The immediate sender is implicit (us ← previous hop).
    fwd: HashMap<(NodeId, NodeId), NodeId>,
    /// Authenticated occupancy: gateway → (place, round).
    occupied: HashMap<NodeId, (u16, u32)>,
    /// μTESLA receivers per gateway, anchored at deployment.
    tesla: HashMap<NodeId, TeslaReceiver>,
    /// Gateways the application has declared compromised/unresponsive.
    blacklist: HashSet<NodeId>,
    seen_rreq: SeenTable,
    seen_announce: HashSet<(NodeId, u32, u64)>,
    seen_disclose: SeenTable,
    next_req_id: u64,
    next_msg_id: u64,
    pending: Vec<PendingMsg>,
    discovering: Option<(u64, u32)>,
    flood_queue: VecDeque<(Rc<[u8]>, PacketKind)>,
    /// Counters.
    pub stats: SecSensorStats,
}

impl SecMlrSensor {
    /// Create a sensor with its deployment-time key store.
    pub fn new(cfg: SecSensorConfig, keys: KeyStore) -> Self {
        SecMlrSensor {
            cfg,
            keys,
            counters: CounterSet::new(),
            replay: ReplayGuard::new(),
            routes: HashMap::new(),
            fwd: HashMap::new(),
            occupied: HashMap::new(),
            tesla: HashMap::new(),
            blacklist: HashSet::new(),
            seen_rreq: SeenTable::new(),
            seen_announce: HashSet::new(),
            seen_disclose: SeenTable::new(),
            next_req_id: 0,
            next_msg_id: 0,
            pending: Vec::new(),
            discovering: None,
            flood_queue: VecDeque::new(),
            stats: SecSensorStats::default(),
        }
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: SecSensorConfig, keys: KeyStore) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg, keys))
    }

    /// Install the μTESLA receiver for a gateway (anchor distributed at
    /// deployment, like the pairwise keys).
    pub fn install_tesla(&mut self, gateway: NodeId, receiver: TeslaReceiver) {
        self.tesla.insert(gateway, receiver);
    }

    /// Pre-load initial occupancy (round-0 placement is part of the
    /// deployment configuration).
    pub fn set_initial_occupancy(&mut self, occupants: &[(NodeId, u16)]) {
        self.occupied = occupants.iter().map(|&(g, p)| (g, (p, 0))).collect();
    }

    /// Declare a gateway compromised/unresponsive: future selections skip
    /// it (the §8 failover).
    pub fn blacklist_gateway(&mut self, gateway: NodeId) {
        self.blacklist.insert(gateway);
    }

    /// Authenticated occupancy view (tests).
    pub fn occupied_gateways(&self) -> Vec<(NodeId, u16)> {
        let mut v: Vec<(NodeId, u16)> = self.occupied.iter().map(|(&g, &(p, _))| (g, p)).collect();
        v.sort_unstable();
        v
    }

    fn eligible_gateways(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .occupied
            .keys()
            .copied()
            .filter(|g| !self.blacklist.contains(g))
            .collect();
        v.sort_unstable();
        v
    }

    fn best_route(&self) -> Option<(NodeId, &SecRoute)> {
        self.eligible_gateways()
            .into_iter()
            .filter_map(|g| self.routes.get(&g).map(|r| (g, r)))
            .min_by_key(|(g, r)| (r.hops(), *g))
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
        let all_known = !self.eligible_gateways().is_empty()
            && self
                .eligible_gateways()
                .iter()
                .all(|g| self.routes.contains_key(g));
        if all_known {
            self.send_data(ctx, msg);
        } else {
            self.pending.push(msg);
            if self.discovering.is_none() {
                self.start_discovery(ctx, 0);
            }
        }
    }

    fn start_discovery(&mut self, ctx: &mut Ctx<'_>, retries_used: u32) {
        let me = ctx.id();
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        self.discovering = Some((req_id, retries_used));
        self.seen_rreq.insert(me.0, req_id);
        // One sealed section per eligible gateway ("RREQ with m
        // destinations").
        // Occupancy is part of the deployment configuration (round 0) and
        // thereafter maintained by authenticated announces; a sensor with
        // no known gateways has nobody to seal a query for.
        let targets = self.eligible_gateways();
        let mut sections = Vec::with_capacity(targets.len());
        for g in targets {
            let Some(key) = self.keys.key_for(g.0) else {
                continue;
            };
            let c = self.counters.next_for(g.0);
            ctx.consume_energy(self.cfg.cpu_seal_j);
            sections.push(QuerySection {
                gateway: g,
                sealed: seal(&key, c, &req_plaintext(req_id, me)),
            });
        }
        if sections.is_empty() {
            return;
        }
        let rreq = SecMsg::Rreq {
            origin: me,
            req_id,
            path: vec![me],
            sections,
        };
        self.stats.rreq_originated += 1;
        ctx.send(None, Tier::Sensor, PacketKind::Control, rreq.encode());
        ctx.set_timer(self.cfg.reply_wait_us, TIMER_COLLECT);
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, msg: PendingMsg) {
        let me = ctx.id();
        let Some((gateway, route)) = self.best_route() else {
            self.stats.data_dropped += 1;
            return;
        };
        let route = route.clone();
        let Some(key) = self.keys.key_for(gateway.0) else {
            self.stats.data_dropped += 1;
            return;
        };
        let c = self.counters.next_for(gateway.0);
        ctx.consume_energy(self.cfg.cpu_seal_j);
        // Payload: msg id + origination time + padding, sealed.
        let mut plain = Vec::with_capacity(16 + self.cfg.data_payload as usize);
        plain.extend_from_slice(&msg.msg_id.to_le_bytes());
        plain.extend_from_slice(&msg.sent_at.to_le_bytes());
        plain.resize(16 + self.cfg.data_payload as usize, 0);
        let sealed = seal(&key, c, &plain);
        let ir = route.path[1];
        let data = SecMsg::Data {
            source: me,
            destination: gateway,
            is: me,
            ir,
            hops: 1,
            sealed,
        };
        ctx.send(Some(ir), Tier::Sensor, PacketKind::Data, data.encode());
    }

    fn queue_flood(&mut self, ctx: &mut Ctx<'_>, bytes: impl Into<Rc<[u8]>>, kind: PacketKind) {
        let bytes = bytes.into();
        if self.cfg.flood_jitter_us == 0 {
            ctx.send(None, Tier::Sensor, kind, bytes);
        } else {
            let jitter = ctx.rng().next_below(self.cfg.flood_jitter_us);
            self.flood_queue.push_back((bytes, kind));
            ctx.set_timer(jitter, TIMER_FLOOD);
        }
    }

    fn handle_rreq(&mut self, ctx: &mut Ctx<'_>, frame: &[u8], msg: SecMsgView<'_>) {
        // The view (validated whole, path and every sealed section, by
        // the caller's decode) materialises neither, so duplicate and
        // loop checks run allocation-free.
        let SecMsgView::Rreq {
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
            return;
        }
        // Intermediates cannot verify or answer — append and re-flood.
        // The sealed sections pass through byte-for-byte.
        self.stats.rreq_forwarded += 1;
        let mut buf = ctx.take_scratch();
        if srreq_append_forward(frame, me, &mut buf).is_ok() {
            self.queue_flood(ctx, &buf[..], PacketKind::Control);
        }
        ctx.put_scratch(buf);
    }

    fn handle_rres(&mut self, ctx: &mut Ctx<'_>, msg: SecMsg, raw: &Rc<[u8]>) {
        let SecMsg::Rres {
            origin,
            gateway,
            place,
            path,
            sealed,
        } = msg
        else {
            return;
        };
        let me = ctx.id();
        let Some(idx) = path.iter().position(|&n| n == me) else {
            return;
        };
        if me == origin && idx == 0 {
            // Terminal verification at the source.
            let Some(key) = self.keys.key_for(gateway.0) else {
                self.stats.rres_rejected += 1;
                return;
            };
            ctx.consume_energy(self.cfg.cpu_open_j);
            let Some(plain) = open(&key, &sealed) else {
                self.stats.rres_rejected += 1;
                return;
            };
            if !self.replay.accept(gateway.0, sealed.counter) {
                self.stats.rres_rejected += 1;
                return;
            }
            // The sealed res must bind this path and a req we issued.
            let mut r = Reader::new(&plain);
            let ok = (|| -> Option<bool> {
                let tag = r.u8().ok()?;
                if tag != b'R' {
                    return Some(false);
                }
                let req_id = r.u64().ok()?;
                let sealed_place = r.u16().ok()?;
                let ids = r.id_list_view(crate::wire::MAX_PATH).ok()?;
                let same_path = ids.iter().eq(path.iter().map(|n| n.0));
                Some(req_id < self.next_req_id && sealed_place == place && same_path)
            })()
            .unwrap_or(false);
            if !ok {
                self.stats.rres_rejected += 1;
                return;
            }
            self.routes.insert(
                gateway,
                SecRoute {
                    place,
                    path: path.clone(),
                },
            );
            // Collection timer decides when to flush.
        } else if idx > 0 {
            // Relay toward the origin and install the 4-tuple entry
            // (source=origin, destination=gateway, IS=path[idx-1],
            // IR=path[idx+1]).
            if idx + 1 < path.len() {
                self.fwd.insert((origin, gateway), path[idx + 1]);
            }
            let prev = path[idx - 1];
            self.stats.rres_relayed += 1;
            // A relayed response is unchanged — re-encoding would
            // reproduce the received bytes, so forward the frame itself.
            ctx.send(Some(prev), Tier::Sensor, PacketKind::Control, raw.clone());
        }
    }

    fn handle_data(&mut self, ctx: &mut Ctx<'_>, frame: &[u8], msg: SecMsgView<'_>) {
        // The sealed envelope is never opened (or even copied out) on
        // transit nodes — forwarding rewrites the three RI words in
        // place.
        let SecMsgView::Data {
            source,
            destination,
            ir,
            hops,
            ..
        } = msg
        else {
            return;
        };
        let me = ctx.id();
        if ir != me {
            return;
        }
        let Some(&next) = self.fwd.get(&(source, destination)) else {
            self.stats.data_dropped += 1;
            return;
        };
        self.stats.data_forwarded += 1;
        let mut buf = ctx.take_scratch();
        if sdata_forward_patch(frame, me, next, hops + 1, &mut buf).is_ok() {
            ctx.send(Some(next), Tier::Sensor, PacketKind::Data, &buf[..]);
        }
        ctx.put_scratch(buf);
    }

    fn handle_announce(&mut self, ctx: &mut Ctx<'_>, msg: SecMsg, raw: &Rc<[u8]>) {
        let SecMsg::Announce {
            gateway,
            place,
            round,
            interval,
            tesla_tag,
        } = msg
        else {
            return;
        };
        if !self.seen_announce.insert((gateway, round, interval)) {
            return;
        }
        let now = ctx.now();
        if let Some(rx) = self.tesla.get_mut(&gateway) {
            use wmsn_crypto::tesla::ReceiveOutcome;
            let plain = announce_plaintext(gateway, place, round);
            match rx.on_message(now, interval, &plain, tesla_tag) {
                ReceiveOutcome::Buffered => {}
                _ => {
                    self.stats.announce_rejected += 1;
                    return; // do not propagate provably-unsafe frames
                }
            }
        }
        // Keep the (still-pending) flood moving so other sensors can
        // buffer it before the key discloses. The re-flooded frame is
        // unchanged, so forward the received bytes verbatim.
        self.queue_flood(ctx, raw.clone(), PacketKind::Control);
    }

    fn handle_disclose(&mut self, ctx: &mut Ctx<'_>, msg: SecMsg, raw: &Rc<[u8]>) {
        let SecMsg::Disclose {
            gateway,
            interval,
            key,
        } = msg
        else {
            return;
        };
        if !self.seen_disclose.insert(gateway.0, interval) {
            return;
        }
        if let Some(rx) = self.tesla.get_mut(&gateway) {
            ctx.consume_energy(self.cfg.cpu_open_j);
            let released = rx.on_disclosure(interval, wmsn_crypto::Digest(key));
            for plain in released {
                if let Some((g, place, round)) = parse_announce_plaintext(&plain) {
                    if g == gateway {
                        let prev = self.occupied.get(&gateway).copied();
                        let stale = prev.is_some_and(|(_, have)| round < have);
                        if !stale {
                            self.occupied.insert(gateway, (place, round));
                            self.stats.announce_applied += 1;
                            // The gateway moved: any cached route to it now
                            // leads to its old position. Drop it so the next
                            // origination rediscovers (§6.2.3 routing update).
                            if prev.map(|(p, _)| p) != Some(place) {
                                self.routes.remove(&gateway);
                            }
                        }
                    }
                }
            }
        }
        self.queue_flood(ctx, raw.clone(), PacketKind::Security);
    }

    fn on_collect_timer(&mut self, ctx: &mut Ctx<'_>) {
        let Some((_, retries)) = self.discovering else {
            return;
        };
        if self.best_route().is_some() {
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

    /// 4-tuple forwarding entry count (tests).
    pub fn fwd_entries(&self) -> usize {
        self.fwd.len()
    }
}

/// Parse the announce plaintext built by
/// [`crate::wire::announce_plaintext`].
pub fn parse_announce_plaintext(plain: &[u8]) -> Option<(NodeId, u16, u32)> {
    let mut r = Reader::new(plain);
    if r.u8().ok()? != b'A' {
        return None;
    }
    let g = NodeId(r.u32().ok()?);
    let place = r.u16().ok()?;
    let round = r.u32().ok()?;
    r.finish().ok()?;
    Some((g, place, round))
}

impl Behavior for SecMlrSensor {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Ok(msg) = SecMsgView::decode(&pkt.payload) else {
            return;
        };
        // The bulk traffic — flooded queries and relayed data — runs on
        // the view without materialising the sealed envelope.
        match msg {
            SecMsgView::Rreq { .. } => self.handle_rreq(ctx, &pkt.payload, msg),
            SecMsgView::Data { .. } => self.handle_data(ctx, &pkt.payload, msg),
            SecMsgView::Rres { .. } => self.handle_rres(ctx, msg.to_owned(), &pkt.payload),
            SecMsgView::Announce { .. } => self.handle_announce(ctx, msg.to_owned(), &pkt.payload),
            SecMsgView::Disclose { .. } => self.handle_disclose(ctx, msg.to_owned(), &pkt.payload),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        match tag {
            TIMER_COLLECT => self.on_collect_timer(ctx),
            TIMER_FLOOD => {
                if let Some((bytes, kind)) = self.flood_queue.pop_front() {
                    ctx.send(None, Tier::Sensor, kind, bytes);
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
    use wmsn_crypto::Key128;

    #[test]
    fn announce_plaintext_roundtrips_through_the_parser() {
        let plain = announce_plaintext(NodeId(9), 4, 17);
        assert_eq!(parse_announce_plaintext(&plain), Some((NodeId(9), 4, 17)));
    }

    #[test]
    fn announce_parser_rejects_malformed_input() {
        assert_eq!(parse_announce_plaintext(b""), None);
        assert_eq!(parse_announce_plaintext(b"X123456789A"), None);
        let mut long = announce_plaintext(NodeId(1), 2, 3);
        long.push(0); // trailing byte
        assert_eq!(parse_announce_plaintext(&long), None);
        let short = &announce_plaintext(NodeId(1), 2, 3)[..5];
        assert_eq!(parse_announce_plaintext(short), None);
    }

    #[test]
    fn sec_route_hop_arithmetic() {
        let r = SecRoute {
            place: 0,
            path: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(9)],
        };
        assert_eq!(r.hops(), 3);
        let direct = SecRoute {
            place: 0,
            path: vec![NodeId(0), NodeId(9)],
        };
        assert_eq!(direct.hops(), 1);
    }

    #[test]
    fn blacklisting_and_occupancy_shape_the_eligible_set() {
        let master = Key128([1; 16]);
        let keys = KeyStore::for_sensor(&master, 0, &[10, 11]);
        let mut s = SecMlrSensor::new(SecSensorConfig::default(), keys);
        s.set_initial_occupancy(&[(NodeId(10), 0), (NodeId(11), 1)]);
        assert_eq!(s.eligible_gateways(), vec![NodeId(10), NodeId(11)]);
        s.blacklist_gateway(NodeId(10));
        assert_eq!(s.eligible_gateways(), vec![NodeId(11)]);
        // Routes for blacklisted gateways never win selection.
        s.routes.insert(
            NodeId(10),
            SecRoute {
                place: 0,
                path: vec![NodeId(0), NodeId(10)],
            },
        );
        s.routes.insert(
            NodeId(11),
            SecRoute {
                place: 1,
                path: vec![NodeId(0), NodeId(5), NodeId(11)],
            },
        );
        let (gw, route) = s.best_route().expect("route exists");
        assert_eq!(gw, NodeId(11), "shorter blacklisted route must lose");
        assert_eq!(route.hops(), 2);
    }

    #[test]
    fn best_route_prefers_fewer_hops_then_lower_gateway_id() {
        let master = Key128([1; 16]);
        let keys = KeyStore::for_sensor(&master, 0, &[10, 11]);
        let mut s = SecMlrSensor::new(SecSensorConfig::default(), keys);
        s.set_initial_occupancy(&[(NodeId(10), 0), (NodeId(11), 1)]);
        s.routes.insert(
            NodeId(11),
            SecRoute {
                place: 1,
                path: vec![NodeId(0), NodeId(11)],
            },
        );
        s.routes.insert(
            NodeId(10),
            SecRoute {
                place: 0,
                path: vec![NodeId(0), NodeId(10)],
            },
        );
        let (gw, _) = s.best_route().unwrap();
        assert_eq!(gw, NodeId(10), "hop tie breaks toward the lower id");
    }
}
