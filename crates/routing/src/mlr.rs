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
//!
//! The discovery machinery is SPR's, in [`crate::discovery`];
//! [`MlrPolicy`] holds the place scheme on top of it.

use crate::discovery::{Gateway, Onward, Policy, Sensor};
use crate::spr::SprConfig;
use crate::table::{Route, RoutingTable};
use crate::wire;
use std::collections::HashMap;
use wmsn_sim::{Behavior, Ctx};
use wmsn_trace::TraceEvent;
use wmsn_util::codec::{IdListView, U16ListView};
use wmsn_util::seen::SeenTable;
use wmsn_util::NodeId;

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

/// MLR's decisions: the place-keyed table persists across rounds,
/// selection and cache answers only consider occupied places, queries
/// name the places still missing, and announcements and load
/// advertisements update the occupant and load maps.
#[derive(Debug)]
pub struct MlrPolicy {
    load_alpha: f64,
    energy_slack: u32,
    /// Current round's occupant map: gateway → (place, announce round).
    /// The round stamp disambiguates stale claims: when two gateways have
    /// announced the same place, the most recent announcement wins.
    occupied: HashMap<NodeId, (u16, u32)>,
    /// Occupied places, sorted and deduped, derived from `occupied`
    /// whenever it changes, so per-frame reads neither collect nor scan.
    places: Vec<u16>,
    /// Current occupant of each place in `places`, index for index.
    occupants: Vec<NodeId>,
    /// Gateway load advertisements (for the §4.3 extension).
    loads: HashMap<NodeId, u32>,
    seen_load: SeenTable,
}

impl MlrPolicy {
    /// Rebuild `places` and `occupants` after `occupied` changed. The
    /// occupant of a place is the gateway with the most recent
    /// announcement (ties break toward the higher id).
    fn refresh_places(&mut self) {
        let mut claims: Vec<(u16, u32, NodeId)> = self
            .occupied
            .iter()
            .map(|(&g, &(p, round))| (p, round, g))
            .collect();
        // Per place, the winning claim sorts last.
        claims.sort_unstable();
        self.places.clear();
        self.occupants.clear();
        for (i, &(p, _, g)) in claims.iter().enumerate() {
            if claims.get(i + 1).is_none_or(|next| next.0 != p) {
                self.places.push(p);
                self.occupants.push(g);
            }
        }
    }

    /// Places currently occupied (sorted, deduped).
    fn occupied_places(&self) -> &[u16] {
        &self.places
    }

    /// Current occupant of `place`.
    fn occupant_of(&self, place: u16) -> Option<NodeId> {
        let i = self.places.binary_search(&place).ok()?;
        Some(self.occupants[i])
    }

    /// The gateway to name for `route`: the current occupant of its
    /// place — the entry may have been learned from a previous one.
    fn gateway_for(&self, route: &Route) -> NodeId {
        self.occupant_of(route.place).unwrap_or(route.gateway)
    }
}

impl Policy for MlrPolicy {
    fn can_send_now(&self, table: &RoutingTable) -> bool {
        let occupied = self.occupied_places();
        !occupied.is_empty() && occupied.iter().all(|&p| table.by_place(p).is_some())
    }

    /// Score-and-select: the best route among occupied places, by hops
    /// plus (optionally) the load penalty or the energy-aware slack.
    fn select<'t>(&self, table: &'t RoutingTable) -> Option<(&'t Route, NodeId)> {
        let occupied = self.occupied_places();
        let route = if self.load_alpha <= 0.0 {
            if self.energy_slack > 0 {
                table.best_energy_aware(occupied, self.energy_slack)
            } else {
                table.best_among_places(occupied)
            }
        } else {
            let total: u64 = self.loads.values().map(|&l| l as u64).sum();
            let mean = (total as f64 / self.loads.len().max(1) as f64).max(1.0);
            let cost = |r: &Route| {
                let gw = self.occupant_of(r.place);
                let load = gw.and_then(|g| self.loads.get(&g)).copied().unwrap_or(0) as f64;
                r.hops() as f64 + self.load_alpha * load / mean
            };
            table
                .iter()
                .filter(|r| occupied.contains(&r.place))
                .min_by(|a, b| cost(a).total_cmp(&cost(b)).then(a.place.cmp(&b.place)))
        }?;
        Some((route, self.gateway_for(route)))
    }

    fn trace_select(&self, ctx: &mut Ctx<'_>, route: &Route, gateway: NodeId) {
        ctx.trace(TraceEvent::RouteSelect {
            t: ctx.now(),
            node: ctx.id(),
            gateway,
            place: route.place,
            hops: route.hops(),
            energy_pm: route.energy_pm,
        });
    }

    /// Ask specifically for the occupied places without an entry;
    /// cached replies for other places must not satisfy (or suppress)
    /// the query.
    fn wanted(&self, table: &RoutingTable) -> Vec<u16> {
        self.occupied_places()
            .iter()
            .copied()
            .filter(|&p| table.by_place(p).is_none())
            .collect()
    }

    fn answer<'t>(
        &self,
        table: &'t RoutingTable,
        path: IdListView<'_>,
        me: NodeId,
        wanted: U16ListView<'_>,
        mut reply: impl FnMut(&'t Route, NodeId),
    ) -> Onward {
        // A cached path that loops back through the query path cannot be
        // offered (the combined walk would repeat a node).
        let offerable = |r: &&Route| wire::path_with_suffix_is_unique(path, me, &r.relays);
        let occupied = self.occupied_places();
        if wanted.is_empty() {
            // SPR-style query: any occupied route satisfies it entirely.
            return match table.best_among_places(occupied).filter(offerable) {
                Some(route) => {
                    reply(route, self.gateway_for(route));
                    Onward::Stop
                }
                None => Onward::Forward,
            };
        }
        // Targeted query: answer every wanted place we have cached, and
        // keep the flood alive for the rest — a partial cache answer
        // must not suppress discovery of the other places.
        let mut remaining = Vec::new();
        for p in wanted.iter() {
            if !occupied.contains(&p) {
                continue; // stale want: place no longer occupied
            }
            match table.by_place(p).filter(offerable) {
                Some(route) => reply(route, self.gateway_for(route)),
                None => remaining.push(p),
            }
        }
        if remaining.is_empty() {
            Onward::Stop
        } else if remaining.len() == wanted.len() {
            Onward::Forward // nothing answered or stripped
        } else {
            Onward::Narrowed(remaining)
        }
    }

    fn damping_key(_: NodeId, place: u16) -> u32 {
        u32::from(place)
    }

    fn data_route(table: &RoutingTable, _: NodeId, place: u16) -> Option<&Route> {
        table.by_place(place)
    }

    /// The place-keyed table and the flood dedup persist across rounds.
    const ROUND_RESETS_ROUTES: bool = false;

    fn on_announce(&mut self, gateway: NodeId, place: u16, round: u32) {
        // Never regress a gateway to an older claim (late or replayed
        // announces).
        let stale = self
            .occupied
            .get(&gateway)
            .is_some_and(|&(_, have)| round < have);
        if !stale {
            self.occupied.insert(gateway, (place, round));
            self.refresh_places();
        }
    }

    fn on_load(&mut self, gateway: NodeId, load: u32, seq: u32) -> bool {
        if !self.seen_load.insert(gateway.0, u64::from(seq)) {
            return false;
        }
        self.loads.insert(gateway, load);
        true
    }
}

/// The sensor side of MLR.
pub type MlrSensor = Sensor<MlrPolicy>;

impl MlrSensor {
    /// New sensor.
    pub fn new(cfg: MlrConfig) -> Self {
        let base = SprConfig {
            reply_wait_us: cfg.reply_wait_us,
            data_payload: cfg.data_payload,
            flood_jitter_us: cfg.flood_jitter_us,
            max_retries: cfg.max_retries,
        };
        let policy = MlrPolicy {
            load_alpha: cfg.load_alpha,
            energy_slack: cfg.energy_slack,
            occupied: HashMap::new(),
            places: Vec::new(),
            occupants: Vec::new(),
            loads: HashMap::new(),
            seen_load: SeenTable::new(),
        };
        Sensor::with_policy(base, policy)
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: MlrConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }

    /// Places currently occupied (sorted, deduped).
    pub fn occupied_places(&self) -> &[u16] {
        self.policy.occupied_places()
    }

    /// Current occupant of `place`, if known: the gateway with the most
    /// recent announcement (ties break toward the higher id, so the
    /// choice is deterministic).
    pub fn occupant_of(&self, place: u16) -> Option<NodeId> {
        self.policy.occupant_of(place)
    }

    /// Pre-load the initial deployment (sensors are told the round-0
    /// placement at deployment time, like keys in SecMLR). Subsequent
    /// rounds arrive via `Announce` floods.
    pub fn set_initial_occupancy(&mut self, occupants: &[(NodeId, u16)]) {
        self.policy.occupied = occupants.iter().map(|&(g, p)| (g, (p, 0))).collect();
        self.policy.refresh_places();
    }

    /// Forget a gateway entirely (a watchdog detected it dead): its
    /// occupancy claim is dropped, so selection falls back to the
    /// surviving gateways — the §4.2 fault-tolerance redirect.
    pub fn remove_gateway(&mut self, gateway: NodeId) {
        self.policy.occupied.remove(&gateway);
        self.policy.refresh_places();
    }
}

/// The gateway (WMG) side of MLR.
pub type MlrGateway = Gateway<MlrPolicy>;

impl MlrGateway {
    /// New gateway, initially at `place`.
    pub fn new(place: u16) -> Self {
        Gateway::at(place)
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(place: u16) -> Box<dyn Behavior> {
        Box::new(Self::new(place))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{RoutingMsg, NO_PLACE};
    use wmsn_sim::{NodeConfig, PacketKind, Tier, World, WorldConfig};
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
    fn occupants_follow_the_latest_claim_per_place() {
        let (g3, g5, g7) = (NodeId(3), NodeId(5), NodeId(7));
        let mut b = MlrSensor::new(MlrConfig::default());
        b.set_initial_occupancy(&[(g5, 4), (g3, 4), (g7, 1)]);
        assert_eq!(b.occupied_places(), [1, 4]);
        // Equal rounds: the higher id holds the place.
        assert_eq!(b.occupant_of(4), Some(g5));
        assert_eq!(b.occupant_of(2), None);
        // A newer announce wins; an older one for the same gateway is
        // ignored.
        b.policy.on_announce(g3, 4, 2);
        b.policy.on_announce(g3, 9, 1);
        assert_eq!(b.occupant_of(4), Some(g3));
        b.policy.on_announce(g7, 2, 3);
        assert_eq!(b.occupied_places(), [2, 4]);
        b.remove_gateway(g3);
        assert_eq!(b.occupant_of(4), Some(g5));
        b.remove_gateway(g5);
        assert_eq!(b.occupied_places(), [2]);
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

    #[test]
    fn full_path_rreqs_are_neither_forwarded_nor_counted() {
        // An RREQ whose path already holds MAX_PATH ids cannot take one
        // more hop: no receiver may count, trace or send a forward,
        // whether the query is untargeted, targeted (forwarded in place)
        // or narrowed by a stale place (re-encoded).
        let path: Vec<NodeId> = (1000..1000 + wire::MAX_PATH as u32).map(NodeId).collect();
        for wanted in [vec![], vec![0], vec![0, 1]] {
            let mut w = World::new(short_range(5));
            let mut sensors = Vec::new();
            for pos in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
                sensors.push(w.add_node(
                    NodeConfig::sensor(Point::new(pos.0, pos.1), 100.0),
                    MlrSensor::boxed(MlrConfig::default()),
                ));
            }
            let gw = w.add_node(
                NodeConfig::gateway(Point::new(500.0, 0.0)),
                MlrGateway::boxed(0),
            );
            for &s in &sensors {
                w.with_behavior::<MlrSensor, _>(s, |b, _| b.set_initial_occupancy(&[(gw, 0)]));
            }
            w.set_trace_sink(Box::new(wmsn_trace::BufferSink::new()));
            w.start();
            let frame = RoutingMsg::Rreq {
                origin: NodeId(999),
                req_id: 0,
                path: path.clone(),
                wanted: wanted.clone(),
            }
            .encode();
            w.with_behavior::<MlrSensor, _>(sensors[0], |_, ctx| {
                ctx.send(None, Tier::Sensor, PacketKind::Control, frame);
            });
            w.run_for(1_000_000);
            assert_eq!(
                w.metrics().sent_control,
                1,
                "wanted {wanted:?}: only the injected frame"
            );
            for &s in &sensors[1..] {
                let b = w.behavior_as::<MlrSensor>(s).unwrap();
                assert_eq!(b.stats.rreq_forwarded, 0, "wanted {wanted:?}: sensor {s}");
            }
            let trace = &w.trace_sink_as::<wmsn_trace::BufferSink>().unwrap().out;
            assert!(
                !trace.contains("\"forwarded\":true"),
                "wanted {wanted:?}: a forward was traced"
            );
        }
    }
}
