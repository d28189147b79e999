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
//! The machinery lives in [`crate::discovery`]; [`SprPolicy`] is what
//! makes it SPR. The flat single-sink baseline of Fig. 2(a) is SPR with
//! `m = 1`.

use crate::discovery::{Gateway, Onward, Policy, Sensor};
use crate::table::{Route, RoutingTable};
use crate::wire::{self, NO_PLACE};
use wmsn_sim::{Behavior, Ctx};
use wmsn_util::codec::{IdListView, U16ListView};
use wmsn_util::NodeId;

/// Tunables for SPR — the discovery tunables every protocol on
/// [`crate::discovery::Sensor`] shares.
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

/// SPR's decisions: any gateway will do, the fewest-hop cached route
/// wins and answers every query, and every round starts from empty
/// tables. SPR has no places, so announcements are only relayed and
/// load advertisements ignored.
#[derive(Debug)]
pub struct SprPolicy;

impl Policy for SprPolicy {
    fn can_send_now(&self, table: &RoutingTable) -> bool {
        table.best().is_some()
    }

    fn select<'t>(&self, table: &'t RoutingTable) -> Option<(&'t Route, NodeId)> {
        table.best().map(|r| (r, r.gateway))
    }

    fn trace_select(&self, _: &mut Ctx<'_>, _: &Route, _: NodeId) {}

    fn wanted(&self, _: &RoutingTable) -> Vec<u16> {
        Vec::new() // any gateway's route is welcome
    }

    // Always inlined: every first-seen RREQ of a flood comes through
    // here, and the flood path should make no call for the policy.
    #[inline(always)]
    fn answer<'t>(
        &self,
        table: &'t RoutingTable,
        path: IdListView<'_>,
        me: NodeId,
        _: U16ListView<'_>,
        mut reply: impl FnMut(&'t Route, NodeId),
    ) -> Onward {
        // A cached path that loops back through the query path cannot
        // be offered (the combined walk would repeat a node).
        match table.best() {
            Some(r) if wire::path_with_suffix_is_unique(path, me, &r.relays) => {
                reply(r, r.gateway);
                Onward::Stop
            }
            _ => Onward::Forward,
        }
    }

    fn damping_key(gateway: NodeId, _: u16) -> u32 {
        gateway.0
    }

    fn data_route(table: &RoutingTable, gateway: NodeId, place: u16) -> Option<&Route> {
        if place != NO_PLACE {
            table.by_place(place)
        } else {
            table.by_gateway(gateway)
        }
    }

    const ROUND_RESETS_ROUTES: bool = true;

    fn on_announce(&mut self, _: NodeId, _: u16, _: u32) {}

    fn on_load(&mut self, _: NodeId, _: u32, _: u32) -> bool {
        false
    }
}

/// The sensor side of SPR.
pub type SprSensor = Sensor<SprPolicy>;

impl SprSensor {
    /// New sensor with the given tunables.
    pub fn new(cfg: SprConfig) -> Self {
        Sensor::with_policy(cfg, SprPolicy)
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed(cfg: SprConfig) -> Box<dyn Behavior> {
        Box::new(Self::new(cfg))
    }
}

/// The gateway (WMG) side of SPR: answers RREQs, absorbs DATA, records
/// deliveries. Optionally hands delivered data to the mesh backbone (set
/// a relay callback target via [`SprGateway::set_uplink`]).
pub type SprGateway = Gateway<SprPolicy>;

impl SprGateway {
    /// New gateway.
    pub fn new() -> Self {
        Gateway::at(NO_PLACE)
    }

    /// Boxed, for `World::add_node`.
    pub fn boxed() -> Box<dyn Behavior> {
        Box::new(Self::new())
    }
}

impl Default for SprGateway {
    fn default() -> Self {
        Self::new()
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
            s.reset_round();
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
