//! The round driver: the experiment-side orchestration of §5.1's round
//! structure ("the period during which all gateways are static").
//!
//! One [`RoundDriver`] owns a [`Scenario`] and runs every protocol's
//! rounds the same way: a round-boundary step (gateways move and
//! announce, tables reset, the network settles), the round's traffic,
//! and the metrics delta with its [`wmsn_sim::RoundSnapshot`]. Lifetime
//! experiments loop rounds until the first sensor dies (the paper's
//! lifetime definition). A [`Protocol`] supplies only what differs:
//! the boundary step, how a sensor originates a reading, and the salt of
//! the traffic stream.

use crate::builder::Scenario;
use crate::wmg::WmgBehavior;
use wmsn_routing::leach::LeachSensor;
use wmsn_routing::mlr::{MlrGateway, MlrSensor};
use wmsn_routing::spr::{SprGateway, SprSensor};
use wmsn_secure::{SecMlrGateway, SecMlrSensor};
use wmsn_sim::{Metrics, SimHost, SimTime, World};
use wmsn_topology::movement::RoundPlacement;
use wmsn_util::{NodeId, SplitMix64};

/// Metrics delta for one round.
#[derive(Clone, Copy, Debug)]
pub struct RoundReport {
    /// Round index (0-based).
    pub round: u32,
    /// Messages originated this round.
    pub originated: u64,
    /// Unique messages delivered this round (duplicates count once).
    pub delivered: u64,
    /// Control frames sent this round.
    pub control_frames: u64,
    /// Data frames sent this round.
    pub data_frames: u64,
    /// Security frames sent this round.
    pub security_frames: u64,
    /// Gateways that moved at the round boundary.
    pub moved_gateways: usize,
    /// Whether the first sensor death happened by the end of this round.
    pub any_death: bool,
}

impl RoundReport {
    /// Per-round delivery ratio.
    pub fn delivery_ratio(&self) -> f64 {
        if self.originated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.originated as f64
        }
    }
}

/// Outcome of a lifetime loop.
#[derive(Clone, Copy, Debug)]
pub struct LifetimeResult {
    /// Completed rounds before the first sensor death (`None` if the
    /// round budget ran out first).
    pub lifetime_rounds: Option<u32>,
    /// Rounds actually executed.
    pub rounds_run: u32,
    /// Simulated time of the first death.
    pub death_time: Option<SimTime>,
}

fn snapshot(m: &Metrics) -> (u64, u64, u64, u64, u64) {
    (
        m.originated,
        m.unique_deliveries(),
        m.sent_control,
        m.sent_data,
        m.sent_security,
    )
}

/// What one protocol does in the shared round model.
pub trait Protocol {
    /// Salt of the round traffic's RNG stream,
    /// `SplitMix64::new(TRAFFIC_SALT ^ round_duration_us)`.
    const TRAFFIC_SALT: u64;

    /// The round-boundary step, before any traffic: move and announce
    /// gateways, reset round state, let the network settle. Returns how
    /// many gateways moved.
    fn boundary<H: SimHost>(&mut self, s: &mut Scenario<H>, round: u32) -> usize;

    /// Have `sensor` originate one reading.
    fn originate<H: SimHost>(world: &mut H, sensor: NodeId);

    /// The round's traffic: by default `s.traffic`'s messages from every
    /// live reporting sensor, staggered by a small per-node offset — real
    /// deployments do not sample synchronously, and under the collision
    /// model a synchronized burst would destroy itself — then one gap for
    /// the last readings to land.
    fn traffic<H: SimHost>(&mut self, s: &mut Scenario<H>, rng: &mut SplitMix64) {
        let msgs = s.traffic.msgs_per_sensor_per_round;
        let fraction = s.traffic.reporting_fraction;
        let gap = s.traffic.round_duration_us / (msgs as u64 + 1).max(2);
        let stagger = (gap / (s.sensors.len() as u64 + 1)).clamp(1, 5_000);
        for _ in 0..msgs {
            let mut used = 0;
            for &sensor in &s.sensors {
                if !s.world.is_alive(sensor) {
                    continue;
                }
                if fraction >= 1.0 || rng.chance(fraction) {
                    Self::originate(&mut s.world, sensor);
                    s.world.run_for(stagger);
                    used += stagger;
                }
            }
            s.world.run_for(gap.saturating_sub(used));
        }
        s.world.run_for(gap);
    }
}

/// Drives a [`Scenario`] round by round under protocol `P`.
///
/// Generic over the simulation host: `RoundDriver<P, World>` (the
/// default) drives the bit-exact reference, `RoundDriver<P,
/// ShardedWorld>` the parallel kernel — same rounds, same traffic
/// schedule, same RNG streams.
pub struct RoundDriver<P, H: SimHost = World> {
    /// The scenario being driven.
    pub scenario: Scenario<H>,
    /// The protocol's round step.
    pub protocol: P,
    round: u32,
    traffic_rng: SplitMix64,
}

/// Driver for MLR scenarios.
pub type MlrDriver = RoundDriver<Mlr>;
/// Driver for SPR scenarios, on any host.
pub type SprDriver<H = World> = RoundDriver<Spr, H>;
/// Driver for SecMLR scenarios.
pub type SecMlrDriver = RoundDriver<SecMlr>;
/// Driver for LEACH scenarios.
pub type LeachDriver = RoundDriver<Leach>;

impl<P: Protocol + Default, H: SimHost> RoundDriver<P, H> {
    /// Wrap a scenario.
    pub fn new(scenario: Scenario<H>) -> Self {
        let traffic_rng = SplitMix64::new(P::TRAFFIC_SALT ^ scenario.traffic.round_duration_us);
        RoundDriver {
            scenario,
            protocol: P::default(),
            round: 0,
            traffic_rng,
        }
    }
}

impl<P: Protocol, H: SimHost> RoundDriver<P, H> {
    /// Execute one round.
    pub fn run_round(&mut self) -> RoundReport {
        self.run_round_with(|_| {})
    }

    /// Execute one round with `fault` injected between the boundary step
    /// and the traffic (E8: LEACH heads dying right after their members
    /// joined them).
    pub fn run_round_with(&mut self, fault: impl FnOnce(&mut Scenario<H>)) -> RoundReport {
        let s = &mut self.scenario;
        let round = self.round;
        let before = snapshot(s.world.metrics());
        let moved = self.protocol.boundary(s, round);
        fault(s);
        self.protocol.traffic(s, &mut self.traffic_rng);
        self.round += 1;
        let at = s.world.now();
        s.world.snapshot_round(round, at);
        let m = s.world.metrics();
        let after = snapshot(m);
        RoundReport {
            round,
            originated: after.0 - before.0,
            delivered: after.1 - before.1,
            control_frames: after.2 - before.2,
            data_frames: after.3 - before.3,
            security_frames: after.4 - before.4,
            moved_gateways: moved,
            any_death: m.first_death.is_some(),
        }
    }

    /// Run `n` rounds.
    pub fn run_rounds(&mut self, n: u32) -> Vec<RoundReport> {
        (0..n).map(|_| self.run_round()).collect()
    }

    /// Run until the first sensor dies or `max_rounds` elapse.
    pub fn run_until_first_death(&mut self, max_rounds: u32) -> LifetimeResult {
        for _ in 0..max_rounds {
            let report = self.run_round();
            if report.any_death {
                return LifetimeResult {
                    lifetime_rounds: Some(report.round),
                    rounds_run: self.round,
                    death_time: self.scenario.world.metrics().first_death,
                };
            }
        }
        LifetimeResult {
            lifetime_rounds: None,
            rounds_run: self.round,
            death_time: None,
        }
    }
}

/// Reposition every gateway `placement` moved and let `announce` tell
/// it its new place.
fn move_gateways<H: SimHost>(
    s: &mut Scenario<H>,
    placement: &RoundPlacement,
    mut announce: impl FnMut(&mut H, NodeId, u16),
) {
    for &g in &placement.moved {
        let place = placement.occupied[g];
        let node = s.gateways[g];
        s.world.set_position(node, s.places.position(place));
        announce(&mut s.world, node, place as u16);
    }
}

/// MLR (§5.3): gateways move and announce at every boundary, round 0
/// included; sensors keep their incremental per-place tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct Mlr {
    /// Ablation: clear all sensor tables at each round boundary,
    /// emulating a naive table-driven protocol that re-discovers every
    /// round (the E5 baseline).
    pub reset_tables: bool,
}

impl Protocol for Mlr {
    const TRAFFIC_SALT: u64 = 0xF00D;

    fn boundary<H: SimHost>(&mut self, s: &mut Scenario<H>, round: u32) -> usize {
        let placement = s.schedule.next_round();
        move_gateways(s, &placement, |w, node, place| {
            w.with_behavior::<MlrGateway, _>(node, |b, ctx| b.set_place(ctx, place, round));
            // Composite WMGs (three-tier) hold the gateway inside.
            w.with_behavior::<WmgBehavior, _>(node, |b, ctx| {
                b.gateway.set_place(ctx, place, round);
            });
        });
        let reset_tables = self.reset_tables;
        for &sensor in &s.sensors {
            s.world.with_behavior::<MlrSensor, _>(sensor, |b, _| {
                b.reset_round();
                if reset_tables {
                    b.table.clear();
                }
            });
        }
        s.world.run_for(500_000); // announcements settle
        placement.moved.len()
    }

    fn originate<H: SimHost>(world: &mut H, sensor: NodeId) {
        world.with_behavior::<MlrSensor, _>(sensor, |b, ctx| b.originate(ctx));
    }
}

/// SPR (§5.2): static gateways; every round after the first starts from
/// empty tables and re-discovers on demand.
#[derive(Clone, Copy, Debug, Default)]
pub struct Spr;

impl Protocol for Spr {
    const TRAFFIC_SALT: u64 = 0xF00E;

    fn boundary<H: SimHost>(&mut self, s: &mut Scenario<H>, round: u32) -> usize {
        if round > 0 {
            for &sensor in &s.sensors {
                s.world
                    .with_behavior::<SprSensor, _>(sensor, |b, _| b.reset_round());
            }
            for &g in &s.gateways {
                s.world
                    .with_behavior::<SprGateway, _>(g, |b, _| b.reset_round());
            }
        }
        0
    }

    fn originate<H: SimHost>(world: &mut H, sensor: NodeId) {
        world.with_behavior::<SprSensor, _>(sensor, |b, ctx| b.originate(ctx));
    }
}

/// SecMLR: MLR's rounds with authenticated moves. Round-0 occupancy was
/// pre-loaded at deployment; later moves are announced over the air and
/// the settle covers the μTESLA disclosure delay, so they authenticate
/// before traffic flows.
#[derive(Clone, Copy, Debug, Default)]
pub struct SecMlr;

impl Protocol for SecMlr {
    const TRAFFIC_SALT: u64 = 0xF00F;

    fn boundary<H: SimHost>(&mut self, s: &mut Scenario<H>, round: u32) -> usize {
        let placement = s.schedule.next_round();
        if round > 0 {
            move_gateways(s, &placement, |w, node, place| {
                w.with_behavior::<SecMlrGateway, _>(node, |b, ctx| b.set_place(ctx, place, round));
            });
            if !placement.moved.is_empty() {
                // μTESLA: interval 250 ms × (delay 2 + 1) plus slack.
                s.world.run_for(1_000_000);
            }
        }
        s.world.run_for(200_000);
        placement.moved.len()
    }

    fn originate<H: SimHost>(world: &mut H, sensor: NodeId) {
        world.with_behavior::<SecMlrSensor, _>(sensor, |b, ctx| b.originate(ctx));
    }
}

/// LEACH (single sink): every round elects heads and members join them
/// (the boundary), then members report and heads flush to the sink.
#[derive(Clone, Copy, Debug, Default)]
pub struct Leach;

impl Leach {
    /// Kill every current cluster head (E8's fault injection; pass to
    /// [`RoundDriver::run_round_with`]).
    pub fn kill_heads<H: SimHost>(s: &mut Scenario<H>) {
        let heads: Vec<NodeId> = s
            .sensors
            .iter()
            .copied()
            .filter(|&id| {
                s.world
                    .behavior_as::<LeachSensor>(id)
                    .is_some_and(|b| b.is_head)
            })
            .collect();
        for h in heads {
            s.world.kill(h);
        }
    }
}

impl Protocol for Leach {
    /// LEACH's reports draw nothing from the traffic stream.
    const TRAFFIC_SALT: u64 = 0;

    fn boundary<H: SimHost>(&mut self, s: &mut Scenario<H>, round: u32) -> usize {
        for &id in &s.sensors {
            s.world
                .with_behavior::<LeachSensor, _>(id, |b, ctx| b.start_round(ctx, round));
        }
        s.world.run_for(200_000);
        0
    }

    fn originate<H: SimHost>(world: &mut H, sensor: NodeId) {
        world.with_behavior::<LeachSensor, _>(sensor, |b, ctx| b.report(ctx));
    }

    fn traffic<H: SimHost>(&mut self, s: &mut Scenario<H>, _rng: &mut SplitMix64) {
        for &id in &s.sensors {
            Self::originate(&mut s.world, id);
        }
        s.world.run_for(200_000);
        for &id in &s.sensors {
            s.world
                .with_behavior::<LeachSensor, _>(id, |b, ctx| b.flush(ctx));
        }
        s.world.run_for(200_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::*;
    use crate::params::*;

    fn small_field(seed: u64) -> FieldParams {
        FieldParams {
            battery_j: 1.0,
            ..FieldParams::default_uniform(40, seed)
        }
    }

    #[test]
    fn mlr_round_delivers_most_traffic() {
        let s = build_mlr(
            &small_field(1),
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        );
        let mut d = MlrDriver::new(s);
        let r = d.run_round();
        assert_eq!(r.originated, 40);
        assert!(
            r.delivery_ratio() > 0.9,
            "round 0 ratio {} ({} delivered)",
            r.delivery_ratio(),
            r.delivered
        );
        assert_eq!(r.moved_gateways, 3, "round 0 announces everyone");
    }

    #[test]
    fn mlr_control_traffic_collapses_after_round_zero() {
        let s = build_mlr(
            &small_field(2),
            &GatewayParams::default_three(), // static
            TrafficParams::default(),
            0.0,
        );
        let mut d = MlrDriver::new(s);
        let r0 = d.run_round();
        let r1 = d.run_round();
        let r2 = d.run_round();
        assert!(
            r1.control_frames < r0.control_frames / 5,
            "steady state should need almost no control traffic: r0={} r1={}",
            r0.control_frames,
            r1.control_frames
        );
        assert!(r2.delivery_ratio() > 0.9);
    }

    #[test]
    fn table_reset_ablation_pays_discovery_every_round() {
        let build = || {
            build_mlr(
                &small_field(3),
                &GatewayParams::default_three(),
                TrafficParams::default(),
                0.0,
            )
        };
        let mut incremental = MlrDriver::new(build());
        let mut reset = MlrDriver::new(build());
        reset.protocol.reset_tables = true;
        let inc: u64 = incremental
            .run_rounds(4)
            .iter()
            .skip(1)
            .map(|r| r.control_frames)
            .sum();
        let rst: u64 = reset
            .run_rounds(4)
            .iter()
            .skip(1)
            .map(|r| r.control_frames)
            .sum();
        assert!(
            rst > inc.max(1) * 5,
            "reset ablation must flood every round: incremental={inc} reset={rst}"
        );
    }

    #[test]
    fn mlr_rotating_gateways_keep_delivering() {
        // Rotation visits new places for several rounds; discovery floods
        // are energy-hungry, so give the field headroom.
        let field = FieldParams {
            battery_j: 10.0,
            ..small_field(4)
        };
        let s = build_mlr(
            &field,
            &GatewayParams::rotating(3, 3, 3),
            TrafficParams::default(),
            0.0,
        );
        let mut d = MlrDriver::new(s);
        let reports = d.run_rounds(5);
        for r in &reports[1..] {
            assert!(
                r.delivery_ratio() > 0.85,
                "round {} ratio {}",
                r.round,
                r.delivery_ratio()
            );
            assert!(r.moved_gateways <= 1, "round-robin moves one gateway");
        }
    }

    #[test]
    fn spr_driver_resets_tables_and_still_delivers() {
        let s = build_spr(
            &small_field(5),
            &GatewayParams::default_three(),
            TrafficParams::default(),
        );
        let mut d = SprDriver::new(s);
        let r0 = d.run_round();
        let r1 = d.run_round();
        assert!(r0.delivery_ratio() > 0.9);
        assert!(r1.delivery_ratio() > 0.9);
        // Reset ⇒ discovery traffic every round.
        assert!(r1.control_frames > 0);
    }

    #[test]
    fn lifetime_loop_terminates_on_first_death() {
        // Tiny batteries: a few rounds only.
        let field = FieldParams {
            battery_j: 0.02, // 20 packets worth
            ..FieldParams::default_uniform(30, 6)
        };
        let s = build_mlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        );
        let mut d = MlrDriver::new(s);
        let lt = d.run_until_first_death(200);
        assert!(lt.lifetime_rounds.is_some(), "somebody must die");
        assert!(lt.lifetime_rounds.unwrap() < 60);
        assert!(lt.death_time.is_some());
    }

    #[test]
    fn secmlr_driver_survives_gateway_movement() {
        // Secure discovery re-runs after every move (routes are
        // gateway-keyed); give batteries headroom for the floods.
        let field = FieldParams {
            battery_j: 10.0,
            ..small_field(7)
        };
        let s = build_secmlr(
            &field,
            &GatewayParams::rotating(2, 3, 2),
            TrafficParams::default(),
        );
        let mut d = SecMlrDriver::new(s);
        let reports = d.run_rounds(3);
        assert!(
            reports[0].delivery_ratio() > 0.9,
            "round 0: {:?}",
            reports[0]
        );
        for r in &reports[1..] {
            assert!(
                r.delivery_ratio() > 0.8,
                "round {} ratio {} after a secure move",
                r.round,
                r.delivery_ratio()
            );
        }
        // μTESLA key disclosures happened.
        let m = d.scenario.world.metrics();
        assert!(m.sent_security > 0);
    }

    #[test]
    fn leach_driver_round_and_fault_injection() {
        let field = small_field(8);
        let s = build_leach(&field, wmsn_util::Point::new(50.0, 140.0), 0.15);
        let mut d = LeachDriver::new(s);
        let healthy = d.run_round();
        assert!(healthy.delivery_ratio() > 0.95, "{:?}", healthy);
        let faulty = d.run_round_with(Leach::kill_heads);
        assert!(
            faulty.delivery_ratio() < healthy.delivery_ratio(),
            "killing heads must hurt: {} vs {}",
            faulty.delivery_ratio(),
            healthy.delivery_ratio()
        );
    }
}
