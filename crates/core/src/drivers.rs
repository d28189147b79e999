//! Round drivers: the experiment-side orchestration of §5.1's round
//! structure ("the period during which all gateways are static").
//!
//! A driver owns a scenario and, per round: advances the movement
//! schedule, repositions moved gateways and triggers their announcements,
//! lets the network settle, injects application traffic, and snapshots
//! the metrics delta. Lifetime experiments loop rounds until the first
//! sensor dies (the paper's lifetime definition).

use crate::builder::{MlrScenario, SecMlrScenario, SprScenario};
use wmsn_routing::leach::LeachSensor;
use wmsn_routing::mlr::{MlrGateway, MlrSensor};
use wmsn_routing::spr::{SprGateway, SprSensor};
use wmsn_secure::{SecMlrGateway, SecMlrSensor};
use wmsn_sim::{Metrics, SimHost, SimTime, World};
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

fn delta_report(
    round: u32,
    before: (u64, u64, u64, u64, u64),
    m: &Metrics,
    moved: usize,
) -> RoundReport {
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

/// Inject one round of traffic: each reporting sensor originates
/// `msgs` messages. Sensors are staggered by a small per-node offset —
/// real deployments do not sample synchronously, and under the collision
/// model a synchronized burst would destroy itself.
fn inject_traffic<H, F>(
    world: &mut H,
    sensors: &[NodeId],
    msgs: u32,
    fraction: f64,
    gap_us: SimTime,
    rng: &mut SplitMix64,
    mut originate: F,
) where
    H: SimHost,
    F: FnMut(&mut H, NodeId),
{
    let stagger = (gap_us / (sensors.len() as u64 + 1)).clamp(1, 5_000);
    for _ in 0..msgs {
        let mut used = 0;
        for &s in sensors {
            if !world.node(s).alive {
                continue;
            }
            if fraction >= 1.0 || rng.chance(fraction) {
                originate(world, s);
                world.run_for(stagger);
                used += stagger;
            }
        }
        world.run_for(gap_us.saturating_sub(used));
    }
}

/// Driver for MLR scenarios.
pub struct MlrDriver {
    /// The scenario being driven.
    pub scenario: MlrScenario,
    round: u32,
    /// Ablation: clear all sensor tables at each round boundary,
    /// emulating a naive table-driven protocol that re-discovers every
    /// round (the E5 baseline).
    pub reset_tables: bool,
    traffic_rng: SplitMix64,
}

impl MlrDriver {
    /// Wrap a scenario.
    pub fn new(scenario: MlrScenario) -> Self {
        let traffic_rng = SplitMix64::new(0xF00D ^ scenario.traffic.round_duration_us);
        MlrDriver {
            scenario,
            round: 0,
            reset_tables: false,
            traffic_rng,
        }
    }

    /// Enable the table-reset ablation.
    pub fn with_table_reset(mut self) -> Self {
        self.reset_tables = true;
        self
    }

    /// Rounds completed so far.
    pub fn rounds_run(&self) -> u32 {
        self.round
    }

    /// Execute one round.
    pub fn run_round(&mut self) -> RoundReport {
        let s = &mut self.scenario;
        let before = snapshot(s.world.metrics());
        let placement = s.schedule.next_round();
        let round = self.round;
        for &g in &placement.moved {
            let place = placement.occupied[g];
            let node = s.gateways[g];
            s.world.set_position(node, s.places.position(place));
            s.world.with_behavior::<MlrGateway, _>(node, |b, ctx| {
                b.set_place(ctx, place as u16, round);
            });
            // Composite WMGs (three-tier) hold the gateway inside.
            s.world
                .with_behavior::<crate::wmg::WmgBehavior, _>(node, |b, ctx| {
                    b.gateway.set_place(ctx, place as u16, round);
                });
        }
        for &sensor in &s.sensors {
            s.world.with_behavior::<MlrSensor, _>(sensor, |b, _| {
                b.reset_round();
                if self.reset_tables {
                    b.table.clear();
                }
            });
        }
        s.world.run_for(500_000); // announcements settle
        let msgs = s.traffic.msgs_per_sensor_per_round;
        let fraction = s.traffic.reporting_fraction;
        let gap = s.traffic.round_duration_us / (msgs as u64 + 1).max(2);
        inject_traffic(
            &mut s.world,
            &s.sensors,
            msgs,
            fraction,
            gap,
            &mut self.traffic_rng,
            |w, id| {
                w.with_behavior::<MlrSensor, _>(id, |b, ctx| b.originate(ctx));
            },
        );
        s.world.run_for(gap);
        self.round += 1;
        let at = s.world.now();
        s.world.metrics_mut().snapshot_round(round, at);
        delta_report(round, before, s.world.metrics(), placement.moved.len())
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

/// Driver for SPR scenarios (static gateways; per-round table reset is
/// the protocol's own semantics, §5.2).
///
/// Generic over the simulation host: `SprDriver<World>` (the default)
/// drives the bit-exact reference, `SprDriver<ShardedWorld>` the
/// parallel kernel — same rounds, same traffic schedule, same RNG
/// streams.
pub struct SprDriver<H: SimHost = World> {
    /// The scenario being driven.
    pub scenario: SprScenario<H>,
    round: u32,
    /// Reset tables each round (SPR's defined behaviour; disable to
    /// measure the pure on-demand cache steady state).
    pub reset_each_round: bool,
    traffic_rng: SplitMix64,
}

impl<H: SimHost> SprDriver<H> {
    /// Wrap a scenario.
    pub fn new(scenario: SprScenario<H>) -> Self {
        let traffic_rng = SplitMix64::new(0xF00E ^ scenario.traffic.round_duration_us);
        SprDriver {
            scenario,
            round: 0,
            reset_each_round: true,
            traffic_rng,
        }
    }

    /// Execute one round.
    pub fn run_round(&mut self) -> RoundReport {
        let s = &mut self.scenario;
        let before = snapshot(s.world.metrics());
        if self.reset_each_round && self.round > 0 {
            for &sensor in &s.sensors {
                s.world
                    .with_behavior::<SprSensor, _>(sensor, |b, _| b.reset_round());
            }
            for &g in &s.gateways {
                s.world
                    .with_behavior::<SprGateway, _>(g, |b, _| b.reset_round());
            }
        }
        let msgs = s.traffic.msgs_per_sensor_per_round;
        let fraction = s.traffic.reporting_fraction;
        let gap = s.traffic.round_duration_us / (msgs as u64 + 1).max(2);
        inject_traffic(
            &mut s.world,
            &s.sensors,
            msgs,
            fraction,
            gap,
            &mut self.traffic_rng,
            |w, id| {
                w.with_behavior::<SprSensor, _>(id, |b, ctx| b.originate(ctx));
            },
        );
        s.world.run_for(gap);
        let round = self.round;
        self.round += 1;
        let at = s.world.now();
        s.world.snapshot_round(round, at);
        delta_report(round, before, s.world.metrics(), 0)
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

/// Driver for SecMLR scenarios.
pub struct SecMlrDriver {
    /// The scenario being driven.
    pub scenario: SecMlrScenario,
    round: u32,
    traffic_rng: SplitMix64,
}

impl SecMlrDriver {
    /// Wrap a scenario.
    pub fn new(scenario: SecMlrScenario) -> Self {
        let traffic_rng = SplitMix64::new(0xF00F ^ scenario.traffic.round_duration_us);
        SecMlrDriver {
            scenario,
            round: 0,
            traffic_rng,
        }
    }

    /// Execute one round. Settling covers the μTESLA disclosure delay so
    /// moved-gateway announcements authenticate before traffic flows.
    pub fn run_round(&mut self) -> RoundReport {
        let s = &mut self.scenario;
        let before = snapshot(s.world.metrics());
        let placement = s.schedule.next_round();
        let round = self.round;
        // Round 0 occupancy was pre-loaded at deployment; later rounds
        // announce moves over the air.
        if round > 0 {
            for &g in &placement.moved {
                let place = placement.occupied[g];
                let node = s.gateways[g];
                s.world.set_position(node, s.places.position(place));
                s.world.with_behavior::<SecMlrGateway, _>(node, |b, ctx| {
                    b.set_place(ctx, place as u16, round);
                });
            }
            if !placement.moved.is_empty() {
                // μTESLA: interval 250 ms × (delay 2 + 1) plus slack.
                s.world.run_for(1_000_000);
            }
        }
        s.world.run_for(200_000);
        let msgs = s.traffic.msgs_per_sensor_per_round;
        let fraction = s.traffic.reporting_fraction;
        let gap = s.traffic.round_duration_us / (msgs as u64 + 1).max(2);
        inject_traffic(
            &mut s.world,
            &s.sensors,
            msgs,
            fraction,
            gap,
            &mut self.traffic_rng,
            |w, id| {
                w.with_behavior::<SecMlrSensor, _>(id, |b, ctx| b.originate(ctx));
            },
        );
        s.world.run_for(gap);
        self.round += 1;
        let at = s.world.now();
        s.world.metrics_mut().snapshot_round(round, at);
        delta_report(round, before, s.world.metrics(), placement.moved.len())
    }

    /// Run `n` rounds.
    pub fn run_rounds(&mut self, n: u32) -> Vec<RoundReport> {
        (0..n).map(|_| self.run_round()).collect()
    }
}

/// Driver for LEACH scenarios.
pub struct LeachDriver {
    /// The scenario being driven.
    pub scenario: crate::builder::LeachScenario,
    round: u32,
}

impl LeachDriver {
    /// Wrap a scenario.
    pub fn new(scenario: crate::builder::LeachScenario) -> Self {
        LeachDriver { scenario, round: 0 }
    }

    /// Execute one LEACH round (elect → advertise → report → flush).
    /// `kill_heads_after_join` implements the E8 fault injection: heads
    /// die right after members joined them.
    pub fn run_round(&mut self, kill_heads_after_join: bool) -> RoundReport {
        let s = &mut self.scenario;
        let before = snapshot(s.world.metrics());
        let round = self.round;
        for &id in &s.sensors {
            s.world.with_behavior::<LeachSensor, _>(id, |b, ctx| {
                b.start_round(ctx, round);
            });
        }
        s.world.run_for(200_000);
        if kill_heads_after_join {
            let heads: Vec<NodeId> = s
                .sensors
                .iter()
                .copied()
                .filter(|&id| {
                    s.world
                        .behavior_as::<LeachSensor>(id)
                        .map(|b| b.is_head)
                        .unwrap_or(false)
                })
                .collect();
            for h in heads {
                s.world.kill(h);
            }
        }
        for &id in &s.sensors {
            s.world
                .with_behavior::<LeachSensor, _>(id, |b, ctx| b.report(ctx));
        }
        s.world.run_for(200_000);
        for &id in &s.sensors {
            s.world
                .with_behavior::<LeachSensor, _>(id, |b, ctx| b.flush(ctx));
        }
        s.world.run_for(200_000);
        self.round += 1;
        let at = s.world.now();
        s.world.metrics_mut().snapshot_round(round, at);
        delta_report(round, before, s.world.metrics(), 0)
    }

    /// Run until the first sensor dies or `max_rounds` elapse.
    pub fn run_until_first_death(&mut self, max_rounds: u32) -> LifetimeResult {
        for _ in 0..max_rounds {
            let report = self.run_round(false);
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
        let mut reset = MlrDriver::new(build()).with_table_reset();
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
        let s = build_leach(
            &field,
            wmsn_util::Point::new(50.0, 140.0),
            0.15,
            TrafficParams::default(),
        );
        let mut d = LeachDriver::new(s);
        let healthy = d.run_round(false);
        assert!(healthy.delivery_ratio() > 0.95, "{:?}", healthy);
        let faulty = d.run_round(true);
        assert!(
            faulty.delivery_ratio() < healthy.delivery_ratio(),
            "killing heads must hurt: {} vs {}",
            faulty.delivery_ratio(),
            healthy.delivery_ratio()
        );
    }
}
