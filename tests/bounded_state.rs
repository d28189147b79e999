//! Per-node protocol state stays bounded over long runs.
//!
//! The paper's protocols are round-based and long-lived: SPR clears its
//! flood state every round (§5.2), MLR keeps a place-keyed table across
//! rounds for the network's whole lifetime (§5.3). These tests run many
//! rounds and check that what a node keeps depends on one round's
//! traffic (or on the field), never on how many rounds have gone by:
//!
//! * an SPR field with one flood from a new origin per round keeps every
//!   sensor's RREQ dedup table within a constant factor of the origins
//!   live in the current round — with one origin per round, the dedup
//!   table's inline slot holds it and no sensor allocates a heap table
//!   at all — and its outcomes stay those of a second run of the same
//!   seed checked round by round;
//! * MLR's place-keyed table holds at most one entry per feasible place
//!   (`|P|`, Table 1), and its RREP relay-damping map stays at one
//!   round's size, even when every round rediscovers (the E5 ablation).

use wmsn::core::builder::{build_mlr, build_spr, SprScenario};
use wmsn::core::drivers::MlrDriver;
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::routing::mlr::MlrSensor;
use wmsn::routing::spr::{SprGateway, SprSensor};
use wmsn::util::rng::SplitMix64;
use wmsn::util::NodeId;

const SPR_SENSORS: usize = 300;
const SPR_ROUNDS: usize = 1_000;

fn spr_field() -> SprScenario {
    let field = FieldParams {
        battery_j: f64::INFINITY,
        ..FieldParams::constant_density(SPR_SENSORS, 0.01, 17)
    };
    build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    )
}

/// One flood source per round: the sensors in a fresh seeded order each
/// pass, so consecutive rounds never share an origin.
fn sources(sensors: &[NodeId]) -> Vec<NodeId> {
    let mut rng = SplitMix64::new(0xB0_0DED);
    let mut out = Vec::with_capacity(SPR_ROUNDS);
    while out.len() < SPR_ROUNDS {
        let mut pass = sensors.to_vec();
        rng.shuffle(&mut pass);
        if out.last() == pass.first() {
            pass.rotate_left(1);
        }
        out.extend(pass);
    }
    out.truncate(SPR_ROUNDS);
    out
}

/// `(destination, msg_id, sent_at, delivered_at, hops)` per delivery.
type Deliveries = Vec<(u32, u64, u64, u64, u32)>;

/// Run one SPR round: reset every node's round state, flood from
/// `source`, and return the round's deliveries.
fn spr_round(scen: &mut SprScenario, source: NodeId) -> Deliveries {
    for &s in &scen.sensors {
        scen.world
            .with_behavior::<SprSensor, _>(s, |b, _| b.reset_round());
    }
    for &g in &scen.gateways {
        scen.world
            .with_behavior::<SprGateway, _>(g, |b, _| b.reset_round());
    }
    let before = scen.world.metrics().deliveries.len();
    scen.world
        .with_behavior::<SprSensor, _>(source, |b, ctx| b.schedule_originate(ctx, 1));
    scen.world.run_for(scen.traffic.round_duration_us);
    scen.world.metrics().deliveries[before..]
        .iter()
        .map(|d| (d.destination.0, d.msg_id, d.sent_at, d.delivered_at, d.hops))
        .collect()
}

#[test]
fn spr_dedup_tables_stay_sized_by_the_live_round_over_1000_floods() {
    let mut long = spr_field();
    let order = sources(&long.sensors);
    let mut per_round = Vec::with_capacity(SPR_ROUNDS);
    for (round, &source) in order.iter().enumerate() {
        let got = spr_round(&mut long, source);
        assert_eq!(got.len(), 1, "round {round}: one delivery from {source:?}");
        per_round.push(got);
        // Each round's generation holds at most one live origin per
        // sensor (the round's source); stale origins from earlier
        // rounds must not keep the table large.
        for &s in &long.sensors {
            let b = long.world.behavior_as::<SprSensor>(s).unwrap();
            let live = 1;
            assert!(
                b.seen_rreq_capacity() <= 4 * live.max(8),
                "round {round}: sensor {s:?} RREQ table holds {} slots",
                b.seen_rreq_capacity()
            );
            // The one origin sits in the table's inline slot.
            assert_eq!(
                b.seen_rreq_capacity(),
                0,
                "round {round}: sensor {s:?} allocated a heap RREQ table"
            );
            // RREP damping keys are (origin, req, gateway): one origin,
            // at most 1 + max_retries requests, three gateways.
            assert!(
                b.seen_rrep_capacity() <= 2 * 3 * 3,
                "round {round}: sensor {s:?} RREP map holds {}",
                b.seen_rrep_capacity()
            );
        }
    }
    // A second run of the same seed, compared round by round.
    let mut check = spr_field();
    for (round, &source) in order.iter().enumerate() {
        assert_eq!(
            spr_round(&mut check, source),
            per_round[round],
            "round {round} diverged"
        );
    }
}

#[test]
fn mlr_tables_hold_at_most_one_entry_per_place_and_relay_state_one_round() {
    let gw = GatewayParams::rotating(3, 3, 3);
    let places = gw.n_places();
    let field = FieldParams {
        battery_j: f64::INFINITY,
        ..FieldParams::default_uniform(100, 7)
    };
    for rediscover_every_round in [false, true] {
        let mut d = MlrDriver::new(build_mlr(&field, &gw, TrafficParams::default(), 0.0));
        d.protocol.reset_tables = rediscover_every_round;
        let sensors = d.scenario.sensors.clone();
        let mut first_round_peak = 0;
        for round in 0..40 {
            d.run_round();
            let w = &d.scenario.world;
            let mut peak = 0;
            for &s in &sensors {
                let b = w.behavior_as::<MlrSensor>(s).unwrap();
                let mut seen: Vec<u16> = b.table.iter().map(|r| r.place).collect();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), b.table.len(), "one entry per place");
                assert!(b.table.len() <= places, "sensor {s:?}: {}", b.table.len());
                peak = peak.max(b.seen_rrep_capacity());
            }
            if round == 0 {
                first_round_peak = peak;
            }
            // Round 0 is a full discovery wave, the heaviest round; a
            // map that kept earlier rounds' replies would outgrow it.
            assert!(
                peak <= 2 * first_round_peak,
                "rediscover {rediscover_every_round}, round {round}: RREP map {peak} vs {first_round_peak}"
            );
        }
        // After |P| rotating rounds every place has been visited.
        if !rediscover_every_round {
            for &s in &sensors {
                let b = d.scenario.world.behavior_as::<MlrSensor>(s).unwrap();
                assert_eq!(b.table.len(), places, "sensor {s:?} learned every place");
            }
        }
    }
}
