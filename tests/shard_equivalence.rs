//! Shard equivalence: the parallel kernel is observationally identical
//! to the single-threaded reference.
//!
//! The sharded kernel (`wmsn::sim::ShardedWorld`) cuts the world into
//! spatial strips and runs one event loop per strip under conservative
//! windowed synchronisation. Its correctness argument (causal event
//! keys + lookahead ≥ the minimum propagation delay) promises *bit*
//! equality of every routing-visible outcome, not statistical
//! similarity — so these tests compare bit patterns:
//!
//! * E1-style SPR rounds across 4 seeds × {2, 4, 8} shards: the full
//!   metric fingerprint (ratios, counters, per-node energy, and the
//!   per-delivery ledger) must equal the reference run's exactly;
//! * an E6-style attack rig (sinkhole / blackhole / replayer on the
//!   MLR line world) must fingerprint identically — adversarial
//!   behaviours ride the same envelope. The wormhole arms are excluded
//!   by design: the endpoint pair shares state through an `Rc`, which
//!   the shard cells' disjointness rule forbids;
//! * the large-scale E9 round (`e9_large_round`) must report identical
//!   routing outcomes for every shard count;
//! * the unicast fast path must be observationally inert (same
//!   fingerprint with the optimisation forced off).
//!
//! Thread count defaults to 2 (the CI setting) and can be raised with
//! `SHARD_TEST_THREADS=n` to exercise real parallelism locally.

use wmsn::attacks::sinkhole::TargetProtocol;
use wmsn::attacks::{Replayer, SelectiveForwarder, Sinkhole};
use wmsn::core::builder::{build_spr, SprScenario};
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{e9_large, e9_large_round, e9_large_scenario};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::routing::mlr::{MlrConfig, MlrGateway, MlrSensor};
use wmsn::sim::{Behavior, NodeConfig, PacketKind, ShardedWorld, SimHost, World, WorldConfig};
use wmsn::topology::strip_shards;
use wmsn::util::{NodeId, Point};

fn test_threads() -> usize {
    std::env::var("SHARD_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// FNV-1a 64 over a stream of words — used to fold the per-delivery
/// ledger into one comparable value.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Full observational fingerprint of a finished run: aggregate metrics
/// bit-cast, per-node tx/energy vectors, and the delivery ledger in
/// recorded order.
fn fingerprint<H: SimHost>(world: &mut H, sensors: &[NodeId]) -> Vec<u64> {
    let m = world.metrics();
    let mut fp = vec![
        m.delivery_ratio().to_bits(),
        m.mean_hops().to_bits(),
        m.mean_latency_us().to_bits(),
        m.originated,
        m.unique_deliveries(),
        m.sent_data,
        m.sent_control,
        m.sent_bytes_data,
        m.sent_bytes_control,
        m.received,
        m.lost,
        m.collided,
        m.csma_deferrals,
        m.total_energy(sensors).to_bits(),
        m.energy_d2(sensors).to_bits(),
    ];
    fp.push(fnv_words(m.node_tx.iter().copied()));
    fp.push(fnv_words(m.energy_consumed.iter().map(|e| e.to_bits())));
    fp.push(fnv_words(m.deliveries.iter().flat_map(|d| {
        [
            d.source.0 as u64,
            d.destination.0 as u64,
            d.msg_id,
            d.sent_at,
            d.delivered_at,
            d.hops as u64,
        ]
    })));
    fp
}

// ------------------------------------------------------------ E1 arm --

/// E1-style field: 40 sensors, 3 gateways. Batteries are raised to
/// 10 J — finite, so the energy ledger is exercised, but comfortably
/// death-free (the sharded kernel's envelope requires that no node dies
/// mid-run).
fn e1_field(seed: u64) -> (FieldParams, GatewayParams) {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(40, seed)
    };
    (field, GatewayParams::default_three())
}

fn shard_scenario(scen: SprScenario, shards: usize, threads: usize) -> SprScenario<ShardedWorld> {
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    let assignment = strip_shards(&positions, scen.range_m, shards);
    scen.map_world(|w| ShardedWorld::from_world(w, assignment, threads))
}

#[test]
fn e1_rounds_match_reference_bit_for_bit_across_seeds_and_shard_counts() {
    let threads = test_threads();
    for seed in [11, 23, 37, 53] {
        let (field, gw) = e1_field(seed);
        let mut reference = SprDriver::new(build_spr(&field, &gw, TrafficParams::default()));
        reference.run_round();
        let sensors = reference.scenario.sensors.clone();
        let want = fingerprint(&mut reference.scenario.world, &sensors);
        for shards in [2, 4, 8] {
            let scen = build_spr(&field, &gw, TrafficParams::default());
            let mut d = SprDriver::new(shard_scenario(scen, shards, threads));
            d.run_round();
            let got = fingerprint(&mut d.scenario.world, &sensors);
            assert_eq!(
                got, want,
                "seed {seed}, {shards} shards: fingerprint diverged from reference"
            );
        }
    }
}

// ------------------------------------------------------------ E6 arm --

/// The E6 rig minus the wormhole arms: 10 MLR sensors on a line, a
/// gateway at the end, and one adversary. Returns the un-started world
/// plus everything needed to shard and drive it.
fn attack_line_world(attack: &str) -> (World, Vec<NodeId>, NodeId, Vec<Point>) {
    let n = 10usize;
    let mut cfg = WorldConfig::ideal(7);
    cfg.sensor_phy.range_m = 10.0;
    let mut world = World::new(cfg);
    let mut positions = Vec::new();
    let mut sensors = Vec::new();
    for i in 0..n {
        let pos = Point::new(i as f64 * 10.0, 0.0);
        let honest: Box<dyn Behavior> = MlrSensor::boxed(MlrConfig::default());
        let behavior = if attack == "blackhole" && i == 1 {
            SelectiveForwarder::boxed(honest, 1.0)
        } else {
            honest
        };
        positions.push(pos);
        sensors.push(world.add_node(NodeConfig::sensor(pos, 100.0), behavior));
    }
    let gw_pos = Point::new(n as f64 * 10.0, 0.0);
    let gw = world.add_node(NodeConfig::gateway(gw_pos), MlrGateway::boxed(0));
    positions.push(gw_pos);
    match attack {
        "sinkhole" => {
            let pos = Point::new(0.0, 8.0);
            let a = world.add_node(
                NodeConfig::sensor(pos, 100.0),
                Sinkhole::boxed(TargetProtocol::Mlr, gw, 0),
            );
            positions.push(pos);
            world.set_promiscuous(a, true);
        }
        "replay" => {
            let pos = Point::new(15.0, 6.0);
            let a = world.add_node(
                NodeConfig::sensor(pos, 100.0),
                Replayer::boxed(400_000, Some(PacketKind::Data), 200),
            );
            positions.push(pos);
            world.set_promiscuous(a, true);
        }
        _ => {}
    }
    (world, sensors, gw, positions)
}

/// Drive the attack world one announce + traffic cycle (the E6
/// sequence) on either kernel.
fn drive_attack<H: SimHost>(world: &mut H, sensors: &[NodeId], gw: NodeId) -> Vec<u64> {
    world.start();
    world.with_behavior::<MlrGateway, _>(gw, |g, ctx| g.set_place(ctx, 0, 0));
    world.run_for(500_000);
    for &s in sensors {
        world.with_behavior::<MlrSensor, _>(s, |b, ctx| b.originate(ctx));
        world.run_for(10_000);
    }
    world.run_for(500_000);
    fingerprint(world, sensors)
}

#[test]
fn e6_attack_worlds_match_reference_bit_for_bit() {
    let threads = test_threads();
    for attack in ["none", "sinkhole", "blackhole", "replay"] {
        let (mut reference, sensors, gw, _) = attack_line_world(attack);
        let want = drive_attack(&mut reference, &sensors, gw);
        for shards in [2, 4] {
            let (world, sensors, gw, positions) = attack_line_world(attack);
            let assignment = strip_shards(&positions, 10.0, shards);
            let mut sharded = ShardedWorld::from_world(world, assignment, threads);
            let got = drive_attack(&mut sharded, &sensors, gw);
            assert_eq!(
                got, want,
                "attack {attack:?}, {shards} shards: fingerprint diverged"
            );
        }
    }
}

// ------------------------------------------------------------ E9 arm --

#[test]
fn e9_large_round_matches_reference_across_shard_counts() {
    let reference = e9_large(1200, 17, 12);
    assert!(reference.originated > 0, "workload must originate traffic");
    assert!(
        reference.unique_deliveries > 0,
        "workload must deliver traffic"
    );
    for shards in [2, 4, 8] {
        // Cut the scenario into strips along the sensor-range grid seam,
        // the base station included.
        let (scen, base) = e9_large_scenario(1200, 17);
        let mut positions = scen.sensor_positions.clone();
        positions.extend_from_slice(&scen.gateway_positions);
        positions.push(scen.world.node(base).pos);
        let assignment = strip_shards(&positions, scen.range_m, shards);
        let mut sharded =
            scen.map_world(|w| ShardedWorld::from_world(w, assignment, test_threads()));
        let got = e9_large_round(&mut sharded, base, 12);
        assert_eq!(got.originated, reference.originated, "{shards} shards");
        assert_eq!(
            got.unique_deliveries, reference.unique_deliveries,
            "{shards} shards"
        );
        assert_eq!(
            got.delivery_ratio.to_bits(),
            reference.delivery_ratio.to_bits(),
            "{shards} shards"
        );
        assert_eq!(
            got.mean_latency_us.to_bits(),
            reference.mean_latency_us.to_bits(),
            "{shards} shards"
        );
    }
}

// ------------------------------------------------------ fast-path arm --

#[test]
fn unicast_fast_path_is_observationally_inert() {
    let (field, gw) = e1_field(11);
    let mut on = SprDriver::new(build_spr(&field, &gw, TrafficParams::default()));
    on.run_round();
    let sensors = on.scenario.sensors.clone();
    let want = fingerprint(&mut on.scenario.world, &sensors);

    let mut scen = build_spr(&field, &gw, TrafficParams::default());
    scen.world.set_unicast_fast_path(false);
    let mut off = SprDriver::new(scen);
    off.run_round();
    let got = fingerprint(&mut off.scenario.world, &sensors);
    assert_eq!(got, want, "fast path must not change observable outcomes");
}
