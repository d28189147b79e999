//! Golden-trace determinism and trace-accounting integration tests.
//!
//! Extends the PR-1 golden suite to the observability layer:
//!
//! * the JSONL trace of the E1 kernel is **byte-identical** across two
//!   runs with the same seed (the trace is part of the deterministic
//!   output surface, like the metrics the golden values pin);
//! * the trace is rich enough to reconstruct the full hop-by-hop path
//!   of a delivered message (the `wmsn-trace` CLI acceptance
//!   criterion);
//! * drop events with causes `dead`/`collision`/`loss` sum exactly to
//!   the `Metrics` counters they mirror.

use wmsn::core::builder::build_spr;
use wmsn::core::drivers::SprDriver;
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::routing::flooding::{FloodMode, FloodSensor, FloodSink};
use wmsn::sim::{CollisionModel, NodeConfig, World, WorldConfig};
use wmsn::trace::{capture_path_of, BufferSink, CountingSink, Replay};
use wmsn::util::Point;

/// Run the E1 kernel (SPR, 40 sensors, 3 gateways) for one round with a
/// [`BufferSink`] installed and return the captured JSONL bytes.
fn traced_e1_run(seed: u64) -> String {
    let field = FieldParams::default_uniform(40, seed);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut d = SprDriver::new(scen);
    d.scenario.world.set_trace_sink(Box::new(BufferSink::new()));
    d.run_round();
    let sink = d.scenario.world.take_trace_sink().expect("sink installed");
    sink.as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out
        .clone()
}

#[test]
fn e1_trace_is_byte_identical_for_a_fixed_seed() {
    for seed in [11, 23] {
        let a = traced_e1_run(seed);
        let b = traced_e1_run(seed);
        assert!(!a.is_empty(), "seed {seed}: trace must not be empty");
        assert_eq!(a, b, "seed {seed}: trace must be byte-identical");
    }
}

#[test]
fn e1_trace_reconstructs_a_delivered_message_path() {
    let out = traced_e1_run(11);
    let mut replay = Replay::from_jsonl(&out).expect("every trace line must parse");
    assert!(!replay.is_empty());
    let delivered = replay.delivered_messages();
    assert!(
        !delivered.is_empty(),
        "E1 must deliver at least one message"
    );
    let (origin, msg_id) = delivered[0];
    let path = capture_path_of(&mut replay, origin, msg_id)
        .expect("an in-memory scan cannot fail")
        .expect("path must exist");
    assert!(
        !path.hops.is_empty(),
        "a delivered message must have forward hops"
    );
    // The origination hop is hop 1, from the origin itself.
    assert_eq!(path.hops[0].node, origin);
    assert_eq!(path.hops[0].hops, 1);
    // Hop counts grow monotonically along the path.
    for w in path.hops.windows(2) {
        assert!(w[1].hops > w[0].hops, "hop counts must increase: {path:?}");
    }
    // The deliver event agrees with the last forward's hop count.
    let (_, _, hops, _) = path.delivered.expect("message was delivered");
    assert_eq!(hops, path.hops.last().unwrap().hops);
}

#[test]
fn trace_drop_causes_sum_to_the_metrics_counters() {
    // A dense flooding field over a lossy, collision-prone medium —
    // plenty of loss and collision drops, deterministically seeded.
    let mut cfg = WorldConfig::ideal(99);
    cfg.sensor_phy.range_m = 12.0;
    cfg.medium.loss_prob = 0.2;
    cfg.medium.collisions = CollisionModel::ReceiverOverlap;
    let mut w = World::new(cfg);
    let mut sensors = Vec::new();
    for y in 0..4 {
        for x in 0..4 {
            sensors.push(w.add_node(
                NodeConfig::sensor(Point::new(x as f64 * 9.0, y as f64 * 9.0), 100.0),
                FloodSensor::boxed(FloodMode::Flood, 16),
            ));
        }
    }
    w.add_node(
        NodeConfig::gateway(Point::new(36.0, 27.0)),
        FloodSink::boxed(),
    );
    // One dead receiver in range of the first sender.
    let dead = w.add_node(
        NodeConfig::sensor(Point::new(4.0, 4.0), 100.0),
        FloodSensor::boxed(FloodMode::Flood, 16),
    );
    w.set_trace_sink(Box::new(CountingSink::new()));
    w.start();
    w.kill(dead);
    for &s in &sensors[..4] {
        w.with_behavior::<FloodSensor, _>(s, |b, ctx| b.originate(ctx));
    }
    w.run_until(5_000_000);
    let sink = w.take_trace_sink().expect("sink installed");
    let c = sink
        .as_any()
        .downcast_ref::<CountingSink>()
        .expect("CountingSink");
    let m = w.metrics();
    assert!(m.lost > 0, "lossy medium must lose something");
    assert_eq!(c.drops_of("loss"), m.lost);
    assert_eq!(c.drops_of("collision"), m.collided);
    assert_eq!(c.drops_of("dead"), m.dead_receiver);
    assert_eq!(
        c.drops_of("loss") + c.drops_of("collision") + c.drops_of("dead"),
        m.dropped_total()
    );
    // Every reception the metrics counted is an `rx` trace event.
    assert_eq!(c.count_of("rx"), m.received);
}
