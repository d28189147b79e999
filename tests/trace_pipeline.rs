//! Ring-pipeline parity suite: where a sink is hosted never changes
//! what the simulation does or what the sink sees.
//!
//! The ring pipeline moves sink work off the simulation thread, behind
//! a bounded SPSC ring with an explicit flush barrier. Its correctness
//! claim is *byte* equality, not statistical similarity, so this suite
//! compares bytes:
//!
//! * every E6 attack cell, on both protocols, gives the same outcome
//!   and delivery records untraced, with an inline health monitor and
//!   with a ring-hosted buffer sink;
//! * the E1 JSONL trace drained through the ring must be
//!   byte-identical to the inline `BufferSink` capture, including with
//!   flush barriers exercised at round (`run_until`) boundaries;
//! * the E18 attack cells' alert JSONL with the monitor fed from the
//!   drain thread must be byte-identical to the inline monitor's (the
//!   ring as an oracle for the inline monitor), and the healthy
//!   baseline must stay silent through the ring too;
//! * a `.wcap` capture of the E1 run, decoded and re-rendered, must be
//!   byte-identical to the live `BufferSink` output (the `convert`
//!   golden); and the capture round-trip must preserve causal keys;
//! * the sharded kernel with per-shard rings must merge back to the
//!   reference trace bytes.

use wmsn::core::builder::{build_spr, SprScenario};
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{run_attack_cell, run_attack_cell_monitored, Attack};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor};
use wmsn::sim::ShardedWorld;
use wmsn::topology::strip_shards;
use wmsn::trace::{
    expect_sink, merge_frame_buffers, BufferSink, CaptureConfig, CaptureReader, CaptureSink,
    FrameBufferSink, RingConfig, RingSink, RingStats, ScanFilter, TraceSink,
};
use wmsn_attacks::sinkhole::TargetProtocol;

fn test_threads() -> usize {
    std::env::var("SHARD_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// E1-style field (40 sensors, 3 gateways), death-free batteries so
/// the sharded arm can participate.
fn e1_field(seed: u64) -> (FieldParams, GatewayParams) {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(40, seed)
    };
    (field, GatewayParams::default_three())
}

/// Run `rounds` E1 rounds with `sink` installed and hand the sink back.
fn traced_e1(
    seed: u64,
    rounds: u32,
    sink: Box<dyn TraceSink>,
    flush_each_round: bool,
) -> Box<dyn TraceSink> {
    let (field, gw) = e1_field(seed);
    let mut d = SprDriver::new(build_spr(&field, &gw, TrafficParams::default()));
    d.scenario.world.set_trace_sink(sink);
    for _ in 0..rounds {
        d.run_round();
        if flush_each_round {
            // The flush barrier at the run_until boundary: for the ring
            // this waits out the drain; for inline buffer sinks it is a
            // no-op. Either way the trace bytes must not change.
            d.scenario.world.flush_trace();
        }
    }
    d.scenario.world.take_trace_sink().expect("sink installed")
}

/// Small chunks and a small ring so a 2-round E1 trace crosses many
/// chunk and capacity boundaries — the worst case for ordering bugs.
fn tight_ring() -> RingConfig {
    RingConfig {
        chunk_frames: 7,
        capacity_chunks: 3,
    }
}

#[test]
fn hosting_never_changes_the_simulation() {
    for protocol in [TargetProtocol::Mlr, TargetProtocol::SecMlr] {
        for attack in Attack::all() {
            let (untraced, _) = run_attack_cell(protocol, attack, 1, None);
            if attack == Attack::None {
                assert!(
                    !untraced.deliveries.is_empty(),
                    "{protocol:?} baseline delivers"
                );
            }
            let hostings: [(&str, Box<dyn TraceSink>); 2] = [
                (
                    "inline monitor",
                    HealthMonitor::boxed(HealthConfig::default()),
                ),
                (
                    "ring(buffer)",
                    RingSink::boxed(tight_ring(), vec![Box::new(BufferSink::new())]),
                ),
            ];
            for (label, sink) in hostings {
                let (hosted, _) = run_attack_cell(protocol, attack, 1, Some(sink));
                assert_eq!(
                    hosted, untraced,
                    "{protocol:?} vs {attack:?}: hosting {label} changed the run"
                );
            }
        }
    }
}

#[test]
fn ring_drained_e1_trace_is_byte_identical_to_inline() {
    for (seed, flush_each_round) in [(11, false), (11, true), (23, true)] {
        let inline = traced_e1(seed, 2, Box::new(BufferSink::new()), flush_each_round);
        let want = &inline
            .as_any()
            .downcast_ref::<BufferSink>()
            .expect("BufferSink")
            .out;
        assert!(!want.is_empty());

        let ring = RingSink::boxed(tight_ring(), vec![Box::new(BufferSink::new())]);
        let mut ring = traced_e1(seed, 2, ring, flush_each_round);
        let ring = expect_sink::<RingSink>(Some(ring.as_mut()));
        let stats = ring.stats();
        let got = ring
            .with_sink_mut::<BufferSink, _>(|b| b.out.clone())
            .expect("drained BufferSink");
        assert_eq!(
            &got, want,
            "seed {seed} flush={flush_each_round}: drained JSONL must equal inline bytes"
        );
        assert_eq!(stats.frames_written as usize, want.lines().count());
    }
}

/// One MLR attack cell with the monitor hosted behind a ring: the
/// monitor as the drain thread left it, finalized at the same point in
/// the event stream where the inline monitor's take-time flush
/// finalizes it, and the ring's telemetry.
fn ring_monitored_cell(attack: Attack, seed: u64) -> (HealthMonitor, RingStats) {
    let monitor = HealthMonitor::with_config(HealthConfig::default());
    let ring = RingSink::boxed(RingConfig::default(), vec![Box::new(monitor)]);
    let (_, mut sink) = run_attack_cell(TargetProtocol::Mlr, attack, seed, Some(ring));
    let ring = expect_sink::<RingSink>(sink.as_deref_mut());
    let monitor = ring
        .with_sink_mut::<HealthMonitor, _>(|m| {
            m.finalize();
            m.clone()
        })
        .expect("the ring drains into the monitor");
    (monitor, ring.stats())
}

#[test]
fn e18_alert_stream_through_the_ring_is_byte_identical_to_inline() {
    for attack in [Attack::Replay, Attack::Sinkhole, Attack::HelloFlood] {
        let (_, inline_monitor) =
            run_attack_cell_monitored(TargetProtocol::Mlr, attack, 1, HealthConfig::default());
        let (ring_monitor, stats) = ring_monitored_cell(attack, 1);
        let want = inline_monitor.alerts_jsonl();
        assert!(!want.is_empty(), "{attack:?} must raise alerts");
        assert_eq!(
            ring_monitor.alerts_jsonl(),
            want,
            "{attack:?}: ring-fed monitor must match inline byte for byte"
        );
        assert!(stats.frames_written > 0);
    }
    // The healthy baseline must stay silent through the ring too.
    let (ring_monitor, _) = ring_monitored_cell(Attack::None, 7);
    assert_eq!(
        ring_monitor.alerts().len(),
        0,
        "healthy cell through the ring raised {}",
        ring_monitor.alerts_jsonl()
    );
}

#[test]
fn binary_capture_converts_to_the_exact_jsonl_bytes() {
    // Two identical seeded runs: one through the live JSONL sink, one
    // through the segmented capture sink. Decoding the capture and
    // re-rendering each event must reproduce the JSONL bytes — the
    // `wmsn-trace convert` golden property.
    let jsonl = traced_e1(11, 1, Box::new(BufferSink::new()), false);
    let want = &jsonl
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out;

    let dir = std::env::temp_dir().join(format!("wmsn-trace-pipeline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("e1.wcap");
    let sink = CaptureSink::create(
        &path,
        CaptureConfig {
            segment_frames: 256,
        },
    )
    .expect("create");
    let mut sink = traced_e1(11, 1, Box::new(sink), false);
    let written = expect_sink::<CaptureSink>(Some(sink.as_mut()))
        .finalize()
        .expect("capture finalizes")
        .frames;
    let mut frames = Vec::new();
    CaptureReader::open(&path)
        .expect("capture opens")
        .scan(&ScanFilter::all(), |ev, at, key| {
            frames.push((*ev, at, key))
        })
        .expect("capture decodes");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(frames.len() as u64, written);
    let mut got = String::new();
    for (ev, _, _) in &frames {
        got.push_str(&ev.to_json().to_string());
        got.push('\n');
    }
    assert_eq!(&got, want, "decoded capture must render to identical JSONL");
    // Causal keys survive the capture round trip: strictly
    // non-decreasing (at, key) per emitting event and at least one
    // non-zero key.
    assert!(frames.iter().any(|&(_, _, key)| key != 0));
    for w in frames.windows(2) {
        assert!(
            (w[0].1, w[0].2) <= (w[1].1, w[1].2),
            "frames arrive in causal order"
        );
    }
}

#[test]
fn sharded_per_shard_rings_merge_to_the_reference_trace_bytes() {
    let (field, gw) = e1_field(11);
    let inline = traced_e1(11, 1, Box::new(BufferSink::new()), false);
    let want = &inline
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out;

    let scen = build_spr(&field, &gw, TrafficParams::default());
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    let assignment = strip_shards(&positions, scen.range_m, 4);
    let sharded: SprScenario<ShardedWorld> =
        scen.map_world(|w| ShardedWorld::from_world(w, assignment, test_threads()));
    let mut d = SprDriver::new(sharded);
    d.scenario.world.install_shard_sinks(|_| {
        RingSink::boxed(tight_ring(), vec![Box::new(FrameBufferSink::new())])
    });
    d.run_round();
    let mut stats = RingStats::default();
    let mut buffers = Vec::new();
    for mut sink in d
        .scenario
        .world
        .take_shard_sinks()
        .expect("shard sinks installed")
    {
        let ring = expect_sink::<RingSink>(Some(sink.as_mut()));
        stats.add(&ring.stats());
        buffers.push(
            ring.with_sink_mut::<FrameBufferSink, _>(|b| std::mem::take(&mut b.entries))
                .expect("ring drains into FrameBufferSink"),
        );
    }
    let mut got = String::new();
    let merged = merge_frame_buffers(buffers, |ev| {
        got.push_str(&ev.to_json().to_string());
        got.push('\n');
    })
    .expect("shard streams are at-monotone");
    assert_eq!(stats.frames_written, merged);
    assert_eq!(
        &got, want,
        "merged per-shard ring frames must render to the reference JSONL"
    );
}
