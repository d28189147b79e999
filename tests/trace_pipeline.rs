//! Ring-pipeline parity suite: the off-thread trace pipeline is
//! observationally identical to inline sinks.
//!
//! The ring pipeline (PR 7) moves sink work — JSONL rendering, the
//! health monitor's detector bank — off the simulation thread, behind
//! a bounded SPSC ring with an explicit flush barrier. Its correctness
//! claim is *byte* equality, not statistical similarity, so this suite
//! compares bytes:
//!
//! * the E1 JSONL trace drained through the ring must be
//!   byte-identical to the inline `BufferSink` capture, including with
//!   flush barriers exercised at round (`run_until`) boundaries;
//! * the E18 attack cells' alert JSONL with the monitor fed from the
//!   drain thread must be byte-identical to the inline monitor's, and
//!   the healthy baseline must stay silent through the ring too;
//! * the self-healing loop (`drain_actions`) must produce the same
//!   actions whichever pipeline hosts the monitor;
//! * a `.wcap` capture of the E1 run, decoded and re-rendered, must be
//!   byte-identical to the live `BufferSink` output (the `convert`
//!   golden); and the capture round-trip must preserve causal keys;
//! * the sharded kernel with per-shard rings must merge back to the
//!   reference trace bytes.

use wmsn::core::builder::{build_mlr, build_spr, SprScenario};
use wmsn::core::drivers::{MlrDriver, SprDriver};
use wmsn::core::experiments::{run_attack_cell_monitored, run_attack_cell_monitored_ring, Attack};
use wmsn::core::health_loop::drain_actions;
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor, HealthPolicy};
use wmsn::sim::ShardedWorld;
use wmsn::topology::strip_shards;
use wmsn::trace::{
    merge_frame_buffers, BackpressurePolicy, BufferSink, CaptureConfig, CaptureReader, CaptureSink,
    FrameBufferSink, RingConfig, RingSink, RingStats, ScanFilter,
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
    sink: Box<dyn wmsn::trace::TraceSink>,
    flush_each_round: bool,
) -> Box<dyn wmsn::trace::TraceSink> {
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
        policy: BackpressurePolicy::Block,
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
        let ring = ring
            .as_any_mut()
            .downcast_mut::<RingSink>()
            .expect("RingSink");
        let stats = ring.stats();
        assert_eq!(stats.frames_dropped, 0, "Block policy never drops");
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

#[test]
fn e18_alert_stream_through_the_ring_is_byte_identical_to_inline() {
    for attack in [Attack::Replay, Attack::Sinkhole, Attack::HelloFlood] {
        let (_, inline_monitor) =
            run_attack_cell_monitored(TargetProtocol::Mlr, attack, 1, HealthConfig::default());
        let (_, ring_monitor, stats) =
            run_attack_cell_monitored_ring(TargetProtocol::Mlr, attack, 1, HealthConfig::default());
        let want = inline_monitor.alerts_jsonl();
        assert!(!want.is_empty(), "{attack:?} must raise alerts");
        assert_eq!(
            ring_monitor.alerts_jsonl(),
            want,
            "{attack:?}: ring-fed monitor must match inline byte for byte"
        );
        assert!(stats.frames_written > 0);
        assert_eq!(stats.frames_dropped, 0);
    }
    // The healthy baseline must stay silent through the ring too.
    let (_, ring_monitor, _) = run_attack_cell_monitored_ring(
        TargetProtocol::Mlr,
        Attack::None,
        7,
        HealthConfig::default(),
    );
    assert_eq!(
        ring_monitor.alerts().len(),
        0,
        "healthy cell through the ring raised {}",
        ring_monitor.alerts_jsonl()
    );
}

#[test]
fn self_healing_loop_acts_identically_through_the_ring() {
    // E18-recovery shape: kill a gateway mid-run, then let the policy
    // loop drain the monitor — once hosted inline, once behind the
    // ring. Both runs are deterministic, so the action lists (and the
    // recovered delivery ratio) must match exactly.
    let run = |ring: bool| {
        let field = FieldParams {
            battery_j: 10.0,
            ..FieldParams::default_uniform(60, 5)
        };
        let mut d = MlrDriver::new(build_mlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        ));
        let sink: Box<dyn wmsn::trace::TraceSink> = if ring {
            RingSink::boxed(
                tight_ring(),
                vec![Box::new(
                    HealthMonitor::with_config(HealthConfig::default()),
                )],
            )
        } else {
            HealthMonitor::boxed(HealthConfig::default())
        };
        d.scenario.world.set_trace_sink(sink);
        d.run_round();
        let victim = d.scenario.gateways[0];
        d.scenario.world.kill(victim);
        d.run_round();
        let actions = drain_actions(&mut d.scenario.world, &HealthPolicy::default());
        format!("{actions:?}")
    };
    let inline = run(false);
    let ring = run(true);
    assert!(!inline.is_empty());
    assert_eq!(
        ring, inline,
        "policy actions must not depend on the pipeline"
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
    let written = sink
        .as_any_mut()
        .downcast_mut::<CaptureSink>()
        .and_then(CaptureSink::finalize)
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
        let ring = sink.as_any_mut().downcast_mut::<RingSink>().expect("ring");
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
    assert_eq!(stats.frames_dropped, 0);
    assert_eq!(stats.frames_written, merged);
    assert_eq!(
        &got, want,
        "merged per-shard ring frames must render to the reference JSONL"
    );
}
