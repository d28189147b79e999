//! Hosting parity suite: hosting a sink never changes what the
//! simulation does, and a recorded capture is the trace, byte for byte.
//!
//! A sink records inline on the simulation thread. Its correctness
//! claim is *byte* equality, not statistical similarity, so this suite
//! compares bytes:
//!
//! * every E6 attack cell, on both protocols, gives the same outcome
//!   and delivery records untraced and with an inline health monitor;
//! * the E18 attack cells' alert JSONL with the monitor fed from a
//!   full scan of a `.wcap` capture must be byte-identical to the
//!   inline monitor's (the capture as an oracle for the inline
//!   monitor), and the healthy baseline must stay silent that way too;
//! * a `.wcap` capture of the E1 run, decoded and re-rendered, must be
//!   byte-identical to the live `BufferSink` output (the `convert`
//!   golden); and the capture round-trip must preserve causal keys.

use std::path::PathBuf;
use wmsn::core::builder::build_spr;
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{run_attack_cell, run_attack_cell_monitored, Attack};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor};
use wmsn::trace::{
    expect_sink, BufferSink, CaptureConfig, CaptureReader, CaptureSink, ScanFilter, TraceSink,
};
use wmsn_attacks::sinkhole::TargetProtocol;

/// E1-style field (40 sensors, 3 gateways) with death-free batteries.
fn e1_field(seed: u64) -> (FieldParams, GatewayParams) {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(40, seed)
    };
    (field, GatewayParams::default_three())
}

/// Run `rounds` E1 rounds with `sink` installed and hand the sink back.
fn traced_e1(seed: u64, rounds: u32, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
    let (field, gw) = e1_field(seed);
    let mut d = SprDriver::new(build_spr(&field, &gw, TrafficParams::default()));
    d.scenario.world.set_trace_sink(sink);
    for _ in 0..rounds {
        d.run_round();
    }
    d.scenario.world.take_trace_sink().expect("sink installed")
}

/// A scratch directory unique to this test invocation.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wmsn-trace-pipeline-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
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
            let sink = HealthMonitor::boxed(HealthConfig::default());
            let (hosted, _) = run_attack_cell(protocol, attack, 1, Some(sink));
            assert_eq!(
                hosted, untraced,
                "{protocol:?} vs {attack:?}: hosting an inline monitor changed the run"
            );
        }
    }
}

/// One MLR attack cell recorded to a `.wcap` capture, then a monitor
/// fed from a full scan of it and finalized where the inline monitor's
/// take-time flush finalizes it.
fn capture_monitored_cell(attack: Attack, seed: u64) -> HealthMonitor {
    let dir = scratch(&format!("{attack:?}-{seed}"));
    let path = dir.join("cell.wcap");
    let sink = CaptureSink::create(&path, CaptureConfig { segment_frames: 64 }).expect("create");
    let (_, mut sink) = run_attack_cell(TargetProtocol::Mlr, attack, seed, Some(Box::new(sink)));
    expect_sink::<CaptureSink>(sink.as_deref_mut())
        .finalize()
        .expect("capture finalizes");
    let mut monitor = HealthMonitor::with_config(HealthConfig::default());
    CaptureReader::open(&path)
        .expect("capture opens")
        .scan(&ScanFilter::all(), |ev, _, _| monitor.observe(ev))
        .expect("capture decodes");
    monitor.finalize();
    std::fs::remove_dir_all(&dir).ok();
    monitor
}

#[test]
fn e18_alert_stream_from_a_capture_scan_is_byte_identical_to_inline() {
    for attack in [Attack::Replay, Attack::Sinkhole, Attack::HelloFlood] {
        let (_, inline_monitor) =
            run_attack_cell_monitored(TargetProtocol::Mlr, attack, 1, HealthConfig::default());
        let scanned = capture_monitored_cell(attack, 1);
        let want = inline_monitor.alerts_jsonl();
        assert!(!want.is_empty(), "{attack:?} must raise alerts");
        assert_eq!(
            scanned.alerts_jsonl(),
            want,
            "{attack:?}: capture-fed monitor must match inline byte for byte"
        );
        assert_eq!(scanned.net().events, inline_monitor.net().events);
    }
    // The healthy baseline must stay silent when fed from a capture too.
    let scanned = capture_monitored_cell(Attack::None, 7);
    assert_eq!(
        scanned.alerts().len(),
        0,
        "healthy cell fed from a capture raised {}",
        scanned.alerts_jsonl()
    );
}

#[test]
fn binary_capture_converts_to_the_exact_jsonl_bytes() {
    // Two identical seeded runs: one through the live JSONL sink, one
    // through the segmented capture sink. Decoding the capture and
    // re-rendering each event must reproduce the JSONL bytes — the
    // `wmsn-trace convert` golden property.
    let jsonl = traced_e1(11, 1, Box::new(BufferSink::new()));
    let want = &jsonl
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out;

    let dir = scratch("convert");
    let path = dir.join("e1.wcap");
    let sink = CaptureSink::create(
        &path,
        CaptureConfig {
            segment_frames: 256,
        },
    )
    .expect("create");
    let mut sink = traced_e1(11, 1, Box::new(sink));
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
