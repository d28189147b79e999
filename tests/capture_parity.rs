//! Segmented-capture parity suite: the disk-backed capture path is
//! observationally identical to the in-memory one.
//!
//! The segmented capture format streams 64-byte trace frames to
//! disk in indexed segments so queries run in O(one segment) memory.
//! Its correctness claim is *byte/structural* equality, not
//! statistical similarity:
//!
//! * every query (`capture_counts`, `capture_path_of`,
//!   `capture_drops_of_seq`, `capture_energy_of`) over a recorded E1
//!   capture, answered with index skipping, must equal the same query
//!   over the in-memory `Replay` of the same events (every event
//!   checked) — including the not-found cases;
//! * the health monitor fed from a segment-at-a-time scan must produce
//!   an alert stream byte-identical to the inline monitor's, on an E1
//!   run and on the large-scale E9 round (`e9_large_monitored`).

use std::any::Any;
use std::path::PathBuf;
use wmsn::core::builder::build_spr;
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{
    e9_large, e9_large_monitored, e9_large_round, e9_large_scenario, E9LargeSummary,
};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor};
use wmsn::trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, expect_sink,
    CaptureConfig, CaptureReader, CaptureSink, Replay, ScanFilter, TraceEvent, TraceSink,
};

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
        std::env::temp_dir().join(format!("wmsn-capture-parity-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Keeps every event with its causal `(at, key)` stamp, in emission
/// order.
#[derive(Default)]
struct StampedFrames(Vec<(u64, u64, TraceEvent)>);

impl TraceSink for StampedFrames {
    fn record(&mut self, ev: &TraceEvent) {
        self.record_keyed(ev, ev.t(), 0);
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        self.0.push((at, key, *ev));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The reference `(at, key, event)` stream of a 2-round E1 run.
fn reference_frames(seed: u64) -> Vec<(u64, u64, TraceEvent)> {
    let mut sink = traced_e1(seed, 2, Box::<StampedFrames>::default());
    std::mem::take(&mut expect_sink::<StampedFrames>(Some(sink.as_mut())).0)
}

#[test]
fn streaming_queries_match_replay_on_a_recorded_e1_capture() {
    let dir = scratch("queries");
    let path = dir.join("e1.wcap");
    // Tiny segments so a 2-round E1 trace (~7k events) spans hundreds
    // of segments — the worst case for index pruning bugs.
    let sink = CaptureSink::create(&path, CaptureConfig { segment_frames: 32 }).expect("create");
    drop(traced_e1(11, 2, Box::new(sink))); // Drop finalizes the footer.

    let reference = reference_frames(11);
    let events: Vec<TraceEvent> = reference.iter().map(|f| f.2).collect();
    let mut replay = Replay::from_events(&events);

    let mut r = CaptureReader::open(&path).expect("open capture");
    assert_eq!(r.frames() as usize, events.len());
    assert_eq!(r.frames_dropped(), 0);
    assert!(
        r.segments().len() > 100,
        "want many segments, got {}",
        r.segments().len()
    );
    assert_eq!(capture_counts(&r), capture_counts(&replay));

    // A full scan reproduces the reference frames, causal stamps
    // included (the CaptureSink sees the same record_keyed stream).
    let mut scanned = Vec::new();
    r.scan(&ScanFilter::all(), |ev, at, key| {
        scanned.push((at, key, *ev))
    })
    .expect("scan");
    assert_eq!(scanned, reference);

    // Query args harvested from the trace itself, plus not-found and
    // out-of-range cases.
    let mut path_args = vec![(1, 999), (u64::MAX, 0)];
    let mut drop_args = vec![u64::MAX];
    let mut energy_args = vec![0, 7, 999, u64::MAX];
    for ev in &events {
        if let TraceEvent::Deliver { origin, msg_id, .. } = ev {
            path_args.push((origin.0 as u64, *msg_id));
        }
        if let TraceEvent::Drop { seq, .. } = ev {
            drop_args.push(*seq);
        }
    }
    path_args.truncate(12);
    drop_args.truncate(8);
    energy_args.truncate(8);
    for (origin, msg_id) in path_args {
        assert_eq!(
            capture_path_of(&mut r, origin, msg_id).expect("scan"),
            capture_path_of(&mut replay, origin, msg_id).expect("scan"),
            "path {origin}/{msg_id}"
        );
    }
    for seq in drop_args {
        assert_eq!(
            capture_drops_of_seq(&mut r, seq).expect("scan"),
            capture_drops_of_seq(&mut replay, seq).expect("scan"),
            "drops {seq}"
        );
    }
    for node in energy_args {
        assert_eq!(
            capture_energy_of(&mut r, node).expect("scan"),
            capture_energy_of(&mut replay, node).expect("scan"),
            "energy {node}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_fed_from_a_capture_scan_matches_the_inline_monitor() {
    let dir = scratch("health");
    let path = dir.join("e1.wcap");
    let sink = CaptureSink::create(&path, CaptureConfig { segment_frames: 64 }).expect("create");
    drop(traced_e1(23, 2, Box::new(sink)));

    let mut inline = HealthMonitor::with_config(HealthConfig::default());
    for (_, _, ev) in &reference_frames(23) {
        inline.observe(ev);
    }
    inline.finalize();

    let mut streamed = HealthMonitor::with_config(HealthConfig::default());
    let mut r = CaptureReader::open(&path).expect("open capture");
    r.scan(&ScanFilter::all(), |ev, _, _| streamed.observe(ev))
        .expect("scan");
    streamed.finalize();

    assert_eq!(streamed.alerts_jsonl(), inline.alerts_jsonl());
    assert_eq!(streamed.net().events, inline.net().events);
    std::fs::remove_dir_all(&dir).ok();
}

/// The routing outcome of a large-scale round, bit-cast for equality.
fn outcome(s: &E9LargeSummary) -> (usize, u64, u64, u64, u64) {
    (
        s.n,
        s.originated,
        s.unique_deliveries,
        s.delivery_ratio.to_bits(),
        s.mean_latency_us.to_bits(),
    )
}

#[test]
fn e9_large_monitored_matches_the_untraced_round_and_the_inline_monitor() {
    // The shard-equivalence E9 round: small, yet its floods raise an
    // alert, so the alert streams compared below are not empty.
    let (n, seed, sources) = (1200, 17, 12);
    let dir = scratch("e9");
    let (summary, scanned, cap) = e9_large_monitored(n, seed, sources, &dir);
    std::fs::remove_dir_all(&dir).ok();

    // Recording never changes the round.
    let untraced = e9_large(n, seed, sources);
    assert_eq!(outcome(&summary), outcome(&untraced));
    assert_eq!(summary.events, untraced.events);
    assert!(summary.unique_deliveries > 0, "workload must deliver");

    // The monitor fed from the capture equals one inline on the round.
    let (mut scen, base) = e9_large_scenario(n, seed);
    scen.world
        .set_trace_sink(HealthMonitor::boxed(HealthConfig::default()));
    e9_large_round(&mut scen, base, sources);
    let mut sink = scen.world.take_trace_sink();
    let inline = expect_sink::<HealthMonitor>(sink.as_deref_mut());
    assert!(!inline.alerts().is_empty(), "the round must raise an alert");
    assert_eq!(scanned.alerts_jsonl(), inline.alerts_jsonl());
    // Every record the inline sink saw is one frame of the capture.
    assert_eq!(cap.frames, inline.net().events);
    assert_eq!(scanned.net().events, inline.net().events);
    assert_eq!(cap.frames_dropped, 0);
    assert!(cap.segments > 1, "the capture spans several segments");
}

/// Property: the segment node-bloom never produces a false negative —
/// a node-filtered scan over randomized events returns *exactly* the
/// frames an exhaustive check finds, for ids both present and absent.
/// Sparse random ids force bloom-bit collisions, so false positives do
/// occur (and are filtered per frame); a skipped segment that held a
/// match would show up as a missing frame here.
#[test]
fn node_index_pruning_never_skips_a_matching_segment() {
    use std::io::Cursor;
    use wmsn::trace::{CaptureWriter, TraceKind, TraceTier};
    use wmsn::util::{NodeId, SplitMix64};

    // Mirror of the capture layer's node-mention rule for the variants
    // generated below.
    fn mentions(ev: &TraceEvent, id: NodeId) -> bool {
        match *ev {
            TraceEvent::TxStart { src, dst, .. } => src == id || dst == Some(id),
            TraceEvent::Rx { node, .. } => node == id,
            TraceEvent::Forward {
                node, origin, next, ..
            } => node == id || origin == id || next == Some(id),
            TraceEvent::Deliver { node, origin, .. } => node == id || origin == id,
            TraceEvent::Energy { node, .. } => node == id,
            _ => unreachable!("not generated"),
        }
    }

    for seed in [1u64, 7, 42] {
        let mut rng = SplitMix64::new(seed);
        // Sparse ids stress the two-bit bloom with cross-id collisions.
        let mut id = {
            let mut r = SplitMix64::new(seed ^ 0xABCD);
            move || NodeId((r.next_u64_raw() % 50_000) as u32)
        };
        let mut events: Vec<TraceEvent> = Vec::new();
        for i in 0..4000u64 {
            let t = i * 13;
            let ev = match rng.next_u64_raw() % 5 {
                0 => TraceEvent::TxStart {
                    t,
                    seq: i,
                    src: id(),
                    dst: rng.next_u64_raw().is_multiple_of(2).then(&mut id),
                    tier: TraceTier::Sensor,
                    kind: TraceKind::Data,
                    bytes: 32,
                },
                1 => TraceEvent::Rx {
                    t,
                    seq: i,
                    node: id(),
                },
                2 => TraceEvent::Forward {
                    t,
                    node: id(),
                    origin: id(),
                    msg_id: i,
                    next: rng.next_u64_raw().is_multiple_of(2).then(&mut id),
                    hops: 2,
                },
                3 => TraceEvent::Deliver {
                    t,
                    node: id(),
                    origin: id(),
                    msg_id: i,
                    hops: 3,
                    latency_us: 50,
                },
                _ => TraceEvent::Energy {
                    t,
                    node: id(),
                    consumed_j: 0.25,
                },
            };
            events.push(ev);
        }

        let mut w = CaptureWriter::new(
            Cursor::new(Vec::new()),
            CaptureConfig { segment_frames: 64 },
        )
        .expect("header");
        for ev in &events {
            w.push(ev, ev.t(), 0).expect("push");
        }
        let (cur, stats) = w.finish().expect("finish");
        assert_eq!(stats.frames, events.len() as u64);
        let mut r = CaptureReader::new(Cursor::new(cur.into_inner())).expect("open");

        // Probes: ids that occur (drawn from the stream) and fresh
        // random ids that almost surely do not.
        let mut probes: Vec<NodeId> = events
            .iter()
            .step_by(97)
            .map(|ev| {
                let mut first = None;
                if let TraceEvent::Rx { node, .. }
                | TraceEvent::Forward { node, .. }
                | TraceEvent::Deliver { node, .. }
                | TraceEvent::Energy { node, .. } = *ev
                {
                    first = Some(node);
                }
                if let TraceEvent::TxStart { src, .. } = *ev {
                    first = Some(src);
                }
                first.expect("every generated variant names a node")
            })
            .collect();
        let mut absent = SplitMix64::new(seed ^ 0x5EED);
        probes.extend((0..20).map(|_| NodeId(60_000 + (absent.next_u64_raw() % 50_000) as u32)));

        let mut skipped_any = false;
        for probe in probes {
            let expected: Vec<TraceEvent> = events
                .iter()
                .filter(|ev| mentions(ev, probe))
                .copied()
                .collect();
            // No re-filtering in the callback: the scan must hand back
            // exactly the matching frames (bloom false positives are
            // resolved by the per-frame check inside the scan layer).
            let mut got = Vec::new();
            let stats = r
                .scan(&ScanFilter::all().with_node(probe), |ev, _, _| {
                    got.push(*ev);
                })
                .expect("scan");
            skipped_any |= stats.segments_skipped > 0;
            assert_eq!(
                got, expected,
                "seed {seed}, node {probe:?}: index pruning lost frames"
            );
        }
        assert!(
            skipped_any,
            "seed {seed}: the index never pruned — the property was not exercised"
        );
    }
}
