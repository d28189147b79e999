//! Segmented-capture parity suite: the disk-backed capture path is
//! observationally identical to the in-memory one.
//!
//! The segmented capture format (PR 9) streams the ring pipeline's
//! 64-byte frames to disk in indexed segments so queries run in
//! O(one segment) memory. Its correctness claim, like the ring's, is
//! *byte/structural* equality, not statistical similarity:
//!
//! * every query (`capture_counts`, `capture_path_of`,
//!   `capture_drops_of_seq`, `capture_energy_of`) over a recorded E1
//!   capture, answered with index skipping, must equal the same query
//!   over the in-memory `Replay` of the same events (every event
//!   checked) — including the not-found cases;
//! * the health monitor fed from a segment-at-a-time scan must produce
//!   an alert stream byte-identical to the inline monitor's;
//! * the sharded kernel's per-shard capture files, k-way merged with
//!   `merge_captures`, must render to the reference JSONL bytes — the
//!   same bar the in-memory per-shard ring merge clears.

use std::path::{Path, PathBuf};
use wmsn::core::builder::{build_spr, SprScenario};
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{e9_large_round, e9_large_scenario, e9_large_sharded};
use wmsn::core::params::{FieldParams, GatewayParams, ParallelConfig, TrafficParams};
use wmsn::health::{HealthConfig, HealthMonitor};
use wmsn::sim::ShardedWorld;
use wmsn::topology::strip_shards;
use wmsn::trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, expect_sink,
    merge_captures, merge_frame_buffers, BufferSink, CaptureConfig, CaptureReader, CaptureSink,
    CaptureStats, FrameBufferSink, Replay, RingConfig, RingSink, RingStats, ScanFilter, TraceEvent,
};

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
) -> Box<dyn wmsn::trace::TraceSink> {
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

/// Host one ring per shard draining into `shard-<i>.wcap` under `dir`;
/// returns the capture paths in shard order.
fn install_shard_captures(
    world: &mut ShardedWorld,
    ring: RingConfig,
    cfg: CaptureConfig,
    dir: &Path,
) -> Vec<PathBuf> {
    let paths: Vec<PathBuf> = (0..world.shard_count())
        .map(|i| dir.join(format!("shard-{i}.wcap")))
        .collect();
    world.install_shard_sinks(|i| {
        let sink = CaptureSink::create(&paths[i], cfg).expect("create shard capture");
        RingSink::boxed(ring, vec![Box::new(sink)])
    });
    paths
}

/// Take the shard rings back and finalize their captures; aggregate
/// ring and capture telemetry.
fn finish_shard_captures(world: &mut ShardedWorld) -> (RingStats, CaptureStats) {
    let mut stats = RingStats::default();
    let mut cap = CaptureStats::default();
    for mut sink in world.take_shard_sinks().expect("shard sinks installed") {
        let (s, c) = expect_sink::<RingSink>(Some(sink.as_mut()))
            .finalize_capture()
            .expect("shard capture finalizes");
        stats.add(&s);
        cap.add(&c);
    }
    (stats, cap)
}

/// Open every shard capture and merge them into one event sequence.
fn merge_shard_captures(paths: &[PathBuf], f: impl FnMut(&TraceEvent)) -> u64 {
    let readers = paths
        .iter()
        .map(|p| CaptureReader::open(p).expect("open shard capture"))
        .collect();
    merge_captures(readers, f).expect("merge shard captures")
}

/// The reference `(at, key, event)` stream of a 2-round E1 run.
fn reference_frames(seed: u64) -> Vec<(u64, u64, TraceEvent)> {
    let sink = traced_e1(seed, 2, Box::new(FrameBufferSink::new()));
    sink.as_any()
        .downcast_ref::<FrameBufferSink>()
        .expect("FrameBufferSink")
        .entries
        .clone()
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
    // included (the inline CaptureSink sees the same record_keyed
    // stream the FrameBufferSink does).
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

#[test]
fn sharded_capture_files_merge_to_the_reference_trace_bytes() {
    let (field, gw) = e1_field(11);
    let inline = traced_e1(11, 1, Box::new(BufferSink::new()));
    let want = &inline
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out;
    assert!(!want.is_empty());

    let dir = scratch("sharded");
    let scen = build_spr(&field, &gw, TrafficParams::default());
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    let assignment = strip_shards(&positions, scen.range_m, 4);
    let sharded: SprScenario<ShardedWorld> =
        scen.map_world(|w| ShardedWorld::from_world(w, assignment, test_threads()));
    let mut d = SprDriver::new(sharded);
    let paths = install_shard_captures(
        &mut d.scenario.world,
        RingConfig {
            chunk_frames: 7,
            capacity_chunks: 3,
        },
        CaptureConfig { segment_frames: 32 },
        &dir,
    );
    assert_eq!(paths.len(), 4);
    d.run_round();
    let (stats, cap) = finish_shard_captures(&mut d.scenario.world);
    assert_eq!(cap.frames, stats.frames_written);
    assert_eq!(cap.frames_dropped, 0);
    assert!(cap.segments > 0 && cap.bytes > 0);

    let mut got = String::new();
    let merged = merge_shard_captures(&paths, |ev| {
        got.push_str(&ev.to_json().to_string());
        got.push('\n');
    });
    assert_eq!(merged, cap.frames);
    assert_eq!(
        &got, want,
        "k-way merged shard captures must render to the reference JSONL"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// An E9 n=3000 three-tier sharded scenario (seed 17, 4 shards).
fn sharded_e9() -> (
    SprScenario<ShardedWorld>,
    wmsn::util::NodeId,
    usize, // source count
) {
    let (scen, base) = e9_large_scenario(3000, 17);
    let parallel = ParallelConfig {
        shards: 4,
        threads: test_threads(),
    };
    (e9_large_sharded(scen, base, parallel), base, 3)
}

#[test]
fn capture_merge_heals_same_at_key_inversions_at_scale() {
    // A shard's event wheel executes same-microsecond events in
    // insertion order, not key order, so at E9 scale the per-shard
    // streams carry (at, key) inversions inside equal-`at` runs. The
    // merge heals them run by run; the in-memory frames and the
    // capture files must produce the *same* healed total order, equal
    // to a plain stable sort on (at, key, capture index).
    // (The E1 tests above never trip this — their shard streams happen
    // to arrive fully sorted — so this scenario is the regression pin.)
    let (mut scen, base, sources) = sharded_e9();
    scen.world.install_shard_sinks(|_| {
        RingSink::boxed(
            RingConfig::default(),
            vec![Box::new(FrameBufferSink::new())],
        )
    });
    e9_large_round(&mut scen, base, sources);
    let frames: Vec<Vec<(u64, u64, TraceEvent)>> = scen
        .world
        .take_shard_sinks()
        .expect("shard sinks installed")
        .iter_mut()
        .map(|sink| {
            expect_sink::<RingSink>(Some(sink.as_mut()))
                .with_sink_mut::<FrameBufferSink, _>(|b| std::mem::take(&mut b.entries))
                .expect("ring drains into FrameBufferSink")
        })
        .collect();
    let inverted = frames
        .iter()
        .any(|s| s.windows(2).any(|w| (w[1].0, w[1].1) < (w[0].0, w[0].1)));
    assert!(
        inverted,
        "scenario must exercise the key-inversion healing path"
    );
    let mut oracle: Vec<(u64, u64, usize, TraceEvent)> = frames
        .iter()
        .flat_map(|s| {
            s.iter()
                .enumerate()
                .map(|(i, &(at, key, ev))| (at, key, i, ev))
        })
        .collect();
    oracle.sort_by_key(|e| (e.0, e.1, e.2));
    let want: Vec<TraceEvent> = oracle.into_iter().map(|e| e.3).collect();
    let mut in_memory = Vec::with_capacity(want.len());
    merge_frame_buffers(frames, |ev| in_memory.push(*ev)).expect("merge frame buffers");
    assert!(
        in_memory == want,
        "in-memory merge must equal the stable-sort order"
    );

    let dir = scratch("inversions");
    let (mut scen, base, sources) = sharded_e9();
    let paths = install_shard_captures(
        &mut scen.world,
        RingConfig::default(),
        CaptureConfig::default(),
        &dir,
    );
    e9_large_round(&mut scen, base, sources);
    let (stats, cap) = finish_shard_captures(&mut scen.world);
    assert_eq!(cap.frames, stats.frames_written);

    let mut got = Vec::with_capacity(want.len());
    let merged = merge_shard_captures(&paths, |ev| got.push(*ev));
    assert_eq!(merged, cap.frames);
    assert_eq!(got.len(), want.len());
    assert!(
        got == want,
        "disk merge must equal the in-memory merged event order"
    );
    std::fs::remove_dir_all(&dir).ok();
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
