//! Windowed health forensics: checkpointed detector replay, alert
//! explain reports, and capture compaction.
//!
//! The correctness bar is byte equality, matching the rest of the
//! trace stack: windowed replay from a checkpoint must produce the
//! same in-window alert bytes as a genesis replay; `explain` must
//! render the same report from either mode while reading only the
//! alert-window segments; compaction must keep the index exact, keep
//! windowed queries over retained ranges byte-identical, and fail
//! loudly — never approximately — when frames are gone.

use std::path::PathBuf;
use wmsn::core::experiments::e18_forensics_capture;
use wmsn::health::{
    alerts_in_window, alerts_to_jsonl, compact_capture, explain_alert, replay_window, restore,
    snapshot, AlertKind, CompactionPolicy, ForensicCaptureSink, HealthAlert, HealthConfig,
    HealthMonitor,
};
use wmsn::trace::{
    capture_counts, CaptureConfig, CaptureReader, ScanFilter, TraceEvent, TraceKind, TraceSink,
    TraceTier,
};
use wmsn::util::NodeId;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wmsn-health-forensics-{}-{name}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Record the E18 gateway-death capture (256-frame segments, a
/// checkpoint at every boundary) and open it.
fn recorded(name: &str) -> (PathBuf, CaptureReader<std::io::BufReader<std::fs::File>>) {
    let dir = scratch(name);
    let path = dir.join("e18.wcap");
    let (stats, alerts) = e18_forensics_capture(&path, 1);
    assert!(stats.segments > 10, "need a multi-segment capture");
    assert!(alerts >= 1, "the gateway death must be detected");
    let r = CaptureReader::open(&path).expect("open capture");
    (path, r)
}

/// A window near the end of the E18 capture holding the gateway-death
/// alert.
const LATE_WINDOW: (u64, u64) = (5_400_000, 5_600_000);

/// A copy of the capture at `path`, named `name`, with the magic byte of
/// every checkpoint blob whose segment `pick` accepts flipped, so that
/// restoring any of them fails.
fn with_corrupt_checkpoints(
    path: &std::path::Path,
    r: &CaptureReader<std::io::BufReader<std::fs::File>>,
    pick: impl Fn(u64) -> bool,
    name: &str,
) -> PathBuf {
    let mut bytes = std::fs::read(path).expect("read capture");
    let mut flipped = 0;
    for &(seg, blob) in r.checkpoints() {
        if pick(seg) {
            bytes[blob.offset() as usize] ^= 0xFF;
            flipped += 1;
        }
    }
    assert!(flipped > 0, "{name}: no checkpoint picked");
    let out = path.with_file_name(name);
    std::fs::write(&out, bytes).expect("write corrupted copy");
    out
}

#[test]
fn windowed_replay_reads_and_restores_only_the_chosen_checkpoint() {
    let (path, mut r) = recorded("one-restore");
    let cfg = HealthConfig::default();
    let (lo, hi) = LATE_WINDOW;
    let alert =
        HealthAlert::from_json_line(r.alerts_jsonl().lines().next().expect("an embedded alert"))
            .expect("parse embedded alert");
    let (window, window_stats) = replay_window(&mut r, lo, hi, cfg, false).expect("window");
    let (explain, explain_stats) = explain_alert(&mut r, alert, 4, cfg, false).expect("explain");
    let chosen = window_stats.checkpoint_seg.expect("window resumes");
    let oldest_chosen = chosen.min(explain_stats.checkpoint_seg.expect("explain resumes"));
    assert!(oldest_chosen >= 50, "{window_stats:?} {explain_stats:?}");

    // Every checkpoint older than both chosen ones is eligible for both
    // queries; corrupt them all. Neither query may read one.
    let older = with_corrupt_checkpoints(&path, &r, |seg| seg < oldest_chosen, "older.wcap");
    let mut c = CaptureReader::open(&older).expect("open: blobs are not read at open");
    let (w2, w2_stats) = replay_window(&mut c, lo, hi, cfg, false).expect("window");
    assert_eq!(w2_stats, window_stats);
    assert_eq!(
        alerts_to_jsonl(&alerts_in_window(&w2, lo, hi)),
        alerts_to_jsonl(&alerts_in_window(&window, lo, hi))
    );
    let (e2, e2_stats) = explain_alert(&mut c, alert, 4, cfg, false).expect("explain");
    assert_eq!(e2_stats, explain_stats);
    assert_eq!(e2.report(), explain.report());

    // A corrupt chosen checkpoint is an error, not a silent genesis
    // replay; the genesis baseline reads no checkpoint at all.
    let bad = with_corrupt_checkpoints(&path, &r, |seg| seg == chosen, "chosen.wcap");
    let mut c = CaptureReader::open(&bad).expect("open");
    let Err(e) = replay_window(&mut c, lo, hi, cfg, false) else {
        panic!("a corrupt chosen checkpoint must fail the replay");
    };
    assert!(
        e.contains("bad magic") && e.contains(&format!("segment {chosen}")),
        "{e}"
    );
    let (full, _) = replay_window(&mut c, lo, hi, cfg, true).expect("full scan");
    assert_eq!(
        alerts_to_jsonl(&alerts_in_window(&full, lo, hi)),
        alerts_to_jsonl(&alerts_in_window(&window, lo, hi))
    );
    for p in [path, older, bad] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn embedded_checkpoints_round_trip_at_scale() {
    let (path, mut r) = recorded("checkpoints");
    assert!(
        r.checkpoints().len() > 10,
        "checkpoint_every=1 over a multi-segment run must embed many checkpoints"
    );
    for i in 0..r.checkpoints().len() {
        let seg = r.checkpoints()[i].0;
        let blob = r.checkpoint_blob(i).expect("read embedded checkpoint");
        let m = restore(&blob).expect("restore embedded checkpoint");
        assert_eq!(
            snapshot(&m),
            blob,
            "checkpoint at segment {seg} must survive restore→snapshot byte-for-byte"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn embedded_alerts_equal_an_offline_replay() {
    let (path, mut r) = recorded("embedded-alerts");
    let mut monitor = HealthMonitor::with_config(HealthConfig::default());
    r.scan(&ScanFilter::all(), |ev, _, _| monitor.observe(ev))
        .expect("full scan");
    monitor.finalize();
    // The co-hosted monitor saw driver flushes mid-run; they must not
    // have perturbed it — its embedded alert stream is the offline
    // replay's, byte for byte.
    assert_eq!(r.alerts_jsonl(), monitor.alerts_jsonl());
    std::fs::remove_file(path).ok();
}

#[test]
fn windowed_replay_is_byte_identical_to_full_replay() {
    let (path, mut r) = recorded("window-parity");
    let cfg = HealthConfig::default();
    let windows = [
        (0u64, 1_000_000u64),
        (2_000_000, 3_000_000),
        (4_000_000, 6_000_000),
        (5_500_000, 5_500_000),
        // Late: the gateway-death alert, with every checkpoint up to
        // the last segment's eligible.
        (LATE_WINDOW.0, LATE_WINDOW.1),
        (8_000_000, 20_000_000),
    ];
    let mut resumed_from_checkpoint = false;
    for (lo, hi) in windows {
        let (fast, fast_stats) = replay_window(&mut r, lo, hi, cfg, false).expect("windowed");
        let (full, full_stats) = replay_window(&mut r, lo, hi, cfg, true).expect("full");
        assert_eq!(full_stats.checkpoint_seg, None);
        assert_eq!(
            alerts_to_jsonl(&alerts_in_window(&fast, lo, hi)),
            alerts_to_jsonl(&alerts_in_window(&full, lo, hi)),
            "window {lo}..{hi}: checkpoint replay diverged from genesis replay"
        );
        if (lo, hi) == LATE_WINDOW {
            // A checkpoint at every boundary: resuming from segment k
            // means checkpoints 1..=k were all eligible.
            assert!(
                fast_stats.checkpoint_seg >= Some(50),
                "the late window must have >= 50 eligible checkpoints: {fast_stats:?}"
            );
            assert!(!alerts_in_window(&fast, lo, hi).is_empty());
        }
        if fast_stats.checkpoint_seg.is_some() {
            resumed_from_checkpoint = true;
            assert!(
                fast_stats.segments_read < fast_stats.segments_total,
                "window {lo}..{hi}: a checkpoint resume must skip the prefix"
            );
        }
    }
    assert!(
        resumed_from_checkpoint,
        "at least one window must exercise a non-genesis checkpoint"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn explain_reads_only_the_alert_window_and_is_mode_independent() {
    let (path, mut r) = recorded("explain");
    let cfg = HealthConfig::default();
    let alert =
        HealthAlert::from_json_line(r.alerts_jsonl().lines().next().expect("an embedded alert"))
            .expect("parse embedded alert");
    let span = 4u64;
    let (fast, fast_stats) = explain_alert(&mut r, alert, span, cfg, false).expect("explain");
    let (full, full_stats) = explain_alert(&mut r, alert, span, cfg, true).expect("explain full");
    assert_eq!(
        fast.report(),
        full.report(),
        "explain must render identically from checkpoint and genesis replays"
    );
    assert!(
        fast.reproduced,
        "the windowed replay must re-raise the alert"
    );
    assert!(
        !fast.contributors.is_empty(),
        "provenance must name contributors"
    );
    assert_eq!(full_stats.segments_read, full_stats.segments_total);

    // O(alert-window segments): with a checkpoint at every boundary the
    // replay reads exactly the segments whose at-range touches the
    // window (±1 for the window-boundary rounding of eligibility).
    let lo = alert.t - span * cfg.window_us;
    let touching = r
        .segments()
        .iter()
        .filter(|m| m.at_max >= lo && m.at_min <= alert.t)
        .count() as u64;
    assert!(
        fast_stats.segments_read <= touching + 1,
        "read {} segments for a window touching {touching} of {}",
        fast_stats.segments_read,
        fast_stats.segments_total
    );
    assert!(
        fast_stats.segments_read * 4 < fast_stats.segments_total,
        "windowed explain must not approach a full scan: {} of {}",
        fast_stats.segments_read,
        fast_stats.segments_total
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn compaction_keeps_the_index_exact_and_fails_frame_reads_loudly() {
    let (path, mut r) = recorded("compact");
    let cfg = HealthConfig::default();
    let out = path.with_extension("compact.wcap");
    let stats = compact_capture(&path, &out, cfg, CompactionPolicy::default()).expect("compact");
    assert_eq!(
        stats.segments_retained + stats.segments_compacted,
        stats.segments_total
    );
    assert!(stats.segments_compacted > 0, "an old prefix must compact");
    assert!(stats.alerts >= 1);

    let mut c = CaptureReader::open(&out).expect("open compacted");
    // Index-only queries stay exact.
    assert_eq!(capture_counts(&r), capture_counts(&c));
    assert_eq!(r.frames(), c.frames());
    assert_eq!(r.alerts_jsonl(), c.alerts_jsonl());
    for (a, b) in r.segments().iter().zip(c.segments()) {
        assert_eq!(a.frames, b.frames);
        assert_eq!((a.at_min, a.at_max), (b.at_min, b.at_max));
        assert_eq!(a.kind_counts, b.kind_counts);
    }

    // Frame-level access into a compacted range fails loudly.
    let first_err = c.read_segment_raw(0).expect_err("compacted read must fail");
    assert!(first_err.contains("compacted"), "{first_err}");
    let full_err = c
        .scan(&ScanFilter::all(), |_, _, _| {})
        .expect_err("full scan must fail");
    assert!(full_err.contains("compacted"), "{full_err}");

    // Windowed queries over retained ranges answer byte-identically to
    // the uncompacted capture.
    let alert = HealthAlert::from_json_line(c.alerts_jsonl().lines().next().expect("alert"))
        .expect("parse alert");
    let (before, _) = explain_alert(&mut r, alert, 4, cfg, false).expect("explain original");
    let (after, _) = explain_alert(&mut c, alert, 4, cfg, false).expect("explain compacted");
    assert_eq!(
        before.report(),
        after.report(),
        "compaction must not change the explain report over retained windows"
    );
    let lo = alert.t - 2 * cfg.window_us;
    let (wb, _) = replay_window(&mut r, lo, alert.t, cfg, false).expect("window original");
    let (wa, _) = replay_window(&mut c, lo, alert.t, cfg, false).expect("window compacted");
    assert_eq!(
        alerts_to_jsonl(&alerts_in_window(&wb, lo, alert.t)),
        alerts_to_jsonl(&alerts_in_window(&wa, lo, alert.t))
    );

    // Re-compacting a compacted capture is refused: the detector
    // replay would be built on missing frames.
    let twice = out.with_extension("twice.wcap");
    let err = compact_capture(&out, &twice, cfg, CompactionPolicy::default())
        .expect_err("compacting a compacted capture must fail");
    assert!(err.contains("already compacted"), "{err}");

    std::fs::remove_file(path).ok();
    std::fs::remove_file(out).ok();
}

#[test]
fn a_window_from_genesis_never_resumes_past_a_multi_window_first_segment() {
    // Node 4 seeds three unprompted floods in windows 0 and 1; the
    // reception at t = 1.0 s closes window 1 and raises the announce
    // spike while segment 0 is still open. Segment 0 thus spans three
    // detector windows and its checkpoint (labelled 1) carries the
    // spike's latch but not the alert.
    let cfg = HealthConfig::default();
    let flood = |t: u64, seq: u64| TraceEvent::TxStart {
        t,
        seq,
        src: NodeId(4),
        dst: None,
        tier: TraceTier::Sensor,
        kind: TraceKind::Control,
        bytes: 16,
    };
    let rx = |t: u64, seq: u64| TraceEvent::Rx {
        t,
        seq,
        node: NodeId(2),
    };
    let mut events = vec![
        flood(300_000, 1),
        flood(600_000, 2),
        flood(900_000, 3),
        rx(1_000_000, 3),
    ];
    events.extend((0..8u64).map(|k| rx(1_200_000 + 400_000 * k, 3)));
    let path = scratch("genesis").join("genesis.wcap");
    let mut sink = ForensicCaptureSink::create(&path, CaptureConfig { segment_frames: 4 }, cfg, 1)
        .expect("create capture");
    for (key, ev) in events.iter().enumerate() {
        sink.record_keyed(ev, ev.t(), key as u64);
    }
    sink.finalize().expect("capture written");
    drop(sink);

    let mut r = CaptureReader::open(&path).expect("open");
    let first = r.segments()[0];
    assert!(first.at_max / cfg.window_us >= 2, "{first:?}");
    assert_eq!(r.checkpoints()[0].0, 1);
    let (lo, hi) = (0, 2_000_000);
    let (fast, stats) = replay_window(&mut r, lo, hi, cfg, false).expect("window");
    let (full, _) = replay_window(&mut r, lo, hi, cfg, true).expect("full scan");
    assert_eq!(stats.checkpoint_seg, None, "{stats:?}");
    let want = alerts_in_window(&full, lo, hi);
    assert!(
        want.iter()
            .any(|a| a.kind == AlertKind::AnnounceSpike && a.t <= first.at_max),
        "the spike must be raised inside segment 0: {want:?}"
    );
    assert_eq!(
        alerts_to_jsonl(&alerts_in_window(&fast, lo, hi)),
        alerts_to_jsonl(&want)
    );
    std::fs::remove_file(path).ok();
}
