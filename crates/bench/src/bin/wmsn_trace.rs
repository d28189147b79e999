//! `wmsn-trace` — record and interrogate simulator trace files.
//!
//! Trace-driven debugging for the WMSN simulator: record a small
//! experiment with a file sink installed, then replay the capture to
//! answer "show the path of msg N", "why was packet X dropped", and
//! "what is node K's energy timeline".
//!
//! ```text
//! wmsn-trace record  <out> [seed] [rounds]         # run E1 (SPR, 40 sensors) into a capture
//! wmsn-trace summary <trace>                        # event counts; exits 1 on parse errors
//! wmsn-trace path    <trace> <origin> <msg_id>
//! wmsn-trace drop    <trace> <seq>
//! wmsn-trace energy  <trace> <node>
//! wmsn-trace health  <trace>                        # run the health monitor offline
//! wmsn-trace health  <capture> --window <lo..hi> [--full-scan]  # windowed detector replay
//! wmsn-trace explain <capture> <alert#|json> [--span W] [--full-scan]  # alert provenance
//! wmsn-trace compact <in> <out> [--keep-last N] [--keep-alert-windows W]
//! wmsn-trace record-e18 <out> [seed]                # checkpointed gateway-death capture
//! wmsn-trace alerts  <trace>                        # just the alert JSONL stream
//! wmsn-trace top     <trace> [k]                    # k busiest nodes by tx (default 10)
//! wmsn-trace index   <capture>                      # segment directory of a segmented capture
//! wmsn-trace pack    <in> <out> [segment_frames]    # JSONL → segmented capture
//! wmsn-trace convert <in> <out>                     # segmented capture → JSONL
//! ```
//!
//! `health --window` and `explain` resume the detector bank from the
//! nearest embedded checkpoint (segmented captures recorded through
//! `wmsn_health::ForensicCaptureSink`, e.g. by `record-e18`) and replay
//! only the segments the window touches. Their stdout is byte-identical
//! to a `--full-scan` genesis replay — CI `cmp`-gates both — while the
//! replay statistics (checkpoint used, segments read) go to stderr.
//! `compact` applies a retention policy: old segments outside the kept
//! window collapse to their directory summaries (index-exact, but
//! frame reads into them fail loudly) with checkpoints re-embedded so
//! windowed queries over retained ranges keep working.
//!
//! The binary trace format is the segmented `.wcap` capture: `record`
//! writes one, `convert` exports it to JSONL (the only JSONL writer),
//! and `pack` turns JSONL back into a capture. Every query accepts a
//! capture or JSONL — the input is sniffed by its first bytes (captures
//! open with the `WMSNTRS` magic) — and runs the same
//! `wmsn_trace::replay` query code over either: a capture through
//! segment-at-a-time decode with index-driven segment skipping (a query
//! over a multi-gigabyte capture holds one segment in memory), JSONL
//! through the in-memory [`Replay`]. Both print identical records byte
//! for byte (pinned in CI by the JSONL-vs-capture parity step).
//!
//! A segmented capture whose trailer records `frames_dropped > 0` is a
//! *sample* of the trace stream, not a transcript. This workspace's
//! writers never drop frames, but a capture is read from disk and may
//! come from elsewhere, so every command that opens one prints a
//! `capture_dropped_frames` warning on stderr first.
//!
//! `health`/`alerts`/`top` stream the recorded trace through the same
//! `wmsn_health::HealthMonitor` the simulator installs online, so an
//! offline fingerprint matches the live one byte for byte.
//!
//! All output is structured records (one flat JSON object per line).
//! Malformed traces and missing messages exit non-zero through one
//! helper (`die_load`) that always reports the path, and for JSONL the
//! line of the failure — which is what the CI step relies on.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use wmsn_core::builder::build_spr;
use wmsn_core::drivers::SprDriver;
use wmsn_core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_health::{
    alerts_in_window, compact_capture, explain_alert, replay_window, CompactionPolicy, HealthAlert,
    HealthConfig, HealthMonitor, WindowReplayStats,
};
use wmsn_trace::replay::MessagePath;
use wmsn_trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, expect_sink,
    is_segmented_capture, log_error, log_record, tag_name, write_stdout, CaptureConfig,
    CaptureReader, CaptureSink, EventSource, Replay, ScanFilter, ScanStats, TraceEvent,
    DEFAULT_SEGMENT_FRAMES, TAG_COUNT,
};
use wmsn_util::json::Json;

fn usage() -> ! {
    write_stdout(format_args!(
        "usage: wmsn-trace record  <out> [seed] [rounds]\n\
         \x20      wmsn-trace summary <trace>\n\
         \x20      wmsn-trace path    <trace> <origin> <msg_id>\n\
         \x20      wmsn-trace drop    <trace> <seq>\n\
         \x20      wmsn-trace energy  <trace> <node>\n\
         \x20      wmsn-trace health  <trace>\n\
         \x20      wmsn-trace health  <capture> --window <lo..hi> [--full-scan]\n\
         \x20      wmsn-trace explain <capture> <alert#|json-line> [--span W] [--full-scan]\n\
         \x20      wmsn-trace compact <in> <out> [--keep-last N] [--keep-alert-windows W]\n\
         \x20      wmsn-trace record-e18 <out> [seed]\n\
         \x20      wmsn-trace alerts  <trace>\n\
         \x20      wmsn-trace top     <trace> [k]\n\
         \x20      wmsn-trace index   <capture>\n\
         \x20      wmsn-trace pack    <in> <out> [segment_frames]\n\
         \x20      wmsn-trace convert <in> <out>\n\
         (<trace> may be a segmented capture or JSONL; the format is\n\
         \x20sniffed)\n"
    ));
    std::process::exit(2);
}

/// The one load/IO-error exit path: every failure to open, read, parse
/// or write a trace reports the same record shape — path and error (a
/// JSONL error names its line) — then exits 1.
fn die_load(path: &str, error: String) -> ! {
    log_error(
        "trace_load_error",
        vec![
            ("path", Json::from(path.to_string())),
            ("error", Json::from(error)),
        ],
    );
    std::process::exit(1);
}

/// Whether `path` holds a segmented capture (JSONL otherwise), sniffed
/// from its first 8 bytes. An unreadable file counts as JSONL and lets
/// the real open report the error.
fn is_capture(path: &str) -> bool {
    let mut head = [0u8; 8];
    let n = File::open(path)
        .and_then(|mut f| f.read(&mut head))
        .unwrap_or(0);
    is_segmented_capture(&head[..n])
}

/// Open a segmented capture, validating footer and directory. If the
/// trailer records dropped frames, warn on stderr before any query output:
/// the capture is a partial sample and must never be silently trusted.
fn open_capture(path: &str) -> CaptureReader<BufReader<File>> {
    let r = CaptureReader::open(path).unwrap_or_else(|e| die_load(path, e));
    if r.frames_dropped() > 0 {
        log_error(
            "capture_dropped_frames",
            vec![
                ("path", Json::from(path.to_string())),
                ("frames_dropped", Json::from(r.frames_dropped())),
                ("frames", Json::from(r.frames())),
                (
                    "warning",
                    Json::from(
                        "capture trailer records dropped frames; \
                         query answers reflect a partial trace",
                    ),
                ),
            ],
        );
    }
    r
}

/// Decode a JSONL trace; a malformed line exits with its 1-based line
/// number.
fn load_jsonl(path: &str) -> Replay {
    let file = File::open(path).unwrap_or_else(|e| die_load(path, e.to_string()));
    Replay::from_reader(BufReader::new(file)).unwrap_or_else(|e| die_load(path, e))
}

fn parse_u64(s: &str, what: &'static str) -> u64 {
    s.parse().unwrap_or_else(|_| {
        log_error(
            "trace_error",
            vec![
                ("expected", Json::from(what)),
                ("got", Json::from(s.to_string())),
            ],
        );
        std::process::exit(2);
    })
}

/// A trace opened for querying.
enum Source {
    /// A segmented capture: answers through its index, one segment at
    /// a time.
    Capture(CaptureReader<BufReader<File>>),
    /// JSONL, decoded into memory.
    Jsonl(Replay),
}

impl EventSource for Source {
    fn tag_counts(&self) -> [u64; TAG_COUNT] {
        match self {
            Source::Capture(r) => r.tag_counts(),
            Source::Jsonl(r) => r.tag_counts(),
        }
    }

    fn scan<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        filter: &ScanFilter,
        f: F,
    ) -> Result<ScanStats, String> {
        match self {
            Source::Capture(r) => r.scan(filter, f),
            Source::Jsonl(r) => r.scan(filter, f),
        }
    }
}

/// Open any trace as a query source, by its sniffed format.
fn open_source(path: &str) -> Source {
    if is_capture(path) {
        Source::Capture(open_capture(path))
    } else {
        Source::Jsonl(load_jsonl(path))
    }
}

/// Run the E1 kernel (SPR over 40 uniformly deployed sensors, three
/// gateways) into a segmented capture for `rounds` rounds.
fn record(out: &str, seed: u64, rounds: u32) {
    let field = FieldParams::default_uniform(40, seed);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut driver = SprDriver::new(scen);
    let sink = CaptureSink::create(out, CaptureConfig::default())
        .unwrap_or_else(|e| die_load(out, e.to_string()));
    driver.scenario.world.set_trace_sink(Box::new(sink));
    for _ in 0..rounds {
        driver.run_round();
    }
    let mut sink = driver.scenario.world.take_trace_sink();
    let cap = expect_sink::<CaptureSink>(sink.as_deref_mut())
        .finalize()
        .unwrap_or_else(|| die_load(out, "capture write failed".into()));
    let m = driver.scenario.world.metrics();
    log_record(
        "trace_written",
        vec![
            ("path", Json::from(out.to_string())),
            ("seed", Json::from(seed)),
            ("rounds", Json::from(u64::from(rounds))),
            ("frames", Json::from(cap.frames)),
            ("originated", Json::from(m.originated)),
            ("delivered", Json::from(m.unique_deliveries())),
        ],
    );
}

/// Pack a JSONL trace into a segmented capture. JSONL carries no causal
/// keys, so events are stamped `at = t, key = 0`.
fn pack(input: &str, out: &str, segment_frames: usize) {
    if is_capture(input) {
        die_load(input, "input is already a segmented capture".into());
    }
    let file = File::create(out).unwrap_or_else(|e| die_load(out, e.to_string()));
    let mut w =
        wmsn_trace::CaptureWriter::new(BufWriter::new(file), CaptureConfig { segment_frames })
            .unwrap_or_else(|e| die_load(out, e.to_string()));
    load_jsonl(input)
        .scan(&ScanFilter::all(), |ev, at, key| {
            w.push(ev, at, key)
                .unwrap_or_else(|e| die_load(out, e.to_string()));
        })
        .unwrap_or_else(|e| die_load(input, e));
    let (_, stats) = w.finish().unwrap_or_else(|e| die_load(out, e.to_string()));
    log_record(
        "trace_packed",
        vec![
            ("input", Json::from(input.to_string())),
            ("output", Json::from(out.to_string())),
            ("frames", Json::from(stats.frames)),
            ("segments", Json::from(stats.segments)),
            ("segment_frames", Json::from(segment_frames)),
            ("bytes", Json::from(stats.bytes)),
        ],
    );
}

/// Print the segment directory of a segmented capture: one record per
/// segment with its byte offset, frame count, `at` range and per-kind
/// counts — the index the streaming queries prune with.
fn index(path: &str) {
    let r = open_capture(path);
    log_record(
        "capture_index",
        vec![
            ("path", Json::from(path.to_string())),
            ("frames", Json::from(r.frames())),
            ("segments", Json::from(r.segments().len())),
            ("bytes", Json::from(r.bytes())),
            ("frames_dropped", Json::from(r.frames_dropped())),
        ],
    );
    for (i, seg) in r.segments().iter().enumerate() {
        let mut kinds = Vec::new();
        for t in 1..=TAG_COUNT as u8 {
            let n = seg.count_of_tag(t);
            if n > 0 {
                kinds.push((tag_name(t).expect("tag in range"), Json::from(n)));
            }
        }
        log_record(
            "capture_segment",
            vec![
                ("segment", Json::from(i)),
                ("offset", Json::from(seg.offset)),
                ("frames", Json::from(u64::from(seg.frames))),
                ("at_min", Json::from(seg.at_min)),
                ("at_max", Json::from(seg.at_max)),
                ("counts", Json::obj(kinds)),
            ],
        );
    }
}

/// Export a segmented capture to JSONL: each decoded frame renders
/// through `TraceEvent::to_json`, producing bytes identical to a live
/// `JsonlSink` over the same events.
fn convert(input: &str, out: &str) {
    if !is_capture(input) {
        die_load(
            input,
            "convert reads a segmented capture (JSONL is the export format)".into(),
        );
    }
    let mut r = open_capture(input);
    let file = File::create(out).unwrap_or_else(|e| die_load(out, e.to_string()));
    let mut w = BufWriter::new(file);
    let mut events = 0u64;
    r.scan(&ScanFilter::all(), |ev, _, _| {
        writeln!(w, "{}", ev.to_json()).unwrap_or_else(|e| die_load(out, e.to_string()));
        events += 1;
    })
    .unwrap_or_else(|e| die_load(input, e));
    w.flush().unwrap_or_else(|e| die_load(out, e.to_string()));
    log_record(
        "trace_converted",
        vec![
            ("input", Json::from(input.to_string())),
            ("output", Json::from(out.to_string())),
            ("events", Json::from(events)),
        ],
    );
}

fn summary(path: &str) {
    let counts = capture_counts(&open_source(path));
    log_record(
        "trace_summary",
        vec![
            ("path", Json::from(path.to_string())),
            ("events", Json::from(counts.values().sum::<u64>())),
        ],
    );
    for (ev, n) in counts {
        log_record(
            "trace_count",
            vec![("ev", Json::from(ev)), ("count", Json::from(n))],
        );
    }
}

fn print_path(origin: u64, msg_id: u64, found: Option<MessagePath>) {
    let Some(p) = found else {
        log_error(
            "trace_error",
            vec![
                ("message", Json::from("message not found in trace")),
                ("origin", Json::from(origin)),
                ("msg_id", Json::from(msg_id)),
            ],
        );
        std::process::exit(1);
    };
    for hop in &p.hops {
        log_record(
            "path_hop",
            vec![
                ("t", Json::from(hop.t)),
                ("node", Json::from(hop.node)),
                ("next", hop.next.map(Json::from).unwrap_or(Json::Null)),
                ("hops", Json::from(hop.hops)),
            ],
        );
    }
    match p.delivered {
        Some((t, dst, hops, latency_us)) => log_record(
            "path_delivered",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(dst)),
                ("hops", Json::from(hops)),
                ("latency_us", Json::from(latency_us)),
            ],
        ),
        None => log_record(
            "path_undelivered",
            vec![
                ("origin", Json::from(origin)),
                ("msg_id", Json::from(msg_id)),
            ],
        ),
    }
}

fn path_query(path: &str, origin: u64, msg_id: u64) {
    let found = capture_path_of(&mut open_source(path), origin, msg_id)
        .unwrap_or_else(|e| die_load(path, e));
    print_path(origin, msg_id, found);
}

fn drop_query(path: &str, seq: u64) {
    let drops =
        capture_drops_of_seq(&mut open_source(path), seq).unwrap_or_else(|e| die_load(path, e));
    log_record(
        "drop_summary",
        vec![("seq", Json::from(seq)), ("drops", Json::from(drops.len()))],
    );
    for (t, node, cause) in drops {
        log_record(
            "drop_event",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(node)),
                ("cause", Json::from(cause)),
            ],
        );
    }
}

fn energy_query(path: &str, node: u64) {
    let timeline =
        capture_energy_of(&mut open_source(path), node).unwrap_or_else(|e| die_load(path, e));
    log_record(
        "energy_summary",
        vec![
            ("node", Json::from(node)),
            ("points", Json::from(timeline.len())),
        ],
    );
    for (t, j) in timeline {
        log_record(
            "energy_point",
            vec![
                ("t", Json::from(t)),
                ("node", Json::from(node)),
                ("consumed_j", Json::Num(j)),
            ],
        );
    }
}

/// Stream a recorded trace through the health monitor, event by event —
/// the offline twin of installing the monitor as the world's sink. The
/// detector bank sees the same event sequence whichever format holds
/// the trace.
fn monitor_file(path: &str) -> HealthMonitor {
    let mut monitor = HealthMonitor::with_config(HealthConfig::default());
    open_source(path)
        .scan(&ScanFilter::all(), |ev, _, _| monitor.observe(ev))
        .unwrap_or_else(|e| die_load(path, e));
    monitor.finalize();
    monitor
}

fn health(path: &str) {
    let m = monitor_file(path);
    let net = m.net();
    log_record(
        "health_summary",
        vec![
            ("path", Json::from(path.to_string())),
            ("events", Json::from(net.events)),
            ("tx", Json::from(net.tx_total)),
            ("rx", Json::from(net.rx_total)),
            ("drops", Json::from(net.drops_total())),
            ("forwards", Json::from(net.forwards)),
            ("dup_forwards", Json::from(net.dup_forwards)),
            ("delivers", Json::from(net.delivers)),
            ("dup_delivers", Json::from(net.dup_delivers)),
            ("route_installs", Json::from(net.route_installs)),
            ("alerts", Json::from(m.alerts().len())),
        ],
    );
    for (&id, g) in m.gateways() {
        log_record(
            "health_gateway",
            vec![
                ("gateway", Json::from(id)),
                ("delivers", Json::from(g.delivers)),
                ("moves", Json::from(g.moves)),
                ("routes_installed", Json::from(g.routes_installed)),
                ("deliver_rate", Json::Num(g.deliver_rate.get())),
                ("silence_latched", Json::from(g.silence_latched)),
            ],
        );
    }
    for a in m.alerts() {
        write_stdout(format_args!("{}\n", a.to_json()));
    }
}

fn alerts(path: &str) {
    let m = monitor_file(path);
    write_stdout(format_args!("{}", m.alerts_jsonl()));
}

/// Replay statistics go to stderr: stdout of `health --window` /
/// `explain` is `cmp`-gated against the `--full-scan` baseline, whose
/// statistics necessarily differ.
fn log_replay_stats(path: &str, stats: &WindowReplayStats) {
    log_error(
        "windowed_replay",
        vec![
            ("path", Json::from(path.to_string())),
            (
                "checkpoint_seg",
                stats.checkpoint_seg.map_or(Json::Null, Json::from),
            ),
            ("segments_read", Json::from(stats.segments_read)),
            ("segments_total", Json::from(stats.segments_total)),
            ("frames_decoded", Json::from(stats.frames_decoded)),
        ],
    );
}

/// `health --window lo..hi`: windowed detector replay over a segmented
/// capture. Prints exactly the alerts stamped inside the window —
/// byte-identical whether the replay resumed from a checkpoint or
/// (`--full-scan`) from genesis.
fn health_window(path: &str, lo: u64, hi: u64, full_scan: bool) {
    if !is_capture(path) {
        die_load(
            path,
            "health --window needs a segmented capture (the segment \
             directory drives checkpoint seek and segment skipping)"
                .to_string(),
        );
    }
    let mut r = open_capture(path);
    let (monitor, stats) = replay_window(&mut r, lo, hi, HealthConfig::default(), full_scan)
        .unwrap_or_else(|e| die_load(path, e));
    for a in alerts_in_window(&monitor, lo, hi) {
        write_stdout(format_args!("{}\n", a.to_json()));
    }
    log_replay_stats(path, &stats);
}

/// `explain <capture> <alert#|json-line>`: provenance report for one
/// alert, via windowed replay of the aggregation windows leading up to
/// its stamp. An integer argument indexes the capture's embedded alert
/// stream; anything else must be the alert's JSON line.
fn explain(path: &str, which: &str, span: u64, full_scan: bool) {
    if !is_capture(path) {
        die_load(
            path,
            "explain needs a segmented capture (the segment directory \
             drives checkpoint seek and segment skipping)"
                .to_string(),
        );
    }
    let mut r = open_capture(path);
    let alert = if let Ok(idx) = which.parse::<usize>() {
        let Some(line) = r.alerts_jsonl().lines().nth(idx) else {
            die_load(
                path,
                format!(
                    "alert index {idx} out of range: the capture embeds {} alerts \
                     (record it through a checkpointing sink, or pass the alert's \
                     JSON line instead)",
                    r.alerts_jsonl().lines().count()
                ),
            );
        };
        HealthAlert::from_json_line(line).unwrap_or_else(|e| die_load(path, e))
    } else {
        HealthAlert::from_json_line(which).unwrap_or_else(|e| die_load(path, e))
    };
    let (forensics, stats) = explain_alert(&mut r, alert, span, HealthConfig::default(), full_scan)
        .unwrap_or_else(|e| die_load(path, e));
    write_stdout(format_args!("{}", forensics.report()));
    log_replay_stats(path, &stats);
}

/// `compact <in> <out>`: rewrite a capture under the retention policy,
/// keeping frames only for recent and alert-adjacent segments.
fn compact(input: &str, out: &str, policy: CompactionPolicy) {
    let stats = compact_capture(
        std::path::Path::new(input),
        std::path::Path::new(out),
        HealthConfig::default(),
        policy,
    )
    .unwrap_or_else(|e| die_load(input, e));
    log_record(
        "compact",
        vec![
            ("input", Json::from(input.to_string())),
            ("out", Json::from(out.to_string())),
            ("segments_total", Json::from(stats.segments_total)),
            ("segments_retained", Json::from(stats.segments_retained)),
            ("segments_compacted", Json::from(stats.segments_compacted)),
            ("frames_retained", Json::from(stats.frames_retained)),
            ("frames_compacted", Json::from(stats.frames_compacted)),
            ("checkpoints", Json::from(stats.checkpoints)),
            ("alerts", Json::from(stats.alerts)),
        ],
    );
}

/// `record-e18 <out> [seed]`: the checkpointed gateway-death capture
/// the forensics CI steps replay (a healthy MLR round, the kill, a
/// failure round, recorded through `ForensicCaptureSink` with a
/// checkpoint at every 256-frame segment).
fn record_e18(out: &str, seed: u64) {
    let (stats, alerts) =
        wmsn_core::experiments::e18_forensics_capture(std::path::Path::new(out), seed);
    log_record(
        "record_e18",
        vec![
            ("out", Json::from(out.to_string())),
            ("seed", Json::from(seed)),
            ("frames", Json::from(stats.frames)),
            ("segments", Json::from(stats.segments)),
            ("bytes", Json::from(stats.bytes)),
            ("alerts", Json::from(alerts)),
        ],
    );
}

fn top(path: &str, k: usize) {
    let m = monitor_file(path);
    let mut order: Vec<(u64, usize)> = m
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, s)| (s.tx_total(), i))
        .filter(|&(tx, _)| tx > 0)
        .collect();
    // Busiest first; stable on ties by node id.
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for &(_, i) in order.iter().take(k) {
        let s = &m.nodes()[i];
        log_record(
            "top_node",
            vec![
                ("node", Json::from(i as u64)),
                ("tx", Json::from(s.tx_total())),
                ("tx_control", Json::from(s.tx_control)),
                ("tx_data", Json::from(s.tx_data)),
                ("rx", Json::from(s.rx)),
                ("drops", Json::from(s.drops_total())),
                ("forwards", Json::from(s.forwards)),
                ("dup_forwards", Json::from(s.dup_forwards)),
                ("delivers", Json::from(s.delivers)),
                ("spontaneous_ctrl", Json::from(s.spontaneous_ctrl)),
            ],
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let Some(out) = args.get(1) else { usage() };
            let seed = args.get(2).map_or(11, |s| parse_u64(s, "seed"));
            let rounds = args.get(3).map_or(1, |s| parse_u64(s, "rounds")) as u32;
            record(out, seed, rounds);
        }
        Some("summary") => {
            let Some(path) = args.get(1) else { usage() };
            summary(path);
        }
        Some("path") => {
            let (Some(path), Some(o), Some(m)) = (args.get(1), args.get(2), args.get(3)) else {
                usage()
            };
            path_query(path, parse_u64(o, "origin"), parse_u64(m, "msg_id"));
        }
        Some("drop") => {
            let (Some(path), Some(s)) = (args.get(1), args.get(2)) else {
                usage()
            };
            drop_query(path, parse_u64(s, "seq"));
        }
        Some("energy") => {
            let (Some(path), Some(n)) = (args.get(1), args.get(2)) else {
                usage()
            };
            energy_query(path, parse_u64(n, "node"));
        }
        Some("health") => {
            let Some(path) = args.get(1) else { usage() };
            let full_scan = args.iter().any(|s| s == "--full-scan");
            if let Some(i) = args.iter().position(|s| s == "--window") {
                let Some(range) = args.get(i + 1) else {
                    usage()
                };
                let Some((lo, hi)) = range.split_once("..") else {
                    usage()
                };
                health_window(
                    path,
                    parse_u64(lo, "window start (us)"),
                    parse_u64(hi, "window end (us)"),
                    full_scan,
                );
            } else {
                health(path);
            }
        }
        Some("explain") => {
            let (Some(path), Some(which)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let full_scan = args.iter().any(|s| s == "--full-scan");
            let span =
                args.iter()
                    .position(|s| s == "--span")
                    .map_or(4, |i| match args.get(i + 1) {
                        Some(w) => parse_u64(w, "span (windows)"),
                        None => usage(),
                    });
            explain(path, which, span, full_scan);
        }
        Some("compact") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let mut policy = CompactionPolicy::default();
            if let Some(i) = args.iter().position(|s| s == "--keep-last") {
                match args.get(i + 1) {
                    Some(n) => policy.keep_last = parse_u64(n, "keep-last (segments)") as usize,
                    None => usage(),
                }
            }
            if let Some(i) = args.iter().position(|s| s == "--keep-alert-windows") {
                match args.get(i + 1) {
                    Some(w) => {
                        policy.alert_span_windows = parse_u64(w, "keep-alert-windows (windows)")
                    }
                    None => usage(),
                }
            }
            compact(input, out, policy);
        }
        Some("record-e18") => {
            let Some(out) = args.get(1) else { usage() };
            let seed = args.get(2).map_or(1, |s| parse_u64(s, "seed"));
            record_e18(out, seed);
        }
        Some("alerts") => {
            let Some(path) = args.get(1) else { usage() };
            alerts(path);
        }
        Some("top") => {
            let Some(path) = args.get(1) else { usage() };
            let k = args.get(2).map_or(10, |s| parse_u64(s, "k")) as usize;
            top(path, k);
        }
        Some("index") => {
            let Some(path) = args.get(1) else { usage() };
            index(path);
        }
        Some("pack") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            let seg = args
                .get(3)
                .map_or(DEFAULT_SEGMENT_FRAMES, |s| {
                    parse_u64(s, "segment_frames") as usize
                })
                .max(1);
            pack(input, out, seg);
        }
        Some("convert") => {
            let (Some(input), Some(out)) = (args.get(1), args.get(2)) else {
                usage()
            };
            convert(input, out);
        }
        _ => usage(),
    }
}
