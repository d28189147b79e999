//! End-to-end timing of the simulator's hot paths.
//!
//! Times the E9-scalability kernel (n = 800, analytic and fully
//! simulated, untraced and with an inline health monitor), the n=100k
//! round on the reference kernel (untraced, and monitored through a
//! capture file), the E17 seed sweep and a wire microbench, and writes the
//! tracked perf baseline `BENCH_hotpath.json` at the repo root. For the
//! simulated kernels it also records event-loop throughput
//! (`events_per_sec`) and the peak event-queue depth alongside wall
//! time.
//!
//! Workflow:
//!
//! ```text
//! cargo run --release -p wmsn-bench --bin hotpath -- --label before
//! # ... land the optimisation ...
//! cargo run --release -p wmsn-bench --bin hotpath -- --label after
//! ```
//!
//! `--label before` snapshots timings to
//! `target/BENCH_hotpath.before.json` (under `CARGO_TARGET_DIR` when
//! set — scratch state, deliberately outside the working tree so a
//! bench run never dirties it); `--label after` (the default) re-times
//! and writes `BENCH_hotpath.json` with before/after/speedup per kernel.
//! Repetitions default to 3 (min is reported; override with
//! `HOTPATH_REPS`).
//!
//! A row's `before_s` (and its `before_note`, how that baseline was
//! obtained) comes from the `--label before` snapshot when one covers
//! the kernel, and is otherwise carried forward from the committed
//! `BENCH_hotpath.json`.
//!
//! `--check` is the CI smoke gate: it re-times the simulated E9 kernels
//! (n=800 untraced and monitored, and the untraced n=100k row) and exits
//! non-zero if wall time regressed more than 25% against the committed
//! `BENCH_hotpath.json` baseline.

use std::hint::black_box;
use std::time::Instant;
use wmsn_core::experiments::{
    e17_seed_sweep, e9_event_stats, e9_large, e9_large_monitored, e9_scalability,
};
use wmsn_health::{HealthConfig, HealthMonitor};
use wmsn_routing::wire::{rreq_append_forward, RoutingMsg, RoutingMsgView};
use wmsn_trace::{log_error, log_record, CaptureStats, TraceSink};
use wmsn_util::json::Json;
use wmsn_util::NodeId;

/// Where the `--label before` snapshot lives: under the cargo target
/// directory, never the working tree — a bench run must not dirty the
/// repo (only the committed `BENCH_hotpath.json` baseline is tracked).
fn before_snapshot_path() -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    std::path::PathBuf::from(target).join("BENCH_hotpath.before.json")
}

/// In-place flood-forward microbench: the per-hop RREQ rebroadcast
/// operation (decode and validate the frame into a view, memcpy the
/// frame, patch the path count, append our id) that the zero-copy
/// control plane put on the hot path.
fn flood_forward_kernel() -> usize {
    const ITERS: usize = 1_000_000;
    let frame = RoutingMsg::Rreq {
        origin: NodeId(1),
        req_id: 42,
        path: (1..=12).map(NodeId).collect(),
        wanted: Vec::new(),
    }
    .encode();
    let mut out = Vec::with_capacity(frame.len() + 4);
    let mut acc = 0usize;
    for i in 0..ITERS {
        let frame = black_box(&frame[..]);
        let Ok(RoutingMsgView::Rreq { path, .. }) = RoutingMsgView::decode(frame) else {
            panic!("valid frame");
        };
        rreq_append_forward(frame, path, NodeId(1000 + i as u32), &mut out).expect("valid frame");
        acc = acc.wrapping_add(black_box(&out).len());
    }
    acc
}

/// Sources reporting in the n=100k round. Route caches only populate
/// along reply paths, so *every* cache-cold SPR discovery is a
/// near-network-wide flood (~3M events at this density) — the source
/// count, not `n`, sets the event budget. Three stride-spaced sources
/// (~10M events) keep the round interactive and the CI `--check`
/// re-timing affordable.
const N100K_SOURCES: usize = 3;

/// One un-timed run of a kernel: event-loop statistics, plus the alert
/// count and capture telemetry of the kernel that records its trace to
/// disk.
struct RunStats {
    events: u64,
    peak_queue_depth: usize,
    monitored: Option<(u64, CaptureStats)>,
}

/// The n=800 E9 rounds' statistics with `sink` building each world's
/// trace sink.
fn n800_stats(sink: fn() -> Option<Box<dyn TraceSink>>) -> RunStats {
    let (events, peak_queue_depth, _) = e9_event_stats(800, 17, sink);
    RunStats {
        events,
        peak_queue_depth,
        monitored: None,
    }
}

/// The monitored n=800 row's sink: the health monitor installed inline.
fn inline_monitor() -> Option<Box<dyn TraceSink>> {
    Some(HealthMonitor::boxed(HealthConfig::default()))
}

/// The monitored n=100k round with its trace recorded to a capture
/// file in a scratch directory (deleted afterwards) — the configuration
/// the `e9_n100k_sim_monitored` row times.
fn n100k_monitored_captured() -> (wmsn_core::experiments::E9LargeSummary, u64, CaptureStats) {
    let dir = std::env::temp_dir().join(format!(
        "wmsn-hotpath-capture-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).expect("create capture scratch dir");
    let (summary, monitor, capture) = e9_large_monitored(100_000, 17, N100K_SOURCES, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    (summary, monitor.alerts().len() as u64, capture)
}

struct Kernel {
    name: &'static str,
    desc: &'static str,
    run: fn() -> usize,
    /// Optional statistics from one un-timed run of the same kernel.
    stats: Option<fn() -> RunStats>,
}

const KERNELS: &[Kernel] = &[
    Kernel {
        name: "e9_n800_analytic",
        desc: "E9 scalability n=800: build + placement + hop fields (no event loop)",
        run: || e9_scalability(&[800], 17, false).len(),
        stats: None,
    },
    Kernel {
        name: "e9_n800_sim",
        desc: "E9 scalability n=800: full SPR round simulation (transmit/deliver hot path)",
        run: || e9_scalability(&[800], 17, true).len(),
        stats: Some(|| n800_stats(|| None)),
    },
    Kernel {
        name: "e9_n800_sim_monitored",
        desc: "E9 n=800 SPR rounds with the health monitor installed inline as the world's trace sink, so every observe() and the detector bank run on the simulation thread (monitor-enabled row; e9_n800_sim above is the one-branch disabled cost)",
        run: || e9_event_stats(800, 17, inline_monitor).0 as usize,
        stats: Some(|| n800_stats(inline_monitor)),
    },
    Kernel {
        name: "e9_n100k_sim",
        desc: "E9 large: n=100k three-tier SPR round on the reference kernel, untraced",
        run: || e9_large(100_000, 17, N100K_SOURCES).events as usize,
        stats: Some(|| {
            let s = e9_large(100_000, 17, N100K_SOURCES);
            RunStats {
                events: s.events,
                peak_queue_depth: s.peak_queue_depth,
                monitored: None,
            }
        }),
    },
    Kernel {
        name: "e9_n100k_sim_monitored",
        desc: "E9 large: the n=100k round on the reference kernel recorded through one CaptureSink, then one health monitor fed from a full scan of that capture (one segment resident at a time)",
        run: || n100k_monitored_captured().0.events as usize,
        stats: Some(|| {
            let (s, alerts, capture) = n100k_monitored_captured();
            RunStats {
                events: s.events,
                peak_queue_depth: s.peak_queue_depth,
                monitored: Some((alerts, capture)),
            }
        }),
    },
    Kernel {
        name: "e17_sweep_8seeds",
        desc: "E17 robustness sweep: 8 seeded MLR rounds across cores",
        run: || {
            let seeds: Vec<u64> = (1..=8).collect();
            e17_seed_sweep(&seeds).len()
        },
        stats: None,
    },
    Kernel {
        name: "flood_forward",
        desc: "RREQ append-forward microbench: 1M in-place forwards of a 12-hop query",
        run: flood_forward_kernel,
        stats: None,
    },
];

fn time_kernel(k: &Kernel, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let t = Instant::now();
        let rows = (k.run)();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        log_record(
            "hotpath_rep",
            vec![
                ("kernel", Json::from(k.name)),
                ("rep", Json::from(rep + 1)),
                ("reps", Json::from(reps)),
                ("seconds", Json::Num(dt)),
                ("rows", Json::from(rows)),
            ],
        );
    }
    best
}

/// Pull `"key": <float>` out of a JSON document this tool wrote earlier.
/// (The workspace has no JSON parser; the format is our own, so a
/// substring scan is exact enough.)
fn extract_f64(doc: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One entry of the tracked baseline's `kernels` array: from its
/// `"kernel": "<name>"` up to the next entry, so a key the entry lacks
/// is never read from its neighbour.
fn kernel_entry<'a>(doc: &'a str, kernel: &str) -> Option<&'a str> {
    let anchor = format!("\"kernel\": \"{kernel}\"");
    let rest = &doc[doc.find(&anchor)? + anchor.len()..];
    Some(&rest[..rest.find("\"kernel\": ").unwrap_or(rest.len())])
}

/// Pull `"key": "<string>"` out of a JSON document this tool (or a
/// hand-annotated snapshot) wrote. Same substring-scan contract as
/// [`extract_f64`]; escapes are not interpreted (none are written).
fn extract_string(doc: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = doc.find(&needle)? + needle.len();
    let rest = &doc[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// `--check`: re-time the simulated E9 kernels (the n=800 round,
/// untraced and with an inline monitor, and the untraced n=100k round)
/// and fail (exit 1) if any regressed more than 25% against the
/// committed `BENCH_hotpath.json` baseline — the CI smoke gate for the
/// simulator hot path. A kernel absent from the baseline fails the gate
/// (exit 2) rather than passing silently.
fn run_check(reps: usize) -> ! {
    const CHECK_KERNELS: &[&str] = &["e9_n800_sim", "e9_n800_sim_monitored", "e9_n100k_sim"];
    const MAX_RATIO: f64 = 1.25;
    let doc = match std::fs::read_to_string("BENCH_hotpath.json") {
        Ok(doc) => doc,
        Err(e) => {
            log_error(
                "hotpath_check_error",
                vec![
                    ("missing_baseline", Json::from("BENCH_hotpath.json")),
                    ("error", Json::from(e.to_string())),
                ],
            );
            std::process::exit(2);
        }
    };
    let mut failed = false;
    for name in CHECK_KERNELS {
        let Some(baseline_s) = kernel_entry(&doc, name).and_then(|e| extract_f64(e, "after_s"))
        else {
            log_error(
                "hotpath_check_error",
                vec![("kernel_not_in_baseline", Json::from(*name))],
            );
            std::process::exit(2);
        };
        let k = KERNELS
            .iter()
            .find(|k| k.name == *name)
            .expect("check kernel is registered");
        let now_s = time_kernel(k, reps);
        let ratio = now_s / baseline_s;
        log_record(
            "hotpath_check",
            vec![
                ("kernel", Json::from(*name)),
                ("baseline_s", Json::Num(baseline_s)),
                ("now_s", Json::Num(now_s)),
                ("ratio", Json::Num(ratio)),
                ("max_ratio", Json::Num(MAX_RATIO)),
            ],
        );
        if ratio > MAX_RATIO {
            failed = true;
            log_error(
                "hotpath_check_failed",
                vec![
                    ("kernel", Json::from(*name)),
                    ("regression_pct", Json::Num((ratio - 1.0) * 100.0)),
                ],
            );
        }
    }
    std::process::exit(i32::from(failed));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "after".to_string();
    let mut check = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                label = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: hotpath [--label before|after] [--check]");
                return;
            }
            other => {
                log_error(
                    "hotpath_error",
                    vec![("unknown_argument", Json::from(other.to_string()))],
                );
                std::process::exit(2);
            }
        }
    }
    let reps: usize = std::env::var("HOTPATH_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);

    if check {
        run_check(reps);
    }

    log_record(
        "hotpath_start",
        vec![
            ("kernels", Json::from(KERNELS.len())),
            ("reps", Json::from(reps)),
            ("label", Json::from(label.clone())),
        ],
    );
    let mut timings = Vec::new();
    for k in KERNELS {
        log_record(
            "hotpath_kernel",
            vec![
                ("kernel", Json::from(k.name)),
                ("description", Json::from(k.desc)),
            ],
        );
        timings.push((k, time_kernel(k, reps)));
    }

    if label == "before" {
        let snap = Json::Obj(
            timings
                .iter()
                .map(|(k, s)| (format!("{}_before_s", k.name), Json::Num(*s)))
                .collect(),
        );
        let path = before_snapshot_path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create snapshot dir");
        }
        std::fs::write(&path, snap.to_string_pretty()).expect("write before snapshot");
        log_record(
            "hotpath_wrote",
            vec![("path", Json::from(path.display().to_string()))],
        );
        return;
    }

    let before_doc = std::fs::read_to_string(before_snapshot_path()).ok();
    let committed_doc = std::fs::read_to_string("BENCH_hotpath.json").ok();
    // Before/after pairing: the `--label before` snapshot (with its
    // optional `<kernel>_before_note`), else the committed row's pair.
    // `before_source` records which one each row used.
    let befores: Vec<Option<(f64, &'static str, Option<String>)>> = timings
        .iter()
        .map(|(k, _)| {
            let snapshot = before_doc.as_deref().and_then(|doc| {
                let s = extract_f64(doc, &format!("{}_before_s", k.name))?;
                let note = extract_string(doc, &format!("{}_before_note", k.name));
                Some((s, "label_before_snapshot", note))
            });
            snapshot.or_else(|| {
                let entry = kernel_entry(committed_doc.as_deref()?, k.name)?;
                let s = extract_f64(entry, "before_s")?;
                Some((s, "carried_forward", extract_string(entry, "before_note")))
            })
        })
        .collect();
    let kernels = Json::Arr(
        timings
            .iter()
            .zip(&befores)
            .map(|((k, after_s), before)| {
                let mut pairs = vec![
                    ("kernel", Json::from(k.name)),
                    ("description", Json::from(k.desc)),
                    ("reps", Json::from(reps)),
                    ("after_s", Json::Num(*after_s)),
                ];
                if let Some(stats) = k.stats {
                    let st = stats();
                    pairs.push(("events", Json::from(st.events)));
                    pairs.push(("events_per_sec", Json::Num(st.events as f64 / after_s)));
                    pairs.push(("peak_queue_depth", Json::from(st.peak_queue_depth)));
                    if let Some((alerts, cap)) = st.monitored {
                        pairs.push(("alerts", Json::from(alerts)));
                        pairs.push(("capture_bytes_written", Json::from(cap.bytes)));
                        pairs.push(("capture_segments", Json::from(cap.segments)));
                        pairs.push(("capture_frames", Json::from(cap.frames)));
                        // Effective write rate over the whole timed
                        // round (sim + encode + write + scan), not a
                        // raw disk number.
                        pairs.push((
                            "capture_write_mb_per_s",
                            Json::Num(cap.bytes as f64 / 1e6 / after_s),
                        ));
                    }
                }
                if let Some((before_s, source, note)) = before {
                    pairs.push(("before_s", Json::Num(*before_s)));
                    pairs.push(("speedup", Json::Num(before_s / after_s)));
                    pairs.push(("before_source", Json::from(*source)));
                    if let Some(note) = note {
                        pairs.push(("before_note", Json::from(note.clone())));
                    }
                }
                Json::obj(pairs)
            })
            .collect(),
    );
    let doc = Json::obj([
        ("bench", Json::from("hotpath")),
        (
            "command",
            Json::from("cargo run --release -p wmsn-bench --bin hotpath -- --label after"),
        ),
        ("reps_policy", Json::from("min wall-clock over reps")),
        ("kernels", kernels),
    ]);
    std::fs::write("BENCH_hotpath.json", doc.to_string_pretty()).expect("write BENCH_hotpath.json");
    log_record(
        "hotpath_wrote",
        vec![("path", Json::from("BENCH_hotpath.json"))],
    );
    for ((k, after_s), before) in timings.iter().zip(&befores) {
        let mut fields = vec![
            ("kernel", Json::from(k.name)),
            ("after_s", Json::Num(*after_s)),
        ];
        if let Some((before_s, _, _)) = before {
            fields.push(("before_s", Json::Num(*before_s)));
            fields.push(("speedup", Json::Num(before_s / after_s)));
        }
        log_record("hotpath_result", fields);
    }
}
