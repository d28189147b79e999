//! End-to-end timing of the simulator's hot paths.
//!
//! Times the E9-scalability kernel (n = 800, analytic and fully
//! simulated) and the E17 seed sweep, and writes the tracked perf
//! baseline `BENCH_hotpath.json` at the repo root. For the simulated
//! kernel it also records event-loop throughput (`events_per_sec`) and
//! the peak event-queue depth alongside wall time.
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
//! bench run never dirties it); `--label after` (the default) re-times,
//! folds in the snapshot if one exists (falling back to a repo-root
//! `BENCH_hotpath.before.json` from older runs), and writes
//! `BENCH_hotpath.json` with before/after/speedup per kernel. Repetitions default to 3 (min is reported; override with
//! `HOTPATH_REPS`).
//!
//! Every kernel row carries a before/after pair. The `before_s` value
//! comes from, in order of preference: the `--label before` snapshot
//! (a timing of the pre-change build); the kernel's own built-in
//! baseline run (`baseline` — the same workload with the optimisation
//! switched off, e.g. the n=100k row timing the single-threaded
//! full-medium path against the sharded fast-path kernel); or carried
//! forward from the committed `BENCH_hotpath.json`.
//!
//! `--threads N` sets the worker-thread count for the sharded kernels
//! (default: available parallelism).
//!
//! `--check` is the CI smoke gate: it re-times the simulated E9 kernels
//! (n=800 reference and the n=100k sharded row) and exits non-zero if
//! wall time regressed more than 25% against the committed
//! `BENCH_hotpath.json` baseline.

use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use wmsn_core::experiments::{
    e17_seed_sweep, e9_event_stats, e9_event_stats_monitored, e9_event_stats_monitored_ring,
    e9_large, e9_large_monitored, e9_large_monitored_inline, e9_scalability,
};
use wmsn_core::params::ParallelConfig;
use wmsn_routing::wire::{rreq_append_forward, RoutingMsg};
use wmsn_trace::{log_error, log_record, CaptureStats, RingStats};
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
/// operation (validate header, memcpy the frame, patch the path count,
/// append our id) that the zero-copy control plane put on the hot path.
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
        rreq_append_forward(black_box(&frame), NodeId(1000 + i as u32), &mut out)
            .expect("valid frame");
        acc = acc.wrapping_add(black_box(&out).len());
    }
    acc
}

/// Worker-thread count for the sharded kernels (`--threads`, default
/// available parallelism). A process-wide atomic so the `fn()`-typed
/// kernel entries below can read it without captures.
static THREADS: AtomicUsize = AtomicUsize::new(0);

fn bench_threads() -> usize {
    THREADS.load(Ordering::Relaxed).max(1)
}

/// Sources reporting in the n=100k round. Route caches only populate
/// along reply paths, so *every* cache-cold SPR discovery is a
/// near-network-wide flood (~3M events at this density) — the source
/// count, not `n`, sets the event budget. Three stride-spaced sources
/// (~10M events) keep the round interactive and the CI `--check`
/// re-timing affordable while still flooding every shard seam.
const N100K_SOURCES: usize = 3;

/// Un-timed statistics run for ring-pipeline kernels: `(events
/// processed, peak queue depth, ring telemetry, capture telemetry for
/// kernels that stream their trace to disk)`.
type RingStatsFn = fn() -> (u64, usize, RingStats, Option<CaptureStats>);

/// The monitored n=100k round with its trace streamed to per-shard
/// segmented capture files in a scratch directory (deleted afterwards)
/// instead of buffered in memory — the configuration the
/// `e9_n100k_sim_monitored` row times.
fn n100k_monitored_captured() -> (
    wmsn_core::experiments::E9LargeSummary,
    RingStats,
    u64,
    CaptureStats,
) {
    let dir = std::env::temp_dir().join(format!(
        "wmsn-hotpath-capture-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ));
    std::fs::create_dir_all(&dir).expect("create capture scratch dir");
    let out = e9_large_monitored(
        100_000,
        17,
        N100K_SOURCES,
        ParallelConfig::per_thread(bench_threads()),
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

struct Kernel {
    name: &'static str,
    desc: &'static str,
    run: fn() -> usize,
    /// Optional built-in baseline: the same workload with the
    /// optimisation under test switched off. Timed in the same
    /// invocation and used as `before_s` when no `--label before`
    /// snapshot covers this kernel.
    baseline: Option<fn() -> usize>,
    /// Optional event-loop statistics: `(events processed, peak queue
    /// depth)` for one un-timed run of the same kernel.
    event_stats: Option<fn() -> (u64, usize)>,
    /// For ring-pipeline kernels: one un-timed run returning the
    /// event-loop statistics *plus* the ring's backpressure telemetry
    /// (frames written/dropped, blocked-µs, peak occupancy). Supersedes
    /// `event_stats` when present.
    ring_stats: Option<RingStatsFn>,
}

const KERNELS: &[Kernel] = &[
    Kernel {
        name: "e9_n800_analytic",
        desc: "E9 scalability n=800: build + placement + hop fields (no event loop)",
        run: || e9_scalability(&[800], 17, false).len(),
        baseline: None,
        event_stats: None,
        ring_stats: None,
    },
    Kernel {
        name: "e9_n800_sim",
        desc: "E9 scalability n=800: full SPR round simulation (transmit/deliver hot path)",
        run: || e9_scalability(&[800], 17, true).len(),
        baseline: None,
        event_stats: Some(|| e9_event_stats(800, 17)),
        ring_stats: None,
    },
    Kernel {
        name: "e9_n800_sim_monitored",
        desc: "E9 n=800 SPR rounds monitored through the ring pipeline: the sim thread copies TraceEvent frames into a bounded SPSC ring and the health monitor's detector bank runs on the drain thread (monitor-enabled row; e9_n800_sim above is the one-branch disabled cost, which this change leaves untouched); built-in baseline is the pre-ring inline pipeline (monitor installed directly as the trace sink). NOTE: on a single-core host the drain thread cannot overlap the sim thread, so the enabled cost here is an upper bound — on multi-core hosts the detector work runs concurrently with the simulation",
        run: || e9_event_stats_monitored_ring(800, 17).0 as usize,
        baseline: Some(|| e9_event_stats_monitored(800, 17).0 as usize),
        event_stats: None,
        ring_stats: Some(|| {
            let (events, peak, ring) = e9_event_stats_monitored_ring(800, 17);
            (events, peak, ring, None)
        }),
    },
    Kernel {
        name: "e9_n100k_sim",
        desc: "E9 large: n=100k three-tier SPR round on the sharded kernel (one strip shard per --threads worker, unicast fast path on); built-in baseline is the same round on the single-threaded reference kernel with the fast path off — the tracked before_s comes from the snapshot: the pre-PR kernel (dense per-origin dedup tables) on this exact workload",
        run: || {
            e9_large(
                100_000,
                17,
                N100K_SOURCES,
                true,
                Some(ParallelConfig::per_thread(bench_threads())),
            )
            .events as usize
        },
        baseline: Some(|| e9_large(100_000, 17, N100K_SOURCES, false, None).events as usize),
        event_stats: Some(|| {
            let s = e9_large(
                100_000,
                17,
                N100K_SOURCES,
                true,
                Some(ParallelConfig::per_thread(bench_threads())),
            );
            (s.events, s.peak_queue_depth)
        }),
        ring_stats: None,
    },
    Kernel {
        name: "e9_n100k_sim_monitored",
        desc: "E9 large: the n=100k sharded round with full health monitoring and disk-streamed captures — per-shard ring pipelines hand (at,key,event) frames to per-shard CaptureSinks whose drain threads encode and write segmented capture files, then one monitor consumes the k-way merged on-disk stream (same causal order as the in-memory merge: deterministic, kernel-independent verdicts) with one segment per shard resident instead of every frame; built-in baseline is the best pre-ring monitored configuration: the single-threaded reference kernel with the monitor inline as its trace sink (the sharded kernel cannot host an inline monitor, and a JSONL pipe at this scale is off the chart — this row did not exist before the ring pipeline)",
        run: || n100k_monitored_captured().0.events as usize,
        baseline: Some(|| e9_large_monitored_inline(100_000, 17, N100K_SOURCES).events as usize),
        event_stats: None,
        ring_stats: Some(|| {
            let (s, r, _alerts, cap) = n100k_monitored_captured();
            (s.events, s.peak_queue_depth, r, Some(cap))
        }),
    },
    Kernel {
        name: "e17_sweep_8seeds",
        desc: "E17 robustness sweep: 8 seeded MLR rounds across cores",
        run: || {
            let seeds: Vec<u64> = (1..=8).collect();
            e17_seed_sweep(&seeds).len()
        },
        baseline: None,
        event_stats: None,
        ring_stats: None,
    },
    Kernel {
        name: "flood_forward",
        desc: "RREQ append-forward microbench: 1M in-place forwards of a 12-hop query",
        run: flood_forward_kernel,
        baseline: None,
        event_stats: None,
        ring_stats: None,
    },
];

fn time_fn(name: &str, f: fn() -> usize, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let t = Instant::now();
        let rows = f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        log_record(
            "hotpath_rep",
            vec![
                ("kernel", Json::from(name.to_string())),
                ("rep", Json::from(rep + 1)),
                ("reps", Json::from(reps)),
                ("seconds", Json::Num(dt)),
                ("rows", Json::from(rows)),
            ],
        );
    }
    best
}

fn time_kernel(k: &Kernel, reps: usize) -> f64 {
    time_fn(k.name, k.run, reps)
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

/// Pull `"key": <float>` scoped to one entry of the tracked baseline's
/// `kernels` array: scan to the entry's `"kernel": "<name>"` first.
fn extract_kernel_f64(doc: &str, kernel: &str, key: &str) -> Option<f64> {
    let anchor = format!("\"kernel\": \"{kernel}\"");
    let start = doc.find(&anchor)? + anchor.len();
    extract_f64(&doc[start..], key)
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

/// `--check`: re-time the simulated E9 kernels (the n=800 reference
/// round — unmonitored and monitored-through-the-ring — and the
/// n=100k sharded round) and fail (exit 1) if any regressed more than
/// 25% against the committed `BENCH_hotpath.json` baseline — the CI
/// smoke gate for the simulator hot path. A kernel absent from the
/// baseline fails the gate (exit 2) rather than passing silently.
fn run_check(reps: usize) -> ! {
    // Per-kernel regression tolerance. The plain sim rows get the
    // standard 25%. The ring-hosted monitored row runs a drain thread
    // next to a ~0.1s workload, and on a single-core host its wall
    // clock is dominated by scheduler placement — ±30% rep-to-rep is
    // normal — so it gets a looser gate: the row exists to catch
    // step-change regressions (a stalled ring, an accidental inline
    // fallback), not scheduling jitter.
    const CHECK_KERNELS: &[(&str, f64)] = &[
        ("e9_n800_sim", 1.25),
        ("e9_n800_sim_monitored", 1.6),
        ("e9_n100k_sim", 1.25),
    ];
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
    for (name, max_ratio) in CHECK_KERNELS {
        let Some(baseline_s) = extract_kernel_f64(&doc, name, "after_s") else {
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
                ("max_ratio", Json::Num(*max_ratio)),
            ],
        );
        if ratio > *max_ratio {
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
    let mut threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--label" => {
                label = args.get(i + 1).cloned().unwrap_or_default();
                i += 2;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        log_error(
                            "hotpath_error",
                            vec![(
                                "bad_threads",
                                Json::from(args.get(i + 1).cloned().unwrap_or_default()),
                            )],
                        );
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: hotpath [--label before|after] [--threads N] [--check]");
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
    THREADS.store(threads, Ordering::Relaxed);
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
            ("threads", Json::from(threads)),
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

    let before_doc = std::fs::read_to_string(before_snapshot_path())
        .or_else(|_| std::fs::read_to_string("BENCH_hotpath.before.json"))
        .ok();
    let committed_doc = std::fs::read_to_string("BENCH_hotpath.json").ok();
    // Uniform before/after pairing: snapshot first, then the kernel's
    // built-in baseline (timed now, same machine, same build), then the
    // pair carried forward from the committed baseline. `before_source`
    // records which one each row used; a `<kernel>_before_note` string
    // in the snapshot (how that baseline was obtained, e.g. a bounded
    // lower-bound run) is carried into the row as `before_note`.
    let mut befores: Vec<Option<(f64, &'static str, Option<String>)>> = Vec::new();
    for (k, _) in &timings {
        let resolved = if let Some(s) = before_doc
            .as_deref()
            .and_then(|doc| extract_f64(doc, &format!("{}_before_s", k.name)))
        {
            let note = before_doc
                .as_deref()
                .and_then(|doc| extract_string(doc, &format!("{}_before_note", k.name)));
            Some((s, "label_before_snapshot", note))
        } else if let Some(baseline) = k.baseline {
            log_record("hotpath_baseline", vec![("kernel", Json::from(k.name))]);
            Some((
                time_fn(&format!("{}_baseline", k.name), baseline, reps),
                "builtin_baseline",
                None,
            ))
        } else {
            committed_doc
                .as_deref()
                .and_then(|doc| extract_kernel_f64(doc, k.name, "before_s"))
                .map(|s| (s, "carried_forward", None))
        };
        befores.push(resolved);
    }
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
                if k.name.contains("n100k") {
                    pairs.push(("threads", Json::from(threads)));
                }
                if let Some(stats) = k.ring_stats {
                    let (events, peak, ring, capture) = stats();
                    pairs.push(("events", Json::from(events)));
                    pairs.push(("events_per_sec", Json::Num(events as f64 / after_s)));
                    pairs.push(("peak_queue_depth", Json::from(peak)));
                    pairs.push(("ring_frames_written", Json::from(ring.frames_written)));
                    pairs.push(("ring_frames_dropped", Json::from(ring.frames_dropped)));
                    pairs.push(("ring_blocked_us", Json::from(ring.blocked_us)));
                    pairs.push(("ring_peak_chunks", Json::from(ring.peak_chunks)));
                    pairs.push(("ring_capacity_chunks", Json::from(ring.capacity_chunks)));
                    pairs.push(("ring_chunk_frames", Json::from(ring.chunk_frames)));
                    if let Some(cap) = capture {
                        pairs.push(("capture_bytes_written", Json::from(cap.bytes)));
                        pairs.push(("capture_segments", Json::from(cap.segments)));
                        pairs.push(("capture_frames", Json::from(cap.frames)));
                        pairs.push(("capture_frames_dropped", Json::from(cap.frames_dropped)));
                        // Effective write rate over the whole timed
                        // round (sim + encode + write + merge), not a
                        // raw disk number.
                        pairs.push((
                            "capture_write_mb_per_s",
                            Json::Num(cap.bytes as f64 / 1e6 / after_s),
                        ));
                    }
                } else if let Some(stats) = k.event_stats {
                    let (events, peak) = stats();
                    pairs.push(("events", Json::from(events)));
                    pairs.push(("events_per_sec", Json::Num(events as f64 / after_s)));
                    pairs.push(("peak_queue_depth", Json::from(peak)));
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
