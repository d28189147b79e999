//! `forensic_queries`: the read path. Set-up records one larger capture
//! of the failover scenario with the same recorder as
//! `mlr_failover_capture`. One op is a forensic session of six
//! `wmsn-trace` invocations, run through the library: each opens the
//! capture with [`CaptureReader::open`] and answers one query. The six
//! query kinds run once each, in a seeded order: counts, path_of (a
//! delivered message), drops_of_seq (a dropped frame), energy_of (a
//! sensor), `replay_window` (a window of fixed length) and
//! `explain_alert` (an embedded alert), with the arguments of one of
//! [`SESSIONS`] fixed argument sets. Single invocations would make ops
//! whose costs differ by three orders of magnitude; a session of all
//! six makes ops of one argument set the same size.
//!
//! Checks compare every answer with what set-up knows from the
//! recording and from one full scan of the capture.

use crate::measure::{Fnv, Tracer};
use crate::mlr::{check_recording, record_failover, FailoverSpec};
use crate::{class_of, ms_per_call, op_rng, Config, Layers, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use wmsn_health::{
    alerts_in_window, explain_alert, replay_window, HealthAlert, HealthConfig, HealthMonitor,
    WindowReplayStats,
};
use wmsn_trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, CaptureReader,
    ScanFilter, TraceEvent,
};
use wmsn_util::rng::SplitMix64;

/// The recorded capture: the failover scenario over more rounds.
pub const CAPTURE_SPEC: FailoverSpec = FailoverSpec {
    n: 200,
    healthy_rounds: 6,
    failure_rounds: 3,
};
/// Field seed of the recorded capture, fixed across workload seeds.
const FIELD_SEED: u64 = 0xF0;
/// Length of a `replay_window` query, µs (eight detector windows).
const WINDOW_US: u64 = 4_000_000;
/// Detector windows an explain report spans (the CLI default).
const EXPLAIN_SPAN: u64 = 4;
/// Argument sets the sessions cycle through in a seeded order: the
/// arguments set a session's cost, and a fixed pool lets every run
/// compare like with like.
const SESSIONS: u64 = 6;
/// Seed of the warm-up session, fixed across workload seeds.
const WARMUP_SEED: u64 = 0x3a7e;

/// The six query kinds of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counts,
    Path,
    Drops,
    Energy,
    Window,
    Explain,
}

/// Span and per-layer metric of each query kind.
const QUERY_SPANS: [(&str, &str); 6] = [
    ("query.counts", "query.counts_ms"),
    ("query.path", "query.path_ms"),
    ("query.drops", "query.drops_ms"),
    ("query.energy", "query.energy_ms"),
    ("query.window", "query.window_ms"),
    ("query.explain", "query.explain_ms"),
];

const KINDS: [Kind; 6] = [
    Kind::Counts,
    Kind::Path,
    Kind::Drops,
    Kind::Energy,
    Kind::Window,
    Kind::Explain,
];

/// A query's answer, handed to the check.
pub enum Answer {
    Counts(BTreeMap<String, u64>),
    Path {
        msg: (u32, u64),
        delivered: bool,
        hops: usize,
    },
    Drops {
        seq: u64,
        drops: usize,
    },
    Energy {
        node: u32,
        points: Vec<(u64, f64)>,
    },
    Window {
        lo: u64,
        hi: u64,
        alerts: Vec<HealthAlert>,
        stats: WindowReplayStats,
    },
    Explain {
        alert: HealthAlert,
        reproduced: bool,
        report: String,
        stats: WindowReplayStats,
    },
}

/// Per-layer counters over traced ops.
#[derive(Debug, Default)]
struct Acc {
    /// Window and explain queries (both replay a window).
    window_queries: u64,
    segments_read: u64,
    segments_total: u64,
    resumed: u64,
    frames_decoded: u64,
}

/// One argument set: the arguments of each query kind, drawn at
/// set-up, and the answers the checks expect.
struct Args {
    /// A delivered message, `(source, msg_id)`.
    msg: (u32, u64),
    /// A dropped frame's seq, and how many drops it has.
    seq: (u64, usize),
    /// A sensor with energy frames, and how many it has.
    node: (u32, usize),
    /// Start of the `replay_window` window `[lo, lo + WINDOW_US]`.
    lo: u64,
    /// `alerts_in_window` of the set-up monitor over that window.
    window_alerts: Vec<HealthAlert>,
    /// The alert to explain.
    alert: HealthAlert,
}

impl Args {
    /// Argument set `class`, drawn from what set-up learned.
    fn draw(
        class: u64,
        monitor: &HealthMonitor,
        delivered: &[(u32, u64)],
        drops: &BTreeMap<u64, usize>,
        energy: &BTreeMap<u32, usize>,
        duration_us: u64,
    ) -> Args {
        let rng = |kind: Kind| SplitMix64::new(0xa265 + class).split(kind as u64);
        let (seq, drop_count) = drops
            .iter()
            .nth(rng(Kind::Drops).next_index(drops.len()))
            .expect("index in range");
        let (node, points) = energy
            .iter()
            .nth(rng(Kind::Energy).next_index(energy.len()))
            .expect("index in range");
        let lo = rng(Kind::Window).next_below(duration_us.saturating_sub(WINDOW_US).max(1));
        let alerts = monitor.alerts();
        Args {
            msg: delivered[rng(Kind::Path).next_index(delivered.len())],
            seq: (*seq, *drop_count),
            node: (*node, *points),
            lo,
            window_alerts: alerts_in_window(monitor, lo, lo + WINDOW_US),
            alert: alerts[rng(Kind::Explain).next_index(alerts.len())],
        }
    }
}

/// `forensic_queries`.
pub struct ForensicQueries {
    seed: u64,
    path: PathBuf,
    frames: u64,
    /// The [`SESSIONS`] argument sets.
    args: Vec<Args>,
    acc: Acc,
}

impl Drop for ForensicQueries {
    fn drop(&mut self) {
        // The capture is scratch: leave nothing behind.
        let _ = std::fs::remove_file(&self.path);
    }
}

impl Workload for ForensicQueries {
    type Out = Vec<Answer>;
    const CLASSES: u64 = SESSIONS;

    fn setup(cfg: &Config) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
        let path = cfg.scratch.join(format!("forensic-seed{}.wcap", cfg.seed));
        let rec = record_failover(&path, FIELD_SEED, CAPTURE_SPEC, &mut Tracer::new(false))?;
        let mut r = check_recording(&path, &rec)?;
        let mut drops = BTreeMap::new();
        let mut energy = BTreeMap::new();
        let mut duration_us = 0;
        r.scan(&ScanFilter::all(), |ev, at, _| {
            duration_us = duration_us.max(at);
            match *ev {
                TraceEvent::Drop { seq, .. } => *drops.entry(seq).or_insert(0) += 1,
                TraceEvent::Energy { node, .. } => *energy.entry(node.0).or_insert(0) += 1,
                _ => {}
            }
        })?;
        if drops.is_empty() || energy.is_empty() || rec.alerts().is_empty() {
            return Err("the recorded capture lacks drops, energy frames or alerts".into());
        }
        let mut delivered = rec.delivered.clone();
        delivered.sort_unstable();
        delivered.dedup();
        let monitor = rec.monitor();
        let args = (0..SESSIONS)
            .map(|class| Args::draw(class, monitor, &delivered, &drops, &energy, duration_us))
            .collect();
        let w = ForensicQueries {
            seed: cfg.seed,
            path,
            frames: rec.stats.frames,
            args,
            acc: Acc::default(),
        };
        // Warm-up: one checked session, the same for every seed.
        let class = class_of(WARMUP_SEED, 0, SESSIONS);
        for a in w.session(WARMUP_SEED, 0, &mut Tracer::new(false))? {
            w.verify(class, &a)?;
        }
        Ok(w)
    }

    fn op(&mut self, k: u64, tr: &mut Tracer) -> Result<Vec<Answer>, String> {
        self.session(self.seed, k, tr)
    }

    fn check(
        &mut self,
        k: u64,
        answers: Vec<Answer>,
        traced: bool,
        digest: &mut Fnv,
        _tr: &mut Tracer,
    ) -> Result<(), String> {
        for a in &answers {
            digest_answer(a, digest);
        }
        if traced {
            let acc = &mut self.acc;
            for a in &answers {
                if let Answer::Window { stats, .. } | Answer::Explain { stats, .. } = a {
                    acc.window_queries += 1;
                    acc.segments_read += stats.segments_read;
                    acc.segments_total += stats.segments_total;
                    acc.resumed += stats.checkpoint_seg.is_some() as u64;
                    acc.frames_decoded += stats.frames_decoded;
                }
            }
        }
        let class = class_of(self.seed, k, SESSIONS);
        answers.iter().try_for_each(|a| self.verify(class, a))
    }

    fn layers(&self, tr: &Tracer, l: &mut Layers) {
        let a = &self.acc;
        l.set("reader.open_ms", ms_per_call(tr, "reader.open"));
        for (span, metric) in QUERY_SPANS {
            l.set(metric, ms_per_call(tr, span));
        }
        let w = a.window_queries.max(1) as f64;
        l.set(
            "window.segments_read_ratio",
            a.segments_read as f64 / a.segments_total.max(1) as f64,
        );
        l.set("window.checkpoint_resume_ratio", a.resumed as f64 / w);
        l.set("window.frames_decoded", a.frames_decoded as f64 / w);
    }
}

impl ForensicQueries {
    /// Session `k` of the sequence that `seed` draws.
    fn session(&self, seed: u64, k: u64, tr: &mut Tracer) -> Result<Vec<Answer>, String> {
        let class = class_of(seed, k, SESSIONS);
        let mut order = KINDS;
        op_rng(seed, k).shuffle(&mut order);
        order
            .into_iter()
            .map(|kind| self.query(kind, class, tr))
            .collect()
    }

    /// One invocation: open the capture and answer one query of `kind`
    /// with argument set `class`.
    fn query(&self, kind: Kind, class: u64, tr: &mut Tracer) -> Result<Answer, String> {
        let args = &self.args[class as usize];
        let mut r = tr.time("reader.open", || CaptureReader::open(&self.path))?;
        Ok(match kind {
            Kind::Counts => Answer::Counts(tr.time("query.counts", || capture_counts(&r))),
            Kind::Path => {
                let msg = args.msg;
                let p = tr.time("query.path", || {
                    capture_path_of(&mut r, msg.0 as u64, msg.1)
                })?;
                Answer::Path {
                    msg,
                    delivered: p.as_ref().is_some_and(|p| p.delivered.is_some()),
                    hops: p.map_or(0, |p| p.hops.len()),
                }
            }
            Kind::Drops => {
                let seq = args.seq.0;
                let drops = tr.time("query.drops", || capture_drops_of_seq(&mut r, seq))?;
                Answer::Drops {
                    seq,
                    drops: drops.len(),
                }
            }
            Kind::Energy => {
                let node = args.node.0;
                let points = tr.time("query.energy", || capture_energy_of(&mut r, node as u64))?;
                Answer::Energy { node, points }
            }
            Kind::Window => {
                let (lo, hi) = (args.lo, args.lo + WINDOW_US);
                let (m, stats) = tr.time("query.window", || {
                    replay_window(&mut r, lo, hi, HealthConfig::default(), false)
                })?;
                Answer::Window {
                    lo,
                    hi,
                    alerts: alerts_in_window(&m, lo, hi),
                    stats,
                }
            }
            Kind::Explain => {
                let alert = args.alert;
                let (reproduced, report, stats) = tr.time("query.explain", || {
                    explain_alert(&mut r, alert, EXPLAIN_SPAN, HealthConfig::default(), false)
                        .map(|(f, stats)| (f.reproduced, f.report(), stats))
                })?;
                Answer::Explain {
                    alert,
                    reproduced,
                    report,
                    stats,
                }
            }
        })
    }

    /// Compare an answer to a query of argument set `class` with what
    /// set-up knows.
    fn verify(&self, class: u64, a: &Answer) -> Result<(), String> {
        let args = &self.args[class as usize];
        match a {
            Answer::Counts(c) => {
                let total: u64 = c.values().sum();
                if total != self.frames {
                    return Err(format!("counts total {total} != {} frames", self.frames));
                }
            }
            Answer::Path { msg, delivered, .. } => {
                if !delivered {
                    return Err(format!("path_of {msg:?}: delivered message not delivered"));
                }
            }
            Answer::Drops { seq, drops } => {
                if args.seq != (*seq, *drops) {
                    return Err(format!("drops_of_seq {seq}: {drops} drops"));
                }
            }
            Answer::Energy { node, points } => {
                if args.node != (*node, points.len()) {
                    return Err(format!("energy_of {node}: {} points", points.len()));
                }
            }
            Answer::Window { lo, hi, alerts, .. } => {
                if *alerts != args.window_alerts {
                    return Err(format!("replay_window [{lo}, {hi}]: alerts differ"));
                }
            }
            Answer::Explain {
                alert, reproduced, ..
            } => {
                if !reproduced {
                    return Err(format!("explain {alert:?}: not reproduced"));
                }
            }
        }
        Ok(())
    }
}

fn digest_answer(a: &Answer, d: &mut Fnv) {
    match a {
        Answer::Counts(c) => {
            for (name, n) in c {
                d.push_str(name);
                d.push(*n);
            }
        }
        Answer::Path {
            msg,
            delivered,
            hops,
        } => {
            for x in [msg.0 as u64, msg.1, *delivered as u64, *hops as u64] {
                d.push(x);
            }
        }
        Answer::Drops { seq, drops } => {
            d.push(*seq);
            d.push(*drops as u64);
        }
        Answer::Energy { node, points } => {
            d.push(*node as u64);
            for (t, j) in points {
                d.push(*t);
                d.push(j.to_bits());
            }
        }
        Answer::Window { lo, alerts, .. } => {
            d.push(*lo);
            for al in alerts {
                d.push(al.t);
                d.push(al.subject);
            }
        }
        Answer::Explain { report, .. } => d.push_str(report),
    }
}
