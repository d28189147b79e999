//! The repository benchmark.
//!
//! Four single-threaded workloads, each a set-up plus a stream of ops
//! of fixed size whose sequence is a pure function of the seed:
//!
//! * `spr_flood` — one cache-cold network-wide SPR discovery and
//!   delivery per op on the reference kernel ([`spr`]);
//! * `spr_flood_sharded` — the same ops on the sharded kernel, two
//!   strip shards driven by one thread ([`spr`]);
//! * `mlr_failover_capture` — one recorded MLR gateway-failure run per
//!   op through the checkpointing capture sink ([`mlr`]);
//! * `forensic_queries` — one session of six capture queries per op,
//!   each opening the capture recorded at set-up ([`forensic`]).
//!
//! [`run`] measures a workload for a wall-clock budget and checks every
//! op's output outside the timed span. With tracing on, every other op
//! runs with spans around the calls into each module, and the
//! per-layer metrics come from those spans.

pub mod forensic;
pub mod measure;
pub mod mlr;
pub mod spr;

use measure::{percentile, Fnv, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Ops every run completes at least, so every input class is sampled
/// many times and the traced run's `op.p90_ms` has samples beyond it.
pub const MIN_OPS: u64 = 100;
/// The printed digest covers this many ops, so every run of one seed
/// prints the same digest whatever its op count.
pub const DIGEST_OPS: u64 = MIN_OPS;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Hard stop for the timed loop, so a run ends well inside its limit
/// even on a host far slower than expected.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed: every op's inputs derive from it.
    pub seed: u64,
    /// Wall-clock budget of the timed loop.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for captures and the span dump.
    pub scratch: PathBuf,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// What one op hands to its check.
    type Out;

    /// Input classes the ops cycle through (see [`class_of`]). Ops of
    /// one class do identical work, so each class's fastest op is a
    /// like-for-like sample of the code's cost.
    const CLASSES: u64 = 1;

    /// Build the state the ops run against (untimed by the op loop;
    /// timed as `setup_s`). Warm-up ops belong here.
    fn setup(cfg: &Config) -> Result<Self, String>;

    /// Op `k`: the timed work.
    fn op(&mut self, k: u64, tr: &mut Tracer) -> Result<Self::Out, String>;

    /// Check op `k`'s output and mix its outcome into `digest`
    /// (untimed). `traced` says whether the op ran with spans, so
    /// per-layer counters pair with the span times.
    fn check(
        &mut self,
        k: u64,
        out: Self::Out,
        traced: bool,
        digest: &mut Fnv,
        tr: &mut Tracer,
    ) -> Result<(), String>;

    /// Fill the per-layer metrics this workload exercises.
    fn layers(&self, tr: &Tracer, layers: &mut Layers);
}

/// A named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The end-to-end metrics with their units: the median of the run's
/// set-ups; the fastest op of each input class, averaged over the
/// classes; and the median over the first [`MIN_OPS`] ops of the
/// process's peak resident set during the op.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("op_best_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in report order, with its unit. A layer a
/// workload does not exercise reports 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.ns_per_event", "ns"),
    ("sim.self_ms", "ms"),
    ("sim.peak_queue_depth", "count"),
    ("sharded.ns_per_event", "ns"),
    ("sharded.overhead_ratio", "ratio"),
    ("routing.control_frames_per_op", "count"),
    ("routing.data_frames_per_op", "count"),
    ("routing.delivery_ratio", "ratio"),
    ("routing.control_per_delivery", "count"),
    ("routing.mean_latency_us", "us"),
    ("trace.records_per_op", "count"),
    ("trace.sink_ms", "ms"),
    ("trace.ns_per_record", "ns"),
    ("capture.frames_per_op", "count"),
    ("capture.segments_per_op", "count"),
    ("capture.bytes_per_frame", "B"),
    ("capture.mb_per_op", "MB"),
    ("capture.checkpoint_share", "ratio"),
    ("capture.finalize_ms", "ms"),
    ("health.alerts_per_op", "count"),
    ("reader.open_ms", "ms"),
    ("query.counts_ms", "ms"),
    ("query.path_ms", "ms"),
    ("query.drops_ms", "ms"),
    ("query.energy_ms", "ms"),
    ("query.window_ms", "ms"),
    ("query.explain_ms", "ms"),
    ("window.segments_read_ratio", "ratio"),
    ("window.checkpoint_resume_ratio", "ratio"),
    ("window.frames_decoded", "count"),
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
    ("bench.span_coverage", "ratio"),
    ("bench.traced_over_untraced", "ratio"),
];

/// Per-layer metric values, keyed by the names in [`LAYER_METRICS`].
#[derive(Debug, Default)]
pub struct Layers(std::collections::BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a metric; panics on a name missing from [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Every metric in report order (0 where unset).
    pub fn into_metrics(self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Mean milliseconds per span named `name`.
pub fn ms_per_call(tr: &Tracer, name: &str) -> f64 {
    ms_per_op(tr, name, tr.count(name))
}

/// Milliseconds per op of the spans named `name`, over `ops` ops.
pub fn ms_per_op(tr: &Tracer, name: &str, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        tr.total_ns(name) as f64 / 1e6 / ops as f64
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Vec<Metric>,
    /// Digest of the first [`DIGEST_OPS`] ops' outcomes.
    pub digest: u64,
}

/// Time one set-up of `W`, appending its seconds to `times`.
fn timed_setup<W: Workload>(cfg: &Config, times: &mut Vec<f64>) -> Result<W, String> {
    let t = Instant::now();
    let w = W::setup(cfg)?;
    times.push(t.elapsed().as_secs_f64());
    Ok(w)
}

/// Set `w` up, run ops for `cfg.seconds` (and at least [`MIN_OPS`]
/// ops) and check each.
///
/// An untraced run sets up [`SETUP_REPS`] times and reports the median
/// as `setup_s`. The first [`MIN_OPS`] ops run on the first set-up; the
/// later set-ups are spread evenly over the rest of the loop, each
/// replacing the state the ops run on. So `setup_s` samples the whole
/// run rather than one moment of it, and every stretch of the run has
/// ops on a fresh state, as the first stretch does.
pub fn run<W: Workload>(cfg: &Config) -> Result<Outcome, String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut w = timed_setup::<W>(cfg, &mut setup_s)?;

    let mut tr = Tracer::new(false);
    let mut digest = Fnv::default();
    let mut first_digest = None;
    let mut op_rss_mb = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut best_ms = vec![f64::INFINITY; W::CLASSES as usize];
    let mut resetup_from = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(cfg.seconds);
    while (attempted < MIN_OPS || start.elapsed() < budget) && start.elapsed() < MAX_LOOP {
        let k = attempted;
        if setup_s.len() < reps && k >= MIN_OPS {
            let from = *resetup_from.get_or_insert_with(|| start.elapsed());
            let slot = (setup_s.len() - 1) as f64 / (reps - 1) as f64;
            if start.elapsed() >= from + budget.saturating_sub(from).mul_f64(slot) {
                drop(w);
                w = timed_setup::<W>(cfg, &mut setup_s)?;
            }
        }
        // Traced runs alternate traced and untraced ops; the untraced
        // half is the baseline of the tracing overhead.
        let traced = cfg.trace && k % 2 == 1;
        tr.set_enabled(traced);
        tr.set_op(k);
        if k < MIN_OPS {
            measure::reset_peak_rss();
        }
        let root = tr.open("op");
        let t0 = Instant::now();
        let out = w.op(k, &mut tr);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.close(root);
        tr.set_enabled(false);
        if k < MIN_OPS {
            op_rss_mb.push(measure::peak_rss_mb());
        }
        attempted += 1;
        if traced {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
            let best = &mut best_ms[class_of(cfg.seed, k, W::CLASSES) as usize];
            *best = best.min(ms);
        }
        let checked = out.and_then(|out| w.check(k, out, traced, &mut digest, &mut tr));
        if let Err(e) = checked {
            failed += 1;
            eprintln!("op {k} failed: {e}");
        }
        if attempted == DIGEST_OPS {
            first_digest = Some(digest.value());
        }
    }
    // A budget too short for the spread leaves set-ups to do.
    while setup_s.len() < reps {
        drop(w);
        w = timed_setup::<W>(cfg, &mut setup_s)?;
    }

    let metrics = if cfg.trace {
        let mut layers = Layers::default();
        w.layers(&tr, &mut layers);
        layers.set("bench.span_coverage", tr.child_coverage("op"));
        let untraced = percentile(&untraced_ms, 0.5);
        layers.set("op.p50_ms", untraced);
        layers.set("op.p90_ms", percentile(&untraced_ms, 0.9));
        if untraced > 0.0 {
            layers.set(
                "bench.traced_over_untraced",
                percentile(&traced_ms, 0.5) / untraced,
            );
        }
        std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
        let dump = cfg.scratch.join(format!("spans-seed{}.jsonl", cfg.seed));
        tr.write_jsonl(&dump)
            .map_err(|e| format!("write {}: {e}", dump.display()))?;
        layers.into_metrics()
    } else {
        let seen: Vec<f64> = best_ms.into_iter().filter(|b| b.is_finite()).collect();
        let values = [
            percentile(&setup_s, 0.5),
            seen.iter().sum::<f64>() / seen.len().max(1) as f64,
            percentile(&op_rss_mb, 0.5),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        digest: first_digest.unwrap_or(digest.value()),
    })
}

/// Input class of op `k` when ops cycle through `classes` classes: each
/// block of `classes` consecutive ops visits every class once, in an
/// order drawn from the seed.
pub fn class_of(seed: u64, k: u64, classes: u64) -> u64 {
    let mut order: Vec<u64> = (0..classes).collect();
    op_rng(seed ^ 0x0c1a_55e5, k / classes).shuffle(&mut order);
    order[(k % classes) as usize]
}

/// Per-op input stream: op `k` of seed `seed` draws from its own split,
/// so an op's inputs do not depend on how many ops ran before it.
pub fn op_rng(seed: u64, k: u64) -> wmsn_util::rng::SplitMix64 {
    wmsn_util::rng::SplitMix64::new(seed).split(0x0b5e_0000 + k)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |entry: &str, key: &str| -> String {
            let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
            entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    #[test]
    fn reported_metrics_match_benchmark_json() {
        let own = |m: &[(&str, &str)]| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(LAYER_METRICS));
    }
}
