//! `mlr_failover_capture`: the write path. One op records one MLR
//! gateway-failure run the way `wmsn-trace record-e18` does, scaled up:
//! build a field with rotating gateways, install a
//! [`ForensicCaptureSink`], run healthy rounds, kill a gateway, run a
//! failure round, finalize. Ops cycle through a pool of [`FIELDS`]
//! fields in a seeded order: field sizes differ by up to ±30% in
//! events, and a fixed pool lets every run compare like with like.
//!
//! The op's checks reopen the capture: its frame count must equal the
//! frames written, nothing may be dropped, and the co-hosted detector
//! bank must accuse the killed gateway with `gateway_silence` and raise
//! no other kind of alert.

use crate::measure::{Fnv, TimingSink, Tracer};
use crate::{class_of, ms_per_op, Config, Layers, Workload};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use wmsn_core::builder::build_mlr;
use wmsn_core::drivers::MlrDriver;
use wmsn_core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_health::{AlertKind, ForensicCaptureSink, HealthAlert, HealthConfig, HealthMonitor};
use wmsn_trace::{CaptureConfig, CaptureReader, CaptureStats, TraceSink};
use wmsn_util::NodeId;

/// Shape of one recorded failover run.
#[derive(Clone, Copy, Debug)]
pub struct FailoverSpec {
    /// Sensors in the field.
    pub n: usize,
    /// Rounds before the kill.
    pub healthy_rounds: u32,
    /// Rounds after the kill.
    pub failure_rounds: u32,
}

/// The op of `mlr_failover_capture`.
pub const OP_SPEC: FailoverSpec = FailoverSpec {
    n: 200,
    healthy_rounds: 2,
    failure_rounds: 1,
};

/// Mobile gateways: three rotating round-robin over a 3×3 place grid.
fn gateways() -> GatewayParams {
    GatewayParams::rotating(3, 3, 3)
}

/// What one recording produced.
pub struct Recording {
    /// Capture telemetry from `finalize`.
    pub stats: CaptureStats,
    /// Frames the sink accepted.
    pub frames_written: u64,
    /// The finalized sink, holding the monitor it co-hosted.
    sink: Box<dyn TraceSink>,
    /// The killed gateway.
    pub victim: NodeId,
    /// `(source, msg_id)` of every delivery.
    pub delivered: Vec<(u32, u64)>,
    /// Messages originated.
    pub originated: u64,
    /// Unique messages delivered.
    pub unique_delivered: u64,
    /// Control frames sent.
    pub control: u64,
    /// Data frames sent.
    pub data: u64,
    /// Mean delivery latency, µs.
    pub mean_latency_us: f64,
    /// Kernel events processed.
    pub events: u64,
    /// Event-queue high-water mark.
    pub peak_queue_depth: usize,
    /// Records the timing wrapper forwarded (traced only).
    pub records: u64,
}

impl Recording {
    /// The detector bank that watched the run.
    pub fn monitor(&self) -> &HealthMonitor {
        let sink = self.sink.as_any();
        let sink = sink
            .downcast_ref::<TimingSink>()
            .map_or(sink, |t| t.inner().as_any());
        sink.downcast_ref::<ForensicCaptureSink>()
            .expect("the recorded sink is the forensic capture")
            .monitor()
    }

    /// Alerts the monitor raised, in raise order.
    pub fn alerts(&self) -> &[HealthAlert] {
        self.monitor().alerts()
    }
}

/// Record one failover run to `path`. With `tr` enabled, the sink is
/// wrapped in a [`TimingSink`] and the build, run and finalize calls
/// are spans.
pub fn record_failover(
    path: &Path,
    field_seed: u64,
    spec: FailoverSpec,
    tr: &mut Tracer,
) -> Result<Recording, String> {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(spec.n, field_seed)
    };
    let scen = tr.time("core.build", || {
        build_mlr(&field, &gateways(), TrafficParams::default(), 0.0)
    });
    let victim = scen.gateways[(field_seed % scen.gateways.len() as u64) as usize];
    let mut d = MlrDriver::new(scen);
    let sink =
        ForensicCaptureSink::create(path, CaptureConfig::default(), HealthConfig::default(), 1)
            .map_err(|e| format!("create {}: {e}", path.display()))?;
    let sink: Box<dyn TraceSink> = if tr.enabled() {
        Box::new(TimingSink::new(Box::new(sink)))
    } else {
        Box::new(sink)
    };
    d.scenario.world.set_trace_sink(sink);

    let run = tr.open("sim.run");
    d.run_rounds(spec.healthy_rounds);
    d.scenario.world.kill(victim);
    d.run_rounds(spec.failure_rounds);
    let timing = d.scenario.world.trace_sink_as::<TimingSink>();
    let (sink_ns, records) = timing.map_or((0, 0), |t| (t.ns(), t.records()));
    tr.add_measured("trace.sink", sink_ns);
    tr.close(run);

    let mut sink = d
        .scenario
        .world
        .take_trace_sink()
        .expect("the capture sink is installed");
    let (stats, frames_written) = tr.time("capture.finalize", || {
        let inner: &mut dyn TraceSink = match sink.as_any_mut().downcast_mut::<TimingSink>() {
            Some(t) => t.inner_mut(),
            None => sink.as_mut(),
        };
        let f = inner
            .as_any_mut()
            .downcast_mut::<ForensicCaptureSink>()
            .expect("the installed sink is the forensic capture");
        let frames = f.frames_written();
        (f.finalize(), frames)
    });
    let stats = stats.ok_or_else(|| format!("capture write to {} failed", path.display()))?;

    let events = d.scenario.world.events_processed();
    let peak_queue_depth = d.scenario.world.peak_queue_depth();
    let m = d.scenario.world.metrics();
    Ok(Recording {
        stats,
        frames_written,
        sink,
        victim,
        delivered: m
            .deliveries
            .iter()
            .map(|x| (x.source.0, x.msg_id))
            .collect(),
        originated: m.originated,
        unique_delivered: m.unique_deliveries(),
        control: m.sent_control,
        data: m.sent_data,
        mean_latency_us: m.mean_latency_us(),
        events,
        peak_queue_depth,
        records,
    })
}

/// Check a finished recording against its capture file and the
/// failover expectations.
pub fn check_recording(
    path: &Path,
    rec: &Recording,
) -> Result<CaptureReader<BufReader<File>>, String> {
    let r = CaptureReader::open(path)?;
    if r.frames() != rec.frames_written || r.frames() != rec.stats.frames {
        return Err(format!(
            "capture holds {} frames, sink wrote {}",
            r.frames(),
            rec.frames_written
        ));
    }
    if r.frames_dropped() != 0 {
        return Err(format!("{} frames dropped", r.frames_dropped()));
    }
    let victim = rec.victim.0 as u64;
    let accused = rec
        .alerts()
        .iter()
        .any(|a| a.kind == AlertKind::GatewaySilence && a.subject == victim);
    if !accused {
        return Err(format!(
            "killed gateway {victim} not accused by gateway_silence"
        ));
    }
    if let Some(a) = rec
        .alerts()
        .iter()
        .find(|a| a.kind != AlertKind::GatewaySilence)
    {
        return Err(format!(
            "unexpected {} alert on {}",
            a.kind.as_str(),
            a.subject
        ));
    }
    Ok(r)
}

/// Per-layer counters over traced ops.
#[derive(Debug, Default)]
struct Acc {
    ops: u64,
    events: u64,
    records: u64,
    control: u64,
    data: u64,
    originated: u64,
    delivered: u64,
    latency_us: f64,
    frames: u64,
    segments: u64,
    bytes: u64,
    checkpoint_bytes: u64,
    alerts: u64,
    peak_queue_depth: usize,
}

/// `mlr_failover_capture`.
pub struct MlrFailoverCapture {
    seed: u64,
    path: PathBuf,
    acc: Acc,
}

/// Warm-up ops folded into set-up: one on each pooled field, so the
/// set-up does the same work whatever the seed. A bare set-up only
/// makes the scratch directory, so `setup_s` here is this first pass
/// over the pool.
const WARMUP_OPS: u64 = FIELDS;
/// `k` offset of warm-up ops, outside any measured op's range; a
/// multiple of [`FIELDS`], so the warm-up block visits every field.
const WARMUP_K: u64 = 1 << 40;

/// Fields in the pool; the killed gateway is fixed per field.
pub const FIELDS: u64 = 8;

impl MlrFailoverCapture {
    fn field_seed(&self, k: u64) -> u64 {
        0xfa11_0000 + class_of(self.seed, k, FIELDS)
    }
}

impl Workload for MlrFailoverCapture {
    type Out = Recording;
    const CLASSES: u64 = FIELDS;

    fn setup(cfg: &Config) -> Result<Self, String> {
        std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
        let mut w = MlrFailoverCapture {
            seed: cfg.seed,
            path: cfg.scratch.join(format!("failover-seed{}.wcap", cfg.seed)),
            acc: Acc::default(),
        };
        let mut tr = Tracer::new(false);
        for i in 0..WARMUP_OPS {
            let rec = w.op(WARMUP_K + i, &mut tr)?;
            check_recording(&w.path, &rec)?;
        }
        std::fs::remove_file(&w.path).map_err(|e| format!("remove capture: {e}"))?;
        Ok(w)
    }

    fn op(&mut self, k: u64, tr: &mut Tracer) -> Result<Recording, String> {
        record_failover(&self.path, self.field_seed(k), OP_SPEC, tr)
    }

    fn check(
        &mut self,
        _k: u64,
        rec: Recording,
        traced: bool,
        digest: &mut Fnv,
        _tr: &mut Tracer,
    ) -> Result<(), String> {
        let verdict = check_recording(&self.path, &rec);
        let checkpoint_bytes: u64 = verdict.as_ref().map_or(0, |r| {
            r.checkpoints().iter().map(|(_, b)| b.len() as u64).sum()
        });
        std::fs::remove_file(&self.path).map_err(|e| format!("remove capture: {e}"))?;
        for x in [
            rec.victim.0 as u64,
            rec.originated,
            rec.unique_delivered,
            rec.control,
            rec.data,
            rec.mean_latency_us.to_bits(),
            rec.stats.frames,
            rec.stats.bytes,
            rec.alerts().len() as u64,
        ] {
            digest.push(x);
        }
        for a in rec.alerts() {
            digest.push(a.t);
            digest.push(a.subject);
        }
        if traced {
            let a = &mut self.acc;
            a.ops += 1;
            a.events += rec.events;
            a.records += rec.records;
            a.control += rec.control;
            a.data += rec.data;
            a.originated += rec.originated;
            a.delivered += rec.unique_delivered;
            a.latency_us += rec.mean_latency_us;
            a.frames += rec.stats.frames;
            a.segments += rec.stats.segments;
            a.bytes += rec.stats.bytes;
            a.checkpoint_bytes += checkpoint_bytes;
            a.alerts += rec.alerts().len() as u64;
            a.peak_queue_depth = a.peak_queue_depth.max(rec.peak_queue_depth);
        }
        verdict.map(|_| ())
    }

    fn layers(&self, tr: &Tracer, l: &mut Layers) {
        let a = &self.acc;
        let ops = a.ops.max(1) as f64;
        let run_ns = tr.total_ns("sim.run") as f64;
        let sink_ns = tr.total_ns("trace.sink") as f64;
        l.set("core.build_ms", ms_per_op(tr, "core.build", a.ops));
        l.set("sim.run_ms", ms_per_op(tr, "sim.run", a.ops));
        l.set("sim.self_ms", (run_ns - sink_ns) / 1e6 / ops);
        l.set("sim.events_per_op", a.events as f64 / ops);
        l.set(
            "sim.events_per_s",
            a.events as f64 / (run_ns / 1e9).max(1e-9),
        );
        l.set("sim.ns_per_event", run_ns / a.events.max(1) as f64);
        l.set("sim.peak_queue_depth", a.peak_queue_depth as f64);
        l.set("routing.control_frames_per_op", a.control as f64 / ops);
        l.set("routing.data_frames_per_op", a.data as f64 / ops);
        l.set(
            "routing.delivery_ratio",
            a.delivered as f64 / a.originated.max(1) as f64,
        );
        l.set(
            "routing.control_per_delivery",
            a.control as f64 / a.delivered.max(1) as f64,
        );
        l.set("routing.mean_latency_us", a.latency_us / ops);
        l.set("trace.records_per_op", a.records as f64 / ops);
        l.set("trace.sink_ms", sink_ns / 1e6 / ops);
        l.set("trace.ns_per_record", sink_ns / a.records.max(1) as f64);
        l.set("capture.frames_per_op", a.frames as f64 / ops);
        l.set("capture.segments_per_op", a.segments as f64 / ops);
        l.set(
            "capture.bytes_per_frame",
            a.bytes as f64 / a.frames.max(1) as f64,
        );
        l.set("capture.mb_per_op", a.bytes as f64 / 1e6 / ops);
        l.set(
            "capture.checkpoint_share",
            a.checkpoint_bytes as f64 / a.bytes.max(1) as f64,
        );
        l.set(
            "capture.finalize_ms",
            ms_per_op(tr, "capture.finalize", a.ops),
        );
        l.set("health.alerts_per_op", a.alerts as f64 / ops);
    }
}
