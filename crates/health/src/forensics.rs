//! Windowed health forensics over segmented captures.
//!
//! Three capabilities, all built on the capture extension block
//! (`wmsn_trace::capture`) and the checkpoint codec
//! ([`crate::checkpoint`]):
//!
//! 1. [`ForensicCaptureSink`] — a capture sink that co-hosts the
//!    detector bank: every frame is observed by a [`HealthMonitor`]
//!    *before* it is written, a state checkpoint is embedded at
//!    segment boundaries, and the finished capture carries the run's
//!    alert JSONL. The embedded alerts are byte-identical to an
//!    offline replay of the same capture (the monitor sees exactly
//!    the frames the file holds, and flush barriers do not finalize
//!    the detector bank).
//! 2. [`replay_window`] — read and restore only the newest eligible
//!    checkpoint and replay only the segments a `[lo, hi]` time
//!    window needs, in O(one segment + one checkpoint) memory. Alert
//!    verdicts inside the window are **byte-identical** to a full
//!    replay from t=0:
//!    with `W = window_us`, let `w0 = ⌈lo/W⌉ - 1` (0 for `lo = 0`) —
//!    the first window whose close can be stamped `≥ lo`. A
//!    checkpoint at segment `k` is eligible iff the last event before
//!    it lands in a window `≤ w0` (checked via `segments[k-1].at_max`).
//!    Every alert raised before such a checkpoint was stamped at a
//!    close `≤ w0·W < lo` (strict by minimality of `w0`), so the
//!    window filter discards it from the full replay too; every close
//!    stamped `≥ lo` is still pending at the checkpoint and replays
//!    from identical state, latches included.
//! 3. [`compact_capture`] — rewrite a capture under a retention
//!    policy: recent segments and alert-adjacent windows keep their
//!    frames (copied verbatim), everything older is reduced to its
//!    directory summary, with a checkpoint embedded at the start of
//!    every retained run so windowed replay and `explain` still work.
//!    Index-only queries stay exact; frame reads into compacted
//!    ranges fail loudly at the capture layer.

use crate::alert::HealthAlert;
use crate::checkpoint::{restore, snapshot};
use crate::monitor::{HealthConfig, HealthMonitor};
use crate::AlertKind;
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Read, Seek};
use std::path::{Path, PathBuf};
use wmsn_trace::{
    CaptureConfig, CaptureReader, CaptureSink, CaptureStats, CaptureWriter, ScanFilter, TraceEvent,
    TraceKind, TraceSink, TraceTier,
};

// ------------------------------------------------- checkpointing sink --

/// A [`CaptureSink`] that co-hosts the detector bank and embeds its
/// checkpoints and alerts in the capture (see module docs). Install
/// wherever a `CaptureSink` goes; write errors latch in the capture and
/// [`ForensicCaptureSink::finalize`] then reports `None`.
pub struct ForensicCaptureSink {
    capture: CaptureSink,
    monitor: HealthMonitor,
    /// Snapshot at every `checkpoint_every`-th segment boundary.
    checkpoint_every: u64,
    finalized: bool,
}

impl ForensicCaptureSink {
    /// Create (truncating) a checkpointing capture at `path`.
    /// `checkpoint_every = 1` snapshots at every segment boundary.
    pub fn create(
        path: impl Into<PathBuf>,
        capture: CaptureConfig,
        health: HealthConfig,
        checkpoint_every: u64,
    ) -> std::io::Result<ForensicCaptureSink> {
        Ok(ForensicCaptureSink {
            capture: CaptureSink::create(path, capture)?,
            monitor: HealthMonitor::with_config(health),
            checkpoint_every: checkpoint_every.max(1),
            finalized: false,
        })
    }

    /// The capture file's path.
    pub fn path(&self) -> &Path {
        self.capture.path()
    }

    /// The co-hosted monitor (read-only; finalized at
    /// [`ForensicCaptureSink::finalize`] time, not before).
    pub fn monitor(&self) -> &HealthMonitor {
        &self.monitor
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u64 {
        self.capture.frames_written()
    }

    /// Finalize the monitor, embed its alert JSONL, and write the
    /// extension block + directory + trailer (idempotent). `None` if
    /// any write failed.
    pub fn finalize(&mut self) -> Option<CaptureStats> {
        if !std::mem::replace(&mut self.finalized, true) {
            self.monitor.finalize();
            self.capture.set_alerts_jsonl(self.monitor.alerts_jsonl());
        }
        self.capture.finalize()
    }
}

impl Drop for ForensicCaptureSink {
    /// Embed the alerts before the capture's own drop writes the footer.
    fn drop(&mut self) {
        let _ = self.finalize();
    }
}

impl TraceSink for ForensicCaptureSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.record_keyed(ev, ev.t(), 0);
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        // Observe BEFORE pushing: when this push seals segment k-1 the
        // monitor has digested exactly segments [0..k) — the invariant
        // the checkpoint label encodes.
        self.monitor.observe(ev);
        if let Some(sealed) = self.capture.push(ev, at, key) {
            if sealed % self.checkpoint_every == 0 {
                self.capture.add_checkpoint(sealed, snapshot(&self.monitor));
            }
        }
    }
    fn flush(&mut self) {
        // Flush buffered frames only. Deliberately does NOT finalize
        // the monitor: flush barriers must not perturb detector state,
        // or the embedded alert stream would diverge from an offline
        // replay.
        self.capture.flush();
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

// --------------------------------------------------- windowed replay --

/// How a windowed replay actually executed — the O(window) evidence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowReplayStats {
    /// Segment index of the checkpoint resumed from (`None` = genesis).
    pub checkpoint_seg: Option<u64>,
    /// Segments whose frames were decoded.
    pub segments_read: u64,
    /// Segments in the capture.
    pub segments_total: u64,
    /// Frames fed to the detector bank.
    pub frames_decoded: u64,
}

/// Replay the detector bank over the time window `[lo, hi]`, resuming
/// from the newest eligible checkpoint, the only one read from disk
/// (see module docs for the correctness argument). Returns the
/// monitor — its alerts filtered to `lo <= t <= hi` are byte-identical
/// to a full replay filtered the same way — plus the replay stats.
/// `full_scan` forces a genesis replay (the parity baseline). `cfg`
/// seeds the genesis monitor; a checkpoint carries its own config.
pub fn replay_window<R: Read + Seek>(
    r: &mut CaptureReader<R>,
    lo: u64,
    hi: u64,
    cfg: HealthConfig,
    full_scan: bool,
) -> Result<(HealthMonitor, WindowReplayStats), String> {
    replay_window_with(r, lo, hi, cfg, full_scan, |_, _| {})
}

/// [`replay_window`] with a per-frame observer (the `explain`
/// accounting hook): called with every frame fed to the monitor, in
/// order.
pub fn replay_window_with<R: Read + Seek, F: FnMut(&TraceEvent, u64)>(
    r: &mut CaptureReader<R>,
    lo: u64,
    hi: u64,
    cfg: HealthConfig,
    full_scan: bool,
    mut observer: F,
) -> Result<(HealthMonitor, WindowReplayStats), String> {
    if lo > hi {
        return Err(format!("empty window: {lo} > {hi}"));
    }
    let window_us = cfg.window_us.max(1);
    let n = r.segments().len();
    // Segments past the window cannot influence any close stamped
    // <= hi (their events open strictly later windows).
    let end = r
        .segments()
        .iter()
        .rposition(|m| m.at_min <= hi)
        .map_or(0, |i| i + 1);
    // First window whose close can be stamped >= lo.
    let w0 = if lo == 0 { 0 } else { (lo - 1) / window_us };
    let mut start = 0usize;
    let mut chosen = None;
    if !full_scan {
        for (i, &(seg, _)) in r.checkpoints().iter().enumerate() {
            let k = seg as usize;
            // Eligible: the checkpoint's last digested event closed a
            // window <= w0, so every close stamped >= lo is still
            // pending. Take the newest such checkpoint.
            let eligible =
                k >= 1 && k <= n && k > start && r.segments()[k - 1].at_max / window_us <= w0;
            if eligible && k <= end {
                start = k;
                chosen = Some((i, seg));
            }
        }
    }
    // Only the chosen checkpoint is read and restored; a corrupt one is
    // an error, never a silent fall-back to genesis.
    let mut monitor = match chosen {
        Some((i, seg)) => {
            restore(&r.checkpoint_blob(i)?).map_err(|e| format!("{e} (segment {seg})"))?
        }
        None => HealthMonitor::with_config(cfg),
    };
    let checkpoint_seg = chosen.map(|(_, seg)| seg);
    let stats = r.scan_range(start..end, &ScanFilter::all(), |ev, at, _| {
        monitor.observe(ev);
        observer(ev, at);
    })?;
    monitor.finalize();
    Ok((
        monitor,
        WindowReplayStats {
            checkpoint_seg,
            segments_read: stats.segments_scanned,
            segments_total: n as u64,
            frames_decoded: stats.frames_decoded,
        },
    ))
}

/// The alerts of `monitor` stamped inside `[lo, hi]` — the windowed
/// verdict set both replay modes must agree on byte-for-byte.
pub fn alerts_in_window(monitor: &HealthMonitor, lo: u64, hi: u64) -> Vec<HealthAlert> {
    monitor
        .alerts()
        .iter()
        .copied()
        .filter(|a| a.t >= lo && a.t <= hi)
        .collect()
}

// ----------------------------------------------------------- explain --

/// Per-window network activity across an explain window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowPoint {
    /// Frames transmitted.
    pub tx: u64,
    /// Frames received intact.
    pub rx: u64,
    /// Messages forwarded.
    pub forwards: u64,
    /// Messages delivered.
    pub delivers: u64,
    /// Receptions dropped.
    pub drops: u64,
    /// Events mentioning the alert subject.
    pub subject_events: u64,
}

/// Deterministic provenance accounting for one alert: who contributed
/// to the detector's evidence inside the alert window, which sequence
/// numbers / flows are implicated, and what the network was doing
/// window by window. Built by [`explain_alert`]; all aggregation is
/// over ordered maps, so the rendered report is byte-deterministic.
pub struct AlertForensics {
    /// The alert being explained.
    pub alert: HealthAlert,
    /// Window start (µs, inclusive).
    pub lo: u64,
    /// Window end (µs, inclusive) — the alert's stamp.
    pub hi: u64,
    /// Whether the windowed replay re-raised this exact alert.
    pub reproduced: bool,
    /// Detector-specific contribution counts per node (see
    /// [`AlertForensics::observe`] for the per-kind accounting rules).
    pub contributors: BTreeMap<u64, u64>,
    /// Implicated frame sequence numbers, first-seen order, bounded.
    pub offending_seqs: Vec<u64>,
    /// Implicated `(origin, msg_id)` flows, first-seen order, bounded.
    pub offending_msgs: Vec<(u64, u64)>,
    /// Per-window activity, keyed by window index.
    pub series: BTreeMap<u64, WindowPoint>,
    window_us: u64,
    /// seq → announcing src inside the window (keyed lookups only).
    seq_src: HashMap<u64, u64>,
    /// Window-local forward/deliver dedup for duplicate attribution.
    seen_forwards: HashSet<(u64, u64, u64)>,
    seen_delivers: HashSet<(u64, u64)>,
}

/// Offender lists stop growing here; the counts keep accumulating.
const MAX_OFFENDERS: usize = 16;

impl AlertForensics {
    fn new(alert: HealthAlert, lo: u64, hi: u64, window_us: u64) -> AlertForensics {
        AlertForensics {
            alert,
            lo,
            hi,
            reproduced: false,
            contributors: BTreeMap::new(),
            offending_seqs: Vec::new(),
            offending_msgs: Vec::new(),
            series: BTreeMap::new(),
            window_us: window_us.max(1),
            seq_src: HashMap::new(),
            seen_forwards: HashSet::new(),
            seen_delivers: HashSet::new(),
        }
    }

    fn bump(&mut self, node: u64) {
        *self.contributors.entry(node).or_insert(0) += 1;
    }

    fn offending_seq(&mut self, seq: u64) {
        if self.offending_seqs.len() < MAX_OFFENDERS && !self.offending_seqs.contains(&seq) {
            self.offending_seqs.push(seq);
        }
    }

    fn offending_msg(&mut self, origin: u64, msg_id: u64) {
        if self.offending_msgs.len() < MAX_OFFENDERS
            && !self.offending_msgs.contains(&(origin, msg_id))
        {
            self.offending_msgs.push((origin, msg_id));
        }
    }

    /// Fold one replayed event into the accounting. Events outside
    /// `[lo, hi]` only warm the seq→src table (they may announce a
    /// frame the subject receives inside the window).
    ///
    /// Contribution rules by detector:
    /// - `forward_asymmetry` / `backbone_asymmetry`: the sources of
    ///   the frames the subject absorbed (linked seq → announcing tx).
    /// - `gateway_silence`: the nodes whose forwards prove the network
    ///   stayed active through the silence.
    /// - `base_silence`: the nodes whose mesh-tier data transmissions
    ///   prove the backbone stayed active.
    /// - `duplicate_storm`: the nodes re-forwarding / re-delivering an
    ///   already-seen flow inside the window.
    /// - `announce_spike`: the subject's own control broadcasts.
    /// - `load_imbalance`: every delivering gateway (the skew base).
    /// - `energy_depletion`: the subject's energy reports.
    fn observe(&mut self, ev: &TraceEvent) {
        let t = ev.t();
        if let TraceEvent::TxStart { seq, src, .. } = *ev {
            self.seq_src.insert(seq, u64::from(src.0));
        }
        if t < self.lo || t > self.hi {
            return;
        }
        let subject = self.alert.subject;
        let w = t / self.window_us;
        let point = self.series.entry(w).or_default();
        match *ev {
            TraceEvent::TxStart { src, .. } => {
                point.tx += 1;
                if u64::from(src.0) == subject {
                    point.subject_events += 1;
                }
            }
            TraceEvent::Rx { node, .. } => {
                point.rx += 1;
                if u64::from(node.0) == subject {
                    point.subject_events += 1;
                }
            }
            TraceEvent::Forward { node, .. } => {
                point.forwards += 1;
                if u64::from(node.0) == subject {
                    point.subject_events += 1;
                }
            }
            TraceEvent::Deliver { node, .. } => {
                point.delivers += 1;
                if u64::from(node.0) == subject {
                    point.subject_events += 1;
                }
            }
            TraceEvent::Drop { node, .. } => {
                point.drops += 1;
                if u64::from(node.0) == subject {
                    point.subject_events += 1;
                }
            }
            _ => {}
        }
        match self.alert.kind {
            AlertKind::ForwardAsymmetry | AlertKind::BackboneAsymmetry => {
                if let TraceEvent::Rx { seq, node, .. } = *ev {
                    if u64::from(node.0) == subject {
                        self.offending_seq(seq);
                        if let Some(&src) = self.seq_src.get(&seq) {
                            self.bump(src);
                        }
                    }
                }
            }
            AlertKind::GatewaySilence => {
                if let TraceEvent::Forward {
                    node,
                    origin,
                    msg_id,
                    ..
                } = *ev
                {
                    self.bump(u64::from(node.0));
                    self.offending_msg(u64::from(origin.0), msg_id);
                }
            }
            AlertKind::BaseSilence => {
                if let TraceEvent::TxStart {
                    seq,
                    src,
                    tier: TraceTier::Mesh,
                    kind: TraceKind::Data,
                    ..
                } = *ev
                {
                    self.bump(u64::from(src.0));
                    self.offending_seq(seq);
                }
            }
            AlertKind::DuplicateStorm => match *ev {
                TraceEvent::Forward {
                    node,
                    origin,
                    msg_id,
                    ..
                } => {
                    let key = (u64::from(node.0), u64::from(origin.0), msg_id);
                    if !self.seen_forwards.insert(key) {
                        self.bump(u64::from(node.0));
                        self.offending_msg(u64::from(origin.0), msg_id);
                    }
                }
                TraceEvent::Deliver {
                    node,
                    origin,
                    msg_id,
                    ..
                } => {
                    let key = (u64::from(origin.0), msg_id);
                    if !self.seen_delivers.insert(key) {
                        self.bump(u64::from(node.0));
                        self.offending_msg(u64::from(origin.0), msg_id);
                    }
                }
                _ => {}
            },
            AlertKind::AnnounceSpike => {
                if let TraceEvent::TxStart {
                    seq,
                    src,
                    dst: None,
                    kind: TraceKind::Control,
                    ..
                } = *ev
                {
                    if u64::from(src.0) == subject {
                        self.bump(subject);
                        self.offending_seq(seq);
                    }
                }
            }
            AlertKind::LoadImbalance => {
                if let TraceEvent::Deliver {
                    node,
                    origin,
                    msg_id,
                    ..
                } = *ev
                {
                    self.bump(u64::from(node.0));
                    if u64::from(node.0) == subject {
                        self.offending_msg(u64::from(origin.0), msg_id);
                    }
                }
            }
            AlertKind::EnergyDepletion => {
                if let TraceEvent::Energy { node, .. } = *ev {
                    if u64::from(node.0) == subject {
                        self.bump(subject);
                    }
                }
            }
        }
    }

    /// Render the provenance report — byte-deterministic (ordered
    /// maps, fixed formatting), so checkpoint and full-scan replays
    /// `cmp` equal.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("alert {}\n", self.alert.to_json()));
        out.push_str(&format!(
            "window {}..{} us ({} windows of {} us)\n",
            self.lo,
            self.hi,
            self.hi / self.window_us - self.lo / self.window_us + 1,
            self.window_us
        ));
        out.push_str(if self.reproduced {
            "verdict reproduced in windowed replay\n"
        } else {
            "verdict NOT reproduced in windowed replay\n"
        });
        let mut ranked: Vec<(u64, u64)> = self.contributors.iter().map(|(&n, &c)| (n, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.push_str(&format!(
            "contributors ({}) ranked by {} evidence:\n",
            ranked.len(),
            self.alert.kind.as_str()
        ));
        for (node, count) in ranked {
            out.push_str(&format!("  node {node}: {count}\n"));
        }
        if !self.offending_seqs.is_empty() {
            let seqs: Vec<String> = self.offending_seqs.iter().map(|s| s.to_string()).collect();
            out.push_str(&format!("offending seqs: {}\n", seqs.join(", ")));
        }
        if !self.offending_msgs.is_empty() {
            let msgs: Vec<String> = self
                .offending_msgs
                .iter()
                .map(|(o, m)| format!("{o}/{m}"))
                .collect();
            out.push_str(&format!(
                "offending flows (origin/msg): {}\n",
                msgs.join(", ")
            ));
        }
        out.push_str("series (per window):\n");
        for (&w, p) in &self.series {
            out.push_str(&format!(
                "  w{} [{}..{}): tx={} rx={} forwards={} delivers={} drops={} subject={}\n",
                w,
                w * self.window_us,
                (w + 1) * self.window_us,
                p.tx,
                p.rx,
                p.forwards,
                p.delivers,
                p.drops,
                p.subject_events
            ));
        }
        out
    }
}

/// Explain one alert: windowed-replay the `span_windows` aggregation
/// windows leading up to its stamp and build the provenance report.
/// `full_scan` forces the genesis-replay baseline; both modes render
/// byte-identical reports (CI `cmp`-gates this).
pub fn explain_alert<R: Read + Seek>(
    r: &mut CaptureReader<R>,
    alert: HealthAlert,
    span_windows: u64,
    cfg: HealthConfig,
    full_scan: bool,
) -> Result<(AlertForensics, WindowReplayStats), String> {
    let window_us = cfg.window_us.max(1);
    let lo = alert
        .t
        .saturating_sub(span_windows.saturating_mul(window_us));
    let hi = alert.t;
    let mut f = AlertForensics::new(alert, lo, hi, window_us);
    let (monitor, stats) = replay_window_with(r, lo, hi, cfg, full_scan, |ev, _| f.observe(ev))?;
    f.reproduced = monitor.alerts().contains(&alert);
    Ok((f, stats))
}

// -------------------------------------------------------- compaction --

/// What [`compact_capture`] keeps at frame granularity.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Always keep the frames of the newest N segments.
    pub keep_last: usize,
    /// Keep every segment overlapping `[t - span·window, t]` around
    /// each alert `t` (the same span `explain` replays by default).
    pub alert_span_windows: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            keep_last: 8,
            alert_span_windows: 4,
        }
    }
}

/// Compaction telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Segments in the input.
    pub segments_total: u64,
    /// Segments whose frames were kept.
    pub segments_retained: u64,
    /// Segments reduced to directory summaries.
    pub segments_compacted: u64,
    /// Frames kept.
    pub frames_retained: u64,
    /// Frames removed (still counted in the index).
    pub frames_compacted: u64,
    /// Checkpoints embedded (one per retained run needing one).
    pub checkpoints: u64,
    /// Alerts embedded.
    pub alerts: u64,
}

/// Rewrite the capture at `input` into `output` under `policy`:
/// replay the detector bank once to find the alerts, keep frames for
/// the last [`CompactionPolicy::keep_last`] segments plus every
/// alert-adjacent window, reduce the rest to directory summaries, and
/// embed the full alert JSONL plus a checkpoint at the start of every
/// retained run (so `health --window` / `explain` still answer over
/// retained ranges). The input must not itself be compacted: the
/// replay needs every frame.
pub fn compact_capture(
    input: &Path,
    output: &Path,
    cfg: HealthConfig,
    policy: CompactionPolicy,
) -> Result<CompactionStats, String> {
    let mut r = CaptureReader::open(input)?;
    let n = r.segments().len();
    if r.segments().iter().any(|m| m.is_compacted()) {
        return Err(
            "input capture is already compacted: cannot replay its detector history".into(),
        );
    }
    let window_us = cfg.window_us.max(1);

    // Pass 1: full replay → the alert set that drives retention.
    let mut monitor = HealthMonitor::with_config(cfg);
    r.scan(&ScanFilter::all(), |ev, _, _| monitor.observe(ev))?;
    monitor.finalize();

    // Retention: newest keep_last segments + alert-adjacent windows.
    let mut retained: BTreeSet<usize> = (n.saturating_sub(policy.keep_last)..n).collect();
    for a in monitor.alerts() {
        let wlo =
            a.t.saturating_sub(policy.alert_span_windows.saturating_mul(window_us));
        let whi = a.t;
        for (idx, m) in r.segments().iter().enumerate() {
            if m.at_max >= wlo && m.at_min <= whi {
                retained.insert(idx);
            }
        }
    }
    // A checkpoint at the start of every retained run that does not
    // begin at genesis.
    let starts: BTreeSet<usize> = retained
        .iter()
        .copied()
        .filter(|&idx| idx > 0 && !retained.contains(&(idx - 1)))
        .collect();

    // Pass 2: rewrite, replaying the detector bank again alongside so
    // each run start's snapshot is written right before its segment —
    // at most one blob is held at a time.
    let file = File::create(output).map_err(|e| format!("create {}: {e}", output.display()))?;
    let write_err = |e: std::io::Error| format!("write {}: {e}", output.display());
    let mut w = CaptureWriter::new(
        BufWriter::new(file),
        CaptureConfig {
            segment_frames: wmsn_trace::DEFAULT_SEGMENT_FRAMES,
        },
    )
    .map_err(write_err)?;
    w.set_frames_dropped(r.frames_dropped());
    w.set_alerts_jsonl(monitor.alerts_jsonl());
    let mut stats = CompactionStats {
        segments_total: n as u64,
        checkpoints: starts.len() as u64,
        alerts: monitor.alerts().len() as u64,
        ..CompactionStats::default()
    };
    // No snapshot is taken past the last run start, so the replay stops
    // there.
    let replay_end = starts.last().copied().unwrap_or(0);
    let mut m2 = HealthMonitor::with_config(cfg);
    for idx in 0..n {
        if starts.contains(&idx) {
            w.add_checkpoint(idx as u64, snapshot(&m2))
                .map_err(write_err)?;
        }
        if idx < replay_end {
            r.scan_range(idx..idx + 1, &ScanFilter::all(), |ev, _, _| m2.observe(ev))?;
        }
        let meta = r.segments()[idx];
        if retained.contains(&idx) {
            let raw = r.read_segment_raw(idx)?;
            w.push_segment_raw(&meta, &raw).map_err(write_err)?;
            stats.segments_retained += 1;
            stats.frames_retained += meta.frames as u64;
        } else {
            w.push_compacted(&meta).map_err(write_err)?;
            stats.segments_compacted += 1;
            stats.frames_compacted += meta.frames as u64;
        }
    }
    w.finish()
        .map_err(|e| format!("finish {}: {e}", output.display()))?;
    Ok(stats)
}
