//! Measurement plumbing: in-memory spans, a timing trace-sink wrapper,
//! percentiles, peak memory and the outcome digest.

use std::any::Any;
use std::time::Instant;
use wmsn_trace::{TraceEvent, TraceSink};

/// One timed call into a module, recorded from outside it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Op index the span belongs to (`u64::MAX` for set-up).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
}

/// Span recorder. Disabled, every call is a no-op, so the untraced run
/// pays one branch per call site. Spans stay in memory until
/// [`Tracer::write_jsonl`].
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: u64::MAX,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (between ops only).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle tracing between spans");
        self.enabled = on;
    }

    /// Attribute subsequent spans to op `k`.
    pub fn set_op(&mut self, k: u64) {
        self.op = k;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::open`] (innermost first).
    pub fn close(&mut self, h: Open) {
        if let Some(idx) = h.0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let s = &mut self.spans[idx];
            s.dur_ns = now - s.start_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let h = self.open(name);
        let r = f();
        self.close(h);
        r
    }

    /// Add an externally measured interval (e.g. a sink's accumulated
    /// time) as a child of the innermost open span.
    pub fn add_measured(&mut self, name: &'static str, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns,
        });
    }

    /// Total ns of spans named `name` attributed to measured ops.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op != u64::MAX)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Number of spans named `name` attributed to measured ops.
    pub fn count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op != u64::MAX)
            .count() as u64
    }

    /// Share of root-span (`op`) time covered by their direct children.
    pub fn child_coverage(&self, root: &str) -> f64 {
        let mut root_ns = 0u64;
        let mut child_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root && s.op != u64::MAX {
                root_ns += s.dur_ns;
                child_ns += self
                    .spans
                    .iter()
                    .skip(i + 1)
                    .take_while(|c| c.start_ns <= s.start_ns + s.dur_ns)
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.dur_ns)
                    .sum::<u64>();
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            child_ns as f64 / root_ns as f64
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == u64::MAX {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{op},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// A [`TraceSink`] that forwards to `inner` and estimates the wall time
/// spent inside it — the trace layer's busy time, measured at the
/// kernel's only call boundary into it.
///
/// A clock read costs tens of ns against a few hundred per record, so
/// timing every record would nearly double the traced op. Instead each
/// record is timed with probability 1/[`TimingSink::SAMPLE`], drawn
/// from a fixed-seed xorshift, and the timed total, less the cost of
/// the clock read inside each interval, is scaled up: an unbiased
/// estimate that also covers the rare records that seal a segment.
pub struct TimingSink {
    inner: Box<dyn TraceSink>,
    sampled_ns: u64,
    records: u64,
    rng: u64,
    clock_ns: u64,
}

impl TimingSink {
    /// One record in `SAMPLE` is timed.
    pub const SAMPLE: u64 = 8;

    /// Wrap `inner`.
    pub fn new(inner: Box<dyn TraceSink>) -> TimingSink {
        TimingSink {
            inner,
            sampled_ns: 0,
            records: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
            clock_ns: empty_interval_ns(),
        }
    }

    /// Estimated nanoseconds spent inside the wrapped sink so far.
    pub fn ns(&self) -> u64 {
        self.sampled_ns * Self::SAMPLE
    }

    /// Records forwarded so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &dyn TraceSink {
        self.inner.as_ref()
    }

    /// The wrapped sink, mutably.
    pub fn inner_mut(&mut self) -> &mut dyn TraceSink {
        self.inner.as_mut()
    }

    /// Count a record and draw whether to time it.
    fn sampled(&mut self) -> bool {
        self.records += 1;
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng.is_multiple_of(Self::SAMPLE)
    }
}

impl TraceSink for TimingSink {
    fn record(&mut self, ev: &TraceEvent) {
        if self.sampled() {
            let t = Instant::now();
            self.inner.record(ev);
            self.sampled_ns += (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        } else {
            self.inner.record(ev);
        }
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        if self.sampled() {
            let t = Instant::now();
            self.inner.record_keyed(ev, at, key);
            self.sampled_ns += (t.elapsed().as_nanos() as u64).saturating_sub(self.clock_ns);
        } else {
            self.inner.record_keyed(ev, at, key);
        }
    }
    fn flush(&mut self) {
        self.inner.flush();
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Median length of an empty timed interval — what one
/// `Instant::now` plus `elapsed` adds to every measured interval.
fn empty_interval_ns() -> u64 {
    let mut v: Vec<u64> = (0..1001)
        .map(|_| Instant::now().elapsed().as_nanos() as u64)
        .collect();
    v.sort_unstable();
    v[v.len() / 2]
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Reset the process's peak resident set to its current resident set,
/// so the next [`peak_rss_mb`] reads the peak since this call. Best
/// effort: on a kernel without `clear_refs` the peak stays cumulative.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over a stream of integers — the simulated-statistics
/// digest. Floats enter as their bit patterns, so it is bit-exact.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix one value.
    pub fn push(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mix a string.
    pub fn push_str(&mut self, s: &str) {
        self.push(s.len() as u64);
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.9), 4.6);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn coverage_counts_direct_children_only() {
        let mut t = Tracer::new(true);
        t.set_op(0);
        let root = t.open("op");
        t.time("a", || {
            std::hint::black_box((0..10_000).sum::<u64>());
        });
        t.close(root);
        let c = t.child_coverage("op");
        assert!(c > 0.0 && c <= 1.0, "{c}");
        assert_eq!(t.count("a"), 1);
    }
}
