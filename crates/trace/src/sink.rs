//! Trace sinks: where events go.
//!
//! The world owns at most one `Box<dyn TraceSink>`; the disabled state
//! is `None`, so the hot path pays exactly one predictable branch. All
//! shipped sinks serialise through [`TraceEvent::to_json`], so a file
//! sink and an in-memory sink produce byte-identical lines.

use crate::event::TraceEvent;
use std::any::Any;
use std::collections::BTreeMap;
use std::io::Write;

/// Receives every emitted [`TraceEvent`].
///
/// `as_any` / `as_any_mut` allow experiments to take the sink back out
/// of the world after a run and downcast it to read captured state —
/// the same pattern the simulator uses for protocol behaviours.
pub trait TraceSink {
    /// Record one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Record one event together with its causal position: the `(at,
    /// key)` of the simulation event (or driver call) that emitted it.
    /// [`crate::CaptureSink`] stores the pair in each frame, so a query
    /// can name the simulation event a line came from. The default
    /// forwards to [`TraceSink::record`]; sinks that keep no stamps
    /// need nothing more.
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        let _ = (at, key);
        self.record(ev);
    }

    /// Flush any buffered output (no-op by default).
    fn flush(&mut self) {}

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The concrete sink behind a hosted `dyn TraceSink` — what a runner
/// or `World::take_trace_sink` hands back, read as the type its caller
/// installed. A missing or foreign sink is a wiring bug, so it panics.
pub fn expect_sink<'a, T: 'static>(sink: Option<&'a mut (dyn TraceSink + 'static)>) -> &'a mut T {
    sink.and_then(|s| s.as_any_mut().downcast_mut::<T>())
        .unwrap_or_else(|| panic!("hosted sink is not a {}", std::any::type_name::<T>()))
}

/// A sink that discards everything — for measuring sink-dispatch
/// overhead in isolation.
#[derive(Default, Debug)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// JSONL sink over any writer: one compact JSON object per line, fixed
/// key order, deterministic bytes for a deterministic run. Write errors
/// are deliberately swallowed (tracing is best-effort and must never
/// alter simulation behaviour).
#[derive(Debug)]
pub struct JsonlSink<W: Write + 'static> {
    w: W,
    lines: u64,
}

impl<W: Write + 'static> JsonlSink<W> {
    /// Wrap a writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, lines: 0 }
    }

    /// Number of lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Unwrap the writer (flushing first).
    pub fn into_inner(mut self) -> W {
        let _ = self.w.flush();
        self.w
    }
}

impl<W: Write + 'static> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if writeln!(self.w, "{}", ev.to_json()).is_ok() {
            self.lines += 1;
        }
    }
    fn flush(&mut self) {
        let _ = self.w.flush();
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// In-memory JSONL sink: accumulates the exact bytes a
/// [`JsonlSink`] would write. Used by the golden-trace determinism
/// test and anywhere a file would be overkill.
#[derive(Default, Debug)]
pub struct BufferSink {
    /// Captured JSONL output.
    pub out: String,
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        use std::fmt::Write as _;
        let _ = writeln!(self.out, "{}", ev.to_json());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Tallying sink: counts events by variant name and drops by cause.
/// Deterministically ordered (BTreeMap) for test assertions.
#[derive(Default, Debug)]
pub struct CountingSink {
    /// Total events recorded.
    pub total: u64,
    /// Events per variant name (see [`TraceEvent::name`]).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Drop events per cause string.
    pub drops_by_cause: BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// An empty counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Count for one variant name (0 if never seen).
    pub fn count_of(&self, name: &str) -> u64 {
        self.by_kind.get(name).copied().unwrap_or(0)
    }

    /// Count of drops with the given cause string (0 if never seen).
    pub fn drops_of(&self, cause: &str) -> u64 {
        self.drops_by_cause.get(cause).copied().unwrap_or(0)
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.total += 1;
        *self.by_kind.entry(ev.name()).or_insert(0) += 1;
        if let TraceEvent::Drop { cause, .. } = ev {
            *self.drops_by_cause.entry(cause.as_str()).or_insert(0) += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, TraceEvent};
    use wmsn_util::NodeId;

    fn drop_ev(cause: DropCause) -> TraceEvent {
        TraceEvent::Drop {
            t: 1,
            seq: 0,
            node: NodeId(0),
            cause,
        }
    }

    #[test]
    fn buffer_and_jsonl_sinks_agree_byte_for_byte() {
        let evs = [
            drop_ev(DropCause::Loss),
            TraceEvent::Rx {
                t: 2,
                seq: 0,
                node: NodeId(1),
            },
        ];
        let mut buf = BufferSink::new();
        let mut jsonl = JsonlSink::new(Vec::<u8>::new());
        for ev in &evs {
            buf.record(ev);
            jsonl.record(ev);
        }
        assert_eq!(buf.out.as_bytes(), jsonl.into_inner().as_slice());
    }

    #[test]
    fn counting_sink_tallies_by_kind_and_cause() {
        let mut c = CountingSink::new();
        c.record(&drop_ev(DropCause::Loss));
        c.record(&drop_ev(DropCause::Loss));
        c.record(&drop_ev(DropCause::Collision));
        assert_eq!(c.total, 3);
        assert_eq!(c.count_of("drop"), 3);
        assert_eq!(c.drops_of("loss"), 2);
        assert_eq!(c.drops_of("collision"), 1);
        assert_eq!(c.drops_of("dead"), 0);
    }
}
