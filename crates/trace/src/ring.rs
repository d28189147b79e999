//! The ring pipeline: off-thread trace draining behind a bounded SPSC
//! ring.
//!
//! A sink installed directly in the world runs every `observe()` on the
//! simulation thread. [`RingSink`] moves that work to a drain thread:
//! the sim thread only copies the [`TraceEvent`] (a `Copy` struct) plus
//! its causal `(at, key)` into a local chunk, and hands full chunks to
//! the drain through a bounded [`SpscRing`]. The drain replays each
//! frame into its *downstream* sinks exactly as the world would have —
//! same events, same `(at, key)`s, same order — which is why the drained
//! output is byte-identical to a directly installed sink.
//!
//! Its one production use is the per-shard capture transport of the
//! sharded kernel: each shard's frames are encoded and written to a
//! [`crate::CaptureSink`] off the shard's thread. Monitors are hosted
//! directly in the world (or co-hosted with a capture), where they are
//! cheaper than behind a drain thread.
//!
//! # Lossless backpressure
//!
//! The ring is bounded ([`RingConfig::capacity_chunks`] ×
//! [`RingConfig::chunk_frames`] frames). When the sim thread outruns the
//! drain it waits for space; the wait is accounted in
//! [`RingStats::blocked_us`]. No frame is ever discarded.
//!
//! # The flush barrier and determinism
//!
//! [`RingSink::flush`] is a **barrier, not a downstream flush**: it
//! pushes the partial chunk and waits until the drain thread has
//! delivered every frame produced so far, then returns *without*
//! calling `flush` on the downstream sinks. That restraint matters:
//! `HealthMonitor::flush` runs end-of-trace finalisation, and a directly
//! installed monitor never flushes mid-run. After a barrier, reading
//! downstream state through [`RingSink::with_sink_mut`] sees exactly
//! what the same sink installed directly would have seen at the same
//! sim time. Since frames arrive in emission order over a FIFO ring and
//! the drain applies them in order, the barrier makes the whole pipeline
//! a deterministic function of the (deterministic) emission sequence.

use crate::capture::{CaptureSink, CaptureStats};
use crate::event::TraceEvent;
use crate::sink::TraceSink;
use std::any::Any;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use wmsn_util::spsc::SpscRing;

/// One captured event with its causal merge position — the unit the
/// sim thread copies; 64-byte-ish, `Copy`, no heap.
#[derive(Clone, Copy, Debug)]
pub struct FrameRec {
    /// Sim time of the emitting event.
    pub at: u64,
    /// Causal event key (`node << 32 | counter`).
    pub key: u64,
    /// The event itself.
    pub ev: TraceEvent,
}

type Chunk = Vec<FrameRec>;

/// Ring-pipeline tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    /// Frames per chunk — the producer batches this many events per
    /// ring push, so locks are ~1/`chunk_frames` of the event rate.
    pub chunk_frames: usize,
    /// Ring capacity in chunks.
    pub capacity_chunks: usize,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            chunk_frames: 512,
            capacity_chunks: 1024,
        }
    }
}

/// Lifetime telemetry for one ring pipeline — the numbers the hotpath
/// bench writes next to `events_per_sec`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingStats {
    /// Frames handed to the drain.
    pub frames_written: u64,
    /// Wall time the producer spent blocked on a full ring, µs.
    pub blocked_us: u64,
    /// Peak ring occupancy, chunks.
    pub peak_chunks: usize,
    /// Configured capacity, chunks.
    pub capacity_chunks: usize,
    /// Configured chunk size, frames.
    pub chunk_frames: usize,
}

impl RingStats {
    /// Fold another ring's telemetry into this aggregate: counters
    /// sum, peak occupancy is the maximum, configuration is copied.
    pub fn add(&mut self, s: &RingStats) {
        self.frames_written += s.frames_written;
        self.blocked_us += s.blocked_us;
        self.peak_chunks = self.peak_chunks.max(s.peak_chunks);
        self.capacity_chunks = s.capacity_chunks;
        self.chunk_frames = s.chunk_frames;
    }
}

/// Frames-produced / frames-consumed ledger behind the flush barrier.
#[derive(Default)]
struct Progress {
    produced: u64,
    consumed: u64,
}

/// The off-thread trace pipeline, installed in the world like any other
/// sink. Construction spawns the drain thread; drop closes the ring
/// and joins it.
pub struct RingSink {
    cfg: RingConfig,
    ring: Arc<SpscRing<Chunk>>,
    sinks: Arc<Mutex<Vec<Box<dyn TraceSink + Send>>>>,
    progress: Arc<(Mutex<Progress>, Condvar)>,
    drain: Option<JoinHandle<()>>,
    pending: Chunk,
    frames_written: u64,
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("cfg", &self.cfg)
            .field("frames_written", &self.frames_written)
            .finish_non_exhaustive()
    }
}

impl RingSink {
    /// Spawn a ring pipeline draining into `sinks`. Each frame is
    /// replayed into every sink, in order, via
    /// [`TraceSink::record_keyed`].
    pub fn new(cfg: RingConfig, sinks: Vec<Box<dyn TraceSink + Send>>) -> Self {
        let cfg = RingConfig {
            chunk_frames: cfg.chunk_frames.max(1),
            capacity_chunks: cfg.capacity_chunks.max(1),
        };
        let ring = Arc::new(SpscRing::<Chunk>::new(cfg.capacity_chunks));
        let sinks = Arc::new(Mutex::new(sinks));
        let progress = Arc::new((Mutex::new(Progress::default()), Condvar::new()));
        let drain = {
            let ring = Arc::clone(&ring);
            let sinks = Arc::clone(&sinks);
            let progress = Arc::clone(&progress);
            std::thread::Builder::new()
                .name("wmsn-trace-drain".into())
                .spawn(move || {
                    while let Some(chunk) = ring.pop_blocking() {
                        let n = chunk.len() as u64;
                        {
                            let mut bank = sinks.lock().expect("sink bank lock");
                            for rec in &chunk {
                                for sink in bank.iter_mut() {
                                    sink.record_keyed(&rec.ev, rec.at, rec.key);
                                }
                            }
                        }
                        let (lock, cv) = &*progress;
                        lock.lock().expect("progress lock").consumed += n;
                        cv.notify_all();
                    }
                })
                .expect("spawn trace drain thread")
        };
        RingSink {
            pending: Vec::with_capacity(cfg.chunk_frames),
            cfg,
            ring,
            sinks,
            progress,
            drain: Some(drain),
            frames_written: 0,
        }
    }

    /// Boxed constructor, handy for `World::set_trace_sink`.
    pub fn boxed(cfg: RingConfig, sinks: Vec<Box<dyn TraceSink + Send>>) -> Box<Self> {
        Box::new(Self::new(cfg, sinks))
    }

    /// Hand the pending chunk to the ring, waiting while it is full.
    fn push_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.pending, Vec::with_capacity(self.cfg.chunk_frames));
        let n = chunk.len() as u64;
        // Announce production *before* the push so the barrier never
        // observes consumed > produced.
        self.progress.0.lock().expect("progress lock").produced += n;
        // Only `Drop` closes the ring, so a live sink's push lands.
        let _ = self.ring.push_blocking(chunk);
        self.frames_written += n;
    }

    /// Block until the drain has delivered every frame produced so far.
    /// This is the flush barrier; it does **not** flush downstream
    /// sinks (see the module docs for why).
    pub fn barrier(&mut self) {
        self.push_pending();
        let (lock, cv) = &*self.progress;
        let mut g = lock.lock().expect("progress lock");
        while g.consumed < g.produced {
            g = cv.wait(g).expect("progress lock");
        }
    }

    /// Run `f` against the first downstream sink downcastable to `T`,
    /// under the bank lock. Call [`RingSink::barrier`] first when the
    /// read must reflect everything emitted so far.
    pub fn with_sink_mut<T: 'static, R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        let mut bank = self.sinks.lock().expect("sink bank lock");
        bank.iter_mut()
            .find_map(|s| s.as_any_mut().downcast_mut::<T>())
            .map(f)
    }

    /// Telemetry snapshot (valid mid-run; final after a
    /// [`RingSink::barrier`]).
    pub fn stats(&self) -> RingStats {
        let c = self.ring.stats();
        RingStats {
            frames_written: self.frames_written,
            blocked_us: c.blocked_us,
            peak_chunks: c.peak,
            capacity_chunks: self.cfg.capacity_chunks,
            chunk_frames: self.cfg.chunk_frames,
        }
    }

    /// Finish a [`CaptureSink`] this ring drains into: barrier, then
    /// write the capture's footer. Returns the ring's telemetry and the
    /// capture's; `None` if no downstream sink is a capture or its
    /// writes failed.
    pub fn finalize_capture(&mut self) -> Option<(RingStats, CaptureStats)> {
        self.barrier();
        let cap = self.with_sink_mut::<CaptureSink, _>(CaptureSink::finalize)??;
        Some((self.stats(), cap))
    }
}

impl Drop for RingSink {
    fn drop(&mut self) {
        self.ring.close();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.record_keyed(ev, ev.t(), 0);
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        self.pending.push(FrameRec { at, key, ev: *ev });
        if self.pending.len() >= self.cfg.chunk_frames {
            self.push_pending();
        }
    }
    /// The flush barrier (see [`RingSink::barrier`]).
    fn flush(&mut self) {
        self.barrier();
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// In-memory frame sink: retains `(at, key, event)` triples — one per
/// shard ring; [`crate::merge_frame_buffers`] interleaves the shards
/// back into reference emission order without ever rendering JSON on a
/// sim thread.
#[derive(Default, Debug)]
pub struct FrameBufferSink {
    /// Captured frames in arrival order.
    pub entries: Vec<(u64, u64, TraceEvent)>,
}

impl FrameBufferSink {
    /// An empty frame buffer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for FrameBufferSink {
    fn record(&mut self, ev: &TraceEvent) {
        self.entries.push((ev.t(), 0, *ev));
    }
    fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
        self.entries.push((at, key, *ev));
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
    use crate::sink::{BufferSink, CountingSink};
    use wmsn_util::NodeId;

    fn ev(t: u64, node: u32) -> TraceEvent {
        TraceEvent::Rx {
            t,
            seq: t,
            node: NodeId(node),
        }
    }

    #[test]
    fn drained_jsonl_is_byte_identical_to_inline() {
        let mut inline = BufferSink::new();
        let mut ring = RingSink::new(
            RingConfig {
                chunk_frames: 3, // force many partial/full chunk boundaries
                capacity_chunks: 2,
            },
            vec![Box::new(BufferSink::new())],
        );
        for i in 0..100u64 {
            let e = ev(i, (i % 7) as u32);
            inline.record_keyed(&e, i, i << 3);
            ring.record_keyed(&e, i, i << 3);
        }
        ring.barrier();
        assert_eq!(ring.stats().frames_written, 100);
        let drained = ring.with_sink_mut::<BufferSink, _>(|b| b.out.clone());
        assert_eq!(drained, Some(inline.out));
    }

    #[test]
    fn barrier_makes_midrun_reads_exact() {
        let mut ring = RingSink::new(
            RingConfig {
                chunk_frames: 8,
                capacity_chunks: 4,
            },
            vec![Box::new(CountingSink::new())],
        );
        for i in 0..37u64 {
            ring.record(&ev(i, 1));
        }
        ring.barrier();
        let seen = ring.with_sink_mut::<CountingSink, _>(|c| c.total).unwrap();
        assert_eq!(seen, 37, "barrier must make all 37 events visible");
        for i in 0..5u64 {
            ring.record(&ev(100 + i, 1));
        }
        ring.barrier();
        assert_eq!(ring.stats().frames_written, 42);
        let seen = ring.with_sink_mut::<CountingSink, _>(|c| c.total).unwrap();
        assert_eq!(seen, 42);
    }

    #[test]
    fn frame_buffer_merge_restores_total_order() {
        let frames_a = vec![(ev(1, 0), 1, 10), (ev(3, 0), 3, 5), (ev(3, 0), 3, 9)];
        let frames_b = vec![(ev(1, 1), 1, 2), (ev(3, 1), 3, 7), (ev(4, 1), 4, 1)];
        let want = crate::merge::tests::oracle(&[frames_a.clone(), frames_b.clone()]);
        let buffers = [frames_a, frames_b]
            .into_iter()
            .map(|s| s.into_iter().map(|(e, at, key)| (at, key, e)).collect())
            .collect();
        let mut merged = Vec::new();
        crate::merge::merge_frame_buffers(buffers, |e| merged.push(*e)).expect("merge");
        assert_eq!(merged, want);
        let ts: Vec<u64> = merged.iter().map(|e| e.t()).collect();
        assert_eq!(ts, vec![1, 1, 3, 3, 3, 4]);
        // (at=1,key=2) from shard B must precede (at=1,key=10) from A.
        assert!(matches!(
            merged[0],
            TraceEvent::Rx {
                node: NodeId(1),
                ..
            }
        ));
    }
}
