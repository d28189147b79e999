//! The ring pipeline: off-thread trace draining behind a bounded SPSC
//! ring.
//!
//! Inline mode (PR 4/6) installs a sink directly as the world's trace
//! sink, so every `observe()` — JSON rendering, detector updates — runs
//! on the simulation thread. [`RingSink`] moves that work off the hot
//! path: the sim thread only copies the [`TraceEvent`] (a `Copy` struct)
//! plus its causal `(at, key)` into a local chunk, and hands full chunks
//! to a drain thread through a bounded [`SpscRing`]. The drain thread
//! replays each frame into the *downstream* sinks (a `JsonlSink`, a
//! [`crate::CaptureSink`], the `HealthMonitor` detector bank, …)
//! exactly as the world would have — same events, same `(at, key)`s,
//! same order — which is why the drained output is byte-identical to
//! inline mode.
//!
//! # Backpressure is a policy, not an accident
//!
//! The ring is bounded ([`RingConfig::capacity_chunks`] ×
//! [`RingConfig::chunk_frames`] frames). When the sim thread outruns
//! the drain, [`BackpressurePolicy`] decides what happens:
//!
//! * [`Block`](BackpressurePolicy::Block) — the producer waits for
//!   space. Lossless; the wait is accounted in
//!   [`RingStats::blocked_us`]. This is the default and the only
//!   policy under which parity with inline mode holds.
//! * [`DropNewest`](BackpressurePolicy::DropNewest) — full ring means
//!   the offered chunk is discarded and counted
//!   ([`RingStats::frames_dropped`]). For fire-and-forget monitoring
//!   where losing trace lines beats stalling the simulation.
//!
//! # The flush barrier and determinism
//!
//! [`RingSink::flush`] is a **barrier, not a downstream flush**: it
//! pushes the partial chunk and waits until the drain thread has
//! delivered every frame produced so far, then returns *without*
//! calling `flush` on the downstream sinks. That restraint matters:
//! `HealthMonitor::flush` runs end-of-trace finalisation, and inline
//! mode never flushes mid-run — propagating would make the ring
//! pipeline observably different. Drivers place the barrier at
//! `run_until` boundaries (see `World::flush_trace`), after which
//! reading monitor state through [`RingSink::with_sink_mut`] sees
//! exactly what the inline monitor would have seen at the same sim
//! time. Since frames arrive in emission order over a FIFO ring and the
//! drain applies them in order, the barrier makes the whole pipeline a
//! deterministic function of the (deterministic) emission sequence.

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

/// What to do when the ring is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the drain to free space (lossless; default).
    Block,
    /// Discard the offered chunk and count the frames lost.
    DropNewest,
}

/// Ring-pipeline tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RingConfig {
    /// Frames per chunk — the producer batches this many events per
    /// ring push, so locks are ~1/`chunk_frames` of the event rate.
    pub chunk_frames: usize,
    /// Ring capacity in chunks.
    pub capacity_chunks: usize,
    /// Full-ring behaviour.
    pub policy: BackpressurePolicy,
}

impl Default for RingConfig {
    fn default() -> Self {
        RingConfig {
            chunk_frames: 512,
            capacity_chunks: 1024,
            policy: BackpressurePolicy::Block,
        }
    }
}

/// Lifetime telemetry for one ring pipeline — the numbers the hotpath
/// bench writes next to `events_per_sec`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RingStats {
    /// Frames successfully handed to the drain.
    pub frames_written: u64,
    /// Frames discarded under [`BackpressurePolicy::DropNewest`].
    pub frames_dropped: u64,
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
        self.frames_dropped += s.frames_dropped;
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
/// sink. Construction spawns the drain thread; [`RingSink::finish`]
/// (or drop) closes the ring and joins it.
pub struct RingSink {
    cfg: RingConfig,
    ring: Arc<SpscRing<Chunk>>,
    sinks: Arc<Mutex<Vec<Box<dyn TraceSink + Send>>>>,
    progress: Arc<(Mutex<Progress>, Condvar)>,
    drain: Option<JoinHandle<()>>,
    pending: Chunk,
    frames_written: u64,
    frames_dropped: u64,
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("cfg", &self.cfg)
            .field("frames_written", &self.frames_written)
            .field("frames_dropped", &self.frames_dropped)
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
            ..cfg
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
            frames_dropped: 0,
        }
    }

    /// Ring pipeline with default tuning.
    pub fn with_sinks(sinks: Vec<Box<dyn TraceSink + Send>>) -> Self {
        Self::new(RingConfig::default(), sinks)
    }

    /// Boxed constructor, handy for `World::set_trace_sink`.
    pub fn boxed(cfg: RingConfig, sinks: Vec<Box<dyn TraceSink + Send>>) -> Box<Self> {
        Box::new(Self::new(cfg, sinks))
    }

    /// Hand the pending chunk to the ring per the backpressure policy.
    fn push_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let chunk = std::mem::replace(&mut self.pending, Vec::with_capacity(self.cfg.chunk_frames));
        let n = chunk.len() as u64;
        // Announce production *before* the push so the barrier never
        // observes consumed > produced.
        self.progress.0.lock().expect("progress lock").produced += n;
        let accepted = match self.cfg.policy {
            BackpressurePolicy::Block => self.ring.push_blocking(chunk).is_ok(),
            BackpressurePolicy::DropNewest => self.ring.try_push(chunk).is_ok(),
        };
        if accepted {
            self.frames_written += n;
        } else {
            self.frames_dropped += n;
            // The drain will never see these frames; retire them from
            // the ledger so the barrier doesn't wait forever.
            let (lock, cv) = &*self.progress;
            lock.lock().expect("progress lock").consumed += n;
            cv.notify_all();
        }
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

    /// Telemetry snapshot (valid mid-run; final after
    /// [`RingSink::finish`]'s barrier).
    pub fn stats(&self) -> RingStats {
        let c = self.ring.stats();
        RingStats {
            frames_written: self.frames_written,
            frames_dropped: self.frames_dropped,
            blocked_us: c.blocked_us,
            peak_chunks: c.peak,
            capacity_chunks: self.cfg.capacity_chunks,
            chunk_frames: self.cfg.chunk_frames,
        }
    }

    /// Finish a [`CaptureSink`] this ring drains into: barrier, stamp
    /// the ring's drop count into the capture trailer and write the
    /// footer. Returns the ring's telemetry and the capture's; `None`
    /// if no downstream sink is a capture or its writes failed.
    pub fn finalize_capture(&mut self) -> Option<(RingStats, CaptureStats)> {
        self.barrier();
        let stats = self.stats();
        let cap = self.with_sink_mut::<CaptureSink, _>(|c| {
            c.set_frames_dropped(stats.frames_dropped);
            c.finalize()
        })??;
        Some((stats, cap))
    }

    /// Drain everything, stop the drain thread and hand back the
    /// downstream sinks plus final telemetry. Downstream sinks are
    /// *not* flushed — the caller decides (exactly as with inline
    /// sinks taken back out of a world).
    pub fn finish(mut self) -> (Vec<Box<dyn TraceSink + Send>>, RingStats) {
        self.barrier();
        self.ring.close();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        let stats = self.stats();
        let bank = std::mem::take(&mut *self.sinks.lock().expect("sink bank lock"));
        (bank, stats)
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
                policy: BackpressurePolicy::Block,
            },
            vec![Box::new(BufferSink::new())],
        );
        for i in 0..100u64 {
            let e = ev(i, (i % 7) as u32);
            inline.record_keyed(&e, i, i << 3);
            ring.record_keyed(&e, i, i << 3);
        }
        let (mut bank, stats) = ring.finish();
        assert_eq!(stats.frames_written, 100);
        assert_eq!(stats.frames_dropped, 0);
        let drained = bank
            .remove(0)
            .as_any()
            .downcast_ref::<BufferSink>()
            .unwrap()
            .out
            .clone();
        assert_eq!(drained, inline.out);
    }

    #[test]
    fn barrier_makes_midrun_reads_exact() {
        let mut ring = RingSink::new(
            RingConfig {
                chunk_frames: 8,
                capacity_chunks: 4,
                policy: BackpressurePolicy::Block,
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
        let (bank, stats) = ring.finish();
        assert_eq!(stats.frames_written, 42);
        let c = bank[0].as_any().downcast_ref::<CountingSink>().unwrap();
        assert_eq!(c.total, 42);
    }

    #[test]
    fn drop_newest_counts_losses_and_never_blocks() {
        // A sink that sleeps long enough for the tiny ring to fill.
        struct SlowSink(u64);
        impl TraceSink for SlowSink {
            fn record(&mut self, _ev: &TraceEvent) {
                self.0 += 1;
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut ring = RingSink::new(
            RingConfig {
                chunk_frames: 1,
                capacity_chunks: 1,
                policy: BackpressurePolicy::DropNewest,
            },
            vec![Box::new(SlowSink(0))],
        );
        for i in 0..50u64 {
            ring.record(&ev(i, 2));
        }
        let (_, stats) = ring.finish();
        assert_eq!(stats.frames_written + stats.frames_dropped, 50);
        assert!(stats.frames_dropped > 0, "tiny ring + slow sink must drop");
        assert_eq!(stats.blocked_us, 0, "DropNewest must never block");
    }

    #[test]
    fn drop_newest_accounting_is_exact_and_drained_stream_is_a_prefix() {
        use std::sync::{Arc, Condvar, Mutex};

        /// Gate in front of a frame buffer: blocks the drain thread on
        /// the very first frame until the producer releases it, so the
        /// producer can fill the ring to a *known* state and every
        /// subsequent chunk is deterministically dropped.
        struct GateSink {
            inner: FrameBufferSink,
            gate: Arc<(Mutex<(bool, bool)>, Condvar)>, // (started, released)
        }
        impl TraceSink for GateSink {
            fn record(&mut self, ev: &TraceEvent) {
                self.record_keyed(ev, ev.t(), 0);
            }
            fn record_keyed(&mut self, ev: &TraceEvent, at: u64, key: u64) {
                if self.inner.entries.is_empty() {
                    let (lock, cv) = &*self.gate;
                    let mut g = lock.lock().unwrap();
                    g.0 = true;
                    cv.notify_all();
                    while !g.1 {
                        g = cv.wait(g).unwrap();
                    }
                }
                self.inner.record_keyed(ev, at, key);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        const CHUNK: usize = 4;
        const CAPACITY: usize = 2;
        const TOTAL: u64 = 40; // 10 full chunks
        let gate = Arc::new((Mutex::new((false, false)), Condvar::new()));
        let mut ring = RingSink::new(
            RingConfig {
                chunk_frames: CHUNK,
                capacity_chunks: CAPACITY,
                policy: BackpressurePolicy::DropNewest,
            },
            vec![Box::new(GateSink {
                inner: FrameBufferSink::new(),
                gate: Arc::clone(&gate),
            })],
        );
        let mut inline = FrameBufferSink::new();
        for i in 0..TOTAL {
            let e = ev(i, (i % 3) as u32);
            inline.record_keyed(&e, i, i << 2);
            ring.record_keyed(&e, i, i << 2);
            if i as usize == CHUNK - 1 {
                // Chunk 1 was just pushed. Wait until the drain has
                // popped it (it blocks on the gate inside the sink), so
                // the ring is verifiably empty: chunks 2 and 3 will be
                // accepted, every later chunk deterministically dropped.
                let (lock, cv) = &*gate;
                let mut g = lock.lock().unwrap();
                while !g.0 {
                    g = cv.wait(g).unwrap();
                }
            }
        }
        {
            let (lock, cv) = &*gate;
            lock.lock().unwrap().1 = true;
            cv.notify_all();
        }
        let (bank, stats) = ring.finish();

        // Exact accounting: chunk 1 drained, chunks 2..=3 buffered,
        // chunks 4..=10 refused.
        let accepted = ((1 + CAPACITY) * CHUNK) as u64;
        assert_eq!(stats.frames_written, accepted);
        assert_eq!(stats.frames_dropped, TOTAL - accepted);
        assert_eq!(stats.blocked_us, 0, "DropNewest must never block");

        // The drained stream is a prefix of the inline reference: the
        // same first `accepted` frames, stamps included.
        let drained = &bank[0]
            .as_any()
            .downcast_ref::<GateSink>()
            .expect("GateSink")
            .inner
            .entries;
        assert_eq!(drained[..], inline.entries[..accepted as usize]);
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
