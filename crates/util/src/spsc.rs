//! Bounded single-producer / single-consumer ring for the trace
//! pipeline.
//!
//! The trace plane's off-thread drain ([`wmsn-trace`'s ring sink])
//! needs a queue with three properties the std channels don't surface
//! together: a hard capacity bound (a full ring blocks the producer
//! instead of growing without limit), occupancy accounting (peak depth is part of the bench
//! telemetry), and blocked-time accounting (how long the producer sat
//! in backpressure, in wall microseconds).
//!
//! The implementation is a `Mutex` + two `Condvar`s around a fixed
//! capacity `VecDeque` — deliberately boring. The producer batches
//! events into chunks *before* pushing (one lock per few hundred
//! events), so the lock is never on the per-event hot path and a
//! lock-free ring would buy nothing measurable. The crate-wide
//! `forbid(unsafe_code)` stays intact.
//!
//! `T` is the *chunk* type; both sides move whole chunks. [`SpscRing`]
//! is used through an `Arc`, one handle on each side.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Counters a ring accumulates over its lifetime. Snapshot via
/// [`SpscRing::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RingCounters {
    /// Chunks accepted by `push_blocking`.
    pub pushed: u64,
    /// Chunks taken by the consumer.
    pub popped: u64,
    /// Occupancy high-water mark (chunks resident), including the one
    /// being pushed.
    pub peak: usize,
    /// Total wall time the producer spent blocked on a full ring, µs.
    pub blocked_us: u64,
}

struct RingState<T> {
    buf: std::collections::VecDeque<T>,
    closed: bool,
    counters: RingCounters,
}

/// A bounded SPSC chunk queue. See the module docs for the design
/// rationale; the API is intentionally minimal:
///
/// * producer side — [`SpscRing::push_blocking`] (block-until-space
///   backpressure), then [`SpscRing::close`];
/// * consumer side — [`SpscRing::pop_blocking`], which returns `None`
///   only once the ring is closed *and* drained.
pub struct SpscRing<T> {
    cap: usize,
    state: Mutex<RingState<T>>,
    /// Signalled when space frees up (producer waits here).
    not_full: Condvar,
    /// Signalled when a chunk arrives or the ring closes (consumer
    /// waits here).
    not_empty: Condvar,
}

impl<T> SpscRing<T> {
    /// A ring holding at most `capacity` chunks (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        SpscRing {
            cap: capacity.max(1),
            state: Mutex::new(RingState {
                buf: std::collections::VecDeque::with_capacity(capacity.max(1)),
                closed: false,
                counters: RingCounters::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Capacity in chunks.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Push, blocking while the ring is full. Accumulates the blocked
    /// wall time into the counters. Returns the chunk back if the ring
    /// was closed (the consumer is gone; nothing will drain it).
    pub fn push_blocking(&self, chunk: T) -> Result<(), T> {
        let mut g = self.state.lock().expect("ring lock");
        if g.buf.len() >= self.cap && !g.closed {
            let start = Instant::now();
            while g.buf.len() >= self.cap && !g.closed {
                g = self.not_full.wait(g).expect("ring lock");
            }
            g.counters.blocked_us += start.elapsed().as_micros() as u64;
        }
        if g.closed {
            return Err(chunk);
        }
        g.buf.push_back(chunk);
        g.counters.pushed += 1;
        g.counters.peak = g.counters.peak.max(g.buf.len());
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Take the oldest chunk, blocking while the ring is empty and
    /// open. `None` means closed-and-drained: the consumer's loop
    /// condition.
    pub fn pop_blocking(&self) -> Option<T> {
        let mut g = self.state.lock().expect("ring lock");
        loop {
            if let Some(chunk) = g.buf.pop_front() {
                g.counters.popped += 1;
                drop(g);
                self.not_full.notify_one();
                return Some(chunk);
            }
            if g.closed {
                return None;
            }
            g = self.not_empty.wait(g).expect("ring lock");
        }
    }

    /// Close the ring: future pushes fail, the consumer drains what is
    /// left and then sees `None`. Idempotent.
    pub fn close(&self) {
        let mut g = self.state.lock().expect("ring lock");
        g.closed = true;
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Chunks currently resident.
    pub fn len(&self) -> usize {
        self.state.lock().expect("ring lock").buf.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters (see [`RingCounters`]).
    pub fn stats(&self) -> RingCounters {
        self.state.lock().expect("ring lock").counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_counters() {
        let r: SpscRing<u32> = SpscRing::new(4);
        for i in 0..3 {
            r.push_blocking(i).unwrap();
        }
        assert_eq!(r.len(), 3);
        for i in 0..3 {
            assert_eq!(r.pop_blocking(), Some(i));
        }
        r.close();
        assert_eq!(r.pop_blocking(), None);
        let c = r.stats();
        assert_eq!((c.pushed, c.popped, c.peak), (3, 3, 3));
    }

    #[test]
    fn push_blocking_waits_for_the_consumer() {
        let r = Arc::new(SpscRing::<u64>::new(1));
        r.push_blocking(0).unwrap();
        let producer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                // Blocks until the main thread pops.
                r.push_blocking(1).unwrap();
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(r.pop_blocking(), Some(0));
        producer.join().unwrap();
        assert_eq!(r.pop_blocking(), Some(1));
        assert!(r.stats().blocked_us > 0, "producer must have waited");
    }

    #[test]
    fn close_unblocks_both_sides() {
        let r = Arc::new(SpscRing::<u64>::new(1));
        let consumer = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || r.pop_blocking())
        };
        r.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(r.push_blocking(9), Err(9));
    }
}
