//! The event queue.
//!
//! A timer wheel keyed by exact microsecond, with an overflow heap for
//! events beyond the wheel's horizon. Pop order is exactly `(time,
//! key)`: the caller supplies a 64-bit *causal key* with every event,
//! and the key breaks timestamp ties. The world derives keys from the
//! scheduling node's id and a per-node counter (`node << 32 | counter`),
//! which makes tie-breaking a property of *who scheduled what* rather
//! than of global insertion order — the same events get the same keys no
//! matter how the world is partitioned, so the sharded parallel kernel
//! reproduces the single-threaded schedule bit for bit.
//!
//! Why a wheel and not a binary heap: the simulator processes ~1.4M
//! events per 800-node round, almost all within a few milliseconds of
//! `now`, and heap sift costs (log-depth cache misses per pop on a
//! ~40k-entry heap) dominated the whole run. The wheel pops in O(1) —
//! each slot covers one exact microsecond, so a slot's list holds one
//! timestamp and only needs key order within it.
//!
//! Almost all of those events are receptions, so one broadcast is one
//! entry: the world queues a whole transmission as a single
//! [`EventKind::Fanout`]. The receivers are fixed at send time, each
//! with the causal key it would carry as an event of its own, and the
//! entry sits at `(arrival, first receiver's key)`. When it fires the
//! world serves the receivers in key order and, before each one after
//! the first, asks [`EventQueue::precedes`] whether anything pending
//! sorts before that receiver's `(at, key)` — a zero-delay timer an
//! earlier receiver just set, say. If so it puts the rest of the batch
//! back at that key ([`EventQueue::resume`]), so pop order is exactly
//! what one event per reception would give. The queue's statistics
//! count receptions, not entries: a pending fan-out adds one to
//! [`EventQueue::len`] per receiver still to serve, and every served
//! receiver adds one to [`EventQueue::total_popped`].

use crate::packet::Packet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wmsn_util::NodeId;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A transmission's receptions, all at one arrival time (see the
    /// module docs). The entry is queued at the key of `rxs[pos]`.
    Fanout {
        /// The frame every receiver gets.
        packet: Packet,
        /// Receivers in ascending causal-key order, each with its key.
        rxs: Vec<(NodeId, u64)>,
        /// Next receiver to serve.
        pos: usize,
    },
    /// A node's timer expires.
    Timer {
        /// The node that set the timer.
        node: NodeId,
        /// Caller-chosen tag, returned verbatim.
        tag: u64,
    },
    /// A CSMA-deferred transmission retries.
    Retransmit {
        /// Sending node.
        src: NodeId,
        /// Link destination.
        link_dst: Option<NodeId>,
        /// Radio tier.
        tier: crate::phy::Tier,
        /// Metrics kind.
        kind: crate::packet::PacketKind,
        /// Payload bytes (shared with the original attempt — a deferral
        /// never copies the frame).
        payload: std::rc::Rc<[u8]>,
        /// Backoff attempt number.
        attempt: u8,
    },
    /// External control hook: run-loop should return to the caller.
    Breakpoint,
}

impl EventKind {
    /// Pending work this entry stands for: one per receiver still to
    /// serve for a fan-out, one for anything else.
    fn weight(&self) -> usize {
        match self {
            EventKind::Fanout { rxs, pos, .. } => rxs.len() - pos,
            _ => 1,
        }
    }
}

/// A scheduled event.
#[derive(Debug)]
pub struct Event {
    /// Firing time.
    pub at: SimTime,
    /// Causal key for tie-breaking at equal `at` (see module docs).
    pub key: u64,
    /// Action.
    pub kind: EventKind,
}

/// One µs of wheel coverage per slot; 2^16 slots ≈ 65 ms of horizon,
/// comfortably past the hop-delay + jitter window almost every event
/// lands in. Far timers (hello intervals, round periods) overflow to a
/// small heap and migrate in when the wheel drains.
const WHEEL_BITS: u32 = 16;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const WORDS: usize = WHEEL_SLOTS / 64;
const NIL: u32 = u32::MAX;

/// An event body parked in the slab, linked into its slot's key-ordered
/// list.
#[derive(Debug)]
struct SlabEntry {
    at: SimTime,
    key: u64,
    /// Next entry in the same wheel slot (same `at`), or `NIL`.
    next: u32,
    /// `None` = slot free.
    kind: Option<EventKind>,
}

/// Overflow-heap key: 24 bytes, body stays in the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapEntry {
    at: SimTime,
    key: u64,
    slot: u32,
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest-first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
    }
}

/// Earliest-first event queue.
#[derive(Debug)]
pub struct EventQueue {
    /// Event bodies, indexed by wheel lists and overflow entries.
    slab: Vec<SlabEntry>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Per-slot list heads into `slab` (`NIL` = empty).
    heads: Vec<u32>,
    /// Per-slot list tails.
    tails: Vec<u32>,
    /// One bit per slot: set iff the slot has entries.
    occupied: Vec<u64>,
    /// Window base: wheel entries have `at` in `[wheel_start, wheel_start
    /// + WHEEL_SLOTS)`; overflow entries lie at or past the horizon.
    wheel_start: SimTime,
    /// Earliest time any pending wheel entry can have; scans start here.
    cursor: SimTime,
    /// Entries currently linked into the wheel.
    wheel_len: usize,
    /// Events beyond the horizon, earliest-first.
    overflow: BinaryHeap<HeapEntry>,
    /// Entries in the wheel and the overflow heap.
    count: usize,
    /// Pending work: entries, with each fan-out counted once per
    /// receiver still to serve (including a popped fan-out the world is
    /// serving).
    pending: usize,
    /// High-water mark of `pending` over the queue's lifetime.
    peak: usize,
    /// Total work ever served: receptions plus other events (the
    /// event-loop throughput numerator).
    popped: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; WHEEL_SLOTS],
            tails: vec![NIL; WHEEL_SLOTS],
            occupied: vec![0; WORDS],
            wheel_start: 0,
            cursor: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            count: 0,
            pending: 0,
            peak: 0,
            popped: 0,
        }
    }

    /// Schedule `kind` at absolute time `at` with causal key `key`.
    /// Events at equal `at` fire in ascending key order.
    pub fn schedule(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.pending += kind.weight();
        self.peak = self.peak.max(self.pending);
        self.insert(at, key, kind);
    }

    /// Put back the unserved rest of a fan-out popped earlier, at the
    /// key of its next receiver. Its receivers are still counted as
    /// pending, so the statistics do not change.
    pub fn resume(&mut self, at: SimTime, key: u64, kind: EventKind) {
        self.insert(at, key, kind);
    }

    /// Count one more receiver served from a popped fan-out.
    pub fn count_served(&mut self) {
        self.pending -= 1;
        self.popped += 1;
    }

    fn insert(&mut self, at: SimTime, key: u64, kind: EventKind) {
        if self.count == 0 {
            // Every slot was drained on the way here, so the wheel is
            // clean and the window can be re-anchored for free.
            self.wheel_start = at;
            self.cursor = at;
        } else if at < self.wheel_start {
            self.rebase(at);
        }
        let idx = self.alloc(at, key, kind);
        if at - self.wheel_start < WHEEL_SLOTS as u64 {
            self.wheel_insert(at, idx);
            if at < self.cursor {
                self.cursor = at;
            }
        } else {
            self.overflow.push(HeapEntry { at, key, slot: idx });
        }
        self.count += 1;
    }

    /// Pop the earliest event, counting one unit of work served (for a
    /// fan-out, its first remaining receiver).
    pub fn pop(&mut self) -> Option<Event> {
        if self.count == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            self.refill_from_overflow();
        }
        let s = self.scan();
        let idx = self.heads[s] as usize;
        let at = self.slab[idx].at;
        let key = self.slab[idx].key;
        self.cursor = at;
        let next = self.slab[idx].next;
        self.heads[s] = next;
        if next == NIL {
            self.tails[s] = NIL;
            self.occupied[s >> 6] &= !(1u64 << (s & 63));
        }
        self.wheel_len -= 1;
        self.count -= 1;
        self.count_served();
        let kind = self.slab[idx].kind.take().expect("scheduled slot");
        self.free.push(idx as u32);
        Some(Event { at, key, kind })
    }

    /// `(at, key)` of the earliest pending event.
    fn head(&mut self) -> Option<(SimTime, u64)> {
        if self.count == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            self.refill_from_overflow();
        }
        let e = &self.slab[self.heads[self.scan()] as usize];
        // Nothing earlier remains, so a following pop rescans in O(1).
        self.cursor = e.at;
        Some((e.at, e.key))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.head().map(|(at, _)| at)
    }

    /// Whether a pending event fires before `(at, key)` — the check a
    /// fan-out makes before serving its next receiver.
    pub fn precedes(&mut self, at: SimTime, key: u64) -> bool {
        // Nothing pending is earlier than the cursor, so with the cursor
        // at `at` only `at`'s own slot can hold an earlier event; this
        // skips scanning ahead to the next occupied slot.
        if self.cursor == at && at - self.wheel_start < WHEEL_SLOTS as u64 {
            let h = self.heads[(at & WHEEL_MASK) as usize];
            return h != NIL && self.slab[h as usize].key < key;
        }
        self.head().is_some_and(|h| h < (at, key))
    }

    /// Pending events, a fan-out counting once per receiver still to
    /// serve.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Total events served over the queue's lifetime, a fan-out
    /// counting once per receiver.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn alloc(&mut self, at: SimTime, key: u64, kind: EventKind) -> u32 {
        let entry = SlabEntry {
            at,
            key,
            next: NIL,
            kind: Some(kind),
        };
        match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Link `idx` into its time slot's key-ordered list. Entries in one
    /// slot share one exact `at` (the window is one wheel revolution).
    /// A node's entries arrive with ascending keys, so the tail-append
    /// fast path covers the hot case; out-of-order keys (two nodes
    /// scheduling into the same microsecond) walk the short list.
    fn wheel_insert(&mut self, at: SimTime, idx: u32) {
        let s = (at & WHEEL_MASK) as usize;
        let key = self.slab[idx as usize].key;
        let tail = self.tails[s];
        self.wheel_len += 1;
        if tail == NIL {
            self.heads[s] = idx;
            self.tails[s] = idx;
            self.occupied[s >> 6] |= 1u64 << (s & 63);
            return;
        }
        if self.slab[tail as usize].key <= key {
            self.slab[tail as usize].next = idx;
            self.tails[s] = idx;
            return;
        }
        let head = self.heads[s];
        if key < self.slab[head as usize].key {
            self.slab[idx as usize].next = head;
            self.heads[s] = idx;
            return;
        }
        // Insert after the last entry whose key is <= ours (stable for
        // equal keys, though the world never issues duplicates).
        let mut cur = head;
        loop {
            let next = self.slab[cur as usize].next;
            if next == NIL || key < self.slab[next as usize].key {
                self.slab[idx as usize].next = next;
                self.slab[cur as usize].next = idx;
                return;
            }
            cur = next;
        }
    }

    /// Wheel drained but events remain: advance the window to the earliest
    /// overflow event and pull everything inside the new horizon in.
    /// Entries arrive in `(at, key)` heap order, so slot lists stay sorted
    /// via the append fast path.
    fn refill_from_overflow(&mut self) {
        let start = self.overflow.peek().expect("count > 0, wheel empty").at;
        self.wheel_start = start;
        self.cursor = start;
        while let Some(e) = self.overflow.peek() {
            if e.at - start >= WHEEL_SLOTS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.wheel_insert(e.at, e.slot);
        }
    }

    /// Cold path: an event earlier than the window base was scheduled
    /// (never happens in forward simulation — `at = now + delay`). Rebuild
    /// the window around the new minimum via the overflow heap.
    fn rebase(&mut self, at: SimTime) {
        for s in 0..WHEEL_SLOTS {
            let mut idx = self.heads[s];
            while idx != NIL {
                let e = &mut self.slab[idx as usize];
                let next = e.next;
                e.next = NIL;
                self.overflow.push(HeapEntry {
                    at: e.at,
                    key: e.key,
                    slot: idx,
                });
                idx = next;
            }
            self.heads[s] = NIL;
            self.tails[s] = NIL;
        }
        self.occupied.fill(0);
        self.wheel_len = 0;
        self.wheel_start = at;
        self.cursor = at;
        while let Some(e) = self.overflow.peek() {
            if e.at - at >= WHEEL_SLOTS as u64 {
                break;
            }
            let e = self.overflow.pop().expect("peeked");
            self.wheel_insert(e.at, e.slot);
        }
    }

    /// Index of the first occupied slot at or (circularly) after the
    /// cursor. All wheel entries lie within one revolution ahead of the
    /// cursor, so circular slot order is time order.
    fn scan(&self) -> usize {
        debug_assert!(self.wheel_len > 0);
        let s0 = (self.cursor & WHEEL_MASK) as usize;
        let mut w = s0 >> 6;
        let mut word = self.occupied[w] & (!0u64 << (s0 & 63));
        loop {
            if word != 0 {
                return (w << 6) + word.trailing_zeros() as usize;
            }
            w = (w + 1) % WORDS;
            word = self.occupied[w];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, tag: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 0, timer(0, 0));
        q.schedule(10, 1, timer(0, 1));
        q.schedule(20, 2, timer(0, 2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_in_key_order_not_insertion_order() {
        // Schedule with descending keys; pops must come back ascending.
        let mut q = EventQueue::new();
        for tag in 0..50u64 {
            q.schedule(100, 49 - tag, timer(0, tag));
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..50).rev().collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_keys_from_two_schedulers_sort_within_a_slot() {
        // Node 7 appends keys 700..705, then node 3 inserts 300..305
        // into the same microsecond: pop order is key order, and the
        // mid-list insertion path is exercised.
        let mut q = EventQueue::new();
        for i in 0..6u64 {
            q.schedule(42, 700 + i, timer(7, i));
        }
        for i in 0..6u64 {
            q.schedule(42, 300 + i, timer(3, i));
        }
        q.schedule(42, 500, timer(5, 0));
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
        let mut want = keys.clone();
        want.sort_unstable();
        assert_eq!(keys, want);
        assert_eq!(keys[0], 300);
        assert_eq!(*keys.last().unwrap(), 705);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(7, 0, timer(1, 0));
        q.schedule(3, 1, timer(1, 1));
        assert_eq!(q.peek_time(), Some(3));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(5, 0, timer(0, 0));
        q.schedule(1, 1, timer(0, 1));
        assert_eq!(q.pop().unwrap().at, 1);
        q.schedule(2, 2, timer(0, 2));
        q.schedule(4, 3, timer(0, 3));
        assert_eq!(q.pop().unwrap().at, 2);
        assert_eq!(q.pop().unwrap().at, 4);
        assert_eq!(q.pop().unwrap().at, 5);
        assert!(q.pop().is_none());
    }

    #[test]
    fn far_future_events_overflow_and_return_in_order() {
        // Spread events far past one wheel revolution (2^16 µs) so the
        // overflow heap and its migration path are exercised.
        let mut q = EventQueue::new();
        let times: Vec<SimTime> = (0..10).map(|i| i * 100_000).rev().collect();
        for (tag, &t) in times.iter().enumerate() {
            q.schedule(t, tag as u64, timer(0, tag as u64));
        }
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, (0..10).map(|i| i * 100_000).collect::<Vec<_>>());
    }

    #[test]
    fn ties_across_the_horizon_break_in_key_order() {
        // Two events at the same far-future instant, plus a near event;
        // the far pair must migrate and still fire in key order even
        // though the larger key was scheduled first.
        let mut q = EventQueue::new();
        q.schedule(1_000_000, 11, timer(0, 11));
        q.schedule(5, 0, timer(0, 0));
        q.schedule(1_000_000, 10, timer(0, 10));
        assert_eq!(q.pop().unwrap().at, 5);
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![10, 11]);
    }

    #[test]
    fn scheduling_before_the_window_base_rebases() {
        // First event anchors the window at t=50_000; a later event at
        // t=10 lands before the base and must still pop first.
        let mut q = EventQueue::new();
        q.schedule(50_000, 0, timer(0, 0));
        q.schedule(10, 1, timer(0, 1));
        q.schedule(200_000, 2, timer(0, 2));
        let order: Vec<SimTime> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![10, 50_000, 200_000]);
    }

    fn fanout(receivers: &[(u32, u64)]) -> EventKind {
        EventKind::Fanout {
            packet: Packet {
                seq: 0,
                src: NodeId(9),
                link_dst: None,
                tier: crate::phy::Tier::Sensor,
                kind: crate::packet::PacketKind::Control,
                payload: std::rc::Rc::from(&[][..]),
            },
            rxs: receivers.iter().map(|&(n, k)| (NodeId(n), k)).collect(),
            pos: 0,
        }
    }

    #[test]
    fn a_fanout_counts_once_per_receiver() {
        let mut q = EventQueue::new();
        q.schedule(10, 1, timer(0, 0));
        q.schedule(20, 5, fanout(&[(1, 5), (2, 6), (3, 7)]));
        assert_eq!((q.len(), q.peak_len()), (4, 4));
        q.pop();
        let ev = q.pop().expect("fan-out");
        // The pop served the first receiver; two are still pending
        // although the queue holds no entry.
        assert!(q.is_empty());
        assert_eq!((q.len(), q.total_popped()), (2, 2));
        q.count_served();
        // Putting the rest back changes no statistic.
        q.resume(ev.at, 7, ev.kind);
        assert_eq!((q.len(), q.total_popped(), q.peak_len()), (1, 3, 4));
        assert_eq!(q.pop().map(|e| (e.at, e.key)), Some((20, 7)));
        assert_eq!((q.len(), q.total_popped()), (0, 4));
    }

    #[test]
    fn precedes_orders_by_time_then_key() {
        let mut q = EventQueue::new();
        assert!(!q.precedes(0, 0));
        q.schedule(100, 50, timer(0, 0));
        assert!(q.precedes(100, 51));
        assert!(!q.precedes(100, 50));
        assert!(!q.precedes(100, 49));
        assert!(q.precedes(101, 0));
        assert!(!q.precedes(99, u64::MAX));
        // Only overflow entries pending: still answered exactly.
        let mut q = EventQueue::new();
        q.schedule(0, 0, timer(0, 0));
        q.schedule(1_000_000, 3, timer(0, 1));
        q.pop();
        assert!(q.precedes(1_000_000, 4));
        assert!(!q.precedes(1_000_000, 3));
    }

    #[test]
    fn draining_and_reusing_the_queue_reanchors_the_window() {
        let mut q = EventQueue::new();
        q.schedule(100, 0, timer(0, 0));
        assert_eq!(q.pop().unwrap().at, 100);
        assert!(q.pop().is_none());
        // Far later than the first window; must re-anchor, not overflow.
        q.schedule(10_000_000, 1, timer(0, 1));
        assert_eq!(q.peek_time(), Some(10_000_000));
        assert_eq!(q.pop().unwrap().at, 10_000_000);
    }
}
