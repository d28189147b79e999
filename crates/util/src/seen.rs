//! Duplicate-suppression tables for flood protocols.
//!
//! Every flooding protocol in the workspace deduplicates on a
//! `(originator, sequence)` pair — RREQ floods on `(origin, req_id)`,
//! announce floods on `(gateway, round)`, data floods on
//! `(origin, msg_id)`. The naive representation is a
//! `HashSet<(NodeId, u64)>`, which pays a hash + probe on the hottest
//! branch in the simulator: *dropping an already-seen flood copy*.
//!
//! [`SeenTable`] stores one compact slot per originator — the highest
//! sequence seen plus a 64-wide membership bitmap below it, which is
//! exact for every realistic arrival pattern: per-origin sequences are
//! issued monotonically, and stale copies (late deliveries, replay
//! attacks) trail the newest flood by far less than 64 sequence
//! numbers.
//!
//! The first originator inserted in a generation is held inline, in
//! the table itself (`key = origin + 1`, `max`, `bits`). A node that
//! hears one flood source per generation — every SPR sensor between
//! round resets — never touches or allocates anything else, and its
//! duplicate check is one compare on the struct the caller already
//! holds. Clearing zeroes the inline key, so the inline slot needs no
//! generation stamp.
//!
//! Every later originator goes to a small open-addressed heap table
//! keyed by originator id (deterministic Fibonacci hashing, linear
//! probing), so a node's table is sized by the *distinct originators it
//! has heard*, not by the deployment's id space — at n = 100k every node
//! hears a few dozen flood sources, and a dense origin-indexed array
//! would cost O(n) memory per node (O(n²) across the field) and blow the
//! cache on the hottest lookup. Forged origin ids therefore cost one
//! heap slot each, never more. Clearing is O(1): the generation stamp is
//! bumped; a stale heap slot is reclaimed in place when its originator
//! is heard again, and dropped at the next rehash otherwise. The rehash
//! sizes the table from the current generation's entries alone, so a
//! node that hears new originators every round keeps a table sized by
//! one round's originators, not by how long the run has gone on.

/// One originator's sequence window: the highest sequence inserted and
/// a membership bitmap over `[max - 63, max]` (bit `k` set means
/// `max - k` has been seen). Anything further behind counts as seen.
#[derive(Clone, Copy, Debug, Default)]
struct Window {
    max: u64,
    bits: u64,
}

impl Window {
    /// A window holding `seq` alone.
    #[inline]
    fn new(seq: u64) -> Self {
        Window { max: seq, bits: 1 }
    }

    #[inline]
    fn contains(&self, seq: u64) -> bool {
        if seq > self.max {
            return false;
        }
        let back = self.max - seq;
        // Ancient sequences below the bitmap window count as seen.
        back >= 64 || self.bits & (1u64 << back) != 0
    }

    /// Record `seq`; `true` if it was not yet in the window.
    #[inline]
    fn insert(&mut self, seq: u64) -> bool {
        if seq > self.max {
            let shift = seq - self.max;
            self.bits = if shift >= 64 { 0 } else { self.bits << shift };
            self.bits |= 1;
            self.max = seq;
            return true;
        }
        let back = self.max - seq;
        if back >= 64 {
            return false; // ancient: conservatively already-seen
        }
        let mask = 1u64 << back;
        if self.bits & mask != 0 {
            return false;
        }
        self.bits |= mask;
        true
    }
}

/// One heap-table originator's state.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    /// Generation this slot was last written in; mismatches mean empty.
    gen: u64,
    win: Window,
}

/// The inline slot: the current generation's first originator.
#[derive(Clone, Copy, Debug, Default)]
struct Inline {
    /// `origin + 1`; 0 = unclaimed in this generation.
    key: u64,
    win: Window,
}

/// Compact generation-stamped `(originator, sequence)` membership table.
///
/// Semantics match a `HashSet<(u32, u64)>` for monotone-per-origin
/// sequences with bounded reordering: a sequence more than 63 behind the
/// newest one inserted for that origin is conservatively reported as
/// already seen (such frames are ancient replays; treating them as
/// duplicates is the safe direction for duplicate suppression). This
/// holds for any `u32` originator, including forged identities — an
/// adversary inventing ids costs one slot per distinct id, never a
/// large allocation.
#[derive(Clone, Debug)]
pub struct SeenTable {
    /// The generation's first originator; it is never also live in the
    /// heap table.
    first: Inline,
    gen: u64,
    /// `origin + 1` per table slot; 0 = never used. Stale keys (older
    /// generation) stay until the next rehash.
    keys: Vec<u64>,
    slots: Vec<Slot>,
    /// Occupied table slots, live or stale — drives the rehash.
    used: usize,
}

impl Default for SeenTable {
    fn default() -> Self {
        Self::new()
    }
}

/// Fibonacci multiplier (2^64 / φ) — a deterministic, well-mixing hash
/// for the near-sequential node ids that dominate real origins.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl SeenTable {
    /// Empty table.
    pub fn new() -> Self {
        SeenTable {
            first: Inline::default(),
            gen: 1,
            keys: Vec::new(),
            slots: Vec::new(),
            used: 0,
        }
    }

    /// O(1) clear: forget every recorded pair.
    pub fn clear(&mut self) {
        self.first.key = 0;
        self.gen += 1;
    }

    /// Home slot of `origin` for the current capacity.
    #[inline]
    fn home(&self, origin: u32) -> usize {
        let mask = self.keys.len() - 1;
        ((u64::from(origin) + 1).wrapping_mul(HASH_MUL) >> 32) as usize & mask
    }

    /// Whether `(origin, seq)` has been recorded since the last clear.
    #[inline]
    pub fn contains(&self, origin: u32, seq: u64) -> bool {
        let key = u64::from(origin) + 1;
        if self.first.key == key {
            return self.first.win.contains(seq);
        }
        // With the inline slot unclaimed nothing was inserted since the
        // last clear, so the heap table holds stale entries only.
        self.first.key != 0 && self.contains_heap(origin, seq)
    }

    #[inline(never)]
    fn contains_heap(&self, origin: u32, seq: u64) -> bool {
        if self.keys.is_empty() {
            return false;
        }
        let key = u64::from(origin) + 1;
        let mask = self.keys.len() - 1;
        let mut i = self.home(origin);
        loop {
            let k = self.keys[i];
            if k == 0 {
                return false;
            }
            if k == key {
                let slot = &self.slots[i];
                return slot.gen == self.gen && slot.win.contains(seq);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `(origin, seq)`; returns `true` if it was newly inserted
    /// (mirrors `HashSet::insert`).
    #[inline]
    pub fn insert(&mut self, origin: u32, seq: u64) -> bool {
        let key = u64::from(origin) + 1;
        if self.first.key == key {
            return self.first.win.insert(seq);
        }
        if self.first.key == 0 {
            self.first = Inline {
                key,
                win: Window::new(seq),
            };
            return true;
        }
        self.insert_heap(origin, seq)
    }

    #[inline(never)]
    fn insert_heap(&mut self, origin: u32, seq: u64) -> bool {
        // Keep at least one slot in four vacant so probes stay short;
        // the rehash keeps live entries only, dropping stale generations.
        if self.keys.is_empty() || (self.used + 1) * 4 > self.keys.len() * 3 {
            self.rehash();
        }
        let key = u64::from(origin) + 1;
        let mask = self.keys.len() - 1;
        let gen = self.gen;
        let mut i = self.home(origin);
        loop {
            let k = self.keys[i];
            if k == 0 {
                self.keys[i] = key;
                self.slots[i] = Slot {
                    gen,
                    win: Window::new(seq),
                };
                self.used += 1;
                return true;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        let slot = &mut self.slots[i];
        if slot.gen != gen {
            // Stale slot from a cleared generation: reclaim in place.
            *slot = Slot {
                gen,
                win: Window::new(seq),
            };
            return true;
        }
        slot.win.insert(seq)
    }

    /// Heap-table slots allocated (a power of two, or 0 while every
    /// generation has held one originator, the inline one).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Rehash into the smallest power of two ≥ 8 that holds the current
    /// generation's entries at load ≤ ½, dropping stale generations. The
    /// table grows, keeps its size or shrinks. Every rehash leaves at
    /// least `cap / 4` inserts before the next, so inserts stay amortised
    /// O(1). Deterministic: reinsertion walks the old table in slot order.
    fn rehash(&mut self) {
        let gen = self.gen;
        let live = self
            .keys
            .iter()
            .zip(&self.slots)
            .filter(|&(&k, s)| k != 0 && s.gen == gen)
            .count();
        let cap = (live * 2).next_power_of_two().max(8);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; cap]);
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::default(); cap]);
        self.used = live;
        let mask = cap - 1;
        for (k, s) in old_keys.into_iter().zip(old_slots) {
            if k == 0 || s.gen != gen {
                continue;
            }
            let mut i = ((k.wrapping_mul(HASH_MUL)) >> 32) as usize & mask;
            while self.keys[i] != 0 {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.slots[i] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_contains() {
        let mut t = SeenTable::new();
        assert!(!t.contains(3, 7));
        assert!(t.insert(3, 7));
        assert!(t.contains(3, 7));
        assert!(!t.insert(3, 7), "second insert reports duplicate");
        assert!(!t.contains(3, 8));
        assert!(!t.contains(4, 7));
    }

    #[test]
    fn monotone_sequences_track_exactly() {
        let mut t = SeenTable::new();
        for seq in 0..200u64 {
            assert!(t.insert(9, seq), "seq {seq} must be new");
        }
        for seq in 150..200u64 {
            assert!(t.contains(9, seq));
            assert!(!t.insert(9, seq));
        }
    }

    #[test]
    fn bounded_reordering_is_exact() {
        let mut t = SeenTable::new();
        t.insert(1, 10);
        t.insert(1, 12); // 11 skipped
        assert!(!t.contains(1, 11));
        assert!(t.insert(1, 11), "late seq within window is new");
        assert!(t.contains(1, 11));
        assert!(!t.insert(1, 11));
    }

    #[test]
    fn ancient_sequences_count_as_seen() {
        let mut t = SeenTable::new();
        t.insert(1, 1000);
        assert!(t.contains(1, 1), "64+ behind max is conservatively seen");
        assert!(!t.insert(1, 1));
    }

    #[test]
    fn clear_forgets_everything_cheaply() {
        let mut t = SeenTable::new();
        t.insert(2, 5);
        t.insert(70_000, 5);
        t.clear();
        assert!(!t.contains(2, 5));
        assert!(!t.contains(70_000, 5));
        assert!(t.insert(2, 5));
        assert!(t.insert(70_000, 5));
    }

    #[test]
    fn forged_huge_ids_cost_one_slot_each() {
        let mut t = SeenTable::new();
        assert!(t.insert(u32::MAX, 3));
        assert!(t.contains(u32::MAX, 3));
        assert!(!t.insert(u32::MAX, 3));
        // Nearby (bounded-reorder) sequences stay exact for forged ids
        // too — they share the windowed slot semantics.
        assert!(t.insert(u32::MAX, 1));
        assert!(t.contains(u32::MAX, 1));
    }

    #[test]
    fn window_slide_beyond_64_drops_the_bitmap() {
        let mut t = SeenTable::new();
        t.insert(5, 0);
        t.insert(5, 100); // shift >= 64 zeroes the window
        assert!(t.contains(5, 100));
        assert!(t.contains(5, 0), "below-window is treated as seen");
        assert!(!t.contains(5, 101));
    }

    #[test]
    fn many_origins_grow_and_rehash_without_loss() {
        let mut t = SeenTable::new();
        for o in 0..5_000u32 {
            assert!(t.insert(o * 37, u64::from(o)));
        }
        for o in 0..5_000u32 {
            assert!(t.contains(o * 37, u64::from(o)), "origin {o}");
            assert!(!t.insert(o * 37, u64::from(o)));
        }
    }

    #[test]
    fn stale_generations_are_dropped_on_growth() {
        let mut t = SeenTable::new();
        for round in 0..50u64 {
            for o in 0..100u32 {
                assert!(t.insert(o, round), "round {round} origin {o}");
            }
            t.clear();
        }
        // Capacity is bounded by live entries, not by generation count.
        assert!(
            t.capacity() <= 512,
            "capacity {} grew unbounded",
            t.capacity()
        );
    }

    #[test]
    fn distinct_origins_per_generation_keep_capacity_bounded() {
        // A node that hears new originators every round: stale slots are
        // never reclaimed in place, so only a live-sized rehash keeps the
        // table from growing with the number of rounds.
        for live in [1u32, 3, 8, 25, 100] {
            let mut t = SeenTable::new();
            for gen in 0..1_000u32 {
                for o in 0..live {
                    assert!(t.insert(gen * live + o, u64::from(gen)));
                }
                let bound = 4 * 8.max(live as usize);
                assert!(
                    t.capacity() <= bound,
                    "live {live}, generation {gen}: capacity {} > {bound}",
                    t.capacity()
                );
                t.clear();
            }
        }
    }

    #[test]
    fn the_first_origin_of_every_generation_is_claimed_inline() {
        let mut t = SeenTable::new();
        for gen in 0..100u32 {
            let origin = gen.wrapping_mul(7919) % 1000;
            assert_eq!(t.first.key, 0, "generation {gen} starts unclaimed");
            assert!(t.insert(origin, u64::from(gen)));
            assert_eq!(t.first.key, u64::from(origin) + 1, "generation {gen}");
            assert!(t.contains(origin, u64::from(gen)));
            assert!(!t.insert(origin, u64::from(gen)));
            assert!(
                t.insert(origin, u64::from(gen) + 1),
                "same origin stays inline"
            );
            assert_eq!(t.capacity(), 0, "generation {gen} touched the heap table");
            t.clear();
        }
    }

    #[test]
    fn later_and_stale_origins_go_to_the_heap_table() {
        let mut t = SeenTable::new();
        assert!(t.insert(1, 10));
        assert!(t.insert(2, 20), "a second origin is new");
        assert_eq!(
            t.first.key, 2,
            "the second origin leaves the inline slot alone"
        );
        assert!(
            t.capacity() > 0,
            "the second origin lives in the heap table"
        );
        assert!(t.contains(1, 10) && t.contains(2, 20));
        assert!(!t.contains(1, 20) && !t.contains(2, 10));
        assert!(!t.insert(1, 10) && !t.insert(2, 20));
        t.clear();
        // Origin 2's heap slot is now stale: it must read as unseen
        // behind a new inline origin and be reclaimed on insert.
        assert!(t.insert(3, 5));
        assert!(!t.contains(2, 20), "stale heap entry reads as unseen");
        assert!(t.insert(2, 21));
        assert!(t.contains(2, 21));
        assert!(
            !t.contains(2, 20),
            "the reclaimed slot starts a fresh window"
        );
        assert!(t.contains(3, 5));
        assert!(!t.insert(2, 21) && !t.insert(3, 5));
        t.clear();
        // An origin stale in the heap may be the next generation's
        // inline origin; the heap copy must not shadow it.
        assert!(t.insert(2, 40));
        assert_eq!(t.first.key, 3);
        assert!(t.contains(2, 40) && !t.contains(2, 21));
        assert!(t.insert(4, 1));
        assert!(t.contains(2, 40) && t.contains(4, 1));
    }

    #[test]
    fn clear_forgets_the_inline_origin() {
        let mut t = SeenTable::new();
        assert!(t.insert(9, 3));
        t.clear();
        assert!(!t.contains(9, 3));
        assert!(t.insert(9, 3), "re-inserted after a clear");
        t.clear();
        // Another origin claims the slot; 9 reads as unseen even though
        // its old window would cover the sequence.
        assert!(t.insert(5, 3));
        assert!(!t.contains(9, 3));
        assert!(!t.contains(9, 0));
    }

    #[test]
    fn the_inline_slot_keeps_the_window_rules() {
        let mut t = SeenTable::new();
        assert!(!t.contains(u32::MAX, 0));
        assert!(t.insert(u32::MAX, 1_000));
        assert_eq!(t.first.key, 1u64 << 32);
        assert_eq!(t.capacity(), 0);
        assert!(t.contains(u32::MAX, 1_000));
        assert!(!t.contains(u32::MAX, 1_001));
        assert!(!t.contains(u32::MAX, 999), "within the window, unseen");
        assert!(t.insert(u32::MAX, 999));
        assert!(t.contains(u32::MAX, 999));
        assert!(!t.contains(u32::MAX, 937), "63 behind: inside the bitmap");
        assert!(t.contains(u32::MAX, 936), "64 behind: ancient, seen");
        assert!(!t.insert(u32::MAX, 936));
        assert!(t.insert(u32::MAX, 1_100), "a jump of 64+ drops the bitmap");
        assert!(t.contains(u32::MAX, 1_000), "now ancient");
        assert!(!t.contains(u32::MAX, 1_099));
        assert!(!t.contains(u32::MAX - 1, 1_100));
        assert!(!t.contains(0, 1_100));
        assert_eq!(t.capacity(), 0, "probes never allocate");
    }

    /// Reference semantics: a `HashSet` of pairs plus each origin's
    /// highest sequence, with anything 64 or more behind it seen.
    #[derive(Default)]
    struct Model {
        pairs: std::collections::HashSet<(u32, u64)>,
        max: std::collections::HashMap<u32, u64>,
    }

    impl Model {
        fn contains(&self, origin: u32, seq: u64) -> bool {
            let ancient = self.max.get(&origin).is_some_and(|&m| m >= seq + 64);
            ancient || self.pairs.contains(&(origin, seq))
        }

        fn insert(&mut self, origin: u32, seq: u64) -> bool {
            if self.contains(origin, seq) {
                return false;
            }
            self.pairs.insert((origin, seq));
            let m = self.max.entry(origin).or_insert(seq);
            *m = (*m).max(seq);
            true
        }

        fn clear(&mut self) {
            self.pairs.clear();
            self.max.clear();
        }
    }

    #[test]
    fn matches_the_windowed_set_model_across_bursts_and_quiet_generations() {
        use crate::rng::SplitMix64;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let mut t = SeenTable::new();
            let mut m = Model::default();
            let mut next_origin = 0u32;
            let mut peak_live = 0usize;
            let mut shrinks = 0;
            for gen in 0..400u32 {
                // Every twentieth generation is a burst that forces
                // growth; the rest are quiet, and the new origins they
                // add in place of stale slots force shrinks. The tail is
                // quiet throughout.
                let fresh = if gen % 20 == 0 && gen < 300 {
                    100 + rng.next_below(300) as u32
                } else {
                    rng.next_below(30) as u32
                };
                // Mostly new origins, some revisited from earlier
                // generations so stale slots are reclaimed in place too.
                let mut origins: Vec<u32> = (0..fresh)
                    .map(|_| {
                        if next_origin > 0 && rng.chance(0.2) {
                            rng.next_below(u64::from(next_origin)) as u32
                        } else {
                            next_origin += 1;
                            next_origin - 1
                        }
                    })
                    .collect();
                origins.sort_unstable();
                origins.dedup();
                peak_live = peak_live.max(origins.len());
                let cap_before = t.capacity();
                for o in &origins {
                    let seq = u64::from(gen) * 10 + rng.next_below(80);
                    assert_eq!(t.insert(*o, seq), m.insert(*o, seq), "seed {seed}");
                }
                for _ in 0..origins.len() * 3 {
                    let o = origins[rng.next_index(origins.len())];
                    let seq = u64::from(gen) * 10 + rng.next_below(160);
                    if rng.chance(0.5) {
                        assert_eq!(t.insert(o, seq), m.insert(o, seq), "seed {seed} insert");
                    } else {
                        assert_eq!(t.contains(o, seq), m.contains(o, seq), "seed {seed} probe");
                    }
                }
                // Origins never heard, and heard only in a cleared
                // generation, read as unseen.
                assert!(!t.contains(next_origin, 0));
                if t.capacity() < cap_before {
                    shrinks += 1;
                }
                assert!(
                    t.capacity() <= 4 * 8.max(peak_live),
                    "seed {seed} gen {gen}: capacity {} vs peak live {peak_live}",
                    t.capacity()
                );
                t.clear();
                m.clear();
            }
            assert!(shrinks >= 3, "seed {seed}: {shrinks} shrinks");
            assert!(
                t.capacity() <= 64,
                "seed {seed}: quiet tail kept {}",
                t.capacity()
            );
        }
    }

    #[test]
    fn one_origin_per_generation_matches_the_model_without_a_heap_table() {
        use crate::rng::SplitMix64;
        for seed in 0..20u64 {
            let mut rng = SplitMix64::new(seed);
            let mut t = SeenTable::new();
            let mut m = Model::default();
            for gen in 0..400u32 {
                // Origins repeat across generations, as SPR's sources
                // do over many rounds, and include forged extremes.
                let origin = match rng.next_below(10) {
                    0 => u32::MAX,
                    1 => 0,
                    _ => rng.next_below(50) as u32,
                };
                for _ in 0..1 + rng.next_below(40) {
                    let seq = u64::from(gen) * 3 + rng.next_below(200);
                    if rng.chance(0.6) {
                        assert_eq!(t.insert(origin, seq), m.insert(origin, seq), "seed {seed}");
                    } else {
                        assert_eq!(
                            t.contains(origin, seq),
                            m.contains(origin, seq),
                            "seed {seed} probe"
                        );
                    }
                    // Other origins were never inserted this generation.
                    let other = origin.wrapping_add(1 + rng.next_below(5) as u32);
                    assert!(!t.contains(other, seq), "seed {seed} gen {gen}");
                    assert_eq!(t.capacity(), 0, "seed {seed} gen {gen}");
                }
                t.clear();
                m.clear();
            }
        }
    }
}
