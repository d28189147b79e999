//! The k-way merge: per-shard `(event, at, key)` streams back into the
//! reference emission order.
//!
//! Every `(at, key)` pair originates on exactly one shard (keys encode
//! the scheduling node, and a node executes on one shard), so the total
//! order `(at, key, capture order)` is unambiguous across shards and
//! equals the single-threaded run's emission order.
//!
//! A shard's event loop is time-ordered, so its stream is `at`-monotone
//! by construction; an `at` regression is a hard error (the input is
//! not a shard stream). Within one `at` microsecond, though, the shard
//! wheel executes events in insertion order, not key order, so a shard
//! stream can carry *key* inversions inside an equal-`at` run. Each
//! cursor therefore buffers one equal-`at` run at a time and stably
//! sorts it by key, which reproduces the total order without ever
//! sorting a full stream. Memory is one run per shard plus whatever the
//! source holds (one segment for a `.wcap` reader).
//!
//! Two source kinds feed the same merge: in-memory
//! [`crate::FrameBufferSink`] entries ([`merge_frame_buffers`]) and
//! per-shard capture files ([`merge_captures`]).

use crate::capture::CaptureReader;
use crate::event::TraceEvent;
use std::collections::VecDeque;
use std::io::{Read, Seek};

/// One frame with its causal merge position.
pub(crate) type Frame = (TraceEvent, u64, u64);

/// Pull cursor over one shard's frame stream, yielding frames in
/// `(at, key, capture order)` order.
struct MergeCursor<I> {
    src: I,
    /// The current equal-`at` run, key-sorted; front is the next frame.
    run: VecDeque<Frame>,
    /// First frame of the *next* run, read while delimiting this one.
    pending: Option<Frame>,
    last_at: Option<u64>,
    pulled: u64,
}

impl<I: Iterator<Item = Result<Frame, String>>> MergeCursor<I> {
    fn new(src: I) -> Result<MergeCursor<I>, String> {
        let mut c = MergeCursor {
            src,
            run: VecDeque::new(),
            pending: None,
            last_at: None,
            pulled: 0,
        };
        c.refill()?;
        Ok(c)
    }

    /// Next frame in source order, enforcing `at` monotonicity.
    fn raw_next(&mut self) -> Result<Option<Frame>, String> {
        let Some(frame) = self.src.next().transpose()? else {
            return Ok(None);
        };
        if let Some(last) = self.last_at.filter(|&last| frame.1 < last) {
            return Err(format!(
                "`at` not monotone at frame {}: {} after {last}",
                self.pulled, frame.1
            ));
        }
        self.last_at = Some(frame.1);
        self.pulled += 1;
        Ok(Some(frame))
    }

    /// Load the next equal-`at` run and key-sort it (no-op if one is
    /// already buffered). `run` is non-empty unless the source is
    /// exhausted.
    fn refill(&mut self) -> Result<(), String> {
        if !self.run.is_empty() {
            return Ok(());
        }
        let first = match self.pending.take() {
            Some(f) => f,
            None => match self.raw_next()? {
                Some(f) => f,
                None => return Ok(()),
            },
        };
        let at = first.1;
        self.run.push_back(first);
        while let Some(f) = self.raw_next()? {
            if f.1 != at {
                self.pending = Some(f);
                break;
            }
            self.run.push_back(f);
        }
        // Stable: equal (at, key) frames keep capture order.
        self.run.make_contiguous().sort_by_key(|f| f.2);
        Ok(())
    }

    fn peek_pos(&self) -> Option<(u64, u64)> {
        self.run.front().map(|&(_, at, key)| (at, key))
    }

    fn advance(&mut self) -> Result<Option<Frame>, String> {
        let cur = self.run.pop_front();
        if cur.is_some() {
            self.refill()?;
        }
        Ok(cur)
    }
}

/// Visit every frame of `sources` in the merged total order (first
/// minimal cursor wins; an equal stamp never spans shards). Returns the
/// merged frame count.
fn merge_sources<I, F>(sources: impl IntoIterator<Item = I>, mut f: F) -> Result<u64, String>
where
    I: Iterator<Item = Result<Frame, String>>,
    F: FnMut(&TraceEvent),
{
    let mut cursors = sources
        .into_iter()
        .map(MergeCursor::new)
        .collect::<Result<Vec<_>, _>>()?;
    let mut merged = 0u64;
    loop {
        let mut best: Option<(u64, u64, usize)> = None;
        for (i, c) in cursors.iter().enumerate() {
            if let Some((at, key)) = c.peek_pos() {
                if best.is_none_or(|(ba, bk, _)| (at, key) < (ba, bk)) {
                    best = Some((at, key, i));
                }
            }
        }
        let Some((_, _, i)) = best else {
            return Ok(merged);
        };
        if let Some((ev, _, _)) = cursors[i].advance()? {
            f(&ev);
            merged += 1;
        }
    }
}

/// Merge per-shard in-memory frame buffers (each a
/// [`crate::FrameBufferSink`]'s `(at, key, event)` entries) and visit
/// each event in the merged order. Returns the merged frame count.
pub fn merge_frame_buffers<F: FnMut(&TraceEvent)>(
    shards: Vec<Vec<(u64, u64, TraceEvent)>>,
    f: F,
) -> Result<u64, String> {
    merge_sources(
        shards
            .into_iter()
            .map(|entries| entries.into_iter().map(|(at, key, ev)| Ok((ev, at, key)))),
        f,
    )
}

/// Merge per-shard segmented captures and visit each event in the
/// merged order, holding one segment plus one equal-`at` run per shard.
/// Returns the merged frame count.
pub fn merge_captures<R: Read + Seek, F: FnMut(&TraceEvent)>(
    shards: Vec<CaptureReader<R>>,
    f: F,
) -> Result<u64, String> {
    merge_sources(shards.into_iter().map(CaptureReader::into_frames), f)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::capture::{CaptureConfig, CaptureWriter};
    use std::io::Cursor;
    use wmsn_util::{NodeId, SplitMix64};

    /// The merge's specification: a plain stable sort on
    /// `(at, key, capture index)` over every shard's frames.
    pub(crate) fn oracle(shards: &[Vec<Frame>]) -> Vec<TraceEvent> {
        let mut all: Vec<(u64, u64, usize, TraceEvent)> = shards
            .iter()
            .flat_map(|s| {
                s.iter()
                    .enumerate()
                    .map(|(i, &(ev, at, key))| (at, key, i, ev))
            })
            .collect();
        all.sort_by_key(|e| (e.0, e.1, e.2));
        all.into_iter().map(|e| e.3).collect()
    }

    fn via_frame_buffers(shards: &[Vec<Frame>]) -> Result<Vec<TraceEvent>, String> {
        let buffers = shards
            .iter()
            .map(|s| s.iter().map(|&(ev, at, key)| (at, key, ev)).collect())
            .collect();
        let mut got = Vec::new();
        merge_frame_buffers(buffers, |ev| got.push(*ev))?;
        Ok(got)
    }

    fn via_captures(
        shards: &[Vec<Frame>],
        segment_frames: usize,
    ) -> Result<Vec<TraceEvent>, String> {
        let readers = shards
            .iter()
            .map(|s| {
                let mut w = CaptureWriter::new(Vec::new(), CaptureConfig { segment_frames })
                    .expect("header");
                for (ev, at, key) in s {
                    w.push(ev, *at, *key).expect("push");
                }
                let (bytes, _) = w.finish().expect("finish");
                CaptureReader::new(Cursor::new(bytes)).expect("open")
            })
            .collect();
        let mut got = Vec::new();
        merge_captures(readers, |ev| got.push(*ev))?;
        Ok(got)
    }

    /// Random `at`-monotone shard streams whose equal-`at` runs carry
    /// key inversions and repeated keys. Keys are disjoint across
    /// shards (`key % shards == shard`), as causal keys are; every
    /// event is distinct (`seq` is a global counter), so an ordering
    /// slip cannot hide behind equal events.
    fn random_shards(rng: &mut SplitMix64) -> Vec<Vec<Frame>> {
        let n_shards = 1 + (rng.next_u64_raw() % 4) as usize;
        let mut seq = 0u64;
        (0..n_shards)
            .map(|shard| {
                let mut at = rng.next_u64_raw() % 3;
                let len = (rng.next_u64_raw() % 120) as usize;
                (0..len)
                    .map(|_| {
                        at += rng.next_u64_raw() % 3 / 2; // long equal-`at` runs
                        let key = (rng.next_u64_raw() % 5) * n_shards as u64 + shard as u64;
                        seq += 1;
                        let ev = TraceEvent::Rx {
                            t: at,
                            seq,
                            node: NodeId(shard as u32),
                        };
                        (ev, at, key)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn both_source_kinds_merge_to_the_stable_sort_oracle() {
        let mut rng = SplitMix64::new(0x5EED_0DE5);
        let mut inverted = 0;
        for case in 0..300 {
            let shards = random_shards(&mut rng);
            inverted += shards
                .iter()
                .filter(|s| s.windows(2).any(|w| (w[1].1, w[1].2) < (w[0].1, w[0].2)))
                .count();
            let want = oracle(&shards);
            assert_eq!(via_frame_buffers(&shards).unwrap(), want, "case {case}");
            let seg = 1 + (rng.next_u64_raw() % 7) as usize;
            assert_eq!(
                via_captures(&shards, seg).unwrap(),
                want,
                "case {case}, {seg}-frame segments"
            );
        }
        assert!(inverted > 100, "the generator must exercise key inversions");
    }

    #[test]
    fn both_source_kinds_reject_an_at_regression() {
        let rx = |t: u64| TraceEvent::Rx {
            t,
            seq: t,
            node: NodeId(1),
        };
        let shards = vec![
            vec![(rx(1), 1, 0), (rx(2), 2, 0)],
            vec![(rx(1), 1, 1), (rx(9), 9, 1), (rx(3), 3, 1)],
        ];
        let e = via_frame_buffers(&shards).unwrap_err();
        assert!(e.contains("`at` not monotone"), "{e}");
        let e = via_captures(&shards, 2).unwrap_err();
        assert!(e.contains("`at` not monotone"), "{e}");
    }
}
