//! The binary trace frame: a fixed-size wire form of [`TraceEvent`].
//!
//! JSONL is the human-facing export; at n=100k a single round emits
//! tens of millions of events and serialising each to a JSON object
//! *on the simulation thread* is the dominant cost of leaving tracing
//! on. The binary frame is the cheap form: every event encodes to
//! exactly [`FRAME_LEN`] bytes at fixed offsets (no varints, no length
//! prefixes), so encoding is a handful of stores and decoding is a
//! handful of loads — cheap enough to run inline on the simulation
//! thread, and compact enough that a capture is ~30–50% the size of
//! its JSONL export.
//!
//! # Frame layout (version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     at   — causal position: sim time of the emitting event
//! 8       8     key  — causal position: event key (node<<32|counter)
//! 16      1     tag  — variant discriminant (the event schema's row number)
//! 17      7     zero padding
//! 24      8     t    — the event's own timestamp (µs)
//! 32      32    variant fields back to back in schema order, then zeros
//! ```
//!
//! The variant fields are the event schema's ([`crate::event`]) in row
//! order: integers and ids little-endian at their natural width, `bool`
//! and the tier/kind/drop-cause enums as one byte (the enum's index in
//! its `ALL` table), `f64` as its IEEE-754 bits, and `Option<NodeId>`
//! as a presence byte followed by a 4-byte id slot (zero when absent).
//!
//! `(at, key)` ride in the frame so a capture names the simulation
//! event each line came from (the event loop's causal order; see
//! [`crate::TraceSink::record_keyed`]). Packing JSONL (which carries
//! neither) stamps `at = t, key = 0`.
//!
//! Decoding is the *exact* inverse of encoding: `decode(encode(ev)) ==
//! ev` bit-for-bit, which is what makes `.wcap`→JSONL conversion
//! byte-identical to what [`crate::JsonlSink`] writes (pinned by the
//! golden test). Frames are also canonical: the decoder rejects any
//! byte the encoder would not have written — non-zero padding, an id
//! under an absent option, bytes after the last field, a flag or enum
//! byte out of range — so every frame it accepts re-encodes to itself.
//!
//! # Capture file format
//!
//! Frames reach disk only inside a segmented `.wcap` capture (see
//! [`crate::capture`]): fixed-size segments of back-to-back frames
//! behind a 16-byte header, indexed by a trailing directory.

use crate::event::{DropCause, Source, TraceEvent, TraceKind, TraceTier, Visit, NAMES};
use wmsn_util::NodeId;

pub use crate::event::TAG_COUNT;

/// Size of one encoded frame, bytes.
pub const FRAME_LEN: usize = 64;

/// The wire tag an event encodes under — the per-variant discriminant
/// the segmented capture index counts by.
#[inline]
pub fn event_tag(ev: &TraceEvent) -> u8 {
    ev.tag()
}

/// Variant name for a wire tag — `Some("tx_start")` for
/// [`event_tag`]'s output, `None` for unknown tags. The names are
/// [`TraceEvent::name`]'s, so index-derived counts key identically to
/// decode-derived ones.
pub fn tag_name(t: u8) -> Option<&'static str> {
    NAMES.get(usize::from(t).wrapping_sub(1)).copied()
}

/// Write cursor over the variant-field region of a frame.
struct Wr<'a>(&'a mut [u8; FRAME_LEN], usize);

impl Wr<'_> {
    #[inline]
    fn put<const N: usize>(&mut self, bytes: [u8; N]) {
        self.0[self.1..self.1 + N].copy_from_slice(&bytes);
        self.1 += N;
    }
}

impl Visit for Wr<'_> {
    fn u8(&mut self, _: &'static str, v: u8) {
        self.put([v]);
    }
    fn u16(&mut self, _: &'static str, v: u16) {
        self.put(v.to_le_bytes());
    }
    fn u32(&mut self, _: &'static str, v: u32) {
        self.put(v.to_le_bytes());
    }
    fn u64(&mut self, _: &'static str, v: u64) {
        self.put(v.to_le_bytes());
    }
    fn f64(&mut self, _: &'static str, v: f64) {
        self.put(v.to_bits().to_le_bytes());
    }
    fn bool(&mut self, _: &'static str, v: bool) {
        self.put([v as u8]);
    }
    fn id(&mut self, _: &'static str, v: NodeId) {
        self.put(v.0.to_le_bytes());
    }
    fn opt_id(&mut self, _: &'static str, v: Option<NodeId>) {
        self.put([v.is_some() as u8]);
        self.put(v.map_or(0, |n| n.0).to_le_bytes());
    }
    fn tier(&mut self, _: &'static str, v: TraceTier) {
        self.put([v.byte()]);
    }
    fn kind(&mut self, _: &'static str, v: TraceKind) {
        self.put([v.byte()]);
    }
    fn cause(&mut self, _: &'static str, v: DropCause) {
        self.put([v.byte()]);
    }
}

/// Read cursor over a frame, mirror of [`Wr`]. A read past the end is
/// an error, not a panic. Its reads are always inlined into the
/// decoder, where each field's offset is a constant: out of line, every
/// field would pay a call and a bounds check.
struct Rd<'a>(&'a [u8; FRAME_LEN], usize);

impl Rd<'_> {
    #[inline(always)]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let bytes = self.0[self.1..]
            .first_chunk::<N>()
            .ok_or("frame field runs past the end of the frame")?;
        self.1 += N;
        Ok(*bytes)
    }

    /// One enum byte, or `bad <what> byte` if it names no variant.
    fn byte_of<E>(&mut self, what: &str, from_byte: fn(u8) -> Option<E>) -> Result<E, String> {
        let [b] = self.take()?;
        from_byte(b).ok_or_else(|| format!("bad {what} byte {b}"))
    }
}

impl Source for Rd<'_> {
    #[inline(always)]
    fn u8(&mut self, _: &'static str) -> Result<u8, String> {
        self.take().map(u8::from_le_bytes)
    }
    #[inline(always)]
    fn u16(&mut self, _: &'static str) -> Result<u16, String> {
        self.take().map(u16::from_le_bytes)
    }
    #[inline(always)]
    fn u32(&mut self, _: &'static str) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }
    #[inline(always)]
    fn u64(&mut self, _: &'static str) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
    }
    #[inline(always)]
    fn f64(&mut self, _: &'static str) -> Result<f64, String> {
        self.take().map(f64::from_le_bytes)
    }
    #[inline(always)]
    fn bool(&mut self, _: &'static str) -> Result<bool, String> {
        self.byte_of("bool", |b| [false, true].get(b as usize).copied())
    }
    #[inline(always)]
    fn id(&mut self, _: &'static str) -> Result<NodeId, String> {
        self.take().map(|b| NodeId(u32::from_le_bytes(b)))
    }
    #[inline(always)]
    fn opt_id(&mut self, name: &'static str) -> Result<Option<NodeId>, String> {
        match (self.u8(name)?, self.id(name)?) {
            (0, NodeId(0)) => Ok(None),
            (0, _) => Err(format!("non-zero id under absent option '{name}'")),
            (1, id) => Ok(Some(id)),
            (other, _) => Err(format!("bad option flag {other}")),
        }
    }
    #[inline(always)]
    fn tier(&mut self, _: &'static str) -> Result<TraceTier, String> {
        self.byte_of("tier", TraceTier::from_byte)
    }
    #[inline(always)]
    fn kind(&mut self, _: &'static str) -> Result<TraceKind, String> {
        self.byte_of("kind", TraceKind::from_byte)
    }
    #[inline(always)]
    fn cause(&mut self, _: &'static str) -> Result<DropCause, String> {
        self.byte_of("drop-cause", DropCause::from_byte)
    }
    #[inline(always)]
    fn end(&mut self) -> Result<(), String> {
        if self.0[self.1..].iter().all(|&b| b == 0) {
            Ok(())
        } else {
            Err("non-zero bytes after the last field".into())
        }
    }
}

/// Encode one event (plus its causal position) into a frame.
pub fn encode_frame(ev: &TraceEvent, at: u64, key: u64) -> [u8; FRAME_LEN] {
    let mut buf = [0u8; FRAME_LEN];
    buf[0..8].copy_from_slice(&at.to_le_bytes());
    buf[8..16].copy_from_slice(&key.to_le_bytes());
    buf[16] = ev.tag();
    buf[24..32].copy_from_slice(&ev.t().to_le_bytes());
    ev.walk(&mut Wr(&mut buf, 32));
    buf
}

/// Decode one frame back into `(event, at, key)` — the exact inverse of
/// [`encode_frame`]. Unknown tags, malformed flag or enum bytes and
/// non-zero bytes where the encoder writes zeros are hard errors, same
/// discipline as the JSONL decoder.
pub fn decode_frame(buf: &[u8; FRAME_LEN]) -> Result<(TraceEvent, u64, u64), String> {
    let mut r = Rd(buf, 0);
    let at = r.u64("at")?;
    let key = r.u64("key")?;
    // The tag byte and the seven zero padding bytes after it.
    let tag_word = r.u64("tag")?;
    if tag_word >> 8 != 0 {
        return Err("non-zero frame padding".into());
    }
    let tag = tag_word as u8;
    let t = r.u64("t")?;
    Ok((TraceEvent::build(tag, t, &mut r)?, at, key))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use wmsn_util::SplitMix64;

    /// One event of every variant, fields chosen to exercise option
    /// presence, enum extremes and float bit-exactness.
    pub(crate) fn exhaustive_events() -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        for (tier, kind) in [
            (TraceTier::Sensor, TraceKind::Control),
            (TraceTier::Sensor, TraceKind::Data),
            (TraceTier::Mesh, TraceKind::Security),
        ] {
            evs.push(TraceEvent::TxStart {
                t: 1,
                seq: (7u64 << 32) | 3,
                src: NodeId(7),
                dst: if kind == TraceKind::Data {
                    None
                } else {
                    Some(NodeId(u32::MAX))
                },
                tier,
                kind,
                bytes: 48,
            });
        }
        evs.push(TraceEvent::TxDefer {
            t: 2,
            src: NodeId(5),
            tier: TraceTier::Sensor,
            attempt: 255,
        });
        evs.push(TraceEvent::TxGiveUp {
            t: 3,
            src: NodeId(5),
            tier: TraceTier::Mesh,
        });
        evs.push(TraceEvent::Rx {
            t: 4,
            seq: 9,
            node: NodeId(6),
        });
        for &cause in DropCause::ALL {
            evs.push(TraceEvent::Drop {
                t: 5,
                seq: u64::MAX,
                node: NodeId(6),
                cause,
            });
        }
        evs.push(TraceEvent::Forward {
            t: 6,
            node: NodeId(7),
            origin: NodeId(1),
            msg_id: 11,
            next: None,
            hops: 2,
        });
        evs.push(TraceEvent::Forward {
            t: 6,
            node: NodeId(7),
            origin: NodeId(1),
            msg_id: 11,
            next: Some(NodeId(0)),
            hops: u32::MAX,
        });
        evs.push(TraceEvent::Deliver {
            t: 7,
            node: NodeId(8),
            origin: NodeId(1),
            msg_id: 11,
            hops: 3,
            latency_us: 1234,
        });
        evs.push(TraceEvent::RreqFlood {
            t: 8,
            node: NodeId(2),
            origin: NodeId(2),
            req_id: 1,
            forwarded: false,
        });
        evs.push(TraceEvent::RreqFlood {
            t: 8,
            node: NodeId(2),
            origin: NodeId(3),
            req_id: 2,
            forwarded: true,
        });
        evs.push(TraceEvent::CacheReply {
            t: 9,
            node: NodeId(3),
            origin: NodeId(2),
            req_id: 1,
            gateway: NodeId(10),
            place: u16::MAX,
        });
        evs.push(TraceEvent::RouteInstall {
            t: 10,
            node: NodeId(3),
            gateway: NodeId(10),
            place: 2,
            hops: 4,
            energy_pm: 1000,
        });
        evs.push(TraceEvent::RouteSelect {
            t: 11,
            node: NodeId(3),
            gateway: NodeId(10),
            place: 2,
            hops: 4,
            energy_pm: 0,
        });
        evs.push(TraceEvent::GatewayMove {
            t: 12,
            gateway: NodeId(10),
            place: 0,
        });
        evs.push(TraceEvent::NodeMove {
            t: 13,
            node: NodeId(4),
            x: -0.0,
            y: f64::MIN_POSITIVE,
        });
        evs.push(TraceEvent::NodeSleep {
            t: 14,
            node: NodeId(4),
        });
        evs.push(TraceEvent::NodeWake {
            t: 15,
            node: NodeId(4),
        });
        evs.push(TraceEvent::NodeKill {
            t: u64::MAX,
            node: NodeId(4),
        });
        evs.push(TraceEvent::Energy {
            t: 17,
            node: NodeId(4),
            consumed_j: 0.1 + 0.2, // a value with no short decimal form
        });
        evs
    }

    /// The wire forms pinned before the schema was written once: the
    /// JSONL line and the 64-byte frame (at `42 + i`, key `3<<32 | i`)
    /// of every [`exhaustive_events`] entry, tab-separated, one per
    /// line. Both codecs must reproduce and accept these bytes exactly.
    #[test]
    fn wire_forms_match_the_pinned_golden() {
        let golden = include_str!("../tests/golden/wire_forms.txt");
        let events = exhaustive_events();
        assert_eq!(golden.lines().count(), events.len());
        for (i, (ev, line)) in events.iter().zip(golden.lines()).enumerate() {
            let (json, hex) = line.split_once('\t').expect("tab-separated golden line");
            let (at, key) = (42 + i as u64, (3u64 << 32) | i as u64);
            let frame = encode_frame(ev, at, key);
            let got: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(ev.to_json().to_string(), json, "JSONL of event {i}");
            assert_eq!(got, hex, "frame of event {i}");
            assert_eq!(
                TraceEvent::from_json_line(json).as_ref(),
                Ok(ev),
                "event {i}"
            );
            assert_eq!(decode_frame(&frame), Ok((*ev, at, key)), "event {i}");
        }
        assert_eq!(tag_name(0), None);
        assert_eq!(tag_name(TAG_COUNT as u8 + 1), None);
    }

    /// Frames are canonical: every single-byte change to every
    /// exhaustive frame, and seeded multi-byte changes on top, either
    /// fail to decode or decode to an event that re-encodes to exactly
    /// the changed bytes. Nothing the decoder accepts is lost on a
    /// round trip, and no input makes it panic.
    #[test]
    fn mutated_frames_are_rejected_or_round_trip_bit_exactly() {
        let canonical = |frame: &[u8; FRAME_LEN]| match decode_frame(frame) {
            Ok((ev, at, key)) => assert_eq!(&encode_frame(&ev, at, key), frame, "{ev:?}"),
            Err(e) => assert!(!e.is_empty()),
        };
        let mut rng = SplitMix64::new(0xC0DE);
        for (i, ev) in exhaustive_events().iter().enumerate() {
            let frame = encode_frame(ev, 42 + i as u64, (3u64 << 32) | i as u64);
            for pos in 0..FRAME_LEN {
                for byte in 0..=u8::MAX {
                    let mut bad = frame;
                    bad[pos] = byte;
                    canonical(&bad);
                }
            }
            for _ in 0..2000 {
                let mut bad = frame;
                for _ in 0..1 + rng.next_u64_raw() % 4 {
                    let pos = (rng.next_u64_raw() % FRAME_LEN as u64) as usize;
                    bad[pos] = rng.next_u64_raw() as u8;
                }
                canonical(&bad);
            }
        }
    }

    #[test]
    fn every_variant_round_trips_bit_exactly() {
        for (i, ev) in exhaustive_events().into_iter().enumerate() {
            let frame = encode_frame(&ev, 42 + i as u64, (3u64 << 32) | i as u64);
            let (back, at, key) = decode_frame(&frame).expect("decode");
            assert_eq!(back, ev, "event {i}");
            assert_eq!(at, 42 + i as u64);
            assert_eq!(key, (3u64 << 32) | i as u64);
        }
    }

    #[test]
    fn random_events_round_trip_through_frame_and_jsonl_agree() {
        // Property: for a pseudorandom population of events, frame
        // round-trip is identity AND the JSONL rendering of the decoded
        // event is byte-identical to the original's — the conversion
        // parity the `convert` subcommand relies on.
        let mut rng = SplitMix64::new(0xF00D);
        for i in 0..2000 {
            let ev = random_event(&mut rng);
            let (back, _, _) = decode_frame(&encode_frame(&ev, i, i)).expect("decode");
            assert_eq!(back, ev, "iteration {i}");
            assert_eq!(
                back.to_json().to_string(),
                ev.to_json().to_string(),
                "iteration {i}"
            );
        }
    }

    fn random_event(rng: &mut SplitMix64) -> TraceEvent {
        let t = rng.next_u64_raw() >> 20;
        let node = NodeId(rng.next_u64_raw() as u32 >> 12);
        let origin = NodeId(rng.next_u64_raw() as u32 >> 12);
        let opt = |rng: &mut SplitMix64| {
            if rng.next_u64_raw() & 1 == 0 {
                None
            } else {
                Some(NodeId(rng.next_u64_raw() as u32 >> 12))
            }
        };
        match rng.next_u64_raw() % 17 {
            0 => TraceEvent::TxStart {
                t,
                seq: rng.next_u64_raw(),
                src: node,
                dst: opt(rng),
                tier: if rng.next_u64_raw() & 1 == 0 {
                    TraceTier::Sensor
                } else {
                    TraceTier::Mesh
                },
                kind: match rng.next_u64_raw() % 3 {
                    0 => TraceKind::Control,
                    1 => TraceKind::Data,
                    _ => TraceKind::Security,
                },
                bytes: rng.next_u64_raw() as u32 >> 16,
            },
            1 => TraceEvent::TxDefer {
                t,
                src: node,
                tier: TraceTier::Sensor,
                attempt: rng.next_u64_raw() as u8,
            },
            2 => TraceEvent::TxGiveUp {
                t,
                src: node,
                tier: TraceTier::Mesh,
            },
            3 => TraceEvent::Rx {
                t,
                seq: rng.next_u64_raw(),
                node,
            },
            4 => TraceEvent::Drop {
                t,
                seq: rng.next_u64_raw(),
                node,
                cause: DropCause::ALL[(rng.next_u64_raw() % 5) as usize],
            },
            5 => TraceEvent::Forward {
                t,
                node,
                origin,
                msg_id: rng.next_u64_raw(),
                next: opt(rng),
                hops: rng.next_u64_raw() as u32 >> 8,
            },
            6 => TraceEvent::Deliver {
                t,
                node,
                origin,
                msg_id: rng.next_u64_raw(),
                hops: rng.next_u64_raw() as u32 >> 8,
                latency_us: rng.next_u64_raw() >> 10,
            },
            7 => TraceEvent::RreqFlood {
                t,
                node,
                origin,
                req_id: rng.next_u64_raw(),
                forwarded: rng.next_u64_raw() & 1 == 1,
            },
            8 => TraceEvent::CacheReply {
                t,
                node,
                origin,
                req_id: rng.next_u64_raw(),
                gateway: NodeId(rng.next_u64_raw() as u32 >> 12),
                place: rng.next_u64_raw() as u16,
            },
            9 => TraceEvent::RouteInstall {
                t,
                node,
                gateway: NodeId(rng.next_u64_raw() as u32 >> 12),
                place: rng.next_u64_raw() as u16,
                hops: rng.next_u64_raw() as u32 >> 8,
                energy_pm: rng.next_u64_raw() as u16,
            },
            10 => TraceEvent::RouteSelect {
                t,
                node,
                gateway: NodeId(rng.next_u64_raw() as u32 >> 12),
                place: rng.next_u64_raw() as u16,
                hops: rng.next_u64_raw() as u32 >> 8,
                energy_pm: rng.next_u64_raw() as u16,
            },
            11 => TraceEvent::GatewayMove {
                t,
                gateway: node,
                place: rng.next_u64_raw() as u16,
            },
            12 => TraceEvent::NodeMove {
                t,
                node,
                x: f64::from_bits(rng.next_u64_raw() >> 2), // finite
                y: -(rng.next_u64_raw() as f64 / 1e6),
            },
            13 => TraceEvent::NodeSleep { t, node },
            14 => TraceEvent::NodeWake { t, node },
            15 => TraceEvent::NodeKill { t, node },
            _ => TraceEvent::Energy {
                t,
                node,
                consumed_j: rng.next_u64_raw() as f64 / 1e9,
            },
        }
    }

    #[test]
    fn corrupt_frames_are_hard_decode_errors() {
        let frame = encode_frame(
            &TraceEvent::Drop {
                t: 5,
                seq: 9,
                node: NodeId(6),
                cause: DropCause::Loss,
            },
            5,
            0,
        );
        assert!(decode_frame(&frame).is_ok());
        // Unknown tag.
        let mut bad = frame;
        bad[16] = 200;
        assert!(decode_frame(&bad)
            .unwrap_err()
            .contains("unknown frame tag"));
        // Out-of-range enum byte (the drop cause sits after seq + node).
        let mut bad = frame;
        bad[32 + 8 + 4] = 99;
        assert!(decode_frame(&bad).unwrap_err().contains("bad drop-cause"));
        // Option presence flags are 0 or 1, nothing else.
        let fwd = encode_frame(
            &TraceEvent::Forward {
                t: 1,
                node: NodeId(1),
                origin: NodeId(2),
                msg_id: 3,
                next: None,
                hops: 1,
            },
            1,
            0,
        );
        let mut bad = fwd;
        bad[32 + 4 + 4 + 8] = 2;
        assert!(decode_frame(&bad).unwrap_err().contains("bad option flag"));
        // Bytes the encoder writes as zero must read as zero: the id
        // slot under an absent option, the padding after the tag, and
        // the tail after the last field.
        for (pos, what) in [
            (32 + 4 + 4 + 8 + 1, "absent option"),
            (17, "padding"),
            (23, "padding"),
            (32 + 4 + 4 + 8 + 5 + 4, "after the last field"),
            (FRAME_LEN - 1, "after the last field"),
        ] {
            let mut bad = fwd;
            bad[pos] = 1;
            let err = decode_frame(&bad).unwrap_err();
            assert!(err.contains(what), "byte {pos}: {err}");
        }
    }
}
