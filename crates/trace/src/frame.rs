//! The binary trace frame: a fixed-size wire form of [`TraceEvent`].
//!
//! JSONL is the human-facing export; at n=100k a single round emits
//! tens of millions of events and serialising each to a JSON object
//! *on the simulation thread* is the dominant cost of leaving tracing
//! on. The binary frame is the cheap form: every event encodes to
//! exactly [`FRAME_LEN`] bytes at fixed offsets (no varints, no length
//! prefixes), so encoding is a handful of stores and decoding is a
//! handful of loads — cheap enough for the ring pipeline's drain
//! thread and compact enough that a capture is ~30–50% the size of
//! its JSONL export.
//!
//! # Frame layout (version 1, little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     at   — causal merge position: sim time of the emitting event
//! 8       8     key  — causal merge position: event key (node<<32|counter)
//! 16      1     tag  — variant discriminant (see `tag` consts)
//! 17      7     zero padding
//! 24      8     t    — the event's own timestamp (µs)
//! 32      32    variant fields at fixed offsets, zero-padded
//! ```
//!
//! `(at, key)` ride in the frame so per-shard capture streams can be
//! merged back into reference emission order (see [`crate::merge`]).
//! Packing JSONL (which carries neither) stamps `at = t, key = 0`.
//!
//! `Option<NodeId>` fields use a presence byte rather than a sentinel
//! id, f64 fields are stored as IEEE-754 bits (`to_bits`), so decoding
//! is the *exact* inverse of encoding: `decode(encode(ev)) == ev`
//! bit-for-bit, which is what makes `.wcap`→JSONL conversion
//! byte-identical to what [`crate::JsonlSink`] writes (pinned by the
//! golden test).
//!
//! # Capture file format
//!
//! Frames reach disk only inside a segmented `.wcap` capture (see
//! [`crate::capture`]): fixed-size segments of back-to-back frames
//! behind a 16-byte header, indexed by a trailing directory.

use crate::event::{DropCause, TraceEvent, TraceKind, TraceTier};
use wmsn_util::NodeId;

/// Size of one encoded frame, bytes.
pub const FRAME_LEN: usize = 64;

/// Number of distinct frame tags (tags are `1..=TAG_COUNT`).
pub const TAG_COUNT: usize = 17;

/// Variant discriminants. Stable wire values — append, never renumber.
mod tag {
    pub const TX_START: u8 = 1;
    pub const TX_DEFER: u8 = 2;
    pub const TX_GIVEUP: u8 = 3;
    pub const RX: u8 = 4;
    pub const DROP: u8 = 5;
    pub const FORWARD: u8 = 6;
    pub const DELIVER: u8 = 7;
    pub const RREQ_FLOOD: u8 = 8;
    pub const CACHE_REPLY: u8 = 9;
    pub const ROUTE_INSTALL: u8 = 10;
    pub const ROUTE_SELECT: u8 = 11;
    pub const GATEWAY_MOVE: u8 = 12;
    pub const NODE_MOVE: u8 = 13;
    pub const NODE_SLEEP: u8 = 14;
    pub const NODE_WAKE: u8 = 15;
    pub const NODE_KILL: u8 = 16;
    pub const ENERGY: u8 = 17;
}

/// The wire tag an event encodes under — the per-variant discriminant
/// the segmented capture index counts by. Kept in lockstep with
/// [`encode_frame`] (pinned by a test).
pub fn event_tag(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::TxStart { .. } => tag::TX_START,
        TraceEvent::TxDefer { .. } => tag::TX_DEFER,
        TraceEvent::TxGiveUp { .. } => tag::TX_GIVEUP,
        TraceEvent::Rx { .. } => tag::RX,
        TraceEvent::Drop { .. } => tag::DROP,
        TraceEvent::Forward { .. } => tag::FORWARD,
        TraceEvent::Deliver { .. } => tag::DELIVER,
        TraceEvent::RreqFlood { .. } => tag::RREQ_FLOOD,
        TraceEvent::CacheReply { .. } => tag::CACHE_REPLY,
        TraceEvent::RouteInstall { .. } => tag::ROUTE_INSTALL,
        TraceEvent::RouteSelect { .. } => tag::ROUTE_SELECT,
        TraceEvent::GatewayMove { .. } => tag::GATEWAY_MOVE,
        TraceEvent::NodeMove { .. } => tag::NODE_MOVE,
        TraceEvent::NodeSleep { .. } => tag::NODE_SLEEP,
        TraceEvent::NodeWake { .. } => tag::NODE_WAKE,
        TraceEvent::NodeKill { .. } => tag::NODE_KILL,
        TraceEvent::Energy { .. } => tag::ENERGY,
    }
}

/// Variant name for a wire tag — `Some("tx_start")` for
/// [`event_tag`]'s output, `None` for unknown tags. The names match
/// [`TraceEvent::name`], so index-derived counts key identically to
/// decode-derived ones.
pub fn tag_name(t: u8) -> Option<&'static str> {
    Some(match t {
        tag::TX_START => "tx_start",
        tag::TX_DEFER => "tx_defer",
        tag::TX_GIVEUP => "tx_giveup",
        tag::RX => "rx",
        tag::DROP => "drop",
        tag::FORWARD => "forward",
        tag::DELIVER => "deliver",
        tag::RREQ_FLOOD => "rreq_flood",
        tag::CACHE_REPLY => "cache_reply",
        tag::ROUTE_INSTALL => "route_install",
        tag::ROUTE_SELECT => "route_select",
        tag::GATEWAY_MOVE => "gateway_move",
        tag::NODE_MOVE => "node_move",
        tag::NODE_SLEEP => "node_sleep",
        tag::NODE_WAKE => "node_wake",
        tag::NODE_KILL => "node_kill",
        tag::ENERGY => "energy",
        _ => return None,
    })
}

fn tier_byte(t: TraceTier) -> u8 {
    match t {
        TraceTier::Sensor => 0,
        TraceTier::Mesh => 1,
    }
}

fn tier_of(b: u8) -> Result<TraceTier, String> {
    match b {
        0 => Ok(TraceTier::Sensor),
        1 => Ok(TraceTier::Mesh),
        other => Err(format!("bad tier byte {other}")),
    }
}

fn kind_byte(k: TraceKind) -> u8 {
    match k {
        TraceKind::Control => 0,
        TraceKind::Data => 1,
        TraceKind::Security => 2,
    }
}

fn kind_of(b: u8) -> Result<TraceKind, String> {
    match b {
        0 => Ok(TraceKind::Control),
        1 => Ok(TraceKind::Data),
        2 => Ok(TraceKind::Security),
        other => Err(format!("bad kind byte {other}")),
    }
}

fn cause_byte(c: DropCause) -> u8 {
    match c {
        DropCause::Collision => 0,
        DropCause::Loss => 1,
        DropCause::Dead => 2,
        DropCause::OutOfRange => 3,
        DropCause::Energy => 4,
    }
}

fn cause_of(b: u8) -> Result<DropCause, String> {
    match b {
        0 => Ok(DropCause::Collision),
        1 => Ok(DropCause::Loss),
        2 => Ok(DropCause::Dead),
        3 => Ok(DropCause::OutOfRange),
        4 => Ok(DropCause::Energy),
        other => Err(format!("bad drop-cause byte {other}")),
    }
}

/// Little write cursor over the fixed variant-field region.
struct Wr<'a>(&'a mut [u8; FRAME_LEN], usize);

impl Wr<'_> {
    fn u8(&mut self, v: u8) {
        self.0[self.1] = v;
        self.1 += 1;
    }
    fn u16(&mut self, v: u16) {
        self.0[self.1..self.1 + 2].copy_from_slice(&v.to_le_bytes());
        self.1 += 2;
    }
    fn u32(&mut self, v: u32) {
        self.0[self.1..self.1 + 4].copy_from_slice(&v.to_le_bytes());
        self.1 += 4;
    }
    fn u64(&mut self, v: u64) {
        self.0[self.1..self.1 + 8].copy_from_slice(&v.to_le_bytes());
        self.1 += 8;
    }
    fn id(&mut self, n: NodeId) {
        self.u32(n.0);
    }
    fn opt_id(&mut self, n: Option<NodeId>) {
        match n {
            Some(n) => {
                self.u8(1);
                self.id(n);
            }
            None => {
                self.u8(0);
                self.u32(0);
            }
        }
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// Read cursor, mirror of [`Wr`].
struct Rd<'a>(&'a [u8; FRAME_LEN], usize);

impl Rd<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.0[self.1];
        self.1 += 1;
        v
    }
    fn u16(&mut self) -> u16 {
        let v = u16::from_le_bytes(self.0[self.1..self.1 + 2].try_into().unwrap());
        self.1 += 2;
        v
    }
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.0[self.1..self.1 + 4].try_into().unwrap());
        self.1 += 4;
        v
    }
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.0[self.1..self.1 + 8].try_into().unwrap());
        self.1 += 8;
        v
    }
    fn id(&mut self) -> NodeId {
        NodeId(self.u32())
    }
    fn opt_id(&mut self) -> Result<Option<NodeId>, String> {
        let flag = self.u8();
        let raw = self.u32();
        match flag {
            0 => Ok(None),
            1 => Ok(Some(NodeId(raw))),
            other => Err(format!("bad option flag {other}")),
        }
    }
    fn f64(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }
}

/// Encode one event (plus its causal merge position) into a frame.
pub fn encode_frame(ev: &TraceEvent, at: u64, key: u64) -> [u8; FRAME_LEN] {
    let mut buf = [0u8; FRAME_LEN];
    buf[0..8].copy_from_slice(&at.to_le_bytes());
    buf[8..16].copy_from_slice(&key.to_le_bytes());
    buf[24..32].copy_from_slice(&ev.t().to_le_bytes());
    let (tag, mut w) = (16usize, Wr(&mut buf, 32));
    let t = match *ev {
        TraceEvent::TxStart {
            seq,
            src,
            dst,
            tier,
            kind,
            bytes,
            ..
        } => {
            w.u64(seq);
            w.id(src);
            w.opt_id(dst);
            w.u8(tier_byte(tier));
            w.u8(kind_byte(kind));
            w.u32(bytes);
            tag::TX_START
        }
        TraceEvent::TxDefer {
            src, tier, attempt, ..
        } => {
            w.id(src);
            w.u8(tier_byte(tier));
            w.u8(attempt);
            tag::TX_DEFER
        }
        TraceEvent::TxGiveUp { src, tier, .. } => {
            w.id(src);
            w.u8(tier_byte(tier));
            tag::TX_GIVEUP
        }
        TraceEvent::Rx { seq, node, .. } => {
            w.u64(seq);
            w.id(node);
            tag::RX
        }
        TraceEvent::Drop {
            seq, node, cause, ..
        } => {
            w.u64(seq);
            w.id(node);
            w.u8(cause_byte(cause));
            tag::DROP
        }
        TraceEvent::Forward {
            node,
            origin,
            msg_id,
            next,
            hops,
            ..
        } => {
            w.id(node);
            w.id(origin);
            w.u64(msg_id);
            w.opt_id(next);
            w.u32(hops);
            tag::FORWARD
        }
        TraceEvent::Deliver {
            node,
            origin,
            msg_id,
            hops,
            latency_us,
            ..
        } => {
            w.id(node);
            w.id(origin);
            w.u64(msg_id);
            w.u32(hops);
            w.u64(latency_us);
            tag::DELIVER
        }
        TraceEvent::RreqFlood {
            node,
            origin,
            req_id,
            forwarded,
            ..
        } => {
            w.id(node);
            w.id(origin);
            w.u64(req_id);
            w.u8(forwarded as u8);
            tag::RREQ_FLOOD
        }
        TraceEvent::CacheReply {
            node,
            origin,
            req_id,
            gateway,
            place,
            ..
        } => {
            w.id(node);
            w.id(origin);
            w.u64(req_id);
            w.id(gateway);
            w.u16(place);
            tag::CACHE_REPLY
        }
        TraceEvent::RouteInstall {
            node,
            gateway,
            place,
            hops,
            energy_pm,
            ..
        } => {
            w.id(node);
            w.id(gateway);
            w.u16(place);
            w.u32(hops);
            w.u16(energy_pm);
            tag::ROUTE_INSTALL
        }
        TraceEvent::RouteSelect {
            node,
            gateway,
            place,
            hops,
            energy_pm,
            ..
        } => {
            w.id(node);
            w.id(gateway);
            w.u16(place);
            w.u32(hops);
            w.u16(energy_pm);
            tag::ROUTE_SELECT
        }
        TraceEvent::GatewayMove { gateway, place, .. } => {
            w.id(gateway);
            w.u16(place);
            tag::GATEWAY_MOVE
        }
        TraceEvent::NodeMove { node, x, y, .. } => {
            w.id(node);
            w.f64(x);
            w.f64(y);
            tag::NODE_MOVE
        }
        TraceEvent::NodeSleep { node, .. } => {
            w.id(node);
            tag::NODE_SLEEP
        }
        TraceEvent::NodeWake { node, .. } => {
            w.id(node);
            tag::NODE_WAKE
        }
        TraceEvent::NodeKill { node, .. } => {
            w.id(node);
            tag::NODE_KILL
        }
        TraceEvent::Energy {
            node, consumed_j, ..
        } => {
            w.id(node);
            w.f64(consumed_j);
            tag::ENERGY
        }
    };
    buf[tag] = t;
    buf
}

/// Decode one frame back into `(event, at, key)` — the exact inverse of
/// [`encode_frame`]. Unknown tags and malformed enum bytes are hard
/// errors, same discipline as the JSONL decoder.
pub fn decode_frame(buf: &[u8; FRAME_LEN]) -> Result<(TraceEvent, u64, u64), String> {
    let at = u64::from_le_bytes(buf[0..8].try_into().unwrap());
    let key = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    let t = u64::from_le_bytes(buf[24..32].try_into().unwrap());
    let mut r = Rd(buf, 32);
    let ev = match buf[16] {
        tag::TX_START => {
            let seq = r.u64();
            let src = r.id();
            let dst = r.opt_id()?;
            let tier = tier_of(r.u8())?;
            let kind = kind_of(r.u8())?;
            let bytes = r.u32();
            TraceEvent::TxStart {
                t,
                seq,
                src,
                dst,
                tier,
                kind,
                bytes,
            }
        }
        tag::TX_DEFER => {
            let src = r.id();
            let tier = tier_of(r.u8())?;
            let attempt = r.u8();
            TraceEvent::TxDefer {
                t,
                src,
                tier,
                attempt,
            }
        }
        tag::TX_GIVEUP => {
            let src = r.id();
            let tier = tier_of(r.u8())?;
            TraceEvent::TxGiveUp { t, src, tier }
        }
        tag::RX => {
            let seq = r.u64();
            let node = r.id();
            TraceEvent::Rx { t, seq, node }
        }
        tag::DROP => {
            let seq = r.u64();
            let node = r.id();
            let cause = cause_of(r.u8())?;
            TraceEvent::Drop {
                t,
                seq,
                node,
                cause,
            }
        }
        tag::FORWARD => {
            let node = r.id();
            let origin = r.id();
            let msg_id = r.u64();
            let next = r.opt_id()?;
            let hops = r.u32();
            TraceEvent::Forward {
                t,
                node,
                origin,
                msg_id,
                next,
                hops,
            }
        }
        tag::DELIVER => {
            let node = r.id();
            let origin = r.id();
            let msg_id = r.u64();
            let hops = r.u32();
            let latency_us = r.u64();
            TraceEvent::Deliver {
                t,
                node,
                origin,
                msg_id,
                hops,
                latency_us,
            }
        }
        tag::RREQ_FLOOD => {
            let node = r.id();
            let origin = r.id();
            let req_id = r.u64();
            let forwarded = match r.u8() {
                0 => false,
                1 => true,
                other => return Err(format!("bad bool byte {other}")),
            };
            TraceEvent::RreqFlood {
                t,
                node,
                origin,
                req_id,
                forwarded,
            }
        }
        tag::CACHE_REPLY => {
            let node = r.id();
            let origin = r.id();
            let req_id = r.u64();
            let gateway = r.id();
            let place = r.u16();
            TraceEvent::CacheReply {
                t,
                node,
                origin,
                req_id,
                gateway,
                place,
            }
        }
        tag::ROUTE_INSTALL => {
            let node = r.id();
            let gateway = r.id();
            let place = r.u16();
            let hops = r.u32();
            let energy_pm = r.u16();
            TraceEvent::RouteInstall {
                t,
                node,
                gateway,
                place,
                hops,
                energy_pm,
            }
        }
        tag::ROUTE_SELECT => {
            let node = r.id();
            let gateway = r.id();
            let place = r.u16();
            let hops = r.u32();
            let energy_pm = r.u16();
            TraceEvent::RouteSelect {
                t,
                node,
                gateway,
                place,
                hops,
                energy_pm,
            }
        }
        tag::GATEWAY_MOVE => {
            let gateway = r.id();
            let place = r.u16();
            TraceEvent::GatewayMove { t, gateway, place }
        }
        tag::NODE_MOVE => {
            let node = r.id();
            let x = r.f64();
            let y = r.f64();
            TraceEvent::NodeMove { t, node, x, y }
        }
        tag::NODE_SLEEP => TraceEvent::NodeSleep { t, node: r.id() },
        tag::NODE_WAKE => TraceEvent::NodeWake { t, node: r.id() },
        tag::NODE_KILL => TraceEvent::NodeKill { t, node: r.id() },
        tag::ENERGY => {
            let node = r.id();
            let consumed_j = r.f64();
            TraceEvent::Energy {
                t,
                node,
                consumed_j,
            }
        }
        other => return Err(format!("unknown frame tag {other}")),
    };
    Ok((ev, at, key))
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
        for cause in [
            DropCause::Collision,
            DropCause::Loss,
            DropCause::Dead,
            DropCause::OutOfRange,
            DropCause::Energy,
        ] {
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

    #[test]
    fn event_tag_matches_encoded_discriminant() {
        for ev in exhaustive_events() {
            let frame = encode_frame(&ev, 0, 0);
            assert_eq!(frame[16], event_tag(&ev), "{}", ev.name());
            assert_eq!(tag_name(event_tag(&ev)), Some(ev.name()));
            assert!((event_tag(&ev) as usize) <= TAG_COUNT);
        }
        assert_eq!(tag_name(0), None);
        assert_eq!(tag_name(TAG_COUNT as u8 + 1), None);
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
                cause: cause_of((rng.next_u64_raw() % 5) as u8).unwrap(),
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
        let mut fwd = encode_frame(
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
        fwd[32 + 4 + 4 + 8] = 2;
        assert!(decode_frame(&fwd).unwrap_err().contains("bad option flag"));
    }
}
