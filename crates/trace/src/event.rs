//! The structured event model and its one schema.
//!
//! One [`TraceEvent`] per observable simulator fact. Events are small
//! `Copy` values — no heap allocation happens on the emitting side —
//! and every variant carries the simulation time `t` (microseconds) as
//! its first field.
//!
//! Each variant's wire fields are written once, in the `schema!` table
//! below: its tag, its name, and its fields in wire order with their
//! types. The table generates `TraceEvent::walk` (visit the fields of
//! an event) and `TraceEvent::build` (construct a variant from a field
//! source); the JSONL codec here, the frame codec in [`crate::frame`]
//! and the capture's node index are a `Visit` or a `Source` over those
//! two, so a new variant or field is one table row, not a change to
//! every codec.

use crate::parse::Value;
use wmsn_util::json::Json;
use wmsn_util::NodeId;

/// Defines a fieldless enum together with its string names. A
/// variant's index in `ALL` is its wire byte (frames, checkpoints) and
/// its name is its JSONL form; both follow from the declaration order.
macro_rules! wire_enum {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $v:ident = $s:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $v,)+
        }

        impl $name {
            /// Every variant, indexed by its wire byte.
            pub const ALL: &'static [$name] = &[$($name::$v),+];
            const NAMES: &'static [&'static str] = &[$($s),+];

            /// Stable string form used in JSONL output.
            pub fn as_str(self) -> &'static str {
                Self::NAMES[self as usize]
            }

            /// Inverse of [`Self::as_str`].
            pub fn from_name(s: &str) -> Option<$name> {
                Self::NAMES.iter().position(|&n| n == s).map(|i| Self::ALL[i])
            }

            /// Wire byte: the variant's index in [`Self::ALL`].
            #[inline]
            pub fn byte(self) -> u8 {
                self as u8
            }

            /// Inverse of [`Self::byte`].
            #[inline]
            pub fn from_byte(b: u8) -> Option<$name> {
                Self::ALL.get(b as usize).copied()
            }
        }
    };
}

wire_enum! {
    /// Radio tier of a traced frame. Mirrors the simulator's `Tier`
    /// without depending on it (the sim crate depends on this crate, not
    /// the other way round).
    TraceTier {
        /// Low-power sensor tier (ZigBee-class).
        Sensor = "sensor",
        /// Mesh backbone tier (WiFi-class).
        Mesh = "mesh",
    }
}

wire_enum! {
    /// Frame kind of a traced transmission. Mirrors the simulator's
    /// `PacketKind`.
    TraceKind {
        /// Routing-control frame.
        Control = "control",
        /// Application data frame.
        Data = "data",
        /// Security-protocol frame.
        Security = "security",
    }
}

wire_enum! {
    /// Why a scheduled reception never reached the behaviour.
    DropCause {
        /// Overlapping airtime at the receiver (collision model).
        Collision = "collision",
        /// Random medium loss.
        Loss = "loss",
        /// Receiver was dead (or asleep) at arrival time.
        Dead = "dead",
        /// Unicast link destination was outside the sender's radio range.
        OutOfRange = "out_of_range",
        /// Receiver's battery died paying the receive cost.
        Energy = "energy",
    }
}

/// One structured simulator event. All variants are `Copy`; times are
/// simulation microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A frame left the antenna.
    TxStart {
        /// Simulation time.
        t: u64,
        /// World-unique frame sequence number.
        seq: u64,
        /// Transmitting node.
        src: NodeId,
        /// Link-layer destination (`None` = broadcast).
        dst: Option<NodeId>,
        /// Radio tier.
        tier: TraceTier,
        /// Frame kind.
        kind: TraceKind,
        /// On-air size in bytes.
        bytes: u32,
    },
    /// CSMA found the channel busy; the frame was re-enqueued with
    /// backoff (the lifecycle "enqueue" event).
    TxDefer {
        /// Simulation time.
        t: u64,
        /// Deferring node.
        src: NodeId,
        /// Radio tier.
        tier: TraceTier,
        /// Backoff attempt number (0-based).
        attempt: u8,
    },
    /// CSMA exhausted its backoff attempts; the frame was abandoned
    /// before ever getting a sequence number.
    TxGiveUp {
        /// Simulation time.
        t: u64,
        /// Abandoning node.
        src: NodeId,
        /// Radio tier.
        tier: TraceTier,
    },
    /// A frame was received intact and passed to the behaviour.
    Rx {
        /// Simulation time.
        t: u64,
        /// Frame sequence number.
        seq: u64,
        /// Receiving node.
        node: NodeId,
    },
    /// A scheduled reception was dropped.
    Drop {
        /// Simulation time.
        t: u64,
        /// Frame sequence number.
        seq: u64,
        /// Would-be receiver.
        node: NodeId,
        /// Why it was dropped.
        cause: DropCause,
    },
    /// A protocol forwarded (or originated, `hops == 1`) an application
    /// message.
    Forward {
        /// Simulation time.
        t: u64,
        /// Forwarding node.
        node: NodeId,
        /// Message originator.
        origin: NodeId,
        /// Application message id.
        msg_id: u64,
        /// Next hop (`None` = broadcast / unknown).
        next: Option<NodeId>,
        /// Hop count after this transmission.
        hops: u32,
    },
    /// An application message reached its final destination.
    Deliver {
        /// Simulation time.
        t: u64,
        /// Destination node.
        node: NodeId,
        /// Message originator.
        origin: NodeId,
        /// Application message id.
        msg_id: u64,
        /// Radio hops traversed.
        hops: u32,
        /// End-to-end latency in microseconds.
        latency_us: u64,
    },
    /// SPR/MLR route discovery: an RREQ was originated
    /// (`forwarded == false`) or re-flooded (`forwarded == true`).
    RreqFlood {
        /// Simulation time.
        t: u64,
        /// Flooding node.
        node: NodeId,
        /// Discovery originator.
        origin: NodeId,
        /// Request id (per-originator).
        req_id: u64,
        /// Whether this is a relay of someone else's RREQ.
        forwarded: bool,
    },
    /// A cached route answered an RREQ without reaching a gateway —
    /// the paper's §5.2 optimisation.
    CacheReply {
        /// Simulation time.
        t: u64,
        /// Answering node.
        node: NodeId,
        /// Discovery originator.
        origin: NodeId,
        /// Request id.
        req_id: u64,
        /// Gateway the cached route leads to.
        gateway: NodeId,
        /// Gateway place index.
        place: u16,
    },
    /// A route was installed (RREP accepted into the routing table).
    RouteInstall {
        /// Simulation time.
        t: u64,
        /// Installing node.
        node: NodeId,
        /// Route's gateway.
        gateway: NodeId,
        /// Gateway place index.
        place: u16,
        /// Route length in hops.
        hops: u32,
        /// Bottleneck residual energy (per-mille) along the route —
        /// the MLR term that justifies the choice.
        energy_pm: u16,
    },
    /// MLR picked a route for a data message; the recorded terms are
    /// the ones the selection policy weighed.
    RouteSelect {
        /// Simulation time.
        t: u64,
        /// Selecting node.
        node: NodeId,
        /// Chosen gateway.
        gateway: NodeId,
        /// Chosen place index.
        place: u16,
        /// Route length in hops.
        hops: u32,
        /// Bottleneck residual energy (per-mille).
        energy_pm: u16,
    },
    /// A gateway occupied a (new) place at a round boundary.
    GatewayMove {
        /// Simulation time.
        t: u64,
        /// Moving gateway.
        gateway: NodeId,
        /// New place index.
        place: u16,
    },
    /// A node's position changed.
    NodeMove {
        /// Simulation time.
        t: u64,
        /// Moved node.
        node: NodeId,
        /// New x coordinate (metres).
        x: f64,
        /// New y coordinate (metres).
        y: f64,
    },
    /// A node's radio was put to sleep.
    NodeSleep {
        /// Simulation time.
        t: u64,
        /// Sleeping node.
        node: NodeId,
    },
    /// A node was woken (or revived).
    NodeWake {
        /// Simulation time.
        t: u64,
        /// Woken node.
        node: NodeId,
    },
    /// A node was killed (battery drain or fault injection).
    NodeKill {
        /// Simulation time.
        t: u64,
        /// Killed node.
        node: NodeId,
    },
    /// A node's cumulative energy consumption changed.
    Energy {
        /// Simulation time.
        t: u64,
        /// Charged node.
        node: NodeId,
        /// Total joules consumed so far (0 for unlimited batteries).
        consumed_j: f64,
    },
}

/// Receives an event's fields after `t`, in wire order: one method per
/// field type, each given the field's name and value.
pub(crate) trait Visit {
    fn u8(&mut self, name: &'static str, v: u8);
    fn u16(&mut self, name: &'static str, v: u16);
    fn u32(&mut self, name: &'static str, v: u32);
    fn u64(&mut self, name: &'static str, v: u64);
    fn f64(&mut self, name: &'static str, v: f64);
    fn bool(&mut self, name: &'static str, v: bool);
    fn id(&mut self, name: &'static str, v: NodeId);
    fn opt_id(&mut self, name: &'static str, v: Option<NodeId>);
    fn tier(&mut self, name: &'static str, v: TraceTier);
    fn kind(&mut self, name: &'static str, v: TraceKind);
    fn cause(&mut self, name: &'static str, v: DropCause);
}

/// Supplies a variant's fields after `t`, in wire order — the decoding
/// mirror of [`Visit`]. A missing or malformed field is an error.
pub(crate) trait Source {
    fn u8(&mut self, name: &'static str) -> Result<u8, String>;
    fn u16(&mut self, name: &'static str) -> Result<u16, String>;
    fn u32(&mut self, name: &'static str) -> Result<u32, String>;
    fn u64(&mut self, name: &'static str) -> Result<u64, String>;
    fn f64(&mut self, name: &'static str) -> Result<f64, String>;
    fn bool(&mut self, name: &'static str) -> Result<bool, String>;
    fn id(&mut self, name: &'static str) -> Result<NodeId, String>;
    fn opt_id(&mut self, name: &'static str) -> Result<Option<NodeId>, String>;
    fn tier(&mut self, name: &'static str) -> Result<TraceTier, String>;
    fn kind(&mut self, name: &'static str) -> Result<TraceKind, String>;
    fn cause(&mut self, name: &'static str) -> Result<DropCause, String>;
    /// Called after the variant's last field: a source that must be
    /// consumed exactly checks the rest here.
    fn end(&mut self) -> Result<(), String>;
}

/// Generates the tag-indexed name table, [`TraceEvent::tag`],
/// [`TraceEvent::t`], [`TraceEvent::walk`] and [`TraceEvent::build`]
/// from one row per variant: `tag name Variant { field: type, .. }`,
/// fields in wire order, `t` implied first. Each `type` names the
/// [`Visit`]/[`Source`] method that carries the field.
macro_rules! schema {
    ($($tag:literal $name:literal $V:ident { $($f:ident: $ty:ident),+ })+) => {
        /// Variant names indexed by wire tag − 1.
        pub(crate) const NAMES: &[&str] = &[$($name),+];

        // Tags are 1, 2, 3, … in row order, so `NAMES[tag - 1]` is the
        // row's own name.
        const _: () = {
            let mut next = 0u8;
            $(
                next += 1;
                assert!($tag == next, "schema tags must run 1, 2, 3, … in row order");
            )+
        };

        impl TraceEvent {
            /// The wire tag (`1..=TAG_COUNT`) this event encodes under.
            #[inline]
            pub(crate) fn tag(&self) -> u8 {
                match self {
                    $(TraceEvent::$V { .. } => $tag,)+
                }
            }

            /// Simulation time of the event, microseconds.
            pub fn t(&self) -> u64 {
                match *self {
                    $(TraceEvent::$V { t, .. })|+ => t,
                }
            }

            /// Hand the event's fields after `t` to `v`, in wire order.
            /// Always inlined: the frame encoder and the capture's node
            /// filter run it once per frame, and out of line the
            /// visitor would reload the event from memory.
            #[inline(always)]
            pub(crate) fn walk<V: Visit>(&self, v: &mut V) {
                match *self {
                    $(TraceEvent::$V { $($f,)+ .. } => {
                        $(v.$ty(stringify!($f), $f);)+
                    })+
                }
            }

            /// Construct the variant with wire tag `tag` at time `t`,
            /// taking its fields from `s` in wire order.
            #[inline]
            pub(crate) fn build<S: Source>(tag: u8, t: u64, s: &mut S) -> Result<TraceEvent, String> {
                Ok(match tag {
                    $($tag => {
                        let ev = TraceEvent::$V { t, $($f: s.$ty(stringify!($f))?,)+ };
                        s.end()?;
                        ev
                    })+
                    other => return Err(format!("unknown frame tag {other}")),
                })
            }
        }
    };
}

schema! {
    1  "tx_start"      TxStart      { seq: u64, src: id, dst: opt_id, tier: tier, kind: kind, bytes: u32 }
    2  "tx_defer"      TxDefer      { src: id, tier: tier, attempt: u8 }
    3  "tx_giveup"     TxGiveUp     { src: id, tier: tier }
    4  "rx"            Rx           { seq: u64, node: id }
    5  "drop"          Drop         { seq: u64, node: id, cause: cause }
    6  "forward"       Forward      { node: id, origin: id, msg_id: u64, next: opt_id, hops: u32 }
    7  "deliver"       Deliver      { node: id, origin: id, msg_id: u64, hops: u32, latency_us: u64 }
    8  "rreq_flood"    RreqFlood    { node: id, origin: id, req_id: u64, forwarded: bool }
    9  "cache_reply"   CacheReply   { node: id, origin: id, req_id: u64, gateway: id, place: u16 }
    10 "route_install" RouteInstall { node: id, gateway: id, place: u16, hops: u32, energy_pm: u16 }
    11 "route_select"  RouteSelect  { node: id, gateway: id, place: u16, hops: u32, energy_pm: u16 }
    12 "gateway_move"  GatewayMove  { gateway: id, place: u16 }
    13 "node_move"     NodeMove     { node: id, x: f64, y: f64 }
    14 "node_sleep"    NodeSleep    { node: id }
    15 "node_wake"     NodeWake     { node: id }
    16 "node_kill"     NodeKill     { node: id }
    17 "energy"        Energy       { node: id, consumed_j: f64 }
}

/// Number of distinct wire tags (tags are `1..=TAG_COUNT`).
pub const TAG_COUNT: usize = NAMES.len();

/// The JSONL writer: one `(key, value)` pair per field.
struct JsonFields(Vec<(&'static str, Json)>);

impl JsonFields {
    fn push(&mut self, name: &'static str, v: impl Into<Json>) {
        self.0.push((name, v.into()));
    }
}

impl Visit for JsonFields {
    fn u8(&mut self, name: &'static str, v: u8) {
        self.push(name, v as u64);
    }
    fn u16(&mut self, name: &'static str, v: u16) {
        self.push(name, v as u64);
    }
    fn u32(&mut self, name: &'static str, v: u32) {
        self.push(name, v as u64);
    }
    fn u64(&mut self, name: &'static str, v: u64) {
        self.push(name, v);
    }
    fn f64(&mut self, name: &'static str, v: f64) {
        self.push(name, v);
    }
    fn bool(&mut self, name: &'static str, v: bool) {
        self.push(name, v);
    }
    fn id(&mut self, name: &'static str, v: NodeId) {
        self.push(name, v.0 as u64);
    }
    fn opt_id(&mut self, name: &'static str, v: Option<NodeId>) {
        self.push(name, v.map_or(Json::Null, |n| Json::from(n.0 as u64)));
    }
    fn tier(&mut self, name: &'static str, v: TraceTier) {
        self.push(name, v.as_str());
    }
    fn kind(&mut self, name: &'static str, v: TraceKind) {
        self.push(name, v.as_str());
    }
    fn cause(&mut self, name: &'static str, v: DropCause) {
        self.push(name, v.as_str());
    }
}

/// The JSONL reader: fields looked up by key in a parsed line. `used`
/// marks the keys a field has read, so [`Source::end`] can reject the
/// keys none did.
struct JsonRecord<'a> {
    rec: &'a [(String, Value)],
    used: u64,
}

impl<'a> JsonRecord<'a> {
    fn value(&mut self, key: &str) -> Result<&'a Value, String> {
        let i = self
            .rec
            .iter()
            .position(|(k, _)| k == key)
            .ok_or_else(|| format!("missing field '{key}'"))?;
        if i < 64 {
            self.used |= 1 << i;
        }
        Ok(&self.rec[i].1)
    }

    fn str(&mut self, key: &str) -> Result<&'a str, String> {
        self.value(key)?
            .as_str()
            .ok_or_else(|| format!("missing string field '{key}'"))
    }

    fn int<T: TryFrom<u64>>(&mut self, key: &str) -> Result<T, String> {
        let n = self
            .value(key)?
            .as_u64()
            .ok_or_else(|| format!("missing integer field '{key}'"))?;
        T::try_from(n).map_err(|_| format!("field '{key}' out of range"))
    }

    fn named<E>(&mut self, key: &str, from_name: fn(&str) -> Option<E>) -> Result<E, String> {
        let s = self.str(key)?;
        from_name(s).ok_or_else(|| format!("unknown {key} '{s}'"))
    }
}

impl Source for JsonRecord<'_> {
    fn u8(&mut self, name: &'static str) -> Result<u8, String> {
        self.int(name)
    }
    fn u16(&mut self, name: &'static str) -> Result<u16, String> {
        self.int(name)
    }
    fn u32(&mut self, name: &'static str) -> Result<u32, String> {
        self.int(name)
    }
    fn u64(&mut self, name: &'static str) -> Result<u64, String> {
        self.int(name)
    }
    fn f64(&mut self, name: &'static str) -> Result<f64, String> {
        self.value(name)?
            .as_f64()
            .ok_or_else(|| format!("missing number field '{name}'"))
    }
    fn bool(&mut self, name: &'static str) -> Result<bool, String> {
        match self.value(name)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(format!("missing bool field '{name}'")),
        }
    }
    fn id(&mut self, name: &'static str) -> Result<NodeId, String> {
        self.int(name).map(NodeId)
    }
    fn opt_id(&mut self, name: &'static str) -> Result<Option<NodeId>, String> {
        match self.value(name)? {
            Value::Null => Ok(None),
            _ => self.id(name).map(Some),
        }
    }
    fn tier(&mut self, name: &'static str) -> Result<TraceTier, String> {
        self.named(name, TraceTier::from_name)
    }
    fn kind(&mut self, name: &'static str) -> Result<TraceKind, String> {
        self.named(name, TraceKind::from_name)
    }
    fn cause(&mut self, name: &'static str) -> Result<DropCause, String> {
        self.named(name, DropCause::from_name)
    }
    fn end(&mut self) -> Result<(), String> {
        let unread = (0..self.rec.len()).find(|&i| i >= 64 || self.used & (1 << i) == 0);
        match unread {
            Some(i) => Err(format!("unknown field '{}'", self.rec[i].0)),
            None => Ok(()),
        }
    }
}

impl TraceEvent {
    /// Stable name of this event's variant — the `"ev"` field of the
    /// JSONL form and the key of [`crate::CountingSink`] tallies.
    pub fn name(&self) -> &'static str {
        NAMES[self.tag() as usize - 1]
    }

    /// Serialise to one flat JSON object with fixed key order
    /// (`ev`, `t`, then variant fields) — the JSONL wire form.
    pub fn to_json(&self) -> Json {
        let mut fields = JsonFields(vec![
            ("ev", Json::from(self.name())),
            ("t", Json::from(self.t())),
        ]);
        self.walk(&mut fields);
        Json::obj(fields.0)
    }

    /// Decode a parsed trace line back into the event it serialised
    /// from — the exact inverse of [`TraceEvent::to_json`], so recorded
    /// JSONL can be replayed through online consumers (the health
    /// monitor's offline mode). Unknown event names and missing or
    /// mistyped fields are hard errors, same discipline as the parser.
    pub fn from_record(rec: &[(String, Value)]) -> Result<TraceEvent, String> {
        let mut rec = JsonRecord { rec, used: 0 };
        let ev = rec.str("ev")?;
        let tag = NAMES
            .iter()
            .position(|&n| n == ev)
            .ok_or_else(|| format!("unknown event '{ev}'"))?;
        let t = rec.int("t")?;
        TraceEvent::build(tag as u8 + 1, t, &mut rec)
    }

    /// Parse one JSONL trace line and decode it — a convenience over
    /// [`crate::parse::parse_line`] + [`TraceEvent::from_record`].
    pub fn from_json_line(line: &str) -> Result<TraceEvent, String> {
        Self::from_record(&crate::parse::parse_line(line)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_form_is_compact_and_key_ordered() {
        let ev = TraceEvent::TxStart {
            t: 42,
            seq: 7,
            src: NodeId(3),
            dst: None,
            tier: TraceTier::Sensor,
            kind: TraceKind::Data,
            bytes: 32,
        };
        assert_eq!(
            ev.to_json().to_string(),
            r#"{"ev":"tx_start","t":42,"seq":7,"src":3,"dst":null,"tier":"sensor","kind":"data","bytes":32}"#
        );
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events = [
            TraceEvent::TxStart {
                t: 1,
                seq: 2,
                src: NodeId(3),
                dst: Some(NodeId(4)),
                tier: TraceTier::Mesh,
                kind: TraceKind::Security,
                bytes: 48,
            },
            TraceEvent::TxStart {
                t: 1,
                seq: 2,
                src: NodeId(3),
                dst: None,
                tier: TraceTier::Sensor,
                kind: TraceKind::Control,
                bytes: 16,
            },
            TraceEvent::TxDefer {
                t: 2,
                src: NodeId(5),
                tier: TraceTier::Sensor,
                attempt: 3,
            },
            TraceEvent::TxGiveUp {
                t: 3,
                src: NodeId(5),
                tier: TraceTier::Mesh,
            },
            TraceEvent::Rx {
                t: 4,
                seq: 9,
                node: NodeId(6),
            },
            TraceEvent::Drop {
                t: 5,
                seq: 9,
                node: NodeId(6),
                cause: DropCause::Energy,
            },
            TraceEvent::Forward {
                t: 6,
                node: NodeId(7),
                origin: NodeId(1),
                msg_id: 11,
                next: None,
                hops: 2,
            },
            TraceEvent::Deliver {
                t: 7,
                node: NodeId(8),
                origin: NodeId(1),
                msg_id: 11,
                hops: 3,
                latency_us: 1234,
            },
            TraceEvent::RreqFlood {
                t: 8,
                node: NodeId(2),
                origin: NodeId(2),
                req_id: 1,
                forwarded: false,
            },
            TraceEvent::CacheReply {
                t: 9,
                node: NodeId(3),
                origin: NodeId(2),
                req_id: 1,
                gateway: NodeId(10),
                place: 2,
            },
            TraceEvent::RouteInstall {
                t: 10,
                node: NodeId(3),
                gateway: NodeId(10),
                place: 2,
                hops: 4,
                energy_pm: 900,
            },
            TraceEvent::RouteSelect {
                t: 11,
                node: NodeId(3),
                gateway: NodeId(10),
                place: 2,
                hops: 4,
                energy_pm: 900,
            },
            TraceEvent::GatewayMove {
                t: 12,
                gateway: NodeId(10),
                place: 0,
            },
            TraceEvent::NodeMove {
                t: 13,
                node: NodeId(4),
                x: 1.5,
                y: -2.25,
            },
            TraceEvent::NodeSleep {
                t: 14,
                node: NodeId(4),
            },
            TraceEvent::NodeWake {
                t: 15,
                node: NodeId(4),
            },
            TraceEvent::NodeKill {
                t: 16,
                node: NodeId(4),
            },
            TraceEvent::Energy {
                t: 17,
                node: NodeId(4),
                consumed_j: 0.125,
            },
        ];
        for ev in events {
            let line = ev.to_json().to_string();
            let back = TraceEvent::from_json_line(&line).unwrap_or_else(|e| {
                panic!("decode failed for {line}: {e}");
            });
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn decoder_rejects_malformed_lines() {
        assert!(TraceEvent::from_json_line(r#"{"ev":"warp","t":1}"#).is_err());
        assert!(TraceEvent::from_json_line(r#"{"t":1}"#).is_err());
        assert!(TraceEvent::from_json_line(r#"{"ev":"rx","t":1,"seq":2}"#).is_err());
        assert!(TraceEvent::from_json_line(
            r#"{"ev":"drop","t":1,"seq":2,"node":3,"cause":"gremlin"}"#
        )
        .is_err());
        assert!(TraceEvent::from_json_line("not json").is_err());
        // Keys are unique and every key is a field of the event.
        for line in [
            r#"{"ev":"rx","t":2,"seq":2,"node":3,"node":9}"#,
            r#"{"ev":"rx","t":2,"seq":2,"node":3,"hops":1}"#,
            r#"{"ev":"rx","t":2,"t":2,"seq":2,"node":3}"#,
        ] {
            assert!(TraceEvent::from_json_line(line).is_err(), "{line}");
        }
        assert!(TraceEvent::from_json_line(r#"{"seq":2,"node":3,"ev":"rx","t":2}"#).is_ok());
        // Every field is required and typed, bools included.
        for forwarded in ["", r#","forwarded":1"#, r#","forwarded":null"#] {
            let line =
                format!(r#"{{"ev":"rreq_flood","t":8,"node":2,"origin":2,"req_id":1{forwarded}}}"#);
            let err = TraceEvent::from_json_line(&line).unwrap_err();
            assert!(err.contains("forwarded"), "{line}: {err}");
        }
    }

    #[test]
    fn drop_carries_cause_string() {
        let ev = TraceEvent::Drop {
            t: 1,
            seq: 2,
            node: NodeId(9),
            cause: DropCause::OutOfRange,
        };
        let s = ev.to_json().to_string();
        assert!(s.contains(r#""cause":"out_of_range""#), "{s}");
        assert_eq!(ev.name(), "drop");
        assert_eq!(ev.t(), 1);
    }
}
