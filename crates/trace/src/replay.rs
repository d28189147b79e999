//! The trace query engine: "show the path of msg N", "why was packet X
//! dropped", "what is node K's energy timeline".
//!
//! Each query is written once, over an [`EventSource`]: anything that
//! can report per-kind event counts and scan its events through a
//! [`ScanFilter`]. Two sources exist — a segmented capture
//! ([`crate::CaptureReader`], which skips segments its index rules out)
//! and [`Replay`], a JSONL trace loaded into memory (which checks every
//! event) — so both answer every query identically by construction.
//! The queries keep their `capture_` names: a "capture" here is any
//! recorded trace.

use crate::capture::{ScanFilter, ScanStats};
use crate::event::TraceEvent;
use crate::frame::{event_tag, tag_name, TAG_COUNT};
use crate::parse::{get, parse_line, Value};
use std::collections::BTreeMap;
use std::io::BufRead;
use wmsn_util::NodeId;

/// A recorded trace the queries can read.
pub trait EventSource {
    /// Exact event count per wire tag (index `tag - 1`).
    fn tag_counts(&self) -> [u64; TAG_COUNT];

    /// Visit every event the filter admits, in recorded order, with its
    /// causal `(at, key)` stamp.
    fn scan<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        filter: &ScanFilter,
        f: F,
    ) -> Result<ScanStats, String>;
}

/// One hop of a reconstructed message path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PathHop {
    /// Time the hop transmitted.
    pub t: u64,
    /// Transmitting node.
    pub node: u64,
    /// Link-layer next hop, if the frame was unicast.
    pub next: Option<u64>,
    /// Hop count after this transmission.
    pub hops: u64,
}

/// The reconstructed journey of one application message.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MessagePath {
    /// Forwarding hops in time order (the first entry is the origination).
    pub hops: Vec<PathHop>,
    /// Final delivery `(t, destination, hops, latency_us)`, if it arrived.
    pub delivered: Option<(u64, u64, u64, u64)>,
}

/// A reception that was dropped: `(t, receiver, cause)`.
pub type DropRecord = (u64, u64, String);

/// Event counts by variant name, deterministically ordered. A capture
/// answers from its index alone.
pub fn capture_counts<S: EventSource>(src: &S) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (i, &n) in src.tag_counts().iter().enumerate() {
        if let Some(name) = tag_name(i as u8 + 1).filter(|_| n > 0) {
            out.insert(name.to_string(), n);
        }
    }
    out
}

/// Reconstruct the hop-by-hop path of message `(origin, msg_id)` from
/// its `forward` and `deliver` events. `None` if the message never
/// appears in the trace.
pub fn capture_path_of<S: EventSource>(
    src: &mut S,
    origin: u64,
    msg_id: u64,
) -> Result<Option<MessagePath>, String> {
    let Ok(origin_id) = u32::try_from(origin) else {
        return Ok(None); // node ids are u32; a larger origin matches nothing
    };
    let filter = ScanFilter::all()
        .with_kind_names(&["forward", "deliver"])
        .with_node(NodeId(origin_id));
    let mut path = MessagePath::default();
    src.scan(&filter, |ev, _, _| match *ev {
        TraceEvent::Forward {
            t,
            node,
            origin: o,
            msg_id: m,
            next,
            hops,
        } if (o.0 as u64, m) == (origin, msg_id) => {
            path.hops.push(PathHop {
                t,
                node: node.0 as u64,
                next: next.map(|n| n.0 as u64),
                hops: hops as u64,
            });
        }
        TraceEvent::Deliver {
            t,
            node,
            origin: o,
            msg_id: m,
            hops,
            latency_us,
        } if (o.0 as u64, m) == (origin, msg_id) && path.delivered.is_none() => {
            path.delivered = Some((t, node.0 as u64, hops as u64, latency_us));
        }
        _ => {}
    })?;
    Ok(if path.hops.is_empty() && path.delivered.is_none() {
        None
    } else {
        Some(path)
    })
}

/// Every drop of frame `seq`, in trace order: why a packet never
/// arrived. A broadcast frame can be dropped independently at several
/// receivers, so this is a list.
pub fn capture_drops_of_seq<S: EventSource>(
    src: &mut S,
    seq: u64,
) -> Result<Vec<DropRecord>, String> {
    let filter = ScanFilter::all().with_kind_names(&["drop"]);
    let mut out = Vec::new();
    src.scan(&filter, |ev, _, _| {
        if let TraceEvent::Drop {
            t,
            seq: s,
            node,
            cause,
        } = *ev
        {
            if s == seq {
                out.push((t, node.0 as u64, cause.as_str().to_string()));
            }
        }
    })?;
    Ok(out)
}

/// One node's cumulative energy timeline `(t, joules)`, in trace order.
pub fn capture_energy_of<S: EventSource>(
    src: &mut S,
    node: u64,
) -> Result<Vec<(u64, f64)>, String> {
    let Ok(node_id) = u32::try_from(node) else {
        return Ok(Vec::new());
    };
    let filter = ScanFilter::all()
        .with_kind_names(&["energy"])
        .with_node(NodeId(node_id));
    let mut out = Vec::new();
    src.scan(&filter, |ev, _, _| {
        if let TraceEvent::Energy {
            t,
            node: n,
            consumed_j,
        } = *ev
        {
            if n.0 as u64 == node {
                out.push((t, consumed_j));
            }
        }
    })?;
    Ok(out)
}

/// A trace held in memory: the unindexed [`EventSource`]. Events carry
/// no causal stamps of their own, so a scan reports `at = t, key = 0`
/// (exactly what packing JSONL into a capture stamps).
#[derive(Debug, Default)]
pub struct Replay {
    events: Vec<TraceEvent>,
}

impl Replay {
    /// Decode every line of a JSONL reader. Fails on the first
    /// malformed line with its 1-based line number.
    pub fn from_reader(r: impl BufRead) -> Result<Replay, String> {
        let mut events = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let line = line.map_err(|e| format!("line {}: read error: {e}", i + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let rec = parse_line(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
            if get(&rec, "ev").and_then(Value::as_str).is_none() {
                return Err(format!("line {}: missing \"ev\" field", i + 1));
            }
            events.push(TraceEvent::from_record(&rec).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(Replay { events })
    }

    /// Decode an in-memory JSONL string.
    pub fn from_jsonl(s: &str) -> Result<Replay, String> {
        Self::from_reader(s.as_bytes())
    }

    /// A replay over already-decoded events.
    pub fn from_events(events: &[TraceEvent]) -> Replay {
        Replay {
            events: events.to_vec(),
        }
    }

    /// Number of events loaded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All `(origin, msg_id)` pairs that were delivered, in trace order
    /// without duplicates.
    pub fn delivered_messages(&self) -> Vec<(u64, u64)> {
        let mut seen = Vec::new();
        for ev in &self.events {
            if let TraceEvent::Deliver { origin, msg_id, .. } = *ev {
                let key = (origin.0 as u64, msg_id);
                if !seen.contains(&key) {
                    seen.push(key);
                }
            }
        }
        seen
    }
}

impl EventSource for Replay {
    fn tag_counts(&self) -> [u64; TAG_COUNT] {
        let mut totals = [0u64; TAG_COUNT];
        for ev in &self.events {
            totals[event_tag(ev) as usize - 1] += 1;
        }
        totals
    }

    fn scan<F: FnMut(&TraceEvent, u64, u64)>(
        &mut self,
        filter: &ScanFilter,
        mut f: F,
    ) -> Result<ScanStats, String> {
        let mut stats = ScanStats {
            frames_decoded: self.events.len() as u64,
            ..ScanStats::default()
        };
        for ev in &self.events {
            if filter.admits_frame(ev, ev.t()) {
                stats.frames_matched += 1;
                f(ev, ev.t(), 0);
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropCause;

    /// Canonical JSONL rendered from the events themselves, so every
    /// line decodes back to its event.
    fn trace() -> String {
        let evs = [
            TraceEvent::Forward {
                t: 10,
                node: NodeId(5),
                origin: NodeId(5),
                msg_id: 1,
                next: Some(NodeId(3)),
                hops: 1,
            },
            TraceEvent::Forward {
                t: 20,
                node: NodeId(3),
                origin: NodeId(5),
                msg_id: 1,
                next: Some(NodeId(9)),
                hops: 2,
            },
            TraceEvent::Deliver {
                t: 30,
                node: NodeId(9),
                origin: NodeId(5),
                msg_id: 1,
                hops: 2,
                latency_us: 20,
            },
            TraceEvent::Drop {
                t: 15,
                seq: 4,
                node: NodeId(7),
                cause: DropCause::Collision,
            },
            TraceEvent::Energy {
                t: 10,
                node: NodeId(5),
                consumed_j: 0.001,
            },
            TraceEvent::Energy {
                t: 30,
                node: NodeId(5),
                consumed_j: 0.002,
            },
        ];
        evs.iter().map(|ev| format!("{}\n", ev.to_json())).collect()
    }

    #[test]
    fn reconstructs_a_message_path() {
        let mut r = Replay::from_jsonl(&trace()).unwrap();
        assert_eq!(r.len(), 6);
        let p = capture_path_of(&mut r, 5, 1).unwrap().unwrap();
        assert_eq!(p.hops.len(), 2);
        assert_eq!(p.hops[0].node, 5);
        assert_eq!(p.hops[1].next, Some(9));
        assert_eq!(p.delivered, Some((30, 9, 2, 20)));
        assert!(capture_path_of(&mut r, 5, 99).unwrap().is_none());
        assert_eq!(r.delivered_messages(), vec![(5, 1)]);
    }

    #[test]
    fn answers_drop_and_energy_queries() {
        let mut r = Replay::from_jsonl(&trace()).unwrap();
        assert_eq!(
            capture_drops_of_seq(&mut r, 4).unwrap(),
            vec![(15, 7, "collision".to_string())]
        );
        assert!(capture_drops_of_seq(&mut r, 5).unwrap().is_empty());
        let e = capture_energy_of(&mut r, 5).unwrap();
        assert_eq!(e.len(), 2);
        assert!((e[1].1 - 0.002).abs() < 1e-12);
        assert_eq!(capture_counts(&r)["forward"], 2);
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let rx = TraceEvent::Rx {
            t: 1,
            seq: 0,
            node: NodeId(2),
        };
        let err = Replay::from_jsonl(&format!("{}\nnot json\n", rx.to_json())).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = Replay::from_jsonl("{\"t\":1}\n").unwrap_err();
        assert!(err.contains("missing \"ev\""), "{err}");
        assert!(Replay::from_jsonl("\n\n").unwrap().is_empty());
    }
}
