//! Packet wire-form golden: the on-air bytes of every message variant of
//! all eight protocol codecs, pinned as hex in
//! `tests/golden/packet_wire_forms.txt`.
//!
//! Each pinned frame must be reproduced both by the owned encoder and by
//! view decode → `to_owned` → encode, so a codec change that moves a
//! single byte on the air fails here. The second test checks that the
//! decoders are canonical: every accepted frame re-encodes to exactly
//! its own bytes.

use wmsn::crypto::mac::Tag;
use wmsn::crypto::SealedMessage;
use wmsn::routing::flooding::{FloodMsg, FloodMsgView};
use wmsn::routing::leach::{LeachMsg, LeachMsgView};
use wmsn::routing::mcfa::{McfaMsg, McfaMsgView};
use wmsn::routing::mesh::{MeshMsg, MeshMsgView};
use wmsn::routing::pegasis::{PegasisMsg, PegasisMsgView};
use wmsn::routing::spin::{SpinMsg, SpinMsgView};
use wmsn::routing::wire::{RoutingMsg, RoutingMsgView, NO_PLACE};
use wmsn::secure::wire::{QuerySection, SecMsg, SecMsgView};
use wmsn::util::codec::DecodeError;
use wmsn::util::{NodeId, SplitMix64};

/// Decode a frame with the codec's decoder and encode the result again.
type Reencode = fn(&[u8]) -> Result<Vec<u8>, DecodeError>;

/// One pinned frame: its golden label, its bytes as the owned encoder
/// writes them, and its codec's view decode → `to_owned` → encode.
struct Pinned {
    label: &'static str,
    bytes: Vec<u8>,
    reencode: Reencode,
}

fn ids(raw: &[u32]) -> Vec<NodeId> {
    raw.iter().copied().map(NodeId).collect()
}

fn sealed(counter: u64, ciphertext: &[u8], tag: u8) -> SealedMessage {
    SealedMessage {
        counter,
        ciphertext: ciphertext.to_vec(),
        tag: Tag([tag, 1, 2, 3, 4, 5, 6, tag ^ 0xFF]),
    }
}

fn routing(label: &'static str, msg: RoutingMsg) -> Pinned {
    Pinned {
        label,
        bytes: msg.encode(),
        reencode: |b| RoutingMsgView::decode(b).map(|v| v.to_owned().encode()),
    }
}

fn secure(label: &'static str, msg: SecMsg) -> Pinned {
    Pinned {
        label,
        bytes: msg.encode(),
        reencode: |b| SecMsgView::decode(b).map(|v| v.to_owned().encode()),
    }
}

macro_rules! owned {
    ($view:ident, $label:literal, $msg:expr) => {
        Pinned {
            label: $label,
            bytes: $msg.encode(),
            reencode: |b| $view::decode(b).map(|v| v.to_owned().encode()),
        }
    };
}

/// Every pinned frame, in golden-file order.
fn pinned() -> Vec<Pinned> {
    vec![
        routing(
            "routing rreq empty path",
            RoutingMsg::Rreq {
                origin: NodeId(0),
                req_id: 0,
                path: vec![],
                wanted: vec![],
            },
        ),
        routing(
            "routing rreq wanted+path",
            RoutingMsg::Rreq {
                origin: NodeId(7),
                req_id: 0x0123_4567_89AB_CDEF,
                path: ids(&[7, 3, 12]),
                wanted: vec![2, 5, 0xFFFE],
            },
        ),
        routing(
            "routing rrep",
            RoutingMsg::Rrep {
                origin: NodeId(7),
                req_id: 99,
                gateway: NodeId(100),
                place: 4,
                energy_pm: 512,
                path: ids(&[7, 3]),
            },
        ),
        routing(
            "routing rrep empty path",
            RoutingMsg::Rrep {
                origin: NodeId(1),
                req_id: 2,
                gateway: NodeId(3),
                place: NO_PLACE,
                energy_pm: 1000,
                path: vec![],
            },
        ),
        routing(
            "routing data padded",
            RoutingMsg::Data {
                origin: NodeId(2),
                msg_id: 5,
                sent_at: 123_456,
                gateway: NodeId(50),
                place: NO_PLACE,
                hops: 3,
                payload_len: 24,
            },
        ),
        routing(
            "routing data unpadded",
            RoutingMsg::Data {
                origin: NodeId(9),
                msg_id: u64::MAX,
                sent_at: 1,
                gateway: NodeId(u32::MAX),
                place: 0,
                hops: 0,
                payload_len: 0,
            },
        ),
        routing(
            "routing announce",
            RoutingMsg::Announce {
                gateway: NodeId(9),
                place: 2,
                round: 14,
            },
        ),
        routing(
            "routing load",
            RoutingMsg::Load {
                gateway: NodeId(9),
                load: 512,
                seq: 3,
            },
        ),
        secure(
            "secure rreq empty path no sections",
            SecMsg::Rreq {
                origin: NodeId(1),
                req_id: 2,
                path: vec![],
                sections: vec![],
            },
        ),
        secure(
            "secure rreq three sections",
            SecMsg::Rreq {
                origin: NodeId(7),
                req_id: 42,
                path: ids(&[7, 3]),
                sections: vec![
                    QuerySection {
                        gateway: NodeId(100),
                        sealed: sealed(1, b"req", 0x10),
                    },
                    QuerySection {
                        gateway: NodeId(101),
                        sealed: sealed(2, b"", 0x20),
                    },
                    QuerySection {
                        gateway: NodeId(102),
                        sealed: sealed(u64::MAX, b"query", 0x30),
                    },
                ],
            },
        ),
        secure(
            "secure rres",
            SecMsg::Rres {
                origin: NodeId(1),
                gateway: NodeId(100),
                place: 3,
                path: ids(&[1, 2, 100]),
                sealed: sealed(5, b"response", 0x40),
            },
        ),
        secure(
            "secure data",
            SecMsg::Data {
                source: NodeId(1),
                destination: NodeId(100),
                is: NodeId(2),
                ir: NodeId(3),
                hops: 2,
                sealed: sealed(6, b"reading", 0x50),
            },
        ),
        secure(
            "secure announce",
            SecMsg::Announce {
                gateway: NodeId(100),
                place: 1,
                round: 2,
                interval: 3,
                tesla_tag: Tag([1, 2, 3, 4, 5, 6, 7, 8]),
            },
        ),
        secure(
            "secure disclose",
            SecMsg::Disclose {
                gateway: NodeId(100),
                interval: 3,
                key: [0xAB; 16],
            },
        ),
        owned!(
            MeshMsgView,
            "mesh hello",
            MeshMsg::Hello { from: NodeId(41) }
        ),
        owned!(
            MeshMsgView,
            "mesh lsa",
            MeshMsg::Lsa {
                origin: NodeId(41),
                seq: 6,
                neighbors: ids(&[40, 42, 43]),
            }
        ),
        owned!(
            MeshMsgView,
            "mesh lsa empty",
            MeshMsg::Lsa {
                origin: NodeId(44),
                seq: 1,
                neighbors: vec![],
            }
        ),
        owned!(
            MeshMsgView,
            "mesh data",
            MeshMsg::Data {
                dst: NodeId(50),
                src: NodeId(41),
                hops: 2,
                inner: vec![3, 1, 4, 1, 5, 9, 2, 6],
            }
        ),
        owned!(
            SpinMsgView,
            "spin adv",
            SpinMsg::Adv {
                origin: NodeId(4),
                msg_id: 8,
            }
        ),
        owned!(
            SpinMsgView,
            "spin req",
            SpinMsg::Req {
                origin: NodeId(4),
                msg_id: 8,
            }
        ),
        owned!(
            SpinMsgView,
            "spin data padded",
            SpinMsg::Data {
                origin: NodeId(4),
                msg_id: 8,
                sent_at: 77,
                hops: 1,
                payload_len: 12,
            }
        ),
        owned!(
            PegasisMsgView,
            "pegasis chain padded",
            PegasisMsg::Chain {
                round: 3,
                count: 5,
                first_sent_at: 1_000,
                hops: 4,
                payload_len: 10,
            }
        ),
        owned!(
            PegasisMsgView,
            "pegasis leader padded",
            PegasisMsg::Leader {
                round: 3,
                count: 9,
                first_sent_at: 900,
                hops: 8,
                payload_len: 6,
            }
        ),
        owned!(McfaMsgView, "mcfa beacon", McfaMsg::Beacon { cost: 3 }),
        owned!(
            McfaMsgView,
            "mcfa data padded",
            McfaMsg::Data {
                origin: NodeId(12),
                msg_id: 1,
                sent_at: 500,
                hops: 2,
                budget: 4,
                payload_len: 8,
            }
        ),
        owned!(
            LeachMsgView,
            "leach adv",
            LeachMsg::Adv {
                head: NodeId(5),
                x: 12.5,
                y: -0.25,
            }
        ),
        owned!(
            LeachMsgView,
            "leach report padded",
            LeachMsg::Report {
                origin: NodeId(6),
                msg_id: 2,
                sent_at: 300,
                payload_len: 9,
            }
        ),
        owned!(
            LeachMsgView,
            "leach aggregate",
            LeachMsg::Aggregate {
                head: NodeId(5),
                entries: vec![(NodeId(6), 2, 300), (NodeId(7), 4, 310)],
            }
        ),
        owned!(
            LeachMsgView,
            "leach aggregate empty",
            LeachMsg::Aggregate {
                head: NodeId(5),
                entries: vec![],
            }
        ),
        owned!(
            FloodMsgView,
            "flood padded",
            FloodMsg::Data {
                origin: NodeId(3),
                msg_id: 11,
                sent_at: 2_000,
                hops: 1,
                ttl: 15,
                payload_len: 7,
            }
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn packet_wire_forms_match_the_pinned_golden() {
    let golden = include_str!("golden/packet_wire_forms.txt");
    let frames = pinned();
    assert_eq!(golden.lines().count(), frames.len());
    for (p, line) in frames.iter().zip(golden.lines()) {
        let (label, want) = line.split_once('\t').expect("tab-separated golden line");
        assert_eq!(p.label, label);
        assert_eq!(hex(&p.bytes), want, "encode of {label}");
        let again = (p.reencode)(&p.bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(hex(&again), want, "decode → encode of {label}");
    }
}

/// Decoders are canonical: every single-byte change to every pinned
/// frame, seeded multi-byte changes, every truncation and a one-byte
/// extension either fail to decode or decode to a message that
/// re-encodes to exactly the changed bytes. No input makes a decoder
/// panic.
#[test]
fn mutated_packets_are_rejected_or_round_trip_bit_exactly() {
    fn canonical(p: &Pinned, bad: &[u8]) {
        if let Ok(again) = (p.reencode)(bad) {
            assert_eq!(
                again, bad,
                "{}: accepted frame re-encodes differently",
                p.label
            );
        }
    }
    let mut rng = SplitMix64::new(0x9AC7);
    for p in pinned() {
        let frame = &p.bytes;
        for pos in 0..frame.len() {
            for byte in 0..=u8::MAX {
                let mut bad = frame.clone();
                bad[pos] = byte;
                canonical(&p, &bad);
            }
        }
        for _ in 0..2000 {
            let mut bad = frame.clone();
            for _ in 0..1 + rng.next_u64_raw() % 4 {
                let pos = (rng.next_u64_raw() % frame.len() as u64) as usize;
                bad[pos] = rng.next_u64_raw() as u8;
            }
            canonical(&p, &bad);
        }
        for cut in 0..frame.len() {
            canonical(&p, &frame[..cut]);
        }
        let mut long = frame.clone();
        long.push(0);
        canonical(&p, &long);
    }
}
