//! Wire formats shared by SPR and MLR (the *unsecured* protocols; SecMLR
//! wraps these shapes in the crypto envelope in `wmsn-secure`).
//!
//! Five message types cover §5:
//!
//! * `Rreq` — routing query, flooded; carries the path walked so far
//!   (each forwarder appends itself, §5.2 step 3.1).
//! * `Rrep` — routing response, unicast back along the reversed path;
//!   carries the complete sensor path and the answering gateway.
//! * `Data` — application data; carries origin, message id, origination
//!   time and a hop counter for the metrics ledger, the destination
//!   gateway/place, and payload padding so frames have realistic size.
//! * `Announce` — a (moved) gateway advertising its place at round start
//!   (§5.3 step 2), flooded through the sensor tier.
//! * `Load` — a gateway advertising its recent traffic load, used by the
//!   §4.3 load-balance extension.
//!
//! # Frame layout (see DESIGN.md, "Wire layer")
//!
//! The messages are declared once, in the [`packet_schema!`] table
//! below: a tag and the fields in wire order. The table generates the
//! owned [`RoutingMsg`] with its encoder, the borrowed [`RoutingMsgView`]
//! with the one decoder (list fields stay views over the received frame,
//! so per-hop handling allocates nothing) and the byte offsets in
//! [`layout`]. Handlers decode a frame once and pass the view down.
//!
//! The variable-length `path` is always the **trailing** field, which is
//! what makes [`rreq_append_forward`] a memcpy + 2-byte count patch +
//! 4-byte append instead of decode→clone→push→re-encode; relays rewrite
//! the fixed-offset `energy_pm` and `hops` words in place.
//!
//! [`packet_schema!`]: wmsn_util::packet_schema

use wmsn_util::codec::{self, DecodeError, IdList, IdListView, Pad, U16List};
use wmsn_util::NodeId;

/// Maximum path length accepted by decoders (sanity bound; fields in the
/// experiments never exceed a few tens of hops).
pub const MAX_PATH: usize = 512;

/// Sentinel for "no feasible place" (SPR runs placeless).
pub const NO_PLACE: u16 = u16::MAX;

wmsn_util::packet_schema! {
    /// A routing-layer message (owned representation).
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum RoutingMsg;
    /// Borrowed decode of a routing frame: list fields are zero-copy
    /// views over the received bytes. Bridge to the owned [`RoutingMsg`]
    /// with [`RoutingMsgView::to_owned`].
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum RoutingMsgView<'a>;
    /// Fixed byte offsets of the routing frames' fields.
    pub mod layout;

    /// Flooded routing query.
    1 Rreq {
        /// Query originator.
        origin: NodeId,
        /// Originator-unique query id (for duplicate suppression).
        req_id: u64,
        /// Feasible places the originator is missing entries for; empty
        /// means "any route welcome" (SPR). Intermediates may answer from
        /// cache only for wanted places — otherwise a cached reply for an
        /// old place would suppress discovery of a newly-occupied one.
        wanted: U16List<MAX_PATH>,
        /// Nodes traversed so far, starting with `origin`. Trailing, so
        /// forwarders append in place.
        path: IdList<MAX_PATH>,
    }
    /// Routing response, relayed back toward `origin`.
    2 Rrep {
        /// Query originator this answers.
        origin: NodeId,
        /// Query id this answers.
        req_id: u64,
        /// Responding gateway.
        gateway: NodeId,
        /// Feasible place of the gateway ([`NO_PLACE`] under SPR).
        place: u16,
        /// Residual battery (per mille of capacity) of the weakest relay
        /// the response has passed through so far — each relay folds its
        /// own level in, giving the source the path's energy bottleneck
        /// (the §5.3 balance objective made routable).
        energy_pm: u16,
        /// Full sensor path `origin … last-sensor` (gateway excluded).
        path: IdList<MAX_PATH>,
    }
    /// Application data.
    3 Data {
        /// Source sensor.
        origin: NodeId,
        /// Source-unique message id.
        msg_id: u64,
        /// Origination timestamp (µs).
        sent_at: u64,
        /// Destination gateway.
        gateway: NodeId,
        /// Destination place ([`NO_PLACE`] under SPR).
        place: u16,
        /// Radio hops taken so far (incremented by each forwarder).
        hops: u32,
        /// Application payload size; encoded as that many zero bytes so
        /// the energy/latency cost of the frame is realistic.
        payload_len: Pad,
    }
    /// Gateway place announcement (MLR round start).
    4 Announce {
        /// The gateway announcing.
        gateway: NodeId,
        /// Its (new) feasible place.
        place: u16,
        /// Round number, for duplicate suppression.
        round: u32,
    }
    /// Gateway load advertisement (§4.3 extension).
    5 Load {
        /// The gateway advertising.
        gateway: NodeId,
        /// Packets absorbed during the current window.
        load: u32,
        /// Advertisement sequence number.
        seq: u32,
    }
}

/// Build the forwarded copy of a decoded RREQ into `out` (a reusable
/// scratch buffer): memcpy the frame, bump the trailing path count,
/// append `me`. `path` is the frame's own path view. Everything before
/// the path count — including the `wanted` list — is copied verbatim,
/// never re-serialised. Fails if the path is already at [`MAX_PATH`].
pub fn rreq_append_forward(
    frame: &[u8],
    path: IdListView<'_>,
    me: NodeId,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    // The path is trailing: its count prefix ends where its ids begin.
    let at = frame.len().saturating_sub(path.as_bytes().len() + 2);
    codec::append_id(frame, at, MAX_PATH, me.0, out)
}

/// Build the relayed copy of a decoded RREP into `out`: memcpy the
/// frame and patch the energy-bottleneck field. The path is untouched
/// (relays do not append on the return trip).
pub fn rrep_energy_patch(
    frame: &[u8],
    energy_pm: u16,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    codec::patch(
        frame,
        &[(layout::Rrep::energy_pm, &energy_pm.to_le_bytes())],
        out,
    )
}

/// Build the forwarded copy of a decoded Data frame into `out`: memcpy
/// the frame and overwrite the hop counter.
pub fn data_hops_patch(frame: &[u8], hops: u32, out: &mut Vec<u8>) -> Result<(), DecodeError> {
    codec::patch(frame, &[(layout::Data::hops, &hops.to_le_bytes())], out)
}

/// Encode an RREP into `out` whose path is `prefix ++ [me]? ++ relays`,
/// copying the prefix bytes straight out of the triggering RREQ — no
/// intermediate `Vec<NodeId>` clone (the gateway direct-answer and the
/// sensor cached-answer paths of `handle_rreq`).
#[allow(clippy::too_many_arguments)]
pub fn encode_rrep_into(
    out: &mut Vec<u8>,
    origin: NodeId,
    req_id: u64,
    gateway: NodeId,
    place: u16,
    energy_pm: u16,
    prefix: IdListView<'_>,
    me: Option<NodeId>,
    relays: &[NodeId],
) {
    let count = prefix.len() + usize::from(me.is_some()) + relays.len();
    debug_assert!(count <= MAX_PATH);
    out.clear();
    out.reserve(layout::Rrep::path + 2 + 4 * count);
    // The fixed fields and an empty path, then the path ids appended
    // with the count patched to match.
    RoutingMsg::Rrep {
        origin,
        req_id,
        gateway,
        place,
        energy_pm,
        path: Vec::new(),
    }
    .encode_into(out);
    out.extend_from_slice(prefix.as_bytes());
    for id in me.iter().chain(relays) {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
    let at = layout::Rrep::path;
    out[at..at + 2].copy_from_slice(&(count as u16).to_le_bytes());
}

/// Whether the conceptual path `prefix ++ [me] ++ relays` visits every
/// node at most once. Allocation-free pairwise scan — paths are tens of
/// entries, so O(n²) beats building a `HashSet` per candidate reply.
pub fn path_with_suffix_is_unique(prefix: IdListView<'_>, me: NodeId, relays: &[NodeId]) -> bool {
    let ids = || {
        prefix
            .iter()
            .chain(std::iter::once(me.0))
            .chain(relays.iter().map(|r| r.0))
    };
    ids()
        .enumerate()
        .all(|(i, v)| ids().skip(i + 1).all(|w| w != v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: RoutingMsg) {
        let bytes = msg.encode();
        assert_eq!(RoutingMsg::decode(&bytes).unwrap(), msg);
    }

    fn sample_rreq() -> RoutingMsg {
        RoutingMsg::Rreq {
            origin: NodeId(7),
            req_id: 99,
            path: vec![NodeId(7), NodeId(3), NodeId(12)],
            wanted: vec![2, 5],
        }
    }

    #[test]
    fn rreq_roundtrip() {
        roundtrip(sample_rreq());
    }

    #[test]
    fn rrep_roundtrip() {
        roundtrip(RoutingMsg::Rrep {
            origin: NodeId(7),
            req_id: 99,
            gateway: NodeId(100),
            place: 4,
            energy_pm: 512,
            path: vec![NodeId(7), NodeId(3)],
        });
    }

    #[test]
    fn data_roundtrip_and_padding() {
        let msg = RoutingMsg::Data {
            origin: NodeId(2),
            msg_id: 5,
            sent_at: 123_456,
            gateway: NodeId(50),
            place: NO_PLACE,
            hops: 3,
            payload_len: 24,
        };
        let bytes = msg.encode();
        // 1 tag + 4 + 8 + 8 + 4 + 2 + 4 + 2 + 24 padding = 57.
        assert_eq!(bytes.len(), 57);
        roundtrip(msg);
    }

    #[test]
    fn announce_and_load_roundtrip() {
        roundtrip(RoutingMsg::Announce {
            gateway: NodeId(9),
            place: 2,
            round: 14,
        });
        roundtrip(RoutingMsg::Load {
            gateway: NodeId(9),
            load: 512,
            seq: 3,
        });
    }

    #[test]
    fn empty_path_roundtrips() {
        roundtrip(RoutingMsg::Rreq {
            origin: NodeId(0),
            req_id: 0,
            path: vec![],
            wanted: vec![],
        });
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            RoutingMsg::decode(&[0xEE]),
            Err(DecodeError::BadTag(0xEE))
        ));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = RoutingMsg::Announce {
            gateway: NodeId(9),
            place: 2,
            round: 14,
        }
        .encode();
        assert!(RoutingMsg::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = RoutingMsg::Load {
            gateway: NodeId(9),
            load: 1,
            seq: 1,
        }
        .encode();
        bytes.push(0);
        assert!(RoutingMsg::decode(&bytes).is_err());
    }

    #[test]
    fn oversized_path_rejected() {
        let msg = RoutingMsg::Rreq {
            origin: NodeId(0),
            req_id: 0,
            path: (0..MAX_PATH as u32 + 1).map(NodeId).collect(),
            wanted: vec![],
        };
        let bytes = msg.encode();
        assert!(RoutingMsg::decode(&bytes).is_err());
    }

    #[test]
    fn view_decode_matches_owned_for_all_variants() {
        let msgs = [
            sample_rreq(),
            RoutingMsg::Rrep {
                origin: NodeId(1),
                req_id: 8,
                gateway: NodeId(44),
                place: 0,
                energy_pm: 999,
                path: vec![NodeId(1), NodeId(2), NodeId(3)],
            },
            RoutingMsg::Data {
                origin: NodeId(2),
                msg_id: 5,
                sent_at: 77,
                gateway: NodeId(50),
                place: 3,
                hops: 2,
                payload_len: 8,
            },
            RoutingMsg::Announce {
                gateway: NodeId(9),
                place: 2,
                round: 14,
            },
            RoutingMsg::Load {
                gateway: NodeId(9),
                load: 512,
                seq: 3,
            },
        ];
        for msg in msgs {
            let bytes = msg.encode();
            let view = RoutingMsgView::decode(&bytes).unwrap();
            assert_eq!(view.to_owned(), msg);
        }
    }

    #[test]
    fn layout_offsets_match_the_documented_frame_layout() {
        // Tag at 0, origin/gateway at 1..5, the flood sequence at 5..13.
        assert_eq!(layout::Rreq::origin, 1);
        assert_eq!((layout::Rreq::req_id, layout::Rreq::wanted), (5, 13));
        assert_eq!((layout::Rrep::gateway, layout::Rrep::energy_pm), (13, 19));
        assert_eq!(layout::Rrep::path, 21);
        assert_eq!((layout::Data::msg_id, layout::Data::gateway), (5, 21));
        assert_eq!((layout::Data::hops, layout::Data::payload_len), (27, 31));
        assert_eq!((layout::Announce::place, layout::Announce::round), (5, 7));
        assert_eq!((layout::Load::load, layout::Load::seq), (5, 9));
    }

    #[test]
    fn decode_rejects_every_truncation_and_extension() {
        // Every truncation prefix of a valid frame must be rejected
        // (never a panic or an over-read).
        let bytes = sample_rreq().encode();
        for cut in 0..bytes.len() {
            assert!(
                RoutingMsgView::decode(&bytes[..cut]).is_err(),
                "decode accepted prefix {cut}"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(RoutingMsgView::decode(&extended).is_err());
    }

    fn rreq_path(frame: &[u8]) -> IdListView<'_> {
        let Ok(RoutingMsgView::Rreq { path, .. }) = RoutingMsgView::decode(frame) else {
            panic!("not an RREQ");
        };
        path
    }

    #[test]
    fn append_forward_equals_decode_push_reencode() {
        let frame = sample_rreq().encode();
        let mut out = Vec::new();
        rreq_append_forward(&frame, rreq_path(&frame), NodeId(55), &mut out).unwrap();

        let RoutingMsg::Rreq {
            origin,
            req_id,
            mut path,
            wanted,
        } = RoutingMsg::decode(&frame).unwrap()
        else {
            unreachable!()
        };
        path.push(NodeId(55));
        let expected = RoutingMsg::Rreq {
            origin,
            req_id,
            path,
            wanted,
        }
        .encode();
        assert_eq!(out, expected);
        // The wanted region is copied verbatim, byte-for-byte — never
        // re-serialised on forward.
        let wanted_end = layout::Rreq::wanted + 2 + 4;
        assert_eq!(&out[..wanted_end], &frame[..wanted_end]);
    }

    #[test]
    fn append_forward_rejects_a_full_path() {
        let full = RoutingMsg::Rreq {
            origin: NodeId(0),
            req_id: 0,
            path: (0..MAX_PATH as u32).map(NodeId).collect(),
            wanted: vec![],
        }
        .encode();
        let mut out = Vec::new();
        assert_eq!(
            rreq_append_forward(&full, rreq_path(&full), NodeId(9), &mut out),
            Err(DecodeError::LengthOutOfRange(MAX_PATH + 1))
        );
    }

    #[test]
    fn non_zero_padding_is_rejected() {
        let mut bytes = RoutingMsg::Data {
            origin: NodeId(2),
            msg_id: 5,
            sent_at: 77,
            gateway: NodeId(50),
            place: 3,
            hops: 2,
            payload_len: 8,
        }
        .encode();
        assert!(RoutingMsgView::decode(&bytes).is_ok());
        bytes[layout::Data::payload_len + 2 + 7] = 1;
        assert_eq!(
            RoutingMsgView::decode(&bytes),
            Err(DecodeError::NonZeroPadding)
        );
    }

    #[test]
    fn rrep_energy_patch_equals_reencode() {
        let msg = RoutingMsg::Rrep {
            origin: NodeId(7),
            req_id: 99,
            gateway: NodeId(100),
            place: 4,
            energy_pm: 512,
            path: vec![NodeId(7), NodeId(3)],
        };
        let frame = msg.encode();
        let mut out = Vec::new();
        rrep_energy_patch(&frame, 300, &mut out).unwrap();
        let expected = RoutingMsg::Rrep {
            origin: NodeId(7),
            req_id: 99,
            gateway: NodeId(100),
            place: 4,
            energy_pm: 300,
            path: vec![NodeId(7), NodeId(3)],
        }
        .encode();
        assert_eq!(out, expected);
    }

    #[test]
    fn data_hops_patch_equals_reencode() {
        let msg = RoutingMsg::Data {
            origin: NodeId(2),
            msg_id: 5,
            sent_at: 77,
            gateway: NodeId(50),
            place: 3,
            hops: 2,
            payload_len: 16,
        };
        let frame = msg.encode();
        let mut out = Vec::new();
        data_hops_patch(&frame, 3, &mut out).unwrap();
        let expected = RoutingMsg::Data {
            origin: NodeId(2),
            msg_id: 5,
            sent_at: 77,
            gateway: NodeId(50),
            place: 3,
            hops: 3,
            payload_len: 16,
        }
        .encode();
        assert_eq!(out, expected);
    }

    #[test]
    fn encode_rrep_into_equals_owned_encode() {
        let rreq = sample_rreq().encode();
        let path = rreq_path(&rreq);
        let mut out = Vec::new();
        encode_rrep_into(
            &mut out,
            NodeId(7),
            99,
            NodeId(100),
            4,
            512,
            path,
            Some(NodeId(55)),
            &[NodeId(60), NodeId(61)],
        );
        let expected = RoutingMsg::Rrep {
            origin: NodeId(7),
            req_id: 99,
            gateway: NodeId(100),
            place: 4,
            energy_pm: 512,
            path: vec![
                NodeId(7),
                NodeId(3),
                NodeId(12),
                NodeId(55),
                NodeId(60),
                NodeId(61),
            ],
        }
        .encode();
        assert_eq!(out, expected);
    }

    #[test]
    fn path_uniqueness_matches_hashset_semantics() {
        let rreq = sample_rreq().encode(); // path 7, 3, 12
        let path = rreq_path(&rreq);
        assert!(path_with_suffix_is_unique(path, NodeId(55), &[NodeId(60)]));
        // me collides with the prefix
        assert!(!path_with_suffix_is_unique(path, NodeId(3), &[]));
        // relay collides with the prefix
        assert!(!path_with_suffix_is_unique(path, NodeId(55), &[NodeId(7)]));
        // relay collides with me
        assert!(!path_with_suffix_is_unique(path, NodeId(55), &[NodeId(55)]));
        // duplicate inside relays
        assert!(!path_with_suffix_is_unique(
            path,
            NodeId(55),
            &[NodeId(60), NodeId(60)]
        ));
    }
}
