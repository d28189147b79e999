//! SecMLR wire formats — the concrete byte layouts of Figs. 4–6.
//!
//! The five messages are declared once, in the [`packet_schema!`] table
//! below; it generates the owned [`SecMsg`] with its encoder, the
//! borrowed [`SecMsgView`] with the one decoder (paths, query sections
//! and sealed sections stay in the received frame) and the byte offsets
//! in [`layout`].
//!
//! Design notes carried over from the paper:
//!
//! * The `path` field of a query/response is **plaintext**: intermediate
//!   sensors must append themselves (query) or locate themselves
//!   (response relay) without holding the pair key. Integrity of the
//!   *chosen* path is enforced end-to-end: the gateway MACs the response
//!   path, so a tampered response is dropped by the source; a tampered
//!   query path at worst advertises a non-existent route that then simply
//!   fails to relay (and the minimum-hop collection at the gateway makes
//!   inflated paths lose).
//! * The RI header of DATA (Fig. 6) — source, destination, immediate
//!   sender, immediate receiver — is plaintext at fixed offsets and
//!   rewritten hop by hop; payload confidentiality and integrity come
//!   from the sealed section, which transit nodes never open.
//! * Counters ride in clear and are authenticated inside the MAC
//!   ([`wmsn_crypto::envelope`]).
//!
//! [`packet_schema!`]: wmsn_util::packet_schema

use wmsn_crypto::mac::Tag;
use wmsn_crypto::{SealedMessage, SealedView};
use wmsn_util::codec::{self, DecodeError, Field, IdList, List, Reader, Writer};
use wmsn_util::NodeId;

/// Maximum accepted path length.
pub const MAX_PATH: usize = 512;

/// One gateway-specific authentication section of a query (Fig. 4's
/// `{req}<K_ij,C>, MAC{K_ij, C|{req}}` for a single `G_j`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuerySection {
    /// Target gateway.
    pub gateway: NodeId,
    /// The sealed `req` (carries the counter and the MAC).
    pub sealed: SealedMessage,
}

/// On the air a section is its gateway id followed by its sealed `req`;
/// viewed as that pair.
impl Field for QuerySection {
    type Owned = QuerySection;
    type View<'a> = (NodeId, SealedView<'a>);
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<Self::View<'a>, DecodeError> {
        <(NodeId, SealedMessage)>::read(r)
    }
    #[inline]
    fn write(w: &mut Writer, s: &QuerySection) {
        NodeId::write(w, &s.gateway);
        SealedMessage::write(w, &s.sealed);
    }
    fn own((gateway, sealed): Self::View<'_>) -> QuerySection {
        QuerySection {
            gateway,
            sealed: SealedMessage::own(sealed),
        }
    }
}

wmsn_util::packet_schema! {
    /// A SecMLR message.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub enum SecMsg;
    /// Borrowed decode of a SecMLR frame: paths, query sections and
    /// sealed sections are views over the received bytes.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum SecMsgView<'a>;
    /// Fixed byte offsets of the SecMLR frames' fields.
    pub mod layout;

    /// Flooded routing query (Fig. 4).
    0x50 Rreq {
        /// Query origin.
        origin: NodeId,
        /// Origin-unique query id (plaintext; the authenticated copy is
        /// inside each sealed section).
        req_id: u64,
        /// Path walked so far, starting at `origin`.
        path: IdList<MAX_PATH>,
        /// One sealed section per target gateway.
        sections: List<QuerySection, 256>,
    }
    /// Routing response (Fig. 5), relayed back along `path`.
    0x51 Rres {
        /// Origin the response answers.
        origin: NodeId,
        /// Responding gateway.
        gateway: NodeId,
        /// Gateway's feasible place.
        place: u16,
        /// The chosen minimum-hop path `[origin, …, gateway]`.
        path: IdList<MAX_PATH>,
        /// Sealed `res` (authenticates req_id, place and the path).
        sealed: SealedMessage,
    }
    /// Data (Fig. 6): RI header + sealed payload.
    0x52 Data {
        /// RI: source sensor.
        source: NodeId,
        /// RI: destination gateway.
        destination: NodeId,
        /// RI: immediate sender (rewritten per hop).
        is: NodeId,
        /// RI: immediate receiver (rewritten per hop).
        ir: NodeId,
        /// Radio hops so far (metrics; not security-relevant).
        hops: u32,
        /// Sealed application payload.
        sealed: SealedMessage,
    }
    /// μTESLA-authenticated gateway move announcement (§6.2.3).
    0x53 Announce {
        /// Moving gateway.
        gateway: NodeId,
        /// New place.
        place: u16,
        /// Round number.
        round: u32,
        /// μTESLA interval index the MAC key belongs to.
        interval: u64,
        /// μTESLA MAC over (gateway, place, round).
        tesla_tag: Tag,
    }
    /// μTESLA delayed key disclosure.
    0x54 Disclose {
        /// Disclosing gateway.
        gateway: NodeId,
        /// Interval whose key is disclosed.
        interval: u64,
        /// The chain key.
        key: [u8; 16],
    }
}

/// Build the frame an intermediate re-floods — the received SRREQ with
/// `me` appended to its path — as two memcpys around the appended id,
/// patching the path count in place. The sealed sections pass through
/// byte-for-byte (envelope passthrough); no section is decoded, so the
/// result is identical to decode → `path.push(me)` → re-encode.
pub fn srreq_append_forward(
    frame: &[u8],
    me: NodeId,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    codec::append_id(frame, layout::Rreq::path, MAX_PATH, me.0, out)
}

/// Rewrite a decoded SDATA frame for the next hop: copy it into `out`
/// and patch the immediate-sender, immediate-receiver and hop fields in
/// place. The sealed payload is untouched, so the result is
/// byte-identical to decode → rewrite RI → re-encode.
pub fn sdata_forward_patch(
    frame: &[u8],
    is: NodeId,
    ir: NodeId,
    hops: u32,
    out: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    let fields: [(usize, &[u8]); 3] = [
        (layout::Data::is, &is.0.to_le_bytes()),
        (layout::Data::ir, &ir.0.to_le_bytes()),
        (layout::Data::hops, &hops.to_le_bytes()),
    ];
    codec::patch(frame, &fields, out)
}

/// The authenticated content of a `req` section: binds the query id so a
/// recorded section cannot be replayed under a different query.
pub fn req_plaintext(req_id: u64, origin: NodeId) -> Vec<u8> {
    let mut w = Writer::with_capacity(13);
    w.u8(b'Q').u64(req_id).u32(origin.0);
    w.into_bytes()
}

/// The authenticated content of a `res`: binds query id, place, and the
/// full chosen path, so neither can be altered in flight.
pub fn res_plaintext(req_id: u64, place: u16, path: &[NodeId]) -> Vec<u8> {
    let mut w = Writer::with_capacity(16 + 4 * path.len());
    w.u8(b'R').u64(req_id).u16(place);
    w.id_list(path);
    w.into_bytes()
}

/// The authenticated content of the μTESLA announce MAC.
pub fn announce_plaintext(gateway: NodeId, place: u16, round: u32) -> Vec<u8> {
    let mut w = Writer::with_capacity(11);
    w.u8(b'A').u32(gateway.0).u16(place).u32(round);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsn_crypto::{seal, Key128};

    fn sealed() -> SealedMessage {
        seal(&Key128([9; 16]), 7, b"req")
    }

    fn roundtrip(msg: SecMsg) {
        assert_eq!(SecMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn rreq_roundtrip_with_sections() {
        roundtrip(SecMsg::Rreq {
            origin: NodeId(1),
            req_id: 2,
            path: vec![NodeId(1), NodeId(5)],
            sections: vec![
                QuerySection {
                    gateway: NodeId(100),
                    sealed: sealed(),
                },
                QuerySection {
                    gateway: NodeId(101),
                    sealed: sealed(),
                },
            ],
        });
    }

    #[test]
    fn rres_and_data_roundtrip() {
        roundtrip(SecMsg::Rres {
            origin: NodeId(1),
            gateway: NodeId(100),
            place: 3,
            path: vec![NodeId(1), NodeId(2), NodeId(100)],
            sealed: sealed(),
        });
        roundtrip(SecMsg::Data {
            source: NodeId(1),
            destination: NodeId(100),
            is: NodeId(2),
            ir: NodeId(3),
            hops: 2,
            sealed: sealed(),
        });
    }

    #[test]
    fn announce_and_disclose_roundtrip() {
        roundtrip(SecMsg::Announce {
            gateway: NodeId(100),
            place: 1,
            round: 2,
            interval: 3,
            tesla_tag: Tag([1, 2, 3, 4, 5, 6, 7, 8]),
        });
        roundtrip(SecMsg::Disclose {
            gateway: NodeId(100),
            interval: 3,
            key: [0xAB; 16],
        });
    }

    #[test]
    fn truncation_and_bad_tags_rejected() {
        let bytes = SecMsg::Disclose {
            gateway: NodeId(1),
            interval: 2,
            key: [0; 16],
        }
        .encode();
        assert!(SecMsg::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(SecMsg::decode(&[0x99]).is_err());
    }

    #[test]
    fn plaintext_builders_bind_their_fields() {
        assert_ne!(req_plaintext(1, NodeId(2)), req_plaintext(2, NodeId(2)));
        assert_ne!(req_plaintext(1, NodeId(2)), req_plaintext(1, NodeId(3)));
        let p1 = res_plaintext(1, 2, &[NodeId(1), NodeId(9)]);
        let p2 = res_plaintext(1, 2, &[NodeId(1), NodeId(8)]);
        assert_ne!(p1, p2, "path must be authenticated");
        assert_ne!(
            announce_plaintext(NodeId(1), 2, 3),
            announce_plaintext(NodeId(1), 2, 4)
        );
    }

    #[test]
    fn srreq_view_matches_owned_decode_and_rejects_every_truncation() {
        let msg = SecMsg::Rreq {
            origin: NodeId(7),
            req_id: 42,
            path: vec![NodeId(7), NodeId(3)],
            sections: vec![
                QuerySection {
                    gateway: NodeId(100),
                    sealed: sealed(),
                },
                QuerySection {
                    gateway: NodeId(101),
                    sealed: sealed(),
                },
            ],
        };
        let bytes = msg.encode();
        let view = SecMsgView::decode(&bytes).unwrap();
        let SecMsgView::Rreq {
            origin,
            req_id,
            path,
            sections,
        } = view
        else {
            panic!("not an RREQ: {view:?}");
        };
        assert_eq!((origin, req_id), (NodeId(7), 42));
        assert_eq!(path.iter().collect::<Vec<_>>(), vec![7, 3]);
        let gateways: Vec<NodeId> = sections.iter().map(|(g, _)| g).collect();
        assert_eq!(gateways, vec![NodeId(100), NodeId(101)]);
        assert_eq!(view.to_owned(), msg);
        // Every truncation prefix fails; so does a trailing byte.
        for cut in 0..bytes.len() {
            assert!(SecMsgView::decode(&bytes[..cut]).is_err());
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(SecMsgView::decode(&long).is_err());
    }

    #[test]
    fn srreq_append_forward_equals_push_and_reencode() {
        let msg = SecMsg::Rreq {
            origin: NodeId(7),
            req_id: 42,
            path: vec![NodeId(7), NodeId(3)],
            sections: vec![QuerySection {
                gateway: NodeId(100),
                sealed: sealed(),
            }],
        };
        let bytes = msg.encode();
        let mut out = Vec::new();
        srreq_append_forward(&bytes, NodeId(9), &mut out).unwrap();
        let expected = SecMsg::Rreq {
            origin: NodeId(7),
            req_id: 42,
            path: vec![NodeId(7), NodeId(3), NodeId(9)],
            sections: vec![QuerySection {
                gateway: NodeId(100),
                sealed: sealed(),
            }],
        }
        .encode();
        assert_eq!(out, expected);
    }

    #[test]
    fn sdata_view_and_forward_patch_equal_decode_and_reencode() {
        let msg = SecMsg::Data {
            source: NodeId(1),
            destination: NodeId(100),
            is: NodeId(2),
            ir: NodeId(3),
            hops: 2,
            sealed: sealed(),
        };
        let bytes = msg.encode();
        assert!(matches!(
            SecMsgView::decode(&bytes),
            Ok(SecMsgView::Data {
                source: NodeId(1),
                destination: NodeId(100),
                ir: NodeId(3),
                hops: 2,
                ..
            })
        ));
        for cut in 0..bytes.len() {
            assert!(SecMsgView::decode(&bytes[..cut]).is_err());
        }
        let mut out = Vec::new();
        sdata_forward_patch(&bytes, NodeId(3), NodeId(4), 3, &mut out).unwrap();
        let expected = SecMsg::Data {
            source: NodeId(1),
            destination: NodeId(100),
            is: NodeId(3),
            ir: NodeId(4),
            hops: 3,
            sealed: sealed(),
        }
        .encode();
        assert_eq!(out, expected);
        // The RI words sit where the pre-schema layout put them.
        assert_eq!(
            (layout::Data::is, layout::Data::ir, layout::Data::hops),
            (9, 13, 17)
        );
    }

    #[test]
    fn oversized_section_count_rejected() {
        // Craft a header claiming 300 sections.
        let mut w = Writer::new();
        w.u8(0x50).u32(1).u64(1);
        w.id_list(&[NodeId(1)]);
        w.u16(300);
        assert!(matches!(
            SecMsg::decode(&w.into_bytes()),
            Err(DecodeError::LengthOutOfRange(300))
        ));
    }
}
