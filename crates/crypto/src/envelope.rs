//! The SecMLR message envelope: `{M}<K_ij,C> , MAC(K_ij, C | {M}<K_ij,C>)`.
//!
//! Every protected SecMLR field follows the same shape (Figs. 4–6):
//! encrypt-then-MAC under the pairwise key with the incremental counter
//! `C` bound into both the keystream and the MAC. [`seal`] produces the
//! pair; [`open`] verifies freshness is *not* checked here (the caller owns
//! the [`crate::keys::ReplayGuard`]) but authenticity and integrity are.

use crate::ctr;
use crate::keys::Key128;
use crate::mac::{mac_with_counter, Tag};
use wmsn_util::codec::{DecodeError, Field, Reader, Writer};

/// A sealed (encrypted + authenticated) message plus its counter.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SealedMessage {
    /// The counter `C` the message was sealed under (travels in clear; it
    /// is authenticated by the tag).
    pub counter: u64,
    /// CTR ciphertext of the plaintext.
    pub ciphertext: Vec<u8>,
    /// `MAC(K, C | ciphertext)`.
    pub tag: Tag,
}

impl SealedMessage {
    /// Wire size in bytes (counter + length prefix + ciphertext + tag),
    /// used by the energy model to charge for security overhead.
    pub fn wire_len(&self) -> usize {
        8 + 2 + self.ciphertext.len() + 8
    }
}

/// Borrowed view of a [`SealedMessage`] inside a received frame. On the
/// air a sealed section is `| 8 counter | 2 clen | clen ciphertext | 8
/// mac |` — the [`Field`] kind of SecMLR's sealed fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SealedView<'a> {
    /// The counter `C`.
    pub counter: u64,
    /// The ciphertext bytes.
    pub ciphertext: &'a [u8],
    /// The MAC.
    pub tag: Tag,
}

impl Field for SealedMessage {
    type Owned = SealedMessage;
    type View<'a> = SealedView<'a>;
    const SIZE: Option<usize> = None;
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<SealedView<'a>, DecodeError> {
        Ok(SealedView {
            counter: r.u64()?,
            ciphertext: r.bytes(u16::MAX as usize)?,
            tag: Tag::read(r)?,
        })
    }
    #[inline]
    fn write(w: &mut Writer, s: &SealedMessage) {
        w.u64(s.counter).bytes(&s.ciphertext).raw(&s.tag.0);
    }
    fn own(v: SealedView<'_>) -> SealedMessage {
        SealedMessage {
            counter: v.counter,
            ciphertext: v.ciphertext.to_vec(),
            tag: v.tag,
        }
    }
}

/// Seal `plaintext` under `key` with counter `counter`.
pub fn seal(key: &Key128, counter: u64, plaintext: &[u8]) -> SealedMessage {
    let ciphertext = ctr::encrypt(key, counter, plaintext);
    let tag = mac_with_counter(key, counter, &ciphertext);
    SealedMessage {
        counter,
        ciphertext,
        tag,
    }
}

/// Verify and decrypt. Returns `None` if the tag does not match (forgery
/// or tampering); freshness must be checked by the caller against its
/// replay guard.
pub fn open(key: &Key128, sealed: &SealedMessage) -> Option<Vec<u8>> {
    let expected = mac_with_counter(key, sealed.counter, &sealed.ciphertext);
    if !expected.verify(&sealed.tag) {
        return None;
    }
    Some(ctr::decrypt(key, sealed.counter, &sealed.ciphertext))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key128 = Key128([0x77; 16]);

    #[test]
    fn seal_open_roundtrip() {
        let sealed = seal(&KEY, 42, b"req: S3 -> G1");
        assert_eq!(open(&KEY, &sealed).unwrap(), b"req: S3 -> G1");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let mut sealed = seal(&KEY, 42, b"req: S3 -> G1");
        sealed.ciphertext[3] ^= 0x40;
        assert!(open(&KEY, &sealed).is_none());
    }

    #[test]
    fn tampered_counter_rejected() {
        let mut sealed = seal(&KEY, 42, b"req");
        sealed.counter = 43;
        assert!(open(&KEY, &sealed).is_none(), "counter is authenticated");
    }

    #[test]
    fn tampered_tag_rejected() {
        let mut sealed = seal(&KEY, 42, b"req");
        sealed.tag.0[0] ^= 1;
        assert!(open(&KEY, &sealed).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let sealed = seal(&KEY, 42, b"req");
        assert!(open(&Key128([0x78; 16]), &sealed).is_none());
    }

    #[test]
    fn empty_plaintext_works() {
        let sealed = seal(&KEY, 1, b"");
        assert_eq!(open(&KEY, &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn same_plaintext_different_counters_differ_on_the_wire() {
        let a = seal(&KEY, 1, b"DATA temperature=21");
        let b = seal(&KEY, 2, b"DATA temperature=21");
        assert_ne!(a.ciphertext, b.ciphertext);
        assert_ne!(a.tag, b.tag);
    }

    #[test]
    fn wire_len_accounts_for_all_fields() {
        let sealed = seal(&KEY, 1, b"12345");
        assert_eq!(sealed.wire_len(), 8 + 2 + 5 + 8);
    }
}
