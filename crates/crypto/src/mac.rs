//! CMAC (OMAC1, NIST SP 800-38B) over Speck64/128.
//!
//! SecMLR authenticates every routing packet with
//! `MAC(K_ij, C | {msg}<K_ij,C>)` (§6.2.1–6.2.4). We use CMAC because,
//! unlike raw CBC-MAC, it is secure for variable-length messages — routing
//! packets carry variable-length `path_ij(k)` fields. The 64-bit tag is in
//! line with sensor-network practice (TinySec shipped 32-bit tags).

use crate::keys::Key128;
use crate::speck::Speck64;
use wmsn_util::codec::{DecodeError, Field, Reader, Writer};

/// A 64-bit authentication tag.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Tag(pub [u8; 8]);

impl Field for Tag {
    type Owned = Tag;
    type View<'a> = Tag;
    const SIZE: Option<usize> = Some(8);
    #[inline(always)]
    fn read<'a>(r: &mut Reader<'a>) -> Result<Tag, DecodeError> {
        r.array().map(Tag)
    }
    #[inline]
    fn write(w: &mut Writer, t: &Tag) {
        w.raw(&t.0);
    }
    #[inline]
    fn own(t: Tag) -> Tag {
        t
    }
}

impl Tag {
    /// Constant-shape comparison (bitwise OR of differences). The
    /// simulator has no timing side channels, but we keep the idiom.
    pub fn verify(&self, other: &Tag) -> bool {
        let mut diff = 0u8;
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

/// The CMAC subkey doubling: multiply by x in GF(2^64) with the
/// polynomial x^64 + x^4 + x^3 + x + 1 (Rb = 0x1B).
fn dbl(block: u64) -> u64 {
    let carry = block >> 63;
    (block << 1) ^ (carry * 0x1B)
}

fn block_to_u64(b: &[u8; 8]) -> u64 {
    u64::from_be_bytes(*b)
}

fn u64_to_block(v: u64) -> [u8; 8] {
    v.to_be_bytes()
}

/// Compute `CMAC(key, msg)`.
pub fn cmac(key: &Key128, msg: &[u8]) -> Tag {
    let cipher = key.cipher();
    cmac_with(&cipher, msg)
}

/// CMAC with an already-expanded cipher (hot paths reuse the schedule).
pub fn cmac_with(cipher: &Speck64, msg: &[u8]) -> Tag {
    // Subkeys K1, K2 from L = E_K(0).
    let mut l = [0u8; 8];
    cipher.encrypt_block(&mut l);
    let k1 = dbl(block_to_u64(&l));
    let k2 = dbl(k1);

    let n_blocks = msg.len().div_ceil(8).max(1);
    let complete_last = !msg.is_empty() && msg.len().is_multiple_of(8);

    let mut state = [0u8; 8];
    // All blocks but the last: plain CBC.
    for i in 0..n_blocks - 1 {
        for (s, m) in state.iter_mut().zip(&msg[i * 8..i * 8 + 8]) {
            *s ^= m;
        }
        cipher.encrypt_block(&mut state);
    }
    // Last block: XOR with K1 (complete) or pad + XOR with K2.
    let mut last = [0u8; 8];
    let tail = &msg[(n_blocks - 1) * 8..];
    last[..tail.len()].copy_from_slice(tail);
    let subkey = if complete_last {
        k1
    } else {
        last[tail.len()] = 0x80;
        k2
    };
    let masked = u64_to_block(block_to_u64(&last) ^ subkey);
    for (s, m) in state.iter_mut().zip(&masked) {
        *s ^= m;
    }
    cipher.encrypt_block(&mut state);
    Tag(state)
}

/// MAC over a counter and a message: the paper's
/// `MAC(K_ij, C | {msg}<K_ij,C>)` shape used by every SecMLR packet.
pub fn mac_with_counter(key: &Key128, counter: u64, msg: &[u8]) -> Tag {
    let mut buf = Vec::with_capacity(8 + msg.len());
    buf.extend_from_slice(&counter.to_le_bytes());
    buf.extend_from_slice(msg);
    cmac(key, &buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: Key128 = Key128([0x42; 16]);

    #[test]
    fn deterministic_for_same_inputs() {
        assert_eq!(cmac(&KEY, b"hello"), cmac(&KEY, b"hello"));
    }

    #[test]
    fn distinct_messages_distinct_tags() {
        assert_ne!(cmac(&KEY, b"hello"), cmac(&KEY, b"hellp"));
        assert_ne!(cmac(&KEY, b""), cmac(&KEY, b"\0"));
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        assert_ne!(cmac(&KEY, b"msg"), cmac(&Key128([0x43; 16]), b"msg"));
    }

    #[test]
    fn length_extension_shapes_differ() {
        // CBC-MAC's classic failure: MAC(m) == prefix state of MAC(m||m').
        // CMAC's subkey masking must break the padding relation: a message
        // equal to another plus its 10* padding gets a different tag.
        let m = b"abc";
        let mut padded = m.to_vec();
        padded.push(0x80);
        while !padded.len().is_multiple_of(8) {
            padded.push(0);
        }
        assert_ne!(cmac(&KEY, m), cmac(&KEY, &padded));
    }

    #[test]
    fn boundary_lengths() {
        // Empty, one byte, exactly one block, one over, several blocks.
        for len in [0usize, 1, 7, 8, 9, 16, 17, 64, 65] {
            let msg = vec![0xA5u8; len];
            let t = cmac(&KEY, &msg);
            assert_eq!(t, cmac(&KEY, &msg), "len {len} not deterministic");
            if len > 0 {
                let mut flipped = msg.clone();
                flipped[len / 2] ^= 0x01;
                assert_ne!(t, cmac(&KEY, &flipped), "len {len} tamper undetected");
            }
        }
    }

    #[test]
    fn verify_matches_equality() {
        let a = cmac(&KEY, b"x");
        let b = cmac(&KEY, b"x");
        let c = cmac(&KEY, b"y");
        assert!(a.verify(&b));
        assert!(!a.verify(&c));
    }

    #[test]
    fn counter_binding_changes_tag() {
        let t1 = mac_with_counter(&KEY, 1, b"payload");
        let t2 = mac_with_counter(&KEY, 2, b"payload");
        assert_ne!(t1, t2, "counter must be authenticated");
    }

    #[test]
    fn counter_and_message_boundary_is_unambiguous() {
        // (C=0x01, msg="") must differ from (C=0, msg="\x01\0\0\0\0\0\0\0")
        // ... they actually produce the same concatenation; CMAC over the
        // same bytes is equal. What matters is that the *decoder* parses C
        // from a fixed-width field — assert the fixed width here.
        let t1 = mac_with_counter(&KEY, 0x01, b"");
        let t2 = cmac(&KEY, &[1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(t1, t2, "counter is a fixed 8-byte LE field");
    }

    #[test]
    fn dbl_implements_gf2_64() {
        // MSB clear: plain shift. MSB set: shift then XOR 0x1B.
        assert_eq!(dbl(0x0000_0000_0000_0001), 2);
        assert_eq!(dbl(0x8000_0000_0000_0000), 0x1B);
        assert_eq!(dbl(0xC000_0000_0000_0000), 0x8000_0000_0000_001B);
    }

    #[test]
    fn tag_bits_look_balanced() {
        // Sanity: over many tags, each output bit is sometimes 0, sometimes 1.
        let mut ones = [0u32; 64];
        let n = 256u32;
        for i in 0..n {
            let t = cmac(&KEY, &i.to_le_bytes());
            let v = u64::from_le_bytes(t.0);
            for (b, cnt) in ones.iter_mut().enumerate() {
                *cnt += ((v >> b) & 1) as u32;
            }
        }
        for (b, &c) in ones.iter().enumerate() {
            assert!(c > 64 && c < 192, "bit {b} biased: {c}/{n}");
        }
    }
}
