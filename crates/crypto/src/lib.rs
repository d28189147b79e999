//! Symmetric-key cryptography substrate for SecMLR (§6 of the paper).
//!
//! The paper's secure routing protocol needs exactly the toolbox that
//! TinySec/SPINS-era sensor networks assumed:
//!
//! * a lightweight block cipher — we implement **Speck** (NSA, 2013) in the
//!   Speck64/128 and Speck128/128 variants ([`speck`]);
//! * stream encryption keyed per (sensor, gateway) pair with an incremental
//!   counter `C` — CTR mode ([`ctr`]);
//! * message authentication — CMAC over Speck64/128 ([`mac`]);
//! * a one-way function for μTESLA key chains — Davies–Meyer/
//!   Merkle–Damgård over Speck128/128 ([`hash`]);
//! * μTESLA authenticated broadcast with delayed key disclosure
//!   ([`tesla`]), used for gateway move announcements (§6.2.3);
//! * pre-distributed pairwise keys `K_ij` and replay counters ([`keys`]);
//! * an encrypt-then-MAC envelope `{M}<K,C>, MAC(K, C | {M}<K,C>)`
//!   matching Figs. 4–6 ([`envelope`]).
//!
//! No cryptography crates exist in the offline dependency set, so all
//! primitives are implemented here from their published specifications and
//! validated against official test vectors in the unit tests.
//!
//! **Scope note:** this code is written for protocol-level fidelity inside
//! a simulator (correct algorithms, real byte-level authentication), not as
//! a hardened production crypto library (no constant-time guarantees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctr;
pub mod envelope;
pub mod hash;
pub mod keys;
pub mod mac;
pub mod speck;
pub mod tesla;

pub use envelope::{open, seal, SealedMessage, SealedView};
pub use hash::Digest;
pub use keys::{Key128, KeyStore, ReplayGuard};
pub use mac::Tag;
pub use tesla::{TeslaBroadcaster, TeslaReceiver};
