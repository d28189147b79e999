//! Shared foundation types for the WMSN reproduction.
//!
//! This crate holds the pieces every other crate needs and that carry no
//! protocol logic of their own:
//!
//! * [`ids`] — strongly typed node identifiers ([`ids::NodeId`]) and
//!   the node-role taxonomy of the paper's three-layer architecture
//!   (sensor / wireless mesh gateway / wireless mesh router / base station).
//! * [`geom`] — 2-D geometry for deployment fields (points, distances,
//!   rectangles, unit-disk reachability).
//! * [`stats`] — running statistics, including the paper's energy-balance
//!   variance `D²` (eq. 1 of §5.3) and percentile summaries.
//! * [`rng`] — a small deterministic PRNG wrapper so simulations are
//!   bit-reproducible from a `u64` seed, plus stream-splitting.
//! * [`codec`] — byte-level encode/decode helpers used by the wire formats
//!   of the secure routing protocol (Figs. 4–6 of the paper).
//! * [`seen`] — generation-stamped duplicate-suppression tables for flood
//!   protocols (replacing per-packet `HashSet` probes on the hot path).
//! * [`pool`] — scoped worker-pool helpers: index-ordered parallel
//!   fan-out for seed sweeps and the bulk-synchronous loop driving the
//!   sharded simulation kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod geom;
pub mod ids;
pub mod json;
pub mod pool;
pub mod rng;
pub mod seen;
pub mod stats;

pub use geom::{Point, Rect};
pub use ids::{NodeId, NodeRole};
pub use rng::SplitMix64;
pub use stats::Summary;
