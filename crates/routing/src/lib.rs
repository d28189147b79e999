//! `wmsn-routing` — the paper's routing protocols and every baseline they
//! are argued against.
//!
//! The paper's contributions (§5):
//!
//! * [`spr`] — **Shortest Path Routing**: on-demand RREQ flooding toward
//!   all `m` gateways, cached-route short-circuit replies (Property 1),
//!   source selection of the minimum-hop gateway, and table installation
//!   along the reply/data path. Per-round table reset ("merges the
//!   advantages of table-driven and on-demand routing").
//! * [`mlr`] — **Maximal network Lifetime Routing**: the feasible-place
//!   scheme of §5.3 — routing tables *accumulate* one entry per feasible
//!   place across rounds; moved gateways announce their new place at round
//!   start; only never-seen places trigger discovery (Table 1). Optional
//!   residual-energy-aware path selection and gateway load balancing
//!   (§4.3) are implemented as flagged extensions.
//! * [`discovery`] — the machinery SPR and MLR share: one sensor core
//!   (flood, cache answers, RREP relay, DATA forwarding, retries) and
//!   one gateway, each specialised by a small per-protocol policy.
//! * [`optimal`] — the upper bound the MLR formulation (eqs. 1–6) aims
//!   at: maximum rounds before first sensor death, computed exactly by
//!   binary search over per-round flow with a Dinic max-flow feasibility
//!   oracle over the energy-capacitated graph.
//!
//! Baselines (§2) reimplemented for the comparison experiments:
//!
//! * [`flooding`] — classic data flooding (and its gossiping variant),
//!   with the implosion pathology the paper cites.
//! * [`mcfa`] — Minimum Cost Forwarding: a cost field flooded from the
//!   sink(s); data rides the gradient with no per-node routing tables.
//! * [`spin`] — SPIN's ADV/REQ/DATA negotiation, which removes
//!   flooding's implosion by transmitting payloads only where wanted.
//! * [`leach`] — LEACH cluster-head rotation, used to demonstrate the
//!   robustness argument of §2.1 (a dead head silences its cluster).
//! * [`pegasis`] — PEGASIS chain gathering with leader rotation, the
//!   LEACH improvement §2.2.2 describes.
//!
//! Plus the substrate the three-layer architecture needs:
//!
//! * [`mesh`] — a link-state protocol for the WMG/WMR backbone (hello +
//!   LSA flooding + Dijkstra), carrying sensor data from gateways to base
//!   stations (Fig. 1's upper tiers).
//!
//! All protocols are [`wmsn_sim::Behavior`]s sharing the wire formats of
//! [`wire`] and the table types of [`table`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discovery;
pub mod flooding;
pub mod leach;
pub mod mcfa;
pub mod mesh;
pub mod mlr;
pub mod optimal;
pub mod pegasis;
pub mod spin;
pub mod spr;
pub mod table;
pub mod wire;

pub use mlr::{MlrGateway, MlrSensor};
pub use optimal::optimal_lifetime_rounds;
pub use spr::{SprGateway, SprSensor};
