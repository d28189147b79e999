//! `wmsn-core` — the top of the stack: scenario construction, round
//! drivers, and the experiment runners that regenerate every figure,
//! table, and quantified claim of the paper.
//!
//! * [`params`] — declarative scenario descriptions (field, energy,
//!   gateways, movement, traffic).
//! * [`builder`] — turn parameters into one [`builder::Scenario`]: a
//!   [`wmsn_sim::World`] populated with the right behaviours, for SPR,
//!   MLR, SecMLR, LEACH, and the full three-layer architecture of Fig. 1
//!   (sensors + WMGs + WMRs + base stations) via the composite
//!   [`wmg::WmgBehavior`].
//! * [`drivers`] — one [`drivers::RoundDriver`] for every protocol:
//!   gateway movement and announcements at the round boundary, traffic
//!   generation, per-round metrics snapshots, and run-until-first-death
//!   lifetime loops; a [`drivers::Protocol`] (SPR, MLR, SecMLR, LEACH)
//!   supplies only its boundary step and origination.
//! * [`experiments`] — `e1_…` through `e18_…`, each returning
//!   [`wmsn_util::stats::ReportRow`]s; the criterion benches and the
//!   examples print these, and EXPERIMENTS.md records them against the
//!   paper.
//! * [`report`] — terminal table + JSON rendering of report rows.
//! * [`health_loop`] — the self-healing loop: drain `wmsn-health`
//!   monitor alerts and apply policy actions to the running stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod drivers;
pub mod experiments;
pub mod health_loop;
pub mod params;
pub mod report;
pub mod wmg;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use crate::builder::{
        build_leach, build_mlr, build_mlr_with, build_secmlr, build_spr, build_spr_three_tier,
        build_three_tier, Scenario, SprScenario,
    };
    pub use crate::drivers::{
        Leach, LeachDriver, LifetimeResult, Mlr, MlrDriver, Protocol, RoundDriver, RoundReport,
        SecMlr, SecMlrDriver, Spr, SprDriver,
    };
    pub use crate::health_loop::{apply_to_mlr, apply_to_secmlr, drain_actions};
    pub use crate::params::{FieldParams, GatewayParams, TrafficParams};
    pub use crate::report::{print_rows, rows_to_json};
    pub use wmsn_health::{HealthAlert, HealthConfig, HealthMonitor, HealthPolicy};
    pub use wmsn_sim::{Metrics, World, WorldConfig};
    pub use wmsn_util::stats::ReportRow;
}
