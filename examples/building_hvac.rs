//! Building HVAC monitoring — Sereiko's original WMSN motivation (the
//! paper's reference [14]: "wireless mesh sensor networks enable building
//! owners … to easily monitor HVAC performance"), exercising the full
//! three-layer architecture of Fig. 1 end to end:
//!
//!   sensors (802.15.4) → WMGs → mesh backbone (802.11, WMRs) → base
//!   station → "Internet".
//!
//! A 200 m building wing with 80 temperature sensors, 3 dual-radio WMGs,
//! a 2×2 grid of WMRs, and one base station on the roof. Every reading a
//! WMG absorbs is forwarded across the link-state backbone; we verify the
//! base station sees them all.
//!
//! ```sh
//! cargo run --release --example building_hvac
//! ```

use wmsn::core::builder::build_three_tier;
use wmsn::core::drivers::MlrDriver;
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::core::wmg::WmgBehavior;
use wmsn::prelude::*;
use wmsn::routing::mesh::MeshNode;
use wmsn::topology::Deployment;

fn main() {
    let field = FieldParams {
        field: Rect::field(200.0, 200.0),
        range_m: 30.0,
        deployment: Deployment::JitteredGrid { n: 80, jitter: 6.0 },
        battery_j: 10.0,
        ..FieldParams::default_uniform(80, 7)
    };
    let gateways = GatewayParams {
        m: 3,
        place_grid: (3, 3),
        ..GatewayParams::default_three()
    };
    let (scen, base, wmrs) = build_three_tier(
        &field,
        &gateways,
        TrafficParams::default(),
        (2, 2),                   // WMR grid
        Point::new(100.0, 270.0), // base station on the roof
        160.0,                    // backbone radio range
    );
    println!(
        "architecture: {} sensors, {} WMGs, {} WMRs, 1 base station",
        scen.sensors.len(),
        scen.gateways.len(),
        wmrs.len()
    );

    // The WMGs are the scenario's gateways, static at their places.
    let wmgs = scen.gateways.clone();
    let mut driver = MlrDriver::new(scen);

    // Let hellos + LSAs converge on the backbone before sensor traffic.
    driver.scenario.world.run_until(2_000_000);

    for _ in 0..2 {
        let round = driver.run_round();
        println!(
            "round {}: {}/{} sensor readings reached a WMG ({:.0}%)",
            round.round,
            round.delivered,
            round.originated,
            round.delivery_ratio() * 100.0
        );
    }
    driver.scenario.world.run_for(2_000_000);

    let world = &driver.scenario.world;
    let absorbed: u64 = wmgs
        .iter()
        .map(|&g| {
            world
                .behavior_as::<WmgBehavior>(g)
                .unwrap()
                .gateway
                .absorbed
        })
        .sum();
    let uplinked: u64 = wmgs
        .iter()
        .map(|&g| world.behavior_as::<WmgBehavior>(g).unwrap().uplinked)
        .sum();
    let at_base = world.behavior_as::<MeshNode>(base).unwrap().delivered.len() as u64;

    println!("\nWMGs absorbed  : {absorbed} readings");
    println!("uplinked       : {uplinked} onto the 802.11 backbone");
    println!("base station   : {at_base} readings received end-to-end");
    assert_eq!(
        absorbed, uplinked,
        "every absorbed reading must be uplinked"
    );
    assert_eq!(uplinked, at_base, "the backbone must lose nothing");
    assert!(
        absorbed as f64 >= 0.95 * 160.0,
        "coverage too low: {absorbed}"
    );
    println!("ok: Fig. 1's three layers carried every reading to the Internet side.");
}
