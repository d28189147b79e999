//! Battlefield deployment under attack — the paper's motivating setting
//! for SecMLR (§6: "applications of wireless sensor networks often
//! include sensitive information such as enemy movement on the
//! battlefield").
//!
//! Runs the E6 attack matrix: each network-layer attack from the §2.3
//! taxonomy against both plain MLR and SecMLR, printing the delivery
//! ratios side by side.
//!
//! ```sh
//! cargo run --release --example battlefield_secure
//! ```

use wmsn::attacks::sinkhole::TargetProtocol;
use wmsn::core::experiments::{run_attack_cell, Attack};

fn main() {
    println!("{:<16} {:>14} {:>14}", "attack", "MLR", "SecMLR");
    println!("{}", "-".repeat(46));
    let mut mlr_hurt = 0;
    let mut sec_hurt = 0;
    let baseline_mlr = run_attack_cell(TargetProtocol::Mlr, Attack::None, 1, None)
        .0
        .delivery_ratio;
    let baseline_sec = run_attack_cell(TargetProtocol::SecMlr, Attack::None, 1, None)
        .0
        .delivery_ratio;
    for attack in Attack::all() {
        let mlr = run_attack_cell(TargetProtocol::Mlr, attack, 1, None).0;
        let sec = run_attack_cell(TargetProtocol::SecMlr, attack, 1, None).0;
        println!(
            "{:<16} {:>13.0}% {:>13.0}%",
            format!("{attack:?}"),
            mlr.delivery_ratio * 100.0,
            sec.delivery_ratio * 100.0
        );
        if mlr.delivery_ratio < baseline_mlr - 0.15 {
            mlr_hurt += 1;
        }
        if sec.delivery_ratio < baseline_sec - 0.15 {
            sec_hurt += 1;
        }
        if attack == Attack::Replay {
            println!(
                "{:<16} {:>13} {:>13}",
                "  (duplicates)", mlr.duplicate_deliveries, sec.duplicate_deliveries
            );
        }
    }
    println!("\nattacks that materially hurt delivery: MLR {mlr_hurt}, SecMLR {sec_hurt}");
    assert!(
        sec_hurt < mlr_hurt,
        "SecMLR must resist attacks that break plain MLR"
    );
    println!("ok: SecMLR resists the routing attacks that degrade plain MLR (§6).");
}
