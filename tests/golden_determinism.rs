//! Golden determinism: simulation metrics are bit-identical run to run
//! and release to release.
//!
//! Determinism is a hard invariant of the simulator (same seed → same
//! metrics, bit for bit), and the hot-path work (allocation-free
//! fan-out, incremental adjacency, dense medium state) must not shift a
//! single reception. This test runs the E1, E2, E3, E5, E6, E7, E8,
//! E10, E12, E13, E14, E15 and E16 kernels for four fixed seeds and
//! compares every reported
//! metric against committed golden values **as raw `f64` bit patterns**
//! — an epsilon-free comparison, so even a last-ulp drift fails.
//!
//! Between them the kernels cover every builder and every round driver:
//! SPR (E1, E3), MLR with and without the table-reset ablation (E3, E5,
//! E16 via `build_mlr_with`), SecMLR (E7), LEACH and the MLR gateway
//! kill (E8), the three-tier architecture (E12) and the seven
//! single-sink baselines (E15). MLR's Table 1 place-table reuse (E2),
//! its load-balanced selection (E10, `load_alpha > 0`), sleep
//! scheduling (E13) and MLR on a lossy, colliding or CSMA medium (E14)
//! are pinned too.
//!
//! To regenerate after an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test golden_determinism -- --nocapture
//! ```
//!
//! and paste the printed table over `GOLDEN` below. Never regenerate to
//! paper over an unexplained diff.

use wmsn::core::builder::build_spr;
use wmsn::core::drivers::SprDriver;
use wmsn::core::experiments::{
    e10_load_balance, e12_backbone_fault, e12_three_tier, e13_sleep_scheduling,
    e14_loss_and_collisions, e15_baselines, e16_energy_aware, e2_table1, e3_lifetime, e5_overhead,
    e6_attacks, e7_secmlr_cost, e8_robustness,
};
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::prelude::ReportRow;

const SEEDS: [u64; 4] = [11, 23, 37, 53];

/// E1 kernel: one SPR round over a 40-sensor / 3-gateway field; the
/// densest coverage of the transmit/deliver/CSMA/energy paths.
fn e1_kernel(seed: u64) -> Vec<(&'static str, f64)> {
    let field = FieldParams::default_uniform(40, seed);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut d = SprDriver::new(scen);
    let report = d.run_round();
    let sensors = d.scenario.sensors.clone();
    let m = d.scenario.world.metrics();
    vec![
        ("e1.delivery_ratio", report.delivery_ratio()),
        ("e1.mean_hops", m.mean_hops()),
        ("e1.mean_latency_us", m.mean_latency_us()),
        ("e1.sent_data", m.sent_data as f64),
        ("e1.sent_control", m.sent_control as f64),
        ("e1.received", m.received as f64),
        ("e1.collided", m.collided as f64),
        ("e1.csma_deferrals", m.csma_deferrals as f64),
        ("e1.total_energy", m.total_energy(&sensors)),
        ("e1.energy_d2", m.energy_d2(&sensors)),
    ]
}

/// Name every row of an experiment `"<prefix>.<config> <metric>"`.
fn rows(prefix: &str, rows: Vec<ReportRow>) -> Vec<(&'static str, f64)> {
    rows.into_iter()
        .map(|r| {
            let name: &'static str =
                Box::leak(format!("{prefix}.{} {}", r.config, r.metric).into_boxed_str());
            (name, r.value)
        })
        .collect()
}

fn fingerprint(seed: u64) -> Vec<(&'static str, f64)> {
    let mut fp = e1_kernel(seed);
    // E3: lifetime-to-first-death for SPR (m=1, m=3) and MLR on a
    // 20-sensor field — node death, battery accounting, the optimum.
    fp.extend(rows("e3", e3_lifetime(&[20], seed)));
    // E5: MLR's incremental tables against the table-reset ablation.
    fp.extend(rows("e5", e5_overhead(6, seed)));
    // E7: the SecMLR driver (μTESLA settle, secure moves) beside MLR.
    fp.extend(rows("e7", e7_secmlr_cost(seed)));
    // E8: the LEACH driver with its head kill, and the MLR gateway kill.
    fp.extend(rows("e8", e8_robustness(seed)));
    // E12: the three-tier builder driven by MLR rounds, healthy and
    // with the base station killed.
    fp.extend(rows("e12", e12_three_tier(seed)));
    fp.extend(rows("e12", e12_backbone_fault(seed)));
    // E15: all seven single-sink baselines on one shared field.
    fp.extend(rows("e15", e15_baselines(seed)));
    // E16: `build_mlr_with` under the table reset, run to first death.
    fp.extend(rows("e16", e16_energy_aware(seed)));
    // E2: the Table 1 walk — place entries reused across rounds (the
    // scenario is fixed, so every seed pins the same rows).
    fp.extend(rows("e2", e2_table1()));
    // E10: MLR's load-balanced selection (α = 0 and α > 0).
    fp.extend(rows("e10", e10_load_balance(seed)));
    // E13: MLR rounds with GAF-slept sensors.
    fp.extend(rows("e13", e13_sleep_scheduling(seed)));
    // E14: MLR and SecMLR under loss, collisions and CSMA.
    fp.extend(rows("e14", e14_loss_and_collisions(seed)));
    // E6 last: the attack suite against MLR and SecMLR
    // (`zero_copy_equivalence` reads these rows as the table's tail).
    fp.extend(rows("e6", e6_attacks(seed)));
    fp
}

/// Committed golden values: `GOLDEN[i]` is the bit pattern of every
/// metric for `SEEDS[i]`, in fingerprint order.
const GOLDEN: [&[u64]; 4] = [
    GOLDEN_SEED_11,
    GOLDEN_SEED_23,
    GOLDEN_SEED_37,
    GOLDEN_SEED_53,
];

include!("golden/values.rs");

#[test]
fn metrics_are_bit_identical_for_fixed_seeds() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    for (i, &seed) in SEEDS.iter().enumerate() {
        let fp = fingerprint(seed);
        if regen {
            println!("const GOLDEN_SEED_{seed}: &[u64] = &[");
            for (name, v) in &fp {
                println!("    {:#018x}, // {} = {}", v.to_bits(), name, v);
            }
            println!("];");
            continue;
        }
        assert_eq!(
            fp.len(),
            GOLDEN[i].len(),
            "seed {seed}: fingerprint has {} metrics, golden has {}",
            fp.len(),
            GOLDEN[i].len()
        );
        for ((name, v), &gold) in fp.iter().zip(GOLDEN[i]) {
            assert_eq!(
                v.to_bits(),
                gold,
                "seed {seed} metric {name}: got {v} ({:#018x}), golden {} ({gold:#018x})",
                v.to_bits(),
                f64::from_bits(gold),
            );
        }
    }
    assert!(
        !regen,
        "GOLDEN_REGEN run: paste the printed tables into tests/golden/values.rs"
    );
}

#[test]
fn fingerprint_is_stable_within_a_process() {
    // Two in-process runs of the cheapest kernel must agree exactly —
    // catches accidental global state before it can confuse the golden
    // comparison above.
    let a = e1_kernel(SEEDS[0]);
    let b = e1_kernel(SEEDS[0]);
    for ((name, x), (_, y)) in a.iter().zip(&b) {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "metric {name} drifted within a process"
        );
    }
}
