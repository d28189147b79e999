//! Zero-copy equivalence: the borrowed-decode / in-place-forwarding
//! control plane is observationally identical to the owned one it
//! replaced.
//!
//! The committed golden artifacts were generated *before* the zero-copy
//! rework, so they are the "before" side of the comparison:
//!
//! * one E1 round (SPR, 40 sensors, 3 gateways) must reproduce the
//!   committed metric bit patterns exactly;
//! * one E6 round (the attack suite — the densest user of the MLR and
//!   SecMLR flood paths) must reproduce its committed tail of the same
//!   golden table;
//! * the E1 JSONL trace must hash to the pinned digest, which was
//!   verified against a pre-zero-copy checkout when this test landed
//!   (E6 has no trace hook, so its equivalence is pinned via metrics);
//! * two multi-round MLR JSONL traces must hash to their pinned
//!   digests: rotating gateways (moves, cache replies, targeted
//!   `wanted` lists) under pure minimum-hop selection, and the same
//!   field under load-balanced and energy-aware selection. These pin
//!   the order of every `RouteSelect`/`Forward` pair, which the metrics
//!   and the perfbench MLR digest (counts and sizes only) cannot.
//!
//! The digests were re-pinned when the sharded kernel landed: causal
//! event keys (`node << 32 | per-node counter`, replacing the global
//! insertion counter as the event tiebreaker) reorder same-microsecond
//! trace lines, so the byte stream changed while the metric bit
//! patterns above did not. The new digests were verified identical
//! between the reference and sharded kernels by
//! `tests/shard_equivalence.rs` before being pinned here.
//!
//! To regenerate the digest after an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test zero_copy_equivalence -- --nocapture
//! ```

use wmsn::core::builder::{build_mlr_with, build_spr};
use wmsn::core::drivers::{MlrDriver, SprDriver};
use wmsn::core::experiments::e6_attacks;
use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn::routing::mlr::{MlrConfig, MlrGateway};
use wmsn::trace::BufferSink;

const GOLDEN: [&[u64]; 4] = [
    GOLDEN_SEED_11,
    GOLDEN_SEED_23,
    GOLDEN_SEED_37,
    GOLDEN_SEED_53,
];

include!("golden/values.rs");

/// FNV-1a 64 over the trace bytes — cheap, dependency-free, and stable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pinned digests of the E1 trace JSONL, one per traced seed. Verified
/// byte-identical against the pre-zero-copy tree when introduced.
const E1_TRACE_FNV: [(u64, u64); 2] = [(11, 0x91bf92fa3aeeb67f), (23, 0x9761ea7e6a2dce79)];

/// Pinned digests of multi-round MLR JSONL traces (seed 11): `(label,
/// load_alpha, energy_slack, digest)`. A positive `load_alpha` also has
/// every gateway advertise its load after each round.
const MLR_TRACE_FNV: [(&str, f64, u32, u64); 3] = [
    ("min_hop", 0.0, 0, 0x470a1ffa031fb8bb),
    ("load_balanced", 4.0, 0, 0x802875cd6c5c2c8c),
    ("energy_aware", 0.0, 2, 0xe29a322ac4796205),
];

/// Four MLR rounds on a 60-sensor field (2 J batteries, so residual
/// energy differs between relays) with three gateways rotating
/// round-robin over a 3×3 place grid, traced to JSONL.
fn mlr_rounds_trace(load_alpha: f64, energy_slack: u32) -> String {
    let scen = build_mlr_with(
        &FieldParams {
            battery_j: 2.0,
            ..FieldParams::default_uniform(60, 11)
        },
        &GatewayParams::rotating(3, 3, 3),
        TrafficParams::default(),
        MlrConfig {
            load_alpha,
            energy_slack,
            ..MlrConfig::default()
        },
    );
    let mut d = MlrDriver::new(scen);
    d.scenario.world.set_trace_sink(Box::new(BufferSink::new()));
    for _ in 0..4 {
        d.run_round();
        if load_alpha > 0.0 {
            for &g in &d.scenario.gateways {
                d.scenario
                    .world
                    .with_behavior::<MlrGateway, _>(g, |b, ctx| b.announce_load(ctx));
            }
            d.scenario.world.run_for(500_000);
        }
    }
    d.scenario
        .world
        .take_trace_sink()
        .expect("sink installed")
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("BufferSink")
        .out
        .clone()
}

fn e1_round(seed: u64, traced: bool) -> (Vec<f64>, String) {
    let field = FieldParams::default_uniform(40, seed);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut d = SprDriver::new(scen);
    if traced {
        d.scenario.world.set_trace_sink(Box::new(BufferSink::new()));
    }
    let report = d.run_round();
    let sensors = d.scenario.sensors.clone();
    let m = d.scenario.world.metrics();
    let metrics = vec![
        report.delivery_ratio(),
        m.mean_hops(),
        m.mean_latency_us(),
        m.sent_data as f64,
        m.sent_control as f64,
        m.received as f64,
        m.collided as f64,
        m.csma_deferrals as f64,
        m.total_energy(&sensors),
        m.energy_d2(&sensors),
    ];
    let trace = if traced {
        d.scenario
            .world
            .take_trace_sink()
            .expect("sink installed")
            .as_any()
            .downcast_ref::<BufferSink>()
            .expect("BufferSink")
            .out
            .clone()
    } else {
        String::new()
    };
    (metrics, trace)
}

#[test]
fn e1_round_reproduces_the_pre_zero_copy_metrics_bit_for_bit() {
    // GOLDEN rows start with the ten e1.* metrics, in e1_round order.
    let (metrics, _) = e1_round(11, false);
    for (i, v) in metrics.iter().enumerate() {
        assert_eq!(
            v.to_bits(),
            GOLDEN[0][i],
            "e1 metric #{i}: got {v}, pre-zero-copy golden {}",
            f64::from_bits(GOLDEN[0][i])
        );
    }
}

#[test]
fn e6_round_reproduces_the_pre_zero_copy_metrics_bit_for_bit() {
    // GOLDEN rows end with the e6.* metrics, in e6_attacks order.
    let results = e6_attacks(11);
    assert!(!results.is_empty());
    let tail = &GOLDEN[0][GOLDEN[0].len() - results.len()..];
    for (r, &gold) in results.iter().zip(tail) {
        assert_eq!(
            r.value.to_bits(),
            gold,
            "e6 {} {}: got {}, pre-zero-copy golden {}",
            r.config,
            r.metric,
            r.value,
            f64::from_bits(gold)
        );
    }
}

#[test]
fn e1_trace_bytes_match_the_pinned_pre_zero_copy_digest() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    for (seed, expected) in E1_TRACE_FNV {
        let (_, trace) = e1_round(seed, true);
        assert!(!trace.is_empty(), "seed {seed}: trace must not be empty");
        let got = fnv1a(trace.as_bytes());
        if regen {
            println!("    ({seed}, {got:#018x}),");
            continue;
        }
        assert_eq!(
            got, expected,
            "seed {seed}: trace digest {got:#018x} != pinned {expected:#018x}"
        );
    }
    assert!(
        !regen,
        "GOLDEN_REGEN run: paste the printed digests into E1_TRACE_FNV"
    );
}

#[test]
fn mlr_traces_match_the_pinned_digests() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    for (label, alpha, slack, expected) in MLR_TRACE_FNV {
        let trace = mlr_rounds_trace(alpha, slack);
        // The run must reach the code the digest is meant to pin.
        for event in ["gateway_move", "cache_reply", "route_select", "forward"] {
            assert!(
                trace.contains(&format!("\"ev\":\"{event}\"")),
                "{label}: trace has no {event} event"
            );
        }
        let got = fnv1a(trace.as_bytes());
        if regen {
            println!("    ({label:?}, {alpha:?}, {slack}, {got:#018x}),");
            continue;
        }
        assert_eq!(
            got, expected,
            "{label}: trace digest {got:#018x} != pinned {expected:#018x}"
        );
    }
    assert!(
        !regen,
        "GOLDEN_REGEN run: paste the printed digests into MLR_TRACE_FNV"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The scratch-buffer plumbing and the trace layer share the hot
    // path; a traced run must produce exactly the metrics of an
    // untraced one.
    let (a, _) = e1_round(11, false);
    let (b, _) = e1_round(11, true);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "metric #{i} drifted under tracing"
        );
    }
}
