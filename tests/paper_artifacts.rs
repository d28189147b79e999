//! Integration tests asserting the paper's concrete artefacts and
//! quantified claims, exactly as EXPERIMENTS.md records them.

use wmsn::core::experiments::*;
use wmsn::core::report::find_value;
use wmsn::topology::paper::{TABLE1_HOPS, TABLE1_SELECTED};

#[test]
fn fig2_hop_counts_match_the_paper_exactly() {
    let rows = e1_fig2();
    // Fig. 2(a): 2, 7, 6, 9. Fig. 2(b): 1, 1, 1, 2.
    let expect_a = [2.0, 7.0, 6.0, 9.0];
    let expect_b = [1.0, 1.0, 1.0, 2.0];
    for k in 1..=4usize {
        assert_eq!(
            find_value(&rows, &format!("fig2a S{k}"), "hops_measured"),
            Some(expect_a[k - 1]),
            "fig2a S{k}"
        );
        assert_eq!(
            find_value(&rows, &format!("fig2b S{k}"), "hops_measured"),
            Some(expect_b[k - 1]),
            "fig2b S{k}"
        );
    }
}

#[test]
fn table1_walkthrough_matches_the_paper_exactly() {
    let rows = e2_table1();
    for round in 1..=3usize {
        let sel = find_value(&rows, &format!("round {round}"), "selected_place_id").unwrap();
        assert_eq!(sel as usize, TABLE1_SELECTED[round - 1], "round {round}");
        let hops = find_value(&rows, &format!("round {round}"), "selected_hops").unwrap();
        assert_eq!(
            hops as u32,
            TABLE1_HOPS[TABLE1_SELECTED[round - 1]],
            "round {round} hops"
        );
    }
    // Incremental growth toward |P| = 5 entries.
    for (round, expected) in [(1, 3.0), (2, 4.0), (3, 5.0)] {
        assert_eq!(
            find_value(&rows, &format!("round {round}"), "table_entries"),
            Some(expected)
        );
    }
}

#[test]
fn e4_gateway_gains_saturate_like_kmax() {
    let rows = e4_kmax(&[1, 2, 8, 12], 11);
    let bound = |m: usize| find_value(&rows, &format!("m={m}"), "optimal_lifetime_rounds").unwrap();
    // More gateways never hurt…
    assert!(bound(2) >= bound(1));
    assert!(bound(8) >= bound(2));
    assert!(bound(12) >= bound(8));
    // …but the per-gateway gain collapses once coverage saturates — the
    // Gandham et al. K_max effect the paper cites (§4.1).
    let early_gain_per_gw = bound(2) - bound(1);
    let late_gain_per_gw = (bound(12) - bound(8)) / 4.0;
    assert!(
        late_gain_per_gw < early_gain_per_gw / 2.0,
        "gains must saturate: 1→2 gave {early_gain_per_gw:.1}/gw, 8→12 gave {late_gain_per_gw:.1}/gw"
    );
    // Placement ablation: exhaustive ≤ k-means ≤ random on mean hops.
    let hops = |name: &str| find_value(&rows, &format!("placement={name}"), "mean_hops").unwrap();
    assert!(hops("exhaustive") <= hops("kmeans") + 1e-9);
    assert!(hops("exhaustive") <= hops("random") + 1e-9);
}

#[test]
fn e8_wmsn_recovers_from_gateway_loss_where_leach_clusters_die() {
    let rows = e8_robustness(13);
    let v = |cfg: &str| find_value(&rows, cfg, "delivery_ratio").unwrap();
    // Both healthy baselines deliver.
    assert!(
        v("leach healthy") > 0.9,
        "leach healthy {}",
        v("leach healthy")
    );
    assert!(v("mlr healthy") > 0.9, "mlr healthy {}", v("mlr healthy"));
    // The failure rounds hurt both.
    assert!(v("leach heads_killed") < v("leach healthy") - 0.1);
    assert!(v("mlr gateway_killed") < v("mlr healthy"));
    // The WMSN redirect restores service (§4.2); LEACH recovers only by
    // re-electing in the next round.
    assert!(
        v("mlr after_redirect") > 0.9,
        "redirect {}",
        v("mlr after_redirect")
    );
}

#[test]
fn e9_single_sink_hops_grow_with_field_size_but_scaled_gateways_flatten() {
    let rows = e9_scalability(&[100, 400], 17, false);
    let hops =
        |n: usize, m: usize| find_value(&rows, &format!("n={n} m={m}"), "mean_hops").unwrap();
    // Flat architecture: mean hops grow markedly with the field.
    assert!(
        hops(400, 1) > hops(100, 1) * 1.5,
        "single sink must scale poorly: {} vs {}",
        hops(100, 1),
        hops(400, 1)
    );
    // Scaled gateways keep hops nearly flat.
    let m100 = 100 / 50;
    let m400 = 400 / 50;
    assert!(
        hops(400, m400) < hops(100, m100) * 1.5,
        "scaled gateways must flatten growth: {} vs {}",
        hops(100, m100),
        hops(400, m400)
    );
}

#[test]
fn e6_secmlr_resists_what_breaks_mlr() {
    use wmsn::attacks::sinkhole::TargetProtocol;
    // The three attacks SecMLR is designed to kill outright.
    for attack in [Attack::Sinkhole, Attack::FalseAnnounce, Attack::HelloFlood] {
        let mlr = run_attack_cell(TargetProtocol::Mlr, attack, 3, None).0;
        let sec = run_attack_cell(TargetProtocol::SecMlr, attack, 3, None).0;
        assert!(
            mlr.delivery_ratio < 0.7,
            "{attack:?} should break MLR: {}",
            mlr.delivery_ratio
        );
        assert!(
            sec.delivery_ratio > 0.95,
            "{attack:?} should bounce off SecMLR: {}",
            sec.delivery_ratio
        );
    }
    // Replay: MLR double-delivers, SecMLR does not.
    let mlr = run_attack_cell(TargetProtocol::Mlr, Attack::Replay, 3, None).0;
    let sec = run_attack_cell(TargetProtocol::SecMlr, Attack::Replay, 3, None).0;
    assert!(mlr.duplicate_deliveries > 0, "replay must dupe MLR");
    assert_eq!(sec.duplicate_deliveries, 0, "counters must kill replays");
}

#[test]
fn e7_security_costs_bytes_but_not_delivery() {
    let rows = e7_secmlr_cost(19);
    let v = |cfg: &str, metric: &str| find_value(&rows, cfg, metric).unwrap();
    assert!(v("mlr", "delivery_ratio") > 0.9);
    assert!(v("secmlr", "delivery_ratio") > 0.9);
    // Security costs real bytes...
    assert!(
        v("secmlr", "total_bytes") > v("mlr", "total_bytes"),
        "SecMLR must pay a byte overhead"
    );
    // ...including a nonzero μTESLA maintenance stream.
    assert!(v("secmlr", "security_bytes") > 0.0);
    assert_eq!(v("mlr", "security_bytes"), 0.0);
}

#[test]
fn e13_gaf_sleep_scheduling_saves_energy_without_losing_data() {
    let rows = e13_sleep_scheduling(7);
    let v = |cfg: &str, metric: &str| find_value(&rows, cfg, metric).unwrap();
    assert!(v("gaf", "awake_fraction") < 0.7, "dense field must sleep");
    assert!(v("gaf", "delivery_ratio") > 0.95);
    assert!(v("all_awake", "delivery_ratio") > 0.95);
    assert!(
        v("gaf", "sensor_energy_j") < v("all_awake", "sensor_energy_j") * 0.5,
        "sleeping most of the field must at least halve energy: {} vs {}",
        v("gaf", "sensor_energy_j"),
        v("all_awake", "sensor_energy_j")
    );
}

#[test]
fn e14_loss_degrades_gracefully_and_csma_rescues_collisions() {
    let rows = e14_loss_and_collisions(7);
    let v = |cfg: &str| find_value(&rows, cfg, "delivery_ratio").unwrap();
    assert!((v("mlr loss=0") - 1.0).abs() < 1e-9);
    assert!(v("mlr loss=0.1") > 0.5, "10% loss should not collapse MLR");
    assert!(v("secmlr loss=0.05") > 0.5);
    // Collisions without carrier sensing are catastrophic for flooding
    // discovery; CSMA recovers an order of magnitude.
    let bare = v("mlr collisions=true csma=false");
    let csma = v("mlr collisions=true csma=true");
    assert!(
        bare < 0.2,
        "no-CSMA collisions must be catastrophic: {bare}"
    );
    assert!(
        csma > bare * 3.0,
        "carrier sensing must rescue delivery: {bare} -> {csma}"
    );
}

#[test]
fn e15_baseline_table_shapes() {
    let rows = e15_baselines(7);
    let v = |cfg: &str, metric: &str| find_value(&rows, cfg, metric).unwrap();
    // Reliability: flooding, SPIN, MCFA, LEACH, PEGASIS, SPR all deliver;
    // gossiping is the lossy one (random walks miss the sink).
    for proto in ["flooding", "spin", "mcfa", "leach", "pegasis", "spr_m1"] {
        assert!(
            v(proto, "delivery_ratio") > 0.9,
            "{proto}: {}",
            v(proto, "delivery_ratio")
        );
    }
    assert!(v("gossiping", "delivery_ratio") < 0.9);
    // Implosion: flooding sends ~n data frames per message.
    assert!(v("flooding", "data_frames") >= 1500.0);
    // Aggregating protocols are the energy misers.
    assert!(v("pegasis", "sensor_energy_j") < v("flooding", "sensor_energy_j") * 0.1);
    assert!(v("leach", "sensor_energy_j") < v("flooding", "sensor_energy_j") * 0.1);
    // MCFA beats flooding on energy (gradient, no tables) but not the
    // aggregators.
    assert!(v("mcfa", "sensor_energy_j") < v("flooding", "sensor_energy_j"));
}

#[test]
fn e6_topology_guard_defeats_the_wormhole() {
    use wmsn::attacks::sinkhole::TargetProtocol;
    let bare = run_attack_cell(TargetProtocol::SecMlr, Attack::Wormhole, 1, None).0;
    let guarded = run_attack_cell(TargetProtocol::SecMlr, Attack::WormholeGuarded, 1, None).0;
    assert!(
        bare.delivery_ratio < 0.2,
        "unguarded wormhole wins: {}",
        bare.delivery_ratio
    );
    assert!(
        guarded.delivery_ratio > 0.95,
        "the topology guard must reject tunnelled paths: {}",
        guarded.delivery_ratio
    );
}

#[test]
fn e16_energy_aware_selection_extends_lifetime_and_balances_energy() {
    let rows = e16_energy_aware(31);
    let v = |cfg: &str, metric: &str| find_value(&rows, cfg, metric).unwrap();
    assert!(
        v("slack=2", "lifetime_rounds") > v("slack=0", "lifetime_rounds"),
        "energy-aware must outlive min-hop: {} vs {}",
        v("slack=0", "lifetime_rounds"),
        v("slack=2", "lifetime_rounds")
    );
    assert!(
        v("slack=2", "energy_d2_round8") < v("slack=0", "energy_d2_round8"),
        "energy-aware must balance better (lower D²)"
    );
    assert!(v("slack=2", "delivery_ratio") > 0.95);
    // The price: slightly longer paths.
    assert!(v("slack=2", "mean_hops") >= v("slack=0", "mean_hops"));
}
