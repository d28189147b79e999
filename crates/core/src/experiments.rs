//! Experiment runners E1–E18: one function per paper artefact or
//! quantified claim (see DESIGN.md's experiment index and EXPERIMENTS.md
//! for paper-vs-measured records).
//!
//! Runners are deterministic given their seed, return
//! [`ReportRow`]s, and are shared between the criterion benches and the
//! examples. Parameterised sizes let benches scale runs up or down.

use crate::builder::{
    build_leach, build_mlr, build_mlr_with, build_secmlr, build_spr, build_spr_three_tier,
    build_three_tier, draw_sensors, Scenario, SprScenario,
};
use crate::drivers::{
    Leach, LeachDriver, Mlr, MlrDriver, Protocol, RoundDriver, SecMlr, Spr, SprDriver,
};
use crate::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_attacks::announcer::{AnnounceTarget, FalseAnnouncer};
use wmsn_attacks::sinkhole::TargetProtocol;
use wmsn_attacks::{wormhole_pair, Replayer, SelectiveForwarder, Sinkhole};
use wmsn_routing::mesh::MeshNode;
use wmsn_routing::mlr::{MlrConfig, MlrGateway, MlrSensor};
use wmsn_routing::optimal_lifetime_rounds;

use wmsn_routing::spr::{SprGateway, SprSensor};
use wmsn_secure::{SecMlrGateway, SecMlrSensor};
use wmsn_sim::{NodeConfig, PacketKind, SimHost, World};
use wmsn_topology::connectivity::HopField;
use wmsn_topology::paper::{
    fig2_single_sink, fig2_three_gateways, table1_topology, FIG2_NAMED, FIG2_SINGLE_SINK_HOPS,
    FIG2_THREE_GATEWAY_HOPS, PAPER_RANGE, TABLE1_HOPS, TABLE1_ROUNDS, TABLE1_SELECTED,
};
use wmsn_topology::places::FeasiblePlaces;
use wmsn_topology::{placement, Deployment, Topology};
use wmsn_trace::{expect_sink, TraceSink};
use wmsn_util::stats::ReportRow;
use wmsn_util::{NodeId, Point, Rect, SplitMix64};

// ---------------------------------------------------------------- E1 --

/// E1 (Fig. 2): hop counts with one sink vs three gateways, on the
/// paper's exact topology — asserted to match the paper verbatim — plus
/// random fields showing the same collapse.
pub fn e1_fig2() -> Vec<ReportRow> {
    let mut rows = Vec::new();
    let single = HopField::compute(&fig2_single_sink());
    let multi = HopField::compute(&fig2_three_gateways());
    for (k, &s) in FIG2_NAMED.iter().enumerate() {
        rows.push(ReportRow::new(
            "E1",
            format!("fig2a S{}", k + 1),
            "hops_paper",
            f64::from(FIG2_SINGLE_SINK_HOPS[k]),
        ));
        rows.push(ReportRow::new(
            "E1",
            format!("fig2a S{}", k + 1),
            "hops_measured",
            f64::from(single.sensor_hops(s)),
        ));
        rows.push(ReportRow::new(
            "E1",
            format!("fig2b S{}", k + 1),
            "hops_paper",
            f64::from(FIG2_THREE_GATEWAY_HOPS[k]),
        ));
        rows.push(ReportRow::new(
            "E1",
            format!("fig2b S{}", k + 1),
            "hops_measured",
            f64::from(multi.sensor_hops(s)),
        ));
    }
    rows
}

/// E1 on random fields: mean sensor hops for `m ∈ {1, 3}` gateways.
pub fn e1_random_fields(ns: &[usize], seed: u64) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for m in [1usize, 3] {
            // A 200 m field at 20 m range: deep enough for the single
            // sink's hop counts to hurt (Fig. 2's point).
            let field = FieldParams {
                field: Rect::field(200.0, 200.0),
                range_m: 20.0,
                ..FieldParams::default_uniform(n, seed)
            };
            let mut rng = SplitMix64::new(seed).split(0xE1);
            // Connected draws only, however many it takes: unreachable
            // sensors would be excluded from the mean and bias it.
            let sensors = draw_sensors(&field, &mut rng);
            let places = FeasiblePlaces::grid(field.field, 4, 4);
            let chosen = placement::place_gateways(
                placement::PlacementAlgorithm::KMeans { iterations: 10 },
                &sensors,
                field.field,
                field.range_m,
                &places,
                m,
                &mut rng,
            );
            let gws: Vec<Point> = chosen.iter().map(|&p| places.position(p)).collect();
            let topo = Topology::new(sensors, gws, field.field, field.range_m);
            let hf = HopField::compute(&topo);
            rows.push(ReportRow::new(
                "E1",
                format!("n={n} m={m}"),
                "mean_hops",
                hf.mean_sensor_hops(n).unwrap_or(f64::NAN),
            ));
            rows.push(ReportRow::new(
                "E1",
                format!("n={n} m={m}"),
                "max_hops",
                f64::from(hf.max_sensor_hops(n)),
            ));
        }
    }
    rows
}

// ---------------------------------------------------------------- E2 --

/// E2 (Table 1): replay the MLR incremental-routing-table walkthrough in
/// full simulation — a 21-sensor chain, 3 mobile gateways following the
/// scripted rounds {A,B,C} → {A,D,C} → {E,D,C} — and report, per round,
/// the selected place, its hop count, and the table size of node `S_i`.
pub fn e2_table1() -> Vec<ReportRow> {
    let (sensor_pos, place_pos) = table1_topology();
    let places = FeasiblePlaces::new(place_pos);
    let mut cfg = wmsn_sim::WorldConfig::ideal(0xE2);
    cfg.sensor_phy.range_m = PAPER_RANGE;
    let mut world = World::new(cfg);
    let sensors: Vec<NodeId> = sensor_pos
        .iter()
        .map(|&p| {
            world.add_node(
                NodeConfig::sensor(p, 100.0),
                MlrSensor::boxed(MlrConfig::default()),
            )
        })
        .collect();
    let gateways: Vec<NodeId> = TABLE1_ROUNDS[0]
        .iter()
        .map(|&p| {
            world.add_node(
                NodeConfig::gateway(places.position(p)),
                MlrGateway::boxed(p as u16),
            )
        })
        .collect();
    let mut rows = Vec::new();
    let mut prev: Vec<usize> = Vec::new();
    for (round, occupied) in TABLE1_ROUNDS.iter().enumerate() {
        // Move + announce (round 0 announces everyone).
        for (g, &p) in occupied.iter().enumerate() {
            let moved = prev.get(g).map(|&q| q != p).unwrap_or(true);
            if moved {
                world.set_position(gateways[g], places.position(p));
                world.with_behavior::<MlrGateway, _>(gateways[g], |b, ctx| {
                    b.set_place(ctx, p as u16, round as u32);
                });
            }
        }
        prev = occupied.to_vec();
        world.run_for(500_000);
        // S_i sends one message; discovery fills any new place entries.
        world.with_behavior::<MlrSensor, _>(sensors[0], |b, ctx| b.originate(ctx));
        world.run_for(4_000_000);
        let s0 = world.behavior_as::<MlrSensor>(sensors[0]).unwrap();
        let occupied_u16: Vec<u16> = occupied.iter().map(|&p| p as u16).collect();
        let best = s0.table.best_among_places(&occupied_u16);
        let (selected, hops) = best.map(|r| (r.place, r.hops())).unwrap_or((u16::MAX, 0));
        let label = |r: usize| FeasiblePlaces::label(r);
        rows.push(ReportRow::new(
            "E2",
            format!(
                "round {} occupied {:?}",
                round + 1,
                occupied.iter().map(|&p| label(p)).collect::<Vec<_>>()
            ),
            "selected_place_id",
            f64::from(selected),
        ));
        rows.push(ReportRow::new(
            "E2",
            format!(
                "round {} paper_selects {}",
                round + 1,
                label(TABLE1_SELECTED[round])
            ),
            "selected_place_paper",
            TABLE1_SELECTED[round] as f64,
        ));
        rows.push(ReportRow::new(
            "E2",
            format!("round {}", round + 1),
            "selected_hops",
            f64::from(hops),
        ));
        rows.push(ReportRow::new(
            "E2",
            format!("round {}", round + 1),
            "paper_hops",
            f64::from(TABLE1_HOPS[TABLE1_SELECTED[round]]),
        ));
        rows.push(ReportRow::new(
            "E2",
            format!("round {}", round + 1),
            "table_entries",
            s0.table.len() as f64,
        ));
    }
    rows
}

// ---------------------------------------------------------------- E3 --

/// E3: network lifetime (first sensor death, in rounds) — single-sink
/// SPR vs 3-gateway SPR vs MLR on the same three gateways, against the
/// exact optimal upper bound.
pub fn e3_lifetime(ns: &[usize], seed: u64) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for &n in ns {
        // Battery covers the discovery flood(s) plus a data budget; the
        // data phase (5 messages per sensor per round) is what separates
        // the protocols. SPR re-floods every round by design (§5.2), so
        // its lifetime is throttled by control energy; MLR floods once
        // and then pays data only. Flood cost grows ~n² network-wide
        // (every node hears every origin's flood), so the budget scales.
        let battery = 1.0 + (n * n) as f64 * 6.25e-4;
        let traffic = TrafficParams {
            msgs_per_sensor_per_round: 5,
            ..TrafficParams::default()
        };
        let field = FieldParams {
            battery_j: battery,
            ..FieldParams::default_uniform(n, seed)
        };
        let spr = |m| {
            build_spr(
                &field,
                &GatewayParams {
                    m,
                    ..GatewayParams::default_three()
                },
                traffic,
            )
        };
        // Single sink, three static gateways, and MLR on the same three:
        // one discovery, then pure data.
        e3_arm::<Spr>(&mut rows, format!("n={n} spr m=1"), spr(1), battery);
        e3_arm::<Spr>(&mut rows, format!("n={n} spr m=3"), spr(3), battery);
        let mlr = build_mlr(&field, &GatewayParams::default_three(), traffic, 0.0);
        e3_arm::<Mlr>(&mut rows, format!("n={n} mlr m=3"), mlr, battery);
    }
    rows
}

/// One E3 arm: the lifetime of `scen` under `P` (at most 400 rounds)
/// beside the optimal bound for its gateway positions.
fn e3_arm<P: Protocol + Default>(
    rows: &mut Vec<ReportRow>,
    label: String,
    scen: Scenario,
    battery: f64,
) {
    let bound = optimal_lifetime_rounds(&scen.topology(), battery, 1e-3, 1e-3, 5.0);
    let lt = RoundDriver::<P>::new(scen).run_until_first_death(400);
    rows.push(ReportRow::new(
        "E3",
        &label,
        "lifetime_rounds",
        lt.lifetime_rounds.map(f64::from).unwrap_or(f64::NAN),
    ));
    rows.push(ReportRow::new("E3", label, "optimal_bound_rounds", bound));
}

// ---------------------------------------------------------------- E4 --

/// E4: the `K_max` effect — the optimal lifetime bound (and mean hops) as
/// the gateway count grows; gains saturate. Plus the placement-algorithm
/// ablation at `m = 3`.
pub fn e4_kmax(ms: &[usize], seed: u64) -> Vec<ReportRow> {
    let n = 120;
    let field = FieldParams::default_uniform(n, seed);
    let mut rng = SplitMix64::new(seed).split(0xE4);
    let sensors = field.deployment.generate(field.field, &mut rng);
    let places = FeasiblePlaces::grid(field.field, 4, 4);
    let mut rows = Vec::new();
    for &m in ms {
        let chosen = placement::place_gateways(
            placement::PlacementAlgorithm::KMeans { iterations: 10 },
            &sensors,
            field.field,
            field.range_m,
            &places,
            m,
            &mut rng,
        );
        let gws: Vec<Point> = chosen.iter().map(|&p| places.position(p)).collect();
        let topo = Topology::new(sensors.clone(), gws, field.field, field.range_m);
        let bound = optimal_lifetime_rounds(&topo, 1.0, 1e-3, 1e-3, 1.0);
        let hf = HopField::compute(&topo);
        rows.push(ReportRow::new(
            "E4",
            format!("n={n} m={m}"),
            "optimal_lifetime_rounds",
            bound,
        ));
        rows.push(ReportRow::new(
            "E4",
            format!("n={n} m={m}"),
            "mean_hops",
            hf.mean_sensor_hops(n).unwrap_or(f64::NAN),
        ));
    }
    // Placement ablation at m = 3.
    for (name, alg) in [
        ("random", placement::PlacementAlgorithm::Random),
        (
            "kmeans",
            placement::PlacementAlgorithm::KMeans { iterations: 10 },
        ),
        ("kcenter", placement::PlacementAlgorithm::GreedyKCenter),
        ("exhaustive", placement::PlacementAlgorithm::ExhaustiveHops),
    ] {
        let chosen = placement::place_gateways(
            alg,
            &sensors,
            field.field,
            field.range_m,
            &places,
            3,
            &mut rng,
        );
        let gws: Vec<Point> = chosen.iter().map(|&p| places.position(p)).collect();
        let score =
            placement::evaluate_mean_hops(&sensors, field.field, field.range_m, &gws, 100.0);
        rows.push(ReportRow::new(
            "E4",
            format!("placement={name} m=3"),
            "mean_hops",
            score,
        ));
    }
    rows
}

// ---------------------------------------------------------------- E5 --

/// E5: control-traffic overhead of MLR's incremental tables vs the
/// reset-every-round ablation, over `rounds` rounds with round-robin
/// gateway movement.
pub fn e5_overhead(rounds: u32, seed: u64) -> Vec<ReportRow> {
    // 2 gateways over |P| = 4 places: all places are visited within the
    // first two rounds, so the tail of the run is the steady state the
    // paper's savings claim is about (every place already has an entry).
    let build = || {
        build_mlr(
            &FieldParams {
                battery_j: 10.0,
                ..FieldParams::default_uniform(60, seed)
            },
            &GatewayParams::rotating(2, 2, 2),
            TrafficParams::default(),
            0.0,
        )
    };
    let coverage_rounds = 4u32; // |P| places all seen after this many
    let mut rows = Vec::new();
    for (name, reset) in [("incremental", false), ("reset_each_round", true)] {
        let mut driver = MlrDriver::new(build());
        driver.protocol.reset_tables = reset;
        let reports = driver.run_rounds(rounds);
        let total_control: u64 = reports.iter().map(|r| r.control_frames).sum();
        let steady_control: u64 = reports
            .iter()
            .skip(coverage_rounds as usize)
            .map(|r| r.control_frames)
            .sum();
        let delivered: u64 = reports.iter().map(|r| r.delivered).sum();
        let originated: u64 = reports.iter().map(|r| r.originated).sum();
        rows.push(ReportRow::new(
            "E5",
            format!("mlr {name} rounds={rounds}"),
            "control_frames_total",
            total_control as f64,
        ));
        rows.push(ReportRow::new(
            "E5",
            format!("mlr {name} rounds={rounds}"),
            "control_frames_steady_state",
            steady_control as f64,
        ));
        rows.push(ReportRow::new(
            "E5",
            format!("mlr {name} rounds={rounds}"),
            "delivery_ratio",
            delivered as f64 / originated.max(1) as f64,
        ));
    }
    rows
}

// ---------------------------------------------------------------- E6 --

/// The attack menu of E6.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attack {
    /// No adversary (baseline).
    None,
    /// Blackhole relay on the source's path.
    Blackhole,
    /// Sinkhole forging attractive replies.
    Sinkhole,
    /// Replay of recorded data frames.
    Replay,
    /// Forged gateway-move announcements (normal radio).
    FalseAnnounce,
    /// Forged announcements at HELLO-flood power.
    HelloFlood,
    /// Out-of-band wormhole that swallows data.
    Wormhole,
    /// The same wormhole, against a SecMLR gateway running the
    /// deployment-knowledge topology guard (for MLR this cell behaves
    /// like plain [`Attack::Wormhole`] — the guard is a SecMLR feature).
    WormholeGuarded,
}

impl Attack {
    /// All attacks including the baseline.
    pub fn all() -> [Attack; 8] {
        [
            Attack::None,
            Attack::Blackhole,
            Attack::Sinkhole,
            Attack::Replay,
            Attack::FalseAnnounce,
            Attack::HelloFlood,
            Attack::Wormhole,
            Attack::WormholeGuarded,
        ]
    }

    /// Stable label used in report rows.
    pub fn label(self) -> &'static str {
        match self {
            Attack::None => "none",
            Attack::Blackhole => "blackhole",
            Attack::Sinkhole => "sinkhole",
            Attack::Replay => "replay",
            Attack::FalseAnnounce => "false_announce",
            Attack::HelloFlood => "hello_flood",
            Attack::Wormhole => "wormhole",
            Attack::WormholeGuarded => "wormhole_guarded",
        }
    }
}

/// Result of one attacked run.
#[derive(Clone, Debug, PartialEq)]
pub struct AttackOutcome {
    /// Unique-message delivery ratio.
    pub delivery_ratio: f64,
    /// Deliveries minus unique messages (replay-induced duplicates).
    pub duplicate_deliveries: u64,
    /// Every delivery record, in the order the world logged them.
    pub deliveries: Vec<wmsn_sim::metrics::Delivery>,
}

/// Run one (protocol, attack) cell of the E6 matrix: a 10-sensor chain
/// with the gateway at the far end and the adversary parked beside the
/// source, three rounds in which the three sensors nearest it report.
///
/// `sink`, when given, is installed as the world's trace sink before
/// start and handed back flushed, for the caller to read through
/// [`wmsn_trace::expect_sink`]. The sink only records: the outcome is
/// the same whatever it is (an inline `HealthMonitor`, a `CaptureSink`,
/// …).
pub fn run_attack_cell(
    protocol: TargetProtocol,
    attack: Attack,
    seed: u64,
    sink: Option<Box<dyn TraceSink>>,
) -> (AttackOutcome, Option<Box<dyn TraceSink>>) {
    let n = 10usize;
    let mut cfg = wmsn_sim::WorldConfig::ideal(seed);
    cfg.sensor_phy.range_m = 10.0;
    let mut world = World::new(cfg);
    let gw_id = NodeId(n as u32);
    let master = wmsn_crypto::Key128([0x42; 16]);
    let mut sensors = Vec::new();
    for i in 0..n {
        let pos = Point::new(i as f64 * 10.0, 0.0);
        let honest: Box<dyn wmsn_sim::Behavior> = match protocol {
            TargetProtocol::Mlr => MlrSensor::boxed(MlrConfig::default()),
            TargetProtocol::SecMlr => {
                let keys = wmsn_crypto::KeyStore::for_sensor(&master, i as u32, &[gw_id.0]);
                SecMlrSensor::boxed(wmsn_secure::SecSensorConfig::default(), keys)
            }
        };
        // The blackhole replaces the honest relay at position 1 (on the
        // source's path).
        let behavior = if attack == Attack::Blackhole && i == 1 {
            SelectiveForwarder::boxed(honest, 1.0)
        } else {
            honest
        };
        sensors.push(world.add_node(NodeConfig::sensor(pos, 100.0), behavior));
    }
    let gw = match protocol {
        TargetProtocol::Mlr => world.add_node(
            NodeConfig::gateway(Point::new(n as f64 * 10.0, 0.0)),
            MlrGateway::boxed(0),
        ),
        TargetProtocol::SecMlr => world.add_node(
            NodeConfig::gateway(Point::new(n as f64 * 10.0, 0.0)),
            SecMlrGateway::boxed(wmsn_secure::SecGatewayConfig::default(), &master, gw_id, 0),
        ),
    };
    // Adversary node(s).
    match attack {
        Attack::Sinkhole => {
            let a = world.add_node(
                NodeConfig::sensor(Point::new(0.0, 8.0), 100.0),
                Sinkhole::boxed(protocol, gw, 0),
            );
            world.set_promiscuous(a, true);
        }
        Attack::Replay => {
            let a = world.add_node(
                NodeConfig::sensor(Point::new(15.0, 6.0), 100.0),
                Replayer::boxed(400_000, Some(PacketKind::Data), 200),
            );
            world.set_promiscuous(a, true);
        }
        Attack::FalseAnnounce | Attack::HelloFlood => {
            let boost = if attack == Attack::HelloFlood {
                Some(500.0)
            } else {
                None
            };
            let target = match protocol {
                TargetProtocol::Mlr => AnnounceTarget::Mlr,
                TargetProtocol::SecMlr => AnnounceTarget::SecMlr,
            };
            // Lure traffic to a place nobody occupies.
            world.add_node(
                NodeConfig::sensor(Point::new(0.0, 8.0), 100.0),
                FalseAnnouncer::boxed(target, gw, 7, 300_000, boost),
            );
        }
        Attack::Wormhole | Attack::WormholeGuarded => {
            let (a, b) = wormhole_pair(5_000, true);
            let ea = world.add_node(NodeConfig::sensor(Point::new(0.0, 7.0), 100.0), Box::new(a));
            let eb = world.add_node(
                NodeConfig::sensor(Point::new(n as f64 * 10.0, 7.0), 100.0),
                Box::new(b),
            );
            world.set_promiscuous(ea, true);
            world.set_promiscuous(eb, true);
        }
        Attack::None | Attack::Blackhole => {}
    }
    // Deployment wiring.
    if attack == Attack::WormholeGuarded && protocol == TargetProtocol::SecMlr {
        // The guard ships with the deployment layout (sensors + gateway).
        let layout: Vec<(NodeId, Point)> = (0..=n)
            .map(|i| (NodeId(i as u32), Point::new(i as f64 * 10.0, 0.0)))
            .collect();
        world.with_behavior::<SecMlrGateway, _>(gw, |g, _| {
            g.guard = Some(wmsn_secure::gateway::TopologyGuard::new(layout, 10.0));
        });
    }
    if let Some(sink) = sink {
        world.set_trace_sink(sink);
    }
    match protocol {
        TargetProtocol::Mlr => {
            world.start();
            world.with_behavior::<MlrGateway, _>(gw, |g, ctx| g.set_place(ctx, 0, 0));
            world.run_for(500_000);
        }
        TargetProtocol::SecMlr => {
            crate::builder::anchor_secmlr(&mut world, &sensors, &[(gw, 0)]);
            world.start();
            world.run_for(500_000);
        }
    }
    // Traffic: 3 rounds, only the three sensors nearest the adversary
    // report (their paths cross the attack surface).
    for _ in 0..3 {
        for &s in &sensors[..3] {
            match protocol {
                TargetProtocol::Mlr => {
                    world.with_behavior::<MlrSensor, _>(s, |b, ctx| b.originate(ctx));
                }
                TargetProtocol::SecMlr => {
                    world.with_behavior::<SecMlrSensor, _>(s, |b, ctx| b.originate(ctx));
                }
            }
        }
        world.run_for(3_000_000);
    }
    let sink = world.take_trace_sink();
    let m = world.metrics();
    let unique: std::collections::HashSet<(NodeId, u64)> =
        m.deliveries.iter().map(|d| (d.source, d.msg_id)).collect();
    let outcome = AttackOutcome {
        delivery_ratio: m.delivery_ratio(),
        duplicate_deliveries: m.deliveries.len() as u64 - unique.len() as u64,
        deliveries: m.deliveries.clone(),
    };
    (outcome, sink)
}

/// E6: the full attack-resistance matrix.
pub fn e6_attacks(seed: u64) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for protocol in [TargetProtocol::Mlr, TargetProtocol::SecMlr] {
        let pname = match protocol {
            TargetProtocol::Mlr => "mlr",
            TargetProtocol::SecMlr => "secmlr",
        };
        for attack in Attack::all() {
            let (out, _) = run_attack_cell(protocol, attack, seed, None);
            rows.push(ReportRow::new(
                "E6",
                format!("{pname} vs {}", attack.label()),
                "delivery_ratio",
                out.delivery_ratio,
            ));
            if attack == Attack::Replay {
                rows.push(ReportRow::new(
                    "E6",
                    format!("{pname} vs {}", attack.label()),
                    "duplicate_deliveries",
                    out.duplicate_deliveries as f64,
                ));
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- E7 --

/// E7: the price of security — MLR vs SecMLR on the same field: frames,
/// bytes, latency, sensor energy, delivery.
pub fn e7_secmlr_cost(seed: u64) -> Vec<ReportRow> {
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(50, seed)
    };
    let gw = GatewayParams::rotating(3, 3, 3);
    let traffic = TrafficParams::default();
    let mut rows = Vec::new();
    e7_arm::<Mlr>(&mut rows, "mlr", build_mlr(&field, &gw, traffic, 0.0));
    e7_arm::<SecMlr>(&mut rows, "secmlr", build_secmlr(&field, &gw, traffic));
    rows
}

/// One E7 arm: three rounds of `scen` under `P`, then its costs.
fn e7_arm<P: Protocol + Default>(rows: &mut Vec<ReportRow>, label: &str, scen: Scenario) {
    let mut d = RoundDriver::<P>::new(scen);
    d.run_rounds(3);
    let s = &d.scenario;
    let m = s.world.metrics();
    for (metric, value) in [
        ("total_frames", m.total_sent() as f64),
        ("total_bytes", m.total_bytes() as f64),
        ("control_bytes", m.sent_bytes_control as f64),
        ("security_bytes", m.sent_bytes_security as f64),
        ("mean_latency_us", m.mean_latency_us()),
        ("delivery_ratio", m.delivery_ratio()),
        ("sensor_energy_j", m.total_energy(&s.sensors)),
    ] {
        rows.push(ReportRow::new("E7", label, metric, value));
    }
}

// ---------------------------------------------------------------- E8 --

/// E8: robustness — LEACH losing its heads vs WMSN losing a gateway.
/// Reports the delivery ratio in the failure round and in the recovery
/// round that follows.
pub fn e8_robustness(seed: u64) -> Vec<ReportRow> {
    // LEACH: healthy round, then a round whose heads die post-join.
    let mut leach = LeachDriver::new(build_leach(
        &failover_field(seed),
        Point::new(50.0, 140.0),
        0.12,
    ));
    let leach_healthy = leach.run_round();
    let heads_killed = leach.run_round_with(Leach::kill_heads);
    // LEACH has no recovery mechanism within the failed round; the next
    // election round recovers (heads are re-elected among survivors).
    let next_round = leach.run_round();

    // MLR: three gateways; kill one and let the watchdog redirect.
    let mut mlr = failover_driver(seed);
    let mlr_healthy = mlr.run_round();
    let victim = mlr.scenario.gateways[0];
    mlr.scenario.world.kill(victim);
    let gateway_killed = mlr.run_round();
    // Watchdog: sensors that lost traffic drop the dead gateway.
    let s = &mut mlr.scenario;
    for &sensor in &s.sensors {
        s.world
            .with_behavior::<MlrSensor, _>(sensor, |b, _| b.remove_gateway(victim));
    }
    let after_redirect = mlr.run_round();
    [
        ("leach healthy", leach_healthy),
        ("leach heads_killed", heads_killed),
        ("leach next_round", next_round),
        ("mlr healthy", mlr_healthy),
        ("mlr gateway_killed", gateway_killed),
        ("mlr after_redirect", after_redirect),
    ]
    .into_iter()
    .map(|(label, r)| ReportRow::new("E8", label, "delivery_ratio", r.delivery_ratio()))
    .collect()
}

/// The gateway-death field of E8 and E18: 60 sensors, 10 J batteries.
fn failover_field(seed: u64) -> FieldParams {
    FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(60, seed)
    }
}

/// MLR on the [`failover_field`] with three static gateways.
fn failover_driver(seed: u64) -> MlrDriver {
    MlrDriver::new(build_mlr(
        &failover_field(seed),
        &GatewayParams::default_three(),
        TrafficParams::default(),
        0.0,
    ))
}

// ---------------------------------------------------------------- E9 --

/// The E9 field at size `n`: constant density (0.02 / m²), 10 J
/// batteries, and either one sink (`scaled = false`) or one gateway per
/// 50 sensors on a square place grid. Returns the scenario and its
/// gateway count.
fn e9_scenario(n: usize, seed: u64, scaled: bool) -> (SprScenario, usize) {
    let m = if scaled { (n / 50).max(2) } else { 1 };
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::constant_density(n, 0.02, seed)
    };
    let grid = ((m as f64).sqrt().ceil() as usize).max(2);
    let gw = GatewayParams {
        m,
        place_grid: (grid, grid),
        ..GatewayParams::default_three()
    };
    (build_spr(&field, &gw, TrafficParams::default()), m)
}

/// E9: scalability at constant density — mean/max hops and (for sim
/// sizes) latency and delivery, single sink vs gateways scaled with
/// area.
pub fn e9_scalability(ns: &[usize], seed: u64, simulate: bool) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for scaled in [false, true] {
            let (scen, m) = e9_scenario(n, seed, scaled);
            let topo = scen.topology();
            let hf = HopField::compute(&topo);
            let cfg_label = format!("n={n} m={m}");
            rows.push(ReportRow::new(
                "E9",
                &cfg_label,
                "mean_hops",
                hf.mean_sensor_hops(n).unwrap_or(f64::NAN),
            ));
            rows.push(ReportRow::new(
                "E9",
                &cfg_label,
                "max_hops",
                f64::from(hf.max_sensor_hops(n)),
            ));
            if simulate {
                let mut d = SprDriver::new(scen);
                let r = d.run_round();
                rows.push(ReportRow::new(
                    "E9",
                    &cfg_label,
                    "delivery_ratio",
                    r.delivery_ratio(),
                ));
                rows.push(ReportRow::new(
                    "E9",
                    &cfg_label,
                    "mean_latency_us",
                    d.scenario.world.metrics().mean_latency_us(),
                ));
            }
        }
    }
    rows
}

/// Event-loop statistics for the simulated E9 kernel at size `n`:
/// `(events processed, peak event-queue depth)` summed/maxed over the
/// same two gateway configurations [`e9_scalability`] times, plus the
/// trace sinks handed back. `sink` builds each configuration's sink
/// (`None` runs untraced); the bench's monitored row passes an inline
/// `HealthMonitor`, whose delta against the untraced run is the
/// monitor's full online-aggregation cost.
pub fn e9_event_stats(
    n: usize,
    seed: u64,
    mut sink: impl FnMut() -> Option<Box<dyn TraceSink>>,
) -> (u64, usize, Vec<Box<dyn TraceSink>>) {
    let mut events = 0u64;
    let mut peak = 0usize;
    let mut sinks = Vec::new();
    for scaled in [false, true] {
        let mut d = SprDriver::new(e9_scenario(n, seed, scaled).0);
        if let Some(s) = sink() {
            d.scenario.world.set_trace_sink(s);
        }
        d.run_round();
        events += d.scenario.world.events_processed();
        peak = peak.max(d.scenario.world.peak_queue_depth());
        sinks.extend(d.scenario.world.take_trace_sink());
    }
    (events, peak, sinks)
}

// ------------------------------------------------------- E9 (large) --

/// Execution summary of one large-scale SPR round (see [`e9_large`]).
///
/// The routing outcomes (`originated`, `unique_deliveries`,
/// `delivery_ratio`, `mean_latency_us`) are bit-identical between the
/// reference kernel and a sharded run of [`e9_large_round`]; `events`
/// and `peak_queue_depth` are per-kernel execution statistics and
/// differ by construction (the sharded kernel re-schedules boundary
/// arrivals).
#[derive(Clone, Copy, Debug)]
pub struct E9LargeSummary {
    /// Sensor count.
    pub n: usize,
    /// Application messages originated.
    pub originated: u64,
    /// Unique (source, msg_id) messages delivered.
    pub unique_deliveries: u64,
    /// `unique_deliveries / originated`.
    pub delivery_ratio: f64,
    /// Mean end-to-end latency (µs).
    pub mean_latency_us: f64,
    /// Events popped by the kernel (execution statistic).
    pub events: u64,
    /// Event-queue high-water mark (execution statistic).
    pub peak_queue_depth: usize,
}

/// Build the large-scale E9 world: `n` sensors at the standard E9
/// density (0.02 / m²), one gateway per 500 sensors on a random
/// feasible-place grid, and a base station at the field centre that
/// every gateway uplinks delivered data to (the full three-tier path).
///
/// Batteries are infinite: the sharded kernel's equivalence envelope
/// requires death-free rounds, and this workload measures kernel
/// throughput, not network lifetime.
pub fn e9_large_scenario(n: usize, seed: u64) -> (SprScenario, NodeId) {
    let field = FieldParams {
        battery_j: f64::INFINITY,
        ..FieldParams::constant_density(n, 0.02, seed)
    };
    let m = (n / 500).max(2);
    let grid = ((m as f64).sqrt().ceil() as usize).max(2);
    let gw = GatewayParams {
        m,
        place_grid: (grid, grid),
        placement: placement::PlacementAlgorithm::Random,
        movement: wmsn_topology::MovementPolicy::Static,
    };
    build_spr_three_tier(&field, &gw, TrafficParams::default())
}

/// Run one timer-staggered SPR round on any host kernel (the reference
/// [`World`] or the sharded parallel kernel).
///
/// Every gateway is uplinked to `base`, then `sources` sensors (an even
/// stride across the id space) arm origination timers spread over the
/// first half of the round, and a single `run_until` carries the world
/// to the round end. The event loop — not a driver loop — paces the
/// world, which is what lets the sharded kernel overlap shards instead
/// of serialising behind per-message `run_for` calls.
pub fn e9_large_round<H: SimHost>(
    scen: &mut SprScenario<H>,
    base: NodeId,
    sources: usize,
) -> E9LargeSummary {
    let n = scen.sensors.len();
    let sources = sources.clamp(1, n.max(1));
    scen.world.start();
    let gateways = scen.gateways.clone();
    for g in gateways {
        scen.world
            .with_behavior::<SprGateway, _>(g, |b, _| b.set_uplink(base));
    }
    let window = scen.traffic.round_duration_us / 2;
    let stride = (n / sources).max(1);
    let gap = (window / sources as u64).max(1);
    let armed: Vec<NodeId> = (0..sources.min(n))
        .map(|k| scen.sensors[k * stride])
        .collect();
    for (k, s) in armed.into_iter().enumerate() {
        let delay = 1 + k as u64 * gap;
        scen.world
            .with_behavior::<SprSensor, _>(s, |b, ctx| b.schedule_originate(ctx, delay));
    }
    scen.world.run_until(scen.traffic.round_duration_us);
    let events = scen.world.events_processed();
    let peak = scen.world.peak_queue_depth();
    let m = scen.world.metrics();
    E9LargeSummary {
        n,
        originated: m.originated,
        unique_deliveries: m.unique_deliveries(),
        delivery_ratio: m.delivery_ratio(),
        mean_latency_us: m.mean_latency_us(),
        events,
        peak_queue_depth: peak,
    }
}

/// The large-scale E9 entry point: one SPR round at `n` on the
/// reference kernel, untraced.
pub fn e9_large(n: usize, seed: u64, sources: usize) -> E9LargeSummary {
    let (mut scen, base) = e9_large_scenario(n, seed);
    e9_large_round(&mut scen, base, sources)
}

// --------------------------------------------------------------- E10 --

/// E10: load balance under a hot spot. Sensors near gateway 0 produce 5×
/// the traffic (a "forest fire" near that gateway); compare gateway load
/// imbalance and delivery with α = 0 vs α > 0.
pub fn e10_load_balance(seed: u64) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for alpha in [0.0, 4.0] {
        let field = FieldParams::default_uniform(60, seed);
        let scen = build_mlr(
            &field,
            &GatewayParams {
                m: 2,
                place_grid: (2, 1),
                placement: placement::PlacementAlgorithm::ExhaustiveHops,
                movement: wmsn_topology::MovementPolicy::Static,
            },
            TrafficParams::default(),
            alpha,
        );
        let gw0_pos = scen.places.position(scen.schedule.current()[0]);
        let mut driver = MlrDriver::new(scen);
        // Round 0: discovery + baseline traffic.
        driver.run_round();
        // Gateways advertise their loads.
        let gateways = driver.scenario.gateways.clone();
        for &g in &gateways {
            driver
                .scenario
                .world
                .with_behavior::<MlrGateway, _>(g, |b, ctx| b.announce_load(ctx));
        }
        driver.scenario.world.run_for(500_000);
        // Hot spot: sensors within 30 m of gateway 0 fire 5 extra readings.
        let hot: Vec<NodeId> = driver
            .scenario
            .sensors
            .iter()
            .copied()
            .filter(|&s| driver.scenario.world.node(s).pos.dist(gw0_pos) < 30.0)
            .collect();
        for _ in 0..5 {
            for &s in &hot {
                driver
                    .scenario
                    .world
                    .with_behavior::<MlrSensor, _>(s, |b, ctx| b.originate(ctx));
            }
            driver.scenario.world.run_for(1_000_000);
        }
        driver.scenario.world.run_for(1_000_000);
        let loads: Vec<u64> = gateways
            .iter()
            .map(|&g| {
                driver
                    .scenario
                    .world
                    .behavior_as::<MlrGateway>(g)
                    .unwrap()
                    .absorbed
            })
            .collect();
        let total: u64 = loads.iter().sum();
        let imbalance = if total == 0 {
            0.0
        } else {
            (loads[0] as f64 - loads[1] as f64).abs() / total as f64
        };
        let cfg_label = format!("alpha={alpha}");
        rows.push(ReportRow::new(
            "E10",
            &cfg_label,
            "gw0_absorbed",
            loads[0] as f64,
        ));
        rows.push(ReportRow::new(
            "E10",
            &cfg_label,
            "gw1_absorbed",
            loads[1] as f64,
        ));
        rows.push(ReportRow::new(
            "E10",
            &cfg_label,
            "load_imbalance",
            imbalance,
        ));
        rows.push(ReportRow::new(
            "E10",
            &cfg_label,
            "delivery_ratio",
            driver.scenario.world.metrics().delivery_ratio(),
        ));
    }
    rows
}

// --------------------------------------------------------------- E12 --

/// Build the E12 three-tier scenario (Fig. 1: 60 sensors on a 200×200 m
/// field, three static WMGs, a 2×2 WMR mesh, the base station off-field)
/// and let the mesh backbone converge. An optional trace sink is
/// installed *before* convergence so a monitor sees the whole run, hellos
/// included. Returns the driver (its gateways are the WMGs) and the
/// base-station id.
fn e12_scenario(seed: u64, sink: Option<Box<dyn TraceSink>>) -> (MlrDriver, NodeId) {
    let field = FieldParams {
        field: Rect::field(200.0, 200.0),
        range_m: 45.0,
        deployment: Deployment::Uniform { n: 60 },
        battery_j: 10.0,
        ..FieldParams::default_uniform(60, seed)
    };
    let (scen, base, _) = build_three_tier(
        &field,
        &GatewayParams {
            m: 3,
            place_grid: (3, 3),
            ..GatewayParams::default_three()
        },
        TrafficParams::default(),
        (2, 2),
        Point::new(100.0, 260.0),
        150.0,
    );
    let mut driver = MlrDriver::new(scen);
    if let Some(sink) = sink {
        driver.scenario.world.set_trace_sink(sink);
    }
    // Let the mesh backbone converge before any sensor traffic.
    driver.scenario.world.run_until(2_000_000);
    (driver, base)
}

/// E12: the three-layer architecture end-to-end — sensor readings
/// reaching a base station across the mesh backbone (Fig. 1).
pub fn e12_three_tier(seed: u64) -> Vec<ReportRow> {
    let (mut driver, base) = e12_scenario(seed, None);
    let r0 = driver.run_round();
    let r1 = driver.run_round();
    let (world, wmgs) = (&driver.scenario.world, &driver.scenario.gateways);
    let base_received = world
        .behavior_as::<MeshNode>(base)
        .map_or(0, |b| b.delivered.len());
    let (absorbed, uplinked) = wmgs
        .iter()
        .filter_map(|&g| world.behavior_as::<crate::wmg::WmgBehavior>(g))
        .fold((0, 0), |(a, u), b| (a + b.gateway.absorbed, u + b.uplinked));
    [
        ("round0_delivery_ratio", r0.delivery_ratio()),
        ("round1_delivery_ratio", r1.delivery_ratio()),
        ("wmg_absorbed", absorbed as f64),
        ("uplinked", uplinked as f64),
        ("base_station_received", base_received as f64),
    ]
    .into_iter()
    .map(|(metric, value)| ReportRow::new("E12", "three-tier", metric, value))
    .collect()
}

/// E12 backbone-fault coverage: the two backbone-tier detectors
/// (`backbone_asymmetry`, `base_silence`) watching the three-tier
/// architecture blind. The healthy run must stay clean of both; killing
/// the base station mid-run must raise `base_silence` on it — the WMGs
/// keep uplinking mesh-tier data nobody delivers any more. Detection
/// only: ROADMAP keeps the WMG↔WMG steering lever open.
pub fn e12_backbone_fault(seed: u64) -> Vec<ReportRow> {
    use wmsn_health::{AlertKind, HealthConfig, HealthMonitor};
    fn backbone_counts(mut sink: Option<Box<dyn TraceSink>>) -> (usize, usize, Vec<u64>) {
        let m = expect_sink::<HealthMonitor>(sink.as_deref_mut());
        // take_trace_sink's flush already finalized the monitor.
        let asym = m
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::BackboneAsymmetry)
            .count();
        let silent: Vec<u64> = m
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::BaseSilence)
            .map(|a| a.subject)
            .collect();
        (asym, silent.len(), silent)
    }
    let monitor = || Some(HealthMonitor::boxed(HealthConfig::default()));

    let (mut healthy, _) = e12_scenario(seed, monitor());
    healthy.run_round();
    healthy.run_round();
    let (h_asym, h_sil, _) = backbone_counts(healthy.scenario.world.take_trace_sink());

    let (mut faulty, base) = e12_scenario(seed, monitor());
    faulty.run_round();
    faulty.scenario.world.kill(base);
    faulty.run_round();
    faulty.run_round();
    let (f_asym, f_sil, subjects) = backbone_counts(faulty.scenario.world.take_trace_sink());
    let accused_base = subjects.contains(&u64::from(base.0));

    vec![
        ReportRow::new(
            "E12",
            "backbone healthy",
            "backbone_asymmetry",
            h_asym as f64,
        ),
        ReportRow::new("E12", "backbone healthy", "base_silence", h_sil as f64),
        ReportRow::new("E12", "base killed", "backbone_asymmetry", f_asym as f64),
        ReportRow::new("E12", "base killed", "base_silence", f_sil as f64),
        ReportRow::new(
            "E12",
            "base killed",
            "accused_base_station",
            f64::from(u8::from(accused_base)),
        ),
    ]
}

// --------------------------------------------------------------- E13 --

/// E13 (§4.4 topology control): GAF-style sleep scheduling on a dense
/// field — awake fraction, energy per delivered reading, and delivery,
/// with and without the schedule. Sleeping nodes' sensing is covered by
/// their cell leader (GAF's fidelity argument), so leaders report on
/// their behalf.
pub fn e13_sleep_scheduling(seed: u64) -> Vec<ReportRow> {
    use wmsn_topology::control::{awake_fraction, gaf_sleep_schedule};
    let mut rows = Vec::new();
    for use_gaf in [false, true] {
        let field = FieldParams {
            n_sensors: 150,
            deployment: Deployment::Uniform { n: 150 },
            battery_j: 10.0,
            ..FieldParams::default_uniform(150, seed)
        };
        let scen = build_mlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        );
        let positions = scen.sensor_positions.clone();
        let sensors = scen.sensors.clone();
        let mut driver = MlrDriver::new(scen);
        let awake = if use_gaf {
            gaf_sleep_schedule(&positions, &vec![1.0; positions.len()], field.range_m)
        } else {
            vec![true; positions.len()]
        };
        for (i, &up) in awake.iter().enumerate() {
            if !up {
                driver.scenario.world.sleep(sensors[i]);
            }
        }
        // Two rounds of traffic from the awake set.
        driver.run_rounds(2);
        let m = driver.scenario.world.metrics();
        let cfg_label = if use_gaf { "gaf" } else { "all_awake" };
        rows.push(ReportRow::new(
            "E13",
            cfg_label,
            "awake_fraction",
            awake_fraction(&awake),
        ));
        rows.push(ReportRow::new(
            "E13",
            cfg_label,
            "delivery_ratio",
            m.delivery_ratio(),
        ));
        rows.push(ReportRow::new(
            "E13",
            cfg_label,
            "sensor_energy_j",
            m.total_energy(&sensors),
        ));
        rows.push(ReportRow::new(
            "E13",
            cfg_label,
            "energy_per_delivery_mj",
            1e3 * m.total_energy(&sensors) / (m.unique_deliveries().max(1) as f64),
        ));
    }
    rows
}

// --------------------------------------------------------------- E14 --

/// E14 (medium-imperfection ablation): delivery under independent packet
/// loss for MLR and SecMLR, plus the receiver-overlap collision model
/// on/off for MLR.
pub fn e14_loss_and_collisions(seed: u64) -> Vec<ReportRow> {
    let (gw, traffic) = (GatewayParams::default_three(), TrafficParams::default());
    let mut rows = Vec::new();
    for loss in [0.0, 0.02, 0.05, 0.10] {
        let field = FieldParams {
            loss_prob: loss,
            battery_j: 10.0,
            ..FieldParams::default_uniform(40, seed)
        };
        for (name, (delivery, _)) in [
            ("mlr", e14_arm::<Mlr>(build_mlr(&field, &gw, traffic, 0.0))),
            (
                "secmlr",
                e14_arm::<SecMlr>(build_secmlr(&field, &gw, traffic)),
            ),
        ] {
            let cfg_label = format!("{name} loss={loss}");
            rows.push(ReportRow::new("E14", cfg_label, "delivery_ratio", delivery));
        }
    }
    for (collisions, csma) in [(false, false), (true, false), (true, true)] {
        let field = FieldParams {
            collisions,
            csma,
            battery_j: 10.0,
            ..FieldParams::default_uniform(40, seed)
        };
        let (delivery, collided) = e14_arm::<Mlr>(build_mlr(&field, &gw, traffic, 0.0));
        let cfg_label = format!("mlr collisions={collisions} csma={csma}");
        rows.push(ReportRow::new(
            "E14",
            &cfg_label,
            "delivery_ratio",
            delivery,
        ));
        rows.push(ReportRow::new(
            "E14",
            cfg_label,
            "collided_frames",
            collided,
        ));
    }
    rows
}

/// One E14 arm: two rounds of `scen` under `P`; returns the delivery
/// ratio over both and the collided-frame count.
fn e14_arm<P: Protocol + Default>(scen: Scenario) -> (f64, f64) {
    let mut d = RoundDriver::<P>::new(scen);
    let reports = d.run_rounds(2);
    let delivered: u64 = reports.iter().map(|r| r.delivered).sum();
    let originated: u64 = reports.iter().map(|r| r.originated).sum();
    (
        delivered as f64 / originated.max(1) as f64,
        d.scenario.world.metrics().collided as f64,
    )
}

// --------------------------------------------------------------- E15 --

/// E15 (§2.2 survey, quantified): one reporting round of every baseline
/// on the same 40-sensor field with a single sink — delivery, frames,
/// bytes, and sensor energy. The column the paper's related-work
/// arguments (implosion, negotiation, gradient, clustering, chains)
/// gesture at, measured.
pub fn e15_baselines(seed: u64) -> Vec<ReportRow> {
    use wmsn_routing::flooding::{FloodMode, FloodSensor, FloodSink};
    use wmsn_routing::leach::{LeachConfig, LeachSensor, LeachSink};
    use wmsn_routing::mcfa::{McfaSensor, McfaSink};
    use wmsn_routing::pegasis::{build_chain, PegasisConfig, PegasisSensor, PegasisSink};
    use wmsn_routing::spin::{SpinConfig, SpinSensor, SpinSink};
    use wmsn_routing::spr::SprConfig;
    use wmsn_sim::{Behavior, Ctx};

    /// Every sensor originates one reading; 20 s for them to land.
    fn originate_all<T: 'static>(
        w: &mut World,
        sensors: &[NodeId],
        originate: fn(&mut T, &mut Ctx<'_>),
    ) {
        for &s in sensors {
            w.with_behavior::<T, _>(s, originate);
        }
        w.run_for(20_000_000);
    }

    let n = 40usize;
    let field = FieldParams {
        battery_j: 10.0,
        ..FieldParams::default_uniform(n, seed)
    };
    // A shared connected deployment and a sink at the field edge.
    let positions = draw_sensors(&field, &mut SplitMix64::new(seed).split(0xE15));
    let sink_pos = Point::new(50.0, 110.0);
    let sink_id = NodeId(n as u32);

    let mut rows = Vec::new();
    // One baseline: `sensor(i)` at every position, then the sink, on a
    // fresh started world; `drive` runs the round.
    let mut baseline = |name: &str,
                        sensor: &dyn Fn(usize) -> Box<dyn Behavior>,
                        sink: Box<dyn Behavior>,
                        drive: &dyn Fn(&mut World, &[NodeId])| {
        let mut w = World::new(field.world_config());
        let sensors: Vec<NodeId> = positions
            .iter()
            .enumerate()
            .map(|(i, &p)| w.add_node(NodeConfig::sensor(p, field.battery_j), sensor(i)))
            .collect();
        w.add_node(NodeConfig::gateway(sink_pos), sink);
        w.start();
        drive(&mut w, &sensors);
        let m = w.metrics();
        for (metric, value) in [
            ("delivery_ratio", m.delivery_ratio()),
            ("data_frames", m.sent_data as f64),
            ("control_frames", m.sent_control as f64),
            ("total_bytes", m.total_bytes() as f64),
            ("sensor_energy_j", m.total_energy(&sensors)),
        ] {
            rows.push(ReportRow::new("E15", name, metric, value));
        }
    };

    baseline(
        "flooding",
        &|_| FloodSensor::boxed(FloodMode::Flood, 32),
        FloodSink::boxed(),
        &|w, s| originate_all(w, s, FloodSensor::originate),
    );
    baseline(
        "gossiping",
        &|_| FloodSensor::boxed(FloodMode::Gossip, 64),
        FloodSink::boxed(),
        &|w, s| originate_all(w, s, FloodSensor::originate),
    );
    baseline(
        "spin",
        &|_| SpinSensor::boxed(SpinConfig::default()),
        SpinSink::boxed(),
        &|w, s| originate_all(w, s, SpinSensor::originate),
    );
    baseline(
        "mcfa",
        &|_| McfaSensor::boxed(),
        McfaSink::boxed(),
        &|w, s| {
            w.run_until(2_000_000); // cost field converges
            originate_all(w, s, McfaSensor::originate);
        },
    );
    // LEACH, one round: elect, report, flush.
    let leach = LeachConfig {
        p: 0.12,
        payload_len: 24,
        sink_pos,
        sink: sink_id,
        max_boost_range: 400.0,
    };
    baseline(
        "leach",
        &|_| LeachSensor::boxed(leach),
        LeachSink::boxed(),
        &|w, sensors| {
            for &s in sensors {
                w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.start_round(ctx, 0));
            }
            w.run_for(200_000);
            for &s in sensors {
                w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.report(ctx));
            }
            w.run_for(200_000);
            for &s in sensors {
                w.with_behavior::<LeachSensor, _>(s, |b, ctx| b.flush(ctx));
            }
            w.run_for(500_000);
        },
    );
    // PEGASIS, one round: gather along the chain towards the leader.
    let chain_order = build_chain(&positions, sink_pos);
    let chain: Vec<NodeId> = chain_order.iter().map(|&i| NodeId(i as u32)).collect();
    let chain_positions: Vec<Point> = chain_order.iter().map(|&i| positions[i]).collect();
    baseline(
        "pegasis",
        &|i| {
            PegasisSensor::boxed(PegasisConfig {
                chain_index: chain_order.iter().position(|&c| c == i).unwrap(),
                chain: chain.clone(),
                chain_positions: chain_positions.clone(),
                sink: sink_id,
                sink_pos,
                max_boost_range: 400.0,
            })
        },
        PegasisSink::boxed(chain.clone()),
        &|w, sensors| {
            for &s in sensors {
                w.with_behavior::<PegasisSensor, _>(s, |b, _| b.start_round(0));
            }
            let li = PegasisSensor::leader_index(0, chain.len());
            let mut order: Vec<usize> = (0..li).collect();
            order.extend((li + 1..chain.len()).rev());
            order.push(li);
            for k in order {
                w.with_behavior::<PegasisSensor, _>(chain[k], |b, ctx| b.gather(ctx, 0));
                w.run_for(50_000);
            }
            w.run_for(500_000);
        },
    );
    // SPR with the single sink (the paper's own flat case).
    baseline(
        "spr_m1",
        &|_| SprSensor::boxed(SprConfig::default()),
        SprGateway::boxed(),
        &|w, s| originate_all(w, s, SprSensor::originate),
    );
    rows
}

// --------------------------------------------------------------- E16 --

/// E16 (extension of §5.3's balance objective): energy-aware route
/// selection — among routes within `slack` hops of the minimum, prefer
/// the one whose weakest relay has the most residual battery. Both arms
/// re-discover every round (identical control cost), so the measured
/// differences in lifetime and the paper's `D²` come purely from the
/// data-path choice.
pub fn e16_energy_aware(seed: u64) -> Vec<ReportRow> {
    use wmsn_routing::mlr::MlrConfig;
    let mut rows = Vec::new();
    for slack in [0u32, 2] {
        let n = 50;
        let field = FieldParams {
            battery_j: 4.0,
            ..FieldParams::default_uniform(n, seed)
        };
        let traffic = TrafficParams {
            msgs_per_sensor_per_round: 10,
            ..TrafficParams::default()
        };
        let scen = build_mlr_with(
            &field,
            &GatewayParams::default_three(),
            traffic,
            MlrConfig {
                energy_slack: slack,
                ..MlrConfig::default()
            },
        );
        let sensors = scen.sensors.clone();
        let mut driver = MlrDriver::new(scen);
        driver.protocol.reset_tables = true;
        // D² is only comparable at equal elapsed rounds: snapshot the
        // balance after 8 rounds (both arms still fully alive), then run
        // on to first death for the lifetime figure.
        driver.run_rounds(8);
        let d2_at_8 = driver.scenario.world.metrics().energy_d2(&sensors);
        let lt = driver.run_until_first_death(100);
        let m = driver.scenario.world.metrics();
        let cfg_label = format!("slack={slack}");
        rows.push(ReportRow::new(
            "E16",
            &cfg_label,
            "lifetime_rounds",
            lt.lifetime_rounds
                .map(|r| f64::from(r + 8))
                .unwrap_or(f64::NAN),
        ));
        rows.push(ReportRow::new(
            "E16",
            &cfg_label,
            "energy_d2_round8",
            d2_at_8,
        ));
        rows.push(ReportRow::new(
            "E16",
            &cfg_label,
            "delivery_ratio",
            m.delivery_ratio(),
        ));
        rows.push(ReportRow::new(
            "E16",
            &cfg_label,
            "mean_hops",
            m.mean_hops(),
        ));
    }
    rows
}

// ------------------------------------------------------- seed sweeps --

/// Run `f(seed)` for every seed **in parallel** and collect the results
/// in seed order. Simulations are single-threaded and deterministic;
/// sweeps across seeds are embarrassingly parallel, so this is where the
/// workstation's cores go. Work is chunked over scoped threads (one per
/// available core); results land in their seed's slot, so ordering is
/// independent of scheduling.
pub fn parallel_sweep<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    wmsn_util::pool::parallel_chunked(seeds.len(), workers, |i| f(seeds[i]))
}

/// E17: seed-robustness sweep — MLR delivery ratio and mean hops across
/// independent deployments, reported as mean ± std. Runs the per-seed
/// simulations across all cores via [`parallel_sweep`].
pub fn e17_seed_sweep(seeds: &[u64]) -> Vec<ReportRow> {
    use wmsn_util::stats::Summary;
    let outcomes = parallel_sweep(seeds, |seed| {
        let field = FieldParams {
            battery_j: 10.0,
            ..FieldParams::default_uniform(50, seed)
        };
        let mut d = MlrDriver::new(build_mlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        ));
        let r = d.run_round();
        let m = d.scenario.world.metrics();
        (r.delivery_ratio(), m.mean_hops(), m.sent_control as f64)
    });
    let mut delivery = Summary::new();
    let mut hops = Summary::new();
    let mut control = Summary::new();
    for (d, h, c) in &outcomes {
        delivery.push(*d);
        hops.push(*h);
        control.push(*c);
    }
    let cfg_label = format!("mlr n=50 seeds={}", seeds.len());
    vec![
        ReportRow::new("E17", &cfg_label, "delivery_mean", delivery.mean()),
        ReportRow::new("E17", &cfg_label, "delivery_std", delivery.std_dev()),
        ReportRow::new("E17", &cfg_label, "mean_hops_mean", hops.mean()),
        ReportRow::new("E17", &cfg_label, "mean_hops_std", hops.std_dev()),
        ReportRow::new("E17", &cfg_label, "control_frames_mean", control.mean()),
        ReportRow::new(
            "E17",
            &cfg_label,
            "delivery_min",
            delivery.min().unwrap_or(0.0),
        ),
    ]
}

// --------------------------------------------------------------- E18 --

/// The alert class the detector bank is expected to raise for each E6
/// attack (`None` for the healthy baseline, which must raise nothing).
/// This is the experiment's ground truth — the monitor itself never
/// sees it.
pub fn expected_alert_class(attack: Attack) -> Option<wmsn_health::AlertKind> {
    use wmsn_health::AlertKind;
    match attack {
        Attack::None => None,
        // Data vanishes into a node that never forwards or delivers.
        Attack::Blackhole | Attack::Sinkhole | Attack::Wormhole | Attack::WormholeGuarded => {
            Some(AlertKind::ForwardAsymmetry)
        }
        Attack::Replay => Some(AlertKind::DuplicateStorm),
        // Both announcer variants are unprompted control floods.
        Attack::FalseAnnounce | Attack::HelloFlood => Some(AlertKind::AnnounceSpike),
    }
}

/// Run one E6 attack cell blind through the health monitor: the monitor
/// is installed as the world's trace sink before start and never told
/// which attack (if any) is running. Returns the outcome and the
/// flushed monitor for fingerprint inspection.
pub fn run_attack_cell_monitored(
    protocol: TargetProtocol,
    attack: Attack,
    seed: u64,
    cfg: wmsn_health::HealthConfig,
) -> (AttackOutcome, wmsn_health::HealthMonitor) {
    let monitor = wmsn_health::HealthMonitor::boxed(cfg);
    let (outcome, mut sink) = run_attack_cell(protocol, attack, seed, Some(monitor));
    let monitor = expect_sink::<wmsn_health::HealthMonitor>(sink.as_deref_mut()).clone();
    (outcome, monitor)
}

/// E18: blind attack fingerprinting. Every E6 attack cell (MLR arm) is
/// run with the monitor watching; `detected` is 1 when the expected
/// alert class is raised (for the baseline: when *no* alert is raised).
/// `alerts` counts everything the bank raised in that cell.
pub fn e18_detection(seed: u64) -> Vec<ReportRow> {
    let mut rows = Vec::new();
    for attack in Attack::all() {
        let (out, monitor) = run_attack_cell_monitored(
            TargetProtocol::Mlr,
            attack,
            seed,
            wmsn_health::HealthConfig::default(),
        );
        let classes: std::collections::BTreeSet<wmsn_health::AlertKind> =
            monitor.alerts().iter().map(|a| a.kind).collect();
        let detected = match expected_alert_class(attack) {
            Some(class) => classes.contains(&class),
            None => monitor.alerts().is_empty(),
        };
        let cfg_label = format!("mlr vs {}", attack.label());
        rows.push(ReportRow::new(
            "E18",
            &cfg_label,
            "detected",
            if detected { 1.0 } else { 0.0 },
        ));
        rows.push(ReportRow::new(
            "E18",
            &cfg_label,
            "alerts",
            monitor.alerts().len() as f64,
        ));
        rows.push(ReportRow::new(
            "E18",
            &cfg_label,
            "delivery_ratio",
            out.delivery_ratio,
        ));
    }
    rows
}

/// E18 recovery: E8's gateway-death scenario, but the redirect is
/// monitor-driven instead of scripted. The monitor watches the healthy
/// and failure rounds, raises gateway-silence on the victim, and
/// [`crate::health_loop`] applies the policy's `RemoveGateway` — the
/// experiment never names the victim itself.
pub fn e18_recovery(seed: u64) -> Vec<ReportRow> {
    use wmsn_health::{HealthConfig, HealthMonitor, HealthPolicy};
    let mut mlr = failover_driver(seed);
    mlr.scenario
        .world
        .set_trace_sink(HealthMonitor::boxed(HealthConfig::default()));
    let healthy = mlr.run_round();
    let victim = mlr.scenario.gateways[0];
    mlr.scenario.world.kill(victim);
    let failure = mlr.run_round();
    // The self-healing loop: whatever the monitor flagged, the policy
    // maps to levers. No victim id flows from the script to the repair.
    let policy = HealthPolicy::default();
    let s = &mut mlr.scenario;
    let actions = crate::health_loop::drain_actions(&mut s.world, &policy);
    let applied = crate::health_loop::apply_to_mlr(&mut s.world, &s.sensors, &s.gateways, &actions);
    let recovered = mlr.run_round();
    vec![
        ReportRow::new(
            "E18",
            "mlr healthy",
            "delivery_ratio",
            healthy.delivery_ratio(),
        ),
        ReportRow::new(
            "E18",
            "mlr gateway_killed",
            "delivery_ratio",
            failure.delivery_ratio(),
        ),
        ReportRow::new(
            "E18",
            "mlr monitor_recovered",
            "delivery_ratio",
            recovered.delivery_ratio(),
        ),
        ReportRow::new("E18", "mlr recovery", "actions_applied", applied as f64),
    ]
}

/// E18 forensics: the gateway-death MLR run recorded through a
/// checkpointing [`wmsn_health::ForensicCaptureSink`] — a healthy round,
/// the kill, and a failure round, captured with a monitor state
/// checkpoint at every sealed segment and the run's alert JSONL embedded
/// in the capture trailer. This is the capture `wmsn-trace record-e18`
/// writes and the CI windowed-replay parity steps interrogate. Small
/// segments (256 frames) keep the segment directory dense enough that
/// windowed replay demonstrably skips most of the file. Returns the
/// capture stats and the number of alerts the co-hosted monitor raised.
pub fn e18_forensics_capture(
    path: &std::path::Path,
    seed: u64,
) -> (wmsn_trace::CaptureStats, usize) {
    use wmsn_health::{ForensicCaptureSink, HealthConfig};
    let mut mlr = failover_driver(seed);
    let sink = ForensicCaptureSink::create(
        path,
        wmsn_trace::CaptureConfig {
            segment_frames: 256,
        },
        HealthConfig::default(),
        1,
    )
    .expect("create forensic capture");
    mlr.scenario.world.set_trace_sink(Box::new(sink));
    mlr.run_round();
    let victim = mlr.scenario.gateways[0];
    mlr.scenario.world.kill(victim);
    mlr.run_round();
    let mut sink = mlr.scenario.world.take_trace_sink();
    let f = expect_sink::<ForensicCaptureSink>(sink.as_deref_mut());
    let stats = f.finalize().expect("capture written");
    (stats, f.monitor().alerts().len())
}

/// Monitored large-scale round: [`e9_large`] recorded through one
/// [`wmsn_trace::CaptureSink`] at `dir/e9.wcap`, then one
/// [`wmsn_health::HealthMonitor`] fed from a full scan of that capture.
/// The capture holds the trace on disk, so the round needs no more
/// memory for its tens of millions of frames than the unmonitored one;
/// the scan holds one segment at a time.
///
/// Returns the round summary, the finalized monitor, and the capture
/// telemetry.
pub fn e9_large_monitored(
    n: usize,
    seed: u64,
    sources: usize,
    dir: &std::path::Path,
) -> (
    E9LargeSummary,
    wmsn_health::HealthMonitor,
    wmsn_trace::CaptureStats,
) {
    let (mut scen, base) = e9_large_scenario(n, seed);
    let path = dir.join("e9.wcap");
    let sink = wmsn_trace::CaptureSink::create(&path, wmsn_trace::CaptureConfig::default())
        .expect("create capture file");
    scen.world.set_trace_sink(Box::new(sink));
    let summary = e9_large_round(&mut scen, base, sources);
    let mut sink = scen.world.take_trace_sink();
    let cap = expect_sink::<wmsn_trace::CaptureSink>(sink.as_deref_mut())
        .finalize()
        .expect("capture written");
    let mut monitor = wmsn_health::HealthMonitor::with_config(wmsn_health::HealthConfig::default());
    let mut reader = wmsn_trace::CaptureReader::open(&path).expect("open capture");
    reader
        .scan(&wmsn_trace::ScanFilter::all(), |ev, _, _| {
            monitor.observe(ev)
        })
        .expect("scan capture");
    monitor.finalize();
    (summary, monitor, cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::find_value;

    #[test]
    fn e1_reproduces_fig2_exactly() {
        let rows = e1_fig2();
        for k in 1..=4 {
            let paper_a = find_value(&rows, &format!("fig2a S{k}"), "hops_paper").unwrap();
            let meas_a = find_value(&rows, &format!("fig2a S{k}"), "hops_measured").unwrap();
            assert_eq!(paper_a, meas_a, "fig2a S{k}");
            let paper_b = find_value(&rows, &format!("fig2b S{k}"), "hops_paper").unwrap();
            let meas_b = find_value(&rows, &format!("fig2b S{k}"), "hops_measured").unwrap();
            assert_eq!(paper_b, meas_b, "fig2b S{k}");
        }
    }

    #[test]
    fn e1_random_fields_show_the_multi_gateway_collapse() {
        let rows = e1_random_fields(&[300], 7);
        let m1 = find_value(&rows, "n=300 m=1", "mean_hops").unwrap();
        let m3 = find_value(&rows, "n=300 m=3", "mean_hops").unwrap();
        assert!(
            m3 < m1 * 0.8,
            "three gateways should cut mean hops well below one sink: {m1} → {m3}"
        );
    }

    #[test]
    fn e2_simulation_matches_table1() {
        let rows = e2_table1();
        for round in 1..=3usize {
            let sel = find_value(&rows, &format!("round {round}"), "selected_place_id").unwrap();
            assert_eq!(
                sel as usize,
                TABLE1_SELECTED[round - 1],
                "round {round} selected place"
            );
            let hops = find_value(&rows, &format!("round {round}"), "selected_hops").unwrap();
            let paper = find_value(&rows, &format!("round {round}"), "paper_hops").unwrap();
            assert_eq!(hops, paper, "round {round} hops");
        }
        // Table grows: 3 entries after round 1, 4 after round 2, 5 after 3.
        assert_eq!(find_value(&rows, "round 1", "table_entries"), Some(3.0));
        assert_eq!(find_value(&rows, "round 2", "table_entries"), Some(4.0));
        assert_eq!(find_value(&rows, "round 3", "table_entries"), Some(5.0));
    }

    #[test]
    fn e5_incremental_beats_reset() {
        let rows = e5_overhead(7, 5);
        let inc = find_value(&rows, "incremental", "control_frames_steady_state").unwrap();
        let rst = find_value(&rows, "reset_each_round", "control_frames_steady_state").unwrap();
        assert!(
            rst > inc.max(1.0) * 3.0,
            "incremental tables must slash steady-state control traffic: {inc} vs {rst}"
        );
        let inc_ratio = find_value(&rows, "incremental", "delivery_ratio").unwrap();
        assert!(inc_ratio > 0.9);
    }

    #[test]
    fn parallel_sweep_matches_serial_execution() {
        let seeds: Vec<u64> = (1..=6).collect();
        let parallel = parallel_sweep(&seeds, |s| {
            let field = FieldParams::default_uniform(20, s);
            let scen = crate::builder::build_spr(
                &field,
                &GatewayParams::default_three(),
                TrafficParams::default(),
            );
            scen.sensor_positions.len() as u64 + scen.gateway_positions.len() as u64 + s
        });
        let serial: Vec<u64> = seeds
            .iter()
            .map(|&s| {
                let field = FieldParams::default_uniform(20, s);
                let scen = crate::builder::build_spr(
                    &field,
                    &GatewayParams::default_three(),
                    TrafficParams::default(),
                );
                scen.sensor_positions.len() as u64 + scen.gateway_positions.len() as u64 + s
            })
            .collect();
        assert_eq!(
            parallel, serial,
            "sweep must preserve order and determinism"
        );
    }

    #[test]
    fn e17_all_seeds_deliver() {
        let rows = e17_seed_sweep(&[1, 2, 3, 4]);
        let min = crate::report::find_value(&rows, "seeds=4", "delivery_min").unwrap();
        assert!(min > 0.9, "worst seed delivery {min}");
        let std = crate::report::find_value(&rows, "seeds=4", "delivery_std").unwrap();
        assert!(std < 0.1);
    }

    #[test]
    fn e10_alpha_reduces_imbalance() {
        let rows = e10_load_balance(3);
        let i0 = find_value(&rows, "alpha=0", "load_imbalance").unwrap();
        let i4 = find_value(&rows, "alpha=4", "load_imbalance").unwrap();
        assert!(
            i4 < i0,
            "load-aware selection must spread the hot spot: {i0} → {i4}"
        );
        assert!(find_value(&rows, "alpha=4", "delivery_ratio").unwrap() > 0.85);
    }
}
