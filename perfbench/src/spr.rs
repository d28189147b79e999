//! `spr_flood` and `spr_flood_sharded`: one cache-cold network-wide SPR
//! discovery plus delivery per op, on the reference kernel or on the
//! sharded kernel (two strip shards, one thread).
//!
//! Set-up builds the E9 three-tier field (density 0.02/m², one gateway
//! per 500 sensors, a base station every gateway uplinks to) with no
//! trace sink, and runs warm-up ops from fixed sources. The set-up is the
//! same for every seed, so its cost does not vary between seeds; the
//! seed picks each op's source. One
//! op resets every sensor's and gateway's round state, arms one source
//! and runs one round: the RREQ flood reaches every sensor, the RREP
//! and data return, and the gateway forwards the data to the base.

use crate::measure::{Fnv, Tracer};
use crate::{ms_per_op, op_rng, Config, Layers, Workload};
use std::time::Instant;
use wmsn_core::builder::{build_spr_three_tier, SprScenario};
use wmsn_core::params::{FieldParams, GatewayParams, TrafficParams};
use wmsn_routing::spr::{SprGateway, SprSensor};
use wmsn_sim::sharded::ShardedWorld;
use wmsn_sim::{SimHost, World};
use wmsn_topology::{strip_shards, MovementPolicy, PlacementAlgorithm};
use wmsn_util::NodeId;

/// Sensors in the field: enough that the kernel's working set
/// outgrows a 4 MiB L2.
pub const N_SENSORS: usize = 8000;
/// Field seed, fixed across workload seeds.
const FIELD_SEED: u64 = 0xE9;
/// Warm-up ops folded into set-up.
const WARMUP_OPS: u64 = 2;
/// Seed of the warm-up ops' sources, fixed across workload seeds.
const WARMUP_SEED: u64 = 0x3a7e;
/// Shards of the sharded kernel.
const SHARDS: usize = 2;
/// `k` offset of warm-up ops, outside any measured op's range.
const WARMUP_K: u64 = 1 << 40;

/// Build the field on the reference kernel (the `core::builder` call).
fn build_field() -> (SprScenario, NodeId) {
    let field = FieldParams {
        battery_j: f64::INFINITY,
        ..FieldParams::constant_density(N_SENSORS, 0.02, FIELD_SEED)
    };
    let m = N_SENSORS / 500;
    let grid = (m as f64).sqrt().ceil() as usize;
    let gw = GatewayParams {
        m,
        place_grid: (grid, grid),
        placement: PlacementAlgorithm::Random,
        movement: MovementPolicy::Static,
    };
    build_spr_three_tier(&field, &gw, TrafficParams::default())
}

/// Lift a freshly built scenario onto the sharded kernel.
fn shard(scen: SprScenario, base: NodeId) -> SprScenario<ShardedWorld> {
    let mut positions = scen.sensor_positions.clone();
    positions.extend_from_slice(&scen.gateway_positions);
    positions.push(scen.world.node(base).pos);
    let assignment = strip_shards(&positions, scen.range_m, SHARDS);
    scen.map_world(|w| ShardedWorld::from_world(w, assignment, 1))
}

/// Cumulative routing counters at an op boundary.
#[derive(Clone, Copy, Debug, Default)]
struct Snap {
    originated: u64,
    unique: u64,
    control: u64,
    data: u64,
    deliveries: usize,
    events: u64,
}

fn snap<H: SimHost>(w: &mut H) -> Snap {
    let events = w.events_processed();
    let m = w.metrics();
    Snap {
        originated: m.originated,
        unique: m.unique_deliveries(),
        control: m.sent_control,
        data: m.sent_data,
        deliveries: m.deliveries.len(),
        events,
    }
}

/// One field on one kernel, started and uplinked.
struct Flood<H: SimHost> {
    scen: SprScenario<H>,
    base: NodeId,
    prev: Snap,
}

/// Routing outcome of one op.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    source: NodeId,
    originated: u64,
    delivered: u64,
    control: u64,
    data: u64,
    events: u64,
    /// `(destination, msg_id, sent_at, delivered_at, hops)` per delivery record.
    deliveries: Vec<(u32, u64, u64, u64, u32)>,
}

impl<H: SimHost> Flood<H> {
    fn new(mut scen: SprScenario<H>, base: NodeId) -> Flood<H> {
        scen.world.start();
        for &g in &scen.gateways {
            scen.world
                .with_behavior::<SprGateway, _>(g, |b, _| b.set_uplink(base));
        }
        let prev = snap(&mut scen.world);
        Flood { scen, base, prev }
    }

    /// The timed op: [`Flood::reset`] then [`Flood::run`].
    fn op(&mut self, seed: u64, k: u64, tr: &mut Tracer) -> NodeId {
        self.reset(tr);
        self.run(seed, k, tr)
    }

    /// Reset every sensor's and gateway's round state.
    fn reset(&mut self, tr: &mut Tracer) {
        let world = &mut self.scen.world;
        let (sensors, gateways, base) = (&self.scen.sensors, &self.scen.gateways, self.base);
        tr.time("routing.reset", || {
            for &s in sensors {
                world.with_behavior::<SprSensor, _>(s, |b, _| b.reset_round());
            }
            for &g in gateways.iter().chain([&base]) {
                world.with_behavior::<SprGateway, _>(g, |b, _| b.reset_round());
            }
        });
    }

    /// Arm op `k`'s seeded source and run one round.
    fn run(&mut self, seed: u64, k: u64, tr: &mut Tracer) -> NodeId {
        let world = &mut self.scen.world;
        let source = self.scen.sensors[op_rng(seed, k).next_index(self.scen.sensors.len())];
        let round_us = self.scen.traffic.round_duration_us;
        tr.time("sim.run", || {
            world.with_behavior::<SprSensor, _>(source, |b, ctx| b.schedule_originate(ctx, 1));
            world.run_for(round_us);
        });
        source
    }

    /// What the op did, from the metrics ledger (untimed).
    fn outcome(&mut self, source: NodeId) -> Outcome {
        let now = snap(&mut self.scen.world);
        let deliveries = self.scen.world.metrics().deliveries[self.prev.deliveries..]
            .iter()
            .map(|d| (d.destination.0, d.msg_id, d.sent_at, d.delivered_at, d.hops))
            .collect();
        let p = std::mem::replace(&mut self.prev, now);
        Outcome {
            source,
            originated: now.originated - p.originated,
            delivered: now.unique - p.unique,
            control: now.control - p.control,
            data: now.data - p.data,
            events: now.events - p.events,
            deliveries,
        }
    }

    fn warm_up(&mut self) {
        let mut tr = Tracer::new(false);
        for i in 0..WARMUP_OPS {
            let src = self.op(WARMUP_SEED, WARMUP_K + i, &mut tr);
            self.outcome(src);
        }
    }
}

/// Per-layer counters over traced ops.
#[derive(Debug, Default)]
struct Acc {
    ops: u64,
    events: u64,
    control: u64,
    data: u64,
    originated: u64,
    delivered: u64,
    latency_us: f64,
    latency_n: u64,
    /// Reference-kernel [`Flood::run`] time and events on the same ops
    /// (sharded only).
    ref_run_ns: u64,
    ref_events: u64,
}

/// The SPR flood on kernel `H`.
pub struct SprFlood<H: Kernel> {
    seed: u64,
    flood: Flood<H>,
    /// Traced sharded runs replay every op on the reference kernel
    /// too, for the overhead ratio and an op-by-op equivalence check.
    /// The replay runs in the same process, right after the sharded op,
    /// with both fields resident, so its cache state is not the one
    /// `spr_flood` runs in.
    reference: Option<Flood<World>>,
    acc: Acc,
    build_ns: u64,
}

/// `spr_flood`: the reference kernel.
pub type SprFloodReference = SprFlood<World>;
/// `spr_flood_sharded`: two strip shards on one thread.
pub type SprFloodSharded = SprFlood<ShardedWorld>;

fn check_and_digest(o: &Outcome, digest: &mut Fnv) -> Result<(), String> {
    digest.push(o.source.0 as u64);
    for x in [o.originated, o.delivered, o.control, o.data] {
        digest.push(x);
    }
    for &(dst, msg, sent, at, hops) in &o.deliveries {
        for x in [dst as u64, msg, sent, at, hops as u64] {
            digest.push(x);
        }
    }
    if o.originated != 1 || o.delivered != 1 {
        return Err(format!(
            "source {} originated {} and delivered {} messages (want 1 and 1)",
            o.source.0, o.originated, o.delivered
        ));
    }
    Ok(())
}

/// A simulation kernel the flood runs on.
pub trait Kernel: SimHost + Sized {
    /// Whether traced runs also replay every op on the reference kernel.
    const PAIRED_WITH_REFERENCE: bool;
    /// Move a freshly built reference-kernel scenario onto this kernel.
    fn lift(scen: SprScenario, base: NodeId) -> SprScenario<Self>;
}

impl Kernel for World {
    const PAIRED_WITH_REFERENCE: bool = false;
    fn lift(scen: SprScenario, _base: NodeId) -> SprScenario {
        scen
    }
}

impl Kernel for ShardedWorld {
    const PAIRED_WITH_REFERENCE: bool = true;
    fn lift(scen: SprScenario, base: NodeId) -> SprScenario<ShardedWorld> {
        shard(scen, base)
    }
}

/// A freshly built, started and warmed-up field on kernel `H`, and how
/// long the `core::builder` call took.
fn fresh<H: Kernel>() -> (Flood<H>, u64) {
    let t = Instant::now();
    let (scen, base) = build_field();
    let build_ns = t.elapsed().as_nanos() as u64;
    let mut flood = Flood::new(H::lift(scen, base), base);
    flood.warm_up();
    (flood, build_ns)
}

impl<H: Kernel> Workload for SprFlood<H> {
    type Out = NodeId;
    fn setup(cfg: &Config) -> Result<Self, String> {
        let (flood, build_ns) = fresh::<H>();
        let reference = (cfg.trace && H::PAIRED_WITH_REFERENCE).then(|| fresh::<World>().0);
        Ok(SprFlood {
            seed: cfg.seed,
            flood,
            reference,
            acc: Acc::default(),
            build_ns,
        })
    }

    fn op(&mut self, k: u64, tr: &mut Tracer) -> Result<NodeId, String> {
        Ok(self.flood.op(self.seed, k, tr))
    }

    fn check(
        &mut self,
        k: u64,
        source: NodeId,
        traced: bool,
        digest: &mut Fnv,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let o = self.flood.outcome(source);
        let mut verdict = check_and_digest(&o, digest);
        if let Some(r) = &mut self.reference {
            // Time the same call `sim.run` spans on the sharded kernel.
            r.reset(tr);
            let t = Instant::now();
            let src = r.run(self.seed, k, tr);
            let ns = t.elapsed().as_nanos() as u64;
            let ro = r.outcome(src);
            let same = (ro.source, ro.originated, ro.delivered, ro.control, ro.data)
                == (o.source, o.originated, o.delivered, o.control, o.data)
                && ro.deliveries == o.deliveries;
            if !same && verdict.is_ok() {
                verdict = Err("sharded outcome differs from the reference kernel".into());
            }
            if traced {
                self.acc.ref_run_ns += ns;
                self.acc.ref_events += ro.events;
            }
        }
        if traced {
            let a = &mut self.acc;
            a.ops += 1;
            a.events += o.events;
            a.control += o.control;
            a.data += o.data;
            a.originated += o.originated;
            a.delivered += o.delivered;
            for d in &o.deliveries {
                a.latency_us += (d.3 - d.2) as f64;
                a.latency_n += 1;
            }
        }
        verdict
    }

    fn layers(&self, tr: &Tracer, l: &mut Layers) {
        let a = &self.acc;
        let ops = a.ops.max(1) as f64;
        let run_ns = tr.total_ns("sim.run") as f64;
        l.set("core.build_ms", self.build_ns as f64 / 1e6);
        l.set("sim.run_ms", ms_per_op(tr, "sim.run", a.ops));
        // No trace sink is installed: the kernel's self time is its run time.
        l.set("sim.self_ms", ms_per_op(tr, "sim.run", a.ops));
        l.set("sim.events_per_op", a.events as f64 / ops);
        l.set(
            "sim.events_per_s",
            a.events as f64 / (run_ns / 1e9).max(1e-9),
        );
        l.set("sim.ns_per_event", run_ns / a.events.max(1) as f64);
        l.set(
            "sim.peak_queue_depth",
            self.flood.scen.world.peak_queue_depth() as f64,
        );
        if self.reference.is_some() {
            // Per reference-kernel event: the same simulated work as
            // spr_flood's sim.ns_per_event.
            l.set("sharded.ns_per_event", run_ns / a.ref_events.max(1) as f64);
            l.set(
                "sharded.overhead_ratio",
                run_ns / (a.ref_run_ns as f64).max(1.0),
            );
        }
        l.set("routing.control_frames_per_op", a.control as f64 / ops);
        l.set("routing.data_frames_per_op", a.data as f64 / ops);
        l.set(
            "routing.delivery_ratio",
            a.delivered as f64 / a.originated.max(1) as f64,
        );
        l.set(
            "routing.control_per_delivery",
            a.control as f64 / a.delivered.max(1) as f64,
        );
        l.set(
            "routing.mean_latency_us",
            a.latency_us / a.latency_n.max(1) as f64,
        );
    }
}
