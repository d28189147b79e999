//! Kernel schedule digest: the event loop's pop order, pinned.
//!
//! Every observable of a run (trace line order, medium RNG draws,
//! battery deaths, the delivery ledger) follows from the order in which
//! the event loop hands receptions, timers and retransmissions to the
//! nodes. The goldens pin that order indirectly through protocol
//! metrics; this test pins it directly on small worlds built to sit on
//! each ordering edge of the medium fan-out:
//!
//! * `zero_delay_preemption` — receivers relay from a zero-delay timer.
//!   Receivers with a lower id than the broadcaster mint timer keys that
//!   sort before the broadcaster's remaining receptions at the same
//!   microsecond, so those timers must fire between receptions of one
//!   broadcast;
//! * `battery_death_in_flight` — one receiver's battery dies on its own
//!   transmission while a frame to it is in the air, another dies paying
//!   for the reception;
//! * `kill_revive_in_flight` — the driver kills receivers between
//!   `run_until` calls while broadcasts to them are in flight, and
//!   revives some of them before the frames arrive; a node killed at
//!   send time and revived before arrival is not a receiver at all;
//! * `csma_collisions_loss` — carrier sensing, receiver-overlap
//!   collisions and random loss (the medium RNG is drawn in delivery
//!   order), plus unicast relays;
//! * `ranged_broadcast` — boosted-power `send_ranged` frames (the LEACH
//!   path), broadcast and unicast;
//! * `two_shards` — a relay field on a 2-strip `ShardedWorld` (one
//!   thread), where receivers sit on both sides of the cut; its metrics
//!   must match the reference's. A sharded world is untraced, so the
//!   row's trace digest is the reference run's.
//!
//! Each row records the FNV-1a 64 of the JSONL trace and of the final
//! `Metrics` (`Debug` form), plus `events_processed` and
//! `peak_queue_depth`. To regenerate after an *intentional* schedule
//! change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --release --test kernel_schedule -- --nocapture
//! ```

use std::any::Any;
use wmsn::sim::{
    Behavior, CollisionModel, Ctx, MediumConfig, Metrics, NodeConfig, Packet, PacketKind,
    ShardedWorld, Tier, World, WorldConfig,
};
use wmsn::trace::{BufferSink, TraceEvent};
use wmsn::util::{NodeId, Point};

/// Pinned `(trace fnv, metrics fnv, events_processed,
/// peak_queue_depth)` of a scenario.
type Pinned = (u64, u64, u64, usize);

/// A labelled scenario with its pinned digest.
type Scenario = (&'static str, fn() -> Row, Pinned);

const SCENARIOS: [Scenario; 6] = [
    (
        "zero_delay_preemption",
        zero_delay_preemption,
        (0xf654448a55400d7b, 0x2afccbad2bdf14cc, 35, 25),
    ),
    (
        "battery_death_in_flight",
        battery_death_in_flight,
        (0x8e6528fee2cb60f8, 0x9d6647bac6322497, 50, 36),
    ),
    (
        "kill_revive_in_flight",
        kill_revive_in_flight,
        (0x26bf79570aa5cd4e, 0x261a638538126b88, 97, 47),
    ),
    (
        "csma_collisions_loss",
        csma_collisions_loss,
        (0x5706c02982d2f7f1, 0xa84457d15c556301, 1755, 118),
    ),
    (
        "ranged_broadcast",
        ranged_broadcast,
        (0xa0a333730653b96c, 0x0e98670dd760f1b9, 417, 297),
    ),
    (
        "two_shards",
        two_shards,
        (0xb600f6f3e54fc292, 0xbf6235649d7e5fab, 1056, 445),
    ),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How a [`Relay`] forwards what it hears.
#[derive(Clone, Copy)]
enum Mode {
    /// Re-broadcast inside `on_packet`.
    Inline,
    /// Re-broadcast from a zero-delay timer set in `on_packet`.
    ZeroDelayTimer,
    /// Re-broadcast at boosted power over this many metres.
    Ranged(f64),
    /// Unicast to the next node id (wrapping), inline.
    UnicastNext(u32),
}

/// Floods `[hop, origin]` frames: relays each origin once, up to
/// `max_hops`, and records a delivery at the last hop.
struct Relay {
    kick: bool,
    mode: Mode,
    max_hops: u8,
    seen: Vec<u8>,
    pending: Vec<[u8; 2]>,
}

impl Relay {
    fn boxed(kick: bool, mode: Mode, max_hops: u8) -> Box<Relay> {
        Box::new(Relay {
            kick,
            mode,
            max_hops,
            seen: Vec::new(),
            pending: Vec::new(),
        })
    }

    fn emit(&self, ctx: &mut Ctx<'_>, frame: [u8; 2]) {
        let kind = PacketKind::Control;
        match self.mode {
            Mode::Inline | Mode::ZeroDelayTimer => {
                ctx.send(None, Tier::Sensor, kind, frame.to_vec());
            }
            Mode::Ranged(r) => {
                ctx.send_ranged(None, Tier::Sensor, kind, frame.to_vec(), r);
                ctx.send_ranged(Some(NodeId(0)), Tier::Sensor, kind, frame.to_vec(), r);
            }
            Mode::UnicastNext(n) => {
                let next = NodeId((ctx.id().0 + 1) % n);
                ctx.send(Some(next), Tier::Sensor, PacketKind::Data, frame.to_vec());
                ctx.send(None, Tier::Sensor, kind, frame.to_vec());
            }
        }
    }
}

impl Behavior for Relay {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.kick {
            ctx.record_origination();
            self.seen.push(ctx.id().0 as u8);
            self.emit(ctx, [0, ctx.id().0 as u8]);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let (hop, origin) = (pkt.payload[0], pkt.payload[1]);
        if self.seen.contains(&origin) {
            return;
        }
        self.seen.push(origin);
        if hop + 1 >= self.max_hops {
            ctx.record_delivery(NodeId(origin as u32), origin as u64, 0, hop as u32 + 1);
            return;
        }
        let frame = [hop + 1, origin];
        if let Mode::ZeroDelayTimer = self.mode {
            self.pending.push(frame);
            ctx.set_timer(0, origin as u64);
        } else {
            self.emit(ctx, frame);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tag: u64) {
        let frame = self.pending.remove(0);
        self.emit(ctx, frame);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A `cols × rows` grid, `pitch` metres apart (sensor range 25 m), with
/// `battery_j` per node and `kick(i)` choosing the originators.
fn grid(
    cfg: WorldConfig,
    (cols, rows, pitch): (usize, usize, f64),
    battery_j: f64,
    mode: Mode,
    max_hops: u8,
    kick: impl Fn(usize) -> bool,
) -> World {
    let mut w = World::new(cfg);
    for i in 0..cols * rows {
        let p = Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch);
        w.add_node(
            NodeConfig::sensor(p, battery_j),
            Relay::boxed(kick(i), mode, max_hops),
        );
    }
    w
}

/// A finished run's pinned observables, with the trace and metrics
/// kept for the per-scenario checks that the run reached its edge.
struct Row {
    trace: u64,
    metrics: u64,
    events: u64,
    peak: usize,
    m: Metrics,
    jsonl: String,
}

fn metrics_fnv(m: &Metrics) -> u64 {
    fnv1a(format!("{m:?}").as_bytes())
}

fn traced(mut w: World, drive: impl FnOnce(&mut World)) -> Row {
    w.set_trace_sink(Box::new(BufferSink::new()));
    drive(&mut w);
    let sink = w.take_trace_sink().expect("installed");
    let jsonl = sink
        .as_any()
        .downcast_ref::<BufferSink>()
        .expect("buffer")
        .out
        .clone();
    Row {
        trace: fnv1a(jsonl.as_bytes()),
        metrics: metrics_fnv(w.metrics()),
        events: w.events_processed(),
        peak: w.peak_queue_depth(),
        m: w.metrics().clone(),
        jsonl,
    }
}

/// Whether some node transmits at the instant of a broadcast's
/// receptions, between two of them — a zero-delay timer that fired in
/// the middle of the fan-out.
fn tx_between_receptions(jsonl: &str) -> bool {
    let evs: Vec<TraceEvent> = jsonl
        .lines()
        .map(|l| TraceEvent::from_json_line(l).expect("trace line"))
        .collect();
    evs.iter().enumerate().any(|(i, a)| {
        let TraceEvent::Rx { t, seq, .. } = *a else {
            return false;
        };
        let rest = &evs[i + 1..];
        let Some(j) = rest
            .iter()
            .position(|e| matches!(*e, TraceEvent::TxStart { t: u, .. } if u == t))
        else {
            return false;
        };
        rest[j..]
            .iter()
            .any(|e| matches!(*e, TraceEvent::Rx { t: u, seq: s, .. } if u == t && s == seq))
    })
}

/// Six nodes in a clique; node 3 broadcasts first, so receivers 0–2
/// mint relay-timer keys below node 3's remaining reception keys and
/// receivers 4–5 mint keys above them.
fn zero_delay_preemption() -> Row {
    let w = grid(
        WorldConfig::ideal(5),
        (3, 2, 5.0),
        1.0,
        Mode::ZeroDelayTimer,
        3,
        |i| i == 3,
    );
    let r = traced(w, |w| w.run_until(1_000_000));
    assert!(
        tx_between_receptions(&r.jsonl),
        "no timer fired mid-fan-out"
    );
    r
}

fn battery_death_in_flight() -> Row {
    // Per-packet energy: 1 mJ per send and per reception. Node 1 can
    // afford one send; node 2 one send and nothing more.
    let mut w = grid(
        WorldConfig::ideal(9),
        (4, 1, 8.0),
        1.0,
        Mode::Inline,
        3,
        |_| false,
    );
    let weak = w.add_node(
        NodeConfig::sensor(Point::new(12.0, 4.0), 1e-3),
        Relay::boxed(false, Mode::Inline, 3),
    );
    let frail = w.add_node(
        NodeConfig::sensor(Point::new(4.0, 4.0), 1.5e-3),
        Relay::boxed(false, Mode::Inline, 3),
    );
    let r = traced(w, |w| {
        w.start();
        w.with_behavior::<Relay, _>(NodeId(0), |r, ctx| r.on_start_kick(ctx));
        // Both spend their battery while node 0's frame is in the air.
        w.with_behavior::<Relay, _>(weak, |r, ctx| r.on_start_kick(ctx));
        w.with_behavior::<Relay, _>(frail, |r, ctx| r.on_start_kick(ctx));
        w.run_until(1_000_000);
    });
    assert!(r.m.dead_receiver > 0, "no reception at a dead receiver");
    assert!(
        r.jsonl.contains("\"cause\":\"energy\""),
        "no death on reception"
    );
    r
}

fn kill_revive_in_flight() -> Row {
    let w = grid(
        WorldConfig::ideal(13),
        (4, 2, 9.0),
        1.0,
        Mode::Inline,
        3,
        |_| false,
    );
    let r = traced(w, |w| {
        w.start();
        // Node 6 is dead at send time, so it is no receiver even though
        // it is revived before the frame lands.
        w.kill(NodeId(6));
        w.with_behavior::<Relay, _>(NodeId(1), |r, ctx| r.on_start_kick(ctx));
        w.run_until(10);
        w.kill(NodeId(0));
        w.kill(NodeId(2));
        w.kill(NodeId(5));
        w.run_until(20);
        w.revive(NodeId(0));
        w.revive(NodeId(6));
        w.revive(NodeId(5));
        w.run_until(1_000_000);
        // A second origin while node 2 is still dead; revive it after.
        w.with_behavior::<Relay, _>(NodeId(7), |r, ctx| r.on_start_kick(ctx));
        w.run_until(1_000_010);
        w.revive(NodeId(2));
        w.run_until(2_000_000);
    });
    assert!(r.m.dead_receiver > 0, "no reception at a killed receiver");
    r
}

fn csma_collisions_loss() -> Row {
    let cfg = WorldConfig {
        medium: MediumConfig {
            loss_prob: 0.15,
            collisions: CollisionModel::ReceiverOverlap,
            csma: true,
            ..MediumConfig::default()
        },
        ..WorldConfig::ideal(21)
    };
    let w = grid(cfg, (5, 4, 9.0), 1.0, Mode::UnicastNext(20), 4, |i| {
        i % 6 == 0
    });
    let r = traced(w, |w| w.run_until(5_000_000));
    let m = &r.m;
    assert!(
        m.csma_deferrals > 0 && m.collided > 0 && m.lost > 0,
        "{m:?}"
    );
    r
}

fn ranged_broadcast() -> Row {
    let w = grid(
        WorldConfig::ideal(31),
        (10, 3, 20.0),
        1.0,
        Mode::Ranged(45.0),
        3,
        |i| i == 1 || i == 28,
    );
    let r = traced(w, |w| w.run_until(1_000_000));
    // A 45 m frame spans two 20 m columns, so some nodes first hear an
    // origin at the third hop and record a delivery.
    assert!(!r.m.deliveries.is_empty(), "no frame crossed the field");
    r
}

/// The relay field for the sharded run: unlimited batteries (the
/// sharded kernel requires death-free runs), three originators. Relays
/// are inline: a zero-delay timer's key sorts before the reception that
/// set it, so the stamp-ordered merge of per-shard delivery ledgers
/// would place its deliveries before that reception's.
fn shard_field() -> World {
    grid(
        WorldConfig::ideal(41),
        (8, 3, 9.0),
        f64::INFINITY,
        Mode::Inline,
        6,
        |i| i == 3 || i == 12 || i == 20,
    )
}

fn two_shards() -> Row {
    let reference = traced(shard_field(), |w| w.run_until(1_000_000));
    // Strips by column: columns 0–3 on shard 0, 4–7 on shard 1.
    let assignment: Vec<u16> = (0..24).map(|i| ((i % 8) / 4) as u16).collect();
    let mut sw = ShardedWorld::from_world(shard_field(), assignment, 1);
    sw.run_until(1_000_000);
    let row = Row {
        trace: reference.trace,
        metrics: metrics_fnv(sw.metrics()),
        events: sw.events_processed(),
        peak: sw.peak_queue_depth(),
        m: sw.metrics().clone(),
        jsonl: reference.jsonl,
    };
    assert_eq!(
        row.metrics, reference.metrics,
        "sharded metrics != reference"
    );
    row
}

impl Relay {
    /// Driver-side origination, as `on_start` does for kick nodes.
    fn on_start_kick(&mut self, ctx: &mut Ctx<'_>) {
        self.kick = true;
        self.on_start(ctx);
    }
}

#[test]
fn kernel_schedule_matches_the_pinned_digests() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    for (label, run, pinned) in SCENARIOS {
        let r = run();
        let got = (r.trace, r.metrics, r.events, r.peak);
        if regen {
            println!(
                "    ({label:?}, {label}, ({:#018x}, {:#018x}, {}, {})),",
                got.0, got.1, got.2, got.3
            );
            continue;
        }
        assert_eq!(got, pinned, "{label}: schedule digest changed");
    }
    assert!(
        !regen,
        "GOLDEN_REGEN run: paste the printed rows into PINNED"
    );
}
