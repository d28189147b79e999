//! The sharded parallel simulation kernel.
//!
//! [`ShardedWorld`] partitions a [`World`]'s nodes across `S` shard
//! worlds and steps them on scoped worker threads, exchanging
//! shard-crossing deliveries through per-shard mailboxes between
//! *supersteps* (a conservative, window-synchronised parallel DES). The
//! single-threaded [`World`] stays the bit-exact golden reference and
//! the only kernel that hosts a trace sink. On a 2-core host this
//! kernel measured slower than the reference in 8 of 8 n=100k runs; it
//! remains, untraced, only as the subject of the `spr_flood_sharded`
//! benchmark workload.
//!
//! # Why the schedule is reproduced exactly
//!
//! Three design decisions carry the equivalence argument:
//!
//! 1. **Causal keys.** Every event carries a key `(scheduling node <<
//!    32) | per-node counter`, and same-time events fire in ascending
//!    key order (see [`crate::event`]). A node's counter advances only
//!    with that node's own actions, so the keys — and therefore the
//!    global tie-break order — are identical no matter how nodes are
//!    split across shards.
//! 2. **Conservative lookahead.** The only event kind that crosses a
//!    shard boundary is a packet delivery, and every delivery is
//!    scheduled at least `L = min_tier(hop_delay_us(0))` microseconds
//!    ahead of the transmit (transmission time is ≥ 1 µs and the fixed
//!    hop latency adds more; with default PHYs `L` = 75 µs from the
//!    mesh tier). Each superstep therefore executes the window
//!    `[t_min, t_min + L)`: no event inside the window can schedule a
//!    cross-shard delivery that lands inside the window.
//! 3. **Stamped delivery ledger.** Delivery records are stamped with
//!    the `(at, key)` of the event that produced them, and
//!    [`ShardedWorld::metrics`] merges the per-shard ledgers by sorting
//!    on `(at, key, ledger index)`.
//!
//! # Gating: which workloads are equivalence-safe
//!
//! The kernel refuses (by assertion) or documents divergence outside
//! this envelope:
//!
//! * **Ideal medium only** (`loss_prob == 0`, no collision model, no
//!   CSMA — i.e. [`MediumConfig::default`]). Loss draws consume the
//!   medium RNG in delivery order and carrier sensing reads *other*
//!   nodes' in-flight transmissions, both of which are global state the
//!   shards do not share. [`ShardedWorld::from_world`] asserts this.
//! * **Untraced.** A sharded world never hosts a trace sink;
//!   [`ShardedWorld::from_world`] asserts the donor has none.
//! * **Death-free runs.** A battery death re-orders every later event
//!   involving that node; replicas on other shards would not observe
//!   it. [`crate::world::WorldCore`]'s charge path panics if a node
//!   dies while shard state is installed. Driver-initiated
//!   [`ShardedWorld::kill`] is fine — it is replicated to every shard
//!   between supersteps.
//! * **No cross-node shared behaviour state.** Behaviours that secretly
//!   share `Rc` state across nodes (the E6 wormhole tunnel pair) must
//!   be co-located or excluded — see the safety notes in [`cell`].
//! * **No zero-delay deliveries.** A zero-delay timer set by a receiver
//!   whose id is below the sender's gets a causal key below that of the
//!   reception that set it. The reference kernel pops it right after
//!   that reception, but the stamp-ordered ledger merge puts a delivery
//!   it records *before* the deliveries of the reception's event, so
//!   the merged delivery ledger can differ from the reference in order
//!   (counters and sums are unaffected). SPR/MLR flood jitter can draw
//!   0, so this is not excluded by construction.
//!
//! Queue-occupancy statistics ([`ShardedWorld::peak_queue_depth`],
//! `events_processed`) are *not* bit-equivalent to the reference: the
//! reference holds all shards' events in one queue (its peak is ≥ the
//! max over shards), and the fast-unicast path plus windowing change
//! what is resident when. Metrics are the equivalence surface; the
//! shard-equivalence tests pin exactly that.
//!
//! [`MediumConfig::default`]: crate::medium::MediumConfig

use crate::metrics::Metrics;
use crate::node::{Ctx, NodeState};
use crate::time::SimTime;
use crate::world::{RemoteEvent, World};
use std::sync::Mutex;
use wmsn_util::pool::bsp_run;
use wmsn_util::{NodeId, NodeRole, Point};

/// The audited `Send` exception for the whole crate.
#[allow(unsafe_code)]
mod cell {
    use crate::world::World;

    /// A shard's world, movable across the worker-pool's scoped
    /// threads.
    ///
    /// `World` is not `Send` because it holds `Rc` (packet payloads,
    /// queued packets) and `Box<dyn Behavior>` without a `Send` bound.
    /// Wrapping it is sound under the invariants the sharded kernel
    /// maintains:
    ///
    /// * Each shard world is built by `World::clone_shell` from an
    ///   un-started donor with an **empty event queue** — so no `Rc`
    ///   allocation is ever shared between two shard worlds. Packets
    ///   crossing shards travel as `RemoteEvent` (payload in an `Arc`)
    ///   and are rebuilt into fresh `Rc`s on the receiving shard.
    /// * Behaviours are moved to exactly one (owning) shard, and a
    ///   behaviour only ever runs on the shard that owns it. A
    ///   behaviour that internally shares `Rc` state across *nodes*
    ///   is only sound if those nodes are co-located on one shard —
    ///   the kernel's public contract (module docs) excludes the one
    ///   such behaviour in the workspace (the E6 wormhole pair) from
    ///   sharded runs.
    /// * The BSP driver gives each worker exclusive `&mut` access to
    ///   its shard between barriers; the coordinator only touches
    ///   shard worlds outside `bsp_run`. No two threads ever hold a
    ///   reference into the same `World` at once.
    pub(super) struct ShardCell(pub(super) World);

    // SAFETY: see type-level docs — shard worlds are disjoint object
    // graphs, accessed by at most one thread at a time.
    unsafe impl Send for ShardCell {}
}

use cell::ShardCell;

/// Per-shard coordination mailbox: the only state the BSP coordinator
/// and a shard worker both touch (under its `Mutex`, on opposite sides
/// of a barrier).
#[derive(Default)]
struct Mail {
    /// Remote deliveries bound for this shard, routed by the
    /// coordinator; the worker schedules them before running.
    inbox: Vec<RemoteEvent>,
    /// Remote deliveries this shard produced in its last window; the
    /// coordinator routes them out.
    outbox: Vec<RemoteEvent>,
    /// Earliest pending local event after the last window (`None` =
    /// locally idle).
    next_at: Option<SimTime>,
    /// Exclusive end of the window the worker must run next.
    window_end: SimTime,
}

/// A spatially sharded, multi-threaded wrapper around `S` per-shard
/// [`World`]s. See the module docs for the synchronisation scheme and
/// the equivalence envelope.
pub struct ShardedWorld {
    shards: Vec<ShardCell>,
    /// Owning shard per node index.
    assignment: Vec<u16>,
    threads: usize,
    /// Conservative lookahead: minimum delay of any cross-shard event.
    lookahead: SimTime,
    now: SimTime,
    started: bool,
    /// Single global driver-phase counter, threaded through whichever
    /// shard a driver call is routed to (per-shard counters would mint
    /// colliding keys).
    driver_counter: u64,
    /// Round snapshots taken at this level (shard metrics hold none).
    snapshots: Vec<crate::metrics::RoundSnapshot>,
    /// Cache for [`ShardedWorld::metrics`]; rebuilt when stale.
    merged: Metrics,
    merged_stale: bool,
}

impl ShardedWorld {
    /// Split an un-started `world` into shards per `assignment`
    /// (`assignment[i]` = owning shard of node `i`) and run them on
    /// `threads` workers. `threads <= 1` executes the supersteps inline
    /// on the calling thread (same windowed schedule, no thread pool).
    ///
    /// Panics if the world was already started, has pending events, has
    /// a trace sink installed (a sharded world is always untraced), or
    /// uses a non-ideal medium (see module docs for why
    /// loss/collisions/CSMA are outside the equivalence envelope).
    pub fn from_world(world: World, assignment: Vec<u16>, threads: usize) -> Self {
        assert!(
            !world.started,
            "shard a world before starting it (behaviours must begin life on their owning shard)"
        );
        assert!(
            world.core.queue.is_empty(),
            "shard a world before scheduling events into it"
        );
        assert!(
            world.core.trace.is_none(),
            "a sharded world is always untraced: take the donor world's trace sink first"
        );
        assert_eq!(
            assignment.len(),
            world.core.nodes.len(),
            "one shard assignment per node"
        );
        let m = &world.core.cfg.medium;
        assert!(
            m.loss_prob == 0.0 && m.collisions == crate::medium::CollisionModel::None && !m.csma,
            "the sharded kernel requires an ideal medium (loss, collisions and CSMA read global \
             state the shards do not share)"
        );
        let n_shards = assignment
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(1);
        let lookahead = world
            .core
            .cfg
            .sensor_phy
            .hop_delay_us(0)
            .min(world.core.cfg.mesh_phy.hop_delay_us(0));
        debug_assert!(lookahead >= 1, "hop delay is at least 1 µs by construction");

        let mut shards: Vec<ShardCell> = (0..n_shards)
            .map(|s| {
                let mut w = world.clone_shell();
                w.install_shard_state(assignment.clone(), s as u16);
                ShardCell(w)
            })
            .collect();
        // Move each behaviour to its owning shard; the other replicas
        // keep `None` (dispatch on a non-owner is a no-op by design,
        // but remote deliveries are routed before dispatch anyway).
        let driver_counter = world.core.driver_counter;
        let now = world.core.now;
        let World { behaviors, .. } = world;
        for (i, b) in behaviors.into_iter().enumerate() {
            shards[assignment[i] as usize].0.behaviors[i] = b;
        }
        ShardedWorld {
            shards,
            assignment,
            threads: threads.max(1),
            lookahead,
            now,
            started: false,
            driver_counter,
            snapshots: Vec::new(),
            merged: Metrics::default(),
            merged_stale: true,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used per superstep.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Route a driver call to the shard owning `id`, threading the
    /// global driver counter through it so driver-phase keys stay
    /// globally unique and ordered.
    fn on_owner<R>(&mut self, id: NodeId, f: impl FnOnce(&mut World) -> R) -> R {
        self.merged_stale = true;
        let s = self.assignment[id.index()] as usize;
        let w = &mut self.shards[s].0;
        w.core.driver_counter = self.driver_counter;
        let r = f(w);
        self.driver_counter = w.core.driver_counter;
        r
    }

    /// Call every behaviour's `on_start`, in global node-id order on
    /// the owning shards — the same driver-key sequence the reference
    /// world mints. Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.merged_stale = true;
        for cell in &mut self.shards {
            cell.0.started = true;
        }
        for i in 0..self.assignment.len() {
            let id = NodeId::from_index(i);
            self.on_owner(id, |w| w.start_node(id));
        }
    }

    /// Route cross-shard deliveries sitting in the shards' internal
    /// outboxes straight into their owners' event queues.
    ///
    /// Two producers mint remote events outside any BSP window, where no
    /// coordinator is collecting outboxes: driver-phase behaviour calls
    /// (`with_behavior`, `start`) that transmit immediately, and the
    /// final window of a `run_until` whose arrivals land past the
    /// deadline. Both are safe to inject directly — every shard is
    /// parked at a common `now` strictly before the arrival time (the
    /// hop delay is at least 1 µs) — but they MUST be injected before
    /// the next window plan, or `t_min` overshoots them and the
    /// delivery is silently lost.
    fn route_stranded(&mut self) {
        let mut pending: Vec<RemoteEvent> = Vec::new();
        for cell in &mut self.shards {
            cell.0.drain_shard_outbox(&mut pending);
        }
        for e in pending {
            let dst = self.assignment[e.to.index()] as usize;
            self.shards[dst].0.inject_remote(e);
        }
    }

    /// Process events until every shard is past `deadline`: events with
    /// `at <= deadline` fire; afterwards `now == deadline` everywhere.
    ///
    /// Runs as a sequence of supersteps. Each superstep the coordinator
    /// routes pending cross-shard deliveries, computes the global
    /// earliest event time `t_min`, and opens the window
    /// `[t_min, t_min + L)`; the workers then run their shards through
    /// the window in parallel. Coordinator and workers communicate
    /// exclusively through the per-shard mailboxes (see [`Mail`]), on
    /// opposite sides of the pool's barriers.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        self.route_stranded();
        self.merged_stale = true;
        let lookahead = self.lookahead;
        let mail: Vec<Mutex<Mail>> = self
            .shards
            .iter()
            .map(|_| Mutex::new(Mail::default()))
            .collect();
        for (cell, m) in self.shards.iter_mut().zip(&mail) {
            m.lock().unwrap().next_at = cell.0.peek_event_time();
        }
        let assignment = &self.assignment;
        let mut finished = false;
        bsp_run(
            &mut self.shards,
            &mail,
            self.threads,
            |mail| {
                if finished {
                    return false;
                }
                // Route last window's cross-shard deliveries.
                let mut in_flight: Vec<RemoteEvent> = Vec::new();
                for m in mail {
                    in_flight.append(&mut m.lock().unwrap().outbox);
                }
                for e in in_flight {
                    let dst = assignment[e.to.index()] as usize;
                    mail[dst].lock().unwrap().inbox.push(e);
                }
                // Global earliest pending event (local queues + inboxes).
                let mut t_min: Option<SimTime> = None;
                for m in mail {
                    let g = m.lock().unwrap();
                    let local = g.inbox.iter().map(|e| e.at).chain(g.next_at).min();
                    t_min = match (t_min, local) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                }
                let window_end = match t_min {
                    Some(t) if t <= deadline => (t + lookahead).min(deadline + 1),
                    // Nothing left within the horizon: one final window
                    // carries every shard's clock to the deadline.
                    _ => {
                        finished = true;
                        deadline + 1
                    }
                };
                for m in mail {
                    m.lock().unwrap().window_end = window_end;
                }
                true
            },
            |_, cell, mbox| {
                let (inbox, window_end) = {
                    let mut g = mbox.lock().unwrap();
                    (std::mem::take(&mut g.inbox), g.window_end)
                };
                let w = &mut cell.0;
                for e in inbox {
                    w.inject_remote(e);
                }
                w.run_until(window_end - 1);
                let mut g = mbox.lock().unwrap();
                w.drain_shard_outbox(&mut g.outbox);
                g.next_at = w.peek_event_time();
            },
        );
        // The final window's cross-shard arrivals all land past the
        // deadline (the window is truncated to `deadline + 1`, and the
        // hop delay is at least the lookahead), so the loop ends with
        // them still in the mailboxes. Hand them to their owners now —
        // the mailboxes die with this call.
        let mut leftover: Vec<RemoteEvent> = Vec::new();
        for m in &mail {
            leftover.append(&mut m.lock().unwrap().outbox);
        }
        for e in leftover {
            let dst = self.assignment[e.to.index()] as usize;
            self.shards[dst].0.inject_remote(e);
        }
        self.now = self.now.max(deadline);
    }

    /// Run for `dt` more microseconds.
    pub fn run_for(&mut self, dt: SimTime) {
        let deadline = self.now + dt;
        self.run_until(deadline);
    }

    /// Current time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// Immutable node state (from the owning shard — the replica whose
    /// battery is authoritative).
    pub fn node(&self, id: NodeId) -> &NodeState {
        self.shards[self.assignment[id.index()] as usize].0.node(id)
    }

    /// Whether `id` is operational (read on its owning shard; every
    /// shard holds the same replicated flag).
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.shards[self.assignment[id.index()] as usize]
            .0
            .is_alive(id)
    }

    /// Ids of all nodes with `role`.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.shards[0].0.nodes_with_role(role)
    }

    /// Ids of sensors.
    pub fn sensor_ids(&self) -> Vec<NodeId> {
        self.shards[0].0.sensor_ids()
    }

    /// Move a node. Replicated to every shard (positions feed each
    /// shard's adjacency caches).
    pub fn set_position(&mut self, id: NodeId, pos: Point) {
        self.on_owner(id, |w| w.set_position(id, pos));
        let owner = self.assignment[id.index()] as usize;
        for (s, cell) in self.shards.iter_mut().enumerate() {
            if s != owner {
                cell.0.set_position_inner(id, pos);
            }
        }
    }

    /// Kill a node on every shard.
    pub fn kill(&mut self, id: NodeId) {
        self.on_owner(id, |w| w.kill(id));
        self.replicate_to_others(id, |w| w.kill_inner(id));
    }

    /// Put a node to sleep on every shard.
    pub fn sleep(&mut self, id: NodeId) {
        self.on_owner(id, |w| w.sleep(id));
        self.replicate_to_others(id, |w| w.sleep_inner(id));
    }

    /// Wake a sleeping node on every shard.
    pub fn wake(&mut self, id: NodeId) {
        self.on_owner(id, |w| w.wake(id));
        self.replicate_to_others(id, |w| w.wake_inner(id));
    }

    /// Revive a node on every shard.
    pub fn revive(&mut self, id: NodeId) {
        self.on_owner(id, |w| w.revive(id));
        self.replicate_to_others(id, |w| w.wake_inner(id));
    }

    /// Set promiscuous mode on every shard.
    pub fn set_promiscuous(&mut self, id: NodeId, on: bool) {
        self.on_owner(id, |w| w.set_promiscuous(id, on));
        self.replicate_to_others(id, |w| w.core.nodes[id.index()].promiscuous = on);
    }

    fn replicate_to_others(&mut self, id: NodeId, f: impl Fn(&mut World)) {
        let owner = self.assignment[id.index()] as usize;
        for (s, cell) in self.shards.iter_mut().enumerate() {
            if s != owner {
                f(&mut cell.0);
            }
        }
    }

    /// Invoke a protocol entry point on a node's behaviour (which lives
    /// on its owning shard). Starts the network first, like
    /// [`World::with_behavior`].
    pub fn with_behavior<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        self.start();
        self.on_owner(id, |w| w.with_behavior(id, f))
    }

    /// Downcast a node's behaviour for inspection.
    pub fn behavior_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.shards[self.assignment[id.index()] as usize]
            .0
            .behavior_as(id)
    }

    /// Total events processed across all shards. **Not** equivalent to
    /// the reference world's count when the fast-unicast path or remote
    /// routing changes what gets queued — see module docs.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|c| c.0.events_processed()).sum()
    }

    /// Maximum per-shard queue high-water mark. **Not** equivalent to
    /// the reference world's single-queue peak — see module docs.
    pub fn peak_queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|c| c.0.peak_queue_depth())
            .max()
            .unwrap_or(0)
    }

    /// The merged metrics ledger, bit-equivalent to the reference
    /// world's on conforming workloads: counters and per-node vectors
    /// sum across shards (a given node's energy/tx cells are non-zero
    /// on exactly one shard), the delivery ledger is re-ordered by each
    /// record's causal stamp, and the histograms are rebuilt from the
    /// merged ledger.
    pub fn metrics(&mut self) -> &Metrics {
        if self.merged_stale {
            self.merged = self.merge_metrics();
            self.merged_stale = false;
        }
        &self.merged
    }

    /// Take a per-round snapshot of the merged metrics (the sharded
    /// counterpart of `Metrics::snapshot_round` on the reference
    /// world).
    pub fn snapshot_round(&mut self, round: u32, at: SimTime) {
        self.merged_stale = true;
        let mut m = self.merge_metrics();
        m.snapshot_round(round, at);
        self.snapshots
            .push(m.snapshots.pop().expect("snapshot_round pushed one"));
    }

    fn merge_metrics(&self) -> Metrics {
        let n = self.assignment.len();
        let mut out = Metrics {
            energy_consumed: vec![0.0; n],
            node_tx: vec![0; n],
            ..Metrics::default()
        };
        // (delivered_at, key, ledger index) orders deliveries across
        // shards: keys are unique per event and all of one event's
        // deliveries are recorded on one shard (but see the zero-delay
        // caveat in the module docs).
        let mut all: Vec<(SimTime, u64, usize, crate::metrics::Delivery)> = Vec::new();
        for cell in &self.shards {
            let m = cell.0.metrics();
            out.sent_control += m.sent_control;
            out.sent_data += m.sent_data;
            out.sent_security += m.sent_security;
            out.sent_bytes_control += m.sent_bytes_control;
            out.sent_bytes_data += m.sent_bytes_data;
            out.sent_bytes_security += m.sent_bytes_security;
            out.received += m.received;
            out.lost += m.lost;
            out.collided += m.collided;
            out.dead_receiver += m.dead_receiver;
            out.csma_deferrals += m.csma_deferrals;
            out.csma_drops += m.csma_drops;
            out.originated += m.originated;
            for (acc, v) in out.energy_consumed.iter_mut().zip(&m.energy_consumed) {
                *acc += v;
            }
            for (acc, v) in out.node_tx.iter_mut().zip(&m.node_tx) {
                *acc += v;
            }
            match (out.first_death, m.first_death) {
                (None, Some(_)) => {
                    out.first_death = m.first_death;
                    out.first_death_node = m.first_death_node;
                }
                (Some(a), Some(b)) if b < a => {
                    out.first_death = m.first_death;
                    out.first_death_node = m.first_death_node;
                }
                _ => {}
            }
            for (i, (d, &key)) in m.deliveries.iter().zip(&m.delivery_keys).enumerate() {
                all.push((d.delivered_at, key, i, d.clone()));
            }
        }
        all.sort_by_key(|a| (a.0, a.1, a.2));
        for (_, key, _, d) in all {
            out.record_delivery_keyed(d, key);
        }
        out.snapshots = self.snapshots.clone();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Behavior, NodeConfig};
    use crate::packet::{Packet, PacketKind};
    use crate::phy::Tier;
    use crate::world::WorldConfig;
    use std::any::Any;

    /// Relays any received counter once, incremented, back out as a
    /// broadcast — a ping-pong chain that forces shard crossings.
    struct Relay {
        kick_off: bool,
        seen: Vec<u8>,
        max_hops: u8,
    }

    impl Behavior for Relay {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            if self.kick_off {
                ctx.record_origination();
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![0u8]);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
            let hop = pkt.payload[0];
            self.seen.push(hop);
            if hop < self.max_hops {
                ctx.send(None, Tier::Sensor, PacketKind::Data, vec![hop + 1]);
            } else {
                ctx.record_delivery(pkt.src, hop as u64, 0, hop as u32);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A line of `n` nodes, 10 m apart (range 25 m ⇒ each hears ≤ 2
    /// neighbours each side), node 0 kicks off. Batteries are
    /// unconstrained: the kernel's equivalence envelope requires
    /// death-free runs (battery death mid-window panics by design).
    fn line_world(n: usize) -> World {
        let mut w = World::new(WorldConfig::ideal(7));
        for i in 0..n {
            w.add_node(
                NodeConfig::sensor(wmsn_util::Point::new(10.0 * i as f64, 0.0), f64::INFINITY),
                Box::new(Relay {
                    kick_off: i == 0,
                    seen: Vec::new(),
                    max_hops: 6,
                }),
            );
        }
        w
    }

    fn fingerprint(m: &Metrics) -> (u64, u64, u64, u64, Vec<u64>, Vec<u64>) {
        (
            m.sent_data,
            m.received,
            m.originated,
            m.unique_deliveries(),
            m.node_tx.clone(),
            m.deliveries
                .iter()
                .map(|d| d.delivered_at ^ (d.hops as u64) ^ ((d.destination.0 as u64) << 40))
                .collect(),
        )
    }

    #[test]
    fn sharded_line_matches_reference_bit_for_bit() {
        let mut reference = line_world(12);
        reference.run_until(1_000_000);
        let want = fingerprint(reference.metrics());

        for shards in [2usize, 3, 4] {
            for threads in [1usize, 2] {
                let assignment: Vec<u16> = (0..12).map(|i| (i * shards / 12) as u16).collect();
                let mut sw = ShardedWorld::from_world(line_world(12), assignment, threads);
                sw.run_until(1_000_000);
                assert_eq!(
                    fingerprint(sw.metrics()),
                    want,
                    "shards={shards} threads={threads}"
                );
                assert_eq!(sw.now(), 1_000_000);
            }
        }
    }

    #[test]
    fn driver_ops_replicate_and_match_reference() {
        let mut reference = line_world(12);
        reference.run_until(100); // start + first hop in flight
        reference.kill(NodeId(5));
        reference.run_until(1_000_000);
        let want = fingerprint(reference.metrics());

        let assignment: Vec<u16> = (0..12).map(|i| (i / 4) as u16).collect();
        let mut sw = ShardedWorld::from_world(line_world(12), assignment, 2);
        sw.run_until(100);
        sw.kill(NodeId(5));
        sw.run_until(1_000_000);
        assert_eq!(fingerprint(sw.metrics()), want);
        assert!(!sw.is_alive(NodeId(5)));
        // Replicas observe the kill too: no shard ever delivered to 5.
        assert_eq!(sw.metrics().first_death, reference.metrics().first_death);
    }

    #[test]
    #[should_panic(expected = "ideal medium")]
    fn non_ideal_medium_is_rejected() {
        let mut cfg = WorldConfig::ideal(1);
        cfg.medium.loss_prob = 0.1;
        let w = World::new(cfg);
        let _ = ShardedWorld::from_world(w, Vec::new(), 2);
    }

    #[test]
    fn empty_and_single_shard_edge_cases() {
        // Single shard, single thread: degenerates to the reference.
        let mut reference = line_world(6);
        reference.run_until(200_000);
        let want = fingerprint(reference.metrics());
        let mut sw = ShardedWorld::from_world(line_world(6), vec![0; 6], 1);
        sw.run_until(200_000);
        assert_eq!(fingerprint(sw.metrics()), want);
        assert_eq!(sw.shard_count(), 1);
    }
}
