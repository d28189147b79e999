//! Node state and the protocol behaviour interface.
//!
//! A node is state (role, position, battery) plus a
//! [`Behavior`] — the protocol running on it. Behaviours are event-driven:
//! they react to packet arrivals and timer expiries through a [`Ctx`]
//! handle that exposes exactly the operations a real mote has (transmit,
//! set a timer, read its own clock/battery, draw local randomness) plus
//! two bookkeeping calls for the metrics ledger.

use crate::energy::Battery;
use crate::packet::{Packet, PacketKind};
use crate::phy::Tier;
use crate::time::SimTime;
use crate::world::WorldCore;
use std::any::Any;
use wmsn_util::{NodeId, NodeRole, Point, SplitMix64};

/// Static + dynamic state of one node. Liveness is not here: the
/// world keeps it in one dense vector (see [`World::is_alive`]).
///
/// [`World::is_alive`]: crate::world::World::is_alive
#[derive(Clone, Debug)]
pub struct NodeState {
    /// Identifier (index into the world's node table).
    pub id: NodeId,
    /// Architectural role (§3.2).
    pub role: NodeRole,
    /// Current position.
    pub pos: Point,
    /// Battery.
    pub battery: Battery,
    /// Promiscuous radio: receive frames regardless of their link-layer
    /// destination. Off for honest nodes (address-filtering radios);
    /// adversaries turn it on to eavesdrop unicast traffic.
    pub promiscuous: bool,
}

/// Construction parameters for a node.
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Architectural role.
    pub role: NodeRole,
    /// Deployment position.
    pub pos: Point,
    /// Battery capacity in joules; `f64::INFINITY` for unconstrained
    /// nodes. [`NodeConfig::sensor`] / [`NodeConfig::gateway`] choose the
    /// paper's defaults.
    pub battery_j: f64,
}

impl NodeConfig {
    /// A sensor with the given battery.
    pub fn sensor(pos: Point, battery_j: f64) -> Self {
        NodeConfig {
            role: NodeRole::Sensor,
            pos,
            battery_j,
        }
    }

    /// A gateway (WMG) — unconstrained energy per §5.3.
    pub fn gateway(pos: Point) -> Self {
        NodeConfig {
            role: NodeRole::Gateway,
            pos,
            battery_j: f64::INFINITY,
        }
    }

    /// A mesh router (WMR).
    pub fn mesh_router(pos: Point) -> Self {
        NodeConfig {
            role: NodeRole::MeshRouter,
            pos,
            battery_j: f64::INFINITY,
        }
    }

    /// A base station.
    pub fn base_station(pos: Point) -> Self {
        NodeConfig {
            role: NodeRole::BaseStation,
            pos,
            battery_j: f64::INFINITY,
        }
    }
}

/// The protocol running on a node.
///
/// Implementations keep all their state in `self`; the world owns the
/// event loop and calls back in. `as_any`/`as_any_mut` let experiments
/// inspect protocol state after (or between phases of) a run.
pub trait Behavior {
    /// Called once when the world starts.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Called when a frame addressed to this node (or broadcast) arrives
    /// intact.
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: &Packet) {}

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _tag: u64) {}

    /// Downcast support for post-run inspection.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The handle a behaviour uses to act on the world. Borrowed for the
/// duration of one callback.
pub struct Ctx<'a> {
    pub(crate) core: &'a mut WorldCore,
    pub(crate) node: NodeId,
}

impl Ctx<'_> {
    /// This node's id.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's role.
    pub fn role(&self) -> NodeRole {
        self.core.nodes[self.node.index()].role
    }

    /// This node's position.
    pub fn pos(&self) -> Point {
        self.core.nodes[self.node.index()].pos
    }

    /// Remaining battery fraction.
    pub fn battery_fraction(&self) -> f64 {
        self.core.nodes[self.node.index()].battery.fraction()
    }

    /// Remaining battery joules.
    pub fn battery_remaining(&self) -> f64 {
        self.core.nodes[self.node.index()].battery.remaining_j
    }

    /// This node's private RNG stream.
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.core.node_rngs[self.node.index()]
    }

    /// Transmit a frame. `link_dst = None` broadcasts to every in-range
    /// node on `tier`. Charges transmit energy; the frame is delivered
    /// after the PHY's hop delay, subject to loss/collisions. Returns
    /// `false` if the node was dead or lacks the tier.
    ///
    /// Accepts anything convertible to a shared buffer (`Vec<u8>`, an
    /// existing `Rc<[u8]>` from a received packet, …); forwarding a
    /// received payload is free.
    pub fn send(
        &mut self,
        link_dst: Option<NodeId>,
        tier: Tier,
        kind: PacketKind,
        payload: impl Into<std::rc::Rc<[u8]>>,
    ) -> bool {
        self.core
            .transmit(self.node, link_dst, tier, kind, payload.into())
    }

    /// Boosted-power transmission reaching every tier member within
    /// `range_m`, charging amplifier energy for that distance — how LEACH
    /// cluster heads reach a distant sink in one hop. See
    /// [`Ctx::send`] for the normal-range variant.
    pub fn send_ranged(
        &mut self,
        link_dst: Option<NodeId>,
        tier: Tier,
        kind: PacketKind,
        payload: impl Into<std::rc::Rc<[u8]>>,
        range_m: f64,
    ) -> bool {
        self.core
            .transmit_ranged(self.node, link_dst, tier, kind, payload.into(), range_m)
    }

    /// Set a timer that fires `delay` microseconds from now, returning
    /// `tag` to [`Behavior::on_timer`].
    pub fn set_timer(&mut self, delay: SimTime, tag: u64) {
        let at = self.core.now + delay;
        let key = self.core.next_key(self.node);
        self.core.queue.schedule(
            at,
            key,
            crate::event::EventKind::Timer {
                node: self.node,
                tag,
            },
        );
    }

    /// Charge non-radio energy (CPU work such as cryptographic
    /// operations) against this node's battery. Returns `false` if the
    /// node died paying it.
    pub fn consume_energy(&mut self, joules: f64) -> bool {
        self.core.charge_public(self.node, joules)
    }

    /// Record that this node originated a new application message
    /// (denominator of the delivery ratio).
    pub fn record_origination(&mut self) {
        self.core.metrics.originated += 1;
    }

    /// Record a completed end-to-end delivery at this node. Feeds the
    /// delivery ledger, the latency/hop histograms and (when tracing is
    /// on) a `deliver` trace event.
    pub fn record_delivery(&mut self, source: NodeId, msg_id: u64, sent_at: SimTime, hops: u32) {
        let d = crate::metrics::Delivery {
            source,
            destination: self.node,
            msg_id,
            sent_at,
            delivered_at: self.core.now,
            hops,
        };
        let latency_us = d.latency();
        let key = self.core.exec_key;
        self.core.metrics.record_delivery_keyed(d, key);
        if self.trace_enabled() {
            self.trace(wmsn_trace::TraceEvent::Deliver {
                t: self.core.now,
                node: self.node,
                origin: source,
                msg_id,
                hops,
                latency_us,
            });
        }
    }

    /// Whether a trace sink is installed. Guard event construction with
    /// this so disabled tracing costs exactly one branch.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.core.trace.is_some()
    }

    /// Record a protocol-level trace event (route decisions, cache
    /// answers, forwards). No-op when tracing is disabled — but prefer
    /// checking [`Ctx::trace_enabled`] first so the event is never
    /// built on the disabled path.
    #[inline]
    pub fn trace(&mut self, ev: wmsn_trace::TraceEvent) {
        self.core.emit(ev);
    }

    /// Borrow the world's reusable frame-assembly buffer. In-place flood
    /// forwarding builds the outgoing frame here (memcpy + patch +
    /// append), freezes it with `Rc::from(&buf[..])`, then returns the
    /// buffer via [`Ctx::put_scratch`] so the capacity is reused across
    /// every forward in the run. Taking twice without returning is safe
    /// but forfeits the reuse (the second take sees an empty buffer).
    #[inline]
    pub fn take_scratch(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.core.frame_scratch)
    }

    /// Return the buffer obtained from [`Ctx::take_scratch`].
    #[inline]
    pub fn put_scratch(&mut self, buf: Vec<u8>) {
        self.core.frame_scratch = buf;
    }

    /// Modelling shortcut: the ids of currently-alive neighbours on
    /// `tier`. Real deployments learn this with HELLO beacons; simulation
    /// studies (including those the paper cites) commonly grant neighbour
    /// knowledge. Protocols that model HELLOs explicitly simply ignore
    /// this.
    pub fn neighbors(&mut self, tier: Tier) -> Vec<NodeId> {
        self.core.neighbors_of(self.node, tier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_config_constructors_set_roles() {
        let p = Point::new(1.0, 2.0);
        assert_eq!(NodeConfig::sensor(p, 2.0).role, NodeRole::Sensor);
        assert_eq!(NodeConfig::gateway(p).role, NodeRole::Gateway);
        assert_eq!(NodeConfig::mesh_router(p).role, NodeRole::MeshRouter);
        assert_eq!(NodeConfig::base_station(p).role, NodeRole::BaseStation);
        assert!(NodeConfig::gateway(p).battery_j.is_infinite());
        assert_eq!(NodeConfig::sensor(p, 2.0).battery_j, 2.0);
    }
}
