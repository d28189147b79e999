//! [`SimHost`] — the simulation-host abstraction experiment drivers run
//! against.
//!
//! Round drivers (traffic injection, gateway movement, per-round
//! snapshots) only need a narrow slice of the world API; expressing it
//! as a trait lets the same driver run a scenario on the
//! single-threaded reference [`World`] or on the sharded parallel
//! kernel ([`ShardedWorld`]) without duplication — and the
//! shard-equivalence tests exercise exactly that substitution.
//!
//! The trait is deliberately *not* object-safe ([`SimHost::with_behavior`]
//! is generic over the behaviour type, mirroring the inherent methods);
//! drivers take `H: SimHost` type parameters instead of `dyn` hosts.

use crate::metrics::Metrics;
use crate::node::{Ctx, NodeState};
use crate::sharded::ShardedWorld;
use crate::time::SimTime;
use crate::world::World;
use wmsn_util::{NodeId, NodeRole, Point};

/// A simulation host: something that owns nodes with behaviours, runs
/// the clock, and keeps the metrics ledger. Implemented by [`World`]
/// (the bit-exact reference) and [`ShardedWorld`] (the parallel
/// kernel).
pub trait SimHost {
    /// Call every behaviour's `on_start`. Idempotent.
    fn start(&mut self);

    /// Process events up to and including `deadline`; afterwards
    /// `now() == deadline`.
    fn run_until(&mut self, deadline: SimTime);

    /// Run for `dt` more microseconds.
    fn run_for(&mut self, dt: SimTime) {
        let deadline = self.now() + dt;
        self.run_until(deadline);
    }

    /// Current simulation time.
    fn now(&self) -> SimTime;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Immutable node state.
    fn node(&self, id: NodeId) -> &NodeState;

    /// Whether a node is operational (not dead, not asleep).
    fn is_alive(&self, id: NodeId) -> bool;

    /// Ids of all nodes with `role`.
    fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId>;

    /// Ids of sensors.
    fn sensor_ids(&self) -> Vec<NodeId> {
        self.nodes_with_role(NodeRole::Sensor)
    }

    /// The metrics ledger. Takes `&mut self` so hosts that aggregate
    /// lazily (the sharded kernel merges per-shard ledgers) can refresh
    /// a cache; the reference world just hands out its field.
    fn metrics(&mut self) -> &Metrics;

    /// Append a per-round snapshot to the metrics ledger.
    fn snapshot_round(&mut self, round: u32, at: SimTime);

    /// Move a node.
    fn set_position(&mut self, id: NodeId, pos: Point);

    /// Kill a node (fault injection).
    fn kill(&mut self, id: NodeId);

    /// Invoke a protocol entry point on a node's behaviour.
    fn with_behavior<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> Option<R>;

    /// Downcast a node's behaviour for inspection.
    fn behavior_as<T: 'static>(&self, id: NodeId) -> Option<&T>;

    /// Total events processed so far.
    fn events_processed(&self) -> u64;

    /// Event-queue high-water mark.
    fn peak_queue_depth(&self) -> usize;
}

impl SimHost for World {
    fn start(&mut self) {
        World::start(self);
    }
    fn run_until(&mut self, deadline: SimTime) {
        World::run_until(self, deadline);
    }
    fn now(&self) -> SimTime {
        World::now(self)
    }
    fn node_count(&self) -> usize {
        World::node_count(self)
    }
    fn node(&self, id: NodeId) -> &NodeState {
        World::node(self, id)
    }
    fn is_alive(&self, id: NodeId) -> bool {
        World::is_alive(self, id)
    }
    fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        World::nodes_with_role(self, role)
    }
    fn metrics(&mut self) -> &Metrics {
        World::metrics(self)
    }
    fn snapshot_round(&mut self, round: u32, at: SimTime) {
        self.metrics_mut().snapshot_round(round, at);
    }
    fn set_position(&mut self, id: NodeId, pos: Point) {
        World::set_position(self, id, pos);
    }
    fn kill(&mut self, id: NodeId) {
        World::kill(self, id);
    }
    fn with_behavior<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        World::with_behavior(self, id, f)
    }
    fn behavior_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        World::behavior_as(self, id)
    }
    fn events_processed(&self) -> u64 {
        World::events_processed(self)
    }
    fn peak_queue_depth(&self) -> usize {
        World::peak_queue_depth(self)
    }
}

impl SimHost for ShardedWorld {
    fn start(&mut self) {
        ShardedWorld::start(self);
    }
    fn run_until(&mut self, deadline: SimTime) {
        ShardedWorld::run_until(self, deadline);
    }
    fn now(&self) -> SimTime {
        ShardedWorld::now(self)
    }
    fn node_count(&self) -> usize {
        ShardedWorld::node_count(self)
    }
    fn node(&self, id: NodeId) -> &NodeState {
        ShardedWorld::node(self, id)
    }
    fn is_alive(&self, id: NodeId) -> bool {
        ShardedWorld::is_alive(self, id)
    }
    fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        ShardedWorld::nodes_with_role(self, role)
    }
    fn metrics(&mut self) -> &Metrics {
        ShardedWorld::metrics(self)
    }
    fn snapshot_round(&mut self, round: u32, at: SimTime) {
        ShardedWorld::snapshot_round(self, round, at);
    }
    fn set_position(&mut self, id: NodeId, pos: Point) {
        ShardedWorld::set_position(self, id, pos);
    }
    fn kill(&mut self, id: NodeId) {
        ShardedWorld::kill(self, id);
    }
    fn with_behavior<T: 'static, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        ShardedWorld::with_behavior(self, id, f)
    }
    fn behavior_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        ShardedWorld::behavior_as(self, id)
    }
    fn events_processed(&self) -> u64 {
        ShardedWorld::events_processed(self)
    }
    fn peak_queue_depth(&self) -> usize {
        ShardedWorld::peak_queue_depth(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;

    fn hosted_now<H: SimHost>(h: &mut H) -> SimTime {
        h.run_for(1_000);
        h.now()
    }

    #[test]
    fn world_and_sharded_world_share_the_host_surface() {
        let mut w = World::new(WorldConfig::ideal(3));
        assert_eq!(hosted_now(&mut w), 1_000);
        let mut sw = ShardedWorld::from_world(World::new(WorldConfig::ideal(3)), Vec::new(), 1);
        assert_eq!(hosted_now(&mut sw), 1_000);
        assert_eq!(SimHost::node_count(&w), 0);
        assert_eq!(SimHost::node_count(&sw), 0);
    }
}
