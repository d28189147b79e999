//! The shared radio medium: loss and collisions.
//!
//! Propagation is unit-disk per tier. Two imperfections are modelled
//! because the paper's reliability claims are about surviving them:
//!
//! * **Independent per-reception loss** with probability `loss_prob`
//!   (fading, interference) — exercised by the robustness experiments.
//! * **Receiver-overlap collisions** ([`CollisionModel::ReceiverOverlap`]):
//!   if two frames' arrival windows overlap at a receiver, both are
//!   corrupted. This is a deliberately simple half of CSMA — enough to
//!   punish naive flooding (the implosion problem §2.2.1 cites) without
//!   simulating backoff state machines the paper never discusses.

use crate::time::SimTime;
use wmsn_util::NodeId;

/// Collision handling at receivers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollisionModel {
    /// Ideal medium: simultaneous receptions all succeed.
    None,
    /// Overlapping reception windows at one receiver corrupt each other.
    ReceiverOverlap,
}

/// Medium configuration.
#[derive(Clone, Copy, Debug)]
pub struct MediumConfig {
    /// Independent probability that any single reception is lost.
    pub loss_prob: f64,
    /// Collision model.
    pub collisions: CollisionModel,
    /// CSMA carrier sensing: a sender that can hear an ongoing
    /// transmission defers with binary-exponential backoff instead of
    /// transmitting into it. This is the listen-before-talk half of the
    /// 802.15.4/802.11 MACs the paper assumes; meaningful only together
    /// with [`CollisionModel::ReceiverOverlap`].
    pub csma: bool,
    /// On an otherwise-ideal medium (`loss_prob == 0`, no collisions), a
    /// unicast frame can only ever be *processed* by its link destination
    /// and by promiscuous eavesdroppers — every other in-range radio
    /// address-filters it without observable effect (no energy charge, no
    /// counter, no trace line). With this flag the simulator leaves
    /// those no-op receptions out of the fan-out entirely, which
    /// collapses the dominant cost of dense unicast workloads (a
    /// 40-neighbour fan-out serves 1 reception instead of 40). Metrics
    /// and traces are bit-identical either way; only the event-queue
    /// throughput statistics differ. Ignored when loss or collisions are
    /// enabled, where non-addressed receptions consume medium randomness
    /// and collision windows.
    pub unicast_fast_path: bool,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            loss_prob: 0.0,
            collisions: CollisionModel::None,
            csma: false,
            unicast_fast_path: true,
        }
    }
}

/// Tracks per-receiver busy windows for the collision model.
///
/// Stored as a dense table indexed by node index — `register` runs once
/// per (transmit × receiver), so it must not pay hashing. A default
/// (all-zero) entry behaves exactly like an absent one: its window is
/// empty (`end == 0`), so any registration replaces it and no delivery
/// reads it as corrupted.
#[derive(Debug, Default)]
pub struct CollisionTracker {
    /// Per node index: the most recent busy window.
    windows: Vec<Window>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Window {
    start: SimTime,
    end: SimTime,
    corrupted: bool,
}

impl CollisionTracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register that a frame occupies `rx`'s air from `start` to `end`.
    /// Returns `true` if this frame collides with a previous one (both are
    /// then corrupted; the earlier frame's corruption is recorded and
    /// queried at its delivery time via [`CollisionTracker::corrupted`]).
    pub fn register(&mut self, rx: NodeId, start: SimTime, end: SimTime) -> bool {
        let i = rx.index();
        if i >= self.windows.len() {
            self.windows.resize(i + 1, Window::default());
        }
        let w = &mut self.windows[i];
        if start < w.end {
            // Overlap: corrupt both; extend the busy window.
            w.corrupted = true;
            w.end = w.end.max(end);
            true
        } else {
            *w = Window {
                start,
                end,
                corrupted: false,
            };
            false
        }
    }

    /// At delivery time, was the window containing `start` corrupted by a
    /// later overlapping frame?
    pub fn corrupted(&self, rx: NodeId, start: SimTime) -> bool {
        self.windows
            .get(rx.index())
            .map(|w| w.corrupted && start >= w.start)
            .unwrap_or(false)
    }

    /// Clear every window that ended at or before `before`. Safe once all
    /// deliveries scheduled against those windows have resolved (the world
    /// calls this when its event queue drains): future registrations start
    /// at or after `before`, so an expired window can neither overlap them
    /// nor be queried again.
    pub fn prune(&mut self, before: SimTime) {
        for w in &mut self.windows {
            if w.end <= before {
                *w = Window::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_medium_is_ideal() {
        let m = MediumConfig::default();
        assert_eq!(m.loss_prob, 0.0);
        assert_eq!(m.collisions, CollisionModel::None);
        assert!(m.unicast_fast_path);
    }

    #[test]
    fn non_overlapping_frames_do_not_collide() {
        let mut t = CollisionTracker::new();
        assert!(!t.register(NodeId(1), 0, 10));
        assert!(!t.register(NodeId(1), 10, 20), "back-to-back is fine");
        assert!(!t.corrupted(NodeId(1), 10));
    }

    #[test]
    fn overlapping_frames_corrupt_each_other() {
        let mut t = CollisionTracker::new();
        assert!(!t.register(NodeId(1), 0, 10));
        assert!(t.register(NodeId(1), 5, 15), "second frame collides");
        assert!(t.corrupted(NodeId(1), 0), "first frame also corrupted");
    }

    #[test]
    fn collisions_are_per_receiver() {
        let mut t = CollisionTracker::new();
        assert!(!t.register(NodeId(1), 0, 10));
        assert!(!t.register(NodeId(2), 5, 15), "different receiver");
    }

    #[test]
    fn triple_overlap_extends_the_window() {
        let mut t = CollisionTracker::new();
        t.register(NodeId(1), 0, 10);
        assert!(t.register(NodeId(1), 8, 30));
        // A third frame inside the extended window still collides.
        assert!(t.register(NodeId(1), 25, 35));
    }

    #[test]
    fn pruning_clears_expired_windows_only() {
        let mut t = CollisionTracker::new();
        t.register(NodeId(1), 0, 10);
        t.register(NodeId(1), 5, 15); // corrupt, window now [0, 15]
        t.register(NodeId(2), 90, 110); // still in flight at t=20
        t.prune(20);
        assert!(!t.corrupted(NodeId(1), 0), "expired window is gone");
        // The live window survives and still collides.
        assert!(t.register(NodeId(2), 100, 120));
        // A fresh registration after pruning behaves like a first one.
        assert!(!t.register(NodeId(1), 30, 40));
        assert!(!t.corrupted(NodeId(1), 30));
    }

    #[test]
    fn new_window_after_quiet_period_is_clean() {
        let mut t = CollisionTracker::new();
        t.register(NodeId(1), 0, 10);
        t.register(NodeId(1), 5, 15); // corrupt
        assert!(!t.register(NodeId(1), 100, 110));
        assert!(!t.corrupted(NodeId(1), 100));
    }
}
