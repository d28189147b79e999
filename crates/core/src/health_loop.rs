//! The self-healing loop: drain monitor alerts, apply policy actions.
//!
//! `wmsn-health` deliberately cannot see the routing stack, so its
//! [`HealthAction`]s are plain values; this module is the interpreter
//! that applies them to a running [`World`] — the piece that turns
//! E6/E8's *scripted* recoveries into monitor-driven ones. Call
//! [`drain_actions`] between rounds (or on any cadence), then hand the
//! actions to the applier matching the deployed stack.

use wmsn_health::{HealthAction, HealthMonitor, HealthPolicy};
use wmsn_routing::mlr::{MlrGateway, MlrSensor};
use wmsn_secure::SecMlrSensor;
use wmsn_sim::World;
use wmsn_util::NodeId;

/// Finalize the installed [`HealthMonitor`]'s current window, drain the
/// alerts raised since the last drain, and map them through `policy`.
/// Returns an empty list when no monitor is installed as the world's
/// trace sink — the loop is a no-op on unmonitored worlds.
pub fn drain_actions(world: &mut World, policy: &HealthPolicy) -> Vec<HealthAction> {
    let Some(monitor) = world.trace_sink_as_mut::<HealthMonitor>() else {
        return Vec::new();
    };
    // Evaluate the partial window too: a gateway that died mid-round
    // should be actionable at the round boundary, not one window later.
    monitor.finalize();
    let alerts = monitor.take_new_alerts();
    alerts.iter().flat_map(|a| policy.actions_for(a)).collect()
}

/// Apply actions to a plain-MLR deployment. `sensors` and `gateways`
/// are the deployment's member lists (actions touching other node ids
/// are ignored). Returns the number of actions applied.
pub fn apply_to_mlr(
    world: &mut World,
    sensors: &[NodeId],
    gateways: &[NodeId],
    actions: &[HealthAction],
) -> usize {
    let mut applied = 0;
    for &action in actions {
        match action {
            // MLR has no blacklist; both gateway actions map to the
            // §4.2 redirect — purge the gateway from every sensor.
            HealthAction::RemoveGateway(g) | HealthAction::BlacklistGateway(g) => {
                let gid = NodeId(g as u32);
                for &s in sensors {
                    world.with_behavior::<MlrSensor, _>(s, |b, _| b.remove_gateway(gid));
                }
                applied += 1;
            }
            HealthAction::QuarantineNode(n) => {
                world.sleep(NodeId(n as u32));
                applied += 1;
            }
            // §4.3: refresh every gateway's load advertisement so the
            // load-aware α term can steer traffic off the hot one.
            HealthAction::RebalanceLoad(_) => {
                for &g in gateways {
                    world.with_behavior::<MlrGateway, _>(g, |b, ctx| b.announce_load(ctx));
                }
                applied += 1;
            }
        }
    }
    applied
}

/// Apply actions to a SecMLR deployment: gateway actions use the secure
/// stack's blacklist (replies naming the gateway are rejected on
/// arrival, stronger than table removal).
pub fn apply_to_secmlr(world: &mut World, sensors: &[NodeId], actions: &[HealthAction]) -> usize {
    let mut applied = 0;
    for &action in actions {
        match action {
            HealthAction::RemoveGateway(g) | HealthAction::BlacklistGateway(g) => {
                let gid = NodeId(g as u32);
                for &s in sensors {
                    world.with_behavior::<SecMlrSensor, _>(s, |b, _| b.blacklist_gateway(gid));
                }
                applied += 1;
            }
            HealthAction::QuarantineNode(n) => {
                world.sleep(NodeId(n as u32));
                applied += 1;
            }
            HealthAction::RebalanceLoad(_) => {}
        }
    }
    applied
}
