//! Exhaustiveness pins between the trace layer, the metrics ledger, and
//! the health monitor.
//!
//! Three layers account for the same physical facts: `DropCause` on the
//! trace wire, the `Metrics` counters in the sim, and the monitor's
//! per-cause tallies. These tests are designed to FAIL TO COMPILE or
//! fail loudly when a new drop cause or a new `Metrics` field is added
//! without teaching the monitor about it — drift is an error, not a
//! silent gap.

use wmsn::health::{drop_cause_at, drop_cause_index, HealthMonitor, DROP_CAUSE_COUNT};
use wmsn::sim::Metrics;
use wmsn::trace::{DropCause, TraceEvent};
use wmsn::util::NodeId;

/// Every `DropCause` variant. `DROP_CAUSE_COUNT` is the length of
/// `DropCause::ALL`, which is generated with the enum, so adding a
/// variant breaks this array's build; it pins the count and the
/// dense-index round trip at test level.
const ALL_CAUSES: [DropCause; DROP_CAUSE_COUNT] = [
    DropCause::Collision,
    DropCause::Loss,
    DropCause::Dead,
    DropCause::OutOfRange,
    DropCause::Energy,
];

#[test]
fn drop_cause_indexing_is_dense_total_and_invertible() {
    for (i, &cause) in ALL_CAUSES.iter().enumerate() {
        assert_eq!(drop_cause_index(cause), i);
        assert_eq!(drop_cause_at(i), Some(cause));
        // Names round-trip through the wire form too.
        assert_eq!(DropCause::from_name(cause.as_str()), Some(cause));
    }
    assert_eq!(drop_cause_at(DROP_CAUSE_COUNT), None);
}

#[test]
fn monitor_tallies_every_drop_cause() {
    let mut m = HealthMonitor::new();
    for (i, &cause) in ALL_CAUSES.iter().enumerate() {
        for _ in 0..=i {
            m.observe(&TraceEvent::Drop {
                t: 1,
                seq: 1,
                node: NodeId(2),
                cause,
            });
        }
    }
    for (i, &cause) in ALL_CAUSES.iter().enumerate() {
        assert_eq!(m.drops_of_cause(cause), (i + 1) as u64, "{cause:?}");
    }
    let expected: u64 = (1..=DROP_CAUSE_COUNT as u64).sum();
    assert_eq!(m.drops_total(), expected);
    assert_eq!(m.node(2).unwrap().drops_total(), expected);
}

/// Pin the `Metrics` shape against the monitor's coverage. The full
/// destructuring is deliberate: adding a `Metrics` field fails this
/// test's compilation until someone decides (and documents below)
/// whether the monitor needs a mapping for it.
#[test]
fn every_metrics_field_has_a_declared_monitor_mapping() {
    let Metrics {
        // Mirrored online: per-node/net tx counters by kind (TxStart).
        sent_control: _,
        sent_data: _,
        sent_security: _,
        // Byte totals are E7 accounting; the monitor tracks frame
        // counts, rates come from windows. No per-byte detector.
        sent_bytes_control: _,
        sent_bytes_data: _,
        sent_bytes_security: _,
        // Mirrored online: NodeStats::rx / NetStats::rx_total (Rx).
        received: _,
        // Mirrored per cause: drops[drop_cause_index(Loss)] (Drop).
        lost: _,
        // drops[drop_cause_index(Collision)].
        collided: _,
        // drops[drop_cause_index(Dead)].
        dead_receiver: _,
        // CSMA lifecycle (TxDefer/TxGiveUp) is congestion accounting;
        // deliberately not a detector input — attacks do not manifest
        // as backoff under the current medium models.
        csma_deferrals: _,
        csma_drops: _,
        // Originations appear as Forward events with hops == 1.
        originated: _,
        // Mirrored online: GatewayStats::delivers + dedup (Deliver).
        deliveries: _,
        // Kernel bookkeeping for the sharded merge (delivery order),
        // invisible on the trace wire; not a monitor input.
        delivery_keys: _,
        // Forecast, not observation: the monitor's energy_depletion
        // detector predicts this before it happens (Energy slope).
        first_death: _,
        first_death_node: _,
        // Mirrored online: NodeStats::consumed_j (Energy, cumulative).
        energy_consumed: _,
        // Distributions are offline analysis (wmsn-trace summary);
        // the monitor keeps EWMA rates instead of histograms.
        latency_hist: _,
        hops_hist: _,
        // Per-node tx mirrored as NodeStats::tx_total().
        node_tx: _,
        // Round snapshots are driver-side bookkeeping, invisible on the
        // trace wire by design.
        snapshots: _,
    } = Metrics::default();
}

#[test]
fn monitor_drop_tallies_agree_with_metrics_on_a_live_run() {
    use wmsn::core::builder::build_spr;
    use wmsn::core::drivers::SprDriver;
    use wmsn::core::params::{FieldParams, GatewayParams, TrafficParams};
    use wmsn::health::HealthConfig;

    let field = FieldParams::default_uniform(30, 9);
    let scen = build_spr(
        &field,
        &GatewayParams::default_three(),
        TrafficParams::default(),
    );
    let mut d = SprDriver::new(scen);
    d.scenario
        .world
        .set_trace_sink(HealthMonitor::boxed(HealthConfig::default()));
    d.run_round();
    let sink = d.scenario.world.take_trace_sink().expect("sink installed");
    let mon = sink
        .as_any()
        .downcast_ref::<HealthMonitor>()
        .expect("HealthMonitor");
    let m = d.scenario.world.metrics();
    assert_eq!(mon.drops_of_cause(DropCause::Loss), m.lost);
    assert_eq!(mon.drops_of_cause(DropCause::Collision), m.collided);
    assert_eq!(mon.drops_of_cause(DropCause::Dead), m.dead_receiver);
    assert_eq!(mon.net().rx_total, m.received);
    assert_eq!(
        mon.net().tx_total,
        m.sent_control + m.sent_data + m.sent_security
    );
}
