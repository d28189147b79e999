//! The metrics ledger.
//!
//! Everything the experiments report comes from here: per-kind packet
//! counters, per-node energy, end-to-end deliveries with hop counts and
//! latency, and the paper's headline figure — network lifetime, *"the time
//! when the first sensor node drains its energy"* (§5.3).

use crate::packet::PacketKind;
use crate::time::SimTime;
use wmsn_trace::Histogram;
use wmsn_util::stats::energy_variance;
use wmsn_util::NodeId;

/// A completed end-to-end application delivery, recorded by the
/// destination protocol via [`crate::node::Ctx::record_delivery`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Originating node.
    pub source: NodeId,
    /// Final destination (gateway / base station).
    pub destination: NodeId,
    /// Application message id (protocol-chosen).
    pub msg_id: u64,
    /// Time the source handed the message to the network.
    pub sent_at: SimTime,
    /// Time the destination accepted it.
    pub delivered_at: SimTime,
    /// Number of radio hops traversed.
    pub hops: u32,
}

impl Delivery {
    /// End-to-end latency in microseconds.
    pub fn latency(&self) -> SimTime {
        self.delivered_at.saturating_sub(self.sent_at)
    }
}

/// Counters and records accumulated over one run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Frames transmitted, by kind.
    pub sent_control: u64,
    /// Data frames transmitted.
    pub sent_data: u64,
    /// Security frames transmitted.
    pub sent_security: u64,
    /// Total payload+header bytes clocked onto the air, by kind — the
    /// basis of the security-overhead experiment (E7).
    pub sent_bytes_control: u64,
    /// Data bytes transmitted.
    pub sent_bytes_data: u64,
    /// Security bytes transmitted.
    pub sent_bytes_security: u64,
    /// Frames successfully received (addressed to the receiver).
    pub received: u64,
    /// Receptions lost to the random-loss model.
    pub lost: u64,
    /// Receptions lost to collisions.
    pub collided: u64,
    /// Receptions discarded because the receiver was dead.
    pub dead_receiver: u64,
    /// Transmissions deferred by CSMA carrier sensing.
    pub csma_deferrals: u64,
    /// Transmissions abandoned after exhausting CSMA backoff attempts.
    pub csma_drops: u64,
    /// Application messages originated (denominator of delivery ratio).
    pub originated: u64,
    /// Completed deliveries.
    pub deliveries: Vec<Delivery>,
    /// Causal key of the event that produced each delivery (parallel to
    /// `deliveries`). The sharded kernel merges per-shard delivery
    /// ledgers by `(delivered_at, key)` to recover the exact order the
    /// single-threaded reference records them in; single-world callers
    /// can ignore this.
    pub delivery_keys: Vec<u64>,
    /// Time of first sensor death, if any — the paper's network lifetime.
    pub first_death: Option<SimTime>,
    /// Node that died first.
    pub first_death_node: Option<NodeId>,
    /// Per-node energy consumed (indexed by node id; gateways report 0
    /// under unlimited batteries).
    pub energy_consumed: Vec<f64>,
    /// End-to-end latency distribution (µs) over deliveries.
    pub latency_hist: Histogram,
    /// Hop-count distribution over deliveries.
    pub hops_hist: Histogram,
    /// Frames transmitted per node (indexed by node id).
    pub node_tx: Vec<u64>,
    /// Per-round snapshots appended by the experiment drivers, so E3/E8
    /// can plot trajectories instead of endpoints.
    pub snapshots: Vec<RoundSnapshot>,
}

/// Cumulative counters captured at one round boundary.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundSnapshot {
    /// Round index (0-based).
    pub round: u32,
    /// Simulation time of the snapshot.
    pub at: SimTime,
    /// Messages originated so far.
    pub originated: u64,
    /// Unique messages delivered so far.
    pub delivered: u64,
    /// Control frames sent so far.
    pub sent_control: u64,
    /// Data frames sent so far.
    pub sent_data: u64,
    /// Security frames sent so far.
    pub sent_security: u64,
    /// Frames received so far.
    pub received: u64,
    /// Receptions dropped so far (loss + collision + dead receiver).
    pub dropped: u64,
    /// Total joules consumed across all nodes so far.
    pub total_energy_j: f64,
    /// Whether the first sensor death has happened yet.
    pub any_death: bool,
}

impl Metrics {
    /// Record a transmission of `kind` carrying `bytes` bytes.
    pub fn count_sent(&mut self, kind: PacketKind, bytes: usize) {
        match kind {
            PacketKind::Control => {
                self.sent_control += 1;
                self.sent_bytes_control += bytes as u64;
            }
            PacketKind::Data => {
                self.sent_data += 1;
                self.sent_bytes_data += bytes as u64;
            }
            PacketKind::Security => {
                self.sent_security += 1;
                self.sent_bytes_security += bytes as u64;
            }
        }
    }

    /// Total bytes transmitted across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.sent_bytes_control + self.sent_bytes_data + self.sent_bytes_security
    }

    /// Total frames transmitted.
    pub fn total_sent(&self) -> u64 {
        self.sent_control + self.sent_data + self.sent_security
    }

    /// Delivery ratio: unique delivered messages / originated messages
    /// (1.0 when nothing was originated). Duplicate arrivals of the same
    /// (source, msg_id) count once.
    pub fn delivery_ratio(&self) -> f64 {
        if self.originated == 0 {
            return 1.0;
        }
        self.unique_deliveries() as f64 / self.originated as f64
    }

    /// Number of unique (source, msg_id) messages delivered — duplicate
    /// arrivals (multi-path, replay, or the base station re-recording an
    /// end-to-end delivery) count once.
    pub fn unique_deliveries(&self) -> u64 {
        let unique: std::collections::HashSet<(NodeId, u64)> = self
            .deliveries
            .iter()
            .map(|d| (d.source, d.msg_id))
            .collect();
        unique.len() as u64
    }

    /// Mean hop count over deliveries (0 if none).
    pub fn mean_hops(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries.iter().map(|d| d.hops as f64).sum::<f64>() / self.deliveries.len() as f64
    }

    /// Mean end-to-end latency in microseconds (0 if none).
    pub fn mean_latency_us(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries
            .iter()
            .map(|d| d.latency() as f64)
            .sum::<f64>()
            / self.deliveries.len() as f64
    }

    /// The paper's energy-balance variance `D²` over the given node
    /// subset (normally: all sensors).
    pub fn energy_d2(&self, nodes: &[NodeId]) -> f64 {
        let es: Vec<f64> = nodes
            .iter()
            .map(|n| self.energy_consumed.get(n.index()).copied().unwrap_or(0.0))
            .collect();
        energy_variance(&es)
    }

    /// Total energy consumed by the given node subset.
    pub fn total_energy(&self, nodes: &[NodeId]) -> f64 {
        nodes
            .iter()
            .map(|n| self.energy_consumed.get(n.index()).copied().unwrap_or(0.0))
            .sum()
    }

    /// Record a completed delivery, feeding the latency and hop-count
    /// histograms alongside the delivery ledger.
    pub fn record_delivery(&mut self, d: Delivery) {
        self.record_delivery_keyed(d, 0);
    }

    /// [`Metrics::record_delivery`] with an explicit causal key — what
    /// [`crate::node::Ctx::record_delivery`] uses so sharded runs can
    /// merge delivery ledgers deterministically.
    pub fn record_delivery_keyed(&mut self, d: Delivery, key: u64) {
        self.latency_hist.record(d.latency());
        self.hops_hist.record(d.hops as u64);
        self.delivery_keys.push(key);
        self.deliveries.push(d);
    }

    /// Receptions that were scheduled but never reached a behaviour:
    /// `lost + collided + dead_receiver`. Trace `drop` events with
    /// causes `loss`/`collision`/`dead` sum to exactly this.
    pub fn dropped_total(&self) -> u64 {
        self.lost + self.collided + self.dead_receiver
    }

    /// Per-node transmit counts as a histogram (one sample per node).
    pub fn node_tx_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &n in &self.node_tx {
            h.record(n);
        }
        h
    }

    /// Append a cumulative per-round snapshot (called by the experiment
    /// drivers at each round boundary).
    pub fn snapshot_round(&mut self, round: u32, at: SimTime) {
        let snap = RoundSnapshot {
            round,
            at,
            originated: self.originated,
            delivered: self.unique_deliveries(),
            sent_control: self.sent_control,
            sent_data: self.sent_data,
            sent_security: self.sent_security,
            received: self.received,
            dropped: self.dropped_total(),
            total_energy_j: self.energy_consumed.iter().sum(),
            any_death: self.first_death.is_some(),
        };
        self.snapshots.push(snap);
    }

    /// Control overhead ratio: control frames / total frames (0 if idle).
    pub fn control_overhead(&self) -> f64 {
        let total = self.total_sent();
        if total == 0 {
            0.0
        } else {
            self.sent_control as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivery(src: u32, msg: u64, hops: u32, sent: SimTime, got: SimTime) -> Delivery {
        Delivery {
            source: NodeId(src),
            destination: NodeId(99),
            msg_id: msg,
            sent_at: sent,
            delivered_at: got,
            hops,
        }
    }

    #[test]
    fn delivery_ratio_counts_unique_messages() {
        let mut m = Metrics {
            originated: 4,
            ..Default::default()
        };
        m.deliveries.push(delivery(1, 1, 2, 0, 10));
        m.deliveries.push(delivery(1, 1, 3, 0, 12)); // duplicate arrival
        m.deliveries.push(delivery(2, 1, 1, 0, 5));
        assert!((m.delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_ratio_one() {
        assert_eq!(Metrics::default().delivery_ratio(), 1.0);
    }

    #[test]
    fn hop_and_latency_means() {
        let mut m = Metrics::default();
        m.deliveries.push(delivery(1, 1, 2, 100, 300));
        m.deliveries.push(delivery(2, 1, 4, 100, 500));
        assert!((m.mean_hops() - 3.0).abs() < 1e-12);
        assert!((m.mean_latency_us() - 300.0).abs() < 1e-12);
        assert_eq!(Metrics::default().mean_hops(), 0.0);
    }

    #[test]
    fn latency_saturates_instead_of_underflowing() {
        let d = delivery(1, 1, 1, 50, 40);
        assert_eq!(d.latency(), 0);
    }

    #[test]
    fn kind_counters() {
        let mut m = Metrics::default();
        m.count_sent(PacketKind::Control, 10);
        m.count_sent(PacketKind::Control, 20);
        m.count_sent(PacketKind::Data, 5);
        m.count_sent(PacketKind::Security, 1);
        assert_eq!(m.total_sent(), 4);
        assert!((m.control_overhead() - 0.5).abs() < 1e-12);
        assert_eq!(m.sent_bytes_control, 30);
        assert_eq!(m.sent_bytes_data, 5);
        assert_eq!(m.total_bytes(), 36);
    }

    #[test]
    fn energy_views_respect_the_subset() {
        let m = Metrics {
            energy_consumed: vec![1.0, 3.0, 100.0],
            ..Default::default()
        };
        let sensors = [NodeId(0), NodeId(1)];
        assert!((m.total_energy(&sensors) - 4.0).abs() < 1e-12);
        assert!((m.energy_d2(&sensors) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn missing_energy_entries_read_as_zero() {
        let m = Metrics::default();
        assert_eq!(m.total_energy(&[NodeId(7)]), 0.0);
    }

    #[test]
    fn record_delivery_feeds_the_histograms() {
        let mut m = Metrics::default();
        m.record_delivery(delivery(1, 1, 2, 100, 300));
        m.record_delivery(delivery(2, 1, 4, 100, 500));
        assert_eq!(m.deliveries.len(), 2);
        assert_eq!(m.hops_hist.count(), 2);
        assert_eq!(m.hops_hist.percentile(1.0), 4);
        assert_eq!(m.latency_hist.min(), 200);
        assert_eq!(m.latency_hist.max(), 400);
    }

    #[test]
    fn dropped_total_sums_the_three_causes() {
        let m = Metrics {
            lost: 3,
            collided: 5,
            dead_receiver: 2,
            ..Default::default()
        };
        assert_eq!(m.dropped_total(), 10);
    }

    #[test]
    fn snapshots_capture_cumulative_counters() {
        let mut m = Metrics {
            originated: 4,
            sent_data: 7,
            lost: 1,
            energy_consumed: vec![0.5, 0.25],
            ..Default::default()
        };
        m.record_delivery(delivery(1, 1, 2, 0, 10));
        m.snapshot_round(0, 1_000);
        m.originated += 2;
        m.snapshot_round(1, 2_000);
        assert_eq!(m.snapshots.len(), 2);
        assert_eq!(m.snapshots[0].round, 0);
        assert_eq!(m.snapshots[0].originated, 4);
        assert_eq!(m.snapshots[0].delivered, 1);
        assert_eq!(m.snapshots[0].dropped, 1);
        assert!((m.snapshots[0].total_energy_j - 0.75).abs() < 1e-12);
        assert_eq!(m.snapshots[1].originated, 6);
        assert_eq!(m.snapshots[1].at, 2_000);
    }

    #[test]
    fn node_tx_histogram_samples_every_node() {
        let m = Metrics {
            node_tx: vec![0, 3, 3, 10],
            ..Default::default()
        };
        let h = m.node_tx_histogram();
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 10);
        assert_eq!(h.percentile(0.5), 3);
    }
}
