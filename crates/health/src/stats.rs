//! Streaming statistics: windowed counters and EWMA rates.
//!
//! The monitor aggregates the trace stream into fixed-size per-node and
//! per-gateway accumulators that are updated in O(1) per event and read
//! by the detector bank at window boundaries. All counters are integers
//! and all floating-point work is a fixed sequence of operations on the
//! same inputs, so a deterministic event stream yields deterministic
//! statistics (and therefore a byte-deterministic alert stream).

use wmsn_trace::DropCause;

/// Number of [`DropCause`] variants: the length of the per-cause
/// tally arrays.
pub const DROP_CAUSE_COUNT: usize = DropCause::ALL.len();

/// Dense index of a drop cause into per-node/per-network tally arrays:
/// its index in [`DropCause::ALL`], which is also its wire byte.
pub fn drop_cause_index(cause: DropCause) -> usize {
    cause.byte() as usize
}

/// The drop cause at a dense index (inverse of [`drop_cause_index`]).
pub fn drop_cause_at(index: usize) -> Option<DropCause> {
    DropCause::ALL.get(index).copied()
}

/// Exponentially weighted moving average over per-window samples.
///
/// `alpha` is the weight of the newest sample. The first sample seeds
/// the average directly so short traces are not biased toward zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ewma {
    value: f64,
    seeded: bool,
}

impl Ewma {
    /// Fold in one sample.
    pub fn update(&mut self, sample: f64, alpha: f64) {
        if self.seeded {
            self.value += alpha * (sample - self.value);
        } else {
            self.value = sample;
            self.seeded = true;
        }
    }

    /// Current average (0.0 before any sample).
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Whether at least one sample has been folded in.
    pub fn is_seeded(&self) -> bool {
        self.seeded
    }

    /// The raw `(value, seeded)` state — the checkpoint codec's view.
    pub fn raw_parts(&self) -> (f64, bool) {
        (self.value, self.seeded)
    }

    /// Rebuild from [`Ewma::raw_parts`] output (checkpoint restore).
    pub fn from_parts(value: f64, seeded: bool) -> Ewma {
        Ewma { value, seeded }
    }
}

/// Per-node streaming statistics. One entry per node id the trace has
/// mentioned; all fields are cumulative unless prefixed `w_` (current
/// window, reset at each window boundary).
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Control frames transmitted.
    pub tx_control: u64,
    /// Data frames transmitted.
    pub tx_data: u64,
    /// Security frames transmitted.
    pub tx_security: u64,
    /// Frames received intact.
    pub rx: u64,
    /// Sensor-tier data frames received intact (classified via the
    /// frame sequence number announced by the matching `tx_start`).
    pub rx_data: u64,
    /// Mesh-tier data frames received intact — the backbone traffic a
    /// WMG/WMR/base node absorbs from peers.
    pub rx_mesh_data: u64,
    /// Mesh-tier data frames transmitted — backbone relaying output.
    pub tx_mesh_data: u64,
    /// Receptions dropped at this node, by [`drop_cause_index`].
    pub drops: [u64; DROP_CAUSE_COUNT],
    /// Application messages forwarded (or originated).
    pub forwards: u64,
    /// Duplicate forwards: the same `(origin, msg_id)` forwarded by this
    /// node more than once — the replay/wormhole re-injection signature.
    pub dup_forwards: u64,
    /// End-to-end deliveries completed at this node.
    pub delivers: u64,
    /// Routes installed by this node (route churn).
    pub route_installs: u64,
    /// Spontaneous control broadcasts: control-kind broadcast
    /// transmissions with no recent reception and no matching RREQ
    /// origination — the forged-announce / HELLO-flood signature.
    pub spontaneous_ctrl: u64,
    /// Time of the most recent intact reception (µs).
    pub last_rx_t: Option<u64>,
    /// Cumulative energy consumed (J), from the latest `energy` event.
    pub consumed_j: f64,
    /// First energy observation `(t, consumed_j)` — anchor of the
    /// depletion slope.
    pub energy_anchor: Option<(u64, f64)>,
    /// Time of the latest energy observation (µs).
    pub last_energy_t: u64,
    /// EWMA of per-window transmissions (control + data + security).
    pub tx_rate: Ewma,
    /// Control frames transmitted in the current window.
    pub w_tx_control: u64,
    /// Total frames transmitted in the current window.
    pub w_tx_total: u64,
    /// Duplicate forwards in the current window.
    pub w_dup_forwards: u64,
}

impl NodeStats {
    /// Total frames transmitted across all kinds.
    pub fn tx_total(&self) -> u64 {
        self.tx_control + self.tx_data + self.tx_security
    }

    /// Total receptions dropped at this node.
    pub fn drops_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Control:data transmit ratio (∞-safe: data count clamped to ≥ 1).
    pub fn control_data_ratio(&self) -> f64 {
        self.tx_control as f64 / (self.tx_data.max(1)) as f64
    }

    /// Energy-depletion rate in joules per second, from the anchor to
    /// the latest observation. `None` until two distinct observations.
    pub fn energy_rate_j_per_s(&self) -> Option<f64> {
        let (t0, c0) = self.energy_anchor?;
        let dt_us = self.last_energy_t.checked_sub(t0)?;
        if dt_us == 0 {
            return None;
        }
        Some((self.consumed_j - c0) * 1e6 / dt_us as f64)
    }

    /// Close the current window: fold rates, reset window counters.
    pub(crate) fn roll_window(&mut self, alpha: f64) {
        self.tx_rate.update(self.w_tx_total as f64, alpha);
        self.w_tx_control = 0;
        self.w_tx_total = 0;
        self.w_dup_forwards = 0;
    }
}

impl NodeStats {
    /// Predicted time (µs) at which this node's battery of
    /// `capacity_j` joules is exhausted, extrapolating the observed
    /// consumption slope from `now`. `None` without a usable slope.
    pub fn depletion_eta_us(&self, capacity_j: f64, now: u64) -> Option<u64> {
        let rate = self.energy_rate_j_per_s()?;
        if rate <= 0.0 {
            return None;
        }
        let left_j = capacity_j - self.consumed_j;
        if left_j <= 0.0 {
            return Some(now);
        }
        let eta_s = left_j / rate;
        Some(now.saturating_add((eta_s * 1e6) as u64))
    }
}

/// Per-gateway streaming statistics, keyed by the gateway ids the trace
/// reveals (`gateway_move`, `route_install`, `cache_reply`,
/// `route_select` events, and delivery destinations).
#[derive(Clone, Debug, Default)]
pub struct GatewayStats {
    /// Deliveries absorbed in total.
    pub delivers: u64,
    /// Deliveries absorbed in the current window.
    pub w_delivers: u64,
    /// Window index of the most recent delivery.
    pub last_deliver_window: Option<u64>,
    /// Place announcements observed (`gateway_move` events).
    pub moves: u64,
    /// Routes installed toward this gateway (network-wide churn).
    pub routes_installed: u64,
    /// EWMA of per-window deliveries.
    pub deliver_rate: Ewma,
    /// Whether a gateway-silence alert has been raised and not yet
    /// cleared by a subsequent delivery.
    pub silence_latched: bool,
    /// Whether a base-silence alert has been raised and not yet cleared
    /// by a subsequent delivery (the backbone-tier latch).
    pub base_silence_latched: bool,
}

impl GatewayStats {
    pub(crate) fn roll_window(&mut self, alpha: f64) {
        self.deliver_rate.update(self.w_delivers as f64, alpha);
        self.w_delivers = 0;
    }
}

/// Network-wide counters the detectors read alongside the per-entity
/// tables.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Events consumed.
    pub events: u64,
    /// Total frames transmitted.
    pub tx_total: u64,
    /// Total intact receptions.
    pub rx_total: u64,
    /// Network-wide drops by [`drop_cause_index`].
    pub drops: [u64; DROP_CAUSE_COUNT],
    /// Total forwards.
    pub forwards: u64,
    /// Total duplicate forwards (see [`NodeStats::dup_forwards`]).
    pub dup_forwards: u64,
    /// Total deliveries.
    pub delivers: u64,
    /// Duplicate deliveries: `(origin, msg_id)` delivered more than once.
    pub dup_delivers: u64,
    /// Total route installs (churn).
    pub route_installs: u64,
    /// Window index of the most recent data forward.
    pub last_forward_window: Option<u64>,
    /// Window index of the most recent mesh-tier data transmission —
    /// the "backbone still carrying traffic" witness base-silence needs.
    pub last_mesh_data_window: Option<u64>,
    /// Forwards in the current window.
    pub w_forwards: u64,
    /// Duplicate forwards + duplicate deliveries in the current window.
    pub w_duplicates: u64,
    /// Deliveries in the current window.
    pub w_delivers: u64,
}

impl NetStats {
    /// Total drops across all causes.
    pub fn drops_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    pub(crate) fn roll_window(&mut self) {
        self.w_forwards = 0;
        self.w_duplicates = 0;
        self.w_delivers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_cause_index_round_trips() {
        for i in 0..DROP_CAUSE_COUNT {
            let cause = drop_cause_at(i).expect("dense index");
            assert_eq!(drop_cause_index(cause), i);
        }
        assert!(drop_cause_at(DROP_CAUSE_COUNT).is_none());
    }

    #[test]
    fn ewma_seeds_then_smooths() {
        let mut e = Ewma::default();
        assert_eq!(e.get(), 0.0);
        e.update(10.0, 0.5);
        assert_eq!(e.get(), 10.0);
        e.update(0.0, 0.5);
        assert_eq!(e.get(), 5.0);
        assert!(e.is_seeded());
    }

    #[test]
    fn energy_slope_and_eta() {
        let mut n = NodeStats {
            energy_anchor: Some((0, 0.0)),
            last_energy_t: 1_000_000,
            consumed_j: 1.0,
            ..NodeStats::default()
        };
        // 1 J over 1 s → 1 J/s.
        assert!((n.energy_rate_j_per_s().unwrap() - 1.0).abs() < 1e-12);
        // 2 J capacity, 1 J left → ETA 1 s out.
        let eta = n.depletion_eta_us(2.0, 1_000_000).unwrap();
        assert_eq!(eta, 2_000_000);
        n.last_energy_t = 0;
        assert!(n.energy_rate_j_per_s().is_none());
    }

    #[test]
    fn window_roll_resets_and_folds() {
        let mut n = NodeStats {
            w_tx_total: 8,
            w_tx_control: 3,
            ..NodeStats::default()
        };
        n.roll_window(0.5);
        assert_eq!(n.w_tx_total, 0);
        assert_eq!(n.w_tx_control, 0);
        assert_eq!(n.tx_rate.get(), 8.0);
    }
}
