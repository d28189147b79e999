//! Declarative scenario parameters.
//!
//! A scenario is three orthogonal blocks: the *field* (where sensors are
//! and how the radio behaves), the *gateways* (how many, where they may
//! sit, how they move), and the *traffic* (who reports how often). All
//! experiment runners build on these so that sweeps vary exactly one knob
//! at a time.

use wmsn_sim::{CollisionModel, EnergyModel, MediumConfig, WorldConfig};
use wmsn_topology::{Deployment, MovementPolicy, PlacementAlgorithm};
use wmsn_util::Rect;

/// The sensor field and radio environment.
#[derive(Clone, Debug)]
pub struct FieldParams {
    /// Number of sensors.
    pub n_sensors: usize,
    /// Field boundary.
    pub field: Rect,
    /// Sensor-tier radio range (m).
    pub range_m: f64,
    /// How sensors are scattered.
    pub deployment: Deployment,
    /// Per-sensor battery (J).
    pub battery_j: f64,
    /// Energy model.
    pub energy: EnergyModel,
    /// Independent per-reception loss probability.
    pub loss_prob: f64,
    /// Enable the receiver-overlap collision model.
    pub collisions: bool,
    /// Enable CSMA carrier sensing (listen-before-talk + backoff) —
    /// pair with `collisions` for a realistic contention model.
    pub csma: bool,
    /// Master seed.
    pub seed: u64,
    /// Re-draw the deployment until the sensor graph is one connected
    /// component. Random uniform fields at
    /// moderate density routinely leave small islands whose traffic no
    /// protocol can deliver; connected fields keep delivery-ratio
    /// comparisons about routing, not geometry.
    pub require_connected: bool,
}

impl FieldParams {
    /// A 100-sensor, 100 m × 100 m uniform field with paper-default
    /// energy and an ideal medium — the baseline workload.
    pub fn default_uniform(n_sensors: usize, seed: u64) -> Self {
        FieldParams {
            n_sensors,
            field: Rect::field(100.0, 100.0),
            range_m: 25.0,
            deployment: Deployment::Uniform { n: n_sensors },
            battery_j: 1.0,
            energy: EnergyModel::per_packet_default(),
            loss_prob: 0.0,
            collisions: false,
            csma: false,
            seed,
            require_connected: true,
        }
    }

    /// Scale the field so that sensor density stays constant as `n`
    /// grows (the E9 scalability sweep).
    pub fn constant_density(n_sensors: usize, density_per_m2: f64, seed: u64) -> Self {
        let area = n_sensors as f64 / density_per_m2;
        let side = area.sqrt();
        FieldParams {
            field: Rect::field(side, side),
            deployment: Deployment::Uniform { n: n_sensors },
            ..FieldParams::default_uniform(n_sensors, seed)
        }
    }

    /// The corresponding simulator configuration.
    pub fn world_config(&self) -> WorldConfig {
        let mut cfg = WorldConfig::ideal(self.seed);
        cfg.sensor_phy.range_m = self.range_m;
        cfg.energy = self.energy;
        cfg.medium = MediumConfig {
            loss_prob: self.loss_prob,
            collisions: if self.collisions {
                CollisionModel::ReceiverOverlap
            } else {
                CollisionModel::None
            },
            csma: self.csma,
            ..MediumConfig::default()
        };
        cfg
    }
}

/// Gateway deployment and mobility.
#[derive(Clone, Debug)]
pub struct GatewayParams {
    /// Number of gateways `m`.
    pub m: usize,
    /// Feasible-place grid dimensions (cols × rows) over the field.
    pub place_grid: (usize, usize),
    /// Initial placement algorithm.
    pub placement: PlacementAlgorithm,
    /// Round-by-round movement.
    pub movement: MovementPolicy,
}

impl GatewayParams {
    /// Three static gateways on a 3×3 place grid, k-means initial
    /// placement — the paper's Fig. 2(b)-style configuration.
    pub fn default_three() -> Self {
        GatewayParams {
            m: 3,
            place_grid: (3, 3),
            placement: PlacementAlgorithm::KMeans { iterations: 10 },
            movement: MovementPolicy::Static,
        }
    }

    /// `m` gateways rotating round-robin over the place grid (the MLR
    /// mobility workload).
    pub fn rotating(m: usize, cols: usize, rows: usize) -> Self {
        GatewayParams {
            m,
            place_grid: (cols, rows),
            placement: PlacementAlgorithm::KMeans { iterations: 10 },
            movement: MovementPolicy::RoundRobin,
        }
    }

    /// Total number of feasible places `|P|`.
    pub fn n_places(&self) -> usize {
        self.place_grid.0 * self.place_grid.1
    }
}

/// Traffic generation.
#[derive(Clone, Copy, Debug)]
pub struct TrafficParams {
    /// Application messages per sensor per round (`T` in eq. 3).
    pub msgs_per_sensor_per_round: u32,
    /// Round duration (µs) — traffic is spread across the first half so
    /// everything settles before the round closes.
    pub round_duration_us: u64,
    /// Fraction of sensors that report each round (1.0 = everyone).
    pub reporting_fraction: f64,
}

impl Default for TrafficParams {
    fn default() -> Self {
        TrafficParams {
            msgs_per_sensor_per_round: 1,
            round_duration_us: 4_000_000,
            reporting_fraction: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_field_is_well_formed() {
        let f = FieldParams::default_uniform(100, 1);
        assert_eq!(f.n_sensors, 100);
        let cfg = f.world_config();
        assert_eq!(cfg.sensor_phy.range_m, 25.0);
        assert_eq!(cfg.medium.loss_prob, 0.0);
    }

    #[test]
    fn constant_density_scales_area_linearly() {
        let a = FieldParams::constant_density(50, 0.01, 1);
        let b = FieldParams::constant_density(200, 0.01, 1);
        assert!((b.field.area() / a.field.area() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn gateway_param_helpers() {
        let g = GatewayParams::default_three();
        assert_eq!(g.m, 3);
        assert_eq!(g.n_places(), 9);
        let r = GatewayParams::rotating(2, 4, 2);
        assert_eq!(r.n_places(), 8);
        assert!(matches!(r.movement, MovementPolicy::RoundRobin));
    }

    #[test]
    fn collisions_flag_maps_to_model() {
        let mut f = FieldParams::default_uniform(10, 1);
        f.collisions = true;
        assert!(matches!(
            f.world_config().medium.collisions,
            CollisionModel::ReceiverOverlap
        ));
    }
}
