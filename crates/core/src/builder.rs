//! Scenario builders: parameters in, one populated [`Scenario`] out.
//!
//! Node-id layout is fixed and documented: **sensors first** (ids
//! `0..n_sensors`), **then gateways** (`n_sensors..n_sensors+m`), then —
//! in the three-tier scenarios — WMRs and finally base stations. Builders
//! return the id lists so drivers and experiments never guess.
//!
//! Every builder goes through one deployment path: sensors are drawn
//! from the field seed's `0xB01D` stream (redrawn until connected when
//! the field asks for it), then the initial gateway places from the same
//! stream (LEACH's fixed sink draws none), then sensors and gateways are
//! added in id order.

use crate::params::{FieldParams, GatewayParams, TrafficParams};
use crate::wmg::WmgBehavior;
use wmsn_crypto::tesla::TeslaReceiver;
use wmsn_crypto::{Key128, KeyStore};
use wmsn_routing::leach::{LeachConfig, LeachSensor, LeachSink};
use wmsn_routing::mesh::MeshNode;
use wmsn_routing::mlr::{MlrConfig, MlrGateway, MlrSensor};
use wmsn_routing::spr::{SprConfig, SprGateway, SprSensor};
use wmsn_secure::{SecGatewayConfig, SecMlrGateway, SecMlrSensor, SecSensorConfig};
use wmsn_sim::{Behavior, NodeConfig, World, WorldConfig};
use wmsn_topology::{placement, FeasiblePlaces, MovementPolicy, MovementSchedule, Topology};
use wmsn_util::{NodeId, Point, SplitMix64};

/// Draw `field`'s sensor deployment from `rng`, redrawing until the
/// unit-disk graph is connected when the field asks for it: a
/// disconnected draw would bias every delivery and hop figure. Sparse
/// fields may take many draws; a field that can never connect never
/// returns.
pub(crate) fn draw_sensors(field: &FieldParams, rng: &mut SplitMix64) -> Vec<Point> {
    use wmsn_topology::connectivity::is_connected;
    use wmsn_util::geom::unit_disk_adjacency;
    loop {
        let pts = field.deployment.generate(field.field, rng);
        if !field.require_connected || is_connected(&unit_disk_adjacency(&pts, field.range_m)) {
            return pts;
        }
    }
}

/// A built scenario, ready for a [`crate::drivers::RoundDriver`].
///
/// Generic over the simulation host so the same scenario (and the driver
/// running it) works on the single-threaded reference [`World`] or the
/// sharded parallel kernel — build on a `World`, then lift with
/// [`Scenario::map_world`].
pub struct Scenario<H = World> {
    /// The world.
    pub world: H,
    /// Sensor ids (`0..n`).
    pub sensors: Vec<NodeId>,
    /// Gateway ids (`n..n+m`): the protocol's gateways, the three-tier
    /// WMGs, or LEACH's single sink.
    pub gateways: Vec<NodeId>,
    /// Feasible places (LEACH: the sink's position only).
    pub places: FeasiblePlaces,
    /// Movement schedule (round 0 not yet produced).
    pub schedule: MovementSchedule,
    /// Traffic parameters.
    pub traffic: TrafficParams,
    /// Sensor positions (for analytic comparisons).
    pub sensor_positions: Vec<Point>,
    /// Gateway positions at deployment (index-aligned with `gateways`).
    pub gateway_positions: Vec<Point>,
    /// Sensor radio range.
    pub range_m: f64,
}

/// The SPR name for a [`Scenario`] (static gateways; the `m = 1` case is
/// the flat single-sink baseline of Fig. 2(a)).
pub type SprScenario<H = World> = Scenario<H>;

impl<H> Scenario<H> {
    /// Analytic topology of the deployment-time gateway positions.
    pub fn topology(&self) -> Topology {
        Topology::new(
            self.sensor_positions.clone(),
            self.gateway_positions.clone(),
            wmsn_util::Rect::from_corners(Point::new(-1e9, -1e9), Point::new(1e9, 1e9)),
            self.range_m,
        )
    }

    /// Replace the host, keeping every other scenario field — the hook
    /// that lifts a freshly built (un-started) `Scenario<World>` onto the
    /// sharded kernel:
    /// `s.map_world(|w| ShardedWorld::from_world(w, assignment, threads))`.
    pub fn map_world<H2>(self, f: impl FnOnce(H) -> H2) -> Scenario<H2> {
        Scenario {
            world: f(self.world),
            sensors: self.sensors,
            gateways: self.gateways,
            places: self.places,
            schedule: self.schedule,
            traffic: self.traffic,
            sensor_positions: self.sensor_positions,
            gateway_positions: self.gateway_positions,
            range_m: self.range_m,
        }
    }
}

/// Where a deployment's gateways go.
enum Sites<'a> {
    /// `gw.m` gateways placed by `gw.placement` on `gw.place_grid` and
    /// moving per `gw.movement`; the placement is drawn after the sensors.
    Placed(&'a GatewayParams),
    /// One static sink at a fixed point; nothing is drawn.
    Sink(Point),
}

/// A drawn deployment: everything the RNG fixes before any node exists.
struct Layout {
    sensors: Vec<Point>,
    places: FeasiblePlaces,
    initial: Vec<usize>,
    movement: MovementPolicy,
}

impl Layout {
    fn draw(field: &FieldParams, sites: Sites<'_>) -> Layout {
        let mut rng = SplitMix64::new(field.seed).split(0xB01D);
        let sensors = draw_sensors(field, &mut rng);
        let (places, initial, movement) = match sites {
            Sites::Placed(gw) => {
                let places = FeasiblePlaces::grid(field.field, gw.place_grid.0, gw.place_grid.1);
                let initial = placement::place_gateways(
                    gw.placement,
                    &sensors,
                    field.field,
                    field.range_m,
                    &places,
                    gw.m,
                    &mut rng,
                );
                (places, initial, gw.movement.clone())
            }
            Sites::Sink(pos) => (
                FeasiblePlaces::new(vec![pos]),
                vec![0],
                MovementPolicy::Static,
            ),
        };
        Layout {
            sensors,
            places,
            initial,
            movement,
        }
    }

    /// The id the `k`-th node after the sensors gets (gateway `k` for
    /// `k < m`).
    fn id_after_sensors(&self, k: usize) -> NodeId {
        NodeId((self.sensors.len() + k) as u32)
    }

    /// Add the sensors (`sensor(i)`) and then the gateways
    /// (`gateway(id, place)`) to a fresh world on `cfg`.
    fn populate(
        self,
        field: &FieldParams,
        cfg: WorldConfig,
        traffic: TrafficParams,
        mut sensor: impl FnMut(usize) -> Box<dyn Behavior>,
        mut gateway: impl FnMut(NodeId, usize) -> Box<dyn Behavior>,
    ) -> Scenario {
        let mut world = World::new(cfg);
        let sensors = self
            .sensors
            .iter()
            .enumerate()
            .map(|(i, &pos)| world.add_node(NodeConfig::sensor(pos, field.battery_j), sensor(i)))
            .collect();
        let gateway_positions: Vec<Point> = self
            .initial
            .iter()
            .map(|&p| self.places.position(p))
            .collect();
        let gateways = self
            .initial
            .iter()
            .zip(&gateway_positions)
            .enumerate()
            .map(|(j, (&place, &pos))| {
                let id = self.id_after_sensors(j);
                let added = world.add_node(NodeConfig::gateway(pos), gateway(id, place));
                assert_eq!(added, id, "gateway id layout violated");
                id
            })
            .collect();
        let schedule = MovementSchedule::new(self.movement, &self.places, self.initial, field.seed);
        Scenario {
            world,
            sensors,
            gateways,
            places: self.places,
            schedule,
            traffic,
            sensor_positions: self.sensors,
            gateway_positions,
            range_m: field.range_m,
        }
    }
}

/// Build an MLR scenario. `load_alpha > 0` enables §4.3 load balancing.
pub fn build_mlr(
    field: &FieldParams,
    gw: &GatewayParams,
    traffic: TrafficParams,
    load_alpha: f64,
) -> Scenario {
    build_mlr_with(
        field,
        gw,
        traffic,
        MlrConfig {
            load_alpha,
            ..MlrConfig::default()
        },
    )
}

/// Build an MLR scenario with full protocol configuration (energy-aware
/// selection, jitter, retry tuning).
pub fn build_mlr_with(
    field: &FieldParams,
    gw: &GatewayParams,
    traffic: TrafficParams,
    mlr_cfg: MlrConfig,
) -> Scenario {
    Layout::draw(field, Sites::Placed(gw)).populate(
        field,
        field.world_config(),
        traffic,
        |_| MlrSensor::boxed(mlr_cfg),
        |_, place| MlrGateway::boxed(place as u16),
    )
}

fn build_spr_on(
    field: &FieldParams,
    gw: &GatewayParams,
    traffic: TrafficParams,
    cfg: WorldConfig,
) -> Scenario {
    Layout::draw(field, Sites::Placed(gw)).populate(
        field,
        cfg,
        traffic,
        |_| SprSensor::boxed(SprConfig::default()),
        |_, _| SprGateway::boxed(),
    )
}

/// Build an SPR scenario with `gw.m` statically-placed gateways.
pub fn build_spr(field: &FieldParams, gw: &GatewayParams, traffic: TrafficParams) -> SprScenario {
    build_spr_on(field, gw, traffic, field.world_config())
}

/// [`build_spr`] plus the mesh tier: one base station at the field
/// centre on a mesh radio stretched to the field diagonal, so every
/// gateway can unicast delivered data up the backbone. Returns the
/// scenario and the base-station id.
///
/// The uplink wiring itself (`SprGateway::set_uplink`) happens at round
/// start — see `experiments::e9_large_round` — so the returned world is
/// still un-started and can be lifted onto the sharded kernel via
/// [`Scenario::map_world`].
pub fn build_spr_three_tier(
    field: &FieldParams,
    gw: &GatewayParams,
    traffic: TrafficParams,
) -> (SprScenario, NodeId) {
    let mut cfg = field.world_config();
    cfg.mesh_phy.range_m = field.field.diagonal() + 1.0;
    let mut s = build_spr_on(field, gw, traffic, cfg);
    let base = s.world.add_node(
        NodeConfig::base_station(field.field.center()),
        SprGateway::boxed(),
    );
    (s, base)
}

/// Build a SecMLR scenario: pairwise keys (from the field seed's
/// `0x5EC0` master key) and μTESLA anchors are pre-distributed; round-0
/// occupancy is part of deployment knowledge.
pub fn build_secmlr(field: &FieldParams, gw: &GatewayParams, traffic: TrafficParams) -> Scenario {
    let layout = Layout::draw(field, Sites::Placed(gw));
    let mut master = [0u8; 16];
    SplitMix64::new(field.seed)
        .split(0x5EC0)
        .fill_bytes(&mut master);
    let master = Key128(master);
    let gateway_raw: Vec<u32> = (0..gw.m).map(|j| layout.id_after_sensors(j).0).collect();
    let mut s = layout.populate(
        field,
        field.world_config(),
        traffic,
        |i| {
            let keys = KeyStore::for_sensor(&master, i as u32, &gateway_raw);
            SecMlrSensor::boxed(SecSensorConfig::default(), keys)
        },
        |id, place| SecMlrGateway::boxed(SecGatewayConfig::default(), &master, id, place as u16),
    );
    let occupancy: Vec<(NodeId, u16)> = s
        .gateways
        .iter()
        .zip(s.schedule.current())
        .map(|(&g, &p)| (g, p as u16))
        .collect();
    anchor_secmlr(&mut s.world, &s.sensors, &occupancy);
    s
}

/// SecMLR deployment knowledge: every sensor gets the μTESLA anchor of
/// every `(gateway, place)` in `occupancy` and that round-0 occupancy.
pub(crate) fn anchor_secmlr(world: &mut World, sensors: &[NodeId], occupancy: &[(NodeId, u16)]) {
    for &(g, _) in occupancy {
        let params = world
            .behavior_as::<SecMlrGateway>(g)
            .expect("gateway behaviour")
            .tesla_params();
        for &sensor in sensors {
            world.with_behavior::<SecMlrSensor, _>(sensor, |b, _| {
                b.install_tesla(
                    g,
                    TeslaReceiver::new(params.0, params.1, params.2, params.3, params.4),
                );
            });
        }
    }
    for &sensor in sensors {
        world.with_behavior::<SecMlrSensor, _>(sensor, |b, _| b.set_initial_occupancy(occupancy));
    }
}

/// Build the three-layer architecture of Fig. 1: sensors, `gw.m` WMGs
/// (the scenario's gateways: MLR sinks uplinked to the base station), a
/// `wmr_grid` of mesh routers, and one base station at `base_pos`.
/// `mesh_range_m` sets the backbone radio range. Returns the scenario,
/// the base-station id and the WMR ids.
pub fn build_three_tier(
    field: &FieldParams,
    gw: &GatewayParams,
    traffic: TrafficParams,
    wmr_grid: (usize, usize),
    base_pos: Point,
    mesh_range_m: f64,
) -> (Scenario, NodeId, Vec<NodeId>) {
    let mut cfg = field.world_config();
    cfg.mesh_phy.range_m = mesh_range_m;
    let layout = Layout::draw(field, Sites::Placed(gw));
    // The base comes after the WMGs and the WMRs.
    let base_id = layout.id_after_sensors(gw.m + wmr_grid.0 * wmr_grid.1);
    let mut s = layout.populate(
        field,
        cfg,
        traffic,
        |_| MlrSensor::boxed(MlrConfig::default()),
        |_, place| WmgBehavior::boxed(place as u16, Some(base_id)),
    );
    let wmrs = FeasiblePlaces::grid(field.field, wmr_grid.0, wmr_grid.1)
        .places
        .iter()
        .map(|&pos| {
            s.world
                .add_node(NodeConfig::mesh_router(pos), MeshNode::boxed())
        })
        .collect();
    let base = s
        .world
        .add_node(NodeConfig::base_station(base_pos), MeshNode::boxed());
    assert_eq!(base, base_id, "base id layout violated");
    (s, base, wmrs)
}

/// Build a LEACH scenario whose one gateway is the sink at `sink_pos`.
/// Every sensor reports once per round (LEACH's own traffic pattern),
/// so the scenario carries the default [`TrafficParams`], which no
/// LEACH round reads.
pub fn build_leach(field: &FieldParams, sink_pos: Point, p: f64) -> Scenario {
    let layout = Layout::draw(field, Sites::Sink(sink_pos));
    let cfg = LeachConfig {
        p,
        payload_len: 24,
        sink_pos,
        sink: layout.id_after_sensors(0),
        max_boost_range: field.field.diagonal() + sink_pos.dist(field.field.center()) + 50.0,
    };
    layout.populate(
        field,
        field.world_config(),
        TrafficParams::default(),
        |_| LeachSensor::boxed(cfg),
        |_, _| LeachSink::boxed(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::*;

    #[test]
    fn sparse_connectable_fields_build_however_many_draws_it_takes() {
        // E1's n=150, 20 m, 200×200 m field: at seed 7 the builder's
        // stream needs 201 draws before the sensor graph connects.
        let field = FieldParams {
            field: wmsn_util::Rect::field(200.0, 200.0),
            range_m: 20.0,
            ..FieldParams::default_uniform(150, 7)
        };
        let s = build_spr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
        );
        assert_eq!(s.sensors.len(), 150);
        let adj = wmsn_util::geom::unit_disk_adjacency(&s.sensor_positions, field.range_m);
        assert!(wmsn_topology::connectivity::is_connected(&adj));
    }

    #[test]
    fn mlr_builder_lays_out_ids_as_documented() {
        let field = FieldParams::default_uniform(30, 1);
        let s = build_mlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            0.0,
        );
        assert_eq!(s.sensors.len(), 30);
        assert_eq!(s.gateways.len(), 3);
        assert_eq!(s.sensors[0], NodeId(0));
        assert_eq!(s.gateways[0], NodeId(30));
        assert_eq!(s.world.node_count(), 33);
        // Distinct initial places.
        let set: std::collections::HashSet<_> = s.schedule.current().iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn spr_builder_matches_analytic_topology() {
        let field = FieldParams::default_uniform(40, 2);
        let s = build_spr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
        );
        let topo = s.topology();
        assert_eq!(topo.sensors.len(), 40);
        assert_eq!(topo.gateways.len(), 3);
        // The builder is deterministic per seed.
        let s2 = build_spr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
        );
        assert_eq!(s.sensor_positions, s2.sensor_positions);
        assert_eq!(s.gateway_positions, s2.gateway_positions);
    }

    #[test]
    fn secmlr_builder_anchors_every_sensor_for_every_gateway() {
        let field = FieldParams {
            require_connected: false, // 12 sensors at range 25 rarely connect
            ..FieldParams::default_uniform(12, 3)
        };
        let s = build_secmlr(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
        );
        // Every sensor can immediately select among 3 occupied places.
        for &sensor in &s.sensors {
            let b = s.world.behavior_as::<SecMlrSensor>(sensor).unwrap();
            assert_eq!(b.occupied_gateways().len(), 3);
        }
    }

    #[test]
    fn three_tier_builder_wires_the_uplink() {
        let field = FieldParams::default_uniform(20, 4);
        let (s, base, wmrs) = build_three_tier(
            &field,
            &GatewayParams::default_three(),
            TrafficParams::default(),
            (2, 2),
            Point::new(50.0, 160.0),
            120.0,
        );
        assert_eq!(s.gateways.len(), 3);
        assert_eq!(wmrs.len(), 4);
        assert_eq!(s.world.node_count(), 20 + 3 + 4 + 1);
        let wmg = s.world.behavior_as::<WmgBehavior>(s.gateways[0]).unwrap();
        assert_eq!(wmg.uplink, Some(base));
    }

    #[test]
    fn leach_builder_configures_the_sink() {
        let field = FieldParams::default_uniform(25, 5);
        let s = build_leach(&field, Point::new(50.0, 130.0), 0.1);
        assert_eq!(s.sensors.len(), 25);
        assert_eq!(s.gateways, vec![NodeId(25)]);
    }
}
