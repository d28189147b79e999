//! The streaming health monitor and its detector bank.
//!
//! [`HealthMonitor`] implements [`TraceSink`], so it installs into the
//! simulator exactly like a JSONL recorder (`World::set_trace_sink`) —
//! the hot path keeps paying a single branch when no sink is installed,
//! and one dynamic dispatch when one is. Every [`TraceEvent`] updates
//! O(1) counters; detectors run only at window boundaries.
//!
//! The detector bank is *blind*: it sees nothing but the trace stream —
//! no attack labels, no behaviour downcasts — which is what makes the
//! E18 fingerprinting experiment meaningful.
//!
//! Detector conditions (all thresholds live in [`HealthConfig`]):
//!
//! | alert               | condition at window close                       |
//! |---------------------|-------------------------------------------------|
//! | `gateway_silence`   | a gateway that has delivered goes ≥ N windows without a delivery while the network kept forwarding |
//! | `duplicate_storm`   | ≥ N duplicate forwards/deliveries of already-seen `(origin, msg_id)` in one window |
//! | `forward_asymmetry` | a non-gateway node has received ≥ N data frames but never forwarded or delivered |
//! | `announce_spike`    | a non-gateway node has seeded ≥ N control floods with no recent reception and no RREQ origination |
//! | `load_imbalance`    | with ≥ 2 known gateways, one absorbs ≥ P% of a busy window's deliveries |
//! | `energy_depletion`  | a node's consumption slope forecasts battery exhaustion within the horizon |
//! | `backbone_asymmetry`| a node has absorbed ≥ N mesh-tier data frames but never re-transmitted on the mesh nor delivered |
//! | `base_silence`      | a mesh-fed delivering node (base station) goes ≥ N windows without a delivery while mesh data kept flowing |

use crate::alert::{AlertKind, HealthAlert};
use crate::stats::{drop_cause_index, GatewayStats, NetStats, NodeStats, DROP_CAUSE_COUNT};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use wmsn_trace::{DropCause, TraceEvent, TraceKind, TraceSink, TraceTier};

/// Detector thresholds and aggregation parameters.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Aggregation window (µs). Detectors run at window boundaries.
    pub window_us: u64,
    /// EWMA weight for per-window rates.
    pub ewma_alpha: f64,
    /// Windows without a delivery before a previously-active gateway is
    /// declared silent (§4.2 watchdog).
    pub silence_windows: u64,
    /// Duplicate forwards/deliveries per window that constitute a storm.
    pub duplicate_storm_threshold: u64,
    /// Data receptions after which a node that never forwards or
    /// delivers is flagged (sinkhole / blackhole).
    pub asymmetry_min_rx_data: u64,
    /// Mesh-tier data receptions after which a backbone node that never
    /// re-transmits on the mesh nor delivers is flagged (WMG↔WMG
    /// asymmetry).
    pub backbone_min_rx_data: u64,
    /// Gap (µs) since the last reception beyond which a control
    /// broadcast counts as self-seeded rather than a re-flood.
    pub spontaneity_gap_us: u64,
    /// Self-seeded control floods before a node is flagged as an
    /// announcer (forged move / HELLO flood).
    pub announce_spike_floods: u64,
    /// Minimum deliveries in a window before imbalance is judged.
    pub imbalance_min_delivers: u64,
    /// Percentage of a window's deliveries one gateway may absorb.
    pub imbalance_max_pct: u64,
    /// Battery capacity (J) for the depletion forecast; `None` disables
    /// the detector (the trace does not carry capacities).
    pub battery_capacity_j: Option<f64>,
    /// Forecast horizon (µs): alert when the projected exhaustion time
    /// is this close.
    pub depletion_horizon_us: u64,
    /// Fraction of capacity that must already be consumed before the
    /// forecast may fire (suppresses early-trace noise).
    pub depletion_min_fraction: f64,
    /// How many recent frame sequence numbers to remember for
    /// rx-by-kind classification.
    pub seq_window: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window_us: 500_000,
            ewma_alpha: 0.3,
            silence_windows: 3,
            duplicate_storm_threshold: 3,
            asymmetry_min_rx_data: 3,
            backbone_min_rx_data: 3,
            spontaneity_gap_us: 50_000,
            announce_spike_floods: 3,
            imbalance_min_delivers: 20,
            imbalance_max_pct: 90,
            battery_capacity_j: None,
            depletion_horizon_us: 10_000_000,
            depletion_min_fraction: 0.5,
            seq_window: 4096,
        }
    }
}

/// Streaming monitor: aggregates the trace online and raises
/// [`HealthAlert`]s. Install with `World::set_trace_sink`, or feed
/// decoded JSONL through [`HealthMonitor::observe`] offline.
#[derive(Clone)]
pub struct HealthMonitor {
    pub(crate) cfg: HealthConfig,
    pub(crate) nodes: Vec<NodeStats>,
    pub(crate) gateways: BTreeMap<u64, GatewayStats>,
    pub(crate) net: NetStats,
    /// Frame kind/tier per recently announced `tx_start` sequence
    /// number, for classifying `rx` events. Keyed lookups only (a
    /// checkpoint that cannot derive it from the ring sorts it), so the
    /// `HashMap` stays deterministic. Sequence numbers are causal keys,
    /// NOT monotone in emission order — a CSMA retransmit can also
    /// re-announce the same seq, hence the occurrence count.
    pub(crate) seq_kinds: HashMap<u64, (TraceKind, TraceTier, u32)>,
    /// Eviction order for `seq_kinds`, bounding it to
    /// [`HealthConfig::seq_window`] recent announcements. Each entry
    /// carries the `(kind, tier)` of its seq's `seq_kinds` entry, so
    /// the ring alone is the table in announcement order: a checkpoint
    /// derives the sorted table from it without touching the map.
    pub(crate) seq_ring: VecDeque<RingEntry>,
    /// `(node, origin, msg_id)` triples already forwarded — membership
    /// only, never iterated, so a HashSet stays deterministic.
    pub(crate) forwarded: HashSet<(u64, u64, u64)>,
    /// `(origin, msg_id)` pairs already delivered.
    pub(crate) delivered: HashSet<(u64, u64)>,
    /// Per-node time of the latest RREQ origination (`rreq_flood` with
    /// `forwarded == false`), which licences the control broadcast
    /// emitted at the same instant.
    pub(crate) rreq_grace: Vec<u64>,
    pub(crate) cur_window: u64,
    pub(crate) alerts: Vec<HealthAlert>,
    /// Alerts already handed out via [`HealthMonitor::take_new_alerts`].
    pub(crate) drained: usize,
    /// `(kind, subject)` pairs already alerted (latch).
    pub(crate) latched: BTreeSet<(AlertKind, u64)>,
}

/// One announcement in [`HealthMonitor`]'s seq ring: the seq and the
/// `(kind, tier)` its `seq_kinds` entry held when it was pushed. Every
/// occurrence of a seq therefore agrees with the table, and the table's
/// occurrence count is the number of ring entries holding that seq.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RingEntry {
    pub(crate) seq: u64,
    pub(crate) kind: TraceKind,
    pub(crate) tier: TraceTier,
}

impl HealthMonitor {
    /// Monitor with default thresholds.
    pub fn new() -> Self {
        Self::with_config(HealthConfig::default())
    }

    /// Monitor with explicit thresholds.
    pub fn with_config(cfg: HealthConfig) -> Self {
        HealthMonitor {
            cfg,
            nodes: Vec::new(),
            gateways: BTreeMap::new(),
            net: NetStats::default(),
            seq_kinds: HashMap::new(),
            seq_ring: VecDeque::new(),
            forwarded: HashSet::new(),
            delivered: HashSet::new(),
            rreq_grace: Vec::new(),
            cur_window: 0,
            alerts: Vec::new(),
            drained: 0,
            latched: BTreeSet::new(),
        }
    }

    /// Boxed, for `World::set_trace_sink`.
    pub fn boxed(cfg: HealthConfig) -> Box<dyn TraceSink> {
        Box::new(Self::with_config(cfg))
    }

    /// The active configuration.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    fn node_mut(&mut self, id: u64) -> &mut NodeStats {
        let idx = id as usize;
        if idx >= self.nodes.len() {
            self.nodes.resize_with(idx + 1, NodeStats::default);
            self.rreq_grace.resize(idx + 1, u64::MAX);
        }
        &mut self.nodes[idx]
    }

    fn register_gateway(&mut self, id: u64) {
        self.gateways.entry(id).or_default();
    }

    /// Feed one event. [`TraceSink::record`] delegates here; offline
    /// replays call it directly with decoded events.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let t = ev.t();
        let w = t / self.cfg.window_us;
        if w > self.cur_window {
            let eval_t = (self.cur_window + 1) * self.cfg.window_us;
            self.run_detectors(eval_t);
            self.roll_windows();
            self.cur_window = w;
        }
        self.net.events += 1;
        match *ev {
            TraceEvent::TxStart {
                t,
                seq,
                src,
                dst,
                tier,
                kind,
                ..
            } => {
                let gateway = self.gateways.contains_key(&u64::from(src.0));
                let cfg_gap = self.cfg.spontaneity_gap_us;
                let seq_cap = self.cfg.seq_window;
                let cur = self.cur_window;
                let grace = self
                    .rreq_grace
                    .get(src.index())
                    .copied()
                    .unwrap_or(u64::MAX);
                let s = self.node_mut(u64::from(src.0));
                match kind {
                    TraceKind::Control => s.tx_control += 1,
                    TraceKind::Data => s.tx_data += 1,
                    TraceKind::Security => s.tx_security += 1,
                }
                s.w_tx_total += 1;
                let mesh_data = kind == TraceKind::Data && tier == TraceTier::Mesh;
                if mesh_data {
                    s.tx_mesh_data += 1;
                }
                if kind == TraceKind::Control {
                    s.w_tx_control += 1;
                    // A broadcast control frame with no recent reception
                    // and no same-instant RREQ origination was seeded,
                    // not relayed — the announcer fingerprint.
                    let recent_rx = s.last_rx_t.is_some_and(|r| t.saturating_sub(r) <= cfg_gap);
                    if dst.is_none() && !gateway && !recent_rx && grace != t {
                        s.spontaneous_ctrl += 1;
                    }
                }
                if mesh_data {
                    self.net.last_mesh_data_window = Some(cur);
                }
                self.net.tx_total += 1;
                let entry = self.seq_kinds.entry(seq).or_insert((kind, tier, 0));
                entry.2 += 1;
                self.seq_ring.push_back(RingEntry {
                    seq,
                    kind: entry.0,
                    tier: entry.1,
                });
                while self.seq_ring.len() > seq_cap {
                    let old = self.seq_ring.pop_front().expect("len > 0").seq;
                    if let Some(e) = self.seq_kinds.get_mut(&old) {
                        e.2 -= 1;
                        if e.2 == 0 {
                            self.seq_kinds.remove(&old);
                        }
                    }
                }
            }
            TraceEvent::TxDefer { .. } | TraceEvent::TxGiveUp { .. } => {}
            TraceEvent::Rx { t, seq, node } => {
                let data_tier = self
                    .seq_kinds
                    .get(&seq)
                    .and_then(|&(kind, tier, _)| (kind == TraceKind::Data).then_some(tier));
                let s = self.node_mut(u64::from(node.0));
                s.rx += 1;
                s.last_rx_t = Some(t);
                match data_tier {
                    Some(TraceTier::Sensor) => s.rx_data += 1,
                    Some(TraceTier::Mesh) => s.rx_mesh_data += 1,
                    None => {}
                }
                self.net.rx_total += 1;
            }
            TraceEvent::Drop { node, cause, .. } => {
                let i = drop_cause_index(cause);
                self.node_mut(u64::from(node.0)).drops[i] += 1;
                self.net.drops[i] += 1;
            }
            TraceEvent::Forward {
                node,
                origin,
                msg_id,
                ..
            } => {
                let key = (u64::from(node.0), u64::from(origin.0), msg_id);
                let dup = !self.forwarded.insert(key);
                let s = self.node_mut(u64::from(node.0));
                s.forwards += 1;
                if dup {
                    s.dup_forwards += 1;
                    s.w_dup_forwards += 1;
                    self.net.dup_forwards += 1;
                    self.net.w_duplicates += 1;
                }
                self.net.forwards += 1;
                self.net.w_forwards += 1;
                self.net.last_forward_window = Some(self.cur_window);
            }
            TraceEvent::Deliver {
                node,
                origin,
                msg_id,
                ..
            } => {
                let dup = !self.delivered.insert((u64::from(origin.0), msg_id));
                self.node_mut(u64::from(node.0)).delivers += 1;
                let w = self.cur_window;
                let g = self.gateways.entry(u64::from(node.0)).or_default();
                g.delivers += 1;
                g.w_delivers += 1;
                g.last_deliver_window = Some(w);
                g.silence_latched = false;
                g.base_silence_latched = false;
                self.net.delivers += 1;
                self.net.w_delivers += 1;
                if dup {
                    self.net.dup_delivers += 1;
                    self.net.w_duplicates += 1;
                }
            }
            TraceEvent::RreqFlood {
                t, node, forwarded, ..
            } => {
                self.node_mut(u64::from(node.0));
                if !forwarded {
                    self.rreq_grace[node.index()] = t;
                }
            }
            TraceEvent::CacheReply { gateway, .. } => {
                self.register_gateway(u64::from(gateway.0));
            }
            TraceEvent::RouteInstall { node, gateway, .. } => {
                self.register_gateway(u64::from(gateway.0));
                self.node_mut(u64::from(node.0)).route_installs += 1;
                self.net.route_installs += 1;
                if let Some(g) = self.gateways.get_mut(&u64::from(gateway.0)) {
                    g.routes_installed += 1;
                }
            }
            TraceEvent::RouteSelect { gateway, .. } => {
                self.register_gateway(u64::from(gateway.0));
            }
            TraceEvent::GatewayMove { gateway, .. } => {
                self.register_gateway(u64::from(gateway.0));
                if let Some(g) = self.gateways.get_mut(&u64::from(gateway.0)) {
                    g.moves += 1;
                }
            }
            TraceEvent::NodeMove { .. }
            | TraceEvent::NodeSleep { .. }
            | TraceEvent::NodeWake { .. }
            | TraceEvent::NodeKill { .. } => {}
            TraceEvent::Energy {
                t,
                node,
                consumed_j,
            } => {
                let s = self.node_mut(u64::from(node.0));
                if s.energy_anchor.is_none() {
                    s.energy_anchor = Some((t, consumed_j));
                }
                s.last_energy_t = t;
                s.consumed_j = consumed_j;
            }
        }
    }

    /// Run the detector bank against the state accumulated so far, as
    /// of `eval_t`. Called automatically at window boundaries and on
    /// flush; latches make repeated evaluation idempotent.
    fn run_detectors(&mut self, eval_t: u64) {
        self.detect_gateway_silence(eval_t);
        self.detect_duplicate_storm(eval_t);
        self.detect_forward_asymmetry(eval_t);
        self.detect_announce_spike(eval_t);
        self.detect_load_imbalance(eval_t);
        self.detect_energy_depletion(eval_t);
        self.detect_backbone_asymmetry(eval_t);
        self.detect_base_silence(eval_t);
    }

    fn raise(&mut self, kind: AlertKind, t: u64, subject: u64, observed: u64, threshold: u64) {
        if self.latched.insert((kind, subject)) {
            self.alerts.push(HealthAlert {
                kind,
                t,
                subject,
                observed,
                threshold,
            });
        }
    }

    fn detect_gateway_silence(&mut self, eval_t: u64) {
        let cur = self.cur_window;
        let threshold = self.cfg.silence_windows;
        let forwarding = self.net.last_forward_window;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (&id, g) in &self.gateways {
            if g.silence_latched || g.delivers == 0 {
                continue;
            }
            let Some(last) = g.last_deliver_window else {
                continue;
            };
            let silent = cur.saturating_sub(last);
            // The network must have kept forwarding after the gateway's
            // last delivery — a globally idle network is not a failure.
            let network_active = forwarding.is_some_and(|f| f > last);
            if silent >= threshold && network_active {
                hits.push((id, silent));
            }
        }
        for (id, silent) in hits {
            if let Some(g) = self.gateways.get_mut(&id) {
                g.silence_latched = true;
            }
            // Silence is latched per incident on the gateway itself (a
            // delivery re-arms it), not in the global latch set.
            self.alerts.push(HealthAlert {
                kind: AlertKind::GatewaySilence,
                t: eval_t,
                subject: id,
                observed: silent,
                threshold,
            });
        }
    }

    fn detect_duplicate_storm(&mut self, eval_t: u64) {
        let threshold = self.cfg.duplicate_storm_threshold;
        if self.net.w_duplicates < threshold {
            return;
        }
        // Accuse the busiest duplicating forwarder this window (lowest
        // id on ties); id 0 stands for "network" when duplicates came
        // only from repeat deliveries.
        let mut subject = 0u64;
        let mut best = 0u64;
        for (i, s) in self.nodes.iter().enumerate() {
            if s.w_dup_forwards > best {
                best = s.w_dup_forwards;
                subject = i as u64;
            }
        }
        let observed = self.net.w_duplicates;
        self.raise(
            AlertKind::DuplicateStorm,
            eval_t,
            subject,
            observed,
            threshold,
        );
    }

    fn detect_forward_asymmetry(&mut self, eval_t: u64) {
        let threshold = self.cfg.asymmetry_min_rx_data;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.nodes.iter().enumerate() {
            let id = i as u64;
            if self.gateways.contains_key(&id) {
                continue;
            }
            if s.rx_data >= threshold && s.forwards == 0 && s.delivers == 0 {
                hits.push((id, s.rx_data));
            }
        }
        for (id, rx_data) in hits {
            self.raise(AlertKind::ForwardAsymmetry, eval_t, id, rx_data, threshold);
        }
    }

    fn detect_announce_spike(&mut self, eval_t: u64) {
        let threshold = self.cfg.announce_spike_floods;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.nodes.iter().enumerate() {
            let id = i as u64;
            if self.gateways.contains_key(&id) {
                continue;
            }
            if s.spontaneous_ctrl >= threshold {
                hits.push((id, s.spontaneous_ctrl));
            }
        }
        for (id, floods) in hits {
            self.raise(AlertKind::AnnounceSpike, eval_t, id, floods, threshold);
        }
    }

    fn detect_load_imbalance(&mut self, eval_t: u64) {
        if self.gateways.len() < 2 || self.net.w_delivers < self.cfg.imbalance_min_delivers {
            return;
        }
        let (mut top, mut top_delivers) = (0u64, 0u64);
        for (&id, g) in &self.gateways {
            if g.w_delivers > top_delivers {
                top_delivers = g.w_delivers;
                top = id;
            }
        }
        let pct = top_delivers * 100 / self.net.w_delivers;
        if pct >= self.cfg.imbalance_max_pct {
            self.raise(
                AlertKind::LoadImbalance,
                eval_t,
                top,
                pct,
                self.cfg.imbalance_max_pct,
            );
        }
    }

    fn detect_energy_depletion(&mut self, eval_t: u64) {
        let Some(cap) = self.cfg.battery_capacity_j else {
            return;
        };
        let min_consumed = cap * self.cfg.depletion_min_fraction;
        let horizon = self.cfg.depletion_horizon_us;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.nodes.iter().enumerate() {
            if s.consumed_j < min_consumed {
                continue;
            }
            let Some(eta) = s.depletion_eta_us(cap, eval_t) else {
                continue;
            };
            if eta.saturating_sub(eval_t) <= horizon {
                hits.push((i as u64, eta));
            }
        }
        for (id, eta) in hits {
            self.raise(
                AlertKind::EnergyDepletion,
                eval_t,
                id,
                eta,
                eval_t.saturating_add(horizon),
            );
        }
    }

    fn detect_backbone_asymmetry(&mut self, eval_t: u64) {
        let threshold = self.cfg.backbone_min_rx_data;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (i, s) in self.nodes.iter().enumerate() {
            // A healthy backbone node either relays mesh data onward
            // (WMR/WMG) or delivers it (base station); absorbing it
            // while doing neither is the WMG↔WMG sinkhole signature.
            if s.rx_mesh_data >= threshold && s.tx_mesh_data == 0 && s.delivers == 0 {
                hits.push((i as u64, s.rx_mesh_data));
            }
        }
        for (id, rx) in hits {
            self.raise(AlertKind::BackboneAsymmetry, eval_t, id, rx, threshold);
        }
    }

    fn detect_base_silence(&mut self, eval_t: u64) {
        let cur = self.cur_window;
        let threshold = self.cfg.silence_windows;
        let mesh_active = self.net.last_mesh_data_window;
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (&id, g) in &self.gateways {
            if g.base_silence_latched || g.delivers == 0 {
                continue;
            }
            // Only mesh-fed deliverers qualify: the base station is the
            // node that absorbs mesh-tier data and delivers it. WMGs
            // deliver sensor-tier data and never match.
            let mesh_fed = self
                .nodes
                .get(id as usize)
                .is_some_and(|s| s.rx_mesh_data > 0);
            if !mesh_fed {
                continue;
            }
            let Some(last) = g.last_deliver_window else {
                continue;
            };
            let silent = cur.saturating_sub(last);
            // The backbone must have kept carrying data after the last
            // delivery — an idle mesh is not a base failure.
            let backbone_active = mesh_active.is_some_and(|m| m > last);
            if silent >= threshold && backbone_active {
                hits.push((id, silent));
            }
        }
        for (id, silent) in hits {
            if let Some(g) = self.gateways.get_mut(&id) {
                g.base_silence_latched = true;
            }
            // Like gateway_silence: latched per incident on the node (a
            // delivery re-arms it), not in the global latch set.
            self.alerts.push(HealthAlert {
                kind: AlertKind::BaseSilence,
                t: eval_t,
                subject: id,
                observed: silent,
                threshold,
            });
        }
    }

    fn roll_windows(&mut self) {
        let alpha = self.cfg.ewma_alpha;
        for s in &mut self.nodes {
            s.roll_window(alpha);
        }
        for g in self.gateways.values_mut() {
            g.roll_window(alpha);
        }
        self.net.roll_window();
    }

    /// Evaluate the detectors against the current (possibly partial)
    /// window without resetting it. Called by [`TraceSink::flush`];
    /// call it after the last [`HealthMonitor::observe`] offline.
    pub fn finalize(&mut self) {
        let eval_t = (self.cur_window + 1) * self.cfg.window_us;
        self.run_detectors(eval_t);
    }

    /// All alerts raised so far, in raise order.
    pub fn alerts(&self) -> &[HealthAlert] {
        &self.alerts
    }

    /// Alerts raised since the previous call — the policy-loop drain.
    pub fn take_new_alerts(&mut self) -> Vec<HealthAlert> {
        let new = self.alerts[self.drained..].to_vec();
        self.drained = self.alerts.len();
        new
    }

    /// The alert stream as byte-deterministic JSONL.
    pub fn alerts_jsonl(&self) -> String {
        crate::alert::alerts_to_jsonl(&self.alerts)
    }

    /// Per-node statistics, indexed by node id (dense; nodes the trace
    /// never mentioned have default entries up to the highest seen id).
    pub fn nodes(&self) -> &[NodeStats] {
        &self.nodes
    }

    /// One node's statistics, if the trace mentioned it.
    pub fn node(&self, id: u64) -> Option<&NodeStats> {
        self.nodes.get(id as usize)
    }

    /// Per-gateway statistics (gateways are learned from the trace).
    pub fn gateways(&self) -> &BTreeMap<u64, GatewayStats> {
        &self.gateways
    }

    /// Network-wide counters.
    pub fn net(&self) -> &NetStats {
        &self.net
    }

    /// Network-wide drops of one cause — the counter the exhaustiveness
    /// test pins against `Metrics`.
    pub fn drops_of_cause(&self, cause: DropCause) -> u64 {
        self.net.drops[drop_cause_index(cause)]
    }

    /// Network-wide drops across all causes.
    pub fn drops_total(&self) -> u64 {
        (0..DROP_CAUSE_COUNT).map(|i| self.net.drops[i]).sum()
    }
}

impl Default for HealthMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for HealthMonitor {
    fn record(&mut self, ev: &TraceEvent) {
        self.observe(ev);
    }

    fn flush(&mut self) {
        self.finalize();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsn_util::NodeId;

    fn forward(t: u64, node: u32, msg_id: u64) -> TraceEvent {
        TraceEvent::Forward {
            t,
            node: NodeId(node),
            origin: NodeId(1),
            msg_id,
            next: Some(NodeId(9)),
            hops: 2,
        }
    }

    fn deliver(t: u64, gw: u32, msg_id: u64) -> TraceEvent {
        TraceEvent::Deliver {
            t,
            node: NodeId(gw),
            origin: NodeId(1),
            msg_id,
            hops: 2,
            latency_us: 10,
        }
    }

    #[test]
    fn duplicate_storm_fires_on_replayed_forwards() {
        let mut m = HealthMonitor::new();
        // The same (node, origin, msg) forwarded four times in window 0.
        for i in 0..4 {
            m.observe(&forward(1_000 + i, 2, 7));
        }
        m.observe(&forward(600_000, 3, 8)); // window rollover triggers detectors
        let kinds: Vec<_> = m.alerts().iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::DuplicateStorm]);
        assert_eq!(m.alerts()[0].subject, 2);
        assert_eq!(m.alerts()[0].t, 500_000);
    }

    #[test]
    fn gateway_silence_needs_continued_forwarding() {
        let mut m = HealthMonitor::new();
        m.observe(&deliver(100, 9, 1));
        // Four windows of forwarding with no deliveries → silence.
        for w in 1..5u64 {
            m.observe(&forward(w * 500_000 + 1, 2, 100 + w));
        }
        m.observe(&forward(5 * 500_000 + 1, 2, 200));
        let silence: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::GatewaySilence)
            .collect();
        assert_eq!(silence.len(), 1);
        assert_eq!(silence[0].subject, 9);
        // A new delivery re-arms the latch.
        m.observe(&deliver(5 * 500_000 + 2, 9, 201));
        assert!(!m.gateways()[&9].silence_latched);
    }

    #[test]
    fn idle_network_is_not_gateway_silence() {
        let mut m = HealthMonitor::new();
        m.observe(&deliver(100, 9, 1));
        // Windows pass with no traffic at all: no alert.
        m.observe(&TraceEvent::Energy {
            t: 4_000_000,
            node: NodeId(1),
            consumed_j: 0.1,
        });
        m.finalize();
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn forward_asymmetry_flags_a_swallowing_node() {
        let mut m = HealthMonitor::new();
        for i in 0..4u64 {
            m.observe(&TraceEvent::TxStart {
                t: 1_000 + i,
                seq: i,
                src: NodeId(1),
                dst: Some(NodeId(5)),
                tier: wmsn_trace::TraceTier::Sensor,
                kind: TraceKind::Data,
                bytes: 32,
            });
            m.observe(&TraceEvent::Rx {
                t: 2_000 + i,
                seq: i,
                node: NodeId(5),
            });
        }
        m.finalize();
        let kinds: Vec<_> = m.alerts().iter().map(|a| (a.kind, a.subject)).collect();
        assert_eq!(kinds, vec![(AlertKind::ForwardAsymmetry, 5)]);
        // Latched: finalizing again does not duplicate the alert.
        m.finalize();
        assert_eq!(m.alerts().len(), 1);
    }

    #[test]
    fn announce_spike_ignores_gateways_and_refloods() {
        let mut m = HealthMonitor::new();
        m.observe(&TraceEvent::GatewayMove {
            t: 0,
            gateway: NodeId(9),
            place: 0,
        });
        let ctrl = |t: u64, src: u32, seq: u64| TraceEvent::TxStart {
            t,
            seq,
            src: NodeId(src),
            dst: None,
            tier: wmsn_trace::TraceTier::Sensor,
            kind: TraceKind::Control,
            bytes: 16,
        };
        // The gateway floods freely; node 4 seeds three unprompted
        // floods 300 ms apart; node 2 re-floods right after receptions.
        for k in 0..3u64 {
            let t = 300_000 * (k + 1);
            m.observe(&ctrl(t, 9, 10 + k));
            m.observe(&ctrl(t + 1, 4, 20 + k));
            m.observe(&TraceEvent::Rx {
                t: t + 2,
                seq: 20 + k,
                node: NodeId(2),
            });
            m.observe(&ctrl(t + 2_000, 2, 30 + k));
        }
        m.finalize();
        let kinds: Vec<_> = m.alerts().iter().map(|a| (a.kind, a.subject)).collect();
        assert_eq!(kinds, vec![(AlertKind::AnnounceSpike, 4)]);
    }

    #[test]
    fn rreq_origination_is_not_spontaneous() {
        let mut m = HealthMonitor::new();
        for k in 0..5u64 {
            let t = 200_000 * (k + 1);
            m.observe(&TraceEvent::RreqFlood {
                t,
                node: NodeId(3),
                origin: NodeId(3),
                req_id: k,
                forwarded: false,
            });
            m.observe(&TraceEvent::TxStart {
                t,
                seq: k,
                src: NodeId(3),
                dst: None,
                tier: wmsn_trace::TraceTier::Sensor,
                kind: TraceKind::Control,
                bytes: 16,
            });
        }
        m.finalize();
        assert!(m.alerts().is_empty());
        assert_eq!(m.node(3).unwrap().spontaneous_ctrl, 0);
    }

    #[test]
    fn load_imbalance_fires_on_a_hogging_gateway() {
        let mut m = HealthMonitor::new();
        m.observe(&deliver(1, 8, 1_000));
        for i in 0..24u64 {
            m.observe(&deliver(10 + i, 9, i));
        }
        m.finalize();
        let hits: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::LoadImbalance)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, 9);
        assert_eq!(hits[0].observed, 24 * 100 / 25);
    }

    #[test]
    fn energy_depletion_forecasts_first_death() {
        let mut m = HealthMonitor::with_config(HealthConfig {
            battery_capacity_j: Some(2.0),
            ..HealthConfig::default()
        });
        m.observe(&TraceEvent::Energy {
            t: 0,
            node: NodeId(1),
            consumed_j: 0.0,
        });
        // 1.5 J gone after 1 s → dead in another ~0.33 s — well inside
        // the 10 s horizon.
        m.observe(&TraceEvent::Energy {
            t: 1_000_000,
            node: NodeId(1),
            consumed_j: 1.5,
        });
        m.finalize();
        let kinds: Vec<_> = m.alerts().iter().map(|a| (a.kind, a.subject)).collect();
        assert_eq!(kinds, vec![(AlertKind::EnergyDepletion, 1)]);
    }

    #[test]
    fn rx_kind_classification_uses_the_seq_ring() {
        let mut m = HealthMonitor::new();
        m.observe(&TraceEvent::TxStart {
            t: 1,
            seq: 5,
            src: NodeId(0),
            dst: None,
            tier: wmsn_trace::TraceTier::Sensor,
            kind: TraceKind::Control,
            bytes: 16,
        });
        m.observe(&TraceEvent::Rx {
            t: 2,
            seq: 5,
            node: NodeId(1),
        });
        assert_eq!(m.node(1).unwrap().rx, 1);
        assert_eq!(m.node(1).unwrap().rx_data, 0);
    }

    fn mesh_tx(t: u64, seq: u64, src: u32) -> TraceEvent {
        TraceEvent::TxStart {
            t,
            seq,
            src: NodeId(src),
            dst: Some(NodeId(99)),
            tier: wmsn_trace::TraceTier::Mesh,
            kind: TraceKind::Data,
            bytes: 64,
        }
    }

    #[test]
    fn backbone_asymmetry_flags_a_mesh_sinkhole() {
        let mut m = HealthMonitor::new();
        // Node 5 absorbs four mesh-tier data frames from node 1 and
        // never re-transmits on the mesh nor delivers; node 6 relays
        // what it hears and stays clean.
        for i in 0..4u64 {
            m.observe(&mesh_tx(1_000 + i, i, 1));
            m.observe(&TraceEvent::Rx {
                t: 2_000 + i,
                seq: i,
                node: NodeId(5),
            });
            m.observe(&TraceEvent::Rx {
                t: 2_100 + i,
                seq: i,
                node: NodeId(6),
            });
            m.observe(&mesh_tx(2_200 + i, 100 + i, 6));
        }
        m.finalize();
        let kinds: Vec<_> = m.alerts().iter().map(|a| (a.kind, a.subject)).collect();
        assert_eq!(kinds, vec![(AlertKind::BackboneAsymmetry, 5)]);
        assert_eq!(m.node(5).unwrap().rx_mesh_data, 4);
        assert_eq!(
            m.node(5).unwrap().rx_data,
            0,
            "mesh data is not sensor data"
        );
        // Latched.
        m.finalize();
        assert_eq!(m.alerts().len(), 1);
    }

    #[test]
    fn base_silence_needs_a_flowing_backbone() {
        let mut m = HealthMonitor::new();
        // Node 9 is the base: it absorbs mesh data and delivers.
        m.observe(&mesh_tx(50, 1, 2));
        m.observe(&TraceEvent::Rx {
            t: 60,
            seq: 1,
            node: NodeId(9),
        });
        m.observe(&deliver(100, 9, 1));
        // Four windows of continued mesh transmissions, no deliveries.
        for w in 1..5u64 {
            m.observe(&mesh_tx(w * 500_000 + 1, 10 + w, 2));
        }
        m.observe(&mesh_tx(5 * 500_000 + 1, 20, 2));
        let hits: Vec<_> = m
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::BaseSilence)
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].subject, 9);
        // A delivery re-arms the latch.
        m.observe(&deliver(5 * 500_000 + 2, 9, 21));
        assert!(!m.gateways()[&9].base_silence_latched);
    }

    #[test]
    fn base_silence_ignores_sensor_fed_gateways_and_idle_meshes() {
        // A sensor-fed gateway (WMG) that stops delivering raises
        // gateway_silence at most, never base_silence.
        let mut m = HealthMonitor::new();
        m.observe(&deliver(100, 7, 1));
        for w in 1..6u64 {
            m.observe(&forward(w * 500_000 + 1, 2, 100 + w));
        }
        m.finalize();
        assert!(m.alerts().iter().all(|a| a.kind != AlertKind::BaseSilence));
        // A mesh-fed base on an idle backbone is not a failure either.
        let mut m = HealthMonitor::new();
        m.observe(&mesh_tx(50, 1, 2));
        m.observe(&TraceEvent::Rx {
            t: 60,
            seq: 1,
            node: NodeId(9),
        });
        m.observe(&deliver(100, 9, 1));
        m.observe(&TraceEvent::Energy {
            t: 4_000_000,
            node: NodeId(1),
            consumed_j: 0.1,
        });
        m.finalize();
        assert!(m.alerts().iter().all(|a| a.kind != AlertKind::BaseSilence));
    }

    #[test]
    fn take_new_alerts_drains_incrementally() {
        let mut m = HealthMonitor::new();
        for i in 0..4 {
            m.observe(&forward(1_000 + i, 2, 7));
        }
        m.finalize();
        assert_eq!(m.take_new_alerts().len(), 1);
        assert!(m.take_new_alerts().is_empty());
    }
}
