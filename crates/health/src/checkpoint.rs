//! Binary checkpoint codec for [`HealthMonitor`] state.
//!
//! A checkpoint is a full serialisation of the monitor's detector
//! state — EWMA baselines, window accumulators, latched detectors,
//! the seq-kind classification ring, dedup sets and per-entity
//! tables — taken at a capture segment boundary. Restoring one and
//! replaying the remaining segments produces *byte-identical* alert
//! streams to a replay from t=0 (modulo alerts raised before the
//! checkpoint, which a windowed query filters out anyway; their
//! latches ARE carried, so nothing re-fires).
//!
//! The encoding is little-endian and versioned by an 8-byte magic.
//! `HashMap`/`HashSet` contents are written in sorted key order and
//! the `VecDeque` ring in its queue order, so the same monitor state
//! always serialises to the same bytes. Floats travel via
//! [`f64::to_bits`] — bit-exact, like the trace frame codec.
//!
//! The blob is opaque to `wmsn-trace`: the capture layer stores
//! `(seg_index, bytes)` pairs; only this module interprets them.

use crate::alert::AlertKind;
use crate::monitor::{HealthConfig, HealthMonitor};
use crate::stats::{Ewma, GatewayStats, NetStats, NodeStats, DROP_CAUSE_COUNT};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use wmsn_trace::{TraceKind, TraceTier};
use wmsn_util::codec::{DecodeError, Reader};

/// Magic bytes opening every checkpoint blob (versioned: a layout
/// change bumps the trailing digit).
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"WMSNHCK1";

// ------------------------------------------------------------ encode --

struct Enc {
    out: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.out.push(v);
    }
    fn boolean(&mut self, v: bool) {
        self.out.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.out.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.boolean(true);
                self.u64(x);
            }
            None => self.boolean(false),
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.boolean(true);
                self.f64(x);
            }
            None => self.boolean(false),
        }
    }
    fn ewma(&mut self, e: &Ewma) {
        let (value, seeded) = e.raw_parts();
        self.f64(value);
        self.boolean(seeded);
    }
}

fn alert_kind_tag(k: AlertKind) -> u8 {
    AlertKind::all()
        .iter()
        .position(|&x| x == k)
        .expect("all() is exhaustive") as u8
}

fn alert_kind_of_tag(tag: u8) -> Result<AlertKind, DecodeError> {
    AlertKind::all()
        .get(tag as usize)
        .copied()
        .ok_or(DecodeError::BadTag(tag))
}

fn enc_config(e: &mut Enc, c: &HealthConfig) {
    e.u64(c.window_us);
    e.f64(c.ewma_alpha);
    e.u64(c.silence_windows);
    e.u64(c.duplicate_storm_threshold);
    e.u64(c.asymmetry_min_rx_data);
    e.u64(c.backbone_min_rx_data);
    e.u64(c.spontaneity_gap_us);
    e.u64(c.announce_spike_floods);
    e.u64(c.imbalance_min_delivers);
    e.u64(c.imbalance_max_pct);
    e.opt_f64(c.battery_capacity_j);
    e.u64(c.depletion_horizon_us);
    e.f64(c.depletion_min_fraction);
    e.u64(c.seq_window as u64);
}

fn enc_node(e: &mut Enc, s: &NodeStats) {
    e.u64(s.tx_control);
    e.u64(s.tx_data);
    e.u64(s.tx_security);
    e.u64(s.rx);
    e.u64(s.rx_data);
    e.u64(s.rx_mesh_data);
    e.u64(s.tx_mesh_data);
    for d in s.drops {
        e.u64(d);
    }
    e.u64(s.forwards);
    e.u64(s.dup_forwards);
    e.u64(s.delivers);
    e.u64(s.route_installs);
    e.u64(s.spontaneous_ctrl);
    e.opt_u64(s.last_rx_t);
    e.f64(s.consumed_j);
    match s.energy_anchor {
        Some((t, j)) => {
            e.boolean(true);
            e.u64(t);
            e.f64(j);
        }
        None => e.boolean(false),
    }
    e.u64(s.last_energy_t);
    e.ewma(&s.tx_rate);
    e.u64(s.w_tx_control);
    e.u64(s.w_tx_total);
    e.u64(s.w_dup_forwards);
}

fn enc_gateway(e: &mut Enc, g: &GatewayStats) {
    e.u64(g.delivers);
    e.u64(g.w_delivers);
    e.opt_u64(g.last_deliver_window);
    e.u64(g.moves);
    e.u64(g.routes_installed);
    e.ewma(&g.deliver_rate);
    e.boolean(g.silence_latched);
    e.boolean(g.base_silence_latched);
}

fn enc_net(e: &mut Enc, n: &NetStats) {
    e.u64(n.events);
    e.u64(n.tx_total);
    e.u64(n.rx_total);
    for d in n.drops {
        e.u64(d);
    }
    e.u64(n.forwards);
    e.u64(n.dup_forwards);
    e.u64(n.delivers);
    e.u64(n.dup_delivers);
    e.u64(n.route_installs);
    e.opt_u64(n.last_forward_window);
    e.opt_u64(n.last_mesh_data_window);
    e.u64(n.w_forwards);
    e.u64(n.w_duplicates);
    e.u64(n.w_delivers);
}

/// Serialise the monitor's full detector state. Alerts already raised
/// (and the drain cursor) are deliberately excluded: a restored
/// monitor reports only alerts raised *after* the checkpoint, while
/// the carried latch sets keep it from re-raising earlier ones.
pub fn snapshot(m: &HealthMonitor) -> Vec<u8> {
    let mut e = Enc { out: Vec::new() };
    e.out.extend_from_slice(&CHECKPOINT_MAGIC);
    enc_config(&mut e, &m.cfg);
    e.u64(m.cur_window);
    e.u64(m.nodes.len() as u64);
    for s in &m.nodes {
        enc_node(&mut e, s);
    }
    e.u64(m.gateways.len() as u64);
    for (&id, g) in &m.gateways {
        e.u64(id);
        enc_gateway(&mut e, g);
    }
    enc_net(&mut e, &m.net);
    e.u64(m.seq_ring.len() as u64);
    for &seq in &m.seq_ring {
        e.u64(seq);
    }
    // HashMap/HashSet iteration order is unstable; sort for a
    // deterministic byte stream.
    let mut seqs: Vec<(u64, TraceKind, TraceTier, u32)> = m
        .seq_kinds
        .iter()
        .map(|(&s, &(k, t, n))| (s, k, t, n))
        .collect();
    seqs.sort_unstable_by_key(|&(s, ..)| s);
    e.u64(seqs.len() as u64);
    for (seq, kind, tier, count) in seqs {
        e.u64(seq);
        e.u8(kind.byte());
        e.u8(tier.byte());
        e.u32(count);
    }
    let mut fwd: Vec<(u64, u64, u64)> = m.forwarded.iter().copied().collect();
    fwd.sort_unstable();
    e.u64(fwd.len() as u64);
    for (a, b, c) in fwd {
        e.u64(a);
        e.u64(b);
        e.u64(c);
    }
    let mut dlv: Vec<(u64, u64)> = m.delivered.iter().copied().collect();
    dlv.sort_unstable();
    e.u64(dlv.len() as u64);
    for (a, b) in dlv {
        e.u64(a);
        e.u64(b);
    }
    e.u64(m.rreq_grace.len() as u64);
    for &g in &m.rreq_grace {
        e.u64(g);
    }
    e.u64(m.latched.len() as u64);
    for &(kind, subject) in &m.latched {
        e.u8(alert_kind_tag(kind));
        e.u64(subject);
    }
    e.out
}

// ------------------------------------------------------------ decode --

/// The checkpoint's field kinds on top of [`Reader`]'s integers.
trait CheckpointRead {
    fn boolean(&mut self) -> Result<bool, DecodeError>;
    fn f64(&mut self) -> Result<f64, DecodeError>;
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError>;
    fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError>;
    fn ewma(&mut self) -> Result<Ewma, DecodeError>;
    fn length(&mut self) -> Result<usize, DecodeError>;
    fn trace_enum<E>(&mut self, from_byte: fn(u8) -> Option<E>) -> Result<E, DecodeError>;
}

impl CheckpointRead for Reader<'_> {
    fn boolean(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::BadTag(v)),
        }
    }
    fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, DecodeError> {
        Ok(if self.boolean()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        Ok(if self.boolean()? {
            Some(self.f64()?)
        } else {
            None
        })
    }
    fn ewma(&mut self) -> Result<Ewma, DecodeError> {
        let value = self.f64()?;
        let seeded = self.boolean()?;
        Ok(Ewma::from_parts(value, seeded))
    }
    /// A collection length. It can never exceed the remaining bytes
    /// (every element is ≥ 1 byte), so reject it early instead of
    /// making a huge allocation.
    fn length(&mut self) -> Result<usize, DecodeError> {
        let n = usize::try_from(self.u64()?).unwrap_or(usize::MAX);
        if n > self.remaining() {
            return Err(DecodeError::LengthOutOfRange(n));
        }
        Ok(n)
    }
    /// A trace enum's wire byte back to the enum.
    fn trace_enum<E>(&mut self, from_byte: fn(u8) -> Option<E>) -> Result<E, DecodeError> {
        let b = self.u8()?;
        from_byte(b).ok_or(DecodeError::BadTag(b))
    }
}

fn dec_config(d: &mut Reader) -> Result<HealthConfig, DecodeError> {
    Ok(HealthConfig {
        window_us: d.u64()?,
        ewma_alpha: d.f64()?,
        silence_windows: d.u64()?,
        duplicate_storm_threshold: d.u64()?,
        asymmetry_min_rx_data: d.u64()?,
        backbone_min_rx_data: d.u64()?,
        spontaneity_gap_us: d.u64()?,
        announce_spike_floods: d.u64()?,
        imbalance_min_delivers: d.u64()?,
        imbalance_max_pct: d.u64()?,
        battery_capacity_j: d.opt_f64()?,
        depletion_horizon_us: d.u64()?,
        depletion_min_fraction: d.f64()?,
        seq_window: d.u64()? as usize,
    })
}

fn dec_node(d: &mut Reader) -> Result<NodeStats, DecodeError> {
    let mut s = NodeStats {
        tx_control: d.u64()?,
        tx_data: d.u64()?,
        tx_security: d.u64()?,
        rx: d.u64()?,
        rx_data: d.u64()?,
        rx_mesh_data: d.u64()?,
        tx_mesh_data: d.u64()?,
        ..NodeStats::default()
    };
    for i in 0..DROP_CAUSE_COUNT {
        s.drops[i] = d.u64()?;
    }
    s.forwards = d.u64()?;
    s.dup_forwards = d.u64()?;
    s.delivers = d.u64()?;
    s.route_installs = d.u64()?;
    s.spontaneous_ctrl = d.u64()?;
    s.last_rx_t = d.opt_u64()?;
    s.consumed_j = d.f64()?;
    s.energy_anchor = if d.boolean()? {
        Some((d.u64()?, d.f64()?))
    } else {
        None
    };
    s.last_energy_t = d.u64()?;
    s.tx_rate = d.ewma()?;
    s.w_tx_control = d.u64()?;
    s.w_tx_total = d.u64()?;
    s.w_dup_forwards = d.u64()?;
    Ok(s)
}

fn dec_gateway(d: &mut Reader) -> Result<GatewayStats, DecodeError> {
    Ok(GatewayStats {
        delivers: d.u64()?,
        w_delivers: d.u64()?,
        last_deliver_window: d.opt_u64()?,
        moves: d.u64()?,
        routes_installed: d.u64()?,
        deliver_rate: d.ewma()?,
        silence_latched: d.boolean()?,
        base_silence_latched: d.boolean()?,
    })
}

fn dec_net(d: &mut Reader) -> Result<NetStats, DecodeError> {
    let mut n = NetStats {
        events: d.u64()?,
        tx_total: d.u64()?,
        rx_total: d.u64()?,
        ..NetStats::default()
    };
    for i in 0..DROP_CAUSE_COUNT {
        n.drops[i] = d.u64()?;
    }
    n.forwards = d.u64()?;
    n.dup_forwards = d.u64()?;
    n.delivers = d.u64()?;
    n.dup_delivers = d.u64()?;
    n.route_installs = d.u64()?;
    n.last_forward_window = d.opt_u64()?;
    n.last_mesh_data_window = d.opt_u64()?;
    n.w_forwards = d.u64()?;
    n.w_duplicates = d.u64()?;
    n.w_delivers = d.u64()?;
    Ok(n)
}

/// Rebuild a monitor from [`snapshot`] bytes. The restored monitor
/// continues exactly where the snapshot was taken: feeding it the
/// same subsequent events produces the same subsequent alerts the
/// original would have raised.
pub fn restore(bytes: &[u8]) -> Result<HealthMonitor, String> {
    let mut d = Reader::new(bytes);
    let magic = d.raw(CHECKPOINT_MAGIC.len());
    if magic.is_ok_and(|m| m != CHECKPOINT_MAGIC) {
        return Err("checkpoint: bad magic".into());
    }
    magic
        .and_then(|_| dec_monitor(&mut d))
        .map_err(|e| format!("checkpoint: {e} at byte {}", bytes.len() - d.remaining()))
}

/// Decode the state after the magic; the state must end the blob.
fn dec_monitor(d: &mut Reader) -> Result<HealthMonitor, DecodeError> {
    let cfg = dec_config(d)?;
    let cur_window = d.u64()?;
    let n_nodes = d.length()?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        nodes.push(dec_node(d)?);
    }
    let n_gw = d.length()?;
    let mut gateways = BTreeMap::new();
    for _ in 0..n_gw {
        let id = d.u64()?;
        gateways.insert(id, dec_gateway(d)?);
    }
    let net = dec_net(d)?;
    let n_ring = d.length()?;
    let mut seq_ring = VecDeque::with_capacity(n_ring);
    for _ in 0..n_ring {
        seq_ring.push_back(d.u64()?);
    }
    let n_seqs = d.length()?;
    let mut seq_kinds = HashMap::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let seq = d.u64()?;
        let kind = d.trace_enum(TraceKind::from_byte)?;
        let tier = d.trace_enum(TraceTier::from_byte)?;
        let count = d.u32()?;
        seq_kinds.insert(seq, (kind, tier, count));
    }
    let n_fwd = d.length()?;
    let mut forwarded = HashSet::with_capacity(n_fwd);
    for _ in 0..n_fwd {
        forwarded.insert((d.u64()?, d.u64()?, d.u64()?));
    }
    let n_dlv = d.length()?;
    let mut delivered = HashSet::with_capacity(n_dlv);
    for _ in 0..n_dlv {
        delivered.insert((d.u64()?, d.u64()?));
    }
    let n_grace = d.length()?;
    let mut rreq_grace = Vec::with_capacity(n_grace);
    for _ in 0..n_grace {
        rreq_grace.push(d.u64()?);
    }
    let n_latched = d.length()?;
    let mut latched = BTreeSet::new();
    for _ in 0..n_latched {
        let kind = alert_kind_of_tag(d.u8()?)?;
        latched.insert((kind, d.u64()?));
    }
    if d.remaining() != 0 {
        return Err(DecodeError::TrailingBytes(d.remaining()));
    }
    Ok(HealthMonitor {
        cfg,
        nodes,
        gateways,
        net,
        seq_kinds,
        seq_ring,
        forwarded,
        delivered,
        rreq_grace,
        cur_window,
        alerts: Vec::new(),
        drained: 0,
        latched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsn_trace::TraceEvent;
    use wmsn_util::NodeId;

    /// A busy synthetic stream exercising every piece of monitor
    /// state: mixed kinds/tiers, duplicates, deliveries, energy,
    /// RREQ grace, latched detectors.
    fn busy_monitor() -> HealthMonitor {
        let mut m = HealthMonitor::with_config(HealthConfig {
            battery_capacity_j: Some(2.0),
            ..HealthConfig::default()
        });
        for i in 0..40u64 {
            let t = i * 60_000;
            m.observe(&TraceEvent::TxStart {
                t,
                seq: i,
                src: NodeId((i % 5) as u32),
                dst: if i % 3 == 0 { None } else { Some(NodeId(9)) },
                tier: if i % 4 == 0 {
                    wmsn_trace::TraceTier::Mesh
                } else {
                    wmsn_trace::TraceTier::Sensor
                },
                kind: match i % 3 {
                    0 => wmsn_trace::TraceKind::Control,
                    1 => wmsn_trace::TraceKind::Data,
                    _ => wmsn_trace::TraceKind::Security,
                },
                bytes: 48,
            });
            m.observe(&TraceEvent::Rx {
                t: t + 10,
                seq: i,
                node: NodeId(((i + 1) % 6) as u32),
            });
            if i % 2 == 0 {
                m.observe(&TraceEvent::Forward {
                    t: t + 20,
                    node: NodeId(2),
                    origin: NodeId(1),
                    msg_id: i / 4,
                    next: Some(NodeId(9)),
                    hops: 2,
                });
            }
            if i % 5 == 0 {
                m.observe(&TraceEvent::Deliver {
                    t: t + 30,
                    node: NodeId(9),
                    origin: NodeId(1),
                    msg_id: i / 10,
                    hops: 3,
                    latency_us: 100,
                });
            }
            m.observe(&TraceEvent::Energy {
                t: t + 40,
                node: NodeId(1),
                consumed_j: 0.02 * i as f64,
            });
            if i % 7 == 0 {
                m.observe(&TraceEvent::RreqFlood {
                    t: t + 50,
                    node: NodeId(3),
                    origin: NodeId(3),
                    req_id: i,
                    forwarded: false,
                });
            }
        }
        m
    }

    /// The continuation events fed after the snapshot point.
    fn tail_events() -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for i in 0..30u64 {
            let t = 3_000_000 + i * 80_000;
            out.push(TraceEvent::Forward {
                t,
                node: NodeId(2),
                origin: NodeId(1),
                msg_id: 3,
                next: Some(NodeId(9)),
                hops: 2,
            });
            out.push(TraceEvent::Rx {
                t: t + 5,
                seq: i % 8,
                node: NodeId(4),
            });
        }
        out
    }

    #[test]
    fn snapshot_restore_round_trips_and_continues_identically() {
        let m = busy_monitor();
        let blob = snapshot(&m);
        let restored = restore(&blob).expect("restore");
        // Same state → same bytes again (deterministic encoding).
        assert_eq!(snapshot(&restored), blob);

        // Continuation equivalence: feed the same tail to the original
        // and the restored monitor; their new alerts must match.
        let mut full = m.clone();
        let before = full.alerts().len();
        let mut resumed = restored;
        for ev in tail_events() {
            full.observe(&ev);
            resumed.observe(&ev);
        }
        full.finalize();
        resumed.finalize();
        assert_eq!(
            crate::alert::alerts_to_jsonl(&full.alerts()[before..]),
            resumed.alerts_jsonl(),
            "restored monitor must continue byte-identically"
        );
        assert_eq!(full.net().events, resumed.net().events);
    }

    #[test]
    fn fresh_monitor_round_trips() {
        let m = HealthMonitor::new();
        let restored = restore(&snapshot(&m)).expect("restore");
        assert_eq!(snapshot(&restored), snapshot(&m));
    }

    #[test]
    fn corruption_is_a_hard_error() {
        let blob = snapshot(&busy_monitor());
        assert!(restore(&blob[..7]).is_err());
        let mut bad = blob.clone();
        bad[0] ^= 0xFF;
        assert!(restore(&bad)
            .err()
            .expect("bad magic")
            .contains("bad magic"));
        let mut long = blob.clone();
        long.push(0);
        assert!(restore(&long).err().expect("trailing").contains("trailing"));
        assert!(restore(&blob[..blob.len() - 3]).is_err());
        // A node count far past the blob is refused before allocating.
        // It follows the magic, the config (13 eight-byte fields and a
        // present `battery_capacity_j`, 1 + 8) and `cur_window`.
        let mut huge = blob.clone();
        let n_nodes_at = CHECKPOINT_MAGIC.len() + 13 * 8 + (1 + 8) + 8;
        huge[n_nodes_at..n_nodes_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let e = restore(&huge).err().expect("huge count");
        assert!(e.contains("out of range"), "{e}");
    }

    #[test]
    fn no_truncation_or_byte_flip_panics() {
        let blob = snapshot(&busy_monitor());
        for cut in 0..blob.len() {
            assert!(restore(&blob[..cut]).is_err(), "cut at {cut} accepted");
        }
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0xA5;
            // Flips inside a counter or a float restore fine; the rest
            // must fail cleanly.
            let _ = restore(&bad);
        }
    }
}
