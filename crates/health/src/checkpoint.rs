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
//! The seq table's sorted order comes from the ring, not from a sort.
//! A seq is `(src << 32) | counter` and each source announces its seqs
//! in non-decreasing order, so a counting pass that buckets the ring by
//! source yields the seqs in order, each run of equal seqs being one
//! table entry with the run length as its count. A ring that is out of
//! order within a source (a hand-fed offline trace) or whose sources
//! spread too far falls back to collecting the map and sorting it; the
//! bytes are the same either way. Restore checks that ring and table
//! agree — every ring seq is in the table, with the ring's occurrence
//! count — and refuses the blob otherwise.
//!
//! The blob is opaque to `wmsn-trace`: the capture layer stores
//! `(seg_index, bytes)` pairs; only this module interprets them.

use crate::alert::AlertKind;
use crate::monitor::{HealthConfig, HealthMonitor, RingEntry};
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
    encode(m, true)
}

/// [`snapshot`] with the seq table always collected from the map and
/// sorted: the reference the ring-derived table must equal.
#[cfg(test)]
fn snapshot_by_sort(m: &HealthMonitor) -> Vec<u8> {
    encode(m, false)
}

fn encode(m: &HealthMonitor, from_ring: bool) -> Vec<u8> {
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
    for r in &m.seq_ring {
        e.u64(r.seq);
    }
    if !(from_ring && enc_seq_table_from_ring(&mut e, m)) {
        enc_seq_table_by_sort(&mut e, m);
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

/// The seq table in seq order, from the map: collect and sort.
fn enc_seq_table_by_sort(e: &mut Enc, m: &HealthMonitor) {
    // HashMap iteration order is unstable; sort for a deterministic
    // byte stream.
    let mut seqs: Vec<(u64, TraceKind, TraceTier, u32)> = m
        .seq_kinds
        .iter()
        .map(|(&s, &(k, t, n))| (s, k, t, n))
        .collect();
    seqs.sort_unstable_by_key(|&(s, ..)| s);
    e.u64(seqs.len() as u64);
    for (seq, kind, tier, count) in seqs {
        enc_seq_entry(e, seq, kind, tier, count);
    }
}

fn enc_seq_entry(e: &mut Enc, seq: u64, kind: TraceKind, tier: TraceTier, count: u32) {
    e.u64(seq);
    e.u8(kind.byte());
    e.u8(tier.byte());
    e.u32(count);
}

/// The seq table in seq order, from the ring, without a sort; `false`
/// (and nothing written) when the ring does not allow it.
///
/// A seq is `(src << 32) | counter`, and a simulated source announces
/// its seqs in non-decreasing order, so bucketing the ring by source
/// (a stable counting pass) lays it out in seq order. Each run of equal
/// seqs is then one table entry: the ring entries carry the table's
/// `(kind, tier)`, and the run length is the occurrence count. A ring
/// that is not ordered within a source (a hand-fed offline trace), or
/// whose sources spread too far for a bucket array, falls back to the
/// sort.
fn enc_seq_table_from_ring(e: &mut Enc, m: &HealthMonitor) -> bool {
    let ring = &m.seq_ring;
    let src = |seq: u64| (seq >> 32) as usize;
    let mut srcs = ring.iter().map(|r| src(r.seq));
    let Some(first) = srcs.next() else {
        e.u64(0);
        return true;
    };
    let (lo, hi) = srcs.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s)));
    if hi - lo > (4 * ring.len()).max(1024) {
        return false;
    }
    // starts[s - lo] is where source s's entries begin in `by_src`.
    let mut starts = vec![0usize; hi - lo + 2];
    for r in ring {
        starts[src(r.seq) - lo + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut by_src = vec![ring[0]; ring.len()];
    for r in ring {
        let slot = &mut starts[src(r.seq) - lo];
        by_src[*slot] = *r;
        *slot += 1;
    }
    let mut runs = 1;
    for w in by_src.windows(2) {
        if w[1].seq < w[0].seq {
            return false;
        }
        runs += usize::from(w[1].seq != w[0].seq);
    }
    debug_assert_eq!(runs, m.seq_kinds.len(), "the ring holds the table's seqs");
    e.u64(runs as u64);
    for run in by_src.chunk_by(|a, b| a.seq == b.seq) {
        let r = run[0];
        enc_seq_entry(e, r.seq, r.kind, r.tier, run.len() as u32);
    }
    true
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

const COUNT_MISMATCH: &str = "seq table count disagrees with the ring";

/// The ring with each entry's `(kind, tier)` filled from the table.
/// Ring and table must agree: every ring seq is in the table, and each
/// table count is the number of ring entries holding its seq.
fn dec_seq_ring(
    seqs: &[u64],
    table: &mut HashMap<u64, (TraceKind, TraceTier, u32)>,
) -> Result<VecDeque<RingEntry>, DecodeError> {
    let mut ring = VecDeque::with_capacity(seqs.len());
    // Count each seq's occurrences down to zero, then back up.
    for &seq in seqs {
        let (kind, tier, count) = table
            .get_mut(&seq)
            .ok_or(DecodeError::Inconsistent("ring seq missing from table"))?;
        *count = count
            .checked_sub(1)
            .ok_or(DecodeError::Inconsistent(COUNT_MISMATCH))?;
        ring.push_back(RingEntry {
            seq,
            kind: *kind,
            tier: *tier,
        });
    }
    if table.values().any(|&(.., count)| count != 0) {
        return Err(DecodeError::Inconsistent(COUNT_MISMATCH));
    }
    for &seq in seqs {
        if let Some(e) = table.get_mut(&seq) {
            e.2 += 1;
        }
    }
    Ok(ring)
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
    let mut ring_seqs = Vec::with_capacity(n_ring);
    for _ in 0..n_ring {
        ring_seqs.push(d.u64()?);
    }
    let n_seqs = d.length()?;
    let mut seq_kinds = HashMap::with_capacity(n_seqs);
    for _ in 0..n_seqs {
        let seq = d.u64()?;
        let kind = d.trace_enum(TraceKind::from_byte)?;
        let tier = d.trace_enum(TraceTier::from_byte)?;
        let count = d.u32()?;
        if count == 0 || seq_kinds.insert(seq, (kind, tier, count)).is_some() {
            return Err(DecodeError::Inconsistent(
                "zero-count or repeated seq table entry",
            ));
        }
    }
    let seq_ring = dec_seq_ring(&ring_seqs, &mut seq_kinds)?;
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
        // busy_monitor announces seqs 0..40 once each: the ring section
        // is its length and those 40 seqs, and the table (a count, then
        // 14 bytes per entry) follows it. Ring and table must agree, so
        // every flip in either is refused.
        let mut ring_head = 40u64.to_le_bytes().to_vec();
        for seq in 0..40u64 {
            ring_head.extend_from_slice(&seq.to_le_bytes());
        }
        let ring_at = blob
            .windows(ring_head.len())
            .position(|w| w == ring_head)
            .expect("ring section");
        let seq_section = ring_at..ring_at + ring_head.len() + 8 + 40 * 14;
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0xA5;
            // Flips inside a counter or a float restore fine; the rest
            // must fail cleanly.
            let got = restore(&bad);
            if seq_section.contains(&i) {
                assert!(got.is_err(), "flip at {i} in the seq section accepted");
            }
        }
        let mut bad = blob.clone();
        bad[ring_at + 8] ^= 0xA5;
        let e = restore(&bad).err().expect("ring seq not in the table");
        assert!(e.contains("ring seq missing from table"), "{e}");
    }

    /// Seeded event streams shaped like a simulation's: each source
    /// announces `(src << 32) | counter` seqs in order, CSMA retries
    /// re-announce the last seq (sometimes under another kind), and
    /// forwards and deliveries repeat. With `disorder`, a source now and
    /// then announces an older seq out of order, which the ring-derived
    /// table cannot take. Returns a snapshot of every 40th state.
    fn random_states(
        seed: u64,
        seq_window: usize,
        stride: u64,
        disorder: bool,
    ) -> Vec<HealthMonitor> {
        use wmsn_trace::{TraceKind as K, TraceTier as T};
        let mut rng = wmsn_util::rng::SplitMix64::new(seed);
        let mut m = HealthMonitor::with_config(HealthConfig {
            seq_window,
            ..HealthConfig::default()
        });
        let n_src = 1 + rng.next_below(12) as usize;
        let mut counters = vec![0u64; n_src];
        let mut announced: Vec<u64> = Vec::new();
        let mut states = Vec::new();
        let mut t = 0u64;
        for step in 0..600 {
            t += rng.next_below(40_000);
            let node = NodeId(rng.next_below(n_src as u64) as u32);
            let ev = match rng.next_below(10) {
                0..=4 => {
                    let i = rng.next_index(n_src);
                    let src = i as u64 * stride;
                    let seq = if counters[i] > 0 && rng.chance(0.25) {
                        (src << 32) | (counters[i] - 1)
                    } else if disorder && counters[i] > 1 && rng.chance(0.2) {
                        (src << 32) | rng.next_below(counters[i] - 1)
                    } else {
                        counters[i] += 1;
                        (src << 32) | (counters[i] - 1)
                    };
                    announced.push(seq);
                    TraceEvent::TxStart {
                        t,
                        seq,
                        src: NodeId(src as u32),
                        dst: rng.chance(0.5).then_some(NodeId(1)),
                        tier: [T::Sensor, T::Mesh][rng.next_index(2)],
                        kind: [K::Control, K::Data, K::Security][rng.next_index(3)],
                        bytes: 48,
                    }
                }
                5 | 6 => TraceEvent::Rx {
                    t,
                    seq: if announced.is_empty() || rng.chance(0.1) {
                        rng.next_u64_raw()
                    } else {
                        announced[rng.next_index(announced.len())]
                    },
                    node,
                },
                7 => TraceEvent::Forward {
                    t,
                    node,
                    origin: NodeId(rng.next_below(3) as u32),
                    msg_id: rng.next_below(6),
                    next: Some(NodeId(0)),
                    hops: 2,
                },
                8 => TraceEvent::Deliver {
                    t,
                    node,
                    origin: NodeId(rng.next_below(3) as u32),
                    msg_id: rng.next_below(6),
                    hops: 3,
                    latency_us: 100,
                },
                _ => TraceEvent::RreqFlood {
                    t,
                    node,
                    origin: node,
                    req_id: step,
                    forwarded: rng.chance(0.5),
                },
            };
            m.observe(&ev);
            if step % 40 == 39 {
                states.push(m.clone());
            }
        }
        states
    }

    #[test]
    fn ring_derived_snapshot_equals_the_sorted_reference() {
        // Tables derived from the ring, and sorts for disorder or spread.
        let (mut from_ring, mut disordered, mut spread) = (0, 0, 0);
        for seed in 0..120u64 {
            let seq_window = [1, 3, 16, 4096][seed as usize % 4];
            // Stride 300 spreads the sources too far for a bucket array.
            let stride = [1, 7, 300][seed as usize / 4 % 3];
            let disorder = seed / 12 % 2 == 1;
            for (i, m) in random_states(seed, seq_window, stride, disorder)
                .iter()
                .enumerate()
            {
                let blob = snapshot(m);
                assert_eq!(blob, snapshot_by_sort(m), "seed {seed} state {i}");
                let restored = restore(&blob).expect("restore");
                assert_eq!(snapshot(&restored), blob, "seed {seed} state {i}");
                assert_eq!(snapshot_by_sort(&restored), blob);
                let mut e = Enc { out: Vec::new() };
                if enc_seq_table_from_ring(&mut e, m) {
                    from_ring += 1;
                } else {
                    assert!(e.out.is_empty(), "a refused ring writes nothing");
                    assert!(
                        disorder || stride == 300,
                        "seed {seed}: ordered ring refused"
                    );
                    if stride == 300 {
                        spread += 1;
                    } else {
                        disordered += 1;
                    }
                }
            }
        }
        assert!(
            from_ring > 0 && disordered > 0 && spread > 0,
            "{from_ring} / {disordered} / {spread}"
        );
    }
}
