//! Randomized property tests on cross-crate invariants: wire formats
//! never panic and round-trip, crypto seals are tamper-evident for
//! arbitrary payloads, topology/flow invariants hold on random geometry.
//!
//! Cases are generated from fixed-seed [`SplitMix64`] streams (the
//! workspace builds offline, without proptest), so every run exercises
//! exactly the same inputs and failures reproduce immediately.

use wmsn::crypto::hash::hash as wh;
use wmsn::crypto::{open, seal, Key128, TeslaBroadcaster, TeslaReceiver};
use wmsn::routing::optimal_lifetime_rounds;
use wmsn::routing::table::{Route, RoutingTable};
use wmsn::routing::wire::{
    data_hops_patch, layout, rrep_energy_patch, rreq_append_forward, RoutingMsg, RoutingMsgView,
    MAX_PATH, NO_PLACE,
};
use wmsn::secure::wire::{SecMsg, SecMsgView};
use wmsn::topology::connectivity::{is_connected, HopField};
use wmsn::topology::control::{critical_range, gaf_sleep_schedule};
use wmsn::topology::places::FeasiblePlaces;
use wmsn::topology::{MovementPolicy, MovementSchedule, Topology};
use wmsn::util::codec::{DecodeError, Writer};
use wmsn::util::geom::unit_disk_adjacency;
use wmsn::util::{NodeId, Point, Rect, SplitMix64};

/// Number of generated cases per property (mirrors the old proptest
/// configuration).
const CASES: usize = 128;
const CASES_SLOW: usize = 64;

fn rng_for(label: u64) -> SplitMix64 {
    SplitMix64::new(0x5EED_CA5E).split(label)
}

fn arb_point(r: &mut SplitMix64) -> Point {
    Point::new(r.range_f64(0.0, 100.0), r.range_f64(0.0, 100.0))
}

fn arb_points(r: &mut SplitMix64, lo: usize, hi: usize) -> Vec<Point> {
    let n = lo + r.next_index(hi - lo);
    (0..n).map(|_| arb_point(r)).collect()
}

fn arb_bytes(r: &mut SplitMix64, lo: usize, hi: usize) -> Vec<u8> {
    let n = lo + r.next_index(hi - lo);
    let mut v = vec![0u8; n];
    r.fill_bytes(&mut v);
    v
}

#[test]
fn routing_wire_decode_never_panics() {
    let mut r = rng_for(1);
    for _ in 0..CASES {
        let bytes = arb_bytes(&mut r, 0, 256);
        let _ = RoutingMsg::decode(&bytes);
        let _ = RoutingMsgView::decode(&bytes);
        let _ = SecMsg::decode(&bytes);
        let _ = SecMsgView::decode(&bytes);
    }
}

/// A random valid routing message covering every variant.
fn arb_routing_msg(r: &mut SplitMix64) -> RoutingMsg {
    match r.next_index(5) {
        0 => RoutingMsg::Rreq {
            origin: NodeId(r.next_below(1000) as u32),
            req_id: r.next_u64_raw(),
            path: (0..r.next_index(20))
                .map(|_| NodeId(r.next_below(1000) as u32))
                .collect(),
            wanted: (0..r.next_index(8))
                .map(|_| r.next_u64_raw() as u16)
                .collect(),
        },
        1 => RoutingMsg::Rrep {
            origin: NodeId(r.next_below(1000) as u32),
            req_id: r.next_u64_raw(),
            gateway: NodeId(r.next_below(1000) as u32),
            place: r.next_u64_raw() as u16,
            energy_pm: r.next_u64_raw() as u16,
            path: (0..r.next_index(20))
                .map(|_| NodeId(r.next_below(1000) as u32))
                .collect(),
        },
        2 => RoutingMsg::Data {
            origin: NodeId(r.next_u64_raw() as u32),
            msg_id: r.next_u64_raw(),
            sent_at: r.next_u64_raw(),
            gateway: NodeId(r.next_u64_raw() as u32),
            place: r.next_u64_raw() as u16,
            hops: r.next_u64_raw() as u32,
            payload_len: r.next_below(128) as u16,
        },
        3 => RoutingMsg::Announce {
            gateway: NodeId(r.next_u64_raw() as u32),
            place: r.next_u64_raw() as u16,
            round: r.next_u64_raw() as u32,
        },
        _ => RoutingMsg::Load {
            gateway: NodeId(r.next_u64_raw() as u32),
            load: r.next_u64_raw() as u32,
            seq: r.next_u64_raw() as u32,
        },
    }
}

fn u32_at(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn u64_at(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// The one decoder agrees with the owned encoder, the layout's fixed
/// offsets hold the fields it decoded, and every in-place builder
/// equals decode → change the field → re-encode.
#[test]
fn borrowed_views_match_owned_decode_on_random_frames() {
    let mut r = rng_for(16);
    for _ in 0..CASES {
        let msg = arb_routing_msg(&mut r);
        let bytes = msg.encode();
        let view = RoutingMsgView::decode(&bytes).expect("valid frame must decode as a view");
        assert_eq!(view.to_owned(), msg, "view decode must equal owned decode");
        let mut out = Vec::new();
        let mut changed = msg.clone();
        match (&mut changed, view) {
            (
                RoutingMsg::Rreq {
                    origin,
                    req_id,
                    path,
                    ..
                },
                RoutingMsgView::Rreq {
                    path: view_path, ..
                },
            ) => {
                assert_eq!(u32_at(&bytes, layout::Rreq::origin), origin.0);
                assert_eq!(u64_at(&bytes, layout::Rreq::req_id), *req_id);
                rreq_append_forward(&bytes, view_path, NodeId(4242), &mut out).unwrap();
                path.push(NodeId(4242));
            }
            (
                RoutingMsg::Rrep {
                    origin,
                    req_id,
                    gateway,
                    energy_pm,
                    ..
                },
                _,
            ) => {
                assert_eq!(u32_at(&bytes, layout::Rrep::origin), origin.0);
                assert_eq!(u64_at(&bytes, layout::Rrep::req_id), *req_id);
                assert_eq!(u32_at(&bytes, layout::Rrep::gateway), gateway.0);
                rrep_energy_patch(&bytes, 123, &mut out).unwrap();
                *energy_pm = 123;
            }
            (
                RoutingMsg::Data {
                    origin,
                    msg_id,
                    gateway,
                    hops,
                    ..
                },
                _,
            ) => {
                assert_eq!(u32_at(&bytes, layout::Data::origin), origin.0);
                assert_eq!(u64_at(&bytes, layout::Data::msg_id), *msg_id);
                assert_eq!(u32_at(&bytes, layout::Data::gateway), gateway.0);
                data_hops_patch(&bytes, hops.wrapping_add(1), &mut out).unwrap();
                *hops = hops.wrapping_add(1);
            }
            (RoutingMsg::Announce { gateway, round, .. }, _) => {
                assert_eq!(u32_at(&bytes, layout::Announce::gateway), gateway.0);
                assert_eq!(u32_at(&bytes, layout::Announce::round), *round);
                out = bytes.clone();
            }
            (RoutingMsg::Load { gateway, seq, .. }, _) => {
                assert_eq!(u32_at(&bytes, layout::Load::gateway), gateway.0);
                assert_eq!(u32_at(&bytes, layout::Load::seq), *seq);
                out = bytes.clone();
            }
            (m, v) => panic!("view kind mismatch: {m:?} vs {v:?}"),
        }
        assert_eq!(out, changed.encode(), "in-place builder of {msg:?}");
    }
}

#[test]
fn borrowed_decoder_rejects_every_truncation_without_panicking() {
    let mut r = rng_for(17);
    for _ in 0..CASES_SLOW {
        let msg = arb_routing_msg(&mut r);
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(
                RoutingMsgView::decode(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        let mut long = bytes.clone();
        long.push(r.next_u64_raw() as u8);
        assert!(RoutingMsgView::decode(&long).is_err(), "trailing byte");
    }
}

#[test]
fn oversized_path_counts_are_rejected_before_any_allocation() {
    for claimed in [MAX_PATH + 1, u16::MAX as usize] {
        // RREQ: | tag | origin | req_id | wanted(0) | path_count | … |
        let mut w = Writer::new();
        w.u8(1).u32(7).u64(9).u16(0).u16(claimed as u16);
        for _ in 0..4 * claimed {
            w.u8(0);
        }
        let bytes = w.into_bytes();
        for result in [
            RoutingMsgView::decode(&bytes).map(|_| ()),
            RoutingMsg::decode(&bytes).map(|_| ()),
        ] {
            assert!(
                matches!(result, Err(DecodeError::LengthOutOfRange(n)) if n == claimed),
                "claimed path count {claimed} must be rejected as out of range"
            );
        }
        // RREP: | tag | origin | req_id | gateway | place | energy | path_count | … |
        let mut w = Writer::new();
        w.u8(2)
            .u32(7)
            .u64(9)
            .u32(3)
            .u16(0)
            .u16(500)
            .u16(claimed as u16);
        let bytes = w.into_bytes();
        assert!(matches!(
            RoutingMsgView::decode(&bytes),
            Err(DecodeError::LengthOutOfRange(n)) if n == claimed
        ));
    }
}

#[test]
fn routing_wire_roundtrips() {
    let mut r = rng_for(2);
    for _ in 0..CASES {
        let path_len = r.next_index(20);
        let wanted_len = r.next_index(8);
        let msg = RoutingMsg::Rreq {
            origin: NodeId(r.next_below(1000) as u32),
            req_id: r.next_u64_raw(),
            path: (0..path_len)
                .map(|_| NodeId(r.next_below(1000) as u32))
                .collect(),
            wanted: (0..wanted_len).map(|_| r.next_u64_raw() as u16).collect(),
        };
        assert_eq!(RoutingMsg::decode(&msg.encode()).unwrap(), msg);
    }
}

#[test]
fn data_wire_roundtrips() {
    let mut r = rng_for(3);
    for _ in 0..CASES {
        let msg = RoutingMsg::Data {
            origin: NodeId(r.next_u64_raw() as u32),
            msg_id: r.next_u64_raw(),
            sent_at: r.next_u64_raw(),
            gateway: NodeId(r.next_u64_raw() as u32),
            place: r.next_u64_raw() as u16,
            hops: r.next_u64_raw() as u32,
            payload_len: r.next_below(512) as u16,
        };
        assert_eq!(RoutingMsg::decode(&msg.encode()).unwrap(), msg);
    }
}

#[test]
fn sealed_messages_roundtrip_and_reject_any_single_bitflip() {
    let mut r = rng_for(4);
    for _ in 0..CASES {
        let mut kb = [0u8; 16];
        r.fill_bytes(&mut kb);
        let key = Key128(kb);
        let counter = r.next_u64_raw();
        let payload = arb_bytes(&mut r, 0, 64);
        let sealed = seal(&key, counter, &payload);
        assert_eq!(open(&key, &sealed).unwrap(), payload);
        // Flip one bit somewhere in the ciphertext or tag.
        let mut tampered = sealed.clone();
        let ct_len = tampered.ciphertext.len();
        let pos = r.next_index(ct_len + 8);
        let bit = 1u8 << r.next_index(8);
        if pos < ct_len {
            tampered.ciphertext[pos] ^= bit;
        } else {
            tampered.tag.0[pos - ct_len] ^= bit;
        }
        assert!(open(&key, &tampered).is_none(), "bitflip must be detected");
    }
}

#[test]
fn sealed_messages_bind_the_counter() {
    let mut r = rng_for(5);
    for _ in 0..CASES {
        let mut kb = [0u8; 16];
        r.fill_bytes(&mut kb);
        let key = Key128(kb);
        let payload = arb_bytes(&mut r, 1, 32);
        let mut sealed = seal(&key, r.next_below(u64::MAX), &payload);
        sealed.counter = sealed.counter.wrapping_add(1);
        assert!(open(&key, &sealed).is_none());
    }
}

#[test]
fn hop_field_triangle_inequality() {
    let mut r = rng_for(6);
    for _ in 0..CASES {
        // Every sensor's hop count is at most its neighbour's + 1.
        let points = arb_points(&mut r, 2, 40);
        let gateways = vec![points[0]];
        let sensors = points[1..].to_vec();
        let n = sensors.len();
        let topo = Topology::new(sensors, gateways, Rect::field(100.0, 100.0), 20.0);
        let adj = topo.adjacency();
        let hf = HopField::compute(&topo);
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            for &u in &adj[v] {
                if hf.hops[u] != u32::MAX && hf.hops[v] != u32::MAX {
                    assert!(hf.hops[v] <= hf.hops[u] + 1);
                }
            }
            // Covered ⇔ some gateway is graph-reachable.
            if hf.hops[v] != u32::MAX {
                assert!(hf.nearest[v] == 0);
            }
        }
    }
}

#[test]
fn critical_range_is_tight() {
    let mut r = rng_for(7);
    for _ in 0..CASES {
        let points = arb_points(&mut r, 2, 30);
        if let Some(cr) = critical_range(&points) {
            assert!(is_connected(&unit_disk_adjacency(
                &points,
                cr * (1.0 + 1e-12)
            )));
            // Lower tightness: shrinking below r must disconnect — unless
            // another pairwise distance ties with r within the shrink
            // factor, in which case that edge legitimately survives.
            let shrunk = cr * 0.999_999;
            let tie = (0..points.len()).any(|i| {
                (i + 1..points.len()).any(|j| {
                    let d = points[i].dist(points[j]);
                    d < cr && d >= shrunk
                })
            });
            if cr > 1e-6 && !tie {
                assert!(!is_connected(&unit_disk_adjacency(&points, shrunk)));
            }
        }
    }
}

#[test]
fn optimal_bound_is_monotone_in_battery() {
    let mut r = rng_for(8);
    for _ in 0..CASES {
        let points = arb_points(&mut r, 3, 25);
        let battery = r.range_f64(0.01, 2.0);
        let topo = Topology::new(
            points[1..].to_vec(),
            vec![points[0]],
            Rect::field(100.0, 100.0),
            30.0,
        );
        let small = optimal_lifetime_rounds(&topo, battery, 1e-3, 1e-3, 1.0);
        let large = optimal_lifetime_rounds(&topo, battery * 2.0, 1e-3, 1e-3, 1.0);
        // Doubling every battery doubles the fractional lifetime.
        assert!((large - 2.0 * small).abs() <= 0.01 * large.max(1.0));
    }
}

#[test]
fn routing_table_best_is_min_hops_of_inserted() {
    let mut r = rng_for(9);
    for _ in 0..CASES {
        let n_entries = 1 + r.next_index(19);
        let mut table = RoutingTable::new();
        for _ in 0..n_entries {
            let relays = r.next_index(6);
            table.upsert(
                Route {
                    gateway: NodeId(r.next_below(50) as u32),
                    place: r.next_below(8) as u16,
                    relays: (0..relays).map(|i| NodeId(1000 + i as u32)).collect(),
                    energy_pm: 1000,
                },
                false,
            );
        }
        let best = table.best().unwrap();
        for route in table.iter() {
            assert!(best.hops() <= route.hops());
        }
        // Keyed dedup: at most one entry per place.
        let mut places: Vec<u16> = table.iter().map(|route| route.place).collect();
        places.sort_unstable();
        let len_before = places.len();
        places.dedup();
        assert_eq!(places.len(), len_before);
    }
}

#[test]
fn spr_route_entries_are_well_formed() {
    let mut r = rng_for(10);
    for _ in 0..CASES {
        let gw = r.next_below(100) as u32;
        let n_relays = r.next_index(10);
        let relays: Vec<u32> = (0..n_relays)
            .map(|_| 100 + r.next_below(100) as u32)
            .collect();
        let route = Route {
            gateway: NodeId(gw),
            place: NO_PLACE,
            relays: relays.iter().copied().map(NodeId).collect(),
            energy_pm: 1000,
        };
        assert_eq!(route.hops() as usize, relays.len() + 1);
        if relays.is_empty() {
            assert_eq!(route.next_hop(), NodeId(gw));
        } else {
            assert_eq!(route.next_hop(), NodeId(relays[0]));
        }
    }
}

#[test]
fn tesla_honest_messages_always_authenticate() {
    let mut r = rng_for(11);
    let mut tried = 0usize;
    while tried < CASES_SLOW {
        let seed = r.next_u64_raw();
        let interval = 50 + r.next_below(950);
        let delay = 1 + r.next_below(3);
        let send_offset = r.next_below(2000);
        let msg = arb_bytes(&mut r, 1, 64);
        let b = TeslaBroadcaster::new(&wh(&seed.to_le_bytes()), 32, 0, interval, delay);
        let mut rx = TeslaReceiver::new(b.anchor(), 0, interval, delay, b.max_interval());
        let t_send = send_offset;
        let (i, tag) = b.authenticate(t_send, &msg);
        // Arrive promptly (well before the interval's disclosure time).
        let arrive = t_send + 1;
        let disclosure_time = (i + delay) * interval;
        if arrive >= disclosure_time {
            // Equivalent of prop_assume!: skip cases violating the premise.
            continue;
        }
        tried += 1;
        assert_eq!(
            rx.on_message(arrive, i, &msg, tag),
            wmsn::crypto::tesla::ReceiveOutcome::Buffered
        );
        // Walk broadcaster time forward until the key is disclosable.
        let t_disclose = disclosure_time + interval;
        let (idx, key) = b.disclosable(t_disclose).unwrap();
        // Keys for earlier intervals may come first; disclose all up to i.
        let mut released = Vec::new();
        for j in 1..=idx {
            let (_, kj) = b.disclosable(j * interval + delay * interval).unwrap();
            released.extend(rx.on_disclosure(j, kj));
        }
        released.extend(rx.on_disclosure(idx, key));
        assert!(released.contains(&msg), "honest message must release");
    }
}

#[test]
fn tesla_tampered_tags_never_release() {
    let mut r = rng_for(12);
    for _ in 0..CASES_SLOW {
        let seed = r.next_u64_raw();
        let msg = arb_bytes(&mut r, 1, 32);
        let flip = r.next_index(8);
        let b = TeslaBroadcaster::new(&wh(&seed.to_le_bytes()), 16, 0, 100, 2);
        let mut rx = TeslaReceiver::new(b.anchor(), 0, 100, 2, b.max_interval());
        let (i, mut tag) = b.authenticate(150, &msg);
        tag.0[flip] ^= 0x01;
        let _ = rx.on_message(160, i, &msg, tag);
        let (idx, _key) = b.disclosable((i + 3) * 100).unwrap();
        assert!(idx >= i);
        let mut released = Vec::new();
        for j in 1..=idx {
            let (_, kj) = b.disclosable(j * 100 + 200).unwrap();
            released.extend(rx.on_disclosure(j, kj));
        }
        assert!(released.is_empty(), "tampered tag must never release");
    }
}

#[test]
fn optimal_bound_matches_the_chain_formula() {
    let mut r = rng_for(13);
    for _ in 0..CASES_SLOW {
        // A chain S_{L-1} … S_0 — G: the relay adjacent to the gateway
        // forwards everyone's packets. Per round it transmits L·T and
        // receives (L−1)·T, so the bound is E / (T·(L·e_t + (L−1)·e_r)).
        let len = 1 + r.next_index(7);
        let battery = r.range_f64(0.1, 4.0);
        let t_rate = r.range_f64(1.0, 4.0);
        let e_t = 1e-3;
        let e_r = 1e-3;
        let sensors: Vec<Point> = (0..len)
            .map(|i| Point::new((i + 1) as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::new(
            sensors,
            vec![Point::new(0.0, 0.0)],
            Rect::field(200.0, 10.0),
            10.0,
        );
        let bound = optimal_lifetime_rounds(&topo, battery, e_t, e_r, t_rate);
        let l = len as f64;
        let expected = battery / (t_rate * (l * e_t + (l - 1.0) * e_r));
        assert!(
            (bound - expected).abs() < expected * 1e-4,
            "chain L={len}: bound {bound}, formula {expected}"
        );
    }
}

#[test]
fn movement_schedules_always_occupy_distinct_valid_places() {
    let mut r = rng_for(14);
    let mut tried = 0usize;
    while tried < CASES_SLOW {
        let n_places = 2 + r.next_index(8);
        let m = 1 + r.next_index(4);
        let seed = r.next_u64_raw();
        let rounds = 1 + r.next_index(14);
        let policy = match r.next_index(3) {
            0 => MovementPolicy::Static,
            1 => MovementPolicy::RoundRobin,
            _ => MovementPolicy::RandomWalk { move_prob: 0.5 },
        };
        if m > n_places {
            continue;
        }
        tried += 1;
        let places = FeasiblePlaces::grid(Rect::field(100.0, 100.0), n_places, 1);
        let initial: Vec<usize> = (0..m).collect();
        let mut s = MovementSchedule::new(policy, &places, initial, seed);
        let mut prev: Option<Vec<usize>> = None;
        for _ in 0..rounds {
            let round = s.next_round();
            assert_eq!(round.occupied.len(), m);
            let set: std::collections::HashSet<_> = round.occupied.iter().collect();
            assert_eq!(set.len(), m, "places must stay distinct");
            assert!(round.occupied.iter().all(|&p| p < n_places));
            // `moved` is exactly the diff against the previous round.
            if let Some(prev) = &prev {
                let diff: Vec<usize> = (0..m).filter(|&g| prev[g] != round.occupied[g]).collect();
                assert_eq!(&round.moved, &diff);
            }
            prev = Some(round.occupied.clone());
        }
    }
}

#[test]
fn gaf_every_node_can_hear_an_awake_leader() {
    let mut r = rng_for(15);
    for _ in 0..CASES_SLOW {
        let points = arb_points(&mut r, 1, 60);
        let range = r.range_f64(10.0, 40.0);
        let energies = vec![1.0; points.len()];
        let awake = gaf_sleep_schedule(&points, &energies, range);
        assert!(awake.iter().any(|&a| a), "someone must stay awake");
        // GAF's cell geometry: a node's own cell leader is within the
        // cell diagonal = r·√(2/5) < r.
        for (i, p) in points.iter().enumerate() {
            let covered = points
                .iter()
                .zip(&awake)
                .any(|(q, &up)| up && p.within(*q, range));
            assert!(covered, "node {i} cannot hear any awake node");
        }
    }
}
