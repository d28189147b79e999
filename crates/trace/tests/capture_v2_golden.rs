//! A version-2 capture pinned byte for byte: three 4-frame segments,
//! the first compacted, two checkpoint blobs (one labelled with the
//! segment count), embedded alerts and a non-zero dropped-frame count.
//! Every reader must keep opening it to exactly these answers.

use wmsn_trace::{
    capture_counts, capture_drops_of_seq, capture_energy_of, capture_path_of, CaptureReader,
    COMPACTED_OFFSET,
};

const GOLDEN: &[u8] = include_bytes!("golden/capture_v2.wcap");

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn version_2_golden_capture_opens_to_pinned_answers() {
    let mut r = CaptureReader::new(std::io::Cursor::new(GOLDEN)).expect("open v2 golden");
    assert_eq!(r.version(), 2);
    assert_eq!(r.bytes(), GOLDEN.len() as u64);
    assert_eq!((r.frames(), r.frames_dropped()), (11, 3));

    let segments: Vec<_> = r
        .segments()
        .iter()
        .map(|m| {
            (
                m.offset,
                m.frames,
                m.at_min,
                m.at_max,
                m.kind_counts.to_vec(),
                hex(&m.node_filter),
            )
        })
        .collect();
    let want = PINNED_SEGMENTS;
    assert_eq!(segments.len(), want.len());
    for (i, (got, want)) in segments.iter().zip(want).enumerate() {
        assert_eq!(
            (got.0, got.1, got.2, got.3, got.4.as_slice(), got.5.as_str()),
            *want,
            "segment {i}"
        );
    }
    assert_eq!(r.segments()[0].offset, COMPACTED_OFFSET);

    let labels: Vec<u64> = r.checkpoints().iter().map(|&(seg, _)| seg).collect();
    assert_eq!(labels, [1, 3]);
    assert_eq!(
        r.checkpoint_blob(0).expect("blob 0"),
        b"detector state after segment 0"
    );
    assert_eq!(
        r.checkpoint_blob(1).expect("blob 1"),
        b"detector state after segment 2"
    );
    assert!(r.checkpoint_blob(2).is_err());
    assert_eq!(
        r.alerts_jsonl(),
        "{\"t\":520,\"kind\":\"gateway_silence\",\"subject\":9}\n\
         {\"t\":550,\"kind\":\"energy_depletion\",\"subject\":7}\n"
    );

    // The four queries: counts from the index, the rest from the
    // retained segments (the index rules the compacted one out).
    let counts: Vec<(String, u64)> = capture_counts(&r).into_iter().collect();
    let counts: Vec<(&str, u64)> = counts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(
        counts,
        [
            ("deliver", 1),
            ("drop", 2),
            ("energy", 2),
            ("forward", 2),
            ("rx", 2),
            ("tx_start", 2)
        ]
    );
    let path = capture_path_of(&mut r, 5, 9).expect("path").expect("found");
    let hops: Vec<_> = path
        .hops
        .iter()
        .map(|h| (h.t, h.node, h.next, h.hops))
        .collect();
    assert_eq!(hops, [(500, 5, Some(3), 1), (510, 3, None, 2)]);
    assert_eq!(path.delivered, Some((520, 9, 2, 20)));
    assert_eq!(capture_path_of(&mut r, 5, 10).expect("path"), None);
    assert_eq!(
        capture_drops_of_seq(&mut r, 42).expect("drops"),
        [
            (530, 7, "collision".to_string()),
            (531, 8, "loss".to_string())
        ]
    );
    assert_eq!(
        capture_energy_of(&mut r, 7).expect("energy"),
        [(540, 0.25), (550, 0.5)]
    );
    // A frame-level read into the compacted segment fails loudly.
    let e = r.read_segment_raw(0).expect_err("segment 0 is compacted");
    assert!(e.contains("compacted"), "{e}");
}

type PinnedSegment = (u64, u32, u64, u64, &'static [u32], &'static str);

/// `(offset, frames, at_min, at_max, kind_counts, node_filter hex)`.
const PINNED_SEGMENTS: &[PinnedSegment] = &[
    (
        COMPACTED_OFFSET,
        4,
        100,
        130,
        &[2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "0000000000000000000040100000000000000000000000000240000000000000",
    ),
    (
        16,
        4,
        500,
        530,
        &[0, 0, 0, 0, 1, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        "0020000000000000000000041100000000800000000000000800800000200000",
    ),
    (
        272,
        3,
        531,
        550,
        &[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        "0020000000004000000000000000000000000000000000000000800000000000",
    ),
];
