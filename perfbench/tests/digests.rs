//! Pins each workload's simulated-statistics digest for seed 1 — the
//! value `perfbench --seed 1` prints — and checks shard equivalence on
//! the benchmark's own ops: the SPR flood's per-op routing outcomes are
//! identical on the reference and the sharded kernel.
//!
//! Each test runs the benchmark itself with a budget so short that the
//! run stops at the [`DIGEST_OPS`] ops the digest covers.
//!
//! A change that only claims speed must leave every digest unchanged.

use std::path::PathBuf;
use wmsn_perfbench::forensic::ForensicQueries;
use wmsn_perfbench::mlr::MlrFailoverCapture;
use wmsn_perfbench::spr::{SprFloodReference, SprFloodSharded};
use wmsn_perfbench::{run, Config, Workload, DIGEST_OPS};

/// Digest of a seed-1 run of `W`, after checking that every op passed.
fn digest<W: Workload>(name: &str) -> u64 {
    let cfg = Config {
        seed: 1,
        seconds: 1e-9,
        trace: false,
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    };
    let out = run::<W>(&cfg).unwrap();
    assert_eq!(out.attempted, DIGEST_OPS);
    assert_eq!(out.failed, 0);
    out.digest
}

#[test]
fn spr_flood_digest_is_pinned_and_equal_on_both_kernels() {
    let reference = digest::<SprFloodReference>("spr");
    let sharded = digest::<SprFloodSharded>("spr_sharded");
    assert_eq!(reference, sharded, "shard equivalence on the benchmark ops");
    assert_eq!(reference, 0xf1c1_237c_8755_5309);
}

#[test]
fn mlr_failover_capture_digest_is_pinned() {
    assert_eq!(digest::<MlrFailoverCapture>("mlr"), 0x9017_0764_5ca7_f4aa);
}

#[test]
fn forensic_queries_digest_is_pinned() {
    assert_eq!(digest::<ForensicQueries>("forensic"), 0xf522_67ae_edc2_2887);
}
