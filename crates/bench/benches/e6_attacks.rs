//! E6: the attack-resistance matrix (MLR vs SecMLR × the §2.3 taxonomy).

use wmsn_attacks::sinkhole::TargetProtocol;
use wmsn_bench::emit;
use wmsn_bench::harness::Criterion;
use wmsn_bench::{criterion_group, criterion_main};
use wmsn_core::experiments::{e6_attacks, run_attack_cell, Attack};

fn bench(c: &mut Criterion) {
    emit("e6_attacks", &e6_attacks(1));
    c.bench_function("e6/secmlr_vs_sinkhole_cell", |b| {
        b.iter(|| {
            std::hint::black_box(
                run_attack_cell(TargetProtocol::SecMlr, Attack::Sinkhole, 1, None).0,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
