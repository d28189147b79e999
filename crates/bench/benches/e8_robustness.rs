//! E8: robustness — dead LEACH heads vs dead WMSN gateways + redirect.

use wmsn_bench::emit;
use wmsn_bench::harness::Criterion;
use wmsn_bench::{criterion_group, criterion_main};
use wmsn_core::builder::build_leach;
use wmsn_core::drivers::LeachDriver;
use wmsn_core::experiments::e8_robustness;
use wmsn_core::params::FieldParams;
use wmsn_util::Point;

fn bench(c: &mut Criterion) {
    emit("e8_robustness", &e8_robustness(13));
    c.bench_function("e8/leach_round", |b| {
        b.iter_with_setup(
            || {
                LeachDriver::new(build_leach(
                    &FieldParams {
                        battery_j: 10.0,
                        ..FieldParams::default_uniform(60, 13)
                    },
                    Point::new(50.0, 140.0),
                    0.12,
                ))
            },
            |mut d| std::hint::black_box(d.run_round()),
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
