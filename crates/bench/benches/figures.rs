//! Criterion benches timing the figure-regeneration pipelines
//! themselves (one data point per table/figure of the evaluation):
//! these are the "experiments" of the paper, so their cost matters to
//! anyone sweeping design spaces with the harness.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use xrbench_accel::{table5, AcceleratorSystem};
use xrbench_core::figures::{figure6, figure7, figure8};
use xrbench_core::{run_suite, Harness};

fn bench_figure6(c: &mut Criterion) {
    let h = Harness::new();
    c.bench_function("figure6_deep_dive", |b| {
        b.iter(|| figure6(black_box(&h)));
    });
}

fn bench_figure7_point(c: &mut Criterion) {
    let h = Harness::new();
    c.bench_function("figure7_sweep_5_runs", |b| {
        b.iter(|| figure7(black_box(&h), 5));
    });
}

fn bench_figure8(c: &mut Criterion) {
    c.bench_function("figure8_curves", |b| {
        b.iter(figure8);
    });
}

fn bench_full_suite_one_accel(c: &mut Criterion) {
    // One Figure 5 cell group: a full-suite run on one accelerator,
    // including the worker spawn/teardown every `run_suite` caller
    // pays per suite.
    let cfg = table5().into_iter().find(|x| x.id == 'A').expect("A");
    let system = AcceleratorSystem::new(cfg, 4096);
    let h = Harness::new();
    c.bench_function("figure5_one_accel_suite", |b| {
        b.iter(|| run_suite(black_box(&h), &system, 3));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_figure6, bench_figure7_point, bench_figure8, bench_full_suite_one_accel);
criterion_main!(benches);
