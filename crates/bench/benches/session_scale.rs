//! Criterion bench for multi-user session throughput — the workload
//! the calendar-queue event engine (PR 8) targets, up to the 4096-user
//! point where struct-of-arrays state and the batched kernel dispatch
//! path dominate. `perf_gate` is the committed pass/fail version of
//! the same measurement; this bench is for interactive profiling
//! (`cargo bench -p xrbench-bench session_scale`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xrbench_bench::session_scale::{mixed_session, provider};
use xrbench_sim::{LatencyGreedy, SimConfig, Simulator};

fn bench_session_scale(c: &mut Criterion) {
    let provider = provider();
    let sim = Simulator::new(SimConfig::default());
    let mut g = c.benchmark_group("session_scale");
    for users in [1u32, 32, 256, 4096] {
        let session = mixed_session(users);
        g.bench_with_input(BenchmarkId::from_parameter(users), &session, |b, s| {
            b.iter(|| sim.run_session(black_box(s), &provider, &mut LatencyGreedy::new()));
        });
    }
    g.finish();
}

fn bench_engine_vs_reference(c: &mut Criterion) {
    // Head-to-head at a size where the reference loop is still cheap
    // enough to sample.
    let provider = provider();
    let sim = Simulator::new(SimConfig::default());
    let session = mixed_session(32);
    let mut g = c.benchmark_group("engine_vs_reference_32_users");
    g.bench_function("calendar_engine", |b| {
        b.iter(|| sim.run_session(black_box(&session), &provider, &mut LatencyGreedy::new()));
    });
    g.bench_function("reference_loop", |b| {
        b.iter(|| {
            sim.run_session_reference(
                black_box(&session),
                &provider,
                &mut LatencyGreedy::new(),
                None,
                None,
            )
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_session_scale, bench_engine_vs_reference);
criterion_main!(benches);
