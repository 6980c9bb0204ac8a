//! Criterion benchmarks: one per sweep of the figure table.
//!
//! Each benchmark runs a scaled-down version of the sweep (single seed,
//! 4 % measurement window) and measures the wall-clock cost of
//! regenerating its figures — i.e. the simulator's throughput on those
//! scenarios. Run `cargo run --release -p rperf-bench --bin report` for
//! the full-effort figure data itself.

use criterion::{criterion_group, criterion_main, Criterion};
use rperf_bench::figures::Sweep;
use rperf_bench::Effort;

fn sweeps(c: &mut Criterion) {
    for sweep in Sweep::all() {
        c.bench_function(sweep.id, |b| b.iter(|| sweep.run(&Effort::bench())));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = sweeps
}
criterion_main!(benches);
