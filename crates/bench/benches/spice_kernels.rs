//! Criterion micro-benchmarks of the simulator substrate: the per-analysis
//! costs that make one "SPICE simulation" expensive, and the sparse LU
//! kernels the simulator runs, each checked against the dense
//! `linalg::reference` elimination before it is timed
//! (`BENCH_baseline.json` records the numbers). The row bodies live in
//! `bench::spice_kernel_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group! {
    name = benches;
    config = criterion::Criterion::default().sample_size(10);
    targets = bench::spice_kernel_rows
}
criterion_main!(benches);
