//! Criterion micro-benchmarks of the dense GEMM engine: the naive
//! reference triple loop vs the `gemm` entry point on the critic/actor
//! training shapes plus a multi-panel shape that exercises the MC/KC
//! blocking, and the eight products of one critic training step. The row
//! bodies live in `bench::gemm_kernel_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group! {
    name = benches;
    config = criterion::Criterion::default().sample_size(10);
    targets = bench::gemm_kernel_rows
}
criterion_main!(benches);
