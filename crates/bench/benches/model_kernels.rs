//! Criterion micro-benchmarks of the surrogate substrates: one critic
//! training pass, one actor training pass, one GP fit — the per-iteration
//! "modeling time" ingredients of the paper's runtime tables. The row
//! bodies live in `bench::model_kernel_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group! {
    name = benches;
    config = criterion::Criterion::default().sample_size(10);
    targets = bench::model_kernel_rows
}
criterion_main!(benches);
