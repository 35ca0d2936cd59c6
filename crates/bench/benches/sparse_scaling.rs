//! Criterion benchmarks of the sparse LU at post-layout scale: the scalar
//! Gilbert–Peierls refactorization on extraction-style RC meshes
//! (`circuits::mesh::build_rc_grid`) at n = 200 / 500 / 1000 unknowns.
//! Each iteration is one scan-free numeric factorization — exactly what
//! the simulator pays per Newton step once the pivot sequence is recorded
//! (the triangular solves are timed elsewhere). The complex rows replay
//! every `G + jωC` point of the mesh AC sweep. The replay is serial; the
//! evaluation grid runs many of them at once. `BENCH_baseline.json`
//! records the reference numbers. The row bodies live in
//! `bench::sparse_scaling_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group! {
    name = benches;
    config = criterion::Criterion::default().sample_size(10);
    targets = bench::sparse_scaling_rows
}
criterion_main!(benches);
