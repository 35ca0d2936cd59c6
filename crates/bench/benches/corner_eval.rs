//! Criterion benchmarks of the PVT corner-sweep evaluation plane: the
//! candidate×corner grid the scenario engine runs for sign-off-style
//! worst-case evaluation, on the real testbenches. The row bodies live in
//! `bench::corner_eval_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group!(benches, bench::corner_eval_rows);
criterion_main!(benches);
