//! Criterion benchmarks of the workspace's one parallel layer: the
//! candidate×corner×analysis population grid at one worker, the default
//! cap and 1/2/4/8 workers. The
//! kernels under a grid unit (sparse and dense solves, GEMM) run serially,
//! so this grid is the only place thread count changes wall-clock time.
//!
//! On a single-core host every thread count times the same arithmetic
//! plus dispatch overhead; on a multi-core host the same rows show the
//! scaling. `repro baseline` records the host's core count next to every
//! row so the two regimes are never confused. The row bodies live in
//! `bench::parallel_scaling_rows`, shared with `repro baseline`.

use criterion::{criterion_group, criterion_main};

criterion_group!(benches, bench::parallel_scaling_rows);
criterion_main!(benches);
