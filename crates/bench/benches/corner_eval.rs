//! Criterion benchmarks of the PVT corner-sweep evaluation plane: the
//! candidate×corner grid the scenario engine runs for sign-off-style
//! worst-case evaluation, on the real testbenches. `repro baseline`
//! re-times the `ota_corner_eval_*` rows into `BENCH_baseline.json`.

use circuits::tech::CornerSet;
use circuits::{FoldedCascodeOta, LevelShifter};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opt::{parallel, Evaluator, Fom, SizingProblem};

/// One candidate through the OTA's nominal-only plane (the legacy path the
/// 5-corner row is compared against).
fn bench_ota_nominal_eval(c: &mut Criterion) {
    let ota = FoldedCascodeOta::new();
    let x = ota.nominal();
    c.bench_function("ota_corner_eval_1c", |b| {
        b.iter(|| black_box(ota.evaluate(black_box(&x))).objective)
    });
}

/// One candidate through the OTA's standard 5-corner sign-off plane —
/// every corner re-runs the full measurement suite on its derated
/// technology through pooled per-topology workspaces.
fn bench_ota_corner_eval(c: &mut Criterion) {
    let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
    let x = ota.nominal();
    c.bench_function("ota_corner_eval_5c", |b| {
        b.iter(|| black_box(ota.evaluate(black_box(&x))).objective)
    });
}

/// The level shifter's six-supply-corner plane through the shared engine
/// (the migration target of the old private corner loop).
fn bench_level_shifter_corner_eval(c: &mut Criterion) {
    let ls = LevelShifter::new();
    let x = SizingProblem::nominal(&ls);
    c.bench_function("level_shifter_corner_eval_6c", |b| {
        b.iter(|| black_box(ls.evaluate(black_box(&x))).objective)
    });
}

/// A small population through the candidate×corner unit grid of
/// `Evaluator::evaluate_batch`, serial vs parallel.
fn bench_corner_grid_batch(c: &mut Criterion) {
    let ls = LevelShifter::new();
    let fom = Fom::uniform(1.0, ls.num_constraints());
    let nominal = SizingProblem::nominal(&ls);
    let (lb, ub) = ls.bounds();
    let pop: Vec<Vec<f64>> = (0..4)
        .map(|i| {
            let t = (i as f64 / 3.0 - 0.5) * 0.05;
            nominal
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                .collect()
        })
        .collect();
    c.bench_function("corner_grid_4x6_level_shifter_serial", |b| {
        parallel::set_max_threads(1);
        b.iter(|| {
            let mut ev = Evaluator::new(&ls, &fom, pop.len());
            black_box(ev.evaluate_batch(&pop).len())
        });
        parallel::set_max_threads(0);
    });
    c.bench_function("corner_grid_4x6_level_shifter_parallel", |b| {
        parallel::set_max_threads(0);
        b.iter(|| {
            let mut ev = Evaluator::new(&ls, &fom, pop.len());
            black_box(ev.evaluate_batch(&pop).len())
        })
    });
}

criterion_group!(
    benches,
    bench_ota_nominal_eval,
    bench_ota_corner_eval,
    bench_level_shifter_corner_eval,
    bench_corner_grid_batch
);
criterion_main!(benches);
