//! Ablation benchmarks for two DNN-Opt design choices: pseudo-sample
//! construction cost, full N² (paper Eq. 2) against the locality-biased
//! subsample `dnn_opt::pseudo::PseudoSampler` draws once N² outgrows the
//! per-epoch budget, and the cost of the restricted-bounds machinery
//! (paper Eq. 6).

use criterion::{criterion_group, criterion_main, Criterion};
use dnn_opt::pseudo::{all_pseudo_samples, PseudoSampler};
use dnn_opt::restricted_bounds;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn bench_ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let xs: Vec<Vec<f64>> = (0..120)
        .map(|_| (0..20).map(|_| rng.gen()).collect())
        .collect();
    let fs: Vec<Vec<f64>> = (0..120)
        .map(|_| (0..30).map(|_| rng.gen()).collect())
        .collect();

    c.bench_function("pseudo_full_14400_pairs", |b| {
        b.iter(|| all_pseudo_samples(&xs, &fs))
    });

    c.bench_function("pseudo_subsample_1024", |b| {
        let targets = linalg::Matrix::from_fn(120, 30, |i, j| fs[i][j]);
        let (mut inp, mut out) = (linalg::Matrix::default(), linalg::Matrix::default());
        b.iter(|| PseudoSampler::new(&xs, &targets).sample_into(1024, &mut rng, &mut inp, &mut out))
    });

    c.bench_function("restricted_bounds_elite10_d20", |b| {
        let elite = &xs[..10];
        b.iter(|| restricted_bounds(elite))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ablation
}
criterion_main!(benches);
