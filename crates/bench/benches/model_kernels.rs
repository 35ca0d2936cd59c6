//! Criterion micro-benchmarks of the surrogate substrates: one critic
//! training pass, one actor training pass, one GP fit — the per-iteration
//! "modeling time" ingredients of the paper's runtime tables.

use criterion::{criterion_group, criterion_main, Criterion};
use dnn_opt::{Actor, Critic, DnnOptConfig};
use gp::{GpRegressor, RbfKernel};
use linalg::Matrix;
use nn::{Activation, Adam, Mlp, TrainWorkspace};
use opt::Fom;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One MSE gradient step, allocating path vs preallocated workspace path:
/// the kernel repeated `critic_epochs + actor_epochs` times per DNN-Opt
/// iteration. Both rows start a fresh network and optimizer every
/// `critic_epochs` steps, as DNN-Opt trains a fresh critic per iteration:
/// one longer Adam run decays its moments into subnormals, and the rows
/// would then mostly time subnormal arithmetic that DNN-Opt never runs.
fn bench_train_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Matrix::from_fn(128, 40, |_, _| rng.gen::<f64>());
    let y = Matrix::from_fn(128, 30, |_, _| rng.gen::<f64>());
    let epochs = DnnOptConfig::default().critic_epochs;
    let fresh = |rng: &mut StdRng| {
        let net = Mlp::new(&[40, 48, 48, 30], Activation::Relu, rng);
        (net, Adam::new(3e-3))
    };

    c.bench_function("mlp_train_step_alloc_b128", |b| {
        let (mut net, mut adam) = fresh(&mut rng);
        let mut step = 0;
        b.iter(|| {
            if step == epochs {
                (net, adam) = fresh(&mut rng);
                step = 0;
            }
            step += 1;
            nn::train_step_mse(&mut net, &mut adam, &x, &y)
        })
    });

    c.bench_function("mlp_train_step_workspace_b128", |b| {
        let (mut net, mut adam) = fresh(&mut rng);
        let mut step = 0;
        let mut ws = TrainWorkspace::new();
        b.iter(|| {
            if step == epochs {
                (net, adam) = fresh(&mut rng);
                step = 0;
            }
            step += 1;
            nn::train_step_mse_ws(&mut net, &mut adam, &x, &y, &mut ws)
        })
    });
}

fn synth(n: usize, d: usize, m: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen()).collect())
        .collect();
    let fs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            (0..m)
                .map(|k| x.iter().map(|v| (v - 0.1 * k as f64).powi(2)).sum::<f64>())
                .collect()
        })
        .collect();
    (xs, fs)
}

fn bench_models(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let (xs, fs) = synth(150, 20, 30, &mut rng);
    let cfg = DnnOptConfig::default();

    c.bench_function("critic_train_n150_d20_m30", |b| {
        b.iter(|| Critic::train(&cfg, &xs, &fs, &mut rng))
    });

    let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
    let fom = Fom::uniform(1.0, 29);
    let elite: Vec<Vec<f64>> = xs[..10].to_vec();
    c.bench_function("actor_train_elite10", |b| {
        b.iter(|| {
            Actor::train(
                &cfg, &critic, &fom, &elite, &[0.0; 20], &[1.0; 20], &mut rng,
            )
        })
    });

    c.bench_function("gp_fit_n200_d20", |b| {
        let x = Matrix::from_fn(200, 20, |_, _| rng.gen());
        let y: Vec<f64> = (0..200).map(|_| rng.gen()).collect();
        b.iter(|| {
            GpRegressor::fit(
                x.clone(),
                y.clone(),
                RbfKernel::isotropic(20, 0.5, 1.0),
                1e-6,
            )
            .unwrap()
        })
    });

    c.bench_function("gp_predict_n200", |b| {
        let x = Matrix::from_fn(200, 20, |_, _| rng.gen());
        let y: Vec<f64> = (0..200).map(|_| rng.gen()).collect();
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(20, 0.5, 1.0), 1e-6).unwrap();
        let q: Vec<f64> = (0..20).map(|_| rng.gen()).collect();
        b.iter(|| gp.predict(&q))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_train_step, bench_models
}
criterion_main!(benches);
