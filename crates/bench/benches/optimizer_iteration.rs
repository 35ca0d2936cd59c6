//! Criterion benchmark of whole optimizer iterations on a cheap synthetic
//! problem (the fixed per-simulation overhead each method adds), plus the
//! serial-vs-parallel population-evaluation comparison on a problem whose
//! `evaluate` runs a real Newton solve. The OTA population rows
//! (`population_eval_16_ota_*`) live in `bench::parallel_scaling_rows`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    parallel, AnalysisSpec, DifferentialEvolution, Evaluator, Fom, Gaspad, Optimizer,
    SizingProblem, SpecResult, StopPolicy,
};
use spice::{Circuit, SimOptions, Waveform, GND};

struct Cheap;
impl SizingProblem for Cheap {
    fn dim(&self) -> usize {
        10
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; 10], vec![1.0; 10])
    }
    fn num_constraints(&self) -> usize {
        3
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        SpecResult {
            failure: None,
            objective: x.iter().map(|v| (v - 0.4).powi(2)).sum(),
            constraints: vec![0.2 - x[0], 0.2 - x[1], x.iter().sum::<f64>() - 8.0],
        }
        .into()
    }
}

/// A sizing problem whose evaluation is a genuine SPICE workload: a
/// common-source stage sized by (w, rd), measured by a 24-point DC
/// transfer sweep — the same shape of work as the circuits crate's
/// testbenches, and expensive enough that population parallelism matters.
struct SpiceStage;

impl SizingProblem for SpiceStage {
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![1e-6, 1e3], vec![40e-6, 40e3])
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        let (w, rd) = (x[0], x[1]);
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
        c.add_vsource("VG", g, GND, Waveform::Dc(0.7)).unwrap();
        c.add_resistor("RD", vdd, d, rd).unwrap();
        c.add_mosfet("M1", d, g, GND, GND, &bench::bench_nmos(), w, 0.5e-6, 1.0)
            .unwrap();
        match spice::op(&c, &SimOptions::default()) {
            Ok(op) => {
                let m = op.mos_op("M1").unwrap();
                // Minimize current, require 0.4 V of swing headroom.
                SpecResult {
                    failure: None,
                    objective: m.id * 1e3,
                    constraints: vec![0.4 - op.voltage(d)],
                }
                .into()
            }
            Err(_) => SpecResult::failed(1).into(),
        }
    }
}

/// Population evaluation of the cheap 2-variable SPICE stage (24-point DC
/// sweep per candidate), one worker vs all cores. Results are identical either way (see
/// `tests/parallel_determinism.rs`); the wall-clock gap is the point, and
/// it only appears once per-candidate work dwarfs thread startup.
fn bench_population_eval(c: &mut Criterion) {
    let fom = Fom::uniform(1.0, 1);
    let problem = SpiceStage;
    let (lb, ub) = problem.bounds();
    let pop: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            let t = i as f64 / 63.0;
            lb.iter().zip(&ub).map(|(&l, &u)| l + t * (u - l)).collect()
        })
        .collect();

    c.bench_function("population_eval_64_stage_serial", |b| {
        parallel::set_max_threads(1);
        b.iter(|| {
            let mut ev = Evaluator::new(&problem, &fom, pop.len());
            black_box(ev.evaluate_batch(&pop).len())
        });
        parallel::set_max_threads(0);
    });

    c.bench_function("population_eval_64_stage_parallel", |b| {
        parallel::set_max_threads(0);
        b.iter(|| {
            let mut ev = Evaluator::new(&problem, &fom, pop.len());
            black_box(ev.evaluate_batch(&pop).len())
        })
    });
}

fn bench_iterations(c: &mut Criterion) {
    let fom = Fom::uniform(1.0, 3);

    c.bench_function("de_60_sims", |b| {
        b.iter(|| DifferentialEvolution::default().run(&Cheap, &fom, 60, StopPolicy::Exhaust, 0))
    });

    c.bench_function("gaspad_60_sims", |b| {
        b.iter(|| Gaspad::default().run(&Cheap, &fom, 60, StopPolicy::Exhaust, 0))
    });

    c.bench_function("dnn_opt_30_sims", |b| {
        let cfg = DnnOptConfig {
            critic_epochs: 60,
            actor_epochs: 20,
            critic_batch: 64,
            hidden: 24,
            ..Default::default()
        };
        b.iter(|| DnnOpt::new(cfg.clone()).run(&Cheap, &fom, 30, StopPolicy::Exhaust, 0))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_population_eval, bench_iterations
}
criterion_main!(benches);
