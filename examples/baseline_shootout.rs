//! All six optimizers side by side on a cheap synthetic sizing problem.
//!
//! Run with `cargo run --release --example baseline_shootout`.

use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    AnalysisSpec, BoWei, DifferentialEvolution, Fom, Gaspad, Optimizer, RandomSearch,
    SimulatedAnnealing, SizingProblem, SpecResult, StopPolicy,
};

/// Constrained Rosenbrock-flavored problem in 6-d.
struct Bench;

impl SizingProblem for Bench {
    fn dim(&self) -> usize {
        6
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; 6], vec![1.0; 6])
    }
    fn num_constraints(&self) -> usize {
        2
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        let obj: f64 = (0..5)
            .map(|i| 4.0 * (x[i + 1] - x[i] * x[i]).powi(2) + (1.0 - x[i]).powi(2))
            .sum();
        SpecResult {
            failure: None,
            objective: obj,
            constraints: vec![x.iter().sum::<f64>() - 4.5, 0.35 - x[0]],
        }
        .into()
    }
    fn name(&self) -> &str {
        "rosenbrock-6d"
    }
}

fn main() {
    let fom = Fom::uniform(0.3, 2);
    let budget = 250;
    println!(
        "{:<10} {:>8} {:>14} {:>10}",
        "method", "budget", "first feasible", "best FoM"
    );
    let methods: Vec<Box<dyn Optimizer>> = vec![
        Box::new(RandomSearch),
        Box::new(DifferentialEvolution::default()),
        Box::new(SimulatedAnnealing::default()),
        Box::new(BoWei::default()),
        Box::new(Gaspad::default()),
        Box::new(DnnOpt::new(DnnOptConfig::default())),
    ];
    for m in methods {
        let run = m.run(&Bench, &fom, budget, StopPolicy::Exhaust, 3);
        println!(
            "{:<10} {:>8} {:>14} {:>10.4}",
            m.name(),
            budget,
            run.sims_to_feasible()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into()),
            run.history.best().map(|e| e.fom).unwrap_or(f64::NAN)
        );
    }
}
