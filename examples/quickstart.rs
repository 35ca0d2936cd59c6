//! Quickstart: size a small constrained problem with DNN-Opt.
//!
//! Run with `cargo run --release --example quickstart`.

use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{AnalysisSpec, Fom, Optimizer, RunReport, SizingProblem, SpecResult, StopPolicy};

/// A two-variable stand-in for a circuit: minimize "power" x0+x1 subject
/// to a "gain" constraint x0·x1 ≥ 0.2.
struct ToyAmp;

impl SizingProblem for ToyAmp {
    fn dim(&self) -> usize {
        2
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (vec![0.05; 2], vec![1.0; 2])
    }
    fn num_constraints(&self) -> usize {
        1
    }
    fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
        SpecResult {
            failure: None,
            objective: x[0] + x[1],
            constraints: vec![0.2 - x[0] * x[1]],
        }
        .into()
    }
    fn name(&self) -> &str {
        "toy-amp"
    }
}

fn main() {
    let problem = ToyAmp;
    let fom = Fom::uniform(1.0, 1);
    let optimizer = DnnOpt::new(DnnOptConfig::default());

    println!("sizing `{}` with {} ...", problem.name(), optimizer.name());
    let run = optimizer.run(&problem, &fom, 80, StopPolicy::Exhaust, 42);

    let best = run.history.best_feasible().expect("feasible design found");
    println!("simulations used : {}", run.history.len());
    println!(
        "first feasible   : sim #{}",
        run.history.first_feasible().unwrap()
    );
    println!(
        "best design      : x = [{:.4}, {:.4}]",
        best.x[0], best.x[1]
    );
    println!(
        "best objective   : {:.4} (optimum ≈ 0.894)",
        best.spec.objective
    );

    // End-of-run observability: failure taxonomy always; span timings and
    // solver metrics too when `DNNOPT_TRACE` is set (and the drain writes
    // any configured `jsonl:`/`chrome:` trace file).
    println!("\n== run report ==\n{}", RunReport::collect(&run.history));
}
