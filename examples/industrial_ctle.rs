//! The industrial flow on the CTLE (paper §III-B): sensitivity pruning
//! (Eq. 7) followed by a DNN-Opt run on the reduced problem.
//!
//! Run with `cargo run --release --example industrial_ctle`.

use circuits::Ctle;
use dnn_opt::{DnnOpt, DnnOptConfig, ReducedProblem, SensitivityReport};
use opt::{Optimizer, SizingProblem, StopPolicy};

fn main() {
    let ctle = Ctle::new();
    println!(
        "CTLE: {} variables, {} constraints, ~{:.0}k devices (array-expanded)",
        ctle.dim(),
        ctle.num_constraints(),
        ctle.device_count() / 1e3
    );

    // Sensitivity analysis around the designer's starting point.
    let nominal = ctle.nominal();
    let report = SensitivityReport::compute(&ctle, &nominal, 0.05);
    println!("\n== sensitivity scores (Eq. 7) ==\n{}", report.table());
    let critical = report.critical_variables(0.1);
    println!("critical variables: {critical:?}");

    // Optimize only the critical subset.
    let reduced = ReducedProblem::new(&ctle, nominal, critical);
    let fom = reduced.paper_fom();
    let run =
        DnnOpt::new(DnnOptConfig::default()).run(&reduced, &fom, 120, StopPolicy::FirstFeasible, 0);
    match run.sims_to_feasible() {
        Some(n) => println!("\nDNN-Opt met all 14 constraints after {n} simulations"),
        None => println!("\nno feasible design within 120 simulations"),
    }
}
