//! Evaluate and size the StrongARM latch comparator (paper Fig. 5 /
//! Table III / Eq. 10).
//!
//! Run with `cargo run --release --example strongarm_latch -- [budget]`.

use circuits::StrongArmLatch;
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{Optimizer, SizingProblem, StopPolicy};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(150);
    let latch = StrongArmLatch::new();

    println!("== nominal latch against Eq. 10 ==");
    let spec = latch.evaluate(&latch.nominal());
    println!("power    : {:.2} µW at 25 MHz", spec.objective * 1e6);
    println!("feasible : {}", spec.feasible());
    for (i, c) in spec.constraints.iter().enumerate() {
        let name = [
            "set delay",
            "reset delay",
            "area",
            "input noise",
            "diff reset V",
            "diff set V",
            "xp residual",
            "xn residual",
            "outp residual",
            "outn residual",
        ][i];
        println!(
            "  {:<14} {:>8.3} {}",
            name,
            c,
            if *c > 0.0 { "VIOLATED" } else { "ok" }
        );
    }

    println!("\n== DNN-Opt sizing run (budget {budget}) ==");
    let fom = latch.paper_fom();
    let run =
        DnnOpt::new(DnnOptConfig::default()).run(&latch, &fom, budget, StopPolicy::Exhaust, 1);
    println!(
        "best FoM : {:.3}",
        run.history.best().map(|e| e.fom).unwrap_or(f64::NAN)
    );
    match run.history.best_feasible() {
        Some(e) => println!("feasible : {:.2} µW", e.spec.objective * 1e6),
        None => println!("no feasible design inside this budget (paper needs ~330 sims)"),
    }
}
