//! Constrained sizing-problem abstraction, figure of merit, and baseline
//! optimizers for the DNN-Opt reproduction.
//!
//! The paper compares DNN-Opt against four optimizers; all of them live
//! here behind the common [`Optimizer`] trait so the benchmark harness can
//! sweep them uniformly:
//!
//! | Paper baseline                       | Implementation |
//! |--------------------------------------|----------------|
//! | Differential Evolution               | [`DifferentialEvolution`] |
//! | BO-wEI (Lyu et al., DAC'18)          | [`BoWei`] |
//! | GASPAD (Liu et al., TCAD'14)         | [`Gaspad`] |
//! | Commercial Simulated Annealing tool  | [`SimulatedAnnealing`] |
//! | (sanity floor)                       | [`RandomSearch`] |
//!
//! Shared infrastructure: [`SizingProblem`] (paper Eq. 1), [`Fom`]
//! (paper Eq. 4), budget/history bookkeeping ([`Evaluator`], [`History`],
//! [`RunResult`]) and sampling helpers. One run harness serves every
//! optimizer, DNN-Opt included: [`Optimizer::run`] owns the clocks, the
//! `run` telemetry span, the [`StopPolicy`] and the [`RunResult`], and an
//! optimizer writes only its [`Optimizer::search`].
//!
//! A problem implements one evaluation body,
//! [`SizingProblem::evaluate_analysis`]: one (corner, analysis) unit of
//! its testbench. [`SizingProblem::evaluate`] runs the unit grid serially
//! and [`Evaluator`] fans it out over the worker pool; both attribute,
//! assemble and fold the units with the same code, so a direct call
//! equals the recorded evaluation bit for bit.
//!
//! # Example
//!
//! ```
//! use opt::{
//!     AnalysisSpec, DifferentialEvolution, Fom, Optimizer, SizingProblem, SpecResult, StopPolicy,
//! };
//!
//! struct Toy;
//! impl SizingProblem for Toy {
//!     fn dim(&self) -> usize { 2 }
//!     fn bounds(&self) -> (Vec<f64>, Vec<f64>) { (vec![-1.0; 2], vec![1.0; 2]) }
//!     fn num_constraints(&self) -> usize { 1 }
//!     // One corner, one analysis: the whole testbench is one unit.
//!     fn evaluate_analysis(&self, x: &[f64], _corner: usize, _analysis: usize) -> AnalysisSpec {
//!         SpecResult { failure: None,
//!             objective: x[0] * x[0] + x[1] * x[1],
//!             constraints: vec![0.25 - x[0]], // require x0 >= 0.25
//!         }
//!         .into()
//!     }
//! }
//!
//! let fom = Fom::uniform(1.0, 1);
//! let run = DifferentialEvolution::default().run(&Toy, &fom, 400, StopPolicy::Exhaust, 0);
//! let best = run.history.best_feasible().expect("feasible design found");
//! assert!(best.x[0] >= 0.25);
//! assert!(best.spec.objective < 0.1);
//! ```

use std::time::Instant;

mod bo_wei;
mod de;
mod failure;
mod fom;
mod gaspad;
mod history;
pub mod parallel;
mod problem;
mod random;
mod sa;
pub mod sampling;

pub use bo_wei::BoWei;
pub use de::DifferentialEvolution;
pub use failure::{FailureDiag, FailureKind, RecoveryStage};
pub use fom::Fom;
pub use gaspad::Gaspad;
pub use history::{
    Evaluation, Evaluator, History, RobustnessReport, RunReport, RunResult, StopPolicy,
};
pub use problem::{
    from_unit, robust_clip_bounds, to_unit, AnalysisSpec, SizingProblem, SpecResult,
    FAILURE_PENALTY,
};
pub use random::RandomSearch;
pub use sa::SimulatedAnnealing;

/// A budgeted black-box optimizer for [`SizingProblem`]s.
///
/// An implementation writes only [`Optimizer::search`]; the provided
/// [`Optimizer::run`] wraps it in the run's bookkeeping. Every evaluation
/// goes through the [`Evaluator`], which runs a candidate as the corner ×
/// analysis grid of [`SizingProblem::evaluate_analysis`] calls and charges
/// one unit of budget per candidate, however many calls its grid makes.
pub trait Optimizer {
    /// Short display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// Searches the problem of `ev`, spending simulations through it.
    ///
    /// A search must be deterministic given `seed`. It must stop once
    /// [`Evaluator::done`] is true (budget spent, or the stop policy met),
    /// checking it at least before every [`Evaluator::evaluate`] and every
    /// [`Evaluator::evaluate_batch`]; a batch may run to its end. Surrogate
    /// fitting and training go inside [`Evaluator::model`], so the run's
    /// model time counts them.
    fn search(&self, ev: &mut Evaluator<'_>, seed: u64);

    /// Runs the optimizer: starts the run clock, opens the `run` span
    /// (argument: the budget), runs [`Optimizer::search`] on an evaluator
    /// with this budget and stop policy, and returns its history and
    /// times. Implementations do not override it.
    fn run(
        &self,
        problem: &dyn SizingProblem,
        fom: &Fom,
        budget: usize,
        stop: StopPolicy,
        seed: u64,
    ) -> RunResult {
        let t0 = Instant::now();
        let _run = telemetry::span_with(telemetry::SpanId::Run, budget as u64);
        let mut ev = Evaluator::new(problem, fom, budget);
        ev.stop = stop;
        self.search(&mut ev, seed);
        RunResult {
            optimizer: self.name().to_string(),
            history: ev.history,
            model_time: ev.model_time,
            sim_time: ev.sim_time,
            total_time: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::{NarrowBand, Sphere};

    /// All optimizers obey the budget and the Optimizer contract.
    #[test]
    fn optimizer_contract_budget() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(DifferentialEvolution::default()),
            Box::new(SimulatedAnnealing::default()),
            Box::new(RandomSearch),
            Box::new(BoWei {
                acq_pop: 8,
                acq_gens: 4,
                ..Default::default()
            }),
            Box::new(Gaspad::default()),
        ];
        for o in &opts {
            let run = o.run(&p, &fom, 60, StopPolicy::Exhaust, 0);
            assert_eq!(run.history.len(), 60, "{} overshot budget", o.name());
            assert!(!o.name().is_empty());
        }
    }

    /// Under `FirstFeasible` the one-at-a-time searches (SA, GASPAD,
    /// BO-wEI) stop at the first feasible design, and the batch searches
    /// (DE, random) at the end of the batch that found it.
    #[test]
    fn optimizer_contract_first_feasible() {
        let budget = 300;
        let problems: [(&dyn SizingProblem, f64); 2] =
            [(&Sphere { d: 3 }, 1.0), (&NarrowBand { d: 2 }, 0.1)];
        // Each optimizer with the size of its evaluation batches.
        let opts: Vec<(Box<dyn Optimizer>, usize)> = vec![
            (Box::new(SimulatedAnnealing::default()), 1),
            (Box::new(Gaspad::default()), 1),
            (
                Box::new(BoWei {
                    acq_pop: 8,
                    acq_gens: 4,
                    ..Default::default()
                }),
                1,
            ),
            (
                Box::new(DifferentialEvolution {
                    population: 20,
                    ..Default::default()
                }),
                20,
            ),
            (Box::new(RandomSearch), RandomSearch::BATCH),
        ];
        let mut found = 0;
        for (p, w0) in problems {
            let fom = Fom::uniform(w0, p.num_constraints());
            for seed in 0..5 {
                for (o, batch) in &opts {
                    let run = o.run(p, &fom, budget, StopPolicy::FirstFeasible, seed);
                    let expected = match run.sims_to_feasible() {
                        Some(n) => {
                            found += 1;
                            (n.div_ceil(*batch) * batch).min(budget)
                        }
                        None => budget,
                    };
                    let label = format!("{} on {}, seed {seed}", o.name(), p.name());
                    assert_eq!(run.history.len(), expected, "{label}");
                }
            }
        }
        assert!(
            found >= 40,
            "only {found} of 50 runs found a feasible design"
        );
    }

    /// Determinism across the whole suite.
    #[test]
    fn optimizer_contract_determinism() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(DifferentialEvolution::default()),
            Box::new(SimulatedAnnealing::default()),
            Box::new(RandomSearch),
            Box::new(Gaspad::default()),
        ];
        for o in &opts {
            let a = o.run(&p, &fom, 40, StopPolicy::Exhaust, 17);
            let b = o.run(&p, &fom, 40, StopPolicy::Exhaust, 17);
            assert_eq!(
                a.history.best_trace(),
                b.history.best_trace(),
                "{}",
                o.name()
            );
        }
    }
}
