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
//! [`RunResult`]) and sampling helpers.
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
/// Implementations must be deterministic given `seed` and must never
/// evaluate more than `budget` candidates. Every evaluation goes through an
/// [`Evaluator`], which runs a candidate as the corner × analysis grid of
/// [`SizingProblem::evaluate_analysis`] calls and charges one unit of
/// budget per candidate, however many calls its grid makes.
pub trait Optimizer {
    /// Short display name used in tables and figures.
    fn name(&self) -> &'static str;

    /// Runs the optimizer.
    fn run(
        &self,
        problem: &dyn SizingProblem,
        fom: &Fom,
        budget: usize,
        stop: StopPolicy,
        seed: u64,
    ) -> RunResult;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;

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
