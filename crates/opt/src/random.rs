//! Pure random search — the sanity-floor baseline.

use rand::{rngs::StdRng, SeedableRng};

use crate::history::Evaluator;
use crate::sampling::sample_uniform;
use crate::Optimizer;

/// Uniform random sampling of the design box. Any serious optimizer must
/// beat this; it also provides the paper's "random RL agent" intuition
/// floor.
///
/// Candidates are drawn (serially, from the seeded master RNG) in batches
/// of [`RandomSearch::BATCH`] and evaluated in parallel via
/// [`Evaluator::evaluate_batch`]; the batch size is a fixed constant so
/// recorded histories never depend on the machine's thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomSearch;

impl RandomSearch {
    /// Candidates evaluated per parallel batch.
    pub const BATCH: usize = 32;
}

impl Optimizer for RandomSearch {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lb, ub) = ev.problem().bounds();
        while !ev.done() {
            let n = ev.remaining().min(Self::BATCH);
            let xs = sample_uniform(&mut rng, &lb, &ub, n);
            ev.evaluate_batch(&xs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;
    use crate::{Fom, SizingProblem, StopPolicy};

    #[test]
    fn uses_exact_budget() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = RandomSearch.run(&p, &fom, 50, StopPolicy::Exhaust, 0);
        assert_eq!(run.history.len(), 50);
    }

    #[test]
    fn eventually_hits_generous_feasible_region() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = RandomSearch.run(&p, &fom, 500, StopPolicy::FirstFeasible, 123);
        assert!(run.sims_to_feasible().is_some());
    }

    #[test]
    fn best_trace_never_increases() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = RandomSearch.run(&p, &fom, 200, StopPolicy::Exhaust, 5);
        for w in run.history.best_trace().windows(2) {
            assert!(w[1] <= w[0]);
        }
    }
}
