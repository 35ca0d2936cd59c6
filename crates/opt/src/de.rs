//! Differential Evolution (the paper's model-free baseline).

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::history::Evaluator;
use crate::sampling::latin_hypercube;
use crate::Optimizer;

/// DE/rand/1/bin with FoM-based selection (constraint handling comes from
/// Eq. 4's violation terms, matching how the paper compares methods on the
/// same FoM scale).
///
/// Uses the *synchronous* (generational) update: every generation breeds a
/// full trial population from the current population snapshot, evaluates
/// all trials as one batch — in parallel across worker threads via
/// [`Evaluator::evaluate_batch`] — and then applies one-to-one selection.
/// Each trial is bred with its own RNG seeded from `(seed, generation,
/// index)` ([`crate::parallel::candidate_seed`]), so runs are bit-identical
/// regardless of thread count.
///
/// # Example
///
/// ```
/// use opt::{DifferentialEvolution, Fom, Optimizer, StopPolicy};
/// # use opt::{AnalysisSpec, SizingProblem, SpecResult};
/// # struct P;
/// # impl SizingProblem for P {
/// #     fn dim(&self) -> usize { 2 }
/// #     fn bounds(&self) -> (Vec<f64>, Vec<f64>) { (vec![0.0; 2], vec![1.0; 2]) }
/// #     fn num_constraints(&self) -> usize { 0 }
/// #     fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
/// #         SpecResult { failure: None, objective: x.iter().map(|v| v * v).sum(), constraints: vec![] }
/// #             .into()
/// #     }
/// # }
/// let de = DifferentialEvolution::default();
/// let fom = Fom::uniform(1.0, 0);
/// let run = de.run(&P, &fom, 300, StopPolicy::Exhaust, 42);
/// assert!(run.history.best().unwrap().fom < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct DifferentialEvolution {
    /// Population size; 0 means `max(20, 4·d)` chosen automatically.
    pub population: usize,
    /// Differential weight F.
    pub f: f64,
    /// Crossover rate CR.
    pub cr: f64,
}

impl Default for DifferentialEvolution {
    fn default() -> Self {
        DifferentialEvolution {
            population: 0,
            f: 0.6,
            cr: 0.4,
        }
    }
}

impl DifferentialEvolution {
    fn pop_size(&self, dim: usize) -> usize {
        if self.population > 0 {
            self.population
        } else {
            (4 * dim).max(20)
        }
    }
}

impl Optimizer for DifferentialEvolution {
    fn name(&self) -> &'static str {
        "DE"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lb, ub) = ev.problem().bounds();
        let d = ev.problem().dim();
        let np = self.pop_size(d).min(ev.budget().max(1));

        // Initial population, evaluated as one parallel batch. A budget
        // smaller than the population ends the run here (`done`).
        let mut pop = latin_hypercube(&mut rng, &lb, &ub, np);
        let mut fit: Vec<f64> = ev.evaluate_batch(&pop).iter().map(|e| e.fom).collect();

        let mut generation: u64 = 0;
        while !ev.done() {
            generation += 1;
            // Breed a full trial generation from the current population
            // snapshot. Each trial uses its own deterministic RNG, so the
            // generation is independent of evaluation order.
            let trials: Vec<Vec<f64>> = (0..np)
                .map(|i| {
                    let mut crng = StdRng::seed_from_u64(crate::parallel::candidate_seed(
                        seed, generation, i as u64,
                    ));
                    // Three distinct donors, all different from i.
                    let mut pick = || loop {
                        let k = crng.gen_range(0..np);
                        if k != i {
                            return k;
                        }
                    };
                    let (r1, r2, r3) = {
                        let a = pick();
                        let b = loop {
                            let k = pick();
                            if k != a {
                                break k;
                            }
                        };
                        let c = loop {
                            let k = pick();
                            if k != a && k != b {
                                break k;
                            }
                        };
                        (a, b, c)
                    };
                    // Mutation + binomial crossover.
                    let jrand = crng.gen_range(0..d);
                    let mut trial = pop[i].clone();
                    for j in 0..d {
                        if j == jrand || crng.gen::<f64>() < self.cr {
                            let v = pop[r1][j] + self.f * (pop[r2][j] - pop[r3][j]);
                            trial[j] = v.clamp(lb[j], ub[j]);
                        }
                    }
                    trial
                })
                .collect();
            // Parallel batch evaluation, then one-to-one selection.
            let evals = ev.evaluate_batch(&trials);
            for (i, e) in evals.iter().enumerate() {
                if e.fom <= fit[i] {
                    pop[i].copy_from_slice(&trials[i]);
                    fit[i] = e.fom;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::{NarrowBand, Sphere};
    use crate::{Fom, SizingProblem, StopPolicy};

    #[test]
    fn solves_constrained_sphere() {
        let p = Sphere { d: 5 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution::default();
        let run = de.run(&p, &fom, 2000, StopPolicy::Exhaust, 1);
        let best = run.history.best_feasible().expect("should find feasible");
        assert!(
            best.spec.objective < 0.05,
            "objective {}",
            best.spec.objective
        );
        assert_eq!(run.history.len(), 2000);
    }

    #[test]
    fn first_feasible_stops_early() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution::default();
        let run = de.run(&p, &fom, 5000, StopPolicy::FirstFeasible, 3);
        assert!(run.history.len() < 5000);
        assert!(run.sims_to_feasible().is_some());
    }

    #[test]
    fn finds_narrow_band_eventually() {
        let p = NarrowBand { d: 2 };
        let fom = Fom::uniform(0.1, p.num_constraints());
        let de = DifferentialEvolution::default();
        let run = de.run(&p, &fom, 3000, StopPolicy::FirstFeasible, 7);
        assert!(
            run.sims_to_feasible().is_some(),
            "DE should locate the 0.05-wide band in 3000 sims"
        );
    }

    #[test]
    fn respects_budget_exactly() {
        let p = Sphere { d: 4 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution::default();
        let run = de.run(&p, &fom, 137, StopPolicy::Exhaust, 5);
        assert_eq!(run.history.len(), 137);
    }

    #[test]
    fn tiny_budget_does_not_panic() {
        let p = Sphere { d: 4 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution::default();
        let run = de.run(&p, &fom, 3, StopPolicy::Exhaust, 5);
        assert_eq!(run.history.len(), 3);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution::default();
        let a = de.run(&p, &fom, 200, StopPolicy::Exhaust, 11);
        let b = de.run(&p, &fom, 200, StopPolicy::Exhaust, 11);
        assert_eq!(a.history.best_trace(), b.history.best_trace());
    }

    #[test]
    fn population_stays_in_bounds() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let de = DifferentialEvolution {
            population: 10,
            f: 0.9,
            cr: 1.0,
        };
        let run = de.run(&p, &fom, 300, StopPolicy::Exhaust, 2);
        for e in run.history.entries() {
            for &v in &e.x {
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }
}
