//! GASPAD: GP-assisted evolutionary optimization, after Liu et al.,
//! "GASPAD: A general and efficient mm-wave IC synthesis method based on
//! surrogate model assisted evolutionary algorithm", IEEE TCAD 2014.
//!
//! Structure (surrogate-model-aware evolutionary search): keep a population
//! of the best designs; each iteration breed a full generation of DE
//! offspring, *prescreen* them with a GP fitted on the FoM landscape, and
//! spend exactly one real simulation on the offspring with the best
//! lower-confidence-bound. Constraint handling rides on the FoM (Eq. 4)
//! exactly as in the DNN-Opt comparison protocol.

use gp::lower_confidence_bound;
use linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::bo_wei::{best_lengthscale, fit_plain};
use crate::history::Evaluator;
use crate::problem::to_unit;
use crate::sampling::latin_hypercube;
use crate::Optimizer;

/// Configuration for [`Gaspad`].
#[derive(Debug, Clone)]
pub struct Gaspad {
    /// Initial LHS samples; 0 means `max(2·d, 20)`.
    pub n_init: usize,
    /// Evolution population size; 0 means `max(20, 3·d)`.
    pub population: usize,
    /// DE differential weight.
    pub f: f64,
    /// DE crossover rate.
    pub cr: f64,
    /// LCB exploration factor κ.
    pub kappa: f64,
    /// Maximum GP training points (most recent window).
    pub max_train: usize,
    /// Re-tune the GP lengthscale every this many iterations.
    pub refit_every: usize,
}

impl Default for Gaspad {
    fn default() -> Self {
        Gaspad {
            n_init: 0,
            population: 0,
            f: 0.6,
            cr: 0.35,
            kappa: 2.0,
            max_train: 220,
            refit_every: 20,
        }
    }
}

impl Optimizer for Gaspad {
    fn name(&self) -> &'static str {
        "GASPAD"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lb, ub) = ev.problem().bounds();
        let d = ev.problem().dim();
        let np = if self.population > 0 {
            self.population
        } else {
            (3 * d).max(20)
        };
        let n_init = if self.n_init > 0 {
            self.n_init
        } else {
            (2 * d).max(20)
        }
        .min(ev.budget());

        for x in latin_hypercube(&mut rng, &lb, &ub, n_init) {
            if ev.done() {
                break;
            }
            ev.evaluate(&x);
        }

        let mut lengthscale = 0.5;
        let mut iter = 0usize;
        while !ev.done() {
            let history = ev.history().entries();
            // Population = best `np` designs so far.
            let mut order: Vec<usize> = (0..history.len()).collect();
            order.sort_by(|&a, &b| history[a].fom.partial_cmp(&history[b].fom).unwrap());
            order.truncate(np.min(history.len()));
            let pop: Vec<Vec<f64>> = order.iter().map(|&i| history[i].x.clone()).collect();

            // GP on FoM over the most recent window.
            let start = history.len().saturating_sub(self.max_train);
            let window = &history[start..];
            let rows: Vec<Vec<f64>> = window.iter().map(|e| to_unit(&e.x, &lb, &ub)).collect();
            let xs = Matrix::from_fn(rows.len(), d, |i, j| rows[i][j]);
            // Robust-clip the FoM targets: failure penalties are cliffs of
            // ~1e14 that would otherwise flatten the whole GP landscape.
            let raw_ys: Vec<f64> = window.iter().map(|e| e.fom).collect();
            let (clo, chi) = crate::problem::robust_clip_bounds(&raw_ys);
            let ys: Vec<f64> = raw_ys.iter().map(|y| y.clamp(clo, chi)).collect();
            let gp = ev.model(|| {
                if iter.is_multiple_of(self.refit_every) {
                    lengthscale = best_lengthscale(&xs, &ys).unwrap_or(lengthscale);
                }
                fit_plain(&xs, &ys, lengthscale)
            });

            // Breed one offspring per population member; prescreen with LCB.
            let npop = pop.len();
            let mut best_child: Option<(Vec<f64>, f64)> = None;
            for i in 0..npop {
                let mut pick = || rng.gen_range(0..npop);
                let (r1, r2) = (pick(), pick());
                let jrand = rng.gen_range(0..d);
                let mut child = pop[i].clone();
                for j in 0..d {
                    if j == jrand || rng.gen::<f64>() < self.cr {
                        // DE/best/1: mutate around the incumbent best.
                        let v = pop[0][j] + self.f * (pop[r1][j] - pop[r2][j]);
                        child[j] = v.clamp(lb[j], ub[j]);
                    }
                }
                let score = match &gp {
                    Some(g) => {
                        let (mean, var) = g.predict(&to_unit(&child, &lb, &ub));
                        lower_confidence_bound(mean, var, self.kappa)
                    }
                    None => rng.gen::<f64>(), // degenerate GP: random pick
                };
                if best_child.as_ref().is_none_or(|(_, s)| score < *s) {
                    best_child = Some((child, score));
                }
            }
            let (child, _) = best_child.expect("population is non-empty");
            ev.evaluate(&child);
            iter += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;
    use crate::random::RandomSearch;
    use crate::{Fom, SizingProblem, StopPolicy};

    #[test]
    fn beats_random_search() {
        let p = Sphere { d: 5 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = Gaspad::default().run(&p, &fom, 120, StopPolicy::Exhaust, 4);
        let rnd = RandomSearch.run(&p, &fom, 120, StopPolicy::Exhaust, 4);
        assert!(
            run.history.best().unwrap().fom < rnd.history.best().unwrap().fom,
            "GASPAD {} vs random {}",
            run.history.best().unwrap().fom,
            rnd.history.best().unwrap().fom
        );
    }

    #[test]
    fn spends_one_sim_per_iteration_after_init() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let g = Gaspad {
            n_init: 20,
            ..Default::default()
        };
        let run = g.run(&p, &fom, 50, StopPolicy::Exhaust, 7);
        // 20 init + 30 iterations = exactly the budget.
        assert_eq!(run.history.len(), 50);
        assert!(!run.model_time.is_zero());
    }

    #[test]
    fn first_feasible_stop_works() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = Gaspad::default().run(&p, &fom, 200, StopPolicy::FirstFeasible, 9);
        assert!(run.sims_to_feasible().is_some());
        assert!(run.history.len() <= 200);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let a = Gaspad::default().run(&p, &fom, 60, StopPolicy::Exhaust, 11);
        let b = Gaspad::default().run(&p, &fom, 60, StopPolicy::Exhaust, 11);
        assert_eq!(a.history.best_trace(), b.history.best_trace());
    }
}
