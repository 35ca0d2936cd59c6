//! Bayesian Optimization with weighted Expected Improvement (BO-wEI),
//! after Lyu et al., "Multi-objective Bayesian optimization for analog/RF
//! circuit synthesis", DAC 2018 — the paper's constrained-BO baseline.
//!
//! Per iteration the method fits one GP to the objective and one GP to each
//! constraint (on inputs normalized to the unit cube), then maximizes the
//! acquisition
//!
//! ```text
//! α(x) = wEI(x) · Π_i PoF_i(x)        (a feasible design is known)
//! α(x) = Π_i PoF_i(x)                 (no feasible design yet)
//! ```
//!
//! with an inner DE on the cheap surrogate. Two fidelity/cost trade-offs
//! depart from the original: training inputs are windowed to the best
//! `max_train` points, and kernel hyperparameters are re-tuned every
//! `refit_every` iterations instead of every iteration. An exact GP fit
//! costs O(N³) in the training-set size, so without the window and the
//! sparser re-tuning the baseline's model time would grow cubically over a
//! run of hundreds of simulations.

use gp::{probability_of_feasibility, weighted_expected_improvement, GpRegressor, RbfKernel};
use linalg::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::history::{Evaluation, Evaluator};
use crate::problem::{from_unit, robust_clip_bounds, to_unit};
use crate::sampling::latin_hypercube;
use crate::Optimizer;

/// Configuration for [`BoWei`].
#[derive(Debug, Clone)]
pub struct BoWei {
    /// Initial LHS samples; 0 means `max(2·d, 20)`.
    pub n_init: usize,
    /// Exploitation weight `w` of the weighted EI.
    pub w: f64,
    /// Maximum training points per GP (best-FoM window).
    pub max_train: usize,
    /// Re-tune kernel hyperparameters every this many iterations.
    pub refit_every: usize,
    /// Inner-DE population for acquisition maximization.
    pub acq_pop: usize,
    /// Inner-DE generations for acquisition maximization.
    pub acq_gens: usize,
}

impl Default for BoWei {
    fn default() -> Self {
        BoWei {
            n_init: 0,
            w: 0.5,
            max_train: 220,
            refit_every: 20,
            acq_pop: 24,
            acq_gens: 25,
        }
    }
}

/// Selects up to `cap` training indices: all points if they fit, otherwise
/// the best-FoM points (they shape the region BO should refine).
fn training_window(history: &[Evaluation], cap: usize) -> Vec<usize> {
    if history.len() <= cap {
        return (0..history.len()).collect();
    }
    let mut idx: Vec<usize> = (0..history.len()).collect();
    idx.sort_by(|&a, &b| history[a].fom.partial_cmp(&history[b].fom).unwrap());
    idx.truncate(cap);
    idx
}

impl Optimizer for BoWei {
    fn name(&self) -> &'static str {
        "BO-wEI"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lb, ub) = ev.problem().bounds();
        let d = ev.problem().dim();
        let m = ev.problem().num_constraints();
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
            let idx = training_window(history, self.max_train);
            let rows: Vec<Vec<f64>> = idx
                .iter()
                .map(|&i| to_unit(&history[i].x, &lb, &ub))
                .collect();
            let xs = Matrix::from_fn(rows.len(), d, |i, j| rows[i][j]);
            // Robustly clipped targets for the objective and each constraint.
            let clip = |raw: Vec<f64>| -> Vec<f64> {
                let (clo, chi) = robust_clip_bounds(&raw);
                raw.iter().map(|y| y.clamp(clo, chi)).collect()
            };
            let y_obj = clip(idx.iter().map(|&i| history[i].spec.objective).collect());
            let y_cons: Vec<Vec<f64>> = (0..m)
                .map(|c| {
                    clip(
                        idx.iter()
                            .map(|&i| history[i].spec.constraints[c])
                            .collect(),
                    )
                })
                .collect();
            let best_feasible_obj = history
                .iter()
                .filter(|e| e.feasible)
                .map(|e| e.spec.objective)
                .fold(f64::INFINITY, f64::min);

            let (obj_gp, con_gps) = ev.model(|| {
                // Objective GP: hyper-tuned periodically, cached
                // lengthscale otherwise.
                let obj_gp = if iter.is_multiple_of(self.refit_every) {
                    let g = GpRegressor::fit_hyperopt(xs.clone(), y_obj.clone());
                    if g.is_ok() {
                        lengthscale = best_lengthscale(&xs, &y_obj).unwrap_or(lengthscale);
                    }
                    g.ok()
                } else {
                    fit_plain(&xs, &y_obj, lengthscale)
                };
                // Constraint GPs share the cached lengthscale.
                let con_gps: Vec<Option<GpRegressor>> = y_cons
                    .iter()
                    .map(|yc| fit_plain(&xs, yc, lengthscale))
                    .collect();
                (obj_gp, con_gps)
            });

            // Acquisition (to maximize).
            let acq = |u: &[f64]| -> f64 {
                let mut pof = 1.0;
                for g in con_gps.iter().flatten() {
                    let (mean, var) = g.predict(u);
                    pof *= probability_of_feasibility(mean, var);
                }
                if best_feasible_obj.is_finite() {
                    let wei = obj_gp
                        .as_ref()
                        .map(|g| {
                            let (mean, var) = g.predict(u);
                            weighted_expected_improvement(mean, var, best_feasible_obj, self.w)
                        })
                        .unwrap_or(1.0);
                    wei * pof
                } else {
                    pof
                }
            };

            // Inner DE in the unit cube on the surrogate.
            let next_u = maximize_with_de(&acq, d, self.acq_pop, self.acq_gens, &mut rng);
            ev.evaluate(&from_unit(&next_u, &lb, &ub));
            iter += 1;
        }
    }
}

/// Fits a plain GP with a fixed isotropic lengthscale and data-scaled
/// variance; `None` when the fit fails (degenerate data).
pub(crate) fn fit_plain(x: &Matrix, y: &[f64], lengthscale: f64) -> Option<GpRegressor> {
    let n = y.len().max(1) as f64;
    let mean = y.iter().sum::<f64>() / n;
    let var = (y.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).max(1e-12);
    let kernel = RbfKernel::isotropic(x.cols().max(1), lengthscale, var);
    GpRegressor::fit(x.clone(), y.to_vec(), kernel, 1e-6 * var).ok()
}

/// Small lengthscale grid search by log marginal likelihood.
pub(crate) fn best_lengthscale(x: &Matrix, y: &[f64]) -> Option<f64> {
    let mut best = None;
    for &ls in &[0.1, 0.2, 0.5, 1.0, 2.0] {
        if let Some(gp) = fit_plain(x, y, ls) {
            let lml = gp.log_marginal_likelihood();
            if best.is_none_or(|(_, b)| lml > b) {
                best = Some((ls, lml));
            }
        }
    }
    best.map(|(ls, _)| ls)
}

/// Maximizes a cheap function over the unit cube with a small DE.
pub(crate) fn maximize_with_de<R: Rng + ?Sized>(
    f: &dyn Fn(&[f64]) -> f64,
    d: usize,
    pop: usize,
    gens: usize,
    rng: &mut R,
) -> Vec<f64> {
    let np = pop.max(4);
    let mut xs: Vec<Vec<f64>> = (0..np)
        .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut fit: Vec<f64> = xs.iter().map(|x| f(x)).collect();
    for _ in 0..gens {
        for i in 0..np {
            let mut pick = || loop {
                let k = rng.gen_range(0..np);
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
            let jrand = rng.gen_range(0..d);
            let mut trial = xs[i].clone();
            for j in 0..d {
                if j == jrand || rng.gen::<f64>() < 0.9 {
                    trial[j] = (xs[r1][j] + 0.6 * (xs[r2][j] - xs[r3][j])).clamp(0.0, 1.0);
                }
            }
            let ft = f(&trial);
            if ft >= fit[i] {
                xs[i] = trial;
                fit[i] = ft;
            }
        }
    }
    let best = (0..np)
        .max_by(|&a, &b| fit[a].partial_cmp(&fit[b]).unwrap())
        .unwrap_or(0);
    xs[best].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;
    use crate::{Fom, SizingProblem, StopPolicy};

    #[test]
    fn beats_random_on_sphere() {
        let p = Sphere { d: 4 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let bo = BoWei::default();
        let run = bo.run(&p, &fom, 80, StopPolicy::Exhaust, 3);
        let best = run.history.best().unwrap().fom;
        let rnd = crate::random::RandomSearch.run(&p, &fom, 80, StopPolicy::Exhaust, 3);
        let rnd_best = rnd.history.best().unwrap().fom;
        assert!(
            best <= rnd_best * 1.2,
            "BO {best} should be competitive with random {rnd_best}"
        );
        assert!(!run.model_time.is_zero());
    }

    #[test]
    fn finds_feasible_quickly_on_easy_problem() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let bo = BoWei::default();
        let run = bo.run(&p, &fom, 120, StopPolicy::FirstFeasible, 1);
        assert!(run.sims_to_feasible().is_some());
    }

    #[test]
    fn respects_budget() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let bo = BoWei {
            acq_pop: 8,
            acq_gens: 5,
            ..Default::default()
        };
        let run = bo.run(&p, &fom, 45, StopPolicy::Exhaust, 2);
        assert_eq!(run.history.len(), 45);
    }

    #[test]
    fn training_window_caps_and_keeps_best() {
        let history: Vec<Evaluation> = (0..10)
            .map(|i| Evaluation {
                x: vec![i as f64],
                spec: crate::problem::SpecResult {
                    failure: None,
                    objective: 0.0,
                    constraints: vec![],
                },
                fom: (10 - i) as f64,
                feasible: false,
                corner_specs: Vec::new(),
            })
            .collect();
        let idx = training_window(&history, 3);
        assert_eq!(idx.len(), 3);
        // Best FoMs are the last entries (fom 1, 2, 3).
        assert!(idx.contains(&9) && idx.contains(&8) && idx.contains(&7));
        let all = training_window(&history, 100);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn inner_de_finds_peak() {
        let mut rng = StdRng::seed_from_u64(0);
        let peak = |x: &[f64]| -(x[0] - 0.73).powi(2) - (x[1] - 0.21).powi(2);
        let best = maximize_with_de(&peak, 2, 16, 40, &mut rng);
        assert!((best[0] - 0.73).abs() < 0.05);
        assert!((best[1] - 0.21).abs() < 0.05);
    }
}
