//! Simulated Annealing — the stand-in for the "commercial black-box
//! optimizer based on Simulated Annealing" the paper uses as the industrial
//! baseline (Table V).

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::history::Evaluator;
use crate::Optimizer;

/// Classic single-chain simulated annealing on the FoM landscape with a
/// geometric temperature schedule and temperature-scaled Gaussian moves.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Initial temperature (in FoM units).
    pub t_initial: f64,
    /// Final temperature.
    pub t_final: f64,
    /// Initial step size as a fraction of each variable's range.
    pub step_fraction: f64,
    /// Number of restarts (the chain restarts from the incumbent best).
    pub restarts: usize,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            t_initial: 1.0,
            t_final: 1e-3,
            step_fraction: 0.25,
            restarts: 1,
        }
    }
}

impl Optimizer for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lb, ub) = ev.problem().bounds();

        let per_chain = (ev.budget() / self.restarts.max(1)).max(1);
        let cool = (self.t_final / self.t_initial).powf(1.0 / per_chain.max(2) as f64);

        let mut best_x: Option<Vec<f64>> = None;
        let mut best_f = f64::INFINITY;

        for restart in 0..self.restarts.max(1) {
            // Start from incumbent best after the first chain.
            let mut x: Vec<f64> = match (&best_x, restart) {
                (Some(b), r) if r > 0 => b.clone(),
                _ => lb
                    .iter()
                    .zip(&ub)
                    .map(|(&l, &u)| if u > l { rng.gen_range(l..u) } else { l })
                    .collect(),
            };
            if ev.done() {
                break;
            }
            let mut fx = ev.evaluate(&x).fom;
            if fx < best_f {
                best_f = fx;
                best_x = Some(x.clone());
            }

            let mut temp = self.t_initial;
            while !ev.done() && temp > self.t_final {
                // Temperature-scaled Gaussian move on every coordinate.
                let scale = self.step_fraction * (temp / self.t_initial).sqrt();
                let cand: Vec<f64> = x
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        let sigma = scale * (ub[j] - lb[j]);
                        (v + sigma * nn_gaussian(&mut rng)).clamp(lb[j], ub[j])
                    })
                    .collect();
                let e = ev.evaluate(&cand);
                let accept = e.fom <= fx || {
                    let p = ((fx - e.fom) / temp).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    x = cand;
                    fx = e.fom;
                }
                if e.fom < best_f {
                    best_f = e.fom;
                    best_x = Some(e.x.clone());
                }
                temp *= cool;
            }
        }
        // Spend any leftover budget as pure hill-climbing around the best.
        if let Some(bx) = best_x {
            let mut x = bx;
            let mut fx = best_f;
            while !ev.done() {
                let cand: Vec<f64> = x
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| {
                        let sigma = 0.02 * (ub[j] - lb[j]);
                        (v + sigma * nn_gaussian(&mut rng)).clamp(lb[j], ub[j])
                    })
                    .collect();
                let e = ev.evaluate(&cand);
                if e.fom <= fx {
                    x = cand;
                    fx = e.fom;
                }
            }
        }
    }
}

/// Local Box-Muller (avoids a dependency edge from `opt` to `nn`).
fn nn_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::{NarrowBand, Sphere};
    use crate::{Fom, SizingProblem, StopPolicy};

    #[test]
    fn improves_over_random_start() {
        let p = Sphere { d: 6 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let sa = SimulatedAnnealing::default();
        let run = sa.run(&p, &fom, 1500, StopPolicy::Exhaust, 4);
        let first = run.history.entries()[0].fom;
        let best = run.history.best().unwrap().fom;
        assert!(best < first * 0.5, "no improvement: {first} -> {best}");
    }

    #[test]
    fn finds_feasible_on_sphere() {
        let p = Sphere { d: 4 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let sa = SimulatedAnnealing::default();
        let run = sa.run(&p, &fom, 2000, StopPolicy::FirstFeasible, 9);
        assert!(run.sims_to_feasible().is_some());
    }

    #[test]
    fn narrow_band_needs_many_sims() {
        // SA on the narrow-band problem should be substantially less
        // sample-efficient than on the sphere — this asymmetry is what
        // Table V exploits.
        let p = NarrowBand { d: 2 };
        let fom = Fom::uniform(0.1, p.num_constraints());
        let sa = SimulatedAnnealing::default();
        let run = sa.run(&p, &fom, 4000, StopPolicy::FirstFeasible, 2);
        if let Some(n) = run.sims_to_feasible() {
            assert!(n > 10, "implausibly fast: {n}");
        }
    }

    #[test]
    fn respects_budget() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let sa = SimulatedAnnealing::default();
        let run = sa.run(&p, &fom, 500, StopPolicy::Exhaust, 1);
        assert_eq!(run.history.len(), 500);
    }

    #[test]
    fn seeded_runs_reproduce() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let sa = SimulatedAnnealing::default();
        let a = sa.run(&p, &fom, 300, StopPolicy::Exhaust, 8);
        let b = sa.run(&p, &fom, 300, StopPolicy::Exhaust, 8);
        assert_eq!(a.history.best_trace(), b.history.best_trace());
    }

    #[test]
    fn restarts_are_supported() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let sa = SimulatedAnnealing {
            restarts: 4,
            ..Default::default()
        };
        let run = sa.run(&p, &fom, 400, StopPolicy::Exhaust, 8);
        assert_eq!(run.history.len(), 400);
    }
}
