//! The DNN-Opt optimization loop (paper Algorithm 1).

use linalg::Matrix;
use opt::sampling::latin_hypercube;
use opt::{from_unit, to_unit, Evaluator, Optimizer};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::actor::Actor;
use crate::config::DnnOptConfig;
use crate::critic::Critic;
use crate::elite::{elite_indices, restricted_bounds};

/// The DNN-Opt optimizer (paper Algorithm 1): an RL-inspired two-stage
/// DNN black-box optimizer.
///
/// Per iteration it (re)trains a critic on Eq. 2 pseudo-samples, trains an
/// actor through the frozen critic against the Eq. 4 FoM with the Eq. 6
/// elite-box penalty, proposes one candidate per elite design (plus
/// exploration noise), and spends exactly **one** simulation on the
/// candidate the critic ranks best (Eq. 8).
///
/// # Example
///
/// ```
/// use dnn_opt::DnnOpt;
/// use opt::{AnalysisSpec, Fom, Optimizer, SizingProblem, SpecResult, StopPolicy};
///
/// struct Toy;
/// impl SizingProblem for Toy {
///     fn dim(&self) -> usize { 2 }
///     fn bounds(&self) -> (Vec<f64>, Vec<f64>) { (vec![0.0; 2], vec![1.0; 2]) }
///     fn num_constraints(&self) -> usize { 1 }
///     fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
///         SpecResult { failure: None,
///             objective: (x[0] - 0.7).powi(2) + (x[1] - 0.2).powi(2),
///             constraints: vec![0.4 - x[0]],
///         }
///         .into()
///     }
/// }
///
/// let fom = Fom::uniform(1.0, 1);
/// let run = DnnOpt::default().run(&Toy, &fom, 60, StopPolicy::Exhaust, 1);
/// assert!(run.history.best_feasible().is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct DnnOpt {
    /// Hyperparameters.
    pub config: DnnOptConfig,
}

impl DnnOpt {
    /// Creates the optimizer with explicit hyperparameters.
    pub fn new(config: DnnOptConfig) -> Self {
        DnnOpt { config }
    }
}

impl Optimizer for DnnOpt {
    fn name(&self) -> &'static str {
        "DNN-Opt"
    }

    fn search(&self, ev: &mut Evaluator<'_>, seed: u64) {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(seed ^ cfg.seed_offset);
        let fom = ev.fom();
        let (lb, ub) = ev.problem().bounds();
        let d = ev.problem().dim();
        let budget = ev.budget();

        // Line 1: initial population, evaluated as one parallel batch.
        // Results are recorded in candidate order, so runs are identical
        // for any thread count. Under FirstFeasible the whole batch is
        // still simulated and recorded (batch semantics).
        let init = latin_hypercube(&mut rng, &lb, &ub, cfg.n_init.min(budget));
        ev.evaluate_batch(&init);

        // Main loop (lines 2–16): one simulation per iteration, until
        // the budget is spent or, under FirstFeasible, line 11's return
        // condition holds.
        while !ev.done() {
            let _gen = telemetry::span_with(telemetry::SpanId::Generation, ev.used() as u64);
            let history = ev.history().entries();
            let n = history.len();
            // Unit-cube coordinates and robustly clipped spec vectors:
            // failed-simulation placeholders are cliffs of ~1e12 that would
            // otherwise dominate the critic's target standardization and
            // flatten every real spec to numerical zero.
            let xs: Vec<Vec<f64>> = history.iter().map(|e| to_unit(&e.x, &lb, &ub)).collect();
            let mut fs: Vec<Vec<f64>> = history.iter().map(|e| e.spec.as_vector()).collect();
            // NaN quarantine: a failed evaluation may leave NaN/∞ in a spec
            // slot (e.g. a measurement on a truncated waveform). Map every
            // non-finite target to the failure penalty before clipping so
            // nothing non-finite can reach critic training or a GEMM.
            for f in &mut fs {
                for v in f.iter_mut() {
                    if !v.is_finite() {
                        *v = opt::FAILURE_PENALTY;
                    }
                }
            }
            let n_specs = fs[0].len();
            for c in 0..n_specs {
                let col: Vec<f64> = fs.iter().map(|f| f[c]).collect();
                let (clo, chi) = opt::robust_clip_bounds(&col);
                for f in &mut fs {
                    f[c] = f[c].clamp(clo, chi);
                }
            }
            let foms: Vec<f64> = history.iter().map(|e| e.fom).collect();

            // Lines 3–6: fresh networks, critic then actor.
            let critic = ev.model(|| {
                let _ct = telemetry::span(telemetry::SpanId::CriticTrain);
                Critic::train(cfg, &xs, &fs, &mut rng)
            });
            // Lines 7–8: elite population and its bounding box.
            let elite_idx = elite_indices(&foms, cfg.n_elite);
            let elite: Vec<Vec<f64>> = elite_idx.iter().map(|&i| xs[i].clone()).collect();
            let (lb_rest, ub_rest) = restricted_bounds(&elite);
            let actor = ev.model(|| {
                let _at = telemetry::span(telemetry::SpanId::ActorTrain);
                Actor::train(cfg, &critic, fom, &elite, &lb_rest, &ub_rest, &mut rng)
            });

            // Line 9 + Eq. 8: candidates from every elite design with
            // exploration noise, ranked by the critic's FoM.
            let progress = n as f64 / budget.max(1) as f64;
            let sigma = cfg.noise_initial + (cfg.noise_final - cfg.noise_initial) * progress;
            // Population-scaled exploration: early on, the elite bounding
            // box spans most of the cube and steps must be box-sized to
            // make progress across plateaus; as the elites converge the
            // box (and the noise with it) contracts — the same
            // self-scaling that makes DE mutations work.
            let box_sigma: Vec<f64> = lb_rest
                .iter()
                .zip(&ub_rest)
                .map(|(&l, &u)| sigma.max(0.3 * (u - l)))
                .collect();
            // Several noise realizations per elite design (the critic
            // ranking is free — only the one winner is simulated). The
            // Eq. 8 selection is baseline-corrected: candidates are ranked
            // by the elite's *simulated* FoM plus the critic's predicted
            // FoM *change* for the step, g[Q(x,Δ)] − g[Q(x,0)]. With a
            // perfect critic this equals Eq. 8's absolute ranking; with an
            // imperfect one the critic's per-point bias cancels, so a
            // candidate near a good elite is not discarded merely because
            // the smooth critic cannot reproduce that elite's exceptional
            // absolute value.
            let variants = 4usize;
            let ne = elite.len();
            let elite_fom: Vec<f64> = elite_idx.iter().map(|&i| foms[i]).collect();
            let mut cands: Vec<Vec<f64>> = Vec::with_capacity(ne * variants);
            let mut rows = Matrix::zeros(ne * (variants + 1), 2 * d);
            for (ei, x_es) in elite.iter().enumerate() {
                let dx = actor.propose_one(x_es);
                for v in 0..variants {
                    let r = ei * (variants + 1) + v;
                    let mut cand = x_es.clone();
                    // Sparse exploration: perturb a random coordinate
                    // subset (~30%, at least one) on top of the actor's
                    // proposal. All-coordinate Gaussian steps are almost
                    // always destructive on rugged sizing landscapes,
                    // whereas sparse moves leave most of a working design
                    // intact — the same reason DE uses binomial crossover.
                    let jrand = rng.gen_range(0..d);
                    for j in 0..d {
                        let active = j == jrand || rng.gen::<f64>() < 0.3;
                        let noise = if active {
                            box_sigma[j] * nn::gaussian(&mut rng)
                        } else {
                            0.0
                        };
                        cand[j] = (cand[j] + dx[j] + noise).clamp(0.0, 1.0);
                    }
                    for j in 0..d {
                        rows[(r, j)] = x_es[j];
                        rows[(r, d + j)] = cand[j] - x_es[j];
                    }
                    cands.push(cand);
                }
                // Baseline row: the zero step from this elite.
                let r0 = ei * (variants + 1) + variants;
                for j in 0..d {
                    rows[(r0, j)] = x_es[j];
                }
            }
            let preds = critic.predict(&rows);
            let mut best: Option<(Vec<f64>, f64)> = None;
            for (idx, cand) in cands.into_iter().enumerate() {
                let ei = idx / variants;
                let r = ei * (variants + 1) + (idx % variants);
                let r0 = ei * (variants + 1) + variants;
                let g_step = fom.value_of_vector(preds.row(r));
                let g_base = fom.value_of_vector(preds.row(r0));
                // Improvement credit is capped: differencing two network
                // outputs doubles their noise, and uncapped optimistic
                // outliers would dominate the argmin (winner's curse).
                let g = elite_fom[ei] + (g_step - g_base).max(-0.25);
                if best.as_ref().is_none_or(|(_, bg)| g < *bg) {
                    best = Some((cand, g));
                }
            }
            let (cand_unit, pred_g) = best.expect("elite population is never empty");
            // Line 10: simulate the selected candidate.
            let e = ev.evaluate(&from_unit(&cand_unit, &lb, &ub));
            if std::env::var_os("DNNOPT_ITER_TRACE").is_some() {
                let best_now = ev.history().best().map(|b| b.fom).unwrap_or(f64::NAN);
                eprintln!(
                    "iter {:4} pred_g={:8.3} actual_g={:8.3} best={:8.3} failed={} sigma={:.3}",
                    ev.used(),
                    pred_g,
                    e.fom,
                    best_now,
                    e.spec.is_failure(),
                    sigma
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt::{AnalysisSpec, Fom, SizingProblem, SpecResult, StopPolicy};

    /// Constrained quadratic: minimize ‖x−0.3‖², s.t. every x_i ≥ 0.1 and
    /// Σx ≤ 0.8·d (a generous feasible region).
    struct Sphere {
        d: usize,
    }

    impl SizingProblem for Sphere {
        fn dim(&self) -> usize {
            self.d
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; self.d], vec![1.0; self.d])
        }
        fn num_constraints(&self) -> usize {
            self.d + 1
        }
        fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
            let objective = x.iter().map(|v| (v - 0.3).powi(2)).sum();
            let mut constraints: Vec<f64> = x.iter().map(|v| 0.1 - v).collect();
            constraints.push(x.iter().sum::<f64>() - 0.8 * self.d as f64);
            SpecResult {
                failure: None,
                objective,
                constraints,
            }
            .into()
        }
    }

    /// A tight feasible band: ‖x − 0.7‖∞ ≤ 0.06 — random search needs
    /// ~(1/0.12)^d samples; a surrogate method should need far fewer.
    struct Band {
        d: usize,
    }

    impl SizingProblem for Band {
        fn dim(&self) -> usize {
            self.d
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; self.d], vec![1.0; self.d])
        }
        fn num_constraints(&self) -> usize {
            self.d
        }
        fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
            SpecResult {
                failure: None,
                objective: x.iter().sum(),
                constraints: x.iter().map(|v| (v - 0.7).abs() - 0.06).collect(),
            }
            .into()
        }
    }

    fn quick_cfg() -> DnnOptConfig {
        DnnOptConfig {
            critic_epochs: 150,
            actor_epochs: 60,
            critic_batch: 128,
            hidden: 32,
            ..Default::default()
        }
    }

    #[test]
    fn respects_budget_and_contract() {
        let p = Sphere { d: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opt = DnnOpt::new(quick_cfg());
        let run = opt.run(&p, &fom, 40, StopPolicy::Exhaust, 0);
        assert_eq!(run.history.len(), 40);
        assert!(!run.model_time.is_zero());
    }

    #[test]
    fn finds_feasible_sphere_quickly() {
        let p = Sphere { d: 4 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opt = DnnOpt::new(quick_cfg());
        let run = opt.run(&p, &fom, 100, StopPolicy::FirstFeasible, 2);
        assert!(run.sims_to_feasible().is_some());
    }

    /// Under `FirstFeasible` DNN-Opt finishes its initial batch, then
    /// stops at the first feasible design of its one-at-a-time main loop.
    #[test]
    fn first_feasible_stops_after_the_batch_or_the_design_that_found_it() {
        let sphere = Sphere { d: 3 };
        let band = Band { d: 2 };
        let problems: [(&dyn SizingProblem, f64); 2] = [(&sphere, 1.0), (&band, 0.1)];
        let opt = DnnOpt::new(quick_cfg());
        let (budget, n_init) = (60, opt.config.n_init);
        let mut found = 0;
        for (p, w0) in problems {
            let fom = Fom::uniform(w0, p.num_constraints());
            for seed in 0..5 {
                let run = opt.run(p, &fom, budget, StopPolicy::FirstFeasible, seed);
                let expected = match run.sims_to_feasible() {
                    Some(n) => {
                        found += 1;
                        n.max(n_init)
                    }
                    None => budget,
                };
                let label = format!("{}-d problem, seed {seed}", p.dim());
                assert_eq!(run.history.len(), expected, "{label}");
            }
        }
        assert!(
            found >= 8,
            "only {found} of 10 runs found a feasible design"
        );
    }

    #[test]
    fn improves_objective_beyond_initial_sampling() {
        let p = Sphere { d: 5 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opt = DnnOpt::new(quick_cfg());
        let run = opt.run(&p, &fom, 120, StopPolicy::Exhaust, 3);
        let init_best = run.history.best_trace()[opt.config.n_init - 1];
        let final_best = *run.history.best_trace().last().unwrap();
        assert!(
            final_best < 0.6 * init_best,
            "no surrogate progress: {init_best} -> {final_best}"
        );
    }

    #[test]
    fn beats_random_search_on_tight_band() {
        let p = Band { d: 4 };
        let fom = Fom::uniform(0.1, p.num_constraints());
        let opt = DnnOpt::new(quick_cfg());
        let dnn = opt.run(&p, &fom, 250, StopPolicy::Exhaust, 5);
        let rnd = opt::RandomSearch.run(&p, &fom, 250, StopPolicy::Exhaust, 5);
        let dnn_best = dnn.history.best().unwrap().fom;
        let rnd_best = rnd.history.best().unwrap().fom;
        assert!(
            dnn_best < rnd_best,
            "DNN-Opt {dnn_best} should beat random {rnd_best} on the band"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let opt = DnnOpt::new(quick_cfg());
        let a = opt.run(&p, &fom, 35, StopPolicy::Exhaust, 7);
        let b = opt.run(&p, &fom, 35, StopPolicy::Exhaust, 7);
        assert_eq!(a.history.best_trace(), b.history.best_trace());
    }

    /// A corner-indexed Sphere: corner `k` shifts the feasibility floor
    /// up, so the worst case is governed by the last corner.
    struct CorneredSphere {
        d: usize,
        k: usize,
    }

    impl SizingProblem for CorneredSphere {
        fn dim(&self) -> usize {
            self.d
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; self.d], vec![1.0; self.d])
        }
        fn num_constraints(&self) -> usize {
            self.d
        }
        fn num_corners(&self) -> usize {
            self.k
        }
        fn evaluate_analysis(&self, x: &[f64], k: usize, _a: usize) -> AnalysisSpec {
            let shift = 0.05 * k as f64;
            SpecResult {
                failure: None,
                objective: x.iter().map(|v| (v - 0.3).powi(2)).sum::<f64>() + shift,
                constraints: x.iter().map(|v| 0.1 + shift - v).collect(),
            }
            .into()
        }
    }

    #[test]
    fn worst_case_critic_optimizes_the_corner_plane() {
        let p = CorneredSphere { d: 3, k: 3 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = DnnOpt::new(quick_cfg()).run(&p, &fom, 60, StopPolicy::Exhaust, 11);
        assert_eq!(run.history.len(), 60);
        // A feasible design satisfies the *tightest* corner.
        let best = run.history.best_feasible().expect("feasible on the plane");
        for v in &best.x {
            assert!(*v >= 0.1 + 0.05 * 2.0 - 1e-9, "worst corner enforced: {v}");
        }
        // The determinism contract holds on a corner plane.
        let again = DnnOpt::new(quick_cfg()).run(&p, &fom, 60, StopPolicy::Exhaust, 11);
        assert_eq!(run.history.best_trace(), again.history.best_trace());
    }

    #[test]
    fn aggregate_mode_still_runs_corner_problems() {
        let p = CorneredSphere { d: 2, k: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let run = DnnOpt::new(quick_cfg()).run(&p, &fom, 40, StopPolicy::Exhaust, 3);
        assert_eq!(run.history.len(), 40);
        // The aggregate critic sees the worst-case (1 + m) spec vector,
        // but per-corner records are still attached to the history.
        assert!(run
            .history
            .entries()
            .iter()
            .all(|e| e.corner_specs.len() == 2));
        assert!(run.history.best_feasible().is_some());
    }

    #[test]
    fn survives_failed_simulations() {
        /// A problem whose evaluations fail in half the space.
        struct Flaky;
        impl SizingProblem for Flaky {
            fn dim(&self) -> usize {
                2
            }
            fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
                (vec![0.0; 2], vec![1.0; 2])
            }
            fn num_constraints(&self) -> usize {
                1
            }
            fn evaluate_analysis(&self, x: &[f64], _k: usize, _a: usize) -> AnalysisSpec {
                let spec = if x[0] > 0.5 {
                    SpecResult::failed(1)
                } else {
                    SpecResult {
                        failure: None,
                        objective: (x[0] - 0.25).powi(2) + (x[1] - 0.5).powi(2),
                        constraints: vec![0.1 - x[1]],
                    }
                };
                spec.into()
            }
        }
        let fom = Fom::uniform(1.0, 1);
        let opt = DnnOpt::new(quick_cfg());
        let run = opt.run(&Flaky, &fom, 60, StopPolicy::Exhaust, 4);
        assert_eq!(run.history.len(), 60);
        assert!(run.history.best_feasible().is_some());
    }
}
