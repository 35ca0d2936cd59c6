//! Run bookkeeping: evaluation history, budgets and timing.

use std::time::{Duration, Instant};

use crate::failure::{FailureDiag, FailureKind, RecoveryStage};
use crate::fom::Fom;
use crate::problem::{assemble_corner, fold_corners, AnalysisSpec, SizingProblem, SpecResult};

/// One recorded evaluation.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The design point.
    pub x: Vec<f64>,
    /// The raw simulation outcome. For a corner-indexed problem this is
    /// the worst-case merge over the corner plane
    /// ([`SpecResult::worst_case`]).
    pub spec: SpecResult,
    /// Figure of merit (Eq. 4) of this design, on [`Evaluation::spec`].
    pub fom: f64,
    /// Whether all constraints were met (at every corner, for a corner
    /// problem — the merge is pessimal).
    pub feasible: bool,
    /// Per-corner metric vectors, in corner order — populated for a
    /// corner-indexed problem ([`SizingProblem::num_corners`] > 1); empty
    /// for a single-corner problem, whose one corner is
    /// [`Evaluation::spec`].
    pub corner_specs: Vec<SpecResult>,
}

/// Full history of a run: every evaluation in order, plus derived
/// statistics the paper reports (first-feasible index, best-FoM trace).
#[derive(Debug, Clone, Default)]
pub struct History {
    entries: Vec<Evaluation>,
    best_trace: Vec<f64>,
    first_feasible: Option<usize>,
    best_index: Option<usize>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an evaluation, updating the derived statistics.
    pub fn push(&mut self, eval: Evaluation) {
        let idx = self.entries.len();
        if eval.feasible && self.first_feasible.is_none() {
            self.first_feasible = Some(idx + 1); // 1-based "number of sims"
        }
        let better = match self.best_index {
            None => true,
            Some(b) => eval.fom < self.entries[b].fom,
        };
        let best_fom = if better {
            self.best_index = Some(idx);
            eval.fom
        } else {
            self.entries[self
                .best_index
                .expect("best_index set whenever entries exist")]
            .fom
        };
        self.best_trace.push(best_fom);
        self.entries.push(eval);
    }

    /// All evaluations in order.
    pub fn entries(&self) -> &[Evaluation] {
        &self.entries
    }

    /// Number of evaluations so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Best-FoM-so-far trace, one entry per evaluation (the series plotted
    /// in the paper's Figures 3 and 4).
    pub fn best_trace(&self) -> &[f64] {
        &self.best_trace
    }

    /// 1-based index of the first feasible evaluation ("# of simulations"
    /// in the paper's tables), if any.
    pub fn first_feasible(&self) -> Option<usize> {
        self.first_feasible
    }

    /// The best evaluation so far (lowest FoM).
    pub fn best(&self) -> Option<&Evaluation> {
        self.best_index.map(|i| &self.entries[i])
    }

    /// The best *feasible* evaluation (lowest objective among feasible).
    pub fn best_feasible(&self) -> Option<&Evaluation> {
        self.entries
            .iter()
            .filter(|e| e.feasible)
            .min_by(|a, b| a.spec.objective.partial_cmp(&b.spec.objective).unwrap())
    }

    /// Aggregates every failure recorded in the history into a
    /// [`RobustnessReport`]: counts by failure kind, a recovery-ladder
    /// stage histogram, and the retry budget (Newton iterations, step
    /// halvings) the failed solves burned. The per-candidate×corner unit
    /// is each corner record for corner-plane evaluations and the
    /// aggregate spec otherwise.
    pub fn robustness_report(&self) -> RobustnessReport {
        let mut report = RobustnessReport {
            evaluations: self.entries.len(),
            ..RobustnessReport::default()
        };
        for e in &self.entries {
            if e.spec.is_failure() {
                report.failed_evaluations += 1;
            }
            let units: &[SpecResult] = if e.corner_specs.is_empty() {
                std::slice::from_ref(&e.spec)
            } else {
                &e.corner_specs
            };
            for spec in units.iter().filter(|s| s.is_failure()) {
                report.failures += 1;
                match spec.failure_diag() {
                    None => report.untagged += 1,
                    Some(diag) => {
                        report.tally(diag);
                    }
                }
            }
        }
        report
    }
}

/// Batch-level failure statistics derived from a [`History`] by
/// [`History::robustness_report`]. The counting unit is one
/// candidate×corner evaluation (one corner record, or the aggregate spec
/// for single-corner problems).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RobustnessReport {
    /// History entries inspected (one per candidate).
    pub evaluations: usize,
    /// Candidates whose aggregate (worst-case) spec is a failure.
    pub failed_evaluations: usize,
    /// Candidate×corner failures, diagnosed or not.
    pub failures: usize,
    /// Failures that carried no structured diagnosis.
    pub untagged: usize,
    /// Failures forced by a deterministic fault plan.
    pub injected: usize,
    /// Diagnosed failures by kind, in [`FailureKind::ALL`] order.
    pub by_kind: [usize; FailureKind::ALL.len()],
    /// Diagnosed failures by deepest ladder stage reached, in
    /// [`RecoveryStage::ALL`] order.
    pub by_stage: [usize; RecoveryStage::ALL.len()],
    /// Newton iterations burned across all diagnosed failures (the retry
    /// budget the recovery ladders spent before giving up).
    pub iterations_spent: usize,
    /// Transient step halvings burned across all diagnosed failures.
    pub halvings_spent: usize,
    /// Diagnosed failures by analysis label, in first-seen order — the
    /// per-unit attribution the analysis grid carries through assembly
    /// (e.g. `"open-loop: dc operating point"`).
    pub by_analysis: Vec<(String, usize)>,
}

impl RobustnessReport {
    fn tally(&mut self, diag: &FailureDiag) {
        let k = FailureKind::ALL.iter().position(|&k| k == diag.kind);
        self.by_kind[k.expect("every kind is in ALL")] += 1;
        let s = RecoveryStage::ALL.iter().position(|&s| s == diag.stage);
        self.by_stage[s.expect("every stage is in ALL")] += 1;
        if diag.injected {
            self.injected += 1;
        }
        self.iterations_spent += diag.iterations;
        self.halvings_spent += diag.halvings;
        match self
            .by_analysis
            .iter_mut()
            .find(|(name, _)| *name == diag.analysis)
        {
            Some((_, n)) => *n += 1,
            None => self.by_analysis.push((diag.analysis.clone(), 1)),
        }
    }

    /// Diagnosed failures attributed to one analysis label.
    pub fn analysis_count(&self, analysis: &str) -> usize {
        self.by_analysis
            .iter()
            .find(|(name, _)| name == analysis)
            .map_or(0, |(_, n)| *n)
    }

    /// Diagnosed failures of one kind.
    pub fn kind_count(&self, kind: FailureKind) -> usize {
        let i = FailureKind::ALL.iter().position(|&k| k == kind);
        self.by_kind[i.expect("every kind is in ALL")]
    }

    /// Diagnosed failures whose deepest ladder stage was `stage`.
    pub fn stage_count(&self, stage: RecoveryStage) -> usize {
        let i = RecoveryStage::ALL.iter().position(|&s| s == stage);
        self.by_stage[i.expect("every stage is in ALL")]
    }
}

impl std::fmt::Display for RobustnessReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} failures in {} evaluations ({} candidates failed worst-case; {} injected, {} untagged)",
            self.failures, self.evaluations, self.failed_evaluations, self.injected, self.untagged
        )?;
        for (kind, n) in FailureKind::ALL.iter().zip(self.by_kind) {
            if n > 0 {
                write!(f, "\n  kind {:>15}: {n}", kind.label())?;
            }
        }
        for (stage, n) in RecoveryStage::ALL.iter().zip(self.by_stage) {
            if n > 0 {
                write!(f, "\n  stage {:>15}: {n}", stage.label())?;
            }
        }
        for (analysis, n) in &self.by_analysis {
            write!(f, "\n  analysis {analysis}: {n}")?;
        }
        write!(
            f,
            "\n  retry budget spent: {} NR iterations, {} halvings",
            self.iterations_spent, self.halvings_spent
        )
    }
}

/// Budgeted, history-recording wrapper around a [`SizingProblem`]: the one
/// object optimizers call to spend simulations. [`crate::Optimizer::run`]
/// builds one per run and turns it into the [`RunResult`].
pub struct Evaluator<'a> {
    problem: &'a dyn SizingProblem,
    fom: &'a Fom,
    budget: usize,
    pub(crate) stop: StopPolicy,
    pub(crate) history: History,
    pub(crate) sim_time: Duration,
    pub(crate) model_time: Duration,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with a simulation budget and the
    /// [`StopPolicy::Exhaust`] policy, so [`Evaluator::done`] is
    /// [`Evaluator::exhausted`].
    pub fn new(problem: &'a dyn SizingProblem, fom: &'a Fom, budget: usize) -> Self {
        Evaluator {
            problem,
            fom,
            budget,
            stop: StopPolicy::Exhaust,
            history: History::new(),
            sim_time: Duration::ZERO,
            model_time: Duration::ZERO,
        }
    }

    /// Runs (and records) one expensive evaluation: a one-candidate
    /// [`Evaluator::evaluate_batch`], so even one-candidate-per-iteration
    /// optimizers (DNN-Opt's main loop, SA) fan a corner problem's units
    /// out across the grid's threads.
    ///
    /// # Panics
    ///
    /// Panics if the budget is already exhausted; optimizers stop when
    /// [`Evaluator::done`], which covers that.
    pub fn evaluate(&mut self, x: &[f64]) -> Evaluation {
        assert!(!self.exhausted(), "simulation budget exhausted");
        self.evaluate_batch(&[x.to_vec()])
            .pop()
            .expect("budget checked above")
    }

    /// Evaluates a whole candidate population and records the results
    /// **in candidate order**.
    ///
    /// The population is flattened into the candidate × corner × analysis
    /// unit grid (`(i, c, a)` in lexicographic order; a plain problem has
    /// one corner and one analysis, so one unit per candidate) and the
    /// grid is mapped over self-scheduled threads (see [`crate::parallel`]).
    /// Each unit is one [`SizingProblem::evaluate_analysis`] call; a unit
    /// that panics becomes a hard-failed unit with a panic diagnosis, never
    /// a dead batch. Units then go through the pipeline of
    /// [`SizingProblem::evaluate`]: attributed and assembled per
    /// (candidate, corner) with [`AnalysisSpec::assemble`], and folded
    /// per candidate. A corner problem records the worst-case merge
    /// ([`SpecResult::worst_case`]) with the per-corner vectors attached;
    /// a single-corner problem records its one corner as is, with no
    /// per-corner records. Either way one history entry
    /// (one unit of budget) per *candidate*: the grid multiplies simulator
    /// work, not the paper's "# of sims".
    ///
    /// Histories, best traces and first-feasible indices are bit-identical
    /// to evaluating the same candidates serially, for any thread count.
    /// At most [`Evaluator::remaining`] candidates are evaluated; the rest
    /// are silently dropped, which keeps optimizers' budget accounting a
    /// non-event. Returns the recorded evaluations.
    pub fn evaluate_batch(&mut self, xs: &[Vec<f64>]) -> Vec<Evaluation> {
        let batch = &xs[..xs.len().min(self.remaining())];
        let problem = self.problem;
        let (k, na) = (problem.num_corners(), problem.num_analyses());
        let grid: Vec<(usize, usize, usize)> = (0..batch.len())
            .flat_map(|i| (0..k).flat_map(move |c| (0..na).map(move |a| (i, c, a))))
            .collect();
        let _eb = telemetry::span_with(telemetry::SpanId::EvalBatch, grid.len() as u64);
        let units = crate::parallel::try_par_map(&grid, |&(i, c, a)| {
            let _cand = telemetry::span_with(telemetry::SpanId::Candidate, i as u64);
            let _corner = telemetry::span_with(telemetry::SpanId::Corner, c as u64);
            let _an = telemetry::span_with(telemetry::SpanId::Analysis, a as u64);
            let t0 = Instant::now();
            let unit = problem.evaluate_analysis(&batch[i], c, a);
            (unit, t0.elapsed())
        });
        // `sim_time` sums every unit's simulator time (not batch
        // wall-clock); a panicking unit's time is not counted.
        let mut units: Vec<AnalysisSpec> = units
            .into_iter()
            .map(|unit| match unit {
                Ok((unit, spent)) => {
                    self.sim_time += spent;
                    unit
                }
                Err(msg) => AnalysisSpec::hard_failed(Some(FailureDiag::panic(msg))),
            })
            .collect();
        let mut out = Vec::with_capacity(batch.len());
        for (x, units) in batch.iter().zip(units.chunks_mut(k * na)) {
            let corners = units
                .chunks_mut(na)
                .map(|corner| assemble_corner(problem, corner))
                .collect();
            let (spec, corner_specs) = fold_corners(corners);
            out.push(self.record(x.clone(), spec, corner_specs));
        }
        out
    }

    /// Scores, records and returns one finished evaluation.
    fn record(
        &mut self,
        x: Vec<f64>,
        spec: SpecResult,
        corner_specs: Vec<SpecResult>,
    ) -> Evaluation {
        let fom = self.fom.value(&spec);
        let eval = Evaluation {
            x,
            feasible: spec.feasible(),
            fom,
            spec,
            corner_specs,
        };
        self.history.push(eval.clone());
        eval
    }

    /// True when no budget remains.
    pub fn exhausted(&self) -> bool {
        self.history.len() >= self.budget
    }

    /// True when the search must stop: no budget remains, or the stop
    /// policy is [`StopPolicy::FirstFeasible`] and a feasible design has
    /// been recorded.
    pub fn done(&self) -> bool {
        self.exhausted()
            || (self.stop == StopPolicy::FirstFeasible && self.history.first_feasible().is_some())
    }

    /// Runs `f`, surrogate-model work such as a fit or a training pass,
    /// and adds its wall-clock time to the run's
    /// [`RunResult::model_time`].
    pub fn model<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.model_time += t0.elapsed();
        out
    }

    /// The simulation budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Simulations remaining.
    pub fn remaining(&self) -> usize {
        self.budget.saturating_sub(self.history.len())
    }

    /// Simulations used.
    pub fn used(&self) -> usize {
        self.history.len()
    }

    /// The underlying problem. The reference outlives the borrow of the
    /// evaluator, so a search can hold it across [`Evaluator::evaluate`].
    pub fn problem(&self) -> &'a dyn SizingProblem {
        self.problem
    }

    /// The FoM in use (held like [`Evaluator::problem`]).
    pub fn fom(&self) -> &'a Fom {
        self.fom
    }

    /// Recorded history so far.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Simulator time: wall-clock time spent inside
    /// [`SizingProblem::evaluate_analysis`], summed over every unit.
    pub fn sim_time(&self) -> Duration {
        self.sim_time
    }
}

/// Completed run: what an [`crate::Optimizer`] returns.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Name of the optimizer that produced the run.
    pub optimizer: String,
    /// Full evaluation history.
    pub history: History,
    /// Wall-clock time spent in surrogate-model fitting (the paper's
    /// "modeling time").
    pub model_time: Duration,
    /// Wall-clock time spent in simulations.
    pub sim_time: Duration,
    /// Total run wall-clock time.
    pub total_time: Duration,
}

impl RunResult {
    /// Best feasible objective, if a feasible design was found.
    pub fn best_feasible_objective(&self) -> Option<f64> {
        self.history.best_feasible().map(|e| e.spec.objective)
    }

    /// 1-based simulation count at which the first feasible design
    /// appeared.
    pub fn sims_to_feasible(&self) -> Option<usize> {
        self.history.first_feasible()
    }
}

/// End-of-run observability report: the history's robustness aggregate
/// plus — when the telemetry plane is active (`DNNOPT_TRACE` set or a sink
/// installed programmatically) — the drained telemetry summary with span
/// timings and solver/pool metric histograms.
///
/// [`RunReport::collect`] drains the telemetry plane, so collect **once**,
/// at the end of the run; a second collect returns empty aggregates. The
/// drain also writes the configured JSONL/Chrome trace file, making this
/// the natural last statement of an example or service run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Failure taxonomy aggregated from the run's history.
    pub robustness: RobustnessReport,
    /// Drained telemetry aggregates; `None` when the plane is disabled.
    pub telemetry: Option<telemetry::Summary>,
}

impl RunReport {
    /// Builds the report for a finished run and drains/writes the
    /// telemetry plane's aggregates and event buffers.
    pub fn collect(history: &History) -> Self {
        RunReport {
            robustness: history.robustness_report(),
            telemetry: telemetry::finish(),
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "robustness: {}", self.robustness)?;
        if let Some(t) = &self.telemetry {
            write!(f, "\n{t}")?;
        }
        Ok(())
    }
}

/// When an optimizer should stop. [`Evaluator::done`] applies it; every
/// optimizer checks `done` between evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopPolicy {
    /// Use the whole simulation budget (needed for FoM-curve figures).
    Exhaust,
    /// Return as soon as a feasible design is simulated (paper Alg. 1
    /// line 11, and the industrial Table V protocol).
    ///
    /// SA, GASPAD and BO-wEI evaluate one design at a time, so they stop
    /// right at the first feasible one: their history is exactly
    /// [`RunResult::sims_to_feasible`] entries long. DE, random search and
    /// DNN-Opt's initial Latin-hypercube sample evaluate a batch at a time
    /// and finish the batch that found it, so up to one batch minus one
    /// evaluation follows the first feasible design. DNN-Opt's main loop
    /// evaluates one design at a time.
    FirstFeasible,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::Sphere;

    fn eval(fom: f64, feasible: bool) -> Evaluation {
        Evaluation {
            x: vec![0.0],
            spec: SpecResult {
                failure: None,
                objective: fom,
                constraints: vec![],
            },
            fom,
            feasible,
            corner_specs: Vec::new(),
        }
    }

    #[test]
    fn best_trace_is_monotone() {
        let mut h = History::new();
        for f in [5.0, 3.0, 4.0, 1.0, 2.0] {
            h.push(eval(f, false));
        }
        assert_eq!(h.best_trace(), &[5.0, 3.0, 3.0, 1.0, 1.0]);
        assert_eq!(h.best().unwrap().fom, 1.0);
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn first_feasible_is_one_based_and_sticky() {
        let mut h = History::new();
        h.push(eval(5.0, false));
        h.push(eval(4.0, true));
        h.push(eval(3.0, true));
        assert_eq!(h.first_feasible(), Some(2));
    }

    #[test]
    fn best_feasible_prefers_objective() {
        let mut h = History::new();
        // Feasible but worse objective…
        let mut a = eval(0.5, true);
        a.spec.objective = 10.0;
        h.push(a);
        // Infeasible with great objective must be ignored…
        let mut b = eval(0.1, false);
        b.spec.objective = 0.1;
        h.push(b);
        // Feasible with better objective wins.
        let mut c = eval(0.6, true);
        c.spec.objective = 3.0;
        h.push(c);
        assert_eq!(h.best_feasible().unwrap().spec.objective, 3.0);
    }

    #[test]
    fn evaluator_enforces_budget() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 3);
        assert_eq!(ev.remaining(), 3);
        ev.evaluate(&[0.3, 0.3]);
        ev.evaluate(&[0.5, 0.5]);
        assert!(!ev.exhausted());
        ev.evaluate(&[0.1, 0.1]);
        assert!(ev.exhausted());
        assert_eq!(ev.used(), 3);
        assert_eq!(ev.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "budget exhausted")]
    fn evaluator_panics_past_budget() {
        let p = Sphere { d: 1 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 1);
        ev.evaluate(&[0.3]);
        ev.evaluate(&[0.4]);
    }

    /// A three-corner analytic problem: corner `k` tightens the constraint
    /// by `0.1·k` and inflates the objective by `k`.
    struct CorneredSphere;

    impl SizingProblem for CorneredSphere {
        fn dim(&self) -> usize {
            2
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn num_corners(&self) -> usize {
            3
        }
        fn corner_name(&self, k: usize) -> String {
            format!("tightened-{k}")
        }
        fn evaluate_analysis(&self, x: &[f64], k: usize, _a: usize) -> AnalysisSpec {
            SpecResult {
                failure: None,
                objective: x[0] + x[1] + k as f64,
                constraints: vec![0.3 + 0.1 * k as f64 - x[0]],
            }
            .into()
        }
    }

    #[test]
    fn evaluator_expands_corner_problems_transparently() {
        let p = CorneredSphere;
        let fom = Fom::uniform(1.0, 1);
        let mut ev = Evaluator::new(&p, &fom, 2);
        // `evaluate` routes through the grid: worst case over 3 corners.
        let e = ev.evaluate(&[0.6, 0.2]);
        assert_eq!(e.corner_specs.len(), 3);
        assert_eq!(e.spec.objective, 0.6 + 0.2 + 2.0); // worst corner
        assert_eq!(e.spec.constraints, vec![0.5 - 0.6]); // tightest corner
        assert!(e.feasible);
        // One history entry per candidate, not per corner.
        assert_eq!(ev.used(), 1);
        // Feasible only when every corner passes.
        let e2 = ev.evaluate(&[0.45, 0.0]);
        assert!(!e2.feasible, "corner 2 requires x0 > 0.5");
        assert!(ev.exhausted());
    }

    #[test]
    fn corner_grid_serial_matches_parallel() {
        let p = CorneredSphere;
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..17)
            .map(|i| vec![i as f64 / 16.0, 1.0 - i as f64 / 16.0])
            .collect();
        crate::parallel::set_max_threads(1);
        let mut ev_s = Evaluator::new(&p, &fom, xs.len());
        let serial = ev_s.evaluate_batch(&xs);
        crate::parallel::set_max_threads(8);
        let mut ev_p = Evaluator::new(&p, &fom, xs.len());
        let par = ev_p.evaluate_batch(&xs);
        crate::parallel::set_max_threads(0);
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.fom.to_bits(), b.fom.to_bits());
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.corner_specs, b.corner_specs);
        }
    }

    /// [`CorneredSphere`] split into two independent analyses per corner:
    /// analysis 0 owns the objective, analysis 1 the constraint. The math
    /// is identical, so histories must match the monolithic problem
    /// bit-for-bit through the finer unit grid.
    struct SplitCorneredSphere;

    impl SizingProblem for SplitCorneredSphere {
        fn dim(&self) -> usize {
            2
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0; 2], vec![1.0; 2])
        }
        fn num_constraints(&self) -> usize {
            1
        }
        fn num_corners(&self) -> usize {
            3
        }
        fn num_analyses(&self) -> usize {
            2
        }
        fn analysis_name(&self, a: usize) -> String {
            ["objective", "constraint"][a].to_string()
        }
        fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
            match a {
                0 => AnalysisSpec {
                    objective: Some(x[0] + x[1] + k as f64),
                    ..AnalysisSpec::partial()
                },
                1 => AnalysisSpec {
                    constraints: vec![(0, 0.3 + 0.1 * k as f64 - x[0])],
                    ..AnalysisSpec::partial()
                },
                _ => panic!("analysis {a} out of range"),
            }
        }
    }

    #[test]
    fn analysis_grid_matches_monolithic_grid_at_any_thread_count() {
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..11)
            .map(|i| vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0])
            .collect();
        let mut ev_mono = Evaluator::new(&CorneredSphere, &fom, xs.len());
        let reference = ev_mono.evaluate_batch(&xs);
        let split = SplitCorneredSphere;
        // 1, an even, and an odd thread count.
        for threads in [1usize, 2, 7] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&split, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            assert_eq!(out.len(), reference.len(), "threads={threads}");
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.fom.to_bits(), b.fom.to_bits(), "threads={threads}");
                assert_eq!(a.spec, b.spec, "threads={threads}");
                assert_eq!(a.corner_specs, b.corner_specs, "threads={threads}");
            }
        }
    }

    /// Single-corner, two-analysis problem whose second analysis panics on
    /// a marker candidate.
    struct PanickyAnalysis;

    impl SizingProblem for PanickyAnalysis {
        fn dim(&self) -> usize {
            1
        }
        fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
            (vec![0.0], vec![1.0])
        }
        fn num_constraints(&self) -> usize {
            2
        }
        fn num_analyses(&self) -> usize {
            2
        }
        fn evaluate_analysis(&self, x: &[f64], _k: usize, a: usize) -> AnalysisSpec {
            match a {
                0 => AnalysisSpec {
                    objective: Some(x[0]),
                    constraints: vec![(0, -x[0])],
                    ..AnalysisSpec::partial()
                },
                1 => {
                    assert!(x[0] != 0.5, "injected analysis panic");
                    AnalysisSpec {
                        constraints: vec![(1, x[0] - 2.0)],
                        ..AnalysisSpec::partial()
                    }
                }
                _ => panic!("analysis {a} out of range"),
            }
        }
    }

    #[test]
    fn single_corner_analysis_grid_keeps_legacy_history_shape() {
        let p = PanickyAnalysis;
        let fom = Fom::uniform(1.0, 2);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0]).collect();
        // xs[4] = [0.5] panics in analysis 1. The batch must survive with
        // the panicking candidate collapsed to a diagnosed failure, the
        // rest intact, and — single corner — no per-corner records.
        let mut batches = Vec::new();
        for threads in [1usize, 3] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&p, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            for (i, e) in out.iter().enumerate() {
                assert!(e.corner_specs.is_empty(), "legacy single-corner shape");
                if i == 4 {
                    assert!(e.spec.is_failure());
                    let d = e.spec.failure_diag().expect("panic is diagnosed");
                    assert_eq!(d.kind, FailureKind::Panic);
                } else {
                    assert_eq!(e.spec, p.evaluate(&xs[i]), "candidate {i}");
                }
            }
            batches.push(out);
        }
        // Bit-identical across thread counts (diagnoses included).
        for (a, b) in batches[0].iter().zip(&batches[1]) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(
                a.spec.failure_diag().map(|d| format!("{d:?}")),
                b.spec.failure_diag().map(|d| format!("{d:?}"))
            );
        }
    }

    /// Sphere that panics whenever the first coordinate is exactly 0.5.
    struct PanickySphere;

    impl SizingProblem for PanickySphere {
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
            assert!(x[0] != 0.5, "injected testbench panic");
            SpecResult {
                failure: None,
                objective: x[0] + x[1],
                constraints: vec![0.1 - x[0]],
            }
            .into()
        }
    }

    #[test]
    fn evaluator_maps_panics_to_diagnosed_failures() {
        let p = PanickySphere;
        let fom = Fom::uniform(1.0, 1);
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 8.0, 0.5]).collect();
        // xs[4] = [0.5, 0.5] panics. Batch must survive in order, serial
        // and parallel, with identical records.
        let mut batches = Vec::new();
        for threads in [1usize, 4] {
            crate::parallel::set_max_threads(threads);
            let mut ev = Evaluator::new(&p, &fom, xs.len());
            let out = ev.evaluate_batch(&xs);
            crate::parallel::set_max_threads(0);
            assert_eq!(out.len(), xs.len());
            for (i, e) in out.iter().enumerate() {
                if i == 4 {
                    assert!(e.spec.is_failure());
                    let d = e.spec.failure_diag().expect("panic must be diagnosed");
                    assert_eq!(d.kind, FailureKind::Panic);
                    assert!(d.analysis.contains("injected testbench panic"));
                    // One analysis: the label is not prefixed with the
                    // unit's name.
                    assert!(d.analysis.starts_with("panic: "), "{}", d.analysis);
                    let unit = format!("{}: ", p.analysis_name(0));
                    assert!(!d.analysis.starts_with(&unit), "{}", d.analysis);
                } else {
                    assert!(!e.spec.is_failure());
                    assert_eq!(e.x, xs[i]);
                }
            }
            batches.push(out);
        }
        for (a, b) in batches[0].iter().zip(&batches[1]) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.fom.to_bits(), b.fom.to_bits());
        }
        // The single-candidate path degrades identically.
        let mut ev = Evaluator::new(&p, &fom, 1);
        let e = ev.evaluate(&[0.5, 0.5]);
        assert_eq!(e.spec.failure_diag().unwrap().kind, FailureKind::Panic);
    }

    /// `evaluate(x)` is a one-candidate `evaluate_batch` on every problem
    /// shape: same spec, FoM bits, per-corner records and failure
    /// diagnosis, at one and at two threads — and the same spec as the
    /// problem's own `evaluate`.
    #[test]
    fn evaluate_matches_a_one_candidate_batch() {
        let cases: [(&dyn SizingProblem, &[f64], bool); 5] = [
            (&Sphere { d: 2 }, &[0.3, 0.4], false),
            (&CorneredSphere, &[0.6, 0.2], false),
            (&SplitCorneredSphere, &[0.45, 0.0], false),
            (&PanickySphere, &[0.5, 0.5], true),
            (&PanickyAnalysis, &[0.5], true),
        ];
        for (i, (p, x, fails)) in cases.into_iter().enumerate() {
            let fom = Fom::uniform(1.0, p.num_constraints());
            for threads in [1usize, 2] {
                crate::parallel::set_max_threads(threads);
                let single = Evaluator::new(p, &fom, 1).evaluate(x);
                let batch = Evaluator::new(p, &fom, 1).evaluate_batch(&[x.to_vec()]);
                crate::parallel::set_max_threads(0);
                let label = format!("case {i}, threads={threads}");
                assert_eq!(batch.len(), 1, "{label}");
                let batch = &batch[0];
                assert_eq!(single.x, batch.x, "{label}");
                assert_eq!(single.spec, batch.spec, "{label}");
                assert_eq!(single.fom.to_bits(), batch.fom.to_bits(), "{label}");
                assert_eq!(single.feasible, batch.feasible, "{label}");
                assert_eq!(single.corner_specs, batch.corner_specs, "{label}");
                assert_eq!(
                    single.spec.failure_diag().map(|d| format!("{d:?}")),
                    batch.spec.failure_diag().map(|d| format!("{d:?}")),
                    "{label}"
                );
                assert_eq!(single.spec.is_failure(), fails, "{label}");
                // The direct call runs the same pipeline serially (the
                // panicking cases have no direct result to compare).
                if !fails {
                    assert_eq!(p.evaluate(x), single.spec, "{label}");
                }
                // Per-corner records only on a corner problem.
                let corners = if p.num_corners() > 1 {
                    p.num_corners()
                } else {
                    0
                };
                assert_eq!(single.corner_specs.len(), corners, "{label}");
            }
        }
    }

    #[test]
    fn robustness_report_tallies_kinds_stages_and_budget() {
        use crate::failure::FailureDiag;
        let mut h = History::new();
        h.push(eval(1.0, true)); // healthy
                                 // A diagnosed solver failure.
        let mut a = eval(2.0, false);
        a.spec = SpecResult::failed_with(
            1,
            FailureDiag {
                kind: FailureKind::Singular,
                analysis: "dc operating point".into(),
                stage: RecoveryStage::SourceStepping,
                iterations: 40,
                halvings: 0,
                injected: true,
            },
        );
        h.push(a);
        // A corner-plane entry: one healthy corner, one step-underflow.
        let good = SpecResult {
            failure: None,
            objective: 0.5,
            constraints: vec![-0.1],
        };
        let bad = SpecResult::failed_with(
            1,
            FailureDiag {
                kind: FailureKind::StepUnderflow,
                analysis: "transient".into(),
                stage: RecoveryStage::StepHalving,
                iterations: 12,
                halvings: 9,
                injected: false,
            },
        );
        let mut b = eval(3.0, false);
        b.spec = SpecResult::worst_case(&[good.clone(), bad.clone()]);
        b.corner_specs = vec![good, bad];
        h.push(b);
        // An untagged legacy failure.
        let mut c = eval(4.0, false);
        c.spec = SpecResult::failed(1);
        h.push(c);

        let r = h.robustness_report();
        assert_eq!(r.evaluations, 4);
        assert_eq!(r.failed_evaluations, 3);
        assert_eq!(r.failures, 3); // 1 aggregate + 1 corner + 1 untagged
        assert_eq!(r.untagged, 1);
        assert_eq!(r.injected, 1);
        assert_eq!(r.kind_count(FailureKind::Singular), 1);
        assert_eq!(r.kind_count(FailureKind::StepUnderflow), 1);
        assert_eq!(r.kind_count(FailureKind::Panic), 0);
        assert_eq!(r.stage_count(RecoveryStage::SourceStepping), 1);
        assert_eq!(r.stage_count(RecoveryStage::StepHalving), 1);
        assert_eq!(r.iterations_spent, 52);
        assert_eq!(r.halvings_spent, 9);
        let text = r.to_string();
        assert!(text.contains("singular"));
        assert!(text.contains("step-halving"));
        assert!(text.contains("52 NR iterations"));
    }

    #[test]
    fn evaluator_records_feasibility() {
        let p = Sphere { d: 2 };
        let fom = Fom::uniform(1.0, p.num_constraints());
        let mut ev = Evaluator::new(&p, &fom, 10);
        let good = ev.evaluate(&[0.3, 0.3]);
        assert!(good.feasible);
        let bad = ev.evaluate(&[0.0, 0.0]);
        assert!(!bad.feasible);
        assert_eq!(ev.history().first_feasible(), Some(1));
    }
}
