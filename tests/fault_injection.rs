//! End-to-end fault-injection suite: the deterministic fault plane
//! (`spice::fault`) forces a chosen fraction of candidate×corner
//! evaluations to die inside the solver, and the optimizers on top must
//! shrug — converge anyway, keep serial/parallel histories bit-identical,
//! and account for every injected failure in the
//! [`opt::RobustnessReport`] *exactly* (the expected failure set is
//! recomputed from the plan by the tests, not sampled).
//!
//! The CI fault-injection job reruns this binary with `DNNOPT_FAULT_RATE`
//! (plus optional `DNNOPT_FAULT_SEED` / `DNNOPT_FAULT_KIND`) exported, so
//! the same assertions hold at an externally chosen failure weather.

use std::sync::Mutex;

use circuits::tech::CornerSet;
use circuits::FoldedCascodeOta;
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    parallel, DifferentialEvolution, Evaluator, FailureKind, Fom, Optimizer, RecoveryStage,
    RunResult, SizingProblem, StopPolicy,
};
use spice::fault::{self, candidate_key, FaultKind, FaultPlan, FaultSolves};

/// The fault plan is process-wide state: every test that installs one (all
/// of them, here) holds this lock for its whole body so concurrent test
/// threads never observe each other's plans.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

/// RAII plan installation: uninstalls on drop, even if the test panics, so
/// one failing test cannot leak injected faults into the rest of the run.
struct InstalledPlan;

impl InstalledPlan {
    fn new(plan: FaultPlan) -> Self {
        fault::install(Some(plan));
        InstalledPlan
    }
}

impl Drop for InstalledPlan {
    fn drop(&mut self) {
        fault::install(None);
    }
}

/// The failure weather the end-to-end runs face: the CI job's environment
/// plan when set (`DNNOPT_FAULT_RATE` et al.), otherwise the acceptance
/// default of 20% singular-factor candidate failures.
fn e2e_plan(seed: u64) -> FaultPlan {
    fault::plan_from_env().unwrap_or(FaultPlan {
        seed,
        rate: 0.2,
        kind: FaultKind::SingularFactor,
        solves: FaultSolves::All,
    })
}

/// The [`opt::FailureKind`] an injected fault must surface as after the
/// circuits layer converts the solver diagnosis.
fn expected_kind(kind: FaultKind) -> FailureKind {
    match kind {
        FaultKind::SingularFactor => FailureKind::Singular,
        FaultKind::NanResidual => FailureKind::NanResidual,
        FaultKind::IterationExhaustion => FailureKind::NoConvergence,
    }
}

fn quick_cfg() -> DnnOptConfig {
    DnnOptConfig {
        critic_epochs: 120,
        actor_epochs: 40,
        critic_batch: 96,
        hidden: 32,
        ..Default::default()
    }
}

/// Checks every history entry of a single-corner OTA run against the
/// plan's own per-candidate decision and returns the injected count, which
/// must then equal the report's.
fn check_injected_accounting(
    run: &RunResult,
    plan: &FaultPlan,
    expand: impl Fn(&[f64]) -> Vec<f64>,
) -> usize {
    let mut expected_injected = 0;
    for (i, e) in run.history.entries().iter().enumerate() {
        let full = expand(&e.x);
        let faulted = plan.faults_candidate(candidate_key(&full, 0));
        if faulted {
            expected_injected += 1;
            assert!(e.spec.is_failure(), "faulted candidate #{i} not failed");
            let diag = e
                .spec
                .failure_diag()
                .unwrap_or_else(|| panic!("faulted candidate #{i} carries no diagnosis"));
            assert!(diag.injected, "faulted candidate #{i} not marked injected");
            assert_eq!(diag.kind, expected_kind(plan.kind), "candidate #{i} kind");
        } else if let Some(diag) = e.spec.failure_diag() {
            // A natural failure is possible on any candidate, but it must
            // never claim to be injected.
            assert!(!diag.injected, "clean candidate #{i} marked injected");
        }
    }
    let report = run.history.robustness_report();
    assert_eq!(
        report.injected, expected_injected,
        "report must count exactly the planned injections"
    );
    assert_eq!(report.evaluations, run.history.len());
    expected_injected
}

/// Local robust-sizing view of the OTA: the search box is a ±`spread`
/// multiplicative neighborhood of the (feasible) shipped nominal, clipped
/// to the legal bounds — the "re-center and harden" stage of a sizing
/// flow, where convergence must survive failure weather. The design
/// vector is the full OTA vector (identity mapping), so fault-plane keys
/// are computed on `x` directly.
struct LocalOta {
    ota: FoldedCascodeOta,
    lb: Vec<f64>,
    ub: Vec<f64>,
}

impl LocalOta {
    fn new(spread: f64) -> Self {
        let ota = FoldedCascodeOta::new();
        let nominal = SizingProblem::nominal(&ota);
        let (lb0, ub0) = SizingProblem::bounds(&ota);
        let lb = nominal
            .iter()
            .zip(&lb0)
            .map(|(n, l)| (n * (1.0 - spread)).max(*l))
            .collect();
        let ub = nominal
            .iter()
            .zip(&ub0)
            .map(|(n, u)| (n * (1.0 + spread)).min(*u))
            .collect();
        LocalOta { ota, lb, ub }
    }
}

impl SizingProblem for LocalOta {
    fn dim(&self) -> usize {
        SizingProblem::dim(&self.ota)
    }
    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        (self.lb.clone(), self.ub.clone())
    }
    fn num_constraints(&self) -> usize {
        SizingProblem::num_constraints(&self.ota)
    }
    fn num_analyses(&self) -> usize {
        SizingProblem::num_analyses(&self.ota)
    }
    fn analysis_name(&self, a: usize) -> String {
        SizingProblem::analysis_name(&self.ota, a)
    }
    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> opt::AnalysisSpec {
        self.ota.evaluate_analysis(x, k, a)
    }
    fn name(&self) -> &str {
        "local-ota"
    }
    fn paper_fom(&self) -> Fom {
        self.ota.paper_fom()
    }
}

#[test]
fn dnn_opt_reaches_feasibility_under_injected_failures() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let problem = LocalOta::new(0.2);
    let fom = problem.paper_fom();

    let plan = e2e_plan(42);
    let _installed = InstalledPlan::new(plan);
    let run = DnnOpt::new(quick_cfg()).run(&problem, &fom, 40, StopPolicy::FirstFeasible, 0);

    assert!(
        run.sims_to_feasible().is_some(),
        "DNN-Opt must still reach a feasible OTA design at {:.0}% injected failures:\n{}",
        plan.rate * 100.0,
        run.history.robustness_report()
    );
    let injected = check_injected_accounting(&run, &plan, |x| x.to_vec());
    // Natural failures can land in the same kind bucket as the injected
    // ones, so the kind count dominates (and never undercounts) them.
    let report = run.history.robustness_report();
    assert!(report.kind_count(expected_kind(plan.kind)) >= injected);
}

#[test]
fn de_reaches_feasibility_under_injected_failures() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let problem = LocalOta::new(0.2);
    let fom = problem.paper_fom();

    let plan = e2e_plan(43);
    let _installed = InstalledPlan::new(plan);
    let run =
        DifferentialEvolution::default().run(&problem, &fom, 40, StopPolicy::FirstFeasible, 1);

    assert!(
        run.sims_to_feasible().is_some(),
        "DE must still reach a feasible OTA design at {:.0}% injected failures:\n{}",
        plan.rate * 100.0,
        run.history.robustness_report()
    );
    check_injected_accounting(&run, &plan, |x| x.to_vec());
}

#[test]
fn injected_faults_preserve_the_determinism_contract() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ota = FoldedCascodeOta::new();
    let fom = ota.paper_fom();
    let plan = e2e_plan(7);
    let _installed = InstalledPlan::new(plan);

    parallel::set_max_threads(1);
    let serial = DnnOpt::new(quick_cfg()).run(&ota, &fom, 20, StopPolicy::Exhaust, 3);
    parallel::set_max_threads(8);
    let threaded = DnnOpt::new(quick_cfg()).run(&ota, &fom, 20, StopPolicy::Exhaust, 3);
    parallel::set_max_threads(0);

    assert_eq!(serial.history.len(), threaded.history.len());
    for (i, (a, b)) in serial
        .history
        .entries()
        .iter()
        .zip(threaded.history.entries())
        .enumerate()
    {
        assert_eq!(a.x, b.x, "design #{i}");
        assert_eq!(a.fom.to_bits(), b.fom.to_bits(), "fom #{i}");
        assert_eq!(a.spec, b.spec, "spec (incl. diagnosis) #{i}");
        assert_eq!(a.corner_specs, b.corner_specs, "corner records #{i}");
    }
    // Same plan, same seed — the failure bookkeeping is part of the
    // contract too.
    assert_eq!(
        serial.history.robustness_report(),
        threaded.history.robustness_report()
    );
    assert!(
        serial.history.robustness_report().injected > 0,
        "the contract must be exercised under actual injections"
    );
}

#[test]
fn corner_plane_fault_accounting_is_exact() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
    let k = SizingProblem::num_corners(&ota);
    assert_eq!(k, 5);
    let plan = FaultPlan {
        seed: 9,
        rate: 0.3,
        kind: FaultKind::SingularFactor,
        solves: FaultSolves::All,
    };
    let _installed = InstalledPlan::new(plan);

    // Six near-nominal candidates (every corner simulates cleanly without
    // injection), so failures below are injected ones and nothing else.
    let nominal = SizingProblem::nominal(&ota);
    let xs: Vec<Vec<f64>> = (0..6)
        .map(|i| {
            nominal
                .iter()
                .map(|v| v * (1.0 + 0.002 * i as f64))
                .collect()
        })
        .collect();
    let fom = ota.paper_fom();
    let mut ev = Evaluator::new(&ota, &fom, xs.len());
    ev.evaluate_batch(&xs);

    let mut expected = 0;
    for (i, e) in ev.history().entries().iter().enumerate() {
        assert_eq!(e.corner_specs.len(), k);
        let mut any = false;
        for (c, spec) in e.corner_specs.iter().enumerate() {
            let faulted = plan.faults_candidate(candidate_key(&e.x, c as u64));
            assert_eq!(
                spec.is_failure(),
                faulted,
                "candidate #{i} corner {c}: failure iff planned"
            );
            if faulted {
                expected += 1;
                any = true;
                let diag = spec.failure_diag().expect("injected failures are tagged");
                assert!(diag.injected);
                assert_eq!(diag.kind, FailureKind::Singular);
                assert_eq!(diag.stage, RecoveryStage::SourceStepping);
            }
        }
        // The aggregate worst-case merge fails exactly when a corner does,
        // and adopts a diagnosed (injected) corner's taxonomy.
        assert_eq!(e.spec.is_failure(), any, "candidate #{i} aggregate");
        if any {
            assert!(e.spec.failure_diag().expect("diag propagates").injected);
        }
    }
    assert!(expected > 0, "plan must fault at least one corner");
    assert!(
        expected < 6 * k,
        "plan must leave at least one corner clean"
    );

    let report = ev.history().robustness_report();
    assert_eq!(report.evaluations, 6);
    assert_eq!(report.failures, expected);
    assert_eq!(report.injected, expected);
    assert_eq!(report.untagged, 0);
    assert_eq!(report.kind_count(FailureKind::Singular), expected);
    assert_eq!(report.stage_count(RecoveryStage::SourceStepping), expected);
}

#[test]
fn every_fault_kind_surfaces_its_taxonomy() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ota = FoldedCascodeOta::new();
    let x = SizingProblem::nominal(&ota);
    for kind in [
        FaultKind::SingularFactor,
        FaultKind::NanResidual,
        FaultKind::IterationExhaustion,
    ] {
        let _installed = InstalledPlan::new(FaultPlan {
            seed: 1,
            rate: 1.0,
            kind,
            solves: FaultSolves::All,
        });
        let spec = ota.evaluate(&x);
        assert!(spec.is_failure(), "{kind:?} must fail the evaluation");
        let diag = spec.failure_diag().expect("injected failures are tagged");
        assert_eq!(diag.kind, expected_kind(kind), "{kind:?} taxonomy");
        assert_eq!(diag.stage, RecoveryStage::SourceStepping, "{kind:?} stage");
        assert!(diag.injected, "{kind:?} must be marked injected");
        assert!(
            diag.analysis.contains("ota"),
            "diagnosis names the testbench: {}",
            diag.analysis
        );
    }
    // Plan removed (guard drop): the same evaluation is healthy again.
    let spec = ota.evaluate(&x);
    assert!(!spec.is_failure(), "weather cleared, evaluation healthy");
}

#[test]
fn single_injected_solve_is_rescued_by_the_recovery_ladder() {
    let _lock = PLAN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let ota = FoldedCascodeOta::new();
    let x = SizingProblem::nominal(&ota);
    // Fault only the very first Newton solve of each analysis unit: the
    // DC recovery ladder (gmin stepping) must rescue the open-loop
    // operating point, so that unit succeeds and records no failure.
    let _installed = InstalledPlan::new(FaultPlan {
        seed: 2,
        rate: 1.0,
        kind: FaultKind::IterationExhaustion,
        solves: FaultSolves::Index(0),
    });
    let open = ota.evaluate_analysis(&x, 0, 0);
    assert!(
        !open.failed && open.failure.is_none(),
        "the ladder must rescue a single faulted open-loop solve: {:?}",
        open.failure
    );
    // Known defect (ROADMAP item 6): the closed-loop operating point is
    // not rescued (the ladder gives up at source stepping), and
    // `measure_closed_loop` drops that diagnosis — the unit comes back as
    // the undiagnosed ∞-noise sentinel, so the whole evaluation fails
    // untagged. Pinned here so a fix shows up as a deliberate change.
    let closed = ota.evaluate_analysis(&x, 0, 1);
    assert!(!closed.failed && closed.failure.is_none());
    assert!(closed.constraints.contains(&(7, f64::INFINITY)));
    let spec = ota.evaluate(&x);
    assert!(spec.is_failure());
    assert!(spec.failure_diag().is_none());
}
