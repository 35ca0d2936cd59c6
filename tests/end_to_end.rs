//! Cross-crate integration tests: the full pipeline from circuits through
//! optimizers, exercised at small budgets.

use circuits::tech::CornerSet;
use circuits::{Ctle, FoldedCascodeOta, InverterChain, Ldo, LevelShifter, StrongArmLatch};
use dnn_opt::{DnnOpt, DnnOptConfig, ReducedProblem, SensitivityReport};
use opt::{
    parallel, DifferentialEvolution, Evaluator, Fom, Optimizer, SizingProblem, SpecResult,
    StopPolicy,
};

fn quick_cfg() -> DnnOptConfig {
    DnnOptConfig {
        critic_epochs: 120,
        actor_epochs: 40,
        critic_batch: 96,
        hidden: 32,
        ..Default::default()
    }
}

#[test]
fn ota_nominal_is_feasible_and_deterministic() {
    let ota = FoldedCascodeOta::new();
    let a = ota.evaluate(&ota.nominal());
    let b = ota.evaluate(&ota.nominal());
    assert!(
        a.feasible(),
        "shipped OTA design must meet Eq. 9: {:?}",
        a.constraints
    );
    assert_eq!(a, b, "evaluations must be deterministic");
}

#[test]
fn latch_nominal_is_feasible() {
    let latch = StrongArmLatch::new();
    let spec = latch.evaluate(&latch.nominal());
    assert!(
        spec.feasible(),
        "shipped latch design must meet Eq. 10: {:?}",
        spec.constraints
    );
}

#[test]
fn dnn_opt_runs_on_the_real_ota() {
    let ota = FoldedCascodeOta::new();
    let fom = Fom::new(100.0, vec![0.25; ota.num_constraints()]);
    let run = DnnOpt::new(quick_cfg()).run(&ota, &fom, 30, StopPolicy::Exhaust, 0);
    assert_eq!(run.history.len(), 30);
    // Every recorded evaluation carries the full Eq. 9 constraint vector.
    for e in run.history.entries() {
        assert_eq!(e.spec.constraints.len(), 29);
    }
    // The budget is split between LHS initialization and surrogate steps.
    assert!(run.model_time.as_secs_f64() > 0.0);
}

#[test]
fn de_runs_on_the_real_latch() {
    let latch = StrongArmLatch::new();
    let fom = Fom::new(3e4, vec![0.25; latch.num_constraints()]);
    let run = DifferentialEvolution::default().run(&latch, &fom, 40, StopPolicy::Exhaust, 1);
    assert_eq!(run.history.len(), 40);
    assert!(run.history.best().is_some());
}

#[test]
fn sensitivity_prunes_level_shifter_decaps() {
    let ls = LevelShifter::new();
    let report = SensitivityReport::compute(&ls, &ls.nominal(), 0.05);
    let critical = report.critical_variables(0.1);
    let names = ls.variable_names();
    // The rail decap geometry is near-inert by construction; it must be
    // pruned. The pull-downs are load-bearing; they must be kept.
    let kept: Vec<&str> = critical.iter().map(|&j| names[j].as_str()).collect();
    assert!(
        !kept.contains(&"w_decl"),
        "decap width must be pruned, kept: {kept:?}"
    );
    assert!(
        !kept.contains(&"l_decl"),
        "decap length must be pruned, kept: {kept:?}"
    );
    assert!(
        kept.contains(&"w_pd1") || kept.contains(&"w_pd2"),
        "pull-downs are critical, kept: {kept:?}"
    );
    assert!(critical.len() < ls.dim(), "pruning must remove something");
}

#[test]
fn reduced_problem_optimizes_inverter_chain() {
    let inv = InverterChain::new();
    let report = SensitivityReport::compute(&inv, &inv.nominal(), 0.05);
    let critical = report.critical_variables(0.1);
    assert!(!critical.is_empty());
    let reduced = ReducedProblem::new(&inv, inv.nominal(), critical);
    let fom = Fom::uniform(1.0, reduced.num_constraints());
    let run = DnnOpt::new(quick_cfg()).run(&reduced, &fom, 25, StopPolicy::FirstFeasible, 0);
    // The nominal-centered reduced problem starts near feasibility, so a
    // tiny budget suffices.
    assert!(
        run.sims_to_feasible().is_some(),
        "inverter chain should be easy"
    );
}

#[test]
fn fom_traces_are_monotone_for_all_methods() {
    let ota = FoldedCascodeOta::new();
    let fom = Fom::new(100.0, vec![0.25; ota.num_constraints()]);
    for method in [&DifferentialEvolution::default() as &dyn Optimizer] {
        let run = method.run(&ota, &fom, 25, StopPolicy::Exhaust, 2);
        for w in run.history.best_trace().windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "{} trace not monotone", method.name());
        }
    }
}

/// Objective and constraint bits, then the failure diagnosis' Debug text:
/// everything a recorded spec carries, compared without NaN's `!=`.
fn spec_fingerprint(spec: &SpecResult) -> (Vec<u64>, String) {
    let bits = std::iter::once(spec.objective)
        .chain(spec.constraints.iter().copied())
        .map(f64::to_bits)
        .collect();
    (bits, format!("{:?}", spec.failure))
}

/// A direct `evaluate(x)` runs the pipeline the `Evaluator` records:
/// same values, FoM bits and diagnosis at the nominal design and at the
/// box midpoint of every shipped testbench, at one and at two threads.
/// (The OTA's midpoint fails its open-loop operating point, so the
/// attributed failure label is part of the comparison.)
#[test]
fn direct_evaluation_equals_the_unit_grid_for_every_testbench() {
    let problems: [Box<dyn SizingProblem>; 7] = [
        Box::new(FoldedCascodeOta::new()),
        Box::new(FoldedCascodeOta::with_corners(CornerSet::pvt5())),
        Box::new(StrongArmLatch::new()),
        Box::new(Ctle::new()),
        Box::new(Ldo::new()),
        Box::new(LevelShifter::new()),
        Box::new(InverterChain::new()),
    ];
    for (i, p) in problems.iter().enumerate() {
        let p = p.as_ref();
        let fom = Fom::uniform(1.0, p.num_constraints());
        let (lb, ub) = p.bounds();
        let mid: Vec<f64> = lb.iter().zip(&ub).map(|(l, u)| 0.5 * (l + u)).collect();
        for (point, x) in [("nominal", p.nominal()), ("midpoint", mid)] {
            let direct = p.evaluate(&x);
            if i == 0 && point == "midpoint" {
                let diag = direct.failure_diag().expect("the OTA midpoint fails");
                assert!(
                    diag.analysis.starts_with("open-loop: "),
                    "{}",
                    diag.analysis
                );
            }
            for threads in [1usize, 2] {
                parallel::set_max_threads(threads);
                let recorded = Evaluator::new(p, &fom, 1).evaluate(&x);
                parallel::set_max_threads(0);
                let label = format!("problem {i} ({}) at {point}, threads={threads}", p.name());
                assert_eq!(
                    spec_fingerprint(&direct),
                    spec_fingerprint(&recorded.spec),
                    "{label}"
                );
                assert_eq!(
                    fom.value(&direct).to_bits(),
                    recorded.fom.to_bits(),
                    "{label}"
                );
            }
        }
    }
}

/// Pruning the OTA keeps its two-analysis grid: the reduced problem
/// forwards the inner unit count and names, and its recorded history
/// equals the full OTA's at the expanded points, bit for bit.
#[test]
fn reduced_ota_keeps_its_analysis_grid() {
    let ota = FoldedCascodeOta::new();
    // L2, L6, W3 and W6 move; everything else is pinned at nominal.
    let red = ReducedProblem::new(&ota, ota.nominal(), vec![1, 5, 9, 12]);
    assert_eq!(red.num_analyses(), 2);
    assert_eq!(red.analysis_name(0), "open-loop");
    assert_eq!(red.analysis_name(1), "closed-loop");
    let (lb, ub) = red.bounds();
    let mid: Vec<f64> = lb.iter().zip(&ub).map(|(l, u)| 0.5 * (l + u)).collect();
    let xs = vec![red.nominal(), mid, lb, ub];
    let full: Vec<Vec<f64>> = xs.iter().map(|x| red.expand(x)).collect();
    let fom = Fom::new(100.0, vec![0.25; ota.num_constraints()]);
    let reduced = Evaluator::new(&red, &fom, xs.len()).evaluate_batch(&xs);
    let reference = Evaluator::new(&ota, &fom, full.len()).evaluate_batch(&full);
    assert_eq!(reduced.len(), reference.len());
    for (i, (a, b)) in reduced.iter().zip(&reference).enumerate() {
        assert_eq!(spec_fingerprint(&a.spec), spec_fingerprint(&b.spec), "#{i}");
        assert_eq!(a.fom.to_bits(), b.fom.to_bits(), "#{i}");
        assert!(a.corner_specs.is_empty() && b.corner_specs.is_empty());
    }
    // The midpoint fails its open-loop operating point: the comparison
    // above covered an attributed diagnosis, not only healthy specs.
    let diag = reduced[1].spec.failure_diag().expect("the midpoint fails");
    assert!(
        diag.analysis.starts_with("open-loop: "),
        "{}",
        diag.analysis
    );
}
