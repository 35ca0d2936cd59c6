//! Telemetry-plane acceptance suite.
//!
//! Pins the three contracts the observability layer makes:
//!
//! 1. **Aggregation core** — log2-bucket histograms have exact power-of-two
//!    boundaries and shard merging is associative (proptest), so per-worker
//!    shards can be merged in any order without changing the summary.
//! 2. **Span accounting** — span counts over the hierarchical evaluation
//!    grid are identical at 1/2/7 pool threads, nesting depth returns to
//!    zero, and the hierarchy reaches ≥ 5 levels. Every optimizer's run
//!    opens exactly one `run` span.
//! 3. **Neutrality** — a full DNN-Opt run's history is bit-identical with
//!    tracing off and with a Chrome event sink hot, at 1 and 2 threads:
//!    telemetry reads clocks but never feeds numerics.
//!
//! Plus the per-analysis failure attribution the unit grid carries into
//! [`opt::RobustnessReport::by_analysis`].

use std::sync::Mutex;

use circuits::tech::CornerSet;
use circuits::{FoldedCascodeOta, StrongArmLatch};
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    parallel, AnalysisSpec, BoWei, DifferentialEvolution, Evaluator, Fom, Gaspad, Optimizer,
    RandomSearch, RunResult, SimulatedAnnealing, SizingProblem, SpecResult, StopPolicy,
};
use proptest::prelude::*;
use spice::fault::{self, FaultKind, FaultPlan, FaultSolves};
use telemetry::{Metric, SinkKind, SpanId};

/// Telemetry sinks/shards, the fault plan and the thread-count override
/// are process-wide: every stateful test holds this lock for its whole
/// body so concurrent test threads never observe each other's state.
static LOCK: Mutex<()> = Mutex::new(());

/// RAII cleanup: disables telemetry and removes any fault plan even when
/// an assertion panics mid-test.
struct Scoped;

impl Drop for Scoped {
    fn drop(&mut self) {
        telemetry::install(None);
        telemetry::reset();
        fault::install(None);
        parallel::set_max_threads(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every value lands in the bucket whose `[floor, 2·floor)` range
    /// contains it (bucket 0 is the exact value 0; the last bucket clamps).
    #[test]
    fn histogram_buckets_bound_their_values(v in 0u64..u64::MAX) {
        let b = telemetry::bucket_of(v);
        prop_assert!(b < telemetry::HIST_BUCKETS);
        prop_assert!(telemetry::bucket_floor(b) <= v.max(1) || v == 0);
        if v > 0 && b < telemetry::HIST_BUCKETS - 1 {
            prop_assert!(telemetry::bucket_floor(b) <= v);
            prop_assert!(v < 2 * telemetry::bucket_floor(b));
        }
        if v == 0 {
            prop_assert_eq!(b, 0);
        }
    }

    /// Merging shard histograms is associative and order-independent, and
    /// always agrees with observing the concatenated stream directly —
    /// the property that makes lock-free per-worker shards mergeable.
    #[test]
    fn histogram_merge_is_associative(
        xs in proptest::collection::vec(0u64..1_000_000_000, 0..24),
        ys in proptest::collection::vec(0u64..1_000_000_000, 0..24),
        zs in proptest::collection::vec(0u64..1_000_000_000, 0..24),
    ) {
        let observe = |vals: &[u64]| {
            let mut h = telemetry::Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let (a, b, c) = (observe(&xs), observe(&ys), observe(&zs));
        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut right_tail = b;
        right_tail.merge(&c);
        let mut right = a;
        right.merge(&right_tail);
        prop_assert_eq!(left, right);
        // Both equal the direct observation of every value.
        let mut all = xs.clone();
        all.extend(&ys);
        all.extend(&zs);
        prop_assert_eq!(left, observe(&all));
        prop_assert_eq!(left.count, all.len() as u64);
    }
}

/// Three candidates spread around a problem's nominal design.
fn around_nominal(problem: &dyn SizingProblem) -> Vec<Vec<f64>> {
    let (lb, ub) = problem.bounds();
    let nominal = problem.nominal();
    (0..3)
        .map(|i| {
            let t = (i as f64 - 1.0) * 0.03;
            nominal
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                .collect()
        })
        .collect()
}

/// The telemetry summary of one `evaluate_batch` of `xs` at `threads`
/// pool threads.
fn batch_summary(
    problem: &dyn SizingProblem,
    xs: &[Vec<f64>],
    threads: usize,
) -> telemetry::Summary {
    let fom = Fom::new(100.0, vec![0.25; problem.num_constraints()]);
    parallel::set_max_threads(threads);
    telemetry::install(Some(SinkKind::Summary));
    telemetry::reset();
    let mut ev = Evaluator::new(problem, &fom, xs.len());
    ev.evaluate_batch(xs);
    parallel::set_max_threads(0);
    let summary = telemetry::finish().expect("plane is installed");
    assert_eq!(telemetry::current_depth(), 0, "depth unwinds to zero");
    telemetry::install(None);
    summary
}

/// Span counts over the candidate×corner×analysis grid must not depend on
/// the worker-pool thread count, the nesting depth must unwind to zero,
/// and the hierarchy must reach at least five levels
/// (EvalBatch→Candidate→Corner→Analysis→Testbench→Solve). A
/// single-corner, single-analysis testbench runs the same grid with one
/// unit per candidate.
#[test]
fn span_accounting_is_thread_count_invariant() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let ota = FoldedCascodeOta::with_corners(CornerSet::pvt5());
    let xs = around_nominal(&ota);
    let units = xs.len() * ota.num_corners() * SizingProblem::num_analyses(&ota);
    let summary_at = |threads: usize| batch_summary(&ota, &xs, threads);

    let reference = summary_at(1);
    assert_eq!(reference.span_count(SpanId::EvalBatch), 1);
    for id in [
        SpanId::Candidate,
        SpanId::Corner,
        SpanId::Analysis,
        SpanId::Testbench,
    ] {
        assert_eq!(
            reference.span_count(id),
            units as u64,
            "{id:?}: one span per grid unit"
        );
    }
    assert!(
        reference.span_count(SpanId::Solve) >= units as u64,
        "every unit runs at least one Newton solve"
    );
    // Every unit solves one operating point; the analyses split each
    // testbench span below it.
    assert_eq!(reference.span_count(SpanId::Op), units as u64);
    for id in [SpanId::Ac, SpanId::Noise, SpanId::Tran] {
        assert!(reference.span_count(id) >= 1, "{id:?} span recorded");
    }
    assert!(
        reference.max_depth >= 5,
        "hierarchy reaches 5+ levels, got {}",
        reference.max_depth
    );
    assert!(!reference.metric(Metric::NewtonIterations).is_empty());
    assert!(!reference.metric(Metric::WorkspaceHits).is_empty());

    for threads in [2usize, 7] {
        let s = summary_at(threads);
        for id in [
            SpanId::EvalBatch,
            SpanId::Candidate,
            SpanId::Corner,
            SpanId::Analysis,
            SpanId::Testbench,
            SpanId::Op,
            SpanId::Ac,
            SpanId::Noise,
            SpanId::Tran,
            SpanId::Solve,
            SpanId::Factor,
            SpanId::Refactor,
        ] {
            assert_eq!(
                s.span_count(id),
                reference.span_count(id),
                "{id:?} count @ {threads} threads"
            );
        }
        // The solver does bit-identical work, so the Newton-iteration
        // histogram (not just its count) is identical too.
        assert_eq!(
            s.metric(Metric::NewtonIterations),
            reference.metric(Metric::NewtonIterations),
            "NewtonIterations histogram @ {threads} threads"
        );
        assert!(s.max_depth >= 5, "@ {threads} threads");
    }

    let latch = StrongArmLatch::new();
    let xs = around_nominal(&latch);
    for threads in [1usize, 2, 7] {
        let s = batch_summary(&latch, &xs, threads);
        assert_eq!(s.span_count(SpanId::EvalBatch), 1, "latch @ {threads}");
        for id in [SpanId::Candidate, SpanId::Corner, SpanId::Analysis] {
            assert_eq!(
                s.span_count(id),
                xs.len() as u64,
                "latch {id:?}: one span per candidate @ {threads} threads"
            );
        }
    }
}

fn quick_cfg() -> DnnOptConfig {
    DnnOptConfig {
        n_init: 8,
        n_elite: 4,
        critic_epochs: 60,
        actor_epochs: 20,
        critic_batch: 64,
        hidden: 16,
        ..Default::default()
    }
}

fn assert_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.history.len(), b.history.len(), "{label}: history length");
    for (i, (ea, eb)) in a
        .history
        .entries()
        .iter()
        .zip(b.history.entries())
        .enumerate()
    {
        assert_eq!(ea.x, eb.x, "{label}: design #{i}");
        assert_eq!(ea.fom.to_bits(), eb.fom.to_bits(), "{label}: fom #{i}");
        assert_eq!(ea.spec, eb.spec, "{label}: spec #{i}");
        assert_eq!(ea.corner_specs, eb.corner_specs, "{label}: corners #{i}");
    }
    assert_eq!(
        a.history.best_trace(),
        b.history.best_trace(),
        "{label}: best trace"
    );
}

/// Tracing on vs off must not move a single bit of the optimizer history —
/// at 1 thread and at 2 — while the hot run writes a parseable Chrome
/// trace with balanced begin/end events and no drops.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let ota = FoldedCascodeOta::new();
    let fom = Fom::new(100.0, vec![0.25; SizingProblem::num_constraints(&ota)]);
    let dnn = DnnOpt::new(quick_cfg());

    for threads in [1usize, 2] {
        let run_with = |sink: Option<SinkKind>| -> (RunResult, Option<telemetry::Summary>) {
            parallel::set_max_threads(threads);
            telemetry::install(sink);
            telemetry::reset();
            let run = dnn.run(&ota, &fom, 14, StopPolicy::Exhaust, 3);
            let summary = telemetry::finish();
            telemetry::install(None);
            parallel::set_max_threads(0);
            (run, summary)
        };

        let (off, off_summary) = run_with(None);
        assert!(off_summary.is_none(), "disabled plane yields no summary");

        let path = std::env::temp_dir().join(format!(
            "dnnopt_telemetry_test_{}_t{threads}.json",
            std::process::id()
        ));
        let (on, on_summary) =
            run_with(Some(SinkKind::Chrome(path.to_string_lossy().into_owned())));
        assert_identical(
            &off,
            &on,
            &format!("traced vs untraced @ {threads} threads"),
        );

        let summary = on_summary.expect("enabled plane yields a summary");
        assert!(summary.events > 0, "events were buffered");
        assert_eq!(summary.dropped, 0, "no events dropped at this scale");
        assert!(summary.max_depth >= 5, "trace covers 5+ span levels");
        assert!(summary.span_count(SpanId::Run) >= 1);
        assert!(summary.span_count(SpanId::Generation) >= 1);
        assert!(summary.span_count(SpanId::CriticTrain) >= 1);
        assert!(!summary.metric(Metric::TrainSteps).is_empty());

        let text = std::fs::read_to_string(&path).expect("chrome trace written");
        let _ = std::fs::remove_file(&path);
        assert!(text.trim_start().starts_with('['), "trace_event JSON array");
        assert!(text.trim_end().ends_with(']'), "array closed");
        let begins = text.matches("\"ph\":\"B\"").count();
        let ends = text.matches("\"ph\":\"E\"").count();
        assert_eq!(begins, ends, "begin/end events balance @ {threads} threads");
        assert!(begins > 0, "trace is non-empty");
    }
}

/// A cheap two-variable problem with one constraint.
struct Toy;

impl SizingProblem for Toy {
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
        SpecResult {
            failure: None,
            objective: (x[0] - 0.3).powi(2) + (x[1] - 0.6).powi(2),
            constraints: vec![0.4 - x[1]],
        }
        .into()
    }
}

/// Every optimizer runs under the shared harness: one `run` span per run
/// at the root of its tree, and the span depth unwinds to zero.
#[test]
fn every_optimizer_records_one_run_span() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let fom = Fom::uniform(1.0, 1);
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
        Box::new(DnnOpt::new(quick_cfg())),
    ];
    for o in &opts {
        telemetry::install(Some(SinkKind::Summary));
        telemetry::reset();
        let run = o.run(&Toy, &fom, 24, StopPolicy::Exhaust, 0);
        let summary = telemetry::finish().expect("plane is installed");
        telemetry::install(None);
        assert_eq!(run.history.len(), 24, "{}", o.name());
        assert_eq!(summary.span_count(SpanId::Run), 1, "{}", o.name());
        assert!(summary.span_count(SpanId::EvalBatch) >= 1, "{}", o.name());
        assert_eq!(telemetry::current_depth(), 0, "{}", o.name());
    }
}

/// The unit grid attributes assembled failures to the analysis that
/// produced them: the diag label is prefixed with
/// [`SizingProblem::analysis_name`] and the robustness report breaks
/// failures down per analysis — on the real two-analysis OTA under a
/// full-rate fault plan.
#[test]
fn unit_grid_attributes_failures_per_analysis() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let ota = FoldedCascodeOta::new();
    let fom = Fom::new(100.0, vec![0.25; SizingProblem::num_constraints(&ota)]);
    let (lb, ub) = ota.bounds();
    let nominal = ota.nominal();
    let xs: Vec<Vec<f64>> = (0..3)
        .map(|i| {
            let t = (i as f64 - 1.0) * 0.02;
            nominal
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                .collect()
        })
        .collect();

    fault::install(Some(FaultPlan {
        seed: 11,
        rate: 1.0,
        kind: FaultKind::SingularFactor,
        solves: FaultSolves::All,
    }));
    let mut ev = Evaluator::new(&ota, &fom, xs.len());
    let out = ev.evaluate_batch(&xs);
    fault::install(None);

    // Full-rate plan: every unit dies; the assembled corner carries the
    // first failed unit's diagnosis, which must name its analysis.
    for (i, e) in out.iter().enumerate() {
        assert!(e.spec.is_failure(), "candidate {i} must fail");
        let diag = e.spec.failure_diag().expect("injected failures are tagged");
        assert!(
            diag.analysis.starts_with("open-loop"),
            "diagnosis names the failing unit, got {:?}",
            diag.analysis
        );
    }
    let report = ev.history().robustness_report();
    assert_eq!(report.failures, xs.len());
    assert_eq!(report.by_analysis.len(), 1, "one distinct analysis label");
    let (label, n) = &report.by_analysis[0];
    assert!(label.starts_with("open-loop"), "got {label:?}");
    assert_eq!(*n, xs.len());
    assert_eq!(report.analysis_count(label), xs.len());
    assert_eq!(report.analysis_count("closed-loop"), 0);
    // The breakdown surfaces in the printed report.
    assert!(report.to_string().contains("open-loop"));

    // The healthy path is unaffected: no plan, no failures, no breakdown.
    let mut ev = Evaluator::new(&ota, &fom, 1);
    let out = ev.evaluate_batch(&xs[..1]);
    assert!(!out[0].spec.is_failure(), "healthy without a plan");
    assert!(ev.history().robustness_report().by_analysis.is_empty());
}

/// The closed-loop unit solves its operating point once: noise and the
/// step transient both start from it, and when it fails no transient runs.
/// On a design whose closed-loop operating point fails, the unit's
/// constraints equal the old two-ladder composition's (the transient
/// re-ran the same failing ladder: no settling time, 100 % static error,
/// no noise figure), and its solver work is exactly one ladder — the
/// `closed_loop_transient` benchmark hook (operating point + transient,
/// the old second half) spends the same.
#[test]
fn failed_closed_loop_op_runs_no_transient() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let ota = FoldedCascodeOta::new();
    let (_, ub) = ota.bounds();
    // L1 at its upper bound: the open loop biases up, the closed loop's
    // recovery ladder fails.
    let mut x = ota.nominal();
    x[0] = ub[0];
    let traced = |f: &dyn Fn()| {
        telemetry::install(Some(SinkKind::Summary));
        telemetry::reset();
        f();
        let summary = telemetry::finish().expect("plane is installed");
        telemetry::install(None);
        summary
    };

    let hook = traced(&|| assert!(ota.closed_loop_transient(&x).is_err()));
    let unit = traced(&|| {
        let spec = SizingProblem::evaluate_analysis(&ota, &x, 0, 1);
        assert!(!spec.failed, "the closed-loop unit degrades softly");
        let bits: Vec<(usize, u64)> = spec
            .constraints
            .iter()
            .map(|&(i, v)| (i, v.to_bits()))
            .collect();
        let want = [
            (1, 3.0f64),
            (7, (f64::INFINITY - 30e-3) / 30e-3),
            (8, (100.0 - 0.1) / 0.2),
        ];
        let want: Vec<(usize, u64)> = want.iter().map(|&(i, v)| (i, v.to_bits())).collect();
        assert_eq!(bits, want, "settling, noise, static error");
    });

    for (label, s) in [("hook", &hook), ("unit", &unit)] {
        assert_eq!(s.span_count(SpanId::Op), 1, "{label}: one operating point");
        assert_eq!(s.span_count(SpanId::Tran), 0, "{label}: no transient");
        assert_eq!(s.span_count(SpanId::Noise), 0, "{label}: no noise analysis");
    }
    assert!(
        hook.span_count(SpanId::Solve) > 1,
        "the ladder climbs past plain Newton"
    );
    assert_eq!(
        unit.span_count(SpanId::Solve),
        hook.span_count(SpanId::Solve),
        "one ladder's solves, not two"
    );
    assert_eq!(
        unit.metric(Metric::NewtonIterations),
        hook.metric(Metric::NewtonIterations)
    );
}

/// The design `circuits::ota`'s transient bit-identity test uses for the
/// recovery-ladder case — the nominal OTA with L1 at its lower bound —
/// does reach its closed-loop operating point through gmin stepping.
#[test]
fn short_l1_closed_loop_op_needs_gmin_stepping() {
    let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _guard = Scoped;
    let ota = FoldedCascodeOta::new();
    let (lb, _) = ota.bounds();
    let mut x = ota.nominal();
    x[0] = lb[0];
    telemetry::install(Some(SinkKind::Summary));
    telemetry::reset();
    ota.closed_loop_transient(&x)
        .expect("the ladder finds the point");
    let s = telemetry::finish().expect("plane is installed");
    assert_eq!(s.span_count(SpanId::Op), 1);
    assert!(s.metric(Metric::GminSteps).count > 0, "gmin stepping ran");
    assert_eq!(
        s.metric(Metric::SourceSteps).count,
        0,
        "gmin stepping succeeded"
    );
}
