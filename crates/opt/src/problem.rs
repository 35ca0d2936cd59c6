//! The constrained sizing-problem abstraction (paper Eq. 1).

use crate::failure::FailureDiag;

/// Penalty magnitude a failed evaluation reports for the objective and
/// every constraint. Finite by design: surrogate models can ingest the
/// cliff (after robust clipping) where a NaN would poison training.
pub const FAILURE_PENALTY: f64 = 1e12;

/// Result of one expensive evaluation: the objective and the constraint
/// values in `fi(x) ≤ 0` form (negative/zero = satisfied).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecResult {
    /// Objective value `f0(x)` to minimize.
    pub objective: f64,
    /// Constraint values `fi(x)`; feasible when all are `≤ 0`.
    pub constraints: Vec<f64>,
    /// Structured diagnosis when this result is a failure placeholder;
    /// `None` for successful evaluations (and for legacy failure paths that
    /// carry no taxonomy). Boxed to keep the success hot path small.
    pub failure: Option<Box<FailureDiag>>,
}

impl SpecResult {
    /// True if every constraint is satisfied.
    pub fn feasible(&self) -> bool {
        self.constraints.iter().all(|&c| c <= 0.0)
    }

    /// The full spec vector `[f0, f1, …, fm]` as the critic network sees it.
    pub fn as_vector(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(1 + self.constraints.len());
        v.push(self.objective);
        v.extend_from_slice(&self.constraints);
        v
    }

    /// Builds a result from the `[f0, f1, …, fm]` vector layout.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn from_vector(v: &[f64]) -> Self {
        assert!(!v.is_empty(), "spec vector needs at least the objective");
        SpecResult {
            objective: v[0],
            constraints: v[1..].to_vec(),
            failure: None,
        }
    }

    /// A deliberately terrible result used when a simulation fails: large
    /// objective and every constraint maximally violated. Keeps optimizer
    /// loops total (no `Result` plumbing through every algorithm) while
    /// making failed regions strongly repellent.
    pub fn failed(num_constraints: usize) -> Self {
        SpecResult {
            objective: FAILURE_PENALTY,
            constraints: vec![FAILURE_PENALTY; num_constraints],
            failure: None,
        }
    }

    /// The failure placeholder of [`SpecResult::failed`] carrying a
    /// structured diagnosis of *why* the evaluation failed.
    pub fn failed_with(num_constraints: usize, diag: FailureDiag) -> Self {
        SpecResult {
            failure: Some(Box::new(diag)),
            ..SpecResult::failed(num_constraints)
        }
    }

    /// The structured failure diagnosis, if one was recorded.
    pub fn failure_diag(&self) -> Option<&FailureDiag> {
        self.failure.as_deref()
    }

    /// True if this is a failure placeholder (any non-finite or huge entry).
    pub fn is_failure(&self) -> bool {
        !self.objective.is_finite()
            || self.objective >= FAILURE_PENALTY
            || self
                .constraints
                .iter()
                .any(|c| !c.is_finite() || *c >= FAILURE_PENALTY)
    }

    /// Worst-case merge across a corner plane: the sign-off view of a
    /// candidate is the element-wise **maximum** of its per-corner results
    /// (objective and every constraint — all are minimize/`≤ 0` specs, so
    /// max is pessimal). Any failed or non-finite corner dominates: the
    /// merged result is then the [`SpecResult::failed`] placeholder (with
    /// the first failing corner's diagnosis attached, when it recorded
    /// one), so a candidate that does not even simulate at one corner can
    /// never look feasible.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice or on constraint-count disagreement
    /// between corners.
    pub fn worst_case(results: &[SpecResult]) -> SpecResult {
        let first = results
            .first()
            .expect("worst-case merge needs at least one corner");
        let mut merged = first.clone();
        for r in &results[1..] {
            merged.merge_worst(r);
        }
        // A single non-finite/failed corner (including the first) poisons
        // the whole candidate; the first failing corner classifies it.
        if merged.is_failure() || results.iter().any(SpecResult::is_failure) {
            let mut out = SpecResult::failed(first.constraints.len());
            out.failure = results
                .iter()
                .find(|r| r.is_failure())
                .and_then(|r| r.failure.clone());
            return out;
        }
        merged
    }

    /// Folds `other` into `self`, keeping the element-wise worst (largest)
    /// objective and constraints; NaN entries are treated as worst and
    /// survive the fold (see [`SpecResult::worst_case`] for the
    /// failure-dominates contract). A failing `other` donates its failure
    /// diagnosis when `self` has none (the first failing corner in a fold
    /// keeps classifying the merged result).
    ///
    /// # Panics
    ///
    /// Panics if the constraint counts disagree.
    pub fn merge_worst(&mut self, other: &SpecResult) {
        assert_eq!(
            self.constraints.len(),
            other.constraints.len(),
            "corner constraint layouts must agree"
        );
        // `f64::max` drops NaN; an explicit NaN-keeping max makes a
        // non-finite corner visible to `is_failure` instead of vanishing.
        let worst = |a: f64, b: f64| if a.is_nan() || a > b { a } else { b };
        self.objective = worst(other.objective, self.objective);
        for (c, &o) in self.constraints.iter_mut().zip(&other.constraints) {
            *c = worst(o, *c);
        }
        if self.failure.is_none() && other.is_failure() {
            self.failure = other.failure.clone();
        }
    }
}

/// The partial result of one independent **analysis** of a testbench at
/// one corner: the slice of the full [`SpecResult`] layout that this
/// analysis owns. A testbench that runs several independent simulations
/// per evaluation (e.g. an open-loop AC characterization and a
/// closed-loop transient) can expose them as separate analyses
/// ([`SizingProblem::num_analyses`]), letting [`crate::Evaluator`] fan a
/// population out over the finer candidate × corner × analysis grid.
///
/// [`AnalysisSpec::assemble`] reassembles the per-analysis partials into
/// the corner's full `SpecResult`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AnalysisSpec {
    /// The objective value, if this analysis owns the objective.
    pub objective: Option<f64>,
    /// `(constraint index, value)` pairs this analysis owns.
    pub constraints: Vec<(usize, f64)>,
    /// Structured diagnosis attached to the assembled result (set together
    /// with `failed` for hard failures; may also tag soft values).
    pub failure: Option<Box<FailureDiag>>,
    /// Hard failure: the assembled result for this (candidate, corner)
    /// must be the canonical [`SpecResult::failed`] placeholder.
    pub failed: bool,
}

impl AnalysisSpec {
    /// An empty partial to be filled by the analysis.
    pub fn partial() -> Self {
        Self::default()
    }

    /// A hard-failed analysis carrying an optional diagnosis; assembly
    /// collapses the whole corner to the failed placeholder.
    pub fn hard_failed(diag: Option<FailureDiag>) -> Self {
        AnalysisSpec {
            failed: true,
            failure: diag.map(Box::new),
            ..Self::default()
        }
    }

    /// Reassembles per-analysis partials (in analysis order) into the full
    /// [`SpecResult`] of one (candidate, corner) evaluation.
    ///
    /// If any analysis hard-failed, the result is the canonical
    /// [`SpecResult::failed`] placeholder classified by the **first**
    /// failed analysis' diagnosis. Otherwise every partial
    /// scatters into the layout, and the first attached diagnosis (in
    /// analysis order) tags the result.
    ///
    /// # Panics
    ///
    /// Panics unless the objective and every constraint index in
    /// `0..num_constraints` is covered exactly once across the units —
    /// analyses must partition the spec layout.
    pub fn assemble(num_constraints: usize, units: &[AnalysisSpec]) -> SpecResult {
        if let Some(bad) = units.iter().find(|u| u.failed) {
            let mut out = SpecResult::failed(num_constraints);
            out.failure = bad.failure.clone();
            return out;
        }
        let mut objective = None;
        let mut constraints: Vec<Option<f64>> = vec![None; num_constraints];
        let mut failure = None;
        for u in units {
            if let Some(o) = u.objective {
                assert!(objective.is_none(), "objective assembled twice");
                objective = Some(o);
            }
            for &(i, v) in &u.constraints {
                assert!(
                    constraints[i].replace(v).is_none(),
                    "constraint {i} assembled twice"
                );
            }
            if failure.is_none() {
                failure = u.failure.clone();
            }
        }
        SpecResult {
            objective: objective.expect("no analysis owns the objective"),
            constraints: constraints
                .into_iter()
                .enumerate()
                .map(|(i, v)| v.unwrap_or_else(|| panic!("constraint {i} not covered")))
                .collect(),
            failure,
        }
    }
}

/// A complete [`SpecResult`] as the single analysis owning the full
/// layout — the unit of a monolithic testbench (`assemble` of this partial
/// reproduces `spec` bit-for-bit, including raw non-placeholder failure
/// values).
impl From<SpecResult> for AnalysisSpec {
    fn from(spec: SpecResult) -> Self {
        AnalysisSpec {
            objective: Some(spec.objective),
            constraints: spec.constraints.iter().copied().enumerate().collect(),
            failure: spec.failure,
            failed: false,
        }
    }
}

/// A constrained black-box sizing problem (paper Eq. 1):
///
/// ```text
/// minimize f0(x)   subject to fi(x) ≤ 0,  i = 1..m,   x ∈ [lb, ub]
/// ```
///
/// Implementations wrap a circuit testbench. The one method a testbench
/// writes is [`SizingProblem::evaluate_analysis`], the expensive
/// "SPICE simulation" of one (corner, analysis) unit; `evaluate` and
/// `evaluate_corner` derive from it through the same attribution,
/// assembly and worst-case fold [`crate::Evaluator`] applies, so a direct
/// call and a recorded evaluation agree bit for bit.
///
/// The `Sync` supertrait lets [`crate::Evaluator::evaluate_batch`] fan
/// candidate populations out across worker threads; implementations are
/// plain data plus pure computation, so this costs nothing in practice.
pub trait SizingProblem: Sync {
    /// Number of design variables `d`.
    fn dim(&self) -> usize;

    /// Box bounds `(lb, ub)`, each of length [`SizingProblem::dim`].
    fn bounds(&self) -> (Vec<f64>, Vec<f64>);

    /// Number of constraints `m`.
    fn num_constraints(&self) -> usize;

    /// The whole evaluation of candidate `x`, run serially: every corner
    /// via [`SizingProblem::evaluate_corner`], then the worst-case fold
    /// ([`SpecResult::worst_case`]) — the sign-off view of a corner
    /// problem. A single-corner problem returns its one corner as is.
    /// A unit that panics propagates out of this call, where
    /// [`crate::Evaluator`] records it as a diagnosed failure.
    fn evaluate(&self, x: &[f64]) -> SpecResult {
        let corners = (0..self.num_corners())
            .map(|k| self.evaluate_corner(x, k))
            .collect();
        fold_corners(corners).0
    }

    /// Number of scenario corners this problem evaluates each candidate
    /// across. The default (1) is the legacy nominal-only plane; corner
    /// problems override it, and [`crate::Evaluator`] then expands every
    /// candidate into the candidate×corner grid.
    ///
    /// Contract: corner 0 is the reference (nominal) corner, and every
    /// corner produces the same constraint layout
    /// ([`SizingProblem::num_constraints`] entries).
    fn num_corners(&self) -> usize {
        1
    }

    /// Human-readable label of corner `k` (defaults to `"corner<k>"`).
    fn corner_name(&self, k: usize) -> String {
        format!("corner{k}")
    }

    /// The candidate at one scenario corner: every analysis of corner `k`
    /// via [`SizingProblem::evaluate_analysis`], attributed to its
    /// analysis and assembled with [`AnalysisSpec::assemble`].
    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        let mut units: Vec<AnalysisSpec> = (0..self.num_analyses())
            .map(|a| self.evaluate_analysis(x, k, a))
            .collect();
        assemble_corner(self, &mut units)
    }

    /// Number of independent **analyses** one corner evaluation runs
    /// (see [`AnalysisSpec`]). The default (1) is a monolithic testbench:
    /// one simulation call produces the whole spec layout. Testbenches
    /// whose per-corner work decomposes into independent simulations
    /// override this, and [`crate::Evaluator`] then fans populations out
    /// over the candidate × corner × analysis grid.
    ///
    /// Contract: the analyses partition the spec layout — the objective
    /// and every constraint index is owned by exactly one analysis.
    fn num_analyses(&self) -> usize {
        1
    }

    /// Human-readable label of analysis `a`. The default is the problem
    /// [`name`](SizingProblem::name) for a monolithic testbench (one
    /// analysis: the unit *is* the testbench) and `"analysis<a>"`
    /// otherwise.
    fn analysis_name(&self, a: usize) -> String {
        if self.num_analyses() == 1 {
            self.name().to_string()
        } else {
            format!("analysis{a}")
        }
    }

    /// Runs analysis `a` of corner `k` — the one simulation unit. A
    /// monolithic testbench computes its whole [`SpecResult`] and returns
    /// `spec.into()`.
    ///
    /// Implementations must return a failed unit (rather than panicking)
    /// when the underlying simulation does not converge.
    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec;

    /// Human-readable problem name.
    fn name(&self) -> &str {
        "problem"
    }

    /// Names of the design variables (defaults to `x0`, `x1`, …).
    fn variable_names(&self) -> Vec<String> {
        (0..self.dim()).map(|i| format!("x{i}")).collect()
    }

    /// A nominal starting design; defaults to the center of the box. Used
    /// by sensitivity analysis.
    fn nominal(&self) -> Vec<f64> {
        let (lb, ub) = self.bounds();
        lb.iter().zip(&ub).map(|(l, u)| 0.5 * (l + u)).collect()
    }
}

/// Assembles one corner's analysis units (in analysis order) into its
/// [`SpecResult`]. With several analyses, each unit's diagnosis is first
/// attributed to the unit that produced it: the testbench-level diag only
/// names the inner analysis kind ("dc operating point"), which is
/// ambiguous once several independent units assemble into one corner.
pub(crate) fn assemble_corner<P: SizingProblem + ?Sized>(
    problem: &P,
    units: &mut [AnalysisSpec],
) -> SpecResult {
    if problem.num_analyses() > 1 {
        for (a, unit) in units.iter_mut().enumerate() {
            if let Some(diag) = unit.failure.as_deref_mut() {
                let label = problem.analysis_name(a);
                if !diag.analysis.starts_with(&label) {
                    diag.analysis = format!("{label}: {}", diag.analysis);
                }
            }
        }
    }
    AnalysisSpec::assemble(problem.num_constraints(), units)
}

/// Folds one candidate's corner records (in corner order) into its
/// sign-off spec: the worst case over a corner plane, returned with the
/// per-corner records; a single-corner plane's one corner as is, with no
/// per-corner records.
pub(crate) fn fold_corners(mut corners: Vec<SpecResult>) -> (SpecResult, Vec<SpecResult>) {
    if corners.len() > 1 {
        return (SpecResult::worst_case(&corners), corners);
    }
    let spec = corners.pop().expect("a plane has at least one corner");
    (spec, corners)
}

/// Robust clipping bounds for surrogate-model targets: `(lo, hi)` such
/// that values inside the bulk of the distribution pass through unchanged
/// while failure-penalty cliffs (e.g. the 1e12 placeholders of
/// [`SpecResult::failed`]) are pulled close enough to carry gradient
/// information without destroying the target scaling.
///
/// Uses the 10th/90th percentiles `p10`, `p90` and returns
/// `(p10 − 3·r, p90 + 3·r)` with `r = max(p90 − p10, ε)`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn robust_clip_bounds(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "cannot clip an empty column");
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return (-1.0, 1.0);
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    let (p10, p90) = (q(0.1), q(0.9));
    let r = (p90 - p10).max(1e-9 * (1.0 + p90.abs()));
    (p10 - 3.0 * r, p90 + 3.0 * r)
}

/// Maps a design point into the unit cube given problem bounds.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn to_unit(x: &[f64], lb: &[f64], ub: &[f64]) -> Vec<f64> {
    assert!(
        x.len() == lb.len() && x.len() == ub.len(),
        "to_unit: length mismatch"
    );
    x.iter()
        .zip(lb.iter().zip(ub))
        .map(|(&v, (&l, &u))| if u > l { (v - l) / (u - l) } else { 0.5 })
        .collect()
}

/// Inverse of [`to_unit`].
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn from_unit(u: &[f64], lb: &[f64], ub: &[f64]) -> Vec<f64> {
    assert!(
        u.len() == lb.len() && u.len() == ub.len(),
        "from_unit: length mismatch"
    );
    u.iter()
        .zip(lb.iter().zip(ub))
        .map(|(&t, (&l, &h))| l + t * (h - l))
        .collect()
}

#[cfg(test)]
pub(crate) mod test_problems {
    use super::*;

    /// A cheap analytic stand-in for a circuit: minimize Σ(x−0.3)² with
    /// constraints requiring each coordinate ≥ 0.1 (written as 0.1 − x ≤ 0)
    /// and the sum ≤ d·0.8.
    pub struct Sphere {
        pub d: usize,
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

        fn name(&self) -> &str {
            "sphere"
        }
    }

    /// A problem with a narrow feasible region, for exercising
    /// first-feasible statistics: feasible only when ‖x − 0.7‖∞ ≤ 0.05.
    pub struct NarrowBand {
        pub d: usize,
    }

    impl SizingProblem for NarrowBand {
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
            let objective = x.iter().sum::<f64>();
            let constraints = x.iter().map(|v| (v - 0.7).abs() - 0.05).collect();
            SpecResult {
                failure: None,
                objective,
                constraints,
            }
            .into()
        }

        fn name(&self) -> &str {
            "narrow-band"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_problems::Sphere;
    use super::*;

    #[test]
    fn feasibility_detection() {
        let ok = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![-0.1, 0.0],
        };
        assert!(ok.feasible());
        let bad = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![-0.1, 0.01],
        };
        assert!(!bad.feasible());
    }

    #[test]
    fn vector_roundtrip() {
        let s = SpecResult {
            failure: None,
            objective: 2.0,
            constraints: vec![1.0, -1.0],
        };
        let v = s.as_vector();
        assert_eq!(v, vec![2.0, 1.0, -1.0]);
        assert_eq!(SpecResult::from_vector(&v), s);
    }

    #[test]
    fn failed_results_are_infeasible_and_flagged() {
        let f = SpecResult::failed(3);
        assert!(!f.feasible());
        assert!(f.is_failure());
        let ok = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![0.0],
        };
        assert!(!ok.is_failure());
    }

    #[test]
    fn worst_case_takes_elementwise_maximum() {
        let a = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![-0.5, 0.2, -1.0],
        };
        let b = SpecResult {
            failure: None,
            objective: 3.0,
            constraints: vec![-0.7, 0.1, 0.4],
        };
        let m = SpecResult::worst_case(&[a.clone(), b.clone()]);
        assert_eq!(m.objective, 3.0);
        assert_eq!(m.constraints, vec![-0.5, 0.2, 0.4]);
        // Order independent.
        assert_eq!(m, SpecResult::worst_case(&[b, a]));
    }

    #[test]
    fn worst_case_of_one_corner_is_the_identity() {
        let a = SpecResult {
            failure: None,
            objective: 0.25,
            constraints: vec![-0.125, 0.75],
        };
        let m = SpecResult::worst_case(std::slice::from_ref(&a));
        assert_eq!(m.objective.to_bits(), a.objective.to_bits());
        for (x, y) in m.constraints.iter().zip(&a.constraints) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn failed_corner_dominates_the_merge() {
        let good = SpecResult {
            failure: None,
            objective: 0.1,
            constraints: vec![-1.0, -1.0],
        };
        let m = SpecResult::worst_case(&[good.clone(), SpecResult::failed(2)]);
        assert!(m.is_failure());
        assert!(!m.feasible());
        assert_eq!(m, SpecResult::failed(2));
        // Position independent.
        assert_eq!(
            SpecResult::worst_case(&[SpecResult::failed(2), good.clone()]),
            SpecResult::failed(2)
        );
    }

    #[test]
    fn nan_corner_dominates_the_merge() {
        let good = SpecResult {
            failure: None,
            objective: 0.1,
            constraints: vec![-1.0],
        };
        let nan_obj = SpecResult {
            failure: None,
            objective: f64::NAN,
            constraints: vec![-1.0],
        };
        let nan_con = SpecResult {
            failure: None,
            objective: 0.0,
            constraints: vec![f64::NAN],
        };
        for bad in [nan_obj, nan_con] {
            let m = SpecResult::worst_case(&[good.clone(), bad.clone()]);
            assert!(m.is_failure(), "NaN corner must poison the merge");
            assert_eq!(m, SpecResult::failed(1));
            let m = SpecResult::worst_case(&[bad, good.clone()]);
            assert!(m.is_failure(), "NaN-first merge must poison too");
        }
    }

    fn diag(kind: crate::failure::FailureKind, injected: bool) -> crate::failure::FailureDiag {
        use crate::failure::{FailureKind, RecoveryStage};
        crate::failure::FailureDiag {
            kind,
            analysis: match kind {
                FailureKind::StepUnderflow => "transient".into(),
                _ => "dc operating point".into(),
            },
            stage: match kind {
                FailureKind::StepUnderflow => RecoveryStage::StepHalving,
                _ => RecoveryStage::SourceStepping,
            },
            iterations: 40,
            halvings: usize::from(kind == FailureKind::StepUnderflow) * 9,
            injected,
        }
    }

    #[test]
    fn worst_case_preserves_dominating_corner_diagnostics() {
        use crate::failure::FailureKind;
        let good = SpecResult {
            failure: None,
            objective: 0.1,
            constraints: vec![-1.0],
        };
        let singular = SpecResult::failed_with(1, diag(FailureKind::Singular, false));
        let underflow = SpecResult::failed_with(1, diag(FailureKind::StepUnderflow, true));
        // The first failing corner classifies the merged placeholder, even
        // with mixed failure kinds across the plane.
        let m = SpecResult::worst_case(&[good.clone(), singular.clone(), underflow.clone()]);
        assert!(m.is_failure());
        assert_eq!(m.failure_diag().unwrap().kind, FailureKind::Singular);
        let m = SpecResult::worst_case(&[underflow.clone(), good.clone(), singular.clone()]);
        let d = m.failure_diag().unwrap();
        assert_eq!(d.kind, FailureKind::StepUnderflow);
        assert!(d.injected);
        assert_eq!(d.halvings, 9);
        // Values are still the canonical failed placeholder.
        assert_eq!(m.objective, 1e12);
        assert_eq!(m.constraints, vec![1e12]);
        // A failing corner without a diagnosis still poisons — untagged.
        let m = SpecResult::worst_case(&[good.clone(), SpecResult::failed(1)]);
        assert!(m.is_failure());
        assert!(m.failure_diag().is_none());
    }

    #[test]
    fn merge_worst_adopts_the_first_failing_diag() {
        use crate::failure::FailureKind;
        let mut acc = SpecResult {
            failure: None,
            objective: 0.1,
            constraints: vec![-1.0],
        };
        // Healthy fold: no diagnosis appears.
        acc.merge_worst(&SpecResult {
            failure: None,
            objective: 0.2,
            constraints: vec![-0.5],
        });
        assert!(acc.failure_diag().is_none());
        // First failing corner donates its diagnosis...
        acc.merge_worst(&SpecResult::failed_with(
            1,
            diag(FailureKind::NanResidual, false),
        ));
        assert_eq!(acc.failure_diag().unwrap().kind, FailureKind::NanResidual);
        // ...and keeps it against later failures of a different kind.
        acc.merge_worst(&SpecResult::failed_with(
            1,
            diag(FailureKind::Singular, true),
        ));
        assert_eq!(acc.failure_diag().unwrap().kind, FailureKind::NanResidual);
        assert!(!acc.failure_diag().unwrap().injected);
    }

    #[test]
    fn worst_case_feasible_only_if_every_corner_is() {
        let pass = SpecResult {
            failure: None,
            objective: 0.0,
            constraints: vec![-0.1],
        };
        let fail = SpecResult {
            failure: None,
            objective: 0.0,
            constraints: vec![0.1],
        };
        assert!(SpecResult::worst_case(&[pass.clone(), pass.clone()]).feasible());
        assert!(!SpecResult::worst_case(&[pass, fail]).feasible());
    }

    #[test]
    #[should_panic(expected = "at least one corner")]
    fn worst_case_of_nothing_panics() {
        let _ = SpecResult::worst_case(&[]);
    }

    #[test]
    #[should_panic(expected = "layouts must agree")]
    fn worst_case_rejects_layout_mismatch() {
        let a = SpecResult {
            failure: None,
            objective: 0.0,
            constraints: vec![0.0],
        };
        let b = SpecResult {
            failure: None,
            objective: 0.0,
            constraints: vec![0.0, 0.0],
        };
        let _ = SpecResult::worst_case(&[a, b]);
    }

    #[test]
    fn default_corner_plane_is_nominal_only() {
        let p = Sphere { d: 2 };
        assert_eq!(p.num_corners(), 1);
        assert_eq!(p.corner_name(0), "corner0");
        let x = [0.4, 0.4];
        let a = p.evaluate(&x);
        let b = p.evaluate_corner(&x, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn unit_mapping_roundtrip() {
        let lb = vec![-1.0, 0.0, 10.0];
        let ub = vec![1.0, 5.0, 20.0];
        let x = vec![0.0, 2.5, 15.0];
        let u = to_unit(&x, &lb, &ub);
        assert_eq!(u, vec![0.5, 0.5, 0.5]);
        let back = from_unit(&u, &lb, &ub);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn degenerate_bounds_do_not_divide_by_zero() {
        let u = to_unit(&[3.0], &[3.0], &[3.0]);
        assert_eq!(u, vec![0.5]);
    }

    #[test]
    fn analysis_partials_assemble_to_the_monolithic_result() {
        // Two analyses partition [f0, f1, f2, f3]: A owns f0 (objective),
        // f1, f3; B owns f2.
        let a = AnalysisSpec {
            objective: Some(2.5),
            constraints: vec![(0, -0.1), (2, 0.3)],
            failure: None,
            failed: false,
        };
        let b = AnalysisSpec {
            objective: None,
            constraints: vec![(1, -0.7)],
            failure: None,
            failed: false,
        };
        let out = AnalysisSpec::assemble(3, &[a, b]);
        assert_eq!(out.objective, 2.5);
        assert_eq!(out.constraints, vec![-0.1, -0.7, 0.3]);
        assert!(out.failure_diag().is_none());
    }

    #[test]
    fn whole_spec_unit_assembles_bit_faithfully_even_for_raw_failures() {
        // A raw (non-placeholder) failure value must survive the partial
        // round trip untouched — the k == 1 history path records it raw.
        let raw = SpecResult {
            failure: None,
            objective: 1.0,
            constraints: vec![f64::INFINITY, -0.2],
        };
        let out = AnalysisSpec::assemble(2, &[raw.clone().into()]);
        assert_eq!(out, raw);
    }

    #[test]
    fn hard_failed_analysis_collapses_to_placeholder_with_first_diag() {
        use crate::failure::FailureKind;
        let good = AnalysisSpec {
            objective: Some(0.1),
            constraints: vec![(0, -1.0)],
            failure: None,
            failed: false,
        };
        let bad = AnalysisSpec::hard_failed(Some(diag(FailureKind::Singular, false)));
        let worse = AnalysisSpec::hard_failed(Some(diag(FailureKind::StepUnderflow, true)));
        let out = AnalysisSpec::assemble(2, &[good, bad, worse]);
        assert_eq!(out, {
            let mut expect = SpecResult::failed(2);
            expect.failure = Some(Box::new(diag(FailureKind::Singular, false)));
            expect
        });
    }

    #[test]
    #[should_panic(expected = "constraint 1 not covered")]
    fn assemble_rejects_uncovered_constraints() {
        let a = AnalysisSpec {
            objective: Some(0.0),
            constraints: vec![(0, 0.0)],
            failure: None,
            failed: false,
        };
        let _ = AnalysisSpec::assemble(2, &[a]);
    }

    #[test]
    #[should_panic(expected = "assembled twice")]
    fn assemble_rejects_double_coverage() {
        let a = AnalysisSpec {
            objective: Some(0.0),
            constraints: vec![(0, 0.0)],
            failure: None,
            failed: false,
        };
        let b = AnalysisSpec {
            objective: None,
            constraints: vec![(0, 1.0)],
            failure: None,
            failed: false,
        };
        let _ = AnalysisSpec::assemble(1, &[a, b]);
    }

    #[test]
    fn default_analysis_plane_is_monolithic() {
        let p = Sphere { d: 2 };
        assert_eq!(p.num_analyses(), 1);
        assert_eq!(p.analysis_name(0), p.name());
        let x = [0.4, 0.4];
        let unit = p.evaluate_analysis(&x, 0, 0);
        let assembled = AnalysisSpec::assemble(p.num_constraints(), &[unit]);
        assert_eq!(assembled, p.evaluate(&x));
    }

    #[test]
    fn sphere_problem_basics() {
        let p = Sphere { d: 3 };
        assert_eq!(p.dim(), 3);
        assert_eq!(p.num_constraints(), 4);
        let r = p.evaluate(&[0.3, 0.3, 0.3]);
        assert!(r.objective < 1e-12);
        assert!(r.feasible());
        let r2 = p.evaluate(&[0.05, 0.3, 0.3]);
        assert!(!r2.feasible());
        assert_eq!(p.nominal(), vec![0.5, 0.5, 0.5]);
        assert_eq!(p.variable_names().len(), 3);
    }
}
