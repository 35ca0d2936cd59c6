//! Deterministic, seeded fault injection for robustness testing.
//!
//! A real sizing service sees a steady trickle of candidate×corner
//! evaluations that die inside the solver — singular MNA matrices at
//! degenerate geometries, Newton non-convergence at slow corners, timestep
//! collapse in transient. This module lets tests *manufacture* that
//! weather deterministically: a process-wide [`FaultPlan`] decides, from a
//! seed and a per-candidate key, which Newton solves are forced to fail
//! and how ([`FaultKind`]).
//!
//! Determinism contract: a fault decision depends only on
//! `(plan.seed, candidate key, solve index)` — never on threads, timing,
//! or global counters — so injected failures land on exactly the same
//! solves whether a population is evaluated serially or in parallel, and
//! the expected failure set can be recomputed exactly by a test.
//!
//! Zero cost when disabled: the only always-on work is one relaxed atomic
//! load per Newton solve (not per iteration). No plan installed — the
//! default — means no thread-local access, no hashing, nothing.
//!
//! # Usage
//!
//! ```
//! use spice::fault::{self, FaultKind, FaultPlan, FaultSolves};
//!
//! fault::install(Some(FaultPlan {
//!     seed: 7,
//!     rate: 0.5,
//!     kind: FaultKind::SingularFactor,
//!     solves: FaultSolves::All,
//! }));
//! // Testbenches wrap each candidate evaluation in a scope; solves inside
//! // a faulted scope fail with the planned kind.
//! let key = fault::candidate_key(&[1.0e-6, 2.0e-6], 0);
//! {
//!     let _scope = fault::candidate_scope(key);
//!     // ... spice::op(...) here is forced to fail iff the plan faults `key`
//! }
//! fault::install(None); // back to the zero-cost path
//! ```

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

use crate::diag::FailureKind;

/// Which failure a planned fault forces on a Newton solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The LU factor is treated as singular.
    SingularFactor,
    /// The solve yields a non-finite unknown vector.
    NanResidual,
    /// The Newton loop exhausts its iteration budget.
    IterationExhaustion,
}

impl FaultKind {
    /// The [`FailureKind`] a solve injected with this fault reports.
    pub fn failure_kind(self) -> FailureKind {
        match self {
            FaultKind::SingularFactor => FailureKind::Singular,
            FaultKind::NanResidual => FailureKind::NanResidual,
            FaultKind::IterationExhaustion => FailureKind::NoConvergence,
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "singular" => Some(FaultKind::SingularFactor),
            "nan" => Some(FaultKind::NanResidual),
            "iters" => Some(FaultKind::IterationExhaustion),
            _ => None,
        }
    }
}

/// Which solve indices inside a faulted candidate scope fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSolves {
    /// Every Newton solve fails — the whole evaluation is lost (the DC
    /// recovery ladder cannot rescue it). This is the mode that models a
    /// candidate evaluation failing outright.
    All,
    /// Only the solve with this 0-based index (counted per candidate
    /// scope) fails — later solves succeed, so the recovery ladder and
    /// retry machinery get exercised and usually rescue the analysis.
    ///
    /// Indices count the solves a testbench actually runs. An analysis
    /// that starts from an operating point solved earlier in the scope
    /// (the OTA closed loop's transient starts from its noise operating
    /// point via [`crate::transient_from_op`]) runs no second recovery
    /// ladder, so its solves follow the first ladder's directly.
    Index(u64),
}

/// A deterministic fault-injection plan.
///
/// `rate` is the fraction of candidate scopes that are faulted; the
/// decision hashes `(seed, candidate key)`, so it is reproducible and
/// thread-independent. Inside a faulted scope, `solves` picks which solve
/// indices fail with `kind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Fraction of candidate scopes to fault, in `[0, 1]`.
    pub rate: f64,
    /// The failure forced on faulted solves.
    pub kind: FaultKind,
    /// Which solves inside a faulted scope fail.
    pub solves: FaultSolves,
}

impl FaultPlan {
    /// True when the plan faults the candidate scope with this key —
    /// pure function of `(self.seed, key)`, recomputable by tests to
    /// predict the exact injected-failure set.
    pub fn faults_candidate(&self, key: u64) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        if self.rate >= 1.0 {
            return true;
        }
        // SplitMix64 finalizer over (seed, key): a uniform u64, compared
        // against the rate threshold in fixed point.
        let u = mix(self.seed ^ 0x9E37_79B9_7F4A_7C15, key);
        (u as f64) < self.rate * (u64::MAX as f64)
    }
}

/// SplitMix64-style mixing of two words into one decorrelated word.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the candidate-scope key from a design vector and a salt
/// (typically the corner index): a hash of the raw f64 bits, so two
/// bit-identical candidates always map to the same key no matter which
/// thread evaluates them.
pub fn candidate_key(x: &[f64], salt: u64) -> u64 {
    let mut h = mix(0x243F_6A88_85A3_08D3, salt);
    for v in x {
        h = mix(h, v.to_bits());
    }
    h
}

/// Fast global "is any plan installed" flag: the only cost the fault plane
/// adds to a fault-free process.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// One candidate scope's state: the planned fault (`None` in an unfaulted
/// scope) and the next solve index.
type ScopeState = (Option<(FaultKind, FaultSolves)>, u64);

thread_local! {
    /// Active candidate scope on this thread.
    static SCOPE: Cell<Option<ScopeState>> = const { Cell::new(None) };
}

/// Installs (or, with `None`, removes) the process-wide fault plan.
///
/// Affects only solves that run inside a [`candidate_scope`]; bare
/// analyses never inject, so an installed plan cannot perturb unrelated
/// work in the same process.
pub fn install(plan: Option<FaultPlan>) {
    *PLAN.write().expect("fault plan lock poisoned") = plan;
    ENABLED.store(plan.is_some(), Ordering::Release);
}

/// The currently installed plan, if any.
pub fn plan() -> Option<FaultPlan> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    *PLAN.read().expect("fault plan lock poisoned")
}

/// Builds a plan from the environment: `DNNOPT_FAULT_RATE` (required, a
/// fraction in `[0, 1]`), `DNNOPT_FAULT_SEED` (default 0),
/// `DNNOPT_FAULT_KIND` (`singular` | `nan` | `iters`, default `singular`).
/// Returns `None` when the rate variable is unset or unparsable — the CI
/// fault-injection job drives the end-to-end suite through this hook.
pub fn plan_from_env() -> Option<FaultPlan> {
    let rate: f64 = std::env::var("DNNOPT_FAULT_RATE").ok()?.parse().ok()?;
    let seed: u64 = std::env::var("DNNOPT_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let kind = std::env::var("DNNOPT_FAULT_KIND")
        .ok()
        .and_then(|v| FaultKind::parse(&v))
        .unwrap_or(FaultKind::SingularFactor);
    Some(FaultPlan {
        seed,
        rate,
        kind,
        solves: FaultSolves::All,
    })
}

/// RAII guard for one candidate evaluation: while alive, Newton solves on
/// this thread consult the installed plan under the scope's key. Restores
/// the previous scope (supporting nesting) on drop.
pub struct FaultScope {
    prev: Option<ScopeState>,
}

/// Enters a candidate scope keyed by `key` (see [`candidate_key`]).
/// Cheap no-op — no hashing, no thread-local write beyond the stash —
/// when no plan is installed.
#[must_use = "the scope ends when the guard drops"]
pub fn candidate_scope(key: u64) -> FaultScope {
    let decision = plan().map(|p| {
        if p.faults_candidate(key) {
            Some((p.kind, p.solves))
        } else {
            None
        }
    });
    let prev = SCOPE.with(|s| s.replace(decision.map(|d| (d, 0))));
    FaultScope { prev }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        SCOPE.with(|s| s.set(self.prev.take()));
    }
}

/// Called by the Newton loop once per solve: consumes one solve index of
/// the active scope and reports the fault to inject, if any. Outside a
/// scope (or with no plan installed) this is a single atomic load.
pub(crate) fn next_solve_fault() -> Option<FaultKind> {
    if !ENABLED.load(Ordering::Acquire) {
        return None;
    }
    SCOPE.with(|s| {
        let (decision, idx) = s.get()?;
        s.set(Some((decision, idx + 1)));
        let (kind, solves) = decision?;
        match solves {
            FaultSolves::All => Some(kind),
            FaultSolves::Index(i) if i == idx => Some(kind),
            FaultSolves::Index(_) => None,
        }
    })
}

/// Installing a global plan is process-wide; serialize the tests that do it
/// so concurrent test threads cannot observe each other's plans.
#[cfg(test)]
pub(crate) static PLAN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::PLAN_LOCK;
    use super::*;

    #[test]
    fn candidate_keys_depend_on_bits_and_salt() {
        let a = candidate_key(&[1.0, 2.0], 0);
        let b = candidate_key(&[1.0, 2.0], 1);
        let c = candidate_key(&[1.0, 2.0 + 1e-15], 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, candidate_key(&[1.0, 2.0], 0));
    }

    #[test]
    fn fault_rate_is_roughly_honored_and_deterministic() {
        let plan = FaultPlan {
            seed: 3,
            rate: 0.2,
            kind: FaultKind::SingularFactor,
            solves: FaultSolves::All,
        };
        let hits = (0..10_000)
            .filter(|&i| plan.faults_candidate(candidate_key(&[i as f64], 0)))
            .count();
        assert!((1_500..2_500).contains(&hits), "20% rate gave {hits}/10000");
        // Bit-for-bit reproducible.
        for i in 0..100 {
            let k = candidate_key(&[i as f64], 0);
            assert_eq!(plan.faults_candidate(k), plan.faults_candidate(k));
        }
        // Extreme rates short-circuit.
        let never = FaultPlan { rate: 0.0, ..plan };
        let always = FaultPlan { rate: 1.0, ..plan };
        assert!(!never.faults_candidate(1));
        assert!(always.faults_candidate(1));
    }

    #[test]
    fn disabled_plane_injects_nothing() {
        let _guard = PLAN_LOCK.lock().unwrap();
        install(None);
        let _scope = candidate_scope(42);
        assert_eq!(next_solve_fault(), None);
    }

    #[test]
    fn scope_gates_injection_and_restores_on_drop() {
        let _guard = PLAN_LOCK.lock().unwrap();
        install(Some(FaultPlan {
            seed: 1,
            rate: 1.0,
            kind: FaultKind::NanResidual,
            solves: FaultSolves::Index(1),
        }));
        // No scope: no injection even with a plan installed.
        assert_eq!(next_solve_fault(), None);
        {
            let _scope = candidate_scope(7);
            assert_eq!(next_solve_fault(), None); // solve 0
            assert_eq!(next_solve_fault(), Some(FaultKind::NanResidual)); // solve 1
            assert_eq!(next_solve_fault(), None); // solve 2
        }
        assert_eq!(next_solve_fault(), None);
        install(None);
    }

    #[test]
    fn env_plan_parses_rate_seed_and_kind() {
        // Set/remove env vars without other tests observing them: the
        // parse is pure given the values, so just exercise the parser.
        assert_eq!(
            FaultKind::parse("singular"),
            Some(FaultKind::SingularFactor)
        );
        assert_eq!(FaultKind::parse("nan"), Some(FaultKind::NanResidual));
        assert_eq!(
            FaultKind::parse("iters"),
            Some(FaultKind::IterationExhaustion)
        );
        assert_eq!(FaultKind::parse("bogus"), None);
    }
}
