//! A timing decorator for [`SizingProblem`]: forwards every trait method
//! to the wrapped problem unchanged and records, for each expensive call
//! the evaluator makes, which worker ran it, what it evaluated and when.
//!
//! Every method is forwarded — including the defaulted ones — so the
//! evaluator sees the same corner/analysis shape and takes the same route
//! (unit grid, corner grid or candidate batch) as it does on the bare
//! problem. Calls the wrapped problem makes on itself never pass through
//! the decorator, so nothing is counted twice.

use std::sync::Mutex;
use std::time::Instant;

use opt::{AnalysisSpec, SizingProblem, SpecResult};

/// What one recorded call evaluated.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    /// `evaluate_analysis(x, k, a)`: analysis `a` of one corner.
    Analysis(usize),
    /// `evaluate_corner` or `evaluate`: the whole testbench at once.
    Whole,
}

/// One timed call into the wrapped problem.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Pool slot of the thread that made the call (0 = the caller).
    pub worker: usize,
    pub unit: Unit,
    /// Nanoseconds since the decorator was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The call returned a failed (hard or soft-diagnosed) result.
    pub failed: bool,
}

impl Call {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Timed<'a> {
    inner: &'a dyn SizingProblem,
    epoch: Instant,
    calls: Mutex<Vec<Call>>,
}

impl<'a> Timed<'a> {
    pub fn new(inner: &'a dyn SizingProblem) -> Self {
        Timed {
            inner,
            epoch: Instant::now(),
            calls: Mutex::new(Vec::new()),
        }
    }

    /// The recorded calls sorted by start time, each with its label: the
    /// analysis name, or the problem name for a whole-testbench call.
    pub fn into_calls(self) -> (Vec<Call>, Vec<String>) {
        let mut calls = self.calls.into_inner().expect("no recorder panicked");
        calls.sort_by_key(|c| (c.start_ns, c.worker));
        let labels = calls
            .iter()
            .map(|c| match c.unit {
                Unit::Analysis(a) => self.inner.analysis_name(a),
                Unit::Whole => self.inner.name().to_string(),
            })
            .collect();
        (calls, labels)
    }

    fn timed<R>(&self, unit: Unit, failed: impl Fn(&R) -> bool, f: impl FnOnce() -> R) -> R {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let call = Call {
            worker: worker_slot(),
            unit,
            start_ns,
            end_ns,
            failed: failed(&r),
        };
        self.calls.lock().expect("no recorder panicked").push(call);
        r
    }
}

/// The `linalg::pool` slot of the calling thread: pool workers are named
/// `dnnopt-pool-<slot>`, and any other thread is the dispatching caller,
/// which always runs slot 0.
fn worker_slot() -> usize {
    std::thread::current()
        .name()
        .and_then(|n| n.strip_prefix("dnnopt-pool-"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

impl SizingProblem for Timed<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn bounds(&self) -> (Vec<f64>, Vec<f64>) {
        self.inner.bounds()
    }

    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }

    fn evaluate(&self, x: &[f64]) -> SpecResult {
        self.timed(Unit::Whole, SpecResult::is_failure, || {
            self.inner.evaluate(x)
        })
    }

    fn num_corners(&self) -> usize {
        self.inner.num_corners()
    }

    fn corner_name(&self, k: usize) -> String {
        self.inner.corner_name(k)
    }

    fn evaluate_corner(&self, x: &[f64], k: usize) -> SpecResult {
        self.timed(Unit::Whole, SpecResult::is_failure, || {
            self.inner.evaluate_corner(x, k)
        })
    }

    fn num_analyses(&self) -> usize {
        self.inner.num_analyses()
    }

    fn analysis_name(&self, a: usize) -> String {
        self.inner.analysis_name(a)
    }

    fn evaluate_analysis(&self, x: &[f64], k: usize, a: usize) -> AnalysisSpec {
        self.timed(
            Unit::Analysis(a),
            |u: &AnalysisSpec| u.failed || u.failure.is_some(),
            || self.inner.evaluate_analysis(x, k, a),
        )
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn variable_names(&self) -> Vec<String> {
        self.inner.variable_names()
    }

    fn nominal(&self) -> Vec<f64> {
        self.inner.nominal()
    }
}
