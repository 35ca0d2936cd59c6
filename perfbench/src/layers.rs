//! Per-layer numbers of a traced run, measured from outside the crates:
//! the [`Timed`] decorator's call records, `RunResult`'s model and
//! simulation times, and the telemetry summary the crates already keep.

use std::collections::BTreeMap;

use opt::RunResult;
use telemetry::{Metric as M, SpanId, Summary};

use crate::timed::{Call, Timed};
use crate::workload::Workload;
use crate::Metric;

/// Per-analysis metric stems, keyed by the testbench's own label.
const CIRCUIT_UNITS: [(&str, &str); 3] = [
    ("open-loop", "open_loop"),
    ("closed-loop", "closed_loop"),
    ("strongarm-latch", "latch"),
];

/// Workers reported by name in the JSON (the shipped two-core host); the
/// text report lists every worker.
const REPORTED_WORKERS: usize = 2;

/// Linear-interpolation quantile of unsorted data (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Work counts that are exact integers under the determinism contract:
/// they must not change with the thread count or between repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExactCounts {
    newton_iterations: u64,
    sparse_refactors: u64,
    gemm_flops: u64,
    train_steps: u64,
    units: u64,
}

/// One traced optimizer run, reduced to what the report needs.
pub struct Traced {
    threads: usize,
    wall: f64,
    run: RunResult,
    summary: Summary,
    calls: Vec<Call>,
    /// Label of each call, parallel to `calls`.
    labels: Vec<String>,
    /// Generation lengths (batch end to batch end), ms.
    generations_ms: Vec<f64>,
    /// Sum over evaluation batches of first call start to last call end.
    eval_wall_s: f64,
    /// Decorator-measured busy time per pool slot `0..threads`.
    busy_s: Vec<f64>,
}

impl Traced {
    pub fn new(
        w: &Workload,
        timed: Timed<'_>,
        threads: usize,
        wall: f64,
        run: RunResult,
        summary: Summary,
    ) -> Result<Self, String> {
        let (calls, labels) = timed.into_calls();
        let per_candidate = calls.len() / w.budget;
        if per_candidate == 0 || calls.len() != per_candidate * w.budget {
            return Err(format!(
                "{} evaluation calls do not split evenly over {} candidates",
                calls.len(),
                w.budget
            ));
        }
        let (first, each) = w.batches();
        let mut batch_ends = Vec::new();
        let mut eval_wall_ns = 0u64;
        let mut i = 0;
        let mut size = first * per_candidate;
        while i < calls.len() {
            let batch = &calls[i..(i + size).min(calls.len())];
            let end = batch
                .iter()
                .map(|c| c.end_ns)
                .max()
                .expect("non-empty batch");
            eval_wall_ns += end - batch[0].start_ns;
            batch_ends.push(end);
            i += batch.len();
            size = each * per_candidate;
        }
        let generations_ms = batch_ends
            .windows(2)
            .map(|p| (p[1] - p[0]) as f64 * 1e-6)
            .collect();

        let mut busy_s = vec![0.0; threads];
        for c in &calls {
            if c.worker >= threads {
                return Err(format!(
                    "call on worker {} with {threads} thread(s)",
                    c.worker
                ));
            }
            busy_s[c.worker] += c.secs();
        }
        Ok(Traced {
            threads,
            wall,
            run,
            summary,
            calls,
            labels,
            generations_ms,
            eval_wall_s: eval_wall_ns as f64 * 1e-9,
            busy_s,
        })
    }

    fn model_s(&self) -> f64 {
        self.run.model_time.as_secs_f64()
    }

    fn sim_wall_s(&self) -> f64 {
        self.wall - self.model_s()
    }

    fn span_ms(&self, id: SpanId) -> f64 {
        self.summary.span_ns(id) as f64 * 1e-6
    }

    fn count(&self, m: M) -> u64 {
        self.summary.metric(m).count
    }

    fn sum(&self, m: M) -> u64 {
        self.summary.metric(m).sum
    }

    fn exact_counts(&self) -> ExactCounts {
        ExactCounts {
            newton_iterations: self.sum(M::NewtonIterations),
            sparse_refactors: self.count(M::SparseRefactors),
            gemm_flops: self.sum(M::GemmFlops),
            train_steps: self.count(M::TrainSteps),
            units: self.calls.len() as u64,
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let s = |name: &str, v: f64, unit: &'static str| (name.to_string(), v, unit);
        let c = |name: &str, v: u64| (name.to_string(), v as f64, "count");
        let sim_wall = self.sim_wall_s();
        let mean_busy = self.busy_s.iter().sum::<f64>() / self.threads as f64;
        let max_busy = self.busy_s.iter().copied().fold(0.0, f64::max);
        let mut m = vec![
            s("core.model_s", self.model_s(), "s"),
            s(
                "core.critic_train_ms",
                self.span_ms(SpanId::CriticTrain),
                "ms",
            ),
            s(
                "core.actor_train_ms",
                self.span_ms(SpanId::ActorTrain),
                "ms",
            ),
            s(
                "core.generation_ms_p50",
                quantile(&self.generations_ms, 0.5),
                "ms",
            ),
            s(
                "core.generation_ms_p90",
                quantile(&self.generations_ms, 0.9),
                "ms",
            ),
            c("nn.train_steps", self.count(M::TrainSteps)),
            c("linalg.gemm_calls", self.count(M::GemmFlops)),
            s("linalg.gemm_flops", self.sum(M::GemmFlops) as f64, "flop"),
            s("linalg.gemm_ms", self.span_ms(SpanId::Gemm), "ms"),
            c("linalg.gemm_threaded_calls", self.count(M::GemmSplitWidth)),
            s(
                "linalg.pool_dispatch_ns",
                self.sum(M::PoolDispatchNs) as f64,
                "ns",
            ),
            s("linalg.pool_busy_ns", self.sum(M::PoolBusyNs) as f64, "ns"),
            c("opt.units", self.calls.len() as u64),
            c(
                "opt.unit_failures",
                self.calls.iter().filter(|c| c.failed).count() as u64,
            ),
            s("opt.sim_cpu_s", self.run.sim_time.as_secs_f64(), "s"),
            s("opt.sim_wall_s", sim_wall, "s"),
            s("opt.eval_wall_s", self.eval_wall_s, "s"),
            s(
                "opt.unattributed_s",
                self.wall - self.model_s() - self.eval_wall_s,
                "s",
            ),
            s(
                "opt.grid_efficiency",
                self.run.sim_time.as_secs_f64() / (self.threads as f64 * sim_wall),
                "ratio",
            ),
            s("opt.grid_busy_imbalance", max_busy / mean_busy, "ratio"),
        ];
        for w in 0..REPORTED_WORKERS {
            let busy = self.busy_s.get(w).copied();
            m.push(s(
                &format!("opt.worker{w}_busy_s"),
                busy.unwrap_or(0.0),
                "s",
            ));
            m.push(s(
                &format!("opt.worker{w}_idle_s"),
                busy.map_or(0.0, |b| sim_wall - b),
                "s",
            ));
        }
        let mut unit_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (call, label) in self.calls.iter().zip(&self.labels) {
            unit_ms.entry(label).or_default().push(call.secs() * 1e3);
        }
        for (label, stem) in CIRCUIT_UNITS {
            let v = unit_ms.get(label).map_or(&[][..], |v| &v[..]);
            m.push(s(
                &format!("circuits.{stem}_ms_p50"),
                quantile(v, 0.5),
                "ms",
            ));
            m.push(s(
                &format!("circuits.{stem}_ms_p90"),
                quantile(v, 0.9),
                "ms",
            ));
        }
        m.extend([
            c("spice.solves", self.summary.span_count(SpanId::Solve)),
            s("spice.solve_ms", self.span_ms(SpanId::Solve), "ms"),
            s("spice.assembly_ms", self.span_ms(SpanId::Assembly), "ms"),
            c("spice.workspace_misses", self.count(M::WorkspaceMisses)),
            c("spice.newton_iterations", self.sum(M::NewtonIterations)),
            c("spice.gmin_steps", self.count(M::GminSteps)),
            c("spice.source_steps", self.count(M::SourceSteps)),
            c("spice.step_halvings", self.count(M::StepHalvings)),
            c("linalg.sparse_factors", self.count(M::SparseFactors)),
            c("linalg.sparse_refactors", self.count(M::SparseRefactors)),
            s("linalg.factor_ms", self.span_ms(SpanId::Factor), "ms"),
            s("linalg.refactor_ms", self.span_ms(SpanId::Refactor), "ms"),
            c(
                "linalg.sparse_blocked_dispatch",
                self.sum(M::SparseBlockedDispatch),
            ),
            c("linalg.sparse_supernodes", self.sum(M::SparseSupernodes)),
        ]);
        m
    }

    /// Where this run's wall-clock went, for the text report.
    fn print_attribution(&self) {
        let model = self.model_s();
        println!(
            "T={}: wall {:.4} s = model {model:.4} s + eval batches {:.4} s + unattributed {:.4} s",
            self.threads,
            self.wall,
            self.eval_wall_s,
            self.wall - model - self.eval_wall_s
        );
        for (w, busy) in self.busy_s.iter().enumerate() {
            println!(
                "  worker {w}: busy {busy:.4} s, idle {:.4} s of sim wall {:.4} s",
                self.sim_wall_s() - busy,
                self.sim_wall_s()
            );
        }
    }
}

/// The per-layer report: exact counts gated across every traced run, the
/// measured-configuration metrics averaged over its two repetitions, and
/// the single-threaded baseline beside them.
pub fn report(
    w: &Workload,
    traced: &[Traced],
    untraced_walls: &[f64],
) -> Result<Vec<Metric>, String> {
    let [a, b, t1] = traced else {
        return Err(format!("expected 3 traced runs, got {}", traced.len()));
    };
    let gate = a.exact_counts();
    for t in [b, t1] {
        if t.exact_counts() != gate {
            return Err(format!(
                "exact work counts drifted at {} thread(s): {:?} != {gate:?}",
                t.threads,
                t.exact_counts()
            ));
        }
    }
    println!("{}: exact counts {gate:?}", w.name);
    a.print_attribution();
    t1.print_attribution();

    let mut metrics: Vec<Metric> = a
        .metrics()
        .into_iter()
        .zip(b.metrics())
        .map(|((name, x, unit), (_, y, _))| (name, 0.5 * (x + y), unit))
        .collect();
    let host_wall = 0.5 * (a.wall + b.wall);
    let t1_metrics = t1.metrics();
    let pick = |name: &str| {
        t1_metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
            .expect("metric is always reported")
    };
    let untraced_wall = median(untraced_walls);
    metrics.extend([
        ("run.wall_s_p50".to_string(), untraced_wall, "s"),
        (
            "run.wall_s_min".to_string(),
            untraced_walls.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        (
            "telemetry.overhead_frac".to_string(),
            t1.wall / untraced_wall - 1.0,
            "ratio",
        ),
        ("scaling.wall_s".to_string(), host_wall, "s"),
        ("scaling.wall_s_t1".to_string(), t1.wall, "s"),
        ("scaling.speedup".to_string(), t1.wall / host_wall, "ratio"),
        (
            "scaling.critic_train_ms_t1".to_string(),
            pick("core.critic_train_ms"),
            "ms",
        ),
        (
            "scaling.sim_wall_s_t1".to_string(),
            pick("opt.sim_wall_s"),
            "s",
        ),
    ]);
    Ok(metrics)
}
