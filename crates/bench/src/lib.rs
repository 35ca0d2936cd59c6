//! Shared infrastructure for the reproduction harness: method suites,
//! per-method statistics, FoM-curve aggregation, and CSV output.
//!
//! The `repro` binary (this crate's `src/bin/repro.rs`) uses these helpers
//! to regenerate every table and figure of the paper; its module docs map
//! each command to its table or figure, and [`Scale`] documents the
//! experiment-scale defaults against the paper's protocol. The criterion
//! row groups (`*_rows`) are shared by the bench targets and
//! `repro baseline`.

use std::time::Duration;

use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{
    BoWei, DifferentialEvolution, Fom, Gaspad, Optimizer, RunResult, SizingProblem, StopPolicy,
};

mod rows;
pub use rows::{
    corner_eval_rows, gemm_kernel_rows, model_kernel_rows, parallel_scaling_rows,
    sparse_scaling_rows, spice_kernel_rows,
};

/// The generic 180nm-class NMOS of the benches' hand-built circuits (one
/// definition so the benches cannot drift apart).
pub fn bench_nmos() -> spice::MosModel {
    spice::MosModel {
        polarity: spice::MosPolarity::Nmos,
        vth0: 0.45,
        kp: 300e-6,
        clm: 0.02e-6,
        gamma: 0.4,
        phi: 0.8,
        nsub: 1.4,
        cox: 8.5e-3,
        cov: 3e-10,
        cj: 1e-3,
        ldiff: 0.4e-6,
        kf: 1e-26,
        af: 1.0,
        noise_gamma: 2.0 / 3.0,
    }
}

/// Experiment-scale knobs, read from the environment so the default run is
/// laptop-sized while `REPEATS=10 DE_BUDGET=10000` reproduces the paper's
/// protocol exactly.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Repeats per (method, circuit); paper: 10.
    pub repeats: usize,
    /// Budget for the model-based methods; paper: 500.
    pub budget: usize,
    /// Budget for DE; paper: 10000.
    pub de_budget: usize,
}

impl Scale {
    /// Reads `REPEATS`, `BUDGET`, `DE_BUDGET` from the environment with
    /// laptop-scale defaults (3 / 500 / 2000).
    pub fn from_env() -> Self {
        let get = |k: &str, d: usize| {
            std::env::var(k)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(d)
        };
        Scale {
            repeats: get("REPEATS", 3),
            budget: get("BUDGET", 500),
            de_budget: get("DE_BUDGET", 2000),
        }
    }
}

/// All runs of one method on one problem.
#[derive(Debug)]
pub struct MethodRuns {
    /// Method display name.
    pub name: String,
    /// One result per repeat.
    pub runs: Vec<RunResult>,
}

impl MethodRuns {
    /// Success rate: runs that found any feasible design.
    pub fn successes(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.sims_to_feasible().is_some())
            .count()
    }

    /// Mean simulations-to-first-feasible over the *successful* runs.
    pub fn mean_sims_to_feasible(&self) -> Option<f64> {
        let v: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.sims_to_feasible().map(|n| n as f64))
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }

    /// Min / max / mean best-feasible objective across successful runs.
    pub fn objective_stats(&self) -> Option<(f64, f64, f64)> {
        let v: Vec<f64> = self
            .runs
            .iter()
            .filter_map(RunResult::best_feasible_objective)
            .collect();
        if v.is_empty() {
            return None;
        }
        let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        Some((min, max, mean))
    }

    /// Total model time across runs.
    pub fn model_time(&self) -> Duration {
        self.runs.iter().map(|r| r.model_time).sum()
    }

    /// Total simulation time across runs.
    pub fn sim_time(&self) -> Duration {
        self.runs.iter().map(|r| r.sim_time).sum()
    }

    /// Mean best-FoM trace across runs, padded with each run's final value
    /// (the series of the paper's Figures 3/4).
    pub fn mean_trace(&self, len: usize) -> Vec<f64> {
        let mut mean = vec![0.0; len];
        for run in &self.runs {
            let trace = run.history.best_trace();
            let last = trace.last().copied().unwrap_or(f64::NAN);
            for (i, m) in mean.iter_mut().enumerate() {
                *m += trace.get(i).copied().unwrap_or(last);
            }
        }
        for m in &mut mean {
            *m /= self.runs.len().max(1) as f64;
        }
        mean
    }
}

/// The four methods of the building-block comparison (paper §III-A), with
/// the budgets of the paper's protocol scaled by [`Scale`].
pub fn building_block_suite(
    problem: &dyn SizingProblem,
    fom: &Fom,
    scale: &Scale,
    stop: StopPolicy,
) -> Vec<MethodRuns> {
    let mut out = Vec::new();
    let methods: Vec<(Box<dyn Optimizer>, usize)> = vec![
        (Box::new(DifferentialEvolution::default()), scale.de_budget),
        (Box::new(BoWei::default()), scale.budget),
        (Box::new(Gaspad::default()), scale.budget),
        (Box::new(DnnOpt::new(DnnOptConfig::default())), scale.budget),
    ];
    for (method, budget) in methods {
        let mut runs = Vec::new();
        for rep in 0..scale.repeats {
            eprintln!(
                "  [{}] run {}/{} (budget {budget})",
                method.name(),
                rep + 1,
                scale.repeats
            );
            runs.push(method.run(problem, fom, budget, stop, rep as u64));
        }
        out.push(MethodRuns {
            name: method.name().to_string(),
            runs,
        });
    }
    out
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// Re-times the Newton-kernel, GEMM-engine, training-loop and evaluation
/// benchmarks and merges the rows into a `BENCH_baseline.json` file (same
/// one-JSON-object-per-row format the criterion shim records). Used by
/// `repro baseline` so the checked-in baseline can be refreshed on the
/// current host without running the full bench suite.
pub mod baseline {
    use criterion::Criterion;

    /// Runs the six row groups of the bench targets with
    /// `CRITERION_JSON` pointed at `path`, appending one row per kernel.
    fn record_rows(path: &std::path::Path) {
        std::env::set_var("CRITERION_JSON", path);
        let mut c = Criterion::default().sample_size(10);
        crate::spice_kernel_rows(&mut c);
        crate::sparse_scaling_rows(&mut c);
        crate::gemm_kernel_rows(&mut c);
        crate::model_kernel_rows(&mut c);
        crate::corner_eval_rows(&mut c);
        crate::parallel_scaling_rows(&mut c);
        std::env::remove_var("CRITERION_JSON");
    }

    /// Tags a freshly recorded row with the host's logical core count and
    /// the effective thread setting (`DNNOPT_THREADS` or `auto`), so a
    /// checked-in baseline says which parallelism regime produced it.
    fn with_host_metadata(row: &str) -> String {
        let Some(body) = row.strip_suffix('}') else {
            return row.to_string();
        };
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let threads = std::env::var("DNNOPT_THREADS").unwrap_or_else(|_| "auto".into());
        format!("{body},\"host_cpus\":{cpus},\"threads\":\"{threads}\"}}")
    }

    /// Extracts the `"name"` field of a recorded JSON row.
    fn row_name(line: &str) -> Option<&str> {
        let start = line.find("\"name\":\"")? + 8;
        let end = line[start..].find('"')? + start;
        Some(&line[start..end])
    }

    /// Re-times the affected kernels and merges the rows into `path`:
    /// existing rows with the same name are replaced in place, new rows
    /// are appended, everything else is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn refresh(path: &str) -> std::io::Result<()> {
        let tmp = std::env::temp_dir().join(format!("bench_rows_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&tmp);
        record_rows(&tmp);
        let fresh = std::fs::read_to_string(&tmp)?;
        let _ = std::fs::remove_file(&tmp);
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let mut lines: Vec<String> = existing.lines().map(String::from).collect();
        for new_row in fresh.lines() {
            let Some(name) = row_name(new_row) else {
                continue;
            };
            let tagged = with_host_metadata(new_row);
            match lines.iter().position(|l| row_name(l) == Some(name)) {
                Some(i) => lines[i] = tagged,
                None => lines.push(tagged),
            }
        }
        std::fs::write(path, lines.join("\n") + "\n")
    }
}

/// Writes FoM-curve CSV: column 0 is the simulation index, then one column
/// per method (mean best-FoM).
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_traces_csv(path: &str, methods: &[MethodRuns], len: usize) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    write!(f, "sim")?;
    for m in methods {
        write!(f, ",{}", m.name)?;
    }
    writeln!(f)?;
    let traces: Vec<Vec<f64>> = methods.iter().map(|m| m.mean_trace(len)).collect();
    for i in 0..len {
        write!(f, "{}", i + 1)?;
        for t in &traces {
            write!(f, ",{:.6}", t[i])?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// Renders a coarse ASCII plot of the mean FoM curves, so figure shapes
/// are visible without leaving the terminal.
pub fn ascii_plot(methods: &[MethodRuns], len: usize, title: &str) -> String {
    let traces: Vec<(String, Vec<f64>)> = methods
        .iter()
        .map(|m| (m.name.clone(), m.mean_trace(len)))
        .collect();
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, t) in &traces {
        for &v in t {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
    }
    if !lo.is_finite() || hi <= lo {
        return format!("{title}: (no data)\n");
    }
    let rows = 16;
    let cols = 64;
    let mut grid = vec![vec![' '; cols]; rows];
    let marks = ['D', 'B', 'G', '*']; // DE, BO-wEI, GASPAD, DNN-Opt
    for (ti, (_, t)) in traces.iter().enumerate() {
        let mark = marks.get(ti).copied().unwrap_or('?');
        for c in 0..cols {
            let idx = ((c as f64 / (cols - 1) as f64) * (len - 1) as f64) as usize;
            let v = t[idx.min(t.len() - 1)];
            if !v.is_finite() {
                continue;
            }
            let r = ((hi - v) / (hi - lo) * (rows - 1) as f64).round() as usize;
            grid[r.min(rows - 1)][c] = mark;
        }
    }
    let mut out = format!("{title}  (D=DE B=BO-wEI G=GASPAD *=DNN-Opt)\n");
    out.push_str(&format!("FoM {hi:>8.3} +\n"));
    for row in grid {
        out.push_str("             |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!("FoM {lo:>8.3} + sims 1 .. {len}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt::{AnalysisSpec, RandomSearch, SpecResult};

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
                objective: x[0],
                constraints: vec![0.2 - x[1]],
            }
            .into()
        }
    }

    fn toy_runs() -> MethodRuns {
        let fom = Fom::uniform(1.0, 1);
        let runs = (0..3)
            .map(|s| RandomSearch.run(&Toy, &fom, 30, StopPolicy::Exhaust, s))
            .collect();
        MethodRuns {
            name: "Random".into(),
            runs,
        }
    }

    #[test]
    fn stats_aggregate() {
        let m = toy_runs();
        assert_eq!(m.successes(), 3);
        assert!(m.mean_sims_to_feasible().unwrap() >= 1.0);
        let (min, max, mean) = m.objective_stats().unwrap();
        assert!(min <= mean && mean <= max);
    }

    #[test]
    fn mean_trace_is_monotone_and_padded() {
        let m = toy_runs();
        let t = m.mean_trace(50);
        assert_eq!(t.len(), 50);
        for w in t.windows(2) {
            assert!(w[1] <= w[0] + 1e-12);
        }
    }

    #[test]
    fn csv_writer_produces_header_and_rows() {
        let m = toy_runs();
        let path = std::env::temp_dir().join("dnnopt_trace_test.csv");
        write_traces_csv(path.to_str().unwrap(), &[m], 10).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("sim,Random"));
        assert_eq!(body.lines().count(), 11);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn ascii_plot_renders() {
        let m = toy_runs();
        let plot = ascii_plot(&[m], 30, "test");
        assert!(plot.contains("FoM"));
        assert!(plot.contains('D'));
    }

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_env();
        assert!(s.repeats >= 1);
        assert!(s.budget >= 10);
    }
}
