//! Sizing-run benchmark for the DNN-Opt reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One invocation builds one workload's testbench, warms it up with a
//! checked run on an optimizer seed drawn from `--seed`, then repeats
//! single-threaded runs of the workload's fixed seed for `--seconds`,
//! timing testbench builds between them and calibrating every time against
//! the host's current speed ([`calib`]). Every run's history is checked
//! (length = budget, every FoM finite) and digested; all repetitions must
//! produce the same digest, traced or not, at any thread count. The last
//! stdout line is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The README lists the workloads
//! and metrics and says why the timed seed is fixed and the untraced runs
//! are single-threaded.
//!
//! Layers are timed only from outside: around `Optimizer::run`, through the
//! [`timed::Timed`] problem decorator, from `RunResult`, and from the
//! existing telemetry summary (`telemetry::install`/`finish`).

mod calib;
mod layers;
mod timed;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use opt::{RunResult, SizingProblem, StopPolicy};

use layers::{median, Traced};
use timed::Timed;
use workload::{Workload, TIMED_SEED};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// Testbench builds before each timed run; `setup_s` is the median over
/// runs of each batch's fastest build.
const SETUP_BATCH: usize = 20;

/// Fewest timed untraced runs per invocation, however short `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// FNV-1a over every history entry's design bits, FoM bits and failure
/// kind: equal digests mean bit-identical histories.
fn digest(run: &RunResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for e in run.history.entries() {
        for x in &e.x {
            eat(x.to_bits());
        }
        eat(e.fom.to_bits());
        let kind = e.spec.failure_diag().map_or(0, |d| {
            1 + opt::FailureKind::ALL
                .iter()
                .position(|&k| k == d.kind)
                .expect("every kind is in ALL") as u64
        });
        eat(kind);
    }
    h
}

/// The output check every run passes before it may produce a number;
/// returns the run's digest.
fn check(w: &Workload, run: &RunResult) -> Result<u64, String> {
    let n = run.history.len();
    if n != w.budget {
        return Err(format!("history has {n} entries, budget is {}", w.budget));
    }
    if let Some(i) = run
        .history
        .entries()
        .iter()
        .position(|e| !e.fom.is_finite())
    {
        return Err(format!("entry {i} has a non-finite FoM"));
    }
    Ok(digest(run))
}

/// One checked optimizer run: its wall-clock time, result and digest.
fn run_once(
    w: &Workload,
    problem: &dyn SizingProblem,
    seed: u64,
) -> Result<(f64, RunResult, u64), String> {
    let optimizer = w.optimizer();
    let fom = w.fom(problem);
    let t0 = Instant::now();
    let run = optimizer.run(problem, &fom, w.budget, StopPolicy::Exhaust, seed);
    let wall = t0.elapsed().as_secs_f64();
    let digest = check(w, &run)?;
    Ok((wall, run, digest))
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

struct Output {
    attempted: usize,
    metrics: Vec<Metric>,
}

fn bench(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Untraced runs are single-threaded. On a shared two-vCPU host, runs
    // that keep both vCPUs busy varied by up to a third between
    // invocations, single-threaded ones by under a tenth; the host thread
    // count (the shipped default) is measured in the traced pass. Pinning
    // also keeps a stray `DNNOPT_THREADS` from changing what is measured.
    linalg::pool::set_max_threads(1);
    telemetry::install(None);
    let problem = w.build();
    let problem: &dyn SizingProblem = &*problem;

    // Warm-up on a fresh input: one checked run with an optimizer seed
    // drawn from `--seed`. It fills the solver workspace pools and lazy
    // state before anything is timed, and is not itself timed.
    let fresh_seed = opt::parallel::candidate_seed(args.seed, 0, 0);
    let (_, _, fresh) = run_once(w, problem, fresh_seed)?;
    println!(
        "{}: fresh seed {fresh_seed} checked, digest {fresh:016x}",
        w.name
    );

    // Timed untraced repetitions of the workload's fixed seed. Every one
    // must reproduce the first one's digest.
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut calibrated = Vec::new();
    let mut reference: Option<(u64, RunResult)> = None;
    let mut setup = Vec::new();
    while walls.len() < MIN_REPS || started.elapsed() < budget {
        // One set-up sample per run, spread over the whole invocation: the
        // fastest of a batch of builds, so the cache refill after the
        // previous run is not counted as set-up work.
        let fastest_build = (0..SETUP_BATCH)
            .map(|_| {
                let t0 = Instant::now();
                let _built = w.build();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        let before = calib::kernel_s();
        setup.push(fastest_build * calib::REFERENCE_S / before);
        let (wall, run, d) = run_once(w, problem, TIMED_SEED)?;
        let after = calib::kernel_s();
        calibrated.push(wall * calib::REFERENCE_S / (0.5 * (before + after)));
        match &reference {
            None => reference = Some((d, run)),
            Some((d0, _)) if *d0 != d => {
                return Err(format!(
                    "repetition {} drifted: digest {d:016x} != {d0:016x}",
                    walls.len()
                ))
            }
            Some(_) => {}
        }
        walls.push(wall);
    }
    let (ref_digest, reference) = reference.expect("at least one run");
    let wall_s = median(&calibrated);
    println!(
        "{}: seed {} digest {ref_digest:016x}, {} untraced runs, calibrated wall median {wall_s:.4} s, raw median {:.4} s, all {walls:.3?}, calibrated {calibrated:.3?}",
        w.name,
        TIMED_SEED,
        walls.len(),
        median(&walls)
    );
    println!(
        "{}: calibrated setup p10/p50/p90 {:.3e} {:.3e} {:.3e} s",
        w.name,
        layers::quantile(&setup, 0.1),
        median(&setup),
        layers::quantile(&setup, 0.9)
    );

    if !args.trace {
        let h = &reference.history;
        let ok = h.entries().iter().filter(|e| !e.spec.is_failure()).count();
        let metrics = vec![
            ("wall_s".into(), wall_s, "s"),
            ("sims_per_s".into(), w.budget as f64 / wall_s, "1/s"),
            ("setup_s".into(), median(&setup), "s"),
            ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
            (
                "best_fom".into(),
                h.best().map(|e| e.fom).expect("budget > 0"),
                "fom",
            ),
            (
                "sims_to_feasible".into(),
                h.first_feasible().unwrap_or(w.budget + 1) as f64,
                "sims",
            ),
            ("eval_ok_frac".into(), ok as f64 / h.len() as f64, "frac"),
        ];
        return Ok(Output {
            attempted: 1 + walls.len(),
            metrics,
        });
    }

    // Traced repetitions of the same seed: twice at the host thread count
    // (the shipped configuration, and the repetition the exact counts are
    // gated on), once single-threaded like the untraced runs.
    let mut traced = Vec::new();
    for threads in [host_threads, host_threads, 1] {
        linalg::pool::set_max_threads(threads);
        telemetry::install(Some(telemetry::SinkKind::Summary));
        telemetry::reset();
        let timed = Timed::new(problem);
        let (wall, run, d) = run_once(w, &timed, TIMED_SEED)?;
        let summary = telemetry::finish().expect("telemetry was installed");
        telemetry::install(None);
        telemetry::reset();
        if d != ref_digest {
            return Err(format!(
                "traced run at {threads} thread(s) drifted: digest {d:016x} != {ref_digest:016x}"
            ));
        }
        traced.push(Traced::new(w, timed, threads, wall, run, summary)?);
    }
    let metrics = layers::report(w, &traced, &walls)?;
    Ok(Output {
        attempted: 1 + walls.len() + traced.len(),
        metrics,
    })
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(out) => {
            if let Some((name, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                eprintln!("metric {name} is not finite: {v}");
                println!("{}", json(false, out.attempted, 1, &[]));
                return ExitCode::FAILURE;
            }
            println!("{}", json(true, out.attempted, 0, &out.metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check failed: {e}");
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The decorator forwards every trait method, so the evaluator takes
    /// the same route with and without it: histories are bit-identical at
    /// one and two threads, on every workload's grid shape.
    #[test]
    fn decorator_keeps_histories_bit_identical() {
        for w in &workload::WORKLOADS {
            let mut w = *w;
            w.budget = 24;
            let problem = w.build();
            let problem: &dyn SizingProblem = &*problem;
            let mut digests = Vec::new();
            for threads in [1, 2] {
                linalg::pool::set_max_threads(threads);
                let (_, _, bare) =
                    run_once(&w, problem, TIMED_SEED).expect("bare run passes its checks");
                let timed = Timed::new(problem);
                let (_, _, wrapped) =
                    run_once(&w, &timed, TIMED_SEED).expect("wrapped run passes its checks");
                // The same route: one call per grid unit on a corner or
                // analysis grid, one per candidate otherwise.
                let (k, na) = (problem.num_corners(), problem.num_analyses());
                let units = if k > 1 || na > 1 { k * na } else { 1 };
                let (calls, _) = timed.into_calls();
                assert_eq!(
                    calls.len(),
                    w.budget * units,
                    "{}: evaluation route changed",
                    w.name
                );
                digests.push(bare);
                digests.push(wrapped);
            }
            linalg::pool::set_max_threads(0);
            assert!(
                digests.iter().all(|&d| d == digests[0]),
                "{}: digests differ: {digests:x?}",
                w.name
            );
        }
    }
}
