//! Measure and size the folded-cascode OTA (paper Fig. 2 / Table I).
//!
//! Run with `cargo run --release --example folded_cascode -- [budget]`
//! (default budget 120; the paper uses 500).

use circuits::FoldedCascodeOta;
use dnn_opt::{DnnOpt, DnnOptConfig};
use opt::{Optimizer, RunReport, SizingProblem, StopPolicy};

fn main() {
    let budget: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(120);
    let ota = FoldedCascodeOta::new();

    // 1. Measure the shipped hand-tuned design.
    println!("== nominal design report ==");
    match ota.report(&ota.nominal()) {
        Ok(r) => {
            println!("power        : {:.3} mW", r.power * 1e3);
            println!("DC gain      : {:.1} dB", r.dc_gain_db);
            println!("UGF          : {:.1} MHz", r.ugf.unwrap_or(0.0) / 1e6);
            println!("phase margin : {:.1} deg", r.phase_margin.unwrap_or(0.0));
            println!("CMRR / PSRR  : {:.0} / {:.0} dB", r.cmrr_db, r.psrr_db);
            println!("output swing : {:.2} V (differential)", r.swing);
            println!("noise        : {:.2} mV rms", r.noise_rms * 1e3);
        }
        Err(e) => println!("nominal failed to simulate: {e}"),
    }
    let spec = ota.evaluate(&ota.nominal());
    println!("nominal feasible against Eq. 9: {}", spec.feasible());

    // 2. Size from scratch with DNN-Opt.
    println!("\n== DNN-Opt sizing run (budget {budget}) ==");
    let fom = ota.paper_fom();
    let run = DnnOpt::new(DnnOptConfig::default()).run(&ota, &fom, budget, StopPolicy::Exhaust, 1);
    println!(
        "best FoM        : {:.3}",
        run.history.best().map(|e| e.fom).unwrap_or(f64::NAN)
    );
    match run.history.best_feasible() {
        Some(e) => println!("feasible design : {:.3} mW", e.spec.objective * 1e3),
        None => println!("no feasible design inside this budget (paper needs ~132–205 sims)"),
    }
    println!(
        "model time      : {:.1?} / total {:.1?}",
        run.model_time, run.total_time
    );

    // Robustness taxonomy plus — under `DNNOPT_TRACE` — span timings,
    // solver/pool metric histograms, and the configured trace file.
    println!("\n== run report ==\n{}", RunReport::collect(&run.history));
}
