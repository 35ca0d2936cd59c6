//! Regenerates every table and figure of the DNN-Opt paper.
//!
//! ```text
//! repro table1          # Table I   — OTA design variables and ranges
//! repro table3          # Table III — latch design variables and ranges
//! repro ota             # Table II + Figure 3 (writes results/fig3.csv)
//! repro latch           # Table IV + Figure 4 (writes results/fig4.csv)
//! repro table5          # Table V   — industrial circuits, SA vs DNN-Opt
//! repro ablation        # §II-B claim: pseudo-sample critic vs d-input net
//! repro baseline [file] # re-time the Newton/GEMM/training/evaluation
//!                       # kernels and merge the rows into
//!                       # BENCH_baseline.json
//! repro all             # everything
//! ```
//!
//! Scale knobs via the environment: `REPEATS` (default 3; paper 10),
//! `BUDGET` (default 500; paper 500), `DE_BUDGET` (default 2000; paper
//! 10000); see `bench::Scale`.

use bench::{ascii_plot, building_block_suite, secs, write_traces_csv, MethodRuns, Scale};
use circuits::{Ctle, FoldedCascodeOta, InverterChain, Ldo, LevelShifter, StrongArmLatch};
use dnn_opt::{DnnOpt, DnnOptConfig, ReducedProblem, SensitivityReport};
use opt::{Fom, Optimizer, SimulatedAnnealing, SizingProblem, StopPolicy};

fn print_bounds_table(title: &str, problem: &dyn SizingProblem) {
    println!("\n=== {title} ===");
    let (lb, ub) = problem.bounds();
    let names = problem.variable_names();
    println!("{:<10} {:>14} {:>14}", "Parameter", "LB", "UB");
    for i in 0..problem.dim() {
        println!("{:<10} {:>14.4e} {:>14.4e}", names[i], lb[i], ub[i]);
    }
    println!(
        "variables: {}, constraints: {}",
        problem.dim(),
        problem.num_constraints()
    );
}

fn print_stats_table(title: &str, methods: &[MethodRuns], scale: &Scale, obj_unit: (&str, f64)) {
    println!("\n=== {title} (repeats = {}) ===", scale.repeats);
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>12} {:>12} {:>11} {:>10}",
        "Algorithm",
        "success",
        "#sims",
        &format!("min {}", obj_unit.0),
        &format!("max {}", obj_unit.0),
        &format!("mean {}", obj_unit.0),
        "model(s)",
        "sim(s)"
    );
    for m in methods {
        let sims = m
            .mean_sims_to_feasible()
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| {
                format!(">{}", m.runs.first().map(|r| r.history.len()).unwrap_or(0))
            });
        let (mn, mx, mean) = m
            .objective_stats()
            .map(|(a, b, c)| {
                (
                    format!("{:.3}", a * obj_unit.1),
                    format!("{:.3}", b * obj_unit.1),
                    format!("{:.3}", c * obj_unit.1),
                )
            })
            .unwrap_or(("NA".into(), "NA".into(), "NA".into()));
        println!(
            "{:<10} {:>9}/{:<2} {:>10} {:>12} {:>12} {:>12} {:>11} {:>10}",
            m.name,
            m.successes(),
            scale.repeats,
            sims,
            mn,
            mx,
            mean,
            secs(m.model_time()),
            secs(m.sim_time()),
        );
    }
}

fn run_ota(scale: &Scale) {
    let ota = FoldedCascodeOta::new();
    // Eq. 4 weights: objective in ~[0.5, 5] mW scaled to ~[0.05, 0.5];
    // constraint weights 0.25 keep typical violations inside the linear
    // band of the min/max clipping (see `opt::Fom`).
    let fom = Fom::new(100.0, vec![0.25; ota.num_constraints()]);
    eprintln!("[ota] running Table II / Fig. 3 suite...");
    let methods = building_block_suite(&ota, &fom, scale, StopPolicy::Exhaust);
    print_stats_table(
        "Table II — folded-cascode OTA",
        &methods,
        scale,
        ("mW", 1e3),
    );
    write_traces_csv("results/fig3.csv", &methods, scale.budget).expect("write fig3.csv");
    println!(
        "\n{}",
        ascii_plot(&methods, scale.budget, "Figure 3 — OTA mean FoM")
    );
    println!("series written to results/fig3.csv");
}

fn run_latch(scale: &Scale) {
    let latch = StrongArmLatch::new();
    // Objective is power in W (µW range); w0 scales it to ~0.1–1.
    let fom = Fom::new(3e4, vec![0.25; latch.num_constraints()]);
    eprintln!("[latch] running Table IV / Fig. 4 suite...");
    let methods = building_block_suite(&latch, &fom, scale, StopPolicy::Exhaust);
    print_stats_table("Table IV — StrongARM latch", &methods, scale, ("uW", 1e6));
    write_traces_csv("results/fig4.csv", &methods, scale.budget).expect("write fig4.csv");
    println!(
        "\n{}",
        ascii_plot(&methods, scale.budget, "Figure 4 — latch mean FoM")
    );
    println!("series written to results/fig4.csv");
}

fn industrial_row(
    name: &str,
    problem: &dyn SizingProblem,
    device_count: f64,
    fom: &Fom,
    scale: &Scale,
    sa_budget: usize,
    dnn_budget: usize,
) {
    // Sensitivity pruning (paper §II-C) around the nominal design.
    let nominal = problem.nominal();
    let rep = SensitivityReport::compute(problem, &nominal, 0.05);
    let critical = rep.critical_variables(0.1);
    let reduced = ReducedProblem::new(problem, nominal, critical.clone());
    eprintln!(
        "[{name}] {} -> {} critical variables",
        problem.dim(),
        critical.len()
    );

    let sa = SimulatedAnnealing::default();
    let dnn = DnnOpt::new(DnnOptConfig::default());
    let mut sa_sims = Vec::new();
    let mut dnn_sims = Vec::new();
    for rep_i in 0..scale.repeats {
        let r = sa.run(
            &reduced,
            fom,
            sa_budget,
            StopPolicy::FirstFeasible,
            rep_i as u64,
        );
        sa_sims.push(r.sims_to_feasible());
        let r = dnn.run(
            &reduced,
            fom,
            dnn_budget,
            StopPolicy::FirstFeasible,
            rep_i as u64,
        );
        dnn_sims.push(r.sims_to_feasible());
    }
    let fmt = |v: &[Option<usize>], budget: usize| {
        let ok: Vec<f64> = v.iter().filter_map(|s| s.map(|n| n as f64)).collect();
        if ok.is_empty() {
            format!(">{budget}")
        } else if ok.len() < v.len() {
            format!(
                "{:.0} ({}/{} ok)",
                ok.iter().sum::<f64>() / ok.len() as f64,
                ok.len(),
                v.len()
            )
        } else {
            format!("{:.0}", ok.iter().sum::<f64>() / ok.len() as f64)
        }
    };
    println!(
        "{:<15} {:>9} {:>8} {:>14} {:>14}",
        name,
        device_count as u64,
        critical.len(),
        fmt(&sa_sims, sa_budget),
        fmt(&dnn_sims, dnn_budget),
    );
}

fn run_table5(scale: &Scale) {
    println!(
        "\n=== Table V — industrial circuits (sims to meet constraints; repeats = {}) ===",
        scale.repeats
    );
    println!(
        "{:<15} {:>9} {:>8} {:>14} {:>14}",
        "Circuit", "MOS", "critical", "SA", "DNN-Opt"
    );
    let sa_budget = scale.de_budget.max(1000);
    let dnn_budget = scale.budget;

    let inv = InverterChain::new();
    let fom = Fom::new(1.0, vec![0.5; inv.num_constraints()]);
    industrial_row(
        "Inverter Chain",
        &inv,
        8.0,
        &fom,
        scale,
        sa_budget,
        dnn_budget,
    );

    let ls = LevelShifter::new();
    let fom = Fom::new(1.0, vec![0.5; ls.num_constraints()]);
    industrial_row(
        "Level Shifter",
        &ls,
        ls.device_count(),
        &fom,
        scale,
        sa_budget,
        dnn_budget,
    );

    let ldo = Ldo::new();
    let fom = Fom::new(1e3, vec![0.5; ldo.num_constraints()]);
    industrial_row(
        "LDO",
        &ldo,
        ldo.device_count(),
        &fom,
        scale,
        sa_budget,
        dnn_budget,
    );

    let ctle = Ctle::new();
    let fom = Fom::new(100.0, vec![0.5; ctle.num_constraints()]);
    industrial_row(
        "CTLE",
        &ctle,
        ctle.device_count(),
        &fom,
        scale,
        sa_budget,
        dnn_budget,
    );
}

/// §II-B ablation: critic with (x, Δx) pseudo-samples vs a d-input network
/// on raw samples, on synthetic Bayesmark-like regression landscapes.
fn run_ablation() {
    use linalg::Matrix;
    use nn::{Activation, Adam, Mlp};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    println!("\n=== Ablation — critic input representation (paper §II-B) ===");
    println!("test-RMSE of spec prediction, mean over 3 landscapes (lower is better)\n");
    let mut rng = StdRng::seed_from_u64(0);
    type Landscape<'a> = (&'a str, Box<dyn Fn(&[f64]) -> f64>);
    let landscapes: Vec<Landscape> = vec![
        (
            "quadratic",
            Box::new(|x: &[f64]| x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum()),
        ),
        (
            "rosenbrock",
            Box::new(|x: &[f64]| {
                (0..x.len() - 1)
                    .map(|i| 1.0 * (x[i + 1] - x[i] * x[i]).powi(2) + (1.0 - x[i]).powi(2))
                    .sum()
            }),
        ),
        (
            "rastrigin-ish",
            Box::new(|x: &[f64]| x.iter().map(|v| v * v - 0.3 * (6.0 * v).cos() + 0.3).sum()),
        ),
    ];
    let d = 5;
    let n_train = 60;
    println!(
        "{:<14} {:>16} {:>16}",
        "landscape", "2d pseudo-sample", "d-input raw"
    );
    for (name, f) in &landscapes {
        // Training designs.
        let xs: Vec<Vec<f64>> = (0..n_train)
            .map(|_| (0..d).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let fs: Vec<Vec<f64>> = xs.iter().map(|x| vec![f(x)]).collect();
        // (a) DNN-Opt critic (2d input, pseudo-samples).
        let cfg = DnnOptConfig {
            critic_epochs: 800,
            critic_batch: 256,
            ..Default::default()
        };
        let critic = dnn_opt::Critic::train(&cfg, &xs, &fs, &mut rng);
        // (b) d-input network on raw samples, matched step budget.
        let mut raw_net = Mlp::new(&[d, cfg.hidden, cfg.hidden, 1], Activation::Relu, &mut rng);
        let mut adam = Adam::new(cfg.critic_lr);
        let x_mat = Matrix::from_fn(n_train, d, |i, j| xs[i][j]);
        let y_mean: f64 = fs.iter().map(|v| v[0]).sum::<f64>() / n_train as f64;
        let y_std: f64 = (fs.iter().map(|v| (v[0] - y_mean).powi(2)).sum::<f64>() / n_train as f64)
            .sqrt()
            .max(1e-12);
        let y_mat = Matrix::from_fn(n_train, 1, |i, _| (fs[i][0] - y_mean) / y_std);
        for _ in 0..cfg.critic_epochs {
            nn::train_step_mse(&mut raw_net, &mut adam, &x_mat, &y_mat);
        }
        // Test on fresh points.
        let mut se_critic = 0.0;
        let mut se_raw = 0.0;
        let n_test = 200;
        for _ in 0..n_test {
            let x: Vec<f64> = (0..d).map(|_| rng.gen::<f64>()).collect();
            let truth = f(&x);
            // Critic queried as a step from the nearest training design.
            let nearest = xs
                .iter()
                .min_by(|a, b| {
                    let da: f64 = a.iter().zip(&x).map(|(p, q)| (p - q) * (p - q)).sum();
                    let db: f64 = b.iter().zip(&x).map(|(p, q)| (p - q) * (p - q)).sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            let dx: Vec<f64> = x.iter().zip(nearest).map(|(a, b)| a - b).collect();
            let pred_c = critic.predict_one(nearest, &dx)[0];
            se_critic += (pred_c - truth) * (pred_c - truth);
            let xm = Matrix::from_vec(1, d, x.clone());
            let pred_r = raw_net.forward(&xm)[(0, 0)] * y_std + y_mean;
            se_raw += (pred_r - truth) * (pred_r - truth);
        }
        println!(
            "{:<14} {:>16.4} {:>16.4}",
            name,
            (se_critic / n_test as f64).sqrt(),
            (se_raw / n_test as f64).sqrt()
        );
    }
    println!("\n(The 2d pseudo-sample representation should win on every landscape,");
    println!(" reproducing the paper's Bayesmark-based architecture claim.)");
}

fn main() {
    let cmd = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let scale = Scale::from_env();
    eprintln!(
        "scale: repeats={} budget={} de_budget={} (paper: 10/500/10000; set REPEATS/BUDGET/DE_BUDGET)",
        scale.repeats, scale.budget, scale.de_budget
    );
    match cmd.as_str() {
        "table1" => print_bounds_table(
            "Table I — folded-cascode OTA parameters",
            &FoldedCascodeOta::new(),
        ),
        "table3" => print_bounds_table(
            "Table III — StrongARM latch parameters",
            &StrongArmLatch::new(),
        ),
        "ota" | "table2" | "fig3" => run_ota(&scale),
        "latch" | "table4" | "fig4" => run_latch(&scale),
        "table5" => run_table5(&scale),
        "ablation" => run_ablation(),
        "baseline" => {
            let path = std::env::args()
                .nth(2)
                .unwrap_or_else(|| "BENCH_baseline.json".to_string());
            eprintln!("re-timing Newton, GEMM, training and evaluation kernels...");
            bench::baseline::refresh(&path).expect("write baseline file");
            println!("baseline rows merged into {path}");
        }
        "all" => {
            print_bounds_table(
                "Table I — folded-cascode OTA parameters",
                &FoldedCascodeOta::new(),
            );
            print_bounds_table(
                "Table III — StrongARM latch parameters",
                &StrongArmLatch::new(),
            );
            run_ota(&scale);
            run_latch(&scale);
            run_table5(&scale);
            run_ablation();
        }
        other => {
            eprintln!(
                "unknown command {other}; use table1|table3|ota|latch|table5|ablation|baseline|all"
            );
            std::process::exit(2);
        }
    }
}
