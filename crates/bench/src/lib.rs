//! Shared infrastructure for the reproduction harness: method suites,
//! per-method statistics, FoM-curve aggregation, and CSV output.
//!
//! The `repro` binary (this crate's `src/bin/repro.rs`) uses these helpers
//! to regenerate every table and figure of the paper; its module docs map
//! each command to its table or figure, and [`Scale`] documents the
//! experiment-scale defaults against the paper's protocol.

use std::time::Duration;

use dnn_opt::{DnnOpt, DnnOptConfig};
use linalg::GemmOp;
use opt::{
    BoWei, DifferentialEvolution, Fom, Gaspad, Optimizer, RunResult, SizingProblem, StopPolicy,
};

/// The RC interconnect ladder of the Newton-kernel benchmarks (n = 62
/// unknowns at 60 stages). One definition shared by
/// `benches/spice_kernels.rs` and [`baseline::refresh`], so the recorded
/// rows always measure the same circuit as `cargo bench`.
pub fn build_rc_ladder(n: usize) -> spice::Circuit {
    use spice::{Waveform, GND};
    let mut c = spice::Circuit::new();
    let vin = c.node("in");
    c.add_vsource_ac("V1", vin, GND, Waveform::Dc(1.0), 1.0)
        .unwrap();
    let mut prev = vin;
    for i in 0..n {
        let node = c.node(&format!("n{i}"));
        c.add_resistor(&format!("R{i}"), prev, node, 1e3).unwrap();
        c.add_capacitor(&format!("C{i}"), node, GND, 1e-12).unwrap();
        prev = node;
    }
    c
}

/// The stamped DC matrix of the post-layout RC mesh
/// ([`circuits::mesh::build_rc_grid`]) at `n` unknowns. One definition
/// shared by `benches/sparse_scaling.rs` and [`baseline::refresh`], so
/// the recorded mesh rows always measure the same system as
/// `cargo bench`.
pub fn mesh_dc_system(n: usize) -> linalg::CscMatrix {
    use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};
    let ckt = circuits::mesh::build_rc_grid(n);
    let mut st = RealStamper::new(&ckt);
    let x0 = vec![0.0; n];
    st.clear();
    st.load_gmin(1e-12);
    stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);
    linalg::CscMatrix::from_dense(&linalg::Matrix::from_vec(n, n, st.a))
}

/// The assembled complex AC matrices `G + jωC` of the post-layout
/// RC mesh ([`circuits::mesh::build_rc_grid`]) at `n` unknowns, one per
/// point of a one-point-per-decade 1 MHz–1 GHz sweep. One definition
/// shared by `benches/sparse_scaling.rs` and [`baseline::refresh`], so
/// the recorded AC mesh rows always measure the same sweep as
/// `cargo bench`.
pub fn mesh_ac_systems(n: usize) -> Vec<linalg::CscComplexMatrix> {
    let ckt = circuits::mesh::build_rc_grid(n);
    let gmin = spice::SimOptions::default().gmin;
    spice::log_freqs(1e6, 1e9, 1)
        .iter()
        .map(|&f| {
            let st = assemble_linear_small_signal(&ckt, 2.0 * std::f64::consts::PI * f, gmin);
            complex_csc(&st.a, n)
        })
        .collect()
}

/// The CSC form of a row-major `n×n` complex system (the dense storage of
/// [`spice::stamp::DenseStamper`]).
pub fn complex_csc(a: &[linalg::C64], n: usize) -> linalg::CscComplexMatrix {
    let rows: Vec<Vec<linalg::C64>> = a.chunks(n).map(<[linalg::C64]>::to_vec).collect();
    linalg::CscComplexMatrix::from_dense_rows(&rows)
}

/// The MOS-loaded ladder of the Newton-kernel benchmarks (n = 32 unknowns
/// at 30 stages): its linearized MNA system is representative of the
/// circuits crate's testbenches (~2·n unknowns, MOSFET stamps). Shared by
/// `benches/spice_kernels.rs` and [`baseline::refresh`].
pub fn build_mos_ladder(n: usize) -> spice::Circuit {
    use spice::{Waveform, GND};
    let nmos = bench_nmos();
    let mut c = spice::Circuit::new();
    let vdd = c.node("vdd");
    c.add_vsource("VDD", vdd, GND, Waveform::Dc(1.8)).unwrap();
    let mut prev = vdd;
    for i in 0..n {
        let d = c.node(&format!("d{i}"));
        c.add_resistor(&format!("R{i}"), prev, d, 5e3).unwrap();
        c.add_mosfet(&format!("M{i}"), d, d, GND, GND, &nmos, 4e-6, 0.5e-6, 1.0)
            .unwrap();
        prev = d;
    }
    c
}

/// Assembles the dense complex small-signal system `(G + jωC)·x = z` of a
/// *linear* circuit (resistors, capacitors, independent sources) at angular
/// frequency `omega` — the AC-sweep system of [`build_rc_ladder`]. Shared
/// by `benches/spice_kernels.rs` and [`baseline::refresh`] so the AC kernel
/// rows always measure the same assembly as `cargo bench`.
///
/// # Panics
///
/// Panics on device kinds the helper does not model (MOSFETs need an
/// operating point; use the full `spice::ac` engine for those).
pub fn assemble_linear_small_signal(
    ckt: &spice::Circuit,
    omega: f64,
    gmin: f64,
) -> spice::stamp::ComplexStamper {
    use linalg::C64;
    use spice::stamp::{ComplexStamper, Stamp};
    use spice::Device;
    let mut st = ComplexStamper::new(ckt);
    st.load_gmin(gmin);
    for dev in ckt.devices() {
        match dev {
            Device::Resistor { a, b, g, .. } => st.conductance(*a, *b, C64::real(*g)),
            Device::Capacitor { a, b, c, .. } => st.conductance(*a, *b, C64::new(0.0, omega * c)),
            Device::VSource {
                p,
                n,
                ac_mag,
                branch,
                ..
            } => st.vsource(*branch, *p, *n, C64::real(*ac_mag)),
            Device::ISource { p, n, ac_mag, .. } => {
                st.current_source(*p, *n, C64::real(*ac_mag));
            }
            _ => panic!("assemble_linear_small_signal supports linear devices only"),
        }
    }
    st
}

/// The generic 180nm-class NMOS used by the micro-benchmarks' hand-built
/// ladder circuits (one definition so the benches cannot drift apart).
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

/// One `(label, m, n, k, (op_a, op_b))` GEMM bench shape.
pub type GemmShape = (&'static str, usize, usize, usize, (GemmOp, GemmOp));

const NN: (GemmOp, GemmOp) = (GemmOp::NoTrans, GemmOp::NoTrans);
const NT: (GemmOp, GemmOp) = (GemmOp::NoTrans, GemmOp::Trans);
const TN: (GemmOp, GemmOp) = (GemmOp::Trans, GemmOp::NoTrans);

/// Naive-vs-`gemm` shapes: the critic's batch-128 forward (`x·Wᵀ`), its
/// weight gradient (`δᵀ·x`), the actor's elite-batch shapes, and a
/// panel-spanning square product.
pub const GEMM_KERNEL_SHAPES: [GemmShape; 5] = [
    ("10x48x20_nt", 10, 48, 20, NT),
    ("48x48x10_tn", 48, 48, 10, TN),
    ("128x48x40_nt", 128, 48, 40, NT),
    ("48x40x128_tn", 48, 40, 128, TN),
    ("160x160x160_nn", 160, 160, 160, NN),
];

/// The eight products of one critic training step (batch 128, widths
/// 40→48→48→30): the three forward `x·Wᵀ`, then per layer from the last
/// the weight gradient `δᵀ·x` and, above the first layer, the delta
/// propagation `δ·W`.
pub const CRITIC_STEP_SHAPES: [GemmShape; 8] = [
    ("128x48x40_nt", 128, 48, 40, NT),
    ("128x48x48_nt", 128, 48, 48, NT),
    ("128x30x48_nt", 128, 30, 48, NT),
    ("30x48x128_tn", 30, 48, 128, TN),
    ("128x48x30_nn", 128, 48, 30, NN),
    ("48x48x128_tn", 48, 48, 128, TN),
    ("128x48x48_nn", 128, 48, 48, NN),
    ("48x40x128_tn", 48, 40, 128, TN),
];

/// The GEMM-engine rows, shared by `benches/gemm_kernels.rs` and
/// [`baseline::refresh`]: `gemm_kernel_naive_*` (the reference triple
/// loop) and `gemm_kernel_tiled_*` (the `gemm` entry point: its register
/// tiles on the lane backend the host selects) on [`GEMM_KERNEL_SHAPES`],
/// then `gemm_kernel_critic_*` (the `gemm` entry point) on
/// [`CRITIC_STEP_SHAPES`].
pub fn gemm_kernel_rows(c: &mut criterion::Criterion) {
    use criterion::black_box;
    use linalg::{gemm, gemm_naive, GemmWorkspace, Matrix};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    // `(op(A), op(B))` of one shape, drawn from the shared stream.
    let mut operands = |(_, m, n, k, (op_a, op_b)): GemmShape| {
        let mut draw = |op: GemmOp, rows: usize, cols: usize| {
            let (r, c) = match op {
                GemmOp::NoTrans => (rows, cols),
                GemmOp::Trans => (cols, rows),
            };
            Matrix::from_fn(r, c, |_, _| rng.gen::<f64>() - 0.5)
        };
        let a = draw(op_a, m, k);
        (a, draw(op_b, k, n))
    };
    let entry = |c: &mut criterion::Criterion, name: &str, (op_a, op_b), a: &Matrix, b: &Matrix| {
        c.bench_function(name, |bench| {
            let mut ws = GemmWorkspace::new();
            let mut out = Matrix::default();
            bench.iter(|| {
                gemm(
                    op_a,
                    op_b,
                    1.0,
                    black_box(a),
                    black_box(b),
                    0.0,
                    &mut out,
                    &mut ws,
                );
                black_box(out.as_slice()[0])
            })
        });
    };
    for shape @ (label, _, _, _, (op_a, op_b)) in GEMM_KERNEL_SHAPES {
        let (a, b) = operands(shape);
        c.bench_function(&format!("gemm_kernel_naive_{label}"), |bench| {
            let mut out = Matrix::default();
            bench.iter(|| {
                gemm_naive(op_a, op_b, 1.0, black_box(&a), black_box(&b), 0.0, &mut out);
                black_box(out.as_slice()[0])
            })
        });
        entry(c, &format!("gemm_kernel_tiled_{label}"), shape.4, &a, &b);
    }
    for shape @ (label, ..) in CRITIC_STEP_SHAPES {
        let (a, b) = operands(shape);
        entry(c, &format!("gemm_kernel_critic_{label}"), shape.4, &a, &b);
    }
}

/// Re-times the Newton-kernel, GEMM-engine, training-loop and evaluation
/// benchmarks and merges the rows into a `BENCH_baseline.json` file (same
/// one-JSON-object-per-row format the criterion shim records). Used by
/// `repro baseline` so the checked-in baseline can be refreshed on the
/// current host without running the full bench suite.
pub mod baseline {
    use crate::{assemble_linear_small_signal, build_mos_ladder, build_rc_ladder, complex_csc};
    use criterion::{black_box, Criterion};
    use linalg::{CscComplexMatrix, CscMatrix, Matrix, SparseComplexLu, SparseLu, C64};
    use opt::{parallel, Evaluator, Fom, SizingProblem};
    use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};

    /// Runs the affected kernels (identical bodies to the criterion
    /// benches) with `CRITERION_JSON` pointed at `path`, appending one row
    /// per kernel.
    fn record_rows(path: &std::path::Path) {
        std::env::set_var("CRITERION_JSON", path);
        let mut c = Criterion::default().sample_size(10);
        for (label, ckt, x_guess) in [
            ("newton_dc_kernel_sparse_n62", build_rc_ladder(60), 0.0),
            ("newton_dc_kernel_sparse_n32", build_mos_ladder(30), 0.4),
        ] {
            let n = ckt.num_unknowns();
            let mut st = RealStamper::new(&ckt);
            let x0 = vec![x_guess; n];
            st.clear();
            st.load_gmin(1e-12);
            stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);
            c.bench_function(label, |b| {
                let csc = CscMatrix::from_dense(&Matrix::from_vec(n, n, st.a.clone()));
                let mut slu = SparseLu::new();
                slu.factor(&csc).unwrap();
                let mut x = Vec::new();
                b.iter(|| {
                    slu.refactor_into(black_box(&csc)).unwrap();
                    slu.solve_into(&st.z, &mut x).unwrap();
                    black_box(x[0])
                })
            });
        }

        // The post-layout mesh rows (identical bodies to
        // `benches/sparse_scaling.rs`): one scan-free numeric
        // factorization of the parasitic RC-mesh system per iteration.
        for n in [200usize, 500, 1000] {
            let csc = crate::mesh_dc_system(n);
            c.bench_function(&format!("newton_dc_kernel_mesh_n{n}_scalar"), |b| {
                let mut slu = SparseLu::new();
                slu.factor(&csc).unwrap();
                b.iter(|| {
                    slu.refactor_into(black_box(&csc)).unwrap();
                })
            });
        }

        // The complex AC-mesh rows (identical bodies to
        // `benches/sparse_scaling.rs`): one scan-free numeric replay of
        // every `G + jωC` point of the RC-mesh sweep per iteration.
        for n in [200usize, 500, 1000] {
            let systems = crate::mesh_ac_systems(n);
            c.bench_function(&format!("ac_sweep_kernel_mesh_n{n}_scalar"), |b| {
                let mut slu = SparseComplexLu::new();
                slu.factor(&systems[0]).unwrap();
                b.iter(|| {
                    for csc in &systems {
                        slu.refactor_into(black_box(csc)).unwrap();
                    }
                })
            });
        }

        // The AC-sweep kernel (identical body to
        // `benches/spice_kernels.rs::bench_ac_sweep_kernel`): factor +
        // solve at all 26 points of the n = 62 RC-ladder sweep on the
        // sparse pattern-shared kernel.
        {
            let ckt = build_rc_ladder(60);
            let n = ckt.num_unknowns();
            let freqs = spice::log_freqs(1e3, 1e8, 5);
            let gmin = spice::SimOptions::default().gmin;
            let systems: Vec<(Vec<C64>, Vec<C64>)> = freqs
                .iter()
                .map(|&f| {
                    let st =
                        assemble_linear_small_signal(&ckt, 2.0 * std::f64::consts::PI * f, gmin);
                    (st.a, st.z)
                })
                .collect();
            let cscs: Vec<CscComplexMatrix> =
                systems.iter().map(|(a, _)| complex_csc(a, n)).collect();
            c.bench_function("ac_sweep_kernel_sparse_n62", |b| {
                let mut slu = SparseComplexLu::new();
                slu.factor(&cscs[0]).unwrap();
                let mut x = Vec::new();
                b.iter(|| {
                    for (i, (csc, (_, z))) in cscs.iter().zip(&systems).enumerate() {
                        if i == 0 {
                            slu.factor(black_box(csc)).unwrap();
                        } else {
                            slu.refactor_into(black_box(csc)).unwrap();
                        }
                        slu.solve_into(z, &mut x).unwrap();
                    }
                    black_box(x[0])
                })
            });
        }

        crate::gemm_kernel_rows(&mut c);

        // The training-loop kernels (identical bodies and seeds to
        // `benches/model_kernels.rs`): one MSE gradient step and one full
        // critic/actor training pass — the rows the GEMM engine targets.
        {
            use dnn_opt::{Actor, Critic, DnnOptConfig};
            use linalg::Matrix;
            use nn::{Activation, Adam, Mlp, TrainWorkspace};
            use opt::Fom;
            use rand::{rngs::StdRng, Rng, SeedableRng};

            let mut rng = StdRng::seed_from_u64(1);
            let x = Matrix::from_fn(128, 40, |_, _| rng.gen::<f64>());
            let y = Matrix::from_fn(128, 30, |_, _| rng.gen::<f64>());
            let epochs = DnnOptConfig::default().critic_epochs;
            let fresh = |rng: &mut StdRng| {
                let net = Mlp::new(&[40, 48, 48, 30], Activation::Relu, rng);
                (net, Adam::new(3e-3))
            };
            c.bench_function("mlp_train_step_alloc_b128", |b| {
                let (mut net, mut adam) = fresh(&mut rng);
                let mut step = 0;
                b.iter(|| {
                    if step == epochs {
                        (net, adam) = fresh(&mut rng);
                        step = 0;
                    }
                    step += 1;
                    nn::train_step_mse(&mut net, &mut adam, &x, &y)
                })
            });
            c.bench_function("mlp_train_step_workspace_b128", |b| {
                let (mut net, mut adam) = fresh(&mut rng);
                let mut step = 0;
                let mut ws = TrainWorkspace::new();
                b.iter(|| {
                    if step == epochs {
                        (net, adam) = fresh(&mut rng);
                        step = 0;
                    }
                    step += 1;
                    nn::train_step_mse_ws(&mut net, &mut adam, &x, &y, &mut ws)
                })
            });

            let mut rng = StdRng::seed_from_u64(0);
            let xs: Vec<Vec<f64>> = (0..150)
                .map(|_| (0..20).map(|_| rng.gen()).collect())
                .collect();
            let fs: Vec<Vec<f64>> = xs
                .iter()
                .map(|xv| {
                    (0..30)
                        .map(|j| xv.iter().map(|v| (v - 0.1 * j as f64).powi(2)).sum::<f64>())
                        .collect()
                })
                .collect();
            let cfg = DnnOptConfig::default();
            c.bench_function("critic_train_n150_d20_m30", |b| {
                b.iter(|| Critic::train(&cfg, &xs, &fs, &mut rng))
            });
            let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
            let fom = Fom::uniform(1.0, 29);
            let elite: Vec<Vec<f64>> = xs[..10].to_vec();
            c.bench_function("actor_train_elite10", |b| {
                b.iter(|| {
                    Actor::train(
                        &cfg, &critic, &fom, &elite, &[0.0; 20], &[1.0; 20], &mut rng,
                    )
                })
            });
        }

        let ota = circuits::FoldedCascodeOta::new();
        let x = ota.nominal();
        c.bench_function("ota_full_evaluation", |b| b.iter(|| ota.evaluate(&x)));
        // The same evaluation with the telemetry plane hot (summary sink:
        // spans and counters record, no event buffering). Compare against
        // `ota_full_evaluation` — recorded with the plane compiled in but
        // disabled — to price the enabled path; the disabled path costs
        // one relaxed atomic load per instrumentation site.
        c.bench_function("telemetry_enabled_overhead", |b| {
            telemetry::install(Some(telemetry::SinkKind::Summary));
            b.iter(|| ota.evaluate(&x));
            telemetry::reset();
            telemetry::install(None);
        });
        let latch = circuits::StrongArmLatch::new();
        let xl = latch.nominal();
        c.bench_function("latch_full_evaluation", |b| b.iter(|| latch.evaluate(&xl)));

        // The closed-loop OTA transient rows (identical bodies to
        // `benches/spice_kernels.rs::bench_closed_loop_transient`).
        for (label, ota) in [
            (
                "ota_closed_loop_tran_n32",
                circuits::FoldedCascodeOta::new(),
            ),
            (
                "ota_closed_loop_tran_postlayout_n256",
                circuits::FoldedCascodeOta::post_layout(),
            ),
        ] {
            let x = ota.nominal();
            c.bench_function(label, |b| {
                b.iter(|| ota.closed_loop_transient(black_box(&x)).unwrap().len())
            });
        }

        // The PVT corner-sweep rows (identical bodies to
        // `benches/corner_eval.rs`): the same candidate through the
        // nominal-only plane, the standard 5-corner sign-off plane, and
        // the level shifter's six-supply-corner plane on the shared
        // engine.
        {
            use circuits::tech::CornerSet;
            c.bench_function("ota_corner_eval_1c", |b| {
                b.iter(|| black_box(ota.evaluate(black_box(&x))).objective)
            });
            let ota5 = circuits::FoldedCascodeOta::with_corners(CornerSet::pvt5());
            let x5 = ota5.nominal();
            c.bench_function("ota_corner_eval_5c", |b| {
                b.iter(|| black_box(ota5.evaluate(black_box(&x5))).objective)
            });
            let ls = circuits::LevelShifter::new();
            let xls = SizingProblem::nominal(&ls);
            c.bench_function("level_shifter_corner_eval_6c", |b| {
                b.iter(|| black_box(ls.evaluate(black_box(&xls))).objective)
            });
        }

        let ota_fom = Fom::uniform(1.0, ota.num_constraints());
        let (lb, ub) = ota.bounds();
        let nominal = ota.nominal();
        let ota_pop: Vec<Vec<f64>> = (0..16)
            .map(|i| {
                let t = (i as f64 / 15.0 - 0.5) * 0.1;
                nominal
                    .iter()
                    .zip(lb.iter().zip(&ub))
                    .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                    .collect()
            })
            .collect();
        c.bench_function("population_eval_16_ota_serial", |b| {
            parallel::set_max_threads(1);
            b.iter(|| {
                let mut ev = Evaluator::new(&ota, &ota_fom, ota_pop.len());
                black_box(ev.evaluate_batch(&ota_pop).len())
            });
            parallel::set_max_threads(0);
        });
        c.bench_function("population_eval_16_ota_parallel", |b| {
            parallel::set_max_threads(0);
            b.iter(|| {
                let mut ev = Evaluator::new(&ota, &ota_fom, ota_pop.len());
                black_box(ev.evaluate_batch(&ota_pop).len())
            })
        });
        // Fixed worker counts through the candidate×corner×analysis grid
        // (identical bodies to `benches/parallel_scaling.rs`).
        for threads in [2usize, 4, 8] {
            c.bench_function(&format!("population_eval_16_ota_t{threads}"), |b| {
                parallel::set_max_threads(threads);
                b.iter(|| {
                    let mut ev = Evaluator::new(&ota, &ota_fom, ota_pop.len());
                    black_box(ev.evaluate_batch(&ota_pop).len())
                });
                parallel::set_max_threads(0);
            });
        }
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
