//! The criterion rows, one function per group. Each `benches/*.rs` target
//! names its group in `criterion_group!`, and `repro baseline` runs the
//! same six functions, so a recorded row and a `cargo bench` row always
//! time the same body.

use criterion::{black_box, Criterion};
use linalg::{
    reference, CscComplexMatrix, CscMatrix, GemmOp, Matrix, SparseComplexLu, SparseLu, C64,
};
use opt::{parallel, Evaluator, Fom, SizingProblem};
use rand::{rngs::StdRng, Rng, SeedableRng};
use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};
use spice::{SimOptions, Waveform, GND};

/// The RC interconnect ladder of the Newton-kernel rows (n = 62 unknowns
/// at 60 stages).
fn build_rc_ladder(n: usize) -> spice::Circuit {
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

/// The MOS-loaded ladder of the Newton-kernel rows (n = 32 unknowns at 30
/// stages): its linearized MNA system is representative of the circuits
/// crate's testbenches (~2·n unknowns, MOSFET stamps).
fn build_mos_ladder(n: usize) -> spice::Circuit {
    let nmos = crate::bench_nmos();
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
/// frequency `omega` — the AC-sweep system of [`build_rc_ladder`].
///
/// # Panics
///
/// Panics on device kinds the helper does not model (MOSFETs need an
/// operating point; use the full `spice::ac` engine for those).
fn assemble_linear_small_signal(
    ckt: &spice::Circuit,
    omega: f64,
    gmin: f64,
) -> spice::stamp::ComplexStamper {
    use spice::stamp::ComplexStamper;
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

/// The CSC form of a row-major `n×n` complex system (the dense storage of
/// [`spice::stamp::DenseStamper`]).
fn complex_csc(a: &[C64], n: usize) -> CscComplexMatrix {
    let rows: Vec<Vec<C64>> = a.chunks(n).map(<[C64]>::to_vec).collect();
    CscComplexMatrix::from_dense_rows(&rows)
}

/// The spice-kernel rows: the sparse LU kernels the simulator runs, each
/// checked against the dense `linalg::reference` elimination before it
/// is timed, then whole analyses, testbench evaluations and the
/// closed-loop OTA transients.
pub fn spice_kernel_rows(c: &mut Criterion) {
    newton_kernel(c);
    ac_sweep_kernel(c);
    analyses(c);
    closed_loop_transient(c);
}

/// The DC Newton-solve kernel in isolation: the scan-free sparse
/// refactorization plus the triangular solves of the stamped MNA system,
/// on the 60-stage RC interconnect ladder (n = 62) and the 30-stage MOS
/// ladder (n = 32).
fn newton_kernel(c: &mut Criterion) {
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
        let csc = CscMatrix::from_dense(&Matrix::from_vec(n, n, st.a.clone()));

        // The kernel must agree with the dense reference before its time
        // means anything.
        {
            let expect = reference::solve(&st.a, n, &st.z).unwrap();
            let mut slu = SparseLu::new();
            slu.factor(&csc).unwrap();
            slu.refactor_into(&csc).unwrap();
            let mut xs = Vec::new();
            slu.solve_into(&st.z, &mut xs).unwrap();
            for (a, s) in expect.iter().zip(&xs) {
                assert!((a - s).abs() <= 1e-10 * a.abs().max(1.0), "sparse mismatch");
            }
        }

        // Steady-state sparse Newton iteration: the pattern and pivot
        // sequence are recorded (one `factor` in setup, as the engine does
        // once per solve session); each iteration then pays only the
        // scan-free numeric refactorization plus the triangular solves.
        c.bench_function(label, |b| {
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
}

/// The AC-sweep kernel in isolation: factor + solve of the small-signal
/// system `(G + jωC)·x = z` at all 26 points of a log sweep on the 60-stage
/// RC interconnect ladder (n = 62), on the sparse pattern-shared path the
/// AC engine runs — one pivoting factorization at the first point of the
/// sweep, then a scan-free refactorization per point. Assembly is excluded
/// from the loop, exactly like the DC Newton kernel above.
fn ac_sweep_kernel(c: &mut Criterion) {
    let ckt = build_rc_ladder(60);
    let n = ckt.num_unknowns();
    let opts = SimOptions::default();
    let freqs = spice::log_freqs(1e3, 1e8, 5); // 26 points
    assert!(freqs.len() >= 20, "sweep must cover ≥20 frequency points");
    let systems: Vec<(Vec<C64>, Vec<C64>)> = freqs
        .iter()
        .map(|&f| {
            let st = assemble_linear_small_signal(&ckt, 2.0 * std::f64::consts::PI * f, opts.gmin);
            (st.a, st.z)
        })
        .collect();
    let cscs: Vec<CscComplexMatrix> = systems.iter().map(|(a, _)| complex_csc(a, n)).collect();

    // The kernel and the full engine must agree with the dense reference
    // before the kernel's time means anything.
    {
        let op = spice::op(&ckt, &opts).unwrap();
        let sweep = spice::ac(&ckt, &opts, &op, &freqs).unwrap();
        let out = ckt.find_node("n59").unwrap();
        let mut slu = SparseComplexLu::new();
        slu.factor(&cscs[0]).unwrap();
        let mut xs = Vec::new();
        for (fi, ((a, z), csc)) in systems.iter().zip(&cscs).enumerate() {
            let xd = reference::solve(a, n, z).unwrap();
            slu.refactor_into(csc).unwrap();
            slu.solve_into(z, &mut xs).unwrap();
            for (d, s) in xd.iter().zip(&xs) {
                assert!(
                    (*d - *s).abs() <= 1e-10 * d.abs().max(1.0),
                    "kernel mismatch"
                );
            }
            let engine = sweep.voltage(fi, out);
            let kernel = xd[out - 1];
            assert!((engine - kernel).abs() <= 1e-10, "engine mismatch");
        }
    }

    c.bench_function("ac_sweep_kernel_sparse_n62", |b| {
        let mut slu = SparseComplexLu::new();
        slu.factor(&cscs[0]).unwrap();
        let mut x = Vec::new();
        b.iter(|| {
            // Engine rhythm: the first point of each sweep re-derives the
            // pivot sequence; every later point replays it scan-free.
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

/// Whole analyses on the ladders, and one complete testbench evaluation
/// of the OTA (with the telemetry plane off and hot) and of the latch.
fn analyses(c: &mut Criterion) {
    let opts = SimOptions::default();

    c.bench_function("dc_op_mos_ladder_30", |b| {
        let ckt = build_mos_ladder(30);
        b.iter(|| spice::op(&ckt, &opts).unwrap())
    });

    c.bench_function("dc_op_rc_ladder_30", |b| {
        let ckt = build_rc_ladder(30);
        b.iter(|| spice::op(&ckt, &opts).unwrap())
    });

    c.bench_function("ac_sweep_rc_ladder_30_x25", |b| {
        let ckt = build_rc_ladder(30);
        let op = spice::op(&ckt, &opts).unwrap();
        let freqs = spice::log_freqs(1e3, 1e8, 5);
        b.iter(|| spice::ac(&ckt, &opts, &op, &freqs).unwrap())
    });

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
    let x = latch.nominal();
    c.bench_function("latch_full_evaluation", |b| b.iter(|| latch.evaluate(&x)));
}

/// One closed-loop OTA step transient (op + 400 ns at a 0.5 ns base
/// step) on a pooled workspace, pre-layout (n = 32) and post-layout
/// (n = 256, parasitic RC ladders on every node): the per-timestep
/// Newton replay — constant restamp, MOS linearization, scalar sparse
/// refactor and solve — that dominates the sizing runs' simulator time.
fn closed_loop_transient(c: &mut Criterion) {
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
}

/// The stamped DC matrix of the post-layout RC mesh
/// ([`circuits::mesh::build_rc_grid`]) at `n` unknowns.
fn mesh_dc_system(n: usize) -> CscMatrix {
    let ckt = circuits::mesh::build_rc_grid(n);
    let mut st = RealStamper::new(&ckt);
    let x0 = vec![0.0; n];
    st.clear();
    st.load_gmin(1e-12);
    stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);
    CscMatrix::from_dense(&Matrix::from_vec(n, n, st.a))
}

/// The assembled complex AC matrices `G + jωC` of the post-layout
/// RC mesh ([`circuits::mesh::build_rc_grid`]) at `n` unknowns, one per
/// point of a one-point-per-decade 1 MHz–1 GHz sweep.
fn mesh_ac_systems(n: usize) -> Vec<CscComplexMatrix> {
    let ckt = circuits::mesh::build_rc_grid(n);
    let gmin = SimOptions::default().gmin;
    spice::log_freqs(1e6, 1e9, 1)
        .iter()
        .map(|&f| {
            let st = assemble_linear_small_signal(&ckt, 2.0 * std::f64::consts::PI * f, gmin);
            complex_csc(&st.a, n)
        })
        .collect()
}

/// The post-layout-scale sparse LU rows: one scan-free numeric
/// factorization of the parasitic RC-mesh system per iteration
/// (`newton_dc_kernel_mesh_n*_scalar`), and one scan-free replay of every
/// `G + jωC` point of the mesh AC sweep (`ac_sweep_kernel_mesh_n*_scalar`),
/// at n = 200 / 500 / 1000.
pub fn sparse_scaling_rows(c: &mut Criterion) {
    for n in [200usize, 500, 1000] {
        let csc = mesh_dc_system(n);
        c.bench_function(&format!("newton_dc_kernel_mesh_n{n}_scalar"), |b| {
            let mut slu = SparseLu::new();
            slu.factor(&csc).unwrap();
            b.iter(|| {
                slu.refactor_into(black_box(&csc)).unwrap();
            })
        });
    }
    for n in [200usize, 500, 1000] {
        let systems = mesh_ac_systems(n);
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
}

/// One `(label, m, n, k, (op_a, op_b))` GEMM bench shape.
type GemmShape = (&'static str, usize, usize, usize, (GemmOp, GemmOp));

const NN: (GemmOp, GemmOp) = (GemmOp::NoTrans, GemmOp::NoTrans);
const NT: (GemmOp, GemmOp) = (GemmOp::NoTrans, GemmOp::Trans);
const TN: (GemmOp, GemmOp) = (GemmOp::Trans, GemmOp::NoTrans);

/// Naive-vs-`gemm` shapes: the critic's batch-128 forward (`x·Wᵀ`), its
/// weight gradient (`δᵀ·x`), the actor's elite-batch shapes, and a
/// panel-spanning square product.
const GEMM_KERNEL_SHAPES: [GemmShape; 5] = [
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
const CRITIC_STEP_SHAPES: [GemmShape; 8] = [
    ("128x48x40_nt", 128, 48, 40, NT),
    ("128x48x48_nt", 128, 48, 48, NT),
    ("128x30x48_nt", 128, 30, 48, NT),
    ("30x48x128_tn", 30, 48, 128, TN),
    ("128x48x30_nn", 128, 48, 30, NN),
    ("48x48x128_tn", 48, 48, 128, TN),
    ("128x48x48_nn", 128, 48, 48, NN),
    ("48x40x128_tn", 48, 40, 128, TN),
];

/// The GEMM-engine rows: `gemm_kernel_naive_*` (the reference triple
/// loop) and `gemm_kernel_tiled_*` (the `gemm` entry point: its register
/// tiles on the lane backend the host selects) on the naive-vs-`gemm`
/// shapes, then `gemm_kernel_critic_*` (the `gemm` entry point) on the
/// eight products of one critic training step.
pub fn gemm_kernel_rows(c: &mut Criterion) {
    use linalg::{gemm, gemm_naive, GemmWorkspace};
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
    let entry = |c: &mut Criterion, name: &str, (op_a, op_b), a: &Matrix, b: &Matrix| {
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

/// The surrogate-model rows: one MSE gradient step, one critic and one
/// actor training pass, one GP fit and one GP prediction — the
/// per-iteration "modeling time" ingredients of the paper's runtime
/// tables.
pub fn model_kernel_rows(c: &mut Criterion) {
    train_step(c);
    models(c);
}

/// One MSE gradient step, allocating path vs preallocated workspace path:
/// the kernel repeated `critic_epochs + actor_epochs` times per DNN-Opt
/// iteration. Both rows start a fresh network and optimizer every
/// `critic_epochs` steps, as DNN-Opt trains a fresh critic per iteration:
/// one longer Adam run decays its moments into subnormals, and the rows
/// would then mostly time subnormal arithmetic that DNN-Opt never runs.
fn train_step(c: &mut Criterion) {
    use dnn_opt::DnnOptConfig;
    use nn::{Activation, Adam, Mlp, TrainWorkspace};
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
}

fn models(c: &mut Criterion) {
    use dnn_opt::{Actor, Critic, DnnOptConfig};
    use gp::{GpRegressor, RbfKernel};
    let mut rng = StdRng::seed_from_u64(0);
    let xs: Vec<Vec<f64>> = (0..150)
        .map(|_| (0..20).map(|_| rng.gen()).collect())
        .collect();
    let fs: Vec<Vec<f64>> = xs
        .iter()
        .map(|x| {
            (0..30)
                .map(|k| x.iter().map(|v| (v - 0.1 * k as f64).powi(2)).sum::<f64>())
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

    c.bench_function("gp_fit_n200_d20", |b| {
        let x = Matrix::from_fn(200, 20, |_, _| rng.gen());
        let y: Vec<f64> = (0..200).map(|_| rng.gen()).collect();
        b.iter(|| {
            GpRegressor::fit(
                x.clone(),
                y.clone(),
                RbfKernel::isotropic(20, 0.5, 1.0),
                1e-6,
            )
            .unwrap()
        })
    });

    c.bench_function("gp_predict_n200", |b| {
        let x = Matrix::from_fn(200, 20, |_, _| rng.gen());
        let y: Vec<f64> = (0..200).map(|_| rng.gen()).collect();
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(20, 0.5, 1.0), 1e-6).unwrap();
        let q: Vec<f64> = (0..20).map(|_| rng.gen()).collect();
        b.iter(|| gp.predict(&q))
    });
}

/// `count` candidates around `problem`'s nominal design: candidate `i`
/// moves every variable by `t·(ub − lb)`, with `t` evenly spaced over
/// `±spread/2`, clamped to the bounds.
fn population(problem: &dyn SizingProblem, count: usize, spread: f64) -> Vec<Vec<f64>> {
    let nominal = problem.nominal();
    let (lb, ub) = problem.bounds();
    (0..count)
        .map(|i| {
            let t = (i as f64 / (count - 1) as f64 - 0.5) * spread;
            nominal
                .iter()
                .zip(lb.iter().zip(&ub))
                .map(|(&v, (&l, &u))| (v + t * (u - l)).clamp(l, u))
                .collect()
        })
        .collect()
}

/// One `evaluate_batch` row of `pop` at `threads` grid workers (0 =
/// the default cap).
fn batch_row(
    c: &mut Criterion,
    name: &str,
    problem: &dyn SizingProblem,
    pop: &[Vec<f64>],
    threads: usize,
) {
    let fom = Fom::uniform(1.0, problem.num_constraints());
    c.bench_function(name, |b| {
        parallel::set_max_threads(threads);
        b.iter(|| {
            let mut ev = Evaluator::new(problem, &fom, pop.len());
            black_box(ev.evaluate_batch(pop).len())
        });
        parallel::set_max_threads(0);
    });
}

/// The PVT corner-sweep rows: one candidate through the OTA's
/// nominal-only plane, its standard 5-corner sign-off plane and the level
/// shifter's six-supply-corner plane, then a 4-candidate level-shifter
/// population through the candidate×corner unit grid, serial vs parallel.
pub fn corner_eval_rows(c: &mut Criterion) {
    use circuits::tech::CornerSet;
    use circuits::{FoldedCascodeOta, LevelShifter};
    let ota = FoldedCascodeOta::new();
    let x = ota.nominal();
    c.bench_function("ota_corner_eval_1c", |b| {
        b.iter(|| black_box(ota.evaluate(black_box(&x))).objective)
    });
    let ota5 = FoldedCascodeOta::with_corners(CornerSet::pvt5());
    let x5 = ota5.nominal();
    c.bench_function("ota_corner_eval_5c", |b| {
        b.iter(|| black_box(ota5.evaluate(black_box(&x5))).objective)
    });
    let ls = LevelShifter::new();
    let xls = SizingProblem::nominal(&ls);
    c.bench_function("level_shifter_corner_eval_6c", |b| {
        b.iter(|| black_box(ls.evaluate(black_box(&xls))).objective)
    });

    let pop = population(&ls, 4, 0.05);
    batch_row(c, "corner_grid_4x6_level_shifter_serial", &ls, &pop, 1);
    batch_row(c, "corner_grid_4x6_level_shifter_parallel", &ls, &pop, 0);
}

/// The 16-candidate OTA population through the candidate×corner×analysis
/// grid: one worker (`_serial`), the default cap (`_parallel`) and fixed
/// worker counts (`_t1` … `_t8`).
pub fn parallel_scaling_rows(c: &mut Criterion) {
    let ota = circuits::FoldedCascodeOta::new();
    let pop = population(&ota, 16, 0.1);
    for (suffix, threads) in [
        ("serial", 1),
        ("parallel", 0),
        ("t1", 1),
        ("t2", 2),
        ("t4", 4),
        ("t8", 8),
    ] {
        let name = format!("population_eval_16_ota_{suffix}");
        batch_row(c, &name, &ota, &pop, threads);
    }
}
