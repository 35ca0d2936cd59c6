//! Criterion micro-benchmarks of the simulator substrate: the per-analysis
//! costs that make one "SPICE simulation" expensive, plus the sparse LU
//! the simulator runs against two dense-LU reference rows — the seed's
//! allocating elimination and the reusable `linalg::Lu` workspace —
//! (`BENCH_baseline.json` records the reference numbers).

use bench::{assemble_linear_small_signal, build_mos_ladder, build_rc_ladder, complex_csc};
use circuits::{FoldedCascodeOta, StrongArmLatch};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use linalg::{ComplexLu, CscComplexMatrix, CscMatrix, Lu, Matrix, SparseComplexLu, SparseLu, C64};
use opt::SizingProblem;
use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};
use spice::SimOptions;

/// Verbatim copy of the seed's LU factor + solve (index-op elimination, a
/// fresh matrix clone and solution vector per call). The live dense LU
/// only has the reusable-storage form, so the historical allocating
/// baseline is preserved here for the before/after comparison that
/// `BENCH_baseline.json` records.
mod seed_baseline {
    use linalg::Matrix;

    pub struct SeedLu {
        lu: Matrix,
        perm: Vec<usize>,
    }

    /// Factors the row-major `n×n` matrix `a` (copied, as the seed did).
    pub fn factor(a: &[f64], n: usize) -> SeedLu {
        let mut lu = Matrix::from_vec(n, n, a.to_vec());
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            let mut p = k;
            let mut max = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            assert!(max > 1e-300, "singular");
            if p != k {
                perm.swap(p, k);
                for j in 0..n {
                    let t = lu[(p, j)];
                    lu[(p, j)] = lu[(k, j)];
                    lu[(k, j)] = t;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[(k, j)];
                        lu[(i, j)] -= m * u;
                    }
                }
            }
        }
        SeedLu { lu, perm }
    }

    impl SeedLu {
        pub fn solve(&self, b: &[f64]) -> Vec<f64> {
            let n = self.lu.rows();
            let mut x: Vec<f64> = self.perm.iter().map(|&i| b[i]).collect();
            for i in 1..n {
                let mut s = x[i];
                for j in 0..i {
                    s -= self.lu[(i, j)] * x[j];
                }
                x[i] = s;
            }
            for i in (0..n).rev() {
                let mut s = x[i];
                for j in (i + 1)..n {
                    s -= self.lu[(i, j)] * x[j];
                }
                x[i] = s / self.lu[(i, i)];
            }
            x
        }
    }
}

/// The DC Newton-solve kernel in isolation: factor + solve of the stamped
/// MNA system. The simulator's kernel is the sparse refactorization
/// (`_sparse_`); the seed's allocating dense LU (`_alloc_`) and the
/// reusable `linalg::Lu` (`_workspace_`) are dense-LU reference rows. Run
/// on the 60-stage RC interconnect ladder (n = 62) and the 30-stage MOS
/// ladder (n = 32).
fn bench_newton_kernel(c: &mut Criterion) {
    for (label_seed, label_ws, label_sparse, ckt, x_guess) in [
        (
            "newton_dc_kernel_alloc_n62",
            "newton_dc_kernel_workspace_n62",
            "newton_dc_kernel_sparse_n62",
            build_rc_ladder(60),
            0.0,
        ),
        (
            "newton_dc_kernel_alloc_n32",
            "newton_dc_kernel_workspace_n32",
            "newton_dc_kernel_sparse_n32",
            build_mos_ladder(30),
            0.4,
        ),
    ] {
        let n = ckt.num_unknowns();
        let mut st = RealStamper::new(&ckt);
        let x0 = vec![x_guess; n];
        st.clear();
        st.load_gmin(1e-12);
        stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);

        // All three kernels must agree before their times mean anything.
        {
            let expect = seed_baseline::factor(&st.a, n).solve(&st.z);
            let mut lu = Lu::new(n);
            lu.factor(st.a.as_slice(), n).unwrap();
            let mut x = Vec::new();
            lu.solve_into(&st.z, &mut x).unwrap();
            let csc = CscMatrix::from_dense(&Matrix::from_vec(n, n, st.a.clone()));
            let mut slu = SparseLu::new();
            slu.factor(&csc).unwrap();
            slu.refactor_into(&csc).unwrap();
            let mut xs = Vec::new();
            slu.solve_into(&st.z, &mut xs).unwrap();
            for ((a, b), s) in expect.iter().zip(&x).zip(&xs) {
                assert!((a - b).abs() <= 1e-10 * a.abs().max(1.0), "kernel mismatch");
                assert!((a - s).abs() <= 1e-10 * a.abs().max(1.0), "sparse mismatch");
            }
        }

        c.bench_function(label_seed, |b| {
            b.iter(|| {
                let lu = seed_baseline::factor(black_box(&st.a), n);
                black_box(lu.solve(&st.z))
            })
        });

        c.bench_function(label_ws, |b| {
            let mut lu = Lu::new(n);
            let mut x = vec![0.0; n];
            b.iter(|| {
                lu.factor(black_box(st.a.as_slice()), n).unwrap();
                lu.solve_into(&st.z, &mut x).unwrap();
                black_box(x[0])
            })
        });

        // Steady-state sparse Newton iteration: the pattern and pivot
        // sequence are recorded (one `factor` in setup, as the engine does
        // once per solve session); each iteration then pays only the
        // scan-free numeric refactorization plus the triangular solves —
        // the apples-to-apples comparison with the dense `_workspace_`
        // kernel above, which also re-factors the same values per
        // iteration.
        c.bench_function(label_sparse, |b| {
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

    // The same dense-LU reference rows over a *complete* NR iteration
    // (dense assembly included): the seed's allocating path vs. the
    // reusable `linalg::Lu` factoring the stamped matrix in place (it
    // takes the stamper's storage, which the isolated kernel above cannot
    // express).
    let ckt = build_mos_ladder(30);
    let n = ckt.num_unknowns();
    let x0 = vec![0.4; n];
    c.bench_function("newton_dc_iteration_alloc_n32", |b| {
        let mut st = RealStamper::new(&ckt);
        b.iter(|| {
            st.clear();
            st.load_gmin(1e-12);
            black_box(spice::stamp::stamp_resistive(
                &ckt,
                &x0,
                SourceEval::Dc { scale: 1.0 },
                &mut st,
            ));
            let lu = seed_baseline::factor(&st.a, n);
            black_box(lu.solve(&st.z))
        })
    });

    c.bench_function("newton_dc_iteration_workspace_n32", |b| {
        let mut st = RealStamper::new(&ckt);
        let mut lu = Lu::new(n);
        let mut x = vec![0.0; n];
        b.iter(|| {
            st.clear();
            st.load_gmin(1e-12);
            stamp_resistive_system(&ckt, &x0, SourceEval::Dc { scale: 1.0 }, &mut st);
            lu.factor_in_place(&mut st.a, n).unwrap();
            lu.solve_into(&st.z, &mut x).unwrap();
            black_box(x[0])
        })
    });
}

/// The AC-sweep kernel in isolation: factor + solve of the small-signal
/// system `(G + jωC)·x = z` at all 26 points of a log sweep on the 60-stage
/// RC interconnect ladder (n = 62): the sparse pattern-shared path the AC
/// engine runs — one pivoting factorization at the first point of the
/// sweep, then a scan-free refactorization per point — against a dense
/// per-point `linalg::ComplexLu` reference row. Assembly is excluded from
/// both loops, exactly like the DC Newton kernels above.
fn bench_ac_sweep_kernel(c: &mut Criterion) {
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

    // All kernels (and the full engine) must agree before their times mean
    // anything.
    {
        let op = spice::op(&ckt, &opts).unwrap();
        let sweep = spice::ac(&ckt, &opts, &op, &freqs).unwrap();
        let out = ckt.find_node("n59").unwrap();
        let mut lu = ComplexLu::new(n);
        let mut slu = SparseComplexLu::new();
        slu.factor(&cscs[0]).unwrap();
        let (mut xd, mut xs) = (Vec::new(), Vec::new());
        for (fi, ((a, z), csc)) in systems.iter().zip(&cscs).enumerate() {
            lu.factor(a, n).unwrap();
            lu.solve_into(z, &mut xd).unwrap();
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

    c.bench_function("ac_sweep_kernel_dense_n62", |b| {
        let mut lu = ComplexLu::new(n);
        let mut x = Vec::new();
        b.iter(|| {
            for (a, z) in &systems {
                lu.factor(black_box(a), n).unwrap();
                lu.solve_into(z, &mut x).unwrap();
            }
            black_box(x[0])
        })
    });

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

fn bench_spice(c: &mut Criterion) {
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

    c.bench_function("ota_full_evaluation", |b| {
        let ota = FoldedCascodeOta::new();
        let x = ota.nominal();
        b.iter(|| ota.evaluate(&x))
    });

    c.bench_function("latch_full_evaluation", |b| {
        let latch = StrongArmLatch::new();
        let x = latch.nominal();
        b.iter(|| latch.evaluate(&x))
    });
}

/// One closed-loop OTA step transient (op + 400 ns at a 0.5 ns base
/// step) on a pooled workspace, pre-layout (n = 32) and post-layout
/// (n = 256, parasitic RC ladders on every node): the per-timestep
/// Newton replay — constant restamp, MOS linearization, scalar sparse
/// refactor and solve — that dominates the sizing runs' simulator time.
fn bench_closed_loop_transient(c: &mut Criterion) {
    for (label, ota) in [
        ("ota_closed_loop_tran_n32", FoldedCascodeOta::new()),
        (
            "ota_closed_loop_tran_postlayout_n256",
            FoldedCascodeOta::post_layout(),
        ),
    ] {
        let x = ota.nominal();
        c.bench_function(label, |b| {
            b.iter(|| ota.closed_loop_transient(black_box(&x)).unwrap().len())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_newton_kernel, bench_ac_sweep_kernel, bench_spice, bench_closed_loop_transient
}
criterion_main!(benches);
