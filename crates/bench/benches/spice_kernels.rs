//! Criterion micro-benchmarks of the simulator substrate: the per-analysis
//! costs that make one "SPICE simulation" expensive, and the sparse LU
//! kernels the simulator runs, each checked against the dense
//! `linalg::reference` elimination before it is timed
//! (`BENCH_baseline.json` records the numbers).

use bench::{assemble_linear_small_signal, build_mos_ladder, build_rc_ladder, complex_csc};
use circuits::{FoldedCascodeOta, StrongArmLatch};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use linalg::{reference, CscComplexMatrix, CscMatrix, Matrix, SparseComplexLu, SparseLu, C64};
use opt::SizingProblem;
use spice::stamp::{stamp_resistive_system, RealStamper, SourceEval, Stamp};
use spice::SimOptions;

/// The DC Newton-solve kernel in isolation: the scan-free sparse
/// refactorization plus the triangular solves of the stamped MNA system,
/// on the 60-stage RC interconnect ladder (n = 62) and the 30-stage MOS
/// ladder (n = 32).
fn bench_newton_kernel(c: &mut Criterion) {
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
