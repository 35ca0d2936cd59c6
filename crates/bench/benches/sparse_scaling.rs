//! Criterion benchmarks of the post-layout-scale sparse engine: scalar
//! Gilbert–Peierls refactorization vs the supernodal GEMM-blocked path on
//! extraction-style RC meshes (`circuits::mesh::build_rc_grid`) at
//! n = 200 / 500 / 1000 unknowns. Each iteration is one scan-free numeric
//! factorization — exactly what the simulator pays per Newton step once
//! the pivot sequence is recorded (the triangular solves are identical on
//! both paths and timed elsewhere). The complex rows replay every
//! `G + jωC` point of the mesh AC sweep. Both replays are serial; the
//! evaluation grid runs many of them at once. `BENCH_baseline.json`
//! records the reference numbers (acceptance targets: real supernodal
//! ≥2× and complex supernodal ≥1.8× at n ≥ 500).

use bench::{mesh_ac_systems, mesh_dc_system};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use linalg::{SparseComplexLu, SparseLu, SupernodalMode};

fn bench_sparse_scaling(c: &mut Criterion) {
    for n in [200usize, 500, 1000] {
        let (csc, z) = mesh_dc_system(n);

        // Both kernels must agree before their times mean anything, and
        // the blocked path must actually be exercising dense panels.
        {
            let mut scalar = SparseLu::new();
            scalar.set_supernodal_mode(SupernodalMode::ForceScalar);
            scalar.factor(&csc).unwrap();
            let mut xs = Vec::new();
            scalar.solve_into(&z, &mut xs).unwrap();
            let mut blocked = SparseLu::new();
            blocked.set_supernodal_mode(SupernodalMode::ForceBlocked);
            blocked.factor(&csc).unwrap();
            assert!(blocked.supernodal_active(), "blocked path not engaged");
            assert!(
                blocked.wide_supernodes() > 0,
                "mesh produced no dense panels"
            );
            let mut xb = Vec::new();
            blocked.solve_into(&z, &mut xb).unwrap();
            for (a, b) in xs.iter().zip(&xb) {
                assert!((a - b).abs() <= 1e-10 * a.abs().max(1.0), "kernel mismatch");
            }
        }

        for (suffix, mode) in [
            ("scalar", SupernodalMode::ForceScalar),
            ("supernodal", SupernodalMode::ForceBlocked),
        ] {
            c.bench_function(&format!("newton_dc_kernel_mesh_n{n}_{suffix}"), |b| {
                let mut slu = SparseLu::new();
                slu.set_supernodal_mode(mode);
                slu.factor(&csc).unwrap();
                b.iter(|| {
                    slu.refactor_into(black_box(&csc)).unwrap();
                })
            });
        }
    }
}

fn bench_ac_mesh_scaling(c: &mut Criterion) {
    for n in [200usize, 500, 1000] {
        let systems = mesh_ac_systems(n);

        // The complex kernels must agree before their times mean anything.
        {
            let (csc, z) = &systems[0];
            let mut scalar = SparseComplexLu::new();
            scalar.set_supernodal_mode(SupernodalMode::ForceScalar);
            scalar.factor(csc).unwrap();
            let mut xs = Vec::new();
            scalar.solve_into(z, &mut xs).unwrap();
            let mut blocked = SparseComplexLu::new();
            blocked.set_supernodal_mode(SupernodalMode::ForceBlocked);
            blocked.factor(csc).unwrap();
            assert!(blocked.supernodal_active(), "blocked path not engaged");
            let mut xb = Vec::new();
            blocked.solve_into(z, &mut xb).unwrap();
            for (a, b) in xs.iter().zip(&xb) {
                assert!(
                    (*a - *b).abs() <= 1e-10 * a.abs().max(1.0),
                    "complex kernel mismatch"
                );
            }
        }

        for (suffix, mode) in [
            ("scalar", SupernodalMode::ForceScalar),
            ("supernodal", SupernodalMode::ForceBlocked),
        ] {
            c.bench_function(&format!("ac_sweep_kernel_mesh_n{n}_{suffix}"), |b| {
                let mut slu = SparseComplexLu::new();
                slu.set_supernodal_mode(mode);
                slu.factor(&systems[0].0).unwrap();
                b.iter(|| {
                    for (csc, _) in &systems {
                        slu.refactor_into(black_box(csc)).unwrap();
                    }
                })
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sparse_scaling, bench_ac_mesh_scaling
}
criterion_main!(benches);
