//! Criterion benchmarks of the sparse LU at post-layout scale: the scalar
//! Gilbert–Peierls refactorization on extraction-style RC meshes
//! (`circuits::mesh::build_rc_grid`) at n = 200 / 500 / 1000 unknowns.
//! Each iteration is one scan-free numeric factorization — exactly what
//! the simulator pays per Newton step once the pivot sequence is recorded
//! (the triangular solves are timed elsewhere). The complex rows replay
//! every `G + jωC` point of the mesh AC sweep. The replay is serial; the
//! evaluation grid runs many of them at once. `BENCH_baseline.json`
//! records the reference numbers.

use bench::{mesh_ac_systems, mesh_dc_system};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use linalg::{SparseComplexLu, SparseLu};

fn bench_sparse_scaling(c: &mut Criterion) {
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
}

fn bench_ac_mesh_scaling(c: &mut Criterion) {
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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sparse_scaling, bench_ac_mesh_scaling
}
criterion_main!(benches);
