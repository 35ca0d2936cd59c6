//! Property-based tests on the factorization kernels.

use linalg::{
    gemm, gemm_naive, gemm_with, Cholesky, ComplexLu, CscComplexMatrix, CscMatrix, Epilogue,
    FactorError, GemmOp, GemmWorkspace, Lu, Matrix, SparseComplexLu, SparseLu, C64,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// A post-layout-style grid conductance matrix: a `rows`×`cols` mesh with
/// nearest-neighbor, diagonal, and pitch-2 coupling conductances jittered
/// from the seed stream, plus a unit-order ground conductance on every
/// node. The ground term keeps the matrix diagonally dominant by a margin
/// far above the value perturbations the tests apply, so the partial
/// pivot search always lands on the diagonal — a prerequisite for the
/// bit-identity test below, which compares factorizations of *different*
/// values on the same pattern. This is the post-layout workload class: its
/// factor fills into dense trailing blocks.
fn mesh_matrix(rows: usize, cols: usize, seed: &[f64]) -> Matrix {
    fn couple(dense: &mut Matrix, a: usize, b: usize, g: f64) {
        dense[(a, b)] -= g;
        dense[(b, a)] -= g;
        dense[(a, a)] += g;
        dense[(b, b)] += g;
    }
    let n = rows * cols;
    let mut dense = Matrix::zeros(n, n);
    let jit = |k: usize| 0.5 + 0.45 * seed[k % seed.len()].abs();
    for r in 0..rows {
        for c in 0..cols {
            let k = r * cols + c;
            dense[(k, k)] += 2.0 + jit(7 * k);
            let steps: [(usize, bool, f64); 6] = [
                (1, c + 1 < cols, 1.0),
                (cols, true, 1.0),
                (cols + 1, c + 1 < cols, 0.5),
                (2, c + 2 < cols, 0.25),
                (2 * cols, true, 0.25),
                (2 * cols + 2, c + 2 < cols, 0.2),
            ];
            for (j, &(st, ok, g0)) in steps.iter().enumerate() {
                if ok && k + st < n {
                    couple(&mut dense, k, k + st, g0 * jit(6 * k + j));
                }
            }
        }
    }
    dense
}

/// Random diagonally dominant matrix (guaranteed non-singular).
fn dominant_matrix(n: usize, seed: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = seed[(i * n + j) % seed.len()];
        if i == j {
            n as f64 + 1.0 + v.abs()
        } else {
            v
        }
    })
}

/// Random *sparse* well-conditioned `G + jωC`-shaped complex system: a
/// strongly dominant real diagonal plus an `ω`-scaled imaginary part, with
/// sparse off-diagonals (~25% fill). The pattern depends only on the seed,
/// never on `ω` — the AC-sweep invariant the sparse complex kernel relies
/// on.
fn sparse_ac_matrix(n: usize, omega: f64, seed: &[f64]) -> Vec<Vec<C64>> {
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    let v = seed[(i * n + j) % seed.len()];
                    let w = seed[(i + j * n + 11) % seed.len()];
                    if i == j {
                        C64::new(n as f64 + 1.0 + v.abs(), omega * (0.1 + w.abs()))
                    } else if ((v * 100.0).abs() as usize).is_multiple_of(4) {
                        C64::new(v * 0.3, omega * w * 0.1)
                    } else {
                        C64::ZERO
                    }
                })
                .collect()
        })
        .collect()
}

fn complex_rhs(n: usize, seed: &[f64]) -> Vec<C64> {
    (0..n)
        .map(|i| C64::new(seed[i % seed.len()], seed[(i + 5) % seed.len()]))
        .collect()
}

/// Random *sparse* diagonally dominant matrix: each off-diagonal entry
/// exists only when the seed stream says so (~25% fill).
fn sparse_dominant_matrix(n: usize, seed: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = seed[(i * n + j) % seed.len()];
        if i == j {
            n as f64 + 1.0 + v.abs()
        } else if ((v * 100.0).abs() as usize).is_multiple_of(4) {
            v
        } else {
            0.0
        }
    })
}

/// Random diagonally dominant matrix on a random pattern: each
/// off-diagonal entry exists with probability about `1 / sparsity`.
fn random_pattern_matrix(n: usize, seed: &[f64], sparsity: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        let v = seed[(i * n + j) % seed.len()];
        if i == j {
            n as f64 + 1.0 + v.abs()
        } else if ((v * 1000.0).abs() as usize + i).is_multiple_of(sparsity) {
            v
        } else {
            0.0
        }
    })
}

/// Column start offsets of `CscMatrix::from_dense(dense)`, which stores
/// exactly the nonzeros, column by column.
fn csc_col_ptr(dense: &Matrix) -> Vec<usize> {
    let n = dense.cols();
    let mut col_ptr = vec![0];
    for c in 0..n {
        let nnz = (0..dense.rows()).filter(|&r| dense[(r, c)] != 0.0).count();
        col_ptr.push(col_ptr[c] + nnz);
    }
    col_ptr
}

/// Asserts two sparse factorizations hold the same `L`, `U` and
/// reciprocal-pivot bits.
fn assert_same_factor_bits(a: &SparseLu, b: &SparseLu) -> Result<(), TestCaseError> {
    let (la, ua, da) = a.factor_values();
    let (lb, ub, db) = b.factor_values();
    for (x, y) in [(la, lb), (ua, ub), (da, db)] {
        prop_assert_eq!(x.len(), y.len());
        for (v, w) in x.iter().zip(y) {
            prop_assert_eq!(v.to_bits(), w.to_bits());
        }
    }
    Ok(())
}

/// Factors a square real matrix with the dense LU.
fn dense_lu(a: &Matrix) -> Result<Lu, FactorError> {
    let mut lu = Lu::new(a.rows());
    lu.factor(a.as_slice(), a.rows())?;
    Ok(lu)
}

/// Solves with a factored dense LU into a fresh vector.
fn lu_solve(lu: &Lu, b: &[f64]) -> Vec<f64> {
    let mut x = Vec::new();
    lu.solve_into(b, &mut x).unwrap();
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// LU solve residual is tiny for diagonally dominant systems.
    #[test]
    fn lu_solves_dominant_systems(
        n in 1usize..12,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..200),
        rhs in proptest::collection::vec(-10.0..10.0f64, 12),
    ) {
        let a = dominant_matrix(n, &seed);
        let b = &rhs[..n];
        let x = lu_solve(&dense_lu(&a).unwrap(), b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(b) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }

    /// The buffer-donating entry point factors bit-identically to the
    /// copying one (they share the elimination).
    #[test]
    fn lu_factor_in_place_agrees_with_factor(
        n in 1usize..12,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..200),
        rhs in proptest::collection::vec(-10.0..10.0f64, 12),
    ) {
        let a = dominant_matrix(n, &seed);
        let b = &rhs[..n];
        let x_copied = lu_solve(&dense_lu(&a).unwrap(), b);
        let mut lu = Lu::new(n);
        lu.factor_in_place(&mut a.clone().into_vec(), n).unwrap();
        prop_assert_eq!(lu_solve(&lu, b), x_copied);
    }

    /// Reuse across differently sized systems stays correct, for both
    /// scalars: each size factors a real system and a complex `G + jωC`
    /// one into the same two factor stores.
    #[test]
    fn lu_workspace_reuse_is_sound(
        sizes in proptest::collection::vec(1usize..10, 2..6),
        seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
    ) {
        let mut lu = Lu::new(1);
        let mut clu = ComplexLu::new(1);
        let (mut x, mut z) = (Vec::new(), Vec::new());
        for &n in &sizes {
            let a = dominant_matrix(n, &seed);
            let b: Vec<f64> = (0..n).map(|i| seed[i % seed.len()] * 3.0).collect();
            lu.factor(a.as_slice(), n).unwrap();
            lu.solve_into(&b, &mut x).unwrap();
            let r = a.matvec(&x);
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8);
            }
            let ac = sparse_ac_matrix(n, 1.5, &seed);
            let bc = complex_rhs(n, &seed);
            clu.factor(&ac.concat(), n).unwrap();
            clu.solve_into(&bc, &mut z).unwrap();
            for (row, bi) in ac.iter().zip(&bc) {
                let s = row.iter().zip(&z).fold(C64::ZERO, |s, (&aij, &zj)| s + aij * zj);
                prop_assert!((s - *bi).abs() < 1e-8);
            }
        }
    }

    /// det(A·A) = det(A)² through the LU determinant.
    #[test]
    fn lu_det_is_multiplicative(
        n in 1usize..6,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..80),
    ) {
        let a = dominant_matrix(n, &seed);
        let aa = a.matmul(&a);
        let da = dense_lu(&a).unwrap().det();
        let daa = dense_lu(&aa).unwrap().det();
        prop_assert!((daa - da * da).abs() < 1e-6 * da.abs().max(1.0) * da.abs().max(1.0));
    }

    /// Cholesky of GᵀG + I always succeeds and solves correctly.
    #[test]
    fn cholesky_solves_gram_systems(
        n in 1usize..10,
        seed in proptest::collection::vec(-2.0..2.0f64, 16..150),
        rhs in proptest::collection::vec(-5.0..5.0f64, 10),
    ) {
        let g = Matrix::from_fn(n, n, |i, j| seed[(i * n + j) % seed.len()]);
        let mut a = g.transpose().matmul(&g);
        for i in 0..n {
            a[(i, i)] += 1.0;
        }
        let b = &rhs[..n];
        let mut ch = Cholesky::new(n);
        ch.factor(&a).unwrap();
        let mut x = Vec::new();
        ch.solve_into(b, &mut x).unwrap();
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(b) {
            prop_assert!((ri - bi).abs() < 1e-7);
        }
        // log|A| finite and consistent with the LU determinant.
        let det_lu = dense_lu(&a).unwrap().det();
        prop_assert!((ch.log_det() - det_lu.ln()).abs() < 1e-6);
    }

    /// Matrix transpose is an involution and matmul distributes over it.
    #[test]
    fn transpose_involution(
        rows in 1usize..8,
        cols in 1usize..8,
        seed in proptest::collection::vec(-3.0..3.0f64, 64),
    ) {
        let a = Matrix::from_fn(rows, cols, |i, j| seed[(i * cols + j) % seed.len()]);
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        // (A·Aᵀ)ᵀ = A·Aᵀ (symmetry of Gram matrices).
        let g = a.matmul(&a.transpose());
        let gt = g.transpose();
        prop_assert!((&g - &gt).max_abs() < 1e-12);
    }

    /// The sparse `refactor_into` path agrees with the dense
    /// `Lu::factor` path within 1e-10 on random sparse systems — the
    /// dense reference the simulator's sparse kernel is held to.
    #[test]
    fn sparse_refactor_agrees_with_dense_factor(
        n in 1usize..14,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
        shift in proptest::collection::vec(-0.4..0.4f64, 16..250),
        rhs in proptest::collection::vec(-10.0..10.0f64, 14),
    ) {
        let dense0 = sparse_dominant_matrix(n, &seed);
        let b = &rhs[..n];
        let a0 = CscMatrix::from_dense(&dense0);
        let mut slu = SparseLu::new();
        slu.factor(&a0).unwrap();

        // Perturb the values on the fixed pattern and refactor.
        let mut a1 = a0.clone();
        for (k, v) in a1.values_mut().iter_mut().enumerate() {
            *v += shift[k % shift.len()] * 0.1;
        }
        let dense1 = a1.to_dense();
        slu.refactor_into(&a1).unwrap();
        let mut x_sparse = Vec::new();
        slu.solve_into(b, &mut x_sparse).unwrap();

        let x_dense = lu_solve(&dense_lu(&dense1).unwrap(), b);
        for (s, d) in x_sparse.iter().zip(&x_dense) {
            prop_assert!((s - d).abs() <= 1e-10 * d.abs().max(1.0), "{} vs {}", s, d);
        }
    }

    /// The dependent-step replay equals the full replay bit for bit —
    /// `L`, `U`, reciprocal pivots and solutions — when only the masked
    /// columns change: right after `factor`, and along a sequence of
    /// updates. The dependent list is exactly the closure (a step is
    /// listed iff its column is masked or a U entry reads a listed step),
    /// and a pivot collapse in a dependent column is reported like the
    /// full replay reports it, leaving the accumulator clean for the
    /// recovery factor.
    #[test]
    fn dependent_replay_bit_agrees_with_full_replay(
        n in 2usize..24,
        sparsity in 3usize..12,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
        picks in proptest::collection::vec(0usize..4, 24),
        shift in proptest::collection::vec(-0.4..0.4f64, 16..250),
        rounds in 1usize..5,
        rhs in proptest::collection::vec(-10.0..10.0f64, 24),
    ) {
        let dense = random_pattern_matrix(n, &seed, sparsity);
        let col_ptr = csc_col_ptr(&dense);
        let a0 = CscMatrix::from_dense(&dense);
        let b = &rhs[..n];
        let mask: Vec<bool> = picks[..n].iter().map(|&p| p == 0).collect();
        let mut full = SparseLu::new();
        full.factor(&a0).unwrap();
        let mut part = SparseLu::new();
        part.set_column_mask(&mask);
        part.factor(&a0).unwrap();
        // A mask set after `factor` lists the same steps at once.
        let mut late = full.clone();
        late.set_column_mask(&mask);
        prop_assert_eq!(late.dependent_steps(), part.dependent_steps());

        // The closure, both ways.
        let dep = part.dependent_steps().to_vec();
        let mut listed = vec![false; n];
        for &k in &dep {
            listed[k as usize] = true;
        }
        prop_assert!(dep.windows(2).all(|w| w[0] < w[1]));
        for (k, &is_listed) in listed.iter().enumerate() {
            let (col, u) = part.step_pattern(k);
            let reads_listed = u.iter().any(|&j| listed[j as usize]);
            prop_assert!(is_listed == (mask[col] || reads_listed), "step {}", k);
        }

        // A replay right after `factor`, on the factored values, changes
        // no bit: `factor` and the replay run the same arithmetic.
        assert_same_factor_bits(&part, &full)?;
        part.refactor_dependent_into(&a0).unwrap();
        assert_same_factor_bits(&part, &full)?;

        // A sequence of updates to the masked columns only.
        let (mut x_full, mut x_part) = (Vec::new(), Vec::new());
        let mut a = a0.clone();
        for round in 0..rounds {
            for c in (0..n).filter(|&c| mask[c]) {
                for t in col_ptr[c]..col_ptr[c + 1] {
                    a.values_mut()[t] += 0.1 * shift[(t + 7 * round) % shift.len()];
                }
            }
            full.refactor_into(&a).unwrap();
            part.refactor_dependent_into(&a).unwrap();
            assert_same_factor_bits(&part, &full)?;
            full.solve_into(b, &mut x_full).unwrap();
            part.solve_into(b, &mut x_part).unwrap();
            for (p, f) in x_part.iter().zip(&x_full) {
                prop_assert_eq!(p.to_bits(), f.to_bits());
            }
        }

        // A pivot collapse: zero one masked column. Its step reads only
        // the zeroed column and zero multipliers, so the pivot is exactly
        // zero at that step and nowhere before it.
        if let Some(c) = (0..n).find(|&c| mask[c]) {
            let mut dead = a.clone();
            dead.values_mut()[col_ptr[c]..col_ptr[c + 1]].fill(0.0);
            let step = (0..n).find(|&k| part.step_pattern(k).0 == c).unwrap();
            let want = Err(FactorError::Singular { pivot: step });
            prop_assert_eq!(full.refactor_into(&dead), want.clone());
            prop_assert_eq!(part.refactor_dependent_into(&dead), want);
            // A dirty accumulator would leak into the recovery factor.
            part.factor(&a).unwrap();
            let mut fresh = SparseLu::new();
            fresh.factor(&a).unwrap();
            assert_same_factor_bits(&part, &fresh)?;
        }
    }

    /// Singular-detection parity: when the dense path reports a singular
    /// matrix, so does the sparse path (and vice versa on these inputs).
    /// A failed dense factor invalidates the one stored before it.
    #[test]
    fn sparse_and_dense_agree_on_singularity(
        n in 2usize..10,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..200),
        kill_row in 0usize..10,
        kill in 0usize..2,
    ) {
        // Construct an exactly singular matrix by zeroing one row or one
        // column of a sparse non-singular one: both kernels must flag it
        // (a zero row/column survives elimination exactly, so this probes
        // the pivot checks without floating-point cancellation luck).
        let mut dense = sparse_dominant_matrix(n, &seed);
        let dst = kill_row % n;
        for j in 0..n {
            if kill == 0 {
                dense[(dst, j)] = 0.0;
            } else {
                dense[(j, dst)] = 0.0;
            }
        }
        let healthy = sparse_dominant_matrix(n, &seed);
        let mut lu = dense_lu(&healthy).unwrap();
        let dense_result = lu.factor(dense.as_slice(), n);
        prop_assert!(lu.solve_into(&vec![1.0; n], &mut Vec::new()).is_err());
        let mut slu = SparseLu::new();
        // from_dense drops exact zeros; a fully zeroed row is structural.
        let sparse_result = slu.factor(&CscMatrix::from_dense(&dense));
        prop_assert!(
            matches!(dense_result, Err(FactorError::Singular { .. })),
            "dense path must flag singular, got {:?}", dense_result
        );
        prop_assert!(
            matches!(sparse_result, Err(FactorError::Singular { .. })),
            "sparse path must flag singular, got {:?}", sparse_result
        );
        // And the same pipelines succeed on the unmodified matrix.
        prop_assert!(lu.factor(healthy.as_slice(), n).is_ok());
        prop_assert!(slu.factor(&CscMatrix::from_dense(&healthy)).is_ok());
    }

    /// Complex LU solves diagonally dominant complex systems.
    #[test]
    fn complex_lu_solves(
        n in 1usize..8,
        seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
    ) {
        let a: Vec<Vec<C64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let re = seed[(i * n + j) % seed.len()];
                        let im = seed[(i + j * n + 7) % seed.len()];
                        if i == j {
                            C64::new(re + n as f64 + 2.0, im)
                        } else {
                            C64::new(re * 0.3, im * 0.3)
                        }
                    })
                    .collect()
            })
            .collect();
        let b: Vec<C64> =
            (0..n).map(|i| C64::new(seed[i % seed.len()], seed[(i + 3) % seed.len()])).collect();
        let mut lu = ComplexLu::new(n);
        lu.factor(&a.concat(), n).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        for i in 0..n {
            let mut s = C64::ZERO;
            for j in 0..n {
                s += a[i][j] * x[j];
            }
            prop_assert!((s - b[i]).abs() < 1e-8);
        }
        // Bad right-hand sides are rejected.
        prop_assert!(lu.solve_into(&vec![C64::ZERO; n + 1], &mut x).is_err());
    }

    /// The sparse complex kernel agrees with the dense complex LU within 1e-10 on random well-conditioned `G + jωC` systems —
    /// forward *and* transpose (adjoint) solves — the dense reference the
    /// AC/noise engine's sparse kernel is held to.
    #[test]
    fn sparse_complex_agrees_with_dense_complex(
        n in 1usize..14,
        omega in 0.0..4.0f64,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
    ) {
        let dense = sparse_ac_matrix(n, omega, &seed);
        let b = complex_rhs(n, &seed);
        let a = CscComplexMatrix::from_dense_rows(&dense);
        let mut slu = SparseComplexLu::new();
        slu.factor(&a).unwrap();
        let mut ws = ComplexLu::new(n);
        ws.factor(&dense.concat(), n).unwrap();

        let (mut xs, mut xd) = (Vec::new(), Vec::new());
        slu.solve_into(&b, &mut xs).unwrap();
        ws.solve_into(&b, &mut xd).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((*s - *d).abs() <= 1e-10 * d.abs().max(1.0), "{} vs {}", s, d);
        }
        let (mut ys, mut yd) = (Vec::new(), Vec::new());
        slu.solve_transpose_into(&b, &mut ys).unwrap();
        ws.solve_transpose_into(&b, &mut yd).unwrap();
        for (s, d) in ys.iter().zip(&yd) {
            prop_assert!((*s - *d).abs() <= 1e-10 * d.abs().max(1.0), "adjoint {} vs {}", s, d);
        }
    }

    /// Singular-detection parity for the complex kernels: when the dense
    /// path reports a singular matrix, so does the sparse path (and both
    /// succeed on the unmodified system). A failed dense factor
    /// invalidates the one stored before it.
    #[test]
    fn sparse_and_dense_complex_agree_on_singularity(
        n in 2usize..10,
        omega in 0.0..4.0f64,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..200),
        kill_row in 0usize..10,
        kill in 0usize..2,
    ) {
        let mut dense = sparse_ac_matrix(n, omega, &seed);
        let dst = kill_row % n;
        for j in 0..n {
            if kill == 0 {
                dense[dst][j] = C64::ZERO;
            } else {
                dense[j][dst] = C64::ZERO;
            }
        }
        let healthy = sparse_ac_matrix(n, omega, &seed);
        let mut ws = ComplexLu::new(n);
        ws.factor(&healthy.concat(), n).unwrap();
        let dense_result = ws.factor(&dense.concat(), n);
        prop_assert!(ws.solve_into(&vec![C64::ONE; n], &mut Vec::new()).is_err());
        let mut slu = SparseComplexLu::new();
        // from_dense_rows drops exact zeros; a zeroed row is structural.
        let sparse_result = slu.factor(&CscComplexMatrix::from_dense_rows(&dense));
        prop_assert!(
            matches!(dense_result, Err(FactorError::Singular { .. })),
            "dense complex path must flag singular, got {:?}", dense_result
        );
        prop_assert!(
            matches!(sparse_result, Err(FactorError::Singular { .. })),
            "sparse complex path must flag singular, got {:?}", sparse_result
        );
        prop_assert!(ws.factor(&healthy.concat(), n).is_ok());
        prop_assert!(slu.factor(&CscComplexMatrix::from_dense_rows(&healthy)).is_ok());
    }

    /// Across a frequency sweep on a fixed pattern, the scan-free
    /// `refactor_into` replay produces **bit-identical** solutions to a
    /// fresh pivoting `factor` at every point: on these strongly
    /// diagonally dominant systems the pivot search lands on the same
    /// (diagonal) sequence the recording pinned, so the two paths perform
    /// the same arithmetic in the same order.
    #[test]
    fn complex_refactor_bit_agrees_with_fresh_factor_across_sweep(
        n in 1usize..12,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
        omegas in proptest::collection::vec(0.0..4.0f64, 1..8),
    ) {
        let b = complex_rhs(n, &seed);
        let mut sweep_lu = SparseComplexLu::new();
        sweep_lu.factor(&CscComplexMatrix::from_dense_rows(&sparse_ac_matrix(n, 0.5, &seed))).unwrap();
        let (mut x_replay, mut x_fresh) = (Vec::new(), Vec::new());
        for &omega in &omegas {
            let a = CscComplexMatrix::from_dense_rows(&sparse_ac_matrix(n, omega, &seed));
            sweep_lu.refactor_into(&a).unwrap();
            sweep_lu.solve_into(&b, &mut x_replay).unwrap();
            let mut fresh = SparseComplexLu::new();
            fresh.factor(&a).unwrap();
            fresh.solve_into(&b, &mut x_fresh).unwrap();
            for (r, f) in x_replay.iter().zip(&x_fresh) {
                prop_assert_eq!(r.re.to_bits(), f.re.to_bits());
                prop_assert_eq!(r.im.to_bits(), f.im.to_bits());
            }
        }
    }
}

/// Builds a matrix with the effective shape `(rows, cols)` under `op`,
/// filled from the seed stream.
fn gemm_operand(op: GemmOp, rows: usize, cols: usize, seed: &[f64], offset: usize) -> Matrix {
    let (r, c) = match op {
        GemmOp::NoTrans => (rows, cols),
        GemmOp::Trans => (cols, rows),
    };
    Matrix::from_fn(r, c, |i, j| seed[(i * c + j + offset) % seed.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The GEMM agrees with the naive reference to ≤1e-12 relative for
    /// every op combination, alpha/beta case, and sizes from one element
    /// to a few register tiles. One case in three runs deeper than one
    /// accumulation panel, so the engine merges two panels.
    #[test]
    fn gemm_agrees_with_naive(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        deep_k in 257usize..300,
        deep_sel in 0usize..3,
        ops in 0usize..4,
        alpha in -2.0..2.0f64,
        beta_sel in 0usize..4,
        seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
    ) {
        let k = if deep_sel == 0 { deep_k } else { k };
        // 256 is the engine's accumulation-panel depth.
        assert!(deep_sel != 0 || k > 256);
        let op_a = if ops & 1 == 0 { GemmOp::NoTrans } else { GemmOp::Trans };
        let op_b = if ops & 2 == 0 { GemmOp::NoTrans } else { GemmOp::Trans };
        let beta = [0.0, 1.0, -0.75, 0.5][beta_sel];
        let a = gemm_operand(op_a, m, k, &seed, 0);
        let b = gemm_operand(op_b, k, n, &seed, 7);
        let c0 = Matrix::from_fn(m, n, |i, j| seed[(3 * i + 5 * j + 11) % seed.len()]);
        let mut ws = GemmWorkspace::new();
        let mut c_gemm = c0.clone();
        gemm(op_a, op_b, alpha, &a, &b, beta, &mut c_gemm, &mut ws);
        let mut c_naive = c0.clone();
        gemm_naive(op_a, op_b, alpha, &a, &b, beta, &mut c_naive);
        for (x, y) in c_gemm.as_slice().iter().zip(c_naive.as_slice()) {
            let scale = 1.0f64.max(y.abs());
            prop_assert!((x - y).abs() <= 1e-12 * scale, "{} vs {}", x, y);
        }
    }

    /// The fused epilogue is exactly one application per element after the
    /// value is final: `gemm_with(epilogue)` must match `gemm` followed by
    /// the same transformation as a separate pass — bit for bit.
    #[test]
    fn gemm_fused_epilogue_matches_separate_pass(
        m in 1usize..36,
        n in 1usize..36,
        k in 1usize..36,
        seed in proptest::collection::vec(-1.0..1.0f64, 32..200),
    ) {
        /// An affine per-column epilogue standing in for bias+activation.
        struct ColAffine<'a> {
            shift: &'a [f64],
        }
        impl Epilogue for ColAffine<'_> {
            fn apply(&mut self, _row: usize, col0: usize, seg: &mut [f64]) {
                let shift = &self.shift[col0..col0 + seg.len()];
                for (v, &s) in seg.iter_mut().zip(shift) {
                    *v = (*v + s).tanh();
                }
            }
        }
        let a = gemm_operand(GemmOp::NoTrans, m, k, &seed, 3);
        let b = gemm_operand(GemmOp::NoTrans, k, n, &seed, 13);
        let shift: Vec<f64> = (0..n).map(|j| seed[(j + 5) % seed.len()]).collect();
        let mut ws = GemmWorkspace::new();
        let mut fused = Matrix::default();
        gemm_with(
            GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0,
            &mut fused, &mut ws, &mut ColAffine { shift: &shift },
        );
        let mut separate = Matrix::default();
        gemm(GemmOp::NoTrans, GemmOp::NoTrans, 1.0, &a, &b, 0.0, &mut separate, &mut ws);
        for i in 0..m {
            for (v, &s) in separate.row_mut(i).iter_mut().zip(&shift) {
                *v = (*v + s).tanh();
            }
        }
        for (x, y) in fused.as_slice().iter().zip(separate.as_slice()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The sparse LU agrees with the dense partial-pivoting [`Lu`] to
    /// 1e-10 relative on mesh systems of n = 16…144 unknowns, whose
    /// factors fill into dense trailing blocks. The two eliminations order
    /// their updates differently, so bitwise equality is not expected
    /// here; see the refactor test below for the bit-level contract of the
    /// sparse replay.
    #[test]
    fn sparse_lu_agrees_with_dense_lu_on_meshes(
        rows in 4usize..13,
        cols in 4usize..13,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
        rhs in proptest::collection::vec(-10.0..10.0f64, 144),
    ) {
        let n = rows * cols;
        let dense = mesh_matrix(rows, cols, &seed);
        let b = &rhs[..n];
        let mut slu = SparseLu::new();
        slu.factor(&CscMatrix::from_dense(&dense)).unwrap();
        let mut x_sparse = Vec::new();
        slu.solve_into(b, &mut x_sparse).unwrap();
        let mut lu = Lu::new(n);
        lu.factor(dense.as_slice(), n).unwrap();
        let mut x_dense = Vec::new();
        lu.solve_into(b, &mut x_dense).unwrap();
        for (s, d) in x_sparse.iter().zip(&x_dense) {
            prop_assert!(
                (s - d).abs() <= 1e-10 * d.abs().max(1.0),
                "{} vs {}", s, d
            );
        }
    }

    /// On mesh systems the scan-free `refactor_into` replay is
    /// **bit-identical** to a fresh pivoting `factor` on the perturbed
    /// values: the replay performs the recorded column updates in the same
    /// order as the pivoting pass. (Diagonal dominance keeps the fresh
    /// pivot search on the recorded sequence.)
    #[test]
    fn sparse_refactor_bit_agrees_with_fresh_factor_on_meshes(
        rows in 6usize..11,
        cols in 6usize..11,
        seed in proptest::collection::vec(-1.0..1.0f64, 16..250),
        shift in proptest::collection::vec(-0.2..0.2f64, 16..250),
        rhs in proptest::collection::vec(-10.0..10.0f64, 121),
    ) {
        let n = rows * cols;
        let a0 = CscMatrix::from_dense(&mesh_matrix(rows, cols, &seed));
        let b = &rhs[..n];
        let mut sweep = SparseLu::new();
        sweep.factor(&a0).unwrap();

        // Perturb the values multiplicatively on the fixed pattern (±4%
        // preserves diagonal dominance) and replay.
        let mut a1 = a0.clone();
        for (k, v) in a1.values_mut().iter_mut().enumerate() {
            *v *= 1.0 + 0.2 * shift[k % shift.len()];
        }
        sweep.refactor_into(&a1).unwrap();
        let mut x_replay = Vec::new();
        sweep.solve_into(b, &mut x_replay).unwrap();

        let mut fresh = SparseLu::new();
        fresh.factor(&a1).unwrap();
        let mut x_fresh = Vec::new();
        fresh.solve_into(b, &mut x_fresh).unwrap();
        for (r, f) in x_replay.iter().zip(&x_fresh) {
            prop_assert_eq!(r.to_bits(), f.to_bits());
        }
    }
}
