//! Sparse complex LU for the simulator's frequency-domain MNA systems.
//!
//! AC and noise analyses solve `(G + jωC)·x = b` at every frequency point.
//! The *pattern* of that system is fixed by the circuit topology — only the
//! values change with ω — which is exactly the split the real
//! [`crate::SparseLu`] exploits across Newton iterations. The complex path
//! is therefore not a mirror implementation but the *same* implementation:
//! [`CscComplexMatrix`] and [`SparseComplexLu`] are the [`C64`]
//! instantiations of the generic [`CscT`]/[`crate::SparseLuT`] sparse core
//! in `sparse.rs`, sharing the minimum-degree ordering, the Gilbert–Peierls
//! recording, the scan-free refactor replay, and the transpose solve the
//! noise analysis' adjoint system needs. One elimination, two element
//! types — the pivot logic cannot drift between them.
//!
//! The intended rhythm (mirrored by `spice`'s AC workspace): analyze the
//! pattern once per topology, `factor` at the first frequency point of a
//! sweep to pin the pivot sequence, then `refactor_into` every subsequent
//! point.

use crate::complex::C64;
use crate::sparse::CscT;

/// A square sparse complex matrix in compressed-sparse-column (CSC) form —
/// the [`C64`] instantiation of [`CscT`]. Same construction (and same slot
/// indices) as the real [`crate::CscMatrix`] built from the same
/// coordinates.
pub type CscComplexMatrix = CscT<C64>;

/// Sparse complex LU factorization with a recorded elimination pattern —
/// the [`C64`] instantiation of [`crate::SparseLuT`]. Storage conventions
/// are identical to the real [`crate::SparseLu`]: `L` is unit lower
/// triangular with *original* row indices, `U` upper triangular with
/// *pivotal positions*, reciprocal pivots in `inv_diag`.
///
/// # Example
///
/// ```
/// use linalg::{C64, CscComplexMatrix, SparseComplexLu};
///
/// // [2+j 1; 1 3] over an explicit pattern.
/// let (mut a, slots) =
///     CscComplexMatrix::from_coordinates(2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
/// let vals = [C64::new(2.0, 1.0), C64::ONE, C64::ONE, C64::real(3.0)];
/// for (s, v) in slots.iter().zip(vals) {
///     a.values_mut()[*s as usize] += v;
/// }
/// let mut lu = SparseComplexLu::new();
/// lu.factor(&a).expect("non-singular");
/// let mut x = Vec::new();
/// lu.solve_into(&[C64::real(3.0), C64::real(5.0)], &mut x).unwrap();
/// let r0 = a.to_dense_rows();
/// let ax0 = r0[0][0] * x[0] + r0[0][1] * x[1];
/// assert!((ax0 - C64::real(3.0)).abs() < 1e-12);
/// ```
pub type SparseComplexLu = crate::sparse::SparseLuT<C64>;

impl CscT<C64> {
    /// Builds a CSC matrix from the exact nonzero pattern (and values) of a
    /// dense row-major matrix. Test/bench helper.
    ///
    /// # Panics
    ///
    /// Panics on ragged or non-square input.
    pub fn from_dense_rows(a: &[Vec<C64>]) -> Self {
        let n = a.len();
        assert!(
            a.iter().all(|row| row.len() == n),
            "CscComplexMatrix requires a square matrix"
        );
        let coords: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| a[i][j] != C64::ZERO)
            .collect();
        let (mut m, slots) = CscComplexMatrix::from_coordinates(n, &coords);
        for (&(i, j), &s) in coords.iter().zip(&slots) {
            m.values_mut()[s as usize] = a[i][j];
        }
        m
    }

    /// Densifies the matrix into row-major rows (test helper).
    pub fn to_dense_rows(&self) -> Vec<Vec<C64>> {
        let n = self.n();
        let mut m = vec![vec![C64::ZERO; n]; n];
        for c in 0..n {
            for t in self.col_ptr[c]..self.col_ptr[c + 1] {
                m[self.row_idx[t]][c] += self.values[t];
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FactorError;

    /// Deterministic pseudo-random `G + jωC`-flavored test system: strong
    /// real diagonal, sparse complex off-diagonals.
    fn ac_like(n: usize, omega: f64, salt: u64) -> Vec<Vec<C64>> {
        let mut s = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 500.0 - 1.0
        };
        let mut m = vec![vec![C64::ZERO; n]; n];
        for i in 0..n {
            m[i][i] = C64::new(3.0 + next().abs(), omega * (0.1 + next().abs()));
            if i + 1 < n {
                m[i][i + 1] = C64::new(next() * 0.5, omega * next() * 0.2);
                m[i + 1][i] = C64::new(next() * 0.5, omega * next() * 0.2);
            }
            if i > 0 && i % 5 == 0 {
                m[0][i] = C64::new(next() * 0.3, 0.0);
                m[i][0] = C64::new(next() * 0.3, 0.0);
            }
        }
        m
    }

    fn residual(a: &[Vec<C64>], x: &[C64], b: &[C64]) -> f64 {
        let n = a.len();
        (0..n)
            .map(|i| {
                let mut s = C64::ZERO;
                for j in 0..n {
                    s += a[i][j] * x[j];
                }
                (s - b[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    fn rhs(n: usize) -> Vec<C64> {
        (0..n)
            .map(|i| C64::new((i as f64 * 0.3).sin() + 1.0, (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn factor_and_solve_small_sizes() {
        for n in [1usize, 2, 5, 17, 40] {
            let dense = ac_like(n, 2.0, n as u64);
            let a = CscComplexMatrix::from_dense_rows(&dense);
            let mut lu = SparseComplexLu::new();
            lu.factor(&a).unwrap();
            let b = rhs(n);
            let mut x = Vec::new();
            lu.solve_into(&b, &mut x).unwrap();
            assert!(residual(&dense, &x, &b) < 1e-9, "n = {n}");
        }
    }

    #[test]
    fn refactor_tracks_omega_sweep() {
        let n = 26;
        let mut lu = SparseComplexLu::new();
        let mut x = Vec::new();
        let b = rhs(n);
        // The pattern is fixed; values change with omega, as in an AC sweep.
        let a0 = CscComplexMatrix::from_dense_rows(&ac_like(n, 1.0, 9));
        lu.factor(&a0).unwrap();
        for step in 1..8 {
            let omega = 1.0 + step as f64 * 3.0;
            let dense = ac_like(n, omega, 9);
            let a = CscComplexMatrix::from_dense_rows(&dense);
            assert_eq!(a.nnz(), a0.nnz(), "pattern must be omega-independent");
            lu.refactor_into(&a).unwrap();
            lu.solve_into(&b, &mut x).unwrap();
            assert!(residual(&dense, &x, &b) < 1e-9, "omega = {omega}");
        }
    }

    #[test]
    fn transpose_solve_is_adjoint_of_forward() {
        let n = 19;
        let dense = ac_like(n, 4.0, 3);
        let a = CscComplexMatrix::from_dense_rows(&dense);
        let mut lu = SparseComplexLu::new();
        lu.factor(&a).unwrap();
        let b = rhs(n);
        let mut y = Vec::new();
        lu.solve_transpose_into(&b, &mut y).unwrap();
        // Residual of the transposed system: (Aᵀ y)_i = Σ_j a[j][i]·y[j].
        let r = (0..n)
            .map(|i| {
                let mut s = C64::ZERO;
                for j in 0..n {
                    s += dense[j][i] * y[j];
                }
                (s - b[i]).abs()
            })
            .fold(0.0, f64::max);
        assert!(r < 1e-9, "transpose residual {r}");
        // And a forward solve still works afterwards (shared accumulator).
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&dense, &x, &b) < 1e-9);
    }

    #[test]
    fn slot_map_assembly_roundtrip() {
        let coords = [(0, 0), (1, 1), (0, 0), (2, 1), (1, 1)];
        let (mut m, slots) = CscComplexMatrix::from_coordinates(3, &coords);
        assert_eq!(m.nnz(), 3);
        for &s in &slots {
            m.values_mut()[s as usize] += C64::new(1.0, 0.5);
        }
        let d = m.to_dense_rows();
        assert_eq!(d[0][0], C64::new(2.0, 1.0));
        assert_eq!(d[1][1], C64::new(2.0, 1.0));
        assert_eq!(d[2][1], C64::new(1.0, 0.5));
        // The complex pattern matches the real one built from the same
        // coordinates (shared construction).
        let (rm, rslots) = crate::CscMatrix::from_coordinates(3, &coords);
        assert_eq!(rm.nnz(), m.nnz());
        assert_eq!(rslots, slots);
    }

    #[test]
    fn detects_singularity_and_recovers() {
        // Structural: empty column.
        let (a, _) = CscComplexMatrix::from_coordinates(2, &[(0, 0), (1, 0)]);
        let mut lu = SparseComplexLu::new();
        assert!(matches!(lu.factor(&a), Err(FactorError::Singular { .. })));
        // Refactor on the incomplete recording is a shape error, not a
        // panic.
        assert!(matches!(
            lu.refactor_into(&a),
            Err(FactorError::Shape { .. })
        ));
        // Numerical: dependent rows.
        let dense = vec![
            vec![C64::new(1.0, 1.0), C64::new(2.0, 2.0)],
            vec![C64::new(2.0, 2.0), C64::new(4.0, 4.0)],
        ];
        let a = CscComplexMatrix::from_dense_rows(&dense);
        assert!(matches!(lu.factor(&a), Err(FactorError::Singular { .. })));
        // Refactor reports singularity when a pivot collapses to zero.
        let good = ac_like(4, 1.0, 8);
        let mut a = CscComplexMatrix::from_dense_rows(&good);
        lu.factor(&a).unwrap();
        a.set_zero();
        assert!(matches!(
            lu.refactor_into(&a),
            Err(FactorError::Singular { .. })
        ));
        assert!(!lu.is_factored());
        assert!(lu.solve_into(&rhs(4), &mut Vec::new()).is_err());
        // A later successful factor restores the object.
        let a = CscComplexMatrix::from_dense_rows(&good);
        lu.factor(&a).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&rhs(4), &mut x).unwrap();
        assert!(residual(&good, &x, &rhs(4)) < 1e-9);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // MNA voltage-source block: zero on the branch diagonal.
        let dense = vec![
            vec![C64::new(1e-3, 1e-4), C64::ONE],
            vec![C64::ONE, C64::ZERO],
        ];
        let a = CscComplexMatrix::from_dense_rows(&dense);
        let mut lu = SparseComplexLu::new();
        lu.factor(&a).unwrap();
        let b = [C64::ZERO, C64::real(2.0)];
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(residual(&dense, &x, &b) < 1e-12);
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let mut lu = SparseComplexLu::new();
        assert!(lu.solve_into(&[C64::ONE], &mut Vec::new()).is_err());
        assert!(lu
            .solve_transpose_into(&[C64::ONE], &mut Vec::new())
            .is_err());
        let dense = ac_like(3, 1.0, 1);
        let a = CscComplexMatrix::from_dense_rows(&dense);
        lu.factor(&a).unwrap();
        assert!(lu.solve_into(&rhs(2), &mut Vec::new()).is_err());
        assert!(lu.solve_transpose_into(&rhs(2), &mut Vec::new()).is_err());
        let b2 = CscComplexMatrix::from_dense_rows(&ac_like(2, 1.0, 1));
        assert!(matches!(
            lu.refactor_into(&b2),
            Err(FactorError::Shape { .. })
        ));
    }
}
