//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{FactorError, Matrix};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite
/// matrix, in caller-owned storage that refactors same-sized systems
/// without allocating.
///
/// Used by Gaussian-process regression, where `A` is a kernel Gram matrix
/// plus noise jitter ([`Cholesky::factor_jittered`]); [`Cholesky::log_det`]
/// feeds the log marginal likelihood.
///
/// # Example
///
/// ```
/// use linalg::{Cholesky, Matrix};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let mut ch = Cholesky::new(2);
/// ch.factor(&a).expect("SPD");
/// let mut x = Vec::new();
/// ch.solve_into(&[2.0, 1.0], &mut x).unwrap();
/// let r = a.matvec(&x);
/// assert!((r[0] - 2.0).abs() < 1e-12 && (r[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, row-major `n×n` (upper part unspecified).
    l: Vec<f64>,
    n: usize,
    factored: bool,
}

impl Cholesky {
    /// Creates storage sized for `n×n` systems; it grows automatically
    /// when factoring larger matrices.
    pub fn new(n: usize) -> Self {
        Cholesky {
            l: vec![0.0; n * n],
            n,
            factored: false,
        }
    }

    /// Factors a symmetric positive-definite matrix. Only the lower
    /// triangle of `a` is read; symmetry is assumed, not checked.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] for non-square input, or
    /// [`FactorError::NotPositiveDefinite`] if a diagonal entry becomes
    /// non-positive during elimination. A failed factorization invalidates
    /// the stored one until the next success.
    pub fn factor(&mut self, a: &Matrix) -> Result<(), FactorError> {
        self.load(a)?;
        self.eliminate()
    }

    /// Factors `a + δ·I`, starting at `δ = jitter` and multiplying `δ` by
    /// ten after each failed attempt, for at most `attempts` attempts —
    /// the escalation that keeps a Gram matrix with nearly duplicate rows
    /// factorable. Returns the `δ` that succeeded.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] for non-square input and the last
    /// attempt's [`FactorError::NotPositiveDefinite`] when every attempt
    /// fails.
    pub fn factor_jittered(
        &mut self,
        a: &Matrix,
        mut jitter: f64,
        attempts: usize,
    ) -> Result<f64, FactorError> {
        let mut last = FactorError::NotPositiveDefinite { order: 0 };
        for _ in 0..attempts {
            self.load(a)?;
            for i in 0..self.n {
                self.l[i * self.n + i] += jitter;
            }
            match self.eliminate() {
                Ok(()) => return Ok(jitter),
                Err(e) => last = e,
            }
            jitter *= 10.0;
        }
        Err(last)
    }

    /// Copies `a` into the factor storage.
    fn load(&mut self, a: &Matrix) -> Result<(), FactorError> {
        if a.rows() != a.cols() {
            return Err(FactorError::Shape {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        self.n = a.rows();
        self.factored = false;
        self.l.clear();
        self.l.extend_from_slice(a.as_slice());
        Ok(())
    }

    /// Column-by-column elimination of the matrix loaded into `self.l`.
    fn eliminate(&mut self) -> Result<(), FactorError> {
        let n = self.n;
        let l = &mut self.l[..n * n];
        for j in 0..n {
            let mut d = l[j * n + j];
            for k in 0..j {
                let v = l[j * n + k];
                d -= v * v;
            }
            if !(d > 0.0) {
                return Err(FactorError::NotPositiveDefinite { order: j + 1 });
            }
            let d = d.sqrt();
            l[j * n + j] = d;
            let (top, bottom) = l.split_at_mut((j + 1) * n);
            let row_j = &top[j * n..j * n + j];
            for i in (j + 1)..n {
                let row_i = &mut bottom[(i - j - 1) * n..(i - j) * n];
                let mut s = row_i[j];
                for (lik, ljk) in row_i[..j].iter().zip(row_j) {
                    s -= lik * ljk;
                }
                row_i[j] = s / d;
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Solves `L·y = b` in place: `b` enters as the right-hand side and
    /// leaves as `y` (forward substitution) — the half solve behind a GP's
    /// predictive variance.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if `b.len()` differs from the
    /// factored dimension or no successful factorization is stored.
    pub fn solve_lower_in_place(&self, b: &mut [f64]) -> Result<(), FactorError> {
        let n = self.n;
        if !self.factored || b.len() != n {
            return Err(FactorError::Shape {
                rows: b.len(),
                cols: n,
            });
        }
        for i in 0..n {
            let (head, tail) = b.split_at_mut(i);
            let row = &self.l[i * n..i * n + i];
            let mut s = tail[0];
            for (l, y) in row.iter().zip(head.iter()) {
                s -= l * y;
            }
            tail[0] = s / self.l[i * n + i];
        }
        Ok(())
    }

    /// Solves `A·x = b` via the two triangular solves, writing into `x`
    /// (resized, reusing its capacity).
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if `b.len()` differs from the
    /// factored dimension or no successful factorization is stored.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<(), FactorError> {
        x.clear();
        x.extend_from_slice(b);
        self.solve_lower_in_place(x)?;
        // Back substitution Lᵀ·x = y (column access on the row-major L).
        let n = self.n;
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.l[j * n + i] * x[j];
            }
            x[i] = s / self.l[i * n + i];
        }
        Ok(())
    }

    /// Log-determinant of `A`: `2·Σ log L[i,i]`.
    ///
    /// # Panics
    ///
    /// Panics if no successful factorization is stored.
    pub fn log_det(&self) -> f64 {
        assert!(self.factored, "no factorization stored");
        (0..self.n)
            .map(|i| self.l[i * self.n + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn factored(a: &Matrix) -> Result<Cholesky, FactorError> {
        let mut ch = Cholesky::new(a.rows());
        ch.factor(a)?;
        Ok(ch)
    }

    fn solve(ch: &Cholesky, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        ch.solve_into(b, &mut x).unwrap();
        x
    }

    #[test]
    fn factors_known_matrix() {
        // A = [[4, 12, -16], [12, 37, -43], [-16, -43, 98]] has
        // L = [[2,0,0],[6,1,0],[-8,5,3]] (classic textbook example):
        // forward substitution with L maps L's columns to unit vectors.
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ]);
        let ch = factored(&a).unwrap();
        let l = Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[6.0, 1.0, 0.0], &[-8.0, 5.0, 3.0]]);
        for j in 0..3 {
            let mut col: Vec<f64> = (0..3).map(|i| l[(i, j)]).collect();
            ch.solve_lower_in_place(&mut col).unwrap();
            for (i, v) in col.iter().enumerate() {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v - want).abs() < 1e-12, "column {j}: {col:?}");
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let b = [2.0, 1.0];
        let x = solve(&factored(&a).unwrap(), &b);
        let r = a.matvec(&x);
        assert!((r[0] - b[0]).abs() < 1e-12);
        assert!((r[1] - b[1]).abs() < 1e-12);
    }

    #[test]
    fn log_det_matches() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let det: f64 = 4.0 * 3.0 - 2.0 * 2.0;
        assert!((factored(&a).unwrap().log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(
            factored(&a),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            factored(&Matrix::zeros(2, 3)),
            Err(FactorError::Shape { .. })
        ));
    }

    #[test]
    fn workspace_rejects_bad_shapes_and_indefinite() {
        let mut ch = Cholesky::new(2);
        assert!(ch.solve_into(&[1.0, 1.0], &mut Vec::new()).is_err());
        let indefinite = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            ch.factor(&indefinite),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
        assert!(ch.solve_into(&[1.0, 1.0], &mut Vec::new()).is_err());
        let spd = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        ch.factor(&spd).unwrap();
        assert!(ch.solve_into(&[1.0, 1.0, 1.0], &mut Vec::new()).is_err());
        assert!(ch.solve_lower_in_place(&mut [1.0; 3]).is_err());
        assert!(ch.solve_into(&[1.0, 1.0], &mut Vec::new()).is_ok());
        // A shape error leaves the stored factorization usable.
        assert!(matches!(
            ch.factor(&Matrix::zeros(2, 3)),
            Err(FactorError::Shape { .. })
        ));
        assert!(ch.solve_into(&[1.0, 1.0], &mut Vec::new()).is_ok());
    }

    #[test]
    fn jitter_escalates_until_factorable() {
        // Rank one: without a shift the second pivot is exactly zero.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut ch = Cholesky::new(2);
        let jitter = ch.factor_jittered(&a, 0.0, 1);
        assert!(matches!(
            jitter,
            Err(FactorError::NotPositiveDefinite { order: 2 })
        ));
        let indefinite = Matrix::from_rows(&[&[1.0, 3.0], &[3.0, 1.0]]);
        // Eigenvalue −2 needs δ > 2: 1e-2, 1e-1, 1 fail; 10 succeeds.
        assert!(ch.factor_jittered(&indefinite, 1e-2, 3).is_err());
        let used = ch.factor_jittered(&indefinite, 1e-2, 4).unwrap();
        assert_eq!(used, 1e-2 * 10.0 * 10.0 * 10.0);
        let mut shifted = indefinite.clone();
        for i in 0..2 {
            shifted[(i, i)] += used;
        }
        let mut direct = Cholesky::new(2);
        direct.factor(&shifted).unwrap();
        assert_eq!(solve(&ch, &[1.0, -1.0]), solve(&direct, &[1.0, -1.0]));
        assert_eq!(ch.log_det().to_bits(), direct.log_det().to_bits());
    }

    #[test]
    fn triangular_solves_compose() {
        let a = Matrix::from_rows(&[&[9.0, 3.0, 1.0], &[3.0, 5.0, 2.0], &[1.0, 2.0, 6.0]]);
        let ch = factored(&a).unwrap();
        let b = [1.0, -2.0, 3.0];
        // L·y = b, then A·x = b: Lᵀ·x = y must hold.
        let mut y = b.to_vec();
        ch.solve_lower_in_place(&mut y).unwrap();
        let x = solve(&ch, &b);
        let lt_x: Vec<f64> = (0..3)
            .map(|i| (i..3).map(|j| ch.l[j * 3 + i] * x[j]).sum())
            .collect();
        for (u, v) in lt_x.iter().zip(&y) {
            assert!((u - v).abs() < 1e-14);
        }
    }
}
