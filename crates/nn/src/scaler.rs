//! Feature standardization.

use linalg::Matrix;

/// Per-column standardizer: `x' = (x − mean) / std`.
///
/// Constant columns get `std = 1` so they map to zero rather than dividing
/// by zero. Used to condition both critic inputs (designs and deltas) and
/// critic targets (specs with wildly different units).
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use nn::Scaler;
///
/// let x = Matrix::from_rows(&[&[1.0, 100.0], &[3.0, 300.0]]);
/// let sc = Scaler::fit(&x);
/// let t = sc.transform(&x);
/// assert!((t[(0, 0)] + 1.0).abs() < 1e-12);
/// assert!((t[(1, 1)] - 1.0).abs() < 1e-12);
/// let back = sc.inverse_transform(&t);
/// assert!((back[(1, 1)] - 300.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl Scaler {
    /// Fits mean/std per column (population standard deviation).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has no rows.
    pub fn fit(x: &Matrix) -> Self {
        assert!(x.rows() > 0, "cannot fit a scaler on an empty matrix");
        let n = x.rows() as f64;
        let mut mean = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for (j, m) in mean.iter_mut().enumerate() {
                *m += x[(i, j)];
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut std = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for j in 0..x.cols() {
                std[j] += (x[(i, j)] - mean[j]).powi(2);
            }
        }
        for s in &mut std {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Scaler { mean, std }
    }

    /// Number of columns this scaler was fitted on.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardizes a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "column mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            (x[(i, j)] - self.mean[j]) / self.std[j]
        })
    }

    /// Inverts [`Scaler::transform`].
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn inverse_transform(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim(), "column mismatch");
        Matrix::from_fn(x.rows(), x.cols(), |i, j| {
            x[(i, j)] * self.std[j] + self.mean[j]
        })
    }

    /// Inverts [`Scaler::transform`] into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn inverse_transform_into(&self, x: &Matrix, out: &mut Matrix) {
        assert_eq!(x.cols(), self.dim(), "column mismatch");
        out.copy_from(x);
        for i in 0..out.rows() {
            for ((v, &m), &s) in out.row_mut(i).iter_mut().zip(&self.mean).zip(&self.std) {
                *v = *v * s + m;
            }
        }
    }

    /// Standardizes a single row vector.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the fitted data.
    pub fn transform_row(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim(), "length mismatch");
        x.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect()
    }

    /// Per-column scale factors (the fitted standard deviations).
    pub fn scales(&self) -> &[f64] {
        &self.std
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizes_to_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[&[1.0, 10.0], &[2.0, 20.0], &[3.0, 30.0]]);
        let sc = Scaler::fit(&x);
        let t = sc.transform(&x);
        for j in 0..2 {
            let col: Vec<f64> = (0..3).map(|i| t[(i, j)]).collect();
            let mean: f64 = col.iter().sum::<f64>() / 3.0;
            let var: f64 = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 3.0;
            assert!(mean.abs() < 1e-12);
            assert!((var - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let x = Matrix::from_rows(&[&[5.0, 1.0], &[5.0, 2.0]]);
        let sc = Scaler::fit(&x);
        let t = sc.transform(&x);
        assert_eq!(t[(0, 0)], 0.0);
        assert_eq!(t[(1, 0)], 0.0);
        assert!(t.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn roundtrip() {
        let x = Matrix::from_rows(&[&[1.5, -3.0], &[0.2, 8.0], &[-1.0, 2.5]]);
        let sc = Scaler::fit(&x);
        let back = sc.inverse_transform(&sc.transform(&x));
        for i in 0..3 {
            for j in 0..2 {
                assert!((back[(i, j)] - x[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn row_transform_matches_matrix_transform() {
        let x = Matrix::from_rows(&[&[1.0, 4.0], &[3.0, 8.0]]);
        let sc = Scaler::fit(&x);
        let t = sc.transform(&x);
        let row = sc.transform_row(&[1.0, 4.0]);
        assert!((row[0] - t[(0, 0)]).abs() < 1e-15);
        assert!((row[1] - t[(0, 1)]).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty() {
        let _ = Scaler::fit(&Matrix::zeros(0, 2));
    }
}
