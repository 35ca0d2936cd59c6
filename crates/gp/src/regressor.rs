//! Exact GP regression.

use linalg::{Cholesky, Matrix};

use crate::kernel::RbfKernel;

/// Error from GP fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// Shapes of inputs and targets disagree, or the training set is empty.
    Shape {
        /// Explanation.
        reason: String,
    },
    /// The kernel matrix was not positive definite even after jitter.
    NotPositiveDefinite,
}

impl std::fmt::Display for GpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpError::Shape { reason } => write!(f, "bad training data: {reason}"),
            GpError::NotPositiveDefinite => {
                write!(
                    f,
                    "kernel matrix is not positive definite (duplicate points?)"
                )
            }
        }
    }
}

impl std::error::Error for GpError {}

/// An exact Gaussian-process regressor with an RBF kernel.
///
/// Targets are internally centered on their mean, so the prior mean is the
/// empirical mean of the data rather than zero. See the
/// [crate docs](crate) for an example.
#[derive(Debug, Clone)]
pub struct GpRegressor {
    kernel: RbfKernel,
    noise: f64,
    x: Matrix,
    /// α = (K + σₙ²I)⁻¹ (y − ȳ)
    alpha: Vec<f64>,
    chol: Cholesky,
    y_mean: f64,
    /// Cached log marginal likelihood of the training data.
    lml: f64,
}

impl GpRegressor {
    /// Fits a GP to `n` rows of `x` with targets `y` and observation-noise
    /// variance `noise`.
    ///
    /// # Errors
    ///
    /// Returns [`GpError::Shape`] on inconsistent or empty data and
    /// [`GpError::NotPositiveDefinite`] when the Gram matrix cannot be
    /// factored even after escalating jitter.
    pub fn fit(x: Matrix, y: Vec<f64>, kernel: RbfKernel, noise: f64) -> Result<Self, GpError> {
        let _fit = telemetry::span_with(telemetry::SpanId::GpFit, x.rows() as u64);
        let n = x.rows();
        if n == 0 {
            return Err(GpError::Shape {
                reason: "empty training set".to_string(),
            });
        }
        if y.len() != n {
            return Err(GpError::Shape {
                reason: format!("{} rows but {} targets", n, y.len()),
            });
        }
        if x.cols() != kernel.dim() {
            return Err(GpError::Shape {
                reason: format!("{}-dim inputs but {}-dim kernel", x.cols(), kernel.dim()),
            });
        }
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let yc: Vec<f64> = y.iter().map(|v| v - y_mean).collect();

        let gram = Matrix::from_fn(n, n, |i, j| kernel.eval(x.row(i), x.row(j)));
        // Escalating jitter keeps nearly duplicate rows factorable.
        let mut chol = Cholesky::new(n);
        let jitter = chol
            .factor_jittered(&gram, noise.max(1e-10), 8)
            .map_err(|_| GpError::NotPositiveDefinite)?;
        let mut alpha = Vec::with_capacity(n);
        chol.solve_into(&yc, &mut alpha)
            .expect("targets match the factored dimension");

        // log p(y|X) = −½ yᵀα − ½ log|K| − n/2 log 2π
        let fit_term: f64 = -0.5 * yc.iter().zip(&alpha).map(|(a, b)| a * b).sum::<f64>();
        let lml =
            fit_term - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(GpRegressor {
            kernel,
            noise: jitter,
            x,
            alpha,
            chol,
            y_mean,
            lml,
        })
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// True if the model holds no training points (cannot happen after a
    /// successful [`GpRegressor::fit`]).
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// Posterior mean and variance at a query point.
    ///
    /// # Panics
    ///
    /// Panics if the query dimensionality disagrees with the training data.
    pub fn predict(&self, q: &[f64]) -> (f64, f64) {
        assert_eq!(q.len(), self.kernel.dim(), "query dimension mismatch");
        let n = self.len();
        let mut kstar: Vec<f64> = (0..n).map(|i| self.kernel.eval(self.x.row(i), q)).collect();
        let mean = self.y_mean
            + kstar
                .iter()
                .zip(&self.alpha)
                .map(|(a, b)| a * b)
                .sum::<f64>();
        // var = k(q,q) − k*ᵀ (K+σ²I)⁻¹ k*, via the triangular solve L v = k*
        // (in place: k* becomes v).
        self.chol
            .solve_lower_in_place(&mut kstar)
            .expect("one kernel value per training point");
        let var = self.kernel.eval(q, q) - kstar.iter().map(|x| x * x).sum::<f64>();
        (mean, var.max(0.0))
    }

    /// Log marginal likelihood of the training data under the fitted
    /// hyperparameters.
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Observation-noise variance actually used (input noise plus any jitter
    /// escalation).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Fits GPs over a small grid of isotropic hyperparameters and keeps the
    /// one with the highest log marginal likelihood. Inputs are expected to
    /// be normalized to approximately the unit cube.
    ///
    /// # Errors
    ///
    /// Propagates fitting errors if every candidate fails.
    pub fn fit_hyperopt(x: Matrix, y: Vec<f64>) -> Result<Self, GpError> {
        let dim = x.cols().max(1);
        let y_var = {
            let m = y.iter().sum::<f64>() / y.len().max(1) as f64;
            (y.iter().map(|v| (v - m).powi(2)).sum::<f64>() / y.len().max(1) as f64).max(1e-12)
        };
        let mut best: Option<GpRegressor> = None;
        for &ls in &[0.1, 0.2, 0.5, 1.0, 2.0] {
            for &var_scale in &[0.5, 1.0, 2.0] {
                let kernel = RbfKernel::isotropic(dim, ls, y_var * var_scale);
                if let Ok(gp) = GpRegressor::fit(x.clone(), y.clone(), kernel, 1e-6 * y_var) {
                    let better = best
                        .as_ref()
                        .is_none_or(|b| gp.log_marginal_likelihood() > b.log_marginal_likelihood());
                    if better {
                        best = Some(gp);
                    }
                }
            }
        }
        best.ok_or(GpError::NotPositiveDefinite)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_1d() -> (Matrix, Vec<f64>) {
        let xs: Vec<f64> = (0..8).map(|i| i as f64 / 7.0).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x).sin()).collect();
        (Matrix::from_fn(8, 1, |i, _| xs[i]), ys)
    }

    #[test]
    fn interpolates_training_points() {
        let (x, y) = training_1d();
        let gp = GpRegressor::fit(
            x.clone(),
            y.clone(),
            RbfKernel::isotropic(1, 0.3, 1.0),
            1e-9,
        )
        .unwrap();
        for i in 0..x.rows() {
            let (mean, var) = gp.predict(x.row(i));
            assert!(
                (mean - y[i]).abs() < 1e-3,
                "mean at train pt {i}: {mean} vs {}",
                y[i]
            );
            assert!(var < 1e-4, "var at train pt {i}: {var}");
        }
    }

    #[test]
    fn reverts_to_prior_far_away() {
        let (x, y) = training_1d();
        let kernel = RbfKernel::isotropic(1, 0.1, 2.0);
        let gp = GpRegressor::fit(x, y.clone(), kernel, 1e-9).unwrap();
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let (mean, var) = gp.predict(&[100.0]);
        assert!((mean - y_mean).abs() < 1e-6);
        assert!((var - 2.0).abs() < 1e-6);
    }

    #[test]
    fn variance_grows_between_points() {
        let (x, y) = training_1d();
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(1, 0.15, 1.0), 1e-9).unwrap();
        let (_, var_at) = gp.predict(&[2.0 / 7.0]);
        let (_, var_between) = gp.predict(&[2.5 / 7.0]);
        assert!(var_between > var_at);
    }

    #[test]
    fn interpolation_accuracy_midpoints() {
        let (x, y) = training_1d();
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(1, 0.4, 1.0), 1e-9).unwrap();
        for i in 0..7 {
            let q = (i as f64 + 0.5) / 7.0;
            let truth = (3.0 * q).sin();
            let (mean, _) = gp.predict(&[q]);
            assert!((mean - truth).abs() < 0.02, "q={q}: {mean} vs {truth}");
        }
    }

    #[test]
    fn hyperopt_picks_reasonable_model() {
        let (x, y) = training_1d();
        let gp = GpRegressor::fit_hyperopt(x, y).unwrap();
        let (mean, _) = gp.predict(&[0.5]);
        assert!((mean - (1.5f64).sin()).abs() < 0.05, "hyperopt mean {mean}");
    }

    #[test]
    fn lml_prefers_true_noise_level() {
        // Data with visible noise: a too-rigid (tiny-noise) model should
        // have lower marginal likelihood than a matched-noise one.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
        // Deterministic pseudo-noise.
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| x + 0.05 * ((i * 2654435761usize % 1000) as f64 / 500.0 - 1.0))
            .collect();
        let x = Matrix::from_fn(20, 1, |i, _| xs[i]);
        let k = RbfKernel::isotropic(1, 0.5, 1.0);
        let matched = GpRegressor::fit(x.clone(), ys.clone(), k.clone(), 2.5e-3).unwrap();
        let rigid = GpRegressor::fit(x, ys, k, 1e-12).unwrap();
        assert!(matched.log_marginal_likelihood() > rigid.log_marginal_likelihood());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let x = Matrix::from_rows(&[&[0.5], &[0.5], &[0.6]]);
        let y = vec![1.0, 1.0, 2.0];
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(1, 0.3, 1.0), 1e-10).unwrap();
        let (mean, _) = gp.predict(&[0.5]);
        assert!(mean.is_finite());
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::zeros(0, 1);
        assert!(matches!(
            GpRegressor::fit(x, vec![], RbfKernel::isotropic(1, 1.0, 1.0), 1e-6),
            Err(GpError::Shape { .. })
        ));
        let x = Matrix::from_rows(&[&[0.0], &[1.0]]);
        assert!(GpRegressor::fit(
            x.clone(),
            vec![1.0],
            RbfKernel::isotropic(1, 1.0, 1.0),
            1e-6
        )
        .is_err());
        assert!(
            GpRegressor::fit(x, vec![1.0, 2.0], RbfKernel::isotropic(2, 1.0, 1.0), 1e-6).is_err()
        );
    }

    #[test]
    fn multidimensional_fit() {
        // f(a,b) = a + 2b on a 4x4 grid.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = (i as f64 / 3.0, j as f64 / 3.0);
                rows.push(vec![a, b]);
                y.push(a + 2.0 * b);
            }
        }
        let x = Matrix::from_fn(16, 2, |i, j| rows[i][j]);
        let gp = GpRegressor::fit(x, y, RbfKernel::isotropic(2, 0.8, 4.0), 1e-9).unwrap();
        let (mean, _) = gp.predict(&[0.5, 0.5]);
        assert!((mean - 1.5).abs() < 0.05, "2d mean {mean}");
    }

    /// Log marginal likelihood, prediction and jitter, recorded before the
    /// Gram factorization moved into the reusable `linalg::Cholesky`: the
    /// same operations in the same order must give the same bits. The
    /// second case escalates the jitter three times (1e-10 → 1e-7).
    #[test]
    fn fit_and_predict_bits_are_pinned() {
        let n = 14;
        let x = Matrix::from_fn(n, 2, |i, j| {
            let i = i % 12; // rows 12 and 13 duplicate rows 0 and 1
            if j == 0 {
                0.5 + 0.5 * (i as f64 * 1.3).sin()
            } else {
                0.5 + 0.5 * (i as f64 * 0.7).cos()
            }
        });
        let y: Vec<f64> = (0..n)
            .map(|i| (3.0 * x[(i, 0)]).sin() + x[(i, 1)] * x[(i, 1)])
            .collect();
        // [lengthscale, variance, noise] → [lml, mean, var, noise used]
        let cases: [[f64; 7]; 2] = [
            [
                0.4,
                1.0,
                1e-6,
                6.862861180421117,
                1.0319996756307457,
                0.027154607603868897,
                1e-6,
            ],
            [
                5.0,
                1e9,
                1e-14,
                -49.5630425899094,
                1.2110467084722962,
                0.06653130054473877,
                1e-7,
            ],
        ];
        for [ls, var, noise, lml, mean, pvar, used] in cases {
            let kernel = RbfKernel::isotropic(2, ls, var);
            let gp = GpRegressor::fit(x.clone(), y.clone(), kernel, noise).unwrap();
            let (m, v) = gp.predict(&[0.3, 0.6]);
            assert_eq!(gp.log_marginal_likelihood().to_bits(), lml.to_bits());
            assert_eq!(m.to_bits(), mean.to_bits());
            assert_eq!(v.to_bits(), pvar.to_bits());
            assert_eq!(gp.noise().to_bits(), used.to_bits());
        }
    }
}
