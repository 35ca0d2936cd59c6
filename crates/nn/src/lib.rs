//! Minimal dense neural networks for the DNN-Opt actor/critic.
//!
//! The Rust deep-learning ecosystem is thin, and DNN-Opt needs one unusual
//! capability that rules out most off-the-shelf options anyway: training the
//! *actor* network requires the gradient of a scalar loss **with respect to
//! the inputs** of the (frozen) *critic* network, so gradients must flow
//! critic-output → critic-input → actor-output → actor-parameters. This
//! crate therefore implements exactly what is needed, from scratch:
//!
//! - [`Mlp`]: a multi-layer perceptron with ReLU/Tanh hidden activations and
//!   a linear output layer;
//! - [`Mlp::backward_ws`]: reverse-mode differentiation filling both the
//!   parameter gradients and the gradient with respect to the input batch
//!   of a [`TrainWorkspace`];
//! - [`Adam`]: the Adam optimizer;
//! - [`Scaler`]: feature standardization fitted on training data.
//!
//! # Example: fit a small regression
//!
//! ```
//! use linalg::Matrix;
//! use nn::{Activation, Adam, Mlp};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
//! let x = Matrix::from_fn(32, 1, |i, _| i as f64 / 32.0);
//! let y = x.map(|v| (2.0 * v).sin());
//! let mut adam = Adam::new(1e-2);
//! for _ in 0..800 {
//!     nn::train_step_mse(&mut net, &mut adam, &x, &y);
//! }
//! let pred = net.forward(&x);
//! assert!(nn::mse(&pred, &y) < 5e-3);
//! ```

mod adam;
mod mlp;
mod scaler;
mod workspace;

pub use adam::Adam;
pub use mlp::{Activation, Gradients, Mlp};
pub use scaler::Scaler;
pub use workspace::{train_step_mse_ws, TrainWorkspace};

use linalg::Matrix;

/// Mean-squared error between predictions and targets, averaged over all
/// entries.
///
/// # Panics
///
/// Panics if the shapes disagree.
pub fn mse(pred: &Matrix, target: &Matrix) -> f64 {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (target.rows(), target.cols()),
        "mse: shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f64;
    pred.as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(p, t)| (p - t).powi(2))
        .sum::<f64>()
        / n
}

/// One full-batch MSE gradient step: forward, backward, Adam update.
/// Returns the pre-step loss. Runs [`train_step_mse_ws`] on a fresh
/// [`TrainWorkspace`], which still holds the pre-step predictions
/// afterwards; loops that never read the loss should call that one and
/// reuse the buffers.
pub fn train_step_mse(net: &mut Mlp, adam: &mut Adam, x: &Matrix, y: &Matrix) -> f64 {
    let mut ws = TrainWorkspace::new();
    train_step_mse_ws(net, adam, x, y, &mut ws);
    mse(ws.output(), y)
}

/// Draws a standard-normal sample via Box-Muller (keeps the workspace free
/// of a `rand_distr` dependency).
pub fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn mse_of_equal_is_zero() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert_eq!(mse(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[0.0, 0.0]]);
        assert!((mse(&a, &b) - 2.5).abs() < 1e-15);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
