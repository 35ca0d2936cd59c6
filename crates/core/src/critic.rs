//! The critic network: a SPICE proxy trained on pseudo-samples (Eq. 3).

use linalg::Matrix;
use nn::{Activation, Adam, Mlp, Scaler, TrainWorkspace};
use rand::Rng;

use crate::config::DnnOptConfig;
use crate::pseudo::{all_pseudo_samples_into, PseudoSampler};

/// A trained critic: predicts the full spec vector `[f0, f1, …, fm]` of a
/// design step `(x, Δx)` in unit-cube coordinates.
///
/// Targets are standardized internally (a [`Scaler`] over the observed
/// specs) so the MSE of Eq. 3 weighs every spec equally regardless of
/// units, and predictions are mapped back to raw spec space on the way
/// out.
#[derive(Debug, Clone)]
pub struct Critic {
    net: Mlp,
    y_scaler: Scaler,
    dim: usize,
    num_specs: usize,
}

impl Critic {
    /// Trains a fresh critic on the current population (paper Alg. 1 lines
    /// 3–5): new parameters every iteration, pseudo-samples per Eq. 2,
    /// MSE loss per Eq. 3.
    ///
    /// `xs` are unit-cube design points; `fs` the raw simulated spec
    /// vectors (clipped by the caller if desired).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or shapes disagree.
    pub fn train<R: Rng + ?Sized>(
        cfg: &DnnOptConfig,
        xs: &[Vec<f64>],
        fs: &[Vec<f64>],
        rng: &mut R,
    ) -> Self {
        assert!(!xs.is_empty(), "cannot train a critic without data");
        assert_eq!(xs.len(), fs.len(), "design/spec count mismatch");
        // NaN quarantine tripwire: the optimizer maps failed-evaluation
        // placeholders to the finite failure penalty before training, so a
        // non-finite target here means a leak in that quarantine.
        debug_assert!(
            xs.iter().chain(fs).flatten().all(|v| v.is_finite()),
            "non-finite value reached critic training data"
        );
        let d = xs[0].len();
        let mo = fs[0].len();
        let n = xs.len();

        // Fit the target scaler on the raw specs and standardize them once:
        // every pseudo-sample target is a copy of one of these rows.
        let f_mat = Matrix::from_fn(n, mo, |i, j| fs[i][j]);
        let y_scaler = Scaler::fit(&f_mat);
        let targets = y_scaler.transform(&f_mat);

        let mut sizes = vec![2 * d];
        for _ in 0..cfg.depth {
            sizes.push(cfg.hidden);
        }
        sizes.push(mo);
        let mut net = Mlp::new(&sizes, Activation::Relu, rng);
        let mut adam = Adam::new(cfg.critic_lr);

        // The pseudo-sample batch and the network's forward/backward state
        // are allocated once here and reused for all `critic_epochs`
        // gradient steps; the step never sums the loss it does not report.
        let mut inp = Matrix::default();
        let mut out = Matrix::default();
        let mut ws = TrainWorkspace::new();
        if n * n <= cfg.critic_batch {
            // The full N² Cartesian set is deterministic: build it once.
            all_pseudo_samples_into(xs, &targets, &mut inp, &mut out);
            for _ in 0..cfg.critic_epochs {
                nn::train_step_mse_ws(&mut net, &mut adam, &inp, &out, &mut ws);
            }
        } else {
            // One sampler for the fit: its tournament distances are
            // computed once per pair of designs, not once per draw.
            let mut sampler = PseudoSampler::new(xs, &targets);
            for _ in 0..cfg.critic_epochs {
                sampler.sample_into(cfg.critic_batch, rng, &mut inp, &mut out);
                nn::train_step_mse_ws(&mut net, &mut adam, &inp, &out, &mut ws);
            }
        }
        Critic {
            net,
            y_scaler,
            dim: d,
            num_specs: mo,
        }
    }

    /// Design dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of predicted specs (`m + 1`).
    pub fn num_specs(&self) -> usize {
        self.num_specs
    }

    /// Predicts raw spec vectors for a batch of `(x, Δx)` rows (width
    /// `2d`).
    ///
    /// # Panics
    ///
    /// Panics if the input width is not `2d`.
    pub fn predict(&self, xdx: &Matrix) -> Matrix {
        assert_eq!(xdx.cols(), 2 * self.dim, "critic input width must be 2d");
        let scaled = self.net.forward(xdx);
        self.y_scaler.inverse_transform(&scaled)
    }

    /// Predicts one `(x, Δx)` pair.
    pub fn predict_one(&self, x: &[f64], dx: &[f64]) -> Vec<f64> {
        let mut row = Vec::with_capacity(2 * self.dim);
        row.extend_from_slice(x);
        row.extend_from_slice(dx);
        let m = Matrix::from_vec(1, 2 * self.dim, row);
        self.predict(&m).row(0).to_vec()
    }

    /// Workspace forward pass: runs the critic on `xdx`, leaving the
    /// *scaled* outputs and the backward-pass state in `ws`, and writes the
    /// raw (unscaled) specs into `raw_out`. Allocation free once the
    /// buffers are warm — the critic-to-actor gradient path.
    pub(crate) fn forward_scaled_ws(
        &self,
        xdx: &Matrix,
        ws: &mut TrainWorkspace,
        raw_out: &mut Matrix,
    ) {
        self.net.forward_ws(xdx, ws);
        self.y_scaler.inverse_transform_into(ws.output(), raw_out);
    }

    /// Gradient of a loss with respect to the critic *inputs*, given the
    /// loss gradient with respect to the critic's raw (unscaled) outputs.
    /// Consumes the forward state left in `ws` by
    /// [`Critic::forward_scaled_ws`]; the result is `ws.input_gradient()`.
    pub(crate) fn backward_to_inputs_ws<'w>(
        &self,
        ws: &'w mut TrainWorkspace,
        grad_raw_out: &Matrix,
        grad_scaled: &mut Matrix,
    ) -> &'w Matrix {
        // raw = scaled·σ + µ  =>  ∂L/∂scaled = ∂L/∂raw · σ.
        grad_scaled.copy_from(grad_raw_out);
        let scales = self.y_scaler.scales();
        for i in 0..grad_scaled.rows() {
            for (g, &s) in grad_scaled.row_mut(i).iter_mut().zip(scales) {
                *g *= s;
            }
        }
        // The critic is frozen here: only the gradient *through* it is
        // needed, so the input-only pass skips every δᵀ·x parameter GEMM.
        self.net.backward_input_ws(ws, grad_scaled);
        ws.input_gradient()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Synthetic quadratic "circuit": f0 = Σ(x-0.4)², f1 = x0 − 0.5.
    fn synth_data(n: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        use rand::Rng;
        let mut xs = Vec::new();
        let mut fs = Vec::new();
        for _ in 0..n {
            let x: Vec<f64> = (0..3).map(|_| rng.gen::<f64>()).collect();
            let f0: f64 = x.iter().map(|v| (v - 0.4) * (v - 0.4)).sum();
            let f1 = x[0] - 0.5;
            fs.push(vec![f0, f1]);
            xs.push(x);
        }
        (xs, fs)
    }

    #[test]
    fn critic_learns_quadratic_landscape() {
        let mut rng = StdRng::seed_from_u64(9);
        let (xs, fs) = synth_data(60, &mut rng);
        let cfg = DnnOptConfig {
            critic_epochs: 600,
            critic_batch: 256,
            ..Default::default()
        };
        let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
        // Predict at known designs with zero delta: should match own specs.
        let mut err = 0.0;
        for (x, f) in xs.iter().zip(&fs).take(20) {
            let pred = critic.predict_one(x, &[0.0, 0.0, 0.0]);
            err += (pred[0] - f[0]).abs();
        }
        assert!(err / 20.0 < 0.08, "mean |err| {}", err / 20.0);
    }

    #[test]
    fn critic_predicts_step_destinations() {
        let mut rng = StdRng::seed_from_u64(10);
        let (xs, fs) = synth_data(60, &mut rng);
        let cfg = DnnOptConfig {
            critic_epochs: 600,
            critic_batch: 256,
            ..Default::default()
        };
        let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
        // Predict a *step* from x0 to x1: must be close to f(x1).
        let dx: Vec<f64> = xs[1].iter().zip(&xs[0]).map(|(a, b)| a - b).collect();
        let pred = critic.predict_one(&xs[0], &dx);
        assert!(
            (pred[0] - fs[1][0]).abs() < 0.15,
            "{} vs {}",
            pred[0],
            fs[1][0]
        );
        assert!(
            (pred[1] - fs[1][1]).abs() < 0.15,
            "{} vs {}",
            pred[1],
            fs[1][1]
        );
    }

    #[test]
    fn shapes_are_enforced() {
        let mut rng = StdRng::seed_from_u64(11);
        let (xs, fs) = synth_data(10, &mut rng);
        let cfg = DnnOptConfig {
            critic_epochs: 2,
            ..Default::default()
        };
        let critic = Critic::train(&cfg, &xs, &fs, &mut rng);
        assert_eq!(critic.dim(), 3);
        assert_eq!(critic.num_specs(), 2);
        let pred = critic.predict(&Matrix::zeros(4, 6));
        assert_eq!(pred.rows(), 4);
        assert_eq!(pred.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "cannot train a critic without data")]
    fn empty_training_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DnnOptConfig::default();
        let _ = Critic::train(&cfg, &[], &[], &mut rng);
    }
}
