//! Adam optimizer.

use linalg::Matrix;

use crate::mlp::{Gradients, Mlp};

/// The Adam optimizer (Kingma & Ba, 2015) with bias correction.
///
/// State is lazily allocated to match the first network it steps; stepping a
/// differently shaped network afterwards panics.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stabilizer.
    pub eps: f64,
    t: u64,
    m_w: Vec<Matrix>,
    v_w: Vec<Matrix>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
}

impl Adam {
    /// Creates an optimizer with the given learning rate and standard
    /// hyperparameters (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m_w: Vec::new(),
            v_w: Vec::new(),
            m_b: Vec::new(),
            v_b: Vec::new(),
        }
    }

    fn ensure_state(&mut self, net: &Mlp, grads: &Gradients) {
        if !self.m_w.is_empty() {
            return;
        }
        for (rows, cols) in net.shapes() {
            self.m_w.push(Matrix::zeros(rows, cols));
            self.v_w.push(Matrix::zeros(rows, cols));
        }
        for db in &grads.db {
            self.m_b.push(vec![0.0; db.len()]);
            self.v_b.push(vec![0.0; db.len()]);
        }
    }

    /// Applies one Adam update of `net` along `-grads`, writing the update
    /// directly into the parameters — no per-step allocation. Weights and
    /// biases run through the same flat-slice kernel
    /// (`Adam::update_slice`), the single-pass walk shared with
    /// [`Gradients::norm_sq`] / [`Gradients::scale`].
    ///
    /// # Panics
    ///
    /// Panics if the gradient shapes do not match the state created on the
    /// first call.
    pub fn step(&mut self, net: &mut Mlp, grads: &Gradients) {
        self.ensure_state(net, grads);
        self.t += 1;
        // Bias corrections as reciprocals: two multiplies per element
        // instead of two divisions in the inner loop.
        let rb1t = 1.0 / (1.0 - self.beta1.powi(self.t as i32));
        let rb2t = 1.0 / (1.0 - self.beta2.powi(self.t as i32));
        let hyper = (self.lr, self.beta1, self.beta2, self.eps, rb1t, rb2t);

        for k in 0..grads.dw.len() {
            let (w, b) = net.layer_params_mut(k);
            let g = &grads.dw[k];
            assert_eq!(
                (g.rows(), g.cols()),
                (w.rows(), w.cols()),
                "gradient shape does not match layer {k}"
            );
            let m = self.m_w[k].as_mut_slice();
            let v = self.v_w[k].as_mut_slice();
            assert_eq!(
                m.len(),
                g.as_slice().len(),
                "optimizer state does not match layer {k}; call reset() before \
                 stepping a differently shaped network"
            );
            Self::update_slice(hyper, w.as_mut_slice(), g.as_slice(), m, v);

            let gb = &grads.db[k];
            assert_eq!(
                gb.len(),
                b.len(),
                "bias gradient length mismatch at layer {k}"
            );
            let mb = &mut self.m_b[k];
            let vb = &mut self.v_b[k];
            assert_eq!(
                mb.len(),
                gb.len(),
                "optimizer state does not match layer {k}; call reset() before \
                 stepping a differently shaped network"
            );
            Self::update_slice(hyper, b, gb, mb, vb);
        }
    }

    /// One bias-corrected Adam update over a flat parameter slice: a single
    /// fused pass updating both moments and the parameters. On x86-64 with
    /// AVX2 the same IEEE operations are compiled 4-wide (the remaining
    /// divide and square root dominate the scalar build), which cannot
    /// change any bit of the result — every op is exactly rounded.
    #[inline]
    fn update_slice(
        hyper: (f64, f64, f64, f64, f64, f64),
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 availability checked above.
                unsafe { Self::update_slice_avx2(hyper, params, grads, m, v) };
                return;
            }
        }
        Self::update_slice_body(hyper, params, grads, m, v);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn update_slice_avx2(
        hyper: (f64, f64, f64, f64, f64, f64),
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        Self::update_slice_body(hyper, params, grads, m, v);
    }

    #[inline(always)]
    fn update_slice_body(
        (lr, beta1, beta2, eps, rb1t, rb2t): (f64, f64, f64, f64, f64, f64),
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        v: &mut [f64],
    ) {
        for (((px, &gx), mx), vx) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mx = beta1 * *mx + (1.0 - beta1) * gx;
            *vx = beta2 * *vx + (1.0 - beta2) * gx * gx;
            let mhat = *mx * rb1t;
            let vhat = *vx * rb2t;
            *px += -lr * mhat / (vhat.sqrt() + eps);
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Resets moments and step count (e.g. when re-initializing a network).
    pub fn reset(&mut self) {
        self.t = 0;
        self.m_w.clear();
        self.v_w.clear();
        self.m_b.clear();
        self.v_b.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Activation;
    use crate::{mse, train_step_mse};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn converges_on_linear_regression() {
        // y = 2x - 1 learned by a linear "network" (no hidden layer).
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Mlp::new(&[1, 1], Activation::Relu, &mut rng);
        let x = Matrix::from_fn(16, 1, |i, _| i as f64 / 8.0 - 1.0);
        let y = x.map(|v| 2.0 * v - 1.0);
        let mut adam = Adam::new(0.05);
        for _ in 0..500 {
            train_step_mse(&mut net, &mut adam, &x, &y);
        }
        let pred = net.forward(&x);
        assert!(mse(&pred, &y) < 1e-6, "final mse {}", mse(&pred, &y));
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn converges_on_nonlinear_regression() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Mlp::new(&[2, 24, 24, 1], Activation::Tanh, &mut rng);
        // f(a, b) = a² - b, a smooth nonconvex target.
        let mut xs = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                xs.push(vec![i as f64 / 5.0 - 1.0, j as f64 / 5.0 - 1.0]);
            }
        }
        let x = Matrix::from_fn(100, 2, |i, j| xs[i][j]);
        let y = Matrix::from_fn(100, 1, |i, _| xs[i][0] * xs[i][0] - xs[i][1]);
        let mut adam = Adam::new(5e-3);
        let mut last = f64::INFINITY;
        for _ in 0..800 {
            last = train_step_mse(&mut net, &mut adam, &x, &y);
        }
        assert!(last < 5e-3, "final mse {last}");
    }

    #[test]
    fn loss_decreases_monotonically_at_start() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Mlp::new(&[1, 8, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(8, 1, |i, _| i as f64);
        let y = x.map(|v| 0.3 * v);
        let mut adam = Adam::new(1e-3);
        let l0 = train_step_mse(&mut net, &mut adam, &x, &y);
        let mut l = l0;
        for _ in 0..20 {
            l = train_step_mse(&mut net, &mut adam, &x, &y);
        }
        assert!(l < l0, "loss should decrease: {l0} -> {l}");
    }

    #[test]
    fn reset_clears_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Mlp::new(&[1, 4, 1], Activation::Relu, &mut rng);
        let x = Matrix::from_fn(4, 1, |i, _| i as f64);
        let y = x.clone();
        let mut adam = Adam::new(1e-3);
        train_step_mse(&mut net, &mut adam, &x, &y);
        assert_eq!(adam.steps(), 1);
        adam.reset();
        assert_eq!(adam.steps(), 0);
        // Works again after reset.
        train_step_mse(&mut net, &mut adam, &x, &y);
        assert_eq!(adam.steps(), 1);
    }
}
