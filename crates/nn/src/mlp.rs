//! Multi-layer perceptron with explicit reverse-mode differentiation.

use linalg::Matrix;
use rand::Rng;

use crate::workspace::TrainWorkspace;

/// Hidden-layer activation function (the output layer is always linear).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

/// Compile-time activation dispatch: the forward/backward kernels are
/// monomorphized per variant, so the hidden-layer inner loops contain no
/// per-element `match` on [`Activation`].
pub(crate) trait ActFn {
    /// The activation value `a = f(z)`.
    fn apply(z: f64) -> f64;

    /// The derivative `f'(z)` expressed through the activation *output*
    /// `a = f(z)` (ReLU: `a > 0`; tanh: `1 − a²`), so the backward pass
    /// needs no stored pre-activations.
    fn deriv_from_output(a: f64) -> f64;
}

/// [`Activation::Relu`] as a zero-sized kernel parameter.
pub(crate) struct ReluAct;

impl ActFn for ReluAct {
    #[inline(always)]
    fn apply(z: f64) -> f64 {
        z.max(0.0)
    }

    #[inline(always)]
    fn deriv_from_output(a: f64) -> f64 {
        // a = max(z, 0) is positive exactly when z is.
        if a > 0.0 {
            1.0
        } else {
            0.0
        }
    }
}

/// [`Activation::Tanh`] as a zero-sized kernel parameter.
pub(crate) struct TanhAct;

impl ActFn for TanhAct {
    #[inline(always)]
    fn apply(z: f64) -> f64 {
        z.tanh()
    }

    #[inline(always)]
    fn deriv_from_output(a: f64) -> f64 {
        1.0 - a * a
    }
}

/// One dense layer: `y = x·Wᵀ + b` with `W` of shape `out×in`.
#[derive(Debug, Clone)]
struct Dense {
    w: Matrix,
    b: Vec<f64>,
}

/// Parameter gradients for a whole network, shaped like the network itself.
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    pub(crate) dw: Vec<Matrix>,
    pub(crate) db: Vec<Vec<f64>>,
}

impl Gradients {
    /// Every gradient buffer as one sequence of flat slices (weights first,
    /// then biases) — the single-pass walk shared by [`Gradients::norm_sq`],
    /// [`Gradients::scale`], and the Adam step's per-layer slice pairing.
    fn flat_slices(&self) -> impl Iterator<Item = &[f64]> {
        self.dw
            .iter()
            .map(Matrix::as_slice)
            .chain(self.db.iter().map(Vec::as_slice))
    }

    /// Mutable variant of [`Gradients::flat_slices`].
    fn flat_slices_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.dw
            .iter_mut()
            .map(Matrix::as_mut_slice)
            .chain(self.db.iter_mut().map(Vec::as_mut_slice))
    }

    /// Sum of squared gradient entries (for monitoring/clipping): one flat
    /// pass over each buffer.
    pub fn norm_sq(&self) -> f64 {
        let mut s = 0.0;
        for slice in self.flat_slices() {
            for &v in slice {
                s += v * v;
            }
        }
        s
    }

    /// Scales all gradients in place (gradient clipping): one flat pass
    /// over each buffer.
    pub fn scale(&mut self, s: f64) {
        for slice in self.flat_slices_mut() {
            for v in slice {
                *v *= s;
            }
        }
    }
}

/// A fully connected network with a linear output layer.
///
/// See the [crate docs](crate) for an end-to-end training example.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    hidden_act: Activation,
}

impl Mlp {
    /// Creates a network with the given layer sizes, e.g. `[4, 64, 64, 2]`
    /// for 4 inputs, two hidden layers of 64, and 2 outputs. Weights use
    /// He initialization for ReLU and Xavier for Tanh.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], hidden_act: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "zero-width layer");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for win in sizes.windows(2) {
            let (fan_in, fan_out) = (win[0], win[1]);
            let scale = match hidden_act {
                Activation::Relu => (2.0 / fan_in as f64).sqrt(),
                Activation::Tanh => (2.0 / (fan_in + fan_out) as f64).sqrt(),
            };
            let w = Matrix::from_fn(fan_out, fan_in, |_, _| crate::gaussian(rng) * scale);
            layers.push(Dense {
                w,
                b: vec![0.0; fan_out],
            });
        }
        Mlp { layers, hidden_act }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].w.rows()
    }

    /// Number of layers (weight matrices).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Borrow of layer `k`'s weights and biases (for the workspace kernels).
    pub(crate) fn layer(&self, k: usize) -> (&Matrix, &[f64]) {
        let l = &self.layers[k];
        (&l.w, &l.b)
    }

    /// Mutable borrow of layer `k`'s weights and biases (for in-place
    /// optimizer updates).
    pub(crate) fn layer_params_mut(&mut self, k: usize) -> (&mut Matrix, &mut Vec<f64>) {
        let l = &mut self.layers[k];
        (&mut l.w, &mut l.b)
    }

    /// The hidden activation function.
    pub(crate) fn activation(&self) -> Activation {
        self.hidden_act
    }

    /// Forward pass on a batch (rows are samples).
    ///
    /// Runs the same fused GEMM kernels as [`Mlp::forward_ws`] on a
    /// throwaway workspace, so both paths are bit-identical; use the
    /// workspace variant in loops to avoid the per-call allocations.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the input dimensionality.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = TrainWorkspace::new();
        self.forward_ws(x, &mut ws).clone()
    }

    /// Scales the final layer's weights and biases by `s`. With a small
    /// `s` the network initially outputs near-zero values — the DDPG trick
    /// for actor networks whose outputs are corrections.
    pub fn scale_output_layer(&mut self, s: f64) {
        let last = self.layers.len() - 1;
        self.layers[last].w.scale_inplace(s);
        for b in &mut self.layers[last].b {
            *b *= s;
        }
    }

    /// Shapes of all weight matrices, for optimizer state allocation.
    pub(crate) fn shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .map(|l| (l.w.rows(), l.w.cols()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_net(act: Activation) -> Mlp {
        let mut rng = StdRng::seed_from_u64(3);
        Mlp::new(&[3, 5, 4, 2], act, &mut rng)
    }

    #[test]
    fn shapes_and_counts() {
        let net = small_net(Activation::Relu);
        assert_eq!(net.input_dim(), 3);
        assert_eq!(net.output_dim(), 2);
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.num_params(), (5 * 3 + 5) + (4 * 5 + 4) + (2 * 4 + 2));
    }

    #[test]
    fn forward_is_deterministic() {
        let net = small_net(Activation::Tanh);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3]]);
        let y1 = net.forward(&x);
        let y2 = net.forward(&x);
        assert_eq!(y1, y2);
    }

    /// Scalar loss L = Σ w_l·y_l over the batch, with fixed output weights,
    /// checked against finite differences for every parameter.
    #[test]
    fn parameter_gradients_match_finite_differences() {
        for act in [Activation::Tanh, Activation::Relu] {
            let net = small_net(act);
            let x = Matrix::from_rows(&[&[0.3, -0.1, 0.8], &[-0.5, 0.2, 0.4]]);
            let wsum = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 1.5]]);
            let loss = |n: &Mlp| -> f64 {
                let y = n.forward(&x);
                y.hadamard(&wsum).as_slice().iter().sum()
            };
            let mut ws = TrainWorkspace::new();
            net.forward_ws(&x, &mut ws);
            net.backward_ws(&mut ws, &wsum);
            let grads = ws.gradients();

            let h = 1e-6;
            for k in 0..net.num_layers() {
                for i in 0..net.layers[k].w.rows() {
                    for j in 0..net.layers[k].w.cols() {
                        let mut np = net.clone();
                        np.layers[k].w[(i, j)] += h;
                        let mut nm = net.clone();
                        nm.layers[k].w[(i, j)] -= h;
                        let fd = (loss(&np) - loss(&nm)) / (2.0 * h);
                        assert!(
                            (grads.dw[k][(i, j)] - fd).abs() < 1e-5,
                            "dW[{k}][{i},{j}] {act:?}: {} vs {}",
                            grads.dw[k][(i, j)],
                            fd
                        );
                    }
                    let mut np = net.clone();
                    np.layers[k].b[i] += h;
                    let mut nm = net.clone();
                    nm.layers[k].b[i] -= h;
                    let fd = (loss(&np) - loss(&nm)) / (2.0 * h);
                    assert!(
                        (grads.db[k][i] - fd).abs() < 1e-5,
                        "db[{k}][{i}] {act:?}: {} vs {}",
                        grads.db[k][i],
                        fd
                    );
                }
            }
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        for act in [Activation::Tanh, Activation::Relu] {
            let net = small_net(act);
            let x = Matrix::from_rows(&[&[0.3, -0.1, 0.8]]);
            let wsum = Matrix::from_rows(&[&[1.0, -2.0]]);
            let mut ws = TrainWorkspace::new();
            net.forward_ws(&x, &mut ws);
            net.backward_ws(&mut ws, &wsum);
            let gin = ws.input_gradient();
            let h = 1e-6;
            for j in 0..3 {
                let mut xp = x.clone();
                xp[(0, j)] += h;
                let mut xm = x.clone();
                xm[(0, j)] -= h;
                let lp: f64 = net.forward(&xp).hadamard(&wsum).as_slice().iter().sum();
                let lm: f64 = net.forward(&xm).hadamard(&wsum).as_slice().iter().sum();
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (gin[(0, j)] - fd).abs() < 1e-5,
                    "dX[{j}] {act:?}: {} vs {}",
                    gin[(0, j)],
                    fd
                );
            }
        }
    }

    #[test]
    fn gradient_norm_and_scaling() {
        let net = small_net(Activation::Tanh);
        let x = Matrix::from_rows(&[&[0.3, -0.1, 0.8]]);
        let mut ws = TrainWorkspace::new();
        net.forward_ws(&x, &mut ws);
        net.backward_ws(&mut ws, &Matrix::from_rows(&[&[1.0, 1.0]]));
        let g = ws.gradients_mut();
        let n0 = g.norm_sq();
        assert!(n0 > 0.0);
        g.scale(0.5);
        assert!((g.norm_sq() - 0.25 * n0).abs() < 1e-10 * n0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let net = small_net(Activation::Relu);
        let x = Matrix::zeros(1, 4);
        net.forward(&x);
    }

    #[test]
    #[should_panic(expected = "need at least input and output sizes")]
    fn constructor_rejects_single_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&[3], Activation::Relu, &mut rng);
    }
}
