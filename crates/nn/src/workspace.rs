//! Preallocated training state: forward caches, gradient buffers, GEMM
//! pack buffers, and scratch matrices, reused across every epoch of a
//! training loop.
//!
//! Every dense-layer product runs through `linalg`'s register-tiled GEMM
//! engine with a **fused epilogue**:
//!
//! - forward: `acts[k+1] = act(acts[k]·Wᵀ + b)` is one GEMM whose output
//!   tiles receive the bias-add and activation in place, each block of
//!   register rows right after its last accumulation panel, while it is
//!   still in L1 — no pre-activation matrix is materialized and no second
//!   pass touches the output;
//! - backward: the delta propagation `δ_{k-1} = (δ_k·W) ⊙ act'(a)` fuses
//!   the activation-derivative product into the propagation GEMM's output
//!   tiles, with the derivative computed from the stored activation
//!   *outputs* (ReLU: `a > 0`; tanh: `1 − a²`);
//! - the `Activation` dispatch is monomorphized per variant, so the inner
//!   loops contain no per-element `match`.
//!
//! A [`TrainWorkspace`] owns all buffers, including the
//! [`linalg::GemmWorkspace`] panel, so one full forward + backward +
//! Adam step performs **zero heap allocations** once the buffers are warm.
//! [`train_step_mse_ws`] computes only what the weights depend on: the
//! loss gradient, written straight into the backward pass's delta buffer,
//! never the loss value.

use linalg::{gemm, gemm_with, Epilogue, GemmOp, GemmWorkspace, Matrix};

use crate::mlp::{ActFn, Activation, Gradients, Mlp, ReluAct, TanhAct};
use crate::Adam;

/// Reusable buffers for [`Mlp::forward_ws`] / [`Mlp::backward_ws`] and
/// [`crate::train_step_mse_ws`]. One workspace serves one network shape at
/// a time and adapts automatically when handed a different one.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use nn::{Activation, Adam, Mlp, TrainWorkspace};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut net = Mlp::new(&[1, 16, 1], Activation::Tanh, &mut rng);
/// let x = Matrix::from_fn(32, 1, |i, _| i as f64 / 32.0);
/// let y = x.map(|v| (2.0 * v).sin());
/// let mut adam = Adam::new(1e-2);
/// let mut ws = TrainWorkspace::new();
/// for _ in 0..800 {
///     nn::train_step_mse_ws(&mut net, &mut adam, &x, &y, &mut ws);
/// }
/// let pred = net.forward(&x);
/// assert!(nn::mse(&pred, &y) < 5e-3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrainWorkspace {
    /// `acts[k]` is the activation entering layer `k`; `acts[L]` is the
    /// network output. (Pre-activations are never stored: the backward
    /// pass derives `act'` from these outputs.)
    pub(crate) acts: Vec<Matrix>,
    /// Current backpropagated `∂L/∂z`.
    pub(crate) delta: Matrix,
    /// Double buffer for propagating `delta` through a layer.
    pub(crate) delta_tmp: Matrix,
    /// Parameter gradients, shaped like the network.
    pub(crate) grads: Gradients,
    /// GEMM pack panels shared by every layer's products.
    pub(crate) gemm: GemmWorkspace,
}

impl TrainWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-layer buffers to match `net` (no-op when they already
    /// do).
    fn ensure(&mut self, net: &Mlp) {
        let layers = net.num_layers();
        self.acts.resize_with(layers + 1, || Matrix::zeros(0, 0));
        self.grads.dw.resize_with(layers, || Matrix::zeros(0, 0));
        self.grads.db.resize_with(layers, Vec::new);
    }

    /// The parameter gradients of the last [`Mlp::backward_ws`] call.
    pub fn gradients(&self) -> &Gradients {
        &self.grads
    }

    /// Mutable access (for gradient clipping before the optimizer step).
    pub fn gradients_mut(&mut self) -> &mut Gradients {
        &mut self.grads
    }

    /// The `∂L/∂input` batch of the last [`Mlp::backward_ws`] call.
    pub fn input_gradient(&self) -> &Matrix {
        &self.delta
    }

    /// The network output of the last [`Mlp::forward_ws`] call.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has been recorded yet.
    pub fn output(&self) -> &Matrix {
        assert!(
            !self.acts.is_empty(),
            "no forward pass recorded in this workspace"
        );
        &self.acts[self.acts.len() - 1]
    }
}

/// Output-layer epilogue: adds the layer bias inside the GEMM output tile.
struct BiasEpilogue<'a> {
    bias: &'a [f64],
}

impl Epilogue for BiasEpilogue<'_> {
    #[inline]
    fn apply(&mut self, _row: usize, col0: usize, seg: &mut [f64]) {
        let bias = &self.bias[col0..col0 + seg.len()];
        for (v, &b) in seg.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Hidden-layer epilogue: bias-add and activation fused into the GEMM
/// output tile, monomorphized over the activation.
struct BiasActEpilogue<'a, A: ActFn> {
    bias: &'a [f64],
    _act: std::marker::PhantomData<A>,
}

impl<'a, A: ActFn> BiasActEpilogue<'a, A> {
    fn new(bias: &'a [f64]) -> Self {
        BiasActEpilogue {
            bias,
            _act: std::marker::PhantomData,
        }
    }
}

impl<A: ActFn> Epilogue for BiasActEpilogue<'_, A> {
    #[inline]
    fn apply(&mut self, _row: usize, col0: usize, seg: &mut [f64]) {
        let bias = &self.bias[col0..col0 + seg.len()];
        for (v, &b) in seg.iter_mut().zip(bias) {
            *v = A::apply(*v + b);
        }
    }
}

/// Backward-propagation epilogue: multiplies the freshly propagated delta
/// tile by the activation derivative, read from the stored activation
/// outputs of the same positions.
struct ActPrimeEpilogue<'a, A: ActFn> {
    act_out: &'a Matrix,
    _act: std::marker::PhantomData<A>,
}

impl<'a, A: ActFn> ActPrimeEpilogue<'a, A> {
    fn new(act_out: &'a Matrix) -> Self {
        ActPrimeEpilogue {
            act_out,
            _act: std::marker::PhantomData,
        }
    }
}

impl<A: ActFn> Epilogue for ActPrimeEpilogue<'_, A> {
    #[inline]
    fn apply(&mut self, row: usize, col0: usize, seg: &mut [f64]) {
        let a = &self.act_out.row(row)[col0..col0 + seg.len()];
        for (v, &av) in seg.iter_mut().zip(a) {
            *v *= A::deriv_from_output(av);
        }
    }
}

/// One layer product `x_in · Wᵀ` with the given fused epilogue.
#[inline]
fn layer_gemm<E: Epilogue>(
    x_in: &Matrix,
    w: &Matrix,
    out: &mut Matrix,
    gemm_ws: &mut GemmWorkspace,
    epi: &mut E,
) {
    gemm_with(
        GemmOp::NoTrans,
        GemmOp::Trans,
        1.0,
        x_in,
        w,
        0.0,
        out,
        gemm_ws,
        epi,
    );
}

/// One delta propagation `δ · W` with the given fused epilogue.
#[inline]
fn prop_gemm<E: Epilogue>(
    delta: &Matrix,
    w: &Matrix,
    out: &mut Matrix,
    gemm_ws: &mut GemmWorkspace,
    epi: &mut E,
) {
    gemm_with(
        GemmOp::NoTrans,
        GemmOp::NoTrans,
        1.0,
        delta,
        w,
        0.0,
        out,
        gemm_ws,
        epi,
    );
}

impl Mlp {
    /// Forward pass on a batch using preallocated buffers; the output and
    /// the cache needed by [`Mlp::backward_ws`] land in `ws`. Each layer is
    /// a single fused GEMM (`x·Wᵀ` with bias + activation applied in the
    /// output tiles). Allocation free once `ws` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` differs from the input dimensionality.
    pub fn forward_ws<'w>(&self, x: &Matrix, ws: &'w mut TrainWorkspace) -> &'w Matrix {
        assert_eq!(x.cols(), self.input_dim(), "input width mismatch");
        ws.ensure(self);
        let last = self.num_layers() - 1;
        ws.acts[0].copy_from(x);
        for k in 0..=last {
            let (w, b) = self.layer(k);
            let (head, tail) = ws.acts.split_at_mut(k + 1);
            let x_in = &head[k];
            let out = &mut tail[0];
            if k < last {
                match self.activation() {
                    Activation::Relu => layer_gemm(
                        x_in,
                        w,
                        out,
                        &mut ws.gemm,
                        &mut BiasActEpilogue::<ReluAct>::new(b),
                    ),
                    Activation::Tanh => layer_gemm(
                        x_in,
                        w,
                        out,
                        &mut ws.gemm,
                        &mut BiasActEpilogue::<TanhAct>::new(b),
                    ),
                }
            } else {
                // Linear output layer: bias-add only.
                layer_gemm(x_in, w, out, &mut ws.gemm, &mut BiasEpilogue { bias: b });
            }
        }
        ws.output()
    }

    /// Reverse-mode pass over the state of the last [`Mlp::forward_ws`]
    /// call: fills `ws.gradients()` and `ws.input_gradient()` without
    /// allocating. The weight gradient (`δᵀ·x`) and delta propagation
    /// (`δ·W`, with the activation derivative fused into the output tiles)
    /// are each one GEMM per layer.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the cached batch.
    pub fn backward_ws(&self, ws: &mut TrainWorkspace, grad_out: &Matrix) {
        self.backward_ws_impl(ws, grad_out, true, true);
    }

    /// [`Mlp::backward_ws`] without the final propagation into the input
    /// batch: fills `ws.gradients()` only, skipping the first layer's
    /// `δ·W` GEMM entirely. The parameter-training fast path (plain MSE
    /// steps, actor updates) — `ws.input_gradient()` is *not* valid after
    /// this call.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the cached batch.
    pub fn backward_params_ws(&self, ws: &mut TrainWorkspace, grad_out: &Matrix) {
        self.backward_ws_impl(ws, grad_out, true, false);
    }

    /// [`Mlp::backward_ws`] without the parameter gradients: propagates the
    /// delta to `ws.input_gradient()` only, skipping every layer's `δᵀ·x`
    /// GEMM and bias sum. The frozen-network path (gradients *through* the
    /// DNN-Opt critic into the actor) — `ws.gradients()` is *not* valid
    /// after this call.
    ///
    /// # Panics
    ///
    /// Panics if the gradient shape does not match the cached batch.
    pub fn backward_input_ws(&self, ws: &mut TrainWorkspace, grad_out: &Matrix) {
        self.backward_ws_impl(ws, grad_out, false, true);
    }

    fn backward_ws_impl(
        &self,
        ws: &mut TrainWorkspace,
        grad_out: &Matrix,
        param_grads: bool,
        input_grad: bool,
    ) {
        assert_eq!(
            grad_out.cols(),
            self.output_dim(),
            "gradient width mismatch"
        );
        assert_eq!(
            grad_out.rows(),
            ws.acts[0].rows(),
            "gradient batch mismatch"
        );
        ws.delta.copy_from(grad_out);
        self.backprop(ws, param_grads, input_grad);
    }

    /// The reverse-mode pass of the `backward_*_ws` methods, starting from
    /// the output gradient already held in `ws.delta`.
    fn backprop(&self, ws: &mut TrainWorkspace, param_grads: bool, input_grad: bool) {
        let last = self.num_layers() - 1;
        for k in (0..=last).rev() {
            if param_grads {
                // dW[k] = δᵀ·x_in without materializing the transpose.
                gemm(
                    GemmOp::Trans,
                    GemmOp::NoTrans,
                    1.0,
                    &ws.delta,
                    &ws.acts[k],
                    0.0,
                    &mut ws.grads.dw[k],
                    &mut ws.gemm,
                );
                // db[k] = column sums of δ, one row-major pass.
                let db = &mut ws.grads.db[k];
                db.clear();
                db.resize(ws.delta.cols(), 0.0);
                for i in 0..ws.delta.rows() {
                    for (s, &d) in db.iter_mut().zip(ws.delta.row(i)) {
                        *s += d;
                    }
                }
            }
            // Propagate to the layer input. For k > 0 the destination is a
            // hidden activation, so the propagation GEMM fuses the
            // activation-derivative product (δ ⊙ act'(acts[k])) into its
            // output tiles; for k == 0 it is the plain input gradient.
            let (w, _) = self.layer(k);
            if k > 0 {
                match self.activation() {
                    Activation::Relu => prop_gemm(
                        &ws.delta,
                        w,
                        &mut ws.delta_tmp,
                        &mut ws.gemm,
                        &mut ActPrimeEpilogue::<ReluAct>::new(&ws.acts[k]),
                    ),
                    Activation::Tanh => prop_gemm(
                        &ws.delta,
                        w,
                        &mut ws.delta_tmp,
                        &mut ws.gemm,
                        &mut ActPrimeEpilogue::<TanhAct>::new(&ws.acts[k]),
                    ),
                }
            } else if input_grad {
                prop_gemm(
                    &ws.delta,
                    w,
                    &mut ws.delta_tmp,
                    &mut ws.gemm,
                    &mut linalg::NoEpilogue,
                );
            } else {
                // Parameter-only pass: the input gradient is never used,
                // so skip the first layer's propagation GEMM.
                break;
            }
            std::mem::swap(&mut ws.delta, &mut ws.delta_tmp);
        }
    }
}

/// One full-batch MSE gradient step using preallocated buffers: forward,
/// backward and Adam update with zero per-step allocations. The loss itself
/// is never summed: the step needs only its gradient. After the step,
/// `ws.output()` still holds the pre-step predictions, from which
/// [`crate::train_step_mse`] computes the pre-step loss.
pub fn train_step_mse_ws(
    net: &mut Mlp,
    adam: &mut Adam,
    x: &Matrix,
    y: &Matrix,
    ws: &mut TrainWorkspace,
) {
    telemetry::record(telemetry::Metric::TrainSteps, 1);
    net.forward_ws(x, ws);
    // The loss gradient goes straight into the backward pass's delta
    // buffer; plain training never reads the input gradient, so the pass
    // is parameter-only.
    mse_gradient_into(&ws.acts[ws.acts.len() - 1], y, &mut ws.delta);
    net.backprop(ws, true, false);
    adam.step(net, &ws.grads);
}

/// The gradient of [`crate::mse`] in the predictions, `2(pred − target)/n`,
/// into `grad` (reshaped to fit; every element is written).
fn mse_gradient_into(pred: &Matrix, y: &Matrix, grad: &mut Matrix) {
    assert_eq!(
        (pred.rows(), pred.cols()),
        (y.rows(), y.cols()),
        "mse: shape mismatch"
    );
    let n = (pred.rows() * pred.cols()) as f64;
    grad.reshape_for_overwrite(pred.rows(), pred.cols());
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(y.as_slice())
    {
        *g = 2.0 * (p - t) / n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_net() -> Mlp {
        let mut rng = StdRng::seed_from_u64(3);
        Mlp::new(&[3, 5, 4, 2], Activation::Tanh, &mut rng)
    }

    #[test]
    fn forward_ws_matches_forward() {
        let net = small_net();
        let x = Matrix::from_fn(6, 3, |i, j| (i as f64 - j as f64) * 0.2);
        let y = net.forward(&x);
        let mut ws = TrainWorkspace::new();
        let y_ws = net.forward_ws(&x, &mut ws).clone();
        assert_eq!(y, y_ws);
        // Reuse with a different batch size.
        let x2 = Matrix::from_fn(2, 3, |i, j| (i * j) as f64 * 0.1);
        let y2 = net.forward(&x2);
        assert_eq!(&y2, net.forward_ws(&x2, &mut ws));
    }

    /// The loss gradient the step backpropagates, `2(pred − target)/n`,
    /// against central differences of [`crate::mse`] in the predictions.
    #[test]
    fn train_step_loss_gradient_matches_finite_difference() {
        let net = small_net();
        let x = Matrix::from_fn(2, 3, |i, j| (i as f64 - j as f64) * 0.4);
        let y = Matrix::from_rows(&[&[0.0, 1.0], &[0.2, -1.0]]);
        let pred = net.forward(&x);
        // A stale, wrongly shaped buffer: every element must be rewritten.
        let mut grad = Matrix::from_fn(3, 3, |_, _| f64::NAN);
        mse_gradient_into(&pred, &y, &mut grad);
        let h = 1e-6;
        for i in 0..2 {
            for j in 0..2 {
                let mut pp = pred.clone();
                pp[(i, j)] += h;
                let mut pm = pred.clone();
                pm[(i, j)] -= h;
                let fd = (crate::mse(&pp, &y) - crate::mse(&pm, &y)) / (2.0 * h);
                assert!((grad[(i, j)] - fd).abs() < 1e-8);
            }
        }
    }

    /// The fused bias/activation epilogues must agree bit-for-bit with the
    /// separate-pass formulation (plain GEMM, then explicit bias-add and
    /// activation loops) — the epilogue only relocates the same arithmetic
    /// into the output tiles.
    #[test]
    fn fused_epilogues_match_separate_passes() {
        for act in [Activation::Tanh, Activation::Relu] {
            let mut rng = StdRng::seed_from_u64(17);
            // Batch of 64: several register tiles of rows per product.
            let net = Mlp::new(&[9, 7, 2], act, &mut rng);
            let x = Matrix::from_fn(64, 9, |i, j| ((i * 3 + j) as f64 * 0.11).sin());
            let mut ws = TrainWorkspace::new();
            net.forward_ws(&x, &mut ws);

            // Separate-pass hidden layer: GEMM, then bias, then activation.
            let (w0, b0) = net.layer(0);
            let mut z = Matrix::default();
            let mut gw = linalg::GemmWorkspace::new();
            gemm(
                GemmOp::NoTrans,
                GemmOp::Trans,
                1.0,
                &x,
                w0,
                0.0,
                &mut z,
                &mut gw,
            );
            for i in 0..z.rows() {
                for (v, &b) in z.row_mut(i).iter_mut().zip(b0) {
                    *v += b;
                }
            }
            z.map_inplace(|v| match act {
                Activation::Relu => v.max(0.0),
                Activation::Tanh => v.tanh(),
            });
            assert_eq!(z, ws.acts[1], "fused hidden layer diverged ({act:?})");

            // Separate-pass backward: propagate then multiply by act'.
            let grad_out = Matrix::from_fn(64, 2, |i, j| (i as f64 - 30.0) * (j as f64 + 0.5));
            net.backward_ws(&mut ws, &grad_out);
            let (w1, _) = net.layer(1);
            let mut prop = Matrix::default();
            gemm(
                GemmOp::NoTrans,
                GemmOp::NoTrans,
                1.0,
                &grad_out,
                w1,
                0.0,
                &mut prop,
                &mut gw,
            );
            let a1 = &ws.acts[1];
            let expect_delta = Matrix::from_fn(prop.rows(), prop.cols(), |i, j| {
                let d = match act {
                    Activation::Relu => {
                        if a1[(i, j)] > 0.0 {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    Activation::Tanh => 1.0 - a1[(i, j)] * a1[(i, j)],
                };
                prop[(i, j)] * d
            });
            // dW[0] = (δ ⊙ act')ᵀ · x — recompute from the separate-pass δ.
            let mut expect_dw0 = Matrix::default();
            gemm(
                GemmOp::Trans,
                GemmOp::NoTrans,
                1.0,
                &expect_delta,
                &x,
                0.0,
                &mut expect_dw0,
                &mut gw,
            );
            assert_eq!(
                expect_dw0,
                ws.gradients().dw[0],
                "fused backward diverged ({act:?})"
            );
        }
    }
}
