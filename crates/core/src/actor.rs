//! The actor network: proposes design changes, trained through the frozen
//! critic (paper Eq. 5 and Eq. 6).

use linalg::Matrix;
use nn::{Activation, Adam, Mlp, TrainWorkspace};
use opt::Fom;
use rand::Rng;

use crate::config::DnnOptConfig;
use crate::critic::Critic;

/// A trained actor: maps a design `x` (unit cube) to a proposed change
/// `Δx = µ(x|θµ)`.
#[derive(Debug, Clone)]
pub struct Actor {
    net: Mlp,
    dim: usize,
}

impl Actor {
    /// Trains a fresh actor against a frozen critic (paper Alg. 1 line 6).
    ///
    /// Loss (Eq. 5): mean over the batch of
    /// `g[Q(x, µ(x))] + ‖λ·viol‖²` where `viol` (Eq. 6) measures how far
    /// `x + µ(x)` leaves the elite bounding box `[lb_rest, ub_rest]`.
    /// Gradients flow through the critic's inputs into the actor's
    /// parameters; the critic's parameters stay fixed.
    ///
    /// # Panics
    ///
    /// Panics on empty batches or inconsistent dimensions.
    pub fn train<R: Rng + ?Sized>(
        cfg: &DnnOptConfig,
        critic: &Critic,
        fom: &Fom,
        batch: &[Vec<f64>],
        lb_rest: &[f64],
        ub_rest: &[f64],
        rng: &mut R,
    ) -> Self {
        assert!(!batch.is_empty(), "cannot train an actor without a batch");
        let d = critic.dim();
        assert_eq!(batch[0].len(), d, "batch dimension mismatch");
        assert!(
            lb_rest.len() == d && ub_rest.len() == d,
            "bounds dimension mismatch"
        );

        let mut sizes = vec![d];
        for _ in 0..cfg.depth {
            sizes.push(cfg.hidden);
        }
        sizes.push(d);
        let mut net = Mlp::new(&sizes, Activation::Relu, rng);
        // DDPG-style near-zero output initialization: the untrained actor
        // proposes Δx ≈ 0 (stay at the elite design) and learns to deviate,
        // instead of starting from large random jumps that the boundary
        // penalty must first fight down.
        net.scale_output_layer(1e-3);
        let mut adam = Adam::new(cfg.actor_lr);

        let nb = batch.len();
        let x_mat = Matrix::from_fn(nb, d, |i, j| batch[i][j]);

        // Every per-epoch buffer — the actor's and critic's forward/backward
        // state, the (x, Δx) batch, raw specs, and all gradient matrices —
        // is allocated once here and reused for all `actor_epochs` steps.
        let mut actor_ws = TrainWorkspace::new();
        let mut critic_ws = TrainWorkspace::new();
        let mut xdx = Matrix::default();
        let mut raw = Matrix::default();
        let mut grad_raw = Matrix::default();
        let mut grad_scaled = Matrix::default();
        let mut grad_dx = Matrix::default();
        let mut fom_grad = vec![0.0; critic.num_specs()];

        // The x-half of the (x, Δx) critic batch never changes: write it
        // once and overwrite only the Δx half per epoch.
        xdx.reshape_zeroed(nb, 2 * d);
        for i in 0..nb {
            xdx.row_mut(i)[..d].copy_from_slice(x_mat.row(i));
        }
        grad_raw.reshape_zeroed(nb, critic.num_specs());
        grad_dx.reshape_zeroed(nb, d);
        for _ in 0..cfg.actor_epochs {
            // Forward: actor proposes Δx; critic evaluates (x, Δx).
            net.forward_ws(&x_mat, &mut actor_ws);
            let dx = actor_ws.output();
            for i in 0..nb {
                xdx.row_mut(i)[d..].copy_from_slice(dx.row(i));
            }
            critic.forward_scaled_ws(&xdx, &mut critic_ws, &mut raw);

            // dL/d(raw specs): FoM subgradient per row, averaged.
            for i in 0..nb {
                fom.value_and_grad_into(raw.row(i), &mut fom_grad);
                for (g, &gj) in grad_raw.row_mut(i).iter_mut().zip(&fom_grad) {
                    *g = gj / nb as f64;
                }
            }
            // Back through the critic to its inputs; keep the Δx half.
            let grad_inputs =
                critic.backward_to_inputs_ws(&mut critic_ws, &grad_raw, &mut grad_scaled);
            for i in 0..nb {
                grad_dx.row_mut(i).copy_from_slice(&grad_inputs.row(i)[d..]);
            }
            // Boundary-violation penalty (Eq. 6): viol = max(0, lb−(x+Δx))
            // + max(0, (x+Δx)−ub); L += ‖λ·viol‖² (mean over batch).
            let dx = actor_ws.output();
            for i in 0..nb {
                let grow = grad_dx.row_mut(i);
                let xrow = x_mat.row(i);
                let dxrow = dx.row(i);
                for j in 0..d {
                    let xn = xrow[j] + dxrow[j];
                    let v_lb = (lb_rest[j] - xn).max(0.0);
                    let v_ub = (xn - ub_rest[j]).max(0.0);
                    let lam2 = cfg.lambda * cfg.lambda;
                    grow[j] += 2.0 * lam2 * (v_ub - v_lb) / nb as f64;
                }
            }
            // Backpropagate into the actor parameters only (the gradient
            // with respect to the elite designs is never used, so the
            // params-only pass skips the first layer's propagation GEMM).
            net.backward_params_ws(&mut actor_ws, &grad_dx);
            adam.step(&mut net, actor_ws.gradients());
        }
        Actor { net, dim: d }
    }

    /// Proposes changes for a batch of designs (rows).
    ///
    /// # Panics
    ///
    /// Panics if the width differs from the design dimensionality.
    pub fn propose(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.dim, "actor input width mismatch");
        self.net.forward(x)
    }

    /// Proposes a change for one design.
    pub fn propose_one(&self, x: &[f64]) -> Vec<f64> {
        let m = Matrix::from_vec(1, self.dim, x.to_vec());
        self.propose(&m).row(0).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Builds a critic on a known quadratic bowl (min at 0.3) and checks
    /// the actor proposes steps that improve the predicted FoM.
    fn bowl_setup(rng: &mut StdRng) -> (Critic, Vec<Vec<f64>>, Vec<Vec<f64>>) {
        use rand::Rng;
        let mut xs = Vec::new();
        let mut fs = Vec::new();
        for _ in 0..80 {
            let x: Vec<f64> = (0..2).map(|_| rng.gen::<f64>()).collect();
            let f0: f64 = x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum();
            fs.push(vec![f0]);
            xs.push(x);
        }
        let cfg = DnnOptConfig {
            critic_epochs: 800,
            critic_batch: 256,
            ..Default::default()
        };
        let critic = Critic::train(&cfg, &xs, &fs, rng);
        (critic, xs, fs)
    }

    #[test]
    fn actor_descends_the_critic_landscape() {
        let mut rng = StdRng::seed_from_u64(21);
        let (critic, xs, fs) = bowl_setup(&mut rng);
        let fom = Fom::uniform(1.0, 0);
        let cfg = DnnOptConfig {
            actor_epochs: 150,
            ..Default::default()
        };
        // Elite = best 10 designs by f0.
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| fs[a][0].partial_cmp(&fs[b][0]).unwrap());
        let elite: Vec<Vec<f64>> = idx[..10].iter().map(|&i| xs[i].clone()).collect();
        let actor = Actor::train(
            &cfg,
            &critic,
            &fom,
            &elite,
            &[0.0, 0.0],
            &[1.0, 1.0],
            &mut rng,
        );
        // Proposed steps should reduce the *true* objective for most of the
        // elite designs.
        let mut improved = 0;
        for x in &elite {
            let dx = actor.propose_one(x);
            let before: f64 = x.iter().map(|v| (v - 0.3) * (v - 0.3)).sum();
            let after: f64 = x
                .iter()
                .zip(&dx)
                .map(|(v, d)| {
                    let xn = (v + d).clamp(0.0, 1.0);
                    (xn - 0.3) * (xn - 0.3)
                })
                .sum();
            if after < before + 1e-9 {
                improved += 1;
            }
        }
        assert!(improved >= 7, "only {improved}/10 elite designs improved");
    }

    #[test]
    fn boundary_penalty_keeps_proposals_inside() {
        let mut rng = StdRng::seed_from_u64(22);
        let (critic, xs, _) = bowl_setup(&mut rng);
        let fom = Fom::uniform(1.0, 0);
        let cfg = DnnOptConfig {
            actor_epochs: 200,
            lambda: 100.0,
            ..Default::default()
        };
        // A tight restricted box around 0.6: the bowl minimum (0.3) lies
        // outside, so the unpenalized actor would walk out.
        let lb = [0.55, 0.55];
        let ub = [0.65, 0.65];
        let batch: Vec<Vec<f64>> = xs
            .iter()
            .filter(|x| x.iter().all(|&v| (0.55..=0.65).contains(&v)))
            .cloned()
            .chain(std::iter::once(vec![0.6, 0.6]))
            .collect();
        let actor = Actor::train(&cfg, &critic, &fom, &batch, &lb, &ub, &mut rng);
        for x in &batch {
            let dx = actor.propose_one(x);
            for j in 0..2 {
                let xn = x[j] + dx[j];
                assert!(
                    xn > lb[j] - 0.05 && xn < ub[j] + 0.05,
                    "proposal {xn} strays far outside the restricted box"
                );
            }
        }
    }

    #[test]
    fn propose_shapes() {
        let mut rng = StdRng::seed_from_u64(23);
        let (critic, xs, _) = bowl_setup(&mut rng);
        let fom = Fom::uniform(1.0, 0);
        let cfg = DnnOptConfig {
            actor_epochs: 2,
            ..Default::default()
        };
        let actor = Actor::train(
            &cfg,
            &critic,
            &fom,
            &xs[..5],
            &[0.0, 0.0],
            &[1.0, 1.0],
            &mut rng,
        );
        let out = actor.propose(&Matrix::zeros(3, 2));
        assert_eq!(out.rows(), 3);
        assert_eq!(out.cols(), 2);
        assert_eq!(actor.propose_one(&[0.5, 0.5]).len(), 2);
    }
}
