//! The figure-of-merit function of paper Eq. 4.

use crate::problem::SpecResult;

/// Figure of Merit (paper Eq. 4, lower is better):
///
/// ```text
/// g[f(x)] = w0·f0(x) + Σ_i min(1, max(0, wi·fi(x)))
/// ```
///
/// The `max(0, ·)` clip equates designs once a constraint is met; the
/// `min(1, ·)` clip stops a single badly violated constraint from dominating
/// the sum. A fully feasible design therefore has `g = w0·f0`, and each
/// violated constraint adds at most 1.
///
/// # Example
///
/// ```
/// use opt::{Fom, SpecResult};
///
/// let fom = Fom::new(0.1, vec![1.0, 1.0]);
/// let feasible = SpecResult { failure: None, objective: 2.0, constraints: vec![-1.0, 0.0] };
/// assert!((fom.value(&feasible) - 0.2).abs() < 1e-12);
/// let violated = SpecResult { failure: None, objective: 2.0, constraints: vec![50.0, 0.5] };
/// assert!((fom.value(&violated) - (0.2 + 1.0 + 0.5)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Fom {
    /// Objective weight `w0`.
    pub w0: f64,
    /// Per-constraint weights `wi`.
    pub weights: Vec<f64>,
}

impl Fom {
    /// Creates a FoM with explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn new(w0: f64, weights: Vec<f64>) -> Self {
        assert!(w0.is_finite() && w0 >= 0.0, "w0 must be non-negative");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "constraint weights must be non-negative"
        );
        Fom { w0, weights }
    }

    /// Uniform weights: `w0 = obj_weight`, all constraint weights 1.
    pub fn uniform(obj_weight: f64, num_constraints: usize) -> Self {
        Self::new(obj_weight, vec![1.0; num_constraints])
    }

    /// Number of constraints this FoM expects.
    pub fn num_constraints(&self) -> usize {
        self.weights.len()
    }

    /// Evaluates Eq. 4 on a spec result.
    ///
    /// # Panics
    ///
    /// Panics if the constraint count disagrees with the weights.
    pub fn value(&self, spec: &SpecResult) -> f64 {
        assert_eq!(
            spec.constraints.len(),
            self.weights.len(),
            "constraint count mismatch"
        );
        let mut g = self.w0 * spec.objective;
        for (c, w) in spec.constraints.iter().zip(&self.weights) {
            g += (w * c).clamp(0.0, 1.0);
        }
        g
    }

    /// Evaluates Eq. 4 on the raw `[f0, f1, …, fm]` vector layout used by
    /// the critic network.
    ///
    /// # Panics
    ///
    /// Panics if `f.len() != 1 + num_constraints`.
    pub fn value_of_vector(&self, f: &[f64]) -> f64 {
        assert_eq!(
            f.len(),
            1 + self.weights.len(),
            "spec vector length mismatch"
        );
        let mut g = self.w0 * f[0];
        for (c, w) in f[1..].iter().zip(&self.weights) {
            g += (w * c).clamp(0.0, 1.0);
        }
        g
    }

    /// Eq. 4 value together with its (sub)gradient with respect to the spec
    /// vector `[f0, f1, …, fm]` — the derivative the actor-network training
    /// backpropagates through the critic. At the clip corners the
    /// zero-branch subgradient is chosen.
    pub fn value_and_grad(&self, f: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![0.0; f.len()];
        let g = self.value_and_grad_into(f, &mut grad);
        (g, grad)
    }

    /// [`Fom::value_and_grad`] writing the gradient into a caller-owned
    /// slice — the allocation-free path of the actor's training loop.
    ///
    /// # Panics
    ///
    /// Panics if `f.len()` or `grad.len()` differs from
    /// `1 + num_constraints`.
    pub fn value_and_grad_into(&self, f: &[f64], grad: &mut [f64]) -> f64 {
        assert_eq!(
            f.len(),
            1 + self.weights.len(),
            "spec vector length mismatch"
        );
        assert_eq!(grad.len(), f.len(), "gradient length mismatch");
        let mut g = self.w0 * f[0];
        grad[0] = self.w0;
        for (i, (c, w)) in f[1..].iter().zip(&self.weights).enumerate() {
            let u = w * c;
            g += u.clamp(0.0, 1.0);
            grad[i + 1] = if u > 0.0 && u < 1.0 { *w } else { 0.0 };
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(obj: f64, cons: &[f64]) -> SpecResult {
        SpecResult {
            failure: None,
            objective: obj,
            constraints: cons.to_vec(),
        }
    }

    #[test]
    fn feasible_design_scores_objective_only() {
        let fom = Fom::uniform(1.0, 3);
        let s = spec(0.42, &[-1.0, -0.5, 0.0]);
        assert!((fom.value(&s) - 0.42).abs() < 1e-15);
    }

    #[test]
    fn violations_are_clipped_at_one() {
        let fom = Fom::uniform(0.0, 2);
        let s = spec(0.0, &[1e9, 1e9]);
        assert!((fom.value(&s) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn partial_violations_add_linearly() {
        let fom = Fom::new(0.0, vec![2.0, 4.0]);
        let s = spec(0.0, &[0.25, 0.1]); // 2·0.25=0.5, 4·0.1=0.4
        assert!((fom.value(&s) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn value_of_vector_matches_value() {
        let fom = Fom::new(0.3, vec![1.0, 0.5]);
        let s = spec(2.0, &[0.7, -0.2]);
        assert!((fom.value(&s) - fom.value_of_vector(&s.as_vector())).abs() < 1e-15);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let fom = Fom::new(0.3, vec![1.5, 0.5, 2.0]);
        let f = vec![1.2, 0.4, -0.3, 0.15]; // mixes active, inactive, active
        let (_, grad) = fom.value_and_grad(&f);
        let h = 1e-7;
        for i in 0..f.len() {
            let mut fp = f.clone();
            fp[i] += h;
            let mut fm = f.clone();
            fm[i] -= h;
            let fd = (fom.value_of_vector(&fp) - fom.value_of_vector(&fm)) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-6,
                "grad[{i}]: {} vs {}",
                grad[i],
                fd
            );
        }
    }

    #[test]
    fn gradient_is_zero_in_clipped_regions() {
        let fom = Fom::new(0.0, vec![1.0, 1.0]);
        // First constraint deeply satisfied, second saturated at the cap.
        let (_, grad) = fom.value_and_grad(&[0.0, -5.0, 7.0]);
        assert_eq!(grad[1], 0.0);
        assert_eq!(grad[2], 0.0);
    }

    #[test]
    fn fom_decreases_as_violation_shrinks() {
        let fom = Fom::uniform(0.0, 1);
        let worse = fom.value(&spec(0.0, &[0.8]));
        let better = fom.value(&spec(0.0, &[0.2]));
        assert!(better < worse);
    }

    #[test]
    fn value_and_grad_cannot_drift_from_the_in_place_kernel() {
        // The allocating variant is a thin wrapper over
        // `value_and_grad_into`; this locks the bit-equality in so a future
        // "optimization" reintroducing a second kernel fails loudly.
        let fom = Fom::new(0.3, vec![1.5, 0.5, 2.0]);
        let f = [1.2, 0.4, -0.3, 0.15];
        let (g_alloc, grad_alloc) = fom.value_and_grad(&f);
        let mut grad = vec![f64::NAN; f.len()];
        let g_into = fom.value_and_grad_into(&f, &mut grad);
        assert_eq!(g_alloc.to_bits(), g_into.to_bits());
        for (a, b) in grad_alloc.iter().zip(&grad) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "constraint count mismatch")]
    fn mismatched_weights_panic() {
        let fom = Fom::uniform(1.0, 2);
        fom.value(&spec(0.0, &[0.0]));
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_weight_rejected() {
        let _ = Fom::new(-1.0, vec![]);
    }
}
