//! Pseudo-sample generation (paper Eq. 2).
//!
//! From `N` simulated designs, DNN-Opt constructs up to `N²` critic
//! training pairs: for designs `x_i`, `x_j` the pseudo-sample is
//!
//! ```text
//! x_ps = [x_i, x_j − x_i],   target = f(x_j)
//! ```
//!
//! which teaches the critic to predict the performance of "where a step
//! lands" — exactly what the actor needs. The paper reports that the 2d
//! input trained on pseudo-samples is significantly more accurate than a
//! d-input network on the raw samples (validated here by the ablation
//! bench).

use linalg::Matrix;
use rand::Rng;

/// Builds the full `N²` Cartesian pseudo-sample set.
///
/// `xs` are design points (unit-cube coordinates, one per row of the
/// conceptual matrix) and `fs` the corresponding spec vectors. Outputs the
/// critic input matrix (`N²×2d`) and target matrix (`N²×(m+1)`).
///
/// # Panics
///
/// Panics if `xs` and `fs` lengths differ or are empty.
pub fn all_pseudo_samples(xs: &[Vec<f64>], fs: &[Vec<f64>]) -> (Matrix, Matrix) {
    assert_eq!(xs.len(), fs.len(), "design/spec count mismatch");
    assert!(!fs.is_empty(), "need at least one design");
    let targets = Matrix::from_fn(fs.len(), fs[0].len(), |i, j| fs[i][j]);
    let mut inp = Matrix::default();
    let mut out = Matrix::default();
    all_pseudo_samples_into(xs, &targets, &mut inp, &mut out);
    (inp, out)
}

/// [`all_pseudo_samples`] into caller-owned buffers (reshaped to fit,
/// reusing their allocations), with the targets given as the rows of
/// `targets` — the critic trainer passes its already standardized specs.
///
/// # Panics
///
/// Panics if `xs` is empty or `targets` has a different row count.
pub fn all_pseudo_samples_into(
    xs: &[Vec<f64>],
    targets: &Matrix,
    inp: &mut Matrix,
    out: &mut Matrix,
) {
    check_population(xs, targets);
    let n = xs.len();
    inp.reshape_for_overwrite(n * n, 2 * xs[0].len());
    out.reshape_for_overwrite(n * n, targets.cols());
    for i in 0..n {
        for j in 0..n {
            write_pair(xs, targets, i, j, i * n + j, inp, out);
        }
    }
}

/// Random pseudo-sample batches from one population — the subsampled
/// variant used once `N²` outgrows the per-epoch budget. Half of the pairs
/// are uniform (global structure); the other half are *locality-biased*:
/// the destination `j` is the nearest of 8 random candidates to the origin
/// `i`, which concentrates training signal on the short steps the actor
/// actually proposes (an implementation refinement of Eq. 2's subsampling;
/// the full N² set is used whenever it fits).
///
/// A population has only `N²` distinct pairs, far fewer than the
/// tournament distances a training run of many batches asks for, so the
/// sampler keeps every squared distance it computes in an `N × N` table,
/// filled on first use of a pair. The batches are those of a per-row
/// tournament that recomputes each distance, for the same RNG state.
#[derive(Debug, Clone)]
pub struct PseudoSampler<'a> {
    xs: &'a [Vec<f64>],
    targets: &'a Matrix,
    /// Row-major `N × N` squared distances; NaN marks a pair not yet
    /// computed.
    dist: Vec<f64>,
}

impl<'a> PseudoSampler<'a> {
    /// A sampler over designs `xs` whose targets are the rows of
    /// `targets`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty or `targets` has a different row count.
    pub fn new(xs: &'a [Vec<f64>], targets: &'a Matrix) -> Self {
        check_population(xs, targets);
        let n = xs.len();
        PseudoSampler {
            xs,
            targets,
            dist: vec![f64::NAN; n * n],
        }
    }

    /// Draws `count` pseudo-samples into caller-owned buffers (reshaped to
    /// fit, reusing their allocations).
    pub fn sample_into<R: Rng + ?Sized>(
        &mut self,
        count: usize,
        rng: &mut R,
        inp: &mut Matrix,
        out: &mut Matrix,
    ) {
        let n = self.xs.len();
        inp.reshape_for_overwrite(count, 2 * self.xs[0].len());
        out.reshape_for_overwrite(count, self.targets.cols());
        for r in 0..count {
            let i = rng.gen_range(0..n);
            let j = if r % 2 == 0 {
                rng.gen_range(0..n)
            } else {
                // Tournament locality: nearest of 8 random destinations.
                let mut best = rng.gen_range(0..n);
                let mut bd = self.dist_sq(i, best);
                for _ in 0..7 {
                    let c = rng.gen_range(0..n);
                    let cd = self.dist_sq(i, c);
                    if cd < bd {
                        bd = cd;
                        best = c;
                    }
                }
                best
            };
            write_pair(self.xs, self.targets, i, j, r, inp, out);
        }
    }

    /// `‖x_i − x_j‖²`, computed on first use of the pair. Each term's
    /// difference only changes sign when `i` and `j` swap, so one
    /// computation fills both entries.
    fn dist_sq(&mut self, i: usize, j: usize) -> f64 {
        let n = self.xs.len();
        let cached = self.dist[i * n + j];
        if !cached.is_nan() {
            return cached;
        }
        let (a, b) = (&self.xs[i], &self.xs[j]);
        let d: f64 = a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum();
        self.dist[i * n + j] = d;
        self.dist[j * n + i] = d;
        d
    }
}

/// Panics unless there is at least one design and one target row per
/// design.
fn check_population(xs: &[Vec<f64>], targets: &Matrix) {
    assert_eq!(xs.len(), targets.rows(), "design/spec count mismatch");
    assert!(!xs.is_empty(), "need at least one design");
}

/// Writes pseudo-sample `(i, j)` into row `r`: input `[x_i, x_j − x_i]`,
/// target row `j`.
fn write_pair(
    xs: &[Vec<f64>],
    targets: &Matrix,
    i: usize,
    j: usize,
    r: usize,
    inp: &mut Matrix,
    out: &mut Matrix,
) {
    let d = xs[i].len();
    let row = inp.row_mut(r);
    for k in 0..d {
        row[k] = xs[i][k];
        row[d + k] = xs[j][k] - xs[i][k];
    }
    out.row_mut(r).copy_from_slice(targets.row(j));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let xs = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.2, 0.8]];
        let fs = vec![vec![1.0], vec![2.0], vec![3.0]];
        (xs, fs)
    }

    #[test]
    fn full_set_has_n_squared_rows() {
        let (xs, fs) = toy();
        let (inp, out) = all_pseudo_samples(&xs, &fs);
        assert_eq!(inp.rows(), 9);
        assert_eq!(inp.cols(), 4);
        assert_eq!(out.rows(), 9);
        assert_eq!(out.cols(), 1);
    }

    #[test]
    fn pair_layout_matches_eq2() {
        let (xs, fs) = toy();
        let (inp, out) = all_pseudo_samples(&xs, &fs);
        // Row for (i=0, j=1): [x0, x1 − x0], target f(x1).
        let r = 1;
        assert_eq!(inp.row(r), &[0.0, 0.0, 1.0, 0.5]);
        assert_eq!(out[(r, 0)], fs[1][0]);
        // Diagonal (i=j): delta is zero, target is own spec.
        let r = 4; // (1,1)
        assert_eq!(inp.row(r), &[1.0, 0.5, 0.0, 0.0]);
        assert_eq!(out[(r, 0)], fs[1][0]);
    }

    #[test]
    fn target_is_destination_not_origin() {
        let (xs, fs) = toy();
        let (_, out) = all_pseudo_samples(&xs, &fs);
        // Row (i=2, j=0) -> target must be f(x0), not f(x2).
        assert_eq!(out[(2 * 3, 0)], fs[0][0]);
    }

    #[test]
    fn subsampled_batch_shapes_and_consistency() {
        let (xs, fs) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let targets = Matrix::from_fn(3, 1, |i, _| fs[i][0]);
        let (mut inp, mut out) = (Matrix::default(), Matrix::default());
        PseudoSampler::new(&xs, &targets).sample_into(50, &mut rng, &mut inp, &mut out);
        assert_eq!(inp.rows(), 50);
        assert_eq!(out.rows(), 50);
        // Every row must be a valid (x_i, x_j - x_i) pair: x part matches a
        // known design and x + delta matches another.
        for r in 0..50 {
            let row = inp.row(r);
            let x = &row[0..2];
            let dx = &row[2..4];
            let dest = [x[0] + dx[0], x[1] + dx[1]];
            let found_src = xs.iter().any(|p| p[0] == x[0] && p[1] == x[1]);
            let found_dst = xs
                .iter()
                .position(|p| (p[0] - dest[0]).abs() < 1e-12 && (p[1] - dest[1]).abs() < 1e-12);
            assert!(found_src, "row {r} origin not a design");
            let j = found_dst.expect("destination must be a design");
            assert_eq!(out[(r, 0)], fs[j][0], "target must be destination spec");
        }
    }

    /// The per-row tournament the sampler replaces: every distance computed
    /// afresh, targets copied from `fs`.
    fn tournament_reference<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        fs: &[Vec<f64>],
        count: usize,
        rng: &mut R,
    ) -> (Matrix, Matrix) {
        let (n, d) = (xs.len(), xs[0].len());
        let mut inp = Matrix::zeros(count, 2 * d);
        let mut out = Matrix::zeros(count, fs[0].len());
        let dist_sq =
            |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(p, q)| (p - q) * (p - q)).sum() };
        for r in 0..count {
            let i = rng.gen_range(0..n);
            let j = if r % 2 == 0 {
                rng.gen_range(0..n)
            } else {
                let mut best = rng.gen_range(0..n);
                let mut bd = dist_sq(&xs[i], &xs[best]);
                for _ in 0..7 {
                    let c = rng.gen_range(0..n);
                    let cd = dist_sq(&xs[i], &xs[c]);
                    if cd < bd {
                        bd = cd;
                        best = c;
                    }
                }
                best
            };
            let row = inp.row_mut(r);
            for k in 0..d {
                row[k] = xs[i][k];
                row[d + k] = xs[j][k] - xs[i][k];
            }
            out.row_mut(r).copy_from_slice(&fs[j]);
        }
        (inp, out)
    }

    /// Over many batches of one sampler — its distance table filling up,
    /// with duplicated designs giving tied distances — the memoized
    /// tournament draws exactly the reference's batches, bit for bit, and
    /// leaves the RNG in the same state.
    #[test]
    fn memoized_sampler_draws_the_reference_batches() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs: Vec<Vec<f64>> = (0..30)
            .map(|_| (0..4).map(|_| rng.gen::<f64>()).collect())
            .collect();
        xs[7] = xs[3].clone();
        xs[19] = xs[3].clone();
        let fs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64, -(i as f64) * 0.5]).collect();
        let targets = Matrix::from_fn(30, 2, |i, j| fs[i][j]);
        let mut sampler = PseudoSampler::new(&xs, &targets);
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(77), StdRng::seed_from_u64(77));
        let (mut inp, mut out) = (Matrix::default(), Matrix::default());
        for count in [128, 128, 7, 128, 300] {
            sampler.sample_into(count, &mut rng_a, &mut inp, &mut out);
            let (ref_inp, ref_out) = tournament_reference(&xs, &fs, count, &mut rng_b);
            assert_eq!(inp, ref_inp);
            assert_eq!(out, ref_out);
        }
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
    }
}
