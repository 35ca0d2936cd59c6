//! Dense LU factorization with partial pivoting, written once over
//! [`Scalar`]: [`Lu`] (`f64`) and [`ComplexLu`] ([`C64`]). The circuit
//! simulator solves every system on the sparse LU; the dense LU is the
//! reference its tests and the dense-LU bench rows solve the dense MNA
//! assembly with. The factorization lives in caller-owned storage and
//! allocates nothing once it has capacity.

use crate::scalar::Scalar;
use crate::sparse::PIVOT_EPS;
use crate::{FactorError, C64};

/// Real dense LU.
pub type Lu = LuT<f64>;

/// Complex dense LU for the AC small-signal system `(G + jωC)·x = b`.
pub type ComplexLu = LuT<C64>;

/// LU factorization with partial pivoting, `P·A = L·U`, in reusable
/// storage: the combined `L`/`U` factors, the row permutation, the pivot
/// reciprocals and scratch. [`LuT::factor`] copies a row-major `n×n`
/// matrix in; [`LuT::factor_in_place`] takes the matrix's buffer instead
/// (an O(1) swap). Either refactors into the same buffers without
/// allocating, and [`LuT::solve_into`] / [`LuT::solve_transpose_into`]
/// solve into caller-owned vectors.
///
/// # Example
///
/// ```
/// use linalg::{ComplexLu, Lu, C64};
///
/// let a = [0.0, 2.0, 1.0, 1.0]; // row-major 2×2, needs pivoting
/// let mut lu = Lu::new(2);
/// let mut x = Vec::new();
/// for _ in 0..3 {
///     lu.factor(&a, 2).expect("non-singular");
///     lu.solve_into(&[2.0, 2.0], &mut x).unwrap(); // no allocation after the first pass
/// }
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
///
/// // [[1, i], [0, 2]] z = [1+i, 2] -> z = [1, 1]
/// let a = [C64::ONE, C64::I, C64::ZERO, C64::real(2.0)];
/// let mut clu = ComplexLu::new(2);
/// clu.factor(&a, 2).expect("non-singular");
/// let mut z = Vec::new();
/// clu.solve_into(&[C64::new(1.0, 1.0), C64::real(2.0)], &mut z).unwrap();
/// assert!((z[0] - C64::ONE).abs() < 1e-12 && (z[1] - C64::ONE).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuT<S: Scalar> {
    /// Combined factors, row-major `n×n`: unit lower `L` below the
    /// diagonal, `U` on and above it.
    lu: Vec<S>,
    /// Row permutation: `perm[i]` is the original row now at position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (±1), for the determinant.
    sign: S,
    /// Factored dimension.
    n: usize,
    /// True once a factorization has succeeded at the current dimension.
    factored: bool,
    /// Scratch: rows with a nonzero entry in the current pivot column.
    nonzero_rows: Vec<usize>,
    /// Reciprocals of the pivots, computed once during factorization so
    /// neither the elimination nor the solves pay a division per entry.
    inv_diag: Vec<S>,
    /// Per row, the first column holding a multiplier (`L` entry); `i` when
    /// the row has none. Lets forward substitution skip the structural
    /// zeros of the sparse `L` factor.
    row_start: Vec<usize>,
    /// Scratch for the transpose solve's permutation scatter.
    scratch: Vec<S>,
}

impl<S: Scalar> LuT<S> {
    /// Creates storage sized for `n×n` systems. It grows automatically if
    /// later used with a larger matrix.
    pub fn new(n: usize) -> Self {
        LuT {
            lu: vec![S::ZERO; n * n],
            perm: (0..n).collect(),
            sign: S::ONE,
            n,
            factored: false,
            nonzero_rows: Vec::with_capacity(n),
            inv_diag: vec![S::ZERO; n],
            row_start: (0..n).collect(),
            scratch: Vec::new(),
        }
    }

    /// True once a successful factorization is stored.
    pub fn is_factored(&self) -> bool {
        self.factored
    }

    /// Factors the row-major `n×n` matrix `a`, copying it into the factor
    /// storage.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] when `a.len() != n²` (the stored
    /// factorization is then left as it was) and
    /// [`FactorError::Singular`] when a pivot collapses to (near) zero. A
    /// singular verdict invalidates the stored factorization.
    pub fn factor(&mut self, a: &[S], n: usize) -> Result<(), FactorError> {
        check_square(a.len(), n)?;
        self.reset(n);
        self.lu.clear();
        self.lu.extend_from_slice(a);
        self.eliminate()
    }

    /// Like [`LuT::factor`], but *takes the matrix storage*: `a`'s buffer
    /// becomes the factor storage (no `n²` copy at all) and `a` is handed
    /// the previous factor buffer, resized to `n²` with unspecified
    /// contents. The intended rhythm is the Newton loop's and the AC
    /// sweep's: the caller clears and re-assembles `a` from scratch every
    /// iteration anyway, so donating its storage costs nothing.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`LuT::factor`]; on a shape error `a` is
    /// left untouched.
    pub fn factor_in_place(&mut self, a: &mut Vec<S>, n: usize) -> Result<(), FactorError> {
        check_square(a.len(), n)?;
        self.reset(n);
        std::mem::swap(&mut self.lu, a);
        a.resize(n * n, S::ZERO);
        self.eliminate()
    }

    /// Resizes the bookkeeping for an `n×n` system without shrinking
    /// capacity, invalidating any previous factorization.
    fn reset(&mut self, n: usize) {
        self.n = n;
        self.factored = false;
        self.perm.clear();
        self.perm.extend(0..n);
        self.sign = S::ONE;
        self.inv_diag.clear();
        self.inv_diag.resize(n, S::ZERO);
        self.row_start.clear();
        self.row_start.extend(0..n);
    }

    /// Partial-pivoting elimination over the dimension-`n` system already
    /// loaded into `self.lu`. The pivot is the entry of largest magnitude
    /// ([`Scalar::mag`]), the first one on ties.
    ///
    /// Kept out of line: inlined into its callers' buffer handling, the
    /// pivot scan ran out of registers and spilled its running maximum and
    /// row pointers to the stack on every entry.
    #[inline(never)]
    fn eliminate(&mut self) -> Result<(), FactorError> {
        let n = self.n;
        let lu = &mut self.lu[..n * n];
        let nonzero_rows = &mut self.nonzero_rows;

        for k in 0..n {
            // One strided pass over column k does double duty: it finds the
            // pivot *and* records which rows have a nonzero entry. Column
            // access in a row-major layout is the cache-hostile part of
            // dense LU, and MNA systems are sparse — eliminating only the
            // recorded rows afterwards skips both the second column scan
            // and the per-zero-row multiply of the textbook loop.
            nonzero_rows.clear();
            let diag = lu[k * n + k];
            let mut p = k;
            let mut max = diag.mag();
            for i in (k + 1)..n {
                let v = lu[i * n + k];
                if v != S::ZERO {
                    nonzero_rows.push(i);
                    let m = v.mag();
                    if m > max {
                        max = m;
                        p = i;
                    }
                }
            }
            if !(max > PIVOT_EPS) {
                return Err(FactorError::Singular { pivot: k });
            }
            if p != k {
                self.perm.swap(p, k);
                self.sign = -self.sign;
                // p > k always, so the two row slices are disjoint.
                let (top, bottom) = lu.split_at_mut(p * n);
                top[k * n..k * n + n].swap_with_slice(&mut bottom[..n]);
                // The accumulated multipliers swap along with the rows.
                self.row_start.swap(p, k);
                // Row p now holds the old row k, whose column-k entry was
                // `diag`; drop it from the elimination set if that is zero.
                if diag == S::ZERO {
                    nonzero_rows.retain(|&i| i != p);
                }
            }
            let inv_pivot = lu[k * n + k].recip();
            self.inv_diag[k] = inv_pivot;
            let (top, bottom) = lu.split_at_mut((k + 1) * n);
            let row_k = &top[k * n + k + 1..k * n + n];
            for &i in nonzero_rows.iter() {
                let row_i = &mut bottom[(i - k - 1) * n..(i - k) * n];
                let aik = row_i[k];
                // A swap may have zeroed an entry recorded as nonzero.
                if aik == S::ZERO {
                    continue;
                }
                let m = aik * inv_pivot;
                row_i[k] = m;
                if self.row_start[i] > k {
                    self.row_start[i] = k;
                }
                for (x, &u) in row_i[k + 1..].iter_mut().zip(row_k) {
                    *x -= m * u;
                }
            }
        }
        self.factored = true;
        Ok(())
    }

    /// Errors unless a factorization is stored and `len` matches it.
    fn check_rhs(&self, len: usize) -> Result<(), FactorError> {
        if !self.factored || len != self.n {
            return Err(FactorError::Shape {
                rows: len,
                cols: self.n,
            });
        }
        Ok(())
    }

    /// Solves `A·x = b` with the stored factors, writing into `x` (resized,
    /// reusing its capacity): forward then backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if no successful factorization is
    /// stored or `b.len()` differs from the factored dimension.
    pub fn solve_into(&self, b: &[S], x: &mut Vec<S>) -> Result<(), FactorError> {
        self.check_rhs(b.len())?;
        let n = self.n;
        x.clear();
        x.extend(self.perm.iter().map(|&i| b[i]));
        // Forward substitution with the unit lower factor. `row_start`
        // bounds each row's multipliers, so the structural zeros of the
        // sparse `L` factor cost nothing.
        for i in 1..n {
            let start = self.row_start[i];
            if start >= i {
                continue;
            }
            let (head, tail) = x.split_at_mut(i);
            let row = &self.lu[i * n + start..i * n + i];
            let mut s = tail[0];
            for (&l, &xv) in row.iter().zip(head[start..].iter()) {
                s -= l * xv;
            }
            tail[0] = s;
        }
        // Back substitution with the upper factor.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let row = &self.lu[i * n + i + 1..(i + 1) * n];
            let mut s = head[i];
            for (&u, &xv) in row.iter().zip(tail.iter()) {
                s -= u * xv;
            }
            head[i] = s * self.inv_diag[i];
        }
        Ok(())
    }

    /// Solves the *transposed* system `Aᵀ·y = b` with the stored factors —
    /// the noise analysis' adjoint solve. With `P·A = L·U` the transpose is
    /// `Aᵀ = Uᵀ·Lᵀ·P`, so the solve is a forward substitution with `Uᵀ`, a
    /// back substitution with `Lᵀ`, and a final row-permutation scatter. No
    /// transposed matrix is built.
    ///
    /// # Errors
    ///
    /// Returns [`FactorError::Shape`] if no successful factorization is
    /// stored or `b.len()` differs from the factored dimension.
    pub fn solve_transpose_into(&mut self, b: &[S], y: &mut Vec<S>) -> Result<(), FactorError> {
        self.check_rhs(b.len())?;
        let n = self.n;
        let w = &mut self.scratch;
        w.clear();
        w.resize(n, S::ZERO);
        // Forward substitution with Uᵀ (lower triangular).
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.lu[j * n + i] * w[j];
            }
            w[i] = s * self.inv_diag[i];
        }
        // Back substitution with Lᵀ (unit upper).
        for i in (0..n).rev() {
            let mut s = w[i];
            for j in (i + 1)..n {
                s -= self.lu[j * n + i] * w[j];
            }
            w[i] = s;
        }
        // Undo the row permutation: Aᵀ·y = b with y = Pᵀ·w.
        y.clear();
        y.resize(n, S::ZERO);
        for (i, &pi) in self.perm.iter().enumerate() {
            y[pi] = w[i];
        }
        Ok(())
    }

    /// Determinant of the factored matrix.
    ///
    /// # Panics
    ///
    /// Panics if no successful factorization is stored.
    pub fn det(&self) -> S {
        assert!(self.factored, "no factorization stored");
        let mut d = self.sign;
        for i in 0..self.n {
            d = d * self.lu[i * self.n + i];
        }
        d
    }
}

/// Errors unless a buffer of `len` entries holds a row-major `n×n` matrix.
fn check_square(len: usize, n: usize) -> Result<(), FactorError> {
    if len != n * n {
        return Err(FactorError::Shape {
            rows: n,
            cols: len.checked_div(n).unwrap_or(len),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    /// Max-norm residual of `A·x = b` (or `Aᵀ·x = b` when `transpose`) for
    /// a row-major complex `A`.
    fn complex_residual(n: usize, a: &[C64], x: &[C64], b: &[C64], transpose: bool) -> f64 {
        (0..n)
            .map(|i| {
                let mut s = C64::ZERO;
                for j in 0..n {
                    let aij = if transpose {
                        a[j * n + i]
                    } else {
                        a[i * n + j]
                    };
                    s += aij * x[j];
                }
                (s - b[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    fn factored(a: &Matrix) -> Result<Lu, FactorError> {
        let mut lu = Lu::new(a.rows());
        lu.factor(a.as_slice(), a.rows())?;
        Ok(lu)
    }

    fn solve(lu: &Lu, b: &[f64]) -> Vec<f64> {
        let mut x = Vec::new();
        lu.solve_into(b, &mut x).unwrap();
        x
    }

    /// The fixed real system whose factor and solve bits are pinned below.
    fn pinned_real_system() -> (Matrix, Vec<f64>) {
        let n = 23;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.5 + (i as f64).sin()
            } else {
                ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.5
            }
        });
        let b = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        (a, b)
    }

    /// A fixed sparse `G + jωC`-shaped system (dominant diagonal, ~25%
    /// fill) with its rows scattered by `i ↦ 5i mod n`, so that seven
    /// diagonal entries vanish and the elimination has to pivot.
    fn pinned_ac_system() -> (usize, Vec<C64>, Vec<C64>) {
        let n = 13;
        let seed = |k: usize| ((k * 37 + 11) % 101) as f64 / 50.5 - 1.0;
        let omega = 2.5;
        let entry = |i: usize, j: usize| {
            let (v, w) = (seed(i * n + j), seed(i + j * n + 11));
            if i == j {
                C64::new(n as f64 + 1.0 + v.abs(), omega * (0.1 + w.abs()))
            } else if ((v * 100.0).abs() as usize).is_multiple_of(4) {
                C64::new(v * 0.3, omega * w * 0.1)
            } else {
                C64::ZERO
            }
        };
        let a = (0..n * n).map(|k| entry((k / n) * 5 % n, k % n)).collect();
        let b = (0..n).map(|i| C64::new(seed(i), seed(i + 5))).collect();
        (n, a, b)
    }

    #[test]
    fn solves_simple_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let b = [3.0, 5.0];
        let x = solve(&factored(&a).unwrap(), &b);
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&factored(&a).unwrap(), &[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(factored(&a), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            factored(&a),
            Err(FactorError::Shape { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn determinant_matches_formula() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]);
        let lu = factored(&a).unwrap();
        assert!((lu.det() - (3.0 * 6.0 - 8.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((factored(&a).unwrap().det() + 1.0).abs() < 1e-12);
    }

    /// Bits of the real elimination and solve, recorded before the dense
    /// LU became generic over `Scalar`: the `f64` instance must keep
    /// performing the same operations in the same order.
    #[test]
    fn real_factor_and_solve_bits_are_pinned() {
        const X: [u64; 23] = [
            0x3fe189d9b1895104,
            0x3f9de145ee9c3fd0,
            0xbfd052745d55844e,
            0xbfdb4523e0295f60,
            0x3ff122618ba14818,
            0x400969d82f20f8da,
            0xbfee27dd2356b3fa,
            0xbfd26df372ab9602,
            0x3fde1edbd06ff6e8,
            0x3feb3ea9e63d1bd2,
            0xbface7ee909c8539,
            0xbfd454e3abf8c2d2,
            0xbfde1ffb76ed3f4d,
            0xbfef899e0014f29a,
            0xbff47a9ac471ed60,
            0xbfea26c33bae5406,
            0x3fd9a22d9a886779,
            0xbff982f5e27b35c0,
            0xc00697f5b7794325,
            0x3fe6747d8d882ba4,
            0xbfd0fe6a387d3f75,
            0xbfdee068fa13be95,
            0xbff3ed58c23b69c5,
        ];
        let (a, b) = pinned_real_system();
        let lu = factored(&a).unwrap();
        assert_eq!(lu.det().to_bits(), 0x4006147c75cf4ada);
        let x = solve(&lu, &b);
        assert_eq!(x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), X);
    }

    /// Values of the complex solve and transpose solve, recorded before the
    /// dense LU became generic over `Scalar`. Compared with `==` per
    /// component: the generic elimination skips exactly-zero multipliers
    /// the old complex loop multiplied through, which can only flip the
    /// sign of a zero.
    #[test]
    fn complex_solve_values_are_pinned() {
        const X: [(f64, f64); 13] = [
            (-0.04218287017304258, 0.06816063895410887),
            (-0.057638207799954974, 0.055511241189755214),
            (-0.046464245193810066, -0.0604605759369641),
            (-0.04912968821344145, 0.06731541527441552),
            (-0.03141736548418169, -0.046537091748309806),
            (-0.006124999807092519, -0.02539817469825737),
            (-0.017388571104808903, -0.03291364214509644),
            (0.007672385721533237, -0.015301981456472566),
            (-0.0019950641462939908, -0.020777096213715793),
            (0.02367544610101114, -9.279108358213931e-5),
            (0.04658136187077166, 0.023771601390155998),
            (0.042321055428794246, 0.01294192229845289),
            (0.06357762363164472, 0.03435831095642055),
        ];
        const Y: [(f64, f64); 13] = [
            (-0.04471762932029224, 0.06266849334281006),
            (0.06663824150178792, 0.03164617702618111),
            (0.03795826341485438, 0.014479533244276808),
            (0.050876291347302975, 0.02111543825762812),
            (0.022643091583470398, 0.0008993765700046836),
            (-0.002776271832234216, -0.023706425100604642),
            (0.012432260708664841, -0.016068896046597125),
            (-0.013088330512054587, -0.03423755484329678),
            (0.0005775766465436668, -0.026123983604790974),
            (-0.031454634990894764, -0.04353289519204314),
            (-0.052310684095489, 0.07119814968341108),
            (-0.04251912035487537, -0.06354940159412024),
            (-0.05611759359094302, 0.05767403911213256),
        ];
        let (n, a, b) = pinned_ac_system();
        assert_eq!((0..n).filter(|&i| a[i * n + i] == C64::ZERO).count(), 7);
        let mut lu = ComplexLu::new(n);
        lu.factor(&a, n).unwrap();
        let (mut x, mut y) = (Vec::new(), Vec::new());
        lu.solve_into(&b, &mut x).unwrap();
        lu.solve_transpose_into(&b, &mut y).unwrap();
        for (got, want) in [(&x, &X), (&y, &Y)] {
            for (g, &(re, im)) in got.iter().zip(want) {
                assert!(g.re == re && g.im == im, "{g} vs {re}+{im}i");
            }
        }
    }

    #[test]
    fn transpose_solve_residual_is_small() {
        let (a, b) = pinned_real_system();
        let n = a.rows();
        let mut lu = factored(&a).unwrap();
        let mut y = Vec::new();
        lu.solve_transpose_into(&b, &mut y).unwrap();
        assert!(residual(&a.transpose(), &y, &b) < 1e-12);

        let (n_c, a_c, b_c) = pinned_ac_system();
        let mut clu = ComplexLu::new(n_c);
        clu.factor(&a_c, n_c).unwrap();
        let mut yc = Vec::new();
        clu.solve_transpose_into(&b_c, &mut yc).unwrap();
        assert!(complex_residual(n_c, &a_c, &yc, &b_c, true) < 1e-14);
        // Transpose solves share the forward factorization.
        let mut x = Vec::new();
        clu.solve_into(&b_c, &mut x).unwrap();
        assert!(complex_residual(n_c, &a_c, &x, &b_c, false) < 1e-14);
        assert!(lu.solve_transpose_into(&vec![0.0; n + 1], &mut y).is_err());
    }

    #[test]
    fn complex_solve_roundtrip() {
        let a = [
            C64::new(2.0, 1.0),
            C64::new(-1.0, 0.5),
            C64::new(0.0, -1.0),
            C64::new(3.0, 2.0),
        ];
        let b = [C64::new(1.0, 0.0), C64::new(0.0, 1.0)];
        let mut lu = ComplexLu::new(2);
        lu.factor(&a, 2).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&b, &mut x).unwrap();
        assert!(complex_residual(2, &a, &x, &b, false) < 1e-12);
    }

    #[test]
    fn complex_singular_detected() {
        let a = [
            C64::new(1.0, 1.0),
            C64::new(2.0, 2.0),
            C64::new(2.0, 2.0),
            C64::new(4.0, 4.0),
        ];
        let mut lu = ComplexLu::new(2);
        assert!(matches!(
            lu.factor(&a, 2),
            Err(FactorError::Singular { .. })
        ));
    }

    #[test]
    fn pivoting_in_complex_solver() {
        let a = [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO];
        let mut lu = ComplexLu::new(2);
        lu.factor(&a, 2).unwrap();
        let mut x = Vec::new();
        lu.solve_into(&[C64::real(3.0), C64::real(4.0)], &mut x)
            .unwrap();
        assert!((x[0] - C64::real(4.0)).abs() < 1e-15);
        assert!((x[1] - C64::real(3.0)).abs() < 1e-15);
    }

    #[test]
    fn factor_in_place_matches_factor_and_returns_buffer() {
        let n = 17;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                3.0 + (j as f64).cos()
            } else if i.abs_diff(j) <= 2 {
                ((i * 7 + j) % 5) as f64 - 2.0
            } else {
                0.0
            }
        });
        let lu_ref = factored(&a).unwrap();
        let mut lu = Lu::new(n);
        let mut donated = a.as_slice().to_vec();
        lu.factor_in_place(&mut donated, n).unwrap();
        // The donated buffer comes back at the same size.
        assert_eq!(donated.len(), n * n);
        // Identical factorization.
        let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        assert_eq!(solve(&lu_ref, &b), solve(&lu, &b));
        // A wrongly sized buffer is rejected without touching the buffers.
        let mut bad = vec![1.0; 6];
        assert!(matches!(
            lu.factor_in_place(&mut bad, 2),
            Err(FactorError::Shape { .. })
        ));
        assert_eq!(bad, vec![1.0; 6]);
        assert!(lu.is_factored());
        assert_eq!(solve(&lu_ref, &b), solve(&lu, &b));
    }

    #[test]
    fn workspace_is_reusable_across_sizes() {
        let mut lu = Lu::new(2);
        let mut x = Vec::new();
        for n in [2usize, 5, 3] {
            let a = Matrix::from_fn(n, n, |i, j| if i == j { n as f64 } else { 0.5 });
            lu.factor(a.as_slice(), n).unwrap();
            let b = vec![1.0; n];
            lu.solve_into(&b, &mut x).unwrap();
            assert!(residual(&a, &x, &b) < 1e-12);
        }
    }

    #[test]
    fn workspace_rejects_bad_shapes() {
        let mut lu = Lu::new(3);
        // Solving before factoring is a shape error, not UB.
        assert!(matches!(
            lu.solve_into(&[1.0; 3], &mut Vec::new()),
            Err(FactorError::Shape { .. })
        ));
        lu.factor(Matrix::identity(3).as_slice(), 3).unwrap();
        assert!(matches!(
            lu.solve_into(&[1.0; 4], &mut Vec::new()),
            Err(FactorError::Shape { .. })
        ));
        assert!(matches!(
            lu.factor(&[0.0; 6], 2),
            Err(FactorError::Shape { .. })
        ));
        // A failed factorization invalidates the previous one.
        assert!(lu.factor(&[0.0; 9], 3).is_err());
        assert!(!lu.is_factored());
        assert!(lu.solve_into(&[1.0; 3], &mut Vec::new()).is_err());
        assert!(lu.solve_transpose_into(&[1.0; 3], &mut Vec::new()).is_err());
    }

    #[test]
    fn large_diagonally_dominant_system() {
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                10.0 + i as f64
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = solve(&factored(&a).unwrap(), &b);
        assert!(residual(&a, &x, &b) < 1e-9);
    }
}
