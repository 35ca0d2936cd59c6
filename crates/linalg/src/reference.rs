//! Textbook dense Gaussian elimination with partial pivoting, over
//! [`Scalar`]: the independent oracle the sparse LU and the simulator are
//! tested against. No solver path calls it. Each call eliminates a copy of
//! its input and keeps nothing: no stored factors, no workspace.

use crate::scalar::Scalar;
use crate::sparse::PIVOT_EPS;
use crate::FactorError;

/// Solves the row-major `n×n` system `a·x = b`. For the adjoint system
/// `aᵀ·y = b`, pass the transposed matrix.
///
/// # Errors
///
/// Returns [`FactorError::Shape`] when `a.len() != n²` or
/// `b.len() != n`, and [`FactorError::Singular`] when no pivot candidate's
/// magnitude exceeds the sparse LU's singular threshold.
pub fn solve<S: Scalar>(a: &[S], n: usize, b: &[S]) -> Result<Vec<S>, FactorError> {
    if a.len() != n * n {
        let cols = a.len().checked_div(n).unwrap_or(a.len());
        return Err(FactorError::Shape { rows: n, cols });
    }
    if b.len() != n {
        let rows = b.len();
        return Err(FactorError::Shape { rows, cols: n });
    }
    let (mut u, mut x) = (a.to_vec(), b.to_vec());
    eliminate(&mut u, n, &mut x)?;
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= u[i * n + j] * x[j];
        }
        x[i] = s * u[i * n + i].recip();
    }
    Ok(x)
}

/// Determinant of the row-major `n×n` matrix `a`; zero when the
/// elimination finds it singular. Panics when `a.len() != n²`.
pub fn det<S: Scalar>(a: &[S], n: usize) -> S {
    assert_eq!(a.len(), n * n, "det takes a row-major n×n matrix");
    let mut u = a.to_vec();
    match eliminate(&mut u, n, &mut vec![S::ZERO; n]) {
        Ok(sign) => (0..n).fold(sign, |d, i| d * u[i * n + i]),
        Err(_) => S::ZERO,
    }
}

/// Reduces `a` to upper-triangular form in place, applying the same row
/// swaps and row operations to `rhs`, and returns the sign of the row
/// permutation. Below the diagonal `a` is left unspecified. The pivot is
/// the entry of largest [`Scalar::mag`] on or below the diagonal, the
/// first one on ties.
fn eliminate<S: Scalar>(a: &mut [S], n: usize, rhs: &mut [S]) -> Result<S, FactorError> {
    let mut sign = S::ONE;
    for k in 0..n {
        let mut p = k;
        for i in (k + 1)..n {
            if a[i * n + k].mag() > a[p * n + k].mag() {
                p = i;
            }
        }
        if !(a[p * n + k].mag() > PIVOT_EPS) {
            return Err(FactorError::Singular { pivot: k });
        }
        if p != k {
            for j in k..n {
                a.swap(k * n + j, p * n + j);
            }
            rhs.swap(k, p);
            sign = -sign;
        }
        let inv_pivot = a[k * n + k].recip();
        for i in (k + 1)..n {
            let m = a[i * n + k] * inv_pivot;
            for j in (k + 1)..n {
                let u = a[k * n + j];
                a[i * n + j] -= m * u;
            }
            let r = rhs[k];
            rhs[i] -= m * r;
        }
    }
    Ok(sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matrix, C64};

    fn residual(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(ax, bb)| (ax - bb).abs())
            .fold(0.0, f64::max)
    }

    fn solve_matrix(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, FactorError> {
        solve(a.as_slice(), a.rows(), b)
    }

    /// Asserts `got` matches `want` to 1e-12 relative to `want`'s largest
    /// magnitude.
    fn assert_close<S: Scalar>(got: &[S], want: &[S]) {
        let scale = want.iter().fold(0.0_f64, |m, w| m.max(w.mag()));
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((*g - *w).mag() <= 1e-12 * scale, "{g:?} vs {w:?}");
        }
    }

    /// The transpose of a row-major `n×n` matrix.
    fn transposed<S: Scalar>(a: &[S], n: usize) -> Vec<S> {
        (0..n * n).map(|k| a[(k % n) * n + k / n]).collect()
    }

    /// A fixed real system with a pinned solution and determinant.
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
        let x = solve_matrix(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve_matrix(&a, &[5.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_in_complex_solver() {
        let a = [C64::ZERO, C64::ONE, C64::ONE, C64::ZERO];
        let x = solve(&a, 2, &[C64::real(3.0), C64::real(4.0)]).unwrap();
        assert!((x[0] - C64::real(4.0)).abs() < 1e-15);
        assert!((x[1] - C64::real(3.0)).abs() < 1e-15);
    }

    #[test]
    fn detects_singularity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            solve_matrix(&a, &[1.0, 1.0]),
            Err(FactorError::Singular { pivot: 1 })
        );
        assert_eq!(det(a.as_slice(), 2), 0.0);
        let c = [1.0, 2.0, 2.0, 4.0].map(|v| C64::new(v, v));
        let err = solve(&c, 2, &[C64::ONE; 2]).unwrap_err();
        assert_eq!(err, FactorError::Singular { pivot: 1 });
    }

    #[test]
    fn rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(
            solve_matrix(&a, &[1.0; 2]),
            Err(FactorError::Shape { rows: 2, cols: 3 })
        );
        let id = Matrix::identity(3);
        assert_eq!(
            solve_matrix(&id, &[1.0; 4]),
            Err(FactorError::Shape { rows: 4, cols: 3 })
        );
        let err = solve(&[C64::ONE; 6], 2, &[C64::ONE; 2]).unwrap_err();
        assert!(matches!(err, FactorError::Shape { .. }));
    }

    #[test]
    fn determinant_matches_formula() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]);
        assert!((det(a.as_slice(), 2) - (3.0 * 6.0 - 8.0 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn determinant_sign_with_pivot() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((det(a.as_slice(), 2) + 1.0).abs() < 1e-12);
    }

    /// The solution and determinant recorded from the dense LU this
    /// reference replaced.
    #[test]
    fn pinned_real_system_solves_to_its_recorded_solution() {
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
        let d = det(a.as_slice(), a.rows());
        assert_close(&solve_matrix(&a, &b).unwrap(), &X.map(f64::from_bits));
        assert_close(&[d], &[f64::from_bits(0x4006147c75cf4ada)]);
    }

    /// The forward and adjoint solutions recorded from the dense LU this
    /// reference replaced; the adjoint solves the explicit transpose.
    #[test]
    fn pinned_ac_system_solves_to_its_recorded_solutions() {
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
        let values = |v: [(f64, f64); 13]| v.map(|(re, im)| C64::new(re, im));
        assert_close(&solve(&a, n, &b).unwrap(), &values(X));
        assert_close(&solve(&transposed(&a, n), n, &b).unwrap(), &values(Y));
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
        let x = solve(&a, 2, &b).unwrap();
        for i in 0..2 {
            let s = a[2 * i] * x[0] + a[2 * i + 1] * x[1];
            assert!((s - b[i]).abs() < 1e-12);
        }
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
        let x = solve_matrix(&a, &b).unwrap();
        assert!(residual(&a, &x, &b) < 1e-9);
    }
}
