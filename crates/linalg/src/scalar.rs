//! The scalar abstraction shared by the real and complex LU paths.
//!
//! The sparse LU (`sparse.rs`) and the dense reference solver
//! (`reference.rs`) are written once over [`Scalar`] and monomorphized for
//! `f64` (DC/transient Newton systems) and [`C64`] (frequency-domain
//! `G + jωC` systems). The trait pins down exactly the
//! operations the elimination needs — zero/one, magnitude for pivot
//! checks, and the reciprocal used to turn divisions into
//! multiplications — plus the `From<f64>` conversion the simulator's MNA
//! stamp layer (`spice::stamp::Stamp<T>`) uses to write real device
//! parameters into a system of either type.
//!
//! Bit-compatibility contract: each impl must perform the *same arithmetic
//! in the same order* as the previously hand-written scalar code. In
//! particular `f64::recip` here is literally `1.0 / self` and
//! [`C64::recip`] is the conjugate-over-squared-magnitude form of complex
//! division, so the generic eliminations reproduce the old per-type
//! implementations bit for bit.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

use crate::complex::C64;

/// Element type of the generic sparse factorization
/// ([`crate::SparseLu`] = `f64`, [`crate::SparseComplexLu`] = [`C64`]) and
/// of the dense [`crate::reference`] solver.
///
/// Implemented for `f64` and [`C64`] only; the methods exist for the
/// solver internals and are not a general numeric-tower abstraction.
pub trait Scalar:
    Copy
    + PartialEq
    + Default
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + From<f64>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Magnitude used by pivot-acceptance checks (`|x|`; `hypot` for
    /// [`C64`] — the same quantity the pivoting pass maximized).
    fn mag(self) -> f64;

    /// Multiplicative inverse: exactly `1.0 / self` for `f64`, conjugate
    /// over squared magnitude for [`C64`] — matching the arithmetic of
    /// the scalar elimination paths bit for bit.
    fn recip(self) -> Self;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;

    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn recip(self) -> f64 {
        1.0 / self
    }
}

impl Scalar for C64 {
    const ZERO: C64 = C64::ZERO;
    const ONE: C64 = C64::ONE;

    #[inline]
    fn mag(self) -> f64 {
        self.abs()
    }

    #[inline]
    fn recip(self) -> C64 {
        C64::recip(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recip_matches_scalar_arithmetic_bitwise() {
        for v in [3.0f64, -0.125, 1e-7, 2.5e11] {
            assert_eq!(Scalar::recip(v), 1.0 / v);
        }
        let z = C64::new(2.0, -3.0);
        assert_eq!(Scalar::recip(z), z.conj() * (1.0 / z.abs_sq()));
    }
}
