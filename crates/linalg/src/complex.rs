//! Minimal complex arithmetic for AC analysis.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use linalg::C64;
///
/// let a = C64::new(1.0, 2.0);
/// let b = C64::new(3.0, -1.0);
/// let p = a * b;
/// assert_eq!(p, C64::new(5.0, 5.0));
/// assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> C64 {
        C64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse.
    ///
    /// Returns infinities when `self` is zero, mirroring `f64` division.
    pub fn recip(self) -> C64 {
        let d = self.abs_sq();
        C64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// True if either component is NaN or infinite.
    pub fn is_non_finite(self) -> bool {
        !self.re.is_finite() || !self.im.is_finite()
    }
}

impl Add for C64 {
    type Output = C64;
    fn add(self, r: C64) -> C64 {
        C64::new(self.re + r.re, self.im + r.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    fn sub(self, r: C64) -> C64 {
        C64::new(self.re - r.re, self.im - r.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    fn mul(self, r: C64) -> C64 {
        C64::new(
            self.re * r.re - self.im * r.im,
            self.re * r.im + self.im * r.re,
        )
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, s: f64) -> C64 {
        C64::new(self.re * s, self.im * s)
    }
}

impl Div for C64 {
    type Output = C64;
    fn div(self, r: C64) -> C64 {
        self * r.recip()
    }
}

impl Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl AddAssign for C64 {
    fn add_assign(&mut self, r: C64) {
        self.re += r.re;
        self.im += r.im;
    }
}

impl SubAssign for C64 {
    fn sub_assign(&mut self, r: C64) {
        self.re -= r.re;
        self.im -= r.im;
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl std::fmt::Display for C64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = C64::new(2.0, -3.0);
        assert_eq!(a + C64::ZERO, a);
        assert_eq!(a * C64::ONE, a);
        assert_eq!(a - a, C64::ZERO);
        assert_eq!(C64::I * C64::I, C64::new(-1.0, 0.0));
        let r = a * a.recip();
        assert!((r - C64::ONE).abs() < 1e-15);
    }

    #[test]
    fn conj_and_arg() {
        let a = C64::new(0.0, 1.0);
        assert_eq!(a.conj(), C64::new(0.0, -1.0));
        assert!((a.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }
}
