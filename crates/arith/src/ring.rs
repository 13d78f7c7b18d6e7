//! The modular-ring interface of the two Barrett widths.
//!
//! CoFHEE's processing element is a pipelined Barrett multiplier (Section
//! IV-A of the paper). Its two software widths — [`crate::Barrett64`] for
//! 64-bit RNS towers (the CPU baseline) and [`crate::Barrett128`] for the
//! chip's native 128-bit coefficients — implement [`ModRing`], so the
//! NTT kernels (strict and lazy), [`crate::roots::RootSet`] and the
//! layers above are written once for both.

use core::fmt;

use crate::error::{ArithError, Result};

/// A ring of integers modulo `q`.
///
/// Elements are always kept reduced: every method requires operands in
/// `[0, q)` and returns results in `[0, q)`. Use [`ModRing::from_u128`] to
/// bring arbitrary values into the ring.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{Barrett64, ModRing};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let ring = Barrett64::new(0x7e00001)?; // 2^26·63/32... a small prime
/// let a = ring.from_u128(123_456_789);
/// let b = ring.from_u128(987_654_321);
/// let prod = ring.mul(a, b);
/// assert_eq!(ring.to_u128(prod), (123_456_789u128 * 987_654_321) % 0x7e00001);
/// # Ok(())
/// # }
/// ```
pub trait ModRing: Clone + Send + Sync + fmt::Debug {
    /// The element representation (`u64` for tower engines, `u128` for the
    /// chip's native width).
    type Elem: Copy + Eq + Ord + fmt::Debug + Default + Send + Sync + 'static;

    /// The modulus as a `u128`.
    fn modulus(&self) -> u128;

    /// The additive identity.
    fn zero(&self) -> Self::Elem {
        Self::Elem::default()
    }

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;

    /// Brings an arbitrary `u128` into the ring by reducing modulo `q`.
    #[allow(clippy::wrong_self_convention)] // `self` is the ring, not the value
    fn from_u128(&self, value: u128) -> Self::Elem;

    /// Returns the canonical representative in `[0, q)` as a `u128`.
    fn to_u128(&self, value: Self::Elem) -> u128;

    /// Modular addition.
    fn add(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Modular subtraction.
    fn sub(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Modular negation.
    fn neg(&self, a: Self::Elem) -> Self::Elem {
        self.sub(self.zero(), a)
    }

    /// Modular multiplication.
    fn mul(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Modular squaring (PMODSQR in the CoFHEE ISA).
    fn sqr(&self, a: Self::Elem) -> Self::Elem {
        self.mul(a, a)
    }

    /// Precomputes auxiliary data for repeated multiplication by the fixed
    /// constant `w` (e.g. a Shoup constant). Pairs with
    /// [`ModRing::mul_prepared`]; engines without a fast path return `w`
    /// itself and fall back to plain multiplication.
    fn prepare(&self, w: Self::Elem) -> Self::Elem {
        w
    }

    /// Multiplies `a` by the fixed constant `w` using data from
    /// [`ModRing::prepare`]. NTT kernels use this for twiddle factors.
    fn mul_prepared(&self, a: Self::Elem, w: Self::Elem, _aux: Self::Elem) -> Self::Elem {
        self.mul(a, w)
    }

    /// Modular exponentiation by square-and-multiply.
    fn pow(&self, base: Self::Elem, mut exp: u128) -> Self::Elem {
        let mut acc = self.one();
        let mut b = base;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, b);
            }
            b = self.sqr(b);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse by Fermat's little theorem.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::NotInvertible`] for the zero element. The
    /// modulus must be prime for the result to be meaningful; every modulus
    /// in this crate's intended use (NTT-friendly primes) is.
    fn inv(&self, a: Self::Elem) -> Result<Self::Elem> {
        if a == self.zero() {
            return Err(ArithError::NotInvertible { value: 0 });
        }
        Ok(self.pow(a, self.modulus() - 2))
    }
}

/// Validates that a modulus is odd and greater than one.
pub(crate) fn check_modulus(q: u128) -> Result<()> {
    if q <= 1 || q % 2 == 0 {
        return Err(ArithError::InvalidModulus { modulus: q });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_modulus_rejects_degenerate_values() {
        assert!(check_modulus(0).is_err());
        assert!(check_modulus(1).is_err());
        assert!(check_modulus(4).is_err());
        assert!(check_modulus(3).is_ok());
    }
}
