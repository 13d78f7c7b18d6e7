//! Montgomery modular multiplication — the strategy CoFHEE's related work
//! uses and the paper argues against.
//!
//! Section IV-A of the paper: "Barrett is selected for our implementation
//! as there is no need to transform the arguments, as required for
//! Montgomery". These engines exist so the design choice can be measured:
//! the Barrett-vs-Montgomery ablation bench runs the same NTT over
//! [`Barrett64`](crate::Barrett64) and [`Montgomery64`], and over the
//! 128-bit pair for the chip's native width.
//!
//! Elements are held in Montgomery form internally; `from_u128`/`to_u128`
//! perform the domain conversions, so all [`ModRing`] users — NTT,
//! polynomial ops, BFV — run unchanged.

use crate::error::{ArithError, Result};
use crate::ring::{check_modulus, ModRing};
use crate::u256::U256;

/// Computes `-q^{-1} mod 2^64` by Newton iteration.
fn neg_inv_u64(q: u64) -> u64 {
    debug_assert!(q & 1 == 1);
    let mut inv: u64 = q; // correct mod 2^3 for odd q... start with q: q*q ≡ 1 mod 8
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
    }
    debug_assert_eq!(q.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Computes `-q^{-1} mod 2^128` by Newton iteration.
fn neg_inv_u128(q: u128) -> u128 {
    debug_assert!(q & 1 == 1);
    let mut inv: u128 = q;
    for _ in 0..7 {
        inv = inv.wrapping_mul(2u128.wrapping_sub(q.wrapping_mul(inv)));
    }
    debug_assert_eq!(q.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

/// Montgomery engine for word-sized (≤ 63-bit) odd moduli.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{Montgomery64, ModRing};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let ring = Montgomery64::new(18014398509404161)?;
/// let a = ring.from_u128(123);
/// let b = ring.from_u128(456);
/// assert_eq!(ring.to_u128(ring.mul(a, b)), 123 * 456);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery64 {
    q: u64,
    /// `-q^{-1} mod 2^64`.
    neg_qinv: u64,
    /// `2^128 mod q`, used to enter Montgomery form.
    r2: u64,
    /// `2^64 mod q` — the Montgomery representation of 1.
    r1: u64,
}

impl Montgomery64 {
    /// Creates an engine for the odd modulus `q < 2^63`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidModulus`] for even or trivial moduli and
    /// [`ArithError::ModulusTooLarge`] when `q ≥ 2^63`.
    pub fn new(q: u64) -> Result<Self> {
        check_modulus(q as u128)?;
        if q >> 63 != 0 {
            return Err(ArithError::ModulusTooLarge { modulus: q as u128, max_bits: 63 });
        }
        let r1 = (u64::MAX % q).wrapping_add(1) % q; // 2^64 mod q
        let r2 = ((r1 as u128 * r1 as u128) % q as u128) as u64; // 2^128 mod q
        Ok(Self { q, neg_qinv: neg_inv_u64(q), r2, r1 })
    }

    /// The modulus.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Montgomery reduction: computes `t·2^{-64} mod q` for `t < q·2^64`.
    #[inline]
    fn redc(&self, t: u128) -> u64 {
        debug_assert!(t < (self.q as u128) << 64);
        let m = (t as u64).wrapping_mul(self.neg_qinv);
        let (sum, carry) = t.overflowing_add((m as u128) * (self.q as u128));
        // With q < 2^63, t + m·q < q·2^64 + q·2^64 = q·2^65 < 2^128: no carry.
        debug_assert!(!carry);
        let _ = carry;
        let r = (sum >> 64) as u64;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }
}

impl ModRing for Montgomery64 {
    type Elem = u64;

    #[inline]
    fn modulus(&self) -> u128 {
        self.q as u128
    }

    #[inline]
    fn one(&self) -> u64 {
        self.r1
    }

    #[inline]
    fn from_u128(&self, value: u128) -> u64 {
        let reduced = (value % self.q as u128) as u64;
        // Enter Montgomery form: x·2^64 = REDC(x · r2).
        self.redc((reduced as u128) * (self.r2 as u128))
    }

    #[inline]
    fn to_u128(&self, value: u64) -> u128 {
        self.redc(value as u128) as u128
    }

    #[inline]
    fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    #[inline]
    fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    #[inline]
    fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.redc((a as u128) * (b as u128))
    }
}

/// Montgomery engine for CoFHEE's native coefficient width (odd `q < 2^128`).
///
/// Used as the 128-bit comparison point in the multiplier ablation; the
/// chip itself uses [`Barrett128`](crate::Barrett128).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery128 {
    q: u128,
    /// `-q^{-1} mod 2^128`.
    neg_qinv: u128,
    /// `2^256 mod q`, used to enter Montgomery form.
    r2: u128,
    /// `2^128 mod q` — the Montgomery representation of 1.
    r1: u128,
}

impl Montgomery128 {
    /// Creates an engine for the odd modulus `1 < q < 2^128`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidModulus`] for even or trivial moduli.
    pub fn new(q: u128) -> Result<Self> {
        check_modulus(q)?;
        let r1 = ((U256::from_halves(0, 1)).rem(U256::from_u128(q))).low_u128(); // 2^128 mod q
        let (r1_sq_lo, r1_sq_hi) = U256::from_u128(r1).widening_mul(U256::from_u128(r1));
        debug_assert!(r1_sq_hi.is_zero());
        let _ = r1_sq_hi;
        let r2 = r1_sq_lo.rem(U256::from_u128(q)).low_u128(); // 2^256 mod q
        Ok(Self { q, neg_qinv: neg_inv_u128(q), r2, r1 })
    }

    /// The modulus.
    #[inline]
    pub fn q(&self) -> u128 {
        self.q
    }

    /// Montgomery reduction: computes `t·2^{-128} mod q` for `t < q·2^128`.
    fn redc(&self, t: U256) -> u128 {
        let m = t.low_u128().wrapping_mul(self.neg_qinv);
        let (mq, mq_hi) = U256::from_u128(m).widening_mul(U256::from_u128(self.q));
        debug_assert!(mq_hi.is_zero());
        let _ = mq_hi;
        let (sum, carry) = t.overflowing_add(mq);
        // r = (t + m·q) / 2^128, which is < 2q; the carry bit is bit 256.
        let mut r = U256::from_halves(sum.high_u128(), carry as u128);
        let q = U256::from_u128(self.q);
        if r >= q {
            r = r.wrapping_sub(q);
        }
        r.low_u128()
    }
}

impl ModRing for Montgomery128 {
    type Elem = u128;

    #[inline]
    fn modulus(&self) -> u128 {
        self.q
    }

    #[inline]
    fn one(&self) -> u128 {
        self.r1
    }

    fn from_u128(&self, value: u128) -> u128 {
        let reduced = if value < self.q {
            value
        } else {
            U256::from_u128(value).rem(U256::from_u128(self.q)).low_u128()
        };
        let (prod, hi) = U256::from_u128(reduced).widening_mul(U256::from_u128(self.r2));
        debug_assert!(hi.is_zero());
        let _ = hi;
        self.redc(prod)
    }

    #[inline]
    fn to_u128(&self, value: u128) -> u128 {
        self.redc(U256::from_u128(value))
    }

    #[inline]
    fn add(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        let (s, carry) = a.overflowing_add(b);
        if carry || s >= self.q {
            s.wrapping_sub(self.q)
        } else {
            s
        }
    }

    #[inline]
    fn sub(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a.wrapping_add(self.q).wrapping_sub(b)
        }
    }

    #[inline]
    fn mul(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        let (prod, hi) = U256::from_u128(a).widening_mul(U256::from_u128(b));
        debug_assert!(hi.is_zero());
        let _ = hi;
        self.redc(prod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrett::{Barrett128, Barrett64};

    const Q54: u64 = 18014398509404161;
    const Q109: u128 = 324518553658426726783156020805633;

    #[test]
    fn neg_inv_is_correct() {
        for q in [3u64, 65537, Q54, (1 << 63) - 25] {
            let ninv = neg_inv_u64(q);
            assert_eq!(q.wrapping_mul(ninv.wrapping_neg()), 1);
        }
        for q in [3u128, Q109, u128::MAX] {
            let ninv = neg_inv_u128(q);
            assert_eq!(q.wrapping_mul(ninv.wrapping_neg()), 1);
        }
    }

    #[test]
    fn new_validates_modulus() {
        assert!(Montgomery64::new(0).is_err());
        assert!(Montgomery64::new(6).is_err());
        assert!(Montgomery64::new(u64::MAX).is_err()); // >= 2^63
        assert!(Montgomery64::new(Q54).is_ok());
        assert!(Montgomery128::new(4).is_err());
        assert!(Montgomery128::new(Q109).is_ok());
    }

    #[test]
    fn montgomery64_round_trips() {
        let ring = Montgomery64::new(Q54).unwrap();
        for v in [0u128, 1, 42, (Q54 - 1) as u128, u128::MAX] {
            assert_eq!(ring.to_u128(ring.from_u128(v)), v % Q54 as u128);
        }
        assert_eq!(ring.to_u128(ring.one()), 1);
    }

    #[test]
    fn montgomery64_agrees_with_barrett64() {
        let m = Montgomery64::new(Q54).unwrap();
        let b = Barrett64::new(Q54).unwrap();
        let mut x = 0x243f6a8885a308d3u128;
        let mut y = 0x13198a2e03707344u128;
        for _ in 0..500 {
            let (xm, ym) = (m.from_u128(x), m.from_u128(y));
            let (xb, yb) = (b.from_u128(x), b.from_u128(y));
            assert_eq!(m.to_u128(m.mul(xm, ym)), b.to_u128(b.mul(xb, yb)));
            assert_eq!(m.to_u128(m.add(xm, ym)), b.to_u128(b.add(xb, yb)));
            assert_eq!(m.to_u128(m.sub(xm, ym)), b.to_u128(b.sub(xb, yb)));
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            y = y.wrapping_mul(3935559000370003845).wrapping_add(2691343689449507681);
        }
    }

    #[test]
    fn montgomery128_agrees_with_barrett128() {
        let m = Montgomery128::new(Q109).unwrap();
        let b = Barrett128::new(Q109).unwrap();
        let mut x = 0x452821e638d01377_be5466cf34e90c6cu128;
        let mut y = 0xc0ac29b7c97c50dd_3f84d5b5b5470917u128;
        for _ in 0..300 {
            let (xm, ym) = (m.from_u128(x), m.from_u128(y));
            let (xb, yb) = (b.from_u128(x), b.from_u128(y));
            assert_eq!(m.to_u128(m.mul(xm, ym)), b.to_u128(b.mul(xb, yb)));
            assert_eq!(m.to_u128(m.add(xm, ym)), b.to_u128(b.add(xb, yb)));
            assert_eq!(m.to_u128(m.sub(xm, ym)), b.to_u128(b.sub(xb, yb)));
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            y = y.wrapping_mul(2862933555777941757).wrapping_add(3);
        }
    }

    #[test]
    fn montgomery128_full_width_modulus() {
        let q = u128::MAX;
        let ring = Montgomery128::new(q).unwrap();
        let a = ring.from_u128(q - 1);
        assert_eq!(ring.to_u128(ring.mul(a, a)), 1);
        assert_eq!(ring.to_u128(ring.one()), 1);
    }

    #[test]
    fn montgomery_pow_and_inv() {
        let ring = Montgomery128::new(Q109).unwrap();
        let a = ring.from_u128(987654321);
        assert_eq!(ring.to_u128(ring.pow(a, Q109 - 1)), 1);
        let inv = ring.inv(a).unwrap();
        assert_eq!(ring.to_u128(ring.mul(a, inv)), 1);
    }
}
