//! Barrett modular reduction — the strategy CoFHEE's processing element
//! implements in silicon.
//!
//! The paper selects Barrett over Montgomery because "there is no need to
//! transform the arguments" (Section IV-A) and because the reduction
//! pipelines well, letting the critical path match the SRAM read latency
//! (Section III-E). Two engines are provided:
//!
//! * [`Barrett64`] — for RNS tower moduli below 2^62, the width the SEAL
//!   CPU baseline operates at. Uses the two-word `⌊2^128/q⌋` ratio and a
//!   Shoup fast path for multiplication by precomputed constants (twiddle
//!   factors).
//! * [`Barrett128`] — for CoFHEE's native coefficients up to 128 bits,
//!   mirroring the chip's `BARRETTCTL1` (`k`) and `BARRETTCTL2` (`µ`)
//!   configuration registers (Table II).

use crate::error::{ArithError, Result};
use crate::ring::{check_modulus, ModRing};
use crate::shoup::{mulhi_u128, widening_mul_u128};
use crate::u256::U256;

/// Maximum bit size for [`Barrett64`] moduli.
///
/// Keeping `q < 2^62` guarantees `a + b` and the lazy products in the
/// reduction never overflow their containers.
pub(crate) const MAX_BARRETT64_BITS: u32 = 62;

/// Barrett engine for word-sized (≤ 62-bit) moduli.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{Barrett64, ModRing};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let ring = Barrett64::new((1u64 << 54) - 33)?; // any odd q < 2^62
/// let x = ring.from_u128(u128::MAX);
/// assert!(ring.to_u128(x) < ring.modulus());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett64 {
    q: u64,
    /// `⌊2^128 / q⌋` as (low, high) 64-bit words.
    ratio: (u64, u64),
}

impl Barrett64 {
    /// Creates an engine for the odd modulus `q < 2^62`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidModulus`] for even or trivial moduli and
    /// [`ArithError::ModulusTooLarge`] when `q ≥ 2^62`.
    pub fn new(q: u64) -> Result<Self> {
        check_modulus(q as u128)?;
        if q >> MAX_BARRETT64_BITS != 0 {
            return Err(ArithError::ModulusTooLarge {
                modulus: q as u128,
                max_bits: MAX_BARRETT64_BITS,
            });
        }
        // ratio = floor(2^128 / q), computed with U256 so no edge cases.
        let (ratio, _) = U256::from_halves(0, 1).div_rem(U256::from_u64(q));
        let limbs = ratio.to_limbs();
        debug_assert_eq!(limbs[2], 0);
        debug_assert_eq!(limbs[3], 0);
        Ok(Self { q, ratio: (limbs[0], limbs[1]) })
    }

    /// The modulus.
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Reduces a full 128-bit value modulo `q`.
    ///
    /// `inline(always)`: this sits inside every strict NTT butterfly
    /// and Hadamard pass; a call boundary here (e.g. in non-LTO test
    /// builds) costs more than the reduction itself.
    #[inline(always)]
    pub fn reduce_u128(&self, z: u128) -> u64 {
        // t = floor(z * ratio / 2^128), computed exactly below. With
        // ratio > 2^128/q - 1 and z < 2^128, z * ratio / 2^128 lies in
        // (z/q - 1, z/q], so t is floor(z / q) or one less: r = z - t*q
        // is below 2q and one conditional subtract finishes.
        let z0 = z as u64;
        let z1 = (z >> 64) as u64;
        let (r0, r1) = self.ratio;

        let p00_hi = (((z0 as u128) * (r0 as u128)) >> 64) as u64;
        let p01 = (z0 as u128) * (r1 as u128);
        let p10 = (z1 as u128) * (r0 as u128);
        let p11 = (z1 as u128) * (r1 as u128);

        let mid = p00_hi as u128 + (p01 as u64) as u128 + (p10 as u64) as u128;
        let t = p11 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);

        let r = z.wrapping_sub(t.wrapping_mul(self.q as u128));
        debug_assert!(r < 2 * self.q as u128);
        let r = r as u64;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Precomputes the Shoup constant `⌊w·2^64/q⌋` for a fixed multiplicand.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `w` is not reduced.
    #[inline]
    pub(crate) fn shoup_precompute(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Multiplies `a` by the fixed constant `w` using its Shoup precompute.
    ///
    /// This is the single-multiplication fast path hardware and optimized
    /// NTT software use for twiddle factors.
    #[inline(always)]
    pub(crate) fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let qhat = (((a as u128) * (w_shoup as u128)) >> 64) as u64;
        let r = a.wrapping_mul(w).wrapping_sub(qhat.wrapping_mul(self.q));
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }
}

impl ModRing for Barrett64 {
    type Elem = u64;

    #[inline]
    fn modulus(&self) -> u128 {
        self.q as u128
    }

    #[inline]
    fn one(&self) -> u64 {
        1
    }

    #[inline]
    fn from_u128(&self, value: u128) -> u64 {
        if value < self.q as u128 {
            value as u64
        } else {
            self.reduce_u128(value)
        }
    }

    #[inline]
    fn to_u128(&self, value: u64) -> u128 {
        value as u128
    }

    #[inline(always)]
    fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    #[inline(always)]
    fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        self.reduce_u128((a as u128) * (b as u128))
    }

    #[inline]
    fn prepare(&self, w: u64) -> u64 {
        self.shoup_precompute(w)
    }

    #[inline(always)]
    fn mul_prepared(&self, a: u64, w: u64, aux: u64) -> u64 {
        self.mul_shoup(a, w, aux)
    }
}

/// Barrett engine for CoFHEE's native coefficient width (up to 128 bits).
///
/// The constants mirror the chip's configuration registers: `k` is
/// `BARRETTCTL1` and `µ = ⌊2^k/q⌋` is `BARRETTCTL2` (Table II of the
/// paper). [`Barrett128::reduce_u256`] computes `t = (x·µ) >> k` with a
/// 256×256→512-bit product, then at most two conditional subtracts —
/// exactly the dataflow the 5-stage hardware pipeline implements, and the
/// oracle for [`ModRing::mul`], which reaches the same residue on `u128`
/// halves whenever `q < 2^126`.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{Barrett128, ModRing};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// // A 109-bit NTT-friendly prime (the paper's n=2^12 parameter set scale).
/// let q: u128 = 324518553658426726783156020805633;
/// let ring = Barrett128::new(q)?;
/// let a = ring.from_u128(u128::MAX);
/// let b = ring.from_u128(u128::MAX - 12345);
/// let p = ring.mul(a, b);
/// assert!(p < q);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Barrett128 {
    q: u128,
    /// Shift amount `k = 2·⌈log₂ q⌉` (BARRETTCTL1).
    k: u32,
    /// `µ = ⌊2^k / q⌋` (BARRETTCTL2).
    mu: U256,
    /// The word-level product's constants; `None` for `q ≥ 2^126`.
    aligned: Option<Aligned>,
}

/// [`Barrett128::mul`]'s view of a modulus `q < 2^126`: `Q = q·2^shift`
/// has exactly 126 bits, and `(a·2^shift)·b mod Q = (a·b mod q)·2^shift`,
/// so one operand shifted up front and the result shifted back make every
/// shift inside the reduction a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Aligned {
    /// `126 − ⌈log₂ q⌉`.
    shift: u32,
    /// `Q = q·2^shift`, in `(2^125, 2^126)`.
    q: u128,
    /// `⌊2^253 / Q⌋`, in `(2^127, 2^128)`.
    mu: u128,
}

impl Barrett128 {
    /// Creates an engine for the odd modulus `1 < q < 2^128`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidModulus`] for even or trivial moduli.
    pub fn new(q: u128) -> Result<Self> {
        check_modulus(q)?;
        let bits = 128 - q.leading_zeros();
        let k = 2 * bits;
        let mu = if k == 256 {
            // floor(2^256 / q): (high, low) = (1, 0) divided by q.
            U256::div_rem_wide(U256::ZERO, U256::ONE, U256::from_u128(q)).0
        } else {
            U256::ONE.shl(k).div_rem(U256::from_u128(q)).0
        };
        let aligned = (bits <= 126).then(|| {
            let shift = 126 - bits;
            let mu = U256::ONE.shl(253 - shift).div_rem(U256::from_u128(q)).0.low_u128();
            Aligned { shift, q: q << shift, mu }
        });
        Ok(Self { q, k, mu, aligned })
    }

    /// The modulus.
    #[inline]
    pub fn q(&self) -> u128 {
        self.q
    }

    /// The Barrett shift `k` (the chip's `BARRETTCTL1` value).
    #[inline]
    pub fn barrett_k(&self) -> u32 {
        self.k
    }

    /// The Barrett constant `µ` (the chip's `BARRETTCTL2` value).
    #[inline]
    pub fn barrett_mu(&self) -> U256 {
        self.mu
    }

    /// Reduces a double-width product `x < q²` modulo `q`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x ≥ q²`.
    #[inline]
    pub fn reduce_u256(&self, x: U256) -> u128 {
        debug_assert!({
            let (qq_lo, qq_hi) = U256::from_u128(self.q).widening_mul(U256::from_u128(self.q));
            qq_hi.is_zero() && x < qq_lo || !qq_hi.is_zero()
        });
        let (lo, hi) = x.widening_mul(self.mu);
        let t = if self.k == 256 { hi } else { lo.shr(self.k) | hi.shl(256 - self.k) };
        let tq = t.wrapping_mul(U256::from_u128(self.q));
        let mut r = x.wrapping_sub(tq);
        let q = U256::from_u128(self.q);
        // Barrett error bound: t <= floor(x/q) <= t + 2.
        if r >= q {
            r = r.wrapping_sub(q);
        }
        if r >= q {
            r = r.wrapping_sub(q);
        }
        r.low_u128()
    }
}

impl ModRing for Barrett128 {
    type Elem = u128;

    #[inline]
    fn modulus(&self) -> u128 {
        self.q
    }

    #[inline]
    fn one(&self) -> u128 {
        1
    }

    #[inline]
    fn from_u128(&self, value: u128) -> u128 {
        if value < self.q {
            value
        } else {
            // A single reduction of a value < 2^128 < q² only when q > 2^64;
            // fall back to the remainder otherwise.
            if self.q >> 64 != 0 {
                self.reduce_u256(U256::from_u128(value))
            } else {
                value % self.q
            }
        }
    }

    #[inline]
    fn to_u128(&self, value: u128) -> u128 {
        value
    }

    #[inline(always)]
    fn add(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        let (s, carry) = a.overflowing_add(b);
        if carry || s >= self.q {
            s.wrapping_sub(self.q)
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a.wrapping_add(self.q).wrapping_sub(b)
        }
    }

    /// For `q < 2^126`, classical Barrett on `u128` halves over the
    /// aligned modulus `Q` (see `Aligned`): with `x = (a·2^shift)·b <
    /// 2^252`, the estimate `t = ⌊⌊x/2^124⌋·⌊2^253/Q⌋ / 2^129⌋` is
    /// `⌊x/Q⌋` or one less (each floor costs under a half), so `x − t·Q <
    /// 2Q < 2^128` is exact in the low half alone and one conditional
    /// subtraction finishes. Wider moduli go through
    /// [`Barrett128::reduce_u256`].
    #[inline(always)]
    fn mul(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.q && b < self.q);
        let Some(Aligned { shift, q, mu }) = self.aligned else {
            return self.reduce_u256(U256::from_u128(a).widening_mul(U256::from_u128(b)).0);
        };
        let (lo, hi) = widening_mul_u128(a << shift, b);
        let t = mulhi_u128((hi << 4) | (lo >> 124), mu) >> 1;
        let r = lo.wrapping_sub(t.wrapping_mul(q));
        debug_assert!(r < 2 * q);
        // `r − Q` wraps above `r` exactly when `r < Q`.
        r.wrapping_sub(q).min(r) >> shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q54: u64 = 18014398509404161; // 2^54 - 6·2^12 + 1? a known 54-bit NTT prime
    const Q_SMALL: u64 = 0x1_0001; // 65537

    #[test]
    fn new_validates_modulus() {
        assert!(Barrett64::new(0).is_err());
        assert!(Barrett64::new(2).is_err());
        assert!(Barrett64::new(1 << 62).is_err());
        assert!(Barrett64::new(Q_SMALL).is_ok());
        assert!(Barrett128::new(0).is_err());
        assert!(Barrett128::new(u128::MAX - 1).is_err()); // even
        assert!(Barrett128::new(u128::MAX).is_ok()); // odd, fits
    }

    #[test]
    fn reduce_u128_matches_naive() {
        let ring = Barrett64::new(Q_SMALL).unwrap();
        for z in [0u128, 1, 65536, 65537, 65538, u64::MAX as u128, u128::MAX] {
            assert_eq!(ring.reduce_u128(z) as u128, z % Q_SMALL as u128, "z = {z}");
        }
    }

    #[test]
    fn mul64_matches_naive_for_many_values() {
        let ring = Barrett64::new(Q54).unwrap();
        let mut x = 0x9e3779b97f4a7c15u64 % Q54;
        let mut y = 0xbf58476d1ce4e5b9u64 % Q54;
        for _ in 0..1000 {
            let expect = ((x as u128 * y as u128) % Q54 as u128) as u64;
            assert_eq!(ring.mul(x, y), expect);
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1) % Q54;
            y = y.wrapping_mul(2862933555777941757).wrapping_add(3) % Q54;
        }
    }

    #[test]
    fn add_sub_are_inverse() {
        let ring = Barrett64::new(Q_SMALL).unwrap();
        for a in [0u64, 1, 17, Q_SMALL - 1] {
            for b in [0u64, 1, 29, Q_SMALL - 1] {
                let s = ring.add(a, b);
                assert_eq!(ring.sub(s, b), a);
                assert_eq!(ring.sub(s, a), b);
            }
        }
    }

    #[test]
    fn shoup_matches_plain_multiplication() {
        let ring = Barrett64::new(Q54).unwrap();
        let w = 123_456_789_012_345u64 % Q54;
        let w_shoup = ring.shoup_precompute(w);
        let mut a = 42u64;
        for _ in 0..500 {
            assert_eq!(ring.mul_shoup(a, w, w_shoup), ring.mul(a, w));
            a = a.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(7) % Q54;
        }
    }

    #[test]
    fn pow_and_inv_work() {
        let ring = Barrett64::new(Q_SMALL).unwrap();
        // 3 is a generator mod 65537; 3^65536 = 1.
        assert_eq!(ring.pow(3, (Q_SMALL - 1) as u128), 1);
        let inv3 = ring.inv(3).unwrap();
        assert_eq!(ring.mul(3, inv3), 1);
        assert!(ring.inv(0).is_err());
    }

    // ---- Barrett128 ----

    /// A 109-bit prime with q ≡ 1 (mod 2^14), found offline and verified in
    /// the primes module tests.
    const Q109: u128 = 324518553658426726783156020805633;

    #[test]
    fn barrett128_constants_match_definition() {
        let ring = Barrett128::new(Q109).unwrap();
        assert_eq!(ring.barrett_k(), 2 * 109);
        let expect_mu = U256::ONE.shl(218).div_rem(U256::from_u128(Q109)).0;
        assert_eq!(ring.barrett_mu(), expect_mu);
    }

    #[test]
    fn barrett128_small_modulus_matches_naive() {
        // With a small modulus we can cross-check against u128 `%`.
        let q = 0xffff_fff1u128; // odd
        let ring = Barrett128::new(q).unwrap();
        let mut a = 0x0123_4567_89ab_cdefu128 % q;
        let mut b = 0xfedc_ba98_7654_3210u128 % q;
        for _ in 0..1000 {
            let expect = (a * b) % q; // fits: q < 2^32 so a*b < 2^64
            assert_eq!(ring.mul(a, b), expect);
            a = (a * 6364136223846793005u128 + 1) % q;
            b = (b * 2862933555777941757u128 + 3) % q;
        }
    }

    #[test]
    fn barrett128_full_width_modulus() {
        // q = 2^127 + 45 might not be prime but Barrett needs no primality.
        let q = (1u128 << 127) + 45;
        let ring = Barrett128::new(q).unwrap();
        let a = q - 1;
        let b = q - 2;
        // (q-1)(q-2) mod q = 2.
        assert_eq!(ring.mul(a, b), 2);
        // (q-1)^2 mod q = 1.
        assert_eq!(ring.sqr(a), 1);
    }

    #[test]
    fn barrett128_max_odd_modulus() {
        let q = u128::MAX; // odd; k = 256 path
        let ring = Barrett128::new(q).unwrap();
        assert_eq!(ring.barrett_k(), 256);
        let a = q - 1;
        assert_eq!(ring.mul(a, a), 1);
        assert_eq!(ring.add(a, a), q - 2);
    }

    #[test]
    fn barrett128_from_u128_reduces() {
        let q = (1u128 << 100) + 277;
        let ring = Barrett128::new(q).unwrap();
        assert_eq!(ring.from_u128(u128::MAX), u128::MAX % q);
        assert_eq!(ring.from_u128(q), 0);
        assert_eq!(ring.from_u128(q - 1), q - 1);
    }

    #[test]
    fn barrett128_add_handles_carry() {
        let q = u128::MAX; // a + b overflows u128
        let ring = Barrett128::new(q).unwrap();
        let a = q - 1;
        let b = q - 2;
        // (q-1) + (q-2) mod q = q - 3.
        assert_eq!(ring.add(a, b), q - 3);
    }

    #[test]
    fn barrett128_pow_fermat() {
        let ring = Barrett128::new(Q109).unwrap();
        // Fermat: a^(q-1) = 1 for prime q.
        assert_eq!(ring.pow(12345, Q109 - 1), 1);
        let inv = ring.inv(12345).unwrap();
        assert_eq!(ring.mul(12345, inv), 1);
    }
}
