//! Signed-centered representatives and round-to-nearest division.
//!
//! FHE decoders keep returning to the same two primitives: interpreting a
//! residue in `[0, q)` (or a CRT composition in `[0, Q)`) as the *centered*
//! signed value in `(−q/2, q/2]`, and dividing by a scaling factor with
//! round-to-nearest (`⌊x/Δ⌉`, the Eq. 4 rounding in BFV decrypt and the
//! `/Δ` step of the CKKS decoder). [`centered`] and [`to_residue`] serve
//! the samplers and signed lifts of `cofhee_bfv` and `cofhee_ckks`.
//!
//! The rest is the exact 256-bit route, the tests' oracle for the word
//! paths (BFV's Eq. 4 and decryption, CKKS decoding), which `docs_check`
//! keeps it out of: [`round_div_u256`] divides by any denominator,
//! [`ScaleRound`] by a fixed `(t, q)` from multiplications alone, and
//! [`centered_to_f64`] converts a composed value.

use crate::error::{ArithError, Result};
use crate::u256::U256;

/// Centered representative of `v` modulo `q`, as `(magnitude, is_negative)`.
///
/// Values in `[0, q/2]` map to themselves with positive sign; values above
/// `q/2` map to `q − v` with negative sign, so the result is the unique
/// signed integer in `(−q/2, q/2]` congruent to `v`.
#[inline]
#[must_use]
pub fn centered(q: u128, v: u128) -> (u128, bool) {
    debug_assert!(v < q, "residue must be reduced mod q");
    if v > q / 2 {
        (q - v, true)
    } else {
        (v, false)
    }
}

/// Maps a signed integer into its canonical residue in `[0, q)`.
///
/// The inverse of [`centered`] for magnitudes below `q/2`.
#[inline]
#[must_use]
pub fn to_residue(q: u128, v: i64) -> u128 {
    // Every sampled coefficient (|v| ≤ 20) is below `q` already; only a
    // magnitude that is not pays the 128-bit division.
    let mag = u128::from(v.unsigned_abs());
    let m = if mag < q { mag } else { mag % q };
    if v >= 0 || m == 0 {
        m
    } else {
        q - m
    }
}

/// Round-to-nearest division `⌊num/den⌉` over 256-bit numerators (ties
/// round up) — the wide variant behind BFV's `⌊t·x/q⌉` and the CKKS
/// decoder's `⌊x/Δ⌉` when `x` spans several RNS limbs.
///
/// # Panics
///
/// Panics if `den` is zero.
#[inline]
#[must_use]
pub fn round_div_u256(num: U256, den: U256) -> U256 {
    // Round on the remainder: `num + ⌊den/2⌋` would wrap near 2^256.
    let (quot, rem) = num.div_rem(den);
    if rem >= den.wrapping_sub(den.shr(1)) {
        quot.wrapping_add(U256::ONE)
    } else {
        quot
    }
}

/// The exact scale-and-round `x ↦ ⌊t·x/q⌉ mod m` on signed magnitudes, for
/// a fixed `(t, q, m)` — the oracle of BFV's Eq. 4 finisher (`m = q`) and
/// of its decryption (`m = t`).
///
/// Bit for bit what `round_div_u256(t·|x|, q).rem(m)` with the sign
/// re-applied returns (ties of the magnitude round up), but both divisions
/// are by constants, so each is a multiplication by a precomputed
/// `⌊2^256/d⌋`, whose quotient estimate is at most 1 short, and one
/// remainder correction.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{signed::ScaleRound, U256};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let sr = ScaleRound::new(3, 10, 7)?; // ⌊3·x/10⌉ mod 7
/// assert_eq!(sr.apply(U256::from_u64(25), false)?, 1); // 7.5 → 8 ≡ 1
/// assert_eq!(sr.apply(U256::from_u64(25), true)?, 6); // −8 ≡ 6
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleRound {
    scale: U256,
    den: Reciprocal,
    /// Smallest remainder that rounds up: `q − ⌊q/2⌋`.
    round_up_from: u128,
    modulus: Reciprocal,
}

/// A divisor `d ≥ 2` with `⌊2^256/d⌋`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reciprocal {
    d: u128,
    recip: U256,
}

impl Reciprocal {
    fn new(d: u128) -> Result<Self> {
        if d < 2 {
            return Err(ArithError::InvalidModulus { modulus: d });
        }
        let recip = U256::div_rem_wide(U256::ZERO, U256::ONE, U256::from_u128(d)).0;
        Ok(Self { d, recip })
    }

    /// `(⌊x/d⌋, x mod d)`.
    #[inline]
    fn div_rem(&self, x: U256) -> (U256, u128) {
        // recip ∈ (2^256/d − 1, 2^256/d], so x·recip/2^256 ∈ (x/d − 1, x/d]:
        // the estimate is ⌊x/d⌋ or one less, and the remainder it leaves
        // is below 2d.
        let quot = x.widening_mul(self.recip).1;
        let d = U256::from_u128(self.d);
        let rem = x.wrapping_sub(quot.wrapping_mul(d));
        if rem >= d {
            (quot.wrapping_add(U256::ONE), rem.wrapping_sub(d).low_u128())
        } else {
            (quot, rem.low_u128())
        }
    }
}

impl ScaleRound {
    /// Precomputes the scaling by `scale / den` followed by reduction
    /// modulo `modulus`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidModulus`] if `den` or `modulus` is
    /// below 2.
    pub fn new(scale: u128, den: u128, modulus: u128) -> Result<Self> {
        Ok(Self {
            scale: U256::from_u128(scale),
            den: Reciprocal::new(den)?,
            round_up_from: den - den / 2,
            modulus: Reciprocal::new(modulus)?,
        })
    }

    /// `⌊scale·mag/den⌉ mod modulus` of the signed value `(mag, neg)`, as
    /// the canonical residue in `[0, modulus)`.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::Overflow`] if `scale·mag` does not fit 256
    /// bits — there is no wrapped result.
    #[inline]
    pub fn apply(&self, mag: U256, neg: bool) -> Result<u128> {
        let num = mag
            .checked_mul(self.scale)
            .ok_or(ArithError::Overflow { what: "scaled magnitude exceeds 256 bits" })?;
        let (mut rounded, rem) = self.den.div_rem(num);
        if rem >= self.round_up_from {
            // den ≥ 2 keeps the quotient below 2^255: no carry out.
            rounded = rounded.wrapping_add(U256::ONE);
        }
        let r = self.modulus.div_rem(rounded).1;
        Ok(if neg && r != 0 { self.modulus.d - r } else { r })
    }
}

/// Converts a centered `(magnitude, sign)` pair to the nearest `f64`.
///
/// Magnitudes above 128 bits are handled by scaling down the top 128 bits
/// — f64 only carries 53 significand bits, so the dropped low bits are
/// already below its resolution.
#[inline]
#[must_use]
pub fn centered_to_f64(mag: U256, neg: bool) -> f64 {
    let abs = match mag.to_u128() {
        Some(x) => x as f64,
        None => {
            let shift = mag.bits() - 128;
            let top = mag.shr(shift).low_u128() as f64;
            top * 2f64.powi(shift as i32)
        }
    };
    if neg {
        -abs
    } else {
        abs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centered_splits_at_half() {
        let q = 17u128;
        assert_eq!(centered(q, 0), (0, false));
        assert_eq!(centered(q, 8), (8, false)); // q/2 stays positive
        assert_eq!(centered(q, 9), (8, true)); // q − 9
        assert_eq!(centered(q, 16), (1, true));
    }

    #[test]
    fn centered_i64_round_trips_with_to_residue() {
        let q = (1u128 << 61) - 1;
        for v in [-1_000_000i64, -3, -1, 0, 1, 2, 999_999_937] {
            let r = to_residue(q, v);
            assert_eq!(centered(q, r), (u128::from(v.unsigned_abs()), v < 0));
        }
    }

    #[test]
    fn to_residue_matches_the_dividing_form_at_every_boundary() {
        // What `to_residue` was before small magnitudes skipped the `%`.
        let dividing = |q: u128, v: i64| {
            let m = u128::from(v.unsigned_abs()) % q;
            if v >= 0 || m == 0 {
                m
            } else {
                q - m
            }
        };
        for q in [7u128, (1 << 43) - 87, (1 << 109) - 31] {
            let around_q = [q - 1, q, q + 1].into_iter().filter_map(|m| i64::try_from(m).ok());
            let cases = [0, 1, i64::MAX].into_iter().chain(around_q).flat_map(|v| [v, -v]);
            for v in cases.chain([i64::MIN]) {
                assert_eq!(to_residue(q, v), dividing(q, v), "q = {q}, v = {v}");
                assert!(to_residue(q, v) < q);
            }
        }
        assert_eq!(to_residue(7, -1), 6);
        assert_eq!(to_residue(7, i64::MIN), 7 - (1u128 << 63) % 7);
    }

    #[test]
    fn to_residue_reduces_wide_magnitudes() {
        let q = 97u128;
        assert_eq!(to_residue(q, -97), 0);
        assert_eq!(to_residue(q, -98), 96);
        assert_eq!(to_residue(q, 194), 0);
    }

    #[test]
    fn round_div_rounds_to_nearest() {
        let round_div =
            |n: u128, d: u128| round_div_u256(U256::from_u128(n), U256::from_u128(d)).to_u128();
        assert_eq!(round_div(10, 4), Some(3)); // 2.5 → 3 (ties up)
        assert_eq!(round_div(9, 4), Some(2)); // 2.25 → 2
        assert_eq!(round_div(11, 4), Some(3)); // 2.75 → 3
        assert_eq!(round_div(0, 7), Some(0));
    }

    #[test]
    fn round_div_u256_matches_narrow() {
        for (n, d) in [(10u128, 4u128), (9, 4), (11, 4), (u128::MAX / 3, 12345)] {
            assert_eq!(
                round_div_u256(U256::from_u128(n), U256::from_u128(d)).to_u128(),
                Some((n + d / 2) / d)
            );
        }
    }

    #[test]
    fn round_div_u256_handles_wide_numerators() {
        // (2^200 + d/2) / d for d = 2^64: exactly 2^136 + rounding of d/2/d.
        let num = U256::ONE.shl(200);
        let den = U256::ONE.shl(64);
        assert_eq!(round_div_u256(num, den), U256::ONE.shl(136));
    }

    #[test]
    fn scale_round_matches_the_generic_route() {
        // (t, q, m): BFV tensor (m = q), BFV decrypt (m = t), tiny values.
        let q109 = 324518553658426726783156020805633u128;
        for (t, q, m) in [(786433, q109, q109), (786433, q109, 786433), (3, 10, 7), (2, 2, 2)] {
            let sr = ScaleRound::new(t, q, m).unwrap();
            let generic = |mag: U256, neg: bool| {
                let (num, hi) = mag.widening_mul(U256::from_u128(t));
                assert!(hi.is_zero());
                let r = round_div_u256(num, U256::from_u128(q)).rem(U256::from_u128(m)).low_u128();
                if neg && r != 0 {
                    m - r
                } else {
                    r
                }
            };
            // The widest magnitude whose product with t still fits.
            let widest = U256::MAX.div_rem(U256::from_u128(t)).0;
            let mut mag = U256::from_u128(0x1234_5678_9abc_def1);
            for _ in 0..500 {
                mag = mag.wrapping_mul(U256::from_u128(0x5851_f42d_4c95_7f2d_1405_7b7e_f767_814f));
                let mag = mag.rem(widest);
                for neg in [false, true] {
                    assert_eq!(sr.apply(mag, neg).unwrap(), generic(mag, neg), "{t} {q} {m} {mag}");
                }
            }
            for mag in [U256::ZERO, U256::ONE, U256::from_u128(q / 2), widest] {
                assert_eq!(sr.apply(mag, true).unwrap(), generic(mag, true));
                assert_eq!(sr.apply(mag, false).unwrap(), generic(mag, false));
            }
        }
    }

    #[test]
    fn scale_round_refuses_overflow_and_trivial_divisors() {
        let sr = ScaleRound::new(4, 9, 9).unwrap();
        let edge = U256::ONE.shl(254);
        assert!(sr.apply(edge.wrapping_sub(U256::ONE), false).is_ok());
        assert_eq!(
            sr.apply(edge, false),
            Err(ArithError::Overflow { what: "scaled magnitude exceeds 256 bits" })
        );
        assert!(ScaleRound::new(4, 1, 9).is_err());
        assert!(ScaleRound::new(4, 9, 0).is_err());
    }

    #[test]
    fn centered_to_f64_narrow_and_wide() {
        assert_eq!(centered_to_f64(U256::from_u128(1 << 40), false), (1u64 << 40) as f64);
        assert_eq!(centered_to_f64(U256::from_u128(5), true), -5.0);
        // 2^200: exactly representable in f64.
        let wide = U256::ONE.shl(200);
        assert_eq!(centered_to_f64(wide, false), 2f64.powi(200));
        assert_eq!(centered_to_f64(wide, true), -(2f64.powi(200)));
    }
}
