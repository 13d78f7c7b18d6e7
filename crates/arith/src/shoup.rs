//! Shoup precomputed constants and Harvey-style lazy reduction.
//!
//! The NTT hot path multiplies almost exclusively by *fixed* constants
//! (twiddle factors, `n⁻¹`). Shoup's trick precomputes the quotient
//! `w′ = ⌊w·β/q⌋` (β the container width, `2^64` or `2^128`) once per
//! constant, after which each product needs one high multiply, two low
//! multiplies and **no** reduction: by Harvey's lemma ("Faster
//! arithmetic for number-theoretic transforms", Lemma 2), for any
//! container value `a`,
//!
//! ```text
//! r = a·w − ⌊a·w′/β⌋·q  (mod β)   satisfies   r ≡ a·w (mod q),  r < 2q.
//! ```
//!
//! The deferred-correction variant this module exposes keeps every
//! intermediate in the *redundant* range `[0, 2q)` across whole NTT
//! stages — butterflies pay at most one conditional subtraction of `2q`
//! instead of a full canonical reduction — and a single final
//! correction ([`LazyRing::reduce_once`]) lands the canonical result.
//! This requires two bits of modulus headroom (`4q < β`), which
//! [`Barrett64`] guarantees by construction (`q < 2^62`) and
//! [`Barrett128`] reports through [`LazyRing::lazy_capable`].
//!
//! This mirrors how HEAAN-style software NTTs close the gap on
//! fixed-prime hardware: precompute per-modulus constants once, reuse
//! them everywhere, and defer reduction as long as the container has
//! headroom.

use crate::barrett::{Barrett128, Barrett64, MAX_BARRETT64_BITS};
use crate::ring::ModRing;

/// A constant `w < q` paired with its Shoup quotient `⌊w·β/q⌋`.
///
/// Build one per twiddle factor (or other fixed multiplicand) via
/// [`LazyRing::shoup`]; multiply with [`LazyRing::mul_lazy`]. The pair
/// is plain data — tables of `ShoupMul` are the software image of a
/// fixed-prime accelerator's twiddle SRAM plus its per-modulus
/// configuration constants.
///
/// `repr(C)`: a table of word pairs is read as interleaved
/// `value, quotient` words by `cofhee_poly`'s vector lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct ShoupMul<E> {
    /// The canonical constant `w ∈ [0, q)`.
    pub value: E,
    /// The precomputed quotient `⌊w·β/q⌋`.
    pub quotient: E,
}

/// Rings that support Harvey lazy reduction on top of [`ModRing`].
///
/// All `*_lazy` methods operate on the redundant representation
/// `[0, 2q)`; [`LazyRing::reduce_once`] converts back to canonical
/// `[0, q)` with one conditional subtraction. Callers must check
/// [`LazyRing::lazy_capable`] before using the lazy ops — a modulus
/// without two bits of container headroom would overflow the redundant
/// range.
///
/// # Examples
///
/// One lazy constant-multiply, then the final correction:
///
/// ```
/// use cofhee_arith::{Barrett64, LazyRing, ModRing};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let ring = Barrett64::new(769)?; // q < 2^62: always lazy-capable
/// assert!(ring.lazy_capable());
/// let w = ring.shoup(5); // precompute once per fixed constant
/// let r = ring.mul_lazy(700, &w); // redundant result, r < 2q
/// assert!(r < ring.two_q());
/// assert_eq!(ring.reduce_once(ring.fold_2q(r)) % 769, (700 * 5) % 769);
/// # Ok(())
/// # }
/// ```
pub trait LazyRing: ModRing {
    /// Whether the modulus leaves the two bits of headroom (`4q < β`)
    /// the lazy representation needs.
    fn lazy_capable(&self) -> bool;

    /// `2q` in the element container.
    fn two_q(&self) -> Self::Elem;

    /// Precomputes the Shoup pair for a canonical constant `w < q`.
    fn shoup(&self, w: Self::Elem) -> ShoupMul<Self::Elem>;

    /// `a·w` with deferred reduction: for **any** container value `a`,
    /// returns `r ≡ a·w (mod q)` with `r ∈ [0, 2q)` — one high
    /// multiply, two low multiplies, no conditional subtraction.
    fn mul_lazy(&self, a: Self::Elem, w: &ShoupMul<Self::Elem>) -> Self::Elem;

    /// Lazy addition: `a, b ∈ [0, 2q)` → `a + b (mod 2q-redundant)`,
    /// result in `[0, 2q)` (one conditional subtraction of `2q`).
    fn add_lazy(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Uncorrected addition `a + b` for `a, b ∈ [0, 2q)`: result in
    /// `[0, 4q)`, branch-free. The Cooley–Tukey forward butterfly in
    /// Harvey's original `[0, 4q)` formulation emits this directly and
    /// folds operands back with [`LazyRing::fold_2q`] one stage later.
    fn add_raw(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// One conditional subtraction of `2q`, branch-free: folds
    /// `[0, 4q) → [0, 2q)`.
    fn fold_2q(&self, a: Self::Elem) -> Self::Elem;

    /// Lazy subtraction: `a, b ∈ [0, 2q)` → `a − b` shifted into
    /// `[0, 2q)` (add `2q`, one conditional subtraction).
    fn sub_lazy(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Uncorrected subtraction `a − b + 2q` for `a, b ∈ [0, 2q)`: the
    /// result lands in `[0, 4q)` — out of the redundant range, but a
    /// valid [`LazyRing::mul_lazy`] multiplicand (Harvey's lemma holds
    /// for any container value), which is exactly how the
    /// Gentleman–Sande inverse butterfly consumes it branch-free.
    fn sub_raw(&self, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The single final correction: `[0, 2q) → [0, q)`.
    fn reduce_once(&self, a: Self::Elem) -> Self::Elem;
}

/// High 64 bits of a full `64×64 → 128`-bit product.
#[inline(always)]
fn mulhi_u64(a: u64, b: u64) -> u64 {
    (((a as u128) * (b as u128)) >> 64) as u64
}

/// The full `128×128 → 256`-bit product as `(low, high)` halves, via
/// four 64-bit partial products (the schoolbook — much cheaper than a
/// full [`crate::U256`] widening multiply).
#[inline(always)]
pub(crate) fn widening_mul_u128(a: u128, b: u128) -> (u128, u128) {
    let (a0, a1) = (a as u64 as u128, a >> 64);
    let (b0, b1) = (b as u64 as u128, b >> 64);
    let p00 = a0 * b0;
    let p01 = a0 * b1;
    let p10 = a1 * b0;
    let mid = (p00 >> 64) + (p01 as u64 as u128) + (p10 as u64 as u128);
    ((mid << 64) | (p00 as u64 as u128), a1 * b1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64))
}

/// High 128 bits of a full `128×128 → 256`-bit product.
#[inline(always)]
pub(crate) fn mulhi_u128(a: u128, b: u128) -> u128 {
    widening_mul_u128(a, b).1
}

impl LazyRing for Barrett64 {
    #[inline(always)]
    fn lazy_capable(&self) -> bool {
        // q < 2^62 by construction (MAX_BARRETT64_BITS), so 4q < 2^64.
        debug_assert!(self.q() >> MAX_BARRETT64_BITS == 0);
        true
    }

    #[inline(always)]
    fn two_q(&self) -> u64 {
        2 * self.q()
    }

    #[inline]
    fn shoup(&self, w: u64) -> ShoupMul<u64> {
        ShoupMul { value: w, quotient: self.shoup_precompute(w) }
    }

    #[inline(always)]
    fn mul_lazy(&self, a: u64, w: &ShoupMul<u64>) -> u64 {
        let qhat = mulhi_u64(a, w.quotient);
        a.wrapping_mul(w.value).wrapping_sub(qhat.wrapping_mul(self.q()))
    }

    #[inline(always)]
    fn add_lazy(&self, a: u64, b: u64) -> u64 {
        let q2 = self.two_q();
        debug_assert!(a < q2 && b < q2);
        let s = a + b;
        if s >= q2 {
            s - q2
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub_lazy(&self, a: u64, b: u64) -> u64 {
        let q2 = self.two_q();
        debug_assert!(a < q2 && b < q2);
        let d = a + q2 - b;
        if d >= q2 {
            d - q2
        } else {
            d
        }
    }

    #[inline(always)]
    fn add_raw(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.two_q() && b < self.two_q());
        a + b
    }

    #[inline(always)]
    fn fold_2q(&self, a: u64) -> u64 {
        debug_assert!(a < 2 * self.two_q());
        // `a − 2q` wraps above `a` exactly when `a < 2q`. A `min`, not an
        // `if`: on the forward butterfly's critical path the `if` compiles
        // to a jump that random coefficients mispredict.
        a.wrapping_sub(self.two_q()).min(a)
    }

    #[inline(always)]
    fn sub_raw(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.two_q() && b < self.two_q());
        a + self.two_q() - b
    }

    #[inline(always)]
    fn reduce_once(&self, a: u64) -> u64 {
        debug_assert!(a < self.two_q());
        if a >= self.q() {
            a - self.q()
        } else {
            a
        }
    }
}

impl LazyRing for Barrett128 {
    #[inline(always)]
    fn lazy_capable(&self) -> bool {
        self.q() >> 126 == 0
    }

    #[inline(always)]
    fn two_q(&self) -> u128 {
        debug_assert!(self.lazy_capable());
        2 * self.q()
    }

    #[inline]
    fn shoup(&self, w: u128) -> ShoupMul<u128> {
        debug_assert!(w < self.q());
        // ⌊w·2^128 / q⌋, exact via the 256-bit division.
        let quotient =
            crate::U256::from_halves(0, w).div_rem(crate::U256::from_u128(self.q())).0.low_u128();
        ShoupMul { value: w, quotient }
    }

    #[inline(always)]
    fn mul_lazy(&self, a: u128, w: &ShoupMul<u128>) -> u128 {
        let qhat = mulhi_u128(a, w.quotient);
        a.wrapping_mul(w.value).wrapping_sub(qhat.wrapping_mul(self.q()))
    }

    #[inline(always)]
    fn add_lazy(&self, a: u128, b: u128) -> u128 {
        let q2 = self.two_q();
        debug_assert!(a < q2 && b < q2);
        let s = a + b;
        if s >= q2 {
            s - q2
        } else {
            s
        }
    }

    #[inline(always)]
    fn sub_lazy(&self, a: u128, b: u128) -> u128 {
        let q2 = self.two_q();
        debug_assert!(a < q2 && b < q2);
        let d = a + q2 - b;
        if d >= q2 {
            d - q2
        } else {
            d
        }
    }

    #[inline(always)]
    fn add_raw(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.two_q() && b < self.two_q());
        a + b
    }

    #[inline(always)]
    fn fold_2q(&self, a: u128) -> u128 {
        debug_assert!(a < 2 * self.two_q());
        // Branch-free, as on the word ring.
        a.wrapping_sub(self.two_q()).min(a)
    }

    #[inline(always)]
    fn sub_raw(&self, a: u128, b: u128) -> u128 {
        debug_assert!(a < self.two_q() && b < self.two_q());
        a + self.two_q() - b
    }

    #[inline(always)]
    fn reduce_once(&self, a: u128) -> u128 {
        debug_assert!(a < self.two_q());
        if a >= self.q() {
            a - self.q()
        } else {
            a
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q54: u64 = 18014398509404161;
    /// 109-bit NTT-friendly prime (chip-native width).
    const Q109: u128 = 324518553658426726783156020805633;

    fn lcg64(state: &mut u64) -> u64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        *state
    }

    #[test]
    fn mulhi_u128_matches_u256_reference() {
        let mut s = 0x1234_5678u64;
        for _ in 0..500 {
            let a = ((lcg64(&mut s) as u128) << 64) | lcg64(&mut s) as u128;
            let b = ((lcg64(&mut s) as u128) << 64) | lcg64(&mut s) as u128;
            let (lo, hi) = crate::U256::from_u128(a).widening_mul(crate::U256::from_u128(b));
            assert!(hi.is_zero());
            assert_eq!(mulhi_u128(a, b), lo.high_u128(), "a={a:#x} b={b:#x}");
        }
    }

    #[test]
    fn mul_lazy_is_congruent_and_bounded_64() {
        let ring = Barrett64::new(Q54).unwrap();
        let w = ring.shoup(123_456_789_012_345 % Q54);
        let mut s = 7u64;
        for _ in 0..1000 {
            let a = lcg64(&mut s); // ANY container value, not just < 2q
            let r = ring.mul_lazy(a, &w);
            assert!(r < ring.two_q(), "r = {r} out of redundant range");
            let expect = ((a as u128 % Q54 as u128) * (w.value as u128)) % Q54 as u128;
            assert_eq!(r as u128 % Q54 as u128, expect);
        }
    }

    #[test]
    fn mul_lazy_is_congruent_and_bounded_128() {
        let ring = Barrett128::new(Q109).unwrap();
        assert!(ring.lazy_capable());
        let w = ring.shoup(0xdead_beef_cafe_u128 % Q109);
        let mut s = 11u64;
        for _ in 0..1000 {
            let a = ((lcg64(&mut s) as u128) << 64) | lcg64(&mut s) as u128;
            let r = ring.mul_lazy(a, &w);
            assert!(r < ring.two_q());
            assert_eq!(r % Q109, ring.mul(a % Q109, w.value));
        }
    }

    #[test]
    fn lazy_add_sub_stay_in_range_and_agree_with_strict() {
        let ring = Barrett64::new(Q54).unwrap();
        let q2 = ring.two_q();
        let mut s = 3u64;
        for _ in 0..1000 {
            let a = lcg64(&mut s) % q2;
            let b = lcg64(&mut s) % q2;
            let sum = ring.add_lazy(a, b);
            let diff = ring.sub_lazy(a, b);
            assert!(sum < q2 && diff < q2);
            let (ca, cb) = (a % Q54, b % Q54);
            assert_eq!(ring.reduce_once(sum), ring.add(ca, cb));
            assert_eq!(ring.reduce_once(diff), ring.sub(ca, cb));
        }
    }

    #[test]
    fn reduce_once_lands_canonical() {
        let ring = Barrett64::new(Q54).unwrap();
        assert_eq!(ring.reduce_once(0), 0);
        assert_eq!(ring.reduce_once(Q54 - 1), Q54 - 1);
        assert_eq!(ring.reduce_once(Q54), 0);
        assert_eq!(ring.reduce_once(2 * Q54 - 1), Q54 - 1);
    }

    #[test]
    fn headroom_edge_at_q_near_2_62() {
        // The largest Barrett64 moduli sit just under 2^62 — the exact
        // point where 4q brushes the container. The lazy ops must still
        // never overflow there.
        let q = (1u64 << 62) - 57; // odd, just below the cap
        let ring = Barrett64::new(q).unwrap();
        assert!(ring.lazy_capable());
        let q2 = ring.two_q();
        let w = ring.shoup(q - 1);
        // Worst-case operands: the top of the redundant range.
        let r = ring.mul_lazy(q2 - 1, &w);
        assert!(r < q2);
        assert_eq!(r % q, ((q2 as u128 - 1) % q as u128 * (q as u128 - 1) % q as u128) as u64);
        assert_eq!(ring.add_lazy(q2 - 1, q2 - 1), q2 - 2);
        assert_eq!(ring.sub_lazy(0, q2 - 1), 1);
    }

    #[test]
    fn barrett128_without_headroom_reports_incapable() {
        let q = (1u128 << 127) + 45;
        let ring = Barrett128::new(q).unwrap();
        assert!(!ring.lazy_capable());
    }

    #[test]
    fn shoup_quotient_definition_128() {
        let ring = Barrett128::new(Q109).unwrap();
        let w = 12345u128;
        let sm = ring.shoup(w);
        // ⌊w·2^128/q⌋ cross-checked through the U256 big division.
        let expect =
            crate::U256::from_halves(0, w).div_rem(crate::U256::from_u128(Q109)).0.low_u128();
        assert_eq!(sm.quotient, expect);
        assert_eq!(sm.value, w);
    }
}
