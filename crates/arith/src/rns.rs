//! The Residue Number System (RNS).
//!
//! Section II-D of the paper: coefficients wider than a machine word are
//! represented by their residues modulo several coprime primes (Chinese
//! Remainder Theorem), turning one wide polynomial into several narrow
//! "towers" that compute independently. The CPU baseline splits the
//! 109-bit modulus into 54+55-bit towers and the 218-bit modulus into four
//! ~55-bit towers; CoFHEE's 128-bit native width halves the tower count
//! (two 109-bit towers for 218 bits) — the architectural argument of
//! Section III-C.

use crate::barrett::{Barrett128, Barrett64, MAX_BARRETT64_BITS};
use crate::error::{ArithError, Result};
use crate::primes;
use crate::ring::ModRing;
use crate::shoup::{LazyRing, ShoupMul};
use crate::u256::U256;

/// Most limbs the word-level Garner path takes: its mixed-radix digits
/// live in a stack array of this size, and the last digit's inner sum —
/// 15 products below `(2^62)²` — still fits the `u128` it accumulates in
/// unreduced.
const MAX_WORD_LIMBS: usize = 16;

/// An RNS basis: pairwise-coprime prime moduli whose product covers the
/// wide modulus `Q = Π qᵢ`.
///
/// # Examples
///
/// ```
/// use cofhee_arith::rns::RnsBasis;
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// // The paper's (n = 2^13, log q = 218) CPU decomposition: 4 towers.
/// let basis = RnsBasis::for_total_bits(218, 64, 1 << 13)?;
/// assert_eq!(basis.len(), 4);
/// let x = 123_456_789_012_345_678_901_234_567u128;
/// let residues = basis.decompose_u128(x);
/// assert_eq!(basis.compose(&residues)?.to_u128(), Some(x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsBasis {
    moduli: Vec<u128>,
    /// Per-modulus Barrett engines for mixed-radix arithmetic.
    rings: Vec<Barrett128>,
    /// Q = product of all moduli (must fit 256 bits).
    product: U256,
    /// Garner constants: `(q₁·…·qᵢ₋₁)^{-1} mod qᵢ` for `i ≥ 1`.
    garner_inv: Vec<u128>,
    /// The same constants on machine words, present when every modulus is
    /// below `2^62` and there are at most [`MAX_WORD_LIMBS`] of them —
    /// every basis the BFV and CKKS layers build.
    word: Option<Vec<WordLimb>>,
}

/// Garner constants of one limb `pᵢ < 2^62` for the word-level path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WordLimb {
    ring: Barrett64,
    /// `(p₀·…·p_{j−1}) mod pᵢ` for each `j < i` (the weight of mixed-radix
    /// digit `j`; `1` for `j = 0`).
    weights: Vec<u64>,
    /// `(p₀·…·p_{i−1})^{-1} mod pᵢ` with its Shoup quotient.
    inv: ShoupMul<u64>,
}

impl RnsBasis {
    /// Builds a basis from explicit prime moduli.
    ///
    /// # Errors
    ///
    /// * [`ArithError::InvalidRnsBasis`] if the list is empty, contains a
    ///   non-prime, duplicates, or the product overflows 256 bits.
    pub fn new(moduli: Vec<u128>) -> Result<Self> {
        if moduli.is_empty() {
            return Err(ArithError::InvalidRnsBasis { reason: "basis must not be empty" });
        }
        for (i, &q) in moduli.iter().enumerate() {
            if !primes::is_prime(q) {
                return Err(ArithError::InvalidRnsBasis { reason: "all moduli must be prime" });
            }
            if moduli[..i].contains(&q) {
                return Err(ArithError::InvalidRnsBasis { reason: "moduli must be distinct" });
            }
        }
        let mut product = U256::ONE;
        for &q in &moduli {
            product = product
                .checked_mul(U256::from_u128(q))
                .ok_or(ArithError::InvalidRnsBasis { reason: "product exceeds 256 bits" })?;
        }
        let rings: Vec<Barrett128> =
            moduli.iter().map(|&q| Barrett128::new(q)).collect::<crate::Result<_>>()?;
        // Garner mixed-radix constants: inverse of the prefix product.
        let mut garner_inv = Vec::with_capacity(moduli.len());
        for (i, ring) in rings.iter().enumerate() {
            let mut prefix = ring.one();
            for &p in &moduli[..i] {
                prefix = ring.mul(prefix, ring.from_u128(p));
            }
            garner_inv.push(ring.inv(prefix)?);
        }
        let narrow =
            moduli.len() <= MAX_WORD_LIMBS && moduli.iter().all(|&q| q >> MAX_BARRETT64_BITS == 0);
        let word = if narrow {
            let mut limbs = Vec::with_capacity(moduli.len());
            for (i, &q) in moduli.iter().enumerate() {
                let ring = Barrett64::new(q as u64)?;
                let mut prefix = 1u64;
                let mut weights = Vec::with_capacity(i);
                for &p in &moduli[..i] {
                    weights.push(prefix);
                    prefix = ring.mul(prefix, ring.from_u128(p));
                }
                limbs.push(WordLimb { ring, weights, inv: ring.shoup(garner_inv[i] as u64) });
            }
            Some(limbs)
        } else {
            None
        };
        Ok(Self { moduli, rings, product, garner_inv, word })
    }

    /// Builds a basis of NTT-friendly primes covering `total_bits` bits
    /// with towers sized for a `word_bits`-wide engine, all compatible
    /// with degree-`n` negacyclic NTTs.
    ///
    /// Mirrors the paper's decompositions: `(218, 64)` gives the CPU's
    /// 55+55+54+54 plan; `(218, 128)` gives CoFHEE's 109+109 plan.
    ///
    /// # Errors
    ///
    /// Propagates prime-search and validation failures.
    pub fn for_total_bits(total_bits: u32, word_bits: u32, n: usize) -> Result<Self> {
        let plan = primes::tower_plan(total_bits, word_bits);
        let mut moduli = Vec::with_capacity(plan.len());
        let mut by_size: std::collections::HashMap<u32, Vec<u128>> = Default::default();
        let mut counts: std::collections::HashMap<u32, usize> = Default::default();
        for &bits in &plan {
            *counts.entry(bits).or_default() += 1;
        }
        for (&bits, &count) in &counts {
            by_size.insert(bits, primes::ntt_primes(bits, n, count)?);
        }
        for &bits in &plan {
            let pool = by_size.get_mut(&bits).expect("pool populated above");
            moduli.push(pool.pop().expect("pool sized to plan"));
        }
        Self::new(moduli)
    }

    /// The tower moduli.
    #[inline]
    pub fn moduli(&self) -> &[u128] {
        &self.moduli
    }

    /// Number of towers.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// Whether the basis is empty (never true for a constructed basis).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The wide modulus `Q = Π qᵢ`.
    #[inline]
    pub fn product(&self) -> U256 {
        self.product
    }

    /// Total bit size of `Q`.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.product.bits()
    }

    /// Decomposes a 128-bit value into its residues.
    pub fn decompose_u128(&self, x: u128) -> Vec<u128> {
        self.moduli.iter().map(|&q| x % q).collect()
    }

    /// Decomposes a 256-bit value into its residues.
    pub fn decompose(&self, x: U256) -> Vec<u128> {
        self.moduli.iter().map(|&q| u256_rem_u128(x, q)).collect()
    }

    /// Reconstructs the value in `[0, Q)` from its residues.
    ///
    /// Garner's mixed-radix algorithm — per-modulus arithmetic plus a
    /// Horner sum in 256 bits, no wide divisions and no heap allocation —
    /// because this sits on the critical path of exact BFV ciphertext
    /// multiplication. Which arithmetic runs is fixed by the moduli when
    /// the basis is built: if all of them are below `2^62` (and there are
    /// at most 16), the digits are computed on 64-bit words with
    /// [`Barrett64`], sums of products accumulated unreduced in a `u128`
    /// and the inverse applied by a Shoup multiplication; a basis with a
    /// wider modulus (the chip's 109 + 109-bit plan) runs the same
    /// recurrence on [`Barrett128`].
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidRnsBasis`] if the residue count does
    /// not match the basis, or [`ArithError::OperandOutOfRange`] if a
    /// residue is not reduced.
    pub fn compose(&self, residues: &[u128]) -> Result<U256> {
        if residues.len() != self.moduli.len() {
            return Err(ArithError::InvalidRnsBasis { reason: "residue count mismatch" });
        }
        for (&r, &q) in residues.iter().zip(&self.moduli) {
            if r >= q {
                return Err(ArithError::OperandOutOfRange { value: r, modulus: q });
            }
        }
        let x = match &self.word {
            Some(limbs) => compose_words(limbs, residues),
            None => self.compose_wide(residues),
        };
        debug_assert!(x < self.product);
        Ok(x)
    }

    /// Garner on [`Barrett128`], for validated residues of any basis.
    fn compose_wide(&self, residues: &[u128]) -> U256 {
        // Mixed-radix digits: v_i = (r_i − (v₁ + p₁(v₂ + p₂(…)))) ·
        // (p₁…p_{i−1})^{-1}  (mod p_i).
        let k = self.moduli.len();
        let mut digits = Vec::with_capacity(k);
        #[allow(clippy::needless_range_loop)] // digit i folds over digits[0..i]
        for i in 0..k {
            let ring = &self.rings[i];
            // Evaluate the mixed-radix prefix at p_i by Horner's rule.
            let mut acc = ring.zero();
            for j in (0..i).rev() {
                let vj = ring.from_u128(digits[j]);
                let pj = ring.from_u128(self.moduli[j]);
                acc = ring.add(ring.mul(acc, pj), vj);
            }
            let diff = ring.sub(ring.from_u128(residues[i]), acc);
            digits.push(ring.mul(diff, self.garner_inv[i]));
        }
        // x = v₁ + p₁·(v₂ + p₂·(v₃ + …)), exact in 256 bits.
        let mut x = U256::ZERO;
        for i in (0..k).rev() {
            x = x
                .wrapping_mul(U256::from_u128(self.moduli[i]))
                .wrapping_add(U256::from_u128(digits[i]));
        }
        x
    }

    /// Centered reconstruction: values in `[Q/2, Q)` map to negatives,
    /// returned as `(magnitude, is_negative)`.
    ///
    /// BFV decryption and noise analysis need the symmetric representative.
    ///
    /// # Errors
    ///
    /// Same as [`RnsBasis::compose`].
    pub fn compose_centered(&self, residues: &[u128]) -> Result<(U256, bool)> {
        let v = self.compose(residues)?;
        let half = self.product.shr(1);
        if v > half {
            Ok((self.product.wrapping_sub(v), true))
        } else {
            Ok((v, false))
        }
    }
}

/// Garner on machine words, for validated residues of a basis whose
/// moduli are all below `2^62`.
fn compose_words(limbs: &[WordLimb], residues: &[u128]) -> U256 {
    // Mixed-radix digits: vᵢ = (rᵢ − Σ_{j<i} vⱼ·(p₀…p_{j−1})) ·
    // (p₀…p_{i−1})^{-1}  (mod pᵢ). Every product is below 2^124 and there
    // are fewer than MAX_WORD_LIMBS of them, so the sum needs one
    // reduction, not one per term.
    let mut digits = [0u64; MAX_WORD_LIMBS];
    for (i, limb) in limbs.iter().enumerate() {
        let acc: u128 =
            limb.weights.iter().zip(&digits).map(|(&w, &v)| w as u128 * v as u128).sum();
        let diff = limb.ring.sub(residues[i] as u64, limb.ring.reduce_u128(acc));
        digits[i] = limb.ring.mul_shoup(diff, limb.inv.value, limb.inv.quotient);
    }
    // x = v₀ + p₀·(v₁ + p₁·(v₂ + …)), exact in 256 bits.
    let mut x = U256::ZERO;
    for (limb, &v) in limbs.iter().zip(&digits[..limbs.len()]).rev() {
        x = x.mul_add_u64(limb.ring.q(), v);
    }
    x
}

/// Remainder of a 256-bit value modulo a 128-bit modulus.
pub(crate) fn u256_rem_u128(x: U256, q: u128) -> u128 {
    x.rem(U256::from_u128(q)).low_u128()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis_2x54() -> RnsBasis {
        RnsBasis::for_total_bits(109, 64, 1 << 12).unwrap()
    }

    #[test]
    fn for_total_bits_matches_paper_plans() {
        let cpu109 = basis_2x54();
        assert_eq!(cpu109.len(), 2);
        assert!(cpu109.total_bits() >= 108 && cpu109.total_bits() <= 110);

        let cpu218 = RnsBasis::for_total_bits(218, 64, 1 << 13).unwrap();
        assert_eq!(cpu218.len(), 4);

        let chip218 = RnsBasis::for_total_bits(218, 128, 1 << 13).unwrap();
        assert_eq!(chip218.len(), 2);
        for &q in chip218.moduli() {
            assert_eq!(128 - q.leading_zeros(), 109);
        }
    }

    #[test]
    fn paper_tower_counts() {
        // The chip's 128-bit datapath holds a 109-bit modulus in one tower
        // and a 218-bit modulus in two distinct 109-bit towers.
        let b109 = RnsBasis::for_total_bits(109, 128, 1 << 10).unwrap();
        assert_eq!(b109.len(), 1);
        let b218 = RnsBasis::for_total_bits(218, 128, 1 << 10).unwrap();
        assert_eq!(b218.len(), 2);
        let moduli = b218.moduli();
        assert_ne!(moduli[0], moduli[1]);
        for &q in b109.moduli().iter().chain(moduli) {
            assert_eq!(128 - q.leading_zeros(), 109);
        }
    }

    #[test]
    fn compose_decompose_round_trip_u128() {
        let basis = basis_2x54();
        for x in [0u128, 1, 42, u64::MAX as u128, (1 << 100) + 12345] {
            let residues = basis.decompose_u128(x);
            let back = basis.compose(&residues).unwrap();
            assert_eq!(back.to_u128(), Some(x), "x = {x}");
        }
    }

    #[test]
    fn compose_decompose_round_trip_u256() {
        let basis = RnsBasis::for_total_bits(218, 64, 1 << 13).unwrap();
        let x = U256::from_halves(0xdeadbeef_12345678, 0xfeedface) // ~160 bits
            .shl(40);
        let residues = basis.decompose(x);
        assert_eq!(basis.compose(&residues).unwrap(), x.rem(basis.product()));
    }

    #[test]
    fn compose_validates_inputs() {
        let basis = basis_2x54();
        assert!(basis.compose(&[1]).is_err());
        let q0 = basis.moduli()[0];
        assert!(basis.compose(&[q0, 0]).is_err());
    }

    #[test]
    fn word_and_wide_garner_agree() {
        // Every residue pattern must leave both recurrences on one value:
        // the paper's CPU tower plan over 236 bits (5 limbs), BFV's
        // paper-scale computation basis (4 × 59 bits), the widest word
        // limbs, and a CKKS-shaped 43 + 33 + 33-bit chain.
        let chain = [
            primes::ntt_primes(43, 1 << 13, 1).unwrap(),
            primes::ntt_primes(33, 1 << 13, 2).unwrap(),
        ];
        for moduli in [
            RnsBasis::for_total_bits(236, 64, 1 << 13).unwrap().moduli,
            primes::ntt_primes(59, 1 << 13, 4).unwrap(),
            primes::ntt_primes(61, 1 << 13, 4).unwrap(),
            chain.concat(),
        ] {
            let basis = RnsBasis::new(moduli).unwrap();
            let limbs = basis.word.as_ref().expect("all moduli are below 2^62");
            let mut state = 0x9e37_79b9_7f4a_7c15_u128;
            for _ in 0..2000 {
                let residues: Vec<u128> = basis
                    .moduli()
                    .iter()
                    .map(|&p| {
                        state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e);
                        (state >> 32) % p
                    })
                    .collect();
                assert_eq!(compose_words(limbs, &residues), basis.compose_wide(&residues));
            }
        }
        // A 109-bit limb, or more limbs than the digit array holds, stays wide.
        assert!(RnsBasis::for_total_bits(218, 128, 1 << 13).unwrap().word.is_none());
        let tiny = [3u128, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61];
        let many = RnsBasis::new(tiny.to_vec()).unwrap();
        assert!(many.word.is_none());
        assert_eq!(
            many.compose(&many.decompose_u128(123_456_789)).unwrap().to_u128(),
            Some(123_456_789)
        );
        assert!(RnsBasis::new(tiny[..16].to_vec()).unwrap().word.is_some());
    }

    #[test]
    fn centered_reconstruction_sees_negatives() {
        let basis = basis_2x54();
        // Encode -5 as Q - 5.
        let minus5 = basis.product().wrapping_sub(U256::from_u64(5));
        let residues = basis.decompose(minus5);
        let (mag, neg) = basis.compose_centered(&residues).unwrap();
        assert!(neg);
        assert_eq!(mag.to_u128(), Some(5));
        let (mag2, neg2) = basis.compose_centered(&basis.decompose_u128(7)).unwrap();
        assert!(!neg2);
        assert_eq!(mag2.to_u128(), Some(7));
    }

    #[test]
    fn new_rejects_bad_bases() {
        assert!(RnsBasis::new(vec![]).is_err());
        assert!(RnsBasis::new(vec![4]).is_err()); // not prime
        assert!(RnsBasis::new(vec![65537, 65537]).is_err()); // duplicate
    }

    #[test]
    fn arithmetic_is_homomorphic_across_towers() {
        // (a*b + c) computed per-tower equals the wide-integer result mod Q.
        let basis = basis_2x54();
        let (a, b, c) = (0xabcdef0123456789u128, 0x123456789abcdefu128, 99999u128);
        let mut residues = Vec::new();
        for &q in basis.moduli() {
            let ring = Barrett128::new(q).unwrap();
            let t = ring.add(ring.mul(a % q, b % q), c % q);
            residues.push(t);
        }
        let got = basis.compose(&residues).unwrap();
        let (lo, hi) = U256::from_u128(a).widening_mul(U256::from_u128(b));
        let wide = lo.wrapping_add(U256::from_u128(c));
        debug_assert!(hi.is_zero());
        let expect = wide.rem(basis.product());
        assert_eq!(got, expect);
    }
}
