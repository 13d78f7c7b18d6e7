//! CKKS parameter sets: the RNS modulus chain and level tracking.
//!
//! Where BFV lives under one ciphertext modulus `q`, CKKS walks a *chain*
//! `q₀ < q₀·q₁ < … < q₀·…·q_L` of NTT-friendly primes. A fresh ciphertext
//! carries one RNS limb per chain prime; every rescale divides the
//! encrypted scale by the top prime and drops that limb — the modulus
//! chain is the multiplication budget. Each limb is an independent mod-`qⱼ`
//! polynomial, which is exactly what the CoFHEE op set computes: every
//! limb dispatches to a `PolyBackend` brought up for `(qⱼ, n)`, the same
//! way the BFV evaluator fans its CRT computation primes out. That holds
//! for the client side too (key generation, encryption, decryption), so
//! a parameter set builds no transform plan of its own: it carries the
//! chain, the per-level CRT bases, one scalar ring per limb and the
//! chain's Garner constants, which the decoder and the key switch's digit
//! cut compose with.
//!
//! One CoFHEE-specific constraint: relinearization composes the cubic
//! component on the host before digit decomposition, and the host-side
//! compose targets the chip's 128-bit native coefficient width — so the
//! chain product must fit 127 bits. The simulated evaluation points stay
//! comfortably inside that (the paper's own widest modulus is 109 bits).

use std::sync::Arc;

use cofhee_arith::{
    primes, rns::RnsBasis, Barrett128, Barrett64, LazyRing, ModRing, Result as ArithResult,
    ShoupMul,
};
use cofhee_core::Limb;

use crate::error::{CkksError, Result};

/// A position on the modulus chain: level `ℓ` means limbs `q₀ … q_ℓ` are
/// active (`ℓ + 1` RNS limbs). Fresh ciphertexts start at the chain's top
/// level; every rescale moves one level down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Level(usize);

impl Level {
    /// Wraps a chain index (0 = only the base prime remains).
    #[must_use]
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The chain index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Number of active RNS limbs at this level.
    #[must_use]
    pub fn limbs(self) -> usize {
        self.0 + 1
    }

    /// The level after one rescale, or `None` at the chain bottom.
    #[must_use]
    pub fn lower(self) -> Option<Self> {
        self.0.checked_sub(1).map(Self)
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A validated CKKS parameter set: ring degree, modulus chain, default
/// scaling factor Δ, and the relinearization digit width.
#[derive(Debug, Clone)]
pub struct CkksParams {
    n: usize,
    /// The chain: `moduli[0]` is the base prime (never dropped),
    /// `moduli[1..]` are the scale primes consumed by rescaling.
    moduli: Vec<u128>,
    /// Default scaling factor Δ applied by the encoder.
    scale: f64,
    /// Digit width `w` of the relinearization key decomposition.
    base_bits: u32,
    /// The scalar ring of each limb: what the samplers, `Tⁱ mod qⱼ` and
    /// `q_ℓ⁻¹ mod qⱼ` need. No transform plan lives here — every
    /// polynomial product, client side included, runs on a backend
    /// brought up for `(qⱼ, n)` at the limb's own width.
    rings: Vec<Barrett128>,
    /// `bases[ℓ]` spans `moduli[..= ℓ]` — the CRT basis active at level ℓ.
    bases: Vec<RnsBasis>,
    /// Garner's constants of the whole chain, built once and shared by
    /// every clone; a level reads a prefix.
    pub(crate) garner: Arc<Garner>,
}

/// Garner's constants of the chain on one ring width, words where every
/// prime fits [`Barrett64`]: with `Pᵢ = q₀·…·q_{i−1}`, limb `i` holds
/// `[−Pⱼ/Pᵢ]_{qᵢ}` for each `j < i`, then `[1/Pᵢ]_{qᵢ}`, as Shoup pairs, so
/// the digit `vᵢ = [(rᵢ − Σⱼ vⱼ·Pⱼ)/Pᵢ]_{qᵢ}` is `i + 1` lazy products of
/// unreduced words.
#[derive(Debug)]
pub(crate) enum Garner {
    Word(Vec<GarnerLimb<Barrett64>>),
    Wide(Vec<GarnerLimb<Barrett128>>),
}

/// One limb's ring and Garner weights.
type GarnerLimb<R> = (R, Vec<ShoupMul<<R as ModRing>::Elem>>);

impl Garner {
    fn new(moduli: &[u128]) -> ArithResult<Self> {
        if moduli.iter().all(|&q| u64::try_from(q).is_ok_and(|q| Barrett64::new(q).is_ok())) {
            Ok(Self::Word(garner(moduli, |q| Barrett64::new(q as u64))?))
        } else {
            Ok(Self::Wide(garner(moduli, Barrett128::new)?))
        }
    }

    /// Hands `sink` the canonical values `x < Q` of the limb columns'
    /// coefficients, in order and in blocks, `Q < 2^127` the product of
    /// their primes. The columns must be the chain's first limbs.
    pub(crate) fn compose_blocks(&self, columns: &[Limb], sink: impl FnMut(&[u128])) {
        match self {
            Self::Word(limbs) => compose_blocks(limbs, columns, sink),
            Self::Wide(limbs) => compose_blocks(limbs, columns, sink),
        }
    }
}

/// Coefficients composed per block: each Garner digit is one pass over
/// the block's limb column, a fixed-constant Shoup multiply-accumulate
/// per earlier digit, and the block's digits stay in L1.
const BLOCK: usize = 256;

fn garner<R: LazyRing>(
    moduli: &[u128],
    ring: impl Fn(u128) -> ArithResult<R>,
) -> ArithResult<Vec<GarnerLimb<R>>> {
    let limb = |(i, &q): (usize, &u128)| {
        let ring = ring(q)?;
        let prefix =
            |j| moduli[..j].iter().fold(ring.one(), |p, &q| ring.mul(p, ring.from_u128(q)));
        let inv = ring.inv(prefix(i))?;
        let weights = (0..i).map(|j| ring.neg(ring.mul(prefix(j), inv))).chain([inv]);
        let weights = weights.map(|w| ring.shoup(w)).collect();
        Ok((ring, weights))
    };
    moduli.iter().enumerate().map(limb).collect()
}

fn compose_blocks<R: LazyRing>(
    limbs: &[GarnerLimb<R>],
    columns: &[Limb],
    mut sink: impl FnMut(&[u128]),
) {
    let limbs = &limbs[..columns.len()];
    let n = columns[0].len();
    let mut digits = vec![[R::Elem::default(); BLOCK]; limbs.len()];
    let mut block = [0u128; BLOCK];
    for start in (0..n).step_by(BLOCK) {
        let len = BLOCK.min(n - start);
        for (i, (ring, weights)) in limbs.iter().enumerate() {
            let (done, rest) = digits.split_at_mut(i);
            let v = &mut rest[0][..len];
            let residues = &columns[i][start..start + len];
            for (v, &r) in v.iter_mut().zip(residues) {
                *v = ring.mul_lazy(ring.from_u128(r), &weights[i]);
            }
            for (earlier, w) in done.iter().zip(weights) {
                for (v, &d) in v.iter_mut().zip(earlier) {
                    *v = ring.add_lazy(*v, ring.mul_lazy(d, w));
                }
            }
            v.iter_mut().for_each(|v| *v = ring.reduce_once(*v));
        }
        // x = v₀ + q₀·(v₁ + q₁·(…)).
        for (k, x) in block[..len].iter_mut().enumerate() {
            let terms = limbs.iter().zip(&digits).rev();
            *x = terms.fold(0, |x, ((ring, _), v)| x * ring.modulus() + ring.to_u128(v[k]));
        }
        sink(&block[..len]);
    }
}

impl CkksParams {
    /// Builds and validates a parameter set from an explicit chain.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] unless: `n` is a power of two
    /// ≥ 8; the chain has ≥ 2 distinct NTT-friendly primes (`q ≡ 1 mod
    /// 2n`) whose product fits 127 bits (the host-side compose width);
    /// Δ > 1 and every scale prime is within 2× of Δ (scale stability
    /// across rescales); and `1 ≤ base_bits ≤ 63`.
    pub fn new(n: usize, moduli: Vec<u128>, scale: f64, base_bits: u32) -> Result<Self> {
        if !n.is_power_of_two() || n < 8 {
            return Err(CkksError::InvalidParams {
                reason: format!("n = {n} must be a power of two >= 8"),
            });
        }
        if moduli.len() < 2 {
            return Err(CkksError::InvalidParams {
                reason: "the chain needs a base prime plus at least one scale prime".into(),
            });
        }
        for &q in &moduli {
            if (q - 1) % (2 * n as u128) != 0 {
                return Err(CkksError::InvalidParams {
                    reason: format!("modulus {q} is not NTT-friendly for degree {n}"),
                });
            }
        }
        if scale <= 1.0 || !scale.is_finite() {
            return Err(CkksError::InvalidParams {
                reason: format!("scale {scale} must be a finite factor > 1"),
            });
        }
        for &q in &moduli[1..] {
            let ratio = q as f64 / scale;
            if !(0.5..=2.0).contains(&ratio) {
                return Err(CkksError::InvalidParams {
                    reason: format!(
                        "scale prime {q} is not within 2x of the scale {scale} \
                         (rescaled ciphertexts would drift)"
                    ),
                });
            }
        }
        if !(1..=63).contains(&base_bits) {
            return Err(CkksError::InvalidParams {
                reason: format!("base_bits = {base_bits} must be in 1..=63"),
            });
        }
        // RnsBasis::new checks primality, distinctness, and overflow; the
        // per-level prefixes give the compose basis for every level.
        let mut bases = Vec::with_capacity(moduli.len());
        for l in 0..moduli.len() {
            bases.push(RnsBasis::new(moduli[..=l].to_vec())?);
        }
        let top = bases.last().expect("chain validated non-empty");
        if top.product().bits() > 127 {
            return Err(CkksError::InvalidParams {
                reason: format!(
                    "chain product spans {} bits; the host-side relinearization \
                     compose is limited to the chip's 128-bit native width",
                    top.product().bits()
                ),
            });
        }
        let rings = moduli.iter().map(|&q| Ok(Barrett128::new(q)?)).collect::<Result<_>>()?;
        let garner = Arc::new(Garner::new(&moduli)?);
        Ok(Self { n, moduli, scale, base_bits, rings, bases, garner })
    }

    /// A small, insecure parameter set for tests and demos: a 50-bit base
    /// prime, two 33-bit scale primes (Δ = 2³³, two rescale levels), and
    /// 18-bit relinearization digits.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for supported `n`).
    pub fn insecure_testing(n: usize) -> Result<Self> {
        let q0 = primes::ntt_prime(50, n)?;
        let scale_primes = primes::ntt_primes(33, n, 2)?;
        let mut moduli = vec![q0];
        moduli.extend(scale_primes);
        Self::new(n, moduli, (1u64 << 33) as f64, 18)
    }

    /// Ring degree.
    #[inline]
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of complex slots the encoder packs (`n / 2`).
    #[inline]
    #[must_use]
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// The full modulus chain, base prime first.
    #[inline]
    #[must_use]
    pub fn moduli(&self) -> &[u128] {
        &self.moduli
    }

    /// The chain moduli active at `level` (the first `level + 1`).
    #[must_use]
    pub fn moduli_at(&self, level: Level) -> &[u128] {
        &self.moduli[..level.limbs()]
    }

    /// Default scaling factor Δ.
    #[inline]
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Relinearization digit width `w`.
    #[inline]
    #[must_use]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// The chain's top level (where fresh ciphertexts start).
    #[must_use]
    pub fn top_level(&self) -> Level {
        Level(self.moduli.len() - 1)
    }

    /// The scalar ring `Z_{qⱼ}` of limb `j`.
    #[must_use]
    pub fn ring(&self, j: usize) -> &Barrett128 {
        &self.rings[j]
    }

    /// The CRT basis spanning the limbs active at `level`.
    #[must_use]
    pub fn basis_at(&self, level: Level) -> &RnsBasis {
        &self.bases[level.index()]
    }

    /// Relinearization digits needed to cover the composed coefficients
    /// at `level`: `⌈bits(Q_ℓ) / w⌉`.
    #[must_use]
    pub fn digits_at(&self, level: Level) -> usize {
        let bits = self.basis_at(level).product().bits();
        bits.div_ceil(self.base_bits) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insecure_testing_builds_a_three_prime_chain() {
        let p = CkksParams::insecure_testing(64).unwrap();
        assert_eq!(p.n(), 64);
        assert_eq!(p.slots(), 32);
        assert_eq!(p.moduli().len(), 3);
        assert_eq!(p.top_level(), Level::new(2));
        assert_eq!(p.top_level().limbs(), 3);
        assert_eq!(p.moduli_at(Level::new(1)).len(), 2);
        // Base prime ~50 bits, scale primes ~33 bits near Δ.
        assert_eq!(128 - p.moduli()[0].leading_zeros(), 50);
        for &q in &p.moduli()[1..] {
            assert_eq!(128 - q.leading_zeros(), 33);
        }
    }

    #[test]
    fn level_walks_down_the_chain() {
        let l2 = Level::new(2);
        assert_eq!(l2.lower(), Some(Level::new(1)));
        assert_eq!(Level::new(0).lower(), None);
        assert_eq!(format!("{l2}"), "L2");
    }

    #[test]
    fn digits_cover_the_composed_width() {
        let p = CkksParams::insecure_testing(64).unwrap();
        let top_bits = p.basis_at(p.top_level()).product().bits();
        let d = p.digits_at(p.top_level());
        assert!(d as u32 * p.base_bits() >= top_bits);
        assert!((d as u32 - 1) * p.base_bits() < top_bits);
        // Lower levels need fewer digits.
        assert!(p.digits_at(Level::new(0)) < d);
    }

    #[test]
    fn validation_rejects_bad_sets() {
        let good = CkksParams::insecure_testing(64).unwrap();
        let moduli = good.moduli().to_vec();
        // Degree not a power of two.
        assert!(CkksParams::new(48, moduli.clone(), good.scale(), 18).is_err());
        // Single-prime chain.
        assert!(CkksParams::new(64, moduli[..1].to_vec(), good.scale(), 18).is_err());
        // Scale prime far from Δ.
        assert!(CkksParams::new(64, moduli.clone(), 2f64.powi(20), 18).is_err());
        // Digit width out of range.
        assert!(CkksParams::new(64, moduli, good.scale(), 64).is_err());
    }

    #[test]
    fn chain_wider_than_native_width_is_rejected() {
        // Three ~50-bit primes: 150-bit product > 127.
        let n = 64usize;
        let qs = primes::ntt_primes(50, n, 3).unwrap();
        let err = CkksParams::new(n, qs, (1u64 << 50) as f64, 18).unwrap_err();
        assert!(matches!(err, CkksError::InvalidParams { .. }));
    }
}
