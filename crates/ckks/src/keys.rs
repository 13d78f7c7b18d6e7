//! CKKS key material: secret/public keys and the relinearization key,
//! all carried per RNS limb of the modulus chain.
//!
//! The small signed polynomials (ternary secret, CBD errors) are sampled
//! *once* as integers and mapped into every limb's ring — that is what
//! makes the per-limb representations consistent residues of a single
//! integer polynomial. The public uniform polynomials are sampled
//! independently per limb, which by CRT **is** a uniform sample modulo
//! the chain product. Sampling reuses the scheme-agnostic helpers from
//! `cofhee_bfv::sampling` (generic over [`cofhee_arith::ModRing`]).
//!
//! The relinearization key records the ring degree and chain it was
//! made for (the evaluator refuses any other) and carries a shared
//! [`KeyId`]: the identity an evaluator's engine keys the key's
//! NTT-form resident copy on, and releases it by.

use cofhee_arith::{Barrett128, ModRing};
use cofhee_bfv::sampling;
use cofhee_opt::KeyId;
use cofhee_poly::{Domain, Polynomial};
use rand::Rng;

use crate::error::Result;
use crate::params::CkksParams;

/// One small signed polynomial represented in every limb's ring.
pub(crate) type LimbPolys = Vec<Polynomial<Barrett128>>;

/// The ternary secret key `s`, with `s` and `s²` resident per limb.
#[derive(Debug, Clone)]
pub struct CkksSecretKey {
    /// `s` per limb.
    pub(crate) s: LimbPolys,
    /// `s²` per limb (precomputed for 3-component decryption).
    pub(crate) s_sq: LimbPolys,
}

/// The public encryption key: `(p0, p1) = (−(a·s + e), a)` per limb.
#[derive(Debug, Clone)]
pub struct CkksPublicKey {
    /// `(p0ⱼ, p1ⱼ)` for each chain limb `j`.
    pub(crate) parts: Vec<(Polynomial<Barrett128>, Polynomial<Barrett128>)>,
}

/// The relinearization key: per limb `j`, per digit `i` of the
/// base-`2^w` decomposition, the pair
/// `(k0 = −(a·s + e) + Tⁱ·s², k1 = a)` as raw residue vectors. Stored
/// limb-major, so a limb's key set is borrowed as is: by
/// [`cofhee_core::KeySwitchKeys::Inline`] for the self-contained streams
/// a borrowed backend runs, and by the evaluator's
/// [`LimbEngine`](cofhee_opt::LimbEngine) the one time it makes the key
/// resident in NTT form on the backends it owns.
#[derive(Debug, Clone)]
pub struct CkksRelinKey {
    pub(crate) base_bits: u32,
    /// Ring degree and chain primes the residues were generated under.
    pub(crate) n: usize,
    pub(crate) moduli: Vec<u128>,
    /// `parts[limb][digit] = (k0 residues, k1 residues)`.
    pub(crate) parts: Vec<Vec<(Vec<u128>, Vec<u128>)>>,
    /// Shared by clones (same key material): what the resident copy is
    /// keyed on, and whose last drop releases it.
    pub(crate) id: KeyId,
}

impl CkksRelinKey {
    /// Digit width `w` of the decomposition this key switches.
    #[must_use]
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Number of digits the key carries (covers the full chain; lower
    /// levels use a prefix).
    #[must_use]
    pub fn digit_count(&self) -> usize {
        self.parts[0].len()
    }

    /// The `(k0, k1)` residue pairs of limb `j`, one per digit — the
    /// inline key set a limb-`j` key-switch stream carries.
    ///
    /// # Panics
    ///
    /// Panics when `j` is not a limb of the chain the key was made for.
    #[must_use]
    pub fn limb_parts(&self, j: usize) -> &[(Vec<u128>, Vec<u128>)] {
        &self.parts[j]
    }
}

/// Samples CKKS key material for one parameter set.
#[derive(Debug)]
pub struct CkksKeyGenerator {
    params: CkksParams,
}

impl CkksKeyGenerator {
    /// Builds a generator for `params`.
    #[must_use]
    pub fn new(params: &CkksParams) -> Self {
        Self { params: params.clone() }
    }

    /// Samples a ternary secret key.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures (none for validated
    /// parameter sets).
    pub fn secret_key<G: Rng + ?Sized>(&self, rng: &mut G) -> Result<CkksSecretKey> {
        let signed = sample_signed(&self.params, rng, SignedDist::Ternary);
        let s = lift_signed(&self.params, &signed)?;
        let s_sq =
            s.iter().map(|p| p.negacyclic_mul(p)).collect::<cofhee_poly::Result<Vec<_>>>()?;
        Ok(CkksSecretKey { s, s_sq })
    }

    /// Derives the public key `(−(a·s + e), a)` from a secret key.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures.
    pub fn public_key<G: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        rng: &mut G,
    ) -> Result<CkksPublicKey> {
        let e = lift_signed(&self.params, &sample_signed(&self.params, rng, SignedDist::Cbd))?;
        let mut parts = Vec::with_capacity(self.limbs());
        for (j, e_j) in e.iter().enumerate() {
            let a = self.uniform(j, rng)?;
            let p0 = a.negacyclic_mul(&sk.s[j])?.add(e_j)?.neg();
            parts.push((p0, a));
        }
        Ok(CkksPublicKey { parts })
    }

    /// Derives the relinearization key at the parameter set's digit
    /// width: digit `i` encodes `Tⁱ·s²` (`T = 2^w`) under fresh
    /// randomness, represented in every limb.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures.
    pub fn relin_key<G: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        rng: &mut G,
    ) -> Result<CkksRelinKey> {
        let w = self.params.base_bits();
        let digits = self.params.digits_at(self.params.top_level());
        let mut parts: Vec<_> = (0..self.limbs()).map(|_| Vec::with_capacity(digits)).collect();
        // Digit-major draws (the RNG order keys have always had), stored
        // limb-major.
        for i in 0..digits {
            let e = lift_signed(&self.params, &sample_signed(&self.params, rng, SignedDist::Cbd))?;
            for (j, e_j) in e.iter().enumerate() {
                let ring = *self.params.ring(j).ring();
                let a = self.uniform(j, rng)?;
                // Tⁱ mod qⱼ via repeated squaring on 2^w.
                let t_pow = ring.pow(ring.from_u128(1u128 << w), i as u128);
                let k0 = a
                    .negacyclic_mul(&sk.s[j])?
                    .add(e_j)?
                    .neg()
                    .add(&sk.s_sq[j].scalar_mul(t_pow))?;
                parts[j].push((k0.to_u128_vec(), a.to_u128_vec()));
            }
        }
        Ok(CkksRelinKey {
            base_bits: w,
            n: self.params.n(),
            moduli: self.params.moduli().to_vec(),
            parts,
            id: KeyId::default(),
        })
    }

    fn limbs(&self) -> usize {
        self.params.moduli().len()
    }

    fn uniform<G: Rng + ?Sized>(&self, j: usize, rng: &mut G) -> Result<Polynomial<Barrett128>> {
        let ctx = self.params.ring(j).clone();
        let coeffs = sampling::uniform(ctx.ring(), self.params.n(), rng);
        Ok(Polynomial::from_elems(ctx, coeffs, Domain::Coefficient)?)
    }
}

/// The two small signed distributions of RLWE key material.
pub(crate) enum SignedDist {
    /// The ternary secret distribution.
    Ternary,
    /// Centered-binomial noise.
    Cbd,
}

/// Samples one small signed polynomial, shared across limbs.
pub(crate) fn sample_signed<G: Rng + ?Sized>(
    params: &CkksParams,
    rng: &mut G,
    dist: SignedDist,
) -> Vec<i64> {
    // Sample in the base limb's ring, recover the exact signed value
    // (magnitudes ≤ 20 ≪ q₀/2), and reuse it for every limb.
    let ring = params.ring(0).ring();
    let elems = match dist {
        SignedDist::Ternary => sampling::ternary(ring, params.n(), rng),
        SignedDist::Cbd => sampling::error_poly(ring, params.n(), rng),
    };
    elems
        .into_iter()
        .map(|e| {
            let (mag, neg) = sampling::elem_to_centered(ring, e);
            if neg {
                -(mag as i64)
            } else {
                mag as i64
            }
        })
        .collect()
}

/// Represents one signed integer polynomial in limb `j`'s ring.
pub(crate) fn lift_limb(
    params: &CkksParams,
    j: usize,
    signed: &[i64],
) -> Result<Polynomial<Barrett128>> {
    let ctx = params.ring(j).clone();
    let coeffs = signed.iter().map(|&v| sampling::signed_to_elem(ctx.ring(), v)).collect();
    Ok(Polynomial::from_elems(ctx, coeffs, Domain::Coefficient)?)
}

/// Represents one signed integer polynomial in every limb's ring.
fn lift_signed(params: &CkksParams, signed: &[i64]) -> Result<LimbPolys> {
    (0..params.moduli().len()).map(|j| lift_limb(params, j, signed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> CkksParams {
        CkksParams::insecure_testing(64).unwrap()
    }

    #[test]
    fn secret_key_is_consistent_across_limbs() {
        let p = params();
        let kg = CkksKeyGenerator::new(&p);
        let mut rng = StdRng::seed_from_u64(7);
        let sk = kg.secret_key(&mut rng).unwrap();
        // Every limb must carry the same signed polynomial.
        for j in 1..p.moduli().len() {
            for k in 0..p.n() {
                let r0 = p.ring(0).ring();
                let rj = p.ring(j).ring();
                let (m0, n0) = sampling::elem_to_centered(r0, sk.s[0].coeffs()[k]);
                let (mj, nj) = sampling::elem_to_centered(rj, sk.s[j].coeffs()[k]);
                assert_eq!((m0, n0 && m0 != 0), (mj, nj && mj != 0));
            }
        }
    }

    #[test]
    fn relin_key_covers_top_level_digits() {
        let p = params();
        let kg = CkksKeyGenerator::new(&p);
        let mut rng = StdRng::seed_from_u64(8);
        let sk = kg.secret_key(&mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        assert_eq!(rlk.digit_count(), p.digits_at(p.top_level()));
        assert_eq!(rlk.base_bits(), p.base_bits());
        for j in 0..p.moduli().len() {
            assert_eq!(rlk.limb_parts(j).len(), rlk.digit_count());
        }
    }
}
