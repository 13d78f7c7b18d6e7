//! CKKS key material: secret/public keys and the relinearization key,
//! all carried per RNS limb of the modulus chain as residue vectors —
//! the one host-side representation of a CKKS polynomial, the form
//! ciphertexts have and backends upload. The secret and public keys are
//! raw (coefficient-domain) residues; the relinearization key is stored
//! in **NTT form**, the form every key switch consumes it in, so it is
//! transformed exactly once — here, as it is generated.
//!
//! The small signed polynomials (ternary secret, CBD errors) are sampled
//! *once*, in the base limb's ring, and lifted limb to limb (`lift_to`)
//! — that is what makes the per-limb representations consistent residues
//! of a single integer polynomial. The public uniform polynomials are
//! sampled independently per limb, which by CRT **is** a uniform sample
//! modulo the chain product. Sampling reuses the scheme-agnostic helpers
//! from `cofhee_bfv::sampling` (generic over [`cofhee_arith::ModRing`]) and
//! stays host-side; every draw of a key is made before anything is
//! computed, in the order keys have always had.
//!
//! The products are the scheme-neutral key-generation streams of
//! `cofhee_core` — `s²`, `p0 = −(a·s + e)`, and the relinearization key
//! as one stream per limb that transforms `s` and `s²` once and emits
//! every digit in the NTT domain — run on a CPU [`LimbEngine`] over the
//! chain that the generator brings up on first use, so a word-sized
//! chain prime is computed at word width.
//!
//! Every key polynomial is a [`Limb`] of its chain prime: the
//! relinearization key's limbs are what the evaluator checks a key
//! against, and the key carries a shared [`KeyId`]: the identity an
//! evaluator's engine keys the key's resident copy on, and releases it
//! by.

use std::sync::{Arc, OnceLock};

use cofhee_arith::{signed, ModRing};
use cofhee_bfv::sampling;
use cofhee_core::{record_public_key, record_relin_key, record_square, KeyPair, Limb, OpStream};
use cofhee_opt::{KeyId, LimbEngine};
use rand::Rng;

use crate::ciphertext::RnsPoly;
use crate::error::Result;
use crate::params::CkksParams;

/// The ternary secret key `s`, with `s` and `s²` per limb.
#[derive(Debug, Clone)]
pub struct CkksSecretKey {
    /// `s` per limb.
    pub(crate) s: RnsPoly,
    /// `s²` per limb (precomputed for 3-component decryption).
    pub(crate) s_sq: RnsPoly,
}

/// The public encryption key: `(p0, p1) = (−(a·s + e), a)` per limb.
#[derive(Debug, Clone)]
pub struct CkksPublicKey {
    /// `(p0ⱼ, p1ⱼ)` for each chain limb `j`.
    pub(crate) parts: Vec<KeyPair>,
}

/// The relinearization key: per limb `j`, per digit `i` of the
/// base-`2^w` decomposition, the pair
/// `(k0 = −(a·s + e) + Tⁱ·s², k1 = a)`, **stored in NTT form** as shared
/// limbs. Stored limb-major, so a limb's key set is borrowed as is:
/// by [`cofhee_core::KeySwitchKeys::Inline`] for the self-contained
/// streams a borrowed backend runs (uploaded as they lie, not copied),
/// and by the evaluator's [`LimbEngine`] the one time it uploads the key
/// to the backends it owns. Nothing transforms the key after it is made.
#[derive(Debug, Clone)]
pub struct CkksRelinKey {
    pub(crate) base_bits: u32,
    /// `parts[limb][digit] = (k0, k1)`, each the forward transform mod
    /// that limb's prime.
    pub(crate) parts: Vec<Vec<KeyPair>>,
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

    /// The stored NTT-form `(k0, k1)` pairs of limb `j`, one per digit —
    /// the inline key set a limb-`j` key-switch stream carries.
    ///
    /// # Panics
    ///
    /// Panics when `j` is not a limb of the chain the key was made for.
    #[must_use]
    pub fn limb_parts(&self, j: usize) -> &[KeyPair] {
        &self.parts[j]
    }
}

/// Samples CKKS key material for one parameter set.
#[derive(Debug)]
pub struct CkksKeyGenerator {
    params: CkksParams,
    /// One CPU backend per chain prime, brought up by the first key.
    engine: OnceLock<LimbEngine>,
}

impl CkksKeyGenerator {
    /// Builds a generator for `params`.
    #[must_use]
    pub fn new(params: &CkksParams) -> Self {
        Self { params: params.clone(), engine: OnceLock::new() }
    }

    /// Samples a ternary secret key.
    ///
    /// # Errors
    ///
    /// Propagates engine bring-up and execution failures (none for
    /// validated parameter sets).
    pub fn secret_key<G: Rng + ?Sized>(&self, rng: &mut G) -> Result<CkksSecretKey> {
        let mut signed = sampling::ternary(self.params.ring(0), self.params.n(), rng);
        let (mut s, mut s_sq) = (Vec::new(), Vec::new());
        for j in 0..self.limbs() {
            lift_to(&self.params, j, &mut signed);
            let s_j = Limb::new(self.params.moduli()[j], signed.clone())?;
            let mut st = OpStream::new(self.params.n());
            record_square(&mut st, &s_j)?;
            s_sq.push(self.run(j, st)?.remove(0));
            s.push(s_j);
        }
        Ok(CkksSecretKey { s, s_sq })
    }

    /// Derives the public key `(−(a·s + e), a)` from a secret key.
    ///
    /// # Errors
    ///
    /// Propagates engine bring-up and execution failures.
    pub fn public_key<G: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        rng: &mut G,
    ) -> Result<CkksPublicKey> {
        let mut e = Arc::new(sampling::error_poly(self.params.ring(0), self.params.n(), rng));
        let a = (0..self.limbs()).map(|j| self.uniform(j, rng)).collect::<Result<Vec<_>>>()?;
        let mut parts = Vec::with_capacity(a.len());
        for (j, a_j) in a.into_iter().enumerate() {
            lift_to(&self.params, j, Arc::make_mut(&mut e).as_mut_slice());
            let mut st = OpStream::new(self.params.n());
            record_public_key(&mut st, self.params.moduli()[j], &sk.s[j], &a_j, Arc::clone(&e))?;
            parts.push((self.run(j, st)?.remove(0), a_j));
        }
        Ok(CkksPublicKey { parts })
    }

    /// Derives the relinearization key at the parameter set's digit
    /// width: digit `i` encodes `Tⁱ·s²` (`T = 2^w`) under fresh
    /// randomness, represented in every limb and stored in NTT form.
    ///
    /// # Errors
    ///
    /// Propagates engine bring-up and execution failures.
    pub fn relin_key<G: Rng + ?Sized>(
        &self,
        sk: &CkksSecretKey,
        rng: &mut G,
    ) -> Result<CkksRelinKey> {
        let w = self.params.base_bits();
        let digits = self.params.digits_at(self.params.top_level());
        // Digit-major draws (the RNG order keys have always had: per
        // digit one signed `e`, then one uniform `a` per limb), kept
        // limb-major like the key.
        let mut e = Vec::with_capacity(digits);
        let mut a = vec![Vec::with_capacity(digits); self.limbs()];
        for _ in 0..digits {
            e.push(Arc::new(sampling::error_poly(self.params.ring(0), self.params.n(), rng)));
            for (j, a_j) in a.iter_mut().enumerate() {
                a_j.push(sampling::uniform(self.params.ring(j), self.params.n(), rng));
            }
        }
        let mut parts = Vec::with_capacity(a.len());
        for (j, a_j) in a.into_iter().enumerate() {
            let ring = self.params.ring(j);
            // Tⁱ mod qⱼ via repeated squaring on 2^w.
            let t_pow = |i: usize| ring.to_u128(ring.pow(ring.from_u128(1u128 << w), i as u128));
            e.iter_mut().for_each(|e| lift_to(&self.params, j, Arc::make_mut(e).as_mut_slice()));
            let draws =
                a_j.into_iter().zip(&e).enumerate().map(|(i, (a, e))| (a, Arc::clone(e), t_pow(i)));
            let mut st = OpStream::new(self.params.n());
            record_relin_key(&mut st, ring.modulus(), &sk.s[j], &sk.s_sq[j], draws)?;
            let mut stored = self.run(j, st)?.into_iter();
            parts.push(std::iter::from_fn(|| Some((stored.next()?, stored.next()?))).collect());
        }
        Ok(CkksRelinKey { base_bits: w, parts, id: KeyId::default() })
    }

    fn limbs(&self) -> usize {
        self.params.moduli().len()
    }

    /// Runs a limb-`j` key-generation stream: its outputs, as limbs of
    /// chain prime `j`.
    fn run(&self, j: usize, st: OpStream) -> Result<Vec<Limb>> {
        let engine = LimbEngine::client(&self.engine, self.params.moduli(), self.params.n())?;
        let q = self.params.moduli()[j];
        engine.run_one(j, st)?.into_iter().map(|words| Ok(Limb::new(q, words)?)).collect()
    }

    fn uniform<G: Rng + ?Sized>(&self, j: usize, rng: &mut G) -> Result<Limb> {
        let q = self.params.moduli()[j];
        Ok(Limb::new(q, sampling::uniform(self.params.ring(j), self.params.n(), rng))?)
    }
}

/// Lifts small signed residues (magnitudes ≤ 20) in place from limb
/// `j − 1` to limb `j`. At `j = 0`, the samplers' ring, nothing moves.
/// A non-negative sample is its own residue mod every prime, so only the
/// negative ones are lifted.
pub(crate) fn lift_to(params: &CkksParams, j: usize, samples: &mut [u128]) {
    let Some(from) = j.checked_sub(1).map(|i| params.moduli()[i]) else { return };
    let to = params.moduli()[j];
    for w in samples.iter_mut().filter(|w| **w > from / 2) {
        *w = lift(from, to, *w);
    }
}

/// CKKS's one signed lift: the residue `v` mod `from`, re-centred into
/// `(−from/2, from/2]` and taken mod `to`. A magnitude already below
/// `to` (every sample's, and every rescale's on a chain whose primes
/// are within 2× of each other) pays no 128-bit division.
#[inline]
pub(crate) fn lift(from: u128, to: u128, v: u128) -> u128 {
    let (mag, neg) = signed::centered(from, v);
    let m = if mag < to { mag } else { mag % to };
    if neg && m != 0 {
        to - m
    } else {
        m
    }
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
                let (m0, n0) = sampling::elem_to_centered(p.ring(0), sk.s[0][k]);
                let (mj, nj) = sampling::elem_to_centered(p.ring(j), sk.s[j][k]);
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
    /// FNV-1a over the little-endian bytes of each word.
    fn fnv<'a>(words: impl IntoIterator<Item = &'a u128>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn every_key_is_bit_for_bit_what_the_polynomial_path_generated() {
        // `[s, s², pk, rlk]` digests computed at the commit before key
        // generation became streams (every limb on the wide ring),
        // for the test chain at n = 2^8 and the benchmark's 43/33/33-bit
        // chain at n = 2^13.
        let paper = {
            let n = 1 << 13;
            let mut moduli = vec![cofhee_arith::primes::ntt_prime(43, n).unwrap()];
            moduli.extend(cofhee_arith::primes::ntt_primes(33, n, 2).unwrap());
            CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap()
        };
        let pinned = [
            (
                CkksParams::insecure_testing(1 << 8).unwrap(),
                0xcc55,
                [
                    0x4f85_6e5a_0676_f0a8,
                    0xb794_01f2_ef8d_9147,
                    0xba2e_7ef9_60e0_e757,
                    0x0ebd_9c09_0dd1_7652,
                ],
            ),
            (
                paper,
                2023,
                [
                    0xa610_61ee_e32e_0461,
                    0xa43d_24b3_17bb_c055,
                    0x590f_49e4_a7c0_cada,
                    0x3aa3_365b_b3bf_f713,
                ],
            ),
        ];
        for (p, seed, want) in pinned {
            let kg = CkksKeyGenerator::new(&p);
            let mut rng = StdRng::seed_from_u64(seed);
            let sk = kg.secret_key(&mut rng).unwrap();
            let pk = kg.public_key(&sk, &mut rng).unwrap();
            let rlk = kg.relin_key(&sk, &mut rng).unwrap();
            // The relin key is stored in NTT form; its pinned digest is
            // of the raw key, recovered with the strict inverse kernel.
            let mut raw_rlk = Vec::new();
            for j in 0..p.moduli().len() {
                let tables = cofhee_poly::ntt::NttTables::new(p.ring(j), p.n()).unwrap();
                for stored in rlk.limb_parts(j).iter().flat_map(|(k0, k1)| [k0, k1]) {
                    let mut raw = stored.to_vec();
                    cofhee_poly::ntt::inverse_inplace(p.ring(j), &mut raw, &tables).unwrap();
                    raw_rlk.extend(raw);
                }
            }
            let got = [
                fnv(sk.s.iter().flatten()),
                fnv(sk.s_sq.iter().flatten()),
                fnv(pk.parts.iter().flat_map(|(p0, p1)| p0.iter().chain(p1))),
                fnv(&raw_rlk),
            ];
            assert_eq!(got, want, "n = {}: {got:#x?}", p.n());
            // One stream per limb and key, `s` transformed once in each:
            // `ntt(s)` + an inverse for `s²`; `ntt(s)`, `ntt(a)` + an
            // inverse for `p0`; `ntt(s)`, `ntt(s²)` + per digit `ntt(a)`
            // and `ntt(e)` for the relin key, which never leaves the NTT
            // domain.
            let digits = rlk.digit_count() as u64;
            let per_transform = (p.n() as u64 / 2) * u64::from(p.n().trailing_zeros());
            let retired = kg.engine.get().unwrap().report().butterflies / per_transform;
            assert_eq!(retired, (2 + 3 + 2 + 2 * digits) * p.moduli().len() as u64);
        }
    }
}
