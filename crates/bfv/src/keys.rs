//! BFV key material: secret, public and relinearization keys.
//!
//! Every key polynomial is a [`Limb`] mod `q`. The samplers run
//! host-side, in the order keys have always drawn them; the products —
//! `s²`, the public key's `−(a·s + e)`, the relinearization key made in
//! the NTT domain — are the scheme-neutral key-generation streams of
//! `cofhee_core`, run on a CPU [`LimbEngine`] over `q` that the generator
//! brings up with the secret key.

use cofhee_arith::ModRing;
use cofhee_core::{
    record_public_key, record_relin_key, record_square, CpuBackendFactory, KeyPair, Limb, OpStream,
};
use cofhee_opt::{KeyId, LimbEngine};
use rand::Rng;

use crate::error::{BfvError, Result};
use crate::params::BfvParams;
use crate::sampling;

/// The ternary secret key `s`, with `s²` beside it: what the relin key
/// encodes and what a three-component decryption multiplies by, computed
/// once with the key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: Limb,
    pub(crate) s_sq: Limb,
}

impl SecretKey {
    /// The secret polynomial (exposed for noise-analysis tooling; treat as
    /// sensitive).
    pub fn poly(&self) -> &Limb {
        &self.s
    }
}

/// The public encryption key `(kp₁, kp₂)` of Eqs. 2–3.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `kp₁ = −(a·s + e)`.
    pub(crate) p0: Limb,
    /// `kp₂ = a`.
    pub(crate) p1: Limb,
}

/// A relinearization key: digit-decomposition key-switching material for
/// folding the `c₃` component of a ciphertext product back onto `(c₁, c₂)`.
///
/// The key is **stored in NTT form** — each polynomial transformed once,
/// when the key is generated — as shared limbs: a key switch multiplies
/// the transformed digits against it as it lies, so no execution route
/// (the evaluator's resident copy, a farm's or a gateway's self-contained
/// stream) transforms or copies it again. Each limb carries the modulus
/// it was generated under, which an evaluator checks.
///
/// The paper highlights (Section III-C) that CoFHEE's 128-bit coefficient
/// choice was made partly so key switching stays efficient — fewer, wider
/// digits.
#[derive(Debug, Clone)]
pub struct RelinKey {
    /// Decomposition base `T = 2^base_bits`.
    pub(crate) base_bits: u32,
    /// For digit `i`: the forward transforms of
    /// `(−(aᵢ·s + eᵢ) + Tⁱ·s², aᵢ)`.
    pub(crate) parts: Vec<KeyPair>,
    /// Shared by clones (same key material): what the evaluator's
    /// [`LimbEngine`] keys the resident copy on, and whose last drop
    /// releases that copy.
    pub(crate) id: KeyId,
}

impl RelinKey {
    /// The decomposition base exponent (digits are `base_bits` wide).
    pub fn base_bits(&self) -> u32 {
        self.base_bits
    }

    /// Number of digits `⌈log₂ q / base_bits⌉`.
    pub fn digit_count(&self) -> usize {
        self.parts.len()
    }

    /// The stored `(k0, k1)` pairs, one per digit, in NTT form.
    pub fn parts(&self) -> &[KeyPair] {
        &self.parts
    }
}

/// Generates all key material for a parameter set.
#[derive(Debug)]
pub struct KeyGenerator {
    params: BfvParams,
    sk: SecretKey,
    /// One CPU backend for `q`: every product of a key runs on it.
    engine: LimbEngine,
}

impl KeyGenerator {
    /// Samples a fresh ternary secret key and computes `s²` on the
    /// generator's engine.
    pub fn new<G: Rng + ?Sized>(params: &BfvParams, rng: &mut G) -> Self {
        let (q, n) = (params.q(), params.n());
        let s = sampling::ternary(params.ring(), n, rng);
        let square = || -> Result<(LimbEngine, SecretKey)> {
            let engine = LimbEngine::new(&CpuBackendFactory, &[q], n)?;
            let s = Limb::new(q, s)?;
            let mut st = OpStream::new(n);
            record_square(&mut st, &s)?;
            let s_sq = run(&engine, q, st)?.remove(0);
            Ok((engine, SecretKey { s, s_sq }))
        };
        let (engine, sk) =
            square().expect("BfvParams::new admits only a prime q ≡ 1 (mod 2n) a backend serves");
        Self { params: params.clone(), sk, engine }
    }

    /// The generated secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Derives a public key: `(−(a·s + e), a)`.
    ///
    /// # Errors
    ///
    /// Propagates stream failures (none in practice: every operand is
    /// `n` residues mod this generator's `q`).
    pub fn public_key<G: Rng + ?Sized>(&self, rng: &mut G) -> Result<PublicKey> {
        let (q, n, ring) = (self.params.q(), self.params.n(), self.params.ring());
        let a = Limb::new(q, sampling::uniform(ring, n, rng))?;
        let e = sampling::error_poly(ring, n, rng);
        let mut st = OpStream::new(n);
        record_public_key(&mut st, q, &self.sk.s, &a, e)?;
        Ok(PublicKey { p0: run(&self.engine, q, st)?.remove(0), p1: a })
    }

    /// Derives a relinearization key with digits of `base_bits` bits,
    /// stored in NTT form: one stream transforms `s`, `s²` and each
    /// digit's `a` and `e` once and forms `k0 = −(â ⊙ ŝ + ê) + Tⁱ·ŝ²`
    /// there — bit for bit the forward transform of the
    /// coefficient-domain key.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] unless `1 ≤ base_bits ≤ 63`
    /// (a zero-width digit never terminates the decomposition and a
    /// digit wider than a word overflows it), and propagates stream
    /// failures (none in practice).
    pub fn relin_key<G: Rng + ?Sized>(&self, base_bits: u32, rng: &mut G) -> Result<RelinKey> {
        if !(1..=63).contains(&base_bits) {
            return Err(BfvError::InvalidParams {
                reason: format!("relin digit width must be 1..=63 bits, got {base_bits}"),
            });
        }
        let (q, n, ring) = (self.params.q(), self.params.n(), self.params.ring());
        let digits = self.params.log_q().div_ceil(base_bits) as usize;
        let base = ring.from_u128(1u128 << base_bits);
        let mut t_pow = ring.one(); // T^i mod q
        let mut draws = Vec::with_capacity(digits);
        for _ in 0..digits {
            let a = sampling::uniform(ring, n, rng);
            let e = sampling::error_poly(ring, n, rng);
            draws.push((a, e, ring.to_u128(t_pow)));
            t_pow = ring.mul(t_pow, base);
        }
        let mut st = OpStream::new(n);
        record_relin_key(&mut st, q, &self.sk.s, &self.sk.s_sq, draws)?;
        let mut stored = run(&self.engine, q, st)?.into_iter();
        let parts = std::iter::from_fn(|| Some((stored.next()?, stored.next()?))).collect();
        Ok(RelinKey { base_bits, parts, id: KeyId::default() })
    }
}

/// Runs a key-generation stream on the generator's engine: its outputs,
/// as limbs mod `q`.
fn run(engine: &LimbEngine, q: u128, st: OpStream) -> Result<Vec<Limb>> {
    engine.run_one(0, st)?.into_iter().map(|words| Ok(Limb::new(q, words)?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_poly::{naive, ntt};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `a + b·c` mod `q` by the schoolbook product.
    fn mul_add(params: &BfvParams, a: &[u128], b: &[u128], c: &[u128]) -> Vec<u128> {
        let ring = params.ring();
        let product = naive::negacyclic_mul(ring, b, c).unwrap();
        a.iter().zip(product).map(|(&x, y)| ring.add(x, y)).collect()
    }

    fn assert_small(params: &BfvParams, coeffs: &[u128], what: &str) {
        for &c in coeffs {
            let (mag, _) = sampling::elem_to_centered(params.ring(), c);
            assert!(mag <= 20, "{what} noise too large: {mag}");
        }
    }

    #[test]
    fn secret_key_is_ternary() {
        let p = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&p, &mut rng);
        let q = p.q();
        assert_eq!(kg.secret_key().poly().modulus(), q);
        for &c in kg.secret_key().poly().coeffs() {
            assert!(c == 0 || c == 1 || c == q - 1);
        }
    }

    #[test]
    fn public_key_satisfies_rlwe_relation() {
        // p0 + p1·s = -e, which must be small.
        let p = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let kg = KeyGenerator::new(&p, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        assert_small(&p, &mul_add(&p, &pk.p0, &pk.p1, &kg.secret_key().s), "pk");
    }

    #[test]
    fn relin_key_has_expected_digit_count() {
        let p = BfvParams::insecure_testing(16).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(&p, &mut rng);
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        assert_eq!(rlk.digit_count() as u32, p.log_q().div_ceil(16));
        assert_eq!(rlk.base_bits(), 16);
    }

    #[test]
    fn relin_key_parts_encode_s_squared() {
        // Out of the stored NTT form, parts[i].0 + parts[i].1·s − T^i·s²
        // must be small (= -e_i).
        let p = BfvParams::insecure_testing(16).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let kg = KeyGenerator::new(&p, &mut rng);
        let rlk = kg.relin_key(20, &mut rng).unwrap();
        let ring = p.ring();
        let s = &kg.secret_key().s;
        let s_sq = naive::negacyclic_mul(ring, s, s).unwrap();
        assert_eq!(s_sq, kg.secret_key().s_sq.coeffs());
        let tables = ntt::NttTables::new(ring, p.n()).unwrap();
        let raw = |stored: &[u128]| {
            let mut raw = stored.to_vec();
            ntt::inverse_inplace(ring, &mut raw, &tables).unwrap();
            raw
        };
        let mut t_pow = ring.one();
        for (k0, a) in rlk.parts() {
            let shifted: Vec<u128> = s_sq.iter().map(|&c| ring.mul(c, t_pow)).collect();
            let masked = mul_add(&p, &raw(k0), &raw(a), s);
            let lhs: Vec<u128> =
                masked.iter().zip(&shifted).map(|(&x, &y)| ring.sub(x, y)).collect();
            assert_small(&p, &lhs, "relin");
            t_pow = ring.mul(t_pow, ring.from_u128(1 << 20));
        }
    }

    #[test]
    fn relin_digit_width_is_checked_at_both_ends() {
        let p = BfvParams::insecure_testing(16).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let kg = KeyGenerator::new(&p, &mut rng);
        for bad in [0, 64, 127, 128, 200] {
            assert!(
                matches!(kg.relin_key(bad, &mut rng), Err(BfvError::InvalidParams { .. })),
                "base_bits = {bad}"
            );
        }
        // A refusal draws nothing: the next key is the one this seed makes.
        let mut replay = StdRng::seed_from_u64(5);
        let twin = KeyGenerator::new(&p, &mut replay).relin_key(1, &mut replay).unwrap();
        let narrow = kg.relin_key(1, &mut rng).unwrap();
        assert_eq!(narrow.parts(), twin.parts());
        assert_eq!(narrow.digit_count() as u32, p.log_q());
        assert_eq!(kg.relin_key(63, &mut rng).unwrap().digit_count(), 1);
    }
}
