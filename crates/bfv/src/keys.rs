//! BFV key material: secret, public and relinearization keys.

use std::sync::Arc;

use cofhee_arith::{Barrett128, ModRing};
use cofhee_core::KeyPair;
use cofhee_opt::KeyId;
use cofhee_poly::{Domain, Polynomial};
use rand::Rng;

use crate::error::{BfvError, Result};
use crate::params::BfvParams;
use crate::sampling;

/// The ternary secret key `s`, with `s²` beside it: what the relin key
/// encodes and what a three-component decryption multiplies by, computed
/// once with the key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    pub(crate) s: Polynomial<Barrett128>,
    pub(crate) s_sq: Polynomial<Barrett128>,
}

impl SecretKey {
    /// The secret polynomial (exposed for noise-analysis tooling; treat as
    /// sensitive).
    pub fn poly(&self) -> &Polynomial<Barrett128> {
        &self.s
    }
}

/// The public encryption key `(kp₁, kp₂)` of Eqs. 2–3.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `kp₁ = −(a·s + e)`.
    pub(crate) p0: Polynomial<Barrett128>,
    /// `kp₂ = a`.
    pub(crate) p1: Polynomial<Barrett128>,
}

/// A relinearization key: digit-decomposition key-switching material for
/// folding the `c₃` component of a ciphertext product back onto `(c₁, c₂)`.
///
/// The key is **stored in NTT form** — each polynomial transformed once,
/// when the key is generated — as shared payloads: a key switch
/// multiplies the transformed digits against it as it lies, so no
/// execution route (the evaluator's resident copy, a farm's or a
/// gateway's self-contained stream) transforms or copies it again.
///
/// The paper highlights (Section III-C) that CoFHEE's 128-bit coefficient
/// choice was made partly so key switching stays efficient — fewer, wider
/// digits.
#[derive(Debug, Clone)]
pub struct RelinKey {
    /// Decomposition base `T = 2^base_bits`.
    pub(crate) base_bits: u32,
    /// Ring degree and modulus the key was generated under (an evaluator
    /// refuses any other).
    pub(crate) n: usize,
    pub(crate) q: u128,
    /// For digit `i`: the forward transforms of
    /// `(−(aᵢ·s + eᵢ) + Tⁱ·s², aᵢ)`, canonical residues mod `q`.
    pub(crate) parts: Vec<KeyPair>,
    /// Shared by clones (same key material): what the evaluator's
    /// [`LimbEngine`](cofhee_opt::LimbEngine) keys the resident copy on,
    /// and whose last drop releases that copy.
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
}

impl KeyGenerator {
    /// Samples a fresh ternary secret key.
    pub fn new<G: Rng + ?Sized>(params: &BfvParams, rng: &mut G) -> Self {
        let ctx = Arc::clone(params.poly_ring());
        let s = sampling::ternary(ctx.ring(), params.n(), rng);
        let s = Polynomial::from_elems(ctx, s, Domain::Coefficient)
            .expect("sampler emits exactly n coefficients");
        let s_sq = s.negacyclic_mul(&s).expect("one ring, coefficient domain");
        Self { params: params.clone(), sk: SecretKey { s, s_sq } }
    }

    /// The generated secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Derives a public key: `(−(a·s + e), a)`.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures (none in practice: all
    /// operands share this generator's ring).
    pub fn public_key<G: Rng + ?Sized>(&self, rng: &mut G) -> Result<PublicKey> {
        let ctx = Arc::clone(self.params.poly_ring());
        let n = self.params.n();
        let a = Polynomial::from_elems(
            Arc::clone(&ctx),
            sampling::uniform(ctx.ring(), n, rng),
            Domain::Coefficient,
        )?;
        let e = Polynomial::from_elems(
            Arc::clone(&ctx),
            sampling::error_poly(ctx.ring(), n, rng),
            Domain::Coefficient,
        )?;
        let p0 = a.negacyclic_mul(&self.sk.s)?.add(&e)?.neg();
        Ok(PublicKey { p0, p1: a })
    }

    /// Derives a relinearization key with digits of `base_bits` bits,
    /// stored in NTT form: `s`, `s²` and each digit's `a` and `e` are
    /// transformed once and `k0 = −(â ⊙ ŝ + ê) + Tⁱ·ŝ²` is formed there —
    /// bit for bit the forward transform of the coefficient-domain key.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] unless `1 ≤ base_bits ≤ 63`
    /// (a zero-width digit never terminates the decomposition and a
    /// digit wider than a word overflows it), and propagates
    /// polynomial-arithmetic failures (none in practice).
    pub fn relin_key<G: Rng + ?Sized>(&self, base_bits: u32, rng: &mut G) -> Result<RelinKey> {
        if !(1..=63).contains(&base_bits) {
            return Err(BfvError::InvalidParams {
                reason: format!("relin digit width must be 1..=63 bits, got {base_bits}"),
            });
        }
        let ctx = Arc::clone(self.params.poly_ring());
        let ring = *ctx.ring();
        let n = self.params.n();
        let digits = self.params.log_q().div_ceil(base_bits) as usize;
        let fs = self.sk.s.clone().into_ntt()?;
        let fs_sq = self.sk.s_sq.clone().into_ntt()?;
        let mut parts = Vec::with_capacity(digits);
        let mut t_pow = ring.one(); // T^i mod q
        let base = ring.from_u128(1u128 << base_bits);
        for _ in 0..digits {
            let fa = Polynomial::from_elems(
                Arc::clone(&ctx),
                sampling::uniform(&ring, n, rng),
                Domain::Coefficient,
            )?
            .into_ntt()?;
            let fe = Polynomial::from_elems(
                Arc::clone(&ctx),
                sampling::error_poly(&ring, n, rng),
                Domain::Coefficient,
            )?
            .into_ntt()?;
            let k0 = fa.hadamard(&fs)?.add(&fe)?.neg().add(&fs_sq.scalar_mul(t_pow))?;
            parts.push((Arc::new(k0.to_u128_vec()), Arc::new(fa.to_u128_vec())));
            t_pow = ring.mul(t_pow, base);
        }
        Ok(RelinKey { base_bits, n, q: self.params.q(), parts, id: KeyId::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_is_ternary() {
        let p = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&p, &mut rng);
        let q = p.q();
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
        let lhs = pk.p0.add(&pk.p1.negacyclic_mul(&kg.secret_key().s).unwrap()).unwrap();
        let ring = p.poly_ring().ring();
        for &c in lhs.coeffs() {
            let (mag, _) = sampling::elem_to_centered(ring, c);
            assert!(mag <= 20, "pk noise too large: {mag}");
        }
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
        let ring = p.poly_ring().ring();
        let s = &kg.secret_key().s;
        let s_sq = s.negacyclic_mul(s).unwrap();
        assert_eq!(s_sq, kg.secret_key().s_sq);
        let raw = |stored: &[u128]| {
            Polynomial::from_elems(Arc::clone(p.poly_ring()), stored.to_vec(), Domain::Ntt)
                .unwrap()
                .into_coeff()
                .unwrap()
        };
        let mut t_pow = ring.one();
        for (k0, a) in rlk.parts() {
            let lhs = raw(k0)
                .add(&raw(a).negacyclic_mul(s).unwrap())
                .unwrap()
                .sub(&s_sq.scalar_mul(t_pow))
                .unwrap();
            for &c in lhs.coeffs() {
                let (mag, _) = sampling::elem_to_centered(ring, c);
                assert!(mag <= 20, "relin noise too large: {mag}");
            }
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
