//! Encryption and decryption (Eqs. 2–3 of the paper), run as command
//! streams.
//!
//! `c₁ = kp₁·u + e₁ + Δm`, `c₂ = kp₂·u + e₂` and `v = c₁ + c₂·s (+ c₃·s²)`
//! are PolyMul and PMODADD — the Table I command set — so they are
//! recorded with [`cofhee_core::record_encrypt`] /
//! [`cofhee_core::record_decrypt`] and run on a mod-`q` CPU
//! [`LimbEngine`] the encryptor or decryptor owns: brought up by its
//! first operation (the constructors stay infallible), with its key pair
//! — `(kp₁, kp₂)` or `(s, s²)` — resident on it in NTT form from then
//! on. An encryption is three transforms and a decryption two or three,
//! none of them of a key. The samplers, the `Δ·m` lift and the
//! `⌊t·v/q⌉` rounding stay host-side.

use std::sync::{Arc, OnceLock};

use cofhee_arith::{ModRing, U256};
use cofhee_core::{record_decrypt, record_encrypt, Limb, OpStream};
use cofhee_opt::{KeyId, LimbEngine};
use rand::Rng;

use crate::ciphertext::Ciphertext;
use crate::error::{BfvError, Result};
use crate::keys::{PublicKey, SecretKey};
use crate::params::BfvParams;
use crate::plaintext::Plaintext;
use crate::sampling;

/// Encrypts plaintexts under a public key.
///
/// Implements Eqs. 2–3: `c₁ = kp₁·u + e₁ + Δm`, `c₂ = kp₂·u + e₂`, with
/// ternary `u` and centered-binomial `e₁, e₂`. Clones share the engine
/// and the resident key (as evaluator clones do).
#[derive(Debug, Clone)]
pub struct Encryptor {
    params: BfvParams,
    pk: PublicKey,
    /// What the engine keys the resident `(kp₁, kp₂)` on.
    key: KeyId,
    engine: Arc<OnceLock<LimbEngine>>,
}

impl Encryptor {
    /// Creates an encryptor for the given key.
    pub fn new(params: &BfvParams, pk: PublicKey) -> Self {
        Self { params: params.clone(), pk, key: KeyId::default(), engine: Arc::default() }
    }

    /// Encrypts a plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] if the plaintext does not match
    /// the parameter set, and propagates engine bring-up failures (none
    /// for validated parameter sets).
    pub fn encrypt<G: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut G) -> Result<Ciphertext> {
        if pt.modulus() != self.params.t() || pt.coeffs().len() != self.params.n() {
            return Err(BfvError::InvalidParams {
                reason: "plaintext does not match the encryptor's parameters".into(),
            });
        }
        let (ring, q, n) = (self.params.ring(), self.params.q(), self.params.n());
        let u = sampling::ternary(ring, n, rng);
        let e1 = sampling::error_poly(ring, n, rng);
        let e2 = sampling::error_poly(ring, n, rng);
        // Δ·m lifted into R_q: m < t and Δ = ⌊q/t⌋ keep Δ·m < q (the
        // upload reduces defensively anyway).
        let delta = self.params.delta();
        let dm: Vec<u128> = pt.coeffs().iter().map(|&m| delta.wrapping_mul(m as u128)).collect();

        let engine = LimbEngine::client(&self.engine, &[q], n)?;
        let key = engine.resident_pair(&self.key, [(self.pk.p0.coeffs(), self.pk.p1.coeffs())])?;
        let mut st = OpStream::new(n);
        record_encrypt(&mut st, key[0], u, [e1, e2], dm)?;
        let polys = engine
            .run_one(0, st)?
            .into_iter()
            .map(|c| Ok(Limb::new(q, c)?))
            .collect::<Result<_>>()?;
        Ciphertext::new(polys)
    }
}

/// Decrypts ciphertexts with the secret key and measures noise budgets.
/// Clones share the engine and the resident key (as evaluator clones
/// do).
#[derive(Debug, Clone)]
pub struct Decryptor {
    params: BfvParams,
    sk: SecretKey,
    /// What the engine keys the resident `(s, s²)` on.
    key: KeyId,
    engine: Arc<OnceLock<LimbEngine>>,
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(params: &BfvParams, sk: SecretKey) -> Self {
        Self { params: params.clone(), sk, key: KeyId::default(), engine: Arc::default() }
    }

    /// Evaluates the decryption polynomial `v = c₁ + c₂·s (+ c₃·s²)`:
    /// one stream, refused before anything is uploaded when `ct` lives in
    /// another ring.
    fn decryption_poly(&self, ct: &Ciphertext) -> Result<Vec<u128>> {
        let (n, q, polys) = (self.params.n(), self.params.q(), ct.polys());
        if polys.iter().any(|p| !p.is_in(q, n)) {
            return Err(BfvError::ParamsMismatch);
        }
        let engine = LimbEngine::client(&self.engine, &[q], n)?;
        let key = engine.resident_pair(&self.key, [(self.sk.s.coeffs(), self.sk.s_sq.coeffs())])?;
        let mut st = OpStream::new(n);
        record_decrypt(&mut st, key[0], &polys[0], &polys[1], polys.get(2))?;
        Ok(engine.run_one(0, st)?.pop().expect("the stream marks one output"))
    }

    /// `m = ⌊t·v/q⌉ mod t` on the centered representative of `v`.
    fn round(&self, v: &[u128]) -> Result<Plaintext> {
        let ring = self.params.ring();
        let round = self.params.decrypt_round();
        let coeffs = v
            .iter()
            .map(|&c| {
                let (mag, neg) = sampling::elem_to_centered(ring, c);
                Ok(round.apply(U256::from_u128(mag), neg)? as u64)
            })
            .collect::<Result<Vec<u64>>>()?;
        Plaintext::new(&self.params, coeffs)
    }

    /// Decrypts a ciphertext (2- or 3-component).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for a ciphertext of another
    /// ring and propagates engine bring-up failures (none for validated
    /// parameter sets).
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext> {
        self.round(&self.decryption_poly(ct)?)
    }

    /// The remaining invariant-noise budget in bits: `log₂(q / (2·t·‖e‖))`,
    /// minimized over coefficients. Decryption is correct while positive.
    ///
    /// # Errors
    ///
    /// As [`Decryptor::decrypt`].
    pub fn noise_budget(&self, ct: &Ciphertext) -> Result<f64> {
        let v = self.decryption_poly(ct)?;
        let m = self.round(&v)?;
        let ring = self.params.ring();
        let q = self.params.q();
        let delta = self.params.delta();
        let mut worst: u128 = 0;
        for (&vc, &mc) in v.iter().zip(m.coeffs()) {
            let noise = ring.sub(vc, ring.from_u128(delta.wrapping_mul(mc as u128)));
            let (mag, _) = sampling::elem_to_centered(ring, noise);
            worst = worst.max(mag);
        }
        let budget =
            (q as f64).log2() - 1.0 - ((worst + 1) as f64).log2() - (self.params.t() as f64).log2();
        Ok(budget.max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (BfvParams, Encryptor, Decryptor, StdRng) {
        let params = BfvParams::insecure_testing(n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let dec = Decryptor::new(&params, kg.secret_key().clone());
        (params, enc, dec, rng)
    }

    /// Forward/inverse transforms the object's engine has retired.
    fn transforms(engine: &OnceLock<LimbEngine>, n: usize) -> u64 {
        let per_transform = (n as u64 / 2) * u64::from(n.trailing_zeros());
        engine.get().expect("brought up").report().butterflies / per_transform
    }

    /// Pool buffers the object's engine has out: every buffer is a pool
    /// take and every free a put (the `key_residency` ledger).
    fn live_buffers(engine: &OnceLock<LimbEngine>) -> u64 {
        let pool = engine.get().expect("brought up").pool_stats();
        pool.hits + pool.misses - pool.recycled
    }

    #[test]
    fn noise_budget_evaluates_the_decryption_polynomial_once() {
        let (params, enc, dec, mut rng) = setup(64, 6);
        let ct = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
        let cubic = crate::Evaluator::new(&params).unwrap().multiply(&ct, &ct).unwrap();
        dec.decrypt(&ct).unwrap(); // brings the engine up, `(s, s²)` resident
        let engine = dec.engine.get().unwrap();
        assert_eq!(transforms(&dec.engine, 64), 2 + 2, "the key pair, then ntt(c1) + one inverse");
        // ntt(c1) + one inverse, where two evaluations by self-contained
        // products ran 6; ntt(c1), ntt(c2) + one inverse, where they ran
        // 18 (`s²` recomputed both times).
        for (ct, want) in [(&ct, 2), (&cubic, 3)] {
            engine.reset();
            assert!(dec.noise_budget(ct).unwrap() > 0.0);
            assert_eq!(transforms(&dec.engine, 64), want, "{} components", ct.len());
            engine.reset();
            dec.decrypt(ct).unwrap();
            assert_eq!(transforms(&dec.engine, 64), want, "{} components", ct.len());
        }
        assert_eq!(live_buffers(&dec.engine), 2, "(s, s²) and nothing else");
    }

    #[test]
    fn a_warmed_encryptor_takes_no_new_buffers_and_holds_only_its_key() {
        let (params, enc, dec, mut rng) = setup(64, 7);
        let pt = Plaintext::constant(&params, 9).unwrap();
        for _ in 0..2 {
            enc.encrypt(&pt, &mut rng).unwrap();
        }
        let engine = enc.engine.get().unwrap();
        let warm = engine.pool_stats();
        // A clone shares the engine and the resident key.
        let clone = enc.clone();
        for round in 0..8 {
            engine.reset();
            let ct = if round % 2 == 0 { &enc } else { &clone }.encrypt(&pt, &mut rng).unwrap();
            assert_eq!(transforms(&enc.engine, 64), 3, "ntt(u) and one inverse per component");
            assert_eq!(live_buffers(&enc.engine), 2, "(kp₁, kp₂) between calls");
            assert_eq!(dec.decrypt(&ct).unwrap(), pt);
        }
        assert_eq!(engine.pool_stats().misses, warm.misses, "the pool was warm");
    }

    #[test]
    fn a_foreign_ciphertext_is_refused_before_anything_is_uploaded() {
        let (params, enc, dec, mut rng) = setup(32, 8);
        let ct = enc.encrypt(&Plaintext::constant(&params, 1).unwrap(), &mut rng).unwrap();
        dec.decrypt(&ct).unwrap();
        let engine = dec.engine.get().unwrap();
        let (report, pool) = (engine.report(), engine.pool_stats());
        let (other, their_enc, _, _) = setup(64, 8);
        let foreign = their_enc.encrypt(&Plaintext::constant(&other, 1).unwrap(), &mut rng);
        assert_eq!(dec.decrypt(&foreign.unwrap()), Err(BfvError::ParamsMismatch));
        assert_eq!((engine.report(), engine.pool_stats()), (report, pool));
        // An unused decryptor refuses without bringing an engine up.
        let idle = Decryptor::new(&params, dec.sk.clone());
        let foreign = their_enc.encrypt(&Plaintext::constant(&other, 1).unwrap(), &mut rng);
        assert_eq!(idle.noise_budget(&foreign.unwrap()), Err(BfvError::ParamsMismatch));
        assert!(idle.engine.get().is_none());
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let (params, enc, dec, mut rng) = setup(64, 1);
        let coeffs: Vec<u64> = (0..64u64).map(|i| (i * 991 + 7) % params.t()).collect();
        let pt = Plaintext::new(&params, coeffs.clone()).unwrap();
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(ct.len(), 2);
        let back = dec.decrypt(&ct).unwrap();
        assert_eq!(back.coeffs(), &coeffs[..]);
    }

    #[test]
    fn fresh_ciphertext_has_large_noise_budget() {
        let (params, enc, dec, mut rng) = setup(64, 2);
        let pt = Plaintext::constant(&params, 5).unwrap();
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        let budget = dec.noise_budget(&ct).unwrap();
        // 60-bit q, 16-bit t: fresh budget should be tens of bits.
        assert!(budget > 20.0, "budget = {budget}");
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (params, enc, _, mut rng) = setup(32, 3);
        let pt = Plaintext::constant(&params, 1).unwrap();
        let c1 = enc.encrypt(&pt, &mut rng).unwrap();
        let c2 = enc.encrypt(&pt, &mut rng).unwrap();
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
    }

    #[test]
    fn encryptor_rejects_foreign_plaintext() {
        let (_, enc, _, mut rng) = setup(32, 4);
        let other = BfvParams::insecure_testing(64).unwrap();
        let pt = Plaintext::constant(&other, 1).unwrap();
        assert!(enc.encrypt(&pt, &mut rng).is_err());
    }

    #[test]
    fn decrypts_all_plaintext_extremes() {
        let (params, enc, dec, mut rng) = setup(32, 5);
        let t = params.t();
        let mut coeffs = vec![0u64; 32];
        coeffs[0] = t - 1;
        coeffs[1] = 1;
        coeffs[31] = t - 1;
        let pt = Plaintext::new(&params, coeffs.clone()).unwrap();
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(dec.decrypt(&ct).unwrap().coeffs(), &coeffs[..]);
    }
}
