//! CKKS encryption and decryption, run as one command stream per limb.
//!
//! Encryption is the standard RLWE masking — `c0 = p0·u + e1 + m`,
//! `c1 = p1·u + e2` — computed limb-wise over the active chain prefix.
//! Unlike BFV there is no `Δ·m` lift here: the encoder already scaled
//! the message, so encryption adds the encoded integer polynomial
//! directly. Decryption evaluates `c0 + c1·s (+ c2·s²)` per limb and
//! hands the result to the decoder, which CRT-composes the centered
//! value out of the chain and divides by the carried scale — the
//! approximation error *is* the RLWE noise, that is the CKKS trade.
//!
//! Both are the scheme-neutral [`cofhee_core::record_encrypt`] /
//! [`cofhee_core::record_decrypt`] streams BFV records over `q`, here
//! one per active limb, run on a CPU [`LimbEngine`] over the chain that
//! the encryptor or decryptor brings up with its first operation. Its
//! key pair — `(p0, p1)` or `(s, s²)`, every limb — is resident there in
//! NTT form from then on, and a word-sized chain prime is computed at
//! word width. The limbs run one after another on the calling thread:
//! each stream is a quarter of a millisecond at `n = 2^13`, less than a
//! thread fan-out is worth. The samplers and the signed lifts stay
//! host-side: `u`, `e₁`, `e₂` are drawn once, uploaded by `Arc` and lifted
//! in place from limb to limb (`keys::lift_to`).

use std::sync::{Arc, OnceLock};

use cofhee_bfv::sampling;
use cofhee_core::{record_decrypt, record_encrypt, Limb, OpStream};
use cofhee_opt::{KeyId, LimbEngine};
use rand::Rng;

use crate::ciphertext::{check_shape, CkksCiphertext, CkksPlaintext, RnsPoly};
use crate::error::Result;
use crate::keys::{lift_to, CkksPublicKey, CkksSecretKey};
use crate::params::CkksParams;

/// Encrypts encoded plaintexts under a public key.
#[derive(Debug)]
pub struct CkksEncryptor {
    params: CkksParams,
    pk: CkksPublicKey,
    /// What the engine keys the resident `(p0, p1)` on.
    key: KeyId,
    /// One CPU backend per chain prime, brought up by the first
    /// encryption.
    engine: OnceLock<LimbEngine>,
}

impl CkksEncryptor {
    /// Builds an encryptor.
    #[must_use]
    pub fn new(params: &CkksParams, pk: CkksPublicKey) -> Self {
        Self { params: params.clone(), pk, key: KeyId::default(), engine: OnceLock::new() }
    }

    /// Encrypts a plaintext at its carried level and scale.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CkksError::ParamsMismatch`] for a plaintext of another
    /// chain or degree, and propagates engine bring-up failures (none
    /// for validated parameter sets).
    pub fn encrypt<G: Rng + ?Sized>(
        &self,
        pt: &CkksPlaintext,
        rng: &mut G,
    ) -> Result<CkksCiphertext> {
        check_shape(&self.params, pt.level(), std::slice::from_ref(pt.limbs()))?;
        // One signed sample each, shared across limbs (consistency).
        let (ring, n) = (self.params.ring(0), self.params.n());
        let mut u = Arc::new(sampling::ternary(ring, n, rng));
        let mut e1 = Arc::new(sampling::error_poly(ring, n, rng));
        let mut e2 = Arc::new(sampling::error_poly(ring, n, rng));
        let engine = LimbEngine::client(&self.engine, self.params.moduli(), n)?;
        let pairs = self.pk.parts.iter().map(|(p0, p1)| (&p0[..], &p1[..]));
        let keys = engine.resident_pair(&self.key, pairs)?;
        let limbs = pt.level().limbs();
        let (mut c0, mut c1) = (Vec::with_capacity(limbs), Vec::with_capacity(limbs));
        for (j, m) in pt.limbs().iter().enumerate() {
            for s in [&mut u, &mut e1, &mut e2] {
                lift_to(&self.params, j, Arc::make_mut(s).as_mut_slice());
            }
            let mut st = OpStream::new(n);
            let noise = [Arc::clone(&e1), Arc::clone(&e2)];
            record_encrypt(&mut st, keys[j], Arc::clone(&u), noise, m)?;
            let [c0_j, c1_j]: [Vec<u128>; 2] =
                engine.run_one(j, st)?.try_into().expect("record_encrypt marks (c0, c1)");
            c0.push(Limb::new(m.modulus(), c0_j)?);
            c1.push(Limb::new(m.modulus(), c1_j)?);
        }
        CkksCiphertext::new(&self.params, vec![c0, c1], pt.level(), pt.scale())
    }
}

/// Decrypts ciphertexts under a secret key.
#[derive(Debug)]
pub struct CkksDecryptor {
    params: CkksParams,
    sk: CkksSecretKey,
    /// What the engine keys the resident `(s, s²)` on.
    key: KeyId,
    /// One CPU backend per chain prime, brought up by the first
    /// decryption.
    engine: OnceLock<LimbEngine>,
}

impl CkksDecryptor {
    /// Builds a decryptor.
    #[must_use]
    pub fn new(params: &CkksParams, sk: CkksSecretKey) -> Self {
        Self { params: params.clone(), sk, key: KeyId::default(), engine: OnceLock::new() }
    }

    /// Decrypts a 2- or 3-component ciphertext to an encoded plaintext
    /// (run the decoder to recover the real slots).
    ///
    /// # Errors
    ///
    /// Returns [`crate::CkksError::ParamsMismatch`] for foreign ciphertexts
    /// (another chain, limb count or degree) and propagates engine
    /// bring-up failures (none for validated parameter sets).
    pub fn decrypt(&self, ct: &CkksCiphertext) -> Result<CkksPlaintext> {
        let components = ct.components();
        check_shape(&self.params, ct.level(), components)?;
        let n = self.params.n();
        let engine = LimbEngine::client(&self.engine, self.params.moduli(), n)?;
        let pairs = self.sk.s.iter().zip(&self.sk.s_sq).map(|(s, s_sq)| (&s[..], &s_sq[..]));
        let keys = engine.resident_pair(&self.key, pairs)?;
        let mut out: RnsPoly = Vec::with_capacity(ct.level().limbs());
        for (j, &q) in self.params.moduli_at(ct.level()).iter().enumerate() {
            let mut st = OpStream::new(n);
            let cubic = components.get(2).map(|c| &c[j]);
            record_decrypt(&mut st, keys[j], &components[0][j], &components[1][j], cubic)?;
            for v in engine.run_one(j, st)? {
                out.push(Limb::new(q, v)?);
            }
        }
        CkksPlaintext::new(&self.params, out, ct.level(), ct.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CkksEncoder;
    use crate::error::CkksError;
    use crate::keys::CkksKeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Client {
        params: CkksParams,
        enc: CkksEncryptor,
        dec: CkksDecryptor,
        pt: CkksPlaintext,
        rng: StdRng,
    }

    fn client(n: usize, seed: u64) -> Client {
        let params = CkksParams::insecure_testing(n).unwrap();
        let kg = CkksKeyGenerator::new(&params);
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = kg.secret_key(&mut rng).unwrap();
        let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
        let pt = CkksEncoder::new(&params).encode(&[0.75, -2.5, 1.0]).unwrap();
        Client { dec: CkksDecryptor::new(&params, sk), params, enc, pt, rng }
    }

    /// Pool buffers an engine has out: every buffer is a pool take and
    /// every free a put (the `key_residency` ledger).
    fn live_buffers(engine: &LimbEngine) -> u64 {
        let pool = engine.pool_stats();
        pool.hits + pool.misses - pool.recycled
    }

    fn transforms(engine: &LimbEngine, n: usize) -> u64 {
        engine.report().butterflies / ((n as u64 / 2) * u64::from(n.trailing_zeros()))
    }

    #[test]
    fn a_warmed_encryptor_takes_no_new_buffers_and_holds_only_its_key() {
        let mut c = client(64, 12);
        let limbs = c.params.moduli().len() as u64;
        let first = c.enc.encrypt(&c.pt, &mut c.rng).unwrap();
        let engine = c.enc.engine.get().unwrap();
        assert_eq!(transforms(engine, 64), (2 + 3) * limbs, "the key pair once, then ntt(u) + 2");
        c.enc.encrypt(&c.pt, &mut c.rng).unwrap();
        let warm = engine.pool_stats();
        for _ in 0..8 {
            engine.reset();
            let ct = c.enc.encrypt(&c.pt, &mut c.rng).unwrap();
            assert_ne!(ct, first, "fresh randomness");
            assert_eq!(transforms(engine, 64), 3 * limbs, "where self-contained products ran 6");
            assert_eq!(live_buffers(engine), 2 * limbs, "(p0, p1) per limb between calls");
        }
        assert_eq!(engine.pool_stats().misses, warm.misses, "the pool was warm");
        // Below the top level only the active limbs run.
        let lower = c.params.top_level().lower().unwrap();
        let pt = CkksEncoder::new(&c.params).encode_at(&[1.0], lower, c.params.scale()).unwrap();
        engine.reset();
        assert_eq!(c.enc.encrypt(&pt, &mut c.rng).unwrap().level(), lower);
        assert_eq!(transforms(engine, 64), 3 * (limbs - 1));

        // The decryptor likewise: `(s, s²)` per limb, two transforms per
        // limb and message (three for three components).
        let ct = c.enc.encrypt(&c.pt, &mut c.rng).unwrap();
        c.dec.decrypt(&ct).unwrap();
        let engine = c.dec.engine.get().unwrap();
        let cubic = crate::CkksEvaluator::new(&c.params).unwrap().multiply(&ct, &ct).unwrap();
        for (ct, per_limb) in [(&ct, 2), (&cubic, 3)] {
            engine.reset();
            c.dec.decrypt(ct).unwrap();
            assert_eq!(transforms(engine, 64), per_limb * limbs, "{} components", ct.len());
            assert_eq!(live_buffers(engine), 2 * limbs);
        }
    }

    #[test]
    fn two_live_encryptors_under_different_keys_never_alias() {
        // Interleaved use of two encryptors gives what each gives alone
        // on the same randomness, and each decrypts under its own key.
        let (a, b) = (client(32, 20), client(32, 21));
        let (alone_a, alone_b) = (client(32, 20), client(32, 21));
        let draws = || StdRng::seed_from_u64(99);
        let (mut ra, mut rb) = (draws(), draws());
        let (mut sa, mut sb) = (draws(), draws());
        for _ in 0..3 {
            let ct_a = a.enc.encrypt(&a.pt, &mut ra).unwrap();
            let ct_b = b.enc.encrypt(&b.pt, &mut rb).unwrap();
            assert_eq!(ct_a, alone_a.enc.encrypt(&a.pt, &mut sa).unwrap());
            assert_eq!(ct_b, alone_b.enc.encrypt(&b.pt, &mut sb).unwrap());
            assert_ne!(ct_a, ct_b);
            let enc = CkksEncoder::new(&a.params);
            let close = |pt: &CkksPlaintext| (enc.decode(pt).unwrap()[1] + 2.5).abs() < 1e-6;
            assert!(close(&a.dec.decrypt(&ct_a).unwrap()) && close(&b.dec.decrypt(&ct_b).unwrap()));
            assert!(!close(&a.dec.decrypt(&ct_b).unwrap()), "b's ciphertext under a's key");
        }
    }

    #[test]
    fn foreign_operands_are_refused_before_anything_is_uploaded() {
        let mut c = client(64, 13);
        let ct = c.enc.encrypt(&c.pt, &mut c.rng).unwrap();
        c.dec.decrypt(&ct).unwrap();
        let snapshot = |engine: &LimbEngine| (engine.report(), engine.pool_stats());
        let before = (snapshot(c.enc.engine.get().unwrap()), snapshot(c.dec.engine.get().unwrap()));

        // Another degree.
        let mut other = client(128, 13);
        let foreign = other.enc.encrypt(&other.pt, &mut other.rng).unwrap();
        assert_eq!(c.dec.decrypt(&foreign), Err(CkksError::ParamsMismatch));
        assert_eq!(c.enc.encrypt(&other.pt, &mut c.rng), Err(CkksError::ParamsMismatch));
        // More limbs than the chain has (a level above its top): this
        // client's values against a chain one prime shorter.
        let moduli = c.params.moduli()[..2].to_vec();
        let short = CkksParams::new(64, moduli, c.params.scale(), c.params.base_bits()).unwrap();
        let kg = CkksKeyGenerator::new(&short);
        let sk = kg.secret_key(&mut c.rng).unwrap();
        let enc = CkksEncryptor::new(&short, kg.public_key(&sk, &mut c.rng).unwrap());
        let dec = CkksDecryptor::new(&short, sk);
        assert_eq!(enc.encrypt(&c.pt, &mut c.rng), Err(CkksError::ParamsMismatch));
        assert_eq!(dec.decrypt(&ct), Err(CkksError::ParamsMismatch));
        assert!(enc.engine.get().is_none() && dec.engine.get().is_none(), "no engine brought up");

        let after = (snapshot(c.enc.engine.get().unwrap()), snapshot(c.dec.engine.get().unwrap()));
        assert_eq!(after, before);
    }

    #[test]
    fn encrypt_decrypt_round_trips_within_noise() {
        let p = CkksParams::insecure_testing(64).unwrap();
        let enc = CkksEncoder::new(&p);
        let kg = CkksKeyGenerator::new(&p);
        let mut rng = StdRng::seed_from_u64(11);
        let sk = kg.secret_key(&mut rng).unwrap();
        let pk = kg.public_key(&sk, &mut rng).unwrap();
        let encryptor = CkksEncryptor::new(&p, pk);
        let decryptor = CkksDecryptor::new(&p, sk);

        let values: Vec<f64> = (0..p.slots()).map(|i| (i as f64 * 0.11).sin() * 4.0).collect();
        let ct = encryptor.encrypt(&enc.encode(&values).unwrap(), &mut rng).unwrap();
        let back = enc.decode(&decryptor.decrypt(&ct).unwrap()).unwrap();
        // RLWE noise ≲ CBD bound · (n + 1) coefficients stacked; at
        // Δ = 2³³ the slot error stays far below 2⁻²⁰.
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }
}
