//! CKKS encryption and decryption (host-side, per limb).
//!
//! Encryption is the standard RLWE masking — `c0 = p0·u + e1 + m`,
//! `c1 = p1·u + e2` — computed limb-wise over the active chain prefix.
//! Unlike BFV there is no `Δ·m` lift here: the encoder already scaled
//! the message, so encryption adds the encoded integer polynomial
//! directly. Decryption evaluates `c0 + c1·s (+ c2·s²)` per limb and
//! hands the result to the decoder, which CRT-composes the centered
//! value out of the chain and divides by the carried scale — the
//! approximation error *is* the RLWE noise, that is the CKKS trade.

use rand::Rng;

use crate::ciphertext::{CkksCiphertext, CkksPlaintext, RnsPoly};
use crate::error::{CkksError, Result};
use crate::keys::{lift_limb, sample_signed, CkksPublicKey, CkksSecretKey, SignedDist};
use crate::params::CkksParams;

/// Encrypts encoded plaintexts under a public key.
#[derive(Debug)]
pub struct CkksEncryptor {
    params: CkksParams,
    pk: CkksPublicKey,
}

impl CkksEncryptor {
    /// Builds an encryptor.
    #[must_use]
    pub fn new(params: &CkksParams, pk: CkksPublicKey) -> Self {
        Self { params: params.clone(), pk }
    }

    /// Encrypts a plaintext at its carried level and scale.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures.
    pub fn encrypt<G: Rng + ?Sized>(
        &self,
        pt: &CkksPlaintext,
        rng: &mut G,
    ) -> Result<CkksCiphertext> {
        // One signed sample each, shared across limbs (consistency).
        let u = sample_signed(&self.params, rng, SignedDist::Ternary);
        let e1 = sample_signed(&self.params, rng, SignedDist::Cbd);
        let e2 = sample_signed(&self.params, rng, SignedDist::Cbd);
        let limbs = pt.level().limbs();
        let mut c0: RnsPoly = Vec::with_capacity(limbs);
        let mut c1: RnsPoly = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let ctx = self.params.ring(j).clone();
            let (p0, p1) = &self.pk.parts[j];
            let uj = lift_limb(&self.params, j, &u)?;
            let m = cofhee_poly::Polynomial::from_values(ctx.clone(), &pt.limbs()[j])?;
            let c0j = p0.negacyclic_mul(&uj)?.add(&lift_limb(&self.params, j, &e1)?)?.add(&m)?;
            let c1j = p1.negacyclic_mul(&uj)?.add(&lift_limb(&self.params, j, &e2)?)?;
            c0.push(c0j.to_u128_vec());
            c1.push(c1j.to_u128_vec());
        }
        CkksCiphertext::new(&self.params, vec![c0, c1], pt.level(), pt.scale())
    }
}

/// Decrypts ciphertexts under a secret key.
#[derive(Debug)]
pub struct CkksDecryptor {
    params: CkksParams,
    sk: CkksSecretKey,
}

impl CkksDecryptor {
    /// Builds a decryptor.
    #[must_use]
    pub fn new(params: &CkksParams, sk: CkksSecretKey) -> Self {
        Self { params: params.clone(), sk }
    }

    /// Decrypts a 2- or 3-component ciphertext to an encoded plaintext
    /// (run the decoder to recover the real slots).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ParamsMismatch`] for foreign ciphertexts and
    /// propagates polynomial-arithmetic failures.
    pub fn decrypt(&self, ct: &CkksCiphertext) -> Result<CkksPlaintext> {
        let limbs = ct.level().limbs();
        if ct.components().iter().any(|c| c.len() != limbs) {
            return Err(CkksError::ParamsMismatch);
        }
        let mut out: RnsPoly = Vec::with_capacity(limbs);
        for j in 0..limbs {
            let ctx = self.params.ring(j).clone();
            let c0 = cofhee_poly::Polynomial::from_values(ctx.clone(), &ct.components()[0][j])?;
            let c1 = cofhee_poly::Polynomial::from_values(ctx.clone(), &ct.components()[1][j])?;
            let mut v = c0.add(&c1.negacyclic_mul(&self.sk.s[j])?)?;
            if let Some(c2) = ct.components().get(2) {
                let c2 = cofhee_poly::Polynomial::from_values(ctx, &c2[j])?;
                v = v.add(&c2.negacyclic_mul(&self.sk.s_sq[j])?)?;
            }
            out.push(v.to_u128_vec());
        }
        CkksPlaintext::new(&self.params, out, ct.level(), ct.scale())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CkksEncoder;
    use crate::keys::CkksKeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
