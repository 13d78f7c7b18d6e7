//! Encryption and decryption (Eqs. 2–3 of the paper).

use std::sync::Arc;

use cofhee_arith::{Barrett128, ModRing, U256};
use cofhee_poly::{Domain, Polynomial};
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
/// ternary `u` and centered-binomial `e₁, e₂`.
#[derive(Debug, Clone)]
pub struct Encryptor {
    params: BfvParams,
    pk: PublicKey,
}

impl Encryptor {
    /// Creates an encryptor for the given key.
    pub fn new(params: &BfvParams, pk: PublicKey) -> Self {
        Self { params: params.clone(), pk }
    }

    /// Encrypts a plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] if the plaintext does not match
    /// the parameter set.
    pub fn encrypt<G: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut G) -> Result<Ciphertext> {
        if pt.modulus() != self.params.t() || pt.coeffs().len() != self.params.n() {
            return Err(BfvError::InvalidParams {
                reason: "plaintext does not match the encryptor's parameters".into(),
            });
        }
        let ctx = Arc::clone(self.params.poly_ring());
        let ring = *ctx.ring();
        let n = self.params.n();
        let u = Polynomial::from_elems(
            Arc::clone(&ctx),
            sampling::ternary(&ring, n, rng),
            Domain::Coefficient,
        )?;
        let e1 = Polynomial::from_elems(
            Arc::clone(&ctx),
            sampling::error_poly(&ring, n, rng),
            Domain::Coefficient,
        )?;
        let e2 = Polynomial::from_elems(
            Arc::clone(&ctx),
            sampling::error_poly(&ring, n, rng),
            Domain::Coefficient,
        )?;
        // Δ·m lifted into R_q.
        let delta = self.params.delta();
        let dm: Vec<u128> = pt
            .coeffs()
            .iter()
            .map(|&m| {
                // m < t and Δ = ⌊q/t⌋ keep Δ·m < q: no reduction needed,
                // but from_values reduces defensively anyway.
                delta.wrapping_mul(m as u128)
            })
            .collect();
        let dm = Polynomial::from_values(Arc::clone(&ctx), &dm)?;
        let c0 = self.pk.p0.negacyclic_mul(&u)?.add(&e1)?.add(&dm)?;
        let c1 = self.pk.p1.negacyclic_mul(&u)?.add(&e2)?;
        Ciphertext::new(vec![c0, c1])
    }
}

/// Decrypts ciphertexts with the secret key and measures noise budgets.
#[derive(Debug, Clone)]
pub struct Decryptor {
    params: BfvParams,
    sk: SecretKey,
}

impl Decryptor {
    /// Creates a decryptor.
    pub fn new(params: &BfvParams, sk: SecretKey) -> Self {
        Self { params: params.clone(), sk }
    }

    /// Evaluates the decryption polynomial `v = c₁ + c₂·s (+ c₃·s²)`.
    fn decryption_poly(&self, ct: &Ciphertext) -> Result<Polynomial<Barrett128>> {
        let polys = ct.polys();
        let mut v = polys[0].add(&polys[1].negacyclic_mul(&self.sk.s)?)?;
        if let Some(c2) = polys.get(2) {
            let s_sq = self.sk.s.negacyclic_mul(&self.sk.s)?;
            v = v.add(&c2.negacyclic_mul(&s_sq)?)?;
        }
        Ok(v)
    }

    /// Decrypts a ciphertext (2- or 3-component).
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures (none for well-formed
    /// ciphertexts of this parameter set).
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext> {
        let v = self.decryption_poly(ct)?;
        let ring = self.params.poly_ring().ring();
        let round = self.params.decrypt_round();
        // m = ⌊t·v/q⌉ mod t on the centered representative.
        let coeffs = v
            .coeffs()
            .iter()
            .map(|&c| {
                let (mag, neg) = sampling::elem_to_centered(ring, c);
                Ok(round.apply(U256::from_u128(mag), neg)? as u64)
            })
            .collect::<Result<Vec<u64>>>()?;
        Plaintext::new(&self.params, coeffs)
    }

    /// The remaining invariant-noise budget in bits: `log₂(q / (2·t·‖e‖))`,
    /// minimized over coefficients. Decryption is correct while positive.
    ///
    /// # Errors
    ///
    /// Propagates polynomial-arithmetic failures.
    pub fn noise_budget(&self, ct: &Ciphertext) -> Result<f64> {
        let v = self.decryption_poly(ct)?;
        let m = self.decrypt(ct)?;
        let ring = self.params.poly_ring().ring();
        let q = self.params.q();
        let delta = self.params.delta();
        let mut worst: u128 = 0;
        for (&vc, &mc) in v.coeffs().iter().zip(m.coeffs()) {
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
