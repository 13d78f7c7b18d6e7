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
//! `⌊t·v/q⌉` rounding stay host-side, the rounding on words
//! (`decrypt_round`, no 256-bit integer per coefficient).

use std::sync::{Arc, OnceLock};

use cofhee_arith::ModRing;
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
        let (ring, round) = (self.params.ring(), decrypt_round(self.params.t(), self.params.q()));
        let coeffs = v.iter().map(|&c| round(sampling::elem_to_centered(ring, c))).collect();
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

/// Decryption's `⌊t·x/q⌉ mod t` on words, for a centered `x = ±mag`
/// with `mag ≤ q/2`: the rounded magnitude is below `t`, so only the sign
/// needs the modulus. An `f64` estimate `m` of `t·mag/q` is corrected from
/// the exact residual `r = t·mag − m·q`, in wrapping `i128` (its true value
/// is inside `±2^124`), to `−q/2 < r < q/2` (`q` is odd: no ties). Below
/// `t = 2^50` the estimate is within one; a wider `t` (up to `2^64` where
/// `q` accepts it) first adds `r`'s own rounded quotient, within one again.
fn decrypt_round(t: u64, q: u128) -> impl Fn((u128, bool)) -> u64 {
    let (t_over_q, inv_q, wide) = (t as f64 / q as f64, 1.0 / q as f64, t >> 50 != 0);
    let qi = q as i128;
    move |(mag, neg)| {
        let mut m = i128::from((t_over_q * mag as f64 + 0.5) as u64);
        let mut r =
            u128::from(t).wrapping_mul(mag).wrapping_sub((m as u128).wrapping_mul(q)) as i128;
        if wide {
            let d = (r as f64 * inv_q).round() as i128;
            (m, r) = (m + d, r - d * qi);
        }
        let m = (m + i128::from(2 * r >= qi) - i128::from(2 * r < -qi)) as u64;
        if neg && m != 0 {
            t - m
        } else {
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use cofhee_arith::U256;
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

    /// Residues of the known answers at `q`: `0`, `±1`, `±⌊q/2⌋`, and both
    /// sides of the boundary `(2m+1)·q/(2t)` — where `t·x/q` crosses
    /// `m + ½` — for sampled `m` up to `⌊t/2⌋`, with their negatives.
    fn known_answers(t: u64, q: u128, rng: &mut StdRng) -> Vec<u128> {
        let mut values = vec![0, 1, q - 1, q / 2, q / 2 + 1];
        let ms = [0, 1, 2, t / 4, t / 2 - 1, t / 2].into_iter();
        for m in ms.chain((0..64).map(|_| rng.gen::<u64>() % (t / 2 + 1))) {
            let num = U256::from_u128(q).wrapping_mul(U256::from_u128(2 * u128::from(m) + 1));
            let x = num.div_rem(U256::from_u128(2 * u128::from(t))).0.low_u128();
            for x in [x, x + 1].into_iter().filter(|&x| x <= q / 2) {
                values.extend([x, q - x].into_iter().filter(|&v| v < q));
            }
        }
        values.extend((0..256).map(|_| rng.gen::<u128>() % q));
        values
    }

    #[test]
    fn the_word_round_is_the_256_bit_round_at_every_known_answer() {
        use cofhee_arith::{primes, signed::ScaleRound};
        let n = 64;
        let q90 = primes::ntt_prime(90, n).unwrap();
        let sets = [
            BfvParams::paper_n12().unwrap(),
            BfvParams::paper_n13_single_tower().unwrap(),
            BfvParams::insecure_testing(n).unwrap(),
            // Either side of the estimate's own reach, then the widest t.
            BfvParams::new(n, (1 << 50) - 1, q90).unwrap(),
            BfvParams::new(n, (1 << 50) + 1, q90).unwrap(),
            BfvParams::new(n, u64::MAX, q90).unwrap(),
            BfvParams::new(n, 2, q90).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(46);
        for params in sets {
            let (t, q) = (params.t(), params.q());
            let (round, oracle) = (decrypt_round(t, q), ScaleRound::new(t.into(), q, t.into()));
            let oracle = oracle.unwrap();
            for v in known_answers(t, q, &mut rng) {
                let (mag, neg) = cofhee_arith::signed::centered(q, v);
                let want = oracle.apply(U256::from_u128(mag), neg).unwrap() as u64;
                assert_eq!(round((mag, neg)), want, "t = {t}, q = {q}, v = {v}");
            }
        }
        // And through `decrypt`: `(v, 0)` decrypts to the round of `v`.
        let (params, _, dec, mut rng) = setup(n, 9);
        let (t, q) = (params.t(), params.q());
        let oracle = ScaleRound::new(t.into(), q, t.into()).unwrap();
        for v in known_answers(t, q, &mut rng).chunks(n).filter(|c| c.len() == n) {
            let ct = Ciphertext::new(vec![
                Limb::new(q, v.to_vec()).unwrap(),
                Limb::new(q, vec![0; n]).unwrap(),
            ]);
            let want: Vec<u64> = v
                .iter()
                .map(|&v| {
                    let (mag, neg) = cofhee_arith::signed::centered(q, v);
                    oracle.apply(U256::from_u128(mag), neg).unwrap() as u64
                })
                .collect();
            assert_eq!(dec.decrypt(&ct.unwrap()).unwrap().coeffs(), &want[..]);
        }
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
