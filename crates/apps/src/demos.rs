//! Functional encrypted-inference demos.
//!
//! Table X prices the paper's op mixes one op at a time; these demos run
//! the *actual mathematics* of the two applications end to end on
//! `cofhee-bfv` and `cofhee-ckks`:
//!
//! * [`SquareLayerNet`] — a CryptoNets-style dense layer with square
//!   activation (the polynomial-friendly activation CryptoNets
//!   introduced), batched over the plaintext slots.
//! * [`LogisticScorer`] — encrypted logistic-regression inference via an
//!   integer linear score computed under encryption; the sigmoid/threshold
//!   decision is applied client-side after decryption, as in the paper's
//!   reference application.
//! * [`ApproxLogistic`] — the CKKS variant of the same model: real-valued
//!   weights, and the sigmoid itself evaluated *under encryption* as a
//!   degree-3 polynomial, so the server returns a probability rather than
//!   a raw score.

use cofhee_arith::primes;
use cofhee_bfv::{
    BatchEncoder, BfvError, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator,
    Plaintext, RelinKey,
};
use cofhee_ckks::{
    CkksCiphertext, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator, CkksParams, CkksRelinKey,
    Level,
};
use cofhee_core::{BackendFactory, CpuBackendFactory};
use rand::Rng;

/// A dense layer with square activation over encrypted, batched inputs.
///
/// Weights and inputs are small non-negative integers mod `t`; each of
/// the `n` plaintext slots carries an independent inference (SIMD
/// batching, as CryptoNets does across images).
#[derive(Debug)]
pub struct SquareLayerNet {
    params: BfvParams,
    encoder: BatchEncoder,
    eval: Evaluator,
    rlk: RelinKey,
    /// `weights[k][j]`: weight of input `j` for neuron `k`.
    weights: Vec<Vec<u64>>,
    biases: Vec<u64>,
}

impl SquareLayerNet {
    /// Builds the layer for the given weights and biases.
    ///
    /// # Errors
    ///
    /// Parameter or key-generation failures.
    pub fn new<G: Rng + ?Sized>(
        params: &BfvParams,
        weights: Vec<Vec<u64>>,
        biases: Vec<u64>,
        keygen: &KeyGenerator,
        rng: &mut G,
    ) -> Result<Self, BfvError> {
        Self::with_backend(params, weights, biases, keygen, &CpuBackendFactory, rng)
    }

    /// Same layer, but with the homomorphic evaluation dispatched
    /// through an explicit execution backend (CPU or simulated CoFHEE
    /// chip) — the one-line swap of the unified `PolyBackend` API.
    ///
    /// # Errors
    ///
    /// Parameter, key-generation, or backend bring-up failures.
    pub fn with_backend<G: Rng + ?Sized>(
        params: &BfvParams,
        weights: Vec<Vec<u64>>,
        biases: Vec<u64>,
        keygen: &KeyGenerator,
        factory: &dyn BackendFactory,
        rng: &mut G,
    ) -> Result<Self, BfvError> {
        Ok(Self {
            params: params.clone(),
            encoder: BatchEncoder::new(params)?,
            eval: Evaluator::with_backend(params, factory)?,
            rlk: keygen.relin_key(20, rng)?,
            weights,
            biases,
        })
    }

    /// Number of neurons.
    pub fn neurons(&self) -> usize {
        self.weights.len()
    }

    /// The evaluator driving the encrypted math (telemetry inspection).
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    /// Evaluates `(Σ_j w_kj·x_j + b_k)²` per neuron over encrypted
    /// feature ciphertexts (one ciphertext per feature, slots = batch).
    ///
    /// # Errors
    ///
    /// Evaluation failures (mismatched parameter sets).
    pub fn infer(&self, features: &[Ciphertext]) -> Result<Vec<Ciphertext>, BfvError> {
        let mut outputs = Vec::with_capacity(self.weights.len());
        for (w_row, &b) in self.weights.iter().zip(&self.biases) {
            let mut acc: Option<Ciphertext> = None;
            for (ct, &w) in features.iter().zip(w_row) {
                let w_slots = vec![w % self.params.t(); self.params.n()];
                let w_pt = self.encoder.encode(&w_slots)?;
                let term = self.eval.mul_plain(ct, &w_pt)?;
                acc = Some(match acc {
                    Some(a) => self.eval.add(&a, &term)?,
                    None => term,
                });
            }
            let mut z = acc.expect("layer has at least one input");
            let b_pt = self.encoder.encode(&vec![b % self.params.t(); self.params.n()])?;
            z = self.eval.add_plain(&z, &b_pt)?;
            // Square activation with relinearization.
            outputs.push(self.eval.multiply_relin(&z, &z, &self.rlk)?);
        }
        Ok(outputs)
    }

    /// Reference plaintext inference for verification.
    pub fn infer_plain(&self, features: &[Vec<u64>]) -> Vec<Vec<u64>> {
        let t = self.params.t();
        let batch = features[0].len();
        self.weights
            .iter()
            .zip(&self.biases)
            .map(|(w_row, &b)| {
                (0..batch)
                    .map(|i| {
                        let z = w_row.iter().zip(features).fold(0u128, |acc, (&w, x)| {
                            (acc + (w as u128) * (x[i] as u128)) % t as u128
                        });
                        let z = (z + b as u128) % t as u128;
                        ((z * z) % t as u128) as u64
                    })
                    .collect()
            })
            .collect()
    }
}

/// Encrypted logistic-regression scoring: the linear score `w·x + b`
/// computed homomorphically, thresholded after decryption (the paper's
/// \[39\] evaluates class scores under encryption and decides in the
/// clear).
#[derive(Debug)]
pub struct LogisticScorer {
    params: BfvParams,
    encoder: BatchEncoder,
    eval: Evaluator,
    weights: Vec<u64>,
    bias: u64,
}

impl LogisticScorer {
    /// Builds a scorer (integer-quantized weights mod `t`).
    ///
    /// # Errors
    ///
    /// Parameter failures.
    pub fn new(params: &BfvParams, weights: Vec<u64>, bias: u64) -> Result<Self, BfvError> {
        Self::with_backend(params, weights, bias, &CpuBackendFactory)
    }

    /// Same scorer on an explicit execution backend (CPU or simulated
    /// CoFHEE chip).
    ///
    /// # Errors
    ///
    /// Parameter or backend bring-up failures.
    pub fn with_backend(
        params: &BfvParams,
        weights: Vec<u64>,
        bias: u64,
        factory: &dyn BackendFactory,
    ) -> Result<Self, BfvError> {
        Ok(Self {
            params: params.clone(),
            encoder: BatchEncoder::new(params)?,
            eval: Evaluator::with_backend(params, factory)?,
            weights,
            bias,
        })
    }

    /// The evaluator driving the encrypted math (telemetry inspection).
    pub fn evaluator(&self) -> &Evaluator {
        &self.eval
    }

    /// Computes the encrypted linear score for feature ciphertexts.
    ///
    /// # Errors
    ///
    /// Evaluation failures.
    pub fn score(&self, features: &[Ciphertext]) -> Result<Ciphertext, BfvError> {
        let mut acc: Option<Ciphertext> = None;
        for (ct, &w) in features.iter().zip(&self.weights) {
            let w_pt = self.encoder.encode(&vec![w % self.params.t(); self.params.n()])?;
            let term = self.eval.mul_plain(ct, &w_pt)?;
            acc = Some(match acc {
                Some(a) => self.eval.add(&a, &term)?,
                None => term,
            });
        }
        let b_pt = self.encoder.encode(&vec![self.bias % self.params.t(); self.params.n()])?;
        self.eval.add_plain(&acc.expect("at least one feature"), &b_pt)
    }

    /// Plaintext reference scores.
    pub fn score_plain(&self, features: &[Vec<u64>]) -> Vec<u64> {
        let t = self.params.t() as u128;
        let batch = features[0].len();
        (0..batch)
            .map(|i| {
                let z = self
                    .weights
                    .iter()
                    .zip(features)
                    .fold(0u128, |acc, (&w, x)| (acc + w as u128 * x[i] as u128) % t);
                ((z + self.bias as u128) % t) as u64
            })
            .collect()
    }
}

/// Degree-3 least-squares sigmoid approximation on `[-4, 4]`:
/// `σ(z) ≈ 0.5 + 0.197·z − 0.004·z³` — the standard polynomial used by
/// CKKS logistic-regression pipelines, accurate to ~0.03 on that range.
#[must_use]
pub fn sigmoid_deg3(z: f64) -> f64 {
    0.5 + SIGMOID_C1 * z - SIGMOID_C3 * z * z * z
}

const SIGMOID_C1: f64 = 0.197;
const SIGMOID_C3: f64 = 0.004;

/// CKKS logistic-regression inference with the sigmoid evaluated *under
/// encryption* as a degree-3 polynomial.
///
/// Where [`LogisticScorer`] returns an integer score for the client to
/// threshold, this variant works on real-valued weights and returns an
/// (approximate) probability: the server computes
/// `σ(w·x + b) ≈ 0.5 + z·(0.197 − 0.004·z²)` homomorphically, spending
/// four modulus-chain levels — one for the weighted score, one for
/// `z²`, one for the inner affine term, and one for the outer product.
#[derive(Debug)]
pub struct ApproxLogistic {
    params: CkksParams,
    encoder: CkksEncoder,
    eval: CkksEvaluator,
    rlk: CkksRelinKey,
    weights: Vec<f64>,
    bias: f64,
}

impl ApproxLogistic {
    /// Builds the model on the CPU backend.
    ///
    /// # Errors
    ///
    /// Parameter failures.
    pub fn new(
        params: &CkksParams,
        weights: Vec<f64>,
        bias: f64,
        rlk: CkksRelinKey,
    ) -> Result<Self, CkksError> {
        Self::with_backend(params, weights, bias, rlk, &CpuBackendFactory)
    }

    /// Same model on an explicit execution backend (CPU or simulated
    /// CoFHEE chip).
    ///
    /// # Errors
    ///
    /// Parameter or backend bring-up failures.
    pub fn with_backend(
        params: &CkksParams,
        weights: Vec<f64>,
        bias: f64,
        rlk: CkksRelinKey,
        factory: &dyn BackendFactory,
    ) -> Result<Self, CkksError> {
        Ok(Self {
            params: params.clone(),
            encoder: CkksEncoder::new(params),
            eval: CkksEvaluator::with_backend(params, factory)?,
            rlk,
            weights,
            bias,
        })
    }

    /// A modulus chain deep enough for the degree-3 sigmoid: a ~40-bit
    /// base prime plus four ~21-bit scale primes (the testing chain's
    /// two rescale levels cannot absorb the score rescale, the
    /// squaring, the inner rescale, and the outer product; the chain
    /// product must also stay inside the chip's 128-bit native width).
    ///
    /// # Errors
    ///
    /// Prime-search or parameter-validation failures.
    pub fn demo_params(n: usize) -> Result<CkksParams, CkksError> {
        let mut moduli = vec![primes::ntt_prime(40, n)?];
        moduli.extend(primes::ntt_primes(21, n, 4)?);
        CkksParams::new(n, moduli, (1u64 << 21) as f64, 18)
    }

    /// The evaluator driving the encrypted math (telemetry inspection).
    pub fn evaluator(&self) -> &CkksEvaluator {
        &self.eval
    }

    /// Computes `σ(w·x + b)` per slot over encrypted feature
    /// ciphertexts (one ciphertext per feature, slots = batch).
    ///
    /// # Errors
    ///
    /// Evaluation failures (parameter mismatches, level exhaustion on a
    /// too-shallow chain).
    pub fn infer(&self, features: &[CkksCiphertext]) -> Result<CkksCiphertext, CkksError> {
        let slots = self.params.slots();
        // Linear score at the product scale Δ², one rescale down.
        let mut acc: Option<CkksCiphertext> = None;
        for (ct, &w) in features.iter().zip(&self.weights) {
            let w_pt = self.encoder.encode(&vec![w; slots])?;
            let term = self.eval.mul_plain(ct, &w_pt)?;
            acc = Some(match acc {
                Some(a) => self.eval.add(&a, &term)?,
                None => term,
            });
        }
        let mut z = acc.expect("at least one feature");
        let b_pt = self.encoder.encode_at(&vec![self.bias; slots], z.level(), z.scale())?;
        z = self.eval.add_plain(&z, &b_pt)?;
        let z = self.eval.rescale(&z)?;

        // z², then the inner affine term u = 0.197 − 0.004·z².
        let z2 = self.eval.multiply_relin_rescale(&z, &z, &self.rlk)?;
        let c3 =
            self.encoder.encode_at(&vec![-SIGMOID_C3; slots], z2.level(), self.params.scale())?;
        let mut u = self.eval.mul_plain(&z2, &c3)?;
        let c1 = self.encoder.encode_at(&vec![SIGMOID_C1; slots], u.level(), u.scale())?;
        u = self.eval.add_plain(&u, &c1)?;
        let u = self.eval.rescale(&u)?;

        // Outer product z·u needs z brought down to u's level and scale.
        let z_d = self.align(&z, u.level(), u.scale())?;
        let t = self.eval.multiply_relin_rescale(&z_d, &u, &self.rlk)?;
        let half = self.encoder.encode_at(&vec![0.5; slots], t.level(), t.scale())?;
        self.eval.add_plain(&t, &half)
    }

    /// Drops `ct` to `level`/`scale` by multiplying with 1.0 encoded at
    /// the scale that makes each rescale land where the next operand
    /// expects it (a mod-switch spelled in the primitive vocabulary the
    /// chip executes).
    fn align(
        &self,
        ct: &CkksCiphertext,
        level: Level,
        scale: f64,
    ) -> Result<CkksCiphertext, CkksError> {
        let mut out = ct.clone();
        while out.level() > level {
            let q = self.params.moduli()[out.level().index()] as f64;
            let target =
                if out.level().lower() == Some(level) { scale } else { self.params.scale() };
            let one = self.encoder.encode_at(
                &vec![1.0; self.params.slots()],
                out.level(),
                target * q / out.scale(),
            )?;
            out = self.eval.rescale(&self.eval.mul_plain(&out, &one)?)?;
        }
        Ok(out)
    }

    /// Reference plaintext inference: the same degree-3 polynomial on
    /// `f64` (what the encrypted path approximates).
    pub fn infer_plain(&self, features: &[Vec<f64>]) -> Vec<f64> {
        let batch = features[0].len();
        (0..batch)
            .map(|i| {
                let z = self
                    .weights
                    .iter()
                    .zip(features)
                    .fold(self.bias, |acc, (&w, x)| acc + w * x[i]);
                sigmoid_deg3(z)
            })
            .collect()
    }
}

/// Helper: encrypts one real-valued feature vector per CKKS ciphertext
/// (slots = batch).
///
/// # Errors
///
/// Encoding/encryption failures.
pub fn encrypt_real_features<G: Rng + ?Sized>(
    params: &CkksParams,
    encryptor: &CkksEncryptor,
    features: &[Vec<f64>],
    rng: &mut G,
) -> Result<Vec<CkksCiphertext>, CkksError> {
    let encoder = CkksEncoder::new(params);
    features
        .iter()
        .map(|f| {
            let mut slots = f.clone();
            slots.resize(params.slots(), 0.0);
            encryptor.encrypt(&encoder.encode(&slots)?, rng)
        })
        .collect()
}

/// Helper: encrypts one feature vector per ciphertext (slots = batch).
///
/// # Errors
///
/// Encoding/encryption failures.
pub fn encrypt_features<G: Rng + ?Sized>(
    params: &BfvParams,
    encryptor: &Encryptor,
    features: &[Vec<u64>],
    rng: &mut G,
) -> Result<Vec<Ciphertext>, BfvError> {
    let encoder = BatchEncoder::new(params)?;
    features
        .iter()
        .map(|f| {
            let mut slots = f.clone();
            slots.resize(params.n(), 0);
            encryptor.encrypt(&encoder.encode(&slots)?, rng)
        })
        .collect()
}

/// Helper: decrypts and decodes a batch of ciphertexts into slot vectors.
///
/// # Errors
///
/// Decryption failures.
pub fn decrypt_slots(
    params: &BfvParams,
    decryptor: &Decryptor,
    cts: &[Ciphertext],
) -> Result<Vec<Vec<u64>>, BfvError> {
    let encoder = BatchEncoder::new(params)?;
    cts.iter().map(|ct| Ok(encoder.decode(&decryptor.decrypt(ct)?))).collect()
}

/// One plaintext from constant slots.
///
/// # Errors
///
/// Encoding failures.
pub fn constant_plaintext(params: &BfvParams, value: u64) -> Result<Plaintext, BfvError> {
    BatchEncoder::new(params)?.encode(&vec![value % params.t(); params.n()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (BfvParams, KeyGenerator, Encryptor, Decryptor, StdRng) {
        let params = BfvParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let dec = Decryptor::new(&params, kg.secret_key().clone());
        (params, kg, enc, dec, rng)
    }

    #[test]
    fn square_layer_matches_plaintext_model() {
        let (params, kg, enc, dec, mut rng) = setup();
        let weights = vec![vec![2, 3, 1], vec![1, 0, 4]];
        let biases = vec![5, 7];
        let net = SquareLayerNet::new(&params, weights, biases, &kg, &mut rng).unwrap();
        // Batch of 4 inferences across slots, 3 features each.
        let features = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 11, 12]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let out = net.infer(&cts).unwrap();
        let got = decrypt_slots(&params, &dec, &out).unwrap();
        let expect = net.infer_plain(&features);
        for (k, e_row) in expect.iter().enumerate() {
            assert_eq!(&got[k][..4], &e_row[..], "neuron {k}");
        }
    }

    #[test]
    fn logistic_scorer_matches_plaintext_model() {
        let (params, _kg, enc, dec, mut rng) = setup();
        let scorer = LogisticScorer::new(&params, vec![3, 1, 4, 1], 59).unwrap();
        let features = vec![vec![10, 20], vec![30, 40], vec![50, 60], vec![70, 80]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let score_ct = scorer.score(&cts).unwrap();
        let got = decrypt_slots(&params, &dec, &[score_ct]).unwrap();
        let expect = scorer.score_plain(&features);
        assert_eq!(&got[0][..2], &expect[..], "scores");
    }

    #[test]
    fn approx_logistic_evaluates_sigmoid_under_encryption() {
        use cofhee_ckks::{CkksDecryptor, CkksKeyGenerator};
        let params = ApproxLogistic::demo_params(32).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let kg = CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let pk = kg.public_key(&sk, &mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let model = ApproxLogistic::new(&params, vec![0.8, -0.5, 0.3], 0.2, rlk).unwrap();

        // Batch of 4 inferences across slots, 3 features each; the
        // resulting scores span the polynomial's [-4, 4] sweet spot.
        let features =
            vec![vec![1.0, -2.0, 0.5, 3.0], vec![0.5, 1.5, -1.0, -0.5], vec![-1.0, 0.0, 2.0, 1.0]];
        let enc = CkksEncryptor::new(&params, pk);
        let cts = encrypt_real_features(&params, &enc, &features, &mut rng).unwrap();
        let prob_ct = model.infer(&cts).unwrap();

        let dec = CkksDecryptor::new(&params, sk);
        let got = CkksEncoder::new(&params).decode(&dec.decrypt(&prob_ct).unwrap()).unwrap();
        let expect = model.infer_plain(&features);
        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 2e-2, "slot {i}: {g} vs {e}");
        }
        // Four chain levels consumed: score, z², inner term, outer product.
        assert_eq!(prob_ct.level(), Level::new(0));
    }

    #[test]
    fn noise_budget_survives_the_square_layer() {
        let (params, kg, enc, dec, mut rng) = setup();
        let net = SquareLayerNet::new(&params, vec![vec![1, 1]], vec![0], &kg, &mut rng).unwrap();
        let features = vec![vec![1], vec![2]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let out = net.infer(&cts).unwrap();
        let budget = dec.noise_budget(&out[0]).unwrap();
        assert!(budget > 0.0, "budget exhausted: {budget}");
    }

    #[test]
    fn measured_telemetry_reflects_real_encrypted_work() {
        use cofhee_core::ChipBackendFactory;

        let params = BfvParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let scorer =
            LogisticScorer::with_backend(&params, vec![2, 5], 1, &ChipBackendFactory::silicon())
                .unwrap();
        assert_eq!(scorer.evaluator().backend_report(), cofhee_core::OpReport::default());

        let features = vec![vec![3, 4], vec![5, 6]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let _ = scorer.score(&cts).unwrap();

        // Two ct·pt products (3 transforms each on the PolyMul schedule)
        // plus the accumulating additions, measured on real silicon
        // cycles.
        let r = scorer.evaluator().backend_report();
        assert!(r.cycles > 0, "chip backend measures real cycles");
        assert!(r.butterflies >= 6 * (64 / 2) * 6, "PolyMul transforms retired");
        assert!(r.addsubs > 0, "accumulation adds retired");
        assert!(scorer.evaluator().backend_comm_stats().bytes > 0);
    }

    #[test]
    fn measured_stream_telemetry_reports_overlap_on_chip() {
        use cofhee_core::ChipBackendFactory;

        let params = BfvParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let net = SquareLayerNet::with_backend(
            &params,
            vec![vec![1, 2]],
            vec![3],
            &kg,
            &ChipBackendFactory::silicon(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(net.evaluator().backend_stream_report(), cofhee_core::StreamReport::default());

        let features = vec![vec![1, 2], vec![3, 4]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let _ = net.infer(&cts).unwrap();

        // The square activation's multiply+relin ran as recorded streams
        // through the chip's command FIFO: batched, interrupt-drained,
        // and DMA-overlapped.
        let r = net.evaluator().backend_stream_report();
        assert!(r.batches > 0, "streams were submitted");
        assert_eq!(r.interrupts, r.batches, "one serviced interrupt per drain");
        assert!(
            r.overlapped_cycles < r.serial_cycles,
            "overlap must beat the serial schedule: {r:?}"
        );
    }
}
