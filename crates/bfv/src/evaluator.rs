//! Homomorphic evaluation: the operations of the paper's Section II-C,
//! dispatched through the unified [`PolyBackend`] execution API.
//!
//! Ciphertext multiplication (`EvalMult`) evaluates the Eq. 4 tensor
//!
//! ```text
//! (cc₁, cc₂, cc₃) = (⌊t(ca₁·cb₁)/q⌉, ⌊t(ca₁·cb₂ + ca₂·cb₁)/q⌉, ⌊t(ca₂·cb₂)/q⌉)
//! ```
//!
//! *exactly*: the tensor products are computed in RNS over `q` and a few
//! NTT-friendly lane primes, then scaled by `t/q` with symmetric rounding
//! by an RNS scale-and-round on words. This is what makes the functional
//! demos decrypt correctly, unlike per-tower approximations.
//!
//! # Division of labor
//!
//! Every mod-q polynomial pass — the pointwise ops behind `add`/`sub`/
//! `neg`/`add_plain`, the negacyclic products behind `mul_plain`, and the
//! per-modulus NTT/Hadamard dataflow of the unscaled tensor inside
//! `multiply` — runs on a pluggable [`PolyBackend`] (software CPU by
//! default, the cycle-accurate simulated CoFHEE chip on request; both
//! bit-identical). The `⌊t·x/q⌉` rounding of Eq. 4 (an RNS
//! scale-and-round) and the digit *decomposition* of key switching stay host-side,
//! exactly as the paper divides the work (scaling and decomposition need
//! cross-modulus carries the Table I command set cannot express).
//!
//! # Streamed execution
//!
//! Every operation here is *record → run → finish*: the stream builders
//! of the `jobs` module record the dataflow into [`OpStream`]s (the same
//! builders a farm scheduler calls for borrowed dies), the evaluator's
//! [`LimbEngine`] compiles them at the evaluator's [`OptLevel`] and
//! executes each stream in **one submit**, and the `jobs` finishers
//! rebuild the ciphertext. The linear ops and the key switch are one
//! mod-q stream each, submitted alone and so replayed with every core
//! ([`LimbEngine::run`]: a key switch's ready transforms and multiply
//! passes run `cores` at a time); [`Evaluator::multiply`] is one tensor
//! stream per lane prime below `2^49` — three at the paper's points — plus
//! Algorithm 3 mod `q` on the mod-`q` backend, the independent limbs
//! fanned out across threads, and its scale-and-round runs in one
//! coefficient chunk per core. On the chip backend each stream flows through the simulated
//! 32-deep command FIFO in depth-sized batches with interrupt-driven
//! drains, with upload/download DMA overlapped against PE compute; the
//! accumulated serial-vs-overlapped telemetry of every op is queryable
//! via [`Evaluator::backend_stream_report`].
//!
//! The one thing that outlives a stream is the relinearization key: the
//! engine — not this evaluator — owns its copy on the mod-q backend
//! ([`LimbEngine::resident_keys`], the set CKKS uses too), uploaded on a
//! key's first use as the key stores it (NTT form, transformed once at
//! key generation) and released when the key is dropped.

use cofhee_core::{
    BackendFactory, CommStats, CoreError, CpuBackendFactory, KeySwitchKeys, Limb, OpReport,
    OpStream, PoolStats, StreamReport,
};
use cofhee_opt::{LimbEngine, OptLevel};

use crate::ciphertext::Ciphertext;
use crate::error::{BfvError, Result};
use crate::keys::RelinKey;
use crate::params::BfvParams;
use crate::plaintext::Plaintext;

/// Evaluates homomorphic operations for one parameter set on a pluggable
/// execution backend.
#[derive(Debug, Clone)]
pub struct Evaluator {
    params: BfvParams,
    /// One backend per modulus of
    /// [`BfvParams::mult_basis`](crate::BfvParams::mult_basis): the lane
    /// primes of the exact tensor, then `q` (the tensor's last limb, the
    /// linear ops, the key switch). Clones share the engine, its
    /// telemetry and the relin keys it keeps resident on the `q` backend
    /// in NTT form.
    engine: LimbEngine,
    /// Whether the host loops of a multiply — the centered lift and the
    /// scale-and-round — may run in the vector lanes.
    pub(crate) host_lanes: bool,
}

impl Evaluator {
    /// Builds the evaluator on the default [`CpuBackendFactory`] — the
    /// software path every existing call site gets.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures (none for validated
    /// parameter sets).
    pub fn new(params: &BfvParams) -> Result<Self> {
        Self::with_backend(params, &CpuBackendFactory)
    }

    /// Builds the evaluator on an explicit backend family — the one-line
    /// swap between software execution and the simulated CoFHEE chip:
    ///
    /// ```
    /// use cofhee_bfv::{BfvParams, Evaluator};
    /// use cofhee_core::ChipBackendFactory;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let params = BfvParams::insecure_testing(64)?;
    /// let on_chip = Evaluator::with_backend(&params, &ChipBackendFactory::silicon())?;
    /// assert_eq!(on_chip.backend_name(), "cofhee-chip");
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// One backend instance is brought up per modulus of the exact
    /// tensor: one per lane prime and one for the ciphertext modulus `q`,
    /// which also serves the linear ops and the key switch — mirroring how
    /// the paper's host drives one logical chip per RNS modulus.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures.
    pub fn with_backend(params: &BfvParams, factory: &dyn BackendFactory) -> Result<Self> {
        let moduli = params.mult_basis().moduli();
        let engine = LimbEngine::new(factory, moduli, params.n())?;
        Ok(Self { params: params.clone(), engine, host_lanes: true })
    }

    /// Builder-style: the same evaluator with a multiply's host loops —
    /// the centered lift of [`Evaluator::tensor_streams`] and the
    /// scale-and-round of [`Evaluator::tensor_combine`] — on their scalar
    /// path, what a host without AVX-512 IFMA runs. The result is bit for
    /// bit the same: this is the vector kernels' oracle, and what
    /// `hotpath_profile` times its gated rows on.
    #[must_use]
    pub fn with_scalar_host_loops(mut self) -> Self {
        self.host_lanes = false;
        self
    }

    /// Builder-style: the same evaluator with the stream compiler set to
    /// `level`. `O1` runs value numbering and a dead-node sweep over
    /// every recorded stream before submit — it changes a stream only
    /// when an operand repeats (`a · a`, `a + a`). Both levels are
    /// bit-exact: optimized streams decrypt identically.
    #[must_use]
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.engine = self.engine.with_opt_level(level);
        self
    }

    /// The stream-compiler level currently applied before submits.
    pub fn opt_level(&self) -> OptLevel {
        self.engine.opt_level()
    }

    /// The parameter set this evaluator serves.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The backend family executing the polynomial ops ("cpu",
    /// "cofhee-chip", ...).
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Cumulative execution telemetry across every backend this
    /// evaluator drives (the mod-q backend plus the lane-prime tensor
    /// backends): measured op counts on all backends, real cycles on the
    /// chip.
    pub fn backend_report(&self) -> OpReport {
        self.engine.report()
    }

    /// Cumulative scratch-pool telemetry across all backends (the
    /// mod-q backend plus the lane-prime tensor backends): once the
    /// evaluator has warmed up, `misses` should stop growing — every
    /// upload, transform, and product is served from recycled buffers
    /// (the zero-alloc steady state proved by `cofhee_core`'s
    /// counting-allocator harness).
    pub fn backend_pool_stats(&self) -> PoolStats {
        self.engine.pool_stats()
    }

    /// Cumulative host-communication accounting across all backends
    /// (zero on the CPU path; bring-up plus staged transfers on the
    /// chip).
    pub fn backend_comm_stats(&self) -> CommStats {
        self.engine.comm_stats()
    }

    /// Accumulated stream-execution telemetry across every operation
    /// this evaluator ran: commands, FIFO batches, drain interrupts, and
    /// the serial-vs-overlapped cycle and latency totals (equal on the
    /// CPU reference; overlapped strictly tighter on the chip whenever
    /// DMA hid behind compute).
    pub fn backend_stream_report(&self) -> StreamReport {
        self.engine.stream_report()
    }

    /// Clears accumulated telemetry on every backend.
    pub fn reset_backend_telemetry(&self) {
        self.engine.reset();
    }

    /// The engine's backend for `q`: the tensor basis's last modulus.
    fn q_backend(&self) -> usize {
        self.params.mult_basis().len() - 1
    }

    /// Refuses a ciphertext whose components are not degree-`n`
    /// polynomials mod this evaluator's `q`.
    pub(crate) fn check_ct(&self, ct: &Ciphertext) -> Result<()> {
        let (q, n) = (self.params.q(), self.params.n());
        if ct.polys().iter().all(|p| p.is_in(q, n)) {
            Ok(())
        } else {
            Err(BfvError::ParamsMismatch)
        }
    }

    /// Wraps a component computed on a backend or by the host scale-and-round: `n`
    /// residues, canonical mod `q` (which [`Limb::new`] checks).
    pub(crate) fn limb(&self, values: Vec<u128>) -> Result<Limb> {
        let n = self.params.n();
        if values.len() != n {
            return Err(CoreError::BadOperandLength { expected: n, found: values.len() }.into());
        }
        Ok(Limb::new(self.params.q(), values)?)
    }

    /// Executes one recorded mod-`q` stream and rewraps its outputs. The
    /// stream runs alone, so [`LimbEngine::run`] hands it every core: the
    /// transforms and multiply passes of a key switch (or of `ct · pt`)
    /// replay `cores` at a time.
    fn run_mod_q(&self, stream: OpStream) -> Result<Ciphertext> {
        let outputs = self
            .engine
            .run(self.q_backend(), vec![stream])?
            .pop()
            .expect("one stream, one outcome");
        self.ciphertext_from_outputs(outputs)
    }

    /// Homomorphic addition (`ct + ct`); mixed sizes are padded.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.run_mod_q(self.add_stream(a, b)?)
    }

    /// Homomorphic subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        self.run_mod_q(self.sub_stream(a, b)?)
    }

    /// Homomorphic negation (CMODMUL by `q − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn neg(&self, a: &Ciphertext) -> Result<Ciphertext> {
        self.run_mod_q(self.neg_stream(a)?)
    }

    /// Plaintext addition (`ct + pt`): adds `Δ·m` to the first component.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] / [`BfvError::InvalidParams`]
    /// for mismatched operands.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        self.run_mod_q(self.add_plain_stream(a, pt)?)
    }

    /// Plaintext multiplication (`ct · pt`): multiplies every component by
    /// the plaintext polynomial lifted to `R_q` (no `Δ` scaling) —
    /// Algorithm 2 per component, the plaintext's transform shared.
    ///
    /// # Errors
    ///
    /// Returns mismatch errors for foreign operands.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        self.run_mod_q(self.mul_plain_stream(a, pt)?)
    }

    /// Exact ciphertext multiplication: Eq. 4 with integer tensor and
    /// `t/q` rounding. The unscaled tensor is recorded as one
    /// [`OpStream`] per modulus of the tensor's basis and the independent
    /// limbs execute in parallel, one backend each, each limb a single
    /// batched submit; the scale-and-round is host-side, one contiguous
    /// coefficient chunk per core. Returns a 3-component ciphertext; apply
    /// [`Evaluator::relinearize`] to shrink it.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::WrongCiphertextSize`] unless both inputs have
    /// exactly two components, and mismatch errors for foreign operands.
    pub fn multiply(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let limbs = self.engine.run(0, self.tensor_streams(a, b)?)?;
        self.tensor_combine(&limbs)
    }

    /// Relinearization: folds the third component of a ciphertext product
    /// back onto two components using digit-decomposition key switching.
    ///
    /// The digit *decomposition* stays host-side by design — it needs
    /// full-width coefficient access the Table I command set cannot
    /// express (the paper defers key switching to future silicon,
    /// Section III-C). The key-switch *inner products* — per digit: one
    /// forward NTT of the digit polynomial, Hadamard products against
    /// both relin-key polynomials, accumulating additions in the NTT
    /// domain, and two final inverse NTTs — are recorded as one
    /// [`OpStream`] on the mod-q backend and execute in a single batched
    /// submit: `digits + 2` transforms. The key is stored in NTT form, so
    /// nothing here transforms it; the evaluator owns that backend, so
    /// [`LimbEngine::resident_keys`] uploads the key **once** per
    /// [`RelinKey`] and it stays resident for as long as the key lives —
    /// every stream references those handles (a borrowed backend gets the
    /// self-contained [`Evaluator::relin_stream`] instead, the same
    /// dataflow with the key uploaded in-stream).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::WrongCiphertextSize`] unless the input has
    /// three components, and [`BfvError::ParamsMismatch`] for a foreign
    /// ciphertext or a key generated under other parameters.
    pub fn relinearize(&self, ct: &Ciphertext, rlk: &RelinKey) -> Result<Ciphertext> {
        self.check_rlk(rlk)?;
        let stored = rlk.parts.iter().map(|(k0, k1)| (&k0[..], &k1[..])).collect();
        let handles = self.engine.resident_keys(&rlk.id, self.q_backend(), &[stored])?;
        let (stream, fill) = self.record_key_switch(rlk, KeySwitchKeys::Resident(&handles[0]))?;
        self.fill_relin(fill, ct)?;
        self.run_mod_q(stream)
    }

    /// Convenience: multiply then relinearize — both phases streamed
    /// (the tensor limbs in parallel, then the key-switch stream), with
    /// the host-side scale-and-round between them.
    ///
    /// # Errors
    ///
    /// Combines [`Evaluator::multiply`] and [`Evaluator::relinearize`]
    /// error conditions.
    pub fn multiply_relin(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<Ciphertext> {
        let prod = self.multiply(a, b)?;
        self.relinearize(&prod, rlk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        params: BfvParams,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        rlk: RelinKey,
        rng: StdRng,
    }

    fn setup(n: usize, seed: u64) -> Fixture {
        let params = BfvParams::insecure_testing(n).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        Fixture {
            enc: Encryptor::new(&params, pk),
            dec: Decryptor::new(&params, kg.secret_key().clone()),
            eval: Evaluator::new(&params).unwrap(),
            params,
            rlk,
            rng,
        }
    }

    fn pt_of(f: &Fixture, vals: &[u64]) -> Plaintext {
        let mut coeffs = vec![0u64; f.params.n()];
        coeffs[..vals.len()].copy_from_slice(vals);
        Plaintext::new(&f.params, coeffs).unwrap()
    }

    #[test]
    fn homomorphic_addition() {
        let mut f = setup(32, 1);
        let a = f.enc.encrypt(&pt_of(&f, &[3, 4]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[10, 20]), &mut f.rng).unwrap();
        let sum = f.eval.add(&a, &b).unwrap();
        let m = f.dec.decrypt(&sum).unwrap();
        assert_eq!(&m.coeffs()[..2], &[13, 24]);
    }

    #[test]
    fn homomorphic_subtraction_and_negation() {
        let mut f = setup(32, 2);
        let t = f.params.t();
        let a = f.enc.encrypt(&pt_of(&f, &[5]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[8]), &mut f.rng).unwrap();
        let diff = f.eval.sub(&a, &b).unwrap();
        assert_eq!(f.dec.decrypt(&diff).unwrap().coeffs()[0], t - 3);
        let neg = f.eval.neg(&a).unwrap();
        assert_eq!(f.dec.decrypt(&neg).unwrap().coeffs()[0], t - 5);
    }

    #[test]
    fn plaintext_operations() {
        let mut f = setup(32, 3);
        let a = f.enc.encrypt(&pt_of(&f, &[7]), &mut f.rng).unwrap();
        let sum = f.eval.add_plain(&a, &pt_of(&f, &[30])).unwrap();
        assert_eq!(f.dec.decrypt(&sum).unwrap().coeffs()[0], 37);
        let prod = f.eval.mul_plain(&a, &pt_of(&f, &[6])).unwrap();
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 42);
    }

    #[test]
    fn ciphertext_multiplication_without_relinearization() {
        // The exact operation the paper benchmarks in Fig. 6.
        let mut f = setup(32, 4);
        let a = f.enc.encrypt(&pt_of(&f, &[9]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[11]), &mut f.rng).unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        assert_eq!(prod.len(), 3);
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 99);
    }

    #[test]
    fn multiplication_of_polynomials_is_negacyclic() {
        let mut f = setup(32, 5);
        // a = x, b = x^31 → a·b = x^32 = -1 mod (x^32+1).
        let t = f.params.t();
        let mut av = vec![0u64; 32];
        av[1] = 1;
        let mut bv = vec![0u64; 32];
        bv[31] = 1;
        let a = f.enc.encrypt(&Plaintext::new(&f.params, av).unwrap(), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&Plaintext::new(&f.params, bv).unwrap(), &mut f.rng).unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        let m = f.dec.decrypt(&prod).unwrap();
        assert_eq!(m.coeffs()[0], t - 1);
        assert!(m.coeffs()[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn relinearization_preserves_the_product() {
        let mut f = setup(32, 6);
        let a = f.enc.encrypt(&pt_of(&f, &[12]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[13]), &mut f.rng).unwrap();
        let prod3 = f.eval.multiply(&a, &b).unwrap();
        let prod2 = f.eval.relinearize(&prod3, &f.rlk).unwrap();
        assert_eq!(prod2.len(), 2);
        assert_eq!(f.dec.decrypt(&prod2).unwrap().coeffs()[0], 156);
    }

    #[test]
    fn multiply_consumes_noise_budget() {
        let mut f = setup(32, 7);
        let a = f.enc.encrypt(&pt_of(&f, &[2]), &mut f.rng).unwrap();
        let fresh = f.dec.noise_budget(&a).unwrap();
        let sq = f.eval.multiply_relin(&a, &a, &f.rlk).unwrap();
        let after = f.dec.noise_budget(&sq).unwrap();
        assert!(after < fresh, "budget must shrink: {fresh} -> {after}");
        assert!(after > 0.0, "budget must remain positive for correctness");
    }

    #[test]
    fn depth_two_circuit_decrypts() {
        // ((a·b) + c) · d with relinearization between levels.
        let mut f = setup(32, 8);
        let enc = |f: &mut Fixture, v: u64| {
            let pt = pt_of(f, &[v]);
            f.enc.encrypt(&pt, &mut f.rng).unwrap()
        };
        let (a, b, c, d) = (enc(&mut f, 3), enc(&mut f, 5), enc(&mut f, 7), enc(&mut f, 2));
        let ab = f.eval.multiply_relin(&a, &b, &f.rlk).unwrap();
        let abc = f.eval.add(&ab, &c).unwrap();
        let out = f.eval.multiply_relin(&abc, &d, &f.rlk).unwrap();
        assert_eq!(f.dec.decrypt(&out).unwrap().coeffs()[0], (3 * 5 + 7) * 2);
    }

    #[test]
    fn multiply_requires_two_component_inputs() {
        let mut f = setup(32, 9);
        let a = f.enc.encrypt(&pt_of(&f, &[1]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[1]), &mut f.rng).unwrap();
        let prod3 = f.eval.multiply(&a, &b).unwrap();
        assert!(f.eval.multiply(&prod3, &a).is_err());
        assert!(f.eval.relinearize(&a, &f.rlk).is_err());
    }

    #[test]
    fn slot_wise_products_with_batching() {
        let mut f = setup(64, 10);
        let encdr = crate::plaintext::BatchEncoder::new(&f.params).unwrap();
        let sa: Vec<u64> = (0..64u64).collect();
        let sb: Vec<u64> = (0..64u64).map(|i| i + 100).collect();
        let ca = f.enc.encrypt(&encdr.encode(&sa).unwrap(), &mut f.rng).unwrap();
        let cb = f.enc.encrypt(&encdr.encode(&sb).unwrap(), &mut f.rng).unwrap();
        let prod = f.eval.multiply_relin(&ca, &cb, &f.rlk).unwrap();
        let slots = encdr.decode(&f.dec.decrypt(&prod).unwrap());
        for i in 0..64 {
            assert_eq!(slots[i], (sa[i] * sb[i]) % f.params.t(), "slot {i}");
        }
    }

    #[test]
    fn default_backend_is_cpu_with_measured_op_counts() {
        let mut f = setup(32, 11);
        assert_eq!(f.eval.backend_name(), "cpu");
        assert_eq!(f.eval.backend_report(), OpReport::default());
        let a = f.enc.encrypt(&pt_of(&f, &[2]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[3]), &mut f.rng).unwrap();
        let _ = f.eval.add(&a, &b).unwrap();
        let after_add = f.eval.backend_report();
        assert_eq!(after_add.addsubs, 2 * 32, "one PMODADD per component");
        assert_eq!(after_add.cycles, 0, "CPU reference is zero-cost");
        let _ = f.eval.multiply(&a, &b).unwrap();
        let after_mul = f.eval.backend_report();
        assert!(after_mul.butterflies > 0, "the tensor NTTs are counted");
        assert!(after_mul.mults > after_add.mults);
        f.eval.reset_backend_telemetry();
        assert_eq!(f.eval.backend_report(), OpReport::default());
        assert_eq!(f.eval.backend_comm_stats(), CommStats::default());
    }

    #[test]
    fn clones_share_the_backend_and_its_telemetry() {
        let mut f = setup(32, 12);
        let clone = f.eval.clone();
        let a = f.enc.encrypt(&pt_of(&f, &[1]), &mut f.rng).unwrap();
        let _ = clone.add(&a, &a).unwrap();
        assert_eq!(f.eval.backend_report(), clone.backend_report());
        assert!(f.eval.backend_report().addsubs > 0);
    }

    #[test]
    fn stream_telemetry_accumulates_and_resets() {
        let mut f = setup(32, 13);
        assert_eq!(f.eval.backend_stream_report(), StreamReport::default());
        let a = f.enc.encrypt(&pt_of(&f, &[4]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[6]), &mut f.rng).unwrap();
        let _ = f.eval.multiply_relin(&a, &b, &f.rlk).unwrap();
        let r = f.eval.backend_stream_report();
        let limbs = f.params.mult_basis().moduli().len() as u64;
        assert!(r.commands > 0, "stream submits are recorded");
        assert_eq!(r.batches, limbs + 1, "one submit per tensor limb plus the key switch");
        // The CPU reference has no modeled timing: serial == overlapped.
        assert_eq!(r.serial_cycles, r.overlapped_cycles);
        f.eval.reset_backend_telemetry();
        assert_eq!(f.eval.backend_stream_report(), StreamReport::default());
    }

    #[test]
    fn opt_levels_are_bit_exact_and_report_rewrites() {
        let mut f = setup(32, 15);
        let a = f.enc.encrypt(&pt_of(&f, &[21]), &mut f.rng).unwrap();
        assert_eq!(f.eval.opt_level(), OptLevel::O0);
        // A repeated operand: the one shape `O1` has something to drop.
        let baseline = f.eval.multiply_relin(&a, &a, &f.rlk).unwrap();
        assert_eq!(f.eval.backend_stream_report().ops_eliminated, 0, "O0 runs as recorded");

        let opt_eval = Evaluator::new(&f.params).unwrap().with_opt_level(OptLevel::O1);
        assert_eq!(opt_eval.opt_level(), OptLevel::O1);
        let prod = opt_eval.multiply_relin(&a, &a, &f.rlk).unwrap();
        for (p, d) in prod.polys().iter().zip(baseline.polys()) {
            assert_eq!(p.coeffs(), d.coeffs(), "O1 must be bit-exact");
        }
        let r = opt_eval.backend_stream_report();
        assert!(r.ops_eliminated > 0, "O1 uploads and transforms `a` once per limb");
    }

    #[test]
    fn chip_streams_match_cpu_and_overlap_transfers() {
        use cofhee_core::ChipBackendFactory;
        let mut f = setup(32, 14);
        let on_chip = Evaluator::with_backend(&f.params, &ChipBackendFactory::silicon()).unwrap();
        let a = f.enc.encrypt(&pt_of(&f, &[7]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[9]), &mut f.rng).unwrap();
        let cpu_prod = f.eval.multiply_relin(&a, &b, &f.rlk).unwrap();
        let chip_prod = on_chip.multiply_relin(&a, &b, &f.rlk).unwrap();
        for (p_cpu, p_chip) in cpu_prod.polys().iter().zip(chip_prod.polys()) {
            assert_eq!(p_cpu.coeffs(), p_chip.coeffs(), "streamed limbs are bit-identical");
        }
        assert_eq!(f.dec.decrypt(&chip_prod).unwrap().coeffs()[0], 63);

        let r = on_chip.backend_stream_report();
        assert!(r.serial_cycles > 0, "chip streams cost real cycles");
        assert!(
            r.overlapped_cycles < r.serial_cycles,
            "upload/download DMA must hide behind compute: {} !< {}",
            r.overlapped_cycles,
            r.serial_cycles
        );
        assert_eq!(r.interrupts, r.batches, "interrupt-driven drains");
    }
}
