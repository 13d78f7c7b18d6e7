//! The CKKS evaluator: approximate homomorphic arithmetic where every
//! ring operation dispatches through the
//! [`PolyBackend`](cofhee_core::PolyBackend)/[`OpStream`]
//! machinery — one backend per chain prime, one stream per active limb.
//!
//! The shape mirrors `cofhee_bfv::Evaluator`, with the CRT roles swapped:
//! BFV brings up extra computation primes only inside `multiply`, while
//! CKKS *lives* in RNS — a ciphertext at level ℓ is `ℓ+1` independent
//! mod-`qⱼ` polynomials, so **every** operation fans one stream per limb
//! across the per-prime backends of its [`LimbEngine`] (one thread and
//! one backend each). The limb streams are recorded by the
//! builders in the `streams` module (also the farm's job layer) and are
//! identical on every backend and at every [`OptLevel`]: the stream
//! compiler's value numbering and dead-node sweep apply unchanged,
//! which is the point of reusing the op set.
//!
//! Per primitive:
//!
//! * `add`/`sub`/`add_plain` — pointwise limb streams.
//! * `mul_plain` — per limb, the plaintext's stored NTT form uploaded,
//!   then `ntt(cᵢ)` and a fused Hadamard + inverse per component.
//! * `multiply` — the 2×2 tensor per limb (4 NTTs, fused
//!   Hadamard+iNTT outer components, NTT-domain middle accumulate),
//!   exactly the dataflow of the BFV tensor stream but **without** the
//!   centered lift or CRT recombination: CKKS products are approximate
//!   by design, the per-limb residues *are* the result. Scales multiply.
//! * `rescale` — the modulus-chain drop `⌊ct/q_ℓ⌉`: the top limb's
//!   centered representative is lifted into every remaining limb
//!   host-side, then each limb subtracts it and multiplies by
//!   `q_ℓ⁻¹ mod qⱼ` — a `pointwise_sub` + `scalar_mul` stream per
//!   remaining limb. Scale divides by `q_ℓ`; one level is consumed.
//! * `relinearize` — the digit-decomposition key switch: the cubic
//!   component is CRT-composed host-side (the chain fits the chip's
//!   128-bit native width by parameter validation), digit-decomposed,
//!   and folded back via the scheme-neutral
//!   [`cofhee_core::record_key_switch`] builder — one stream per limb,
//!   `digits + 2` transforms each, against the relinearization key the
//!   engine keeps resident on the limb backends. The key is stored in
//!   NTT form (transformed once, at key generation), so making it
//!   resident is an upload. The self-contained inline form for borrowed
//!   backends is [`CkksEvaluator::relin_streams`]: the same dataflow
//!   with the stored key uploaded in-stream, bit for bit the same
//!   result.

use cofhee_core::{
    BackendFactory, CpuBackendFactory, KeySwitchKeys, OpReport, OpStream, PoolStats, StreamReport,
};
use cofhee_opt::{LimbEngine, OptLevel};

use crate::ciphertext::{check_shape, scales_match, CkksCiphertext, CkksPlaintext};
use crate::error::{CkksError, Result};
use crate::keys::CkksRelinKey;
use crate::params::{CkksParams, Level};

/// Evaluates approximate homomorphic operations for one parameter set on
/// a pluggable execution backend.
#[derive(Debug, Clone)]
pub struct CkksEvaluator {
    pub(crate) params: CkksParams,
    /// One backend per chain prime, base prime first; the limb-`j`
    /// stream of every operation runs on backend `j`. Clones share the
    /// engine and its telemetry.
    engine: LimbEngine,
}

impl CkksEvaluator {
    /// Builds the evaluator on the default [`CpuBackendFactory`].
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures (none for validated
    /// parameter sets).
    pub fn new(params: &CkksParams) -> Result<Self> {
        Self::with_backend(params, &CpuBackendFactory)
    }

    /// Builds the evaluator on an explicit backend family — the same
    /// one-line chip swap as the BFV evaluator. One backend is brought
    /// up per chain prime; streams for a level-ℓ ciphertext use the
    /// first `ℓ+1`.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures.
    pub fn with_backend(params: &CkksParams, factory: &dyn BackendFactory) -> Result<Self> {
        let engine = LimbEngine::new(factory, params.moduli(), params.n())?;
        Ok(Self { params: params.clone(), engine })
    }

    /// Builder-style: the same evaluator with the stream compiler set to
    /// `level`. Every level is bit-exact, as for BFV.
    #[must_use]
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.engine = self.engine.with_opt_level(level);
        self
    }

    /// The stream-compiler level currently applied before submits.
    #[must_use]
    pub fn opt_level(&self) -> OptLevel {
        self.engine.opt_level()
    }

    /// The parameter set this evaluator serves.
    #[must_use]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// The backend family executing the polynomial ops ("cpu",
    /// "cofhee-chip", ...).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Cumulative execution telemetry across every limb backend.
    #[must_use]
    pub fn backend_report(&self) -> OpReport {
        self.engine.report()
    }

    /// Cumulative scratch-pool telemetry across all limb backends: once
    /// the chain is warm, `misses` stops growing — every per-limb
    /// upload, transform, and rescale is served from recycled buffers
    /// (the zero-alloc steady state proved by `cofhee_core`'s
    /// counting-allocator harness).
    #[must_use]
    pub fn backend_pool_stats(&self) -> PoolStats {
        self.engine.pool_stats()
    }

    /// Accumulated stream-execution telemetry across every submit this
    /// evaluator issued (concurrent limb groups absorb with overlapped
    /// wall clock = slowest limb).
    #[must_use]
    pub fn backend_stream_report(&self) -> StreamReport {
        self.engine.stream_report()
    }

    /// Clears accumulated telemetry on every backend.
    pub fn reset_backend_telemetry(&self) {
        self.engine.reset();
    }

    /// Executes per-limb streams (stream `j` on the limb-`j` backend)
    /// and reassembles the ciphertext they computed.
    fn run(&self, streams: Vec<OpStream>, level: Level, scale: f64) -> Result<CkksCiphertext> {
        self.ciphertext_from_limb_outputs(self.engine.run(0, streams)?, level, scale)
    }

    /// Slot-wise homomorphic addition (same level, same scale).
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and backend failures.
    pub fn add(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext> {
        self.run(self.add_streams(a, b)?, a.level(), a.scale())
    }

    /// Slot-wise homomorphic subtraction (same level, same scale).
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and backend failures.
    pub fn sub(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext> {
        self.run(self.sub_streams(a, b)?, a.level(), a.scale())
    }

    /// Adds an encoded plaintext onto the first component (matching
    /// level and scale required).
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and backend failures.
    pub fn add_plain(&self, a: &CkksCiphertext, pt: &CkksPlaintext) -> Result<CkksCiphertext> {
        self.run(self.add_plain_streams(a, pt)?, a.level(), a.scale())
    }

    /// Multiplies by an encoded plaintext (matching level); the result
    /// scale is the product of the operand scales — rescale to return
    /// to Δ.
    ///
    /// # Errors
    ///
    /// Level mismatches and backend failures.
    pub fn mul_plain(&self, a: &CkksCiphertext, pt: &CkksPlaintext) -> Result<CkksCiphertext> {
        self.run(self.mul_plain_streams(a, pt)?, a.level(), a.scale() * pt.scale())
    }

    /// Approximate ciphertext multiplication: the 2×2 tensor per limb,
    /// yielding a 3-component ciphertext at the product scale. Apply
    /// [`CkksEvaluator::relinearize`] then [`CkksEvaluator::rescale`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] unless both operands
    /// have two components, plus level-mismatch and backend failures.
    pub fn multiply(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<CkksCiphertext> {
        self.run(self.tensor_streams(a, b)?, a.level(), a.scale() * b.scale())
    }

    /// Folds the cubic component back onto two via digit-decomposition
    /// key switching, one stream per limb. The key is stored in NTT
    /// form, so nothing here transforms it; the evaluator owns its
    /// backends, so the key is uploaded to them **once** — the whole key,
    /// on first use, by [`LimbEngine::resident_keys`] — and stays
    /// resident for as long as it lives; every stream references those
    /// handles (a borrowed backend gets the self-contained
    /// [`CkksEvaluator::relin_streams`] instead, the same bits).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] unless the input has
    /// three components, [`CkksError::ParamsMismatch`] for a key made
    /// under other parameters, plus backend failures.
    pub fn relinearize(&self, ct: &CkksCiphertext, rlk: &CkksRelinKey) -> Result<CkksCiphertext> {
        self.check_rlk(rlk)?;
        let stored: Vec<Vec<_>> = (0..self.params.moduli().len())
            .map(|j| rlk.limb_parts(j).iter().map(|(k0, k1)| (&k0[..], &k1[..])).collect())
            .collect();
        let handles = self.engine.resident_keys(&rlk.id, 0, &stored)?;
        self.check_ct(ct)?;
        let (streams, fill) = self.key_switch_streams(ct.level(), |j, digits| {
            KeySwitchKeys::Resident(&handles[j][..digits])
        })?;
        self.fill_relin(fill, ct)?;
        self.run(streams, ct.level(), ct.scale())
    }

    /// Drops the top chain prime: divides the ciphertext (and its scale)
    /// by `q_ℓ` with rounding, consuming one level.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom, plus
    /// backend failures.
    pub fn rescale(&self, ct: &CkksCiphertext) -> Result<CkksCiphertext> {
        let streams = self.rescale_streams(ct)?;
        let level = ct.level().lower().ok_or(CkksError::LevelExhausted)?;
        self.run(streams, level, self.rescaled_scale(ct)?)
    }

    /// The scale a rescale of `ct` would land on (`scale / q_ℓ`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom.
    pub fn rescaled_scale(&self, ct: &CkksCiphertext) -> Result<f64> {
        self.rescaled_scale_at(ct.level(), ct.scale())
    }

    /// The scale a rescale of a ciphertext at `level` and `scale` would
    /// land on: [`CkksError::LevelExhausted`] at the chain bottom,
    /// [`CkksError::ParamsMismatch`] above the chain top.
    pub(crate) fn rescaled_scale_at(&self, level: Level, scale: f64) -> Result<f64> {
        if level.lower().is_none() {
            return Err(CkksError::LevelExhausted);
        }
        let q_top = self.params.moduli().get(level.index()).ok_or(CkksError::ParamsMismatch)?;
        Ok(scale / *q_top as f64)
    }

    /// Convenience: multiply, relinearize, rescale — the full
    /// ciphertext-product pipeline, landing one level down at ≈ Δ.
    ///
    /// # Errors
    ///
    /// Combines the three phases' error conditions.
    pub fn multiply_relin_rescale(
        &self,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        rlk: &CkksRelinKey,
    ) -> Result<CkksCiphertext> {
        let product = self.multiply(a, b)?;
        let relin = self.relinearize(&product, rlk)?;
        self.rescale(&relin)
    }

    /// Shape/level validation shared by the stream builders.
    pub(crate) fn check_ct(&self, ct: &CkksCiphertext) -> Result<()> {
        check_shape(&self.params, ct.level(), ct.components())
    }

    /// Level + scale agreement for binary ciphertext ops.
    pub(crate) fn check_aligned(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<()> {
        self.check_ct(a)?;
        self.check_ct(b)?;
        if a.level() != b.level() {
            return Err(CkksError::LevelMismatch { a: a.level().index(), b: b.level().index() });
        }
        if !scales_match(a.scale(), b.scale()) {
            return Err(CkksError::ScaleMismatch { a: a.scale(), b: b.scale() });
        }
        Ok(())
    }
}
