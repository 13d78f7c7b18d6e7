//! Pure stream builders: record each CKKS primitive as per-limb
//! [`OpStream`]s, without executing anything.
//!
//! This is the CKKS analogue of `cofhee_bfv::jobs` — the farm's job
//! layer calls these builders to record streams on the host, ships them
//! to whichever chip the scheduler picked, and reassembles ciphertexts
//! from the downloaded outputs with
//! [`CkksEvaluator::ciphertext_from_limb_outputs`]. The direct
//! `CkksEvaluator` methods use exactly the same builders, so local and
//! farm execution are bit-identical by construction. The one builder
//! with two forms is the key switch: `key_switch_streams` records it
//! against whichever [`KeySwitchKeys`] it is handed — the key's stored
//! NTT-form payloads uploaded inline for
//! [`CkksEvaluator::relin_streams`] (self-contained, any borrowed
//! backend), handles to the same payloads resident for
//! [`CkksEvaluator::relinearize`] (the evaluator's own backends): one
//! dataflow, `digits + 2` transforms per limb either way.
//!
//! All builders return one stream per active limb: stream `j` runs on
//! the limb-`j` backend (modulus `qⱼ`) — except rescale, which returns
//! one stream per *remaining* limb, the dropped top prime's workload
//! having been folded host-side into the lifted subtrahend.

use cofhee_arith::{signed, ModRing};
use cofhee_core::{digit_decompose, record_key_switch, KeySwitchKeys, OpStream};

use crate::ciphertext::{CkksCiphertext, CkksPlaintext};
use crate::error::{CkksError, Result};
use crate::evaluator::CkksEvaluator;
use crate::keys::CkksRelinKey;
use crate::params::Level;

impl CkksEvaluator {
    /// Records slot-wise addition: per limb, upload both components and
    /// `pointwise_add` (missing third components are zero-padded).
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and stream-recording failures.
    pub fn add_streams(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.pointwise_streams(a, b, false)
    }

    /// Records slot-wise subtraction (`a − b`), zero-padding missing
    /// components.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and stream-recording failures.
    pub fn sub_streams(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.pointwise_streams(a, b, true)
    }

    fn pointwise_streams(
        &self,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        subtract: bool,
    ) -> Result<Vec<OpStream>> {
        self.check_aligned(a, b)?;
        let n = self.params.n();
        let comps = a.len().max(b.len());
        let zero = vec![0u128; n];
        let mut streams = Vec::with_capacity(a.level().limbs());
        for j in 0..a.level().limbs() {
            let mut st = OpStream::new(n);
            for i in 0..comps {
                let ca = a.components().get(i).map_or(zero.as_slice(), |c| c[j].as_slice());
                let cb = b.components().get(i).map_or(zero.as_slice(), |c| c[j].as_slice());
                let ha = st.upload(ca.to_vec())?;
                let hb = st.upload(cb.to_vec())?;
                let h =
                    if subtract { st.pointwise_sub(ha, hb)? } else { st.pointwise_add(ha, hb)? };
                st.output(h)?;
            }
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records plaintext addition: the encoded message folds onto the
    /// first component only; the rest pass through untouched.
    ///
    /// # Errors
    ///
    /// Level/scale mismatches and stream-recording failures.
    pub fn add_plain_streams(
        &self,
        a: &CkksCiphertext,
        pt: &CkksPlaintext,
    ) -> Result<Vec<OpStream>> {
        self.check_ct(a)?;
        self.check_plain(a.level(), pt)?;
        if !crate::ciphertext::scales_match(a.scale(), pt.scale()) {
            return Err(CkksError::ScaleMismatch { a: a.scale(), b: pt.scale() });
        }
        let n = self.params.n();
        let mut streams = Vec::with_capacity(a.level().limbs());
        for j in 0..a.level().limbs() {
            let mut st = OpStream::new(n);
            let hc = st.upload(a.components()[0][j].clone())?;
            let hp = st.upload(pt.limbs()[j].clone())?;
            let h = st.pointwise_add(hc, hp)?;
            st.output(h)?;
            for c in &a.components()[1..] {
                let hi = st.upload(c[j].clone())?;
                st.output(hi)?;
            }
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records plaintext multiplication: per limb the plaintext is
    /// uploaded and transformed once, then each component takes a forward
    /// NTT and a fused Hadamard + inverse (Algorithm 2 with the shared
    /// operand's transform hoisted).
    ///
    /// # Errors
    ///
    /// Level mismatches and stream-recording failures.
    pub fn mul_plain_streams(
        &self,
        a: &CkksCiphertext,
        pt: &CkksPlaintext,
    ) -> Result<Vec<OpStream>> {
        self.check_ct(a)?;
        self.check_plain(a.level(), pt)?;
        let n = self.params.n();
        let mut streams = Vec::with_capacity(a.level().limbs());
        for j in 0..a.level().limbs() {
            let mut st = OpStream::new(n);
            let hp = st.upload(pt.limbs()[j].clone())?;
            let fp = st.ntt(hp)?;
            for c in a.components() {
                let hc = st.upload(c[j].clone())?;
                let fc = st.ntt(hc)?;
                let h = st.hadamard_intt(fc, fp)?;
                st.output(h)?;
            }
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records the 2×2 ciphertext tensor per limb: four uploads + NTTs,
    /// fused Hadamard+iNTT for the outer components, NTT-domain
    /// accumulation for the middle — the BFV tensor dataflow, minus the
    /// centered lift and CRT recombination (per-limb residues *are* the
    /// CKKS result).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] unless both operands
    /// carry two components, plus level/scale mismatches and recording
    /// failures.
    pub fn tensor_streams(&self, a: &CkksCiphertext, b: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.check_aligned(a, b)?;
        for ct in [a, b] {
            if ct.len() != 2 {
                return Err(CkksError::WrongCiphertextSize { expected: 2, found: ct.len() });
            }
        }
        let n = self.params.n();
        let mut streams = Vec::with_capacity(a.level().limbs());
        for j in 0..a.level().limbs() {
            let mut st = OpStream::new(n);
            let ua0 = st.upload(a.components()[0][j].clone())?;
            let a0 = st.ntt(ua0)?;
            let ua1 = st.upload(a.components()[1][j].clone())?;
            let a1 = st.ntt(ua1)?;
            let ub0 = st.upload(b.components()[0][j].clone())?;
            let b0 = st.ntt(ub0)?;
            let ub1 = st.upload(b.components()[1][j].clone())?;
            let b1 = st.ntt(ub1)?;
            // d0 = a0·b0 (fused Hadamard + iNTT).
            let d0 = st.hadamard_intt(a0, b0)?;
            // d1 = a0·b1 + a1·b0, accumulated in the NTT domain.
            let m0 = st.hadamard(a0, b1)?;
            let m1 = st.hadamard_add(a1, b0, m0)?;
            let d1 = st.intt(m1)?;
            // d2 = a1·b1.
            let d2 = st.hadamard_intt(a1, b1)?;
            st.output(d0)?;
            st.output(d1)?;
            st.output(d2)?;
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records relinearization as one self-contained key-switch stream
    /// per limb, key material inline: limb `j`'s stream uploads both key
    /// polynomials of every digit as the key stores them — in NTT form,
    /// shared with the key, neither transformed nor copied — so a
    /// scheduler can run it on any borrowed mod-`qⱼ` backend.
    /// [`CkksEvaluator::relinearize`] records the same dataflow against
    /// the copy resident on the backends the evaluator owns.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] unless the input has
    /// three components, [`CkksError::ParamsMismatch`] for a key made
    /// for another ring degree, chain or digit width, plus recording
    /// failures.
    pub fn relin_streams(&self, ct: &CkksCiphertext, rlk: &CkksRelinKey) -> Result<Vec<OpStream>> {
        self.check_rlk(rlk)?;
        self.key_switch_streams(ct, |j, digits| KeySwitchKeys::Inline(&rlk.limb_parts(j)[..digits]))
    }

    /// Refuses a key generated under another parameter set: residues of
    /// a foreign chain would be reduced on upload and fold `c₂` onto
    /// garbage, and a shorter chain has no residues for the top limbs.
    pub(crate) fn check_rlk(&self, rlk: &CkksRelinKey) -> Result<()> {
        let params = &self.params;
        if rlk.n == params.n()
            && rlk.moduli == params.moduli()
            && rlk.base_bits() == params.base_bits()
            && rlk.digit_count() >= params.digits_at(params.top_level())
        {
            Ok(())
        } else {
            Err(CkksError::ParamsMismatch)
        }
    }

    /// Records the key switch of `ct`'s cubic component onto its first
    /// two, one stream per limb: CRT-composes `c₂` out of the chain
    /// host-side (the validated chain fits the chip's 128-bit native
    /// coefficient width), digit-decomposes it, and hands each limb to
    /// the scheme-neutral [`cofhee_core::record_key_switch`] builder with
    /// `keys(j, digits)` — limb `j`'s first `digits` pairs of an
    /// already checked key, inline or resident.
    pub(crate) fn key_switch_streams<'k>(
        &self,
        ct: &CkksCiphertext,
        keys: impl Fn(usize, usize) -> KeySwitchKeys<'k>,
    ) -> Result<Vec<OpStream>> {
        self.check_ct(ct)?;
        if ct.len() != 3 {
            return Err(CkksError::WrongCiphertextSize { expected: 3, found: ct.len() });
        }
        let level = ct.level();
        let digits = self.params.digits_at(level);
        let n = self.params.n();
        let basis = self.params.basis_at(level);
        // Host: compose c2 into its canonical chain representative.
        let c2 = &ct.components()[2];
        let mut residues = vec![0u128; level.limbs()];
        let mut composed = Vec::with_capacity(n);
        for k in 0..n {
            for (r, limb) in residues.iter_mut().zip(c2) {
                *r = limb[k];
            }
            let wide = basis.compose(&residues)?;
            // Validated: the chain product fits 127 bits.
            composed.push(wide.to_u128().expect("chain product fits native width"));
        }
        // One shared payload per digit: every limb's stream uploads the
        // same vector, none of them copies it.
        let digit_vecs: Vec<_> = digit_decompose(&composed, self.params.base_bits(), digits)
            .into_iter()
            .map(std::sync::Arc::new)
            .collect();
        let mut streams = Vec::with_capacity(level.limbs());
        for j in 0..level.limbs() {
            let mut st = OpStream::new(n);
            // Key residues live mod the full-chain limb rings, which are
            // the same rings at every level — no rebasing needed.
            let base = [ct.components()[0][j].clone(), ct.components()[1][j].clone()];
            record_key_switch(&mut st, &digit_vecs, keys(j, digits), base)?;
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records the rescale `⌊ct/q_ℓ⌉`: the dropped top limb's centered
    /// representative is lifted host-side into every remaining limb,
    /// then each remaining limb runs `(cⱼ − lift) · q_ℓ⁻¹ mod qⱼ` — a
    /// `pointwise_sub` + `scalar_mul` per component. Returns one stream
    /// per **remaining** limb (`level.limbs() − 1`).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom, plus
    /// recording failures.
    pub fn rescale_streams(&self, ct: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.check_ct(ct)?;
        if ct.level().lower().is_none() {
            return Err(CkksError::LevelExhausted);
        }
        let n = self.params.n();
        let top = ct.level().index();
        let q_top = self.params.moduli()[top];
        // Host: centered representative of each component's top limb.
        let lifted: Vec<Vec<(u128, bool)>> = ct
            .components()
            .iter()
            .map(|c| c[top].iter().map(|&v| signed::centered(q_top, v)).collect())
            .collect();
        let mut streams = Vec::with_capacity(top);
        for j in 0..top {
            let ring = self.params.ring(j);
            let q_j = ring.modulus();
            let inv = ring.to_u128(ring.inv(ring.from_u128(q_top))?);
            let mut st = OpStream::new(n);
            for (c, lift) in ct.components().iter().zip(&lifted) {
                let hc = st.upload(c[j].clone())?;
                let sub: Vec<u128> = lift
                    .iter()
                    .map(|&(mag, neg)| {
                        let m = mag % q_j;
                        if neg && m != 0 {
                            q_j - m
                        } else {
                            m
                        }
                    })
                    .collect();
                let hl = st.upload(sub)?;
                let d = st.pointwise_sub(hc, hl)?;
                let r = st.scalar_mul(d, inv)?;
                st.output(r)?;
            }
            streams.push(st);
        }
        Ok(streams)
    }

    /// Reassembles a ciphertext from per-limb stream outputs
    /// (`limbs[j][i]` = output `i` of the limb-`j` stream), transposing
    /// into component-major form. This is the finisher the farm's job
    /// layer calls after downloading.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::ParamsMismatch`] for ragged output shapes
    /// and propagates ciphertext-shape validation.
    pub fn ciphertext_from_limb_outputs(
        &self,
        limbs: Vec<Vec<Vec<u128>>>,
        level: Level,
        scale: f64,
    ) -> Result<CkksCiphertext> {
        if limbs.len() != level.limbs() {
            return Err(CkksError::ParamsMismatch);
        }
        let comps = limbs[0].len();
        if limbs.iter().any(|l| l.len() != comps) {
            return Err(CkksError::ParamsMismatch);
        }
        // Transpose by moving each limb's outputs out, component by
        // component.
        let mut limbs: Vec<_> = limbs.into_iter().map(Vec::into_iter).collect();
        let components = (0..comps)
            .map(|_| limbs.iter_mut().map(|l| l.next().expect("shape checked above")).collect())
            .collect();
        CkksCiphertext::new(&self.params, components, level, scale)
    }

    fn check_plain(&self, level: Level, pt: &CkksPlaintext) -> Result<()> {
        if pt.level() != level {
            return Err(CkksError::LevelMismatch { a: level.index(), b: pt.level().index() });
        }
        if pt.limbs().len() != level.limbs()
            || pt.limbs().iter().any(|l| l.len() != self.params.n())
        {
            return Err(CkksError::ParamsMismatch);
        }
        Ok(())
    }
}
