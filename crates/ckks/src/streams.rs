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
//! The key switch and the rescale upload what the host computes from
//! the ciphertext they transform — `c₂`'s composed digits and the base
//! limbs, the remaining limbs and the lifted subtrahend — as deferred
//! uploads: `relin_streams_deferred` / `rescale_streams_deferred` record
//! the streams from the ciphertext's level alone, so a scheduler prices a
//! whole multiply before its product exists, and
//! [`CkksEvaluator::fill_relin`] / [`CkksEvaluator::fill_rescale`] fill
//! them once it does. `relin_streams` / `rescale_streams` are the two at
//! once, as is [`CkksEvaluator::relinearize`] against its resident key.
//!
//! All builders return one stream per active limb: stream `j` runs on
//! the limb-`j` backend (modulus `qⱼ`) — except rescale, which returns
//! one stream per *remaining* limb, the dropped top prime's workload
//! having been folded host-side into the lifted subtrahend.

use cofhee_arith::{signed, ModRing};
use cofhee_core::{digit_decompose, record_key_switch, Filler, KeySwitchKeys, OpStream, Payload};

use crate::ciphertext::{CkksCiphertext, CkksPlaintext};
use crate::error::{CkksError, Result};
use crate::evaluator::CkksEvaluator;
use crate::keys::CkksRelinKey;
use crate::params::Level;

/// What relinearization streams recorded by
/// [`CkksEvaluator::relin_streams_deferred`] wait for: the digits of the
/// product's composed third component, shared by every limb, and each
/// limb's `c₀`, `c₁` — filled by [`CkksEvaluator::fill_relin`].
#[derive(Debug)]
pub struct CkksRelinFill {
    level: Level,
    digits: Vec<Filler>,
    base: Vec<[Filler; 2]>,
}

/// What rescale streams recorded by
/// [`CkksEvaluator::rescale_streams_deferred`] wait for: per remaining
/// limb and component, the component's limb and its lifted subtrahend —
/// filled by [`CkksEvaluator::fill_rescale`].
#[derive(Debug)]
pub struct CkksRescaleFill {
    level: Level,
    limbs: Vec<Vec<[Filler; 2]>>,
}

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
        self.check_ct(ct)?;
        let (streams, fill) = self.relin_streams_deferred(ct.level(), rlk)?;
        self.fill_relin(fill, ct)?;
        Ok(streams)
    }

    /// [`CkksEvaluator::relin_streams`] recorded for a product at `level`
    /// before it exists: the host-computed operands (the digits of the
    /// composed `c₂`, and each limb's `c₀`, `c₁`) are deferred uploads. A
    /// scheduler places and prices the streams, which read only their
    /// length, and fills them with [`CkksEvaluator::fill_relin`] once the
    /// product is in.
    ///
    /// # Errors
    ///
    /// [`CkksError::ParamsMismatch`] for a key made under other
    /// parameters or a level above the chain top.
    pub fn relin_streams_deferred(
        &self,
        level: Level,
        rlk: &CkksRelinKey,
    ) -> Result<(Vec<OpStream>, CkksRelinFill)> {
        self.check_rlk(rlk)?;
        self.key_switch_streams(level, |j, digits| {
            KeySwitchKeys::Inline(&rlk.limb_parts(j)[..digits])
        })
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

    /// Records the key switch of a level-`level` product's cubic
    /// component onto its first two, one stream per limb, before the
    /// product exists: each limb hands the scheme-neutral
    /// [`cofhee_core::record_key_switch`] builder the same deferred
    /// digits, its own deferred `c₀` and `c₁` limbs, and `keys(j, digits)`
    /// — limb `j`'s first `digits` pairs of an already checked key, inline
    /// or resident.
    pub(crate) fn key_switch_streams<'k>(
        &self,
        level: Level,
        keys: impl Fn(usize, usize) -> KeySwitchKeys<'k>,
    ) -> Result<(Vec<OpStream>, CkksRelinFill)> {
        if level > self.params.top_level() {
            return Err(CkksError::ParamsMismatch);
        }
        let digits = self.params.digits_at(level);
        let n = self.params.n();
        // One shared payload per digit: every limb's stream uploads the
        // same slot, none of them copies it.
        let (digit_payloads, digit_fills): (Vec<_>, Vec<_>) =
            (0..digits).map(|_| Payload::deferred(n)).unzip();
        let mut streams = Vec::with_capacity(level.limbs());
        let mut base = Vec::with_capacity(level.limbs());
        for j in 0..level.limbs() {
            let mut st = OpStream::new(n);
            let [(c0, f0), (c1, f1)] = [(); 2].map(|()| Payload::deferred(n));
            // Key residues live mod the full-chain limb rings, which are
            // the same rings at every level — no rebasing needed.
            record_key_switch(&mut st, &digit_payloads, keys(j, digits), [c0, c1])?;
            streams.push(st);
            base.push([f0, f1]);
        }
        Ok((streams, CkksRelinFill { level, digits: digit_fills, base }))
    }

    /// Fills recorded relinearization streams from the 3-component
    /// product `ct`: CRT-composes `c₂` out of the chain host-side (the
    /// validated chain fits the chip's 128-bit native coefficient
    /// width), digit-decomposes it, and hands over each limb of `c₀` and
    /// `c₁`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] unless `ct` has three
    /// components, [`CkksError::LevelMismatch`] unless it sits at the
    /// level the streams were recorded for, and shape mismatches.
    pub fn fill_relin(&self, fill: CkksRelinFill, ct: &CkksCiphertext) -> Result<()> {
        self.check_ct(ct)?;
        if ct.len() != 3 {
            return Err(CkksError::WrongCiphertextSize { expected: 3, found: ct.len() });
        }
        let level = ct.level();
        if level != fill.level {
            return Err(CkksError::LevelMismatch { a: fill.level.index(), b: level.index() });
        }
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
        let digits = digit_decompose(&composed, self.params.base_bits(), fill.digits.len());
        for (filler, digit) in fill.digits.into_iter().zip(digits) {
            filler.fill(digit)?;
        }
        for (j, [f0, f1]) in fill.base.into_iter().enumerate() {
            f0.fill(ct.components()[0][j].clone())?;
            f1.fill(ct.components()[1][j].clone())?;
        }
        Ok(())
    }

    /// Records the rescale `⌊ct/q_ℓ⌉`: the dropped top limb's centered
    /// representative is lifted host-side into every remaining limb,
    /// then each remaining limb runs `(cⱼ − lift) · q_ℓ⁻¹ mod qⱼ` — a
    /// `pointwise_sub` + `scalar_mul` per component. Returns one stream
    /// per **remaining** limb (`level.limbs() − 1`).
    ///
    /// This is [`CkksEvaluator::rescale_streams_deferred`] filled at once
    /// from `ct`.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom, plus
    /// recording failures.
    pub fn rescale_streams(&self, ct: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.check_ct(ct)?;
        let (streams, fill) = self.rescale_streams_deferred(ct.level(), ct.len())?;
        self.fill_rescale(fill, ct)?;
        Ok(streams)
    }

    /// [`CkksEvaluator::rescale_streams`] recorded for a `components`-
    /// component ciphertext at `level` before it exists: each remaining
    /// limb of each component and its lifted subtrahend are deferred
    /// uploads, filled by [`CkksEvaluator::fill_rescale`].
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom and
    /// [`CkksError::ParamsMismatch`] above the chain top.
    pub fn rescale_streams_deferred(
        &self,
        level: Level,
        components: usize,
    ) -> Result<(Vec<OpStream>, CkksRescaleFill)> {
        if level > self.params.top_level() {
            return Err(CkksError::ParamsMismatch);
        }
        if level.lower().is_none() {
            return Err(CkksError::LevelExhausted);
        }
        let top = level.index();
        let n = self.params.n();
        let q_top = self.params.moduli()[top];
        let mut streams = Vec::with_capacity(top);
        let mut limbs = Vec::with_capacity(top);
        for j in 0..top {
            let ring = self.params.ring(j);
            let inv = ring.to_u128(ring.inv(ring.from_u128(q_top))?);
            let mut st = OpStream::new(n);
            let mut fills = Vec::with_capacity(components);
            for _ in 0..components {
                let [(c, fc), (lift, fl)] = [(); 2].map(|()| Payload::deferred(n));
                let hc = st.upload_shared(c)?;
                let hl = st.upload_shared(lift)?;
                let d = st.pointwise_sub(hc, hl)?;
                let r = st.scalar_mul(d, inv)?;
                st.output(r)?;
                fills.push([fc, fl]);
            }
            streams.push(st);
            limbs.push(fills);
        }
        Ok((streams, CkksRescaleFill { level, limbs }))
    }

    /// Fills recorded rescale streams from `ct`: lifts each component's
    /// centered top limb into every remaining limb host-side and hands
    /// over the remaining limbs.
    ///
    /// # Errors
    ///
    /// [`CkksError::LevelMismatch`] unless `ct` sits at the level the
    /// streams were recorded for, [`CkksError::WrongCiphertextSize`]
    /// unless it has as many components, and shape mismatches.
    pub fn fill_rescale(&self, fill: CkksRescaleFill, ct: &CkksCiphertext) -> Result<()> {
        self.check_ct(ct)?;
        if ct.level() != fill.level {
            return Err(CkksError::LevelMismatch { a: fill.level.index(), b: ct.level().index() });
        }
        let components = fill.limbs.first().map_or(ct.len(), Vec::len);
        if ct.len() != components {
            return Err(CkksError::WrongCiphertextSize { expected: components, found: ct.len() });
        }
        let top = ct.level().index();
        let q_top = self.params.moduli()[top];
        // Host: centered representative of each component's top limb.
        let lifted: Vec<Vec<(u128, bool)>> = ct
            .components()
            .iter()
            .map(|c| c[top].iter().map(|&v| signed::centered(q_top, v)).collect())
            .collect();
        for (j, fills) in fill.limbs.into_iter().enumerate() {
            let q_j = self.params.ring(j).modulus();
            for ((c, lift), [fc, fl]) in ct.components().iter().zip(&lifted).zip(fills) {
                fc.fill(c[j].clone())?;
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
                fl.fill(sub)?;
            }
        }
        Ok(())
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
