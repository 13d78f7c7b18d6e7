//! Pure stream builders: record each CKKS primitive as per-limb
//! [`OpStream`]s, without executing anything — and the job plans a farm
//! runs them as.
//!
//! This is the CKKS analogue of `cofhee_bfv::jobs`. The direct
//! `CkksEvaluator` methods run exactly these builders on their own
//! backends, and a farm takes a job as a [`JobPlan`] of the same streams
//! and finishers, so local and farm execution are bit-identical by
//! construction. The 2×2 tensor and `ct · pt` are the scheme-neutral
//! recorders of `cofhee_core` over one limb's residues (`ct · pt`
//! against the plaintext's stored NTT form). The one builder
//! with two forms is the key switch: `key_switch_streams` records it
//! against whichever [`KeySwitchKeys`] it is handed — the key's stored
//! NTT-form payloads uploaded inline for
//! [`CkksEvaluator::relin_streams`] (self-contained, any borrowed
//! backend), handles to the same payloads resident for
//! [`CkksEvaluator::relinearize`] (the evaluator's own backends): one
//! dataflow, `digits + 2` transforms per limb either way.
//!
//! The key switch and the rescale upload what the host computes from
//! the ciphertext they transform — `c₂`'s digits and the base limbs, the
//! remaining limbs and the lifted subtrahend — as deferred uploads,
//! recorded from the ciphertext's level alone and filled once it exists.
//! Both host steps run on machine words: `c₂`'s coefficients are composed
//! from the chain's Garner constants and cut into digits in one sweep,
//! and the top limb is lifted into each remaining limb in one pass per
//! limb. [`CkksEvaluator::mul_relin_rescale_plan`] therefore records
//! a whole multiply — tensor, key switch, rescale — before its product
//! exists, with those fills as the host steps between the phases;
//! `relin_streams` / `rescale_streams` record and fill at once.
//! [`CkksEvaluator::limb_plan`] makes any other operation's limb streams
//! a one-phase plan.
//!
//! All builders return one stream per active limb: stream `j` runs on
//! the limb-`j` backend (modulus `qⱼ`) — except rescale, which returns
//! one stream per *remaining* limb, the dropped top prime's workload
//! having been folded host-side into the lifted subtrahend.

use std::cell::OnceCell;
use std::sync::Arc;

use cofhee_arith::ModRing;
use cofhee_core::{
    record_key_switch, Filler, JobPlan, KeySwitchKeys, Limb, OpStream, Payload, PlanPhase,
};

use crate::ciphertext::{check_shape, CkksCiphertext, CkksPlaintext};
use crate::error::{CkksError, Result};
use crate::evaluator::CkksEvaluator;
use crate::keys::{lift, CkksRelinKey};
use crate::params::Level;

/// What recorded key-switch streams wait for: the digits of the
/// product's third component, shared by every limb, and each limb's
/// `c₀`, `c₁`.
pub(crate) struct CkksRelinFill {
    digits: Vec<Filler>,
    base: Vec<[Filler; 2]>,
}

/// What recorded rescale streams wait for: per remaining limb and
/// component, the component's limb and its lifted subtrahend.
struct CkksRescaleFill(Vec<Vec<[Filler; 2]>>);

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
        // Zero is zero modulo every prime: one payload serves each limb,
        // built only when the component counts differ.
        let zero = OnceCell::new();
        let mut streams = Vec::with_capacity(a.level().limbs());
        for j in 0..a.level().limbs() {
            let limb = |ct: &CkksCiphertext, i: usize| {
                ct.components().get(i).map_or_else(
                    || zero.get_or_init(|| Payload::from(vec![0u128; n])).clone(),
                    |c| Payload::from(&c[j]),
                )
            };
            let mut st = OpStream::new(n);
            for i in 0..comps {
                let ha = st.upload_shared(limb(a, i))?;
                let hb = st.upload_shared(limb(b, i))?;
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
            let hc = st.upload_shared(&a.components()[0][j])?;
            let hp = st.upload_shared(&pt.limbs()[j])?;
            let h = st.pointwise_add(hc, hp)?;
            st.output(h)?;
            for c in &a.components()[1..] {
                let hi = st.upload_shared(&c[j])?;
                st.output(hi)?;
            }
            streams.push(st);
        }
        Ok(streams)
    }

    /// Records plaintext multiplication: per limb the plaintext's stored
    /// NTT form is uploaded, then each component takes a forward NTT and
    /// a fused Hadamard + inverse against it (Algorithm 2, the invariant
    /// operand transformed once).
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
        let forms = pt.ntt_forms()?;
        (0..a.level().limbs())
            .map(|j| {
                let components = a.components().iter().map(|c| &c[j]);
                Ok(cofhee_core::record_mul_plain(n, &forms[j], components)?)
            })
            .collect()
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
        fn limb(ct: &CkksCiphertext, j: usize) -> [&Limb; 2] {
            [0, 1].map(|c| &ct.components()[c][j])
        }
        let n = self.params.n();
        (0..a.level().limbs())
            .map(|j| Ok(cofhee_core::record_tensor(n, limb(a, j), limb(b, j))?))
            .collect()
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
        let (streams, fill) = self.key_switch_streams(ct.level(), |j, digits| {
            KeySwitchKeys::Inline(&rlk.limb_parts(j)[..digits])
        })?;
        self.fill_relin(fill, ct)?;
        Ok(streams)
    }

    /// Refuses a key generated under another parameter set: residues of
    /// a foreign chain would be reduced on upload and fold `c₂` onto
    /// garbage, and a shorter chain has no residues for the top limbs.
    pub(crate) fn check_rlk(&self, rlk: &CkksRelinKey) -> Result<()> {
        let params = &self.params;
        let n = params.n();
        let on_chain =
            rlk.parts.len() == params.moduli().len()
                && rlk.parts.iter().zip(params.moduli()).all(|(pairs, &q)| {
                    pairs.iter().all(|(k0, k1)| k0.is_in(q, n) && k1.is_in(q, n))
                });
        if on_chain
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
        Ok((streams, CkksRelinFill { digits: digit_fills, base }))
    }

    /// Fills recorded key-switch streams from the 3-component product
    /// `ct`: composes each coefficient of `c₂` into its canonical chain
    /// representative `x < Q` host-side (the validated chain fits the
    /// chip's 128-bit native coefficient width) and cuts its base-`2^w`
    /// digits in the same sweep, then hands over each limb of `c₀` and
    /// `c₁`. `ct` must sit at the level the streams were recorded for.
    pub(crate) fn fill_relin(&self, fill: CkksRelinFill, ct: &CkksCiphertext) -> Result<()> {
        self.check_ct(ct)?;
        if ct.len() != 3 {
            return Err(CkksError::WrongCiphertextSize { expected: 3, found: ct.len() });
        }
        let (n, w) = (self.params.n(), self.params.base_bits());
        let mask = (1u128 << w) - 1;
        let mut digits: Vec<Vec<u128>> =
            fill.digits.iter().map(|_| Vec::with_capacity(n)).collect();
        // Every residue is below its prime: `Limb::new` refuses any other
        // word, and `check_ct` holds each limb to its chain prime.
        self.params.garner.compose_blocks(&ct.components()[2], |block| {
            for (i, digit) in digits.iter_mut().enumerate() {
                digit.extend(block.iter().map(|&x| (x >> (w * i as u32)) & mask));
            }
        });
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
    /// # Errors
    ///
    /// Returns [`CkksError::LevelExhausted`] at the chain bottom, plus
    /// recording failures.
    pub fn rescale_streams(&self, ct: &CkksCiphertext) -> Result<Vec<OpStream>> {
        self.check_ct(ct)?;
        let (streams, fill) = self.record_rescale(ct.level(), ct.len())?;
        self.fill_rescale(fill, ct)?;
        Ok(streams)
    }

    /// Records the rescale of a `components`-component ciphertext at
    /// `level` before it exists: each remaining limb of each component
    /// and its lifted subtrahend are deferred uploads, filled by
    /// `fill_rescale`. [`CkksError::LevelExhausted`] at the chain bottom,
    /// [`CkksError::ParamsMismatch`] above the chain top.
    fn record_rescale(
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
        Ok((streams, CkksRescaleFill(limbs)))
    }

    /// Fills recorded rescale streams from `ct`: hands over the
    /// remaining limbs and, per remaining limb and component, the
    /// component's top limb re-centred and lifted into it host-side, one
    /// pass per limb. `ct` must sit at the level, and have the components,
    /// the streams were recorded for.
    fn fill_rescale(&self, fill: CkksRescaleFill, ct: &CkksCiphertext) -> Result<()> {
        self.check_ct(ct)?;
        let top = ct.level().index();
        let q_top = self.params.moduli()[top];
        for (j, fills) in fill.0.into_iter().enumerate() {
            let q_j = self.params.moduli()[j];
            for (c, [fc, fl]) in ct.components().iter().zip(fills) {
                fc.fill(c[j].clone())?;
                fl.fill(c[top].iter().map(|&v| lift(q_top, q_j, v)).collect::<Vec<_>>())?;
            }
        }
        Ok(())
    }

    /// Lowers an operation's limb streams (stream `j` under chain prime
    /// `qⱼ`) to a one-phase plan whose result lands at `level` and
    /// `scale`.
    pub fn limb_plan(
        self: &Arc<Self>,
        streams: Vec<OpStream>,
        level: Level,
        scale: f64,
    ) -> JobPlan<CkksCiphertext, CkksError> {
        let ev = Arc::clone(self);
        JobPlan {
            phases: vec![self.limb_phase("compute", level, streams, 0)],
            steps: Vec::new(),
            finish: Box::new(move |limbs| ev.ciphertext_from_limb_outputs(limbs, level, scale)),
        }
    }

    /// Lowers `a · b` relinearized under `rlk` and rescaled to a
    /// three-phase plan: the tensor limbs; the key switch, its key
    /// inline, once the host has cut the product's cubic component into
    /// digits; the rescale, once the host has lifted the key
    /// switch's top limb. The result lands one level down at ≈ Δ.
    ///
    /// # Errors
    ///
    /// As [`CkksEvaluator::tensor_streams`], [`CkksError::ParamsMismatch`]
    /// for a key made under other parameters, and
    /// [`CkksError::LevelExhausted`] for operands at the chain bottom.
    pub fn mul_relin_rescale_plan(
        self: &Arc<Self>,
        a: &CkksCiphertext,
        b: &CkksCiphertext,
        rlk: &CkksRelinKey,
    ) -> Result<JobPlan<CkksCiphertext, CkksError>> {
        let (level, scale) = (a.level(), a.scale() * b.scale());
        let tensor = self.tensor_streams(a, b)?;
        self.check_rlk(rlk)?;
        let (relin, relin_fill) = self.key_switch_streams(level, |j, digits| {
            KeySwitchKeys::Inline(&rlk.limb_parts(j)[..digits])
        })?;
        let (rescale, rescale_fill) = self.record_rescale(level, 2)?;
        let rescaled = self.rescaled_scale_at(level, scale)?;
        let lower = level.lower().ok_or(CkksError::LevelExhausted)?;
        let key_polys = 2 * self.params.digits_at(level) * level.limbs();
        let [relin_step, rescale_step, ev] = [(); 3].map(|()| Arc::clone(self));
        Ok(JobPlan {
            phases: vec![
                self.limb_phase("tensor", level, tensor, 0),
                self.limb_phase("relin", level, relin, key_polys),
                self.limb_phase("rescale", lower, rescale, 0),
            ],
            steps: vec![
                Box::new(move |limbs| {
                    let product = relin_step.ciphertext_from_limb_outputs(limbs, level, scale)?;
                    relin_step.fill_relin(relin_fill, &product)
                }),
                Box::new(move |limbs| {
                    let relin = rescale_step.ciphertext_from_limb_outputs(limbs, level, scale)?;
                    rescale_step.fill_rescale(rescale_fill, &relin)
                }),
            ],
            finish: Box::new(move |limbs| ev.ciphertext_from_limb_outputs(limbs, lower, rescaled)),
        })
    }

    /// A phase of one stream per limb of `level`.
    fn limb_phase(
        &self,
        name: &'static str,
        level: Level,
        streams: Vec<OpStream>,
        key_polys: usize,
    ) -> PlanPhase {
        let moduli = self.params.moduli_at(level).to_vec();
        PlanPhase { name, moduli, streams, key_polys }
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
        // component, each under its limb's prime.
        let moduli = self.params.moduli_at(level);
        let mut limbs: Vec<_> = limbs.into_iter().map(Vec::into_iter).collect();
        let components = (0..comps)
            .map(|_| {
                let outputs = limbs.iter_mut().map(|l| l.next().expect("shape checked above"));
                outputs.zip(moduli).map(|(words, &q)| Ok(Limb::new(q, words)?)).collect()
            })
            .collect::<Result<_>>()?;
        CkksCiphertext::new(&self.params, components, level, scale)
    }

    fn check_plain(&self, level: Level, pt: &CkksPlaintext) -> Result<()> {
        if pt.level() != level {
            return Err(CkksError::LevelMismatch { a: level.index(), b: pt.level().index() });
        }
        check_shape(&self.params, level, std::slice::from_ref(pt.limbs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::CkksEncoder;
    use crate::encrypt::CkksEncryptor;
    use crate::keys::CkksKeyGenerator;
    use crate::params::CkksParams;
    use cofhee_arith::{primes, signed};
    use cofhee_core::digit_decompose;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The words of each of `st`'s uploads, in record order.
    fn upload_words(st: &OpStream) -> Vec<&[u128]> {
        let words = st.nodes().iter().filter_map(|op| match op {
            cofhee_core::StreamOp::Upload(payload) => Some(payload.words().unwrap()),
            _ => None,
        });
        words.collect()
    }

    /// Where the words of each of `st`'s uploads live, in record order.
    fn uploads(st: &OpStream) -> Vec<*const u128> {
        upload_words(st).into_iter().map(<[u128]>::as_ptr).collect()
    }

    /// The known-answer chains at degree `n`: the benchmark's 43 + 33 + 33
    /// bits; one whose base prime is past `2^62`, so its Garner constants
    /// are the `Wide` table; and one whose base prime is below half of
    /// each scale prime, so the rescale's lift into it must reduce.
    fn chains(n: usize) -> [CkksParams; 3] {
        [(43, 33), (63, 30), (20, 33)].map(|(base, bits)| {
            let mut moduli = vec![primes::ntt_prime(base, n).unwrap()];
            moduli.extend(primes::ntt_primes(bits, n, 2).unwrap());
            CkksParams::new(n, moduli, (1u64 << bits) as f64, 18).unwrap()
        })
    }

    /// `n` residues mod `q`: `0`, `1`, `q − 1`, `⌊q/2⌋`, `⌊q/2⌋ + 1`,
    /// either side of each edge below `q`, then pseudo-random ones.
    fn known_answers(q: u128, edges: impl Iterator<Item = u128>, n: usize) -> Vec<u128> {
        let mut values = vec![0, 1, q - 1, q / 2, q / 2 + 1];
        values.extend(edges.flat_map(|m| [m - 1, m, m + 1]).filter(|&m| m < q));
        assert!(values.len() <= n, "{} known answers do not fit {n} coefficients", values.len());
        let mut state = q;
        values.extend((values.len()..n).map(|_| {
            state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x1405_7b7e);
            state % q
        }));
        values
    }

    /// A component at `level` whose coefficients are `values` mod each prime.
    fn component(p: &CkksParams, level: Level, values: &[u128]) -> Vec<Limb> {
        let limb = |&q: &u128| Limb::new(q, values.iter().map(|&v| v % q).collect()).unwrap();
        p.moduli_at(level).iter().map(limb).collect()
    }

    /// The key switch's digits ≡ the 256-bit route it replaced —
    /// `basis.compose` of each coefficient of `c₂`, then `digit_decompose`
    /// — bit for bit, at `0`, `1`, `Q − 1`, `⌊Q/2⌋`, `⌊Q/2⌋ + 1`, either
    /// side of every digit boundary `2^(w·i)` and at random, at every
    /// level of every chain (the `Word` and the `Wide` Garner table), in
    /// one partial compose block (`n = 64`) and in several (`n = 512`).
    #[test]
    fn the_relin_digits_are_the_256_bit_compose_cut_into_digits() {
        let mut rng = StdRng::seed_from_u64(47);
        for (n, chains) in [64, 512].map(|n| (n, chains(n))) {
            for (chain, p) in chains.iter().enumerate() {
                let kg = CkksKeyGenerator::new(p);
                let rlk = kg.relin_key(&kg.secret_key(&mut rng).unwrap(), &mut rng).unwrap();
                let ev = CkksEvaluator::new(p).unwrap();
                let w = p.base_bits();
                for level in (0..p.moduli().len()).map(Level::new) {
                    let basis = p.basis_at(level);
                    let edges = (1..).map(|i| w * i).take_while(|&b| b < 127).map(|b| 1u128 << b);
                    let values = known_answers(basis.product().low_u128(), edges, n);
                    let c2 = component(p, level, &values);
                    let composed: Vec<u128> = (0..n)
                        .map(|k| {
                            let residues: Vec<u128> = c2.iter().map(|limb| limb[k]).collect();
                            basis.compose(&residues).unwrap().to_u128().unwrap()
                        })
                        .collect();
                    let digits = p.digits_at(level);
                    let zero = component(p, level, &vec![0; n]);
                    let ct = CkksCiphertext::new(p, vec![zero.clone(), zero, c2], level, 1.0);
                    let streams = ev.relin_streams(&ct.unwrap(), &rlk).unwrap();
                    // Each digit's upload, then its two key polynomials.
                    let got: Vec<&[u128]> =
                        upload_words(&streams[0]).into_iter().step_by(3).take(digits).collect();
                    let oracle = digit_decompose(&composed, w, digits);
                    assert_eq!(got, oracle, "n {n}, chain {chain}, level {level}");
                }
            }
        }
    }

    /// The rescale's lifted subtrahends ≡ `signed::centered` of the top
    /// limb, then `%` by each remaining prime, bit for bit, at `0`, `1`,
    /// `q_top − 1`, `⌊q_top/2⌋`, `⌊q_top/2⌋ + 1`, either side of each
    /// remaining prime's magnitude of either sign and at random, at every
    /// level above the bottom of every chain. `CkksParams::new` accepts a
    /// chain whose `q_top/2` passes a remaining prime, and the third chain
    /// is one: its lift takes the reducing branch.
    #[test]
    fn the_rescale_lift_is_the_centered_top_limb_taken_mod_each_prime() {
        let n = 64;
        let [.., small_base] = chains(n);
        assert!(small_base.moduli()[0] < small_base.moduli()[1] / 2);
        for (chain, p) in chains(n).iter().enumerate() {
            let ev = CkksEvaluator::new(p).unwrap();
            for level in (1..p.moduli().len()).map(Level::new) {
                let (top, q_top) = (level.index(), p.moduli()[level.index()]);
                let reached = p.moduli()[..top].iter().filter(|&&q| q <= q_top / 2);
                let values = known_answers(q_top, reached.flat_map(|&q| [q, q_top - q]), n);
                let reversed: Vec<u128> = values.iter().rev().copied().collect();
                let components = vec![component(p, level, &values), component(p, level, &reversed)];
                let ct = CkksCiphertext::new(p, components, level, p.scale()).unwrap();
                let streams = ev.rescale_streams(&ct).unwrap();
                for (j, &q) in p.moduli()[..top].iter().enumerate() {
                    let oracle = |values: &[u128]| -> Vec<u128> {
                        let lift = |&v: &u128| {
                            let (mag, neg) = signed::centered(q_top, v);
                            let m = mag % q;
                            if neg && m != 0 {
                                q - m
                            } else {
                                m
                            }
                        };
                        values.iter().map(lift).collect()
                    };
                    // Per component: its limb, then the lifted subtrahend.
                    let got = upload_words(&streams[j]);
                    let oracles = [oracle(&values), oracle(&reversed)];
                    assert_eq!([got[1], got[3]], oracles, "chain {chain}, level {level}, limb {j}");
                }
            }
        }
    }

    /// Where limb `j` of each component lives.
    fn at(ct: &CkksCiphertext, j: usize) -> Vec<*const u128> {
        ct.components().iter().map(|c| c[j].as_ptr()).collect()
    }

    #[test]
    fn recording_uploads_every_operand_by_pointer() {
        let params = CkksParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(30);
        let kg = CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let encoder = CkksEncoder::new(&params);
        let pt = encoder.encode(&[0.5, -1.5]).unwrap();
        let a = enc.encrypt(&pt, &mut rng).unwrap();
        let b = enc.encrypt(&encoder.encode(&[2.0]).unwrap(), &mut rng).unwrap();
        let ev = CkksEvaluator::new(&params).unwrap();
        let prod = ev.multiply(&a, &b).unwrap();
        let relin = ev.relinearize(&prod, &rlk).unwrap();

        let add = ev.add_streams(&a, &b).unwrap();
        let mul_plain = ev.mul_plain_streams(&a, &pt).unwrap();
        let tensor = ev.tensor_streams(&a, &b).unwrap();
        let key_switch = ev.relin_streams(&prod, &rlk).unwrap();
        let rescale = ev.rescale_streams(&relin).unwrap();
        for j in 0..a.level().limbs() {
            let (pa, pb) = (at(&a, j), at(&b, j));
            assert_eq!(uploads(&add[j]), [pa[0], pb[0], pa[1], pb[1]], "add, limb {j}");
            // The plaintext's stored form, not its residues.
            let plain = [pt.ntt_forms().unwrap()[j].as_ptr(), pa[0], pa[1]];
            assert_eq!(uploads(&mul_plain[j]), plain, "mul_plain, limb {j}");
            assert_eq!(uploads(&tensor[j]), [pa[0], pa[1], pb[0], pb[1]], "tensor, limb {j}");
            // The key polynomials as the key stores them, and the
            // product's first two components as the fill hands them over.
            let switched = uploads(&key_switch[j]);
            assert_eq!(switched[switched.len() - 2..], at(&prod, j)[..2], "relin fill, limb {j}");
            for (k0, k1) in rlk.limb_parts(j) {
                assert!(switched.contains(&k0.as_ptr()) && switched.contains(&k1.as_ptr()));
            }
            if j < rescale.len() {
                // Per component: its limb, then the lifted subtrahend.
                let kept = uploads(&rescale[j]);
                assert_eq!([kept[0], kept[2]], at(&relin, j)[..], "rescale fill, limb {j}");
            }
        }
    }
}
