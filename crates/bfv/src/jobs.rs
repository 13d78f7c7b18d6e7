//! The stream builders, host-side finishers and job plans every BFV
//! operation is made of.
//!
//! [`Evaluator`]'s own methods (`add`, `multiply`, ...) run these very
//! builders and finishers around the backends the evaluator brought up
//! for itself. A farm of simulated CoFHEE dies owns its *own* per-chip,
//! per-modulus backends and decides placement per stream, so it takes a
//! job as a [`JobPlan`] of the same streams and finishers:
//!
//! 1. **Record** — a pure function of the ciphertexts producing one or
//!    more [`OpStream`]s (no backend involved):
//!    [`Evaluator::add_stream`], [`Evaluator::add_plain_stream`],
//!    [`Evaluator::mul_plain_stream`] record a single mod-`q` stream
//!    (the last against the plaintext's stored NTT form);
//!    [`Evaluator::tensor_streams`] records one stream per modulus of the
//!    tensor's basis (the per-limb decomposition of the exact Eq. 4
//!    tensor, [`cofhee_core::record_tensor`]: over centered lifts onto
//!    each lane prime, and over the stored words for `q`);
//!    [`Evaluator::relin_stream`] records the key-switch inner products
//!    with the scheme-neutral [`cofhee_core::record_key_switch`] as a
//!    self-contained mod-`q` stream — the relin-key polynomials travel
//!    *inside* the stream as the key stores them (NTT form, shared
//!    payloads: nothing is transformed or copied), so it runs on any
//!    borrowed backend ([`Evaluator::relinearize`] instead references
//!    the copy the evaluator's [`LimbEngine`](cofhee_opt::LimbEngine)
//!    keeps resident on the backend it owns).
//! 2. **Finish** — host-side reconstruction from the stream outputs:
//!    [`Evaluator::ciphertext_from_outputs`] rewraps downloaded
//!    components, and [`Evaluator::tensor_combine`] performs the
//!    `⌊t·x/q⌉` rounding of Eq. 4 over the per-limb tensor outputs —
//!    exactly the work the paper keeps on the host. It is exact and
//!    word-level: an RNS scale-and-round by Shoup constants and one `f64`
//!    estimate, no big integer, no division and no allocation per
//!    coefficient.
//! 3. **Plan** — [`Evaluator::stream_plan`] makes one mod-`q` stream a
//!    one-phase plan; [`Evaluator::mul_relin_plan`] lowers a multiply to
//!    the tensor limbs, then the key switch, with the host
//!    scale-and-round between them. The key switch's host-computed
//!    operands (`c₂`'s digits, `c₀`, `c₁`) are deferred uploads, filled
//!    by that host step, so the whole job is recorded — and can be
//!    priced — before the product exists.
//!
//! One recording, two executors: a job run through borrowed backends is
//! bit-identical to the evaluator running it directly, on any backend
//! under any placement — which is what makes farm results independent of
//! scheduling policy and chip count.

use std::cell::OnceCell;
use std::sync::Arc;

use cofhee_arith::{Barrett64, ModRing};
use cofhee_core::{
    Filler, JobPlan, KeySwitchKeys, Limb, OpStream, Payload, PlanPhase, StreamHandle,
};
use cofhee_poly::rns::{self, Lane};

use crate::ciphertext::Ciphertext;
use crate::error::{BfvError, Result};
use crate::evaluator::Evaluator;
use crate::keys::RelinKey;
use crate::plaintext::Plaintext;

/// Fewest coefficients a chunk of the scale-and-round carries, so that
/// `n ≤ 2^10` never spawns: below it a scoped spawn costs more than the
/// scalar loop's chunk. The vector kernel's chunk costs a third as much,
/// so there the spawn already costs more at 2^10 — on a 2-vCPU host,
/// medians of 400 alternating calls: n = 2^11 in one chunk 104–115 µs,
/// in two 141–157 µs; 2^12 243–298 against 255–299 µs; 2^13 616–640
/// against 523–585 µs. The scalar loop at 2^11 takes 520 µs in one chunk
/// and 418 µs in two, which is what a host without IFMA runs.
const MIN_CHUNK: usize = 1 << 10;

/// One task of the chunked scale-and-round: where the chunk starts, its
/// slice of each output component, and how it ended.
struct Chunk<'a> {
    start: usize,
    parts: [&'a mut [u128]; 3],
    done: Result<()>,
}

/// What a recorded key switch waits for: the digits of the product's
/// third component and its first two components.
pub(crate) struct RelinFill {
    base_bits: u32,
    digits: Vec<Filler>,
    base: [Filler; 2],
}

/// A recorded binary pointwise op (`OpStream::pointwise_add` / `_sub`).
type PointwiseOp =
    fn(&mut OpStream, StreamHandle, StreamHandle) -> cofhee_core::Result<StreamHandle>;

impl Evaluator {
    /// Records componentwise homomorphic addition (`ct + ct`, mixed
    /// sizes padded) as one mod-`q` stream; outputs are the result
    /// components in order.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn add_stream(&self, a: &Ciphertext, b: &Ciphertext) -> Result<OpStream> {
        self.pointwise_stream(a, b, OpStream::pointwise_add)
    }

    /// Records componentwise subtraction (`a − b`), padded like
    /// [`Evaluator::add_stream`].
    pub(crate) fn sub_stream(&self, a: &Ciphertext, b: &Ciphertext) -> Result<OpStream> {
        self.pointwise_stream(a, b, OpStream::pointwise_sub)
    }

    fn pointwise_stream(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        op: PointwiseOp,
    ) -> Result<OpStream> {
        self.check_ct(a)?;
        self.check_ct(b)?;
        let n = self.params().n();
        let len = a.len().max(b.len());
        // The padding, built only when the component counts differ.
        let zero = OnceCell::new();
        let component = |ct: &Ciphertext, i| {
            ct.polys().get(i).map_or_else(
                || zero.get_or_init(|| Payload::from(vec![0u128; n])).clone(),
                Payload::from,
            )
        };
        let mut st = OpStream::new(n);
        for i in 0..len {
            let ha = st.upload_shared(component(a, i))?;
            let hb = st.upload_shared(component(b, i))?;
            let r = op(&mut st, ha, hb)?;
            st.output(r)?;
        }
        Ok(st)
    }

    /// Records negation: one CMODMUL by `q − 1` per component.
    pub(crate) fn neg_stream(&self, a: &Ciphertext) -> Result<OpStream> {
        self.check_ct(a)?;
        let minus_one = self.params().q() - 1;
        let mut st = OpStream::new(self.params().n());
        for p in a.polys() {
            let hp = st.upload_shared(p)?;
            let r = st.scalar_mul(hp, minus_one)?;
            st.output(r)?;
        }
        Ok(st)
    }

    /// Records plaintext addition (`ct + pt`: `Δ·m` added to the first
    /// component) as one mod-`q` stream. Every component is marked as an
    /// output — untouched components pass through the stream so the
    /// whole job lives on one placement.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn add_plain_stream(&self, a: &Ciphertext, pt: &Plaintext) -> Result<OpStream> {
        self.check_ct(a)?;
        let n = self.params().n();
        let delta = self.params().delta();
        let dm: Vec<u128> = pt.coeffs().iter().map(|&m| delta.wrapping_mul(m as u128)).collect();
        let dm = Payload::from(dm);
        let mut st = OpStream::new(n);
        for (i, p) in a.polys().iter().enumerate() {
            let hp = st.upload_shared(p)?;
            let out = if i == 0 {
                let hm = st.upload_shared(dm.clone())?;
                st.pointwise_add(hp, hm)?
            } else {
                hp
            };
            st.output(out)?;
        }
        Ok(st)
    }

    /// Records plaintext multiplication (`ct · pt`: the plaintext's
    /// stored NTT form uploaded, then per component a forward NTT and a
    /// fused Hadamard + inverse against it — Algorithm 2, the invariant
    /// operand transformed once) as one mod-`q` stream; outputs are the
    /// result components.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn mul_plain_stream(&self, a: &Ciphertext, pt: &Plaintext) -> Result<OpStream> {
        self.check_ct(a)?;
        let form = pt.ntt_form(self.params().q())?;
        Ok(cofhee_core::record_mul_plain(self.params().n(), form, a.polys())?)
    }

    /// Records the unscaled Eq. 4 tensor as one [`OpStream`] per modulus
    /// of [`BfvParams::mult_basis`](crate::BfvParams::mult_basis) — the
    /// per-limb decomposition a scheduler places independently (stream `i`
    /// must execute on a backend brought up for modulus `i`): one per lane
    /// prime over the centered lifts, then Algorithm 3 mod `q` over the
    /// ciphertext words as they are stored. Each stream marks the three
    /// tensor components as outputs; hand the per-limb outputs to
    /// [`Evaluator::tensor_combine`] to finish the multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::WrongCiphertextSize`] unless both inputs have
    /// exactly two components, and mismatch errors for foreign operands.
    pub fn tensor_streams(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Vec<OpStream>> {
        for ct in [a, b] {
            self.check_ct(ct)?;
            if ct.len() != 2 {
                return Err(BfvError::WrongCiphertextSize { expected: 2, found: ct.len() });
            }
        }
        let n = self.params().n();
        let [a0, a1, b0, b1] = [&a.polys()[0], &a.polys()[1], &b.polys()[0], &b.polys()[1]];
        let [x0, x1, y0, y1] = [a0, a1, b0, b1].map(|p| self.lift_centered(p));
        let mut streams = (x0.into_iter().zip(x1).zip(y0.into_iter().zip(y1)))
            .map(|((x0, x1), (y0, y1))| cofhee_core::record_tensor(n, [x0, x1], [y0, y1]))
            .collect::<cofhee_core::Result<Vec<_>>>()?;
        streams.push(cofhee_core::record_tensor(n, [a0, a1], [b0, b1])?);
        Ok(streams)
    }

    /// Lifts a ciphertext polynomial to centered residues modulo every
    /// lane prime: the fused kernel of [`cofhee_poly::rns::lift_centered`]
    /// where the host has it, otherwise per lane prime one word-level
    /// Barrett reduction and one conditional modular subtract per
    /// coefficient, no division.
    fn lift_centered(&self, poly: &Limb) -> Vec<Vec<u128>> {
        let (round, q) = (self.params().tensor_round(), self.params().q());
        let lanes = self.host_lanes.then(|| rns::lift_centered(q, poly, &round.lanes));
        if let Some(lifts) = lanes.flatten() {
            return lifts;
        }
        let half = q / 2;
        let lift = |(lane, ring): (&Lane, &Barrett64)| {
            poly.iter()
                .map(|&c| {
                    let r = ring.reduce_u128(c);
                    // Past q/2 the centered value is c − q: r ← r − q (mod p).
                    u128::from(if c > half { ring.sub(r, lane.q) } else { r })
                })
                .collect()
        };
        round.lanes.iter().zip(&round.rings).map(lift).collect()
    }

    /// Finishes an exact multiplication from per-limb tensor outputs:
    /// Eq. 4's `⌊t·x/q⌉ mod q` of every coefficient, by the RNS
    /// scale-and-round of [`BfvParams::new`](crate::BfvParams::new)'s
    /// basis — the host-side half the paper never offloads. `limbs[i]`
    /// must be the three outputs of [`Evaluator::tensor_streams`] stream
    /// `i`.
    ///
    /// Per coefficient, with `x` the tensor coefficient:
    /// `r = centre([t·x]_q)`, then per lane prime
    /// `ỹⱼ = (t·xⱼ − [r]_{pⱼ})·[q⁻¹·P̂ⱼ⁻¹]_{pⱼ}` by Shoup constants,
    /// `v = ⌊Σ ỹⱼ/pⱼ⌉` in `f64`, and `[y]_q = Σ ỹⱼ·[P̂ⱼ]_q − v·[P]_q` —
    /// bit for bit the rounded quotient `⌊t·x/q⌉ mod q` for every `|x| ≤
    /// n·q²/2`, on words alone. Coefficients are independent, so the
    /// range is cut into one contiguous chunk per available core — never
    /// under 1,024 coefficients, all three components per chunk — and the
    /// chunks run through [`fan_out`](cofhee_core::fan_out). Heap
    /// allocations are the three output vectors, the chunk list and two
    /// scratch vectors per chunk, whatever `n` is.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] when the limb set does not
    /// match the computation basis or the outputs are malformed, and
    /// [`BfvError::Arith`] for an unreduced residue
    /// ([`OperandOutOfRange`](cofhee_arith::ArithError::OperandOutOfRange)).
    /// Of several bad coefficients the one reported is the first of the
    /// lowest chunk.
    pub fn tensor_combine(&self, limbs: &[Vec<Vec<u128>>]) -> Result<Ciphertext> {
        let chunks = (self.params().n() / MIN_CHUNK).clamp(1, cofhee_core::cores());
        self.tensor_combine_chunked(limbs, chunks)
    }

    /// [`Evaluator::tensor_combine`] over `chunks` contiguous coefficient
    /// ranges, one task each.
    fn tensor_combine_chunked(
        &self,
        limbs: &[Vec<Vec<u128>>],
        chunks: usize,
    ) -> Result<Ciphertext> {
        let n = self.params().n();
        let k = self.params().mult_basis().len();
        if limbs.len() != k {
            return Err(BfvError::InvalidParams {
                reason: format!("tensor_combine needs {k} limbs, got {}", limbs.len()),
            });
        }
        for (i, limb) in limbs.iter().enumerate() {
            if limb.len() != 3 || limb.iter().any(|p| p.len() != n) {
                return Err(BfvError::InvalidParams {
                    reason: format!("limb {i} must carry 3 degree-{n} tensor components"),
                });
            }
        }
        let round = self.params().tensor_round();
        let (lanes, q_limb) = limbs.split_at(k - 1);
        let mut out = [vec![0u128; n], vec![0u128; n], vec![0u128; n]];
        let len = n.div_ceil(chunks.max(1));
        let [c0, c1, c2] = &mut out;
        let parts = c0.chunks_mut(len).zip(c1.chunks_mut(len)).zip(c2.chunks_mut(len));
        let mut tasks: Vec<_> = parts
            .enumerate()
            .map(|(c, ((p0, p1), p2))| Chunk { start: c * len, parts: [p0, p1, p2], done: Ok(()) })
            .collect();
        cofhee_core::fan_out(&mut tasks, |chunk| {
            let mut scratch = (Vec::new(), Vec::new());
            let start = chunk.start;
            chunk.done = chunk.parts.iter_mut().enumerate().try_for_each(|(part, coeffs)| {
                let range = start..start + coeffs.len();
                let x_p = lanes.iter().map(|limb| &limb[part][range.clone()]);
                let x_q = &q_limb[0][part][range.clone()];
                round.apply(coeffs, x_q, x_p, &mut scratch, self.host_lanes)
            });
        });
        tasks.into_iter().try_for_each(|chunk| chunk.done)?;
        let polys = out.into_iter().map(|coeffs| self.limb(coeffs)).collect::<Result<_>>()?;
        Ciphertext::new(polys)
    }

    /// Refuses a key generated under another parameter set: a foreign
    /// ring would fold `c₂` onto garbage and too few digits would drop
    /// its high bits, both silently.
    pub(crate) fn check_rlk(&self, rlk: &RelinKey) -> Result<()> {
        let params = self.params();
        let (q, n) = (params.q(), params.n());
        let digits = params.log_q().div_ceil(rlk.base_bits) as usize;
        let in_ring = rlk.parts.iter().all(|(k0, k1)| k0.is_in(q, n) && k1.is_in(q, n));
        if rlk.digit_count() == digits && in_ring {
            Ok(())
        } else {
            Err(BfvError::ParamsMismatch)
        }
    }

    /// Records the key switch of a product's third component onto its
    /// first two against `keys` — the polynomials of an already checked
    /// `rlk`, inline or resident — before the product exists: the digits
    /// and both base components are deferred uploads, filled by
    /// `fill_relin`.
    pub(crate) fn record_key_switch(
        &self,
        rlk: &RelinKey,
        keys: KeySwitchKeys<'_>,
    ) -> Result<(OpStream, RelinFill)> {
        let n = self.params().n();
        let (digits, digit_fills): (Vec<_>, Vec<_>) =
            (0..rlk.parts.len()).map(|_| Payload::deferred(n)).unzip();
        let [(c0, f0), (c1, f1)] = [(); 2].map(|()| Payload::deferred(n));
        let mut st = OpStream::new(n);
        cofhee_core::record_key_switch(&mut st, &digits, keys, [c0, c1])?;
        Ok((st, RelinFill { base_bits: rlk.base_bits, digits: digit_fills, base: [f0, f1] }))
    }

    /// Records relinearization as one self-contained mod-`q` stream: per
    /// digit of the host-side decomposition, the digit polynomial is
    /// uploaded and NTT-transformed in-stream and both relin-key
    /// polynomials are uploaded as the key stores them — already in NTT
    /// form, shared with the key, not copied — Hadamard products
    /// accumulate in the NTT domain, and the two folded components come
    /// back through inverse NTTs added onto the base ciphertext:
    /// `digits + 2` transforms, what [`Evaluator::relinearize`] runs
    /// against its resident copy. This stream carries everything it
    /// needs, so a scheduler can run it on any borrowed mod-`q` backend.
    /// Outputs are the two relinearized components — finish with
    /// [`Evaluator::ciphertext_from_outputs`].
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::WrongCiphertextSize`] unless the input has
    /// three components, and [`BfvError::ParamsMismatch`] for a foreign
    /// ciphertext or a key generated under other parameters.
    pub fn relin_stream(&self, ct: &Ciphertext, rlk: &RelinKey) -> Result<OpStream> {
        self.check_rlk(rlk)?;
        let (stream, fill) = self.record_key_switch(rlk, KeySwitchKeys::Inline(&rlk.parts))?;
        self.fill_relin(fill, ct)?;
        Ok(stream)
    }

    /// Fills a recorded key switch from the 3-component product `ct`:
    /// decomposes `c₂` into digits host-side and hands over `c₀` and
    /// `c₁`.
    pub(crate) fn fill_relin(&self, fill: RelinFill, ct: &Ciphertext) -> Result<()> {
        self.check_ct(ct)?;
        if ct.len() != 3 {
            return Err(BfvError::WrongCiphertextSize { expected: 3, found: ct.len() });
        }
        let polys = ct.polys();
        let digits = cofhee_core::digit_decompose(&polys[2], fill.base_bits, fill.digits.len());
        for (filler, digit) in fill.digits.into_iter().zip(digits) {
            filler.fill(digit)?;
        }
        for (filler, c) in fill.base.into_iter().zip(polys) {
            filler.fill(c.clone())?;
        }
        Ok(())
    }

    /// Lowers one mod-`q` stream of this evaluator (an
    /// [`Evaluator::add_stream`]-family recording) to a one-phase plan
    /// whose outputs are the ciphertext.
    pub fn stream_plan(self: &Arc<Self>, stream: OpStream) -> JobPlan<Ciphertext, BfvError> {
        let ev = Arc::clone(self);
        JobPlan {
            phases: vec![self.mod_q_phase("compute", stream, 0)],
            steps: Vec::new(),
            finish: Box::new(move |limbs| ev.ciphertext_from_limb(limbs)),
        }
    }

    /// Lowers `a · b` relinearized under `rlk` to a two-phase plan: the
    /// tensor limbs, one stream per modulus of the tensor's basis, then the key
    /// switch, one mod-`q` stream with the key inline. Between them the
    /// host runs [`Evaluator::tensor_combine`] and decomposes `c₂`,
    /// filling the uploads the key switch was recorded without.
    ///
    /// # Errors
    ///
    /// As [`Evaluator::tensor_streams`], and [`BfvError::ParamsMismatch`]
    /// for a key generated under other parameters.
    pub fn mul_relin_plan(
        self: &Arc<Self>,
        a: &Ciphertext,
        b: &Ciphertext,
        rlk: &RelinKey,
    ) -> Result<JobPlan<Ciphertext, BfvError>> {
        let tensor = self.tensor_streams(a, b)?;
        self.check_rlk(rlk)?;
        let (relin, fill) = self.record_key_switch(rlk, KeySwitchKeys::Inline(&rlk.parts))?;
        let moduli = self.params().mult_basis().moduli().to_vec();
        let (step, ev) = (Arc::clone(self), Arc::clone(self));
        Ok(JobPlan {
            phases: vec![
                PlanPhase { name: "tensor", moduli, streams: tensor, key_polys: 0 },
                self.mod_q_phase("relin", relin, 2 * rlk.digit_count()),
            ],
            steps: vec![Box::new(move |limbs| {
                step.fill_relin(fill, &step.tensor_combine(&limbs)?)
            })],
            finish: Box::new(move |limbs| ev.ciphertext_from_limb(limbs)),
        })
    }

    /// A phase of one mod-`q` stream.
    fn mod_q_phase(&self, name: &'static str, stream: OpStream, key_polys: usize) -> PlanPhase {
        PlanPhase { name, moduli: vec![self.params().q()], streams: vec![stream], key_polys }
    }

    /// The ciphertext a one-stream phase computed.
    fn ciphertext_from_limb(&self, limbs: Vec<Vec<Vec<u128>>>) -> Result<Ciphertext> {
        self.ciphertext_from_outputs(limbs.into_iter().next().unwrap_or_default())
    }

    /// Rewraps downloaded stream outputs (canonical residues in
    /// `[0, q)`) as a ciphertext — the finisher for
    /// [`Evaluator::add_stream`]-family jobs and
    /// [`Evaluator::relin_stream`].
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] for empty output sets and
    /// [`BfvError::Backend`] for outputs of the wrong length or not
    /// reduced mod `q`.
    pub fn ciphertext_from_outputs(&self, outputs: Vec<Vec<u128>>) -> Result<Ciphertext> {
        if outputs.is_empty() {
            return Err(BfvError::InvalidParams {
                reason: "a ciphertext needs at least one component output".into(),
            });
        }
        let polys = outputs.into_iter().map(|v| self.limb(v)).collect::<Result<Vec<_>>>()?;
        Ciphertext::new(polys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::BfvParams;
    use cofhee_arith::Barrett128;
    use cofhee_core::{CpuBackend, PolyBackend};
    use cofhee_poly::{naive, pointwise};
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

    fn setup(seed: u64) -> Fixture {
        let params = BfvParams::insecure_testing(32).unwrap();
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

    /// Executes a job stream on a fresh borrowed CPU backend.
    fn run_on_borrowed(f: &Fixture, st: &OpStream) -> Vec<Vec<u128>> {
        let mut be = CpuBackend::new(f.params.q(), f.params.n()).unwrap();
        be.execute_stream(st).unwrap().outputs
    }

    /// Asserts `ct`'s components equal `oracle` coefficient for coefficient.
    fn assert_components(ct: &Ciphertext, oracle: &[Vec<u128>], what: &str) {
        assert_eq!(ct.len(), oracle.len(), "{what}: component count");
        for (p, o) in ct.polys().iter().zip(oracle) {
            assert_eq!(p.coeffs(), &o[..], "{what}");
        }
    }

    /// A pointwise kernel into a third vector: `out = x ∘ y` mod `q`.
    type Kernel = fn(&Barrett128, &mut [u128], &[u128], &[u128]) -> cofhee_poly::Result<()>;

    /// `x ∘ y` mod `q` by a pointwise kernel, componentwise.
    fn pointwise_oracle(f: &Fixture, a: &Ciphertext, b: &Ciphertext, op: Kernel) -> Vec<Vec<u128>> {
        let ring = Barrett128::new(f.params.q()).unwrap();
        let pairs = a.polys().iter().zip(b.polys());
        pairs
            .map(|(x, y)| {
                let mut out = vec![0; x.len()];
                op(&ring, &mut out, x, y).unwrap();
                out
            })
            .collect()
    }

    #[test]
    fn add_stream_matches_the_evaluator_path() {
        let mut f = setup(21);
        let a = f.enc.encrypt(&pt_of(&f, &[3, 4]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[10, 20]), &mut f.rng).unwrap();
        let st = f.eval.add_stream(&a, &b).unwrap();
        let ct = f.eval.ciphertext_from_outputs(run_on_borrowed(&f, &st)).unwrap();
        // The oracle is the pointwise kernels, not another stream.
        let oracle = pointwise_oracle(&f, &a, &b, pointwise::add_into);
        assert_components(&ct, &oracle, "borrowed-backend add");
        assert_components(&f.eval.add(&a, &b).unwrap(), &oracle, "evaluator add");
        assert_eq!(&f.dec.decrypt(&ct).unwrap().coeffs()[..2], &[13, 24]);

        let oracle = pointwise_oracle(&f, &a, &b, pointwise::sub_into);
        assert_components(&f.eval.sub(&a, &b).unwrap(), &oracle, "evaluator sub");
        let q = f.params.q();
        let oracle: Vec<Vec<u128>> =
            a.polys().iter().map(|p| p.iter().map(|&c| (q - c) % q).collect()).collect();
        assert_components(&f.eval.neg(&a).unwrap(), &oracle, "evaluator neg");
    }

    #[test]
    fn plain_op_streams_match_the_evaluator_paths() {
        let mut f = setup(22);
        let a = f.enc.encrypt(&pt_of(&f, &[7]), &mut f.rng).unwrap();
        let ring = Barrett128::new(f.params.q()).unwrap();
        let lift = |pt: &Plaintext, scale: u128| -> Vec<u128> {
            pt.coeffs().iter().map(|&m| ring.from_u128(scale * m as u128)).collect()
        };

        let pt = pt_of(&f, &[30]);
        let st = f.eval.add_plain_stream(&a, &pt).unwrap();
        let sum = f.eval.ciphertext_from_outputs(run_on_borrowed(&f, &st)).unwrap();
        assert_eq!(f.dec.decrypt(&sum).unwrap().coeffs()[0], 37);
        let mut c0 = a.polys()[0].to_u128_vec();
        pointwise::add_assign(&ring, &mut c0, &lift(&pt, f.params.delta())).unwrap();
        let oracle = vec![c0, a.polys()[1].to_u128_vec()];
        assert_components(&sum, &oracle, "borrowed-backend add_plain");
        assert_components(&f.eval.add_plain(&a, &pt).unwrap(), &oracle, "evaluator add_plain");

        let pt = pt_of(&f, &[6]);
        let st = f.eval.mul_plain_stream(&a, &pt).unwrap();
        let prod = f.eval.ciphertext_from_outputs(run_on_borrowed(&f, &st)).unwrap();
        assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 42);
        let m = lift(&pt, 1);
        let oracle: Vec<_> =
            a.polys().iter().map(|p| naive::negacyclic_mul(&ring, p, &m).unwrap()).collect();
        assert_components(&prod, &oracle, "borrowed-backend mul_plain");
        assert_components(&f.eval.mul_plain(&a, &pt).unwrap(), &oracle, "evaluator mul_plain");
    }

    /// The per-limb tensor outputs of `a ⊗ b`, each stream on a fresh
    /// borrowed backend for its modulus.
    fn tensor_limbs(f: &Fixture, a: &Ciphertext, b: &Ciphertext) -> Vec<Vec<Vec<u128>>> {
        let streams = f.eval.tensor_streams(a, b).unwrap();
        let primes = f.params.mult_basis().moduli();
        assert_eq!(streams.len(), primes.len());
        streams
            .iter()
            .zip(primes)
            .map(|(st, &p)| {
                let mut be = CpuBackend::new(p, f.params.n()).unwrap();
                be.execute_stream(st).unwrap().outputs
            })
            .collect()
    }

    #[test]
    fn tensor_streams_plus_combine_equal_multiply() {
        let mut f = setup(23);
        let a = f.enc.encrypt(&pt_of(&f, &[9]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[11]), &mut f.rng).unwrap();
        let limbs = tensor_limbs(&f, &a, &b);
        let combined = f.eval.tensor_combine(&limbs).unwrap();
        let direct = f.eval.multiply(&a, &b).unwrap();
        for (p, d) in combined.polys().iter().zip(direct.polys()) {
            assert_eq!(p.coeffs(), d.coeffs(), "borrowed-backend tensor is bit-identical");
        }
        assert_eq!(f.dec.decrypt(&combined).unwrap().coeffs()[0], 99);
    }

    #[test]
    fn every_chunk_count_combines_to_the_one_chunk_result() {
        let mut f = setup(27);
        let a = f.enc.encrypt(&pt_of(&f, &[5, 6]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[7]), &mut f.rng).unwrap();
        let mut limbs = tensor_limbs(&f, &a, &b);
        let whole = f.eval.tensor_combine_chunked(&limbs, 1).unwrap();
        assert_eq!(f.dec.decrypt(&whole).unwrap().coeffs()[..2], [35, 42]);
        // n = 32: three, five, six and seven chunks do not divide it.
        for chunks in 2..=8 {
            let ct = f.eval.tensor_combine_chunked(&limbs, chunks).unwrap();
            for (p, w) in ct.polys().iter().zip(whole.polys()) {
                assert_eq!(p.coeffs(), w.coeffs(), "{chunks} chunks");
            }
        }
        // An unreduced residue in the last chunk fails as it does in one.
        let n = f.params.n();
        limbs[0][2][n - 1] = f.params.mult_basis().moduli()[0];
        for chunks in [1, 3, 8] {
            assert!(
                matches!(
                    f.eval.tensor_combine_chunked(&limbs, chunks),
                    Err(BfvError::Arith(cofhee_arith::ArithError::OperandOutOfRange { .. }))
                ),
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn relin_stream_is_self_contained_and_matches_relinearize() {
        let mut f = setup(24);
        let a = f.enc.encrypt(&pt_of(&f, &[12]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[13]), &mut f.rng).unwrap();
        let prod3 = f.eval.multiply(&a, &b).unwrap();
        let st = f.eval.relin_stream(&prod3, &f.rlk).unwrap();
        // A completely fresh backend: no resident key cache to lean on.
        let ct = f.eval.ciphertext_from_outputs(run_on_borrowed(&f, &st)).unwrap();
        let direct = f.eval.relinearize(&prod3, &f.rlk).unwrap();
        assert_eq!(ct.len(), 2);
        for (p, d) in ct.polys().iter().zip(direct.polys()) {
            assert_eq!(p.coeffs(), d.coeffs(), "standalone key switch is bit-identical");
        }
        assert_eq!(f.dec.decrypt(&ct).unwrap().coeffs()[0], 156);
    }

    #[test]
    fn foreign_and_short_relin_keys_fail_typed() {
        let mut f = setup(26);
        let a = f.enc.encrypt(&pt_of(&f, &[12]), &mut f.rng).unwrap();
        let prod3 = f.eval.multiply(&a, &a).unwrap();
        // Same n, same digit count (4 × 16 bits), another 59-bit q.
        let n = f.params.n();
        let q = cofhee_arith::primes::ntt_prime(59, n).unwrap();
        let other = BfvParams::new(n, f.params.t(), q).unwrap();
        let foreign = KeyGenerator::new(&other, &mut f.rng).relin_key(16, &mut f.rng).unwrap();
        assert_eq!(foreign.digit_count(), f.rlk.digit_count());
        // The right ring, one digit short: c₂'s top 12 bits would vanish.
        let mut short = f.rlk.clone();
        short.parts.pop();
        for (what, key) in [("foreign-q", &foreign), ("short", &short)] {
            assert!(
                matches!(f.eval.relinearize(&prod3, key), Err(BfvError::ParamsMismatch)),
                "{what} key on relinearize"
            );
            assert!(
                matches!(f.eval.relin_stream(&prod3, key), Err(BfvError::ParamsMismatch)),
                "{what} key on relin_stream"
            );
        }
        assert_eq!(f.eval.relinearize(&prod3, &f.rlk).unwrap().len(), 2);
    }

    /// Where the words of each of `st`'s uploads live, in record order.
    fn uploads(st: &OpStream) -> Vec<*const u128> {
        let words = |op: &cofhee_core::StreamOp| match op {
            cofhee_core::StreamOp::Upload(payload) => Some(payload.words().unwrap().as_ptr()),
            _ => None,
        };
        st.nodes().iter().filter_map(words).collect()
    }

    #[test]
    fn recording_uploads_every_operand_by_pointer() {
        let mut f = setup(28);
        let a = f.enc.encrypt(&pt_of(&f, &[3]), &mut f.rng).unwrap();
        let b = f.enc.encrypt(&pt_of(&f, &[4]), &mut f.rng).unwrap();
        let prod = f.eval.multiply(&a, &b).unwrap();
        let pt = pt_of(&f, &[5]);
        let at = |ct: &Ciphertext| ct.polys().iter().map(|p| p.coeffs().as_ptr()).collect();
        let (pa, pb, pp): (Vec<_>, Vec<_>, Vec<_>) = (at(&a), at(&b), at(&prod));

        let both = vec![pa[0], pb[0], pa[1], pb[1]];
        assert_eq!(uploads(&f.eval.add_stream(&a, &b).unwrap()), both, "add");
        assert_eq!(uploads(&f.eval.sub_stream(&a, &b).unwrap()), both, "sub");
        assert_eq!(uploads(&f.eval.neg_stream(&a).unwrap()), pa, "neg");
        let plain_sum = uploads(&f.eval.add_plain_stream(&a, &pt).unwrap());
        assert_eq!([plain_sum[0], plain_sum[2]], [pa[0], pa[1]], "add_plain");
        let plain_product = uploads(&f.eval.mul_plain_stream(&a, &pt).unwrap());
        assert_eq!(plain_product[1..], pa, "mul_plain");
        // The plaintext's stored form, the same words for every clone.
        let again = uploads(&f.eval.mul_plain_stream(&a, &pt.clone()).unwrap());
        assert_eq!(again[0], plain_product[0], "mul_plain's stored form");
        // The key switch: each key polynomial as the key stores it, and
        // the product's first two components as the fill hands them over.
        let relin = uploads(&f.eval.relin_stream(&prod, &f.rlk).unwrap());
        assert_eq!(relin[relin.len() - 2..], pp[..2], "relin fill");
        for (k0, k1) in f.rlk.parts() {
            assert!(relin.contains(&k0.as_ptr()) && relin.contains(&k1.as_ptr()), "relin key");
        }
    }

    #[test]
    fn job_stream_validation() {
        let mut f = setup(25);
        let a = f.enc.encrypt(&pt_of(&f, &[1]), &mut f.rng).unwrap();
        assert!(matches!(
            f.eval.relin_stream(&a, &f.rlk),
            Err(BfvError::WrongCiphertextSize { expected: 3, .. })
        ));
        assert!(matches!(f.eval.tensor_combine(&[]), Err(BfvError::InvalidParams { .. })));
        assert!(matches!(
            f.eval.ciphertext_from_outputs(vec![]),
            Err(BfvError::InvalidParams { .. })
        ));
    }
}
