//! Scheme-neutral stream recorders: the dataflows BFV and CKKS share
//! node for node, each handed one limb's operand words (BFV its
//! centered lifts, CKKS the limb's residues) — the 2×2 ciphertext
//! tensor ([`record_tensor`]), the ciphertext × plaintext product
//! ([`record_mul_plain`]) and the key switch ([`record_key_switch`]).
//!
//! A key switch is a host-side digit decomposition of one polynomial,
//! then per digit a forward NTT, Hadamard products against the two
//! switching-key polynomials, NTT-domain accumulation, and finally two
//! inverse NTTs folded onto the base ciphertext components. The paper
//! defers key switching to future silicon (Section III-C) precisely
//! because the *decomposition* needs full-width coefficient access the
//! Table I command set cannot express — but the inner products map onto
//! the existing op set. `cofhee_bfv` records it once per
//! relinearization over the mod-`q` backend; `cofhee_ckks` once per RNS
//! limb of the modulus chain. A key-switch key is *stored*
//! in NTT form — transformed once, when it is generated — so no stream
//! transforms it: the key material either travels *inline* (the stored
//! payloads uploaded in-stream: self-contained streams a scheduler may
//! run on any borrowed backend) or references handles already *resident*
//! on the executing backend (the inference-server pattern: invariant
//! keys uploaded once, then shared by every stream). Either way a key
//! switch is `digits + 2` transforms.

use crate::backend::PolyHandle;
use crate::error::Result;
use crate::limb::Limb;
use crate::stream::{OpStream, Payload, StreamHandle};

/// Two polynomials a key keeps together as [`Limb`]s, which a stream
/// uploads without copying: one digit's `(k0, k1)` switching-key pair in
/// NTT form, or a client key pair — `(p0, p1)`, `(s, s²)` — raw.
pub type KeyPair = (Limb, Limb);

/// Where the NTT-form switching-key polynomials come from when the
/// stream records.
#[derive(Debug, Clone, Copy)]
pub enum KeySwitchKeys<'a> {
    /// NTT-form payloads uploaded in-stream, shared with the key that
    /// stores them: one `(k0, k1)` pair per digit. The stream is
    /// self-contained and runs on any backend for the right modulus.
    Inline(&'a [KeyPair]),
    /// NTT-form handles already resident on the backend that will
    /// execute the stream: one `(k0, k1)` pair per digit.
    Resident(&'a [(PolyHandle, PolyHandle)]),
}

impl KeySwitchKeys<'_> {
    /// Number of digit pairs the key carries.
    fn digits(&self) -> usize {
        match self {
            KeySwitchKeys::Inline(parts) => parts.len(),
            KeySwitchKeys::Resident(parts) => parts.len(),
        }
    }
}

/// Records the key-switch inner products onto `st` and marks the two
/// folded components as outputs.
///
/// `digits[i]` is the `i`-th digit polynomial of the decomposed
/// component (length `st.n()` canonical residues), as a shared payload:
/// a caller recording one stream per RNS limb hands every stream the
/// same digits and nothing is copied; `keys` supplies the
/// matching `(k0, k1)` pair per digit; `base` holds the two ciphertext
/// components the folded accumulators are added onto, moved into the
/// stream's uploads. Digits and base may be deferred
/// ([`Payload::deferred`]): the stream is then recorded before the
/// component it switches exists. Per digit the
/// builder records: upload + forward NTT of the digit polynomial and the
/// two products against the key pair (uploaded inline or referenced
/// resident — NTT form either way, no key coefficient copied), the first
/// digit's as a Hadamard and every later one as a multiply-accumulate
/// onto the running sum; then per base component an inverse NTT and a
/// pointwise add, marked as the stream's outputs in component order.
///
/// # Errors
///
/// Returns [`crate::CoreError::BadOperandLength`] if `digits` and `keys`
/// disagree on the digit count, and propagates recording failures (wrong
/// vector lengths).
pub fn record_key_switch(
    st: &mut OpStream,
    digits: &[impl Clone + Into<Payload>],
    keys: KeySwitchKeys<'_>,
    base: [impl Into<Payload>; 2],
) -> Result<()> {
    if digits.is_empty() || digits.len() != keys.digits() {
        return Err(crate::CoreError::BadOperandLength {
            expected: keys.digits(),
            found: digits.len(),
        });
    }
    let mut accs: [Option<StreamHandle>; 2] = [None, None];
    for (i, digit) in digits.iter().enumerate() {
        let fd = {
            let d = st.upload_shared(digit.clone())?;
            st.ntt(d)?
        };
        for (c, acc) in accs.iter_mut().enumerate() {
            let fk = match keys {
                KeySwitchKeys::Inline(k) => st.upload_shared([&k[i].0, &k[i].1][c])?,
                KeySwitchKeys::Resident(k) => st.input([k[i].0, k[i].1][c]),
            };
            *acc = Some(match acc.take() {
                None => st.hadamard(fd, fk)?,
                Some(sum) => st.hadamard_add(fd, fk, sum)?,
            });
        }
    }
    for (acc, c) in accs.into_iter().zip(base) {
        let acc = acc.expect("digit count checked non-zero above");
        let folded = st.intt(acc)?;
        let b = st.upload_shared(c)?;
        let out = st.pointwise_add(b, folded)?;
        st.output(out)?;
    }
    Ok(())
}

/// Records the 2×2 tensor of `a = (a₀, a₁)` and `b = (b₀, b₁)`, one
/// limb's words each, as one stream over degree-`n` polynomials: upload +
/// forward NTT of each operand in turn, the outer components as single
/// `intt ∘ hadamard` nodes and the middle one as a Hadamard plus a
/// multiply-accumulate *in the NTT domain* before its inverse — the
/// paper's Algorithm 3 without the final scaling. The three tensor
/// components `(a₀b₀, a₀b₁ + a₁b₀, a₁b₁)` are the outputs, in order.
///
/// # Errors
///
/// [`crate::CoreError::BadOperandLength`] for an operand not of `n` words.
pub fn record_tensor<P: Into<Payload>>(n: usize, a: [P; 2], b: [P; 2]) -> Result<OpStream> {
    let mut st = OpStream::new(n);
    let mut ntt = |words: P| -> Result<StreamHandle> {
        let up = st.upload_shared(words)?;
        st.ntt(up)
    };
    let ([a0, a1], [b0, b1]) = (a, b);
    let (a0, a1, b0, b1) = (ntt(a0)?, ntt(a1)?, ntt(b0)?, ntt(b1)?);
    let r0 = st.hadamard_intt(a0, b0)?;
    let x01 = st.hadamard(a0, b1)?;
    let t1 = st.hadamard_add(a1, b0, x01)?;
    let r1 = st.intt(t1)?;
    let r2 = st.hadamard_intt(a1, b1)?;
    for r in [r0, r1, r2] {
        st.output(r)?;
    }
    Ok(st)
}

/// Records the product of each of `components` with the plaintext `pt`,
/// one limb's words each, as one stream over degree-`n` polynomials: the
/// plaintext uploaded and transformed once, then per component a forward
/// NTT and a fused Hadamard + inverse — Algorithm 2 with the shared
/// operand's transform hoisted. The products are the outputs, in order.
///
/// # Errors
///
/// [`crate::CoreError::BadOperandLength`] for an operand not of `n` words.
pub fn record_mul_plain(
    n: usize,
    pt: impl Into<Payload>,
    components: impl IntoIterator<Item = impl Into<Payload>>,
) -> Result<OpStream> {
    let mut st = OpStream::new(n);
    let hm = st.upload_shared(pt)?;
    let fm = st.ntt(hm)?;
    for words in components {
        let hc = st.upload_shared(words)?;
        let fc = st.ntt(hc)?;
        let prod = st.hadamard_intt(fc, fm)?;
        st.output(prod)?;
    }
    Ok(st)
}

/// Unsigned base-`2^w` digit decomposition of one coefficient vector:
/// `digits[i][j] = (coeffs[j] >> (w·i)) & (2^w − 1)`.
///
/// The shared host-side half of key switching — BFV decomposes the third
/// ciphertext component's mod-`q` coefficients, CKKS the CRT composition
/// of its `c2` across the active modulus chain.
#[must_use]
pub fn digit_decompose(coeffs: &[u128], base_bits: u32, digits: usize) -> Vec<Vec<u128>> {
    debug_assert!(base_bits > 0 && base_bits < 128);
    let mask: u128 = (1u128 << base_bits) - 1;
    (0..digits)
        .map(|i| coeffs.iter().map(|&c| (c >> (base_bits * i as u32)) & mask).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::ntt_form;
    use crate::backend::{CpuBackend, PolyBackend};

    const Q: u128 = 65537; // NTT-friendly for n = 8
    const N: usize = 8;

    #[test]
    fn digit_decompose_recomposes() {
        let coeffs: Vec<u128> = (0..N as u128).map(|i| i * 0x1234_5678 + 3).collect();
        let w = 8;
        let digits = digit_decompose(&coeffs, w, 8);
        for (j, &c) in coeffs.iter().enumerate() {
            let back: u128 = digits.iter().enumerate().map(|(i, d)| d[j] << (w * i as u32)).sum();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn inline_and_resident_forms_agree() {
        let digits: Vec<Limb> = (0..3)
            .map(|d| Limb::new(Q, (0..N as u128).map(|j| (j * 7 + d + 1) % Q).collect()).unwrap())
            .collect();
        let mut be = CpuBackend::new(Q, N).unwrap();
        // A key as it is stored: the forward transform of each raw
        // polynomial, made once.
        let keys: Vec<KeyPair> = (0..3)
            .map(|d| {
                let k0: Vec<u128> = (0..N as u128).map(|j| (j * 31 + d * 5 + 2) % Q).collect();
                let k1: Vec<u128> = (0..N as u128).map(|j| (j * 13 + d * 11 + 9) % Q).collect();
                let mut stored = |raw: &[u128]| {
                    let form = ntt_form(&mut be, raw);
                    let coeffs = be.download(form).unwrap();
                    be.free(form);
                    Limb::new(Q, coeffs).unwrap()
                };
                (stored(&k0), stored(&k1))
            })
            .collect();
        let base = [0, 1].map(|c| (0..N as u128).map(|j| (j + c * 100) % Q).collect::<Vec<_>>());
        be.reset_telemetry();

        let mut st_inline = OpStream::new(N);
        record_key_switch(&mut st_inline, &digits, KeySwitchKeys::Inline(&keys), base.clone())
            .unwrap();
        let inline_out = be.execute_stream(&st_inline).unwrap().outputs;
        // No transform of a key: one per digit and the two inverses.
        assert_eq!(be.report().butterflies, (3 + 2) * cofhee_poly::ntt::butterfly_count(N));
        let uploads = |st: &OpStream| {
            st.nodes().iter().filter(|op| matches!(op, crate::StreamOp::Upload(_))).count()
        };
        assert_eq!(uploads(&st_inline), 3 + 2 * 3 + 2);
        // The key words themselves, not copies of them.
        let key_words: Vec<*const u128> = st_inline
            .nodes()
            .iter()
            .filter_map(|op| match op {
                crate::StreamOp::Upload(p) => Some(p.words().unwrap().as_ptr()),
                _ => None,
            })
            .filter(|ptr| keys.iter().any(|(k0, k1)| [k0.as_ptr(), k1.as_ptr()].contains(ptr)))
            .collect();
        assert_eq!(key_words.len(), 2 * 3);

        // Resident form: the same stored payloads uploaded once, referenced.
        let handles: Vec<_> =
            keys.iter().map(|(k0, k1)| (be.upload(k0).unwrap(), be.upload(k1).unwrap())).collect();
        let mut st_res = OpStream::new(N);
        record_key_switch(&mut st_res, &digits, KeySwitchKeys::Resident(&handles), base).unwrap();
        let resident_out = be.execute_stream(&st_res).unwrap().outputs;

        assert_eq!(inline_out, resident_out);
        assert_eq!(inline_out.len(), 2);
        // One dataflow: the two recordings differ in the key operands only.
        assert_eq!(st_inline.len(), st_res.len());
        for (a, b) in st_inline.nodes().iter().zip(st_res.nodes()) {
            match (a, b) {
                (crate::StreamOp::Upload(_), crate::StreamOp::Input(_)) => {}
                _ => assert_eq!(std::mem::discriminant(a), std::mem::discriminant(b)),
            }
        }
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let digits = vec![Limb::new(Q, vec![0u128; N]).unwrap()];
        let keys: Vec<KeyPair> = vec![];
        let base = [vec![0u128; N], vec![0u128; N]];
        let mut st = OpStream::new(N);
        assert!(record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&keys), base).is_err());
    }
}
