//! Scheme-neutral digit-decomposition key-switch stream builder.
//!
//! Key switching is the one FHE primitive BFV and CKKS share verbatim at
//! the dataflow level: a host-side digit decomposition of one polynomial,
//! then per digit a forward NTT, Hadamard products against the two
//! switching-key polynomials, NTT-domain accumulation, and finally two
//! inverse NTTs folded onto the base ciphertext components. The paper
//! defers key switching to future silicon (Section III-C) precisely
//! because the *decomposition* needs full-width coefficient access the
//! Table I command set cannot express — but the inner products map onto
//! the existing op set, and both schemes record the identical stream.
//!
//! This module is that stream's single home. `cofhee_bfv` records it once
//! per relinearization over the mod-`q` backend; `cofhee_ckks` records it
//! once per RNS limb of the modulus chain. The key material can either
//! travel *inline* (self-contained streams a scheduler may run on any
//! borrowed backend) or reference NTT-domain handles already *resident*
//! on the executing backend (the inference-server pattern: invariant keys
//! transformed once, then shared by every stream).

use std::sync::Arc;

use crate::backend::PolyHandle;
use crate::error::Result;
use crate::stream::{OpStream, StreamHandle};

/// Where the switching-key polynomials come from when the stream records.
#[derive(Debug, Clone, Copy)]
pub enum KeySwitchKeys<'a> {
    /// Raw coefficient vectors uploaded and NTT-transformed in-stream:
    /// one `(k0, k1)` pair per digit. The stream is self-contained and
    /// runs on any backend for the right modulus.
    Inline(&'a [(Vec<u128>, Vec<u128>)]),
    /// NTT-domain handles already resident on the backend that will
    /// execute the stream: one `(k0, k1)` pair per digit.
    Resident(&'a [(PolyHandle, PolyHandle)]),
}

impl KeySwitchKeys<'_> {
    /// Number of digit pairs the key carries.
    #[must_use]
    pub fn digits(&self) -> usize {
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
/// stream's uploads. Per digit the
/// builder records: upload + forward NTT of the digit polynomial, the two
/// Hadamard products (keys inline-transformed or referenced resident),
/// and NTT-domain accumulation; then per base component an inverse NTT
/// and a pointwise add, marked as the stream's outputs in component
/// order.
///
/// # Errors
///
/// Returns [`crate::CoreError::BadOperandLength`] if `digits` and `keys`
/// disagree on the digit count, and propagates recording failures (wrong
/// vector lengths).
pub fn record_key_switch(
    st: &mut OpStream,
    digits: &[Arc<Vec<u128>>],
    keys: KeySwitchKeys<'_>,
    base: [Vec<u128>; 2],
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
            let d = st.upload_shared(Arc::clone(digit))?;
            st.ntt(d)?
        };
        let pair: [KeyOperand; 2] = match keys {
            KeySwitchKeys::Inline(parts) => {
                let (k0, k1) = &parts[i];
                [KeyOperand::Raw(k0), KeyOperand::Raw(k1)]
            }
            KeySwitchKeys::Resident(parts) => {
                let (f0, f1) = parts[i];
                [KeyOperand::Ntt(f0), KeyOperand::Ntt(f1)]
            }
        };
        for (key, acc) in pair.into_iter().zip(accs.iter_mut()) {
            let fk = match key {
                KeyOperand::Raw(coeffs) => {
                    let raw = st.upload(coeffs.to_vec())?;
                    st.ntt(raw)?
                }
                KeyOperand::Ntt(handle) => st.input(handle),
            };
            let prod = st.hadamard(fd, fk)?;
            *acc = Some(match acc.take() {
                None => prod,
                Some(sum) => st.pointwise_add(sum, prod)?,
            });
        }
    }
    for (acc, c) in accs.into_iter().zip(base) {
        let acc = acc.expect("digit count checked non-zero above");
        let folded = st.intt(acc)?;
        let b = st.upload(c)?;
        let out = st.pointwise_add(b, folded)?;
        st.output(out)?;
    }
    Ok(())
}

/// One switching-key polynomial, in whichever form the caller holds it.
enum KeyOperand<'a> {
    Raw(&'a [u128]),
    Ntt(PolyHandle),
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
        let digits: Vec<Arc<Vec<u128>>> = (0..3)
            .map(|d| Arc::new((0..N as u128).map(|j| (j * 7 + d + 1) % Q).collect()))
            .collect();
        let keys: Vec<(Vec<u128>, Vec<u128>)> = (0..3)
            .map(|d| {
                let k0 = (0..N as u128).map(|j| (j * 31 + d * 5 + 2) % Q).collect();
                let k1 = (0..N as u128).map(|j| (j * 13 + d * 11 + 9) % Q).collect();
                (k0, k1)
            })
            .collect();
        let base = [0, 1].map(|c| (0..N as u128).map(|j| (j + c * 100) % Q).collect::<Vec<_>>());

        let mut st_inline = OpStream::new(N);
        record_key_switch(&mut st_inline, &digits, KeySwitchKeys::Inline(&keys), base.clone())
            .unwrap();
        let mut be = CpuBackend::new(Q, N).unwrap();
        let inline_out = be.execute_stream(&st_inline).unwrap().outputs;

        // Resident form: pre-transform keys on the backend, reference them.
        let handles: Vec<_> =
            keys.iter().map(|(k0, k1)| (ntt_form(&mut be, k0), ntt_form(&mut be, k1))).collect();
        let mut st_res = OpStream::new(N);
        record_key_switch(&mut st_res, &digits, KeySwitchKeys::Resident(&handles), base).unwrap();
        let resident_out = be.execute_stream(&st_res).unwrap().outputs;

        assert_eq!(inline_out, resident_out);
        assert_eq!(inline_out.len(), 2);
    }

    #[test]
    fn rejects_mismatched_shapes() {
        let digits = vec![Arc::new(vec![0u128; N])];
        let keys: Vec<(Vec<u128>, Vec<u128>)> = vec![];
        let base = [vec![0u128; N], vec![0u128; N]];
        let mut st = OpStream::new(N);
        assert!(record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&keys), base).is_err());
    }
}
