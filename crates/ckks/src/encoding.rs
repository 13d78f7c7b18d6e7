//! Canonical-embedding encoder/decoder: reals ↔ ring elements.
//!
//! CKKS packs `n/2` complex slots into one degree-`n` negacyclic ring
//! element via the canonical embedding σ: a real coefficient vector `a`
//! is identified with its evaluations at the primitive `2n`-th roots of
//! unity `ψ^(2j+1)` (one root per conjugate pair). Negacyclic ring
//! multiplication is *pointwise* on those evaluations, which is what
//! makes slot-wise approximate arithmetic work.
//!
//! The transform runs host-side over `f64` (this is the "encode" row of
//! the HEAAN-Demystified per-primitive breakdown — CPU work, no chip
//! cycles): a radix-2 complex FFT of size `n` with a ψ-twist turns
//! coefficient vectors into slot evaluations and back in `O(n log n)`.
//! Encoding multiplies by the scaling factor Δ and rounds each
//! coefficient to the nearest integer, then reduces into every active
//! RNS limb; decoding CRT-composes the centered representative out of
//! the chain ([`cofhee_arith::signed`]) and divides by the carried
//! scale.
//!
//! # Precision accounting
//!
//! Rounding perturbs each coefficient by at most ½, so a decoded slot
//! differs from the original by at most `n/(2Δ)` in the worst case
//! (≈ 2⁻²⁷ at the testing parameters' Δ = 2³³, n = 64) — comfortably
//! inside the 2⁻²⁰ relative bound the flow tests assert. The FFT's own
//! f64 error is orders of magnitude below that.

use cofhee_arith::signed;
use cofhee_core::Limb;

use crate::ciphertext::CkksPlaintext;
use crate::error::{CkksError, Result};
use crate::params::{CkksParams, Level};

/// Encoder/decoder for one parameter set.
#[derive(Debug, Clone)]
pub struct CkksEncoder {
    params: CkksParams,
    /// Precomputed `ψ^k = e^{iπk/n}` twist factors, `k = 0..n`.
    twist: Vec<(f64, f64)>,
}

impl CkksEncoder {
    /// Builds the encoder (precomputes the ψ-twist table).
    #[must_use]
    pub fn new(params: &CkksParams) -> Self {
        let n = params.n();
        let twist = (0..n)
            .map(|k| {
                let theta = std::f64::consts::PI * k as f64 / n as f64;
                (theta.cos(), theta.sin())
            })
            .collect();
        Self { params: params.clone(), twist }
    }

    /// Number of real slots one plaintext packs (`n / 2`).
    #[must_use]
    pub fn slots(&self) -> usize {
        self.params.slots()
    }

    /// Encodes up to `n/2` reals at the default scale Δ and the chain's
    /// top level.
    ///
    /// # Errors
    ///
    /// See [`CkksEncoder::encode_at`].
    pub fn encode(&self, values: &[f64]) -> Result<CkksPlaintext> {
        self.encode_at(values, self.params.top_level(), self.params.scale())
    }

    /// Encodes up to `n/2` reals at an explicit level and scale — the
    /// level must match the ciphertext the plaintext will meet, and the
    /// scale is usually Δ (or a ciphertext's current scale, for
    /// `add_plain` against rescaled operands).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if more than `n/2` values
    /// are passed and [`CkksError::EncodingOutOfRange`] for non-finite
    /// inputs or values whose scaled coefficients overflow the `i64`
    /// rounding range.
    pub fn encode_at(&self, values: &[f64], level: Level, scale: f64) -> Result<CkksPlaintext> {
        let n = self.params.n();
        let slots = self.slots();
        if values.len() > slots {
            return Err(CkksError::InvalidParams {
                reason: format!("{} values exceed the {} slots", values.len(), slots),
            });
        }
        for &v in values {
            if !v.is_finite() {
                return Err(CkksError::EncodingOutOfRange { value: v });
            }
        }
        // Conjugate-symmetric evaluation vector: slot j at ψ^(2j+1),
        // its conjugate (index n-1-j) carries conj(z_j).
        let mut re = vec![0.0f64; n];
        let mut im = vec![0.0f64; n];
        for (j, &v) in values.iter().enumerate() {
            re[j] = v;
            re[n - 1 - j] = v;
            // im[j] = 0 for real inputs; conj(0) = 0.
        }
        // Interpolate: inverse FFT over ω = ψ², then untwist by ψ^{-k}.
        fft(&mut re, &mut im, true);
        let mut coeffs = Vec::with_capacity(n);
        for k in 0..n {
            let (tr, ti) = self.twist[k];
            // b_k · ψ^{-k} = (re + i·im)(tr − i·ti); imaginary part
            // vanishes for conjugate-symmetric inputs.
            let a = re[k] * tr + im[k] * ti;
            let scaled = a * scale;
            if !scaled.is_finite() || scaled.abs() >= (i64::MAX / 2) as f64 {
                return Err(CkksError::EncodingOutOfRange { value: scaled });
            }
            coeffs.push(scaled.round() as i64);
        }
        let limbs = self
            .params
            .moduli_at(level)
            .iter()
            .map(|&q| Ok(Limb::new(q, coeffs.iter().map(|&m| signed::to_residue(q, m)).collect())?))
            .collect::<Result<_>>()?;
        CkksPlaintext::new(&self.params, limbs, level, scale)
    }

    /// Decodes a plaintext back to its `n/2` real slots.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] for limb shapes that do not
    /// match the carried level (impossible for encoder-produced values).
    pub fn decode(&self, pt: &CkksPlaintext) -> Result<Vec<f64>> {
        let n = self.params.n();
        let basis = self.params.basis_at(pt.level());
        let mut re = Vec::with_capacity(n);
        let mut residues = vec![0u128; pt.level().limbs()];
        for j in 0..n {
            for (r, limb) in residues.iter_mut().zip(pt.limbs()) {
                *r = limb[j];
            }
            let (mag, neg) = basis.compose_centered(&residues)?;
            re.push(signed::centered_to_f64(mag, neg) / pt.scale());
        }
        // Twist by ψ^k, then evaluate at all odd roots with one FFT.
        let mut im = vec![0.0f64; n];
        for k in 0..n {
            let (tr, ti) = self.twist[k];
            let a = re[k];
            re[k] = a * tr;
            im[k] = a * ti;
        }
        fft(&mut re, &mut im, false);
        Ok(re[..self.slots()].to_vec())
    }
}

/// In-place radix-2 complex FFT over the n-th roots of unity.
///
/// `invert = false` computes `X_j = Σ_k x_k ω^{jk}` (ω = e^{2πi/n});
/// `invert = true` computes the inverse including the `1/n` factor.
fn fft(re: &mut [f64], im: &mut [f64], invert: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if invert { -1.0 } else { 1.0 };
    let mut len = 2;
    while len <= n {
        let theta = sign * 2.0 * std::f64::consts::PI / len as f64;
        let (wr, wi) = (theta.cos(), theta.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in i..i + len / 2 {
                let (ur, ui) = (re[k], im[k]);
                let (vr0, vi0) = (re[k + len / 2], im[k + len / 2]);
                let vr = vr0 * cr - vi0 * ci;
                let vi = vr0 * ci + vi0 * cr;
                re[k] = ur + vr;
                im[k] = ui + vi;
                re[k + len / 2] = ur - vr;
                im[k + len / 2] = ui - vi;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
    if invert {
        let inv_n = 1.0 / n as f64;
        for (r, i) in re.iter_mut().zip(im.iter_mut()) {
            *r *= inv_n;
            *i *= inv_n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (CkksParams, CkksEncoder) {
        let p = CkksParams::insecure_testing(64).unwrap();
        let enc = CkksEncoder::new(&p);
        (p, enc)
    }

    #[test]
    fn fft_round_trips() {
        let n = 16;
        let orig: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut re = orig.clone();
        let mut im = vec![0.0; n];
        fft(&mut re, &mut im, false);
        fft(&mut re, &mut im, true);
        for (a, b) in re.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-12);
        }
        for v in im {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn encode_decode_round_trips_within_bound() {
        let (p, enc) = setup();
        let values: Vec<f64> = (0..p.slots()).map(|i| (i as f64 * 0.39).cos() * 3.5).collect();
        let pt = enc.encode(&values).unwrap();
        assert_eq!(pt.level(), p.top_level());
        let back = enc.decode(&pt).unwrap();
        // Worst-case slot error of one round trip at scale Δ: n / (2Δ).
        let bound = p.n() as f64 / (2.0 * p.scale());
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound:e})");
        }
    }

    #[test]
    fn short_inputs_pad_with_zero_slots() {
        let (_, enc) = setup();
        let pt = enc.encode(&[1.25, -2.5]).unwrap();
        let back = enc.decode(&pt).unwrap();
        assert!((back[0] - 1.25).abs() < 1e-6);
        assert!((back[1] + 2.5).abs() < 1e-6);
        for v in &back[2..] {
            assert!(v.abs() < 1e-6);
        }
    }

    #[test]
    fn encode_rejects_bad_inputs() {
        let (p, enc) = setup();
        assert!(enc.encode(&vec![0.0; p.slots() + 1]).is_err());
        assert!(enc.encode(&[f64::NAN]).is_err());
        assert!(enc.encode(&[1e300]).is_err());
    }

    #[test]
    fn encoding_is_slotwise_additive() {
        // σ is linear: encode(a) + encode(b) decodes to a + b.
        let (p, enc) = setup();
        let a: Vec<f64> = (0..p.slots()).map(|i| i as f64 * 0.1).collect();
        let b: Vec<f64> = (0..p.slots()).map(|i| 2.0 - i as f64 * 0.05).collect();
        let pa = enc.encode(&a).unwrap();
        let pb = enc.encode(&b).unwrap();
        let sum_limbs = pa
            .limbs()
            .iter()
            .zip(pb.limbs())
            .zip(p.moduli())
            .map(|((la, lb), &q)| {
                Limb::new(q, la.iter().zip(lb).map(|(&x, &y)| (x + y) % q).collect()).unwrap()
            })
            .collect();
        let sum = CkksPlaintext::new(&p, sum_limbs, pa.level(), pa.scale()).unwrap();
        let back = enc.decode(&sum).unwrap();
        for ((x, y), z) in a.iter().zip(&b).zip(&back) {
            assert!((x + y - z).abs() < 1e-6);
        }
    }
}
