//! Scheme-neutral client-side stream builders: RLWE key generation,
//! encryption and decryption of one mod-`q` limb.
//!
//! Eqs. 2–3 of the paper — `c₁ = kp₁·u + e₁ + Δm`, `c₂ = kp₂·u + e₂`,
//! `v = c₁ + c₂·s` — are PolyMul and PMODADD, the Table I command set,
//! and BFV and CKKS share them verbatim per limb: BFV records one stream
//! over `q`, CKKS one per active chain prime. So are the products of key
//! generation — `s²`, the public key's `−(a·s + e)` and a relinearization
//! key's digits, made in the NTT domain. What differs is host-side and
//! stays there (the samplers, `Δ·m` against an already scaled encoding,
//! the signed lifts, the rounding after decryption). Every operand is an
//! upload by pointer: a [`Limb`](crate::Limb) of a key or ciphertext
//! enters the stream without a copy, a freshly sampled vector moves in.
//! The key pair of an encryption or decryption enters as
//! [`crate::StreamOp::Input`]: NTT-domain handles resident on the
//! executing backend, transformed once per key rather than once per
//! message.

use crate::backend::PolyHandle;
use crate::error::Result;
use crate::stream::{OpStream, Payload, StreamHandle};

/// Records `ntt(upload(words))`.
fn upload_ntt(st: &mut OpStream, words: impl Into<Payload>) -> Result<StreamHandle> {
    let up = st.upload_shared(words)?;
    st.ntt(up)
}

/// Records `s² = intt(ŝ ⊙ ŝ)` and marks it as the output: two transforms.
///
/// # Errors
///
/// Propagates recording failures (wrong vector lengths).
pub fn record_square(st: &mut OpStream, s: impl Into<Payload>) -> Result<()> {
    let fs = upload_ntt(st, s)?;
    let square = st.hadamard_intt(fs, fs)?;
    st.output(square)?;
    Ok(())
}

/// Records the masked half of an RLWE public key over modulus `q` and
/// marks it as the output: `p0 = −(a·s + e)`, the negation a CMODMUL by
/// `q − 1` — three transforms. The other half is `a` itself.
///
/// # Errors
///
/// Propagates recording failures (wrong vector lengths).
pub fn record_public_key(
    st: &mut OpStream,
    q: u128,
    s: impl Into<Payload>,
    a: impl Into<Payload>,
    e: impl Into<Payload>,
) -> Result<()> {
    let fs = upload_ntt(st, s)?;
    let fa = upload_ntt(st, a)?;
    let product = st.hadamard_intt(fa, fs)?;
    let e = st.upload_shared(e)?;
    let sum = st.pointwise_add(product, e)?;
    let p0 = st.scalar_mul(sum, q - 1)?;
    st.output(p0)?;
    Ok(())
}

/// Records one limb of a relinearization key over modulus `q`, all of it
/// in the NTT domain: `s` and `s²` transformed once, then per digit
/// `(aᵢ, eᵢ, Tⁱ mod q)` the outputs `k̂0ᵢ = −(âᵢ ⊙ ŝ + êᵢ) + Tⁱ·ŝ²` and
/// `k̂1ᵢ = âᵢ`, in digit order — `2 + 2·digits` transforms. The transform
/// is linear, so this is bit for bit the transform of the
/// coefficient-domain key: the form every key switch consumes.
///
/// # Errors
///
/// Propagates recording failures (wrong vector lengths).
pub fn record_relin_key<A: Into<Payload>, E: Into<Payload>>(
    st: &mut OpStream,
    q: u128,
    s: impl Into<Payload>,
    s_sq: impl Into<Payload>,
    digits: impl IntoIterator<Item = (A, E, u128)>,
) -> Result<()> {
    let fs = upload_ntt(st, s)?;
    let fs_sq = upload_ntt(st, s_sq)?;
    for (a, e, t_pow) in digits {
        let fa = upload_ntt(st, a)?;
        let fe = upload_ntt(st, e)?;
        let product = st.hadamard(fa, fs)?;
        let sum = st.pointwise_add(product, fe)?;
        let masked = st.scalar_mul(sum, q - 1)?;
        let shifted = st.scalar_mul(fs_sq, t_pow)?;
        let k0 = st.pointwise_add(masked, shifted)?;
        st.output(k0)?;
        st.output(fa)?;
    }
    Ok(())
}

/// Records one limb of an RLWE encryption and marks `(c0, c1)` as the
/// outputs: `fu = ntt(u)`, `c0 = intt(p0̂ ⊙ fu) + e1 + m`,
/// `c1 = intt(p1̂ ⊙ fu) + e2` — three transforms, the mask `u`
/// transformed once for both components.
///
/// `key` is the public key `(p0̂, p1̂)` in NTT form on the backend the
/// stream will run on; `u`, `noise = [e1, e2]` and the message `m` are
/// residues mod that backend's modulus, uploaded by pointer.
///
/// # Errors
///
/// Propagates recording failures (wrong vector lengths).
pub fn record_encrypt(
    st: &mut OpStream,
    key: (PolyHandle, PolyHandle),
    u: impl Into<Payload>,
    noise: [impl Into<Payload>; 2],
    m: impl Into<Payload>,
) -> Result<()> {
    let fu = upload_ntt(st, u)?;
    let [e1, e2] = noise;
    let mut components = Vec::with_capacity(2);
    for (key, noise) in [(key.0, e1), (key.1, e2)] {
        let key = st.input(key);
        let masked = st.hadamard_intt(key, fu)?;
        let noise = st.upload_shared(noise)?;
        components.push(st.pointwise_add(masked, noise)?);
    }
    let m = st.upload_shared(m)?;
    let c0 = st.pointwise_add(components[0], m)?;
    st.output(c0)?;
    st.output(components[1])?;
    Ok(())
}

/// Records one limb of the decryption polynomial and marks it as the
/// output: `v = c0 + intt(ntt(c1) ⊙ ŝ)`, and for a three-component
/// ciphertext `v = c0 + intt(ntt(c1) ⊙ ŝ + ntt(c2) ⊙ ŝ²)` — the cubic
/// term accumulates in the NTT domain, so either shape runs one inverse
/// transform.
///
/// `key` is `(ŝ, ŝ²)` in NTT form on the backend the stream will run on
/// (`ŝ²` is not referenced without a `c2`); the components are uploaded
/// by pointer.
///
/// # Errors
///
/// Propagates recording failures (wrong vector lengths).
pub fn record_decrypt<P: Into<Payload>>(
    st: &mut OpStream,
    key: (PolyHandle, PolyHandle),
    c0: P,
    c1: P,
    c2: Option<P>,
) -> Result<()> {
    let f1 = upload_ntt(st, c1)?;
    let s = st.input(key.0);
    let folded = match c2 {
        None => st.hadamard_intt(f1, s)?,
        Some(c2) => {
            let f2 = upload_ntt(st, c2)?;
            let s_sq = st.input(key.1);
            let linear = st.hadamard(f1, s)?;
            let sum = st.hadamard_add(f2, s_sq, linear)?;
            st.intt(sum)?
        }
    };
    let c0 = st.upload_shared(c0)?;
    let v = st.pointwise_add(c0, folded)?;
    st.output(v)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::ntt_form;
    use crate::backend::{CpuBackend, PolyBackend};
    use cofhee_arith::{Barrett128, ModRing};
    use cofhee_poly::naive;

    const Q: u128 = 65537; // NTT-friendly for n = 8
    const N: usize = 8;

    fn poly(seed: u128) -> Vec<u128> {
        (0..N as u128).map(|j| (j * j * 31 + seed * 977 + 5) % Q).collect()
    }

    /// `a·b + Σ addends` by the schoolbook product: no transform, no
    /// backend.
    fn mul_add(a: &[u128], b: &[u128], addends: &[&[u128]]) -> Vec<u128> {
        let ring = Barrett128::new(Q).unwrap();
        let mut acc = naive::negacyclic_mul(&ring, a, b).unwrap();
        for x in addends {
            for (c, &xi) in acc.iter_mut().zip(*x) {
                *c = ring.add(*c, xi);
            }
        }
        acc
    }

    fn transforms(be: &CpuBackend) -> u64 {
        be.report().butterflies / ((N as u64 / 2) * u64::from(N.trailing_zeros()))
    }

    #[test]
    fn encrypt_stream_is_eq_2_and_3_in_three_transforms() {
        let (p0, p1, u, e1, e2, m) = (poly(1), poly(2), poly(3), poly(4), poly(5), poly(6));
        let mut be = CpuBackend::new(Q, N).unwrap();
        let key = (ntt_form(&mut be, &p0), ntt_form(&mut be, &p1));
        be.reset_telemetry();
        let mut st = OpStream::new(N);
        record_encrypt(&mut st, key, u.clone(), [e1.clone(), e2.clone()], m.clone()).unwrap();
        let got = be.execute_stream(&st).unwrap().outputs;
        assert_eq!(transforms(&be), 3);
        assert_eq!(got[0], mul_add(&p0, &u, &[&e1, &m]));
        assert_eq!(got[1], mul_add(&p1, &u, &[&e2]));
        assert_eq!(be.buffers_out(), 2, "only the resident key stays on the backend");
    }

    #[test]
    fn decrypt_stream_folds_two_or_three_components_with_one_inverse() {
        let (s, c0, c1, c2) = (poly(7), poly(8), poly(9), poly(10));
        let s_sq = mul_add(&s, &s, &[]);
        let mut be = CpuBackend::new(Q, N).unwrap();
        let key = (ntt_form(&mut be, &s), ntt_form(&mut be, &s_sq));
        for (cubic, want_transforms) in [(None, 2), (Some(c2.clone()), 3)] {
            be.reset_telemetry();
            let mut st = OpStream::new(N);
            record_decrypt(&mut st, key, c0.clone(), c1.clone(), cubic.clone()).unwrap();
            let got = be.execute_stream(&st).unwrap().outputs;
            assert_eq!(transforms(&be), want_transforms);
            let linear = mul_add(&c1, &s, &[&c0]);
            let want = match &cubic {
                None => linear,
                Some(c2) => mul_add(c2, &s_sq, &[&linear]),
            };
            assert_eq!(got, [want]);
        }
    }

    #[test]
    fn a_short_operand_is_refused_at_record_time() {
        let mut be = CpuBackend::new(Q, N).unwrap();
        let key = (ntt_form(&mut be, &poly(1)), ntt_form(&mut be, &poly(2)));
        let short = vec![0u128; N - 1];
        let mut st = OpStream::new(N);
        assert!(record_encrypt(&mut st, key, short.clone(), [poly(3), poly(4)], poly(5)).is_err());
        let mut st = OpStream::new(N);
        assert!(record_decrypt(&mut st, key, poly(3), poly(4), Some(short)).is_err());
    }
}
