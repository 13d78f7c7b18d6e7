//! Plaintexts and the SIMD batch encoder.
//!
//! A BFV plaintext is a polynomial over `Z_t[x]/(x^n + 1)`. The batch
//! encoder packs `n` independent `Z_t` values ("slots") into one plaintext
//! via the NTT over `t`, so every homomorphic operation acts slot-wise —
//! the packing CryptoNets-style inference uses to amortize throughput.

use std::fmt;
use std::sync::{Arc, OnceLock};

use cofhee_arith::Barrett64;
use cofhee_core::Limb;
use cofhee_poly::{HarveyNtt, TwiddleCache};

use crate::error::{BfvError, Result};
use crate::params::BfvParams;

/// A plaintext polynomial: `n` coefficients reduced modulo `t`.
///
/// Its first `ct · pt` product stores the NTT form of its lift modulo
/// `q`, shared by every clone, so a reused plaintext is transformed once.
/// Equality and `Debug` ignore that form.
#[derive(Clone)]
pub struct Plaintext {
    coeffs: Vec<u64>,
    t: u64,
    ntt: Arc<OnceLock<Limb>>,
}

impl PartialEq for Plaintext {
    fn eq(&self, other: &Self) -> bool {
        (&self.coeffs, self.t) == (&other.coeffs, other.t)
    }
}

impl Eq for Plaintext {}

impl fmt::Debug for Plaintext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Plaintext").field("coeffs", &self.coeffs).field("t", &self.t).finish()
    }
}

impl Plaintext {
    /// Builds a plaintext from coefficients, validating range.
    ///
    /// # Errors
    ///
    /// * [`BfvError::WrongCiphertextSize`] never; length must equal `n` —
    ///   returns [`BfvError::InvalidParams`] otherwise.
    /// * [`BfvError::PlaintextOutOfRange`] if any coefficient ≥ `t`.
    pub fn new(params: &BfvParams, coeffs: Vec<u64>) -> Result<Self> {
        if coeffs.len() != params.n() {
            return Err(BfvError::InvalidParams {
                reason: format!(
                    "plaintext needs {} coefficients, got {}",
                    params.n(),
                    coeffs.len()
                ),
            });
        }
        for &c in &coeffs {
            if c >= params.t() {
                return Err(BfvError::PlaintextOutOfRange { value: c, t: params.t() });
            }
        }
        Ok(Self { coeffs, t: params.t(), ntt: Arc::default() })
    }

    /// A plaintext encoding a single constant in coefficient 0.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::PlaintextOutOfRange`] if `value ≥ t`.
    pub fn constant(params: &BfvParams, value: u64) -> Result<Self> {
        if value >= params.t() {
            return Err(BfvError::PlaintextOutOfRange { value, t: params.t() });
        }
        let mut coeffs = vec![0u64; params.n()];
        coeffs[0] = value;
        Ok(Self { coeffs, t: params.t(), ntt: Arc::default() })
    }

    /// The coefficient vector.
    #[inline]
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The plaintext modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.t
    }

    /// The NTT form of the lift modulo `q`, stored by the first call;
    /// under any later `q` it is made afresh and not stored.
    pub(crate) fn ntt_form(&self, q: u128) -> Result<Limb> {
        if let Some(form) = self.ntt.get().filter(|form| form.modulus() == q) {
            return Ok(form.clone());
        }
        let lift = Limb::new(q, self.coeffs.iter().map(|&m| u128::from(m)).collect())?;
        let form = lift.ntt_form()?;
        let _ = self.ntt.set(form.clone());
        Ok(form)
    }
}

/// SIMD batch encoder over the plaintext slots.
///
/// Requires a prime `t ≡ 1 (mod 2n)` (the condition for `Z_t[x]/(x^n+1)`
/// to split into `n` copies of `Z_t`). The paper-scale parameter presets
/// choose such a `t`.
///
/// # Examples
///
/// ```
/// use cofhee_bfv::{BatchEncoder, BfvParams};
///
/// # fn main() -> Result<(), cofhee_bfv::BfvError> {
/// let params = BfvParams::insecure_testing(64)?;
/// let encoder = BatchEncoder::new(&params)?;
/// let slots: Vec<u64> = (0..64).collect();
/// let pt = encoder.encode(&slots)?;
/// assert_eq!(encoder.decode(&pt), slots);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    plan: Arc<HarveyNtt<Barrett64>>,
    n: usize,
    t: u64,
}

impl BatchEncoder {
    /// Builds an encoder for the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::BatchingUnsupported`] when `t` is not a prime
    /// congruent to 1 modulo `2n`.
    pub fn new(params: &BfvParams) -> Result<Self> {
        let t = params.t();
        let n = params.n();
        if !cofhee_arith::primes::is_prime(t as u128) || (t as u128 - 1) % (2 * n as u128) != 0 {
            return Err(BfvError::BatchingUnsupported { t, n });
        }
        // Shared via the process-wide cache (and running the lazy
        // kernels): every encoder for the same (t, n) reuses one plan.
        let plan = TwiddleCache::barrett64(t, n)?;
        Ok(Self { plan, n, t })
    }

    /// Packs slot values into a plaintext polynomial (inverse NTT over `t`).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] on length mismatch and
    /// [`BfvError::PlaintextOutOfRange`] for unreduced slots.
    pub fn encode(&self, slots: &[u64]) -> Result<Plaintext> {
        if slots.len() != self.n {
            return Err(BfvError::InvalidParams {
                reason: format!("expected {} slots, got {}", self.n, slots.len()),
            });
        }
        for &s in slots {
            if s >= self.t {
                return Err(BfvError::PlaintextOutOfRange { value: s, t: self.t });
            }
        }
        let mut coeffs = slots.to_vec();
        self.plan.inverse_inplace(&mut coeffs)?;
        Ok(Plaintext { coeffs, t: self.t, ntt: Arc::default() })
    }

    /// Unpacks a plaintext into its slot values (forward NTT over `t`).
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let mut slots = pt.coeffs.clone();
        self.plan
            .forward_inplace(&mut slots)
            .expect("plaintext length is validated at construction");
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::ModRing;
    use cofhee_poly::naive;

    fn params() -> BfvParams {
        BfvParams::insecure_testing(64).unwrap()
    }

    #[test]
    fn constant_puts_value_in_slot_zero_coefficient() {
        let p = params();
        let pt = Plaintext::constant(&p, 7).unwrap();
        assert_eq!(pt.coeffs()[0], 7);
        assert!(pt.coeffs()[1..].iter().all(|&c| c == 0));
        assert!(Plaintext::constant(&p, p.t()).is_err());
    }

    #[test]
    fn new_validates_range_and_length() {
        let p = params();
        assert!(Plaintext::new(&p, vec![0; 63]).is_err());
        let mut bad = vec![0u64; 64];
        bad[5] = p.t();
        assert!(Plaintext::new(&p, bad).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = params();
        let enc = BatchEncoder::new(&p).unwrap();
        let slots: Vec<u64> = (0..64u64).map(|i| (i * 37 + 11) % p.t()).collect();
        let pt = enc.encode(&slots).unwrap();
        assert_eq!(enc.decode(&pt), slots);
    }

    #[test]
    fn slots_multiply_pointwise_under_ring_multiplication() {
        // decode(a·b mod (x^n+1, t)) = decode(a) ∘ decode(b)
        let p = params();
        let enc = BatchEncoder::new(&p).unwrap();
        let sa: Vec<u64> = (0..64u64).map(|i| (i * 3 + 1) % p.t()).collect();
        let sb: Vec<u64> = (0..64u64).map(|i| (i * i + 5) % p.t()).collect();
        let pa = enc.encode(&sa).unwrap();
        let pb = enc.encode(&sb).unwrap();
        let ring = Barrett64::new(p.t()).unwrap();
        let prod = naive::negacyclic_mul(&ring, pa.coeffs(), pb.coeffs()).unwrap();
        let pt_prod = Plaintext { coeffs: prod, t: p.t(), ntt: Arc::default() };
        let got = enc.decode(&pt_prod);
        let expect: Vec<u64> = sa.iter().zip(&sb).map(|(&a, &b)| ring.mul(a, b)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn batching_requires_compatible_t() {
        // t = 65537 is prime but 65536 is not divisible by 2·64? It is
        // (2^16 % 128 == 0), so craft an incompatible t instead: t = 257,
        // 256 % 128 == 0 — also compatible. Use t = 13 (13 - 1 = 12 not
        // divisible by 128).
        let q = cofhee_arith::primes::ntt_prime(60, 64).unwrap();
        let p = BfvParams::new(64, 13, q).unwrap();
        assert!(matches!(BatchEncoder::new(&p), Err(BfvError::BatchingUnsupported { .. })));
    }
}
