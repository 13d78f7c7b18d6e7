//! BFV parameter sets.
//!
//! The paper evaluates at two points (Section VI-B), both giving 128-bit
//! classical security per the Homomorphic Encryption Security Standard:
//!
//! * `(n, log q) = (2^12, 109)` — SEAL splits `q` into 54+55-bit RNS
//!   towers; CoFHEE handles the full 109 bits natively in one tower.
//! * `(n, log q) = (2^13, 218)` — SEAL uses four ≈55-bit towers; CoFHEE
//!   uses two 109-bit towers.
//!
//! This crate's exact BFV (encrypt/decrypt/multiply) operates over a
//! single NTT-friendly prime `q` of up to [`MAX_FUNCTIONAL_LOG_Q`] bits;
//! a wider `q` is refused. The paper's 218-bit point appears only as
//! timed workloads: Fig. 6's per-tower tensor streams on the CPU side and
//! two 109-bit tower schedules on the chip.

use std::sync::Arc;

use cofhee_arith::{primes, rns::RnsBasis, signed::ScaleRound, Barrett128};

use crate::error::{BfvError, Result};

/// Maximum `log₂ q` the exact single-modulus path supports.
///
/// The exact tensor multiplication reconstructs integer coefficients
/// bounded by `n·q²` through a 256-bit CRT, which caps `q` at 110 bits for
/// `n = 2^13`. The paper's 109-bit parameter set fits.
pub const MAX_FUNCTIONAL_LOG_Q: u32 = 110;

/// A validated BFV parameter set over a single prime modulus.
#[derive(Debug, Clone)]
pub struct BfvParams {
    n: usize,
    t: u64,
    q: u128,
    /// The scalar ring mod `q`: what the samplers, the decryption's
    /// centering and `Tⁱ mod q` need. No transform plan lives here —
    /// every polynomial product, key generation included, runs on a
    /// backend brought up for `(q, n)`.
    ring: Barrett128,
    /// Δ = ⌊q/t⌋, the plaintext scaling factor of Eq. 2.
    delta: u128,
    /// The host-side CRT and rounding constants, shared by clones.
    crt: Arc<CrtTables>,
}

/// What the host half of multiplication and decryption precomputes.
#[derive(Debug)]
struct CrtTables {
    /// NTT-friendly computation primes whose product exceeds `n·q²·2`,
    /// used for the exact tensor in ciphertext multiplication.
    mult_basis: RnsBasis,
    /// Eq. 4's `⌊t·x/q⌉ mod q`, applied to every tensor coefficient.
    tensor_round: ScaleRound,
    /// Decryption's `⌊t·v/q⌉ mod t`.
    decrypt_round: ScaleRound,
}

impl BfvParams {
    /// Validates and precomputes a parameter set.
    ///
    /// `q` must be an NTT-friendly prime (`q ≡ 1 mod 2n`) of at most
    /// [`MAX_FUNCTIONAL_LOG_Q`] bits; `t` must satisfy `1 < t < q` and
    /// `t ≪ q`.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] describing the violated
    /// constraint.
    pub fn new(n: usize, t: u64, q: u128) -> Result<Self> {
        if !n.is_power_of_two() || n < 4 {
            return Err(BfvError::InvalidParams {
                reason: format!("degree {n} must be a power of two >= 4"),
            });
        }
        let q_bits = 128 - q.leading_zeros();
        if q_bits > MAX_FUNCTIONAL_LOG_Q {
            return Err(BfvError::InvalidParams {
                reason: format!(
                    "log q = {q_bits} exceeds the {MAX_FUNCTIONAL_LOG_Q}-bit limit of exact \
                     single-modulus BFV; wider moduli are not supported"
                ),
            });
        }
        if !primes::is_prime(q) || (q - 1) % (2 * n as u128) != 0 {
            return Err(BfvError::InvalidParams {
                reason: format!("q = {q} must be prime with q ≡ 1 (mod 2n)"),
            });
        }
        if t < 2 || (t as u128) >= q >> 10 {
            return Err(BfvError::InvalidParams {
                reason: format!("plaintext modulus t = {t} must satisfy 2 <= t << q"),
            });
        }
        // The exact tensor scales values bounded by n·q²/2 by t before the
        // 256-bit division; keep t·n·q² within 255 bits.
        let t_bits = 64 - t.leading_zeros();
        if t_bits + 2 * q_bits + n.trailing_zeros() + 2 > 255 {
            return Err(BfvError::InvalidParams {
                reason: format!(
                    "t ({t_bits} bits) too wide for exact scaling at log q = {q_bits}, n = {n}"
                ),
            });
        }
        let ring = Barrett128::new(q)?;
        // Computation basis for the exact tensor: product must exceed
        // 2·n·q² (sign headroom included).
        let needed_bits = 1 + n.trailing_zeros() + 2 * q_bits + 2;
        // The fewest word primes `Barrett64` takes (`p < 2^62`) that cover
        // it — not `primes::tower_plan`, whose 55-bit cap models the
        // paper's CPU towers and would spend a limb more.
        let count = needed_bits.div_ceil(59) as usize;
        let mult_basis = RnsBasis::new(primes::ntt_primes(59, n, count)?)?;
        if mult_basis.total_bits() < needed_bits {
            return Err(BfvError::InvalidParams {
                reason: format!("no {count} 59-bit NTT primes cover {needed_bits} bits at n = {n}"),
            });
        }
        let crt = Arc::new(CrtTables {
            mult_basis,
            tensor_round: ScaleRound::new(t as u128, q, q)?,
            decrypt_round: ScaleRound::new(t as u128, q, t as u128)?,
        });
        Ok(Self { n, t, q, ring, delta: q / t as u128, crt })
    }

    /// The paper's `(n, log q) = (2^12, 109)` evaluation point with a
    /// batching-friendly plaintext modulus.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn paper_n12() -> Result<Self> {
        let n = 1 << 12;
        let q = primes::ntt_prime(109, n)?;
        // t ≡ 1 (mod 2n) so the batch encoder works.
        let t = primes::ntt_prime(20, n)? as u64;
        Self::new(n, t, q)
    }

    /// A `n = 2^13` functional set at 109-bit `q` (the paper's 218-bit
    /// point exceeds [`MAX_FUNCTIONAL_LOG_Q`]: Fig. 6 times it only).
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn paper_n13_single_tower() -> Result<Self> {
        let n = 1 << 13;
        let q = primes::ntt_prime(109, n)?;
        let t = primes::ntt_prime(20, n)? as u64;
        Self::new(n, t, q)
    }

    /// A small, fast parameter set for unit tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn insecure_testing(n: usize) -> Result<Self> {
        let q = primes::ntt_prime(60, n)?;
        let t = primes::ntt_prime(16, n)? as u64;
        Self::new(n, t, q)
    }

    /// Polynomial degree `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plaintext modulus `t`.
    #[inline]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Ciphertext modulus `q`.
    #[inline]
    pub fn q(&self) -> u128 {
        self.q
    }

    /// `log₂ q`, rounded up.
    #[inline]
    pub fn log_q(&self) -> u32 {
        128 - self.q.leading_zeros()
    }

    /// The scaling factor `Δ = ⌊q/t⌋`.
    #[inline]
    pub fn delta(&self) -> u128 {
        self.delta
    }

    /// The scalar ring mod `q`.
    #[inline]
    pub(crate) fn ring(&self) -> &Barrett128 {
        &self.ring
    }

    /// The exact-tensor computation basis.
    #[inline]
    pub fn mult_basis(&self) -> &RnsBasis {
        &self.crt.mult_basis
    }

    /// The exact scale-and-round finishing a tensor coefficient.
    #[inline]
    pub(crate) fn tensor_round(&self) -> &ScaleRound {
        &self.crt.tensor_round
    }

    /// The exact scale-and-round decrypting a coefficient.
    #[inline]
    pub(crate) fn decrypt_round(&self) -> &ScaleRound {
        &self.crt.decrypt_round
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testing_params_validate() {
        let p = BfvParams::insecure_testing(1 << 6).unwrap();
        assert_eq!(p.n(), 64);
        assert!(p.delta() > 0);
        assert!(p.mult_basis().total_bits() >= 1 + 6 + 2 * p.log_q());
    }

    #[test]
    fn paper_n12_matches_paper_shape() {
        let p = BfvParams::paper_n12().unwrap();
        assert_eq!(p.n(), 1 << 12);
        assert_eq!(p.log_q(), 109);
        // The CPU baseline splits this into 2 towers; CoFHEE runs 1.
        assert_eq!(primes::tower_plan(p.log_q(), 64).len(), 2);
        assert_eq!(primes::tower_plan(p.log_q(), 128).len(), 1);
    }

    #[test]
    fn the_computation_basis_is_the_fewest_word_primes_that_cover_the_tensor() {
        let q_2_11 = primes::ntt_prime(109, 1 << 11).unwrap();
        let t_2_11 = primes::ntt_prime(20, 1 << 11).unwrap() as u64;
        for (params, limbs) in [
            (BfvParams::paper_n12().unwrap(), 4),
            (BfvParams::paper_n13_single_tower().unwrap(), 4),
            (BfvParams::new(1 << 11, t_2_11, q_2_11).unwrap(), 4),
            (BfvParams::insecure_testing(1 << 6).unwrap(), 3),
        ] {
            let basis = params.mult_basis();
            let needed = 1 + params.n().trailing_zeros() + 2 * params.log_q() + 2;
            assert_eq!(basis.len(), limbs, "n = {}", params.n());
            assert!(basis.moduli().iter().all(|&p| p >> 62 == 0), "Barrett64 takes every limb");
            assert!(basis.total_bits() >= needed);
            // `ntt_primes` descends: dropping the last keeps the largest.
            let fewer = RnsBasis::new(basis.moduli()[..limbs - 1].to_vec()).unwrap();
            assert!(fewer.total_bits() < needed, "one prime fewer would not cover it");
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        // n not a power of two.
        assert!(BfvParams::new(100, 65537, 12289).is_err());
        // q too wide for the functional path.
        let q124 = primes::ntt_prime(124, 1 << 6).unwrap();
        assert!(BfvParams::new(1 << 6, 17, q124).is_err());
        // q not ≡ 1 mod 2n.
        assert!(BfvParams::new(1 << 6, 17, 1_000_003).is_err());
        // t too large relative to q.
        let q = primes::ntt_prime(60, 1 << 6).unwrap();
        assert!(BfvParams::new(1 << 6, (q >> 2) as u64, q).is_err());
    }
}
