//! CKKS ciphertexts and plaintexts in RNS limb form.
//!
//! Components are stored as one [`Limb`] per active chain prime — `n`
//! canonical residues and the prime they are reduced by, behind a shared
//! pointer — the exact form the stream builders upload, by pointer, so
//! the evaluator never converts or copies between host and backend
//! representations on the hot path. Every value carries its [`Level`]
//! (which chain prefix the limbs span) and its scaling factor (the
//! Δ-power the encoded reals are multiplied by); both, and each limb's
//! prime, are checked, not trusted, at each operation.

use cofhee_core::Limb;

use crate::error::{CkksError, Result};
use crate::params::{CkksParams, Level};

/// One ring element in RNS form: `limbs[j]` holds the `n` canonical
/// residues modulo chain prime `j`.
pub type RnsPoly = Vec<Limb>;

/// Relative slack allowed when comparing scaling factors: rescaling by a
/// prime near Δ never lands exactly on Δ, so equality is approximate by
/// construction.
const SCALE_SLACK: f64 = 1e-9;

/// True when two scaling factors agree up to floating-point slack.
#[must_use]
pub fn scales_match(a: f64, b: f64) -> bool {
    (a / b - 1.0).abs() < SCALE_SLACK
}

/// An encoded (not yet encrypted) message: the integer polynomial
/// `⌊Δ·σ⁻¹(z)⌉` in RNS limb form, tagged with level and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct CkksPlaintext {
    limbs: RnsPoly,
    level: Level,
    scale: f64,
}

impl CkksPlaintext {
    /// Wraps limb residues produced by the encoder.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::InvalidParams`] if the limb count does not
    /// match the level or any limb has the wrong length.
    pub fn new(params: &CkksParams, limbs: RnsPoly, level: Level, scale: f64) -> Result<Self> {
        check_rns_poly(params, &limbs, level, "plaintext")?;
        Ok(Self { limbs, level, scale })
    }

    /// The per-limb residue vectors.
    #[must_use]
    pub fn limbs(&self) -> &RnsPoly {
        &self.limbs
    }

    /// The chain level the limbs span.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The scaling factor the encoded reals were multiplied by.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

/// A CKKS ciphertext: 2 components (fresh / relinearized) or 3 (after
/// multiply, before relinearization), each an [`RnsPoly`] at `level`.
#[derive(Debug, Clone, PartialEq)]
pub struct CkksCiphertext {
    components: Vec<RnsPoly>,
    level: Level,
    scale: f64,
}

impl CkksCiphertext {
    /// Wraps component limb residues (2 or 3 components).
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::WrongCiphertextSize`] for other component
    /// counts and [`CkksError::InvalidParams`] for malformed limbs.
    pub fn new(
        params: &CkksParams,
        components: Vec<RnsPoly>,
        level: Level,
        scale: f64,
    ) -> Result<Self> {
        if components.len() < 2 || components.len() > 3 {
            return Err(CkksError::WrongCiphertextSize { expected: 2, found: components.len() });
        }
        for c in &components {
            check_rns_poly(params, c, level, "ciphertext component")?;
        }
        Ok(Self { components, level, scale })
    }

    /// The ciphertext components.
    #[must_use]
    pub fn components(&self) -> &[RnsPoly] {
        &self.components
    }

    /// Number of components (2 or 3).
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Always false — validated ciphertexts carry ≥ 2 components.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The chain level the limbs span.
    #[must_use]
    pub fn level(&self) -> Level {
        self.level
    }

    /// The scaling factor carried by the encrypted message.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Approximate per-ciphertext size in bytes at its current level
    /// (components × limbs × n × 16-byte coefficients).
    #[must_use]
    pub fn bytes(&self) -> u64 {
        let per_limb = self.components[0][0].len() as u64 * 16;
        (self.components.len() * self.level.limbs()) as u64 * per_limb
    }
}

/// The shape rule for values that arrive from outside an operation:
/// [`CkksError::ParamsMismatch`] unless every polynomial is `level`'s
/// limb count of degree-`n` residues modulo this chain's primes. Checked
/// before anything is recorded or uploaded.
pub(crate) fn check_shape(params: &CkksParams, level: Level, polys: &[RnsPoly]) -> Result<()> {
    polys
        .iter()
        .try_for_each(|poly| check_rns_poly(params, poly, level, "operand"))
        .map_err(|_| CkksError::ParamsMismatch)
}

fn check_rns_poly(params: &CkksParams, poly: &RnsPoly, level: Level, what: &str) -> Result<()> {
    if level > params.top_level() {
        return Err(CkksError::InvalidParams {
            reason: format!("{what} level {level} exceeds the chain top {}", params.top_level()),
        });
    }
    if poly.len() != level.limbs() {
        return Err(CkksError::InvalidParams {
            reason: format!(
                "{what} carries {} limbs, level {level} needs {}",
                poly.len(),
                level.limbs()
            ),
        });
    }
    for (j, (limb, &q)) in poly.iter().zip(params.moduli()).enumerate() {
        if limb.modulus() != q {
            return Err(CkksError::ParamsMismatch);
        }
        if limb.len() != params.n() {
            return Err(CkksError::InvalidParams {
                reason: format!(
                    "{what} limb {j} has {} coefficients, expected {}",
                    limb.len(),
                    params.n()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CkksParams {
        CkksParams::insecure_testing(64).unwrap()
    }

    /// The zero polynomial at the chain top, `n` residues per prime.
    fn zero(p: &CkksParams, n: usize) -> RnsPoly {
        p.moduli().iter().map(|&q| Limb::new(q, vec![0; n]).unwrap()).collect()
    }

    #[test]
    fn validates_limb_shape() {
        let p = params();
        let level = p.top_level();
        let good = zero(&p, p.n());
        assert!(CkksPlaintext::new(&p, good.clone(), level, p.scale()).is_ok());
        // Wrong limb count for the level.
        assert!(CkksPlaintext::new(&p, good[..2].to_vec(), level, p.scale()).is_err());
        // Wrong degree.
        assert!(CkksPlaintext::new(&p, zero(&p, 8), level, p.scale()).is_err());
        // Limbs in the wrong order: each residue vector under another prime.
        let mut swapped = good;
        swapped.swap(0, 1);
        assert_eq!(
            CkksPlaintext::new(&p, swapped, level, p.scale()),
            Err(CkksError::ParamsMismatch)
        );
    }

    #[test]
    fn ciphertext_needs_two_or_three_components() {
        let p = params();
        let level = p.top_level();
        let limb = zero(&p, p.n());
        assert!(CkksCiphertext::new(&p, vec![limb.clone()], level, p.scale()).is_err());
        assert!(CkksCiphertext::new(&p, vec![limb.clone(); 2], level, p.scale()).is_ok());
        assert!(CkksCiphertext::new(&p, vec![limb.clone(); 3], level, p.scale()).is_ok());
        assert!(CkksCiphertext::new(&p, vec![limb; 4], level, p.scale()).is_err());
    }

    #[test]
    fn scale_comparison_tolerates_float_slack() {
        assert!(scales_match(2f64.powi(33), 2f64.powi(33) * (1.0 + 1e-12)));
        assert!(!scales_match(2f64.powi(33), 2f64.powi(34)));
    }
}
