//! BFV ciphertexts.
//!
//! A fresh ciphertext is a pair `(c₁, c₂)` of polynomials in
//! `Z_q[x]/(x^n+1)` (Eqs. 2–3 of the paper). Ciphertext multiplication
//! produces a triple (Eq. 4) until relinearization folds it back to a
//! pair. Each component is a [`Limb`]: `n` canonical residues mod `q`,
//! shared — by clones of the ciphertext and by every stream that uploads
//! it.

use cofhee_core::Limb;

use crate::error::{BfvError, Result};

/// A BFV ciphertext: 2 polynomials when fresh/relinearized, 3 after an
/// unrelinearized multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext {
    polys: Vec<Limb>,
}

impl Ciphertext {
    /// Wraps component polynomials (2 or 3 of them, coefficient domain).
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::WrongCiphertextSize`] for any other count.
    pub fn new(polys: Vec<Limb>) -> Result<Self> {
        if polys.len() != 2 && polys.len() != 3 {
            return Err(BfvError::WrongCiphertextSize { expected: 2, found: polys.len() });
        }
        Ok(Self { polys })
    }

    /// Number of component polynomials (2 or 3).
    #[inline]
    pub fn len(&self) -> usize {
        self.polys.len()
    }

    /// Always false — a ciphertext has at least two components.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The component polynomials.
    #[inline]
    pub fn polys(&self) -> &[Limb] {
        &self.polys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BfvParams;

    #[test]
    fn size_is_validated() {
        let p = BfvParams::insecure_testing(16).unwrap();
        let z = Limb::new(p.q(), vec![0; p.n()]).unwrap();
        assert!(Ciphertext::new(vec![z.clone()]).is_err());
        assert!(Ciphertext::new(vec![z.clone(), z.clone()]).is_ok());
        assert!(Ciphertext::new(vec![z.clone(), z.clone(), z.clone()]).is_ok());
        assert!(Ciphertext::new(vec![z.clone(), z.clone(), z.clone(), z]).is_err());
    }
}
