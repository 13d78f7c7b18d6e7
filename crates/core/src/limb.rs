//! The one polynomial the host holds: a [`Limb`].
//!
//! CoFHEE's host API hands the chip a polynomial as one vector of
//! ≤ 128-bit residues per tower (Section III-C), and so does every value
//! the scheme crates keep — a BFV ciphertext component or key, a CKKS
//! limb of a ciphertext, plaintext or key: `n` canonical residues modulo
//! one modulus, behind a shared pointer. Recording an op uploads a limb
//! by pointer ([`OpStream::upload_shared`](crate::OpStream::upload_shared)),
//! so no operand is copied into a stream, and cloning a ciphertext copies
//! pointers. The modulus travels with the words: it is what an operation
//! checks a foreign operand against.

use std::ops::Deref;
use std::sync::Arc;

use cofhee_poly::PolyError;

use crate::error::Result;
use crate::stream::Payload;

/// `n` canonical residues modulo `modulus`, shared by clones and by every
/// stream that uploads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limb {
    modulus: u128,
    words: Arc<Vec<u128>>,
}

impl Limb {
    /// Wraps residues already reduced modulo `modulus` — a stream's
    /// output, a sampler's draw — without copying them.
    ///
    /// # Errors
    ///
    /// [`PolyError::NonCanonical`] (as [`crate::CoreError::Poly`]) when a
    /// word is not below `modulus`: the lazy kernels take operands on
    /// trust, so this is where the range is enforced.
    pub fn new(modulus: u128, words: Vec<u128>) -> Result<Self> {
        if let Some(index) = words.iter().position(|&w| w >= modulus) {
            return Err(PolyError::NonCanonical { index, modulus }.into());
        }
        Ok(Self { modulus, words: Arc::new(words) })
    }

    /// The modulus the residues are reduced by.
    #[must_use]
    pub fn modulus(&self) -> u128 {
        self.modulus
    }

    /// The residues.
    #[must_use]
    pub fn coeffs(&self) -> &[u128] {
        &self.words
    }

    /// The residues, copied out.
    #[must_use]
    pub fn to_u128_vec(&self) -> Vec<u128> {
        self.words.to_vec()
    }

    /// Whether this is a degree-`n` polynomial modulo `modulus`.
    #[must_use]
    pub fn is_in(&self, modulus: u128, n: usize) -> bool {
        self.modulus == modulus && self.words.len() == n
    }
}

impl Deref for Limb {
    type Target = [u128];

    fn deref(&self) -> &[u128] {
        &self.words
    }
}

impl<'a> IntoIterator for &'a Limb {
    type Item = &'a u128;
    type IntoIter = std::slice::Iter<'a, u128>;

    fn into_iter(self) -> Self::IntoIter {
        self.words.iter()
    }
}

impl From<Limb> for Arc<Vec<u128>> {
    fn from(limb: Limb) -> Self {
        limb.words
    }
}

impl From<Limb> for Payload {
    fn from(limb: Limb) -> Self {
        Self::from(limb.words)
    }
}

impl From<&Limb> for Payload {
    fn from(limb: &Limb) -> Self {
        Self::from(Arc::clone(&limb.words))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreError, OpStream, StreamOp};

    #[test]
    fn a_limb_is_canonical_and_uploads_by_pointer() {
        let q = 17;
        assert_eq!(
            Limb::new(q, vec![3, 17, 0]),
            Err(CoreError::Poly(PolyError::NonCanonical { index: 1, modulus: q }))
        );
        let limb = Limb::new(q, vec![16, 0, 5, 1]).unwrap();
        assert!(limb.is_in(q, 4) && !limb.is_in(q, 8) && !limb.is_in(19, 4));
        assert_eq!((limb[2], limb.iter().sum::<u128>()), (5, 22));
        let mut st = OpStream::new(4);
        st.upload_shared(&limb).unwrap();
        st.upload_shared(limb.clone()).unwrap();
        for op in st.nodes() {
            let StreamOp::Upload(payload) = op else { unreachable!("two uploads") };
            assert_eq!(payload.words().unwrap().as_ptr(), limb.as_ptr());
        }
    }
}
