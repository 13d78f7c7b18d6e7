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

use cofhee_arith::LazyRing;
use cofhee_poly::cache::TwiddleCache;
use cofhee_poly::lazy::HarveyNtt;
use cofhee_poly::{pointwise, PolyError};

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
        if !pointwise::all_below(modulus, &words) {
            let index = words.iter().position(|&w| w >= modulus).expect("a word is out of range");
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

    /// The forward transform, bit for bit an `Ntt` node's output on
    /// either backend: the interned host plan at the width
    /// [`TwiddleCache::narrow`] picks, the rule the backends share.
    ///
    /// # Errors
    ///
    /// Root-finding failures (`modulus` not NTT-friendly for the length).
    pub fn ntt_form(&self) -> Result<Self> {
        fn forward<R: LazyRing>(plan: Arc<HarveyNtt<R>>, words: &[u128]) -> Result<Vec<u128>> {
            let ring = plan.ring();
            let mut v: Vec<R::Elem> = words.iter().map(|&w| ring.from_u128(w)).collect();
            plan.forward_inplace(&mut v)?;
            Ok(v.into_iter().map(|e| ring.to_u128(e)).collect())
        }
        let (q, n) = (self.modulus, self.words.len());
        let words = match TwiddleCache::narrow(q, n)? {
            Some(plan) => forward(plan, &self.words)?,
            None => forward(TwiddleCache::barrett128(q, n)?, &self.words)?,
        };
        Ok(Self { modulus: q, words: Arc::new(words) })
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

    /// At a length the vector lanes take, the range check refuses a word
    /// equal to `q`, one above `q` in its high 64 bits only, and a bad word
    /// in the tail, and the error names the first bad index each time.
    #[test]
    fn a_limb_names_the_first_word_out_of_range() {
        let q = cofhee_arith::primes::ntt_prime(109, 64).unwrap();
        let words: Vec<u128> = (0..45).map(|i| q - 1 - i * (q / 45)).collect();
        assert!(Limb::new(q, words.clone()).is_ok());
        let high = ((q >> 64) + 1) << 64;
        for (bad, at) in [(q, 0), (high, 17), (q, 44), (high, 44)] {
            let mut words = words.clone();
            words[at] = bad;
            words[44] = words[44].max(bad);
            assert_eq!(
                Limb::new(q, words),
                Err(CoreError::Poly(PolyError::NonCanonical { index: at, modulus: q })),
                "{bad} at {at}"
            );
        }
    }
}
