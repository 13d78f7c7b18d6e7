//! Schoolbook polynomial arithmetic — the `O(n²)` baseline.
//!
//! The paper motivates NTT hardware by the quadratic cost of naive
//! polynomial multiplication (Section II-C). This module is that naive
//! algorithm: the **independent oracle** (no roots, no tables, no
//! butterflies) the strict [`crate::ntt`] kernels are pinned to, and the
//! slow baseline in the `O(n²)` vs `O(n log n)` benches.

use cofhee_arith::ModRing;

use crate::error::{PolyError, Result};

/// Naive negacyclic multiplication in `Z_q[x]/(x^n + 1)`.
///
/// `c[k] = Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+n} a_i·b_j (mod q)` — products
/// whose exponent wraps past `n` re-enter with a sign flip because
/// `x^n ≡ −1`.
///
/// # Errors
///
/// Returns [`PolyError::DegreeMismatch`] when operand lengths differ.
#[allow(clippy::needless_range_loop)] // i + j drives the wraparound index k
pub fn negacyclic_mul<R: ModRing>(ring: &R, a: &[R::Elem], b: &[R::Elem]) -> Result<Vec<R::Elem>> {
    if a.len() != b.len() {
        return Err(PolyError::DegreeMismatch { left: a.len(), right: b.len() });
    }
    let n = a.len();
    let mut c = vec![ring.zero(); n];
    for i in 0..n {
        for j in 0..n {
            let prod = ring.mul(a[i], b[j]);
            let k = i + j;
            if k < n {
                c[k] = ring.add(c[k], prod);
            } else {
                c[k - n] = ring.sub(c[k - n], prod);
            }
        }
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::Barrett64;

    const Q: u64 = 12289; // 12289 = 3·2^12 + 1, the classic NTT prime

    #[test]
    fn negacyclic_wraps_with_sign() {
        let ring = Barrett64::new(Q).unwrap();
        // (x) · (x^3) in Z_q[x]/(x^4+1) = x^4 = -1.
        let a = vec![0, 1, 0, 0];
        let b = vec![0, 0, 0, 1];
        let c = negacyclic_mul(&ring, &a, &b).unwrap();
        assert_eq!(c, vec![Q - 1, 0, 0, 0]);
    }

    #[test]
    fn constant_multiplication() {
        let ring = Barrett64::new(Q).unwrap();
        let a = vec![3, 5, 7, 11];
        let two = vec![2, 0, 0, 0];
        assert_eq!(negacyclic_mul(&ring, &a, &two).unwrap(), vec![6, 10, 14, 22]);
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let ring = Barrett64::new(Q).unwrap();
        assert!(negacyclic_mul(&ring, &[1, 2], &[1]).is_err());
    }
}
