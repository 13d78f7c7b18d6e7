//! Roots of unity and the twiddle-factor scalars the NTT consumes.
//!
//! The negacyclic NTT over `Z_q[x]/(x^n + 1)` needs a primitive `2n`-th
//! root of unity `ψ` (so that `ψ^n ≡ -1 (mod q)`); the transform itself
//! runs on `ω = ψ²`, a primitive `n`-th root. CoFHEE stores these twiddle
//! factors in a dedicated single-port SRAM and, notably, uses the *same*
//! table for forward and inverse transforms by combining MDMC and DMA
//! operations (Section VIII-B "Lessons Learned").

use crate::error::{ArithError, Result};
use crate::ring::ModRing;

/// Finds a primitive `2n`-th root of unity `ψ` modulo the ring's prime `q`.
///
/// Requires `q ≡ 1 (mod 2n)` and prime `q`. The search walks candidate
/// bases `x = 2, 3, ...`, computes `c = x^((q-1)/2n)` and accepts when
/// `c^n ≡ -1`, which certifies both the order and primitivity — no
/// factorization of `q - 1` needed.
///
/// # Errors
///
/// * [`ArithError::InvalidDegree`] if `n` is not a power of two.
/// * [`ArithError::NoPrimitiveRoot`] if `q ≢ 1 (mod 2n)` or the search
///   exhausts its candidate budget (does not happen for prime `q`).
///
/// # Examples
///
/// ```
/// use cofhee_arith::{Barrett64, ModRing, roots::primitive_2n_root};
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let ring = Barrett64::new(18014398510645249)?; // 55-bit, q ≡ 1 mod 2^14
/// let n = 1 << 13;
/// let psi = primitive_2n_root(&ring, n)?;
/// assert_eq!(ring.pow(psi, n as u128), ring.from_u128(ring.modulus() - 1));
/// # Ok(())
/// # }
/// ```
pub fn primitive_2n_root<R: ModRing>(ring: &R, n: usize) -> Result<R::Elem> {
    if !n.is_power_of_two() || n < 2 {
        return Err(ArithError::InvalidDegree { n });
    }
    let q = ring.modulus();
    let two_n = 2 * n as u128;
    if (q - 1) % two_n != 0 {
        return Err(ArithError::NoPrimitiveRoot { order: two_n, modulus: q });
    }
    let exp = (q - 1) / two_n;
    let minus_one = ring.from_u128(q - 1);
    for x in 2u128..4096 {
        let c = ring.pow(ring.from_u128(x), exp);
        if ring.pow(c, n as u128) == minus_one {
            return Ok(c);
        }
    }
    Err(ArithError::NoPrimitiveRoot { order: two_n, modulus: q })
}

/// The scalar constants an NTT engine needs for degree `n`.
///
/// This is the software equivalent of the values a host writes into
/// CoFHEE's `Q`, `N` and `INV_POLYDEG` configuration registers plus the
/// twiddle SRAM contents.
#[derive(Debug, Clone)]
pub struct RootSet<R: ModRing> {
    /// Polynomial degree (power of two).
    pub n: usize,
    /// Primitive `2n`-th root of unity, `ψ`.
    pub psi: R::Elem,
    /// `ψ^{-1} mod q`.
    pub psi_inv: R::Elem,
    /// Primitive `n`-th root of unity, `ω = ψ²`.
    pub omega: R::Elem,
    /// `ω^{-1} mod q`.
    pub omega_inv: R::Elem,
    /// `n^{-1} mod q` — the chip's `INV_POLYDEG` register.
    pub n_inv: R::Elem,
}

impl<R: ModRing> RootSet<R> {
    /// Derives the full root set for degree `n` in the given ring.
    ///
    /// # Errors
    ///
    /// Propagates [`primitive_2n_root`]'s errors; additionally fails if `n`
    /// is not invertible (impossible for prime `q > n`).
    pub fn new(ring: &R, n: usize) -> Result<Self> {
        let psi = primitive_2n_root(ring, n)?;
        let psi_inv = ring.inv(psi)?;
        let omega = ring.sqr(psi);
        let omega_inv = ring.inv(omega)?;
        let n_inv = ring.inv(ring.from_u128(n as u128))?;
        Ok(Self { n, psi, psi_inv, omega, omega_inv, n_inv })
    }

    /// Returns the powers `base^0, base^1, …, base^{count-1}`.
    pub fn powers(ring: &R, base: R::Elem, count: usize) -> Vec<R::Elem> {
        let mut out = Vec::with_capacity(count);
        let mut acc = ring.one();
        for _ in 0..count {
            out.push(acc);
            acc = ring.mul(acc, base);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrett::{Barrett128, Barrett64};

    const Q55: u64 = 18014398510645249; // ≡ 1 mod 2^14
    const Q109: u128 = 324518553658426726783156020805633; // ≡ 1 mod 2^14

    #[test]
    fn psi_has_exact_order_2n() {
        let ring = Barrett64::new(Q55).unwrap();
        for log_n in [2usize, 8, 12, 13] {
            let n = 1 << log_n;
            let psi = primitive_2n_root(&ring, n).unwrap();
            assert_eq!(ring.pow(psi, 2 * n as u128), 1, "ψ^2n = 1");
            assert_eq!(ring.to_u128(ring.pow(psi, n as u128)), Q55 as u128 - 1, "ψ^n = -1");
        }
    }

    #[test]
    fn rejects_unsupported_orders() {
        let ring = Barrett64::new(Q55).unwrap();
        // Q55 - 1 = 2^14 · k with odd-ish k: order 2^15 requires q ≡ 1 mod 2^15.
        assert!(matches!(
            primitive_2n_root(&ring, 1 << 14),
            Err(ArithError::NoPrimitiveRoot { .. })
        ));
        assert!(matches!(primitive_2n_root(&ring, 3), Err(ArithError::InvalidDegree { n: 3 })));
    }

    #[test]
    fn root_set_identities_hold_128() {
        let ring = Barrett128::new(Q109).unwrap();
        let n = 1usize << 13;
        let rs = RootSet::new(&ring, n).unwrap();
        assert_eq!(ring.mul(rs.psi, rs.psi_inv), 1);
        assert_eq!(ring.mul(rs.omega, rs.omega_inv), 1);
        assert_eq!(ring.mul(rs.n_inv, ring.from_u128(n as u128)), 1);
        assert_eq!(rs.omega, ring.sqr(rs.psi));
        // ω has order exactly n.
        assert_eq!(ring.pow(rs.omega, n as u128), 1);
        assert_ne!(ring.pow(rs.omega, n as u128 / 2), 1);
    }

    #[test]
    fn powers_table_is_geometric() {
        let ring = Barrett64::new(Q55).unwrap();
        let rs = RootSet::new(&ring, 16).unwrap();
        let pw = RootSet::powers(&ring, rs.omega, 16);
        assert_eq!(pw.len(), 16);
        assert_eq!(pw[0], 1);
        for i in 1..16 {
            assert_eq!(pw[i], ring.mul(pw[i - 1], rs.omega));
        }
    }
}
