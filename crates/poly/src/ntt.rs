//! The Number Theoretic Transform.
//!
//! CoFHEE implements the iterative Cooley–Tukey NTT (Algorithm 1 of the
//! paper): `log n` stages of `n/2` radix-2 butterflies, consuming one
//! twiddle factor per block per stage *sequentially* from the twiddle SRAM
//! — exactly the access pattern the MDMC's address-generation unit
//! produces ("the state machine also handles the incrementation of
//! addresses for both operands and twiddle factors", Section III-B).
//!
//! [`forward_inplace`] / [`inverse_inplace`] are the merged negacyclic
//! transform: powers of the `2n`-th root `ψ` are folded into the twiddle
//! table, so polynomial multiplication needs no separate pre/post scaling
//! passes. This matches the chip's measured cycle counts (Table V shows
//! no standalone `ψ`-scaling pass) and its reuse of one twiddle table for
//! both directions (Section VIII-B).
//!
//! These are the *strict* kernels — every butterfly lands canonical
//! `[0, q)` outputs, the simulator's command semantics. Their role is
//! **fallback + bit-exactness oracle**: production host arithmetic runs
//! [`crate::lazy::HarveyNtt`], which calls in here only for moduli
//! without lazy headroom (`q ≥ 2^126`) and is pinned to these kernels
//! bit for bit by `tests/lazy_parity.rs`; they in turn are pinned to the
//! independent schoolbook [`crate::naive::negacyclic_mul`].
//!
//! The paper's Algorithm 1 pseudocode has minor index-bookkeeping quirks
//! (its block loop runs `j < n/2` with stride `i`, standing for block
//! starts `2j`); we implement the standard iteration it describes and
//! validate against naive negacyclic convolution.

use cofhee_arith::{roots::RootSet, ModRing};

use crate::bitrev::bitrev_permute;
use crate::error::Result;

/// Precomputed twiddle-factor tables for degree-`n` transforms.
///
/// This is the software image of CoFHEE's twiddle SRAM contents plus the
/// `Q`, `N` and `INV_POLYDEG` configuration registers.
#[derive(Debug, Clone)]
pub struct NttTables<R: ModRing> {
    n: usize,
    /// `ψ^{brv(i)}`, the merged forward table, consumed sequentially.
    psis: Vec<R::Elem>,
    psis_aux: Vec<R::Elem>,
    /// `ψ^{-brv(i)}`, the merged inverse table.
    inv_psis: Vec<R::Elem>,
    inv_psis_aux: Vec<R::Elem>,
    /// `n^{-1} mod q` and its prepared form.
    n_inv: R::Elem,
    n_inv_aux: R::Elem,
}

impl<R: ModRing> NttTables<R> {
    /// Builds all tables for degree `n` (a power of two ≥ 2).
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures — in particular when
    /// `q ≢ 1 (mod 2n)`.
    pub fn new(ring: &R, n: usize) -> Result<Self> {
        let roots = RootSet::new(ring, n)?;
        Ok(Self::from_roots(ring, &roots))
    }

    /// Builds tables from an existing [`RootSet`].
    pub fn from_roots(ring: &R, roots: &RootSet<R>) -> Self {
        let n = roots.n;
        // The tables keep only the bit-reversed order the kernels
        // consume sequentially.
        let bitrev_powers = |root: R::Elem| -> Vec<R::Elem> {
            let mut pows = RootSet::powers(ring, root, n);
            bitrev_permute(&mut pows);
            pows
        };
        let psis = bitrev_powers(roots.psi);
        let inv_psis = bitrev_powers(roots.psi_inv);
        let psis_aux = psis.iter().map(|&w| ring.prepare(w)).collect();
        let inv_psis_aux = inv_psis.iter().map(|&w| ring.prepare(w)).collect();
        Self {
            n,
            psis,
            psis_aux,
            inv_psis,
            inv_psis_aux,
            n_inv: roots.n_inv,
            n_inv_aux: ring.prepare(roots.n_inv),
        }
    }

    /// The polynomial degree the tables serve.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// `n^{-1} mod q` (the chip's `INV_POLYDEG` register).
    #[inline]
    pub fn n_inv(&self) -> R::Elem {
        self.n_inv
    }

    /// The merged forward twiddle table (`ψ^{brv(i)}`), as loaded into the
    /// twiddle SRAM.
    #[inline]
    pub fn forward_twiddles(&self) -> &[R::Elem] {
        &self.psis
    }

    /// The merged inverse twiddle table (`ψ^{-brv(i)}`).
    #[inline]
    pub fn inverse_twiddles(&self) -> &[R::Elem] {
        &self.inv_psis
    }
}

fn check_len<R: ModRing>(tables: &NttTables<R>, len: usize) -> Result<()> {
    if len != tables.n {
        return Err(crate::PolyError::LengthMismatch { expected: tables.n, found: len });
    }
    Ok(())
}

/// Forward merged negacyclic NTT, in place.
///
/// Input in natural coefficient order; output in bit-reversed evaluation
/// order. Performs exactly `(n/2)·log₂ n` butterflies — the count behind
/// CoFHEE's NTT cycle numbers in Tables V and XI.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`](crate::PolyError) if `a.len()`
/// differs from the tables' degree.
pub fn forward_inplace<R: ModRing>(
    ring: &R,
    a: &mut [R::Elem],
    tables: &NttTables<R>,
) -> Result<()> {
    check_len(tables, a.len())?;
    let n = tables.n;
    let mut t = n;
    let mut m = 1;
    // Twiddles are consumed sequentially (psis[1], psis[2], …), mirroring
    // the MDMC's `idx++` address generation in Algorithm 1.
    while m < n {
        t /= 2;
        for i in 0..m {
            let w = tables.psis[m + i];
            let w_aux = tables.psis_aux[m + i];
            let j1 = 2 * i * t;
            for j in j1..j1 + t {
                let u = a[j];
                let v = ring.mul_prepared(a[j + t], w, w_aux);
                a[j] = ring.add(u, v);
                a[j + t] = ring.sub(u, v);
            }
        }
        m *= 2;
    }
    Ok(())
}

/// Inverse merged negacyclic NTT (Gentleman–Sande), in place.
///
/// Input in bit-reversed evaluation order; output in natural coefficient
/// order, already scaled by `n^{-1}` (the chip performs the scaling as a
/// separate constant-multiplication pass — see the simulator's cycle
/// model; the arithmetic is identical).
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`](crate::PolyError) on length
/// mismatch.
pub fn inverse_inplace<R: ModRing>(
    ring: &R,
    a: &mut [R::Elem],
    tables: &NttTables<R>,
) -> Result<()> {
    check_len(tables, a.len())?;
    let n = tables.n;
    let mut t = 1;
    let mut m = n;
    while m > 1 {
        let h = m / 2;
        let mut j1 = 0;
        for i in 0..h {
            let w = tables.inv_psis[h + i];
            let w_aux = tables.inv_psis_aux[h + i];
            for j in j1..j1 + t {
                let u = a[j];
                let v = a[j + t];
                a[j] = ring.add(u, v);
                a[j + t] = ring.mul_prepared(ring.sub(u, v), w, w_aux);
            }
            j1 += 2 * t;
        }
        t *= 2;
        m = h;
    }
    for x in a.iter_mut() {
        *x = ring.mul_prepared(*x, tables.n_inv, tables.n_inv_aux);
    }
    Ok(())
}

/// Polynomial multiplication via the merged path the chip executes:
/// 2 forward NTTs, one Hadamard pass, one inverse NTT.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`](crate::PolyError) if operand
/// lengths differ from the tables' degree.
pub fn negacyclic_mul<R: ModRing>(
    ring: &R,
    a: &[R::Elem],
    b: &[R::Elem],
    tables: &NttTables<R>,
) -> Result<Vec<R::Elem>> {
    check_len(tables, a.len())?;
    check_len(tables, b.len())?;
    let mut at = a.to_vec();
    let mut bt = b.to_vec();
    forward_inplace(ring, &mut at, tables)?;
    forward_inplace(ring, &mut bt, tables)?;
    for (x, &w) in at.iter_mut().zip(&bt) {
        *x = ring.mul(*x, w);
    }
    inverse_inplace(ring, &mut at, tables)?;
    Ok(at)
}

/// Counts the butterflies of a degree-`n` transform: `(n/2)·log₂ n`.
///
/// This is the figure the paper's Table XI reports as CoFHEE's NTT clock
/// cycles (53,248 for `n = 2^13`), since the chip retires one butterfly
/// per cycle at II = 1.
///
/// # Examples
///
/// ```
/// use cofhee_poly::ntt::butterfly_count;
///
/// assert_eq!(butterfly_count(1 << 13), 53_248);
/// ```
pub fn butterfly_count(n: usize) -> u64 {
    (n as u64 / 2) * n.trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use cofhee_arith::{primes::ntt_prime, Barrett128, Barrett64};

    const Q55: u64 = 18014398510645249;

    fn ring64() -> Barrett64 {
        Barrett64::new(Q55).unwrap()
    }

    fn rand_poly(ring: &Barrett64, n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ring.from_u128(state as u128)
            })
            .collect()
    }

    #[test]
    fn forward_inverse_round_trip() {
        let ring = ring64();
        for log_n in [1usize, 2, 4, 8, 10] {
            let n = 1 << log_n;
            let tables = NttTables::new(&ring, n).unwrap();
            let original = rand_poly(&ring, n, 0xabc);
            let mut a = original.clone();
            forward_inplace(&ring, &mut a, &tables).unwrap();
            assert_ne!(a, original, "transform must change the data (n={n})");
            inverse_inplace(&ring, &mut a, &tables).unwrap();
            assert_eq!(a, original, "round trip failed for n = {n}");
        }
    }

    #[test]
    fn ntt_mul_matches_naive_convolution() {
        let ring = ring64();
        for n in [2usize, 8, 32, 128] {
            let tables = NttTables::new(&ring, n).unwrap();
            let a = rand_poly(&ring, n, 3);
            let b = rand_poly(&ring, n, 4);
            let via_ntt = negacyclic_mul(&ring, &a, &b, &tables).unwrap();
            let via_naive = naive::negacyclic_mul(&ring, &a, &b).unwrap();
            assert_eq!(via_ntt, via_naive, "NTT != naive at n = {n}");
        }
    }

    #[test]
    fn works_at_chip_scale_128bit() {
        // CoFHEE native width: 109-bit prime, n = 2^10 (kept small for test
        // speed; integration tests cover 2^12/2^13).
        let n = 1 << 10;
        let q = ntt_prime(109, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        let tables = NttTables::new(&ring, n).unwrap();
        let mut state = 0x1234_5678_9abc_def0u128;
        let a: Vec<u128> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
                ring.from_u128(state)
            })
            .collect();
        let mut t = a.clone();
        forward_inplace(&ring, &mut t, &tables).unwrap();
        inverse_inplace(&ring, &mut t, &tables).unwrap();
        assert_eq!(t, a);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let ring = ring64();
        let tables = NttTables::new(&ring, 8).unwrap();
        let mut wrong = vec![0u64; 4];
        assert!(forward_inplace(&ring, &mut wrong, &tables).is_err());
        assert!(inverse_inplace(&ring, &mut wrong, &tables).is_err());
        assert!(negacyclic_mul(&ring, &wrong, &wrong, &tables).is_err());
    }

    #[test]
    fn butterfly_counts_match_paper() {
        assert_eq!(butterfly_count(1 << 12), 24_576);
        assert_eq!(butterfly_count(1 << 13), 53_248); // Table XI clock cycles
        assert_eq!(butterfly_count(1 << 14), 114_688);
    }

    #[test]
    fn multiplication_by_one_is_identity() {
        let ring = ring64();
        let n = 16;
        let tables = NttTables::new(&ring, n).unwrap();
        let a = rand_poly(&ring, n, 11);
        let mut one = vec![0u64; n];
        one[0] = 1;
        assert_eq!(negacyclic_mul(&ring, &a, &one, &tables).unwrap(), a);
    }

    #[test]
    fn x_to_the_n_wraps_negatively() {
        // x^{n-1} · x = x^n ≡ -1 (mod x^n + 1).
        let ring = ring64();
        let n = 8;
        let tables = NttTables::new(&ring, n).unwrap();
        let mut xn1 = vec![0u64; n];
        xn1[n - 1] = 1;
        let mut x = vec![0u64; n];
        x[1] = 1;
        let prod = negacyclic_mul(&ring, &xn1, &x, &tables).unwrap();
        let mut expect = vec![0u64; n];
        expect[0] = Q55 - 1; // -1 mod q
        assert_eq!(prod, expect);
    }
}
