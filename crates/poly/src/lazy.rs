//! The Harvey lazy-reduction NTT hot path.
//!
//! [`crate::ntt`] implements the *strict* kernels: every butterfly
//! lands its outputs in canonical `[0, q)` form, exactly as the chip's
//! per-butterfly Barrett pipeline does. That is the right reference
//! semantics — and the wrong software hot path: the canonical
//! correction is pure overhead until the very last stage.
//!
//! [`HarveyNtt`] is the one transform kernel production host code runs:
//! the CPU backend every limb engine replays its streams on — the
//! evaluators', and the key generators', encryptors' and decryptors' of
//! both schemes — and the simulator's functional fast path:
//!
//! * **Lazy reduction** — coefficients live in a redundant range
//!   across all `log n` stages instead of being canonically reduced
//!   per butterfly: the forward transform runs Harvey's original
//!   `[0, 4q)` formulation (one fold of `2q` per butterfly), the
//!   inverse keeps `[0, 2q)`, and the canonical correction happens once,
//!   inside the last pass. Each butterfly pays one Shoup high-multiply
//!   ([`LazyRing::mul_lazy`]) and at most one conditional subtraction.
//!   On the 128-bit native width this also replaces the strict path's
//!   full Barrett reduction per butterfly with one 128×128 high product.
//! * **Precomputed Shoup twiddles** — one [`ShoupMul`] pair per
//!   twiddle, derived once at table-build time (and shared process-wide
//!   through [`crate::cache::TwiddleCache`]).
//! * **Two stages per pass** — a block's four quarters meet in
//!   registers and go through stage `m` and stage `2m` before they are
//!   stored, so the data crosses the memory system `⌈log n / 2⌉` times,
//!   not `log n` (plus a radix-2 opening pass when `log n` is odd). The
//!   same butterflies in the same order per word as one stage per pass:
//!   `[0, 4q)` in and out of a forward pass, `[0, 2q)` of an inverse one.
//!   The inverse's closing butterflies multiply by `n⁻¹` as well, so
//!   neither direction has a separate correction or scaling sweep.
//! * **Scalar, bounds-check-free, and no data-dependent branch in the
//!   forward butterfly** — stages iterate with `chunks_exact_mut` +
//!   `split_at_mut`, so the compiler proves every access in range. The
//!   loops are scalar on purpose: the baseline x86-64 target has no
//!   64-bit vector multiply or unsigned minimum, and where LLVM
//!   vectorizes anyway the loop runs at half speed. The forward fold
//!   ([`LazyRing::fold_2q`]) is a `min`, not an `if`: it sits on the
//!   butterfly's critical path, where the compiler turns an `if` into a
//!   jump that random coefficients mispredict every other time
//!   (docs/PERFORMANCE.md § 1 has the numbers).
//! * **Vector lanes** — for a word modulus below `2^50` and `n ≥ 16`, on
//!   a host that reports `avx512f` and `avx512ifma`, the same lazy
//!   butterflies and the Hadamard products run eight to an instruction in
//!   `crate::ifma` instead of the scalar stages: decided once, in
//!   [`HarveyNtt::new`], and named by [`HarveyNtt::kernel`]. The scalar
//!   stages stay the portable path and, with the strict kernels, the
//!   oracle the lanes are pinned to bit for bit.
//! * **Fused passes** — [`HarveyNtt::poly_mul`] runs the whole
//!   Algorithm 2 schedule with no pass beyond its three transforms and
//!   one product, and [`HarveyNtt::hadamard_intt`] fuses the NTT-domain
//!   product into the inverse transform (the `intt ∘ hadamard` tail of every
//!   tensor limb). NTT-domain accumulation stays pointwise: the
//!   [`pointwise`] kernels on the plan's ring.
//!
//! Every kernel is **bit-exact** with its strict counterpart (the
//! strict kernels remain the proptest oracle — see
//! `crates/poly/tests/lazy_parity.rs`): lazy values are congruent mod
//! `q` at every stage, so the final correction reproduces the canonical
//! result the strict path computes directly.
//!
//! Moduli without two bits of container headroom
//! ([`LazyRing::lazy_capable`] is false, i.e. `q ≥ 2^126` on the wide
//! engine) transparently fall back to the strict kernels.

use cofhee_arith::{LazyRing, ShoupMul};

use crate::error::{PolyError, Result};
use crate::ifma::Lanes;
use crate::ntt::{self, NttTables};
use crate::pointwise;

/// Precomputed lazy-reduction transform plan for one `(q, n)` pair.
///
/// Holds the Shoup-paired twiddle tables for both directions, the
/// prepared `n⁻¹`, and the strict [`NttTables`] — the no-headroom
/// fallback's operands and the twiddle-SRAM image the simulator loads
/// and checks its banks against.
#[derive(Debug, Clone)]
pub struct HarveyNtt<R: LazyRing> {
    ring: R,
    n: usize,
    /// Whether the lazy kernels are usable (`4q` fits the container).
    lazy: bool,
    /// `ψ^{brv(i)}` with Shoup quotients, consumed sequentially.
    fwd: Vec<ShoupMul<R::Elem>>,
    /// `ψ^{-brv(i)}` with Shoup quotients.
    inv: Vec<ShoupMul<R::Elem>>,
    /// `n⁻¹ mod q`, prepared.
    n_inv: ShoupMul<R::Elem>,
    /// `ψ^{-brv(1)} · n⁻¹`: the last inverse stage's twiddle, scaled.
    last_n_inv: ShoupMul<R::Elem>,
    /// The strict tables (fallback + oracle + twiddle-SRAM image).
    strict: NttTables<R>,
    /// The vector lanes, for a word modulus below `2^50` and `n ≥ 16` on
    /// a host that has them; the transforms run there instead of the
    /// scalar stages.
    lanes: Option<Lanes<R::Elem>>,
}

impl<R: LazyRing> HarveyNtt<R> {
    /// Builds the plan for degree `n` (a power of two ≥ 2).
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures (`q ≢ 1 (mod 2n)`).
    pub fn new(ring: &R, n: usize) -> Result<Self> {
        let strict = NttTables::new(ring, n)?;
        let lazy = ring.lazy_capable();
        let (fwd, inv, n_inv, last_n_inv) = if lazy {
            (
                strict.forward_twiddles().iter().map(|&w| ring.shoup(w)).collect(),
                strict.inverse_twiddles().iter().map(|&w| ring.shoup(w)).collect(),
                ring.shoup(strict.n_inv()),
                ring.shoup(ring.mul(strict.inverse_twiddles()[1], strict.n_inv())),
            )
        } else {
            (Vec::new(), Vec::new(), ShoupMul::default(), ShoupMul::default())
        };
        let lanes = if lazy { Lanes::new(ring.modulus(), n) } else { None };
        Ok(Self { ring: ring.clone(), n, lazy, fwd, inv, n_inv, last_n_inv, strict, lanes })
    }

    /// The ring engine the plan was built for.
    #[inline]
    pub fn ring(&self) -> &R {
        &self.ring
    }

    /// The polynomial degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the lazy kernels are active (false ⇒ strict fallback).
    #[inline]
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// The strict reference tables (the proptest oracle's inputs).
    #[inline]
    pub fn tables(&self) -> &NttTables<R> {
        &self.strict
    }

    /// The kernel the transforms run on: `"avx512ifma"` (the vector
    /// lanes), `"scalar"` (the lazy stages) or `"strict"` (the
    /// no-headroom fallback).
    pub fn kernel(&self) -> &'static str {
        match (self.lazy, self.lanes.is_some()) {
            (_, true) => "avx512ifma",
            (true, false) => "scalar",
            (false, false) => "strict",
        }
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(PolyError::LengthMismatch { expected: self.n, found: len });
        }
        Ok(())
    }

    /// The forward transform, `[0, 4q)` in, canonical out: the `log n`
    /// Cooley–Tukey stages in Harvey's original `[0, 4q)` formulation,
    /// two stages per pass over the data (one radix-2 opening pass when
    /// `log n` is odd), the canonical correction folded into the last.
    pub(crate) fn forward_stages(&self, a: &mut [R::Elem]) {
        let ring = &self.ring;
        let n = self.n;
        let correct = |x| ring.reduce_once(ring.fold_2q(x));
        if n == 2 {
            let (x, y) = ct_butterfly(ring, a[0], a[1], &self.fwd[1]);
            (a[0], a[1]) = (correct(x), correct(y));
            return;
        }
        let mut m = 1;
        if n.trailing_zeros() % 2 == 1 {
            // Two butterflies an iteration, over quarters as every later
            // pass walks them: the plain loop over halves is the one shape
            // here LLVM auto-vectorizes, into SSE2's emulated 64-bit
            // multiply and minimum, at twice the scalar cost.
            let w = &self.fwd[1];
            for [x0, x1, x2, x3] in quarters(a) {
                (*x0, *x2) = ct_butterfly(ring, *x0, *x2, w);
                (*x1, *x3) = ct_butterfly(ring, *x1, *x3, w);
            }
            m = 2;
        }
        // Stage `m` (twiddles fwd[m..2m], one per block, consumed
        // sequentially — the MDMC's `idx++` access pattern) and stage
        // `2m` (two per block) in one pass: a block's four quarters meet
        // in registers, so the data crosses the memory system once per
        // two stages.
        while 4 * m < n {
            let twiddles = self.fwd[m..2 * m].iter().zip(self.fwd[2 * m..4 * m].chunks_exact(2));
            for (block, (w1, w23)) in a.chunks_exact_mut(n / m).zip(twiddles) {
                for [x0, x1, x2, x3] in quarters(block) {
                    [*x0, *x1, *x2, *x3] =
                        butterfly4(ring, [*x0, *x1, *x2, *x3], w1, &w23[0], &w23[1]);
                }
            }
            m *= 4;
        }
        // The last two stages: blocks of four adjacent words, each with
        // its own three twiddles, corrected `[0, 4q) → [0, q)` on the way
        // out.
        let twiddles = self.fwd[m..2 * m].iter().zip(self.fwd[2 * m..4 * m].chunks_exact(2));
        for (block, (w1, w23)) in a.chunks_exact_mut(4).zip(twiddles) {
            let x =
                butterfly4(ring, [block[0], block[1], block[2], block[3]], w1, &w23[0], &w23[1]);
            block.iter_mut().zip(x).for_each(|(dst, x)| *dst = correct(x));
        }
    }

    /// The inverse transform with its `n⁻¹` scaling, `[0, 2q)` in,
    /// canonical out: the `log n` Gentleman–Sande stages two per pass
    /// (one radix-2 opening pass when `log n` is odd); the closing
    /// butterflies multiply both sides — by `n⁻¹` and by the last twiddle
    /// times `n⁻¹` — and correct, so no scaling pass follows.
    pub(crate) fn inverse_stages(&self, a: &mut [R::Elem]) {
        let ring = &self.ring;
        let n = self.n;
        let close = |u: R::Elem, v: R::Elem| {
            (
                ring.reduce_once(ring.mul_lazy(ring.add_raw(u, v), &self.n_inv)),
                ring.reduce_once(ring.mul_lazy(ring.sub_raw(u, v), &self.last_n_inv)),
            )
        };
        if n == 2 {
            (a[0], a[1]) = close(a[0], a[1]);
            return;
        }
        let mut t = 1;
        if n.trailing_zeros() % 2 == 1 {
            for (pair, w) in a.chunks_exact_mut(2).zip(&self.inv[n / 2..]) {
                (pair[0], pair[1]) = gs_butterfly(ring, pair[0], pair[1], w);
            }
            t = 2;
        }
        // Stage `t` (two twiddles per block of `4t`) and stage `2t` (one)
        // in one pass, the mirror image of the forward pairing.
        while 4 * t < n {
            let h = n / (4 * t);
            let twiddles = self.inv[2 * h..4 * h].chunks_exact(2).zip(&self.inv[h..2 * h]);
            for (block, (w01, w2)) in a.chunks_exact_mut(4 * t).zip(twiddles) {
                for [x0, x1, x2, x3] in quarters(block) {
                    let (a0, a1) = gs_butterfly(ring, *x0, *x1, &w01[0]);
                    let (a2, a3) = gs_butterfly(ring, *x2, *x3, &w01[1]);
                    (*x0, *x2) = gs_butterfly(ring, a0, a2, w2);
                    (*x1, *x3) = gs_butterfly(ring, a1, a3, w2);
                }
            }
            t *= 4;
        }
        // The last two stages: the whole array is one block.
        for [x0, x1, x2, x3] in quarters(a) {
            let (a0, a1) = gs_butterfly(ring, *x0, *x1, &self.inv[2]);
            let (a2, a3) = gs_butterfly(ring, *x2, *x3, &self.inv[3]);
            (*x0, *x2) = close(a0, a2);
            (*x1, *x3) = close(a1, a3);
        }
    }

    /// The lazy forward transform on the lanes or the scalar stages.
    fn forward_lazy(&self, a: &mut [R::Elem]) {
        match &self.lanes {
            Some(lanes) => lanes.forward(a, &self.fwd),
            None => self.forward_stages(a),
        }
    }

    /// The lazy inverse transform on the lanes or the scalar stages.
    fn inverse_lazy(&self, a: &mut [R::Elem]) {
        match &self.lanes {
            Some(lanes) => lanes.inverse(a, &self.inv, &self.n_inv, &self.last_n_inv),
            None => self.inverse_stages(a),
        }
    }

    /// Forward negacyclic NTT, in place — bit-exact with
    /// [`ntt::forward_inplace`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] on wrong slice length.
    pub fn forward_inplace(&self, a: &mut [R::Elem]) -> Result<()> {
        self.check_len(a.len())?;
        if !self.lazy {
            return ntt::forward_inplace(&self.ring, a, &self.strict);
        }
        self.forward_lazy(a);
        Ok(())
    }

    /// Inverse negacyclic NTT (with `n⁻¹` scaling), in place —
    /// bit-exact with [`ntt::inverse_inplace`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] on wrong slice length.
    pub fn inverse_inplace(&self, a: &mut [R::Elem]) -> Result<()> {
        self.check_len(a.len())?;
        if !self.lazy {
            return ntt::inverse_inplace(&self.ring, a, &self.strict);
        }
        self.inverse_lazy(a);
        Ok(())
    }

    /// Full negacyclic product (Algorithm 2: 2 NTTs, Hadamard, iNTT) in
    /// four passes' worth of kernels: each transform corrects or scales
    /// inside its own last pass, so nothing sweeps the data between them.
    /// Bit-exact with [`ntt::negacyclic_mul`].
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] on operand length
    /// mismatch.
    pub fn poly_mul(&self, a: &[R::Elem], b: &[R::Elem]) -> Result<Vec<R::Elem>> {
        self.check_len(a.len())?;
        self.check_len(b.len())?;
        if !self.lazy {
            return ntt::negacyclic_mul(&self.ring, a, b, &self.strict);
        }
        let mut at = a.to_vec();
        let mut bt = b.to_vec();
        self.forward_lazy(&mut at);
        self.forward_lazy(&mut bt);
        // The canonical product (already in [0, 2q)) feeds the inverse
        // stages directly.
        pointwise::mul_assign(&self.ring, &mut at, &bt)?;
        self.inverse_lazy(&mut at);
        Ok(at)
    }

    /// Fused `intt ∘ hadamard`: pointwise product of two NTT-domain
    /// polynomials flowing straight into the inverse stages, one
    /// allocation, no intermediate correction pass. Bit-exact with
    /// Hadamard-then-iNTT through the strict kernels.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] on operand length
    /// mismatch.
    pub fn hadamard_intt(&self, x: &[R::Elem], y: &[R::Elem]) -> Result<Vec<R::Elem>> {
        let mut out = vec![R::Elem::default(); self.n];
        self.hadamard_intt_into(x, y, &mut out)?;
        Ok(out)
    }

    /// Allocation-free [`HarveyNtt::hadamard_intt`]: the pointwise
    /// product of the NTT-domain operands `x`, `y` flows through the
    /// inverse stages into `out`, which must already have length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] if any slice is not
    /// length `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cofhee_arith::Barrett64;
    /// use cofhee_poly::HarveyNtt;
    ///
    /// # fn main() -> Result<(), cofhee_poly::PolyError> {
    /// let ring = Barrett64::new(0x7e00001)?;
    /// let plan = HarveyNtt::new(&ring, 8)?;
    /// let mut fa = vec![3u64; 8];
    /// let mut fb = vec![5u64; 8];
    /// plan.forward_inplace(&mut fa)?;
    /// plan.forward_inplace(&mut fb)?;
    /// let mut out = vec![0u64; 8];
    /// plan.hadamard_intt_into(&fa, &fb, &mut out)?;
    /// assert_eq!(out, plan.hadamard_intt(&fa, &fb)?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn hadamard_intt_into(
        &self,
        x: &[R::Elem],
        y: &[R::Elem],
        out: &mut [R::Elem],
    ) -> Result<()> {
        self.check_len(x.len())?;
        self.check_len(y.len())?;
        self.check_len(out.len())?;
        let ring = &self.ring;
        match &self.lanes {
            Some(lanes) => lanes.mul_into(out, x, y, None),
            None => out.iter_mut().zip(x).zip(y).for_each(|((o, &a), &b)| *o = ring.mul(a, b)),
        }
        if !self.lazy {
            return ntt::inverse_inplace(ring, out, &self.strict);
        }
        self.inverse_lazy(out);
        Ok(())
    }
}

/// The four quarters of `block`, walked in step.
#[inline(always)]
pub(crate) fn quarters<E>(block: &mut [E]) -> impl Iterator<Item = [&mut E; 4]> {
    let (lo, hi) = block.split_at_mut(block.len() / 2);
    let (x0, x1) = lo.split_at_mut(lo.len() / 2);
    let (x2, x3) = hi.split_at_mut(hi.len() / 2);
    x0.iter_mut().zip(x1).zip(x2).zip(x3).map(|(((x0, x1), x2), x3)| [x0, x1, x2, x3])
}

/// One Cooley–Tukey butterfly on `[0, 4q)` operands: folds only its
/// add-side operand back below `2q`, multiplies the other side lazily
/// (Harvey's lemma absorbs the unfolded `[0, 4q)` operand), and emits
/// both outputs uncorrected, in `[0, 4q)` again.
#[inline(always)]
fn ct_butterfly<R: LazyRing>(
    ring: &R,
    x: R::Elem,
    y: R::Elem,
    w: &ShoupMul<R::Elem>,
) -> (R::Elem, R::Elem) {
    let u = ring.fold_2q(x);
    let v = ring.mul_lazy(y, w);
    (ring.add_raw(u, v), ring.sub_raw(u, v))
}

/// One Gentleman–Sande butterfly, `[0, 2q)` in and out. The subtract
/// side feeds `u − v + 2q` into the Shoup multiply uncorrected — Harvey's
/// lemma absorbs the `[0, 4q)` operand.
#[inline(always)]
fn gs_butterfly<R: LazyRing>(
    ring: &R,
    u: R::Elem,
    v: R::Elem,
    w: &ShoupMul<R::Elem>,
) -> (R::Elem, R::Elem) {
    (ring.add_lazy(u, v), ring.mul_lazy(ring.sub_raw(u, v), w))
}

/// Two Cooley–Tukey stages on the four quarters of one block: `w1`
/// pairs quarter 0 with 2 and 1 with 3, then `w2` pairs 0 with 1 and
/// `w3` pairs 2 with 3. The same four butterflies the two stages would
/// run a pass apart, so `[0, 4q)` in and out and the same words bit for
/// bit.
#[inline(always)]
fn butterfly4<R: LazyRing>(
    ring: &R,
    x: [R::Elem; 4],
    w1: &ShoupMul<R::Elem>,
    w2: &ShoupMul<R::Elem>,
    w3: &ShoupMul<R::Elem>,
) -> [R::Elem; 4] {
    let (a0, a2) = ct_butterfly(ring, x[0], x[2], w1);
    let (a1, a3) = ct_butterfly(ring, x[1], x[3], w1);
    let (b0, b1) = ct_butterfly(ring, a0, a1, w2);
    let (b2, b3) = ct_butterfly(ring, a2, a3, w3);
    [b0, b1, b2, b3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::{primes::ntt_prime, Barrett128, Barrett64};

    const Q55: u64 = 18014398510645249;

    fn ring64() -> Barrett64 {
        Barrett64::new(Q55).unwrap()
    }

    fn rand_poly(q: u128, n: usize, seed: u128) -> Vec<u128> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
                state % q
            })
            .collect()
    }

    fn rand_poly64(n: usize, seed: u64) -> Vec<u64> {
        rand_poly(Q55 as u128, n, seed as u128).into_iter().map(|c| c as u64).collect()
    }

    #[test]
    fn lazy_forward_matches_strict_64() {
        let ring = ring64();
        for log_n in [1usize, 3, 6, 10] {
            let n = 1 << log_n;
            let plan = HarveyNtt::new(&ring, n).unwrap();
            assert!(plan.is_lazy());
            let a = rand_poly64(n, 0x5eed);
            let mut lazy = a.clone();
            plan.forward_inplace(&mut lazy).unwrap();
            let mut strict = a.clone();
            ntt::forward_inplace(&ring, &mut strict, plan.tables()).unwrap();
            assert_eq!(lazy, strict, "n = {n}");
            plan.inverse_inplace(&mut lazy).unwrap();
            assert_eq!(lazy, a, "round trip, n = {n}");
        }
    }

    #[test]
    fn lazy_kernels_match_strict_128() {
        let n = 1 << 8;
        let q = ntt_prime(109, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        let plan = HarveyNtt::new(&ring, n).unwrap();
        assert!(plan.is_lazy());
        let a = rand_poly(q, n, 17);
        let b = rand_poly(q, n, 23);
        let lazy = plan.poly_mul(&a, &b).unwrap();
        let strict = ntt::negacyclic_mul(&ring, &a, &b, plan.tables()).unwrap();
        assert_eq!(lazy, strict);
    }

    #[test]
    fn fused_hadamard_intt_matches_unfused() {
        let ring = ring64();
        let n = 128;
        let plan = HarveyNtt::new(&ring, n).unwrap();
        let mut fa = rand_poly64(n, 3);
        let mut fb = rand_poly64(n, 5);
        plan.forward_inplace(&mut fa).unwrap();
        plan.forward_inplace(&mut fb).unwrap();
        let fused = plan.hadamard_intt(&fa, &fb).unwrap();
        let mut unfused = fa.clone();
        crate::pointwise::mul_assign(&ring, &mut unfused, &fb).unwrap();
        ntt::inverse_inplace(&ring, &mut unfused, plan.tables()).unwrap();
        assert_eq!(fused, unfused);
    }

    #[test]
    fn no_headroom_modulus_falls_back_to_strict() {
        // A 127-bit modulus leaves no lazy headroom; the plan must
        // still produce correct (strict-path) results.
        let n = 1 << 4;
        let q = ntt_prime(127, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        let plan = HarveyNtt::new(&ring, n).unwrap();
        assert!(!plan.is_lazy());
        let a = rand_poly(q, n, 7);
        let mut t = a.clone();
        plan.forward_inplace(&mut t).unwrap();
        plan.inverse_inplace(&mut t).unwrap();
        assert_eq!(t, a);
        let prod = plan.poly_mul(&a, &a).unwrap();
        let strict = ntt::negacyclic_mul(&ring, &a, &a, plan.tables()).unwrap();
        assert_eq!(prod, strict);
    }

    #[test]
    fn overflow_edge_near_2_62() {
        // The worst-case Barrett64 headroom: a 62-bit prime, where 4q
        // nearly fills the u64 container. Lazy must stay bit-exact.
        let n = 1 << 6;
        let q = ntt_prime(62, n).unwrap();
        assert!(q >> 61 == 1, "want a full 62-bit prime, got {q:#x}");
        let ring = Barrett64::new(q as u64).unwrap();
        let plan = HarveyNtt::new(&ring, n).unwrap();
        assert!(plan.is_lazy());
        // Max-entropy operands near q.
        let a: Vec<u64> = (0..n as u64).map(|i| (q as u64) - 1 - i).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (q as u64) - 1 - 2 * i).collect();
        let lazy = plan.poly_mul(&a, &b).unwrap();
        let strict = ntt::negacyclic_mul(&ring, &a, &b, plan.tables()).unwrap();
        assert_eq!(lazy, strict);
        let mut t = a.clone();
        plan.forward_inplace(&mut t).unwrap();
        let mut s = a.clone();
        ntt::forward_inplace(&ring, &mut s, plan.tables()).unwrap();
        assert_eq!(t, s);
    }

    #[test]
    fn into_variants_match_allocating_paths() {
        let ring = ring64();
        let n = 64;
        let plan = HarveyNtt::new(&ring, n).unwrap();
        let a = rand_poly64(n, 41);
        let b = rand_poly64(n, 43);
        let mut out = vec![0u64; n];
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward_inplace(&mut fa).unwrap();
        plan.forward_inplace(&mut fb).unwrap();
        plan.hadamard_intt_into(&fa, &fb, &mut out).unwrap();
        assert_eq!(out, plan.hadamard_intt(&fa, &fb).unwrap());
    }

    #[test]
    fn into_variants_match_on_strict_fallback() {
        // 127-bit modulus: no lazy headroom, the _into paths must route
        // through the strict kernels and still be allocation-shaped.
        let n = 1 << 4;
        let q = ntt_prime(127, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        let plan = HarveyNtt::new(&ring, n).unwrap();
        assert!(!plan.is_lazy());
        let a = rand_poly(q, n, 19);
        let b = rand_poly(q, n, 29);
        let mut out = vec![0u128; n];
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward_inplace(&mut fa).unwrap();
        plan.forward_inplace(&mut fb).unwrap();
        plan.hadamard_intt_into(&fa, &fb, &mut out).unwrap();
        assert_eq!(out, plan.hadamard_intt(&fa, &fb).unwrap());
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let ring = ring64();
        let plan = HarveyNtt::new(&ring, 8).unwrap();
        let mut wrong = vec![0u64; 4];
        assert!(plan.forward_inplace(&mut wrong).is_err());
        assert!(plan.inverse_inplace(&mut wrong).is_err());
        assert!(plan.poly_mul(&wrong, &wrong).is_err());
        assert!(plan.hadamard_intt(&wrong, &wrong).is_err());
    }

    #[test]
    fn pointwise_accumulation_stays_in_domain() {
        let ring = ring64();
        let n = 32;
        let plan = HarveyNtt::new(&ring, n).unwrap();
        let a = rand_poly64(n, 9);
        let b = rand_poly64(n, 11);
        let mut acc = a.clone();
        crate::pointwise::add_assign(plan.ring(), &mut acc, &b).unwrap();
        let mut back = vec![0; n];
        crate::pointwise::sub_into(plan.ring(), &mut back, &acc, &b).unwrap();
        assert_eq!(back, a);
    }
}
