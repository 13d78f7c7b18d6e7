//! Eight butterflies per instruction: [`HarveyNtt`](crate::HarveyNtt)'s
//! transforms and the word ring's multiply passes in the 52-bit lanes of
//! AVX-512 IFMA, as Intel HEXL runs them.
//!
//! `vpmadd52luq` / `vpmadd52huq` multiply eight pairs of 52-bit words and
//! add the low / high 52 bits of each 104-bit product to a 64-bit lane.
//! Below `q < 2^50` every value of Harvey's lazy ranges (`[0, 4q)`) is a
//! 52-bit multiplicand, so the lazy butterflies run unchanged with
//! `β = 2^52` in place of `2^64`. The Shoup quotient for `β = 2^52` is the
//! plan's 64-bit one shifted right by 12, `⌊⌊w·2^64/q⌋ / 2^12⌋ =
//! ⌊w·2^52/q⌋`, so the plan's twiddle table serves both widths.
//!
//! * **Forward** — the opening radix-2 stage when `log n` is odd, then
//!   stages two per pass over whole vectors while a quarter block holds
//!   one, then the last four stages on 16-word chunks held in two
//!   registers: before each of the last three, one `vpermt2q` pair swaps
//!   the register bit with the lane bit the stage pairs on, and each lane
//!   takes its own twiddle. The canonical correction closes the chunk.
//! * **Inverse** — the mirror image: the first four stages on chunks,
//!   then stages two per pass; the closing butterflies multiply by `n⁻¹`
//!   and correct, as the scalar stages do.
//! * **Multiply passes** — the Hadamard product and its accumulating form
//!   by Barrett on the 104-bit product (`μ = ⌊2^(b+50)/q⌋` for a `b`-bit
//!   `q`, quotient off by at most two, two corrections), the constant
//!   multiply by Shoup.
//!
//! Intermediates may differ from the scalar stages' by a multiple of `q`;
//! outputs are canonical residues, so both paths agree bit for bit.
//!
//! A [`Lanes`] exists only for word elements (`u64`), a modulus below
//! `2^50`, a length of at least 16 and a host that reports `avx512f` and
//! `avx512ifma` at run time; nothing else selects it. This module is the
//! one place in the workspace that holds `unsafe` code.

use std::any::TypeId;
use std::marker::PhantomData;

use cofhee_arith::ShoupMul;

/// `4q < 2^52`: every lazy operand is an IFMA multiplicand.
const MODULUS_BOUND: u128 = 1 << 50;

/// The shortest vector the lanes take; below it the scalar path runs.
const MIN_LEN: usize = 16;

/// The vector kernels for one word modulus on an IFMA host.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<E> {
    ring: Ring,
    elem: PhantomData<fn() -> E>,
}

/// The scalar constants of one modulus `q < 2^50` of `b` bits.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Ring {
    q: u64,
    /// `⌊2^(b+50)/q⌋ < 2^51`: the multiply passes' Barrett constant.
    mu: u64,
    /// `b − 2`: a product is shifted down this far before the Barrett
    /// multiply, which leaves it below `2^52`.
    shift: u64,
}

impl<E: 'static> Lanes<E> {
    /// The lanes for vectors of `len` elements modulo `q`, or `None` where
    /// the scalar path runs: elements that are not `u64`, `q ≥ 2^50`,
    /// `len < 16`, or a host without `avx512f` + `avx512ifma`.
    pub(crate) fn new(q: u128, len: usize) -> Option<Self> {
        let words = TypeId::of::<E>() == TypeId::of::<u64>();
        if !words || !(3..MODULUS_BOUND).contains(&q) || len < MIN_LEN || !host_has_ifma() {
            return None;
        }
        let bits = 128 - q.leading_zeros();
        let mu = ((1u128 << (bits + 50)) / q) as u64;
        let ring = Ring { q: q as u64, mu, shift: u64::from(bits - 2) };
        Some(Self { ring, elem: PhantomData })
    }

    /// Forward negacyclic transform of `a` (length `n`, a power of two),
    /// `[0, 4q)` in, canonical out, on the plan's forward table `w`.
    pub(crate) fn forward(&self, a: &mut [E], w: &[ShoupMul<E>]) {
        assert!(a.len() >= MIN_LEN && a.len().is_power_of_two() && w.len() == a.len());
        // SAFETY: a `Lanes` exists only where `new` saw both features.
        unsafe { x86::forward(self.ring, same_mut(a), same(w)) }
    }

    /// Inverse negacyclic transform with its `n⁻¹` scaling, `[0, 2q)` in,
    /// canonical out: `w` is the plan's inverse table, `last` is
    /// `w[1]·n⁻¹`.
    pub(crate) fn inverse(
        &self,
        a: &mut [E],
        w: &[ShoupMul<E>],
        n_inv: &ShoupMul<E>,
        last: &ShoupMul<E>,
    ) {
        assert!(a.len() >= MIN_LEN && a.len().is_power_of_two() && w.len() == a.len());
        let (w, close) = (same(w), [one(n_inv), one(last)]);
        // SAFETY: as in `forward`.
        unsafe { x86::inverse(self.ring, same_mut(a), w, close) }
    }

    /// `a[i] = a[i]·b[i] mod q` for canonical operands.
    pub(crate) fn mul_assign(&self, a: &mut [E], b: &[E]) {
        assert_eq!(a.len(), b.len());
        // SAFETY: as in `forward`.
        unsafe { x86::products(self.ring, same_mut(a), None, same(b), None) }
    }

    /// `out[i] = x[i]·y[i] (+ acc[i]) mod q` for canonical operands: one
    /// pass, whatever `out` held before.
    pub(crate) fn mul_into(&self, out: &mut [E], x: &[E], y: &[E], acc: Option<&[E]>) {
        let len = out.len();
        assert!(x.len() == len && y.len() == len && acc.is_none_or(|acc| acc.len() == len));
        // SAFETY: as in `forward`.
        unsafe { x86::products(self.ring, same_mut(out), Some(same(x)), same(y), acc.map(same)) }
    }

    /// `a[i] = a[i]·c mod q` for canonical `a[i]` and the prepared
    /// constant `c`.
    pub(crate) fn scalar_mul(&self, a: &mut [E], c: &ShoupMul<E>) {
        // SAFETY: as in `forward`.
        unsafe { x86::scalar_mul(self.ring, same_mut(a), one(c)) }
    }
}

/// Whether the host reports the two features the kernels are built for.
fn host_has_ifma() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `x` as a slice of `U`, which must be `T` itself.
fn same<T: 'static, U: 'static>(x: &[T]) -> &[U] {
    assert!(TypeId::of::<T>() == TypeId::of::<U>());
    // SAFETY: `T` and `U` are one type, so the layout and every value carry over.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), x.len()) }
}

/// [`same`], mutably.
fn same_mut<T: 'static, U: 'static>(x: &mut [T]) -> &mut [U] {
    assert!(TypeId::of::<T>() == TypeId::of::<U>());
    // SAFETY: as in `same`; the borrow of `x` moves into the result.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), x.len()) }
}

/// One word pair out of a generic one.
fn one<E: 'static>(c: &ShoupMul<E>) -> &ShoupMul<u64> {
    &same(std::slice::from_ref(c))[0]
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use cofhee_arith::ShoupMul;

    use super::Ring;

    /// A twiddle's value and 52-bit Shoup quotient, in every lane.
    type Tw = (__m512i, __m512i);

    /// [`Ring`] in vector registers.
    #[derive(Clone, Copy)]
    struct V {
        q: __m512i,
        two_q: __m512i,
        /// `−q`: IFMA reads its low 52 bits, `2^52 − q`.
        neg_q: __m512i,
        mask52: __m512i,
        zero: __m512i,
        mu: __m512i,
        shift: __m512i,
        /// `52 − shift`.
        up: __m512i,
    }

    impl V {
        #[target_feature(enable = "avx512f")]
        fn new(r: Ring) -> Self {
            let splat = |x: u64| _mm512_set1_epi64(x as i64);
            Self {
                q: splat(r.q),
                two_q: splat(2 * r.q),
                neg_q: splat(r.q.wrapping_neg()),
                mask52: splat((1 << 52) - 1),
                zero: _mm512_setzero_si512(),
                mu: splat(r.mu),
                shift: splat(r.shift),
                up: splat(52 - r.shift),
            }
        }

        /// `[0, 2m) → [0, m)`: `x − m` wraps above `x` exactly when
        /// `x < m`.
        #[target_feature(enable = "avx512f")]
        fn fold(x: __m512i, m: __m512i) -> __m512i {
            _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
        }

        /// `a·w`, in `[0, 2q)`, for any `a < 2^52`: Harvey's lemma at
        /// `β = 2^52`.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul_lazy(self, a: __m512i, (w, wq): Tw) -> __m512i {
            let qhat = _mm512_madd52hi_epu64(self.zero, a, wq);
            let aw = _mm512_madd52lo_epu64(self.zero, a, w);
            _mm512_and_si512(_mm512_madd52lo_epu64(aw, qhat, self.neg_q), self.mask52)
        }

        /// `x·y mod q` for `x, y < q`. With `p = x·y < 2^2b`, `c =
        /// ⌊p/2^(b−2)⌋ < 2^52` and `t = ⌊c·μ/2^52⌋` is `⌊p/q⌋` or up to two
        /// less (each floor costs under one), so `p − t·q < 3q < 2^52` is
        /// exact in the low 52 bits.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn mul(self, x: __m512i, y: __m512i) -> __m512i {
            let lo = _mm512_madd52lo_epu64(self.zero, x, y);
            let hi = _mm512_madd52hi_epu64(self.zero, x, y);
            let c =
                _mm512_or_si512(_mm512_srlv_epi64(lo, self.shift), _mm512_sllv_epi64(hi, self.up));
            let t = _mm512_madd52hi_epu64(self.zero, c, self.mu);
            let r = _mm512_and_si512(_mm512_madd52lo_epu64(lo, t, self.neg_q), self.mask52);
            Self::fold(Self::fold(r, self.q), self.q)
        }

        /// One Cooley–Tukey butterfly, `[0, 4q)` in and out.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn ct(self, x: __m512i, y: __m512i, w: Tw) -> (__m512i, __m512i) {
            let u = Self::fold(x, self.two_q);
            let v = self.mul_lazy(y, w);
            (_mm512_add_epi64(u, v), _mm512_sub_epi64(_mm512_add_epi64(u, self.two_q), v))
        }

        /// One Gentleman–Sande butterfly, `[0, 2q)` in and out.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn gs(self, u: __m512i, v: __m512i, w: Tw) -> (__m512i, __m512i) {
            let diff = _mm512_sub_epi64(_mm512_add_epi64(u, self.two_q), v);
            (Self::fold(_mm512_add_epi64(u, v), self.two_q), self.mul_lazy(diff, w))
        }

        /// The inverse's closing butterfly: both sides multiplied, by `n⁻¹`
        /// and by the last twiddle times `n⁻¹`, and corrected.
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn close(self, u: __m512i, v: __m512i, [n_inv, last]: [Tw; 2]) -> (__m512i, __m512i) {
            let diff = _mm512_sub_epi64(_mm512_add_epi64(u, self.two_q), v);
            (
                Self::fold(self.mul_lazy(_mm512_add_epi64(u, v), n_inv), self.q),
                Self::fold(self.mul_lazy(diff, last), self.q),
            )
        }
    }

    #[target_feature(enable = "avx512f")]
    fn splat(w: &ShoupMul<u64>) -> Tw {
        (_mm512_set1_epi64(w.value as i64), _mm512_set1_epi64((w.quotient >> 12) as i64))
    }

    /// The lanes of a vector, lane `l` holding `f(l)`.
    #[target_feature(enable = "avx512f")]
    fn from_fn(f: impl Fn(i64) -> i64) -> __m512i {
        _mm512_set_epi64(f(7), f(6), f(5), f(4), f(3), f(2), f(1), f(0))
    }

    /// The first `min(8, x.len())` words of `x`, zeros above.
    #[target_feature(enable = "avx512f")]
    fn load(x: &[u64]) -> __m512i {
        // SAFETY: the mask selects words of `x` only; masked-off lanes are
        // not read.
        unsafe { _mm512_maskz_loadu_epi64(mask(x.len()), x.as_ptr().cast()) }
    }

    /// Writes the first `min(8, x.len())` lanes of `v` to `x`.
    #[target_feature(enable = "avx512f")]
    fn store(x: &mut [u64], v: __m512i) {
        // SAFETY: as in `load`; masked-off lanes are not written.
        unsafe { _mm512_mask_storeu_epi64(x.as_mut_ptr().cast(), mask(x.len()), v) }
    }

    fn mask(len: usize) -> __mmask8 {
        if len >= 8 {
            0xff
        } else {
            (1 << len) - 1
        }
    }

    /// A register pair's element `(reg, lane)` as a `vpermt2q` index.
    fn at(reg: i64, lane: i64) -> i64 {
        8 * reg + lane
    }

    /// The index vectors of the last four forward stages on a 16-word
    /// chunk, and of the first four inverse ones. Word `16c + 8r + l` of
    /// a chunk starts in lane `l` of register `r`; stage `s` (1–3) pairs
    /// the words `8 >> s` apart, so before it lane bit `3 − s` and the
    /// register bit change places, and block `l >> (3 − s)` of the stage's
    /// `2^s` owns lane `l`.
    struct Chunk {
        /// Per stage `s − 1`: the two halves of the exchange.
        swap: [[__m512i; 2]; 3],
        /// Per stage `s − 1`: where lane `l`'s twiddle value and
        /// quotient sit among the stage's interleaved pairs.
        pick: [[__m512i; 2]; 3],
        /// After the forward's last stage register `r`, lane `l` holds
        /// word `2l + r`: back to natural order (the inverse's first
        /// exchange is its inverse).
        unzip: [__m512i; 2],
        zip: [__m512i; 2],
    }

    impl Chunk {
        #[target_feature(enable = "avx512f")]
        fn new() -> Self {
            let swap = |j: i64| {
                let side = |bit: i64| from_fn(|l| at(l >> j & 1, l & !(1 << j) | bit << j));
                [side(0), side(1)]
            };
            let pick =
                |s: i64| [from_fn(|l| 2 * (l >> (3 - s))), from_fn(|l| 2 * (l >> (3 - s)) + 1)];
            let word = |w: i64| at(w & 1, w >> 1);
            Self {
                swap: [swap(2), swap(1), swap(0)],
                pick: [pick(1), pick(2), pick(3)],
                unzip: [from_fn(word), from_fn(|l| word(l + 8))],
                zip: [from_fn(|l| 2 * l), from_fn(|l| 2 * l + 1)],
            }
        }

        #[target_feature(enable = "avx512f")]
        fn permute(idx: [__m512i; 2], (u, v): (__m512i, __m512i)) -> (__m512i, __m512i) {
            (_mm512_permutex2var_epi64(u, idx[0], v), _mm512_permutex2var_epi64(u, idx[1], v))
        }

        /// Stage `s`'s twiddles: `w` holds its `2^s` pairs for the chunk.
        #[target_feature(enable = "avx512f")]
        fn twiddles(&self, w: &[ShoupMul<u64>], s: usize) -> Tw {
            // SAFETY: `ShoupMul` is `repr(C)` over two `u64`s, so `w` is
            // `2·len` initialized words with no padding.
            let words: &[u64] =
                unsafe { std::slice::from_raw_parts(w.as_ptr().cast(), 2 * w.len()) };
            let (lo, hi) = (load(words), load(words.get(8..).unwrap_or_default()));
            let [value, quotient] = self.pick[s - 1];
            let quotient = _mm512_permutex2var_epi64(lo, quotient, hi);
            (_mm512_permutex2var_epi64(lo, value, hi), _mm512_srli_epi64::<12>(quotient))
        }
    }

    /// # Safety
    ///
    /// The host supports `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn forward(r: Ring, a: &mut [u64], w: &[ShoupMul<u64>]) {
        let (k, n) = (V::new(r), a.len());
        let vecs = a.as_chunks_mut::<8>().0;
        let mut t = n / 2;
        if n.trailing_zeros() % 2 == 1 {
            let tw = splat(&w[1]);
            let (lo, hi) = vecs.split_at_mut(n / 16);
            for (x, y) in lo.iter_mut().zip(hi) {
                let (u, v) = k.ct(load(x), load(y), tw);
                store(x, u);
                store(y, v);
            }
            t /= 2;
        }
        // Stages `t` and `t/2` over blocks of `2t` words.
        while t >= 16 {
            let m = n / (2 * t);
            for (i, block) in vecs.chunks_exact_mut(t / 4).enumerate() {
                let (w1, w2, w3) =
                    (splat(&w[m + i]), splat(&w[2 * m + 2 * i]), splat(&w[2 * m + 2 * i + 1]));
                for [x0, x1, x2, x3] in crate::lazy::quarters(block) {
                    let (a0, a2) = k.ct(load(x0), load(x2), w1);
                    let (a1, a3) = k.ct(load(x1), load(x3), w1);
                    let (b0, b1) = k.ct(a0, a1, w2);
                    let (b2, b3) = k.ct(a2, a3, w3);
                    store(x0, b0);
                    store(x1, b1);
                    store(x2, b2);
                    store(x3, b3);
                }
            }
            t /= 4;
        }
        let chunk = Chunk::new();
        for (c, [x, y]) in vecs.as_chunks_mut::<2>().0.iter_mut().enumerate() {
            let base = n / 16 + c;
            let mut uv = k.ct(load(x), load(y), splat(&w[base]));
            for s in 1..=3 {
                let (u, v) = Chunk::permute(chunk.swap[s - 1], uv);
                uv = k.ct(u, v, chunk.twiddles(&w[base << s..][..1 << s], s));
            }
            let correct = |x| V::fold(V::fold(x, k.two_q), k.q);
            let (u, v) = Chunk::permute(chunk.unzip, (correct(uv.0), correct(uv.1)));
            store(x, u);
            store(y, v);
        }
    }

    /// # Safety
    ///
    /// As for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn inverse(
        r: Ring,
        a: &mut [u64],
        w: &[ShoupMul<u64>],
        close: [&ShoupMul<u64>; 2],
    ) {
        let (k, n) = (V::new(r), a.len());
        let close = close.map(|c| splat(c));
        let vecs = a.as_chunks_mut::<8>().0;
        let chunk = Chunk::new();
        for (c, [x, y]) in vecs.as_chunks_mut::<2>().0.iter_mut().enumerate() {
            let base = n / 16 + c;
            let mut uv = Chunk::permute(chunk.zip, (load(x), load(y)));
            for s in (1..=3).rev() {
                let (u, v) = k.gs(uv.0, uv.1, chunk.twiddles(&w[base << s..][..1 << s], s));
                uv = Chunk::permute(chunk.swap[s - 1], (u, v));
            }
            let (u, v) = if n == 16 {
                k.close(uv.0, uv.1, close)
            } else {
                k.gs(uv.0, uv.1, splat(&w[base]))
            };
            store(x, u);
            store(y, v);
        }
        // The stage pairing words `t` apart, over blocks of `2t`: the
        // closing one when it is the last.
        let mut t = 16;
        if n.trailing_zeros() % 2 == 1 {
            let m = n / 32;
            for (i, block) in vecs.chunks_exact_mut(4).enumerate() {
                let tw = splat(&w[m + i]);
                let (lo, hi) = block.split_at_mut(2);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = if n == 32 {
                        k.close(load(x), load(y), close)
                    } else {
                        k.gs(load(x), load(y), tw)
                    };
                    store(x, u);
                    store(y, v);
                }
            }
            t = 32;
        }
        // Stages `t` and `2t` over blocks of `4t`.
        while 4 * t <= n {
            let h = n / (4 * t);
            for (i, block) in vecs.chunks_exact_mut(t / 2).enumerate() {
                let (w0, w1, w2) =
                    (splat(&w[2 * h + 2 * i]), splat(&w[2 * h + 2 * i + 1]), splat(&w[h + i]));
                for [x0, x1, x2, x3] in crate::lazy::quarters(block) {
                    let (a0, a1) = k.gs(load(x0), load(x1), w0);
                    let (a2, a3) = k.gs(load(x2), load(x3), w1);
                    let ((b0, b2), (b1, b3)) = if 4 * t == n {
                        (k.close(a0, a2, close), k.close(a1, a3, close))
                    } else {
                        (k.gs(a0, a2, w2), k.gs(a1, a3, w2))
                    };
                    store(x0, b0);
                    store(x1, b1);
                    store(x2, b2);
                    store(x3, b3);
                }
            }
            t *= 4;
        }
    }

    /// `out = x·y (+ acc)`, with `x` the old `out` when `None`.
    ///
    /// # Safety
    ///
    /// As for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn products(
        r: Ring,
        out: &mut [u64],
        x: Option<&[u64]>,
        y: &[u64],
        acc: Option<&[u64]>,
    ) {
        let k = V::new(r);
        for i in (0..out.len()).step_by(8) {
            let x = x.map_or_else(|| load(&out[i..]), |x| load(&x[i..]));
            let mut p = k.mul(x, load(&y[i..]));
            if let Some(acc) = acc {
                p = V::fold(_mm512_add_epi64(p, load(&acc[i..])), k.q);
            }
            store(&mut out[i..], p);
        }
    }

    /// `a = a·c`.
    ///
    /// # Safety
    ///
    /// As for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn scalar_mul(r: Ring, a: &mut [u64], c: &ShoupMul<u64>) {
        let (k, c) = (V::new(r), splat(c));
        for i in (0..a.len()).step_by(8) {
            let p = V::fold(k.mul_lazy(load(&a[i..]), c), k.q);
            store(&mut a[i..], p);
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod x86 {
    //! No lanes off x86-64: `Lanes::new` never returns one, so these are
    //! never called.

    use cofhee_arith::ShoupMul;

    use super::Ring;

    pub(super) unsafe fn forward(_: Ring, _: &mut [u64], _: &[ShoupMul<u64>]) {
        unreachable!("no vector lanes off x86-64")
    }

    pub(super) unsafe fn inverse(
        _: Ring,
        _: &mut [u64],
        _: &[ShoupMul<u64>],
        _: [&ShoupMul<u64>; 2],
    ) {
        unreachable!("no vector lanes off x86-64")
    }

    pub(super) unsafe fn products(
        _: Ring,
        _: &mut [u64],
        _: Option<&[u64]>,
        _: &[u64],
        _: Option<&[u64]>,
    ) {
        unreachable!("no vector lanes off x86-64")
    }

    pub(super) unsafe fn scalar_mul(_: Ring, _: &mut [u64], _: &ShoupMul<u64>) {
        unreachable!("no vector lanes off x86-64")
    }
}

#[cfg(test)]
mod tests {
    use cofhee_arith::{primes::ntt_prime, Barrett64, LazyRing, ModRing};

    use super::host_has_ifma;
    use crate::{ntt, pointwise, HarveyNtt};

    /// `len` words below `bound`, the first and last of them the range's
    /// ends.
    fn words(len: usize, bound: u64, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        let mut v: Vec<u64> = (0..len)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
                state % bound
            })
            .collect();
        (v[0], v[len - 1]) = (bound - 1, 0);
        v
    }

    /// Every vector kernel on `n` words modulo `q` against the scalar
    /// stages and loops (called directly, whichever kernel the plan
    /// picked) and the strict oracle, over the full lazy input ranges.
    fn check(q: u64, n: usize) {
        let ring = Barrett64::new(q).unwrap();
        let plan = HarveyNtt::new(&ring, n).unwrap();
        let wants_lanes = q < 1 << 50 && n >= 16;
        if wants_lanes && !host_has_ifma() {
            println!("skipped: no avx512ifma (q = {q}, n = {n})");
        }
        let lanes = wants_lanes && host_has_ifma();
        assert_eq!(plan.kernel(), if lanes { "avx512ifma" } else { "scalar" }, "q = {q}, n = {n}");
        let canonical = |v: &[u64]| v.iter().map(|&x| x % q).collect::<Vec<_>>();

        // Forward, `[0, 4q)` in.
        let a = words(n, 4 * q, q ^ n as u64);
        let (mut fast, mut scalar, mut strict) = (a.clone(), a.clone(), canonical(&a));
        plan.forward_inplace(&mut fast).unwrap();
        plan.forward_stages(&mut scalar);
        ntt::forward_inplace(&ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(fast, scalar, "forward, q = {q}, n = {n}");
        assert_eq!(fast, strict, "forward, q = {q}, n = {n}");

        // Inverse, `[0, 2q)` in.
        let b = words(n, 2 * q, q ^ (3 * n as u64));
        let (mut fast, mut scalar, mut strict) = (b.clone(), b.clone(), canonical(&b));
        plan.inverse_inplace(&mut fast).unwrap();
        plan.inverse_stages(&mut scalar);
        ntt::inverse_inplace(&ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(fast, scalar, "inverse, q = {q}, n = {n}");
        assert_eq!(fast, strict, "inverse, q = {q}, n = {n}");

        // The multiply passes, canonical in.
        let (x, y, acc) = (words(n, q, 5 + n as u64), words(n, q, 7 * q), words(n, q, 11 ^ q));
        let product: Vec<u64> = x.iter().zip(&y).map(|(&x, &y)| ring.mul(x, y)).collect();
        let mut out = vec![0; n];
        plan.hadamard_intt_into(&x, &y, &mut out).unwrap();
        let mut strict = product.clone();
        ntt::inverse_inplace(&ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(out, strict, "hadamard_intt_into, q = {q}, n = {n}");
        let mut fast = x.clone();
        pointwise::mul_assign(&ring, &mut fast, &y).unwrap();
        assert_eq!(fast, product, "mul_assign, q = {q}, n = {n}");
        pointwise::mul_add_into(&ring, &mut out, &x, &y, &acc).unwrap();
        let sums: Vec<u64> = product.iter().zip(&acc).map(|(&p, &c)| ring.add(p, c)).collect();
        assert_eq!(out, sums, "mul_add_into, q = {q}, n = {n}");
        let c = q - 1 - (n as u64 % (q - 1));
        let mut fast = x.clone();
        pointwise::scalar_mul_assign(&ring, &mut fast, c);
        let scaled: Vec<u64> = x.iter().map(|&x| ring.mul(x, c)).collect();
        assert_eq!(fast, scaled, "scalar_mul_assign, q = {q}, n = {n}");
    }

    #[test]
    fn lanes_match_the_scalar_stages_and_the_strict_oracle() {
        for log_n in 1..=14 {
            let n = 1 << log_n;
            // The `4q < 2^52` edge is the largest 50-bit NTT prime; a
            // 51-bit one must stay scalar.
            for bits in [17, 33, 43, 50, 51] {
                check(ntt_prime(bits, n).unwrap() as u64, n);
            }
        }
    }

    #[test]
    fn multiply_passes_cover_lengths_off_the_vector_width() {
        if !host_has_ifma() {
            println!("skipped: no avx512ifma (lengths off the vector width)");
        }
        let q = ntt_prime(43, 8).unwrap() as u64;
        let ring = Barrett64::new(q).unwrap();
        for len in [16, 17, 23, 31, 33, 40, 63] {
            let (x, y, acc) = (words(len, q, 3), words(len, q, 9), words(len, q, 27));
            let product: Vec<u64> = x.iter().zip(&y).map(|(&x, &y)| ring.mul(x, y)).collect();
            let mut fast = x.clone();
            pointwise::mul_assign(&ring, &mut fast, &y).unwrap();
            assert_eq!(fast, product, "len = {len}");
            let mut out = vec![u64::MAX; len];
            pointwise::mul_add_into(&ring, &mut out, &x, &y, &acc).unwrap();
            let sums: Vec<u64> = product.iter().zip(&acc).map(|(&p, &c)| ring.add(p, c)).collect();
            assert_eq!(out, sums, "len = {len}");
            pointwise::scalar_mul_assign(&ring, &mut fast, ring.shoup(q - 2).value);
            let scaled: Vec<u64> = product.iter().map(|&p| ring.mul(p, q - 2)).collect();
            assert_eq!(fast, scaled, "len = {len}");
        }
    }

    #[test]
    fn the_hadamard_takes_both_corrections() {
        // An odd modulus just below `2^50` and operands whose Barrett
        // estimate falls two short: `x·y − t·q` lands in `[2q, 3q)`.
        let (q, x, y) = (1118975352482797, 1118975352434472, 1118975352461895);
        let ring = Barrett64::new(q).unwrap();
        let mut a = vec![x; 16];
        pointwise::mul_assign(&ring, &mut a, &[y; 16]).unwrap();
        assert_eq!(a, [ring.mul(x, y); 16]);
    }
}
