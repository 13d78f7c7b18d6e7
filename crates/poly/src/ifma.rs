//! Eight butterflies per instruction: [`HarveyNtt`](crate::HarveyNtt)'s
//! transforms and the multiply passes in the 52-bit lanes of AVX-512 IFMA,
//! as Intel HEXL runs them, on both engine widths.
//!
//! `vpmadd52luq` / `vpmadd52huq` multiply eight pairs of 52-bit words and
//! add the low / high 52 bits of each 104-bit product to a 64-bit lane.
//! One set of stage loops per direction runs on either of two arithmetics:
//!
//! * **Word** (`u64` elements, `q < 2^50`) — every value of Harvey's lazy
//!   ranges (`[0, 4q)`) is one 52-bit multiplicand, so the lazy butterflies
//!   run unchanged with `β = 2^52` in place of `2^64`. The Shoup quotient
//!   for `β = 2^52` is the plan's 64-bit one shifted right by 12,
//!   `⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋`, so the plan's twiddle table
//!   serves both widths.
//! * **Wide** (`u128` elements, `q < 2^110`) — a residue is three 52-bit
//!   limbs, split from the two words of each `u128` in registers and
//!   joined again before the store; limbs are kept normalized (each below
//!   `2^52`). The lazy product reads the plan's own 128-bit Shoup quotient
//!   `w′ = ⌊w·2^128/q⌋` as `v = w′·2^28`, three limbs, so `Q =
//!   ⌊a·w′/2^128⌋ = ⌊a·v/2^156⌋` starts on a limb boundary: no new table
//!   and no division at plan build. Fourteen IFMA give an estimate `Q′`
//!   with `Q − 1 ≤ Q′ ≤ Q`: the products whose weight is below `2^104` are
//!   dropped, and so are the low 52 bits of the sum at `2^104`, together
//!   less than `2^157`. Then `r = a·w + Q′·(2^156 − q) mod 2^156`
//!   (eighteen IFMA) is `a·w − Q′·q`. Where `Q′ = Q` that is Harvey's
//!   product, in `[0, 2q)`. Where `Q′` is one short, the part dropped
//!   exceeded `2^156`, so `a·w′ mod 2^128 < 2^78`. Writing `a·w′/2^128 =
//!   a·w/q − δ` with `δ < a/2^128 < 2^-15` (`a < 4q < 2^112`), that
//!   fraction is `ρ/q − δ` when `ρ = a·w mod q ≥ δ·q` and above `1 − δ`
//!   otherwise, so here `ρ < q·(δ + 2^-50)` and `r = ρ + q < 2q` all the
//!   same. No correction follows: the wide butterflies keep Harvey's
//!   ranges, and `4q < 2^112` leaves a lazy operand's top limb below
//!   `2^8`.
//!
//! Both run the same plan:
//!
//! * **Forward** — the opening radix-2 stage when `log n` is odd, then
//!   stages two per pass over whole vectors while a quarter block holds
//!   one, then the last four stages on 16-element chunks held in two
//!   vectors: before each of the last three, one `vpermt2q` pair per limb
//!   swaps the register bit with the lane bit the stage pairs on, and each
//!   lane takes its own twiddle. The canonical correction closes the chunk.
//! * **Inverse** — the mirror image: the first four stages on chunks,
//!   then stages two per pass; the closing butterflies multiply by `n⁻¹`
//!   and correct, as the scalar stages do.
//! * **Multiply passes** — the Hadamard product and its accumulating form
//!   by Barrett on the full product (`x·y` shifted down by `b − 2` bits for
//!   a `b`-bit `q`, times `μ = ⌊2^(b+50)/q⌋` or `⌊2^(b+154)/q⌋`; quotient
//!   off by at most two, two corrections), the constant multiply by Shoup.
//!
//! Intermediates may differ from the scalar stages' by a multiple of `q`;
//! outputs are canonical residues, so both paths agree bit for bit.
//!
//! A [`Lanes`] exists only for `u64` elements below `2^50` or `u128`
//! elements below `2^110`, a length of at least 16 and a host that reports
//! `avx512f` and `avx512ifma` at run time; nothing else selects it. This
//! module is the one place in the workspace that holds `unsafe` code.

use std::any::TypeId;
use std::marker::PhantomData;

use cofhee_arith::{ShoupMul, U256};

/// Word lanes: `4q < 2^52`, every lazy operand is an IFMA multiplicand.
const WORD_BOUND: u128 = 1 << 50;

/// Wide lanes: a lazy operand (below `4q < 2^112`) is far inside Harvey's
/// `β = 2^128`, and a canonical one's top limb is below `2^6`, which the
/// product passes rely on.
const WIDE_BOUND: u128 = 1 << 110;

/// The shortest vector the lanes take; below it the scalar path runs.
const MIN_LEN: usize = 16;

/// The vector kernels for one modulus on an IFMA host.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes<E> {
    ring: Ring,
    elem: PhantomData<fn() -> E>,
}

#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum Ring {
    Word(Word),
    Wide(Wide),
}

/// The constants of one modulus `q < 2^50` of `b` bits.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Word {
    q: u64,
    /// `⌊2^(b+50)/q⌋ < 2^51`: the multiply passes' Barrett constant.
    mu: u64,
    /// `b − 2`: a product is shifted down this far before the Barrett
    /// multiply, which leaves it below `2^52`.
    shift: u64,
}

/// The constants of one modulus `q < 2^110` of `b` bits, as 52-bit limbs.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
struct Wide {
    q: [u64; 3],
    two_q: [u64; 3],
    /// `2^156 − q`: adding a multiple of it subtracts one of `q`.
    neg_q: [u64; 3],
    /// `⌊2^(b+154)/q⌋ < 2^155`: the multiply passes' Barrett constant.
    mu: [u64; 3],
    /// `b − 2 = 52·limbs + bits`: a product is shifted down this far
    /// before the Barrett multiply, which leaves it below `2^112`.
    limbs: usize,
    bits: u64,
}

/// The three 52-bit limbs of `x < 2^156`.
fn limbs(x: U256) -> [u64; 3] {
    let mask = (1u128 << 52) - 1;
    [0u32, 52, 104].map(|at| (x.shr(at).low_u128() & mask) as u64)
}

impl Wide {
    fn new(q: u128, bits: u32) -> Self {
        let one = U256::ONE;
        let e = bits + 154;
        let (lo, hi) =
            if e < 256 { (one.shl(e), U256::ZERO) } else { (U256::ZERO, one.shl(e - 256)) };
        let mu = U256::div_rem_wide(lo, hi, U256::from_u128(q)).0;
        let neg_q = U256::ONE.shl(156).wrapping_sub(U256::from_u128(q));
        let shift = bits as usize - 2;
        Self {
            q: limbs(U256::from_u128(q)),
            two_q: limbs(U256::from_u128(2 * q)),
            neg_q: limbs(neg_q),
            mu: limbs(mu),
            limbs: shift / 52,
            bits: (shift % 52) as u64,
        }
    }
}

/// Runs `$call` on the ring's constants, bound to `$k`. Off x86-64 no
/// `Lanes` exists, so there is nothing to run.
macro_rules! on_lanes {
    ($lanes:expr, $k:ident => $call:expr) => {
        match $lanes.ring {
            // SAFETY: a `Lanes` exists only where `new` saw both features.
            #[cfg(target_arch = "x86_64")]
            Ring::Word($k) => unsafe { $call },
            // SAFETY: as for the word arm.
            #[cfg(target_arch = "x86_64")]
            Ring::Wide($k) => unsafe { $call },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no vector lanes off x86-64"),
        }
    };
}

#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl<E: 'static> Lanes<E> {
    /// The lanes for vectors of `len` elements modulo `q`, or `None` where
    /// the scalar path runs: elements that are neither `u64` below `2^50`
    /// nor `u128` below `2^110`, `len < 16`, or a host without `avx512f` +
    /// `avx512ifma`.
    pub(crate) fn new(q: u128, len: usize) -> Option<Self> {
        let elem = TypeId::of::<E>();
        let bound = if elem == TypeId::of::<u64>() {
            WORD_BOUND
        } else if elem == TypeId::of::<u128>() {
            WIDE_BOUND
        } else {
            return None;
        };
        if !(3..bound).contains(&q) || len < MIN_LEN || !host_has_ifma() {
            return None;
        }
        let bits = 128 - q.leading_zeros();
        let ring = if bound == WORD_BOUND {
            let mu = ((1u128 << (bits + 50)) / q) as u64;
            Ring::Word(Word { q: q as u64, mu, shift: u64::from(bits - 2) })
        } else {
            Ring::Wide(Wide::new(q, bits))
        };
        Some(Self { ring, elem: PhantomData })
    }

    /// Forward negacyclic transform of `a` (length `n`, a power of two),
    /// `[0, 4q)` in, canonical out, on the plan's forward table `w`.
    pub(crate) fn forward(&self, a: &mut [E], w: &[ShoupMul<E>]) {
        assert!(a.len() >= MIN_LEN && a.len().is_power_of_two() && w.len() == a.len());
        on_lanes!(self, k => x86::forward(k, same_mut(a), same(w)))
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
        on_lanes!(self, k => x86::inverse(k, same_mut(a), same(w), [one(n_inv), one(last)]))
    }

    /// `a[i] = a[i]·b[i] mod q` for canonical operands.
    pub(crate) fn mul_assign(&self, a: &mut [E], b: &[E]) {
        assert_eq!(a.len(), b.len());
        on_lanes!(self, k => x86::products(k, same_mut(a), None, same(b), None))
    }

    /// `out[i] = x[i]·y[i] (+ acc[i]) mod q` for canonical operands: one
    /// pass, whatever `out` held before.
    pub(crate) fn mul_into(&self, out: &mut [E], x: &[E], y: &[E], acc: Option<&[E]>) {
        let len = out.len();
        assert!(x.len() == len && y.len() == len && acc.is_none_or(|acc| acc.len() == len));
        on_lanes!(self, k => x86::products(k, same_mut(out), Some(same(x)), same(y), acc.map(same)))
    }

    /// `a[i] = a[i]·c mod q` for canonical `a[i]` and the prepared
    /// constant `c`.
    pub(crate) fn scalar_mul(&self, a: &mut [E], c: &ShoupMul<E>) {
        on_lanes!(self, k => x86::scalar_mul(k, same_mut(a), one(c)))
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
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn same<T: 'static, U: 'static>(x: &[T]) -> &[U] {
    assert!(TypeId::of::<T>() == TypeId::of::<U>());
    // SAFETY: `T` and `U` are one type, so the layout and every value carry over.
    unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), x.len()) }
}

/// [`same`], mutably.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn same_mut<T: 'static, U: 'static>(x: &mut [T]) -> &mut [U] {
    assert!(TypeId::of::<T>() == TypeId::of::<U>());
    // SAFETY: as in `same`; the borrow of `x` moves into the result.
    unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), x.len()) }
}

/// [`same`], for one pair.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
fn one<E: 'static, F: 'static>(c: &ShoupMul<E>) -> &ShoupMul<F> {
    &same(std::slice::from_ref(c))[0]
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use cofhee_arith::ShoupMul;

    use super::{Wide, Word};

    /// A ring's constants, and the arithmetic they make once they are in
    /// vector registers: each kernel builds it on entry, so no
    /// constant is broadcast inside a loop.
    pub(super) trait Splat: Copy {
        type Elem: Copy + 'static;
        type Lanes: Arith<Elem = Self::Elem>;

        /// # Safety
        ///
        /// The host supports `avx512f`.
        unsafe fn lanes(self) -> Self::Lanes;
    }

    /// One arithmetic the stage loops run on: eight residues to a value,
    /// held the way the arithmetic multiplies them.
    ///
    /// Every method needs a host with `avx512f` and `avx512ifma`, which is
    /// why each is `unsafe`.
    pub(super) trait Arith: Copy {
        type Elem: Copy + 'static;
        /// Eight residues.
        type V: Copy;
        /// One twiddle per lane: its value and Shoup quotient in the form
        /// [`Arith::mul_lazy`] reads them.
        type Tw: Copy;

        unsafe fn q(self) -> Self::V;
        unsafe fn two_q(self) -> Self::V;
        /// The first `min(8, x.len())` elements of `x`, zeros above.
        unsafe fn load(self, x: &[Self::Elem]) -> Self::V;
        /// Writes the first `min(8, x.len())` lanes of `v` to `x`.
        unsafe fn store(self, x: &mut [Self::Elem], v: Self::V);
        /// One twiddle in every lane.
        unsafe fn splat(self, w: &ShoupMul<Self::Elem>) -> Self::Tw;
        /// A tail chunk's stage `s` (1–3): `w` holds the stage's `2^s`
        /// twiddles for the chunk, and lane `l` takes twiddle `l >> (3 − s)`.
        unsafe fn pick(self, chunk: &Chunk, w: &[ShoupMul<Self::Elem>], s: usize) -> Self::Tw;
        /// One `vpermt2q` pair over two vectors, limb by limb.
        unsafe fn permute(self, idx: [__m512i; 2], uv: (Self::V, Self::V)) -> (Self::V, Self::V);
        /// `[0, 2m) → [0, m)`.
        unsafe fn fold(self, x: Self::V, m: Self::V) -> Self::V;
        /// `x + y`, uncorrected.
        unsafe fn add(self, x: Self::V, y: Self::V) -> Self::V;
        /// `x + 2q − y` for `y < 2q`, uncorrected.
        unsafe fn sub(self, x: Self::V, y: Self::V) -> Self::V;
        /// `a·w` in `[0, 2q)` for any `a < 4q`: Harvey's lemma.
        unsafe fn mul_lazy(self, a: Self::V, w: Self::Tw) -> Self::V;
        /// `x·y mod q` for `x, y < q`.
        unsafe fn mul(self, x: Self::V, y: Self::V) -> Self::V;
    }

    #[target_feature(enable = "avx512f")]
    fn splat64(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    fn mask52() -> i64 {
        (1 << 52) - 1
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

    /// `x` as its 64-bit words: `T` is `u64`, `u128` or a [`ShoupMul`] of
    /// either.
    fn words<T>(x: &[T]) -> &[u64] {
        const { assert!(size_of::<T>().is_multiple_of(8) && align_of::<T>() >= 8) };
        // SAFETY: every `T` it is called on is plain integer data with no
        // padding (`ShoupMul` is `repr(C)`), eight-byte aligned.
        unsafe { std::slice::from_raw_parts(x.as_ptr().cast(), size_of_val(x) / 8) }
    }

    /// [`words`], mutably.
    fn words_mut<T>(x: &mut [T]) -> &mut [u64] {
        const { assert!(size_of::<T>().is_multiple_of(8) && align_of::<T>() >= 8) };
        // SAFETY: as in `words`; the borrow of `x` moves into the result.
        unsafe { std::slice::from_raw_parts_mut(x.as_mut_ptr().cast(), size_of_val(x) / 8) }
    }

    /// One word of each lane's twiddle in a tail chunk's stage, `idx`
    /// from [`Chunk::pick`]. A wide stage 3 spans four vectors: lanes 0–3
    /// read the first two, 4–7 the last two.
    #[target_feature(enable = "avx512f")]
    fn field(w: &[u64], idx: __m512i) -> __m512i {
        let pick = |w: &[u64]| {
            _mm512_permutex2var_epi64(load(w), idx, load(w.get(8..).unwrap_or_default()))
        };
        match w.get(16..) {
            Some(hi) if !hi.is_empty() => _mm512_mask_blend_epi64(0xf0, pick(w), pick(hi)),
            _ => pick(w),
        }
    }

    /// [`Word`] in every lane.
    #[derive(Clone, Copy)]
    pub(super) struct WordLanes {
        q: __m512i,
        two_q: __m512i,
        /// `−q`: IFMA reads its low 52 bits, `2^52 − q`.
        neg_q: __m512i,
        mu: __m512i,
        shift: __m512i,
        /// `52 − shift`.
        up: __m512i,
    }

    impl Splat for Word {
        type Elem = u64;
        type Lanes = WordLanes;

        #[target_feature(enable = "avx512f")]
        unsafe fn lanes(self) -> WordLanes {
            WordLanes {
                q: splat64(self.q),
                two_q: splat64(2 * self.q),
                neg_q: splat64(self.q.wrapping_neg()),
                mu: splat64(self.mu),
                shift: splat64(self.shift),
                up: splat64(52 - self.shift),
            }
        }
    }

    impl Arith for WordLanes {
        type Elem = u64;
        type V = __m512i;
        /// The twiddle and its 52-bit Shoup quotient.
        type Tw = (__m512i, __m512i);

        #[target_feature(enable = "avx512f")]
        unsafe fn q(self) -> __m512i {
            self.q
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn two_q(self) -> __m512i {
            self.two_q
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn load(self, x: &[u64]) -> __m512i {
            load(x)
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, x: &mut [u64], v: __m512i) {
            store(x, v)
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn splat(self, w: &ShoupMul<u64>) -> Self::Tw {
            (splat64(w.value), splat64(w.quotient >> 12))
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn pick(self, chunk: &Chunk, w: &[ShoupMul<u64>], s: usize) -> Self::Tw {
            let (w, [value, quotient, ..]) = (words(w), chunk.pick[s - 1]);
            (field(w, value), _mm512_srli_epi64::<12>(field(w, quotient)))
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn permute(
            self,
            idx: [__m512i; 2],
            (u, v): (__m512i, __m512i),
        ) -> (__m512i, __m512i) {
            (_mm512_permutex2var_epi64(u, idx[0], v), _mm512_permutex2var_epi64(u, idx[1], v))
        }

        /// `x − m` wraps above `x` exactly when `x < m`.
        #[target_feature(enable = "avx512f")]
        unsafe fn fold(self, x: __m512i, m: __m512i) -> __m512i {
            _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn add(self, x: __m512i, y: __m512i) -> __m512i {
            _mm512_add_epi64(x, y)
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn sub(self, x: __m512i, y: __m512i) -> __m512i {
            _mm512_sub_epi64(_mm512_add_epi64(x, self.two_q), y)
        }

        /// Harvey's lemma at `β = 2^52`.
        #[target_feature(enable = "avx512f,avx512ifma")]
        unsafe fn mul_lazy(self, a: __m512i, (w, wq): Self::Tw) -> __m512i {
            let zero = _mm512_setzero_si512();
            let qhat = _mm512_madd52hi_epu64(zero, a, wq);
            let aw = _mm512_madd52lo_epu64(zero, a, w);
            let r = _mm512_madd52lo_epu64(aw, qhat, self.neg_q);
            _mm512_and_si512(r, _mm512_set1_epi64(mask52()))
        }

        /// With `p = x·y < 2^2b`, `c = ⌊p/2^(b−2)⌋ < 2^52` and `t =
        /// ⌊c·μ/2^52⌋` is `⌊p/q⌋` or up to two less (each floor costs
        /// under one), so `p − t·q < 3q < 2^52` is exact in the low 52 bits.
        #[target_feature(enable = "avx512f,avx512ifma")]
        unsafe fn mul(self, x: __m512i, y: __m512i) -> __m512i {
            let zero = _mm512_setzero_si512();
            let lo = _mm512_madd52lo_epu64(zero, x, y);
            let hi = _mm512_madd52hi_epu64(zero, x, y);
            let c =
                _mm512_or_si512(_mm512_srlv_epi64(lo, self.shift), _mm512_sllv_epi64(hi, self.up));
            let t = _mm512_madd52hi_epu64(zero, c, self.mu);
            let r = _mm512_madd52lo_epu64(lo, t, self.neg_q);
            let r = _mm512_and_si512(r, _mm512_set1_epi64(mask52()));
            self.fold(self.fold(r, self.q), self.q)
        }
    }

    /// Three 52-bit limbs per lane, least significant first.
    type Limbs = [__m512i; 3];

    #[target_feature(enable = "avx512f")]
    fn splat3(x: &[u64; 3]) -> Limbs {
        [splat64(x[0]), splat64(x[1]), splat64(x[2])]
    }

    /// `x mod 2^156` with every limb below `2^52`: carries (or borrows,
    /// the shift is arithmetic) move up, the top limb's excess drops.
    #[target_feature(enable = "avx512f")]
    fn carry([x0, x1, x2]: Limbs) -> Limbs {
        let m = _mm512_set1_epi64(mask52());
        let x1 = _mm512_add_epi64(x1, _mm512_srai_epi64::<52>(x0));
        let x2 = _mm512_add_epi64(x2, _mm512_srai_epi64::<52>(x1));
        [_mm512_and_si512(x0, m), _mm512_and_si512(x1, m), _mm512_and_si512(x2, m)]
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn lo(acc: __m512i, x: __m512i, y: __m512i) -> __m512i {
        _mm512_madd52lo_epu64(acc, x, y)
    }

    #[target_feature(enable = "avx512f,avx512ifma")]
    fn hi(acc: __m512i, x: __m512i, y: __m512i) -> __m512i {
        _mm512_madd52hi_epu64(acc, x, y)
    }

    /// `acc + x·y mod 2^156`, limbs not carried: nine IFMA.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_low([r0, r1, r2]: Limbs, [x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Limbs {
        [
            lo(r0, x0, y0),
            lo(lo(hi(r1, x0, y0), x0, y1), x1, y0),
            lo(lo(lo(hi(hi(r2, x0, y1), x1, y0), x0, y2), x1, y1), x2, y0),
        ]
    }

    /// `⌊x·y/2^156⌋` or one less, carried: fourteen IFMA. What it leaves
    /// out — the products of weight below `2^104` and the low 52 bits of
    /// the sum at `2^104` — is below `2^157`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_top([x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Limbs {
        let zero = _mm512_setzero_si512();
        let at104 = hi(hi(lo(lo(lo(zero, x0, y2), x1, y1), x2, y0), x0, y1), x1, y0);
        let t0 = lo(lo(hi(hi(hi(zero, x0, y2), x1, y1), x2, y0), x1, y2), x2, y1);
        let t0 = _mm512_add_epi64(t0, _mm512_srli_epi64::<52>(at104));
        let t1 = lo(hi(hi(zero, x1, y2), x2, y1), x2, y2);
        carry([t0, t1, hi(zero, x2, y2)])
    }

    /// [`Wide`] in every lane.
    #[derive(Clone, Copy)]
    pub(super) struct WideLanes {
        q: Limbs,
        two_q: Limbs,
        neg_q: Limbs,
        mu: Limbs,
        /// `b − 2 = 52·limbs + bits`: `bits` and `52 − bits`.
        down: __m512i,
        up: __m512i,
        limbs: usize,
    }

    impl Splat for Wide {
        type Elem = u128;
        type Lanes = WideLanes;

        #[target_feature(enable = "avx512f")]
        unsafe fn lanes(self) -> WideLanes {
            WideLanes {
                q: splat3(&self.q),
                two_q: splat3(&self.two_q),
                neg_q: splat3(&self.neg_q),
                mu: splat3(&self.mu),
                down: splat64(self.bits),
                up: splat64(52 - self.bits),
                limbs: self.limbs,
            }
        }
    }

    impl Arith for WideLanes {
        type Elem = u128;
        type V = Limbs;
        /// The twiddle `w` and `w′·2^28`, its quotient placed so that the
        /// product's top three limbs are `⌊a·w′/2^128⌋`.
        type Tw = (Limbs, Limbs);

        #[target_feature(enable = "avx512f")]
        unsafe fn q(self) -> Limbs {
            self.q
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn two_q(self) -> Limbs {
            self.two_q
        }

        /// Eight `u128` are sixteen words: the low and the high words
        /// gathered apart, then cut at bits 52 and 104.
        #[target_feature(enable = "avx512f")]
        unsafe fn load(self, x: &[u128]) -> Limbs {
            let w = words(x);
            let (a, b) = (load(w), load(w.get(8..).unwrap_or_default()));
            let lo = _mm512_permutex2var_epi64(a, from_fn(|l| 2 * l), b);
            let hi = _mm512_permutex2var_epi64(a, from_fn(|l| 2 * l + 1), b);
            let m = _mm512_set1_epi64(mask52());
            let mid = _mm512_or_si512(_mm512_srli_epi64::<52>(lo), _mm512_slli_epi64::<12>(hi));
            [_mm512_and_si512(lo, m), _mm512_and_si512(mid, m), _mm512_srli_epi64::<40>(hi)]
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn store(self, x: &mut [u128], [x0, x1, x2]: Limbs) {
            let lo = _mm512_or_si512(x0, _mm512_slli_epi64::<52>(x1));
            let hi = _mm512_or_si512(_mm512_srli_epi64::<12>(x1), _mm512_slli_epi64::<40>(x2));
            let w = words_mut(x);
            let (a, b) = w.split_at_mut(w.len().min(8));
            store(a, _mm512_permutex2var_epi64(lo, from_fn(|l| 8 * (l & 1) + l / 2), hi));
            store(b, _mm512_permutex2var_epi64(lo, from_fn(|l| 8 * (l & 1) + l / 2 + 4), hi));
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn splat(self, w: &ShoupMul<u128>) -> Self::Tw {
            let split = |x: u128| {
                [x as u64, (x >> 52) as u64, (x >> 104) as u64].map(|l| l & mask52() as u64)
            };
            let v = w.quotient << 28;
            (
                splat3(&split(w.value)),
                splat3(&[
                    v as u64 & mask52() as u64,
                    (w.quotient >> 24) as u64 & mask52() as u64,
                    (w.quotient >> 76) as u64,
                ]),
            )
        }

        /// A twiddle is four words: value low, value high, quotient low,
        /// quotient high.
        #[target_feature(enable = "avx512f")]
        unsafe fn pick(self, chunk: &Chunk, w: &[ShoupMul<u128>], s: usize) -> Self::Tw {
            let w = words(w);
            let [vl, vh, ql, qh] = chunk.pick[s - 1].map(|idx| field(w, idx));
            let m = _mm512_set1_epi64(mask52());
            let value = [
                _mm512_and_si512(vl, m),
                _mm512_and_si512(
                    _mm512_or_si512(_mm512_srli_epi64::<52>(vl), _mm512_slli_epi64::<12>(vh)),
                    m,
                ),
                _mm512_srli_epi64::<40>(vh),
            ];
            let quotient = [
                _mm512_and_si512(_mm512_slli_epi64::<28>(ql), m),
                _mm512_and_si512(
                    _mm512_or_si512(_mm512_srli_epi64::<24>(ql), _mm512_slli_epi64::<40>(qh)),
                    m,
                ),
                _mm512_srli_epi64::<12>(qh),
            ];
            (value, quotient)
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn permute(self, idx: [__m512i; 2], (u, v): (Limbs, Limbs)) -> (Limbs, Limbs) {
            let at = |i: usize| [0, 1, 2].map(|l| _mm512_permutex2var_epi64(u[l], idx[i], v[l]));
            (at(0), at(1))
        }

        /// `t = x − m`, borrows carried; where `t` is not negative its
        /// limbs replace `x`'s.
        #[target_feature(enable = "avx512f")]
        unsafe fn fold(self, [x0, x1, x2]: Limbs, [m0, m1, m2]: Limbs) -> Limbs {
            let t0 = _mm512_sub_epi64(x0, m0);
            let t1 = _mm512_add_epi64(_mm512_sub_epi64(x1, m1), _mm512_srai_epi64::<52>(t0));
            let t2 = _mm512_add_epi64(_mm512_sub_epi64(x2, m2), _mm512_srai_epi64::<52>(t1));
            let take = _mm512_cmpge_epi64_mask(t2, _mm512_setzero_si512());
            let m = _mm512_set1_epi64(mask52());
            [
                _mm512_mask_and_epi64(x0, take, t0, m),
                _mm512_mask_and_epi64(x1, take, t1, m),
                _mm512_mask_mov_epi64(x2, take, t2),
            ]
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn add(self, x: Limbs, y: Limbs) -> Limbs {
            carry([0, 1, 2].map(|l| _mm512_add_epi64(x[l], y[l])))
        }

        #[target_feature(enable = "avx512f")]
        unsafe fn sub(self, x: Limbs, y: Limbs) -> Limbs {
            let two_q = self.two_q;
            carry([0, 1, 2].map(|l| _mm512_sub_epi64(_mm512_add_epi64(x[l], two_q[l]), y[l])))
        }

        /// `r = a·w − Q′·q` with `Q′` from [`mul_top`]: in `[0, 2q)` as
        /// Harvey's lemma has it for the exact `Q` (module docs).
        #[target_feature(enable = "avx512f,avx512ifma")]
        unsafe fn mul_lazy(self, a: Limbs, (w, v): Self::Tw) -> Limbs {
            let zero = _mm512_setzero_si512();
            let quotient = mul_top(a, v);
            let r = mul_low(mul_low([zero; 3], a, w), quotient, self.neg_q);
            carry(r)
        }

        /// `p = x·y < 2^220` in five limbs, `c = ⌊p/2^(b−2)⌋ < 2^112` and
        /// `t` = [`mul_top`]`(c, μ)`: `⌊p/q⌋` or up to two less, so `p −
        /// t·q < 3q` is exact modulo `2^156`.
        #[target_feature(enable = "avx512f,avx512ifma")]
        #[inline]
        unsafe fn mul(self, [x0, x1, x2]: Limbs, [y0, y1, y2]: Limbs) -> Limbs {
            let zero = _mm512_setzero_si512();
            let m = _mm512_set1_epi64(mask52());
            // `x2·y2 < 2^12`: its high half is zero.
            let mut p = [
                lo(zero, x0, y0),
                lo(lo(hi(zero, x0, y0), x0, y1), x1, y0),
                lo(lo(lo(hi(hi(zero, x0, y1), x1, y0), x0, y2), x1, y1), x2, y0),
                lo(lo(hi(hi(hi(zero, x0, y2), x1, y1), x2, y0), x1, y2), x2, y1),
                lo(hi(hi(zero, x1, y2), x2, y1), x2, y2),
            ];
            for i in 0..4 {
                p[i + 1] = _mm512_add_epi64(p[i + 1], _mm512_srli_epi64::<52>(p[i]));
                p[i] = _mm512_and_si512(p[i], m);
            }
            let [p0, p1, p2, p3, p4] = p;
            let from = match self.limbs {
                0 => [p0, p1, p2, p3],
                1 => [p1, p2, p3, p4],
                _ => [p2, p3, p4, zero],
            };
            let c = [0, 1, 2].map(|i| {
                let (a, b) = (from[i], from[i + 1]);
                _mm512_and_si512(
                    _mm512_or_si512(_mm512_srlv_epi64(a, self.down), _mm512_sllv_epi64(b, self.up)),
                    m,
                )
            });
            let t = mul_top(c, self.mu);
            let r = carry(mul_low([p0, p1, p2], t, self.neg_q));
            self.fold(self.fold(r, self.q), self.q)
        }
    }

    /// The wide lazy product of eight `a` by the twiddle `w`, and the
    /// estimate `Q′` of `⌊a·w′/2^128⌋` it used.
    ///
    /// # Safety
    ///
    /// As for [`forward`].
    #[cfg(test)]
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn lazy_products(
        r: Wide,
        a: &[u128; 8],
        w: &ShoupMul<u128>,
    ) -> [[u128; 8]; 2] {
        let k = r.lanes();
        let (a, tw) = (k.load(a), k.splat(w));
        let mut out = [[0; 8]; 2];
        k.store(&mut out[0], k.mul_lazy(a, tw));
        k.store(&mut out[1], mul_top(a, tw.1));
        out
    }

    /// One Cooley–Tukey butterfly, `[0, 4q)` in and out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn ct<A: Arith>(k: A, x: A::V, y: A::V, w: A::Tw) -> (A::V, A::V) {
        let u = k.fold(x, k.two_q());
        let v = k.mul_lazy(y, w);
        (k.add(u, v), k.sub(u, v))
    }

    /// One Gentleman–Sande butterfly, `[0, 2q)` in and out.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn gs<A: Arith>(k: A, u: A::V, v: A::V, w: A::Tw) -> (A::V, A::V) {
        (k.fold(k.add(u, v), k.two_q()), k.mul_lazy(k.sub(u, v), w))
    }

    /// The inverse's closing butterfly: both sides multiplied, by `n⁻¹`
    /// and by the last twiddle times `n⁻¹`, and corrected.
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn close<A: Arith>(k: A, u: A::V, v: A::V, [n_inv, last]: [A::Tw; 2]) -> (A::V, A::V) {
        (
            k.fold(k.mul_lazy(k.add(u, v), n_inv), k.q()),
            k.fold(k.mul_lazy(k.sub(u, v), last), k.q()),
        )
    }

    /// A register pair's element `(reg, lane)` as a `vpermt2q` index.
    fn at(reg: i64, lane: i64) -> i64 {
        8 * reg + lane
    }

    /// The index vectors of the last four forward stages on a 16-element
    /// chunk, and of the first four inverse ones. Element `16c + 8r + l`
    /// of a chunk starts in lane `l` of vector `r`; stage `s` (1–3) pairs
    /// the elements `8 >> s` apart, so before it lane bit `3 − s` and the
    /// vector bit change places, and block `l >> (3 − s)` of the stage's
    /// `2^s` owns lane `l`.
    pub(super) struct Chunk {
        /// Per stage `s − 1`: the two halves of the exchange.
        swap: [[__m512i; 2]; 3],
        /// Per stage `s − 1` and word `k` of a twiddle: where lane `l`
        /// finds that word of its twiddle among the stage's, `l >> (3 − s)`.
        pick: [[__m512i; 4]; 3],
        /// After the forward's last stage vector `r`, lane `l` holds
        /// element `2l + r`: back to natural order (the inverse's first
        /// exchange is its inverse).
        unzip: [__m512i; 2],
        zip: [__m512i; 2],
    }

    impl Chunk {
        /// The chunk plan for twiddles of `stride` words each.
        #[target_feature(enable = "avx512f")]
        fn new(stride: i64) -> Self {
            let pick = |s: i64| [0, 1, 2, 3].map(|k| from_fn(|l| stride * (l >> (3 - s)) + k));
            let swap = |j: i64| {
                let side = |bit: i64| from_fn(|l| at(l >> j & 1, l & !(1 << j) | bit << j));
                [side(0), side(1)]
            };
            let word = |w: i64| at(w & 1, w >> 1);
            Self {
                swap: [swap(2), swap(1), swap(0)],
                pick: [pick(1), pick(2), pick(3)],
                unzip: [from_fn(word), from_fn(|l| word(l + 8))],
                zip: [from_fn(|l| 2 * l), from_fn(|l| 2 * l + 1)],
            }
        }
    }

    /// # Safety
    ///
    /// The host supports `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn forward<R: Splat>(r: R, a: &mut [R::Elem], w: &[ShoupMul<R::Elem>]) {
        let (k, n) = (r.lanes(), a.len());
        let vecs = a.as_chunks_mut::<8>().0;
        let mut t = n / 2;
        if n.trailing_zeros() % 2 == 1 {
            let tw = k.splat(&w[1]);
            let (lo, hi) = vecs.split_at_mut(n / 16);
            for (x, y) in lo.iter_mut().zip(hi) {
                let (u, v) = ct(k, k.load(x), k.load(y), tw);
                k.store(x, u);
                k.store(y, v);
            }
            t /= 2;
        }
        // Stages `t` and `t/2` over blocks of `2t` elements.
        while t >= 16 {
            let m = n / (2 * t);
            for (i, block) in vecs.chunks_exact_mut(t / 4).enumerate() {
                let (w1, w2, w3) = (
                    k.splat(&w[m + i]),
                    k.splat(&w[2 * m + 2 * i]),
                    k.splat(&w[2 * m + 2 * i + 1]),
                );
                for [x0, x1, x2, x3] in crate::lazy::quarters(block) {
                    let (a0, a2) = ct(k, k.load(x0), k.load(x2), w1);
                    let (a1, a3) = ct(k, k.load(x1), k.load(x3), w1);
                    let (b0, b1) = ct(k, a0, a1, w2);
                    let (b2, b3) = ct(k, a2, a3, w3);
                    k.store(x0, b0);
                    k.store(x1, b1);
                    k.store(x2, b2);
                    k.store(x3, b3);
                }
            }
            t /= 4;
        }
        let chunk = Chunk::new(words(&w[..1]).len() as i64);
        for (c, [x, y]) in vecs.as_chunks_mut::<2>().0.iter_mut().enumerate() {
            let base = n / 16 + c;
            let uv = ct(k, k.load(x), k.load(y), k.splat(&w[base]));
            // Unrolled by hand, so that each stage's index vectors and
            // twiddle slice are constants.
            macro_rules! stage {
                ($uv:expr, $s:literal) => {{
                    let (u, v) = k.permute(chunk.swap[$s - 1], $uv);
                    ct(k, u, v, k.pick(&chunk, &w[base << $s..][..1 << $s], $s))
                }};
            }
            let uv = stage!(stage!(stage!(uv, 1), 2), 3);
            let correct = |x| k.fold(k.fold(x, k.two_q()), k.q());
            let (u, v) = k.permute(chunk.unzip, (correct(uv.0), correct(uv.1)));
            k.store(x, u);
            k.store(y, v);
        }
    }

    /// # Safety
    ///
    /// As for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn inverse<R: Splat>(
        r: R,
        a: &mut [R::Elem],
        w: &[ShoupMul<R::Elem>],
        close_by: [&ShoupMul<R::Elem>; 2],
    ) {
        let (k, n) = (r.lanes(), a.len());
        let last = close_by.map(|c| k.splat(c));
        let vecs = a.as_chunks_mut::<8>().0;
        let chunk = Chunk::new(words(&w[..1]).len() as i64);
        for (c, [x, y]) in vecs.as_chunks_mut::<2>().0.iter_mut().enumerate() {
            let base = n / 16 + c;
            let uv = k.permute(chunk.zip, (k.load(x), k.load(y)));
            macro_rules! stage {
                ($uv:expr, $s:literal) => {{
                    let (u, v) = $uv;
                    let uv = gs(k, u, v, k.pick(&chunk, &w[base << $s..][..1 << $s], $s));
                    k.permute(chunk.swap[$s - 1], uv)
                }};
            }
            let uv = stage!(stage!(stage!(uv, 3), 2), 1);
            let (u, v) = if n == 16 {
                close(k, uv.0, uv.1, last)
            } else {
                gs(k, uv.0, uv.1, k.splat(&w[base]))
            };
            k.store(x, u);
            k.store(y, v);
        }
        // The stage pairing elements `t` apart, over blocks of `2t`: the
        // closing one when it is the last.
        let mut t = 16;
        if n.trailing_zeros() % 2 == 1 {
            let m = n / 32;
            for (i, block) in vecs.chunks_exact_mut(4).enumerate() {
                let tw = k.splat(&w[m + i]);
                let (lo, hi) = block.split_at_mut(2);
                for (x, y) in lo.iter_mut().zip(hi) {
                    let (u, v) = if n == 32 {
                        close(k, k.load(x), k.load(y), last)
                    } else {
                        gs(k, k.load(x), k.load(y), tw)
                    };
                    k.store(x, u);
                    k.store(y, v);
                }
            }
            t = 32;
        }
        // Stages `t` and `2t` over blocks of `4t`.
        while 4 * t <= n {
            let h = n / (4 * t);
            for (i, block) in vecs.chunks_exact_mut(t / 2).enumerate() {
                let (w0, w1, w2) = (
                    k.splat(&w[2 * h + 2 * i]),
                    k.splat(&w[2 * h + 2 * i + 1]),
                    k.splat(&w[h + i]),
                );
                for [x0, x1, x2, x3] in crate::lazy::quarters(block) {
                    let (a0, a1) = gs(k, k.load(x0), k.load(x1), w0);
                    let (a2, a3) = gs(k, k.load(x2), k.load(x3), w1);
                    let ((b0, b2), (b1, b3)) = if 4 * t == n {
                        (close(k, a0, a2, last), close(k, a1, a3, last))
                    } else {
                        (gs(k, a0, a2, w2), gs(k, a1, a3, w2))
                    };
                    k.store(x0, b0);
                    k.store(x1, b1);
                    k.store(x2, b2);
                    k.store(x3, b3);
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
    pub(super) unsafe fn products<R: Splat>(
        r: R,
        out: &mut [R::Elem],
        x: Option<&[R::Elem]>,
        y: &[R::Elem],
        acc: Option<&[R::Elem]>,
    ) {
        let k = r.lanes();
        for i in (0..out.len()).step_by(8) {
            let x = x.map_or_else(|| k.load(&out[i..]), |x| k.load(&x[i..]));
            let mut p = k.mul(x, k.load(&y[i..]));
            if let Some(acc) = acc {
                p = k.fold(k.add(p, k.load(&acc[i..])), k.q());
            }
            k.store(&mut out[i..], p);
        }
    }

    /// `a = a·c`.
    ///
    /// # Safety
    ///
    /// As for [`forward`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn scalar_mul<R: Splat>(r: R, a: &mut [R::Elem], c: &ShoupMul<R::Elem>) {
        let k = r.lanes();
        let c = k.splat(c);
        for i in (0..a.len()).step_by(8) {
            let p = k.fold(k.mul_lazy(k.load(&a[i..]), c), k.q());
            k.store(&mut a[i..], p);
        }
    }
}

#[cfg(test)]
mod tests {
    use cofhee_arith::{primes::ntt_prime, Barrett128, Barrett64, LazyRing, ModRing};

    use super::{host_has_ifma, WIDE_BOUND, WORD_BOUND};
    use crate::{ntt, pointwise, HarveyNtt};

    /// `len` values below `bound` as ring elements, the first and last of
    /// them the range's ends.
    fn values<E: TryFrom<u128>>(len: usize, bound: u128, seed: u64) -> Vec<E> {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
            state
        };
        let mut v: Vec<u128> =
            (0..len).map(|_| (u128::from(next()) << 64 | u128::from(next())) % bound).collect();
        (v[0], v[len - 1]) = (bound - 1, 0);
        v.into_iter().map(|x| E::try_from(x).ok().expect("below the container's width")).collect()
    }

    /// Every vector kernel on `n` elements of `ring` against the scalar
    /// stages and loops (called directly, whichever kernel the plan picked)
    /// and the strict oracle, over the full lazy input ranges: the lanes
    /// engage exactly when `q < bound` and `n ≥ 16`.
    fn check<R: LazyRing>(ring: &R, n: usize, bound: u128)
    where
        R::Elem: TryFrom<u128>,
    {
        let q = ring.modulus();
        let plan = HarveyNtt::new(ring, n).unwrap();
        let wants_lanes = q < bound && n >= 16;
        if wants_lanes && !host_has_ifma() {
            println!("skipped: no avx512ifma (q = {q}, n = {n})");
        }
        let lanes = wants_lanes && host_has_ifma();
        assert_eq!(plan.kernel(), if lanes { "avx512ifma" } else { "scalar" }, "q = {q}, n = {n}");
        let canonical =
            |v: &[R::Elem]| v.iter().map(|&x| ring.from_u128(ring.to_u128(x))).collect::<Vec<_>>();

        // Forward, `[0, 4q)` in.
        let a: Vec<R::Elem> = values(n, 4 * q, q as u64 ^ n as u64);
        let (mut fast, mut scalar, mut strict) = (a.clone(), a.clone(), canonical(&a));
        plan.forward_inplace(&mut fast).unwrap();
        plan.forward_stages(&mut scalar);
        ntt::forward_inplace(ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(fast, scalar, "forward, q = {q}, n = {n}");
        assert_eq!(fast, strict, "forward, q = {q}, n = {n}");

        // Inverse, `[0, 2q)` in.
        let b: Vec<R::Elem> = values(n, 2 * q, q as u64 ^ (3 * n as u64));
        let (mut fast, mut scalar, mut strict) = (b.clone(), b.clone(), canonical(&b));
        plan.inverse_inplace(&mut fast).unwrap();
        plan.inverse_stages(&mut scalar);
        ntt::inverse_inplace(ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(fast, scalar, "inverse, q = {q}, n = {n}");
        assert_eq!(fast, strict, "inverse, q = {q}, n = {n}");

        // The multiply passes, canonical in.
        let [x, y, acc]: [Vec<R::Elem>; 3] = [
            values(n, q, 5 + n as u64),
            values(n, q, (q as u64).wrapping_mul(7)),
            values(n, q, 11 ^ q as u64),
        ];
        let product: Vec<R::Elem> = x.iter().zip(&y).map(|(&x, &y)| ring.mul(x, y)).collect();
        let mut out = vec![R::Elem::default(); n];
        plan.hadamard_intt_into(&x, &y, &mut out).unwrap();
        let mut strict = product.clone();
        ntt::inverse_inplace(ring, &mut strict, plan.tables()).unwrap();
        assert_eq!(out, strict, "hadamard_intt_into, q = {q}, n = {n}");
        let mut fast = x.clone();
        pointwise::mul_assign(ring, &mut fast, &y).unwrap();
        assert_eq!(fast, product, "mul_assign, q = {q}, n = {n}");
        pointwise::mul_add_into(ring, &mut out, &x, &y, &acc).unwrap();
        let sums: Vec<R::Elem> = product.iter().zip(&acc).map(|(&p, &c)| ring.add(p, c)).collect();
        assert_eq!(out, sums, "mul_add_into, q = {q}, n = {n}");
        let c = ring.from_u128(q - 1 - (n as u128 % (q - 1)));
        let mut fast = x.clone();
        pointwise::scalar_mul_assign(ring, &mut fast, c);
        let scaled: Vec<R::Elem> = x.iter().map(|&x| ring.mul(x, c)).collect();
        assert_eq!(fast, scaled, "scalar_mul_assign, q = {q}, n = {n}");
    }

    #[test]
    fn lanes_match_the_scalar_stages_and_the_strict_oracle() {
        for log_n in 1..=14 {
            let n = 1 << log_n;
            // The `4q < 2^52` edge is the largest 50-bit NTT prime; a
            // 51-bit one must stay scalar.
            for bits in [17, 33, 43, 50, 51] {
                let ring = Barrett64::new(ntt_prime(bits, n).unwrap() as u64).unwrap();
                check(&ring, n, WORD_BOUND);
            }
        }
    }

    #[test]
    fn wide_lanes_match_the_scalar_stages_and_the_strict_oracle() {
        for log_n in 1..=14 {
            let n = 1 << log_n;
            // The largest 110-bit NTT prime is the edge of `4q < 2^112`; a
            // 111-bit one must stay scalar.
            for bits in [62, 89, 109, 110, 111] {
                let ring = Barrett128::new(ntt_prime(bits, n).unwrap()).unwrap();
                check(&ring, n, WIDE_BOUND);
            }
        }
    }

    /// The wide lazy product's quotient estimate against the exact
    /// `⌊a·w′/2^128⌋` (`U256`), over the forward butterflies' `[0, 4q)`:
    /// one short at most, and where it is short the product still lies in
    /// Harvey's `[0, 2q)`. The ends of the ranges (`a = 4q − 1` by `w = q
    /// − 1`, the first pair of each list) reach the short case on the
    /// 62-bit prime; random operands almost never do.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_wide_quotient_estimate_is_at_most_one_short() {
        use cofhee_arith::U256;

        if !host_has_ifma() {
            println!("skipped: no avx512ifma (the wide quotient estimate)");
            return;
        }
        let (mut short, mut total) = (0, 0);
        for bits in [62, 89, 109, 110] {
            let q = ntt_prime(bits, 1 << 12).unwrap();
            let ring = Barrett128::new(q).unwrap();
            let Some(super::Ring::Wide(k)) = super::Lanes::<u128>::new(q, 16).map(|l| l.ring)
            else {
                panic!("a {bits}-bit modulus takes the wide lanes");
            };
            let a: Vec<u128> = values(4096, 4 * q, q as u64);
            let w: Vec<u128> = values(512, q, 3 ^ q as u64);
            for (a, w) in a.chunks_exact(8).zip(w.iter().cycle()) {
                let w = ring.shoup(*w);
                // SAFETY: the host has both features.
                let [products, estimates] =
                    unsafe { super::x86::lazy_products(k, a.try_into().unwrap(), &w) };
                for ((&a, estimate), product) in a.iter().zip(estimates).zip(products) {
                    let wide = U256::from_u128(a).widening_mul(U256::from_u128(w.quotient)).0;
                    let exact = wide.shr(128).low_u128();
                    assert!(exact - estimate <= 1, "q = {q}, a = {a}, w = {}", w.value);
                    assert!(product < 2 * q, "q = {q}, a = {a}, w = {}", w.value);
                    assert_eq!(product % q, ring.mul(ring.from_u128(a), w.value));
                    short += exact - estimate;
                    total += 1;
                }
            }
        }
        assert!(short > 0, "no short estimate: the case is not exercised");
        println!("Q − Q′ = 1 in {short} of {total} estimates, 0 in the rest");
    }

    #[test]
    fn multiply_passes_cover_lengths_off_the_vector_width() {
        if !host_has_ifma() {
            println!("skipped: no avx512ifma (lengths off the vector width)");
        }
        fn at<R: LazyRing>(ring: &R)
        where
            R::Elem: TryFrom<u128>,
        {
            let q = ring.modulus();
            for len in [16, 17, 23, 31, 33, 40, 63] {
                let [x, y, acc]: [Vec<R::Elem>; 3] =
                    [values(len, q, 3), values(len, q, 9), values(len, q, 27)];
                let product: Vec<R::Elem> =
                    x.iter().zip(&y).map(|(&x, &y)| ring.mul(x, y)).collect();
                let mut fast = x.clone();
                pointwise::mul_assign(ring, &mut fast, &y).unwrap();
                assert_eq!(fast, product, "q = {q}, len = {len}");
                let mut out = vec![ring.from_u128(q - 1); len];
                pointwise::mul_add_into(ring, &mut out, &x, &y, &acc).unwrap();
                let sums: Vec<R::Elem> =
                    product.iter().zip(&acc).map(|(&p, &c)| ring.add(p, c)).collect();
                assert_eq!(out, sums, "q = {q}, len = {len}");
                let c = ring.from_u128(q - 2);
                pointwise::scalar_mul_assign(ring, &mut fast, c);
                let scaled: Vec<R::Elem> = product.iter().map(|&p| ring.mul(p, c)).collect();
                assert_eq!(fast, scaled, "q = {q}, len = {len}");
            }
        }
        at(&Barrett64::new(ntt_prime(43, 8).unwrap() as u64).unwrap());
        at(&Barrett128::new(ntt_prime(109, 8).unwrap()).unwrap());
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
