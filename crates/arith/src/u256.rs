//! A 256-bit unsigned integer.
//!
//! CoFHEE natively supports coefficients up to 128 bits (Section III-A of
//! the paper), so modular products are up to 256 bits wide and Barrett
//! reduction needs 256 × 256 → 512-bit intermediates. [`U256`] provides
//! exactly the operations those paths need, from scratch, with no external
//! big-integer dependency.
//!
//! # Examples
//!
//! ```
//! use cofhee_arith::U256;
//!
//! let a = U256::from_u128(1 << 100);
//! let b = a << 100; // 2^200
//! assert_eq!(b >> 100, a);
//! let (q, r) = b.div_rem(U256::from_u128(10));
//! assert_eq!(q * U256::from_u128(10) + r, b);
//! ```

use core::cmp::Ordering;
use core::fmt;
use core::ops::{Add, BitAnd, BitOr, BitXor, Mul, Shl, Shr, Sub};

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// Arithmetic follows the conventions of the primitive integer types:
/// `+`, `-` and `*` panic on overflow in debug terms — they are the
/// wrapping operations documented per method — while `checked_*`,
/// `overflowing_*` and `wrapping_*` variants expose explicit behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The additive identity.
    pub const ZERO: Self = Self { limbs: [0; 4] };
    /// The multiplicative identity.
    pub const ONE: Self = Self { limbs: [1, 0, 0, 0] };
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: Self = Self { limbs: [u64::MAX; 4] };
    /// Number of bits in the representation.
    pub const BITS: u32 = 256;

    /// Creates a value from little-endian 64-bit limbs.
    #[inline]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        Self { limbs }
    }

    /// Returns the little-endian 64-bit limbs.
    #[inline]
    pub const fn to_limbs(self) -> [u64; 4] {
        self.limbs
    }

    /// Creates a value from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        Self { limbs: [v as u64, (v >> 64) as u64, 0, 0] }
    }

    /// Creates a value from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        Self { limbs: [v, 0, 0, 0] }
    }

    /// Builds a value from 128-bit low and high halves.
    #[inline]
    pub const fn from_halves(lo: u128, hi: u128) -> Self {
        Self { limbs: [lo as u64, (lo >> 64) as u64, hi as u64, (hi >> 64) as u64] }
    }

    /// Returns the low 128 bits, discarding the rest.
    #[inline]
    pub const fn low_u128(self) -> u128 {
        (self.limbs[0] as u128) | ((self.limbs[1] as u128) << 64)
    }

    /// Returns the high 128 bits.
    #[inline]
    pub(crate) const fn high_u128(self) -> u128 {
        (self.limbs[2] as u128) | ((self.limbs[3] as u128) << 64)
    }

    /// Converts to `u128` if the value fits.
    #[inline]
    pub fn to_u128(self) -> Option<u128> {
        if self.high_u128() == 0 {
            Some(self.low_u128())
        } else {
            None
        }
    }

    /// Returns `true` when the value is zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.limbs == [0; 4]
    }

    /// Number of leading zero bits.
    pub fn leading_zeros(self) -> u32 {
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if limb != 0 {
                return (3 - i as u32) * 64 + limb.leading_zeros();
            }
        }
        256
    }

    /// Position of the most significant set bit plus one (0 for zero).
    #[inline]
    pub fn bits(self) -> u32 {
        256 - self.leading_zeros()
    }

    /// Returns bit `i` (counted from the least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub fn bit(self, i: u32) -> bool {
        assert!(i < 256, "bit index {i} out of range");
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Addition reporting overflow.
    #[inline]
    #[allow(clippy::needless_range_loop)] // carry chain is sequential by limb index
    pub(crate) fn overflowing_add(self, rhs: Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (Self { limbs: out }, carry)
    }

    /// Wrapping addition modulo `2^256`.
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Subtraction reporting borrow.
    #[inline]
    #[allow(clippy::needless_range_loop)] // borrow chain is sequential by limb index
    pub(crate) fn overflowing_sub(self, rhs: Self) -> (Self, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (Self { limbs: out }, borrow)
    }

    /// Wrapping subtraction modulo `2^256`.
    #[inline]
    pub fn wrapping_sub(self, rhs: Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction; `None` on underflow.
    #[inline]
    pub fn checked_sub(self, rhs: Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 256 × 256 → 512-bit multiplication, returned as `(low, high)`.
    pub fn widening_mul(self, rhs: Self) -> (Self, Self) {
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u64 = 0;
            for j in 0..4 {
                let t = prod[i + j] as u128
                    + (self.limbs[i] as u128) * (rhs.limbs[j] as u128)
                    + carry as u128;
                prod[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            prod[i + 4] = carry;
        }
        (
            Self { limbs: [prod[0], prod[1], prod[2], prod[3]] },
            Self { limbs: [prod[4], prod[5], prod[6], prod[7]] },
        )
    }

    /// Wrapping multiplication modulo `2^256`.
    #[inline]
    pub fn wrapping_mul(self, rhs: Self) -> Self {
        self.widening_mul(rhs).0
    }

    /// Checked multiplication; `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: Self) -> Option<Self> {
        let (lo, hi) = self.widening_mul(rhs);
        if hi.is_zero() {
            Some(lo)
        } else {
            None
        }
    }

    /// `self · m + a` modulo `2^256`, four word multiplications — the
    /// Horner step of a mixed-radix reconstruction.
    #[inline]
    pub(crate) fn mul_add_u64(self, m: u64, a: u64) -> Self {
        let mut out = [0u64; 4];
        let mut carry = a;
        for (o, &l) in out.iter_mut().zip(&self.limbs) {
            let t = l as u128 * m as u128 + carry as u128;
            *o = t as u64;
            carry = (t >> 64) as u64;
        }
        Self { limbs: out }
    }

    /// Wrapping left shift; shifts of 256 or more produce zero.
    #[allow(clippy::should_implement_trait)] // u32 shift amount, unlike ops::Shl<Self>
    pub fn shl(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        Self { limbs: out }
    }

    /// Wrapping right shift; shifts of 256 or more produce zero.
    #[allow(clippy::should_implement_trait)] // u32 shift amount, unlike ops::Shr<Self>
    #[allow(clippy::needless_range_loop)] // limbs cross-reference at i + limb_shift
    pub fn shr(self, shift: u32) -> Self {
        if shift >= 256 {
            return Self::ZERO;
        }
        let limb_shift = (shift / 64) as usize;
        let bit_shift = shift % 64;
        let mut out = [0u64; 4];
        for i in 0..4 - limb_shift {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        Self { limbs: out }
    }

    /// Quotient and remainder of a division.
    ///
    /// Knuth's Algorithm D over 64-bit limbs (TAOCP vol. 2, §4.3.1): one
    /// 128-by-64-bit division, one multiply-subtract over the divisor's
    /// limbs and a rare add-back per quotient *limb* — at most four
    /// rounds, and a single pass of word divisions when the divisor fits
    /// one limb. Cheap enough for per-coefficient use (CRT rounding, BFV
    /// decryption), not only for set-up constants.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(self, divisor: Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        let [n0, n1, n2, n3] = self.limbs;
        let (q, r) = div_limbs([n0, n1, n2, n3, 0, 0, 0, 0], divisor.limbs);
        (Self { limbs: [q[0], q[1], q[2], q[3]] }, Self { limbs: r })
    }

    /// Remainder of a division (see [`U256::div_rem`]).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[inline]
    #[allow(clippy::should_implement_trait)] // panics on zero, unlike ops::Rem contract
    pub fn rem(self, divisor: Self) -> Self {
        self.div_rem(divisor).1
    }

    /// Divides the 512-bit value `(high, low)` by `divisor`, returning the
    /// quotient and remainder.
    ///
    /// This is the workhorse behind Barrett constant generation
    /// (`µ = ⌊2^k / q⌋` with `k` up to 256) and CRT reconstruction of
    /// double-width products. Same Algorithm D core as [`U256::div_rem`],
    /// run over the eight numerator limbs: at most eight rounds.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or if the quotient does not fit in 256
    /// bits (that is, if `high >= divisor`).
    pub fn div_rem_wide(low: Self, high: Self, divisor: Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "division by zero");
        assert!(high < divisor, "quotient overflow in wide division");
        let ([l0, l1, l2, l3], [h0, h1, h2, h3]) = (low.limbs, high.limbs);
        let (q, r) = div_limbs([l0, l1, l2, l3, h0, h1, h2, h3], divisor.limbs);
        debug_assert_eq!(q[4..], [0; 4], "high < divisor bounds the quotient");
        (Self { limbs: [q[0], q[1], q[2], q[3]] }, Self { limbs: r })
    }
}

/// Knuth's Algorithm D on little-endian 64-bit limbs: the 512-bit `num`
/// divided by the nonzero 256-bit `den`, as `(quotient, remainder)`.
/// Step names follow TAOCP vol. 2, §4.3.1.
fn div_limbs(num: [u64; 8], den: [u64; 4]) -> ([u64; 8], [u64; 4]) {
    let n = 4 - den.iter().rev().take_while(|&&l| l == 0).count();
    let m = 8 - num.iter().rev().take_while(|&&l| l == 0).count();
    debug_assert!(n > 0, "callers reject a zero divisor");
    let mut quot = [0u64; 8];
    if m < n {
        return (quot, [num[0], num[1], num[2], num[3]]);
    }
    if n == 1 {
        // Single-limb divisor: schoolbook short division, one word
        // division per numerator limb.
        let d = den[0] as u128;
        let mut rem = 0u128;
        for i in (0..m).rev() {
            let cur = (rem << 64) | num[i] as u128;
            quot[i] = (cur / d) as u64;
            rem = cur % d;
        }
        return (quot, [rem as u64, 0, 0, 0]);
    }
    // D1: normalise so the divisor's top limb has its high bit set, which
    // is what keeps the two-limb quotient estimate within 2 of the truth.
    let shift = den[n - 1].leading_zeros();
    let mut v = [0u64; 4];
    let mut u = [0u64; 9];
    if shift == 0 {
        v = den;
        u[..8].copy_from_slice(&num);
    } else {
        for i in (1..n).rev() {
            v[i] = (den[i] << shift) | (den[i - 1] >> (64 - shift));
        }
        v[0] = den[0] << shift;
        u[m] = num[m - 1] >> (64 - shift);
        for i in (1..m).rev() {
            u[i] = (num[i] << shift) | (num[i - 1] >> (64 - shift));
        }
        u[0] = num[0] << shift;
    }
    let (v_top, v_next) = (v[n - 1] as u128, v[n - 2] as u128);
    // D2/D7: one quotient limb per round, most significant first.
    for j in (0..=m - n).rev() {
        // D3: estimate from the top two numerator limbs, refined against
        // the divisor's second limb; afterwards qhat is exact or 1 over.
        let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
        let mut qhat = top / v_top;
        let mut rhat = top % v_top;
        while qhat >> 64 != 0 || qhat * v_next > ((rhat << 64) | u[j + n - 2] as u128) {
            qhat -= 1;
            rhat += v_top;
            if rhat >> 64 != 0 {
                break;
            }
        }
        // D4: u[j..=j+n] -= qhat · v.
        let mut carry = 0u64;
        let mut borrow = false;
        for i in 0..n {
            let p = qhat * v[i] as u128 + carry as u128;
            carry = (p >> 64) as u64;
            let (d, b1) = u[j + i].overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            u[j + i] = d;
            borrow = b1 | b2;
        }
        let (d, b1) = u[j + n].overflowing_sub(carry);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        u[j + n] = d;
        // D5/D6: the estimate was 1 over (probability ≈ 2/2^64 on random
        // data): add the divisor back and drop the carry out of the top.
        if b1 | b2 {
            qhat -= 1;
            let mut carry = 0u64;
            for i in 0..n {
                let s = u[j + i] as u128 + v[i] as u128 + carry as u128;
                u[j + i] = s as u64;
                carry = (s >> 64) as u64;
            }
            u[j + n] = u[j + n].wrapping_add(carry);
        }
        quot[j] = qhat as u64;
    }
    // D8: the remainder is the low n limbs of u, denormalised.
    let mut rem = [0u64; 4];
    for i in 0..n {
        rem[i] = if shift == 0 { u[i] } else { (u[i] >> shift) | (u[i + 1] << (64 - shift)) };
    }
    (quot, rem)
}

impl PartialOrd for U256 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    #[inline]
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for U256 {
    #[inline]
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

impl TryFrom<U256> for u128 {
    type Error = crate::ArithError;

    fn try_from(v: U256) -> Result<Self, Self::Error> {
        v.to_u128().ok_or(crate::ArithError::Overflow { what: "U256 -> u128" })
    }
}

/// Wrapping addition (`2^256` modular); use `overflowing_add` for the carry.
impl Add for U256 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
}

/// Wrapping subtraction (`2^256` modular); use `overflowing_sub` for borrow.
impl Sub for U256 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

/// Wrapping multiplication (`2^256` modular); use `widening_mul` for the
/// full 512-bit product.
impl Mul for U256 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.wrapping_mul(rhs)
    }
}

impl Shl<u32> for U256 {
    type Output = Self;
    #[inline]
    fn shl(self, shift: u32) -> Self {
        U256::shl(self, shift)
    }
}

impl Shr<u32> for U256 {
    type Output = Self;
    #[inline]
    fn shr(self, shift: u32) -> Self {
        U256::shr(self, shift)
    }
}

impl BitAnd for U256 {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        Self { limbs: core::array::from_fn(|i| self.limbs[i] & rhs.limbs[i]) }
    }
}

impl BitOr for U256 {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        Self { limbs: core::array::from_fn(|i| self.limbs[i] | rhs.limbs[i]) }
    }
}

impl BitXor for U256 {
    type Output = Self;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        Self { limbs: core::array::from_fn(|i| self.limbs[i] ^ rhs.limbs[i]) }
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Repeated division by 10^19 (the largest power of ten in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut digits = Vec::new();
        let mut v = *self;
        while !v.is_zero() {
            let (q, r) = v.div_rem(U256::from_u64(CHUNK));
            digits.push(r.limbs[0]);
            v = q;
        }
        let mut s = digits.pop().unwrap_or(0).to_string();
        for d in digits.iter().rev() {
            s.push_str(&format!("{d:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!(
            "{:x}{:016x}{:016x}{:016x}",
            self.limbs[3], self.limbs[2], self.limbs[1], self.limbs[0]
        );
        let trimmed = s.trim_start_matches('0');
        let out = if trimmed.is_empty() { "0" } else { trimmed };
        f.pad_integral(true, "0x", out)
    }
}

impl fmt::UpperHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{self:x}").to_uppercase();
        f.pad_integral(true, "0X", &s)
    }
}

impl fmt::Binary for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.pad_integral(true, "0b", "0");
        }
        let mut s = String::new();
        let top = self.bits();
        for i in (0..top).rev() {
            s.push(if self.bit(i) { '1' } else { '0' });
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        let v = U256::from_u128(u128::MAX);
        assert_eq!(v.to_u128(), Some(u128::MAX));
        assert_eq!(v.high_u128(), 0);
        let w = U256::from_halves(3, 5);
        assert_eq!(w.low_u128(), 3);
        assert_eq!(w.high_u128(), 5);
        assert_eq!(w.to_u128(), None);
    }

    #[test]
    fn addition_carries_across_limbs() {
        let a = U256::from_u128(u128::MAX);
        let b = U256::ONE;
        let s = a + b;
        assert_eq!(s.low_u128(), 0);
        assert_eq!(s.high_u128(), 1);
        let (_, overflow) = U256::MAX.overflowing_add(U256::ONE);
        assert!(overflow);
    }

    #[test]
    fn subtraction_borrows_across_limbs() {
        let a = U256::from_halves(0, 1); // 2^128
        let d = a - U256::ONE;
        assert_eq!(d.low_u128(), u128::MAX);
        assert_eq!(d.high_u128(), 0);
        let (_, borrow) = U256::ZERO.overflowing_sub(U256::ONE);
        assert!(borrow);
        assert_eq!(U256::ZERO.checked_sub(U256::ONE), None);
    }

    #[test]
    fn multiplication_matches_u128_reference() {
        let a = 0x1234_5678_9abc_def0_u128;
        let b = 0xfeed_face_cafe_beef_u128;
        let p = U256::from_u128(a) * U256::from_u128(b);
        assert_eq!(p.to_u128(), Some(a * b));
    }

    #[test]
    fn widening_mul_covers_high_half() {
        let a = U256::from_u128(u128::MAX);
        let (lo, hi) = a.widening_mul(a);
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1.
        assert_eq!(
            lo,
            U256::MAX.wrapping_sub(U256::from_u128(2).shl(128)).wrapping_add(U256::from_u64(2))
        );
        assert!(hi.is_zero());
        let (lo2, hi2) = U256::MAX.widening_mul(U256::MAX);
        assert_eq!(lo2, U256::ONE);
        assert_eq!(hi2, U256::MAX.wrapping_sub(U256::ONE));
    }

    #[test]
    fn shifts_behave_like_primitives() {
        let v = U256::from_u128(0xdead_beef);
        assert_eq!((v << 64).high_u128(), 0);
        assert_eq!((v << 64).low_u128(), 0xdead_beef_u128 << 64);
        assert_eq!((v << 200) >> 200, v);
        assert_eq!(v << 256, U256::ZERO);
        assert_eq!(v >> 256, U256::ZERO);
        assert_eq!(v << 0, v);
        assert_eq!(v >> 0, v);
    }

    #[test]
    fn bits_and_leading_zeros() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::ONE.shl(255).bits(), 256);
        assert_eq!(U256::from_u128(1 << 100).leading_zeros(), 155);
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = U256::from_halves(0x1234_5678, 0x9abc_def0);
        let d = U256::from_u128(0xfff1);
        let (q, r) = a.div_rem(d);
        assert!(r < d);
        assert_eq!(q * d + r, a);
    }

    #[test]
    fn div_rem_small_over_large() {
        let (q, r) = U256::from_u64(5).div_rem(U256::from_u64(7));
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::from_u64(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem(U256::ZERO);
    }

    #[test]
    fn div_rem_wide_reconstructs() {
        // (high, low) = a 512-bit value; divisor chosen so quotient fits.
        let low = U256::from_halves(0xdead_beef, 0x1234);
        let high = U256::from_u64(0xabc);
        let d = U256::from_u64(0xabd).shl(200);
        let (q, r) = U256::div_rem_wide(low, high, d);
        assert!(r < d);
        // Verify q*d + r == (high, low) using widening arithmetic.
        let (p_lo, p_hi) = q.widening_mul(d);
        let (sum_lo, carry) = p_lo.overflowing_add(r);
        let sum_hi = p_hi.wrapping_add(if carry { U256::ONE } else { U256::ZERO });
        assert_eq!(sum_lo, low);
        assert_eq!(sum_hi, high);
    }

    #[test]
    fn div_rem_wide_computes_barrett_mu() {
        // µ = ⌊2^256 / q⌋ for a 128-bit q: high = 1, low = 0 shifted down.
        let q = U256::from_u128((1u128 << 127) | 1);
        let (mu, _) = U256::div_rem_wide(U256::ZERO, U256::ONE, q);
        // µ ≈ 2^129, check bounds: q*µ <= 2^256 < q*(µ+1).
        let (lo, hi) = mu.widening_mul(q);
        assert!(hi <= U256::ONE);
        let (lo2, hi2) = mu.wrapping_add(U256::ONE).widening_mul(q);
        let exceeds = hi2 > U256::ONE || (hi2 == U256::ONE && !lo2.is_zero());
        assert!(exceeds, "µ+1 must overshoot 2^256");
        let _ = lo;
    }

    #[test]
    #[should_panic(expected = "quotient overflow")]
    fn div_rem_wide_rejects_large_high() {
        let _ = U256::div_rem_wide(U256::ZERO, U256::from_u64(7), U256::from_u64(7));
    }

    #[test]
    fn ordering_is_lexicographic_on_limbs() {
        let small = U256::from_u128(u128::MAX);
        let big = U256::from_halves(0, 1);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), Ordering::Equal);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(U256::from_u64(12345).to_string(), "12345");
        let v = U256::from_u128(u128::MAX);
        assert_eq!(v.to_string(), u128::MAX.to_string());
        // 2^128 = 340282366920938463463374607431768211456
        let w = U256::from_halves(0, 1);
        assert_eq!(w.to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn hex_and_binary_formatting() {
        let v = U256::from_u64(255);
        assert_eq!(format!("{v:x}"), "ff");
        assert_eq!(format!("{v:#x}"), "0xff");
        assert_eq!(format!("{v:X}"), "FF");
        assert_eq!(format!("{v:b}"), "11111111");
        assert_eq!(format!("{:x}", U256::ZERO), "0");
    }

    #[test]
    fn bitwise_ops() {
        let a = U256::from_u128(0b1100);
        let b = U256::from_u128(0b1010);
        assert_eq!((a & b).low_u128(), 0b1000);
        assert_eq!((a | b).low_u128(), 0b1110);
        assert_eq!((a ^ b).low_u128(), 0b0110);
    }

    #[test]
    fn bit_indexing() {
        let v = U256::ONE.shl(130);
        assert!(v.bit(130));
        assert!(!v.bit(129));
        assert!(!v.bit(131));
    }
}
