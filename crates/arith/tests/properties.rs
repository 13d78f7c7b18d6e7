//! Property-based tests for the arithmetic substrate.
//!
//! These exercise the algebraic laws both Barrett widths must satisfy and
//! cross-check them against primitive reference arithmetic.

use cofhee_arith::{
    primes, rns::RnsBasis, signed, ArithError, Barrett128, Barrett64, ModRing, U256,
};
use proptest::prelude::*;

const Q54: u64 = 18014398509404161;
const Q109: u128 = 324518553658426726783156020805633;

fn u256_pair() -> impl Strategy<Value = (U256, U256)> {
    (any::<[u64; 4]>(), any::<[u64; 4]>())
        .prop_map(|(a, b)| (U256::from_limbs(a), U256::from_limbs(b)))
}

/// Keeps the low `count` limbs of `limbs`.
fn low_limbs(mut limbs: [u64; 4], count: usize) -> U256 {
    limbs[count..].fill(0);
    U256::from_limbs(limbs)
}

/// Binary long division of the 512-bit `(hi, lo)` by `d`, one
/// shift/compare/subtract per bit: the reference `U256::div_rem` and
/// `U256::div_rem_wide` are held to. Returns `([q_lo, q_hi], r)`.
fn shift_subtract(lo: U256, hi: U256, d: U256) -> ([U256; 2], U256) {
    let (mut quot, mut rem) = ([U256::ZERO; 2], U256::ZERO);
    for i in (0..512u32).rev() {
        let carry = rem.bit(255);
        rem = rem.shl(1);
        if [lo, hi][(i / 256) as usize].bit(i % 256) {
            rem = rem | U256::ONE;
        }
        // rem < d before the shift, so one subtraction restores it even
        // when the shift carried out of bit 255.
        if carry || rem >= d {
            rem = rem.wrapping_sub(d);
            quot[(i / 256) as usize] = quot[(i / 256) as usize] | U256::ONE.shl(i % 256);
        }
    }
    (quot, rem)
}

/// Both divisions against the reference on one operand triple (`hi` is
/// dropped for `div_rem`, and `div_rem_wide` runs when it may: `hi < d`).
fn assert_division_matches_reference(lo: U256, hi: U256, d: U256) {
    let ([q, q_hi], r) = shift_subtract(lo, U256::ZERO, d);
    assert!(q_hi.is_zero());
    assert_eq!(lo.div_rem(d), (q, r), "{lo:#x} / {d:#x}");
    assert_eq!(lo.rem(d), r);
    if hi < d {
        let ([q, q_hi], r) = shift_subtract(lo, hi, d);
        assert!(q_hi.is_zero());
        assert_eq!(U256::div_rem_wide(lo, hi, d), (q, r), "({hi:#x}, {lo:#x}) / {d:#x}");
    }
}

proptest! {
    #[test]
    fn u256_division_matches_shift_subtract_at_every_limb_count(
        (lo, hi, d) in (any::<[u64; 4]>(), any::<[u64; 4]>(), any::<[u64; 4]>()),
        (lo_limbs, hi_limbs, d_limbs) in (1usize..5, 0usize..5, 1usize..5),
    ) {
        let d = low_limbs(d, d_limbs);
        prop_assume!(!d.is_zero());
        assert_division_matches_reference(low_limbs(lo, lo_limbs), low_limbs(hi, hi_limbs), d);
    }

    #[test]
    fn u256_add_commutes((a, b) in u256_pair()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn u256_add_sub_round_trip((a, b) in u256_pair()) {
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
    }

    #[test]
    fn u256_mul_matches_u128_reference(a in any::<u128>(), b in any::<u128>()) {
        let (lo, hi) = U256::from_u128(a).widening_mul(U256::from_u128(b));
        // Reference via 64-bit limbs of the standard library.
        let a_lo = a as u64 as u128;
        let a_hi = a >> 64;
        let b_lo = b as u64 as u128;
        let b_hi = b >> 64;
        let ll = a_lo * b_lo;
        let lh = a_lo * b_hi;
        let hl = a_hi * b_lo;
        let hh = a_hi * b_hi;
        let mid = (ll >> 64) + (lh & 0xFFFF_FFFF_FFFF_FFFF) + (hl & 0xFFFF_FFFF_FFFF_FFFF);
        let low = (ll & 0xFFFF_FFFF_FFFF_FFFF) | ((mid & 0xFFFF_FFFF_FFFF_FFFF) << 64);
        let high = hh + (lh >> 64) + (hl >> 64) + (mid >> 64);
        // The full 128×128 product fits in 256 bits: `lo` carries all of it.
        prop_assert_eq!(lo, U256::from_halves(low, high));
        prop_assert!(hi.is_zero());
    }

    #[test]
    fn u256_div_rem_reconstructs((a, d) in u256_pair()) {
        prop_assume!(!d.is_zero());
        let (q, r) = a.div_rem(d);
        prop_assert!(r < d);
        let (prod, overflow) = q.widening_mul(d);
        prop_assert!(overflow.is_zero());
        prop_assert_eq!(prod.wrapping_add(r), a);
    }

    #[test]
    fn u256_shift_round_trip(a in any::<u128>(), s in 0u32..128) {
        let v = U256::from_u128(a);
        prop_assert_eq!(v.shl(s).shr(s), v);
    }

    #[test]
    fn barrett64_mul_matches_naive(a in any::<u64>(), b in any::<u64>()) {
        let ring = Barrett64::new(Q54).unwrap();
        let (a, b) = (a % Q54, b % Q54);
        let expect = ((a as u128 * b as u128) % Q54 as u128) as u64;
        prop_assert_eq!(ring.mul(a, b), expect);
    }

    #[test]
    fn barrett64_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let ring = Barrett64::new(Q54).unwrap();
        let (a, b, c) = (a % Q54, b % Q54, c % Q54);
        // Associativity and commutativity of multiplication.
        prop_assert_eq!(ring.mul(ring.mul(a, b), c), ring.mul(a, ring.mul(b, c)));
        prop_assert_eq!(ring.mul(a, b), ring.mul(b, a));
        // Distributivity.
        prop_assert_eq!(ring.mul(a, ring.add(b, c)), ring.add(ring.mul(a, b), ring.mul(a, c)));
        // Identities.
        prop_assert_eq!(ring.mul(a, ring.one()), a);
        prop_assert_eq!(ring.add(a, ring.zero()), a);
    }

    // Both arms of the wide product — word-level up to 126 bits, the
    // 256-bit dataflow above — against `reduce_u256` and `U256` division.
    #[test]
    fn barrett128_mul_matches_reduce_u256_and_division_at_every_width(
        raw_q in any::<u128>(),
        (a, b) in (any::<u128>(), any::<u128>()),
    ) {
        for bits in [2u32, 17, 63, 64, 65, 109, 125, 126, 127, 128] {
            // An odd modulus of exactly `bits` bits.
            let q = (raw_q >> (128 - bits)) | 1 << (bits - 1) | 1;
            let ring = Barrett128::new(q).unwrap();
            for a in [a % q, 0, 1, q - 1] {
                for b in [b % q, 0, 1, q - 1] {
                    let wide = U256::from_u128(a).widening_mul(U256::from_u128(b)).0;
                    let expect = wide.rem(U256::from_u128(q)).low_u128();
                    prop_assert_eq!((a, b, q, ring.mul(a, b)), (a, b, q, expect));
                    prop_assert_eq!(ring.reduce_u256(wide), expect);
                }
            }
        }
    }

    #[test]
    fn barrett64_from_u128_matches_remainder(
        raw_q in any::<u64>(),
        bits in 2u32..63,
        multiple in any::<u128>(),
    ) {
        let q = (raw_q >> (64 - bits)) | 1 << (bits - 1) | 1;
        let ring = Barrett64::new(q).unwrap();
        let q = q as u128;
        // The largest multiple of `q` in range and its neighbours: where
        // the quotient estimate's one unit of slack is spent.
        let top = u128::MAX - u128::MAX % q;
        let below_a_multiple = multiple % top - multiple % q + (q - 1);
        let edges = [0, q - 1, q, q + 1, (1 << 64) - 1, 1 << 64, top - 1, top, u128::MAX];
        for value in edges.into_iter().chain([below_a_multiple]) {
            prop_assert_eq!((value, q, ring.from_u128(value) as u128), (value, q, value % q));
        }
    }

    #[test]
    fn inverse_is_two_sided(a in 1u128..Q109) {
        let ring = Barrett128::new(Q109).unwrap();
        let inv = ring.inv(a).unwrap();
        prop_assert_eq!(ring.mul(a, inv), 1);
        prop_assert_eq!(ring.mul(inv, a), 1);
    }

    #[test]
    fn pow_adds_exponents(a in 1u128..Q109, e1 in 0u128..10_000, e2 in 0u128..10_000) {
        let ring = Barrett128::new(Q109).unwrap();
        let lhs = ring.mul(ring.pow(a, e1), ring.pow(a, e2));
        let rhs = ring.pow(a, e1 + e2);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn shoup_equals_plain(a in any::<u64>(), w in any::<u64>()) {
        let ring = Barrett64::new(Q54).unwrap();
        let (a, w) = (a % Q54, w % Q54);
        prop_assert_eq!(ring.mul_prepared(a, w, ring.prepare(w)), ring.mul(a, w));
    }

    #[test]
    fn rns_round_trip(x in any::<u128>()) {
        let basis = RnsBasis::for_total_bits(218, 64, 1 << 10).unwrap();
        let residues = basis.decompose_u128(x);
        prop_assert_eq!(basis.compose(&residues).unwrap().to_u128(), Some(x));
    }

    #[test]
    fn rns_addition_homomorphic(x in any::<u64>(), y in any::<u64>()) {
        let basis = RnsBasis::for_total_bits(109, 64, 1 << 10).unwrap();
        let rx = basis.decompose_u128(x as u128);
        let ry = basis.decompose_u128(y as u128);
        let sum: Vec<u128> = rx
            .iter()
            .zip(&ry)
            .zip(basis.moduli())
            .map(|((&a, &b), &q)| (a + b) % q)
            .collect();
        prop_assert_eq!(
            basis.compose(&sum).unwrap().to_u128(),
            Some(x as u128 + y as u128)
        );
    }
}

/// The branches of Algorithm D random operands almost never reach, on
/// 64-bit images of the Knuth / Hacker's Delight `divmnu` vectors.
#[test]
fn u256_division_directed_vectors() {
    const B63: u64 = 1 << 63;
    const M: u64 = u64::MAX;
    let v = U256::from_limbs;
    for (lo, hi, d) in [
        // Divisor top limb already normalised (shift 0), 2/3/4 limbs.
        (v([7, M, 3, M]), v([5, 1, 0, 0]), v([9, B63 | 1, 0, 0])),
        (v([M, 0, M, 1]), v([M, M, B63, 0]), v([3, 0, B63 | 5, 0])),
        (v([1, 2, 3, M]), v([M, M, M, B63]), v([M, 1, 0, M])),
        // The first estimate is 2^64 (numerator top limb == divisor top limb).
        (v([3, 0, B63, 0]), v([0; 4]), v([1, B63, 0, 0])),
        (v([3, 0, B63, 0]), v([0; 4]), v([1, 0, 1 << 61, 0])),
        // ... and 2^64 + 1: the two limbs under it are ≥ the divisor's top.
        (v([7, B63, B63, 0]), v([0; 4]), v([M, B63, 0, 0])),
        (v([0, M - 1, 0, B63]), v([0; 4]), v([0xffff_ffff, 0, B63, 0])),
        // Estimate one over after the refinement: the add-back step.
        (v([0, 0, B63, B63 - 1]), v([0; 4]), v([1, 0, B63, 0])),
        (v([0, 0xffff_ffff_ffff_fffe, 0, B63]), v([0; 4]), v([M, 0, B63, 0])),
        (v([0, 0, 0, 0]), v([0, 0, B63, B63 - 1]), v([0, 1, 0, B63])),
        // Equal, smaller, and trivial operands.
        (v([5, 6, 7, 8]), v([0; 4]), v([5, 6, 7, 8])),
        (v([5, 6, 7, 0]), v([0; 4]), v([5, 6, 7, 8])),
        (U256::MAX, v([0; 4]), U256::ONE),
        (U256::MAX, U256::MAX.shr(1), U256::MAX),
        (U256::ZERO, v([0; 4]), v([0, 0, 0, 1])),
    ] {
        assert_division_matches_reference(lo, hi, d);
    }
    assert_eq!(U256::MAX.div_rem(U256::ONE), (U256::MAX, U256::ZERO));
}

#[test]
#[should_panic(expected = "division by zero")]
fn u256_div_rem_by_zero_panics() {
    let _ = U256::MAX.div_rem(U256::ZERO);
}

#[test]
#[should_panic(expected = "division by zero")]
fn u256_div_rem_wide_by_zero_panics() {
    let _ = U256::div_rem_wide(U256::ONE, U256::ZERO, U256::ZERO);
}

/// `round_div_u256` near `2^256`, where `num + ⌊den/2⌋` would wrap.
#[test]
fn round_div_u256_does_not_wrap_at_the_top() {
    // 2^256 − 1 = 3 · 0x5555…5: exact, no rounding.
    let third = U256::from_limbs([0x5555_5555_5555_5555; 4]);
    assert_eq!(signed::round_div_u256(U256::MAX, U256::from_u64(3)), third);
    // (2^256 − 1)/2 = 2^255 − ½ rounds up to 2^255.
    assert_eq!(signed::round_div_u256(U256::MAX, U256::from_u64(2)), U256::ONE.shl(255));
    // Even and odd wide denominators: ⌊MAX/d⌉ = 1 iff MAX ≥ 1.5·d.
    let even = U256::ONE.shl(255);
    assert_eq!(signed::round_div_u256(U256::MAX, even), U256::from_u64(2));
    let odd = U256::MAX.wrapping_sub(U256::from_u64(2));
    assert_eq!(signed::round_div_u256(U256::MAX, odd), U256::ONE);
    assert_eq!(signed::round_div_u256(U256::MAX, U256::MAX), U256::ONE);
}

/// `count` distinct NTT-friendly primes of `bits` bits.
fn limb_primes(bits: u32, count: usize) -> Vec<u128> {
    primes::ntt_primes(bits, 1 << 10, count).unwrap()
}

// The word-level Garner path (every modulus < 2^62) against the value it
// must reconstruct, and against the wide path: the same value under a basis
// extended by one 63-bit prime composes on `Barrett128`.
proptest! {
    #[test]
    fn compose_word_path_matches_value_and_wide_path(raw in any::<[u64; 4]>(), k in 1usize..6) {
        // The widest limbs for which the extended basis still fits 256 bits.
        let bits = if k <= 3 { 59 } else { 38 };
        let fast = RnsBasis::new(limb_primes(bits, k)).unwrap();
        let mut extended = fast.moduli().to_vec();
        extended.push(limb_primes(63, 1)[0]);
        let wide = RnsBasis::new(extended).unwrap();
        let x = U256::from_limbs(raw).rem(fast.product());
        prop_assert_eq!(fast.compose(&fast.decompose(x)).unwrap(), x);
        prop_assert_eq!(wide.compose(&wide.decompose(x)).unwrap(), x);
    }
}

#[test]
fn compose_edge_residues_and_range_errors() {
    for (bits, k) in [(59, 1), (59, 2), (59, 3), (59, 4), (50, 5), (63, 2), (109, 2)] {
        let basis = RnsBasis::new(limb_primes(bits, k)).unwrap();
        let moduli = basis.moduli().to_vec();
        assert_eq!(basis.compose(&vec![0; k]).unwrap(), U256::ZERO, "{k} × {bits}: zeros");
        // All pᵢ − 1 is −1 in every limb: P − 1.
        let top: Vec<u128> = moduli.iter().map(|&p| p - 1).collect();
        let minus_one = basis.product().wrapping_sub(U256::ONE);
        assert_eq!(basis.compose(&top).unwrap(), minus_one, "{k} × {bits}: all pᵢ − 1");
        assert_eq!(basis.compose_centered(&top).unwrap(), (U256::ONE, true));
        for (i, &p) in moduli.iter().enumerate() {
            let mut bad = vec![1u128; k];
            bad[i] = p;
            assert_eq!(
                basis.compose(&bad),
                Err(ArithError::OperandOutOfRange { value: p, modulus: p }),
                "{k} × {bits}: limb {i} unreduced"
            );
        }
        assert!(matches!(basis.compose(&top[1..]), Err(ArithError::InvalidRnsBasis { .. })));
    }
}

#[test]
fn prime_chain_supports_roots() {
    // Every generated tower prime must admit a primitive 2n-th root.
    let n = 1 << 12;
    for q in primes::ntt_primes(54, n, 3).unwrap() {
        let ring = Barrett64::new(q as u64).unwrap();
        let psi = cofhee_arith::roots::primitive_2n_root(&ring, n).unwrap();
        assert_eq!(ring.pow(psi, n as u128), (q - 1) as u64);
    }
}
