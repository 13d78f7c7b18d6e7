//! Property tests: the Harvey lazy-reduction kernels are **bit-exact**
//! with the strict kernels — the strict `ntt` module is the oracle.
//!
//! Covered: forward/inverse NTT, the fused `intt ∘ hadamard`, and the
//! fully-fused Algorithm 2 `poly_mul`, across Barrett64 and Barrett128
//! moduli and every supported power-of-two degree in the sweep, plus
//! the overflow edge case at the top of the Barrett64 range (`q` just
//! under `2^62`, where `4q` nearly fills the container).

use cofhee_arith::{primes::ntt_prime, Barrett128, Barrett64, LazyRing};
use cofhee_poly::{ntt, pointwise, HarveyNtt};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// The degree sweep: small enough to keep the suite fast, wide enough
/// to enter the pass structure every way — the lone butterfly (2), the
/// closing pass alone (4), the opening radix-2 pass straight into it
/// (8), one and more two-stage passes between them, at even and odd
/// `log n`.
const DEGREES: [usize; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 1024, 2048];

fn degree_strategy() -> impl Strategy<Value = usize> {
    (0..DEGREES.len()).prop_map(|i| DEGREES[i])
}

/// Checks every lazy kernel against its strict counterpart for one
/// ring, one degree, and one operand pair (coefficients pre-reduced).
fn check_parity<R: LazyRing>(ring: &R, n: usize, a: &[R::Elem], b: &[R::Elem]) {
    let plan = HarveyNtt::new(ring, n).unwrap();
    let tables = plan.tables();

    // Forward.
    let mut lazy_f = a.to_vec();
    plan.forward_inplace(&mut lazy_f).unwrap();
    let mut strict_f = a.to_vec();
    ntt::forward_inplace(ring, &mut strict_f, tables).unwrap();
    assert_eq!(lazy_f, strict_f, "forward NTT diverges at n = {n}");

    // Inverse (round trip back to the input).
    let mut lazy_i = lazy_f.clone();
    plan.inverse_inplace(&mut lazy_i).unwrap();
    assert_eq!(lazy_i, a, "inverse NTT round trip fails at n = {n}");

    // Fused intt∘hadamard vs strict Hadamard-then-iNTT on NTT-domain
    // operands.
    let mut fb = b.to_vec();
    ntt::forward_inplace(ring, &mut fb, tables).unwrap();
    let fused = plan.hadamard_intt(&strict_f, &fb).unwrap();
    let mut unfused = strict_f.clone();
    pointwise::mul_assign(ring, &mut unfused, &fb).unwrap();
    ntt::inverse_inplace(ring, &mut unfused, tables).unwrap();
    assert_eq!(fused, unfused, "fused intt∘hadamard diverges at n = {n}");

    // Fully-fused Algorithm 2.
    let lazy_mul = plan.poly_mul(a, b).unwrap();
    let strict_mul = ntt::negacyclic_mul(ring, a, b, tables).unwrap();
    assert_eq!(lazy_mul, strict_mul, "poly_mul diverges at n = {n}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lazy_matches_strict_on_barrett64(
        n in degree_strategy(),
        seed_a in pvec(any::<u64>(), 2048),
        seed_b in pvec(any::<u64>(), 2048),
    ) {
        // 55-bit word prime (the SEAL-tower width); q ≡ 1 mod 2^14
        // serves every degree in the sweep.
        let q = 18014398510645249u64;
        let ring = Barrett64::new(q).unwrap();
        let a: Vec<u64> = seed_a[..n].iter().map(|&c| c % q).collect();
        let b: Vec<u64> = seed_b[..n].iter().map(|&c| c % q).collect();
        check_parity(&ring, n, &a, &b);
    }

    #[test]
    fn lazy_matches_strict_on_barrett128(
        n in degree_strategy(),
        seed_a in pvec(any::<u128>(), 2048),
        seed_b in pvec(any::<u128>(), 2048),
    ) {
        // The chip-native 109-bit width.
        let q = ntt_prime(109, 1 << 14).unwrap();
        let ring = Barrett128::new(q).unwrap();
        prop_assert!(ring.lazy_capable());
        let a: Vec<u128> = seed_a[..n].iter().map(|&c| c % q).collect();
        let b: Vec<u128> = seed_b[..n].iter().map(|&c| c % q).collect();
        check_parity(&ring, n, &a, &b);
    }

    // The overflow edge: the largest supported Barrett64 moduli leave
    // exactly the two headroom bits the lazy representation consumes.
    #[test]
    fn lazy_matches_strict_at_q_near_2_62(
        seed_a in pvec(any::<u64>(), 256),
        seed_b in pvec(any::<u64>(), 256),
    ) {
        let n = 256;
        let q = ntt_prime(62, n).unwrap();
        prop_assert!(q >> 61 == 1, "must exercise a full 62-bit modulus");
        let ring = Barrett64::new(q as u64).unwrap();
        prop_assert!(ring.lazy_capable());
        // Bias operands toward q−1 to stress the redundant range.
        let top = |c: u64| {
            let q = q as u64;
            if c.is_multiple_of(3) { q - 1 - (c % 17) } else { c % q }
        };
        let a: Vec<u64> = seed_a.iter().map(|&c| top(c)).collect();
        let b: Vec<u64> = seed_b.iter().map(|&c| top(c)).collect();
        check_parity(&ring, n, &a, &b);
    }
}

/// All-`q − 1` and all-zero operands — the values that sit on the `2q` /
/// `4q` edges of the redundant ranges after every stage — at the widest
/// lazy-capable primes of both rings, at every degree of the sweep.
#[test]
fn lazy_matches_strict_on_range_edges() {
    for n in DEGREES {
        for bits in [61, 62] {
            let q = ntt_prime(bits, n).unwrap() as u64;
            let ring = Barrett64::new(q).unwrap();
            let (top, zero) = (vec![q - 1; n], vec![0; n]);
            check_parity(&ring, n, &top, &top);
            check_parity(&ring, n, &zero, &top);
        }
        let q = ntt_prime(125, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        assert!(ring.lazy_capable());
        let (top, zero) = (vec![q - 1; n], vec![0; n]);
        check_parity(&ring, n, &top, &top);
        check_parity(&ring, n, &zero, &top);
    }
}

/// Deterministic fixed-seed checks at the degrees the benchmark and the
/// chip run (`n = 2^12`, `2^13`, and the native maximum `2^14`) — too
/// big for the proptest sweep — on the 55-bit word ring and the
/// chip-native 109-bit ring.
#[test]
fn lazy_matches_strict_at_chip_scale() {
    fn rand_poly(q: u128, n: usize, state: &mut u128) -> Vec<u128> {
        (0..n)
            .map(|_| {
                *state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
                *state % q
            })
            .collect()
    }
    let mut state = 0x1234_5678_9abc_def0u128;
    for log_n in [12, 13, 14] {
        let n = 1 << log_n;

        let q = ntt_prime(109, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        let a = rand_poly(q, n, &mut state);
        let b = rand_poly(q, n, &mut state);
        check_parity(&ring, n, &a, &b);

        let q = ntt_prime(55, n).unwrap();
        let ring = Barrett64::new(q as u64).unwrap();
        let narrow = |p: Vec<u128>| -> Vec<u64> { p.into_iter().map(|c| c as u64).collect() };
        let a = narrow(rand_poly(q, n, &mut state));
        let b = narrow(rand_poly(q, n, &mut state));
        check_parity(&ring, n, &a, &b);
    }
}
