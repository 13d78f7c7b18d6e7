//! Property-based tests for the polynomial substrate: the convolution
//! theorem, transform linearity, and ring axioms of `Z_q[x]/(x^n+1)`.

use cofhee_arith::{Barrett64, ModRing};
use cofhee_poly::{bitrev, naive, ntt, ntt::NttTables};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const Q: u64 = 18014398510645249; // 55-bit, q ≡ 1 mod 2^14

fn ring() -> Barrett64 {
    Barrett64::new(Q).unwrap()
}

fn poly_strategy(n: usize) -> impl Strategy<Value = Vec<u64>> {
    pvec(0..Q, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ntt_round_trip(a in poly_strategy(64)) {
        let r = ring();
        let tables = NttTables::new(&r, 64).unwrap();
        let mut t = a.clone();
        ntt::forward_inplace(&r, &mut t, &tables).unwrap();
        ntt::inverse_inplace(&r, &mut t, &tables).unwrap();
        prop_assert_eq!(t, a);
    }

    #[test]
    fn ntt_is_linear(a in poly_strategy(32), b in poly_strategy(32), c in 0..Q) {
        let r = ring();
        let tables = NttTables::new(&r, 32).unwrap();
        // NTT(c·a + b) = c·NTT(a) + NTT(b)
        let mut lhs: Vec<u64> =
            a.iter().zip(&b).map(|(&x, &y)| r.add(r.mul(c, x), y)).collect();
        ntt::forward_inplace(&r, &mut lhs, &tables).unwrap();
        let mut ta = a.clone();
        let mut tb = b.clone();
        ntt::forward_inplace(&r, &mut ta, &tables).unwrap();
        ntt::forward_inplace(&r, &mut tb, &tables).unwrap();
        let rhs: Vec<u64> =
            ta.iter().zip(&tb).map(|(&x, &y)| r.add(r.mul(c, x), y)).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn convolution_theorem(a in poly_strategy(32), b in poly_strategy(32)) {
        let r = ring();
        let tables = NttTables::new(&r, 32).unwrap();
        let via_ntt = ntt::negacyclic_mul(&r, &a, &b, &tables).unwrap();
        let via_naive = naive::negacyclic_mul(&r, &a, &b).unwrap();
        prop_assert_eq!(via_ntt, via_naive);
    }

    #[test]
    fn multiplication_commutes(a in poly_strategy(16), b in poly_strategy(16)) {
        let r = ring();
        let tables = NttTables::new(&r, 16).unwrap();
        let ab = ntt::negacyclic_mul(&r, &a, &b, &tables).unwrap();
        let ba = ntt::negacyclic_mul(&r, &b, &a, &tables).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn multiplication_associates(
        a in poly_strategy(16),
        b in poly_strategy(16),
        c in poly_strategy(16),
    ) {
        let r = ring();
        let tables = NttTables::new(&r, 16).unwrap();
        let ab_c = ntt::negacyclic_mul(
            &r,
            &ntt::negacyclic_mul(&r, &a, &b, &tables).unwrap(),
            &c,
            &tables,
        )
        .unwrap();
        let a_bc = ntt::negacyclic_mul(
            &r,
            &a,
            &ntt::negacyclic_mul(&r, &b, &c, &tables).unwrap(),
            &tables,
        )
        .unwrap();
        prop_assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn bitrev_is_involution(mut a in poly_strategy(128)) {
        let orig = a.clone();
        bitrev::bitrev_permute(&mut a);
        bitrev::bitrev_permute(&mut a);
        prop_assert_eq!(a, orig);
    }

    #[test]
    fn bitrev_is_a_permutation(a in poly_strategy(64)) {
        let mut sorted_orig = a.clone();
        let mut permuted = a.clone();
        bitrev::bitrev_permute(&mut permuted);
        let mut sorted_perm = permuted.clone();
        sorted_orig.sort_unstable();
        sorted_perm.sort_unstable();
        prop_assert_eq!(sorted_orig, sorted_perm);
    }
}
