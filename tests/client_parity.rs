//! Client-path parity at the paper's scale: every key generator,
//! encryptor and decryptor of both schemes computes through
//! [`Polynomial`], which runs on the interned Harvey plan — so that path
//! is pinned here, bit for bit, to the strict `ntt::*` kernels at the
//! parameter sets the paper evaluates (`lazy_parity` covers `n ≤ 2^10`).

use std::sync::Arc;

use cofhee::arith::{primes, Barrett128};
use cofhee::bfv::BfvParams;
use cofhee::ckks::CkksParams;
use cofhee::poly::{naive, ntt, Domain, PolyRing, Polynomial};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `Polynomial::{negacyclic_mul, into_ntt, into_coeff}` against the
/// strict kernels on the ring's own tables, fixed-seed operands.
fn assert_matches_strict(ctx: &Arc<PolyRing<Barrett128>>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Polynomial::random(Arc::clone(ctx), &mut rng);
    let b = Polynomial::random(Arc::clone(ctx), &mut rng);
    let (ring, tables) = (ctx.ring(), ctx.plan().tables());
    let label = format!("q = {}, n = {}", ctx.modulus(), ctx.n());

    let product = a.negacyclic_mul(&b).unwrap();
    let strict = ntt::negacyclic_mul(ring, a.coeffs(), b.coeffs(), tables).unwrap();
    assert_eq!(product.coeffs(), &strict[..], "negacyclic_mul, {label}");

    let mut forward = a.coeffs().to_vec();
    ntt::forward_inplace(ring, &mut forward, tables).unwrap();
    let a_ntt = a.clone().into_ntt().unwrap();
    assert_eq!(a_ntt.coeffs(), &forward[..], "into_ntt, {label}");

    // The inverse on evaluations the forward did not produce.
    let mut inverse = b.coeffs().to_vec();
    ntt::inverse_inplace(ring, &mut inverse, tables).unwrap();
    let b_coeff = Polynomial::from_elems(Arc::clone(ctx), b.coeffs().to_vec(), Domain::Ntt)
        .unwrap()
        .into_coeff()
        .unwrap();
    assert_eq!(b_coeff.coeffs(), &inverse[..], "into_coeff, {label}");
    assert_eq!(a_ntt.into_coeff().unwrap(), a, "round trip, {label}");
}

#[test]
fn bfv_paper_rings_match_the_strict_kernels() {
    for params in [BfvParams::paper_n12().unwrap(), BfvParams::paper_n13_single_tower().unwrap()] {
        assert!(params.poly_ring().plan().is_lazy());
        assert_matches_strict(params.poly_ring(), 0x0b_f5);
    }
}

#[test]
fn ckks_109_bit_chain_matches_the_strict_kernels() {
    let n = 1 << 13;
    let mut moduli = vec![primes::ntt_prime(43, n).unwrap()];
    moduli.extend(primes::ntt_primes(33, n, 2).unwrap());
    let params = CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap();
    for j in 0..params.moduli().len() {
        assert_matches_strict(params.ring(j), 0xcc_55 + j as u64);
    }
}

#[test]
fn no_headroom_modulus_multiplies_through_the_strict_fallback() {
    let n = 32;
    let q = primes::ntt_prime(127, n).unwrap();
    assert!(q >= 1 << 126);
    let ctx = Arc::new(PolyRing::new(Barrett128::new(q).unwrap(), n).unwrap());
    assert!(!ctx.plan().is_lazy());
    let mut rng = StdRng::seed_from_u64(127);
    let a = Polynomial::random(Arc::clone(&ctx), &mut rng);
    let b = Polynomial::random(Arc::clone(&ctx), &mut rng);
    let product = a.negacyclic_mul(&b).unwrap();
    let oracle = naive::negacyclic_mul(ctx.ring(), a.coeffs(), b.coeffs()).unwrap();
    assert_eq!(product.coeffs(), &oracle[..]);
    assert_eq!(a.clone().into_ntt().unwrap().into_coeff().unwrap(), a);
}
