//! The host half of exact BFV multiplication — CRT reconstruction across
//! the computation basis and Eq. 4's `⌊t·x/q⌉` — held to oracles that
//! share none of its code: the generic 256-bit route on chosen signed
//! values, a schoolbook big-integer multiplication at `log q = 109`, and
//! the same tensor over another basis — the five ≈ 47-bit primes the
//! evaluator computed over before its basis became the minimal four.

use cofhee_arith::rns::RnsBasis;
use cofhee_arith::{primes::ntt_prime, signed::round_div_u256, ArithError, U256};
use cofhee_bfv::{
    BfvError, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext,
};
use cofhee_core::{CpuBackend, OpStream, PolyBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `⌊t·|x|/q⌉ mod q` with the sign re-applied, by the generic route:
/// widening product, `round_div_u256`, `rem`.
fn scale_round_oracle(params: &BfvParams, mag: U256, neg: bool) -> u128 {
    let q = params.q();
    let (num, hi) = mag.widening_mul(U256::from_u128(params.t() as u128));
    assert!(hi.is_zero(), "oracle inputs keep t·|x| inside 256 bits");
    let r = round_div_u256(num, U256::from_u128(q)).rem(U256::from_u128(q)).low_u128();
    if neg && r != 0 {
        q - r
    } else {
        r
    }
}

/// Per-limb tensor outputs whose coefficient `j` of component `part`
/// CRT-reconstructs to the signed value `values[part · n + j]`.
fn limbs_of(params: &BfvParams, values: &[(U256, bool)]) -> Vec<Vec<Vec<u128>>> {
    let basis = params.mult_basis();
    let n = params.n();
    let mut limbs = vec![vec![vec![0u128; n]; 3]; basis.len()];
    for (idx, &(mag, neg)) in values.iter().enumerate() {
        let x = if neg { basis.product().wrapping_sub(mag) } else { mag };
        for (limb, r) in limbs.iter_mut().zip(basis.decompose(x)) {
            limb[idx / n][idx % n] = r;
        }
    }
    limbs
}

/// Signed values below `P/2`: the extremes, the rounding boundaries
/// `⌊(2m+1)·q/(2t)⌋ + {−1, 0, 1}` (where `t·x/q` crosses a half), and
/// random fill up to `3n` of them.
fn probe_values(params: &BfvParams, rng: &mut StdRng) -> Vec<(U256, bool)> {
    let half = params.mult_basis().product().shr(1);
    let (q, two_t) = (U256::from_u128(params.q()), U256::from_u128(2 * params.t() as u128));
    let mut mags = vec![U256::ZERO, U256::ONE, half, half.wrapping_sub(U256::ONE)];
    for m in [0u128, 1, 2, rng.gen::<u128>() >> 8, rng.gen::<u128>() >> 8, rng.gen::<u128>() >> 70]
    {
        let odd = U256::from_u128(m).shl(1) | U256::ONE;
        let boundary = odd.checked_mul(q).expect("(2m+1)·q fits").div_rem(two_t).0;
        mags.extend([boundary.wrapping_sub(U256::ONE), boundary, boundary.wrapping_add(U256::ONE)]);
    }
    let mut values: Vec<(U256, bool)> =
        mags.iter().flat_map(|&m| [(m, false), (m, true)]).collect();
    // −0 is 0, and −⌊P/2⌋ − … would leave the centered range: keep |x| ≤ P/2.
    values.retain(|&(m, neg)| m <= half && !(neg && m.is_zero()));
    while values.len() < 3 * params.n() {
        let m = U256::from_halves(rng.gen(), rng.gen()).rem(half);
        values.push((m, rng.gen::<bool>() && !m.is_zero()));
    }
    values
}

#[test]
fn tensor_combine_matches_the_generic_route_on_every_parameter_set() {
    let mut rng = StdRng::seed_from_u64(0xc47);
    for params in [
        BfvParams::insecure_testing(32).unwrap(),
        BfvParams::paper_n12().unwrap(),
        BfvParams::paper_n13_single_tower().unwrap(),
    ] {
        let eval = Evaluator::new(&params).unwrap();
        let values = probe_values(&params, &mut rng);
        let ct = eval.tensor_combine(&limbs_of(&params, &values)).unwrap();
        let got = ct.polys().iter().flat_map(|p| p.coeffs().iter().copied());
        for (idx, (got, &(mag, neg))) in got.zip(&values).enumerate() {
            let want = scale_round_oracle(&params, mag, neg);
            assert_eq!(got, want, "n = {}, coefficient {idx}: x = {mag} neg = {neg}", params.n());
        }
    }
}

/// `t·|x|` past 256 bits is a typed error, not a wrapped ciphertext:
/// `|x|` is bounded by `P/2` of the basis, and `BfvParams::new`'s limits
/// let `t` be wide enough to overflow there.
#[test]
fn tensor_combine_refuses_a_scaled_coefficient_that_overflows() {
    let n = 64;
    let t = (1u64 << 29) - 1; // the widest `new` takes at log q = 109, n = 64
    let params = BfvParams::new(n, t, ntt_prime(109, n).unwrap()).unwrap();
    assert!(BfvParams::new(n, 1 << 29, params.q()).is_err());
    let eval = Evaluator::new(&params).unwrap();
    let half = params.mult_basis().product().shr(1);
    let widest_ok = U256::MAX.div_rem(U256::from_u128(t as u128)).0;
    assert!(half > widest_ok, "P/2 · t must not fit for this test to mean anything");

    let mut values = vec![(U256::ONE, false); 3 * n];
    values[n + 5] = (widest_ok, true);
    let ct = eval.tensor_combine(&limbs_of(&params, &values)).unwrap();
    assert_eq!(ct.polys()[1].coeffs()[5], scale_round_oracle(&params, widest_ok, true));

    for bad in [half, widest_ok.wrapping_add(U256::ONE)] {
        values[n + 5] = (bad, false);
        assert!(matches!(
            eval.tensor_combine(&limbs_of(&params, &values)),
            Err(BfvError::Arith(ArithError::Overflow { .. }))
        ));
    }
}

/// Two's-complement image of the centered representative of `c` mod `q`.
fn lift_signed(c: u128, q: u128) -> U256 {
    if c > q / 2 {
        U256::ZERO.wrapping_sub(U256::from_u128(q - c))
    } else {
        U256::from_u128(c)
    }
}

/// Schoolbook negacyclic product over the integers, in wrapping 256-bit
/// two's complement (every true value is far below `2^255`).
fn negacyclic_schoolbook(a: &[U256], b: &[U256]) -> Vec<U256> {
    let n = a.len();
    let mut out = vec![U256::ZERO; n];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            let p = x.wrapping_mul(y);
            let k = (i + j) % n;
            out[k] = if i + j < n { out[k].wrapping_add(p) } else { out[k].wrapping_sub(p) };
        }
    }
    out
}

/// `Evaluator::multiply` at the paper's modulus width against an oracle
/// that uses no NTT, no RNS basis and no precomputed rounding: integer
/// schoolbook tensor, then `⌊t·x/q⌉ mod q` by long division.
#[test]
fn multiply_at_log_q_109_matches_a_schoolbook_big_integer_oracle() {
    let n = 64;
    let q = ntt_prime(109, n).unwrap();
    let t = ntt_prime(20, n).unwrap() as u64;
    let params = BfvParams::new(n, t, q).unwrap();
    assert_eq!(params.mult_basis().total_bits(), 236, "the paper-scale computation basis");
    let mut rng = StdRng::seed_from_u64(109);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let dec = Decryptor::new(&params, kg.secret_key().clone());
    let eval = Evaluator::new(&params).unwrap();

    let ma: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
    let mb: Vec<u64> = (0..n).map(|_| rng.gen_range(0..t)).collect();
    let a = enc.encrypt(&Plaintext::new(&params, ma.clone()).unwrap(), &mut rng).unwrap();
    let b = enc.encrypt(&Plaintext::new(&params, mb.clone()).unwrap(), &mut rng).unwrap();
    let product = eval.multiply(&a, &b).unwrap();

    let lift = |ct: &cofhee_bfv::Ciphertext, i: usize| -> Vec<U256> {
        ct.polys()[i].coeffs().iter().map(|&c| lift_signed(c, q)).collect()
    };
    let (a0, a1, b0, b1) = (lift(&a, 0), lift(&a, 1), lift(&b, 0), lift(&b, 1));
    let middle: Vec<U256> = negacyclic_schoolbook(&a0, &b1)
        .iter()
        .zip(&negacyclic_schoolbook(&a1, &b0))
        .map(|(&x, &y)| x.wrapping_add(y))
        .collect();
    let tensor = [negacyclic_schoolbook(&a0, &b0), middle, negacyclic_schoolbook(&a1, &b1)];
    assert_eq!(product.len(), 3);
    for (part, (poly, want)) in product.polys().iter().zip(&tensor).enumerate() {
        for (j, (&got, &x)) in poly.coeffs().iter().zip(want).enumerate() {
            let neg = x.bit(255);
            let mag = if neg { U256::ZERO.wrapping_sub(x) } else { x };
            // Rounding on the doubled remainder: q is odd, so no ties.
            let (num, hi) = mag.widening_mul(U256::from_u128(t as u128));
            assert!(hi.is_zero());
            let (quot, rem) = num.div_rem(U256::from_u128(q));
            let up = rem.shl(1) > U256::from_u128(q);
            let y = if up { quot.wrapping_add(U256::ONE) } else { quot };
            let r = y.rem(U256::from_u128(q)).low_u128();
            let want = if neg && r != 0 { q - r } else { r };
            assert_eq!(got, want, "component {part}, coefficient {j}");
        }
    }

    // And the product decrypts to the plaintext negacyclic product mod t.
    let mut want = vec![0u64; n];
    for (i, &x) in ma.iter().enumerate() {
        for (j, &y) in mb.iter().enumerate() {
            let p = (x as u128 * y as u128 % t as u128) as u64;
            let k = (i + j) % n;
            want[k] = if i + j < n { (want[k] + p) % t } else { (want[k] + t - p) % t };
        }
    }
    assert_eq!(dec.decrypt(&product).unwrap().coeffs(), &want[..]);
}

/// The unscaled tensor of `a ⊗ b` modulo `p`, on a CPU backend of its
/// own: centered lifts by `%`, the three components as plain
/// transform / Hadamard / add nodes.
fn tensor_mod(p: u128, q: u128, a: &Ciphertext, b: &Ciphertext) -> Vec<Vec<u128>> {
    let n = a.polys()[0].coeffs().len();
    let mut st = OpStream::new(n);
    let mut forms = Vec::new();
    for poly in a.polys().iter().chain(b.polys()) {
        let lifted =
            poly.coeffs().iter().map(|&c| if c > q / 2 { (c % p + p - q % p) % p } else { c % p });
        let up = st.upload(lifted.collect()).unwrap();
        forms.push(st.ntt(up).unwrap());
    }
    let (a0, a1, b0, b1) = (forms[0], forms[1], forms[2], forms[3]);
    let x01 = st.hadamard(a0, b1).unwrap();
    let x10 = st.hadamard(a1, b0).unwrap();
    let products =
        [st.hadamard(a0, b0), st.pointwise_add(x01, x10), st.hadamard(a1, b1)].map(Result::unwrap);
    for prod in products {
        let back = st.intt(prod).unwrap();
        st.output(back).unwrap();
    }
    CpuBackend::new(p, n).unwrap().execute_stream(&st).unwrap().outputs
}

/// The tensor is exact over any basis that covers `2·n·q²`: computed over
/// the five-prime tower plan the evaluator used to take and finished by
/// the generic route, it is `Evaluator::multiply`'s four-limb product
/// coefficient for coefficient.
#[test]
fn multiply_over_four_limbs_equals_the_five_limb_tensor() {
    let mut rng = StdRng::seed_from_u64(0x5_11b5);
    for n in [1usize << 10, 1 << 12] {
        let t = ntt_prime(20, n).unwrap() as u64;
        let params = BfvParams::new(n, t, ntt_prime(109, n).unwrap()).unwrap();
        let five = RnsBasis::for_total_bits(236, 64, n).unwrap();
        assert_eq!((params.mult_basis().len(), five.len()), (4, 5));
        let kg = KeyGenerator::new(&params, &mut rng);
        let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
        let mut fresh = || {
            let m = (0..n).map(|_| rng.gen_range(0..t)).collect();
            enc.encrypt(&Plaintext::new(&params, m).unwrap(), &mut rng).unwrap()
        };
        let (a, b) = (fresh(), fresh());
        let product = Evaluator::new(&params).unwrap().multiply(&a, &b).unwrap();

        let limbs: Vec<_> =
            five.moduli().iter().map(|&p| tensor_mod(p, params.q(), &a, &b)).collect();
        for (part, poly) in product.polys().iter().enumerate() {
            for (j, &got) in poly.coeffs().iter().enumerate() {
                let residues: Vec<u128> = limbs.iter().map(|limb| limb[part][j]).collect();
                let (mag, neg) = five.compose_centered(&residues).unwrap();
                let want = scale_round_oracle(&params, mag, neg);
                assert_eq!(got, want, "n = {n}, component {part}, coefficient {j}");
            }
        }
    }
}
