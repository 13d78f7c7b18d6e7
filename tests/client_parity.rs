//! Client-path parity at the paper's scale, against the arithmetic the
//! client path used to be.
//!
//! BFV key generation and the BFV ciphertext representation compute
//! through [`Polynomial`], which runs on the interned Harvey plan — so
//! that path is pinned here, bit for bit, to the strict `ntt::*` kernels
//! at the rings the paper evaluates (`lazy_parity` covers `n ≤ 2^10`).
//!
//! Encryption and decryption of both schemes, and all of CKKS key
//! generation, are command streams on a `LimbEngine` now (CKKS limbs on
//! the 64-bit kernels), and `cofhee_ckks` names no `Polynomial` at all.
//! The old arithmetic survives here, and only here, as the oracle: one
//! privately built wide [`PolyRing`] per modulus — itself pinned to the
//! strict kernels by the same check — on which Eqs. 2–3 and the key
//! formulas are evaluated with `Polynomial`, the draws replayed from a
//! second generator on the same seed in the order the samplers have
//! always made them. Every key, ciphertext and plaintext must match — a
//! relinearization key, which both schemes store in NTT form, through the
//! strict inverse kernel on the oracle's tables.

use std::sync::Arc;

use cofhee::arith::signed::ScaleRound;
use cofhee::arith::{primes, Barrett128, ModRing, U256};
use cofhee::bfv::{sampling, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{
    CkksCiphertext, CkksDecryptor, CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator,
    CkksParams, CkksPlaintext, Level, RnsPoly,
};
use cofhee::poly::{naive, ntt, Domain, PolyRing, Polynomial};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Ring = Arc<PolyRing<Barrett128>>;
type Poly = Polynomial<Barrett128>;

/// `Polynomial::{negacyclic_mul, into_ntt, into_coeff}` against the
/// strict kernels on the ring's own tables, fixed-seed operands.
fn assert_matches_strict(ctx: &Ring, seed: u64) {
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

/// A wide ring of the oracle's own: no `TwiddleCache` entry, no backend.
fn private_ring(q: u128, n: usize) -> Ring {
    Arc::new(PolyRing::new(Barrett128::new(q).unwrap(), n).unwrap())
}

fn poly(ctx: &Ring, values: &[u128]) -> Poly {
    Polynomial::from_values(Arc::clone(ctx), values).unwrap()
}

fn elems(ctx: &Ring, coeffs: Vec<u128>) -> Poly {
    Polynomial::from_elems(Arc::clone(ctx), coeffs, Domain::Coefficient).unwrap()
}

fn uniform(ctx: &Ring, rng: &mut StdRng) -> Poly {
    elems(ctx, sampling::uniform(ctx.ring(), ctx.n(), rng))
}

/// The BFV draws: ternary and CBD directly in the ring.
fn ternary(ctx: &Ring, rng: &mut StdRng) -> Poly {
    elems(ctx, sampling::ternary(ctx.ring(), ctx.n(), rng))
}

fn cbd(ctx: &Ring, rng: &mut StdRng) -> Poly {
    elems(ctx, sampling::error_poly(ctx.ring(), ctx.n(), rng))
}

/// The raw polynomial behind a stored NTT-form key polynomial: the strict
/// inverse kernel on the oracle's own tables.
fn strict_inverse(ctx: &Ring, stored: &[u128]) -> Vec<u128> {
    let mut raw = stored.to_vec();
    ntt::inverse_inplace(ctx.ring(), &mut raw, ctx.plan().tables()).unwrap();
    raw
}

/// `v = c0 + c1·s (+ c2·s²)`.
fn decryption_poly(c: &[Poly], s: &Poly, s_sq: &Poly) -> Poly {
    let v = c[0].add(&c[1].negacyclic_mul(s).unwrap()).unwrap();
    match c.get(2) {
        Some(c2) => v.add(&c2.negacyclic_mul(s_sq).unwrap()).unwrap(),
        None => v,
    }
}

/// BFV's Eqs. 2–3 on `Polynomial`, draws in `Encryptor`'s order.
fn bfv_streams_match_the_formulas(params: &BfvParams, seed: u64) {
    let ctx = private_ring(params.q(), params.n());
    let (mut rng, mut replay) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

    let kg = KeyGenerator::new(params, &mut rng);
    let pk = kg.public_key(&mut rng).unwrap();
    let s = ternary(&ctx, &mut replay);
    let s_sq = s.negacyclic_mul(&s).unwrap();
    let p1 = uniform(&ctx, &mut replay);
    let p0 = p1.negacyclic_mul(&s).unwrap().add(&cbd(&ctx, &mut replay)).unwrap().neg();
    assert_eq!(kg.secret_key().poly().coeffs(), s.coeffs());

    let (enc, dec) = (Encryptor::new(params, pk), Decryptor::new(params, kg.secret_key().clone()));
    let (t, q, delta) = (params.t(), params.q(), params.delta());
    let message: Vec<u64> = (0..params.n() as u64).map(|i| (i * 7919 + 11) % t).collect();
    let pt = Plaintext::new(params, message.clone()).unwrap();
    let ct = enc.encrypt(&pt, &mut rng).unwrap();
    let u = ternary(&ctx, &mut replay);
    let (e1, e2) = (cbd(&ctx, &mut replay), cbd(&ctx, &mut replay));
    let dm: Vec<u128> = message.iter().map(|&m| delta * u128::from(m)).collect();
    let c0 = p0.negacyclic_mul(&u).unwrap().add(&e1).unwrap().add(&poly(&ctx, &dm)).unwrap();
    let c1 = p1.negacyclic_mul(&u).unwrap().add(&e2).unwrap();
    assert_eq!(ct.polys()[0].coeffs(), c0.coeffs(), "c0, q = {q}");
    assert_eq!(ct.polys()[1].coeffs(), c1.coeffs(), "c1, q = {q}");

    // Decryption of two and of three components: `⌊t·v/q⌉ mod t` of the
    // oracle's `v`, and the budget its noise leaves.
    let round = ScaleRound::new(u128::from(t), q, u128::from(t)).unwrap();
    let cubic = Evaluator::new(params).unwrap().multiply(&ct, &ct).unwrap();
    for ct in [&ct, &cubic] {
        let on_oracle: Vec<Poly> = ct.polys().iter().map(|p| poly(&ctx, p.coeffs())).collect();
        let v = decryption_poly(&on_oracle, &s, &s_sq);
        let ring = ctx.ring();
        let (mut want, mut worst) = (Vec::new(), 0u128);
        for &c in v.coeffs() {
            let (mag, neg) = sampling::elem_to_centered(ring, c);
            let m = round.apply(U256::from_u128(mag), neg).unwrap();
            let noise = ring.sub(c, ring.from_u128(delta * m));
            worst = worst.max(sampling::elem_to_centered(ring, noise).0);
            want.push(m as u64);
        }
        assert_eq!(dec.decrypt(ct).unwrap().coeffs(), &want[..], "{} components", ct.len());
        let budget = (q as f64).log2() - 1.0 - ((worst + 1) as f64).log2() - (t as f64).log2();
        assert_eq!(dec.noise_budget(ct).unwrap(), budget.max(0.0), "{} components", ct.len());
    }

    // The relinearization key is made and stored in the NTT domain; out
    // of it, it is the coefficient-domain formula digit by digit.
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let ring = ctx.ring();
    let mut t_pow = ring.one();
    for (i, (k0, k1)) in rlk.parts().iter().enumerate() {
        let a = uniform(&ctx, &mut replay);
        let masked = a.negacyclic_mul(&s).unwrap().add(&cbd(&ctx, &mut replay)).unwrap().neg();
        let want0 = masked.add(&s_sq.scalar_mul(t_pow)).unwrap();
        assert_eq!(strict_inverse(&ctx, k0), want0.coeffs(), "relin k0, digit {i}, q = {q}");
        assert_eq!(strict_inverse(&ctx, k1), a.coeffs(), "relin k1, digit {i}, q = {q}");
        t_pow = ring.mul(t_pow, ring.from_u128(1 << 16));
    }
}

/// The CKKS client path on `Polynomial`, one private wide ring per chain
/// prime, as `cofhee_ckks` computed it before its streams.
struct CkksOracle {
    rings: Vec<Ring>,
    s: Vec<Poly>,
    s_sq: Vec<Poly>,
    pk: Vec<(Poly, Poly)>,
    /// `rlk[limb][digit] = (k0, k1)`.
    rlk: Vec<Vec<(Poly, Poly)>>,
}

impl CkksOracle {
    /// One small signed polynomial, sampled in the base limb's ring and
    /// lifted into every limb.
    fn signed(&self, rng: &mut StdRng, ternary: bool) -> Vec<Poly> {
        let ring0 = self.rings[0].ring();
        let n = self.rings[0].n();
        let drawn = if ternary {
            sampling::ternary(ring0, n, rng)
        } else {
            sampling::error_poly(ring0, n, rng)
        };
        let signed: Vec<i64> = drawn
            .into_iter()
            .map(|e| {
                let (mag, neg) = sampling::elem_to_centered(ring0, e);
                if neg {
                    -(mag as i64)
                } else {
                    mag as i64
                }
            })
            .collect();
        self.rings
            .iter()
            .map(|ctx| {
                elems(
                    ctx,
                    signed.iter().map(|&v| sampling::signed_to_elem(ctx.ring(), v)).collect(),
                )
            })
            .collect()
    }

    /// Secret, public and relinearization key, drawn as
    /// `CkksKeyGenerator` draws them: `s`; then `e` and one `a` per limb;
    /// then per digit `e` and one `a` per limb.
    fn keygen(params: &CkksParams, rng: &mut StdRng) -> Self {
        let rings: Vec<Ring> =
            params.moduli().iter().map(|&q| private_ring(q, params.n())).collect();
        let mut oracle = Self { rings, s: vec![], s_sq: vec![], pk: vec![], rlk: vec![] };
        oracle.s = oracle.signed(rng, true);
        oracle.s_sq = oracle.s.iter().map(|s| s.negacyclic_mul(s).unwrap()).collect();
        let rlwe = |oracle: &Self, j: usize, a: &Poly, e: &Poly| {
            a.negacyclic_mul(&oracle.s[j]).unwrap().add(e).unwrap().neg()
        };
        let e = oracle.signed(rng, false);
        for (j, e_j) in e.iter().enumerate() {
            let a = uniform(&oracle.rings[j], rng);
            oracle.pk.push((rlwe(&oracle, j, &a, e_j), a));
        }
        oracle.rlk = vec![Vec::new(); oracle.rings.len()];
        for i in 0..params.digits_at(params.top_level()) {
            let e = oracle.signed(rng, false);
            for (j, e_j) in e.iter().enumerate() {
                let ring = *oracle.rings[j].ring();
                let a = uniform(&oracle.rings[j], rng);
                let t_pow = ring.pow(ring.from_u128(1 << params.base_bits()), i as u128);
                let k0 = rlwe(&oracle, j, &a, e_j).add(&oracle.s_sq[j].scalar_mul(t_pow)).unwrap();
                oracle.rlk[j].push((k0, a));
            }
        }
        oracle
    }

    /// `c0 = p0·u + e1 + m`, `c1 = p1·u + e2` over the plaintext's limbs.
    fn encrypt(&self, pt: &CkksPlaintext, rng: &mut StdRng) -> Vec<RnsPoly> {
        let u = self.signed(rng, true);
        let (e1, e2) = (self.signed(rng, false), self.signed(rng, false));
        let (mut c0, mut c1) = (RnsPoly::new(), RnsPoly::new());
        for (j, m) in pt.limbs().iter().enumerate() {
            let (p0, p1) = &self.pk[j];
            let m = poly(&self.rings[j], m);
            c0.push(
                p0.negacyclic_mul(&u[j])
                    .unwrap()
                    .add(&e1[j])
                    .unwrap()
                    .add(&m)
                    .unwrap()
                    .to_u128_vec(),
            );
            c1.push(p1.negacyclic_mul(&u[j]).unwrap().add(&e2[j]).unwrap().to_u128_vec());
        }
        vec![c0, c1]
    }

    fn decrypt(&self, ct: &CkksCiphertext) -> RnsPoly {
        (0..ct.level().limbs())
            .map(|j| {
                let c: Vec<Poly> =
                    ct.components().iter().map(|c| poly(&self.rings[j], &c[j])).collect();
                decryption_poly(&c, &self.s[j], &self.s_sq[j]).to_u128_vec()
            })
            .collect()
    }
}

/// Key generation, then at every level of the chain: encryption of a
/// plaintext encoded at that level, decryption of the two-component
/// ciphertext and of its three-component square.
fn ckks_streams_match_the_formulas(params: &CkksParams, seed: u64) {
    let (mut rng, mut replay) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    let kg = CkksKeyGenerator::new(params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let pk = kg.public_key(&sk, &mut rng).unwrap();
    let rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let oracle = CkksOracle::keygen(params, &mut replay);
    for (j, digits) in oracle.rlk.iter().enumerate() {
        assert_eq!(rlk.limb_parts(j).len(), digits.len());
        for (i, ((k0, k1), (want0, want1))) in rlk.limb_parts(j).iter().zip(digits).enumerate() {
            let ring = &oracle.rings[j];
            assert_eq!(strict_inverse(ring, k0), want0.coeffs(), "relin k0, limb {j} digit {i}");
            assert_eq!(strict_inverse(ring, k1), want1.coeffs(), "relin k1, limb {j} digit {i}");
        }
    }

    // The public key is pinned by the ciphertexts it masks, `s` and `s²`
    // by what they decrypt.
    let (enc, dec) = (CkksEncryptor::new(params, pk), CkksDecryptor::new(params, sk));
    let (encoder, ev) = (CkksEncoder::new(params), CkksEvaluator::new(params).unwrap());
    let values: Vec<f64> = (0..params.slots()).map(|i| (i as f64 * 0.61).cos() * 2.5).collect();
    for level in (0..=params.top_level().index()).rev().map(Level::new) {
        let pt = encoder.encode_at(&values, level, params.scale()).unwrap();
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        assert_eq!(ct.components(), &oracle.encrypt(&pt, &mut replay)[..], "encrypt at {level}");
        assert_eq!(dec.decrypt(&ct).unwrap().limbs(), &oracle.decrypt(&ct), "decrypt at {level}");
        let cubic = ev.multiply(&ct, &ct).unwrap();
        assert_eq!((cubic.len(), cubic.level()), (3, level));
        assert_eq!(
            dec.decrypt(&cubic).unwrap().limbs(),
            &oracle.decrypt(&cubic),
            "three-component decrypt at {level}"
        );
    }
}

#[test]
fn bfv_paper_rings_match_the_strict_kernels() {
    for params in [BfvParams::paper_n12().unwrap(), BfvParams::paper_n13_single_tower().unwrap()] {
        assert!(params.poly_ring().plan().is_lazy());
        assert_matches_strict(params.poly_ring(), 0x0b_f5);
    }
}

#[test]
fn bfv_encrypt_and_decrypt_streams_match_the_polynomial_formulas() {
    bfv_streams_match_the_formulas(&BfvParams::insecure_testing(1 << 8).unwrap(), 0xb0);
    bfv_streams_match_the_formulas(&BfvParams::paper_n13_single_tower().unwrap(), 0xb1);
}

#[test]
fn ckks_109_bit_chain_matches_the_strict_kernels() {
    let n = 1 << 13;
    let mut moduli = vec![primes::ntt_prime(43, n).unwrap()];
    moduli.extend(primes::ntt_primes(33, n, 2).unwrap());
    // The oracle's rings against the strict kernels, then the streams —
    // on the 64-bit kernels for every one of these primes — against the
    // oracle.
    for (j, &q) in moduli.iter().enumerate() {
        assert_matches_strict(&private_ring(q, n), 0xcc_55 + j as u64);
    }
    let params = CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap();
    ckks_streams_match_the_formulas(&params, 0xc1);
}

#[test]
fn ckks_streams_match_the_polynomial_formulas_at_every_level() {
    ckks_streams_match_the_formulas(&CkksParams::insecure_testing(1 << 8).unwrap(), 0xc0);
}

#[test]
fn no_headroom_modulus_multiplies_through_the_strict_fallback() {
    let n = 32;
    let q = primes::ntt_prime(127, n).unwrap();
    assert!(q >= 1 << 126);
    let ctx = private_ring(q, n);
    assert!(!ctx.plan().is_lazy());
    let mut rng = StdRng::seed_from_u64(127);
    let a = Polynomial::random(Arc::clone(&ctx), &mut rng);
    let b = Polynomial::random(Arc::clone(&ctx), &mut rng);
    let product = a.negacyclic_mul(&b).unwrap();
    let oracle = naive::negacyclic_mul(ctx.ring(), a.coeffs(), b.coeffs()).unwrap();
    assert_eq!(product.coeffs(), &oracle[..]);
    assert_eq!(a.clone().into_ntt().unwrap().into_coeff().unwrap(), a);
}
