//! Client-path parity at the paper's scale, against formulas evaluated on
//! plain vectors.
//!
//! Key generation, encryption and decryption of both schemes are command
//! streams on a `LimbEngine`: a BFV `q` of 109 bits on the interned
//! Harvey plan the backends share, a word-sized `q` and every CKKS limb
//! on the 64-bit kernels. The oracle here shares none of that. It
//! evaluates Eqs. 2–3 and the key formulas on residue vectors with the
//! strict `ntt::negacyclic_mul` of Algorithm 1 and the `pointwise`
//! kernels, on tables of its own, the draws replayed from a second
//! generator on the same seed in the order the samplers have always made
//! them. Every key, ciphertext and plaintext must match — a
//! relinearization key, which both schemes store in NTT form, through the
//! strict inverse kernel. The interned plan itself is pinned to the
//! strict kernels at the rings the paper evaluates (`lazy_parity` covers
//! `n ≤ 2^10`).

use cofhee::arith::signed::ScaleRound;
use cofhee::arith::{primes, Barrett128, ModRing, U256};
use cofhee::bfv::{sampling, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{
    CkksCiphertext, CkksDecryptor, CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator,
    CkksParams, CkksPlaintext, Level,
};
use cofhee::core::Limb;
use cofhee::poly::ntt::{self, NttTables};
use cofhee::poly::{naive, pointwise, HarveyNtt, TwiddleCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A transform plan's `poly_mul`, forward and inverse against the strict
/// kernels on the plan's own tables, fixed-seed operands.
fn assert_matches_strict(plan: &HarveyNtt<Barrett128>, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (ring, tables) = (plan.ring(), plan.tables());
    let q = ring.modulus();
    let mut random = || -> Vec<u128> { (0..plan.n()).map(|_| rng.gen::<u128>() % q).collect() };
    let (a, b) = (random(), random());
    let label = format!("q = {q}, n = {}", plan.n());

    let product = plan.poly_mul(&a, &b).unwrap();
    let strict = ntt::negacyclic_mul(ring, &a, &b, tables).unwrap();
    assert_eq!(product, strict, "poly_mul, {label}");

    let (mut forward, mut a_ntt) = (a.clone(), a.clone());
    ntt::forward_inplace(ring, &mut forward, tables).unwrap();
    plan.forward_inplace(&mut a_ntt).unwrap();
    assert_eq!(a_ntt, forward, "forward, {label}");

    // The inverse on evaluations the forward did not produce.
    let (mut inverse, mut b_coeff) = (b.clone(), b);
    ntt::inverse_inplace(ring, &mut inverse, tables).unwrap();
    plan.inverse_inplace(&mut b_coeff).unwrap();
    assert_eq!(b_coeff, inverse, "inverse, {label}");
    plan.inverse_inplace(&mut a_ntt).unwrap();
    assert_eq!(a_ntt, a, "round trip, {label}");
}

/// One modulus of the oracle: the scalar ring and tables of its own for
/// the strict kernels — no `TwiddleCache` entry, no Harvey plan, no
/// backend.
struct Ring {
    ring: Barrett128,
    tables: NttTables<Barrett128>,
}

impl Ring {
    fn new(q: u128, n: usize) -> Self {
        let ring = Barrett128::new(q).unwrap();
        let tables = NttTables::new(&ring, n).unwrap();
        Self { ring, tables }
    }

    fn q(&self) -> u128 {
        self.ring.modulus()
    }

    fn n(&self) -> usize {
        self.tables.n()
    }

    /// `a·b`, the strict merged transform.
    fn mul(&self, a: &[u128], b: &[u128]) -> Vec<u128> {
        ntt::negacyclic_mul(&self.ring, a, b, &self.tables).unwrap()
    }

    fn add(&self, a: &[u128], b: &[u128]) -> Vec<u128> {
        let mut sum = a.to_vec();
        pointwise::add_assign(&self.ring, &mut sum, b).unwrap();
        sum
    }

    fn scalar(&self, a: &[u128], c: u128) -> Vec<u128> {
        let mut product = a.to_vec();
        pointwise::scalar_mul_assign(&self.ring, &mut product, c);
        product
    }

    /// `−(a·s + e)`.
    fn masked(&self, a: &[u128], s: &[u128], e: &[u128]) -> Vec<u128> {
        self.scalar(&self.add(&self.mul(a, s), e), self.q() - 1)
    }

    fn uniform(&self, rng: &mut StdRng) -> Vec<u128> {
        sampling::uniform(&self.ring, self.n(), rng)
    }

    /// The BFV draws: ternary and CBD directly in the ring.
    fn ternary(&self, rng: &mut StdRng) -> Vec<u128> {
        sampling::ternary(&self.ring, self.n(), rng)
    }

    fn cbd(&self, rng: &mut StdRng) -> Vec<u128> {
        sampling::error_poly(&self.ring, self.n(), rng)
    }

    /// The raw polynomial behind a stored NTT-form key polynomial: the
    /// strict inverse kernel on the oracle's own tables.
    fn strict_inverse(&self, stored: &[u128]) -> Vec<u128> {
        let mut raw = stored.to_vec();
        ntt::inverse_inplace(&self.ring, &mut raw, &self.tables).unwrap();
        raw
    }

    /// `v = c0 + c1·s (+ c2·s²)`.
    fn decryption_poly(&self, c: &[&[u128]], s: &[u128], s_sq: &[u128]) -> Vec<u128> {
        let v = self.add(c[0], &self.mul(c[1], s));
        match c.get(2) {
            Some(c2) => self.add(&v, &self.mul(c2, s_sq)),
            None => v,
        }
    }
}

/// The residues of each limb.
fn words(poly: &[Limb]) -> Vec<Vec<u128>> {
    poly.iter().map(Limb::to_u128_vec).collect()
}

/// BFV's Eqs. 2–3 on plain vectors, draws in `Encryptor`'s order.
fn bfv_streams_match_the_formulas(params: &BfvParams, seed: u64) {
    let r = Ring::new(params.q(), params.n());
    let (mut rng, mut replay) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

    let kg = KeyGenerator::new(params, &mut rng);
    let pk = kg.public_key(&mut rng).unwrap();
    let s = r.ternary(&mut replay);
    let s_sq = r.mul(&s, &s);
    let p1 = r.uniform(&mut replay);
    let p0 = r.masked(&p1, &s, &r.cbd(&mut replay));
    assert_eq!(kg.secret_key().poly().coeffs(), &s[..]);

    let (enc, dec) = (Encryptor::new(params, pk), Decryptor::new(params, kg.secret_key().clone()));
    let (t, q, delta) = (params.t(), params.q(), params.delta());
    let message: Vec<u64> = (0..params.n() as u64).map(|i| (i * 7919 + 11) % t).collect();
    let pt = Plaintext::new(params, message.clone()).unwrap();
    let ct = enc.encrypt(&pt, &mut rng).unwrap();
    let u = r.ternary(&mut replay);
    let (e1, e2) = (r.cbd(&mut replay), r.cbd(&mut replay));
    let dm: Vec<u128> = message.iter().map(|&m| r.ring.from_u128(delta * u128::from(m))).collect();
    let c0 = r.add(&r.add(&r.mul(&p0, &u), &e1), &dm);
    let c1 = r.add(&r.mul(&p1, &u), &e2);
    assert_eq!(ct.polys()[0].coeffs(), &c0[..], "c0, q = {q}");
    assert_eq!(ct.polys()[1].coeffs(), &c1[..], "c1, q = {q}");

    // Decryption of two and of three components: `⌊t·v/q⌉ mod t` of the
    // oracle's `v`, and the budget its noise leaves.
    let round = ScaleRound::new(u128::from(t), q, u128::from(t)).unwrap();
    let cubic = Evaluator::new(params).unwrap().multiply(&ct, &ct).unwrap();
    for ct in [&ct, &cubic] {
        let components: Vec<&[u128]> = ct.polys().iter().map(Limb::coeffs).collect();
        let v = r.decryption_poly(&components, &s, &s_sq);
        let ring = &r.ring;
        let (mut want, mut worst) = (Vec::new(), 0u128);
        for &c in &v {
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
    let ring = &r.ring;
    let mut t_pow = ring.one();
    for (i, (k0, k1)) in rlk.parts().iter().enumerate() {
        let a = r.uniform(&mut replay);
        let masked = r.masked(&a, &s, &r.cbd(&mut replay));
        let want0 = r.add(&masked, &r.scalar(&s_sq, t_pow));
        assert_eq!(r.strict_inverse(k0), want0, "relin k0, digit {i}, q = {q}");
        assert_eq!(r.strict_inverse(k1), a, "relin k1, digit {i}, q = {q}");
        t_pow = ring.mul(t_pow, ring.from_u128(1 << 16));
    }
}

/// The CKKS client path on plain vectors, one oracle ring per chain
/// prime.
struct CkksOracle {
    rings: Vec<Ring>,
    s: Vec<Vec<u128>>,
    s_sq: Vec<Vec<u128>>,
    pk: Vec<(Vec<u128>, Vec<u128>)>,
    /// `rlk[limb][digit] = (k0, k1)`.
    rlk: Vec<Vec<(Vec<u128>, Vec<u128>)>>,
}

impl CkksOracle {
    /// One small signed polynomial, sampled in the base limb's ring and
    /// lifted into every limb.
    fn signed(&self, rng: &mut StdRng, ternary: bool) -> Vec<Vec<u128>> {
        let base = &self.rings[0];
        let drawn = if ternary { base.ternary(rng) } else { base.cbd(rng) };
        let signed: Vec<i64> = drawn
            .into_iter()
            .map(|e| {
                let (mag, neg) = sampling::elem_to_centered(&base.ring, e);
                if neg {
                    -(mag as i64)
                } else {
                    mag as i64
                }
            })
            .collect();
        self.rings
            .iter()
            .map(|r| signed.iter().map(|&v| sampling::signed_to_elem(&r.ring, v)).collect())
            .collect()
    }

    /// Secret, public and relinearization key, drawn as
    /// `CkksKeyGenerator` draws them: `s`; then `e` and one `a` per limb;
    /// then per digit `e` and one `a` per limb.
    fn keygen(params: &CkksParams, rng: &mut StdRng) -> Self {
        let rings = params.moduli().iter().map(|&q| Ring::new(q, params.n())).collect();
        let mut oracle = Self { rings, s: vec![], s_sq: vec![], pk: vec![], rlk: vec![] };
        oracle.s = oracle.signed(rng, true);
        oracle.s_sq = oracle.rings.iter().zip(&oracle.s).map(|(r, s)| r.mul(s, s)).collect();
        let e = oracle.signed(rng, false);
        for (j, e_j) in e.iter().enumerate() {
            let r = &oracle.rings[j];
            let a = r.uniform(rng);
            oracle.pk.push((r.masked(&a, &oracle.s[j], e_j), a));
        }
        oracle.rlk = vec![Vec::new(); oracle.rings.len()];
        for i in 0..params.digits_at(params.top_level()) {
            let e = oracle.signed(rng, false);
            for (j, e_j) in e.iter().enumerate() {
                let r = &oracle.rings[j];
                let a = r.uniform(rng);
                let t_pow = r.ring.pow(r.ring.from_u128(1 << params.base_bits()), i as u128);
                let shifted = r.scalar(&oracle.s_sq[j], t_pow);
                let k0 = r.add(&r.masked(&a, &oracle.s[j], e_j), &shifted);
                oracle.rlk[j].push((k0, a));
            }
        }
        oracle
    }

    /// `c0 = p0·u + e1 + m`, `c1 = p1·u + e2` over the plaintext's limbs.
    fn encrypt(&self, pt: &CkksPlaintext, rng: &mut StdRng) -> Vec<Vec<Vec<u128>>> {
        let u = self.signed(rng, true);
        let (e1, e2) = (self.signed(rng, false), self.signed(rng, false));
        let (mut c0, mut c1) = (Vec::new(), Vec::new());
        for (j, m) in pt.limbs().iter().enumerate() {
            let (r, (p0, p1)) = (&self.rings[j], &self.pk[j]);
            c0.push(r.add(&r.add(&r.mul(p0, &u[j]), &e1[j]), m));
            c1.push(r.add(&r.mul(p1, &u[j]), &e2[j]));
        }
        vec![c0, c1]
    }

    fn decrypt(&self, ct: &CkksCiphertext) -> Vec<Vec<u128>> {
        (0..ct.level().limbs())
            .map(|j| {
                let c: Vec<&[u128]> = ct.components().iter().map(|c| c[j].coeffs()).collect();
                self.rings[j].decryption_poly(&c, &self.s[j], &self.s_sq[j])
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
            let r = &oracle.rings[j];
            assert_eq!(&r.strict_inverse(k0), want0, "relin k0, limb {j} digit {i}");
            assert_eq!(&r.strict_inverse(k1), want1, "relin k1, limb {j} digit {i}");
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
        let got: Vec<_> = ct.components().iter().map(|c| words(c)).collect();
        assert_eq!(got, oracle.encrypt(&pt, &mut replay), "encrypt at {level}");
        let got = words(dec.decrypt(&ct).unwrap().limbs());
        assert_eq!(got, oracle.decrypt(&ct), "decrypt at {level}");
        let cubic = ev.multiply(&ct, &ct).unwrap();
        assert_eq!((cubic.len(), cubic.level()), (3, level));
        let got = words(dec.decrypt(&cubic).unwrap().limbs());
        assert_eq!(got, oracle.decrypt(&cubic), "three-component decrypt at {level}");
    }
}

#[test]
fn bfv_paper_rings_match_the_strict_kernels() {
    for params in [BfvParams::paper_n12().unwrap(), BfvParams::paper_n13_single_tower().unwrap()] {
        // The interned plan every backend for `(q, n)` runs on.
        let plan = TwiddleCache::barrett128(params.q(), params.n()).unwrap();
        assert!(plan.is_lazy());
        assert_matches_strict(&plan, 0x0b_f5);
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
    // The streams — on the 64-bit kernels for every one of these primes —
    // against the oracle on the strict ones.
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
    let ring = Barrett128::new(q).unwrap();
    let plan = HarveyNtt::new(&ring, n).unwrap();
    assert!(!plan.is_lazy());
    let mut rng = StdRng::seed_from_u64(127);
    let a: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() % q).collect();
    let b: Vec<u128> = (0..n).map(|_| rng.gen::<u128>() % q).collect();
    assert_eq!(plan.poly_mul(&a, &b).unwrap(), naive::negacyclic_mul(&ring, &a, &b).unwrap());
    assert_matches_strict(&plan, 0x7f);
}
