//! Parameter sets hold no transform plan: the backends built for them
//! share one interned table set per `(q, n)` — one wide plan for a BFV
//! process at the paper's 109 bits, whether an evaluator or the key
//! generator brings it up first, and one word-width plan per chain prime
//! and no wide one for a CKKS process, however many evaluators and
//! client objects it brings up, and however many plaintexts its ct×pt
//! products transform on the host.
//!
//! Alone in its test binary on purpose: it reads the process-global
//! `TwiddleCache` counters, which concurrent tests would move.

use cofhee::arith::primes;
use cofhee::bfv::{BfvParams, Evaluator, KeyGenerator};
use cofhee::ckks::{
    CkksDecryptor, CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator, CkksParams,
};
use cofhee::poly::TwiddleCache;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn params_and_evaluator_share_one_interned_wide_plan() {
    // The paper's 109-bit q: wider than a word, so every backend serves
    // it on the Barrett128 engine.
    let n = 64;
    let q = primes::ntt_prime(109, n).unwrap();
    let before = TwiddleCache::stats();
    let params = BfvParams::new(n, primes::ntt_prime(16, n).unwrap() as u64, q).unwrap();
    assert_eq!(TwiddleCache::stats(), before, "BfvParams::new leaves the cache alone");

    let _evaluator = Evaluator::new(&params).unwrap();
    let after_evaluator = TwiddleCache::stats();
    assert_eq!(after_evaluator.entries128, before.entries128 + 1, "one wide plan, for q");

    let _keys = KeyGenerator::new(&params, &mut StdRng::seed_from_u64(5));
    let after_keys = TwiddleCache::stats();
    assert_eq!(after_keys.entries128, after_evaluator.entries128, "no second wide plan");
    assert!(after_keys.hits > after_evaluator.hits, "the key generator's lookup of (q, n) hit");

    // CKKS, the benchmark's 43/33/33-bit chain: the parameter set builds
    // no plan and looks none up.
    let before = TwiddleCache::stats();
    let mut moduli = vec![primes::ntt_prime(43, n).unwrap()];
    moduli.extend(primes::ntt_primes(33, n, 2).unwrap());
    let params = CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap();
    assert_eq!(TwiddleCache::stats(), before, "CkksParams::new leaves the cache alone");

    // An evaluator and every client object, each used: four engines over
    // the chain, all on the same three word-width plans.
    let mut rng = StdRng::seed_from_u64(5);
    let evaluator = CkksEvaluator::new(&params).unwrap();
    let kg = CkksKeyGenerator::new(&params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
    let rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let dec = CkksDecryptor::new(&params, sk);
    let encoder = CkksEncoder::new(&params);
    let ct = enc.encrypt(&encoder.encode(&[1.5]).unwrap(), &mut rng).unwrap();
    let product = evaluator.multiply_relin_rescale(&ct, &ct, &rlk).unwrap();
    dec.decrypt(&product).unwrap();
    // A ct×pt product transforms the plaintext on the host, once, at the
    // width the backends compute at.
    evaluator.mul_plain(&ct, &encoder.encode(&[0.5]).unwrap()).unwrap();
    let after = TwiddleCache::stats();
    assert_eq!(after.entries64, before.entries64 + 3, "one narrow plan per chain prime");
    assert_eq!(after.entries128, before.entries128, "and no wide one");
    assert_eq!(after.misses, before.misses + 3, "built once, by whoever came first");
}
