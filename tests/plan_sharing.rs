//! A parameter set and the backends built for it share one table set.
//!
//! Alone in its test binary on purpose: it reads the process-global
//! `TwiddleCache` counters, which concurrent tests would move.

use std::sync::Arc;

use cofhee::arith::primes;
use cofhee::bfv::{BfvParams, Evaluator};
use cofhee::poly::TwiddleCache;

#[test]
fn params_and_evaluator_share_one_interned_wide_plan() {
    // The paper's 109-bit q: wider than a word, so the backend serves
    // it on the same Barrett128 engine the parameter set's ring uses.
    let n = 64;
    let q = primes::ntt_prime(109, n).unwrap();
    let params = BfvParams::new(n, primes::ntt_prime(16, n).unwrap() as u64, q).unwrap();
    let after_params = TwiddleCache::stats();
    assert_eq!(after_params.entries128, 1);

    let _evaluator = Evaluator::new(&params).unwrap();
    let after_evaluator = TwiddleCache::stats();
    assert_eq!(after_evaluator.entries128, after_params.entries128, "no second wide plan");
    assert!(after_evaluator.hits > after_params.hits, "the backend's lookup of (q, n) hit");

    let interned = TwiddleCache::barrett128(q, n).unwrap();
    assert!(Arc::ptr_eq(params.poly_ring().plan(), &interned));
}
