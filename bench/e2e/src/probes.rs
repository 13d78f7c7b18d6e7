//! Layer probes of the traced run: `arith` and `poly` primitives timed
//! directly through their public functions, at the workload's degree and
//! the paper's moduli. They do not depend on the workload's inputs, only
//! on its `n`, so they read the same under every workload at that degree.

use std::hint::black_box;
use std::time::Instant;

use cofhee_arith::{Barrett128, Barrett64, LazyRing, ModRing, U256};
use cofhee_poly::{HarveyNtt, TwiddleCache};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::bfv_params;
use crate::harness::{BenchResult, Metrics, RunConfig};
use crate::stats::median;

/// ns per multiply over a chain of `count` dependent `mul`s (each feeds
/// the next, so the latency, not the issue rate, is what is measured).
fn mulmod_ns<R: ModRing>(ring: &R, count: u32, seed: u128) -> f64 {
    let w = ring.from_u128(seed | 1);
    let mut x = ring.from_u128(seed.rotate_left(17) | 3);
    let t = Instant::now();
    for _ in 0..count {
        x = ring.mul(black_box(x), w);
    }
    black_box(x);
    t.elapsed().as_secs_f64() * 1e9 / f64::from(count)
}

/// `(ntt, intt, poly_mul)` ns per call on `plan`, medians over `reps`.
fn transforms<R: LazyRing>(
    plan: &HarveyNtt<R>,
    rng: &mut StdRng,
    reps: usize,
) -> BenchResult<(f64, f64, f64)> {
    let ring = plan.ring();
    let mut draw = || (0..plan.n()).map(|_| ring.from_u128(rng.gen())).collect::<Vec<R::Elem>>();
    let (a, b) = (draw(), draw());
    let ns = |t: Instant| t.elapsed().as_secs_f64() * 1e9;
    // Forward and inverse alternate on one buffer, so its values stay a
    // valid polynomial however many repetitions run.
    let mut buf = a.clone();
    let (mut fwd, mut inv, mut mul) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..=reps {
        let t = Instant::now();
        plan.forward_inplace(&mut buf)?;
        let f = ns(t);
        let t = Instant::now();
        plan.inverse_inplace(&mut buf)?;
        let v = ns(t);
        let t = Instant::now();
        black_box(plan.poly_mul(black_box(&a), black_box(&b))?);
        let p = ns(t);
        // Repetition 0 warms the caches.
        if i > 0 {
            fwd.push(f);
            inv.push(v);
            mul.push(p);
        }
    }
    Ok((median(&fwd), median(&inv), median(&mul)))
}

/// Sets every `arith.*` and `poly.*_ns` metric for degree `n`.
pub fn layer_probes(cfg: &RunConfig, n: usize, m: &mut Metrics) -> BenchResult<()> {
    let params = bfv_params(n)?;
    let basis = params.mult_basis();
    let limb = basis.moduli()[0];
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e0b);
    let chain = cfg.sized(1 << 20, 1 << 14);
    let reps = cfg.sized(200, 20);

    m.set("arith.mulmod64_ns", mulmod_ns(&Barrett64::new(limb as u64)?, chain, rng.gen()));
    m.set("arith.mulmod128_ns", mulmod_ns(&Barrett128::new(params.q())?, chain, rng.gen()));

    // The per-coefficient body of `tensor_combine`: CRT-compose the limb
    // residues, scale by t, divide by q with rounding.
    let (q, t) = (U256::from_u128(params.q()), U256::from_u128(u128::from(params.t())));
    let residues: Vec<Vec<u128>> = (0..n.min(1024))
        .map(|_| basis.moduli().iter().map(|&p| rng.gen::<u128>() % p).collect())
        .collect();
    let mut passes = Vec::new();
    for _ in 0..reps.min(50) {
        let started = Instant::now();
        for r in &residues {
            let (mag, _) = basis.compose_centered(black_box(r))?;
            let (num, _) = mag.widening_mul(t);
            black_box(cofhee_arith::signed::round_div_u256(num, q));
        }
        passes.push(started.elapsed().as_secs_f64() * 1e9);
    }
    let per_pass = median(&passes);
    m.set("arith.crt_compose_ns", per_pass / residues.len() as f64);

    let (ntt, intt, _) = transforms(&*TwiddleCache::barrett64(limb as u64, n)?, &mut rng, reps)?;
    m.set("poly.ntt64_ns", ntt);
    m.set("poly.intt64_ns", intt);
    let (ntt, intt, mul) = transforms(&*TwiddleCache::barrett128(params.q(), n)?, &mut rng, reps)?;
    m.set("poly.ntt128_ns", ntt);
    m.set("poly.intt128_ns", intt);
    m.set("poly.polymul128_ns", mul);
    Ok(())
}
