//! Key-switch key residency: an evaluator transforms a relinearization
//! key once, keeps it on the backends it owns in NTT form for exactly as
//! long as the key lives, and computes the same bits as the
//! self-contained inline streams a farm ships to borrowed dies.
//!
//! Both schemes share one mechanism (`LimbEngine::resident_keys`), so the
//! lifetime and cycle properties are checked for BFV and CKKS alike; the
//! parity, transform-count and foreign-key checks are CKKS's (BFV's live
//! in `bfv_offload.rs` and `cofhee_bfv::jobs`).

use cofhee::bfv::{BfvParams, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{
    CkksCiphertext, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator, CkksKeyGenerator,
    CkksParams, CkksRelinKey, CkksSecretKey,
};
use cofhee::core::{
    BackendFactory, ChipBackendFactory, CpuBackendFactory, PoolStats, StreamReport,
};
use cofhee::farm::{ChipFarm, FarmError, Job, JobKind, Scheduler, Session, WorkStealing};
use cofhee::opt::{LimbEngine, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 32;

struct Ckks {
    params: CkksParams,
    kg: CkksKeyGenerator,
    sk: CkksSecretKey,
    rlk: CkksRelinKey,
    a: CkksCiphertext,
    b: CkksCiphertext,
    rng: StdRng,
}

fn ckks(params: CkksParams, seed: u64) -> Ckks {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = CkksKeyGenerator::new(&params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let pk = kg.public_key(&sk, &mut rng).unwrap();
    let rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let (encoder, enc) = (CkksEncoder::new(&params), CkksEncryptor::new(&params, pk));
    let a = enc.encrypt(&encoder.encode(&[1.5, -0.25]).unwrap(), &mut rng).unwrap();
    let b = enc.encrypt(&encoder.encode(&[0.5, 2.0]).unwrap(), &mut rng).unwrap();
    Ckks { params, kg, sk, rlk, a, b, rng }
}

fn factories() -> [(&'static str, Box<dyn BackendFactory>); 2] {
    [("cpu", Box::new(CpuBackendFactory)), ("chip", Box::new(ChipBackendFactory::silicon()))]
}

/// Buffers the CPU backends have handed out and not got back: every
/// buffer there is taken from the pool (a hit or a miss) and every free
/// returns one (recycled; a return past the cap would be dropped
/// uncounted and read as a leak, not hide one). `cofhee_opt`'s engine
/// tests show the frees on chip backends by handle.
fn live_buffers(pool: PoolStats) -> u64 {
    pool.hits + pool.misses - pool.recycled
}

/// Forward/inverse transforms behind a butterfly count at degree `N`.
fn transforms(butterflies: u64) -> u64 {
    butterflies / ((N as u64 / 2) * u64::from(N.trailing_zeros()))
}

#[test]
fn resident_relinearize_equals_inline_streams_at_every_level() {
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 1);
    for (name, factory) in &factories() {
        for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
            let ev = CkksEvaluator::with_backend(&f.params, factory.as_ref())
                .unwrap()
                .with_opt_level(level);
            let mut x = f.a.clone();
            for limbs in (1..=f.params.moduli().len()).rev() {
                let cubic = ev.multiply(&x, &x).unwrap();
                assert_eq!(cubic.level().limbs(), limbs);
                let resident = ev.relinearize(&cubic, &f.rlk).unwrap();
                // Dies that hold nothing of this evaluator or this key.
                let borrowed = LimbEngine::new(factory.as_ref(), f.params.moduli(), N)
                    .unwrap()
                    .with_opt_level(level);
                let outs = borrowed.run(0, ev.relin_streams(&cubic, &f.rlk).unwrap()).unwrap();
                let inline =
                    ev.ciphertext_from_limb_outputs(outs, cubic.level(), cubic.scale()).unwrap();
                assert_eq!(
                    resident.components(),
                    inline.components(),
                    "{name} {level} at {limbs} limbs"
                );
                if limbs > 1 {
                    x = ev.rescale(&resident).unwrap();
                }
            }
        }
    }
}

#[test]
fn the_key_is_transformed_once_per_engine_and_clones_share_it() {
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 2);
    let limbs = f.params.moduli().len() as u64;
    let digits = f.params.digits_at(f.params.top_level()) as u64;
    for (name, factory) in &factories() {
        let ev = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        let cubic = ev.multiply(&f.a, &f.b).unwrap();
        let count = |who: &CkksEvaluator, key: &CkksRelinKey| {
            ev.reset_backend_telemetry();
            who.relinearize(&cubic, key).unwrap();
            transforms(ev.backend_report().butterflies)
        };
        // Per limb: `digits` digit NTTs and 2 iNTTs always; the 2·digits
        // key NTTs on the first call only — telemetry resets keep it.
        assert_eq!(count(&ev, &f.rlk), (3 * digits + 2) * limbs, "{name}: first use");
        assert_eq!(count(&ev, &f.rlk), (digits + 2) * limbs, "{name}: resident");
        assert_eq!(count(&ev.clone(), &f.rlk.clone()), (digits + 2) * limbs, "{name}: clones");
        // Another evaluator owns other backends and transforms its own.
        let other = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        other.relinearize(&cubic, &f.rlk).unwrap();
        assert_eq!(transforms(other.backend_report().butterflies), (3 * digits + 2) * limbs);
    }
}

#[test]
fn two_live_keys_never_alias() {
    let mut f = ckks(CkksParams::insecure_testing(N).unwrap(), 3);
    let other = f.kg.relin_key(&f.sk, &mut f.rng).unwrap();
    let ev = CkksEvaluator::new(&f.params).unwrap();
    let cubic = ev.multiply(&f.a, &f.b).unwrap();
    let inline = |key: &CkksRelinKey| {
        let fresh = CkksEvaluator::new(&f.params).unwrap();
        let engine = LimbEngine::new(&CpuBackendFactory, f.params.moduli(), N).unwrap();
        let outs = engine.run(0, fresh.relin_streams(&cubic, key).unwrap()).unwrap();
        fresh.ciphertext_from_limb_outputs(outs, cubic.level(), cubic.scale()).unwrap()
    };
    let (want_a, want_b) = (inline(&f.rlk), inline(&other));
    assert_ne!(want_a.components(), want_b.components(), "fresh randomness per key");
    for _ in 0..2 {
        assert_eq!(ev.relinearize(&cubic, &f.rlk).unwrap().components(), want_a.components());
        assert_eq!(ev.relinearize(&cubic, &other).unwrap().components(), want_b.components());
    }
}

#[test]
fn residency_follows_the_keys_lifetime() {
    // CKKS: 2 · digits buffers per limb and key.
    let mut f = ckks(CkksParams::insecure_testing(N).unwrap(), 4);
    let ev = CkksEvaluator::new(&f.params).unwrap();
    let cubic = ev.multiply(&f.a, &f.b).unwrap();
    let before = live_buffers(ev.backend_pool_stats());
    ev.relinearize(&cubic, &f.rlk).unwrap();
    let one_key = live_buffers(ev.backend_pool_stats());
    let held = 2 * f.params.digits_at(f.params.top_level()) * f.params.moduli().len();
    assert_eq!(one_key - before, held as u64, "ckks key buffers");
    for round in 0..8 {
        // The previous key dies here; the next use of the set frees it.
        f.rlk = f.kg.relin_key(&f.sk, &mut f.rng).unwrap();
        ev.relinearize(&cubic, &f.rlk).unwrap();
        assert_eq!(live_buffers(ev.backend_pool_stats()), one_key, "ckks key {round}");
    }

    // BFV: 2 · digits buffers on the mod-q backend.
    let params = BfvParams::insecure_testing(N).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let a = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
    let ev = Evaluator::new(&params).unwrap();
    let cubic = ev.multiply(&a, &a).unwrap();
    let before = live_buffers(ev.backend_pool_stats());
    let mut rlk = kg.relin_key(16, &mut rng).unwrap();
    ev.relinearize(&cubic, &rlk).unwrap();
    let one_key = live_buffers(ev.backend_pool_stats());
    assert_eq!(one_key - before, 2 * rlk.digit_count() as u64, "bfv key buffers");
    for round in 0..8 {
        rlk = kg.relin_key(16, &mut rng).unwrap();
        ev.relinearize(&cubic, &rlk).unwrap();
        assert_eq!(live_buffers(ev.backend_pool_stats()), one_key, "bfv key {round}");
    }
}

/// Keys made for a chain with a limb fewer (a wider base prime keeps the
/// digit count) and for a same-shape chain over other primes.
fn foreign_keys(home: &CkksParams) -> [(&'static str, CkksRelinKey); 2] {
    use cofhee::arith::primes::{ntt_prime, ntt_primes};
    let scale_primes = ntt_primes(33, N, 4).unwrap();
    let short = vec![ntt_prime(83, N).unwrap(), scale_primes[0]];
    let other = vec![ntt_primes(50, N, 2).unwrap()[1], scale_primes[2], scale_primes[3]];
    [("fewer limbs", short), ("other primes", other)].map(|(what, moduli)| {
        assert_ne!(moduli, home.moduli());
        let params = CkksParams::new(N, moduli, home.scale(), home.base_bits()).unwrap();
        let f = ckks(params, 6);
        assert!(f.rlk.digit_count() >= home.digits_at(home.top_level()), "{what}");
        (what, f.rlk)
    })
}

#[test]
fn a_foreign_relin_key_is_refused_by_the_evaluator() {
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 7);
    let ev = CkksEvaluator::new(&f.params).unwrap();
    let cubic = ev.multiply(&f.a, &f.b).unwrap();
    for (what, key) in foreign_keys(&f.params) {
        let resident = ev.relinearize(&cubic, &key).map(|_| ());
        assert!(matches!(resident, Err(CkksError::ParamsMismatch)), "{what}: {resident:?}");
        let inline = ev.relin_streams(&cubic, &key).map(|_| ());
        assert!(matches!(inline, Err(CkksError::ParamsMismatch)), "{what}: {inline:?}");
        let fused = ev.multiply_relin_rescale(&f.a, &f.b, &key).map(|_| ());
        assert!(matches!(fused, Err(CkksError::ParamsMismatch)), "{what}: {fused:?}");
    }
    // Nothing of a refused key was uploaded, and the home key still works.
    assert_eq!(ev.relinearize(&cubic, &f.rlk).unwrap().len(), 2);
}

#[test]
fn a_foreign_relin_key_is_refused_by_the_farm() {
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 8);
    for (what, key) in foreign_keys(&f.params) {
        let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        // The session opens under the tenant's own parameters; only the
        // key material is foreign.
        let id = s.open_session(Session::new_ckks("mixed-up", &f.params, key).unwrap());
        let err = s
            .run(vec![Job {
                session: id,
                kind: JobKind::CkksMulRelin(f.a.clone(), f.b.clone()),
                arrival: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, FarmError::Ckks(CkksError::ParamsMismatch)), "{what}: {err}");
        assert_eq!(s.report().jobs, 0, "{what}: a refused job leaves no outcome");
    }
}

#[test]
fn o1_never_costs_die_cycles_on_a_resident_key_switch() {
    let chip = ChipBackendFactory::silicon();
    // BFV at the size the regression was first measured at.
    let params = BfvParams::insecure_testing(256).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let a = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
    let bfv = |level| {
        let ev = Evaluator::with_backend(&params, &chip).unwrap().with_opt_level(level);
        let cubic = ev.multiply(&a, &a).unwrap();
        ev.relinearize(&cubic, &rlk).unwrap();
        ev.reset_backend_telemetry();
        let out = ev.relinearize(&cubic, &rlk).unwrap();
        (out.polys().iter().map(|p| p.to_u128_vec()).collect::<Vec<_>>(), ev)
    };
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 10);
    let ckks = |level| {
        let ev = CkksEvaluator::with_backend(&f.params, &chip).unwrap().with_opt_level(level);
        let cubic = ev.multiply(&f.a, &f.b).unwrap();
        ev.relinearize(&cubic, &f.rlk).unwrap();
        ev.reset_backend_telemetry();
        (ev.relinearize(&cubic, &f.rlk).unwrap(), ev)
    };

    let no_dearer = |what: &str, r0: StreamReport, r1: StreamReport| {
        assert!(r1.ops_fused > 0, "{what}: the accumulates fused");
        assert!(
            r1.overlapped_cycles <= r0.overlapped_cycles,
            "{what}: O1 {} vs O0 {}",
            r1.overlapped_cycles,
            r0.overlapped_cycles
        );
    };
    let ((out0, ev0), (out1, ev1)) = (bfv(OptLevel::O0), bfv(OptLevel::O1));
    assert_eq!(out0, out1);
    no_dearer("bfv", ev0.backend_stream_report(), ev1.backend_stream_report());
    let ((out0, ev0), (out1, ev1)) = (ckks(OptLevel::O0), ckks(OptLevel::O1));
    assert_eq!(out0.components(), out1.components());
    no_dearer("ckks", ev0.backend_stream_report(), ev1.backend_stream_report());
}
