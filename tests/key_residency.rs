//! Key-switch keys are stored in NTT form: a relinearization key is
//! transformed once, as it is generated, and no execution route
//! transforms it again — the evaluator uploads it to the backends it
//! owns for exactly as long as the key lives, a farm or a gateway ships
//! it inside self-contained streams, and all of them run `digits + 2`
//! transforms per limb and compute the same bits.
//!
//! Both schemes share one mechanism (`LimbEngine::resident_keys`, one
//! `record_key_switch`), so the lifetime, count and cycle properties are
//! checked for BFV and CKKS alike; BFV's short-digit refusal needs a key
//! only `cofhee_bfv` can build and lives in `cofhee_bfv::jobs`.

use cofhee::arith::{primes::ntt_prime, Barrett128};
use cofhee::bfv::{
    BfvError, BfvParams, Ciphertext, Encryptor, Evaluator, KeyGenerator, Plaintext, RelinKey,
};
use cofhee::ckks::{
    CkksCiphertext, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator, CkksKeyGenerator,
    CkksParams, CkksRelinKey, CkksSecretKey,
};
use cofhee::core::{
    BackendFactory, ChipBackendFactory, CpuBackendFactory, OpStream, PoolStats, StreamReport,
};
use cofhee::farm::{
    ChipFarm, FarmError, Job, JobKind, RoundRobin, Scheduler, Session, WorkStealing,
};
use cofhee::opt::{LimbEngine, OptLevel};
use cofhee::poly::ntt::{self, NttTables};
use cofhee::service::{Gateway, GatewayConfig, Request, TenantFair};
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

struct Bfv {
    params: BfvParams,
    rlk: RelinKey,
    a: Ciphertext,
    b: Ciphertext,
}

fn bfv(params: BfvParams, seed: u64) -> Bfv {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let a = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
    let b = enc.encrypt(&Plaintext::constant(&params, 5).unwrap(), &mut rng).unwrap();
    Bfv { params, rlk, a, b }
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
        for level in [OptLevel::O0, OptLevel::O1] {
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
fn an_evaluators_key_switch_is_digits_plus_two_transforms_from_the_first_use() {
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 2);
    let limbs = f.params.moduli().len() as u64;
    let digits = f.params.digits_at(f.params.top_level()) as u64;
    let g = bfv(BfvParams::insecure_testing(N).unwrap(), 2);
    for (name, factory) in &factories() {
        // CKKS. Per limb: `digits` digit NTTs and 2 iNTTs — and nothing
        // for the key, first use or not, clone or not.
        let ev = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        let cubic = ev.multiply(&f.a, &f.b).unwrap();
        let count = |who: &CkksEvaluator, key: &CkksRelinKey| {
            ev.reset_backend_telemetry();
            who.relinearize(&cubic, key).unwrap();
            transforms(ev.backend_report().butterflies)
        };
        assert_eq!(count(&ev, &f.rlk), (digits + 2) * limbs, "{name}: first use");
        assert_eq!(count(&ev, &f.rlk), (digits + 2) * limbs, "{name}: resident");
        assert_eq!(count(&ev.clone(), &f.rlk.clone()), (digits + 2) * limbs, "{name}: clones");
        // Another evaluator owns other backends and uploads its own copy.
        let other = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        other.relinearize(&cubic, &f.rlk).unwrap();
        assert_eq!(transforms(other.backend_report().butterflies), (digits + 2) * limbs);

        // BFV, one mod-q stream.
        let ev = Evaluator::with_backend(&g.params, factory.as_ref()).unwrap();
        let cubic = ev.multiply(&g.a, &g.b).unwrap();
        for what in ["first use", "resident"] {
            ev.reset_backend_telemetry();
            ev.relinearize(&cubic, &g.rlk).unwrap();
            let resident = ev.backend_stream_report();
            assert_eq!(
                transforms(ev.backend_report().butterflies),
                g.rlk.digit_count() as u64 + 2,
                "{name} bfv: {what}"
            );
            // The stream a farm ships is the same stream: on a borrowed
            // backend it costs what the resident one does, cycle for cycle.
            let borrowed = LimbEngine::new(factory.as_ref(), &[g.params.q()], N).unwrap();
            borrowed.run_one(0, ev.relin_stream(&cubic, &g.rlk).unwrap()).unwrap();
            assert_eq!(borrowed.report().butterflies, ev.backend_report().butterflies);
            assert_eq!(borrowed.stream_report(), resident, "{name} bfv: shipped vs {what}");
        }
    }
}

/// Transforms behind one BFV and one CKKS `MulRelin`: the tensor's four
/// forward and three inverse per limb, `digits + 2` per key-switch limb,
/// none for the rescale.
fn mul_relin_transforms(g: &Bfv, f: &Ckks) -> u64 {
    let bfv = 7 * g.params.mult_basis().len() + g.rlk.digit_count() + 2;
    let limbs = f.params.moduli().len();
    let ckks = (7 + f.params.digits_at(f.params.top_level()) + 2) * limbs;
    (bfv + ckks) as u64
}

#[test]
fn a_farm_key_switch_is_digits_plus_two_transforms_and_the_evaluators_bits() {
    let g = bfv(BfvParams::insecure_testing(N).unwrap(), 11);
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 11);
    let want_bfv = Evaluator::new(&g.params).unwrap().multiply_relin(&g.a, &g.b, &g.rlk).unwrap();
    let want_ckks =
        CkksEvaluator::new(&f.params).unwrap().multiply_relin_rescale(&f.a, &f.b, &f.rlk).unwrap();
    for dies in [1, 4] {
        for level in [OptLevel::O0, OptLevel::O1] {
            for policy in [0, 1] {
                let farm = ChipFarm::new(dies, ChipBackendFactory::silicon()).unwrap();
                let mut s = match policy {
                    0 => Scheduler::new(farm, Box::new(WorkStealing)),
                    _ => Scheduler::new(farm, Box::new(RoundRobin::default())),
                };
                s.set_opt_level(level);
                let exact = s.open_session(Session::new("e", &g.params, g.rlk.clone()).unwrap());
                let approx =
                    s.open_session(Session::new_ckks("a", &f.params, f.rlk.clone()).unwrap());
                let done = s
                    .run(vec![
                        Job {
                            session: exact,
                            kind: JobKind::MulRelin(g.a.clone(), g.b.clone()),
                            arrival: 0,
                        },
                        Job {
                            session: approx,
                            kind: JobKind::CkksMulRelin(f.a.clone(), f.b.clone()),
                            arrival: 0,
                        },
                    ])
                    .unwrap();
                let what = format!("{dies} dies, {level}, policy {policy}");
                assert_eq!(done[0].result.expect_bfv().polys(), want_bfv.polys(), "{what}");
                assert_eq!(
                    done[1].result.expect_ckks().components(),
                    want_ckks.components(),
                    "{what}"
                );
                let m = s.metrics();
                assert_eq!(
                    transforms(m.counter("farm.ops.butterflies")),
                    mul_relin_transforms(&g, &f),
                    "{what}"
                );
                // The key is what a key switch uploads most of.
                let key_polys =
                    2 * g.rlk.digit_count() + 2 * f.rlk.digit_count() * f.params.moduli().len();
                assert_eq!(m.counter("farm.dma.key_bytes"), (key_polys * N * 16) as u64, "{what}");
            }
        }
    }
}

#[test]
fn a_gateway_key_switch_is_digits_plus_two_transforms_and_the_evaluators_bits() {
    let g = bfv(BfvParams::insecure_testing(N).unwrap(), 12);
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 12);
    let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
    let sched = Scheduler::new(farm, Box::new(WorkStealing));
    let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(2));
    let exact = gw.register_tenant("exact", &g.params, Some(g.rlk.clone())).unwrap();
    let approx = gw.register_ckks_tenant("approx", &f.params, Some(f.rlk.clone())).unwrap();
    let (a, b) = (
        gw.put_ciphertext(exact, g.a.clone()).unwrap(),
        gw.put_ciphertext(exact, g.b.clone()).unwrap(),
    );
    let (x, y) = (
        gw.put_ckks_ciphertext(approx, f.a.clone()).unwrap(),
        gw.put_ckks_ciphertext(approx, f.b.clone()).unwrap(),
    );
    let t_bfv = gw.submit(exact, Request::MulRelin(a, b)).unwrap();
    let t_ckks = gw.submit(approx, Request::CkksMulRelin(x, y)).unwrap();
    gw.drain().unwrap();
    let want = Evaluator::new(&g.params).unwrap().multiply_relin(&g.a, &g.b, &g.rlk).unwrap();
    assert_eq!(gw.result(&t_bfv).unwrap().polys(), want.polys());
    let want =
        CkksEvaluator::new(&f.params).unwrap().multiply_relin_rescale(&f.a, &f.b, &f.rlk).unwrap();
    assert_eq!(gw.result_ckks(&t_ckks).unwrap().components(), want.components());
    assert_eq!(
        transforms(gw.metrics().counter("farm.ops.butterflies")),
        mul_relin_transforms(&g, &f)
    );
}

#[test]
fn the_stored_form_is_an_ntt_nodes_output_over_the_raw_key_on_both_backends() {
    for bits in [47, 60, 109] {
        let q = ntt_prime(bits, N).unwrap();
        let g = bfv(BfvParams::new(N, 257, q).unwrap(), 13);
        let ring = Barrett128::new(q).unwrap();
        let tables = NttTables::new(&ring, N).unwrap();
        for (name, factory) in &factories() {
            let mut be = factory.make(q, N).unwrap();
            for (i, stored) in g.rlk.parts().iter().flat_map(|(k0, k1)| [k0, k1]).enumerate() {
                // The raw key polynomial, by the strict inverse kernel…
                let mut raw = stored.to_vec();
                ntt::inverse_inplace(&ring, &mut raw, &tables).unwrap();
                assert_ne!(&raw, &**stored);
                // …transforms, on the backend, to exactly what is stored.
                let mut st = OpStream::new(N);
                let up = st.upload(raw).unwrap();
                let form = st.ntt(up).unwrap();
                st.output(form).unwrap();
                let out = be.execute_stream(&st).unwrap().outputs;
                assert_eq!(&out[0], &**stored, "{name}, {bits}-bit q, polynomial {i}");
            }
        }
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
fn a_foreign_bfv_relin_key_is_refused_before_anything_is_uploaded() {
    let home = bfv(BfvParams::insecure_testing(N).unwrap(), 14);
    let other_degree = bfv(BfvParams::insecure_testing(2 * N).unwrap(), 14).rlk;
    let other_modulus =
        bfv(BfvParams::new(N, home.params.t(), ntt_prime(59, N).unwrap()).unwrap(), 14).rlk;
    assert_eq!(other_modulus.digit_count(), home.rlk.digit_count());
    for (name, factory) in &factories() {
        let ev = Evaluator::with_backend(&home.params, factory.as_ref()).unwrap();
        let cubic = ev.multiply(&home.a, &home.b).unwrap();
        ev.reset_backend_telemetry();
        let held = live_buffers(ev.backend_pool_stats());
        for (what, key) in [("degree", &other_degree), ("modulus", &other_modulus)] {
            let resident = ev.relinearize(&cubic, key).map(|_| ());
            assert_eq!(resident, Err(BfvError::ParamsMismatch), "{name}, foreign {what}");
            let shipped = ev.relin_stream(&cubic, key).map(|_| ());
            assert_eq!(shipped, Err(BfvError::ParamsMismatch), "{name}, foreign {what}");
        }
        assert_eq!(ev.backend_comm_stats().bytes, 0, "{name}: nothing crossed the link");
        assert_eq!(live_buffers(ev.backend_pool_stats()), held, "{name}: nothing was stored");
        assert_eq!(ev.relinearize(&cubic, &home.rlk).unwrap().len(), 2);
    }
    // A farm refuses it the same way, and the job leaves no outcome.
    let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
    let mut s = Scheduler::new(farm, Box::new(WorkStealing));
    let id = s.open_session(Session::new("mixed-up", &home.params, other_modulus).unwrap());
    let err = s
        .run(vec![Job { session: id, kind: JobKind::MulRelin(home.a, home.b), arrival: 0 }])
        .unwrap_err();
    assert!(matches!(err, FarmError::Bfv(BfvError::ParamsMismatch)), "{err}");
    assert_eq!(s.report().jobs, 0);
    assert_eq!(s.metrics().counter("farm.dma.key_bytes"), 0);
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
    // Each run squares (the repeated operand is what `O1` drops nodes
    // for — the witness that the level took effect), warms the key up,
    // and then reports one resident key switch on its own.
    let bfv = |level| {
        let ev = Evaluator::with_backend(&params, &chip).unwrap().with_opt_level(level);
        let cubic = ev.multiply(&a, &a).unwrap();
        ev.relinearize(&cubic, &rlk).unwrap();
        let squaring = ev.backend_stream_report().ops_eliminated;
        ev.reset_backend_telemetry();
        let out = ev.relinearize(&cubic, &rlk).unwrap();
        let out = out.polys().iter().map(|p| p.to_u128_vec()).collect::<Vec<_>>();
        (out, squaring, ev.backend_stream_report())
    };
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 10);
    let ckks = |level| {
        let ev = CkksEvaluator::with_backend(&f.params, &chip).unwrap().with_opt_level(level);
        let cubic = ev.multiply(&f.a, &f.a).unwrap();
        ev.relinearize(&cubic, &f.rlk).unwrap();
        let squaring = ev.backend_stream_report().ops_eliminated;
        ev.reset_backend_telemetry();
        let out = ev.relinearize(&cubic, &f.rlk).unwrap();
        (out.components().to_vec(), squaring, ev.backend_stream_report())
    };

    fn same_switch<T: PartialEq + std::fmt::Debug>(
        what: &str,
        (out0, dropped0, r0): (T, u64, StreamReport),
        (out1, dropped1, r1): (T, u64, StreamReport),
    ) {
        assert_eq!(out0, out1, "{what}");
        assert_eq!(dropped0, 0, "{what}: O0 squares as recorded");
        assert!(dropped1 > 0, "{what}: O1 uploads and transforms the square's operand once");
        // A key switch records no operand twice: compiled or not, it is
        // the same commands.
        assert_eq!(r1.ops_eliminated, 0, "{what}");
        assert_eq!(r1.overlapped_cycles, r0.overlapped_cycles, "{what}: O1 vs O0");
    }
    same_switch("bfv", bfv(OptLevel::O0), bfv(OptLevel::O1));
    same_switch("ckks", ckks(OptLevel::O0), ckks(OptLevel::O1));
}
