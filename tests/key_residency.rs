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
//!
//! A plaintext is the other invariant operand: its NTT form is made once,
//! by its first ct×pt product, stored and shared by its clones, and every
//! route uploads it — `components` forward and `components` inverse
//! transforms per limb, and the naive negacyclic product's bits.

use cofhee::arith::primes::{ntt_prime, ntt_primes};
use cofhee::arith::{Barrett128, Barrett64};
use cofhee::bfv::{
    BfvError, BfvParams, Ciphertext, Encryptor, Evaluator, KeyGenerator, Plaintext, RelinKey,
};
use cofhee::ckks::{
    CkksCiphertext, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator, CkksKeyGenerator,
    CkksParams, CkksRelinKey, CkksSecretKey,
};
use cofhee::core::{
    BackendFactory, ChipBackendFactory, CpuBackendFactory, OpStream, PolyBackend, PoolStats,
    StreamOp, StreamReport,
};
use cofhee::farm::{ChipFarm, FarmError, Job, JobKind, Scheduler, Session, WorkStealing};
use cofhee::opt::{LimbEngine, OptLevel};
use cofhee::poly::naive;
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
    for dies in [1, 3, 4] {
        for level in [OptLevel::O0, OptLevel::O1] {
            let farm = ChipFarm::new(dies, ChipBackendFactory::silicon()).unwrap();
            let mut s = Scheduler::new(farm, Box::new(WorkStealing));
            s.set_opt_level(level);
            let exact = s.open_session(Session::new("e", &g.params, g.rlk.clone()).unwrap());
            let approx = s.open_session(Session::new_ckks("a", &f.params, f.rlk.clone()).unwrap());
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
            let what = format!("{dies} dies, {level}");
            assert_eq!(done[0].result.expect_bfv().polys(), want_bfv.polys(), "{what}");
            assert_eq!(done[1].result.expect_ckks().components(), want_ckks.components(), "{what}");
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

/// The words `st` uploads first: a ct×pt stream's plaintext, as stored.
fn first_upload(st: &OpStream) -> &[u128] {
    match &st.nodes()[0] {
        StreamOp::Upload(payload) => payload.words().unwrap(),
        op => panic!("a ct×pt stream starts with its plaintext's upload, not {op:?}"),
    }
}

/// `raw` through one `Ntt` node on `be`.
fn ntt_node(be: &mut dyn PolyBackend, raw: &[u128]) -> Vec<u128> {
    let mut st = OpStream::new(raw.len());
    let up = st.upload(raw.to_vec()).unwrap();
    let form = st.ntt(up).unwrap();
    st.output(form).unwrap();
    be.execute_stream(&st).unwrap().outputs.remove(0)
}

/// A plaintext of small distinct coefficients below `t`.
fn plaintext(params: &BfvParams, seed: u64) -> Plaintext {
    let t = params.t();
    Plaintext::new(params, (0..params.n() as u64).map(|i| (i * 7 + seed) % t).collect()).unwrap()
}

#[test]
fn the_stored_plaintext_form_is_an_ntt_nodes_output_on_both_backends() {
    for bits in [47, 60, 109] {
        let q = ntt_prime(bits, N).unwrap();
        let g = bfv(BfvParams::new(N, 257, q).unwrap(), 15);
        let pt = plaintext(&g.params, 3);
        let st = Evaluator::new(&g.params).unwrap().mul_plain_stream(&g.a, &pt).unwrap();
        let lift: Vec<u128> = pt.coeffs().iter().map(|&m| u128::from(m)).collect();
        for (name, factory) in &factories() {
            let mut be = factory.make(q, N).unwrap();
            assert_eq!(ntt_node(be.as_mut(), &lift), first_upload(&st), "{name}, {bits}-bit q");
        }
    }
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 15);
    let pt = CkksEncoder::new(&f.params).encode(&[0.75, -2.0]).unwrap();
    let streams = CkksEvaluator::new(&f.params).unwrap().mul_plain_streams(&f.a, &pt).unwrap();
    for (name, factory) in &factories() {
        for (j, (limb, st)) in pt.limbs().iter().zip(&streams).enumerate() {
            let mut be = factory.make(limb.modulus(), N).unwrap();
            assert_eq!(ntt_node(be.as_mut(), limb), first_upload(st), "{name}, ckks limb {j}");
        }
    }
}

#[test]
fn a_ct_pt_product_is_components_forward_and_inverse_transforms_per_limb_on_every_route() {
    let g = bfv(BfvParams::insecure_testing(N).unwrap(), 16);
    let f = ckks(CkksParams::insecure_testing(N).unwrap(), 16);
    let limbs = f.params.moduli().len() as u64;
    let pt = plaintext(&g.params, 5);
    let cpt = CkksEncoder::new(&f.params).encode(&[0.5, 3.0]).unwrap();
    for (name, factory) in &factories() {
        let ev = Evaluator::with_backend(&g.params, factory.as_ref()).unwrap();
        let cubic = ev.multiply(&g.a, &g.b).unwrap();
        // First use, a clone, a three-component ciphertext: the
        // plaintext is never transformed on the die.
        for (what, ct, pt) in
            [("first", &g.a, &pt), ("clone", &g.b, &pt.clone()), ("3", &cubic, &pt)]
        {
            ev.reset_backend_telemetry();
            ev.mul_plain(ct, pt).unwrap();
            let components = ct.len() as u64;
            assert_eq!(
                transforms(ev.backend_report().butterflies),
                2 * components,
                "{name} {what}"
            );
        }
        let ev = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        for (what, pt) in [("first", &cpt), ("clone", &cpt.clone())] {
            ev.reset_backend_telemetry();
            ev.mul_plain(&f.a, pt).unwrap();
            assert_eq!(transforms(ev.backend_report().butterflies), 2 * 2 * limbs, "{name} {what}");
        }
    }

    // The farm and the gateway record the same streams: the same count,
    // and the evaluator's bits.
    let want = Evaluator::new(&g.params).unwrap().mul_plain(&g.a, &pt).unwrap();
    let want_ckks = CkksEvaluator::new(&f.params).unwrap().mul_plain(&f.a, &cpt).unwrap();
    for dies in [1, 4] {
        let farm = ChipFarm::new(dies, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        let exact = s.open_session(Session::new("e", &g.params, g.rlk.clone()).unwrap());
        let approx = s.open_session(Session::new_ckks("a", &f.params, f.rlk.clone()).unwrap());
        let kinds = [
            (exact, JobKind::MulPlain(g.a.clone(), pt.clone())),
            (approx, JobKind::CkksMulPlain(f.a.clone(), cpt.clone())),
            (exact, JobKind::MulPlain(g.a.clone(), pt.clone())),
            (approx, JobKind::CkksMulPlain(f.a.clone(), cpt.clone())),
        ];
        let jobs = kinds.into_iter().map(|(session, kind)| Job { session, kind, arrival: 0 });
        let done = s.run(jobs.collect()).unwrap();
        for pair in done.chunks(2) {
            assert_eq!(pair[0].result.expect_bfv().polys(), want.polys(), "{dies} dies");
            let ckks = pair[1].result.expect_ckks();
            assert_eq!(ckks.components(), want_ckks.components(), "{dies} dies");
        }
        let butterflies = s.metrics().counter("farm.ops.butterflies");
        assert_eq!(transforms(butterflies), 2 * (2 * 2 + 2 * 2 * limbs), "{dies} dies");
    }
    let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
    let sched = Scheduler::new(farm, Box::new(WorkStealing));
    let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(2));
    let exact = gw.register_tenant("exact", &g.params, Some(g.rlk.clone())).unwrap();
    let a = gw.put_ciphertext(exact, g.a.clone()).unwrap();
    let tickets = [0, 1].map(|_| gw.submit(exact, Request::MulPlain(a, pt.clone())).unwrap());
    gw.drain().unwrap();
    for ticket in &tickets {
        assert_eq!(gw.result(ticket).unwrap().polys(), want.polys());
    }
    assert_eq!(transforms(gw.metrics().counter("farm.ops.butterflies")), 2 * 2 * 2);
}

#[test]
fn a_plaintext_keeps_the_form_of_its_first_modulus_and_is_right_under_another() {
    // Two parameter sets sharing (n, t), differing in q.
    let g1 = bfv(BfvParams::insecure_testing(N).unwrap(), 17);
    let t = g1.params.t();
    let q2 = ntt_prime(59, N).unwrap();
    assert_ne!(q2, g1.params.q());
    let g2 = bfv(BfvParams::new(N, t, q2).unwrap(), 17);
    let pt = plaintext(&g1.params, 9);
    let (ev1, ev2) = (Evaluator::new(&g1.params).unwrap(), Evaluator::new(&g2.params).unwrap());

    // A farm's job stores the form of its q; a second job with a clone
    // uploads those very words, transforming nothing on the host.
    let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
    let mut s = Scheduler::new(farm, Box::new(WorkStealing));
    let id = s.open_session(Session::new("e", &g1.params, g1.rlk.clone()).unwrap());
    let job = |ct: &Ciphertext| Job {
        session: id,
        kind: JobKind::MulPlain(ct.clone(), pt.clone()),
        arrival: 0,
    };
    let done = s.run(vec![job(&g1.a), job(&g1.b)]).unwrap();
    // Both streams of a pair held at once, so that a freed form's
    // address cannot be handed out again.
    let pair = |ev: &Evaluator, ct: &Ciphertext| {
        [&pt, &pt.clone()].map(|pt| ev.mul_plain_stream(ct, pt).unwrap())
    };
    // Nothing but the farm has multiplied by `pt` yet. Under q2 its form
    // is made afresh each time, so the cell was full: the farm's first
    // job stored q1's form.
    let [x, y] = pair(&ev2, &g2.a);
    assert_ne!(first_upload(&x).as_ptr(), first_upload(&y).as_ptr(), "not stored under q2");
    assert_eq!(first_upload(&x), first_upload(&y));
    let [x, y] = pair(&ev1, &g1.a);
    assert_eq!(first_upload(&x).as_ptr(), first_upload(&y).as_ptr(), "stored under q1");
    assert_eq!(done[0].result.expect_bfv().polys(), ev1.mul_plain(&g1.a, &pt).unwrap().polys());
    assert_eq!(done[1].result.expect_bfv().polys(), ev1.mul_plain(&g1.b, &pt).unwrap().polys());

    // Correct under both: the naive negacyclic product of each component
    // with the lift.
    for (g, ev) in [(&g1, &ev1), (&g2, &ev2)] {
        let q = g.params.q();
        let ring = Barrett128::new(q).unwrap();
        let lift: Vec<u128> = pt.coeffs().iter().map(|&m| u128::from(m)).collect();
        let prod = ev.mul_plain(&g.a, &pt).unwrap();
        for (got, c) in prod.polys().iter().zip(g.a.polys()) {
            assert_eq!(&**got, naive::negacyclic_mul(&ring, c, &lift).unwrap(), "q = {q}");
        }
    }
}

#[test]
fn ct_pt_products_match_the_naive_oracle_at_the_papers_size() {
    // n = 2^12, log q = 109: BFV's q, and CKKS's 43 + 33 + 33-bit chain.
    let n = 1 << 12;
    let q = ntt_prime(109, n).unwrap();
    let t = ntt_prime(17, n).unwrap() as u64;
    let params = BfvParams::new(n, t, q).unwrap();
    let mut rng = StdRng::seed_from_u64(18);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let ct = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
    let pt = plaintext(&params, 1);
    let ring = Barrett128::new(q).unwrap();
    let lift: Vec<u128> = pt.coeffs().iter().map(|&m| u128::from(m)).collect();
    let want: Vec<Vec<u128>> =
        ct.polys().iter().map(|c| naive::negacyclic_mul(&ring, c, &lift).unwrap()).collect();
    let mut moduli = vec![ntt_prime(43, n).unwrap()];
    moduli.extend(ntt_primes(33, n, 2).unwrap());
    let f = ckks(CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap(), 18);
    let cpt = CkksEncoder::new(&f.params).encode(&[1.25, -0.5]).unwrap();
    let want_ckks: Vec<Vec<Vec<u64>>> =
        f.a.components()
            .iter()
            .map(|c| {
                c.iter()
                    .zip(cpt.limbs())
                    .map(|(limb, p)| {
                        let ring = Barrett64::new(limb.modulus() as u64).unwrap();
                        let words = |l: &[u128]| l.iter().map(|&w| w as u64).collect::<Vec<_>>();
                        naive::negacyclic_mul(&ring, &words(limb), &words(p)).unwrap()
                    })
                    .collect()
            })
            .collect();
    for (name, factory) in &factories() {
        let got = Evaluator::with_backend(&params, factory.as_ref()).unwrap().mul_plain(&ct, &pt);
        let got: Vec<Vec<u128>> = got.unwrap().polys().iter().map(|p| p.to_u128_vec()).collect();
        assert!(got == want, "{name}: bfv ct·pt ≠ the naive product");
        let ev = CkksEvaluator::with_backend(&f.params, factory.as_ref()).unwrap();
        let got = ev.mul_plain(&f.a, &cpt).unwrap();
        let got: Vec<Vec<Vec<u64>>> = got
            .components()
            .iter()
            .map(|c| c.iter().map(|l| l.iter().map(|&w| w as u64).collect()).collect())
            .collect();
        assert!(got == want_ckks, "{name}: ckks ct·pt ≠ the naive product");
    }
}
