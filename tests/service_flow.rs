//! Property tests for the service front-end: random interleavings of
//! handle-addressed requests across three tenants must decrypt exactly
//! like direct `Evaluator` calls on the same operands, rejected
//! requests must never mutate the ciphertext registry, and the whole
//! flow must be bit-for-bit deterministic for a fixed script.

use cofhee::bfv::{BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext, RelinKey};
use cofhee::core::ChipBackendFactory;
use cofhee::farm::{ChipFarm, Scheduler, WorkStealing};
use cofhee::opt::OptLevel;
use cofhee::service::{
    CtHandle, Gateway, GatewayConfig, QuotaConfig, Request, TenantFair, TenantId,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: u64 = 3;

struct Fixture {
    params: BfvParams,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    rlk: RelinKey,
    rng: StdRng,
}

fn fixture() -> Fixture {
    let params = BfvParams::insecure_testing(32).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let kg = KeyGenerator::new(&params, &mut rng);
    let pk = kg.public_key(&mut rng).unwrap();
    Fixture {
        enc: Encryptor::new(&params, pk),
        dec: Decryptor::new(&params, kg.secret_key().clone()),
        eval: Evaluator::new(&params).unwrap(),
        rlk: kg.relin_key(16, &mut rng).unwrap(),
        params,
        rng,
    }
}

/// One generated request: `(tenant, kind, i, j)` — indices pick
/// operands out of the tenant's growing handle pool (mod its length).
type Op = (u64, u64, u64, u64);

/// Plays `ops` with the given inter-arrival `gaps` through a fresh
/// gateway over a 2-die farm. Returns an outcome log (ticket/reject per
/// op), the decrypted coefficients of every admitted result (gateway)
/// and of the direct-evaluator mirror, and the rendered report.
#[allow(clippy::type_complexity)]
fn run_script(
    f: &mut Fixture,
    ops: &[Op],
    gaps: &[u64],
) -> (Vec<String>, Vec<Vec<u64>>, Vec<Vec<u64>>, String) {
    let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
    let sched = Scheduler::new(farm, Box::new(WorkStealing));
    let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(2));

    // Tenant 2 has no relin key (its MulRelin must reject); tenant 1
    // runs under tight quotas so admission pressure shows up.
    let mut tenants: Vec<TenantId> = Vec::new();
    let mut pools: Vec<Vec<(CtHandle, cofhee::bfv::Ciphertext)>> = Vec::new();
    for k in 0..TENANTS {
        let rlk = (k != 2).then(|| f.rlk.clone());
        let id = gw.register_tenant(&format!("tenant-{k}"), &f.params, rlk).unwrap();
        if k == 1 {
            gw.set_quotas(
                id,
                QuotaConfig { queue_capacity: 2, max_in_flight: 3, ..QuotaConfig::default() },
            )
            .unwrap();
        }
        let mut pool = Vec::new();
        for v in [k + 1, k + 5] {
            let ct =
                f.enc.encrypt(&Plaintext::constant(&f.params, v).unwrap(), &mut f.rng).unwrap();
            pool.push((gw.put_ciphertext(id, ct.clone()).unwrap(), ct));
        }
        tenants.push(id);
        pools.push(pool);
    }

    let mut log = Vec::new();
    let mut admitted: Vec<(TenantId, CtHandle, cofhee::bfv::Ciphertext)> = Vec::new();
    let mut now = 0u64;
    for (&(t, kind, i, j), &gap) in ops.iter().zip(gaps) {
        now += gap;
        let (t, kind) = (t as usize, kind % 5);
        let pool = &pools[t];
        let (ha, ma) = pool[i as usize % pool.len()].clone();
        let (hb, mb) = pool[j as usize % pool.len()].clone();
        let pt = Plaintext::constant(&f.params, (i % 5) + 2).unwrap();
        let (request, mirror) = match kind {
            0 => (Request::Add(ha, hb), Some(f.eval.add(&ma, &mb).unwrap())),
            1 => (Request::AddPlain(ha, pt.clone()), Some(f.eval.add_plain(&ma, &pt).unwrap())),
            2 => (Request::MulPlain(ha, pt.clone()), Some(f.eval.mul_plain(&ma, &pt).unwrap())),
            3 => (
                Request::MulRelin(ha, hb),
                // Tenant 2 has no relin key: the request must reject.
                (t != 2).then(|| f.eval.multiply_relin(&ma, &mb, &f.rlk).unwrap()),
            ),
            // A foreign private handle: must deny, never mutate.
            _ => (Request::Add(pools[(t + 1) % TENANTS as usize][0].0, hb), None),
        };
        let (len, bytes) = (gw.registry().len(), gw.registry().bytes_used(tenants[t]));
        match gw.submit_at(tenants[t], request, now) {
            Ok(ticket) => {
                let mirror = mirror.expect("requests built to be rejected must not admit");
                pools[t].push((ticket.result(), mirror.clone()));
                admitted.push((tenants[t], ticket.result(), mirror));
                log.push(format!("op {t}/{kind} -> {ticket}"));
            }
            Err(e) => {
                // A reject never mutates the registry.
                assert_eq!(gw.registry().len(), len, "reject changed registry size");
                assert_eq!(gw.registry().bytes_used(tenants[t]), bytes, "reject charged bytes");
                log.push(format!("op {t}/{kind} -> {e:?}"));
            }
        }
    }
    gw.drain().unwrap();

    let mut got = Vec::new();
    let mut want = Vec::new();
    for (owner, handle, mirror) in &admitted {
        let ct = gw.download(*owner, *handle).unwrap();
        got.push(f.dec.decrypt(ct).unwrap().coeffs().to_vec());
        want.push(f.dec.decrypt(mirror).unwrap().coeffs().to_vec());
    }
    (log, got, want, gw.report().render())
}

/// Builds a 1-die gateway with one registered tenant and two uploaded
/// constants (3 and 4).
fn one_die(f: &mut Fixture) -> (Gateway, TenantId, CtHandle, CtHandle) {
    one_die_at(f, OptLevel::O0)
}

/// [`one_die`] over a scheduler set to `level`.
fn one_die_at(f: &mut Fixture, level: OptLevel) -> (Gateway, TenantId, CtHandle, CtHandle) {
    let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
    let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
    sched.set_opt_level(level);
    let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(1));
    let alice = gw.register_tenant("alice", &f.params, Some(f.rlk.clone())).unwrap();
    let mut put = |v: u64, f: &mut Fixture| {
        let ct = f.enc.encrypt(&Plaintext::constant(&f.params, v).unwrap(), &mut f.rng).unwrap();
        gw.put_ciphertext(alice, ct).unwrap()
    };
    let x = put(3, f);
    let y = put(4, f);
    (gw, alice, x, y)
}

/// Evicting a queued request's *pending result* handle must not panic
/// the drain when the producing slot frees up — the orphaned request is
/// cancelled and accounted for instead.
#[test]
fn evicting_a_pending_result_cancels_the_queued_request() {
    let mut f = fixture();
    let (mut gw, alice, x, _y) = one_die(&mut f);
    // t1 dispatches immediately; t2 chains on t1's result, so it is
    // still queued when its own result handle is evicted.
    let t1 = gw.submit(alice, Request::Add(x, x)).unwrap();
    let t2 = gw.submit(alice, Request::Add(t1.result(), x)).unwrap();
    gw.evict(alice, t2.result()).unwrap();
    gw.drain().unwrap();
    let r = gw.report();
    assert_eq!(r.completed(), 1);
    assert_eq!(r.cancelled(), 1);
    assert_eq!(r.completed() + r.cancelled(), r.admitted());
    // t1's result still downloads; t2's reservation is gone.
    assert_eq!(f.dec.decrypt(gw.result(&t1).unwrap()).unwrap().coeffs()[0], 6);
    assert!(gw.result(&t2).is_err());
}

/// Evicting an *operand* of a queued request must not strand it: the
/// request is cancelled, the cancellation cascades through queued
/// requests chained on its reservation, and every admitted ticket stays
/// accounted for (`completed + cancelled == admitted`).
#[test]
fn evicting_an_operand_cascades_cancellation_through_dependents() {
    let mut f = fixture();
    let (mut gw, alice, x, y) = one_die(&mut f);
    let t1 = gw.submit(alice, Request::Add(x, x)).unwrap();
    // t2 needs t1's result AND y; t3 chains on t2. Both stay queued.
    let t2 = gw.submit(alice, Request::Add(t1.result(), y)).unwrap();
    let t3 = gw.submit(alice, Request::Add(t2.result(), x)).unwrap();
    let bytes_before = gw.registry().bytes_used(alice);
    gw.evict(alice, y).unwrap();
    gw.drain().unwrap();
    let r = gw.report();
    assert_eq!(r.completed(), 1, "t1 still runs");
    assert_eq!(r.cancelled(), 2, "t2 and, transitively, t3 are cancelled");
    assert_eq!(r.completed() + r.cancelled(), r.admitted(), "no request silently stranded");
    // Cancelled reservations refund their registry bytes.
    assert!(gw.registry().bytes_used(alice) < bytes_before);
    assert!(gw.result(&t2).is_err());
    assert!(gw.result(&t3).is_err());
    assert_eq!(f.dec.decrypt(gw.result(&t1).unwrap()).unwrap().coeffs()[0], 6);
}

/// One stream-compiler level, set in one place: a gateway runs at its
/// scheduler's. Over a scheduler at `O1` it returns the `O0` ciphertext
/// bit for bit, and the rewrites surface in the rendered service report.
#[test]
fn a_gateway_runs_at_its_schedulers_opt_level_bit_for_bit() {
    let run = |level: OptLevel| {
        let mut f = fixture();
        let (mut gw, alice, x, _y) = one_die_at(&mut f, level);
        // `x · x`: the repeated operand is what `O1` drops nodes for.
        let ticket = gw.submit(alice, Request::MulRelin(x, x)).unwrap();
        gw.drain().unwrap();
        let ct = gw.result(&ticket).unwrap().clone();
        assert_eq!(f.dec.decrypt(&ct).unwrap().coeffs()[0], 9);
        (ct, gw.report())
    };
    let (recorded, base) = run(OptLevel::O0);
    let (optimized, report) = run(OptLevel::O1);
    assert_eq!(optimized, recorded);
    assert_eq!(base.farm.stream_totals.ops_eliminated, 0, "O0 executes as recorded");
    assert!(report.farm.stream_totals.ops_eliminated > 0, "O1 stages `x` once per tensor limb");
    assert!(report.render().contains("optimizer:"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn interleaved_requests_match_direct_evaluation_and_replay_identically(
        ops in pvec((0u64..TENANTS, 0u64..6, 0u64..16, 0u64..16), 14),
        gaps in pvec(0u64..6_000, 14),
    ) {
        let mut f = fixture();
        let (log, got, want, report) = run_script(&mut f, &ops, &gaps);

        // Every admitted request decrypts exactly like the direct
        // evaluator applied to the same operand ciphertexts.
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w);
        }

        // Determinism pin: replaying the identical script yields the
        // identical tickets, rejects, results, and rendered report.
        let mut f2 = fixture();
        let (log2, got2, _, report2) = run_script(&mut f2, &ops, &gaps);
        prop_assert_eq!(log, log2);
        prop_assert_eq!(got, got2);
        prop_assert_eq!(report, report2);
    }
}
