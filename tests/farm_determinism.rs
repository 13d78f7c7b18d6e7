//! Property tests for the farm's determinism contract: a fixed job
//! list yields bit-identical ciphertexts and identical virtual-time
//! telemetry across repeated runs, and bit-identical ciphertexts across
//! farm sizes — results must never depend on placement; only timing
//! may.
//!
//! Correctness rides along: every scheduled job's result must decrypt
//! to the plaintext arithmetic it encodes.

use cofhee::bfv::{BfvParams, Ciphertext, Decryptor, Encryptor, KeyGenerator, Plaintext};
use cofhee::core::{ChipBackendFactory, Limb};
use cofhee::farm::{
    ChipFarm, ChipStats, FarmReport, Job, JobKind, LatencyPercentiles, Scheduler, Session,
    WorkStealing,
};
use cofhee::obs::TraceEvent;
use cofhee::opt::OptLevel;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const N: usize = 32;

/// One random job descriptor: (kind selector, ct pick, ct/pt pick).
type JobDesc = (usize, usize, usize);

struct Fixture {
    params: BfvParams,
    dec: Decryptor,
    rlk: cofhee::bfv::RelinKey,
    cts: Vec<Ciphertext>,
    ct_vals: Vec<u64>,
    pts: Vec<Plaintext>,
    pt_vals: Vec<u64>,
}

fn fixture() -> Fixture {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let params = BfvParams::insecure_testing(N).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
    let ct_vals = vec![3u64, 5, 7];
    let cts = ct_vals
        .iter()
        .map(|&v| {
            let mut coeffs = vec![0u64; N];
            coeffs[0] = v;
            enc.encrypt(&Plaintext::new(&params, coeffs).unwrap(), &mut rng).unwrap()
        })
        .collect();
    let pt_vals = vec![2u64, 4];
    let pts = pt_vals
        .iter()
        .map(|&v| {
            let mut coeffs = vec![0u64; N];
            coeffs[0] = v;
            Plaintext::new(&params, coeffs).unwrap()
        })
        .collect();
    Fixture {
        dec: Decryptor::new(&params, kg.secret_key().clone()),
        rlk: kg.relin_key(16, &mut rng).unwrap(),
        params,
        cts,
        ct_vals,
        pts,
        pt_vals,
    }
}

/// Materializes descriptors into jobs plus their expected decryptions.
fn build_jobs(
    f: &Fixture,
    descs: &[JobDesc],
    gap: u64,
    session: cofhee::farm::SessionId,
) -> (Vec<Job>, Vec<u64>) {
    let t = f.params.t();
    let mut jobs = Vec::new();
    let mut expected = Vec::new();
    for (i, &(kind, x, y)) in descs.iter().enumerate() {
        let a = x % f.cts.len();
        let b = y % f.cts.len();
        let p = y % f.pts.len();
        let (kind, expect) = match kind % 4 {
            0 => (
                JobKind::Add(f.cts[a].clone(), f.cts[b].clone()),
                (f.ct_vals[a] + f.ct_vals[b]) % t,
            ),
            1 => (
                JobKind::AddPlain(f.cts[a].clone(), f.pts[p].clone()),
                (f.ct_vals[a] + f.pt_vals[p]) % t,
            ),
            2 => (
                JobKind::MulPlain(f.cts[a].clone(), f.pts[p].clone()),
                (f.ct_vals[a] * f.pt_vals[p]) % t,
            ),
            _ => (
                JobKind::MulRelin(f.cts[a].clone(), f.cts[b].clone()),
                (f.ct_vals[a] * f.ct_vals[b]) % t,
            ),
        };
        jobs.push(Job { session, kind, arrival: i as u64 * gap });
        expected.push(expect);
    }
    (jobs, expected)
}

/// Runs the job list on a fresh farm; returns raw result coefficients
/// and the full report.
fn run(
    f: &Fixture,
    chips: usize,
    descs: &[JobDesc],
    gap: u64,
) -> (Vec<Vec<Vec<u128>>>, FarmReport) {
    let farm = ChipFarm::new(chips, ChipBackendFactory::silicon()).unwrap();
    let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
    let id = sched.open_session(Session::new("prop", &f.params, f.rlk.clone()).unwrap());
    let (jobs, _) = build_jobs(f, descs, gap, id);
    let outcomes = sched.run(jobs).unwrap();
    let values = outcomes
        .iter()
        .map(|o| o.result.expect_bfv().polys().iter().map(|p| p.to_u128_vec()).collect())
        .collect();
    (values, sched.report())
}

/// Telemetry equality: everything the report exposes, field by field.
fn assert_reports_identical(a: &FarmReport, b: &FarmReport) {
    assert_eq!(a.policy, b.policy);
    assert_eq!(a.jobs, b.jobs);
    assert_eq!(a.streams, b.streams);
    assert_eq!(a.makespan_cycles, b.makespan_cycles);
    let (LatencyPercentiles { p50, p95, p99, p99_9, max, count }, lb) = (a.latency, b.latency);
    assert_eq!(
        (p50, p95, p99, p99_9, max, count),
        (lb.p50, lb.p95, lb.p99, lb.p99_9, lb.max, lb.count)
    );
    assert_eq!(a.queue, b.queue);
    assert_eq!(a.service, b.service);
    let pairs: Vec<(&ChipStats, &ChipStats)> = a.chips.iter().zip(b.chips.iter()).collect();
    assert_eq!(a.chips.len(), b.chips.len());
    for (x, y) in pairs {
        assert_eq!(x, y);
    }
    assert_eq!(a.stream_totals, b.stream_totals);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    // The acceptance property: repeated runs are bit-and-cycle
    // identical; farm size changes timing only, never values;
    // and every result decrypts to its plaintext arithmetic.
    #[test]
    fn fixed_job_lists_replay_identically_across_runs_and_farm_sizes(
        all_descs in pvec((any::<usize>(), any::<usize>(), any::<usize>()), 5),
        len in 1usize..6,
        gap in 0u64..2000,
    ) {
        let descs = all_descs[..len.min(all_descs.len())].to_vec();
        let f = fixture();

        // 1-chip farm, twice: identical ciphertexts AND telemetry.
        let (v1a, r1a) = run(&f, 1, &descs, gap);
        let (v1b, r1b) = run(&f, 1, &descs, gap);
        prop_assert_eq!(&v1a, &v1b);
        assert_reports_identical(&r1a, &r1b);

        // 4-chip farm, twice: same contract.
        let (v4a, r4a) = run(&f, 4, &descs, gap);
        let (v4b, r4b) = run(&f, 4, &descs, gap);
        prop_assert_eq!(&v4a, &v4b);
        assert_reports_identical(&r4a, &r4b);

        // Across farm sizes, an odd one included: values must not depend
        // on placement.
        prop_assert_eq!(&v1a, &v4a);
        let (v3, _) = run(&f, 3, &descs, gap);
        prop_assert_eq!(&v4a, &v3);

        // Work conservation: same streams executed regardless of size.
        prop_assert_eq!(r1a.streams, r4a.streams);
        prop_assert_eq!(r1a.jobs, r4a.jobs);

        // Correctness: outcomes decrypt to the plaintext arithmetic.
        let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        let id = sched
            .open_session(Session::new("prop", &f.params, f.rlk.clone()).unwrap());
        let (jobs, expected) = build_jobs(&f, &descs, gap, id);
        let outcomes = sched.run(jobs).unwrap();
        for (o, expect) in outcomes.iter().zip(&expected) {
            let got = f.dec.decrypt(o.result.expect_bfv()).unwrap().coeffs()[0];
            prop_assert_eq!(got, *expect);
        }
    }
}

/// Mixed BFV+CKKS replays extend the determinism contract across
/// schemes: a fixed workload mix run through `mixed_workload_jobs`
/// yields the same scheme interleaving, bit-identical BFV ciphertexts,
/// and bit-identical CKKS limb residues on every run and farm size.
#[test]
fn mixed_scheme_replays_are_bit_identical_across_runs_and_farm_sizes() {
    use cofhee::apps::Workload;
    use cofhee::ckks::{CkksEncoder, CkksEncryptor, CkksKeyGenerator, CkksParams};
    use cofhee::farm::{mixed_workload_jobs, JobResult, ReplayInputs, ReplaySpec};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let f = fixture();
    let ckks_params = CkksParams::insecure_testing(N).unwrap();
    let encoder = CkksEncoder::new(&ckks_params);
    let mut rng = StdRng::seed_from_u64(909);
    let kg = CkksKeyGenerator::new(&ckks_params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let pk = kg.public_key(&sk, &mut rng).unwrap();
    let ckks_rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let enc = CkksEncryptor::new(&ckks_params, pk);
    let ckks_cts = [[1.25, -0.5], [2.0, 3.5]]
        .iter()
        .map(|v| enc.encrypt(&encoder.encode(v).unwrap(), &mut rng).unwrap())
        .collect();
    let ckks_pts = vec![encoder.encode(&[0.75]).unwrap()];
    let inputs = ReplayInputs::bfv(f.cts.clone(), f.pts.clone()).with_ckks(ckks_cts, ckks_pts);
    let spec = ReplaySpec::closed(40_000, 17).offered(300);

    let run = |chips: usize| {
        let farm = ChipFarm::new(chips, ChipBackendFactory::silicon()).unwrap();
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        let bfv = sched.open_session(Session::new("exact", &f.params, f.rlk.clone()).unwrap());
        let ckks = sched
            .open_session(Session::new_ckks("approx", &ckks_params, ckks_rlk.clone()).unwrap());
        let jobs = mixed_workload_jobs(bfv, ckks, &Workload::cryptonets(), &spec, &inputs).unwrap();
        assert!(jobs.iter().any(|j| j.kind.name().starts_with("ckks:")));
        let outcomes = sched.run(jobs).unwrap();
        let values: Vec<Vec<Vec<Limb>>> = outcomes
            .iter()
            .map(|o| match &o.result {
                JobResult::Bfv(ct) => vec![ct.polys().to_vec()],
                JobResult::Ckks(ct) => ct.components().to_vec(),
            })
            .collect();
        (values, sched.report().makespan_cycles)
    };

    let (v1a, m1a) = run(1);
    let (v1b, m1b) = run(1);
    assert_eq!(v1a, v1b, "repeated mixed runs must be bit-identical");
    assert_eq!(m1a, m1b, "and cycle-identical");
    let (v3, _) = run(3);
    assert_eq!(v1a, v3, "farm size must never change mixed-scheme values");
}

/// FNV-1a, 64-bit, over byte strings fed in order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0]);
    }

    fn words(&mut self, words: &[u128]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    /// One trace event by value — its track, name, kind and arguments —
    /// so the digest follows what the event says, not how `TraceEvent`
    /// is laid out.
    fn event(&mut self, event: &TraceEvent) {
        self.text(&format!("{:?} {} {:?}", event.track, event.name, event.kind));
        for (key, value) in &event.args {
            self.text(&format!("{key}={value}"));
        }
    }
}

/// Everything a farm run shows its caller, folded into one number: every
/// `JobOutcome` field (ciphertext coefficients, level and scale bits
/// included), the `FarmReport`, the `Scheduler::metrics()` snapshot less
/// the process-wide twiddle-cache counters (other tests move them), and
/// the full `MemorySink` event list in recording order — and, second,
/// the result ciphertexts alone (their words, and a CKKS result's level
/// and scale bits), which no change of timing may move.
fn run_digest(chips: usize, level: OptLevel) -> [u64; 2] {
    use cofhee::ckks::{CkksEncoder, CkksEncryptor, CkksKeyGenerator, CkksParams};
    use cofhee::farm::JobResult;
    use cofhee::obs::MemorySink;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let f = fixture();
    let ckks_params = CkksParams::insecure_testing(N).unwrap();
    let encoder = CkksEncoder::new(&ckks_params);
    let mut rng = StdRng::seed_from_u64(2525);
    let kg = CkksKeyGenerator::new(&ckks_params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let ckks_rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let enc = CkksEncryptor::new(&ckks_params, kg.public_key(&sk, &mut rng).unwrap());
    let cx = enc.encrypt(&encoder.encode(&[1.5, -0.25]).unwrap(), &mut rng).unwrap();
    let cy = enc.encrypt(&encoder.encode(&[0.5, 2.0]).unwrap(), &mut rng).unwrap();
    let cp = encoder.encode(&[3.0, -1.0]).unwrap();

    let farm = ChipFarm::new(chips, ChipBackendFactory::silicon()).unwrap();
    let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
    sched.set_opt_level(level);
    let sink = MemorySink::shared();
    sched.set_trace_sink(sink.clone());
    let bfv = sched.open_session(Session::new("exact", &f.params, f.rlk.clone()).unwrap());
    let ckks = sched.open_session(Session::new_ckks("approx", &ckks_params, ckks_rlk).unwrap());
    let (ct, pt) = (&f.cts, &f.pts);
    let kinds = vec![
        (bfv, JobKind::MulRelin(ct[0].clone(), ct[1].clone()), 0),
        (ckks, JobKind::CkksMulRelin(cx.clone(), cy.clone()), 0),
        (bfv, JobKind::Add(ct[1].clone(), ct[2].clone()), 0),
        (ckks, JobKind::CkksAdd(cx.clone(), cy.clone()), 500),
        (bfv, JobKind::MulPlain(ct[2].clone(), pt[0].clone()), 500),
        (bfv, JobKind::AddPlain(ct[0].clone(), pt[1].clone()), 20_000),
        (ckks, JobKind::CkksMulPlain(cy.clone(), cp.clone()), 20_000),
        (bfv, JobKind::MulRelin(ct[2].clone(), ct[2].clone()), 40_000),
        (ckks, JobKind::CkksMulRelin(cy, cx), 40_000),
        (bfv, JobKind::Add(ct[0].clone(), ct[0].clone()), 3_000_000),
    ];
    let jobs = kinds.into_iter().map(|(session, kind, arrival)| Job { session, kind, arrival });
    let outcomes = sched.run(jobs.collect()).unwrap();

    let (mut h, mut results) = (Fnv::new(), Fnv::new());
    for o in &outcomes {
        let fields = [o.index as u64, o.session.raw(), o.arrival, o.finish, o.latency];
        h.text(&format!("{fields:?} {} {}", o.service_cycles, o.streams));
        for fnv in [&mut h, &mut results] {
            match &o.result {
                JobResult::Bfv(ct) => {
                    for p in ct.polys() {
                        fnv.words(&p.to_u128_vec());
                    }
                }
                JobResult::Ckks(ct) => {
                    fnv.text(&format!("{:?} {:x}", ct.level(), ct.scale().to_bits()));
                    for limb in ct.components().iter().flatten() {
                        fnv.words(limb);
                    }
                }
            }
        }
    }
    h.text(&format!("{:?}", sched.report()));
    for (name, value) in sched.metrics().iter() {
        if !name.starts_with("twiddle_cache.") {
            h.text(&format!("{name}={value:?}"));
        }
    }
    for event in sink.events() {
        h.event(&event);
    }
    [h.0, results.0]
}

/// The farm's whole observable output, pinned to digests recorded at
/// commit 86297dd, before the chip driver was split into pricing and
/// applying: the dies computing on host threads must not move one
/// ciphertext word, report field, metric or trace event. Re-pinned twice
/// since, on purpose: a ct×pt stream uploads the plaintext's stored NTT
/// form instead of transforming it, one die NTT fewer per such job, which
/// moves cycles, reports, metrics and events but no result word; then
/// events came to be folded by value, and the farm stopped recording a
/// die's queue depth at each placement (the `place` instants' `pending`
/// argument, the `farm.die{i}.queue_depth_at_place` gauges). The digests
/// of that second re-pin are what 8fff3a3 computes with the same fold and
/// those two items left out.
#[test]
fn a_fixed_mixed_job_list_reproduces_the_parent_pinned_digests() {
    let (mut got, mut results) = (Vec::new(), Vec::new());
    for chips in [1usize, 4] {
        for level in [OptLevel::O0, OptLevel::O1] {
            let [whole, words] = run_digest(chips, level);
            got.push(format!("{whole:016x}"));
            results.push(format!("{words:016x}"));
        }
    }
    // The result words alone, recorded at 93dd7a0: a change that moves
    // only simulated timing (and so the whole-output digests) leaves them.
    let results_pinned = ["51fe2470fd5dc247"; 4];
    assert_eq!(results, results_pinned, "result words: 1/4 dies × O0/O1");
    let pinned = ["e7848661c95c5b90", "c1af46183351eed2", "6cd9416798e5a8c8", "91dec800aac97ccb"];
    assert_eq!(got, pinned, "1/4 dies × O0/O1, WorkStealing");
}

/// Multi-chip farms must never do *more* total stream work than one
/// die, and the virtual clock must strictly benefit from added dies on
/// a parallel mul+relin burst (deterministic spot check).
#[test]
fn added_dies_strictly_shorten_a_parallel_burst() {
    let f = fixture();
    let descs: Vec<JobDesc> = (0..4).map(|i| (3, i, i + 1)).collect();
    let (_, r1) = run(&f, 1, &descs, 0);
    let (_, r4) = run(&f, 4, &descs, 0);
    assert_eq!(r1.streams, r4.streams);
    assert!(
        r4.makespan_cycles < r1.makespan_cycles,
        "4 dies must finish the burst sooner: {} !< {}",
        r4.makespan_cycles,
        r1.makespan_cycles
    );
    assert!(r4.throughput_ops_per_sec() > 2.0 * r1.throughput_ops_per_sec());
}
