//! The gateway's whole observable output, pinned: a fixed script of
//! requests through a 2-die gateway with a BFV and a CKKS tenant, folded
//! into digests recorded while every dispatch still computed its request
//! before returning. Results may be computed whenever the farm likes;
//! what a client, a report, a metric or a trace sees must not move.
//!
//! The script covers every request kind, requests that chain on results
//! still in flight, the eviction of a dispatched result, an eviction
//! cascade through queued requests, and arrivals both far apart (an idle
//! farm) and at one instant (a saturated one).

use cofhee::bfv::{BfvParams, Encryptor, KeyGenerator, Plaintext};
use cofhee::ckks::{CkksEncoder, CkksEncryptor, CkksKeyGenerator, CkksParams};
use cofhee::core::ChipBackendFactory;
use cofhee::farm::{ChipFarm, Scheduler, WorkStealing};
use cofhee::obs::{MemorySink, TraceEvent};
use cofhee::opt::OptLevel;
use cofhee::service::{CtHandle, Gateway, GatewayConfig, Request, TenantFair, TenantId, Ticket};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 32;

/// Far enough apart that the farm is idle when the next request lands.
const IDLE_GAP: u64 = 2_000_000;

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

/// The gateway under test and what the script has seen of it so far.
struct Script {
    gw: Gateway,
    exact: TenantId,
    approx: TenantId,
    /// Every submission's outcome, with the byte charges, clock and
    /// registry size right after it.
    log: Fnv,
    /// Every admitted request's result handle, in admission order.
    results: Vec<(TenantId, CtHandle)>,
}

impl Script {
    fn submit(&mut self, tenant: TenantId, request: Request, at: u64) -> Option<Ticket> {
        let outcome = self.gw.submit_at(tenant, request, at);
        let registry = self.gw.registry();
        let entry = match &outcome {
            Ok(ticket) => {
                self.results.push((tenant, ticket.result()));
                format!("{ticket} ready={}", registry.is_ready(ticket.result()))
            }
            Err(e) => format!("{e:?}"),
        };
        let bytes = [registry.bytes_used(self.exact), registry.bytes_used(self.approx)];
        let (now, len) = (self.gw.now(), registry.len());
        self.log.text(&format!("{entry} {bytes:?} now={now} len={len}"));
        outcome.ok()
    }
}

/// One request of every kind, each arriving `IDLE_GAP` after the last.
fn every_kind(s: &mut Script, ops: [CtHandle; 5], two: Plaintext, at: &mut u64) -> Vec<Ticket> {
    let [x, y, z, cx, cy] = ops;
    let (exact, approx) = (s.exact, s.approx);
    let requests = [
        (exact, Request::Add(x, y)),
        (exact, Request::AddPlain(y, two.clone())),
        (exact, Request::MulPlain(z, two)),
        (exact, Request::MulRelin(x, z)),
        (approx, Request::CkksAdd(cx, cy)),
        (approx, Request::CkksMulRelin(cx, cy)),
    ];
    let mut tickets = Vec::new();
    for (tenant, request) in requests {
        *at += IDLE_GAP;
        tickets.push(s.submit(tenant, request, *at).expect("an idle farm admits"));
    }
    tickets
}

/// The four digests of one run: every download (the admission log
/// folded in first), the rendered service report, the metrics snapshot
/// less the process-wide twiddle-cache counters (other tests move them),
/// and the trace event list in recording order — and, apart, the
/// downloaded result ciphertexts alone (their words, and a CKKS result's
/// level and scale bits), which no change of timing may move.
fn run(level: OptLevel) -> ([u64; 4], u64) {
    let mut rng = StdRng::seed_from_u64(2604);
    let bfv_params = BfvParams::insecure_testing(N).unwrap();
    let kg = KeyGenerator::new(&bfv_params, &mut rng);
    let enc = Encryptor::new(&bfv_params, kg.public_key(&mut rng).unwrap());
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let ckks_params = CkksParams::insecure_testing(N).unwrap();
    let encoder = CkksEncoder::new(&ckks_params);
    let ckg = CkksKeyGenerator::new(&ckks_params);
    let sk = ckg.secret_key(&mut rng).unwrap();
    let cenc = CkksEncryptor::new(&ckks_params, ckg.public_key(&sk, &mut rng).unwrap());
    let crlk = ckg.relin_key(&sk, &mut rng).unwrap();

    let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
    let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
    sched.set_opt_level(level);
    let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(2));
    let sink = MemorySink::shared();
    gw.set_trace_sink(sink.clone());
    let exact = gw.register_tenant("exact", &bfv_params, Some(rlk)).unwrap();
    let approx = gw.register_ckks_tenant("approx", &ckks_params, Some(crlk)).unwrap();
    let mut bfv = |v: u64| {
        let ct = enc.encrypt(&Plaintext::constant(&bfv_params, v).unwrap(), &mut rng).unwrap();
        gw.put_ciphertext(exact, ct).unwrap()
    };
    let [x, y, z, w] = [3, 5, 7, 9].map(&mut bfv);
    let mut ckks = |v: &[f64]| {
        let ct = cenc.encrypt(&encoder.encode(v).unwrap(), &mut rng).unwrap();
        gw.put_ckks_ciphertext(approx, ct).unwrap()
    };
    let [cx, cy] = [&[1.5, -0.25], &[0.5, 2.0]].map(|v: &[f64; 2]| ckks(v));
    let pt = |v| Plaintext::constant(&bfv_params, v).unwrap();
    let mut s = Script { gw, exact, approx, log: Fnv::new(), results: Vec::new() };

    // An idle farm: one request of every kind, each finishing long
    // before the next arrives.
    let mut at = 0;
    let first = every_kind(&mut s, [x, y, z, cx, cy], pt(2), &mut at);

    // Chains on results the farm has priced: each dispatch reads an
    // operand produced by an earlier request.
    at += IDLE_GAP;
    let sum = first[0].result();
    let chained = s.submit(exact, Request::MulRelin(sum, first[3].result()), at).unwrap();
    s.submit(exact, Request::AddPlain(chained.result(), pt(1)), at).unwrap();
    let csum = first[4].result();
    s.submit(approx, Request::CkksAdd(csum, csum), at).unwrap();
    s.submit(approx, Request::CkksMulRelin(csum, cx), at + 1).unwrap();

    // The eviction of a dispatched result: the request completes, its
    // result is gone.
    at += IDLE_GAP;
    let evicted = s.submit(exact, Request::MulPlain(y, pt(3)), at).unwrap();
    s.gw.evict(exact, evicted.result()).unwrap();

    // A saturated farm: a burst at one instant, more requests than
    // slots, with chains queued behind the burst.
    at += IDLE_GAP;
    let mut burst = Vec::new();
    for k in 0..3 {
        burst.push(s.submit(exact, Request::MulRelin(x, y), at).unwrap());
        burst.push(s.submit(approx, Request::CkksMulRelin(cy, cx), at).unwrap());
        burst.push(s.submit(exact, Request::Add(z, burst[0].result()), at + k).unwrap());
    }
    s.submit(exact, Request::MulPlain(burst[2].result(), pt(5)), at + 10).unwrap();
    // An eviction cascade: `w` is read by a queued request whose result a
    // second queued request reads in turn.
    let reads_w = s.submit(exact, Request::Add(burst[3].result(), w), at + 20).unwrap();
    s.submit(exact, Request::Add(reads_w.result(), x), at + 21).unwrap();
    s.gw.evict(exact, w).unwrap();
    // A typed reject in the middle of it all.
    s.submit(approx, Request::Add(x, y), at + 22);

    // A second idle stretch, then the end.
    let last = every_kind(&mut s, [x, y, z, cx, cy], pt(6), &mut at);
    s.submit(exact, Request::Add(last[3].result(), sum), at + IDLE_GAP).unwrap();
    s.gw.drain().unwrap();

    let Script { gw, log: mut downloads, results, .. } = s;
    let mut words = Fnv::new();
    for (tenant, handle) in results {
        if !gw.registry().contains(handle) {
            downloads.text(&format!("{handle:?} gone"));
        } else if tenant == exact {
            for p in gw.download(tenant, handle).unwrap().polys() {
                downloads.words(&p.to_u128_vec());
                words.words(&p.to_u128_vec());
            }
        } else {
            let ct = gw.download_ckks(tenant, handle).unwrap();
            for fnv in [&mut downloads, &mut words] {
                fnv.text(&format!("{:?} {:x}", ct.level(), ct.scale().to_bits()));
                for limb in ct.components().iter().flatten() {
                    fnv.words(limb);
                }
            }
        }
    }
    let report = gw.report();
    assert_eq!(report.completed() + report.cancelled(), report.admitted());
    assert_eq!(report.cancelled(), 2, "the cascade cancels its two queued requests");
    let mut rendered = Fnv::new();
    rendered.text(&report.render());
    let mut metrics = Fnv::new();
    for (name, value) in gw.metrics().iter() {
        if !name.starts_with("twiddle_cache.") {
            metrics.text(&format!("{name}={value:?}"));
        }
    }
    let mut events = Fnv::new();
    for event in sink.events() {
        events.event(&event);
    }
    ([downloads.0, rendered.0, metrics.0, events.0], words.0)
}

/// Recorded at commit 8869b40, where every dispatch computed its request
/// before returning; re-pinned twice since, on purpose: when a ct×pt
/// stream stopped transforming its plaintext (one die NTT fewer per such
/// request moves the report, metrics and events; the downloads and the
/// admission log do not), and when events came to be folded by value and
/// the farm stopped recording a die's queue depth at each placement
/// (metrics and events move; they are what 8fff3a3 computes with the same
/// fold and without the `pending` argument and the
/// `farm.die{i}.queue_depth_at_place` gauges).
#[test]
fn a_fixed_gateway_script_reproduces_the_parent_pinned_digests() {
    let runs = [OptLevel::O0, OptLevel::O1].map(run);
    let got: Vec<String> =
        runs.iter().flat_map(|(whole, _)| whole).map(|d| format!("{d:016x}")).collect();
    let results: Vec<String> = runs.iter().map(|(_, words)| format!("{words:016x}")).collect();
    // The result words alone, recorded at 93dd7a0: a change that moves
    // only simulated timing (and so the digests below) leaves them.
    assert_eq!(results, ["c97520648403588f"; 2], "O0 then O1: result words");
    let pinned = [
        "459cba1c7b7816e1",
        "a438a2a170518de1",
        "cb763d8bed564fb0",
        "df8509f60c7523c9",
        "459cba1c7b7816e1",
        "d7ff624944dab180",
        "bb981f3b8037b040",
        "5576c9b93b19a324",
    ];
    assert_eq!(got, pinned, "O0 then O1: downloads, report, metrics, events");
}
