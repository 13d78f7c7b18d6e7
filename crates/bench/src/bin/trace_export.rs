//! Chrome-trace export: the observability tentpole end to end.
//!
//! Replays a mixed BFV+CKKS Table X workload (the CryptoNets mix,
//! scaled) through a traced 4-die farm, plus a small gateway session
//! demonstrating admission / reject / eviction-cascade events, then
//! exports both timelines as one Chrome trace-event JSON file and a
//! machine-readable metrics snapshot.
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin trace_export             # n = 2^8
//! cargo run --release -p cofhee_bench --bin trace_export -- --smoke  # n = 2^6
//! ```
//!
//! Always writes `BENCH_trace.json` (Chrome trace-event format — load
//! it at `ui.perfetto.dev` or `chrome://tracing`) and
//! `BENCH_trace_metrics.json` (schema `cofhee-metrics-v1`) to the
//! working directory, then **asserts** the structural invariants CI
//! gates on:
//!
//! * the written trace is valid JSON, timestamps are monotone per
//!   track, and spans nest (no partial overlap on any track);
//! * every scheduled job's phase chain is complete — its phase spans
//!   tile the job's lifecycle span exactly, no gaps, no overlap;
//! * per-die drain-span durations sum **exactly** to the die's
//!   `ChipStats::busy_cycles` — the trace reconciles with the farm
//!   report cycle for cycle;
//! * `farm.dma.key_bytes + farm.dma.operand_bytes` of either section
//!   is its `stream_totals.uploaded_bytes` less the command words;
//! * every completed gateway request shows the full
//!   admit → queue → materialize chain.

use cofhee_apps::Workload;
use cofhee_bfv::{BfvParams, Encryptor, KeyGenerator, Plaintext};
use cofhee_core::ChipBackendFactory;
use cofhee_farm::{
    mixed_workload_jobs, ChipFarm, ReplayInputs, ReplaySpec, Scheduler, Session, WorkStealing,
};
use cofhee_obs::{check, ChromeTrace, EventKind, MemorySink, TraceEvent, Track};
use cofhee_opt::OptLevel;
use cofhee_service::{AdmissionPolicy, Gateway, GatewayConfig, Request, TenantFair};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Operand pools + session material for both schemes.
struct Tenants {
    bfv_params: BfvParams,
    bfv_rlk: cofhee_bfv::RelinKey,
    ckks_params: cofhee_ckks::CkksParams,
    ckks_rlk: cofhee_ckks::CkksRelinKey,
    inputs: ReplayInputs,
}

fn stage(n: usize) -> Result<Tenants, Box<dyn std::error::Error>> {
    let bfv_params = BfvParams::insecure_testing(n)?;
    let mut rng = StdRng::seed_from_u64(4_2026);
    let kg = KeyGenerator::new(&bfv_params, &mut rng);
    let enc = Encryptor::new(&bfv_params, kg.public_key(&mut rng)?);
    let bfv_rlk = kg.relin_key(16, &mut rng)?;
    let mut cts = Vec::new();
    for v in 1..=4u64 {
        let mut coeffs = vec![0u64; n];
        coeffs[0] = v;
        cts.push(enc.encrypt(&Plaintext::new(&bfv_params, coeffs)?, &mut rng)?);
    }
    let mut pts = Vec::new();
    for v in 2..=3u64 {
        let mut coeffs = vec![0u64; n];
        coeffs[0] = v;
        pts.push(Plaintext::new(&bfv_params, coeffs)?);
    }

    let ckks_params = cofhee_ckks::CkksParams::insecure_testing(n)?;
    let ckg = cofhee_ckks::CkksKeyGenerator::new(&ckks_params);
    let sk = ckg.secret_key(&mut rng)?;
    let pk = ckg.public_key(&sk, &mut rng)?;
    let ckks_rlk = ckg.relin_key(&sk, &mut rng)?;
    let encoder = cofhee_ckks::CkksEncoder::new(&ckks_params);
    let cenc = cofhee_ckks::CkksEncryptor::new(&ckks_params, pk);
    let mut ckts = Vec::new();
    for v in 1..=4 {
        let pt = encoder.encode(&[v as f64 * 0.5, -(v as f64)])?;
        ckts.push(cenc.encrypt(&pt, &mut rng)?);
    }
    let cpts = vec![encoder.encode(&[2.0, 3.0])?, encoder.encode(&[-1.5, 0.5])?];

    Ok(Tenants {
        bfv_params,
        bfv_rlk,
        ckks_params,
        ckks_rlk,
        inputs: ReplayInputs::bfv(cts, pts).with_ckks(ckts, cpts),
    })
}

/// All spans on one track, as (name, start, end) sorted by start.
fn spans(events: &[TraceEvent], track: Track) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = events
        .iter()
        .filter(|e| e.track == track)
        .filter_map(|e| match e.kind {
            EventKind::Span { start, end } => Some((e.name, start, end)),
            EventKind::Instant { .. } => None,
        })
        .collect();
    out.sort_by_key(|&(_, s, e)| (s, std::cmp::Reverse(e)));
    out
}

/// Asserts one job track carries a complete phase chain: a single
/// lifecycle span tiled exactly by its phase spans.
fn assert_phase_chain(events: &[TraceEvent], track: Track) {
    let spans = spans(events, track);
    assert!(!spans.is_empty(), "job track {track:?} has no spans");
    // The lifecycle span covers the whole track; gateway queue spans
    // (if present) precede it and are not part of the phase chain.
    let phases = ["compute", "tensor", "relin", "rescale", "queue"];
    let (outer_name, outer_start, outer_end) = *spans
        .iter()
        .find(|(name, _, _)| !phases.contains(name))
        .unwrap_or_else(|| panic!("job track {track:?} has no lifecycle span"));
    let chain: Vec<_> = spans.iter().filter(|&&(name, _, _)| phases[..4].contains(&name)).collect();
    assert!(!chain.is_empty(), "{outer_name} on {track:?} has no phases");
    let mut cursor = outer_start;
    for &&(name, start, end) in &chain {
        assert_eq!(start, cursor, "phase {name} on {track:?} leaves a gap");
        cursor = end;
    }
    assert_eq!(cursor, outer_end, "phases on {track:?} stop short of the job span");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = cofhee_bench::sized(1 << 8, 1 << 6);
    let divisor = cofhee_bench::sized(8_192, 32_768);
    let gap = cofhee_bench::sized(50_000u64, 20_000);
    let chips = 4usize;
    let tenants = stage(n)?;

    println!("Cycle-timeline trace export (n = 2^{}, {chips} dies)", n.trailing_zeros());

    // ── Section 1: mixed BFV+CKKS Table X replay on a traced farm ──
    let farm_sink = MemorySink::shared();
    let farm = ChipFarm::new(chips, ChipBackendFactory::silicon())?;
    let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
    sched.set_trace_sink(farm_sink.clone());
    let bfv =
        sched.open_session(Session::new("exact", &tenants.bfv_params, tenants.bfv_rlk.clone())?);
    let ckks = sched.open_session(Session::new_ckks(
        "approx",
        &tenants.ckks_params,
        tenants.ckks_rlk.clone(),
    )?);
    let spec = ReplaySpec::closed(divisor, 77).offered(gap);
    let jobs = mixed_workload_jobs(bfv, ckks, &Workload::cryptonets(), &spec, &tenants.inputs)?;
    let job_count = jobs.len() as u64;
    sched.set_opt_level(OptLevel::O1);
    sched.run(jobs)?;
    let farm_report = sched.report();
    let farm_events = farm_sink.take();
    println!(
        "  farm section: {job_count} jobs, {} trace events, makespan {} cc",
        farm_events.len(),
        farm_report.makespan_cycles,
    );

    // ── Section 2: a small gateway session with rejects + eviction ──
    let gw_sink = MemorySink::shared();
    let gw_farm = ChipFarm::new(2, ChipBackendFactory::silicon())?;
    let gw_sched = Scheduler::new(gw_farm, Box::new(WorkStealing));
    let policy: Box<dyn AdmissionPolicy> = Box::new(TenantFair::default());
    let mut gw = Gateway::new(gw_sched, policy, GatewayConfig::for_chips(2));
    gw.set_trace_sink(gw_sink.clone());
    let alice = gw.register_tenant("alice", &tenants.bfv_params, Some(tenants.bfv_rlk.clone()))?;
    let bob = gw.register_tenant("bob", &tenants.bfv_params, None)?;
    let ax = gw.put_ciphertext(alice, tenants.inputs.ciphertexts[0].clone())?;
    let ay = gw.put_ciphertext(alice, tenants.inputs.ciphertexts[1].clone())?;
    let bx = gw.put_ciphertext(bob, tenants.inputs.ciphertexts[2].clone())?;
    let t1 = gw.submit(alice, Request::Add(ax, ay)).expect("admit");
    let _t2 = gw.submit(alice, Request::MulRelin(t1.result(), ax)).expect("admit chained");
    // A typed reject: bob has no relin key.
    gw.submit(bob, Request::MulRelin(bx, bx)).expect_err("keyless multiply rejects");
    // An eviction cascade: a queued request chained on a handle that
    // disappears before it can run is cancelled, not stranded.
    let t3 = gw.submit(bob, Request::Add(bx, bx)).expect("admit");
    let _t4 = gw.submit(bob, Request::Add(t3.result(), bx)).expect("admit chained");
    gw.evict(bob, t3.result()).expect("owner evicts the chained result");
    gw.drain()?;
    let service_report = gw.report();
    let gw_events = gw_sink.take();
    println!(
        "  service section: {} submitted / {} completed / {} cancelled, {} trace events",
        service_report.submitted(),
        service_report.completed(),
        service_report.cancelled(),
        gw_events.len(),
    );

    // ── Export: one Chrome trace, one metrics snapshot ──
    let mut trace = ChromeTrace::new();
    trace.add_section("farm", &farm_events);
    trace.add_section("service", &gw_events);
    let trace_json = trace.render();
    std::fs::write("BENCH_trace.json", &trace_json)?;

    // The farm replay and the gateway demo are independent deployments;
    // keep their snapshots as separate sections rather than merging (a
    // merge would sum die counters and overwrite gauges across farms).
    let metrics_json = format!(
        "{{\n\"farm\": {},\n\"service\": {}\n}}\n",
        sched.metrics().render_json(),
        gw.metrics().render_json(),
    );
    std::fs::write("BENCH_trace_metrics.json", &metrics_json)?;
    println!(
        "  wrote BENCH_trace.json ({} bytes) + BENCH_trace_metrics.json ({} bytes)",
        trace_json.len(),
        metrics_json.len(),
    );

    // ── Gate 1: the written artifacts are well-formed ──
    check::validate_json(&trace_json).expect("trace must be valid JSON");
    check::validate_json(&metrics_json).expect("metrics snapshot must be valid JSON");
    let parsed = check::parse_chrome_events(&trace_json);
    assert!(parsed.len() > farm_events.len(), "parse-back sees all sections + metadata");
    check::check_monotone_per_track(&parsed).expect("timestamps monotone per track");
    check::check_span_nesting(&parsed).expect("spans must nest, never partially overlap");

    // ── Gate 2: per-die busy-cycle reconciliation, exact ──
    for c in &farm_report.chips {
        let drained: u64 = spans(&farm_events, Track::DieCompute(c.chip))
            .iter()
            .filter(|(name, _, _)| *name == "drain")
            .map(|(_, s, e)| e - s)
            .sum();
        assert_eq!(
            drained, c.busy_cycles,
            "die {} trace spans must sum exactly to ChipStats::busy_cycles",
            c.chip
        );
        println!("  die {}: {} drain cycles == busy_cycles (exact)", c.chip, drained);
    }

    // ── Gate 2b: the DMA split reconciles with the stream totals ──
    // Key-switch key uploads and operand uploads are counted apart on
    // the host; together they are what the dies accounted as uploaded,
    // less the command words.
    for (section, m, totals) in [
        ("farm", sched.metrics(), farm_report.stream_totals),
        ("service", gw.metrics(), service_report.farm.stream_totals),
    ] {
        let (key, operand) = (m.counter("farm.dma.key_bytes"), m.counter("farm.dma.operand_bytes"));
        let command_bytes = totals.commands * cofhee_sim::COMMAND_WORDS as u64 * 4;
        assert!(key > 0, "{section}: the section relinearizes");
        assert_eq!(
            key + operand,
            totals.uploaded_bytes - command_bytes,
            "{section}: key + operand DMA must be the uploaded bytes less command words"
        );
        println!("  {section}: {key} key + {operand} operand upload bytes reconcile (exact)");
    }

    // ── Gate 3: every scheduled job has a complete phase chain ──
    let mut job_tracks: Vec<Track> = farm_events
        .iter()
        .filter_map(|e| matches!(e.track, Track::Job { .. }).then_some(e.track))
        .collect();
    job_tracks.sort();
    job_tracks.dedup();
    assert_eq!(job_tracks.len() as u64, job_count, "one trace track per scheduled job");
    for &track in &job_tracks {
        assert_phase_chain(&farm_events, track);
    }
    println!("  {} job phase chains complete (tiled, no gaps)", job_tracks.len());

    // ── Gate 4: completed gateway requests show the full chain ──
    let materialized = gw_events
        .iter()
        .filter(|e| matches!(e.track, Track::Job { .. }) && e.name == "materialize")
        .count() as u64;
    assert_eq!(materialized, service_report.completed(), "one materialize per completion");
    assert!(
        gw_events.iter().any(|e| e.track == Track::Gateway && e.name == "reject:denied"),
        "the typed reject must land on the gateway track"
    );
    assert!(
        gw_events.iter().any(|e| e.track == Track::Gateway && e.name == "cancel"),
        "the eviction cascade must land on the gateway track"
    );
    // The O1 replay traced its compiler's rewrites.
    assert!(
        farm_events.iter().any(|e| e.track == Track::Compiler),
        "O1 compilation must emit compiler-track events"
    );

    println!("\nall trace invariants hold — load BENCH_trace.json at ui.perfetto.dev");
    Ok(())
}
