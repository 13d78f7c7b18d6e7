//! Stream-compiler ablation: every pass subset priced on the chip, the
//! `O1` acceptance bar, and the `O2` multi-die partition demo.
//!
//! Part 1 records the batched-multiply stream *naively* — several
//! ciphertext products sharing an operand, each pair re-uploading the
//! shared polynomials and re-running their NTTs — then prices all 16
//! subsets of the four rewrite passes (CSE, DCE, transfer hoisting,
//! fusion) on the simulated chip. The run *asserts* the acceptance
//! bars:
//!
//! * every subset executes in no more overlapped cycles than the
//!   recorded stream, bit-identically;
//! * the full `O1` pipeline cuts ≥ 10% of the recorded cycles.
//!
//! Part 2 replays a relinearization-heavy job mix (the CryptoNets
//! square layer's primitive) through a 4-die farm at `O0`/`O1`/`O2`,
//! asserting bit-exact decryption at every level and that `O2` actually
//! splits the key-switch stream across dies (more, smaller streams).
//! The single-pass rows of part 1 are the per-pass deltas recorded in
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin stream_optimize            # n = 2^10
//! cargo run --release -p cofhee_bench --bin stream_optimize -- --smoke # n = 2^8
//! ```

use cofhee_arith::primes::ntt_prime;
use cofhee_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator, Plaintext};
use cofhee_core::{ChipBackend, ChipBackendFactory, OpStream, PolyBackend};
use cofhee_farm::{ChipFarm, Job, JobKind, Scheduler, Session, WorkStealing};
use cofhee_opt::{Cse, Dce, Fuse, OptLevel, Pass, PassRunner, TransferHoist};
use cofhee_sim::ChipConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic pseudo-random residues mod `q` (64-bit LCG).
fn poly(n: usize, q: u128, seed: u64) -> Vec<u128> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (s as u128) % q
        })
        .collect()
}

/// The naive batched-multiply stream: `pairs` tensor products all
/// sharing operand `a`, each recorded as if it were alone — duplicate
/// uploads, duplicate NTTs, separate Hadamard/accumulate chains. The
/// shape every pass has something to say about.
fn record_batched(n: usize, q: u128, pairs: usize) -> Result<OpStream, Box<dyn std::error::Error>> {
    let mut st = OpStream::new(n);
    let a0 = poly(n, q, 1);
    let a1 = poly(n, q, 2);
    for p in 0..pairs as u64 {
        let b0 = poly(n, q, 100 + 2 * p);
        let b1 = poly(n, q, 101 + 2 * p);
        let ua0 = st.upload(a0.clone())?;
        let ha0 = st.ntt(ua0)?;
        let ua1 = st.upload(a1.clone())?;
        let ha1 = st.ntt(ua1)?;
        let ub0 = st.upload(b0)?;
        let hb0 = st.ntt(ub0)?;
        let ub1 = st.upload(b1)?;
        let hb1 = st.ntt(ub1)?;
        let r0 = st.hadamard_intt(ha0, hb0)?;
        let x01 = st.hadamard(ha0, hb1)?;
        let x10 = st.hadamard(ha1, hb0)?;
        let mid = st.pointwise_add(x01, x10)?;
        let r1 = st.intt(mid)?;
        let r2 = st.hadamard_intt(ha1, hb1)?;
        for h in [r0, r1, r2] {
            st.output(h)?;
        }
    }
    Ok(st)
}

/// The pass subset selected by `mask`, in the fixed `O1` order.
fn runner_for(mask: usize) -> PassRunner {
    let mut passes: Vec<Box<dyn Pass>> = Vec::new();
    if mask & 1 != 0 {
        passes.push(Box::new(Cse));
    }
    if mask & 2 != 0 {
        passes.push(Box::new(Dce));
    }
    if mask & 4 != 0 {
        passes.push(Box::new(TransferHoist));
    }
    if mask & 8 != 0 {
        passes.push(Box::new(Fuse));
    }
    PassRunner::new(passes)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = cofhee_bench::sized(1 << 10, 1 << 8);
    let pairs = 4;
    let q = ntt_prime(60, n)?;

    println!("Stream compiler: pass-subset ablation on the chip (n = 2^{})", n.trailing_zeros());
    println!("({pairs} products sharing one operand, recorded naively, silicon timing)\n");

    let stream = record_batched(n, q, pairs)?;
    let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, n)?;
    let recorded = chip.execute_stream(&stream)?;
    let base_cc = recorded.report.overlapped_cycles;
    println!(
        "{:<22} | {:>4} | {:>4} {:>5} {:>6} | {:>12} | {:>7}",
        "passes", "ops", "elim", "fused", "hoist", "overlap cc", "delta"
    );
    println!(
        "{:<22} | {:>4} | {:>4} {:>5} {:>6} | {:>12} | {:>7}",
        "(recorded)",
        stream.len(),
        "-",
        "-",
        "-",
        base_cc,
        "-"
    );

    let mut o1_cc = None;
    for mask in 1..16usize {
        let runner = runner_for(mask);
        let label = runner.pass_names().join("+");
        let (opt, stats) = runner.optimize(&stream)?;
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, n)?;
        let run = chip.execute_stream(&opt)?;
        let cc = run.report.overlapped_cycles;

        // Bit-exactness and the never-worse bar, for every combination.
        assert_eq!(run.outputs, recorded.outputs, "{label}: optimized outputs diverged");
        assert!(
            cc <= base_cc,
            "{label}: optimized stream costs {cc} cc, recorded only {base_cc} cc"
        );

        let delta = 100.0 * (base_cc - cc) as f64 / base_cc as f64;
        println!(
            "{label:<22} | {:>4} | {:>4} {:>5} {:>6} | {cc:>12} | {delta:>6.1}%",
            opt.len(),
            stats.ops_eliminated,
            stats.ops_fused,
            stats.uploads_hoisted,
        );
        if mask == 15 {
            o1_cc = Some(cc);
        }
    }

    // The O1 acceptance bar: the full pipeline must cut >= 10% of the
    // recorded cycles on the batched-multiply stream.
    let o1_cc = o1_cc.expect("mask 15 is the full O1 pipeline");
    let gain = 100.0 * (base_cc - o1_cc) as f64 / base_cc as f64;
    assert!(gain >= 10.0, "O1 must cut >= 10% of recorded cycles, got {gain:.1}%");
    println!("\nO1 bar: {gain:.1}% of recorded cycles eliminated (>= 10% required)\n");

    // Part 2: the O2 partition demo — a relinearization-heavy mix
    // (CryptoNets' square layer primitive) on a 4-die farm.
    let params = BfvParams::insecure_testing(cofhee_bench::sized(1 << 9, 1 << 8))?;
    let mut rng = StdRng::seed_from_u64(2023);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
    let dec = Decryptor::new(&params, kg.secret_key().clone());
    let rlk = kg.relin_key(16, &mut rng)?;
    let a = enc.encrypt(&Plaintext::constant(&params, 6)?, &mut rng)?;
    let b = enc.encrypt(&Plaintext::constant(&params, 7)?, &mut rng)?;

    println!(
        "O2 partition demo: 6x MulRelin on a 4-die farm (n = 2^{})",
        params.n().trailing_zeros()
    );
    println!(
        "{:<6} | {:>8} | {:>12} | {:>4} {:>5} {:>6}",
        "level", "streams", "makespan cc", "elim", "fused", "hoist"
    );
    let mut baseline: Option<(Vec<u64>, u64)> = None;
    for level in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        let farm = ChipFarm::new(4, ChipBackendFactory::silicon())?;
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        let id = sched.open_session(Session::new("bench", &params, rlk.clone())?);
        let jobs: Vec<Job> = (0..6)
            .map(|_| Job { session: id, kind: JobKind::MulRelin(a.clone(), b.clone()), arrival: 0 })
            .collect();
        sched.set_opt_level(level);
        let outcomes = sched.run(jobs)?;
        let coeffs: Vec<u64> = outcomes
            .iter()
            .map(|o| dec.decrypt(o.result.expect_bfv()).unwrap().coeffs()[0])
            .collect();
        let r = sched.report();
        let st = &r.stream_totals;
        let lv = format!("{level}");
        println!(
            "{lv:<6} | {:>8} | {:>12} | {:>4} {:>5} {:>6}",
            r.streams, r.makespan_cycles, st.ops_eliminated, st.ops_fused, st.uploads_hoisted,
        );
        match &baseline {
            None => {
                assert!(coeffs.iter().all(|&c| c == 42), "6*7 must decrypt to 42");
                baseline = Some((coeffs, r.streams));
            }
            Some((base_coeffs, base_streams)) => {
                assert_eq!(&coeffs, base_coeffs, "{level}: results diverged from O0");
                if level == OptLevel::O2 {
                    assert!(
                        r.streams > *base_streams,
                        "O2 must split the key-switch stream across dies: \
                         {} streams vs {} at O0",
                        r.streams,
                        base_streams
                    );
                }
            }
        }
    }
    println!("\n(all levels decrypt bit-identically; O2 splits the key-switch stream across dies)");
    Ok(())
}
