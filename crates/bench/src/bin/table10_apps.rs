//! Regenerates **Table X**: end-to-end CryptoNets and logistic-regression
//! runtimes, CPU vs CoFHEE, from the paper's exact op mixes (Section VI-C).
//!
//! Each of the three op kinds is priced on the farm's own path: one BFV
//! job at `BfvParams::paper_n12()` (relin key at 16-bit digits, as the
//! benchmark's farm workloads) through `Scheduler::run` on a fresh
//! one-die silicon farm. The job's latency is the op's price, and the
//! CoFHEE column is Σ count × price ÷ clock. Pricing reads only the
//! shapes of a job's streams, so the run asserts each priced cycle count
//! exactly. The CPU column times the same three ops on the CPU
//! `Evaluator` (this host's wall clock), whose ciphertexts must equal
//! the farm's. `--smoke` shrinks only the CPU timing repetitions.

use cofhee_apps::{Table10Reference, Workload};
use cofhee_bench::time_best;
use cofhee_bfv::{BatchEncoder, BfvParams, Encryptor, Evaluator, KeyGenerator};
use cofhee_core::ChipBackendFactory;
use cofhee_farm::JobKind::{Add, MulPlain, MulRelin};
use cofhee_farm::{ChipFarm, Job, Scheduler, Session, WorkStealing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Priced die cycles of `ct+ct`, `ct·pt` and `ct·ct+relin` at `paper_n12`.
const PRICED_CYCLES: [u64; 3] = [33_856, 187_526, 1_927_015];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = BfvParams::paper_n12()?;
    println!("Table X — end-to-end applications at (n, log q) = (2^12, 109)\n");
    let mut rng = StdRng::seed_from_u64(10);
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
    let rlk = kg.relin_key(16, &mut rng)?;
    let encoder = BatchEncoder::new(&params)?;
    let mut encode = || {
        let slots: Vec<u64> = (0..params.n()).map(|_| rng.gen_range(0..params.t())).collect();
        encoder.encode(&slots)
    };
    let (ma, mb, pt) = (encode()?, encode()?, encode()?);
    let (a, b) = (enc.encrypt(&ma, &mut rng)?, enc.encrypt(&mb, &mut rng)?);

    // CPU: the same three ops on the CPU evaluator, best of `reps`.
    let cpu = Evaluator::new(&params)?;
    let reps = cofhee_bench::sized(7, 2);
    let (add, t_add) = time_best(reps, || cpu.add(&a, &b));
    let (mul_plain, t_mul_plain) = time_best(reps, || cpu.mul_plain(&a, &pt));
    let (mul_relin, t_mul_relin) = time_best(reps, || cpu.multiply_relin(&a, &b, &rlk));
    let cpu_results = [add?, mul_plain?, mul_relin?];
    let cpu_s = [t_add, t_mul_plain, t_mul_relin];

    // CoFHEE: each op alone on a fresh one-die farm.
    println!("op            priced cc  streams  critical cc  DMA bytes  CoFHEE(s)     CPU(s)");
    let jobs = [Add(a.clone(), b.clone()), MulPlain(a.clone(), pt), MulRelin(a, b)];
    let mut cofhee_s = [0.0; 3];
    for (i, (kind, cpu_ct)) in jobs.into_iter().zip(&cpu_results).enumerate() {
        let farm = ChipFarm::new(1, ChipBackendFactory::silicon())?;
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        let session = sched.open_session(Session::new("table-x", &params, rlk.clone())?);
        let name = kind.name();
        let outcome = sched.run(vec![Job { session, kind, arrival: 0 }])?.remove(0);
        let report = sched.report();
        assert_eq!(outcome.latency, report.makespan_cycles, "{name}: one job on an idle die");
        assert_eq!(outcome.latency, PRICED_CYCLES[i], "{name} priced cycles");
        assert_eq!(outcome.result.expect_bfv(), cpu_ct, "{name}: farm ≡ CPU evaluator");
        cofhee_s[i] = outcome.latency as f64 / report.freq_hz as f64;
        let (s, phases) = (report.stream_totals, sched.farm().op_report().phases);
        let dma = s.uploaded_bytes + s.downloaded_bytes;
        println!(
            "{name:<12} {:>10} {:>8} {:>12} {dma:>10} {:>10.3e} {:>10.3e}",
            outcome.latency, outcome.streams, outcome.service_cycles, cofhee_s[i], cpu_s[i]
        );
        println!("  serial {} cc = {phases:?}", s.serial_cycles);
    }

    println!();
    println!("Application           CPU(s)  CoFHEE(s)  Speedup | paper CPU(s)  CoFHEE(s)  Speedup");
    for (w, r) in Workload::all().iter().zip(Table10Reference::all()) {
        assert_eq!(w.name, r.name, "Table X rows in the same order");
        let counts = [w.ct_ct_add, w.ct_pt_mul, w.ct_ct_mul_relin];
        let total = |s: [f64; 3]| counts.iter().zip(s).map(|(&c, s)| c as f64 * s).sum::<f64>();
        let (cpu_total, cofhee_total) = (total(cpu_s), total(cofhee_s));
        println!(
            "{:<20}{cpu_total:>8.2}{cofhee_total:>11.2}{:>8.2}x | {:>12.2}{:>11.2}{:>8.2}x",
            w.name,
            cpu_total / cofhee_total,
            r.cpu_s,
            r.cofhee_s,
            r.speedup()
        );
    }
    println!("\nCoFHEE seconds: priced die cycles ÷ the die clock, every operand and key");
    println!("shipped over the link per op. CPU seconds: this host's wall clock, not the");
    println!("paper's Ryzen 7 5800h. EXPERIMENTS.md (Table X) explains the gap to the paper.");
    Ok(())
}
