//! Regenerates **Fig. 6**: ciphertext multiplication (no
//! relinearization) on the CPU baseline (1–16 threads) vs one CoFHEE
//! instance, for (n, log q) ∈ {(2^12, 109), (2^13, 218)} — time for all
//! towers (6a), power (6b), and the Section VI-B power-delay products.
//! The CPU baseline is the production CPU path: one `record_tensor`
//! stream per 64-bit-word tower, replayed on `CpuBackend`s through
//! `fan_out`. Exits non-zero if CoFHEE's compute time at a point is more
//! than 1 % off the paper's.

use cofhee_arith::rns::RnsBasis;
use cofhee_bench::time_best;
use cofhee_core::{fan_out, record_tensor, CpuBackend, Device, ExecutionMode, PolyBackend};
use cofhee_sim::ChipConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Paper reference points: (log n, log q, SEAL 1-thread ms, CoFHEE ms,
/// CPU W, CoFHEE mW).
const PAPER: [(u32, u32, f64, f64, f64, f64); 2] =
    [(12, 109, 1.5, 0.84, 1.48, 22.0), (13, 218, 6.91, 3.58, 2.3, 21.2)];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Fig. 6 — ciphertext multiplication: CPU (this machine) vs CoFHEE (simulated)\n");
    let mut rng = StdRng::seed_from_u64(0xF16);

    let points = cofhee_bench::sized(PAPER.to_vec(), PAPER[..1].to_vec());
    let reps = cofhee_bench::sized(5, 1);
    let thread_sweep = cofhee_bench::sized(vec![1usize, 2, 4, 8, 16], vec![1, 2]);
    for (log_n, log_q, paper_cpu_ms, paper_chip_ms, paper_cpu_w, paper_chip_mw) in points {
        let n = 1usize << log_n;
        println!("== (n, log q) = (2^{log_n}, {log_q}) ==");

        // ---- CPU baseline: per-tower Eq. 4, thread sweep (Fig. 6a) ----
        // One `CpuBackend` and one recorded tensor stream per 64-bit-word
        // tower; `t` threads run `min(t, towers)` tasks, each over its
        // share of the towers, each stream on `max(1, t / towers)` lanes.
        let cpu_basis = RnsBasis::for_total_bits(log_q, 64, n)?;
        let mut cpu_towers = cpu_basis
            .moduli()
            .iter()
            .map(|&q| {
                let mut sample =
                    || -> Vec<u128> { (0..n).map(|_| u128::from(rng.gen::<u64>()) % q).collect() };
                let (a, b) = ([sample(), sample()], [sample(), sample()]);
                Ok((CpuBackend::new(q, n)?, record_tensor(n, a, b)?))
            })
            .collect::<cofhee_core::Result<Vec<_>>>()?;
        let towers = cpu_towers.len();
        println!(
            "CPU towers: {towers}   (parallel units: {} forward / {} inverse NTTs — the sweep \
             plateaus past these)",
            4 * towers,
            3 * towers
        );
        let mut one_thread_ms = 0.0;
        for &threads in &thread_sweep {
            let lanes = (threads / towers).max(1);
            let per_task = towers.div_ceil(threads.min(towers));
            let (_, secs) = time_best(reps, || {
                let mut tasks: Vec<_> = cpu_towers.chunks_mut(per_task).collect();
                fan_out(&mut tasks, |share| {
                    for (backend, stream) in share.iter_mut() {
                        backend.execute_stream_lanes(stream, lanes).expect("recorded for it");
                    }
                });
            });
            let ms = secs * 1e3;
            if threads == 1 {
                one_thread_ms = ms;
            }
            println!(
                "  CPU {threads:>2} thread(s): {ms:>8.3} ms   (speedup vs 1t: {:.2}x)",
                one_thread_ms / ms
            );
        }
        println!("  paper SEAL 1 thread: {paper_cpu_ms:>6.2} ms (AMD Ryzen 7 5800h)");

        // ---- CoFHEE: the RNS towers one after the other on one chip (Fig. 6a) ----
        let basis = RnsBasis::for_total_bits(log_q, 128, n)?;
        let (mut compute_cycles, mut wall_cycles) = (0, 0);
        let mut phases = cofhee_sim::PhaseCycles::default();
        for &q in basis.moduli() {
            let mk = |seed: u128| -> Vec<u128> {
                let mut s = seed | 1;
                (0..n)
                    .map(|_| {
                        s = s.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(11);
                        s % q
                    })
                    .collect()
            };
            let mut dev = Device::connect(ChipConfig::silicon(), q, n)?;
            let operands = [mk(1), mk(2), mk(3), mk(4)];
            let operands: Vec<&[u128]> = operands.iter().map(Vec::as_slice).collect();
            let run =
                dev.run(&dev.ciphertext_mul_schedule(), &operands, ExecutionMode::CommandFifo)?;
            compute_cycles += run.compute_cycles;
            wall_cycles += run.report.cycles;
            phases.absorb(&run.report.phases);
        }
        let freq = ChipConfig::silicon().freq_hz as f64;
        let chip_ms = compute_cycles as f64 / freq * 1e3;
        let wall_ms = wall_cycles as f64 / freq * 1e3;
        println!(
            "  CoFHEE ({} tower(s)): {chip_ms:>8.3} ms compute ({wall_ms:.3} ms with DMA staging)",
            basis.len()
        );
        println!(
            "  paper CoFHEE: {paper_chip_ms:>6.2} ms   ({})",
            cofhee_bench::pct_err(chip_ms, paper_chip_ms)
        );
        assert!(
            (chip_ms - paper_chip_ms).abs() < 0.01 * paper_chip_ms,
            "CoFHEE compute time {chip_ms} ms is more than 1 % off the paper's {paper_chip_ms} ms"
        );

        // ---- Power (Fig. 6b) ----
        let model = cofhee_sim::PowerModel::silicon();
        let chip_mw = model.average_mw(&phases);
        println!("  CoFHEE power: {chip_mw:.1} mW (paper: {paper_chip_mw} mW)");
        println!(
            "  CPU power: paper-measured {paper_cpu_w} W via powertop (not measurable here; \
             documented substitution)"
        );

        // ---- Power-delay product (Section VI-B) ----
        let chip_pdp = chip_mw * 1e-3 * chip_ms;
        let cpu_pdp_paper = paper_cpu_w * paper_cpu_ms;
        println!(
            "  PDP: CoFHEE {:.2e} W·ms vs paper-CPU {:.2} W·ms ({:.0}x more efficient)",
            chip_pdp,
            cpu_pdp_paper,
            cpu_pdp_paper / chip_pdp
        );
        println!(
            "  CPU 1 thread / CoFHEE: {:.2}x measured, {:.2}x in the paper\n",
            one_thread_ms / chip_ms,
            paper_cpu_ms / paper_chip_ms
        );
    }
    println!("CPU figures are this host's wall clock; CoFHEE figures are simulated.");
    Ok(())
}
