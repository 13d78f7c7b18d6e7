//! CPU-vs-chip comparison through the `PolyBackend` API: one driver
//! loop, two execution targets, per-op cycles and latency.
//!
//! Complements the Table V path (`table5_performance`, which drives the
//! `Device` directly and reads the bare command): here every row is a
//! one-node stream (PolyMul: Algorithm 2's three — NTT, NTT, Hadamard +
//! iNTT) over two operands the backend already stores — the way the
//! evaluators reach a backend — so the chip column is what a
//! host actually pays for the op: operand transfers in, the command,
//! the result transfer out, overlapped as the FIFO schedule allows.
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin backend_compare            # n = 2^12
//! cargo run --release -p cofhee_bench --bin backend_compare -- --smoke # n = 2^8
//! ```

use cofhee_arith::primes::ntt_prime;
use cofhee_core::{ChipBackend, CpuBackend, OpStream, PolyBackend, StreamHandle};
use cofhee_sim::ChipConfig;

/// One row's computation over the two stored operands.
type Record = fn(&mut OpStream, StreamHandle, StreamHandle) -> cofhee_core::Result<StreamHandle>;

/// The seven Table I / Algorithm 2 rows, as (label, recorder) pairs.
const OPS: [(&str, Record); 7] = [
    ("NTT", |st, a, _| st.ntt(a)),
    ("iNTT", |st, a, _| st.intt(a)),
    ("Hadamard", |st, a, b| st.hadamard(a, b)),
    ("PMODADD", |st, a, b| st.pointwise_add(a, b)),
    ("PMODSUB", |st, a, b| st.pointwise_sub(a, b)),
    ("CMODMUL", |st, a, _| st.scalar_mul(a, 0x1234_5678)),
    ("PolyMul", |st, a, b| {
        let (fa, fb) = (st.ntt(a)?, st.ntt(b)?);
        st.hadamard_intt(fa, fb)
    }),
];

/// Stores `a` and `b` on `be` and records `op` over them as a stream
/// with its result marked for download.
fn one_node(
    be: &mut dyn PolyBackend,
    a: &[u128],
    b: &[u128],
    op: Record,
) -> cofhee_core::Result<OpStream> {
    let mut st = OpStream::new(be.n());
    let (ha, hb) = (st.input(be.upload(a)?), st.input(be.upload(b)?));
    let node = op(&mut st, ha, hb)?;
    st.output(node)?;
    Ok(st)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log_n = cofhee_bench::sized(12u32, 8);
    let reps = cofhee_bench::sized(10, 3);
    let n = 1usize << log_n;
    let q = ntt_prime(109, n)?;
    let config = ChipConfig::silicon();
    let freq = config.freq_hz as f64;

    let mut cpu = CpuBackend::new(q, n)?;
    let mut chip = ChipBackend::connect(config, q, n)?;

    println!("Backend comparison via the PolyBackend API, one stream per op");
    println!("(n = 2^{log_n}, log q = 109, chip = simulated silicon at 250 MHz)\n");
    println!(
        "{:<9} | {:>12} {:>10} | {:>12} | {:>9}",
        "op", "chip cycles", "chip µs", "cpu wall µs", "speedup"
    );

    let a: Vec<u128> = (0..n as u128).map(|i| i.wrapping_mul(0x9e3779b9) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();

    for (label, op) in OPS {
        // Chip: cycle-accurate, the stream's overlapped wall clock.
        let stream = one_node(&mut chip, &a, &b, op)?;
        let on_chip = chip.execute_stream(&stream)?;
        let cycles = on_chip.report.overlapped_cycles;
        let chip_us = cycles as f64 / freq * 1e6;

        // CPU: wall-clock through the same API (best of `reps`).
        let stream = one_node(&mut cpu, &a, &b, op)?;
        let (on_cpu, cpu_s) = cofhee_bench::time_best(reps, || cpu.execute_stream(&stream));
        assert_eq!(on_cpu?.outputs, on_chip.outputs, "{label}: backends disagree");
        let cpu_us = cpu_s * 1e6;

        println!(
            "{label:<9} | {cycles:>12} {chip_us:>10.1} | {cpu_us:>12.1} | {:>8.2}×",
            cpu_us / chip_us
        );
    }

    let report = chip.report();
    let comm = chip.comm_stats();
    println!("\nchip cumulative telemetry (the PolyBackend OpReport/CommStats query):");
    println!(
        "  {} cycles, {} butterflies, {} mults, {} add/subs",
        report.cycles, report.butterflies, report.mults, report.addsubs
    );
    println!("  host link: {} bytes moved (backdoor link: 0.0 s wire time)", comm.bytes);
    println!(
        "\n(cycles here include each op's operand and result transfers; \
         the bare-command Table V path lives in table5_performance)"
    );
    Ok(())
}
