//! Regenerates **Table I** operationally: executes every command of the
//! CoFHEE ISA on the simulated chip and prints its latency, operand
//! signature, and activity — the ISA coverage report.
//!
//! Every latency is simulated, so the run asserts each one exactly. At
//! `n = 2^12` the NTT and iNTT rows are Table V's silicon figures (the
//! paper's Table I lists the commands without latencies).

use cofhee_arith::primes::ntt_prime;
use cofhee_core::Device;
use cofhee_sim::{ChipConfig, Command, Slot};

/// Each command's cycles, in the printed order (full run, `--smoke`).
const CYCLES: ([u64; 10], [u64; 10]) = (
    [24_841, 29_468, 4_628, 4_628, 4_628, 4_628, 4_628, 4_628, 4_100, 4_100],
    [1_201, 1_508, 308, 308, 308, 308, 308, 308, 260, 260],
);

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log_n = cofhee_bench::sized(12u32, 8);
    let n = 1usize << log_n;
    let q = ntt_prime(109, n)?;
    let mut dev = Device::connect(ChipConfig::silicon(), q, n)?;
    let plan = dev.chip().bank_plan();
    let d0 = Slot::new(plan.d0, 0);
    let d1 = Slot::new(plan.d1, 0);
    let d2 = Slot::new(plan.d2, 0);
    let s0 = Slot::new(plan.storage[0], 0);
    let poly: Vec<u128> = (0..n as u128).map(|i| (i * 17 + 3) % q).collect();
    dev.upload(d0, &poly)?;
    dev.upload(d1, &poly)?;

    println!("Table I — the CoFHEE operation set, executed (n = 2^{log_n}, log q = 109)\n");
    println!("{:<9} {:>9} {:>9}  operands", "command", "cycles", "µs");

    let fwd = dev.forward_twiddles();
    let inv = dev.inverse_twiddles();
    let commands: Vec<(Command, &str)> = vec![
        (Command::ntt(d0, fwd, d2), "n, [x], [w], q"),
        (Command::intt(d2, inv, d1), "n, [x], [w], q, n^-1"),
        (Command::pmodadd(d0, d1, d2), "n, [x], [y], q"),
        (Command::pmodmul(d0, d1, d2), "n, [x], [y], q"),
        (Command::pmodsqr(d0, d2), "n, [x], q"),
        (Command::pmodsub(d0, d1, d2), "n, [x], [y], q"),
        (Command::cmodmul(d0, 12345, d2), "n, [x], q, const"),
        (Command::pmul(d0, d1, d2), "n, [x], [y]"),
        (Command::memcpy(d2, s0, n), "[x], delta, src, dst"),
        (Command::memcpyr(s0, d2, n), "[x], delta, src, dst (bit-reverse)"),
    ];

    let freq = ChipConfig::silicon().freq_hz as f64;
    for ((cmd, operands), expected) in
        commands.into_iter().zip(cofhee_bench::sized(CYCLES.0, CYCLES.1))
    {
        let mnemonic = cmd.op.mnemonic();
        let report = dev.chip_mut().execute_now(cmd)?;
        println!(
            "{:<9} {:>9} {:>9.1}  {}",
            mnemonic,
            report.cycles,
            report.cycles as f64 / freq * 1e6,
            operands
        );
        assert_eq!(report.cycles, expected, "{mnemonic} at n = 2^{log_n}");
    }
    println!("\nCompute ops stream through the PE; MEMCPY/MEMCPYR run on the DMA engine");
    println!("and overlap compute when banks are disjoint (Section III-B).");
    Ok(())
}
