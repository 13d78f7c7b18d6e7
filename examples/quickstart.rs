//! Quickstart: multiply two polynomials on the simulated CoFHEE chip and
//! check the result against the software golden model.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cofhee::arith::{primes::ntt_prime, Barrett128};
use cofhee::core::{Device, ExecutionMode};
use cofhee::poly::ntt::{self, NttTables};
use cofhee::sim::ChipConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's optimized operating point: n = 2^13, a 109-bit
    // NTT-friendly prime (one native tower).
    let n = 1usize << 13;
    let q = ntt_prime(109, n)?;
    println!("CoFHEE quickstart: n = 2^13, q = {q} ({} bits)", 128 - q.leading_zeros());

    // Bring up the chip: registers, Barrett constants, twiddle SRAM.
    let mut device = Device::connect(ChipConfig::silicon(), q, n)?;

    // Two inputs.
    let a: Vec<u128> = (0..n as u128).map(|i| (i * i + 1) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (7 * i + 3) % q).collect();

    // Algorithm 2 on the chip: 2 NTTs, a Hadamard pass, 1 iNTT,
    // delivered through the command FIFO.
    let schedule = device.poly_mul_schedule();
    let outcome = device.run(&schedule, &[&a, &b], ExecutionMode::CommandFifo)?;
    let us = outcome.compute_cycles as f64 / device.chip().config().freq_hz as f64 * 1e6;
    println!(
        "chip PolyMul: {} compute cycles = {us:.1} µs at 250 MHz (paper Table V: 179,045 cc)",
        outcome.compute_cycles
    );

    // Verify against the software golden model.
    let ring = Barrett128::new(q)?;
    let tables = NttTables::new(&ring, n)?;
    let expected = ntt::negacyclic_mul(&ring, &a, &b, &tables)?;
    assert_eq!(outcome.outputs, [expected], "chip result must match the golden model");
    println!("result verified against the O(n log n) software oracle ✓");

    // Power, from the calibrated activity model.
    let avg = device.chip().average_power_mw(&outcome.report);
    println!("estimated average power: {avg:.1} mW (paper: ~21-23 mW)");
    Ok(())
}
