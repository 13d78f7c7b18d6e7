//! Execution mode 3: the on-chip Cortex-M0 sequences a full polynomial
//! multiplication without host involvement (Section III-I).
//!
//! A Thumb program — built with the structured assembler standing in for
//! the paper's embedded-C toolchain — writes Algorithm 2's four commands
//! into the memory-mapped COMMANDFIFO port and halts; the host only
//! preloads the program and collects the result.
//!
//! ```sh
//! cargo run --release --example cm0_sequencer
//! ```

use cofhee::arith::{primes::ntt_prime, Barrett128};
use cofhee::core::{Device, ExecutionMode, Link};
use cofhee::poly::ntt::{self, NttTables};
use cofhee::sim::{ChipConfig, Spi, COMMAND_WORDS};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1usize << 10;
    let q = ntt_prime(109, n)?;
    let link = Link::Spi(Spi::new(50_000_000));
    let mut device = Device::connect_via(ChipConfig::silicon(), q, n, link)?;

    let a: Vec<u128> = (0..n as u128).map(|i| (i + 1) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 5 + 2) % q).collect();

    // The sequencer program: each command is ten 32-bit words streamed
    // into the COMMANDFIFO port.
    let schedule = device.poly_mul_schedule();
    println!(
        "CM0 program: {} halfwords, streaming {} command words into the FIFO",
        schedule.cm0_program()?.len(),
        schedule.commands.len() * COMMAND_WORDS
    );

    // The host uploads A and B, preloads the program and starts the core
    // against the chip's bus.
    let run = device.run(&schedule, &[&a, &b], ExecutionMode::Cm0)?;
    println!(
        "chip executed {} butterflies in {} cycles; the program and its start trigger took {:.1} µs \
         on the {} link",
        run.report.butterflies,
        run.report.cycles,
        run.command_overhead_s * 1e6,
        device.link().name()
    );

    // Verify the product.
    let ring = Barrett128::new(q)?;
    let tables = NttTables::new(&ring, n)?;
    let expect = ntt::negacyclic_mul(&ring, &a, &b, &tables)?;
    assert_eq!(run.outputs, [expect], "CM0-sequenced product must match the oracle");
    println!("CM0-sequenced PolyMul verified against the software oracle ✓");
    Ok(())
}
