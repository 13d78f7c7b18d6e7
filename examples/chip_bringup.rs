//! Post-silicon-style bring-up (the paper's Section V-F / Fig. 5 flow):
//! read the chip ID, program the FHE registers over the host link,
//! account UART vs SPI transfer costs, and run a first NTT.
//!
//! ```sh
//! cargo run --release --example chip_bringup
//! ```

use cofhee::arith::primes::ntt_prime;
use cofhee::core::{Device, Link};
use cofhee::sim::{ChipConfig, HostLink, Register, Slot, Spi, Uart};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 1usize << 12;
    let q = ntt_prime(109, n)?;

    println!("== CoFHEE bring-up (UMFT230XA-style host over UART) ==");
    let uart = Uart::new(921_600);
    let mut device = Device::connect_via(ChipConfig::silicon(), q, n, Link::Uart(uart))?;

    // 1. Sanity: read the SIGNATURE register (chip ID).
    let signature = device.chip_mut().read_register(Register::SIGNATURE)?;
    println!("SIGNATURE register: {signature:#010x} (chip alive)");

    // 2. Verify the parameter registers the bring-up programmed.
    println!("Q register:  {:#x}", device.chip().gpcfg().q());
    println!("N register:  {}", device.chip().gpcfg().n());
    println!("BARRETTCTL1: k = {}", device.chip().gpcfg().barrett_k());

    // 3. Communication accounting so far (registers + twiddle tables).
    let comm = device.comm_stats();
    println!(
        "bring-up traffic: {} bytes over UART = {:.1} ms on the wire",
        comm.bytes,
        comm.seconds * 1e3
    );

    // 4. Upload a polynomial, run an NTT, read it back.
    let plan = device.chip().bank_plan();
    let poly: Vec<u128> = (0..n as u128).map(|i| (i * 3 + 1) % q).collect();
    device.upload(Slot::new(plan.d0, 0), &poly)?;
    let report = device.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0))?;
    println!(
        "first NTT: {} cycles = {:.1} µs on-chip (Table V: 24,841 cc)",
        report.cycles,
        report.cycles as f64 / 250e6 * 1e6
    );
    let _spectrum = device.download(Slot::new(plan.d1, 0))?;
    let total = device.comm_stats();
    println!(
        "total wire time incl. polynomial I/O: {:.1} ms — the chip computed for {:.3} ms",
        total.seconds * 1e3,
        device.chip().elapsed_seconds() * 1e3
    );

    // 5. The same bring-up over SPI, the faster link.
    println!("\n== the same flow over SPI at 50 MHz ==");
    let spi = Spi::new(50_000_000);
    let fast = Device::connect_via(ChipConfig::silicon(), q, n, Link::Spi(spi))?;
    let poly_s = fast.comm_stats().seconds;
    println!("bring-up traffic over SPI: {:.2} ms", poly_s * 1e3);
    println!(
        "per-polynomial transfer: UART {:.1} ms vs SPI {:.2} ms — \"one can always \
         replace these interfaces with faster ones\" (Section III-H)",
        Uart::new(921_600).polynomial_seconds(n, 128) * 1e3,
        Spi::new(50_000_000).polynomial_seconds(n, 128) * 1e3,
    );
    Ok(())
}
