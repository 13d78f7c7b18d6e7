//! Ablations for the design choices DESIGN.md calls out:
//!
//! * **Section VIII-A scalability**: PE count sweep (1/2/4) — the paper
//!   predicts ≈4× NTT throughput from 4 PEs at +1.9 mm².
//! * **Dual-port vs single-port** NTT (II = 1 vs II = 2) and the
//!   `n = 2^14` large-polynomial mode of Section III-C.
//! * **Host link** costs: UART vs SPI polynomial transfer and the
//!   off-chip round trips for n > 2^13.
//!
//! Every figure is simulated or analytic, so the output is a pure function
//! of the simulator, and the run asserts each cycle count exactly. They
//! follow `stages·(n/2·II/PEs + 22) + 1`: 13 stages at `n = 2^13`, 9 at
//! the `--smoke` size `n = 2^9`.

use cofhee_arith::primes::ntt_prime;
use cofhee_core::Device;
use cofhee_physical::PartCatalogue;
use cofhee_sim::{offchip_round_trips, ChipConfig, HostLink, Slot, Spi, Uart};

/// NTT cycles on 1 / 2 / 4 PEs (full run, `--smoke`).
const PE_CYCLES: ([u64; 3], [u64; 3]) = ([53_535, 26_911, 13_599], [2_503, 1_351, 775]);
/// NTT cycles into the dual-port pair (II = 1) and into a single-port
/// bank (II = 2) (full run, `--smoke`).
const PORT_CYCLES: ((u64, u64), (u64, u64)) = ((53_535, 106_783), (2_503, 4_807));
/// The `n = 2^14` NTT, forced to II = 2 (full run only).
const N14_CYCLES: u64 = 229_685;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = cofhee_bench::smoke_mode();
    let log_n = cofhee_bench::sized(13u32, 9);
    let n = 1usize << log_n;
    let q = ntt_prime(109, n)?;

    // ---- PE count sweep (Section VIII-A) ----
    println!("== Multi-PE scalability (n = 2^{log_n} NTT) ==");
    let parts = PartCatalogue::cofhee();
    let pe_cycles = cofhee_bench::sized(PE_CYCLES.0, PE_CYCLES.1);
    let mut base_cycles = 0;
    for (pe, expected) in [1usize, 2, 4].into_iter().zip(pe_cycles) {
        let config = ChipConfig::with_pe_count(pe);
        let mut dev = Device::connect(config, q, n)?;
        let plan = dev.chip().bank_plan();
        let poly: Vec<u128> = (0..n as u128).map(|i| i % q).collect();
        dev.upload(Slot::new(plan.d0, 0), &poly)?;
        let report = dev.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0))?;
        assert_eq!(report.cycles, expected, "{pe}-PE NTT at n = 2^{log_n}");
        if pe == 1 {
            base_cycles = report.cycles;
        }
        let speedup = base_cycles as f64 / report.cycles as f64;
        let extra_area = parts.multi_pe_area_increase_mm2(pe - 1);
        println!(
            "  {pe} PE(s): {:>7} cycles  speedup {speedup:.2}x  extra area {extra_area:.2} mm²",
            report.cycles
        );
    }
    println!("  paper: 4 PEs ≈ 4x for +1.9 mm² (exceeds 16-thread SEAL)\n");

    // ---- Dual-port vs single-port and large n (Section III-C) ----
    println!("== Memory-port initiation interval ==");
    {
        let mut dev = Device::connect(ChipConfig::silicon(), q, n)?;
        let plan = dev.chip().bank_plan();
        let poly: Vec<u128> = (0..n as u128).map(|i| i % q).collect();
        dev.upload(Slot::new(plan.d0, 0), &poly)?;
        let dual = dev.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0))?;
        dev.upload(Slot::new(plan.d0, 0), &poly)?;
        let single = dev.ntt(Slot::new(plan.d0, 0), Slot::new(plan.storage[0], 0))?;
        println!("  dual-port pair (II=1):   {:>7} cycles", dual.cycles);
        println!("  single-port dest (II=2): {:>7} cycles", single.cycles);
        let expected = cofhee_bench::sized(PORT_CYCLES.0, PORT_CYCLES.1);
        assert_eq!((dual.cycles, single.cycles), expected, "dual / single-port NTT");
    }
    if smoke {
        // The forced-II=2 regime only exists for n > 2^13; nothing to
        // reduce, so the smoke run skips it.
        println!();
    } else {
        let n14 = 1usize << 14;
        let q14 = ntt_prime(109, n14)?;
        let mut dev = Device::connect(ChipConfig::silicon(), q14, n14)?;
        let plan = dev.chip().bank_plan();
        let poly: Vec<u128> = (0..n14 as u128).map(|i| i % q14).collect();
        dev.upload(Slot::new(plan.d0, 0), &poly)?;
        let report = dev.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0))?;
        println!("  n = 2^14 (forced II=2 per Section III-C): {:>7} cycles\n", report.cycles);
        assert_eq!(report.cycles, N14_CYCLES, "n = 2^14 NTT");
    }

    // ---- Host link costs (Section III-C large polynomials) ----
    println!("== Host communication (128-bit coefficients) ==");
    let uart = Uart::new(921_600);
    let spi = Spi::new(50_000_000);
    for log_n in cofhee_bench::sized(vec![12u32, 13, 14, 15], vec![12]) {
        let nn = 1usize << log_n;
        let trips = offchip_round_trips(nn, 1 << 13);
        println!(
            "  n = 2^{log_n}: UART {:>8.1} ms, SPI {:>7.2} ms, off-chip round trips: {trips}",
            uart.polynomial_seconds(nn, 128) * 1e3,
            spi.polynomial_seconds(nn, 128) * 1e3
        );
    }
    println!("\n  (the paper: for n ≥ 2^14 communication costs grow and NTT runs at II=2)");
    Ok(())
}
