//! Regenerates **Table XI**: the NTT comparison against F1, CraterLake,
//! BTS, ARK, HEAX and Roy, including the technology-normalized
//! efficiency metric and the headline speedup ratios.
//!
//! CoFHEE's row is priced on the simulator: one `n = 2^13` NTT on a
//! silicon die, as `table5_performance` runs it, replaces the published
//! cycle count, and the row prints the efficiency those cycles give
//! (the speedups stay on the published efficiencies).
//! The run asserts that count within 0.02 % of Table V's 53,535 and the
//! derived efficiency within 5 % of the published 4.54e-4. Both hold in
//! `--smoke` mode too: one NTT at `n = 2^13` is all there is to run.

use cofhee_arith::primes::ntt_prime;
use cofhee_core::Device;
use cofhee_physical::{ComparisonTable, PartCatalogue, TechScaling};
use cofhee_sim::{ChipConfig, Slot};

/// Table V's silicon-measured NTT at `n = 2^13`.
const TABLE5_NTT_CYCLES: u64 = 53_535;
/// The efficiency Table XI publishes for CoFHEE (NTT/ns/mm²).
const PUBLISHED_EFFICIENCY: f64 = 4.54e-4;

/// Cycles of one `n = 2^13` NTT on a silicon die, `q = ntt_prime(109, n)`.
fn simulated_ntt_cycles() -> Result<u64, Box<dyn std::error::Error>> {
    let n = 1usize << 13;
    let q = ntt_prime(109, n)?;
    let mut dev = Device::connect(ChipConfig::silicon(), q, n)?;
    let plan = dev.chip().bank_plan();
    let poly: Vec<u128> = (0..n as u128).map(|i| i.wrapping_mul(0x9e3779b9) % q).collect();
    let (d0, d1) = (Slot::new(plan.d0, 0), Slot::new(plan.d1, 0));
    dev.upload(d0, &poly)?;
    Ok(dev.ntt(d0, d1)?.cycles)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut table = ComparisonTable::table11();
    let published_cycles = table.cofhee.ntt_cycles;
    let cycles = simulated_ntt_cycles()?;
    table.cofhee.ntt_cycles = cycles;

    println!("Table XI — NTT comparison against related work (n = 2^13)\n");
    println!(
        "CoFHEE NTT: {cycles} cc simulated, {published_cycles} cc in Table XI ({}), \
         {TABLE5_NTT_CYCLES} cc in Table V ({})\n",
        cofhee_bench::pct_err(cycles as f64, published_cycles as f64),
        cofhee_bench::pct_err(cycles as f64, TABLE5_NTT_CYCLES as f64)
    );
    // CoFHEE's row shows what its simulated cycles give; the speedups
    // below stay on the published efficiencies.
    let parts = PartCatalogue::cofhee();
    let scaling = TechScaling::gf55_to_7nm();
    let derived = table.derive_cofhee_efficiency(&parts, &scaling);
    let mut shown = table.clone();
    shown.cofhee.published_efficiency = Some(derived);
    print!("{}", shown.to_table());
    println!(
        "(CoFHEE: cycles simulated, Eff derived from them; Table XI publishes \
         {PUBLISHED_EFFICIENCY:.2e})"
    );

    println!("\nEfficiency derivation for CoFHEE (paper Section VII):");
    println!(
        "  compute area (PE + MDMC): {:.4} mm²  → scaled /{:.1}: {:.5} mm²",
        parts.compute_area_mm2(),
        scaling.area_factor,
        scaling.scale_area_mm2(parts.compute_area_mm2())
    );
    let time_ns = table.cofhee.ntt_cycles as f64 / table.cofhee.freq_mhz * 1e3;
    println!(
        "  NTT time: {} cc @ {} MHz = {:.0} ns → scaled /{:.1}: {:.0} ns",
        table.cofhee.ntt_cycles,
        table.cofhee.freq_mhz,
        time_ns,
        scaling.delay_factor,
        scaling.scale_time_ns(time_ns)
    );
    println!(
        "  derived efficiency: {:.3e} NTT/ns/mm² (paper: {PUBLISHED_EFFICIENCY:.2e}, {})",
        derived,
        cofhee_bench::pct_err(derived, PUBLISHED_EFFICIENCY)
    );

    println!("\nSpeedups (published efficiencies, the paper's quoted ratios):");
    for (name, speedup) in table.speedups() {
        println!("  vs {name:<11} {speedup:>6.2}x");
    }
    println!("\nFPGA rows (HEAX, Roy) carry cycle counts only: \"no information is");
    println!("available to accurately map FPGA resources to silicon area\".");

    let cycle_err = (cycles as f64 - TABLE5_NTT_CYCLES as f64).abs() / TABLE5_NTT_CYCLES as f64;
    assert!(cycle_err < 2e-4, "simulated NTT {cycles} cc vs Table V's {TABLE5_NTT_CYCLES}");
    let eff_err = (derived - PUBLISHED_EFFICIENCY).abs() / PUBLISHED_EFFICIENCY;
    assert!(eff_err < 0.05, "derived efficiency {derived:.3e} vs published {PUBLISHED_EFFICIENCY}");
    Ok(())
}
