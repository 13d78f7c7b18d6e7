//! Regenerates **Table V**: CoFHEE latency (clock cycles, µs) and power
//! (average/peak mW) for PolyMul, NTT and iNTT at n ∈ {2^12, 2^13}.

use cofhee_arith::primes::ntt_prime;
use cofhee_core::{Device, ExecutionMode};
use cofhee_sim::ChipConfig;

/// Paper reference values: (op, log n, cycles, µs, avg mW, peak mW).
const PAPER: [(&str, u32, u64, f64, f64, f64); 6] = [
    ("PolyMul", 12, 83_777, 335.1, 22.9, 30.4),
    ("NTT", 12, 24_841, 99.4, 24.5, 30.4),
    ("iNTT", 12, 29_468, 117.9, 19.9, 27.2),
    ("PolyMul", 13, 179_045, 716.2, 21.2, 29.7),
    ("NTT", 13, 53_535, 214.1, 24.4, 29.7),
    ("iNTT", 13, 62_770, 251.1, 18.3, 23.9),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Table V — CoFHEE performance for n = {{2^12, 2^13}}");
    println!("(measured = this simulator; paper = silicon measurement)\n");
    println!(
        "{:<8} {:>4} | {:>9} {:>9} {:>8} | {:>9} {:>8} {:>8} | {:>9} {:>8} {:>8}",
        "op",
        "n",
        "cycles",
        "paper cc",
        "err",
        "µs",
        "avg mW",
        "peak mW",
        "paper µs",
        "p.avg",
        "p.peak"
    );

    for log_n in cofhee_bench::sized(vec![12u32, 13], vec![12]) {
        let n = 1usize << log_n;
        let q = ntt_prime(109, n)?;
        let config = ChipConfig::silicon();
        let freq = config.freq_hz as f64;

        let mut dev = Device::connect(config, q, n)?;
        let plan = dev.bank_plan();
        let poly: Vec<u128> = (0..n as u128).map(|i| i.wrapping_mul(0x9e3779b9) % q).collect();
        let d0 = cofhee_sim::Slot::new(plan.d0, 0);
        let d1 = cofhee_sim::Slot::new(plan.d1, 0);
        let d2 = cofhee_sim::Slot::new(plan.d2, 0);
        dev.upload(d0, &poly)?;

        let ntt_report = dev.ntt(d0, d1)?;
        let intt_report = dev.intt(d1, d2)?;
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 31 + 7) % q).collect();
        let polymul =
            dev.run(&dev.poly_mul_schedule(), &[&poly, &b], ExecutionMode::CommandFifo)?;

        let rows = [
            ("PolyMul", polymul.compute_cycles, polymul.report.phases),
            ("NTT", ntt_report.cycles, ntt_report.phases),
            ("iNTT", intt_report.cycles, intt_report.phases),
        ];

        for (op, cycles, phases) in rows {
            let (_, _, p_cc, p_us, p_avg, p_peak) = *PAPER
                .iter()
                .find(|(name, ln, ..)| *name == op && *ln == log_n)
                .expect("paper row exists");
            let us = cycles as f64 / freq * 1e6;
            let avg = dev.chip().power_model().average_mw(&phases);
            let peak = dev.chip().power_model().peak_mw(&phases);
            println!(
                "{:<8} 2^{:<2} | {:>9} {:>9} {:>8} | {:>9.1} {:>8.1} {:>8.1} | {:>9.1} {:>8.1} {:>8.1}",
                op,
                log_n,
                cycles,
                p_cc,
                cofhee_bench::pct_err(cycles as f64, p_cc as f64),
                us,
                avg,
                peak,
                p_us,
                p_avg,
                p_peak
            );
        }
    }
    println!("\nCycle model: stages·(n/2·II + 22) + trigger; iNTT adds the n⁻¹ pass");
    println!("(n + n/8 + 20). Power: calibrated activity model (see cofhee-sim::power).");
    Ok(())
}
