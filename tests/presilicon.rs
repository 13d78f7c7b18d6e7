//! The paper's pre-silicon verification flow (Section III-J), end to end:
//! golden vectors generated by the test-vector generator (the Python
//! script's role) are loaded into the simulated chip and every Table I
//! command's output is compared against the independently computed
//! expectation — "the result from the design is compared against the
//! expected result".

use cofhee::arith::Barrett128;
use cofhee::poly::golden::GoldenVectors;
use cofhee::sim::{BankId, Chip, ChipConfig, Command, Slot};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Testbench {
    chip: Chip,
    vectors: GoldenVectors,
    fwd: Slot,
    inv: Slot,
}

fn testbench(n: usize, q_bits: u32, seed: u64) -> Testbench {
    let mut rng = StdRng::seed_from_u64(seed);
    let vectors = GoldenVectors::generate(n, q_bits, &mut rng).unwrap();
    let mut chip = Chip::silicon().unwrap();
    let ring = Barrett128::new(vectors.q).unwrap();
    let (fwd, inv) = chip.load_ring(&ring, n).unwrap();
    // The generator's twiddles must be exactly what the driver loaded.
    assert_eq!(chip.read_polynomial(fwd, n).unwrap(), vectors.forward_twiddles);
    assert_eq!(chip.read_polynomial(inv, n).unwrap(), vectors.inverse_twiddles);
    Testbench { chip, vectors, fwd, inv }
}

#[test]
fn polynomial_multiplication_against_golden_product() {
    let n = 1 << 10;
    let mut tb = testbench(n, 109, 1);
    let a = Slot::new(BankId(0), 0);
    let b = Slot::new(BankId(2), 0);
    let tmp = Slot::new(BankId(1), 0);
    tb.chip.write_polynomial(a, &tb.vectors.a).unwrap();
    tb.chip.write_polynomial(b, &tb.vectors.b).unwrap();

    // NTT(a): 0→1, NTT(b): 2→0, Hadamard: →2, iNTT: →1.
    tb.chip.submit(Command::ntt(a, tb.fwd, tmp)).unwrap();
    tb.chip.submit(Command::ntt(b, tb.fwd, a)).unwrap();
    tb.chip.submit(Command::pmodmul(tmp, a, b)).unwrap();
    tb.chip.submit(Command::intt(b, tb.inv, tmp)).unwrap();
    tb.chip.drain_fifo().unwrap();

    assert_eq!(
        tb.chip.read_polynomial(tmp, n).unwrap(),
        tb.vectors.product,
        "chip product differs from the golden naive product"
    );
}

#[test]
fn pointwise_commands_against_golden_sums() {
    let n = 1 << 8;
    let mut tb = testbench(n, 60, 2);
    let a = Slot::new(BankId(0), 0);
    let b = Slot::new(BankId(1), 0);
    let out = Slot::new(BankId(2), 0);
    tb.chip.write_polynomial(a, &tb.vectors.a).unwrap();
    tb.chip.write_polynomial(b, &tb.vectors.b).unwrap();

    tb.chip.execute_now(Command::pmodadd(a, b, out)).unwrap();
    assert_eq!(tb.chip.read_polynomial(out, n).unwrap(), tb.vectors.sum);

    tb.chip.execute_now(Command::pmodsub(a, b, out)).unwrap();
    assert_eq!(tb.chip.read_polynomial(out, n).unwrap(), tb.vectors.difference);
}

#[test]
fn fpga_scaled_configuration_matches_silicon_functionally() {
    // Section III-J: the FPGA build is a scaled-down n = 2^12 at 10 MHz;
    // results must be bit-identical to silicon, only timing differs.
    let n = 1 << 8;
    let mut rng = StdRng::seed_from_u64(3);
    let vectors = GoldenVectors::generate(n, 60, &mut rng).unwrap();
    let ring = Barrett128::new(vectors.q).unwrap();

    let run = |config: ChipConfig| -> (Vec<u128>, f64) {
        let mut chip = Chip::new(config).unwrap();
        let (fwd, _) = chip.load_ring(&ring, n).unwrap();
        let x = Slot::new(BankId(0), 0);
        let y = Slot::new(BankId(1), 0);
        chip.write_polynomial(x, &vectors.a).unwrap();
        chip.execute_now(Command::ntt(x, fwd, y)).unwrap();
        (chip.read_polynomial(y, n).unwrap(), chip.elapsed_seconds())
    };

    let (asic_out, asic_time) = run(ChipConfig::silicon());
    let (fpga_out, fpga_time) = run(ChipConfig::fpga_nexys4());
    assert_eq!(asic_out, fpga_out, "same RTL, same results");
    // 250 MHz vs 10 MHz.
    let ratio = fpga_time / asic_time;
    assert!((ratio - 25.0).abs() < 1e-6, "clock ratio {ratio}");
}

#[test]
fn random_stimulus_regression_across_seeds() {
    // Several independent seeds — the "random coefficient values modulo
    // q" sweep of the verification flow.
    for seed in 10..15 {
        let n = 1 << 6;
        let mut tb = testbench(n, 54, seed);
        let a = Slot::new(BankId(0), 0);
        let b = Slot::new(BankId(2), 0);
        let tmp = Slot::new(BankId(1), 0);
        tb.chip.write_polynomial(a, &tb.vectors.a).unwrap();
        tb.chip.write_polynomial(b, &tb.vectors.b).unwrap();
        tb.chip.submit(Command::ntt(a, tb.fwd, tmp)).unwrap();
        tb.chip.submit(Command::ntt(b, tb.fwd, a)).unwrap();
        tb.chip.submit(Command::pmodmul(tmp, a, b)).unwrap();
        tb.chip.submit(Command::intt(b, tb.inv, tmp)).unwrap();
        tb.chip.drain_fifo().unwrap();
        assert_eq!(tb.chip.read_polynomial(tmp, n).unwrap(), tb.vectors.product, "seed {seed}");
    }
}
