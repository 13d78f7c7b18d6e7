//! Workspace smoke test: every `cofhee::*` re-export in `src/lib.rs`
//! resolves, and one representative operation per member crate runs.
//! This is the tripwire behind the CI pipeline — if a crate's public
//! surface or a cross-crate seam breaks, it fails here first.

use cofhee::adpll::Adpll;
use cofhee::apps::Workload;
use cofhee::arith::{primes::ntt_prime, Barrett64, ModRing};
use cofhee::bfv::{BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::core::{Device, ExecutionMode};
use cofhee::physical::{ComparisonTable, PartCatalogue, TechScaling};
use cofhee::poly::{naive, ntt, ntt::NttTables};
use cofhee::sim::{BankId, Chip, ChipConfig, Command, Slot};
use rand::rngs::StdRng;
use rand::SeedableRng;

const Q109: u128 = 324518553658426726783156020805633;

#[test]
fn arith_barrett_ring_multiplies() {
    let n = 1 << 6;
    let q = ntt_prime(55, n).unwrap() as u64;
    let ring = Barrett64::new(q).unwrap();
    let prod = ring.mul(ring.from_u128(12345), ring.from_u128(67890));
    assert_eq!(ring.to_u128(prod), (12345u128 * 67890) % q as u128);
}

#[test]
fn poly_ntt_round_trips_and_matches_naive() {
    let n = 64;
    let q = ntt_prime(55, n).unwrap() as u64;
    let ring = Barrett64::new(q).unwrap();
    let tables = NttTables::new(&ring, n).unwrap();
    let a: Vec<u64> = (0..n as u64).collect();
    let b: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 1) % q).collect();

    let mut t = a.clone();
    ntt::forward_inplace(&ring, &mut t, &tables).unwrap();
    ntt::inverse_inplace(&ring, &mut t, &tables).unwrap();
    assert_eq!(t, a, "NTT round trip");

    let fast = ntt::negacyclic_mul(&ring, &a, &b, &tables).unwrap();
    let slow = naive::negacyclic_mul(&ring, &a, &b).unwrap();
    assert_eq!(fast, slow, "convolution theorem");
}

#[test]
fn bfv_encrypt_multiply_decrypt() {
    let params = BfvParams::insecure_testing(64).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let keygen = KeyGenerator::new(&params, &mut rng);
    let pk = keygen.public_key(&mut rng).unwrap();
    let rlk = keygen.relin_key(16, &mut rng).unwrap();

    let enc = Encryptor::new(&params, pk);
    let dec = Decryptor::new(&params, keygen.secret_key().clone());
    let eval = Evaluator::new(&params).unwrap();

    let a = enc.encrypt(&Plaintext::constant(&params, 6).unwrap(), &mut rng).unwrap();
    let b = enc.encrypt(&Plaintext::constant(&params, 7).unwrap(), &mut rng).unwrap();
    let product = eval.relinearize(&eval.multiply(&a, &b).unwrap(), &rlk).unwrap();
    assert_eq!(dec.decrypt(&product).unwrap().coeffs()[0], 42);
}

#[test]
fn ckks_encrypt_multiply_decrypt_approximately() {
    use cofhee::ckks::{
        CkksDecryptor, CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator, CkksParams,
    };
    let params = CkksParams::insecure_testing(64).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let kg = CkksKeyGenerator::new(&params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let pk = kg.public_key(&sk, &mut rng).unwrap();
    let rlk = kg.relin_key(&sk, &mut rng).unwrap();

    let encoder = CkksEncoder::new(&params);
    let enc = CkksEncryptor::new(&params, pk);
    let dec = CkksDecryptor::new(&params, sk);
    let eval = CkksEvaluator::new(&params).unwrap();

    let a = enc.encrypt(&encoder.encode(&[1.5, -2.0]).unwrap(), &mut rng).unwrap();
    let b = enc.encrypt(&encoder.encode(&[4.0, 0.5]).unwrap(), &mut rng).unwrap();
    let prod = eval.multiply_relin_rescale(&a, &b, &rlk).unwrap();
    let got = encoder.decode(&dec.decrypt(&prod).unwrap()).unwrap();
    assert!((got[0] - 6.0).abs() < 1e-3 && (got[1] + 1.0).abs() < 1e-3, "{got:?}");
}

#[test]
fn sim_chip_dispatches_one_command() {
    let n = 1 << 6;
    let mut chip = Chip::silicon().unwrap();
    let ring = cofhee::arith::Barrett128::new(Q109).unwrap();
    let (fwd, _inv) = chip.load_ring(&ring, n).unwrap();
    let x = Slot::new(BankId(0), 0);
    let y = Slot::new(BankId(1), 0);
    let poly: Vec<u128> = (0..n as u128).collect();
    chip.write_polynomial(x, &poly).unwrap();
    chip.submit(Command::ntt(x, fwd, y)).unwrap();
    let report = chip.run_until_idle().unwrap();
    assert!(report.cycles > 0, "command consumed cycles");
}

#[test]
fn core_device_runs_algorithm2_polymul() {
    let n = 1 << 6;
    let q = ntt_prime(109, n).unwrap();
    let mut device = Device::connect(ChipConfig::silicon(), q, n).unwrap();
    let a: Vec<u128> = (0..n as u128).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| i + 7).collect();
    let schedule = device.poly_mul_schedule();
    let product = device.run(&schedule, &[&a, &b], ExecutionMode::CommandFifo).unwrap();
    assert_eq!(product.outputs[0].len(), n);
    assert!(product.compute_cycles > 0);
}

#[test]
fn adpll_locks_at_250mhz() {
    let mut pll = Adpll::cofhee_250mhz();
    let transient = pll.run_to_lock(2_000);
    assert!(pll.locked());
    assert!((pll.frequency_hz() - 250.0e6).abs() / 250.0e6 < 0.01);
    assert!(!transient.is_empty());
}

#[test]
fn physical_tables_derive_efficiency() {
    let table = ComparisonTable::table11();
    let eff = table.derive_cofhee_efficiency(&PartCatalogue::cofhee(), &TechScaling::gf55_to_7nm());
    assert!(eff > 0.0);
}

#[test]
fn apps_workloads_report_op_mixes() {
    let cn = Workload::cryptonets();
    let lr = Workload::logistic_regression();
    assert!(cn.total_ops() > 0);
    assert!(lr.total_ops() > 0);
    assert!(cn.mul_relin_fraction() > 0.0 && cn.mul_relin_fraction() < 1.0);
}
