//! Property-based tests for the chip simulator: command wire-format
//! round trips, chip-vs-oracle agreement on random stimulus, MEMCPYR
//! involution, and cycle-model monotonicity.

use cofhee_arith::{Barrett128, ModRing};
use cofhee_poly::{naive, ntt, ntt::NttTables};
use cofhee_sim::{BankId, Chip, Command, Slot, COMMAND_WORDS};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const Q109: u128 = 324518553658426726783156020805633;
const N: usize = 64;

fn poly_strategy() -> impl Strategy<Value = Vec<u128>> {
    pvec(0..Q109, N)
}

fn chip_with_ring() -> (Chip, Barrett128, Slot, Slot) {
    let mut chip = Chip::silicon().unwrap();
    let ring = Barrett128::new(Q109).unwrap();
    let (fwd, inv) = chip.load_ring(&ring, N).unwrap();
    (chip, ring, fwd, inv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chip_ntt_round_trip_on_random_polynomials(poly in poly_strategy()) {
        let (mut chip, _, fwd, inv) = chip_with_ring();
        let x = Slot::new(BankId(0), 0);
        let y = Slot::new(BankId(1), 0);
        chip.write_polynomial(x, &poly).unwrap();
        chip.execute_now(Command::ntt(x, fwd, y)).unwrap();
        chip.execute_now(Command::intt(y, inv, x)).unwrap();
        prop_assert_eq!(chip.read_polynomial(x, N).unwrap(), poly);
    }

    #[test]
    fn chip_polymul_matches_naive(a in poly_strategy(), b in poly_strategy()) {
        let (mut chip, ring, fwd, inv) = chip_with_ring();
        let sa = Slot::new(BankId(0), 0);
        let sb = Slot::new(BankId(2), 0);
        let tmp = Slot::new(BankId(1), 0);
        chip.write_polynomial(sa, &a).unwrap();
        chip.write_polynomial(sb, &b).unwrap();
        chip.submit(Command::ntt(sa, fwd, tmp)).unwrap();
        chip.submit(Command::ntt(sb, fwd, sa)).unwrap();
        chip.submit(Command::pmodmul(tmp, sa, sb)).unwrap();
        chip.submit(Command::intt(sb, inv, tmp)).unwrap();
        chip.drain_fifo().unwrap();
        let expect = naive::negacyclic_mul(&ring, &a, &b).unwrap();
        prop_assert_eq!(chip.read_polynomial(tmp, N).unwrap(), expect);
    }

    #[test]
    fn chip_pointwise_matches_ring_ops(a in poly_strategy(), b in poly_strategy()) {
        let (mut chip, ring, _, _) = chip_with_ring();
        let sa = Slot::new(BankId(0), 0);
        let sb = Slot::new(BankId(1), 0);
        let out = Slot::new(BankId(2), 0);
        chip.write_polynomial(sa, &a).unwrap();
        chip.write_polynomial(sb, &b).unwrap();
        chip.execute_now(Command::pmodadd(sa, sb, out)).unwrap();
        let sum: Vec<u128> = a.iter().zip(&b).map(|(&x, &y)| ring.add(x, y)).collect();
        prop_assert_eq!(chip.read_polynomial(out, N).unwrap(), sum);
        chip.execute_now(Command::pmodmul(sa, sb, out)).unwrap();
        let prod: Vec<u128> = a.iter().zip(&b).map(|(&x, &y)| ring.mul(x, y)).collect();
        prop_assert_eq!(chip.read_polynomial(out, N).unwrap(), prod);
    }

    #[test]
    fn memcpyr_twice_is_identity(data in poly_strategy()) {
        let (mut chip, _, _, _) = chip_with_ring();
        let a = Slot::new(BankId(5), 0);
        let b = Slot::new(BankId(6), 0);
        chip.write_polynomial(a, &data).unwrap();
        chip.execute_now(Command::memcpyr(a, b, N)).unwrap();
        chip.execute_now(Command::memcpyr(b, a, N)).unwrap();
        prop_assert_eq!(chip.read_polynomial(a, N).unwrap(), data);
    }

    #[test]
    fn command_wire_format_round_trips(
        op_idx in 0usize..10,
        bank_x in 0usize..8,
        bank_y in 0usize..8,
        off in 0usize..4096,
        len in 1usize..8192,
        constant in any::<u128>(),
    ) {
        let s = |b: usize| Slot::new(BankId(b), off);
        let cmd = match op_idx {
            0 => Command::ntt(s(bank_x), s(bank_y), s(0)),
            1 => Command::intt(s(bank_x), s(bank_y), s(0)),
            2 => Command::pmodadd(s(bank_x), s(bank_y), s(1)),
            3 => Command::pmodmul(s(bank_x), s(bank_y), s(1)),
            4 => Command::pmodsqr(s(bank_x), s(1)),
            5 => Command::pmodsub(s(bank_x), s(bank_y), s(1)),
            6 => Command::cmodmul(s(bank_x), constant, s(1)),
            7 => Command::pmul(s(bank_x), s(bank_y), s(1)),
            8 => Command::memcpy(s(bank_x), s(bank_y), len),
            _ => Command::memcpyr(s(bank_x), s(bank_y), len.next_power_of_two()),
        };
        let words: [u32; COMMAND_WORDS] = cmd.encode();
        let back = Command::decode(&words).unwrap();
        prop_assert_eq!(back, cmd);
    }
}

#[test]
fn cycle_model_is_monotone_in_n() {
    // Larger polynomials never get cheaper, for every compute opcode.
    let ring = Barrett128::new(Q109).unwrap();
    let mut last_ntt = 0;
    let mut last_pass = 0;
    for log_n in [6u32, 8, 10, 12] {
        let n = 1usize << log_n;
        let mut chip = Chip::silicon().unwrap();
        let (fwd, _) = chip.load_ring(&ring, n).unwrap();
        let x = Slot::new(BankId(0), 0);
        let y = Slot::new(BankId(1), 0);
        let poly: Vec<u128> = (0..n as u128).collect();
        chip.write_polynomial(x, &poly).unwrap();
        let ntt_c = chip.execute_now(Command::ntt(x, fwd, y)).unwrap().cycles;
        let pass_c =
            chip.execute_now(Command::pmodadd(x, y, Slot::new(BankId(2), 0))).unwrap().cycles;
        assert!(ntt_c > last_ntt, "NTT cycles must grow with n");
        assert!(pass_c > last_pass, "pass cycles must grow with n");
        last_ntt = ntt_c;
        last_pass = pass_c;
    }
}

#[test]
fn chip_agrees_with_software_ntt_on_dense_sweep() {
    // Deterministic sweep complementing the random cases: every power of
    // two from 4 to 512.
    let ring = Barrett128::new(Q109).unwrap();
    for log_n in 2u32..=9 {
        let n = 1usize << log_n;
        let mut chip = Chip::silicon().unwrap();
        let (fwd, _) = chip.load_ring(&ring, n).unwrap();
        let tables = NttTables::new(&ring, n).unwrap();
        let poly: Vec<u128> = (0..n as u128).map(|i| (i * i + 7) % Q109).collect();
        let x = Slot::new(BankId(0), 0);
        let y = Slot::new(BankId(1), 0);
        chip.write_polynomial(x, &poly).unwrap();
        chip.execute_now(Command::ntt(x, fwd, y)).unwrap();
        let mut expect = poly;
        ntt::forward_inplace(&ring, &mut expect, &tables).unwrap();
        assert_eq!(chip.read_polynomial(y, n).unwrap(), expect, "n = {n}");
    }
}
