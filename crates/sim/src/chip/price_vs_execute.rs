//! Differential test: price, then apply ≡ execute.
//!
//! [`Chip::price_fifo`] drains the FIFO on timing alone and hands the
//! commands over; applying them in that order must leave the chip where
//! [`Chip::drain_fifo`] leaves it. Random command lists — every opcode,
//! `MEMCPYR` of every length, sources sharing a bank, destinations on
//! their sources and on the twiddle banks, compute/DMA bank conflicts,
//! twiddle port conflicts, ranges past a bank's end, lists several FIFOs
//! long — run on two chips brought up alike: one executes, one prices
//! and then applies. Each drain's compute tally is also checked against
//! [`Chip::price`] of its compute commands on a third chip.

#![cfg(test)]

use cofhee_arith::primes::ntt_prime;

use super::fast_vs_faithful::{seed_banks, state};
use super::*;
use crate::FIFO_DEPTH;

/// xorshift64*: a reproducible command generator without a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, k: usize) -> usize {
        (self.next() % k as u64) as usize
    }
}

/// One random command over `n`-word operands. Slots are the first two
/// polynomials of any bank, mostly; now and then half a polynomial in
/// (overlapping its neighbours) or one word short of fitting the bank.
/// `PMUL` leaves raw products, which no modular command may read, so it
/// writes a slot nothing else names.
fn command(rng: &mut Rng, n: usize, words: usize, twiddles: [Slot; 2], q: u128) -> Command {
    let slot = |rng: &mut Rng| {
        let bank = BankId(rng.below(8));
        match rng.below(16) {
            0 => Slot::new(bank, words - n + 1),
            1 | 2 => Slot::new(bank, n / 2),
            _ => Slot::new(bank, rng.below(2) * n),
        }
    };
    let (x, y, dst) = (slot(rng), slot(rng), slot(rng));
    // The loaded table, or anything at all (a port conflict when it
    // shares a bank with an operand).
    let table = |rng: &mut Rng, i: usize| if rng.below(4) > 0 { twiddles[i] } else { slot(rng) };
    match rng.below(10) {
        0 => Command::ntt(x, table(rng, 0), dst),
        1 => Command::intt(x, table(rng, 1), dst),
        2 => Command::pmodadd(x, y, dst),
        3 => Command::pmodsub(x, y, dst),
        4 => Command::pmodmul(x, if rng.below(4) == 0 { x } else { y }, dst),
        5 => Command::pmul(x, y, Slot::new(BankId(7), 2 * n)),
        6 => Command::pmodsqr(x, dst),
        7 => Command::cmodmul(x, u128::from(rng.next()) % q, dst),
        8 => Command::memcpy(x, if rng.below(4) == 0 { x } else { dst }, n),
        _ => Command::memcpyr(x, dst, [n, n / 2, n - 3][rng.below(3)]),
    }
}

#[test]
fn pricing_then_applying_is_executing() {
    let n = 1 << 6;
    for (bits, seed) in [(47u32, 1u64), (47, 2), (109, 3), (109, 4)] {
        let q = ntt_prime(bits, n).unwrap();
        // Both brought up on the plan, so both compute on the fast paths.
        let plan = TwiddleCache::barrett128(q, n).unwrap();
        let mut chips = [Chip::silicon().unwrap(), Chip::silicon().unwrap()];
        let (fwd, inv) = chips[0].load_plan(&plan).unwrap();
        chips[1].load_plan(&plan).unwrap();
        seed_banks(&mut chips, q, n);
        // Prices each drained command alone; no clock of it is read.
        let mut single = Chip::silicon().unwrap();
        single.load_plan(&plan).unwrap();
        let words = chips[0].config.bank_words;
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut failures = 0;
        for batch in 0..40 {
            let len = 1 + rng.below(FIFO_DEPTH);
            let list: Vec<Command> =
                (0..len).map(|_| command(&mut rng, n, words, [fwd, inv], q)).collect();
            let [executed, priced] = &mut chips;
            for &cmd in &list {
                executed.submit(cmd).unwrap();
                priced.submit(cmd).unwrap();
            }
            // A failing command ends its drain; the rest stay queued for
            // the next one, on both chips alike.
            let mut queued = &list[..];
            loop {
                let before = state(priced);
                let mut handed = Vec::new();
                let drained = executed.drain_fifo();
                let timed = priced.price_fifo(|cmd| handed.push(cmd));
                assert_eq!(timed, drained, "batch {batch}");
                assert!(state(priced).banks == before.banks, "batch {batch}: pricing wrote");
                assert_eq!(handed, queued[..handed.len()], "batch {batch}");
                if let Ok(drained) = drained {
                    let compute: u64 = handed
                        .iter()
                        .filter(|cmd| !cmd.op.is_memory_op())
                        .map(|&cmd| single.price(cmd).unwrap().cycles)
                        .sum();
                    assert_eq!(drained.compute_cycles, compute, "batch {batch}");
                }
                for cmd in &handed {
                    priced.apply(cmd).unwrap();
                }
                assert_eq!(state(priced), state(executed), "batch {batch}");
                assert_eq!(priced.take_interrupt(), executed.take_interrupt(), "batch {batch}");
                if drained.is_ok() {
                    assert_eq!(handed.len(), queued.len(), "batch {batch}");
                    break;
                }
                failures += 1;
                queued = &queued[handed.len() + 1..];
            }
        }
        assert!(failures > 0, "{bits}-bit q, seed {seed}: no command failed");
    }
}
