//! Differential test: fast ≡ faithful.
//!
//! A chip brought up with [`Chip::load_plan`] computes on the plan-backed,
//! in-place paths — at word width when the modulus allows — while one
//! brought up with [`Chip::load_ring`] runs the per-butterfly loop on the
//! `Q` register's ring, the in-tree 128-bit reference. The same commands
//! on both must leave the same words in every bank and the same numbers
//! in every report and clock: the fast paths are a host matter only.

#![cfg(test)]

use cofhee_arith::primes::ntt_prime;
use cofhee_arith::roots::RootSet;
use cofhee_arith::{Barrett128, ModRing};
use cofhee_poly::ntt::{self, NttTables};

use super::*;
use crate::commands::Opcode;

/// Everything a command can change, word for word.
#[derive(Debug, PartialEq)]
pub(super) struct State {
    pub(super) banks: Vec<Vec<u128>>,
    elapsed: u64,
}

pub(super) fn state(chip: &Chip) -> State {
    let words = chip.config.bank_words;
    State {
        banks: (0..chip.mem.bank_count())
            .map(|b| chip.mem.read_slice(Slot::new(BankId(b), 0), words).unwrap())
            .collect(),
        elapsed: chip.elapsed_cycles(),
    }
}

/// The fast chip, the faithful chip, and the twiddle slots both use.
pub(super) fn pair(q: u128, n: usize) -> ([Chip; 2], Slot, Slot) {
    let plan = TwiddleCache::barrett128(q, n).unwrap();
    let mut fast = Chip::silicon().unwrap();
    let slots = fast.load_plan(&plan).unwrap();
    let mut faithful = Chip::silicon().unwrap();
    assert_eq!(faithful.load_ring(&Barrett128::new(q).unwrap(), n).unwrap(), slots);
    ([fast, faithful], slots.0, slots.1)
}

fn residues(q: u128, n: usize, seed: u128) -> Vec<u128> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x2545f491);
            state % q
        })
        .collect()
}

/// What a streamed pass or a DMA command must write, worked out one
/// element at a time on the loaded `Barrett128` from the banks as they
/// were before the command. (Both chips run the same in-place code for
/// these commands, so the reference is here. Transforms have theirs in
/// the faithful chip.)
fn reference(cmd: &Command, banks: &[Vec<u128>], q: u128, n: usize) -> Option<Vec<u128>> {
    let ring = Barrett128::new(q).unwrap();
    let read = |slot: Slot, len: usize| &banks[slot.bank.0][slot.offset..slot.offset + len];
    let x = read(cmd.x, cmd.len.unwrap_or(n));
    let binary = |f: &dyn Fn(u128, u128) -> u128| {
        let y = read(cmd.y.unwrap_or(cmd.x), n);
        x.iter().zip(y).map(|(&a, &b)| f(a, b)).collect::<Vec<u128>>()
    };
    let out = match cmd.op {
        Opcode::Ntt | Opcode::Intt => return None,
        Opcode::PModAdd => binary(&|a, b| ring.add(a, b)),
        Opcode::PModSub => binary(&|a, b| ring.sub(a, b)),
        Opcode::PModMul | Opcode::PModSqr => binary(&|a, b| ring.mul(a, b)),
        Opcode::PMul => binary(&|a, b| a.wrapping_mul(b)),
        Opcode::CModMul => binary(&|a, _| ring.mul(a, cmd.constant.unwrap())),
        Opcode::MemCpy => x.to_vec(),
        Opcode::MemCpyR => {
            let bits = x.len().trailing_zeros();
            let mut out = vec![0; x.len()];
            for (i, &v) in x.iter().enumerate() {
                out[cofhee_poly::bitrev::bit_reverse(i, bits)] = v;
            }
            out
        }
    };
    Some(out)
}

/// Runs `program` on every chip and checks each command's outcome and the
/// state it leaves against the first chip's — and, for the commands that
/// have one, against the per-element [`reference`].
pub(super) fn in_lockstep(chips: &mut [Chip], program: &[Command]) {
    let (q, n) = (chips[0].gpcfg.q(), chips[0].gpcfg.n());
    for (step, cmd) in program.iter().enumerate() {
        let before = state(&chips[0]);
        let outcomes: Vec<_> = chips.iter_mut().map(|c| c.execute_now(*cmd)).collect();
        let after = state(&chips[0]);
        for (i, chip) in chips.iter().enumerate().skip(1) {
            assert_eq!(outcomes[i], outcomes[0], "step {step}: {cmd:?}");
            assert_eq!(state(chip), after, "step {step}: {cmd:?}");
        }
        if let Some(written) = reference(cmd, &before.banks, q, n) {
            let mut expect = before.banks;
            expect[cmd.dst.bank.0][cmd.dst.offset..][..written.len()].copy_from_slice(&written);
            assert!(after.banks == expect, "step {step}: {cmd:?} wrote the wrong words");
        }
    }
}

/// Every opcode, and every way a destination can lie on its sources.
/// Banks 3 and 4 hold the twiddle tables; slot `(b, k)` is the `k`-th
/// polynomial of bank `b`.
fn program(n: usize, fwd: Slot, inv: Slot, c: u128) -> Vec<Command> {
    let s = |bank: usize, k: usize| Slot::new(BankId(bank), k * n);
    let half = Slot::new(BankId(5), n / 2);
    vec![
        // Transforms: II = 1 across dual-port banks; II = 2 within one
        // bank (next slot, overlapping range, same slot); single-port.
        Command::ntt(s(0, 0), fwd, s(1, 0)),
        Command::ntt(s(0, 0), fwd, s(0, 1)),
        Command::ntt(s(1, 1), fwd, Slot::new(BankId(1), n / 2)),
        Command::ntt(s(2, 0), fwd, s(2, 0)),
        Command::ntt(s(5, 0), fwd, s(6, 0)),
        Command::intt(s(1, 0), inv, s(2, 1)),
        Command::intt(s(0, 1), inv, s(0, 0)),
        Command::intt(s(2, 0), inv, s(2, 0)),
        // Two-input passes: elsewhere, onto the first source, onto the
        // second, one slot for all three, two slots of one bank.
        Command::pmodadd(s(0, 0), s(1, 0), s(2, 0)),
        Command::pmodadd(s(0, 0), s(1, 0), s(0, 0)),
        Command::pmodsub(s(0, 0), s(1, 0), s(1, 0)),
        Command::pmodsub(s(2, 0), s(2, 1), s(5, 0)),
        Command::pmodmul(s(0, 0), s(1, 0), s(2, 0)),
        Command::pmodmul(s(0, 0), s(1, 0), s(0, 0)),
        Command::pmodmul(s(0, 0), s(1, 0), s(1, 0)),
        Command::pmodmul(s(2, 0), s(2, 0), s(2, 0)),
        Command::pmodmul(s(6, 0), s(6, 1), s(6, 0)),
        Command::pmul(s(0, 0), s(1, 0), s(7, 0)),
        Command::pmul(s(0, 0), s(0, 1), s(0, 1)),
        // One-input passes, elsewhere and in place.
        Command::pmodsqr(s(1, 0), s(2, 1)),
        Command::pmodsqr(s(1, 0), s(1, 0)),
        Command::cmodmul(s(2, 0), c, s(0, 0)),
        Command::cmodmul(s(2, 0), c, s(2, 0)),
        Command::cmodmul(s(5, 0), 0, s(5, 1)),
        // DMA: across banks, overlapping either way, the `src == dst`
        // touch, and the bit-reversed copy.
        Command::memcpy(s(0, 0), s(5, 0), n),
        Command::memcpy(s(5, 0), half, n),
        Command::memcpy(half, s(5, 0), n),
        Command::memcpy(s(6, 0), s(6, 0), n),
        Command::memcpyr(s(1, 0), s(7, 1), n),
        Command::memcpyr(s(7, 1), s(7, 1), n),
    ]
}

/// Fills two slots of every data bank with canonical residues.
pub(super) fn seed_banks(chips: &mut [Chip], q: u128, n: usize) {
    for (i, bank) in [0usize, 1, 2, 5, 6, 7].into_iter().enumerate() {
        for k in 0..2 {
            let poly = residues(q, n, (2 * i + k) as u128 + 7);
            for chip in chips.iter_mut() {
                chip.write_polynomial(Slot::new(BankId(bank), k * n), &poly).unwrap();
            }
        }
    }
}

#[test]
fn every_opcode_and_aliasing_agrees_at_every_width() {
    // 47, 60 and just under 62 bits compute narrow; 63 and 109 wide.
    for (bits, word_sized) in [(47u32, true), (60, true), (62, true), (63, false), (109, false)] {
        for n in [1usize << 6, 1 << 12] {
            let q = ntt_prime(bits, n).unwrap();
            let (mut chips, fwd, inv) = pair(q, n);
            assert_eq!(chips[0].mdmc.computes_narrow(), word_sized, "{bits}-bit q");
            assert!(!chips[1].mdmc.computes_narrow(), "load_ring installs no plan");
            seed_banks(&mut chips, q, n);
            in_lockstep(&mut chips, &program(n, fwd, inv, q - 12345));

            // The same through the FIFO: the drain's report, its serial
            // and compute tallies from `drain_fifo`.
            seed_banks(&mut chips, q, n);
            let drains: Vec<_> = chips
                .iter_mut()
                .map(|chip| {
                    for cmd in program(n, fwd, inv, 3) {
                        chip.submit(cmd).unwrap();
                    }
                    chip.drain_fifo().unwrap()
                })
                .collect();
            assert_eq!(drains[0], drains[1], "{bits}-bit q, n = {n}");
            assert_eq!(state(&chips[0]), state(&chips[1]), "{bits}-bit q, n = {n}");
        }
    }
}

#[test]
fn an_overwritten_twiddle_bank_falls_back_to_the_faithful_loop() {
    let n = 1 << 6;
    for bits in [47u32, 109] {
        let q = ntt_prime(bits, n).unwrap();
        let ring = Barrett128::new(q).unwrap();
        // A different primitive 2n-th root: valid tables, not the plan's.
        let psi = ring.pow(RootSet::new(&ring, n).unwrap().psi, 3);
        let psi_inv = ring.inv(psi).unwrap();
        let roots = RootSet {
            psi,
            psi_inv,
            omega: ring.sqr(psi),
            omega_inv: ring.sqr(psi_inv),
            ..RootSet::new(&ring, n).unwrap()
        };
        let custom = NttTables::from_roots(&ring, &roots);

        let (mut chips, fwd, inv) = pair(q, n);
        let poly = residues(q, n, 99);
        let (x, mid, back) =
            (Slot::new(BankId(0), 0), Slot::new(BankId(1), 0), Slot::new(BankId(2), 0));
        for chip in chips.iter_mut() {
            chip.write_polynomial(fwd, custom.forward_twiddles()).unwrap();
            chip.write_polynomial(inv, custom.inverse_twiddles()).unwrap();
            chip.write_polynomial(x, &poly).unwrap();
        }
        in_lockstep(&mut chips, &[Command::ntt(x, fwd, mid), Command::intt(mid, inv, back)]);
        let mut expect = poly.clone();
        ntt::forward_inplace(&ring, &mut expect, &custom).unwrap();
        assert_eq!(chips[0].read_polynomial(mid, n).unwrap(), expect, "{bits}-bit q");
        assert_eq!(chips[0].read_polynomial(back, n).unwrap(), poly, "{bits}-bit q");
    }
}

/// Every path that writes a bank moves its write generation, so a
/// twiddle bank written any way at all — by the host, over the bus, or
/// as a command's destination — ends the plan-backed path for the
/// transforms that read it: they compute what the faithful chip
/// computes with the table as it now is.
#[test]
fn every_write_to_a_twiddle_bank_falls_back_to_the_faithful_loop() {
    let n = 1 << 6;
    let s = |bank: usize, k: usize| Slot::new(BankId(bank), k * n);
    // Table word 1, one less: still a residue, no longer the plan's.
    let lowered = |chip: &Chip, table: Slot| chip.mem.read_word(table, 1).unwrap() - 1;
    type Write = fn(&mut Chip, Slot, Slot, u128);
    let direct: [(&str, Write); 3] = [
        ("write_slice", |chip, fwd, _, word| {
            chip.write_polynomial(Slot::new(fwd.bank, fwd.offset + 1), &[word]).unwrap();
        }),
        ("slice_mut", |chip, fwd, _, word| chip.polynomial_mut(fwd, 2).unwrap()[1] = word),
        ("bus", |chip, fwd, _, word| {
            let base = chip.mem.bank(fwd.bank).unwrap().base_a() + 16 * (fwd.offset as u32 + 1);
            for lane in 0..4u32 {
                chip.bus_write_u32(base + 4 * lane, (word >> (32 * lane)) as u32).unwrap();
            }
        }),
    ];
    for bits in [47u32, 109] {
        let q = ntt_prime(bits, n).unwrap();
        let (_, fwd, inv) = pair(q, n);
        let transforms =
            [Command::ntt(s(0, 0), fwd, s(1, 0)), Command::intt(s(1, 0), inv, s(2, 0))];
        let commands = [
            ("memmove across banks", Command::memcpy(s(5, 0), fwd, n)),
            ("memmove within the bank", Command::memcpy(Slot::new(fwd.bank, 1), fwd, n)),
            ("split", Command::pmodadd(s(0, 0), s(1, 0), fwd)),
            ("split, multiplying", Command::pmodmul(s(0, 0), s(1, 0), fwd)),
            ("staged", Command::pmodadd(fwd, s(1, 0), fwd)),
            ("transform destination", Command::ntt(s(0, 0), fwd, inv)),
        ];
        for (path, write) in direct {
            let (mut chips, _, _) = pair(q, n);
            seed_banks(&mut chips, q, n);
            for chip in chips.iter_mut() {
                let word = lowered(chip, fwd);
                write(chip, fwd, inv, word);
            }
            assert_eq!(state(&chips[0]), state(&chips[1]), "{path}");
            in_lockstep(&mut chips, &transforms);
        }
        for (path, cmd) in commands {
            let (mut chips, _, _) = pair(q, n);
            seed_banks(&mut chips, q, n);
            let before = chips[0].mem.read_slice(cmd.dst, n).unwrap();
            in_lockstep(&mut chips, &[cmd]);
            assert_ne!(chips[0].mem.read_slice(cmd.dst, n).unwrap(), before, "{path}");
            in_lockstep(&mut chips, &transforms);
        }
    }
}

#[test]
fn an_out_of_range_destination_fails_the_same_way_and_writes_nothing() {
    let n = 1 << 6;
    for bits in [47u32, 109] {
        let q = ntt_prime(bits, n).unwrap();
        let (mut chips, fwd, inv) = pair(q, n);
        seed_banks(&mut chips, q, n);
        let words = chips[0].config.bank_words;
        let (x, y) = (Slot::new(BankId(0), 0), Slot::new(BankId(1), 0));
        for bank in [2usize, 0] {
            // One word short of fitting, in another bank and in x's own.
            let dst = Slot::new(BankId(bank), words - n + 1);
            let before = state(&chips[0]);
            for cmd in [
                Command::ntt(x, fwd, dst),
                Command::intt(x, inv, dst),
                Command::pmodadd(x, y, dst),
                Command::pmodmul(x, y, dst),
                Command::pmul(x, y, dst),
                Command::pmodsqr(x, dst),
                Command::cmodmul(x, 5, dst),
                Command::memcpy(x, dst, n),
                Command::memcpyr(x, dst, n),
            ] {
                for chip in chips.iter_mut() {
                    assert_eq!(
                        chip.execute_now(cmd),
                        Err(SimError::OutOfBounds {
                            bank: chip.mem.bank(dst.bank).unwrap().name(),
                            word: words,
                            capacity: words,
                        }),
                        "{cmd:?}"
                    );
                    assert_eq!(state(chip), before, "{cmd:?} touched the chip");
                }
            }
        }
    }
}

/// SRAM written through the backdoor is not reduced. Under a word-sized
/// modulus, a source word `≥ q` — or one that does not even fit 64 bits —
/// sends the command down the 128-bit path, so the chip computes whatever
/// a chip without the narrow kernel computes. (The 128-bit arithmetic
/// `debug_assert!`s its operands canonical, so only a build without debug
/// assertions — CI's release-mode run — gets this far.)
#[cfg(not(debug_assertions))]
#[test]
fn non_canonical_words_compute_what_the_wide_path_computes() {
    let n = 1 << 6;
    let q = ntt_prime(47, n).unwrap();
    let plan = TwiddleCache::barrett128(q, n).unwrap();
    let (chips, fwd, inv) = pair(q, n);
    let [narrow, _] = chips;
    let mut wide = Chip::silicon().unwrap();
    wide.load_plan(&plan).unwrap();
    wide.mdmc.set_ntt_plan(Some(plan)); // the wide plan alone
    assert!(narrow.mdmc.computes_narrow() && !wide.mdmc.computes_narrow());
    let mut chips = [narrow, wide];

    for stray in [q, q + 1, (1 << 64) + 5, u128::MAX] {
        seed_banks(&mut chips, q, n);
        let mut poly = residues(q, n, stray);
        poly[n / 3] = stray;
        for chip in chips.iter_mut() {
            chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
        }
        // Every command that multiplies reads the stray word from x; the
        // last two read a clean x and a stray y / constant.
        let s = |bank: usize, k: usize| Slot::new(BankId(bank), k * n);
        in_lockstep(
            &mut chips,
            &[
                Command::ntt(s(0, 0), fwd, s(1, 0)),
                Command::intt(s(0, 0), inv, s(1, 1)),
                Command::pmodmul(s(0, 0), s(2, 0), s(5, 0)),
                Command::pmodsqr(s(0, 0), s(5, 1)),
                Command::cmodmul(s(0, 0), 7, s(6, 0)),
                Command::pmodmul(s(2, 0), s(0, 0), s(6, 1)),
                Command::cmodmul(s(2, 0), stray, s(7, 0)),
            ],
        );
    }
}

/// A plan-backed transform takes its source in the lazy range it is
/// specified for — `[0, 4q)` forward, `[0, 2q)` inverse — and writes the
/// canonical transform of the reduced words, as the strict kernels compute
/// it: on the 109-bit ring that is the AVX-512 IFMA lanes where the host
/// has them, the scalar stages elsewhere.
#[test]
fn a_wide_transform_takes_its_source_in_the_lazy_range() {
    let n = 1 << 12;
    let q = ntt_prime(109, n).unwrap();
    let plan = TwiddleCache::barrett128(q, n).unwrap();
    if plan.kernel() != "avx512ifma" {
        println!("skipped: no avx512ifma (the scalar stages ran)");
    }
    let ([mut chip, _], fwd, inv) = pair(q, n);
    let ring = Barrett128::new(q).unwrap();
    let s = |bank: usize| Slot::new(BankId(bank), 0);
    for (cmd, above, inverse) in
        [(Command::ntt(s(0), fwd, s(1)), 3, false), (Command::intt(s(0), inv, s(1)), 1, true)]
    {
        let reduced = residues(q, n, 41 + above);
        // Every multiple of `q` the range allows, the range's last word
        // included.
        let mut lazy: Vec<u128> =
            reduced.iter().enumerate().map(|(i, &x)| x + (i as u128 % (above + 1)) * q).collect();
        lazy[n - 1] = (above + 1) * q - 1;
        let mut expect = reduced.clone();
        expect[n - 1] = q - 1;
        chip.write_polynomial(s(0), &lazy).unwrap();
        chip.execute_now(cmd).unwrap();
        if inverse {
            ntt::inverse_inplace(&ring, &mut expect, plan.tables()).unwrap();
        } else {
            ntt::forward_inplace(&ring, &mut expect, plan.tables()).unwrap();
        }
        assert_eq!(chip.read_polynomial(s(1), n).unwrap(), expect, "{cmd:?}");
    }
}
