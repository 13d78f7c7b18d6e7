//! The paper's chip programs and the one runner that delivers them.
//!
//! Table V, Fig. 6 and the Section III-I mode study all time a fixed
//! list of Table I commands over fixed banks. A [`Schedule`] is that
//! list together with the banks its operands are uploaded to and its
//! results read from; [`Device::run`] uploads the operands, delivers the
//! commands in one of the three [`ExecutionMode`]s and downloads the
//! results.
//!
//! The two schedules are the paper's Algorithms 2 and 3. Their
//! interesting part is memory choreography: with three dual-port
//! compute banks and three single-port storage banks, the full
//! ciphertext multiplication (4 NTT + 4 Hadamard + 1 addition + 3 iNTT —
//! Section III-B) needs DMA staging moves between compute steps.
//! [`Device::ciphertext_mul_schedule`] keeps every NTT on a dual-port
//! pair (II = 1) and lets pointwise passes read from single-port
//! storage, overlapping DMA with compute where bank disjointness allows
//! — Section III-F's double-buffering discipline.
//!
//! A [`Run`] separates **compute cycles** (the sum of PE-engine command
//! latencies — the quantity the paper's Fig. 6 times correspond to) from
//! the **wall clock** in `report.cycles` (including DMA staging that
//! could not hide behind compute in this bank layout; ≈3–5 % on top at
//! `n = 2^13`), and reports the host-link seconds the chosen mode spent
//! delivering commands.

use cofhee_sim::cm0::{Asm, Cm0};
use cofhee_sim::{Command, OpReport, Register, Slot, COMMAND_WORDS, GPCFG_BASE};

use crate::device::Device;
use crate::error::{CoreError, Result};

/// How the host delivers a schedule's commands (Section III-I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Mode 1: "the external host directly trigger\[s\] the MDMC … This
    /// mode is slow as there are delays imposed by the communication
    /// interface when writing to the configuration register" — every
    /// command costs a wire round trip.
    DirectRegister,
    /// Mode 2: the host preloads up to 32 commands into the FIFO and
    /// waits for one drain interrupt.
    CommandFifo,
    /// Mode 3: a preloaded Thumb program sequences the commands on the
    /// Cortex-M0; the host only starts it and collects the result.
    Cm0,
}

/// A chip program: operands uploaded to `inputs`, `commands` run in
/// order, results read back from `outputs`.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Where each operand is uploaded, in operand order.
    pub inputs: Vec<Slot>,
    /// The Table I commands.
    pub commands: Vec<Command>,
    /// Where each result is read back from, in result order.
    pub outputs: Vec<Slot>,
}

impl Schedule {
    /// The Cortex-M0 program that streams the commands, word by word,
    /// into the memory-mapped COMMANDFIFO port and halts.
    ///
    /// # Errors
    ///
    /// Assembler failures.
    pub fn cm0_program(&self) -> Result<Vec<u16>> {
        let mut asm = Asm::new();
        asm.ldr_const(0, GPCFG_BASE + Register::COMMANDFIFO.offset());
        for word in self.commands.iter().flat_map(Command::encode) {
            asm.ldr_const(1, word);
            asm.str(1, 0, 0);
        }
        asm.bkpt();
        Ok(asm.assemble()?)
    }
}

/// What one [`Device::run`] produced.
#[derive(Debug, Clone)]
pub struct Run {
    /// The results, one per [`Schedule::outputs`] slot.
    pub outputs: Vec<Vec<u128>>,
    /// Aggregate execution report; `cycles` is the chip's wall clock.
    pub report: OpReport,
    /// Sum of compute-command latencies (DMA staging excluded).
    pub compute_cycles: u64,
    /// Host-link seconds spent delivering the commands (operand upload
    /// and result download excluded: they are the same in every mode).
    pub command_overhead_s: f64,
}

impl Device {
    /// Algorithm 2, polynomial multiplication: 2 NTTs, one Hadamard
    /// pass, one iNTT. Operands `[A, B]`, result `[A·B]`.
    pub fn poly_mul_schedule(&self) -> Schedule {
        let p = self.bank_plan();
        let [d0, d1, d2] = [p.d0, p.d1, p.d2].map(|bank| Slot::new(bank, 0));
        let (fwd, inv) = (self.forward_twiddles(), self.inverse_twiddles());
        Schedule {
            inputs: vec![d2, d0],
            commands: vec![
                Command::ntt(d0, fwd, d1),    // B′
                Command::ntt(d2, fwd, d0),    // A′
                Command::pmodmul(d0, d1, d2), // Y′ = A′ ∘ B′
                Command::intt(d2, inv, d1),   // Y
            ],
            outputs: vec![d1],
        }
    }

    /// Algorithm 3, ciphertext multiplication `(A₀,A₁)·(B₀,B₁)` without
    /// relinearization (the operation Fig. 6 measures): 4 NTTs, 4
    /// Hadamard products, 1 pointwise addition, 3 iNTTs, with DMA
    /// staging moves. Operands `[A₀, A₁, B₀, B₁]`, results
    /// `[Y₀ = A₀·B₀, Y₁ = A₀·B₁ + A₁·B₀, Y₂ = A₁·B₁]`.
    pub fn ciphertext_mul_schedule(&self) -> Schedule {
        let n = self.n();
        let p = self.bank_plan();
        let [d0, d1, d2] = [p.d0, p.d1, p.d2].map(|bank| Slot::new(bank, 0));
        let [s0, s1, s2] = p.storage.map(|bank| Slot::new(bank, 0));
        let (fwd, inv) = (self.forward_twiddles(), self.inverse_twiddles());
        Schedule {
            inputs: vec![d2, s0, d0, s1],
            commands: vec![
                Command::ntt(d0, fwd, d1),    // 1: B₀′ → d1
                Command::memcpy(d1, s2, n),   // 2: stage B₀′ → s2 (hides under 3)
                Command::ntt(d2, fwd, d0),    // 3: A₀′ → d0
                Command::pmodmul(d0, s2, d1), // 4: Y₀′ = A₀′∘B₀′ → d1
                Command::intt(d1, inv, d2),   // 5: Y₀ → d2
                Command::memcpy(s1, d1, n),   // 6: B₁ → d1
                Command::memcpy(d2, s1, n),   // 7: Y₀ → s1 (frees d2)
                Command::ntt(d1, fwd, d2),    // 8: B₁′ → d2
                Command::pmodmul(d0, d2, d1), // 9: Y₀₁′ = A₀′∘B₁′ → d1
                Command::memcpy(s0, d0, n),   // 10: A₁ → d0
                Command::memcpy(d2, s0, n),   // 11: stage B₁′ → s0
                Command::ntt(d0, fwd, d2),    // 12: A₁′ → d2
                Command::pmodmul(d2, s0, d0), // 13: Y₂′ = A₁′∘B₁′ → d0
                Command::pmodmul(d2, s2, s0), // 14: Y₁₀′ = A₁′∘B₀′ → s0
                Command::pmodadd(d1, s0, d1), // 15: Y₁′ = Y₀₁′ + Y₁₀′ → d1
                Command::intt(d0, inv, d2),   // 16: Y₂ → d2
                Command::intt(d1, inv, d0),   // 17: Y₁ → d0
            ],
            outputs: vec![s1, d0, d2],
        }
    }

    /// Runs a schedule: uploads `operands` to its inputs, delivers its
    /// commands in `mode`, and reads its outputs back. Command delivery
    /// is priced on this device's link; the backdoor link prices it at
    /// zero.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadOperandLength`] when `operands` does not hold one
    /// polynomial per schedule input; operand-length and chip-execution
    /// failures.
    pub fn run(
        &mut self,
        schedule: &Schedule,
        operands: &[&[u128]],
        mode: ExecutionMode,
    ) -> Result<Run> {
        if operands.len() != schedule.inputs.len() {
            return Err(CoreError::BadOperandLength {
                expected: schedule.inputs.len(),
                found: operands.len(),
            });
        }
        for (&slot, coeffs) in schedule.inputs.iter().zip(operands) {
            self.upload(slot, coeffs)?;
        }
        let link = self.link().clone();
        let commands = &schedule.commands;
        let command_bytes = (COMMAND_WORDS * 4) as u64;
        let chip = self.chip_mut();
        let (report, compute_cycles, command_overhead_s) = match mode {
            ExecutionMode::DirectRegister => {
                // Each command: write its words, then one 4-byte status
                // read after completion.
                let start = chip.elapsed_cycles();
                let (mut report, mut compute_cycles) = (OpReport::default(), 0);
                for &cmd in commands {
                    let one = chip.execute_now(cmd)?;
                    if !cmd.op.is_memory_op() {
                        compute_cycles += one.cycles;
                    }
                    report.absorb(&one);
                }
                report.cycles = chip.elapsed_cycles() - start;
                let overhead = commands.len() as f64 * link.transfer_seconds(command_bytes + 4);
                (report, compute_cycles, overhead)
            }
            ExecutionMode::CommandFifo => {
                // One burst of command words up front, one interrupt.
                for &cmd in commands {
                    chip.submit(cmd)?;
                }
                let drained = chip.drain_fifo()?;
                let overhead = link.transfer_seconds(command_bytes * commands.len() as u64 + 4);
                (drained.report, drained.compute_cycles, overhead)
            }
            ExecutionMode::Cm0 => {
                // Program upload once, then a single 4-byte start trigger.
                let program = schedule.cm0_program()?;
                let program_bytes = program.len() as u64 * 2;
                let drained = chip.run_program(&mut Cm0::new(program), 1_000_000)?;
                (drained.report, drained.compute_cycles, link.transfer_seconds(program_bytes + 4))
            }
        };
        let outputs =
            schedule.outputs.iter().map(|&slot| self.download(slot)).collect::<Result<_>>()?;
        Ok(Run { outputs, report, compute_cycles, command_overhead_s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Link;
    use cofhee_arith::{primes::ntt_prime, rns::RnsBasis, Barrett128, ModRing};
    use cofhee_poly::ntt::{self, NttTables};
    use cofhee_sim::{ChipConfig, Spi};

    const Q109: u128 = 324518553658426726783156020805633;
    const MODES: [ExecutionMode; 3] =
        [ExecutionMode::DirectRegister, ExecutionMode::CommandFifo, ExecutionMode::Cm0];

    fn rand_poly(ring: &Barrett128, n: usize, seed: u128) -> Vec<u128> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x9999);
                ring.from_u128(state)
            })
            .collect()
    }

    /// Algorithm 3 over four random operands seeded from `seed`.
    fn ciphertext_mul(dev: &mut Device, seed: u128, mode: ExecutionMode) -> (Vec<Vec<u128>>, Run) {
        let ring = *dev.ring();
        let polys: Vec<Vec<u128>> = (0..4).map(|i| rand_poly(&ring, dev.n(), seed + i)).collect();
        let operands: Vec<&[u128]> = polys.iter().map(Vec::as_slice).collect();
        let run = dev.run(&dev.ciphertext_mul_schedule(), &operands, mode).unwrap();
        (polys, run)
    }

    #[test]
    fn poly_mul_matches_oracle_and_table5() {
        for (log_n, expect_compute) in [(12u32, 83_777u64), (13, 179_045)] {
            let n = 1usize << log_n;
            let mut dev = Device::connect(ChipConfig::silicon(), Q109, n).unwrap();
            let ring = *dev.ring();
            let a = rand_poly(&ring, n, 1);
            let b = rand_poly(&ring, n, 2);
            let out =
                dev.run(&dev.poly_mul_schedule(), &[&a, &b], ExecutionMode::CommandFifo).unwrap();

            let tables = NttTables::new(&ring, n).unwrap();
            let oracle = ntt::negacyclic_mul(&ring, &a, &b, &tables).unwrap();
            assert_eq!(out.outputs, [oracle], "functional n = 2^{log_n}");

            let err = out.compute_cycles.abs_diff(expect_compute) as f64 / expect_compute as f64;
            assert!(
                err < 2e-4,
                "PolyMul compute cycles n=2^{log_n}: {} vs {expect_compute}",
                out.compute_cycles
            );
        }
    }

    #[test]
    fn ciphertext_mul_matches_tensor_oracle_in_every_mode() {
        let n = 1 << 10;
        let q = ntt_prime(109, n).unwrap();
        let mut compute = Vec::new();
        for mode in MODES {
            let mut dev = Device::connect(ChipConfig::silicon(), q, n).unwrap();
            let ring = *dev.ring();
            let (p, out) = ciphertext_mul(&mut dev, 3, mode);

            let tables = NttTables::new(&ring, n).unwrap();
            let mul = |x: &[u128], y: &[u128]| ntt::negacyclic_mul(&ring, x, y, &tables).unwrap();
            let y1 = mul(&p[0], &p[3]).into_iter().zip(mul(&p[1], &p[2]));
            let y1 = y1.map(|(u, v)| ring.add(u, v)).collect();
            let oracle = [mul(&p[0], &p[2]), y1, mul(&p[1], &p[3])];
            assert_eq!(out.outputs, oracle, "{mode:?}: Y0, Y1, Y2");
            assert!(out.report.cycles >= out.compute_cycles, "{mode:?}: wall clock");
            compute.push(out.compute_cycles);
        }
        assert!(compute.iter().all(|&c| c == compute[0]), "compute cycles per mode: {compute:?}");
    }

    #[test]
    fn ciphertext_mul_compute_cycles_match_fig6() {
        // Fig. 6a: one tower of ciphertext multiplication takes 0.84 ms at
        // n = 2^12 (210,908 cycles at 250 MHz) and 1.79 ms at 2^13.
        for (log_n, expect) in [(12u32, 210_908u64), (13, 448_630)] {
            let mut dev = Device::connect(ChipConfig::silicon(), Q109, 1 << log_n).unwrap();
            let (_, out) = ciphertext_mul(&mut dev, 10, ExecutionMode::CommandFifo);
            let err = out.compute_cycles.abs_diff(expect) as f64 / expect as f64;
            assert!(
                err < 2e-4,
                "ct-mul compute cycles n=2^{log_n}: {} vs {expect}",
                out.compute_cycles
            );
            // Wall clock includes visible DMA staging — bounded overhead.
            assert!(out.report.cycles >= out.compute_cycles);
            let overhead =
                (out.report.cycles - out.compute_cycles) as f64 / out.compute_cycles as f64;
            assert!(overhead < 0.12, "staging overhead {overhead}");
        }
    }

    #[test]
    fn ciphertext_mul_time_matches_paper_milliseconds() {
        // The headline Fig. 6 numbers: 0.84 ms (n=2^12, one 109-bit tower).
        let mut dev = Device::connect(ChipConfig::silicon(), Q109, 1 << 12).unwrap();
        let (_, out) = ciphertext_mul(&mut dev, 21, ExecutionMode::CommandFifo);
        let ms = out.compute_cycles as f64 / 250e6 * 1e3;
        assert!((ms - 0.84).abs() < 0.01, "ct-mul = {ms} ms");
    }

    #[test]
    fn two_tower_multiplication_doubles_time() {
        // One chip runs the towers of a 218-bit modulus one after the
        // other, which is how the paper's 3.58 ms arises (2 × 1.79 ms).
        let n = 1 << 10;
        let basis = RnsBasis::for_total_bits(218, 128, n).unwrap();
        let compute: Vec<u64> = basis
            .moduli()
            .iter()
            .zip(0..)
            .map(|(&q, i)| {
                let mut dev = Device::connect(ChipConfig::silicon(), q, n).unwrap();
                ciphertext_mul(&mut dev, 4 * i + 1, ExecutionMode::CommandFifo).1.compute_cycles
            })
            .collect();
        assert_eq!(compute.len(), 2);
        assert_eq!(compute.iter().sum::<u64>(), 2 * compute[0]);
    }

    #[test]
    fn operand_count_is_validated() {
        let mut dev = Device::connect(ChipConfig::silicon(), Q109, 1 << 8).unwrap();
        let schedule = dev.ciphertext_mul_schedule();
        assert_eq!(
            dev.run(&schedule, &[], ExecutionMode::CommandFifo).unwrap_err(),
            CoreError::BadOperandLength { expected: 4, found: 0 }
        );
    }

    #[test]
    fn cm0_amortizes_for_repeated_execution() {
        // The CM0 program costs more upfront (program bytes > command
        // bytes) but is the only mode with a constant-size trigger for
        // arbitrarily long command sequences.
        let n = 1 << 8;
        let link = Link::Spi(Spi::new(50_000_000));
        let mut dev = Device::connect_via(ChipConfig::silicon(), Q109, n, link).unwrap();
        let ring = *dev.ring();
        let a = rand_poly(&ring, n, 1);
        let b = rand_poly(&ring, n, 2);
        let out = dev.run(&dev.poly_mul_schedule(), &[&a, &b], ExecutionMode::Cm0).unwrap();
        assert!(out.command_overhead_s > 0.0);
    }
}
