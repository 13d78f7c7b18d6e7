//! The top-level chip: Figure 1 of the paper wired together.
//!
//! One [`Chip`] owns the SRAM complement, the MDMC (which holds the
//! processing element's ring), the command FIFO, the configuration
//! registers, and the engine timelines. It exposes the three execution
//! modes of Section III-I:
//!
//! 1. **Direct register writes** — [`Chip::execute_now`], one command at
//!    a time (host-link latency is accounted by the driver layer). It is
//!    [`Chip::price`] (every check, the report, the engine clocks) then
//!    [`Chip::apply`] (the effect on the banks), which a driver may also
//!    call apart: [`Chip::price_fifo`] drains the FIFO on timing alone.
//! 2. **Command FIFO** — [`Chip::submit`] + [`Chip::run_until_idle`]:
//!    compute commands run sequentially on the MDMC while memory
//!    commands dispatch to the DMA engine and overlap, exactly the
//!    concurrency Section III-B describes; a host interrupt fires when
//!    the queue drains.
//! 3. **Cortex-M0** — [`Chip::run_program`]: a Thumb program sequences
//!    commands through the memory-mapped COMMANDFIFO port.

use cofhee_arith::ModRing;
use cofhee_poly::cache::TwiddleCache;

use crate::cm0::{Cm0, Cm0Bus, Halt};
use crate::cmdfifo::CommandFifo;
use crate::commands::{Command, COMMAND_WORDS};
use crate::config::ChipConfig;
use crate::error::{Result, SimError};
use crate::gpcfg::{GpCfg, Register, GPCFG_BASE, GPCFG_SPAN};
use crate::mdmc::{Mdmc, OpReport};
use crate::mem::{BankId, BankRoles, Memory, Slot};
use crate::power::PowerModel;

/// The banks one command names: source, destination, and the optional
/// second source and twiddle table.
type CommandBanks = [Option<BankId>; 4];

/// One engine's in-flight transaction: which banks it holds, until when.
#[derive(Debug, Clone, Default)]
struct EngineState {
    banks: CommandBanks,
    free_at: u64,
}

impl EngineState {
    fn conflicts_with(&self, banks: &CommandBanks, at: u64) -> bool {
        at < self.free_at && banks.iter().flatten().any(|b| self.banks.contains(&Some(*b)))
    }
}

/// Outcome of one command-FIFO drain — the overlap accounting the
/// asynchronous stream API builds its serial-vs-overlapped comparison
/// on.
///
/// `report.cycles` is the **wall-clock** span of the drain: compute
/// commands serialize on the MDMC while memory commands run on the DMA
/// engine and hide behind compute where their banks are disjoint
/// (Section III-B). `serial_cycles` is what the same command list would
/// cost executed strictly one-after-another (the mode-1 per-op path);
/// the difference is the cycles the DMA overlap bought. `compute_cycles`
/// is the part of `serial_cycles` the MDMC spent (DMA commands excluded):
/// the quantity the paper's Fig. 6 times correspond to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Aggregate execution statistics; `cycles` is wall-clock from drain
    /// start to full drain, both engines included.
    pub report: OpReport,
    /// Sum of the individual command latencies (no engine concurrency).
    pub serial_cycles: u64,
    /// Sum of the compute commands' latencies.
    pub compute_cycles: u64,
    /// Commands executed by this drain.
    pub executed: u64,
}

impl DrainReport {
    /// Merges a later drain into this one: every count sums, and
    /// `report.cycles` is then the sum of the drains' wall clocks.
    fn absorb(&mut self, other: &DrainReport) {
        self.report.absorb(&other.report);
        self.serial_cycles += other.serial_cycles;
        self.compute_cycles += other.compute_cycles;
        self.executed += other.executed;
    }
}

/// The CoFHEE chip model.
#[derive(Debug)]
pub struct Chip {
    config: ChipConfig,
    mem: Memory,
    mdmc: Mdmc,
    gpcfg: GpCfg,
    fifo: CommandFifo,
    power: PowerModel,
    now: u64,
    compute: EngineState,
    dma: EngineState,
    host_irq: bool,
    /// Staging buffer for the word-serial COMMANDFIFO port.
    cmd_staging: Vec<u32>,
}

impl Chip {
    /// Powers up a chip with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration-validation failures.
    pub fn new(config: ChipConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            mem: Memory::from_config(&config),
            mdmc: Mdmc::new(config.clone()),
            gpcfg: GpCfg::new(),
            fifo: CommandFifo::new(),
            power: PowerModel::silicon(),
            now: 0,
            compute: EngineState::default(),
            dma: EngineState::default(),
            host_irq: false,
            cmd_staging: Vec::with_capacity(COMMAND_WORDS),
            config,
        })
    }

    /// The silicon configuration chip.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in configuration.
    pub fn silicon() -> Result<Self> {
        Self::new(ChipConfig::silicon())
    }

    /// The configuration in force.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The memory system (for inspection).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// The configuration registers.
    pub fn gpcfg(&self) -> &GpCfg {
        &self.gpcfg
    }

    /// The standard bank role assignment.
    pub fn roles(&self) -> BankRoles {
        self.mem.roles()
    }

    /// Current simulation time in cycles.
    pub fn elapsed_cycles(&self) -> u64 {
        self.now.max(self.compute.free_at).max(self.dma.free_at)
    }

    /// Current simulation time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.config.cycles_to_seconds(self.elapsed_cycles())
    }

    /// The power model in force.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Reads and clears the host interrupt line.
    pub fn take_interrupt(&mut self) -> bool {
        std::mem::take(&mut self.host_irq)
    }

    /// Loads the FHE parameter registers (`Q`, `N`, `INV_POLYDEG` and the
    /// derived Barrett constants) — what a host does before any compute.
    ///
    /// # Errors
    ///
    /// Propagates modulus validation failures.
    fn load_parameters(&mut self, q: u128, n: usize, n_inv: u128) -> Result<()> {
        if n > self.config.bank_words {
            return Err(SimError::LengthUnsupported { n, max: self.config.bank_words });
        }
        self.gpcfg.set_q(q);
        self.gpcfg.set_n(n);
        self.gpcfg.set_inv_polydeg(n_inv);
        self.mdmc.load_modulus(q)?;
        // Raw register programming invalidates any previously installed
        // functional fast-path plan; `load_tables` re-installs one.
        self.mdmc.set_ntt_plan(None);
        Ok(())
    }

    /// Derives and loads parameters from a ring and degree, including the
    /// twiddle tables into the designated banks. Returns the slots where
    /// forward and inverse twiddles were placed.
    ///
    /// Prefer [`Chip::load_plan`] with a shared
    /// `cofhee_poly::cache::TwiddleCache` plan when bringing up many
    /// chips for the same `(q, n)` — this path re-derives the tables
    /// from scratch and leaves the MDMC on its faithful per-butterfly
    /// functional loop.
    ///
    /// # Errors
    ///
    /// Propagates root-finding and capacity failures.
    pub fn load_ring<R: ModRing>(&mut self, ring: &R, n: usize) -> Result<(Slot, Slot)> {
        let roots = cofhee_arith::roots::RootSet::new(ring, n).map_err(SimError::from)?;
        let tables = cofhee_poly::ntt::NttTables::from_roots(ring, &roots);
        self.load_tables(ring, &tables)
    }

    /// Loads parameters and twiddle banks from precomputed tables — the
    /// bring-up path for table sets shared across chips (a farm derives
    /// each `(q, n)` table set once and uploads it to every die).
    ///
    /// # Errors
    ///
    /// Propagates capacity failures.
    fn load_tables<R: ModRing>(
        &mut self,
        ring: &R,
        tables: &cofhee_poly::ntt::NttTables<R>,
    ) -> Result<(Slot, Slot)> {
        let n = tables.n();
        self.load_parameters(ring.modulus(), n, ring.to_u128(tables.n_inv()))?;
        let roles = self.mem.roles();
        let fwd = Slot::new(roles.twiddle, 0);
        let inv = Slot::new(BankId(roles.twiddle.0 + 1), 0);
        let fwd_tw: Vec<u128> =
            tables.forward_twiddles().iter().map(|&w| ring.to_u128(w)).collect();
        let inv_tw: Vec<u128> =
            tables.inverse_twiddles().iter().map(|&w| ring.to_u128(w)).collect();
        self.mem.write_slice(fwd, &fwd_tw)?;
        self.mem.write_slice(inv, &inv_tw)?;
        Ok((fwd, inv))
    }

    /// Loads parameters and twiddle banks from a shared lazy transform
    /// plan and installs it as the MDMC's functional NTT fast path —
    /// the bring-up a driver uses when it already holds the
    /// `TwiddleCache` plan for `(q, n)` (no second cache lookup, no
    /// speculative table derivation). The MDMC still verifies per
    /// command that the twiddle banks hold the plan's canonical
    /// tables, so later bank overwrites fall back to the faithful
    /// per-butterfly loop.
    ///
    /// When `q` is word-sized — by [`TwiddleCache::narrow`], the rule
    /// every host engine picks its width by — the interned `Barrett64`
    /// plan is installed beside it, and the MDMC computes at that width
    /// whenever a command's operands are canonical residues. Simulated
    /// cycles and power are the 128-bit silicon's either way.
    ///
    /// # Errors
    ///
    /// Propagates capacity failures.
    pub fn load_plan(
        &mut self,
        plan: &std::sync::Arc<cofhee_poly::HarveyNtt<cofhee_arith::Barrett128>>,
    ) -> Result<(Slot, Slot)> {
        let slots = self.load_tables(plan.ring(), plan.tables())?;
        self.mdmc.set_ntt_plan(Some(std::sync::Arc::clone(plan)));
        self.mdmc.pin_twiddles([slots.0, slots.1], &self.mem);
        if let Ok(Some(narrow)) = TwiddleCache::narrow(plan.ring().q(), plan.n()) {
            self.mdmc.set_narrow_plan(narrow);
        }
        Ok(slots)
    }

    /// Writes polynomial coefficients into a bank (host-side upload; wire
    /// time is accounted by the driver layer).
    ///
    /// # Errors
    ///
    /// Bounds failures.
    pub fn write_polynomial(&mut self, slot: Slot, coeffs: &[u128]) -> Result<()> {
        self.mem.write_slice(slot, coeffs)
    }

    /// Borrows `n` words of a bank for the host to write in place — an
    /// upload that reduces as it writes needs no staging vector.
    ///
    /// # Errors
    ///
    /// Bounds failures.
    pub fn polynomial_mut(&mut self, slot: Slot, n: usize) -> Result<&mut [u128]> {
        self.mem.slice_mut(slot, n)
    }

    /// Reads polynomial coefficients back from a bank.
    ///
    /// # Errors
    ///
    /// Bounds failures.
    pub fn read_polynomial(&self, slot: Slot, n: usize) -> Result<Vec<u128>> {
        self.mem.read_slice(slot, n)
    }

    fn banks_of(cmd: &Command) -> CommandBanks {
        [Some(cmd.x.bank), Some(cmd.dst.bank), cmd.y.map(|y| y.bank), cmd.twiddle.map(|t| t.bank)]
    }

    /// Prices one command — the timing half of [`Chip::execute_now`]:
    /// every check the command makes, its [`OpReport`] and the engine
    /// timelines, with memory untouched.
    /// [`Chip::apply`] computes it; a driver may apply it later, as long
    /// as it applies the commands it priced in the order it priced them.
    ///
    /// # Errors
    ///
    /// The MDMC's configuration, bounds and port errors; a failing
    /// command moves no clock and books nothing.
    pub fn price(&mut self, cmd: Command) -> Result<OpReport> {
        let banks = Self::banks_of(&cmd);
        let report = self.mdmc.price(&cmd, &self.mem, &self.gpcfg)?;
        if cmd.op.is_memory_op() {
            let mut start = self.now.max(self.dma.free_at);
            if self.compute.conflicts_with(&banks, start) {
                start = self.compute.free_at;
            }
            self.dma = EngineState { banks, free_at: start + report.cycles };
        } else {
            let mut start = self.now.max(self.compute.free_at);
            if self.dma.conflicts_with(&banks, start) {
                start = start.max(self.dma.free_at);
            }
            self.compute = EngineState { banks, free_at: start + report.cycles };
        }
        Ok(report)
    }

    /// Applies one command's effect on the banks — the functional half
    /// of [`Chip::execute_now`], with no timing.
    ///
    /// # Errors
    ///
    /// The errors [`Chip::price`] reports for the same command; a
    /// priced command applies cleanly.
    pub fn apply(&mut self, cmd: &Command) -> Result<()> {
        self.mdmc.apply(cmd, &mut self.mem, &self.gpcfg)
    }

    /// Executes one command immediately (execution mode 1: direct
    /// register trigger): [`Chip::price`], then [`Chip::apply`]. The
    /// command runs on the appropriate engine; time advances past any
    /// in-flight conflicting work.
    ///
    /// # Errors
    ///
    /// Propagates MDMC execution failures.
    pub fn execute_now(&mut self, cmd: Command) -> Result<OpReport> {
        let report = self.price(cmd)?;
        self.apply(&cmd)?;
        Ok(report)
    }

    /// Enqueues a command into the 32-deep FIFO (execution mode 2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::FifoFull`] when the queue is full.
    pub fn submit(&mut self, cmd: Command) -> Result<()> {
        self.fifo.push(cmd)
    }

    /// Free slots in the command FIFO.
    pub fn fifo_space(&self) -> usize {
        self.fifo.space()
    }

    /// Drains the command FIFO: compute commands serialize on the MDMC,
    /// memory commands dispatch to the DMA and overlap when their banks
    /// are disjoint (Section III-B). Returns the aggregate report with
    /// `cycles` = wall-clock cycles from start to full drain.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; already-executed commands keep
    /// their effects.
    pub fn run_until_idle(&mut self) -> Result<OpReport> {
        Ok(self.drain_fifo()?.report)
    }

    /// [`Chip::run_until_idle`] with overlap accounting: alongside the
    /// wall-clock aggregate, reports the serial (one-command-at-a-time)
    /// cycle sum of the drained command list, so callers can quantify
    /// how much latency the DMA/compute concurrency hid. Raises the
    /// host's drain interrupt exactly as `run_until_idle` does.
    ///
    /// # Errors
    ///
    /// Propagates execution failures; already-executed commands keep
    /// their effects.
    pub fn drain_fifo(&mut self) -> Result<DrainReport> {
        self.drain(Self::execute_now)
    }

    /// [`Chip::drain_fifo`] in timing-only mode: every command is
    /// priced ([`Chip::price`]) and handed to `priced` in drain order
    /// instead of computed — the same [`DrainReport`], clock and
    /// interrupt, with memory untouched. Applying the handed commands in
    /// that order leaves the banks as the drain would have.
    ///
    /// # Errors
    ///
    /// Propagates pricing failures; the commands priced before the
    /// failing one have been handed over.
    pub fn price_fifo(&mut self, mut priced: impl FnMut(Command)) -> Result<DrainReport> {
        self.drain(|chip, cmd| {
            let report = chip.price(cmd)?;
            priced(cmd);
            Ok(report)
        })
    }

    /// Pops every queued command through `run`, then closes the drain:
    /// wall clock spanning both engines, the drain interrupt.
    fn drain(
        &mut self,
        mut run: impl FnMut(&mut Self, Command) -> Result<OpReport>,
    ) -> Result<DrainReport> {
        let start = self.elapsed_cycles();
        let executed_before = self.fifo.executed();
        let mut aggregate = OpReport::default();
        let (mut serial_cycles, mut compute_cycles) = (0, 0);
        while let Some(cmd) = self.fifo.pop() {
            let report = run(self, cmd)?;
            serial_cycles += report.cycles;
            if !cmd.op.is_memory_op() {
                compute_cycles += report.cycles;
            }
            aggregate.absorb(&report);
        }
        // Wall clock spans both engines.
        let end = self.elapsed_cycles();
        self.now = end;
        aggregate.cycles = end - start;
        if self.fifo.take_interrupt() {
            self.host_irq = true;
        }
        Ok(DrainReport {
            report: aggregate,
            serial_cycles,
            compute_cycles,
            executed: self.fifo.executed() - executed_before,
        })
    }

    /// Runs a Cortex-M0 program that drives the chip through the
    /// memory-mapped command port (execution mode 3). Returns the drains
    /// of all work the program issued, combined: `report.cycles` is the
    /// wall clock from start to halt.
    ///
    /// On `WFI`, pending FIFO commands are drained (the completion
    /// interrupt then wakes the core, which continues).
    ///
    /// # Errors
    ///
    /// CPU faults, timeout, or command-execution failures.
    pub fn run_program(&mut self, cpu: &mut Cm0, budget: u64) -> Result<DrainReport> {
        let start = self.elapsed_cycles();
        let mut aggregate = DrainReport::default();
        loop {
            let halt = {
                let mut bus = ChipBus { chip: self };
                cpu.run(&mut bus, budget)?
            };
            aggregate.absorb(&self.drain_fifo()?);
            if halt == Halt::Breakpoint {
                break;
            }
            // WFI: interrupt delivered; the core resumes.
        }
        aggregate.report.cycles = self.elapsed_cycles() - start;
        Ok(aggregate)
    }

    /// Average power over a report window, in mW.
    pub fn average_power_mw(&self, report: &OpReport) -> f64 {
        self.power.average_mw(&report.phases)
    }

    /// Bus write used by the CM0 and host bridges.
    fn bus_write_u32(&mut self, address: u32, value: u32) -> Result<()> {
        if (GPCFG_BASE..GPCFG_BASE + GPCFG_SPAN).contains(&address) {
            let offset = address - GPCFG_BASE;
            if offset == Register::COMMANDFIFO.offset() {
                // Word-serial command port: every COMMAND_WORDS-th write
                // commits a command into the FIFO.
                self.cmd_staging.push(value);
                if self.cmd_staging.len() == COMMAND_WORDS {
                    let mut words = [0u32; COMMAND_WORDS];
                    words.copy_from_slice(&self.cmd_staging);
                    self.cmd_staging.clear();
                    let cmd = Command::decode(&words)?;
                    self.fifo.push(cmd)?;
                }
                return Ok(());
            }
            return self.gpcfg.write_word(offset, value);
        }
        // SRAM: 32-bit lane writes into 128-bit words.
        let (bank, word, _port_b) = self.mem.decode(address & !0xF)?;
        let lane = (address & 0xF) / 4;
        let slot = Slot::new(bank, word);
        let mut current = self.mem.read_word(slot, 0)?;
        let shift = lane * 32;
        current &= !(0xFFFF_FFFFu128 << shift);
        current |= (value as u128) << shift;
        self.mem.write_word(slot, 0, current)
    }

    /// Bus read used by the CM0 and host bridges.
    fn bus_read_u32(&mut self, address: u32) -> Result<u32> {
        if (GPCFG_BASE..GPCFG_BASE + GPCFG_SPAN).contains(&address) {
            return self.gpcfg.read_word(address - GPCFG_BASE);
        }
        let (bank, word, _port_b) = self.mem.decode(address & !0xF)?;
        let lane = (address & 0xF) / 4;
        let value = self.mem.read_word(Slot::new(bank, word), 0)?;
        Ok((value >> (lane * 32)) as u32)
    }

    /// Reads a configuration register over the bus-style interface.
    ///
    /// # Errors
    ///
    /// Address-decode failures.
    pub fn read_register(&mut self, reg: Register) -> Result<u32> {
        self.bus_read_u32(GPCFG_BASE + reg.offset())
    }
}

/// Borrowed bus adapter handing the chip's address space to the CM0.
struct ChipBus<'a> {
    chip: &'a mut Chip,
}

impl Cm0Bus for ChipBus<'_> {
    fn read_u32(&mut self, address: u32) -> Result<u32> {
        self.chip.bus_read_u32(address)
    }

    fn write_u32(&mut self, address: u32, value: u32) -> Result<()> {
        self.chip.bus_write_u32(address, value)
    }
}

mod fast_vs_faithful;
mod price_vs_execute;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cm0::Asm;
    use cofhee_arith::{Barrett128, ModRing};
    use cofhee_poly::ntt::{self, NttTables};

    const Q109: u128 = 324518553658426726783156020805633;

    fn chip_with_ring(n: usize) -> (Chip, Barrett128, NttTables<Barrett128>, Slot, Slot) {
        let mut chip = Chip::silicon().unwrap();
        let ring = Barrett128::new(Q109).unwrap();
        let (fwd, inv) = chip.load_ring(&ring, n).unwrap();
        let tables = NttTables::new(&ring, n).unwrap();
        (chip, ring, tables, fwd, inv)
    }

    fn rand_poly(ring: &Barrett128, n: usize, seed: u128) -> Vec<u128> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x7777);
                ring.from_u128(state)
            })
            .collect()
    }

    #[test]
    fn direct_mode_runs_an_ntt() {
        let n = 1 << 10;
        let (mut chip, ring, tables, fwd, _) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 1);
        let x = Slot::new(BankId(0), 0);
        let dst = Slot::new(BankId(1), 0);
        chip.write_polynomial(x, &poly).unwrap();
        let report = chip.execute_now(Command::ntt(x, fwd, dst)).unwrap();
        assert!(report.cycles > 0);
        let mut expect = poly;
        ntt::forward_inplace(&ring, &mut expect, &tables).unwrap();
        assert_eq!(chip.read_polynomial(dst, n).unwrap(), expect);
        assert_eq!(chip.elapsed_cycles(), report.cycles);
    }

    #[test]
    fn fifo_mode_raises_interrupt_on_drain() {
        let n = 1 << 8;
        let (mut chip, ring, _, fwd, inv) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 2);
        let x = Slot::new(BankId(0), 0);
        let mid = Slot::new(BankId(1), 0);
        let back = Slot::new(BankId(0), n);
        chip.write_polynomial(x, &poly).unwrap();
        chip.submit(Command::ntt(x, fwd, mid)).unwrap();
        chip.submit(Command::intt(mid, inv, back)).unwrap();
        assert!(!chip.take_interrupt());
        let report = chip.run_until_idle().unwrap();
        assert!(chip.take_interrupt(), "drain interrupt");
        assert_eq!(chip.read_polynomial(back, n).unwrap(), poly, "NTT→iNTT round trip");
        assert_eq!(report.butterflies, 2 * (n as u64 / 2) * 8);
    }

    #[test]
    fn dma_overlaps_disjoint_compute() {
        let n = 1 << 12;
        let (mut chip, ring, _, fwd, _) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 3);
        chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
        chip.write_polynomial(Slot::new(BankId(5), 0), &poly).unwrap();

        // NTT on banks 0→1 while DMA stages bank 5 → bank 2 (prefetch):
        // disjoint, so wall time should equal the NTT alone.
        chip.submit(Command::ntt(Slot::new(BankId(0), 0), fwd, Slot::new(BankId(1), 0))).unwrap();
        chip.submit(Command::memcpy(Slot::new(BankId(5), 0), Slot::new(BankId(2), 0), n)).unwrap();
        let report = chip.run_until_idle().unwrap();
        assert_eq!(report.cycles, 24_841, "DMA hidden behind compute");
        assert_eq!(chip.read_polynomial(Slot::new(BankId(2), 0), n).unwrap(), poly);
    }

    #[test]
    fn drain_report_separates_wall_from_serial_cycles() {
        let n = 1 << 12;
        let (mut chip, ring, _, fwd, _) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 3);
        chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
        chip.write_polynomial(Slot::new(BankId(5), 0), &poly).unwrap();
        chip.submit(Command::ntt(Slot::new(BankId(0), 0), fwd, Slot::new(BankId(1), 0))).unwrap();
        chip.submit(Command::memcpy(Slot::new(BankId(5), 0), Slot::new(BankId(2), 0), n)).unwrap();
        let drain = chip.drain_fifo().unwrap();
        assert_eq!(drain.executed, 2);
        assert_eq!(drain.report.cycles, 24_841, "wall clock: DMA hidden behind the NTT");
        assert_eq!(
            drain.serial_cycles,
            24_841 + n as u64 + 4,
            "serial sum pays the memcpy in full"
        );
        assert!(chip.take_interrupt(), "drain raises the host interrupt");
    }

    #[test]
    fn conflicting_dma_serializes() {
        let n = 1 << 12;
        let (mut chip, ring, _, fwd, _) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 4);
        chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
        // DMA wants the NTT's destination bank: must wait.
        chip.submit(Command::ntt(Slot::new(BankId(0), 0), fwd, Slot::new(BankId(1), 0))).unwrap();
        chip.submit(Command::memcpy(Slot::new(BankId(1), 0), Slot::new(BankId(4), 0), n)).unwrap();
        let report = chip.run_until_idle().unwrap();
        assert!(report.cycles > 24_841 + n as u64, "serialized: {}", report.cycles);
    }

    #[test]
    fn polymul_composite_matches_table5_within_one_cycle() {
        // Table V PolyMul: 83,777 cc (n=2^12) / 179,045 cc (n=2^13).
        for (log_n, expect) in [(12u32, 83_777u64), (13, 179_045)] {
            let n = 1usize << log_n;
            let (mut chip, ring, _, fwd, inv) = chip_with_ring(n);
            let a = rand_poly(&ring, n, 5);
            let b = rand_poly(&ring, n, 6);
            let sa = Slot::new(BankId(0), 0);
            let sb = Slot::new(BankId(2), 0);
            let ta = Slot::new(BankId(1), 0);
            chip.write_polynomial(sa, &a).unwrap();
            chip.write_polynomial(sb, &b).unwrap();
            // NTT(a): 0→1, NTT(b): 2→0, Hadamard: 1∘0→2, iNTT: 2→1.
            chip.submit(Command::ntt(sa, fwd, ta)).unwrap();
            chip.submit(Command::ntt(sb, fwd, sa)).unwrap();
            chip.submit(Command::pmodmul(ta, sa, sb)).unwrap();
            chip.submit(Command::intt(sb, inv, ta)).unwrap();
            let report = chip.run_until_idle().unwrap();
            // n=2^12 composes within 1 cycle; at n=2^13 the silicon
            // measurement is 30 cycles below the sum of its parts
            // (sub-command pipelining) — we accept ≤0.02 % error and
            // record the exact deltas in EXPERIMENTS.md.
            let err = report.cycles.abs_diff(expect) as f64 / expect as f64;
            assert!(err < 2e-4, "PolyMul n=2^{log_n}: {} vs {expect}", report.cycles);

            // Functional check against the software oracle.
            let tables = NttTables::new(&ring, n).unwrap();
            let oracle = ntt::negacyclic_mul(&ring, &a, &b, &tables).unwrap();
            assert_eq!(chip.read_polynomial(ta, n).unwrap(), oracle);
        }
    }

    #[test]
    fn cm0_program_sequences_commands() {
        // A Thumb program that writes one PMODADD command word-by-word
        // into the COMMANDFIFO port, then halts.
        let n = 1 << 8;
        let (mut chip, ring, _, _, _) = chip_with_ring(n);
        let a = rand_poly(&ring, n, 7);
        let b = rand_poly(&ring, n, 8);
        chip.write_polynomial(Slot::new(BankId(0), 0), &a).unwrap();
        chip.write_polynomial(Slot::new(BankId(1), 0), &b).unwrap();

        let cmd = Command::pmodadd(
            Slot::new(BankId(0), 0),
            Slot::new(BankId(1), 0),
            Slot::new(BankId(2), 0),
        );
        let words = cmd.encode();
        let mut asm = Asm::new();
        asm.ldr_const(0, GPCFG_BASE + Register::COMMANDFIFO.offset());
        for w in words {
            asm.ldr_const(1, w);
            asm.str(1, 0, 0);
        }
        asm.bkpt();
        let mut cpu = Cm0::new(asm.assemble().unwrap());
        let drained = chip.run_program(&mut cpu, 10_000).unwrap();
        assert!(drained.report.addsubs == n as u64, "command executed via CM0");
        assert_eq!(drained.executed, 1);
        assert_eq!(drained.compute_cycles, drained.serial_cycles, "PMODADD is a compute command");
        let expect: Vec<u128> = a.iter().zip(&b).map(|(&x, &y)| ring.add(x, y)).collect();
        assert_eq!(chip.read_polynomial(Slot::new(BankId(2), 0), n).unwrap(), expect);
    }

    #[test]
    fn register_reads_over_bus() {
        let mut chip = Chip::silicon().unwrap();
        assert_eq!(chip.read_register(Register::SIGNATURE).unwrap(), crate::SIGNATURE_VALUE);
        chip.load_parameters(Q109, 1 << 12, 1).unwrap();
        assert_eq!(chip.gpcfg().q(), Q109);
        assert_eq!(chip.gpcfg().n(), 1 << 12);
    }

    #[test]
    fn sram_bus_lane_access() {
        let mut chip = Chip::silicon().unwrap();
        let base = chip.memory().bank(BankId(0)).unwrap().base_a();
        // Write 4 lanes of one 128-bit word.
        for lane in 0..4u32 {
            chip.bus_write_u32(base + lane * 4, 0x1111_0000 + lane).unwrap();
        }
        let word = chip.read_polynomial(Slot::new(BankId(0), 0), 1).unwrap()[0];
        for lane in 0..4u32 {
            assert_eq!((word >> (32 * lane)) as u32, 0x1111_0000 + lane);
            assert_eq!(chip.bus_read_u32(base + lane * 4).unwrap(), 0x1111_0000 + lane);
        }
    }

    #[test]
    fn power_reporting_for_operations() {
        let n = 1 << 12;
        let (mut chip, ring, _, fwd, _) = chip_with_ring(n);
        let poly = rand_poly(&ring, n, 9);
        chip.write_polynomial(Slot::new(BankId(0), 0), &poly).unwrap();
        let report = chip
            .execute_now(Command::ntt(Slot::new(BankId(0), 0), fwd, Slot::new(BankId(1), 0)))
            .unwrap();
        let avg = chip.average_power_mw(&report);
        let peak = chip.power_model().peak_mw(&report.phases);
        // Table V: 24.5 avg / 30.4 peak.
        assert!((avg - 24.5).abs() < 1.3, "avg = {avg}");
        assert!((peak - 30.4).abs() < 1.0, "peak = {peak}");
    }
}
