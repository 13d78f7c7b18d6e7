//! The Multiplier Data Mover and Controller (MDMC).
//!
//! Section III-G2 of the paper: the MDMC decodes commands, streams
//! operands from the SRAMs into the PE every cycle, and writes results
//! back, with an internal state machine sequencing NTT stages and an
//! address-generation unit producing operand and twiddle addresses.
//!
//! # Cycle model
//!
//! Timing is derived from the microarchitecture, with two constants
//! calibrated once against Table V (see [`ChipConfig`]):
//!
//! * **NTT**: `log₂ n` stages of `n/2` butterflies at `II` each, plus
//!   `stage_overhead` (pipeline fill/drain + stage turnaround) per stage,
//!   plus the command-trigger cycle. `II = 1` when input and output live
//!   in distinct dual-port banks (the silicon's normal schedule);
//!   `II = 2` when single-port banks must be used (`n ≥ 2^14`,
//!   Section III-C).
//! * **iNTT**: the same stage body plus the `n⁻¹` constant-multiplication
//!   pass (a burst-streamed pointwise pass).
//! * **Pointwise passes**: `n·II + (n/burst)·gap + pass_setup` — the
//!   MDMC streams bursts of 16 words with a 2-cycle address-generator
//!   turnaround between bursts.
//!
//! With the silicon configuration this reproduces Table V exactly for NTT
//! (24,841 / 53,535 cycles) and iNTT (29,468 / 62,770), and PolyMul to
//! within 1 cycle in 83,777 (see the tests and EXPERIMENTS.md).
//!
//! # The processing element
//!
//! The paper's PE (Section III-E) is one pipelined Barrett multiplier
//! with a modular adder and subtractor. Here it is two things, and no
//! object of its own:
//!
//! * its arithmetic, the `Barrett128` ring of the `Q` register, which
//!   the MDMC holds and rebuilds only when `Q` changes;
//! * its timing, the calibrated cycle constants of [`ChipConfig`]
//!   (`stage_overhead`, `pass_setup`, the burst structure), which hold
//!   the multiplier's pipeline fill and drain.
//!
//! What the PE does for one command is counted once, in that command's
//! [`OpReport`] (`butterflies`, `mults`, `addsubs`); the power model
//! reads its [`PhaseCycles`].
//!
//! # Price and apply
//!
//! A command has two halves, and `Chip::execute_now` is the one followed
//! by the other:
//!
//! * [`Mdmc::price`] — everything that depends on the command, the
//!   configuration registers and the bank geometry, never on the data:
//!   every check the command makes (registers, operands, ports, the
//!   bounds of every range it names) and the [`OpReport`] (cycles,
//!   phases, PE activity, memory traffic). It reads no word and writes
//!   none.
//! * [`Mdmc::apply`] — *what* the command computes, a host-only matter
//!   done the way the die does it, in place on the banks, with no
//!   timing.
//!
//! A driver that knows its commands price cleanly can therefore run the
//! die's clock ahead of its arithmetic (`Chip::price_fifo`) and apply the
//! commands later, in the same order, on another thread.
//!
//! # Functional model
//!
//! * Every range a command names is bounds-checked before the first
//!   word is written, so a failing command leaves memory untouched.
//! * Streamed passes run one loop from borrowed source slices into the
//!   borrowed destination ([`Memory::split`]). When the destination
//!   shares a bank with a source, the first source is moved into it
//!   (nothing moves when they are one slot) and the second folded in
//!   there, staged first in a buffer the MDMC reuses only if it shares
//!   the destination's bank too. `MEMCPY` is a `memmove`; the `src == dst`
//!   DMA touch a driver queues to occupy the DMA engine moves nothing.
//! * NTT/iNTT take the plan-backed path when a plan is installed *and*
//!   the command names the twiddle table `Chip::load_plan` wrote for it,
//!   in a bank whose write generation has not moved since: the source is
//!   moved into the destination range and transformed there. Any other
//!   twiddle contents (golden vectors, `load_ring` bring-up, a bank
//!   written since, reprogrammed registers) run the faithful
//!   per-butterfly loop on the `Q` register's ring, which stays the
//!   reference, as does `MEMCPYR`.
//! * The arithmetic is as wide as the modulus. For a word-sized `q` the
//!   chip also installs the `Barrett64` plan; transforms and the
//!   multiplying passes then narrow their sources into a reusable
//!   scratch, compute at 64 bits and widen into the destination. A
//!   source word `≥ q` (SRAM written through the backdoor is not
//!   reduced) sends that command down the 128-bit path instead, so
//!   non-canonical contents behave exactly as they do without the
//!   narrow kernel.
//!
//! None of this is visible in any simulated number: those are the price.

use std::sync::Arc;

use cofhee_arith::{Barrett128, Barrett64, ModRing};
use cofhee_poly::bitrev::bit_reverse;
use cofhee_poly::{pointwise, HarveyNtt};

use crate::commands::{Command, Opcode};
use crate::config::ChipConfig;
use crate::error::{Result, SimError};
use crate::gpcfg::GpCfg;
use crate::mem::{Memory, Slot};

/// Cycles spent in each activity phase — the power model's input.
///
/// Phases are distinguished because the silicon measurements (Table V)
/// show distinct power levels for Cooley–Tukey butterfly streaming,
/// Gentleman–Sande streaming, constant-multiplication passes, and
/// Hadamard passes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// Forward (Cooley–Tukey) butterfly streaming.
    pub ct_butterfly: u64,
    /// Inverse (Gentleman–Sande) butterfly streaming.
    pub gs_butterfly: u64,
    /// Constant-multiplication pass (n⁻¹ scaling, CMODMUL).
    pub scale_pass: u64,
    /// Hadamard / squaring pass (PMODMUL, PMODSQR).
    pub hadamard_pass: u64,
    /// Add/sub pass (PMODADD, PMODSUB).
    pub addsub_pass: u64,
    /// Non-modular multiply pass (PMUL).
    pub raw_mul_pass: u64,
    /// DMA word movement (MEMCPY/MEMCPYR, prefetch).
    pub dma: u64,
    /// Pipeline fill/drain, burst gaps, setup, triggers.
    pub overhead: u64,
}

impl PhaseCycles {
    /// Total cycles across all phases (saturating, like the merges).
    pub fn total(&self) -> u64 {
        self.ct_butterfly
            .saturating_add(self.gs_butterfly)
            .saturating_add(self.scale_pass)
            .saturating_add(self.hadamard_pass)
            .saturating_add(self.addsub_pass)
            .saturating_add(self.raw_mul_pass)
            .saturating_add(self.dma)
            .saturating_add(self.overhead)
    }

    /// Merges another breakdown into this one. Sums saturate: a
    /// long-lived ledger (a farm replaying millions of jobs) pins at
    /// `u64::MAX` instead of wrapping.
    pub fn absorb(&mut self, other: &PhaseCycles) {
        self.ct_butterfly = self.ct_butterfly.saturating_add(other.ct_butterfly);
        self.gs_butterfly = self.gs_butterfly.saturating_add(other.gs_butterfly);
        self.scale_pass = self.scale_pass.saturating_add(other.scale_pass);
        self.hadamard_pass = self.hadamard_pass.saturating_add(other.hadamard_pass);
        self.addsub_pass = self.addsub_pass.saturating_add(other.addsub_pass);
        self.raw_mul_pass = self.raw_mul_pass.saturating_add(other.raw_mul_pass);
        self.dma = self.dma.saturating_add(other.dma);
        self.overhead = self.overhead.saturating_add(other.overhead);
    }
}

/// Execution statistics for one command — the latency ledger, and the
/// PE activity it issues: `butterflies`, `mults` and `addsubs` are the
/// one activity count (the power model reads `phases`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpReport {
    /// Total cycles the command occupied the MDMC (or DMA).
    pub cycles: u64,
    /// Butterflies retired.
    pub butterflies: u64,
    /// Standalone modular multiplies (pointwise passes).
    pub mults: u64,
    /// Standalone modular adds/subs.
    pub addsubs: u64,
    /// SRAM words read.
    pub mem_reads: u64,
    /// SRAM words written.
    pub mem_writes: u64,
    /// Words moved by DMA.
    pub dma_words: u64,
    /// Per-phase cycle breakdown.
    pub phases: PhaseCycles,
}

impl OpReport {
    /// Merges another report into this one (sequential composition).
    /// Every field sums saturating — aggregating cycle totals across a
    /// million-job replay pins at `u64::MAX` instead of wrapping into a
    /// silently small number.
    pub fn absorb(&mut self, other: &OpReport) {
        self.cycles = self.cycles.saturating_add(other.cycles);
        self.butterflies = self.butterflies.saturating_add(other.butterflies);
        self.mults = self.mults.saturating_add(other.mults);
        self.addsubs = self.addsubs.saturating_add(other.addsubs);
        self.mem_reads = self.mem_reads.saturating_add(other.mem_reads);
        self.mem_writes = self.mem_writes.saturating_add(other.mem_writes);
        self.dma_words = self.dma_words.saturating_add(other.dma_words);
        self.phases.absorb(&other.phases);
    }
}

/// The word-width functional kernel for a word-sized modulus: the
/// interned `Barrett64` plan plus the scratch the narrowed operands of
/// one command live in.
#[derive(Debug, Clone)]
struct NarrowKernel {
    plan: Arc<HarveyNtt<Barrett64>>,
    a: Vec<u64>,
    b: Vec<u64>,
}

/// Narrows `src` into `buf`; `false` when some word is not a canonical
/// residue below `q` (the buffer is then meaningless).
fn narrow(q: u64, buf: &mut Vec<u64>, src: &[u128]) -> bool {
    buf.clear();
    let mut canonical = true;
    buf.extend(src.iter().map(|&w| {
        canonical &= w < u128::from(q);
        w as u64
    }));
    canonical
}

fn widen(dst: &mut [u128], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = u128::from(s);
    }
}

/// The twiddle tables `Chip::load_plan` wrote for the installed plan:
/// forward and inverse slot, and each bank's write generation right
/// after the write.
#[derive(Debug, Clone, Copy)]
struct Pins {
    slots: [Slot; 2],
    generations: [Option<u64>; 2],
}

impl Pins {
    /// Whether `twiddle` names the pinned forward (inverse) table in a
    /// bank nobody has written since.
    fn hold(&self, twiddle: Slot, inverse: bool, mem: &Memory) -> bool {
        let i = usize::from(inverse);
        twiddle == self.slots[i] && mem.generation(twiddle.bank) == self.generations[i]
    }
}

/// The twiddle slot of a transform command.
fn twiddle_of(cmd: &Command) -> Result<Slot> {
    cmd.twiddle.ok_or_else(|| SimError::BadConfiguration {
        reason: "NTT requires a twiddle operand".into(),
    })
}

/// The second source of a two-input pass.
fn second_of(cmd: &Command) -> Result<Slot> {
    cmd.y.ok_or_else(|| SimError::BadConfiguration {
        reason: format!("{} requires a second operand", cmd.op.mnemonic()),
    })
}

/// The constant of `CMODMUL`.
fn constant_of(cmd: &Command) -> Result<u128> {
    cmd.constant
        .ok_or_else(|| SimError::BadConfiguration { reason: "CMODMUL requires a constant".into() })
}

/// The word count of a DMA command.
fn length_of(cmd: &Command) -> Result<usize> {
    cmd.len.ok_or_else(|| SimError::BadConfiguration {
        reason: "memory operations require a length".into(),
    })
}

/// The MDMC engine.
#[derive(Debug, Clone)]
pub(crate) struct Mdmc {
    config: ChipConfig,
    /// The PE's modulus: the `Q` register's ring, rebuilt only when `Q`
    /// changes.
    ring: Option<Barrett128>,
    /// Shared lazy transform plan for the currently loaded `(q, n)`,
    /// installed at table-load time (see `Chip::load_plan`). Used only
    /// as the *functional* fast path of NTT commands, and only while the
    /// twiddle banks still hold what `load_plan` wrote — so no
    /// per-command global-cache lock, and bank overwrites (golden
    /// vectors, custom tables) fall back to the faithful per-butterfly
    /// loop.
    ntt_plan: Option<Arc<HarveyNtt<Barrett128>>>,
    /// Where the plan's tables were written, and the banks' generations.
    pins: Option<Pins>,
    /// The same plan at word width, when `q` is word-sized.
    narrow: Option<NarrowKernel>,
    /// Staging for the second source of a pass whose destination shares
    /// its bank.
    staged: Vec<u128>,
}

impl Mdmc {
    /// Builds an MDMC for the given chip configuration.
    pub fn new(config: ChipConfig) -> Self {
        Self { config, ring: None, ntt_plan: None, pins: None, narrow: None, staged: Vec::new() }
    }

    /// Loads `q` into the PE — the effect of writing the `Q`,
    /// `BARRETTCTL1` and `BARRETTCTL2` registers.
    ///
    /// # Errors
    ///
    /// An arithmetic error for an invalid modulus.
    pub fn load_modulus(&mut self, q: u128) -> Result<()> {
        self.ring(q).map(drop)
    }

    /// The ring of modulus `q`, built only if it is not the one loaded.
    fn ring(&mut self, q: u128) -> Result<Barrett128> {
        match self.ring {
            Some(ring) if ring.q() == q => Ok(ring),
            _ => {
                let ring = Barrett128::new(q)?;
                self.ring = Some(ring);
                Ok(ring)
            }
        }
    }

    /// Installs (or clears) the shared lazy plan for the loaded
    /// parameters — the chip does this when it programs twiddle banks.
    /// Any word-width plan is cleared with it, and so are the pinned
    /// twiddle banks unless the plan is the one already installed.
    pub fn set_ntt_plan(&mut self, plan: Option<Arc<HarveyNtt<Barrett128>>>) {
        let same = matches!((&self.ntt_plan, &plan), (Some(a), Some(b)) if Arc::ptr_eq(a, b));
        if !same {
            self.pins = None;
        }
        self.ntt_plan = plan;
        self.narrow = None;
    }

    /// Records that the installed plan's forward and inverse tables now
    /// sit at `slots`: until either bank is written again, a transform
    /// naming them takes the plan-backed path.
    pub(crate) fn pin_twiddles(&mut self, slots: [Slot; 2], mem: &Memory) {
        self.pins = Some(Pins { slots, generations: slots.map(|s| mem.generation(s.bank)) });
    }

    /// Installs the word-width plan beside the wide one — but only if
    /// its forward and inverse tables and `n⁻¹` equal the wide plan's
    /// word for word. That is checked here, once; afterwards the pinned
    /// twiddle banks vouch for both.
    pub fn set_narrow_plan(&mut self, plan: Arc<HarveyNtt<Barrett64>>) {
        let same = |narrow: &[u64], wide: &[u128]| {
            narrow.len() == wide.len() && narrow.iter().zip(wide).all(|(&x, &y)| u128::from(x) == y)
        };
        let agrees = self.ntt_plan.as_ref().is_some_and(|wide| {
            let (nt, wt) = (plan.tables(), wide.tables());
            u128::from(plan.ring().q()) == wide.ring().q()
                && same(nt.forward_twiddles(), wt.forward_twiddles())
                && same(nt.inverse_twiddles(), wt.inverse_twiddles())
                && u128::from(nt.n_inv()) == wt.n_inv()
        });
        self.narrow = agrees.then(|| NarrowKernel { plan, a: Vec::new(), b: Vec::new() });
    }

    /// Whether the word-width kernel is installed.
    #[cfg(test)]
    pub(crate) fn computes_narrow(&self) -> bool {
        self.narrow.is_some()
    }

    /// Initiation interval for NTT butterflies given the operand banks.
    fn ntt_ii(&self, mem: &Memory, cmd: &Command, n: usize) -> Result<u64> {
        let src_dual = mem.bank(cmd.x.bank)?.is_dual_port();
        let dst_dual = mem.bank(cmd.dst.bank)?.is_dual_port();
        let fits = n <= self.config.max_onchip_n;
        // II = 1 needs both compute banks dual-ported, distinct, and the
        // polynomial within the on-chip optimum (Section III-C).
        if fits && src_dual && dst_dual && cmd.x.bank != cmd.dst.bank {
            Ok(1)
        } else {
            Ok(2)
        }
    }

    /// Initiation interval for streamed pointwise passes.
    fn pass_ii(&self, mem: &Memory, cmd: &Command) -> Result<u64> {
        let src_dual = mem.bank(cmd.x.bank)?.is_dual_port();
        let two_src_ok = match cmd.y {
            // Two sources stream at II=1 when they sit in different banks
            // or share a dual-port bank.
            Some(y) => y.bank != cmd.x.bank || src_dual,
            None => true,
        };
        if two_src_ok {
            Ok(1)
        } else {
            Ok(2)
        }
    }

    /// Cycle cost of a burst-streamed pointwise pass over `n` words.
    fn pass_cycles(&self, n: usize, ii: u64) -> u64 {
        let bursts = (n as u64).div_ceil(self.config.stream_burst as u64);
        n as u64 * ii + bursts * self.config.burst_gap as u64 + self.config.pass_setup as u64
    }

    /// Cycle cost of an NTT/iNTT stage body over `log₂ n` stages.
    fn stage_cycles(&self, n: usize, ii: u64) -> u64 {
        let stages = n.trailing_zeros() as u64;
        let per_pe = (n as u64 / 2).div_ceil(self.config.pe_count as u64);
        stages * (per_pe * ii + self.config.stage_overhead as u64)
    }

    /// Prices one command — the cycle and activity report, and every
    /// check its execution makes — reading and writing no word.
    ///
    /// # Errors
    ///
    /// Configuration, bounds and conflict errors. Every range the
    /// command names is checked, so a command that fails here is one
    /// that would have left memory untouched.
    pub fn price(&mut self, cmd: &Command, mem: &Memory, gpcfg: &GpCfg) -> Result<OpReport> {
        match cmd.op {
            Opcode::Ntt => self.price_ntt(cmd, mem, gpcfg, false),
            Opcode::Intt => self.price_ntt(cmd, mem, gpcfg, true),
            Opcode::PModAdd | Opcode::PModSub | Opcode::PModMul | Opcode::PMul => {
                self.price_two_input(cmd, mem, gpcfg)
            }
            Opcode::PModSqr => self.price_one_input(cmd, mem, gpcfg, false),
            Opcode::CModMul => self.price_one_input(cmd, mem, gpcfg, true),
            Opcode::MemCpy | Opcode::MemCpyR => self.price_memcpy(cmd, mem),
        }
    }

    /// Applies one command's functional effect to memory, with no
    /// timing — what [`Mdmc::price`] priced.
    ///
    /// # Errors
    ///
    /// The errors [`Mdmc::price`] reports for the same command; a
    /// command that priced cleanly against these registers and banks
    /// applies cleanly.
    pub fn apply(&mut self, cmd: &Command, mem: &mut Memory, gpcfg: &GpCfg) -> Result<()> {
        if matches!(cmd.op, Opcode::MemCpy | Opcode::MemCpyR) {
            return Self::apply_memcpy(cmd, mem);
        }
        let n = self.operand_n(gpcfg)?;
        let ring = self.ring(gpcfg.q())?;
        match cmd.op {
            Opcode::Ntt => self.apply_ntt(cmd, mem, &ring, gpcfg, n, false),
            Opcode::Intt => self.apply_ntt(cmd, mem, &ring, gpcfg, n, true),
            Opcode::PModAdd => self.pass(mem, cmd, second_of(cmd)?, n, |a, b| ring.add(a, b)),
            Opcode::PModSub => self.pass(mem, cmd, second_of(cmd)?, n, |a, b| ring.sub(a, b)),
            Opcode::PModMul => self.mul_pass(mem, cmd, second_of(cmd)?, None, &ring, n),
            // PMUL bypasses the reduction stages: the low 128 bits of
            // the raw product leave the multiplier array.
            Opcode::PMul => self.pass(mem, cmd, second_of(cmd)?, n, |a, b| a.wrapping_mul(b)),
            Opcode::PModSqr => self.mul_pass(mem, cmd, cmd.x, None, &ring, n),
            Opcode::CModMul => self.mul_pass(mem, cmd, cmd.x, Some(constant_of(cmd)?), &ring, n),
            Opcode::MemCpy | Opcode::MemCpyR => unreachable!("DMA commands returned above"),
        }
    }

    fn operand_n(&self, gpcfg: &GpCfg) -> Result<usize> {
        let n = gpcfg.n();
        if n < 2 || !n.is_power_of_two() {
            return Err(SimError::BadConfiguration {
                reason: format!("N register holds invalid degree {n}"),
            });
        }
        Ok(n)
    }

    fn price_ntt(
        &mut self,
        cmd: &Command,
        mem: &Memory,
        gpcfg: &GpCfg,
        inverse: bool,
    ) -> Result<OpReport> {
        let n = self.operand_n(gpcfg)?;
        self.ring(gpcfg.q())?;
        let twiddle = twiddle_of(cmd)?;
        if twiddle.bank == cmd.x.bank || twiddle.bank == cmd.dst.bank {
            // Operands and twiddles are fetched in the same cycle from
            // different memories (Section III-G2).
            return Err(SimError::PortConflict { bank: mem.bank(twiddle.bank)?.name() });
        }
        // Every range is checked, in the order their errors have always
        // been reported: source, twiddles, destination.
        mem.slice(cmd.x, n)?;
        mem.slice(twiddle, n)?;
        mem.slice(cmd.dst, n)?;
        let ii = self.ntt_ii(mem, cmd, n)?;

        let stages = n.trailing_zeros() as u64;
        let per_pe = (n as u64 / 2).div_ceil(self.config.pe_count as u64);
        let stage_active = stages * per_pe * ii;
        let stage_overhead = stages * self.config.stage_overhead as u64;
        let b = (n as u64 / 2) * stages;
        let mut report = OpReport {
            cycles: self.stage_cycles(n, ii),
            butterflies: b,
            // Each butterfly reads 2 operands + 1 twiddle, writes 2.
            mem_reads: 3 * b,
            mem_writes: 2 * b,
            ..OpReport::default()
        };
        report.phases.overhead = stage_overhead;

        if inverse {
            let pass_ii = 1; // scaling reads/writes through one dual-port bank
            report.cycles += self.pass_cycles(n, pass_ii);
            report.mults += n as u64;
            report.mem_reads += n as u64;
            report.mem_writes += n as u64;
            report.phases.gs_butterfly = stage_active;
            report.phases.scale_pass = n as u64;
            report.phases.overhead += report.cycles - stage_active - stage_overhead - n as u64;
        } else {
            report.cycles += self.config.cmd_trigger as u64;
            report.phases.ct_butterfly = stage_active;
            report.phases.overhead += self.config.cmd_trigger as u64;
        }
        debug_assert_eq!(report.phases.total(), report.cycles);
        Ok(report)
    }

    fn apply_ntt(
        &mut self,
        cmd: &Command,
        mem: &mut Memory,
        ring: &Barrett128,
        gpcfg: &GpCfg,
        n: usize,
        inverse: bool,
    ) -> Result<()> {
        let twiddle = twiddle_of(cmd)?;
        // Host-side fast path: when the command names the canonical
        // table `Chip::load_plan` wrote for the loaded (q, n), and its
        // bank has not been written since, the functional result is
        // computed through the shared Harvey lazy plan (bit-exact with
        // the per-butterfly loop; see `cofhee_poly::lazy`). Custom
        // twiddle contents (golden vectors, partial tables, reprogrammed
        // registers) take the faithful per-element loop below.
        let pins = self.pins;
        let fast = self.ntt_plan.as_ref().filter(|p| {
            p.is_lazy()
                && p.n() == n
                && p.ring().q() == gpcfg.q()
                && pins.is_some_and(|pins| pins.hold(twiddle, inverse, mem))
                && (!inverse || gpcfg.inv_polydeg() == p.tables().n_inv())
        });

        let Some(plan) = fast else {
            let mut data = mem.read_slice(cmd.x, n)?;
            let tw = mem.slice(twiddle, n)?;
            if inverse {
                // Gentleman–Sande stages, then the n⁻¹ scaling pass.
                let mut t = 1;
                let mut m = n;
                while m > 1 {
                    let h = m / 2;
                    let mut j1 = 0;
                    for i in 0..h {
                        let w = tw[h + i];
                        for j in j1..j1 + t {
                            let u = data[j];
                            let v = data[j + t];
                            data[j] = ring.add(u, v);
                            data[j + t] = ring.mul(ring.sub(u, v), w);
                        }
                        j1 += 2 * t;
                    }
                    t *= 2;
                    m = h;
                }
                let n_inv = gpcfg.inv_polydeg();
                for x in data.iter_mut() {
                    *x = ring.mul(*x, n_inv);
                }
            } else {
                // Cooley–Tukey stages with sequential twiddle
                // consumption: the PE's butterfly, (u + w·v, u − w·v).
                let mut t = n;
                let mut m = 1;
                while m < n {
                    t /= 2;
                    for i in 0..m {
                        let w = tw[m + i];
                        let j1 = 2 * i * t;
                        for j in j1..j1 + t {
                            let wv = ring.mul(w, data[j + t]);
                            (data[j], data[j + t]) = (ring.add(data[j], wv), ring.sub(data[j], wv));
                        }
                    }
                    m *= 2;
                }
            }
            return mem.write_slice(cmd.dst, &data);
        };

        let rejected = |e| SimError::BadConfiguration {
            reason: format!("lazy NTT plan rejected operands: {e}"),
        };
        // Word-sized modulus and canonical source words: the same
        // transform on the 64-bit plan, through the scratch.
        if let Some(k) = &mut self.narrow {
            if narrow(k.plan.ring().q(), &mut k.a, mem.slice(cmd.x, n)?) {
                if inverse {
                    k.plan.inverse_inplace(&mut k.a).map_err(rejected)?;
                } else {
                    k.plan.forward_inplace(&mut k.a).map_err(rejected)?;
                }
                widen(mem.slice_mut(cmd.dst, n)?, &k.a);
                return Ok(());
            }
        }
        mem.memmove(cmd.x, cmd.dst, n)?;
        let data = mem.slice_mut(cmd.dst, n)?;
        if inverse {
            plan.inverse_inplace(data).map_err(rejected)
        } else {
            plan.forward_inplace(data).map_err(rejected)
        }
    }

    /// One streamed pass `dst[j] = f(x[j], y[j])` over `n` words.
    fn pass(
        &mut self,
        mem: &mut Memory,
        cmd: &Command,
        y: Slot,
        n: usize,
        f: impl Fn(u128, u128) -> u128,
    ) -> Result<()> {
        self.run(
            mem,
            cmd,
            y,
            n,
            |out, a, b| {
                out.iter_mut().zip(a).zip(b).for_each(|((o, &a), &b)| *o = f(a, b));
                Ok(())
            },
            |out, b| {
                out.iter_mut().zip(b).for_each(|(o, &b)| *o = f(*o, b));
                Ok(())
            },
        )
    }

    /// `dst = x ∘ y` over `n` words: `fresh(out, x, y)` straight from
    /// the source banks when the destination shares a bank with neither
    /// source; otherwise `onto(out, y)` once the destination holds `x`
    /// (nothing moves when `dst == x`), with `y` staged first only if it
    /// shares the destination's bank.
    fn run(
        &mut self,
        mem: &mut Memory,
        cmd: &Command,
        y: Slot,
        n: usize,
        fresh: impl FnOnce(&mut [u128], &[u128], &[u128]) -> Result<()>,
        onto: impl FnOnce(&mut [u128], &[u128]) -> Result<()>,
    ) -> Result<()> {
        // Every range is checked here, before anything is written.
        if let Some((out, [a, b])) = mem.split(cmd.dst, [cmd.x, y], n)? {
            return fresh(out, a, b);
        }
        if y.bank != cmd.dst.bank {
            mem.memmove(cmd.x, cmd.dst, n)?;
            let (out, [b]) = mem.split(cmd.dst, [y], n)?.expect("y lies in another bank");
            return onto(out, b);
        }
        self.staged.clear();
        self.staged.extend_from_slice(mem.slice(y, n)?);
        mem.memmove(cmd.x, cmd.dst, n)?;
        onto(mem.slice_mut(cmd.dst, n)?, &self.staged)
    }

    /// A multiplying pass — `x[j]·y[j]`, or `x[j]·c` when `c` is given —
    /// modulo the PE's modulus `q`: on the word-width kernel when one is
    /// installed for `q`, else on the [`pointwise`] kernels at 128 bits;
    /// whenever an operand is not a canonical residue, one element at a
    /// time on `ring`.
    fn mul_pass(
        &mut self,
        mem: &mut Memory,
        cmd: &Command,
        y: Slot,
        c: Option<u128>,
        ring: &Barrett128,
        n: usize,
    ) -> Result<()> {
        let rejected = |e| SimError::BadConfiguration { reason: format!("multiplying pass: {e}") };
        if let Some(k) = self.narrow.as_mut().filter(|k| u128::from(k.plan.ring().q()) == ring.q())
        {
            let ring = *k.plan.ring();
            let canonical = narrow(ring.q(), &mut k.a, mem.slice(cmd.x, n)?)
                && match c {
                    Some(c) => c < u128::from(ring.q()),
                    None => narrow(ring.q(), &mut k.b, mem.slice(y, n)?),
                };
            if canonical {
                match c {
                    Some(c) => pointwise::scalar_mul_assign(&ring, &mut k.a, c as u64),
                    None => pointwise::mul_assign(&ring, &mut k.a, &k.b).map_err(rejected)?,
                }
                widen(mem.slice_mut(cmd.dst, n)?, &k.a);
                return Ok(());
            }
        }
        let q = ring.q();
        let canonical = |words: &[u128]| words.iter().all(|&w| w < q);
        let canonical = canonical(mem.slice(cmd.x, n)?)
            && match c {
                Some(c) => c < q,
                None => canonical(mem.slice(y, n)?),
            };
        let mul =
            |out: &mut [u128], b: &[u128]| pointwise::mul_assign(ring, out, b).map_err(rejected);
        match c {
            Some(c) if canonical => {
                mem.memmove(cmd.x, cmd.dst, n)?;
                pointwise::scalar_mul_assign(ring, mem.slice_mut(cmd.dst, n)?, c);
                Ok(())
            }
            None if canonical => self.run(
                mem,
                cmd,
                y,
                n,
                |out, a, b| {
                    out.copy_from_slice(a);
                    mul(out, b)
                },
                mul,
            ),
            Some(c) => self.pass(mem, cmd, y, n, |a, _| ring.mul(a, c)),
            None => self.pass(mem, cmd, y, n, |a, b| ring.mul(a, b)),
        }
    }

    fn price_two_input(&mut self, cmd: &Command, mem: &Memory, gpcfg: &GpCfg) -> Result<OpReport> {
        let n = self.operand_n(gpcfg)?;
        self.ring(gpcfg.q())?;
        let y = second_of(cmd)?;
        // Sources in order, then the destination: what the pass checks.
        for slot in [cmd.x, y, cmd.dst] {
            mem.slice(slot, n)?;
        }
        let ii = self.pass_ii(mem, cmd)?;
        let mut report = OpReport {
            cycles: self.pass_cycles(n, ii),
            mem_reads: 2 * n as u64,
            mem_writes: n as u64,
            ..OpReport::default()
        };
        let active = n as u64 * ii;
        match cmd.op {
            Opcode::PModAdd | Opcode::PModSub => {
                report.addsubs = n as u64;
                report.phases.addsub_pass = active;
            }
            Opcode::PMul => {
                report.mults = n as u64;
                report.phases.raw_mul_pass = active;
            }
            _ => {
                report.mults = n as u64;
                report.phases.hadamard_pass = active;
            }
        }
        report.phases.overhead = report.cycles - active;
        Ok(report)
    }

    /// `PMODSQR`, or `CMODMUL` when `scaling`: one source, one multiply
    /// pass.
    fn price_one_input(
        &mut self,
        cmd: &Command,
        mem: &Memory,
        gpcfg: &GpCfg,
        scaling: bool,
    ) -> Result<OpReport> {
        let n = self.operand_n(gpcfg)?;
        self.ring(gpcfg.q())?;
        if scaling {
            constant_of(cmd)?;
        }
        mem.slice(cmd.x, n)?;
        mem.slice(cmd.dst, n)?;
        let cycles = self.pass_cycles(n, 1);
        let active = n as u64;
        let mut phases = PhaseCycles { overhead: cycles - active, ..PhaseCycles::default() };
        if scaling {
            phases.scale_pass = active;
        } else {
            phases.hadamard_pass = active;
        }
        Ok(OpReport {
            cycles,
            mults: n as u64,
            mem_reads: n as u64,
            mem_writes: n as u64,
            phases,
            ..OpReport::default()
        })
    }

    fn price_memcpy(&self, cmd: &Command, mem: &Memory) -> Result<OpReport> {
        let len = length_of(cmd)?;
        mem.slice(cmd.x, len)?;
        if cmd.op == Opcode::MemCpyR && !len.is_power_of_two() {
            return Err(SimError::BadConfiguration {
                reason: format!("MEMCPYR length {len} must be a power of two"),
            });
        }
        mem.slice(cmd.dst, len)?;
        Ok(OpReport {
            cycles: len as u64 + self.config.dma_setup as u64,
            mem_reads: len as u64,
            mem_writes: len as u64,
            dma_words: len as u64,
            phases: PhaseCycles {
                dma: len as u64,
                overhead: self.config.dma_setup as u64,
                ..PhaseCycles::default()
            },
            ..OpReport::default()
        })
    }

    fn apply_memcpy(cmd: &Command, mem: &mut Memory) -> Result<()> {
        let len = length_of(cmd)?;
        if cmd.op == Opcode::MemCpy {
            // A memmove; the `src == dst` touch a driver queues to occupy
            // the DMA engine is checked and moves nothing.
            return mem.memmove(cmd.x, cmd.dst, len);
        }
        let data = mem.read_slice(cmd.x, len)?;
        if !len.is_power_of_two() {
            return Err(SimError::BadConfiguration {
                reason: format!("MEMCPYR length {len} must be a power of two"),
            });
        }
        let bits = len.trailing_zeros();
        let mut out = vec![0u128; len];
        for (i, &v) in data.iter().enumerate() {
            out[bit_reverse(i, bits)] = v;
        }
        mem.write_slice(cmd.dst, &out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{BankId, Slot};
    use cofhee_arith::{primes::ntt_prime, roots::RootSet, Barrett128, ModRing};
    use cofhee_poly::ntt::{self, NttTables};

    const Q109: u128 = 324518553658426726783156020805633;

    struct Rig {
        mdmc: Mdmc,
        mem: Memory,
        gpcfg: GpCfg,
        tables: NttTables<Barrett128>,
        ring: Barrett128,
        n: usize,
    }

    fn rig(n: usize) -> Rig {
        rig_with_q(n, Q109)
    }

    fn rig_with_q(n: usize, q: u128) -> Rig {
        let config = ChipConfig::silicon();
        let mem = Memory::from_config(&config);
        let mut gpcfg = GpCfg::new();
        let ring = Barrett128::new(q).unwrap();
        let roots = RootSet::new(&ring, n).unwrap();
        let tables = NttTables::from_roots(&ring, &roots);
        gpcfg.set_q(q);
        gpcfg.set_n(n);
        gpcfg.set_inv_polydeg(roots.n_inv);
        Rig { mdmc: Mdmc::new(config), mem, gpcfg, tables, ring, n }
    }

    impl Rig {
        /// Prices, then applies: `Chip::execute_now` without the engine
        /// clocks.
        fn execute(&mut self, cmd: &Command) -> Result<OpReport> {
            let report = self.mdmc.price(cmd, &self.mem, &self.gpcfg)?;
            self.mdmc.apply(cmd, &mut self.mem, &self.gpcfg)?;
            Ok(report)
        }
    }

    fn load_twiddles(r: &mut Rig, forward: bool) -> Slot {
        // Forward twiddles in the designated twiddle bank; inverse in the
        // next single-port bank (the driver in cofhee-core does the same).
        let roles = r.mem.roles();
        let slot = if forward {
            Slot::new(roles.twiddle, 0)
        } else {
            Slot::new(BankId(roles.twiddle.0 + 1), 0)
        };
        let tw: Vec<u128> = if forward {
            r.tables.forward_twiddles().to_vec()
        } else {
            r.tables.inverse_twiddles().to_vec()
        };
        r.mem.write_slice(slot, &tw).unwrap();
        slot
    }

    fn rand_poly(r: &Rig, seed: u128) -> Vec<u128> {
        let mut state = seed | 1;
        (0..r.n)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x1405);
                r.ring.from_u128(state)
            })
            .collect()
    }

    #[test]
    fn ntt_cycle_counts_match_table5() {
        // Table V: 24,841 cc (n=2^12) and 53,535 cc (n=2^13).
        for (log_n, expect) in [(12u32, 24_841u64), (13, 53_535)] {
            let n = 1usize << log_n;
            let q = if n <= 1 << 13 { Q109 } else { ntt_prime(109, n).unwrap() };
            let mut r = rig_with_q(n, q);
            let tw = load_twiddles(&mut r, true);
            let x = Slot::new(BankId(0), 0);
            let dst = Slot::new(BankId(1), 0);
            let poly = rand_poly(&r, 3);
            r.mem.write_slice(x, &poly).unwrap();
            let cmd = Command::ntt(x, tw, dst);
            let rep = r.execute(&cmd).unwrap();
            assert_eq!(rep.cycles, expect, "NTT cycles for n = 2^{log_n}");
        }
    }

    #[test]
    fn intt_cycle_counts_match_table5() {
        // Table V: 29,468 cc (n=2^12) and 62,770 cc (n=2^13).
        for (log_n, expect) in [(12u32, 29_468u64), (13, 62_770)] {
            let n = 1usize << log_n;
            let mut r = rig(n);
            let tw = load_twiddles(&mut r, false);
            let x = Slot::new(BankId(0), 0);
            let dst = Slot::new(BankId(1), 0);
            let poly = rand_poly(&r, 5);
            r.mem.write_slice(x, &poly).unwrap();
            let cmd = Command::intt(x, tw, dst);
            let rep = r.execute(&cmd).unwrap();
            assert_eq!(rep.cycles, expect, "iNTT cycles for n = 2^{log_n}");
        }
    }

    #[test]
    fn ntt_matches_golden_model_and_inverts() {
        let n = 1 << 10;
        let mut r = rig(n);
        let tw_f = load_twiddles(&mut r, true);
        let tw_i = load_twiddles(&mut r, false);
        let x = Slot::new(BankId(0), 0);
        let mid = Slot::new(BankId(1), 0);
        let back = Slot::new(BankId(0), 0);
        let poly = rand_poly(&r, 7);
        r.mem.write_slice(x, &poly).unwrap();

        r.execute(&Command::ntt(x, tw_f, mid)).unwrap();
        // Against the software golden model.
        let mut expect = poly.clone();
        ntt::forward_inplace(&r.ring, &mut expect, &r.tables).unwrap();
        assert_eq!(r.mem.read_slice(mid, n).unwrap(), expect);

        r.execute(&Command::intt(mid, tw_i, back)).unwrap();
        assert_eq!(r.mem.read_slice(back, n).unwrap(), poly, "round trip");
    }

    #[test]
    fn single_port_destination_doubles_ii() {
        let n = 1 << 10;
        let mut r = rig(n);
        let tw = load_twiddles(&mut r, true);
        let poly = rand_poly(&r, 9);
        let x = Slot::new(BankId(0), 0);
        r.mem.write_slice(x, &poly).unwrap();
        let dual = r.execute(&Command::ntt(x, tw, Slot::new(BankId(1), 0))).unwrap();
        r.mem.write_slice(x, &poly).unwrap();
        let single = r.execute(&Command::ntt(x, tw, Slot::new(BankId(4), 0))).unwrap();
        let stages = n.trailing_zeros() as u64;
        assert_eq!(single.cycles - dual.cycles, stages * (n as u64 / 2), "II 1 → 2");
    }

    #[test]
    fn twiddle_bank_conflict_is_rejected() {
        let n = 1 << 8;
        let mut r = rig(n);
        let x = Slot::new(BankId(0), 0);
        // Twiddles in the same bank as the source: operand and twiddle
        // fetches would collide.
        let cmd = Command::ntt(x, Slot::new(BankId(0), n), Slot::new(BankId(1), 0));
        assert!(matches!(r.execute(&cmd), Err(SimError::PortConflict { .. })));
    }

    #[test]
    fn pointwise_ops_compute_correctly() {
        let n = 1 << 8;
        let mut r = rig(n);
        let a = rand_poly(&r, 11);
        let b = rand_poly(&r, 13);
        let sa = Slot::new(BankId(0), 0);
        let sb = Slot::new(BankId(1), 0);
        let dst = Slot::new(BankId(2), 0);
        r.mem.write_slice(sa, &a).unwrap();
        r.mem.write_slice(sb, &b).unwrap();

        for (cmd, expect) in [
            (
                Command::pmodadd(sa, sb, dst),
                a.iter().zip(&b).map(|(&x, &y)| r.ring.add(x, y)).collect::<Vec<_>>(),
            ),
            (
                Command::pmodsub(sa, sb, dst),
                a.iter().zip(&b).map(|(&x, &y)| r.ring.sub(x, y)).collect(),
            ),
            (
                Command::pmodmul(sa, sb, dst),
                a.iter().zip(&b).map(|(&x, &y)| r.ring.mul(x, y)).collect(),
            ),
            (
                Command::pmul(sa, sb, dst),
                a.iter().zip(&b).map(|(&x, &y)| x.wrapping_mul(y)).collect(),
            ),
            (Command::pmodsqr(sa, dst), a.iter().map(|&x| r.ring.sqr(x)).collect()),
            (Command::cmodmul(sa, 12345, dst), a.iter().map(|&x| r.ring.mul(x, 12345)).collect()),
        ] {
            r.execute(&cmd).unwrap();
            assert_eq!(r.mem.read_slice(dst, n).unwrap(), expect, "{} output", cmd.op.mnemonic());
        }
    }

    #[test]
    fn hadamard_pass_cost_matches_calibration() {
        // PolyMul(2^12) = 2·NTT + Hadamard + iNTT = 83,777 in Table V;
        // the Hadamard residual is 4,627 ≈ n + n/8 + 19. Our model gives
        // n + n/8 + 20 = 4,628 (composite PolyMul lands within 1 cycle).
        let n = 1 << 12;
        let mut r = rig(n);
        let a = rand_poly(&r, 1);
        let sa = Slot::new(BankId(0), 0);
        let sb = Slot::new(BankId(1), 0);
        r.mem.write_slice(sa, &a).unwrap();
        r.mem.write_slice(sb, &a).unwrap();
        let rep = r.execute(&Command::pmodmul(sa, sb, Slot::new(BankId(2), 0))).unwrap();
        let bursts = (n as u64).div_ceil(16);
        assert_eq!(rep.cycles, n as u64 + bursts * 2 + 20);
    }

    #[test]
    fn memcpy_and_memcpyr_move_data() {
        let n = 1 << 6;
        let mut r = rig(n);
        let data: Vec<u128> = (0..n as u128).collect();
        let src = Slot::new(BankId(3), 0);
        let dst = Slot::new(BankId(4), 0);
        r.mem.write_slice(src, &data).unwrap();
        let rep = r.execute(&Command::memcpy(src, dst, n)).unwrap();
        assert_eq!(r.mem.read_slice(dst, n).unwrap(), data);
        assert_eq!(rep.cycles, n as u64 + 4);
        assert_eq!(rep.dma_words, n as u64);

        r.execute(&Command::memcpyr(src, dst, n)).unwrap();
        let got = r.mem.read_slice(dst, n).unwrap();
        let bits = n.trailing_zeros();
        for i in 0..n {
            assert_eq!(got[bit_reverse(i, bits)], data[i]);
        }
    }

    #[test]
    fn memcpyr_requires_power_of_two() {
        let mut r = rig(1 << 6);
        let cmd = Command::memcpyr(Slot::new(BankId(3), 0), Slot::new(BankId(4), 0), 48);
        assert!(r.execute(&cmd).is_err());
    }

    #[test]
    fn bad_n_register_is_rejected() {
        let mut r = rig(1 << 6);
        r.gpcfg.set_n(100); // not a power of two
        let tw = Slot::new(BankId(3), 0);
        let cmd = Command::ntt(Slot::new(BankId(0), 0), tw, Slot::new(BankId(1), 0));
        assert!(matches!(r.execute(&cmd), Err(SimError::BadConfiguration { .. })));
    }

    #[test]
    fn requires_modulus_before_compute() {
        // An unprogrammed Q register (0) has no Barrett ring: a modular
        // command refuses to run until Q is set.
        let mut r = rig(1 << 6);
        let cmd = pmodadd_cmd();
        r.gpcfg.set_q(0);
        assert!(r.execute(&cmd).is_err());
        assert!(r.mdmc.load_modulus(0).is_err());
        r.gpcfg.set_q(Q109);
        r.execute(&cmd).unwrap();
    }

    #[test]
    fn rejects_even_modulus() {
        // An even modulus has no Barrett ring either.
        let mut r = rig(1 << 6);
        r.gpcfg.set_q(1 << 64);
        assert!(r.execute(&pmodadd_cmd()).is_err());
        assert!(r.mdmc.load_modulus(1 << 64).is_err());
    }

    fn pmodadd_cmd() -> Command {
        Command::pmodadd(Slot::new(BankId(0), 0), Slot::new(BankId(1), 0), Slot::new(BankId(2), 0))
    }

    #[test]
    fn multi_pe_configuration_speeds_up_ntt() {
        // Section VIII-A: 4 PEs ≈ 4× butterfly throughput.
        let n = 1 << 12;
        let cfg4 = ChipConfig::with_pe_count(4);
        cfg4.validate().unwrap();
        let r1 = Mdmc::new(ChipConfig::silicon());
        let r4 = Mdmc::new(cfg4);
        let c1 = r1.stage_cycles(n, 1);
        let c4 = r4.stage_cycles(n, 1);
        let ratio = c1 as f64 / c4 as f64;
        assert!(ratio > 3.5 && ratio <= 4.0, "4-PE speedup ratio = {ratio}");
    }
}
