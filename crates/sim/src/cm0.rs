//! The ARM Cortex-M0 command sequencer — execution mode 3.
//!
//! Section III-I of the paper: "for a faster and flexible sequencing and
//! execution of commands, we introduce a third mode, which utilizes a
//! 32-bit ARM Cortex M0 along with a dedicated instruction memory. …
//! One can write complex subroutines and sequence of operations in
//! embedded C, then compile and preload it in CM0's instruction memory."
//!
//! This module implements the architecturally relevant core of that
//! flow: an ARMv6-M Thumb-subset interpreter with the Cortex-M memory
//! map (instruction memory in the code region, peripherals through the
//! bus), plus a small structured assembler ([`Asm`]) standing in for the
//! embedded-C toolchain. The subset covers everything command-sequencing
//! programs need: immediate/register moves and arithmetic, logic, shifts,
//! memory-mapped loads/stores, compares, conditional branches, and
//! `BKPT`/`WFI` for completion and interrupt waits.

// Thumb opcode literals below are grouped by instruction field (opcode |
// register | immediate), not by uniform nibbles.
#![allow(clippy::unusual_byte_groupings)]

use crate::error::{Result, SimError};

/// Condition codes for `B<cond>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal (Z set).
    Eq,
    /// Not equal (Z clear).
    Ne,
    /// Unsigned higher or same (C set).
    Hs,
    /// Unsigned lower (C clear).
    Lo,
    /// Negative (N set).
    Mi,
    /// Positive or zero (N clear).
    Pl,
    /// Signed greater than or equal.
    Ge,
    /// Signed less than.
    Lt,
}

impl Cond {
    fn encoding(self) -> u16 {
        match self {
            Cond::Eq => 0x0,
            Cond::Ne => 0x1,
            Cond::Hs => 0x2,
            Cond::Lo => 0x3,
            Cond::Mi => 0x4,
            Cond::Pl => 0x5,
            Cond::Ge => 0xA,
            Cond::Lt => 0xB,
        }
    }
}

/// Everything the CM0 can reach through the AHB: SRAM banks, the GPCFG
/// window, the command FIFO. The chip implements this.
pub trait Cm0Bus {
    /// 32-bit load.
    ///
    /// # Errors
    ///
    /// Address-decode failures.
    fn read_u32(&mut self, address: u32) -> Result<u32>;

    /// 32-bit store.
    ///
    /// # Errors
    ///
    /// Address-decode failures.
    fn write_u32(&mut self, address: u32, value: u32) -> Result<()>;
}

/// Why the CPU stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// Hit a `BKPT` — normal program completion in this environment.
    Breakpoint,
    /// Executed `WFI` — waiting for an interrupt.
    WaitForInterrupt,
}

/// The Cortex-M0 model.
#[derive(Debug, Clone)]
pub struct Cm0 {
    regs: [u32; 16],
    flag_n: bool,
    flag_z: bool,
    flag_c: bool,
    flag_v: bool,
    imem: Vec<u16>,
    cycles: u64,
}

const PC: usize = 15;

impl Cm0 {
    /// A CPU with the given program preloaded at address 0.
    pub fn new(program: Vec<u16>) -> Self {
        Self {
            regs: [0; 16],
            flag_n: false,
            flag_z: false,
            flag_c: false,
            flag_v: false,
            imem: program,
            cycles: 0,
        }
    }

    /// General-purpose register read (for tests/diagnostics).
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i]
    }

    /// Cycles consumed so far.
    #[cfg(test)]
    pub(crate) fn cycles(&self) -> u64 {
        self.cycles
    }

    fn set_nz(&mut self, v: u32) {
        self.flag_n = (v as i32) < 0;
        self.flag_z = v == 0;
    }

    fn add_with_flags(&mut self, a: u32, b: u32, carry_in: u32) -> u32 {
        let wide = a as u64 + b as u64 + carry_in as u64;
        let r = wide as u32;
        self.flag_c = wide > u32::MAX as u64;
        self.flag_v = ((a ^ r) & (b ^ r)) >> 31 == 1;
        self.set_nz(r);
        r
    }

    fn cond_holds(&self, cond: u16) -> bool {
        match cond {
            0x0 => self.flag_z,
            0x1 => !self.flag_z,
            0x2 => self.flag_c,
            0x3 => !self.flag_c,
            0x4 => self.flag_n,
            0x5 => !self.flag_n,
            0xA => self.flag_n == self.flag_v,
            0xB => self.flag_n != self.flag_v,
            _ => false,
        }
    }

    /// Executes one instruction; returns `Some(halt)` on BKPT/WFI.
    ///
    /// # Errors
    ///
    /// * [`SimError::UndefinedInstruction`] for opcodes outside the subset.
    /// * Bus errors from loads/stores.
    pub fn step<B: Cm0Bus + ?Sized>(&mut self, bus: &mut B) -> Result<Option<Halt>> {
        let pc = self.regs[PC];
        let idx = (pc / 2) as usize;
        let Some(&op) = self.imem.get(idx) else {
            return Err(SimError::UndefinedInstruction { pc, opcode: 0xFFFF });
        };
        self.regs[PC] = pc.wrapping_add(2);
        self.cycles += 1;

        // Decode by major groups.
        match op >> 11 {
            // LSLS Rd, Rm, #imm5
            0b00000 => {
                let (imm, rm, rd) = shift_fields(op);
                let v = if imm == 0 { self.regs[rm] } else { self.regs[rm] << imm };
                if imm > 0 {
                    self.flag_c = (self.regs[rm] >> (32 - imm)) & 1 == 1;
                }
                self.regs[rd] = v;
                self.set_nz(v);
            }
            // LSRS Rd, Rm, #imm5
            0b00001 => {
                let (imm, rm, rd) = shift_fields(op);
                let sh = if imm == 0 { 32 } else { imm };
                let v = if sh == 32 { 0 } else { self.regs[rm] >> sh };
                self.flag_c = (self.regs[rm] >> (sh - 1)) & 1 == 1;
                self.regs[rd] = v;
                self.set_nz(v);
            }
            // ADDS/SUBS register or 3-bit immediate
            0b00011 => {
                let rd = (op & 7) as usize;
                let rn = ((op >> 3) & 7) as usize;
                let val = ((op >> 6) & 7) as u32;
                let sub = op & (1 << 9) != 0;
                let imm = op & (1 << 10) != 0;
                let operand = if imm { val } else { self.regs[val as usize] };
                self.regs[rd] = if sub {
                    self.add_with_flags(self.regs[rn], !operand, 1)
                } else {
                    self.add_with_flags(self.regs[rn], operand, 0)
                };
            }
            // MOVS Rd, #imm8
            0b00100 => {
                let rd = ((op >> 8) & 7) as usize;
                let v = (op & 0xFF) as u32;
                self.regs[rd] = v;
                self.set_nz(v);
            }
            // CMP Rn, #imm8
            0b00101 => {
                let rn = ((op >> 8) & 7) as usize;
                let imm = (op & 0xFF) as u32;
                self.add_with_flags(self.regs[rn], !imm, 1);
            }
            // ADDS Rd, #imm8
            0b00110 => {
                let rd = ((op >> 8) & 7) as usize;
                let imm = (op & 0xFF) as u32;
                self.regs[rd] = self.add_with_flags(self.regs[rd], imm, 0);
            }
            // SUBS Rd, #imm8
            0b00111 => {
                let rd = ((op >> 8) & 7) as usize;
                let imm = (op & 0xFF) as u32;
                self.regs[rd] = self.add_with_flags(self.regs[rd], !imm, 1);
            }
            // Data-processing register / hi-reg MOV
            0b01000 => {
                if op & (1 << 10) == 0 {
                    let opcode = (op >> 6) & 0xF;
                    let rm = ((op >> 3) & 7) as usize;
                    let rd = (op & 7) as usize;
                    match opcode {
                        0x0 => {
                            self.regs[rd] &= self.regs[rm];
                            self.set_nz(self.regs[rd]);
                        }
                        0x1 => {
                            self.regs[rd] ^= self.regs[rm];
                            self.set_nz(self.regs[rd]);
                        }
                        0x8 => {
                            // TST
                            let v = self.regs[rd] & self.regs[rm];
                            self.set_nz(v);
                        }
                        0xA => {
                            // CMP register
                            let (a, b) = (self.regs[rd], self.regs[rm]);
                            self.add_with_flags(a, !b, 1);
                        }
                        0xC => {
                            self.regs[rd] |= self.regs[rm];
                            self.set_nz(self.regs[rd]);
                        }
                        0xE => {
                            self.regs[rd] &= !self.regs[rm];
                            self.set_nz(self.regs[rd]);
                        }
                        0xF => {
                            self.regs[rd] = !self.regs[rm];
                            self.set_nz(self.regs[rd]);
                        }
                        _ => {
                            return Err(SimError::UndefinedInstruction { pc, opcode: op });
                        }
                    }
                } else if (op >> 8) & 0x3 == 0x2 {
                    // MOV Rd, Rm (high registers allowed)
                    let rm = ((op >> 3) & 0xF) as usize;
                    let rd = ((op & 7) | ((op >> 4) & 8)) as usize;
                    self.regs[rd] = self.regs[rm];
                    if rd == PC {
                        self.regs[PC] &= !1;
                        self.cycles += 2;
                    }
                } else {
                    return Err(SimError::UndefinedInstruction { pc, opcode: op });
                }
            }
            // LDR Rt, [PC, #imm8<<2] (literal pool)
            0b01001 => {
                let rt = ((op >> 8) & 7) as usize;
                let imm = (op & 0xFF) as u32 * 4;
                let base = (pc.wrapping_add(4)) & !3;
                let addr = base + imm;
                let lo = *self.imem.get((addr / 2) as usize).unwrap_or(&0) as u32;
                let hi = *self.imem.get((addr / 2 + 1) as usize).unwrap_or(&0) as u32;
                self.regs[rt] = lo | (hi << 16);
                self.cycles += 1;
            }
            // STR/LDR Rt, [Rn, #imm5<<2]
            0b01100 | 0b01101 => {
                let load = op & (1 << 11) != 0;
                let imm = (((op >> 6) & 0x1F) as u32) * 4;
                let rn = ((op >> 3) & 7) as usize;
                let rt = (op & 7) as usize;
                let addr = self.regs[rn].wrapping_add(imm);
                if load {
                    self.regs[rt] = bus.read_u32(addr)?;
                } else {
                    bus.write_u32(addr, self.regs[rt])?;
                }
                self.cycles += 1;
            }
            // B<cond> / UDF
            0b11010 | 0b11011 => {
                let cond = (op >> 8) & 0xF;
                if (op >> 8) == 0b1101_1110 {
                    // UDF #imm8: permanently undefined.
                    return Err(SimError::UndefinedInstruction { pc, opcode: op });
                }
                if self.cond_holds(cond) {
                    let imm = ((op & 0xFF) as i8 as i32) * 2;
                    self.regs[PC] = (pc as i64 + 4 + imm as i64) as u32;
                    self.cycles += 2;
                }
            }
            // B (unconditional)
            0b11100 => {
                let mut imm = (op & 0x7FF) as i32;
                if imm & 0x400 != 0 {
                    imm -= 0x800;
                }
                self.regs[PC] = (pc as i64 + 4 + (imm * 2) as i64) as u32;
                self.cycles += 2;
            }
            _ => {
                // BKPT (1011 1110), NOP/WFI hint space (1011 1111 ....).
                if op >> 8 == 0b1011_1110 {
                    return Ok(Some(Halt::Breakpoint));
                }
                if op == 0xBF00 {
                    // NOP
                } else if op == 0xBF30 {
                    return Ok(Some(Halt::WaitForInterrupt));
                } else {
                    return Err(SimError::UndefinedInstruction { pc, opcode: op });
                }
            }
        }
        Ok(None)
    }

    /// Runs until `BKPT`, `WFI`, or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// * [`SimError::CpuTimeout`] when the budget expires.
    /// * Decode and bus errors from [`Cm0::step`].
    pub fn run<B: Cm0Bus + ?Sized>(&mut self, bus: &mut B, budget: u64) -> Result<Halt> {
        let limit = self.cycles + budget;
        while self.cycles < limit {
            if let Some(halt) = self.step(bus)? {
                return Ok(halt);
            }
        }
        Err(SimError::CpuTimeout { budget })
    }
}

fn shift_fields(op: u16) -> (u32, usize, usize) {
    let imm = ((op >> 6) & 0x1F) as u32;
    let rm = ((op >> 3) & 7) as usize;
    let rd = (op & 7) as usize;
    (imm, rm, rd)
}

/// A structured assembler for the CM0 subset — the stand-in for the
/// paper's embedded-C toolchain.
///
/// # Examples
///
/// Count down from 5 in r0:
///
/// ```
/// use cofhee_sim::cm0::{Asm, Cm0, Cm0Bus, Halt};
///
/// struct NoBus;
/// impl Cm0Bus for NoBus {
///     fn read_u32(&mut self, a: u32) -> cofhee_sim::Result<u32> {
///         Err(cofhee_sim::SimError::UnmappedAddress { address: a })
///     }
///     fn write_u32(&mut self, a: u32, _: u32) -> cofhee_sim::Result<()> {
///         Err(cofhee_sim::SimError::UnmappedAddress { address: a })
///     }
/// }
///
/// # fn main() -> cofhee_sim::Result<()> {
/// let mut asm = Asm::new();
/// asm.movs(0, 5);
/// asm.label("loop");
/// asm.subs_imm(0, 1);
/// asm.b_cond(cofhee_sim::cm0::Cond::Ne, "loop");
/// asm.bkpt();
/// let mut cpu = Cm0::new(asm.assemble()?);
/// assert_eq!(cpu.run(&mut NoBus, 1000)?, Halt::Breakpoint);
/// assert_eq!(cpu.reg(0), 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    code: Vec<u16>,
    labels: std::collections::HashMap<String, usize>,
    branch_fixups: Vec<(usize, String, bool)>,
    literals: Vec<(usize, u32)>,
}

impl Asm {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) {
        self.labels.insert(name.to_string(), self.code.len());
    }

    /// `MOVS Rd, #imm8`.
    pub fn movs(&mut self, rd: u16, imm: u8) {
        self.code.push(0b00100_000_0000_0000 | (rd << 8) | imm as u16);
    }

    /// `SUBS Rd, #imm8`.
    pub fn subs_imm(&mut self, rd: u16, imm: u8) {
        self.code.push(0b00111_000_0000_0000 | (rd << 8) | imm as u16);
    }

    /// `LDR Rt, =constant` (literal pool).
    pub fn ldr_const(&mut self, rt: u16, constant: u32) {
        self.literals.push((self.code.len(), constant));
        self.code.push(0b01001_000_0000_0000 | (rt << 8)); // offset patched later
    }

    /// `STR Rt, [Rn, #offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is misaligned or out of range.
    pub fn str(&mut self, rt: u16, rn: u16, offset: u16) {
        assert!(offset % 4 == 0 && offset < 128, "offset {offset} invalid");
        self.code.push(0b01100_00000_000_000 | ((offset / 4) << 6) | (rn << 3) | rt);
    }

    /// `B<cond> label`.
    pub fn b_cond(&mut self, cond: Cond, target: &str) {
        self.branch_fixups.push((self.code.len(), target.to_string(), true));
        self.code.push(0b1101_0000_0000_0000 | (cond.encoding() << 8));
    }

    /// `B label` (unconditional).
    pub fn b(&mut self, target: &str) {
        self.branch_fixups.push((self.code.len(), target.to_string(), false));
        self.code.push(0b11100_00000000000);
    }

    /// `NOP`.
    pub fn nop(&mut self) {
        self.code.push(0xBF00);
    }

    /// `BKPT #0` — halt.
    pub fn bkpt(&mut self) {
        self.code.push(0xBE00);
    }

    /// Resolves labels and literals, producing the final program image.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfiguration`] for unresolved labels or
    /// out-of-range branches.
    pub fn assemble(mut self) -> Result<Vec<u16>> {
        // Patch branches.
        for (at, target, conditional) in &self.branch_fixups {
            let dest = *self.labels.get(target).ok_or_else(|| SimError::BadConfiguration {
                reason: format!("undefined label {target}"),
            })? as i64;
            let offset_half = dest - (*at as i64 + 2);
            if *conditional {
                if !(-128..=127).contains(&offset_half) {
                    return Err(SimError::BadConfiguration {
                        reason: format!("conditional branch to {target} out of range"),
                    });
                }
                self.code[*at] |= (offset_half as u8) as u16;
            } else {
                if !(-1024..=1023).contains(&offset_half) {
                    return Err(SimError::BadConfiguration {
                        reason: format!("branch to {target} out of range"),
                    });
                }
                self.code[*at] |= (offset_half as i16 & 0x7FF) as u16;
            }
        }
        // Append the literal pool (word-aligned) and patch LDR offsets.
        if !self.literals.is_empty() {
            if self.code.len() % 2 == 1 {
                self.nop();
            }
            for (at, constant) in std::mem::take(&mut self.literals) {
                let pool_at = self.code.len();
                self.code.push(constant as u16);
                self.code.push((constant >> 16) as u16);
                // LDR literal: addr = align4(pc + 4) + imm8·4.
                let pc = at as u32 * 2;
                let base = (pc + 4) & !3;
                let target = pool_at as u32 * 2;
                let diff = target.checked_sub(base).ok_or_else(|| SimError::BadConfiguration {
                    reason: "literal pool precedes its load".into(),
                })?;
                if diff % 4 != 0 || diff / 4 > 255 {
                    return Err(SimError::BadConfiguration {
                        reason: "literal pool out of LDR range".into(),
                    });
                }
                self.code[at] |= (diff / 4) as u16;
            }
        }
        Ok(self.code)
    }
}

/// The instructions only the tests assemble programs with.
#[cfg(test)]
impl Asm {
    /// `ADDS Rd, #imm8`.
    pub(crate) fn adds_imm(&mut self, rd: u16, imm: u8) {
        self.code.push(0b00110_000_0000_0000 | (rd << 8) | imm as u16);
    }

    /// `SUBS Rd, Rn, Rm`.
    pub(crate) fn subs_reg(&mut self, rd: u16, rn: u16, rm: u16) {
        self.code.push(0b0001101_000_000_000 | (rm << 6) | (rn << 3) | rd);
    }

    /// `LSLS Rd, Rm, #imm5`.
    pub(crate) fn lsls(&mut self, rd: u16, rm: u16, imm5: u16) {
        self.code.push((imm5 << 6) | (rm << 3) | rd);
    }

    /// `LSRS Rd, Rm, #imm5`.
    pub(crate) fn lsrs(&mut self, rd: u16, rm: u16, imm5: u16) {
        self.code.push(0b00001_00000_000_000 | (imm5 << 6) | (rm << 3) | rd);
    }

    /// `ANDS Rd, Rm`.
    pub(crate) fn ands(&mut self, rd: u16, rm: u16) {
        self.code.push(0b010000_0000_000_000 | (rm << 3) | rd);
    }

    /// `ORRS Rd, Rm`.
    pub(crate) fn orrs(&mut self, rd: u16, rm: u16) {
        self.code.push(0b010000_1100_000_000 | (rm << 3) | rd);
    }

    /// `CMP Rd, Rm` (register).
    pub(crate) fn cmp_reg(&mut self, rd: u16, rm: u16) {
        self.code.push(0b010000_1010_000_000 | (rm << 3) | rd);
    }

    /// `MOV Rd, Rm`.
    pub(crate) fn mov_reg(&mut self, rd: u16, rm: u16) {
        let d_hi = (rd >> 3) & 1;
        self.code.push(0b010001_10_0_0000_000 | (d_hi << 7) | ((rm & 0xF) << 3) | (rd & 7));
    }

    /// `LDR Rt, [Rn, #offset]` (word offset 0..124, multiple of 4).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is misaligned or out of range.
    pub(crate) fn ldr(&mut self, rt: u16, rn: u16, offset: u16) {
        assert!(offset % 4 == 0 && offset < 128, "offset {offset} invalid");
        self.code.push(0b01101_00000_000_000 | ((offset / 4) << 6) | (rn << 3) | rt);
    }

    /// `WFI` — wait for interrupt.
    pub(crate) fn wfi(&mut self) {
        self.code.push(0xBF30);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A test bus: a sparse 32-bit word store.
    #[derive(Default)]
    struct MapBus {
        words: HashMap<u32, u32>,
        writes: Vec<(u32, u32)>,
    }

    impl Cm0Bus for MapBus {
        fn read_u32(&mut self, address: u32) -> Result<u32> {
            Ok(self.words.get(&address).copied().unwrap_or(0))
        }
        fn write_u32(&mut self, address: u32, value: u32) -> Result<()> {
            self.words.insert(address, value);
            self.writes.push((address, value));
            Ok(())
        }
    }

    fn run_program(asm: Asm, bus: &mut MapBus) -> Cm0 {
        let mut cpu = Cm0::new(asm.assemble().unwrap());
        let halt = cpu.run(bus, 100_000).unwrap();
        assert_eq!(halt, Halt::Breakpoint);
        cpu
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut asm = Asm::new();
        asm.movs(0, 200);
        asm.adds_imm(0, 100); // r0 = 300
        asm.movs(1, 45);
        asm.subs_reg(2, 0, 1); // r2 = 255
        asm.lsls(3, 2, 4); // r3 = 255 << 4
        asm.lsrs(4, 3, 8); // r4 = 15
        asm.bkpt();
        let cpu = run_program(asm, &mut MapBus::default());
        assert_eq!(cpu.reg(0), 300);
        assert_eq!(cpu.reg(2), 255);
        assert_eq!(cpu.reg(3), 255 << 4);
        assert_eq!(cpu.reg(4), 15);
    }

    #[test]
    fn countdown_loop_terminates() {
        let mut asm = Asm::new();
        asm.movs(0, 10);
        asm.movs(1, 0);
        asm.label("loop");
        asm.adds_imm(1, 3);
        asm.subs_imm(0, 1);
        asm.b_cond(Cond::Ne, "loop");
        asm.bkpt();
        let cpu = run_program(asm, &mut MapBus::default());
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(1), 30);
    }

    #[test]
    fn logic_operations() {
        let mut asm = Asm::new();
        asm.movs(0, 0b1100);
        asm.movs(1, 0b1010);
        asm.mov_reg(2, 0);
        asm.ands(2, 1); // 0b1000
        asm.mov_reg(3, 0);
        asm.orrs(3, 1); // 0b1110
        asm.bkpt();
        let cpu = run_program(asm, &mut MapBus::default());
        assert_eq!(cpu.reg(2), 0b1000);
        assert_eq!(cpu.reg(3), 0b1110);
    }

    #[test]
    fn literal_pool_loads_32bit_constants() {
        let mut asm = Asm::new();
        asm.ldr_const(0, 0x4002_0098); // COMMANDFIFO address
        asm.ldr_const(1, 0xDEAD_BEEF);
        asm.bkpt();
        let cpu = run_program(asm, &mut MapBus::default());
        assert_eq!(cpu.reg(0), 0x4002_0098);
        assert_eq!(cpu.reg(1), 0xDEAD_BEEF);
    }

    #[test]
    fn memory_mapped_store_and_load() {
        let mut asm = Asm::new();
        asm.ldr_const(0, 0x4002_0040); // some peripheral address
        asm.movs(1, 77);
        asm.str(1, 0, 0);
        asm.ldr(2, 0, 0);
        asm.str(2, 0, 8); // copy to address + 8
        asm.bkpt();
        let mut bus = MapBus::default();
        let cpu = run_program(asm, &mut bus);
        assert_eq!(cpu.reg(2), 77);
        assert_eq!(bus.words[&0x4002_0040], 77);
        assert_eq!(bus.words[&0x4002_0048], 77);
    }

    #[test]
    fn conditional_branches_follow_comparison() {
        // if r0 < r1 then r2 = 1 else r2 = 2 (unsigned)
        let mut asm = Asm::new();
        asm.movs(0, 3);
        asm.movs(1, 9);
        asm.cmp_reg(0, 1);
        asm.b_cond(Cond::Lo, "less");
        asm.movs(2, 2);
        asm.b("end");
        asm.label("less");
        asm.movs(2, 1);
        asm.label("end");
        asm.bkpt();
        let cpu = run_program(asm, &mut MapBus::default());
        assert_eq!(cpu.reg(2), 1);
    }

    #[test]
    fn wfi_halts_with_wait_state() {
        let mut asm = Asm::new();
        asm.movs(0, 1);
        asm.wfi();
        let mut cpu = Cm0::new(asm.assemble().unwrap());
        let halt = cpu.run(&mut MapBus::default(), 100).unwrap();
        assert_eq!(halt, Halt::WaitForInterrupt);
    }

    #[test]
    fn runaway_program_times_out() {
        let mut asm = Asm::new();
        asm.label("spin");
        asm.b("spin");
        let mut cpu = Cm0::new(asm.assemble().unwrap());
        assert!(matches!(cpu.run(&mut MapBus::default(), 1000), Err(SimError::CpuTimeout { .. })));
    }

    #[test]
    fn undefined_instruction_faults() {
        let mut cpu = Cm0::new(vec![0xDE00]); // permanently undefined
        assert!(matches!(
            cpu.step(&mut MapBus::default()),
            Err(SimError::UndefinedInstruction { .. })
        ));
    }

    #[test]
    fn unresolved_label_is_reported() {
        let mut asm = Asm::new();
        asm.b("nowhere");
        assert!(matches!(asm.assemble(), Err(SimError::BadConfiguration { .. })));
    }

    #[test]
    fn cycles_accumulate() {
        let mut asm = Asm::new();
        asm.movs(0, 1);
        asm.movs(1, 2);
        asm.bkpt();
        let mut cpu = Cm0::new(asm.assemble().unwrap());
        cpu.run(&mut MapBus::default(), 100).unwrap();
        assert!(cpu.cycles() >= 3);
    }
}
