//! The on-chip SRAM system.
//!
//! CoFHEE's floorplan carries 68 SRAM macro instances composed into 3
//! dual-port and 5 single-port *logical* banks (Sections III-A and V-A).
//! Dual-port banks let the MDMC fetch two butterfly operands — or fetch
//! one and store one — in a single cycle, which is what gives the NTT its
//! initiation interval of 1; the paper notes dual-port macros cost 2× the
//! area of single-port ones, which is why there are only three
//! (Section VIII-B).
//!
//! Following the paper, each dual-port bank is "managed by assigning
//! different base addresses to each port, treating them as two distinct
//! address spaces at the bus level".
//!
//! # Borrowed access
//!
//! On the die an operand is written into a bank once and then only
//! streamed. The host model keeps to that: [`Memory::slice`] /
//! [`Memory::slice_mut`] lend a checked range of a bank,
//! [`Memory::split`] lends a destination range mutably *beside*
//! read-only source ranges in other banks, and [`Memory::memmove`]
//! moves words between slots (overlap included) without a staging
//! buffer. Every one of them checks all of its ranges before it touches
//! a word, so a failing access leaves memory as it was. The copying
//! [`Memory::read_slice`] / [`Memory::write_slice`] remain for the host
//! side of the link and for the MDMC's reference loops.
//!
//! Every bank counts the times it has been lent out for writing — its
//! *write generation*. Every mutable path (`slice_mut` and what is built
//! on it: `write_slice`, `write_word`, the bus; `split`'s destination;
//! `memmove`) bumps it, so an unchanged generation proves the bank holds
//! what it held when the generation was read.

use crate::error::{Result, SimError};

/// Identifies a logical SRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BankId(pub usize);

/// A location inside a bank, in 128-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The bank holding the data.
    pub bank: BankId,
    /// Word offset of the first coefficient.
    pub offset: usize,
}

impl Slot {
    /// Convenience constructor.
    pub fn new(bank: BankId, offset: usize) -> Self {
        Self { bank: BankId(bank.0), offset }
    }
}

/// One logical SRAM bank.
#[derive(Debug, Clone)]
pub struct Bank {
    name: &'static str,
    words: Vec<u128>,
    dual_port: bool,
    /// Bus base address of port A.
    base_a: u32,
    /// Bus base address of port B (dual-port banks only).
    base_b: Option<u32>,
    /// Times the bank has been lent out for writing.
    generation: u64,
}

impl Bank {
    /// Capacity in 128-bit words.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Whether both ports exist.
    pub fn is_dual_port(&self) -> bool {
        self.dual_port
    }

    /// Bank name for diagnostics.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Port-A bus base address.
    pub fn base_a(&self) -> u32 {
        self.base_a
    }

    /// Port-B bus base address, if dual-ported.
    pub fn base_b(&self) -> Option<u32> {
        self.base_b
    }
}

/// Byte span each bank occupies in the bus address map (1 MiB).
const BANK_SPAN: u32 = 0x10_0000;
/// Port-A region for dual-port banks.
const DP_A_BASE: u32 = 0x2000_0000;
/// Port-B alias region for dual-port banks.
const DP_B_BASE: u32 = 0x2100_0000;
/// Single-port bank region.
const SP_BASE: u32 = 0x2200_0000;

/// The full SRAM complement of one chip.
#[derive(Debug, Clone)]
pub struct Memory {
    banks: Vec<Bank>,
    dual_count: usize,
}

impl Memory {
    /// Builds the memory system: `dual` dual-port banks followed by
    /// `single` single-port banks, each of `words` 128-bit words.
    pub fn new(dual: usize, single: usize, words: usize) -> Self {
        let mut banks = Vec::with_capacity(dual + single);
        for i in 0..dual {
            banks.push(Bank {
                name: dp_name(i),
                words: vec![0; words],
                dual_port: true,
                base_a: DP_A_BASE + (i as u32) * BANK_SPAN,
                base_b: Some(DP_B_BASE + (i as u32) * BANK_SPAN),
                generation: 0,
            });
        }
        for i in 0..single {
            banks.push(Bank {
                name: sp_name(i),
                words: vec![0; words],
                dual_port: false,
                base_a: SP_BASE + (i as u32) * BANK_SPAN,
                base_b: None,
                generation: 0,
            });
        }
        Self { banks, dual_count: dual }
    }

    /// Builds the silicon complement from a [`ChipConfig`](crate::ChipConfig).
    pub fn from_config(config: &crate::ChipConfig) -> Self {
        Self::new(config.dual_port_banks, config.single_port_banks, config.bank_words)
    }

    /// Number of logical banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Number of dual-port banks (they occupy the low bank indices).
    pub fn dual_port_count(&self) -> usize {
        self.dual_count
    }

    /// The bank metadata.
    pub fn bank(&self, id: BankId) -> Result<&Bank> {
        match self.banks.get(id.0) {
            Some(bank) => Ok(bank),
            None => Err(SimError::UnmappedAddress { address: 0 }),
        }
    }

    /// Designated bank roles for the MDMC's standard schedule: two
    /// dual-port compute banks, one dual-port prefetch bank, and the
    /// single-port twiddle bank.
    pub fn roles(&self) -> BankRoles {
        BankRoles {
            compute_a: BankId(0),
            compute_b: BankId(1),
            prefetch: BankId(2.min(self.dual_count.saturating_sub(1))),
            twiddle: BankId(self.dual_count),
        }
    }

    /// The write generation of bank `id` (see the module docs), `None`
    /// for a bank that does not exist.
    pub(crate) fn generation(&self, id: BankId) -> Option<u64> {
        self.banks.get(id.0).map(|bank| bank.generation)
    }

    /// Reads one word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] past the bank end.
    pub fn read_word(&self, slot: Slot, index: usize) -> Result<u128> {
        Ok(self.slice(Slot::new(slot.bank, slot.offset.saturating_add(index)), 1)?[0])
    }

    /// Writes one word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] past the bank end.
    pub fn write_word(&mut self, slot: Slot, index: usize, value: u128) -> Result<()> {
        self.slice_mut(Slot::new(slot.bank, slot.offset.saturating_add(index)), 1)?[0] = value;
        Ok(())
    }

    /// Checks that `len` words starting at `slot` lie inside its bank.
    fn span(&self, slot: Slot, len: usize) -> Result<std::ops::Range<usize>> {
        let bank = self.bank(slot.bank)?;
        let end = slot.offset.saturating_add(len);
        if end > bank.words.len() {
            return Err(SimError::OutOfBounds {
                bank: bank.name,
                word: end - 1,
                capacity: bank.words.len(),
            });
        }
        Ok(slot.offset..end)
    }

    /// Borrows `len` consecutive words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds the bank.
    pub fn slice(&self, slot: Slot, len: usize) -> Result<&[u128]> {
        let span = self.span(slot, len)?;
        Ok(&self.banks[slot.bank.0].words[span])
    }

    /// Borrows `len` consecutive words mutably.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds the bank.
    pub fn slice_mut(&mut self, slot: Slot, len: usize) -> Result<&mut [u128]> {
        let span = self.span(slot, len)?;
        let bank = &mut self.banks[slot.bank.0];
        bank.generation += 1;
        Ok(&mut bank.words[span])
    }

    /// Borrows `len` words at `dst` mutably beside `len` words at each of
    /// `srcs` read-only — the operand fetch and write-back of one
    /// streamed pass, with nothing copied. Returns `None` when a source
    /// shares `dst`'s bank: one bank cannot be lent out both ways, so the
    /// caller stages those sources instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] for the first range that exceeds
    /// its bank — sources in order, then the destination — before
    /// anything is lent.
    #[allow(clippy::type_complexity)] // (destination, sources): an alias would only rename it
    pub fn split<const K: usize>(
        &mut self,
        dst: Slot,
        srcs: [Slot; K],
        len: usize,
    ) -> Result<Option<(&mut [u128], [&[u128]; K])>> {
        for &src in &srcs {
            self.span(src, len)?;
        }
        let dst_span = self.span(dst, len)?;
        if srcs.iter().any(|src| src.bank == dst.bank) {
            return Ok(None);
        }
        let (below, rest) = self.banks.split_at_mut(dst.bank.0);
        let (this, above) = rest.split_first_mut().expect("dst's bank index was just checked");
        this.generation += 1;
        let (below, above): (&[Bank], &[Bank]) = (below, above);
        let views = srcs.map(|src| {
            let bank = match src.bank.0.checked_sub(dst.bank.0 + 1) {
                Some(i) => &above[i],
                None => &below[src.bank.0],
            };
            &bank.words[src.offset..src.offset + len]
        });
        Ok(Some((&mut this.words[dst_span], views)))
    }

    /// Moves `len` words from `src` to `dst`; the ranges may overlap
    /// (`memmove` semantics) and `src == dst` moves nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if either range exceeds its bank
    /// (source checked first); nothing is written in that case.
    pub fn memmove(&mut self, src: Slot, dst: Slot, len: usize) -> Result<()> {
        match self.split(dst, [src], len)? {
            Some((out, [data])) => out.copy_from_slice(data),
            None if src.offset == dst.offset => {}
            None => {
                let bank = &mut self.banks[dst.bank.0];
                bank.generation += 1;
                bank.words.copy_within(src.offset..src.offset + len, dst.offset);
            }
        }
        Ok(())
    }

    /// Reads `len` consecutive words into a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds the bank.
    pub fn read_slice(&self, slot: Slot, len: usize) -> Result<Vec<u128>> {
        Ok(self.slice(slot, len)?.to_vec())
    }

    /// Writes a slice of words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the range exceeds the bank.
    pub fn write_slice(&mut self, slot: Slot, data: &[u128]) -> Result<()> {
        self.slice_mut(slot, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Decodes a bus byte address into `(bank, word index, port B?)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] outside every bank window.
    pub fn decode(&self, address: u32) -> Result<(BankId, usize, bool)> {
        for (i, bank) in self.banks.iter().enumerate() {
            let within =
                |base: u32| address >= base && (address - base) as usize / 16 < bank.words.len();
            if within(bank.base_a) {
                return Ok((BankId(i), (address - bank.base_a) as usize / 16, false));
            }
            if let Some(b) = bank.base_b {
                if within(b) {
                    return Ok((BankId(i), (address - b) as usize / 16, true));
                }
            }
        }
        Err(SimError::UnmappedAddress { address })
    }
}

/// The MDMC's standard bank assignment (Section III-F).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankRoles {
    /// Dual-port bank holding the NTT input (ping).
    pub compute_a: BankId,
    /// Dual-port bank holding the NTT output (pong).
    pub compute_b: BankId,
    /// Dual-port bank the DMA preloads the next polynomial into.
    pub prefetch: BankId,
    /// Single-port bank holding twiddle factors.
    pub twiddle: BankId,
}

fn dp_name(i: usize) -> &'static str {
    const NAMES: [&str; 12] =
        ["DP0", "DP1", "DP2", "DP3", "DP4", "DP5", "DP6", "DP7", "DP8", "DP9", "DP10", "DP11"];
    NAMES.get(i).copied().unwrap_or("DPx")
}

fn sp_name(i: usize) -> &'static str {
    const NAMES: [&str; 8] = ["SP0", "SP1", "SP2", "SP3", "SP4", "SP5", "SP6", "SP7"];
    NAMES.get(i).copied().unwrap_or("SPx")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChipConfig;

    fn memory() -> Memory {
        Memory::from_config(&ChipConfig::silicon())
    }

    #[test]
    fn silicon_complement_matches_paper() {
        let m = memory();
        assert_eq!(m.bank_count(), 8, "3 dual-port + 5 single-port");
        assert_eq!(m.dual_port_count(), 3);
        for i in 0..3 {
            assert!(m.bank(BankId(i)).unwrap().is_dual_port());
            assert!(m.bank(BankId(i)).unwrap().base_b().is_some());
        }
        for i in 3..8 {
            assert!(!m.bank(BankId(i)).unwrap().is_dual_port());
            assert!(m.bank(BankId(i)).unwrap().base_b().is_none());
        }
    }

    #[test]
    fn words_hold_full_polynomials() {
        let m = memory();
        assert!(m.bank(BankId(0)).unwrap().capacity() >= 1 << 13);
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = memory();
        let slot = Slot::new(BankId(1), 100);
        m.write_word(slot, 0, u128::MAX - 5).unwrap();
        assert_eq!(m.read_word(slot, 0).unwrap(), u128::MAX - 5);
        let data: Vec<u128> = (0..64).map(|i| i * 31).collect();
        m.write_slice(slot, &data).unwrap();
        assert_eq!(m.read_slice(slot, 64).unwrap(), data);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = memory();
        let cap = m.bank(BankId(0)).unwrap().capacity();
        let slot = Slot::new(BankId(0), cap - 1);
        assert!(m.write_word(slot, 0, 1).is_ok());
        assert!(m.write_word(slot, 1, 1).is_err());
        assert!(m.read_slice(Slot::new(BankId(0), 0), cap + 1).is_err());
    }

    #[test]
    fn split_lends_a_destination_beside_sources_in_other_banks() {
        let mut m = memory();
        let (below, dst, above) =
            (Slot::new(BankId(0), 8), Slot::new(BankId(3), 16), Slot::new(BankId(7), 0));
        m.write_slice(below, &[1, 2, 3]).unwrap();
        m.write_slice(above, &[10, 20, 30]).unwrap();
        let (out, [a, b, c]) = m.split(dst, [below, above, below], 3).unwrap().unwrap();
        assert_eq!((a, b, c), (&[1, 2, 3][..], &[10, 20, 30][..], &[1, 2, 3][..]));
        for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
            *o = a + b;
        }
        assert_eq!(m.slice(dst, 3).unwrap(), &[11, 22, 33]);
        // One bank cannot be lent out both ways, whatever the ranges.
        assert!(m.split(dst, [below, Slot::new(BankId(3), 100)], 3).unwrap().is_none());
        // Ranges are checked, sources first, before anything is lent.
        let cap = m.bank(BankId(0)).unwrap().capacity();
        let past = |bank| Slot::new(BankId(bank), cap - 2);
        let err = |bank: &'static str| SimError::OutOfBounds { bank, word: cap, capacity: cap };
        assert_eq!(m.split(past(3), [past(0), above], 3).unwrap_err(), err("DP0"));
        assert_eq!(m.split(past(3), [below, above], 3).unwrap_err(), err("SP0"));
        assert!(m.split(Slot::new(BankId(8), 0), [below], 1).is_err(), "no such bank");
    }

    #[test]
    fn memmove_copes_with_overlap_and_checks_before_writing() {
        let mut m = memory();
        let data: Vec<u128> = (1..=8).collect();
        let at = |offset| Slot::new(BankId(4), offset);
        m.write_slice(at(0), &data).unwrap();
        m.memmove(at(0), at(3), 8).unwrap(); // forward overlap
        assert_eq!(m.read_slice(at(3), 8).unwrap(), data);
        m.memmove(at(3), at(1), 8).unwrap(); // backward overlap
        assert_eq!(m.read_slice(at(1), 8).unwrap(), data);
        m.memmove(at(1), at(1), 8).unwrap(); // the DMA touch
        m.memmove(at(1), Slot::new(BankId(2), 5), 8).unwrap(); // across banks
        assert_eq!(m.read_slice(Slot::new(BankId(2), 5), 8).unwrap(), data);
        let cap = m.bank(BankId(4)).unwrap().capacity();
        assert!(m.memmove(at(1), at(cap - 4), 8).is_err());
        assert!(m.memmove(at(cap - 4), at(1), 8).is_err());
        assert!(m.memmove(at(cap - 4), at(cap - 4), 8).is_err(), "the touch is checked too");
        assert_eq!(m.read_slice(at(1), 8).unwrap(), data, "a failed move writes nothing");
    }

    #[test]
    fn every_write_path_moves_the_bank_generation_and_nothing_else_does() {
        let mut m = memory();
        let (t, other) = (Slot::new(BankId(3), 0), Slot::new(BankId(5), 0));
        let mut last = m.generation(t.bank).unwrap();
        let mut moved = |m: &Memory| {
            let now = m.generation(t.bank).unwrap();
            std::mem::replace(&mut last, now) != now
        };
        m.slice(t, 4).unwrap();
        m.read_slice(t, 4).unwrap();
        m.split(other, [t], 4).unwrap();
        m.memmove(t, other, 4).unwrap();
        m.memmove(t, t, 4).unwrap(); // the DMA touch moves no word
        let cap = m.bank(t.bank).unwrap().capacity();
        assert!(m.write_slice(Slot::new(t.bank, cap), &[1]).is_err());
        assert!(!moved(&m), "reads, a source role, the touch and a failed write");
        m.write_slice(t, &[1, 2]).unwrap();
        assert!(moved(&m), "write_slice");
        m.write_word(t, 1, 3).unwrap();
        assert!(moved(&m), "write_word");
        m.slice_mut(t, 1).unwrap();
        assert!(moved(&m), "slice_mut");
        m.split(t, [other], 4).unwrap();
        assert!(moved(&m), "split's destination");
        m.memmove(other, t, 4).unwrap();
        assert!(moved(&m), "memmove across banks");
        m.memmove(Slot::new(t.bank, 1), t, 4).unwrap();
        assert!(moved(&m), "memmove within the bank");
        assert_eq!(m.generation(BankId(8)), None);
    }

    #[test]
    fn dual_port_banks_decode_on_both_ports() {
        let m = memory();
        let a = m.bank(BankId(0)).unwrap().base_a();
        let b = m.bank(BankId(0)).unwrap().base_b().unwrap();
        let (id_a, w_a, port_b_a) = m.decode(a + 32).unwrap();
        let (id_b, w_b, port_b_b) = m.decode(b + 32).unwrap();
        assert_eq!(id_a, id_b);
        assert_eq!(w_a, 2);
        assert_eq!(w_b, 2);
        assert!(!port_b_a);
        assert!(port_b_b);
    }

    #[test]
    fn unmapped_addresses_are_rejected() {
        let m = memory();
        assert!(m.decode(0x0000_1000).is_err());
        assert!(m.decode(0xffff_0000).is_err());
    }

    #[test]
    fn roles_pick_distinct_banks() {
        let m = memory();
        let r = m.roles();
        assert_ne!(r.compute_a, r.compute_b);
        assert_ne!(r.compute_b, r.prefetch);
        assert!(m.bank(r.compute_a).unwrap().is_dual_port());
        assert!(m.bank(r.compute_b).unwrap().is_dual_port());
        assert!(m.bank(r.prefetch).unwrap().is_dual_port());
        assert!(!m.bank(r.twiddle).unwrap().is_dual_port());
    }
}
