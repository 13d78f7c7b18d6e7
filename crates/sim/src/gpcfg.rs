//! The General-Purpose Configuration register file (GPCFG).
//!
//! Table II of the paper lists the representative subset of CoFHEE's 35
//! configuration registers implemented here, mapped to the memory range
//! `0x4002_0000 – 0x4002_FFFF` following the ARM Cortex-M series
//! peripheral convention (Section III-A). Wide registers (`Q` at 128
//! bits, `BARRETTCTL2` at 160 bits) span consecutive 32-bit words, least
//! significant word first.

use cofhee_arith::U256;

use crate::error::{Result, SimError};

/// Base bus address of the register file.
pub const GPCFG_BASE: u32 = 0x4002_0000;
/// Size of the register window in bytes.
pub const GPCFG_SPAN: u32 = 0x1_0000;

/// The chip's SIGNATURE register value (chip ID).
pub const SIGNATURE_VALUE: u32 = 0xC0F4_EE01;

macro_rules! registers {
    ($(($name:ident, $offset:expr, $words:expr, $ro:expr, $doc:expr)),+ $(,)?) => {
        /// Symbolic names for the Table II registers.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[allow(non_camel_case_types)]
        pub enum Register {
            $(#[doc = $doc] $name),+
        }

        impl Register {
            /// All registers, in Table II order.
            pub const ALL: &'static [Register] = &[$(Register::$name),+];

            /// Byte offset within the GPCFG window.
            pub fn offset(self) -> u32 {
                match self { $(Register::$name => $offset),+ }
            }

            /// Width in 32-bit words.
            pub fn words(self) -> u32 {
                match self { $(Register::$name => $words),+ }
            }

            /// Width in bits (as listed in Table II).
            #[cfg(test)]
            pub(crate) fn bits(self) -> u32 {
                self.words() * 32
            }

            /// Whether the register rejects writes.
            pub fn read_only(self) -> bool {
                match self { $(Register::$name => $ro),+ }
            }

            /// The register name as printed in Table II.
            pub fn name(self) -> &'static str {
                match self { $(Register::$name => stringify!($name)),+ }
            }
        }
    };
}

registers! {
    (UARTMTXPAD_CTL, 0x000, 1, false, "IO pad control for primary UART TX."),
    (UARTMRXPAD_CTL, 0x004, 1, false, "IO pad control for primary UART RX."),
    (UARTSTXPAD_CTL, 0x008, 1, false, "IO pad control for secondary UART TX."),
    (SPIMOSI_PAD_CTL, 0x00C, 1, false, "SPI data in pad control."),
    (SPIMISO_PAD_CTL, 0x010, 1, false, "SPI data out pad control."),
    (SPICLK_PAD_CTL, 0x014, 1, false, "SPI clock pad control."),
    (SPICSN_PAD_CTL, 0x018, 1, false, "SPI chip select pad control."),
    (HOSTIRQ_PAD_CTL, 0x01C, 1, false, "IO pad control for host interrupt."),
    (UARTMBAUD_CTL, 0x020, 1, false, "Baud control for primary UART."),
    (UARTSBAUD_CTL, 0x024, 1, false, "Baud control for secondary UART."),
    (UARTMCTL, 0x028, 1, false, "Primary UART control."),
    (UARTSCTL, 0x02C, 1, false, "Secondary UART control."),
    (SIGNATURE, 0x030, 1, true, "Stores the chip ID (read-only)."),
    (Q, 0x040, 4, false, "Modulus q (128 bits)."),
    (N, 0x050, 4, false, "Polynomial degree n (128 bits)."),
    (INV_POLYDEG, 0x060, 4, false, "n^{-1} mod q (128 bits)."),
    (BARRETTCTL1, 0x070, 1, false, "Barrett shift k = 2·⌈log₂ q⌉."),
    (BARRETTCTL2, 0x074, 5, false, "Barrett constant ⌊2^k/q⌋ (160 bits)."),
    (FHECTL1, 0x088, 1, false, "Command FIFO select and n."),
    (FHECTL2, 0x08C, 1, false, "Trigger bits for different commands."),
    (FHECTL3, 0x090, 1, false, "Select or bypass PLL clock."),
    (PLLCTL, 0x094, 1, false, "Control bits required for the PLL."),
    (COMMANDFIFO, 0x098, 1, false, "Trigger bits for different commands."),
    (DBG_REG, 0x09C, 1, false, "Debug register."),
}

/// The register file storage and access logic.
#[derive(Debug, Clone)]
pub struct GpCfg {
    words: std::collections::BTreeMap<u32, u32>,
}

impl Default for GpCfg {
    fn default() -> Self {
        Self::new()
    }
}

impl GpCfg {
    /// Builds the register file with reset values (SIGNATURE preloaded).
    pub fn new() -> Self {
        let mut file = Self { words: Default::default() };
        file.words.insert(Register::SIGNATURE.offset(), SIGNATURE_VALUE);
        file
    }

    fn locate(offset: u32) -> Result<(Register, u32)> {
        for &r in Register::ALL {
            if offset >= r.offset() && offset < r.offset() + 4 * r.words() {
                return Ok((r, (offset - r.offset()) / 4));
            }
        }
        Err(SimError::UnmappedAddress { address: GPCFG_BASE + offset })
    }

    /// Reads a 32-bit word at a byte offset within the window.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnmappedAddress`] for holes in the map.
    pub fn read_word(&self, offset: u32) -> Result<u32> {
        Self::locate(offset)?;
        Ok(self.words.get(&(offset & !3)).copied().unwrap_or(0))
    }

    /// Writes a 32-bit word at a byte offset within the window.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnmappedAddress`] for holes in the map.
    /// * [`SimError::ReadOnlyRegister`] for SIGNATURE.
    pub fn write_word(&mut self, offset: u32, value: u32) -> Result<()> {
        let (reg, _) = Self::locate(offset)?;
        if reg.read_only() {
            return Err(SimError::ReadOnlyRegister { name: reg.name() });
        }
        self.words.insert(offset & !3, value);
        Ok(())
    }

    /// Reads a full register as a (≤256-bit) value.
    pub fn read(&self, reg: Register) -> U256 {
        let mut limbs = [0u64; 4];
        for w in 0..reg.words() {
            let v = self.words.get(&(reg.offset() + 4 * w)).copied().unwrap_or(0) as u64;
            let limb = (w / 2) as usize;
            if limb < 4 {
                limbs[limb] |= v << (32 * (w % 2));
            }
        }
        U256::from_limbs(limbs)
    }

    /// Writes a full register from a (≤256-bit) value.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ReadOnlyRegister`] for SIGNATURE.
    pub fn write(&mut self, reg: Register, value: U256) -> Result<()> {
        if reg.read_only() {
            return Err(SimError::ReadOnlyRegister { name: reg.name() });
        }
        let limbs = value.to_limbs();
        for w in 0..reg.words() {
            let limb = limbs[(w / 2) as usize];
            let word = (limb >> (32 * (w % 2))) as u32;
            self.words.insert(reg.offset() + 4 * w, word);
        }
        Ok(())
    }

    // ---- typed accessors for the FHE-relevant registers ----

    /// The modulus `q`.
    pub fn q(&self) -> u128 {
        self.read(Register::Q).low_u128()
    }

    /// Sets the modulus `q` and its derived Barrett constants
    /// (BARRETTCTL1/2), as a host driver would.
    pub fn set_q(&mut self, q: u128) {
        self.write(Register::Q, U256::from_u128(q)).expect("Q is writable");
        let bits = 128 - q.leading_zeros();
        let k = 2 * bits;
        self.write(Register::BARRETTCTL1, U256::from_u64(k as u64))
            .expect("BARRETTCTL1 is writable");
        if q > 1 {
            let mu = if k == 256 {
                U256::div_rem_wide(U256::ZERO, U256::ONE, U256::from_u128(q)).0
            } else {
                U256::ONE.shl(k).div_rem(U256::from_u128(q)).0
            };
            self.write(Register::BARRETTCTL2, mu).expect("BARRETTCTL2 is writable");
        }
    }

    /// The polynomial degree `n`.
    pub fn n(&self) -> usize {
        self.read(Register::N).low_u128() as usize
    }

    /// Sets the polynomial degree `n`.
    pub fn set_n(&mut self, n: usize) {
        self.write(Register::N, U256::from_u128(n as u128)).expect("N is writable");
    }

    /// `n^{-1} mod q` (INV_POLYDEG).
    pub fn inv_polydeg(&self) -> u128 {
        self.read(Register::INV_POLYDEG).low_u128()
    }

    /// Sets INV_POLYDEG.
    pub fn set_inv_polydeg(&mut self, v: u128) {
        self.write(Register::INV_POLYDEG, U256::from_u128(v)).expect("writable");
    }

    /// The Barrett shift `k` (BARRETTCTL1).
    pub fn barrett_k(&self) -> u32 {
        self.read(Register::BARRETTCTL1).low_u128() as u32
    }

    /// The Barrett constant `µ` (BARRETTCTL2).
    #[cfg(test)]
    pub(crate) fn barrett_mu(&self) -> U256 {
        self.read(Register::BARRETTCTL2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::Barrett128;

    #[test]
    fn table2_layout_is_consistent() {
        // No overlaps, ascending offsets, widths match Table II.
        let mut last_end = 0;
        for &r in Register::ALL {
            assert!(r.offset() >= last_end, "{} overlaps predecessor", r.name());
            last_end = r.offset() + 4 * r.words();
        }
        assert_eq!(Register::Q.bits(), 128);
        assert_eq!(Register::N.bits(), 128);
        assert_eq!(Register::INV_POLYDEG.bits(), 128);
        assert_eq!(Register::BARRETTCTL2.bits(), 160);
        assert_eq!(Register::UARTMCTL.bits(), 32);
        assert_eq!(Register::ALL.len(), 24, "Table II subset");
    }

    #[test]
    fn signature_reads_and_rejects_writes() {
        let mut g = GpCfg::new();
        assert_eq!(g.read_word(Register::SIGNATURE.offset()).unwrap(), SIGNATURE_VALUE);
        assert!(matches!(
            g.write_word(Register::SIGNATURE.offset(), 0),
            Err(SimError::ReadOnlyRegister { .. })
        ));
    }

    #[test]
    fn q_round_trips_through_words() {
        let mut g = GpCfg::new();
        let q: u128 = 324518553658426726783156020805633;
        g.set_q(q);
        assert_eq!(g.q(), q);
        // Verify the word-level view agrees (little-endian words).
        let w0 = g.read_word(Register::Q.offset()).unwrap();
        assert_eq!(w0, q as u32);
    }

    #[test]
    fn set_q_derives_barrett_constants() {
        let mut g = GpCfg::new();
        let q: u128 = 324518553658426726783156020805633;
        g.set_q(q);
        let reference = Barrett128::new(q).unwrap();
        assert_eq!(g.barrett_k(), reference.barrett_k());
        assert_eq!(g.barrett_mu(), reference.barrett_mu());
    }

    #[test]
    fn n_and_inverse_round_trip() {
        let mut g = GpCfg::new();
        g.set_n(1 << 13);
        g.set_inv_polydeg(12345678901234567890);
        assert_eq!(g.n(), 1 << 13);
        assert_eq!(g.inv_polydeg(), 12345678901234567890);
    }

    #[test]
    fn unmapped_offsets_error() {
        let g = GpCfg::new();
        assert!(g.read_word(0x0FFC).is_err());
        assert!(g.read_word(0x034).is_err()); // hole between SIGNATURE and Q
    }

    #[test]
    fn barrettctl2_holds_160_bits() {
        let mut g = GpCfg::new();
        // A 160-bit pattern: set via wide write.
        let v = U256::from_halves(0x1111_2222_3333_4444_5555_6666_7777_8888, 0x9999_AAAA);
        g.write(Register::BARRETTCTL2, v).unwrap();
        assert_eq!(g.read(Register::BARRETTCTL2), v);
    }
}
