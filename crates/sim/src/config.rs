//! Chip configuration: the microarchitectural parameters the cycle model
//! derives its timing from.
//!
//! Every constant is traceable to the paper:
//!
//! * 250 MHz clock, limited by SRAM read latency (~4 ns path) —
//!   Sections III-A / III-D.
//! * 3 dual-port + 5 single-port logical SRAMs; dual-port banks give the
//!   NTT II = 1, single-port operation (n ≥ 2^14) gives II = 2 —
//!   Sections III-A / III-C / V-A.
//! * The PE (Section III-E) streams at II = 1. Its pipeline depth (a
//!   5-stage Barrett multiplier, a 1-cycle adder and subtractor) has no
//!   field of its own: the fill and drain are inside the per-stage
//!   pipeline turnaround (22 cycles) and the pass setup, which, with the
//!   burst-16 streaming structure (gap 2, setup 20), are calibrated once
//!   against Table V's measured latencies and never tuned
//!   per-experiment; with them the model reproduces every Table V row to
//!   ≤ 0.02 %.
//! * The bank plan needs at least 3 dual-port and 5 single-port banks
//!   (compute ×3, twiddle ×2, storage ×3); [`ChipConfig::validate`]
//!   refuses fewer.

/// Microarchitectural and physical parameters of one CoFHEE instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// Core clock frequency in Hz (silicon: 250 MHz).
    pub freq_hz: u64,
    /// Largest polynomial degree that fits on chip with II = 1.
    pub max_onchip_n: usize,
    /// Number of processing elements (silicon: 1; the Section VIII-A
    /// scalability discussion explores 2 and 4).
    pub pe_count: usize,
    /// Number of dual-port logical SRAM banks (silicon: 3).
    pub dual_port_banks: usize,
    /// Number of single-port logical SRAM banks (silicon: 5).
    pub single_port_banks: usize,
    /// Words per polynomial bank (must hold `max_onchip_n` coefficients).
    pub bank_words: usize,
    /// Pipeline fill/drain + address-generator turnaround per NTT stage.
    pub stage_overhead: u32,
    /// Streaming burst length for pointwise passes (words).
    pub stream_burst: u32,
    /// Dead cycles between streaming bursts.
    pub burst_gap: u32,
    /// Setup cycles for a streaming pass (decode + AGU initialization).
    pub pass_setup: u32,
    /// Cycles to trigger a command out of the FIFO.
    pub cmd_trigger: u32,
    /// DMA setup cycles per transfer.
    pub dma_setup: u32,
    /// SPI interface clock in Hz (host link, Section III-K: 50 MHz).
    pub spi_hz: u64,
    /// Default UART baud rate for the host link.
    pub uart_baud: u64,
}

impl ChipConfig {
    /// The fabricated 55 nm silicon configuration.
    pub fn silicon() -> Self {
        Self {
            freq_hz: 250_000_000,
            max_onchip_n: 1 << 13,
            pe_count: 1,
            dual_port_banks: 3,
            single_port_banks: 5,
            bank_words: 1 << 13,
            stage_overhead: 22,
            stream_burst: 16,
            burst_gap: 2,
            pass_setup: 20,
            cmd_trigger: 1,
            dma_setup: 4,
            spi_hz: 50_000_000,
            uart_baud: 921_600,
        }
    }

    /// The scaled-down FPGA validation build: `n = 2^12` at 10 MHz on a
    /// Digilent Nexys 4 (Section III-J).
    pub fn fpga_nexys4() -> Self {
        Self { freq_hz: 10_000_000, max_onchip_n: 1 << 12, bank_words: 1 << 12, ..Self::silicon() }
    }

    /// A scalability variant with `pe_count` processing elements and a
    /// proportionally enlarged memory system (Section VIII-A).
    pub fn with_pe_count(pe_count: usize) -> Self {
        Self { pe_count, dual_port_banks: 3 * pe_count.max(1), ..Self::silicon() }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadConfiguration`](crate::SimError) when any
    /// parameter is degenerate.
    pub fn validate(&self) -> crate::Result<()> {
        let fail = |reason: String| Err(crate::SimError::BadConfiguration { reason });
        if self.freq_hz == 0 {
            return fail("clock frequency must be nonzero".into());
        }
        if !self.max_onchip_n.is_power_of_two() {
            return fail(format!("max n {} must be a power of two", self.max_onchip_n));
        }
        if self.bank_words < self.max_onchip_n {
            return fail(format!(
                "banks of {} words cannot hold n = {}",
                self.bank_words, self.max_onchip_n
            ));
        }
        if self.pe_count == 0 {
            return fail("need at least 1 PE".into());
        }
        // The bank plan every driver schedules against: three dual-port
        // compute banks, then two twiddle and three storage banks.
        if self.dual_port_banks < 3 || self.single_port_banks < 5 {
            return fail(format!(
                "{} dual-port and {} single-port banks: the bank plan needs at least 3 and 5",
                self.dual_port_banks, self.single_port_banks
            ));
        }
        if self.stream_burst == 0 {
            return fail("stream burst must be nonzero".into());
        }
        Ok(())
    }

    /// Converts a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::silicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silicon_config_is_valid_and_matches_paper() {
        let c = ChipConfig::silicon();
        c.validate().unwrap();
        assert_eq!(c.freq_hz, 250_000_000);
        assert_eq!(c.max_onchip_n, 1 << 13);
        assert_eq!(c.dual_port_banks, 3);
        assert_eq!(c.single_port_banks, 5);
    }

    #[test]
    fn fpga_config_is_scaled_down() {
        let c = ChipConfig::fpga_nexys4();
        c.validate().unwrap();
        assert_eq!(c.freq_hz, 10_000_000);
        assert_eq!(c.max_onchip_n, 1 << 12);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let mut c = ChipConfig::silicon();
        c.freq_hz = 0;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::silicon();
        c.bank_words = 16;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::silicon();
        c.pe_count = 0;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::silicon();
        c.dual_port_banks = 2;
        assert!(c.validate().is_err());
        let mut c = ChipConfig::silicon();
        c.single_port_banks = 4;
        assert!(c.validate().is_err());
    }

    #[test]
    fn cycle_time_conversion() {
        let c = ChipConfig::silicon();
        // 250 cycles at 250 MHz = 1 µs.
        assert!((c.cycles_to_seconds(250) * 1e6 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_pe_variant_scales_memory() {
        let c = ChipConfig::with_pe_count(4);
        c.validate().unwrap();
        assert_eq!(c.pe_count, 4);
        assert_eq!(c.dual_port_banks, 12);
    }
}
