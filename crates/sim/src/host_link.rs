//! Host communication links: UART and SPI (Section III-H).
//!
//! "CoFHEE provides SPI and UART interfaces for external host
//! communication. These interfaces are used for loading polynomials,
//! triggering the required operation and reading back the result." The
//! paper picks them for simplicity and notes they could be swapped for
//! PCIe/HSIC; what the evaluation needs from them is *transfer latency*,
//! which these models compute bit-accurately — the basis of the
//! communication-cost accounting for `n ≥ 2^14` polynomials
//! (Section III-C) and of the chip-bringup example.

use crate::config::ChipConfig;

/// A byte-serial host link with a fixed per-byte wire time.
pub trait HostLink {
    /// Seconds to move one byte across the wire.
    fn seconds_per_byte(&self) -> f64;

    /// Human-readable link name.
    fn name(&self) -> &'static str;

    /// Seconds to transfer `bytes` bytes (plus per-transfer overhead).
    fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.seconds_per_byte() * bytes as f64 + self.setup_seconds()
    }

    /// Fixed per-transfer overhead (framing, register writes).
    fn setup_seconds(&self) -> f64 {
        0.0
    }

    /// Seconds to move one polynomial of `n` coefficients of `bits` bits
    /// each.
    fn polynomial_seconds(&self, n: usize, bits: u32) -> f64 {
        self.transfer_seconds(n as u64 * bits.div_ceil(8) as u64)
    }
}

/// The UART link: 8N1 framing (10 wire bits per byte) at a programmable
/// baud rate (the `UARTMBAUD_CTL` register).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uart {
    baud: u64,
}

impl Uart {
    /// A UART at the given baud rate.
    ///
    /// # Panics
    ///
    /// Panics if `baud` is zero.
    pub fn new(baud: u64) -> Self {
        assert!(baud > 0, "baud rate must be nonzero");
        Self { baud }
    }

    /// The UART from a chip configuration.
    pub fn from_config(config: &ChipConfig) -> Self {
        Self::new(config.uart_baud)
    }

    /// Current baud rate.
    pub fn baud(&self) -> u64 {
        self.baud
    }
}

impl HostLink for Uart {
    fn seconds_per_byte(&self) -> f64 {
        // Start bit + 8 data bits + stop bit.
        10.0 / self.baud as f64
    }

    fn name(&self) -> &'static str {
        "UART"
    }
}

/// The SPI link, constrained to 50 MHz interface timing (Section III-K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spi {
    clock_hz: u64,
    /// Command/address bytes prepended to each transfer.
    command_overhead_bytes: u64,
}

impl Spi {
    /// An SPI master at the given clock.
    ///
    /// # Panics
    ///
    /// Panics if `clock_hz` is zero.
    pub fn new(clock_hz: u64) -> Self {
        assert!(clock_hz > 0, "SPI clock must be nonzero");
        Self { clock_hz, command_overhead_bytes: 5 }
    }

    /// The SPI link from a chip configuration.
    pub fn from_config(config: &ChipConfig) -> Self {
        Self::new(config.spi_hz)
    }

    /// Interface clock in Hz.
    pub fn clock_hz(&self) -> u64 {
        self.clock_hz
    }
}

impl HostLink for Spi {
    fn seconds_per_byte(&self) -> f64 {
        8.0 / self.clock_hz as f64
    }

    fn setup_seconds(&self) -> f64 {
        self.seconds_per_byte() * self.command_overhead_bytes as f64
    }

    fn name(&self) -> &'static str {
        "SPI"
    }
}

/// Round-trip accounting for polynomials that exceed on-chip capacity:
/// for `n > max_onchip_n` the ciphertext data must stream in and out per
/// chunk, and "the communication costs increase" (Section III-C).
pub fn offchip_round_trips(n: usize, max_onchip_n: usize) -> u64 {
    if n <= max_onchip_n {
        0
    } else {
        (n / max_onchip_n) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uart_byte_time_is_ten_bits() {
        let u = Uart::new(115_200);
        let t = u.seconds_per_byte();
        assert!((t - 10.0 / 115_200.0).abs() < 1e-15);
        assert_eq!(u.name(), "UART");
    }

    #[test]
    fn spi_is_much_faster_than_uart() {
        let cfg = ChipConfig::silicon();
        let uart = Uart::from_config(&cfg);
        let spi = Spi::from_config(&cfg);
        let n = 1 << 13;
        let t_uart = uart.polynomial_seconds(n, 128);
        let t_spi = spi.polynomial_seconds(n, 128);
        assert!(t_spi < t_uart / 10.0, "SPI {t_spi} vs UART {t_uart}");
    }

    #[test]
    fn polynomial_transfer_scales_linearly() {
        let spi = Spi::new(50_000_000);
        let t1 = spi.polynomial_seconds(1 << 12, 128);
        let t2 = spi.polynomial_seconds(1 << 13, 128);
        let ratio = (t2 - spi.setup_seconds()) / (t1 - spi.setup_seconds());
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn spi_polynomial_time_magnitude() {
        // n=2^13 × 16 bytes = 131,072 bytes at 50 MHz/8bits ≈ 21 ms.
        let spi = Spi::new(50_000_000);
        let t = spi.polynomial_seconds(1 << 13, 128);
        assert!(t > 0.020 && t < 0.022, "t = {t}");
    }

    #[test]
    fn round_trip_accounting() {
        assert_eq!(offchip_round_trips(1 << 13, 1 << 13), 0);
        assert_eq!(offchip_round_trips(1 << 14, 1 << 13), 2);
        assert_eq!(offchip_round_trips(1 << 16, 1 << 13), 8);
    }

    #[test]
    #[should_panic(expected = "baud rate")]
    fn zero_baud_is_rejected() {
        let _ = Uart::new(0);
    }
}
