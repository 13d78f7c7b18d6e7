//! The CoFHEE device driver.
//!
//! A [`Device`] is what the paper's host PC sees: a chip behind a UART or
//! SPI link (Section V-F's bring-up setup), with configuration registers
//! to program, polynomials to upload, commands to trigger, and results to
//! read back. The driver tracks communication time separately from
//! compute time, which is what the large-`n` analysis of Section III-C
//! turns on.

use cofhee_arith::Barrett128;
use cofhee_poly::pointwise;
use cofhee_sim::{
    Chip, ChipConfig, Command, DrainReport, HostLink, OpReport, Slot, Spi, Uart, COMMAND_WORDS,
};

use crate::error::{CoreError, Result};

/// How the host reaches the chip.
#[derive(Debug, Clone)]
pub enum Link {
    /// Zero-cost test access (simulator backdoor) — no wire accounting.
    Backdoor,
    /// UART at a given baud (the validation setup's FTDI path).
    Uart(Uart),
    /// SPI at the interface clock (50 MHz on silicon).
    Spi(Spi),
}

impl Link {
    /// Seconds to move `bytes` bytes across this link (zero for the
    /// backdoor).
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        match self {
            Link::Backdoor => 0.0,
            Link::Uart(u) => u.transfer_seconds(bytes),
            Link::Spi(s) => s.transfer_seconds(bytes),
        }
    }

    /// Human-readable link name.
    pub fn name(&self) -> &'static str {
        match self {
            Link::Backdoor => "backdoor",
            Link::Uart(u) => u.name(),
            Link::Spi(s) => s.name(),
        }
    }
}

/// Cumulative host-communication accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Bytes moved over the link.
    pub bytes: u64,
    /// Seconds spent on the wire.
    pub seconds: f64,
}

impl CommStats {
    /// Merges another accounting into this one (sequential
    /// composition): bytes sum saturating, wire seconds add. Use this
    /// instead of hand-rolling field-by-field sums when aggregating
    /// across backends, chips, or jobs.
    pub fn merge(&mut self, other: &CommStats) {
        self.bytes = self.bytes.saturating_add(other.bytes);
        self.seconds += other.seconds;
    }
}

/// A connected CoFHEE co-processor.
#[derive(Debug)]
pub struct Device {
    chip: Chip,
    ring: Barrett128,
    n: usize,
    fwd_tw: Slot,
    inv_tw: Slot,
    link: Link,
    comm: CommStats,
}

impl Device {
    /// Brings up a chip for modulus `q` and degree `n` over the backdoor
    /// link (no wire-time accounting): registers programmed, Barrett
    /// constants derived, twiddle tables generated and loaded.
    ///
    /// # Errors
    ///
    /// Parameter validation, root finding, or capacity failures.
    pub fn connect(config: ChipConfig, q: u128, n: usize) -> Result<Self> {
        Self::connect_via(config, q, n, Link::Backdoor)
    }

    /// Brings up a chip over an explicit host link.
    ///
    /// # Errors
    ///
    /// Parameter validation, root finding, or capacity failures.
    pub fn connect_via(mut config: ChipConfig, q: u128, n: usize, link: Link) -> Result<Self> {
        // Polynomials larger than the silicon optimum still run (at
        // II = 2, per Section III-C); grow the modeled banks to hold
        // them while keeping `max_onchip_n` at the silicon value so the
        // II penalty applies.
        if n > config.bank_words {
            config.bank_words = n;
        }
        let mut chip = Chip::new(config)?;
        let ring = Barrett128::new(q)?;
        // The twiddle tables come from the process-wide cache: a farm
        // bringing up N dies for the same (q, n) derives them once and
        // uploads the shared set to every die (which also installs the
        // plan as the simulated MDMC's functional NTT fast path).
        let plan = cofhee_poly::cache::TwiddleCache::barrett128(q, n)?;
        let (fwd_tw, inv_tw) = chip.load_plan(&plan)?;
        let mut device = Self { chip, ring, n, fwd_tw, inv_tw, link, comm: CommStats::default() };
        // Bring-up traffic: register programming (Q, N, INV_POLYDEG,
        // BARRETTCTL1/2 ≈ 14 words) plus two twiddle tables.
        device.account_bytes(14 * 4);
        device.account_bytes(2 * (n as u64) * 16);
        Ok(device)
    }

    /// The device's ring engine.
    pub fn ring(&self) -> &Barrett128 {
        &self.ring
    }

    /// The configured polynomial degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The underlying chip (inspection).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The underlying chip (driver extensions and tests).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }

    /// Communication totals since bring-up.
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Slot for the forward twiddle table.
    pub fn forward_twiddles(&self) -> Slot {
        self.fwd_tw
    }

    /// Slot for the inverse twiddle table.
    pub fn inverse_twiddles(&self) -> Slot {
        self.inv_tw
    }

    fn account_bytes(&mut self, bytes: u64) {
        self.comm.bytes += bytes;
        self.comm.seconds += self.link.transfer_seconds(bytes);
    }

    fn check_len(&self, len: usize) -> Result<()> {
        if len != self.n {
            return Err(CoreError::BadOperandLength { expected: self.n, found: len });
        }
        Ok(())
    }

    /// Uploads a polynomial over the host link, reducing each
    /// coefficient mod `q` straight into the bank.
    ///
    /// # Errors
    ///
    /// Length and bounds failures.
    pub fn upload(&mut self, slot: Slot, coeffs: &[u128]) -> Result<()> {
        self.price_transfer(slot, coeffs.len())?;
        self.write(slot, coeffs)
    }

    /// Downloads a polynomial over the host link.
    ///
    /// # Errors
    ///
    /// Bounds failures.
    pub fn download(&mut self, slot: Slot) -> Result<Vec<u128>> {
        self.price_transfer(slot, self.n)?;
        Ok(self.chip.read_polynomial(slot, self.n)?)
    }

    /// The timing half of a transfer of `len` words at `slot`: the
    /// length and bounds checks and the wire accounting, no data moved.
    pub(crate) fn price_transfer(&mut self, slot: Slot, len: usize) -> Result<()> {
        self.check_len(len)?;
        self.chip.memory().slice(slot, len)?;
        self.account_bytes(len as u64 * 16);
        Ok(())
    }

    /// The data half of an upload: `coeffs` reduced mod `q` into the
    /// bank (copied, when one range check finds them canonical), no wire
    /// time.
    pub(crate) fn write(&mut self, slot: Slot, coeffs: &[u128]) -> Result<()> {
        let words = self.chip.polynomial_mut(slot, coeffs.len())?;
        Ok(pointwise::reduce_into(&self.ring, words, coeffs)?)
    }

    // ---- single-command wrappers (Table I, resolved against the plan) --

    /// Forward NTT (`src → dst`).
    ///
    /// # Errors
    ///
    /// Chip execution failures.
    pub fn ntt(&mut self, src: Slot, dst: Slot) -> Result<OpReport> {
        Ok(self.chip.execute_now(Command::ntt(src, self.fwd_tw, dst))?)
    }

    /// Inverse NTT (`src → dst`).
    ///
    /// # Errors
    ///
    /// Chip execution failures.
    pub fn intt(&mut self, src: Slot, dst: Slot) -> Result<OpReport> {
        Ok(self.chip.execute_now(Command::intt(src, self.inv_tw, dst))?)
    }

    // ---- command-FIFO path (execution mode 2, with wire accounting) ----

    /// The host link this device was brought up over.
    pub fn link(&self) -> &Link {
        &self.link
    }

    /// Seconds this device's link takes to move `bytes` bytes (one
    /// transfer, setup included).
    pub fn link_transfer_seconds(&self, bytes: u64) -> f64 {
        self.link.transfer_seconds(bytes)
    }

    /// Enqueues a command into the chip's 32-deep FIFO, accounting the
    /// packed command words as host-link traffic (a command is
    /// [`COMMAND_WORDS`] × 4 bytes on the wire).
    ///
    /// # Errors
    ///
    /// Returns the typed FIFO-full error (with the capacity in its
    /// message) when the queue has no space — drain first.
    pub fn submit(&mut self, cmd: Command) -> Result<()> {
        self.chip.submit(cmd)?;
        self.account_bytes(COMMAND_WORDS as u64 * 4);
        Ok(())
    }

    /// Free command slots remaining in the FIFO.
    pub fn fifo_space(&self) -> usize {
        self.chip.fifo_space()
    }

    /// Drains the FIFO on timing alone ([`Chip::price_fifo`]): the
    /// returned report carries both wall-clock and serial cycle totals
    /// for the drained batch, and every drained command is handed to
    /// `priced`, in drain order, for the caller to apply.
    ///
    /// # Errors
    ///
    /// Propagates pricing failures.
    pub fn price_fifo(&mut self, priced: impl FnMut(Command)) -> Result<DrainReport> {
        Ok(self.chip.price_fifo(priced)?)
    }

    /// Reads and clears the chip's drain interrupt (see
    /// `CommandFifo::take_interrupt` for the edge/clear semantics).
    pub fn take_interrupt(&mut self) -> bool {
        self.chip.take_interrupt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::primes::ntt_prime;

    const Q109: u128 = 324518553658426726783156020805633;

    fn device(n: usize) -> Device {
        Device::connect(ChipConfig::silicon(), Q109, n).unwrap()
    }

    #[test]
    fn bring_up_programs_registers() {
        let d = device(1 << 12);
        assert_eq!(d.chip().gpcfg().q(), Q109);
        assert_eq!(d.chip().gpcfg().n(), 1 << 12);
        assert!(d.chip().gpcfg().inv_polydeg() != 0);
    }

    #[test]
    fn upload_download_round_trip() {
        let mut d = device(1 << 8);
        let plan = d.chip().bank_plan();
        let poly: Vec<u128> = (0..1u128 << 8).collect();
        d.upload(Slot::new(plan.d0, 0), &poly).unwrap();
        assert_eq!(d.download(Slot::new(plan.d0, 0)).unwrap(), poly);
    }

    #[test]
    fn link_time_is_accounted() {
        let spi = Spi::new(50_000_000);
        let mut d =
            Device::connect_via(ChipConfig::silicon(), Q109, 1 << 12, Link::Spi(spi)).unwrap();
        let at_bringup = d.comm_stats();
        assert!(at_bringup.seconds > 0.0, "twiddle upload costs wire time");
        let plan = d.chip().bank_plan();
        let poly = vec![1u128; 1 << 12];
        d.upload(Slot::new(plan.d0, 0), &poly).unwrap();
        let after = d.comm_stats();
        assert!(after.seconds > at_bringup.seconds);
        assert_eq!(after.bytes - at_bringup.bytes, (1 << 12) * 16);
    }

    #[test]
    fn ntt_round_trip_through_driver() {
        let mut d = device(1 << 10);
        let plan = d.chip().bank_plan();
        let poly: Vec<u128> = (0..1u128 << 10).map(|i| i * 31 + 5).collect();
        d.upload(Slot::new(plan.d0, 0), &poly).unwrap();
        d.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0)).unwrap();
        d.intt(Slot::new(plan.d1, 0), Slot::new(plan.d2, 0)).unwrap();
        assert_eq!(d.download(Slot::new(plan.d2, 0)).unwrap(), poly);
    }

    #[test]
    fn wrong_length_operands_are_rejected() {
        let mut d = device(1 << 8);
        let plan = d.chip().bank_plan();
        assert!(matches!(
            d.upload(Slot::new(plan.d0, 0), &[1, 2, 3]),
            Err(CoreError::BadOperandLength { .. })
        ));
    }

    #[test]
    fn comm_stats_merge_sums_and_saturates() {
        let mut a = CommStats { bytes: 100, seconds: 1.5 };
        a.merge(&CommStats { bytes: 28, seconds: 0.5 });
        assert_eq!(a.bytes, 128);
        assert!((a.seconds - 2.0).abs() < 1e-12);
        let mut b = CommStats { bytes: u64::MAX - 1, seconds: 0.0 };
        b.merge(&CommStats { bytes: 10, seconds: 0.0 });
        assert_eq!(b.bytes, u64::MAX, "byte totals pin instead of wrapping");
    }

    #[test]
    fn large_n_devices_grow_banks_and_pay_ii2() {
        let n = 1 << 14;
        let q = ntt_prime(109, n).unwrap();
        let mut d = Device::connect(ChipConfig::silicon(), q, n).unwrap();
        let plan = d.chip().bank_plan();
        let poly: Vec<u128> = (0..n as u128).collect();
        d.upload(Slot::new(plan.d0, 0), &poly).unwrap();
        let report = d.ntt(Slot::new(plan.d0, 0), Slot::new(plan.d1, 0)).unwrap();
        // II = 2: stages × n butterll cycles (instead of n/2).
        let stages = 14u64;
        assert_eq!(report.cycles, stages * (n as u64 + 22) + 1);
    }
}
