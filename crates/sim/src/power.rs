//! Activity-based power estimation.
//!
//! The paper measures chip power with a current probe on the 1.2 V core
//! supply (Section V-F) and reports per-operation average and peak power
//! in Table V. This model reproduces those measurements from simulator
//! activity: each [`PhaseCycles`] phase has a characteristic power level
//! (what the corresponding datapath pattern draws while streaming), and
//!
//! * **average power** is the cycle-weighted mean of the phase powers;
//! * **peak power** is the hottest active phase scaled by a worst-case
//!   data-toggling factor (a current probe catches worst-case switching,
//!   not the average pattern).
//!
//! Phase powers are calibrated once against the six (avg, peak) points of
//! Table V and then reused everywhere — in particular they *predict* the
//! Fig. 6b chip powers (21–22 mW) with no further tuning.

use crate::mdmc::PhaseCycles;

/// Per-phase power levels in milliwatts, plus the peak toggling factor.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Static leakage + clock tree, drawn in every phase including idle.
    pub idle_mw: f64,
    /// Cooley–Tukey butterfly streaming (forward NTT inner loop).
    pub ct_butterfly_mw: f64,
    /// Gentleman–Sande butterfly streaming (inverse NTT inner loop).
    pub gs_butterfly_mw: f64,
    /// Constant-multiplication pass (n⁻¹ scaling, CMODMUL).
    pub scale_pass_mw: f64,
    /// Hadamard / squaring pass.
    pub hadamard_mw: f64,
    /// Add/sub pass.
    pub addsub_mw: f64,
    /// Raw (non-modular) multiply pass.
    pub raw_mul_mw: f64,
    /// DMA streaming.
    pub dma_mw: f64,
    /// Worst-case over average data-toggling ratio for peak estimation.
    pub peak_factor: f64,
}

impl PowerModel {
    /// The calibrated silicon model (55 nm, 1.2 V core, 250 MHz).
    pub fn silicon() -> Self {
        Self {
            idle_mw: 5.0,
            ct_butterfly_mw: 24.7,
            gs_butterfly_mw: 20.9,
            scale_pass_mw: 12.0,
            hadamard_mw: 24.4,
            addsub_mw: 10.0,
            raw_mul_mw: 20.0,
            dma_mw: 8.0,
            peak_factor: 1.23,
        }
    }

    /// Cycle-weighted average power over an activity window, in mW.
    pub fn average_mw(&self, phases: &PhaseCycles) -> f64 {
        let total = phases.total();
        if total == 0 {
            return self.idle_mw;
        }
        let energy = phases.ct_butterfly as f64 * self.ct_butterfly_mw
            + phases.gs_butterfly as f64 * self.gs_butterfly_mw
            + phases.scale_pass as f64 * self.scale_pass_mw
            + phases.hadamard_pass as f64 * self.hadamard_mw
            + phases.addsub_pass as f64 * self.addsub_mw
            + phases.raw_mul_pass as f64 * self.raw_mul_mw
            + phases.dma as f64 * self.dma_mw
            + phases.overhead as f64 * self.idle_mw;
        energy / total as f64
    }

    /// Peak power over an activity window (hottest active phase under
    /// worst-case toggling), in mW.
    pub fn peak_mw(&self, phases: &PhaseCycles) -> f64 {
        let mut peak = self.idle_mw;
        let mut consider = |cycles: u64, mw: f64| {
            if cycles > 0 && mw > peak {
                peak = mw;
            }
        };
        consider(phases.ct_butterfly, self.ct_butterfly_mw);
        consider(phases.gs_butterfly, self.gs_butterfly_mw);
        consider(phases.scale_pass, self.scale_pass_mw);
        consider(phases.hadamard_pass, self.hadamard_mw);
        consider(phases.addsub_pass, self.addsub_mw);
        consider(phases.raw_mul_pass, self.raw_mul_mw);
        consider(phases.dma, self.dma_mw);
        peak * self.peak_factor
    }

    /// Energy of a window in microjoules at the given clock.
    #[cfg(test)]
    pub(crate) fn energy_uj(&self, phases: &PhaseCycles, freq_hz: u64) -> f64 {
        let seconds = phases.total() as f64 / freq_hz as f64;
        self.average_mw(phases) * 1e-3 * seconds * 1e6
    }

    /// Power-delay product of a window in `W·ms` — the paper's Section
    /// VI-B efficiency metric.
    #[cfg(test)]
    pub(crate) fn power_delay_product_wms(&self, phases: &PhaseCycles, freq_hz: u64) -> f64 {
        let ms = phases.total() as f64 / freq_hz as f64 * 1e3;
        self.average_mw(phases) * 1e-3 * ms
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::silicon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ntt_phases(n: u64, stages: u64) -> PhaseCycles {
        PhaseCycles {
            ct_butterfly: stages * n / 2,
            overhead: stages * 22 + 1,
            ..PhaseCycles::default()
        }
    }

    fn intt_phases(n: u64, stages: u64) -> PhaseCycles {
        PhaseCycles {
            gs_butterfly: stages * n / 2,
            scale_pass: n,
            overhead: stages * 22 + n / 8 + 20,
            ..PhaseCycles::default()
        }
    }

    #[test]
    fn ntt_power_tracks_table5() {
        let m = PowerModel::silicon();
        // Table V: NTT avg 24.5 / 24.4 mW, peak 30.4 / 29.7 mW.
        for (log_n, avg_paper, peak_paper) in [(12u32, 24.5, 30.4), (13, 24.4, 29.7)] {
            let p = ntt_phases(1 << log_n, log_n as u64);
            let avg = m.average_mw(&p);
            let peak = m.peak_mw(&p);
            assert!((avg - avg_paper).abs() / avg_paper < 0.05, "avg {avg} vs {avg_paper}");
            assert!((peak - peak_paper).abs() / peak_paper < 0.05, "peak {peak} vs {peak_paper}");
        }
    }

    #[test]
    fn intt_power_tracks_table5() {
        let m = PowerModel::silicon();
        // Table V: iNTT avg 19.9 / 18.3 mW, peak 27.2 / 23.9 mW.
        for (log_n, avg_paper, peak_paper) in [(12u32, 19.9, 27.2), (13, 18.3, 23.9)] {
            let p = intt_phases(1 << log_n, log_n as u64);
            let avg = m.average_mw(&p);
            let peak = m.peak_mw(&p);
            assert!(
                (avg - avg_paper).abs() / avg_paper < 0.10,
                "iNTT avg {avg} vs paper {avg_paper} (n = 2^{log_n})"
            );
            assert!(
                (peak - peak_paper).abs() / peak_paper < 0.10,
                "iNTT peak {peak} vs paper {peak_paper}"
            );
        }
    }

    #[test]
    fn polymul_power_tracks_table5() {
        let m = PowerModel::silicon();
        // PolyMul = 2 NTT + Hadamard + iNTT. Table V: 22.9 / 21.2 mW avg.
        for (log_n, avg_paper) in [(12u32, 22.9), (13, 21.2)] {
            let n = 1u64 << log_n;
            let mut p = ntt_phases(n, log_n as u64);
            p.absorb(&ntt_phases(n, log_n as u64));
            p.absorb(&PhaseCycles {
                hadamard_pass: n,
                overhead: n / 8 + 20,
                ..PhaseCycles::default()
            });
            p.absorb(&intt_phases(n, log_n as u64));
            let avg = m.average_mw(&p);
            assert!(
                (avg - avg_paper).abs() / avg_paper < 0.07,
                "PolyMul avg {avg} vs paper {avg_paper}"
            );
            // Peak is set by the NTT phase, as the paper observes.
            let peak = m.peak_mw(&p);
            assert!((peak - 30.4).abs() < 1.0, "peak {peak}");
        }
    }

    #[test]
    fn empty_window_draws_idle() {
        let m = PowerModel::silicon();
        assert_eq!(m.average_mw(&PhaseCycles::default()), m.idle_mw);
    }

    #[test]
    fn energy_and_pdp_are_consistent() {
        let m = PowerModel::silicon();
        let p = ntt_phases(1 << 12, 12);
        let freq = 250_000_000;
        let e = m.energy_uj(&p, freq);
        let pdp = m.power_delay_product_wms(&p, freq);
        // E [µJ] = PDP [W·ms] × 1000.
        assert!((e - pdp * 1000.0).abs() < 1e-9);
        assert!(e > 0.0);
    }

    #[test]
    fn peak_exceeds_average() {
        let m = PowerModel::silicon();
        let p = ntt_phases(1 << 13, 13);
        assert!(m.peak_mw(&p) > m.average_mw(&p));
    }
}
