//! The post-synthesis part catalogue — Table VIII of the paper.
//!
//! "In Table VIII, we present the post synthesis area and timing of the
//! major CoFHEE blocks. Other than memory, the largest design is the PE,
//! followed by the AHB and configuration registers." These numbers feed
//! the Table XI efficiency normalization (PE + MDMC area) and the
//! Section VIII-A scalability estimates (adding three PEs costs
//! ≈1.9 mm²).

/// One synthesized block: area and critical-path delay.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Block name as printed in Table VIII.
    pub name: &'static str,
    /// Post-synthesis area in mm² (GF 55nm LPE).
    pub area_mm2: f64,
    /// Post-synthesis critical path in ns (`None` for the "Others" row).
    pub delay_ns: Option<f64>,
}

/// The Table VIII catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct PartCatalogue {
    parts: Vec<Part>,
}

impl PartCatalogue {
    /// The published CoFHEE numbers.
    pub fn cofhee() -> Self {
        let parts = vec![
            Part { name: "3 DP SRAMs", area_mm2: 5.3506, delay_ns: Some(4.22) },
            Part { name: "4 SP SRAMs", area_mm2: 3.2036, delay_ns: Some(4.19) },
            Part { name: "PE", area_mm2: 0.6394, delay_ns: Some(5.65) },
            Part { name: "CM0 SRAM", area_mm2: 0.4062, delay_ns: Some(6.13) },
            Part { name: "AHB", area_mm2: 0.0747, delay_ns: Some(5.76) },
            Part { name: "GPCFG", area_mm2: 0.0534, delay_ns: Some(7.03) },
            Part { name: "ARM CM0", area_mm2: 0.0354, delay_ns: Some(5.24) },
            Part { name: "MDMC", area_mm2: 0.0273, delay_ns: Some(4.16) },
            Part { name: "SPI", area_mm2: 0.0202, delay_ns: Some(7.74) },
            Part { name: "DMA", area_mm2: 0.0075, delay_ns: Some(7.17) },
            Part { name: "UART", area_mm2: 0.0065, delay_ns: Some(5.66) },
            Part { name: "GPIO", area_mm2: 0.0035, delay_ns: Some(6.73) },
            Part { name: "Others", area_mm2: 0.0063, delay_ns: None },
        ];
        Self { parts }
    }

    /// All parts in Table VIII order.
    #[cfg(test)]
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Looks a part up by name.
    pub fn part(&self, name: &str) -> Option<&Part> {
        self.parts.iter().find(|p| p.name == name)
    }

    /// Total synthesized area (Table VIII's "Total" row: 9.8345 mm²).
    #[cfg(test)]
    pub fn total_area_mm2(&self) -> f64 {
        self.parts.iter().map(|p| p.area_mm2).sum()
    }

    /// PE + MDMC area — the compute portion the Table XI efficiency
    /// metric normalizes by (memory excluded, as the paper explains).
    pub fn compute_area_mm2(&self) -> f64 {
        self.part("PE").map(|p| p.area_mm2).unwrap_or(0.0)
            + self.part("MDMC").map(|p| p.area_mm2).unwrap_or(0.0)
    }

    /// Area of all SRAM blocks.
    #[cfg(test)]
    pub fn memory_area_mm2(&self) -> f64 {
        ["3 DP SRAMs", "4 SP SRAMs", "CM0 SRAM"]
            .iter()
            .filter_map(|n| self.part(n))
            .map(|p| p.area_mm2)
            .sum()
    }

    /// Section VIII-A scalability estimate: chip area growth when adding
    /// `extra_pes` processing elements (the paper: three extra PEs cost
    /// ≈1.9 mm² including their share of datapath plumbing).
    pub fn multi_pe_area_increase_mm2(&self, extra_pes: usize) -> f64 {
        let pe = self.part("PE").map(|p| p.area_mm2).unwrap_or(0.0);
        // The paper's 1.9 mm² for 3 PEs ⇒ ~0.633 mm² per PE, essentially
        // the PE block itself (mux/control amortized).
        pe * extra_pes as f64
    }
}

impl Default for PartCatalogue {
    fn default() -> Self {
        Self::cofhee()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_table8() {
        let c = PartCatalogue::cofhee();
        // The printed total (9.8345) is the paper's rounding of the
        // column sum (9.8346).
        assert!((c.total_area_mm2() - 9.8345).abs() < 2e-4, "{}", c.total_area_mm2());
        assert_eq!(c.parts().len(), 13);
    }

    #[test]
    fn compute_area_is_pe_plus_mdmc() {
        let c = PartCatalogue::cofhee();
        assert!((c.compute_area_mm2() - (0.6394 + 0.0273)).abs() < 1e-12);
    }

    #[test]
    fn memory_dominates_the_design() {
        // "The majority of the available chip area is occupied by the
        // SRAMs" (Section III-A).
        let c = PartCatalogue::cofhee();
        assert!(c.memory_area_mm2() > c.total_area_mm2() / 2.0);
    }

    #[test]
    fn three_extra_pes_cost_about_1_9_mm2() {
        // Section VIII-A: "the area would increase by only 1.9 mm² for
        // the addition of three additional PEs".
        let c = PartCatalogue::cofhee();
        let inc = c.multi_pe_area_increase_mm2(3);
        assert!((inc - 1.9).abs() < 0.05, "increase = {inc}");
    }

    #[test]
    fn pe_is_six_percent_of_design() {
        // Section III-E: the PE "occupies 6% of the design area".
        let c = PartCatalogue::cofhee();
        let frac = c.part("PE").unwrap().area_mm2 / c.total_area_mm2();
        assert!((frac - 0.065).abs() < 0.01, "PE fraction {frac}");
    }

    #[test]
    fn memory_read_sets_the_clock() {
        // Section III-D: the SRAM read path (~4 ns) limits the clock to
        // 250 MHz; logic paths synthesized slower close timing in the
        // backend with faster cells.
        let c = PartCatalogue::cofhee();
        let sram_delay = c.part("3 DP SRAMs").unwrap().delay_ns.unwrap();
        assert!((4.0..4.5).contains(&sram_delay));
    }
}
