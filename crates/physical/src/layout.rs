//! Layout, floorplan and clock-tree statistics — Tables IV and IX.

/// Table IV: the physical layout parameters after place and route.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutParams {
    /// Initial standard-cell utilization (fraction).
    pub initial_utilization: f64,
    /// Final utilization after PnR iterations.
    pub final_utilization: f64,
    /// Macro (SRAM) area, µm².
    pub macro_area_um2: f64,
    /// IO pad height, µm.
    pub io_pad_height_um: f64,
    /// Core-to-IO spacing, µm.
    pub core_to_io_um: f64,
    /// Core aspect ratio.
    pub aspect_ratio: f64,
    /// Standard-cell area, µm².
    pub std_cell_area_um2: f64,
    /// Core width, µm.
    pub core_width_um: f64,
    /// Core height, µm.
    pub core_height_um: f64,
    /// Die width, µm.
    pub die_width_um: f64,
    /// Die height, µm.
    pub die_height_um: f64,
}

impl LayoutParams {
    /// The published CoFHEE layout (Table IV).
    pub fn cofhee() -> Self {
        Self {
            initial_utilization: 0.45,
            final_utilization: 0.59,
            macro_area_um2: 8_941_959.0,
            io_pad_height_um: 120.0,
            core_to_io_um: 10.0,
            aspect_ratio: 1.05,
            std_cell_area_um2: 1_963_585.0,
            core_width_um: 3400.0,
            core_height_um: 3582.0,
            die_width_um: 3660.0,
            die_height_um: 3842.0,
        }
    }

    /// Die area in mm² (the paper's 12 mm² figure, ~14.1 mm² with the
    /// seal ring margin counted as 15 mm² total die in Section V).
    pub fn die_area_mm2(&self) -> f64 {
        self.die_width_um * self.die_height_um / 1e6
    }

    /// Core area in mm².
    pub fn core_area_mm2(&self) -> f64 {
        self.core_width_um * self.core_height_um / 1e6
    }

    /// Fraction of the core occupied by SRAM macros.
    pub fn macro_fraction(&self) -> f64 {
        self.macro_area_um2 / (self.core_width_um * self.core_height_um)
    }
}

impl Default for LayoutParams {
    fn default() -> Self {
        Self::cofhee()
    }
}

/// Table IX: design and clock-tree statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockTreeStats {
    /// Die width, µm.
    pub width_um: f64,
    /// Die height, µm.
    pub height_um: f64,
    /// Signal pad count.
    pub signal_pads: u32,
    /// Power/ground pad count.
    pub pg_pads: u32,
    /// PLL bias pad count.
    pub pll_bias_pads: u32,
    /// SRAM macro instances.
    pub memories: u32,
    /// Clock net name.
    pub clock_name: &'static str,
    /// Corner used for clock-tree synthesis.
    pub cts_corner: &'static str,
    /// Clock tree levels.
    pub levels: u32,
    /// Clock sinks.
    pub sinks: u32,
    /// Clock tree buffers inserted.
    pub buffers: u32,
    /// Global skew, ps.
    pub global_skew_ps: f64,
    /// Longest insertion delay, ns.
    pub longest_insertion_ns: f64,
    /// Shortest insertion delay, ns.
    pub shortest_insertion_ns: f64,
}

impl ClockTreeStats {
    /// The published CoFHEE clock tree (Table IX).
    pub fn cofhee() -> Self {
        Self {
            width_um: 3660.0,
            height_um: 3842.0,
            signal_pads: 26,
            pg_pads: 11,
            pll_bias_pads: 8,
            memories: 68,
            clock_name: "HCLK",
            cts_corner: "slow",
            levels: 26,
            sinks: 18_413,
            buffers: 464,
            global_skew_ps: 240.0,
            longest_insertion_ns: 2.079,
            shortest_insertion_ns: 1.838,
        }
    }

    /// Insertion-delay spread (longest − shortest), ns; must be
    /// consistent with the reported global skew.
    pub fn insertion_spread_ns(&self) -> f64 {
        self.longest_insertion_ns - self.shortest_insertion_ns
    }
}

impl Default for ClockTreeStats {
    fn default() -> Self {
        Self::cofhee()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn die_area_matches_paper() {
        let l = LayoutParams::cofhee();
        // 3.660 × 3.842 mm ≈ 14.06 mm²; the paper quotes 12 mm² of
        // design area within a 15 mm² die including the seal ring.
        assert!((l.die_area_mm2() - 14.06).abs() < 0.01);
        assert!((l.core_area_mm2() - 12.18).abs() < 0.01);
    }

    #[test]
    fn memories_dominate_the_floorplan() {
        let l = LayoutParams::cofhee();
        assert!(l.macro_fraction() > 0.70, "macro fraction {}", l.macro_fraction());
    }

    #[test]
    fn utilization_grows_through_pnr() {
        // Table III's arc: 45% initial to 59% final.
        let l = LayoutParams::cofhee();
        assert!(l.final_utilization > l.initial_utilization);
    }

    #[test]
    fn clock_tree_matches_table9() {
        let c = ClockTreeStats::cofhee();
        assert_eq!(c.sinks, 18_413);
        assert_eq!(c.memories, 68);
        assert!((c.global_skew_ps - 240.0).abs() < 1e-9);
        // Skew (240 ps) is consistent with the insertion spread (241 ps).
        assert!((c.insertion_spread_ns() * 1000.0 - c.global_skew_ps).abs() < 5.0);
    }

    #[test]
    fn pad_counts_sum_to_forty_five() {
        // 26 signal + 11 PG + 8 PLL bias = 45 of the 47 digital IO pads
        // (the paper counts 47 including two spares).
        let c = ClockTreeStats::cofhee();
        assert_eq!(c.signal_pads + c.pg_pads + c.pll_bias_pads, 45);
    }
}
