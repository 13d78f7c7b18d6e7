//! Place-and-route progression statistics — Tables III, VI and VII.

/// A PnR stage snapshot (one column of Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct PnrStage {
    /// Stage name (Initial / Place / CTS / Route).
    pub stage: &'static str,
    /// Standard-cell count.
    pub std_cells: u64,
    /// Sequential-cell count.
    pub sequential_cells: u64,
    /// Buffer/inverter count.
    pub buffer_inverter_cells: u64,
    /// Standard-cell utilization (fraction).
    pub utilization: f64,
    /// Signal net count.
    pub signal_nets: u64,
    /// High-Vt cell fraction.
    pub hvt_fraction: f64,
    /// Regular-Vt cell fraction.
    pub rvt_fraction: f64,
    /// Low-Vt cell fraction.
    pub lvt_fraction: f64,
}

/// The Table III progression.
#[derive(Debug, Clone, PartialEq)]
pub struct PnrStats {
    stages: Vec<PnrStage>,
}

impl PnrStats {
    /// The published CoFHEE numbers.
    pub fn cofhee() -> Self {
        let stages = vec![
            PnrStage {
                stage: "Initial",
                std_cells: 225_797,
                sequential_cells: 18_686,
                buffer_inverter_cells: 22_561,
                utilization: 0.45,
                signal_nets: 257_856,
                hvt_fraction: 1.0,
                rvt_fraction: 0.0,
                lvt_fraction: 0.0,
            },
            PnrStage {
                stage: "Place",
                std_cells: 376_853,
                sequential_cells: 18_686,
                buffer_inverter_cells: 89_072,
                utilization: 0.54,
                signal_nets: 398_340,
                hvt_fraction: 0.1375,
                rvt_fraction: 0.17,
                lvt_fraction: 0.6925,
            },
            PnrStage {
                stage: "CTS",
                std_cells: 378_957,
                sequential_cells: 18_686,
                buffer_inverter_cells: 91_372,
                utilization: 0.565,
                signal_nets: 401_407,
                hvt_fraction: 0.135,
                rvt_fraction: 0.121,
                lvt_fraction: 0.744,
            },
            PnrStage {
                stage: "Route",
                std_cells: 379_921,
                sequential_cells: 18_686,
                buffer_inverter_cells: 92_379,
                utilization: 0.59,
                signal_nets: 401_510,
                hvt_fraction: 0.134,
                rvt_fraction: 0.12,
                lvt_fraction: 0.746,
            },
        ];
        Self { stages }
    }

    /// Stage snapshots in flow order.
    pub fn stages(&self) -> &[PnrStage] {
        &self.stages
    }

    /// Looks up a stage by name.
    pub fn stage(&self, name: &str) -> Option<&PnrStage> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

impl Default for PnrStats {
    fn default() -> Self {
        Self::cofhee()
    }
}

/// One via layer's redundancy statistics (Table VII).
#[derive(Debug, Clone, PartialEq)]
pub struct ViaLayer {
    /// Layer name.
    pub layer: &'static str,
    /// Multi-cut via count.
    pub multi_cut: u64,
    /// Total via count.
    pub total: u64,
}

impl ViaLayer {
    /// Multi-cut conversion percentage.
    pub fn multi_cut_percent(&self) -> f64 {
        self.multi_cut as f64 / self.total as f64 * 100.0
    }
}

/// Table VII: redundant-via insertion results.
pub fn via_stats() -> Vec<ViaLayer> {
    vec![
        ViaLayer { layer: "V1", multi_cut: 21_659, total: 21_945 },
        ViaLayer { layer: "V2", multi_cut: 21_732, total: 21_844 },
        ViaLayer { layer: "V3", multi_cut: 21_991, total: 22_035 },
        ViaLayer { layer: "V4", multi_cut: 26_391, total: 26_455 },
        ViaLayer { layer: "WT", multi_cut: 2_438, total: 2_450 },
        ViaLayer { layer: "WA", multi_cut: 1_390, total: 1_393 },
    ]
}

/// One EDA flow stage (Table VI).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowStage {
    /// What the stage does.
    pub stage: &'static str,
    /// The tool used.
    pub tool: &'static str,
}

/// Table VI: stages and EDA tools.
pub fn flow_stages() -> Vec<FlowStage> {
    vec![
        FlowStage { stage: "Place and Route", tool: "Synopsys IC Compiler" },
        FlowStage { stage: "Interconnect parasitic extraction", tool: "Synopsys STAR-RCXT" },
        FlowStage { stage: "Static timing analysis", tool: "Synopsys PrimeTime-SI" },
        FlowStage { stage: "GDS merging and layout modification", tool: "Cadence Virtuoso" },
        FlowStage { stage: "Physical verification", tool: "Cadence PVS" },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_progression_matches_table3() {
        let p = PnrStats::cofhee();
        assert_eq!(p.stages().len(), 4);
        assert_eq!(p.stage("Route").unwrap().std_cells, 379_921);
        // "The standard cell count increases as the design moves from
        // initial to final routing stages".
        let counts: Vec<u64> = p.stages().iter().map(|s| s.std_cells).collect();
        assert!(counts.windows(2).all(|w| w[1] >= w[0]));
        // Sequential cells never change.
        assert!(p.stages().iter().all(|s| s.sequential_cells == 18_686));
    }

    #[test]
    fn vt_mix_shifts_from_hvt_to_lvt() {
        // "Our design started with 100% HVT cells and ended up with
        // 13.4%" (Table III).
        let p = PnrStats::cofhee();
        assert_eq!(p.stage("Initial").unwrap().hvt_fraction, 1.0);
        let route = p.stage("Route").unwrap();
        assert!((route.hvt_fraction - 0.134).abs() < 1e-9);
        assert!((route.hvt_fraction + route.rvt_fraction + route.lvt_fraction - 1.0).abs() < 0.01);
    }

    #[test]
    fn via_percentages_match_table7() {
        let vias = via_stats();
        let expected = [98.70, 99.49, 99.80, 99.76, 99.51, 99.78];
        for (v, e) in vias.iter().zip(expected) {
            assert!(
                (v.multi_cut_percent() - e).abs() < 0.01,
                "{}: {} vs {e}",
                v.layer,
                v.multi_cut_percent()
            );
        }
        // "More than 98% conversion... for the lower via layers".
        assert!(vias[..4].iter().all(|v| v.multi_cut_percent() > 98.0));
    }

    #[test]
    fn flow_has_five_stages() {
        let f = flow_stages();
        assert_eq!(f.len(), 5);
        assert!(f.iter().any(|s| s.tool.contains("IC Compiler")));
        assert!(f.iter().any(|s| s.tool.contains("PVS")));
    }
}
