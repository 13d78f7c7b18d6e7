//! # cofhee-physical
//!
//! The physical-design data the evaluation consumes. The paper's
//! Tables III, IV, VI, VII and IX are EDA reports of the fabricated
//! chip's flow that nothing here can regenerate, so the paper is their
//! record; this crate keeps the figures a derivation reads:
//!
//! * [`PartCatalogue`] — Table VIII post-synthesis areas/delays: the
//!   PE + MDMC compute area Table XI normalizes by, and the ≈1.9 mm²
//!   cost of three extra PEs from Section VIII-A.
//! * [`TechScaling`] — the measured 55 nm → 7 nm Barrett-synthesis
//!   factors (area 16.7×, delay 3.7×) behind the Table XI normalization.
//! * [`ComparisonTable`] — Table XI: the F1 / CraterLake / BTS / ARK /
//!   HEAX / Roy comparator records, the efficiency derivation, and the
//!   6.3× / 1.39× / 46.19× / 4.72× speedup ratios.
//!
//! # Examples
//!
//! ```
//! use cofhee_physical::{ComparisonTable, PartCatalogue, TechScaling};
//!
//! let table = ComparisonTable::table11();
//! let eff = table.derive_cofhee_efficiency(
//!     &PartCatalogue::cofhee(),
//!     &TechScaling::gf55_to_7nm(),
//! );
//! assert!((eff - 4.54e-4).abs() / 4.54e-4 < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parts;
mod related;
mod scaling;

pub use parts::{Part, PartCatalogue};
pub use related::{ComparisonTable, Platform, RelatedDesign};
pub use scaling::TechScaling;
