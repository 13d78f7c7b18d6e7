//! # cofhee-apps
//!
//! The end-to-end applications of the CoFHEE evaluation (Section VI-C,
//! Table X): CryptoNets encrypted neural-network inference and
//! privacy-preserving logistic regression.
//!
//! Two levels are provided:
//!
//! * [`workloads`] / [`costs`] / [`estimate`] — the paper's op-count
//!   accounting: exact operation mixes, per-op cost models measured from
//!   the simulator (CoFHEE) and from the host's NTT plan (CPU), and the
//!   Table X estimator with the 2.23× / 1.46× speedup reproduction.
//! * [`demos`] — *functional* encrypted inference running end to end:
//!   a CryptoNets-style square-activation layer and a
//!   logistic-regression scorer on BFV, plus a CKKS logistic model that
//!   evaluates the sigmoid itself under encryption as a degree-3
//!   polynomial — all verified against plaintext reference models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod demos;
pub mod estimate;
pub mod workloads;

pub use costs::{measure_cofhee, OpCosts, RELIN_DIGITS};
pub use demos::{
    constant_plaintext, decrypt_slots, encrypt_features, encrypt_real_features, sigmoid_deg3,
    ApproxLogistic, LogisticScorer, SquareLayerNet,
};
pub use estimate::{render_table10, table10, AppEstimate};
pub use workloads::{Table10Reference, Workload};
