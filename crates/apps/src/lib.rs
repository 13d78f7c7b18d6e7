//! # cofhee-apps
//!
//! The end-to-end applications of the CoFHEE evaluation (Section VI-C,
//! Table X): CryptoNets encrypted neural-network inference and
//! privacy-preserving logistic regression.
//!
//! * [`workloads`] — the paper's exact operation mixes and its Table X
//!   reference runtimes. The `table10_apps` bench prices each op kind
//!   on a one-die farm and times it on the CPU evaluator; the farm's
//!   replays and the `farm_saturation` bench run the same mixes as jobs.
//! * [`demos`] — *functional* encrypted inference running end to end:
//!   a CryptoNets-style square-activation layer and a
//!   logistic-regression scorer on BFV, plus a CKKS logistic model that
//!   evaluates the sigmoid itself under encryption as a degree-3
//!   polynomial — all verified against plaintext reference models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demos;
pub mod workloads;

pub use demos::{
    constant_plaintext, decrypt_slots, encrypt_features, encrypt_real_features, sigmoid_deg3,
    ApproxLogistic, LogisticScorer, SquareLayerNet,
};
pub use workloads::{Table10Reference, Workload};
