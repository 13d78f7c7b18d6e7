//! The host half of BFV's RNS multiply on words, as fused kernels in the
//! vector lanes: the centered lift of residues mod `q < 2^110` onto lane
//! primes `pⱼ < 2^49`, and Eq. 4's scale-and-round from the tensor's
//! residues back to `q`.
//!
//! The library caller is `cofhee_bfv`: `Evaluator::tensor_streams` lifts
//! through [`lift_centered`] and its `RnsRound` finishes through
//! [`scale_round`]. That crate computes and owns every constant and keeps
//! the scalar loops, which run wherever these kernels do not — a host
//! without `avx512f`, `avx512ifma` and `avx512dq`, fewer than 16
//! coefficients, `q ≥ 2^110`, a lane prime at or past `2^49`, or more
//! than seven lane primes — and which are their oracle: both agree bit
//! for bit.

use cofhee_arith::ShoupMul;

pub use crate::ifma::{lift_centered, scale_round};

/// A lane prime `p` and its constants for a conversion from `q` and back,
/// as plain numbers: `P` is the product of all lane primes and `P̂ = P/p`.
#[derive(Debug, Clone, Copy)]
pub struct Lane {
    /// The lane prime `p`.
    pub p: u64,
    /// `[q]_p`: the centered lift subtracts it past `q/2`.
    pub q: u64,
    /// `[t]_p` and its Shoup quotient `⌊[t]_p·2^64/p⌋`.
    pub t: ShoupMul<u64>,
    /// `[q⁻¹·P̂⁻¹]_p` and its Shoup quotient.
    pub scale: ShoupMul<u64>,
    /// `1/p`, for the estimate `v = ⌊Σ ỹⱼ/pⱼ⌉`.
    pub inv: f64,
    /// `[P̂]_q` and its Shoup quotient for a word multiplicand,
    /// `⌊[P̂]_q·2^64/q⌋`.
    pub weight: (u128, u64),
}
