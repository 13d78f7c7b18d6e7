//! # cofhee-poly
//!
//! Polynomial substrate for the CoFHEE reproduction: the ring
//! `Z_q[x]/(x^n + 1)` that RLWE-based FHE (and therefore the entire CoFHEE
//! chip) computes in.
//!
//! * [`ntt`] — the Number Theoretic Transform: the paper's Algorithm 1
//!   (iterative Cooley–Tukey, sequential twiddle consumption), the
//!   Gentleman–Sande inverse, the merged negacyclic path the chip
//!   executes, and the explicit Algorithm 2 reference path.
//! * [`lazy`] — the Harvey lazy-reduction hot path ([`HarveyNtt`]):
//!   Shoup-paired twiddles, redundant coefficients across stages
//!   (`[0, 4q)` forward, `[0, 2q)` inverse) with a single final
//!   correction, and fused `intt ∘ hadamard` / Algorithm 2 passes.
//!   Bit-exact with [`ntt`], which remains the strict oracle.
//! * [`pool`] — [`BufferPool`]: bounded recycling of fixed-width
//!   scratch vectors so warmed steady-state traffic performs zero heap
//!   allocation (proved by a counting-allocator harness in
//!   `cofhee_core`).
//! * [`cache`] — the process-wide [`TwiddleCache`] interning one
//!   transform plan per `(modulus, degree)` pair, shared by backends,
//!   evaluators, and every die of a farm.
//! * [`naive`] — `O(n²)` schoolbook multiplication: the correctness oracle
//!   and the complexity baseline the paper motivates against.
//! * [`pointwise`] — the PMOD*/CMODMUL/PMUL command semantics of Table I.
//! * [`bitrev`] — bit-reversal permutation (the MEMCPYR command).
//! * [`Polynomial`] / [`PolyRing`] — owned values with domain tracking.
//! * [`golden`] — the pre-silicon verification vector generator
//!   (Section III-J of the paper).
//!
//! # Examples
//!
//! Multiply two polynomials the way CoFHEE does — 2 NTTs, a Hadamard pass,
//! one inverse NTT — and check against the naive oracle:
//!
//! ```
//! use cofhee_arith::{primes::ntt_prime, Barrett64};
//! use cofhee_poly::{naive, ntt, ntt::NttTables};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 256;
//! let q = ntt_prime(55, n)? as u64;
//! let ring = Barrett64::new(q)?;
//! let tables = NttTables::new(&ring, n)?;
//! let a: Vec<u64> = (0..n as u64).collect();
//! let b: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
//! let fast = ntt::negacyclic_mul(&ring, &a, &b, &tables)?;
//! let slow = naive::negacyclic_mul(&ring, &a, &b)?;
//! assert_eq!(fast, slow);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod polynomial;

pub mod bitrev;
pub mod cache;
pub mod golden;
pub mod lazy;
pub mod naive;
pub mod ntt;
pub mod pointwise;
pub mod pool;

pub use cache::{TwiddleCache, TwiddleCacheStats};
pub use error::{PolyError, Result};
pub use lazy::HarveyNtt;
pub use polynomial::{Domain, PolyRing, Polynomial};
pub use pool::{BufferPool, PoolStats};
