//! # cofhee-poly
//!
//! Polynomial substrate for the CoFHEE reproduction: the ring
//! `Z_q[x]/(x^n + 1)` that RLWE-based FHE (and therefore the entire CoFHEE
//! chip) computes in.
//!
//! One transform kernel runs in production; everything else here is
//! labelled with the role it is kept for:
//!
//! * [`lazy`] — **hot**: the Harvey lazy-reduction kernel
//!   ([`HarveyNtt`]): Shoup-paired twiddles, redundant coefficients
//!   across stages (`[0, 4q)` forward, `[0, 2q)` inverse) with a single
//!   final correction, and fused `intt ∘ hadamard` / Algorithm 2 passes.
//!   Below `q < 2^50` on an AVX-512 IFMA host its transforms and the
//!   [`pointwise`] products run in eight 52-bit vector lanes, bit for bit
//!   as the scalar stages — the one module with `unsafe` code.
//!   The CPU backend and the simulator's functional fast path run on it;
//!   the host's polynomials are plain residue vectors
//!   (`cofhee_core::Limb`), computed on only by streams.
//! * [`cache`] — **hot**: the process-wide [`TwiddleCache`] interning
//!   one transform plan per `(modulus, degree)` pair, shared by
//!   parameter sets, backends, evaluators, and every die of a farm.
//! * [`pool`] — **hot**: [`BufferPool`], bounded recycling of
//!   fixed-width scratch vectors so warmed steady-state traffic performs
//!   zero heap allocation (proved by a counting-allocator harness in
//!   `cofhee_core`).
//! * [`pointwise`] — **hot**: the PMOD*/CMODMUL command semantics of
//!   Table I.
//! * [`ntt`] — **fallback + oracle**: the strict merged transform, the
//!   paper's Algorithm 1 (iterative Cooley–Tukey, sequential twiddle
//!   consumption) and its Gentleman–Sande inverse with canonical
//!   per-butterfly reduction — the simulator's command semantics.
//!   [`HarveyNtt`] falls back to it for `q ≥ 2^126` and is tested
//!   bit-exact against it; [`ntt::NttTables`] is the twiddle-SRAM image
//!   the simulator loads. No other production code calls it.
//! * [`naive`] — **oracle**: `O(n²)` schoolbook multiplication,
//!   independent of every root and table, which [`ntt`] is pinned to;
//!   also the complexity baseline the paper motivates against.
//! * [`golden`] — **pre-silicon vectors**: the verification vector
//!   generator of Section III-J.
//! * [`bitrev`] — bit-reversal indexing (table build order, the
//!   MEMCPYR command).
//!
//! The Barrett-vs-Montgomery **ablation** (§VIII-A) is not a module
//! here: it is `cofhee_arith`'s Montgomery engines driven through the
//! strict [`ntt`] kernels (generic over any `ModRing`) by `cofhee_bench`.
//!
//! # Examples
//!
//! Multiply two polynomials the way CoFHEE does — 2 NTTs, a Hadamard pass,
//! one inverse NTT — on the hot kernel, and check against both oracles:
//!
//! ```
//! use cofhee_arith::{primes::ntt_prime, Barrett64};
//! use cofhee_poly::{naive, ntt, HarveyNtt};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 256;
//! let q = ntt_prime(55, n)? as u64;
//! let ring = Barrett64::new(q)?;
//! let plan = HarveyNtt::new(&ring, n)?;
//! let a: Vec<u64> = (0..n as u64).collect();
//! let b: Vec<u64> = (0..n as u64).map(|i| i * 7 + 1).collect();
//! let fast = plan.poly_mul(&a, &b)?;
//! assert_eq!(fast, ntt::negacyclic_mul(&ring, &a, &b, plan.tables())?);
//! assert_eq!(fast, naive::negacyclic_mul(&ring, &a, &b)?);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs, clippy::undocumented_unsafe_blocks)]

mod error;
#[allow(unsafe_code)]
mod ifma;

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
pub use pool::{BufferPool, PoolStats};
