//! # cofhee-arith
//!
//! Arithmetic substrate for the CoFHEE reproduction — everything below the
//! polynomial layer of the paper's stack:
//!
//! * [`U256`] — 256-bit integers for double-width products of CoFHEE's
//!   native 128-bit coefficients.
//! * [`ModRing`] — the interface of the two Barrett widths, so the NTT
//!   kernels, [`roots::RootSet`] and the layers above are written once
//!   for both.
//! * [`Barrett64`] / [`Barrett128`] — Barrett reduction, the strategy the
//!   chip's processing element implements (Section IV-A of the paper),
//!   including the `BARRETTCTL1`/`BARRETTCTL2` constants of Table II.
//! * [`ShoupMul`] / [`LazyRing`] — Shoup precomputed constants and
//!   Harvey-style lazy reduction (`[0, 2q)` redundant representation,
//!   single final correction): the host-side NTT hot path.
//! * [`primes`] — NTT-friendly prime search following the paper's
//!   `q = 2k·n + 1` construction (Section III-J).
//! * [`roots`] — primitive `2n`-th roots of unity and derived constants
//!   (`ψ`, `ω`, `n⁻¹` — the chip's `INV_POLYDEG` register).
//! * [`rns`] — the Residue Number System (Section II-D): tower
//!   decomposition and CRT reconstruction.
//! * [`signed`] — centered signed representatives, shared by BFV and
//!   CKKS, and the exact 256-bit routes (round-to-nearest division,
//!   [`signed::ScaleRound`]) their word-level decoders are tested against.
//!
//! # Examples
//!
//! Set up the exact arithmetic context CoFHEE's `n = 2^13` evaluation point
//! uses — a 109-bit NTT prime with its Barrett constants and roots:
//!
//! ```
//! use cofhee_arith::{primes::ntt_prime, roots::RootSet, Barrett128, ModRing};
//!
//! # fn main() -> Result<(), cofhee_arith::ArithError> {
//! let n = 1 << 13;
//! let q = ntt_prime(109, n)?;
//! let ring = Barrett128::new(q)?;
//! let roots = RootSet::new(&ring, n)?;
//! // ψ^n ≡ -1 (mod q): the negacyclic condition.
//! assert_eq!(ring.pow(roots.psi, n as u128), q - 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod barrett;
mod error;
mod ring;
mod shoup;
mod u256;

pub mod primes;
pub mod rns;
pub mod roots;
pub mod signed;

pub use barrett::{Barrett128, Barrett64};
pub use error::{ArithError, Result};
pub use ring::ModRing;
pub use shoup::{LazyRing, ShoupMul};
pub use u256::U256;
