//! # cofhee-bfv
//!
//! A from-scratch implementation of the Brakerski/Fan-Vercauteren (BFV)
//! fully homomorphic encryption scheme — the software system the CoFHEE
//! paper's CPU baseline (Microsoft SEAL 3.7) implements, rebuilt here so
//! the evaluation can compare chip against software on equal terms.
//!
//! * [`BfvParams`] — validated parameter sets, including the paper's
//!   `(n, log q) = (2^12, 109)` point.
//! * [`KeyGenerator`] / [`SecretKey`] / [`PublicKey`] / [`RelinKey`] —
//!   key material (ternary secrets, RLWE public keys, digit-decomposition
//!   relinearization keys).
//! * [`Encryptor`] / [`Decryptor`] — Eqs. 2–3 of the paper, plus noise
//!   budget measurement.
//! * [`Evaluator`] — homomorphic add/sub/plain ops and the *exact* Eq. 4
//!   ciphertext multiplication (integer tensor in RNS + exact `t/q` rounding),
//!   with relinearization. Every mod-q polynomial pass dispatches through
//!   a pluggable `cofhee_core::PolyBackend`: software CPU by default,
//!   the cycle-accurate simulated CoFHEE chip via
//!   [`Evaluator::with_backend`] — same results bit-for-bit, selected by
//!   one constructor argument.
//! * [`BatchEncoder`] — SIMD slot packing for CryptoNets-style inference.
//!
//! # Examples
//!
//! ```
//! use cofhee_bfv::{BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = BfvParams::insecure_testing(64)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let keygen = KeyGenerator::new(&params, &mut rng);
//! let pk = keygen.public_key(&mut rng)?;
//! let rlk = keygen.relin_key(16, &mut rng)?;
//!
//! let enc = Encryptor::new(&params, pk);
//! let dec = Decryptor::new(&params, keygen.secret_key().clone());
//! let eval = Evaluator::new(&params)?;
//!
//! let a = enc.encrypt(&Plaintext::constant(&params, 6)?, &mut rng)?;
//! let b = enc.encrypt(&Plaintext::constant(&params, 7)?, &mut rng)?;
//! let product = eval.multiply_relin(&a, &b, &rlk)?;
//! assert_eq!(dec.decrypt(&product)?.coeffs()[0], 42);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An error built inside `ok_or(…)` is built — `String` and all — every
// time the value is *present*; these crates sit on per-command paths.
#![warn(clippy::or_fun_call)]

mod ciphertext;
mod encrypt;
mod error;
mod evaluator;
mod jobs;
mod keys;
mod params;
mod plaintext;

pub mod sampling;

pub use ciphertext::Ciphertext;
pub use encrypt::{Decryptor, Encryptor};
pub use error::{BfvError, Result};
pub use evaluator::Evaluator;
pub use keys::{KeyGenerator, PublicKey, RelinKey, SecretKey};
pub use params::{BfvParams, MAX_FUNCTIONAL_LOG_Q};
pub use plaintext::{BatchEncoder, Plaintext};
