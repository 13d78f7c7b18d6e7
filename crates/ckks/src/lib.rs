//! `cofhee_ckks` — the CKKS approximate-arithmetic scheme on the CoFHEE
//! silicon.
//!
//! CoFHEE (Nabeel et al., DATE 2023) exposes a small polynomial op set —
//! NTT butterflies, Hadamard products, pointwise adds, scalar muls —
//! behind the [`cofhee_core::PolyBackend`] stream interface, sized for
//! BFV. This crate shows the same op set carries a second scheme: CKKS
//! (Cheon–Kim–Kim–Song), where messages are vectors of reals embedded
//! with a scaling factor Δ and arithmetic is approximate. The crate
//! follows the HEAAN-Demystified decomposition of CKKS into
//! per-primitive kernels, and the bench harness reproduces its cycle
//! breakdown on the chip model (see `ckks_breakdown`).
//!
//! Layout:
//!
//! * [`params`] — RNS modulus chains and [`Level`] tracking; every
//!   level is a prefix of one prime chain, validated to fit the chip's
//!   128-bit native coefficient width. A parameter set holds no
//!   transform plan: every polynomial product of this crate, the client
//!   side included, runs on a backend brought up for `(qⱼ, n)`.
//! * [`encoding`] — the canonical-embedding encoder/decoder (host-side
//!   complex FFT over `f64`, scaling factor Δ, precision accounting).
//! * [`ciphertext`] — RNS-limb plaintexts/ciphertexts carrying level
//!   and scale.
//! * [`keys`] / [`encrypt`] — RLWE key material and encryption, limbs
//!   kept consistent by sampling small signed polynomials once. Keys are
//!   residue vectors like ciphertexts (raw, but for the relinearization
//!   key's NTT form); key generation, encryption
//!   and decryption record their products as per-limb streams and run
//!   them on a CPU [`cofhee_opt::LimbEngine`] each object brings up on
//!   first use (an encryptor's and a decryptor's key pair resident on it
//!   in NTT form), so a word-sized chain prime is computed at word
//!   width from key generation to decryption.
//! * [`evaluator`] / `streams` — the evaluator: every primitive records
//!   per-limb [`cofhee_core::OpStream`]s (one backend per chain prime)
//!   so the PR 7 stream-compiler passes and the chip farm scheduler
//!   apply to CKKS unchanged. Relinearization reuses the scheme-neutral
//!   [`cofhee_core::record_key_switch`] builder shared with BFV, in both
//!   of its key forms. A [`CkksRelinKey`] is stored in NTT form —
//!   transformed once, as it is generated — so
//!   [`CkksEvaluator::relinearize`] references the copy its
//!   [`cofhee_opt::LimbEngine`] uploaded to the backends the evaluator
//!   owns (held for the key's lifetime), and
//!   [`CkksEvaluator::relin_streams`] records the same key switch
//!   self-contained, the stored key uploaded in-stream, for dies a farm
//!   borrows: `digits + 2` transforms per limb on either route.
//!
//! Everything is numerically exact modulo each chain prime and
//! bit-identical across backends and [`cofhee_opt::OptLevel`]s; the
//! *approximation* lives entirely in the encode/rescale rounding, where
//! it is accounted for against Δ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ciphertext;
pub mod encoding;
pub mod encrypt;
pub mod error;
pub mod evaluator;
pub mod keys;
pub mod params;
mod streams;

pub use ciphertext::{scales_match, CkksCiphertext, CkksPlaintext, RnsPoly};
pub use encoding::CkksEncoder;
pub use encrypt::{CkksDecryptor, CkksEncryptor};
pub use error::{CkksError, Result};
pub use evaluator::CkksEvaluator;
pub use keys::{CkksKeyGenerator, CkksPublicKey, CkksRelinKey, CkksSecretKey};
pub use params::{CkksParams, Level};
