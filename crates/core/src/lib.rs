//! # cofhee-core
//!
//! The CoFHEE driver — the public API a host uses to compute on the
//! (simulated) co-processor, mirroring the paper's "CoFHEE API"
//! (Section III-C):
//!
//! * [`Device`] — bring-up over a [`Link`] (UART/SPI/backdoor), register
//!   programming, twiddle loading, polynomial upload/download with wire
//!   accounting, and the Table I command wrappers.
//! * [`Schedule`] — a chip program: the banks its operands are uploaded
//!   to, a Table I command list, the banks its results are read from.
//!   Algorithms 2 ([`Device::poly_mul_schedule`]) and 3
//!   ([`Device::ciphertext_mul_schedule`]) are bank-choreographed
//!   schedules: every NTT runs on a dual-port pair at II = 1 while DMA
//!   staging hides behind compute where the banks allow (Section III-F).
//!   [`Device::run`] delivers any schedule in each of Section III-I's
//!   three [`ExecutionMode`]s and prices the command delivery on the
//!   device's link. A modulus wider than 128 bits is one device per
//!   tower of `cofhee_arith::rns::RnsBasis::for_total_bits(bits, 128, n)`
//!   (the 218-bit point runs as two sequential 109-bit towers).
//! * [`OpStream`] — the mod-q op set the paper offloads, as a recorded,
//!   dependency-tracked batch over the [`StreamOp`] vocabulary. Nothing
//!   executes at record time.
//! * [`Limb`] — the one polynomial the host holds: a modulus and its
//!   canonical residues behind a shared pointer, uploaded into streams
//!   without a copy. Every ciphertext, plaintext and key of both schemes
//!   is made of them.
//! * [`PolyBackend`] — what runs a stream: a polynomial store
//!   (`upload` / `free`), one executor
//!   ([`PolyBackend::execute_stream`]) and telemetry, with [`CpuBackend`]
//!   (software reference, replaying on the Harvey plan of the modulus
//!   width) and [`ChipBackend`] (cycle-accurate simulated silicon: the
//!   32-deep command FIFO with interrupt-driven drains and
//!   DMA-overlapped transfers) as pluggable, bit-identical
//!   implementations selected by constructor argument. There is no
//!   per-operation call. [`StreamReport`] prices every submit both
//!   serially and overlapped; [`StreamExecutor`] fans independent
//!   streams out across threads, one per CRT limb, through [`fan_out`]
//!   — the one function that creates threads, which a lone stream's
//!   transform and multiply nodes ([`PolyBackend::execute_stream_lanes`])
//!   and the BFV host CRT's coefficient chunks run through as well.
//! * [`record_key_switch`], [`record_tensor`], [`record_mul_plain`] —
//!   the scheme-neutral recorders of the dataflows BFV and CKKS share.
//! * [`JobPlan`] — a job as phases of limb streams with host steps
//!   between them, which both schemes lower every job kind to.
//! * [`record_encrypt`] / [`record_decrypt`] — the client side of both
//!   schemes as streams: one limb of an RLWE encryption or decryption
//!   against a key pair resident on the backend in NTT form — and
//!   [`record_square`], [`record_public_key`], [`record_relin_key`], the
//!   products of key generation.
//!
//! # Examples
//!
//! ```
//! use cofhee_core::{Device, ExecutionMode};
//! use cofhee_sim::ChipConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 10;
//! let q = cofhee_arith::primes::ntt_prime(109, n)?;
//! let mut device = Device::connect(ChipConfig::silicon(), q, n)?;
//! let a: Vec<u128> = (0..n as u128).collect();
//! let b: Vec<u128> = (0..n as u128).map(|i| i + 7).collect();
//! let product = device.run(&device.poly_mul_schedule(), &[&a, &b], ExecutionMode::CommandFifo)?;
//! assert_eq!(product.outputs[0].len(), n);
//! println!("PolyMul took {} cycles", product.compute_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An error built inside `ok_or(…)` is built — `String` and all — every
// time the value is *present*; these crates sit on per-command paths.
#![warn(clippy::or_fun_call)]

mod backend;
mod chip_stream;
mod device;
mod error;
mod keyswitch;
mod limb;
mod plan;
mod rlwe;
mod schedule;
mod stream;
#[cfg(test)]
mod tower;

pub use backend::{
    BackendFactory, ChipBackend, ChipBackendFactory, CpuBackend, CpuBackendFactory, PolyBackend,
    PolyHandle,
};
pub use chip_stream::DieProgram;
pub use device::{CommStats, Device, Link};
pub use error::{CoreError, Result};
pub use keyswitch::{
    digit_decompose, record_key_switch, record_mul_plain, record_tensor, KeyPair, KeySwitchKeys,
};
pub use limb::Limb;
pub use plan::{JobPlan, PlanPhase};
pub use rlwe::{
    record_decrypt, record_encrypt, record_public_key, record_relin_key, record_square,
};
pub use schedule::{ExecutionMode, Run, Schedule};
pub use stream::{
    cores, fan_out, Filler, OpStream, Payload, StreamExecutor, StreamHandle, StreamJob, StreamOp,
    StreamOutcome, StreamReport,
};

// Telemetry types surfaced through the backend API, re-exported so
// backend consumers need not depend on `cofhee_sim` directly.
pub use cofhee_sim::OpReport;

// Pool counters surfaced through [`PolyBackend::pool_stats`],
// re-exported for the same reason.
pub use cofhee_poly::PoolStats;

// Tracing types surfaced through [`PolyBackend::set_trace`],
// re-exported so backend consumers need not depend on `cofhee_obs`
// directly.
pub use cofhee_obs::{SharedSink, TraceContext};
