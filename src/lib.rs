//! # cofhee
//!
//! A from-scratch Rust reproduction of **"CoFHEE: A Co-processor for
//! Fully Homomorphic Encryption Execution"** (DATE 2023) — the fabricated
//! 12 mm² / 55 nm ASIC accelerating the low-level polynomial operations
//! of RLWE FHE, rebuilt as a cycle-accurate simulator with its complete
//! software stack.
//!
//! This meta-crate re-exports the member crates:
//!
//! * [`arith`] — 256-bit integers, Barrett modular arithmetic,
//!   NTT-friendly primes, roots of unity, RNS.
//! * [`poly`] — `Z_q[x]/(x^n+1)`, the paper's NTT algorithms, naive
//!   oracles, golden test vectors.
//! * [`bfv`] — the BFV scheme (the SEAL-equivalent CPU baseline) with
//!   exact ciphertext multiplication.
//! * [`ckks`] — the CKKS approximate-arithmetic scheme on the same
//!   silicon: RNS modulus chain with level tracking, canonical-embedding
//!   encoder, and an evaluator whose multiply/rescale/relinearize all
//!   dispatch through the recorded-stream machinery the BFV path uses.
//! * [`sim`] — the chip: SRAM banks, AHB addressing, Barrett PE, MDMC
//!   with the calibrated cycle model, command FIFO, Cortex-M0, power.
//! * [`physical`] — Table VIII's part areas, the 55 nm → 7 nm scaling
//!   factors and the Table XI comparison machinery.
//! * [`core`] — the device driver: Algorithm 2/3 schedules, execution
//!   modes, RNS dispatch, host-link accounting, and the unified
//!   `PolyBackend` execution API (pluggable CPU / chip backends).
//! * [`opt`] — the stream compiler: value numbering and a dead-node
//!   sweep over recorded `OpStream`s, behind the `O0`/`O1` opt-level
//!   dial, and the `LimbEngine` both evaluators execute on.
//! * [`apps`] — CryptoNets and logistic regression, as op-count models
//!   and as functional encrypted demos.
//! * [`farm`] — the multi-chip execution service: a pool of simulated
//!   dies, tenant sessions, and a session-aware scheduler multiplexing
//!   homomorphic jobs across the pool under a virtual-time clock.
//! * [`service`] — the request-oriented front-end over the farm: a
//!   handle-addressed gateway, the tenant-scoped ciphertext registry
//!   with ACLs, and admission control (quotas, bounded queues,
//!   tenant-fair drain).
//! * [`obs`] — the observability layer: cycle-timeline tracing with
//!   per-die / per-job tracks, a metrics registry with log₂-bucketed
//!   histograms, and Chrome trace-event export (Perfetto loadable).
//!
//! See the `examples/` directory for runnable entry points and
//! EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]

pub use cofhee_apps as apps;
pub use cofhee_arith as arith;
pub use cofhee_bfv as bfv;
pub use cofhee_ckks as ckks;
pub use cofhee_core as core;
pub use cofhee_farm as farm;
pub use cofhee_obs as obs;
pub use cofhee_opt as opt;
pub use cofhee_physical as physical;
pub use cofhee_poly as poly;
pub use cofhee_service as service;
pub use cofhee_sim as sim;
