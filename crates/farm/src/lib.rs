//! # cofhee-farm
//!
//! A multi-chip execution service over the CoFHEE reproduction: a pool
//! of N simulated dies, tenant sessions, and a session-aware scheduler
//! that multiplexes whole homomorphic jobs across the pool.
//!
//! The paper measures one die driving one op-stream at a time
//! (Section VI-C); scaling FHE serving the way HEAX does — many
//! independent pipeline cores — is a *scheduling* problem once the
//! single-die machinery exists. This crate is that layer:
//!
//! * [`ChipFarm`] — N identical simulated dies, each brought up from
//!   one [`ChipBackendFactory`](cofhee_core::ChipBackendFactory) (its
//!   own UART/SPI link instance, per-modulus backends on demand) under
//!   a deterministic virtual-time cycle clock: a stream is priced where
//!   it is placed, and a flush computes every die's placed streams on
//!   the host's cores, in waves that wait for the host steps between a
//!   job's phases.
//! * [`Session`] — a tenant's standing state under one scheme, BFV or
//!   CKKS: its relinearization key and the evaluator that lowers each
//!   job to a [`JobPlan`](cofhee_core::JobPlan) — phases of per-limb
//!   `OpStream`s with the host steps between them and the finisher of
//!   its ciphertext.
//! * [`Scheduler`] — accepts whole homomorphic jobs ([`JobKind`]: BFV
//!   ct+ct add, ct+pt add, ct·pt and ct·ct multiply + relinearize; CKKS
//!   add, ct·pt and ct·ct multiply + relinearize + rescale) and places
//!   every plan the same way: each phase's streams on dies via a
//!   pluggable [`PlacementPolicy`] ([`RoundRobin`], [`ShortestQueue`],
//!   [`WorkStealing`]), each phase ready when the one before it is done.
//! * [`FarmReport`] — aggregate telemetry: per-chip utilization and
//!   peak queue depth, job-latency percentiles (p50/p95/p99 in
//!   simulated cycles), and throughput in ops/sec at the configured
//!   clock (250 MHz for the paper's silicon).
//! * [`workload_jobs`] — replays the Table X application mixes
//!   (`cofhee_apps::Workload`) as deterministic job lists; the
//!   `farm_saturation` bench sweeps chip count and offered load over
//!   them to find the saturation knee.
//!
//! # Determinism
//!
//! Everything is a pure function of the job list: dies are identical
//! (any stream costs the same cycles anywhere), policies see only
//! virtual-time state, and jobs are processed in arrival order. A fixed
//! job list therefore yields bit-identical ciphertexts **and**
//! identical telemetry across repeated runs — and bit-identical
//! ciphertexts across farm sizes and policies, since placement can
//! change only timing, never values. The workspace-level
//! `tests/farm_determinism.rs` property-checks both, and tracing is
//! held to the same bar: `tests/obs_zero_perturbation.rs` checks that
//! a live [`MemorySink`](cofhee_obs::MemorySink) leaves ciphertexts
//! and cycle telemetry bit-identical to the default `NullSink` run.
//!
//! # Example
//!
//! ```
//! use cofhee_bfv::{BfvParams, Encryptor, KeyGenerator, Plaintext};
//! use cofhee_core::ChipBackendFactory;
//! use cofhee_farm::{ChipFarm, Job, JobKind, Scheduler, Session, ShortestQueue};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = BfvParams::insecure_testing(32)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let kg = KeyGenerator::new(&params, &mut rng);
//! let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
//!
//! // A 4-die farm of the paper's silicon configuration.
//! let farm = ChipFarm::new(4, ChipBackendFactory::silicon())?;
//! let mut sched = Scheduler::new(farm, Box::new(ShortestQueue));
//! let tenant = sched.open_session(Session::new(
//!     "tenant-a",
//!     &params,
//!     kg.relin_key(16, &mut rng)?,
//! )?);
//!
//! let a = enc.encrypt(&Plaintext::new(&params, vec![2; 32])?, &mut rng)?;
//! let b = enc.encrypt(&Plaintext::new(&params, vec![3; 32])?, &mut rng)?;
//! let outcomes = sched.run(vec![Job {
//!     session: tenant,
//!     kind: JobKind::MulRelin(a, b),
//!     arrival: 0,
//! }])?;
//! let report = sched.report();
//! println!("{}", report.render());
//! assert_eq!(outcomes[0].result.len(), 2, "relinearized back to 2 components");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod farm;
mod policy;
mod replay;
mod scheduler;
mod session;
mod telemetry;

pub use error::{FarmError, Result};
pub use farm::{ChipFarm, Placement};
pub use policy::{DieStatus, PlacementPolicy, RoundRobin, ShortestQueue, WorkStealing};
pub use replay::{mixed_workload_jobs, workload_jobs, ReplayInputs, ReplaySpec};
pub use scheduler::{Job, JobKind, JobOutcome, JobResult, PricedJob, Scheduler};
pub use session::{Session, SessionId};
pub use telemetry::{ChipStats, FarmReport, LatencyPercentiles};
