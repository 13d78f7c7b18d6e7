//! # cofhee-service
//!
//! The request-oriented FHE service front-end over the CoFHEE chip
//! farm: a handle-addressed [`Gateway`] with a tenant-scoped
//! [`CiphertextRegistry`] and admission control — what turns the farm's
//! batch scheduler into something thousands of tenant sessions can
//! share.
//!
//! The layering follows the CoFHE service decomposition:
//!
//! * **Gateway** (Task Manager) — [`Gateway::submit`] validates every
//!   request (handle ownership, parameter compatibility, relin-key
//!   presence), enforces per-tenant quotas (in-flight jobs, registry
//!   bytes), and hands back a [`Ticket`] whose result handle chains
//!   into further requests immediately.
//! * **Ciphertext registry** — ciphertext polynomials never round-trip
//!   through the request API: tenants upload inputs once
//!   ([`Gateway::put_ciphertext`]), requests reference operands by
//!   [`CtHandle`], and entries carry an owner plus ACL
//!   ([`Visibility`]: private / shared / public).
//! * **Admission control** (Aggregator) — bounded per-tenant queues
//!   with typed backpressure ([`AdmitError`]) feeding the farm through
//!   a pluggable drain [`AdmissionPolicy`]: [`RejectNewest`] (global
//!   FIFO, flood-prone) or [`TenantFair`] (weighted round-robin, the
//!   one that keeps Jain fairness ≥ 0.9 under abuse).
//! * **Farm** (FHEOS server) — the existing
//!   [`Scheduler`](cofhee_farm::Scheduler) over N simulated dies;
//!   everything stays on the deterministic virtual clock, so a fixed
//!   submission sequence replays bit- and cycle-identically. A dispatch
//!   only places and prices its request; the result stays pending on
//!   the farm until a dispatch that reads it, or [`Gateway::drain`],
//!   flushes the farm.
//!
//! # Example
//!
//! ```
//! use cofhee_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator, Plaintext};
//! use cofhee_core::ChipBackendFactory;
//! use cofhee_farm::{ChipFarm, Scheduler, WorkStealing};
//! use cofhee_service::{Gateway, GatewayConfig, Request, TenantFair};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = BfvParams::insecure_testing(32)?;
//! let mut rng = StdRng::seed_from_u64(1);
//! let kg = KeyGenerator::new(&params, &mut rng);
//! let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
//! let dec = Decryptor::new(&params, kg.secret_key().clone());
//!
//! // A gateway over a 2-die farm, tenant-fair drain.
//! let farm = ChipFarm::new(2, ChipBackendFactory::silicon())?;
//! let sched = Scheduler::new(farm, Box::new(WorkStealing));
//! let mut gw = Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(2));
//!
//! // Register, upload once, then compute by handle: (3+4)·3.
//! let alice = gw.register_tenant("alice", &params, Some(kg.relin_key(16, &mut rng)?))?;
//! let x = gw.put_ciphertext(alice, enc.encrypt(&Plaintext::constant(&params, 3)?, &mut rng)?)?;
//! let y = gw.put_ciphertext(alice, enc.encrypt(&Plaintext::constant(&params, 4)?, &mut rng)?)?;
//! let sum = gw.submit(alice, Request::Add(x, y))?;
//! let prod = gw.submit(alice, Request::MulRelin(sum.result(), x))?;
//!
//! gw.drain()?;
//! assert_eq!(dec.decrypt(gw.result(&prod)?)?.coeffs()[0], 21);
//! assert_eq!(gw.report().completed(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod error;
mod gateway;
mod handle;
mod loadgen;
mod registry;
mod telemetry;

pub use admission::{AdmissionPolicy, QueueView, RejectNewest, TenantFair};
pub use cofhee_opt::OptLevel;
pub use error::{AdmitError, DenyReason, ErrorKind, QuotaKind, Result, ServiceError};
pub use gateway::{Gateway, GatewayConfig, QuotaConfig, Request};
pub use handle::{CtHandle, TenantId, Ticket};
pub use loadgen::{arrival_times, request_mix, ArrivalProcess};
pub use registry::{ciphertext_bytes, CiphertextRegistry, StoredCiphertext, Visibility};
pub use telemetry::{jain_index, ServiceReport, TenantStats};
