//! # cofhee-sim
//!
//! Cycle-accurate transaction-level simulator of the CoFHEE ASIC — the
//! fabricated 12 mm² / 55 nm FHE co-processor of the paper, rebuilt as an
//! executable model:
//!
//! * [`Memory`] — the 3 dual-port + 5 single-port logical SRAM banks,
//!   with per-port bus base addresses (Section III-A).
//! * The MDMC — the Multiplier Data Mover and Controller: command
//!   pricing and execution, NTT stage sequencing, address generation,
//!   and the calibrated cycle model that reproduces Table V
//!   (Section III-G2). It also stands for the processing element
//!   (Section III-E: one pipelined Barrett multiplier with adder and
//!   subtractor): the PE's arithmetic is the `Q` register's `Barrett128`
//!   ring, which the MDMC holds, and its timing is [`ChipConfig`]'s
//!   calibrated cycle constants. Each command's PE activity is counted
//!   once, in its [`OpReport`].
//! * [`Command`] / [`CommandFifo`] — the Table I instruction set and the
//!   32-deep queue with drain interrupts (Section III-I).
//! * The Table II configuration registers at `0x4002_0000`
//!   ([`Register`], read through [`Chip::gpcfg`]).
//! * [`cm0`] — an ARMv6-M Thumb-subset Cortex-M0 with a structured
//!   assembler: execution mode 3.
//! * [`Uart`] / [`Spi`] — timed host links (Section III-H).
//! * [`PowerModel`] — power estimation from a report's per-phase cycles
//!   ([`PhaseCycles`]), calibrated against the silicon measurements
//!   (Section VI-A).
//! * [`Chip`] — the Figure 1 top level, wiring all of it together with
//!   compute/DMA overlap semantics (Sections III-B, III-F).
//!
//! # Examples
//!
//! Run a polynomial's forward NTT on the simulated chip and check it
//! against the software golden model:
//!
//! ```
//! use cofhee_arith::{primes::ntt_prime, Barrett128, ModRing};
//! use cofhee_poly::ntt::{self, NttTables};
//! use cofhee_sim::{BankId, Chip, Command, Slot};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 10;
//! let q = ntt_prime(109, n)?;
//! let ring = Barrett128::new(q)?;
//!
//! let mut chip = Chip::silicon()?;
//! let (fwd_twiddles, _) = chip.load_ring(&ring, n)?;
//! let poly: Vec<u128> = (0..n as u128).collect();
//! chip.write_polynomial(Slot::new(BankId(0), 0), &poly)?;
//! let report = chip.execute_now(Command::ntt(
//!     Slot::new(BankId(0), 0),
//!     fwd_twiddles,
//!     Slot::new(BankId(1), 0),
//! ))?;
//!
//! let tables = NttTables::new(&ring, n)?;
//! let mut expect = poly.clone();
//! ntt::forward_inplace(&ring, &mut expect, &tables)?;
//! assert_eq!(chip.read_polynomial(Slot::new(BankId(1), 0), n)?, expect);
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An error built inside `ok_or(…)` is built — `String` and all — every
// time the value is *present*; these crates sit on per-command paths.
#![warn(clippy::or_fun_call)]

mod chip;
pub mod cm0;
mod cmdfifo;
mod commands;
mod config;
mod error;
mod gpcfg;
mod host_link;
mod mdmc;
mod mem;
mod power;

pub use chip::{Chip, DrainReport};
pub use cmdfifo::{CommandFifo, FIFO_DEPTH};
pub use commands::{Command, Opcode, COMMAND_WORDS};
pub use config::ChipConfig;
pub use error::{Result, SimError};
pub use gpcfg::{Register, GPCFG_BASE, GPCFG_SPAN, SIGNATURE_VALUE};
pub use host_link::{offchip_round_trips, HostLink, Spi, Uart};
pub use mdmc::{OpReport, PhaseCycles};
pub use mem::{Bank, BankId, BankPlan, Memory, Slot};
pub use power::PowerModel;
