//! # cofhee_opt — the stream compiler
//!
//! Recorded [`OpStream`]s execute exactly as recorded: every
//! `multiply`/`relinearize` re-emits forward NTTs for operands already
//! resident in NTT form, dead intermediates ride the command FIFO, and
//! one large stream never splits across dies. This crate is a compiler
//! over the recorded command list — a [`Pass`] trait and a
//! [`PassRunner`] pipeline that rewrite a stream *before* submit:
//!
//! * [`Cse`] — NTT-form caching / common-subexpression elimination. A
//!   value already transformed to the NTT domain is never
//!   re-transformed (`intt(ntt(x)) → x`, `ntt(intt(x)) → x` — exact,
//!   because resident values are canonical residues in `[0, q)`), and
//!   identical subtrees dedup by value numbering.
//! * [`Dce`] — dead-op elimination with the marked outputs as roots.
//! * [`TransferHoist`] — redundant uploads of identical coefficient
//!   vectors merge, and surviving uploads sink to just before their
//!   first use so DMA transfers interleave with (and hide behind) PE
//!   compute instead of bursting at the head of the stream.
//! * [`Fuse`] — fusion into the fused nodes the backends already
//!   execute: `intt ∘ hadamard` becomes
//!   [`StreamOp::HadamardIntt`](cofhee_core::StreamOp::HadamardIntt)
//!   and `hadamard + pointwise_add` (the tensor middle term) becomes
//!   [`StreamOp::HadamardAdd`](cofhee_core::StreamOp::HadamardAdd).
//! * [`Partitioner`] — splits one large stream into per-die sub-streams
//!   along contiguous topological cuts chosen to minimize cut values
//!   (min edge cuts = min inter-die transfers), feeding the farm
//!   scheduler's pre-partitioned job path.
//!
//! Every pass preserves bit-exactness — the strict kernels remain the
//! oracle, and `tests/stream_parity.rs` pins optimized ≡ recorded on
//! both backends — and the whole pipeline is deterministic (no
//! randomness, no iteration over unordered maps when emitting), so
//! farm replay stays reproducible.
//!
//! The consumer-facing knob is [`OptLevel`]: `O0` executes streams as
//! recorded, `O1` applies the rewrite pipeline, `O2` adds partitioning
//! across dies where a farm is available. The scheme evaluators hold it
//! inside a [`LimbEngine`] — one backend per modulus plus the level —
//! which compiles, fans out and accounts every stream they record.
//!
//! # Example
//!
//! ```
//! use cofhee_core::OpStream;
//! use cofhee_opt::{OptLevel, PassRunner};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 4;
//! let mut st = OpStream::new(n);
//! let a = st.upload(vec![3u128; n])?;
//! let f = st.ntt(a)?;
//! let back = st.intt(f)?;       // round-trip: optimizes away
//! let dead = st.ntt(back)?;     // no output marks it: dead
//! let _ = dead;
//! st.output(back)?;
//!
//! let (opt, stats) = PassRunner::for_level(OptLevel::O1).optimize(&st)?;
//! assert!(opt.len() < st.len());
//! assert!(stats.ops_eliminated > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod cse;
mod dce;
mod engine;
mod fuse;
mod hoist;
mod partition;
mod pass;

pub use cost::{node_cost, stream_cost};
pub use cse::Cse;
pub use dce::Dce;
pub use engine::{KeyId, LimbEngine};
pub use fuse::Fuse;
pub use hoist::TransferHoist;
pub use partition::{execute_partitioned, PartitionPlan, Partitioner};
pub use pass::{OptStats, Pass, PassRunner, PassStats};

use cofhee_core::OpStream;

/// How aggressively streams are rewritten before submit.
///
/// | Level | Pipeline |
/// |-------|----------|
/// | `O0`  | none — streams execute exactly as recorded |
/// | `O1`  | rewrites: CSE/NTT-form cache → DCE → transfer hoist → fusion |
/// | `O2`  | `O1` rewrites, plus partitioning across dies where a farm is available |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Execute streams exactly as recorded.
    #[default]
    O0,
    /// Apply the rewrite pipeline (CSE, DCE, transfer hoisting, fusion).
    O1,
    /// `O1` plus cut-minimized partitioning across dies.
    O2,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        })
    }
}

/// Rewrites `stream` at `level` — the one-call convenience over
/// [`PassRunner::for_level`]. At `O0` the stream comes back unchanged
/// (a clone) with empty stats.
///
/// # Errors
///
/// Propagates recording errors from rebuilding the stream (impossible
/// for well-formed inputs; surfaced rather than panicking).
pub fn optimize(stream: &OpStream, level: OptLevel) -> cofhee_core::Result<(OpStream, OptStats)> {
    PassRunner::for_level(level).optimize(stream)
}

#[cfg(test)]
pub(crate) mod testutil {
    use cofhee_core::{CpuBackend, OpStream, PolyBackend};

    pub const N: usize = 32;

    pub fn q() -> u128 {
        cofhee_arith::primes::ntt_prime(60, N).unwrap()
    }

    pub fn poly(seed: u128) -> Vec<u128> {
        let q = q();
        let mut state = (seed << 1) | 1;
        (0..N)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(7);
                state % q
            })
            .collect()
    }

    /// Outputs of `stream` on a fresh CPU backend.
    pub fn run(stream: &OpStream) -> Vec<Vec<u128>> {
        let mut be = CpuBackend::new(q(), N).unwrap();
        be.execute_stream(stream).unwrap().outputs
    }

    /// A tag-free structural rendering: node kinds + dependency
    /// indices + payload digests, comparable across streams.
    pub fn shape(stream: &OpStream) -> Vec<String> {
        use cofhee_core::StreamOp;
        stream
            .nodes()
            .iter()
            .map(|op| {
                let deps: Vec<usize> = op.deps().into_iter().flatten().map(|h| h.index()).collect();
                let kind = match op {
                    StreamOp::Upload(v) => format!("Upload<{}>", v.iter().sum::<u128>()),
                    StreamOp::Input(_) => "Input".to_string(),
                    StreamOp::Ntt(_) => "Ntt".to_string(),
                    StreamOp::Intt(_) => "Intt".to_string(),
                    StreamOp::Hadamard(..) => "Hadamard".to_string(),
                    StreamOp::HadamardIntt(..) => "HadamardIntt".to_string(),
                    StreamOp::HadamardAdd(..) => "HadamardAdd".to_string(),
                    StreamOp::PointwiseAdd(..) => "Add".to_string(),
                    StreamOp::PointwiseSub(..) => "Sub".to_string(),
                    StreamOp::ScalarMul(_, c) => format!("Scalar<{c}>"),
                    StreamOp::PolyMul(..) => "PolyMul".to_string(),
                };
                format!("{kind}{deps:?}")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_render() {
        assert!(OptLevel::O0 < OptLevel::O1 && OptLevel::O1 < OptLevel::O2);
        assert_eq!(OptLevel::default(), OptLevel::O0);
        assert_eq!(format!("{} {} {}", OptLevel::O0, OptLevel::O1, OptLevel::O2), "O0 O1 O2");
    }

    #[test]
    fn o0_is_the_identity() {
        let mut st = OpStream::new(16);
        let a = st.upload(vec![1; 16]).unwrap();
        let f = st.ntt(a).unwrap();
        st.output(f).unwrap();
        let (opt, stats) = optimize(&st, OptLevel::O0).unwrap();
        assert_eq!(opt.len(), st.len());
        assert_eq!(stats.ops_eliminated + stats.ops_fused + stats.uploads_hoisted, 0);
    }
}
