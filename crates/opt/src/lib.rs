//! # cofhee_opt — the stream compiler
//!
//! A recorded [`OpStream`](cofhee_core::OpStream) runs as recorded: the
//! scheme builders write down the nodes the backends execute, fused ones
//! included, and on distinct operands there is nothing left to rewrite.
//! What a recording cannot know is that two of its operands are the same
//! polynomial — `a · a`, `a + a`, several products sharing one
//! ciphertext — and then it uploads and transforms that polynomial once
//! per mention. The compiler is the two rewrites that find this, behind
//! one function:
//!
//! * [`cse`] — NTT-form caching / common-subexpression elimination. A
//!   value already transformed to the NTT domain is never
//!   re-transformed (`intt(ntt(x)) → x`, `ntt(intt(x)) → x` — exact,
//!   because resident values are canonical residues in `[0, q)`), and
//!   identical subtrees dedup by value numbering.
//! * [`dce`] — dead-op elimination with the marked outputs as roots,
//!   sweeping the duplicate producers `cse` left without consumers.
//!
//! Both preserve bit-exactness — the strict kernels remain the oracle,
//! and `tests/stream_parity.rs` pins optimized ≡ recorded on both
//! backends — and are deterministic (no randomness, no iteration over
//! unordered maps when emitting), so farm replay stays reproducible.
//! What they save, in die cycles, is pinned per builder stream in
//! `tests/opt_traffic.rs`.
//!
//! The consumer-facing knob is [`OptLevel`]: `O0` executes streams as
//! recorded, `O1` runs [`optimize`] first. The scheme evaluators hold it
//! inside a [`LimbEngine`] — one backend per modulus plus the level —
//! which compiles, fans out and accounts every stream they record.
//!
//! # Example
//!
//! ```
//! use cofhee_core::OpStream;
//! use cofhee_opt::{optimize, OptLevel};
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
//! let (opt, stats) = optimize(&st, OptLevel::O1)?;
//! assert!(opt.len() < st.len());
//! assert!(stats.ops_eliminated > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cse;
mod dce;
mod engine;
mod pass;

pub use cse::cse;
pub use dce::dce;
pub use engine::{KeyId, LimbEngine};
pub use pass::{optimize, optimize_traced, OptStats};

/// Whether streams are compiled before submit.
///
/// | Level | What runs |
/// |-------|-----------|
/// | `O0`  | nothing — streams execute exactly as recorded |
/// | `O1`  | [`optimize`]: value numbering ([`cse`]), then the dead-node sweep ([`dce`]) |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// Execute streams exactly as recorded.
    #[default]
    O0,
    /// Drop repeated and dead nodes first.
    O1,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
        })
    }
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
                    StreamOp::Upload(v) => {
                        format!("Upload<{}>", v.words().unwrap().iter().sum::<u128>())
                    }
                    StreamOp::Input(_) => "Input".to_string(),
                    StreamOp::Ntt(_) => "Ntt".to_string(),
                    StreamOp::Intt(_) => "Intt".to_string(),
                    StreamOp::Hadamard(..) => "Hadamard".to_string(),
                    StreamOp::HadamardIntt(..) => "HadamardIntt".to_string(),
                    StreamOp::HadamardAdd(..) => "HadamardAdd".to_string(),
                    StreamOp::PointwiseAdd(..) => "Add".to_string(),
                    StreamOp::PointwiseSub(..) => "Sub".to_string(),
                    StreamOp::ScalarMul(_, c) => format!("Scalar<{c}>"),
                };
                format!("{kind}{deps:?}")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_core::OpStream;

    #[test]
    fn levels_order_and_render() {
        assert!(OptLevel::O0 < OptLevel::O1);
        assert_eq!(OptLevel::default(), OptLevel::O0);
        assert_eq!(format!("{} {}", OptLevel::O0, OptLevel::O1), "O0 O1");
    }

    #[test]
    fn o0_is_the_identity() {
        let mut st = OpStream::new(16);
        let a = st.upload(vec![1; 16]).unwrap();
        let f = st.ntt(a).unwrap();
        st.output(f).unwrap();
        let (opt, stats) = optimize(&st, OptLevel::O0).unwrap();
        assert_eq!(opt.len(), st.len());
        assert_eq!(stats.ops_eliminated, 0);
    }
}
