//! NTT-form caching / common-subexpression elimination by value
//! numbering.

use std::collections::HashMap;

use cofhee_core::{OpStream, PolyHandle, Result, StreamHandle, StreamOp};

use crate::pass::{emit_mapped, Pass, PassStats, PayloadClasses};

/// The value-numbering key of one compute node: opcode plus the value
/// classes of its operands (sorted where the op commutes — `a ⊙ b` and
/// `b ⊙ a` are the same value).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Ntt(usize),
    Intt(usize),
    Hadamard(usize, usize),
    HadamardIntt(usize, usize),
    HadamardAdd(usize, usize, usize),
    PointwiseAdd(usize, usize),
    PointwiseSub(usize, usize),
    ScalarMul(usize, u128),
    PolyMul(usize, usize),
}

fn sorted(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Common-subexpression elimination / NTT-form caching.
///
/// Every node gets a *value class* — a representative earlier node
/// computing the same value. Three rewrites fall out:
///
/// * **Round-trip elimination** — `intt(ntt(x)) → x` and
///   `ntt(intt(x)) → x`. Exact, not approximate: backend values are
///   canonical residues in `[0, q)` and the negacyclic NTT is a
///   bijection on them, so the round trip is the identity bit-for-bit.
///   This is the "NTT-form cache": a value already transformed is never
///   transformed again.
/// * **Subtree dedup** — two nodes with the same opcode and
///   value-equal operands (commutative operands compared unordered)
///   collapse to the first; so identical uploads' forward NTTs, repeated
///   Hadamard products, and duplicated `Input` stagings all execute
///   once.
/// * **Consumer redirection** — consumers of a deduplicated value are
///   rewired to the representative, which leaves the duplicate
///   producers (including identical-payload uploads) dead for
///   [`Dce`](crate::Dce) to sweep. Upload payloads are one value when
///   they hold the same words — found by pointer identity, else by a
///   sampled key plus a full comparison, never by hashing 64 KiB per
///   operand (`PayloadClasses` in `pass.rs`).
///
/// Dedup can extend a representative's live range (its last consumer
/// moves later), which trades SRAM slot pressure for eliminated
/// commands — the `stream_optimize` bench gates that trade by asserting
/// optimized cycles ≤ recorded on every pass combination.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, stream: &OpStream) -> Result<(OpStream, PassStats)> {
        let nodes = stream.nodes();
        // Value class per node: index of the earliest node computing
        // the same value (fully resolved — class reps are their own
        // class).
        let mut vclass: Vec<usize> = (0..nodes.len()).collect();
        let mut uploads = PayloadClasses::default();
        let mut inputs: HashMap<PolyHandle, usize> = HashMap::new();
        let mut exprs: HashMap<Key, usize> = HashMap::new();

        let mut out = OpStream::new(stream.n());
        // `map[i]`: the new handle node i's own emission produced.
        // `resolved[i]`: the new handle consumers of node i's *value*
        // should read — its class representative's emission.
        let mut map: Vec<Option<StreamHandle>> = vec![None; nodes.len()];
        let mut resolved: Vec<Option<StreamHandle>> = vec![None; nodes.len()];
        let mut eliminated = 0u64;

        for (i, op) in nodes.iter().enumerate() {
            let v = |h: &StreamHandle| vclass[h.index()];
            // `emit: false` nodes are value-numbered duplicates: they
            // are not re-recorded, and their consumers follow the map
            // to the representative's new handle.
            let (class, emit) = match op {
                StreamOp::Upload(data) => {
                    // Identical payloads share a value class so their
                    // consumers dedup, but the duplicate upload itself
                    // is left for DCE/transfer-hoist to account — it
                    // dies once redirection strips its consumers.
                    (uploads.class(i, data), true)
                }
                StreamOp::Input(h) => {
                    let rep = *inputs.entry(*h).or_insert(i);
                    (rep, rep == i)
                }
                // The NTT-form cache: a round trip through the
                // transform is the identity on canonical residues.
                StreamOp::Ntt(a) if matches!(nodes[v(a)], StreamOp::Intt(_)) => match nodes[v(a)] {
                    StreamOp::Intt(x) => (vclass[x.index()], false),
                    _ => unreachable!(),
                },
                StreamOp::Intt(a) if matches!(nodes[v(a)], StreamOp::Ntt(_)) => match nodes[v(a)] {
                    StreamOp::Ntt(x) => (vclass[x.index()], false),
                    _ => unreachable!(),
                },
                _ => {
                    let key = match op {
                        StreamOp::Ntt(a) => Key::Ntt(v(a)),
                        StreamOp::Intt(a) => Key::Intt(v(a)),
                        StreamOp::Hadamard(a, b) => {
                            let (x, y) = sorted(v(a), v(b));
                            Key::Hadamard(x, y)
                        }
                        StreamOp::HadamardIntt(a, b) => {
                            let (x, y) = sorted(v(a), v(b));
                            Key::HadamardIntt(x, y)
                        }
                        StreamOp::HadamardAdd(a, b, acc) => {
                            let (x, y) = sorted(v(a), v(b));
                            Key::HadamardAdd(x, y, v(acc))
                        }
                        StreamOp::PointwiseAdd(a, b) => {
                            let (x, y) = sorted(v(a), v(b));
                            Key::PointwiseAdd(x, y)
                        }
                        StreamOp::PointwiseSub(a, b) => Key::PointwiseSub(v(a), v(b)),
                        StreamOp::ScalarMul(a, c) => Key::ScalarMul(v(a), *c),
                        StreamOp::PolyMul(a, b) => {
                            let (x, y) = sorted(v(a), v(b));
                            Key::PolyMul(x, y)
                        }
                        StreamOp::Upload(_) | StreamOp::Input(_) => unreachable!(),
                    };
                    let rep = *exprs.entry(key).or_insert(i);
                    (rep, rep == i)
                }
            };
            vclass[i] = class;
            if emit {
                map[i] = Some(emit_mapped(&mut out, op, &resolved)?);
            } else {
                eliminated += 1;
            }
            // Consumers of node i's value read the class rep's result.
            resolved[i] = map[class];
        }
        for h in stream.outputs() {
            out.output(resolved[h.index()].expect("class reps precede their members"))?;
        }
        Ok((out, PassStats { eliminated, ..PassStats::default() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, run, N};

    #[test]
    fn round_trips_are_identity_rewrites() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let f = st.ntt(a).unwrap();
        let back = st.intt(f).unwrap(); // == a
        let f2 = st.ntt(back).unwrap(); // == f
        let h = st.hadamard(f2, f).unwrap();
        let c = st.intt(h).unwrap();
        st.output(c).unwrap();
        st.output(back).unwrap();

        let truth = run(&st);
        let (opt, stats) = Cse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        // `back` and `f2` both collapse.
        assert_eq!(stats.eliminated, 2);
        assert_eq!(opt.len(), st.len() - 2);
    }

    #[test]
    fn identical_subtrees_dedup_across_commutations() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let h1 = st.hadamard(fa, fb).unwrap();
        let h2 = st.hadamard(fb, fa).unwrap(); // commuted duplicate
        let s = st.pointwise_add(h1, h2).unwrap();
        let c = st.intt(s).unwrap();
        st.output(c).unwrap();

        let truth = run(&st);
        let (opt, stats) = Cse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(stats.eliminated, 1, "the commuted product is the same value");
    }

    #[test]
    fn duplicate_upload_consumers_are_redirected() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(3)).unwrap();
        let b = st.upload(poly(3)).unwrap(); // identical payload
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap(); // same value as fa
        let h = st.hadamard(fa, fb).unwrap();
        st.output(h).unwrap();

        let truth = run(&st);
        let (opt, stats) = Cse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(stats.eliminated, 1, "the second forward NTT dedups");
        // The duplicate upload is still recorded (dead) — DCE's job.
        let (clean, dstats) = crate::Dce.run(&opt).unwrap();
        assert_eq!(dstats.eliminated, 1, "the orphaned duplicate upload dies");
        assert_eq!(run(&clean), truth);
    }

    #[test]
    fn repeated_input_stagings_collapse() {
        use cofhee_core::{CpuBackend, PolyBackend};
        let mut be = CpuBackend::new(crate::testutil::q(), N).unwrap();
        let resident = be.upload(&poly(5)).unwrap();
        let mut st = OpStream::new(N);
        let i1 = st.input(resident);
        let i2 = st.input(resident);
        let s = st.pointwise_add(i1, i2).unwrap();
        st.output(s).unwrap();
        let (opt, stats) = Cse.run(&st).unwrap();
        assert_eq!(stats.eliminated, 1);
        let got = be.execute_stream(&opt).unwrap().outputs;
        let q = crate::testutil::q();
        let expect: Vec<u128> = poly(5).iter().map(|&c| (2 * c) % q).collect();
        assert_eq!(got[0], expect);
    }
}
