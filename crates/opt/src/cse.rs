//! NTT-form caching / common-subexpression elimination by value
//! numbering.

use std::collections::HashMap;

use cofhee_core::{OpStream, Payload, PolyHandle, Result, StreamHandle, StreamOp};

use crate::pass::emit_mapped;

/// The value-numbering key of one compute node: opcode, the value
/// classes of its operands (the factors sorted where the op commutes —
/// `a ⊙ b` and `b ⊙ a` are the same value) and its constant, if any.
type Key = (std::mem::Discriminant<StreamOp>, [Option<usize>; 3], u128);

/// How many evenly spaced words of a payload key its
/// [`PayloadClasses`] bucket.
pub(crate) const PAYLOAD_SAMPLES: usize = 8;
type PayloadSample = [u128; PAYLOAD_SAMPLES];

/// Upload payloads grouped by content — what [`cse`] merges duplicate
/// uploads by.
///
/// Two payloads in hand are one class exactly when they hold the same
/// words. Finding that out does not read them in full: a payload is filed
/// under its [`PayloadSample`], and only payloads filed
/// together are compared — by pointer first (the same shared payload
/// recorded twice), then word for word. Distinct operands all but never
/// agree on the sample, so `cse` reads a few words per upload instead
/// of hashing every one; payloads that do agree on it are still told
/// apart by the full comparison. Only lookups touch the map, so the
/// classes do not depend on its iteration order.
///
/// A deferred payload has no words to compare when the stream is
/// compiled, filled or not: it is one class with the uploads of the very
/// same slot and with nothing else.
#[derive(Default)]
struct PayloadClasses<'a> {
    buckets: HashMap<PayloadSample, Vec<(usize, &'a Payload)>>,
    deferred: Vec<(usize, &'a Payload)>,
}

impl<'a> PayloadClasses<'a> {
    /// The class of the payload uploaded by node `i`: the index of the
    /// first node seen with equal contents (`i` itself when it is new).
    fn class(&mut self, i: usize, data: &'a Payload) -> usize {
        let candidates = match data.words() {
            Ok(words) if !data.is_deferred() => {
                let sample: PayloadSample = std::array::from_fn(|k| {
                    words.get(k * words.len() / PAYLOAD_SAMPLES).copied().unwrap_or_default()
                });
                self.buckets.entry(sample).or_default()
            }
            _ => &mut self.deferred,
        };
        match candidates.iter().find(|(_, seen)| *seen == data) {
            Some(&(rep, _)) => rep,
            None => {
                candidates.push((i, data));
                i
            }
        }
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
///   [`dce`](crate::dce) to sweep. Upload payloads are one value when
///   they hold the same words, deferred ones only when they are the same
///   slot (`PayloadClasses`).
///
/// Dedup can extend a representative's live range (its last consumer
/// moves later), which trades SRAM slot pressure for eliminated
/// commands — `tests/opt_traffic.rs` gates that trade by asserting
/// optimized cycles ≤ recorded on every row of its ledger.
///
/// Returns the rewritten stream and the number of nodes not re-recorded.
///
/// # Errors
///
/// Propagates recording errors from rebuilding (impossible for
/// well-formed inputs; surfaced rather than panicking).
pub fn cse(stream: &OpStream) -> Result<(OpStream, u64)> {
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
        // The NTT-form cache: a round trip through the transform is the
        // identity on canonical residues.
        let round_trip = match (op, op.deps()[0].map(|a| &nodes[v(&a)])) {
            (StreamOp::Ntt(_), Some(StreamOp::Intt(x)))
            | (StreamOp::Intt(_), Some(StreamOp::Ntt(x))) => Some(vclass[x.index()]),
            _ => None,
        };
        // `emit: false` nodes are value-numbered duplicates: they
        // are not re-recorded, and their consumers follow the map
        // to the representative's new handle.
        let (class, emit) = match (round_trip, op) {
            (Some(class), _) => (class, false),
            (None, StreamOp::Upload(data)) => {
                // Identical payloads share a value class so their
                // consumers dedup, but the duplicate upload itself
                // is left for `dce` to account — it dies once
                // redirection strips its consumers.
                (uploads.class(i, data), true)
            }
            (None, StreamOp::Input(h)) => {
                let rep = *inputs.entry(*h).or_insert(i);
                (rep, rep == i)
            }
            (None, _) => {
                let mut operands = op.deps().map(|dep| dep.map(|h| v(&h)));
                // Both products are of the first two operands; a
                // multiply-accumulate's third is the sum it adds onto.
                let commutes = matches!(
                    op,
                    StreamOp::Hadamard(..)
                        | StreamOp::HadamardIntt(..)
                        | StreamOp::HadamardAdd(..)
                        | StreamOp::PointwiseAdd(..)
                );
                if commutes {
                    operands[..2].sort_unstable();
                }
                let constant = if let StreamOp::ScalarMul(_, c) = op { *c } else { 0 };
                let key: Key = (std::mem::discriminant(op), operands, constant);
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
    Ok((out, eliminated))
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
        let (opt, eliminated) = cse(&st).unwrap();
        assert_eq!(run(&opt), truth);
        // `back` and `f2` both collapse.
        assert_eq!(eliminated, 2);
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
        let (opt, eliminated) = cse(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(eliminated, 1, "the commuted product is the same value");
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
        let (opt, eliminated) = cse(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(eliminated, 1, "the second forward NTT dedups");
        // The duplicate upload is still recorded (dead) — DCE's job.
        let (clean, dead) = crate::dce(&opt).unwrap();
        assert_eq!(dead, 1, "the orphaned duplicate upload dies");
        assert_eq!(run(&clean), truth);
    }

    #[test]
    fn deferred_uploads_are_one_value_only_when_they_are_one_slot() {
        let (payload, filler) = Payload::deferred(N);
        let (twin, twin_filler) = Payload::deferred(N);
        let mut st = OpStream::new(N);
        let a = st.upload_shared(payload.clone()).unwrap();
        let again = st.upload_shared(payload).unwrap(); // the same slot
        let b = st.upload_shared(twin).unwrap(); // another slot, equal words
        let (fa, fa2, fb) = (st.ntt(a).unwrap(), st.ntt(again).unwrap(), st.ntt(b).unwrap());
        let sq = st.hadamard(fa, fa2).unwrap();
        let sum = st.hadamard_add(fa, fb, sq).unwrap();
        let c = st.intt(sum).unwrap();
        st.output(c).unwrap();
        filler.fill(poly(3)).unwrap();
        twin_filler.fill(poly(3)).unwrap();

        let (opt, eliminated) = cse(&st).unwrap();
        assert_eq!(eliminated, 1, "only the second transform of the same slot");
        assert_eq!(run(&opt), run(&st));
        // In hand, the same three payloads are one value.
        let mut eager = OpStream::new(N);
        let ups: Vec<_> = (0..3).map(|_| eager.upload(poly(3)).unwrap()).collect();
        let fs: Vec<_> = ups.into_iter().map(|u| eager.ntt(u).unwrap()).collect();
        let sq = eager.hadamard(fs[0], fs[1]).unwrap();
        let sum = eager.hadamard_add(fs[0], fs[2], sq).unwrap();
        let c = eager.intt(sum).unwrap();
        eager.output(c).unwrap();
        assert_eq!(cse(&eager).unwrap().1, 2);
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
        let (opt, eliminated) = cse(&st).unwrap();
        assert_eq!(eliminated, 1);
        let got = be.execute_stream(&opt).unwrap().outputs;
        let q = crate::testutil::q();
        let expect: Vec<u128> = poly(5).iter().map(|&c| (2 * c) % q).collect();
        assert_eq!(got[0], expect);
    }
}
