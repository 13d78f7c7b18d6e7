//! Transfer hoisting: merge redundant uploads, sink the survivors to
//! first use.

use cofhee_core::{OpStream, Result, StreamHandle, StreamOp};

use crate::pass::{emit_mapped, Pass, PassStats, PayloadClasses};

/// Transfer hoisting over the stream's host uploads.
///
/// Two rewrites, both pure transfer-schedule moves:
///
/// * **Merge** — uploads carrying identical coefficient vectors
///   collapse to the first occurrence (identical by content: the same
///   shared payload, or equal words — `PayloadClasses` in `pass.rs`
///   finds both without hashing whole operands). Each merge removes a
///   real DMA command *and* the polynomial's wire bytes — a strict win
///   on every link. Survivors are re-recorded by pointer: the rewritten
///   stream shares its payloads with the recorded one.
/// * **Sink** — surviving uploads move to just before their first
///   consumer. A head-of-stream upload burst has no compute to hide
///   behind and pins SRAM slots (host writes need clean `Free` slots)
///   long before anything reads them; interleaved with compute, the
///   DMA transfers overlap PE work and live ranges shrink, so the
///   FIFO scheduler drains less often.
///
/// Uploads have no dependencies and all other nodes keep their relative
/// order, so the sunk order is trivially still topological; values are
/// untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferHoist;

impl Pass for TransferHoist {
    fn name(&self) -> &'static str {
        "hoist"
    }

    fn run(&self, stream: &OpStream) -> Result<(OpStream, PassStats)> {
        let nodes = stream.nodes();
        // Merge: representative (first) upload per distinct payload.
        let mut payloads = PayloadClasses::default();
        let mut rep: Vec<usize> = (0..nodes.len()).collect();
        let mut hoisted = 0u64;
        for (i, op) in nodes.iter().enumerate() {
            if let StreamOp::Upload(data) = op {
                let r = payloads.class(i, data);
                rep[i] = r;
                if r != i {
                    hoisted += 1;
                }
            }
        }

        // First consumer of each surviving upload, post-merge: the
        // earliest non-upload node reading its (representative's) value.
        let mut first_use: Vec<Option<usize>> = vec![None; nodes.len()];
        for (i, op) in nodes.iter().enumerate() {
            for dep in op.deps().into_iter().flatten() {
                let r = rep[dep.index()];
                if matches!(nodes[r], StreamOp::Upload(_)) && first_use[r].is_none() {
                    first_use[r] = Some(i);
                }
            }
        }

        // Emission order: non-upload nodes in original order, each
        // preceded by the surviving uploads it first consumes; uploads
        // nothing consumes (outputs-only or dead) trail at the end.
        let mut order: Vec<usize> = Vec::with_capacity(nodes.len());
        let mut pending: Vec<(usize, usize)> = Vec::new(); // (first_use, upload)
        for (i, op) in nodes.iter().enumerate() {
            if let StreamOp::Upload(_) = op {
                if rep[i] == i {
                    match first_use[i] {
                        Some(c) => pending.push((c, i)),
                        None => order.push(i), // resolved below
                    }
                }
            }
        }
        let tail: Vec<usize> = std::mem::take(&mut order);
        pending.sort(); // by (first consumer, original index): deterministic
        let mut pi = 0usize;
        for (i, op) in nodes.iter().enumerate() {
            if matches!(op, StreamOp::Upload(_)) {
                continue;
            }
            while pi < pending.len() && pending[pi].0 <= i {
                let (c, u) = pending[pi];
                // Count a sink only when the upload actually moved past
                // at least one non-upload node.
                if nodes[u..c].iter().skip(1).any(|n| !matches!(n, StreamOp::Upload(_))) {
                    hoisted += 1;
                }
                order.push(u);
                pi += 1;
            }
            order.push(i);
        }
        order.extend(pending[pi..].iter().map(|&(_, u)| u));
        order.extend(tail);

        // Emit in the sunk order; merged duplicates resolve to their
        // representative's new handle.
        let mut dups: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            if rep[i] != i {
                dups[rep[i]].push(i);
            }
        }
        let mut out = OpStream::new(stream.n());
        let mut map: Vec<Option<StreamHandle>> = vec![None; nodes.len()];
        for &i in &order {
            let h = emit_mapped(&mut out, &nodes[i], &map)?;
            map[i] = Some(h);
            for &d in &dups[i] {
                map[d] = Some(h);
            }
        }
        for h in stream.outputs() {
            out.output(map[h.index()].expect("all surviving nodes were emitted"))?;
        }
        Ok((out, PassStats { hoisted, ..PassStats::default() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, run, N};

    #[test]
    fn duplicate_uploads_merge() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(1)).unwrap(); // identical payload
        let c = st.upload(poly(2)).unwrap();
        let s1 = st.pointwise_add(a, c).unwrap();
        let s2 = st.pointwise_add(b, c).unwrap();
        let s = st.hadamard(s1, s2).unwrap();
        st.output(s).unwrap();

        let truth = run(&st);
        let (opt, stats) = TransferHoist.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(opt.len(), st.len() - 1, "one upload merged away");
        assert!(stats.hoisted >= 1);
        let uploads = opt.nodes().iter().filter(|n| matches!(n, StreamOp::Upload(_))).count();
        assert_eq!(uploads, 2);
    }

    #[test]
    fn uploads_sink_to_first_use() {
        let mut st = OpStream::new(N);
        // An upload burst at the head, consumed much later.
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let late = st.upload(poly(3)).unwrap();
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let h = st.hadamard(fa, fb).unwrap();
        let back = st.intt(h).unwrap();
        let s = st.pointwise_add(back, late).unwrap();
        st.output(s).unwrap();

        let truth = run(&st);
        let (opt, stats) = TransferHoist.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(opt.len(), st.len());
        // `late` moved from position 2 to just before the final add,
        // and `b` sank past `late`'s original slot to just before its
        // own NTT — two real sinks.
        assert!(matches!(opt.nodes()[opt.len() - 2], StreamOp::Upload(_)));
        assert_eq!(stats.hoisted, 2);
    }

    #[test]
    fn output_only_uploads_survive_at_the_tail() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let s = st.scalar_mul(b, 3).unwrap();
        st.output(a).unwrap(); // downloaded, never consumed
        st.output(s).unwrap();
        let truth = run(&st);
        let (opt, _) = TransferHoist.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(opt.len(), st.len());
    }
}
