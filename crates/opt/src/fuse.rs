//! Fusion into the backends' fused nodes: `intt ∘ hadamard` →
//! `HadamardIntt`, `hadamard + pointwise_add` → `HadamardAdd`.

use cofhee_core::{OpStream, Result, StreamHandle, StreamOp};

use crate::pass::{emit_mapped, output_marks, use_counts, Pass, PassStats};

/// What a fusing consumer emits instead of its recorded op.
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    HadamardIntt(StreamHandle, StreamHandle),
    HadamardAdd(StreamHandle, StreamHandle, StreamHandle),
}

/// Fusion into [`StreamOp::HadamardIntt`] and [`StreamOp::HadamardAdd`].
///
/// A `Hadamard` product whose *only* use is a single downstream
/// consumer (and which is not itself downloaded) folds into that
/// consumer:
///
/// * `intt(hadamard(x, y))` → `hadamard_intt(x, y)` — the tail of
///   every tensor limb; the CPU backend executes it through the fused
///   Harvey kernel (one pass fewer over memory).
/// * `hadamard(x, y) + acc` → `hadamard_add(x, y, acc)` — the tensor
///   middle term's and the key switch's accumulate pattern. When both
///   operands are sole-use products the **later-recorded** one folds —
///   the one adjacent to the add — so no product moves behind the
///   uploads and transforms recorded between the two.
///
/// On the chip both fused nodes issue exactly the commands of their
/// unfused expansions, so fusion is cycle-neutral there and pays off in
/// recorded-node count and SRAM slot pressure; on the CPU backend the
/// fused kernels are measurably faster. Either way the values are
/// bit-identical by construction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fuse;

impl Pass for Fuse {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn run(&self, stream: &OpStream) -> Result<(OpStream, PassStats)> {
        let nodes = stream.nodes();
        let uses = use_counts(stream);
        let marked = output_marks(stream);
        // A producer folds into its consumer only when the consumer is
        // its sole observer.
        let foldable = |h: &StreamHandle| -> Option<(StreamHandle, StreamHandle)> {
            let i = h.index();
            match nodes[i] {
                StreamOp::Hadamard(x, y) if uses[i] == 1 && !marked[i] => Some((x, y)),
                _ => None,
            }
        };

        let mut claimed = vec![false; nodes.len()];
        let mut rewrite: Vec<Option<Rewrite>> = vec![None; nodes.len()];
        let mut fused = 0u64;
        for (i, op) in nodes.iter().enumerate() {
            match op {
                StreamOp::Intt(a) => {
                    if let Some((x, y)) = foldable(a) {
                        claimed[a.index()] = true;
                        rewrite[i] = Some(Rewrite::HadamardIntt(x, y));
                        fused += 1;
                    }
                }
                StreamOp::PointwiseAdd(p, q) => {
                    // Fuse one side. When a sole-use product sits on
                    // both, fold the later-recorded one: the folded
                    // product is emitted at this add, so folding the
                    // earlier one would move it behind everything
                    // recorded in between (a key switch's next digit:
                    // uploads and transforms the chip then serializes
                    // in front of a product it could have overlapped).
                    let (late, early) = if p.index() > q.index() { (p, q) } else { (q, p) };
                    let (product, acc) =
                        if foldable(late).is_some() { (late, early) } else { (early, late) };
                    if let Some((x, y)) = foldable(product) {
                        claimed[product.index()] = true;
                        rewrite[i] = Some(Rewrite::HadamardAdd(x, y, *acc));
                        fused += 1;
                    }
                }
                _ => {}
            }
        }

        let mut out = OpStream::new(stream.n());
        let mut map: Vec<Option<StreamHandle>> = vec![None; nodes.len()];
        for (i, op) in nodes.iter().enumerate() {
            if claimed[i] {
                continue; // folded into its consumer below
            }
            let m = |h: StreamHandle| map[h.index()].expect("operands precede consumers");
            map[i] = Some(match rewrite[i] {
                Some(Rewrite::HadamardIntt(x, y)) => out.hadamard_intt(m(x), m(y))?,
                Some(Rewrite::HadamardAdd(x, y, acc)) => out.hadamard_add(m(x), m(y), m(acc))?,
                None => emit_mapped(&mut out, op, &map)?,
            });
        }
        for h in stream.outputs() {
            out.output(map[h.index()].expect("outputs are never claimed"))?;
        }
        Ok((out, PassStats { fused, ..PassStats::default() }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, run, N};

    #[test]
    fn tensor_tail_and_middle_term_both_fuse() {
        let mut st = OpStream::new(N);
        let a0 = st.upload(poly(1)).unwrap();
        let a1 = st.upload(poly(2)).unwrap();
        let b0 = st.upload(poly(3)).unwrap();
        let b1 = st.upload(poly(4)).unwrap();
        let f: Vec<_> = [a0, a1, b0, b1].iter().map(|&h| st.ntt(h).unwrap()).collect();
        let outer = st.hadamard(f[0], f[2]).unwrap();
        let c0 = st.intt(outer).unwrap(); // → HadamardIntt
        let x01 = st.hadamard(f[0], f[3]).unwrap();
        let x10 = st.hadamard(f[1], f[2]).unwrap();
        let mid = st.pointwise_add(x01, x10).unwrap(); // → HadamardAdd
        let c1 = st.intt(mid).unwrap();
        for h in [c0, c1] {
            st.output(h).unwrap();
        }

        let truth = run(&st);
        let (opt, stats) = Fuse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(stats.fused, 2);
        assert_eq!(opt.len(), st.len() - 2);
        assert!(opt.nodes().iter().any(|n| matches!(n, StreamOp::HadamardIntt(..))));
        assert!(opt.nodes().iter().any(|n| matches!(n, StreamOp::HadamardAdd(..))));
    }

    #[test]
    fn key_switch_accumulators_fold_the_later_product() {
        use cofhee_core::{record_key_switch, KeySwitchKeys};
        use std::sync::Arc;
        const DIGITS: usize = 3;
        let digits: Vec<_> = (0..DIGITS as u128).map(|d| Arc::new(poly(10 + d))).collect();
        let keys: Vec<_> =
            (0..DIGITS as u128).map(|d| (Arc::new(poly(20 + d)), Arc::new(poly(30 + d)))).collect();
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&keys), [poly(1), poly(2)])
            .unwrap();

        let truth = run(&st);
        let (opt, stats) = Fuse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(stats.fused, 2 * (DIGITS as u64 - 1), "every accumulate fuses");
        // Digit 0's two products are both operands of digit 1's adds;
        // they must stay where they were recorded, ahead of digit 1's
        // first upload, and each later product folds in place.
        let kinds = crate::testutil::shape(&opt);
        let at = |prefix: &str| -> Vec<usize> {
            (0..kinds.len()).filter(|&i| kinds[i].starts_with(prefix)).collect()
        };
        let plain = at("Hadamard[");
        assert_eq!(plain.len(), 2, "only digit 0 keeps plain products: {kinds:?}");
        // Uploads in record order: d0, k00, k01, then d1.
        let digit1_upload = at("Upload")[3];
        assert!(plain.iter().all(|&i| i < digit1_upload), "{kinds:?}");
    }

    #[test]
    fn shared_or_downloaded_products_do_not_fuse() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let h = st.hadamard(fa, fb).unwrap();
        let c = st.intt(h).unwrap();
        st.output(h).unwrap(); // the product itself is downloaded
        st.output(c).unwrap();
        let truth = run(&st);
        let (opt, stats) = Fuse.run(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(stats.fused, 0, "a downloaded product must stay materialized");

        // Fan-out > 1 blocks fusion too.
        let mut st2 = OpStream::new(N);
        let a = st2.upload(poly(1)).unwrap();
        let b = st2.upload(poly(2)).unwrap();
        let h = st2.hadamard(a, b).unwrap();
        let c1 = st2.intt(h).unwrap();
        let c2 = st2.scalar_mul(h, 9).unwrap();
        st2.output(c1).unwrap();
        st2.output(c2).unwrap();
        let truth2 = run(&st2);
        let (opt2, stats2) = Fuse.run(&st2).unwrap();
        assert_eq!(run(&opt2), truth2);
        assert_eq!(stats2.fused, 0);
    }
}
