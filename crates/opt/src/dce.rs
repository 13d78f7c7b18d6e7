//! Dead-op elimination: the marked outputs are the roots; everything
//! they cannot reach is never executed.

use cofhee_core::{OpStream, Result, StreamHandle};

use crate::pass::emit_mapped;

/// Dead-op elimination with [`OpStream::outputs`] as the root set.
///
/// A recorded node whose value no output (transitively) depends on
/// still occupies a FIFO slot, an SRAM bank slot, and PE cycles — and
/// dead *uploads* additionally pay their DMA transfer. Dropping them
/// changes nothing observable: outputs, and their order, are preserved.
///
/// Returns the rewritten stream and the number of nodes dropped.
///
/// # Errors
///
/// Propagates recording errors from rebuilding (impossible for
/// well-formed inputs; surfaced rather than panicking).
pub fn dce(stream: &OpStream) -> Result<(OpStream, u64)> {
    let mut live = vec![false; stream.len()];
    let mut work: Vec<usize> = stream.outputs().iter().map(StreamHandle::index).collect();
    while let Some(i) = work.pop() {
        if std::mem::replace(&mut live[i], true) {
            continue;
        }
        for dep in stream.nodes()[i].deps().into_iter().flatten() {
            work.push(dep.index());
        }
    }

    let mut out = OpStream::new(stream.n());
    let mut map: Vec<Option<StreamHandle>> = vec![None; stream.len()];
    let mut eliminated = 0u64;
    for (i, op) in stream.nodes().iter().enumerate() {
        if live[i] {
            map[i] = Some(emit_mapped(&mut out, op, &map)?);
        } else {
            eliminated += 1;
        }
    }
    for h in stream.outputs() {
        out.output(map[h.index()].expect("outputs are live roots"))?;
    }
    Ok((out, eliminated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, run, N};

    #[test]
    fn unreachable_nodes_are_dropped_outputs_preserved() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let sum = st.pointwise_add(a, b).unwrap();
        let dead_up = st.upload(poly(3)).unwrap();
        let dead_chain = st.ntt(dead_up).unwrap();
        let _ = st.scalar_mul(dead_chain, 3).unwrap();
        st.output(sum).unwrap();
        st.output(a).unwrap(); // an input marked directly stays live

        let truth = run(&st);
        let (opt, eliminated) = dce(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(opt.len(), 3);
        assert_eq!(eliminated, 3);
    }

    #[test]
    fn fully_live_streams_pass_through_unchanged() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(4)).unwrap();
        let f = st.ntt(a).unwrap();
        st.output(f).unwrap();
        let (opt, eliminated) = dce(&st).unwrap();
        assert_eq!(crate::testutil::shape(&opt), crate::testutil::shape(&st));
        assert_eq!(eliminated, 0);
    }
}
