//! The stream compiler's one pipeline — [`cse`] then [`dce`] — with its
//! counters, and the emission primitive both rewrites rebuild streams
//! through.

use cofhee_core::{CoreError, OpStream, Result, SharedSink, StreamHandle, StreamOp};
use cofhee_obs::{TraceEvent, Track};

use crate::{cse, dce, OptLevel};

/// What compiling one stream did to it. `ops_eliminated` is what rides
/// [`StreamReport`](cofhee_core::StreamReport) into evaluator, farm and
/// service telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Nodes in the stream as recorded.
    pub ops_in: u64,
    /// Nodes after compilation.
    pub ops_out: u64,
    /// Nodes removed: value-numbered duplicates plus dead nodes.
    pub ops_eliminated: u64,
}

/// Compiles `stream` at `level`: as recorded (a clone, payloads shared)
/// at `O0`; [`cse`] then [`dce`] at `O1` — value numbering first,
/// because redirecting consumers to a representative is what leaves the
/// duplicate producers dead for the sweep. Bit-exact and deterministic,
/// as both rewrites are.
///
/// # Errors
///
/// Propagates recording errors from rebuilding the stream (impossible
/// for well-formed inputs; surfaced rather than panicking).
pub fn optimize(stream: &OpStream, level: OptLevel) -> Result<(OpStream, OptStats)> {
    compile(stream, level, None)
}

/// [`optimize`] with tracing: when `sink` is enabled, each rewrite that
/// ran lands as a compiler-track instant (`cse`, then `dce`) at virtual
/// time `at` — the stream's ready time; compilation is host work, off
/// the die clock — carrying what it eliminated and the surviving node
/// count.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_traced(
    stream: &OpStream,
    level: OptLevel,
    sink: &SharedSink,
    at: u64,
) -> Result<(OpStream, OptStats)> {
    compile(stream, level, sink.enabled().then_some((sink, at)))
}

fn compile(
    stream: &OpStream,
    level: OptLevel,
    trace: Option<(&SharedSink, u64)>,
) -> Result<(OpStream, OptStats)> {
    let ops_in = stream.len() as u64;
    if level == OptLevel::O0 {
        return Ok((stream.clone(), OptStats { ops_in, ops_out: ops_in, ops_eliminated: 0 }));
    }
    let instant = |name: &'static str, eliminated: u64, out: &OpStream| {
        if let Some((sink, at)) = trace {
            sink.record(
                TraceEvent::instant(Track::Compiler, name, at)
                    .arg("eliminated", eliminated)
                    .arg("ops_out", out.len() as u64),
            );
        }
    };
    let (numbered, duplicates) = cse(stream)?;
    instant("cse", duplicates, &numbered);
    let (swept, dead) = dce(&numbered)?;
    instant("dce", dead, &swept);
    let stats = OptStats { ops_in, ops_out: swept.len() as u64, ops_eliminated: duplicates + dead };
    Ok((swept, stats))
}

/// Re-records `op` into `dst` with operands remapped through `map`
/// (old node index → new handle) — how both rewrites rebuild a stream.
/// An upload's payload is re-recorded by pointer, never copied.
pub(crate) fn emit_mapped(
    dst: &mut OpStream,
    op: &StreamOp,
    map: &[Option<StreamHandle>],
) -> Result<StreamHandle> {
    let m = |h: &StreamHandle| -> Result<StreamHandle> {
        map[h.index()].ok_or(CoreError::BadHandle { id: h.index() as u64 })
    };
    match op {
        StreamOp::Upload(v) => dst.upload_shared(v.clone()),
        StreamOp::Input(h) => Ok(dst.input(*h)),
        StreamOp::Ntt(a) => dst.ntt(m(a)?),
        StreamOp::Intt(a) => dst.intt(m(a)?),
        StreamOp::Hadamard(a, b) => dst.hadamard(m(a)?, m(b)?),
        StreamOp::HadamardIntt(a, b) => dst.hadamard_intt(m(a)?, m(b)?),
        StreamOp::HadamardAdd(a, b, acc) => dst.hadamard_add(m(a)?, m(b)?, m(acc)?),
        StreamOp::PointwiseAdd(a, b) => dst.pointwise_add(m(a)?, m(b)?),
        StreamOp::PointwiseSub(a, b) => dst.pointwise_sub(m(a)?, m(b)?),
        StreamOp::ScalarMul(a, c) => dst.scalar_mul(m(a)?, *c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, q, run, shape, N};
    use cofhee_core::Payload;

    /// A tensor limb recorded carelessly: `b0` re-uploads `a0`'s
    /// payload, and one node is read by nothing.
    fn tensorish() -> OpStream {
        let mut st = OpStream::new(N);
        let a0 = st.upload(poly(1)).unwrap();
        let a1 = st.upload(poly(2)).unwrap();
        let b0 = st.upload(poly(1)).unwrap(); // duplicate of a0's payload
        let b1 = st.upload(poly(3)).unwrap();
        let fa0 = st.ntt(a0).unwrap();
        let fa1 = st.ntt(a1).unwrap();
        let fb0 = st.ntt(b0).unwrap(); // CSE: same value as fa0
        let fb1 = st.ntt(b1).unwrap();
        let c0 = st.hadamard_intt(fa0, fb0).unwrap();
        let x01 = st.hadamard(fa0, fb1).unwrap();
        let mid = st.hadamard_add(fa1, fb0, x01).unwrap();
        let c1 = st.intt(mid).unwrap();
        let dead = st.scalar_mul(fa1, 5).unwrap(); // dead
        let _ = dead;
        for h in [c0, c1] {
            st.output(h).unwrap();
        }
        st
    }

    #[test]
    fn o1_pipeline_shrinks_and_preserves_outputs() {
        let st = tensorish();
        let truth = run(&st);
        let (opt, stats) = optimize(&st, OptLevel::O1).unwrap();
        assert_eq!(run(&opt), truth, "rewrites must be bit-exact");
        assert!(opt.len() < st.len(), "{} !< {}", opt.len(), st.len());
        assert!(stats.ops_eliminated > 0);
        assert_eq!(stats.ops_in, st.len() as u64);
        assert_eq!(stats.ops_out, opt.len() as u64);
    }

    /// A 3-digit inline key switch. With `duplicates`, the three digits
    /// and the first base component all carry one polynomial: digit 1 is
    /// digit 0's very payload, digit 2 and the base equal copies of it.
    fn key_switchish(duplicates: bool) -> OpStream {
        use cofhee_core::{record_key_switch, KeySwitchKeys, Limb};
        let limb = |seed: u128| Limb::new(q(), poly(seed)).unwrap();
        let digit = |d: u128| limb(if duplicates { 10 } else { 10 + d });
        let first = digit(0);
        let digits = [first.clone(), if duplicates { first } else { digit(1) }, digit(2)];
        let keys: Vec<_> = (0..3u128).map(|d| (limb(20 + d), limb(30 + d))).collect();
        let base = [poly(if duplicates { 10 } else { 1 }), poly(2)];
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&keys), base).unwrap();
        st
    }

    fn payloads(stream: &OpStream) -> Vec<&Payload> {
        stream
            .nodes()
            .iter()
            .filter_map(|op| match op {
                StreamOp::Upload(data) => Some(data),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn o1_merges_what_it_always_merged_and_copies_no_payload() {
        // Nodes out and surviving uploads are what this pipeline left
        // while payloads were hashed in full and deep-copied by every
        // rewrite; a distinct-operand key switch comes back as recorded.
        let stats = |ops_in, ops_out, ops_eliminated| OptStats { ops_in, ops_out, ops_eliminated };
        for (st, expect, uploads_out) in [
            (tensorish(), stats(13, 10, 3), 3),
            (key_switchish(false), stats(24, 24, 0), 11),
            (key_switchish(true), stats(24, 19, 5), 8),
        ] {
            let truth = run(&st);
            let (opt, got) = optimize(&st, OptLevel::O1).unwrap();
            assert_eq!(got, expect);
            assert_eq!(run(&opt), truth);
            let recorded = payloads(&st);
            let surviving = payloads(&opt);
            assert_eq!(surviving.len(), uploads_out);
            for data in surviving {
                assert!(
                    recorded.iter().any(|r| r.same(data)),
                    "a surviving upload must share its payload with the recorded stream"
                );
            }
        }
    }

    #[test]
    fn payloads_that_agree_on_every_sampled_word_are_still_told_apart() {
        let a = poly(1);
        let mut b = a.clone();
        // A word the payload's bucket key does not sample.
        let unsampled = 1;
        let samples = crate::cse::PAYLOAD_SAMPLES;
        assert!((0..samples).all(|k| k * N / samples != unsampled));
        b[unsampled] ^= 1;
        let mut st = OpStream::new(N);
        let ha = st.upload(a).unwrap();
        let hb = st.upload(b).unwrap();
        let diff = st.pointwise_sub(ha, hb).unwrap();
        st.output(diff).unwrap();
        let truth = run(&st);
        assert!(truth[0].iter().any(|&c| c != 0));
        let (opt, stats) = optimize(&st, OptLevel::O1).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(payloads(&opt).len(), 2, "distinct payloads must both survive");
        assert_eq!(stats.ops_eliminated, 0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let st = tensorish();
        let (a, sa) = optimize(&st, OptLevel::O1).unwrap();
        let (b, sb) = optimize(&st, OptLevel::O1).unwrap();
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(sa, sb);
    }

    #[test]
    fn traced_optimize_matches_untraced_and_records_each_pass() {
        let st = tensorish();
        let (plain, plain_stats) = optimize(&st, OptLevel::O1).unwrap();
        let sink = cofhee_obs::MemorySink::shared();
        let shared: SharedSink = sink.clone();
        let (traced, traced_stats) = optimize_traced(&st, OptLevel::O1, &shared, 77).unwrap();
        assert_eq!(shape(&plain), shape(&traced));
        assert_eq!(plain_stats, traced_stats);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        for (ev, name) in events.iter().zip(["cse", "dce"]) {
            assert_eq!(ev.track, Track::Compiler);
            assert_eq!(ev.name, name);
            assert_eq!(ev.kind.start(), 77);
            assert!(ev.args.iter().any(|&(k, _)| k == "ops_out"));
        }
        // Nothing runs at `O0`, so nothing is traced.
        optimize_traced(&st, OptLevel::O0, &shared, 78).unwrap();
        assert_eq!(sink.events().len(), 2);
    }
}
