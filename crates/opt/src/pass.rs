//! The [`Pass`] trait and the [`PassRunner`] pipeline, plus the shared
//! rebuild machinery every rewrite pass emits through.

use std::collections::HashMap;
use std::sync::Arc;

use cofhee_core::{CoreError, OpStream, Result, SharedSink, StreamHandle, StreamOp, StreamReport};
use cofhee_obs::{TraceEvent, Track};

use crate::cost::stream_cost;
use crate::{Cse, Dce, Fuse, OptLevel, TransferHoist};

/// What one pass did to one stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassStats {
    /// Nodes removed (dead, deduplicated, or round-trip-eliminated).
    pub eliminated: u64,
    /// Node pairs fused into one fused node.
    pub fused: u64,
    /// Uploads merged or sunk to first use.
    pub hoisted: u64,
}

impl PassStats {
    /// Sums another pass's stats into this one.
    pub fn merge(&mut self, other: &PassStats) {
        self.eliminated = self.eliminated.saturating_add(other.eliminated);
        self.fused = self.fused.saturating_add(other.fused);
        self.hoisted = self.hoisted.saturating_add(other.hoisted);
    }
}

/// One rewrite over a recorded stream.
///
/// The contract every implementation must keep: the rewritten stream is
/// **bit-exact** — executing it on any backend yields the same outputs,
/// in the same marking order, as the input stream — and the rewrite is
/// **deterministic**: the same input always produces the same output
/// node list, so farm replays stay reproducible.
pub trait Pass {
    /// Short stable name (telemetry, bench tables).
    fn name(&self) -> &'static str;

    /// Rewrites `stream` into an equivalent, cheaper stream.
    ///
    /// # Errors
    ///
    /// Propagates recording errors from rebuilding (impossible for
    /// well-formed inputs; surfaced rather than panicking).
    fn run(&self, stream: &OpStream) -> Result<(OpStream, PassStats)>;
}

/// Cumulative optimizer telemetry for one stream (or one absorbed group
/// of streams).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptStats {
    /// Nodes in the stream(s) before optimization.
    pub ops_in: u64,
    /// Nodes after optimization.
    pub ops_out: u64,
    /// Nodes removed across all passes.
    pub ops_eliminated: u64,
    /// Node pairs fused across all passes.
    pub ops_fused: u64,
    /// Uploads merged or sunk across all passes.
    pub uploads_hoisted: u64,
    /// Estimated cycles saved under the static cost model (see
    /// [`crate::stream_cost`]); the bench measures the real delta.
    pub estimated_cycles_saved: u64,
}

impl OptStats {
    /// Sums another stream's optimizer stats into this one.
    pub fn merge(&mut self, other: &OptStats) {
        self.ops_in = self.ops_in.saturating_add(other.ops_in);
        self.ops_out = self.ops_out.saturating_add(other.ops_out);
        self.ops_eliminated = self.ops_eliminated.saturating_add(other.ops_eliminated);
        self.ops_fused = self.ops_fused.saturating_add(other.ops_fused);
        self.uploads_hoisted = self.uploads_hoisted.saturating_add(other.uploads_hoisted);
        self.estimated_cycles_saved =
            self.estimated_cycles_saved.saturating_add(other.estimated_cycles_saved);
    }

    /// Stamps the optimizer counters into a [`StreamReport`] so the
    /// wins ride the existing telemetry paths (evaluator totals, farm
    /// ledgers, service reports).
    pub fn stamp(&self, report: &mut StreamReport) {
        report.ops_eliminated = report.ops_eliminated.saturating_add(self.ops_eliminated);
        report.ops_fused = report.ops_fused.saturating_add(self.ops_fused);
        report.uploads_hoisted = report.uploads_hoisted.saturating_add(self.uploads_hoisted);
    }
}

/// A fixed, deterministic sequence of passes applied front to back.
pub struct PassRunner {
    passes: Vec<Box<dyn Pass>>,
}

impl std::fmt::Debug for PassRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.passes.iter().map(|p| p.name())).finish()
    }
}

impl PassRunner {
    /// A runner over an explicit pass sequence (bench ablations build
    /// every subset this way).
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        Self { passes }
    }

    /// The `O1` rewrite pipeline, in its fixed order: CSE/NTT-form
    /// caching first (exposes dead nodes), dead-op elimination, then
    /// transfer hoisting over the surviving uploads, then fusion last
    /// so no earlier pass needs to reason about fused nodes.
    pub fn o1() -> Self {
        Self::new(vec![Box::new(Cse), Box::new(Dce), Box::new(TransferHoist), Box::new(Fuse)])
    }

    /// The rewrite pipeline for `level`: empty at `O0`, [`Self::o1`]
    /// otherwise (partitioning is a separate, farm-level step — see
    /// [`crate::Partitioner`]).
    pub fn for_level(level: OptLevel) -> Self {
        match level {
            OptLevel::O0 => Self::new(Vec::new()),
            OptLevel::O1 | OptLevel::O2 => Self::o1(),
        }
    }

    /// The pass names, in application order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs every pass in order and returns the rewritten stream with
    /// cumulative stats (including the static-model cycle estimate).
    ///
    /// # Errors
    ///
    /// Propagates the first pass failure.
    pub fn optimize(&self, stream: &OpStream) -> Result<(OpStream, OptStats)> {
        self.optimize_inner(stream, None)
    }

    /// [`Self::optimize`] with per-pass tracing: each pass lands as a
    /// compiler-track instant at virtual time `at` (the stream's ready
    /// time — compilation is host work, off the die clock) carrying the
    /// pass's eliminated/fused/hoisted deltas and surviving node count.
    ///
    /// # Errors
    ///
    /// As [`Self::optimize`].
    pub fn optimize_traced(
        &self,
        stream: &OpStream,
        sink: &SharedSink,
        at: u64,
    ) -> Result<(OpStream, OptStats)> {
        self.optimize_inner(stream, Some((sink, at)))
    }

    fn optimize_inner(
        &self,
        stream: &OpStream,
        trace: Option<(&SharedSink, u64)>,
    ) -> Result<(OpStream, OptStats)> {
        let before = stream_cost(stream);
        let mut rewritten: Option<OpStream> = None;
        let mut total = PassStats::default();
        for pass in &self.passes {
            let (current, stats) = pass.run(rewritten.as_ref().unwrap_or(stream))?;
            total.merge(&stats);
            if let Some((sink, at)) = trace {
                if sink.enabled() {
                    sink.record(
                        TraceEvent::instant(Track::Compiler, pass.name(), at)
                            .arg("eliminated", stats.eliminated)
                            .arg("fused", stats.fused)
                            .arg("hoisted", stats.hoisted)
                            .arg("ops_out", current.len() as u64),
                    );
                }
            }
            rewritten = Some(current);
        }
        // No pass ran (`O0`): the stream as recorded, payloads shared.
        let current = rewritten.unwrap_or_else(|| stream.clone());
        let stats = OptStats {
            ops_in: stream.len() as u64,
            ops_out: current.len() as u64,
            ops_eliminated: total.eliminated,
            ops_fused: total.fused,
            uploads_hoisted: total.hoisted,
            estimated_cycles_saved: before.saturating_sub(stream_cost(&current)),
        };
        Ok((current, stats))
    }
}

/// Re-records `op` into `dst` with operands remapped through `map`
/// (old node index → new handle). The shared emission primitive every
/// pass rebuilds streams with; an upload's payload is re-recorded by
/// pointer, never copied.
pub(crate) fn emit_mapped(
    dst: &mut OpStream,
    op: &StreamOp,
    map: &[Option<StreamHandle>],
) -> Result<StreamHandle> {
    let m = |h: &StreamHandle| -> Result<StreamHandle> {
        map[h.index()].ok_or(CoreError::BadHandle { id: h.index() as u64 })
    };
    match op {
        StreamOp::Upload(v) => dst.upload_shared(Arc::clone(v)),
        StreamOp::Input(h) => Ok(dst.input(*h)),
        StreamOp::Ntt(a) => dst.ntt(m(a)?),
        StreamOp::Intt(a) => dst.intt(m(a)?),
        StreamOp::Hadamard(a, b) => dst.hadamard(m(a)?, m(b)?),
        StreamOp::HadamardIntt(a, b) => dst.hadamard_intt(m(a)?, m(b)?),
        StreamOp::HadamardAdd(a, b, acc) => dst.hadamard_add(m(a)?, m(b)?, m(acc)?),
        StreamOp::PointwiseAdd(a, b) => dst.pointwise_add(m(a)?, m(b)?),
        StreamOp::PointwiseSub(a, b) => dst.pointwise_sub(m(a)?, m(b)?),
        StreamOp::ScalarMul(a, c) => dst.scalar_mul(m(a)?, *c),
        StreamOp::PolyMul(a, b) => dst.poly_mul(m(a)?, m(b)?),
    }
}

/// A shared upload payload, as [`StreamOp::Upload`] holds it.
type Payload = Arc<Vec<u128>>;

/// How many evenly spaced words of a payload key its
/// [`PayloadClasses`] bucket.
const PAYLOAD_SAMPLES: usize = 8;
type PayloadSample = [u128; PAYLOAD_SAMPLES];

/// Upload payloads grouped by content — what [`Cse`] and
/// [`TransferHoist`] merge duplicate uploads by.
///
/// Two payloads are one class exactly when they hold the same words.
/// Finding that out does not read them in full: a payload is filed under
/// its [`PayloadSample`], and only payloads filed
/// together are compared — by pointer first (the same shared payload
/// recorded twice), then word for word. Distinct operands all but never
/// agree on the sample, so a pass reads a few words per upload instead
/// of hashing every one; payloads that do agree on it are still told
/// apart by the full comparison. Only lookups touch the map, so the
/// classes do not depend on its iteration order.
#[derive(Default)]
pub(crate) struct PayloadClasses<'a> {
    buckets: HashMap<PayloadSample, Vec<(usize, &'a Payload)>>,
}

impl<'a> PayloadClasses<'a> {
    /// The class of the payload uploaded by node `i`: the index of the
    /// first node seen with equal contents (`i` itself when it is new).
    pub(crate) fn class(&mut self, i: usize, data: &'a Payload) -> usize {
        let sample: PayloadSample = std::array::from_fn(|k| {
            data.get(k * data.len() / PAYLOAD_SAMPLES).copied().unwrap_or_default()
        });
        let bucket = self.buckets.entry(sample).or_default();
        match bucket
            .iter()
            .find(|(_, seen)| Arc::ptr_eq(seen, data) || seen.as_slice() == data.as_slice())
        {
            Some(&(rep, _)) => rep,
            None => {
                bucket.push((i, data));
                i
            }
        }
    }
}

/// Per-node use counts (dependency fan-out plus output markings) — the
/// liveness view passes share.
pub(crate) fn use_counts(stream: &OpStream) -> Vec<usize> {
    let mut uses = vec![0usize; stream.len()];
    for node in stream.nodes() {
        for dep in node.deps().into_iter().flatten() {
            uses[dep.index()] += 1;
        }
    }
    for out in stream.outputs() {
        uses[out.index()] += 1;
    }
    uses
}

/// Which nodes are marked as outputs.
pub(crate) fn output_marks(stream: &OpStream) -> Vec<bool> {
    let mut marks = vec![false; stream.len()];
    for out in stream.outputs() {
        marks[out.index()] = true;
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, run, N};

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
        let t0 = st.hadamard(fa0, fb0).unwrap();
        let c0 = st.intt(t0).unwrap(); // fuses to HadamardIntt
        let x01 = st.hadamard(fa0, fb1).unwrap();
        let x10 = st.hadamard(fa1, fb0).unwrap();
        let mid = st.pointwise_add(x01, x10).unwrap(); // fuses to HadamardAdd
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
        let (opt, stats) = PassRunner::o1().optimize(&st).unwrap();
        assert_eq!(run(&opt), truth, "rewrites must be bit-exact");
        assert!(opt.len() < st.len(), "{} !< {}", opt.len(), st.len());
        assert!(stats.ops_eliminated > 0);
        assert!(stats.ops_fused > 0);
        assert!(stats.estimated_cycles_saved > 0);
        assert_eq!(stats.ops_in, st.len() as u64);
        assert_eq!(stats.ops_out, opt.len() as u64);
    }

    /// A 3-digit inline key switch. With `duplicates`, the three digits
    /// and the first base component all carry one polynomial: digit 1 is
    /// digit 0's very payload, digit 2 and the base equal copies of it.
    fn key_switchish(duplicates: bool) -> OpStream {
        use cofhee_core::{record_key_switch, KeySwitchKeys};
        let digit = |d: u128| Arc::new(poly(if duplicates { 10 } else { 10 + d }));
        let first = digit(0);
        let digits = [Arc::clone(&first), if duplicates { first } else { digit(1) }, digit(2)];
        let keys: Vec<_> =
            (0..3u128).map(|d| (Arc::new(poly(20 + d)), Arc::new(poly(30 + d)))).collect();
        let base = [poly(if duplicates { 10 } else { 1 }), poly(2)];
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&keys), base).unwrap();
        st
    }

    fn payloads(stream: &OpStream) -> Vec<&Arc<Vec<u128>>> {
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
        // The counters are the ones this pipeline produced while payloads
        // were hashed in full and deep-copied by every pass (the key-switch
        // rows less the six key transforms an inline key no longer records).
        let stats = |ops_in, ops_out, ops_eliminated, ops_fused, uploads_hoisted, saved| OptStats {
            ops_in,
            ops_out,
            ops_eliminated,
            ops_fused,
            uploads_hoisted,
            estimated_cycles_saved: saved,
        };
        for (st, expect, uploads_out) in [
            (tensorish(), stats(15, 10, 3, 2, 2, 192), 3),
            (key_switchish(false), stats(28, 24, 0, 4, 0, 0), 11),
            (key_switchish(true), stats(28, 19, 5, 4, 0, 336), 8),
        ] {
            let truth = run(&st);
            let (opt, got) = PassRunner::o1().optimize(&st).unwrap();
            assert_eq!(got, expect);
            assert_eq!(run(&opt), truth);
            let recorded = payloads(&st);
            let surviving = payloads(&opt);
            assert_eq!(surviving.len(), uploads_out);
            for data in surviving {
                assert!(
                    recorded.iter().any(|r| Arc::ptr_eq(r, data)),
                    "a surviving upload must share its payload with the recorded stream"
                );
            }
        }
    }

    #[test]
    fn payloads_that_agree_on_every_sampled_word_are_still_told_apart() {
        let a = poly(1);
        let mut b = a.clone();
        let unsampled = 1;
        assert!((0..PAYLOAD_SAMPLES).all(|k| k * N / PAYLOAD_SAMPLES != unsampled));
        b[unsampled] ^= 1;
        let mut st = OpStream::new(N);
        let ha = st.upload(a).unwrap();
        let hb = st.upload(b).unwrap();
        let diff = st.pointwise_sub(ha, hb).unwrap();
        st.output(diff).unwrap();
        let truth = run(&st);
        assert!(truth[0].iter().any(|&c| c != 0));
        let (opt, stats) = PassRunner::o1().optimize(&st).unwrap();
        assert_eq!(run(&opt), truth);
        assert_eq!(payloads(&opt).len(), 2, "distinct payloads must both survive");
        assert_eq!(stats.ops_eliminated + stats.uploads_hoisted, 0);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let st = tensorish();
        let runner = PassRunner::o1();
        let (a, sa) = runner.optimize(&st).unwrap();
        let (b, sb) = runner.optimize(&st).unwrap();
        assert_eq!(crate::testutil::shape(&a), crate::testutil::shape(&b));
        assert_eq!(sa, sb);
    }

    #[test]
    fn stats_merge_and_stamp() {
        let mut a = OptStats {
            ops_in: 10,
            ops_out: 7,
            ops_eliminated: 2,
            ops_fused: 1,
            uploads_hoisted: 1,
            estimated_cycles_saved: 100,
        };
        a.merge(&a.clone());
        assert_eq!(a.ops_in, 20);
        assert_eq!(a.ops_eliminated, 4);
        assert_eq!(a.estimated_cycles_saved, 200);
        let mut r = StreamReport::default();
        a.stamp(&mut r);
        assert_eq!(r.ops_eliminated, 4);
        assert_eq!(r.ops_fused, 2);
        assert_eq!(r.uploads_hoisted, 2);
    }

    #[test]
    fn traced_optimize_matches_untraced_and_records_each_pass() {
        let st = tensorish();
        let runner = PassRunner::o1();
        let (plain, plain_stats) = runner.optimize(&st).unwrap();
        let sink = cofhee_obs::MemorySink::shared();
        let shared: SharedSink = sink.clone();
        let (traced, traced_stats) = runner.optimize_traced(&st, &shared, 77).unwrap();
        assert_eq!(crate::testutil::shape(&plain), crate::testutil::shape(&traced));
        assert_eq!(plain_stats, traced_stats);
        let events = sink.events();
        assert_eq!(events.len(), runner.pass_names().len());
        for (ev, name) in events.iter().zip(runner.pass_names()) {
            assert_eq!(ev.track, Track::Compiler);
            assert_eq!(ev.name, name);
            assert_eq!(ev.kind.start(), 77);
            assert!(ev.args.iter().any(|&(k, _)| k == "ops_out"));
        }
    }

    #[test]
    fn runner_names_follow_order() {
        assert_eq!(PassRunner::o1().pass_names(), vec!["cse", "dce", "hoist", "fuse"]);
        assert!(PassRunner::for_level(OptLevel::O0).pass_names().is_empty());
    }
}
