//! The `OpStream` execution API: record, then submit once.
//!
//! One full host round trip per operation — upload operands, trigger,
//! download the result — is exactly the pattern the paper's architecture
//! is built to avoid: CoFHEE has a 32-deep command FIFO with a drain
//! interrupt (Section III-I, mode 2) and a DMA engine that moves
//! polynomials concurrently with PE compute (Section III-B), and FHE
//! workloads expose two more layers of latent parallelism on top: deep
//! per-ciphertext dependency chains that tolerate queueing, and
//! embarrassingly parallel CRT/RNS limbs. So a recorded stream is the
//! only way a [`PolyBackend`] computes.
//!
//! This module is the recording half of that design:
//!
//! * [`OpStream`] — a recorded, dependency-tracked command list. Each
//!   `record` call appends an [`StreamOp`] node and returns a
//!   [`StreamHandle`] naming its (future) result; operands are earlier
//!   handles, so the node list is a topologically ordered DAG by
//!   construction. Nothing executes at record time.
//! * [`PolyBackend::execute_stream`] — the execution half, one per
//!   backend: `CpuBackend` replays the nodes in record order on its
//!   Harvey plan, freeing by liveness (the replay lives beside its
//!   kernels in the `backend` module); `ChipBackend` schedules the whole
//!   stream through the simulated command FIFO in depth-sized batches
//!   with interrupt-driven drains and DMA-overlapped transfers (the
//!   `chip_stream` module).
//! * [`StreamExecutor`] — dispatch of *independent* streams (one per
//!   CRT computation prime, one per RNS tower) across OS threads, each
//!   on its own backend, through [`fan_out`] — the one function here
//!   that creates threads.
//!
//! Every execution path returns a [`StreamOutcome`]: the downloaded
//! output polynomials plus a [`StreamReport`] carrying both the
//! *serial* totals (what the same work costs one-command-at-a-time) and
//! the *overlapped* totals (what the batched, DMA-overlapped schedule
//! actually took) — the serial-vs-overlapped comparison is the whole
//! point of the design.
//!
//! # Example
//!
//! ```
//! use cofhee_core::{CpuBackend, OpStream, PolyBackend};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 6;
//! let q = cofhee_arith::primes::ntt_prime(60, n)?;
//! let mut be = CpuBackend::new(q, n)?;
//!
//! // Record: nothing executes yet.
//! let mut stream = OpStream::new(n);
//! let a = stream.upload(vec![3u128; n])?;
//! let b = stream.upload(vec![5u128; n])?;
//! let sum = stream.pointwise_add(a, b)?;
//! stream.output(sum)?;
//!
//! // Execute: one submit, outputs in marking order.
//! let outcome = be.execute_stream(&stream)?;
//! assert_eq!(outcome.outputs[0], vec![8u128; n]);
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::backend::{PolyBackend, PolyHandle};
use crate::error::{CoreError, Result};

/// Names the result of a recorded [`OpStream`] node.
///
/// Stream handles are positions in one stream's command list — the
/// recording-time analogue of the execution-time [`PolyHandle`]. Each
/// carries its issuing stream's tag (drawn from one process-global
/// counter), so presenting a handle to a stream that did not issue it
/// fails at record time with [`CoreError::BadHandle`] instead of
/// silently resolving to an unrelated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamHandle {
    /// Tag of the issuing stream.
    tag: u64,
    /// Node position within that stream.
    pub(crate) index: usize,
}

impl StreamHandle {
    /// The node position this handle names within its issuing stream —
    /// the index into [`OpStream::nodes`]. Stream rewriters
    /// (`cofhee_opt`'s `cse` and `dce`) key their node maps by it.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Process-global stream-tag allocator (see [`StreamHandle`]).
static NEXT_STREAM_TAG: AtomicU64 = AtomicU64::new(0);

/// The words a [`StreamOp::Upload`] writes, shared and never copied.
///
/// Most payloads are in hand when the upload is recorded. A *deferred*
/// one ([`Payload::deferred`]) is a slot of known length whose words a
/// host step computes later — after the stream has been recorded, placed
/// and priced, which read only the length. Running a stream whose
/// deferred payload is still empty fails with
/// [`CoreError::UnfilledUpload`] on every backend. Two payloads are equal
/// when they hold the same words; a deferred one is equal only to itself.
#[derive(Debug, Clone)]
pub struct Payload(Words);

#[derive(Debug, Clone)]
enum Words {
    Ready(Arc<Vec<u128>>),
    Deferred { len: usize, slot: Arc<OnceLock<Arc<Vec<u128>>>> },
}

impl Payload {
    /// A deferred payload of `len` words, and the one [`Filler`] that
    /// provides them.
    #[must_use]
    pub fn deferred(len: usize) -> (Self, Filler) {
        let slot = Arc::new(OnceLock::new());
        (Self(Words::Deferred { len, slot: Arc::clone(&slot) }), Filler { len, slot })
    }

    /// Number of words, filled or not.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Words::Ready(words) => words.len(),
            Words::Deferred { len, .. } => *len,
        }
    }

    /// The words.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnfilledUpload`] for a deferred payload not filled yet.
    pub fn words(&self) -> Result<&[u128]> {
        match &self.0 {
            Words::Ready(words) => Ok(words),
            Words::Deferred { slot, .. } => {
                slot.get().map(|words| words.as_slice()).ok_or(CoreError::UnfilledUpload)
            }
        }
    }

    /// Whether the words come from a [`Filler`].
    #[must_use]
    pub fn is_deferred(&self) -> bool {
        matches!(self.0, Words::Deferred { .. })
    }

    /// Whether both name one shared vector or one deferred slot.
    #[must_use]
    pub fn same(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Words::Ready(a), Words::Ready(b)) => Arc::ptr_eq(a, b),
            (Words::Deferred { slot: a, .. }, Words::Deferred { slot: b, .. }) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Words::Ready(a), Words::Ready(b)) => a == b,
            _ => self.same(other),
        }
    }
}

impl Eq for Payload {}

impl From<Arc<Vec<u128>>> for Payload {
    fn from(words: Arc<Vec<u128>>) -> Self {
        Self(Words::Ready(words))
    }
}

impl From<Vec<u128>> for Payload {
    fn from(words: Vec<u128>) -> Self {
        Self(Words::Ready(Arc::new(words)))
    }
}

/// The one right to fill a deferred [`Payload`]: consumed by the fill,
/// so a payload is filled at most once.
#[derive(Debug)]
pub struct Filler {
    len: usize,
    slot: Arc<OnceLock<Arc<Vec<u128>>>>,
}

impl Filler {
    /// Moves `words` into the payload — a vector the host step computed,
    /// or a [`Limb`](crate::Limb)'s shared words, which are not copied.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadOperandLength`] unless `words` has the payload's
    /// length; the payload then stays empty.
    pub fn fill(self, words: impl Into<Arc<Vec<u128>>>) -> Result<()> {
        let words = words.into();
        if words.len() != self.len {
            return Err(CoreError::BadOperandLength { expected: self.len, found: words.len() });
        }
        // The filler is the slot's only writer and is consumed here, so
        // the slot is still empty.
        let _ = self.slot.set(words);
        Ok(())
    }
}

/// One recorded operation node.
///
/// Operand handles always point at earlier nodes, so a stream's node
/// list is a dependency-complete topological order — executors may
/// replay it front to back, or schedule it more aggressively as long as
/// every operand is produced before use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamOp {
    /// Host data entering the stream (reduced mod `q` on ingest, like
    /// [`PolyBackend::upload`]). The payload is shared, never copied:
    /// recording moves the caller's vector behind the pointer, the
    /// stream compiler's rewrites and clones of the stream clone the
    /// pointer, and executors read through it. One payload may enter
    /// any number of streams ([`OpStream::upload_shared`]), and may be
    /// deferred: filled after the stream was recorded.
    Upload(Payload),
    /// A polynomial already resident on the executing backend. The
    /// handle is borrowed: stream execution never frees it.
    Input(PolyHandle),
    /// Forward negacyclic NTT.
    Ntt(StreamHandle),
    /// Inverse negacyclic NTT.
    Intt(StreamHandle),
    /// Hadamard (pointwise) product.
    Hadamard(StreamHandle, StreamHandle),
    /// Fused `intt ∘ hadamard`: NTT-domain product returned in the
    /// coefficient domain (the tail of every tensor limb). Host
    /// notation the builders record themselves: the CPU replay runs it
    /// as one kernel, the chip expands it to PMODMUL + iNTT of Table I.
    HadamardIntt(StreamHandle, StreamHandle),
    /// Fused multiply-accumulate `acc + x ⊙ y`, all in the NTT domain —
    /// the middle term of the Eq. 4 tensor (`a0⊙b1 + a1⊙b0`) and every
    /// key-switch accumulate as one node; PMODMUL + PMODADD on the
    /// chip. Operand order: `(x, y, acc)`.
    HadamardAdd(StreamHandle, StreamHandle, StreamHandle),
    /// Pointwise addition.
    PointwiseAdd(StreamHandle, StreamHandle),
    /// Pointwise subtraction.
    PointwiseSub(StreamHandle, StreamHandle),
    /// Constant multiplication.
    ScalarMul(StreamHandle, u128),
}

impl StreamOp {
    /// The operand handles this node depends on.
    pub fn deps(&self) -> [Option<StreamHandle>; 3] {
        match *self {
            StreamOp::Upload(_) | StreamOp::Input(_) => [None, None, None],
            StreamOp::Ntt(a) | StreamOp::Intt(a) | StreamOp::ScalarMul(a, _) => {
                [Some(a), None, None]
            }
            StreamOp::Hadamard(a, b)
            | StreamOp::HadamardIntt(a, b)
            | StreamOp::PointwiseAdd(a, b)
            | StreamOp::PointwiseSub(a, b) => [Some(a), Some(b), None],
            StreamOp::HadamardAdd(a, b, acc) => [Some(a), Some(b), Some(acc)],
        }
    }
}

/// A recorded, dependency-tracked batch of polynomial operations.
///
/// Record with the `upload`/`ntt`/`hadamard`/... methods (one per
/// [`StreamOp`] kind), mark results to fetch with
/// [`OpStream::output`], then execute the whole batch in one submit via
/// [`PolyBackend::execute_stream`] or [`StreamExecutor`].
#[derive(Debug, Clone)]
pub struct OpStream {
    tag: u64,
    n: usize,
    nodes: Vec<StreamOp>,
    outputs: Vec<StreamHandle>,
}

impl OpStream {
    /// An empty stream over degree-`n` polynomials.
    pub fn new(n: usize) -> Self {
        Self {
            tag: NEXT_STREAM_TAG.fetch_add(1, Ordering::Relaxed),
            n,
            nodes: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The polynomial degree every node operates at.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The recorded node list, in dependency (record) order.
    pub fn nodes(&self) -> &[StreamOp] {
        &self.nodes
    }

    /// The handles marked for download, in marking order — the order of
    /// [`StreamOutcome::outputs`].
    pub fn outputs(&self) -> &[StreamHandle] {
        &self.outputs
    }

    fn check(&self, h: StreamHandle) -> Result<()> {
        if h.tag != self.tag || h.index >= self.nodes.len() {
            return Err(CoreError::BadHandle { id: h.index as u64 });
        }
        Ok(())
    }

    fn push(&mut self, op: StreamOp) -> StreamHandle {
        let h = StreamHandle { tag: self.tag, index: self.nodes.len() };
        self.nodes.push(op);
        h
    }

    /// Records a host upload (data is reduced mod `q` at execution).
    /// Takes ownership — operands built for the stream (CRT lifts,
    /// digit decompositions) move behind the payload pointer without
    /// being copied, at record time or ever after.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadOperandLength`] if `coeffs.len() != n`.
    pub fn upload(&mut self, coeffs: Vec<u128>) -> Result<StreamHandle> {
        self.upload_shared(coeffs)
    }

    /// Records a host upload of an already shared payload — one vector
    /// entering several streams (the digits of a key switch, once per
    /// RNS limb) or re-emitted by a stream rewrite costs a pointer
    /// clone each time — or of a deferred one, filled later.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadOperandLength`] if the payload does not
    /// hold `n` words.
    pub fn upload_shared(&mut self, coeffs: impl Into<Payload>) -> Result<StreamHandle> {
        let coeffs = coeffs.into();
        if coeffs.len() != self.n {
            return Err(CoreError::BadOperandLength { expected: self.n, found: coeffs.len() });
        }
        Ok(self.push(StreamOp::Upload(coeffs)))
    }

    /// Records a backend-resident polynomial as a stream input. The
    /// handle must belong to the backend the stream will execute on; it
    /// is borrowed, never freed by stream execution.
    pub fn input(&mut self, h: PolyHandle) -> StreamHandle {
        self.push(StreamOp::Input(h))
    }

    /// Records a forward NTT.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn ntt(&mut self, src: StreamHandle) -> Result<StreamHandle> {
        self.check(src)?;
        Ok(self.push(StreamOp::Ntt(src)))
    }

    /// Records an inverse NTT.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn intt(&mut self, src: StreamHandle) -> Result<StreamHandle> {
        self.check(src)?;
        Ok(self.push(StreamOp::Intt(src)))
    }

    /// Records a Hadamard product.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn hadamard(&mut self, x: StreamHandle, y: StreamHandle) -> Result<StreamHandle> {
        self.check(x)?;
        self.check(y)?;
        Ok(self.push(StreamOp::Hadamard(x, y)))
    }

    /// Records a fused `intt ∘ hadamard` (NTT-domain product brought
    /// back to the coefficient domain in one node).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn hadamard_intt(&mut self, x: StreamHandle, y: StreamHandle) -> Result<StreamHandle> {
        self.check(x)?;
        self.check(y)?;
        Ok(self.push(StreamOp::HadamardIntt(x, y)))
    }

    /// Records a fused NTT-domain multiply-accumulate `acc + x ⊙ y`
    /// (the tensor middle term `a0⊙b1 + a1⊙b0` as one node).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn hadamard_add(
        &mut self,
        x: StreamHandle,
        y: StreamHandle,
        acc: StreamHandle,
    ) -> Result<StreamHandle> {
        self.check(x)?;
        self.check(y)?;
        self.check(acc)?;
        Ok(self.push(StreamOp::HadamardAdd(x, y, acc)))
    }

    /// Records a pointwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn pointwise_add(&mut self, x: StreamHandle, y: StreamHandle) -> Result<StreamHandle> {
        self.check(x)?;
        self.check(y)?;
        Ok(self.push(StreamOp::PointwiseAdd(x, y)))
    }

    /// Records a pointwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn pointwise_sub(&mut self, x: StreamHandle, y: StreamHandle) -> Result<StreamHandle> {
        self.check(x)?;
        self.check(y)?;
        Ok(self.push(StreamOp::PointwiseSub(x, y)))
    }

    /// Records a constant multiplication (`c` reduced mod `q`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn scalar_mul(&mut self, x: StreamHandle, c: u128) -> Result<StreamHandle> {
        self.check(x)?;
        Ok(self.push(StreamOp::ScalarMul(x, c)))
    }

    /// Marks a node's result for download; execution returns marked
    /// results in marking order. Returns the output's index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign handles.
    pub fn output(&mut self, h: StreamHandle) -> Result<usize> {
        self.check(h)?;
        self.outputs.push(h);
        Ok(self.outputs.len() - 1)
    }

    /// Per-node remaining-use counts (dependency fan-out plus output
    /// markings) — the liveness information schedulers free slots by.
    pub(crate) fn use_counts(&self) -> Vec<usize> {
        let mut uses = vec![0usize; self.nodes.len()];
        for node in &self.nodes {
            for dep in node.deps().into_iter().flatten() {
                uses[dep.index] += 1;
            }
        }
        for out in &self.outputs {
            uses[out.index] += 1;
        }
        uses
    }
}

/// Execution telemetry for one stream submit: the serial-vs-overlapped
/// comparison the asynchronous API exists to expose.
///
/// *Serial* totals price the recorded work executed one command at a
/// time with no engine concurrency (the mode-1 path);
/// *overlapped* totals are what the batched schedule actually took,
/// with DMA transfers hidden behind PE compute and the host link
/// streaming the next batch while the chip drains the current one.
/// On backends with no modeled timing (the CPU reference) all four are
/// zero or equal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamReport {
    /// Backend commands issued (chip: FIFO commands, DMA included).
    pub commands: u64,
    /// FIFO-drain batches the stream was split into (1 on the CPU
    /// replay).
    pub batches: u64,
    /// Drain interrupts observed while executing.
    pub interrupts: u64,
    /// Cycles for the command list executed back-to-back, no overlap.
    pub serial_cycles: u64,
    /// Wall-clock cycles with FIFO batching and DMA/compute overlap.
    pub overlapped_cycles: u64,
    /// End-to-end seconds for the serial schedule: every transfer and
    /// command paid sequentially.
    pub serial_seconds: f64,
    /// End-to-end seconds with the link pipelined against compute.
    pub overlapped_seconds: f64,
    /// Bytes moved host → backend (uploads and command words).
    pub uploaded_bytes: u64,
    /// Bytes moved backend → host (output downloads).
    pub downloaded_bytes: u64,
    /// Nodes removed by the stream compiler (dead-op elimination and
    /// common-subexpression / NTT-form dedup). Zero on unoptimized
    /// submits; stamped by `cofhee_opt::optimize`.
    pub ops_eliminated: u64,
    /// Always 0: builders record the fused nodes themselves. Kept only
    /// because `bench/e2e` reads the field; the next `benchmark` PR
    /// drops its `opt.ops_fused` catalog row and this field together.
    pub ops_fused: u64,
}

impl StreamReport {
    /// Merges another report into this one as *sequential* composition
    /// — every field sums. For submits that ran concurrently, sum the
    /// additive fields but take the max of the `overlapped_*` fields
    /// instead (as the BFV evaluator does for its parallel CRT limbs):
    /// a concurrent group's wall clock is its slowest member.
    ///
    /// Cycle and byte sums saturate: a farm-scale ledger absorbing
    /// millions of submits (latency × count products) pins at
    /// `u64::MAX` instead of wrapping into a silently small total.
    pub fn absorb(&mut self, other: &StreamReport) {
        self.commands = self.commands.saturating_add(other.commands);
        self.batches = self.batches.saturating_add(other.batches);
        self.interrupts = self.interrupts.saturating_add(other.interrupts);
        self.serial_cycles = self.serial_cycles.saturating_add(other.serial_cycles);
        self.overlapped_cycles = self.overlapped_cycles.saturating_add(other.overlapped_cycles);
        self.serial_seconds += other.serial_seconds;
        self.overlapped_seconds += other.overlapped_seconds;
        self.uploaded_bytes = self.uploaded_bytes.saturating_add(other.uploaded_bytes);
        self.downloaded_bytes = self.downloaded_bytes.saturating_add(other.downloaded_bytes);
        self.ops_eliminated = self.ops_eliminated.saturating_add(other.ops_eliminated);
        self.ops_fused = self.ops_fused.saturating_add(other.ops_fused);
    }
}

/// What one executed stream hands back: the downloaded outputs (in
/// [`OpStream::output`] marking order) and the execution telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Downloaded output polynomials, canonical residues in `[0, q)`.
    pub outputs: Vec<Vec<u128>>,
    /// Serial-vs-overlapped execution telemetry.
    pub report: StreamReport,
}

/// One unit of parallel stream work: a stream and the backend to run it
/// on. Jobs are independent by construction (each owns exclusive access
/// to its backend for the duration), which is what makes the per-limb
/// fan-out of [`StreamExecutor::run_parallel`] safe.
#[derive(Debug)]
pub struct StreamJob<'a> {
    /// Exclusive access to the executing backend.
    pub backend: &'a mut dyn PolyBackend,
    /// The recorded stream to execute.
    pub stream: &'a OpStream,
}

/// Host cores this process may run on — the one input every parallel
/// split is sized by (`LimbEngine::run`'s lanes, the chunk count of the
/// BFV host CRT). Read once: the query opens files on Linux.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Runs `run` on every task, one scoped thread each with the calling
/// thread taking the first; a task keeps its result in its own slot, so
/// results are in task order. A one-task list runs inline — nothing is
/// spawned and nothing allocated.
///
/// The one function in this workspace's library code that creates
/// threads. Its callers choose what a task is: a limb's whole stream, a
/// share of Fig. 6's CPU towers (its thread sweep), one transform
/// or multiply node of a stream that runs alone (the CPU replay's wave),
/// a coefficient chunk of the BFV host CRT, or one host core's share of
/// a farm flush's wave (`cofhee_farm::ChipFarm::flush`: each task takes
/// whole die backends, costliest first, until none is left). No worker
/// pool: three limbs time-sliced on two cores finish in 1.5 limb-times,
/// two pinned workers would need 2.
///
/// # Panics
///
/// Panics when a task panicked, after every task has finished.
pub fn fan_out<T: Send>(tasks: &mut [T], run: impl Fn(&mut T) + Sync) {
    let Some((first, rest)) = tasks.split_first_mut() else { return };
    if rest.is_empty() {
        return run(first);
    }
    let run = &run;
    std::thread::scope(|scope| {
        for task in rest {
            scope.spawn(move || run(task));
        }
        run(first);
    });
}

/// Dispatches independent recorded streams onto their backends, fanned
/// out across OS threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamExecutor;

impl StreamExecutor {
    /// Executes independent streams concurrently through [`fan_out`], one
    /// task per job — the CRT-limb fan-out of a multi-modulus consumer
    /// (each computation prime gets its own backend and its own stream,
    /// so the limbs never contend). Outcomes come back in job order.
    ///
    /// # Errors
    ///
    /// Returns the first (job-order) failure after all jobs have
    /// finished; panics in a worker propagate.
    pub fn run_parallel(jobs: Vec<StreamJob<'_>>) -> Result<Vec<StreamOutcome>> {
        let mut tasks: Vec<_> = jobs.into_iter().map(|job| (job, None)).collect();
        fan_out(&mut tasks, |(job, outcome)| {
            *outcome = Some(job.backend.execute_stream(job.stream));
        });
        tasks.into_iter().map(|(_, outcome)| outcome.expect("fan_out ran every task")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::{ntt_form, read_back};
    use crate::backend::{ChipBackend, CpuBackend};
    use crate::OpReport;
    use cofhee_arith::primes::ntt_prime;
    use cofhee_sim::ChipConfig;

    const N: usize = 1 << 6;

    fn q() -> u128 {
        ntt_prime(60, N).unwrap()
    }

    fn poly(seed: u128) -> Vec<u128> {
        let q = q();
        let mut state = seed | 1;
        (0..N)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(11);
                state % q
            })
            .collect()
    }

    /// The recorded tensor-style dataflow used across these tests.
    fn sample_stream() -> OpStream {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let b = st.upload(poly(2)).unwrap();
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let prod = st.hadamard(fa, fb).unwrap();
        let back = st.intt(prod).unwrap();
        let sum = st.pointwise_add(a, b).unwrap();
        let scaled = st.scalar_mul(sum, 7).unwrap();
        let pm = st.hadamard_intt(fa, fb).unwrap();
        for h in [back, scaled, pm] {
            st.output(h).unwrap();
        }
        st
    }

    #[test]
    fn recording_validates_handles_and_lengths() {
        let mut st = OpStream::new(N);
        assert!(matches!(
            st.upload(vec![1, 2, 3]),
            Err(CoreError::BadOperandLength { expected: N, found: 3 })
        ));
        // Handles from another stream are foreign even when in range.
        let mut other = OpStream::new(N);
        let foreign = other.upload(poly(9)).unwrap();
        assert!(matches!(st.ntt(foreign), Err(CoreError::BadHandle { .. })));
        assert!(matches!(st.output(foreign), Err(CoreError::BadHandle { .. })));
        let a = st.upload(poly(1)).unwrap();
        assert!(st.ntt(a).is_ok());
        assert_eq!(st.len(), 2);
        assert!(!st.is_empty());
    }

    #[test]
    fn use_counts_track_fanout_and_outputs() {
        let st = sample_stream();
        let uses = st.use_counts();
        // Uploads a and b each feed an NTT and the pointwise add; each
        // transform feeds the Hadamard and the fused product.
        assert_eq!((uses[0], uses[1]), (2, 2));
        assert_eq!((uses[2], uses[3]), (2, 2));
        // Outputs carry a use even with no consumers.
        let pm = st.outputs()[2];
        assert_eq!(uses[pm.index], 1);
    }

    #[test]
    fn replay_does_not_leak_pool_entries() {
        let mut be = CpuBackend::new(q(), N).unwrap();
        let before = be.buffers_out();
        let _ = be.execute_stream(&sample_stream()).unwrap();
        assert_eq!(be.buffers_out(), before, "all stream temporaries are freed");
    }

    /// Buffers a stream holds at once: on a fresh backend a pool miss
    /// means every buffer made so far is live, so the misses of one run
    /// are its peak live set — and, all of them parked afterwards, the
    /// pool's high-water.
    fn live_set(be: &mut CpuBackend, stream: &OpStream) -> u64 {
        let before = be.pool_stats();
        assert_eq!((before.misses, before.resident), (0, 0), "a fresh backend");
        be.execute_stream(stream).unwrap();
        let after = be.pool_stats();
        assert_eq!(after.hits + after.misses, after.recycled, "each buffer went back once");
        assert_eq!(after.high_water, after.misses);
        after.misses
    }

    #[test]
    fn a_key_switch_holds_its_live_set_not_its_node_count() {
        use crate::keyswitch::{record_key_switch, KeySwitchKeys};
        const DIGITS: usize = 7;
        let mut be = CpuBackend::new(q(), N).unwrap();
        // The key resident in NTT form, as the evaluators hold it.
        let mut form = |seed: u128| ntt_form(&mut be, &poly(seed));
        let keys: Vec<_> =
            (0..DIGITS as u128).map(|d| (form(100 + 2 * d), form(101 + 2 * d))).collect();
        let digits: Vec<_> = (0..DIGITS as u128).map(|d| Arc::new(poly(10 + d))).collect();
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Resident(&keys), [poly(1), poly(2)])
            .unwrap();
        let owned = st.nodes().iter().filter(|op| !matches!(op, StreamOp::Input(_))).count();
        assert_eq!((st.len(), owned), (48, 34), "one buffer per owned node, held to the end");

        // Same telemetry as holding everything to the end gave…
        be.reset_telemetry();
        let warm = be.pool_stats();
        assert_eq!(warm.hits + warm.misses - warm.recycled, 2 * DIGITS as u64, "the key");
        let outcome = be.execute_stream(&st).unwrap();
        let transform = (N as u64 / 2) * u64::from(N.trailing_zeros());
        let (n, d) = (N as u64, DIGITS as u64);
        assert_eq!(
            be.report(),
            OpReport {
                butterflies: (d + 2) * transform,
                mults: (2 * d + 2) * n,
                addsubs: (2 * (d - 1) + 2) * n,
                ..OpReport::default()
            }
        );
        assert_eq!(
            outcome.report,
            StreamReport { commands: 50, batches: 1, ..StreamReport::default() }
        );
        // …from 4 buffers where 34 were held: a digit's transform, both
        // accumulators and the multiply-accumulate about to replace one.
        let after = be.pool_stats();
        assert_eq!(after.hits + after.misses - warm.hits - warm.misses, 34, "a take per node");
        assert_eq!(after.high_water, 4, "all parked again, and never more than that");
        assert_eq!(be.buffers_out(), 2 * DIGITS as u64, "only the key stays");
        // The outputs are the inline recording's on a backend of its own.
        let mut stored = |h| crate::Limb::new(q(), read_back(&mut be, h).unwrap()).unwrap();
        let inline: Vec<_> = keys.iter().map(|&(k0, k1)| (stored(k0), stored(k1))).collect();
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&inline), [poly(1), poly(2)])
            .unwrap();
        let mut other = CpuBackend::new(q(), N).unwrap();
        assert_eq!(other.execute_stream(&st).unwrap().outputs, outcome.outputs);
    }

    #[test]
    fn an_output_that_is_also_a_later_operand_survives_to_the_download() {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let fa = st.ntt(a).unwrap();
        st.output(fa).unwrap(); // marked before its consumers run
        let sq = st.hadamard_intt(fa, fa).unwrap();
        let twice = st.pointwise_add(sq, sq).unwrap();
        st.output(twice).unwrap();
        st.output(fa).unwrap(); // and marked twice
        let mut be = CpuBackend::new(q(), N).unwrap();
        let outcome = be.execute_stream(&st).unwrap();
        let resident = ntt_form(&mut be, &poly(1));
        assert_eq!(outcome.outputs[0], read_back(&mut be, resident).unwrap());
        assert_eq!(outcome.outputs[2], outcome.outputs[0]);
        assert_eq!(be.buffers_out(), 1, "only the comparison copy");
    }

    #[test]
    fn operands_go_back_after_their_last_consumer_and_only_once() {
        // `hadamard_intt(f, f)` names `f` twice and frees it once; `_dead`
        // is read by nothing and goes back before the next node runs.
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let f = st.ntt(a).unwrap();
        let _dead = st.scalar_mul(f, 3).unwrap();
        let sq = st.hadamard_intt(f, f).unwrap();
        let x = st.scalar_mul(sq, 5).unwrap();
        let y = st.scalar_mul(x, 7).unwrap();
        st.output(y).unwrap();
        // Never more than an operand and its result: 2 buffers for 6
        // owned nodes.
        assert_eq!(live_set(&mut CpuBackend::new(q(), N).unwrap(), &st), 2);
        // The tensor-shaped sample stream: 9 owned nodes, 6 at once.
        assert_eq!(live_set(&mut CpuBackend::new(q(), N).unwrap(), &sample_stream()), 6);
    }

    #[test]
    fn a_stream_failing_mid_way_leaves_the_pool_where_it_started() {
        let mut be = CpuBackend::new(q(), N).unwrap();
        let resident = be.upload(&poly(3)).unwrap();
        let gone = be.upload(&poly(4)).unwrap();
        be.free(gone);
        let before = be.buffers_out();
        // Fails at node 5 (a freed input) with an output and a live
        // operand in flight.
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let fa = st.ntt(a).unwrap();
        st.output(fa).unwrap();
        let r = st.input(resident);
        let prod = st.hadamard(fa, r).unwrap();
        let bad = st.input(gone);
        let sum = st.hadamard_add(fa, bad, prod).unwrap();
        st.output(sum).unwrap();
        assert!(matches!(be.execute_stream(&st), Err(CoreError::BadHandle { .. })));
        assert_eq!((before, be.buffers_out()), (1, 1), "only the resident input is out");
        assert_eq!(read_back(&mut be, resident).unwrap(), poly(3), "which is still valid");
    }

    #[test]
    fn a_wave_fails_like_the_in_order_replay_and_gives_its_buffers_back() {
        let mut be = CpuBackend::new(q(), N).unwrap();
        let [first, second] = [5, 6].map(|seed| {
            let h = be.upload(&poly(seed)).unwrap();
            be.free(h);
            h
        });
        // `prod` waits for the transform in the wave while the add behind
        // it is ready and would run ahead: the failure reported is still
        // the first in record order, with the wave's buffer taken.
        let mut st = OpStream::new(N);
        let a = st.upload(poly(1)).unwrap();
        let fa = st.ntt(a).unwrap();
        let gone = st.input(first);
        let prod = st.hadamard(fa, gone).unwrap();
        let also_gone = st.input(second);
        let sum = st.pointwise_add(a, also_gone).unwrap();
        st.output(prod).unwrap();
        st.output(sum).unwrap();
        for lanes in [1, 2, 3, 8] {
            let err = be.execute_stream_lanes(&st, lanes).unwrap_err();
            assert!(
                matches!(err, CoreError::BadHandle { id } if id == first.id()),
                "{lanes} lanes: {err}"
            );
            assert_eq!(be.buffers_out(), 0, "{lanes} lanes left a buffer out");
        }
    }

    #[test]
    fn fan_out_runs_every_task_in_its_own_slot() {
        let caller = std::thread::current().id();
        for count in [0usize, 1, 2, 5] {
            let mut tasks: Vec<(usize, Option<std::thread::ThreadId>)> =
                (0..count).map(|i| (i, None)).collect();
            fan_out(&mut tasks, |(i, ran_on)| {
                *i *= 10;
                *ran_on = Some(std::thread::current().id());
            });
            for (k, (i, ran_on)) in tasks.iter().enumerate() {
                assert_eq!(*i, 10 * k, "results stay in task order");
                // The calling thread takes the first task — so a one-task
                // list spawns nothing — and only the first.
                assert_eq!(*ran_on == Some(caller), k == 0, "task {k} of {count}");
            }
        }
    }

    #[test]
    fn input_nodes_borrow_resident_polynomials() {
        let mut be = CpuBackend::new(q(), N).unwrap();
        let resident = be.upload(&poly(3)).unwrap();
        let mut st = OpStream::new(N);
        let a = st.input(resident);
        let doubled = st.pointwise_add(a, a).unwrap();
        st.output(doubled).unwrap();
        let outcome = be.execute_stream(&st).unwrap();
        let expect: Vec<u128> = poly(3).iter().map(|&c| (2 * c) % q()).collect();
        assert_eq!(outcome.outputs[0], expect);
        // The resident handle survives stream execution.
        assert_eq!(read_back(&mut be, resident).unwrap(), poly(3));
    }

    #[test]
    fn degree_mismatch_is_rejected() {
        let mut be = CpuBackend::new(ntt_prime(60, 2 * N).unwrap(), 2 * N).unwrap();
        assert!(matches!(
            be.execute_stream(&sample_stream()),
            Err(CoreError::DegreeMismatch { .. })
        ));
    }

    #[test]
    fn executor_fans_limbs_out_across_threads() {
        // Three "limbs" with distinct primes, one backend + stream each.
        let primes: Vec<u128> =
            [59, 60, 61].iter().map(|&bits| ntt_prime(bits, N).unwrap()).collect();
        let mut backends: Vec<CpuBackend> =
            primes.iter().map(|&p| CpuBackend::new(p, N).unwrap()).collect();
        let streams: Vec<OpStream> = primes
            .iter()
            .map(|_| {
                let mut st = OpStream::new(N);
                let a = st.upload(poly(4)).unwrap();
                let b = st.upload(poly(5)).unwrap();
                let (fa, fb) = (st.ntt(a).unwrap(), st.ntt(b).unwrap());
                let pm = st.hadamard_intt(fa, fb).unwrap();
                st.output(pm).unwrap();
                st
            })
            .collect();
        let jobs: Vec<StreamJob<'_>> = backends
            .iter_mut()
            .zip(&streams)
            .map(|(be, stream)| StreamJob { backend: be, stream })
            .collect();
        let outcomes = StreamExecutor::run_parallel(jobs).unwrap();
        assert_eq!(outcomes.len(), 3);
        // Each limb must match its own serial execution.
        for (i, &p) in primes.iter().enumerate() {
            let mut reference = CpuBackend::new(p, N).unwrap();
            let expect = reference.execute_stream(&streams[i]).unwrap();
            assert_eq!(outcomes[i].outputs, expect.outputs, "limb {i}");
        }
    }

    #[test]
    fn a_deferred_upload_runs_once_filled_and_is_a_typed_error_before() {
        use crate::DieProgram;
        let deferred_stream = |payload: Payload| {
            let mut st = OpStream::new(N);
            let a = st.upload_shared(payload).unwrap();
            let b = st.upload(poly(2)).unwrap();
            let (fa, fb) = (st.ntt(a).unwrap(), st.ntt(b).unwrap());
            let p = st.hadamard_intt(fa, fb).unwrap();
            st.output(p).unwrap();
            st
        };
        let (payload, filler) = Payload::deferred(N);
        let st = deferred_stream(payload);
        let mut cpu = CpuBackend::new(q(), N).unwrap();
        assert!(matches!(cpu.execute_stream(&st), Err(CoreError::UnfilledUpload)));
        assert_eq!(cpu.buffers_out(), 0, "the failed replay gave its buffers back");
        // The chip prices it from the length alone, and refuses to apply.
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q(), N).unwrap();
        let mut program = DieProgram::default();
        let priced = chip.price(&st, &mut program).unwrap();
        let mut outputs = vec![Vec::new()];
        let unfilled = chip.apply(&st, &program, &mut outputs);
        assert!(matches!(unfilled, Err(CoreError::UnfilledUpload)));

        filler.fill(poly(1)).unwrap();
        chip.apply(&st, &program, &mut outputs).unwrap();
        let eager = deferred_stream(Payload::from(poly(1)));
        let mut fresh = ChipBackend::connect(ChipConfig::silicon(), q(), N).unwrap();
        let reference = fresh.execute_stream(&eager).unwrap();
        assert_eq!(priced, reference.report, "the price does not depend on the words");
        assert_eq!(outputs, reference.outputs);
        assert_eq!(cpu.execute_stream(&st).unwrap().outputs, reference.outputs);

        // A fill of the wrong length is refused and leaves the payload empty.
        let (payload, filler) = Payload::deferred(N);
        assert!(matches!(
            filler.fill(vec![0; N - 1]),
            Err(CoreError::BadOperandLength { expected: N, found }) if found == N - 1
        ));
        assert!(matches!(payload.words(), Err(CoreError::UnfilledUpload)));
        assert_eq!((payload.len(), payload.is_deferred()), (N, true));
    }

    #[test]
    fn chip_and_cpu_streams_agree() {
        let q = q();
        let st = sample_stream();
        let mut cpu = CpuBackend::new(q, N).unwrap();
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let on_cpu = cpu.execute_stream(&st).unwrap();
        let on_chip = chip.execute_stream(&st).unwrap();
        assert_eq!(on_cpu.outputs, on_chip.outputs, "stream values are backend-independent");
    }

    #[test]
    fn hadamard_add_composes_product_and_accumulate() {
        let q = q();
        let mut st = OpStream::new(N);
        let a = st.upload(poly(11)).unwrap();
        let b = st.upload(poly(12)).unwrap();
        let acc = st.upload(poly(13)).unwrap();
        let fa = st.ntt(a).unwrap();
        let fb = st.ntt(b).unwrap();
        let facc = st.ntt(acc).unwrap();
        let fused = st.hadamard_add(fa, fb, facc).unwrap();
        let back = st.intt(fused).unwrap();
        st.output(back).unwrap();

        // Unfused reference: hadamard then pointwise_add.
        let mut reference = OpStream::new(N);
        let a2 = reference.upload(poly(11)).unwrap();
        let b2 = reference.upload(poly(12)).unwrap();
        let acc2 = reference.upload(poly(13)).unwrap();
        let fa2 = reference.ntt(a2).unwrap();
        let fb2 = reference.ntt(b2).unwrap();
        let facc2 = reference.ntt(acc2).unwrap();
        let prod = reference.hadamard(fa2, fb2).unwrap();
        let sum = reference.pointwise_add(prod, facc2).unwrap();
        let back2 = reference.intt(sum).unwrap();
        reference.output(back2).unwrap();

        let mut cpu = CpuBackend::new(q, N).unwrap();
        let fused_cpu = cpu.execute_stream(&st).unwrap();
        let mut cpu2 = CpuBackend::new(q, N).unwrap();
        let unfused_cpu = cpu2.execute_stream(&reference).unwrap();
        assert_eq!(fused_cpu.outputs, unfused_cpu.outputs);
        assert_eq!(cpu.buffers_out(), 0, "the fused temporary is freed");

        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let fused_chip = chip.execute_stream(&st).unwrap();
        assert_eq!(fused_chip.outputs, fused_cpu.outputs);
        // The chip issues the same PMODMUL + PMODADD as the unfused
        // recording: fusion never costs cycles.
        let mut chip2 = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
        let unfused_chip = chip2.execute_stream(&reference).unwrap();
        assert_eq!(fused_chip.report.serial_cycles, unfused_chip.report.serial_cycles);
    }

    #[test]
    fn report_absorb_sums_every_field() {
        let mut a = StreamReport {
            commands: 1,
            batches: 1,
            interrupts: 1,
            serial_cycles: 10,
            overlapped_cycles: 7,
            serial_seconds: 1.0,
            overlapped_seconds: 0.5,
            uploaded_bytes: 64,
            downloaded_bytes: 32,
            ops_eliminated: 3,
            ..StreamReport::default()
        };
        a.absorb(&a.clone());
        assert_eq!(a.commands, 2);
        assert_eq!(a.serial_cycles, 20);
        assert_eq!(a.overlapped_cycles, 14);
        assert!((a.serial_seconds - 2.0).abs() < 1e-12);
        assert_eq!(a.uploaded_bytes, 128);
        assert_eq!(a.ops_eliminated, 6);
    }

    #[test]
    fn report_absorb_saturates_instead_of_wrapping() {
        // A farm replaying millions of jobs can push latency × count
        // products past u64 — the ledger must pin, not wrap.
        let mut a = StreamReport { serial_cycles: u64::MAX - 5, ..StreamReport::default() };
        a.absorb(&StreamReport { serial_cycles: 100, ..StreamReport::default() });
        assert_eq!(a.serial_cycles, u64::MAX);
    }
}
