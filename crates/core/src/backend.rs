//! The polynomial-backend execution API: a store and one executor.
//!
//! The paper's whole architecture is a division of labor: CoFHEE
//! accelerates the *mod-q polynomial operations* (NTT/iNTT, Hadamard,
//! pointwise add/sub, constant multiplication — Table I), while the host
//! keeps the high-level BFV primitives that need arbitrary-precision
//! arithmetic (the Eq. 4 `t/q` rounding via base extension, and key
//! switching, which Section III-C defers to software). The offloadable
//! op set is the [`StreamOp`] vocabulary; a [`PolyBackend`] is what runs
//! it — a polynomial store (`upload` / `free`), one executor
//! ([`PolyBackend::execute_stream`], the preloaded command FIFO of
//! Section III-I: per-command triggering is "slow as there are delays
//! imposed by the communication interface") and telemetry — behind one
//! object-safe trait, so "same computation, N execution targets" becomes
//! a constructor argument:
//!
//! * [`CpuBackend`] — replays a stream on the shared `cofhee_poly`
//!   Harvey plans (Barrett64 for word-sized moduli, Barrett128 for the
//!   chip's native width), the engine width chosen once per stream.
//!   Zero-cost reference semantics: no simulated cycles, no wire
//!   traffic; the telemetry [`OpReport`] still counts butterflies /
//!   multiplies / add-subs so op accounting stays backend-independent.
//! * [`ChipBackend`] — wraps a [`Device`] (the simulated ASIC behind a
//!   [`Link`]). A stream is scheduled through the 32-deep command FIFO
//!   and executed cycle-accurately (see the `chip_stream` module);
//!   transfer traffic accrues to [`CommStats`] and command latencies
//!   accumulate in the cumulative [`OpReport`].
//!
//! Stored polynomials live behind opaque [`PolyHandle`]s and enter a
//! stream as [`StreamOp::Input`]. For `CpuBackend` a handle is an entry
//! in a host-side pool; for `ChipBackend` handles are host-resident
//! mirrors that the stream scheduler reduces into the SRAM banks on
//! demand (the slot choreography of Section III-F is managed internally
//! — callers never juggle [`cofhee_sim::Slot`]s).
//!
//! [`BackendFactory`] builds backends for arbitrary `(q, n)` pairs; a
//! multi-modulus consumer (the BFV evaluator's CRT tensor, an RNS tower
//! dispatcher, a future sharded multi-chip backend) uses it to
//! instantiate one backend per modulus from a single selector value.
//!
//! # Examples
//!
//! The one-line backend swap:
//!
//! ```
//! use cofhee_core::{ChipBackend, CpuBackend, OpStream, PolyBackend};
//! use cofhee_sim::ChipConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let n = 1 << 8;
//! let q = cofhee_arith::primes::ntt_prime(60, n)?;
//! let mut cpu: Box<dyn PolyBackend> = Box::new(CpuBackend::new(q, n)?);
//! let mut chip: Box<dyn PolyBackend> = Box::new(ChipBackend::connect(
//!     ChipConfig::silicon(),
//!     q,
//!     n,
//! )?);
//!
//! let a: Vec<u128> = (0..n as u128).collect();
//! let mut stream = OpStream::new(n);
//! let h = stream.upload(a.clone())?;
//! let f = stream.ntt(h)?;
//! let inv = stream.intt(f)?;
//! stream.output(inv)?;
//! for backend in [&mut cpu, &mut chip] {
//!     assert_eq!(backend.execute_stream(&stream)?.outputs[0], a);
//! }
//! assert!(chip.report().cycles > 0, "chip is cycle-accurate");
//! assert_eq!(cpu.report().cycles, 0, "CPU is a zero-cost reference");
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cofhee_arith::{Barrett128, Barrett64, LazyRing, ModRing};
use cofhee_obs::TraceContext;
use cofhee_poly::cache::TwiddleCache;
use cofhee_poly::lazy::HarveyNtt;
use cofhee_poly::ntt::butterfly_count;
use cofhee_poly::pointwise;
use cofhee_poly::pool::{BufferPool, PoolStats};
use cofhee_sim::{ChipConfig, OpReport, Spi, Uart};

use crate::chip_stream::DieProgram;
use crate::device::{CommStats, Device, Link};
use crate::error::{CoreError, Result};
use crate::stream::{fan_out, OpStream, StreamHandle, StreamOp, StreamOutcome, StreamReport};

/// Opaque handle to a backend-resident polynomial.
///
/// Handles are only meaningful on the backend that issued them and are
/// invalidated by [`PolyBackend::free`]. Ids are drawn from one
/// process-global counter, so presenting a handle to a backend that did
/// not issue it fails with [`CoreError::BadHandle`] instead of silently
/// resolving to an unrelated polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolyHandle(u64);

impl PolyHandle {
    /// The raw pool id (crate-internal: the stream scheduler resolves
    /// `Input` nodes against the backend pool with it).
    pub(crate) fn id(self) -> u64 {
        self.0
    }
}

/// Process-global handle allocator (see [`PolyHandle`]).
static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(0);

fn fresh_handle_id() -> u64 {
    NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// What runs the mod-q polynomial operation set the paper offloads to
/// CoFHEE: a polynomial store, one stream executor and telemetry.
///
/// All operands are degree-`n` polynomials over `Z_q`. The store holds
/// them behind [`PolyHandle`]s across streams (a key kept resident in
/// NTT form, say); computation is recorded as an [`OpStream`] over the
/// [`StreamOp`] vocabulary and submitted whole through
/// [`PolyBackend::execute_stream`] — there is no per-operation call.
/// Stored operands are never clobbered: a stream borrows them as
/// [`StreamOp::Input`] and every node produces a fresh value (the
/// schedule-level bank reuse of Algorithm 3 is an implementation detail
/// of [`ChipBackend`]).
///
/// **What stays host-side, and why.** The op set deliberately covers only
/// single-modulus ring operations. BFV's `⌊t·x/q⌉` rounding in Eq. 4
/// requires the *integer* tensor (a CRT base extension across moduli),
/// and key switching requires digit decomposition of full-width
/// coefficients — both need cross-modulus carries the Table I command
/// set cannot express, which is exactly why the paper leaves them to the
/// host (Section III-C defers key switching to future silicon). A
/// consumer implements those by composing per-modulus streams with
/// host-side reconstruction, as `cofhee_bfv::Evaluator` does.
pub trait PolyBackend: fmt::Debug + Send {
    /// Human-readable backend label (for reports and benches).
    fn name(&self) -> &'static str;

    /// The polynomial degree this backend was brought up for.
    fn n(&self) -> usize;

    /// The coefficient modulus `q`.
    fn modulus(&self) -> u128;

    /// Uploads coefficients (reduced mod `q` on ingest) and returns a
    /// handle to the backend-resident polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadOperandLength`] if `coeffs.len() != n`.
    fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle>;

    /// Releases a handle (freeing unknown handles is a no-op).
    fn free(&mut self, h: PolyHandle);

    /// Cumulative execution telemetry since bring-up (or the last
    /// [`PolyBackend::reset_telemetry`]): cycles are real for
    /// [`ChipBackend`] and zero for [`CpuBackend`]; the op counters
    /// (butterflies, multiplies, add-subs) are maintained by both.
    fn report(&self) -> OpReport;

    /// Cumulative host-communication accounting. Always zero for
    /// [`CpuBackend`]; for [`ChipBackend`] it covers bring-up traffic
    /// plus every staged upload/download over the configured [`Link`].
    fn comm_stats(&self) -> CommStats;

    /// Clears the cumulative [`OpReport`] and re-baselines
    /// [`CommStats`].
    fn reset_telemetry(&mut self);

    /// Executes a recorded [`OpStream`] in one submit, returning the
    /// marked outputs and the serial-vs-overlapped telemetry of
    /// [`StreamOutcome`] — the one way a backend computes.
    ///
    /// [`CpuBackend`] replays the stream in record order on its Harvey
    /// plan (no modeled timing: `serial` and `overlapped` totals are
    /// zero); [`ChipBackend`] schedules it through the simulated 32-deep
    /// command FIFO in depth-sized batches with interrupt-driven drains,
    /// keeps intermediates resident in the SRAM banks, and overlaps
    /// upload/download DMA with PE compute. Either way the backend holds
    /// a stream's live set, not its node count, [`StreamOp::Input`]
    /// handles are borrowed, and nothing of the stream stays behind on
    /// success or failure.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DegreeMismatch`] when the stream's degree
    /// differs from the backend's, [`CoreError::BadHandle`] for an
    /// `Input` the backend does not hold, and propagates execution
    /// failures.
    fn execute_stream(&mut self, stream: &OpStream) -> Result<StreamOutcome>;

    /// [`PolyBackend::execute_stream`] for a stream that has `lanes` host
    /// threads to itself (`LimbEngine::run` hands each stream of a submit
    /// `cores / streams`): same outputs, same telemetry. [`CpuBackend`]
    /// replays up to `lanes` ready transform / multiply nodes at a time;
    /// the provided default ignores the count — one simulated die
    /// ([`ChipBackend`]) has nothing to spread over host threads.
    ///
    /// # Errors
    ///
    /// As [`PolyBackend::execute_stream`].
    fn execute_stream_lanes(&mut self, stream: &OpStream, _lanes: usize) -> Result<StreamOutcome> {
        self.execute_stream(stream)
    }

    /// Installs the tracing context used by subsequent
    /// [`PolyBackend::execute_stream`] calls: which sink to record
    /// into, which die's timeline tracks to write, and the virtual
    /// cycle the next stream starts at.
    ///
    /// The provided default ignores the context — backends without a
    /// cycle model ([`CpuBackend`]) have no die timeline to trace, and
    /// the disabled path stays provably zero-perturbation because no
    /// instrumentation site is ever reached. [`ChipBackend`] stores the
    /// context and emits per-batch drain spans, DMA segments, and
    /// interrupt instants while executing streams.
    fn set_trace(&mut self, _ctx: TraceContext) {}

    /// Buffer recycling counters (see
    /// [`cofhee_poly::pool::PoolStats`]): in steady state the hit rate
    /// is 1.0 and a stream allocates nothing per node.
    ///
    /// The provided default reports empty counters for backends
    /// without a pool; [`CpuBackend`] and [`ChipBackend`] override it.
    fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }
}

/// Builds [`PolyBackend`]s for arbitrary `(q, n)` pairs.
///
/// This is what makes the backend choice a *value*: a consumer that
/// needs several moduli (one backend per CRT computation prime, one per
/// RNS tower) takes a `&dyn BackendFactory` and the whole execution
/// target swaps in one line.
pub trait BackendFactory: fmt::Debug + Send + Sync {
    /// Backend family label.
    fn name(&self) -> &'static str;

    /// Brings up a backend for modulus `q` at degree `n`.
    ///
    /// # Errors
    ///
    /// Parameter validation and bring-up failures.
    fn make(&self, q: u128, n: usize) -> Result<Box<dyn PolyBackend>>;
}

/// Factory for [`CpuBackend`]s (the default, zero-cost path).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuBackendFactory;

impl BackendFactory for CpuBackendFactory {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn make(&self, q: u128, n: usize) -> Result<Box<dyn PolyBackend>> {
        Ok(Box::new(CpuBackend::new(q, n)?))
    }
}

/// Factory for [`ChipBackend`]s at a fixed [`ChipConfig`] and host
/// [`Link`].
///
/// The link is part of the factory so consumers that only see a
/// `&dyn BackendFactory` — `Evaluator::with_backend`, the demo
/// constructors — can pick UART or SPI without dropping down to
/// [`ChipBackend::connect_via`]:
///
/// ```
/// use cofhee_core::{ChipBackendFactory, Link};
///
/// let over_spi = ChipBackendFactory::silicon_spi();
/// assert!(matches!(over_spi.link(), Link::Spi(_)));
/// assert_eq!(over_spi.link().name(), "SPI");
/// ```
#[derive(Debug, Clone)]
pub struct ChipBackendFactory {
    config: ChipConfig,
    link: Link,
}

impl ChipBackendFactory {
    /// A factory producing chips with the given configuration over the
    /// backdoor link (no wire-time accounting).
    pub fn new(config: ChipConfig) -> Self {
        Self { config, link: Link::Backdoor }
    }

    /// A factory producing the fabricated silicon configuration over
    /// the backdoor link.
    pub fn silicon() -> Self {
        Self::new(ChipConfig::silicon())
    }

    /// The silicon configuration over its 50 MHz SPI interface — the
    /// validation bring-up the paper times transfers against.
    pub fn silicon_spi() -> Self {
        let config = ChipConfig::silicon();
        let link = Link::Spi(Spi::from_config(&config));
        Self { config, link }
    }

    /// The silicon configuration over its UART (FTDI bring-up path).
    pub fn silicon_uart() -> Self {
        let config = ChipConfig::silicon();
        let link = Link::Uart(Uart::from_config(&config));
        Self { config, link }
    }

    /// The configuration handed to every produced chip.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// The host link every produced chip is brought up over.
    pub fn link(&self) -> &Link {
        &self.link
    }
}

impl BackendFactory for ChipBackendFactory {
    fn name(&self) -> &'static str {
        "cofhee-chip"
    }

    fn make(&self, q: u128, n: usize) -> Result<Box<dyn PolyBackend>> {
        Ok(Box::new(ChipBackend::connect_via(self.config.clone(), q, n, self.link.clone())?))
    }
}

// ---------------------------------------------------------------------
// CPU backend
// ---------------------------------------------------------------------

/// Engine state for one modular width.
///
/// The transform plan is the *shared* [`HarveyNtt`] from the
/// process-wide [`TwiddleCache`]: backends for the same `(q, n)` pair —
/// across evaluators, sessions, and farm dies — reference one table
/// set instead of re-deriving it at every bring-up.
#[derive(Debug)]
struct CpuState<R: LazyRing> {
    ring: R,
    plan: Arc<HarveyNtt<R>>,
    n: usize,
    /// The store: polynomials held behind a [`PolyHandle`].
    pool: HashMap<u64, Vec<R::Elem>>,
    /// Recycled buffer stock: stored polynomials and a replay's values
    /// are taken here and go back when freed, so a warmed backend
    /// allocates nothing per node.
    scratch: BufferPool<R::Elem>,
    /// The wave a replay is gathering or running; empty between replays.
    /// Kept here so that a warmed replay allocates nothing for it.
    wave: Vec<Lane<R::Elem>>,
}

/// One stream value during a replay.
enum Val<E> {
    /// A buffer the replay took from the stock and gives back after the
    /// value's last consumer.
    Owned(Vec<E>),
    /// A stored polynomial ([`StreamOp::Input`]), borrowed by pool id.
    Stored(u64),
}

/// One node of a wave: the buffer it computes into and how it ended.
#[derive(Debug)]
struct Lane<E> {
    node: usize,
    buf: Vec<E>,
    failed: Option<CoreError>,
}

/// The coefficients of operand `h`: an earlier node's buffer, or the
/// stored polynomial an `Input` names.
fn operand<'a, E>(
    pool: &'a HashMap<u64, Vec<E>>,
    vals: &'a [Option<Val<E>>],
    h: &StreamHandle,
) -> Result<&'a [E]> {
    match vals[h.index].as_ref().expect("operands precede their consumers and outlive them") {
        Val::Owned(v) => Ok(v),
        Val::Stored(id) => match pool.get(id) {
            Some(v) => Ok(v),
            None => Err(CoreError::BadHandle { id: *id }),
        },
    }
}

/// How far, in nodes per lane, a replay's walk runs past the oldest node
/// it stepped over: enough for the next digit's transform of a key switch
/// (six nodes on) to join the wave of the previous one.
const AHEAD: usize = 4;

/// What a node retires: transforms, multiply passes (an inverse's `n⁻¹`
/// scaling is one) and add-sub passes. One that retires a transform or a
/// multiply pass is what a wave is made of.
fn retires(op: &StreamOp) -> (u64, u64, u64) {
    match op {
        StreamOp::Input(_) | StreamOp::Upload(_) => (0, 0, 0),
        StreamOp::Ntt(_) => (1, 0, 0),
        StreamOp::Intt(_) => (1, 1, 0),
        StreamOp::Hadamard(..) | StreamOp::ScalarMul(..) => (0, 1, 0),
        StreamOp::HadamardIntt(..) => (1, 2, 0),
        StreamOp::HadamardAdd(..) => (0, 1, 1),
        StreamOp::PointwiseAdd(..) | StreamOp::PointwiseSub(..) => (0, 0, 1),
    }
}

/// `coeffs` reduced into `v`.
fn reduce_into<R: LazyRing>(ring: &R, coeffs: &[u128], v: &mut [R::Elem]) -> Result<()> {
    if coeffs.len() != v.len() {
        return Err(CoreError::BadOperandLength { expected: v.len(), found: coeffs.len() });
    }
    Ok(pointwise::reduce_into(ring, v, coeffs)?)
}

/// Computes node `op` into `v`, a buffer from the stock. A pure function
/// of the node's operands, which is what lets the nodes of a wave run at
/// once.
fn compute<R: LazyRing>(
    plan: &HarveyNtt<R>,
    pool: &HashMap<u64, Vec<R::Elem>>,
    vals: &[Option<Val<R::Elem>>],
    op: &StreamOp,
    v: &mut [R::Elem],
) -> Result<()> {
    let ring = plan.ring();
    let arg = |h: &StreamHandle| operand(pool, vals, h);
    match op {
        StreamOp::Input(_) => unreachable!("an input is borrowed, not computed"),
        StreamOp::Upload(coeffs) => reduce_into(ring, coeffs.words()?, v)?,
        StreamOp::Ntt(s) => {
            v.copy_from_slice(arg(s)?);
            plan.forward_inplace(v)?;
        }
        StreamOp::Intt(s) => {
            v.copy_from_slice(arg(s)?);
            plan.inverse_inplace(v)?;
        }
        StreamOp::Hadamard(x, y) => pointwise::mul_into(ring, v, arg(x)?, arg(y)?)?,
        // The single-pass Harvey kernel: the product feeds the
        // inverse stages directly, no canonical correction between.
        StreamOp::HadamardIntt(x, y) => plan.hadamard_intt_into(arg(x)?, arg(y)?, v)?,
        StreamOp::HadamardAdd(x, y, acc) => {
            pointwise::mul_add_into(ring, v, arg(x)?, arg(y)?, arg(acc)?)?;
        }
        StreamOp::PointwiseAdd(x, y) => pointwise::add_into(ring, v, arg(x)?, arg(y)?)?,
        StreamOp::PointwiseSub(x, y) => pointwise::sub_into(ring, v, arg(x)?, arg(y)?)?,
        StreamOp::ScalarMul(x, c) => {
            pointwise::scalar_mul_into(ring, v, arg(x)?, ring.from_u128(*c))?;
        }
    }
    Ok(())
}

/// The state of one replay: what each node's value is and how many
/// consumers it still has ahead of it.
struct Replay<'s, E> {
    nodes: &'s [StreamOp],
    /// Uses each node still has ahead of it; an output marking is one
    /// that only the download consumes.
    uses: Vec<usize>,
    vals: Vec<Option<Val<E>>>,
}

impl<E> Replay<'_, E> {
    /// Whether every operand of node `i` has been computed (and, its
    /// consumer still ahead, not given back).
    fn ready(&self, i: usize) -> bool {
        self.nodes[i].deps().into_iter().flatten().all(|dep| self.vals[dep.index].is_some())
    }
}

impl<R: LazyRing> CpuState<R> {
    fn new(plan: Arc<HarveyNtt<R>>) -> Self {
        let n = plan.n();
        Self {
            ring: plan.ring().clone(),
            n,
            plan,
            pool: HashMap::new(),
            scratch: BufferPool::new(n),
            wave: Vec::new(),
        }
    }

    fn free(&mut self, h: PolyHandle) {
        if let Some(v) = self.pool.remove(&h.0) {
            self.scratch.put(v);
        }
    }

    fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle> {
        let mut v = self.scratch.take();
        if let Err(e) = reduce_into(&self.ring, coeffs, &mut v) {
            self.scratch.put(v);
            return Err(e);
        }
        let id = fresh_handle_id();
        self.pool.insert(id, v);
        Ok(PolyHandle(id))
    }

    /// The one deliberately allocating step: a stream output crosses the
    /// backend boundary into caller-owned memory.
    fn canonical(&self, v: &[R::Elem]) -> Vec<u128> {
        v.iter().map(|&c| self.ring.to_u128(c)).collect()
    }

    /// The stream replay at this engine's width: every node runs into
    /// one buffer from the stock, and the buffer goes back right after
    /// its value's last consumer ran — the rule `chip_stream`'s slot
    /// allocator follows — so what the backend holds at any moment is the
    /// stream's live set, not its node count: a node nothing reads is
    /// released at once, a value one node names twice is released once,
    /// outputs live to their download, and [`StreamOp::Input`]
    /// polynomials are borrowed and never freed. The replay's values
    /// never enter the store — no handle is minted for them. Success
    /// *and* failure leave nothing behind: the closing sweep gives back
    /// the outputs, or whatever was live — a gathered wave's buffers
    /// included — when a node failed. Each node's retired arithmetic
    /// lands in `report` as it completes.
    ///
    /// The order is record order, `lanes` nodes at a time
    /// ([`CpuState::run_nodes`]); with one lane it is the in-order loop
    /// node for node. A node is a pure function of its operands, so the
    /// values are the same at every lane count.
    fn replay(
        &mut self,
        stream: &OpStream,
        lanes: usize,
        report: &mut OpReport,
    ) -> Result<Vec<Vec<u128>>> {
        let nodes = stream.nodes();
        let mut vals = Vec::new();
        vals.resize_with(nodes.len(), || None);
        let mut replay = Replay { nodes, uses: stream.use_counts(), vals };
        let result = self.run_nodes(&mut replay, lanes.max(1), report).and_then(|()| {
            // Sized up front: one allocation however many outputs.
            let mut outputs = Vec::with_capacity(stream.outputs().len());
            for s in stream.outputs() {
                outputs.push(self.canonical(operand(&self.pool, &replay.vals, s)?));
            }
            Ok(outputs)
        });
        let in_wave = self.wave.drain(..).map(|lane| lane.buf);
        let live = replay.vals.into_iter().flatten().filter_map(|val| match val {
            Val::Owned(v) => Some(v),
            Val::Stored(_) => None,
        });
        for v in in_wave.chain(live) {
            self.scratch.put(v);
        }
        result
    }

    /// The walk of [`CpuState::replay`]: up to `lanes` *ready* nodes that
    /// retire a transform or a multiply pass (see [`retires`]) are
    /// gathered into a wave and run through [`fan_out`], one per thread;
    /// uploads, inputs and add-sub passes run on the calling thread as
    /// the walk reaches them. A node whose operand is still in the wave
    /// is stepped over and taken up, oldest first, once the wave has
    /// retired; the walk never runs more than [`AHEAD`]` · lanes` nodes
    /// past the oldest node it stepped over, so the replay holds at most
    /// `(AHEAD + 1) · lanes` buffers beyond the in-order live set. With
    /// one lane nothing is ever stepped over and every wave is one node,
    /// run inline.
    fn run_nodes(
        &mut self,
        replay: &mut Replay<'_, R::Elem>,
        lanes: usize,
        report: &mut OpReport,
    ) -> Result<()> {
        let nodes = replay.nodes;
        // Stepped-over nodes, oldest first. Never pushed at one lane.
        let mut waiting: Vec<usize> = Vec::new();
        let mut next = 0;
        while next < nodes.len() || !waiting.is_empty() {
            let mut w = 0;
            while w < waiting.len() && self.wave.len() < lanes {
                if replay.ready(waiting[w]) {
                    self.start(replay, waiting.remove(w), report)?;
                } else {
                    w += 1;
                }
            }
            let oldest = waiting.first().copied().unwrap_or(next);
            while next < nodes.len() && self.wave.len() < lanes && next - oldest < AHEAD * lanes {
                // A stored operand is looked up as the walk passes its
                // consumer, so the failure reported is the first in
                // record order whatever ran ahead of it.
                for dep in nodes[next].deps().iter().flatten() {
                    if replay.vals[dep.index].is_some() {
                        operand(&self.pool, &replay.vals, dep)?;
                    }
                }
                if replay.ready(next) {
                    self.start(replay, next, report)?;
                } else {
                    waiting.push(next);
                }
                next += 1;
            }
            self.run_wave(replay, report)?;
        }
        Ok(())
    }

    /// Starts ready node `i`: into the wave if it retires a transform or
    /// a multiply pass, computed here and now otherwise.
    fn start(
        &mut self,
        replay: &mut Replay<'_, R::Elem>,
        i: usize,
        report: &mut OpReport,
    ) -> Result<()> {
        let op = &replay.nodes[i];
        if let StreamOp::Input(h) = op {
            replay.vals[i] = Some(Val::Stored(h.id()));
            self.retire(replay, i, report);
            return Ok(());
        }
        let mut buf = self.scratch.take();
        let (transforms, mul_passes, _) = retires(op);
        if transforms + mul_passes > 0 {
            self.wave.push(Lane { node: i, buf, failed: None });
            return Ok(());
        }
        match compute(&self.plan, &self.pool, &replay.vals, op, &mut buf) {
            Ok(()) => {
                replay.vals[i] = Some(Val::Owned(buf));
                self.retire(replay, i, report);
                Ok(())
            }
            Err(e) => {
                self.scratch.put(buf);
                Err(e)
            }
        }
    }

    /// Runs the gathered wave, one node per thread, and retires its nodes
    /// in record order. A failed node leaves the whole wave where it is:
    /// the replay's closing sweep gives every buffer back.
    fn run_wave(&mut self, replay: &mut Replay<'_, R::Elem>, report: &mut OpReport) -> Result<()> {
        let (plan, pool, vals) = (&*self.plan, &self.pool, &replay.vals);
        fan_out(&mut self.wave, |lane| {
            lane.failed = compute(plan, pool, vals, &replay.nodes[lane.node], &mut lane.buf).err();
        });
        if let Some(e) = self.wave.iter_mut().find_map(|lane| lane.failed.take()) {
            return Err(e);
        }
        let mut wave = std::mem::take(&mut self.wave);
        for lane in wave.drain(..) {
            replay.vals[lane.node] = Some(Val::Owned(lane.buf));
            self.retire(replay, lane.node, report);
        }
        self.wave = wave;
        Ok(())
    }

    /// Books computed node `i`: its retired arithmetic, one use less of
    /// each operand (two of one it names twice), and every buffer that
    /// leaves dead — the node's own when nothing reads it — back to the
    /// stock.
    fn retire(&mut self, replay: &mut Replay<'_, R::Elem>, i: usize, report: &mut OpReport) {
        let op = &replay.nodes[i];
        let (transforms, mul_passes, addsub_passes) = retires(op);
        report.butterflies += transforms * butterfly_count(self.n);
        report.mults += mul_passes * self.n as u64;
        report.addsubs += addsub_passes * self.n as u64;
        let operands = op.deps().into_iter().flatten().map(|dep| (dep.index, 1));
        for (j, used) in operands.chain([(i, 0)]) {
            replay.uses[j] -= used;
            if replay.uses[j] == 0 {
                if let Some(Val::Owned(dead)) = replay.vals[j].take() {
                    self.scratch.put(dead);
                }
            }
        }
    }
}

#[derive(Debug)]
enum CpuEngine {
    /// Word-sized moduli (`q < 2^63`): the fast Barrett64 tower engine.
    Narrow(CpuState<Barrett64>),
    /// Chip-native widths up to 128 bits.
    Wide(CpuState<Barrett128>),
}

/// Dispatches a method over whichever engine width is active.
macro_rules! with_engine {
    ($self:expr, $st:ident => $body:expr) => {
        match &mut $self.engine {
            CpuEngine::Narrow($st) => $body,
            CpuEngine::Wide($st) => $body,
        }
    };
}

/// Software execution of recorded streams on the host CPU — the
/// reference semantics every accelerator backend must match
/// bit-for-bit.
///
/// Telemetry: `cycles` stays zero (there is no modeled latency — wall
/// time is whatever the host takes); `butterflies`, `mults` and
/// `addsubs` count retired arithmetic so op accounting is comparable
/// with [`ChipBackend`] reports.
#[derive(Debug)]
pub struct CpuBackend {
    engine: CpuEngine,
    n: usize,
    q: u128,
    report: OpReport,
}

impl CpuBackend {
    /// Builds a CPU backend for modulus `q` at degree `n`, selecting the
    /// Barrett64 engine for word-sized moduli and Barrett128 otherwise.
    /// The transform plan comes from the process-wide [`TwiddleCache`],
    /// so repeated bring-ups of the same `(q, n)` pair share one table
    /// set.
    ///
    /// # Errors
    ///
    /// Root-finding failures (`q` not NTT-friendly for degree `n`).
    pub fn new(q: u128, n: usize) -> Result<Self> {
        // Word-sized moduli (a Barrett64 ring exists) run on the 64-bit
        // engine, anything wider on the 128-bit native-width one — the
        // rule the simulator's functional kernel shares.
        let engine = match TwiddleCache::narrow(q, n)? {
            Some(plan) => CpuEngine::Narrow(CpuState::new(plan)),
            None => CpuEngine::Wide(CpuState::new(TwiddleCache::barrett128(q, n)?)),
        };
        Ok(Self { engine, n, q, report: OpReport::default() })
    }

    /// Buffers out of the stock: the stored polynomials, plus whatever
    /// a replay failed to give back (leak checks in tests).
    #[cfg(test)]
    pub(crate) fn buffers_out(&self) -> u64 {
        let stock = self.pool_stats();
        stock.hits + stock.misses - stock.recycled
    }
}

impl PolyBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn n(&self) -> usize {
        self.n
    }

    fn modulus(&self) -> u128 {
        self.q
    }

    fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle> {
        with_engine!(self, st => st.upload(coeffs))
    }

    fn free(&mut self, h: PolyHandle) {
        with_engine!(self, st => st.free(h));
    }

    /// The in-order replay: [`PolyBackend::execute_stream_lanes`] with
    /// one lane, which never spawns.
    fn execute_stream(&mut self, stream: &OpStream) -> Result<StreamOutcome> {
        self.execute_stream_lanes(stream, 1)
    }

    /// Replays the stream on the engine the modulus selected — matched
    /// here, once per stream, not per node — up to `lanes` ready
    /// transform / multiply nodes at a time. There is no modeled timing:
    /// the report carries the command count and one batch, its cycle,
    /// second and byte totals stay zero.
    fn execute_stream_lanes(&mut self, stream: &OpStream, lanes: usize) -> Result<StreamOutcome> {
        if stream.n() != self.n {
            return Err(CoreError::DegreeMismatch { device: self.n, requested: stream.n() });
        }
        let outputs = with_engine!(self, st => st.replay(stream, lanes, &mut self.report))?;
        Ok(StreamOutcome {
            outputs,
            report: StreamReport {
                commands: stream.len() as u64 + stream.outputs().len() as u64,
                batches: 1,
                ..StreamReport::default()
            },
        })
    }

    fn report(&self) -> OpReport {
        self.report
    }

    fn comm_stats(&self) -> CommStats {
        CommStats::default()
    }

    fn reset_telemetry(&mut self) {
        self.report = OpReport::default();
    }

    fn pool_stats(&self) -> PoolStats {
        match &self.engine {
            CpuEngine::Narrow(st) => st.scratch.stats(),
            CpuEngine::Wide(st) => st.scratch.stats(),
        }
    }
}

// ---------------------------------------------------------------------
// Chip backend
// ---------------------------------------------------------------------

/// Cycle-accurate execution of recorded streams on the simulated CoFHEE
/// ASIC.
///
/// Handles are host-resident mirrors: `upload` / `free` never touch the
/// die. A stream reduces its [`StreamOp::Input`] mirrors and upload
/// payloads straight into the SRAM banks of the die's
/// [`cofhee_sim::BankPlan`], runs the Table I commands through the command
/// FIFO, and reads only the marked outputs back. Wire traffic accrues to
/// [`CommStats`] per the configured [`Link`]; command latencies
/// accumulate in the cumulative [`OpReport`].
#[derive(Debug)]
pub struct ChipBackend {
    pub(crate) device: Device,
    pub(crate) pool: HashMap<u64, Vec<u128>>,
    pub(crate) report: OpReport,
    /// Recycled host-mirror stock: uploads take staged buffers here and
    /// frees return them, mirroring [`CpuBackend`]'s zero-alloc steady
    /// state on the staging side. (Stream execution needs no staging:
    /// it reduces payloads and resident mirrors straight into the
    /// simulated banks.)
    scratch: BufferPool<u128>,
    comm_base: CommStats,
    /// Tracing destination for stream execution; [`TraceContext::disabled`]
    /// until a farm (or test) installs a recording sink.
    pub(crate) trace: TraceContext,
    /// End cycle of the last DMA segment emitted on this die's link
    /// track, kept across streams so link segments never regress.
    pub(crate) trace_dma_tail: u64,
    /// The program buffer [`PolyBackend::execute_stream`] prices into.
    program: DieProgram,
}

impl ChipBackend {
    /// Brings up a chip over the backdoor link (no wire-time accounting).
    ///
    /// # Errors
    ///
    /// Parameter validation, root finding, or capacity failures.
    pub fn connect(config: ChipConfig, q: u128, n: usize) -> Result<Self> {
        Ok(Self::from_device(Device::connect(config, q, n)?))
    }

    /// Brings up a chip over an explicit host link (UART/SPI).
    ///
    /// # Errors
    ///
    /// Parameter validation, root finding, or capacity failures.
    pub fn connect_via(config: ChipConfig, q: u128, n: usize, link: Link) -> Result<Self> {
        Ok(Self::from_device(Device::connect_via(config, q, n, link)?))
    }

    /// Wraps an already-connected [`Device`].
    fn from_device(device: Device) -> Self {
        let n = device.n();
        Self {
            device,
            pool: HashMap::new(),
            report: OpReport::default(),
            scratch: BufferPool::new(n),
            comm_base: CommStats::default(),
            trace: TraceContext::disabled(),
            trace_dma_tail: 0,
            program: DieProgram::default(),
        }
    }

    /// The underlying device (inspection: ring, chip, bank plan).
    pub fn device(&self) -> &Device {
        &self.device
    }
}

impl PolyBackend for ChipBackend {
    fn name(&self) -> &'static str {
        "cofhee-chip"
    }

    fn n(&self) -> usize {
        self.device.n()
    }

    fn modulus(&self) -> u128 {
        self.device.ring().modulus()
    }

    fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle> {
        if coeffs.len() != self.device.n() {
            return Err(CoreError::BadOperandLength {
                expected: self.device.n(),
                found: coeffs.len(),
            });
        }
        let ring = *self.device.ring();
        let mut v = self.scratch.take();
        for (dst, &c) in v.iter_mut().zip(coeffs) {
            *dst = ring.from_u128(c);
        }
        let id = fresh_handle_id();
        self.pool.insert(id, v);
        Ok(PolyHandle(id))
    }

    fn free(&mut self, h: PolyHandle) {
        if let Some(v) = self.pool.remove(&h.0) {
            self.scratch.put(v);
        }
    }

    fn report(&self) -> OpReport {
        self.report
    }

    fn comm_stats(&self) -> CommStats {
        let total = self.device.comm_stats();
        CommStats {
            bytes: total.bytes - self.comm_base.bytes,
            seconds: total.seconds - self.comm_base.seconds,
        }
    }

    fn reset_telemetry(&mut self) {
        self.report = OpReport::default();
        self.comm_base = self.device.comm_stats();
    }

    /// Batched execution through the simulated command FIFO: the whole
    /// recorded stream is scheduled in depth-sized batches with
    /// interrupt-driven drains, intermediates stay resident in the SRAM
    /// banks, and upload/download DMA overlaps PE compute — see
    /// [`StreamOutcome`]'s serial-vs-overlapped totals and the
    /// `chip_stream` module docs for the schedule. It is
    /// [`ChipBackend::price`], then [`ChipBackend::apply`].
    fn execute_stream(&mut self, stream: &OpStream) -> Result<StreamOutcome> {
        let mut program = std::mem::take(&mut self.program);
        let outcome = self.price(stream, &mut program).and_then(|report| {
            let mut outputs: Vec<Vec<u128>> =
                stream.outputs().iter().map(|_| Vec::with_capacity(stream.n())).collect();
            self.apply(stream, &program, &mut outputs)?;
            Ok(StreamOutcome { outputs, report })
        });
        self.program = program;
        outcome
    }

    fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = ctx;
    }

    fn pool_stats(&self) -> PoolStats {
        self.scratch.stats()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cofhee_arith::primes::ntt_prime;
    use cofhee_poly::naive;

    const N: usize = 1 << 7;

    fn q() -> u128 {
        ntt_prime(60, N).unwrap()
    }

    fn both() -> (CpuBackend, ChipBackend) {
        let q = q();
        (CpuBackend::new(q, N).unwrap(), ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap())
    }

    fn poly(seed: u128) -> Vec<u128> {
        let q = q();
        let mut state = seed | 1;
        (0..N)
            .map(|_| {
                state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(7);
                state % q
            })
            .collect()
    }

    /// `raw` resident on `be` in NTT form — a one-transform stream whose
    /// output is uploaded back, as `cofhee_opt::LimbEngine` brings a key
    /// up.
    pub(crate) fn ntt_form(be: &mut dyn PolyBackend, raw: &[u128]) -> PolyHandle {
        let mut st = OpStream::new(raw.len());
        let up = st.upload(raw.to_vec()).unwrap();
        let form = st.ntt(up).unwrap();
        st.output(form).unwrap();
        let out = be.execute_stream(&st).unwrap().outputs;
        be.upload(&out[0]).unwrap()
    }

    /// The stored polynomial `h` as `be` returns words: through a stream
    /// whose one node is its [`StreamOp::Input`], marked as the output.
    pub(crate) fn read_back(be: &mut dyn PolyBackend, h: PolyHandle) -> Result<Vec<u128>> {
        let mut st = OpStream::new(be.n());
        let stored = st.input(h);
        st.output(stored)?;
        Ok(be.execute_stream(&st)?.outputs.remove(0))
    }

    /// Every compute kind of the [`StreamOp`] vocabulary once, each
    /// result an output, in this order: `ntt(a)`, `intt(ntt(a))`,
    /// `a ∘ b`, `intt(ntt(a) ∘ ntt(b))`, `a ∘ b + a`, `a + b`, `a − b`,
    /// `12345·a`.
    fn every_op(a: &[u128], b: &[u128]) -> OpStream {
        let mut st = OpStream::new(a.len());
        let ha = st.upload(a.to_vec()).unwrap();
        let hb = st.upload(b.to_vec()).unwrap();
        let fa = st.ntt(ha).unwrap();
        let fb = st.ntt(hb).unwrap();
        let outputs = [
            fa,
            st.intt(fa).unwrap(),
            st.hadamard(ha, hb).unwrap(),
            st.hadamard_intt(fa, fb).unwrap(),
            st.hadamard_add(ha, hb, ha).unwrap(),
            st.pointwise_add(ha, hb).unwrap(),
            st.pointwise_sub(ha, hb).unwrap(),
            st.scalar_mul(ha, 12345).unwrap(),
        ];
        for h in outputs {
            st.output(h).unwrap();
        }
        st
    }

    #[test]
    fn upload_download_round_trips_on_both() {
        let (mut cpu, mut chip) = both();
        let v = poly(1);
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let h = be.upload(&v).unwrap();
            assert_eq!(read_back(be, h).unwrap(), v);
            be.free(h);
            assert!(matches!(read_back(be, h), Err(CoreError::BadHandle { .. })));
        }
    }

    #[test]
    fn every_op_is_bit_identical_across_backends() {
        let (mut cpu, mut chip) = both();
        let (a, b) = (poly(2), poly(3));
        let st = every_op(&a, &b);
        let c = cpu.execute_stream(&st).unwrap().outputs;
        let s = chip.execute_stream(&st).unwrap().outputs;
        assert_eq!(c, s, "CPU and chip must agree bit-for-bit");
        // iNTT(NTT(a)) = a; the fused product matches the naive oracle,
        // and the pointwise kinds the ring's own arithmetic.
        assert_eq!(c[1], a);
        let ring = Barrett128::new(q()).unwrap();
        assert_eq!(c[3], naive::negacyclic_mul(&ring, &a, &b).unwrap());
        let zip = |f: &dyn Fn(u128, u128) -> u128| -> Vec<u128> {
            a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
        };
        assert_eq!(c[2], zip(&|x, y| ring.mul(x, y)));
        assert_eq!(c[4], zip(&|x, y| ring.add(ring.mul(x, y), x)));
        assert_eq!(c[5], zip(&|x, y| ring.add(x, y)));
        assert_eq!(c[6], zip(&|x, y| ring.sub(x, y)));
        assert_eq!(c[7], zip(&|x, _| ring.mul(x, 12345)));
    }

    #[test]
    fn telemetry_accumulates_and_resets() {
        let (mut cpu, mut chip) = both();
        let st = every_op(&poly(4), &poly(5));
        let outcome = cpu.execute_stream(&st).unwrap();
        // Four transforms (two NTTs, an iNTT, the fused iNTT), six
        // multiply passes (iNTT 1, Hadamard 1, fused 2, multiply-accumulate
        // 1, scalar 1), three add-subs.
        let (n, transform) = (N as u64, butterfly_count(N));
        let once = OpReport {
            butterflies: 4 * transform,
            mults: 6 * n,
            addsubs: 3 * n,
            ..OpReport::default()
        };
        assert_eq!(cpu.report(), once);
        // No modeled timing, no wire: the CPU reference is zero-cost.
        assert_eq!(
            outcome.report,
            StreamReport { commands: 11 + 8, batches: 1, ..StreamReport::default() }
        );
        assert_eq!(cpu.comm_stats(), CommStats::default());
        cpu.execute_stream(&st).unwrap();
        assert_eq!(cpu.report().butterflies, 2 * once.butterflies, "cumulative");

        // The chip is cycle-accurate and its transfers are accounted.
        let on_chip = chip.execute_stream(&st).unwrap().report;
        let r = chip.report();
        assert!(r.butterflies > 0 && r.mults > 0 && r.cycles > 0);
        assert_eq!(r.cycles, on_chip.overlapped_cycles);
        assert!(chip.comm_stats().bytes > 0, "transfer traffic is accounted");

        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            be.reset_telemetry();
            assert_eq!(be.report(), OpReport::default());
            assert_eq!(be.comm_stats(), CommStats::default());
        }
    }

    #[test]
    fn factories_build_matching_backends() {
        let q = q();
        let cpu = CpuBackendFactory.make(q, N).unwrap();
        let chip = ChipBackendFactory::silicon().make(q, N).unwrap();
        for be in [&cpu, &chip] {
            assert_eq!(be.n(), N);
            assert_eq!(be.modulus(), q);
        }
        assert_eq!(cpu.name(), "cpu");
        assert_eq!(chip.name(), "cofhee-chip");
    }

    /// Brings both backends up at a `bits`-wide modulus, checks which
    /// engine the CPU picked, and runs every op kind on both.
    fn agree_at(bits: u32, narrow: bool) {
        let n = 1 << 6;
        let q = ntt_prime(bits, n).unwrap();
        let mut cpu = CpuBackend::new(q, n).unwrap();
        assert_eq!(matches!(cpu.engine, CpuEngine::Narrow(_)), narrow, "{bits}-bit q");
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, n).unwrap();
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 977 + 3) * (q / 1009)).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| q - 1 - i * 3).collect();
        let st = every_op(&a, &b);
        assert_eq!(
            cpu.execute_stream(&st).unwrap().outputs,
            chip.execute_stream(&st).unwrap().outputs,
            "{bits}-bit q"
        );
    }

    #[test]
    fn wide_moduli_use_the_native_engine() {
        agree_at(60, true);
        agree_at(109, false);
    }

    #[test]
    fn moduli_between_62_and_64_bits_fall_back_to_the_wide_engine() {
        // Barrett64 caps at 62 bits; a 63-bit NTT prime must bring up
        // on the 128-bit engine instead of failing.
        agree_at(63, false);
    }

    #[test]
    fn foreign_handles_are_rejected_across_backends() {
        let (mut cpu, mut chip) = both();
        let on_cpu = cpu.upload(&poly(9)).unwrap();
        let on_chip = chip.upload(&poly(9)).unwrap();
        let through = |be: &mut dyn PolyBackend, foreign: PolyHandle| {
            let before = be.pool_stats();
            let mut st = OpStream::new(N);
            let a = st.upload(poly(1)).unwrap();
            let fa = st.ntt(a).unwrap();
            let theirs = st.input(foreign);
            let prod = st.hadamard(fa, theirs).unwrap();
            st.output(prod).unwrap();
            assert!(matches!(be.execute_stream(&st), Err(CoreError::BadHandle { .. })));
            let after = be.pool_stats();
            assert_eq!(
                after.hits + after.misses - after.recycled,
                before.hits + before.misses - before.recycled,
                "{}: the failed stream left a buffer out",
                be.name()
            );
        };
        through(&mut chip, on_cpu);
        through(&mut cpu, on_chip);
        assert_eq!(cpu.buffers_out(), 1, "only its own upload");
        assert_eq!(read_back(&mut cpu, on_cpu).unwrap(), poly(9));
        assert_eq!(read_back(&mut chip, on_chip).unwrap(), poly(9));
    }

    #[test]
    fn operand_length_is_validated() {
        let (mut cpu, mut chip) = both();
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            assert!(matches!(
                be.upload(&[1, 2, 3]),
                Err(CoreError::BadOperandLength { expected: N, found: 3 })
            ));
        }
    }
}
