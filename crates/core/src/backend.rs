//! The unified polynomial-backend execution API.
//!
//! The paper's whole architecture is a division of labor: CoFHEE
//! accelerates the *mod-q polynomial operations* (NTT/iNTT, Hadamard,
//! pointwise add/sub, constant multiplication — Table I), while the host
//! keeps the high-level BFV primitives that need arbitrary-precision
//! arithmetic (the Eq. 4 `t/q` rounding via base extension, and key
//! switching, which Section III-C defers to software). [`PolyBackend`]
//! captures exactly that offloadable op set behind one object-safe trait,
//! so "same computation, N execution targets" becomes a constructor
//! argument:
//!
//! * [`CpuBackend`] — wraps the `cofhee_poly` NTT engines directly
//!   (Barrett64 towers for word-sized moduli, Barrett128 for the chip's
//!   native width). Zero-cost reference semantics: no simulated cycles,
//!   no wire traffic; the telemetry [`OpReport`] still counts
//!   butterflies / multiplies / add-subs so op accounting stays
//!   backend-independent.
//! * [`ChipBackend`] — wraps a [`Device`] (the simulated ASIC behind a
//!   [`Link`]). Every operation is staged through the standard bank plan
//!   and executed cycle-accurately; upload/download traffic accrues to
//!   [`CommStats`] and command latencies accumulate in the cumulative
//!   [`OpReport`].
//!
//! Polynomials live behind opaque [`PolyHandle`]s. For `CpuBackend` a
//! handle is an entry in a host-side pool; for `ChipBackend` handles are
//! host-resident mirrors that the backend stages into the dual-port
//! compute banks on demand (the slot choreography of Section III-F is
//! managed internally — callers never juggle [`cofhee_sim::Slot`]s).
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
//! use cofhee_core::{ChipBackend, CpuBackend, PolyBackend};
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
//! for backend in [&mut cpu, &mut chip] {
//!     let h = backend.upload(&a)?;
//!     let f = backend.ntt(h)?;
//!     let inv = backend.intt(f)?;
//!     assert_eq!(backend.download(inv)?, a);
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
use cofhee_poly::pointwise;
use cofhee_poly::pool::{BufferPool, PoolStats};
use cofhee_sim::{ChipConfig, OpReport, Slot, Spi, Uart};

use crate::device::{CommStats, Device, Link};
use crate::error::{CoreError, Result};
use crate::stream::{self, OpStream, StreamOutcome};

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

/// The mod-q polynomial operation set the paper offloads to CoFHEE.
///
/// All operands are degree-`n` polynomials over `Z_q` held behind
/// [`PolyHandle`]s; every operation allocates and returns a fresh handle
/// (operands are never clobbered — the schedule-level bank reuse of
/// Algorithm 3 is an implementation detail of [`ChipBackend`]).
///
/// **What stays host-side, and why.** The trait deliberately covers only
/// single-modulus ring operations. BFV's `⌊t·x/q⌉` rounding in Eq. 4
/// requires the *integer* tensor (a CRT base extension across moduli),
/// and key switching requires digit decomposition of full-width
/// coefficients — both need cross-modulus carries the Table I command
/// set cannot express, which is exactly why the paper leaves them to the
/// host (Section III-C defers key switching to future silicon). A
/// consumer implements those by composing per-modulus `PolyBackend`
/// calls with host-side reconstruction, as `cofhee_bfv::Evaluator` does.
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

    /// Downloads a polynomial as canonical residues in `[0, q)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadHandle`] for foreign or freed handles.
    fn download(&mut self, h: PolyHandle) -> Result<Vec<u128>>;

    /// Releases a handle (freeing unknown handles is a no-op).
    fn free(&mut self, h: PolyHandle);

    /// Forward negacyclic NTT.
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn ntt(&mut self, src: PolyHandle) -> Result<PolyHandle>;

    /// Inverse negacyclic NTT.
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn intt(&mut self, src: PolyHandle) -> Result<PolyHandle>;

    /// Hadamard (pointwise) product `x ∘ y` (PMODMUL).
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn hadamard(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle>;

    /// Pointwise addition `x + y` (PMODADD).
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn pointwise_add(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle>;

    /// Pointwise subtraction `x − y` (PMODSUB).
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn pointwise_sub(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle>;

    /// Constant multiplication `c·x` (CMODMUL); `c` is reduced mod `q`.
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn scalar_mul(&mut self, x: PolyHandle, c: u128) -> Result<PolyHandle>;

    /// Full negacyclic polynomial product (Algorithm 2: 2 NTTs, one
    /// Hadamard pass, one iNTT).
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn poly_mul(&mut self, a: PolyHandle, b: PolyHandle) -> Result<PolyHandle>;

    /// Fused `intt ∘ hadamard`: the pointwise product of two NTT-domain
    /// polynomials returned in the coefficient domain — the tail of
    /// every tensor limb and key-switch inner product.
    ///
    /// The provided default composes [`PolyBackend::hadamard`] and
    /// [`PolyBackend::intt`] (freeing the intermediate), so every
    /// backend is bit-identical by construction; [`CpuBackend`]
    /// overrides it with the single-pass Harvey kernel that skips the
    /// intermediate allocation and canonical correction.
    ///
    /// # Errors
    ///
    /// Bad handles or execution failures.
    fn hadamard_intt(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        let prod = self.hadamard(x, y)?;
        let out = self.intt(prod);
        self.free(prod);
        out
    }

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
    /// [`StreamOutcome`].
    ///
    /// The provided default replays the stream through the synchronous
    /// op set in record order — the degenerate one-op-at-a-time
    /// schedule, bit-identical to issuing the calls by hand (its
    /// `serial` and `overlapped` totals coincide). Accelerator backends
    /// override it to exploit the recording: [`ChipBackend`] schedules
    /// the whole stream through the simulated 32-deep command FIFO in
    /// depth-sized batches with interrupt-driven drains, keeps
    /// intermediates resident in the SRAM banks, and overlaps
    /// upload/download DMA with PE compute.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DegreeMismatch`] when the stream's degree
    /// differs from the backend's, and propagates execution failures.
    fn execute_stream(&mut self, stream: &OpStream) -> Result<StreamOutcome> {
        stream::replay_sync(self, stream)
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

    /// Scratch-buffer recycling counters (see
    /// [`cofhee_poly::pool::PoolStats`]): in steady state the hit rate
    /// is 1.0 and the backend performs zero heap allocation per op.
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
/// use cofhee_sim::{ChipConfig, Spi};
///
/// let over_spi =
///     ChipBackendFactory::silicon().with_link(Link::Spi(Spi::new(50_000_000)));
/// assert_eq!(over_spi.link_name(), "SPI");
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

    /// The same factory with every produced chip brought up over an
    /// explicit host link (UART or SPI), so transfers cost wire time.
    #[must_use]
    pub fn with_link(mut self, link: Link) -> Self {
        self.link = link;
        self
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

    /// The configured link's human-readable name.
    pub fn link_name(&self) -> &'static str {
        self.link.name()
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
    pool: HashMap<u64, Vec<R::Elem>>,
    /// Recycled scratch stock: every op takes its output (and scratch)
    /// buffer here and [`CpuState::free`] returns handles to it, so a
    /// warmed steady-state loop allocates nothing.
    scratch: BufferPool<R::Elem>,
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
        }
    }

    fn insert(&mut self, v: Vec<R::Elem>) -> PolyHandle {
        let id = fresh_handle_id();
        self.pool.insert(id, v);
        PolyHandle(id)
    }

    /// Validates a handle without touching the scratch pool (ops
    /// validate *before* taking buffers so the error path leaks
    /// nothing).
    fn check(&self, h: PolyHandle) -> Result<()> {
        if self.pool.contains_key(&h.0) {
            Ok(())
        } else {
            Err(CoreError::BadHandle { id: h.0 })
        }
    }

    fn get(&self, h: PolyHandle) -> Result<&Vec<R::Elem>> {
        self.pool.get(&h.0).ok_or(CoreError::BadHandle { id: h.0 })
    }

    fn free(&mut self, h: PolyHandle) {
        if let Some(v) = self.pool.remove(&h.0) {
            self.scratch.put(v);
        }
    }

    fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle> {
        if coeffs.len() != self.n {
            return Err(CoreError::BadOperandLength { expected: self.n, found: coeffs.len() });
        }
        let mut v = self.scratch.take();
        for (dst, &c) in v.iter_mut().zip(coeffs) {
            *dst = self.ring.from_u128(c);
        }
        Ok(self.insert(v))
    }

    fn download(&self, h: PolyHandle) -> Result<Vec<u128>> {
        // The one deliberately allocating op: downloads cross the
        // backend boundary into caller-owned memory.
        Ok(self.get(h)?.iter().map(|&c| self.ring.to_u128(c)).collect())
    }

    fn transform(&mut self, src: PolyHandle, forward: bool) -> Result<PolyHandle> {
        self.check(src)?;
        let mut v = self.scratch.take();
        v.copy_from_slice(&self.pool[&src.0]);
        if forward {
            self.plan.forward_inplace(&mut v)?;
        } else {
            self.plan.inverse_inplace(&mut v)?;
        }
        Ok(self.insert(v))
    }

    fn pointwise(&mut self, x: PolyHandle, y: PolyHandle, op: PointwiseOp) -> Result<PolyHandle> {
        self.check(x)?;
        self.check(y)?;
        let mut a = self.scratch.take();
        a.copy_from_slice(&self.pool[&x.0]);
        match op {
            PointwiseOp::Mul => pointwise::mul_assign(&self.ring, &mut a, &self.pool[&y.0])?,
            PointwiseOp::Add => pointwise::add_assign(&self.ring, &mut a, &self.pool[&y.0])?,
            PointwiseOp::Sub => pointwise::sub_assign(&self.ring, &mut a, &self.pool[&y.0])?,
        }
        Ok(self.insert(a))
    }

    fn scalar_mul(&mut self, x: PolyHandle, c: u128) -> Result<PolyHandle> {
        self.check(x)?;
        let mut a = self.scratch.take();
        a.copy_from_slice(&self.pool[&x.0]);
        let c = self.ring.from_u128(c);
        pointwise::scalar_mul_assign(&self.ring, &mut a, c);
        Ok(self.insert(a))
    }

    fn poly_mul(&mut self, a: PolyHandle, b: PolyHandle) -> Result<PolyHandle> {
        self.check(a)?;
        self.check(b)?;
        let mut out = self.scratch.take();
        let mut tmp = self.scratch.take();
        self.plan.poly_mul_into(&self.pool[&a.0], &self.pool[&b.0], &mut out, &mut tmp)?;
        self.scratch.put(tmp);
        Ok(self.insert(out))
    }

    fn hadamard_intt(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        self.check(x)?;
        self.check(y)?;
        let mut out = self.scratch.take();
        self.plan.hadamard_intt_into(&self.pool[&x.0], &self.pool[&y.0], &mut out)?;
        Ok(self.insert(out))
    }
}

#[derive(Clone, Copy)]
enum PointwiseOp {
    Mul,
    Add,
    Sub,
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

/// Read-only variant of [`with_engine!`].
macro_rules! with_engine_ref {
    ($self:expr, $st:ident => $body:expr) => {
        match &$self.engine {
            CpuEngine::Narrow($st) => $body,
            CpuEngine::Wide($st) => $body,
        }
    };
}

/// Software execution of the [`PolyBackend`] op set on the host CPU —
/// the reference semantics every accelerator backend must match
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

    /// Butterfly count of one length-`n` transform.
    fn transform_butterflies(&self) -> u64 {
        (self.n as u64 / 2) * self.n.trailing_zeros() as u64
    }

    /// Live pool entries (leak checks in tests).
    #[cfg(test)]
    pub(crate) fn pool_len(&self) -> usize {
        with_engine_ref!(self, st => st.pool.len())
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

    fn download(&mut self, h: PolyHandle) -> Result<Vec<u128>> {
        with_engine!(self, st => st.download(h))
    }

    fn free(&mut self, h: PolyHandle) {
        with_engine!(self, st => st.free(h));
    }

    fn ntt(&mut self, src: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.transform(src, true))?;
        self.report.butterflies += self.transform_butterflies();
        Ok(out)
    }

    fn intt(&mut self, src: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.transform(src, false))?;
        self.report.butterflies += self.transform_butterflies();
        // The n⁻¹ normalization pass.
        self.report.mults += self.n as u64;
        Ok(out)
    }

    fn hadamard(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.pointwise(x, y, PointwiseOp::Mul))?;
        self.report.mults += self.n as u64;
        Ok(out)
    }

    fn pointwise_add(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.pointwise(x, y, PointwiseOp::Add))?;
        self.report.addsubs += self.n as u64;
        Ok(out)
    }

    fn pointwise_sub(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.pointwise(x, y, PointwiseOp::Sub))?;
        self.report.addsubs += self.n as u64;
        Ok(out)
    }

    fn scalar_mul(&mut self, x: PolyHandle, c: u128) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.scalar_mul(x, c))?;
        self.report.mults += self.n as u64;
        Ok(out)
    }

    fn poly_mul(&mut self, a: PolyHandle, b: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.poly_mul(a, b))?;
        self.report.butterflies += 3 * self.transform_butterflies();
        self.report.mults += 2 * self.n as u64; // Hadamard + n⁻¹ passes
        Ok(out)
    }

    /// The single-pass Harvey kernel: the NTT-domain product feeds the
    /// inverse stages directly, with no intermediate pool entry or
    /// canonical correction. Op accounting matches the default
    /// composed path exactly (one Hadamard pass, one transform, one
    /// `n⁻¹` pass).
    fn hadamard_intt(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        let out = with_engine!(self, st => st.hadamard_intt(x, y))?;
        self.report.butterflies += self.transform_butterflies();
        self.report.mults += 2 * self.n as u64;
        Ok(out)
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
        with_engine_ref!(self, st => st.scratch.stats())
    }
}

// ---------------------------------------------------------------------
// Chip backend
// ---------------------------------------------------------------------

/// Cycle-accurate execution of the [`PolyBackend`] op set on the
/// simulated CoFHEE ASIC.
///
/// Handles are host-resident mirrors; each operation stages its operands
/// into the dual-port compute banks of the standard [`crate::BankPlan`],
/// executes the Table I command (or the Algorithm 2 schedule for
/// [`PolyBackend::poly_mul`]), and reads the result back. Wire traffic
/// accrues to [`CommStats`] per the configured [`Link`]; command
/// latencies accumulate in the cumulative [`OpReport`].
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
    pub fn from_device(device: Device) -> Self {
        let n = device.n();
        Self {
            device,
            pool: HashMap::new(),
            report: OpReport::default(),
            scratch: BufferPool::new(n),
            comm_base: CommStats::default(),
            trace: TraceContext::disabled(),
            trace_dma_tail: 0,
        }
    }

    /// The underlying device (inspection: ring, chip, bank plan).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Consumes the backend, returning the device.
    pub fn into_device(self) -> Device {
        self.device
    }

    fn insert(&mut self, v: Vec<u128>) -> PolyHandle {
        let id = fresh_handle_id();
        self.pool.insert(id, v);
        PolyHandle(id)
    }

    fn compute_slots(&self) -> (Slot, Slot, Slot) {
        let plan = self.device.bank_plan();
        (Slot::new(plan.d0, 0), Slot::new(plan.d1, 0), Slot::new(plan.d2, 0))
    }

    fn get(&self, h: PolyHandle) -> Result<&Vec<u128>> {
        self.pool.get(&h.0).ok_or(CoreError::BadHandle { id: h.0 })
    }

    /// Stages `src` into `d0`, runs one single-source command, downloads
    /// the destination bank.
    fn run_unary(
        &mut self,
        src: PolyHandle,
        op: impl FnOnce(&mut Device, Slot, Slot) -> Result<OpReport>,
    ) -> Result<PolyHandle> {
        let (d0, d1, _) = self.compute_slots();
        let v = self.pool.get(&src.0).ok_or(CoreError::BadHandle { id: src.0 })?;
        self.device.upload(d0, v)?;
        let r = op(&mut self.device, d0, d1)?;
        self.report.absorb(&r);
        let out = self.device.download(d1)?;
        Ok(self.insert(out))
    }

    /// Stages `x`/`y` into `d0`/`d1`, runs one two-source command into
    /// `d2`, downloads it.
    fn run_binary(
        &mut self,
        x: PolyHandle,
        y: PolyHandle,
        op: impl FnOnce(&mut Device, Slot, Slot, Slot) -> Result<OpReport>,
    ) -> Result<PolyHandle> {
        let (d0, d1, d2) = self.compute_slots();
        let vx = self.pool.get(&x.0).ok_or(CoreError::BadHandle { id: x.0 })?;
        self.device.upload(d0, vx)?;
        let vy = self.pool.get(&y.0).ok_or(CoreError::BadHandle { id: y.0 })?;
        self.device.upload(d1, vy)?;
        let r = op(&mut self.device, d0, d1, d2)?;
        self.report.absorb(&r);
        let out = self.device.download(d2)?;
        Ok(self.insert(out))
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
        Ok(self.insert(v))
    }

    fn download(&mut self, h: PolyHandle) -> Result<Vec<u128>> {
        Ok(self.get(h)?.clone())
    }

    fn free(&mut self, h: PolyHandle) {
        if let Some(v) = self.pool.remove(&h.0) {
            self.scratch.put(v);
        }
    }

    fn ntt(&mut self, src: PolyHandle) -> Result<PolyHandle> {
        self.run_unary(src, |d, s, t| d.ntt(s, t))
    }

    fn intt(&mut self, src: PolyHandle) -> Result<PolyHandle> {
        self.run_unary(src, |d, s, t| d.intt(s, t))
    }

    fn hadamard(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        self.run_binary(x, y, |d, a, b, t| d.hadamard(a, b, t))
    }

    fn pointwise_add(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        self.run_binary(x, y, |d, a, b, t| d.pointwise_add(a, b, t))
    }

    fn pointwise_sub(&mut self, x: PolyHandle, y: PolyHandle) -> Result<PolyHandle> {
        self.run_binary(x, y, |d, a, b, t| d.pointwise_sub(a, b, t))
    }

    fn scalar_mul(&mut self, x: PolyHandle, c: u128) -> Result<PolyHandle> {
        let (d0, _, d2) = self.compute_slots();
        let v = self.pool.get(&x.0).ok_or(CoreError::BadHandle { id: x.0 })?;
        self.device.upload(d0, v)?;
        let c = self.device.ring().from_u128(c);
        let r = self.device.scalar_mul(d0, c, d2)?;
        self.report.absorb(&r);
        let out = self.device.download(d2)?;
        Ok(self.insert(out))
    }

    fn poly_mul(&mut self, a: PolyHandle, b: PolyHandle) -> Result<PolyHandle> {
        // Algorithm 2 through the device's bank-choreographed schedule.
        let va = self.pool.get(&a.0).ok_or(CoreError::BadHandle { id: a.0 })?;
        let vb = self.pool.get(&b.0).ok_or(CoreError::BadHandle { id: b.0 })?;
        let out = self.device.poly_mul(va, vb)?;
        self.report.absorb(&out.report);
        Ok(self.insert(out.result))
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
    /// `chip_stream` module docs for the schedule.
    fn execute_stream(&mut self, stream: &OpStream) -> Result<StreamOutcome> {
        crate::chip_stream::execute(self, stream)
    }

    fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = ctx;
    }

    fn pool_stats(&self) -> PoolStats {
        self.scratch.stats()
    }
}

#[cfg(test)]
mod tests {
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

    #[test]
    fn upload_download_round_trips_on_both() {
        let (mut cpu, mut chip) = both();
        let v = poly(1);
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let h = be.upload(&v).unwrap();
            assert_eq!(be.download(h).unwrap(), v);
            be.free(h);
            assert!(matches!(be.download(h), Err(CoreError::BadHandle { .. })));
        }
    }

    #[test]
    fn every_op_is_bit_identical_across_backends() {
        let (mut cpu, mut chip) = both();
        let (a, b) = (poly(2), poly(3));
        let run = |be: &mut dyn PolyBackend| -> Vec<Vec<u128>> {
            let ha = be.upload(&a).unwrap();
            let hb = be.upload(&b).unwrap();
            let fa = be.ntt(ha).unwrap();
            let ia = be.intt(fa).unwrap();
            let had = be.hadamard(ha, hb).unwrap();
            let sum = be.pointwise_add(ha, hb).unwrap();
            let diff = be.pointwise_sub(ha, hb).unwrap();
            let scaled = be.scalar_mul(ha, 12345).unwrap();
            let prod = be.poly_mul(ha, hb).unwrap();
            [fa, ia, had, sum, diff, scaled, prod]
                .into_iter()
                .map(|h| be.download(h).unwrap())
                .collect()
        };
        let c = run(&mut cpu);
        let s = run(&mut chip);
        assert_eq!(c, s, "CPU and chip must agree bit-for-bit");
        // iNTT(NTT(a)) = a, and PolyMul matches the naive oracle.
        assert_eq!(c[1], a);
        let ring = Barrett128::new(q()).unwrap();
        assert_eq!(c[6], naive::negacyclic_mul(&ring, &a, &b).unwrap());
    }

    #[test]
    fn telemetry_accumulates_and_resets() {
        let (mut cpu, mut chip) = both();
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let ha = be.upload(&poly(4)).unwrap();
            let hb = be.upload(&poly(5)).unwrap();
            let _ = be.poly_mul(ha, hb).unwrap();
            let r = be.report();
            assert!(r.butterflies > 0, "{} counts butterflies", be.name());
            assert!(r.mults > 0, "{} counts mults", be.name());
            be.reset_telemetry();
            assert_eq!(be.report(), OpReport::default());
        }
        // Cycle accounting differs by design: the chip is cycle-accurate,
        // the CPU reference is zero-cost.
        let ha = chip.upload(&poly(6)).unwrap();
        let hf = chip.ntt(ha).unwrap();
        assert!(chip.report().cycles > 0);
        assert!(chip.comm_stats().bytes > 0, "staging traffic is accounted");
        let _ = hf;
        let ha = cpu.upload(&poly(6)).unwrap();
        let _ = cpu.ntt(ha).unwrap();
        assert_eq!(cpu.report().cycles, 0);
        assert_eq!(cpu.comm_stats(), CommStats::default());
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

    #[test]
    fn wide_moduli_use_the_native_engine() {
        let n = 1 << 6;
        let q109 = ntt_prime(109, n).unwrap();
        let mut cpu = CpuBackend::new(q109, n).unwrap();
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q109, n).unwrap();
        let v: Vec<u128> = (0..n as u128).map(|i| i * 977 + 3).collect();
        let hc = cpu.upload(&v).unwrap();
        let hs = chip.upload(&v).unwrap();
        let fc = cpu.ntt(hc).unwrap();
        let fs = chip.ntt(hs).unwrap();
        assert_eq!(cpu.download(fc).unwrap(), chip.download(fs).unwrap());
    }

    #[test]
    fn moduli_between_62_and_64_bits_fall_back_to_the_wide_engine() {
        // Barrett64 caps at 62 bits; a 63-bit NTT prime must bring up
        // on the 128-bit engine instead of failing.
        let n = 1 << 6;
        let q63 = ntt_prime(63, n).unwrap();
        let mut cpu = CpuBackend::new(q63, n).unwrap();
        let mut chip = ChipBackend::connect(ChipConfig::silicon(), q63, n).unwrap();
        let v: Vec<u128> = (0..n as u128).map(|i| i * 3 + 1).collect();
        let hc = cpu.upload(&v).unwrap();
        let hs = chip.upload(&v).unwrap();
        let fc = cpu.ntt(hc).unwrap();
        let fs = chip.ntt(hs).unwrap();
        assert_eq!(cpu.download(fc).unwrap(), chip.download(fs).unwrap());
    }

    #[test]
    fn foreign_handles_are_rejected_across_backends() {
        let (mut cpu, mut chip) = both();
        let on_cpu = cpu.upload(&poly(9)).unwrap();
        let on_chip = chip.upload(&poly(9)).unwrap();
        assert!(matches!(chip.ntt(on_cpu), Err(CoreError::BadHandle { .. })));
        assert!(matches!(cpu.ntt(on_chip), Err(CoreError::BadHandle { .. })));
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
