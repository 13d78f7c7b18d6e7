//! The session-aware job scheduler: whole homomorphic operations in,
//! per-limb streams placed across dies, finished ciphertexts out.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use cofhee_bfv::{Ciphertext, Plaintext};
use cofhee_ckks::{CkksCiphertext, CkksPlaintext};
use cofhee_core::{JobPlan, OpStream, PlanPhase, SharedSink, StreamOp, StreamReport};
use cofhee_obs::{null_sink, CycleHistogram, MetricsRegistry, TraceEvent, Track};
use cofhee_opt::{optimize_traced, OptLevel};
use cofhee_poly::TwiddleCache;

use crate::error::{FarmError, Result};
use crate::farm::{ChipFarm, Placement};
use crate::policy::PlacementPolicy;
use crate::session::{Session, SessionId};
use crate::telemetry::{FarmReport, LatencyPercentiles};

/// Bytes one polynomial of degree `n` occupies on the host link: a die
/// stores a coefficient as one 128-bit word.
fn poly_bytes(n: usize) -> u64 {
    n as u64 * 16
}

/// Upload payload bytes the streams waiting on the dies may hold before
/// the scheduler flushes between two jobs. A waiting stream keeps its
/// payloads alive, deferred ones included once filled, so this bounds
/// what deferring the dies' arithmetic adds to host memory — a constant,
/// whatever the job list — while a flush still carries a few dozen cheap
/// jobs for the host's cores.
const MAX_WAITING_UPLOAD_BYTES: u64 = 4 << 20;

/// Moves the outputs of the streams in `range`, by [`Placement::index`],
/// out of a flush's outputs.
fn take(outputs: &mut [Vec<Vec<u128>>], range: Range<usize>) -> Vec<Vec<Vec<u128>>> {
    outputs[range].iter_mut().map(std::mem::take).collect()
}

/// A job with every phase placed, its outcome known but for the result,
/// which waits on the dies.
#[derive(Debug)]
struct Pending {
    key: usize,
    id: SessionId,
    arrival: u64,
    finish: u64,
    service_cycles: u64,
    streams: usize,
    /// The streams of each phase not yet read, by [`Placement::index`].
    phases: VecDeque<Range<usize>>,
    /// The host steps still to run, one after each wave of the flush,
    /// and the finisher (its phases are placed).
    plan: JobPlan<JobResult, FarmError>,
    /// Why a host step failed, which leaves the later phases unrun.
    failed: Option<FarmError>,
}

impl Pending {
    /// Runs the job's next host step, if it has one, on the outputs of
    /// the phase before it. Returns whether one ran.
    ///
    /// The steps run on the calling thread: the BFV CRT spreads its
    /// coefficients over the host's cores itself, and a step allocates
    /// the uploads it fills, which host threads of their own would take
    /// from heap arenas of their own.
    fn step(&mut self, outputs: &mut [Vec<Vec<u128>>]) -> bool {
        if self.plan.steps.is_empty() {
            return false;
        }
        let step = self.plan.steps.remove(0);
        let inputs = self.phases.pop_front().expect("a step reads the phase before it");
        if let Err(e) = step(take(outputs, inputs)) {
            self.failed = Some(e);
            self.plan.steps.clear();
        }
        true
    }

    /// The job's outcome, built from the outputs of a flush.
    fn complete(mut self, outputs: &mut [Vec<Vec<u128>>]) -> Result<JobOutcome> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let last = self.phases.pop_back().expect("a plan has a phase");
        Ok(JobOutcome {
            index: self.key,
            session: self.id,
            result: (self.plan.finish)(take(outputs, last))?,
            arrival: self.arrival,
            finish: self.finish,
            latency: self.finish.saturating_sub(self.arrival),
            service_cycles: self.service_cycles,
            streams: self.streams,
        })
    }
}

/// One placed phase of a job: its streams, by [`Placement::index`], when
/// the last of them finishes, its critical-path service (the widest
/// stream) and the bytes of the polynomials its streams hand back.
struct Phase {
    streams: Range<usize>,
    finish: u64,
    service: u64,
    output_bytes: u64,
}

/// A job placed in virtual time whose result the farm has not computed
/// yet: what [`Scheduler::place_job`] knows once every phase is priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PricedJob {
    /// Virtual cycle the last of the job's streams finishes.
    pub finish: u64,
    /// Critical-path service cycles, as [`JobOutcome::service_cycles`].
    pub service_cycles: u64,
    /// Bytes the result will hold, one 128-bit word per coefficient of
    /// each of its polynomials.
    pub result_bytes: u64,
}

/// One homomorphic operation submitted to the farm.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// Ciphertext + ciphertext addition.
    Add(Ciphertext, Ciphertext),
    /// Ciphertext + plaintext addition.
    AddPlain(Ciphertext, Plaintext),
    /// Ciphertext × plaintext multiplication.
    MulPlain(Ciphertext, Plaintext),
    /// Ciphertext × ciphertext multiplication followed by
    /// relinearization — the paper's `EvalMult` + key switch.
    MulRelin(Ciphertext, Ciphertext),
    /// CKKS slot-wise addition (same level and scale).
    CkksAdd(CkksCiphertext, CkksCiphertext),
    /// CKKS ciphertext × encoded-plaintext multiplication.
    CkksMulPlain(CkksCiphertext, CkksPlaintext),
    /// CKKS ciphertext multiplication, relinearized and rescaled — the
    /// full product pipeline, landing one level down at ≈ Δ.
    CkksMulRelin(CkksCiphertext, CkksCiphertext),
}

impl JobKind {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Add(..) => "ct+ct",
            Self::AddPlain(..) => "ct+pt",
            Self::MulPlain(..) => "ct*pt",
            Self::MulRelin(..) => "ct*ct+relin",
            Self::CkksAdd(..) => "ckks:ct+ct",
            Self::CkksMulPlain(..) => "ckks:ct*pt",
            Self::CkksMulRelin(..) => "ckks:ct*ct+relin+rescale",
        }
    }
}

/// A completed job's ciphertext, tagged by scheme.
#[derive(Debug, Clone)]
pub enum JobResult {
    /// A BFV result.
    Bfv(Ciphertext),
    /// A CKKS result.
    Ckks(CkksCiphertext),
}

impl JobResult {
    /// The BFV ciphertext, when the job was a BFV job.
    pub fn as_bfv(&self) -> Option<&Ciphertext> {
        match self {
            Self::Bfv(ct) => Some(ct),
            Self::Ckks(_) => None,
        }
    }

    /// The CKKS ciphertext, when the job was a CKKS job.
    pub fn as_ckks(&self) -> Option<&CkksCiphertext> {
        match self {
            Self::Ckks(ct) => Some(ct),
            Self::Bfv(_) => None,
        }
    }

    /// The BFV ciphertext.
    ///
    /// # Panics
    ///
    /// Panics when the job was a CKKS job.
    pub fn expect_bfv(&self) -> &Ciphertext {
        self.as_bfv().expect("BFV result expected, job produced a CKKS ciphertext")
    }

    /// The CKKS ciphertext.
    ///
    /// # Panics
    ///
    /// Panics when the job was a BFV job.
    pub fn expect_ckks(&self) -> &CkksCiphertext {
        self.as_ckks().expect("CKKS result expected, job produced a BFV ciphertext")
    }

    /// Number of ciphertext components, scheme-independent.
    pub fn len(&self) -> usize {
        match self {
            Self::Bfv(ct) => ct.len(),
            Self::Ckks(ct) => ct.len(),
        }
    }

    /// Always false — both schemes' ciphertexts carry ≥ 2 components.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A job: which session it belongs to, what to compute, and when it
/// arrives on the farm's virtual clock.
#[derive(Debug, Clone)]
pub struct Job {
    /// The session whose keys and parameters the job runs under.
    pub session: SessionId,
    /// The operation.
    pub kind: JobKind,
    /// Arrival time in simulated cycles (the offered-load model).
    pub arrival: u64,
}

/// What one completed job hands back.
#[derive(Debug)]
pub struct JobOutcome {
    /// The caller's key for the job: its index in the list handed to
    /// [`Scheduler::run`] (the outcome vector itself is in arrival
    /// order), or the key handed to [`Scheduler::place_job`].
    pub index: usize,
    /// The owning session.
    pub session: SessionId,
    /// The resulting ciphertext, tagged by scheme.
    pub result: JobResult,
    /// Arrival cycle.
    pub arrival: u64,
    /// Virtual cycle the last of the job's streams finished.
    pub finish: u64,
    /// `finish − arrival`: queueing plus compute, simulated cycles.
    pub latency: u64,
    /// Pure execution time along the job's dependency chain had it
    /// never waited for a die: the critical-path sum of its streams'
    /// overlapped cycles. `latency − service_cycles` is the time the
    /// job spent queued — the split service front-ends report.
    pub service_cycles: u64,
    /// Streams the job decomposed into.
    pub streams: usize,
}

/// Multiplexes tenant jobs across a [`ChipFarm`] under a pluggable
/// [`PlacementPolicy`].
///
/// The scheduler is **deterministic end to end**: jobs are processed in
/// arrival order (submission order breaking ties), policies see only
/// virtual-time state, and every die computes bit-identically — so a
/// fixed job list yields bit-identical ciphertexts and identical
/// telemetry across repeated runs, and bit-identical ciphertexts
/// regardless of chip count or policy (only the *timing* telemetry
/// responds to placement).
///
/// Every job kind is placed the same way. Its session lowers it to a
/// [`JobPlan`]: phases of per-limb streams, the host steps between them
/// (BFV's CRT reconstruction and rounding, CKKS's compose and digit
/// decomposition or its rescale lift) and a finisher. A plan is recorded
/// whole before anything is placed, so a job refused while recording
/// leaves no die time. The later phases are recorded and priced from
/// their shape alone, before the host has computed their operands: those
/// are deferred uploads ([`cofhee_core::Payload::deferred`]), so
/// [`Scheduler::place_job`] places every phase in one loop, each ready
/// when the phase before it finishes.
///
/// The dies' arithmetic runs on host threads, and nothing a policy, a
/// report or a trace sees depends on that. Recording, pricing and
/// placement run on the calling thread, in arrival order, and every
/// simulated number, metric and trace event comes from pricing
/// ([`ChipFarm::place`]). The arithmetic waits on the dies until a
/// flush ([`Scheduler::flush`]), which runs in waves: each wave applies
/// every program whose uploads are filled, then every job's next host
/// step runs on the calling thread and fills the next phase's uploads.
/// The scheduler flushes only when the waiting upload payloads reach a
/// fixed bound and before [`Scheduler::run`] returns; a front-end that
/// places jobs one by one flushes when it needs a result.
///
/// # Example
///
/// ```
/// use cofhee_bfv::{BfvParams, Encryptor, KeyGenerator, Plaintext};
/// use cofhee_core::ChipBackendFactory;
/// use cofhee_farm::{ChipFarm, Job, JobKind, Scheduler, Session, WorkStealing};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let params = BfvParams::insecure_testing(32)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// let kg = KeyGenerator::new(&params, &mut rng);
/// let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
///
/// let farm = ChipFarm::new(2, ChipBackendFactory::silicon())?;
/// let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
/// let tenant = sched.open_session(Session::new(
///     "tenant-a",
///     &params,
///     kg.relin_key(16, &mut rng)?,
/// )?);
///
/// let a = enc.encrypt(&Plaintext::new(&params, vec![3; 32])?, &mut rng)?;
/// let b = enc.encrypt(&Plaintext::new(&params, vec![4; 32])?, &mut rng)?;
/// let outcomes = sched.run(vec![Job {
///     session: tenant,
///     kind: JobKind::Add(a, b),
///     arrival: 0,
/// }])?;
/// assert_eq!(outcomes.len(), 1);
/// assert!(sched.report().makespan_cycles > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scheduler {
    farm: ChipFarm,
    policy: Box<dyn PlacementPolicy>,
    sessions: Vec<Session>,
    /// Per-job latency / queue-wait / critical-path-service cycles,
    /// kept as mergeable log₂ histograms so million-job replays stay
    /// O(1) memory (the exact nearest-rank path survives as the test
    /// oracle in `telemetry`).
    latencies: CycleHistogram,
    queue_cycles: CycleHistogram,
    service_cycles: CycleHistogram,
    /// Trace sink for job lifecycle spans, phase spans, and placement
    /// instants; the null sink unless installed.
    trace: SharedSink,
    jobs_done: u64,
    stream_totals: StreamReport,
    /// Polynomial bytes the executed streams uploaded to dies (every
    /// `Upload` node), and the part of them that was key-switch key
    /// material (`2 · digits` polynomials per key-switch stream).
    upload_bytes: u64,
    key_bytes: u64,
    /// Stream-compiler level applied to every stream before placement
    /// (`O0` by default).
    opt_level: OptLevel,
    /// Jobs placed whole whose results wait on the dies, in placement
    /// order.
    pending: Vec<Pending>,
    /// Upload payload bytes of the streams waiting on the dies.
    waiting_bytes: u64,
}

impl Scheduler {
    /// Builds a scheduler over `farm` with the given placement policy.
    pub fn new(farm: ChipFarm, policy: Box<dyn PlacementPolicy>) -> Self {
        Self {
            farm,
            policy,
            sessions: Vec::new(),
            latencies: CycleHistogram::new(),
            queue_cycles: CycleHistogram::new(),
            service_cycles: CycleHistogram::new(),
            trace: null_sink(),
            jobs_done: 0,
            stream_totals: StreamReport::default(),
            upload_bytes: 0,
            key_bytes: 0,
            opt_level: OptLevel::O0,
            pending: Vec::new(),
            waiting_bytes: 0,
        }
    }

    /// Installs a trace sink on the scheduler *and* its farm: job
    /// lifecycle spans and phase chains land on per-job tenant tracks,
    /// placement instants and batch drains on the per-die tracks.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.farm.set_trace_sink(Arc::clone(&sink));
        self.trace = sink;
    }

    /// Jobs completed so far — also the sequence number the *next* job
    /// will trace under (front-ends use it to pre-label queue spans on
    /// the same per-job track the scheduler will write).
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done
    }

    /// Sets the stream-compiler level applied to every subsequent
    /// stream. Bit-exact at every level — only timing telemetry and
    /// placement change.
    pub fn set_opt_level(&mut self, level: OptLevel) {
        self.opt_level = level;
    }

    /// The stream-compiler level currently applied before placement.
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// Registers a tenant session; ids are sequential in open order.
    pub fn open_session(&mut self, session: Session) -> SessionId {
        self.sessions.push(session);
        SessionId::new(self.sessions.len() as u64 - 1)
    }

    /// Looks up an open session.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::UnknownSession`] for ids never issued.
    pub fn session(&self, id: SessionId) -> Result<&Session> {
        self.sessions.get(id.raw() as usize).ok_or(FarmError::UnknownSession { id: id.raw() })
    }

    /// The underlying farm (inspection).
    pub fn farm(&self) -> &ChipFarm {
        &self.farm
    }

    /// Compiles one stream at the scheduler's [`OptLevel`] (as recorded
    /// at `O0`) and places it whole on the die the policy picks, where
    /// it is priced. What the compiler eliminated joins the farm's
    /// stream telemetry; with a trace sink installed, each rewrite lands
    /// as a compiler-track instant at `ready`, the stream's virtual
    /// ready time.
    fn place(&mut self, q: u128, mut stream: OpStream, ready: u64) -> Result<Placement> {
        if self.opt_level != OptLevel::O0 {
            let (opt, stats) = optimize_traced(&stream, self.opt_level, &self.trace, ready)?;
            self.stream_totals.ops_eliminated += stats.ops_eliminated;
            stream = opt;
        }
        let statuses = self.farm.statuses();
        let chip = self.policy.place(&statuses, ready);
        if chip >= statuses.len() {
            return Err(FarmError::UnknownChip { chip, chips: statuses.len() });
        }
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(Track::DieCompute(chip), "place", ready)
                    .arg("ops", stream.len() as u64),
            );
        }
        let n = stream.n();
        let uploads = stream.nodes().iter().filter(|op| matches!(op, StreamOp::Upload(_))).count();
        let placed = self.farm.place(chip, q, n, stream, ready)?;
        self.stream_totals.absorb(&placed.report);
        let bytes = uploads as u64 * poly_bytes(n);
        self.upload_bytes = self.upload_bytes.saturating_add(bytes);
        self.waiting_bytes = self.waiting_bytes.saturating_add(bytes);
        Ok(placed)
    }

    /// Places one phase of a plan: per-limb streams that are all ready at
    /// `ready`, and the key material they upload.
    fn place_phase(&mut self, phase: PlanPhase, ready: u64) -> Result<Phase> {
        let n = phase.streams.first().map_or(0, OpStream::n);
        let polys: usize = phase.streams.iter().map(|st| st.outputs().len()).sum();
        let output_bytes = polys as u64 * poly_bytes(n);
        let mut placed = Phase { streams: 0..0, finish: ready, service: 0, output_bytes };
        for (stream, q) in phase.streams.into_iter().zip(phase.moduli) {
            let p = self.place(q, stream, ready)?;
            if placed.streams.is_empty() {
                placed.streams.start = p.index;
            }
            placed.streams.end = p.index + 1;
            placed.finish = placed.finish.max(p.finish);
            placed.service = placed.service.max(p.finish - p.start);
        }
        self.key_bytes += phase.key_polys as u64 * poly_bytes(n);
        Ok(placed)
    }

    /// Computes every job placed since the last flush and hands back the
    /// outcome of each, in placement order.
    ///
    /// The dies' arithmetic runs in waves: the first applies every job's
    /// first phase; between waves each job's next host step runs, in
    /// placement order, and fills the uploads its next phase was priced
    /// without. A flush has as many waves as its longest plan has phases
    /// (three, the CKKS multiply).
    ///
    /// # Errors
    ///
    /// The earliest-placed stream's chip fault, else the first failed
    /// host step in placement order. Every job placed is gone either way.
    pub fn flush(&mut self) -> Result<Vec<JobOutcome>> {
        self.waiting_bytes = 0;
        let mut pending = std::mem::take(&mut self.pending);
        // Between waves, every job's next host step, in placement order.
        let mut outputs = self
            .farm
            .flush(|outputs| pending.iter_mut().fold(false, |ran, job| job.step(outputs) | ran))?;
        pending.into_iter().map(|job| job.complete(&mut outputs)).collect()
    }

    /// Places every phase of one job in virtual time and records its
    /// telemetry, leaving its arithmetic and host steps to the next
    /// flush. Returns what the job costs, and — when its uploads brought
    /// the streams waiting on the dies to 4 MiB, which flushes here — the
    /// outcomes of that flush, this job's included. `key` comes back as
    /// the outcome's [`JobOutcome::index`].
    ///
    /// # Errors
    ///
    /// Unknown sessions and recording failures of this job (which leave
    /// no trace on the farm), its pricing faults (which leave no
    /// outcome), and the errors of a flush.
    pub fn place_job(&mut self, key: usize, job: &Job) -> Result<(PricedJob, Vec<JobOutcome>)> {
        let mut plan = self.session(job.session)?.plan(job.session, &job.kind)?;
        let (mut finish, mut service, mut result_bytes) = (job.arrival, 0u64, 0);
        let mut streams = 0;
        let mut phases = VecDeque::with_capacity(plan.phases.len());
        // Phase spans, traced once the whole job is placed.
        let mut spans = Vec::new();
        for phase in std::mem::take(&mut plan.phases) {
            let (name, ready) = (phase.name, finish);
            streams += phase.streams.len();
            let placed = self.place_phase(phase, ready)?;
            // Critical-path service: every phase's widest stream — what
            // the job would cost on an idle farm.
            service = service.saturating_add(placed.service);
            (finish, result_bytes) = (placed.finish, placed.output_bytes);
            if self.trace.enabled() {
                spans.push((name, ready, finish));
            }
            phases.push_back(placed.streams);
        }
        if self.trace.enabled() {
            // The phase spans tile the job span; the job span has the
            // longest duration at the same start, so it sorts — and
            // nests — as their parent.
            let track = Track::Job { tenant: job.session.raw(), seq: self.jobs_done };
            for (name, start, end) in spans {
                self.trace.record(TraceEvent::span(track, name, start, end));
            }
            self.trace.record(
                TraceEvent::span(track, job.kind.name(), job.arrival, finish)
                    .arg("streams", streams as u64)
                    .arg("service_cycles", service),
            );
        }
        let latency = finish.saturating_sub(job.arrival);
        self.latencies.record(latency);
        self.queue_cycles.record(latency.saturating_sub(service));
        self.service_cycles.record(service);
        self.jobs_done += 1;
        let priced = PricedJob { finish, service_cycles: service, result_bytes };
        self.pending.push(Pending {
            key,
            id: job.session,
            arrival: job.arrival,
            finish,
            service_cycles: service,
            streams,
            phases,
            plan,
            failed: None,
        });
        let flushed =
            if self.waiting_bytes >= MAX_WAITING_UPLOAD_BYTES { self.flush()? } else { Vec::new() };
        Ok((priced, flushed))
    }

    /// Runs a batch of jobs to completion in arrival order (submission
    /// order breaks ties), returning per-job outcomes in that order:
    /// [`Scheduler::place_job`] for each, then [`Scheduler::flush`].
    ///
    /// # Errors
    ///
    /// Unknown sessions, recording failures, chip faults (tagged with
    /// the die index) — the earliest in placement order: a job that
    /// fails to place is reported only once every stream placed before
    /// it has run.
    pub fn run(&mut self, jobs: Vec<Job>) -> Result<Vec<JobOutcome>> {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| (jobs[i].arrival, i));
        let mut outcomes = Vec::new();
        let placed = order.iter().try_for_each(|&i| -> Result<()> {
            outcomes.extend(self.place_job(i, &jobs[i])?.1);
            Ok(())
        });
        outcomes.extend(self.flush()?);
        placed?;
        Ok(outcomes)
    }

    /// The aggregate telemetry of everything this scheduler has run.
    pub fn report(&self) -> FarmReport {
        let chips = self.farm.chip_stats();
        let streams = chips.iter().fold(0u64, |acc, c| acc.saturating_add(c.streams));
        FarmReport {
            policy: self.policy.name(),
            chips,
            jobs: self.jobs_done,
            streams,
            makespan_cycles: self.farm.makespan(),
            latency: LatencyPercentiles::from_histogram(&self.latencies),
            queue: LatencyPercentiles::from_histogram(&self.queue_cycles),
            service: LatencyPercentiles::from_histogram(&self.service_cycles),
            stream_totals: self.stream_totals,
            freq_hz: self.farm.freq_hz(),
        }
    }

    /// A machine-readable metrics snapshot of everything this scheduler
    /// has run: farm-level counters, per-die busy/queue-depth series,
    /// the three latency histograms, the process-wide twiddle-cache
    /// counters (the chip's NTT constant store — farm workloads should
    /// hit it far more often than they miss), the farm-wide
    /// staging-pool recycling counters under `farm.pool.*`, and what a
    /// key switch leaves on the link and on the dies: the polynomial
    /// uploads split into `farm.dma.key_bytes` (key-switch key material)
    /// and `farm.dma.operand_bytes` (everything else) — together
    /// `stream_totals.uploaded_bytes` less the command words —
    /// `farm.ops.butterflies` (the transforms the dies retired) and
    /// `farm.placement.imbalance` (busiest die over mean die busy
    /// cycles, in thousandths: 1000 is a perfectly even farm).
    ///
    /// Built on demand — the hot path never touches a string-keyed map.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("farm.jobs", self.jobs_done);
        m.gauge_set("farm.makespan_cycles", self.farm.makespan().min(i64::MAX as u64) as i64);
        let chips = self.farm.chip_stats();
        let busy = chips.iter().fold(0u128, |acc, c| acc + u128::from(c.busy_cycles));
        let peak = chips.iter().map(|c| u128::from(c.busy_cycles)).max().unwrap_or(0);
        if let Some(imbalance) = (peak * 1000 * chips.len() as u128).checked_div(busy) {
            m.gauge_set("farm.placement.imbalance", imbalance.min(i64::MAX as u128) as i64);
        }
        m.counter_add("farm.dma.key_bytes", self.key_bytes);
        m.counter_add("farm.dma.operand_bytes", self.upload_bytes.saturating_sub(self.key_bytes));
        m.counter_add("farm.ops.butterflies", self.farm.op_report().butterflies);
        for c in chips {
            m.counter_add(&format!("farm.die{}.streams", c.chip), c.streams);
            m.counter_add(&format!("farm.die{}.busy_cycles", c.chip), c.busy_cycles);
            m.gauge_set(&format!("farm.die{}.queue_depth_max", c.chip), c.max_queue_depth as i64);
        }
        m.histogram_merge("farm.latency_cycles", &self.latencies);
        m.histogram_merge("farm.queue_cycles", &self.queue_cycles);
        m.histogram_merge("farm.service_cycles", &self.service_cycles);
        let tw = TwiddleCache::stats();
        m.counter_add("twiddle_cache.hits", tw.hits);
        m.counter_add("twiddle_cache.misses", tw.misses);
        // Staging-buffer recycling across every die backend: in steady
        // state `farm.pool.misses` stops growing (see cofhee_poly::pool).
        let pool = self.farm.pool_stats();
        m.record_pool_counters(
            "farm.pool",
            pool.hits,
            pool.misses,
            pool.recycled,
            pool.resident,
            pool.high_water,
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::WorkStealing;
    use cofhee_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cofhee_ckks::Level;
    use cofhee_core::ChipBackendFactory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Tenant {
        params: BfvParams,
        enc: Encryptor,
        dec: Decryptor,
        rlk: cofhee_bfv::RelinKey,
        rng: StdRng,
    }

    fn tenant(seed: u64) -> Tenant {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        Tenant {
            enc: Encryptor::new(&params, pk),
            dec: Decryptor::new(&params, kg.secret_key().clone()),
            rlk: kg.relin_key(16, &mut rng).unwrap(),
            params,
            rng,
        }
    }

    fn encrypt(t: &mut Tenant, v: u64) -> Ciphertext {
        let mut coeffs = vec![0u64; t.params.n()];
        coeffs[0] = v;
        t.enc.encrypt(&Plaintext::new(&t.params, coeffs).unwrap(), &mut t.rng).unwrap()
    }

    fn sched(chips: usize, policy: Box<dyn PlacementPolicy>, t: &Tenant) -> (Scheduler, SessionId) {
        let farm = ChipFarm::new(chips, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, policy);
        let id = s.open_session(Session::new("tenant", &t.params, t.rlk.clone()).unwrap());
        (s, id)
    }

    #[test]
    fn jobs_of_every_kind_decrypt_correctly() {
        let mut t = tenant(31);
        let (mut s, id) = sched(2, Box::new(WorkStealing), &t);
        let a = encrypt(&mut t, 9);
        let b = encrypt(&mut t, 11);
        let mut pt30 = vec![0u64; t.params.n()];
        pt30[0] = 30;
        let pt = Plaintext::new(&t.params, pt30).unwrap();
        let outcomes = s
            .run(vec![
                Job { session: id, kind: JobKind::Add(a.clone(), b.clone()), arrival: 0 },
                Job { session: id, kind: JobKind::AddPlain(a.clone(), pt.clone()), arrival: 0 },
                Job { session: id, kind: JobKind::MulPlain(a.clone(), pt.clone()), arrival: 0 },
                Job { session: id, kind: JobKind::MulRelin(a, b), arrival: 0 },
            ])
            .unwrap();
        let decrypted: Vec<u64> = outcomes
            .iter()
            .map(|o| t.dec.decrypt(o.result.expect_bfv()).unwrap().coeffs()[0])
            .collect();
        assert_eq!(decrypted, vec![20, 39, 270, 99]);
        assert_eq!(outcomes[3].streams, t.params.mult_basis().moduli().len() + 1);
        let report = s.report();
        assert_eq!(report.jobs, 4);
        assert!(report.makespan_cycles > 0);
        assert!(report.latency.p50 > 0);
        assert!(report.stream_totals.serial_cycles >= report.stream_totals.overlapped_cycles);
        // The queue/service split covers the whole latency: every job's
        // latency is its service time plus the cycles it waited.
        for o in &outcomes {
            assert!(o.service_cycles > 0, "streams cost real cycles");
            assert!(o.service_cycles <= o.latency);
        }
        assert!(report.service.p50 > 0);
        assert!(report.queue.max <= report.latency.max);
    }

    #[test]
    fn mul_relin_without_relin_material_is_a_typed_error() {
        let mut t = tenant(36);
        let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        let id = s.open_session(Session::without_relin("keyless", &t.params).unwrap());
        let a = encrypt(&mut t, 2);
        // Additions still run fine without key-switch material…
        let ok = s
            .run(vec![Job { session: id, kind: JobKind::Add(a.clone(), a.clone()), arrival: 0 }])
            .unwrap();
        assert_eq!(t.dec.decrypt(ok[0].result.expect_bfv()).unwrap().coeffs()[0], 4);
        // …but a multiply needs the key, typed.
        let err = s
            .run(vec![Job { session: id, kind: JobKind::MulRelin(a.clone(), a), arrival: 0 }])
            .unwrap_err();
        assert!(matches!(err, FarmError::MissingRelinKey { id: 0 }));
    }

    #[test]
    fn mul_relin_under_another_parameter_sets_key_is_a_typed_error() {
        let mut t = tenant(37);
        let a = encrypt(&mut t, 3);
        let n = t.params.n();
        // A 59-bit q keeps the digit count (foreign ring only); a 40-bit
        // q also yields one digit too few.
        for bits in [59, 40] {
            let q = cofhee_arith::primes::ntt_prime(bits, n).unwrap();
            let other = BfvParams::new(n, t.params.t(), q).unwrap();
            let rlk = KeyGenerator::new(&other, &mut t.rng).relin_key(16, &mut t.rng).unwrap();
            let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
            let mut s = Scheduler::new(farm, Box::new(WorkStealing));
            // The handle is valid: the session opens under the tenant's
            // own parameters, only the key material is foreign.
            let id = s.open_session(Session::new("mixed-up", &t.params, rlk).unwrap());
            let before = s.report();
            let err = s
                .run(vec![Job {
                    session: id,
                    kind: JobKind::MulRelin(a.clone(), a.clone()),
                    arrival: 0,
                }])
                .unwrap_err();
            assert!(
                matches!(err, FarmError::Bfv(cofhee_bfv::BfvError::ParamsMismatch)),
                "{bits}-bit key: {err}"
            );
            let after = s.report();
            assert_eq!(after.jobs, 0, "a refused job leaves no outcome");
            assert_eq!(
                (after.chips, after.streams),
                (before.chips, before.streams),
                "nor die time"
            );
        }
    }

    #[test]
    fn results_are_identical_across_farm_sizes() {
        let mut t = tenant(32);
        let a = encrypt(&mut t, 5);
        let b = encrypt(&mut t, 7);
        let jobs = |id: SessionId| {
            vec![
                Job { session: id, kind: JobKind::MulRelin(a.clone(), b.clone()), arrival: 0 },
                Job { session: id, kind: JobKind::Add(a.clone(), b.clone()), arrival: 100 },
            ]
        };
        let mut reference: Option<Vec<Vec<Vec<u128>>>> = None;
        for chips in 1..=4 {
            let (mut s, id) = sched(chips, Box::new(WorkStealing), &t);
            let outcomes = s.run(jobs(id)).unwrap();
            let values: Vec<Vec<Vec<u128>>> = outcomes
                .iter()
                .map(|o| o.result.expect_bfv().polys().iter().map(|p| p.to_u128_vec()).collect())
                .collect();
            match &reference {
                None => reference = Some(values),
                Some(r) => assert_eq!(&values, r, "{chips}-chip farm diverged"),
            }
        }
    }

    /// On one die every job shares its backends, so the flush applies a
    /// later-placed program before an earlier-placed one: the add and
    /// the plain product (wave 1) run on the `q` backend ahead of the
    /// key switch placed there before them (wave 2), and the CKKS add
    /// (wave 1) on the limb backends ahead of the rescale (wave 3). A
    /// farm program uploads every operand it reads, so that order
    /// changes no word: each job computes what it computes alone.
    #[test]
    fn programs_applied_out_of_placement_order_across_waves_compute_what_each_job_does_alone() {
        let mut t = tenant(48);
        let mut c = ckks_tenant(49);
        let (a, b) = (encrypt(&mut t, 6), encrypt(&mut t, 7));
        let (ca, cb) = (ckks_encrypt(&mut c, &[1.5, 2.0]), ckks_encrypt(&mut c, &[0.5, -1.0]));
        let pt = Plaintext::constant(&t.params, 3).unwrap();
        let kinds = [
            JobKind::MulRelin(a.clone(), b.clone()),
            JobKind::CkksMulRelin(ca.clone(), cb.clone()),
            JobKind::Add(a.clone(), b.clone()),
            JobKind::CkksAdd(ca, cb),
            JobKind::MulPlain(a, pt),
        ];
        let farm = || {
            let mut s = Scheduler::new(
                ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap(),
                Box::new(WorkStealing),
            );
            let bfv = s.open_session(Session::new("exact", &t.params, t.rlk.clone()).unwrap());
            let ckks =
                s.open_session(Session::new_ckks("approx", &c.params, c.rlk.clone()).unwrap());
            (s, bfv, ckks)
        };
        let job = |kind: &JobKind, bfv, ckks, arrival| {
            let session = if kind.name().starts_with("ckks:") { ckks } else { bfv };
            Job { session, kind: kind.clone(), arrival }
        };
        let words = |o: &JobOutcome| -> Vec<Vec<u128>> {
            match &o.result {
                JobResult::Bfv(ct) => ct.polys().iter().map(|p| p.to_u128_vec()).collect(),
                JobResult::Ckks(ct) => {
                    ct.components().iter().flatten().map(|l| l.to_u128_vec()).collect()
                }
            }
        };
        let (mut together, bfv, ckks) = farm();
        let jobs = kinds.iter().enumerate().map(|(i, k)| job(k, bfv, ckks, i as u64)).collect();
        let batch = together.run(jobs).unwrap();
        assert_eq!(together.farm().chips(), 1);
        for (i, (kind, o)) in kinds.iter().zip(&batch).enumerate() {
            let (mut alone, bfv, ckks) = farm();
            let single = alone.run(vec![job(kind, bfv, ckks, i as u64)]).unwrap();
            assert_eq!(words(&single[0]), words(o), "{}", kind.name());
        }
        assert_eq!(t.dec.decrypt(batch[0].result.expect_bfv()).unwrap().coeffs()[0], 42);
        let prod = ckks_decode(&c, batch[1].result.expect_ckks(), 2);
        assert!((prod[0] - 0.75).abs() < 1e-3 && (prod[1] + 2.0).abs() < 1e-3, "{prod:?}");
    }

    #[test]
    fn multi_chip_farms_shorten_the_makespan() {
        let mut t = tenant(33);
        let a = encrypt(&mut t, 2);
        let b = encrypt(&mut t, 3);
        let jobs = |id: SessionId| {
            (0..4)
                .map(|_| Job {
                    session: id,
                    kind: JobKind::MulRelin(a.clone(), b.clone()),
                    arrival: 0,
                })
                .collect::<Vec<_>>()
        };
        let (mut one, id1) = sched(1, Box::new(WorkStealing), &t);
        one.run(jobs(id1)).unwrap();
        let (mut four, id4) = sched(4, Box::new(WorkStealing), &t);
        four.run(jobs(id4)).unwrap();
        let (m1, m4) = (one.report().makespan_cycles, four.report().makespan_cycles);
        assert!(m4 * 2 < m1, "4 dies must cut the makespan by well over 2x: {m1} -> {m4}");
    }

    #[test]
    fn opt_levels_preserve_results_and_o1_drops_the_repeated_operand() {
        let mut t = tenant(37);
        let a = encrypt(&mut t, 6);
        // `a · a`: the one shape `O1` has something to drop.
        let jobs = |id: SessionId| {
            vec![Job { session: id, kind: JobKind::MulRelin(a.clone(), a.clone()), arrival: 0 }]
        };

        let (mut s0, id0) = sched(4, Box::new(WorkStealing), &t);
        let baseline = s0.run(jobs(id0)).unwrap();
        assert_eq!(s0.opt_level(), OptLevel::O0);
        assert_eq!(s0.report().stream_totals.ops_eliminated, 0, "O0 executes as recorded");

        let (mut s, id) = sched(4, Box::new(WorkStealing), &t);
        s.set_opt_level(OptLevel::O1);
        let outcomes = s.run(jobs(id)).unwrap();
        assert_eq!(s.opt_level(), OptLevel::O1);
        for (p, d) in outcomes[0]
            .result
            .expect_bfv()
            .polys()
            .iter()
            .zip(baseline[0].result.expect_bfv().polys())
        {
            assert_eq!(p.coeffs(), d.coeffs(), "O1 must be bit-exact");
        }
        assert_eq!(t.dec.decrypt(outcomes[0].result.expect_bfv()).unwrap().coeffs()[0], 36);
        let report = s.report();
        assert!(report.stream_totals.ops_eliminated > 0, "O1: rewrites are reported");
        assert_eq!(report.streams, s0.report().streams, "every stream is placed whole");
    }

    #[test]
    fn sessions_are_isolated_and_unknown_ids_are_typed_errors() {
        let mut ta = tenant(34);
        let mut tb = tenant(35);
        let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        let ida = s.open_session(Session::new("a", &ta.params, ta.rlk.clone()).unwrap());
        let idb = s.open_session(Session::new("b", &tb.params, tb.rlk.clone()).unwrap());
        let ca = encrypt(&mut ta, 4);
        let cb = encrypt(&mut tb, 6);
        let outcomes = s
            .run(vec![
                Job { session: ida, kind: JobKind::MulRelin(ca.clone(), ca), arrival: 0 },
                Job { session: idb, kind: JobKind::MulRelin(cb.clone(), cb), arrival: 0 },
            ])
            .unwrap();
        // Each tenant decrypts its own result with its own key.
        assert_eq!(ta.dec.decrypt(outcomes[0].result.expect_bfv()).unwrap().coeffs()[0], 16);
        assert_eq!(tb.dec.decrypt(outcomes[1].result.expect_bfv()).unwrap().coeffs()[0], 36);
        // Foreign session ids fail typed. (Only the crate can even
        // construct an unissued id — the public type is opaque.)
        let err = s
            .run(vec![Job {
                session: SessionId::new(99),
                kind: JobKind::Add(encrypt(&mut ta, 1), encrypt(&mut ta, 1)),
                arrival: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, FarmError::UnknownSession { id: 99 }));
    }
    struct CkksTenant {
        params: cofhee_ckks::CkksParams,
        encoder: cofhee_ckks::CkksEncoder,
        enc: cofhee_ckks::CkksEncryptor,
        dec: cofhee_ckks::CkksDecryptor,
        rlk: cofhee_ckks::CkksRelinKey,
        rng: StdRng,
    }

    fn ckks_tenant(seed: u64) -> CkksTenant {
        let params = cofhee_ckks::CkksParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = cofhee_ckks::CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let pk = kg.public_key(&sk, &mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        CkksTenant {
            encoder: cofhee_ckks::CkksEncoder::new(&params),
            enc: cofhee_ckks::CkksEncryptor::new(&params, pk),
            dec: cofhee_ckks::CkksDecryptor::new(&params, sk),
            rlk,
            params,
            rng,
        }
    }

    fn ckks_encrypt(t: &mut CkksTenant, values: &[f64]) -> CkksCiphertext {
        let pt = t.encoder.encode(values).unwrap();
        t.enc.encrypt(&pt, &mut t.rng).unwrap()
    }

    fn ckks_decode(t: &CkksTenant, ct: &CkksCiphertext, slots: usize) -> Vec<f64> {
        let pt = t.dec.decrypt(ct).unwrap();
        t.encoder.decode(&pt).unwrap()[..slots].to_vec()
    }

    #[test]
    fn ckks_jobs_run_end_to_end_on_the_farm() {
        let mut t = ckks_tenant(77);
        let farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        let id = s.open_session(Session::new_ckks("approx", &t.params, t.rlk.clone()).unwrap());
        let a = ckks_encrypt(&mut t, &[1.5, -2.25]);
        let b = ckks_encrypt(&mut t, &[0.5, 4.0]);
        let pt = t.encoder.encode(&[2.0, 3.0]).unwrap();
        let outcomes = s
            .run(vec![
                Job { session: id, kind: JobKind::CkksAdd(a.clone(), b.clone()), arrival: 0 },
                Job { session: id, kind: JobKind::CkksMulPlain(a.clone(), pt), arrival: 0 },
                Job { session: id, kind: JobKind::CkksMulRelin(a.clone(), b.clone()), arrival: 0 },
            ])
            .unwrap();
        let sum = ckks_decode(&t, outcomes[0].result.expect_ckks(), 2);
        assert!((sum[0] - 2.0).abs() < 1e-4 && (sum[1] - 1.75).abs() < 1e-4, "{sum:?}");
        let scaled = ckks_decode(&t, outcomes[1].result.expect_ckks(), 2);
        assert!((scaled[0] - 3.0).abs() < 1e-4 && (scaled[1] + 6.75).abs() < 1e-4, "{scaled:?}");
        let prod_ct = outcomes[2].result.expect_ckks();
        assert_eq!(
            prod_ct.level(),
            t.params.top_level().lower().unwrap(),
            "rescale dropped a level"
        );
        let prod = ckks_decode(&t, prod_ct, 2);
        assert!((prod[0] - 0.75).abs() < 1e-3 && (prod[1] + 9.0).abs() < 1e-3, "{prod:?}");
        // The multiply ran as three farm phases (tensor, relin, rescale)
        // and its service time covers all of them.
        assert!(outcomes[2].streams > outcomes[0].streams);
        assert!(outcomes[2].service_cycles > outcomes[0].service_cycles);
    }

    #[test]
    fn ckks_scheme_and_relin_violations_are_typed_errors() {
        let mut t = ckks_tenant(78);
        let mut bt = tenant(79);
        let farm = ChipFarm::new(1, ChipBackendFactory::silicon()).unwrap();
        let mut s = Scheduler::new(farm, Box::new(WorkStealing));
        let keyless = s.open_session(Session::ckks_without_relin("approx", &t.params).unwrap());
        let a = ckks_encrypt(&mut t, &[1.0]);
        // A multiply without key-switch material fails typed...
        let err = s
            .run(vec![Job {
                session: keyless,
                kind: JobKind::CkksMulRelin(a.clone(), a.clone()),
                arrival: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, FarmError::MissingRelinKey { id: 0 }));
        // ...and a BFV job under a CKKS session (or vice versa) is a
        // scheme mismatch, not a panic.
        let bfv_ct = encrypt(&mut bt, 2);
        let err = s
            .run(vec![Job {
                session: keyless,
                kind: JobKind::Add(bfv_ct.clone(), bfv_ct),
                arrival: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, FarmError::SchemeMismatch { id: 0 }));
        let bfv_id = s.open_session(Session::without_relin("exact", &bt.params).unwrap());
        let err = s
            .run(vec![Job { session: bfv_id, kind: JobKind::CkksAdd(a.clone(), a), arrival: 0 }])
            .unwrap_err();
        assert!(matches!(err, FarmError::SchemeMismatch { id: 1 }));
        // A multiply at the chain bottom has no level to rescale to: the
        // plan is refused whole, before its tensor or key switch is placed.
        let keyed = s.open_session(Session::new_ckks("approx", &t.params, t.rlk.clone()).unwrap());
        let pt = t.encoder.encode_at(&[1.0], Level::new(0), t.params.scale()).unwrap();
        let bottom = t.enc.encrypt(&pt, &mut t.rng).unwrap();
        let before = s.report();
        let err = s
            .run(vec![Job {
                session: keyed,
                kind: JobKind::CkksMulRelin(bottom.clone(), bottom),
                arrival: 0,
            }])
            .unwrap_err();
        assert!(matches!(err, FarmError::Ckks(cofhee_ckks::CkksError::LevelExhausted)), "{err}");
        let after = s.report();
        assert_eq!((after.chips, after.streams), (before.chips, before.streams));
    }

    #[test]
    fn traced_runs_reconcile_die_spans_with_chip_stats_exactly() {
        use cofhee_obs::{EventKind, MemorySink, Track};
        let mut t = tenant(41);
        let (mut s, id) = sched(2, Box::new(WorkStealing), &t);
        let sink = MemorySink::shared();
        s.set_trace_sink(sink.clone());
        let a = encrypt(&mut t, 3);
        let b = encrypt(&mut t, 5);
        s.run(vec![
            Job { session: id, kind: JobKind::MulRelin(a.clone(), b.clone()), arrival: 0 },
            Job { session: id, kind: JobKind::Add(a.clone(), b.clone()), arrival: 50 },
        ])
        .unwrap();
        let events = sink.events();

        // Acceptance invariant: per-die drain-span durations sum exactly
        // to the die's ChipStats busy cycles — no rounding slack.
        let chips = s.farm().chip_stats();
        assert!(chips.iter().any(|c| c.streams > 0));
        for c in &chips {
            let total: u64 = events
                .iter()
                .filter(|e| e.track == Track::DieCompute(c.chip) && e.name == "drain")
                .map(|e| e.kind.duration())
                .sum();
            assert_eq!(total, c.busy_cycles, "die {} spans drift from ChipStats", c.chip);
        }

        // Job 0 (the multiply): tensor+relin tile the lifecycle span.
        let job0: Vec<_> = events
            .iter()
            .filter(|e| e.track == (Track::Job { tenant: id.raw(), seq: 0 }))
            .collect();
        let outer = job0.iter().find(|e| e.name == "ct*ct+relin").expect("lifecycle span");
        let tensor = job0.iter().find(|e| e.name == "tensor").expect("tensor phase");
        let relin = job0.iter().find(|e| e.name == "relin").expect("relin phase");
        let (
            EventKind::Span { start: os, end: oe },
            EventKind::Span { start: ts, end: te },
            EventKind::Span { start: rs, end: re },
        ) = (outer.kind, tensor.kind, relin.kind)
        else {
            panic!("job events must be spans");
        };
        assert_eq!((ts, re), (os, oe), "phases must tile the job span");
        assert_eq!(te, rs, "relin starts the cycle tensor ends");

        // Placement decisions landed as die-track instants.
        assert!(events
            .iter()
            .any(|e| matches!(e.track, Track::DieCompute(_)) && e.name == "place"));

        // And the metrics snapshot reflects the run.
        let m = s.metrics();
        assert_eq!(m.counter("farm.jobs"), 2);
        assert_eq!(m.histogram("farm.latency_cycles").map(CycleHistogram::count), Some(2));
        let busy: u64 = chips.iter().map(|c| c.busy_cycles).sum();
        let counted: u64 =
            chips.iter().map(|c| m.counter(&format!("farm.die{}.busy_cycles", c.chip))).sum();
        assert_eq!(counted, busy);
        // The farm-wide staging-pool counters are exported under
        // `farm.pool.*` (farm job streams carry operands inline, so the
        // counters stay zero here — the keys must exist regardless).
        assert!(m.iter().any(|(k, _)| k == "farm.pool.hits"), "pool counters must be exported");
        assert!(m.gauge("farm.pool.resident").is_some());
        // What the one key switch left on the link: its key apart from
        // every operand, together the uploads less their command words —
        // and on the dies: `digits + 2` transforms after the tensor's
        // (4 forward + 3 inverse on each of its limbs).
        let (n, digits) = (t.params.n(), t.rlk.digit_count() as u64);
        let totals = s.report().stream_totals;
        let command_bytes = totals.commands * cofhee_sim::COMMAND_WORDS as u64 * 4;
        let key = m.counter("farm.dma.key_bytes");
        assert_eq!(key, 2 * digits * poly_bytes(n));
        assert_eq!(
            key + m.counter("farm.dma.operand_bytes"),
            totals.uploaded_bytes - command_bytes
        );
        let tensor = 7 * t.params.mult_basis().len() as u64;
        assert_eq!(
            m.counter("farm.ops.butterflies"),
            (tensor + digits + 2) * cofhee_poly::ntt::butterfly_count(n)
        );
        let imbalance = m.gauge("farm.placement.imbalance").expect("dies were busy");
        let peak = chips.iter().map(|c| c.busy_cycles).max().unwrap();
        assert_eq!(imbalance as u64, peak * 1000 * chips.len() as u64 / busy);
    }

    #[test]
    fn a_replaced_trace_sink_receives_nothing_more() {
        use cofhee_obs::MemorySink;
        let mut t = tenant(45);
        let (mut s, id) = sched(2, Box::new(WorkStealing), &t);
        let a = encrypt(&mut t, 3);
        let jobs = |n: u64| {
            (0..n)
                .map(|i| Job { session: id, kind: JobKind::Add(a.clone(), a.clone()), arrival: i })
                .collect::<Vec<_>>()
        };
        let sink = MemorySink::shared();
        s.set_trace_sink(sink.clone());
        s.run(jobs(4)).unwrap();
        let recorded = sink.len();
        assert!(recorded > 0);
        // Both dies have a backend holding the first sink by now.
        assert!(s.report().chips.iter().all(|c| c.streams > 0));
        s.set_trace_sink(null_sink());
        s.run(jobs(4)).unwrap();
        assert_eq!(sink.len(), recorded, "a die kept writing into the replaced sink");
    }

    #[test]
    fn a_job_that_fails_to_place_leaves_no_outcome_and_moves_no_clock() {
        /// Places on die 0 until its budget runs out, then on a die that
        /// does not exist.
        #[derive(Debug)]
        struct Budget(usize);
        impl PlacementPolicy for Budget {
            fn name(&self) -> &'static str {
                "budget"
            }
            fn place(&mut self, dies: &[crate::DieStatus], _ready: u64) -> usize {
                self.0 = self.0.saturating_sub(1);
                if self.0 == 0 {
                    dies.len()
                } else {
                    0
                }
            }
        }
        let mut t = tenant(46);
        let (mut s, id) = sched(2, Box::new(Budget(3)), &t);
        let a = encrypt(&mut t, 4);
        let add = |arrival| Job { session: id, kind: JobKind::Add(a.clone(), a.clone()), arrival };
        let sum = s.run(vec![add(0), add(1)]).unwrap();
        assert_eq!(t.dec.decrypt(sum[1].result.expect_bfv()).unwrap().coeffs()[0], 8);
        let before = s.report();
        let err = s.run(vec![add(2)]).unwrap_err();
        assert!(matches!(err, FarmError::UnknownChip { chip: 2, chips: 2 }), "{err}");
        let after = s.report();
        assert_eq!(after.jobs, before.jobs, "a job that failed to place leaves no outcome");
        assert_eq!(after.chips, before.chips, "no die clock moved");
    }

    #[test]
    fn twiddle_cache_hit_rate_exceeds_90_percent_on_farm_runs() {
        let mut t = tenant(43);
        let a = encrypt(&mut t, 2);
        let b = encrypt(&mut t, 3);
        let jobs = |id: SessionId| {
            (0..3)
                .map(|i| Job {
                    session: id,
                    kind: JobKind::MulRelin(a.clone(), b.clone()),
                    arrival: i * 10,
                })
                .collect::<Vec<_>>()
        };
        // Warm the process-wide cache with one throwaway farm run, then
        // measure the hit rate over a second identical run: every NTT
        // table is interned by then, so the delta should be nearly all
        // hits. (Counters are global and other tests run concurrently —
        // the margin over 90% is wide in practice, typically >99%.)
        let (mut warm, wid) = sched(2, Box::new(WorkStealing), &t);
        warm.run(jobs(wid)).unwrap();
        let before = cofhee_poly::TwiddleCache::stats();
        let (mut s, id) = sched(2, Box::new(WorkStealing), &t);
        s.run(jobs(id)).unwrap();
        let after = cofhee_poly::TwiddleCache::stats();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        assert!(hits > 0, "farm runs must exercise the twiddle cache");
        let rate = hits as f64 / (hits + misses) as f64;
        assert!(rate > 0.9, "twiddle hit rate {rate:.3} <= 0.9 ({hits} hits / {misses} misses)");
        // The scheduler's metrics snapshot exposes the same counters to
        // farm-layer consumers.
        let m = s.metrics();
        assert!(m.counter("twiddle_cache.hits") >= hits);
    }
}
