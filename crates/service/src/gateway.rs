//! The gateway: the request-oriented front door over the chip farm.
//!
//! One [`Gateway`] owns a farm [`Scheduler`], the
//! [`CiphertextRegistry`], the per-tenant admission queues, and a
//! virtual clock. Tenants upload ciphertexts once, then submit
//! handle-addressed [`Request`]s;
//! [`Gateway::submit`] validates (handle ownership, parameter
//! compatibility, relin-key presence), enforces quotas (in-flight
//! jobs, registry bytes), applies backpressure (bounded queues), and
//! either returns a [`Ticket`] whose result handle can be chained
//! immediately or a typed [`AdmitError`] — the Task Manager role of
//! the CoFHE decomposition.
//!
//! # Virtual time
//!
//! Submissions carry an arrival cycle ([`Gateway::submit_at`]; plain
//! `submit` uses the current clock). Each submission first advances the
//! event loop to its arrival: finished jobs complete (freeing slots),
//! freed slots drain queued requests through
//! the [`AdmissionPolicy`], and only then is the new request judged —
//! so admission decisions always reflect the farm state a real online
//! service would see. The whole loop is deterministic: same
//! registration order, same submissions, same policy → same tickets,
//! same rejects, same telemetry.
//!
//! The loop needs only a dispatched job's *priced* finish and service
//! cycles to advance: the ciphertext is computed at the farm's next
//! flush, which a dispatch reading a pending result, the scheduler's
//! upload bound, or [`Gateway::drain`] triggers.

use std::collections::{BTreeMap, VecDeque};

use cofhee_bfv::{BfvParams, Ciphertext, Plaintext, RelinKey};
use cofhee_ckks::{CkksCiphertext, CkksParams, CkksRelinKey};
use cofhee_core::SharedSink;
use cofhee_farm::{
    Job, JobKind, JobOutcome, JobResult, LatencyPercentiles, Scheduler, Session, SessionId,
};
use cofhee_obs::{null_sink, CycleHistogram, MetricsRegistry, TraceEvent, Track};

use crate::admission::{AdmissionPolicy, QueueView};
use crate::error::{AdmitError, DenyReason, QuotaKind, Result, ServiceError};
use crate::handle::{CtHandle, TenantId, Ticket};
use crate::registry::{ciphertext_bytes, stored_bytes, CiphertextRegistry};
use crate::telemetry::{ServiceReport, TenantStats};

/// One handle-addressed homomorphic request.
///
/// Operand ciphertexts are referenced by [`CtHandle`]; plaintext
/// operands are inline (they are small and public). Every request
/// produces one 2-component result ciphertext under a fresh handle.
#[derive(Debug, Clone)]
pub enum Request {
    /// Ciphertext + ciphertext addition.
    Add(CtHandle, CtHandle),
    /// Ciphertext + plaintext addition.
    AddPlain(CtHandle, Plaintext),
    /// Ciphertext × plaintext multiplication.
    MulPlain(CtHandle, Plaintext),
    /// Ciphertext × ciphertext multiplication + relinearization.
    MulRelin(CtHandle, CtHandle),
    /// CKKS ciphertext + ciphertext addition (slotwise, approximate).
    CkksAdd(CtHandle, CtHandle),
    /// CKKS ciphertext × ciphertext multiplication + relinearization +
    /// rescale (the result drops one chain level).
    CkksMulRelin(CtHandle, CtHandle),
}

impl Request {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Add(..) => "ct+ct",
            Self::AddPlain(..) => "ct+pt",
            Self::MulPlain(..) => "ct*pt",
            Self::MulRelin(..) => "ct*ct+relin",
            Self::CkksAdd(..) => "ckks:ct+ct",
            Self::CkksMulRelin(..) => "ckks:ct*ct+relin+rescale",
        }
    }

    /// The ciphertext operand handles the request reads.
    pub fn operands(&self) -> Vec<CtHandle> {
        match self {
            Self::Add(a, b)
            | Self::MulRelin(a, b)
            | Self::CkksAdd(a, b)
            | Self::CkksMulRelin(a, b) => vec![*a, *b],
            Self::AddPlain(a, _) | Self::MulPlain(a, _) => vec![*a],
        }
    }

    fn plaintext(&self) -> Option<&Plaintext> {
        match self {
            Self::AddPlain(_, pt) | Self::MulPlain(_, pt) => Some(pt),
            _ => None,
        }
    }

    /// Whether this request targets a CKKS session.
    fn is_ckks(&self) -> bool {
        matches!(self, Self::CkksAdd(..) | Self::CkksMulRelin(..))
    }

    /// Whether this request needs key-switch material.
    fn needs_relin(&self) -> bool {
        matches!(self, Self::MulRelin(..) | Self::CkksMulRelin(..))
    }
}

/// Per-tenant limits the gateway enforces at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Bounded queue depth; the newest request is rejected beyond it.
    pub queue_capacity: usize,
    /// Maximum unfinished requests (queued + dispatched).
    pub max_in_flight: u64,
    /// Maximum registry bytes the tenant may own, result reservations
    /// included.
    pub max_bytes: u64,
    /// Fair-share weight for [`TenantFair`](crate::TenantFair) drain.
    pub weight: u32,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self { queue_capacity: 64, max_in_flight: 128, max_bytes: 1 << 30, weight: 1 }
    }
}

/// Gateway-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// Quotas applied to newly registered tenants (override per tenant
    /// with [`Gateway::set_quotas`]).
    pub default_quotas: QuotaConfig,
    /// Requests the gateway keeps dispatched on the farm at once.
    /// More slots than dies keeps every die's FIFO fed; the default
    /// from [`GatewayConfig::for_chips`] is 2× the die count.
    pub farm_slots: usize,
}

impl GatewayConfig {
    /// The default configuration for a farm of `chips` dies.
    pub fn for_chips(chips: usize) -> Self {
        Self { default_quotas: QuotaConfig::default(), farm_slots: (2 * chips).max(1) }
    }
}

/// A request sitting in its tenant's admission queue.
#[derive(Debug)]
struct Queued {
    ticket: Ticket,
    request: Request,
}

/// A dispatched request whose virtual finish time has not been reached.
#[derive(Debug)]
struct Inflight {
    ticket: Ticket,
    finish: u64,
    service_cycles: u64,
}

/// A tenant's parameter set, tagged by scheme. The registry fingerprint
/// of a CKKS tenant uses the full modulus-chain product as `q` (it fits
/// the chip's 128-bit native width by construction), so cross-scheme
/// and cross-parameter operands are both caught by the same check.
#[derive(Debug, Clone)]
enum SchemeParams {
    Bfv(BfvParams),
    Ckks(CkksParams),
}

impl SchemeParams {
    fn n(&self) -> usize {
        match self {
            Self::Bfv(p) => p.n(),
            Self::Ckks(p) => p.n(),
        }
    }

    /// The `(q, n)` compatibility fingerprint registry entries carry.
    fn fingerprint(&self) -> (u128, usize) {
        match self {
            Self::Bfv(p) => (p.q(), p.n()),
            Self::Ckks(p) => (p.moduli().iter().product(), p.n()),
        }
    }

    /// Worst-case bytes a request's 2-component result can occupy —
    /// what admission reserves. CKKS results may materialize smaller
    /// (rescale drops a limb); the registry re-trues the charge then.
    fn result_reserve_bytes(&self) -> u64 {
        match self {
            Self::Bfv(p) => ciphertext_bytes(2, p.n()),
            Self::Ckks(p) => ciphertext_bytes(2 * p.moduli().len(), p.n()),
        }
    }
}

#[derive(Debug)]
struct Tenant {
    label: String,
    session: SessionId,
    params: SchemeParams,
    has_relin: bool,
    quotas: QuotaConfig,
    queue: VecDeque<Queued>,
    in_flight: u64,
    stats: TenantStats,
}

/// The request-oriented service front-end over a chip farm.
///
/// See the [crate docs](crate) for a worked end-to-end example.
#[derive(Debug)]
pub struct Gateway {
    sched: Scheduler,
    policy: Box<dyn AdmissionPolicy>,
    registry: CiphertextRegistry,
    tenants: Vec<Tenant>,
    inflight: Vec<Inflight>,
    tickets: BTreeMap<u64, Ticket>,
    now: u64,
    next_ticket: u64,
    farm_slots: usize,
    default_quotas: QuotaConfig,
    fault: Option<ServiceError>,
    /// Completed-request latency / queue-wait / service cycles as
    /// streaming histograms (same summary type the farm reports).
    latency_samples: CycleHistogram,
    queue_samples: CycleHistogram,
    service_samples: CycleHistogram,
    /// Trace sink for request instants on the gateway track and the
    /// admit→queue→materialize chain on per-job tenant tracks; the null
    /// sink unless installed.
    trace: SharedSink,
}

impl Gateway {
    /// Builds a gateway over `sched` with the given drain policy.
    pub fn new(sched: Scheduler, policy: Box<dyn AdmissionPolicy>, config: GatewayConfig) -> Self {
        Self {
            sched,
            policy,
            registry: CiphertextRegistry::new(),
            tenants: Vec::new(),
            inflight: Vec::new(),
            tickets: BTreeMap::new(),
            now: 0,
            next_ticket: 0,
            farm_slots: config.farm_slots.max(1),
            default_quotas: config.default_quotas,
            fault: None,
            latency_samples: CycleHistogram::new(),
            queue_samples: CycleHistogram::new(),
            service_samples: CycleHistogram::new(),
            trace: null_sink(),
        }
    }

    /// Installs a trace sink on the gateway and everything beneath it
    /// (scheduler, farm, dies): request admits and typed rejects land as
    /// gateway-track instants, each dispatched request's
    /// admit→queue→materialize chain on its per-job tenant track, and
    /// the farm/die events on their own tracks.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.sched.set_trace_sink(std::sync::Arc::clone(&sink));
        self.trace = sink;
    }

    /// Emits a typed instant on the gateway track at the current clock.
    fn trace_gateway(&self, name: &'static str, tenant: TenantId) {
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(Track::Gateway, name, self.now).arg("tenant", tenant.raw()),
            );
        }
    }

    /// Registers a tenant: opens its farm session under `params`, with
    /// or without relinearization material. Ids are sequential in
    /// registration order (deterministic).
    ///
    /// # Errors
    ///
    /// Session bring-up failures propagate from the farm layer.
    pub fn register_tenant(
        &mut self,
        label: &str,
        params: &BfvParams,
        rlk: Option<RelinKey>,
    ) -> Result<TenantId> {
        let has_relin = rlk.is_some();
        let session = match rlk {
            Some(rlk) => Session::new(label, params, rlk),
            None => Session::without_relin(label, params),
        }
        .map_err(ServiceError::from)?;
        Ok(self.push_tenant(label, session, SchemeParams::Bfv(params.clone()), has_relin))
    }

    /// Registers a CKKS tenant: opens its farm session under `params`,
    /// with or without relinearization material. CKKS and BFV tenants
    /// share the same registry, queues, and admission machinery; only
    /// the request kinds a tenant may submit differ.
    ///
    /// # Errors
    ///
    /// Session bring-up failures propagate from the farm layer.
    pub fn register_ckks_tenant(
        &mut self,
        label: &str,
        params: &CkksParams,
        rlk: Option<CkksRelinKey>,
    ) -> Result<TenantId> {
        let has_relin = rlk.is_some();
        let session = match rlk {
            Some(rlk) => Session::new_ckks(label, params, rlk),
            None => Session::ckks_without_relin(label, params),
        }
        .map_err(ServiceError::from)?;
        Ok(self.push_tenant(label, session, SchemeParams::Ckks(params.clone()), has_relin))
    }

    fn push_tenant(
        &mut self,
        label: &str,
        session: Session,
        params: SchemeParams,
        has_relin: bool,
    ) -> TenantId {
        let id = TenantId::new(self.tenants.len() as u64);
        self.tenants.push(Tenant {
            label: label.to_string(),
            session: self.sched.open_session(session),
            params,
            has_relin,
            quotas: self.default_quotas,
            queue: VecDeque::new(),
            in_flight: 0,
            stats: TenantStats::default(),
        });
        id
    }

    /// Overrides one tenant's quotas.
    ///
    /// # Errors
    ///
    /// [`DenyReason::UnknownTenant`] for unregistered ids.
    pub fn set_quotas(&mut self, tenant: TenantId, quotas: QuotaConfig) -> Result<()> {
        let t = self
            .tenants
            .get_mut(tenant.raw() as usize)
            .ok_or(AdmitError::Denied { reason: DenyReason::UnknownTenant })?;
        t.quotas = quotas;
        Ok(())
    }

    /// Uploads a ciphertext into the registry under `tenant`'s
    /// ownership. Charged against the tenant's registry-byte quota.
    ///
    /// # Errors
    ///
    /// Unknown tenants and byte-quota violations reject typed.
    pub fn put_ciphertext(&mut self, tenant: TenantId, ct: Ciphertext) -> Result<CtHandle> {
        self.put_stored(tenant, JobResult::Bfv(ct), false)
    }

    /// Uploads a CKKS ciphertext into the registry under `tenant`'s
    /// ownership. Charged against the tenant's registry-byte quota.
    ///
    /// # Errors
    ///
    /// Unknown tenants, scheme mismatches (a BFV tenant uploading CKKS
    /// material), and byte-quota violations reject typed.
    pub fn put_ckks_ciphertext(
        &mut self,
        tenant: TenantId,
        ct: CkksCiphertext,
    ) -> Result<CtHandle> {
        self.put_stored(tenant, JobResult::Ckks(ct), true)
    }

    fn put_stored(&mut self, tenant: TenantId, ct: JobResult, ckks: bool) -> Result<CtHandle> {
        let t = self
            .tenants
            .get(tenant.raw() as usize)
            .ok_or(AdmitError::Denied { reason: DenyReason::UnknownTenant })?;
        if matches!(t.params, SchemeParams::Ckks(_)) != ckks {
            return Err(AdmitError::Denied { reason: DenyReason::SchemeMismatch }.into());
        }
        let bytes = stored_bytes(&ct, t.params.n());
        let would_use = self.registry.bytes_used(tenant).saturating_add(bytes);
        if would_use > t.quotas.max_bytes {
            return Err(AdmitError::QuotaExceeded {
                quota: QuotaKind::RegistryBytes,
                limit: t.quotas.max_bytes,
                requested: would_use,
            }
            .into());
        }
        let (q, n) = t.params.fingerprint();
        Ok(self.registry.insert(tenant, ct, q, n))
    }

    /// Submits a request arriving at the current virtual clock.
    ///
    /// # Errors
    ///
    /// Typed [`AdmitError`]s; a rejected request never mutates the
    /// registry and never reaches the farm.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        request: Request,
    ) -> core::result::Result<Ticket, AdmitError> {
        self.submit_at(tenant, request, self.now)
    }

    /// Submits a request arriving at virtual cycle `at` (clamped to the
    /// clock — time never runs backwards). The event loop advances to
    /// `at` first, so the admission decision sees exactly the queue and
    /// farm state of that instant.
    ///
    /// # Errors
    ///
    /// Typed [`AdmitError`]s; a rejected request never mutates the
    /// registry and never reaches the farm.
    pub fn submit_at(
        &mut self,
        tenant: TenantId,
        request: Request,
        at: u64,
    ) -> core::result::Result<Ticket, AdmitError> {
        self.advance_to(at.max(self.now));
        if self.fault.is_some() {
            // Fail closed after an execution fault; the fault itself
            // surfaces from the next `drain`.
            if let Some(t) = self.tenants.get_mut(tenant.raw() as usize) {
                t.stats.submitted += 1;
                t.stats.rejected_denied += 1;
            }
            self.trace_gateway("reject:faulted", tenant);
            return Err(AdmitError::Denied { reason: DenyReason::Faulted });
        }
        if tenant.raw() as usize >= self.tenants.len() {
            self.trace_gateway("reject:unknown-tenant", tenant);
            return Err(AdmitError::Denied { reason: DenyReason::UnknownTenant });
        }
        self.tenants[tenant.raw() as usize].stats.submitted += 1;

        // Validation: ownership, parameter compatibility, key material.
        if let Err(reason) = self.validate(tenant, &request) {
            self.tenants[tenant.raw() as usize].stats.rejected_denied += 1;
            self.trace_gateway("reject:denied", tenant);
            return Err(AdmitError::Denied { reason });
        }

        // Quotas: in-flight jobs, then registry bytes (the result
        // reservation the admission would add).
        let t = &self.tenants[tenant.raw() as usize];
        let would_fly = t.in_flight + 1;
        if would_fly > t.quotas.max_in_flight {
            let limit = t.quotas.max_in_flight;
            self.tenants[tenant.raw() as usize].stats.rejected_quota += 1;
            self.trace_gateway("reject:quota-inflight", tenant);
            return Err(AdmitError::QuotaExceeded {
                quota: QuotaKind::InFlightJobs,
                limit,
                requested: would_fly,
            });
        }
        let result_bytes = t.params.result_reserve_bytes();
        let would_use = self.registry.bytes_used(tenant).saturating_add(result_bytes);
        if would_use > t.quotas.max_bytes {
            let limit = t.quotas.max_bytes;
            self.tenants[tenant.raw() as usize].stats.rejected_quota += 1;
            self.trace_gateway("reject:quota-bytes", tenant);
            return Err(AdmitError::QuotaExceeded {
                quota: QuotaKind::RegistryBytes,
                limit,
                requested: would_use,
            });
        }

        // Backpressure: bounded queue, newest rejected.
        let capacity = t.quotas.queue_capacity;
        if t.queue.len() >= capacity {
            self.tenants[tenant.raw() as usize].stats.rejected_queue += 1;
            self.trace_gateway("reject:queue-full", tenant);
            return Err(AdmitError::QueueFull { capacity });
        }

        // Admitted: only now does the registry change. The result
        // handle exists immediately, so dependent requests can chain on
        // it before the producer runs.
        let (q, n) = self.tenants[tenant.raw() as usize].params.fingerprint();
        let result = self.registry.reserve(tenant, q, n, result_bytes);
        let ticket = Ticket::new(self.next_ticket, tenant, result, self.now);
        self.next_ticket += 1;
        self.tickets.insert(ticket.id(), ticket);
        let t = &mut self.tenants[tenant.raw() as usize];
        t.queue.push_back(Queued { ticket, request });
        t.in_flight += 1;
        t.stats.admitted += 1;
        t.stats.peak_queue = t.stats.peak_queue.max(t.queue.len() as u64);
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(Track::Gateway, "admit", self.now)
                    .arg("tenant", tenant.raw())
                    .arg("ticket", ticket.id()),
            );
        }
        self.fill_slots();
        Ok(ticket)
    }

    fn validate(
        &self,
        tenant: TenantId,
        request: &Request,
    ) -> core::result::Result<(), DenyReason> {
        let t = &self.tenants[tenant.raw() as usize];
        if request.is_ckks() != matches!(t.params, SchemeParams::Ckks(_)) {
            return Err(DenyReason::SchemeMismatch);
        }
        let (tq, tn) = t.params.fingerprint();
        for handle in request.operands() {
            self.registry.readable(handle, tenant)?;
            let (q, n) = self.registry.params_of(handle).expect("readable implies present");
            if q != tq || n != tn {
                return Err(DenyReason::ParamsMismatch(handle));
            }
        }
        if let Some(pt) = request.plaintext() {
            // Inline plaintexts only appear on BFV request kinds, which
            // the scheme check above pinned to BFV tenants.
            let SchemeParams::Bfv(params) = &t.params else { unreachable!("scheme checked") };
            if pt.modulus() != params.t() || pt.coeffs().len() != params.n() {
                return Err(DenyReason::PlaintextModulusMismatch);
            }
        }
        if request.needs_relin() && !t.has_relin {
            return Err(DenyReason::MissingRelinKey);
        }
        Ok(())
    }

    /// Whether every operand of `request` has finished by the current
    /// clock — whether or not the farm has computed it yet.
    fn operands_ready(&self, request: &Request) -> bool {
        request.operands().iter().all(|&h| self.registry.finished_by(h, self.now))
    }

    /// Drains queued requests into free farm slots via the policy.
    fn fill_slots(&mut self) {
        while self.fault.is_none() && self.inflight.len() < self.farm_slots {
            let ready: Vec<QueueView> = self
                .tenants
                .iter()
                .filter_map(|t| {
                    let head = t.queue.front()?;
                    self.operands_ready(&head.request).then_some(QueueView {
                        tenant: head.ticket.tenant(),
                        weight: t.quotas.weight,
                        head_arrival: head.ticket.arrival(),
                        head_seq: head.ticket.id(),
                    })
                })
                .collect();
            if ready.is_empty() {
                break;
            }
            let Some(pick) = self.policy.pick(&ready) else { break };
            let tenant = ready[pick].tenant;
            let queued = self.tenants[tenant.raw() as usize]
                .queue
                .pop_front()
                .expect("picked queue has a head");
            self.dispatch(queued);
        }
    }

    /// Places one request on the farm and records its virtual finish;
    /// its result stays pending on the farm until a flush computes it.
    /// An operand still pending there is computed first: a flush.
    fn dispatch(&mut self, queued: Queued) {
        let now = self.now;
        if queued
            .request
            .operands()
            .iter()
            .any(|&h| self.registry.ready_ciphertext(h, now).is_none())
        {
            self.collect();
            if self.fault.is_some() {
                return;
            }
        }
        let session = self.tenants[queued.ticket.tenant().raw() as usize].session;
        let ct = |h: CtHandle| {
            self.registry
                .ready_ciphertext(h, now)
                .expect("dispatch only fires with ready operands")
                .as_bfv()
                .expect("validation pinned operand schemes")
                .clone()
        };
        let ckks = |h: CtHandle| {
            self.registry
                .ready_ciphertext(h, now)
                .expect("dispatch only fires with ready operands")
                .as_ckks()
                .expect("validation pinned operand schemes")
                .clone()
        };
        let kind = match &queued.request {
            Request::Add(a, b) => JobKind::Add(ct(*a), ct(*b)),
            Request::AddPlain(a, pt) => JobKind::AddPlain(ct(*a), pt.clone()),
            Request::MulPlain(a, pt) => JobKind::MulPlain(ct(*a), pt.clone()),
            Request::MulRelin(a, b) => JobKind::MulRelin(ct(*a), ct(*b)),
            Request::CkksAdd(a, b) => JobKind::CkksAdd(ckks(*a), ckks(*b)),
            Request::CkksMulRelin(a, b) => JobKind::CkksMulRelin(ckks(*a), ckks(*b)),
        };
        let job = Job { session, kind, arrival: now };
        // The scheduler traces this job under its pre-placement
        // `jobs_done` sequence number — stamping the same (tenant, seq)
        // track here puts the gateway-side chain on the job's own
        // timeline.
        let track = Track::Job { tenant: session.raw(), seq: self.sched.jobs_done() };
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(track, "admit", queued.ticket.arrival())
                    .arg("ticket", queued.ticket.id()),
            );
            self.trace.record(TraceEvent::span(track, "queue", queued.ticket.arrival(), now));
        }
        match self.sched.place_job(queued.ticket.id() as usize, &job) {
            Ok((priced, flushed)) => {
                let result = queued.ticket.result();
                self.registry.materialize(result, priced.result_bytes, priced.finish);
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::instant(track, "materialize", priced.finish)
                            .arg("ticket", queued.ticket.id()),
                    );
                }
                self.inflight.push(Inflight {
                    ticket: queued.ticket,
                    finish: priced.finish,
                    service_cycles: priced.service_cycles,
                });
                self.store(flushed);
            }
            Err(e) => self.fault = Some(e.into()),
        }
    }

    /// Flushes the farm: computes every placed request.
    fn collect(&mut self) {
        match self.sched.flush() {
            Ok(outcomes) => self.store(outcomes),
            Err(e) => self.fault = Some(e.into()),
        }
    }

    /// Stores each computed result under its handle, or discards it when
    /// the handle was evicted meanwhile.
    fn store(&mut self, outcomes: Vec<JobOutcome>) {
        for o in outcomes {
            if let Some(ticket) = self.tickets.get(&(o.index as u64)) {
                self.registry.fill(ticket.result(), o.result);
            }
        }
    }

    /// Completes the earliest-finishing in-flight request at or before
    /// `up_to`, freeing its slot and refilling. Returns whether one
    /// completed.
    fn complete_next(&mut self, up_to: u64) -> bool {
        let Some(i) = self
            .inflight
            .iter()
            .enumerate()
            .filter(|(_, f)| f.finish <= up_to)
            .min_by_key(|(_, f)| (f.finish, f.ticket.id()))
            .map(|(i, _)| i)
        else {
            return false;
        };
        let fin = self.inflight.remove(i);
        self.now = self.now.max(fin.finish);
        let latency = fin.finish.saturating_sub(fin.ticket.arrival());
        let queued = latency.saturating_sub(fin.service_cycles);
        let t = &mut self.tenants[fin.ticket.tenant().raw() as usize];
        t.in_flight -= 1;
        t.stats.completed += 1;
        t.stats.queue_cycles = t.stats.queue_cycles.saturating_add(queued);
        t.stats.service_cycles = t.stats.service_cycles.saturating_add(fin.service_cycles);
        self.latency_samples.record(latency);
        self.queue_samples.record(queued);
        self.service_samples.record(fin.service_cycles);
        self.fill_slots();
        true
    }

    /// Advances the virtual clock to `to`, completing and dispatching
    /// everything due on the way.
    fn advance_to(&mut self, to: u64) {
        while self.complete_next(to) {}
        self.now = self.now.max(to);
        self.fill_slots();
    }

    /// Runs the event loop until every admitted request has completed,
    /// advancing the clock past the last finish, then computes every
    /// result still pending on the farm.
    ///
    /// # Errors
    ///
    /// Surfaces any execution fault the gateway stashed (after which it
    /// admits nothing further).
    pub fn drain(&mut self) -> Result<()> {
        loop {
            if let Some(e) = self.fault.take() {
                return Err(e);
            }
            self.fill_slots();
            if let Some(e) = self.fault.take() {
                return Err(e);
            }
            if !self.complete_next(u64::MAX) {
                break;
            }
        }
        self.collect();
        self.fault.take().map_or(Ok(()), Err)
    }

    /// The BFV ciphertext behind `handle`, if `tenant` may read it, its
    /// producing request has finished by the current clock and the farm
    /// has computed it. A result is computed at the first flush after
    /// its dispatch: when a later dispatch reads a result still pending,
    /// when the waiting uploads reach the scheduler's bound, and in
    /// [`Gateway::drain`].
    ///
    /// # Errors
    ///
    /// ACL violations reject as validation errors; a result not finished
    /// by the current clock, or finished but not computed yet, returns
    /// [`ServiceError::ResultPending`]; CKKS entries return
    /// [`ServiceError::WrongScheme`] (use [`Gateway::download_ckks`]).
    pub fn download(&self, tenant: TenantId, handle: CtHandle) -> Result<&Ciphertext> {
        self.download_stored(tenant, handle)?.as_bfv().ok_or(ServiceError::WrongScheme { handle })
    }

    /// The CKKS ciphertext behind `handle`, on the terms of
    /// [`Gateway::download`].
    ///
    /// # Errors
    ///
    /// As [`Gateway::download`], with [`ServiceError::WrongScheme`] for
    /// BFV entries.
    pub fn download_ckks(&self, tenant: TenantId, handle: CtHandle) -> Result<&CkksCiphertext> {
        self.download_stored(tenant, handle)?.as_ckks().ok_or(ServiceError::WrongScheme { handle })
    }

    fn download_stored(&self, tenant: TenantId, handle: CtHandle) -> Result<&JobResult> {
        if self.tenants.get(tenant.raw() as usize).is_none() {
            return Err(AdmitError::Denied { reason: DenyReason::UnknownTenant }.into());
        }
        self.registry
            .readable(handle, tenant)
            .map_err(|reason| ServiceError::from(AdmitError::Denied { reason }))?;
        self.registry
            .ready_ciphertext(handle, self.now)
            .ok_or(ServiceError::ResultPending { handle })
    }

    /// The result BFV ciphertext of an admitted request, by ticket.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTicket`] for tickets this gateway never
    /// issued; [`ServiceError::ResultPending`] before the clock reaches
    /// the request's finish cycle or the farm has computed it (see
    /// [`Gateway::download`]); [`ServiceError::WrongScheme`] for CKKS
    /// requests (use [`Gateway::result_ckks`]).
    pub fn result(&self, ticket: &Ticket) -> Result<&Ciphertext> {
        match self.tickets.get(&ticket.id()) {
            Some(stored) if stored == ticket => self.download(ticket.tenant(), ticket.result()),
            _ => Err(ServiceError::UnknownTicket { ticket: ticket.id() }),
        }
    }

    /// The result CKKS ciphertext of an admitted request, by ticket.
    ///
    /// # Errors
    ///
    /// As [`Gateway::result`], with [`ServiceError::WrongScheme`] for
    /// BFV requests.
    pub fn result_ckks(&self, ticket: &Ticket) -> Result<&CkksCiphertext> {
        match self.tickets.get(&ticket.id()) {
            Some(stored) if stored == ticket => {
                self.download_ckks(ticket.tenant(), ticket.result())
            }
            _ => Err(ServiceError::UnknownTicket { ticket: ticket.id() }),
        }
    }

    /// Shares `handle` with tenant `with` (owner-only).
    ///
    /// # Errors
    ///
    /// ACL violations reject as validation errors.
    pub fn share(&mut self, owner: TenantId, handle: CtHandle, with: TenantId) -> Result<()> {
        self.registry
            .share(handle, owner, with)
            .map_err(|reason| AdmitError::Denied { reason }.into())
    }

    /// Makes `handle` readable by every tenant (owner-only).
    ///
    /// # Errors
    ///
    /// ACL violations reject as validation errors.
    pub fn publish(&mut self, owner: TenantId, handle: CtHandle) -> Result<()> {
        self.registry.publish(handle, owner).map_err(|reason| AdmitError::Denied { reason }.into())
    }

    /// Evicts `handle` from the registry, refunding its bytes
    /// (owner-only).
    ///
    /// Queued requests that can no longer run or deliver — because they
    /// read the handle as an operand, or because the handle *is* their
    /// reserved result — are cancelled rather than stranded: their
    /// reservations are refunded, their tenants' in-flight counts drop,
    /// and the cascade follows chains of dependent queued requests.
    /// Cancelled tickets surface in [`TenantStats::cancelled`], so
    /// `completed + cancelled == admitted` still holds after a drain.
    ///
    /// # Errors
    ///
    /// ACL violations reject as validation errors.
    pub fn evict(&mut self, owner: TenantId, handle: CtHandle) -> Result<()> {
        self.registry
            .evict(handle, owner)
            .map_err(|reason| ServiceError::from(AdmitError::Denied { reason }))?;
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant(Track::Gateway, "evict", self.now)
                    .arg("tenant", owner.raw())
                    .arg("handle", handle.raw()),
            );
        }
        self.cancel_dependents(handle);
        self.fill_slots();
        Ok(())
    }

    /// Cancels every queued request invalidated by the eviction of
    /// `evicted`, cascading through reservations the cancellations
    /// orphan in turn.
    fn cancel_dependents(&mut self, evicted: CtHandle) {
        let mut worklist = vec![evicted];
        while let Some(gone) = worklist.pop() {
            let mut cancelled: Vec<Ticket> = Vec::new();
            for t in &mut self.tenants {
                t.queue.retain(|q| {
                    let dead = q.ticket.result() == gone || q.request.operands().contains(&gone);
                    if dead {
                        cancelled.push(q.ticket);
                    }
                    !dead
                });
            }
            for ticket in cancelled {
                let t = &mut self.tenants[ticket.tenant().raw() as usize];
                t.in_flight -= 1;
                t.stats.cancelled += 1;
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::instant(Track::Gateway, "cancel", self.now)
                            .arg("tenant", ticket.tenant().raw())
                            .arg("ticket", ticket.id()),
                    );
                }
                if self.registry.evict(ticket.result(), ticket.tenant()).is_ok() {
                    worklist.push(ticket.result());
                }
            }
        }
    }

    /// The gateway's virtual clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The ciphertext registry (read-only inspection).
    pub fn registry(&self) -> &CiphertextRegistry {
        &self.registry
    }

    /// Aggregate service telemetry: per-tenant counters, goodput,
    /// fairness, and the queue-vs-service latency split, with the
    /// underlying farm report attached.
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            policy: self.policy.name(),
            farm: self.sched.report(),
            tenants: self.tenants.iter().map(|t| (t.label.clone(), t.stats)).collect(),
            latency: LatencyPercentiles::from_histogram(&self.latency_samples),
            queue: LatencyPercentiles::from_histogram(&self.queue_samples),
            service: LatencyPercentiles::from_histogram(&self.service_samples),
            now: self.now,
        }
    }

    /// A metrics-registry snapshot of the whole stack: the scheduler's
    /// farm metrics (die counters, latency histograms, twiddle-cache
    /// hits) plus what only the gateway can see — admission outcomes,
    /// registry occupancy, and the request-level latency split.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = self.sched.metrics();
        for t in &self.tenants {
            m.counter_add("gateway.submitted", t.stats.submitted);
            m.counter_add("gateway.admitted", t.stats.admitted);
            m.counter_add("gateway.completed", t.stats.completed);
            m.counter_add("gateway.cancelled", t.stats.cancelled);
            m.counter_add("gateway.rejected_quota", t.stats.rejected_quota);
            m.counter_add("gateway.rejected_queue", t.stats.rejected_queue);
            m.counter_add("gateway.rejected_denied", t.stats.rejected_denied);
        }
        m.gauge_set("gateway.now_cycles", self.now.min(i64::MAX as u64) as i64);
        m.gauge_set("gateway.registry_entries", self.registry.len() as i64);
        m.histogram_merge("gateway.latency_cycles", &self.latency_samples);
        m.histogram_merge("gateway.queue_cycles", &self.queue_samples);
        m.histogram_merge("gateway.service_cycles", &self.service_samples);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{RejectNewest, TenantFair};
    use crate::error::ErrorKind;
    use cofhee_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cofhee_core::ChipBackendFactory;
    use cofhee_farm::{ChipFarm, WorkStealing};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Client {
        params: BfvParams,
        enc: Encryptor,
        dec: Decryptor,
        rlk: cofhee_bfv::RelinKey,
        rng: StdRng,
    }

    fn client(seed: u64) -> Client {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        Client {
            enc: Encryptor::new(&params, pk),
            dec: Decryptor::new(&params, kg.secret_key().clone()),
            rlk: kg.relin_key(16, &mut rng).unwrap(),
            params,
            rng,
        }
    }

    fn encrypt(c: &mut Client, v: u64) -> Ciphertext {
        let mut coeffs = vec![0u64; c.params.n()];
        coeffs[0] = v;
        c.enc.encrypt(&Plaintext::new(&c.params, coeffs).unwrap(), &mut c.rng).unwrap()
    }

    fn gateway(chips: usize, policy: Box<dyn AdmissionPolicy>) -> Gateway {
        let farm = ChipFarm::new(chips, ChipBackendFactory::silicon()).unwrap();
        let sched = Scheduler::new(farm, Box::new(WorkStealing));
        Gateway::new(sched, policy, GatewayConfig::for_chips(chips))
    }

    #[test]
    fn submit_chain_drain_download_decrypts_correctly() {
        let mut c = client(70);
        let mut gw = gateway(2, Box::new(TenantFair::default()));
        let alice = gw.register_tenant("alice", &c.params, Some(c.rlk.clone())).unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 3)).unwrap();
        let y = gw.put_ciphertext(alice, encrypt(&mut c, 5)).unwrap();

        // Chain on the result handle before the producer has run.
        let t1 = gw.submit(alice, Request::Add(x, y)).unwrap();
        let t2 = gw.submit(alice, Request::MulRelin(t1.result(), x)).unwrap();
        let pt2 = Plaintext::constant(&c.params, 2).unwrap();
        let t3 = gw.submit(alice, Request::MulPlain(t2.result(), pt2.clone())).unwrap();
        let t4 = gw.submit(alice, Request::AddPlain(t3.result(), pt2)).unwrap();

        // Not finished yet at the clock of admission.
        assert!(matches!(gw.result(&t4), Err(ServiceError::ResultPending { .. })));
        gw.drain().unwrap();

        // ((3+5)*3)*2 + 2 = 50.
        let decrypt =
            |gw: &Gateway, t: &Ticket| c.dec.decrypt(gw.result(t).unwrap()).unwrap().coeffs()[0];
        assert_eq!(decrypt(&gw, &t1), 8);
        assert_eq!(decrypt(&gw, &t2), 24);
        assert_eq!(decrypt(&gw, &t3), 48);
        assert_eq!(decrypt(&gw, &t4), 50);

        let report = gw.report();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.rejected(), 0);
        assert!(report.goodput_ops_per_sec() > 0.0);
        // Ciphertexts never round-tripped: 2 uploads + 4 results.
        assert_eq!(gw.registry().len(), 6);
    }

    #[test]
    fn a_result_finished_in_virtual_time_is_pending_until_a_flush_computes_it() {
        let mut c = client(76);
        let mut gw = gateway(1, Box::new(TenantFair::default()));
        let alice = gw.register_tenant("alice", &c.params, Some(c.rlk.clone())).unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 3)).unwrap();
        let sum = gw.submit(alice, Request::Add(x, x)).unwrap();
        // Long past the sum's finish, a request that does not read it
        // leaves it priced but uncomputed.
        let pt = Plaintext::constant(&c.params, 2).unwrap();
        let later = gw.submit_at(alice, Request::MulPlain(x, pt), 50_000_000).unwrap();
        assert!(gw.registry().is_ready(sum.result()), "materialized at dispatch");
        assert!(matches!(gw.result(&sum), Err(ServiceError::ResultPending { .. })));
        // A request that reads it flushes the farm first.
        let chained = gw.submit_at(alice, Request::MulRelin(sum.result(), x), 100_000_000).unwrap();
        assert_eq!(c.dec.decrypt(gw.result(&sum).unwrap()).unwrap().coeffs()[0], 6);
        assert_eq!(c.dec.decrypt(gw.result(&later).unwrap()).unwrap().coeffs()[0], 6);
        assert!(matches!(gw.result(&chained), Err(ServiceError::ResultPending { .. })));
        gw.drain().unwrap();
        assert_eq!(c.dec.decrypt(gw.result(&chained).unwrap()).unwrap().coeffs()[0], 18);
    }

    #[test]
    fn validation_rejects_without_mutating_the_registry() {
        let mut alice_c = client(71);
        let mut bob_c = client(72);
        let mut gw = gateway(1, Box::new(RejectNewest));
        let alice =
            gw.register_tenant("alice", &alice_c.params, Some(alice_c.rlk.clone())).unwrap();
        let bob = gw.register_tenant("bob", &bob_c.params, None).unwrap();
        let ax = gw.put_ciphertext(alice, encrypt(&mut alice_c, 3)).unwrap();
        let bx = gw.put_ciphertext(bob, encrypt(&mut bob_c, 4)).unwrap();
        let len_before = gw.registry().len();
        let bytes_before = (gw.registry().bytes_used(alice), gw.registry().bytes_used(bob));

        // Bob may not read Alice's upload…
        let err = gw.submit(bob, Request::Add(bx, ax)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::NotAuthorized(ax) });
        // …nor multiply without relin material…
        let err = gw.submit(bob, Request::MulRelin(bx, bx)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::MissingRelinKey });
        // …nor reference handles that never existed.
        let ghost = CtHandle::new(999);
        let err = gw.submit(bob, Request::Add(bx, ghost)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::UnknownHandle(ghost) });
        // Mismatched inline plaintexts reject too.
        let narrow = BfvParams::insecure_testing(64).unwrap();
        let wrong_pt = Plaintext::constant(&narrow, 1).unwrap();
        let err = gw.submit(bob, Request::AddPlain(bx, wrong_pt)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::PlaintextModulusMismatch });

        // Rejects never mutate: same entries, same byte charges.
        assert_eq!(gw.registry().len(), len_before);
        assert_eq!((gw.registry().bytes_used(alice), gw.registry().bytes_used(bob)), bytes_before);

        // Sharing flips the ACL outcome.
        gw.share(alice, ax, bob).unwrap();
        let t = gw.submit(bob, Request::Add(bx, ax)).unwrap();
        gw.drain().unwrap();
        assert_eq!(bob_c.dec.decrypt(gw.result(&t).unwrap()).unwrap().coeffs().len(), 32);
        let kinds = gw.report();
        assert_eq!(kinds.tenants[1].1.rejected_denied, 4);
        assert_eq!(kinds.tenants[1].1.admitted, 1);
    }

    #[test]
    fn quotas_and_backpressure_reject_typed() {
        let mut c = client(73);
        let mut gw = gateway(1, Box::new(RejectNewest));
        let alice = gw.register_tenant("alice", &c.params, Some(c.rlk.clone())).unwrap();
        gw.set_quotas(
            alice,
            QuotaConfig { queue_capacity: 2, max_in_flight: 2, max_bytes: 1 << 20, weight: 1 },
        )
        .unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 1)).unwrap();

        // Two in flight fill the quota; the third rejects typed.
        gw.submit(alice, Request::Add(x, x)).unwrap();
        gw.submit(alice, Request::Add(x, x)).unwrap();
        let err = gw.submit(alice, Request::Add(x, x)).unwrap_err();
        assert_eq!(
            err,
            AdmitError::QuotaExceeded { quota: QuotaKind::InFlightJobs, limit: 2, requested: 3 }
        );
        assert_eq!(ServiceError::from(err).kind(), ErrorKind::Admission);
        gw.drain().unwrap();

        // Byte quota: a tenant capped below one result reservation.
        gw.set_quotas(
            alice,
            QuotaConfig { queue_capacity: 2, max_in_flight: 8, max_bytes: 100, weight: 1 },
        )
        .unwrap();
        let err = gw.submit(alice, Request::Add(x, x)).unwrap_err();
        assert!(matches!(err, AdmitError::QuotaExceeded { quota: QuotaKind::RegistryBytes, .. }));

        // Queue backpressure: deep in-flight allowance, shallow queue.
        // The farm has 1 die × 2 slots, so with 5 submissions at one
        // instant 2 dispatch, 2 queue, and the 5th hits the bound.
        gw.set_quotas(
            alice,
            QuotaConfig { queue_capacity: 2, max_in_flight: 64, max_bytes: 1 << 20, weight: 1 },
        )
        .unwrap();
        let at = gw.now();
        for _ in 0..4 {
            gw.submit_at(alice, Request::Add(x, x), at).unwrap();
        }
        let err = gw.submit_at(alice, Request::Add(x, x), at).unwrap_err();
        assert_eq!(err, AdmitError::QueueFull { capacity: 2 });
        gw.drain().unwrap();
        let stats = gw.report().tenants[0].1;
        assert_eq!(stats.rejected_quota, 2);
        assert_eq!(stats.rejected_queue, 1);
        assert_eq!(stats.completed, stats.admitted);
    }

    #[test]
    fn unknown_tenants_and_foreign_tickets_are_typed() {
        let mut c = client(74);
        let mut gw = gateway(1, Box::new(RejectNewest));
        let ghost = TenantId::new(9);
        let err = gw.put_ciphertext(ghost, encrypt(&mut c, 1)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Validation);
        let alice = gw.register_tenant("alice", &c.params, None).unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 1)).unwrap();
        let t = gw.submit(alice, Request::Add(x, x)).unwrap();
        gw.drain().unwrap();
        assert!(gw.result(&t).is_ok());
        // A forged ticket (same id, wrong fields) does not resolve.
        let forged = Ticket::new(t.id(), alice, x, 12345);
        assert!(matches!(gw.result(&forged), Err(ServiceError::UnknownTicket { .. })));
        let err = gw.submit(ghost, Request::Add(x, x)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::UnknownTenant });
    }

    #[test]
    fn virtual_time_advances_and_splits_queue_from_service() {
        let mut c = client(75);
        let mut gw = gateway(1, Box::new(RejectNewest));
        let alice = gw.register_tenant("alice", &c.params, Some(c.rlk.clone())).unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 2)).unwrap();
        // A burst of multiplies at cycle 0 through a 1-die farm: later
        // jobs must queue, so queue cycles split away from service.
        for _ in 0..4 {
            gw.submit_at(alice, Request::MulRelin(x, x), 0).unwrap();
        }
        gw.drain().unwrap();
        let report = gw.report();
        assert!(gw.now() > 0);
        assert!(report.service.p50 > 0, "service cost is real");
        assert!(report.queue.max > 0, "a 1-die burst must queue");
        assert!(report.latency.max >= report.queue.max + report.service.p50);
        assert_eq!(report.farm.jobs, 4);
    }
    struct CkksClient {
        params: CkksParams,
        encoder: cofhee_ckks::CkksEncoder,
        enc: cofhee_ckks::CkksEncryptor,
        dec: cofhee_ckks::CkksDecryptor,
        rlk: CkksRelinKey,
        rng: StdRng,
    }

    fn ckks_client(seed: u64) -> CkksClient {
        let params = CkksParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = cofhee_ckks::CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let pk = kg.public_key(&sk, &mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        CkksClient {
            encoder: cofhee_ckks::CkksEncoder::new(&params),
            enc: cofhee_ckks::CkksEncryptor::new(&params, pk),
            dec: cofhee_ckks::CkksDecryptor::new(&params, sk),
            rlk,
            params,
            rng,
        }
    }

    fn ckks_encrypt(c: &mut CkksClient, values: &[f64]) -> CkksCiphertext {
        let pt = c.encoder.encode(values).unwrap();
        c.enc.encrypt(&pt, &mut c.rng).unwrap()
    }

    #[test]
    fn ckks_tenants_share_the_gateway_with_bfv_tenants() {
        let mut b = client(80);
        let mut c = ckks_client(81);
        let mut gw = gateway(2, Box::new(TenantFair::default()));
        let exact = gw.register_tenant("exact", &b.params, Some(b.rlk.clone())).unwrap();
        let approx = gw.register_ckks_tenant("approx", &c.params, Some(c.rlk.clone())).unwrap();

        let bx = gw.put_ciphertext(exact, encrypt(&mut b, 6)).unwrap();
        let ax = gw.put_ckks_ciphertext(approx, ckks_encrypt(&mut c, &[1.5, -2.0])).unwrap();
        let ay = gw.put_ckks_ciphertext(approx, ckks_encrypt(&mut c, &[0.5, 3.0])).unwrap();

        // Both schemes interleave through the same admission machinery,
        // and CKKS requests chain on result handles like BFV ones.
        let tb = gw.submit(exact, Request::MulRelin(bx, bx)).unwrap();
        let t1 = gw.submit(approx, Request::CkksAdd(ax, ay)).unwrap();
        let t2 = gw.submit(approx, Request::CkksMulRelin(t1.result(), ax)).unwrap();
        let reserved = gw.registry().bytes_used(approx);
        gw.drain().unwrap();

        assert_eq!(b.dec.decrypt(gw.result(&tb).unwrap()).unwrap().coeffs()[0], 36);
        let decode = |gw: &Gateway, t: &Ticket| {
            let pt = c.dec.decrypt(gw.result_ckks(t).unwrap()).unwrap();
            c.encoder.decode(&pt).unwrap()
        };
        let sum = decode(&gw, &t1);
        assert!((sum[0] - 2.0).abs() < 1e-4 && (sum[1] - 1.0).abs() < 1e-4, "{sum:?}");
        let prod = decode(&gw, &t2);
        assert!((prod[0] - 3.0).abs() < 1e-3 && (prod[1] + 2.0).abs() < 1e-3, "{prod:?}");

        // The multiply's result rescaled down a level, so the byte
        // charge was re-trued below the worst-case reservation.
        assert!(gw.registry().bytes_used(approx) < reserved);

        // Scheme misuse fails typed at every surface: wrong-scheme
        // request, wrong-scheme upload, wrong-scheme download.
        let err = gw.submit(approx, Request::Add(ax, ay)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::SchemeMismatch });
        let err = gw.submit(exact, Request::CkksAdd(bx, bx)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::SchemeMismatch });
        let err = gw.put_ciphertext(approx, encrypt(&mut b, 1)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Validation);
        assert!(matches!(gw.result(&t1), Err(ServiceError::WrongScheme { .. })));
        assert!(matches!(gw.download_ckks(exact, bx), Err(ServiceError::WrongScheme { .. })));

        // Cross-scheme operand references are caught by the fingerprint
        // even before dispatch: a CKKS tenant naming a BFV handle it was
        // granted cannot run it.
        gw.share(exact, bx, approx).unwrap();
        let err = gw.submit(approx, Request::CkksAdd(bx, ax)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::ParamsMismatch(bx) });

        // A keyless CKKS tenant cannot multiply.
        let keyless = gw.register_ckks_tenant("keyless", &c.params, None).unwrap();
        let kx = gw.put_ckks_ciphertext(keyless, ckks_encrypt(&mut c, &[1.0])).unwrap();
        let err = gw.submit(keyless, Request::CkksMulRelin(kx, kx)).unwrap_err();
        assert_eq!(err, AdmitError::Denied { reason: DenyReason::MissingRelinKey });
    }

    #[test]
    fn traced_gateway_emits_request_chains_and_typed_reject_instants() {
        use cofhee_obs::{EventKind, MemorySink, Track};
        let mut c = client(82);
        let mut gw = gateway(2, Box::new(TenantFair::default()));
        let sink = MemorySink::shared();
        gw.set_trace_sink(sink.clone());
        let alice = gw.register_tenant("alice", &c.params, None).unwrap();
        let x = gw.put_ciphertext(alice, encrypt(&mut c, 3)).unwrap();
        let t = gw.submit(alice, Request::Add(x, x)).unwrap();
        // No relin key: a typed reject that must land on the trace too.
        gw.submit(alice, Request::MulRelin(x, x)).unwrap_err();
        gw.drain().unwrap();
        assert!(gw.result(&t).is_ok());

        let events = sink.events();
        let gate: Vec<_> = events.iter().filter(|e| e.track == Track::Gateway).collect();
        assert!(gate.iter().any(|e| e.name == "admit"));
        assert!(gate.iter().any(|e| e.name == "reject:denied"));

        // The admitted request's per-job chain: admit instant and queue
        // span at its arrival, materialize instant at its finish — on
        // the same (tenant, seq) track the scheduler spans use.
        let job_track = Track::Job { tenant: 0, seq: 0 };
        let job: Vec<_> = events.iter().filter(|e| e.track == job_track).collect();
        let admit = job.iter().find(|e| e.name == "admit").expect("admit instant");
        let queue = job.iter().find(|e| e.name == "queue").expect("queue span");
        let done = job.iter().find(|e| e.name == "materialize").expect("materialize instant");
        assert_eq!(admit.kind.start(), t.arrival());
        assert!(matches!(queue.kind, EventKind::Span { .. }));
        assert!(job.iter().any(|e| e.name == "ct+ct"), "scheduler span shares the track");
        assert!(done.kind.start() >= queue.kind.start());

        // The stack-wide metrics snapshot sees both layers.
        let m = gw.metrics();
        assert_eq!(m.counter("gateway.submitted"), 2);
        assert_eq!(m.counter("gateway.admitted"), 1);
        assert_eq!(m.counter("gateway.rejected_denied"), 1);
        assert_eq!(m.counter("farm.jobs"), 1);
        assert_eq!(m.histogram("gateway.latency_cycles").map(|h| h.count()), Some(1));
        let json = m.render_json();
        cofhee_obs::check::validate_json(&json).expect("metrics snapshot renders valid JSON");
    }
}
