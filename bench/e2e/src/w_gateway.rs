//! `gateway_open_n11`: six tenants offer requests to a `Gateway` over a
//! 2-die farm as an **open loop in virtual time** — each tenant's arrivals
//! are a seeded Poisson process, submitted with `submit_at` in arrival
//! order whatever the farm's backlog, then drained. Latency counts from
//! each request's scheduled arrival cycle, so the generator is never late
//! by construction; the host replays the schedule as fast as it can.
//!
//! The only workload through `cofhee_service` (admission, registry,
//! materialize, tenant-fair drain) and the only one *below saturation*
//! (≈ 0.75 × the farm's capacity), where placement decides latency:
//! placement changes move `sim_latency_cycles_*` here and nothing on the
//! saturated farm workloads.

use std::time::Instant;

use cofhee_apps::Workload as Mix;
use cofhee_core::ChipBackendFactory;
use cofhee_farm::{ChipFarm, Job, JobKind, Scheduler, Session, WorkStealing};
use cofhee_service::{
    arrival_times, request_mix, AdmitError, ArrivalProcess, CtHandle, Gateway, GatewayConfig,
    QuotaConfig, Request, ServiceReport, TenantFair, TenantId, Ticket,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::{digest_bfv, digest_ckks, Arith, BfvKit, CkksKit, Plan, POOL};
use crate::harness::{BenchResult, Metrics, Pass, RunConfig, Sim, Workload};
use crate::spans::Recorder;
use crate::w_farm::farm_report_metrics;

const DIES: usize = 2;
const BFV_TENANTS: usize = 4;
const CKKS_TENANTS: usize = 2;
/// The schedule is submitted in this many timed segments.
const SEGMENTS: usize = 8;
/// Per-tenant admission limits.
const QUEUE_CAPACITY: usize = 16;
const MAX_IN_FLIGHT: u64 = 32;
/// Offered load over the farm's measured capacity at the nominal gap
/// (6 tenants at one request per 3,000,000 cycles against ≈ 670 ops/s).
const NOMINAL_LOAD: f64 = 0.75;

/// The traced run's side replays (scheduler-direct, other rates) offer this
/// fraction of the schedule: they are diagnostics, and four full replays
/// would take as long again as the run itself.
const PROBE_FRACTION: usize = 4;

pub struct GatewayOpen {
    bfv: BfvKit,
    ckks: CkksKit,
    /// The measured schedule: 200 requests per tenant at the nominal rate.
    load: Load,
    seed: u64,
    last: Option<(ServiceReport, f64)>,
}

/// How much each tenant offers and how fast.
#[derive(Debug, Clone, Copy)]
struct Load {
    per_tenant: usize,
    /// Mean cycles between one tenant's arrivals.
    mean_gap: u64,
}

/// A schedule after it was offered and drained.
struct Offer {
    gw: Gateway,
    schedule: Vec<Offered>,
    /// Per scheduled request, in schedule order.
    admissions: Vec<Result<Ticket, AdmitError>>,
}

/// One scheduled request and what it computes.
struct Offered {
    at: u64,
    tenant: TenantId,
    request: Request,
    ckks: bool,
    plan: Plan,
}

/// Reorders `items` so each kind (as `kind_of` names it) is spaced evenly
/// through the list: item `i` of a kind with `c` members out of `t` goes to
/// position `(i + ½)·t/c`. Order within a kind is kept; no randomness.
fn spread_evenly<T>(items: Vec<T>, kind_of: impl Fn(&T) -> &'static str) -> Vec<T> {
    let total = items.len() as f64;
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for item in &items {
        match counts.iter_mut().find(|(k, _)| *k == kind_of(item)) {
            Some((_, c)) => *c += 1,
            None => counts.push((kind_of(item), 1)),
        }
    }
    let mut seen: Vec<usize> = vec![0; counts.len()];
    let mut placed: Vec<(f64, usize, T)> = items
        .into_iter()
        .map(|item| {
            let k = counts.iter().position(|(k, _)| *k == kind_of(&item)).expect("counted above");
            let at = (seen[k] as f64 + 0.5) * total / counts[k].1 as f64;
            seen[k] += 1;
            (at, k, item)
        })
        .collect();
    placed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    placed.into_iter().map(|(_, _, item)| item).collect()
}

impl GatewayOpen {
    /// A fresh gateway with every tenant registered and its operand pool
    /// uploaded, and the merged arrival schedule at `mean_gap`.
    fn bring_up(&self, rec: &mut Recorder, load: Load) -> BenchResult<(Gateway, Vec<Offered>)> {
        let Load { per_tenant, mean_gap } = load;
        let mut gw = rec.span("service", "bring_up", |_| -> BenchResult<_> {
            let farm = ChipFarm::new(DIES, ChipBackendFactory::silicon())?;
            let sched = Scheduler::new(farm, Box::new(WorkStealing));
            Ok(Gateway::new(sched, Box::new(TenantFair::default()), GatewayConfig::for_chips(DIES)))
        })?;
        let quotas = QuotaConfig {
            queue_capacity: QUEUE_CAPACITY,
            max_in_flight: MAX_IN_FLIGHT,
            ..QuotaConfig::default()
        };
        let process = ArrivalProcess::Poisson { mean_gap };
        let mut schedule = Vec::new();
        for i in 0..BFV_TENANTS + CKKS_TENANTS {
            let tseed = self.seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9);
            let times = arrival_times(process, per_tenant, tseed ^ 0x5DEE_CE66);
            let ckks = i >= BFV_TENANTS;
            let (tenant, requests) = if ckks {
                let tenant = rec.span("service", "register", |_| {
                    gw.register_ckks_tenant(
                        &format!("ckks-{i}"),
                        &self.ckks.params,
                        Some(self.ckks.rlk.clone()),
                    )
                })?;
                gw.set_quotas(tenant, quotas)?;
                let handles = (self.ckks.cts.iter())
                    .map(|ct| {
                        rec.span("service", "put", |_| gw.put_ckks_ciphertext(tenant, ct.clone()))
                    })
                    .collect::<Result<Vec<CtHandle>, _>>()?;
                // One multiply to two adds.
                let mut rng = StdRng::seed_from_u64(tseed);
                let requests = (0..per_tenant)
                    .map(|k| {
                        let (a, b) = (rng.gen_range(0..POOL), rng.gen_range(0..POOL));
                        if k % 3 == 0 {
                            (
                                Request::CkksMulRelin(handles[a], handles[b]),
                                Plan { op: Arith::Mul, a, b },
                            )
                        } else {
                            (
                                Request::CkksAdd(handles[a], handles[b]),
                                Plan { op: Arith::Add, a, b },
                            )
                        }
                    })
                    .collect::<Vec<_>>();
                (tenant, requests)
            } else {
                let tenant = rec.span("service", "register", |_| {
                    gw.register_tenant(
                        &format!("bfv-{i}"),
                        &self.bfv.params,
                        Some(self.bfv.rlk.clone()),
                    )
                })?;
                gw.set_quotas(tenant, quotas)?;
                let handles = (self.bfv.cts.iter())
                    .map(|ct| rec.span("service", "put", |_| gw.put_ciphertext(tenant, ct.clone())))
                    .collect::<Result<Vec<CtHandle>, _>>()?;
                let index = |h: &CtHandle| handles.iter().position(|x| x == h);
                let mix = Mix::logistic_regression();
                let requests = request_mix(&mix, per_tenant, &handles, &self.bfv.pts, tseed);
                // `request_mix` front-loads the commonest kind; spread the
                // kinds evenly so every stretch of the schedule (and so
                // every timed segment) carries the same mix.
                let requests = spread_evenly(requests, |r| r.name())
                    .into_iter()
                    .map(|request| {
                        let plan = match &request {
                            Request::Add(a, b) => (Arith::Add, index(a), index(b)),
                            Request::MulRelin(a, b) => (Arith::Mul, index(a), index(b)),
                            Request::MulPlain(a, p) => {
                                (Arith::MulPlain, index(a), self.bfv.pt_index(p))
                            }
                            _ => (Arith::Add, None, None),
                        };
                        match plan {
                            (op, Some(a), Some(b)) => Ok((request, Plan { op, a, b })),
                            _ => Err("request_mix produced a request outside the operand pool"),
                        }
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                (tenant, requests)
            };
            for (at, (request, plan)) in times.into_iter().zip(requests) {
                schedule.push(Offered { at, tenant, request, ckks, plan });
            }
        }
        schedule.sort_by_key(|o| (o.at, o.tenant.raw()));
        Ok((gw, schedule))
    }

    /// Offers the schedule segment by segment (timed into `pass`) and
    /// drains; returns the gateway and each request's admission outcome.
    fn offer(&self, rec: &mut Recorder, load: Load, pass: &mut Pass) -> BenchResult<Offer> {
        let (mut gw, schedule) = self.bring_up(rec, load)?;
        let mut admissions = Vec::with_capacity(schedule.len());
        let chunk = schedule.len().div_ceil(SEGMENTS).max(1);
        for (i, part) in schedule.chunks(chunk).enumerate() {
            let t = Instant::now();
            for o in part {
                admissions.push(rec.span("service", "submit", |_| {
                    gw.submit_at(o.tenant, o.request.clone(), o.at)
                }));
            }
            if (i + 1) * chunk >= schedule.len() {
                rec.span("service", "drain", |_| gw.drain())?;
            }
            pass.push_segment(part.len() as u64, t.elapsed().as_secs_f64());
        }
        Ok(Offer { gw, schedule, admissions })
    }

    fn run_pass(&mut self, rec: &mut Recorder, load: Load, verify: bool) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        let Offer { gw, schedule, admissions } = self.offer(rec, load, &mut pass)?;
        for (o, admission) in schedule.iter().zip(&admissions) {
            // A typed reject, or a result that cannot be downloaded, is a
            // failed op.
            let Ok(ticket) = admission else {
                pass.errored();
                continue;
            };
            let outcome = if o.ckks {
                rec.span("service", "download", |_| gw.result_ckks(ticket)).ok().map(|ct| {
                    let checked = verify.then(|| self.ckks.check_plan(ct, o.plan)).transpose();
                    checked.map(|c| (digest_ckks(ct), c))
                })
            } else {
                rec.span("service", "download", |_| gw.result(ticket)).ok().map(|ct| {
                    let checked = verify.then(|| self.bfv.check_plan(ct, o.plan)).transpose();
                    checked.map(|c| (digest_bfv(ct), c))
                })
            };
            match outcome.transpose()? {
                Some((digest, checked)) => pass.completed(digest, checked),
                None => pass.errored(),
            }
        }
        let report = gw.report();
        let st = &report.farm.stream_totals;
        pass.sim = Some(Sim {
            ops_per_s: report.goodput_ops_per_sec(),
            dma_bytes_per_op: (st.uploaded_bytes + st.downloaded_bytes) as f64
                / report.completed().max(1) as f64,
            latency_p50: Some(report.latency.p50),
            latency_p99: Some(report.latency.p99),
        });
        let wall_s = pass.segments.iter().map(|s| s.wall_s).sum();
        self.last = Some((report, wall_s));
        Ok(pass)
    }

    /// The schedule's requests as plain farm jobs straight through a
    /// `Scheduler`, same arrivals: what the service layer adds on top is
    /// the gateway's wall minus this one's.
    fn scheduler_wall_s(&self, load: Load) -> BenchResult<f64> {
        let (_, schedule) = self.bring_up(&mut Recorder::off(), load)?;
        let farm = ChipFarm::new(DIES, ChipBackendFactory::silicon())?;
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        let bfv = sched.open_session(Session::new("bfv", &self.bfv.params, self.bfv.rlk.clone())?);
        let ckks = sched.open_session(Session::new_ckks(
            "ckks",
            &self.ckks.params,
            self.ckks.rlk.clone(),
        )?);
        let jobs: Vec<Job> = schedule
            .iter()
            .map(|o| {
                let Plan { op, a, b } = o.plan;
                let kind = if o.ckks {
                    let (x, y) = (self.ckks.cts[a].clone(), self.ckks.cts[b].clone());
                    match op {
                        Arith::Mul => JobKind::CkksMulRelin(x, y),
                        _ => JobKind::CkksAdd(x, y),
                    }
                } else {
                    let x = self.bfv.cts[a].clone();
                    match op {
                        Arith::Add => JobKind::Add(x, self.bfv.cts[b].clone()),
                        Arith::Mul => JobKind::MulRelin(x, self.bfv.cts[b].clone()),
                        Arith::MulPlain => JobKind::MulPlain(x, self.bfv.pts[b].clone()),
                    }
                };
                Job { session: if o.ckks { ckks } else { bfv }, kind, arrival: o.at }
            })
            .collect();
        let t = Instant::now();
        sched.run(jobs)?;
        Ok(t.elapsed().as_secs_f64())
    }
}

impl Workload for GatewayOpen {
    const NAME: &'static str = "gateway_open_n11";

    fn setup(cfg: &RunConfig) -> BenchResult<Self> {
        let n = cfg.sized(1 << 11, 1 << 8);
        let load = Load { per_tenant: cfg.sized(200, 8), mean_gap: cfg.sized(3_000_000, 400_000) };
        let mut w = Self {
            bfv: BfvKit::new(n, cfg.seed)?,
            ckks: CkksKit::new(n, cfg.seed)?,
            load,
            seed: cfg.seed,
            last: None,
        };
        // Warm-up: a short schedule fills the twiddle cache.
        w.run_pass(&mut Recorder::off(), Load { per_tenant: cfg.sized(8, 2), ..load }, false)?;
        w.last = None;
        Ok(w)
    }

    fn degree(&self) -> usize {
        self.bfv.params.n()
    }

    fn pass(&mut self, verify: bool) -> BenchResult<Pass> {
        self.run_pass(&mut Recorder::off(), self.load, verify)
    }

    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass> {
        rec.next_op();
        rec.span("bench", "op", |rec| self.run_pass(rec, self.load, false))
    }

    fn layer_metrics(&mut self, rec: &Recorder, _ops: u64, m: &mut Metrics) -> BenchResult<()> {
        let (report, gateway_wall_s) = self.last.clone().ok_or("no pass has run")?;
        m.set("service.submit_us", rec.mean_self_us("service", "submit"));
        m.set("service.put_us", rec.mean_self_us("service", "put"));
        m.set("service.download_us", rec.mean_self_us("service", "download"));
        m.set(
            "service.drain_ms_per_req",
            rec.mean_self_us("service", "drain") / 1e3 / report.submitted().max(1) as f64,
        );
        m.set("service.reject_share", report.reject_rate());
        m.set("service.jain_fairness", report.jain_fairness());
        m.set("service.queue_cycles_p50", report.queue.p50 as f64);
        farm_report_metrics(&report.farm, gateway_wall_s, report.completed(), m);

        let probe = Load { per_tenant: self.load.per_tenant / PROBE_FRACTION, ..self.load };
        let mut through_gateway = Pass::default();
        self.offer(&mut Recorder::off(), probe, &mut through_gateway)?;
        let gateway_s: f64 = through_gateway.segments.iter().map(|s| s.wall_s).sum();
        m.set("service.overhead_share", 1.0 - self.scheduler_wall_s(probe)? / gateway_s);

        // The same tenants offering 0.5 × and 1.2 × the farm's capacity.
        for (share, p99, rejects) in [
            (0.5, "service.p99_cycles_at_0.5x", None),
            (1.2, "service.p99_cycles_at_1.2x", Some("service.reject_share_at_1.2x")),
        ] {
            let mean_gap = (probe.mean_gap as f64 * NOMINAL_LOAD / share) as u64;
            let load = Load { mean_gap, ..probe };
            let r = self.offer(&mut Recorder::off(), load, &mut Pass::default())?.gw.report();
            m.set(p99, r.latency.p99 as f64);
            if let Some(name) = rejects {
                m.set(name, r.reject_rate());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::spread_evenly;

    #[test]
    fn kinds_are_spaced_evenly_and_keep_their_order() {
        // 6 a's, 3 b's, 1 c, front-loaded as `request_mix` would.
        let items: Vec<(&'static str, u32)> = [("a", 0), ("a", 1), ("a", 2), ("a", 3)]
            .into_iter()
            .chain([("b", 0), ("a", 4), ("b", 1), ("a", 5), ("b", 2), ("c", 0)])
            .collect();
        let out = spread_evenly(items.clone(), |i| i.0);
        assert_eq!(out.len(), items.len());
        for kind in ["a", "b", "c"] {
            let order: Vec<u32> = out.iter().filter(|i| i.0 == kind).map(|i| i.1).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{kind} keeps its order");
        }
        // Either half of the list holds half of each common kind.
        let first: Vec<_> = out[..5].iter().map(|i| i.0).collect();
        assert_eq!(first.iter().filter(|k| **k == "a").count(), 3);
        assert!((1..=2).contains(&first.iter().filter(|k| **k == "b").count()));
    }
}
