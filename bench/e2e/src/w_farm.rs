//! `farm_cryptonets_n12` and `farm_logreg_mixed_n12`: the paper's Table X
//! application mixes replayed as closed load (every job ready at cycle 0)
//! through `Scheduler::run` on a 4-die farm of the silicon configuration.
//!
//! CryptoNets is ≈ 99 % `ct+ct` / `ct*pt`: thousands of cheap jobs, so
//! host time is job decomposition, staging and simulator bookkeeping, not
//! arithmetic. The logistic-regression mix is ≈ 37 % mul+relin, alternates
//! BFV and CKKS sessions and runs at O1, which puts the stream compiler,
//! both per-scheme lowering arms and relin-key DMA on the hot path — all
//! three of which CryptoNets bypasses.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use cofhee_apps::Workload as Mix;
use cofhee_bfv::Evaluator;
use cofhee_ckks::{CkksError, CkksEvaluator};
use cofhee_core::{ChipBackendFactory, OpStream, PolyBackend, PoolStats};
use cofhee_farm::{
    mixed_workload_jobs, workload_jobs, ChipFarm, FarmReport, Job, JobKind, JobResult,
    ReplayInputs, ReplaySpec, Scheduler, Session, WorkStealing,
};
use cofhee_obs::MemorySink;
use cofhee_opt::OptLevel;

use crate::fixtures::{digest_bfv, digest_ckks, Arith, BfvKit, CkksKit, Plan};
use crate::harness::{BenchResult, Metrics, Pass, RunConfig, Sim, Workload};
use crate::spans::Recorder;
use crate::staged;
use crate::stats::Fnv;

const DIES: usize = 4;
/// Jobs of each kind run one at a time for `farm.job_ms.*`.
const JOBS_SAMPLED_PER_KIND: usize = 12;

pub trait FarmSpec {
    const NAME: &'static str;
    /// Alternate BFV and CKKS sessions (`mixed_workload_jobs`).
    const MIXED: bool;
    const OPT: OptLevel;
    fn mix() -> Mix;
    /// Table X op counts are divided by this; one list is one segment.
    fn divisor(cfg: &RunConfig) -> u64;
}

pub struct Cryptonets;

impl FarmSpec for Cryptonets {
    const NAME: &'static str = "farm_cryptonets_n12";
    const MIXED: bool = false;
    const OPT: OptLevel = OptLevel::O0;

    fn mix() -> Mix {
        Mix::cryptonets()
    }

    fn divisor(cfg: &RunConfig) -> u64 {
        cfg.sized(4_000, 128_000)
    }
}

pub struct Logreg;

impl FarmSpec for Logreg {
    const NAME: &'static str = "farm_logreg_mixed_n12";
    const MIXED: bool = true;
    const OPT: OptLevel = OptLevel::O1;

    fn mix() -> Mix {
        Mix::logistic_regression()
    }

    fn divisor(cfg: &RunConfig) -> u64 {
        cfg.sized(5_400, 86_400)
    }
}

pub struct Farm<S> {
    bfv: BfvKit,
    ckks: Option<CkksKit>,
    inputs: ReplayInputs,
    spec: ReplaySpec,
    last: Option<LastRound>,
    _spec: PhantomData<S>,
}

/// One finished round.
struct Round {
    sched: Scheduler,
    /// The list given to `run` (a copy: `run` consumes it, verification
    /// needs the operands) and each job's result, in list order.
    jobs: Vec<Job>,
    results: Vec<JobResult>,
    wall_s: f64,
}

/// What the per-layer metrics need from the last round.
#[derive(Clone)]
struct LastRound {
    report: FarmReport,
    pool: PoolStats,
    wall_s: f64,
    /// Per job, in list order.
    digests: Vec<u64>,
}

fn digest(result: &JobResult) -> u64 {
    match result {
        JobResult::Bfv(ct) => digest_bfv(ct),
        JobResult::Ckks(ct) => digest_ckks(ct),
    }
}

impl<S: FarmSpec> Farm<S> {
    /// A fresh farm and scheduler with the tenant sessions opened, and the
    /// deterministic job list generated against their ids.
    fn bring_up(&self) -> BenchResult<(Scheduler, Vec<Job>)> {
        let farm = ChipFarm::new(DIES, ChipBackendFactory::silicon())?;
        let mut sched = Scheduler::new(farm, Box::new(WorkStealing));
        sched.set_opt_level(S::OPT);
        let bfv = sched.open_session(Session::new("bfv", &self.bfv.params, self.bfv.rlk.clone())?);
        let jobs = match &self.ckks {
            Some(kit) => {
                let ckks =
                    sched.open_session(Session::new_ckks("ckks", &kit.params, kit.rlk.clone())?);
                mixed_workload_jobs(bfv, ckks, &S::mix(), &self.spec, &self.inputs)?
            }
            None => workload_jobs(bfv, &S::mix(), &self.spec, &self.inputs)?,
        };
        Ok((sched, jobs))
    }

    fn round(&self, rec: &mut Recorder) -> BenchResult<Round> {
        let (mut sched, jobs) = rec.span("farm", "bring_up", |_| self.bring_up())?;
        let kept = rec.span("bench", "clone_jobs", |_| jobs.clone());
        let t = Instant::now();
        let outcomes = rec.span("farm", "run", |_| sched.run(jobs))?;
        let wall_s = t.elapsed().as_secs_f64();
        let mut results: Vec<Option<JobResult>> = kept.iter().map(|_| None).collect();
        for o in outcomes {
            results[o.index] = Some(o.result);
        }
        let results =
            results.into_iter().collect::<Option<Vec<_>>>().ok_or("a job has no outcome")?;
        Ok(Round { sched, jobs: kept, results, wall_s })
    }

    /// What `kind` computes, over pool indices.
    fn plan(&self, kind: &JobKind) -> Option<(bool, Plan)> {
        let (b, c) = (&self.bfv, self.ckks.as_ref());
        let plan = |op, a: Option<usize>, b: Option<usize>| Some(Plan { op, a: a?, b: b? });
        Some(match kind {
            JobKind::Add(x, y) => (false, plan(Arith::Add, b.ct_index(x), b.ct_index(y))?),
            JobKind::MulPlain(x, p) => {
                (false, plan(Arith::MulPlain, b.ct_index(x), b.pt_index(p))?)
            }
            JobKind::MulRelin(x, y) => (false, plan(Arith::Mul, b.ct_index(x), b.ct_index(y))?),
            JobKind::CkksAdd(x, y) => (true, plan(Arith::Add, c?.ct_index(x), c?.ct_index(y))?),
            JobKind::CkksMulPlain(x, p) => {
                (true, plan(Arith::MulPlain, c?.ct_index(x), c?.pt_index(p))?)
            }
            JobKind::CkksMulRelin(x, y) => {
                (true, plan(Arith::Mul, c?.ct_index(x), c?.ct_index(y))?)
            }
            JobKind::AddPlain(..) => return None,
        })
    }

    fn finish_pass(&mut self, round: Round, verify: bool) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        let report = round.sched.report();
        pass.push_segment(round.jobs.len() as u64, round.wall_s);
        for (job, result) in round.jobs.iter().zip(&round.results) {
            let check = || match (self.plan(&job.kind), result) {
                (Some((false, plan)), JobResult::Bfv(ct)) => self.bfv.check_plan(ct, plan),
                (Some((true, plan)), JobResult::Ckks(ct)) => {
                    self.ckks.as_ref().expect("mixed").check_plan(ct, plan)
                }
                _ => Ok(None),
            };
            pass.completed(digest(result), verify.then(check).transpose()?);
        }
        let st = &report.stream_totals;
        pass.sim = Some(Sim {
            ops_per_s: report.throughput_ops_per_sec(),
            dma_bytes_per_op: (st.uploaded_bytes + st.downloaded_bytes) as f64
                / report.jobs.max(1) as f64,
            latency_p50: None,
            latency_p99: None,
        });
        self.last = Some(LastRound {
            report,
            pool: round.sched.farm().pool_stats(),
            wall_s: round.wall_s,
            digests: pass.digests.clone(),
        });
        Ok(pass)
    }
}

impl<S: FarmSpec> Workload for Farm<S> {
    const NAME: &'static str = S::NAME;

    fn setup(cfg: &RunConfig) -> BenchResult<Self> {
        let n = cfg.sized(1 << 12, 1 << 8);
        let bfv = BfvKit::new(n, cfg.seed)?;
        let ckks = if S::MIXED { Some(CkksKit::new(n, cfg.seed)?) } else { None };
        let mut inputs = ReplayInputs::bfv(bfv.cts.clone(), bfv.pts.clone());
        if let Some(kit) = &ckks {
            inputs = inputs.with_ckks(kit.cts.clone(), kit.pts.clone());
        }
        let spec = ReplaySpec::closed(S::divisor(cfg), cfg.seed);
        let w = Self { bfv, ckks, inputs, spec, last: None, _spec: PhantomData };
        // Warm-up round: twiddle cache and, through it, every die's tables.
        w.round(&mut Recorder::off())?;
        Ok(w)
    }

    fn degree(&self) -> usize {
        self.bfv.params.n()
    }

    fn pass(&mut self, verify: bool) -> BenchResult<Pass> {
        let round = self.round(&mut Recorder::off())?;
        self.finish_pass(round, verify)
    }

    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass> {
        rec.next_op();
        rec.span("bench", "op", |rec| {
            let round = self.round(rec)?;
            rec.span("bench", "digest", |_| self.finish_pass(round, false))
        })
    }

    fn layer_metrics(&mut self, _rec: &Recorder, _ops: u64, m: &mut Metrics) -> BenchResult<()> {
        let last = self.last.clone().ok_or("no round has run")?;
        farm_report_metrics(&last.report, last.wall_s, last.report.jobs, m);
        staged::set_pool_reuse(m, &PoolStats::default(), &last.pool);

        let (_, jobs) = self.bring_up()?;
        self.bare_replay(&jobs, &last, m)?;
        self.job_samples(&jobs, m)?;
        if S::OPT != OptLevel::O0 {
            self.opt_and_obs(&jobs, &last.report.stream_totals, m)?;
        }
        Ok(())
    }
}

/// The per-layer metrics a `FarmReport` carries, for `jobs` ops whose
/// `Scheduler::run` (or gateway replay) took `run_wall_s` of host wall.
pub fn farm_report_metrics(report: &FarmReport, run_wall_s: f64, jobs: u64, m: &mut Metrics) {
    let jobs = jobs.max(1) as f64;
    let busy: Vec<f64> = report.chips.iter().map(|c| c.busy_cycles as f64).collect();
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    m.set("farm.die_imbalance", busy.iter().copied().fold(0.0, f64::max) / mean_busy);
    m.set("farm.mean_utilization", report.mean_utilization());
    m.set("farm.queue_cycles_p50", report.queue.p50 as f64);
    m.set("farm.service_cycles_p50", report.service.p50 as f64);
    m.set("farm.streams_per_job", report.streams as f64 / jobs);
    let st = &report.stream_totals;
    m.set("core.dma_up_bytes", st.uploaded_bytes as f64 / jobs);
    m.set("core.dma_down_bytes", st.downloaded_bytes as f64 / jobs);
    m.set(
        "core.overlap_hidden_share",
        1.0 - st.overlapped_cycles as f64 / st.serial_cycles.max(1) as f64,
    );
    m.set("sim.cycles_per_op", st.overlapped_cycles as f64 / jobs);
    m.set("sim.host_ns_per_cycle", run_wall_s * 1e9 / st.overlapped_cycles.max(1) as f64);
    m.set("opt.ops_eliminated", st.ops_eliminated as f64 / jobs);
    m.set("opt.ops_fused", st.ops_fused as f64 / jobs);
}

/// Bare backends for replaying jobs without the farm: one chip backend
/// per modulus, streams run one after another as `ChipFarm::execute` does.
struct Bare {
    level: OptLevel,
    bfv_eval: Evaluator,
    q: Box<dyn PolyBackend>,
    limbs: Vec<Box<dyn PolyBackend>>,
    ckks: Option<(CkksEvaluator, Vec<Box<dyn PolyBackend>>)>,
}

impl Bare {
    fn exec(
        level: OptLevel,
        rec: &mut Recorder,
        be: &mut dyn PolyBackend,
        st: OpStream,
    ) -> BenchResult<Vec<Vec<u128>>> {
        let st = if level == OptLevel::O0 {
            st
        } else {
            rec.span("opt", "optimize", |_| cofhee_opt::optimize(&st, level))?.0
        };
        Ok(rec.span("core", "execute", |_| be.execute_stream(&st))?.outputs)
    }

    fn exec_limbs(
        level: OptLevel,
        rec: &mut Recorder,
        bes: &mut [Box<dyn PolyBackend>],
        streams: Vec<OpStream>,
    ) -> BenchResult<Vec<Vec<Vec<u128>>>> {
        streams
            .into_iter()
            .zip(bes)
            .map(|(st, be)| Self::exec(level, rec, be.as_mut(), st))
            .collect()
    }

    /// One job in its staged form: record, (optimize,) execute, finish.
    fn run_job<S: FarmSpec>(
        &mut self,
        w: &Farm<S>,
        rec: &mut Recorder,
        kind: &JobKind,
    ) -> BenchResult<JobResult> {
        let (level, ev) = (self.level, &self.bfv_eval);
        let bfv_single = |rec: &mut Recorder, q: &mut Box<dyn PolyBackend>, st| {
            let st = rec.span("bfv", "record", |_| st)?;
            let out = Self::exec(level, rec, q.as_mut(), st)?;
            Ok::<_, Box<dyn std::error::Error>>(JobResult::Bfv(rec.span(
                "bfv",
                "finish",
                |_| ev.ciphertext_from_outputs(out),
            )?))
        };
        match kind {
            JobKind::Add(a, b) => bfv_single(rec, &mut self.q, ev.add_stream(a, b)),
            JobKind::AddPlain(a, p) => bfv_single(rec, &mut self.q, ev.add_plain_stream(a, p)),
            JobKind::MulPlain(a, p) => bfv_single(rec, &mut self.q, ev.mul_plain_stream(a, p)),
            JobKind::MulRelin(a, b) => {
                let streams = rec.span("bfv", "record", |_| ev.tensor_streams(a, b))?;
                let limbs = Self::exec_limbs(level, rec, &mut self.limbs, streams)?;
                let product = rec.span("bfv", "crt", |_| ev.tensor_combine(&limbs))?;
                bfv_single(rec, &mut self.q, ev.relin_stream(&product, &w.bfv.rlk))
            }
            ckks_kind => {
                let (cev, bes) = self.ckks.as_mut().ok_or("a CKKS job without a CKKS session")?;
                let rlk = &w.ckks.as_ref().ok_or("a CKKS job without CKKS keys")?.rlk;
                let mut stage = |rec: &mut Recorder,
                                 record: &dyn Fn() -> Result<Vec<OpStream>, CkksError>,
                                 level_scale: (cofhee_ckks::Level, f64)|
                 -> BenchResult<cofhee_ckks::CkksCiphertext> {
                    let streams = rec.span("ckks", "record", |_| record())?;
                    let k = streams.len();
                    let out = Self::exec_limbs(level, rec, &mut bes[..k], streams)?;
                    Ok(rec.span("ckks", "finish", |_| {
                        cev.ciphertext_from_limb_outputs(out, level_scale.0, level_scale.1)
                    })?)
                };
                Ok(JobResult::Ckks(match ckks_kind {
                    JobKind::CkksAdd(a, b) => {
                        stage(rec, &|| cev.add_streams(a, b), (a.level(), a.scale()))?
                    }
                    JobKind::CkksMulPlain(a, p) => stage(
                        rec,
                        &|| cev.mul_plain_streams(a, p),
                        (a.level(), a.scale() * p.scale()),
                    )?,
                    JobKind::CkksMulRelin(a, b) => {
                        let t = stage(
                            rec,
                            &|| cev.tensor_streams(a, b),
                            (a.level(), a.scale() * b.scale()),
                        )?;
                        let r = stage(rec, &|| cev.relin_streams(&t, rlk), (t.level(), t.scale()))?;
                        let lower = r.level().lower().ok_or(CkksError::LevelExhausted)?;
                        stage(rec, &|| cev.rescale_streams(&r), (lower, cev.rescaled_scale(&r)?))?
                    }
                    _ => unreachable!("BFV kinds are matched above"),
                }))
            }
        }
    }
}

impl<S: FarmSpec> Farm<S> {
    /// `farm.overhead_share` and the staged layer split: the same job list
    /// on bare chip backends, no farm, no scheduler; results must equal
    /// the scheduler's bit for bit.
    fn bare_replay(&self, jobs: &[Job], last: &LastRound, m: &mut Metrics) -> BenchResult<()> {
        let factory = ChipBackendFactory::silicon();
        let n = self.bfv.params.n();
        let mut bare = Bare {
            level: S::OPT,
            bfv_eval: Evaluator::new(&self.bfv.params)?,
            q: staged::backends(&factory, &[self.bfv.params.q()], n)?.remove(0),
            limbs: staged::backends(&factory, self.bfv.params.mult_basis().moduli(), n)?,
            ckks: match &self.ckks {
                Some(kit) => Some((
                    CkksEvaluator::new(&kit.params)?,
                    staged::backends(&factory, kit.params.moduli(), n)?,
                )),
                None => None,
            },
        };
        let mut rec = Recorder::default();
        let t = Instant::now();
        for (job, &want) in jobs.iter().zip(&last.digests) {
            rec.next_op();
            let got = rec.span("bench", "op", |rec| bare.run_job(self, rec, &job.kind))?;
            if digest(&got) != want {
                return Err(
                    format!("staged {} differs from the scheduler's", job.kind.name()).into()
                );
            }
        }
        let bare_wall_s = t.elapsed().as_secs_f64();
        println!("staged replay on bare chip backends ({} jobs):", jobs.len());
        rec.print_table(S::NAME);
        let per = jobs.len() as u64;
        m.set("farm.overhead_share", 1.0 - bare_wall_s / last.wall_s);
        m.set("core.execute_ms", rec.self_ms_per("core", "execute", per));
        m.set("opt.optimize_ms", rec.self_ms_per("opt", "optimize", per));
        m.set("bfv.record_ms", rec.self_ms_per("bfv", "record", per));
        m.set("bfv.crt_ms", rec.self_ms_per("bfv", "crt", per));
        m.set("ckks.record_ms", rec.self_ms_per("ckks", "record", per));
        Ok(())
    }

    /// `farm.job_ms.*`: single-job `Scheduler::run` calls, a few per kind.
    fn job_samples(&self, jobs: &[Job], m: &mut Metrics) -> BenchResult<()> {
        let (mut sched, _) = self.bring_up()?;
        for (metric, name) in [
            ("farm.job_ms.add", "ct+ct"),
            ("farm.job_ms.mulplain", "ct*pt"),
            ("farm.job_ms.mulrelin", "ct*ct+relin"),
            ("farm.job_ms.ckks_mulrelin", "ckks:ct*ct+relin+rescale"),
        ] {
            let mut walls = Vec::new();
            for job in jobs.iter().filter(|j| j.kind.name() == name).take(JOBS_SAMPLED_PER_KIND) {
                let t = Instant::now();
                sched.run(vec![job.clone()])?;
                walls.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if !walls.is_empty() {
                m.set(metric, crate::stats::median(&walls));
            }
        }
        Ok(())
    }

    /// What O1 buys in cycles (`opt.cycles_saved_share`, one O0 round) and
    /// what a live trace sink costs (`obs.*`, one round with a
    /// `MemorySink` against one with the default `NullSink`).
    fn opt_and_obs(
        &self,
        jobs: &[Job],
        o1: &cofhee_core::StreamReport,
        m: &mut Metrics,
    ) -> BenchResult<()> {
        let (mut sched, list) = self.bring_up()?;
        sched.set_opt_level(OptLevel::O0);
        sched.run(list)?;
        let o0 = sched.report().stream_totals;
        m.set(
            "opt.cycles_saved_share",
            1.0 - o1.overlapped_cycles as f64 / o0.overlapped_cycles.max(1) as f64,
        );

        let timed = |sink: Option<Arc<MemorySink>>| -> BenchResult<(f64, u64)> {
            let (mut sched, list) = self.bring_up()?;
            if let Some(sink) = sink {
                sched.set_trace_sink(sink);
            }
            let t = Instant::now();
            let outcomes = sched.run(list)?;
            let wall = t.elapsed().as_secs_f64();
            let mut h = Fnv::default();
            for o in &outcomes {
                h.u64(digest(&o.result));
            }
            Ok((wall, h.0))
        };
        let sink = MemorySink::shared();
        let (plain_wall, plain_digest) = timed(None)?;
        let (traced_wall, traced_digest) = timed(Some(Arc::clone(&sink)))?;
        if plain_digest != traced_digest {
            return Err("a live trace sink changed the results".into());
        }
        m.set("obs.trace_overhead_share", traced_wall / plain_wall - 1.0);
        m.set("obs.events_per_job", sink.len() as f64 / jobs.len().max(1) as f64);
        Ok(())
    }
}
