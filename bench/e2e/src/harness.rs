//! What every workload shares: the pass/segment model, the untraced
//! end-to-end run, the traced per-layer run, and the result line.
//!
//! A workload is a fixed, seed-determined list of ops (a *pass*), split
//! into *segments* whose wall time is taken around the library calls only.
//! A run repeats whole passes for `--seconds` of that timed wall. The
//! first pass is verified in full (decrypt, compare with plaintext
//! evaluation); every pass must then reproduce the first pass's result
//! digests and simulated statistics bit for bit, which both verifies the
//! later results and checks that the program is deterministic. Rates are
//! medians over segments, so a short slow spell of the shared host does
//! not move them, and are reported at nominal host speed (`calib`), so a
//! long one does not either.

use std::collections::BTreeMap;
use std::time::Instant;

use cofhee_poly::TwiddleCache;

use crate::alloc;
use crate::calib;
use crate::catalog::{self, DRIVER_END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::spans::Recorder;
use crate::stats::{self, Fnv};

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups timed per run; `setup_s` is their median. One more runs first,
/// untimed: a process's first set-up also pays for its first page faults
/// and reads 10–35 % above the rest, which is the process, not the library.
const SETUP_REPEATS: usize = 3;
/// A segment rate further than this from the median counts as an outlier…
const OUTLIER_TOLERANCE: f64 = 0.10;
/// …and when more than this share of segments are outliers the host was in
/// a slow spell for much of the run: the timed phase is extended once, by
/// [`EXTENSION`] × `--seconds`, and the median taken over all segments.
const OUTLIER_SHARE_LIMIT: f64 = 0.25;
const EXTENSION: f64 = 0.5;
/// Host-speed samples after a segment that was timed as a whole (segments
/// of individually timed ops take one per op instead).
const SAMPLES_PER_BATCH_SEGMENT: usize = 5;
const SAMPLES_PER_SETUP: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    /// `n = 2^8` and op counts ÷ 32: exercises every code path in seconds.
    pub smoke: bool,
}

impl RunConfig {
    pub fn sized<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub ops: u64,
    pub wall_s: f64,
}

/// Simulated-die statistics of one pass; they repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sim {
    pub ops_per_s: f64,
    pub dma_bytes_per_op: f64,
    /// Admission → finish, gateway only.
    pub latency_p50: Option<u64>,
    pub latency_p99: Option<u64>,
}

#[derive(Debug, Default)]
pub struct Pass {
    pub segments: Vec<Segment>,
    /// Wall of each op, where ops are timed one by one.
    pub op_ms: Vec<f64>,
    /// One digest per result ciphertext, in completion order.
    pub digests: Vec<u64>,
    /// Ops offered to the library.
    pub attempted: u64,
    /// Errors, typed rejects, cancellations and wrong results.
    pub failed: u64,
    /// Wrong results alone: these make the run incorrect.
    pub wrong: u64,
    /// Minimum over the verified results; set by verifying passes only.
    pub headroom_bits: Option<f64>,
    pub sim: Option<Sim>,
}

impl Pass {
    /// Times `f` as one op of the current segment.
    pub fn time_op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.op_done(started);
        out
    }

    /// Records an op that began at `started` and ends now, then takes a
    /// host-speed sample (see `calib`).
    pub fn op_done(&mut self, started: Instant) {
        self.op_ms.push(started.elapsed().as_secs_f64() * 1e3);
        calib::sample();
    }

    /// Closes a segment over the `ops` most recent `op_ms` samples.
    pub fn close_segment(&mut self, ops: usize) {
        let wall_ms: f64 = self.op_ms[self.op_ms.len() - ops..].iter().sum();
        self.segments.push(Segment { ops: ops as u64, wall_s: wall_ms / 1e3 });
    }

    /// Closes a segment of `ops` ops timed as a whole, and takes a few
    /// host-speed samples.
    pub fn push_segment(&mut self, ops: u64, wall_s: f64) {
        self.segments.push(Segment { ops, wall_s });
        for _ in 0..SAMPLES_PER_BATCH_SEGMENT {
            calib::sample();
        }
    }

    /// Records an op that returned a result with this `digest`; `checked`
    /// is its verification when this pass verifies (see [`Pass::verified`]).
    pub fn completed(&mut self, digest: u64, checked: Option<Option<f64>>) {
        self.attempted += 1;
        self.digests.push(digest);
        if let Some(headroom) = checked {
            self.verified(headroom);
        }
    }

    /// Records an op the library answered with an error.
    pub fn errored(&mut self) {
        self.attempted += 1;
        self.digests.push(0);
        self.failed += 1;
    }

    /// Records a verified result: `None` means it decrypted wrong.
    pub fn verified(&mut self, headroom: Option<f64>) {
        match headroom {
            Some(bits) => {
                self.headroom_bits = Some(self.headroom_bits.map_or(bits, |h| h.min(bits)));
            }
            None => {
                self.failed += 1;
                self.wrong += 1;
            }
        }
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;

    /// Everything before the first timed op: parameters, keys, operands,
    /// bring-up, warm-up.
    fn setup(cfg: &RunConfig) -> BenchResult<Self>;

    /// Ring degree the workload runs at (the layer probes use it).
    fn degree(&self) -> usize;

    /// Runs the op list once through the fused public entry points.
    /// `verify` additionally decrypts and checks every result.
    fn pass(&mut self, verify: bool) -> BenchResult<Pass>;

    /// The same op list with a span around each layer call (evaluator ops
    /// in their staged public form).
    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass>;

    /// Fills the workload's per-layer metrics from the recorded spans
    /// (`ops` ops were traced), library counters and extra probes.
    fn layer_metrics(&mut self, rec: &Recorder, ops: u64, m: &mut Metrics) -> BenchResult<()>;
}

/// Named values on their way out; names must be in the catalog.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            catalog::per_layer(name).is_some() || catalog::end_to_end(name).is_some(),
            "metric `{name}` is not in the catalog"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Accumulates passes and holds each to the first one.
#[derive(Debug, Default)]
struct Tally {
    /// Segment rates and op walls as the wall clock saw them.
    rates: Vec<f64>,
    op_ms: Vec<f64>,
    /// How much slower than nominal the host ran during the phase; rates
    /// are multiplied by it, durations divided.
    slowdown: f64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    headroom_bits: Option<f64>,
    first_digests: Vec<u64>,
    sim: Option<Sim>,
    /// `first_digests` and `sim` were given, not taken from the first pass.
    holds_reference: bool,
    passes: u32,
    timed_wall_s: f64,
}

impl Tally {
    /// A tally whose passes are held to `reference`'s first pass rather
    /// than to their own.
    fn held_to(reference: &Tally) -> Self {
        Self {
            first_digests: reference.first_digests.clone(),
            sim: reference.sim,
            holds_reference: true,
            ..Self::default()
        }
    }

    fn add(&mut self, pass: Pass) {
        if self.passes == 0 && !self.holds_reference {
            self.first_digests.clone_from(&pass.digests);
            self.sim = pass.sim;
            self.headroom_bits = pass.headroom_bits;
        } else {
            // Same inputs, so bit-identical outputs: anything else is a
            // wrong result (or a nondeterministic program).
            let mismatches = if pass.digests.len() == self.first_digests.len() {
                pass.digests.iter().zip(&self.first_digests).filter(|(a, b)| a != b).count()
            } else {
                pass.digests.len().max(1)
            };
            let sim_drift = u64::from(pass.sim != self.sim);
            self.wrong += mismatches as u64 + sim_drift;
            self.failed += mismatches as u64 + sim_drift;
        }
        for s in &pass.segments {
            self.rates.push(s.ops as f64 / s.wall_s);
            self.timed_wall_s += s.wall_s;
        }
        // Batch workloads time a whole segment at once: its mean op wall
        // stands in for the per-op samples.
        if pass.op_ms.is_empty() {
            self.op_ms.extend(pass.segments.iter().map(|s| s.wall_s * 1e3 / s.ops as f64));
        } else {
            self.op_ms.extend(&pass.op_ms);
        }
        self.attempted += pass.attempted;
        self.failed += pass.failed;
        self.wrong += pass.wrong;
        self.passes += 1;
    }

    /// Median segment rate at nominal host speed.
    fn rate(&self) -> f64 {
        stats::median(&self.rates) * self.slowdown
    }

    /// Op walls at nominal host speed.
    fn nominal_op_ms(&self) -> Vec<f64> {
        self.op_ms.iter().map(|ms| ms / self.slowdown).collect()
    }

    fn result_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for &d in &self.first_digests {
            h.u64(d);
        }
        h.0
    }
}

/// Repeats whole passes for as close to `seconds` of timed wall as whole
/// passes allow (timed wall is time inside the library calls; verification
/// and the benchmark's own bookkeeping sit outside it). The first pass
/// verifies.
fn timed_phase<W: Workload>(w: &mut W, seconds: f64, extend: bool) -> BenchResult<(Tally, bool)> {
    let mut tally = Tally::default();
    let (mut deadline, mut extended) = (seconds, false);
    calib::take_slowdown();
    loop {
        tally.add(w.pass(tally.passes == 0)?);
        let mean_pass_s = tally.timed_wall_s / f64::from(tally.passes);
        if tally.timed_wall_s + mean_pass_s / 2.0 < deadline {
            continue;
        }
        if extend
            && !extended
            && stats::outlier_share(&tally.rates, OUTLIER_TOLERANCE) > OUTLIER_SHARE_LIMIT
        {
            extended = true;
            deadline += seconds * EXTENSION;
            continue;
        }
        tally.slowdown = calib::take_slowdown();
        return Ok((tally, extended));
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What a run hands back to `main`: the driver's result line plus the
/// fuller record the suite writes to a result file.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The driver's metrics, `(name, value, unit)`, in catalog order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The workload's entry in a result file.
    pub detail: Json,
    /// Recorded spans (traced runs).
    pub spans: Vec<Json>,
}

impl Report {
    /// The line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .compact()
    }
}

fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// The untraced run: tracing and allocation counting off, every
/// end-to-end metric taken here.
pub fn end_to_end<W: Workload>(cfg: &RunConfig) -> BenchResult<Report> {
    let mut raw_setups = Vec::with_capacity(SETUP_REPEATS);
    let mut w = Some(W::setup(cfg)?);
    calib::take_slowdown();
    for _ in 0..SETUP_REPEATS {
        // One live state at a time, so peak memory is one set-up's; and
        // the library's own cache of transform plans emptied, so every
        // set-up builds them as a first one would.
        drop(w.take());
        TwiddleCache::clear();
        let t = Instant::now();
        w = Some(W::setup(cfg)?);
        raw_setups.push(t.elapsed().as_secs_f64());
        for _ in 0..SAMPLES_PER_SETUP {
            calib::sample();
        }
    }
    // Set-ups warm up through timed ops, which sample too.
    let setup_slowdown = calib::take_slowdown();
    let setups: Vec<f64> = raw_setups.iter().map(|s| s / setup_slowdown).collect();
    let mut w = w.expect("set up above");
    let (tally, extended) = timed_phase(&mut w, cfg.seconds, true)?;

    let mut m = Metrics::default();
    m.set("setup_s", stats::median(&setups));
    m.set("host_ops_per_s", tally.rate());
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("failed_ops_share", tally.failed as f64 / tally.attempted.max(1) as f64);
    m.set("headroom_bits", tally.headroom_bits.unwrap_or(f64::NAN));
    let op_ms = tally.nominal_op_ms();
    m.set("host_op_ms_p50", stats::median(&op_ms));
    if let Some(sim) = tally.sim {
        m.set("sim_ops_per_s", sim.ops_per_s);
        m.set("sim_dma_bytes_per_op", sim.dma_bytes_per_op);
        if let (Some(p50), Some(p99)) = (sim.latency_p50, sim.latency_p99) {
            m.set("sim_latency_cycles_p50", p50 as f64);
            m.set("sim_latency_cycles_p99", p99 as f64);
        }
    }

    println!(
        "{} (seed {}, {} passes, {:.2} s timed)",
        W::NAME,
        cfg.seed,
        tally.passes,
        tally.timed_wall_s
    );
    let mut applicable = Vec::new();
    for e in catalog::END_TO_END.iter().filter(|e| e.applies_to(W::NAME)) {
        let v = m.get(e.name).expect("every applicable metric is measured");
        println!("  {:<24} {:>16.6} {:<6} ({} is better)", e.name, v, e.unit, e.better.as_str());
        applicable.push((e.name.to_string(), Json::Num(v)));
    }
    println!(
        "  samples: {} ops, {} segments; bench.segment_spread {:.4}{}; bench.host_op_ms_p95 {:.4}",
        op_ms.len(),
        tally.rates.len(),
        stats::range_spread(&tally.rates),
        if extended { " (extended once)" } else { "" },
        stats::percentile(&op_ms, 95.0),
    );
    println!(
        "  host times are at nominal host speed; this run's host ran {:.3} x slower than nominal \
         (unscaled: {:.6} ops/s, set-up {:.6} s)",
        tally.slowdown,
        stats::median(&tally.rates),
        stats::median(&raw_setups),
    );

    let detail = Json::obj([
        ("result_digest", Json::str(format!("{:016x}", tally.result_digest()))),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("passes", Json::Num(f64::from(tally.passes))),
        ("extended", Json::Bool(extended)),
        ("timed_wall_s", Json::Num(tally.timed_wall_s)),
        ("op_samples", Json::Num(op_ms.len() as f64)),
        ("host_slowdown", Json::Num(tally.slowdown)),
        ("setup_host_slowdown", Json::Num(setup_slowdown)),
        (
            "segment_rates",
            nums(&tally.rates.iter().map(|r| r * tally.slowdown).collect::<Vec<_>>()),
        ),
        ("raw_host_ops_per_s", Json::Num(stats::median(&tally.rates))),
        ("setup_samples_s", nums(&setups)),
        ("raw_setup_samples_s", nums(&raw_setups)),
        ("end_to_end", Json::Obj(applicable)),
    ]);
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: DRIVER_END_TO_END
            .iter()
            .map(|&name| {
                let unit = catalog::end_to_end(name).expect("in the catalog").unit;
                (name, m.get(name).expect("measured above"), unit)
            })
            .collect(),
        detail,
        spans: Vec::new(),
    })
}

/// Spans kept per workload in a `.trace.json` (the table covers the rest).
const TRACE_FILE_SPANS: usize = 400;

/// The traced run: half the time untraced (the reference the overhead is
/// measured against), half with spans and allocation counting on; then
/// the workload's own probes.
pub fn traced<W: Workload>(cfg: &RunConfig) -> BenchResult<Report> {
    let mut m = Metrics::default();
    let mut w = W::setup(cfg)?;
    let twiddles_before = TwiddleCache::stats();

    let (plain, _) = timed_phase(&mut w, cfg.seconds / 2.0, false)?;

    let mut rec = Recorder::default();
    // Held to the untraced passes: staged ops must equal the fused calls.
    let mut tally = Tally::held_to(&plain);
    let before = alloc::snapshot();
    alloc::set_counting(true);
    // As many traced passes as untraced ones: the same amount of work.
    for _ in 0..plain.passes {
        tally.add(w.traced_pass(&mut rec)?);
    }
    alloc::set_counting(false);
    tally.slowdown = calib::take_slowdown();
    let after = alloc::snapshot();
    let twiddles = TwiddleCache::stats();

    m.set("bench.trace_overhead_share", plain.rate() / tally.rate() - 1.0);
    m.set("bench.unattributed_share", rec.unattributed_share());
    let traced_attempted = tally.attempted.max(1) as f64;
    m.set("bench.allocs_per_op", (after.events - before.events) as f64 / traced_attempted);
    m.set("bench.alloc_bytes_per_op", (after.bytes - before.bytes) as f64 / traced_attempted);
    m.set("bench.host_op_ms_p50", stats::median(&plain.op_ms));
    m.set("bench.host_op_ms_p95", stats::percentile(&plain.op_ms, 95.0));
    m.set("bench.segment_spread", stats::range_spread(&plain.rates));
    let attempted = plain.attempted + tally.attempted;
    let failed = plain.failed + tally.failed;
    m.set("bench.failed_ops_share", failed as f64 / attempted.max(1) as f64);
    let lookups =
        (twiddles.hits + twiddles.misses) - (twiddles_before.hits + twiddles_before.misses);
    if lookups > 0 {
        m.set(
            "poly.twiddle_hit_share",
            (twiddles.hits - twiddles_before.hits) as f64 / lookups as f64,
        );
    }
    if let Some(sim) = plain.sim {
        m.set("sim.ops_per_s", sim.ops_per_s);
        m.set("sim.dma_bytes_per_op", sim.dma_bytes_per_op);
        m.set("sim.latency_cycles_p50", sim.latency_p50.unwrap_or(0) as f64);
        m.set("sim.latency_cycles_p99", sim.latency_p99.unwrap_or(0) as f64);
    }
    crate::probes::layer_probes(cfg, w.degree(), &mut m)?;
    w.layer_metrics(&rec, tally.attempted, &mut m)?;

    println!(
        "{} traced (seed {}): {} untraced + {} traced passes",
        W::NAME,
        cfg.seed,
        plain.passes,
        tally.passes
    );
    rec.print_table(W::NAME);
    // Every duration goes out at nominal host speed, like the end-to-end
    // times; one factor for the run (its two timed phases' mean) is as
    // fine as ungated diagnostics need.
    let slowdown = (plain.slowdown + tally.slowdown) / 2.0;
    println!(
        "  (durations below at nominal host speed; this run's host ran {slowdown:.3} x slower)"
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit, better) in &PER_LAYER {
        let is_duration = matches!(unit, "ns" | "us" | "ms");
        let v = m.get(name).map_or(0.0, |v| if is_duration { v / slowdown } else { v });
        if m.get(name).is_some() {
            println!("  {:<32} {:>16.6} {:<6} ({} is better)", name, v, unit, better.as_str());
        }
        metrics.push((name, v, unit));
    }
    let layers = metrics.iter().map(|&(name, v, _)| (name.to_string(), Json::Num(v))).collect();
    Ok(Report {
        correct: plain.wrong + tally.wrong == 0,
        attempted,
        failed,
        metrics,
        detail: Json::obj([("per_layer", Json::Obj(layers))]),
        spans: rec.to_json(W::NAME, TRACE_FILE_SPANS),
    })
}
