//! The limb engine: the one place a scheme evaluator's recorded streams
//! are compiled, fanned out across per-modulus backends, and accounted.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cofhee_core::{
    BackendFactory, CommStats, OpReport, OpStream, PolyBackend, PoolStats, Result, StreamExecutor,
    StreamJob, StreamReport,
};

use crate::{OptLevel, OptStats, PassRunner};

type SharedBackend = Arc<Mutex<Box<dyn PolyBackend>>>;

/// Poison-tolerant: a backend is valid between any two calls, so a panic
/// in another holder leaves nothing half-updated to protect.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One backend per modulus, the [`OptLevel`] applied before every submit,
/// and the stream telemetry of everything submitted — what
/// `cofhee_bfv::Evaluator` (over `[q, p₀ … p_k]`) and
/// `cofhee_ckks::CkksEvaluator` (over the chain primes) both execute on.
/// Clones share the backends and the telemetry.
#[derive(Debug, Clone)]
pub struct LimbEngine {
    backend_name: &'static str,
    backends: Vec<SharedBackend>,
    stream_totals: Arc<Mutex<StreamReport>>,
    opt_level: OptLevel,
}

impl LimbEngine {
    /// Brings up one `factory` backend per entry of `moduli` at degree
    /// `n`, with the stream compiler at `O0`.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures.
    pub fn new(factory: &dyn BackendFactory, moduli: &[u128], n: usize) -> Result<Self> {
        let backends = moduli
            .iter()
            .map(|&q| Ok(Arc::new(Mutex::new(factory.make(q, n)?))))
            .collect::<Result<_>>()?;
        Ok(Self {
            backend_name: factory.name(),
            backends,
            stream_totals: Arc::default(),
            opt_level: OptLevel::O0,
        })
    }

    /// The same engine with the stream compiler set to `level`.
    #[must_use]
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The stream-compiler level applied before submits.
    #[must_use]
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The backend family label ("cpu", "cofhee-chip", ...).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Rewrites each stream at the engine's [`OptLevel`] (as recorded at
    /// `O0`), executes stream `j` on backend `first + j` — one thread
    /// per stream — and returns each stream's downloaded outputs. The
    /// group lands in [`LimbEngine::stream_report`] as one concurrent
    /// submit: serial totals sum (that baseline really is one limb after
    /// another), overlapped is the slowest limb, `OptStats` stamped in.
    ///
    /// # Errors
    ///
    /// Propagates rewrite and execution failures.
    ///
    /// # Panics
    ///
    /// Panics when `first + streams.len()` exceeds the backend count.
    pub fn run(&self, first: usize, mut streams: Vec<OpStream>) -> Result<Vec<Vec<Vec<u128>>>> {
        let mut opt_totals = OptStats::default();
        if self.opt_level != OptLevel::O0 {
            let runner = PassRunner::for_level(self.opt_level);
            for st in &mut streams {
                let (opt, stats) = runner.optimize(st)?;
                opt_totals.merge(&stats);
                *st = opt;
            }
        }
        let mut guards: Vec<_> =
            self.backends[first..first + streams.len()].iter().map(|be| lock(be)).collect();
        let jobs = guards
            .iter_mut()
            .zip(&streams)
            .map(|(g, stream)| StreamJob { backend: (**g).as_mut(), stream })
            .collect();
        let outcomes = StreamExecutor::run_parallel(jobs)?;
        drop(guards);

        let mut limbs = Vec::with_capacity(outcomes.len());
        let mut group = StreamReport::default();
        let (mut wall_cycles, mut wall_seconds) = (0u64, 0.0f64);
        for outcome in outcomes {
            wall_cycles = wall_cycles.max(outcome.report.overlapped_cycles);
            wall_seconds = wall_seconds.max(outcome.report.overlapped_seconds);
            group.absorb(&outcome.report);
            limbs.push(outcome.outputs);
        }
        group.overlapped_cycles = wall_cycles;
        group.overlapped_seconds = wall_seconds;
        opt_totals.stamp(&mut group);
        lock(&self.stream_totals).absorb(&group);
        Ok(limbs)
    }

    /// Runs `f` with exclusive access to backend `i` — for material that
    /// stays resident across streams (BFV's NTT-form relin keys).
    ///
    /// # Panics
    ///
    /// Panics when `i` is not a backend index.
    pub fn with_backend<R>(&self, i: usize, f: impl FnOnce(&mut dyn PolyBackend) -> R) -> R {
        f(lock(&self.backends[i]).as_mut())
    }

    /// Folds `add` over every backend, in modulus order.
    fn sum<T: Default>(&self, add: impl Fn(&mut T, &mut dyn PolyBackend)) -> T {
        let mut total = T::default();
        for be in &self.backends {
            add(&mut total, lock(be).as_mut());
        }
        total
    }

    /// Cumulative execution telemetry summed over every backend.
    #[must_use]
    pub fn report(&self) -> OpReport {
        self.sum(|total: &mut OpReport, be| total.absorb(&be.report()))
    }

    /// Cumulative scratch-pool telemetry summed over every backend.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.sum(|total: &mut PoolStats, be| total.absorb(&be.pool_stats()))
    }

    /// Cumulative host-communication accounting summed over every
    /// backend (zero on the CPU path).
    #[must_use]
    pub fn comm_stats(&self) -> CommStats {
        self.sum(|total: &mut CommStats, be| total.merge(&be.comm_stats()))
    }

    /// Accumulated stream telemetry of every [`LimbEngine::run`] this
    /// engine and its clones issued.
    #[must_use]
    pub fn stream_report(&self) -> StreamReport {
        *lock(&self.stream_totals)
    }

    /// Clears the telemetry of every backend and the stream totals.
    pub fn reset(&self) {
        for be in &self.backends {
            lock(be).reset_telemetry();
        }
        *lock(&self.stream_totals) = StreamReport::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, q, N};
    use cofhee_core::{ChipBackendFactory, CpuBackendFactory};

    /// `intt(ntt(a))` and `a + b`: the round trip is what O1 removes.
    fn stream(seed: u128) -> OpStream {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(seed)).unwrap();
        let b = st.upload(poly(seed + 1)).unwrap();
        let f = st.ntt(a).unwrap();
        let back = st.intt(f).unwrap();
        let sum = st.pointwise_add(back, b).unwrap();
        st.output(back).unwrap();
        st.output(sum).unwrap();
        st
    }

    #[test]
    fn group_report_sums_serial_and_takes_the_slowest_limb() {
        let engine = LimbEngine::new(&ChipBackendFactory::silicon(), &[q(), q(), q()], N).unwrap();
        assert_eq!(engine.backend_name(), "cofhee-chip");
        // One stream at a time gives the per-limb (serial, overlapped).
        let mut alone = Vec::new();
        for seed in [1, 2] {
            engine.reset();
            assert_eq!(engine.run(0, vec![stream(seed)]).unwrap()[0][0], poly(seed));
            let r = engine.stream_report();
            alone.push((r.serial_cycles, r.overlapped_cycles));
        }
        engine.reset();
        assert_eq!(engine.report(), OpReport::default());
        // Both at once, on backends 1 and 2; backend 0 stays idle.
        let outs = engine.run(1, vec![stream(1), stream(2)]).unwrap();
        assert_eq!((&outs[0][0], &outs[1][0]), (&poly(1), &poly(2)));
        let group = engine.stream_report();
        assert_eq!(group.serial_cycles, alone[0].0 + alone[1].0);
        assert_eq!(group.overlapped_cycles, alone[0].1.max(alone[1].1));
        assert_eq!(engine.with_backend(0, |be| be.report()).cycles, 0);
        assert!(engine.report().cycles > 0 && engine.comm_stats().bytes > 0);
    }

    #[test]
    fn every_level_is_bit_exact_and_o1_stamps_its_rewrites() {
        let base = LimbEngine::new(&CpuBackendFactory, &[q()], N).unwrap();
        assert_eq!(base.opt_level(), OptLevel::O0);
        let recorded = base.run(0, vec![stream(7)]).unwrap();
        assert_eq!(base.stream_report().ops_eliminated, 0, "O0 executes as recorded");
        for level in [OptLevel::O1, OptLevel::O2] {
            let engine = base.clone().with_opt_level(level);
            let before = engine.stream_report().ops_eliminated;
            assert_eq!(engine.run(0, vec![stream(7)]).unwrap(), recorded, "{level}");
            // Clones share one report: the base engine sees the rewrite.
            assert!(base.stream_report().ops_eliminated > before, "{level} drops the round trip");
        }
        assert!(base.pool_stats().hits > 0, "three runs on one backend recycle buffers");
    }
}
