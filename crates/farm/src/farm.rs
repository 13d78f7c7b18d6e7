//! The die pool: N simulated CoFHEE chips under one virtual-time clock.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use cofhee_core::{
    cores, fan_out, ChipBackend, ChipBackendFactory, CoreError, DieProgram, OpReport, OpStream,
    PolyBackend, PoolStats, SharedSink, StreamOp, StreamReport, TraceContext,
};
use cofhee_obs::null_sink;

use crate::error::{FarmError, Result};
use crate::policy::DieStatus;
use crate::telemetry::ChipStats;

/// A placed stream: priced, its die's clock advanced, its arithmetic not
/// yet run.
#[derive(Debug)]
struct Waiting {
    /// Position among the streams placed since the last flush.
    index: usize,
    stream: OpStream,
    program: DieProgram,
    /// Filled by the flush. Allocated at placement, on the scheduler
    /// thread, so the flush's threads allocate nothing.
    outputs: Vec<Vec<u128>>,
    /// How the program's apply ended; `None` until a wave has run it.
    applied: Option<std::result::Result<(), CoreError>>,
    /// What applying the program costs the host, in word-sized die
    /// cycles: its priced overlapped cycles, four times over on a ring
    /// wider than 64 bits (the simulator's `Barrett128` kernels run at
    /// about a quarter of the `Barrett64` ones).
    cost: u64,
}

impl Waiting {
    /// Whether a wave may run the program: every upload it writes has
    /// its words.
    fn ready(&self) -> bool {
        self.applied.is_none()
            && self.stream.nodes().iter().all(|op| match op {
                StreamOp::Upload(payload) => payload.words().is_ok(),
                _ => true,
            })
    }
}

/// A die's backend for one `(modulus, degree)` pair, and the streams
/// placed on it whose arithmetic waits for the next flush.
#[derive(Debug)]
struct Backend {
    chip: ChipBackend,
    waiting: Vec<Waiting>,
}

impl Backend {
    /// What the wave about to run costs this backend's host thread.
    fn ready_cost(&self) -> u64 {
        self.waiting.iter().filter(|w| w.ready()).map(|w| w.cost).sum()
    }

    /// Applies every ready waiting program, in placement order. Programs
    /// of one backend may apply out of placement order across waves: a
    /// farm stream uploads every operand it reads (it has no `Input`
    /// node), so no program reads what another left on the die.
    fn apply_ready(&mut self) {
        for w in &mut self.waiting {
            if w.ready() {
                w.applied = Some(self.chip.apply(&w.stream, &w.program, &mut w.outputs));
            }
        }
    }
}

/// One simulated CoFHEE die.
///
/// A die owns one cycle-accurate backend per `(modulus, degree)` pair
/// it has been asked to serve (brought up lazily from the farm's
/// factory, each over its own host-link instance) plus its virtual-time
/// bookkeeping: the cycle its backlog drains at, cycles spent
/// computing, and the ready/start event trace the queue-depth telemetry
/// is reconstructed from.
#[derive(Debug)]
struct Die {
    backends: HashMap<(u128, usize), Backend>,
    /// Virtual cycle at which everything assigned so far has finished.
    clock: u64,
    /// Cycles spent computing (the utilization numerator).
    busy: u64,
    /// Streams executed.
    streams: u64,
    /// Finish times of assigned streams (pending-count queries).
    finishes: Vec<u64>,
    /// Ready times of assigned streams (queue-depth reconstruction).
    readies: Vec<u64>,
}

impl Die {
    fn new() -> Self {
        Self {
            backends: HashMap::new(),
            clock: 0,
            busy: 0,
            streams: 0,
            finishes: Vec::new(),
            readies: Vec::new(),
        }
    }

    /// Streams assigned but not finished at virtual cycle `at`.
    ///
    /// `finishes` is non-decreasing by construction (each stream's
    /// finish is the die's new clock, and the clock never moves
    /// backwards), so this is a binary search — placement stays
    /// `O(log streams)` per die even on million-stream replays.
    fn pending(&self, at: u64) -> usize {
        self.finishes.len() - self.finishes.partition_point(|&f| f <= at)
    }

    /// Maximum simultaneously in-flight streams (queued or running),
    /// reconstructed by sweeping +1-at-ready / −1-at-finish events. At
    /// equal times the finish retires before the arrival counts, so a
    /// back-to-back handoff never reads as depth 2.
    fn max_queue_depth(&self) -> usize {
        let mut events: Vec<(u64, i64)> = self.readies.iter().map(|&r| (r, 1)).collect();
        for &f in &self.finishes {
            events.push((f, -1));
        }
        events.sort_by_key(|&(t, delta)| (t, delta));
        let (mut depth, mut max) = (0i64, 0i64);
        for (_, delta) in events {
            depth += delta;
            max = max.max(depth);
        }
        max as usize
    }
}

/// Where and when a placed stream runs on the farm's virtual clock, and
/// what it costs.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// Die the stream runs on.
    pub chip: usize,
    /// Virtual cycle the stream became ready (its dependencies met).
    pub ready: u64,
    /// Virtual cycle the die starts it (≥ ready when queued behind
    /// earlier streams).
    pub start: u64,
    /// Virtual cycle it finishes: `start + overlapped_cycles`.
    pub finish: u64,
    /// The stream's serial-vs-overlapped telemetry, priced at placement.
    pub report: StreamReport,
    /// Position among the streams placed since the last flush — where
    /// the flush returns its outputs.
    pub index: usize,
}

/// A pool of simulated CoFHEE dies sharing one deterministic
/// virtual-time clock.
///
/// Every die is brought up from the same [`ChipBackendFactory`] — same
/// microarchitecture, same host link flavor, each die with its own link
/// instance — so any stream costs the same cycles on any die. That
/// homogeneity is what makes results placement-independent: schedulers
/// may move streams freely without changing values *or* per-stream
/// costs, only queueing.
///
/// Time is virtual, and a die's clock runs ahead of its arithmetic:
/// [`ChipFarm::place`] prices the stream on the chosen die
/// ([`ChipBackend::price`]: the cycle-accurate schedule, every check and
/// every simulated number, no coefficient computed), advances the die's
/// clock by the stream's *overlapped* wall-clock cycles, starting no
/// earlier than its ready time, and leaves the stream's arithmetic
/// waiting on the die. A flush
/// ([`Scheduler::flush`](crate::Scheduler::flush)) runs the waiting
/// arithmetic of every die on the host's cores ([`fan_out`]), in waves
/// that wait for the host steps filling a job's later phases. Wall-clock
/// host time never enters the model, so a run's telemetry is a pure
/// function of the job list — whichever thread computed what.
#[derive(Debug)]
pub struct ChipFarm {
    factory: ChipBackendFactory,
    dies: Vec<Die>,
    /// Trace sink handed to each die backend before every stream (as a
    /// [`TraceContext`] carrying the die index and start cycle).
    /// [`cofhee_obs::NullSink`] by default, so untraced farms skip all
    /// instrumentation.
    trace: SharedSink,
    /// Streams placed since the last flush.
    placed: usize,
}

impl ChipFarm {
    /// Brings up a farm of `chips` identical dies from `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::EmptyFarm`] when `chips == 0`.
    pub fn new(chips: usize, factory: ChipBackendFactory) -> Result<Self> {
        if chips == 0 {
            return Err(FarmError::EmptyFarm);
        }
        let dies = (0..chips).map(|_| Die::new()).collect();
        Ok(Self { factory, dies, trace: null_sink(), placed: 0 })
    }

    /// Installs a trace sink: every subsequent placement emits its
    /// stream's per-die drain spans, DMA segments, and interrupt
    /// instants into it, stamped on the farm's virtual timeline.
    pub fn set_trace_sink(&mut self, sink: SharedSink) {
        self.trace = sink;
    }

    /// Number of dies in the pool.
    pub fn chips(&self) -> usize {
        self.dies.len()
    }

    /// The die configuration's clock frequency (cycles → seconds).
    pub fn freq_hz(&self) -> u64 {
        self.factory.config().freq_hz
    }

    /// The factory every die is brought up from.
    pub fn factory(&self) -> &ChipBackendFactory {
        &self.factory
    }

    /// Per-die scheduling status at virtual cycle `at` — the view
    /// handed to placement policies.
    pub fn statuses(&self, at: u64) -> Vec<DieStatus> {
        self.dies
            .iter()
            .enumerate()
            .map(|(chip, d)| DieStatus {
                chip,
                busy_until: d.clock,
                pending: d.pending(at),
                assigned: d.streams,
            })
            .collect()
    }

    /// Places `stream` on die `chip`'s backend for `(q, n)`, bringing
    /// the backend up on first use: prices it there, advances the die's
    /// virtual clock by its overlapped cycles, and leaves its arithmetic
    /// waiting for the next flush.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::UnknownChip`] for out-of-range die indices
    /// (e.g. a buggy custom [`PlacementPolicy`](crate::PlacementPolicy))
    /// and bring-up/pricing failures — slots, bounds, ports — tagged
    /// with the die index. A failed placement moves no clock and leaves
    /// nothing waiting.
    pub fn place(
        &mut self,
        chip: usize,
        q: u128,
        n: usize,
        stream: OpStream,
        ready: u64,
    ) -> Result<Placement> {
        let chips = self.dies.len();
        let factory = &self.factory;
        let die = self.dies.get_mut(chip).ok_or(FarmError::UnknownChip { chip, chips })?;
        let backend = match die.backends.entry((q, n)) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let (config, link) = (factory.config().clone(), factory.link().clone());
                let chip_backend = ChipBackend::connect_via(config, q, n, link)
                    .map_err(|e| FarmError::on_chip(chip, e))?;
                slot.insert(Backend { chip: chip_backend, waiting: Vec::new() })
            }
        };
        let start = ready.max(die.clock);
        // The sink in force now, a disabled one included: a die must
        // never write into a sink that has since been replaced.
        backend.chip.set_trace(TraceContext::new(Arc::clone(&self.trace), chip, start));
        let mut program = DieProgram::default();
        let report =
            backend.chip.price(&stream, &mut program).map_err(|e| FarmError::on_chip(chip, e))?;
        let outputs = stream.outputs().iter().map(|_| Vec::with_capacity(n)).collect();
        let index = self.placed;
        let host_cost = report.overlapped_cycles << if q >> 64 == 0 { 0 } else { 2 };
        let applied = None;
        backend.waiting.push(Waiting { index, stream, program, outputs, applied, cost: host_cost });
        self.placed += 1;
        let cost = report.overlapped_cycles;
        let finish = start.saturating_add(cost);
        die.clock = finish;
        die.busy = die.busy.saturating_add(cost);
        die.streams += 1;
        die.finishes.push(finish);
        die.readies.push(ready);
        Ok(Placement { chip, ready, start, finish, report, index })
    }

    /// Runs the arithmetic of every stream placed since the last flush,
    /// in waves. A wave applies every waiting program whose deferred
    /// uploads are filled, each backend's in placement order, on one
    /// [`fan_out`] task per host core: each task takes the costliest
    /// backend with such work no task has taken yet, until none is left.
    /// Then `fill` runs with every output so far, indexed by
    /// [`Placement::index`] — the host steps that wave completed, which
    /// fill the deferred uploads of the next — and returns whether it
    /// filled any; if it did, the next wave runs. Returns every placed
    /// stream's outputs; a stream whose uploads were never filled (its
    /// job failed) is dropped unrun, with empty outputs.
    ///
    /// # Errors
    ///
    /// The failure of the earliest-placed stream that failed, tagged
    /// with its die. Nothing is left waiting either way.
    pub(crate) fn flush(
        &mut self,
        mut fill: impl FnMut(&mut [Vec<Vec<u128>>]) -> bool,
    ) -> Result<Vec<Vec<Vec<u128>>>> {
        let mut outputs = vec![Vec::new(); std::mem::take(&mut self.placed)];
        let mut first_failure: Option<(usize, FarmError)> = None;
        loop {
            let mut ready: Vec<(u64, &mut Backend)> = self
                .dies
                .iter_mut()
                .flat_map(|die| die.backends.values_mut())
                .filter(|be| be.waiting.iter().any(Waiting::ready))
                .map(|be| (be.ready_cost(), be))
                .collect();
            ready.sort_by_key(|(cost, _)| std::cmp::Reverse(*cost));
            let mut workers = vec![(); cores().min(ready.len())];
            let queue = Mutex::new(ready.into_iter().map(|(_, be)| be));
            fan_out(&mut workers, |()| loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some(be) = next else { break };
                be.apply_ready();
            });
            for (chip, die) in self.dies.iter_mut().enumerate() {
                for be in die.backends.values_mut() {
                    be.waiting.retain_mut(|w| match w.applied.take() {
                        None => true,
                        Some(Ok(())) => {
                            outputs[w.index] = std::mem::take(&mut w.outputs);
                            false
                        }
                        Some(Err(e)) => {
                            if first_failure.as_ref().map_or(true, |(at, _)| w.index < *at) {
                                first_failure = Some((w.index, FarmError::on_chip(chip, e)));
                            }
                            false
                        }
                    });
                }
            }
            if !fill(&mut outputs) {
                break;
            }
        }
        for be in self.dies.iter_mut().flat_map(|die| die.backends.values_mut()) {
            be.waiting.clear();
        }
        match first_failure {
            Some((_, e)) => Err(e),
            None => Ok(outputs),
        }
    }

    /// The farm-wide makespan: the virtual cycle the last die drains.
    pub fn makespan(&self) -> u64 {
        self.dies.iter().map(|d| d.clock).max().unwrap_or(0)
    }

    /// Every die backend.
    fn backends(&self) -> impl Iterator<Item = &ChipBackend> {
        self.dies.iter().flat_map(|die| die.backends.values().map(|be| &be.chip))
    }

    /// Farm-wide scratch-pool telemetry: the staging-buffer recycling
    /// stats of every backend on every die, summed. Steady-state job
    /// traffic holds `misses` flat — upload mirrors come from each
    /// die's recycled stock (see `cofhee_poly::pool`).
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for be in self.backends() {
            total.absorb(&be.pool_stats());
        }
        total
    }

    /// Farm-wide execution telemetry: the [`OpReport`] of every backend
    /// on every die, summed — the arithmetic the dies retired.
    pub fn op_report(&self) -> OpReport {
        let mut total = OpReport::default();
        for be in self.backends() {
            total.absorb(&be.report());
        }
        total
    }

    /// Per-die telemetry snapshots.
    pub fn chip_stats(&self) -> Vec<ChipStats> {
        self.dies
            .iter()
            .enumerate()
            .map(|(chip, d)| ChipStats {
                chip,
                streams: d.streams,
                busy_cycles: d.busy,
                final_clock: d.clock,
                max_queue_depth: d.max_queue_depth(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::primes::ntt_prime;

    const N: usize = 32;

    fn stream(seed: u128, q: u128) -> OpStream {
        let mut st = OpStream::new(N);
        let a = st.upload((0..N as u128).map(|i| (i * 31 + seed) % q).collect()).unwrap();
        let b = st.upload((0..N as u128).map(|i| (i * 17 + seed) % q).collect()).unwrap();
        let (fa, fb) = (st.ntt(a).unwrap(), st.ntt(b).unwrap());
        let p = st.hadamard_intt(fa, fb).unwrap();
        st.output(p).unwrap();
        st
    }

    #[test]
    fn empty_farms_are_rejected() {
        assert!(matches!(
            ChipFarm::new(0, ChipBackendFactory::silicon()),
            Err(FarmError::EmptyFarm)
        ));
    }

    #[test]
    fn out_of_range_die_indices_are_typed_errors() {
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        assert!(matches!(
            farm.place(2, q, N, stream(1, q), 0),
            Err(FarmError::UnknownChip { chip: 2, chips: 2 })
        ));
    }

    #[test]
    fn execution_advances_virtual_time_and_queues_behind_backlog() {
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let st = stream(1, q);
        let first = farm.place(0, q, N, st.clone(), 0).unwrap();
        assert_eq!(first.start, 0);
        assert!(first.finish > 0, "chip streams cost real cycles");
        assert_eq!(first.finish - first.start, first.report.overlapped_cycles);

        // Same die: the second stream queues behind the first.
        let second = farm.place(0, q, N, st.clone(), 0).unwrap();
        assert_eq!(second.start, first.finish);
        // Other die: starts immediately.
        let elsewhere = farm.place(1, q, N, st, 0).unwrap();
        assert_eq!(elsewhere.start, 0);
        assert_eq!(farm.makespan(), second.finish);
        assert_eq!([first.index, second.index, elsewhere.index], [0, 1, 2]);

        let stats = farm.chip_stats();
        assert_eq!(stats[0].streams, 2);
        assert_eq!(stats[1].streams, 1);
        assert_eq!(stats[0].max_queue_depth, 2, "two streams were queued at cycle 0");
        assert_eq!(stats[0].busy_cycles, stats[0].final_clock, "die 0 never idled");
    }

    #[test]
    fn a_flush_returns_every_placed_streams_outputs_in_placement_order() {
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(3, ChipBackendFactory::silicon()).unwrap();
        let streams: Vec<OpStream> = (0..7).map(|seed| stream(seed, q)).collect();
        for (i, st) in streams.iter().enumerate() {
            farm.place(i % 3, q, N, st.clone(), 0).unwrap();
        }
        let outputs = farm.flush(|_| false).unwrap();
        let mut cpu = cofhee_core::CpuBackend::new(q, N).unwrap();
        let expect: Vec<_> =
            streams.iter().map(|st| cpu.execute_stream(st).unwrap().outputs).collect();
        assert_eq!(outputs, expect);
        // Nothing is left waiting; the next flush starts a new count.
        assert!(farm.flush(|_| false).unwrap().is_empty());
        assert_eq!(farm.place(2, q, N, stream(9, q), 0).unwrap().index, 0);
    }

    #[test]
    fn a_stream_that_exhausts_a_dies_slots_fails_typed_at_placement() {
        use cofhee_core::CoreError;
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let good = farm.place(1, q, N, stream(1, q), 0).unwrap();
        let before = farm.chip_stats();
        // More live values than the banks hold slots (6 banks × 256).
        let mut st = OpStream::new(N);
        let ups: Vec<_> = (0..1600).map(|s| st.upload(vec![s; N]).unwrap()).collect();
        let mut acc = ups[0];
        for &h in &ups[1..] {
            acc = st.pointwise_add(acc, h).unwrap();
        }
        st.output(acc).unwrap();
        for chip in [0, 1] {
            assert!(matches!(
                farm.place(chip, q, N, st.clone(), 0),
                Err(FarmError::Backend { chip: Some(c), source: CoreError::SlotsExhausted { .. } })
                    if c == chip
            ));
        }
        assert_eq!(farm.chip_stats(), before, "no die clock moved");
        // Nothing was left waiting: the flush returns the one good stream.
        let mut cpu = cofhee_core::CpuBackend::new(q, N).unwrap();
        assert_eq!(good.index, 0);
        assert_eq!(
            farm.flush(|_| false).unwrap(),
            [cpu.execute_stream(&stream(1, q)).unwrap().outputs]
        );
    }

    #[test]
    fn identical_dies_cost_identical_cycles() {
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(3, ChipBackendFactory::silicon()).unwrap();
        let st = stream(7, q);
        let runs: Vec<Placement> =
            (0..3).map(|c| farm.place(c, q, N, st.clone(), 0).unwrap()).collect();
        let outputs = farm.flush(|_| false).unwrap();
        for (r, out) in runs[1..].iter().zip(&outputs[1..]) {
            assert_eq!(out, &outputs[0], "values placement-free");
            assert_eq!(
                r.report.overlapped_cycles, runs[0].report.overlapped_cycles,
                "costs placement-free"
            );
        }
    }

    #[test]
    fn dies_share_one_twiddle_derivation_through_the_process_cache() {
        use cofhee_poly::TwiddleCache;
        // A (q, n) pair no other test in the workspace uses, so cache
        // residency is deterministic under parallel test execution.
        let n = 1 << 4;
        let q = ntt_prime(51, n).unwrap();
        assert!(!TwiddleCache::contains(q, n), "key must start cold");
        let mut farm = ChipFarm::new(4, ChipBackendFactory::silicon()).unwrap();
        let mut st = OpStream::new(n);
        let a = st.upload((0..n as u128).map(|i| (i * 13 + 1) % q).collect()).unwrap();
        let f = st.ntt(a).unwrap();
        st.output(f).unwrap();
        for chip in 0..4 {
            farm.place(chip, q, n, st.clone(), 0).unwrap();
        }
        assert!(TwiddleCache::contains(q, n), "first bring-up interned the tables");
        // A whole second farm for the same parameters re-derives
        // nothing: the key stays resolved to the *same* resident plan
        // (Arc identity), so all four dies attached to it. (Asserted
        // per-key rather than via global entry counts, which sibling
        // tests mutate concurrently.)
        let resident = TwiddleCache::barrett128(q, n).unwrap();
        let mut second = ChipFarm::new(4, ChipBackendFactory::silicon()).unwrap();
        for chip in 0..4 {
            second.place(chip, q, n, st.clone(), 0).unwrap();
        }
        let after = TwiddleCache::barrett128(q, n).unwrap();
        assert!(std::sync::Arc::ptr_eq(&resident, &after), "second farm reused the plan");
    }

    #[test]
    fn statuses_reflect_backlog() {
        let q = ntt_prime(60, N).unwrap();
        let mut farm = ChipFarm::new(2, ChipBackendFactory::silicon()).unwrap();
        let run = farm.place(0, q, N, stream(3, q), 0).unwrap();
        let at_zero = farm.statuses(0);
        assert_eq!(at_zero[0].pending, 1);
        assert_eq!(at_zero[1].pending, 0);
        let after = farm.statuses(run.finish);
        assert_eq!(after[0].pending, 0, "finished streams leave the queue");
        assert_eq!(after[0].assigned, 1);
    }
}
