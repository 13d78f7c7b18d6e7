//! Helpers for running evaluator ops in their staged public form: streams
//! recorded by the scheme crate, executed here on backends the benchmark
//! owns, so each stage can sit in its own span.

use std::time::Instant;

use cofhee_core::{
    BackendFactory, ChipBackendFactory, OpReport, OpStream, PolyBackend, PoolStats, StreamExecutor,
    StreamJob, StreamReport,
};
use cofhee_opt::OptLevel;

use crate::harness::{BenchResult, Metrics};

/// One backend per modulus, from `factory`.
pub fn backends(
    factory: &dyn BackendFactory,
    moduli: &[u128],
    n: usize,
) -> BenchResult<Vec<Box<dyn PolyBackend>>> {
    moduli.iter().map(|&q| Ok(factory.make(q, n)?)).collect()
}

/// Stream `i` on backend `i`, one thread each: what the evaluators'
/// private `run_*_streams` do. Returns each limb's outputs.
pub fn run_limbs(
    backends: &mut [Box<dyn PolyBackend>],
    streams: &[OpStream],
) -> BenchResult<Vec<Vec<Vec<u128>>>> {
    let jobs = backends
        .iter_mut()
        .zip(streams)
        .map(|(backend, stream)| StreamJob { backend: backend.as_mut(), stream })
        .collect();
    Ok(StreamExecutor::run_parallel(jobs)?.into_iter().map(|o| o.outputs).collect())
}

/// Transforms behind a butterfly count: each (i)NTT of degree `n`
/// retires `n/2 · log2 n` butterflies.
fn transforms(butterflies: u64, n: usize) -> f64 {
    butterflies as f64 / ((n / 2) as f64 * f64::from(n.trailing_zeros()))
}

/// Sets `poly.pool_reuse_share`: the share of buffer takes served from the
/// free lists between two pool snapshots.
pub fn set_pool_reuse(m: &mut Metrics, before: &PoolStats, after: &PoolStats) {
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.set("poly.pool_reuse_share", hits as f64 / (hits + misses).max(1) as f64);
}

/// Sets `core.ntt_count` / `core.hadamard_count` per op from a backend
/// report delta over `ops` ops.
pub fn set_op_counts(m: &mut Metrics, before: &OpReport, after: &OpReport, n: usize, ops: u64) {
    let per = ops.max(1) as f64;
    m.set("core.ntt_count", transforms(after.butterflies - before.butterflies, n) / per);
    m.set("core.hadamard_count", (after.mults - before.mults) as f64 / n as f64 / per);
}

/// Runs `run(level)` (which must execute `ops` ops on a fresh chip-backed
/// evaluator at that level and return its stream report) at O0 and O1 and
/// sets the `sim.*`, `core.dma_*`, `core.overlap_hidden_share` and
/// `opt.{ops_eliminated, ops_fused, cycles_saved_share}` metrics.
pub fn chip_probe(
    m: &mut Metrics,
    ops: u64,
    mut run: impl FnMut(&ChipBackendFactory, OptLevel) -> BenchResult<StreamReport>,
) -> BenchResult<()> {
    let factory = ChipBackendFactory::silicon();
    let t = Instant::now();
    let r = run(&factory, OptLevel::O0)?;
    let o0_wall_s = t.elapsed().as_secs_f64();
    let o1 = run(&factory, OptLevel::O1)?;
    let per = ops.max(1) as f64;
    m.set("sim.cycles_per_op", r.overlapped_cycles as f64 / per);
    m.set("sim.host_ns_per_cycle", o0_wall_s * 1e9 / r.overlapped_cycles.max(1) as f64);
    m.set("core.dma_up_bytes", r.uploaded_bytes as f64 / per);
    m.set("core.dma_down_bytes", r.downloaded_bytes as f64 / per);
    m.set(
        "core.overlap_hidden_share",
        1.0 - r.overlapped_cycles as f64 / r.serial_cycles.max(1) as f64,
    );
    m.set("opt.ops_eliminated", o1.ops_eliminated as f64 / per);
    m.set("opt.ops_fused", o1.ops_fused as f64 / per);
    m.set(
        "opt.cycles_saved_share",
        1.0 - o1.overlapped_cycles as f64 / r.overlapped_cycles.max(1) as f64,
    );
    Ok(())
}

/// `opt.optimize_ms`: wall of `cofhee_opt::optimize` at O1 over the
/// streams one op records.
pub fn optimize_probe(m: &mut Metrics, streams: &[OpStream]) -> BenchResult<()> {
    let t = Instant::now();
    for st in streams {
        std::hint::black_box(cofhee_opt::optimize(st, OptLevel::O1)?);
    }
    m.set("opt.optimize_ms", t.elapsed().as_secs_f64() * 1e3);
    Ok(())
}
