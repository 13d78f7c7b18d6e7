//! `bfv_mul_n13`: `Evaluator::multiply_relin` at the paper's
//! `(2^13, 109)` point on the CPU backend, closed loop, one client.
//!
//! Here because most of its time is the host-side CRT base extension and
//! `⌊t·x/q⌉` rounding (`tensor_combine`), not NTT kernels or key
//! switching: a kernel change should barely move it, a CRT change should.

use std::time::Instant;

use cofhee_bfv::{Ciphertext, Evaluator};
use cofhee_core::{CpuBackendFactory, OpReport, PolyBackend, PoolStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::{digest_bfv, Arith, BfvKit, Plan, POOL};
use crate::harness::{BenchResult, Metrics, Pass, RunConfig, Workload};
use crate::spans::Recorder;
use crate::staged;

pub struct BfvMul {
    kit: BfvKit,
    eval: Evaluator,
    /// The pass: operand pairs out of the pool.
    ops: Vec<(usize, usize)>,
    /// The benchmark's own per-prime backends for the staged tensor.
    limb_backends: Vec<Box<dyn PolyBackend>>,
    pool_after_warmup: PoolStats,
}

impl BfvMul {
    fn finish_op(
        &self,
        pass: &mut Pass,
        (a, b): (usize, usize),
        out: Result<Ciphertext, cofhee_bfv::BfvError>,
        verify: bool,
    ) -> BenchResult<()> {
        match out {
            Ok(ct) => {
                let plan = Plan { op: Arith::Mul, a, b };
                let checked = verify.then(|| self.kit.check_plan(&ct, plan)).transpose()?;
                pass.completed(digest_bfv(&ct), checked);
            }
            Err(_) => pass.errored(),
        }
        Ok(())
    }
}

impl Workload for BfvMul {
    const NAME: &'static str = "bfv_mul_n13";

    fn setup(cfg: &RunConfig) -> BenchResult<Self> {
        let kit = BfvKit::new(cfg.sized(1 << 13, 1 << 8), cfg.seed)?;
        let eval = Evaluator::new(&kit.params)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0b5);
        let ops: Vec<(usize, usize)> = (0..cfg.sized(16, 2))
            .map(|_| (rng.gen_range(0..POOL), rng.gen_range(0..POOL)))
            .collect();
        let limb_backends =
            staged::backends(&CpuBackendFactory, kit.params.mult_basis().moduli(), kit.params.n())?;
        let mut w = Self { kit, eval, ops, limb_backends, pool_after_warmup: PoolStats::default() };
        // Warm-up: twiddle cache, buffer pools, resident relin key.
        for &(a, b) in w.ops.iter().cycle().take(cfg.sized(8, 1)) {
            w.eval.multiply_relin(&w.kit.cts[a], &w.kit.cts[b], &w.kit.rlk)?;
        }
        w.pool_after_warmup = w.eval.backend_pool_stats();
        Ok(w)
    }

    fn degree(&self) -> usize {
        self.kit.params.n()
    }

    fn pass(&mut self, verify: bool) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        for &op in &self.ops {
            let (a, b) = (&self.kit.cts[op.0], &self.kit.cts[op.1]);
            let out = pass.time_op(|| self.eval.multiply_relin(a, b, &self.kit.rlk));
            self.finish_op(&mut pass, op, out, verify)?;
        }
        pass.close_segment(self.ops.len());
        Ok(pass)
    }

    /// Staged: `tensor_streams` → execute on own backends →
    /// `tensor_combine`, then the fused `relinearize`. The public
    /// `relin_stream` carries its key polynomials inline (the key parts
    /// are private), which triples the stage's NTT count against the
    /// resident-key path `multiply_relin` takes — so that stage stays one
    /// fused call and one span, and the spans time the same computation
    /// as the untraced run.
    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        let ops = self.ops.clone();
        for op in ops {
            let (a, b) = (&self.kit.cts[op.0], &self.kit.cts[op.1]);
            let (eval, rlk, backends) = (&self.eval, &self.kit.rlk, &mut self.limb_backends);
            rec.next_op();
            let t = Instant::now();
            let out = rec.span("bench", "op", |rec| -> BenchResult<_> {
                let product = rec.span("bfv", "tensor", |rec| -> BenchResult<_> {
                    let streams = rec.span("bfv", "record", |_| eval.tensor_streams(a, b))?;
                    let limbs =
                        rec.span("core", "execute", |_| staged::run_limbs(backends, &streams))?;
                    Ok(rec.span("bfv", "crt", |_| eval.tensor_combine(&limbs))?)
                })?;
                Ok(rec.span("bfv", "relin", |_| eval.relinearize(&product, rlk)))
            })?;
            pass.op_done(t);
            self.finish_op(&mut pass, op, out, false)?;
        }
        pass.close_segment(self.ops.len());
        Ok(pass)
    }

    fn layer_metrics(&mut self, rec: &Recorder, ops: u64, m: &mut Metrics) -> BenchResult<()> {
        m.set("bfv.record_ms", rec.self_ms_per("bfv", "record", ops));
        m.set("bfv.crt_ms", rec.self_ms_per("bfv", "crt", ops));
        m.set("bfv.tensor_ms", rec.total_ms_per("bfv", "tensor", ops));
        m.set("bfv.relin_ms", rec.total_ms_per("bfv", "relin", ops));
        m.set("core.execute_ms", rec.self_ms_per("core", "execute", ops));

        staged::set_pool_reuse(m, &self.pool_after_warmup, &self.eval.backend_pool_stats());

        // Exact op counts and the decomposition cost, from one more op.
        let n = self.kit.params.n();
        let (a, b) = (&self.kit.cts[self.ops[0].0], &self.kit.cts[self.ops[0].1]);
        let before: OpReport = self.eval.backend_report();
        let product = self.eval.multiply(a, b)?;
        let reference = self.eval.relinearize(&product, &self.kit.rlk)?;
        staged::set_op_counts(m, &before, &self.eval.backend_report(), n, 1);
        let c2 = product.polys()[2].to_u128_vec();
        let (bits, digits) = (self.kit.rlk.base_bits(), self.kit.rlk.digit_count());
        let t = Instant::now();
        std::hint::black_box(cofhee_core::digit_decompose(&c2, bits, digits));
        m.set("core.decompose_ms", t.elapsed().as_secs_f64() * 1e3);

        let mut streams = self.eval.tensor_streams(a, b)?;
        streams.push(self.eval.relin_stream(&product, &self.kit.rlk)?);
        staged::optimize_probe(m, &streams)?;

        // The same op on the simulated die: cycles, DMA, and what O1 saves;
        // the chip must agree with the CPU bit for bit.
        let want = digest_bfv(&reference);
        staged::chip_probe(m, 1, |factory, level| {
            let chip = Evaluator::with_backend(&self.kit.params, factory)?.with_opt_level(level);
            let got = chip.multiply_relin(a, b, &self.kit.rlk)?;
            if digest_bfv(&got) != want {
                return Err(format!("chip result differs from CPU at {level:?}").into());
            }
            Ok(chip.backend_stream_report())
        })
    }
}
