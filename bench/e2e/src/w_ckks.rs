//! `ckks_mul_n13`: `CkksEvaluator::multiply_relin_rescale` at `n = 2^13`
//! over the 109-bit chain on the CPU backend, closed loop, one client.
//!
//! The mirror image of `bfv_mul_n13`: there is no CRT scale-and-round, and
//! the key switch (digit decomposition plus the per-limb NTT/Hadamard
//! streams, key material inline) does most of the work.

use std::time::Instant;

use cofhee_ckks::{CkksCiphertext, CkksError, CkksEvaluator};
use cofhee_core::{CpuBackendFactory, PolyBackend, PoolStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fixtures::{digest_ckks, Arith, CkksKit, Plan, POOL};
use crate::harness::{BenchResult, Metrics, Pass, RunConfig, Workload};
use crate::spans::Recorder;
use crate::staged;

pub struct CkksMul {
    kit: CkksKit,
    eval: CkksEvaluator,
    ops: Vec<(usize, usize)>,
    /// The benchmark's own per-chain-prime backends for the staged form.
    limb_backends: Vec<Box<dyn PolyBackend>>,
    pool_after_warmup: PoolStats,
}

/// One stage in its staged form: record → execute → reassemble, each in
/// its own span under a span named after the stage.
fn stage(
    rec: &mut Recorder,
    name: &'static str,
    backends: &mut [Box<dyn PolyBackend>],
    record: impl FnOnce() -> Result<Vec<cofhee_core::OpStream>, CkksError>,
    finish: impl FnOnce(Vec<Vec<Vec<u128>>>) -> Result<CkksCiphertext, CkksError>,
) -> BenchResult<CkksCiphertext> {
    rec.span("ckks", name, |rec| {
        let streams = rec.span("ckks", "record", |_| record())?;
        let limbs = rec.span("core", "execute", |_| staged::run_limbs(backends, &streams))?;
        Ok(rec.span("ckks", "finish", |_| finish(limbs))?)
    })
}

impl CkksMul {
    fn finish_op(
        &self,
        pass: &mut Pass,
        (a, b): (usize, usize),
        out: BenchResult<CkksCiphertext>,
        verify: bool,
    ) -> BenchResult<()> {
        match out {
            Ok(ct) => {
                let plan = Plan { op: Arith::Mul, a, b };
                let checked = verify.then(|| self.kit.check_plan(&ct, plan)).transpose()?;
                pass.completed(digest_ckks(&ct), checked);
            }
            Err(_) => pass.errored(),
        }
        Ok(())
    }
}

impl Workload for CkksMul {
    const NAME: &'static str = "ckks_mul_n13";

    fn setup(cfg: &RunConfig) -> BenchResult<Self> {
        let kit = CkksKit::new(cfg.sized(1 << 13, 1 << 8), cfg.seed)?;
        let eval = CkksEvaluator::new(&kit.params)?;
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xcc5);
        let ops: Vec<(usize, usize)> = (0..cfg.sized(32, 2))
            .map(|_| (rng.gen_range(0..POOL), rng.gen_range(0..POOL)))
            .collect();
        let limb_backends =
            staged::backends(&CpuBackendFactory, kit.params.moduli(), kit.params.n())?;
        let mut w = Self { kit, eval, ops, limb_backends, pool_after_warmup: PoolStats::default() };
        for &(a, b) in w.ops.iter().cycle().take(cfg.sized(8, 1)) {
            w.eval.multiply_relin_rescale(&w.kit.cts[a], &w.kit.cts[b], &w.kit.rlk)?;
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
            let out = pass.time_op(|| self.eval.multiply_relin_rescale(a, b, &self.kit.rlk));
            self.finish_op(&mut pass, op, out.map_err(Into::into), verify)?;
        }
        pass.close_segment(self.ops.len());
        Ok(pass)
    }

    /// Staged exactly as `multiply_relin_rescale` runs it: the three
    /// public stream builders, each executed on the benchmark's own
    /// per-prime backends and reassembled with
    /// `ciphertext_from_limb_outputs`.
    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        let ops = self.ops.clone();
        for op in ops {
            let (a, b) = (&self.kit.cts[op.0], &self.kit.cts[op.1]);
            let (ev, rlk, be) = (&self.eval, &self.kit.rlk, &mut self.limb_backends);
            rec.next_op();
            let t = Instant::now();
            let out = rec.span("bench", "op", |rec| -> BenchResult<_> {
                let product = stage(
                    rec,
                    "tensor",
                    be,
                    || ev.tensor_streams(a, b),
                    |l| ev.ciphertext_from_limb_outputs(l, a.level(), a.scale() * b.scale()),
                )?;
                let relin = stage(
                    rec,
                    "relin",
                    be,
                    || ev.relin_streams(&product, rlk),
                    |l| ev.ciphertext_from_limb_outputs(l, product.level(), product.scale()),
                )?;
                let level = relin.level().lower().ok_or(CkksError::LevelExhausted)?;
                let scale = ev.rescaled_scale(&relin)?;
                // One stream per remaining limb: the top backend sits out.
                stage(
                    rec,
                    "rescale",
                    &mut be[..level.limbs()],
                    || ev.rescale_streams(&relin),
                    |l| ev.ciphertext_from_limb_outputs(l, level, scale),
                )
            });
            pass.op_done(t);
            self.finish_op(&mut pass, op, out, false)?;
        }
        pass.close_segment(self.ops.len());
        Ok(pass)
    }

    fn layer_metrics(&mut self, rec: &Recorder, ops: u64, m: &mut Metrics) -> BenchResult<()> {
        m.set("ckks.record_ms", rec.self_ms_per("ckks", "record", ops));
        m.set("ckks.tensor_ms", rec.total_ms_per("ckks", "tensor", ops));
        m.set("ckks.relin_ms", rec.total_ms_per("ckks", "relin", ops));
        m.set("ckks.rescale_ms", rec.total_ms_per("ckks", "rescale", ops));
        m.set("core.execute_ms", rec.self_ms_per("core", "execute", ops));

        staged::set_pool_reuse(m, &self.pool_after_warmup, &self.eval.backend_pool_stats());

        let n = self.kit.params.n();
        let (a, b) = (&self.kit.cts[self.ops[0].0], &self.kit.cts[self.ops[0].1]);
        let before = self.eval.backend_report();
        let reference = self.eval.multiply_relin_rescale(a, b, &self.kit.rlk)?;
        staged::set_op_counts(m, &before, &self.eval.backend_report(), n, 1);

        // The decomposition inside `relin_streams`, on the same input:
        // the product's cubic component composed out of the chain.
        let product = self.eval.multiply(a, b)?;
        let basis = self.kit.params.basis_at(product.level());
        let c2 = &product.components()[2];
        let composed = (0..n)
            .map(|k| {
                let residues: Vec<u128> = c2.iter().map(|limb| limb[k]).collect();
                Ok(basis.compose(&residues)?.to_u128().ok_or("chain product exceeds 128 bits")?)
            })
            .collect::<BenchResult<Vec<u128>>>()?;
        let digits = self.kit.params.digits_at(product.level());
        let t = Instant::now();
        std::hint::black_box(cofhee_core::digit_decompose(
            &composed,
            self.kit.rlk.base_bits(),
            digits,
        ));
        m.set("core.decompose_ms", t.elapsed().as_secs_f64() * 1e3);

        let mut streams = self.eval.tensor_streams(a, b)?;
        streams.extend(self.eval.relin_streams(&product, &self.kit.rlk)?);
        staged::optimize_probe(m, &streams)?;

        let want = digest_ckks(&reference);
        staged::chip_probe(m, 1, |factory, level| {
            let chip =
                CkksEvaluator::with_backend(&self.kit.params, factory)?.with_opt_level(level);
            let got = chip.multiply_relin_rescale(a, b, &self.kit.rlk)?;
            if digest_ckks(&got) != want {
                return Err(format!("chip result differs from CPU at {level:?}").into());
            }
            Ok(chip.backend_stream_report())
        })
    }
}
