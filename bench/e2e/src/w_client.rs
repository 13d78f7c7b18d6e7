//! `client_roundtrip_n13`: encode → encrypt → decrypt → decode in both
//! schemes at `n = 2^13`, closed loop, one client.
//!
//! It uses `poly`/`arith` differently from the evaluator workloads:
//! single wide-ring (`Barrett128`) negacyclic products, the samplers and
//! the canonical embedding — no streams, no backends, no 64-bit limbs. A
//! kernel change that helps evaluator limbs but costs the wide ring shows
//! here.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixtures::{digest_bfv, digest_ckks, BfvKit, CkksKit, CKKS_MIN_BITS, POOL};
use crate::harness::{BenchResult, Metrics, Pass, RunConfig, Workload};
use crate::spans::Recorder;
use crate::stats::Fnv;

pub struct ClientRoundtrip {
    bfv: BfvKit,
    ckks: CkksKit,
    /// Ops (a round trip in each scheme) per pass.
    rounds: usize,
    seed: u64,
}

impl ClientRoundtrip {
    /// The whole pass, one span per client call (a recorder that is off
    /// records nothing). One op is a round trip in each scheme, BFV then
    /// CKKS, so op times are one population rather than two. Encryption
    /// randomness restarts from the same seed every pass, so every pass
    /// must produce the same ciphertexts.
    fn run(&self, rounds: usize, verify: bool, rec: &mut Recorder) -> BenchResult<Pass> {
        let mut pass = Pass::default();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xc11e);
        for i in 0..rounds {
            let (bfv, ckks) = (&self.bfv, &self.ckks);
            let (slots, reals) = (&bfv.slots[i % POOL], &ckks.slots[i % POOL]);
            rec.next_op();
            let t = Instant::now();
            let (ct, got, cct, cgot) = rec.span("bench", "op", |rec| -> BenchResult<_> {
                let pt = rec.span("bfv", "encode", |_| bfv.encoder.encode(slots))?;
                let ct = rec.span("bfv", "encrypt", |_| bfv.enc.encrypt(&pt, &mut rng))?;
                let back = rec.span("bfv", "decrypt", |_| bfv.dec.decrypt(&ct))?;
                let got = rec.span("bfv", "decode", |_| bfv.encoder.decode(&back));
                let pt = rec.span("ckks", "encode", |_| ckks.encoder.encode(reals))?;
                let cct = rec.span("ckks", "encrypt", |_| ckks.enc.encrypt(&pt, &mut rng))?;
                let back = rec.span("ckks", "decrypt", |_| ckks.dec.decrypt(&cct))?;
                let cgot = rec.span("ckks", "decode", |_| ckks.encoder.decode(&back))?;
                Ok((ct, got, cct, cgot))
            })?;
            pass.op_done(t);
            let mut h = Fnv::default();
            h.u64(digest_bfv(&ct));
            h.u64(digest_ckks(&cct));
            let worst = cgot.iter().zip(reals).map(|(g, s)| (g - s).abs()).fold(0.0f64, f64::max);
            let bits = -worst.max(f64::MIN_POSITIVE).log2();
            // The round trip itself is checked on every pass; the BFV noise
            // budget (a second decryption) only on verifying ones.
            let checked = if &got != slots || bits < CKKS_MIN_BITS {
                Some(None)
            } else if verify {
                Some(Some(bits.min(bfv.dec.noise_budget(&ct)?)))
            } else {
                None
            };
            pass.completed(h.0, checked);
        }
        pass.close_segment(rounds);
        Ok(pass)
    }
}

impl Workload for ClientRoundtrip {
    const NAME: &'static str = "client_roundtrip_n13";

    fn setup(cfg: &RunConfig) -> BenchResult<Self> {
        let n = cfg.sized(1 << 13, 1 << 8);
        let w = Self {
            bfv: BfvKit::new(n, cfg.seed)?,
            ckks: CkksKit::new(n, cfg.seed)?,
            rounds: cfg.sized(20, 1),
            seed: cfg.seed,
        };
        // Warm-up (8 ops at full size): twiddle cache, encoder tables.
        w.run(cfg.sized(4, 1), false, &mut Recorder::off())?;
        Ok(w)
    }

    fn degree(&self) -> usize {
        self.bfv.params.n()
    }

    fn pass(&mut self, verify: bool) -> BenchResult<Pass> {
        self.run(self.rounds, verify, &mut Recorder::off())
    }

    fn traced_pass(&mut self, rec: &mut Recorder) -> BenchResult<Pass> {
        self.run(self.rounds, false, rec)
    }

    fn layer_metrics(&mut self, rec: &Recorder, ops: u64, m: &mut Metrics) -> BenchResult<()> {
        let per = ops;
        m.set("bfv.encode_ms", rec.self_ms_per("bfv", "encode", per));
        m.set("bfv.encrypt_ms", rec.self_ms_per("bfv", "encrypt", per));
        m.set("bfv.decrypt_ms", rec.self_ms_per("bfv", "decrypt", per));
        m.set("ckks.encode_ms", rec.self_ms_per("ckks", "encode", per));
        m.set("ckks.encrypt_ms", rec.self_ms_per("ckks", "encrypt", per));
        m.set("ckks.decrypt_ms", rec.self_ms_per("ckks", "decrypt", per));
        m.set("ckks.decode_ms", rec.self_ms_per("ckks", "decode", per));
        Ok(())
    }
}
