//! Per-operation cost models for the Table X estimates.
//!
//! A backend is summarized by the wall time of its three primitive
//! encrypted operations, composed from one RNS tower's primitive latencies
//! by [`OpCosts::compose`]. CoFHEE's primitives are *measured from the
//! simulator*; the CPU's are timed by the `table10_apps` bench on the
//! production CPU kernel (the tower's `HarveyNtt` plan and Hadamard
//! pass), or the totals are taken from the paper's reference figures.
//!
//! The relinearization model: key switching with `l` digits
//! costs `l` forward NTTs (one per decomposed digit), `2l` Hadamard
//! products (against the two relin-key polynomials, kept in NTT form),
//! `2(l−1)` accumulating additions, and `2` inverse NTTs — all per tower.
//! This is the natural mapping of digit-decomposition key switching onto
//! the Table I command set; the paper defers key switching to future
//! work (Section III-C), so this mapping is ours and is documented here
//! and in EXPERIMENTS.md.

use cofhee_arith::rns::RnsBasis;
use cofhee_core::{Device, Result};
use cofhee_sim::ChipConfig;

use crate::workloads::Workload;

/// Seconds per primitive encrypted operation on one backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// Backend label.
    pub backend: &'static str,
    /// One ciphertext + ciphertext addition.
    pub ct_ct_add_s: f64,
    /// One ciphertext × plaintext multiplication.
    pub ct_pt_mul_s: f64,
    /// One ciphertext × ciphertext multiplication + relinearization.
    pub ct_ct_mul_relin_s: f64,
}

impl OpCosts {
    /// Composes the per-op costs of `towers` RNS towers from one tower's
    /// primitive latencies in seconds: a forward NTT, an inverse NTT, a
    /// Hadamard pass and a pointwise-add pass. Per tower, `ct+ct` is two
    /// add passes, `ct·pt` two Hadamard passes, and `ct·ct + relin` the
    /// full Algorithm 3 (4 NTT + 4 Had + 1 add + 3 iNTT) plus the
    /// key-switch schedule of the module docs.
    ///
    /// Table X's two passes for `ct·pt` assume the ciphertext in NTT form
    /// too, not only the plaintext: the library's `ct·pt` streams also
    /// transform each ciphertext component forward and back.
    pub fn compose(
        backend: &'static str,
        towers: usize,
        t_ntt: f64,
        t_intt: f64,
        t_had: f64,
        t_add: f64,
    ) -> Self {
        let towers = towers as f64;
        let ct_add = 2.0 * t_add;
        let ct_pt = 2.0 * t_had;
        let ct_ct = 4.0 * t_ntt + 4.0 * t_had + t_add + 3.0 * t_intt;
        let l = RELIN_DIGITS as f64;
        let relin = l * t_ntt + 2.0 * l * t_had + 2.0 * (l - 1.0) * t_add + 2.0 * t_intt;
        Self {
            backend,
            ct_ct_add_s: towers * ct_add,
            ct_pt_mul_s: towers * ct_pt,
            ct_ct_mul_relin_s: towers * (ct_ct + relin),
        }
    }

    /// Total runtime for a workload under this backend.
    pub fn total_seconds(&self, w: &Workload) -> f64 {
        w.ct_ct_add as f64 * self.ct_ct_add_s
            + w.ct_pt_mul as f64 * self.ct_pt_mul_s
            + w.ct_ct_mul_relin as f64 * self.ct_ct_mul_relin_s
    }
}

/// Relinearization digit count used by the cost model (20-bit digits over
/// 109-bit towers).
pub const RELIN_DIGITS: u64 = 6;

/// Measures CoFHEE per-op costs at `(n, log q)` from the simulator: one
/// run of each primitive on the first tower, composed by
/// [`OpCosts::compose`]. `ct+ct`'s add passes are PMODADDs (the two
/// ciphertext polynomials); `ct·pt`'s Hadamards take weights
/// pre-transformed and cached in NTT form, as an inference server would.
///
/// # Errors
///
/// Device bring-up or execution failures.
pub fn measure_cofhee(n: usize, total_log_q: u32) -> Result<OpCosts> {
    let basis = RnsBasis::for_total_bits(total_log_q, 128, n)?;
    let freq = ChipConfig::silicon().freq_hz as f64;

    // Measure primitive latencies on the first tower (all towers have
    // identical microarchitectural cost).
    let mut device = Device::connect(ChipConfig::silicon(), basis.moduli()[0], n)?;
    let plan = device.chip().bank_plan();
    let zero = vec![0u128; n];
    let d0 = cofhee_sim::Slot::new(plan.d0, 0);
    let d1 = cofhee_sim::Slot::new(plan.d1, 0);
    let d2 = cofhee_sim::Slot::new(plan.d2, 0);
    device.upload(d0, &zero)?;
    device.upload(d1, &zero)?;

    let t_ntt = device.ntt(d0, d1)?.cycles as f64 / freq;
    let t_intt = device.intt(d1, d2)?.cycles as f64 / freq;
    let t_had = device.hadamard(d0, d1, d2)?.cycles as f64 / freq;
    let t_add = device.pointwise_add(d0, d1, d2)?.cycles as f64 / freq;

    Ok(OpCosts::compose("CoFHEE (simulated silicon)", basis.len(), t_ntt, t_intt, t_had, t_add))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cofhee_costs_have_the_right_magnitudes() {
        // n = 2^12, one 109-bit tower: ct·ct alone is 0.84 ms; with our
        // relin model the combined op lands near 2 ms.
        let c = measure_cofhee(1 << 12, 109).unwrap();
        assert!(
            c.ct_ct_mul_relin_s > 1.5e-3 && c.ct_ct_mul_relin_s < 2.5e-3,
            "mul+relin = {}",
            c.ct_ct_mul_relin_s
        );
        // Adds are tens of microseconds.
        assert!(c.ct_ct_add_s > 1e-5 && c.ct_ct_add_s < 1e-4);
        // Multiplication dominates single-op cost by ~50×.
        assert!(c.ct_ct_mul_relin_s / c.ct_ct_add_s > 20.0);
    }

    #[test]
    fn two_towers_double_costs() {
        let one = measure_cofhee(1 << 10, 109).unwrap();
        let two = measure_cofhee(1 << 10, 218).unwrap();
        let ratio = two.ct_ct_mul_relin_s / one.ct_ct_mul_relin_s;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn workload_totals_follow_op_mixes() {
        let c = measure_cofhee(1 << 12, 109).unwrap();
        let cn = c.total_seconds(&Workload::cryptonets());
        let lr = c.total_seconds(&Workload::logistic_regression());
        // Logistic regression has 12.6× the mul+relin count, so it must
        // cost more in total despite fewer adds.
        assert!(lr > cn, "logreg {lr} vs cryptonets {cn}");
        assert!(cn > 10.0, "CryptoNets should take tens of seconds: {cn}");
    }

    #[test]
    fn measured_telemetry_reflects_real_encrypted_work() {
        use crate::demos::{encrypt_features, LogisticScorer};
        use cofhee_bfv::{BfvParams, Encryptor, KeyGenerator};
        use cofhee_core::ChipBackendFactory;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = BfvParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let scorer =
            LogisticScorer::with_backend(&params, vec![2, 5], 1, &ChipBackendFactory::silicon())
                .unwrap();
        assert_eq!(scorer.evaluator().backend_report(), cofhee_core::OpReport::default());

        let features = vec![vec![3, 4], vec![5, 6]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let _ = scorer.score(&cts).unwrap();

        // Two ct·pt products (3 transforms each on the PolyMul schedule)
        // plus the accumulating additions, measured on real silicon
        // cycles — not the composed model.
        let r = scorer.evaluator().backend_report();
        assert!(r.cycles > 0, "chip backend measures real cycles");
        assert!(r.butterflies >= 6 * (64 / 2) * 6, "PolyMul transforms retired");
        assert!(r.addsubs > 0, "accumulation adds retired");
        assert!(scorer.evaluator().backend_comm_stats().bytes > 0);
    }

    #[test]
    fn measured_stream_telemetry_reports_overlap_on_chip() {
        use crate::demos::{encrypt_features, SquareLayerNet};
        use cofhee_bfv::{BfvParams, Encryptor, KeyGenerator};
        use cofhee_core::ChipBackendFactory;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let params = BfvParams::insecure_testing(64).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let kg = KeyGenerator::new(&params, &mut rng);
        let pk = kg.public_key(&mut rng).unwrap();
        let enc = Encryptor::new(&params, pk);
        let net = SquareLayerNet::with_backend(
            &params,
            vec![vec![1, 2]],
            vec![3],
            &kg,
            &ChipBackendFactory::silicon(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(net.evaluator().backend_stream_report(), cofhee_core::StreamReport::default());

        let features = vec![vec![1, 2], vec![3, 4]];
        let cts = encrypt_features(&params, &enc, &features, &mut rng).unwrap();
        let _ = net.infer(&cts).unwrap();

        // The square activation's multiply+relin ran as recorded streams
        // through the chip's command FIFO: batched, interrupt-drained,
        // and DMA-overlapped.
        let r = net.evaluator().backend_stream_report();
        assert!(r.batches > 0, "streams were submitted");
        assert_eq!(r.interrupts, r.batches, "one serviced interrupt per drain");
        assert!(
            r.overlapped_cycles < r.serial_cycles,
            "overlap must beat the serial schedule: {r:?}"
        );
    }
}
