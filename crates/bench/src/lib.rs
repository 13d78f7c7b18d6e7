//! # cofhee-bench
//!
//! The benchmark harness regenerating every table and figure of the
//! CoFHEE paper. Report binaries (run with
//! `cargo run -p cofhee_bench --release --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_isa` | Table I operation latencies on the simulated chip |
//! | `table5_performance` | Table V latency + power, paper vs measured |
//! | `fig6_cpu_comparison` | Fig. 6a/6b CPU-vs-CoFHEE time and power |
//! | `table10_apps` | Table X end-to-end application estimates |
//! | `table11_related` | Table XI related-work efficiency comparison |
//! | `physical_tables` | Tables III, IV, VI, VII, VIII, IX |
//! | `fig4_adpll_lock` | ADPLL lock transient (Fig. 4 dynamics) |
//! | `ablation_scaling` | Section VIII-A scalability + multiplier ablations |
//!
//! Every report binary accepts `--smoke`: a reduced-size run (smaller
//! polynomial degrees, shorter sweeps, fewer timing repetitions) that
//! exercises the whole table/figure pipeline in well under a second.
//! CI's `smoke` matrix runs eleven binaries this way — `table5_performance`,
//! `fig6_cpu_comparison`, `table10_apps`, `backend_compare`,
//! `stream_overlap`, `farm_saturation`, `service_saturation`,
//! `hotpath_profile`, `ckks_breakdown`, `trace_export` and
//! `ablation_scaling` — so the reproduction path cannot silently rot.

#![forbid(unsafe_code)]

use std::time::Instant;

/// True when `--smoke` is among the process arguments: report binaries
/// switch to reduced problem sizes so CI can exercise the full pipeline
/// cheaply. Paper-accuracy comparisons only hold in full-size runs.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Selects the full-size or reduced value based on [`smoke_mode`].
pub fn sized<T>(full: T, smoke: T) -> T {
    if smoke_mode() {
        smoke
    } else {
        full
    }
}

/// Times a closure, returning (result, seconds). Runs it `reps` times
/// and reports the minimum — the standard low-noise estimator.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    assert!(reps > 0);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
        out = Some(r);
    }
    (out.expect("reps > 0"), best)
}

/// Formats a relative error as a percentage string.
pub fn pct_err(measured: f64, reference: f64) -> String {
    format!("{:+.3}%", (measured - reference) / reference * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_best_returns_result_and_positive_time() {
        let (v, t) = time_best(3, || 40 + 2);
        assert_eq!(v, 42);
        assert!(t >= 0.0);
    }

    #[test]
    fn pct_err_formats() {
        assert!(pct_err(101.0, 100.0).starts_with("+1.0"));
        assert!(pct_err(99.0, 100.0).starts_with("-1.0"));
    }
}
