//! `e2e_profile compare <a.json> <b.json>`: one row per workload ×
//! end-to-end metric with both values, the ratio with its base, and a
//! verdict against the metric's bound; plus a `result_digest` line per
//! workload. `a` is the base (the parent commit), `b` the change.

use std::path::Path;

use crate::catalog::{self, Better, Bound, EndToEnd};
use crate::harness::BenchResult;
use crate::json::Json;
use crate::stats;
use crate::suite::SCHEMA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The runs' own spread exceeds the bound, so the two values cannot be
    /// told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and, where the file keeps them,
/// the samples behind it.
#[derive(Debug, Clone, Default)]
pub struct Side {
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Side {
    /// How far the reported median could be off, as a share of it: the
    /// samples' interquartile range over √n (about the standard error of a
    /// median). 0 without samples.
    fn spread(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let (q1, q2, q3) = stats::quartiles(&self.samples);
        (q3 - q1) / q2 / (self.samples.len() as f64).sqrt()
    }

    /// Smallest and largest sample in the metric's own unit (the value
    /// itself where the samples are borrowed from another metric).
    fn extremes(&self, metric: &str) -> (f64, f64) {
        if self.samples.is_empty() || metric == "host_op_ms_p50" {
            return (self.value, self.value);
        }
        self.samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)))
    }
}

pub fn verdict(m: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    // Positive when `b` is the worse one.
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let (limit, noisy) = match m.bound {
        Bound::Relative(r) => (r * a.value.abs(), a.spread().max(b.spread()) > r),
        Bound::Absolute(x) => (x, false),
    };
    if noisy {
        let ((a_lo, a_hi), (b_lo, b_hi)) = (a.extremes(m.name), b.extremes(m.name));
        let every_run_better = match m.better {
            Better::Lower => b_hi < a_lo,
            Better::Higher => b_lo > a_hi,
        };
        return if every_run_better { Verdict::Better } else { Verdict::Unresolved };
    }
    if worse_by > limit {
        Verdict::Worse
    } else if worse_by < -limit || (limit == 0.0 && worse_by < 0.0) {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &Path) -> BenchResult<Json> {
    let doc = Json::parse(&std::fs::read_to_string(path)?)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{}: schema {other:?}, expected {SCHEMA:?}", path.display()).into()),
    }
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let value = workload.get("end_to_end")?.get(metric)?.as_f64()?;
    // Op times come from the same segments as the rate, so the rate's
    // samples stand for both (as rates: only their spread is used).
    let samples_key = match metric {
        "host_ops_per_s" | "host_op_ms_p50" => "segment_rates",
        "setup_s" => "setup_samples_s",
        _ => "",
    };
    let samples = workload
        .get(samples_key)
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some(Side { value, samples })
}

/// Prints the comparison; `Ok(false)` when any row is `worse`.
pub fn compare(a_path: &Path, b_path: &Path) -> BenchResult<bool> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let stamp = |d: &Json| {
        let field = |k: &str| d.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
        let seed = d.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        format!("{} (commit {:.12}, seed {seed})", field("label"), field("commit"))
    };
    println!("a (base): {}", stamp(&a));
    println!("b       : {}", stamp(&b));
    println!("{:<24} {:<24} {:>15} {:>15} {:>9}  verdict", "workload", "metric", "a", "b", "b / a");
    let mut worse = 0;
    let mut unresolved = 0;
    for name in catalog::WORKLOADS {
        let (Some(wa), Some(wb)) = (
            a.get("workloads").and_then(|w| w.get(name)),
            b.get("workloads").and_then(|w| w.get(name)),
        ) else {
            println!("{name:<24} (absent from one file)");
            continue;
        };
        for m in catalog::END_TO_END.iter().filter(|m| m.applies_to(name)) {
            let (Some(sa), Some(sb)) = (side(wa, m.name), side(wb, m.name)) else {
                println!("{name:<24} {:<24} (absent from one file)", m.name);
                continue;
            };
            let v = verdict(m, &sa, &sb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            // A ratio needs a base that is not 0 (`failed_ops_share`).
            let ratio =
                if sa.value == 0.0 { "-".into() } else { format!("{:.4}", sb.value / sa.value) };
            println!(
                "{name:<24} {:<24} {:>15.6} {:>15.6} {ratio:>9}  {} ({} is better)",
                m.name,
                sa.value,
                sb.value,
                v.as_str(),
                m.better.as_str(),
            );
        }
        let digest = |w: &Json| w.get("result_digest").and_then(Json::as_str).map(str::to_string);
        println!(
            "{name:<24} {:<24} {}",
            "result_digest",
            if digest(wa) == digest(wb) { "identical" } else { "DIFFERENT" }
        );
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::end_to_end;

    fn point(value: f64) -> Side {
        Side { value, samples: Vec::new() }
    }

    #[test]
    fn relative_bounds_follow_the_metric_direction() {
        let rate = end_to_end("host_ops_per_s").unwrap(); // higher, 10 %
        assert_eq!(verdict(rate, &point(100.0), &point(95.0)), Verdict::Within);
        assert_eq!(verdict(rate, &point(100.0), &point(89.0)), Verdict::Worse);
        assert_eq!(verdict(rate, &point(100.0), &point(111.0)), Verdict::Better);
        let rss = end_to_end("peak_rss_mb").unwrap(); // lower, 20 %
        assert_eq!(verdict(rss, &point(100.0), &point(121.0)), Verdict::Worse);
        assert_eq!(verdict(rss, &point(100.0), &point(79.0)), Verdict::Better);
    }

    #[test]
    fn absolute_bounds_are_in_the_metric_unit() {
        let bits = end_to_end("headroom_bits").unwrap(); // higher, 0.5 bit
        assert_eq!(verdict(bits, &point(36.0), &point(35.6)), Verdict::Within);
        assert_eq!(verdict(bits, &point(36.0), &point(35.4)), Verdict::Worse);
        let failed = end_to_end("failed_ops_share").unwrap(); // lower, +0
        assert_eq!(verdict(failed, &point(0.0), &point(0.0)), Verdict::Within);
        assert_eq!(verdict(failed, &point(0.0), &point(0.001)), Verdict::Worse);
        assert_eq!(verdict(failed, &point(0.01), &point(0.0)), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let rate = end_to_end("host_ops_per_s").unwrap();
        let noisy = |value: f64, samples: &[f64]| Side { value, samples: samples.to_vec() };
        let a = noisy(100.0, &[60.0, 70.0, 100.0, 130.0, 140.0]);
        assert!(a.spread() > 0.10);
        // A drop that would be `worse` cannot be resolved through the noise…
        assert_eq!(verdict(rate, &a, &point(85.0)), Verdict::Unresolved);
        // …nor can a small gain; a gain clear of every base run can.
        assert_eq!(verdict(rate, &a, &point(105.0)), Verdict::Unresolved);
        assert_eq!(verdict(rate, &a, &noisy(150.0, &[145.0, 150.0, 160.0])), Verdict::Better);
        // Tight samples resolve normally.
        let tight = noisy(100.0, &[99.0, 100.0, 101.0, 100.5]);
        assert_eq!(verdict(rate, &tight, &point(85.0)), Verdict::Worse);
    }
}
