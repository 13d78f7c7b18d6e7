//! Service-level telemetry: per-tenant admission/rejection/completion
//! counters, goodput, and the Jain fairness index.
//!
//! The farm layer already reports die utilization and stream timing
//! ([`FarmReport`]); this layer adds what only the gateway can see —
//! how many requests each tenant offered, how many were turned away and
//! why, and how the completed work split between queueing and service.

use cofhee_farm::{FarmReport, LatencyPercentiles};

/// One tenant's lifetime counters at the gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests offered (admitted + rejected).
    pub submitted: u64,
    /// Requests admitted (granted a ticket and a result handle).
    pub admitted: u64,
    /// Rejections for exceeding a quota (in-flight jobs or registry
    /// bytes).
    pub rejected_quota: u64,
    /// Rejections for a full tenant queue (backpressure).
    pub rejected_queue: u64,
    /// Rejections at validation (unknown/unauthorized handles,
    /// parameter mismatches, missing relin key).
    pub rejected_denied: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Admitted requests cancelled before dispatch because an operand
    /// or their reserved result handle was evicted from the registry.
    pub cancelled: u64,
    /// Deepest the tenant's admission queue ever got.
    pub peak_queue: u64,
    /// Total cycles completed requests spent waiting (admission →
    /// start of service, saturating).
    pub queue_cycles: u64,
    /// Total critical-path service cycles of completed requests
    /// (saturating).
    pub service_cycles: u64,
}

impl TenantStats {
    /// Requests rejected for any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_quota + self.rejected_queue + self.rejected_denied
    }
}

/// Jain's fairness index over a per-tenant allocation:
/// `(Σx)² / (n·Σx²)`. 1.0 means perfectly even; `1/n` means one tenant
/// captured everything. Empty or all-zero allocations count as fair.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sum_sq)
}

/// Aggregate telemetry for one gateway lifetime.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The admission-drain policy label.
    pub policy: &'static str,
    /// The underlying farm's report (die utilization, stream totals).
    pub farm: FarmReport,
    /// Per-tenant counters, in registration order, with labels.
    pub tenants: Vec<(String, TenantStats)>,
    /// End-to-end latency percentiles (admission → finish) over
    /// completed requests.
    pub latency: LatencyPercentiles,
    /// Queueing-time percentiles (latency minus service) over completed
    /// requests — gateway queue plus die backlog.
    pub queue: LatencyPercentiles,
    /// Critical-path service-time percentiles over completed requests.
    pub service: LatencyPercentiles,
    /// The gateway's virtual clock at report time.
    pub now: u64,
}

impl ServiceReport {
    fn sum(&self, f: impl Fn(&TenantStats) -> u64) -> u64 {
        self.tenants.iter().map(|(_, s)| f(s)).sum()
    }

    /// Requests offered across all tenants.
    pub fn submitted(&self) -> u64 {
        self.sum(|s| s.submitted)
    }

    /// Requests admitted across all tenants.
    pub fn admitted(&self) -> u64 {
        self.sum(|s| s.admitted)
    }

    /// Requests rejected across all tenants.
    pub fn rejected(&self) -> u64 {
        self.sum(TenantStats::rejected)
    }

    /// Admitted requests that ran to completion.
    pub fn completed(&self) -> u64 {
        self.sum(|s| s.completed)
    }

    /// Admitted requests cancelled by an eviction before dispatch.
    /// Every admitted request is accounted for:
    /// `completed + cancelled == admitted` after a full drain.
    pub fn cancelled(&self) -> u64 {
        self.sum(|s| s.cancelled)
    }

    /// Fraction of offered requests that were rejected.
    pub fn reject_rate(&self) -> f64 {
        let submitted = self.submitted();
        if submitted == 0 {
            return 0.0;
        }
        self.rejected() as f64 / submitted as f64
    }

    /// Completed requests per simulated second — the throughput that
    /// *counts*: rejected work is excluded by construction.
    pub fn goodput_ops_per_sec(&self) -> f64 {
        let span = self.now.max(self.farm.makespan_cycles);
        if span == 0 {
            return 0.0;
        }
        self.completed() as f64 * self.farm.freq_hz as f64 / span as f64
    }

    /// Jain fairness index over per-tenant *demand-normalized* goodput
    /// (`completed / offered`, tenants that offered nothing excluded).
    ///
    /// Normalizing by offered load keeps a tenant that merely offers
    /// more work from skewing the index in either direction: with spare
    /// capacity a work-conserving drain rightly hands a flooder the
    /// leftovers, and fairness asks whether each tenant's *own demand*
    /// was served evenly — not whether absolute counts matched.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .tenants
            .iter()
            .filter(|(_, s)| s.submitted > 0)
            .map(|(_, s)| s.completed as f64 / s.submitted as f64)
            .collect();
        jain_index(&xs)
    }

    /// Renders the report as a human-readable block (bench output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "drain {} | {} tenants | {}/{} admitted ({:.1}% rejected) | {} completed\n",
            self.policy,
            self.tenants.len(),
            self.admitted(),
            self.submitted(),
            self.reject_rate() * 100.0,
            self.completed(),
        );
        out.push_str(&format!(
            "goodput {:.1} ops/s | jain {:.3} | latency p50/p95 = {}/{} cc | queue p50/p95 = {}/{} cc | service p50/p95 = {}/{} cc\n",
            self.goodput_ops_per_sec(),
            self.jain_fairness(),
            self.latency.p50,
            self.latency.p95,
            self.queue.p50,
            self.queue.p95,
            self.service.p50,
            self.service.p95,
        ));
        let eliminated = self.farm.stream_totals.ops_eliminated;
        if eliminated > 0 {
            out.push_str(&format!("optimizer: {eliminated} ops eliminated\n"));
        }
        for (label, s) in &self.tenants {
            out.push_str(&format!(
                "  {:<12} offered {:>5}, admitted {:>5}, done {:>5}, cancelled {:>3}, rejected {:>4} (quota {}, queue {}, denied {}), peak queue {}\n",
                label,
                s.submitted,
                s.admitted,
                s.completed,
                s.cancelled,
                s.rejected(),
                s.rejected_quota,
                s.rejected_queue,
                s.rejected_denied,
                s.peak_queue,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_spans_even_to_captured() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tenant captured everything: 1/n.
        assert!((jain_index(&[12.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[10.0, 9.0, 11.0, 10.0]);
        assert!(skew > 0.99, "mild skew stays near 1: {skew}");
    }

    fn report(tenants: Vec<(String, TenantStats)>, now: u64) -> ServiceReport {
        ServiceReport {
            policy: "test",
            farm: FarmReport {
                policy: "test",
                chips: vec![],
                jobs: 0,
                streams: 0,
                makespan_cycles: 0,
                latency: LatencyPercentiles::default(),
                queue: LatencyPercentiles::default(),
                service: LatencyPercentiles::default(),
                stream_totals: Default::default(),
                freq_hz: 250_000_000,
            },
            tenants,
            latency: LatencyPercentiles::default(),
            queue: LatencyPercentiles::default(),
            service: LatencyPercentiles::default(),
            now,
        }
    }

    #[test]
    fn totals_goodput_and_render_aggregate_per_tenant_counters() {
        let a = TenantStats {
            submitted: 10,
            admitted: 8,
            rejected_queue: 2,
            completed: 8,
            ..Default::default()
        };
        let b = TenantStats {
            submitted: 6,
            admitted: 4,
            rejected_quota: 1,
            rejected_denied: 1,
            completed: 2,
            ..Default::default()
        };
        let r = report(vec![("alice".into(), a), ("bob".into(), b)], 250_000_000);
        assert_eq!(r.submitted(), 16);
        assert_eq!(r.admitted(), 12);
        assert_eq!(r.rejected(), 4);
        assert_eq!(r.completed(), 10);
        assert!((r.reject_rate() - 0.25).abs() < 1e-12);
        // 10 completions over one simulated second.
        assert!((r.goodput_ops_per_sec() - 10.0).abs() < 1e-9);
        assert!(r.jain_fairness() < 1.0, "8-vs-2 completions is not even");
        let rendered = r.render();
        assert!(rendered.contains("alice"));
        assert!(rendered.contains("25.0% rejected"));
    }
}
