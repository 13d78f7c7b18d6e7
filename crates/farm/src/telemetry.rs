//! Aggregate farm telemetry: utilization, queue depths, latency
//! percentiles, throughput.
//!
//! Everything is denominated in *simulated* cycles of the die
//! configuration's clock (250 MHz for the paper's silicon), converted
//! to seconds only at the report edge. All aggregation goes through the
//! saturating `merge`/`absorb` helpers of the telemetry types — a
//! million-job replay pins at `u64::MAX` instead of wrapping.

use cofhee_core::StreamReport;
use cofhee_obs::CycleHistogram;

/// One die's lifetime counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipStats {
    /// Die index within the farm.
    pub chip: usize,
    /// Streams executed.
    pub streams: u64,
    /// Cycles spent computing (utilization numerator).
    pub busy_cycles: u64,
    /// Virtual cycle the die's backlog drained at.
    pub final_clock: u64,
    /// Maximum simultaneously in-flight streams (queued or running).
    pub max_queue_depth: usize,
}

impl ChipStats {
    /// Fraction of the farm's makespan this die spent computing.
    pub fn utilization(&self, makespan_cycles: u64) -> f64 {
        if makespan_cycles == 0 {
            return 0.0;
        }
        self.busy_cycles as f64 / makespan_cycles as f64
    }
}

/// Job-latency percentiles in simulated cycles.
///
/// Reports come from [`LatencyPercentiles::from_histogram`] over a
/// [`CycleHistogram`] — O(1) memory, mergeable, never over-reporting
/// (each quantile is the lower bound of its log₂ sub-bucket, at most
/// ~6.25% under the exact nearest-rank value, which this module's tests
/// hold it to with an exact clone-and-sort oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyPercentiles {
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — separates the "one slow relinearization"
    /// tail from the p99 body on large replays.
    pub p99_9: u64,
    /// Worst observed.
    pub max: u64,
    /// Samples the percentiles summarize.
    pub count: u64,
}

impl LatencyPercentiles {
    /// Percentiles from a streaming histogram (the production path).
    pub fn from_histogram(hist: &CycleHistogram) -> Self {
        if hist.count() == 0 {
            return Self::default();
        }
        Self {
            p50: hist.percentile(50.0),
            p95: hist.percentile(95.0),
            p99: hist.percentile(99.0),
            p99_9: hist.percentile(99.9),
            max: hist.max(),
            count: hist.count(),
        }
    }
}

/// Exact nearest-rank percentiles over a latency sample (sorted
/// internally): the oracle the histogram path is tested against.
#[cfg(test)]
fn latency_percentiles(latencies: &[u64]) -> LatencyPercentiles {
    if latencies.is_empty() {
        return LatencyPercentiles::default();
    }
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| -> u64 {
        let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };
    LatencyPercentiles {
        p50: rank(50.0),
        p95: rank(95.0),
        p99: rank(99.0),
        p99_9: rank(99.9),
        max: *sorted.last().expect("non-empty"),
        count: sorted.len() as u64,
    }
}

/// Aggregate telemetry for one scheduler lifetime.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Placement policy label.
    pub policy: &'static str,
    /// Per-die counters.
    pub chips: Vec<ChipStats>,
    /// Jobs completed.
    pub jobs: u64,
    /// Streams executed across all dies.
    pub streams: u64,
    /// Virtual cycle the last die drained at.
    pub makespan_cycles: u64,
    /// Job-latency percentiles (arrival → finish, simulated cycles).
    pub latency: LatencyPercentiles,
    /// Percentiles of per-job *queueing* time: latency minus the job's
    /// critical-path service cycles. Under light load this pins near 0;
    /// past the saturation knee it grows with every arrival.
    pub queue: LatencyPercentiles,
    /// Percentiles of per-job critical-path *service* time — what each
    /// job costs on an idle farm, independent of backlog.
    pub service: LatencyPercentiles,
    /// Merged per-stream execution telemetry (commands, batches,
    /// serial-vs-overlapped totals) across every submit.
    pub stream_totals: StreamReport,
    /// The die clock frequency used for cycle → second conversion.
    pub freq_hz: u64,
}

impl FarmReport {
    /// Completed jobs per simulated second: `jobs / (makespan / f)`.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.jobs as f64 * self.freq_hz as f64 / self.makespan_cycles as f64
    }

    /// Mean per-die utilization over the makespan.
    pub fn mean_utilization(&self) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        self.chips.iter().map(|c| c.utilization(self.makespan_cycles)).sum::<f64>()
            / self.chips.len() as f64
    }

    /// Converts a cycle count to milliseconds at the farm clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz as f64 * 1e3
    }

    /// Renders the report as a human-readable block (bench output,
    /// demos).
    pub fn render(&self) -> String {
        let mut out = format!(
            "policy {} | {} chips | {} jobs / {} streams | makespan {} cc ({:.3} ms @ {} MHz)\n",
            self.policy,
            self.chips.len(),
            self.jobs,
            self.streams,
            self.makespan_cycles,
            self.cycles_to_ms(self.makespan_cycles),
            self.freq_hz / 1_000_000,
        );
        out.push_str(&format!(
            "throughput {:.1} ops/s | latency p50/p95/p99/max = {}/{}/{}/{} cc | mean util {:.1}%\n",
            self.throughput_ops_per_sec(),
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.latency.max,
            self.mean_utilization() * 100.0,
        ));
        out.push_str(&format!(
            "queue p50/p95 = {}/{} cc | service p50/p95 = {}/{} cc\n",
            self.queue.p50, self.queue.p95, self.service.p50, self.service.p95,
        ));
        let eliminated = self.stream_totals.ops_eliminated;
        if eliminated > 0 {
            out.push_str(&format!("optimizer: {eliminated} ops eliminated\n"));
        }
        for c in &self.chips {
            out.push_str(&format!(
                "  chip {:>2}: {:>6} streams, busy {:>12} cc, util {:>5.1}%, peak queue {}\n",
                c.chip,
                c.streams,
                c.busy_cycles,
                c.utilization(self.makespan_cycles) * 100.0,
                c.max_queue_depth,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let lat: Vec<u64> = (1..=100).collect();
        let p = latency_percentiles(&lat);
        assert_eq!(p.p50, 50);
        assert_eq!(p.p95, 95);
        assert_eq!(p.p99, 99);
        assert_eq!(p.p99_9, 100);
        assert_eq!(p.max, 100);
        assert_eq!(p.count, 100);
        assert_eq!(latency_percentiles(&[]), LatencyPercentiles::default());
        let single = latency_percentiles(&[42]);
        assert_eq!((single.p50, single.p99, single.max), (42, 42, 42));
    }

    #[test]
    fn histogram_percentiles_match_the_exact_oracle_within_a_sub_bucket() {
        // Skewed sample with a heavy tail, like real job latencies.
        let lat: Vec<u64> = (0..5000u64).map(|i| 1000 + i * i % 700_003).collect();
        let exact = latency_percentiles(&lat);
        let mut hist = CycleHistogram::new();
        for &v in &lat {
            hist.record(v);
        }
        let approx = LatencyPercentiles::from_histogram(&hist);
        assert_eq!(approx.count, exact.count);
        assert_eq!(approx.max, exact.max);
        for (a, e) in [
            (approx.p50, exact.p50),
            (approx.p95, exact.p95),
            (approx.p99, exact.p99),
            (approx.p99_9, exact.p99_9),
        ] {
            // Lower bound of the exact value's 1/16-wide sub-bucket:
            // never above, within ~6.25% below.
            assert!(a <= e, "histogram over-reported: {a} > {e}");
            assert!(e - a <= e / 16 + 1, "histogram too far under: {a} vs {e}");
        }
        assert_eq!(LatencyPercentiles::from_histogram(&CycleHistogram::new()), Default::default());
    }

    #[test]
    fn throughput_and_utilization_use_the_virtual_clock() {
        let report = FarmReport {
            policy: "test",
            chips: vec![
                ChipStats {
                    chip: 0,
                    streams: 2,
                    busy_cycles: 500,
                    final_clock: 1000,
                    max_queue_depth: 2,
                },
                ChipStats {
                    chip: 1,
                    streams: 2,
                    busy_cycles: 1000,
                    final_clock: 1000,
                    max_queue_depth: 1,
                },
            ],
            jobs: 4,
            streams: 4,
            makespan_cycles: 1000,
            latency: latency_percentiles(&[10, 20, 30, 40]),
            queue: latency_percentiles(&[0, 0, 10, 20]),
            service: latency_percentiles(&[10, 20, 20, 20]),
            stream_totals: StreamReport::default(),
            freq_hz: 250_000_000,
        };
        // 4 jobs in 1000 cycles at 250 MHz = 1M ops/s.
        assert!((report.throughput_ops_per_sec() - 1_000_000.0).abs() < 1e-6);
        assert!((report.mean_utilization() - 0.75).abs() < 1e-12);
        let rendered = report.render();
        assert!(rendered.contains("chip  0"));
        assert!(rendered.contains("ops/s"));
    }
}
