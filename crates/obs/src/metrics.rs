//! Metrics registry: named counters, gauges, and log₂-bucketed
//! histograms. Histograms are saturating and mergeable (like the
//! stack's `OpReport` telemetry), so million-job replays can keep
//! per-job latencies in O(1) memory instead of sorting full sample
//! vectors at report time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding the quantile error.
const SUB_BITS: u32 = 4;
/// Sub-buckets per power-of-two range.
const SUB: usize = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) << SUB_BITS;

/// Fixed-memory histogram over `u64` cycle counts, log₂-bucketed with
/// 16 linear sub-buckets per octave. Values below 16 are exact; above
/// that, a reported quantile is the lower bound of its bucket, which
/// under-reports the exact nearest-rank value by less than one
/// sub-bucket width (< 1/16 ≈ 6.25 % relative). `count`, `sum`, `min`
/// and `max` are tracked exactly; all totals saturate instead of
/// wrapping, and two histograms merge bucket-wise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for CycleHistogram {
    fn default() -> Self {
        CycleHistogram::new()
    }
}

fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

fn bucket_lower(i: usize) -> u64 {
    if i < SUB {
        i as u64
    } else {
        let major = (i >> SUB_BITS) as u32;
        let sub = (i & (SUB - 1)) as u64;
        (SUB as u64 + sub) << (major - 1)
    }
}

impl CycleHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        CycleHistogram { counts: vec![0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let b = &mut self.counts[bucket_index(v)];
        *b = b.saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one, bucket-wise and
    /// saturating.
    pub fn merge(&mut self, other: &CycleHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate, `p` in `[0, 100]`. Returns the
    /// lower bound of the bucket holding the ranked value, clamped into
    /// `[min, max]`; exact for values below 16, otherwise within one
    /// sub-bucket (< 6.25 %) below the exact answer. Returns 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_lower(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// Current value of one registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone saturating counter.
    Counter(u64),
    /// Last-write-wins signed gauge.
    Gauge(i64),
    /// Log₂-bucketed histogram.
    Histogram(CycleHistogram),
}

/// Named metrics, kept in sorted order so renders and merges are
/// deterministic. Counters add, gauges overwrite, histograms merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        match self.metrics.entry(name.to_string()).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(v) => *v = v.saturating_add(delta),
            other => *other = MetricValue::Counter(delta),
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&mut self, name: &str, value: i64) {
        self.metrics.insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Records one value into the named histogram, creating it empty.
    #[cfg(test)]
    fn histogram_record(&mut self, name: &str, value: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(CycleHistogram::new()))
        {
            MetricValue::Histogram(h) => h.record(value),
            other => {
                let mut h = CycleHistogram::new();
                h.record(value);
                *other = MetricValue::Histogram(h);
            }
        }
    }

    /// Merges a prebuilt histogram into the named histogram.
    pub fn histogram_merge(&mut self, name: &str, hist: &CycleHistogram) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| MetricValue::Histogram(CycleHistogram::new()))
        {
            MetricValue::Histogram(h) => h.merge(hist),
            other => *other = MetricValue::Histogram(hist.clone()),
        }
    }

    /// Value of the named counter (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Value of the named gauge, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&CycleHistogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Records a buffer-pool telemetry snapshot under `prefix` using
    /// the stack-wide naming convention: `<prefix>.hits` / `.misses` /
    /// `.recycled` as counters, `<prefix>.resident` / `.high_water` as
    /// gauges. The pool type itself lives below this crate in the
    /// dependency graph (`cofhee_poly::pool`), so the fields arrive as
    /// plain values.
    ///
    /// # Examples
    ///
    /// ```
    /// use cofhee_obs::MetricsRegistry;
    ///
    /// let mut m = MetricsRegistry::new();
    /// m.record_pool_counters("farm.pool", 10, 2, 9, 3, 5);
    /// assert_eq!(m.counter("farm.pool.hits"), 10);
    /// assert_eq!(m.gauge("farm.pool.high_water"), Some(5));
    /// ```
    pub fn record_pool_counters(
        &mut self,
        prefix: &str,
        hits: u64,
        misses: u64,
        recycled: u64,
        resident: u64,
        high_water: u64,
    ) {
        self.counter_add(&format!("{prefix}.hits"), hits);
        self.counter_add(&format!("{prefix}.misses"), misses);
        self.counter_add(&format!("{prefix}.recycled"), recycled);
        self.gauge_set(&format!("{prefix}.resident"), resident.min(i64::MAX as u64) as i64);
        self.gauge_set(&format!("{prefix}.high_water"), high_water.min(i64::MAX as u64) as i64);
    }

    /// Iterates all metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry into this one: counters add, gauges take
    /// the other's value, histograms merge.
    #[cfg(test)]
    fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.metrics {
            match value {
                MetricValue::Counter(v) => self.counter_add(name, *v),
                MetricValue::Gauge(v) => self.gauge_set(name, *v),
                MetricValue::Histogram(h) => self.histogram_merge(name, h),
            }
        }
    }

    /// Renders the registry as a machine-readable JSON snapshot
    /// (schema `cofhee-metrics-v1`), with keys in sorted order so the
    /// output is deterministic.
    pub fn render_json(&self) -> String {
        fn section<'a>(
            out: &mut String,
            label: &str,
            items: impl Iterator<Item = (&'a String, String)>,
            trailing_comma: bool,
        ) {
            let _ = write!(out, "  \"{label}\": {{");
            let mut first = true;
            for (name, rendered) in items {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(out, "\n    \"{}\": {}", escape_json(name), rendered);
            }
            if !first {
                out.push_str("\n  ");
            }
            out.push('}');
            if trailing_comma {
                out.push(',');
            }
            out.push('\n');
        }

        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"cofhee-metrics-v1\",\n");
        section(
            &mut out,
            "counters",
            self.metrics.iter().filter_map(|(k, v)| match v {
                MetricValue::Counter(c) => Some((k, c.to_string())),
                _ => None,
            }),
            true,
        );
        section(
            &mut out,
            "gauges",
            self.metrics.iter().filter_map(|(k, v)| match v {
                MetricValue::Gauge(g) => Some((k, g.to_string())),
                _ => None,
            }),
            true,
        );
        section(
            &mut out,
            "histograms",
            self.metrics.iter().filter_map(|(k, v)| match v {
                MetricValue::Histogram(h) => Some((
                    k,
                    format!(
                        "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {:.1}, \
                         \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p99_9\": {}}}",
                        h.count(),
                        h.min(),
                        h.max(),
                        h.mean(),
                        h.percentile(50.0),
                        h.percentile(95.0),
                        h.percentile(99.0),
                        h.percentile(99.9),
                    ),
                )),
                _ => None,
            }),
            false,
        );
        out.push('}');
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_lower_bound_contains_value() {
        let probes = [0u64, 1, 15, 16, 17, 31, 32, 33, 100, 1000, 4095, 4096, 1 << 40, u64::MAX];
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "bucket index {i} out of range for {v}");
            let lower = bucket_lower(i);
            assert!(lower <= v, "lower bound {lower} exceeds value {v}");
            if v >= SUB as u64 {
                // Bucket width is at most lower/16, so the lower bound
                // is within one sixteenth of the value.
                assert!(v - lower <= lower / SUB as u64 + 1, "bucket too wide at {v}");
            } else {
                assert_eq!(lower, v, "small values must be exact");
            }
        }
    }

    #[test]
    fn small_values_give_exact_percentiles() {
        let mut h = CycleHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.percentile(50.0), 7);
        assert_eq!(h.percentile(100.0), 15);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn percentiles_track_nearest_rank_within_one_sub_bucket() {
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * 37 + (i % 13) * 911).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut h = CycleHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        for p in [50.0, 90.0, 95.0, 99.0, 99.9] {
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank.clamp(1, sorted.len()) - 1];
            let approx = h.percentile(p);
            assert!(approx <= exact, "p{p}: approx {approx} above exact {exact}");
            assert!(
                exact - approx <= approx / 16 + 1,
                "p{p}: approx {approx} more than one sub-bucket below exact {exact}"
            );
        }
        assert_eq!(h.max(), *sorted.last().unwrap());
        assert_eq!(h.min(), sorted[0]);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let (mut a, mut b, mut all) =
            (CycleHistogram::new(), CycleHistogram::new(), CycleHistogram::new());
        for v in [3u64, 900, 42, 7, 1 << 30] {
            a.record(v);
            all.record(v);
        }
        for v in [5u64, 5, 123_456] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn singleton_is_exact_at_every_percentile() {
        let mut h = CycleHistogram::new();
        h.record(123_457);
        for p in [0.0, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 123_457, "clamping to [min, max] must make this exact");
        }
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.counter_add("farm.jobs", 3);
        m.counter_add("farm.jobs", 2);
        m.gauge_set("die0.depth", 4);
        m.gauge_set("die0.depth", 2);
        m.histogram_record("latency", 100);
        m.histogram_record("latency", 200);
        assert_eq!(m.counter("farm.jobs"), 5);
        assert_eq!(m.gauge("die0.depth"), Some(2));
        assert_eq!(m.histogram("latency").unwrap().count(), 2);
        assert_eq!(m.counter("absent"), 0);
        assert_eq!(m.gauge("absent"), None);

        let mut other = MetricsRegistry::new();
        other.counter_add("farm.jobs", 1);
        other.gauge_set("die0.depth", 9);
        other.histogram_record("latency", 300);
        m.merge(&other);
        assert_eq!(m.counter("farm.jobs"), 6);
        assert_eq!(m.gauge("die0.depth"), Some(9));
        assert_eq!(m.histogram("latency").unwrap().count(), 3);
        assert_eq!(m.histogram("latency").unwrap().max(), 300);
    }

    #[test]
    fn render_json_is_valid_and_deterministic() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b.second", 2);
        m.counter_add("a.first", 1);
        m.gauge_set("g", -3);
        m.histogram_record("h", 77);
        let json = m.render_json();
        assert_eq!(json, m.render_json());
        crate::check::validate_json(&json).expect("snapshot must be valid JSON");
        assert!(json.contains("\"schema\": \"cofhee-metrics-v1\""));
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "keys must render in sorted order");
        assert!(json.contains("\"g\": -3"));
        assert!(json.contains("\"p99_9\": 77"));
    }
}
