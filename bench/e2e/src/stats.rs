//! Order statistics over timing samples and the result digest.

/// Median of `xs` (mean of the two middle values for even counts).
/// `NaN` for an empty sample, so a missing measurement cannot pass for 0.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100), the rule the farm's exact
/// latency oracle uses.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Quartiles `(q1, q2, q3)` by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which is how the
/// benchmark driver measures run-to-run spread.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    if xs.len() < 2 {
        let v = xs.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let len = s.len() as i64;
    let at = |i: i64| {
        // CPython: j = i·(len+1) // 4 clamped to [1, len−1], then linear
        // between s[j−1] and s[j] (extrapolating when clamped).
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1) - j * 4) as f64;
        (s[j as usize - 1] * (4.0 - delta) + s[j as usize] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

/// `(max − min) ÷ median`: the `bench.segment_spread` of a set of
/// segment rates.
pub fn range_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    let (lo, hi) =
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / m
}

/// Share of the samples further than `tol` (relative) from the median.
/// One slow segment leaves a median alone; many mean the run sat in a
/// slow spell and the median itself is suspect.
pub fn outlier_share(xs: &[f64], tol: f64) -> f64 {
    let m = median(xs);
    xs.iter().filter(|&&x| (x - m).abs() > tol * m).count() as f64 / xs.len().max(1) as f64
}

/// 64-bit FNV-1a, streamable: fold byte slices in with [`Fnv::bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds coefficient words in as little-endian bytes.
    pub fn words(&mut self, words: &[u128]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]), (2.0, 8.0, 32.0));
    }

    #[test]
    fn segment_median_ignores_one_slow_segment_but_spread_reports_it() {
        // Eight segment rates, one taken during a slow spell.
        let rates = [100.0, 101.0, 99.0, 100.5, 60.0, 100.2, 99.8, 100.1];
        assert!((median(&rates) - 100.05).abs() < 1e-9);
        assert!(range_spread(&rates) > 0.4);
        assert_eq!(outlier_share(&rates, 0.05), 1.0 / 8.0);
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
        // Streaming in pieces equals hashing at once, and order matters.
        let mut split = Fnv::default();
        split.bytes(b"foo");
        split.bytes(b"bar");
        assert_eq!(split, h);
        let (mut ab, mut ba) = (Fnv::default(), Fnv::default());
        ab.words(&[1, 2]);
        ba.words(&[2, 1]);
        assert_ne!(ab, ba);
    }
}
