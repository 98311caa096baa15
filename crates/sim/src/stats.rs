//! Latency statistics used by the experiment harnesses.
//!
//! The paper reports interquartile boxes (Fig. 3), violin plots (Fig. 4),
//! CDFs with tail zoom (Fig. 5), and throughput/efficiency (Fig. 6). This
//! module provides the corresponding reductions: percentile summaries,
//! cumulative distributions, and simple counters.

use crate::time::SimDuration;

/// Records individual latency samples and produces summaries.
#[derive(Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<SimDuration>,
    sorted: bool,
}

impl LatencyRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Latency at quantile `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&mut self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q));
        self.ensure_sorted();
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).max(1) - 1;
        self.samples[rank.min(self.samples.len() - 1)]
    }

    pub fn max(&mut self) -> SimDuration {
        self.ensure_sorted();
        self.samples.last().copied().unwrap_or(SimDuration::ZERO)
    }

    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u128 = self.samples.iter().map(|d| d.nanos() as u128).sum();
        SimDuration((total / self.samples.len() as u128) as u64)
    }

    /// Five-number-ish summary matching the paper's box plots.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.samples.len(),
            mean: self.mean(),
            p25: self.quantile(0.25),
            p50: self.quantile(0.50),
            p75: self.quantile(0.75),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max(),
        }
    }

    /// Cumulative distribution evaluated at each recorded point.
    pub fn cdf(&mut self) -> Cdf {
        self.ensure_sorted();
        Cdf {
            sorted: self.samples.clone(),
        }
    }

    /// Merge another recorder's samples into this one.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// A percentile summary of a latency distribution.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub count: usize,
    pub mean: SimDuration,
    pub p25: SimDuration,
    pub p50: SimDuration,
    pub p75: SimDuration,
    pub p90: SimDuration,
    pub p99: SimDuration,
    pub p999: SimDuration,
    pub max: SimDuration,
}

impl Summary {
    /// One-line rendering used by the bench harnesses.
    pub fn row(&self) -> String {
        format!(
            "n={:<7} mean={:>9.2}ms p25={:>9.2}ms p50={:>9.2}ms p75={:>9.2}ms p90={:>9.2}ms p99={:>9.2}ms p99.9={:>9.2}ms max={:>9.2}ms",
            self.count,
            self.mean.as_millis_f64(),
            self.p25.as_millis_f64(),
            self.p50.as_millis_f64(),
            self.p75.as_millis_f64(),
            self.p90.as_millis_f64(),
            self.p99.as_millis_f64(),
            self.p999.as_millis_f64(),
            self.max.as_millis_f64(),
        )
    }
}

/// An empirical CDF over latency samples.
pub struct Cdf {
    sorted: Vec<SimDuration>,
}

impl Cdf {
    /// Fraction of samples `<= x`.
    pub fn fraction_at(&self, x: SimDuration) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&d| d <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF: latency at cumulative fraction `q`.
    pub fn value_at(&self, q: f64) -> SimDuration {
        if self.sorted.is_empty() {
            return SimDuration::ZERO;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[rank.min(self.sorted.len() - 1)]
    }

    /// Sample the CDF at the given quantiles, returning `(quantile, ms)`
    /// series rows suitable for printing or plotting.
    pub fn series(&self, quantiles: &[f64]) -> Vec<(f64, f64)> {
        quantiles
            .iter()
            .map(|&q| (q, self.value_at(q).as_millis_f64()))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(vals_ms: &[u64]) -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        for &v in vals_ms {
            r.record(SimDuration::from_millis(v));
        }
        r
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut r = rec(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(r.quantile(0.5), SimDuration::from_millis(50));
        assert_eq!(r.quantile(0.9), SimDuration::from_millis(90));
        assert_eq!(r.quantile(1.0), SimDuration::from_millis(100));
        assert_eq!(r.quantile(0.0), SimDuration::from_millis(10));
        assert_eq!(r.max(), SimDuration::from_millis(100));
    }

    #[test]
    fn empty_recorder_is_zero() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.quantile(0.5), SimDuration::ZERO);
        assert_eq!(r.mean(), SimDuration::ZERO);
        assert!(r.is_empty());
    }

    #[test]
    fn mean_is_exact() {
        let r = rec(&[10, 20, 30]);
        assert_eq!(r.mean(), SimDuration::from_millis(20));
    }

    #[test]
    fn cdf_fraction_and_inverse_agree() {
        let mut r = rec(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let cdf = r.cdf();
        assert!((cdf.fraction_at(SimDuration::from_millis(5)) - 0.5).abs() < 1e-9);
        assert_eq!(cdf.value_at(0.5), SimDuration::from_millis(5));
        assert!((cdf.fraction_at(SimDuration::from_millis(100)) - 1.0).abs() < 1e-9);
        assert_eq!(cdf.fraction_at(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = rec(&[1, 2]);
        let b = rec(&[3, 4]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.max(), SimDuration::from_millis(4));
    }

    #[test]
    fn summary_row_renders() {
        let mut r = rec(&[10, 20, 30]);
        let s = r.summary();
        assert_eq!(s.count, 3);
        assert!(s.row().contains("p50="));
    }
}
