//! Windowed in-memory time-series store.
//!
//! The scraper gives benches a full-resolution dump of every scrape, but it
//! is append-only: long runs accrete memory without bound and every "what
//! was the commit rate over the last 10 seconds?" question needs offline
//! math. The [`TsDb`] keeps a **bounded** two-resolution history per metric:
//!
//! * a **fine** ring of the most recent raw scrape points, and
//! * a **coarse** ring of downsampled aggregates, where every
//!   `coarse_factor` consecutive fine points collapse into one
//!   `{last, min, max, sum, count}` bucket stamped at the bucket's last
//!   scrape time.
//!
//! Eviction from either ring bumps a per-ring `dropped` counter, so a
//! reader can always tell truncated history from empty history. Queries —
//! [`TsDb::window`], [`TsDb::rate_milli`], [`TsDb::percentile`] — answer
//! over arbitrary `[from, to]` sim-time windows at either resolution.
//!
//! Determinism: ingestion order is the registry's sorted scrape order,
//! capacities and bucket boundaries are counted in points (not wall time),
//! and exports render integers only — same seed, same bytes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::export::JsonWriter;
use mr_sim::SimTime;

/// Which ring a query reads from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Raw scrape points, newest `fine_cap` retained.
    Fine,
    /// Downsampled buckets of `coarse_factor` scrapes each.
    Coarse,
}

impl Resolution {
    pub fn as_str(self) -> &'static str {
        match self {
            Resolution::Fine => "fine",
            Resolution::Coarse => "coarse",
        }
    }
}

/// One raw sample: a metric's value at one scrape instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    pub at: SimTime,
    pub value: i64,
}

/// One downsampled bucket covering `count` consecutive fine samples and
/// stamped at the last of their scrape times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bucket {
    pub at: SimTime,
    /// Value of the newest sample in the bucket (the natural reading for
    /// cumulative counters).
    pub last: i64,
    pub min: i64,
    pub max: i64,
    pub sum: i64,
    pub count: u64,
}

/// Retention/downsampling knobs.
#[derive(Clone, Copy, Debug)]
pub struct TsDbConfig {
    /// Raw scrape points retained per metric.
    pub fine_cap: usize,
    /// Fine points per coarse bucket.
    pub coarse_factor: usize,
    /// Coarse buckets retained per metric.
    pub coarse_cap: usize,
}

impl Default for TsDbConfig {
    fn default() -> Self {
        // At a 1s scrape interval: ~17 minutes of raw history plus ~2.8
        // hours of 10s buckets, a few KB per metric.
        TsDbConfig {
            fine_cap: 1024,
            coarse_factor: 10,
            coarse_cap: 1024,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct Series {
    fine: VecDeque<Sample>,
    fine_dropped: u64,
    /// The coarse bucket being filled, over the fine samples since the last
    /// full one. It runs regardless of fine-ring eviction, so coarse buckets
    /// never skip data.
    pending: Option<Bucket>,
    coarse: VecDeque<Bucket>,
    coarse_dropped: u64,
}

impl Series {
    fn ingest(&mut self, s: Sample, cfg: &TsDbConfig) {
        if self.fine.len() == cfg.fine_cap {
            self.fine.pop_front();
            self.fine_dropped += 1;
        }
        self.fine.push_back(s);
        let mut b = self.pending.take().unwrap_or(Bucket {
            at: s.at,
            last: s.value,
            min: s.value,
            max: s.value,
            sum: 0,
            count: 0,
        });
        b.at = s.at;
        b.last = s.value;
        b.min = b.min.min(s.value);
        b.max = b.max.max(s.value);
        b.sum += s.value;
        b.count += 1;
        if b.count < cfg.coarse_factor as u64 {
            self.pending = Some(b);
            return;
        }
        if self.coarse.len() == cfg.coarse_cap {
            self.coarse.pop_front();
            self.coarse_dropped += 1;
        }
        self.coarse.push_back(b);
    }
}

#[derive(Default)]
struct TsDbInner {
    cfg: TsDbConfig,
    series: BTreeMap<String, Series>,
    scrapes: u64,
}

/// The store. Cloning shares the underlying series map.
#[derive(Clone, Default)]
pub struct TsDb {
    inner: Rc<RefCell<TsDbInner>>,
}

impl TsDb {
    pub fn new(cfg: TsDbConfig) -> TsDb {
        assert!(cfg.fine_cap > 0 && cfg.coarse_factor > 0 && cfg.coarse_cap > 0);
        TsDb {
            inner: Rc::new(RefCell::new(TsDbInner {
                cfg,
                series: BTreeMap::new(),
                scrapes: 0,
            })),
        }
    }

    pub fn config(&self) -> TsDbConfig {
        self.inner.borrow().cfg
    }

    /// Ingest one scrape's values (already in deterministic sorted order).
    /// Only a metric's first scrape allocates its name.
    pub fn ingest(&self, at: SimTime, values: &[(String, i64)]) {
        let inner = &mut *self.inner.borrow_mut();
        inner.scrapes += 1;
        for (name, value) in values {
            let s = Sample { at, value: *value };
            match inner.series.get_mut(name.as_str()) {
                Some(known) => known.ingest(s, &inner.cfg),
                None => {
                    let mut new = Series::default();
                    new.ingest(s, &inner.cfg);
                    inner.series.insert(name.clone(), new);
                }
            }
        }
    }

    /// Number of scrapes ingested.
    pub fn scrapes(&self) -> u64 {
        self.inner.borrow().scrapes
    }

    /// Metric names with any retained history, sorted.
    pub fn metrics(&self) -> Vec<String> {
        self.inner.borrow().series.keys().cloned().collect()
    }

    /// Samples evicted from a metric's fine ring so far.
    pub fn dropped(&self, metric: &str, res: Resolution) -> u64 {
        let inner = self.inner.borrow();
        inner
            .series
            .get(metric)
            .map(|s| match res {
                Resolution::Fine => s.fine_dropped,
                Resolution::Coarse => s.coarse_dropped,
            })
            .unwrap_or(0)
    }

    /// Retained samples of `metric` with `from <= at <= to`, as
    /// `(at, value)`: raw values at fine resolution, bucket `last` values at
    /// coarse resolution.
    pub fn window(
        &self,
        metric: &str,
        res: Resolution,
        from: SimTime,
        to: SimTime,
    ) -> Vec<(SimTime, i64)> {
        let inner = self.inner.borrow();
        let Some(s) = inner.series.get(metric) else {
            return Vec::new();
        };
        match res {
            Resolution::Fine => s
                .fine
                .iter()
                .filter(|p| p.at >= from && p.at <= to)
                .map(|p| (p.at, p.value))
                .collect(),
            Resolution::Coarse => s
                .coarse
                .iter()
                .filter(|b| b.at >= from && b.at <= to)
                .map(|b| (b.at, b.last))
                .collect(),
        }
    }

    /// Coarse buckets of `metric` within the window, with full aggregates.
    pub fn window_buckets(&self, metric: &str, from: SimTime, to: SimTime) -> Vec<Bucket> {
        let inner = self.inner.borrow();
        inner
            .series
            .get(metric)
            .map(|s| {
                s.coarse
                    .iter()
                    .filter(|b| b.at >= from && b.at <= to)
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Average rate of change of a cumulative counter over the window, in
    /// milli-units/second: `1000 * (last - first) / Δt`. `None` when fewer
    /// than two in-window samples exist (or the window has zero width).
    pub fn rate_milli(
        &self,
        metric: &str,
        res: Resolution,
        from: SimTime,
        to: SimTime,
    ) -> Option<i64> {
        let pts = self.window(metric, res, from, to);
        let (first, last) = (pts.first()?, pts.last()?);
        let dt = last.0.nanos().checked_sub(first.0.nanos())?;
        if dt == 0 {
            return None;
        }
        // milli-units/sec = delta * 1e3 / (dt / 1e9) = delta * 1e12 / dt.
        let delta = (last.1 - first.1) as i128;
        Some((delta * 1_000_000_000_000_i128 / dt as i128) as i64)
    }

    /// Nearest-rank percentile (`q` in [0, 1]) of a gauge-like metric's
    /// in-window sample values. `None` when the window is empty.
    pub fn percentile(
        &self,
        metric: &str,
        res: Resolution,
        from: SimTime,
        to: SimTime,
        q: f64,
    ) -> Option<i64> {
        let mut vals: Vec<i64> = self
            .window(metric, res, from, to)
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * vals.len() as f64).ceil() as usize).max(1) - 1;
        Some(vals[rank.min(vals.len() - 1)])
    }

    /// Deterministic JSON export of the retained history of `metrics`
    /// (fine samples + coarse buckets + dropped counters per metric).
    pub fn export_json(&self, metrics: &[&str]) -> String {
        let inner = self.inner.borrow();
        let empty = Series::default();
        let mut w = JsonWriter::default();
        w.obj();
        for name in metrics {
            let s = inner.series.get(*name).unwrap_or(&empty);
            w.key(name).obj_inline();
            w.field("fine_dropped", s.fine_dropped);
            w.field("coarse_dropped", s.coarse_dropped);
            w.key("fine").arr_inline();
            for p in &s.fine {
                w.arr_inline().val(p.at.0).val(p.value).end();
            }
            w.end().key("coarse").arr_inline();
            for b in &s.coarse {
                w.arr_inline().val(b.at.0).val(b.last).val(b.min);
                w.vals([b.max, b.sum]).val(b.count).end();
            }
            w.end().end();
        }
        w.end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime(SimDuration::from_secs(s).nanos())
    }

    fn db(fine_cap: usize, coarse_factor: usize, coarse_cap: usize) -> TsDb {
        TsDb::new(TsDbConfig {
            fine_cap,
            coarse_factor,
            coarse_cap,
        })
    }

    #[test]
    fn fine_ring_evicts_with_dropped_counter() {
        let db = db(3, 10, 10);
        for i in 0..5 {
            db.ingest(secs(i), &[("m".to_string(), i as i64)]);
        }
        let w = db.window("m", Resolution::Fine, SimTime::ZERO, secs(100));
        assert_eq!(w.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(db.dropped("m", Resolution::Fine), 2);
        assert_eq!(db.dropped("m", Resolution::Coarse), 0);
    }

    #[test]
    fn coarse_buckets_aggregate_every_factor_scrapes() {
        let db = db(100, 3, 3);
        for i in 0..9 {
            db.ingest(secs(i), &[("m".to_string(), i as i64)]);
        }
        let buckets = db.window_buckets("m", SimTime::ZERO, secs(100));
        assert_eq!(buckets.len(), 3);
        let b0 = buckets[0];
        assert_eq!(
            (b0.at, b0.last, b0.min, b0.max, b0.sum, b0.count),
            (secs(2), 2, 0, 2, 3, 3)
        );
        // One more full bucket evicts the oldest.
        for i in 9..12 {
            db.ingest(secs(i), &[("m".to_string(), i as i64)]);
        }
        let buckets = db.window_buckets("m", SimTime::ZERO, secs(100));
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[0].at, secs(5));
        assert_eq!(db.dropped("m", Resolution::Coarse), 1);
    }

    /// Every coarse bucket equals the aggregates of one complete run of
    /// `coarse_factor` raw samples, the newest `coarse_cap` kept, however
    /// much the fine ring evicted.
    #[test]
    fn coarse_buckets_match_a_reference_over_raw_samples() {
        let raw: Vec<i64> = (0..40i64).map(|i| (i * 7919) % 23 - 11).collect();
        for factor in 1..=5 {
            let db = db(3, factor, 4);
            for (i, v) in raw.iter().enumerate() {
                db.ingest(secs(i as u64), &[("m".to_string(), *v)]);
            }
            let full: Vec<Bucket> = raw
                .chunks_exact(factor)
                .enumerate()
                .map(|(c, vals)| Bucket {
                    at: secs(((c + 1) * factor - 1) as u64),
                    last: vals[factor - 1],
                    min: *vals.iter().min().unwrap(),
                    max: *vals.iter().max().unwrap(),
                    sum: vals.iter().sum(),
                    count: factor as u64,
                })
                .collect();
            let kept = &full[full.len() - 4..];
            let got = db.window_buckets("m", SimTime::ZERO, secs(100));
            assert_eq!(got, kept, "coarse_factor {factor}");
            assert_eq!(
                db.dropped("m", Resolution::Coarse),
                (full.len() - kept.len()) as u64
            );
            assert_eq!(db.dropped("m", Resolution::Fine), raw.len() as u64 - 3);
        }
    }

    #[test]
    fn rate_over_window_both_resolutions() {
        let db = db(100, 5, 10);
        // Counter rising 10/sec, scraped every second for 30s.
        for i in 0..30 {
            db.ingest(secs(i), &[("c".to_string(), (i * 10) as i64)]);
        }
        assert_eq!(
            db.rate_milli("c", Resolution::Fine, secs(5), secs(25)),
            Some(10_000)
        );
        assert_eq!(
            db.rate_milli("c", Resolution::Coarse, SimTime::ZERO, secs(30)),
            Some(10_000)
        );
        // Degenerate windows.
        assert_eq!(db.rate_milli("c", Resolution::Fine, secs(7), secs(7)), None);
        assert_eq!(
            db.rate_milli("absent", Resolution::Fine, secs(0), secs(9)),
            None
        );
    }

    #[test]
    fn percentile_nearest_rank() {
        let db = db(100, 10, 10);
        for (i, v) in [5i64, 1, 9, 3, 7].into_iter().enumerate() {
            db.ingest(secs(i as u64), &[("g".to_string(), v)]);
        }
        let all = |q| db.percentile("g", Resolution::Fine, SimTime::ZERO, secs(100), q);
        assert_eq!(all(0.0), Some(1));
        assert_eq!(all(0.5), Some(5));
        assert_eq!(all(1.0), Some(9));
        assert_eq!(
            db.percentile("g", Resolution::Fine, secs(50), secs(60), 0.5),
            None
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let db = db(4, 2, 4);
            for i in 0..10 {
                db.ingest(
                    secs(i),
                    &[("a".to_string(), i as i64), ("b".to_string(), -(i as i64))],
                );
            }
            db.export_json(&["a", "b", "missing"])
        };
        let x = build();
        assert_eq!(x, build());
        assert!(x.contains("\"fine_dropped\": 6"));
        assert!(x.contains("\"missing\": {\"fine_dropped\": 0"));
    }
}
