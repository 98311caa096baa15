//! Windowed queries over the scrape store.
//!
//! [`Scraper`] answers "what was the commit rate over the last 10
//! seconds?" at two resolutions:
//!
//! * **fine** — the raw scrape points, the newest
//!   [`crate::scrape::DEFAULT_SCRAPE_CAP`] of them, and
//! * **coarse** — one rollup per metric, where every [`COARSE_FACTOR`]
//!   consecutive samples of the metric, counted from its first scrape,
//!   collapse into one `{last, min, max, sum, count}` bucket stamped at the
//!   bucket's last scrape time; the newest [`COARSE_CAP`] buckets are kept.
//!
//! Both are [`Ring`]s, so a reader can always tell truncated history from
//! empty history. The registry never forgets an instrument, so a metric is
//! in every scrape from its first: the evicted points that carried it are
//! the evictions past its first scrape number. [`Scraper::windows`] answers
//! every metric in one walk of the points, so exports over all metrics stay
//! linear in the rows scraped.
//!
//! Determinism: ingestion order is the registry's sorted scrape order,
//! capacities and bucket boundaries are counted in scrapes (not wall time),
//! and exports render integers only — same seed, same bytes.

use std::collections::BTreeMap;

use crate::export::JsonWriter;
use crate::ring::Ring;
use crate::scrape::Scraper;
use mr_sim::SimTime;

/// Samples of a metric per coarse bucket.
pub const COARSE_FACTOR: u64 = 10;
/// Coarse buckets retained per metric: at a 1s scrape interval, ~2.8 hours
/// of 10s buckets.
pub const COARSE_CAP: usize = 1024;

/// Which view of the history a query reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// Raw scrape points.
    Fine,
    /// Downsampled buckets of [`COARSE_FACTOR`] scrapes each.
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

/// One downsampled bucket covering `count` consecutive samples and stamped
/// at the last of their scrape times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Bucket {
    at: SimTime,
    /// Value of the newest sample in the bucket (the natural reading for
    /// cumulative counters).
    last: i64,
    min: i64,
    max: i64,
    sum: i64,
    count: u64,
}

/// One metric's coarse history.
pub(crate) struct Rollup {
    /// Scrape number (0-based, evicted scrapes included) of the first scrape
    /// that carried the metric.
    first: u64,
    /// The bucket being filled, over the samples since the last full one.
    pending: Option<Bucket>,
    coarse: Ring<Bucket>,
}

impl Rollup {
    pub(crate) fn new(first: u64) -> Rollup {
        Rollup {
            first,
            pending: None,
            coarse: Ring::new(COARSE_CAP),
        }
    }

    pub(crate) fn add(&mut self, at: SimTime, value: i64) {
        let mut b = self.pending.take().unwrap_or(Bucket {
            at,
            last: value,
            min: value,
            max: value,
            sum: 0,
            count: 0,
        });
        b.at = at;
        b.last = value;
        b.min = b.min.min(value);
        b.max = b.max.max(value);
        b.sum += value;
        b.count += 1;
        if b.count < COARSE_FACTOR {
            self.pending = Some(b);
        } else {
            self.coarse.push(b);
        }
    }

    fn window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &Bucket> {
        self.coarse
            .iter()
            .filter(move |b| b.at >= from && b.at <= to)
    }
}

impl Scraper {
    /// Metric names ever scraped, sorted.
    pub fn metrics(&self) -> Vec<String> {
        let inner = self.inner.borrow();
        inner.by_name.keys().map(|name| name.to_string()).collect()
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
        match res {
            Resolution::Fine => inner
                .points
                .iter()
                .filter(|p| p.at >= from && p.at <= to)
                .filter_map(|p| Some((p.at, p.value(metric)?)))
                .collect(),
            Resolution::Coarse => inner.rollup(metric).map_or_else(Vec::new, |r| {
                r.window(from, to).map(|b| (b.at, b.last)).collect()
            }),
        }
    }

    /// [`Scraper::window`] of every metric with a sample in `[from, to]`,
    /// by name, from one walk of the store.
    pub fn windows(
        &self,
        res: Resolution,
        from: SimTime,
        to: SimTime,
    ) -> BTreeMap<String, Vec<(SimTime, i64)>> {
        let inner = self.inner.borrow();
        let mut out: BTreeMap<String, Vec<(SimTime, i64)>> = BTreeMap::new();
        match res {
            Resolution::Fine => {
                let points = inner.points.iter().filter(|p| p.at >= from && p.at <= to);
                for p in points {
                    for (name, v) in p.values() {
                        if let Some(samples) = out.get_mut(name) {
                            samples.push((p.at, v));
                        } else {
                            out.insert(name.to_string(), vec![(p.at, v)]);
                        }
                    }
                }
            }
            Resolution::Coarse => {
                for (name, &r) in &inner.by_name {
                    let r = &inner.rollups[r];
                    let samples: Vec<_> = r.window(from, to).map(|b| (b.at, b.last)).collect();
                    if !samples.is_empty() {
                        out.insert(name.to_string(), samples);
                    }
                }
            }
        }
        out
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

    /// Deterministic JSON export of the retained history of `metrics`
    /// (fine samples + coarse buckets + dropped counters per metric).
    pub fn export_json(&self, metrics: &[&str]) -> String {
        let inner = self.inner.borrow();
        let mut w = JsonWriter::default();
        w.obj();
        for name in metrics {
            let rollup = inner.rollup(name);
            let fine_dropped = rollup.map_or(0, |r| inner.points.dropped().saturating_sub(r.first));
            w.key(name).obj_inline();
            w.field("fine_dropped", fine_dropped);
            w.field("coarse_dropped", rollup.map_or(0, |r| r.coarse.dropped()));
            w.key("fine").arr_inline();
            for p in inner.points.iter() {
                if let Some(v) = p.value(name) {
                    w.arr_inline().val(p.at.0).val(v).end();
                }
            }
            w.end().key("coarse").arr_inline();
            for b in rollup.into_iter().flat_map(|r| r.coarse.iter()) {
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
    use crate::registry::Registry;
    use mr_sim::SimDuration;

    fn secs(s: u64) -> SimTime {
        SimTime(SimDuration::from_secs(s).nanos())
    }

    /// Scrape the gauge `m` once per value, a second apart, into a scraper
    /// retaining `fine_cap` points.
    fn scraped(fine_cap: usize, values: impl IntoIterator<Item = i64>) -> Scraper {
        let (r, sc) = (Registry::new(), Scraper::with_capacity(fine_cap));
        let m = r.gauge("m", &[]);
        for (i, v) in values.into_iter().enumerate() {
            m.set(v);
            sc.scrape(secs(i as u64), &r);
        }
        sc
    }

    fn buckets(sc: &Scraper) -> Vec<Bucket> {
        sc.inner
            .borrow()
            .rollup("m")
            .unwrap()
            .coarse
            .iter()
            .copied()
            .collect()
    }

    #[test]
    fn fine_ring_evicts_with_dropped_counter() {
        let sc = scraped(3, 0..5);
        let w = sc.window("m", Resolution::Fine, SimTime::ZERO, secs(100));
        assert_eq!(w.iter().map(|(_, v)| *v).collect::<Vec<_>>(), vec![2, 3, 4]);
        let json = sc.export_json(&["m"]);
        assert!(json.contains("\"fine_dropped\": 2, \"coarse_dropped\": 0"));
    }

    #[test]
    fn coarse_buckets_aggregate_every_factor_scrapes() {
        let full = COARSE_CAP as i64 * COARSE_FACTOR as i64;
        let sc = scraped(100, 0..30);
        let b = buckets(&sc);
        assert_eq!(b.len(), 3);
        assert_eq!(
            (b[0].at, b[0].last, b[0].min, b[0].max, b[0].sum, b[0].count),
            (secs(9), 9, 0, 9, 45, 10)
        );
        // One bucket past the cap evicts the oldest.
        let sc = scraped(100, 0..full + COARSE_FACTOR as i64);
        let b = buckets(&sc);
        assert_eq!(b.len(), COARSE_CAP);
        assert_eq!(b[0].at, secs(19));
        assert!(sc.export_json(&["m"]).contains("\"coarse_dropped\": 1,"));
    }

    /// Every coarse bucket equals the aggregates of one complete run of
    /// [`COARSE_FACTOR`] raw samples, the newest [`COARSE_CAP`] kept,
    /// however much the fine ring evicted.
    #[test]
    fn coarse_buckets_match_a_reference_over_raw_samples() {
        let factor = COARSE_FACTOR as usize;
        let raw: Vec<i64> = (0..(COARSE_CAP + 3) as i64 * COARSE_FACTOR as i64 + 7)
            .map(|i| (i * 7919) % 23 - 11)
            .collect();
        let sc = scraped(3, raw.iter().copied());
        let full: Vec<Bucket> = raw
            .chunks_exact(factor)
            .enumerate()
            .map(|(c, vals)| Bucket {
                at: secs(((c + 1) * factor - 1) as u64),
                last: vals[factor - 1],
                min: *vals.iter().min().unwrap(),
                max: *vals.iter().max().unwrap(),
                sum: vals.iter().sum(),
                count: COARSE_FACTOR,
            })
            .collect();
        assert_eq!(buckets(&sc), &full[full.len() - COARSE_CAP..]);
        let json = sc.export_json(&["m"]);
        let dropped = format!(
            "\"fine_dropped\": {}, \"coarse_dropped\": 3,",
            raw.len() - 3
        );
        assert!(json.contains(&dropped), "{}", &json[..80]);
    }

    #[test]
    fn rate_over_window_both_resolutions() {
        // Counter rising 10/sec, scraped every second for 30s.
        let sc = scraped(100, (0..30).map(|i| i * 10));
        assert_eq!(
            sc.rate_milli("m", Resolution::Fine, secs(5), secs(25)),
            Some(10_000)
        );
        assert_eq!(
            sc.rate_milli("m", Resolution::Coarse, SimTime::ZERO, secs(30)),
            Some(10_000)
        );
        // Degenerate windows.
        assert_eq!(sc.rate_milli("m", Resolution::Fine, secs(7), secs(7)), None);
        assert_eq!(
            sc.rate_milli("absent", Resolution::Fine, secs(0), secs(9)),
            None
        );
    }

    #[test]
    fn export_is_deterministic() {
        let build = || {
            let (r, sc) = (Registry::new(), Scraper::with_capacity(4));
            let (a, b) = (r.gauge("a", &[]), r.gauge("b", &[]));
            for i in 0..10 {
                a.set(i);
                b.set(-i);
                sc.scrape(secs(i as u64), &r);
            }
            sc.export_json(&["a", "b", "missing"])
        };
        let x = build();
        assert_eq!(x, build());
        assert!(x.contains("\"fine_dropped\": 6"));
        assert!(x.contains("\"missing\": {\"fine_dropped\": 0"));
    }

    /// One walk answers every metric: the same windows as asking one
    /// metric at a time, at both resolutions, for metrics that start late.
    #[test]
    fn windows_match_per_metric_windows() {
        let (r, sc) = (Registry::new(), Scraper::with_capacity(25));
        let a = r.counter("a", &[]);
        for i in 0..60u64 {
            if i == 7 {
                r.gauge("b", &[]).set(5);
            }
            a.add(i);
            sc.scrape(secs(i), &r);
        }
        for res in [Resolution::Fine, Resolution::Coarse] {
            let (from, to) = (secs(30), secs(55));
            let all = sc.windows(res, from, to);
            assert_eq!(all.keys().cloned().collect::<Vec<_>>(), sc.metrics());
            for (name, samples) in &all {
                assert_eq!(samples, &sc.window(name, res, from, to), "{name}");
            }
        }
        // 35 of 60 points evicted; `b` was first carried by scrape 7.
        let json = sc.export_json(&["a", "b"]);
        assert!(json.contains("\"a\": {\"fine_dropped\": 35,"));
        assert!(json.contains("\"b\": {\"fine_dropped\": 28,"));
    }
}
