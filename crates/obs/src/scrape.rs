//! Periodic registry scrapes: the one store of the cluster's time series.
//!
//! The cluster schedules a scrape event on a fixed sim-time interval; each
//! scrape copies every counter and gauge (and histogram `count`/`sum` plus
//! derived `p50`/`p99`, so latency plots need no offline bucket math) into
//! a bounded series. Benches export the series as CSV to plot closed-ts
//! lag, lease transfers, or restart rates over the run instead of only
//! end-of-run totals.
//!
//! Retention is a [`Ring`]: once `cap` points are held, each new scrape
//! evicts the oldest and bumps a `dropped` counter, so multi-hour runs don't
//! accrete memory forever and readers can tell truncated history from
//! empty history. The same scrape also feeds each metric's coarse rollup,
//! and the windowed queries ([`crate::tsdb`]) read both: fine windows the
//! points, coarse windows the rollups.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::export::csv_field;
use crate::registry::Registry;
use crate::ring::Ring;
use crate::tsdb::Rollup;
use mr_sim::SimTime;

/// One scrape: every instrument's value at `at`, in registry (sorted) order.
/// Histograms contribute `<name>.count`, `<name>.sum`, `<name>.p50`, and
/// `<name>.p99` rows.
#[derive(Clone, Debug)]
pub struct ScrapePoint {
    pub at: SimTime,
    pub values: Vec<(String, i64)>,
}

impl ScrapePoint {
    /// This scrape's value of `metric`, if it carried the metric.
    pub(crate) fn value(&self, metric: &str) -> Option<i64> {
        self.values
            .iter()
            .find(|(name, _)| name == metric)
            .map(|(_, v)| *v)
    }
}

/// Flatten the registry into one scrape's worth of `(metric, value)` rows,
/// in deterministic sorted order.
pub fn collect_values(registry: &Registry) -> Vec<(String, i64)> {
    let snap = registry.snapshot();
    let mut values = Vec::new();
    for (k, v) in &snap.counters {
        values.push((k.to_string(), *v as i64));
    }
    for (k, v) in &snap.gauges {
        values.push((k.to_string(), *v));
    }
    for (k, h) in &snap.histograms {
        values.push((format!("{k}.count"), h.count as i64));
        values.push((format!("{k}.sum"), h.sum as i64));
        values.push((format!("{k}.p50"), h.p50 as i64));
        values.push((format!("{k}.p99"), h.p99 as i64));
    }
    values
}

/// Default scrape-point retention: at a 1s scrape interval, over an hour of
/// history.
pub const DEFAULT_SCRAPE_CAP: usize = 4096;

pub(crate) struct ScraperInner {
    pub(crate) points: Ring<ScrapePoint>,
    /// Per metric, by name: its first scrape number and coarse buckets.
    pub(crate) rollups: BTreeMap<String, Rollup>,
}

/// Bounded scrape series. Cloning shares the underlying store.
#[derive(Clone)]
pub struct Scraper {
    pub(crate) inner: Rc<RefCell<ScraperInner>>,
}

impl Default for Scraper {
    fn default() -> Self {
        Scraper::with_capacity(DEFAULT_SCRAPE_CAP)
    }
}

impl Scraper {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scraper retaining at most `cap` points.
    pub fn with_capacity(cap: usize) -> Self {
        Scraper {
            inner: Rc::new(RefCell::new(ScraperInner {
                points: Ring::new(cap),
                rollups: BTreeMap::new(),
            })),
        }
    }

    /// Record one scrape point at `at` from the current registry contents
    /// (evicting the oldest point when at capacity). Only a metric's first
    /// scrape allocates its rollup.
    pub fn scrape(&self, at: SimTime, registry: &Registry) {
        let values = collect_values(registry);
        let inner = &mut *self.inner.borrow_mut();
        let scrape = inner.points.pushed();
        for (name, value) in &values {
            match inner.rollups.get_mut(name.as_str()) {
                Some(known) => known.add(at, *value),
                None => {
                    let mut new = Rollup::new(scrape);
                    new.add(at, *value);
                    inner.rollups.insert(name.clone(), new);
                }
            }
        }
        inner.points.push(ScrapePoint { at, values });
    }

    /// Retained points (excludes evicted ones).
    pub fn len(&self) -> usize {
        self.inner.borrow().points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points evicted by the retention cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().points.dropped()
    }

    pub fn points(&self) -> Vec<ScrapePoint> {
        self.inner.borrow().points.iter().cloned().collect()
    }

    /// The series of one metric: `(time, value)` per retained scrape that
    /// carried it.
    pub fn series(&self, metric: &str) -> Vec<(SimTime, i64)> {
        self.inner
            .borrow()
            .points
            .iter()
            .filter_map(|p| Some((p.at, p.value(metric)?)))
            .collect()
    }

    /// Long-format CSV: `time_ns,metric,value`, deterministic row order.
    pub fn export_csv(&self) -> String {
        let mut out = String::from("time_ns,metric,value\n");
        for p in self.inner.borrow().points.iter() {
            for (name, v) in &p.values {
                out.push_str(&format!("{},{},{v}\n", p.at.0, csv_field(name)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::SimDuration;

    #[test]
    fn scrape_series_and_csv() {
        let r = Registry::new();
        let c = r.counter("kv.lease.transfers", &[]);
        let sc = Scraper::new();

        sc.scrape(SimTime(0), &r);
        c.add(2);
        sc.scrape(SimTime(SimDuration::from_secs(1).nanos()), &r);
        c.inc();
        sc.scrape(SimTime(SimDuration::from_secs(2).nanos()), &r);

        assert_eq!(sc.len(), 3);
        let series = sc.series("kv.lease.transfers");
        assert_eq!(
            series.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![0, 2, 3]
        );
        let csv = sc.export_csv();
        assert!(csv.starts_with("time_ns,metric,value\n"));
        assert!(csv.contains("2000000000,kv.lease.transfers,3\n"));
    }

    #[test]
    fn histogram_rows_include_percentiles() {
        let r = Registry::new();
        let h = r.histogram("kv.op.latency", &[]);
        for v in [100, 200, 300, 10_000] {
            h.record(v);
        }
        let sc = Scraper::new();
        sc.scrape(SimTime(0), &r);
        let p = &sc.points()[0];
        let get = |name: &str| {
            p.values
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("kv.op.latency.count"), 4);
        assert_eq!(get("kv.op.latency.sum"), 10_600);
        let (p50, p99) = (get("kv.op.latency.p50"), get("kv.op.latency.p99"));
        // Log-bucketed: values land within one bucket (6.25%) of truth.
        assert!((180..=220).contains(&p50), "p50 {p50}");
        assert!((9_000..=11_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn retention_cap_evicts_oldest_and_counts_drops() {
        let r = Registry::new();
        let c = r.counter("c", &[]);
        let sc = Scraper::with_capacity(2);
        for i in 0..5u64 {
            c.add(1);
            sc.scrape(SimTime(i), &r);
        }
        assert_eq!(sc.len(), 2);
        assert_eq!(sc.dropped(), 3);
        let series = sc.series("c");
        assert_eq!(
            series.iter().map(|(_, v)| *v).collect::<Vec<_>>(),
            vec![4, 5]
        );
    }
}
