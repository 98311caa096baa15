//! Labeled metrics registry.
//!
//! Instruments are registered by `(name, labels)` and handed back as cheap
//! `Rc`-backed handles: incrementing a [`Counter`] is a single `Cell` store,
//! so instrumenting the simulator's hot event loop costs almost nothing.
//! Registering the same key twice returns a handle to the same underlying
//! instrument — that is how the txn coordinator and the cluster event loop
//! share one set of counters instead of keeping split bookkeeping.
//!
//! The registry stores instruments in `BTreeMap`s keyed by [`MetricKey`]
//! (name, then sorted labels), so snapshots and dumps iterate in one
//! deterministic order.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use crate::export::{csv_field, JsonWriter};
use crate::histogram::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;

/// Identity of an instrument: a dotted name (`layer.component.what`) plus
/// sorted `(key, value)` labels.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct MetricKey {
    pub name: &'static str,
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    pub fn new(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        labels.sort();
        MetricKey { name, labels }
    }
}

impl fmt::Display for MetricKey {
    /// Prometheus-flavoured rendering: `name{k="v",k2="v2"}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if !self.labels.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}=\"{v}\"")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// Monotone counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// Instantaneous gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }
    pub fn add(&self, delta: i64) {
        self.0.set(self.0.get() + delta);
    }
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// Histogram handle; values are nanoseconds by convention.
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    pub fn record(&self, value: u64) {
        self.0.borrow_mut().record(value);
    }
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.borrow().snapshot()
    }
    pub fn quantile(&self, q: f64) -> u64 {
        self.0.borrow().quantile(q)
    }
    pub fn count(&self) -> u64 {
        self.0.borrow().count()
    }
    pub fn merged_into(&self, target: &mut Histogram) {
        target.merge(&self.0.borrow());
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, HistogramHandle>,
}

impl Inner {
    /// Rows per scrape: one per counter or gauge, four per histogram.
    fn scrape_rows(&self) -> usize {
        self.counters.len() + self.gauges.len() + 4 * self.histograms.len()
    }
}

/// The registry. Cloning shares the underlying instrument store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<Inner>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter identified by `(name, labels)`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        self.inner
            .borrow_mut()
            .counters
            .entry(key)
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        self.inner
            .borrow_mut()
            .gauges
            .entry(key)
            .or_default()
            .clone()
    }

    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
    ) -> HistogramHandle {
        let key = MetricKey::new(name, labels);
        self.inner
            .borrow_mut()
            .histograms
            .entry(key)
            .or_default()
            .clone()
    }

    /// Total registered instruments (counters + gauges + histograms) across
    /// all label sets. The CI cardinality guard fails when this exceeds the
    /// budget, catching accidental per-key or per-txn label explosions.
    pub fn instrument_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.counters.len() + inner.gauges.len() + inner.histograms.len()
    }

    /// Sum of all counters sharing `name`, across label sets.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, c)| c.get())
            .sum()
    }

    /// Merge every histogram sharing `name` (across label sets) into one.
    pub fn histogram_merged(&self, name: &str) -> Histogram {
        self.histogram_merged_where(name, &[])
    }

    /// Merge every histogram sharing `name` whose labels contain every
    /// `(key, value)` pair in `labels` (subset match; extra labels such as
    /// `region` are aggregated over).
    pub fn histogram_merged_where(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut out = Histogram::new();
        for (k, h) in self.inner.borrow().histograms.iter() {
            if k.name == name
                && labels
                    .iter()
                    .all(|(lk, lv)| k.labels.iter().any(|(kk, kv)| kk == lk && kv == lv))
            {
                h.merged_into(&mut out);
            }
        }
        out
    }

    /// Whether `other` shares this registry's instrument store.
    pub fn same(&self, other: &Registry) -> bool {
        Rc::ptr_eq(&self.inner, &other.inner)
    }

    /// The rows one scrape reads, by name: every counter, then every gauge,
    /// then each histogram's `.count`, `.sum`, `.p50` and `.p99`, each kind
    /// in key order. Instruments are never dropped, so the names change only
    /// when [`Registry::instrument_count`] does.
    pub fn scrape_names(&self) -> Vec<Rc<str>> {
        let inner = self.inner.borrow();
        let mut names: Vec<Rc<str>> = Vec::with_capacity(inner.scrape_rows());
        let keys = inner.counters.keys().chain(inner.gauges.keys());
        names.extend(keys.map(|k| Rc::from(k.to_string())));
        for k in inner.histograms.keys() {
            for row in ["count", "sum", "p50", "p99"] {
                names.push(Rc::from(format!("{k}.{row}")));
            }
        }
        names
    }

    /// The values of [`Registry::scrape_names`]' rows, in its order, pushed
    /// onto `out`: no key is copied.
    pub fn scrape_values(&self, out: &mut Vec<i64>) {
        let inner = self.inner.borrow();
        out.reserve(inner.scrape_rows());
        out.extend(inner.counters.values().map(|c| c.get() as i64));
        out.extend(inner.gauges.values().map(Gauge::get));
        for h in inner.histograms.values() {
            let h = h.0.borrow();
            let (p50, p99) = (h.quantile(0.50), h.quantile(0.99));
            out.extend([h.count(), h.sum(), p50, p99].map(|v| v as i64));
        }
    }

    /// Point-in-time copy of every instrument, in deterministic order.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.borrow();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Full registry dump as deterministic JSON (integers only, sorted keys).
    pub fn dump_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Full registry dump as deterministic CSV.
    pub fn dump_csv(&self) -> String {
        self.snapshot().to_csv()
    }
}

/// A point-in-time copy of the registry, already sorted.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub counters: Vec<(MetricKey, u64)>,
    pub gauges: Vec<(MetricKey, i64)>,
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl Snapshot {
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.obj().key("counters").obj();
        for (k, v) in &self.counters {
            w.field(&k.to_string(), v);
        }
        w.end().key("gauges").obj();
        for (k, v) in &self.gauges {
            w.field(&k.to_string(), v);
        }
        w.end().key("histograms").obj();
        for (k, h) in &self.histograms {
            w.key(&k.to_string()).obj_inline();
            w.field("count", h.count).field("sum", h.sum);
            w.field("min", h.min).field("p50", h.p50);
            w.field("p90", h.p90).field("p99", h.p99);
            w.field("max", h.max).end();
        }
        w.end().end();
        w.finish()
    }

    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,metric,count,sum,min,p50,p90,p99,max,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!(
                "counter,{},,,,,,,,{v}\n",
                csv_field(&k.to_string())
            ));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{},,,,,,,,{v}\n", csv_field(&k.to_string())));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram,{},{},{},{},{},{},{},{},\n",
                csv_field(&k.to_string()),
                h.count,
                h.sum,
                h.min,
                h.p50,
                h.p90,
                h.p99,
                h.max
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_shares_instrument() {
        let r = Registry::new();
        let a = r.counter("kv.txn.commits", &[("region", "us-east1")]);
        let b = r.counter("kv.txn.commits", &[("region", "us-east1")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter_total("kv.txn.commits"), 3);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        let a = r.counter("m", &[("b", "2"), ("a", "1")]);
        let b = r.counter("m", &[("a", "1"), ("b", "2")]);
        a.inc();
        assert_eq!(b.get(), 1);
        let key = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        assert_eq!(key.to_string(), "m{a=\"1\",b=\"2\"}");
    }

    #[test]
    fn dumps_are_sorted_and_stable() {
        let build = || {
            let r = Registry::new();
            r.counter("z.last", &[]).add(9);
            r.counter("a.first", &[("region", "eu")]).add(1);
            r.gauge("g.depth", &[]).set(-4);
            let h = r.histogram("h.lat", &[("op", "get")]);
            h.record(100);
            h.record(200);
            r
        };
        let a = build().dump_json();
        let b = build().dump_json();
        assert_eq!(a, b);
        let first = a.find("a.first").unwrap();
        let last = a.find("z.last").unwrap();
        assert!(first < last);
        assert!(a.contains("\"count\": 2"));

        let csv = build().dump_csv();
        assert!(csv.starts_with("kind,metric,"));
        // The metric rendering contains quotes, so the CSV field is quoted
        // with doubled inner quotes.
        assert!(csv.contains("counter,\"a.first{region=\"\"eu\"\"}\",,,,,,,,1\n"));
    }

    #[test]
    fn histogram_merged_spans_labels() {
        let r = Registry::new();
        r.histogram("lat", &[("region", "a")]).record(10);
        r.histogram("lat", &[("region", "b")]).record(30);
        let merged = r.histogram_merged("lat");
        assert_eq!(merged.count(), 2);
        assert_eq!(merged.min(), 10);
        assert_eq!(merged.max(), 30);
    }

    #[test]
    fn histogram_merged_where_filters_by_label_subset() {
        let r = Registry::new();
        r.histogram("lat", &[("op", "get"), ("region", "a")])
            .record(10);
        r.histogram("lat", &[("op", "get"), ("region", "b")])
            .record(30);
        r.histogram("lat", &[("op", "put"), ("region", "a")])
            .record(500);
        let gets = r.histogram_merged_where("lat", &[("op", "get")]);
        assert_eq!(gets.count(), 2);
        assert_eq!(gets.max(), 30);
        assert_eq!(
            r.histogram_merged_where("lat", &[("op", "scan")]).count(),
            0
        );
    }
}
