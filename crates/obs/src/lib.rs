//! # mr-obs — deterministic observability
//!
//! Metrics and tracing for the simulated multi-region database. Everything
//! here is keyed on **sim-time** ([`mr_sim::SimTime`]), never wall-clock, and
//! every export iterates sorted maps and renders through one writer
//! ([`export::JsonWriter`]) — so two runs with the same seed produce
//! **byte-identical** dumps. That determinism is
//! load-bearing: tests diff whole exports, and paper figures regenerate
//! exactly.
//!
//! Three pieces:
//!
//! * [`Registry`] — labeled counters, gauges, and log-bucketed latency
//!   histograms (p50/p90/p99/max). Handles are `Rc`-backed cells, so the hot
//!   path is a single integer store; the registry itself is only walked at
//!   export/scrape time. Metric names follow `layer.component.what`
//!   (e.g. `kv.txn.commits`), labels are sorted `(key, value)` pairs.
//! * [`Tracer`] — parent/child spans in sim-time following a request from SQL
//!   through the txn coordinator, replica, raft quorum, and closed-timestamp
//!   pipeline. Exports Chrome-trace JSON (`chrome://tracing`, Perfetto) and
//!   human-readable trees; query helpers let tests assert causal properties
//!   (e.g. "this follower read never crossed a region boundary").
//! * [`Scraper`] — periodic snapshots of the registry over sim-time, giving
//!   benches time series (closed-ts lag, lease transfers, restarts) instead
//!   of end-of-run totals only. It is the one scrape store: the CSV export,
//!   the ledger and the windowed queries ([`tsdb`]: fine windows over the
//!   points, coarse windows over per-metric rollups) all read it.
//!
//! Every bounded log here — scrape points, coarse buckets, spans, and the
//! KV layer's event and attribution logs — is one [`Ring`]: a capped queue
//! that evicts its oldest item and counts the drop.
//!
//! [`Obs`] bundles them with shared ownership (`Rc` clones) so the
//! cluster, SQL layer, and bench harness observe the same instruments.

pub mod export;
pub mod histogram;
pub mod load;
pub mod monitor;
pub mod registry;
pub mod ring;
pub mod scrape;
pub mod trace;
pub mod tsdb;

pub use histogram::{Histogram, HistogramSnapshot};
pub use load::{DecayedCounter, LoadRecorder, RangeLoadSnapshot};
pub use monitor::{MonitorSet, Violation};
pub use registry::{Counter, Gauge, HistogramHandle, MetricKey, Registry, Snapshot};
pub use ring::Ring;
pub use scrape::{ScrapePoint, Scraper};
pub use trace::{SpanData, SpanId, Tracer};
pub use tsdb::Resolution;

use mr_sim::SimTime;

/// The observability bundle a cluster carries: one registry, one tracer, one
/// scrape store, one per-range load recorder, one set of online invariant
/// monitors. Cloning shares the underlying state.
#[derive(Clone, Default)]
pub struct Obs {
    pub registry: Registry,
    pub tracer: Tracer,
    pub scraper: Scraper,
    pub load: LoadRecorder,
    pub monitors: MonitorSet,
}

impl Obs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one scrape point at `now` from the current registry contents.
    pub fn scrape(&self, now: SimTime) {
        self.scraper.scrape(now, &self.registry);
    }
}
