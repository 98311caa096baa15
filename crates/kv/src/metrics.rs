//! Pre-bound [`mr_obs`] instrument handles for the KV layer.
//!
//! The cluster event loop and the transaction coordinator used to keep two
//! separate sets of ad-hoc `u64` counters; both now increment the same
//! registry instruments through the handles below. Handles are bound once at
//! cluster construction so the hot paths (one `Cell` store per increment)
//! never touch the registry's maps.
//!
//! Naming scheme: `kv.<component>.<what>`, labels sorted. See DESIGN.md
//! ("Observability") for the full metric table.

use std::cell::OnceCell;

use mr_obs::{Counter, Gauge, HistogramHandle, Registry};
use mr_sim::{RegionId, Topology};

use crate::attribution::{AttrBreakdown, COMPONENTS};

/// Request kinds, used as the `kind` label on `kv.rpc.sent_by_kind` and as
/// RPC span names (`rpc.<kind>`).
pub(crate) const REQ_KINDS: [&str; 12] = [
    "get",
    "scan",
    "put",
    "end_txn",
    "commit_inline",
    "stage_txn",
    "query_intent",
    "recover_txn",
    "resolve_intent",
    "refresh",
    "push_txn",
    "negotiate",
];

/// Map a request to its `REQ_KINDS` index.
pub(crate) fn req_kind_index(req: &mr_proto::Request) -> usize {
    use mr_proto::Request::*;
    match req {
        Get { .. } => 0,
        Scan { .. } => 1,
        Put { .. } => 2,
        EndTxn { .. } => 3,
        CommitInline { .. } => 4,
        StageTxn { .. } => 5,
        QueryIntent { .. } => 6,
        RecoverTxn { .. } => 7,
        ResolveIntent { .. } => 8,
        Refresh { .. } => 9,
        PushTxn { .. } => 10,
        Negotiate { .. } => 11,
    }
}

/// Span name for an RPC carrying `req` (`"rpc.get"`, `"rpc.put"`, …).
pub(crate) fn rpc_span_name(req: &mr_proto::Request) -> &'static str {
    const NAMES: [&str; 12] = [
        "rpc.get",
        "rpc.scan",
        "rpc.put",
        "rpc.end_txn",
        "rpc.commit_inline",
        "rpc.stage_txn",
        "rpc.query_intent",
        "rpc.recover_txn",
        "rpc.resolve_intent",
        "rpc.refresh",
        "rpc.push_txn",
        "rpc.negotiate",
    ];
    NAMES[req_kind_index(req)]
}

/// A client operation class: its trace-span name and the `op` label of
/// `kv.op.latency`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Op {
    Get,
    Scan,
    Put,
    Commit,
    Rollback,
    ReadStale,
    ScanStale,
    ReadBounded,
    ScanBounded,
}

impl Op {
    const COUNT: usize = Op::ScanBounded as usize + 1;

    pub fn label(self) -> &'static str {
        match self {
            Op::Get => "kv.get",
            Op::Scan => "kv.scan",
            Op::Put => "kv.put",
            Op::Commit => "kv.commit",
            Op::Rollback => "kv.rollback",
            Op::ReadStale => "kv.read.stale",
            Op::ScanStale => "kv.scan.stale",
            Op::ReadBounded => "kv.read.bounded",
            Op::ScanBounded => "kv.scan.bounded",
        }
    }
}

/// The `policy` label of `kv.op.latency`: the closed-timestamp policy of the
/// range an operation addresses, or why it has none.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpPolicy {
    Lead,
    Lag,
    /// No range covers the key, or the operation addresses no key.
    None,
    /// A commit that wrote nothing.
    ReadOnly,
}

impl OpPolicy {
    const COUNT: usize = OpPolicy::ReadOnly as usize + 1;

    pub fn label(self) -> &'static str {
        match self {
            OpPolicy::Lead => "lead",
            OpPolicy::Lag => "lag",
            OpPolicy::None => "none",
            OpPolicy::ReadOnly => "ro",
        }
    }
}

/// The `comp` labels of `kv.txn.attr.latency`: every named component, then
/// what they leave unexplained, then the whole.
const TXN_ATTR_COMPS: usize = COMPONENTS.len() + 2;

/// What one observability scrape measures: sums over every replica plus a
/// few cluster-level sizes. Each field feeds the [`SCRAPE_GAUGES`] row that
/// reads it.
#[derive(Default)]
pub(crate) struct ScrapeStats {
    pub wal_bytes: i64,
    pub wal_records: i64,
    pub sst_count: i64,
    pub sst_versions: i64,
    pub memtable_versions: i64,
    pub run_probes: i64,
    pub run_skips: i64,
    pub gc_reclaimed: i64,
    pub flushes: i64,
    pub compactions: i64,
    pub wal_recoveries: i64,
    pub protected_timestamps: i64,
    /// Leaders currently quiesced.
    pub quiesced_ranges: i64,
    /// Worst closed-timestamp lag over lag-policy / lead-policy replicas
    /// (`None` when there is no such replica; exported as 0).
    pub closedts_worst_lag: Option<i64>,
    pub closedts_worst_lead: Option<i64>,
    pub lock_waiters: i64,
    pub locked_keys: i64,
    pub ops_outstanding: i64,
    pub load_tracked_ranges: i64,
    pub slow_txn_records: i64,
    pub trace_retained_spans: i64,
    pub trace_dropped_spans: i64,
}

type ScrapeGaugeRow = (
    &'static str,
    &'static [(&'static str, &'static str)],
    fn(&ScrapeStats) -> i64,
);

/// The gauges every scrape refreshes: name, labels, and the statistic each
/// one exports. Adding a scrape gauge is one field above and one row here.
const SCRAPE_GAUGES: [ScrapeGaugeRow; 22] = [
    ("storage.wal_bytes", &[], |s| s.wal_bytes),
    ("storage.wal_records", &[], |s| s.wal_records),
    ("storage.sst_count", &[], |s| s.sst_count),
    ("storage.sst_versions", &[], |s| s.sst_versions),
    ("storage.memtable_versions", &[], |s| s.memtable_versions),
    // Named from when runs carried bloom filters; the ledger reads them so.
    ("storage.bloom_probes", &[], |s| s.run_probes),
    ("storage.bloom_skips", &[], |s| s.run_skips),
    ("storage.gc_reclaimed", &[], |s| s.gc_reclaimed),
    ("storage.flushes", &[], |s| s.flushes),
    ("storage.compactions", &[], |s| s.compactions),
    ("storage.wal_recoveries", &[], |s| s.wal_recoveries),
    ("storage.protected_timestamps", &[], |s| {
        s.protected_timestamps
    }),
    ("raft.quiesced_ranges", &[], |s| s.quiesced_ranges),
    ("kv.closedts.lag_nanos", &[("policy", "lag")], |s| {
        s.closedts_worst_lag.unwrap_or(0)
    }),
    ("kv.closedts.lag_nanos", &[("policy", "lead")], |s| {
        s.closedts_worst_lead.unwrap_or(0)
    }),
    ("kv.locks.waiters", &[], |s| s.lock_waiters),
    ("kv.locks.held_keys", &[], |s| s.locked_keys),
    ("kv.ops.outstanding", &[], |s| s.ops_outstanding),
    ("kv.load.tracked_ranges", &[], |s| s.load_tracked_ranges),
    ("kv.attr.slow_txn_records", &[], |s| s.slow_txn_records),
    ("obs.trace.retained_spans", &[], |s| s.trace_retained_spans),
    ("obs.trace.dropped_spans", &[], |s| s.trace_dropped_spans),
];

/// Every KV instrument, bound once per cluster. Tests and harnesses read
/// the counters through [`crate::Cluster::metrics`] (`.rpcs_sent.get()`).
pub struct KvMetrics {
    pub rpcs_sent: Counter,
    pub rpcs_by_kind: [Counter; 12],
    pub follower_reads_served: Counter,
    pub follower_read_redirects: Counter,
    pub uncertainty_restarts: Counter,
    pub refreshes: Counter,
    pub refresh_failures: Counter,
    pub commit_waits: Counter,
    pub commit_wait_nanos: Counter,
    pub txn_commits: Counter,
    pub txn_aborts: Counter,
    pub txn_restarts: Counter,
    pub lease_transfers: Counter,
    pub events_processed: Counter,
    pub parked_requests: Counter,
    pub ev_rpc: Counter,
    pub ev_raft: Counter,
    pub ev_tick: Counter,
    pub ev_side: Counter,
    pub ev_wake: Counter,
    pub gc_versions_removed: Counter,
    /// Intent writes sent asynchronously at statement time (pipelining).
    pub pipelined_writes: Counter,
    /// Commits acknowledged off a STAGING record + in-flight writes (one
    /// consensus round instead of two).
    pub parallel_commit_acks: Counter,
    /// Parallel commits that had to fall back to an explicit commit because
    /// a pipelined write landed above the staged timestamp.
    pub parallel_commit_restages: Counter,
    /// Status-recovery procedures run against abandoned STAGING records.
    pub staging_recoveries: Counter,
    /// Recoveries that finalized the record as committed.
    pub staging_recovery_commits: Counter,
    /// Recoveries that aborted the record.
    pub staging_recovery_aborts: Counter,
    /// Commit-wait durations in nanoseconds (§6.2).
    pub commit_wait_latency: HistogramHandle,
    /// Commands that rode a coalesced multi-command Raft entry (group
    /// commit) instead of paying their own consensus round.
    pub proposals_batched: Counter,
    /// Multi-command Raft entries proposed (denominator for occupancy).
    pub entries_proposed: Counter,
    /// Leader heartbeat broadcasts actually sent; quiescence suppresses
    /// these, so the rate collapses once a range goes cold.
    pub heartbeats_sent: Counter,
    /// Leaseholder reads served off local state without touching Raft —
    /// proposals the read fast path avoided.
    pub read_fast_path: Counter,
    /// Commands per proposed Raft entry (mean > 1 means batching works).
    pub batch_occupancy: HistogramHandle,
    /// One handle per [`SCRAPE_GAUGES`] row, with the row's reader.
    scrape_gauges: Vec<(Gauge, fn(&ScrapeStats) -> i64)>,
    /// `kv.op.latency{op, policy, region}`, indexed `[op][policy][region]`,
    /// and `kv.txn.attr.latency{comp}`. Unlike the instruments above these
    /// are bound the first time they record — a series exists in the
    /// registry only once its class of operation has happened — and never
    /// looked up again.
    op_latency: Vec<OnceCell<HistogramHandle>>,
    txn_attr_latency: [OnceCell<HistogramHandle>; TXN_ATTR_COMPS],
    registry: Registry,
    regions: Vec<String>,
}

impl KvMetrics {
    pub(crate) fn bind(r: &Registry, topo: &Topology) -> KvMetrics {
        let ev = |kind: &str| r.counter("kv.events.by_kind", &[("kind", kind)]);
        let regions: Vec<String> = (0..topo.num_regions() as u32)
            .map(|i| topo.region_name(RegionId(i)).to_string())
            .collect();
        KvMetrics {
            rpcs_sent: r.counter("kv.rpc.sent", &[]),
            rpcs_by_kind: REQ_KINDS.map(|kind| r.counter("kv.rpc.sent_by_kind", &[("kind", kind)])),
            follower_reads_served: r.counter("kv.read.follower.served", &[]),
            follower_read_redirects: r.counter("kv.read.follower.redirects", &[]),
            uncertainty_restarts: r.counter("kv.txn.uncertainty_restarts", &[]),
            refreshes: r.counter("kv.txn.refreshes", &[]),
            refresh_failures: r.counter("kv.txn.refresh_failures", &[]),
            commit_waits: r.counter("kv.txn.commit_waits", &[]),
            commit_wait_nanos: r.counter("kv.txn.commit_wait_nanos", &[]),
            txn_commits: r.counter("kv.txn.commits", &[]),
            txn_aborts: r.counter("kv.txn.aborts", &[]),
            txn_restarts: r.counter("kv.txn.restarts", &[]),
            lease_transfers: r.counter("kv.lease.transfers", &[]),
            events_processed: r.counter("kv.events.processed", &[]),
            parked_requests: r.counter("kv.requests.parked", &[]),
            ev_rpc: ev("rpc"),
            ev_raft: ev("raft"),
            ev_tick: ev("tick"),
            ev_side: ev("side"),
            ev_wake: ev("wake"),
            gc_versions_removed: r.counter("kv.gc.versions_removed", &[]),
            pipelined_writes: r.counter("kv.txn.pipelined_writes", &[]),
            parallel_commit_acks: r.counter("kv.txn.parallel_commit.acks", &[]),
            parallel_commit_restages: r.counter("kv.txn.parallel_commit.restages", &[]),
            staging_recoveries: r.counter("kv.txn.staging_recovery.runs", &[]),
            staging_recovery_commits: r.counter("kv.txn.staging_recovery.commits", &[]),
            staging_recovery_aborts: r.counter("kv.txn.staging_recovery.aborts", &[]),
            commit_wait_latency: r.histogram("kv.txn.commit_wait.latency", &[]),
            proposals_batched: r.counter("raft.proposals_batched", &[]),
            entries_proposed: r.counter("raft.entries_proposed", &[]),
            heartbeats_sent: r.counter("raft.heartbeats_sent", &[]),
            read_fast_path: r.counter("raft.read_fast_path", &[]),
            batch_occupancy: r.histogram("raft.batch_occupancy", &[]),
            scrape_gauges: SCRAPE_GAUGES
                .iter()
                .map(|&(name, labels, read)| (r.gauge(name, labels), read))
                .collect(),
            op_latency: vec![OnceCell::new(); Op::COUNT * OpPolicy::COUNT * regions.len()],
            txn_attr_latency: Default::default(),
            registry: r.clone(),
            regions,
        }
    }

    /// The latency histogram of successful `op`s under `policy` issued
    /// through a gateway in `region`.
    pub(crate) fn op_latency(
        &self,
        op: Op,
        policy: OpPolicy,
        region: RegionId,
    ) -> &HistogramHandle {
        let class = op as usize * OpPolicy::COUNT + policy as usize;
        self.op_latency[class * self.regions.len() + region.0 as usize].get_or_init(|| {
            let labels = [
                ("op", op.label()),
                ("policy", policy.label()),
                ("region", self.regions[region.0 as usize].as_str()),
            ];
            self.registry.histogram("kv.op.latency", &labels)
        })
    }

    /// Roll one finished transaction's latency attribution into
    /// `kv.txn.attr.latency{comp}`.
    pub(crate) fn record_txn_attr(&self, b: &AttrBreakdown) {
        let labels = COMPONENTS
            .iter()
            .map(|c| c.label())
            .chain(["other", "total"]);
        let nanos = b.comp_nanos.iter().chain([&b.other_nanos, &b.total_nanos]);
        for ((cell, comp), n) in self.txn_attr_latency.iter().zip(labels).zip(nanos) {
            let bind = || {
                self.registry
                    .histogram("kv.txn.attr.latency", &[("comp", comp)])
            };
            cell.get_or_init(bind).record(*n);
        }
    }

    /// Export one scrape's statistics through the [`SCRAPE_GAUGES`] table.
    pub(crate) fn set_scrape_gauges(&self, stats: &ScrapeStats) {
        for (gauge, read) in &self.scrape_gauges {
            gauge.set(read(stats));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_handles_share_the_registry() {
        let r = Registry::new();
        let topo = Topology::build(&["r0", "r1"], 1, mr_sim::RttMatrix::synthetic(2));
        let m = KvMetrics::bind(&r, &topo);
        m.txn_commits.inc();
        m.rpcs_by_kind[req_kind_index(&mr_proto::Request::PushTxn {
            pushee: mr_proto::TxnId(1),
            anchor: mr_proto::Key::from("a"),
        })]
        .inc();
        assert_eq!(r.counter_total("kv.txn.commits"), 1);
        assert_eq!(r.counter_total("kv.rpc.sent_by_kind"), 1);
        // A second bind sees the same instruments (single source of truth).
        let m2 = KvMetrics::bind(&r, &topo);
        assert_eq!(m2.txn_commits.get(), 1);
        assert_eq!(m.txn_commits.get(), 1);
    }

    #[test]
    fn lazy_histograms_register_on_first_record_and_are_the_registrys() {
        let r = Registry::new();
        let topo = Topology::build(&["r0", "r1"], 1, mr_sim::RttMatrix::synthetic(2));
        let m = KvMetrics::bind(&r, &topo);
        let series = r.instrument_count();
        assert_eq!(r.histogram_merged("kv.op.latency").count(), 0);
        m.op_latency(Op::Get, OpPolicy::Lead, RegionId(1)).record(7);
        m.op_latency(Op::Get, OpPolicy::Lead, RegionId(1)).record(9);
        m.op_latency(Op::ScanBounded, OpPolicy::ReadOnly, RegionId(0))
            .record(1);
        assert_eq!(
            r.instrument_count(),
            series + 2,
            "one series per class used"
        );
        let labels = [("op", "kv.get"), ("policy", "lead"), ("region", "r1")];
        assert_eq!(r.histogram("kv.op.latency", &labels).count(), 2);
        let b = AttrBreakdown {
            total_nanos: 10,
            comp_nanos: [1, 2, 3, 0, 0],
            other_nanos: 4,
        };
        m.record_txn_attr(&b);
        m.record_txn_attr(&b);
        assert_eq!(r.instrument_count(), series + 2 + TXN_ATTR_COMPS);
        let attr = |comp| r.histogram("kv.txn.attr.latency", &[("comp", comp)]);
        assert_eq!(attr("total").snapshot().sum, 20);
        assert_eq!(attr("lock_wait").snapshot().sum, 6);
        assert_eq!(attr("other").count(), 2);
    }

    #[test]
    fn rpc_span_names_align_with_kinds() {
        let req = mr_proto::Request::Negotiate {
            span: mr_proto::Span::point(mr_proto::Key::from("k")),
        };
        assert_eq!(rpc_span_name(&req), "rpc.negotiate");
        assert_eq!(REQ_KINDS[req_kind_index(&req)], "negotiate");
    }
}
