//! Per-transaction latency attribution.
//!
//! Every committed (or aborted) transaction's end-to-end latency is broken
//! into named components so `crdb_internal.slow_txns` and the bench exports
//! can answer *where the time went*: gateway→leaseholder RPC time for
//! reads, replication round trips for writes, lock-wait behind conflicting
//! intents, §6.2 commit wait, and retry machinery (read refreshes).
//!
//! ## No double counting
//!
//! A pipelined transaction overlaps its RPCs: two Puts and the STAGING
//! record can all be in flight at once. Summing their individual durations
//! would attribute more time than the transaction actually took. The
//! accumulator therefore keeps a **watermark**: each charge covers only
//! `[max(seg_start, watermark), seg_end]` and then advances the watermark
//! to `seg_end`. Charges arrive in completion order — sim-time is monotone
//! — so the charged segments form an exact interval union of the busy
//! time. Whatever the union does not cover (coordinator think time,
//! scheduling gaps, retry backoff) lands in the derived `other` bucket:
//! `other = total − Σ components`, so the breakdown always sums to the
//! end-to-end latency by construction, and `other` staying small is the
//! signal that the named components explain the transaction.
//!
//! Lock wait is carved out of an RPC's round trip rather than charged as a
//! separate segment: the leaseholder records how long the request sat
//! parked behind a conflicting intent, and the completion charge splits
//! the round trip into `lock_wait` (the parked portion) and the transport
//! component (the rest).

use std::cell::RefCell;
use std::rc::Rc;

use mr_obs::Ring;
use mr_sim::SimTime;

/// A named latency component. `other` is derived at finalize, not charged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Component {
    /// Read RPC round trips (gateway → leaseholder/follower → gateway).
    Rpc,
    /// Write RPC round trips: intent writes, transaction-record writes —
    /// each includes its Raft consensus round (replication RTT).
    Replication,
    /// Time parked behind a conflicting intent at the leaseholder.
    LockWait,
    /// §6.2 commit wait at the gateway.
    CommitWait,
    /// Retry machinery: read refreshes after timestamp forwarding.
    Retry,
}

/// All chargeable components, in export order.
pub const COMPONENTS: [Component; 5] = [
    Component::Rpc,
    Component::Replication,
    Component::LockWait,
    Component::CommitWait,
    Component::Retry,
];

impl Component {
    pub fn label(self) -> &'static str {
        match self {
            Component::Rpc => "rpc",
            Component::Replication => "replication",
            Component::LockWait => "lock_wait",
            Component::CommitWait => "commit_wait",
            Component::Retry => "retry",
        }
    }

    /// Static span-attribute key (`attr.<label>`).
    pub fn attr_key(self) -> &'static str {
        match self {
            Component::Rpc => "attr.rpc",
            Component::Replication => "attr.replication",
            Component::LockWait => "attr.lock_wait",
            Component::CommitWait => "attr.commit_wait",
            Component::Retry => "attr.retry",
        }
    }

    fn index(self) -> usize {
        match self {
            Component::Rpc => 0,
            Component::Replication => 1,
            Component::LockWait => 2,
            Component::CommitWait => 3,
            Component::Retry => 4,
        }
    }
}

/// Watermark-based component accumulator, one per open transaction.
#[derive(Clone, Debug)]
pub struct AttrAcc {
    start: SimTime,
    /// Everything at or before this instant has been charged (or deliberately
    /// skipped into `other`). Advances with each charge; never retreats.
    watermark: SimTime,
    nanos: [u64; COMPONENTS.len()],
}

impl AttrAcc {
    pub fn new(start: SimTime) -> AttrAcc {
        AttrAcc {
            start,
            watermark: start,
            nanos: [0; COMPONENTS.len()],
        }
    }

    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Charge `[seg_start, seg_end]` to `comp`, counting only the part past
    /// the watermark (exact interval union under overlapping RPCs).
    pub fn charge(&mut self, comp: Component, seg_start: SimTime, seg_end: SimTime) {
        self.charge_split(comp, seg_start, seg_end, 0);
    }

    /// Like [`charge`](Self::charge), but carve `lock_nanos` of the charged
    /// portion out as `lock_wait` (time the request sat parked server-side
    /// within this round trip).
    pub fn charge_split(
        &mut self,
        comp: Component,
        seg_start: SimTime,
        seg_end: SimTime,
        lock_nanos: u64,
    ) {
        let eff_start = self.watermark.max(seg_start);
        if seg_end <= eff_start {
            return;
        }
        let dur = (seg_end - eff_start).nanos();
        let lock = lock_nanos.min(dur);
        self.nanos[Component::LockWait.index()] += lock;
        self.nanos[comp.index()] += dur - lock;
        self.watermark = seg_end;
    }

    pub fn get(&self, comp: Component) -> u64 {
        self.nanos[comp.index()]
    }

    /// Close the accumulator: total end-to-end nanos and the derived
    /// `other` remainder. Consumes it — a finished transaction's state is
    /// gone, so straggler RPCs of an aborted pipeline find nothing to charge.
    pub fn finalize(self, now: SimTime) -> AttrBreakdown {
        let total = (now - self.start).nanos();
        let charged: u64 = self.nanos.iter().sum();
        AttrBreakdown {
            total_nanos: total,
            comp_nanos: self.nanos,
            other_nanos: total.saturating_sub(charged),
        }
    }
}

/// A finalized attribution: components + remainder summing to `total`.
#[derive(Clone, Copy, Debug)]
pub struct AttrBreakdown {
    pub total_nanos: u64,
    /// Indexed like [`COMPONENTS`].
    pub comp_nanos: [u64; COMPONENTS.len()],
    pub other_nanos: u64,
}

/// One finished transaction's attribution record.
#[derive(Clone, Debug)]
pub struct TxnAttrRecord {
    pub txn_id: u64,
    pub gateway: u64,
    pub start: SimTime,
    pub breakdown: AttrBreakdown,
    pub committed: bool,
    /// Raw id of the transaction's root trace span (`None` with tracing
    /// off) — the join key against `crdb_internal.session_trace`.
    pub root_span: Option<u64>,
    /// Distinct ranges the transaction's attributed RPCs touched, sorted
    /// ascending — joins against `crdb_internal.hot_ranges`.
    pub ranges: Vec<u64>,
}

/// Default retention for finished-transaction attribution records.
pub const DEFAULT_ATTR_CAP: usize = 16_384;

/// Bounded ring of finished transactions with their latency breakdowns,
/// backing `crdb_internal.slow_txns`. Cloning shares the store.
#[derive(Clone)]
pub struct TxnAttrLog {
    inner: Rc<RefCell<Ring<TxnAttrRecord>>>,
}

impl Default for TxnAttrLog {
    fn default() -> Self {
        TxnAttrLog::with_capacity(DEFAULT_ATTR_CAP)
    }
}

impl TxnAttrLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        TxnAttrLog {
            inner: Rc::new(RefCell::new(Ring::new(cap))),
        }
    }

    pub fn record(&self, rec: TxnAttrRecord) {
        self.inner.borrow_mut().push(rec);
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted by the retention cap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped()
    }

    /// Retained records in finish order.
    pub fn records(&self) -> Vec<TxnAttrRecord> {
        self.inner.borrow().iter().cloned().collect()
    }

    /// The `k` slowest retained transactions, by total latency descending;
    /// ties break on ascending txn id (deterministic).
    pub fn slowest(&self, k: usize) -> Vec<TxnAttrRecord> {
        let mut recs = self.records();
        recs.sort_by(|a, b| {
            b.breakdown
                .total_nanos
                .cmp(&a.breakdown.total_nanos)
                .then(a.txn_id.cmp(&b.txn_id))
        });
        recs.truncate(k);
        recs
    }

    /// Deterministic JSON export of the `k` slowest transactions.
    pub fn export_json(&self, k: usize) -> String {
        let mut w = mr_obs::export::JsonWriter::default();
        w.arr();
        for r in self.slowest(k) {
            w.obj_inline().field("txn", r.txn_id);
            w.field("gateway", r.gateway).field("start_ns", r.start.0);
            w.field("total_nanos", r.breakdown.total_nanos);
            for (c, n) in COMPONENTS.iter().zip(&r.breakdown.comp_nanos) {
                w.field(c.label(), n);
            }
            w.field("other_nanos", r.breakdown.other_nanos);
            w.field("committed", r.committed);
            w.field("root_span", r.root_span);
            w.key("ranges").arr_inline().vals(&r.ranges).end().end();
        }
        w.end();
        w.finish()
    }
}

/// The transaction an RPC runs on behalf of, and the component its round
/// trip charges. Background traffic (intent resolution, pushes, recovery
/// probes) returns `None`: it is not on any client's latency path.
pub(crate) fn req_attribution(req: &mr_proto::Request) -> Option<(mr_proto::TxnId, Component)> {
    use mr_proto::Request::*;
    match req {
        Get { ctx, .. } | Scan { ctx, .. } => ctx.txn.as_ref().map(|t| (t.id, Component::Rpc)),
        Put { txn, .. } | EndTxn { txn, .. } | CommitInline { txn, .. } | StageTxn { txn, .. } => {
            Some((txn.id, Component::Replication))
        }
        Refresh { txn_id, .. } => Some((*txn_id, Component::Retry)),
        QueryIntent { .. }
        | RecoverTxn { .. }
        | ResolveIntent { .. }
        | PushTxn { .. }
        | Negotiate { .. } => None,
    }
}

/// Logical bytes a write request puts on the wire toward MVCC state (keys
/// plus values) — the `write_bytes` dimension of per-range load.
pub(crate) fn write_bytes(req: &mr_proto::Request) -> u64 {
    use mr_proto::Request::*;
    let kv = |k: &mr_proto::Key, v: &Option<mr_proto::Value>| {
        (k.len() + v.as_ref().map_or(0, |v| v.len())) as u64
    };
    match req {
        Put { key, value, .. } => kv(key, value),
        CommitInline { writes, .. } => writes.iter().map(|(k, v)| kv(k, v)).sum(),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime(n)
    }

    #[test]
    fn watermark_prevents_double_counting_overlaps() {
        let mut a = AttrAcc::new(t(0));
        // Two overlapping RPCs: [0, 100] and [50, 150].
        a.charge(Component::Replication, t(0), t(100));
        a.charge(Component::Replication, t(50), t(150));
        assert_eq!(a.get(Component::Replication), 150);
        let b = a.finalize(t(150));
        assert_eq!(b.total_nanos, 150);
        assert_eq!(b.other_nanos, 0);
    }

    #[test]
    fn gaps_fall_into_other() {
        let mut a = AttrAcc::new(t(0));
        a.charge(Component::Rpc, t(10), t(40));
        a.charge(Component::CommitWait, t(60), t(90));
        let b = a.finalize(t(100));
        assert_eq!(b.comp_nanos[Component::Rpc.index()], 30);
        assert_eq!(b.comp_nanos[Component::CommitWait.index()], 30);
        assert_eq!(b.total_nanos, 100);
        // [0,10) + [40,60) + [90,100) uncharged.
        assert_eq!(b.other_nanos, 40);
    }

    #[test]
    fn split_carves_lock_wait_out_of_the_round_trip() {
        let mut a = AttrAcc::new(t(0));
        a.charge_split(Component::Replication, t(0), t(100), 30);
        assert_eq!(a.get(Component::LockWait), 30);
        assert_eq!(a.get(Component::Replication), 70);
        // Lock time is clamped to the charged portion.
        let mut b = AttrAcc::new(t(0));
        b.charge(Component::Rpc, t(0), t(90));
        b.charge_split(Component::Replication, t(0), t(100), 500);
        assert_eq!(b.get(Component::LockWait), 10);
        assert_eq!(b.get(Component::Replication), 0);
    }

    #[test]
    fn log_ranks_by_total_then_id_and_bounds_growth() {
        let log = TxnAttrLog::with_capacity(3);
        let rec = |id: u64, total: u64| TxnAttrRecord {
            txn_id: id,
            gateway: 0,
            start: t(0),
            breakdown: AttrBreakdown {
                total_nanos: total,
                comp_nanos: [0; COMPONENTS.len()],
                other_nanos: total,
            },
            committed: true,
            root_span: Some(id),
            ranges: vec![1, 2],
        };
        log.record(rec(1, 50));
        log.record(rec(2, 80));
        log.record(rec(3, 80));
        log.record(rec(4, 10));
        assert_eq!(log.len(), 3);
        assert_eq!(log.dropped(), 1);
        let top: Vec<u64> = log.slowest(2).iter().map(|r| r.txn_id).collect();
        assert_eq!(top, vec![2, 3]);
        let json = log.export_json(10);
        assert!(json.contains("\"total_nanos\": 80"));
        assert!(json.contains("\"root_span\": 2"));
        assert!(json.contains("\"ranges\": [1, 2]"));
        assert_eq!(json, log.export_json(10));
    }

    /// A refresh after timestamp forwarding (the in-transaction retry
    /// machinery) charges `retry`, and the breakdown still sums exactly.
    #[test]
    fn refresh_round_trips_charge_retry_and_sum_exactly() {
        let mut a = AttrAcc::new(t(0));
        a.charge(Component::Replication, t(0), t(100)); // Put hits WriteTooOld
        a.charge(Component::Retry, t(100), t(160)); // Refresh round trip
        a.charge(Component::Replication, t(160), t(260)); // re-issued Put
        a.charge(Component::CommitWait, t(260), t(300));
        let b = a.finalize(t(300));
        assert_eq!(b.comp_nanos[Component::Retry.index()], 60);
        assert_eq!(
            b.comp_nanos.iter().sum::<u64>() + b.other_nanos,
            b.total_nanos
        );
        assert_eq!(b.other_nanos, 0);
    }

    /// Statement-level retries restart the transaction: the aborted
    /// attempt's whole busy time is charged to `retry` in the statement
    /// aggregate (the way EXPLAIN ANALYZE folds attempts together), and the
    /// merged breakdown still sums exactly to end-to-end latency.
    #[test]
    fn aborted_attempt_folds_into_retry_with_exact_sum() {
        // Attempt 1: a write that aborts at t=120 after 100ns of
        // replication work.
        let mut attempt1 = AttrAcc::new(t(0));
        attempt1.charge(Component::Replication, t(0), t(100));
        let b1 = attempt1.finalize(t(120));

        // Attempt 2 (the retry, beginning where attempt 1 ended) commits.
        let mut attempt2 = AttrAcc::new(t(120));
        attempt2.charge(Component::Replication, t(120), t(250));
        attempt2.charge(Component::CommitWait, t(250), t(280));
        let b2 = attempt2.finalize(t(280));

        // Statement view: final attempt keeps its components; every prior
        // attempt's total (busy + idle) is retry overhead.
        let mut comp = b2.comp_nanos;
        comp[Component::Retry.index()] += b1.total_nanos;
        let other = b2.other_nanos;
        let stmt_total = 280; // end-to-end from first attempt's start
        assert_eq!(comp[Component::Retry.index()], 120);
        assert_eq!(comp[Component::Replication.index()], 130);
        assert_eq!(comp[Component::CommitWait.index()], 30);
        assert_eq!(comp.iter().sum::<u64>() + other, stmt_total);
    }

    #[test]
    fn request_attribution_classifies_kinds() {
        use mr_clock::Timestamp;
        use mr_proto::{Key, ReadCtx, Request, TxnId, TxnMeta};
        let meta = TxnMeta {
            id: TxnId(7),
            anchor: Key::from("a"),
            write_ts: Timestamp::ZERO,
            epoch: 0,
        };
        let mut ctx = ReadCtx::stale(Timestamp::ZERO);
        ctx.txn = Some(meta.clone());
        let get = Request::Get {
            ctx,
            key: Key::from("k"),
        };
        assert_eq!(req_attribution(&get), Some((TxnId(7), Component::Rpc)));
        let put = Request::Put {
            txn: meta.clone(),
            key: Key::from("k"),
            value: Some(mr_proto::Value::from("vv")),
        };
        assert_eq!(
            req_attribution(&put),
            Some((TxnId(7), Component::Replication))
        );
        assert_eq!(write_bytes(&put), 3);
        let push = Request::PushTxn {
            pushee: TxnId(7),
            anchor: Key::from("a"),
        };
        assert_eq!(req_attribution(&push), None);
    }
}
