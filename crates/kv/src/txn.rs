//! The gateway transaction coordinator.
//!
//! Implements the client-visible protocol of §5 and §6 on top of the
//! cluster transport:
//!
//! * serializable MVCC transactions with a fixed uncertainty interval
//!   (§6.1): reads that observe a committed value inside the interval bump
//!   their timestamp, *refresh* their read set, and retry;
//! * read refreshes at commit when the write timestamp was forwarded (by
//!   the timestamp cache, a newer committed version, or a closed-timestamp
//!   target);
//! * **global transactions** (§6.2): writes to GLOBAL (lead-policy) ranges
//!   come back with future-time timestamps; the coordinator *commit-waits*
//!   until its local HLC passes the commit timestamp — concurrently with
//!   asynchronous intent resolution (unlike Spanner, which holds locks for
//!   the duration; see the `commit_wait_holds_locks` ablation flag);
//! * readers observing future-time values commit-wait at most
//!   `max_clock_offset` before completing (§6.2);
//! * follower reads: fresh reads on lead-policy ranges and stale reads
//!   route to the nearest replica, with leaseholder fallback on redirects;
//! * bounded-staleness reads (§5.3.2): a negotiation phase picks the
//!   freshest timestamp servable locally, then the read runs there.

use std::convert::Infallible;

use mr_clock::Timestamp;
use mr_obs::SpanId;
use mr_proto::{
    Key, KvError, RangeId, ReadCtx, Request, Response, RoutingPolicy, Span, TxnId, TxnMeta,
    TxnStatus, Value,
};
use mr_sim::{NodeId, SimDuration};

use crate::attribution::{AttrAcc, Component, TxnAttrRecord, COMPONENTS};
use crate::cluster::{Cluster, Cont, InjectedBug, KvResult, ReadOptions, Staleness};
use crate::join::{join_all, Join, Task};
use crate::metrics::{Op, OpPolicy};
use crate::zone::ClosedTsPolicy;

/// Maximum transparent re-routes before an error surfaces to the caller.
const MAX_ATTEMPTS: u8 = 16;
/// Re-routes for a finished transaction's tail (record finalization and
/// intent resolution), which nobody waits on.
const TAIL_ATTEMPTS: u8 = 8;
/// Re-routes for a pusher's requests: a failed push is retried next round.
const PUSH_ATTEMPTS: u8 = 4;

/// A client's handle to an open transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxnHandle {
    pub id: TxnId,
    pub gateway: NodeId,
    /// The transaction's trace span: operations nest under it, including
    /// ones that find the transaction already gone.
    pub span: Option<SpanId>,
}

/// Coordinator-side state of one *unfinished* transaction. The entry is
/// removed from `Cluster::txns` the moment the transaction's outcome is
/// decided; whatever still has to happen (commit wait, record finalization,
/// intent resolution) carries what it needs by value.
pub(crate) struct TxnState {
    pub id: TxnId,
    pub gateway: NodeId,
    /// MVCC snapshot the transaction reads at.
    read_ts: Timestamp,
    /// Fixed upper bound of the uncertainty interval (does not move on
    /// restarts within the same transaction, §6.1).
    uncertainty_limit: Timestamp,
    /// Provisional commit timestamp.
    write_ts: Timestamp,
    /// Anchor key of the transaction record (first write).
    anchor: Option<Key>,
    /// Read spans with the timestamp at which each was (last) validated.
    reads: Vec<(Span, Timestamp)>,
    /// Keys with intents laid down (two-phase path only).
    intents: Vec<Key>,
    /// Writes buffered at the coordinator until commit (CRDB-style write
    /// buffering enabling the 1PC fast path). Last write per key wins.
    buffered: Vec<(Key, Option<Value>)>,
    epoch: u32,
    /// The transaction's trace span (operation spans nest under it).
    pub span: Option<SpanId>,
    /// Keys with a pipelined intent write issued (`cfg.pipelined_writes`) —
    /// the in-flight write set a parallel commit stages.
    sent: Vec<Key>,
    /// A sent key was written again: its issued intent holds a stale value,
    /// so commit falls back to re-putting every buffered write.
    rewrote_sent: bool,
    /// Pipelined Put RPCs issued but not yet acknowledged.
    outstanding: usize,
    /// Highest timestamp an acknowledged pipelined write landed at.
    max_written_ts: Timestamp,
    /// First terminal error a pipelined write reported.
    failed: Option<KvError>,
    /// Continuation armed by commit/rollback, fired when `outstanding`
    /// drains to zero.
    waiter: Option<Box<dyn FnOnce(&mut Cluster)>>,
    /// Rollback was requested and is waiting for `outstanding` to drain
    /// (resolving a key whose Put is still in flight would orphan the
    /// intent). The transaction accepts no further operations.
    rolled_back: bool,
    /// Latency attribution accumulator (RPC / replication / lock-wait /
    /// commit-wait / retry components, watermark-unioned).
    pub attr: AttrAcc,
    /// Distinct ranges touched by attributed RPCs, sorted ascending.
    pub ranges: Vec<u64>,
}

impl TxnState {
    fn meta(&self) -> TxnMeta {
        TxnMeta {
            id: self.id,
            anchor: self.anchor.clone().unwrap_or_else(|| Key::MIN.clone()),
            write_ts: self.write_ts,
            epoch: self.epoch,
        }
    }

    /// What the fire-and-forget tail of a finished transaction needs, taken
    /// by value: the record's identity and the intents to resolve.
    fn tail(&mut self) -> TxnTail {
        TxnTail {
            meta: self.meta(),
            gateway: self.gateway,
            span: self.span,
            intents: std::mem::take(&mut self.intents),
            attempts: TAIL_ATTEMPTS,
        }
    }
}

/// The part of a transaction that outlives its [`TxnState`]: record
/// finalization and intent resolution run after the client was answered
/// (or, for a holder found final, by its pusher).
struct TxnTail {
    meta: TxnMeta,
    /// The node that sends the tail's requests.
    gateway: NodeId,
    /// Their trace parent.
    span: Option<SpanId>,
    intents: Vec<Key>,
    /// Re-routes each of its requests gets.
    attempts: u8,
}

/// What a pusher carries from round to round: `holder`'s lock on `key`
/// blocks requests at `node`'s replica of `range`.
struct Pusher {
    node: NodeId,
    range: RangeId,
    key: Key,
    holder: TxnMeta,
}

/// How a commit was decided, which fixes what its epilogue still owes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CommitKind {
    /// Nothing written: no record, no intents. Counted once its reader-side
    /// commit wait is over.
    ReadOnly,
    /// The record is COMMITTED (EndTxn or one-phase commit).
    Explicit,
    /// Parallel commit: STAGING record plus every write landed. The record
    /// is made explicit after the ack.
    Implicit,
}

/// What a read covers: one key, or a span bounded to `max_keys` rows.
#[derive(Clone)]
enum ReadTarget {
    Point(Key),
    Span(Span, usize),
}

impl ReadTarget {
    /// The span the read observes (read-set entry, negotiation subject).
    fn span(&self) -> Span {
        match self {
            ReadTarget::Point(key) => Span::point(key.clone()),
            ReadTarget::Span(span, _) => span.clone(),
        }
    }

    fn request(&self, ctx: ReadCtx) -> Request {
        match self {
            ReadTarget::Point(key) => Request::Get {
                ctx,
                key: key.clone(),
            },
            ReadTarget::Span(span, max_keys) => Request::Scan {
                ctx,
                span: span.clone(),
                max_keys: *max_keys,
            },
        }
    }

    /// The read as a client operation: `point` for a point read, `span` for
    /// a scan (trace span and `kv.op.latency{op}`), labelled with the
    /// policy of the range the read starts in.
    fn op(&self, c: &Cluster, point: Op, span: Op) -> (Op, OpPolicy) {
        match self {
            ReadTarget::Point(key) => (point, c.policy_of(key)),
            ReadTarget::Span(s, _) => (span, c.policy_of(&s.start)),
        }
    }
}

/// What a sender takes from its request's response. Every send goes
/// through [`Reply::from_response`], the one place a `Response` is matched
/// against the shape its request expects.
trait Reply: Sized + 'static {
    /// The reply `resp` carries, or `resp` back if it has another shape.
    fn take(resp: Response) -> Result<Self, Response>;

    /// A replica answers each request with the response variant of the
    /// same name, so a reply of another shape is a bug.
    fn from_response(resp: Response) -> Self {
        Self::take(resp).unwrap_or_else(|resp| unreachable!("reply of the wrong shape: {resp:?}"))
    }
}

/// `T: pattern => value;` implements [`Reply`] for `T`, taken from the
/// responses that match `pattern`.
macro_rules! reply {
    ($($t:ty: $pat:pat => $out:expr;)*) => {$(
        impl Reply for $t {
            fn take(resp: Response) -> Result<Self, Response> {
                match resp {
                    $pat => Ok($out),
                    other => Err(other),
                }
            }
        }
    )*};
}
reply! {
    // Success alone.
    (): Response::ResolveIntent | Response::Refresh => ();
    // The one timestamp a write, commit, stage or negotiation answers with.
    Timestamp: Response::Put { written_ts: ts }
        | Response::EndTxn { commit_ts: ts }
        | Response::CommitInline { commit_ts: ts }
        | Response::StageTxn { commit_ts: ts }
        | Response::Negotiate { max_safe_ts: ts } => ts;
    Option<Value>: Response::Get { value, .. } => value;
    Vec<(Key, Value)>: Response::Scan { rows } => rows;
    bool: Response::QueryIntent { found } => found;
    (TxnStatus, Timestamp): Response::RecoverTxn { status, commit_ts } => (status, commit_ts);
    (TxnStatus, Timestamp, Vec<Key>): Response::PushTxn {
        status,
        commit_ts,
        in_flight,
    } => (status, commit_ts, in_flight);
}

/// A part of a span request, taken whole to be joined with the others.
impl Reply for Response {
    fn take(resp: Response) -> Result<Self, Response> {
        Ok(resp)
    }
}

/// Two parts of a span request as one, `a`'s keys before `b`'s: rows cut at
/// `max_keys`, the lower negotiated timestamp, a refresh both passed.
fn join_parts(a: Response, b: Response, max_keys: usize) -> Response {
    match (a, b) {
        (Response::Scan { mut rows }, Response::Scan { rows: more }) => {
            rows.extend(more);
            rows.truncate(max_keys);
            Response::Scan { rows }
        }
        (Response::Negotiate { max_safe_ts: a }, Response::Negotiate { max_safe_ts: b }) => {
            let max_safe_ts = a.min(b);
            Response::Negotiate { max_safe_ts }
        }
        (a, _) => a,
    }
}

/// The client-facing shape of a read's response.
trait ReadOut: Reply {
    /// Lay a transaction's buffered writes over what the read returned.
    fn overlay(&mut self, _buffered: &[(Key, Option<Value>)], _span: &Span) {}
}

impl ReadOut for Option<Value> {}

impl ReadOut for Vec<(Key, Value)> {
    fn overlay(&mut self, buffered: &[(Key, Option<Value>)], span: &Span) {
        *self = overlay_buffer(std::mem::take(self), buffered, span);
    }
}

/// Overlay a transaction's buffered writes onto scan results: buffered
/// values replace or add rows; buffered deletes remove them.
fn overlay_buffer(
    rows: Vec<(Key, Value)>,
    buffered: &[(Key, Option<Value>)],
    span: &Span,
) -> Vec<(Key, Value)> {
    let relevant: Vec<&(Key, Option<Value>)> =
        buffered.iter().filter(|(k, _)| span.contains(k)).collect();
    if relevant.is_empty() {
        return rows;
    }
    let mut out: Vec<(Key, Value)> = rows
        .into_iter()
        .filter(|(k, _)| !relevant.iter().any(|(bk, _)| bk == k))
        .collect();
    for (k, v) in relevant {
        if let Some(v) = v {
            out.push((k.clone(), v.clone()));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

impl Cluster {
    // ------------------------------------------------------------------
    // Transaction lifecycle
    // ------------------------------------------------------------------

    /// Open a transaction coordinated by `gateway`. Its trace span nests
    /// under the ambient `trace_parent` (the SQL statement, if any).
    pub fn txn_begin(&mut self, gateway: NodeId) -> TxnHandle {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        let read_ts = self.hlc_now(gateway);
        let limit = read_ts.add_duration(self.cfg.clock.max_offset);
        let span = self.obs.tracer.start("txn", self.trace_parent, self.now());
        let tracer = &self.obs.tracer;
        tracer.attr(span, "txn", id);
        tracer.attr(span, "gateway", format_args!("n{}", gateway.0));
        tracer.attr(span, "gateway_region", self.region_name_of(gateway));
        self.txns.insert(
            id,
            TxnState {
                id,
                gateway,
                read_ts,
                uncertainty_limit: limit,
                write_ts: read_ts,
                anchor: None,
                reads: Vec::new(),
                intents: Vec::new(),
                buffered: Vec::new(),
                epoch: 0,
                span,
                sent: Vec::new(),
                rewrote_sent: false,
                outstanding: 0,
                max_written_ts: Timestamp::ZERO,
                failed: None,
                waiter: None,
                rolled_back: false,
                attr: AttrAcc::new(self.now()),
                ranges: Vec::new(),
            },
        );
        TxnHandle { id, gateway, span }
    }

    /// The open transaction `id`, or the error an operation on it gets: a
    /// finished transaction left no state behind, so an id that was issued
    /// but is gone (or is rolling back) reads as aborted.
    fn txn_open(&mut self, id: TxnId) -> KvResult<&mut TxnState> {
        let gone = if (1..self.next_txn).contains(&id.0) {
            KvError::TxnAborted { id }
        } else {
            KvError::TxnNotFound { id }
        };
        self.txns
            .get_mut(&id)
            .filter(|st| !st.rolled_back)
            .ok_or(gone)
    }

    /// Take an open transaction out of the map: its outcome is decided.
    fn txn_take(&mut self, id: TxnId) -> KvResult<TxnState> {
        self.txn_open(id)?;
        Ok(self.txns.remove(&id).expect("open transactions are mapped"))
    }

    /// Transactional point read.
    pub fn txn_get(&mut self, h: TxnHandle, key: Key, cont: Cont<KvResult<Option<Value>>>) {
        self.txn_read(h, ReadTarget::Point(key), cont);
    }

    /// Transactional scan (bounded by `max_keys`).
    pub fn txn_scan(
        &mut self,
        h: TxnHandle,
        span: Span,
        max_keys: usize,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        self.txn_read(h, ReadTarget::Span(span, max_keys), cont);
    }

    /// Transactional write (`None` deletes).
    pub fn txn_put(
        &mut self,
        h: TxnHandle,
        key: Key,
        value: Option<Value>,
        cont: Cont<KvResult<()>>,
    ) {
        let policy = self.policy_of(&key);
        let (_, cont) = self.instrument_op(Op::Put, policy, h.gateway, h.span, cont);
        let id = h.id;
        let pipelined = self.cfg.pipelined_writes;
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        if st.anchor.is_none() {
            st.anchor = Some(key.clone());
        }
        // Buffer the write: read-your-writes always serves from the buffer.
        match st.buffered.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => st.buffered.push((key.clone(), value.clone())),
        }
        if !pipelined {
            // Legacy: writes flush at commit (1PC when single-range).
            return cont(self, Ok(()));
        }
        // Write pipelining: propose the intent now and return before it
        // replicates; the commit joins the in-flight set.
        if st.sent.contains(&key) {
            // The issued intent now holds a stale value; commit falls back
            // to the re-putting slow path.
            st.rewrote_sent = true;
            return cont(self, Ok(()));
        }
        st.sent.push(key.clone());
        st.outstanding += 1;
        let (meta, gateway, tspan) = (st.meta(), st.gateway, st.span);
        self.m.pipelined_writes.inc();
        let record_key = key.clone();
        self.dist_send(
            gateway,
            RoutingPolicy::Leaseholder,
            Request::Put {
                txn: meta,
                key,
                value,
            },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| {
                // The transaction may have ended with this write still in
                // flight (an abort does not wait for it): nobody to tell.
                let Some(st) = c.txns.get_mut(&id) else {
                    return;
                };
                match res {
                    Ok(written_ts) => {
                        st.max_written_ts = st.max_written_ts.forward(written_ts);
                        st.write_ts = st.write_ts.forward(written_ts);
                    }
                    Err(e) => {
                        st.failed.get_or_insert(e);
                    }
                }
                // Even on error the intent may have landed; remember the
                // key so an abort resolves it.
                st.intents.push(record_key);
                st.outstanding -= 1;
                if st.outstanding == 0 {
                    if let Some(waiter) = st.waiter.take() {
                        waiter(c);
                    }
                }
            }),
        );
        cont(self, Ok(()));
    }

    /// Commit. Returns the commit timestamp after any required read
    /// refresh, the EndTxn round-trip, and commit wait.
    pub fn txn_commit(&mut self, h: TxnHandle, cont: Cont<KvResult<Timestamp>>) {
        // Label commit latency by the policy of the written ranges: a
        // lead-policy key anywhere makes this a global transaction (§6.2).
        let first_write = self.txns.get(&h.id).and_then(|st| st.buffered.first());
        let policy = match first_write {
            Some((key, _)) => self.policy_of(key),
            None => OpPolicy::ReadOnly,
        };
        let (tspan, cont) = self.instrument_op(Op::Commit, policy, h.gateway, h.span, cont);
        let id = h.id;
        if let Err(e) = self.txn_open(id) {
            return cont(self, Err(e));
        }
        let st = &self.txns[&id];
        let gateway = st.gateway;
        if st.buffered.is_empty() && st.intents.is_empty() {
            // Read-only: complete locally. Commit-wait if the read
            // timestamp became future-time by observing a future value
            // (§6.2: reader-side commit wait, capped at max_clock_offset).
            let commit_ts = st.read_ts;
            return self.txn_committed(id, CommitKind::ReadOnly, commit_ts, tspan, cont);
        }
        // Pipelined writes are already in flight as intents: join them and
        // commit via the parallel-commits (or explicit two-phase) path.
        if !st.sent.is_empty() {
            return self.txn_commit_pipelined(id, tspan, cont);
        }
        // 1PC fast path: every buffered write lands in one range.
        let single_range = {
            let mut range = None;
            let mut ok = true;
            for (key, _) in &st.buffered {
                match self.registry().lookup(key) {
                    Some(d) if range.is_none() => range = Some(d.id),
                    Some(d) if range == Some(d.id) => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                range
            } else {
                None
            }
        };
        let Some(range) = single_range else {
            return self.txn_commit_slow(id, tspan, cont);
        };
        let span = self.registry().get(range).map(|d| d.span.clone());
        let local_reads_only = match &span {
            Some(span) => st.reads.iter().all(|(s, _)| span.contains_span(s)),
            None => false,
        };
        let req = Request::CommitInline {
            txn: st.meta(),
            writes: st.buffered.clone(),
            refresh_spans: if local_reads_only {
                st.reads.clone()
            } else {
                Vec::new()
            },
            local_reads_only,
            resolve_inline: !self.cfg.commit_wait_holds_locks,
        };
        self.dist_send(
            gateway,
            RoutingPolicy::Leaseholder,
            req,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(commit_ts) => {
                    // Spanner-style ablation: locks were kept; the
                    // coordinator resolves them after commit wait.
                    if c.cfg.commit_wait_holds_locks {
                        if let Some(st) = c.txns.get_mut(&id) {
                            st.intents = st.buffered.iter().map(|(k, _)| k.clone()).collect();
                        }
                    }
                    c.txn_committed(id, CommitKind::Explicit, commit_ts, tspan, cont);
                }
                Err(KvError::WriteTooOld { .. }) => {
                    // Timestamp must move but remote reads need a real
                    // refresh: fall back to the two-phase path.
                    c.txn_commit_slow(id, tspan, cont);
                }
                Err(e) => c.abort_after_failure(id, e, cont),
            }),
        );
    }

    /// Abort, resolving any intents.
    pub fn txn_rollback(&mut self, h: TxnHandle, cont: Cont<KvResult<()>>) {
        let (_, cont) = self.instrument_op(Op::Rollback, OpPolicy::None, h.gateway, h.span, cont);
        match self.txn_open(h.id) {
            Ok(st) => st.rolled_back = true,
            // Already finished (or never begun): nothing to undo.
            Err(_) => return cont(self, Ok(())),
        }
        self.m.txn_aborts.inc();
        let id = h.id;
        self.join_pipeline(
            id,
            Box::new(move |c| {
                if let Some(mut st) = c.txns.remove(&id) {
                    c.resolve_intents(st.tail(), TxnStatus::Aborted, Timestamp::ZERO);
                    c.finish_txn_span(st, false);
                }
                cont(c, Ok(()));
            }),
        );
    }

    // ------------------------------------------------------------------
    // Non-transactional reads (stale reads, §5.3)
    // ------------------------------------------------------------------

    /// A standalone read. `Fresh` runs as an implicit read-only
    /// transaction (linearizable, commit-waits if it observes future-time
    /// values); the stale variants run lock-free at a fixed or negotiated
    /// timestamp on the nearest replica.
    pub fn read(
        &mut self,
        gateway: NodeId,
        key: Key,
        opts: ReadOptions,
        cont: Cont<KvResult<Option<Value>>>,
    ) {
        self.standalone_read(gateway, ReadTarget::Point(key), opts, cont);
    }

    /// A standalone scan, with the same staleness options as [`Cluster::read`].
    pub fn scan(
        &mut self,
        gateway: NodeId,
        span: Span,
        max_keys: usize,
        opts: ReadOptions,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        self.standalone_read(gateway, ReadTarget::Span(span, max_keys), opts, cont);
    }

    // ------------------------------------------------------------------
    // Internals: the read path
    // ------------------------------------------------------------------

    fn standalone_read<T: ReadOut>(
        &mut self,
        gateway: NodeId,
        target: ReadTarget,
        opts: ReadOptions,
        cont: Cont<KvResult<T>>,
    ) {
        // The exact timestamp to read at, or the oldest acceptable one.
        let (exact, ts) = match opts.staleness {
            Staleness::Fresh => {
                let h = self.txn_begin(gateway);
                return self.txn_read(
                    h,
                    target,
                    Box::new(move |c, res: KvResult<T>| match res {
                        Ok(v) => c.txn_commit(h, Box::new(move |c2, r| cont(c2, r.map(|_| v)))),
                        Err(e) => c.txn_rollback(h, Box::new(move |c2, _| cont(c2, Err(e)))),
                    }),
                );
            }
            Staleness::ExactAt(ts) => (true, ts),
            Staleness::ExactAgo(ago) => (true, self.hlc_ago(gateway, ago)),
            Staleness::BoundedMaxStaleness(bound) => (false, self.hlc_ago(gateway, bound)),
            Staleness::BoundedMinTimestamp(min_ts) => (false, min_ts),
        };
        let (op, policy) = if exact {
            target.op(self, Op::ReadStale, Op::ScanStale)
        } else {
            target.op(self, Op::ReadBounded, Op::ScanBounded)
        };
        let parent = self.trace_parent;
        let (span, cont) = self.instrument_op(op, policy, gateway, parent, cont);
        if exact {
            self.read_at(gateway, target, ts, RoutingPolicy::Nearest, span, cont);
        } else {
            self.bounded_read(
                gateway,
                target,
                ts,
                opts.fallback_to_leaseholder,
                span,
                cont,
            );
        }
    }

    /// The gateway's HLC reading, `ago` in the past.
    fn hlc_ago(&mut self, gateway: NodeId, ago: SimDuration) -> Timestamp {
        let now = self.hlc_now(gateway);
        Timestamp::new(now.wall.saturating_sub(ago.nanos()), 0)
    }

    /// A lock-free read at the fixed timestamp `ts`.
    fn read_at<T: ReadOut>(
        &mut self,
        gateway: NodeId,
        target: ReadTarget,
        ts: Timestamp,
        mode: RoutingPolicy,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) {
        let req = target.request(ReadCtx::stale(ts));
        self.dist_send(gateway, mode, req, MAX_ATTEMPTS, tspan, cont);
    }

    /// Bounded-staleness read (§5.3.2): negotiate the freshest timestamp the
    /// nearest replica can serve, and read there if it is no older than
    /// `min_ts`.
    fn bounded_read<T: ReadOut>(
        &mut self,
        gateway: NodeId,
        target: ReadTarget,
        min_ts: Timestamp,
        fallback_to_leaseholder: bool,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) {
        let now_ts = self.hlc_now(gateway);
        let negotiate = Request::Negotiate {
            span: target.span(),
        };
        self.dist_send(
            gateway,
            RoutingPolicy::Nearest,
            negotiate,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res: KvResult<Timestamp>| match res {
                Ok(max_safe_ts) => {
                    // Freshest locally-servable timestamp, capped at now.
                    let chosen = max_safe_ts.min(now_ts);
                    if chosen >= min_ts {
                        c.read_at(gateway, target, chosen, RoutingPolicy::Nearest, tspan, cont);
                    } else if fallback_to_leaseholder {
                        // Serve from the leaseholder at the staleness bound.
                        c.read_at(
                            gateway,
                            target,
                            min_ts,
                            RoutingPolicy::Leaseholder,
                            tspan,
                            cont,
                        );
                    } else {
                        cont(
                            c,
                            Err(KvError::StalenessBoundExceeded {
                                min_ts,
                                max_safe_ts,
                            }),
                        );
                    }
                }
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    /// A read inside transaction `h`, as one instrumented client operation.
    fn txn_read<T: ReadOut>(&mut self, h: TxnHandle, target: ReadTarget, cont: Cont<KvResult<T>>) {
        let (op, policy) = target.op(self, Op::Get, Op::Scan);
        let (span, cont) = self.instrument_op(op, policy, h.gateway, h.span, cont);
        self.txn_read_inner(h.id, target, span, cont);
    }

    fn txn_read_inner<T: ReadOut>(
        &mut self,
        id: TxnId,
        target: ReadTarget,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let own_intent = match &target {
            ReadTarget::Point(key) => {
                // Read-your-writes: buffered writes win over replicated state.
                if let Some((_, v)) = st.buffered.iter().rev().find(|(k, _)| k == key) {
                    let resp = Response::Get {
                        value: v.clone(),
                        value_ts: Timestamp::ZERO,
                    };
                    return cont(self, Ok(T::from_response(resp)));
                }
                st.intents.contains(key)
            }
            ReadTarget::Span(..) => false,
        };
        let req = target.request(ReadCtx {
            read_ts: st.read_ts,
            uncertainty_limit: st.uncertainty_limit,
            txn: Some(st.meta()),
        });
        let gateway = st.gateway;
        let mode = match (&target, self.registry().lookup(req.routing_key())) {
            // GLOBAL tables serve consistent present-time point reads from
            // any replica (§6) — except one of our own (unreplicated-yet)
            // intent. REGIONAL fresh reads need the leaseholder, and so do
            // scans (they may span in-flight writes).
            (ReadTarget::Point(_), Some(d))
                if !own_intent && d.zone_config.closed_ts_policy == ClosedTsPolicy::Lead =>
            {
                RoutingPolicy::Nearest
            }
            _ => RoutingPolicy::Leaseholder,
        };
        self.dist_send(
            gateway,
            mode,
            req,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res: KvResult<T>| match res {
                Ok(mut out) => {
                    if let Some(st) = c.txns.get_mut(&id) {
                        let span = target.span();
                        out.overlay(&st.buffered, &span);
                        st.reads.push((span, st.read_ts));
                    }
                    cont(c, Ok(out));
                }
                Err(KvError::Uncertainty { value_ts, .. }) => {
                    c.txn_uncertainty_restart(
                        id,
                        value_ts,
                        Box::new(move |c2, r| match r {
                            Ok(()) => c2.txn_read_inner(id, target, tspan, cont),
                            Err(e) => cont(c2, Err(e)),
                        }),
                    );
                }
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    /// Handle a read that observed a value in its uncertainty interval:
    /// bump the read timestamp to the value's, refresh prior reads, and let
    /// the caller retry (§6.1, §6.2).
    fn txn_uncertainty_restart(
        &mut self,
        id: TxnId,
        value_ts: Timestamp,
        cont: Cont<KvResult<()>>,
    ) {
        self.m.uncertainty_restarts.inc();
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let new_ts = st.read_ts.forward(value_ts);
        st.write_ts = st.write_ts.forward(new_ts);
        let (span, now) = (st.span, self.now());
        self.obs.tracer.event(
            span,
            now,
            format_args!("uncertainty restart: value at {value_ts}"),
        );
        self.txn_refresh_reads(id, new_ts, cont);
    }

    /// Refresh all read spans to `to_ts`; on success the transaction's read
    /// timestamp moves there. A failed refresh aborts the transaction: it
    /// must restart from scratch.
    fn txn_refresh_reads(&mut self, id: TxnId, to_ts: Timestamp, cont: Cont<KvResult<()>>) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let (gateway, tspan) = (st.gateway, st.span);
        let spans: Vec<(Span, Timestamp)> = st
            .reads
            .iter()
            .filter(|(_, at)| *at < to_ts)
            .cloned()
            .collect();
        if spans.is_empty() {
            st.read_ts = st.read_ts.forward(to_ts);
            return cont(self, Ok(()));
        }
        self.m.refreshes.inc();
        let now = self.now();
        self.obs.tracer.event(
            tspan,
            now,
            format_args!("refreshing {} read span(s) to {to_ts}", spans.len()),
        );
        let join = Join::new(
            spans.len(),
            Box::new(move |c, res: KvResult<Vec<()>>| match res {
                Ok(_) => {
                    if let Some(st) = c.txns.get_mut(&id) {
                        st.read_ts = st.read_ts.forward(to_ts);
                        for (_, at) in st.reads.iter_mut() {
                            *at = (*at).forward(to_ts);
                        }
                    }
                    cont(c, Ok(()));
                }
                Err(e) => {
                    c.m.refresh_failures.inc();
                    c.abort_after_failure(id, e, cont);
                }
            }),
        );
        for (i, (span, from_ts)) in spans.into_iter().enumerate() {
            let join = join.clone();
            let req = Request::Refresh {
                txn_id: id,
                span,
                from_ts,
                to_ts,
            };
            self.dist_send(
                gateway,
                RoutingPolicy::Leaseholder,
                req,
                MAX_ATTEMPTS,
                tspan,
                Box::new(move |c, res| join.arrive(c, i, res)),
            );
        }
    }

    // ------------------------------------------------------------------
    // Internals: operation wrappers
    // ------------------------------------------------------------------

    /// Wrap a client operation: track it for `run_until_quiescent`, open an
    /// operation span under `parent`, and — on success — record its latency
    /// in `kv.op.latency{op, policy, region}`. Returns the operation span
    /// (the parent for the operation's RPCs) and the wrapped continuation.
    fn instrument_op<T: 'static>(
        &mut self,
        op: Op,
        policy: OpPolicy,
        gateway: NodeId,
        parent: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) -> (Option<SpanId>, Cont<KvResult<T>>) {
        self.op_started();
        let start = self.now();
        let tracer = &self.obs.tracer;
        let span = tracer.start(op.label(), parent, start);
        tracer.attr(span, "gateway", format_args!("n{}", gateway.0));
        tracer.attr(span, "gateway_region", self.region_name_of(gateway));
        tracer.attr(span, "policy", policy.label());
        let wrapped: Cont<KvResult<T>> = Box::new(move |c, v| {
            c.op_finished();
            let now = c.now();
            match &v {
                Ok(_) => {
                    let region = c.topology().region_of(gateway);
                    let latency = c.m.op_latency(op, policy, region);
                    latency.record((now - start).nanos());
                    c.obs.tracer.attr(span, "result", "ok");
                }
                Err(e) => c.obs.tracer.attr(span, "result", format_args!("err: {e}")),
            }
            c.obs.tracer.finish(span, now);
            cont(c, v);
        });
        (span, wrapped)
    }

    /// The closed-timestamp policy label for the range covering `key`.
    fn policy_of(&self, key: &Key) -> OpPolicy {
        match self.registry().lookup(key) {
            Some(d) => match d.zone_config.closed_ts_policy {
                ClosedTsPolicy::Lead => OpPolicy::Lead,
                ClosedTsPolicy::Lag => OpPolicy::Lag,
            },
            None => OpPolicy::None,
        }
    }

    /// A transaction reached its terminal state: roll its latency
    /// attribution up into histograms, span attributes and the
    /// slow-transaction log, and close its span. Consumes the state, so
    /// straggler RPCs completing after this charge nothing.
    fn finish_txn_span(&mut self, st: TxnState, committed: bool) {
        let now = self.now();
        let span = st.span;
        let start = st.attr.start();
        let breakdown = st.attr.finalize(now);
        self.m.record_txn_attr(&breakdown);
        for (c, n) in COMPONENTS.iter().zip(breakdown.comp_nanos.iter()) {
            self.obs.tracer.attr(span, c.attr_key(), n);
        }
        self.obs
            .tracer
            .attr(span, "attr.other", breakdown.other_nanos);
        self.attr_log.record(TxnAttrRecord {
            txn_id: st.id.0,
            gateway: st.gateway.0 as u64,
            start,
            breakdown,
            committed,
            root_span: span.map(|s| s.raw()),
            ranges: st.ranges,
        });
        self.obs.tracer.finish(span, now);
    }

    // ------------------------------------------------------------------
    // Internals: routing
    // ------------------------------------------------------------------

    /// The range `req` addresses (by its routing key) and the replica of it
    /// that `mode` picks.
    fn route(
        &mut self,
        gateway: NodeId,
        req: &Request,
        mode: RoutingPolicy,
    ) -> KvResult<(RangeId, NodeId)> {
        let key = req.routing_key();
        let desc = self
            .registry()
            .lookup(key)
            .ok_or_else(|| KvError::NoSuchRange { key: key.clone() })?;
        let target = match mode {
            RoutingPolicy::Leaseholder => desc.leaseholder,
            RoutingPolicy::Nearest => desc
                .nearest_replica(self.topology(), gateway)
                .unwrap_or(desc.leaseholder),
        };
        Ok((desc.id, target))
    }

    /// The one send path: route `req` by its routing key, with transparent
    /// redirect handling — `NotLeaseholder`, `FollowerReadUnavailable`, and
    /// follower `WriteIntent` errors re-route to the leaseholder; timeouts
    /// re-resolve the route and retry — and answer `cont` with the reply
    /// the request expects. Every attempt's RPC span nests under `parent`
    /// (usually the operation span), so traces show the whole re-route
    /// history of one logical send.
    fn dist_send<T: Reply>(
        &mut self,
        gateway: NodeId,
        mode: RoutingPolicy,
        req: Request,
        attempts: u8,
        parent: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) {
        let one_range = |span: &Span| {
            (self.registry().lookup(&span.start)).is_some_and(|d| d.span.contains_span(span))
        };
        if let Some(span) = req.span().filter(|span| !one_range(span)).cloned() {
            let cont: Cont<KvResult<Response>> =
                Box::new(move |c, res| cont(c, res.map(T::from_response)));
            return self.dist_send_parts(gateway, mode, span, req, attempts, parent, cont);
        }
        let (range, target) = match self.route(gateway, &req, mode) {
            Ok(rt) => rt,
            Err(e) => {
                cont(self, Err(e));
                return;
            }
        };
        let retry_req = req.clone();
        self.send_request(
            gateway,
            target,
            range,
            req,
            parent,
            Box::new(move |c, res| match res {
                Ok(resp) => cont(c, Ok(T::from_response(resp))),
                Err(e) if e.is_redirect() && attempts > 0 => {
                    let now = c.now();
                    c.obs
                        .tracer
                        .event(parent, now, format_args!("redirect to leaseholder: {e}"));
                    c.dist_send(
                        gateway,
                        RoutingPolicy::Leaseholder,
                        retry_req,
                        attempts - 1,
                        parent,
                        cont,
                    );
                }
                Err(KvError::RangeUnavailable { .. }) if attempts > 0 => {
                    // Route may have moved (failover); back off and retry.
                    let now = c.now();
                    c.obs.tracer.event(parent, now, "unavailable, backing off");
                    c.schedule(
                        SimDuration::from_millis(250),
                        Box::new(move |c2| {
                            c2.dist_send(gateway, mode, retry_req, attempts - 1, parent, cont);
                        }),
                    );
                }
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    /// [`Cluster::dist_send`] of `req`, whose `span` no one range holds: it
    /// goes out in parts, one per range it overlaps, clipped to that range (a gap
    /// holds no data). Each part comes back through `dist_send`, so one that
    /// a split outruns is redirected and split again; the replies join in
    /// key order, first error wins. Not generic, so the fan-out is compiled
    /// once, whatever reply the caller expects.
    #[allow(clippy::too_many_arguments)]
    fn dist_send_parts(
        &mut self,
        gateway: NodeId,
        mode: RoutingPolicy,
        span: Span,
        req: Request,
        attempts: u8,
        parent: Option<SpanId>,
        cont: Cont<KvResult<Response>>,
    ) {
        let parts: Vec<Task<Response, KvError>> = (self.registry().lookup_span(&span))
            .map(|d| {
                let mut part = req.clone();
                if let Request::Scan { span, .. }
                | Request::Refresh { span, .. }
                | Request::Negotiate { span } = &mut part
                {
                    *span = span.clip(&d.span);
                }
                Box::new(move |c: &mut Cluster, done| {
                    c.dist_send(gateway, mode, part, attempts, parent, done)
                }) as Task<_, _>
            })
            .collect();
        let key = req.routing_key().clone();
        let max_keys = match req {
            Request::Scan { max_keys, .. } => max_keys,
            _ => usize::MAX,
        };
        let joined: Cont<KvResult<Vec<Response>>> = Box::new(move |c, res| {
            let one = res.map(|p| p.into_iter().reduce(|a, b| join_parts(a, b, max_keys)));
            cont(
                c,
                one.and_then(|one| one.ok_or(KvError::NoSuchRange { key })),
            )
        });
        join_all(self, parts, joined);
    }

    // ------------------------------------------------------------------
    // Internals: writes and commit
    // ------------------------------------------------------------------

    /// A failure the client must retry from scratch: abort the transaction
    /// (if it is still open), clean up its intents, and answer with `e`.
    fn abort_after_failure<T>(&mut self, id: TxnId, e: KvError, cont: Cont<KvResult<T>>) {
        if let Ok(mut st) = self.txn_take(id) {
            self.m.txn_restarts.inc();
            let now = self.now();
            self.obs
                .tracer
                .event(st.span, now, "aborted for client retry");
            self.resolve_intents(st.tail(), TxnStatus::Aborted, Timestamp::ZERO);
            self.finish_txn_span(st, false);
        }
        cont(self, Err(e));
    }

    /// The one commit epilogue. The outcome is decided, so the transaction
    /// leaves the map here; what follows — commit wait (§6.2), intent
    /// resolution, making a parallel commit explicit, the attribution
    /// rollup — runs on the state by value, and the client is acked last.
    fn txn_committed(
        &mut self,
        id: TxnId,
        kind: CommitKind,
        commit_ts: Timestamp,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let mut st = match self.txn_take(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        if kind != CommitKind::ReadOnly {
            self.m.txn_commits.inc();
        }
        // CRDB resolves intents concurrently with commit wait (§6.2) — locks
        // release while the gateway waits. The Spanner-style ablation
        // (`commit_wait_holds_locks`) releases them only once it is over.
        let hold = self.cfg.commit_wait_holds_locks;
        if kind == CommitKind::Explicit && !hold {
            self.resolve_intents(st.tail(), TxnStatus::Committed, commit_ts);
        }
        self.commit_wait(
            st,
            commit_ts,
            tspan,
            Box::new(move |c, mut st| {
                match kind {
                    CommitKind::ReadOnly => c.m.txn_commits.inc(),
                    CommitKind::Explicit if hold => {
                        c.resolve_intents(st.tail(), TxnStatus::Committed, commit_ts)
                    }
                    CommitKind::Explicit => {}
                    CommitKind::Implicit => {
                        c.end_record(st.tail(), TxnStatus::Committed, commit_ts)
                    }
                }
                c.finish_txn_span(st, true);
                cont(c, Ok(commit_ts));
            }),
        );
    }

    /// Run `f` once every pipelined write has been acknowledged. The
    /// non-parallel commit paths and rollback join the pipeline before
    /// touching the write set.
    fn join_pipeline(&mut self, id: TxnId, f: Box<dyn FnOnce(&mut Cluster)>) {
        match self.txns.get_mut(&id) {
            Some(st) if st.outstanding > 0 => {
                debug_assert!(st.waiter.is_none(), "one pipeline joiner at a time");
                st.waiter = Some(f);
            }
            _ => f(self),
        }
    }

    /// Commit a transaction whose writes were pipelined.
    fn txn_commit_pipelined(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let reput = self.txns[&id].rewrote_sent;
        if !reput && self.cfg.parallel_commits {
            // Parallel commit. The staged timestamp must be one the
            // transaction's reads are valid at: if the write timestamp
            // already moved above the read snapshot (tscache bump,
            // closed-timestamp target), refresh before staging.
            return self.txn_refresh_then(id, tspan, cont, Cluster::txn_stage);
        }
        // Join the in-flight set, then finish two-phase — two consensus
        // rounds. Either a pipelined intent holds a stale value (`reput`: a
        // late old-value Put must not overwrite the fresh one, so every
        // buffered write is re-put after the join), or parallel commits are
        // off (ablation: the intents are in place, nothing left to flush).
        self.join_pipeline(
            id,
            Box::new(move |c| {
                if let Some(st) = c.txns.get_mut(&id) {
                    if let Some(e) = st.failed.take() {
                        return c.abort_after_failure(id, e, cont);
                    }
                    if !reput {
                        st.buffered.clear();
                    }
                }
                c.txn_commit_slow(id, tspan, cont);
            }),
        );
    }

    /// The parallel-commit hinge: write the STAGING record (carrying the
    /// in-flight write set) concurrently with the outstanding pipelined
    /// intents and ack the client once both arms succeed — the transaction
    /// is then *implicitly committed* after a single consensus round. An
    /// explicit EndTxn finalizes the record asynchronously after the ack;
    /// contenders that find the STAGING record first run status recovery
    /// (`staging_recover`) instead of waiting.
    fn txn_stage(&mut self, id: TxnId, tspan: Option<SpanId>, cont: Cont<KvResult<Timestamp>>) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let gateway = st.gateway;
        let meta = st.meta();
        let staged_ts = meta.write_ts;
        let in_flight = st.sent.clone();
        let outstanding = st.outstanding;
        // Every write is in flight as an intent; nothing left to flush.
        st.buffered.clear();
        let now = self.now();
        let tracer = &self.obs.tracer;
        let pspan = tracer.start("txn.pipeline", tspan, now);
        tracer.attr(pspan, "txn", id);
        tracer.attr(pspan, "staged_ts", staged_ts);
        tracer.attr(pspan, "in_flight", in_flight.len());
        tracer.attr(pspan, "outstanding", outstanding);
        self.dist_send(
            gateway,
            RoutingPolicy::Leaseholder,
            Request::StageTxn {
                txn: meta,
                in_flight,
            },
            MAX_ATTEMPTS,
            pspan,
            Box::new(move |c, res: KvResult<Timestamp>| {
                let staged = res.map(|_| ());
                let complete: Box<dyn FnOnce(&mut Cluster)> = Box::new(move |c| {
                    c.stage_complete(id, staged_ts, tspan, pspan, staged, cont);
                });
                if c.injected_bug == Some(InjectedBug::PrematureAck) {
                    // (Injected bug) don't wait for the in-flight writes:
                    // the ack then races replication and a crash can lose
                    // acknowledged writes. The chaos checker must catch this.
                    complete(c);
                } else {
                    c.join_pipeline(id, complete);
                }
            }),
        );
    }

    /// Complete a parallel commit: the STAGING write has reported and the
    /// pipeline has drained.
    fn stage_complete(
        &mut self,
        id: TxnId,
        staged_ts: Timestamp,
        tspan: Option<SpanId>,
        pspan: Option<SpanId>,
        staged: KvResult<()>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let now = self.now();
        self.obs.tracer.finish(pspan, now);
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let (failed, max_written) = (st.failed.take(), st.max_written_ts);
        if let Some(e) = staged.err().or(failed) {
            // The record's fate is unknown (stage timeout, failover), or a
            // pipelined write failed terminally and the STAGING record must
            // not stay recoverable-as-committed: write an explicit ABORT —
            // it beats zombie stage retries and pins any concurrent
            // recovery to one outcome.
            self.txn_abort_staged(id);
            return cont(self, Err(e));
        }
        if max_written > staged_ts {
            // A pipelined write landed above the staged timestamp, so the
            // commit is not implicit. Refresh reads to the higher timestamp
            // and commit explicitly (the restage path — one extra round).
            self.m.parallel_commit_restages.inc();
            self.obs.tracer.event(
                tspan,
                now,
                format_args!("restage: write at {max_written} above staged {staged_ts}"),
            );
            return self.txn_refresh_then(id, tspan, cont, Cluster::txn_send_end);
        }
        // Implicitly committed: STAGING record written and every in-flight
        // write at or below the staged timestamp. Ack after commit wait;
        // make the commit explicit asynchronously.
        self.m.parallel_commit_acks.inc();
        self.txn_committed(id, CommitKind::Implicit, staged_ts, tspan, cont);
    }

    /// Fire-and-forget: finalize a finished transaction's record, then
    /// resolve its intents. The record must finalize *before* any intent
    /// resolves: a recovery that finds the record STAGING probes for the
    /// in-flight intents, and resolving one early would read as "write
    /// lost" and abort a committed transaction. On error — or an abort that
    /// finds the record COMMITTED because a recovery raced it — the intents
    /// stay for the contenders' pushers.
    fn end_record(&mut self, tail: TxnTail, status: TxnStatus, commit_ts: Timestamp) {
        // Track as an op so `run_until_quiescent` covers finalization.
        self.op_started();
        let req = Request::EndTxn {
            txn: tail.meta.clone(),
            commit: status == TxnStatus::Committed,
        };
        self.dist_send(
            tail.gateway,
            RoutingPolicy::Leaseholder,
            req,
            tail.attempts,
            tail.span,
            Box::new(move |c, res: KvResult<Timestamp>| {
                if res.is_ok() {
                    c.resolve_intents(tail, status, commit_ts);
                }
                c.op_finished();
            }),
        );
    }

    /// Abort a transaction whose STAGING record may exist: write an
    /// explicit ABORT record first, then resolve the intents. The client
    /// receives the (possibly ambiguous) error that brought us here.
    fn txn_abort_staged(&mut self, id: TxnId) {
        let Ok(mut st) = self.txn_take(id) else {
            return;
        };
        self.m.txn_restarts.inc();
        let now = self.now();
        self.obs
            .tracer
            .event(st.span, now, "parallel commit failed: aborting");
        self.end_record(st.tail(), TxnStatus::Aborted, Timestamp::ZERO);
        self.finish_txn_span(st, false);
    }

    /// Two-phase commit: flush buffered writes as intents (in parallel),
    /// refresh reads if the write timestamp moved, write the transaction
    /// record, then resolve intents concurrently with commit wait (§6.2).
    fn txn_commit_slow(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let gateway = st.gateway;
        let writes: Vec<(Key, Option<Value>)> = std::mem::take(&mut st.buffered);
        let meta = st.meta();
        if writes.is_empty() {
            // Buffer already flushed (retried fallback): go straight on.
            return self.txn_refresh_then(id, tspan, cont, Cluster::txn_send_end);
        }
        let join = Join::new(
            writes.len(),
            Box::new(move |c, res: KvResult<Vec<()>>| match res {
                Ok(_) => c.txn_refresh_then(id, tspan, cont, Cluster::txn_send_end),
                Err(e) => c.abort_after_failure(id, e, cont),
            }),
        );
        for (i, (key, value)) in writes.into_iter().enumerate() {
            let join = join.clone();
            let record_key = key.clone();
            self.dist_send(
                gateway,
                RoutingPolicy::Leaseholder,
                Request::Put {
                    txn: meta.clone(),
                    key,
                    value,
                },
                MAX_ATTEMPTS,
                tspan,
                Box::new(move |c, res| {
                    let res = res.map(|written_ts| {
                        // Gone once a sibling write failed: acks after the
                        // first failure tell nobody.
                        if let Some(st) = c.txns.get_mut(&id) {
                            st.write_ts = st.write_ts.forward(written_ts);
                            st.intents.push(record_key);
                        }
                    });
                    join.arrive(c, i, res);
                }),
            );
        }
    }

    /// Run `then` once the transaction's reads are valid at its write
    /// timestamp: at once if the timestamp never moved above the read
    /// snapshot, else after a refresh (whose failure aborts the
    /// transaction and answers `cont`).
    fn txn_refresh_then(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
        then: fn(&mut Cluster, TxnId, Option<SpanId>, Cont<KvResult<Timestamp>>),
    ) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let (read_ts, write_ts) = (st.read_ts, st.write_ts);
        if write_ts > read_ts {
            self.txn_refresh_reads(
                id,
                write_ts,
                Box::new(move |c, r| match r {
                    Ok(()) => then(c, id, tspan, cont),
                    Err(e) => cont(c, Err(e)),
                }),
            );
        } else {
            then(self, id, tspan, cont);
        }
    }

    /// With every intent in place and the reads valid at the write
    /// timestamp: write the COMMITTED record.
    fn txn_send_end(&mut self, id: TxnId, tspan: Option<SpanId>, cont: Cont<KvResult<Timestamp>>) {
        let st = match self.txn_open(id) {
            Ok(st) => st,
            Err(e) => return cont(self, Err(e)),
        };
        let gateway = st.gateway;
        let req = Request::EndTxn {
            txn: st.meta(),
            commit: true,
        };
        self.dist_send(
            gateway,
            RoutingPolicy::Leaseholder,
            req,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(commit_ts) => {
                    c.txn_committed(id, CommitKind::Explicit, commit_ts, tspan, cont);
                }
                Err(e) => c.abort_after_failure(id, e, cont),
            }),
        );
    }

    /// Fire-and-forget intent resolution for every write of a finished
    /// transaction: the one resolve fan-out, for its coordinator and for a
    /// pusher that found it final alike.
    fn resolve_intents(&mut self, tail: TxnTail, status: TxnStatus, commit_ts: Timestamp) {
        for key in tail.intents {
            let req = Request::ResolveIntent {
                key,
                txn_id: tail.meta.id,
                status,
                commit_ts,
            };
            self.dist_send(
                tail.gateway,
                RoutingPolicy::Leaseholder,
                req,
                tail.attempts,
                tail.span,
                Box::new(|_, _: KvResult<()>| {}),
            );
        }
    }

    /// Delay `f` until the transaction's gateway HLC exceeds `ts` (no-op
    /// when already past), charging the wait to its attribution. This is
    /// the §6.2 commit wait: local-clock-only, unlike Spanner's wait for
    /// global clock consensus.
    fn commit_wait(
        &mut self,
        mut st: TxnState,
        ts: Timestamp,
        parent: Option<SpanId>,
        f: Box<dyn FnOnce(&mut Cluster, TxnState)>,
    ) {
        let gateway = st.gateway;
        let wait_start = self.now();
        let wait = self.node(gateway).hlc.time_until_passed(ts, wait_start);
        if wait == SimDuration::ZERO {
            return f(self, st);
        }
        self.m.commit_waits.inc();
        self.m.commit_wait_nanos.add(wait.nanos());
        self.m.commit_wait_latency.record(wait.nanos());
        let span = self.obs.tracer.start("txn.commit_wait", parent, wait_start);
        self.obs.tracer.attr(span, "commit_ts", ts);
        self.obs.tracer.attr(span, "wait_nanos", wait.nanos());
        self.schedule(
            wait,
            Box::new(move |c| {
                let now = c.now();
                c.obs.tracer.finish(span, now);
                st.attr.charge(Component::CommitWait, wait_start, now);
                // §6.2 correctness hinges on the wait being long enough:
                // once it elapses, the gateway clock must have passed the
                // (future-time) commit timestamp, so no later reader can
                // see the value before real time reaches it.
                let remaining = c.node(gateway).hlc.time_until_passed(ts, now);
                c.obs.monitors.check(
                    &c.obs.registry,
                    "commit_wait",
                    now,
                    remaining == SimDuration::ZERO,
                    || {
                        format!(
                            "commit wait at n{} ended {} ns before clock passed commit ts {ts}",
                            gateway.0,
                            remaining.nanos()
                        )
                    },
                );
                f(c, st)
            }),
        );
    }

    // ------------------------------------------------------------------
    // Internals: the transaction-record pusher
    // ------------------------------------------------------------------

    /// A request parked behind `holder`'s lock on `key`. Start (at most one
    /// per blocked key) a pusher that periodically asks the holder's anchor
    /// range for its disposition; if the holder has finalized — e.g. its
    /// coordinator died after committing — the pusher resolves the intent
    /// itself, unblocking the queue. While the holder is still `Pending`
    /// the waiters simply keep waiting (CRDB's behaviour without deadlock
    /// detection; our workloads are single-key or key-ordered).
    pub(crate) fn start_pusher(&mut self, node: NodeId, range: RangeId, key: Key, holder: TxnMeta) {
        if !self.active_pushers.insert((range, key.clone())) {
            return;
        }
        let p = Pusher {
            node,
            range,
            key,
            holder,
        };
        let delay = SimDuration::from_millis(100);
        self.schedule(delay, Box::new(move |c| c.pusher_tick(p, 0)));
    }

    /// Pushes a holder found `Pending` this many times (at 1s apart) are
    /// escalated to an abort: the holder's coordinator is presumed dead —
    /// CRDB's expired-heartbeat push. Without this, an intent whose
    /// coordinator gave up before writing any record (its cleanup exhausted
    /// its retries during a leadership change) blocks waiters forever.
    const PUSH_EXPIRY_ROUNDS: u32 = 5;

    /// The holder's record is final: stop pushing, and resolve the blocked
    /// key and the holder's `in_flight` writes with the record's status, on
    /// the holder's behalf — from the blocked node, outside any trace.
    fn pusher_resolve(
        &mut self,
        p: Pusher,
        mut in_flight: Vec<Key>,
        status: TxnStatus,
        commit_ts: Timestamp,
    ) {
        self.active_pushers.remove(&(p.range, p.key.clone()));
        if !in_flight.contains(&p.key) {
            in_flight.push(p.key);
        }
        let tail = TxnTail {
            meta: p.holder,
            gateway: p.node,
            span: None,
            intents: in_flight,
            attempts: PUSH_ATTEMPTS,
        };
        self.resolve_intents(tail, status, commit_ts);
    }

    /// Push again in a second, starting a fresh round count.
    fn repush(&mut self, p: Pusher) {
        self.schedule(
            SimDuration::from_millis(1_000),
            Box::new(move |c| c.pusher_tick(p, 0)),
        );
    }

    fn pusher_tick(&mut self, p: Pusher, rounds: u32) {
        // Stop when the block is gone, this replica lost the lease, or the
        // node died. A replica that range surgery removed has answered its
        // waiters; a dead node's are left to the RPC timeout.
        let still_leaseholder = self
            .registry()
            .get(p.range)
            .is_some_and(|d| d.leaseholder == p.node);
        let still_blocked = self.node(p.node).replicas.get(&p.range).is_some_and(|r| {
            r.locks.holder(&p.key).map(|h| h.id) == Some(p.holder.id)
                || r.store.intent(&p.key).map(|i| i.txn.id) == Some(p.holder.id)
        });
        if !still_blocked || !still_leaseholder || !self.topology().is_node_alive(p.node) {
            self.active_pushers.remove(&(p.range, p.key));
            return;
        }
        let push = Request::PushTxn {
            pushee: p.holder.id,
            anchor: p.holder.anchor.clone(),
        };
        self.dist_send(
            p.node,
            RoutingPolicy::Leaseholder,
            push,
            PUSH_ATTEMPTS,
            None,
            Box::new(move |c, res| match res {
                Ok((status @ (TxnStatus::Committed | TxnStatus::Aborted), commit_ts, _)) => {
                    // The holder finalized: resolve its intent ourselves.
                    c.pusher_resolve(p, Vec::new(), status, commit_ts);
                }
                Ok((TxnStatus::Staging, staged_ts, in_flight)) => {
                    // The holder staged a parallel commit but its coordinator
                    // hasn't finalized (it may be dead): run status recovery.
                    c.staging_recover(p, staged_ts, in_flight);
                }
                Ok((TxnStatus::Pending, ..)) if rounds + 1 >= Self::PUSH_EXPIRY_ROUNDS => {
                    // No record after repeated pushes: the coordinator is
                    // presumed dead, its intents abandoned. Finalize the
                    // holder as aborted through the RecoverTxn apply-time
                    // CAS — `staged_ts` ZERO can never match a genuine
                    // STAGING record (staged timestamps are real HLC
                    // readings), so a coordinator racing this abort with a
                    // stage or commit wins or loses by log order, and the
                    // record's authoritative disposition drives resolution.
                    c.recover_finalize(p, Timestamp::ZERO, false, Vec::new(), None);
                }
                _ => {
                    // Still pending (or push failed): try again later.
                    c.schedule(
                        SimDuration::from_millis(1_000),
                        Box::new(move |c2| c2.pusher_tick(p, rounds + 1)),
                    );
                }
            }),
        );
    }

    /// Status recovery for a transaction found in STAGING (§ parallel
    /// commits). Probe every in-flight write with QueryIntent at the staged
    /// timestamp: if all landed, the transaction is implicitly committed and
    /// we finalize it as COMMITTED; if any is missing, the probe's timestamp
    /// -cache bump guarantees it can never land at or below the staged
    /// timestamp, so the transaction can be finalized as ABORTED. Exactly
    /// one outcome wins: RecoverTxn is an apply-time CAS on the record.
    fn staging_recover(&mut self, p: Pusher, staged_ts: Timestamp, in_flight: Vec<Key>) {
        self.m.staging_recoveries.inc();
        let now = self.now();
        let tracer = &self.obs.tracer;
        let rspan = tracer.start("txn.staging_recovery", None, now);
        tracer.attr(rspan, "txn", p.holder.id);
        tracer.attr(rspan, "staged_ts", staged_ts);
        tracer.attr(rspan, "in_flight", in_flight.len());
        let (node, txn_id) = (p.node, p.holder.id);
        if in_flight.is_empty() {
            // Nothing was in flight when the record staged: implicit commit.
            self.recover_finalize(p, staged_ts, true, in_flight, rspan);
            return;
        }
        let probe_keys = in_flight.clone();
        let join = Join::new(
            in_flight.len(),
            Box::new(move |c, Ok(found): Result<Vec<Option<bool>>, Infallible>| {
                if found.contains(&Some(false)) {
                    // A definitive miss trumps probe errors: the
                    // QueryIntent miss bumped the timestamp cache, so
                    // the write can never land below the staged ts.
                    c.recover_finalize(p, staged_ts, false, in_flight, rspan);
                } else if found.contains(&None) {
                    // Inconclusive: retry the push later.
                    let now = c.now();
                    c.obs.tracer.event(rspan, now, "probe inconclusive; retry");
                    c.obs.tracer.finish(rspan, now);
                    c.repush(p);
                } else {
                    c.recover_finalize(p, staged_ts, true, in_flight, rspan);
                }
            }),
        );
        // Every probe reports — `Some(found)`, or `None` if it errored — so
        // the join waits for all of them.
        for (i, key) in probe_keys.into_iter().enumerate() {
            let join = join.clone();
            let probe = Request::QueryIntent {
                key,
                txn_id,
                ts: staged_ts,
            };
            self.dist_send(
                node,
                RoutingPolicy::Leaseholder,
                probe,
                PUSH_ATTEMPTS,
                rspan,
                Box::new(move |c, res: KvResult<bool>| join.arrive(c, i, Ok(res.ok()))),
            );
        }
    }

    /// Write the recovery verdict through RecoverTxn and resolve the
    /// holder's intents with whatever status the record actually finalized
    /// to (the coordinator may have won the race with a different verdict).
    /// The verdict goes out once: a re-send could land after the
    /// coordinator's re-put moved the intent, committing on stale evidence,
    /// so an error sends the pusher back to a fresh `QueryIntent` instead.
    fn recover_finalize(
        &mut self,
        p: Pusher,
        staged_ts: Timestamp,
        commit: bool,
        in_flight: Vec<Key>,
        rspan: Option<SpanId>,
    ) {
        let recover = Request::RecoverTxn {
            txn_id: p.holder.id,
            anchor: p.holder.anchor.clone(),
            staged_ts,
            commit,
        };
        self.dist_send(
            p.node,
            RoutingPolicy::Leaseholder,
            recover,
            0,
            rspan,
            Box::new(move |c, res| {
                let now = c.now();
                match res {
                    Ok((status, commit_ts)) if status.is_finalized() => {
                        if status == TxnStatus::Committed {
                            c.m.staging_recovery_commits.inc();
                        } else {
                            c.m.staging_recovery_aborts.inc();
                        }
                        c.obs
                            .tracer
                            .attr(rspan, "outcome", format_args!("{status:?}"));
                        c.obs.tracer.finish(rspan, now);
                        // The *record's* status is authoritative even if it
                        // differs from our verdict.
                        c.pusher_resolve(p, in_flight, status, commit_ts);
                    }
                    Ok(_) => {
                        // The record re-staged at a new timestamp (the
                        // coordinator is alive and restarting the commit):
                        // back off and push again.
                        c.obs.tracer.event(rspan, now, "record re-staged; retry");
                        c.obs.tracer.finish(rspan, now);
                        c.repush(p);
                    }
                    Err(_) => {
                        c.obs.tracer.event(rspan, now, "recover failed; retry");
                        c.obs.tracer.finish(rspan, now);
                        c.repush(p);
                    }
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use mr_sim::{RegionId, RttMatrix, SimTime, Topology};

    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::zone::ZoneConfig;

    fn kv(k: &str, v: &str) -> (Key, Value) {
        (Key::from(k), Value::from(v))
    }

    #[test]
    fn overlay_replaces_adds_and_deletes() {
        let span = Span::new(Key::from("a"), Key::from("z"));
        let rows = vec![kv("b", "old_b"), kv("d", "old_d"), kv("f", "old_f")];
        let buffered: Vec<(Key, Option<Value>)> = vec![
            (Key::from("b"), Some(Value::from("new_b"))), // replace
            (Key::from("c"), Some(Value::from("new_c"))), // add
            (Key::from("d"), None),                       // delete
            (Key::from("zz"), Some(Value::from("out"))),  // outside span
        ];
        let out = overlay_buffer(rows, &buffered, &span);
        let keys: Vec<&[u8]> = out.iter().map(|(k, _)| k.as_slice()).collect();
        assert_eq!(keys, vec![b"b".as_slice(), b"c", b"f"]);
        assert_eq!(out[0].1, Value::from("new_b"));
        assert_eq!(out[1].1, Value::from("new_c"));
        assert_eq!(out[2].1, Value::from("old_f"));
    }

    #[test]
    fn overlay_noop_without_relevant_buffer() {
        let span = Span::new(Key::from("a"), Key::from("m"));
        let rows = vec![kv("b", "x")];
        let buffered = vec![(Key::from("q"), Some(Value::from("y")))];
        let out = overlay_buffer(rows.clone(), &buffered, &span);
        assert_eq!(out, rows);
    }

    /// 3 regions × 3 nodes at 60ms RTT with two ranges: keys below "m" homed
    /// in region 0, the rest in region 1 — so a transaction writing "a" and
    /// "n" is multi-range.
    fn two_range_cluster() -> Cluster {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions()[..3],
            3,
            RttMatrix::uniform(3, SimDuration::from_millis(60)),
        );
        let mut c = Cluster::new(topo, ClusterConfig::default());
        let split = Key::from("m");
        c.create_range(
            Span::new(Key::MIN, split.clone()),
            ZoneConfig::single_region(RegionId(0)),
        )
        .unwrap();
        c.create_range(
            Span::new(split, Key::default()),
            ZoneConfig::single_region(RegionId(1)),
        )
        .unwrap();
        c
    }

    const GATEWAY: NodeId = NodeId(0);

    fn quiesce(c: &mut Cluster) {
        c.run_until_quiescent(SimTime(SimDuration::from_secs(600).nanos()));
    }

    type Slot<T> = Rc<RefCell<Option<T>>>;

    /// A slot a continuation fills and the test reads back.
    fn slot<T: 'static>() -> (Slot<T>, Cont<T>) {
        let out = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        (out, Box::new(move |_, v| *o2.borrow_mut() = Some(v)))
    }

    fn taken<T>(slot: &Slot<T>) -> T {
        slot.borrow_mut().take().expect("continuation fired")
    }

    fn is_aborted<T>(res: KvResult<T>, h: TxnHandle) -> bool {
        matches!(res, Err(KvError::TxnAborted { id }) if id == h.id)
    }

    fn put(c: &mut Cluster, h: TxnHandle, key: &str) {
        let (res, cont) = slot();
        c.txn_put(h, Key::from(key), Some(Value::from("v")), cont);
        assert!(taken(&res).is_ok(), "puts return before they replicate");
    }

    fn commit(c: &mut Cluster, h: TxnHandle) -> KvResult<Timestamp> {
        let (res, cont) = slot();
        c.txn_commit(h, cont);
        quiesce(c);
        taken(&res)
    }

    /// A fresh standalone read: bumps `key`'s timestamp cache to now.
    fn read_now(c: &mut Cluster, key: &str) {
        let (res, cont) = slot();
        c.read(NodeId(3), Key::from(key), ReadOptions::default(), cont);
        quiesce(c);
        assert!(taken(&res).is_ok());
    }

    #[test]
    fn finished_transactions_leave_the_map() {
        let mut c = two_range_cluster();

        // Read-only commit.
        let h = c.txn_begin(GATEWAY);
        let (got, cont) = slot();
        c.txn_get(h, Key::from("a"), cont);
        quiesce(&mut c);
        assert!(matches!(taken(&got), Ok(None)));
        assert_eq!(c.txns.len(), 1, "open while the client holds it");
        commit(&mut c, h).unwrap();
        assert!(c.txns.is_empty(), "read-only commit");

        // One-phase commit (writes buffered until commit, one range).
        c.cfg.pipelined_writes = false;
        let h = c.txn_begin(GATEWAY);
        put(&mut c, h, "a");
        commit(&mut c, h).unwrap();
        assert!(c.txns.is_empty(), "1PC commit");
        c.cfg.pipelined_writes = true;

        // Parallel commit: the state is gone when the client is acked,
        // while the make-explicit EndTxn is still to be sent and answered.
        let h = c.txn_begin(GATEWAY);
        put(&mut c, h, "a");
        put(&mut c, h, "n");
        let (acked, cont) = slot();
        c.txn_commit(
            h,
            Box::new(move |c, res| {
                let at_ack = (c.txns.is_empty(), c.outstanding_ops());
                cont(c, res.map(|_| at_ack));
            }),
        );
        quiesce(&mut c);
        // (The one operation outstanding at the ack was that tail.)
        assert!(matches!(taken(&acked), Ok((true, 1))));
        assert_eq!(c.metrics().parallel_commit_acks.get(), 1);
        assert!(c.txns.is_empty(), "parallel commit and its async tail");

        // Restage: a read bumps "n"'s timestamp cache above the open
        // transaction's snapshot, so its pipelined write lands above the
        // staged timestamp and the commit finishes explicitly.
        let h = c.txn_begin(GATEWAY);
        read_now(&mut c, "n");
        put(&mut c, h, "a");
        put(&mut c, h, "n");
        commit(&mut c, h).unwrap();
        assert_eq!(c.metrics().parallel_commit_restages.get(), 1);
        assert!(c.txns.is_empty(), "restaged commit");

        // Rollback with pipelined writes outstanding: the entry stays while
        // it waits for them (accepting nothing), then goes.
        let h = c.txn_begin(GATEWAY);
        put(&mut c, h, "a");
        put(&mut c, h, "n");
        let (rolled, cont) = slot();
        c.txn_rollback(h, cont);
        assert!(rolled.borrow().is_none(), "waits for the in-flight Puts");
        assert_eq!(c.txns.len(), 1);
        let (res, cont) = slot();
        c.txn_get(h, Key::from("b"), cont);
        assert!(is_aborted(taken(&res), h));
        quiesce(&mut c);
        assert!(taken(&rolled).is_ok());
        assert!(c.txns.is_empty(), "rollback");

        // Refresh failure: the transaction read "a", another one overwrote
        // it, and its own write to "n" was pushed above its snapshot.
        let h = c.txn_begin(GATEWAY);
        let (got, cont) = slot();
        c.txn_get(h, Key::from("a"), cont);
        quiesce(&mut c);
        assert!(matches!(taken(&got), Ok(Some(_))));
        let other = c.txn_begin(NodeId(3));
        put(&mut c, other, "a");
        commit(&mut c, other).unwrap();
        read_now(&mut c, "n");
        put(&mut c, h, "n");
        let failures = c.metrics().refresh_failures.get();
        assert!(commit(&mut c, h).is_err());
        assert_eq!(c.metrics().refresh_failures.get(), failures + 1);
        assert!(c.txns.is_empty(), "refresh-failure abort");
    }

    #[test]
    fn use_after_finish_is_txn_aborted_and_unknown_id_is_not_found() {
        let mut c = two_range_cluster();
        let h = c.txn_begin(GATEWAY);
        put(&mut c, h, "a");
        commit(&mut c, h).unwrap();

        let (res, cont) = slot();
        c.txn_get(h, Key::from("a"), cont);
        assert!(is_aborted(taken(&res), h));
        let (res, cont) = slot();
        c.txn_scan(h, Span::all(), 10, cont);
        assert!(is_aborted(taken(&res), h));
        let (res, cont) = slot();
        c.txn_put(h, Key::from("a"), None, cont);
        assert!(is_aborted(taken(&res), h));
        let (res, cont) = slot();
        c.txn_commit(h, cont);
        assert!(is_aborted(taken(&res), h));
        // Rolling back what is already over has nothing to undo.
        let (res, cont) = slot();
        c.txn_rollback(h, cont);
        assert!(taken(&res).is_ok());

        // An id that was never issued is a different error.
        let never = TxnHandle {
            id: TxnId(c.next_txn),
            ..h
        };
        let (res, cont) = slot();
        c.txn_get(never, Key::from("a"), cont);
        assert!(matches!(taken(&res), Err(KvError::TxnNotFound { id }) if id == never.id));
        assert!(c.txns.is_empty(), "errors leave no residue");
        assert_eq!(c.outstanding_ops(), 0);
    }
}
