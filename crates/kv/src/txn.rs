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

use std::cell::RefCell;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_obs::SpanId;
use mr_proto::{Key, KvError, ReadCtx, Request, Response, Span, TxnId, TxnMeta, TxnStatus, Value};
use mr_sim::{NodeId, SimDuration, SimTime};

use crate::attribution::{AttrAcc, Component, TxnAttrRecord, COMPONENTS};
use crate::cluster::{Cluster, Cont, InjectedBug, KvResult, ReadOptions, Staleness};
use crate::zone::ClosedTsPolicy;

/// Maximum transparent re-routes before an error surfaces to the caller.
const MAX_ATTEMPTS: u8 = 16;

/// A client's handle to an open transaction.
#[derive(Clone, Copy, Debug)]
pub struct TxnHandle {
    pub id: TxnId,
    pub gateway: NodeId,
}

/// Coordinator-side tracking of pipelined (in-flight) intent writes: Put
/// RPCs issued at statement time that the commit must join (§ write
/// pipelining / parallel commits).
pub(crate) struct PipelineState {
    /// Pipelined Put RPCs issued but not yet acknowledged.
    outstanding: usize,
    /// Highest timestamp an acknowledged pipelined write landed at.
    max_written_ts: Timestamp,
    /// First terminal error a pipelined write reported.
    failed: Option<KvError>,
    /// Continuation armed by commit/rollback, fired when `outstanding`
    /// drains to zero.
    waiter: Option<Box<dyn FnOnce(&mut Cluster)>>,
}

impl Default for PipelineState {
    fn default() -> Self {
        PipelineState {
            outstanding: 0,
            max_written_ts: Timestamp::ZERO,
            failed: None,
            waiter: None,
        }
    }
}

/// Join of the two arms of a parallel commit: the STAGING record write and
/// the outstanding pipelined intents.
struct StageJoin {
    stage: Option<KvResult<Timestamp>>,
    puts_done: bool,
    cont: Option<Cont<KvResult<Timestamp>>>,
}

/// Coordinator-side transaction state.
pub(crate) struct TxnState {
    pub id: TxnId,
    pub gateway: NodeId,
    /// MVCC snapshot the transaction reads at.
    pub read_ts: Timestamp,
    /// Fixed upper bound of the uncertainty interval (does not move on
    /// restarts within the same transaction, §6.1).
    pub uncertainty_limit: Timestamp,
    /// Provisional commit timestamp.
    pub write_ts: Timestamp,
    /// Anchor key of the transaction record (first write).
    pub anchor: Option<Key>,
    /// Read spans with the timestamp at which each was (last) validated.
    pub reads: Vec<(Span, Timestamp)>,
    /// Keys with intents laid down (two-phase path only).
    pub intents: Vec<Key>,
    /// Writes buffered at the coordinator until commit (CRDB-style write
    /// buffering enabling the 1PC fast path). Last write per key wins.
    pub buffered: Vec<(Key, Option<Value>)>,
    pub epoch: u32,
    pub finished: bool,
    /// The transaction's trace span (operation spans nest under it).
    pub span: Option<SpanId>,
    /// In-flight pipelined writes (`cfg.pipelined_writes`).
    pub pipeline: Rc<RefCell<PipelineState>>,
    /// Keys with a pipelined intent write issued — the in-flight write set
    /// a parallel commit stages.
    pub sent: Vec<Key>,
    /// A sent key was written again: its issued intent holds a stale value,
    /// so commit falls back to re-putting every buffered write.
    pub rewrote_sent: bool,
    /// Latency attribution accumulator (RPC / replication / lock-wait /
    /// commit-wait / retry components, watermark-unioned).
    pub attr: AttrAcc,
    /// Whether the transaction reached a commit (vs abort/rollback).
    pub committed: bool,
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

/// How to pick the serving replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RouteMode {
    Leaseholder,
    Nearest,
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
        if span.is_some() {
            self.obs.tracer.attr(span, "txn", format!("{id}"));
            self.obs
                .tracer
                .attr(span, "gateway", format!("n{}", gateway.0));
            self.obs.tracer.attr(
                span,
                "gateway_region",
                self.region_name_of(gateway).to_string(),
            );
        }
        self.txns.insert(
            id,
            Box::new(TxnState {
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
                finished: false,
                span,
                pipeline: Rc::new(RefCell::new(PipelineState::default())),
                sent: Vec::new(),
                rewrote_sent: false,
                attr: AttrAcc::new(self.now()),
                committed: false,
                ranges: Vec::new(),
            }),
        );
        TxnHandle { id, gateway }
    }

    /// Transactional point read.
    pub fn txn_get(&mut self, h: TxnHandle, key: Key, cont: Cont<KvResult<Option<Value>>>) {
        let policy = self.policy_of(&key);
        let parent = self.txn_span(h.id);
        let (span, cont) = self.instrument_op("kv.get", policy, h.gateway, parent, cont);
        self.txn_get_inner(h.id, key, span, cont);
    }

    /// Transactional scan (bounded by `max_keys`).
    pub fn txn_scan(
        &mut self,
        h: TxnHandle,
        span: Span,
        max_keys: usize,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        let policy = self.policy_of(&span.start);
        let parent = self.txn_span(h.id);
        let (tspan, cont) = self.instrument_op("kv.scan", policy, h.gateway, parent, cont);
        self.txn_scan_inner(h.id, span, max_keys, tspan, cont);
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
        let parent = self.txn_span(h.id);
        let (_, cont) = self.instrument_op("kv.put", policy, h.gateway, parent, cont);
        self.txn_put_inner(h.id, key, value, cont);
    }

    /// Commit. Returns the commit timestamp after any required read
    /// refresh, the EndTxn round-trip, and commit wait.
    pub fn txn_commit(&mut self, h: TxnHandle, cont: Cont<KvResult<Timestamp>>) {
        // Label commit latency by the policy of the written ranges: a
        // lead-policy key anywhere makes this a global transaction (§6.2).
        let policy = match self.txns.get(&h.id) {
            Some(st) if st.buffered.is_empty() && st.intents.is_empty() => "ro",
            Some(st) => {
                let key = st.buffered.first().map(|(k, _)| k.clone());
                match key {
                    Some(k) => self.policy_of(&k),
                    None => "ro",
                }
            }
            None => "ro",
        };
        let parent = self.txn_span(h.id);
        let (span, cont) = self.instrument_op("kv.commit", policy, h.gateway, parent, cont);
        self.txn_commit_inner(h.id, span, cont);
    }

    /// Abort, resolving any intents.
    pub fn txn_rollback(&mut self, h: TxnHandle, cont: Cont<KvResult<()>>) {
        let parent = self.txn_span(h.id);
        let (_, cont) = self.instrument_op("kv.rollback", "none", h.gateway, parent, cont);
        let Some(st) = self.txns.get_mut(&h.id) else {
            cont(self, Ok(()));
            return;
        };
        if st.finished {
            cont(self, Ok(()));
            return;
        }
        st.finished = true;
        self.m.txn_aborts.inc();
        let id = h.id;
        // Join any in-flight pipelined writes before resolving: resolving a
        // key whose Put is still in flight would race and orphan the intent.
        self.join_pipeline(
            id,
            Box::new(move |c| {
                c.finalize_intents(id, TxnStatus::Aborted, Timestamp::ZERO);
                c.finish_txn_span(id);
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
        match opts.staleness {
            Staleness::Fresh => {
                let h = self.txn_begin(gateway);
                self.txn_get(
                    h,
                    key,
                    Box::new(move |c, res| match res {
                        Ok(v) => c.txn_commit(
                            h,
                            Box::new(move |c2, cres| match cres {
                                Ok(_) => cont(c2, Ok(v)),
                                Err(e) => cont(c2, Err(e)),
                            }),
                        ),
                        Err(e) => {
                            c.txn_rollback(h, Box::new(move |c2, _| cont(c2, Err(e))));
                        }
                    }),
                );
            }
            Staleness::ExactAt(ts) => {
                let (span, cont) = self.instrument_read(gateway, "kv.read.stale", &key, cont);
                self.stale_read_at(gateway, key, ts, span, cont);
            }
            Staleness::ExactAgo(ago) => {
                let now = self.hlc_now(gateway);
                let ts = Timestamp::new(now.wall.saturating_sub(ago.nanos()), 0);
                let (span, cont) = self.instrument_read(gateway, "kv.read.stale", &key, cont);
                self.stale_read_at(gateway, key, ts, span, cont);
            }
            Staleness::BoundedMaxStaleness(bound) => {
                let now = self.hlc_now(gateway);
                let min_ts = Timestamp::new(now.wall.saturating_sub(bound.nanos()), 0);
                let (span, cont) = self.instrument_read(gateway, "kv.read.bounded", &key, cont);
                self.bounded_staleness_read(gateway, key, min_ts, opts, span, cont);
            }
            Staleness::BoundedMinTimestamp(min_ts) => {
                let (span, cont) = self.instrument_read(gateway, "kv.read.bounded", &key, cont);
                self.bounded_staleness_read(gateway, key, min_ts, opts, span, cont);
            }
        }
    }

    /// Instrument a standalone stale read/scan under the ambient parent.
    fn instrument_read<T: 'static>(
        &mut self,
        gateway: NodeId,
        op: &'static str,
        key: &Key,
        cont: Cont<KvResult<T>>,
    ) -> (Option<SpanId>, Cont<KvResult<T>>) {
        let policy = self.policy_of(key);
        let parent = self.trace_parent;
        self.instrument_op(op, policy, gateway, parent, cont)
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
        match opts.staleness {
            Staleness::Fresh => {
                let h = self.txn_begin(gateway);
                self.txn_scan(
                    h,
                    span,
                    max_keys,
                    Box::new(move |c, res| match res {
                        Ok(rows) => c.txn_commit(
                            h,
                            Box::new(move |c2, cres| match cres {
                                Ok(_) => cont(c2, Ok(rows)),
                                Err(e) => cont(c2, Err(e)),
                            }),
                        ),
                        Err(e) => {
                            c.txn_rollback(h, Box::new(move |c2, _| cont(c2, Err(e))));
                        }
                    }),
                );
            }
            Staleness::ExactAt(ts) => {
                let (tspan, cont) =
                    self.instrument_read(gateway, "kv.scan.stale", &span.start, cont);
                self.stale_scan_at(gateway, span, ts, max_keys, tspan, cont);
            }
            Staleness::ExactAgo(ago) => {
                let now = self.hlc_now(gateway);
                let ts = Timestamp::new(now.wall.saturating_sub(ago.nanos()), 0);
                let (tspan, cont) =
                    self.instrument_read(gateway, "kv.scan.stale", &span.start, cont);
                self.stale_scan_at(gateway, span, ts, max_keys, tspan, cont);
            }
            Staleness::BoundedMaxStaleness(bound) => {
                let now_ts = self.hlc_now(gateway);
                let min_ts = Timestamp::new(now_ts.wall.saturating_sub(bound.nanos()), 0);
                let (tspan, cont) =
                    self.instrument_read(gateway, "kv.scan.bounded", &span.start, cont);
                self.bounded_scan(gateway, span, min_ts, now_ts, max_keys, tspan, cont);
            }
            Staleness::BoundedMinTimestamp(min_ts) => {
                let now_ts = self.hlc_now(gateway);
                let (tspan, cont) =
                    self.instrument_read(gateway, "kv.scan.bounded", &span.start, cont);
                self.bounded_scan(gateway, span, min_ts, now_ts, max_keys, tspan, cont);
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bounded_scan(
        &mut self,
        gateway: NodeId,
        span: Span,
        min_ts: Timestamp,
        now_ts: Timestamp,
        max_keys: usize,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        let negotiate = Request::Negotiate {
            spans: vec![span.clone()],
        };
        let start = span.start.clone();
        self.dist_send(
            gateway,
            start,
            RouteMode::Nearest,
            negotiate,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Negotiate { max_safe_ts }) => {
                    let chosen = max_safe_ts.min(now_ts).forward(min_ts);
                    c.stale_scan_at(gateway, span, chosen, max_keys, tspan, cont);
                }
                Ok(_) => unreachable!("negotiate returned unexpected response"),
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    fn stale_scan_at(
        &mut self,
        gateway: NodeId,
        span: Span,
        ts: Timestamp,
        max_keys: usize,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        let rctx = ReadCtx::stale(ts);
        let start = span.start.clone();
        self.dist_send(
            gateway,
            start,
            RouteMode::Nearest,
            Request::Scan {
                ctx: rctx,
                span,
                max_keys,
            },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Scan { rows }) => cont(c, Ok(rows)),
                Ok(_) => unreachable!("scan returned non-scan response"),
                Err(e) => cont(c, Err(e)),
            }),
        );
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
        op: &'static str,
        policy: &'static str,
        gateway: NodeId,
        parent: Option<SpanId>,
        cont: Cont<KvResult<T>>,
    ) -> (Option<SpanId>, Cont<KvResult<T>>) {
        self.op_started();
        let start = self.now();
        let span = self.obs.tracer.start(op, parent, start);
        if span.is_some() {
            self.obs
                .tracer
                .attr(span, "gateway", format!("n{}", gateway.0));
            self.obs.tracer.attr(
                span,
                "gateway_region",
                self.region_name_of(gateway).to_string(),
            );
            self.obs.tracer.attr(span, "policy", policy);
        }
        let wrapped: Cont<KvResult<T>> = Box::new(move |c, v| {
            c.op_finished();
            let now = c.now();
            match &v {
                Ok(_) => {
                    let region = c.region_name_of(gateway).to_string();
                    c.obs
                        .registry
                        .histogram(
                            "kv.op.latency",
                            &[("op", op), ("policy", policy), ("region", &region)],
                        )
                        .record((now - start).nanos());
                    c.obs.tracer.attr(span, "result", "ok");
                }
                Err(e) => c.obs.tracer.attr(span, "result", format!("err: {e}")),
            }
            c.obs.tracer.finish(span, now);
            cont(c, v);
        });
        (span, wrapped)
    }

    /// The closed-timestamp policy label for the range covering `key`.
    fn policy_of(&self, key: &Key) -> &'static str {
        match self.registry().lookup(key) {
            Some(d) => match d.zone_config.closed_ts_policy {
                ClosedTsPolicy::Lead => "lead",
                ClosedTsPolicy::Lag => "lag",
            },
            None => "none",
        }
    }

    /// The trace span of an open transaction, if any.
    pub(crate) fn txn_span(&self, id: TxnId) -> Option<SpanId> {
        self.txns.get(&id).and_then(|st| st.span)
    }

    /// Close a transaction's span once it reaches a terminal state, and
    /// roll its latency attribution up into histograms, span attributes,
    /// and the slow-transaction log.
    fn finish_txn_span(&mut self, id: TxnId) {
        let span = self.txn_span(id);
        let now = self.now();
        self.finalize_txn_attr(id, now);
        self.obs.tracer.finish(span, now);
    }

    /// One-shot attribution rollup for a finished transaction. Straggler
    /// RPCs completing after this (an aborted pipeline's in-flight writes)
    /// no longer charge the accumulator.
    fn finalize_txn_attr(&mut self, id: TxnId, now: SimTime) {
        let Some(st) = self.txns.get_mut(&id) else {
            return;
        };
        if st.attr.is_done() {
            return;
        }
        let start = st.attr.start();
        let breakdown = st.attr.finalize(now);
        let (gateway, span, committed) = (st.gateway, st.span, st.committed);
        let ranges = st.ranges.clone();
        for (c, n) in COMPONENTS.iter().zip(breakdown.comp_nanos.iter()) {
            self.obs
                .registry
                .histogram("kv.txn.attr.latency", &[("comp", c.label())])
                .record(*n);
            self.obs.tracer.attr(span, c.attr_key(), n.to_string());
        }
        self.obs
            .registry
            .histogram("kv.txn.attr.latency", &[("comp", "other")])
            .record(breakdown.other_nanos);
        self.obs
            .registry
            .histogram("kv.txn.attr.latency", &[("comp", "total")])
            .record(breakdown.total_nanos);
        self.obs
            .tracer
            .attr(span, "attr.other", breakdown.other_nanos.to_string());
        self.attr_log.record(TxnAttrRecord {
            txn_id: id.0,
            gateway: gateway.0 as u64,
            start,
            breakdown,
            committed,
            root_span: span.map(|s| s.raw()),
            ranges,
        });
    }

    // ------------------------------------------------------------------
    // Internals: routing
    // ------------------------------------------------------------------

    fn route(
        &mut self,
        gateway: NodeId,
        key: &Key,
        mode: RouteMode,
    ) -> KvResult<(mr_proto::RangeId, NodeId)> {
        let desc = self
            .registry()
            .lookup(key)
            .ok_or_else(|| KvError::NoSuchRange { key: key.clone() })?;
        let target = match mode {
            RouteMode::Leaseholder => desc.leaseholder,
            RouteMode::Nearest => desc
                .nearest_replica(self.topology(), gateway)
                .unwrap_or(desc.leaseholder),
        };
        Ok((desc.id, target))
    }

    /// Send with transparent redirect handling: `NotLeaseholder`,
    /// `FollowerReadUnavailable`, and follower `WriteIntent` errors re-route
    /// to the leaseholder; timeouts re-resolve the route and retry. Every
    /// attempt's RPC span nests under `parent` (usually the operation span),
    /// so traces show the whole re-route history of one logical send.
    #[allow(clippy::too_many_arguments)]
    fn dist_send(
        &mut self,
        gateway: NodeId,
        key: Key,
        mode: RouteMode,
        req: Request,
        attempts: u8,
        parent: Option<SpanId>,
        cont: Cont<KvResult<Response>>,
    ) {
        let (range, target) = match self.route(gateway, &key, mode) {
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
                Ok(resp) => cont(c, Ok(resp)),
                Err(e) if e.is_redirect() && attempts > 0 => {
                    let now = c.now();
                    c.obs
                        .tracer
                        .event(parent, now, format!("redirect to leaseholder: {e}"));
                    c.dist_send(
                        gateway,
                        key,
                        RouteMode::Leaseholder,
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
                            c2.dist_send(gateway, key, mode, retry_req, attempts - 1, parent, cont);
                        }),
                    );
                }
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    /// Routing mode for a transactional read of `key`.
    fn read_route_mode(&self, id: TxnId, key: &Key) -> RouteMode {
        let Some(st) = self.txns.get(&id) else {
            return RouteMode::Leaseholder;
        };
        // Read-your-writes must see our own (unreplicated-yet) intent.
        if st.intents.contains(key) {
            return RouteMode::Leaseholder;
        }
        match self.registry().lookup(key) {
            // GLOBAL tables serve consistent present-time reads from any
            // replica (§6); REGIONAL fresh reads need the leaseholder.
            Some(d) if d.zone_config.closed_ts_policy == ClosedTsPolicy::Lead => RouteMode::Nearest,
            _ => RouteMode::Leaseholder,
        }
    }

    // ------------------------------------------------------------------
    // Internals: transactional reads
    // ------------------------------------------------------------------

    fn txn_get_inner(
        &mut self,
        id: TxnId,
        key: Key,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Option<Value>>>,
    ) {
        let Some(st) = self.txns.get(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        if st.finished {
            cont(self, Err(KvError::TxnAborted { id }));
            return;
        }
        // Read-your-writes: buffered writes win over replicated state.
        if let Some((_, v)) = st.buffered.iter().rev().find(|(k, _)| *k == key) {
            let v = v.clone();
            cont(self, Ok(v));
            return;
        }
        let rctx = ReadCtx {
            read_ts: st.read_ts,
            uncertainty_limit: st.uncertainty_limit,
            txn: Some(st.meta()),
        };
        let gateway = st.gateway;
        let mode = self.read_route_mode(id, &key);
        let retry_key = key.clone();
        self.dist_send(
            gateway,
            key.clone(),
            mode,
            Request::Get { ctx: rctx, key },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Get { value, .. }) => {
                    if let Some(st) = c.txns.get_mut(&id) {
                        let at = st.read_ts;
                        st.reads.push((Span::point(retry_key), at));
                    }
                    cont(c, Ok(value));
                }
                Ok(_) => unreachable!("get returned non-get response"),
                Err(KvError::Uncertainty { value_ts, .. }) => {
                    c.txn_uncertainty_restart(
                        id,
                        value_ts,
                        Box::new(move |c2, r| match r {
                            Ok(()) => c2.txn_get_inner(id, retry_key, tspan, cont),
                            Err(e) => cont(c2, Err(e)),
                        }),
                    );
                }
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    fn txn_scan_inner(
        &mut self,
        id: TxnId,
        span: Span,
        max_keys: usize,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Vec<(Key, Value)>>>,
    ) {
        let Some(st) = self.txns.get(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        if st.finished {
            cont(self, Err(KvError::TxnAborted { id }));
            return;
        }
        let rctx = ReadCtx {
            read_ts: st.read_ts,
            uncertainty_limit: st.uncertainty_limit,
            txn: Some(st.meta()),
        };
        let gateway = st.gateway;
        // Scans always go to the leaseholder (they may span in-flight
        // writes; simulation-scale tables keep one range per partition, so
        // a scan never crosses ranges within a partition).
        let retry_span = span.clone();
        self.dist_send(
            gateway,
            span.start.clone(),
            RouteMode::Leaseholder,
            Request::Scan {
                ctx: rctx,
                span,
                max_keys,
            },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Scan { rows }) => {
                    let rows = match c.txns.get_mut(&id) {
                        Some(st) => {
                            let at = st.read_ts;
                            st.reads.push((retry_span.clone(), at));
                            overlay_buffer(rows, &st.buffered, &retry_span)
                        }
                        None => rows,
                    };
                    cont(c, Ok(rows));
                }
                Ok(_) => unreachable!("scan returned non-scan response"),
                Err(KvError::Uncertainty { value_ts, .. }) => {
                    c.txn_uncertainty_restart(
                        id,
                        value_ts,
                        Box::new(move |c2, r| match r {
                            Ok(()) => c2.txn_scan_inner(id, retry_span, max_keys, tspan, cont),
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
        let span = self.txn_span(id);
        let now = self.now();
        self.obs.tracer.event(
            span,
            now,
            format!("uncertainty restart: value at {value_ts}"),
        );
        let Some(st) = self.txns.get_mut(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let new_ts = st.read_ts.forward(value_ts);
        st.write_ts = st.write_ts.forward(new_ts);
        self.txn_refresh_reads(id, new_ts, cont);
    }

    /// Refresh all read spans to `to_ts`; on success the transaction's read
    /// timestamp moves there.
    fn txn_refresh_reads(&mut self, id: TxnId, to_ts: Timestamp, cont: Cont<KvResult<()>>) {
        let Some(st) = self.txns.get_mut(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let gateway = st.gateway;
        let spans: Vec<(Span, Timestamp)> = st
            .reads
            .iter()
            .filter(|(_, at)| *at < to_ts)
            .cloned()
            .collect();
        if spans.is_empty() {
            st.read_ts = st.read_ts.forward(to_ts);
            cont(self, Ok(()));
            return;
        }
        self.m.refreshes.inc();
        let tspan = self.txn_span(id);
        let now = self.now();
        self.obs.tracer.event(
            tspan,
            now,
            format!("refreshing {} read span(s) to {to_ts}", spans.len()),
        );
        let remaining = Rc::new(RefCell::new((spans.len(), Some(cont), false)));
        for (span, from_ts) in spans {
            let state = Rc::clone(&remaining);
            let req = Request::Refresh {
                txn_id: id,
                span: span.clone(),
                from_ts,
                to_ts,
            };
            self.dist_send(
                gateway,
                span.start.clone(),
                RouteMode::Leaseholder,
                req,
                MAX_ATTEMPTS,
                tspan,
                Box::new(move |c, res| {
                    let mut s = state.borrow_mut();
                    if s.2 {
                        return; // already failed
                    }
                    match res {
                        Ok(_) => {
                            s.0 -= 1;
                            if s.0 == 0 {
                                let cont = s.1.take().expect("refresh cont");
                                drop(s);
                                if let Some(st) = c.txns.get_mut(&id) {
                                    st.read_ts = st.read_ts.forward(to_ts);
                                    for (_, at) in st.reads.iter_mut() {
                                        *at = (*at).forward(to_ts);
                                    }
                                }
                                cont(c, Ok(()));
                            }
                        }
                        Err(e) => {
                            s.2 = true;
                            let cont = s.1.take().expect("refresh cont");
                            drop(s);
                            c.m.refresh_failures.inc();
                            // The transaction must restart from scratch.
                            c.abort_after_failure(id);
                            cont(c, Err(e));
                        }
                    }
                }),
            );
        }
    }

    /// Mark the transaction dead and clean up its intents.
    fn abort_after_failure(&mut self, id: TxnId) {
        if let Some(st) = self.txns.get_mut(&id) {
            if !st.finished {
                st.finished = true;
                self.m.txn_restarts.inc();
                let span = self.txn_span(id);
                let now = self.now();
                self.obs.tracer.event(span, now, "aborted for client retry");
                self.finalize_intents(id, TxnStatus::Aborted, Timestamp::ZERO);
                self.finish_txn_span(id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Internals: writes and commit
    // ------------------------------------------------------------------

    fn txn_put_inner(
        &mut self,
        id: TxnId,
        key: Key,
        value: Option<Value>,
        cont: Cont<KvResult<()>>,
    ) {
        let Some(st) = self.txns.get_mut(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        if st.finished {
            cont(self, Err(KvError::TxnAborted { id }));
            return;
        }
        if st.anchor.is_none() {
            st.anchor = Some(key.clone());
        }
        // Buffer the write: read-your-writes always serves from the buffer.
        match st.buffered.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value.clone(),
            None => st.buffered.push((key.clone(), value.clone())),
        }
        if !self.cfg.pipelined_writes {
            // Legacy: writes flush at commit (1PC when single-range).
            cont(self, Ok(()));
            return;
        }
        // Write pipelining: propose the intent now and return before it
        // replicates; the commit joins the in-flight set.
        let st = self.txns.get_mut(&id).unwrap();
        if st.sent.contains(&key) {
            // The issued intent now holds a stale value; commit falls back
            // to the re-putting slow path.
            st.rewrote_sent = true;
            cont(self, Ok(()));
            return;
        }
        st.sent.push(key.clone());
        let meta = st.meta();
        let gateway = st.gateway;
        let pl = Rc::clone(&st.pipeline);
        pl.borrow_mut().outstanding += 1;
        self.m.pipelined_writes.inc();
        let tspan = self.txn_span(id);
        let record_key = key.clone();
        self.dist_send(
            gateway,
            key.clone(),
            RouteMode::Leaseholder,
            Request::Put {
                txn: meta,
                key,
                value,
            },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| {
                match res {
                    Ok(Response::Put { written_ts }) => {
                        {
                            let mut p = pl.borrow_mut();
                            p.max_written_ts = p.max_written_ts.forward(written_ts);
                        }
                        if let Some(txn) = c.txns.get_mut(&id) {
                            txn.write_ts = txn.write_ts.forward(written_ts);
                            txn.intents.push(record_key);
                        }
                    }
                    Ok(_) => unreachable!("put returned non-put response"),
                    Err(e) => {
                        {
                            let mut p = pl.borrow_mut();
                            if p.failed.is_none() {
                                p.failed = Some(e);
                            }
                        }
                        // The intent may have landed anyway; remember the
                        // key so an abort resolves it.
                        if let Some(txn) = c.txns.get_mut(&id) {
                            txn.intents.push(record_key);
                        }
                    }
                }
                let waiter = {
                    let mut p = pl.borrow_mut();
                    p.outstanding -= 1;
                    if p.outstanding == 0 {
                        p.waiter.take()
                    } else {
                        None
                    }
                };
                if let Some(w) = waiter {
                    w(c);
                }
            }),
        );
        cont(self, Ok(()));
    }

    fn txn_commit_inner(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let Some(st) = self.txns.get(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        if st.finished {
            cont(self, Err(KvError::TxnAborted { id }));
            return;
        }
        let gateway = st.gateway;
        if st.buffered.is_empty() && st.intents.is_empty() {
            // Read-only: complete locally. Commit-wait if the read
            // timestamp became future-time by observing a future value
            // (§6.2: reader-side commit wait, capped at max_clock_offset).
            let commit_ts = st.read_ts;
            let finish: Box<dyn FnOnce(&mut Cluster)> = Box::new(move |c: &mut Cluster| {
                if let Some(st) = c.txns.get_mut(&id) {
                    st.finished = true;
                    st.committed = true;
                }
                c.m.txn_commits.inc();
                c.finish_txn_span(id);
                cont(c, Ok(commit_ts));
            });
            self.commit_wait(gateway, commit_ts, Some(id), tspan, finish);
            return;
        }
        // Pipelined writes are already in flight as intents: join them and
        // commit via the parallel-commits (or explicit two-phase) path.
        if !st.sent.is_empty() {
            self.txn_commit_pipelined(id, tspan, cont);
            return;
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
        if let Some(range) = single_range {
            let span = self.registry().get(range).map(|d| d.span.clone());
            let st = self.txns.get(&id).unwrap();
            let local_reads_only = match &span {
                Some(span) => st.reads.iter().all(|(s, _)| span.contains_span(s)),
                None => false,
            };
            let resolve_inline = !self.cfg.commit_wait_holds_locks;
            let req = Request::CommitInline {
                txn: st.meta(),
                writes: st.buffered.clone(),
                refresh_spans: if local_reads_only {
                    st.reads.clone()
                } else {
                    Vec::new()
                },
                local_reads_only,
                resolve_inline,
            };
            let anchor = st.meta().anchor;
            self.dist_send(
                gateway,
                anchor,
                RouteMode::Leaseholder,
                req,
                MAX_ATTEMPTS,
                tspan,
                Box::new(move |c, res| match res {
                    Ok(Response::CommitInline { commit_ts }) => {
                        if let Some(st) = c.txns.get_mut(&id) {
                            st.finished = true;
                            st.committed = true;
                            // Spanner-style ablation: locks were kept; the
                            // coordinator resolves them after commit wait.
                            if c.cfg.commit_wait_holds_locks {
                                st.intents = st.buffered.iter().map(|(k, _)| k.clone()).collect();
                            }
                        }
                        c.m.txn_commits.inc();
                        let finish: Box<dyn FnOnce(&mut Cluster)> =
                            Box::new(move |c2: &mut Cluster| {
                                if c2.cfg.commit_wait_holds_locks {
                                    c2.finalize_intents(id, TxnStatus::Committed, commit_ts);
                                }
                                c2.finish_txn_span(id);
                                cont(c2, Ok(commit_ts))
                            });
                        c.commit_wait(gateway, commit_ts, Some(id), tspan, finish);
                    }
                    Ok(_) => unreachable!("commit-inline returned unexpected response"),
                    Err(KvError::WriteTooOld { .. }) => {
                        // Timestamp must move but remote reads need a real
                        // refresh: fall back to the two-phase path.
                        c.txn_commit_slow(id, tspan, cont);
                    }
                    Err(e) => {
                        c.abort_after_failure(id);
                        cont(c, Err(e));
                    }
                }),
            );
            return;
        }
        self.txn_commit_slow(id, tspan, cont);
    }

    /// Run `f` once every pipelined write has been acknowledged. The
    /// non-parallel commit paths and rollback join the pipeline before
    /// touching the write set.
    fn join_pipeline(&mut self, id: TxnId, f: Box<dyn FnOnce(&mut Cluster)>) {
        let Some(st) = self.txns.get(&id) else {
            f(self);
            return;
        };
        let pl = Rc::clone(&st.pipeline);
        let mut p = pl.borrow_mut();
        if p.outstanding == 0 {
            drop(p);
            f(self);
        } else {
            debug_assert!(p.waiter.is_none(), "one pipeline joiner at a time");
            p.waiter = Some(f);
        }
    }

    /// Commit a transaction whose writes were pipelined.
    fn txn_commit_pipelined(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let st = self.txns.get(&id).expect("checked by caller");
        if st.rewrote_sent {
            // A pipelined intent holds a stale value. Join the in-flight
            // set (so a late old-value Put cannot overwrite a fresh one),
            // then re-put every buffered write and finish two-phase.
            self.join_pipeline(
                id,
                Box::new(move |c| {
                    let failed = c
                        .txns
                        .get(&id)
                        .and_then(|st| st.pipeline.borrow_mut().failed.take());
                    if let Some(e) = failed {
                        c.abort_after_failure(id);
                        cont(c, Err(e));
                        return;
                    }
                    c.txn_commit_slow(id, tspan, cont);
                }),
            );
            return;
        }
        if !self.cfg.parallel_commits {
            // Pipelining without parallel commits (ablation): join, then
            // the ordinary refresh + EndTxn round — two consensus rounds.
            self.join_pipeline(
                id,
                Box::new(move |c| {
                    let failed = c
                        .txns
                        .get(&id)
                        .and_then(|st| st.pipeline.borrow_mut().failed.take());
                    if let Some(e) = failed {
                        c.abort_after_failure(id);
                        cont(c, Err(e));
                        return;
                    }
                    if let Some(st) = c.txns.get_mut(&id) {
                        st.buffered.clear();
                    }
                    c.txn_finish_two_phase(id, tspan, cont);
                }),
            );
            return;
        }
        // Parallel commit. If the write timestamp already moved above the
        // read snapshot (tscache bump, closed-timestamp target), refresh
        // before staging: the staged timestamp must be one the transaction's
        // reads are valid at.
        let (read_ts, write_ts) = (st.read_ts, st.write_ts);
        if write_ts > read_ts {
            self.txn_refresh_reads(
                id,
                write_ts,
                Box::new(move |c, r| match r {
                    Ok(()) => c.txn_stage(id, tspan, cont),
                    // Refresh failure already aborted the transaction.
                    Err(e) => cont(c, Err(e)),
                }),
            );
        } else {
            self.txn_stage(id, tspan, cont);
        }
    }

    /// The parallel-commit hinge: write the STAGING record (carrying the
    /// in-flight write set) concurrently with the outstanding pipelined
    /// intents and ack the client once both arms succeed — the transaction
    /// is then *implicitly committed* after a single consensus round. An
    /// explicit EndTxn finalizes the record asynchronously after the ack;
    /// contenders that find the STAGING record first run status recovery
    /// (`staging_recover`) instead of waiting.
    fn txn_stage(&mut self, id: TxnId, tspan: Option<SpanId>, cont: Cont<KvResult<Timestamp>>) {
        let Some(st) = self.txns.get_mut(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let gateway = st.gateway;
        let meta = st.meta();
        let staged_ts = meta.write_ts;
        let in_flight = st.sent.clone();
        // Every write is in flight as an intent; nothing left to flush.
        st.buffered.clear();
        let pl = Rc::clone(&st.pipeline);
        let now = self.now();
        let pspan = self.obs.tracer.start("txn.pipeline", tspan, now);
        if pspan.is_some() {
            self.obs.tracer.attr(pspan, "txn", format!("{id}"));
            self.obs
                .tracer
                .attr(pspan, "staged_ts", format!("{staged_ts}"));
            self.obs
                .tracer
                .attr(pspan, "in_flight", in_flight.len().to_string());
            self.obs
                .tracer
                .attr(pspan, "outstanding", pl.borrow().outstanding.to_string());
        }
        let join = Rc::new(RefCell::new(StageJoin {
            stage: None,
            puts_done: false,
            cont: Some(cont),
        }));
        {
            let mut p = pl.borrow_mut();
            if p.outstanding == 0 || self.injected_bug == Some(InjectedBug::PrematureAck) {
                // No writes outstanding — or (injected bug) don't wait for
                // them: the ack then races replication and a crash can lose
                // acknowledged writes. The chaos checker must catch this.
                join.borrow_mut().puts_done = true;
            } else {
                let join2 = Rc::clone(&join);
                let pl2 = Rc::clone(&pl);
                p.waiter = Some(Box::new(move |c| {
                    join2.borrow_mut().puts_done = true;
                    Cluster::stage_try_complete(c, id, staged_ts, tspan, pspan, &join2, &pl2);
                }));
            }
        }
        let join2 = Rc::clone(&join);
        let pl2 = Rc::clone(&pl);
        let anchor = meta.anchor.clone();
        self.dist_send(
            gateway,
            anchor,
            RouteMode::Leaseholder,
            Request::StageTxn {
                txn: meta,
                in_flight,
            },
            MAX_ATTEMPTS,
            pspan,
            Box::new(move |c, res| {
                join2.borrow_mut().stage = Some(match res {
                    Ok(Response::StageTxn { commit_ts }) => Ok(commit_ts),
                    Ok(_) => unreachable!("stage returned unexpected response"),
                    Err(e) => Err(e),
                });
                Cluster::stage_try_complete(c, id, staged_ts, tspan, pspan, &join2, &pl2);
            }),
        );
    }

    /// Complete a parallel commit once both arms of the join have reported.
    fn stage_try_complete(
        c: &mut Cluster,
        id: TxnId,
        staged_ts: Timestamp,
        tspan: Option<SpanId>,
        pspan: Option<SpanId>,
        join: &Rc<RefCell<StageJoin>>,
        pl: &Rc<RefCell<PipelineState>>,
    ) {
        let (stage_res, cont) = {
            let mut j = join.borrow_mut();
            if j.stage.is_none() || !j.puts_done || j.cont.is_none() {
                return;
            }
            (j.stage.take().unwrap(), j.cont.take().unwrap())
        };
        let now = c.now();
        c.obs.tracer.finish(pspan, now);
        let (failed, max_written) = {
            let mut p = pl.borrow_mut();
            (p.failed.take(), p.max_written_ts)
        };
        let gateway = c.txns.get(&id).map(|st| st.gateway).expect("txn state");
        if let Err(e) = stage_res {
            // The record's fate is unknown (timeout, failover): write an
            // explicit ABORT — it beats zombie stage retries and pins
            // any concurrent recovery to one outcome.
            c.txn_abort_staged(id);
            cont(c, Err(e));
            return;
        }
        if let Some(e) = failed {
            // A pipelined write failed terminally: the STAGING record must
            // not stay recoverable-as-committed.
            c.txn_abort_staged(id);
            cont(c, Err(e));
            return;
        }
        if max_written > staged_ts {
            // A pipelined write landed above the staged timestamp, so the
            // commit is not implicit. Refresh reads to the higher timestamp
            // and commit explicitly (the restage path — one extra round).
            c.m.parallel_commit_restages.inc();
            c.obs.tracer.event(
                tspan,
                now,
                format!("restage: write at {max_written} above staged {staged_ts}"),
            );
            c.txn_finish_two_phase(id, tspan, cont);
            return;
        }
        // Implicitly committed: STAGING record written and every in-flight
        // write at or below the staged timestamp. Ack after commit wait;
        // make the commit explicit asynchronously.
        c.m.parallel_commit_acks.inc();
        c.m.txn_commits.inc();
        if let Some(st) = c.txns.get_mut(&id) {
            st.finished = true;
            st.committed = true;
        }
        let finish: Box<dyn FnOnce(&mut Cluster)> = Box::new(move |c2: &mut Cluster| {
            c2.txn_make_explicit(id, staged_ts);
            c2.finish_txn_span(id);
            cont(c2, Ok(staged_ts));
        });
        c.commit_wait(gateway, staged_ts, Some(id), tspan, finish);
    }

    /// Asynchronously convert an implicit commit (STAGING record + all
    /// writes landed) into an explicit one, then resolve the intents. The
    /// record must finalize *before* any intent resolves: a recovery that
    /// finds the record STAGING probes for the in-flight intents, and
    /// resolving one early would read as "write lost" and abort a committed
    /// transaction.
    fn txn_make_explicit(&mut self, id: TxnId, commit_ts: Timestamp) {
        let Some(st) = self.txns.get(&id) else { return };
        let gateway = st.gateway;
        let meta = st.meta();
        let anchor = meta.anchor.clone();
        let tspan = self.txn_span(id);
        // Track as an op so `run_until_quiescent` covers finalization.
        self.op_started();
        self.dist_send(
            gateway,
            anchor,
            RouteMode::Leaseholder,
            Request::EndTxn {
                txn: meta,
                commit: true,
            },
            8,
            tspan,
            Box::new(move |c, res| {
                if let Ok(Response::EndTxn { .. }) = res {
                    c.finalize_intents(id, TxnStatus::Committed, commit_ts);
                }
                // On error the intents stay; contenders' pushers recover.
                c.op_finished();
            }),
        );
    }

    /// Abort a transaction whose STAGING record may exist: write an
    /// explicit ABORT record first, then resolve the intents. If the record
    /// turns out COMMITTED — a recovery raced us and found every write —
    /// the intents are left to the contenders' pushers; the client already
    /// received an ambiguous error.
    fn txn_abort_staged(&mut self, id: TxnId) {
        let Some(st) = self.txns.get_mut(&id) else {
            return;
        };
        if st.finished {
            return;
        }
        st.finished = true;
        self.m.txn_restarts.inc();
        let gateway = st.gateway;
        let meta = st.meta();
        let anchor = meta.anchor.clone();
        let tspan = self.txn_span(id);
        let now = self.now();
        self.obs
            .tracer
            .event(tspan, now, "parallel commit failed: aborting");
        self.op_started();
        self.dist_send(
            gateway,
            anchor,
            RouteMode::Leaseholder,
            Request::EndTxn {
                txn: meta,
                commit: false,
            },
            8,
            tspan,
            Box::new(move |c, res| {
                if let Ok(Response::EndTxn { .. }) = res {
                    c.finalize_intents(id, TxnStatus::Aborted, Timestamp::ZERO);
                }
                c.op_finished();
            }),
        );
        self.finish_txn_span(id);
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
        let Some(st) = self.txns.get_mut(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let gateway = st.gateway;
        let writes: Vec<(Key, Option<Value>)> = std::mem::take(&mut st.buffered);
        let meta = st.meta();
        if writes.is_empty() {
            // Buffer already flushed (retried fallback): go straight on.
            self.txn_finish_two_phase(id, tspan, cont);
            return;
        }
        let total = writes.len();
        let state = Rc::new(RefCell::new((total, Some(cont), false)));
        for (key, value) in writes {
            let st = Rc::clone(&state);
            let record_key = key.clone();
            self.dist_send(
                gateway,
                key.clone(),
                RouteMode::Leaseholder,
                Request::Put {
                    txn: meta.clone(),
                    key,
                    value,
                },
                MAX_ATTEMPTS,
                tspan,
                Box::new(move |c, res| {
                    let mut s = st.borrow_mut();
                    if s.2 {
                        return;
                    }
                    match res {
                        Ok(Response::Put { written_ts }) => {
                            if let Some(txn) = c.txns.get_mut(&id) {
                                txn.write_ts = txn.write_ts.forward(written_ts);
                                txn.intents.push(record_key);
                            }
                            s.0 -= 1;
                            if s.0 == 0 {
                                let cont = s.1.take().expect("commit cont");
                                drop(s);
                                c.txn_finish_two_phase(id, tspan, cont);
                            }
                        }
                        Ok(_) => unreachable!("put returned non-put response"),
                        Err(e) => {
                            s.2 = true;
                            let cont = s.1.take().expect("commit cont");
                            drop(s);
                            c.abort_after_failure(id);
                            cont(c, Err(e));
                        }
                    }
                }),
            );
        }
    }

    /// After intents are in place: refresh reads if needed, then EndTxn.
    fn txn_finish_two_phase(
        &mut self,
        id: TxnId,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Timestamp>>,
    ) {
        let Some(st) = self.txns.get(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let (read_ts, write_ts) = (st.read_ts, st.write_ts);
        if write_ts > read_ts {
            self.txn_refresh_reads(
                id,
                write_ts,
                Box::new(move |c, r| match r {
                    Ok(()) => c.txn_send_end(id, tspan, cont),
                    Err(e) => cont(c, Err(e)),
                }),
            );
        } else {
            self.txn_send_end(id, tspan, cont);
        }
    }

    fn txn_send_end(&mut self, id: TxnId, tspan: Option<SpanId>, cont: Cont<KvResult<Timestamp>>) {
        let Some(st) = self.txns.get(&id) else {
            cont(self, Err(KvError::TxnNotFound { id }));
            return;
        };
        let gateway = st.gateway;
        let meta = st.meta();
        let anchor = meta.anchor.clone();
        self.dist_send(
            gateway,
            anchor,
            RouteMode::Leaseholder,
            Request::EndTxn {
                txn: meta,
                commit: true,
            },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::EndTxn { commit_ts }) => {
                    if let Some(st) = c.txns.get_mut(&id) {
                        st.finished = true;
                        st.committed = true;
                    }
                    c.m.txn_commits.inc();
                    if c.cfg.commit_wait_holds_locks {
                        // Spanner-style ablation: resolve intents (release
                        // locks) only after commit wait completes.
                        let finish: Box<dyn FnOnce(&mut Cluster)> =
                            Box::new(move |c2: &mut Cluster| {
                                c2.finalize_intents(id, TxnStatus::Committed, commit_ts);
                                c2.finish_txn_span(id);
                                cont(c2, Ok(commit_ts));
                            });
                        c.commit_wait(gateway, commit_ts, Some(id), tspan, finish);
                    } else {
                        // CRDB: intent resolution proceeds concurrently with
                        // commit wait (§6.2) — locks release while we wait.
                        c.finalize_intents(id, TxnStatus::Committed, commit_ts);
                        let finish: Box<dyn FnOnce(&mut Cluster)> =
                            Box::new(move |c2: &mut Cluster| {
                                c2.finish_txn_span(id);
                                cont(c2, Ok(commit_ts))
                            });
                        c.commit_wait(gateway, commit_ts, Some(id), tspan, finish);
                    }
                }
                Ok(_) => unreachable!("end txn returned unexpected response"),
                Err(e) => {
                    c.abort_after_failure(id);
                    cont(c, Err(e));
                }
            }),
        );
    }

    /// Fire-and-forget intent resolution for every write of `id`.
    fn finalize_intents(&mut self, id: TxnId, status: TxnStatus, commit_ts: Timestamp) {
        let Some(st) = self.txns.get(&id) else { return };
        let gateway = st.gateway;
        let intents = st.intents.clone();
        for key in intents {
            let req = Request::ResolveIntent {
                key: key.clone(),
                txn_id: id,
                status,
                commit_ts,
            };
            let tspan = self.txn_span(id);
            self.dist_send(
                gateway,
                key,
                RouteMode::Leaseholder,
                req,
                8,
                tspan,
                Box::new(|_, _| {}),
            );
        }
    }

    /// Delay `f` until the gateway's HLC exceeds `ts` (no-op when already
    /// past). This is the §6.2 commit wait: local-clock-only, unlike
    /// Spanner's wait for global clock consensus.
    fn commit_wait(
        &mut self,
        gateway: NodeId,
        ts: Timestamp,
        txn: Option<TxnId>,
        parent: Option<SpanId>,
        f: Box<dyn FnOnce(&mut Cluster)>,
    ) {
        let now = self.now();
        let wait = self.node(gateway).hlc.time_until_passed(ts, now);
        if wait == SimDuration::ZERO {
            f(self);
        } else {
            let wait_start = now;
            self.m.commit_waits.inc();
            self.m.commit_wait_nanos.add(wait.nanos());
            self.m.commit_wait_latency.record(wait.nanos());
            let span = self.obs.tracer.start("txn.commit_wait", parent, now);
            self.obs.tracer.attr(span, "commit_ts", format!("{ts}"));
            self.obs
                .tracer
                .attr(span, "wait_nanos", wait.nanos().to_string());
            self.schedule(
                wait,
                Box::new(move |c| {
                    let now = c.now();
                    c.obs.tracer.finish(span, now);
                    if let Some(id) = txn {
                        if let Some(st) = c.txns.get_mut(&id) {
                            st.attr.charge(Component::CommitWait, wait_start, now);
                        }
                    }
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
                    f(c)
                }),
            );
        }
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
    pub(crate) fn start_pusher(
        &mut self,
        node: NodeId,
        range: mr_proto::RangeId,
        key: Key,
        holder: TxnMeta,
    ) {
        if !self.active_pushers.insert((range, key.clone())) {
            return;
        }
        let delay = SimDuration::from_millis(100);
        self.schedule(
            delay,
            Box::new(move |c| c.pusher_tick(node, range, key, holder, 0)),
        );
    }

    /// Pushes a holder found `Pending` this many times (at 1s apart) are
    /// escalated to an abort: the holder's coordinator is presumed dead —
    /// CRDB's expired-heartbeat push. Without this, an intent whose
    /// coordinator gave up before writing any record (its cleanup exhausted
    /// its retries during a leadership change) blocks waiters forever.
    const PUSH_EXPIRY_ROUNDS: u32 = 5;

    fn pusher_tick(
        &mut self,
        node: NodeId,
        range: mr_proto::RangeId,
        key: Key,
        holder: TxnMeta,
        rounds: u32,
    ) {
        // Stop when the block is gone, this replica lost the lease, or the
        // node died (waiters will time out / re-route).
        let still_leaseholder = self
            .registry()
            .get(range)
            .is_some_and(|d| d.leaseholder == node);
        let still_blocked = self.node(node).replicas.get(&range).is_some_and(|r| {
            r.locks.holder(&key).map(|h| h.id) == Some(holder.id)
                || r.store.intent(&key).map(|i| i.txn.id) == Some(holder.id)
        });
        if !still_blocked || !still_leaseholder || !self.topology().is_node_alive(node) {
            self.active_pushers.remove(&(range, key));
            return;
        }
        let push = Request::PushTxn {
            pushee: holder.id,
            anchor: holder.anchor.clone(),
        };
        let anchor = holder.anchor.clone();
        self.dist_send(
            node,
            anchor,
            RouteMode::Leaseholder,
            push,
            4,
            None,
            Box::new(move |c, res| match res {
                Ok(Response::PushTxn {
                    status: status @ (TxnStatus::Committed | TxnStatus::Aborted),
                    commit_ts,
                    ..
                }) => {
                    // The holder finalized: resolve its intent ourselves.
                    c.active_pushers.remove(&(range, key.clone()));
                    let resolve = Request::ResolveIntent {
                        key: key.clone(),
                        txn_id: holder.id,
                        status,
                        commit_ts,
                    };
                    c.dist_send(
                        node,
                        key,
                        RouteMode::Leaseholder,
                        resolve,
                        4,
                        None,
                        Box::new(|_, _| {}),
                    );
                }
                Ok(Response::PushTxn {
                    status: TxnStatus::Staging,
                    commit_ts,
                    in_flight,
                }) => {
                    // The holder staged a parallel commit but its coordinator
                    // hasn't finalized (it may be dead): run status recovery.
                    c.staging_recover(node, range, key, holder, commit_ts, in_flight);
                }
                Ok(Response::PushTxn {
                    status: TxnStatus::Pending,
                    ..
                }) if rounds + 1 >= Self::PUSH_EXPIRY_ROUNDS => {
                    // No record after repeated pushes: the coordinator is
                    // presumed dead, its intents abandoned. Finalize the
                    // holder as aborted through the RecoverTxn apply-time
                    // CAS — `staged_ts` ZERO can never match a genuine
                    // STAGING record (staged timestamps are real HLC
                    // readings), so a coordinator racing this abort with a
                    // stage or commit wins or loses by log order, and the
                    // record's authoritative disposition drives resolution.
                    c.recover_finalize(
                        node,
                        range,
                        key,
                        holder,
                        Timestamp::ZERO,
                        false,
                        Vec::new(),
                        None,
                    );
                }
                _ => {
                    // Still pending (or push failed): try again later.
                    c.schedule(
                        SimDuration::from_millis(1_000),
                        Box::new(move |c2| c2.pusher_tick(node, range, key, holder, rounds + 1)),
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
    fn staging_recover(
        &mut self,
        node: NodeId,
        range: mr_proto::RangeId,
        key: Key,
        holder: TxnMeta,
        staged_ts: Timestamp,
        in_flight: Vec<Key>,
    ) {
        self.m.staging_recoveries.inc();
        let now = self.now();
        let rspan = self.obs.tracer.start("txn.staging_recovery", None, now);
        if rspan.is_some() {
            self.obs.tracer.attr(rspan, "txn", format!("{}", holder.id));
            self.obs
                .tracer
                .attr(rspan, "staged_ts", format!("{staged_ts}"));
            self.obs
                .tracer
                .attr(rspan, "in_flight", in_flight.len().to_string());
        }
        if in_flight.is_empty() {
            // Nothing was in flight when the record staged: implicit commit.
            self.recover_finalize(node, range, key, holder, staged_ts, true, in_flight, rspan);
            return;
        }
        // (remaining probes, all found so far, any probe errored)
        let state = Rc::new(RefCell::new((in_flight.len(), true, false)));
        for qkey in in_flight.clone() {
            let state2 = Rc::clone(&state);
            let key2 = key.clone();
            let holder2 = holder.clone();
            let in_flight2 = in_flight.clone();
            let probe = Request::QueryIntent {
                key: qkey.clone(),
                txn_id: holder.id,
                ts: staged_ts,
            };
            self.dist_send(
                node,
                qkey,
                RouteMode::Leaseholder,
                probe,
                4,
                rspan,
                Box::new(move |c, res| {
                    let done = {
                        let mut s = state2.borrow_mut();
                        match res {
                            Ok(Response::QueryIntent { found }) => s.1 &= found,
                            Ok(_) => unreachable!("query intent returned wrong response"),
                            Err(_) => s.2 = true,
                        }
                        s.0 -= 1;
                        s.0 == 0
                    };
                    if !done {
                        return;
                    }
                    let (_, all_found, any_err) = *state2.borrow();
                    if !all_found {
                        // A definitive miss trumps probe errors: the
                        // QueryIntent miss bumped the timestamp cache, so
                        // the write can never land below the staged ts.
                        c.recover_finalize(
                            node, range, key2, holder2, staged_ts, false, in_flight2, rspan,
                        );
                    } else if any_err {
                        // Inconclusive: retry the push later.
                        let now = c.now();
                        c.obs.tracer.event(rspan, now, "probe inconclusive; retry");
                        c.obs.tracer.finish(rspan, now);
                        c.schedule(
                            SimDuration::from_millis(1_000),
                            Box::new(move |c2| c2.pusher_tick(node, range, key2, holder2, 0)),
                        );
                    } else {
                        c.recover_finalize(
                            node, range, key2, holder2, staged_ts, true, in_flight2, rspan,
                        );
                    }
                }),
            );
        }
    }

    /// Write the recovery verdict through RecoverTxn and resolve the
    /// holder's intents with whatever status the record actually finalized
    /// to (the coordinator may have won the race with a different verdict).
    #[allow(clippy::too_many_arguments)]
    fn recover_finalize(
        &mut self,
        node: NodeId,
        range: mr_proto::RangeId,
        key: Key,
        holder: TxnMeta,
        staged_ts: Timestamp,
        commit: bool,
        in_flight: Vec<Key>,
        rspan: Option<SpanId>,
    ) {
        let recover = Request::RecoverTxn {
            txn_id: holder.id,
            anchor: holder.anchor.clone(),
            staged_ts,
            commit,
        };
        let anchor = holder.anchor.clone();
        self.dist_send(
            node,
            anchor,
            RouteMode::Leaseholder,
            recover,
            4,
            rspan,
            Box::new(move |c, res| {
                let now = c.now();
                match res {
                    Ok(Response::RecoverTxn { status, commit_ts }) if status.is_finalized() => {
                        if status == TxnStatus::Committed {
                            c.m.staging_recovery_commits.inc();
                        } else {
                            c.m.staging_recovery_aborts.inc();
                        }
                        c.obs.tracer.attr(rspan, "outcome", format!("{status:?}"));
                        c.obs.tracer.finish(rspan, now);
                        c.active_pushers.remove(&(range, key.clone()));
                        // Resolve the blocked key and every in-flight write
                        // with the *record's* status — authoritative even if
                        // it differs from our verdict.
                        let mut keys = in_flight;
                        if !keys.contains(&key) {
                            keys.push(key);
                        }
                        for rkey in keys {
                            let resolve = Request::ResolveIntent {
                                key: rkey.clone(),
                                txn_id: holder.id,
                                status,
                                commit_ts,
                            };
                            c.dist_send(
                                node,
                                rkey,
                                RouteMode::Leaseholder,
                                resolve,
                                4,
                                None,
                                Box::new(|_, _| {}),
                            );
                        }
                    }
                    Ok(Response::RecoverTxn { .. }) => {
                        // The record re-staged at a new timestamp (the
                        // coordinator is alive and restarting the commit):
                        // back off and push again.
                        c.obs.tracer.event(rspan, now, "record re-staged; retry");
                        c.obs.tracer.finish(rspan, now);
                        c.schedule(
                            SimDuration::from_millis(1_000),
                            Box::new(move |c2| c2.pusher_tick(node, range, key, holder, 0)),
                        );
                    }
                    Ok(_) => unreachable!("recover returned wrong response"),
                    Err(_) => {
                        c.obs.tracer.event(rspan, now, "recover failed; retry");
                        c.obs.tracer.finish(rspan, now);
                        c.schedule(
                            SimDuration::from_millis(1_000),
                            Box::new(move |c2| c2.pusher_tick(node, range, key, holder, 0)),
                        );
                    }
                }
            }),
        );
    }

    // ------------------------------------------------------------------
    // Internals: stale reads
    // ------------------------------------------------------------------

    fn stale_read_at(
        &mut self,
        gateway: NodeId,
        key: Key,
        ts: Timestamp,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Option<Value>>>,
    ) {
        let rctx = ReadCtx::stale(ts);
        self.dist_send(
            gateway,
            key.clone(),
            RouteMode::Nearest,
            Request::Get { ctx: rctx, key },
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Get { value, .. }) => cont(c, Ok(value)),
                Ok(_) => unreachable!("get returned non-get response"),
                Err(e) => cont(c, Err(e)),
            }),
        );
    }

    fn bounded_staleness_read(
        &mut self,
        gateway: NodeId,
        key: Key,
        min_ts: Timestamp,
        opts: ReadOptions,
        tspan: Option<SpanId>,
        cont: Cont<KvResult<Option<Value>>>,
    ) {
        let now_ts = self.hlc_now(gateway);
        let negotiate = Request::Negotiate {
            spans: vec![Span::point(key.clone())],
        };
        let nkey = key.clone();
        self.dist_send(
            gateway,
            nkey,
            RouteMode::Nearest,
            negotiate,
            MAX_ATTEMPTS,
            tspan,
            Box::new(move |c, res| match res {
                Ok(Response::Negotiate { max_safe_ts }) => {
                    // Freshest locally-servable timestamp, capped at now.
                    let chosen = max_safe_ts.min(now_ts);
                    if chosen >= min_ts {
                        c.stale_read_at(gateway, key, chosen, tspan, cont);
                    } else if opts.fallback_to_leaseholder {
                        // Serve from the leaseholder at the staleness bound.
                        let rctx = ReadCtx::stale(min_ts);
                        c.dist_send(
                            gateway,
                            key.clone(),
                            RouteMode::Leaseholder,
                            Request::Get { ctx: rctx, key },
                            MAX_ATTEMPTS,
                            tspan,
                            Box::new(move |c2, res| match res {
                                Ok(Response::Get { value, .. }) => cont(c2, Ok(value)),
                                Ok(_) => unreachable!(),
                                Err(e) => cont(c2, Err(e)),
                            }),
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
                Ok(_) => unreachable!("negotiate returned unexpected response"),
                Err(e) => cont(c, Err(e)),
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
