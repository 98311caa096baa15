//! Per-node replica state and request evaluation.
//!
//! A [`Replica`] is one copy of a Range living on a node: its storage
//! engine (MVCC data and the transaction records anchored on the range),
//! its Raft instance, and — when it holds the lease — the timestamp cache,
//! lock table and closed-timestamp promises.
//!
//! Evaluation happens in two phases, mirroring CockroachDB:
//!
//! 1. **Evaluate** (leaseholder, synchronous): check locks, forward the
//!    write timestamp above the timestamp cache / closed-timestamp target /
//!    newer committed versions, acquire the lock, and propose a fully
//!    determined command through Raft.
//! 2. **Apply** (every replica, on commit): deterministically apply the
//!    command to the MVCC store, advance the closed-timestamp tracker, and
//!    on the leaseholder, release locks, wake waiters, and answer the
//!    waiting RPC with what applying did — the answer is decided here, not
//!    at evaluation (DESIGN §9, "Who answers a command").
//!
//! Reads never go through Raft: the leaseholder serves them from applied
//! state (recording them in the timestamp cache), and followers serve them
//! when the read's whole uncertainty window is closed (§5.1).

use std::collections::BTreeMap;
use std::rc::Rc;

use mr_clock::{Hlc, Timestamp};
use mr_proto::{
    Key, KvError, RangeId, ReadCtx, Request, Response, TxnId, TxnMeta, TxnRecord, TxnStatus, Value,
};
use mr_raft::{Peer, RaftMsg, RaftNode};
use mr_sim::{NodeId, SimTime};
use mr_storage::{lsm::Engine, MvccError, RecoveryInfo, TsCache};

use crate::closedts::{ClosedTsLeaseState, ClosedTsParams, ClosedTsTracker, SideRxAt};
use crate::locks::{LockTable, WaiterId};
use crate::zone::ClosedTsPolicy;

/// The replicated command: an operation plus the closed-timestamp promise
/// serialized into the log with it (§5.1.1).
#[derive(Clone, Debug)]
pub struct Command {
    pub closed_ts: Timestamp,
    pub op: CmdOp,
}

/// The Raft payload: one log entry carries a *batch* of commands (group
/// commit). Commands evaluated close together — a transaction's pipelined
/// intents, its STAGING record, concurrent 1PC writes — coalesce into one
/// entry and therefore one consensus round; apply fans the batch back out
/// into per-command effects, and answers each slot's proposal with what
/// applying its command did.
///
/// A shared handle: the batch is materialised once, at the proposal, and the
/// leader's log, every in-flight `AppendEntries`, every follower's log and
/// every apply hold that one allocation by reference count.
pub type Batch = Rc<[Command]>;

/// Replicated operations.
#[derive(Clone, Debug)]
pub enum CmdOp {
    /// Lay down a write intent (the txn's write timestamp is final).
    Put {
        key: Key,
        value: Option<Value>,
        txn: TxnMeta,
    },
    /// Write the transaction record (stage, commit, or abort).
    /// `rec.in_flight` is the parallel-commit write set and only meaningful
    /// for STAGING.
    TxnRecord { txn_id: TxnId, rec: TxnRecord },
    /// Finalize an abandoned STAGING record: commit or abort, guarded at
    /// apply time on the record still being staged at `staged_ts` (log
    /// order at the anchor decides races against a coordinator re-stage).
    RecoverTxn {
        txn_id: TxnId,
        staged_ts: Timestamp,
        commit: bool,
    },
    /// Resolve an intent after its transaction finalized.
    Resolve {
        key: Key,
        txn_id: TxnId,
        status: TxnStatus,
        commit_ts: Timestamp,
    },
    /// Leader no-op: proposed by a new leader so that entries from previous
    /// terms commit (the standard Raft leader-completeness dance).
    Noop,
    /// Lease claim after a failover, replicated through Raft like CRDB's
    /// lease acquisitions. Committing it proves the claimant can reach a
    /// quorum (an isolated stale leader's claim never commits), and log
    /// order guarantees every prior-term entry is applied on the claimant
    /// before the lease — and with it the right to serve reads — moves.
    ClaimLease { node: NodeId },
    /// One-phase commit: writes + record + (usually) resolution in one
    /// command. With `resolve_inline = false` the intents stay locked until
    /// the coordinator resolves them (the Spanner-style ablation).
    Commit1PC {
        txn_id: TxnId,
        commit_ts: Timestamp,
        writes: Vec<(Key, Option<Value>)>,
        resolve_inline: bool,
    },
    /// Range split: a replicated range-descriptor mutation. Committing it
    /// through this range's log serializes the split against every write
    /// that precedes it — the cluster performs the descriptor surgery (and
    /// carves the MVCC store at `split_key` into the new range `rhs`) when
    /// the entry applies, so a transaction straddling the split sees either
    /// the whole pre-split range or two well-formed halves, never a torn
    /// keyspace.
    Split { split_key: Key, rhs: RangeId },
    /// Range merge: the adjacent right-hand range `rhs` is absorbed into
    /// this one. Like `Split`, committing through the log orders the merge
    /// against in-flight writes; the cluster applies the surgery.
    Merge { rhs: RangeId },
}

/// Where to send the RPC response.
#[derive(Clone, Copy, Debug)]
pub struct ReplyPath {
    pub gateway: NodeId,
    pub req_id: u64,
}

/// Deferred work produced while applying committed entries; the cluster
/// performs these after releasing the replica borrow.
#[derive(Debug)]
pub enum Effect {
    /// Answer an RPC.
    Reply {
        path: ReplyPath,
        result: Result<Response, KvError>,
    },
    /// Re-evaluate a previously parked request.
    ReEval { waiter: WaiterId },
    /// A replicated lease claim applied; the cluster updates the range
    /// registry (deduplicated by log index — every replica applies the
    /// same entry).
    LeaseApplied { node: NodeId, index: u64 },
    /// A replicated split applied; the cluster performs the descriptor and
    /// store surgery (the first application installs `rhs`, which is what
    /// re-deliveries from the other replicas bail on).
    SplitApplied { split_key: Key, rhs: RangeId },
    /// A replicated merge applied; the cluster absorbs `rhs`.
    MergeApplied { rhs: RangeId },
}

/// Outcome of evaluating a request.
pub enum EvalOutcome {
    /// Answer immediately.
    Reply(Result<Response, KvError>),
    /// The request is parked in a lock wait-queue; it will be re-evaluated
    /// when the lock releases. The cluster starts a txn-record pusher for
    /// the blocking transaction so intents orphaned by a dead coordinator
    /// are recovered.
    Parked { key: Key, holder: TxnMeta },
    /// A command was proposed; the response is decided and sent when it
    /// applies (or a redirect, if another leader's entry takes its slot).
    /// The Raft messages must be delivered by the caller. Batched proposals
    /// produce no messages here — they ship on the next flush (or
    /// heartbeat).
    Proposed { msgs: Vec<(Peer, RaftMsg<Batch>)> },
}

/// Context the cluster supplies for each evaluation.
pub struct EvalCtx<'a> {
    pub now: SimTime,
    pub params: &'a ClosedTsParams,
    /// Whether this replica currently holds the lease.
    pub is_leaseholder: bool,
    /// Routing hint attached to redirect errors.
    pub leaseholder: Option<NodeId>,
    /// Intentionally injected bug (chaos-checker validation only): skip the
    /// follower closed-frontier gate, serving possibly-stale data.
    pub stale_read_bug: bool,
}

/// A proposal waiting for its log slot to apply: who to answer, and the
/// term it was proposed in (an `Ok` answer goes out only in that term).
struct PendingProp {
    path: ReplyPath,
    term: u64,
}

/// A request parked in a lock wait-queue.
pub struct ParkedReq {
    pub req: Request,
    pub path: ReplyPath,
    /// The key whose lock the request is waiting on.
    pub key: Key,
}

/// One replica of a Range on one node.
pub struct Replica {
    pub range: RangeId,
    pub node: NodeId,
    /// This replica's Raft id.
    pub peer: Peer,
    /// Raft peer id → node, for message addressing.
    pub peer_nodes: Vec<NodeId>,
    pub store: Engine,
    pub raft: RaftNode<Batch>,
    pub tscache: TsCache,
    pub locks: LockTable,
    pub tracker: ClosedTsTracker,
    pub lease: ClosedTsLeaseState,
    pub policy: ClosedTsPolicy,
    /// In-flight proposals, keyed by `(log index, slot within the batch)`:
    /// apply answers each slot's proposal from what its command did.
    pending_props: BTreeMap<(u64, usize), PendingProp>,
    /// Commands evaluated but not yet appended to the Raft log, each with
    /// the RPC its apply answers: the group-commit staging area. Drained
    /// into a single multi-command entry by [`Replica::flush_batch`].
    batch_buf: Vec<(Command, ReplyPath)>,
    /// Batch sizes of flushed proposals since the last metrics scrape
    /// (feeds the `raft.batch_occupancy` histogram).
    prop_occupancy: Vec<u32>,
    parked: BTreeMap<WaiterId, ParkedReq>,
    next_waiter: WaiterId,
    /// Term in which this replica last proposed a `ClaimLease` (dedups
    /// re-proposals while the claim is in flight; a new term re-arms).
    lease_claim_term: Option<u64>,
    /// Term in which this replica last proposed a `Split`/`Merge` (dedups
    /// re-proposals while one is in flight; cleared when any lifecycle
    /// entry applies or a new term starts).
    lifecycle_term: Option<u64>,
    /// Whether a raft group-commit flush event is already on the calendar
    /// for this replica (dedups flush scheduling per batch).
    pub flush_scheduled: bool,
    /// Closed-timestamp wall time the scrape-time `closed_ts_monotonic`
    /// monitor last observed on this replica; `None` until the first scrape
    /// of this incarnation.
    pub monitor_closed: Option<u64>,
}

impl Replica {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        range: RangeId,
        node: NodeId,
        peer: Peer,
        peer_nodes: Vec<NodeId>,
        raft: RaftNode<Batch>,
        policy: ClosedTsPolicy,
    ) -> Replica {
        Replica {
            range,
            node,
            peer,
            peer_nodes,
            store: Engine::new(),
            raft,
            tscache: TsCache::new(Timestamp::ZERO),
            locks: LockTable::new(),
            tracker: ClosedTsTracker::new(),
            lease: ClosedTsLeaseState::default(),
            policy,
            pending_props: BTreeMap::new(),
            batch_buf: Vec::new(),
            prop_occupancy: Vec::new(),
            parked: BTreeMap::new(),
            next_waiter: 1,
            lease_claim_term: None,
            lifecycle_term: None,
            flush_scheduled: false,
            monitor_closed: None,
        }
    }

    pub fn node_for_peer(&self, p: Peer) -> NodeId {
        self.peer_nodes[p as usize]
    }

    pub fn peer_for_node(&self, n: NodeId) -> Option<Peer> {
        self.peer_nodes
            .iter()
            .position(|&x| x == n)
            .map(|i| i as Peer)
    }

    /// Take a parked request back out (when re-evaluating or cancelling).
    pub fn unpark(&mut self, waiter: WaiterId) -> Option<ParkedReq> {
        self.parked.remove(&waiter)
    }

    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// The requests a removed replica strands: parked in a lock queue,
    /// proposed, or buffered for the next flush (range surgery answers
    /// them).
    pub(crate) fn into_waiting(self) -> impl Iterator<Item = ReplyPath> {
        let parked = self.parked.into_values().map(|p| p.path);
        let props = self.pending_props.into_values().map(|p| p.path);
        let buffered = self.batch_buf.into_iter().map(|(_, path)| path);
        parked.chain(props).chain(buffered)
    }

    /// Simulate a process crash that loses all volatile state. The storage
    /// engine recovers solely from its durable WAL + SSTs, the Raft log
    /// truncates to its fsynced horizon (`drop_unsynced_log`), and every
    /// purely in-memory structure restarts cold:
    ///
    /// * transaction records live in the engine and come back with it;
    /// * the closed-timestamp tracker resumes from the recovered frontier
    ///   (durable, carried in WAL entry records);
    /// * the timestamp cache is gone — its low-water rises to
    ///   `conservative` (past any read the old incarnation could have
    ///   served), and the lease promise inherits the same bound so no
    ///   post-restart write lands below a pre-crash promise;
    /// * the lock table, parked waiters, and pending proposals vanish
    ///   unanswered: a crash is the fault case, and only the RPC timeout
    ///   re-routes their clients.
    pub fn crash_volatile(
        &mut self,
        conservative: Timestamp,
        drop_unsynced_log: bool,
    ) -> RecoveryInfo {
        let info = self.store.crash_and_recover();
        self.raft
            .crash_volatile(info.applied_index, drop_unsynced_log);
        let mut tracker = ClosedTsTracker::new();
        tracker.on_entry_applied(info.closed_ts, info.applied_index);
        self.tracker = tracker;
        self.lease.inherit(conservative);
        let mut tscache = TsCache::new(Timestamp::ZERO);
        tscache.raise_low_water(conservative);
        self.tscache = tscache;
        self.locks = LockTable::new();
        self.parked.clear();
        self.pending_props.clear();
        self.batch_buf.clear();
        self.lease_claim_term = None;
        self.lifecycle_term = None;
        self.flush_scheduled = false;
        // The recovered closed frontier comes from the last durable entry
        // record — legitimately below side-transport promises the old
        // incarnation observed — so the monitor's baseline restarts too.
        self.monitor_closed = None;
        info
    }

    /// Take in the promise standing for this range in the node's
    /// side-transport inbox. Everything that reads `tracker.closed()` on a
    /// replica that may follow — the follower-read gate, a leader stamping a
    /// command it proposes, the cluster's GC, scrape, lease-claim and
    /// re-install paths — calls this first.
    pub fn settle(&mut self, side_rx: SideRxAt<'_>) {
        if let Some(p) = side_rx.standing(self.range) {
            self.tracker.settle(p, self.raft.applied_index());
        }
    }

    // ---------------------------------------------------------------
    // Evaluation
    // ---------------------------------------------------------------

    /// Evaluate `req` on this replica.
    pub fn evaluate(
        &mut self,
        req: Request,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        if ctx.is_leaseholder {
            self.evaluate_at_leaseholder(req, path, hlc, ctx)
        } else {
            self.evaluate_at_follower(req, ctx)
        }
    }

    fn evaluate_at_follower(&mut self, req: Request, ctx: &EvalCtx<'_>) -> EvalOutcome {
        // The follower-read gate: serve only once the read's whole
        // uncertainty window is closed.
        if let Request::Get { ctx: rctx, .. } | Request::Scan { ctx: rctx, .. } = &req {
            let closed = self.tracker.closed();
            if closed < rctx.uncertainty_limit && !ctx.stale_read_bug {
                return EvalOutcome::Reply(Err(KvError::FollowerReadUnavailable {
                    range: self.range,
                    read_ts: rctx.read_ts,
                    closed_ts: closed,
                    leaseholder: ctx.leaseholder,
                }));
            }
        }
        match req {
            Request::Get { ctx: rctx, key } => match self.store.get(&key, &rctx) {
                Ok(out) => EvalOutcome::Reply(Ok(Response::Get {
                    value: out.value,
                    value_ts: out.value_ts,
                })),
                Err(e) => EvalOutcome::Reply(Err(self.map_mvcc_err(e, ctx.leaseholder))),
            },
            Request::Scan {
                ctx: rctx,
                span,
                max_keys,
            } => match self.store.scan(&span, &rctx, max_keys) {
                Ok(rows) => EvalOutcome::Reply(Ok(Response::Scan {
                    rows: rows.into_iter().map(|(k, v, _)| (k, v)).collect(),
                })),
                Err(e) => EvalOutcome::Reply(Err(self.map_mvcc_err(e, ctx.leaseholder))),
            },
            Request::Negotiate { span } => EvalOutcome::Reply(Ok(self.negotiate(&span))),
            _ => EvalOutcome::Reply(Err(KvError::NotLeaseholder {
                range: self.range,
                leaseholder: ctx.leaseholder,
            })),
        }
    }

    fn negotiate(&self, span: &mr_proto::Span) -> Response {
        // §5.3.2: the highest timestamp servable locally without blocking is
        // the closed timestamp, capped below any conflicting intent.
        let mut max_safe = self.tracker.closed();
        if let Some(intent_ts) = self.store.min_intent_ts_in(span) {
            if !intent_ts.is_zero() {
                max_safe = max_safe.min(intent_ts.prev());
            }
        }
        Response::Negotiate {
            max_safe_ts: max_safe,
        }
    }

    fn map_mvcc_err(&self, e: MvccError, leaseholder: Option<NodeId>) -> KvError {
        match e {
            MvccError::WriteIntent { key, intent_txn } => KvError::WriteIntent {
                key,
                intent_txn,
                leaseholder,
            },
            MvccError::Uncertainty {
                key,
                read_ts,
                value_ts,
            } => KvError::Uncertainty {
                key,
                read_ts,
                value_ts,
            },
            MvccError::BelowGcThreshold { read_ts, threshold } => {
                KvError::BatchTimestampBeforeGC { read_ts, threshold }
            }
        }
    }

    fn evaluate_at_leaseholder(
        &mut self,
        req: Request,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        match req {
            Request::Get { ctx: rctx, key } => self.lh_get(rctx, key, path),
            Request::Scan {
                ctx: rctx,
                span,
                max_keys,
            } => self.lh_scan(rctx, span, max_keys, path),
            Request::Put { txn, key, value } => self.lh_put(txn, key, value, path, hlc, ctx),
            Request::EndTxn { txn, commit } => self.lh_end_txn(txn, commit, path, hlc, ctx),
            Request::CommitInline {
                txn,
                writes,
                refresh_spans,
                local_reads_only,
                resolve_inline,
            } => self.lh_commit_inline(
                txn,
                writes,
                refresh_spans,
                local_reads_only,
                resolve_inline,
                path,
                hlc,
                ctx,
            ),
            Request::StageTxn { txn, in_flight } => {
                self.lh_stage_txn(txn, in_flight, path, hlc, ctx)
            }
            Request::QueryIntent { key, txn_id, ts } => {
                // Three-way verdict, decided in evaluation order at the
                // leaseholder (the sim's analogue of CRDB's latching):
                //  - the intent applied at or below `ts` → found;
                //  - the write is evaluated but not applied (lock held,
                //    proposal in flight) → undecidable now, retry — the
                //    proposal either lands (→ found) or dies with a
                //    leadership change (→ the new leaseholder has no lock
                //    and no intent, → miss);
                //  - neither → miss, made *stable* by bumping the timestamp
                //    cache: a late (re-)evaluation of the write is forwarded
                //    above `ts` and can no longer satisfy the staged commit.
                if self
                    .store
                    .intent(&key)
                    .is_some_and(|i| i.txn.id == txn_id && i.txn.write_ts <= ts)
                {
                    EvalOutcome::Reply(Ok(Response::QueryIntent { found: true }))
                } else if self
                    .locks
                    .holder(&key)
                    .is_some_and(|h| h.id == txn_id && h.write_ts <= ts)
                {
                    EvalOutcome::Reply(Err(KvError::WriteInFlight { key }))
                } else {
                    self.tscache.record_read(&key, ts, None);
                    EvalOutcome::Reply(Ok(Response::QueryIntent { found: false }))
                }
            }
            Request::RecoverTxn {
                txn_id,
                staged_ts,
                commit,
                ..
            } => self.lh_recover_txn(txn_id, staged_ts, commit, path, hlc, ctx),
            Request::ResolveIntent {
                key,
                txn_id,
                status,
                commit_ts,
            } => self.lh_resolve(key, txn_id, status, commit_ts, path, hlc, ctx),
            Request::Refresh {
                txn_id,
                span,
                from_ts,
                to_ts,
            } => self.lh_refresh(txn_id, span, from_ts, to_ts),
            Request::PushTxn { pushee, .. } => {
                let (status, commit_ts, in_flight) = match self.store.txn_record(pushee) {
                    Some(rec) => (rec.status, rec.commit_ts, rec.in_flight.clone()),
                    None => (TxnStatus::Pending, Timestamp::ZERO, Vec::new()),
                };
                EvalOutcome::Reply(Ok(Response::PushTxn {
                    status,
                    commit_ts,
                    in_flight,
                }))
            }
            Request::Negotiate { span } => EvalOutcome::Reply(Ok(self.negotiate(&span))),
        }
    }

    /// Does a write by `txn` to `key` conflict with another transaction?
    /// Checks the in-memory lock table first, then falls back to applied
    /// intents in the store: the lock table is leaseholder-local, so after
    /// a lease transfer the new leaseholder starts with an empty table
    /// while foreign intents persist in replicated MVCC state. Intents
    /// *are* the durable lock table (CRDB's "discovered intent" path) —
    /// ignoring them here would let a 1PC or Put pass evaluation and then
    /// violate the lock discipline invariant at apply time.
    fn write_conflicts(&self, key: &Key, txn_id: mr_proto::TxnId) -> bool {
        if let Some(holder) = self.locks.holder(key) {
            return holder.id != txn_id;
        }
        self.store.intent(key).is_some_and(|i| i.txn.id != txn_id)
    }

    fn park(&mut self, req: Request, path: ReplyPath, key: Key) -> EvalOutcome {
        let waiter = self.next_waiter;
        self.next_waiter += 1;
        self.locks.enqueue(&key, waiter);
        self.parked.insert(
            waiter,
            ParkedReq {
                req,
                path,
                key: key.clone(),
            },
        );
        // Identify the blocking transaction: prefer the in-flight lock
        // holder, else the applied intent. If the lock table has no holder
        // (the intent predates this replica's lease — state copy or
        // failover), register it so the eventual resolve releases the queue.
        let holder = self
            .locks
            .holder(&key)
            .cloned()
            .or_else(|| self.store.intent(&key).map(|i| i.txn.clone()))
            .expect("parked without a blocking txn");
        self.locks.acquire(&key, holder.clone());
        EvalOutcome::Parked { key, holder }
    }

    fn lh_get(&mut self, rctx: ReadCtx, key: Key, path: ReplyPath) -> EvalOutcome {
        // Conflict with an in-flight (proposed, unapplied) write?
        let own = rctx.txn.as_ref().map(|t| t.id);
        if let Some(holder) = self.locks.holder(&key) {
            if Some(holder.id) != own && holder.write_ts <= rctx.uncertainty_limit {
                return self.park(
                    Request::Get {
                        ctx: rctx,
                        key: key.clone(),
                    },
                    path,
                    key,
                );
            }
        }
        match self.store.get(&key, &rctx) {
            Ok(out) => {
                self.tscache.record_read(&key, rctx.read_ts, own);
                EvalOutcome::Reply(Ok(Response::Get {
                    value: out.value,
                    value_ts: out.value_ts,
                }))
            }
            Err(MvccError::WriteIntent { key, .. }) => self.park(
                Request::Get {
                    ctx: rctx,
                    key: key.clone(),
                },
                path,
                key,
            ),
            Err(e @ MvccError::Uncertainty { .. }) => {
                // The read's snapshot attempt still protects its timestamp.
                self.tscache.record_read(&key, rctx.read_ts, own);
                EvalOutcome::Reply(Err(self.map_mvcc_err(e, None)))
            }
            Err(e @ MvccError::BelowGcThreshold { .. }) => {
                EvalOutcome::Reply(Err(self.map_mvcc_err(e, None)))
            }
        }
    }

    fn lh_scan(
        &mut self,
        rctx: ReadCtx,
        span: mr_proto::Span,
        max_keys: usize,
        path: ReplyPath,
    ) -> EvalOutcome {
        let own = rctx.txn.as_ref().map(|t| t.id);
        let conflict = self
            .locks
            .first_locked_in_span(&span, own)
            .filter(|(_, h)| h.write_ts <= rctx.uncertainty_limit)
            .map(|(k, _)| k.clone());
        if let Some(k) = conflict {
            return self.park(
                Request::Scan {
                    ctx: rctx,
                    span,
                    max_keys,
                },
                path,
                k,
            );
        }
        match self.store.scan(&span, &rctx, max_keys) {
            Ok(rows) => {
                self.tscache.record_span_read(&span, rctx.read_ts);
                EvalOutcome::Reply(Ok(Response::Scan {
                    rows: rows.into_iter().map(|(k, v, _)| (k, v)).collect(),
                }))
            }
            Err(MvccError::WriteIntent { key, .. }) => self.park(
                Request::Scan {
                    ctx: rctx,
                    span,
                    max_keys,
                },
                path,
                key,
            ),
            Err(e @ MvccError::Uncertainty { .. }) => {
                self.tscache.record_span_read(&span, rctx.read_ts);
                EvalOutcome::Reply(Err(self.map_mvcc_err(e, None)))
            }
            Err(e @ MvccError::BelowGcThreshold { .. }) => {
                EvalOutcome::Reply(Err(self.map_mvcc_err(e, None)))
            }
        }
    }

    fn lh_put(
        &mut self,
        txn: TxnMeta,
        key: Key,
        value: Option<Value>,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        // Writes conflict with any foreign lock (or discovered foreign
        // intent), regardless of timestamp.
        if self.write_conflicts(&key, txn.id) {
            return self.park(
                Request::Put {
                    txn,
                    key: key.clone(),
                    value,
                },
                path,
                key,
            );
        }
        // Determine the final write timestamp.
        let mut ts = txn.write_ts;
        // 1. Above any prior read of this key by another transaction
        //    (serializability); the txn's own reads don't push its writes.
        ts = ts.forward(self.tscache.max_read_ts(&key, Some(txn.id)).next());
        // 2. Above the closed-timestamp promise. For GLOBAL (Lead) ranges
        //    this is what schedules the write in the future (§6.2.1).
        ts = ts.forward(self.advance_promise(hlc, ctx));
        // 3. Above any newer committed version (write-too-old).
        if let Some(latest) = self.store.latest_committed_ts(&key) {
            ts = ts.forward(latest.next());
        }
        let mut meta = txn;
        meta.write_ts = ts;
        self.locks.acquire(&key, meta.clone());
        let op = CmdOp::Put {
            key,
            value,
            txn: meta,
        };
        self.propose(op, path)
    }

    /// One-phase commit (the CRDB 1PC fast path): evaluate every write,
    /// forward the commit timestamp past reads/closed-timestamps/newer
    /// versions, re-validate the transaction's read spans at the final
    /// timestamp, and propose a single command that writes, commits, and
    /// resolves atomically. Locks are held only from evaluation to
    /// application — one Raft round.
    #[allow(clippy::too_many_arguments)]
    fn lh_commit_inline(
        &mut self,
        txn: TxnMeta,
        writes: Vec<(Key, Option<Value>)>,
        refresh_spans: Vec<(mr_proto::Span, Timestamp)>,
        local_reads_only: bool,
        resolve_inline: bool,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        // Replay protection: a timed-out first attempt may have left a
        // proposal that survives a leadership change and commits later. The
        // txn record is authoritative — a retry of an already-finalized
        // transaction must report the original outcome, never commit again
        // at a new timestamp.
        match self.store.txn_record(txn.id) {
            Some(rec) if rec.status == TxnStatus::Committed => {
                let cts = rec.commit_ts;
                return EvalOutcome::Reply(Ok(Response::CommitInline { commit_ts: cts }));
            }
            Some(_) => {
                return EvalOutcome::Reply(Err(KvError::TxnAborted { id: txn.id }));
            }
            None => {}
        }
        // Conflict check across all write keys (locks and discovered
        // intents alike).
        for (key, _) in &writes {
            if self.write_conflicts(key, txn.id) {
                let k = key.clone();
                return self.park(
                    Request::CommitInline {
                        txn,
                        writes,
                        refresh_spans,
                        local_reads_only,
                        resolve_inline,
                    },
                    path,
                    k,
                );
            }
        }
        // Final commit timestamp.
        let mut ts = txn.write_ts;
        for (key, _) in &writes {
            ts = ts.forward(self.tscache.max_read_ts(key, Some(txn.id)).next());
            if let Some(latest) = self.store.latest_committed_ts(key) {
                ts = ts.forward(latest.next());
            }
        }
        ts = ts.forward(self.advance_promise(hlc, ctx));
        // If the timestamp moved and some reads live on other ranges, we
        // cannot validate them here: refuse without side effects and let
        // the coordinator run the two-phase path.
        if ts > txn.write_ts && !local_reads_only {
            return EvalOutcome::Reply(Err(KvError::WriteTooOld {
                key: writes[0].0.clone(),
                attempted_ts: txn.write_ts,
                actual_ts: ts,
            }));
        }
        // Validate the read set at the final timestamp.
        for (span, from_ts) in &refresh_spans {
            if let Err(conflict_ts) = self.store.refresh_span(span, *from_ts, ts, txn.id) {
                return EvalOutcome::Reply(Err(KvError::RefreshFailed {
                    span_start: span.start.clone(),
                    conflict_ts,
                }));
            }
            self.tscache.record_span_read(span, ts);
        }
        // Acquire and propose.
        let mut meta = txn;
        meta.write_ts = ts;
        for (key, _) in &writes {
            self.locks.acquire(key, meta.clone());
        }
        let op = CmdOp::Commit1PC {
            txn_id: meta.id,
            commit_ts: ts,
            writes,
            resolve_inline,
        };
        self.propose(op, path)
    }

    fn lh_end_txn(
        &mut self,
        txn: TxnMeta,
        commit: bool,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        // Replay protection: finalized txn records are immutable. A retried
        // EndTxn reports the recorded outcome instead of re-proposing. A
        // STAGING record is the normal precursor here — the explicit commit
        // (or abort) that finalizes a parallel commit falls through and
        // proposes.
        match self.store.txn_record(txn.id) {
            Some(rec) if rec.status == TxnStatus::Staging => {}
            Some(rec) if rec.status == TxnStatus::Committed && commit => {
                let cts = rec.commit_ts;
                return EvalOutcome::Reply(Ok(Response::EndTxn { commit_ts: cts }));
            }
            Some(rec) if rec.status != TxnStatus::Committed && !commit => {
                return EvalOutcome::Reply(Ok(Response::EndTxn {
                    commit_ts: Timestamp::ZERO,
                }));
            }
            Some(_) => {
                return EvalOutcome::Reply(Err(KvError::TxnAborted { id: txn.id }));
            }
            None => {}
        }
        let status = if commit {
            TxnStatus::Committed
        } else {
            TxnStatus::Aborted
        };
        self.advance_promise(hlc, ctx);
        let op = CmdOp::TxnRecord {
            txn_id: txn.id,
            rec: TxnRecord::finalized(status, txn.write_ts),
        };
        self.propose(op, path)
    }

    /// Write a STAGING record carrying the parallel commit's in-flight
    /// write set. Staged at the txn's current write timestamp — the
    /// coordinator compares each pipelined write's actual timestamp against
    /// it to decide whether the commit is implicit.
    fn lh_stage_txn(
        &mut self,
        txn: TxnMeta,
        in_flight: Vec<Key>,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        // Replay / race protection: a recovery may have finalized the txn
        // before a (re-)stage arrives. Re-staging over an existing STAGING
        // record is allowed (timestamp moved after a refresh).
        match self.store.txn_record(txn.id) {
            Some(rec) if rec.status == TxnStatus::Committed => {
                let cts = rec.commit_ts;
                return EvalOutcome::Reply(Ok(Response::StageTxn { commit_ts: cts }));
            }
            Some(rec) if rec.status == TxnStatus::Aborted => {
                return EvalOutcome::Reply(Err(KvError::TxnAborted { id: txn.id }));
            }
            _ => {}
        }
        self.advance_promise(hlc, ctx);
        let rec = TxnRecord {
            status: TxnStatus::Staging,
            commit_ts: txn.write_ts,
            in_flight,
        };
        let op = CmdOp::TxnRecord {
            txn_id: txn.id,
            rec,
        };
        self.propose(op, path)
    }

    /// Finalize an abandoned STAGING record on behalf of a contender. The
    /// decisive check reruns at apply time (guarded on the record still
    /// being staged at `staged_ts`), so a coordinator re-stage racing this
    /// proposal wins or loses by log order — never both outcomes.
    fn lh_recover_txn(
        &mut self,
        txn_id: TxnId,
        staged_ts: Timestamp,
        commit: bool,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        match self.store.txn_record(txn_id) {
            Some(rec) if rec.status.is_finalized() => {
                return EvalOutcome::Reply(Ok(Response::RecoverTxn {
                    status: rec.status,
                    commit_ts: rec.commit_ts,
                }));
            }
            Some(rec) if rec.status == TxnStatus::Staging && rec.commit_ts != staged_ts => {
                // Re-staged at a different timestamp: the coordinator is
                // alive and this recovery's evidence is stale.
                return EvalOutcome::Reply(Ok(Response::RecoverTxn {
                    status: TxnStatus::Staging,
                    commit_ts: rec.commit_ts,
                }));
            }
            _ => {}
        }
        self.advance_promise(hlc, ctx);
        let cmd = self.stamped(CmdOp::RecoverTxn {
            txn_id,
            staged_ts,
            commit,
        });
        // Deliberately NOT batched: the apply-time staged_ts guard decides
        // the race between this recovery and a coordinator re-stage by log
        // order, so the recovery must occupy its own entry at a definite
        // log position rather than ride in a coalesced batch whose flush
        // timing would blur that ordering. Any buffered batch is appended
        // first so the log keeps evaluation order; the broadcast ships it
        // too.
        self.flush_buf_into_log();
        let term = self.raft.term();
        match self.raft.propose(Rc::new([cmd]), ctx.now) {
            Some((index, msgs)) => {
                self.pending_props
                    .insert((index, 0), PendingProp { path, term });
                EvalOutcome::Proposed { msgs }
            }
            None => EvalOutcome::Reply(Err(self.not_leader())),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lh_resolve(
        &mut self,
        key: Key,
        txn_id: TxnId,
        status: TxnStatus,
        commit_ts: Timestamp,
        path: ReplyPath,
        hlc: &mut Hlc,
        ctx: &EvalCtx<'_>,
    ) -> EvalOutcome {
        self.advance_promise(hlc, ctx);
        let op = CmdOp::Resolve {
            key,
            txn_id,
            status,
            commit_ts,
        };
        self.propose(op, path)
    }

    fn lh_refresh(
        &mut self,
        txn_id: TxnId,
        span: mr_proto::Span,
        from_ts: Timestamp,
        to_ts: Timestamp,
    ) -> EvalOutcome {
        match self.store.refresh_span(&span, from_ts, to_ts, txn_id) {
            Ok(()) => {
                // Protect the refreshed reads against later writes below
                // the new timestamp.
                self.tscache.record_span_read(&span, to_ts);
                EvalOutcome::Reply(Ok(Response::Refresh))
            }
            Err(conflict_ts) => EvalOutcome::Reply(Err(KvError::RefreshFailed {
                span_start: span.start,
                conflict_ts,
            })),
        }
    }

    /// Advance the lease's closed-timestamp promise to now (§5.1.1) and
    /// return the lowest timestamp a write may take under it.
    fn advance_promise(&mut self, hlc: &Hlc, ctx: &EvalCtx<'_>) -> Timestamp {
        let skew = hlc.physical_clock().skew_nanos();
        self.lease.advance(ctx.params, self.policy, ctx.now, skew);
        self.lease.min_write_ts()
    }

    /// `op` as a command carrying the lease's current promise.
    fn stamped(&self, op: CmdOp) -> Command {
        Command {
            closed_ts: self.lease.promised(),
            op,
        }
    }

    /// The redirect for a command this replica cannot propose: it no longer
    /// leads.
    fn not_leader(&self) -> KvError {
        KvError::NotLeaseholder {
            range: self.range,
            leaseholder: self.raft.leader_hint().map(|p| self.node_for_peer(p)),
        }
    }

    /// Stamp `op` and buffer it; `path` is answered when it applies.
    fn propose(&mut self, op: CmdOp, path: ReplyPath) -> EvalOutcome {
        // Group commit: the command is *buffered*, not yet appended — the
        // cluster schedules a flush, so commands evaluated close together —
        // a transaction's pipelined intents and its STAGING record — fold
        // into a single multi-command log entry and one consensus round.
        if !self.raft.is_leader() {
            return EvalOutcome::Reply(Err(self.not_leader()));
        }
        let cmd = self.stamped(op);
        self.batch_buf.push((cmd, path));
        EvalOutcome::Proposed { msgs: Vec::new() }
    }

    /// Append the buffered commands as one multi-command entry, registering
    /// a per-slot pending proposal for each. No-op unless this replica
    /// leads and the buffer is non-empty.
    fn flush_buf_into_log(&mut self) {
        if self.batch_buf.is_empty() || !self.raft.is_leader() {
            return;
        }
        let buf = std::mem::take(&mut self.batch_buf);
        self.prop_occupancy.push(buf.len() as u32);
        let (term, index) = (self.raft.term(), self.raft.last_index() + 1);
        // The one place a batch is materialised: commands move out of the
        // buffer into the shared entry payload, their reply hooks into
        // `pending_props`.
        let cmds: Batch = buf
            .into_iter()
            .enumerate()
            .map(|(slot, (cmd, path))| {
                self.pending_props
                    .insert((index, slot), PendingProp { path, term });
                cmd
            })
            .collect();
        let appended = self.raft.propose_batched(cmds);
        assert_eq!(appended, Some(index), "leadership checked above");
    }

    /// Ship the buffered batch: append it to the log and broadcast every
    /// unsent entry. If leadership was lost since evaluation, the buffered
    /// commands cannot be proposed — each caller gets a `NotLeaseholder`
    /// redirect instead of a silent drop.
    pub fn flush_batch(&mut self, now: SimTime) -> (Vec<(Peer, RaftMsg<Batch>)>, Vec<Effect>) {
        if !self.raft.is_leader() && !self.batch_buf.is_empty() {
            let err = self.not_leader();
            let effects = (self.batch_buf.drain(..))
                .map(|(_, path)| Effect::Reply {
                    path,
                    result: Err(err.clone()),
                })
                .collect();
            return (Vec::new(), effects);
        }
        self.flush_buf_into_log();
        (self.raft.flush_appends(now), Vec::new())
    }

    /// Whether a flush would do work: buffered commands or appended-but-
    /// unsent entries.
    pub fn has_pending_batch(&self) -> bool {
        !self.batch_buf.is_empty() || self.raft.has_pending_broadcast()
    }

    /// Drain the per-proposal batch sizes accumulated since the last call
    /// (metrics scrape).
    pub fn take_prop_occupancy(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.prop_occupancy)
    }

    /// Append `op` as its own log entry and broadcast it at once, stamped
    /// with the closed timestamp this replica has applied or been promised.
    /// For the leader-only entries, which answer no client; `None` when this
    /// replica does not lead.
    fn propose_alone(
        &mut self,
        op: CmdOp,
        now: SimTime,
        side_rx: SideRxAt<'_>,
    ) -> Option<Vec<(Peer, RaftMsg<Batch>)>> {
        if !self.raft.is_leader() {
            return None;
        }
        self.settle(side_rx);
        let cmd = Command {
            closed_ts: self.tracker.closed(),
            op,
        };
        self.raft.propose(Rc::new([cmd]), now).map(|(_, msgs)| msgs)
    }

    /// Propose a leader no-op if this replica leads a term whose log tail
    /// predates it (commits earlier-term entries; required after elections
    /// and leadership transfers). Deliberately NOT batched: the no-op must
    /// ship the instant leadership is established — nothing else may be in
    /// flight yet, and batching it behind a flush would delay
    /// leader-completeness for every prior-term entry.
    pub fn maybe_propose_leader_noop(
        &mut self,
        now: SimTime,
        side_rx: SideRxAt<'_>,
    ) -> Vec<(Peer, RaftMsg<Batch>)> {
        if !self.raft.is_leader() || self.raft.last_log_term() == self.raft.term() {
            return Vec::new();
        }
        self.propose_alone(CmdOp::Noop, now, side_rx)
            .unwrap_or_default()
    }

    /// Propose a replicated lease claim for this node (failover path). The
    /// caller decides *whether* a claim is warranted; this only guards
    /// against duplicate in-flight proposals within one term. Deliberately
    /// NOT batched: committing the claim is the proof the claimant reaches
    /// a quorum, and lease movement is gated on that commit — parking it in
    /// a buffer behind a flush would stall every redirected client, and no
    /// concurrent traffic exists on a range whose leaseholder just died.
    pub fn maybe_propose_lease_claim(
        &mut self,
        now: SimTime,
        side_rx: SideRxAt<'_>,
    ) -> Vec<(Peer, RaftMsg<Batch>)> {
        if self.lease_claim_term == Some(self.raft.term()) {
            return Vec::new();
        }
        let claim = CmdOp::ClaimLease { node: self.node };
        let msgs = self.propose_alone(claim, now, side_rx);
        if msgs.is_some() {
            self.lease_claim_term = Some(self.raft.term());
        }
        msgs.unwrap_or_default()
    }

    /// Propose a range-lifecycle mutation (`Split` or `Merge`) as its own
    /// log entry. Deliberately NOT batched: the surgery the cluster runs at
    /// apply time re-installs every replica of the range, so the entry must
    /// sit at a definite log position with every previously evaluated write
    /// flushed ahead of it — log order is what makes a transaction
    /// straddling the split see a consistent keyspace. Returns `None` when
    /// this replica does not lead or an earlier lifecycle proposal is still
    /// in flight this term.
    pub fn propose_lifecycle(
        &mut self,
        op: CmdOp,
        now: SimTime,
        side_rx: SideRxAt<'_>,
    ) -> Option<Vec<(Peer, RaftMsg<Batch>)>> {
        if self.lifecycle_term == Some(self.raft.term()) {
            return None;
        }
        self.flush_buf_into_log();
        let msgs = self.propose_alone(op, now, side_rx)?;
        self.lifecycle_term = Some(self.raft.term());
        Some(msgs)
    }

    // ---------------------------------------------------------------
    // Application
    // ---------------------------------------------------------------

    /// Apply all newly committed entries, fanning each multi-command batch
    /// entry out into per-slot effects and responses. Lock releases, waiter
    /// wake-ups, and proposal responses only have observable work to do on
    /// the replica that evaluated the requests (the leaseholder); on other
    /// replicas those structures are empty.
    pub fn apply_committed(&mut self) -> Vec<Effect> {
        let entries = self.raft.take_committed();
        let mut effects = Vec::new();
        for entry in entries {
            let mut closed = Timestamp::ZERO;
            for (slot, cmd) in entry.payload.iter().enumerate() {
                closed = closed.max(cmd.closed_ts);
                self.apply_cmd(cmd, entry.index, entry.term, slot, &mut effects);
            }
            // Append on every Raft apply: the store mutations of this entry
            // become one framed WAL record (durable at the next sync).
            self.store.seal_entry(entry.index, closed);
        }
        effects
    }

    /// Apply one command of a batch entry and answer the proposal waiting at
    /// `(index, slot)`, if any, with what applying it did.
    fn apply_cmd(
        &mut self,
        cmd: &Command,
        index: u64,
        term: u64,
        slot: usize,
        effects: &mut Vec<Effect>,
    ) {
        // `None` for the leader-only entries, which answer no client.
        let result = match &cmd.op {
            CmdOp::Noop => None,
            CmdOp::ClaimLease { node } => {
                self.lease_claim_term = None;
                effects.push(Effect::LeaseApplied { node: *node, index });
                None
            }
            CmdOp::Put { key, value, txn } => {
                // Lock discipline prevents conflicts while this replica
                // holds the lease, but a pipelined proposal can commit
                // *after* a lease failover — by then another transaction may
                // hold the key (locks are leaseholder-local, not
                // replicated). The store state is replicated, so what it
                // does is deterministic across replicas: over a foreign
                // intent the late write is dropped and fails, so the
                // coordinator aborts rather than acking a write that never
                // landed; above a later committed value it is bumped, and
                // the real timestamp goes back so the coordinator refreshes
                // (or a parallel commit restages).
                let put = self.store.put(key, value.clone(), txn);
                Some(match put {
                    Ok(out) => Ok(Response::Put {
                        written_ts: out.written_ts,
                    }),
                    Err(e) => Err(self.map_mvcc_err(e, None)),
                })
            }
            CmdOp::TxnRecord { txn_id, rec: new } => {
                let answer = |commit_ts| match new.status {
                    TxnStatus::Staging => Response::StageTxn { commit_ts },
                    _ => Response::EndTxn { commit_ts },
                };
                Some(match self.store.txn_record(*txn_id) {
                    Some(rec) if rec.status.is_finalized() => {
                        // Finalized records are immutable. A replayed entry
                        // agreeing with the recorded outcome reports the
                        // original commit timestamp; one that conflicts
                        // (e.g. a late stage after a recovery abort) fails.
                        // A stage landing on a committed record means a
                        // recovery already committed at the staged ts.
                        let agrees = match new.status {
                            TxnStatus::Committed | TxnStatus::Staging => {
                                rec.status == TxnStatus::Committed
                            }
                            TxnStatus::Aborted => rec.status == TxnStatus::Aborted,
                            TxnStatus::Pending => false,
                        };
                        if agrees {
                            Ok(answer(rec.commit_ts))
                        } else {
                            Err(KvError::TxnAborted { id: *txn_id })
                        }
                    }
                    // No record yet, or a STAGING record being re-staged or
                    // finalized: the new entry takes effect.
                    _ => {
                        self.store.note_txn_record(*txn_id, new.clone());
                        Ok(answer(new.commit_ts))
                    }
                })
            }
            CmdOp::RecoverTxn {
                txn_id,
                staged_ts,
                commit,
            } => {
                let (status, commit_ts) = match self.store.txn_record(*txn_id) {
                    Some(rec)
                        if rec.status == TxnStatus::Staging && rec.commit_ts == *staged_ts =>
                    {
                        // Still staged at the timestamp the recovery
                        // examined: its verdict applies.
                        let (s, c) = if *commit {
                            (TxnStatus::Committed, *staged_ts)
                        } else {
                            (TxnStatus::Aborted, Timestamp::ZERO)
                        };
                        self.store
                            .note_txn_record(*txn_id, TxnRecord::finalized(s, c));
                        (s, c)
                    }
                    // Re-staged or already finalized: leave the record and
                    // report its current disposition.
                    Some(rec) => (rec.status, rec.commit_ts),
                    None => {
                        // Never staged (the stage proposal was lost): write
                        // an abort so a late stage can no longer commit.
                        self.store.note_txn_record(
                            *txn_id,
                            TxnRecord::finalized(TxnStatus::Aborted, Timestamp::ZERO),
                        );
                        (TxnStatus::Aborted, Timestamp::ZERO)
                    }
                };
                Some(Ok(Response::RecoverTxn { status, commit_ts }))
            }
            CmdOp::Commit1PC {
                txn_id,
                commit_ts,
                writes,
                resolve_inline,
            } => Some(match self.store.txn_record(*txn_id) {
                // Replayed commit: a stalled first attempt and its retry
                // both made it into the log (leadership change mid-commit).
                // The first entry finalized the txn; drop the duplicate's
                // writes, release any locks its evaluation acquired, and
                // report the first entry's outcome.
                Some(rec) => {
                    let (status, cts) = (rec.status, rec.commit_ts);
                    for (key, _) in writes {
                        self.release_lock(key, *txn_id, effects);
                    }
                    if status == TxnStatus::Committed {
                        Ok(Response::CommitInline { commit_ts: cts })
                    } else {
                        Err(KvError::TxnAborted { id: *txn_id })
                    }
                }
                None => {
                    self.apply_commit_1pc(txn_id, commit_ts, writes, *resolve_inline, effects);
                    Ok(Response::CommitInline {
                        commit_ts: *commit_ts,
                    })
                }
            }),
            CmdOp::Split { split_key, rhs } => {
                // The descriptor/store surgery is cluster-level (it spans
                // replicas on several nodes); signal it.
                self.lifecycle_term = None;
                effects.push(Effect::SplitApplied {
                    split_key: split_key.clone(),
                    rhs: *rhs,
                });
                None
            }
            CmdOp::Merge { rhs } => {
                self.lifecycle_term = None;
                effects.push(Effect::MergeApplied { rhs: *rhs });
                None
            }
            CmdOp::Resolve {
                key,
                txn_id,
                status,
                commit_ts,
            } => {
                match status {
                    TxnStatus::Committed => {
                        self.store.commit_intent(key, *txn_id, *commit_ts);
                    }
                    TxnStatus::Aborted | TxnStatus::Pending | TxnStatus::Staging => {
                        self.store.abort_intent(key, *txn_id);
                    }
                }
                self.release_lock(key, *txn_id, effects);
                Some(Ok(Response::ResolveIntent))
            }
        };
        self.tracker.on_entry_applied(cmd.closed_ts, index);
        if let Some(prop) = self.pending_props.remove(&(index, slot)) {
            // The reply rule (DESIGN §9): an apply error answers whichever
            // proposal waits here, whatever its term; success only the
            // proposal whose own entry this is. Anything else — another
            // leader's entry took the slot — is a redirect.
            let result = match result {
                Some(Err(e)) => Err(e),
                Some(Ok(resp)) if prop.term == term => Ok(resp),
                _ => Err(KvError::NotLeaseholder {
                    range: self.range,
                    leaseholder: None,
                }),
            };
            effects.push(Effect::Reply {
                path: prop.path,
                result,
            });
        }
    }

    /// Release `key`'s lock if `txn_id` still holds it (a waiter may have
    /// acquired it since, e.g. after a stale resolve), queueing its waiters
    /// for re-evaluation.
    fn release_lock(&mut self, key: &Key, txn_id: TxnId, effects: &mut Vec<Effect>) {
        if self.locks.holder(key).is_some_and(|h| h.id == txn_id) {
            let waiters = self.locks.release(key).into_iter();
            effects.extend(waiters.map(|waiter| Effect::ReEval { waiter }));
        }
    }

    /// Apply a first-time (non-replayed) 1PC commit entry.
    fn apply_commit_1pc(
        &mut self,
        txn_id: &TxnId,
        commit_ts: &Timestamp,
        writes: &[(Key, Option<Value>)],
        resolve_inline: bool,
        effects: &mut Vec<Effect>,
    ) {
        for (key, value) in writes {
            // The intent commits in the same command, so the anchor
            // is immaterial; use the key itself.
            let meta = TxnMeta::new(*txn_id, key.clone(), *commit_ts);
            self.store
                .put(key, value.clone(), &meta)
                .expect("1PC lock discipline");
            if resolve_inline {
                self.store.commit_intent(key, *txn_id, *commit_ts);
                self.release_lock(key, *txn_id, effects);
            }
            // else: the intent stays locked until the coordinator's
            // post-commit-wait resolve (Spanner-style ablation).
        }
        self.store.note_txn_record(
            *txn_id,
            TxnRecord::finalized(TxnStatus::Committed, *commit_ts),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_clock::SkewedClock;
    use mr_proto::Span;
    use mr_raft::RaftConfig;
    use mr_sim::SimDuration;

    fn solo_replica(policy: ClosedTsPolicy) -> (Replica, Hlc) {
        let cfg = RaftConfig {
            id: 0,
            voters: vec![0],
            learners: vec![],
            election_timeout: SimDuration::from_millis(500),
            heartbeat_interval: SimDuration::from_millis(100),
            quiesce: true,
        };
        let mut raft = RaftNode::new(cfg, SimTime::ZERO);
        raft.bootstrap_leader(SimTime::ZERO);
        let replica = Replica::new(RangeId(1), NodeId(0), 0, vec![NodeId(0)], raft, policy);
        (replica, Hlc::new(SkewedClock::zero()))
    }

    fn ectx(params: &ClosedTsParams, now_ms: u64) -> EvalCtx<'_> {
        EvalCtx {
            now: SimTime(SimDuration::from_millis(now_ms).nanos()),
            params,
            is_leaseholder: true,
            leaseholder: Some(NodeId(0)),
            stale_read_bug: false,
        }
    }

    fn path() -> ReplyPath {
        ReplyPath {
            gateway: NodeId(9),
            req_id: 1,
        }
    }

    fn txn_at(id: u64, ts: Timestamp) -> TxnMeta {
        TxnMeta::new(TxnId(id), Key::from("k"), ts)
    }

    /// Flush the buffered batch into the log (solo voter: commits
    /// instantly) and apply, returning every effect.
    fn flush_apply(r: &mut Replica) -> Vec<Effect> {
        let (_msgs, mut effects) = r.flush_batch(SimTime::ZERO);
        effects.extend(r.apply_committed());
        effects
    }

    #[allow(clippy::too_many_arguments)]
    fn do_put(
        r: &mut Replica,
        hlc: &mut Hlc,
        params: &ClosedTsParams,
        now_ms: u64,
        id: u64,
        ts: Timestamp,
        key: &str,
        val: &str,
    ) -> Timestamp {
        let out = r.evaluate(
            Request::Put {
                txn: txn_at(id, ts),
                key: Key::from(key),
                value: Some(Value::from(val)),
            },
            path(),
            hlc,
            &ectx(params, now_ms),
        );
        assert!(matches!(out, EvalOutcome::Proposed { .. }));
        let effects = flush_apply(r);
        match effects.iter().find_map(|e| match e {
            Effect::Reply {
                result: Ok(Response::Put { written_ts }),
                ..
            } => Some(*written_ts),
            _ => None,
        }) {
            Some(ts) => ts,
            None => panic!("no put reply in {effects:?}"),
        }
    }

    #[test]
    fn regional_write_lands_near_now() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let now = Timestamp::new(SimDuration::from_secs(10).nanos(), 0);
        let wts = do_put(&mut r, &mut hlc, &params, 10_000, 1, now, "k", "v");
        assert_eq!(wts, now);
        assert!(!wts.synthetic);
    }

    #[test]
    fn global_write_scheduled_in_future() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lead);
        let params = ClosedTsParams::default();
        let now = Timestamp::new(SimDuration::from_secs(10).nanos(), 0);
        let wts = do_put(&mut r, &mut hlc, &params, 10_000, 1, now, "k", "v");
        // Scheduled past now + lead.
        assert!(wts.wall > now.wall + params.lead().nanos() - 1);
        assert!(wts.synthetic, "future-time writes are synthetic");
        // And the closed timestamp promised covers present time.
        assert!(r.tracker.closed().wall >= now.wall);
    }

    #[test]
    fn write_forwarded_above_tscache() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let read_ts = Timestamp::new(SimDuration::from_secs(20).nanos(), 0);
        // Serve a read at t=20s.
        let out = r.evaluate(
            Request::Get {
                ctx: ReadCtx::stale(read_ts),
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 10_000),
        );
        assert!(matches!(out, EvalOutcome::Reply(Ok(_))));
        // A later write at t=15s must land above the read.
        let w = Timestamp::new(SimDuration::from_secs(15).nanos(), 0);
        let wts = do_put(&mut r, &mut hlc, &params, 10_000, 1, w, "k", "v");
        assert!(wts > read_ts);
    }

    #[test]
    fn conflicting_write_parks_until_resolve() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let t1 = Timestamp::new(1_000, 0);
        let w1 = do_put(&mut r, &mut hlc, &params, 1, 1, t1, "k", "a");
        // Second txn's write parks.
        let out = r.evaluate(
            Request::Put {
                txn: txn_at(2, Timestamp::new(2_000, 0)),
                key: Key::from("k"),
                value: Some(Value::from("b")),
            },
            path(),
            &mut hlc,
            &ectx(&params, 1),
        );
        assert!(matches!(out, EvalOutcome::Parked { .. }));
        assert_eq!(r.parked_count(), 1);
        // Resolve txn 1 commit; waiter wakes.
        let out = r.evaluate(
            Request::ResolveIntent {
                key: Key::from("k"),
                txn_id: TxnId(1),
                status: TxnStatus::Committed,
                commit_ts: w1,
            },
            ReplyPath {
                gateway: NodeId(9),
                req_id: 2,
            },
            &mut hlc,
            &ectx(&params, 2),
        );
        assert!(matches!(out, EvalOutcome::Proposed { .. }));
        let effects = flush_apply(&mut r);
        let reeval: Vec<_> = effects
            .iter()
            .filter(|e| matches!(e, Effect::ReEval { .. }))
            .collect();
        assert_eq!(reeval.len(), 1);
        // Value committed.
        let out = r.evaluate(
            Request::Get {
                ctx: ReadCtx::stale(w1),
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 3),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::Get { value, .. })) => {
                assert_eq!(value, Some(Value::from("a")))
            }
            _ => panic!("expected value"),
        }
    }

    #[test]
    fn reader_below_future_intent_not_blocked() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lead);
        let params = ClosedTsParams::default();
        let now = Timestamp::new(SimDuration::from_secs(10).nanos(), 0);
        // Global write scheduled ~379ms in the future; lock held.
        let _ = r.evaluate(
            Request::Put {
                txn: txn_at(1, now),
                key: Key::from("k"),
                value: Some(Value::from("v")),
            },
            path(),
            &mut hlc,
            &ectx(&params, 10_000),
        );
        // Present-time reader with a 250ms uncertainty interval: the intent
        // is beyond its uncertainty limit, so it must NOT block.
        let rctx = ReadCtx::fresh(now, now.add_duration(SimDuration::from_millis(250)));
        let out = r.evaluate(
            Request::Get {
                ctx: rctx,
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 10_000),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::Get { value, .. })) => assert_eq!(value, None),
            o => panic!(
                "reader should not block: {:?}",
                matches!(o, EvalOutcome::Parked { .. })
            ),
        }
        // A reader whose uncertainty interval does reach the intent parks.
        let rctx = ReadCtx::fresh(now, now.add_duration(SimDuration::from_millis(700)));
        let out = r.evaluate(
            Request::Get {
                ctx: rctx,
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 10_000),
        );
        assert!(matches!(out, EvalOutcome::Parked { .. }));
    }

    #[test]
    fn follower_read_requires_closed_interval() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let fctx = EvalCtx {
            now: SimTime(SimDuration::from_secs(10).nanos()),
            params: &params,
            is_leaseholder: false,
            leaseholder: Some(NodeId(7)),
            stale_read_bug: false,
        };
        let read_ts = Timestamp::new(SimDuration::from_secs(5).nanos(), 0);
        let out = r.evaluate(
            Request::Get {
                ctx: ReadCtx::stale(read_ts),
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &fctx,
        );
        match out {
            EvalOutcome::Reply(Err(KvError::FollowerReadUnavailable { leaseholder, .. })) => {
                assert_eq!(leaseholder, Some(NodeId(7)));
            }
            _ => panic!("expected unavailable"),
        }
        // Close timestamps past the read: served.
        r.tracker.on_entry_applied(read_ts, 0);
        let out = r.evaluate(
            Request::Get {
                ctx: ReadCtx::stale(read_ts),
                key: Key::from("k"),
            },
            path(),
            &mut hlc,
            &fctx,
        );
        assert!(matches!(out, EvalOutcome::Reply(Ok(Response::Get { .. }))));
    }

    #[test]
    fn follower_rejects_writes() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let fctx = EvalCtx {
            now: SimTime::ZERO,
            params: &params,
            is_leaseholder: false,
            leaseholder: Some(NodeId(7)),
            stale_read_bug: false,
        };
        let out = r.evaluate(
            Request::Put {
                txn: txn_at(1, Timestamp::new(10, 0)),
                key: Key::from("k"),
                value: None,
            },
            path(),
            &mut hlc,
            &fctx,
        );
        assert!(matches!(
            out,
            EvalOutcome::Reply(Err(KvError::NotLeaseholder { .. }))
        ));
    }

    #[test]
    fn negotiate_caps_below_intents() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        r.tracker.on_entry_applied(Timestamp::new(10_000, 0), 0);
        let out = r.evaluate(
            Request::Negotiate {
                span: Span::point(Key::from("k")),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::Negotiate { max_safe_ts })) => {
                assert_eq!(max_safe_ts, Timestamp::new(10_000, 0));
            }
            _ => panic!(),
        }
        // Intent at 5000 caps negotiation below it.
        let _ = r.evaluate(
            Request::Put {
                txn: txn_at(1, Timestamp::new(5_000, 0)),
                key: Key::from("k"),
                value: Some(Value::from("v")),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        flush_apply(&mut r);
        let out = r.evaluate(
            Request::Negotiate {
                span: Span::point(Key::from("k")),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::Negotiate { max_safe_ts })) => {
                assert!(max_safe_ts < Timestamp::new(5_000, 0));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn refresh_protects_window() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let span = Span::new(Key::from("a"), Key::from("z"));
        // Refresh over an empty window succeeds and protects it.
        let out = r.evaluate(
            Request::Refresh {
                txn_id: TxnId(5),
                span: span.clone(),
                from_ts: Timestamp::new(100, 0),
                to_ts: Timestamp::new(5_000, 0),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        assert!(matches!(out, EvalOutcome::Reply(Ok(Response::Refresh))));
        // A later write to a covered key is forwarded above the refresh.
        let wts = do_put(
            &mut r,
            &mut hlc,
            &params,
            0,
            6,
            Timestamp::new(200, 0),
            "m",
            "v",
        );
        assert!(wts > Timestamp::new(5_000, 0));
    }

    /// Evaluate a proposal-producing request, apply it, and return the reply.
    fn eval_apply(
        r: &mut Replica,
        hlc: &mut Hlc,
        params: &ClosedTsParams,
        req: Request,
    ) -> Result<Response, KvError> {
        let out = r.evaluate(req, path(), hlc, &ectx(params, 0));
        match out {
            EvalOutcome::Proposed { .. } => {
                let effects = flush_apply(r);
                effects
                    .into_iter()
                    .find_map(|e| match e {
                        Effect::Reply { result, .. } => Some(result),
                        _ => None,
                    })
                    .expect("no reply effect")
            }
            EvalOutcome::Reply(result) => result,
            EvalOutcome::Parked { .. } => panic!("unexpected park"),
        }
    }

    #[test]
    fn stage_then_explicit_end_txn_finalizes() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let ts = Timestamp::new(1_000, 0);
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::StageTxn {
                txn: txn_at(1, ts),
                in_flight: vec![Key::from("a"), Key::from("b")],
            },
        );
        match resp {
            Ok(Response::StageTxn { commit_ts }) => assert_eq!(commit_ts, ts),
            r => panic!("{r:?}"),
        }
        // A pusher sees the staged record with its in-flight write set.
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::PushTxn {
                pushee: TxnId(1),
                anchor: Key::from("k"),
            },
        );
        match resp {
            Ok(Response::PushTxn {
                status, in_flight, ..
            }) => {
                assert_eq!(status, TxnStatus::Staging);
                assert_eq!(in_flight, vec![Key::from("a"), Key::from("b")]);
            }
            r => panic!("{r:?}"),
        }
        // The explicit commit finalizes the staging record.
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::EndTxn {
                txn: txn_at(1, ts),
                commit: true,
            },
        );
        assert!(matches!(resp, Ok(Response::EndTxn { commit_ts }) if commit_ts == ts));
        let rec = r.store.txn_record(TxnId(1)).unwrap();
        assert_eq!(rec.status, TxnStatus::Committed);
        assert!(rec.in_flight.is_empty());
    }

    #[test]
    fn recovery_commits_when_every_intent_landed() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let ts = Timestamp::new(1_000, 0);
        let wts = do_put(&mut r, &mut hlc, &params, 1, 1, ts, "k", "v");
        let _ = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::StageTxn {
                txn: txn_at(1, wts),
                in_flight: vec![Key::from("k")],
            },
        );
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::QueryIntent {
                key: Key::from("k"),
                txn_id: TxnId(1),
                ts: wts,
            },
        );
        assert!(matches!(resp, Ok(Response::QueryIntent { found: true })));
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::RecoverTxn {
                txn_id: TxnId(1),
                anchor: Key::from("k"),
                staged_ts: wts,
                commit: true,
            },
        );
        match resp {
            Ok(Response::RecoverTxn { status, commit_ts }) => {
                assert_eq!(status, TxnStatus::Committed);
                assert_eq!(commit_ts, wts);
            }
            r => panic!("{r:?}"),
        }
    }

    #[test]
    fn recovery_abort_prevents_a_late_write_from_landing() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let ts = Timestamp::new(1_000, 0);
        let _ = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::StageTxn {
                txn: txn_at(1, ts),
                in_flight: vec![Key::from("k")],
            },
        );
        // The write never arrived: not found, and the miss is protected.
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::QueryIntent {
                key: Key::from("k"),
                txn_id: TxnId(1),
                ts,
            },
        );
        assert!(matches!(resp, Ok(Response::QueryIntent { found: false })));
        // A late arrival of the txn's own write is forwarded above the
        // queried timestamp — it can no longer satisfy the staged commit.
        let wts = do_put(&mut r, &mut hlc, &params, 1, 1, ts, "k", "v");
        assert!(wts > ts, "late write must land above the query-intent ts");
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::RecoverTxn {
                txn_id: TxnId(1),
                anchor: Key::from("k"),
                staged_ts: ts,
                commit: false,
            },
        );
        assert!(
            matches!(resp, Ok(Response::RecoverTxn { status, .. }) if status == TxnStatus::Aborted)
        );
        // A replayed stage after the recovery abort fails loudly.
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::StageTxn {
                txn: txn_at(1, ts),
                in_flight: vec![Key::from("k")],
            },
        );
        assert!(matches!(resp, Err(KvError::TxnAborted { .. })));
    }

    #[test]
    fn recovery_skips_a_restaged_record() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let s1 = Timestamp::new(1_000, 0);
        let s2 = Timestamp::new(2_000, 0);
        for ts in [s1, s2] {
            let _ = eval_apply(
                &mut r,
                &mut hlc,
                &params,
                Request::StageTxn {
                    txn: txn_at(1, ts),
                    in_flight: vec![Key::from("k")],
                },
            );
        }
        // Recovery evidence gathered against the first stage is stale: the
        // record must be left staged (the coordinator is alive).
        let resp = eval_apply(
            &mut r,
            &mut hlc,
            &params,
            Request::RecoverTxn {
                txn_id: TxnId(1),
                anchor: Key::from("k"),
                staged_ts: s1,
                commit: false,
            },
        );
        match resp {
            Ok(Response::RecoverTxn { status, commit_ts }) => {
                assert_eq!(status, TxnStatus::Staging);
                assert_eq!(commit_ts, s2);
            }
            r => panic!("{r:?}"),
        }
        assert_eq!(
            r.store.txn_record(TxnId(1)).unwrap().status,
            TxnStatus::Staging
        );
    }

    #[test]
    fn end_txn_writes_record_and_push_reads_it() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let commit_ts = Timestamp::new(1_000, 0);
        let out = r.evaluate(
            Request::EndTxn {
                txn: txn_at(3, commit_ts),
                commit: true,
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        assert!(matches!(out, EvalOutcome::Proposed { .. }));
        flush_apply(&mut r);
        let out = r.evaluate(
            Request::PushTxn {
                pushee: TxnId(3),
                anchor: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::PushTxn {
                status,
                commit_ts: c,
                ..
            })) => {
                assert_eq!(status, TxnStatus::Committed);
                assert_eq!(c, commit_ts);
            }
            _ => panic!(),
        }
        // Unknown txn pushes as Pending.
        let out = r.evaluate(
            Request::PushTxn {
                pushee: TxnId(99),
                anchor: Key::from("k"),
            },
            path(),
            &mut hlc,
            &ectx(&params, 0),
        );
        match out {
            EvalOutcome::Reply(Ok(Response::PushTxn { status, .. })) => {
                assert_eq!(status, TxnStatus::Pending);
            }
            _ => panic!(),
        }
    }

    /// Evaluate `req` as request `req_id`; it must be proposed, not answered.
    fn propose_req(
        r: &mut Replica,
        hlc: &mut Hlc,
        params: &ClosedTsParams,
        req_id: u64,
        req: Request,
    ) {
        let path = ReplyPath {
            gateway: NodeId(9),
            req_id,
        };
        let out = r.evaluate(req, path, hlc, &ectx(params, 0));
        assert!(matches!(out, EvalOutcome::Proposed { .. }));
    }

    /// The reply `effects` carry for request `req_id`.
    fn reply_to(effects: &[Effect], req_id: u64) -> Result<Response, KvError> {
        effects
            .iter()
            .find_map(|e| match e {
                Effect::Reply { path, result } if path.req_id == req_id => Some(result.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("no reply to {req_id} in {effects:?}"))
    }

    fn commit_inline(txn: TxnMeta, resolve_inline: bool) -> Request {
        Request::CommitInline {
            txn,
            writes: vec![(Key::from("k"), Some(Value::from("v")))],
            refresh_spans: Vec::new(),
            local_reads_only: true,
            resolve_inline,
        }
    }

    #[test]
    fn a_put_applied_above_a_newer_version_answers_the_bumped_timestamp() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let key = Key::from("k");
        let ts = Timestamp::new(1_000, 0);
        let put = Request::Put {
            txn: txn_at(1, ts),
            key: key.clone(),
            value: Some(Value::from("a")),
        };
        propose_req(&mut r, &mut hlc, &params, 1, put);
        // A newer version commits between evaluation and apply, as one
        // applied from an earlier leaseholder's log entries can.
        let newer = Timestamp::new(5_000, 0);
        r.store
            .put(&key, Some(Value::from("b")), &txn_at(2, newer))
            .unwrap();
        assert!(r.store.commit_intent(&key, TxnId(2), newer));
        let effects = flush_apply(&mut r);
        match reply_to(&effects, 1) {
            Ok(Response::Put { written_ts }) => assert_eq!(written_ts, newer.next()),
            res => panic!("{res:?}"),
        }
        assert_eq!(r.store.intent(&key).unwrap().txn.write_ts, newer.next());
    }

    #[test]
    fn a_put_applied_over_a_foreign_intent_answers_write_intent_and_writes_nothing() {
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let params = ClosedTsParams::default();
        let key = Key::from("k");
        let put = Request::Put {
            txn: txn_at(1, Timestamp::new(1_000, 0)),
            key: key.clone(),
            value: Some(Value::from("a")),
        };
        propose_req(&mut r, &mut hlc, &params, 1, put);
        let holder = txn_at(2, Timestamp::new(2_000, 0));
        r.store.put(&key, Some(Value::from("b")), &holder).unwrap();
        let effects = flush_apply(&mut r);
        match reply_to(&effects, 1) {
            Err(KvError::WriteIntent {
                key: k,
                intent_txn,
                leaseholder,
            }) => {
                assert_eq!(k, key);
                assert_eq!(intent_txn.id, holder.id);
                assert_eq!(intent_txn.write_ts, holder.write_ts);
                assert_eq!(leaseholder, None);
            }
            res => panic!("{res:?}"),
        }
        let intent = r.store.intent(&key).unwrap();
        assert_eq!(intent.txn.id, holder.id);
        assert_eq!(intent.value, Some(Value::from("b")));
        assert_eq!(r.store.latest_committed_ts(&key), None);
    }

    #[test]
    fn a_replayed_one_phase_commit_answers_the_first_outcome_and_releases_its_locks() {
        let params = ClosedTsParams::default();
        let key = Key::from("k");
        let (t1, t2) = (Timestamp::new(1_000, 0), Timestamp::new(2_000, 0));
        // A first attempt and its retry land in one entry. The first keeps
        // its lock (no inline resolve); the replay releases it.
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        propose_req(
            &mut r,
            &mut hlc,
            &params,
            1,
            commit_inline(txn_at(1, t1), false),
        );
        propose_req(
            &mut r,
            &mut hlc,
            &params,
            2,
            commit_inline(txn_at(1, t2), true),
        );
        let effects = flush_apply(&mut r);
        for req_id in [1, 2] {
            match reply_to(&effects, req_id) {
                Ok(Response::CommitInline { commit_ts }) => assert_eq!(commit_ts, t1),
                res => panic!("{res:?}"),
            }
        }
        assert!(r.locks.holder(&key).is_none());
        assert_eq!(r.store.intent(&key).unwrap().txn.write_ts, t1);
        // An abort applied ahead of the attempt: it answers `TxnAborted`,
        // writes nothing and still releases the lock.
        let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
        let abort = Request::EndTxn {
            txn: txn_at(1, t1),
            commit: false,
        };
        propose_req(&mut r, &mut hlc, &params, 1, abort);
        propose_req(
            &mut r,
            &mut hlc,
            &params,
            2,
            commit_inline(txn_at(1, t1), true),
        );
        let effects = flush_apply(&mut r);
        assert!(matches!(
            reply_to(&effects, 2),
            Err(KvError::TxnAborted { id }) if id == TxnId(1)
        ));
        assert!(r.locks.holder(&key).is_none());
        assert!(r.store.intent(&key).is_none());
        assert_eq!(r.store.latest_committed_ts(&key), None);
    }

    #[test]
    fn a_stage_landing_on_a_recovered_record_answers_from_the_record() {
        let params = ClosedTsParams::default();
        let staged = Timestamp::new(1_000, 0);
        let recovered = Timestamp::new(3_000, 0);
        for status in [TxnStatus::Committed, TxnStatus::Aborted] {
            let (mut r, mut hlc) = solo_replica(ClosedTsPolicy::Lag);
            let stage = Request::StageTxn {
                txn: txn_at(1, staged),
                in_flight: vec![Key::from("k")],
            };
            propose_req(&mut r, &mut hlc, &params, 1, stage);
            // A recovery finalizes the record before the stage applies.
            let rec = TxnRecord::finalized(status, recovered);
            r.store.note_txn_record(TxnId(1), rec);
            let effects = flush_apply(&mut r);
            match (status, reply_to(&effects, 1)) {
                (TxnStatus::Committed, Ok(Response::StageTxn { commit_ts })) => {
                    assert_eq!(commit_ts, recovered)
                }
                (TxnStatus::Aborted, Err(KvError::TxnAborted { id })) => {
                    assert_eq!(id, TxnId(1))
                }
                (_, res) => panic!("{status:?}: {res:?}"),
            }
            assert_eq!(r.store.txn_record(TxnId(1)).unwrap().status, status);
        }
    }
}
