//! KV request and response payloads.
//!
//! Requests are addressed to a Range and evaluated by one of its replicas:
//! the leaseholder for writes and fresh reads, possibly a follower for
//! reads at sufficiently old (closed) timestamps.

use mr_clock::Timestamp;

use crate::keys::{Key, Span, Value};
use crate::txn::{TxnId, TxnMeta, TxnStatus};

/// How the sender wants the request routed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingPolicy {
    /// Must be served by the leaseholder (writes, fresh reads on REGIONAL).
    Leaseholder,
    /// Prefer the replica nearest the gateway; it serves the read if its
    /// closed timestamp allows, otherwise the sender is redirected
    /// (follower reads, stale reads, GLOBAL present-time reads).
    Nearest,
}

/// Read context common to `Get` and `Scan`.
#[derive(Clone, Debug)]
pub struct ReadCtx {
    /// MVCC snapshot the read observes.
    pub read_ts: Timestamp,
    /// Upper bound of the uncertainty interval. Values committed in
    /// `(read_ts, uncertainty_limit]` force an uncertainty restart. Stale
    /// reads set `uncertainty_limit == read_ts` (no uncertainty, §5.3).
    pub uncertainty_limit: Timestamp,
    /// The enclosing transaction, if any. Reads within a transaction see
    /// their own provisional writes.
    pub txn: Option<TxnMeta>,
}

impl ReadCtx {
    /// A non-transactional read with an uncertainty interval.
    pub fn fresh(read_ts: Timestamp, uncertainty_limit: Timestamp) -> ReadCtx {
        ReadCtx {
            read_ts,
            uncertainty_limit,
            txn: None,
        }
    }

    /// A stale read: fixed timestamp, no uncertainty interval.
    pub fn stale(read_ts: Timestamp) -> ReadCtx {
        ReadCtx {
            read_ts,
            uncertainty_limit: read_ts,
            txn: None,
        }
    }
}

/// A request evaluated by a Range replica.
#[derive(Clone, Debug)]
pub enum Request {
    Get {
        ctx: ReadCtx,
        key: Key,
    },
    Scan {
        ctx: ReadCtx,
        span: Span,
        max_keys: usize,
    },
    /// Write (or delete, when `value` is `None`) a provisional intent.
    Put {
        txn: TxnMeta,
        key: Key,
        value: Option<Value>,
    },
    /// Finalize the transaction record (evaluated at the anchor range).
    EndTxn {
        txn: TxnMeta,
        commit: bool,
    },
    /// One-phase commit: lay down all writes, validate refresh spans, and
    /// commit atomically in a single replicated command. Only valid when
    /// every write targets one range. `local_reads_only` is set when every
    /// read span of the transaction lies in that range too; when it is
    /// false and the commit timestamp must be forwarded, the evaluation
    /// fails with `WriteTooOld` (without side effects) and the coordinator
    /// falls back to the two-phase path.
    CommitInline {
        txn: TxnMeta,
        writes: Vec<(Key, Option<Value>)>,
        /// Read spans to re-validate if the timestamp is forwarded, with
        /// the timestamp each was read at.
        refresh_spans: Vec<(Span, Timestamp)>,
        local_reads_only: bool,
        /// Resolve (release locks) in the same command (the CRDB behaviour;
        /// §6.2). `false` models Spanner-style commit wait holding locks:
        /// the coordinator resolves after its wait completes.
        resolve_inline: bool,
    },
    /// Write a STAGING transaction record carrying the in-flight write set
    /// (the parallel-commits protocol, evaluated at the anchor range). Sent
    /// concurrently with the final pipelined intents; the transaction is
    /// implicitly committed once every in-flight write has succeeded at or
    /// below the staged timestamp.
    StageTxn {
        txn: TxnMeta,
        in_flight: Vec<Key>,
    },
    /// Ask whether an intent of `txn_id` exists at `key` at or below `ts`.
    /// When the intent is missing, the evaluation records a read of `key`
    /// at `ts` in the timestamp cache, *preventing* a late write from
    /// landing at or below `ts` — this is what makes a recovery verdict of
    /// "write never happened" stable against in-flight RPCs.
    QueryIntent {
        key: Key,
        txn_id: TxnId,
        ts: Timestamp,
    },
    /// Finalize an abandoned STAGING record (evaluated at the anchor
    /// range): commit it at `staged_ts` if the recovery found every
    /// in-flight write, abort it otherwise. A record already finalized, or
    /// re-staged at a different timestamp, is left untouched.
    RecoverTxn {
        txn_id: TxnId,
        anchor: Key,
        staged_ts: Timestamp,
        commit: bool,
    },
    /// Resolve an intent left by a finalized transaction.
    ResolveIntent {
        key: Key,
        txn_id: TxnId,
        status: TxnStatus,
        commit_ts: Timestamp,
    },
    /// Verify no committed write landed in `(from_ts, to_ts]` over `span`
    /// (the read-refresh used when a transaction's timestamp is bumped).
    Refresh {
        txn_id: TxnId,
        span: Span,
        from_ts: Timestamp,
        to_ts: Timestamp,
    },
    /// Ask the anchor range for a transaction's disposition (used by readers
    /// blocked on an intent whose coordinator may have finished).
    PushTxn {
        pushee: TxnId,
        anchor: Key,
    },
    /// Bounded-staleness negotiation: the highest timestamp at which `span`
    /// can be served locally without blocking (§5.3.2).
    Negotiate {
        span: Span,
    },
}

impl Request {
    /// The key used to route this request to a Range (a span request's
    /// start; [`Request::span`] has the rest of it).
    pub fn routing_key(&self) -> &Key {
        match self {
            Request::Get { key, .. } => key,
            Request::Scan { span, .. } => &span.start,
            Request::Put { key, .. } => key,
            Request::EndTxn { txn, .. } => &txn.anchor,
            Request::CommitInline { txn, .. } => &txn.anchor,
            Request::StageTxn { txn, .. } => &txn.anchor,
            Request::QueryIntent { key, .. } => key,
            Request::RecoverTxn { anchor, .. } => anchor,
            Request::ResolveIntent { key, .. } => key,
            Request::Refresh { span, .. } => &span.start,
            Request::PushTxn { anchor, .. } => anchor,
            Request::Negotiate { span } => &span.start,
        }
    }

    /// The keys a span request (`Scan`, `Refresh`, `Negotiate`) covers, all
    /// of which its range must hold; `None` for a request about one key.
    pub fn span(&self) -> Option<&Span> {
        match self {
            Request::Scan { span, .. }
            | Request::Refresh { span, .. }
            | Request::Negotiate { span } => Some(span),
            _ => None,
        }
    }

    /// Whether the request mutates replicated state (and therefore must be
    /// proposed through Raft by the leaseholder).
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Put { .. }
                | Request::EndTxn { .. }
                | Request::CommitInline { .. }
                | Request::StageTxn { .. }
                | Request::RecoverTxn { .. }
                | Request::ResolveIntent { .. }
        )
    }

    /// Whether the request only observes MVCC state. Reads never enter the
    /// Raft log: a leaseholder serves them off local state under its lease
    /// (the read fast path), and followers serve them under the closed
    /// timestamp. Note `!is_read()` is not `is_write()` — `Refresh`,
    /// `PushTxn`, `QueryIntent`, and `Negotiate` are neither.
    pub fn is_read(&self) -> bool {
        matches!(self, Request::Get { .. } | Request::Scan { .. })
    }
}

/// Successful response payloads, mirroring [`Request`] variants.
#[derive(Clone, Debug)]
pub enum Response {
    Get {
        value: Option<Value>,
        /// Commit timestamp of the returned version (zero if absent). A
        /// *synthetic* timestamp here signals a future-time value the
        /// reader may need to commit-wait on.
        value_ts: Timestamp,
    },
    Scan {
        rows: Vec<(Key, Value)>,
    },
    Put {
        /// The timestamp actually written (possibly bumped above the
        /// requested one by the timestamp cache or a closed timestamp).
        written_ts: Timestamp,
    },
    EndTxn {
        commit_ts: Timestamp,
    },
    /// One-phase commit succeeded at this timestamp.
    CommitInline {
        commit_ts: Timestamp,
    },
    /// STAGING record written at this timestamp.
    StageTxn {
        commit_ts: Timestamp,
    },
    QueryIntent {
        found: bool,
    },
    /// Disposition the recovery left the record in.
    RecoverTxn {
        status: TxnStatus,
        commit_ts: Timestamp,
    },
    ResolveIntent,
    Refresh,
    PushTxn {
        status: TxnStatus,
        commit_ts: Timestamp,
        /// In-flight write set when `status` is STAGING (empty otherwise):
        /// everything a contender needs to run status recovery itself.
        in_flight: Vec<Key>,
    },
    Negotiate {
        max_safe_ts: Timestamp,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_key_per_variant() {
        let k = Key::from("k");
        let txn = TxnMeta::new(TxnId(1), Key::from("anchor"), Timestamp::new(1, 0));
        let get = Request::Get {
            ctx: ReadCtx::stale(Timestamp::new(1, 0)),
            key: k.clone(),
        };
        assert_eq!(get.routing_key(), &k);
        let end = Request::EndTxn {
            txn: txn.clone(),
            commit: true,
        };
        assert_eq!(end.routing_key(), &Key::from("anchor"));
        assert!(!get.is_write());
        assert!(end.is_write());
        let put = Request::Put {
            txn: txn.clone(),
            key: k.clone(),
            value: Some(Value::from("v")),
        };
        assert_eq!(put.routing_key(), &k);
        assert!(put.is_write());
        let commit = Request::CommitInline {
            txn,
            writes: vec![(k.clone(), None)],
            refresh_spans: Vec::new(),
            local_reads_only: true,
            resolve_inline: true,
        };
        assert_eq!(commit.routing_key(), &Key::from("anchor"), "not the write");
        let resolve = Request::ResolveIntent {
            key: k.clone(),
            txn_id: TxnId(1),
            status: TxnStatus::Committed,
            commit_ts: Timestamp::new(2, 0),
        };
        assert_eq!(resolve.routing_key(), &k);
        let push = Request::PushTxn {
            pushee: TxnId(1),
            anchor: Key::from("anchor"),
        };
        assert_eq!(push.routing_key(), &Key::from("anchor"));
        assert!([&get, &end, &put, &commit, &resolve, &push]
            .iter()
            .all(|req| req.span().is_none()));
        // Span requests route by the span's start and carry the whole span.
        let span = Span::new(Key::from("s"), Key::from("t"));
        let scan = Request::Scan {
            ctx: ReadCtx::stale(Timestamp::new(1, 0)),
            span: span.clone(),
            max_keys: 10,
        };
        let refresh = Request::Refresh {
            txn_id: TxnId(1),
            span: span.clone(),
            from_ts: Timestamp::new(1, 0),
            to_ts: Timestamp::new(2, 0),
        };
        let negotiate = Request::Negotiate { span: span.clone() };
        for req in [&scan, &refresh, &negotiate] {
            assert_eq!(req.routing_key(), &Key::from("s"), "{req:?}");
            assert_eq!(req.span(), Some(&span), "{req:?}");
        }
    }

    #[test]
    fn parallel_commit_requests_route_and_classify() {
        let txn = TxnMeta::new(TxnId(2), Key::from("anchor"), Timestamp::new(5, 0));
        let stage = Request::StageTxn {
            txn,
            in_flight: vec![Key::from("a"), Key::from("b")],
        };
        assert_eq!(stage.routing_key(), &Key::from("anchor"));
        assert!(stage.is_write());
        let query = Request::QueryIntent {
            key: Key::from("b"),
            txn_id: TxnId(2),
            ts: Timestamp::new(5, 0),
        };
        assert_eq!(query.routing_key(), &Key::from("b"));
        assert!(
            !query.is_write(),
            "QueryIntent reads (and bumps the tscache)"
        );
        let recover = Request::RecoverTxn {
            txn_id: TxnId(2),
            anchor: Key::from("anchor"),
            staged_ts: Timestamp::new(5, 0),
            commit: true,
        };
        assert_eq!(recover.routing_key(), &Key::from("anchor"));
        assert!(recover.is_write());
    }

    #[test]
    fn staging_is_not_finalized() {
        assert!(!TxnStatus::Staging.is_finalized());
        assert!(!TxnStatus::Pending.is_finalized());
        assert!(TxnStatus::Committed.is_finalized());
        assert!(TxnStatus::Aborted.is_finalized());
    }

    #[test]
    fn stale_ctx_has_no_uncertainty() {
        let c = ReadCtx::stale(Timestamp::new(100, 0));
        assert_eq!(c.read_ts, c.uncertainty_limit);
        assert!(c.txn.is_none());
        let f = ReadCtx::fresh(Timestamp::new(100, 0), Timestamp::new(350, 0));
        assert!(f.uncertainty_limit > f.read_ts);
    }
}
