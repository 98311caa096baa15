//! The KV error taxonomy.
//!
//! These errors drive control flow: redirects (`NotLeaseholder`), transaction
//! refreshes (`Uncertainty`, `WriteTooOld`), restarts (`TxnAborted`), and
//! stale-read fallbacks (`FollowerReadUnavailable`).

use std::fmt;

use mr_clock::Timestamp;
use mr_sim::NodeId;

use crate::keys::Key;
use crate::txn::{TxnId, TxnMeta};
use crate::RangeId;

/// Errors returned by range replicas and the routing layer.
#[derive(Clone, Debug)]
pub enum KvError {
    /// The addressed replica does not hold the lease; retry at the hinted
    /// leaseholder.
    NotLeaseholder {
        range: RangeId,
        leaseholder: Option<NodeId>,
    },
    /// A follower could not serve the read: the read timestamp is not yet
    /// closed on this replica. Retry at the leaseholder (or wait).
    FollowerReadUnavailable {
        range: RangeId,
        read_ts: Timestamp,
        closed_ts: Timestamp,
        leaseholder: Option<NodeId>,
    },
    /// The read encountered a conflicting intent it cannot proceed past on
    /// this (follower) replica; conflict resolution must happen at the
    /// leaseholder (§5.1.1).
    WriteIntent {
        key: Key,
        intent_txn: TxnMeta,
        leaseholder: Option<NodeId>,
    },
    /// A committed value at `value_ts` lies inside the reader's uncertainty
    /// interval; the reader must bump its timestamp, refresh, and — when the
    /// value is future-time — commit-wait (§6.2).
    Uncertainty {
        key: Key,
        read_ts: Timestamp,
        /// Timestamp of the uncertain value (synthetic if future-time).
        value_ts: Timestamp,
    },
    /// A write attempted to land at or below an existing committed value or
    /// closed timestamp; the write was evaluated at `actual_ts` instead, and
    /// the transaction must refresh to commit.
    WriteTooOld {
        key: Key,
        attempted_ts: Timestamp,
        actual_ts: Timestamp,
    },
    /// A refresh found a committed write in the refreshed window; the
    /// transaction must restart.
    RefreshFailed {
        span_start: Key,
        conflict_ts: Timestamp,
    },
    /// The transaction record was aborted (e.g. by a lock-queue timeout).
    TxnAborted { id: TxnId },
    /// No transaction record found at the anchor.
    TxnNotFound { id: TxnId },
    /// The range cannot currently reach quorum (e.g. region failure under
    /// ZONE survivability).
    RangeUnavailable { range: RangeId },
    /// No range covers the requested key (routing bug or dropped table).
    NoSuchRange { key: Key },
    /// A bounded-staleness read could not be served within its bound and the
    /// caller asked for an error rather than a leaseholder fallback.
    StalenessBoundExceeded {
        min_ts: Timestamp,
        max_safe_ts: Timestamp,
    },
    /// A recovery probe (QueryIntent) found the queried write evaluated but
    /// not yet applied (lock held, proposal in flight): the outcome cannot
    /// be decided yet — retry after the proposal lands or is lost.
    WriteInFlight { key: Key },
    /// The read timestamp is below the replica's MVCC GC threshold: the
    /// history it needs may already be reclaimed, so the read fails loudly
    /// rather than returning silently incomplete data. Retry at a newer
    /// timestamp, or pin the timestamp with a protected timestamp first.
    BatchTimestampBeforeGC {
        read_ts: Timestamp,
        threshold: Timestamp,
    },
}

impl KvError {
    /// Whether the coordinator should transparently retry this error at a
    /// different replica (routing-layer redirects).
    pub fn is_redirect(&self) -> bool {
        matches!(
            self,
            KvError::NotLeaseholder { .. }
                | KvError::FollowerReadUnavailable { .. }
                | KvError::WriteIntent { .. }
        )
    }

    /// Whether the error ends the transaction (vs. being recoverable via
    /// refresh or retry).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            KvError::TxnAborted { .. }
                | KvError::RangeUnavailable { .. }
                | KvError::NoSuchRange { .. }
                | KvError::BatchTimestampBeforeGC { .. }
        )
    }
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::NotLeaseholder { range, leaseholder } => {
                write!(f, "{range}: not leaseholder (hint: {leaseholder:?})")
            }
            KvError::FollowerReadUnavailable {
                range,
                read_ts,
                closed_ts,
                ..
            } => write!(
                f,
                "{range}: follower read at {read_ts} unavailable (closed {closed_ts})"
            ),
            KvError::WriteIntent {
                key, intent_txn, ..
            } => {
                write!(f, "conflicting intent on {key:?} by {}", intent_txn.id)
            }
            KvError::Uncertainty {
                key,
                read_ts,
                value_ts,
            } => write!(
                f,
                "uncertain value on {key:?}: read {read_ts}, value {value_ts}"
            ),
            KvError::WriteTooOld {
                key,
                attempted_ts,
                actual_ts,
            } => write!(f, "write too old on {key:?}: {attempted_ts} -> {actual_ts}"),
            KvError::RefreshFailed {
                span_start,
                conflict_ts,
            } => write!(f, "refresh failed at {span_start:?} ({conflict_ts})"),
            KvError::TxnAborted { id } => write!(f, "{id} aborted"),
            KvError::TxnNotFound { id } => write!(f, "{id} record not found"),
            KvError::RangeUnavailable { range } => write!(f, "{range} unavailable"),
            KvError::NoSuchRange { key } => write!(f, "no range for {key:?}"),
            KvError::StalenessBoundExceeded {
                min_ts,
                max_safe_ts,
            } => write!(
                f,
                "staleness bound exceeded: min {min_ts}, max safe {max_safe_ts}"
            ),
            KvError::WriteInFlight { key } => {
                write!(f, "queried write on {key:?} still in flight")
            }
            KvError::BatchTimestampBeforeGC { read_ts, threshold } => write!(
                f,
                "batch timestamp {read_ts} must be after replica GC threshold {threshold}"
            ),
        }
    }
}

impl std::error::Error for KvError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redirect_classification() {
        let e = KvError::NotLeaseholder {
            range: RangeId(1),
            leaseholder: Some(NodeId(2)),
        };
        assert!(e.is_redirect());
        assert!(!e.is_terminal());
        let a = KvError::TxnAborted { id: TxnId(1) };
        assert!(a.is_terminal());
        assert!(!a.is_redirect());
        let u = KvError::Uncertainty {
            key: Key::from("k"),
            read_ts: Timestamp::new(1, 0),
            value_ts: Timestamp::new(2, 0),
        };
        assert!(!u.is_redirect());
        assert!(!u.is_terminal());
    }

    #[test]
    fn errors_render() {
        let e = KvError::WriteTooOld {
            key: Key::from("k"),
            attempted_ts: Timestamp::new(1, 0),
            actual_ts: Timestamp::new(2, 0),
        };
        assert!(e.to_string().contains("write too old"));
    }
}
