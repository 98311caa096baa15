//! Transaction metadata shared between coordinators and replicas.

use std::fmt;

use mr_clock::Timestamp;

use crate::keys::Key;

/// Unique transaction identifier (assigned by the coordinator).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}
impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Disposition of a transaction record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnStatus {
    Pending,
    /// Parallel commit in progress: the record lists the in-flight writes
    /// and the transaction is implicitly committed iff every one of them
    /// succeeded at or below the staged timestamp. Readers that find a
    /// STAGING record run the status-recovery procedure to finalize it.
    Staging,
    Committed,
    Aborted,
}

impl TxnStatus {
    /// Whether the record has reached a terminal disposition. Finalized
    /// records are immutable; STAGING records may still be re-staged,
    /// committed, or aborted.
    pub fn is_finalized(&self) -> bool {
        matches!(self, TxnStatus::Committed | TxnStatus::Aborted)
    }
}

/// A transaction record, stored at the range holding the anchor key.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnRecord {
    pub status: TxnStatus,
    pub commit_ts: Timestamp,
    /// The in-flight write set carried by a STAGING record (empty once
    /// finalized): the keys a status recovery must query to decide the
    /// outcome.
    pub in_flight: Vec<Key>,
}

impl TxnRecord {
    pub fn finalized(status: TxnStatus, commit_ts: Timestamp) -> TxnRecord {
        TxnRecord {
            status,
            commit_ts,
            in_flight: Vec::new(),
        }
    }
}

/// The subset of transaction state that rides along with requests and is
/// stored in write intents. Mirrors CockroachDB's `TxnMeta`.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnMeta {
    pub id: TxnId,
    /// Key of the range holding the transaction record (the anchor is the
    /// first key the transaction wrote).
    pub anchor: Key,
    /// Provisional commit timestamp: MVCC timestamp of the txn's writes.
    pub write_ts: Timestamp,
    /// Incremented on full restarts; intents from older epochs are dead.
    pub epoch: u32,
}

impl TxnMeta {
    pub fn new(id: TxnId, anchor: Key, write_ts: Timestamp) -> TxnMeta {
        TxnMeta {
            id,
            anchor,
            write_ts,
            epoch: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_meta_carries_identity() {
        let m = TxnMeta::new(TxnId(7), Key::from("a"), Timestamp::new(10, 0));
        assert_eq!(m.id, TxnId(7));
        assert_eq!(m.epoch, 0);
        assert_eq!(format!("{}", m.id), "txn7");
    }

    #[test]
    fn status_equality() {
        assert_eq!(TxnStatus::Pending, TxnStatus::Pending);
        assert_ne!(TxnStatus::Committed, TxnStatus::Aborted);
    }
}
