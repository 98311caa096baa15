//! The timestamp cache.
//!
//! Leaseholders record the maximum timestamp at which each key has been read
//! so that later writes to the same key are forwarded above it — a write may
//! never invalidate a read that already completed (§6.1). Entries remember
//! which transaction performed the read: a transaction's own earlier reads
//! must not force its writes upward (read-then-write is the normal shape of
//! uniqueness checks and UPDATEs).
//!
//! A low-water mark covers evicted entries and lease transfers: a new
//! leaseholder starts its cache at the lease-transfer time, conservatively
//! covering all reads the old leaseholder may have served.

use mr_clock::Timestamp;
use mr_proto::hash::LookupMap;
use mr_proto::{Key, Span, TxnId};

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    /// Highest read timestamp and its reader.
    max: Timestamp,
    max_txn: Option<TxnId>,
    /// Highest read timestamp among *other* readers than `max_txn`.
    second: Timestamp,
}

impl Entry {
    fn record(&mut self, ts: Timestamp, txn: Option<TxnId>) {
        if txn.is_some() && txn == self.max_txn {
            self.max = self.max.forward(ts);
            return;
        }
        if ts > self.max {
            // The old max belongs to a different reader: it becomes the
            // floor for everyone except the new max reader.
            self.second = self.second.forward(self.max);
            self.max = ts;
            self.max_txn = txn;
        } else {
            self.second = self.second.forward(ts);
        }
    }

    fn max_for(&self, exclude: Option<TxnId>) -> Timestamp {
        if exclude.is_some() && exclude == self.max_txn {
            self.second
        } else {
            self.max
        }
    }
}

/// Per-range read-timestamp cache.
#[derive(Clone, Debug)]
pub struct TsCache {
    low_water: Timestamp,
    points: LookupMap<Key, Entry>,
    /// Span reads fold into a coarse high-water mark (no per-txn tracking;
    /// a txn that scans then writes into the scanned span pays one refresh).
    span_high: Timestamp,
}

impl TsCache {
    pub fn new(low_water: Timestamp) -> TsCache {
        TsCache {
            low_water,
            points: LookupMap::default(),
            span_high: Timestamp::ZERO,
        }
    }

    /// Record a point read of `key` at `ts` by `txn` (None for
    /// non-transactional reads).
    pub fn record_read(&mut self, key: &Key, ts: Timestamp, txn: Option<TxnId>) {
        self.points.entry(key.clone()).or_default().record(ts, txn);
    }

    /// Record a span read at `ts` (coarsely bumps the whole range).
    pub fn record_span_read(&mut self, _span: &Span, ts: Timestamp) {
        self.span_high = self.span_high.forward(ts);
    }

    /// Maximum read timestamp that could cover `key`, ignoring reads
    /// performed by `exclude` itself.
    pub fn max_read_ts(&self, key: &Key, exclude: Option<TxnId>) -> Timestamp {
        let point = self
            .points
            .get(key)
            .map(|e| e.max_for(exclude))
            .unwrap_or(Timestamp::ZERO);
        self.low_water.forward(self.span_high).forward(point)
    }

    /// Raise the low-water mark (lease transfer: the incoming leaseholder
    /// must assume reads up to the transfer time).
    pub fn raise_low_water(&mut self, ts: Timestamp) {
        self.low_water = self.low_water.forward(ts);
        self.points.retain(|_, e| e.max > self.low_water);
    }

    pub fn low_water(&self) -> Timestamp {
        self.low_water
    }

    pub fn entry_count(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        Key::from(s)
    }

    #[test]
    fn point_reads_tracked_per_key() {
        let mut c = TsCache::new(Timestamp::new(10, 0));
        c.record_read(&k("a"), Timestamp::new(50, 0), None);
        assert_eq!(c.max_read_ts(&k("a"), None), Timestamp::new(50, 0));
        // Unread key falls back to the low-water mark.
        assert_eq!(c.max_read_ts(&k("b"), None), Timestamp::new(10, 0));
        // Older read does not regress.
        c.record_read(&k("a"), Timestamp::new(30, 0), None);
        assert_eq!(c.max_read_ts(&k("a"), None), Timestamp::new(50, 0));
    }

    #[test]
    fn own_reads_do_not_bump_own_writes() {
        let mut c = TsCache::new(Timestamp::ZERO);
        let me = Some(TxnId(1));
        let other = Some(TxnId(2));
        c.record_read(&k("a"), Timestamp::new(100, 0), me);
        // My own write is not forced above my read...
        assert_eq!(c.max_read_ts(&k("a"), me), Timestamp::ZERO);
        // ...but another transaction's write is.
        assert_eq!(c.max_read_ts(&k("a"), other), Timestamp::new(100, 0));
        assert_eq!(c.max_read_ts(&k("a"), None), Timestamp::new(100, 0));
    }

    #[test]
    fn second_reader_still_protected() {
        let mut c = TsCache::new(Timestamp::ZERO);
        let a = Some(TxnId(1));
        let b = Some(TxnId(2));
        c.record_read(&k("x"), Timestamp::new(50, 0), b);
        c.record_read(&k("x"), Timestamp::new(100, 0), a);
        // Excluding a: b's read at 50 still floors the write.
        assert_eq!(c.max_read_ts(&k("x"), a), Timestamp::new(50, 0));
        assert_eq!(c.max_read_ts(&k("x"), b), Timestamp::new(100, 0));
        // A later lower read by a third txn folds into second.
        c.record_read(&k("x"), Timestamp::new(70, 0), Some(TxnId(3)));
        assert_eq!(c.max_read_ts(&k("x"), a), Timestamp::new(70, 0));
    }

    #[test]
    fn span_reads_cover_all_keys() {
        let mut c = TsCache::new(Timestamp::ZERO);
        c.record_span_read(&Span::new(k("a"), k("z")), Timestamp::new(40, 0));
        assert_eq!(c.max_read_ts(&k("q"), None), Timestamp::new(40, 0));
        // Span high-water ignores txn exclusion (coarse).
        assert_eq!(
            c.max_read_ts(&k("q"), Some(TxnId(9))),
            Timestamp::new(40, 0)
        );
    }

    #[test]
    fn low_water_raise_evicts_covered_points() {
        let mut c = TsCache::new(Timestamp::ZERO);
        c.record_read(&k("a"), Timestamp::new(50, 0), None);
        c.record_read(&k("b"), Timestamp::new(200, 0), None);
        c.raise_low_water(Timestamp::new(100, 0));
        assert_eq!(c.entry_count(), 1);
        assert_eq!(c.max_read_ts(&k("a"), None), Timestamp::new(100, 0));
        assert_eq!(c.max_read_ts(&k("b"), None), Timestamp::new(200, 0));
        // Low water never regresses.
        c.raise_low_water(Timestamp::new(50, 0));
        assert_eq!(c.low_water(), Timestamp::new(100, 0));
    }
}
