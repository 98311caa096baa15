//! The per-leaseholder lock table.
//!
//! Write intents act as exclusive locks. The lock table is the *synchronous*
//! lock authority at the leaseholder: a write acquires the lock at
//! evaluation time (before its intent has replicated), so concurrent
//! requests conflict correctly even against in-flight proposals. Requests
//! that conflict wait here, in FIFO order per key, until the intent is
//! resolved (§5.1.1: "the read blocks while it is redirected to the
//! leaseholder to engage in conflict resolution"). The replica layer
//! re-evaluates waiters when the lock is released.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;

use mr_proto::{Key, Span, TxnMeta};

/// An opaque ticket identifying a waiting request (the replica layer maps it
/// back to the parked request and its reply path).
pub type WaiterId = u64;

#[derive(Debug, Default)]
struct KeyQueue {
    /// The transaction currently holding the lock, with its (evaluated)
    /// write timestamp — readers below the holder's timestamp need not wait.
    holder: Option<TxnMeta>,
    waiters: VecDeque<WaiterId>,
}

/// Lock state for one replica (consulted only while it holds the lease).
#[derive(Debug, Default)]
pub struct LockTable {
    /// Ordered by key, so a span's locks are one range query.
    queues: BTreeMap<Key, KeyQueue>,
}

impl LockTable {
    pub fn new() -> LockTable {
        LockTable::default()
    }

    /// Acquire (or refresh) the lock on `key` for `holder`. The caller must
    /// have verified no conflicting holder exists.
    pub fn acquire(&mut self, key: &Key, holder: TxnMeta) {
        let q = self.queues.entry(key.clone()).or_default();
        debug_assert!(
            q.holder.as_ref().is_none_or(|h| h.id == holder.id),
            "lock stolen on {key:?}"
        );
        q.holder = Some(holder);
    }

    /// Record that `waiter` is blocked on `key`.
    pub fn enqueue(&mut self, key: &Key, waiter: WaiterId) {
        self.queues
            .entry(key.clone())
            .or_default()
            .waiters
            .push_back(waiter);
    }

    /// The transaction currently holding the lock on `key`.
    pub fn holder(&self, key: &Key) -> Option<&TxnMeta> {
        self.queues.get(key).and_then(|q| q.holder.as_ref())
    }

    /// First locked key within `span` whose holder differs from `exclude`
    /// (used by scans to detect conflicts with in-flight writes).
    pub fn first_locked_in_span(
        &self,
        span: &Span,
        exclude: Option<mr_proto::TxnId>,
    ) -> Option<(&Key, &TxnMeta)> {
        let end = if span.end.is_empty() {
            Bound::Unbounded // empty end = unbounded, see `Span::contains`
        } else if span.end < span.start {
            return None; // contains nothing (and `range` would panic)
        } else {
            Bound::Excluded(&span.end)
        };
        self.queues
            .range::<Key, _>((Bound::Included(&span.start), end))
            .find_map(|(k, q)| {
                let holder = q.holder.as_ref()?;
                (Some(holder.id) != exclude).then_some((k, holder))
            })
    }

    /// Number of requests waiting on `key`.
    pub fn waiter_count(&self, key: &Key) -> usize {
        self.queues.get(key).map_or(0, |q| q.waiters.len())
    }

    /// Total waiters across all keys (for metrics).
    pub fn total_waiters(&self) -> usize {
        self.queues.values().map(|q| q.waiters.len()).sum()
    }

    /// The lock on `key` was released: drain and return all waiters, in
    /// arrival order, for re-evaluation. (Re-evaluation may re-enqueue a
    /// waiter if another conflicting lock appears.)
    pub fn release(&mut self, key: &Key) -> Vec<WaiterId> {
        match self.queues.remove(key) {
            Some(q) => q.waiters.into(),
            None => Vec::new(),
        }
    }

    /// Keys with active queues (for tests/metrics).
    pub fn locked_key_count(&self) -> usize {
        self.queues.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_clock::Timestamp;
    use mr_proto::TxnId;

    fn meta(id: u64, ts: u64) -> TxnMeta {
        TxnMeta::new(TxnId(id), Key::from("a"), Timestamp::new(ts, 0))
    }

    #[test]
    fn fifo_per_key() {
        let mut lt = LockTable::new();
        let k = Key::from("k");
        lt.acquire(&k, meta(1, 10));
        lt.enqueue(&k, 10);
        lt.enqueue(&k, 11);
        lt.enqueue(&k, 12);
        assert_eq!(lt.waiter_count(&k), 3);
        assert_eq!(lt.holder(&k).unwrap().id, TxnId(1));
        assert_eq!(lt.release(&k), vec![10, 11, 12]);
        assert_eq!(lt.waiter_count(&k), 0);
        assert_eq!(lt.locked_key_count(), 0);
    }

    #[test]
    fn keys_are_independent() {
        let mut lt = LockTable::new();
        lt.acquire(&Key::from("a"), meta(1, 10));
        lt.enqueue(&Key::from("a"), 1);
        lt.enqueue(&Key::from("b"), 2);
        assert_eq!(lt.release(&Key::from("a")), vec![1]);
        assert_eq!(lt.waiter_count(&Key::from("b")), 1);
        assert_eq!(lt.total_waiters(), 1);
    }

    #[test]
    fn release_without_waiters_is_empty() {
        let mut lt = LockTable::new();
        assert!(lt.release(&Key::from("x")).is_empty());
    }

    #[test]
    fn span_lock_scan_finds_first_foreign_holder() {
        let mut lt = LockTable::new();
        lt.acquire(&Key::from("b"), meta(1, 5));
        lt.acquire(&Key::from("d"), meta(2, 7));
        let span = Span::new(Key::from("a"), Key::from("z"));
        // Excluding txn 1: first foreign lock is on "d".
        let (k, h) = lt.first_locked_in_span(&span, Some(TxnId(1))).unwrap();
        assert_eq!(k, &Key::from("d"));
        assert_eq!(h.id, TxnId(2));
        // Excluding nothing: "b" comes first.
        let (k, _) = lt.first_locked_in_span(&span, None).unwrap();
        assert_eq!(k, &Key::from("b"));
        // Disjoint span: nothing.
        assert!(lt
            .first_locked_in_span(&Span::new(Key::from("e"), Key::from("f")), None)
            .is_none());
        // Unbounded end reaches the last key; the end bound is exclusive.
        let (k, _) = lt
            .first_locked_in_span(&Span::new(Key::from("c"), Key::default()), None)
            .unwrap();
        assert_eq!(k, &Key::from("d"));
        assert!(lt
            .first_locked_in_span(&Span::new(Key::from("c"), Key::from("d")), None)
            .is_none());
        // An inverted span contains nothing.
        assert!(lt
            .first_locked_in_span(&Span::new(Key::from("z"), Key::from("a")), None)
            .is_none());
        // A queue with waiters but no holder is not a lock.
        lt.enqueue(&Key::from("a"), 7);
        let (k, _) = lt.first_locked_in_span(&span, None).unwrap();
        assert_eq!(k, &Key::from("b"));
    }

    #[test]
    fn reacquire_by_same_txn_updates_meta() {
        let mut lt = LockTable::new();
        let k = Key::from("k");
        lt.acquire(&k, meta(1, 5));
        lt.acquire(&k, meta(1, 9));
        assert_eq!(lt.holder(&k).unwrap().write_ts, Timestamp::new(9, 0));
    }
}
