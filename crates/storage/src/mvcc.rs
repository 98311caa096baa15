//! MVCC building blocks: per-key version chains with the read rules, and
//! the crate-private memtable the LSM [`crate::lsm::Engine`] mutates.

use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, Value};

/// A provisional write: the exclusive lock + pending value of an open
/// transaction.
#[derive(Clone, Debug)]
pub struct Intent {
    pub txn: TxnMeta,
    /// `None` is a deletion tombstone.
    pub value: Option<Value>,
}

/// One committed version. `value: None` is a tombstone.
#[derive(Clone, Debug, PartialEq)]
pub struct Version {
    pub ts: Timestamp,
    pub value: Option<Value>,
}

/// Latest version at or below `ts` in an oldest-first version list. Binary
/// search keeps hot keys (long lists) cheap.
pub(crate) fn visible_at(versions: &[Version], ts: Timestamp) -> Option<&Version> {
    let above = versions.partition_point(|v| v.ts <= ts);
    above.checked_sub(1).map(|i| &versions[i])
}

/// Earliest version strictly above `lo` and at or below `hi` in an
/// oldest-first version list.
pub(crate) fn committed_in(versions: &[Version], lo: Timestamp, hi: Timestamp) -> Option<&Version> {
    let first_above = versions.partition_point(|v| v.ts <= lo);
    versions.get(first_above).filter(|v| v.ts <= hi)
}

/// The MVCC point-read over one key's merged state — the memtable's intent
/// plus the oldest-first version list of every source holding the key (in
/// any order; nothing is copied): own-intent read-your-writes,
/// foreign-intent conflicts, uncertainty-interval restarts, then snapshot
/// visibility. The single source of truth for every read the LSM engine
/// serves.
pub(crate) fn read_merged<'a>(
    key: &Key,
    ctx: &ReadCtx,
    intent: Option<&Intent>,
    sources: impl IntoIterator<Item = &'a [Version]>,
) -> Result<ReadOutcome, MvccError> {
    if let Some(intent) = intent {
        let own = ctx
            .txn
            .as_ref()
            .is_some_and(|t| t.id == intent.txn.id && t.epoch == intent.txn.epoch);
        if own {
            // Read-your-writes: the provisional value, at its write ts.
            return Ok(ReadOutcome {
                value: intent.value.clone(),
                value_ts: intent.txn.write_ts,
            });
        }
        // An intent at or below the uncertainty limit cannot be skipped:
        // it may commit at a timestamp the reader must observe.
        if intent.txn.write_ts <= ctx.uncertainty_limit {
            return Err(MvccError::WriteIntent {
                key: key.clone(),
                intent_txn: intent.txn.clone(),
            });
        }
    }
    let uncertain = ctx.uncertainty_limit > ctx.read_ts;
    let mut earliest_uncertain: Option<Timestamp> = None;
    let mut visible: Option<&Version> = None;
    for versions in sources {
        if uncertain {
            if let Some(v) = committed_in(versions, ctx.read_ts, ctx.uncertainty_limit) {
                earliest_uncertain = Some(earliest_uncertain.map_or(v.ts, |e| e.min(v.ts)));
            }
        }
        if let Some(v) = visible_at(versions, ctx.read_ts) {
            if visible.is_none_or(|best| v.ts > best.ts) {
                visible = Some(v);
            }
        }
    }
    // Committed value inside the uncertainty interval forces a restart.
    if let Some(value_ts) = earliest_uncertain {
        return Err(MvccError::Uncertainty {
            key: key.clone(),
            read_ts: ctx.read_ts,
            value_ts,
        });
    }
    Ok(match visible {
        Some(v) => ReadOutcome {
            value: v.value.clone(),
            value_ts: v.ts,
        },
        None => ReadOutcome {
            value: None,
            value_ts: Timestamp::ZERO,
        },
    })
}

/// One key's state in the memtable: an optional intent plus committed
/// versions, oldest first — a commit, nearly always the newest version,
/// pushes at the end.
#[derive(Clone, Debug, Default)]
pub struct VersionChain {
    pub intent: Option<Intent>,
    pub versions: Vec<Version>,
}

impl VersionChain {
    pub fn latest_ts(&self) -> Option<Timestamp> {
        self.versions.last().map(|v| v.ts)
    }

    /// Insert keeping oldest-first order: a push when `ts` is the newest,
    /// the common case; otherwise (a replayed resolve below the newest
    /// version) it lands in order. An exact-timestamp duplicate is dropped:
    /// the same `(key, ts)` can only ever carry the same value (MVCC forbids
    /// two commits at one timestamp on one key), so a replayed op that is
    /// already in the checkpoint image changes nothing. Returns whether a
    /// version was added.
    pub fn insert_version(&mut self, ts: Timestamp, value: Option<Value>) -> bool {
        let pos = match self.versions.last() {
            Some(newest) if newest.ts >= ts => self.versions.partition_point(|v| v.ts < ts),
            _ => self.versions.len(),
        };
        if self.versions.get(pos).is_some_and(|v| v.ts == ts) {
            return false;
        }
        self.versions.insert(pos, Version { ts, value });
        true
    }

    pub fn is_empty(&self) -> bool {
        self.intent.is_none() && self.versions.is_empty()
    }
}

/// Errors surfaced by MVCC reads and writes. The replica layer maps these
/// onto the wire-level [`mr_proto::KvError`] taxonomy.
#[derive(Clone, Debug)]
pub enum MvccError {
    /// A conflicting intent blocks this operation.
    WriteIntent { key: Key, intent_txn: TxnMeta },
    /// A committed value lies in the read's uncertainty interval.
    Uncertainty {
        key: Key,
        read_ts: Timestamp,
        value_ts: Timestamp,
    },
    /// The read timestamp is below the replica's MVCC GC threshold: the
    /// history it needs may already be reclaimed, so the read fails loudly
    /// instead of returning silently incomplete data. Raised by the LSM
    /// engine ([`crate::lsm::Engine`]); avoid it by pinning a protected
    /// timestamp before reading that far in the past.
    BelowGcThreshold {
        read_ts: Timestamp,
        threshold: Timestamp,
    },
}

/// Result of a successful point read.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    pub value: Option<Value>,
    /// Timestamp of the returned version; zero when no version is visible.
    /// Synthetic when the version was written future-time.
    pub value_ts: Timestamp,
}

/// Result of laying down an intent.
#[derive(Clone, Copy, Debug)]
pub struct PutOutcome {
    /// Timestamp at which the intent was actually written (forwarded above
    /// any newer committed version).
    pub written_ts: Timestamp,
    /// True if the requested timestamp was below an existing committed
    /// version — the transaction must refresh before committing.
    pub write_too_old: bool,
}

/// The engine's memtable: the mutable tier holding open intents and
/// not-yet-flushed committed versions. Reads go through
/// [`crate::lsm::Engine`], which merges it with the sorted runs.
#[derive(Clone, Debug, Default)]
pub(crate) struct MvccStore {
    data: BTreeMap<Key, VersionChain>,
    /// Committed versions across all chains, kept as they come and go: the
    /// flush rule and every scrape ask, and a walk costs what exists.
    versions: usize,
}

impl MvccStore {
    pub fn new() -> MvccStore {
        MvccStore::default()
    }

    /// Iterate the chains whose keys fall in `span`.
    pub fn range(&self, span: &Span) -> btree_map::Range<'_, Key, VersionChain> {
        let start = Bound::Included(span.start.clone());
        let end = if span.end.is_empty() {
            Bound::Unbounded
        } else {
            Bound::Excluded(span.end.clone())
        };
        self.data.range((start, end))
    }

    /// Lay down (or update) an intent for `txn` at `txn.write_ts`.
    ///
    /// Returns an error if another transaction holds an intent on the key
    /// (the lock table normally prevents this). If a committed version
    /// exists at or above the requested timestamp, the intent is written
    /// just above it and `write_too_old` is set.
    pub fn put(
        &mut self,
        key: &Key,
        value: Option<Value>,
        txn: &TxnMeta,
    ) -> Result<PutOutcome, MvccError> {
        let chain = self.data.entry(key.clone()).or_default();
        if let Some(intent) = &chain.intent {
            if intent.txn.id != txn.id {
                return Err(MvccError::WriteIntent {
                    key: key.clone(),
                    intent_txn: intent.txn.clone(),
                });
            }
        }
        let mut write_ts = txn.write_ts;
        let mut write_too_old = false;
        if let Some(latest) = chain.latest_ts() {
            if latest >= write_ts {
                write_ts = latest.next();
                write_too_old = true;
            }
        }
        let mut meta = txn.clone();
        meta.write_ts = write_ts;
        chain.intent = Some(Intent { txn: meta, value });
        Ok(PutOutcome {
            written_ts: write_ts,
            write_too_old,
        })
    }

    /// Promote `txn_id`'s intent on `key` to a committed version at
    /// `commit_ts`. Returns false if no matching intent exists (resolution
    /// is idempotent).
    pub fn commit_intent(&mut self, key: &Key, txn_id: TxnId, commit_ts: Timestamp) -> bool {
        let Some(chain) = self.data.get_mut(key) else {
            return false;
        };
        match chain.intent.take() {
            Some(intent) if intent.txn.id == txn_id => {
                self.versions += usize::from(chain.insert_version(commit_ts, intent.value));
                true
            }
            other => {
                chain.intent = other;
                false
            }
        }
    }

    /// Discard `txn_id`'s intent on `key`.
    pub fn abort_intent(&mut self, key: &Key, txn_id: TxnId) -> bool {
        let Some(chain) = self.data.get_mut(key) else {
            return false;
        };
        match &chain.intent {
            Some(intent) if intent.txn.id == txn_id => {
                chain.intent = None;
                if chain.is_empty() {
                    self.data.remove(key);
                }
                true
            }
            _ => false,
        }
    }

    /// The intent currently on `key`, if any.
    pub fn intent(&self, key: &Key) -> Option<&Intent> {
        self.data.get(key).and_then(|c| c.intent.as_ref())
    }

    /// Latest committed timestamp on `key` (for negotiation and tests).
    pub fn latest_committed_ts(&self, key: &Key) -> Option<Timestamp> {
        self.data.get(key).and_then(|c| c.latest_ts())
    }

    /// The lowest intent timestamp in `span`, if any — used by the
    /// bounded-staleness negotiation phase (§5.3.2) to pick a timestamp
    /// below every conflicting intent.
    pub fn min_intent_ts_in(&self, span: &Span) -> Option<Timestamp> {
        self.range(span)
            .filter_map(|(_, c)| c.intent.as_ref().map(|i| i.txn.write_ts))
            .min()
    }

    /// Split the store at `split_key`: every chain at or above it moves
    /// into the returned store, this one keeps `[.., split_key)`. Chains
    /// move wholesale — intents included — so a range split carves the
    /// replicated MVCC state into two halves without disturbing any
    /// in-flight transaction's provisional writes.
    pub fn split_off(&mut self, split_key: &Key) -> MvccStore {
        let data = self.data.split_off(split_key);
        let versions = data.values().map(|c| c.versions.len()).sum();
        self.versions -= versions;
        MvccStore { data, versions }
    }

    /// Merge `other`'s chains into this store (range merge). The two
    /// keyspaces are disjoint by construction (adjacent ranges), so no
    /// chain can collide; debug builds assert it.
    pub fn absorb(&mut self, other: MvccStore) {
        self.versions += other.versions;
        for (k, chain) in other.data {
            let prev = self.data.insert(k, chain);
            debug_assert!(prev.is_none(), "absorb collided on a key");
        }
    }

    /// The full chain for `key`, if any state exists.
    pub fn chain(&self, key: &Key) -> Option<&VersionChain> {
        self.data.get(key)
    }

    /// Iterate every chain in key order (checkpoint encoding, flush).
    pub fn chains(&self) -> impl Iterator<Item = (&Key, &VersionChain)> {
        self.data.iter()
    }

    /// Install an intent verbatim — WAL replay. The logged `txn.write_ts`
    /// is already forwarded, so no conflict or forwarding logic reruns.
    pub fn force_intent(&mut self, key: Key, txn: TxnMeta, value: Option<Value>) {
        self.data.entry(key).or_default().intent = Some(Intent { txn, value });
    }

    /// Install a committed version verbatim (possibly a tombstone) — WAL
    /// replay and checkpoint restore.
    pub fn force_version(&mut self, key: Key, ts: Timestamp, value: Option<Value>) {
        let chain = self.data.entry(key).or_default();
        self.versions += usize::from(chain.insert_version(ts, value));
    }

    /// Move every committed version out of the memtable (flush to an
    /// immutable sorted run). Intents stay put — they are provisional
    /// state, not yet part of durable MVCC history. Chains left with
    /// neither intent nor versions are dropped. Hands `sink` each key with
    /// versions, in key order.
    pub fn drain_committed(&mut self, mut sink: impl FnMut(Key, Vec<Version>)) {
        self.versions = 0;
        for (key, mut chain) in std::mem::take(&mut self.data) {
            let versions = std::mem::take(&mut chain.versions);
            if chain.intent.is_some() {
                self.data.insert(key.clone(), chain);
            }
            if !versions.is_empty() {
                sink(key, versions);
            }
        }
    }

    /// Does the memtable hold nothing — no intent, no version?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total committed versions across all keys.
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// GC with explicit control over tombstone elision. `drop_tombstones`
    /// must be false when older versions of these keys may exist in
    /// another store (the LSM's sorted runs): dropping a tombstone there
    /// would resurrect the older value underneath it.
    pub fn gc_with(&mut self, threshold: Timestamp, drop_tombstones: bool) -> usize {
        let mut removed = 0;
        self.data.retain(|_, chain| {
            // Keep everything above the threshold plus one version at/below.
            let at_or_below = chain.versions.partition_point(|v| v.ts <= threshold);
            let shadowed = at_or_below.saturating_sub(1);
            removed += shadowed;
            chain.versions.drain(..shadowed);
            // Drop fully-tombstoned singleton chains.
            if drop_tombstones
                && chain.intent.is_none()
                && chain.versions.len() == 1
                && chain.versions[0].ts <= threshold
                && chain.versions[0].value.is_none()
            {
                removed += 1;
                return false;
            }
            !chain.is_empty()
        });
        self.versions -= removed;
        debug_assert_eq!(
            self.versions,
            self.data.values().map(|c| c.versions.len()).sum::<usize>()
        );
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(id: u64, ts: u64) -> TxnMeta {
        TxnMeta::new(TxnId(id), Key::from("anchor"), Timestamp::new(ts, 0))
    }

    fn commit_put(store: &mut MvccStore, key: &str, val: &str, id: u64, ts: u64) {
        let t = txn(id, ts);
        let out = store
            .put(&Key::from(key), Some(Value::from(val)), &t)
            .unwrap();
        assert!(store.commit_intent(&Key::from(key), t.id, out.written_ts));
    }

    /// Point read straight off the memtable chain (what `Engine::get` does
    /// when no run holds the key).
    fn get(store: &MvccStore, key: &Key, ctx: &ReadCtx) -> Result<ReadOutcome, MvccError> {
        let chain = store.chain(key);
        read_merged(
            key,
            ctx,
            chain.and_then(|c| c.intent.as_ref()),
            chain.map(|c| c.versions.as_slice()),
        )
    }

    fn read(store: &MvccStore, key: &str, ts: u64) -> Option<Value> {
        get(
            store,
            &Key::from(key),
            &ReadCtx::stale(Timestamp::new(ts, 0)),
        )
        .unwrap()
        .value
    }

    #[test]
    fn reads_see_snapshot() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "k", "v1", 1, 10);
        commit_put(&mut s, "k", "v2", 2, 20);
        assert_eq!(read(&s, "k", 5), None);
        assert_eq!(read(&s, "k", 10), Some(Value::from("v1")));
        assert_eq!(read(&s, "k", 15), Some(Value::from("v1")));
        assert_eq!(read(&s, "k", 20), Some(Value::from("v2")));
        assert_eq!(read(&s, "k", 100), Some(Value::from("v2")));
    }

    #[test]
    fn deletion_tombstones() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "k", "v1", 1, 10);
        let t = txn(2, 20);
        let out = s.put(&Key::from("k"), None, &t).unwrap();
        s.commit_intent(&Key::from("k"), t.id, out.written_ts);
        assert_eq!(read(&s, "k", 15), Some(Value::from("v1")));
        assert_eq!(read(&s, "k", 25), None);
    }

    #[test]
    fn foreign_intent_blocks_read_at_or_below_limit() {
        let mut s = MvccStore::new();
        let t = txn(1, 10);
        s.put(&Key::from("k"), Some(Value::from("v")), &t).unwrap();
        // Read above the intent ts: blocked.
        let err = get(&s, &Key::from("k"), &ReadCtx::stale(Timestamp::new(15, 0))).unwrap_err();
        assert!(matches!(err, MvccError::WriteIntent { .. }));
        // Read below the intent ts: proceeds (sees nothing).
        assert_eq!(read(&s, "k", 5), None);
        // Uncertain intent (above read_ts, inside limit) also blocks.
        let ctx = ReadCtx::fresh(Timestamp::new(5, 0), Timestamp::new(12, 0));
        assert!(matches!(
            get(&s, &Key::from("k"), &ctx),
            Err(MvccError::WriteIntent { .. })
        ));
        // Intent above the limit is ignorable.
        let ctx = ReadCtx::fresh(Timestamp::new(5, 0), Timestamp::new(9, 0));
        assert!(get(&s, &Key::from("k"), &ctx).unwrap().value.is_none());
    }

    #[test]
    fn own_intent_is_readable() {
        let mut s = MvccStore::new();
        let t = txn(1, 10);
        s.put(&Key::from("k"), Some(Value::from("mine")), &t)
            .unwrap();
        let ctx = ReadCtx {
            read_ts: t.write_ts,
            uncertainty_limit: t.write_ts,
            txn: Some(t.clone()),
        };
        let r = get(&s, &Key::from("k"), &ctx).unwrap();
        assert_eq!(r.value, Some(Value::from("mine")));
        // A different epoch of the same txn does not see the old intent as
        // its own... but storage treats mismatched epoch as foreign.
        let mut t2 = t.clone();
        t2.epoch = 1;
        let ctx2 = ReadCtx {
            read_ts: Timestamp::new(15, 0),
            uncertainty_limit: Timestamp::new(15, 0),
            txn: Some(t2),
        };
        assert!(matches!(
            get(&s, &Key::from("k"), &ctx2),
            Err(MvccError::WriteIntent { .. })
        ));
    }

    #[test]
    fn uncertainty_detection() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "k", "v", 1, 100);
        // Value at 100 is inside [50, 150]: uncertain.
        let ctx = ReadCtx::fresh(Timestamp::new(50, 0), Timestamp::new(150, 0));
        match get(&s, &Key::from("k"), &ctx).unwrap_err() {
            MvccError::Uncertainty { value_ts, .. } => {
                assert_eq!(value_ts, Timestamp::new(100, 0))
            }
            e => panic!("unexpected: {e:?}"),
        }
        // Limit below the value: certain, invisible.
        let ctx = ReadCtx::fresh(Timestamp::new(50, 0), Timestamp::new(99, 0));
        assert!(get(&s, &Key::from("k"), &ctx).unwrap().value.is_none());
        // Read at/above the value: visible, no uncertainty.
        let ctx = ReadCtx::fresh(Timestamp::new(100, 0), Timestamp::new(150, 0));
        assert_eq!(
            get(&s, &Key::from("k"), &ctx).unwrap().value,
            Some(Value::from("v"))
        );
    }

    #[test]
    fn uncertainty_reports_earliest_uncertain_version() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "k", "a", 1, 100);
        commit_put(&mut s, "k", "b", 2, 120);
        let ctx = ReadCtx::fresh(Timestamp::new(50, 0), Timestamp::new(150, 0));
        match get(&s, &Key::from("k"), &ctx).unwrap_err() {
            MvccError::Uncertainty { value_ts, .. } => {
                assert_eq!(value_ts, Timestamp::new(100, 0))
            }
            e => panic!("unexpected: {e:?}"),
        }
    }

    #[test]
    fn write_too_old_bumps() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "k", "new", 1, 100);
        let t = txn(2, 50);
        let out = s
            .put(&Key::from("k"), Some(Value::from("late")), &t)
            .unwrap();
        assert!(out.write_too_old);
        assert_eq!(out.written_ts, Timestamp::new(100, 1));
        s.commit_intent(&Key::from("k"), t.id, out.written_ts);
        assert_eq!(read(&s, "k", 101), Some(Value::from("late")));
        assert_eq!(read(&s, "k", 100), Some(Value::from("new")));
    }

    #[test]
    fn put_conflicts_with_foreign_intent() {
        let mut s = MvccStore::new();
        let t1 = txn(1, 10);
        s.put(&Key::from("k"), Some(Value::from("a")), &t1).unwrap();
        let t2 = txn(2, 20);
        assert!(matches!(
            s.put(&Key::from("k"), Some(Value::from("b")), &t2),
            Err(MvccError::WriteIntent { .. })
        ));
        // Same txn can overwrite its own intent.
        let out = s
            .put(&Key::from("k"), Some(Value::from("a2")), &t1)
            .unwrap();
        assert!(!out.write_too_old);
    }

    #[test]
    fn abort_discards_intent() {
        let mut s = MvccStore::new();
        let t = txn(1, 10);
        s.put(&Key::from("k"), Some(Value::from("v")), &t).unwrap();
        assert!(s.abort_intent(&Key::from("k"), t.id));
        assert_eq!(read(&s, "k", 100), None);
        assert_eq!(s.chains().count(), 0);
        // Idempotent.
        assert!(!s.abort_intent(&Key::from("k"), t.id));
    }

    #[test]
    fn commit_at_higher_ts_than_intent() {
        let mut s = MvccStore::new();
        let t = txn(1, 10);
        s.put(&Key::from("k"), Some(Value::from("v")), &t).unwrap();
        // Txn got pushed: commits at 30.
        assert!(s.commit_intent(&Key::from("k"), t.id, Timestamp::new(30, 0)));
        assert_eq!(read(&s, "k", 10), None);
        assert_eq!(read(&s, "k", 30), Some(Value::from("v")));
    }

    #[test]
    fn synthetic_value_ts_survives_roundtrip() {
        let mut s = MvccStore::new();
        let mut t = txn(1, 0);
        t.write_ts = Timestamp::new(500, 0).as_synthetic();
        let out = s.put(&Key::from("k"), Some(Value::from("v")), &t).unwrap();
        assert!(out.written_ts.synthetic);
        s.commit_intent(&Key::from("k"), t.id, out.written_ts);
        let ctx = ReadCtx::fresh(Timestamp::new(400, 0), Timestamp::new(600, 0));
        match get(&s, &Key::from("k"), &ctx).unwrap_err() {
            MvccError::Uncertainty { value_ts, .. } => assert!(value_ts.synthetic),
            e => panic!("unexpected: {e:?}"),
        }
    }

    #[test]
    fn split_off_and_absorb_partition_chains() {
        let mut s = MvccStore::new();
        commit_put(&mut s, "a", "va", 1, 10);
        commit_put(&mut s, "m", "vm", 2, 10);
        // An open intent on the right half must travel with it.
        let t = txn(3, 20);
        s.put(&Key::from("z"), Some(Value::from("vz")), &t).unwrap();
        let rhs = s.split_off(&Key::from("m"));
        assert_eq!(s.chains().count(), 1);
        assert_eq!(rhs.chains().count(), 2);
        assert_eq!(read(&s, "a", 100), Some(Value::from("va")));
        assert_eq!(read(&s, "m", 100), None);
        assert_eq!(read(&rhs, "m", 100), Some(Value::from("vm")));
        assert!(rhs.intent(&Key::from("z")).is_some());
        // Merging back restores the original contents.
        let mut merged = s.clone();
        merged.absorb(rhs);
        assert_eq!(merged.chains().count(), 3);
        assert_eq!(read(&merged, "a", 100), Some(Value::from("va")));
        assert_eq!(read(&merged, "m", 100), Some(Value::from("vm")));
        assert!(merged.intent(&Key::from("z")).is_some());
    }
}
