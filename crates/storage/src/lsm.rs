//! The LSM storage engine: mutable memtable, immutable sorted runs with
//! hash indexes, WAL durability, and GC-aware compaction.
//!
//! [`Engine`] is the per-replica storage stack and the crate's one MVCC
//! API: the MVCC read/write rules plus the durability machinery the paper's
//! correctness story assumes:
//!
//! * **Memtable** — the crate-private mutable tier holding open intents and
//!   recently-committed versions.
//! * **Sorted runs ("SSTs")** — immutable key-ordered version arrays
//!   produced by flushes and ingested whole ([`Engine::ingest`]), oldest
//!   first in `Engine::runs`, each with an open-addressed hash index
//!   ([`RunIndex`]) so a point lookup costs one hashed probe per run and a
//!   run that lacks the key says so without its entries being read. A run
//!   is flat — one vector of keys, each with its versions' bounds, and one
//!   of versions —
//!   and sits behind an `Rc`: the replicas of a range that received the
//!   same bytes (a bulk load, an installed image) share one copy, and nobody
//!   mutates it — a merge or a split builds new runs out of the rows it
//!   reads. Reads borrow: a point read probes each run, a span
//!   read drives the `MergeCursor` over memtable ∪ runs, and both hand the
//!   key's version lists to the one MVCC read rule, `mvcc::read_merged`.
//! * **WAL** — every mutation is encoded as a [`WalOp`] as it happens,
//!   straight into the log's open frame; applying a Raft entry seals that
//!   frame into one record ([`Engine::seal_entry`]), and [`Engine::sync`]
//!   advances the fsync pointer. Runs and checkpoints are durable the moment
//!   they are written (SST + manifest sync); the WAL covers only the
//!   memtable.
//! * **Crash recovery** — [`Engine::crash_and_recover`] drops all volatile
//!   state (memtable, unsynced WAL tail) and rebuilds from the checkpoint
//!   record plus the durable WAL suffix, truncating torn tails detected by
//!   per-record checksums.
//! * **GC** — [`Engine::maintain`] ratchets the GC threshold (computed by
//!   [`crate::gc::gc_threshold`] from closed timestamps, `gc.ttl`, and
//!   protected timestamps), flushes a full memtable, and compacts
//!   incrementally: [`TIER_FAN_IN`] age-contiguous runs of one size class
//!   merge into one, and a run is otherwise rewritten only if the threshold
//!   can reclaim enough from it on its own (judged from a summary taken
//!   when the run was built, without reading it). A merge drops every
//!   version shadowed at the threshold — the newest at-or-below one per key
//!   stays. Reads below the threshold fail with
//!   [`MvccError::BelowGcThreshold`].
//!
//! Invariant compaction relies on: *for one key, a newer source holds only
//! newer versions* — memtable above every run, a run above every run before
//! it in `Engine::runs`. Flush moves every committed version out of the
//! memtable into a new last run, [`Engine::put`] forwards write timestamps
//! above the newest run version, a merge replaces age-contiguous runs in
//! place, and an ingested run — whose versions sit below all history —
//! goes in at the oldest position. It is what lets a merge that includes
//! the oldest run elide a tombstone at or below the threshold (nothing
//! older can hide beneath it), and why any other merge must keep it (an
//! older run may hold the value it deletes). Of two arrivals of one
//! `(key, ts)` the first wins — `VersionChain::insert_version` in the
//! memtable, [`Engine::ingest`] for a run. The one exception to both rules
//! is a replayed resolve, which commits a copy of an already-flushed version
//! into the memtable; a merge puts that key's versions back in order.

use std::cell::Cell;
use std::collections::{btree_map, BTreeMap};
use std::ops::Range;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, TxnRecord, Value};

use crate::mvcc::{
    committed_in, read_merged, Intent, MvccError, MvccStore, PutOutcome, ReadOutcome, Version,
    VersionChain,
};
use crate::wal::{codec, replay, Wal, WalOp, WalRecord};

/// Runs merged at once, and the base of the size classes: a run of `n`
/// versions is in class `⌊log_FAN_IN n⌋`. A merge fires when this many
/// age-contiguous runs, none of a larger class than the newest of them, have
/// piled up, so a version is rewritten about once per class it climbs and at
/// most `(FAN_IN − 1) × classes` runs survive a maintenance pass.
pub const TIER_FAN_IN: usize = 4;

/// A key's 64-bit hash. Taken once per point lookup and shown to every
/// run's index: the high bits choose the slot, the low bits are the
/// fingerprint. Deterministic (no seed), so same-seed simulations agree.
#[derive(Clone, Copy, Debug)]
struct KeyHash(u64);

impl KeyHash {
    /// Eight bytes a step (multiply, fold the high half down), then a
    /// splitmix64 finish so every input bit reaches both ends of the word.
    fn of(key: &[u8]) -> KeyHash {
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let step = |h: u64, word: u64| {
            let h = (h ^ word).wrapping_mul(K);
            h ^ (h >> 32)
        };
        let mut h = key.len() as u64;
        let mut rest = key;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            h = step(h, u64::from_le_bytes(*word));
            rest = tail;
        }
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        let mut h = step(h, u64::from_le_bytes(last));
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        KeyHash(h ^ (h >> 31))
    }
}

/// Index slots per key: the table is never more than half full, so a probe
/// sequence is short and always ends at an empty slot.
const SLOTS_PER_KEY: usize = 2;
/// An unoccupied slot. Occupied ones hold `ordinal + 1` in their low bits.
const EMPTY_SLOT: u32 = 0;

/// An open-addressed hash index over a run's keys (the shape of RocksDB's
/// data-block hash index, over the whole run). One `u32` slot per entry in a
/// table of `SLOTS_PER_KEY` slots per key — 8 bytes a key — resolved by
/// linear probing. A slot packs the entry's ordinal (plus one) below a
/// fingerprint of the key's hash; the ordinal takes the bits the run's size
/// needs and the fingerprint the rest (16 bits in a run of 65k keys), so a
/// probe reads an entry's key only when hash and fingerprint both point at
/// it. Because every key of the run is in the table and a probe sequence
/// stops only at an empty slot, "absent" is exact: no false positives.
#[derive(Debug)]
struct RunIndex {
    slots: Vec<u32>,
    ordinal_bits: u32,
}

impl RunIndex {
    fn build(keys: &[RunKey]) -> RunIndex {
        assert!(keys.len() < 1 << 31, "run too large for u32 ordinals");
        let mut index = RunIndex {
            slots: vec![EMPTY_SLOT; (keys.len() * SLOTS_PER_KEY).max(1)],
            ordinal_bits: usize::BITS - keys.len().leading_zeros(),
        };
        for (ordinal, RunKey { key, .. }) in keys.iter().enumerate() {
            let hash = KeyHash::of(key.as_slice());
            let mut at = index.home(hash);
            while index.slots[at] != EMPTY_SLOT {
                at = index.next(at);
            }
            index.slots[at] = index.fingerprint(hash) | (ordinal as u32 + 1);
        }
        index
    }

    /// Where `hash`'s probe sequence starts: its high bits scaled to the
    /// table (no division, any table size).
    fn home(&self, hash: KeyHash) -> usize {
        ((hash.0 as u128 * self.slots.len() as u128) >> 64) as usize
    }

    fn next(&self, at: usize) -> usize {
        if at + 1 == self.slots.len() {
            0
        } else {
            at + 1
        }
    }

    /// The hash's low bits, moved above the ordinal.
    fn fingerprint(&self, hash: KeyHash) -> u32 {
        (hash.0 as u32) << self.ordinal_bits
    }

    /// The ordinal of the entry `is_key` accepts, asked only about the
    /// entries `hash` may be: those on its probe sequence, up to the first
    /// empty slot, whose fingerprint matches.
    fn find(&self, hash: KeyHash, mut is_key: impl FnMut(usize) -> bool) -> Option<usize> {
        let fingerprint = self.fingerprint(hash);
        let ordinal_mask = (1u32 << self.ordinal_bits) - 1;
        let mut at = self.home(hash);
        loop {
            let slot = self.slots[at];
            if slot == EMPTY_SLOT {
                return None;
            }
            if slot & !ordinal_mask == fingerprint {
                let ordinal = (slot & ordinal_mask) as usize - 1;
                if is_key(ordinal) {
                    return Some(ordinal);
                }
            }
            at = self.next(at);
        }
    }
}

/// One immutable sorted run: key-ordered committed versions (oldest first
/// per key, the memtable's order), a hash index over the key set, and what
/// compaction needs to know about the run without reading it. The layout is flat — the keys in
/// one vector, every version in another — so a run costs a few allocations
/// whatever its size, not one per key.
#[derive(Debug)]
pub struct SortedRun {
    keys: Vec<RunKey>,
    versions: Vec<Version>,
    index: RunIndex,
    tombstones: usize,
    /// The lowest GC threshold that reclaims a version from this run on its
    /// own: the second-oldest timestamp of some key (everything older than a
    /// version at or below the threshold is shadowed).
    shadow_from: Option<Timestamp>,
    /// The oldest tombstone. A threshold at or above it elides a key — but
    /// only while this is the oldest run.
    tombstone_from: Option<Timestamp>,
}

/// A run's key and where its versions sit in the run's version vector,
/// side by side: the lookup that compares the key has read their bounds.
#[derive(Debug)]
struct RunKey {
    key: Key,
    start: u32,
    len: u32,
}

/// A [`SortedRun`] under construction, a key at a time in key order: the
/// one way every run is built — flush, merge, split, ingest and bulk load.
struct RunBuilder {
    keys: Vec<RunKey>,
    versions: Vec<Version>,
}

impl RunBuilder {
    fn with_capacity(keys: usize, versions: usize) -> RunBuilder {
        RunBuilder {
            keys: Vec::with_capacity(keys),
            versions: Vec::with_capacity(versions),
        }
    }

    /// Append `key`, above every key so far, with its versions oldest first.
    fn push(&mut self, key: Key, versions: impl IntoIterator<Item = Version>) {
        self.versions.extend(versions);
        self.end_key(key);
    }

    /// Close `key` over the versions appended since the last key closed — a
    /// key left without any is dropped.
    fn end_key(&mut self, key: Key) {
        let start = self.start();
        if self.versions.len() > start {
            debug_assert!(self.keys.last().is_none_or(|last| last.key < key));
            let len = (self.versions.len() - start) as u32;
            let start = start as u32;
            self.keys.push(RunKey { key, start, len });
        }
    }

    /// Where the next key's versions start.
    fn start(&self) -> usize {
        self.keys.last().map_or(0, |k| (k.start + k.len) as usize)
    }

    fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn finish(self) -> SortedRun {
        assert!(
            self.versions.len() <= u32::MAX as usize,
            "run too large for u32 bounds"
        );
        let RunBuilder { keys, versions } = self;
        let lower = |slot: &mut Option<Timestamp>, ts| *slot = Some(slot.map_or(ts, |s| s.min(ts)));
        let mut shadow_from = None;
        for k in keys.iter().filter(|k| k.len >= 2) {
            lower(&mut shadow_from, versions[k.start as usize + 1].ts);
        }
        let (mut tombstones, mut tombstone_from) = (0, None);
        for v in versions.iter().filter(|v| v.value.is_none()) {
            tombstones += 1;
            lower(&mut tombstone_from, v.ts);
        }
        SortedRun {
            index: RunIndex::build(&keys),
            keys,
            versions,
            tombstones,
            shadow_from,
            tombstone_from,
        }
    }
}

impl SortedRun {
    /// A bulk load's run (an SST built outside the engine, for
    /// [`Engine::ingest`]): one version at `ts` per row. `rows` must be in
    /// key order, without repeats.
    pub fn bulk(rows: impl IntoIterator<Item = (Key, Value)>, ts: Timestamp) -> SortedRun {
        let rows = rows.into_iter();
        let n = rows.size_hint().0;
        let mut run = RunBuilder::with_capacity(n, n);
        for (key, value) in rows {
            let value = Some(value);
            run.push(key, [Version { ts, value }]);
        }
        run.finish()
    }

    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    fn size_class(&self) -> u32 {
        self.versions.len().max(1).ilog(TIER_FAN_IN)
    }

    /// Is rewriting this run alone at `threshold` worth it? It must drop
    /// something, and what it could ever drop — all but the oldest version
    /// of each key, and from the oldest run its tombstones — must be a
    /// [`TIER_FAN_IN`]th of the run: a big run is not rewritten for a few
    /// shadowed versions, they wait for its tier to merge.
    fn reclaimable_at(&self, threshold: Timestamp, oldest: bool) -> bool {
        let reached = |from: Option<Timestamp>| from.is_some_and(|ts| ts <= threshold);
        let mut ready = reached(self.shadow_from);
        let mut spare = self.versions.len() - self.keys.len();
        if oldest {
            ready |= reached(self.tombstone_from);
            spare += self.tombstones;
        }
        ready && spare * TIER_FAN_IN >= self.versions.len()
    }

    /// The versions of the key at `ordinal`, oldest first.
    fn versions_of(&self, ordinal: usize) -> &[Version] {
        let RunKey { start, len, .. } = self.keys[ordinal];
        &self.versions[start as usize..(start + len) as usize]
    }

    /// The versions of `key` (whose hash is `hash`), if the run holds it,
    /// and how many keys were read to tell.
    fn find(&self, hash: KeyHash, key: &Key) -> (Option<&[Version]>, usize) {
        let mut read = 0;
        let found = self.index.find(hash, |ordinal| {
            read += 1;
            self.keys[ordinal].key == *key
        });
        (found.map(|ordinal| self.versions_of(ordinal)), read)
    }

    /// The run's keys, in order, as [`Row`]s.
    fn rows(&self) -> Source<'_> {
        Source::Run(self, 0..self.keys.len())
    }

    /// The run's keys in `span`, in order, as [`Row`]s.
    fn rows_in(&self, span: &Span) -> Source<'_> {
        let start = self.keys.partition_point(|k| k.key < span.start);
        let len = match span.end.is_empty() {
            true => self.keys.len() - start,
            false => self.keys[start..].partition_point(|k| k.key < span.end),
        };
        Source::Run(self, start..start + len)
    }

    /// The run's keys at the ordinals `at`, as a new run.
    fn slice(&self, at: Range<usize>) -> SortedRun {
        let versions = at.clone().map(|i| self.keys[i].len as usize).sum();
        let mut out = RunBuilder::with_capacity(at.len(), versions);
        for i in at {
            let key = self.keys[i].key.clone();
            out.push(key, self.versions_of(i).iter().cloned());
        }
        out.finish()
    }
}

/// Versions across `runs`, counted.
fn version_count(runs: &[Rc<SortedRun>]) -> usize {
    runs.iter().map(|r| r.version_count()).sum()
}

/// What one source (memtable or run) holds for one key, borrowed.
#[derive(Clone, Copy)]
struct Row<'a> {
    key: &'a Key,
    intent: Option<&'a Intent>,
    versions: &'a [Version],
}

/// A key-ordered walk over the memtable or one run's keys, as [`Row`]s.
enum Source<'a> {
    Mem(btree_map::Range<'a, Key, VersionChain>),
    Run(&'a SortedRun, Range<usize>),
}

impl<'a> Iterator for Source<'a> {
    type Item = Row<'a>;
    fn next(&mut self) -> Option<Row<'a>> {
        match self {
            Source::Mem(it) => it.next().map(|(key, chain)| Row {
                key,
                intent: chain.intent.as_ref(),
                versions: &chain.versions,
            }),
            Source::Run(run, at) => at.next().map(|i| Row {
                key: &run.keys[i].key,
                intent: None,
                versions: run.versions_of(i),
            }),
        }
    }
}

/// K-way merge of key-ordered sources, listed newest first: each step
/// yields the next key once, with the row of every source that holds it,
/// still newest first. Nothing is copied, and nothing past the key the
/// caller stops at is touched. Sources are few (a memtable and a handful of
/// runs), so the smallest head is found by a linear pass, not a heap.
struct MergeCursor<'a> {
    sources: Vec<Source<'a>>,
    heads: Vec<Option<Row<'a>>>,
    group: Vec<Row<'a>>,
}

impl<'a> MergeCursor<'a> {
    fn new(sources: impl IntoIterator<Item = Source<'a>>) -> MergeCursor<'a> {
        let mut sources: Vec<Source<'a>> = sources.into_iter().collect();
        let heads = sources.iter_mut().map(Iterator::next).collect();
        MergeCursor {
            sources,
            heads,
            group: Vec::new(),
        }
    }

    fn next_key(&mut self) -> Option<&[Row<'a>]> {
        self.group.clear();
        let mut first: Option<(usize, &Key)> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some(head) = head {
                if first.is_none_or(|(_, k)| head.key < k) {
                    first = Some((i, head.key));
                }
            }
        }
        let (first, _) = first?;
        for i in first..self.heads.len() {
            let same = |h: &Row| self.group.first().is_none_or(|g| g.key == h.key);
            if self.heads[i].as_ref().is_some_and(same) {
                self.group.extend(self.heads[i].take());
                self.heads[i] = self.sources[i].next();
            }
        }
        Some(&self.group)
    }
}

/// Monotone operation counters. The two point-lookup counters use `Cell`
/// so read paths stay `&self`; their registry series keep the names they had
/// when runs carried bloom filters (`storage.bloom_*`, read by name).
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Runs consulted by point lookups.
    pub run_probes: Cell<u64>,
    /// Of those, runs whose index answered without an entry being read.
    pub run_skips: Cell<u64>,
    pub flushes: u64,
    pub compactions: u64,
    pub gc_reclaimed: u64,
    pub recoveries: u64,
    pub replayed_records: u64,
    pub torn_tails: u64,
}

/// What one [`Engine::maintain`] pass did.
#[derive(Clone, Copy, Debug, Default)]
pub struct MaintainReport {
    pub mem_gc_removed: usize,
    pub flushed_versions: usize,
    pub compact_removed: usize,
    /// Versions compaction wrote back into runs (beside `flushed_versions`,
    /// the write amplification of the pass).
    pub rewritten_versions: usize,
    pub flushed: bool,
    pub compacted: bool,
}

/// Why a recovery could not rebuild the memtable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// A checkpoint record passed its CRC but its image does not decode.
    /// Nothing of it, and no record after it, is trusted: the memtable
    /// restarts empty (sorted runs survive).
    CorruptCheckpoint,
}

/// State returned by crash recovery, for the replica to re-seed its
/// volatile mirrors (Raft applied index, closed-ts tracker). Transaction
/// records need no re-seeding: the engine is their only store.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    pub applied_index: u64,
    pub closed_ts: Timestamp,
    pub gc_threshold: Timestamp,
    pub replayed_records: u64,
    pub torn_tail: bool,
    pub error: Option<RecoveryError>,
}

/// The per-replica LSM storage engine. A clone shares the runs (a refcount
/// each) and copies the memtable, WAL and transaction records.
#[derive(Clone, Debug)]
pub struct Engine {
    mem: MvccStore,
    runs: Vec<Rc<SortedRun>>,
    /// Versions across all runs, kept as runs come and go: every scrape
    /// asks, and a walk would cost a step per run of every replica.
    run_versions: usize,
    /// The log; the ops of the Raft entry being applied are encoded into its
    /// open frame as they happen, and [`Engine::seal_entry`] seals it.
    wal: Wal,
    /// The transaction records anchored on this range — the only copy a
    /// replica has. Logged per upsert, carried whole in every checkpoint.
    txn_records: BTreeMap<TxnId, TxnRecord>,
    gc_threshold: Timestamp,
    applied_index: u64,
    closed_ts: Timestamp,
    /// When set (armed `InjectedBug::WalSkipFsync`), [`Engine::sync`] is a no-op
    /// and durability waits for a periodic [`Engine::sync_now`] tick — the
    /// node acks writes before its WAL fsync point.
    pub defer_sync: bool,
    /// Flush the memtable once it holds at least this many committed
    /// versions (checked during maintenance).
    pub flush_min_versions: usize,
    stats: EngineStats,
}

impl Default for Engine {
    fn default() -> Engine {
        let mut e = Engine {
            mem: MvccStore::new(),
            runs: Vec::new(),
            run_versions: 0,
            wal: Wal::new(),
            txn_records: BTreeMap::new(),
            gc_threshold: Timestamp::ZERO,
            applied_index: 0,
            closed_ts: Timestamp::ZERO,
            defer_sync: false,
            flush_min_versions: 32,
            stats: EngineStats::default(),
        };
        // An empty durable checkpoint anchors the log.
        e.wal.reset_to_checkpoint(&e.encode_checkpoint(), 0);
        e
    }
}

impl Engine {
    pub fn new() -> Engine {
        Engine::default()
    }

    // ------------------------------------------------------------------
    // Reads (merged memtable ∪ runs)
    // ------------------------------------------------------------------

    fn check_gc(&self, read_ts: Timestamp) -> Result<(), MvccError> {
        if read_ts < self.gc_threshold {
            return Err(MvccError::BelowGcThreshold {
                read_ts,
                threshold: self.gc_threshold,
            });
        }
        Ok(())
    }

    /// The version lists of `key` in every run that holds it, one index
    /// probe each — the one place runs are probed.
    fn run_chains<'a>(&'a self, key: &'a Key) -> impl Iterator<Item = &'a [Version]> + 'a {
        let stats = &self.stats;
        // Hashed at the first run, for all of them.
        let mut hash = None;
        self.runs.iter().filter_map(move |run| {
            stats.run_probes.set(stats.run_probes.get() + 1);
            let hash = *hash.get_or_insert_with(|| KeyHash::of(key.as_slice()));
            let (versions, entries_read) = run.find(hash, key);
            if entries_read == 0 {
                stats.run_skips.set(stats.run_skips.get() + 1);
            }
            versions
        })
    }

    /// The version lists of `key` in the memtable and every run that holds
    /// it.
    fn sources<'a>(&'a self, key: &'a Key) -> impl Iterator<Item = &'a [Version]> + 'a {
        let mem = self.mem.chain(key).map(|c| c.versions.as_slice());
        mem.into_iter().chain(self.run_chains(key))
    }

    /// Every key with state in `span`, in order, each with what the memtable
    /// and every run hold for it.
    fn cursor<'a>(&'a self, span: &Span) -> MergeCursor<'a> {
        let mem = Source::Mem(self.mem.range(span));
        let runs = self.runs.iter().rev();
        MergeCursor::new(std::iter::once(mem).chain(runs.map(|r| r.rows_in(span))))
    }

    /// Point read at `ctx.read_ts` with uncertainty detection, merged
    /// across memtable and runs. Fails below the GC threshold.
    pub fn get(&self, key: &Key, ctx: &ReadCtx) -> Result<ReadOutcome, MvccError> {
        self.check_gc(ctx.read_ts)?;
        let chain = self.mem.chain(key);
        let mem = chain.map(|c| c.versions.as_slice());
        read_merged(
            key,
            ctx,
            chain.and_then(|c| c.intent.as_ref()),
            mem.into_iter().chain(self.run_chains(key)),
        )
    }

    /// Scan `[span.start, span.end)` at `ctx.read_ts`, up to `max_keys`
    /// live rows.
    pub fn scan(
        &self,
        span: &Span,
        ctx: &ReadCtx,
        max_keys: usize,
    ) -> Result<Vec<(Key, Value, Timestamp)>, MvccError> {
        self.check_gc(ctx.read_ts)?;
        let mut out = Vec::new();
        let mut cursor = self.cursor(span);
        while out.len() < max_keys {
            let Some(rows) = cursor.next_key() else {
                break;
            };
            let key = rows[0].key;
            let intent = rows.iter().find_map(|r| r.intent);
            let r = read_merged(key, ctx, intent, rows.iter().map(|r| r.versions))?;
            if let Some(v) = r.value {
                out.push((key.clone(), v, r.value_ts));
            }
        }
        Ok(out)
    }

    /// The intent currently on `key`, if any (intents live only in the
    /// memtable — they are never flushed).
    pub fn intent(&self, key: &Key) -> Option<&Intent> {
        self.mem.intent(key)
    }

    /// Validate that no committed version or foreign intent landed in
    /// `(from_ts, to_ts]` anywhere in `span` — the read-refresh check.
    pub fn refresh_span(
        &self,
        span: &Span,
        from_ts: Timestamp,
        to_ts: Timestamp,
        txn_id: TxnId,
    ) -> Result<(), Timestamp> {
        let mut cursor = self.cursor(span);
        while let Some(rows) = cursor.next_key() {
            let landed = rows
                .iter()
                .filter_map(|r| committed_in(r.versions, from_ts, to_ts))
                .map(|v| v.ts)
                .min();
            if let Some(ts) = landed {
                return Err(ts);
            }
            if let Some(intent) = rows.iter().find_map(|r| r.intent) {
                if intent.txn.id != txn_id && intent.txn.write_ts <= to_ts {
                    return Err(intent.txn.write_ts);
                }
            }
        }
        Ok(())
    }

    /// Latest committed timestamp on `key` across memtable and runs.
    pub fn latest_committed_ts(&self, key: &Key) -> Option<Timestamp> {
        self.mem
            .latest_committed_ts(key)
            .max(self.run_latest_ts(key))
    }

    fn run_latest_ts(&self, key: &Key) -> Option<Timestamp> {
        self.run_chains(key)
            .filter_map(|versions| versions.last().map(|v| v.ts))
            .max()
    }

    /// The lowest intent timestamp in `span`, if any (bounded-staleness
    /// negotiation).
    pub fn min_intent_ts_in(&self, span: &Span) -> Option<Timestamp> {
        self.mem.min_intent_ts_in(span)
    }

    /// Scan live rows, treating open intents as their provisional values
    /// (newest state wins).
    pub fn scan_latest_including_intents(&self, span: &Span) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut cursor = self.cursor(span);
        while let Some(rows) = cursor.next_key() {
            let candidate = match rows.iter().find_map(|r| r.intent) {
                Some(intent) => intent.value.as_ref(),
                None => rows
                    .iter()
                    .filter_map(|r| r.versions.last())
                    .max_by_key(|v| v.ts)
                    .and_then(|v| v.value.as_ref()),
            };
            if let Some(v) = candidate {
                out.push((rows[0].key.clone(), v.clone()));
            }
        }
        out
    }

    /// Number of distinct keys with any state, across memtable and runs.
    pub fn key_count(&self) -> usize {
        let mut cursor = self.cursor(&Span::all());
        let mut n = 0;
        while cursor.next_key().is_some() {
            n += 1;
        }
        n
    }

    /// Total committed versions across memtable and runs.
    pub fn version_count(&self) -> usize {
        self.mem.version_count() + self.sst_version_count()
    }

    // ------------------------------------------------------------------
    // Writes (memtable + WAL)
    // ------------------------------------------------------------------

    /// Lay down (or update) an intent for `txn`, forwarding the write
    /// timestamp above any newer committed version in memtable *or* runs.
    pub fn put(
        &mut self,
        key: &Key,
        value: Option<Value>,
        txn: &TxnMeta,
    ) -> Result<PutOutcome, MvccError> {
        let run_newer = self.run_latest_ts(key).filter(|l| *l >= txn.write_ts);
        let out = match run_newer {
            Some(l) => {
                let mut meta = txn.clone();
                meta.write_ts = l.next();
                self.mem.put(key, value.clone(), &meta)?
            }
            None => self.mem.put(key, value.clone(), txn)?,
        };
        codec::put_intent_op(self.wal.entry_op(), key, &value, txn, out.written_ts);
        Ok(PutOutcome {
            written_ts: out.written_ts,
            write_too_old: out.write_too_old || run_newer.is_some(),
        })
    }

    /// Promote `txn_id`'s intent on `key` to a committed version.
    pub fn commit_intent(&mut self, key: &Key, txn_id: TxnId, commit_ts: Timestamp) -> bool {
        let done = self.mem.commit_intent(key, txn_id, commit_ts);
        if done {
            codec::commit_intent_op(self.wal.entry_op(), key, txn_id, commit_ts);
        }
        done
    }

    /// Discard `txn_id`'s intent on `key`.
    pub fn abort_intent(&mut self, key: &Key, txn_id: TxnId) -> bool {
        let done = self.mem.abort_intent(key, txn_id);
        if done {
            codec::abort_intent_op(self.wal.entry_op(), key, txn_id);
        }
        done
    }

    /// Upsert a transaction record, logged with the entry being applied.
    pub fn note_txn_record(&mut self, txn_id: TxnId, rec: TxnRecord) {
        codec::txn_record_op(self.wal.entry_op(), txn_id, &rec);
        self.txn_records.insert(txn_id, rec);
    }

    /// The record of `txn_id`, if this range ever anchored one.
    pub fn txn_record(&self, txn_id: TxnId) -> Option<&TxnRecord> {
        self.txn_records.get(&txn_id)
    }

    /// Ingest a run built outside the engine (a bulk load's SST; every
    /// replica of the range is handed the same one). Its versions sit below
    /// all history, so it goes in at the oldest position; like a flushed run
    /// it is durable at once and logs nothing. A `(key, ts)` some source
    /// already holds is not ingested again — the first one wins — and only
    /// then does this engine keep a private copy of the rest. An engine that
    /// holds nothing yet (a bulk load's fresh range) is not searched.
    pub fn ingest(&mut self, run: Rc<SortedRun>) {
        let fresh = self.runs.is_empty() && self.mem.is_empty();
        let run = if fresh { Some(run) } else { self.unheld(run) };
        if let Some(run) = run {
            self.run_versions += run.version_count();
            self.runs.insert(0, run);
        }
    }

    /// `run` without the `(key, ts)`s some source already holds: `run`
    /// itself if it repeats none, else a copy of the rest, if any is left.
    fn unheld(&self, run: Rc<SortedRun>) -> Option<Rc<SortedRun>> {
        let holds = |held: &[Version], v: &Version| held.iter().any(|h| h.ts == v.ts);
        let mut duplicated = false;
        for row in run.rows() {
            for held in self.sources(row.key) {
                debug_assert!(
                    held.first()
                        .is_none_or(|o| row.versions.iter().all(|v| v.ts <= o.ts)),
                    "ingested {:?} is not below the history held",
                    row.key
                );
                duplicated |= row.versions.iter().any(|v| holds(held, v));
            }
        }
        if !duplicated {
            return Some(run);
        }
        let mut fresh = RunBuilder::with_capacity(run.key_count(), run.version_count());
        for row in run.rows() {
            let unheld = |v: &&Version| !self.sources(row.key).any(|held| holds(held, v));
            fresh.push(row.key.clone(), row.versions.iter().filter(unheld).cloned());
        }
        (!fresh.is_empty()).then(|| Rc::new(fresh.finish()))
    }

    // ------------------------------------------------------------------
    // Durability: sealing, syncing, checkpoints
    // ------------------------------------------------------------------

    /// Seal the ops of one applied Raft entry, already encoded in the log's
    /// open frame, into a WAL record. Called once per applied entry —
    /// "append on every Raft apply". The record is volatile until the next
    /// sync.
    pub fn seal_entry(&mut self, apply_index: u64, closed_ts: Timestamp) {
        self.applied_index = apply_index;
        self.closed_ts = self.closed_ts.max(closed_ts);
        self.wal.seal_entry(apply_index, closed_ts);
    }

    /// Advance the WAL fsync pointer — unless syncs are deferred by the
    /// armed `InjectedBug::WalSkipFsync`.
    pub fn sync(&mut self, now_nanos: u64) {
        if !self.defer_sync {
            self.wal.sync(now_nanos);
        }
    }

    /// Unconditionally advance the fsync pointer (the periodic sync tick
    /// of the armed-bug mode, and maintenance).
    pub fn sync_now(&mut self, now_nanos: u64) {
        self.wal.sync(now_nanos);
    }

    fn encode_checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u64(&mut out, self.applied_index);
        codec::put_ts(&mut out, self.closed_ts);
        codec::put_ts(&mut out, self.gc_threshold);
        let n = self.mem.chains().count();
        codec::put_u32(&mut out, n as u32);
        for (k, chain) in self.mem.chains() {
            codec::put_key(&mut out, k);
            match &chain.intent {
                Some(i) => {
                    out.push(1);
                    codec::put_opt_value(&mut out, &i.value);
                    codec::put_txn_meta(&mut out, &i.txn);
                }
                None => out.push(0),
            }
            // The image lists a chain's versions newest first.
            codec::put_u32(&mut out, chain.versions.len() as u32);
            for v in chain.versions.iter().rev() {
                codec::put_ts(&mut out, v.ts);
                codec::put_opt_value(&mut out, &v.value);
            }
        }
        codec::put_u32(&mut out, self.txn_records.len() as u32);
        for (id, rec) in &self.txn_records {
            codec::put_u64(&mut out, id.0);
            codec::put_txn_rec(&mut out, rec);
        }
        out
    }

    fn restore_checkpoint(&mut self, image: &[u8]) -> Result<(), codec::DecodeError> {
        let mut c = codec::Cursor::new(image);
        self.applied_index = c.u64()?;
        self.closed_ts = c.ts()?;
        self.gc_threshold = c.ts()?;
        let nchains = c.u32()? as usize;
        for _ in 0..nchains {
            let key = c.key()?;
            if c.u8()? == 1 {
                let value = c.opt_value()?;
                let txn = c.txn_meta()?;
                self.mem.force_intent(key.clone(), txn, value);
            }
            let nvers = c.u32()? as usize;
            for _ in 0..nvers {
                let ts = c.ts()?;
                let value = c.opt_value()?;
                self.mem.force_version(key.clone(), ts, value);
            }
        }
        let nrecs = c.u32()? as usize;
        for _ in 0..nrecs {
            let id = TxnId(c.u64()?);
            let rec = c.txn_rec()?;
            self.txn_records.insert(id, rec);
        }
        Ok(())
    }

    /// Write a fresh durable checkpoint and truncate the WAL to it.
    /// Models an SST/manifest write, durable immediately.
    pub fn checkpoint_now(&mut self, now_nanos: u64) {
        let image = self.encode_checkpoint();
        self.wal.reset_to_checkpoint(&image, now_nanos);
    }

    /// Re-seed the engine's durable identity after range surgery (install,
    /// split, merge): pin the applied index and closed timestamp, flush the
    /// committed memtable into a run, and checkpoint. What is left for the
    /// image is intents and transaction records, so the clones a range's
    /// replicas are installed from share every version (a refcount per run)
    /// and copy only that.
    pub fn rebaseline(&mut self, applied_index: u64, closed_ts: Timestamp, now_nanos: u64) {
        self.applied_index = applied_index;
        self.closed_ts = closed_ts;
        self.flush_internal();
        self.checkpoint_now(now_nanos);
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Drop all volatile state (memtable, open entry, unsynced WAL tail)
    /// and rebuild from the durable checkpoint + WAL records. Sorted runs
    /// survive (they are durable files). Ends with a fresh checkpoint so
    /// the post-recovery log is clean.
    pub fn crash_and_recover(&mut self) -> RecoveryInfo {
        self.wal.crash();
        self.reset_volatile();

        let outcome = replay(self.wal.bytes());
        let mut replayed = 0u64;
        let mut error = None;
        for rec in outcome.records {
            match rec {
                WalRecord::Checkpoint(image) => {
                    // A checkpoint is always the first record of its log
                    // generation; decode failure means a bug, not a torn
                    // tail (the CRC already passed), so say so.
                    if self.restore_checkpoint(&image).is_err() {
                        self.reset_volatile();
                        error = Some(RecoveryError::CorruptCheckpoint);
                        break;
                    }
                }
                WalRecord::Entry {
                    apply_index,
                    closed_ts,
                    ops,
                } => {
                    for op in ops {
                        self.replay_op(op);
                    }
                    self.applied_index = self.applied_index.max(apply_index);
                    self.closed_ts = self.closed_ts.max(closed_ts);
                    replayed += 1;
                }
            }
        }
        self.stats.recoveries += 1;
        self.stats.replayed_records += replayed;
        if outcome.torn_tail {
            self.stats.torn_tails += 1;
        }
        let info = RecoveryInfo {
            applied_index: self.applied_index,
            closed_ts: self.closed_ts,
            gc_threshold: self.gc_threshold,
            replayed_records: replayed,
            torn_tail: outcome.torn_tail,
            error,
        };
        let sync_mark = self.wal.last_sync_nanos;
        self.checkpoint_now(sync_mark);
        info
    }

    fn reset_volatile(&mut self) {
        self.mem = MvccStore::new();
        self.txn_records.clear();
        self.applied_index = 0;
        self.closed_ts = Timestamp::ZERO;
        self.gc_threshold = Timestamp::ZERO;
    }

    fn replay_op(&mut self, op: WalOp) {
        match op {
            WalOp::PutIntent { key, value, txn } => self.mem.force_intent(key, txn, value),
            WalOp::CommitIntent {
                key,
                txn_id,
                commit_ts,
            } => {
                self.mem.commit_intent(&key, txn_id, commit_ts);
            }
            WalOp::AbortIntent { key, txn_id } => {
                self.mem.abort_intent(&key, txn_id);
            }
            WalOp::TxnRecord { txn_id, rec } => {
                self.txn_records.insert(txn_id, rec);
            }
        }
    }

    // ------------------------------------------------------------------
    // Flush, compaction, GC
    // ------------------------------------------------------------------

    fn flush_internal(&mut self) -> usize {
        let n = self.mem.version_count();
        let mut run = RunBuilder::with_capacity(n, n);
        self.mem
            .drain_committed(|key, versions| run.push(key, versions));
        if run.is_empty() {
            return 0;
        }
        let run = run.finish();
        self.run_versions += run.version_count();
        self.runs.push(Rc::new(run));
        self.stats.flushes += 1;
        n
    }

    /// Flush the memtable's committed versions to a new immutable run and
    /// checkpoint (the flush is what makes those versions SST-durable, so
    /// the WAL no longer needs to carry them).
    pub fn flush(&mut self, now_nanos: u64) -> usize {
        let n = self.flush_internal();
        self.checkpoint_now(now_nanos);
        n
    }

    /// The next runs to rewrite, as an index range of `runs`: a tier —
    /// [`TIER_FAN_IN`] or more runs, from some run back through the older
    /// neighbours that are of no larger size class than it — or else one run
    /// the threshold can reclaim enough from on its own.
    fn next_rewrite(&self) -> Option<Range<usize>> {
        let tier = (0..self.runs.len()).rev().find_map(|newest| {
            let class = self.runs[newest].size_class();
            let older = self.runs[..newest].iter().rev();
            let len = 1 + older.take_while(|r| r.size_class() <= class).count();
            (len >= TIER_FAN_IN).then(|| newest + 1 - len..newest + 1)
        });
        tier.or_else(|| {
            let at = (0..self.runs.len())
                .find(|&i| self.runs[i].reclaimable_at(self.gc_threshold, i == 0))?;
            Some(at..at + 1)
        })
    }

    /// Merge the age-contiguous runs `window` into one, in place, copying
    /// what the GC threshold does not shadow out of their rows. Returns
    /// versions (dropped, written).
    fn merge_runs(&mut self, window: Range<usize>) -> (usize, usize) {
        let thr = self.gc_threshold;
        // Unless the window starts at the oldest run, older versions of its
        // keys may sit before it.
        let oldest = window.start == 0;
        let at = window.start;
        let inputs: Vec<Rc<SortedRun>> = self.runs.drain(window).collect();
        let read: usize = inputs.iter().map(|r| r.version_count()).sum();
        let keys = inputs.iter().map(|r| r.key_count()).sum();
        let mut out = RunBuilder::with_capacity(keys, read);
        let mut cursor = MergeCursor::new(inputs.iter().rev().map(|r| r.rows()));
        while let Some(group) = cursor.next_key() {
            let start = out.start();
            // Oldest source first: every source's versions are older than
            // the next one's, so the key's versions come out in order.
            for row in group.iter().rev() {
                out.versions.extend_from_slice(row.versions);
            }
            if !out.versions[start..].is_sorted_by(|a, b| a.ts < b.ts) {
                // Sources out of age order for this key. An ingested run
                // never does that (it lands below all history); a replayed
                // resolve does: a retried write re-laid an intent above its
                // transaction's own committed version, and the resolve
                // commits it at the original timestamp — into the memtable,
                // above a run that holds that version or newer ones.
                // Restore the order; of two copies of one `(key, ts)` — they
                // carry the same value — the newer source's stays.
                let mut versions = out.versions.split_off(start);
                versions.sort_by_key(|v| v.ts);
                // Equal timestamps newest source first, for the dedup.
                versions.reverse();
                versions.dedup_by_key(|v| v.ts);
                versions.reverse();
                out.versions.append(&mut versions);
            }
            // Everything above the threshold stays, and the newest version
            // at or below it — reads at exactly the threshold must see it.
            // Unless that is a tombstone with nothing older left anywhere:
            // then "nothing" reads identically to "deleted".
            let versions = &out.versions[start..];
            let at_or_below = versions.partition_point(|v| v.ts <= thr);
            let keep_floor = at_or_below
                .checked_sub(1)
                .is_some_and(|floor| versions[floor].value.is_some() || !oldest);
            let shadowed = at_or_below - usize::from(keep_floor);
            out.versions.drain(start..start + shadowed);
            out.end_key(group[0].key.clone());
        }
        self.stats.compactions += 1;
        let mut written = 0;
        if !out.is_empty() {
            let run = out.finish();
            written = run.version_count();
            self.runs.insert(at, Rc::new(run));
        }
        self.run_versions = self.run_versions + written - read;
        (read - written, written)
    }

    /// One maintenance pass: ratchet the GC threshold, GC the memtable,
    /// flush if it is full, rewrite the runs that have a tier to merge or
    /// something to reclaim (see [`Engine::next_rewrite`]; every other run is
    /// left untouched), and checkpoint. Thresholds only ever rise; passing
    /// an older threshold is harmless.
    pub fn maintain(&mut self, threshold: Timestamp, now_nanos: u64) -> MaintainReport {
        self.gc_threshold = self.gc_threshold.max(threshold);
        let mut report = MaintainReport {
            mem_gc_removed: self.mem.gc_with(self.gc_threshold, self.runs.is_empty()),
            flushed: self.mem.version_count() >= self.flush_min_versions,
            ..MaintainReport::default()
        };
        if report.flushed {
            report.flushed_versions = self.flush_internal();
        }
        while let Some(window) = self.next_rewrite() {
            let (removed, written) = self.merge_runs(window);
            report.compacted = true;
            report.compact_removed += removed;
            report.rewritten_versions += written;
        }
        self.stats.gc_reclaimed += (report.mem_gc_removed + report.compact_removed) as u64;
        self.checkpoint_now(now_nanos);
        report
    }

    // ------------------------------------------------------------------
    // Range surgery
    // ------------------------------------------------------------------

    /// Split at `split_key`: chains and run entries at or above it move to
    /// the returned engine — a run wholly on one side as it is, a straddling
    /// one as two new runs copied out of it. Every
    /// transaction record goes to both halves (a record does not say where
    /// its anchor key is; only the half holding the anchor ever updates its
    /// copy). The caller must [`Engine::rebaseline`] both halves afterwards
    /// (their WALs restart from fresh checkpoints).
    pub fn split_off(&mut self, split_key: &Key) -> Engine {
        let mem_rhs = self.mem.split_off(split_key);
        let mut rhs_runs = Vec::new();
        for run in std::mem::take(&mut self.runs) {
            let idx = run.keys.partition_point(|k| k.key < *split_key);
            if idx == 0 {
                rhs_runs.push(run);
            } else if idx == run.key_count() {
                self.runs.push(run);
            } else {
                rhs_runs.push(Rc::new(run.slice(idx..run.key_count())));
                self.runs.push(Rc::new(run.slice(0..idx)));
            }
        }
        let mut rhs = Engine::new();
        rhs.mem = mem_rhs;
        rhs.run_versions = version_count(&rhs_runs);
        rhs.runs = rhs_runs;
        self.run_versions = version_count(&self.runs);
        rhs.txn_records = self.txn_records.clone();
        rhs.gc_threshold = self.gc_threshold;
        rhs.defer_sync = self.defer_sync;
        rhs.flush_min_versions = self.flush_min_versions;
        rhs
    }

    /// Absorb an adjacent range's engine (range merge). Keyspaces are
    /// disjoint; transaction records need not be — a split gave both halves
    /// every record and only the anchor's half moved its copy on (re-staged
    /// at a higher timestamp, then finalized), so where both sides hold one
    /// the copy further along wins. The caller must [`Engine::rebaseline`]
    /// afterwards.
    pub fn absorb(&mut self, other: Engine) {
        self.mem.absorb(other.mem);
        self.runs.extend(other.runs);
        self.run_versions += other.run_versions;
        let progress = |r: &TxnRecord| (r.status.is_finalized(), r.commit_ts);
        for (id, theirs) in other.txn_records {
            match self.txn_records.entry(id) {
                btree_map::Entry::Vacant(slot) => {
                    slot.insert(theirs);
                }
                btree_map::Entry::Occupied(mut slot) => {
                    let ours = slot.get();
                    debug_assert!(
                        !(ours.status.is_finalized() && theirs.status.is_finalized())
                            || *ours == theirs,
                        "{id} finalized twice: {ours:?} and {theirs:?}"
                    );
                    if progress(&theirs) > progress(ours) {
                        slot.insert(theirs);
                    }
                }
            }
        }
        // The merged range must not read below either half's threshold.
        self.gc_threshold = self.gc_threshold.max(other.gc_threshold);
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    pub fn gc_threshold(&self) -> Timestamp {
        self.gc_threshold
    }
    pub fn applied_index(&self) -> u64 {
        self.applied_index
    }
    pub fn closed_ts(&self) -> Timestamp {
        self.closed_ts
    }
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }
    pub fn wal_bytes(&self) -> usize {
        self.wal.len()
    }
    pub fn wal_record_count(&self) -> u64 {
        self.wal.record_count()
    }
    pub fn sst_count(&self) -> usize {
        self.runs.len()
    }
    pub fn sst_version_count(&self) -> usize {
        debug_assert_eq!(self.run_versions, version_count(&self.runs));
        self.run_versions
    }
    pub fn mem_version_count(&self) -> usize {
        self.mem.version_count()
    }

    /// Test hook: deterministic byte image of the full recoverable state
    /// (memtable, txn records, runs, thresholds) for byte-identical
    /// recovery assertions.
    pub fn state_image(&self) -> Vec<u8> {
        let mut out = self.encode_checkpoint();
        codec::put_u32(&mut out, self.runs.len() as u32);
        for run in &self.runs {
            codec::put_u32(&mut out, run.key_count() as u32);
            for row in run.rows() {
                codec::put_key(&mut out, row.key);
                codec::put_u32(&mut out, row.versions.len() as u32);
                for v in row.versions {
                    codec::put_ts(&mut out, v.ts);
                    codec::put_opt_value(&mut out, &v.value);
                }
            }
        }
        out
    }

    /// Test hook: mutable access to the WAL for crash-point sweeps.
    pub fn wal_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }
    pub fn wal(&self) -> &Wal {
        &self.wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_proto::TxnStatus;

    fn txn(id: u64, ts: u64) -> TxnMeta {
        TxnMeta::new(TxnId(id), Key::from("anchor"), Timestamp::new(ts, 0))
    }

    fn commit_put(e: &mut Engine, key: &str, val: &str, id: u64, ts: u64) -> Timestamp {
        let t = txn(id, ts);
        let out = e.put(&Key::from(key), Some(Value::from(val)), &t).unwrap();
        assert!(e.commit_intent(&Key::from(key), t.id, out.written_ts));
        out.written_ts
    }

    fn read(e: &Engine, key: &str, ts: u64) -> Option<Value> {
        e.get(&Key::from(key), &ReadCtx::stale(Timestamp::new(ts, 0)))
            .unwrap()
            .value
    }

    #[test]
    fn reads_merge_memtable_and_runs() {
        let mut e = Engine::new();
        commit_put(&mut e, "k", "v1", 1, 10);
        e.flush(0);
        assert_eq!(e.sst_count(), 1);
        assert_eq!(e.mem_version_count(), 0);
        commit_put(&mut e, "k", "v2", 2, 20);
        assert_eq!(read(&e, "k", 15), Some(Value::from("v1")));
        assert_eq!(read(&e, "k", 25), Some(Value::from("v2")));
        // Scan sees the merged view too.
        let span = Span::new(Key::from("a"), Key::from("z"));
        let rows = e
            .scan(&span, &ReadCtx::stale(Timestamp::new(25, 0)), 10)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, Value::from("v2"));
    }

    #[test]
    fn put_forwards_above_run_versions() {
        let mut e = Engine::new();
        commit_put(&mut e, "k", "new", 1, 100);
        e.flush(0);
        let t = txn(2, 50);
        let out = e
            .put(&Key::from("k"), Some(Value::from("late")), &t)
            .unwrap();
        assert!(out.write_too_old);
        assert_eq!(out.written_ts, Timestamp::new(100, 1));
    }

    #[test]
    fn sealed_record_is_the_codec_image_of_the_ops() {
        // The engine encodes each op as it happens; the sealed frame must be
        // byte for byte what the `WalOp` codec writes for the same ops.
        let (k, ts) = (Key::from, |wall| Timestamp::new(wall, 0));
        let mut e = Engine::new();
        commit_put(&mut e, "k", "old", 1, 10);
        e.seal_entry(1, ts(10));
        e.flush(0);
        let mut meta = txn(2, 5);
        meta.epoch = 3;
        e.put(&k("k"), Some(Value::from("new")), &meta).unwrap(); // forwarded above the run
        e.put(&k("gone"), None, &meta).unwrap();
        e.commit_intent(&k("k"), meta.id, ts(20));
        e.abort_intent(&k("gone"), meta.id);
        let rec = TxnRecord {
            status: TxnStatus::Staging,
            commit_ts: ts(20),
            in_flight: vec![k("k"), k("gone")],
        };
        e.note_txn_record(TxnId(2), rec.clone());
        let before = e.wal().len();
        e.seal_entry(2, ts(15));
        let mut forwarded = meta.clone();
        forwarded.write_ts = ts(10).next();
        let ops = vec![
            WalOp::PutIntent {
                key: k("k"),
                value: Some(Value::from("new")),
                txn: forwarded,
            },
            WalOp::PutIntent {
                key: k("gone"),
                value: None,
                txn: meta.clone(),
            },
            WalOp::CommitIntent {
                key: k("k"),
                txn_id: meta.id,
                commit_ts: ts(20),
            },
            WalOp::AbortIntent {
                key: k("gone"),
                txn_id: meta.id,
            },
            WalOp::TxnRecord {
                txn_id: meta.id,
                rec,
            },
        ];
        let reference = crate::wal::tests::encode_record(&WalRecord::Entry {
            apply_index: 2,
            closed_ts: ts(15),
            ops,
        });
        assert_eq!(&e.wal().bytes()[before + 8..], reference);
    }

    #[test]
    fn an_entry_dropped_before_its_seal_leaves_no_frame() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v1", 1, 10);
        e.seal_entry(1, Timestamp::new(10, 0));
        e.sync(100);
        let sealed = e.wal().bytes().to_vec();
        // Entry 2's ops sit in the open frame: no part of the log, and a
        // sync does not make them durable.
        commit_put(&mut e, "b", "v2", 2, 20);
        e.sync(200);
        assert_eq!(e.wal().bytes(), &sealed[..]);
        assert_eq!(e.wal().durable_len(), sealed.len());
        // A checkpoint drops the open frame; the image holds what it did.
        e.checkpoint_now(300);
        assert_eq!(e.wal().frame_boundaries(), [0, e.wal_bytes()]);
        assert!(matches!(
            &replay(e.wal().bytes()).records[..],
            [WalRecord::Checkpoint(_)]
        ));
        assert_eq!(read(&e, "b", 100), Some(Value::from("v2")));
        // A crash drops it along with the ops in it.
        let checkpointed = e.wal().bytes().to_vec();
        commit_put(&mut e, "c", "v3", 3, 30);
        let info = e.crash_and_recover();
        assert_eq!(info.replayed_records, 0);
        assert_eq!(read(&e, "c", 100), None);
        assert_eq!(read(&e, "b", 100), Some(Value::from("v2")));
        // The next entry seals as if nothing had been dropped.
        assert_eq!(e.wal().bytes(), &checkpointed[..]);
        commit_put(&mut e, "d", "v4", 4, 40);
        e.seal_entry(4, Timestamp::new(40, 0));
        let records = replay(e.wal().bytes()).records;
        assert!(matches!(
            &records[..],
            [WalRecord::Checkpoint(_), WalRecord::Entry { apply_index: 4, ops, .. }]
                if ops.len() == 2
        ));
    }

    #[test]
    fn crash_recovers_from_checkpoint_plus_wal() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v1", 1, 10);
        e.seal_entry(1, Timestamp::new(5, 0));
        e.sync(100);
        e.flush(100); // checkpoint: a@10 in a run
        commit_put(&mut e, "b", "v2", 2, 20);
        e.seal_entry(2, Timestamp::new(15, 0));
        e.sync(200);
        let t = txn(3, 30);
        e.put(&Key::from("c"), Some(Value::from("open")), &t)
            .unwrap();
        e.seal_entry(3, Timestamp::new(25, 0));
        e.sync(300);
        let before = e.state_image();

        let info = e.crash_and_recover();
        assert_eq!(info.applied_index, 3);
        assert!(!info.torn_tail);
        assert_eq!(e.state_image(), before);
        assert_eq!(read(&e, "a", 100), Some(Value::from("v1")));
        assert_eq!(read(&e, "b", 100), Some(Value::from("v2")));
        // The open intent survived as an intent.
        assert!(e.intent(&Key::from("c")).is_some());
        assert_eq!(e.stats().recoveries, 1);
    }

    #[test]
    fn unsynced_tail_is_lost_on_crash() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v1", 1, 10);
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(100);
        commit_put(&mut e, "b", "v2", 2, 20);
        e.seal_entry(2, Timestamp::ZERO);
        // No sync: entry 2 is volatile.
        let info = e.crash_and_recover();
        assert_eq!(info.applied_index, 1);
        assert_eq!(read(&e, "a", 100), Some(Value::from("v1")));
        assert_eq!(read(&e, "b", 100), None);
    }

    #[test]
    fn deferred_sync_loses_acked_writes() {
        let mut e = Engine::new();
        e.defer_sync = true;
        commit_put(&mut e, "a", "v1", 1, 10);
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(100); // no-op: deferred
        let info = e.crash_and_recover();
        assert_eq!(info.applied_index, 0);
        assert_eq!(read(&e, "a", 100), None);
    }

    /// Run `check` against the same writes held in the memtable and, after
    /// a flush, in a sorted run.
    fn in_memtable_and_in_run(fill: impl Fn(&mut Engine), check: impl Fn(&mut Engine, bool)) {
        for flushed in [false, true] {
            let mut e = Engine::new();
            fill(&mut e);
            if flushed {
                e.flush(0);
            }
            check(&mut e, flushed);
        }
    }

    #[test]
    fn scan_respects_snapshot_and_limit() {
        in_memtable_and_in_run(
            |e| {
                for (i, k) in ["a", "b", "c", "d"].iter().enumerate() {
                    commit_put(e, k, "v", i as u64, 10 * (i as u64 + 1));
                }
            },
            |e, _| {
                let span = Span::new(Key::from("a"), Key::from("z"));
                let rows = e
                    .scan(&span, &ReadCtx::stale(Timestamp::new(25, 0)), 100)
                    .unwrap();
                assert_eq!(rows.len(), 2); // a@10, b@20
                let rows = e
                    .scan(&span, &ReadCtx::stale(Timestamp::new(100, 0)), 3)
                    .unwrap();
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[0].0, Key::from("a"));
            },
        );
    }

    #[test]
    fn refresh_span_detects_conflicts() {
        let ts = |wall| Timestamp::new(wall, 0);
        in_memtable_and_in_run(
            |e| {
                commit_put(e, "k", "v", 1, 100);
            },
            |e, _| {
                let span = Span::new(Key::from("a"), Key::from("z"));
                // Window excluding the commit: ok.
                assert!(e.refresh_span(&span, ts(100), ts(200), TxnId(9)).is_ok());
                // Window including the commit: conflict.
                assert_eq!(
                    e.refresh_span(&span, ts(50), ts(150), TxnId(9)),
                    Err(ts(100))
                );
                // Foreign intent in window: conflict; own intent ignored.
                let t = txn(2, 120);
                e.put(&Key::from("m"), Some(Value::from("x")), &t).unwrap();
                assert!(e.refresh_span(&span, ts(110), ts(130), t.id).is_ok());
                assert_eq!(
                    e.refresh_span(&span, ts(110), ts(130), TxnId(9)),
                    Err(ts(120))
                );
            },
        );
    }

    #[test]
    fn gc_keeps_visible_version() {
        in_memtable_and_in_run(
            |e| {
                commit_put(e, "k", "v1", 1, 10);
                commit_put(e, "k", "v2", 2, 20);
                commit_put(e, "k", "v3", 3, 30);
            },
            |e, flushed| {
                let rep = e.maintain(Timestamp::new(25, 0), 0);
                // v1 dropped; v2 visible at 25; v3 above.
                assert_eq!(rep.mem_gc_removed + rep.compact_removed, 1);
                assert_eq!(rep.compacted, flushed);
                assert_eq!(read(e, "k", 25), Some(Value::from("v2")));
                assert_eq!(read(e, "k", 35), Some(Value::from("v3")));
            },
        );
    }

    #[test]
    fn gc_drops_old_tombstoned_keys() {
        in_memtable_and_in_run(
            |e| {
                commit_put(e, "k", "v1", 1, 10);
                let t = txn(2, 20);
                let out = e.put(&Key::from("k"), None, &t).unwrap();
                e.commit_intent(&Key::from("k"), t.id, out.written_ts);
            },
            |e, _| {
                e.maintain(Timestamp::new(100, 0), 0);
                assert_eq!(e.version_count(), 0);
                assert_eq!(e.key_count(), 0);
            },
        );
    }

    #[test]
    fn maintain_gc_reclaims_and_reads_below_threshold_fail() {
        let mut e = Engine::new();
        for i in 0..10u64 {
            commit_put(&mut e, "k", &format!("v{i}"), i + 1, (i + 1) * 10);
        }
        e.flush(0);
        let before = e.version_count();
        let rep = e.maintain(Timestamp::new(95, 0), 0);
        assert!(rep.compacted);
        // One version at/below 95 (v9@100 is above? no: ts 100 > 95 stays,
        // v8@90 is the newest at-or-below and stays, older 8 go).
        assert_eq!(rep.compact_removed, 8);
        assert!(e.version_count() < before);
        assert_eq!(read(&e, "k", 95), Some(Value::from("v8")));
        assert_eq!(read(&e, "k", 100), Some(Value::from("v9")));
        let err = e
            .get(&Key::from("k"), &ReadCtx::stale(Timestamp::new(50, 0)))
            .unwrap_err();
        assert!(matches!(err, MvccError::BelowGcThreshold { .. }));
    }

    #[test]
    fn split_and_absorb_partition_runs() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "va", 1, 10);
        commit_put(&mut e, "m", "vm", 2, 10);
        commit_put(&mut e, "z", "vz", 3, 10);
        e.flush(0);
        commit_put(&mut e, "a", "va2", 4, 20);
        commit_put(&mut e, "z", "vz2", 5, 20);
        let mut rhs = e.split_off(&Key::from("m"));
        assert_eq!(read(&e, "a", 100), Some(Value::from("va2")));
        assert_eq!(read(&e, "m", 100), None);
        assert_eq!(read(&rhs, "m", 100), Some(Value::from("vm")));
        assert_eq!(read(&rhs, "z", 100), Some(Value::from("vz2")));
        rhs.rebaseline(0, Timestamp::ZERO, 0);
        e.rebaseline(0, Timestamp::ZERO, 0);
        e.absorb(rhs);
        assert_eq!(read(&e, "a", 100), Some(Value::from("va2")));
        assert_eq!(read(&e, "z", 100), Some(Value::from("vz2")));
        assert_eq!(e.key_count(), 3);
    }

    fn record(status: TxnStatus, ts: u64) -> TxnRecord {
        TxnRecord {
            status,
            commit_ts: Timestamp::new(ts, 0),
            in_flight: match status {
                TxnStatus::Staging => vec![Key::from("a"), Key::from("z")],
                _ => Vec::new(),
            },
        }
    }

    #[test]
    fn txn_record_is_as_durable_as_its_entry() {
        let mut e = Engine::new();
        e.note_txn_record(TxnId(1), record(TxnStatus::Staging, 10));
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(100);
        e.note_txn_record(TxnId(2), record(TxnStatus::Committed, 20));
        e.seal_entry(2, Timestamp::ZERO);
        // No sync: entry 2, and the record it wrote, is volatile.
        assert!(e.txn_record(TxnId(2)).is_some());
        let info = e.crash_and_recover();
        assert_eq!(info.applied_index, 1);
        assert_eq!(
            e.txn_record(TxnId(1)),
            Some(&record(TxnStatus::Staging, 10))
        );
        assert_eq!(e.txn_record(TxnId(2)), None);
        // The recovery's own checkpoint carries the survivor on.
        e.crash_and_recover();
        assert_eq!(
            e.txn_record(TxnId(1)),
            Some(&record(TxnStatus::Staging, 10))
        );
    }

    #[test]
    fn split_gives_both_halves_every_record() {
        let mut e = Engine::new();
        e.note_txn_record(TxnId(1), record(TxnStatus::Staging, 10));
        e.note_txn_record(TxnId(2), record(TxnStatus::Aborted, 0));
        let rhs = e.split_off(&Key::from("m"));
        for half in [&e, &rhs] {
            assert_eq!(
                half.txn_record(TxnId(1)),
                Some(&record(TxnStatus::Staging, 10))
            );
            assert_eq!(
                half.txn_record(TxnId(2)),
                Some(&record(TxnStatus::Aborted, 0))
            );
            assert_eq!(half.txn_record(TxnId(3)), None);
        }
    }

    #[test]
    fn absorb_keeps_the_copy_further_along() {
        // A split copied the record to both halves; the anchor's half moved
        // on. Whichever side that was, the merge must not bring the stale
        // copy back (keeping the left-hand one regardless did).
        let staged = record(TxnStatus::Staging, 10);
        let restaged = record(TxnStatus::Staging, 15);
        let committed = record(TxnStatus::Committed, 15);
        for (stale, current) in [
            (&staged, &committed),
            (&staged, &restaged),
            (&restaged, &committed),
        ] {
            for anchor_on_the_right in [true, false] {
                let mut lhs = Engine::new();
                lhs.note_txn_record(TxnId(1), stale.clone());
                let mut rhs = lhs.split_off(&Key::from("m"));
                let anchor = if anchor_on_the_right {
                    &mut rhs
                } else {
                    &mut lhs
                };
                anchor.note_txn_record(TxnId(1), current.clone());
                rhs.note_txn_record(TxnId(2), staged.clone());
                lhs.absorb(rhs);
                assert_eq!(lhs.txn_record(TxnId(1)), Some(current));
                assert_eq!(lhs.txn_record(TxnId(2)), Some(&staged));
            }
        }
    }

    #[test]
    fn recovery_after_flush_does_not_duplicate() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v1", 1, 10);
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(50);
        e.flush(60);
        let before = e.state_image();
        e.crash_and_recover();
        assert_eq!(e.state_image(), before);
        assert_eq!(e.version_count(), 1);
    }

    /// Commit `n` fresh keys `{prefix}-000…` at `ts` and flush them as one run.
    fn flush_keys(e: &mut Engine, prefix: &str, n: u64, ts: u64) {
        for i in 0..n {
            commit_put(e, &format!("{prefix}-{i:03}"), "v", 1_000 * ts + i, ts);
        }
        e.flush(0);
    }

    fn delete(e: &mut Engine, key: &str, id: u64, ts: u64) {
        let t = txn(id, ts);
        let out = e.put(&Key::from(key), None, &t).unwrap();
        assert!(e.commit_intent(&Key::from(key), t.id, out.written_ts));
    }

    #[test]
    fn partial_merge_keeps_a_tombstone_over_an_older_value() {
        let mut e = Engine::new();
        // Oldest run: the value, among enough keys to sit in a larger size
        // class than the single-key runs that follow.
        commit_put(&mut e, "k", "v1", 1, 10);
        flush_keys(&mut e, "base", 64, 10);
        // The tombstone lands in a newer run; three more small runs fill
        // its tier.
        delete(&mut e, "k", 2, 20);
        e.flush(0);
        for (i, key) in ["x1", "x2", "x3"].iter().enumerate() {
            commit_put(&mut e, key, "v", 3 + i as u64, 30);
            e.flush(0);
        }
        assert_eq!(e.sst_count(), 5);
        // Threshold above value and tombstone: the four small runs merge,
        // the oldest run is not part of it, so the tombstone must survive.
        let rep = e.maintain(Timestamp::new(100, 0), 0);
        assert!(rep.compacted);
        assert_eq!(e.sst_count(), 2);
        assert_eq!((rep.compact_removed, rep.rewritten_versions), (0, 4));
        for ts in [100, 101, 1_000] {
            assert_eq!(read(&e, "k", ts), None, "deleted key resurrected at {ts}");
        }
        let span = Span::new(Key::from("k"), Key::from("l"));
        assert!(e.scan_latest_including_intents(&span).is_empty());
        // Three runs of the oldest run's class make a tier that includes it:
        // now nothing older can hide beneath the tombstone, and it goes —
        // with the value it shadowed.
        for (i, prefix) in ["g", "h", "i"].iter().enumerate() {
            flush_keys(&mut e, prefix, 64, 200 + i as u64);
        }
        let rep = e.maintain(Timestamp::new(100, 0), 0);
        assert_eq!(e.sst_count(), 1);
        assert_eq!(rep.compact_removed, 2);
        assert_eq!(read(&e, "k", 100), None);
        assert_eq!(e.key_count(), 64 * 4 + 3);
        assert_eq!(e.version_count(), 64 * 4 + 3);
    }

    #[test]
    fn partial_merge_leaves_the_floor_version_in_an_older_run() {
        for (thr, dropped) in [(30, 0), (55, 0), (60, 1)] {
            let mut e = Engine::new();
            commit_put(&mut e, "k", "v1", 1, 10);
            flush_keys(&mut e, "base", 64, 10);
            for (i, ts) in [50, 60].iter().enumerate() {
                commit_put(&mut e, "k", &format!("v{}", i + 2), 2 + i as u64, *ts);
                e.flush(0);
            }
            for (i, key) in ["x1", "x2"].iter().enumerate() {
                commit_put(&mut e, key, "v", 4 + i as u64, 70);
                e.flush(0);
            }
            // The four small runs merge; v1 — the newest version at or below
            // a threshold of 30 — sits in the oldest run, outside the merge.
            let rep = e.maintain(Timestamp::new(thr, 0), 0);
            assert_eq!(e.sst_count(), 2);
            assert_eq!(rep.compact_removed, dropped, "threshold {thr}");
            for (ts, want) in [(30, "v1"), (55, "v2"), (60, "v3"), (1_000, "v3")] {
                if ts >= thr {
                    assert_eq!(
                        read(&e, "k", ts),
                        Some(Value::from(want)),
                        "thr {thr} ts {ts}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_version_runs_survive_flush_merge_split_and_recovery() {
        let keys = ["a", "b", "c", "d", "e", "f"];
        let mut e = Engine::new();
        // Four flushed runs, each holding a new version of every key — the
        // last one deletes "f" — merge into one run of four versions a key.
        for round in 0..4u64 {
            for (i, k) in keys.iter().enumerate() {
                let (id, ts) = (10 * round + i as u64 + 1, 10 * (round + 1));
                if round == 3 && *k == "f" {
                    let t = txn(id, ts);
                    e.put(&Key::from(*k), None, &t).unwrap();
                    assert!(e.commit_intent(&Key::from(*k), t.id, t.write_ts));
                } else {
                    commit_put(&mut e, k, &format!("{k}{round}"), id, ts);
                }
            }
            e.flush(0);
        }
        assert_eq!(e.sst_count(), 4);
        assert!(e.maintain(Timestamp::ZERO, 0).compacted);
        assert_eq!((e.sst_count(), e.sst_version_count()), (1, 24));
        assert_eq!(e.runs[0].tombstones, 1);

        let mut rhs = e.split_off(&Key::from("c"));
        assert_eq!(e.sst_version_count(), 8);
        assert_eq!(rhs.sst_version_count(), 16);
        for (half, held) in [(&mut e, &keys[..2]), (&mut rhs, &keys[2..])] {
            half.rebaseline(1, Timestamp::ZERO, 0);
            let image = half.state_image();
            half.crash_and_recover();
            assert_eq!(half.state_image(), image);
            for k in held {
                for round in 0..4u64 {
                    let want = (round < 3 || *k != "f")
                        .then(|| Value::from(format!("{k}{round}").as_str()));
                    assert_eq!(read(half, k, 10 * (round + 1)), want, "{k} round {round}");
                }
            }
            assert_eq!(half.key_count(), held.len());
        }
    }

    fn bulk(keys: &[&str], ts: u64) -> Rc<SortedRun> {
        let rows = keys.iter().map(|k| (Key::from(*k), Value::from(*k)));
        Rc::new(SortedRun::bulk(rows, Timestamp::new(ts, 0)))
    }

    #[test]
    fn an_ingested_run_is_shared_and_sits_below_history() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "new", 1, 10);
        e.flush(0);
        commit_put(&mut e, "b", "new", 2, 20);
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(1);
        let run = bulk(&["a", "b", "c"], 1);
        e.ingest(Rc::clone(&run));
        assert_eq!(e.sst_count(), 2);
        assert!(
            Rc::ptr_eq(&e.runs[0], &run),
            "ingested at the oldest position"
        );
        for (key, at_5, at_50) in [("a", "a", "new"), ("b", "b", "new"), ("c", "c", "c")] {
            assert_eq!(read(&e, key, 5), Some(Value::from(at_5)));
            assert_eq!(read(&e, key, 50), Some(Value::from(at_50)));
        }
        // Nothing was logged: the run is durable as it stands.
        let before = e.state_image();
        e.crash_and_recover();
        assert_eq!(e.state_image(), before);
        // A clone holds the same run, not a copy of it.
        let twin = e.clone();
        assert!(Rc::ptr_eq(&twin.runs[0], &run));
        assert_eq!(Rc::strong_count(&run), 3);
    }

    #[test]
    fn ingesting_a_held_version_adds_nothing() {
        let mut e = Engine::new();
        // The memtable holds m@1, a run holds k@1: both came first.
        commit_put(&mut e, "k", "first", 1, 1);
        e.flush(0);
        commit_put(&mut e, "m", "first", 2, 1);
        let run = bulk(&["k", "m"], 1);
        e.ingest(Rc::clone(&run));
        assert_eq!((e.sst_count(), e.version_count()), (1, 2));
        assert_eq!(Rc::strong_count(&run), 1, "nothing of it was kept");
        // Partly held: only the rest goes in, as a private run.
        e.ingest(bulk(&["j", "k", "z"], 1));
        assert_eq!((e.sst_count(), e.version_count()), (2, 4));
        for (key, want) in [("j", "j"), ("k", "first"), ("m", "first"), ("z", "z")] {
            assert_eq!(read(&e, key, 100), Some(Value::from(want)), "{key}");
        }
        // The second of two loads of one row is a no-op.
        e.ingest(bulk(&["j"], 1));
        assert_eq!(e.version_count(), 4);
    }

    #[test]
    fn partial_merge_keeps_a_tombstone_over_an_ingested_value() {
        let mut e = Engine::new();
        let base: Vec<String> = (0..64).map(|i| format!("base-{i:03}")).collect();
        let mut keys: Vec<&str> = base.iter().map(String::as_str).collect();
        keys.push("k");
        e.ingest(bulk(&keys, 1));
        // The tombstone first waits in the memtable: a GC pass must not
        // drop it there while the ingested run below holds the value.
        delete(&mut e, "k", 2, 20);
        e.maintain(Timestamp::new(100, 0), 0);
        assert_eq!(read(&e, "k", 100), None);
        // Then in a run of its own, in a tier of four small runs that merge
        // without the ingested one.
        e.flush(0);
        for (i, key) in ["x1", "x2", "x3"].iter().enumerate() {
            commit_put(&mut e, key, "v", 3 + i as u64, 30);
            e.flush(0);
        }
        let rep = e.maintain(Timestamp::new(100, 0), 0);
        assert!(rep.compacted);
        assert_eq!(e.sst_count(), 2);
        for ts in [100, 1_000] {
            assert_eq!(read(&e, "k", ts), None, "deleted key resurrected at {ts}");
        }
        let span = Span::new(Key::from("k"), Key::from("l"));
        assert!(e.scan_latest_including_intents(&span).is_empty());
    }

    #[test]
    fn rebaseline_leaves_the_image_intents_and_records() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v", 1, 10);
        commit_put(&mut e, "b", "v", 2, 10);
        let open = txn(3, 20);
        e.put(&Key::from("c"), Some(Value::from("open")), &open)
            .unwrap();
        e.note_txn_record(open.id, record(TxnStatus::Pending, 20));
        e.rebaseline(0, Timestamp::ZERO, 0);
        assert_eq!((e.mem_version_count(), e.sst_count()), (0, 1));
        let replicas: Vec<Engine> = (0..3).map(|_| e.clone()).collect();
        for mut r in replicas {
            assert!(Rc::ptr_eq(&r.runs[0], &e.runs[0]));
            r.crash_and_recover();
            assert_eq!(read(&r, "a", 100), Some(Value::from("v")));
            assert!(r.intent(&Key::from("c")).is_some());
            assert_eq!(r.txn_record(open.id), Some(&record(TxnStatus::Pending, 20)));
        }
    }

    #[test]
    fn merging_or_splitting_a_shared_run_leaves_it_as_it_was() {
        let mut e = Engine::new();
        e.ingest(bulk(&["a", "b", "m", "y", "z"], 1));
        let witness = e.clone();
        let image = witness.state_image();
        // A split straddling the run, and a merge folding it into one tier
        // with three flushed runs.
        let rhs = e.split_off(&Key::from("m"));
        e.absorb(rhs);
        for (i, key) in ["a", "m", "z"].iter().enumerate() {
            commit_put(&mut e, key, "new", 2 + i as u64, 10 + i as u64);
            e.flush(0);
        }
        let rep = e.maintain(Timestamp::new(100, 0), 0);
        assert!(rep.compacted);
        assert_eq!(e.sst_count(), 1);
        assert_eq!(read(&e, "a", 100), Some(Value::from("new")));
        assert_eq!(read(&e, "b", 100), Some(Value::from("b")));
        assert_eq!(witness.state_image(), image);
        assert_eq!(Rc::strong_count(&witness.runs[0]), 1);
    }

    #[test]
    fn unchanged_runs_are_left_alone() {
        let mut e = Engine::new();
        flush_keys(&mut e, "base", 64, 10);
        let before = e.stats().compactions;
        for pass in 1..=5 {
            let rep = e.maintain(Timestamp::new(100 * pass, 0), 0);
            assert!(!rep.compacted && !rep.flushed);
        }
        assert_eq!(e.stats().compactions, before);
        // A few shadowed versions do not buy a rewrite of a big run either:
        // they wait for its tier.
        commit_put(&mut e, "base-000", "v2", 9_000, 600);
        commit_put(&mut e, "solo", "v", 9_001, 600);
        e.flush_min_versions = 1;
        let rep = e.maintain(Timestamp::new(700, 0), 0);
        assert!(rep.flushed && !rep.compacted);
        assert_eq!(e.sst_count(), 2);
        assert_eq!(read(&e, "base-000", 700), Some(Value::from("v2")));
    }

    #[test]
    fn scan_stops_at_the_limit() {
        let mut e = Engine::new();
        flush_keys(&mut e, "a", 50, 10);
        flush_keys(&mut e, "b", 50, 20);
        delete(&mut e, "a-000", 7_000, 30);
        commit_put(&mut e, "a-001", "new", 7_001, 30);
        let span = Span::new(Key::from("a"), Key::from("z"));
        let ctx = ReadCtx::stale(Timestamp::new(100, 0));
        assert!(e.scan(&span, &ctx, 0).unwrap().is_empty());
        let rows = e.scan(&span, &ctx, 2).unwrap();
        let keys: Vec<_> = rows.iter().map(|r| r.0.clone()).collect();
        assert_eq!(keys, [Key::from("a-001"), Key::from("a-002")]);
        assert_eq!(rows[0].1, Value::from("new"));
        assert_eq!(e.scan(&span, &ctx, usize::MAX).unwrap().len(), 99);
        assert_eq!(e.key_count(), 100);
    }

    #[test]
    fn corrupt_checkpoint_is_a_typed_recovery_error() {
        let mut e = Engine::new();
        commit_put(&mut e, "a", "v1", 1, 10);
        e.flush(0);
        commit_put(&mut e, "b", "v2", 2, 20);
        e.seal_entry(1, Timestamp::ZERO);
        e.sync(1);
        // A checkpoint record whose frame is intact but whose image is not.
        e.wal_mut().reset_to_checkpoint(&[0xff; 9], 2);
        let info = e.crash_and_recover();
        assert_eq!(info.error, Some(RecoveryError::CorruptCheckpoint));
        assert_eq!((info.applied_index, info.replayed_records), (0, 0));
        // The memtable restarted empty; the run survived.
        assert_eq!(e.mem_version_count(), 0);
        assert_eq!(read(&e, "a", 100), Some(Value::from("v1")));
        assert_eq!(read(&e, "b", 100), None);
        // The log was rewritten clean.
        assert_eq!(e.crash_and_recover().error, None);
    }

    #[test]
    fn bloom_skips_cold_runs() {
        let mut e = Engine::new();
        for i in 0..100u64 {
            commit_put(&mut e, &format!("left-{i:03}"), "v", i + 1, i + 1);
        }
        e.flush(0);
        for i in 0..100u64 {
            commit_put(&mut e, &format!("right-{i:03}"), "v", 200 + i, 200 + i);
        }
        e.flush(0);
        assert_eq!(e.sst_count(), 2);
        let before = (e.stats().run_probes.get(), e.stats().run_skips.get());
        for i in 0..100u64 {
            assert!(read(&e, &format!("right-{i:03}"), 1000).is_some());
        }
        let probes = e.stats().run_probes.get() - before.0;
        let skips = e.stats().run_skips.get() - before.1;
        // Every lookup consults both runs; the "left" run's index says
        // "absent" without an entry being read (a 16-bit fingerprint would
        // have to collide for it not to), the "right" run's never does.
        assert_eq!(probes, 200);
        assert_eq!(skips, 100);
    }

    fn run_of(keys: impl IntoIterator<Item = String>) -> SortedRun {
        let keys: std::collections::BTreeSet<String> = keys.into_iter().collect();
        let version = |k: &str| Version {
            ts: Timestamp::new(k.len() as u64, 0),
            value: Some(Value::from(k)),
        };
        let mut run = RunBuilder::with_capacity(keys.len(), keys.len());
        for k in keys {
            run.push(Key::from(k.as_str()), [version(&k)]);
        }
        run.finish()
    }

    fn lookup<'r>(run: &'r SortedRun, key: &str) -> (Option<&'r [Version]>, usize) {
        let key = Key::from(key);
        run.find(KeyHash::of(key.as_slice()), &key)
    }

    #[test]
    fn index_finds_exactly_the_keys_of_the_run() {
        for n in [1usize, 2, 3, 64, 1_000] {
            let run = run_of((0..n).map(|i| format!("key-{i:05}")));
            assert_eq!(run.index.slots.len(), n * SLOTS_PER_KEY);
            let occupied = run.index.slots.iter().filter(|s| **s != EMPTY_SLOT);
            assert_eq!(occupied.count(), n);
            for i in 0..n {
                let key = format!("key-{i:05}");
                let (found, read) = lookup(&run, &key);
                let versions = found.unwrap_or_else(|| panic!("{key} of {n} not found"));
                assert_eq!(versions[0].value, Some(Value::from(key.as_str())));
                assert!(read >= 1);
            }
            for i in 0..2 * n {
                for absent in [format!("key-{i:05}x"), format!("kez-{i:05}")] {
                    assert!(lookup(&run, &absent).0.is_none(), "{absent} of {n}");
                }
            }
        }
    }

    #[test]
    fn keys_sharing_a_probe_sequence_are_all_found() {
        // 48 keys that all start probing at one slot of the table a run of
        // 48 gets, and 48 more that share it but are left out.
        let shape = run_of((0..48).map(|i| format!("shape-{i}")));
        let home = |k: &str| shape.index.home(KeyHash::of(k.as_bytes()));
        let target = home("anchor");
        let mut colliding = (0..).map(|i| format!("c{i}")).filter(|k| home(k) == target);
        let present: Vec<String> = colliding.by_ref().take(48).collect();
        let absent: Vec<String> = colliding.take(48).collect();
        let run = run_of(present.iter().cloned());
        assert_eq!(run.index.slots.len(), shape.index.slots.len());
        // One chain: the occupied slots are contiguous (modulo wrap-around)
        // from the shared home slot.
        for step in 0..48 {
            let at = (target + step) % run.index.slots.len();
            assert_ne!(run.index.slots[at], EMPTY_SLOT, "slot {at}");
        }
        for key in &present {
            let (found, _) = lookup(&run, key);
            assert_eq!(
                found.expect("present")[0].value,
                Some(Value::from(key.as_str()))
            );
        }
        for key in &absent {
            // Walks the whole chain, and reads an entry only where the
            // fingerprint (26 bits here) collides too.
            let (found, read) = lookup(&run, key);
            assert!(found.is_none(), "{key}");
            assert_eq!(read, 0, "{key}");
        }
    }

    #[test]
    fn key_hash_spreads_keys_that_differ_in_one_byte() {
        // Sequential big-endian integers differ only in their last bytes —
        // the shape of every encoded primary key. Their home slots must
        // still spread: the longest probe sequence stays short.
        let keys: Vec<Vec<u8>> = (0u64..4_096)
            .map(|i| [b"t\0\0\0\x01\0\0\0\x01\x02".as_slice(), &i.to_be_bytes()].concat())
            .collect();
        let keys: Vec<RunKey> = (keys.iter())
            .map(|k| RunKey {
                key: Key::from_slice(k),
                start: 0,
                len: 0,
            })
            .collect();
        let index = RunIndex::build(&keys);
        let mut longest = 0;
        let mut run = 0;
        for slot in index.slots.iter().chain(index.slots.iter()) {
            run = if *slot == EMPTY_SLOT { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest <= 24, "occupied slots cluster: {longest} in a row");
    }
}
