//! Property tier: random interleavings of writes, deletes, flushes,
//! GC/compaction passes, and crash-replays preserve the merged-iterator
//! view — the engine (memtable ∪ sorted runs) reads identically to a
//! reference `BTreeMap` of version history at every visible timestamp,
//! scans stop at their limit on the right row, tiered compaction keeps the
//! engine within a stated multiple of what the reference retains, and the
//! runs' hash indexes find exactly the keys their runs hold — through
//! flushes, tiered merges and a split. Sequences are long, flushes small and
//! maintenance frequent, so most cases see partial (non-oldest) merges.
//! (The index's own unit tests — a run of one entry, keys forced into one
//! probe sequence — sit beside it in `lsm.rs`: `RunBuilder` is
//! private.)

use std::collections::BTreeMap;

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, Value};
use mr_storage::lsm::{Engine, TIER_FAN_IN};

#[derive(Clone, Debug)]
enum Op {
    /// Commit `value` (None = tombstone) on key `key_idx`; sealed + synced.
    Write { key_idx: usize, value: Option<u8> },
    /// Flush the memtable to a sorted run.
    Flush,
    /// Maintenance pass (GC + flush-if-full + compaction) at a threshold
    /// `lag` ticks behind the current write frontier.
    Maintain { lag: u64 },
    /// Crash losing all volatile state, recover from WAL + runs. Every
    /// entry is synced at seal time, so recovery must be lossless.
    CrashRecover,
    /// Lay down an intent and abort it (exercises the abort WAL path).
    WriteAbort { key_idx: usize },
}

const KEYS: usize = 10;

/// Space-amplification bound after a maintenance pass, as a multiple of
/// what a single fully merged chain per key would retain at the same
/// threshold. Runs of one size class number under `F = TIER_FAN_IN`; no run
/// is left more than a quarter reclaimable, so none exceeds 4/3 of the
/// reference; classes below the largest sum to under `F` times it: in all
/// `(F − 1 + F) × 4/3` for the runs plus 1 for the memtable, under `3 F`.
const SPACE_AMP: usize = 3 * TIER_FAN_IN;

fn write_strategy() -> impl Strategy<Value = Op> {
    (0usize..KEYS, prop::option::of(any::<u8>()))
        .prop_map(|(key_idx, value)| Op::Write { key_idx, value })
}

// The vendored `prop_oneof!` picks uniformly, so writes are listed several
// times to dominate the mix.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        write_strategy(),
        write_strategy(),
        write_strategy(),
        write_strategy(),
        write_strategy(),
        Just(Op::Flush),
        (0u64..40).prop_map(|lag| Op::Maintain { lag }),
        (0u64..40).prop_map(|lag| Op::Maintain { lag }),
        Just(Op::CrashRecover),
        (0usize..KEYS).prop_map(|key_idx| Op::WriteAbort { key_idx }),
    ]
}

fn key(i: usize) -> Key {
    Key::from(format!("pk-{i}").into_bytes())
}

/// Reference model: full version history per key, plus the highest GC
/// threshold ever applied (reads below it are out of contract).
#[derive(Default)]
struct Model {
    history: BTreeMap<Key, Vec<(Timestamp, Option<Value>)>>,
    gc_floor: Timestamp,
    /// The worst `(engine versions, reference retained)` seen right after a
    /// maintenance pass.
    worst_space: (usize, usize),
}

impl Model {
    fn visible(&self, k: &Key, at: Timestamp) -> Option<Value> {
        self.history
            .get(k)?
            .iter()
            .rev()
            .find(|(ts, _)| *ts <= at)
            .and_then(|(_, v)| v.clone())
    }

    /// The first `n` live rows at `at`, in key order.
    fn live_rows(&self, at: Timestamp, n: usize) -> Vec<(Key, Value)> {
        let live = |k: &Key| self.visible(k, at).map(|v| (k.clone(), v));
        self.history.keys().filter_map(live).take(n).collect()
    }

    /// Versions one merged chain per key retains at the GC floor: all above
    /// it plus the newest at or below.
    fn retained(&self) -> usize {
        let kept = |h: &Vec<(Timestamp, Option<Value>)>| {
            let above = h.iter().filter(|(ts, _)| *ts > self.gc_floor).count();
            above + usize::from(above < h.len())
        };
        self.history.values().map(kept).sum()
    }
}

fn run_ops(ops: &[Op]) -> (Engine, Model, u64) {
    let mut e = Engine::new();
    e.flush_min_versions = 4; // small, so maintenance flushes often
    let mut model = Model::default();
    let mut tick = 0u64; // strictly increasing logical time
    let mut idx = 0u64; // raft apply index
    let mut txn_seq = 1_000u64;

    for op in ops {
        tick += 10;
        match op {
            Op::Write { key_idx, value } => {
                txn_seq += 1;
                idx += 1;
                let k = key(*key_idx);
                let val = value.map(|b| Value::from(format!("v{b}").as_str()));
                let txn = TxnMeta::new(TxnId(txn_seq), k.clone(), Timestamp::new(tick, 0));
                let out = e.put(&k, val.clone(), &txn).expect("no open intents");
                assert!(e.commit_intent(&k, txn.id, out.written_ts));
                e.seal_entry(idx, Timestamp::ZERO);
                e.sync(tick);
                model
                    .history
                    .entry(k)
                    .or_default()
                    .push((out.written_ts, val));
            }
            Op::Flush => {
                e.flush(tick);
            }
            Op::Maintain { lag } => {
                let thr = Timestamp::new(tick.saturating_sub(lag * 10), 0);
                e.maintain(thr, tick);
                model.gc_floor = model.gc_floor.max(e.gc_threshold());
                let (have, want) = (e.version_count(), model.retained());
                let (worst_have, worst_want) = model.worst_space;
                if have * worst_want.max(1) > worst_have * want.max(1) {
                    model.worst_space = (have, want);
                }
            }
            Op::CrashRecover => {
                let info = e.crash_and_recover();
                assert_eq!(info.applied_index, idx, "synced entries must all replay");
            }
            Op::WriteAbort { key_idx } => {
                txn_seq += 1;
                idx += 1;
                let k = key(*key_idx);
                let txn = TxnMeta::new(TxnId(txn_seq), k.clone(), Timestamp::new(tick, 0));
                e.put(&k, Some(Value::from("doomed")), &txn)
                    .expect("no open intents");
                assert!(e.abort_intent(&k, txn.id));
                e.seal_entry(idx, Timestamp::ZERO);
                e.sync(tick);
                // Aborted writes leave no trace in the model.
            }
        }
    }
    (e, model, tick)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The merged engine view equals the reference at every timestamp that
    /// is at or above the GC floor.
    #[test]
    fn merged_view_matches_reference(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let (e, model, last_tick) = run_ops(&ops);

        // Probe at every version timestamp, just after it, and far future.
        let mut probes: Vec<Timestamp> = model
            .history
            .values()
            .flatten()
            .map(|(ts, _)| *ts)
            .collect();
        probes.extend(probes.clone().iter().map(|t| t.next()));
        probes.push(Timestamp::new(last_tick + 1_000, 0));

        for at in probes {
            if at < e.gc_threshold() {
                continue; // below the floor, reads are out of contract
            }
            prop_assert!(at >= model.gc_floor);
            let ctx = ReadCtx::stale(at);
            for i in 0..KEYS {
                let k = key(i);
                let got = e.get(&k, &ctx).expect("read at/above floor").value;
                let want = model.visible(&k, at);
                prop_assert_eq!(
                    got, want,
                    "key {:?} at {:?} diverged (gc floor {:?})", k, at, e.gc_threshold()
                );
            }
        }

        // Scans agree with point reads at the newest probe.
        let at = Timestamp::new(last_tick + 1_000, 0);
        let span = Span::new(Key::from("pk-"), Key::from("pk-~"));
        let rows = e.scan(&span, &ReadCtx::stale(at), 100).unwrap();
        let got: Vec<(Key, Value)> = rows.into_iter().map(|(k, v, _)| (k, v)).collect();
        prop_assert_eq!(got, model.live_rows(at, 100));
    }

    /// A limited scan returns exactly the first `n` live rows of the
    /// reference, at the newest timestamp and at the GC floor.
    #[test]
    fn scan_stops_at_the_nth_live_row(
        ops in prop::collection::vec(op_strategy(), 1..200),
        n in 0usize..KEYS + 2,
    ) {
        let (e, model, last_tick) = run_ops(&ops);
        let span = Span::new(Key::from("pk-"), Key::from("pk-~"));
        for at in [Timestamp::new(last_tick + 1_000, 0), e.gc_threshold()] {
            let rows = e.scan(&span, &ReadCtx::stale(at), n).unwrap();
            let got: Vec<(Key, Value)> = rows.into_iter().map(|(k, v, _)| (k, v)).collect();
            prop_assert_eq!(got, model.live_rows(at, n), "limit {} at {:?}", n, at);
        }
    }

    /// After every maintenance pass the engine holds at most `SPACE_AMP`
    /// times the versions the reference retains at the same threshold.
    #[test]
    fn space_amplification_is_bounded(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let (_, model, _) = run_ops(&ops);
        let (have, want) = model.worst_space;
        prop_assert!(
            have <= SPACE_AMP * want.max(1),
            "engine holds {} versions, the reference retains {}", have, want
        );
    }

    /// Reads below the GC threshold always fail loudly, never return
    /// silently incomplete data.
    #[test]
    fn reads_below_threshold_error(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let (e, _, _) = run_ops(&ops);
        let thr = e.gc_threshold();
        if thr > Timestamp::ZERO {
            let below = Timestamp::new(thr.wall.saturating_sub(1), 0);
            let err = e.get(&key(0), &ReadCtx::stale(below)).unwrap_err();
            let is_gc_error =
                matches!(err, mr_storage::MvccError::BelowGcThreshold { .. });
            prop_assert!(is_gc_error, "expected BelowGcThreshold, got {:?}", err);
        }
    }

    /// The runs' indexes find exactly the keys the runs hold, whatever
    /// flushes and merges shaped them and on both sides of a split: every
    /// key is read back with the reference's value at every version (an index
    /// that missed a run would lose the versions only that run holds), and
    /// a key the engine never saw is absent from every run — answered by
    /// the indexes alone, each run consulted once.
    #[test]
    fn index_finds_exactly_the_runs_keys(
        ops in prop::collection::vec(op_strategy(), 1..80),
        split_at in 0usize..KEYS,
    ) {
        let (mut lhs, model, last_tick) = run_ops(&ops);
        let rhs = lhs.split_off(&key(split_at));
        let mut probes: Vec<Timestamp> =
            model.history.values().flatten().map(|(ts, _)| *ts).collect();
        probes.push(Timestamp::new(last_tick + 1_000, 0));
        probes.retain(|at| *at >= lhs.gc_threshold());
        for i in 0..KEYS {
            let k = key(i);
            // `pk-3` sorts before `pk-5`: single digits, so key order is
            // index order.
            let (home, other) = if i < split_at { (&lhs, &rhs) } else { (&rhs, &lhs) };
            for at in &probes {
                let got = home.get(&k, &ReadCtx::stale(*at)).unwrap().value;
                prop_assert_eq!(got, model.visible(&k, *at), "key {:?} at {:?}", k, at);
            }
            // (A key whose newest version is an old tombstone may be gone.)
            if model.visible(&k, probes[probes.len() - 1]).is_some() {
                prop_assert!(home.latest_committed_ts(&k).is_some());
            }
            prop_assert_eq!(other.latest_committed_ts(&k), None, "{:?} crossed the split", k);
        }
        for e in [&lhs, &rhs] {
            let stats = e.stats();
            let before = (stats.run_probes.get(), stats.run_skips.get());
            let never_written = Key::from(format!("pk-{}-absent", split_at).into_bytes());
            prop_assert_eq!(e.latest_committed_ts(&never_written), None);
            let runs = e.sst_count() as u64;
            prop_assert_eq!(stats.run_probes.get() - before.0, runs);
            prop_assert_eq!(stats.run_skips.get() - before.1, runs);
        }
    }
}
