//! Property test: commits arrive in any timestamp order — most above the
//! key's newest version, many below it, some repeating a `(key, ts)` already
//! held (a replayed resolve) — and at every timestamp the engine reads what
//! a sorted reference holds, wherever the versions live: memtable, flushed
//! runs, tier merges (which restore the order of a key whose sources
//! disagree), both halves of a split and the range merged back, a fresh
//! checkpoint, and crash recovery from checkpoint plus WAL.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, Value};
use mr_storage::{Engine, MvccError};

const KEYS: u8 = 6;
/// Commit timestamps are walls in `1..=MAX_TS`; reads cover `0..=MAX_TS + 1`.
const MAX_TS: u64 = 40;
/// Width of the uncertainty window of the fresh reads checked.
const UNCERTAIN: u64 = 3;

#[derive(Clone, Debug)]
enum Op {
    /// Lay an intent on `key` and commit it at wall `ts`, whatever the key
    /// already holds.
    Commit {
        key: u8,
        ts: u64,
    },
    Flush,
    /// Maintenance at GC threshold zero: flushes a full memtable and merges
    /// run tiers, reclaiming nothing (a raised threshold would forbid
    /// commits below it).
    Maintain,
    /// Split at `key`, check both halves, merge them back.
    Split {
        key: u8,
    },
    Checkpoint,
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let commit = || (0..KEYS, 1..=MAX_TS).prop_map(|(key, ts)| Op::Commit { key, ts });
    prop_oneof![
        commit(),
        commit(),
        commit(),
        commit(),
        commit(),
        Just(Op::Flush),
        Just(Op::Maintain),
        (1..KEYS).prop_map(|key| Op::Split { key }),
        Just(Op::Checkpoint),
        Just(Op::CrashRecover),
    ]
}

fn key(k: u8) -> Key {
    Key::from_vec(vec![b'k', k])
}

fn ts(wall: u64) -> Timestamp {
    Timestamp::new(wall, 0)
}

/// What `(key, ts)` holds: a function of the pair, since one `(key, ts)`
/// only ever carries one value. Every fifth is a tombstone.
fn value(k: u8, wall: u64) -> Option<Value> {
    (!(u64::from(k) * 7 + wall).is_multiple_of(5)).then(|| Value::from_vec(vec![k, wall as u8]))
}

/// The sorted reference: every committed `(key, ts)`.
type Reference = BTreeMap<Key, BTreeMap<Timestamp, Option<Value>>>;

/// Reads of the keys `keys` on `e` at every timestamp — a snapshot read, a
/// fresh read with an uncertainty window and a refresh of each key's span —
/// against `want`.
fn check(e: &Engine, want: &Reference, keys: impl Iterator<Item = u8> + Clone) {
    let empty = BTreeMap::new();
    for read in 0..=MAX_TS + 1 {
        for k in keys.clone() {
            let k = key(k);
            let history = want.get(&k).unwrap_or(&empty);
            let visible = history.range(..=ts(read)).next_back();
            let got = e.get(&k, &ReadCtx::stale(ts(read))).expect("no intents");
            assert_eq!(
                got.value,
                visible.and_then(|(_, v)| v.clone()),
                "{k:?}@{read}"
            );
            assert_eq!(got.value_ts, visible.map_or(Timestamp::ZERO, |(t, _)| *t));

            let window = ts(read + 1)..=ts(read + UNCERTAIN);
            let uncertain = history.range(window).next().map(|(t, _)| *t);
            let fresh = e.get(&k, &ReadCtx::fresh(ts(read), ts(read + UNCERTAIN)));
            match (fresh, uncertain) {
                (Err(MvccError::Uncertainty { value_ts, .. }), Some(t)) => assert_eq!(value_ts, t),
                (Ok(r), None) => assert_eq!(r.value_ts, got.value_ts),
                (other, t) => panic!("{k:?}@{read}: {other:?}, want uncertain at {t:?}"),
            }
            let span = Span::new(k.clone(), k.next());
            let refresh = e.refresh_span(&span, ts(read), ts(read + UNCERTAIN), TxnId(0));
            assert_eq!(refresh.err(), uncertain, "refresh of {k:?} from {read}");
        }
        let live: Vec<(Key, Value)> = keys
            .clone()
            .map(key)
            .filter_map(|k| {
                let history = want.get(&k)?;
                let (_, v) = history.range(..=ts(read)).next_back()?;
                Some((k, v.clone()?))
            })
            .collect();
        let first = key(keys.clone().next().expect("keys"));
        let span = Span::new(first, Key::from_vec(vec![b'k', u8::MAX]));
        let scanned = e
            .scan(&span, &ReadCtx::stale(ts(read)), usize::MAX)
            .unwrap();
        let scanned: Vec<(Key, Value)> = scanned.into_iter().map(|(k, v, _)| (k, v)).collect();
        assert_eq!(scanned, live, "scan at {read}");
    }
    for k in keys {
        let newest = want
            .get(&key(k))
            .and_then(|h| h.keys().next_back().copied());
        assert_eq!(e.latest_committed_ts(&key(k)), newest, "newest of {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn reads_match_a_sorted_reference_in_any_commit_order(
        ops in prop::collection::vec(op_strategy(), 1..80)
    ) {
        let mut e = Engine::new();
        e.flush_min_versions = 4;
        let mut want = Reference::new();
        let mut idx = 0u64;
        for (step, op) in ops.iter().enumerate() {
            let now = step as u64 + 1;
            match *op {
                Op::Commit { key: k, ts: wall } => {
                    idx += 1;
                    let txn = TxnMeta::new(TxnId(idx), key(k), ts(wall));
                    e.put(&key(k), value(k, wall), &txn).expect("no open intents");
                    prop_assert!(e.commit_intent(&key(k), txn.id, ts(wall)));
                    e.seal_entry(idx, Timestamp::ZERO);
                    e.sync(now);
                    want.entry(key(k)).or_default().insert(ts(wall), value(k, wall));
                }
                Op::Flush => {
                    e.flush(now);
                }
                Op::Maintain => {
                    e.maintain(Timestamp::ZERO, now);
                }
                Op::Split { key: at } => {
                    let mut rhs = e.split_off(&key(at));
                    e.rebaseline(idx, Timestamp::ZERO, now);
                    rhs.rebaseline(idx, Timestamp::ZERO, now);
                    check(&e, &want, 0..at);
                    check(&rhs, &want, at..KEYS);
                    e.absorb(rhs);
                    e.rebaseline(idx, Timestamp::ZERO, now);
                }
                Op::Checkpoint => e.checkpoint_now(now),
                Op::CrashRecover => {
                    let info = e.crash_and_recover();
                    prop_assert_eq!(info.applied_index, idx);
                }
            }
            check(&e, &want, 0..KEYS);
        }
        let versions: usize = want.values().map(|h| h.len()).sum();
        prop_assert!(e.version_count() >= versions, "a version went missing");
    }
}
