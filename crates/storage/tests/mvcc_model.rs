//! Model-based property test: the storage engine's MVCC rules against a
//! naive reference implementation, under randomized operation sequences
//! that also move versions across the memtable→run boundary (flushes and
//! compactions), so every rule is checked wherever the versions live.

use std::collections::HashMap;

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, TxnId, TxnMeta, Value};
use mr_storage::Engine;

/// Reference model: per key, committed versions plus at most one intent.
/// Intent timestamps keep the full (wall, logical) pair — the engine bumps
/// by logical component when walls collide.
#[derive(Default)]
struct Model {
    committed: HashMap<u8, Vec<(u64, Option<u8>)>>,
    intents: HashMap<u8, (u64 /*txn*/, Timestamp, Option<u8>)>,
}

#[derive(Clone, Debug)]
enum OpKind {
    Put {
        key: u8,
        txn: u64,
        ts: u64,
        value: Option<u8>,
    },
    Commit {
        key: u8,
        txn: u64,
        commit_ts: u64,
    },
    Abort {
        key: u8,
        txn: u64,
    },
    Get {
        key: u8,
        ts: u64,
    },
    /// Move every committed version into a new sorted run.
    Flush,
    /// Maintenance pass at GC threshold zero: flush a full memtable and
    /// merge the runs, reclaiming nothing. (This model commits at arbitrary
    /// timestamps, which a raised threshold forbids; GC itself is covered by
    /// `lsm_prop.rs` and the engine's unit tests.)
    Maintain,
}

fn key(k: u8) -> Key {
    Key::from_vec(vec![k])
}

fn val(v: u8) -> Value {
    Value::from_vec(vec![v])
}

fn op_strategy() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        (0u8..4, 1u64..6, 1u64..1000, prop::option::of(0u8..250)).prop_map(
            |(key, txn, ts, value)| OpKind::Put {
                key,
                txn,
                ts,
                value
            }
        ),
        (0u8..4, 1u64..6, 1u64..1000).prop_map(|(key, txn, commit_ts)| OpKind::Commit {
            key,
            txn,
            commit_ts
        }),
        (0u8..4, 1u64..6).prop_map(|(key, txn)| OpKind::Abort { key, txn }),
        (0u8..4, 1u64..1200).prop_map(|(key, ts)| OpKind::Get { key, ts }),
        Just(OpKind::Flush),
        Just(OpKind::Maintain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

    #[test]
    fn engine_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..60)) {
        let mut store = Engine::new();
        store.flush_min_versions = 4; // small, so maintenance flushes too
        let mut model = Model::default();

        for op in ops {
            match op {
                OpKind::Put { key: k, txn, ts, value } => {
                    // Model: reject if another txn holds the intent;
                    // otherwise intent at max(ts, latest_committed+1).
                    let blocked = model
                        .intents
                        .get(&k)
                        .is_some_and(|(holder, _, _)| *holder != txn);
                    let meta = TxnMeta::new(TxnId(txn), key(k), Timestamp::new(ts, 0));
                    let got = store.put(&key(k), value.map(val), &meta);
                    if blocked {
                        prop_assert!(got.is_err(), "engine accepted a blocked put");
                        continue;
                    }
                    let out = got.expect("unblocked put must succeed");
                    // Forwarded just above the newest committed version at
                    // or above the requested timestamp — in the memtable or
                    // in a run — and flagged write-too-old; else untouched.
                    let floor = model
                        .committed
                        .get(&k)
                        .and_then(|v| v.iter().map(|(t, _)| *t).max())
                        .unwrap_or(0);
                    let expect_ts = if floor >= ts {
                        Timestamp::new(floor, 0).next()
                    } else {
                        Timestamp::new(ts, 0)
                    };
                    prop_assert_eq!(out.written_ts, expect_ts);
                    prop_assert_eq!(out.write_too_old, floor >= ts);
                    model.intents.insert(k, (txn, out.written_ts, value));
                }
                OpKind::Commit { key: k, txn, commit_ts } => {
                    // MVCC forbids two commits at one timestamp on one key
                    // (the coordinator never produces them): out of contract.
                    let taken = model
                        .committed
                        .get(&k)
                        .is_some_and(|v| v.iter().any(|(t, _)| *t == commit_ts));
                    if taken {
                        continue;
                    }
                    let had = model
                        .intents
                        .get(&k)
                        .is_some_and(|(holder, _, _)| *holder == txn);
                    let did = store.commit_intent(&key(k), TxnId(txn), Timestamp::new(commit_ts, 0));
                    prop_assert_eq!(did, had, "commit applicability mismatch");
                    if had {
                        let (_, _, v) = model.intents.remove(&k).unwrap();
                        model.committed.entry(k).or_default().push((commit_ts, v));
                    }
                }
                OpKind::Abort { key: k, txn } => {
                    let had = model
                        .intents
                        .get(&k)
                        .is_some_and(|(holder, _, _)| *holder == txn);
                    let did = store.abort_intent(&key(k), TxnId(txn));
                    prop_assert_eq!(did, had, "abort applicability mismatch");
                    if had {
                        model.intents.remove(&k);
                    }
                }
                OpKind::Get { key: k, ts } => {
                    let rts = Timestamp::new(ts, 0);
                    let got = store.get(&key(k), &ReadCtx::stale(rts));
                    // Model: blocked iff a foreign intent sits at or below
                    // the read timestamp... (stale reads have no txn, so any
                    // intent at or below ts blocks).
                    let blocked = model
                        .intents
                        .get(&k)
                        .is_some_and(|(_, its, _)| *its <= rts);
                    if blocked {
                        prop_assert!(got.is_err(), "engine served a read through an intent");
                        continue;
                    }
                    let out = got.expect("unblocked read must succeed");
                    // Expected: value of the committed version with the
                    // largest ts <= read ts.
                    let expect = model
                        .committed
                        .get(&k)
                        .and_then(|versions| {
                            versions
                                .iter()
                                .filter(|(t, _)| *t <= ts)
                                .max_by_key(|(t, _)| *t)
                                .map(|(_, v)| *v)
                        })
                        .flatten();
                    prop_assert_eq!(
                        out.value.as_ref().map(|v| v.as_slice()[0]),
                        expect,
                        "visible value mismatch at ts {}", ts
                    );
                }
                OpKind::Flush => {
                    store.flush(0);
                }
                OpKind::Maintain => {
                    let rep = store.maintain(Timestamp::ZERO, 0);
                    prop_assert_eq!(rep.mem_gc_removed + rep.compact_removed, 0);
                }
            }
        }
    }
}
