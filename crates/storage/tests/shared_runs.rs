//! Property tier for shared runs: several engines start from one image —
//! a bulk load's run every one of them ingested, or one rebaselined engine
//! they were cloned from, the way a range's replicas are installed — and
//! then each goes its own way under random writes, aborts, flushes, GC and
//! compaction passes (tier merges and lone rewrites that consume the shared
//! run), split-and-absorb surgery and crash-replays. Every engine must read
//! exactly like its own reference history, and an untouched holder of the
//! image must find it byte for byte as it was: a merge or split that wrote
//! into a run another engine shares would break both.

use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_proto::{Key, ReadCtx, Span, TxnId, TxnMeta, Value};
use mr_storage::lsm::{Engine, SortedRun};

const KEYS: usize = 8;
const ENGINES: usize = 3;

#[derive(Clone, Debug)]
enum Op {
    /// Commit `value` (None = tombstone) on key `key_idx`; sealed + synced.
    Write {
        key_idx: usize,
        value: Option<u8>,
    },
    /// Lay down an intent and abort it.
    WriteAbort {
        key_idx: usize,
    },
    Flush,
    /// Maintenance pass at a threshold `lag` ticks behind the frontier.
    Maintain {
        lag: u64,
    },
    /// Split at `key_idx`, rebaseline both halves, absorb the right one back.
    SplitAbsorb {
        key_idx: usize,
    },
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let write = || {
        (0usize..KEYS, prop::option::of(any::<u8>()))
            .prop_map(|(key_idx, value)| Op::Write { key_idx, value })
    };
    prop_oneof![
        write(),
        write(),
        write(),
        write(),
        (0usize..KEYS).prop_map(|key_idx| Op::WriteAbort { key_idx }),
        Just(Op::Flush),
        (0u64..30).prop_map(|lag| Op::Maintain { lag }),
        (0u64..30).prop_map(|lag| Op::Maintain { lag }),
        (1usize..KEYS).prop_map(|key_idx| Op::SplitAbsorb { key_idx }),
        Just(Op::CrashRecover),
    ]
}

/// An op and the engine it is applied to.
fn step_strategy() -> impl Strategy<Value = (usize, Op)> {
    (0usize..ENGINES, op_strategy())
}

fn key(i: usize) -> Key {
    Key::from(format!("pk-{i}").as_str())
}

fn value(b: u8) -> Value {
    Value::from(format!("v{b}").as_str())
}

type History = BTreeMap<Key, Vec<(Timestamp, Option<Value>)>>;

fn visible(h: &History, k: &Key, at: Timestamp) -> Option<Value> {
    let (_, v) = h.get(k)?.iter().rev().find(|(ts, _)| *ts <= at)?;
    v.clone()
}

/// One engine under test, its reference history, and its Raft apply index.
struct Replica {
    engine: Engine,
    history: History,
    applied: u64,
}

/// The image every engine starts from: `rebaselined`, a seed engine with
/// `seed` committed writes (keys overwritten, so its run has shadowed
/// versions a lone rewrite can reclaim), rebaselined, that every engine is
/// cloned from; otherwise a bulk load of `seed`'s keys, one run that every
/// engine ingests. Returns one engine built that way, the image's history,
/// and the ingested run.
fn image(rebaselined: bool, seed: &[(usize, u8)]) -> (Engine, History, Option<Rc<SortedRun>>) {
    let mut history = History::new();
    let mut engine = Engine::new();
    let mut run = None;
    if rebaselined {
        for (i, &(key_idx, b)) in seed.iter().enumerate() {
            let (k, ts) = (key(key_idx), Timestamp::new(10 + i as u64, 0));
            let txn = TxnMeta::new(TxnId(i as u64 + 1), k.clone(), ts);
            let out = engine.put(&k, Some(value(b)), &txn).unwrap();
            assert!(engine.commit_intent(&k, txn.id, out.written_ts));
            history
                .entry(k)
                .or_default()
                .push((out.written_ts, Some(value(b))));
        }
        engine.seal_entry(1, Timestamp::ZERO);
        engine.rebaseline(1, Timestamp::ZERO, 0);
    } else {
        let ts = Timestamp::new(1, 0);
        let rows: BTreeMap<Key, Value> = seed.iter().map(|&(i, b)| (key(i), value(b))).collect();
        for (k, v) in &rows {
            history.insert(k.clone(), vec![(ts, Some(v.clone()))]);
        }
        let bulk = Rc::new(SortedRun::bulk(rows, ts));
        engine.ingest(Rc::clone(&bulk));
        run = Some(bulk);
    }
    (engine, history, run)
}

fn apply(r: &mut Replica, op: &Op, tick: u64, txn_seq: u64) {
    let e = &mut r.engine;
    match *op {
        Op::Write { key_idx, value: v } => {
            r.applied += 1;
            let (k, v) = (key(key_idx), v.map(value));
            let txn = TxnMeta::new(TxnId(txn_seq), k.clone(), Timestamp::new(tick, 0));
            let out = e.put(&k, v.clone(), &txn).expect("no open intents");
            assert!(e.commit_intent(&k, txn.id, out.written_ts));
            e.seal_entry(r.applied, Timestamp::ZERO);
            e.sync(tick);
            r.history.entry(k).or_default().push((out.written_ts, v));
        }
        Op::WriteAbort { key_idx } => {
            r.applied += 1;
            let k = key(key_idx);
            let txn = TxnMeta::new(TxnId(txn_seq), k.clone(), Timestamp::new(tick, 0));
            e.put(&k, Some(Value::from("doomed")), &txn)
                .expect("no open intents");
            assert!(e.abort_intent(&k, txn.id));
            e.seal_entry(r.applied, Timestamp::ZERO);
            e.sync(tick);
        }
        Op::Flush => {
            e.flush(tick);
        }
        Op::Maintain { lag } => {
            e.maintain(Timestamp::new(tick.saturating_sub(lag * 10), 0), tick);
        }
        Op::SplitAbsorb { key_idx } => {
            let (applied, closed) = (e.applied_index(), e.closed_ts());
            let mut rhs = e.split_off(&key(key_idx));
            rhs.rebaseline(applied, closed, tick);
            e.rebaseline(applied, closed, tick);
            e.absorb(rhs);
            e.rebaseline(applied, closed, tick);
        }
        Op::CrashRecover => {
            let info = e.crash_and_recover();
            assert_eq!(info.applied_index, r.applied, "synced entries must replay");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn engines_sharing_an_image_stay_isolated(
        rebaselined in any::<bool>(),
        seed in prop::collection::vec((0usize..KEYS, any::<u8>()), 1..24),
        steps in prop::collection::vec(step_strategy(), 1..240),
    ) {
        // The witness holds the image and is never touched.
        let (witness, history, run) = image(rebaselined, &seed);
        let before = witness.state_image();
        let mut replicas: Vec<Replica> = (0..ENGINES)
            .map(|_| {
                let mut engine = match &run {
                    Some(run) => {
                        let mut e = Engine::new();
                        e.ingest(Rc::clone(run));
                        e
                    }
                    None => witness.clone(),
                };
                engine.flush_min_versions = 2;
                Replica { engine, history: history.clone(), applied: witness.applied_index() }
            })
            .collect();
        let mut tick = 100;
        for (i, (at, op)) in steps.iter().enumerate() {
            tick += 10;
            apply(&mut replicas[*at], op, tick, 1_000 + i as u64);
        }

        prop_assert!(witness.state_image() == before, "the shared image changed");
        let newest = Timestamp::new(tick + 1_000, 0);
        for (n, r) in replicas.iter().enumerate() {
            let e = &r.engine;
            let mut probes: Vec<Timestamp> =
                r.history.values().flatten().map(|(ts, _)| *ts).collect();
            probes.extend(probes.clone().iter().map(|t| t.next()));
            probes.push(newest);
            probes.retain(|at| *at >= e.gc_threshold());
            for at in probes {
                for i in 0..KEYS {
                    let k = key(i);
                    let got = e.get(&k, &ReadCtx::stale(at)).expect("at or above the floor");
                    prop_assert_eq!(
                        got.value, visible(&r.history, &k, at),
                        "engine {} key {:?} at {:?}", n, k, at
                    );
                }
            }
            let span = Span::new(Key::from("pk-"), Key::from("pk-~"));
            let rows = e.scan(&span, &ReadCtx::stale(newest), KEYS).unwrap();
            let live: Vec<Key> = r
                .history
                .keys()
                .filter(|k| visible(&r.history, k, newest).is_some())
                .cloned()
                .collect();
            let got: Vec<Key> = rows.into_iter().map(|(k, _, _)| k).collect();
            prop_assert_eq!(got, live, "engine {} scan", n);
        }
    }
}
