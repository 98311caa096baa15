//! Property tests for range split/merge/rebalance interleavings.
//!
//! Each case drives a random interleaving of admin splits, admin merges,
//! writes, and cross-region reads — deliberately *without* quiescing
//! between steps, so descriptor surgery races in-flight transactions and
//! the lifecycle controller's periodic tick (rebalancing enabled with a
//! low QPS floor). A transaction opened before the first step keeps
//! intents on both edges of the keyspace across every reshape and must
//! still commit at the end.
//!
//! Invariants checked at quiescence, whatever the interleaving:
//!
//! * **Tiling** — the live range descriptors partition the keyspace:
//!   sorted by start key they begin at `Key::MIN`, each start equals the
//!   previous end, and the last end is unbounded. No gaps, no overlaps.
//! * **Durability** — every key's visible value is the one written by
//!   the successful write with the greatest commit timestamp; no write
//!   is lost or resurrected by a split or merge.
//! * **Intent carryover** — the long-lived straddling transaction
//!   commits and both its intents survive as visible values.
//! * **Merge-after-split idempotence** — merging left-to-right until one
//!   range remains restores `Span::all()` with the union of the data.

use std::cell::RefCell;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ClusterConfig, LifecycleConfig, ReadOptions};
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_proto::{Key, Span, Value};
use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};
use proptest::collection::vec;
use proptest::prelude::*;

/// Keys the random writes target.
const DATA_KEYS: [&str; 8] = ["a1", "c1", "f1", "j1", "n1", "r1", "v1", "y1"];
/// Candidate split points, interleaved between the data keys.
const SPLIT_KEYS: [&str; 7] = ["b", "e", "h", "l", "p", "t", "x"];
/// Keys of the long-lived straddling transaction (never written by the
/// random ops, so nothing contends with its intents).
const STRADDLE_LO: &str = "a0";
const STRADDLE_HI: &str = "z9";

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Propose an admin split at `SPLIT_KEYS[i]` (no-op on an existing
    /// boundary).
    Split(usize),
    /// Propose merging the range containing `DATA_KEYS[i]` with its right
    /// neighbor (no-op at the keyspace edge or mid-surgery).
    Merge(usize),
    /// Start an asynchronous single-key write from the home region and let
    /// it race whatever comes next.
    Write(usize),
    /// Fire a fresh read from region `r % 5` — cross-region traffic the
    /// load-based rebalancer can react to.
    ReadFrom(u32),
    /// Drain everything in flight.
    Settle,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPLIT_KEYS.len()).prop_map(Op::Split),
        (0..DATA_KEYS.len()).prop_map(Op::Merge),
        // Writes listed twice: the interleavings should be write-heavy so
        // surgery keeps racing live transactions.
        (0..DATA_KEYS.len()).prop_map(Op::Write),
        (0..DATA_KEYS.len()).prop_map(Op::Write),
        (0..5u32).prop_map(Op::ReadFrom),
        Just(Op::Settle),
    ]
}

struct WriteProbe {
    key: usize,
    value: String,
    result: Rc<RefCell<Option<Result<Timestamp, String>>>>,
}

fn async_write(c: &mut Cluster, gateway: NodeId, key: &str, value: &str) -> WriteProbe {
    let result: Rc<RefCell<Option<Result<Timestamp, String>>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    let h = c.txn_begin(gateway);
    c.txn_put(
        h,
        Key::from(key),
        Some(Value::from(value)),
        Box::new(move |c, res| match res {
            Ok(()) => c.txn_commit(
                h,
                Box::new(move |_c, res| {
                    *r2.borrow_mut() = Some(res.map_err(|e| format!("{e:?}")));
                }),
            ),
            Err(e) => c.txn_rollback(
                h,
                Box::new(move |_c, _| {
                    *r2.borrow_mut() = Some(Err(format!("{e:?}")));
                }),
            ),
        }),
    );
    WriteProbe {
        key: 0,
        value: value.to_string(),
        result,
    }
}

fn read_value(c: &mut Cluster, gateway: NodeId, key: &str) -> Option<Value> {
    let result: Rc<RefCell<Option<Option<Value>>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    c.read(
        gateway,
        Key::from(key),
        ReadOptions::default(),
        Box::new(move |_c, res| {
            *r2.borrow_mut() = Some(res.expect("quiesced read must succeed"));
        }),
    );
    c.run_until_quiescent(deadline(c));
    let v = result.borrow_mut().take().expect("read completed");
    v
}

fn deadline(c: &Cluster) -> SimTime {
    SimTime(c.now().0 + SimDuration::from_secs(600).nanos())
}

fn advance(c: &mut Cluster, ms: u64) {
    let t = SimTime(c.now().0 + SimDuration::from_millis(ms).nanos());
    c.run_until(t);
}

/// Assert the live descriptors tile the whole keyspace with no gap or
/// overlap.
fn assert_tiling(c: &Cluster) {
    let mut spans: Vec<Span> = c.registry().iter().map(|d| d.span.clone()).collect();
    spans.sort_by(|a, b| a.start.cmp(&b.start));
    assert!(!spans.is_empty());
    assert!(
        spans[0].start.is_empty(),
        "keyspace must start at Key::MIN: {spans:?}"
    );
    for w in spans.windows(2) {
        assert!(
            !w[0].end.is_empty() && w[0].end == w[1].start,
            "gap or overlap between {:?} and {:?}",
            w[0],
            w[1]
        );
    }
    assert!(
        spans.last().unwrap().end.is_empty(),
        "keyspace must end unbounded: {spans:?}"
    );
}

fn run_case(ops: &[Op]) {
    let topo = Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    );
    let cfg = ClusterConfig {
        lifecycle: LifecycleConfig {
            enabled: true,
            // Low floor so the cross-region reads can trigger lease
            // rebalancing mid-interleaving.
            rebalance_min_qps_milli: 500,
            ..LifecycleConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(topo, cfg);
    let home = RegionId(0);
    let regions: Vec<RegionId> = (0..5).map(RegionId).collect();
    let zc = derive_zone_config(
        home,
        &regions,
        SurvivalGoal::Region,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let gw = NodeId(0);

    // Open the straddling transaction: intents at both edges of the
    // keyspace, held across every split and merge the ops produce.
    let straddle_done: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    let h = c.txn_begin(gw);
    for k in [STRADDLE_LO, STRADDLE_HI] {
        let done = Rc::clone(&straddle_done);
        c.txn_put(
            h,
            Key::from(k),
            Some(Value::from("straddle")),
            Box::new(move |_c, res| {
                res.unwrap();
                *done.borrow_mut() += 1;
            }),
        );
    }
    c.run_until_quiescent(deadline(&c));
    assert_eq!(*straddle_done.borrow(), 2);

    let mut probes: Vec<WriteProbe> = Vec::new();
    let mut seq = 0u32;
    for op in ops {
        match *op {
            Op::Split(i) => {
                // May legitimately refuse (existing boundary, or the key's
                // range is mid-surgery); refusal must not disturb anything.
                let _ = c.admin_split_at(Key::from(SPLIT_KEYS[i]));
                advance(&mut c, 500);
            }
            Op::Merge(i) => {
                let _ = c.admin_merge_at(Key::from(DATA_KEYS[i]));
                advance(&mut c, 500);
            }
            Op::Write(i) => {
                seq += 1;
                let mut p = async_write(&mut c, gw, DATA_KEYS[i], &format!("v{seq}"));
                p.key = i;
                probes.push(p);
                // Deliberately short: the write's commit races the next op.
                advance(&mut c, 50);
            }
            Op::ReadFrom(r) => {
                c.read(
                    NodeId((r % 5) * 3),
                    Key::from(DATA_KEYS[(r as usize) % DATA_KEYS.len()]),
                    ReadOptions::default(),
                    Box::new(|_c, _res| {}),
                );
                advance(&mut c, 50);
            }
            Op::Settle => {
                c.run_until_quiescent(deadline(&c));
            }
        }
    }
    c.run_until_quiescent(deadline(&c));

    // The straddling transaction must still commit: its intents and its
    // record were carried through every reshape.
    let committed: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let c2 = Rc::clone(&committed);
    c.txn_commit(
        h,
        Box::new(move |_c, res| {
            *c2.borrow_mut() = Some(res.unwrap());
        }),
    );
    c.run_until_quiescent(deadline(&c));
    assert!(committed.borrow().is_some(), "straddling txn must commit");

    assert_tiling(&c);

    // Expected state: per key, the successful write with the greatest
    // commit timestamp (concurrent writes may order either way; their
    // timestamps are the truth).
    let mut expect: Vec<Option<(Timestamp, String)>> = vec![None; DATA_KEYS.len()];
    for p in &probes {
        if let Some(Ok(ts)) = p.result.borrow().as_ref() {
            let slot = &mut expect[p.key];
            if slot.as_ref().is_none_or(|(best, _)| ts > best) {
                *slot = Some((*ts, p.value.clone()));
            }
        }
    }
    for (i, key) in DATA_KEYS.iter().enumerate() {
        let got = read_value(&mut c, gw, key);
        let want = expect[i].as_ref().map(|(_, v)| Value::from(v.as_str()));
        assert_eq!(got, want, "key {key} diverged after the interleaving");
    }
    for k in [STRADDLE_LO, STRADDLE_HI] {
        assert_eq!(
            read_value(&mut c, gw, k),
            Some(Value::from("straddle")),
            "straddling intent {k} lost"
        );
    }

    // Merge-after-split idempotence: fold everything back left-to-right;
    // one range spanning the whole keyspace must remain, data intact. A
    // single attempt may be refused — settling waits on client ops, not
    // raft traffic, so the lifecycle controller's own proposal can still
    // be in flight — so attempt, let the network drain, and re-check.
    let mut guard = 0;
    while c.registry().len() > 1 {
        let _ = c.admin_merge_at(Key::from(STRADDLE_LO));
        advance(&mut c, 2_000);
        guard += 1;
        assert!(
            guard <= 64,
            "merge fold did not converge: {:?}",
            c.registry().iter().collect::<Vec<_>>()
        );
    }
    let only = c.registry().iter().next().unwrap().clone();
    assert_eq!(only.span, Span::all());
    assert_tiling(&c);
    for (i, key) in DATA_KEYS.iter().enumerate() {
        let got = read_value(&mut c, gw, key);
        let want = expect[i].as_ref().map(|(_, v)| Value::from(v.as_str()));
        assert_eq!(got, want, "key {key} diverged after the merge fold");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    #[test]
    fn split_merge_interleavings_preserve_tiling_and_data(
        ops in vec(op_strategy(), 1..16),
    ) {
        run_case(&ops);
    }
}
