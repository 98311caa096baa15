//! Property tests for proposal batching at the replica level: under random
//! interleavings of concurrent transactions (batched 1PC commits and
//! pipelined intents) with cooperative lease/leadership transfers landing
//! mid-batch, every client response hook fires exactly once — nothing
//! dropped when a buffered batch outlives its leadership, nothing fired
//! twice when a flush races a transfer — and the surviving state reflects
//! the committed writes in apply order.
//!
//! Un-batched proposals interleave naturally: every lease transfer drives
//! a `ClaimLease` through the direct (un-batched) path between the
//! workload's batched commands.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;

use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ClusterConfig, ReadOptions};
use mr_kv::replica::{Batch, CmdOp, Command};
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_proto::{Key, Span, Value};
use mr_raft::{RaftConfig, RaftNode};
use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};

const KEYS: usize = 4;

/// Outcome slot for one launched transaction; written exactly once by its
/// final callback.
#[derive(Debug)]
struct TxnRec {
    /// Keys (indices into the shared pool) the txn wrote.
    keys: Vec<usize>,
    /// `None` until the commit/rollback callback fires; `Some(Ok(ts))` on
    /// commit, `Some(Err(()))` on abort.
    outcome: Option<Result<Timestamp, ()>>,
}

fn small_cluster(seed: u64) -> Cluster {
    let topo = Topology::build(
        &RttMatrix::paper_table1_regions()[..3],
        3,
        RttMatrix::from_upper_millis(3, &[&[63, 87], &[132]]),
    );
    let mut c = Cluster::new(
        topo,
        ClusterConfig {
            seed,
            // A short flush window widens the race between buffering a
            // proposal and losing leadership — the case under test.
            raft_flush_interval: SimDuration::from_millis(2),
            // Requests parked at a replica that then loses its lease are
            // only re-routed by the client timeout (the pusher stops when
            // its replica is no longer the leaseholder).
            rpc_timeout: Some(SimDuration::from_secs(1)),
            ..ClusterConfig::default()
        },
    );
    let zc = derive_zone_config(
        RegionId(0),
        &(0..3).map(RegionId).collect::<Vec<_>>(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
    c
}

fn key_name(i: usize) -> String {
    format!("k{i}")
}

/// Launch one transaction writing `keys` in order, recording its outcome
/// in `recs[idx]` exactly once.
fn launch_txn(c: &mut Cluster, gateway: NodeId, idx: usize, recs: Rc<RefCell<Vec<TxnRec>>>) {
    fn record(recs: &Rc<RefCell<Vec<TxnRec>>>, idx: usize, outcome: Result<Timestamp, ()>) {
        let prev = recs.borrow_mut()[idx].outcome.replace(outcome);
        assert!(prev.is_none(), "txn {idx} response hook fired twice");
    }

    fn put_chain(
        c: &mut Cluster,
        h: mr_kv::TxnHandle,
        idx: usize,
        mut keys: std::vec::IntoIter<usize>,
        recs: Rc<RefCell<Vec<TxnRec>>>,
    ) {
        match keys.next() {
            Some(k) => {
                let key = Key::from(key_name(k).as_str());
                let val = Value::from(format!("w{idx}").as_str());
                c.txn_put(
                    h,
                    key,
                    Some(val),
                    Box::new(move |c, res| match res {
                        Ok(()) => put_chain(c, h, idx, keys, recs),
                        Err(_) => {
                            c.txn_rollback(h, Box::new(move |_c, _| record(&recs, idx, Err(()))))
                        }
                    }),
                );
            }
            None => c.txn_commit(
                h,
                Box::new(move |_c, res| match res {
                    Ok(ts) => record(&recs, idx, Ok(ts)),
                    Err(_) => record(&recs, idx, Err(())),
                }),
            ),
        }
    }

    let keys = recs.borrow()[idx].keys.clone();
    let h = c.txn_begin(gateway);
    put_chain(c, h, idx, keys.into_iter(), recs);
}

/// The copy discipline of the replication path: a proposed batch is
/// materialised once, and the paper's 3 voters + 2 non-voters hold that one
/// allocation; the appends in flight between them and the apply's
/// `take_committed` windows hold none — a re-sent or duplicated entry, or
/// an applied one, costs no handle.
#[test]
fn replication_shares_one_batch_allocation() {
    let now = SimTime::ZERO;
    let mut nodes: Vec<RaftNode<Batch>> = (0..5)
        .map(|id| {
            let cfg = RaftConfig {
                id,
                voters: vec![0, 1, 2],
                learners: vec![3, 4],
                election_timeout: SimDuration::from_millis(150),
                heartbeat_interval: SimDuration::from_millis(50),
                quiesce: true,
            };
            RaftNode::new(cfg, now)
        })
        .collect();
    nodes[0].bootstrap_leader(now);
    let batch: Batch = Rc::new([Command {
        closed_ts: Timestamp::ZERO,
        op: CmdOp::Noop,
    }]);
    let (_, first) = nodes[0].propose(batch.clone(), now).unwrap();
    // A second proposal before any ack: its appends re-cover entry 1, as a
    // view of the leader's log that holds no payload handle of its own.
    let (_, second) = nodes[0].propose(batch.clone(), now).unwrap();
    assert_eq!(Rc::strong_count(&batch), 1 + 2, "the leader's log alone");
    // Deliver both rounds, the first one twice, and the resulting acks.
    for (to, msg) in first.clone().into_iter().chain(first).chain(second) {
        for (_, ack) in nodes[to as usize].step(0, msg, now) {
            nodes[0].step(to, ack, now);
        }
    }
    let later = now + SimDuration::from_millis(60);
    for (to, heartbeat) in nodes[0].tick(later) {
        nodes[to as usize].step(0, heartbeat, later);
    }
    assert_eq!(
        Rc::strong_count(&batch),
        1 + 2 * 5,
        "two entries in five logs"
    );
    let committed: Vec<_> = nodes.iter_mut().map(|n| n.take_committed()).collect();
    for window in &committed {
        assert_eq!(window.len(), 2);
        let entries = window.entries();
        assert!(entries.iter().all(|e| Rc::ptr_eq(&e.payload, &batch)));
    }
    assert_eq!(
        Rc::strong_count(&batch),
        1 + 2 * 5,
        "the apply reads the logs in place"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Random interleavings of batched proposals and leadership transfers:
    /// every transaction's response hook fires exactly once, and a final
    /// read of every key observes the newest committed write (or a write
    /// whose outcome the client saw as an error — an abort that raced).
    #[test]
    fn batched_proposals_survive_leadership_changes(
        seed in 0u64..1000,
        schedule in prop::collection::vec((any::<u8>(), any::<u8>()), 10..50),
    ) {
        let mut c = small_cluster(seed);
        let range = {
            let mut ids = c.registry().ids();
            ids.sort_unstable();
            ids[0]
        };
        let recs: Rc<RefCell<Vec<TxnRec>>> = Rc::new(RefCell::new(Vec::new()));

        for (action, r) in schedule {
            match action % 8 {
                // Single-key txn (1PC fast path — one batched command).
                0..=2 => {
                    let idx = recs.borrow().len();
                    recs.borrow_mut().push(TxnRec {
                        keys: vec![r as usize % KEYS],
                        outcome: None,
                    });
                    launch_txn(&mut c, NodeId(r as u32 % 3), idx, recs.clone());
                }
                // Two-key txn (pipelined intents share a batch). Keys in
                // ascending order: all writers lock in the same order, so
                // conflicts park and push rather than deadlock.
                3..=4 => {
                    let idx = recs.borrow().len();
                    let k = r as usize % KEYS;
                    let k2 = (k + 1) % KEYS;
                    recs.borrow_mut().push(TxnRec {
                        keys: vec![k.min(k2), k.max(k2)],
                        outcome: None,
                    });
                    launch_txn(&mut c, NodeId(r as u32 % 3), idx, recs.clone());
                }
                // Cooperative lease + Raft leadership transfer: lands
                // between (or inside) flush windows, so buffered batches
                // outlive their leadership.
                5 => c.transfer_lease(range, NodeId(r as u32 % 3)),
                // Let in-flight work overlap the next action.
                _ => {
                    let dt = SimDuration::from_millis(1 + (r as u64 % 4));
                    let t = SimTime(c.now().nanos() + dt.nanos());
                    c.run_until(t);
                }
            }
        }
        let deadline = SimTime(c.now().nanos() + SimDuration::from_secs(600).nanos());
        c.run_until_quiescent(deadline);

        // Exactly-once response delivery: every launched txn resolved (the
        // double-fire case asserts inside `record`).
        let recs = Rc::try_unwrap(recs)
            .expect("txn continuations still pending")
            .into_inner();
        for (i, rec) in recs.iter().enumerate() {
            prop_assert!(rec.outcome.is_some(), "txn {i} response hook never fired");
        }

        // The batched path was actually exercised.
        c.scrape_now();
        prop_assert!(c.metrics().entries_proposed.get() > 0, "no batched entries proposed");

        // Apply-order check: per key, the newest committed value (or an
        // aborted-to-the-client value that raced) is what a final read
        // observes. Values map back to txn indices by construction.
        let mut newest: HashMap<usize, (Timestamp, usize)> = HashMap::new();
        for (i, rec) in recs.iter().enumerate() {
            if let Some(Ok(ts)) = rec.outcome {
                for &k in &rec.keys {
                    let e = newest.entry(k).or_insert((ts, i));
                    if ts > e.0 {
                        *e = (ts, i);
                    }
                }
            }
        }
        // Let the last leadership transfer settle before the final reads.
        c.run_until(SimTime(c.now().nanos() + SimDuration::from_secs(5).nanos()));
        for k in 0..KEYS {
            let mut read_result: Option<Option<Value>> = None;
            // A transfer issued at the very end of the schedule can leave
            // the range briefly leaderless; retry through it.
            for _ in 0..5 {
                let got: Rc<RefCell<Option<Result<Option<Value>, mr_proto::KvError>>>> =
                    Rc::new(RefCell::new(None));
                let g2 = got.clone();
                c.read(
                    NodeId(0),
                    Key::from(key_name(k).as_str()),
                    ReadOptions::default(),
                    Box::new(move |_c, res| {
                        *g2.borrow_mut() = Some(res);
                    }),
                );
                let deadline = SimTime(c.now().nanos() + SimDuration::from_secs(600).nanos());
                c.run_until_quiescent(deadline);
                let res = got.borrow_mut().take().expect("final read incomplete");
                match res {
                    Ok(v) => {
                        read_result = Some(v);
                        break;
                    }
                    Err(_) => {
                        c.run_until(SimTime(c.now().nanos() + SimDuration::from_secs(2).nanos()));
                    }
                }
            }
            let got = read_result.expect("final read kept failing");
            match (&newest.get(&k), &got) {
                (None, None) => {}
                (None, Some(v)) => {
                    // Only a client-side abort could have left a value.
                    let s = String::from_utf8(v.0.to_vec()).unwrap();
                    let idx: usize = s.trim_start_matches('w').parse().unwrap();
                    prop_assert!(
                        matches!(recs[idx].outcome, Some(Err(()))),
                        "key {k}: unexplained value {s}"
                    );
                }
                (Some(_), None) => prop_assert!(false, "key {k}: committed write lost"),
                (Some((ts, idx)), Some(v)) => {
                    let s = String::from_utf8(v.0.to_vec()).unwrap();
                    let got_idx: usize = s.trim_start_matches('w').parse().unwrap();
                    if got_idx != *idx {
                        // A racing abort may land above the newest commit,
                        // but a committed write must never be shadowed by
                        // an *older* committed one.
                        let newer_abort = matches!(recs[got_idx].outcome, Some(Err(())));
                        prop_assert!(
                            newer_abort,
                            "key {k}: read w{got_idx}, expected w{idx} (commit ts {ts})"
                        );
                    }
                }
            }
        }
    }
}
