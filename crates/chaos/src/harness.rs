//! The three-region KV harness: one cluster builder and one transaction
//! runner, shared by the nemesis and the `mr-bench` KV probes.
//!
//! [`corner_cluster`] builds the 3×3 corner of the paper's Table 1 and
//! creates the caller's ranges, all homed in region 0. [`run_txn`] runs one
//! begin → get → put… → commit chain and reports how it ended; what to
//! record, retry or roll back after a failed commit stays with the caller.

use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ClusterConfig, Cont};
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_kv::TxnHandle;
use mr_proto::{Key, KvError, RangeId, Span, Value};
use mr_sim::{NodeId, RegionId, RttMatrix, Topology};

/// Every key under `name/`: the span `name/` up to `name0`.
pub fn prefix_span(name: &str) -> Span {
    Span::new(
        Key::from(format!("{name}/").as_str()),
        Key::from(format!("{name}0").as_str()),
    )
}

/// Build the 3×3 corner of Table 1 (us-east1, us-west1, europe-west2;
/// three nodes each, 63/87/132 ms apart) and create each range in list
/// order, homed in region 0 with the default placement and a lagging
/// closed timestamp. ZONE keeps every voter in region 0; REGION spreads
/// five voters, at most two per region. Returns the ids in list order.
pub fn corner_cluster(
    cfg: ClusterConfig,
    ranges: &[(Span, SurvivalGoal)],
) -> (Cluster, Vec<RangeId>) {
    let regions = RttMatrix::paper_table1_regions();
    let rtt = RttMatrix::from_upper_millis(3, &[&[63, 87], &[132]]);
    let mut c = Cluster::new(Topology::build(&regions[..3], 3, rtt), cfg);
    let db_regions: Vec<RegionId> = (0..3).map(RegionId).collect();
    let ids = ranges
        .iter()
        .map(|(span, goal)| {
            let zc = derive_zone_config(
                RegionId(0),
                &db_regions,
                *goal,
                PlacementPolicy::Default,
                ClosedTsPolicy::Lag,
            );
            c.create_range(span.clone(), zc)
                .expect("the corner places both survival goals")
        })
        .collect();
    (c, ids)
}

/// How a transaction [`run_txn`] drove ended.
#[derive(Debug)]
pub enum TxnEnd {
    /// Committed at `ts`; `read` is what the opening get returned (`None`
    /// without one).
    Committed { ts: Timestamp, read: Option<Value> },
    /// A step before the commit failed, and the transaction was rolled
    /// back.
    Aborted(KvError),
    /// The commit failed. It may have applied before its reply was lost, so
    /// nothing is rolled back: the handle is the caller's to roll back.
    CommitFailed(TxnHandle, KvError),
}

/// Run one transaction from `gateway`: begin, get `read` if given, put
/// `writes` in order, commit. A step before the commit that fails rolls the
/// transaction back. `done` receives the ending.
pub fn run_txn(
    c: &mut Cluster,
    gateway: NodeId,
    read: Option<Key>,
    writes: Vec<(Key, Option<Value>)>,
    done: impl FnOnce(&mut Cluster, TxnEnd) + 'static,
) {
    let h = c.txn_begin(gateway);
    let done: Cont<TxnEnd> = Box::new(done);
    let writes = writes.into_iter();
    match read {
        Some(key) => c.txn_get(
            h,
            key,
            Box::new(move |c, res| match res {
                Ok(v) => put_then_commit(c, h, v, writes, done),
                Err(e) => roll_back(c, h, e, done),
            }),
        ),
        None => put_then_commit(c, h, None, writes, done),
    }
}

fn put_then_commit(
    c: &mut Cluster,
    h: TxnHandle,
    read: Option<Value>,
    mut writes: std::vec::IntoIter<(Key, Option<Value>)>,
    done: Cont<TxnEnd>,
) {
    match writes.next() {
        Some((key, value)) => c.txn_put(
            h,
            key,
            value,
            Box::new(move |c, res| match res {
                Ok(()) => put_then_commit(c, h, read, writes, done),
                Err(e) => roll_back(c, h, e, done),
            }),
        ),
        None => c.txn_commit(
            h,
            Box::new(move |c, res| match res {
                Ok(ts) => done(c, TxnEnd::Committed { ts, read }),
                Err(e) => done(c, TxnEnd::CommitFailed(h, e)),
            }),
        ),
    }
}

fn roll_back(c: &mut Cluster, h: TxnHandle, e: KvError, done: Cont<TxnEnd>) {
    c.txn_rollback(h, Box::new(move |c, _| done(c, TxnEnd::Aborted(e))));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::{SimDuration, SimTime};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The corner with one ZONE range over `zs/`, settled.
    fn zs_corner() -> (Cluster, RangeId) {
        let zs = [(prefix_span("zs"), SurvivalGoal::Zone)];
        let (mut c, ids) = corner_cluster(ClusterConfig::default(), &zs);
        c.run_until(SimTime(SimDuration::from_secs(3).nanos()));
        (c, ids[0])
    }

    /// Finish every client op, then give asynchronous intent resolution,
    /// which outlives the op, two seconds to land.
    fn quiesce(c: &mut Cluster) {
        c.run_until_quiescent(SimTime(
            c.now().nanos() + SimDuration::from_secs(60).nanos(),
        ));
        c.run_until(SimTime(c.now().nanos() + SimDuration::from_secs(2).nanos()));
    }

    /// Run one transaction to quiescence and return its ending.
    fn run(c: &mut Cluster, read: Option<&str>, writes: &[(&str, &str)]) -> TxnEnd {
        let out = Rc::new(RefCell::new(None));
        let slot = out.clone();
        let writes = writes
            .iter()
            .map(|(k, v)| (Key::from(*k), Some(Value::from(*v))))
            .collect();
        run_txn(c, NodeId(3), read.map(Key::from), writes, move |_, end| {
            *slot.borrow_mut() = Some(end);
        });
        quiesce(c);
        let end = out.borrow_mut().take();
        end.expect("the transaction ended")
    }

    /// No replica of `range` holds an intent on `key`, and a fresh read
    /// sees no value.
    fn assert_no_intent(c: &mut Cluster, range: RangeId, key: &str) {
        let desc = c.registry().get(range).expect("range exists").clone();
        for node in desc.replica_nodes() {
            let rep = &c.node(node).replicas[&range];
            let intent = rep.store.intent(&Key::from(key));
            assert!(intent.is_none(), "intent left on {node}");
        }
        match run(c, Some(key), &[]) {
            TxnEnd::Committed { read, .. } => assert_eq!(read, None),
            end => panic!("expected a commit, got {end:?}"),
        }
    }

    #[test]
    fn committed_ending_carries_the_read_value() {
        let (mut c, _) = zs_corner();
        let end = run(&mut c, None, &[("zs/a", "one")]);
        assert!(
            matches!(end, TxnEnd::Committed { read: None, .. }),
            "{end:?}"
        );
        match run(&mut c, Some("zs/a"), &[("zs/b", "two")]) {
            TxnEnd::Committed { ts, read } => {
                assert_eq!(read, Some(Value::from("one")));
                assert!(ts > Timestamp::ZERO);
            }
            end => panic!("expected a commit, got {end:?}"),
        }
    }

    #[test]
    fn failed_get_rolls_back_before_any_write() {
        let (mut c, zs) = zs_corner();
        // `zz/` is under no range.
        let end = run(&mut c, Some("zz/a"), &[("zs/a", "one")]);
        assert!(
            matches!(end, TxnEnd::Aborted(KvError::NoSuchRange { .. })),
            "{end:?}"
        );
        assert_no_intent(&mut c, zs, "zs/a");
    }

    #[test]
    fn failed_commit_hands_back_the_handle() {
        let (mut c, zs) = zs_corner();
        // Pipelined puts return before they land, so a put to `zz/` (under
        // no range) fails the commit, with the `zs/a` intent already laid.
        let end = run(&mut c, None, &[("zs/a", "one"), ("zz/a", "two")]);
        let TxnEnd::CommitFailed(h, KvError::NoSuchRange { .. }) = end else {
            panic!("expected a failed commit, got {end:?}");
        };
        c.txn_rollback(h, Box::new(|_, _| {}));
        quiesce(&mut c);
        assert_no_intent(&mut c, zs, "zs/a");
    }
    #[test]
    fn corner_ranges_come_back_in_order_and_placed_by_goal() {
        let ranges = [
            (prefix_span("rs"), SurvivalGoal::Region),
            (prefix_span("zs"), SurvivalGoal::Zone),
            (prefix_span("za"), SurvivalGoal::Zone),
        ];
        let (c, ids) = corner_cluster(ClusterConfig::default(), &ranges);
        assert_eq!(ids.len(), ranges.len());
        let topo = c.topology();
        for (id, (span, goal)) in ids.iter().zip(&ranges) {
            let desc = c.registry().get(*id).expect("range exists");
            assert_eq!(&desc.span, span);
            let regions: Vec<RegionId> = desc.voters().map(|n| topo.region_of(n)).collect();
            match goal {
                SurvivalGoal::Zone => {
                    assert_eq!(regions.len(), 3);
                    assert!(regions.iter().all(|r| *r == RegionId(0)), "{regions:?}");
                }
                SurvivalGoal::Region => {
                    assert_eq!(regions.len(), 5);
                    for r in 0..3 {
                        let n = regions.iter().filter(|x| **x == RegionId(r)).count();
                        assert!((1..=2).contains(&n), "region {r} holds {n} voters");
                    }
                }
            }
        }
    }
}
