//! End-to-end tests of the dynamic range lifecycle: admin and load-driven
//! splits, cold-range merges, transactions straddling a split, and
//! load-based lease rebalancing with report grace.

use std::cell::RefCell;
use std::rc::Rc;

use mr_clock::Timestamp;
use mr_kv::cluster::{Cluster, ClusterConfig, LifecycleConfig, ReadOptions};
use mr_kv::report::RangeStatus;
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal};
use mr_proto::{Key, KvError, RangeId, Span, TxnId, TxnStatus, Value};
use mr_sim::{NodeId, RegionId, RttMatrix, SimDuration, SimTime, Topology};

const US_EAST: RegionId = RegionId(0);

fn paper_topology() -> Topology {
    Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    )
}

fn all_regions() -> Vec<RegionId> {
    (0..5).map(RegionId).collect()
}

fn cluster(cfg: ClusterConfig) -> Cluster {
    Cluster::new(paper_topology(), cfg)
}

fn deadline() -> SimTime {
    SimTime(SimDuration::from_secs(600).nanos())
}

fn gw(region: u32) -> NodeId {
    NodeId(region * 3)
}

fn write_key(c: &mut Cluster, gateway: NodeId, key: &str, val: &str) -> Timestamp {
    let result: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    let h = c.txn_begin(gateway);
    c.txn_put(
        h,
        Key::from(key),
        Some(Value::from(val)),
        Box::new(move |c, res| {
            res.unwrap();
            c.txn_commit(
                h,
                Box::new(move |_c, res| {
                    *r2.borrow_mut() = Some(res.unwrap());
                }),
            );
        }),
    );
    c.run_until_quiescent(deadline());
    let ts = result.borrow().expect("commit did not complete");
    ts
}

fn read_key(c: &mut Cluster, gateway: NodeId, key: &str) -> Result<Option<Value>, KvError> {
    let result: Rc<RefCell<Option<Result<Option<Value>, KvError>>>> = Rc::new(RefCell::new(None));
    let r2 = Rc::clone(&result);
    c.read(
        gateway,
        Key::from(key),
        ReadOptions::default(),
        Box::new(move |_c, res| {
            *r2.borrow_mut() = Some(res);
        }),
    );
    c.run_until_quiescent(deadline());
    let res = result.borrow_mut().take().expect("read did not complete");
    res
}

fn single_region_zc() -> mr_kv::zone::ZoneConfig {
    derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Zone,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    )
}

/// Every key committed before a split stays readable afterwards, the
/// registry tiles the keyspace in two, and the event log + lineage record
/// the split.
#[test]
fn admin_split_preserves_data_and_reroutes() {
    let mut c = cluster(ClusterConfig::default());
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    for k in ["a1", "b1", "m1", "x1", "z1"] {
        write_key(&mut c, gw(0), k, &format!("v-{k}"));
    }
    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));

    assert_eq!(c.registry().len(), 2);
    let ld = c.registry().get(lhs).expect("lhs survives").clone();
    let rd = c.registry().get(rhs).expect("rhs installed").clone();
    assert_eq!(ld.span.end, Key::from("m"));
    assert_eq!(rd.span.start, Key::from("m"));
    assert!(rd.span.end.is_empty(), "rhs inherits the unbounded end");
    assert_eq!(c.events.count_kind("range_split"), 1);

    // Lineage: the RHS knows its parent and split key; the LHS counts the
    // split.
    let rl = c.lineage_of(rhs).expect("rhs lineage");
    assert_eq!(rl.origin, "split");
    assert_eq!(rl.parent, Some(lhs));
    assert_eq!(rl.split_key.as_deref(), Some("/m"));
    assert_eq!(c.lineage_of(lhs).unwrap().splits, 1);
    assert!(!c.split_latencies().is_empty());

    // Data landed on the right halves and reads re-route transparently.
    let lhs_keys: Vec<String> = c
        .admin_scan_range(lhs)
        .into_iter()
        .map(|(k, _)| format!("{k:?}"))
        .collect();
    assert_eq!(lhs_keys, ["/a1", "/b1"]);
    assert_eq!(c.admin_scan_range(rhs).len(), 3);
    for k in ["a1", "b1", "m1", "x1", "z1"] {
        assert_eq!(
            read_key(&mut c, gw(0), k).unwrap(),
            Some(Value::from(format!("v-{k}").as_str())),
            "key {k} lost across the split"
        );
    }
    // And both halves accept new writes.
    write_key(&mut c, gw(0), "b2", "v-b2");
    write_key(&mut c, gw(0), "x2", "v-x2");
    assert_eq!(
        read_key(&mut c, gw(0), "x2").unwrap(),
        Some(Value::from("v-x2"))
    );
}

/// A merge absorbs the right-hand neighbor back into one range holding the
/// union of the data, and merge-after-split restores the original tiling.
#[test]
fn admin_merge_restores_single_range() {
    let mut c = cluster(ClusterConfig::default());
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    for k in ["a1", "m1", "z1"] {
        write_key(&mut c, gw(0), k, &format!("v-{k}"));
    }
    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    assert_eq!(c.registry().len(), 2);

    assert!(c.admin_merge_at(Key::from("a")), "merge proposed");
    c.run_until(SimTime(SimDuration::from_secs(15).nanos()));

    assert_eq!(c.registry().len(), 1);
    assert!(c.registry().get(rhs).is_none(), "rhs absorbed");
    let d = c.registry().get(lhs).expect("lhs survives").clone();
    assert_eq!(d.span, Span::all());
    assert_eq!(c.events.count_kind("range_merge"), 1);
    assert_eq!(c.lineage_of(lhs).unwrap().merges_absorbed, 1);
    assert_eq!(c.lineage_of(rhs).unwrap().merged_into, Some(lhs));
    assert_eq!(c.admin_scan_range(lhs).len(), 3);
    for k in ["a1", "m1", "z1"] {
        assert_eq!(
            read_key(&mut c, gw(0), k).unwrap(),
            Some(Value::from(format!("v-{k}").as_str())),
            "key {k} lost across the merge"
        );
    }
    // The re-merged range accepts writes across the healed boundary.
    write_key(&mut c, gw(0), "m2", "v-m2");
    assert_eq!(
        read_key(&mut c, gw(0), "m2").unwrap(),
        Some(Value::from("v-m2"))
    );
}

/// A transaction whose writes straddle the split point, with the split
/// racing between its puts and its commit, still commits atomically: the
/// split carries intents and the transaction record to the right halves.
#[test]
fn txn_straddling_a_split_commits() {
    let mut c = cluster(ClusterConfig::default());
    c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let h = c.txn_begin(gw(0));
    let put_done: Rc<RefCell<u32>> = Rc::new(RefCell::new(0));
    for k in ["a1", "z1"] {
        let done = Rc::clone(&put_done);
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
    // Let the puts land as intents, then split between them.
    c.run_until(SimTime(SimDuration::from_secs(6).nanos()));
    assert_eq!(*put_done.borrow(), 2, "puts finished before the split");
    c.admin_split_at(Key::from("m")).expect("split proposed");
    c.run_until(SimTime(SimDuration::from_secs(8).nanos()));
    assert_eq!(c.registry().len(), 2);

    let committed: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let c2 = Rc::clone(&committed);
    c.txn_commit(
        h,
        Box::new(move |_c, res| {
            *c2.borrow_mut() = Some(res.unwrap());
        }),
    );
    c.run_until_quiescent(deadline());
    assert!(committed.borrow().is_some(), "straddling txn must commit");
    for k in ["a1", "z1"] {
        assert_eq!(
            read_key(&mut c, gw(0), k).unwrap(),
            Some(Value::from("straddle")),
            "write {k} lost across the racing split"
        );
    }
}

/// A split answers the requests it strands: a write parked behind another
/// transaction's intent gets exactly one `RangeUnavailable` naming the
/// reshaped range — with no RPC timeout configured — and its re-sent write
/// lands once the blocker commits.
#[test]
fn a_split_answers_the_write_parked_under_it() {
    let mut c = cluster(ClusterConfig {
        tracing: true,
        ..ClusterConfig::default()
    });
    let id = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    let lh = c.registry().get(id).unwrap().leaseholder;

    let blocker = c.txn_begin(gw(0));
    let blocked: Rc<RefCell<bool>> = Rc::new(RefCell::new(false));
    let b2 = Rc::clone(&blocked);
    c.txn_put(
        blocker,
        Key::from("k"),
        Some(Value::from("blocker")),
        Box::new(move |_c, res| {
            res.unwrap();
            *b2.borrow_mut() = true;
        }),
    );
    step_until(&mut c, "the blocker's intent", |_| *blocked.borrow());

    // Pipelined, the put returns at once and its write is the one RPC in
    // flight; the commit waits until after the blocker's.
    let waiter = c.txn_begin(gw(1));
    c.txn_put(
        waiter,
        Key::from("k"),
        Some(Value::from("waiter")),
        Box::new(|_c, res| res.unwrap()),
    );
    step_until(&mut c, "the write parks", |c| {
        c.node(lh).replicas[&id].parked_count() == 1
    });
    c.admin_split_at(Key::from("m")).expect("split proposed");
    step_until(&mut c, "split applied", |c| c.registry().len() == 2);

    // Bounded: a stranded request with no answer fails here, not by hanging.
    c.run_until(c.now() + SimDuration::from_secs(1));
    let traces: String = (c.obs.tracer.roots().into_iter())
        .map(|r| c.obs.tracer.render_tree(r))
        .collect();
    let answer = format!("result=err: {id} unavailable");
    assert_eq!(traces.matches(&answer).count(), 1, "in\n{traces}");
    assert_eq!(traces.matches("result=err").count(), 1, "in\n{traces}");
    assert!(!traces.contains("redirect"), "in\n{traces}");

    let commit = |c: &mut Cluster, h| {
        let ts: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
        let t2 = Rc::clone(&ts);
        c.txn_commit(
            h,
            Box::new(move |_c, res| *t2.borrow_mut() = Some(res.unwrap())),
        );
        c.run_until_quiescent(deadline());
        let ts = ts.borrow().expect("commit did not complete");
        ts
    };
    let blocker_ts = commit(&mut c, blocker);
    let waiter_ts = commit(&mut c, waiter);
    assert!(waiter_ts > blocker_ts, "{waiter_ts:?} <= {blocker_ts:?}");
    assert_eq!(
        read_key(&mut c, gw(0), "k").unwrap(),
        Some(Value::from("waiter"))
    );
}

/// With the lifecycle enabled, a range growing past the size threshold
/// splits on its own at the sampled-load median, and the halves keep every
/// committed key.
#[test]
fn size_triggered_split_fires_under_load() {
    let mut c = cluster(ClusterConfig {
        lifecycle: LifecycleConfig {
            enabled: true,
            split_size_keys: 16,
            ..LifecycleConfig::default()
        },
        ..ClusterConfig::default()
    });
    c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let keys: Vec<String> = (0..30).map(|i| format!("user/{i:03}")).collect();
    for k in &keys {
        write_key(&mut c, gw(0), k, "payload");
    }
    c.run_until(SimTime(c.now().0 + SimDuration::from_secs(30).nanos()));

    assert!(
        c.registry().len() >= 2,
        "no split after driving {} keys",
        keys.len()
    );
    assert!(c.events.count_kind("range_split") >= 1);
    assert!(c.last_lifecycle_action().is_some());
    // The split key is an observed request key, never the span start.
    let split_children: Vec<RangeId> = c
        .registry()
        .iter()
        .map(|d| d.id)
        .filter(|&id| c.lineage_of(id).is_some_and(|l| l.origin == "split"))
        .collect();
    assert!(!split_children.is_empty());
    for k in &keys {
        assert_eq!(
            read_key(&mut c, gw(0), k).unwrap(),
            Some(Value::from("payload")),
            "key {k} lost across the automatic split"
        );
    }
}

/// Two adjacent ranges that go cold merge back automatically once the
/// cooldown and QPS floors allow it.
#[test]
fn cold_adjacent_ranges_merge_automatically() {
    let mut c = cluster(ClusterConfig {
        lifecycle: LifecycleConfig {
            enabled: true,
            ..LifecycleConfig::default()
        },
        ..ClusterConfig::default()
    });
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "a1", "v");
    write_key(&mut c, gw(0), "z1", "v");
    c.admin_split_at(Key::from("m")).expect("split proposed");
    c.run_until(SimTime(SimDuration::from_secs(8).nanos()));
    assert_eq!(c.registry().len(), 2);

    // No more traffic: decayed QPS sinks under the merge floor, the
    // cooldown lapses, and the lifecycle merges the halves back.
    c.run_until(SimTime(SimDuration::from_secs(120).nanos()));
    assert_eq!(c.registry().len(), 1, "cold halves did not merge back");
    assert!(c.events.count_kind("range_merge") >= 1);
    assert_eq!(c.registry().get(lhs).unwrap().span, Span::all());
    for k in ["a1", "z1"] {
        assert_eq!(read_key(&mut c, gw(0), k).unwrap(), Some(Value::from("v")));
    }
}

/// Sustained remote traffic moves the lease toward the demanding region;
/// the replication report treats the deliberate move as conforming during
/// the grace window; and once traffic stops the lease re-homes into the
/// configured preference.
#[test]
fn lease_rebalances_toward_demand_then_rehomes() {
    let mut c = cluster(ClusterConfig {
        lifecycle: LifecycleConfig {
            enabled: true,
            rebalance_min_qps_milli: 500,
            ..LifecycleConfig::default()
        },
        ..ClusterConfig::default()
    });
    // Region-survivable: voters spread across regions, so eu has a voter
    // the lease can move to. Lease preference stays us-east.
    let zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Region,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    let id = c.create_range(Span::all(), zc).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    write_key(&mut c, gw(0), "k1", "v1");
    assert_eq!(
        c.topology()
            .region_of(c.registry().get(id).unwrap().leaseholder),
        US_EAST
    );

    // Hammer the range from eu (region 1) until the rebalancer reacts.
    let eu = RegionId(1);
    for _ in 0..300 {
        read_key(&mut c, gw(1), "k1").unwrap();
        if c.topology()
            .region_of(c.registry().get(id).unwrap().leaseholder)
            == eu
        {
            break;
        }
    }
    assert_eq!(
        c.topology()
            .region_of(c.registry().get(id).unwrap().leaseholder),
        eu,
        "lease did not follow demand"
    );
    assert!(c.events.count_kind("lease_rebalance") >= 1);
    assert!(c.lineage_of(id).unwrap().lease_rebalances >= 1);
    // The deliberate move is not reported as a leaseholder violation.
    let report = c.replication_report();
    assert_eq!(
        report.count(RangeStatus::WrongLeaseholder),
        0,
        "transient rebalance flagged: {}",
        report.export_json()
    );

    // Traffic stops: the load decays and the lease re-homes to us-east.
    let t0 = c.now();
    c.run_until(SimTime(t0.0 + SimDuration::from_secs(120).nanos()));
    assert_eq!(
        c.topology()
            .region_of(c.registry().get(id).unwrap().leaseholder),
        US_EAST,
        "lease did not re-home after the hot spell"
    );
    assert_eq!(c.replication_report().violations(), 0);
}

/// Split, then merge the halves back: the retired right-hand id keeps only
/// its history, and the scrape-time `closed_ts_monotonic` monitor restarts
/// its baseline exactly where the replicas were re-installed — one check
/// per replica per scrape except the first scrape after each surgery. The
/// count is what the map-keyed bookkeeping this replaced produced for the
/// same run (recorded at the parent commit).
#[test]
fn split_then_merge_retires_the_rhs_and_keeps_monitor_baselines() {
    let mut c = cluster(ClusterConfig::default());
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    for k in ["a1", "m1", "z1"] {
        write_key(&mut c, gw(0), k, &format!("v-{k}"));
    }
    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    assert_eq!(c.registry().len(), 2);
    assert!(c.admin_merge_at(Key::from("a")), "merge proposed");
    c.run_until(SimTime(SimDuration::from_secs(20).nanos()));

    assert_eq!(c.registry().len(), 1);
    assert!(c.registry().get(rhs).is_none());
    assert!(c.storage_info_of(rhs).is_none());
    let rl = c.lineage_of(rhs).expect("lineage outlives the range");
    assert_eq!(rl.merged_into, Some(lhs));
    assert_eq!(c.lineage_of(lhs).unwrap().merges_absorbed, 1);
    for k in ["a1", "m1", "z1"] {
        assert_eq!(
            read_key(&mut c, gw(1), k).unwrap(),
            Some(Value::from(format!("v-{k}").as_str()))
        );
    }
    assert_eq!(c.obs.monitors.violation_count(), 0);
    let checks = c
        .obs
        .registry
        .counter(
            "obs.monitor.checks",
            &[("invariant", "closed_ts_monotonic")],
        )
        .get();
    assert_eq!(checks, 147);
}

/// Step until `done`, failing rather than spinning if it never holds.
fn step_until(c: &mut Cluster, what: &str, mut done: impl FnMut(&Cluster) -> bool) {
    while !done(c) {
        assert!(c.step() && c.now() < deadline(), "never reached: {what}");
    }
}

/// The status of transaction `id`'s record on every replica of `range`.
fn record_statuses(c: &Cluster, range: RangeId, id: TxnId) -> Vec<Option<TxnStatus>> {
    let desc = c.registry().get(range).expect("range");
    desc.replica_nodes()
        .map(|n| {
            let rep = &c.node(n).replicas[&range];
            rep.store.txn_record(id).map(|r| r.status)
        })
        .collect()
}

/// A split hands every transaction record to both halves, and only the half
/// holding the anchor key ever finalizes its copy. When the halves merge
/// back, the record a push (`Request::PushTxn` answers from exactly this
/// lookup) finds must be the finalized one — a `Staging` answer would send
/// the pusher into status recovery against writes already resolved, and
/// recovery would abort a committed transaction.
#[test]
fn merge_keeps_the_finalized_record_of_a_txn_anchored_on_the_right() {
    let mut c = cluster(ClusterConfig::default());
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // Anchored at its first write, right of the split key; coordinated from
    // a remote gateway so a WAN round trip separates the STAGING record from
    // the explicit commit that follows the ack.
    let h = c.txn_begin(gw(3));
    for k in ["z1", "a1"] {
        c.txn_put(
            h,
            Key::from(k),
            Some(Value::from("v")),
            Box::new(|_c, res| res.unwrap()),
        );
    }
    c.run_until(SimTime(SimDuration::from_secs(6).nanos()));
    let committed: Rc<RefCell<Option<Timestamp>>> = Rc::new(RefCell::new(None));
    let c2 = Rc::clone(&committed);
    c.txn_commit(
        h,
        Box::new(move |_c, res| *c2.borrow_mut() = Some(res.unwrap())),
    );
    let staged = Some(TxnStatus::Staging);
    // The split seeds both halves from the leaseholder: its copy is the one
    // that has to be STAGING when the split applies.
    let lh = c.registry().get(lhs).unwrap().leaseholder;
    step_until(&mut c, "record staged at the leaseholder", |c| {
        let rep = &c.node(lh).replicas[&lhs];
        rep.store.txn_record(h.id).map(|r| r.status) == staged
    });

    // Split inside that window: both halves inherit the STAGING record.
    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    step_until(&mut c, "split applied", |c| c.registry().len() == 2);
    for half in [lhs, rhs] {
        assert!(record_statuses(&c, half, h.id).iter().all(|s| *s == staged));
    }

    // The commit finalizes the anchor's copy only (a few more seconds let
    // the followers learn the commit index).
    c.run_until_quiescent(deadline());
    assert!(committed.borrow().is_some(), "txn must commit");
    c.run_until(SimTime(SimDuration::from_secs(12).nanos()));
    let done = Some(TxnStatus::Committed);
    assert!(record_statuses(&c, rhs, h.id).iter().all(|s| *s == done));
    assert!(record_statuses(&c, lhs, h.id).iter().all(|s| *s == staged));

    assert!(c.admin_merge_at(Key::from("a")), "merge proposed");
    step_until(&mut c, "merge applied", |c| c.registry().len() == 1);
    assert!(record_statuses(&c, lhs, h.id).iter().all(|s| *s == done));
    for k in ["z1", "a1"] {
        assert_eq!(read_key(&mut c, gw(0), k).unwrap(), Some(Value::from("v")));
    }
}

/// Range surgery checkpoints the seed engine once and clones that image
/// into every replica: straight after a split, a re-placement and a merge,
/// all replicas of the range hold one engine state and one WAL, anchored at
/// applied index 0 and the closed timestamp their tracker inherited.
#[test]
fn surgery_installs_one_image_on_every_replica() {
    fn assert_one_image(c: &Cluster, range: RangeId, replicas: usize) {
        let desc = c.registry().get(range).expect("range");
        let reps: Vec<_> = desc
            .replica_nodes()
            .map(|n| &c.node(n).replicas[&range])
            .collect();
        assert_eq!(reps.len(), replicas);
        for rep in &reps {
            assert_eq!(rep.store.state_image(), reps[0].store.state_image());
            assert_eq!(rep.store.wal().bytes(), reps[0].store.wal().bytes());
            assert_eq!(rep.store.wal().durable_len(), rep.store.wal().len());
            assert_eq!(rep.store.applied_index(), 0);
            assert_eq!(rep.store.closed_ts(), rep.tracker.closed());
            assert_eq!(rep.tracker.closed(), reps[0].tracker.closed());
        }
        assert!(reps[0].store.closed_ts() > Timestamp::ZERO);
    }

    let mut c = cluster(ClusterConfig::default());
    let lhs = c.create_range(Span::all(), single_region_zc()).unwrap();
    c.run_until(SimTime(SimDuration::from_secs(5).nanos()));
    for k in ["a1", "m1", "z1"] {
        write_key(&mut c, gw(0), k, &format!("v-{k}"));
    }
    let replicas = c.registry().get(lhs).unwrap().replicas.len();

    let rhs = c.admin_split_at(Key::from("m")).expect("split proposed");
    step_until(&mut c, "split applied", |c| c.registry().len() == 2);
    assert_one_image(&c, lhs, replicas);
    assert_one_image(&c, rhs, replicas);

    c.run_until(SimTime(SimDuration::from_secs(10).nanos()));
    write_key(&mut c, gw(0), "a2", "v-a2");
    let region_zc = derive_zone_config(
        US_EAST,
        &all_regions(),
        SurvivalGoal::Region,
        PlacementPolicy::Default,
        ClosedTsPolicy::Lag,
    );
    c.reconfigure_range(lhs, region_zc.clone()).unwrap();
    let desc = c.registry().get(lhs).unwrap();
    let wide = desc.replicas.len();
    assert_eq!(desc.replicas.iter().filter(|p| p.voting).count(), 5);
    assert_one_image(&c, lhs, wide);
    c.reconfigure_range(rhs, region_zc).unwrap();

    c.run_until(SimTime(SimDuration::from_secs(20).nanos()));
    write_key(&mut c, gw(0), "z2", "v-z2");
    assert!(c.admin_merge_at(Key::from("a")), "merge proposed");
    step_until(&mut c, "merge applied", |c| c.registry().len() == 1);
    assert_one_image(&c, lhs, wide);
    assert_eq!(c.admin_scan_range(lhs).len(), 5);
}
