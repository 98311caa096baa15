//! Drive real workloads through the full stack: schema DDL, bulk load,
//! closed-loop clients, latency collection.

use std::collections::BTreeMap;

use mr_kv::cluster::ClusterConfig;
use mr_sim::{RttMatrix, SimDuration, SimRng, SimTime, Topology};
use mr_sql::exec::SqlDb;
use mr_workload::driver::{ClosedLoop, Op, OpSource};
use mr_workload::tpcc::{TpccConfig, TpccTerminal};
use mr_workload::ycsb::{self, KeyChooser, ReadMode, YcsbGen, YcsbTable};
use mr_workload::{bulk, Zipf};

fn regions3() -> Vec<String> {
    vec![
        "us-east1".to_string(),
        "europe-west2".to_string(),
        "asia-northeast1".to_string(),
    ]
}

fn db3() -> SqlDb {
    // Three-region topology (the §7.2 deployment).
    let names = ["us-east1", "europe-west2", "asia-northeast1"];
    let rtt = RttMatrix::from_upper_millis(3, &[&[87, 155], &[222]]);
    let topo = Topology::build(&names, 3, rtt);
    let cfg = ClusterConfig {
        seed: 42,
        ..ClusterConfig::default()
    };
    SqlDb::new(topo, cfg)
}

#[test]
fn ycsb_b_closed_loop_on_rbr() {
    let mut d = db3();
    let sess = d.session(mr_sim::NodeId(0), None);
    let regions = regions3();
    d.exec_sync(
        &sess,
        r#"CREATE DATABASE ycsb PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1""#,
    )
    .unwrap();
    let variant = YcsbTable::RegionalByRow { rehoming: false };
    d.exec_sync(&sess, &ycsb::schema("usertable", variant, &regions))
        .unwrap();
    let n_keys = 3_000u64;
    let rows = ycsb::dataset(variant, n_keys, |k| regions[(k % 3) as usize].clone());
    bulk::load_rows(&mut d, "ycsb", "usertable", &rows);
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));

    // 2 clients per region, 95% locality, 40 ops each.
    let mut driver = ClosedLoop::new();
    let mut seed = SimRng::seed_from_u64(7);
    let nclients = 6u64;
    for (r_idx, region) in regions.iter().enumerate() {
        for c in 0..2u64 {
            let client_idx = r_idx as u64 * 2 + c;
            let sess = d.session_in_region(region, Some("ycsb"));
            let gen = YcsbGen {
                table: "usertable".into(),
                variant,
                read_fraction: 0.95,
                insert_workload: false,
                keys: KeyChooser::Locality {
                    n: n_keys,
                    nregions: 3,
                    region_idx: r_idx as u64,
                    locality: 0.95,
                    client_idx,
                    nclients,
                    shared_remote: None,
                    remote_set: None,
                },
                read_mode: ReadMode::Fresh,
                regions: regions.clone(),
                region_idx: r_idx,
                remaining: Some(40),
                next_insert: 0,
                insert_stride: 1,
                nregions: 3,
                label_prefix: String::new(),
            };
            driver.add_client(sess, seed.fork(), Box::new(gen));
        }
    }
    driver
        .run(&mut d, SimTime(SimDuration::from_secs(300).nanos()))
        .unwrap();
    let stats = &driver.stats;
    assert_eq!(stats.completed + stats.failed, 240);
    assert_eq!(stats.failed, 0, "errors: {:?}", stats.errors);
    // Local reads are fast; remote reads pay WAN latency.
    let mut local = stats.merged(|l| l == "read-local");
    let mut remote = stats.merged(|l| l == "read-remote");
    assert!(local.len() > 100);
    assert!(!remote.is_empty());
    let p50_local = local.quantile(0.5);
    let p50_remote = remote.quantile(0.5);
    assert!(
        p50_local < SimDuration::from_millis(10),
        "local read p50 {p50_local}"
    );
    assert!(
        p50_remote > SimDuration::from_millis(80),
        "remote read p50 {p50_remote}"
    );
}

#[test]
fn ycsb_a_on_global_table_with_zipf() {
    let mut d = db3();
    let sess = d.session(mr_sim::NodeId(0), None);
    let regions = regions3();
    d.exec_sync(
        &sess,
        r#"CREATE DATABASE ycsb PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1""#,
    )
    .unwrap();
    d.exec_sync(&sess, &ycsb::schema("gtable", YcsbTable::Global, &regions))
        .unwrap();
    let n_keys = 1_000u64;
    let rows = ycsb::dataset(YcsbTable::Global, n_keys, |_| unreachable!());
    bulk::load_rows(&mut d, "ycsb", "gtable", &rows);
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let mut driver = ClosedLoop::new();
    let mut seed = SimRng::seed_from_u64(8);
    for region in &regions {
        let sess = d.session_in_region(region, Some("ycsb"));
        let gen = YcsbGen {
            table: "gtable".into(),
            variant: YcsbTable::Global,
            read_fraction: 0.5,
            insert_workload: false,
            keys: KeyChooser::Zipf(Zipf::ycsb(n_keys)),
            read_mode: ReadMode::Fresh,
            regions: regions.clone(),
            region_idx: 0,
            remaining: Some(30),
            next_insert: 0,
            insert_stride: 1,
            nregions: 3,
            label_prefix: String::new(),
        };
        driver.add_client(sess, seed.fork(), Box::new(gen));
    }
    driver
        .run(&mut d, SimTime(SimDuration::from_secs(600).nanos()))
        .unwrap();
    let stats = &driver.stats;
    assert_eq!(stats.failed, 0, "errors: {:?}", stats.errors);
    let mut writes = stats.merged(|l| l.starts_with("write"));
    assert!(writes.len() > 10);
    // Global writes commit-wait: several hundred ms.
    assert!(
        writes.quantile(0.5) > SimDuration::from_millis(300),
        "global write p50 {}",
        writes.quantile(0.5)
    );
    // Most reads stay local (in the absence of very recent conflicting
    // writes); check the lower quartile rather than the median since Zipf
    // contention legitimately pushes part of the distribution up.
    let mut reads = stats.merged(|l| l.starts_with("read"));
    assert!(
        reads.quantile(0.25) < SimDuration::from_millis(10),
        "global read p25 {}",
        reads.quantile(0.25)
    );
}

#[test]
fn tpcc_terminals_drive_transactions() {
    let mut d = db3();
    let sess = d.session(mr_sim::NodeId(0), None);
    let mut cfg = TpccConfig::new(regions3());
    cfg.warehouses_per_region = 2;
    cfg.items = 10;
    cfg.think_time = SimDuration::from_millis(400);
    d.exec_sync(
        &sess,
        r#"CREATE DATABASE tpcc PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1""#,
    )
    .unwrap();
    for ddl in cfg.schema() {
        d.exec_sync(&sess, &ddl).unwrap();
    }
    for (table, rows) in cfg.datasets() {
        bulk::load_rows(&mut d, "tpcc", table, &rows);
    }
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));

    let mut driver = ClosedLoop::new();
    let mut seed = SimRng::seed_from_u64(9);
    for w in 0..cfg.total_warehouses() {
        let region = &cfg.regions[cfg.region_of_warehouse(w)];
        let sess = d.session_in_region(region, Some("tpcc"));
        let mut term = TpccTerminal::new(cfg.clone(), w);
        term.remaining = Some(12);
        driver.add_client(sess, seed.fork(), Box::new(term));
    }
    driver
        .run(&mut d, SimTime(SimDuration::from_secs(600).nanos()))
        .unwrap();
    let stats = &driver.stats;
    assert_eq!(stats.failed, 0, "errors: {:?}", stats.errors);
    assert_eq!(stats.completed, 6 * 12);
    // Local new-orders are region-local: p50 well under a WAN RTT.
    let mut no_local = stats.merged(|l| l == "new-order");
    if no_local.len() > 3 {
        assert!(
            no_local.quantile(0.5) < SimDuration::from_millis(60),
            "local new-order p50 {}",
            no_local.quantile(0.5)
        );
    }
    // The database really recorded the orders.
    let s = d.session_in_region("us-east1", Some("tpcc"));
    let res = d
        .exec_sync(
            &s,
            "SELECT * FROM orders WHERE o_w_id = 0 AND o_d_id = 0 AND o_id = 1",
        )
        .unwrap();
    // Some terminal in warehouse 0 placed order 1 in district 0 (or not —
    // district choice is random — so accept either, just require the query
    // to execute).
    let _ = res;
}

/// Two regions 87 ms apart; database `app` homed in us-east1 with a table
/// `t` holding rows 1 and 2 (one range, leaseholder in us-east1).
fn db_with_rows() -> SqlDb {
    let rtt = RttMatrix::from_upper_millis(2, &[&[87]]);
    let topo = Topology::build(&["us-east1", "europe-west2"], 3, rtt);
    let cfg = ClusterConfig {
        seed: 42,
        ..ClusterConfig::default()
    };
    let mut d = SqlDb::new(topo, cfg);
    let s = d.session(mr_sim::NodeId(0), None);
    d.exec_sync(
        &s,
        r#"CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2""#,
    )
    .unwrap();
    let s = d.session_in_region("us-east1", Some("app"));
    d.exec_sync(&s, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
        .unwrap();
    d.exec_sync(&s, "INSERT INTO t VALUES (1, 0)").unwrap();
    d.exec_sync(&s, "INSERT INTO t VALUES (2, 0)").unwrap();
    let t = d.cluster.now();
    d.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(1).nanos()));
    d
}

/// A source that issues `ops` in order, then retires.
fn ops(ops: Vec<Op>) -> Box<dyn OpSource> {
    let mut ops = ops.into_iter();
    Box::new(move |_: &mut SimRng| ops.next())
}

fn txn(stmts: &[&str], label: &str) -> Op {
    let mut script = vec!["BEGIN".to_string()];
    script.extend(stmts.iter().map(|s| s.to_string()));
    script.push("COMMIT".to_string());
    Op::script(script, label)
}

fn far_future(d: &SqlDb) -> SimTime {
    SimTime(d.cluster.now().nanos() + SimDuration::from_secs(3_600).nanos())
}

/// The far client reads row 1 and then writes it, one WAN round trip per
/// statement; the near client overwrites row 1 between the two. The far
/// transaction cannot commit at its read timestamp and fails its refresh —
/// a retryable error — so the driver re-runs it from `BEGIN`, and the second
/// attempt commits.
#[test]
fn retryable_failure_is_rerun_and_counted_once() {
    let mut d = db_with_rows();
    let mut driver = ClosedLoop::new();
    let far = d.session_in_region("europe-west2", Some("app"));
    driver.add_client(
        far,
        SimRng::seed_from_u64(1),
        ops(vec![txn(
            &[
                "SELECT v FROM t WHERE k = 1",
                "UPDATE t SET v = 1 WHERE k = 1",
            ],
            "read-modify-write",
        )]),
    );
    let near = d.session_in_region("us-east1", Some("app"));
    driver.add_client(
        near,
        SimRng::seed_from_u64(2),
        ops(vec![Op::new("UPSERT INTO t VALUES (1, 2)", "blind-write")
            .with_think(SimDuration::from_millis(60))]),
    );
    let deadline = far_future(&d);
    driver.run(&mut d, deadline).unwrap();
    let stats = &driver.stats;
    assert_eq!(
        (stats.completed, stats.failed),
        (2, 0),
        "{:?}",
        stats.errors
    );
    assert_eq!(stats.retries, BTreeMap::from([(2, 1)]));
    let mut rmw = stats.merged(|l| l == "read-modify-write");
    assert_eq!(rmw.len(), 1);
    // Each attempt crosses the ocean at least twice (the SELECT, and the
    // UPDATE's read); the recorded latency covers both attempts.
    assert!(
        rmw.quantile(1.0) > SimDuration::from_millis(4 * 87),
        "latency {}",
        rmw.quantile(1.0)
    );
}

/// A constraint violation fails the same way on every attempt: the driver
/// rolls the transaction back, counts the op under its error's kind, does
/// not re-run it, and the client goes on to its next op.
#[test]
fn unique_violation_is_not_retried_and_counted_by_kind() {
    let mut d = db_with_rows();
    let mut driver = ClosedLoop::new();
    let s = d.session_in_region("us-east1", Some("app"));
    driver.add_client(
        s,
        SimRng::seed_from_u64(1),
        ops(vec![
            txn(&["INSERT INTO t VALUES (1, 5)"], "insert"),
            txn(&["INSERT INTO t VALUES (3, 5)"], "insert"),
        ]),
    );
    let deadline = far_future(&d);
    driver.run(&mut d, deadline).unwrap();
    let stats = &driver.stats;
    assert_eq!((stats.completed, stats.failed), (1, 1));
    assert_eq!(stats.errors, BTreeMap::from([("UniqueViolation", 1)]));
    assert!(stats.retries.is_empty(), "{:?}", stats.retries);
}

/// Two transactions write rows 1 and 2 in opposite orders, with a read of
/// an unrelated row between the writes so that each holds its first lock
/// before it asks for its second. Each then waits for the other's lock, and
/// nothing breaks the cycle, so no op ever ends: the guard stops the run and
/// names the two open transactions. (Once deadlocks are detected, one of the
/// two is aborted and re-run, and both commit.)
#[test]
fn lock_cycle_trips_the_no_progress_guard() {
    let mut d = db_with_rows();
    let mut driver = ClosedLoop::new();
    for (i, [first, second]) in [[1, 2], [2, 1]].into_iter().enumerate() {
        let s = d.session_in_region("us-east1", Some("app"));
        let op = txn(
            &[
                &format!("UPSERT INTO t VALUES ({first}, {i})"),
                "SELECT v FROM t WHERE k = 3",
                &format!("UPSERT INTO t VALUES ({second}, {i})"),
            ],
            "swap",
        );
        driver.add_client(s, SimRng::seed_from_u64(i as u64), ops(vec![op]));
    }
    let deadline = far_future(&d);
    let stall = driver
        .run(&mut d, deadline)
        .expect_err("a lock cycle never ends");
    assert_eq!((stall.in_flight, stall.ops_done), (2, 0), "{stall}");
    assert_eq!(stall.open_txns.len(), 2, "{stall}");
}

/// The guard watches statements, not clients: a think delay longer than its
/// two minutes is not a hang. The op was asked for before the deadline, so
/// it runs although its think delay ends after it, and the run lasts until
/// it has.
#[test]
fn long_think_does_not_trip_the_guard() {
    let mut d = db_with_rows();
    let mut driver = ClosedLoop::new();
    let s = d.session_in_region("us-east1", Some("app"));
    let think = SimDuration::from_secs(130);
    driver.add_client(
        s,
        SimRng::seed_from_u64(1),
        ops(vec![
            Op::new("SELECT v FROM t WHERE k = 1", "read").with_think(think)
        ]),
    );
    let deadline = SimTime(d.cluster.now().nanos() + SimDuration::from_secs(60).nanos());
    driver.run(&mut d, deadline).unwrap();
    assert_eq!((driver.stats.completed, driver.stats.failed), (1, 0));
    assert!(driver.stats.elapsed > think, "{}", driver.stats.elapsed);
}
