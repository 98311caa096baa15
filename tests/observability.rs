//! End-to-end observability tests: traces double as correctness tools
//! (follower-read locality, §6.2 commit wait), and every export is
//! byte-deterministic for a fixed seed.

use multiregion::{ClusterBuilder, SimDuration, SimTime, SqlDb};

/// Five-region cluster with tracing on and the movr schema: one
/// REGIONAL BY ROW table and one GLOBAL table.
fn traced_db(seed: u64) -> SqlDb {
    let mut db = ClusterBuilder::new()
        .paper_regions()
        .seed(seed)
        .config(|c| c.tracing = true)
        .build();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (
            id INT PRIMARY KEY,
            email STRING
        ) LOCALITY REGIONAL BY ROW;
        CREATE TABLE promo_codes (
            code STRING PRIMARY KEY,
            description STRING
        ) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    // Settle replication and closed timestamps.
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(5).nanos()));
    db
}

/// §5.3: a stale follower read from a non-primary region must be served
/// entirely by local replicas. The trace proves it: every RPC hop recorded
/// during the statement stays inside the reader's region.
#[test]
fn follower_read_trace_has_no_cross_region_hop() {
    let mut db = traced_db(7);
    let s_east = db.session_in_region("us-east1", Some("movr"));
    db.exec_sync(&s_east, "INSERT INTO users (id, email) VALUES (5, 's@x')")
        .unwrap();
    // Wait out the closed-timestamp lag so a -5s read is closed everywhere.
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(6).nanos()));

    let s_asia = db.session_in_region("asia-northeast1", Some("movr"));
    db.cluster.obs.tracer.clear();
    let res = db
        .exec_sync(
            &s_asia,
            "SELECT * FROM users AS OF SYSTEM TIME '-5s' WHERE id = 5",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);

    let tracer = db.cluster.obs.tracer.clone();
    // The statement ran as stale-read ops, not a read-write transaction.
    let stale_ops =
        tracer.find_by_name("kv.read.stale").len() + tracer.find_by_name("kv.scan.stale").len();
    assert!(stale_ops > 0, "expected stale-read op spans in the trace");
    assert!(tracer.find_by_name("txn").is_empty());

    let mut hops = 0;
    for name in ["rpc.get", "rpc.scan", "rpc.negotiate"] {
        for id in tracer.find_by_name(name) {
            let s = tracer.get(id);
            let from = s.attr("from_region").expect("rpc span has from_region");
            let to = s.attr("to_region").expect("rpc span has to_region");
            assert_eq!(
                (from, to),
                ("asia-northeast1", "asia-northeast1"),
                "{name} left the reader's region: {from} -> {to}"
            );
            hops += 1;
        }
    }
    assert!(hops > 0, "expected at least one RPC hop in the trace");
}

/// §6.2: a write to a GLOBAL table commits at a future timestamp and the
/// gateway must commit-wait until its clock passes it. The `txn.commit_wait`
/// span measures the wait; it must cover at least the configured
/// uncertainty interval (max clock offset).
#[test]
fn global_txn_commit_wait_covers_the_uncertainty_interval() {
    let mut db = traced_db(9);
    let max_offset = db.cluster.cfg.closed_ts.max_clock_offset();
    assert!(max_offset > SimDuration::ZERO);

    let sess = db.session_in_region("europe-west2", Some("movr"));
    db.cluster.obs.tracer.clear();
    db.exec_sync(
        &sess,
        "INSERT INTO promo_codes (code, description) VALUES ('c1', '10% off')",
    )
    .unwrap();

    let tracer = db.cluster.obs.tracer.clone();
    let waits = tracer.find_by_name("txn.commit_wait");
    assert!(!waits.is_empty(), "global txn commit should commit-wait");
    for id in waits {
        let s = tracer.get(id);
        let waited = s.duration().expect("commit-wait span is finished");
        assert!(
            waited >= max_offset,
            "commit wait {waited} shorter than the uncertainty interval {max_offset}"
        );
        // The wait belongs to a transaction: its root is the commit's trace.
        assert!(s.parent.is_some(), "commit-wait span must have a parent");
    }
    // The same wait is visible in the metrics.
    let m = db.cluster.metrics();
    assert!(m.commit_waits.get() > 0);
    assert!(m.commit_wait_nanos.get() >= max_offset.nanos());
}

fn run_seeded_workload(seed: u64) -> (String, String, String, String) {
    let mut db = traced_db(seed);
    let s_east = db.session_in_region("us-east1", Some("movr"));
    let s_eu = db.session_in_region("europe-west2", Some("movr"));
    for i in 0..8 {
        db.exec_sync(
            &s_east,
            &format!("INSERT INTO users (id, email) VALUES ({i}, 'u{i}@x')"),
        )
        .unwrap();
    }
    db.exec_sync(
        &s_eu,
        "INSERT INTO promo_codes (code, description) VALUES ('p', 'd')",
    )
    .unwrap();
    db.exec_sync(&s_eu, "SELECT * FROM users WHERE id = 3")
        .unwrap();
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(3).nanos()));
    let history = db
        .exec_sync(&s_eu, "SELECT * FROM crdb_internal.metrics_history")
        .unwrap();
    (
        db.cluster.obs.registry.dump_json(),
        db.cluster.obs.tracer.export_chrome_json(),
        db.cluster.obs.scraper.export_csv(),
        format!("{:?}", history.rows()),
    )
}

/// Same seed ⇒ byte-identical metrics dump, Chrome trace, scrape series and
/// `crdb_internal.metrics_history`.
#[test]
fn same_seed_exports_are_byte_identical() {
    let a = run_seeded_workload(42);
    let b = run_seeded_workload(42);
    assert_eq!(a.0, b.0, "registry dumps differ between same-seed runs");
    assert_eq!(a.1, b.1, "chrome traces differ between same-seed runs");
    assert_eq!(a.2, b.2, "scrape series differ between same-seed runs");
    assert_eq!(a.3, b.3, "metrics history differs between same-seed runs");
    assert!(a.0.contains("kv.txn.commits"));
    assert!(a.1.contains("sql.stmt"));
    assert!(a.2.contains("kv.closedts.lag_nanos"));
    assert!(a.3.contains("kv.closedts.lag_nanos"));
}
