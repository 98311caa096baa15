//! Cross-crate integration tests through the public `multiregion` facade:
//! everything a downstream user touches, in one place.

use multiregion::kv::FaultKind;
use multiregion::{ClusterBuilder, Datum, SimDuration, SimTime, SqlDb};

fn db() -> SqlDb {
    ClusterBuilder::new()
        .region("us-east1", 3)
        .region("europe-west2", 3)
        .region("asia-northeast1", 3)
        .rtt_matrix(multiregion::RttMatrix::from_upper_millis(
            3,
            &[&[87, 155], &[222]],
        ))
        .seed(1)
        .build()
}

fn settle(db: &mut SqlDb, secs: u64) {
    let t = db.cluster.now();
    db.cluster
        .run_until(SimTime(t.nanos() + SimDuration::from_secs(secs).nanos()));
}

#[test]
fn end_to_end_multi_region_lifecycle() {
    let mut db = db();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE) LOCALITY REGIONAL BY ROW;
        CREATE TABLE config (k STRING PRIMARY KEY, v STRING) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    settle(&mut db, 5);

    // Write from every region; read everything from everywhere.
    for (i, region) in ["us-east1", "europe-west2", "asia-northeast1"]
        .iter()
        .enumerate()
    {
        let s = db.session_in_region(region, Some("app"));
        db.exec_sync(
            &s,
            &format!("INSERT INTO users (id, email) VALUES ({i}, 'u{i}@x.com')"),
        )
        .unwrap();
    }
    let east = db.session_in_region("us-east1", Some("app"));
    db.exec_sync(&east, "INSERT INTO config VALUES ('theme', 'dark')")
        .unwrap();
    settle(&mut db, 2);

    for region in ["us-east1", "europe-west2", "asia-northeast1"] {
        let s = db.session_in_region(region, Some("app"));
        for i in 0..3 {
            let rows = db
                .exec_sync(&s, &format!("SELECT email FROM users WHERE id = {i}"))
                .unwrap();
            assert_eq!(rows.rows().len(), 1, "user {i} from {region}");
        }
        let rows = db
            .exec_sync(&s, "SELECT v FROM config WHERE k = 'theme'")
            .unwrap();
        assert_eq!(rows.rows()[0][0], Datum::String("dark".into()));
    }

    // Survivability change, then continue operating.
    db.exec_sync(&sess, "ALTER DATABASE app SURVIVE REGION FAILURE")
        .unwrap();
    settle(&mut db, 2);
    db.exec_sync(
        &east,
        "INSERT INTO users (id, email) VALUES (10, 'post@x.com')",
    )
    .unwrap();
    let rows = db
        .exec_sync(&east, "SELECT * FROM users WHERE id = 10")
        .unwrap();
    assert_eq!(rows.rows().len(), 1);
}

#[test]
fn concurrent_unique_inserts_one_winner() {
    // The same email raced from all three regions: exactly one insert may
    // win, regardless of interleaving (§4.1).
    let mut db = db();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE) LOCALITY REGIONAL BY ROW;
        "#,
    )
    .unwrap();
    settle(&mut db, 5);

    use std::cell::RefCell;
    use std::rc::Rc;
    let outcomes: Rc<RefCell<Vec<bool>>> = Rc::new(RefCell::new(Vec::new()));
    for (i, region) in ["us-east1", "europe-west2", "asia-northeast1"]
        .iter()
        .enumerate()
    {
        let s = db.session_in_region(region, Some("app"));
        let o = Rc::clone(&outcomes);
        db.exec(
            &s,
            &format!("INSERT INTO users (id, email) VALUES ({i}, 'race@x.com')"),
            Box::new(move |_c, res| {
                o.borrow_mut().push(res.is_ok());
            }),
        );
    }
    let deadline = SimTime(db.cluster.now().nanos() + SimDuration::from_secs(120).nanos());
    while outcomes.borrow().len() < 3 {
        assert!(db.cluster.now() < deadline, "race did not resolve");
        db.cluster.step();
    }
    let wins = outcomes.borrow().iter().filter(|w| **w).count();
    assert_eq!(wins, 1, "exactly one concurrent insert must win");
    let east = db.session_in_region("us-east1", Some("app"));
    let rows = db
        .exec_sync(&east, "SELECT id FROM users WHERE email = 'race@x.com'")
        .unwrap();
    assert_eq!(rows.rows().len(), 1);
}

#[test]
fn serializable_bank_transfers_conserve_money() {
    // Concurrent explicit transactions moving money between two accounts
    // homed in different regions: serializability requires conservation.
    let mut db = db();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE bank PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE accounts (id INT PRIMARY KEY, balance INT) LOCALITY REGIONAL BY ROW;
        "#,
    )
    .unwrap();
    settle(&mut db, 5);
    let east = db.session_in_region("us-east1", Some("bank"));
    let eu = db.session_in_region("europe-west2", Some("bank"));
    db.exec_sync(&east, "INSERT INTO accounts VALUES (1, 500)")
        .unwrap();
    db.exec_sync(&eu, "INSERT INTO accounts VALUES (2, 500)")
        .unwrap();

    // Interleave transfers in both directions; retry on serialization
    // conflicts like a real application.
    let transfer = |db: &mut SqlDb, sess: &multiregion::Session, from: i64, to: i64, amt: i64| {
        for _attempt in 0..10 {
            let script = [
                "BEGIN".to_string(),
                format!("UPDATE accounts SET balance = balance - {amt} WHERE id = {from}"),
                format!("UPDATE accounts SET balance = balance + {amt} WHERE id = {to}"),
                "COMMIT".to_string(),
            ];
            let mut ok = true;
            for stmt in &script {
                if db.exec_sync(sess, stmt).is_err() {
                    let _ = db.exec_sync(sess, "ROLLBACK");
                    ok = false;
                    break;
                }
            }
            if ok {
                return;
            }
        }
        panic!("transfer kept failing");
    };
    for i in 0..5 {
        transfer(&mut db, &east, 1, 2, 10 + i);
        transfer(&mut db, &eu, 2, 1, 5 + i);
    }
    let rows = db
        .exec_sync(&east, "SELECT balance FROM accounts WHERE id = 1")
        .unwrap();
    let b1 = rows.rows()[0][0].as_int().unwrap();
    let rows = db
        .exec_sync(&east, "SELECT balance FROM accounts WHERE id = 2")
        .unwrap();
    let b2 = rows.rows()[0][0].as_int().unwrap();
    assert_eq!(b1 + b2, 1000, "money conserved (b1={b1}, b2={b2})");
}

#[test]
fn region_failure_with_region_survivability() {
    // No `rpc_timeout`: no statement is in flight when the region dies,
    // and one sent to a dead node afterwards fails at once as unreachable.
    // A request already in flight to a node that dies would never be
    // answered without the timer.
    let mut dbx = ClusterBuilder::new()
        .region("us-east1", 3)
        .region("europe-west2", 3)
        .region("asia-northeast1", 3)
        .seed(4)
        .build();
    let sess = dbx.session_in_region("us-east1", None);
    dbx.exec_script(
        &sess,
        r#"
        CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        ALTER DATABASE app SURVIVE REGION FAILURE;
        CREATE TABLE t (k INT PRIMARY KEY, v STRING) LOCALITY REGIONAL BY TABLE IN PRIMARY REGION;
        "#,
    )
    .unwrap();
    settle(&mut dbx, 5);
    let east = dbx.session_in_region("us-east1", Some("app"));
    dbx.exec_sync(&east, "INSERT INTO t VALUES (1, 'before')")
        .unwrap();

    let r = dbx.cluster.topology().region_by_name("us-east1").unwrap();
    dbx.cluster.inject_fault(&FaultKind::CrashRegion(r), None);
    settle(&mut dbx, 30);

    let eu = dbx.session_in_region("europe-west2", Some("app"));
    dbx.exec_sync(&eu, "UPSERT INTO t (k, v) VALUES (2, 'after')")
        .unwrap();
    let rows = dbx.exec_sync(&eu, "SELECT v FROM t WHERE k = 1").unwrap();
    assert_eq!(rows.rows()[0][0], Datum::String("before".into()));
    let rows = dbx.exec_sync(&eu, "SELECT v FROM t WHERE k = 2").unwrap();
    assert_eq!(rows.rows()[0][0], Datum::String("after".into()));
}

#[test]
fn read_after_write_is_linearizable_across_regions() {
    // Real-time order: after a write completes anywhere, a subsequent
    // fresh read anywhere must observe it (uncertainty intervals, §6.1).
    let mut db = db();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE t (k INT PRIMARY KEY, v INT) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    settle(&mut db, 5);
    let east = db.session_in_region("us-east1", Some("app"));
    db.exec_sync(&east, "INSERT INTO t VALUES (1, 0)").unwrap();
    settle(&mut db, 2);

    for round in 1..=3 {
        let writer = db.session_in_region("europe-west2", Some("app"));
        db.exec_sync(
            &writer,
            &format!("UPSERT INTO t (k, v) VALUES (1, {round})"),
        )
        .unwrap();
        // Immediately after the write returns, read from a third region.
        let reader = db.session_in_region("asia-northeast1", Some("app"));
        let rows = db
            .exec_sync(&reader, "SELECT v FROM t WHERE k = 1")
            .unwrap();
        assert_eq!(
            rows.rows()[0][0],
            Datum::Int(round),
            "round {round}: read after completed write must see it"
        );
    }
}

#[test]
fn metrics_reflect_protocol_activity() {
    let mut db = db();
    let sess = db.session_in_region("us-east1", None);
    db.exec_script(
        &sess,
        r#"
        CREATE DATABASE app PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE g (k INT PRIMARY KEY, v INT) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    settle(&mut db, 5);
    let east = db.session_in_region("us-east1", Some("app"));
    db.exec_sync(&east, "INSERT INTO g VALUES (1, 1)").unwrap();
    settle(&mut db, 2);
    let eu = db.session_in_region("europe-west2", Some("app"));
    db.exec_sync(&eu, "SELECT v FROM g WHERE k = 1").unwrap();

    let m = db.cluster.metrics();
    assert!(m.txn_commits.get() > 0);
    assert!(m.commit_waits.get() > 0, "global write must commit-wait");
    assert!(
        m.follower_reads_served.get() > 0,
        "global read from europe should be served by the local replica"
    );
}
