//! End-to-end SQL tests on the paper's five-region topology: localities,
//! locality-optimized search, uniqueness checks, computed partitioning,
//! rehoming, stale reads, and region lifecycle.

use std::cell::RefCell;
use std::rc::Rc;

use mr_kv::cluster::ClusterConfig;
use mr_sim::{RttMatrix, SimDuration, SimTime, Topology};
use mr_sql::exec::{SqlDb, SqlError, SqlResult};
use mr_sql::types::Datum;

fn db() -> SqlDb {
    db_with(ClusterConfig::default())
}

fn db_with(cfg: ClusterConfig) -> SqlDb {
    let topo = Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    );
    SqlDb::new(topo, cfg)
}

/// The first range (in key order) covering the primary index of a movr
/// table, or its `region` partition: what the registry says backs the span.
fn primary_range(d: &SqlDb, table: &str, region: Option<&str>) -> mr_kv::RangeDescriptor {
    let cat = d.catalog.borrow();
    let t = cat.table("movr", table).unwrap();
    let span = mr_sql::encoding::partition_span(t.id, t.primary_index().id, region);
    let first = d.cluster.registry().lookup_span(&span).next();
    first.expect("a range covers the span").clone()
}

fn movr_db() -> SqlDb {
    movr_db_with(ClusterConfig::default())
}

fn movr_db_with(cfg: ClusterConfig) -> SqlDb {
    let mut d = db_with(cfg);
    let sess = d.session(mr_sim::NodeId(0), None);
    d.exec_script(
        &sess,
        r#"
        CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (
            id INT PRIMARY KEY,
            email STRING UNIQUE NOT NULL,
            name STRING
        ) LOCALITY REGIONAL BY ROW;
        CREATE TABLE promo_codes (
            code STRING PRIMARY KEY,
            description STRING
        ) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    // Settle replication & closed timestamps.
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));
    d
}

fn settle_secs(d: &mut SqlDb, secs: u64) {
    let until = d.cluster.now().nanos() + SimDuration::from_secs(secs).nanos();
    d.cluster.run_until(SimTime(until));
}

fn row_strings(r: &SqlResult) -> Vec<Vec<String>> {
    r.rows()
        .iter()
        .map(|row| row.iter().map(|d| d.to_string()).collect())
        .collect()
}

#[test]
fn create_database_and_show_regions() {
    let mut d = db();
    let sess = d.session(mr_sim::NodeId(0), None);
    d.exec_sync(
        &sess,
        r#"CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "us-west1""#,
    )
    .unwrap();
    let res = d.exec_sync(&sess, "SHOW REGIONS").unwrap();
    let rows = res.rows();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][0], Datum::String("us-east1".into()));
    assert_eq!(rows[0][1], Datum::Bool(true)); // primary
    assert_eq!(rows[1][1], Datum::Bool(false));
    // Unknown region rejected.
    let err = d
        .exec_sync(&sess, r#"ALTER DATABASE movr ADD REGION "mars-north1""#)
        .unwrap_err();
    assert!(matches!(err, SqlError::Catalog(_)));
}

#[test]
fn rbr_insert_select_roundtrip_with_hidden_region_column() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'Ann')",
    )
    .unwrap();
    // SELECT * hides crdb_region.
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    assert_eq!(res.rows()[0].len(), 3);
    assert_eq!(res.rows()[0][1], Datum::String("a@x.com".into()));
    // But it is selectable by name, and defaulted to the gateway region.
    let res = d
        .exec_sync(&sess, "SELECT crdb_region FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(row_strings(&res), vec![vec!["'us-east1'".to_string()]]);
}

#[test]
fn rbr_rows_are_homed_where_inserted() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(
        &s_east,
        "INSERT INTO users (id, email) VALUES (1, 'e@x.com')",
    )
    .unwrap();
    d.exec_sync(&s_eu, "INSERT INTO users (id, email) VALUES (2, 'w@x.com')")
        .unwrap();
    let res = d
        .exec_sync(&s_east, "SELECT crdb_region FROM users WHERE id = 2")
        .unwrap();
    assert_eq!(res.rows()[0][0].to_string(), "'europe-west2'");
}

#[test]
fn local_rbr_access_is_fast_remote_is_not() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(
        &s_eu,
        "INSERT INTO users (id, email) VALUES (9, 'eu@x.com')",
    )
    .unwrap();

    // Local read (from europe, where the row is homed): LOS finds it in the
    // local partition without leaving the region.
    let t0 = d.cluster.now();
    d.exec_sync(&s_eu, "SELECT * FROM users WHERE id = 9")
        .unwrap();
    let local_lat = d.cluster.now() - t0;
    assert!(
        local_lat < SimDuration::from_millis(10),
        "local LOS read took {local_lat}"
    );

    // Remote read (from us-east): local probe misses, fan-out pays the WAN.
    let t0 = d.cluster.now();
    let res = d
        .exec_sync(&s_east, "SELECT * FROM users WHERE id = 9")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let remote_lat = d.cluster.now() - t0;
    assert!(
        remote_lat >= SimDuration::from_millis(80),
        "remote read should pay a WAN hop: {remote_lat}"
    );
}

#[test]
fn unique_constraint_enforced_globally() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(
        &s_east,
        "INSERT INTO users (id, email) VALUES (1, 'dup@x.com')",
    )
    .unwrap();
    // Same email inserted from another region: must fail even though the
    // rows live in different partitions (§4.1).
    let err = d
        .exec_sync(
            &s_eu,
            "INSERT INTO users (id, email) VALUES (2, 'dup@x.com')",
        )
        .unwrap_err();
    assert!(
        matches!(err, SqlError::UniqueViolation { .. }),
        "expected unique violation, got {err}"
    );
    // Duplicate primary key also fails across regions.
    let err = d
        .exec_sync(
            &s_eu,
            "INSERT INTO users (id, email) VALUES (1, 'other@x.com')",
        )
        .unwrap_err();
    assert!(matches!(err, SqlError::UniqueViolation { .. }));
}

#[test]
fn global_table_fast_reads_everywhere_slow_writes() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    let t0 = d.cluster.now();
    d.exec_sync(
        &s_east,
        "INSERT INTO promo_codes VALUES ('SAVE10', 'ten percent off')",
    )
    .unwrap();
    let wlat = d.cluster.now() - t0;
    assert!(
        wlat >= SimDuration::from_millis(300),
        "global write should commit-wait: {wlat}"
    );
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(2).nanos(),
    ));
    for region in ["us-east1", "europe-west2", "asia-northeast1"] {
        let s = d.session_in_region(region, Some("movr"));
        let t0 = d.cluster.now();
        let res = d
            .exec_sync(&s, "SELECT * FROM promo_codes WHERE code = 'SAVE10'")
            .unwrap();
        assert_eq!(res.rows().len(), 1, "{region}");
        let rlat = d.cluster.now() - t0;
        assert!(
            rlat < SimDuration::from_millis(10),
            "global read from {region} took {rlat}"
        );
    }
}

#[test]
fn stale_reads_with_aost() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    // asia-northeast1 is a database region: its non-voting replicas can
    // serve stale reads locally. Insert, wait out the closed-ts lag, read.
    let s_au = d.session_in_region("asia-northeast1", Some("movr"));
    d.exec_sync(
        &s_east,
        "INSERT INTO users (id, email) VALUES (5, 's@x.com')",
    )
    .unwrap();
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(6).nanos(),
    ));
    let t0 = d.cluster.now();
    let res = d
        .exec_sync(
            &s_au,
            "SELECT * FROM users AS OF SYSTEM TIME '-5s' WHERE id = 5",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(20),
        "exact-staleness read should be near-local: {lat}"
    );
    // Bounded staleness also works and picks a fresh local timestamp.
    let res = d
        .exec_sync(
            &s_au,
            "SELECT * FROM users AS OF SYSTEM TIME with_max_staleness('30s') WHERE id = 5",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);
}

#[test]
fn computed_region_column_routes_directly() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "CREATE TABLE accounts (
            id INT PRIMARY KEY,
            state STRING,
            crdb_region crdb_internal_region NOT VISIBLE NOT NULL AS (
                CASE WHEN state = 'DE' THEN 'europe-west2' ELSE 'us-east1' END
            ) STORED
        ) LOCALITY REGIONAL BY ROW",
    )
    .unwrap();
    d.exec_sync(&sess, "INSERT INTO accounts (id, state) VALUES (1, 'DE')")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT crdb_region FROM accounts WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows()[0][0].to_string(), "'europe-west2'");
    // With the determinant bound, the planner goes straight to the
    // partition: no fan-out (check via predicate incl. state).
    let res = d
        .exec_sync(
            &sess,
            "SELECT id FROM accounts WHERE id = 1 AND state = 'DE'",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);
}

#[test]
fn automatic_rehoming_moves_rows_on_update() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "CREATE TABLE sessions (
            id INT PRIMARY KEY,
            data STRING,
            crdb_region crdb_internal_region NOT VISIBLE NOT NULL
                DEFAULT gateway_region() ON UPDATE rehome_row()
        ) LOCALITY REGIONAL BY ROW",
    )
    .unwrap();
    d.exec_sync(&sess, "INSERT INTO sessions (id, data) VALUES (1, 'x')")
        .unwrap();
    // Update from europe: the row re-homes there (§2.3.2).
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(&s_eu, "UPDATE sessions SET data = 'y' WHERE id = 1")
        .unwrap();
    let res = d
        .exec_sync(&s_eu, "SELECT crdb_region, data FROM sessions WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    assert_eq!(res.rows()[0][0].to_string(), "'europe-west2'");
    assert_eq!(res.rows()[0][1], Datum::String("y".into()));
    // Subsequent local access from europe is fast.
    let t0 = d.cluster.now();
    d.exec_sync(&s_eu, "UPDATE sessions SET data = 'z' WHERE id = 1")
        .unwrap();
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(15),
        "rehomed update took {lat}"
    );
}

#[test]
fn update_and_delete_maintain_secondary_indexes() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'old@x.com', 'A')",
    )
    .unwrap();
    d.exec_sync(&sess, "UPDATE users SET email = 'new@x.com' WHERE id = 1")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT id FROM users WHERE email = 'new@x.com'")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let res = d
        .exec_sync(&sess, "SELECT id FROM users WHERE email = 'old@x.com'")
        .unwrap();
    assert_eq!(res.rows().len(), 0, "old index entry must be gone");
    // Email is free for reuse now.
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email) VALUES (2, 'old@x.com')",
    )
    .unwrap();
    // Delete removes all entries.
    d.exec_sync(&sess, "DELETE FROM users WHERE id = 1")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 0);
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE email = 'new@x.com'")
        .unwrap();
    assert_eq!(res.rows().len(), 0);
}

#[test]
fn explicit_transactions() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, "BEGIN").unwrap();
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 't@x.com')")
        .unwrap();
    // Read-your-writes inside the transaction.
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    d.exec_sync(&sess, "COMMIT").unwrap();
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);

    // Rollback discards.
    d.exec_sync(&sess, "BEGIN").unwrap();
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (2, 'r@x.com')")
        .unwrap();
    d.exec_sync(&sess, "ROLLBACK").unwrap();
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 2")
        .unwrap();
    assert_eq!(res.rows().len(), 0);
}

#[test]
fn foreign_keys_to_global_parent() {
    let mut d = movr_db();
    let sess = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(
        &sess,
        "CREATE TABLE redemptions (
            id UUID PRIMARY KEY DEFAULT gen_random_uuid(),
            tag INT,
            code STRING REFERENCES promo_codes (code)
        ) LOCALITY REGIONAL BY ROW",
    )
    .unwrap();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&s_east, "INSERT INTO promo_codes VALUES ('OK', 'fine')")
        .unwrap();
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(2).nanos(),
    ));
    // Valid FK: parent is GLOBAL, so the check reads locally in europe.
    let t0 = d.cluster.now();
    d.exec_sync(
        &sess,
        "INSERT INTO redemptions (tag, code) VALUES (1, 'OK')",
    )
    .unwrap();
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(20),
        "FK check against GLOBAL parent should be local: {lat}"
    );
    // Invalid FK rejected.
    let err = d
        .exec_sync(
            &sess,
            "INSERT INTO redemptions (tag, code) VALUES (2, 'NOPE')",
        )
        .unwrap_err();
    assert!(matches!(err, SqlError::FkViolation { .. }), "{err}");
}

#[test]
fn add_and_drop_region_lifecycle() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, r#"ALTER DATABASE movr ADD REGION "us-west1""#)
        .unwrap();
    let res = d.exec_sync(&sess, "SHOW REGIONS").unwrap();
    assert_eq!(res.rows().len(), 4);
    // Rows can now be homed there.
    let s_west = d.session_in_region("us-west1", Some("movr"));
    d.exec_sync(
        &s_west,
        "INSERT INTO users (id, email) VALUES (1, 'w@x.com')",
    )
    .unwrap();
    // Dropping a region with homed rows fails (all-or-nothing, §2.4.1)...
    let err = d
        .exec_sync(&sess, r#"ALTER DATABASE movr DROP REGION "us-west1""#)
        .unwrap_err();
    assert!(matches!(err, SqlError::Catalog(_)), "{err}");
    // ...and the region is still usable afterwards (rollback restored it).
    d.exec_sync(
        &s_west,
        "INSERT INTO users (id, email) VALUES (2, 'w2@x.com')",
    )
    .unwrap();
    // Re-home the rows elsewhere, then the drop succeeds.
    d.exec_sync(
        &s_west,
        "UPDATE users SET crdb_region = 'us-east1' WHERE id = 1",
    )
    .unwrap();
    d.exec_sync(
        &s_west,
        "UPDATE users SET crdb_region = 'us-east1' WHERE id = 2",
    )
    .unwrap();
    d.exec_sync(&sess, r#"ALTER DATABASE movr DROP REGION "us-west1""#)
        .unwrap();
    let res = d.exec_sync(&sess, "SHOW REGIONS").unwrap();
    assert_eq!(res.rows().len(), 3);
    // Rows survived in their new home.
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
}

#[test]
fn alter_locality_between_forms() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "CREATE TABLE flex (k INT PRIMARY KEY, v STRING) LOCALITY REGIONAL BY TABLE",
    )
    .unwrap();
    d.exec_sync(&sess, "INSERT INTO flex VALUES (1, 'a'), (2, 'b')")
        .unwrap();
    // → GLOBAL: metadata + zone change; data survives.
    d.exec_sync(&sess, "ALTER TABLE flex SET LOCALITY GLOBAL")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT * FROM flex WHERE k = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    // → REGIONAL BY ROW: rows get a region column (homed in the primary).
    d.exec_sync(&sess, "ALTER TABLE flex SET LOCALITY REGIONAL BY ROW")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT crdb_region FROM flex WHERE k = 2")
        .unwrap();
    assert_eq!(res.rows()[0][0].to_string(), "'us-east1'");
    // → back to REGIONAL BY TABLE IN another region.
    d.exec_sync(
        &sess,
        r#"ALTER TABLE flex SET LOCALITY REGIONAL BY TABLE IN "europe-west2""#,
    )
    .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT * FROM flex WHERE k = 1")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    // Leaseholder moved to europe: local reads from there are fast.
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    let t0 = d.cluster.now();
    d.exec_sync(&s_eu, "SELECT * FROM flex WHERE k = 1")
        .unwrap();
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(10),
        "post-move read took {lat}"
    );
}

#[test]
fn legacy_manual_partitioning_and_duplicate_indexes() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    // Manual partitioning baseline (§7.2): partition column leads the pk.
    d.exec_script(
        &sess,
        r#"
        CREATE TABLE legacy (part STRING, k INT, v STRING, PRIMARY KEY (part, k));
        ALTER TABLE legacy PARTITION BY LIST (part) (
            PARTITION p_east VALUES IN ('east'),
            PARTITION p_eu VALUES IN ('eu'));
        ALTER PARTITION p_east OF TABLE legacy CONFIGURE ZONE USING
            num_replicas = 3, constraints = '{+region=us-east1: 3}',
            lease_preferences = '[[+region=us-east1]]';
        ALTER PARTITION p_eu OF TABLE legacy CONFIGURE ZONE USING
            num_replicas = 3, constraints = '{+region=europe-west2: 3}',
            lease_preferences = '[[+region=europe-west2]]';
        "#,
    )
    .unwrap();
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(1).nanos(),
    ));
    let s_eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(&s_eu, "INSERT INTO legacy VALUES ('eu', 1, 'x')")
        .unwrap();
    // Partition-local access is fast from its pinned region.
    let t0 = d.cluster.now();
    d.exec_sync(&s_eu, "SELECT * FROM legacy WHERE part = 'eu' AND k = 1")
        .unwrap();
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(10),
        "pinned partition read took {lat}"
    );

    // Duplicate indexes (§7.3.1): per-region covering indexes pinned by
    // CONFIGURE ZONE; reads pick the local one.
    d.exec_script(
        &sess,
        r#"
        CREATE TABLE codes (code STRING PRIMARY KEY, description STRING);
        CREATE UNIQUE INDEX idx_eu ON codes (code) STORING (description);
        ALTER INDEX codes.idx_eu CONFIGURE ZONE USING
            num_replicas = 3, constraints = '{+region=europe-west2: 3}',
            lease_preferences = '[[+region=europe-west2]]';
        "#,
    )
    .unwrap();
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(1).nanos(),
    ));
    d.exec_sync(&sess, "INSERT INTO codes VALUES ('C1', 'desc')")
        .unwrap();
    // Settle past the uncertainty window (a fresh read of a just-committed
    // value legitimately pays a commit wait under skewed clocks).
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(1).nanos(),
    ));
    // Read from europe hits the pinned duplicate index: local latency.
    let t0 = d.cluster.now();
    let res = d
        .exec_sync(&s_eu, "SELECT description FROM codes WHERE code = 'C1'")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(10),
        "duplicate-index read should be local: {lat}"
    );
}

#[test]
fn survivability_ddl() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();
    // Region-survivable ranges have 5 voters.
    assert_eq!(primary_range(&d, "users", None).voters().count(), 5);
    // RESTRICTED is incompatible with REGION survivability.
    let err = d
        .exec_sync(&sess, "ALTER DATABASE movr PLACEMENT RESTRICTED")
        .unwrap_err();
    assert!(matches!(err, SqlError::Catalog(_)));
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE ZONE FAILURE")
        .unwrap();
    d.exec_sync(&sess, "ALTER DATABASE movr PLACEMENT RESTRICTED")
        .unwrap();
    // REGIONAL tables now have no replicas outside their home region.
    for n in primary_range(&d, "users", Some("us-east1")).replica_nodes() {
        let region = d.cluster.topology().region_of(n);
        assert_eq!(d.cluster.topology().region_name(region), "us-east1");
    }
    // GLOBAL tables are unaffected by RESTRICTED (§3.3.4).
    assert!(primary_range(&d, "promo_codes", None).replicas.len() > 3);
}

#[test]
fn insert_returning_count_and_multi_row() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    let res = d
        .exec_sync(
            &sess,
            "INSERT INTO users (id, email) VALUES (1, 'a@x'), (2, 'b@x'), (3, 'c@x')",
        )
        .unwrap();
    assert_eq!(res.count(), 3);
    let res = d.exec_sync(&sess, "SELECT * FROM users LIMIT 2").unwrap();
    assert_eq!(res.rows().len(), 2);
    let res = d
        .exec_sync(&sess, "SELECT * FROM users WHERE id IN (1, 3)")
        .unwrap();
    assert_eq!(res.rows().len(), 2);
}

#[test]
fn uuid_default_skips_uniqueness_checks() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "CREATE TABLE tokens (
            id UUID PRIMARY KEY DEFAULT gen_random_uuid(),
            v STRING
        ) LOCALITY REGIONAL BY ROW",
    )
    .unwrap();
    let before = d.cluster.metrics().rpcs_sent.get();
    let t0 = d.cluster.now();
    d.exec_sync(&sess, "INSERT INTO tokens (v) VALUES ('x')")
        .unwrap();
    let lat = d.cluster.now() - t0;
    // No cross-region uniqueness probes: the insert stays local.
    assert!(
        lat < SimDuration::from_millis(15),
        "uuid insert should skip checks: {lat}"
    );
    let _ = before;
    let res = d.exec_sync(&sess, "SELECT v FROM tokens").unwrap();
    assert_eq!(res.rows().len(), 1);
}

#[test]
fn with_min_timestamp_bounded_read() {
    let mut d = movr_db();
    let s_east = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &s_east,
        "INSERT INTO users (id, email) VALUES (7, 'm@x.com')",
    )
    .unwrap();
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(6).nanos(),
    ));
    // Floor well in the past: negotiation picks something fresher but
    // locally servable.
    let s_asia = d.session_in_region("asia-northeast1", Some("movr"));
    let t0 = d.cluster.now();
    let res = d
        .exec_sync(
            &s_asia,
            "SELECT * FROM users AS OF SYSTEM TIME with_min_timestamp(1000000) WHERE id = 7",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let lat = d.cluster.now() - t0;
    assert!(
        lat < SimDuration::from_millis(10),
        "with_min_timestamp should be served locally: {lat}"
    );
}

#[test]
fn alter_database_set_primary_region_moves_leaseholders() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    // promo_codes is GLOBAL: its home is the primary region.
    d.exec_sync(&sess, "INSERT INTO promo_codes VALUES ('X', 'y')")
        .unwrap();
    d.exec_sync(
        &sess,
        r#"ALTER DATABASE movr SET PRIMARY REGION "europe-west2""#,
    )
    .unwrap();
    let lh = primary_range(&d, "promo_codes", None).leaseholder;
    let region = d.cluster.topology().region_of(lh);
    assert_eq!(d.cluster.topology().region_name(region), "europe-west2");
    // Data survived the move and writes still work.
    let res = d
        .exec_sync(
            &sess,
            "SELECT description FROM promo_codes WHERE code = 'X'",
        )
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    d.exec_sync(&sess, "INSERT INTO promo_codes VALUES ('Z', 'w')")
        .unwrap();
}

#[test]
fn upsert_on_rbr_table_read_modify_writes() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'u@x.com', 'old')",
    )
    .unwrap();
    // UPSERT over an existing row: overwrites in place (read-modify-write
    // path, since the table is region-partitioned with a secondary index).
    d.exec_sync(
        &sess,
        "UPSERT INTO users (id, email, name) VALUES (1, 'u@x.com', 'new')",
    )
    .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT name FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows()[0][0], Datum::String("new".into()));
    // Only one row exists.
    let res = d.exec_sync(&sess, "SELECT * FROM users").unwrap();
    assert_eq!(res.rows().len(), 1);
    // UPSERT of an absent key inserts.
    d.exec_sync(
        &sess,
        "UPSERT INTO users (id, email, name) VALUES (2, 'b@x.com', 'B')",
    )
    .unwrap();
    let res = d.exec_sync(&sess, "SELECT * FROM users").unwrap();
    assert_eq!(res.rows().len(), 2);
    // UPSERT that would steal an existing unique email is rejected.
    let err = d
        .exec_sync(
            &sess,
            "UPSERT INTO users (id, email, name) VALUES (2, 'u@x.com', 'B')",
        )
        .unwrap_err();
    assert!(matches!(err, SqlError::UniqueViolation { .. }), "{err}");
}

#[test]
fn drop_table_frees_ranges() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    let before = d.cluster.registry().len();
    d.exec_sync(
        &sess,
        "CREATE TABLE scratch (k INT PRIMARY KEY) LOCALITY REGIONAL BY ROW",
    )
    .unwrap();
    assert!(d.cluster.registry().len() > before);
    d.exec_sync(&sess, "INSERT INTO scratch VALUES (1)")
        .unwrap();
    d.exec_sync(&sess, "DROP TABLE scratch").unwrap();
    assert_eq!(d.cluster.registry().len(), before);
    let err = d.exec_sync(&sess, "SELECT * FROM scratch").unwrap_err();
    assert!(matches!(err, SqlError::Catalog(_)));
}

#[test]
fn create_index_backfills_existing_rows() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'Ann')",
    )
    .unwrap();
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (2, 'b@x.com', 'Bob')",
    )
    .unwrap();
    d.exec_sync(&sess, "CREATE INDEX by_name ON users (name)")
        .unwrap();
    // The new index serves lookups over pre-existing rows.
    let res = d
        .exec_sync(&sess, "SELECT email FROM users WHERE name = 'Bob'")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    assert_eq!(res.rows()[0][0], Datum::String("b@x.com".into()));
    // And is maintained by subsequent writes.
    d.exec_sync(&sess, "UPDATE users SET name = 'Robert' WHERE id = 2")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SELECT email FROM users WHERE name = 'Robert'")
        .unwrap();
    assert_eq!(res.rows().len(), 1);
    let res = d
        .exec_sync(&sess, "SELECT email FROM users WHERE name = 'Bob'")
        .unwrap();
    assert_eq!(res.rows().len(), 0);
}

#[test]
fn explain_describes_locality_plans() {
    let mut d = movr_db();
    let sess = d.session_in_region("europe-west2", Some("movr"));
    let text = |r: &SqlResult| {
        r.rows()
            .iter()
            .map(|row| row[0].as_str().unwrap_or_default().to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Unique lookup without a bound region: LOS from the local region.
    let res = d
        .exec_sync(&sess, "EXPLAIN SELECT * FROM users WHERE email = 'a@x.com'")
        .unwrap();
    let t = text(&res);
    assert!(t.contains("users@users_email_key"), "{t}");
    assert!(t.contains("locality-optimized search"), "{t}");
    assert!(t.contains("probe europe-west2 first"), "{t}");
    // Bound region: single partition.
    let res = d
        .exec_sync(
            &sess,
            "EXPLAIN SELECT * FROM users WHERE id = 1 AND crdb_region = 'us-east1'",
        )
        .unwrap();
    assert!(
        text(&res).contains("partitions: us-east1"),
        "{}",
        text(&res)
    );
    // INSERT with an INT pk: probes every region; GLOBAL insert: none shown
    // as partitioned probes.
    let res = d
        .exec_sync(
            &sess,
            "EXPLAIN INSERT INTO users (id, email) VALUES (9, 'e@x.com')",
        )
        .unwrap();
    let t = text(&res);
    assert!(t.contains("uniqueness check: primary probes"), "{t}");
    assert!(
        t.contains("us-east1") && t.contains("asia-northeast1"),
        "{t}"
    );
}

#[test]
fn drop_region_rejected_while_tables_homed_there() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        r#"CREATE TABLE eu_only (k INT PRIMARY KEY)
           LOCALITY REGIONAL BY TABLE IN "europe-west2""#,
    )
    .unwrap();
    let err = d
        .exec_sync(&sess, r#"ALTER DATABASE movr DROP REGION "europe-west2""#)
        .unwrap_err();
    assert!(matches!(err, SqlError::Catalog(_)), "{err}");
    // Re-home the table; the drop then succeeds.
    d.exec_sync(
        &sess,
        "ALTER TABLE eu_only SET LOCALITY REGIONAL BY TABLE IN PRIMARY REGION",
    )
    .unwrap();
    d.exec_sync(&sess, r#"ALTER DATABASE movr DROP REGION "europe-west2""#)
        .unwrap();
}

/// Write pipelining + parallel commits (on by default) change *when* a DML
/// statement returns — after intent evaluation, with replication joined at
/// COMMIT — but never *what* transactions observe. The toggle must flip
/// the commit path (visible through the pipelined-write and
/// parallel-commit-ack counters) while leaving results identical, and a
/// mid-transaction statement must still read its own pipelined writes.
#[test]
fn write_pipelining_toggle_changes_commit_path_not_results() {
    fn metric(d: &mut SqlDb, name: &str) -> i64 {
        let sess = d.session_in_region("us-east1", Some("movr"));
        let vt = d
            .exec_sync(
                &sess,
                &format!(
                    "SELECT metric, value FROM crdb_internal.node_metrics \
                     WHERE metric = '{name}'"
                ),
            )
            .unwrap();
        assert_eq!(vt.rows().len(), 1, "metric {name} missing");
        vt.rows()[0][1].as_int().unwrap()
    }

    fn workload(d: &mut SqlDb) -> Vec<Vec<String>> {
        let sess = d.session_in_region("us-east1", Some("movr"));
        // One explicit transaction writing two rows (plus their UNIQUE
        // index entries): every write pipelines, and the commit's STAGING
        // record races the in-flight intents.
        d.exec_sync(&sess, "BEGIN").unwrap();
        d.exec_sync(
            &sess,
            "INSERT INTO users (id, email) VALUES (100, 'pipe@x.com')",
        )
        .unwrap();
        // Read-your-writes must hold even while the intent replicates.
        let mid = d
            .exec_sync(&sess, "SELECT id FROM users WHERE id = 100")
            .unwrap();
        assert_eq!(mid.rows().len(), 1);
        d.exec_sync(
            &sess,
            "INSERT INTO users (id, email) VALUES (101, 'line@x.com')",
        )
        .unwrap();
        d.exec_sync(&sess, "COMMIT").unwrap();
        let mut rows = Vec::new();
        for id in [100, 101] {
            let res = d
                .exec_sync(
                    &sess,
                    &format!("SELECT id, email FROM users WHERE id = {id}"),
                )
                .unwrap();
            rows.extend(row_strings(&res));
        }
        rows
    }

    let mut pipelined = movr_db();
    let got_pipelined = workload(&mut pipelined);
    assert!(metric(&mut pipelined, "kv.txn.pipelined_writes") > 0);
    assert!(metric(&mut pipelined, "kv.txn.parallel_commit.acks") > 0);

    // A GLOBAL-table write lands at a future (synthetic) timestamp, above
    // whatever the commit staged at — the parallel commit must *restage*
    // through the two-phase path (and commit-wait), never ack at the
    // staged timestamp.
    let restages_before = metric(&mut pipelined, "kv.txn.parallel_commit.restages");
    let sess = pipelined.session_in_region("us-east1", Some("movr"));
    pipelined.exec_sync(&sess, "BEGIN").unwrap();
    pipelined
        .exec_sync(
            &sess,
            "INSERT INTO promo_codes (code, description) VALUES ('p100', 'd')",
        )
        .unwrap();
    pipelined.exec_sync(&sess, "COMMIT").unwrap();
    assert!(metric(&mut pipelined, "kv.txn.parallel_commit.restages") > restages_before);

    let mut legacy = movr_db_with(ClusterConfig {
        pipelined_writes: false,
        parallel_commits: false,
        ..ClusterConfig::default()
    });
    let got_legacy = workload(&mut legacy);
    assert_eq!(metric(&mut legacy, "kv.txn.pipelined_writes"), 0);
    assert_eq!(metric(&mut legacy, "kv.txn.parallel_commit.acks"), 0);

    assert_eq!(got_pipelined, got_legacy);
}

/// Addresses and reference counts of the catalog's `movr` database and one
/// of its tables, read through a borrow (taking no reference of our own).
fn descriptor(
    d: &SqlDb,
    table: &str,
) -> (
    (*const mr_sql::catalog::Database, usize),
    (*const mr_sql::catalog::Table, usize),
) {
    let cat = d.catalog.borrow();
    let db = &cat.databases["movr"];
    let t = &db.tables[table];
    (
        (Rc::as_ptr(db), Rc::strong_count(db)),
        (Rc::as_ptr(t), Rc::strong_count(t)),
    )
}

/// Descriptors are shared by reference and DDL is copy-on-write: statements
/// hold the catalog's own allocation (no copy per statement); DDL landing
/// while a statement is parked on a lock copies the descriptor, the parked
/// statement finishes against the version it started with and the next one
/// sees the new version; DDL with nothing in flight mutates in place.
#[test]
fn descriptors_are_shared_and_ddl_copies_on_write() {
    let mut d = movr_db_with(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a')",
    )
    .unwrap();
    d.exec_script(
        &sess,
        "CREATE TABLE rides (id INT PRIMARY KEY, city STRING);
         INSERT INTO rides (id, city) VALUES (1, 'nyc');",
    )
    .unwrap();
    settle_secs(&mut d, 2);

    let cases = [
        (
            "users",
            "UPDATE users SET name = 'locked' WHERE id = 1",
            "UPDATE users SET name = 'parked' WHERE id = 1",
            "CREATE INDEX users_name ON users (name)",
        ),
        (
            "rides",
            "UPDATE rides SET city = 'locked' WHERE id = 1",
            "UPDATE rides SET city = 'parked' WHERE id = 1",
            r#"ALTER TABLE rides SET LOCALITY REGIONAL BY TABLE IN "europe-west2""#,
        ),
    ];
    for (table, lock, parked, ddl) in cases {
        // Nothing in flight: the catalog holds the only reference.
        let ((db0, db_refs), (t0, t_refs)) = descriptor(&d, table);
        assert_eq!((db_refs, t_refs), (1, 1), "{table}: idle descriptors");
        let old = Rc::downgrade(&d.catalog.borrow().databases["movr"].tables[table]);

        // A transaction takes the row's lock; two more statements park
        // behind it.
        let holder = d.session_in_region("us-east1", Some("movr"));
        d.exec_sync(&holder, "BEGIN").unwrap();
        d.exec_sync(&holder, lock).unwrap();
        let done: Rc<RefCell<Vec<Result<SqlResult, SqlError>>>> = Rc::default();
        for _ in 0..2 {
            let waiter = d.session_in_region("us-east1", Some("movr"));
            let log = Rc::clone(&done);
            d.exec(
                &waiter,
                parked,
                Box::new(move |_, res| log.borrow_mut().push(res)),
            );
        }
        settle_secs(&mut d, 1);
        assert!(done.borrow().is_empty(), "{table}: statements must park");
        // Both hold the catalog's allocation: nothing was copied for them.
        let ((db1, db_refs), (t1, t_refs)) = descriptor(&d, table);
        assert_eq!((db1, t1), (db0, t0));
        assert!(db_refs >= 3 && t_refs >= 3, "{table}: {db_refs} {t_refs}");

        // DDL lands while they are parked: the catalog moves to a copy, the
        // parked statements keep the old version alive.
        let other = d.session_in_region("us-east1", Some("movr"));
        d.exec_sync(&other, ddl).unwrap();
        let ((db2, db_refs), (t2, t_refs)) = descriptor(&d, table);
        assert_ne!(
            t2, t0,
            "{table}: DDL must not write under a running statement"
        );
        assert_ne!(db2, db0);
        assert_eq!(
            (db_refs, t_refs),
            (1, 1),
            "{table}: the copy is the catalog's alone"
        );
        let kept = old
            .upgrade()
            .expect("parked statements hold the old version");
        let now = Rc::clone(&d.catalog.borrow().databases["movr"].tables[table]);
        assert!(
            kept.indexes.len() != now.indexes.len() || kept.locality != now.locality,
            "{table}: the old version is the one from before the DDL"
        );
        drop((kept, now));

        // The lock goes; the parked statements finish against the version
        // they started with, and let go of it.
        d.exec_sync(&holder, "COMMIT").unwrap();
        settle_secs(&mut d, 10);
        let results = done.borrow();
        assert_eq!(results.len(), 2, "{table}");
        for r in results.iter() {
            assert_eq!(r.as_ref().unwrap().count(), 1, "{table}");
        }
        assert!(old.upgrade().is_none(), "{table}: old version released");

        // The next statement sees the new version, and DDL with nothing in
        // flight mutates it in place.
        d.exec_sync(&other, parked).unwrap();
        assert_eq!(descriptor(&d, table), ((db2, 1), (t2, 1)));
    }
    let plan = d
        .exec_sync(&sess, "EXPLAIN SELECT id FROM users WHERE name = 'parked'")
        .unwrap();
    assert!(row_strings(&plan)[0][0].contains("users@users_name"));
    let ((db, _), (users, _)) = descriptor(&d, "users");
    d.exec_sync(&sess, "CREATE INDEX users_email2 ON users (email)")
        .unwrap();
    d.exec_sync(
        &sess,
        "ALTER TABLE users CONFIGURE ZONE USING num_replicas = 5",
    )
    .unwrap();
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();
    assert_eq!(descriptor(&d, "users"), ((db, 1), (users, 1)));
}

// ---------------------------------------------------------------------
// One row write: INSERT, UPSERT and UPDATE run the same checks
// ---------------------------------------------------------------------

/// `movr` plus a REGIONAL BY ROW child of the GLOBAL `promo_codes`, one
/// parent row (`'OK'`) and one child row (id 1 → `'OK'`). The child's
/// partitioned primary index sends UPSERT down the read-modify-write path.
fn movr_with_fk_child() -> (SqlDb, mr_sql::exec::Session) {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_script(
        &sess,
        "CREATE TABLE redemptions (
            id INT PRIMARY KEY,
            code STRING REFERENCES promo_codes (code),
            n INT
        ) LOCALITY REGIONAL BY ROW;
        INSERT INTO promo_codes VALUES ('OK', 'fine');
        INSERT INTO redemptions (id, code, n) VALUES (1, 'OK', 0)",
    )
    .unwrap();
    (d, sess)
}

fn code_of_redemption_1(d: &mut SqlDb, sess: &mr_sql::exec::Session) -> Datum {
    let res = d
        .exec_sync(sess, "SELECT code FROM redemptions WHERE id = 1")
        .unwrap();
    res.rows()[0][0].clone()
}

#[test]
fn insert_of_null_into_a_not_null_column_is_rejected() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    for sql in [
        "INSERT INTO users (id, email, name) VALUES (1, NULL, 'a')",
        // An omitted column without a default is NULL too.
        "INSERT INTO users (id, name) VALUES (1, 'a')",
    ] {
        let err = d.exec_sync(&sess, sql).unwrap_err();
        assert!(
            matches!(&err, SqlError::NotNullViolation { column, .. } if column == "email"),
            "{sql}: {err}"
        );
    }
    let res = d.exec_sync(&sess, "SELECT * FROM users").unwrap();
    assert_eq!(res.rows().len(), 0);
}

#[test]
fn update_to_null_in_a_not_null_column_is_rejected() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a')",
    )
    .unwrap();
    let err = d
        .exec_sync(&sess, "UPDATE users SET email = NULL WHERE id = 1")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::NotNullViolation { column, .. } if column == "email"),
        "{err}"
    );
    let res = d
        .exec_sync(&sess, "SELECT email FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows()[0][0], Datum::String("a@x.com".into()));
}

#[test]
fn update_to_a_value_that_does_not_fit_its_column_is_rejected() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(
        &sess,
        "INSERT INTO users (id, email, name) VALUES (1, 'a@x.com', 'a')",
    )
    .unwrap();
    let err = d
        .exec_sync(&sess, "UPDATE users SET name = 5 WHERE id = 1")
        .unwrap_err();
    assert!(matches!(err, SqlError::Eval(_)), "{err}");
    let res = d
        .exec_sync(&sess, "SELECT name FROM users WHERE id = 1")
        .unwrap();
    assert_eq!(res.rows()[0][0], Datum::String("a".into()));
}

#[test]
fn update_and_upsert_to_a_missing_fk_parent_are_rejected() {
    let (mut d, sess) = movr_with_fk_child();
    for sql in [
        "UPDATE redemptions SET code = 'NOPE' WHERE id = 1",
        // Row 1 exists: the UPSERT overwrites it.
        "UPSERT INTO redemptions (id, code, n) VALUES (1, 'NOPE', 0)",
    ] {
        let err = d.exec_sync(&sess, sql).unwrap_err();
        assert!(matches!(err, SqlError::FkViolation { .. }), "{sql}: {err}");
        assert_eq!(
            code_of_redemption_1(&mut d, &sess),
            Datum::String("OK".into()),
            "{sql}"
        );
    }
    // A change to a parent that exists, and to NULL, goes through.
    d.exec_sync(&sess, "INSERT INTO promo_codes VALUES ('NEW', 'also fine')")
        .unwrap();
    d.exec_sync(&sess, "UPDATE redemptions SET code = 'NEW' WHERE id = 1")
        .unwrap();
    assert_eq!(
        code_of_redemption_1(&mut d, &sess),
        Datum::String("NEW".into())
    );
    d.exec_sync(
        &sess,
        "UPSERT INTO redemptions (id, code, n) VALUES (1, NULL, 0)",
    )
    .unwrap();
    assert_eq!(code_of_redemption_1(&mut d, &sess), Datum::Null);
}

/// A blind UPSERT (the table's only index is an unpartitioned primary, so
/// nothing is read first) probes the parent of a REFERENCES column like
/// INSERT does.
#[test]
fn blind_upsert_to_a_missing_fk_parent_is_rejected() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_script(
        &sess,
        "CREATE TABLE kids (id INT PRIMARY KEY, code STRING REFERENCES promo_codes (code));
        INSERT INTO promo_codes VALUES ('OK', 'fine')",
    )
    .unwrap();
    for sql in [
        "INSERT INTO kids VALUES (2, 'NOPE')",
        "UPSERT INTO kids VALUES (2, 'NOPE')",
    ] {
        let err = d.exec_sync(&sess, sql).unwrap_err();
        assert!(matches!(err, SqlError::FkViolation { .. }), "{sql}: {err}");
    }
    let res = d.exec_sync(&sess, "SELECT * FROM kids").unwrap();
    assert_eq!(res.rows().len(), 0);
    d.exec_sync(&sess, "UPSERT INTO kids VALUES (2, 'OK')")
        .unwrap();
    d.exec_sync(&sess, "UPSERT INTO kids VALUES (3, NULL)")
        .unwrap();
    let res = d.exec_sync(&sess, "SELECT * FROM kids").unwrap();
    assert_eq!(res.rows().len(), 2);
}

/// `ADD COLUMN ... NOT NULL` with nothing to backfill is refused while the
/// table has rows (their NULLs would fail every later write of the row),
/// and the table is left as it was; an empty table takes the column.
#[test]
fn add_not_null_column_without_a_default_needs_an_empty_table() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@x.com')")
        .unwrap();
    let err = d
        .exec_sync(&sess, "ALTER TABLE users ADD COLUMN nick STRING NOT NULL")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::Catalog(msg) if msg.contains("\"nick\"")),
        "{err}"
    );
    let res = d.exec_sync(&sess, "SELECT * FROM users").unwrap();
    assert_eq!(res.rows()[0].len(), 3, "no column added");
    d.exec_sync(&sess, "UPDATE users SET name = 'a' WHERE id = 1")
        .unwrap();

    d.exec_script(
        &sess,
        "CREATE TABLE empty (id INT PRIMARY KEY);
        ALTER TABLE empty ADD COLUMN nick STRING NOT NULL",
    )
    .unwrap();
    let err = d
        .exec_sync(&sess, "INSERT INTO empty (id) VALUES (1)")
        .unwrap_err();
    assert!(
        matches!(&err, SqlError::NotNullViolation { column, .. } if column == "nick"),
        "{err}"
    );
    d.exec_sync(&sess, "INSERT INTO empty (id, nick) VALUES (1, 'n')")
        .unwrap();
}

/// An UPDATE that leaves the referencing column alone probes no parent: it
/// sends as many RPCs as the same UPDATE on a table without the FK.
#[test]
fn update_that_keeps_the_fk_column_sends_no_parent_probe() {
    let (mut d, sess) = movr_with_fk_child();
    d.exec_script(
        &sess,
        "CREATE TABLE plain_redemptions (
            id INT PRIMARY KEY,
            code STRING,
            n INT
        ) LOCALITY REGIONAL BY ROW;
        INSERT INTO plain_redemptions (id, code, n) VALUES (1, 'OK', 0)",
    )
    .unwrap();
    let mut rpcs = |table: &str| {
        settle_secs(&mut d, 5);
        let before = d.cluster.metrics().rpcs_sent.get();
        d.exec_sync(&sess, &format!("UPDATE {table} SET n = n + 1 WHERE id = 1"))
            .unwrap();
        settle_secs(&mut d, 5);
        d.cluster.metrics().rpcs_sent.get() - before
    };
    let with_fk = rpcs("redemptions");
    let without_fk = rpcs("plain_redemptions");
    assert!(with_fk > 0);
    assert_eq!(with_fk, without_fk);
}

/// `ADD COLUMN ... DEFAULT gen_random_uuid()` draws a fresh UUID for every
/// existing row from the database's one UUID stream.
#[test]
fn add_column_backfills_a_distinct_uuid_per_row() {
    let mut d = movr_db();
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_script(
        &sess,
        "INSERT INTO users (id, email) VALUES (1, 'a@x.com');
        INSERT INTO users (id, email) VALUES (2, 'b@x.com');
        INSERT INTO users (id, email) VALUES (3, 'c@x.com');
        ALTER TABLE users ADD COLUMN token UUID DEFAULT gen_random_uuid()",
    )
    .unwrap();
    let res = d.exec_sync(&sess, "SELECT token FROM users").unwrap();
    let mut tokens: Vec<String> = res.rows().iter().map(|r| r[0].to_string()).collect();
    assert_eq!(tokens.len(), 3);
    assert!(
        res.rows().iter().all(|r| matches!(r[0], Datum::Uuid(_))),
        "{tokens:?}"
    );
    tokens.sort();
    tokens.dedup();
    assert_eq!(tokens.len(), 3, "one UUID per row: {tokens:?}");
}
