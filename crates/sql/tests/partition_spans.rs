//! The catalog names partitions by key span and the range registry says which
//! ranges hold a span. These tests split a partition's range (or try to merge
//! two partitions' ranges) and then run the DDL that used to act on the
//! catalog's own, stale, list of range ids.

use mr_kv::cluster::ClusterConfig;
use mr_kv::RangeDescriptor;
use mr_proto::{RangeId, Span};
use mr_sql::encoding::{index_key, partition_span};
use mr_sql::exec::{Session, SqlDb};
use mr_sql::types::Datum;
use mr_testutil::{as_str, secs, settle, split_at, three_region_db};

/// The span of `index` (1 = primary) of a movr table, or of one region
/// partition of it.
fn span_of(d: &SqlDb, table: &str, index: u32, region: Option<&str>) -> Span {
    let cat = d.catalog.borrow();
    let t = cat.table("movr", table).expect("table exists");
    partition_span(t.id, index, region)
}

/// What the registry says covers `span`, in key order.
fn covering(d: &SqlDb, span: &Span) -> Vec<RangeDescriptor> {
    d.cluster.registry().lookup_span(span).cloned().collect()
}

/// Live entries over the ranges covering `span`. (A SQL scan still stops at
/// the first range of its span, so rows are counted range by range.)
fn entries(d: &mut SqlDb, span: &Span) -> usize {
    let ids: Vec<RangeId> = covering(d, span).iter().map(|r| r.id).collect();
    ids.iter()
        .map(|&id| d.cluster.admin_scan_range(id).len())
        .sum()
}

/// Insert `users` rows `ids` from `region` (which homes them there), then
/// split that region's primary partition at the row `at`. Returns the
/// right-hand half.
fn users_split(d: &mut SqlDb, region: &str, ids: &[i64], at: i64) -> RangeId {
    let sess = d.session_in_region(region, Some("movr"));
    for id in ids {
        let sql = format!("INSERT INTO users (id, email) VALUES ({id}, 'u{id}@x.com')");
        d.exec_sync(&sess, &sql).unwrap();
    }
    settle(d, secs(1));
    let users = d.catalog.borrow().table("movr", "users").unwrap().id;
    let rhs = split_at(d, index_key(users, 1, Some(region), &[Datum::Int(at)]));
    let halves = covering(d, &span_of(d, "users", 1, Some(region)));
    assert_eq!(halves.len(), 2, "the partition is two ranges now");
    assert_eq!(halves[1].id, rhs);
    rhs
}

fn movr(d: &SqlDb) -> Session {
    d.session_in_region("us-east1", Some("movr"))
}

#[test]
fn survive_region_failure_reconfigures_both_halves() {
    let mut d = three_region_db(ClusterConfig::default());
    users_split(&mut d, "us-east1", &[1, 2, 3, 4, 5, 6, 7, 8], 5);
    let sess = movr(&d);
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();
    let halves = covering(&d, &span_of(&d, "users", 1, Some("us-east1")));
    assert_eq!(halves.len(), 2);
    assert_eq!(halves[0].voters().count(), 5);
    assert_eq!(halves[0].zone_config, halves[1].zone_config);
    assert_eq!(halves[1].voters().count(), 5);
}

#[test]
fn drop_table_leaves_no_range_in_its_span() {
    let mut d = three_region_db(ClusterConfig::default());
    let rhs = users_split(&mut d, "us-east1", &[1, 2, 3, 4, 5, 6, 7, 8], 5);
    let spans = [span_of(&d, "users", 1, None), span_of(&d, "users", 2, None)];
    let sess = movr(&d);
    d.exec_sync(&sess, "DROP TABLE users").unwrap();
    assert!(d.cluster.registry().get(rhs).is_none());
    for span in &spans {
        assert_eq!(covering(&d, span).len(), 0, "ranges left under {span:?}");
    }
}

#[test]
fn set_locality_round_trip_keeps_every_row() {
    let mut d = three_region_db(ClusterConfig::default());
    users_split(&mut d, "us-east1", &[1, 2, 3, 4, 5, 6, 7, 8], 5);
    let sess = movr(&d);
    let primary = span_of(&d, "users", 1, None);
    d.exec_sync(&sess, "ALTER TABLE users SET LOCALITY GLOBAL")
        .unwrap();
    assert_eq!(covering(&d, &primary).len(), 1);
    assert_eq!(entries(&mut d, &primary), 8);
    d.exec_sync(&sess, "ALTER TABLE users SET LOCALITY REGIONAL BY ROW")
        .unwrap();
    assert_eq!(covering(&d, &primary).len(), 3);
    assert_eq!(entries(&mut d, &primary), 8);
    // The rows kept their home across both rewrites.
    let home = span_of(&d, "users", 1, Some("us-east1"));
    assert_eq!(entries(&mut d, &home), 8);
}

#[test]
fn create_index_indexes_rows_on_both_sides_of_the_split() {
    let mut d = three_region_db(ClusterConfig::default());
    users_split(&mut d, "us-east1", &[1, 2, 3, 4, 5, 6, 7, 8], 5);
    let sess = movr(&d);
    d.exec_sync(&sess, "CREATE INDEX users_by_email ON users (email)")
        .unwrap();
    // users has primary (1), the UNIQUE email index (2) and now this one.
    let by_email = span_of(&d, "users", 3, None);
    assert_eq!(entries(&mut d, &by_email), 8);
}

#[test]
fn drop_region_is_refused_when_only_the_right_half_holds_a_row() {
    let mut d = three_region_db(ClusterConfig::default());
    users_split(&mut d, "europe-west2", &[7], 5);
    let sess = movr(&d);
    let err = d
        .exec_sync(&sess, r#"ALTER DATABASE movr DROP REGION "europe-west2""#)
        .expect_err("a row is homed in the region");
    assert!(err.to_string().contains("homed there"), "{err}");
    let regions = d.exec_sync(&sess, "SHOW REGIONS").unwrap();
    assert_eq!(regions.rows().len(), 3);
    assert!(regions.rows().iter().all(|r| as_str(&r[2]) == "public"));
}

#[test]
fn replication_report_names_a_split_childs_table() {
    let mut d = three_region_db(ClusterConfig::default());
    let rhs = users_split(&mut d, "us-east1", &[1, 2, 3, 4, 5, 6, 7, 8], 5);
    let sess = movr(&d);
    let sql = format!(
        "SELECT table_name, partition FROM crdb_internal.replication_report \
         WHERE range_id = {}",
        rhs.0
    );
    let vt = d.exec_sync(&sess, &sql).unwrap();
    assert_eq!(
        vt.rows(),
        [[
            Datum::String("users".into()),
            Datum::String("us-east1".into())
        ]]
    );
}

/// A GLOBAL table's primary index and its unique index are adjacent in the
/// keyspace and carry equal zone configs — and are still two partitions.
/// Returns the lifecycle-enabled database and the two index spans.
fn adjacent_indexes() -> (SqlDb, Span, Span) {
    let mut cfg = ClusterConfig::default();
    cfg.lifecycle.enabled = true;
    let mut d = three_region_db(cfg);
    let sess = movr(&d);
    d.exec_sync(
        &sess,
        "CREATE TABLE coupons (id INT PRIMARY KEY, code STRING UNIQUE) LOCALITY GLOBAL",
    )
    .unwrap();
    let primary = span_of(&d, "coupons", 1, None);
    let by_code = span_of(&d, "coupons", 2, None);
    assert_eq!(primary.end, by_code.start);
    let (p, c) = (covering(&d, &primary), covering(&d, &by_code));
    assert_eq!((p.len(), c.len()), (1, 1), "one range per index");
    assert_eq!(p[0].zone_config, c[0].zone_config);
    (d, primary, by_code)
}

/// Both index ranges are where DDL put them, and DDL over them still works.
fn assert_unmerged(d: &mut SqlDb, primary: &Span, by_code: &Span) {
    assert_eq!(d.cluster.events.count_kind("range_merge"), 0);
    let (p, c) = (covering(d, primary), covering(d, by_code));
    assert_eq!((&p[0].span, &c[0].span), (primary, by_code));
    let sess = movr(d);
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();
}

#[test]
fn an_admin_merge_never_crosses_an_index_boundary() {
    let (mut d, primary, by_code) = adjacent_indexes();
    assert!(!d.cluster.admin_merge_at(primary.start.clone()));
    settle(&mut d, secs(1));
    assert_unmerged(&mut d, &primary, &by_code);
}

/// Both ranges are cold, and several lifecycle passes run past the cooldown.
#[test]
fn the_lifecycle_tick_never_merges_across_an_index_boundary() {
    let (mut d, primary, by_code) = adjacent_indexes();
    settle(&mut d, secs(30));
    assert_unmerged(&mut d, &primary, &by_code);
}

/// `PARTITION p_eu VALUES IN ('de','fr')` is one partition owning two spans:
/// its zone override lands on both value ranges, and both answer to its name.
#[test]
fn a_multi_value_partition_configures_every_value_range() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = movr(&d);
    d.exec_script(
        &sess,
        r#"
        CREATE TABLE legacy (part STRING, k INT, v STRING, PRIMARY KEY (part, k));
        ALTER TABLE legacy PARTITION BY LIST (part) (
            PARTITION p_eu VALUES IN ('de', 'fr'),
            PARTITION p_us VALUES IN ('us'));
        ALTER PARTITION p_eu OF TABLE legacy CONFIGURE ZONE USING
            num_replicas = 3, constraints = '{+region=europe-west2: 3}',
            lease_preferences = '[[+region=europe-west2]]';
        "#,
    )
    .unwrap();
    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE legacy").unwrap();
    let home_of = |partition: &str| -> Vec<&str> {
        let named = show.rows().iter().filter(|r| as_str(&r[2]) == partition);
        named.map(|r| as_str(&r[3])).collect()
    };
    assert_eq!(home_of("p_eu"), ["europe-west2", "europe-west2"]);
    assert_eq!(home_of("p_us"), ["us-east1"]);
    // gap, 'de', gap, 'fr', gap, 'us', gap — and no invented partition name.
    assert_eq!(show.rows().len(), 7);
    assert!(show.rows().iter().all(|r| !as_str(&r[2]).contains('#')));
}
