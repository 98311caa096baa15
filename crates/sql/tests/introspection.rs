//! End-to-end tests for the introspection surface: `SHOW RANGES` /
//! `SHOW SURVIVAL GOAL`, the `crdb_internal.*` virtual tables, replication
//! conformance reports, and the online invariant monitors.

use mr_kv::cluster::ClusterConfig;
use mr_kv::report::RangeStatus;
use mr_kv::FaultKind;
use mr_proto::RangeId;
use mr_sim::{SimDuration, SimTime};
use mr_sql::types::Datum;
use mr_testutil::{as_int, as_str, secs, settle, split_at, three_region_db};

/// `SHOW RANGES FROM TABLE` and `crdb_internal.ranges` must agree with the
/// allocator's actual placement in the range registry.
#[test]
fn show_ranges_matches_allocator_placement() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));

    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE users").unwrap();
    // REGIONAL BY ROW: primary index partitioned into one range per region,
    // plus one per region for the unique email index (implicitly
    // partitioned, §4.1).
    assert_eq!(show.rows().len(), 6);
    let mut partitions: Vec<&str> = show
        .rows()
        .iter()
        .filter(|r| as_str(&r[1]) == "primary")
        .map(|r| as_str(&r[2]))
        .collect();
    partitions.sort();
    assert_eq!(
        partitions,
        vec!["asia-northeast1", "europe-west2", "us-east1"]
    );
    for row in show.rows() {
        let rid = RangeId(as_int(&row[0]) as u64);
        let desc = d.cluster.registry().get(rid).expect("range exists");
        // home region = first lease preference of the derived zone config.
        let topo = d.cluster.topology();
        let home = topo.region_name(desc.zone_config.lease_preferences[0]);
        assert_eq!(as_str(&row[3]), home, "home_region of {rid}");
        assert_eq!(as_int(&row[4]), desc.leaseholder.0 as i64);
        assert_eq!(
            as_str(&row[5]),
            topo.region_name(topo.region_of(desc.leaseholder))
        );
        let mut voters: Vec<String> = desc.voters().map(|n| format!("n{}", n.0)).collect();
        voters.sort();
        assert_eq!(as_str(&row[6]), voters.join(","), "voters of {rid}");
    }

    // The virtual table agrees, and is filterable with SQL predicates.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT range_id, partition, leaseholder_node, voters \
             FROM crdb_internal.ranges WHERE table_name = 'users'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 6);
    for row in vt.rows() {
        let rid = RangeId(as_int(&row[0]) as u64);
        let desc = d.cluster.registry().get(rid).expect("range exists");
        assert_eq!(as_int(&row[2]), desc.leaseholder.0 as i64);
        let mut voters: Vec<String> = desc.voters().map(|n| format!("n{}", n.0)).collect();
        voters.sort();
        assert_eq!(as_str(&row[3]), voters.join(","));
    }

    // GLOBAL tables surface too.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT home_region FROM crdb_internal.ranges \
             WHERE table_name = 'promo_codes'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert_eq!(as_str(&vt.rows()[0][0]), "us-east1");
}

#[test]
fn show_survival_goal_tracks_alter_database() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    let res = d.exec_sync(&sess, "SHOW SURVIVAL GOAL").unwrap();
    assert_eq!(res.rows(), [[Datum::String("zone".into())]]);
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();
    let res = d
        .exec_sync(&sess, "SHOW SURVIVAL GOAL FROM DATABASE movr")
        .unwrap();
    assert_eq!(res.rows(), [[Datum::String("region".into())]]);
}

/// The conformance report is clean for a healthy cluster and flags a
/// deliberately mis-homed range as wrong-leaseholder.
#[test]
fn replication_report_flags_mishomed_range() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    // Region survival spreads voters across regions, so a lease can land
    // outside the home region.
    d.exec_sync(&sess, "ALTER DATABASE movr SURVIVE REGION FAILURE")
        .unwrap();

    let report = d.cluster.replication_report();
    assert_eq!(report.violations(), 0, "healthy cluster: {report:?}");

    // Mis-home one users range: move its lease to a voter outside the
    // preferred region. (Lease placement is a conformance property, not an
    // online invariant — strict monitors stay on.)
    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE users").unwrap();
    let row = &show.rows()[0];
    let rid = RangeId(as_int(&row[0]) as u64);
    let home = as_str(&row[3]).to_string();
    let desc = d.cluster.registry().get(rid).unwrap().clone();
    let topo = d.cluster.topology();
    let stray = desc
        .voters()
        .find(|&n| topo.region_name(topo.region_of(n)) != home)
        .expect("region survival places voters outside the home region");
    d.cluster.transfer_lease(rid, stray);
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(1).nanos(),
    ));

    let report = d.cluster.replication_report();
    assert_eq!(report.count(RangeStatus::WrongLeaseholder), 1);
    let flagged = report.violations();
    assert_eq!(flagged, 1, "only the mis-homed range: {report:?}");

    // And it is visible through SQL.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT range_id, status FROM crdb_internal.replication_report \
             WHERE status = 'wrong-leaseholder'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert_eq!(as_int(&vt.rows()[0][0]), rid.0 as i64);

    // Moving the lease back restores conformance.
    d.cluster.transfer_lease(rid, desc.leaseholder);
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(1).nanos(),
    ));
    assert_eq!(d.cluster.replication_report().violations(), 0);
}

/// A range split is visible end-to-end through SQL: `SHOW RANGES` lists the
/// new half under its table (it lies in the table's partition span), and
/// `crdb_internal.ranges` exposes the origin / parent / split-key columns
/// alongside a `range_split` cluster event.
#[test]
fn split_lineage_is_visible_through_sql() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE users").unwrap();
    let before = show.rows().len();
    let parent = RangeId(as_int(&show.rows()[0][0]) as u64);

    // Split the first users range in the middle of its span: any key
    // extending the span start stays inside the prefix region.
    let desc = d.cluster.registry().get(parent).unwrap().clone();
    let mut split_raw = desc.span.start.as_slice().to_vec();
    split_raw.extend_from_slice(b"split-here");
    let rhs = split_at(&mut d, mr_proto::Key::from_vec(split_raw));

    // SHOW RANGES now lists the child under the same table + partition.
    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE users").unwrap();
    assert_eq!(show.rows().len(), before + 1);
    assert!(
        show.rows().iter().any(|r| as_int(&r[0]) == rhs.0 as i64),
        "child range missing from SHOW RANGES"
    );

    // The virtual table exposes the lineage columns.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT range_id, origin, parent_range, split_key \
             FROM crdb_internal.ranges WHERE origin = 'split'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert_eq!(as_int(&vt.rows()[0][0]), rhs.0 as i64);
    assert_eq!(as_int(&vt.rows()[0][2]), parent.0 as i64);
    assert!(as_str(&vt.rows()[0][3]).ends_with("split-here"));

    // And the event log recorded it.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT range_id FROM crdb_internal.cluster_events \
             WHERE kind = 'range_split'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert_eq!(as_int(&vt.rows()[0][0]), parent.0 as i64);
}

/// Metrics and the event log are queryable via virtual tables.
#[test]
fn node_metrics_and_cluster_events_are_queryable() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@x.com')")
        .unwrap();

    let vt = d
        .exec_sync(
            &sess,
            "SELECT metric, value FROM crdb_internal.node_metrics \
             WHERE metric = 'kv.txn.commits'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert!(as_int(&vt.rows()[0][1]) >= 1);

    // Range creation during DDL left an audit trail.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT seq, kind, range_id FROM crdb_internal.cluster_events \
             WHERE kind = 'range_created'",
        )
        .unwrap();
    assert!(!vt.rows().is_empty());
    // Sequence numbers are unique and ascending.
    let seqs: Vec<i64> = vt.rows().iter().map(|r| as_int(&r[0])).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]));

    // Rehoming an RBR row records a row_rehomed event (§2.3.2).
    d.exec_sync(
        &sess,
        "UPDATE users SET crdb_region = 'europe-west2' WHERE id = 1",
    )
    .unwrap();
    let vt = d
        .exec_sync(
            &sess,
            "SELECT detail FROM crdb_internal.cluster_events \
             WHERE kind = 'row_rehomed'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    assert_eq!(as_str(&vt.rows()[0][0]), "us-east1 -> europe-west2");
}

/// A deliberately regressed closed timestamp is caught by the
/// `closed_ts_monotonic` monitor at the next scrape.
#[test]
fn seeded_closed_ts_regression_is_detected() {
    let cfg = ClusterConfig {
        // This test injects a fault, so violations must not panic.
        strict_monitors: false,
        // Scrape faster than the side transport repairs the regression.
        obs_scrape_interval: Some(SimDuration::from_millis(10)),
        ..ClusterConfig::default()
    };
    let mut d = three_region_db(cfg);
    assert_eq!(d.cluster.obs.monitors.violation_count(), 0);

    let desc = d.cluster.registry().iter().next().unwrap().clone();
    let node = desc.leaseholder;
    d.cluster.inject_fault(
        &FaultKind::RegressClosedTs {
            range: desc.id,
            node,
            delta: SimDuration::from_secs(2),
        },
        None,
    );
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_millis(100).nanos(),
    ));

    let n = d.cluster.obs.monitors.violations_for("closed_ts_monotonic");
    assert!(n > 0, "regression not caught");
    let v = d.cluster.obs.monitors.violations();
    let hit = v
        .iter()
        .find(|v| v.invariant == "closed_ts_monotonic")
        .unwrap();
    assert!(hit.detail.contains(&format!("{}", desc.id)));
}

/// Strict-monitor smoke: a mixed workload on the paper topology runs clean —
/// monitors perform checks and find nothing.
#[test]
fn strict_monitors_run_clean_on_mixed_workload() {
    let mut d = three_region_db(ClusterConfig::default());
    assert!(d.cluster.obs.monitors.strict());
    let sess = d.session_in_region("us-east1", Some("movr"));
    let eu = d.session_in_region("europe-west2", Some("movr"));
    for i in 0..10 {
        d.exec_sync(
            &sess,
            &format!("INSERT INTO users (id, email) VALUES ({i}, 'u{i}@x.com')"),
        )
        .unwrap();
    }
    d.exec_sync(&sess, "INSERT INTO promo_codes (code) VALUES ('x')")
        .unwrap();
    // Follower reads from another region exercise the follower-read monitor.
    for _ in 0..3 {
        d.exec_sync(
            &eu,
            "SELECT * FROM promo_codes AS OF SYSTEM TIME follower_read_timestamp()",
        )
        .unwrap();
    }
    d.cluster.run_until(SimTime(
        d.cluster.now().nanos() + SimDuration::from_secs(5).nanos(),
    ));

    let checks = d.cluster.obs.registry.counter_total("obs.monitor.checks");
    assert!(checks > 0, "monitors never ran");
    assert_eq!(d.cluster.obs.monitors.violation_count(), 0);
    assert_eq!(d.cluster.replication_report().violations(), 0);
}

/// All introspection exports are byte-identical across same-seed runs.
#[test]
fn exports_are_deterministic_across_same_seed_runs() {
    let run = || {
        let mut d = three_region_db(ClusterConfig::default());
        let sess = d.session_in_region("us-east1", Some("movr"));
        d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@x.com')")
            .unwrap();
        d.exec_sync(
            &sess,
            "UPDATE users SET crdb_region = 'asia-northeast1' WHERE id = 1",
        )
        .unwrap();
        (
            d.cluster.events.export_json(),
            d.cluster.replication_report().export_json(),
        )
    };
    let (e1, r1) = run();
    let (e2, r2) = run();
    assert_eq!(e1, e2, "event log diverged");
    assert_eq!(r1, r2, "replication report diverged");
    assert!(r1.contains("\"violations\": 0"), "unexpected: {r1}");
}

/// The Raft batching/quiescence counters surface through
/// `crdb_internal.node_metrics`, and an idle (quiesced) cluster stops
/// spending heartbeats: the `raft.heartbeats_sent` counter goes flat while
/// `raft.quiesced_ranges` covers every range.
#[test]
fn raft_metrics_surface_and_quiescence_suppresses_heartbeats() {
    let mut d = three_region_db(ClusterConfig::default());
    let sess = d.session_in_region("us-east1", Some("movr"));
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@x.com')")
        .unwrap();
    // Occupancy samples and the quiesced-range gauge are scrape-drained.
    d.cluster.scrape_now();

    let metric = |d: &mut mr_sql::exec::SqlDb, name: &str| -> i64 {
        let q = format!("SELECT value FROM crdb_internal.node_metrics WHERE metric = '{name}'");
        let sess = d.session_in_region("us-east1", Some("movr"));
        let vt = d.exec_sync(&sess, &q).unwrap();
        assert_eq!(vt.rows().len(), 1, "metric {name} missing or duplicated");
        as_int(&vt.rows()[0][0])
    };

    // The write above rode the batched-proposal path, and the heartbeat
    // counter row exists (it may legitimately still read zero: a range that
    // quiesces before its first idle tick never heartbeats at all).
    assert!(metric(&mut d, "raft.proposals_batched") >= 1);
    assert!(metric(&mut d, "raft.batch_occupancy#count") >= 1);
    assert!(metric(&mut d, "raft.heartbeats_sent") >= 0);

    // Idle long enough for every leader to notice it has nothing to do.
    settle(&mut d, secs(10));
    d.cluster.scrape_now();
    let ranges = d.cluster.registry().ids().len() as i64;
    assert_eq!(metric(&mut d, "raft.quiesced_ranges"), ranges);

    // A quiesced cluster spends nothing on heartbeats...
    let before = metric(&mut d, "raft.heartbeats_sent");
    settle(&mut d, secs(10));
    let after = metric(&mut d, "raft.heartbeats_sent");
    assert_eq!(after, before, "quiesced ranges kept heartbeating");

    // ...while the same cluster with quiescence disabled pays a steady
    // heartbeat rate over an identical idle window.
    let mut noq = three_region_db(ClusterConfig {
        raft_quiescence: false,
        ..ClusterConfig::default()
    });
    let before = metric(&mut noq, "raft.heartbeats_sent");
    settle(&mut noq, secs(10));
    let after = metric(&mut noq, "raft.heartbeats_sent");
    assert!(
        after > before,
        "un-quiesced ranges stopped heartbeating ({before} -> {after})"
    );
    noq.cluster.scrape_now();
    assert_eq!(metric(&mut noq, "raft.quiesced_ranges"), 0);
}

/// The load-telemetry trio: `crdb_internal.hot_ranges` ranks ranges by
/// decayed QPS and points at the partition the workload actually hammered,
/// `crdb_internal.slow_txns` breaks each transaction's latency into named
/// components that sum exactly to the end-to-end total, and
/// `crdb_internal.metrics_history` retains scraped samples at both
/// resolutions with sane rates.
#[test]
fn hot_ranges_slow_txns_and_metrics_history_are_queryable() {
    let mut d = three_region_db(ClusterConfig {
        obs_scrape_interval: Some(SimDuration::from_millis(100)),
        ..ClusterConfig::default()
    });
    let sess = d.session_in_region("us-east1", Some("movr"));
    // Skew the workload at one row: every statement lands on the us-east1
    // partition of `users`.
    d.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@x.com')")
        .unwrap();
    for _ in 0..20 {
        d.exec_sync(&sess, "SELECT email FROM users WHERE id = 1")
            .unwrap();
    }
    // Enough idle scrapes for the tsdb to close a coarse bucket (factor 10).
    settle(&mut d, secs(2));

    // The us-east1 users partition is the range we drove the reads at.
    let show = d.exec_sync(&sess, "SHOW RANGES FROM TABLE users").unwrap();
    let hammered: i64 = show
        .rows()
        .iter()
        .find(|r| as_str(&r[1]) == "primary" && as_str(&r[2]) == "us-east1")
        .map(|r| as_int(&r[0]))
        .expect("us-east1 users partition");

    let vt = d
        .exec_sync(
            &sess,
            "SELECT rank, range_id, qps_milli, read_qps_milli, \
             mean_latency_nanos, leaseholder_region \
             FROM crdb_internal.hot_ranges",
        )
        .unwrap();
    assert!(!vt.rows().is_empty());
    let mut prev_qps = i64::MAX;
    for (i, row) in vt.rows().iter().enumerate() {
        assert_eq!(as_int(&row[0]), i as i64 + 1, "ranks are dense");
        let qps = as_int(&row[2]);
        assert!(qps <= prev_qps, "hot_ranges not sorted by qps");
        prev_qps = qps;
    }
    let top = &vt.rows()[0];
    assert_eq!(as_int(&top[1]), hammered, "hottest range is the skewed one");
    assert!(as_int(&top[2]) > 0, "hottest range shows load");
    assert!(as_int(&top[3]) > 0, "reads dominate the skewed range");
    assert!(as_int(&top[4]) > 0, "served reads recorded latency");
    assert_eq!(as_str(&top[5]), "us-east1");

    // Every finished transaction's breakdown sums exactly to its total, the
    // list is sorted slowest-first, and the committed flag survived.
    let vt = d
        .exec_sync(
            &sess,
            "SELECT total_nanos, rpc_nanos, replication_nanos, \
             lock_wait_nanos, commit_wait_nanos, retry_nanos, other_nanos, \
             committed FROM crdb_internal.slow_txns",
        )
        .unwrap();
    assert!(!vt.rows().is_empty(), "no transactions recorded");
    let mut prev_total = i64::MAX;
    for row in vt.rows() {
        let total = as_int(&row[0]);
        assert!(total <= prev_total, "slow_txns not sorted by total");
        prev_total = total;
        let parts: i64 = (1..=6).map(|c| as_int(&row[c])).sum();
        assert_eq!(total, parts, "attribution components must sum to total");
        assert_eq!(row[7], Datum::Bool(true), "all txns here committed");
    }

    // The commit counter's history is monotone at fine resolution and has
    // been downsampled into at least one coarse bucket.
    for res in ["fine", "coarse"] {
        let q = format!(
            "SELECT time_ns, value FROM crdb_internal.metrics_history \
             WHERE metric = 'kv.txn.commits' AND resolution = '{res}'"
        );
        let vt = d.exec_sync(&sess, &q).unwrap();
        assert!(!vt.rows().is_empty(), "no {res} samples for kv.txn.commits");
        let mut prev: Option<(i64, i64)> = None;
        for row in vt.rows() {
            let (t, v) = (as_int(&row[0]), as_int(&row[1]));
            if let Some((pt, pv)) = prev {
                assert!(t > pt, "{res} samples out of order");
                assert!(v >= pv, "counter history went backwards");
            }
            prev = Some((t, v));
        }
        assert_eq!(prev.map(|(_, v)| v), Some(21), "21 committed txns");
    }
}

/// DDL walks the catalog in a structural order: one script that creates six
/// tables (one REGIONAL BY ROW over five regions), then adds a region, raises
/// the survival goal and changes a locality — every step re-derives zone
/// configs table by table, index by index, partition by partition — leaves
/// byte-identical exports when run twice in one process, i.e. under two
/// different `RandomState`s.
#[test]
fn ddl_walk_order_is_independent_of_hash_state() {
    let run = || {
        let topo = mr_sim::Topology::build(
            &mr_sim::RttMatrix::paper_table1_regions(),
            3,
            mr_sim::RttMatrix::paper_table1(),
        );
        let mut d = mr_sql::exec::SqlDb::new(topo, ClusterConfig::default());
        let sess = d.session(mr_sim::NodeId(0), None);
        d.exec_script(
            &sess,
            r#"
            CREATE DATABASE shop PRIMARY REGION "us-east1"
                REGIONS "us-west1", "europe-west2", "asia-northeast1";
            CREATE TABLE customers (id INT PRIMARY KEY, email STRING UNIQUE NOT NULL)
                LOCALITY REGIONAL BY ROW;
            CREATE TABLE orders (id INT PRIMARY KEY, customer INT, total INT);
            CREATE TABLE items (id INT PRIMARY KEY, name STRING) LOCALITY GLOBAL;
            CREATE TABLE carts (id INT PRIMARY KEY, customer INT)
                LOCALITY REGIONAL BY TABLE IN "us-west1";
            CREATE TABLE reviews (id INT PRIMARY KEY, item INT, stars INT)
                LOCALITY REGIONAL BY TABLE IN "europe-west2";
            CREATE TABLE coupons (code STRING PRIMARY KEY, pct INT) LOCALITY GLOBAL;
            CREATE INDEX orders_by_customer ON orders (customer);
            INSERT INTO customers (id, email) VALUES (1, 'a@x.com'), (2, 'b@x.com');
            INSERT INTO orders (id, customer, total) VALUES (1, 1, 10), (2, 2, 20), (3, 1, 30);
            ALTER DATABASE shop ADD REGION "australia-southeast1";
            ALTER DATABASE shop SURVIVE REGION FAILURE;
            ALTER TABLE orders SET LOCALITY REGIONAL BY ROW;
            ALTER TABLE carts SET LOCALITY GLOBAL;
            "#,
        )
        .unwrap();
        settle(&mut d, secs(10));
        (
            d.cluster.events.export_json(),
            d.cluster.replication_report().export_json(),
            d.cluster.obs.registry.dump_json(),
        )
    };
    let (e1, r1, m1) = run();
    let (e2, r2, m2) = run();
    assert_eq!(e1, e2, "event log diverged");
    assert_eq!(r1, r2, "replication report diverged");
    assert_eq!(m1, m2, "registry dump diverged");
}
