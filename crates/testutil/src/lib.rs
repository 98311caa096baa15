//! Shared integration-test support.
//!
//! The sql and chaos test suites all build the same canonical fixture — a
//! three-region movr database with a REGIONAL BY ROW table and a GLOBAL
//! table — and poke at it with the same handful of accessors. They live
//! here once, as a dev-dependency, instead of being copy-pasted per test
//! file.

use mr_kv::cluster::ClusterConfig;
use mr_proto::{Key, RangeId};
use mr_sim::{NodeId, RttMatrix, SimDuration, SimTime, Topology};
use mr_sql::exec::{Session, SqlDb};
use mr_sql::types::Datum;

/// The canonical three-region cluster (60ms uniform RTT) with the movr
/// schema: `users` REGIONAL BY ROW, `promo_codes` GLOBAL, primary region
/// us-east1. Runs the cluster 5 simulated seconds so leases and initial
/// placement settle before the test starts.
pub fn three_region_db(cfg: ClusterConfig) -> SqlDb {
    let topo = Topology::build(
        &["us-east1", "europe-west2", "asia-northeast1"],
        3,
        RttMatrix::uniform(3, SimDuration::from_millis(60)),
    );
    let mut d = SqlDb::new(topo, cfg);
    let sess = d.session(NodeId(0), None);
    d.exec_script(
        &sess,
        r#"
        CREATE DATABASE movr PRIMARY REGION "us-east1"
            REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (
            id INT PRIMARY KEY,
            email STRING UNIQUE NOT NULL
        ) LOCALITY REGIONAL BY ROW;
        CREATE TABLE promo_codes (
            code STRING PRIMARY KEY,
            description STRING
        ) LOCALITY GLOBAL;
        "#,
    )
    .unwrap();
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));
    d
}

/// Unwrap an integer datum (panics with the datum on mismatch).
pub fn as_int(d: &Datum) -> i64 {
    d.as_int().unwrap_or_else(|| panic!("not an int: {d:?}"))
}

/// Unwrap a string datum (panics with the datum on mismatch).
pub fn as_str(d: &Datum) -> &str {
    d.as_str().unwrap_or_else(|| panic!("not a string: {d:?}"))
}

/// Advance the simulation by `dur` from wherever it currently is.
pub fn settle(d: &mut SqlDb, dur: SimDuration) {
    d.cluster
        .run_until(SimTime(d.cluster.now().nanos() + dur.nanos()));
}

/// Split the range holding `key` at `key` and let the surgery apply. Returns
/// the right-hand half's id.
pub fn split_at(d: &mut SqlDb, key: Key) -> RangeId {
    let rhs = d.cluster.admin_split_at(key).expect("split proposed");
    settle(d, secs(5));
    assert!(d.cluster.registry().get(rhs).is_some(), "split applied");
    rhs
}

/// Scrape the served-follower-read counter through the SQL surface
/// (`crdb_internal.node_metrics`), as a user would.
pub fn follower_reads_served(d: &mut SqlDb, sess: &Session) -> i64 {
    let vt = d
        .exec_sync(
            sess,
            "SELECT metric, value FROM crdb_internal.node_metrics \
             WHERE metric = 'kv.read.follower.served'",
        )
        .unwrap();
    assert_eq!(vt.rows().len(), 1);
    as_int(&vt.rows()[0][1])
}

/// Shorthand for whole simulated seconds.
pub fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// Workload start offset inside `run_chaos` (its stabilization period):
/// chaos fault offsets and availability windows are both relative to it.
pub const WORKLOAD_START: SimDuration = SimDuration::from_secs(3);

/// Absolute simulated time of a chaos-schedule offset (which is relative
/// to the workload start).
pub fn at(offset: SimDuration) -> SimTime {
    SimTime(WORKLOAD_START.nanos() + offset.nanos())
}
