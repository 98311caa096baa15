//! Locality-optimized search (§4.2) counted by its KV reads: a unique
//! lookup that finds its row in the gateway's region reads once; one that
//! misses there probes every other region of the database, in
//! `remote_regions` order, and returns the row.

use mr_kv::cluster::ClusterConfig;
use mr_sim::{RttMatrix, SimDuration, SimTime, Topology};
use mr_sql::exec::SqlDb;

/// The paper's five-region topology with tracing on, and a three-region
/// database holding one REGIONAL BY ROW table.
fn traced_db() -> SqlDb {
    let topo = Topology::build(
        &RttMatrix::paper_table1_regions(),
        3,
        RttMatrix::paper_table1(),
    );
    let mut d = SqlDb::new(
        topo,
        ClusterConfig {
            tracing: true,
            ..ClusterConfig::default()
        },
    );
    let sess = d.session(mr_sim::NodeId(0), None);
    d.exec_script(
        &sess,
        r#"
        CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "europe-west2", "asia-northeast1";
        CREATE TABLE users (id INT PRIMARY KEY, name STRING) LOCALITY REGIONAL BY ROW;
        "#,
    )
    .unwrap();
    d.cluster
        .run_until(SimTime(SimDuration::from_secs(5).nanos()));
    d
}

/// The range backing `users`' primary-index partition of `region`.
fn partition_range(d: &SqlDb, region: &str) -> String {
    let cat = d.catalog.borrow();
    let t = cat.table("movr", "users").unwrap();
    let span = mr_sql::encoding::partition_span(t.id, t.primary_index().id, Some(region));
    let ranges: Vec<_> = d.cluster.registry().lookup_span(&span).collect();
    assert_eq!(ranges.len(), 1, "one range backs the {region} partition");
    ranges[0].id.to_string()
}

/// Run `sql` in `region`; the ranges of the point reads (`rpc.get`) it
/// sent, in the order it sent them, and the rows it returned.
fn reads_of(d: &mut SqlDb, region: &str, sql: &str) -> (Vec<String>, usize) {
    let gets = |d: &SqlDb| d.cluster.obs.tracer.find_by_name("rpc.get");
    let counter = d
        .cluster
        .obs
        .registry
        .counter("kv.rpc.sent_by_kind", &[("kind", "get")]);
    let (before, sent_before) = (gets(d).len(), counter.get());
    let sess = d.session_in_region(region, Some("movr"));
    let rows = d.exec_sync(&sess, sql).unwrap().rows().len();
    let ranges: Vec<String> = gets(d)[before..]
        .iter()
        .map(|&id| {
            let span = d.cluster.obs.tracer.get(id);
            let range = span.attrs.iter().find(|(k, _)| *k == "range");
            range.expect("an rpc span names its range").1.clone()
        })
        .collect();
    assert_eq!(counter.get() - sent_before, ranges.len() as u64);
    (ranges, rows)
}

#[test]
fn a_unique_lookup_that_hits_locally_reads_once() {
    let mut d = traced_db();
    let eu = d.session_in_region("europe-west2", Some("movr"));
    d.exec_sync(&eu, "INSERT INTO users (id, name) VALUES (9, 'eu')")
        .unwrap();
    let (ranges, rows) = reads_of(&mut d, "europe-west2", "SELECT * FROM users WHERE id = 9");
    assert_eq!(rows, 1);
    assert_eq!(ranges, vec![partition_range(&d, "europe-west2")]);
}

#[test]
fn a_unique_lookup_that_misses_probes_every_remote_region_in_order() {
    let mut d = traced_db();
    let asia = d.session_in_region("asia-northeast1", Some("movr"));
    d.exec_sync(&asia, "INSERT INTO users (id, name) VALUES (7, 'asia')")
        .unwrap();
    let (ranges, rows) = reads_of(&mut d, "us-east1", "SELECT * FROM users WHERE id = 7");
    assert_eq!(rows, 1, "the fan-out finds the row");
    let regions: Vec<String> = {
        let cat = d.catalog.borrow();
        let db = &cat.databases["movr"];
        mr_sql::plan::remote_regions(&db.regions, "us-east1")
            .map(String::from)
            .collect()
    };
    assert_eq!(regions, ["europe-west2", "asia-northeast1"]);
    let mut want = vec![partition_range(&d, "us-east1")];
    want.extend(regions.iter().map(|r| partition_range(&d, r)));
    assert_eq!(
        ranges, want,
        "local first, then every remote region in order"
    );
}
