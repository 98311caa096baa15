//! Read-only `crdb_internal` virtual tables and the `SHOW RANGES` /
//! `SHOW SURVIVAL GOAL` introspection surface.
//!
//! Virtual tables are computed from live cluster + catalog state at
//! execution time — no KV reads, no transactions:
//!
//! * `crdb_internal.ranges` — every range with its schema object (database,
//!   table, index, partition), home region, leaseholder placement, and
//!   voter / non-voter sets;
//! * `crdb_internal.node_metrics` — a SQL view over the observability
//!   registry (counters, gauges, histogram percentiles);
//! * `crdb_internal.cluster_events` — the bounded admin event log
//!   (range lifecycle, lease transfers, zone-config changes, row rehoming);
//! * `crdb_internal.replication_report` — per-range conformance
//!   classification against the derived zone configs;
//! * `crdb_internal.hot_ranges` — ranges ranked by EWMA-decayed QPS with
//!   their read/write split, write throughput, mean latency, and
//!   leaseholder placement;
//! * `crdb_internal.metrics_history` — the windowed time-series store:
//!   every retained scrape sample at both resolutions, with per-sample
//!   instantaneous rates;
//! * `crdb_internal.slow_txns` — slowest finished transactions with their
//!   latency attributed to named components (rpc, replication, lock-wait,
//!   commit-wait, retry), plus the root trace-span id and range set;
//! * `crdb_internal.session_trace` — the flattened span tree (attrs and
//!   events included) of the most recently finished SQL statement;
//! * `crdb_internal.active_operations` — transactions currently in flight,
//!   with their root span and elapsed sim-time.
//!
//! Row order is deterministic (sorted by id / registry order), so
//! same-seed runs produce identical results.

use std::collections::BTreeMap;

use mr_kv::cluster::Cluster;
use mr_kv::range::RangeDescriptor;
use mr_obs::Resolution;
use mr_proto::{Key, RangeId, Span};
use mr_sim::{NodeId, SimTime};

use crate::catalog::{partitions, Catalog, Column, PartitionKey, Table, TableLocality};
use crate::types::{ColumnType, Datum};

/// Namespace prefix routing a `SELECT` to the virtual-table executor.
pub const PREFIX: &str = "crdb_internal.";

/// Whether a FROM-clause name refers to a virtual table.
pub fn is_virtual(name: &str) -> bool {
    name.starts_with(PREFIX)
}

/// Synthetic schema for one virtual table (predicate evaluation and
/// projection reuse the regular [`Table`] machinery).
fn vtab(name: &str, cols: &[(&str, ColumnType)]) -> Table {
    Table {
        id: 0,
        name: name.to_string(),
        columns: cols
            .iter()
            .map(|&(n, ty)| Column {
                name: n.to_string(),
                ty,
                not_null: false,
                hidden: false,
                default: None,
                computed: None,
                on_update: None,
                references: None,
            })
            .collect(),
        locality: TableLocality::Global,
        indexes: Vec::new(),
        manual_partitioning: None,
        zone_override: None,
        next_index_id: 1,
    }
}

/// Schema-object names for one range.
struct RangeNames {
    db: String,
    table: String,
    index: String,
    partition: String,
}

fn partition_label(key: &PartitionKey) -> String {
    match key {
        PartitionKey::Whole => String::new(),
        PartitionKey::Region(r) => r.clone(),
        PartitionKey::Manual(m) => m.clone(),
    }
}

/// The schema object owning each partition span of the catalog, keyed by
/// where the span starts.
struct SchemaSpans(BTreeMap<Key, (Span, RangeNames)>);

impl SchemaSpans {
    fn of(catalog: &Catalog) -> SchemaSpans {
        let mut out = BTreeMap::new();
        for (db_name, db) in &catalog.databases {
            for (table_name, table) in &db.tables {
                for index in &table.indexes {
                    for (key, span) in partitions(db, table, index) {
                        let names = RangeNames {
                            db: db_name.clone(),
                            table: table_name.clone(),
                            index: index.name.clone(),
                            partition: partition_label(&key),
                        };
                        out.insert(span.start.clone(), (span, names));
                    }
                }
            }
        }
        SchemaSpans(out)
    }

    /// The schema object `desc` belongs to. Partition edges are range
    /// boundaries, so a range — created by DDL or carved out by a split —
    /// lies inside the one partition span that holds its start key.
    fn owner(&self, desc: &RangeDescriptor) -> Option<&RangeNames> {
        let start = &desc.span.start;
        let (_, (span, names)) = self.0.range(..=start).next_back()?;
        span.contains(start).then_some(names)
    }
}

fn node_list(mut nodes: Vec<NodeId>) -> String {
    nodes.sort();
    nodes
        .iter()
        .map(|n| format!("n{}", n.0))
        .collect::<Vec<_>>()
        .join(",")
}

/// Home region (first lease preference), leaseholder node + region, and
/// sorted voter / non-voter lists of a range.
fn placement(cluster: &Cluster, desc: &RangeDescriptor) -> [Datum; 5] {
    let topo = cluster.topology();
    let home = desc
        .zone_config
        .lease_preferences
        .first()
        .map(|&r| topo.region_name(r).to_string())
        .unwrap_or_default();
    let lh_region = topo
        .region_name(topo.region_of(desc.leaseholder))
        .to_string();
    [
        Datum::String(home),
        Datum::Int(desc.leaseholder.0 as i64),
        Datum::String(lh_region),
        Datum::String(node_list(desc.voters().collect())),
        Datum::String(node_list(desc.non_voters().collect())),
    ]
}

/// `crdb_internal.ranges`.
fn ranges(cluster: &Cluster, catalog: &Catalog) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.ranges",
        &[
            ("range_id", ColumnType::Int),
            ("database_name", ColumnType::String),
            ("table_name", ColumnType::String),
            ("index_name", ColumnType::String),
            ("partition", ColumnType::String),
            ("home_region", ColumnType::String),
            ("leaseholder_node", ColumnType::Int),
            ("leaseholder_region", ColumnType::String),
            ("voters", ColumnType::String),
            ("non_voters", ColumnType::String),
            ("origin", ColumnType::String),
            ("parent_range", ColumnType::Int),
            ("split_key", ColumnType::String),
            ("splits", ColumnType::Int),
            ("merges_absorbed", ColumnType::Int),
            ("lease_rebalances", ColumnType::Int),
            ("replica_rebalances", ColumnType::Int),
            ("gc_ttl_millis", ColumnType::Int),
            ("gc_threshold", ColumnType::Int),
            ("memtable_versions", ColumnType::Int),
            ("sst_runs", ColumnType::Int),
            ("sst_versions", ColumnType::Int),
            ("wal_bytes", ColumnType::Int),
        ],
    );
    let spans = SchemaSpans::of(catalog);
    let rows = cluster
        .registry()
        .iter()
        .map(|desc| {
            let mut row = vec![Datum::Int(desc.id.0 as i64)];
            match spans.owner(desc) {
                Some(n) => row.extend([
                    Datum::String(n.db.clone()),
                    Datum::String(n.table.clone()),
                    Datum::String(n.index.clone()),
                    Datum::String(n.partition.clone()),
                ]),
                None => row.extend([Datum::Null, Datum::Null, Datum::Null, Datum::Null]),
            }
            row.extend(placement(cluster, desc));
            match cluster.lineage_of(desc.id) {
                Some(l) => row.extend([
                    Datum::String(l.origin.to_string()),
                    l.parent
                        .map(|p| Datum::Int(p.0 as i64))
                        .unwrap_or(Datum::Null),
                    l.split_key
                        .clone()
                        .map(Datum::String)
                        .unwrap_or(Datum::Null),
                    Datum::Int(l.splits as i64),
                    Datum::Int(l.merges_absorbed as i64),
                    Datum::Int(l.lease_rebalances as i64),
                    Datum::Int(l.replica_rebalances as i64),
                ]),
                None => row.extend(std::iter::repeat_n(Datum::Null, 7)),
            }
            match cluster.storage_info_of(desc.id) {
                Some(s) => row.extend([
                    Datum::Int(s.gc_ttl.nanos() as i64 / 1_000_000),
                    Datum::Int(s.gc_threshold.wall as i64),
                    Datum::Int(s.memtable_versions as i64),
                    Datum::Int(s.sst_runs as i64),
                    Datum::Int(s.sst_versions as i64),
                    Datum::Int(s.wal_bytes as i64),
                ]),
                None => row.extend(std::iter::repeat_n(Datum::Null, 6)),
            }
            row
        })
        .collect();
    (schema, rows)
}

/// `crdb_internal.node_metrics`.
fn node_metrics(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.node_metrics",
        &[
            ("kind", ColumnType::String),
            ("metric", ColumnType::String),
            ("value", ColumnType::Int),
        ],
    );
    let snap = cluster.obs.registry.snapshot();
    let mut rows = Vec::new();
    for (k, v) in &snap.counters {
        rows.push(vec![
            Datum::String("counter".into()),
            Datum::String(k.to_string()),
            Datum::Int(*v as i64),
        ]);
    }
    for (k, v) in &snap.gauges {
        rows.push(vec![
            Datum::String("gauge".into()),
            Datum::String(k.to_string()),
            Datum::Int(*v),
        ]);
    }
    for (k, h) in &snap.histograms {
        for (stat, v) in [
            ("count", h.count),
            ("p50", h.p50),
            ("p99", h.p99),
            ("max", h.max),
        ] {
            rows.push(vec![
                Datum::String("histogram".into()),
                Datum::String(format!("{k}#{stat}")),
                Datum::Int(v as i64),
            ]);
        }
    }
    (schema, rows)
}

/// `crdb_internal.cluster_events`.
fn cluster_events(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.cluster_events",
        &[
            ("seq", ColumnType::Int),
            ("time_ns", ColumnType::Int),
            ("kind", ColumnType::String),
            ("range_id", ColumnType::Int),
            ("detail", ColumnType::String),
        ],
    );
    let rows = cluster
        .events
        .events()
        .iter()
        .map(|e| {
            vec![
                Datum::Int(e.seq as i64),
                Datum::Int(e.at.0 as i64),
                Datum::String(e.kind.label().into()),
                e.kind
                    .range()
                    .map(|r| Datum::Int(r.0 as i64))
                    .unwrap_or(Datum::Null),
                Datum::String(e.kind.detail()),
            ]
        })
        .collect();
    (schema, rows)
}

/// `crdb_internal.replication_report`.
fn replication_report(cluster: &Cluster, catalog: &Catalog) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.replication_report",
        &[
            ("range_id", ColumnType::Int),
            ("table_name", ColumnType::String),
            ("partition", ColumnType::String),
            ("status", ColumnType::String),
            ("detail", ColumnType::String),
        ],
    );
    let spans = SchemaSpans::of(catalog);
    let report = cluster.replication_report();
    let rows = report
        .ranges
        .iter()
        .map(|c| {
            let desc = cluster.registry().get(c.range);
            let (table, partition) = desc
                .and_then(|d| spans.owner(d))
                .map(|n| {
                    (
                        Datum::String(n.table.clone()),
                        Datum::String(n.partition.clone()),
                    )
                })
                .unwrap_or((Datum::Null, Datum::Null));
            vec![
                Datum::Int(c.range.0 as i64),
                table,
                partition,
                Datum::String(c.status().label().into()),
                Datum::String(c.detail()),
            ]
        })
        .collect();
    (schema, rows)
}

/// `crdb_internal.hot_ranges`: ranges ranked by decayed QPS (hottest
/// first), joined with leaseholder placement from the range registry.
fn hot_ranges(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.hot_ranges",
        &[
            ("rank", ColumnType::Int),
            ("range_id", ColumnType::Int),
            ("leaseholder_node", ColumnType::Int),
            ("leaseholder_region", ColumnType::String),
            ("qps_milli", ColumnType::Int),
            ("read_qps_milli", ColumnType::Int),
            ("write_qps_milli", ColumnType::Int),
            ("write_bytes_per_sec", ColumnType::Int),
            ("mean_latency_nanos", ColumnType::Int),
        ],
    );
    let topo = cluster.topology();
    let now = cluster.now();
    let rows = cluster
        .obs
        .load
        .hot_ranges(now)
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let (lh_node, lh_region) = match cluster.registry().get(RangeId(s.range)) {
                Some(d) => (
                    Datum::Int(d.leaseholder.0 as i64),
                    Datum::String(topo.region_name(topo.region_of(d.leaseholder)).to_string()),
                ),
                None => (Datum::Null, Datum::Null),
            };
            vec![
                Datum::Int(i as i64 + 1),
                Datum::Int(s.range as i64),
                lh_node,
                lh_region,
                Datum::Int(s.qps_milli as i64),
                Datum::Int(s.read_qps_milli as i64),
                Datum::Int(s.write_qps_milli as i64),
                Datum::Int(s.write_bytes_per_sec as i64),
                Datum::Int(s.mean_latency_nanos as i64),
            ]
        })
        .collect();
    (schema, rows)
}

/// `crdb_internal.metrics_history`: every sample retained by the scrape
/// store, at both resolutions, with the instantaneous rate
/// against the previous sample (milli-units/sec; NULL on the first sample
/// of a series).
fn metrics_history(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.metrics_history",
        &[
            ("metric", ColumnType::String),
            ("resolution", ColumnType::String),
            ("time_ns", ColumnType::Int),
            ("value", ColumnType::Int),
            ("rate_milli", ColumnType::Int),
        ],
    );
    let scraper = &cluster.obs.scraper;
    let now = cluster.now();
    let windows = [Resolution::Fine, Resolution::Coarse]
        .map(|res| (res, scraper.windows(res, SimTime::ZERO, now)));
    let mut rows = Vec::new();
    for metric in scraper.metrics() {
        for (res, samples) in &windows {
            let mut prev: Option<(SimTime, i64)> = None;
            for &(at, v) in samples.get(&metric).into_iter().flatten() {
                let rate = prev.and_then(|(pat, pv)| {
                    let dt = (at - pat).nanos();
                    if dt == 0 {
                        None
                    } else {
                        Some(((v as i128 - pv as i128) * 1_000_000_000_000i128 / dt as i128) as i64)
                    }
                });
                rows.push(vec![
                    Datum::String(metric.clone()),
                    Datum::String(res.as_str().to_string()),
                    Datum::Int(at.0 as i64),
                    Datum::Int(v),
                    rate.map(Datum::Int).unwrap_or(Datum::Null),
                ]);
                prev = Some((at, v));
            }
        }
    }
    (schema, rows)
}

/// `crdb_internal.slow_txns`: the slowest finished transactions with their
/// latency broken into attribution components.
fn slow_txns(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.slow_txns",
        &[
            ("rank", ColumnType::Int),
            ("txn_id", ColumnType::Int),
            ("gateway_node", ColumnType::Int),
            ("gateway_region", ColumnType::String),
            ("start_ns", ColumnType::Int),
            ("total_nanos", ColumnType::Int),
            ("rpc_nanos", ColumnType::Int),
            ("replication_nanos", ColumnType::Int),
            ("lock_wait_nanos", ColumnType::Int),
            ("commit_wait_nanos", ColumnType::Int),
            ("retry_nanos", ColumnType::Int),
            ("other_nanos", ColumnType::Int),
            ("committed", ColumnType::Bool),
            ("root_span", ColumnType::Int),
            ("ranges", ColumnType::String),
        ],
    );
    let topo = cluster.topology();
    let rows = cluster
        .attr_log
        .slowest(SLOW_TXN_LIMIT)
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let gw = NodeId(r.gateway as u32);
            let mut row = vec![
                Datum::Int(i as i64 + 1),
                Datum::Int(r.txn_id as i64),
                Datum::Int(r.gateway as i64),
                Datum::String(topo.region_name(topo.region_of(gw)).to_string()),
                Datum::Int(r.start.0 as i64),
                Datum::Int(r.breakdown.total_nanos as i64),
            ];
            row.extend(r.breakdown.comp_nanos.iter().map(|&n| Datum::Int(n as i64)));
            row.push(Datum::Int(r.breakdown.other_nanos as i64));
            row.push(Datum::Bool(r.committed));
            row.push(
                r.root_span
                    .map(|s| Datum::Int(s as i64))
                    .unwrap_or(Datum::Null),
            );
            row.push(Datum::String(range_list(&r.ranges)));
            row
        })
        .collect();
    (schema, rows)
}

fn range_list(ranges: &[u64]) -> String {
    ranges
        .iter()
        .map(|r| format!("rng{r}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// `crdb_internal.session_trace`: the span tree of the most recently
/// finished SQL statement (set when tracing was on for it), flattened
/// root-first in creation order. Spans evicted by the retention ring are
/// simply absent.
fn session_trace(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.session_trace",
        &[
            ("span_id", ColumnType::Int),
            ("parent_id", ColumnType::Int),
            ("name", ColumnType::String),
            ("start_ns", ColumnType::Int),
            ("duration_nanos", ColumnType::Int),
            ("attrs", ColumnType::String),
            ("events", ColumnType::String),
        ],
    );
    let tr = &cluster.obs.tracer;
    let mut rows = Vec::new();
    if let Some(root) = cluster.last_stmt_span {
        let mut ids = vec![root];
        ids.extend(tr.descendants(root));
        for id in ids {
            let Some(s) = tr.try_get(id) else { continue };
            rows.push(vec![
                Datum::Int(s.id.raw() as i64),
                s.parent
                    .map(|p| Datum::Int(p.raw() as i64))
                    .unwrap_or(Datum::Null),
                Datum::String(s.name.clone()),
                Datum::Int(s.start.0 as i64),
                s.duration()
                    .map(|d| Datum::Int(d.nanos() as i64))
                    .unwrap_or(Datum::Null),
                Datum::String(
                    s.attrs
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                Datum::String(
                    s.events
                        .iter()
                        .map(|(at, msg)| format!("{}:{msg}", at.0))
                        .collect::<Vec<_>>()
                        .join(","),
                ),
            ]);
        }
    }
    (schema, rows)
}

/// `crdb_internal.active_operations`: transactions currently in flight,
/// with the root span (when traced) and elapsed sim-time, sorted by txn id.
fn active_operations(cluster: &Cluster) -> (Table, Vec<Vec<Datum>>) {
    let schema = vtab(
        "crdb_internal.active_operations",
        &[
            ("txn_id", ColumnType::Int),
            ("gateway_node", ColumnType::Int),
            ("gateway_region", ColumnType::String),
            ("start_ns", ColumnType::Int),
            ("elapsed_nanos", ColumnType::Int),
            ("root_span", ColumnType::Int),
            ("current_span", ColumnType::String),
            ("ranges", ColumnType::String),
        ],
    );
    let topo = cluster.topology();
    let now = cluster.now();
    let tr = &cluster.obs.tracer;
    let rows = cluster
        .active_txns()
        .iter()
        .map(|t| {
            let span_name = t
                .span
                .and_then(|s| tr.try_get(s))
                .map(|s| Datum::String(s.name))
                .unwrap_or(Datum::Null);
            vec![
                Datum::Int(t.id as i64),
                Datum::Int(t.gateway.0 as i64),
                Datum::String(topo.region_name(topo.region_of(t.gateway)).to_string()),
                Datum::Int(t.start.0 as i64),
                Datum::Int((now - t.start).nanos() as i64),
                t.span
                    .map(|s| Datum::Int(s.raw() as i64))
                    .unwrap_or(Datum::Null),
                span_name,
                Datum::String(range_list(&t.ranges)),
            ]
        })
        .collect();
    (schema, rows)
}

/// How many transactions `crdb_internal.slow_txns` surfaces.
const SLOW_TXN_LIMIT: usize = 100;

/// Materialize the named virtual table: its synthetic schema plus all rows
/// in deterministic order. `Err` for unknown names.
pub fn build(
    cluster: &Cluster,
    catalog: &Catalog,
    name: &str,
) -> Result<(Table, Vec<Vec<Datum>>), String> {
    match name {
        "crdb_internal.ranges" => Ok(ranges(cluster, catalog)),
        "crdb_internal.node_metrics" => Ok(node_metrics(cluster)),
        "crdb_internal.cluster_events" => Ok(cluster_events(cluster)),
        "crdb_internal.replication_report" => Ok(replication_report(cluster, catalog)),
        "crdb_internal.hot_ranges" => Ok(hot_ranges(cluster)),
        "crdb_internal.metrics_history" => Ok(metrics_history(cluster)),
        "crdb_internal.slow_txns" => Ok(slow_txns(cluster)),
        "crdb_internal.session_trace" => Ok(session_trace(cluster)),
        "crdb_internal.active_operations" => Ok(active_operations(cluster)),
        _ => Err(format!("unknown virtual table {name:?}")),
    }
}

/// Rows for `SHOW RANGES FROM TABLE t`: (range_id, index, partition,
/// home_region, leaseholder_node, leaseholder_region, voters, non_voters),
/// sorted by range id. Every range lying in one of the table's partition
/// spans is listed, so a table splitting under load shows every current
/// range, not just the ones DDL created.
pub fn show_ranges(
    cluster: &Cluster,
    catalog: &Catalog,
    db: &str,
    table: &str,
) -> Result<Vec<Vec<Datum>>, String> {
    let database = catalog
        .db(db)
        .ok_or_else(|| format!("unknown database {db:?}"))?;
    database
        .tables
        .get(table)
        .ok_or_else(|| format!("unknown table {table:?}"))?;
    let spans = SchemaSpans::of(catalog);
    let rows = cluster
        .registry()
        .iter()
        .filter_map(|desc| {
            let n = spans.owner(desc)?;
            if n.db != db || n.table != table {
                return None;
            }
            let mut row = vec![
                Datum::Int(desc.id.0 as i64),
                Datum::String(n.index.clone()),
                Datum::String(n.partition.clone()),
            ];
            row.extend(placement(cluster, desc));
            Some(row)
        })
        .collect();
    Ok(rows)
}
