//! Post-run output audit: the final table contents, read back through SQL
//! (TPC-C) or `admin_scan_range` (YCSB), must be explained by the loaded data plus the ops the driver saw
//! acknowledged (or left in doubt by a failure).

use std::collections::{HashMap, HashSet};

use mr_proto::{Key, RangeId};
use mr_sql::encoding::{decode_row, index_prefix};
use mr_sql::exec::SqlDb;
use mr_sql::types::Datum;

use crate::driver::{Fact, Outcome};
use crate::workloads::{loaded_value, AuditPlan, YCSB_TABLE};

/// Violations found; each is one line naming what disagreed.
pub fn audit(db: &mut SqlDb, plan: &AuditPlan, out: &Outcome) -> Vec<String> {
    let mut v = match plan {
        AuditPlan::Ycsb { keys } => audit_ycsb(db, *keys, out),
        AuditPlan::Tpcc { cfg } => audit_tpcc(db, cfg.regions[0].as_str(), out),
    };
    let monitors = db.cluster.obs.monitors.violation_count();
    if monitors > 0 {
        v.push(format!("{monitors} invariant-monitor violations"));
    }
    let report = db.cluster.replication_report().violations();
    if report > 0 {
        v.push(format!("{report} replication-report violations"));
    }
    v
}

fn select(db: &mut SqlDb, region: &str, database: &str, sql: &str) -> Vec<Vec<Datum>> {
    let sess = db.session_in_region(region, Some(database));
    match db.exec_sync(&sess, sql) {
        Ok(res) => res.rows().to_vec(),
        Err(e) => panic!("audit query {sql:?} failed: {e}"),
    }
}

/// Row count = loaded keys (the workloads insert none), and every final
/// value is the loaded one or one an acknowledged / in-doubt write put
/// there; a key with an acknowledged write no longer holds its loaded value.
fn audit_ycsb(db: &mut SqlDb, keys: u64, out: &Outcome) -> Vec<String> {
    let mut written: HashMap<u64, HashSet<u64>> = HashMap::new();
    let mut acked: HashSet<u64> = HashSet::new();
    for (fact, failed) in &out.facts {
        if let Fact::YcsbWrite { key, tag } = fact {
            written.entry(*key).or_default().insert(*tag);
            if !failed {
                acked.insert(*key);
            }
        }
    }
    // Read the primary index range by range off the leaseholders' applied
    // state: a SQL scan stops at the first range of a partition, and
    // `wide_idle` pre-splits its partitions.
    let prefix = {
        let cat = db.catalog.borrow();
        let t = cat.table("ycsb", YCSB_TABLE).expect("ycsb table");
        Key::from_vec(index_prefix(t.id, t.primary_index().id))
    };
    let ranges: Vec<RangeId> = db
        .cluster
        .registry()
        .iter()
        .filter(|d| d.span.start.starts_with(&prefix))
        .map(|d| d.id)
        .collect();
    let rows: Vec<Vec<Datum>> = ranges
        .into_iter()
        .flat_map(|id| db.cluster.admin_scan_range(id))
        .map(|(_, value)| decode_row(&value).expect("stored row decodes"))
        .collect();
    let mut v = Vec::new();
    if rows.len() as u64 != keys {
        v.push(format!("ycsb row count {} != loaded {keys}", rows.len()));
    }
    let mut bad = 0usize;
    for row in &rows {
        let (Some(k), Some(val)) = (row[0].as_int(), row[1].as_str()) else {
            bad += 1;
            continue;
        };
        let k = k as u64;
        let is_loaded = row[1] == loaded_value(k);
        let is_written = val
            .strip_prefix('w')
            .and_then(|t| t.parse::<u64>().ok())
            .is_some_and(|t| written.get(&k).is_some_and(|s| s.contains(&t)));
        let ok = if acked.contains(&k) {
            is_written
        } else {
            is_loaded || is_written
        };
        if !ok {
            bad += 1;
            if v.len() < 5 {
                v.push(format!("ycsb key {k} holds unexplained value {val:?}"));
            }
        }
    }
    if bad > 5 {
        v.push(format!("... {bad} unexplained ycsb rows in total"));
    }
    v
}

/// Per district: rows in `orders` = rows in `new_order` = acknowledged
/// New-Orders (in-doubt ones may or may not have landed), and
/// `d_next_o_id − 1` = that count when nothing in the district failed.
fn audit_tpcc(db: &mut SqlDb, region: &str, out: &Outcome) -> Vec<String> {
    let mut acked: HashMap<(i64, i64), i64> = HashMap::new();
    let mut in_doubt: HashMap<(i64, i64), i64> = HashMap::new();
    for (fact, failed) in &out.facts {
        if let Fact::NewOrder { w, d, .. } = fact {
            let slot = if *failed { &mut in_doubt } else { &mut acked };
            *slot.entry((*w as i64, *d as i64)).or_default() += 1;
        }
    }
    let count_by_district = |rows: Vec<Vec<Datum>>| {
        let mut m: HashMap<(i64, i64), i64> = HashMap::new();
        for r in rows {
            let key = (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1));
            *m.entry(key).or_default() += 1;
        }
        m
    };
    let orders = count_by_district(select(
        db,
        region,
        "tpcc",
        "SELECT o_w_id, o_d_id FROM orders",
    ));
    let new_orders = count_by_district(select(
        db,
        region,
        "tpcc",
        "SELECT no_w_id, no_d_id FROM new_order",
    ));
    let districts = select(
        db,
        region,
        "tpcc",
        "SELECT d_w_id, d_id, d_next_o_id FROM district",
    );
    let mut v = Vec::new();
    let mut sum_next = 0;
    for r in &districts {
        let key = (r[0].as_int().unwrap_or(-1), r[1].as_int().unwrap_or(-1));
        let next = r[2].as_int().unwrap_or(-1);
        let o = orders.get(&key).copied().unwrap_or(0);
        let n = new_orders.get(&key).copied().unwrap_or(0);
        let a = acked.get(&key).copied().unwrap_or(0);
        let doubt = in_doubt.get(&key).copied().unwrap_or(0);
        sum_next += next - 1;
        let explained =
            o == n && (a..=a + doubt).contains(&o) && next > o && (doubt > 0 || next - 1 == o);
        if !explained && v.len() < 5 {
            v.push(format!(
                "tpcc district {key:?}: d_next_o_id={next} orders={o} new_order={n} acked={a} in_doubt={doubt}"
            ));
        }
    }
    let total_orders: i64 = orders.values().sum();
    let total_doubt: i64 = in_doubt.values().sum();
    if total_doubt == 0 && sum_next != total_orders {
        v.push(format!(
            "tpcc sum(d_next_o_id - 1) = {sum_next} != rows in orders = {total_orders}"
        ));
    }
    v
}
