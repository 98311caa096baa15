//! Dataset preloading.
//!
//! The paper populates tables before each experiment ("each table is
//! populated with 100k keys", §7.1.1). Loading through transactions would
//! dominate simulation time, so this module hands every row to
//! [`Cluster::ingest`](mr_kv::Cluster::ingest) in one batch — the paper's
//! bulk IMPORT: one sorted run per range, shared by all of its replicas.

use mr_sql::catalog::Table;
use mr_sql::ddl::entry_key;
use mr_sql::encoding::encode_row;
use mr_sql::exec::SqlDb;
use mr_sql::types::Datum;

/// Preload fully-formed rows into `table` (all of its indexes). Each row
/// must contain every column in catalog order, including hidden ones
/// (`crdb_region` for RBR tables decides the partition).
pub fn load_rows(db: &mut SqlDb, db_name: &str, table: &str, rows: &[Vec<Datum>]) {
    let table: Table = {
        let cat = db.catalog.borrow();
        cat.table(db_name, table)
            .unwrap_or_else(|| panic!("unknown table {table:?}"))
            .clone()
    };
    let mut entries = Vec::with_capacity(rows.len() * table.indexes.len());
    for row in rows {
        assert_eq!(
            row.len(),
            table.columns.len(),
            "row arity mismatch for {}",
            table.name
        );
        let region = if table.primary_index().region_partitioned {
            table
                .region_column()
                .and_then(|o| row.get(o))
                .and_then(|d| d.as_str())
                .map(|s| s.to_string())
        } else {
            None
        };
        let value = encode_row(row);
        for index in &table.indexes {
            let key = entry_key(&table, index, region.as_deref(), row);
            entries.push((key, value.clone()));
        }
    }
    if let Err(e) = db.cluster.ingest(entries) {
        panic!("loading {}: {e}", table.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_kv::cluster::ClusterConfig;
    use mr_sim::{NodeId, RttMatrix, Topology};

    #[test]
    fn preloaded_rows_are_readable() {
        let topo = Topology::build(
            &RttMatrix::paper_table1_regions(),
            3,
            RttMatrix::paper_table1(),
        );
        let mut d = SqlDb::new(topo, ClusterConfig::default());
        let sess = d.session(NodeId(0), None);
        d.exec_script(
            &sess,
            r#"
            CREATE DATABASE test PRIMARY REGION "us-east1" REGIONS "europe-west2";
            CREATE TABLE kv (k INT PRIMARY KEY, v STRING) LOCALITY REGIONAL BY ROW;
            "#,
        )
        .unwrap();
        let rows: Vec<Vec<Datum>> = (0..100)
            .map(|i| {
                vec![
                    Datum::Int(i),
                    Datum::String(format!("v{i}")),
                    Datum::Region(if i % 2 == 0 {
                        "us-east1".into()
                    } else {
                        "europe-west2".into()
                    }),
                ]
            })
            .collect();
        load_rows(&mut d, "test", "kv", &rows);
        let res = d.exec_sync(&sess, "SELECT v FROM kv WHERE k = 42").unwrap();
        assert_eq!(res.rows()[0][0], Datum::String("v42".into()));
        let res = d
            .exec_sync(&sess, "SELECT crdb_region FROM kv WHERE k = 43")
            .unwrap();
        assert_eq!(res.rows()[0][0].to_string(), "'europe-west2'");
        // Rows are updatable through the normal path afterwards.
        d.exec_sync(&sess, "UPDATE kv SET v = 'new' WHERE k = 42")
            .unwrap();
        let res = d.exec_sync(&sess, "SELECT v FROM kv WHERE k = 42").unwrap();
        assert_eq!(res.rows()[0][0], Datum::String("new".into()));
    }
}
