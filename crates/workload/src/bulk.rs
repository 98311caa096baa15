//! Dataset preloading.
//!
//! The paper populates tables before each experiment ("each table is
//! populated with 100k keys", §7.1.1). Loading through transactions would
//! dominate simulation time, so this module hands every row to
//! [`Cluster::ingest`](mr_kv::Cluster::ingest) in one batch — the paper's
//! bulk IMPORT: one sorted run per range, shared by all of its replicas.
//! The rows are encoded into one buffer of keys and one of values
//! ([`index_entries`]), so a load allocates per batch and per run, not per
//! row.

use mr_sql::catalog::Table;
use mr_sql::ddl::index_entries;
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
    let arity = table.columns.len();
    assert!(
        rows.iter().all(|row| row.len() == arity),
        "row arity mismatch for {}",
        table.name
    );
    let entries = index_entries(&table, rows, 0..table.indexes.len());
    if let Err(e) = db.cluster.ingest(entries) {
        panic!("loading {}: {e}", table.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_kv::cluster::ClusterConfig;
    use mr_kv::IngestError;
    use mr_sim::{NodeId, RttMatrix, Topology};

    #[test]
    fn rows_sharing_a_unique_value_load_nothing() {
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
            CREATE TABLE users (id INT PRIMARY KEY, email STRING UNIQUE);
            "#,
        )
        .unwrap();
        let row = |id, email: &str| vec![Datum::Int(id), Datum::String(email.into())];
        let rows = [row(1, "a@x"), row(2, "b@x"), row(3, "a@x")];
        let table = d.catalog.borrow().table("test", "users").unwrap().clone();
        let email = table.index_by_name("users_email_key").unwrap();
        let repeated = mr_sql::ddl::entry_key(&table, email, None, &rows[0]);
        let entries = index_entries(&table, &rows, 0..table.indexes.len());
        assert_eq!(
            d.cluster.ingest(entries),
            Err(IngestError::Duplicate(repeated))
        );
        // Neither the primary rows nor the index entries went in.
        let res = d
            .exec_sync(&sess, "SELECT id FROM users WHERE id = 1")
            .unwrap();
        assert!(res.rows().is_empty());
    }

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
