//! # multiregion
//!
//! A from-scratch Rust reproduction of *"Enabling the Next Generation of
//! Multi-Region Applications with CockroachDB"* (SIGMOD 2022): a
//! multi-region SQL database with declarative regions, survivability
//! goals, and table localities, running on a deterministic discrete-event
//! simulation of a geo-distributed cluster.
//!
//! The paper's abstractions are all here:
//!
//! * `CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS ...`
//! * `ALTER DATABASE movr SURVIVE {ZONE|REGION} FAILURE`
//! * `CREATE TABLE ... LOCALITY {GLOBAL | REGIONAL BY TABLE | REGIONAL BY ROW}`
//! * computed and automatic `crdb_region` partitioning, automatic
//!   rehoming, global uniqueness checks over partitioned indexes,
//!   locality-optimized search;
//! * follower reads, non-voting replicas, exact- and bounded-staleness
//!   `AS OF SYSTEM TIME` reads;
//! * the global-transaction protocol: future-time writes, closed
//!   timestamps that lead present time, and commit wait.
//!
//! # Quickstart
//!
//! ```
//! use multiregion::ClusterBuilder;
//!
//! let mut db = ClusterBuilder::new()
//!     .region("us-east1", 3)
//!     .region("europe-west2", 3)
//!     .region("asia-northeast1", 3)
//!     .build();
//! let sess = db.session_in_region("us-east1", None);
//! db.exec_script(&sess, r#"
//!     CREATE DATABASE movr PRIMARY REGION "us-east1"
//!         REGIONS "europe-west2", "asia-northeast1";
//!     CREATE TABLE users (
//!         id INT PRIMARY KEY,
//!         email STRING UNIQUE NOT NULL
//!     ) LOCALITY REGIONAL BY ROW;
//!     CREATE TABLE promo_codes (
//!         code STRING PRIMARY KEY,
//!         description STRING
//!     ) LOCALITY GLOBAL;
//! "#).unwrap();
//! db.exec_sync(&sess, "INSERT INTO users (id, email) VALUES (1, 'a@b.c')").unwrap();
//! let rows = db.exec_sync(&sess, "SELECT * FROM users WHERE email = 'a@b.c'").unwrap();
//! assert_eq!(rows.rows().len(), 1);
//! ```
//!
//! The crates underneath (`mr_sim`, `mr_clock`, `mr_proto`, `mr_storage`,
//! `mr_raft`, `mr_kv`, `mr_sql`, `mr_workload`) are re-exported for
//! direct access to the substrates.

pub use mr_clock as clock;
pub use mr_kv as kv;
pub use mr_obs as obs;
pub use mr_proto as proto;
pub use mr_raft as raft;
pub use mr_sim as sim;
pub use mr_sql as sql;
pub use mr_storage as storage;
pub use mr_workload as workload;

pub use mr_kv::cluster::{ClusterConfig, ReadOptions, Staleness};
pub use mr_sim::{NodeId, RttMatrix, SimDuration, SimTime, Topology};
pub use mr_sql::exec::{Session, SqlDb, SqlError, SqlResult};
pub use mr_sql::types::Datum;

/// Builds a simulated multi-region cluster and the SQL database on it.
///
/// Regions default to the paper's Table 1 RTTs when their names match the
/// five GCP regions measured there; otherwise provide a matrix with
/// [`ClusterBuilder::rtt_matrix`] or accept the synthetic default.
pub struct ClusterBuilder {
    regions: Vec<(String, usize)>,
    rtt: Option<RttMatrix>,
    cfg: ClusterConfig,
}

impl ClusterBuilder {
    #[allow(clippy::new_without_default)]
    pub fn new() -> ClusterBuilder {
        ClusterBuilder {
            regions: Vec::new(),
            rtt: None,
            cfg: ClusterConfig::default(),
        }
    }

    /// Add a region with `nodes` nodes (each in its own availability zone).
    pub fn region(mut self, name: &str, nodes: usize) -> Self {
        self.regions.push((name.to_string(), nodes));
        self
    }

    /// The five-region topology of the paper's Table 1.
    pub fn paper_regions(mut self) -> Self {
        self.regions = RttMatrix::paper_table1_regions()
            .iter()
            .map(|r| (r.to_string(), 3))
            .collect();
        self.rtt = Some(RttMatrix::paper_table1());
        self
    }

    /// Explicit inter-region RTT matrix (must match the region count).
    pub fn rtt_matrix(mut self, rtt: RttMatrix) -> Self {
        self.rtt = Some(rtt);
        self
    }

    /// Maximum tolerated clock skew (`max_clock_offset`, §6.1). The paper's
    /// default is 250ms.
    pub fn max_clock_offset(mut self, offset: SimDuration) -> Self {
        self.cfg = self.cfg.with_max_offset(offset);
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Access the full low-level configuration.
    pub fn config(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.cfg);
        self
    }

    pub fn build(self) -> SqlDb {
        assert!(!self.regions.is_empty(), "add at least one region");
        let names: Vec<&str> = self.regions.iter().map(|(n, _)| n.as_str()).collect();
        let nodes_per_region = self.regions[0].1;
        assert!(
            self.regions.iter().all(|(_, n)| *n == nodes_per_region),
            "per-region node counts must match (current limitation)"
        );
        let rtt = self.rtt.unwrap_or_else(|| {
            if names == RttMatrix::paper_table1_regions() {
                RttMatrix::paper_table1()
            } else {
                RttMatrix::synthetic(names.len())
            }
        });
        let topo = Topology::build(&names, nodes_per_region, rtt);
        SqlDb::new(topo, self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_topology() {
        let db = ClusterBuilder::new()
            .region("a", 3)
            .region("b", 3)
            .seed(1)
            .build();
        assert_eq!(db.cluster.topology().num_nodes(), 6);
        assert_eq!(db.cluster.topology().num_regions(), 2);
    }

    #[test]
    fn paper_regions_shortcut() {
        let db = ClusterBuilder::new().paper_regions().build();
        assert_eq!(db.cluster.topology().num_regions(), 5);
        assert_eq!(db.cluster.topology().num_nodes(), 15);
        assert_eq!(
            db.cluster.topology().region_name(mr_sim::RegionId(0)),
            "us-east1"
        );
    }

    #[test]
    fn max_offset_propagates() {
        let db = ClusterBuilder::new()
            .region("a", 3)
            .max_clock_offset(SimDuration::from_millis(50))
            .build();
        assert_eq!(
            db.cluster.cfg.clock.max_offset,
            SimDuration::from_millis(50)
        );
        assert_eq!(
            db.cluster.cfg.closed_ts.max_clock_offset(),
            SimDuration::from_millis(50)
        );
    }
}
