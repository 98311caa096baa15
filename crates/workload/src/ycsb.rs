//! YCSB workloads A, B, and D, modified for multi-region evaluation as in
//! the paper (§7.1, §7.2).
//!
//! * **A**: 50% reads / 50% updates, Zipf keys — the Fig. 3 / Fig. 5
//!   workload on REGIONAL BY TABLE and GLOBAL tables.
//! * **B**: 95% reads / 5% updates, uniform keys with a *locality of
//!   access* knob — the Fig. 4a / Fig. 4c workload on REGIONAL BY ROW.
//! * **D**: 95% reads / 5% inserts — the Fig. 4b uniqueness-check workload.
//!
//! Keys are 64-bit integers; rows are `(k INT PRIMARY KEY, v STRING)` plus
//! whatever partitioning column the variant needs.

use mr_sim::{SimDuration, SimRng};
use mr_sql::types::Datum;

use crate::driver::{Op, OpSource};
use crate::zipf::Zipf;

/// Table schema variants for the §7.2 experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbTable {
    /// `LOCALITY REGIONAL BY TABLE IN PRIMARY REGION` (Fig. 3 "Regional").
    RegionalByTable,
    /// `LOCALITY GLOBAL` (Fig. 3 "Global").
    Global,
    /// RBR with the automatic `crdb_region` column (Default / Rehoming).
    RegionalByRow { rehoming: bool },
    /// RBR with `crdb_region` computed from the key (Fig. 4b "Computed").
    ComputedRegion,
    /// Legacy manually partitioned baseline: `(part, k)` primary key.
    ManualPartition,
}

/// DDL for a YCSB table under the given variant. `regions` are the
/// database regions in order (region of key `k` = `k % regions.len()` for
/// the computed variant).
pub fn schema(table: &str, variant: YcsbTable, regions: &[String]) -> String {
    match variant {
        YcsbTable::RegionalByTable => format!(
            "CREATE TABLE {table} (k INT PRIMARY KEY, v STRING) \
             LOCALITY REGIONAL BY TABLE IN PRIMARY REGION"
        ),
        YcsbTable::Global => {
            format!("CREATE TABLE {table} (k INT PRIMARY KEY, v STRING) LOCALITY GLOBAL")
        }
        YcsbTable::RegionalByRow { rehoming } => {
            let on_update = if rehoming {
                " ON UPDATE rehome_row()"
            } else {
                ""
            };
            format!(
                "CREATE TABLE {table} (k INT PRIMARY KEY, v STRING, \
                 crdb_region crdb_internal_region NOT VISIBLE NOT NULL \
                 DEFAULT gateway_region(){on_update}) LOCALITY REGIONAL BY ROW"
            )
        }
        YcsbTable::ComputedRegion => {
            let mut case = String::from("CASE ");
            let n = regions.len() as i64;
            for (i, r) in regions.iter().enumerate() {
                if i + 1 < regions.len() {
                    case.push_str(&format!("WHEN k % {n} = {i} THEN '{r}' "));
                } else {
                    case.push_str(&format!("ELSE '{r}' "));
                }
            }
            case.push_str("END");
            format!(
                "CREATE TABLE {table} (k INT PRIMARY KEY, v STRING, \
                 crdb_region crdb_internal_region NOT VISIBLE NOT NULL AS ({case}) STORED) \
                 LOCALITY REGIONAL BY ROW"
            )
        }
        YcsbTable::ManualPartition => {
            format!("CREATE TABLE {table} (part STRING, k INT, v STRING, PRIMARY KEY (part, k))")
        }
    }
}

/// The legacy partitioning DDL for the `ManualPartition` baseline: one
/// partition per region, pinned there.
pub fn manual_partition_ddl(table: &str, regions: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut parts = String::new();
    for (i, r) in regions.iter().enumerate() {
        if i > 0 {
            parts.push_str(", ");
        }
        parts.push_str(&format!("PARTITION p{i} VALUES IN ('{r}')"));
    }
    out.push(format!(
        "ALTER TABLE {table} PARTITION BY LIST (part) ({parts})"
    ));
    for (i, r) in regions.iter().enumerate() {
        out.push(format!(
            "ALTER PARTITION p{i} OF TABLE {table} CONFIGURE ZONE USING \
             num_replicas = 3, constraints = '{{+region={r}: 3}}', \
             lease_preferences = '[[+region={r}]]'"
        ));
    }
    out
}

/// Pre-built rows for bulk loading `n` keys. `home(k)` gives the region of
/// key `k` (ignored for unpartitioned variants).
pub fn dataset(variant: YcsbTable, n: u64, home: impl Fn(u64) -> String) -> Vec<Vec<Datum>> {
    (0..n)
        .map(|k| {
            let v = Datum::String(format!("value-{k}"));
            match variant {
                YcsbTable::RegionalByTable | YcsbTable::Global => {
                    vec![Datum::Int(k as i64), v]
                }
                YcsbTable::RegionalByRow { .. } | YcsbTable::ComputedRegion => {
                    vec![Datum::Int(k as i64), v, Datum::Region(home(k))]
                }
                YcsbTable::ManualPartition => {
                    vec![Datum::String(home(k)), Datum::Int(k as i64), v]
                }
            }
        })
        .collect()
}

/// How reads are issued (Fig. 3 / Fig. 5 configurations).
#[derive(Clone, Copy, Debug)]
pub enum ReadMode {
    Fresh,
    /// `AS OF SYSTEM TIME with_max_staleness(bound)`.
    BoundedStaleness(SimDuration),
}

/// How keys are chosen.
#[derive(Clone, Debug)]
pub enum KeyChooser {
    /// Zipf over the whole keyspace (workload A).
    Zipf(Zipf),
    /// Uniform over the whole keyspace.
    Uniform { n: u64 },
    /// Locality-of-access (§7.2): with probability `locality` pick a key
    /// homed in the client's region, else a remote-homed key. Keys are
    /// striped across regions (`home(k) = k % nregions`); each client draws
    /// from its own disjoint stride to avoid contention (Fig. 4a), unless
    /// `shared_remote` confines remote picks to a small contended block
    /// (Fig. 4c).
    Locality {
        n: u64,
        nregions: u64,
        region_idx: u64,
        locality: f64,
        client_idx: u64,
        nclients: u64,
        /// Remote accesses target keys `< shared_remote` (contended block).
        shared_remote: Option<u64>,
        /// Bound the per-client remote working set to this many slots
        /// (models an app with a stable remote working set; lets the
        /// rehoming experiment reach its converged state quickly).
        remote_set: Option<u64>,
    },
}

impl KeyChooser {
    fn pick(&self, rng: &mut SimRng) -> (u64, bool) {
        match self {
            KeyChooser::Zipf(z) => (z.sample(rng), true),
            KeyChooser::Uniform { n } => (rng.next_below(*n), true),
            KeyChooser::Locality {
                n,
                nregions,
                region_idx,
                locality,
                client_idx,
                nclients,
                shared_remote,
                remote_set,
            } => {
                let local = rng.chance(*locality);
                if local {
                    // A key in our stripe AND our client slice.
                    let slots = n / (nregions * nclients);
                    let slot = rng.next_below(slots.max(1));
                    let k = (slot * nclients + client_idx) * nregions + region_idx;
                    (k.min(n - 1), true)
                } else if let Some(block) = shared_remote {
                    // Contended shared block: any remote-homed key below
                    // `block` (shared among all contending clients).
                    loop {
                        let k = rng.next_below(*block);
                        if k % nregions != *region_idx {
                            break (k, false);
                        }
                    }
                } else {
                    // A remote-homed key in our own client slice (disjoint).
                    let other = (region_idx + 1 + rng.next_below(nregions - 1)) % nregions;
                    let mut slots = n / (nregions * nclients);
                    if let Some(m) = remote_set {
                        slots = slots.min(*m);
                    }
                    let slot = rng.next_below(slots.max(1));
                    let k = (slot * nclients + client_idx) * nregions + other;
                    (k.min(n - 1), false)
                }
            }
        }
    }
}

/// YCSB operation generator.
pub struct YcsbGen {
    pub table: String,
    pub variant: YcsbTable,
    /// Fraction of reads (A: 0.5, B/D: 0.95).
    pub read_fraction: f64,
    /// Writes are inserts instead of updates (workload D).
    pub insert_workload: bool,
    pub keys: KeyChooser,
    pub read_mode: ReadMode,
    /// Region names (for the manual-partition baseline's `part` column and
    /// D's insert homing).
    pub regions: Vec<String>,
    pub region_idx: usize,
    /// Ops left (None = unbounded, driver deadline decides).
    pub remaining: Option<u64>,
    /// Next insert key for workload D (pre-partitioned per client).
    pub next_insert: u64,
    pub insert_stride: u64,
    /// Home-region function for keys (labels local/remote).
    pub nregions: u64,
    /// Prefix for op labels (e.g. "primary/" to split stats by origin).
    pub label_prefix: String,
}

impl YcsbGen {
    /// A YCSB-A client in region `region_idx` of `regions`: half fresh
    /// reads, half updates, keys from `keys`, `ops` ops, unlabelled. Set the
    /// public fields for another mix.
    pub fn new(
        table: &str,
        variant: YcsbTable,
        keys: KeyChooser,
        regions: Vec<String>,
        region_idx: usize,
        ops: u64,
    ) -> YcsbGen {
        YcsbGen {
            table: table.into(),
            variant,
            read_fraction: 0.5,
            insert_workload: false,
            keys,
            read_mode: ReadMode::Fresh,
            nregions: regions.len() as u64,
            regions,
            region_idx,
            remaining: Some(ops),
            next_insert: 0,
            insert_stride: 1,
            label_prefix: String::new(),
        }
    }

    fn key_home(&self, k: u64) -> usize {
        (k % self.nregions) as usize
    }

    fn sql_read(&self, k: u64) -> String {
        let aost = match self.read_mode {
            ReadMode::Fresh => String::new(),
            ReadMode::BoundedStaleness(d) => format!(
                " AS OF SYSTEM TIME with_max_staleness('{}ms')",
                d.nanos() / 1_000_000
            ),
        };
        match self.variant {
            YcsbTable::ManualPartition => {
                let part = &self.regions[self.key_home(k)];
                format!(
                    "SELECT v FROM {}{aost} WHERE part = '{part}' AND k = {k}",
                    self.table
                )
            }
            _ => format!("SELECT v FROM {}{aost} WHERE k = {k}", self.table),
        }
    }

    fn sql_update(&self, k: u64, tag: u64) -> String {
        match self.variant {
            YcsbTable::ManualPartition => {
                let part = &self.regions[self.key_home(k)];
                format!(
                    "UPDATE {} SET v = 'w{tag}' WHERE part = '{part}' AND k = {k}",
                    self.table
                )
            }
            // Unpartitioned tables: blind one-round UPSERT, matching the
            // CRDB YCSB driver the paper used (§7.1).
            YcsbTable::RegionalByTable | YcsbTable::Global => {
                format!("UPSERT INTO {} (k, v) VALUES ({k}, 'w{tag}')", self.table)
            }
            _ => format!("UPDATE {} SET v = 'w{tag}' WHERE k = {k}", self.table),
        }
    }

    fn sql_insert(&mut self) -> String {
        let k = self.next_insert;
        self.next_insert += self.insert_stride;
        match self.variant {
            YcsbTable::ManualPartition => {
                let part = &self.regions[self.region_idx];
                format!(
                    "INSERT INTO {} (part, k, v) VALUES ('{part}', {k}, 'new')",
                    self.table
                )
            }
            _ => format!("INSERT INTO {} (k, v) VALUES ({k}, 'new')", self.table),
        }
    }
}

impl OpSource for YcsbGen {
    fn next_op(&mut self, rng: &mut SimRng) -> Option<Op> {
        if let Some(r) = self.remaining.as_mut() {
            if *r == 0 {
                return None;
            }
            *r -= 1;
        }
        let p = self.label_prefix.clone();
        let is_read = rng.chance(self.read_fraction);
        if is_read {
            let (k, local) = self.keys.pick(rng);
            let locality = if local { "local" } else { "remote" };
            Some(Op::new(self.sql_read(k), format!("{p}read-{locality}")))
        } else if self.insert_workload {
            Some(Op::new(self.sql_insert(), format!("{p}insert-local")))
        } else {
            let (k, local) = self.keys.pick(rng);
            let locality = if local { "local" } else { "remote" };
            let tag = rng.next_u64() % 1_000_000;
            Some(Op::new(
                self.sql_update(k, tag),
                format!("{p}write-{locality}"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_variants_render() {
        let regions: Vec<String> = vec!["r0".into(), "r1".into(), "r2".into()];
        assert!(schema("t", YcsbTable::Global, &regions).contains("LOCALITY GLOBAL"));
        assert!(schema("t", YcsbTable::RegionalByTable, &regions)
            .contains("REGIONAL BY TABLE IN PRIMARY REGION"));
        let rbr = schema("t", YcsbTable::RegionalByRow { rehoming: true }, &regions);
        assert!(rbr.contains("ON UPDATE rehome_row()"));
        let comp = schema("t", YcsbTable::ComputedRegion, &regions);
        assert!(comp.contains("CASE WHEN k % 3 = 0 THEN 'r0'"));
        assert!(comp.contains("ELSE 'r2'"));
        let manual = manual_partition_ddl("t", &regions);
        assert_eq!(manual.len(), 4);
        assert!(manual[0].contains("PARTITION BY LIST"));
        assert!(manual[1].contains("+region=r0: 3"));
    }

    #[test]
    fn dataset_shapes() {
        let rows = dataset(YcsbTable::Global, 10, |_| unreachable!());
        assert_eq!(
            rows[3],
            vec![Datum::Int(3), Datum::String("value-3".into())]
        );
        let rows = dataset(YcsbTable::RegionalByRow { rehoming: false }, 4, |k| {
            format!("r{}", k % 2)
        });
        assert_eq!(rows[3][2], Datum::Region("r1".into()));
        let rows = dataset(YcsbTable::ManualPartition, 4, |k| format!("r{}", k % 2));
        assert_eq!(rows[2][0], Datum::String("r0".into()));
    }

    #[test]
    fn locality_chooser_respects_probability() {
        let ch = KeyChooser::Locality {
            n: 30_000,
            nregions: 3,
            region_idx: 1,
            locality: 0.95,
            client_idx: 0,
            nclients: 10,
            shared_remote: None,
            remote_set: None,
        };
        let mut rng = SimRng::seed_from_u64(5);
        let mut local = 0;
        for _ in 0..10_000 {
            let (k, is_local) = ch.pick(&mut rng);
            assert!(k < 30_000);
            if is_local {
                assert_eq!(k % 3, 1, "local keys live in our stripe");
                local += 1;
            } else {
                assert_ne!(k % 3, 1, "remote keys live elsewhere");
            }
        }
        let frac = local as f64 / 10_000.0;
        assert!((frac - 0.95).abs() < 0.02, "locality fraction {frac}");
    }

    #[test]
    fn disjoint_slices_between_clients() {
        let mk = |client_idx| KeyChooser::Locality {
            n: 30_000,
            nregions: 3,
            region_idx: 0,
            locality: 1.0,
            client_idx,
            nclients: 10,
            shared_remote: None,
            remote_set: None,
        };
        let mut rng = SimRng::seed_from_u64(6);
        let mut seen0 = std::collections::HashSet::new();
        let c0 = mk(0);
        for _ in 0..1000 {
            seen0.insert(c0.pick(&mut rng).0);
        }
        let c1 = mk(1);
        for _ in 0..1000 {
            let (k, _) = c1.pick(&mut rng);
            assert!(!seen0.contains(&k), "clients must not share keys");
        }
    }

    #[test]
    fn shared_remote_block_is_contended() {
        let ch = KeyChooser::Locality {
            n: 30_000,
            nregions: 3,
            region_idx: 0,
            locality: 0.0,
            client_idx: 0,
            nclients: 10,
            shared_remote: Some(100),
            remote_set: None,
        };
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            let (k, local) = ch.pick(&mut rng);
            assert!(!local);
            assert!(k < 100);
            assert_ne!(k % 3, 0, "remote keys avoid our own stripe");
        }
    }

    #[test]
    fn generator_emits_reads_and_writes() {
        let mut g = YcsbGen {
            table: "t".into(),
            variant: YcsbTable::RegionalByRow { rehoming: false },
            read_fraction: 0.5,
            insert_workload: false,
            keys: KeyChooser::Uniform { n: 100 },
            read_mode: ReadMode::Fresh,
            regions: vec!["r0".into()],
            region_idx: 0,
            remaining: Some(100),
            next_insert: 0,
            insert_stride: 1,
            nregions: 1,
            label_prefix: String::new(),
        };
        let mut rng = SimRng::seed_from_u64(8);
        let mut reads = 0;
        let mut writes = 0;
        while let Some(op) = g.next_op(&mut rng) {
            if op.label.starts_with("read") {
                assert!(op.stmts[0].starts_with("SELECT"));
                reads += 1;
            } else {
                assert!(op.stmts[0].starts_with("UPDATE"));
                writes += 1;
            }
        }
        assert_eq!(reads + writes, 100);
        assert!(reads > 30 && writes > 30);
    }

    #[test]
    fn workload_d_inserts_unique_keys() {
        let mut g = YcsbGen {
            table: "t".into(),
            variant: YcsbTable::ComputedRegion,
            read_fraction: 0.0,
            insert_workload: true,
            keys: KeyChooser::Uniform { n: 100 },
            read_mode: ReadMode::Fresh,
            regions: vec!["r0".into()],
            region_idx: 0,
            remaining: Some(10),
            next_insert: 7,
            insert_stride: 50,
            nregions: 1,
            label_prefix: String::new(),
        };
        let mut rng = SimRng::seed_from_u64(9);
        let first = g.next_op(&mut rng).unwrap();
        let second = g.next_op(&mut rng).unwrap();
        assert!(first.stmts[0].contains("VALUES (7,"));
        assert!(second.stmts[0].contains("VALUES (57,"));
    }

    #[test]
    fn bounded_staleness_read_sql() {
        let g = YcsbGen {
            table: "t".into(),
            variant: YcsbTable::RegionalByTable,
            read_fraction: 1.0,
            insert_workload: false,
            keys: KeyChooser::Uniform { n: 100 },
            read_mode: ReadMode::BoundedStaleness(SimDuration::from_secs(10)),
            regions: vec![],
            region_idx: 0,
            remaining: None,
            next_insert: 0,
            insert_stride: 1,
            nregions: 1,
            label_prefix: String::new(),
        };
        let sql = g.sql_read(5);
        assert!(sql.contains("with_max_staleness('10000ms')"), "{sql}");
    }
}
