//! The schema catalog: databases, regions, tables, columns, indexes, and the
//! key span each index partition owns. Which ranges hold a span is the range
//! registry's to say (`RangeRegistry::lookup_span`), never the catalog's.

use std::collections::BTreeMap;
use std::rc::Rc;

use mr_kv::zone::{PlacementPolicy, SurvivalGoal};
use mr_proto::{Key, Span};

use crate::ast::{Expr, ZoneOverrides};
use crate::encoding::{encode_datum, partition_prefix, partition_span, IndexId, TableId};
use crate::types::{ColumnType, Datum};

/// The hidden partitioning column of REGIONAL BY ROW tables (§2.3.2).
pub const REGION_COLUMN: &str = "crdb_region";

/// Lifecycle of a database region. Dropping a region transitions it through
/// `ReadOnly` while emptiness validation runs (§2.4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionStatus {
    Public,
    ReadOnly,
}

/// One region configured on a database.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionState {
    pub name: String,
    pub status: RegionStatus,
}

/// Table locality (§2.3), with the home region resolved.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TableLocality {
    Global,
    /// Home region name.
    RegionalByTable(String),
    RegionalByRow,
}

/// A column.
#[derive(Clone, Debug)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
    pub not_null: bool,
    /// Hidden from `SELECT *` (`NOT VISIBLE`), like `crdb_region`.
    pub hidden: bool,
    pub default: Option<Expr>,
    /// `AS (expr) STORED` — evaluated on writes.
    pub computed: Option<Expr>,
    /// `ON UPDATE expr` — e.g. `rehome_row()` for automatic rehoming.
    pub on_update: Option<Expr>,
    pub references: Option<(String, String)>,
}

/// How an index's key space is partitioned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionKey {
    /// Unpartitioned: the whole index.
    Whole,
    /// Implicit region partition of an RBR table.
    Region(String),
    /// Legacy manual `PARTITION BY LIST` partition, by name (`__default_<n>`
    /// for the catch-all spans between the listed values).
    Manual(String),
}

/// An index (the primary index is `indexes[0]`).
#[derive(Clone, Debug)]
pub struct Index {
    pub id: IndexId,
    pub name: String,
    /// Ordinals of key columns (excluding the implicit region prefix).
    pub key_columns: Vec<usize>,
    pub unique: bool,
    /// Ordinals of extra stored columns (`STORING`). The primary index
    /// implicitly stores everything.
    pub storing: Vec<usize>,
    /// Implicitly prefixed by `crdb_region` (RBR tables).
    pub region_partitioned: bool,
    /// Legacy `ALTER INDEX ... CONFIGURE ZONE` override (duplicate-index
    /// pinning).
    pub zone_override: Option<ZoneOverrides>,
}

impl Index {
    pub fn is_primary(&self) -> bool {
        self.id == 1
    }
}

/// Legacy manual partitioning of a table (§3.2 era).
#[derive(Clone, Debug)]
pub struct ManualPartitioning {
    /// Ordinal of the partitioning column (must be the first key column).
    pub column: usize,
    /// Partition name → list values.
    pub partitions: Vec<(String, Vec<Datum>)>,
    /// Per-partition zone overrides.
    pub zones: BTreeMap<String, ZoneOverrides>,
}

/// A table.
#[derive(Clone, Debug)]
pub struct Table {
    pub id: TableId,
    pub name: String,
    pub columns: Vec<Column>,
    pub locality: TableLocality,
    pub indexes: Vec<Index>,
    pub manual_partitioning: Option<ManualPartitioning>,
    pub zone_override: Option<ZoneOverrides>,
    pub next_index_id: IndexId,
}

impl Table {
    pub fn column_ordinal(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }

    pub fn primary_index(&self) -> &Index {
        &self.indexes[0]
    }

    /// Ordinal of the `crdb_region` column, if present.
    pub fn region_column(&self) -> Option<usize> {
        self.column_ordinal(REGION_COLUMN)
    }

    /// Visible columns (for `SELECT *`).
    pub fn visible_columns(&self) -> impl Iterator<Item = (usize, &Column)> {
        self.columns.iter().enumerate().filter(|(_, c)| !c.hidden)
    }

    pub fn index_by_name(&self, name: &str) -> Option<&Index> {
        self.indexes.iter().find(|i| i.name == name)
    }

    pub fn index_by_name_mut(&mut self, name: &str) -> Option<&mut Index> {
        self.indexes.iter_mut().find(|i| i.name == name)
    }
}

/// The partitions of `index` with the key span each owns, in key order: one
/// per database region for a region-partitioned index, one per listed value
/// of a manual partition (so a partition listing two values owns two spans)
/// plus catch-all spans over the gaps so unlisted values still route
/// somewhere, else the whole index. Spans never overlap, and DDL creates a
/// range per span, so a partition's edges are always range boundaries.
pub fn partitions(db: &Database, table: &Table, index: &Index) -> Vec<(PartitionKey, Span)> {
    let by_start = |a: &(PartitionKey, Span), b: &(PartitionKey, Span)| a.1.start.cmp(&b.1.start);
    if index.region_partitioned {
        let mut out: Vec<_> = db
            .all_regions()
            .into_iter()
            .map(|r| {
                let span = partition_span(table.id, index.id, Some(&r));
                (PartitionKey::Region(r), span)
            })
            .collect();
        out.sort_by(by_start);
        return out;
    }
    let whole = partition_span(table.id, index.id, None);
    let Some(mp) = &table.manual_partitioning else {
        return vec![(PartitionKey::Whole, whole)];
    };
    let mut listed: Vec<(PartitionKey, Span)> = Vec::new();
    for (name, values) in &mp.partitions {
        for v in values {
            let mut prefix = partition_prefix(table.id, index.id, None);
            encode_datum(&mut prefix, v);
            let span = Span::prefix(Key::from_vec(prefix));
            listed.push((PartitionKey::Manual(name.clone()), span));
        }
    }
    listed.sort_by(by_start);
    let mut out = Vec::new();
    let mut gaps = 0;
    let mut gap = |from: &Key, to: &Key, out: &mut Vec<(PartitionKey, Span)>| {
        if from < to {
            let pk = PartitionKey::Manual(format!("__default_{gaps}"));
            out.push((pk, Span::new(from.clone(), to.clone())));
            gaps += 1;
        }
    };
    let mut cursor = whole.start;
    for (pk, span) in listed {
        gap(&cursor, &span.start, &mut out);
        cursor = span.end.clone();
        out.push((pk, span));
    }
    gap(&cursor, &whole.end, &mut out);
    out
}

/// A multi-region database (§2.1). Cloning one copies the table map, not
/// the tables: see [`Catalog`].
#[derive(Clone, Debug)]
pub struct Database {
    pub name: String,
    pub primary_region: String,
    pub regions: Vec<RegionState>,
    pub survival: SurvivalGoal,
    pub placement: PlacementPolicy,
    pub tables: BTreeMap<String, Rc<Table>>,
}

impl Database {
    /// Region names currently writable (public).
    pub fn public_regions(&self) -> Vec<String> {
        self.regions
            .iter()
            .filter(|r| r.status == RegionStatus::Public)
            .map(|r| r.name.clone())
            .collect()
    }

    /// All configured region names (including READ ONLY ones).
    pub fn all_regions(&self) -> Vec<String> {
        self.regions.iter().map(|r| r.name.clone()).collect()
    }

    pub fn region_state(&self, name: &str) -> Option<&RegionState> {
        self.regions.iter().find(|r| r.name == name)
    }

    pub fn has_region(&self, name: &str) -> bool {
        self.region_state(name).is_some()
    }

    /// Whether `value` is a valid value of `crdb_internal_region` for a
    /// *write* (READ ONLY regions reject new writes, §2.4.1).
    pub fn region_writable(&self, value: &str) -> bool {
        self.region_state(value)
            .is_some_and(|r| r.status == RegionStatus::Public)
    }
}

/// The whole catalog. Descriptors are shared by reference: a statement's
/// snapshot is a clone of the `Rc`s it resolved when it started, and DDL
/// writes through [`Catalog::db_mut`] / [`Catalog::table_mut`], which copy a
/// descriptor only while some statement still holds the old one
/// (`Rc::make_mut`). A running statement therefore keeps the version it
/// started with and the next one sees the new version. Every map is ordered:
/// DDL walks them into the simulation (range ids, allocator draws, events).
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    pub databases: BTreeMap<String, Rc<Database>>,
    next_table_id: TableId,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog {
            databases: BTreeMap::new(),
            next_table_id: 1,
        }
    }

    pub fn next_table_id(&mut self) -> TableId {
        let id = self.next_table_id;
        self.next_table_id += 1;
        id
    }

    pub fn db(&self, name: &str) -> Option<&Database> {
        self.databases.get(name).map(|d| &**d)
    }

    pub fn db_mut(&mut self, name: &str) -> Option<&mut Database> {
        self.databases.get_mut(name).map(Rc::make_mut)
    }

    /// Find `table` in `db`.
    pub fn table(&self, db: &str, table: &str) -> Option<&Table> {
        self.db(db)?.tables.get(table).map(|t| &**t)
    }

    pub fn table_mut(&mut self, db: &str, table: &str) -> Option<&mut Table> {
        self.db_mut(db)?.tables.get_mut(table).map(Rc::make_mut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        Database {
            name: "movr".into(),
            primary_region: "us-east1".into(),
            regions: vec![
                RegionState {
                    name: "us-east1".into(),
                    status: RegionStatus::Public,
                },
                RegionState {
                    name: "us-west1".into(),
                    status: RegionStatus::ReadOnly,
                },
            ],
            survival: SurvivalGoal::Zone,
            placement: PlacementPolicy::Default,
            tables: BTreeMap::new(),
        }
    }

    #[test]
    fn region_states() {
        let d = db();
        assert_eq!(d.public_regions(), vec!["us-east1"]);
        assert_eq!(d.all_regions().len(), 2);
        assert!(d.region_writable("us-east1"));
        assert!(
            !d.region_writable("us-west1"),
            "READ ONLY regions reject writes"
        );
        assert!(!d.region_writable("nowhere"));
    }

    #[test]
    fn table_lookups() {
        let t = Table {
            id: 1,
            name: "users".into(),
            columns: vec![
                Column {
                    name: "id".into(),
                    ty: ColumnType::Int,
                    not_null: true,
                    hidden: false,
                    default: None,
                    computed: None,
                    on_update: None,
                    references: None,
                },
                Column {
                    name: REGION_COLUMN.into(),
                    ty: ColumnType::Region,
                    not_null: true,
                    hidden: true,
                    default: None,
                    computed: None,
                    on_update: None,
                    references: None,
                },
            ],
            locality: TableLocality::RegionalByRow,
            indexes: vec![Index {
                id: 1,
                name: "primary".into(),
                key_columns: vec![0],
                unique: true,
                storing: vec![],
                region_partitioned: true,
                zone_override: None,
            }],
            manual_partitioning: None,
            zone_override: None,
            next_index_id: 2,
        };
        assert_eq!(t.column_ordinal("id"), Some(0));
        assert_eq!(t.region_column(), Some(1));
        assert_eq!(t.visible_columns().count(), 1);
        assert!(t.primary_index().is_primary());
    }

    #[test]
    fn catalog_ids_increment() {
        let mut c = Catalog::new();
        assert_eq!(c.next_table_id(), 1);
        assert_eq!(c.next_table_id(), 2);
    }
}
