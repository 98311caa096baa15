//! DDL execution: catalog changes and the range layout they imply.
//!
//! Every table locality maps to a set of KV ranges with automatically
//! derived zone configurations (§3.3): one range per index for GLOBAL and
//! REGIONAL BY TABLE, one range per (index, region) partition for REGIONAL
//! BY ROW. Region add/drop, survivability and placement changes, and
//! `SET LOCALITY` re-derive the layout.
//!
//! DDL creates one range per partition span ([`partitions`]) and afterwards
//! names no range: the KV layer may split a partition's range (and merge the
//! halves back), so whatever acts on a partition — reconfigure, drop, scan —
//! asks the range registry which ranges cover its span at that moment.
//!
//! The legacy imperative surface (`PARTITION BY LIST`, `CONFIGURE ZONE`,
//! duplicate indexes via `CREATE INDEX ... STORING` + `ALTER INDEX ...
//! CONFIGURE ZONE`) is implemented with the same machinery and serves as
//! the paper's baseline (§7.2, §7.3.1) and the "before" column of Table 2.
//!
//! Schema changes run *offline* in simulation terms: rewrites read rows
//! directly from leaseholder state and bulk-load them, one ingest per
//! statement ([`Cluster::ingest`]). CockroachDB performs these online with
//! backfills (§2.4); the experiments only change schemas between workload
//! phases, so the latency of the change itself is out of scope.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use mr_kv::cluster::Cluster;
use mr_kv::zone::{derive_zone_config, ClosedTsPolicy, PlacementPolicy, SurvivalGoal, ZoneConfig};
use mr_proto::{Key, RangeId, Span, Value};
use mr_sim::RegionId;

use crate::ast::{
    AlterDbAction, AlterTableAction, ColumnDef, Expr, Locality, Stmt, TableConstraint,
    ZoneOverrides,
};
use crate::catalog::{
    partitions, Catalog, Column, Database, Index, ManualPartitioning, PartitionKey, RegionState,
    RegionStatus, Table, TableLocality, REGION_COLUMN,
};
use crate::encoding::{
    decode_row, encode_row_into, index_key, index_key_into, partition_span, IndexId,
};
use crate::expr::next_uuid;
use crate::types::{ColumnType, Datum};

/// DDL error.
#[derive(Clone, Debug, PartialEq)]
pub struct DdlError(pub String);

impl std::fmt::Display for DdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for DdlError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DdlError> {
    Err(DdlError(msg.into()))
}

fn unknown_db(name: &str) -> DdlError {
    DdlError(format!("unknown database {name:?}"))
}

fn unknown_table(name: &str) -> DdlError {
    DdlError(format!("unknown table {name:?}"))
}

fn db_of<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a Database, DdlError> {
    catalog.db(name).ok_or_else(|| unknown_db(name))
}

fn db_mut_of<'a>(catalog: &'a mut Catalog, name: &str) -> Result<&'a mut Database, DdlError> {
    catalog.db_mut(name).ok_or_else(|| unknown_db(name))
}

fn table_of<'a>(
    catalog: &'a Catalog,
    db_name: &str,
    name: &str,
) -> Result<(&'a Database, &'a Table), DdlError> {
    let db = db_of(catalog, db_name)?;
    let table = db.tables.get(name).ok_or_else(|| unknown_table(name))?;
    Ok((db, table))
}

fn table_mut_of<'a>(
    catalog: &'a mut Catalog,
    db_name: &str,
    name: &str,
) -> Result<&'a mut Table, DdlError> {
    catalog
        .table_mut(db_name, name)
        .ok_or_else(|| unknown_table(name))
}

/// Result of a DDL statement.
#[derive(Clone, Debug)]
pub enum DdlOutcome {
    Ok,
    /// `SHOW REGIONS`: (region, primary?, status).
    Rows(Vec<Vec<Datum>>),
}

/// Execute a DDL statement. `current_db` resolves unqualified table names;
/// `uuids` is the database's `gen_random_uuid()` counter ([`next_uuid`]),
/// which an `ADD COLUMN` backfill draws from.
pub fn exec_ddl(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    current_db: Option<&str>,
    stmt: &Stmt,
    uuids: &Cell<u64>,
) -> Result<DdlOutcome, DdlError> {
    match stmt {
        Stmt::CreateDatabase {
            name,
            primary_region,
            regions,
        } => create_database(cluster, catalog, name, primary_region.as_deref(), regions),
        Stmt::AlterDatabase { name, action } => alter_database(cluster, catalog, name, action),
        Stmt::ShowRegions { db } => {
            let db_name = db
                .as_deref()
                .or(current_db)
                .ok_or_else(|| DdlError("no database selected".into()))?;
            let db = db_of(catalog, db_name)?;
            let rows = db
                .regions
                .iter()
                .map(|r| {
                    vec![
                        Datum::String(r.name.clone()),
                        Datum::Bool(r.name == db.primary_region),
                        Datum::String(
                            match r.status {
                                RegionStatus::Public => "public",
                                RegionStatus::ReadOnly => "read-only",
                            }
                            .into(),
                        ),
                    ]
                })
                .collect();
            Ok(DdlOutcome::Rows(rows))
        }
        Stmt::ShowRanges { table } => {
            let db_name = required_db(current_db)?;
            let rows =
                crate::vtable::show_ranges(cluster, catalog, &db_name, table).map_err(DdlError)?;
            Ok(DdlOutcome::Rows(rows))
        }
        Stmt::ShowSurvivalGoal { db } => {
            let db_name = db
                .as_deref()
                .or(current_db)
                .ok_or_else(|| DdlError("no database selected".into()))?;
            let db = db_of(catalog, db_name)?;
            let goal = match db.survival {
                SurvivalGoal::Zone => "zone",
                SurvivalGoal::Region => "region",
            };
            Ok(DdlOutcome::Rows(vec![vec![Datum::String(goal.into())]]))
        }
        Stmt::CreateTable {
            name,
            columns,
            constraints,
            locality,
        } => {
            let db_name = required_db(current_db)?;
            create_table(
                cluster,
                catalog,
                &db_name,
                name,
                columns,
                constraints,
                locality.as_ref(),
            )
        }
        Stmt::DropTable { name } => {
            let db_name = required_db(current_db)?;
            drop_table(cluster, catalog, &db_name, name)
        }
        Stmt::AlterTable { name, action } => {
            let db_name = required_db(current_db)?;
            alter_table(cluster, catalog, &db_name, name, action, uuids)
        }
        Stmt::CreateIndex {
            name,
            table,
            columns,
            unique,
            storing,
        } => {
            let db_name = required_db(current_db)?;
            create_index(
                cluster, catalog, &db_name, table, name, columns, *unique, storing,
            )
        }
        Stmt::AlterIndex { table, index, zone } => {
            let db_name = required_db(current_db)?;
            alter_index_zone(cluster, catalog, &db_name, table, index, zone)
        }
        Stmt::AlterPartition {
            partition,
            table,
            zone,
        } => {
            let db_name = required_db(current_db)?;
            alter_partition_zone(cluster, catalog, &db_name, table, partition, zone)
        }
        other => err(format!("not a DDL statement: {other:?}")),
    }
}

fn required_db(current_db: Option<&str>) -> Result<String, DdlError> {
    current_db
        .map(|s| s.to_string())
        .ok_or_else(|| DdlError("no database selected (USE <db>)".into()))
}

// ---------------------------------------------------------------------
// Databases and regions
// ---------------------------------------------------------------------

fn create_database(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    name: &str,
    primary_region: Option<&str>,
    regions: &[String],
) -> Result<DdlOutcome, DdlError> {
    if catalog.db(name).is_some() {
        return err(format!("database {name:?} already exists"));
    }
    let primary = primary_region
        .ok_or_else(|| DdlError("multi-region databases need a PRIMARY REGION".into()))?;
    let mut all = vec![primary.to_string()];
    for r in regions {
        if !all.contains(r) {
            all.push(r.clone());
        }
    }
    for r in &all {
        if cluster.topology().region_by_name(r).is_none() {
            return err(format!("region {r:?} has no nodes in the cluster"));
        }
    }
    catalog.databases.insert(
        name.to_string(),
        Rc::new(Database {
            name: name.to_string(),
            primary_region: primary.to_string(),
            regions: all
                .into_iter()
                .map(|name| RegionState {
                    name,
                    status: RegionStatus::Public,
                })
                .collect(),
            survival: SurvivalGoal::Zone,
            placement: PlacementPolicy::Default,
            tables: BTreeMap::new(),
        }),
    );
    Ok(DdlOutcome::Ok)
}

fn alter_database(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    name: &str,
    action: &AlterDbAction,
) -> Result<DdlOutcome, DdlError> {
    let db = db_mut_of(catalog, name)?;
    match action {
        AlterDbAction::AddRegion(region) => return add_region(cluster, catalog, name, region),
        AlterDbAction::DropRegion(region) => return drop_region(cluster, catalog, name, region),
        AlterDbAction::SetPrimaryRegion(region) => {
            if !db.has_region(region) {
                return err(format!("{region:?} is not a region of {name:?}"));
            }
            db.primary_region = region.clone();
        }
        AlterDbAction::SurviveZoneFailure => db.survival = SurvivalGoal::Zone,
        AlterDbAction::SurviveRegionFailure => {
            if db.regions.len() < 3 {
                return err("SURVIVE REGION FAILURE requires at least 3 regions");
            }
            if db.placement == PlacementPolicy::Restricted {
                return err("PLACEMENT RESTRICTED cannot be combined with REGION survivability");
            }
            db.survival = SurvivalGoal::Region;
        }
        AlterDbAction::PlacementRestricted => {
            if db.survival == SurvivalGoal::Region {
                return err("PLACEMENT RESTRICTED cannot be combined with REGION survivability");
            }
            db.placement = PlacementPolicy::Restricted;
        }
        AlterDbAction::PlacementDefault => db.placement = PlacementPolicy::Default,
    }
    reconfigure_database(cluster, catalog, name)
}

fn add_region(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    region: &str,
) -> Result<DdlOutcome, DdlError> {
    if cluster.topology().region_by_name(region).is_none() {
        return err(format!("region {region:?} has no nodes in the cluster"));
    }
    let db = db_mut_of(catalog, db_name)?;
    if db.has_region(region) {
        return err(format!("region {region:?} already in database"));
    }
    db.regions.push(RegionState {
        name: region.to_string(),
        status: RegionStatus::Public,
    });
    // New partitions for every RBR table; re-derived configs everywhere
    // (non-voters in the new region).
    let pk = PartitionKey::Region(region.to_string());
    for table in rbr_tables(db) {
        for index in &table.indexes {
            let span = partition_span(table.id, index.id, Some(region));
            create_range(cluster, db, table, index, &pk, span)?;
        }
    }
    reconfigure_database(cluster, catalog, db_name)
}

/// The database's REGIONAL BY ROW tables, in catalog order.
fn rbr_tables(db: &Database) -> impl Iterator<Item = &Table> {
    let all = db.tables.values().map(|t| &**t);
    all.filter(|t| t.locality == TableLocality::RegionalByRow)
}

/// Ids of the ranges that cover `span` right now, in key order. A partition's
/// edges are range boundaries (DDL creates a range per partition span and a
/// merge never absorbs a range the admin plane created), so for a partition
/// or a whole index these hold every row of the span and no neighbour's.
fn covering(cluster: &Cluster, span: &Span) -> Vec<RangeId> {
    cluster.registry().lookup_span(span).map(|d| d.id).collect()
}

/// Drop every range covering `span`.
fn drop_span(cluster: &mut Cluster, span: &Span) {
    for rid in covering(cluster, span) {
        cluster.drop_range(rid);
    }
}

/// Drop every range of every index of `table`, whatever its partitioning.
fn drop_table_ranges(cluster: &mut Cluster, table: &Table) {
    for index in &table.indexes {
        drop_span(cluster, &partition_span(table.id, index.id, None));
    }
}

fn drop_region(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    region: &str,
) -> Result<DdlOutcome, DdlError> {
    let set_status = |catalog: &mut Catalog, status| -> Result<(), DdlError> {
        let db = db_mut_of(catalog, db_name)?;
        match db.regions.iter_mut().find(|r| r.name == region) {
            Some(r) => r.status = status,
            None => return err(format!("{region:?} is not a region of {db_name:?}")),
        }
        Ok(())
    };
    if db_of(catalog, db_name)?.primary_region == region {
        return err("cannot drop the PRIMARY region");
    }
    // §2.4.1: mark READ ONLY so validation can run without blocking
    // traffic; writes of this region value are rejected meanwhile.
    set_status(catalog, RegionStatus::ReadOnly)?;
    // Validation: no live row may be homed in the dropping region (because
    // the region value partitions every RBR index, this only inspects the
    // region's partitions, not whole tables), and no REGIONAL BY TABLE
    // table may have its home there.
    let db = db_of(catalog, db_name)?;
    let region_span =
        |table: &Table, index: &Index| partition_span(table.id, index.id, Some(region));
    let violation = db.tables.values().find(|table| match &table.locality {
        TableLocality::RegionalByTable(home) => home == region,
        TableLocality::RegionalByRow => {
            covering(cluster, &region_span(table, table.primary_index()))
                .into_iter()
                .any(|rid| !cluster.admin_scan_range(rid).is_empty())
        }
        TableLocality::Global => false,
    });
    if let Some(t) = violation.map(|t| t.name.clone()) {
        // Roll back: all-or-nothing semantics.
        set_status(catalog, RegionStatus::Public)?;
        return err(format!(
            "cannot drop region {region:?}: table {t:?} is homed there (move its rows \
             or ALTER its locality first)"
        ));
    }
    // Commit the drop: remove partition ranges and the enum value.
    for table in rbr_tables(db) {
        for index in &table.indexes {
            drop_span(cluster, &region_span(table, index));
        }
    }
    db_mut_of(catalog, db_name)?
        .regions
        .retain(|r| r.name != region);
    reconfigure_database(cluster, catalog, db_name)
}

// ---------------------------------------------------------------------
// Zone-config derivation
// ---------------------------------------------------------------------

fn region_id(cluster: &Cluster, name: &str) -> Result<RegionId, DdlError> {
    cluster
        .topology()
        .region_by_name(name)
        .ok_or_else(|| DdlError(format!("region {name:?} has no nodes in the cluster")))
}

/// The automatic zone config (§3.3) for one partition of one table.
fn auto_zone_config(
    cluster: &Cluster,
    db: &Database,
    locality: &TableLocality,
    partition_region: Option<&str>,
) -> Result<ZoneConfig, DdlError> {
    let db_regions: Vec<RegionId> = db
        .all_regions()
        .iter()
        .map(|r| region_id(cluster, r))
        .collect::<Result<_, _>>()?;
    let (home, policy, placement) = match locality {
        TableLocality::Global => (
            db.primary_region.clone(),
            ClosedTsPolicy::Lead,
            // §3.3.4: RESTRICTED does not affect GLOBAL tables.
            PlacementPolicy::Default,
        ),
        TableLocality::RegionalByTable(r) => (r.clone(), ClosedTsPolicy::Lag, db.placement),
        TableLocality::RegionalByRow => (
            partition_region
                .ok_or_else(|| DdlError("a REGIONAL BY ROW partition has a region".into()))?
                .to_string(),
            ClosedTsPolicy::Lag,
            db.placement,
        ),
    };
    Ok(derive_zone_config(
        region_id(cluster, &home)?,
        &db_regions,
        db.survival,
        placement,
        policy,
    ))
}

/// Zone config from legacy `CONFIGURE ZONE` overrides.
fn override_zone_config(
    cluster: &Cluster,
    z: &ZoneOverrides,
    fallback_home: RegionId,
) -> Result<ZoneConfig, DdlError> {
    let num_replicas = z.num_replicas.unwrap_or(3);
    let num_voters = z
        .num_voters
        .unwrap_or(num_replicas.min(3))
        .min(num_replicas);
    let mut constraints = Vec::new();
    for (r, n) in &z.constraints {
        constraints.push((region_id(cluster, r)?, *n));
    }
    let mut voter_constraints = Vec::new();
    for (r, n) in &z.voter_constraints {
        voter_constraints.push((region_id(cluster, r)?, *n));
    }
    let mut lease_preferences = Vec::new();
    for r in &z.lease_preferences {
        lease_preferences.push(region_id(cluster, r)?);
    }
    if lease_preferences.is_empty() {
        lease_preferences.push(
            constraints
                .first()
                .map(|(r, _)| *r)
                .unwrap_or(fallback_home),
        );
    }
    if constraints.is_empty() {
        constraints.push((lease_preferences[0], num_voters));
    }
    if voter_constraints.is_empty() {
        voter_constraints.push((lease_preferences[0], num_voters.min(3)));
    }
    Ok(ZoneConfig {
        num_replicas,
        num_voters,
        constraints,
        voter_constraints,
        lease_preferences,
        closed_ts_policy: ClosedTsPolicy::Lag,
        gc_ttl: mr_kv::zone::DEFAULT_GC_TTL,
    })
}

/// Re-derive and apply the zone config of every range of every table in the
/// database (region/survivability/placement changes).
fn reconfigure_database(
    cluster: &mut Cluster,
    catalog: &Catalog,
    db_name: &str,
) -> Result<DdlOutcome, DdlError> {
    let db = db_of(catalog, db_name)?;
    for table in db.tables.values() {
        reconfigure_table(cluster, db, table)?;
    }
    Ok(DdlOutcome::Ok)
}

/// Re-derive each partition's zone config and apply it to every range that
/// covers the partition: a split child answers to the same promise as the
/// range DDL created.
fn reconfigure_table(
    cluster: &mut Cluster,
    db: &Database,
    table: &Table,
) -> Result<DdlOutcome, DdlError> {
    for index in &table.indexes {
        for (pk, span) in partitions(db, table, index) {
            let cfg = zone_config_for_partition(cluster, db, table, index, &pk)?;
            for rid in covering(cluster, &span) {
                cluster
                    .reconfigure_range(rid, cfg.clone())
                    .map_err(|e| DdlError(format!("reconfigure {rid}: {e}")))?;
            }
        }
    }
    Ok(DdlOutcome::Ok)
}

/// The effective zone config for one partition, honoring legacy overrides
/// (partition > index > table > automatic).
fn zone_config_for_partition(
    cluster: &Cluster,
    db: &Database,
    table: &Table,
    index: &Index,
    pk: &PartitionKey,
) -> Result<ZoneConfig, DdlError> {
    let fallback_home = region_id(cluster, &db.primary_region)?;
    if let PartitionKey::Manual(name) = pk {
        if let Some(mp) = &table.manual_partitioning {
            if let Some(z) = mp.zones.get(name) {
                return override_zone_config(cluster, z, fallback_home);
            }
        }
    }
    if let Some(z) = &index.zone_override {
        return override_zone_config(cluster, z, fallback_home);
    }
    if let Some(z) = &table.zone_override {
        return override_zone_config(cluster, z, fallback_home);
    }
    let region = match pk {
        PartitionKey::Region(r) => Some(r.as_str()),
        _ => None,
    };
    auto_zone_config(cluster, db, &table.locality, region)
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// The hidden `crdb_region` column a REGIONAL BY ROW table gets when it
/// defines none (§2.3.2): homed where the row is inserted.
fn hidden_region_column() -> Column {
    Column {
        name: REGION_COLUMN.into(),
        ty: ColumnType::Region,
        not_null: true,
        hidden: true,
        default: Some(Expr::FnCall {
            name: "gateway_region".into(),
            args: vec![],
        }),
        computed: None,
        on_update: None,
        references: None,
    }
}

#[allow(clippy::too_many_arguments)]
fn create_table(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    column_defs: &[ColumnDef],
    constraints: &[TableConstraint],
    locality: Option<&Locality>,
) -> Result<DdlOutcome, DdlError> {
    let db = db_of(catalog, db_name)?;
    if db.tables.contains_key(name) {
        return err(format!("table {name:?} already exists"));
    }
    let locality = resolve_locality(db, locality)?;

    // Columns.
    let mut columns: Vec<Column> = Vec::new();
    let mut pk_cols: Vec<String> = Vec::new();
    let mut unique_cols: Vec<String> = Vec::new();
    for def in column_defs {
        let ty = def
            .ty
            .ok_or_else(|| DdlError(format!("column {:?} missing type", def.name)))?;
        if def.primary_key {
            pk_cols.push(def.name.clone());
        }
        if def.unique {
            unique_cols.push(def.name.clone());
        }
        columns.push(Column {
            name: def.name.clone(),
            ty,
            not_null: def.not_null || def.primary_key,
            hidden: def.hidden,
            default: def.default.clone(),
            computed: def.computed.clone(),
            on_update: def.on_update.clone(),
            references: def.references.clone(),
        });
    }
    for c in constraints {
        if let TableConstraint::PrimaryKey(cols) = c {
            if !pk_cols.is_empty() {
                return err("multiple primary keys");
            }
            pk_cols = cols.clone();
        }
    }
    if pk_cols.is_empty() {
        return err(format!("table {name:?} needs a PRIMARY KEY"));
    }

    // RBR tables get the hidden partitioning column automatically (§2.3.2)
    // unless the user defined one (computed partitioning).
    if locality == TableLocality::RegionalByRow && !columns.iter().any(|c| c.name == REGION_COLUMN)
    {
        columns.push(hidden_region_column());
    }
    if let Some(rc) = columns.iter().find(|c| c.name == REGION_COLUMN) {
        if rc.ty != ColumnType::Region {
            return err(format!(
                "{REGION_COLUMN} must have type crdb_internal_region"
            ));
        }
    }

    let id = catalog.next_table_id();
    let db = db_of(catalog, db_name)?;
    let mut table = Table {
        id,
        name: name.to_string(),
        columns,
        locality: locality.clone(),
        indexes: Vec::new(),
        manual_partitioning: None,
        zone_override: None,
        next_index_id: 1,
    };
    let region_partitioned = locality == TableLocality::RegionalByRow;

    // Primary index.
    let pk_ordinals = ordinals(&table, &pk_cols)?;
    push_index(
        &mut table,
        "primary",
        pk_ordinals,
        true,
        vec![],
        region_partitioned,
    );

    // Unique secondary indexes from column/table constraints.
    for col in unique_cols {
        let ords = ordinals(&table, std::slice::from_ref(&col))?;
        let idx_name = format!("{name}_{col}_key");
        push_index(
            &mut table,
            &idx_name,
            ords,
            true,
            vec![],
            region_partitioned,
        );
    }
    for c in constraints {
        if let TableConstraint::Unique(cols) = c {
            let ords = ordinals(&table, cols)?;
            let idx_name = format!("{name}_{}_key", cols.join("_"));
            push_index(
                &mut table,
                &idx_name,
                ords,
                true,
                vec![],
                region_partitioned,
            );
        }
    }

    create_table_ranges(cluster, db, &table)?;
    db_mut_of(catalog, db_name)?
        .tables
        .insert(name.to_string(), Rc::new(table));
    Ok(DdlOutcome::Ok)
}

fn resolve_locality(db: &Database, locality: Option<&Locality>) -> Result<TableLocality, DdlError> {
    Ok(match locality {
        None | Some(Locality::RegionalByTable(None)) => {
            TableLocality::RegionalByTable(db.primary_region.clone())
        }
        Some(Locality::RegionalByTable(Some(r))) => {
            if !db.has_region(r) {
                return err(format!("{r:?} is not a region of the database"));
            }
            TableLocality::RegionalByTable(r.clone())
        }
        Some(Locality::Global) => TableLocality::Global,
        Some(Locality::RegionalByRow) => TableLocality::RegionalByRow,
    })
}

fn ordinals(table: &Table, cols: &[String]) -> Result<Vec<usize>, DdlError> {
    cols.iter()
        .map(|c| {
            table
                .column_ordinal(c)
                .ok_or_else(|| DdlError(format!("unknown column {c:?}")))
        })
        .collect()
}

fn push_index(
    table: &mut Table,
    name: &str,
    key_columns: Vec<usize>,
    unique: bool,
    storing: Vec<usize>,
    region_partitioned: bool,
) {
    let id = table.next_index_id;
    table.next_index_id += 1;
    table.indexes.push(Index {
        id,
        name: name.to_string(),
        key_columns,
        unique,
        storing,
        region_partitioned,
        zone_override: None,
    });
}

/// Create the range backing one partition span of `index`.
fn create_range(
    cluster: &mut Cluster,
    db: &Database,
    table: &Table,
    index: &Index,
    pk: &PartitionKey,
    span: Span,
) -> Result<(), DdlError> {
    let cfg = zone_config_for_partition(cluster, db, table, index, pk)?;
    let created = cluster.create_range(span, cfg);
    created.map_err(|e| DdlError(format!("allocating {pk:?} of {}: {e}", table.name)))?;
    Ok(())
}

/// Create one range per partition span of `index`, in key order.
fn create_index_ranges(
    cluster: &mut Cluster,
    db: &Database,
    table: &Table,
    index: &Index,
) -> Result<(), DdlError> {
    for (pk, span) in partitions(db, table, index) {
        create_range(cluster, db, table, index, &pk, span)?;
    }
    Ok(())
}

fn create_table_ranges(
    cluster: &mut Cluster,
    db: &Database,
    table: &Table,
) -> Result<(), DdlError> {
    for index in &table.indexes {
        create_index_ranges(cluster, db, table, index)?;
    }
    Ok(())
}

fn drop_table(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
) -> Result<DdlOutcome, DdlError> {
    let table = catalog
        .db_mut(db_name)
        .and_then(|d| d.tables.remove(name))
        .ok_or_else(|| unknown_table(name))?;
    drop_table_ranges(cluster, &table);
    Ok(DdlOutcome::Ok)
}

// ---------------------------------------------------------------------
// ALTER TABLE
// ---------------------------------------------------------------------

fn alter_table(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    action: &AlterTableAction,
    uuids: &Cell<u64>,
) -> Result<DdlOutcome, DdlError> {
    match action {
        AlterTableAction::SetLocality(loc) => set_locality(cluster, catalog, db_name, name, loc),
        AlterTableAction::AddColumn(def) => add_column(cluster, catalog, db_name, name, def, uuids),
        AlterTableAction::PartitionByList { column, partitions } => {
            partition_by_list(cluster, catalog, db_name, name, column, partitions)
        }
        AlterTableAction::ConfigureZone(z) => {
            table_mut_of(catalog, db_name, name)?.zone_override = Some(z.clone());
            reconfigure_named_table(cluster, catalog, db_name, name)
        }
    }
}

fn reconfigure_named_table(
    cluster: &mut Cluster,
    catalog: &Catalog,
    db_name: &str,
    name: &str,
) -> Result<DdlOutcome, DdlError> {
    let (db, table) = table_of(catalog, db_name, name)?;
    reconfigure_table(cluster, db, table)
}

/// `ALTER TABLE ... SET LOCALITY`: re-derive the range layout, rewriting
/// row/index keys when the partitioning changes (§2.4.2: implemented as an
/// index rewrite + swap in CRDB; offline rewrite here).
fn set_locality(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    locality: &Locality,
) -> Result<DdlOutcome, DdlError> {
    let (db, old) = table_of(catalog, db_name, name)?;
    let new_locality = resolve_locality(db, Some(locality))?;
    if old.locality == new_locality {
        return Ok(DdlOutcome::Ok);
    }
    let was_rbr = old.locality == TableLocality::RegionalByRow;
    let is_rbr = new_locality == TableLocality::RegionalByRow;

    if was_rbr == is_rbr {
        // Partitioning unchanged: a metadata + zone config change (§2.4.2).
        table_mut_of(catalog, db_name, name)?.locality = new_locality;
        return reconfigure_named_table(cluster, catalog, db_name, name);
    }

    // Partitioning changes: offline rewrite.
    rewrite_table(cluster, catalog, db_name, name, |db, table, rows| {
        for index in table.indexes.iter_mut() {
            index.region_partitioned = is_rbr;
        }
        table.locality = new_locality;
        // The layout now follows the locality alone.
        table.manual_partitioning = None;
        // Ensure the region column exists when becoming RBR; rows without
        // one (and rows shorter than the column set: a column added before
        // the alter) are homed in the primary region, other gaps are NULL.
        if is_rbr && table.region_column().is_none() {
            table.columns.push(hidden_region_column());
        }
        for row in rows.iter_mut() {
            for col in &table.columns[row.len()..] {
                row.push(if col.name == REGION_COLUMN {
                    Datum::Region(db.primary_region.clone())
                } else {
                    Datum::Null
                });
            }
        }
        Ok(())
    })
}

/// Offline rewrite of table `name`: read every row through the primary
/// index, let `change` alter a copy of the table and the rows, then drop the
/// table's ranges, create the copy's, bulk-load the rows into them and
/// install the copy. New ranges hold only the rewritten rows, so nothing a
/// transaction wrote earlier shadows them (a bulk load lands below every
/// such version).
fn rewrite_table(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    change: impl FnOnce(&Database, &mut Table, &mut Vec<Vec<Datum>>) -> Result<(), DdlError>,
) -> Result<DdlOutcome, DdlError> {
    let (db, old) = table_of(catalog, db_name, name)?;
    let mut rows = read_all_rows(cluster, old);
    let mut table = old.clone();
    change(db, &mut table, &mut rows)?;
    drop_table_ranges(cluster, old);
    create_table_ranges(cluster, db, &table)?;
    write_rows(cluster, &table, &rows, 0..table.indexes.len())?;
    *table_mut_of(catalog, db_name, name)? = table;
    Ok(DdlOutcome::Ok)
}

fn add_column(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    def: &ColumnDef,
    uuids: &Cell<u64>,
) -> Result<DdlOutcome, DdlError> {
    let (_, table) = table_of(catalog, db_name, name)?;
    if table.column_ordinal(&def.name).is_some() {
        return err(format!("column {:?} already exists", def.name));
    }
    let ty = def
        .ty
        .ok_or_else(|| DdlError(format!("column {:?} missing type", def.name)))?;
    // Rewrite stored rows (values embed the full row) with the backfill
    // value: computed expression, else default, else NULL — which a NOT
    // NULL column refuses, so such a column can only be added to an empty
    // table. (gateway_region() backfills as the primary region — the schema
    // change runs "at" the primary.)
    rewrite_table(cluster, catalog, db_name, name, |db, table, rows| {
        table.columns.push(Column {
            name: def.name.clone(),
            ty,
            not_null: def.not_null,
            hidden: def.hidden,
            default: def.default.clone(),
            computed: def.computed.clone(),
            on_update: def.on_update.clone(),
            references: def.references.clone(),
        });
        for row in rows.iter_mut() {
            let value = backfill_value(table, row, def, db, uuids)?;
            if def.not_null && value.is_null() {
                return err(format!(
                    "column {:?} is NOT NULL but has no value for existing rows",
                    def.name
                ));
            }
            row.push(value);
        }
        Ok(())
    })
}

fn backfill_value(
    table: &Table,
    row: &[Datum],
    def: &ColumnDef,
    db: &Database,
    uuids: &Cell<u64>,
) -> Result<Datum, DdlError> {
    let expr = def.computed.as_ref().or(def.default.as_ref());
    let Some(expr) = expr else {
        return Ok(Datum::Null);
    };
    let mut env = crate::expr::EvalEnv {
        gateway_region: &db.primary_region,
        uuid_source: &mut || next_uuid(uuids),
    };
    crate::expr::eval(expr, table, row, &mut env)
        .map(|d| d.coerce(def.ty.unwrap_or(ColumnType::String)))
        .map_err(|e| DdlError(format!("backfill of {:?}: {e}", def.name)))
}

// ---------------------------------------------------------------------
// Legacy: manual partitioning, CONFIGURE ZONE, duplicate indexes
// ---------------------------------------------------------------------

fn partition_by_list(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    name: &str,
    column: &str,
    partitions: &[(String, Vec<Datum>)],
) -> Result<DdlOutcome, DdlError> {
    let (_, old) = table_of(catalog, db_name, name)?;
    if old.locality == TableLocality::RegionalByRow {
        return err(format!(
            "table {name:?} is REGIONAL BY ROW: its indexes are already partitioned by region"
        ));
    }
    let ord = old
        .column_ordinal(column)
        .ok_or_else(|| DdlError(format!("unknown column {column:?}")))?;
    for index in &old.indexes {
        if index.key_columns.first() != Some(&ord) {
            return err(format!(
                "partitioning column {column:?} must be the first key column of every index \
                 (index {:?} disagrees)",
                index.name
            ));
        }
    }
    rewrite_table(cluster, catalog, db_name, name, |_, table, _| {
        table.manual_partitioning = Some(ManualPartitioning {
            column: ord,
            partitions: partitions.to_vec(),
            zones: BTreeMap::new(),
        });
        Ok(())
    })
}

fn alter_partition_zone(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    table: &str,
    partition: &str,
    zone: &ZoneOverrides,
) -> Result<DdlOutcome, DdlError> {
    let t = table_mut_of(catalog, db_name, table)?;
    let mp = t
        .manual_partitioning
        .as_mut()
        .ok_or_else(|| DdlError(format!("table {table:?} is not manually partitioned")))?;
    if !mp.partitions.iter().any(|(n, _)| n == partition) {
        return err(format!("unknown partition {partition:?}"));
    }
    mp.zones.insert(partition.to_string(), zone.clone());
    reconfigure_named_table(cluster, catalog, db_name, table)
}

fn alter_index_zone(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    table: &str,
    index: &str,
    zone: &ZoneOverrides,
) -> Result<DdlOutcome, DdlError> {
    let idx = table_mut_of(catalog, db_name, table)?
        .index_by_name_mut(index)
        .ok_or_else(|| DdlError(format!("unknown index {index:?}")))?;
    idx.zone_override = Some(zone.clone());
    reconfigure_named_table(cluster, catalog, db_name, table)
}

#[allow(clippy::too_many_arguments)]
fn create_index(
    cluster: &mut Cluster,
    catalog: &mut Catalog,
    db_name: &str,
    table_name: &str,
    index_name: &str,
    columns: &[String],
    unique: bool,
    storing: &[String],
) -> Result<DdlOutcome, DdlError> {
    let (db, table) = table_of(catalog, db_name, table_name)?;
    let mut table = table.clone();
    if table.index_by_name(index_name).is_some() {
        return err(format!("index {index_name:?} already exists"));
    }
    let key_columns = ordinals(&table, columns)?;
    let storing = ordinals(&table, storing)?;
    let region_partitioned = table.locality == TableLocality::RegionalByRow;
    push_index(
        &mut table,
        index_name,
        key_columns,
        unique,
        storing,
        region_partitioned,
    );
    let pos = table.indexes.len() - 1;
    create_index_ranges(cluster, db, &table, &table.indexes[pos])?;
    // Backfill from existing rows.
    let rows = read_all_rows(cluster, &table);
    write_rows(cluster, &table, &rows, pos..pos + 1)?;
    *table_mut_of(catalog, db_name, table_name)? = table;
    Ok(DdlOutcome::Ok)
}

// ---------------------------------------------------------------------
// Offline row movement
// ---------------------------------------------------------------------

/// Decode every live row of `table` from the ranges covering its primary
/// index, in key order.
fn read_all_rows(cluster: &mut Cluster, table: &Table) -> Vec<Vec<Datum>> {
    let primary = partition_span(table.id, table.primary_index().id, None);
    let mut rows = Vec::new();
    for rid in covering(cluster, &primary) {
        let kvs = cluster.admin_scan_range(rid);
        rows.extend(kvs.iter().filter_map(|(_, v)| decode_row(v)));
    }
    rows
}

/// Bulk-load `rows`' entries in the indexes at `positions` (offline rewrite
/// and backfill), in one ingest.
fn write_rows(
    cluster: &mut Cluster,
    table: &Table,
    rows: &[Vec<Datum>],
    positions: std::ops::Range<usize>,
) -> Result<(), DdlError> {
    cluster
        .ingest(index_entries(table, rows, positions))
        .map_err(|e| DdlError(format!("rewrite: {e}")))
}

/// Every entry `rows` have in the indexes at `positions`, row by row: its
/// key and the encoded row, for [`Cluster::ingest`]. The batch is encoded
/// into two buffers, one of keys and one of values, and the entries are
/// views into them: a bulk load allocates per batch, not per row.
pub fn index_entries(
    table: &Table,
    rows: &[Vec<Datum>],
    positions: std::ops::Range<usize>,
) -> Vec<(Key, Value)> {
    let indexes = &table.indexes[positions];
    let (mut keys, mut key_ends) = (Vec::new(), Vec::with_capacity(rows.len() * indexes.len()));
    let (mut values, mut value_ends) = (Vec::new(), Vec::with_capacity(rows.len()));
    for row in rows {
        let region = row_region(table, row);
        for index in indexes {
            entry_key_into(&mut keys, table, index, region, row);
            key_ends.push(keys.len());
        }
        encode_row_into(&mut values, row);
        value_ends.push(values.len());
    }
    let mut entries = Vec::with_capacity(key_ends.len());
    let mut keys = Bytes::views(keys, key_ends).map(Key);
    for value in Bytes::views(values, value_ends).map(Value) {
        // Each of the row's entries holds its value; the last one takes it.
        for _ in 1..indexes.len() {
            entries.extend(keys.next().map(|k| (k, value.clone())));
        }
        entries.extend(keys.next().map(|k| (k, value)));
    }
    entries
}

/// The region `row`'s index keys are prefixed with: its `crdb_region` if
/// the table is partitioned by region (REGIONAL BY ROW), else none.
pub(crate) fn row_region<'r>(table: &Table, row: &'r [Datum]) -> Option<&'r str> {
    if !table.primary_index().region_partitioned {
        return None;
    }
    table
        .region_column()
        .and_then(|o| row.get(o))
        .and_then(|d| d.as_str())
}

/// The KV key of `row`'s entry in `index`. Non-unique secondary indexes get
/// the primary key appended to disambiguate duplicates.
pub fn entry_key(table: &Table, index: &Index, region: Option<&str>, row: &[Datum]) -> Key {
    index_key(table.id, index.id, region, entry_columns(table, index, row))
}

/// Append the bytes of [`entry_key`] to `out`.
pub(crate) fn entry_key_into(
    out: &mut Vec<u8>,
    table: &Table,
    index: &Index,
    region: Option<&str>,
    row: &[Datum],
) {
    index_key_into(
        out,
        table.id,
        index.id,
        region,
        entry_columns(table, index, row),
    );
}

/// The columns of `row` an [`entry_key`] encodes after its prefix.
fn entry_columns<'r>(
    table: &'r Table,
    index: &'r Index,
    row: &'r [Datum],
) -> impl Iterator<Item = &'r Datum> + Clone {
    let suffix: &[usize] = if !index.unique && !index.is_primary() {
        &table.primary_index().key_columns
    } else {
        &[]
    };
    index.key_columns.iter().chain(suffix).map(|&o| &row[o])
}

/// The home region of the first range backing `index` (used by the planner
/// to prefer local duplicate indexes).
pub fn index_home_region(cluster: &Cluster, table: &Table, index: &Index) -> Option<String> {
    let span = partition_span(table.id, index.id, None);
    let desc = cluster.registry().lookup_span(&span).next()?;
    let region = cluster.topology().region_of(desc.leaseholder);
    Some(cluster.topology().region_name(region).to_string())
}

/// Expose index id lookup for the executor.
pub fn index_by_id(table: &Table, id: IndexId) -> Option<&Index> {
    table.indexes.iter().find(|i| i.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{encode_row, index_key};
    use crate::types::ColumnType;

    fn index(id: IndexId, key_columns: Vec<usize>, unique: bool) -> Index {
        Index {
            id,
            name: format!("i{id}"),
            key_columns,
            unique,
            storing: vec![],
            region_partitioned: true,
            zone_override: None,
        }
    }

    /// A table with a primary, a unique and a non-unique index.
    fn table(locality: TableLocality) -> Table {
        let col = |name: &str, ty| Column {
            name: name.into(),
            ty,
            not_null: false,
            hidden: false,
            default: None,
            computed: None,
            on_update: None,
            references: None,
        };
        let rbr = locality == TableLocality::RegionalByRow;
        let mut columns = vec![
            col("id", ColumnType::Int),
            col("email", ColumnType::String),
            col("city", ColumnType::String),
            col("blob", ColumnType::Bytes),
        ];
        if rbr {
            columns.push(col(REGION_COLUMN, ColumnType::Region));
        }
        let mut indexes = vec![
            index(1, vec![0], true),
            index(2, vec![1], true),
            index(3, vec![2, 3], false),
        ];
        for i in &mut indexes {
            i.region_partitioned = rbr;
        }
        Table {
            id: 7,
            name: "t".into(),
            columns,
            locality,
            indexes,
            manual_partitioning: None,
            zone_override: None,
            next_index_id: 4,
        }
    }

    /// `entry_key` encodes the row's columns in place; the key must be the
    /// one `index_key` gives for the same columns cloned out of the row.
    #[test]
    fn entry_key_matches_index_key_over_cloned_columns() {
        let table = table(TableLocality::RegionalByRow);
        let row = [
            Datum::Int(-42),
            Datum::String("a\0b@x.com".into()),
            Datum::String("paris".into()),
            Datum::Bytes(vec![0, 9, 0]),
            Datum::Region("us-east1".into()),
        ];
        let pk = &table.indexes[0].key_columns;
        for idx in &table.indexes {
            let mut cols: Vec<Datum> = idx.key_columns.iter().map(|&o| row[o].clone()).collect();
            if !idx.unique {
                cols.extend(pk.iter().map(|&o| row[o].clone()));
            }
            for region in [None, Some("us-east1")] {
                assert_eq!(
                    entry_key(&table, idx, region, &row),
                    index_key(table.id, idx.id, region, &cols),
                    "index {} region {region:?}",
                    idx.id
                );
            }
        }
    }

    /// The batch encoder writes, entry for entry, the bytes `entry_key` and
    /// `encode_row` give one row at a time.
    #[test]
    fn index_entries_match_entry_key_and_encode_row() {
        let localities = [
            TableLocality::RegionalByTable("us-east1".into()),
            TableLocality::RegionalByRow,
        ];
        for locality in localities {
            let rbr = locality == TableLocality::RegionalByRow;
            let table = table(locality);
            let rows: Vec<Vec<Datum>> = (0..6)
                .map(|i| {
                    let mut row = vec![
                        Datum::Int(i - 3),
                        Datum::String(format!("u{i}\0@x.com")),
                        if i % 3 == 0 {
                            Datum::Null
                        } else {
                            Datum::String("pa\0ris".into())
                        },
                        Datum::Bytes(vec![0, i as u8, 0]),
                    ];
                    if table.region_column().is_some() {
                        row.push(Datum::Region(
                            ["us-east1", "europe-west2"][i as usize % 2].into(),
                        ));
                    }
                    row
                })
                .collect();
            for positions in [0..3, 1..2, 2..3] {
                let entries = index_entries(&table, &rows, positions.clone());
                let mut want = Vec::new();
                for row in &rows {
                    let region = row_region(&table, row);
                    assert_eq!(region.is_some(), rbr);
                    for idx in &table.indexes[positions.clone()] {
                        want.push((entry_key(&table, idx, region, row), encode_row(row)));
                    }
                }
                assert_eq!(entries, want, "rbr {rbr} indexes {positions:?}");
            }
        }
    }
}
