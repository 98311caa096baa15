//! The locality-aware planner (§4).
//!
//! Two decisions matter for multi-region latency:
//!
//! 1. **Partition strategy** — which partitions of an implicitly
//!    region-partitioned index a lookup must visit. When the region is
//!    known (bound in the predicate, or derivable from a computed region
//!    column whose determinants are bound) a single partition suffices.
//!    When it is not, but the lookup can return at most a known number of
//!    rows (unique index, or a LIMIT), *locality-optimized search* (§4.2)
//!    probes the gateway's local partition first and only fans out to the
//!    remote partitions on a miss.
//! 2. **Uniqueness checks** (§4.1) — which partitions an INSERT/UPDATE must
//!    probe to enforce a global UNIQUE constraint, and the three rules that
//!    let the optimizer omit the checks entirely.

use crate::ast::Expr;
use crate::catalog::{Database, Index, RegionState, Table, TableLocality};
use crate::encoding::IndexId;
use crate::expr::{eval, extract_equalities, EvalEnv};
use crate::types::Datum;

/// Which partitions a lookup visits. A fan-out names the database's
/// regions by borrowing its list: planning a read copies no region name.
#[derive(Clone, PartialEq, Debug)]
pub enum PartitionStrategy<'a> {
    /// The index is unpartitioned, or the row's partition is known.
    Single(Option<String>),
    /// Locality-optimized search: probe `local` first; fan out to the rest
    /// of `regions` ([`remote_regions`]) only if fewer than the row limit
    /// were found (§4.2).
    LocalityOptimized {
        local: &'a str,
        regions: &'a [RegionState],
    },
    /// No bound on result count and unknown region: visit every region.
    AllPartitions(&'a [RegionState]),
}

/// The regions of `regions` other than `local`, in order: where a
/// locality-optimized search fans out to.
pub fn remote_regions<'a>(
    regions: &'a [RegionState],
    local: &'a str,
) -> impl Iterator<Item = &'a str> + 'a {
    regions
        .iter()
        .map(|r| r.name.as_str())
        .filter(move |r| *r != local)
}

/// A planned read of a table of the database `'a`.
#[derive(Clone, Debug)]
pub struct ReadPlan<'a> {
    pub index_id: IndexId,
    /// One entry per key tuple to probe (IN lists expand combinatorially;
    /// in practice one).
    pub keys: Vec<Vec<Datum>>,
    pub strategy: PartitionStrategy<'a>,
    /// Whether the chosen index key is fully bound and unique (≤1 row per
    /// probed key).
    pub unique: bool,
    /// The predicate must be re-applied to fetched rows.
    pub residual: bool,
}

/// A planned uniqueness check for one index (§4.1).
#[derive(Clone, Debug)]
pub struct UniquenessCheck {
    pub index_id: IndexId,
    /// Key column values to probe.
    pub key: Vec<Datum>,
    /// Partitions to probe (`None` = unpartitioned index).
    pub partitions: Vec<Option<String>>,
}

/// Planner errors.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for PlanError {}

/// Try to determine the row's home region from bound columns: either the
/// region column itself is bound, or it is computed and all its determinant
/// columns are bound (§2.3.2 "computed partitioning").
pub fn derive_region(
    table: &Table,
    bound: &[(usize, Vec<Datum>)],
    env: &mut EvalEnv<'_>,
) -> Option<String> {
    let region_ord = table.region_column()?;
    // Directly bound (single value only).
    if let Some((_, vals)) = bound.iter().find(|(ord, _)| *ord == region_ord) {
        if vals.len() == 1 {
            return vals[0].as_str().map(|s| s.to_string());
        }
        return None;
    }
    // Computed: evaluate the computed expression over a synthetic row
    // holding the bound values (must bind every referenced column; single
    // values only).
    let computed = table.columns[region_ord].computed.as_ref()?;
    let mut row = vec![Datum::Null; table.columns.len()];
    for (ord, vals) in bound {
        if vals.len() == 1 {
            row[*ord] = vals[0].clone();
        }
    }
    if !determinants_bound(computed, table, &row) {
        return None;
    }
    match eval(computed, table, &row, env) {
        Ok(d) => d.as_str().map(|s| s.to_string()),
        Err(_) => None,
    }
}

/// All columns referenced by `e` are non-NULL in `row`.
fn determinants_bound(e: &Expr, table: &Table, row: &[Datum]) -> bool {
    match e {
        Expr::Col(name) => table
            .column_ordinal(name)
            .is_some_and(|o| !row[o].is_null()),
        Expr::Lit(_) => true,
        Expr::BinOp { lhs, rhs, .. } => {
            determinants_bound(lhs, table, row) && determinants_bound(rhs, table, row)
        }
        Expr::In { expr, list } => {
            determinants_bound(expr, table, row)
                && list.iter().all(|e| determinants_bound(e, table, row))
        }
        Expr::Case { whens, else_ } => {
            whens.iter().all(|(c, v)| {
                determinants_bound(c, table, row) && determinants_bound(v, table, row)
            }) && else_
                .as_ref()
                .is_none_or(|e| determinants_bound(e, table, row))
        }
        Expr::FnCall { args, .. } => args.iter().all(|e| determinants_bound(e, table, row)),
    }
}

/// All indexes whose key columns are fully bound by the equalities.
fn fully_bound_indexes<'t>(table: &'t Table, bound: &[(usize, Vec<Datum>)]) -> Vec<&'t Index> {
    table
        .indexes
        .iter()
        .filter(|idx| {
            idx.key_columns
                .iter()
                .all(|kc| bound.iter().any(|(ord, _)| ord == kc))
        })
        .collect()
}

/// Expand the cartesian product of per-column values into key tuples, in
/// index key-column order, the last column's values varying fastest. Each
/// tuple is built once, at its size.
fn expand_keys(index: &Index, bound: &[(usize, Vec<Datum>)]) -> Vec<Vec<Datum>> {
    let values = |kc: &usize| -> &[Datum] {
        let (_, vals) = bound
            .iter()
            .find(|(ord, _)| ord == kc)
            .expect("index fully bound");
        vals
    };
    let count: usize = index
        .key_columns
        .iter()
        .map(|kc| values(kc).len())
        .product();
    (0..count)
        .map(|i| {
            // `i` in mixed radix: a column's digit counts the tuples of the
            // columns after it.
            let (mut rest, mut stride) = (i, count);
            let digits = index.key_columns.iter().map(|kc| {
                let vals = values(kc);
                stride /= vals.len();
                let v = &vals[rest / stride];
                rest %= stride;
                v.clone()
            });
            digits.collect()
        })
        .collect()
}

/// Plan a read of `table` given a predicate (already parsed). `prefer_local`
/// selects among duplicate covering indexes (legacy duplicate-index
/// topology): the caller passes the home-region resolver.
#[allow(clippy::too_many_arguments)]
pub fn plan_read<'a>(
    db: &'a Database,
    table: &Table,
    predicate: Option<&Expr>,
    limit: Option<u64>,
    gateway_region: &str,
    los_enabled: bool,
    env: &mut EvalEnv<'_>,
    index_home_region: &mut dyn FnMut(&Index) -> Option<String>,
) -> Result<ReadPlan<'a>, PlanError> {
    let (bound, residual) = match predicate {
        Some(p) => extract_equalities(p, table),
        None => (Vec::new(), false),
    };
    // Conservatively re-apply the whole predicate (cheap; rows are already
    // in hand).
    let residual = residual || bound.len() > 1;

    let candidates = fully_bound_indexes(table, &bound);
    let Some(&first) = candidates.first() else {
        // No usable index: scan the partitions. A LIMIT bounds the result
        // count, so locality-optimized search still applies (§4.2): scan
        // the local partition first and fan out only if it comes up short.
        let strategy = match &table.locality {
            TableLocality::RegionalByRow if los_enabled && limit.is_some() => {
                fan_out(db, gateway_region)
            }
            TableLocality::RegionalByRow => PartitionStrategy::AllPartitions(&db.regions),
            _ => PartitionStrategy::Single(None),
        };
        return Ok(ReadPlan {
            index_id: table.primary_index().id,
            keys: vec![],
            strategy,
            unique: false,
            residual: predicate.is_some(),
        });
    };

    // Among duplicate candidates (same key columns), prefer the one whose
    // backing range is led from the gateway's region — the legacy
    // duplicate-index read path (§7.3.1).
    let mut index = first;
    if candidates.len() > 1 {
        for c in &candidates {
            if index_home_region(c).as_deref() == Some(gateway_region) {
                index = c;
                break;
            }
        }
    }

    let keys = expand_keys(index, &bound);
    let unique = index.unique;

    let strategy = if !index.region_partitioned {
        PartitionStrategy::Single(None)
    } else if let Some(region) = derive_region(table, &bound, env) {
        PartitionStrategy::Single(Some(region))
    } else if los_enabled && (unique || limit.is_some()) {
        // LOS applies when the result count is bounded: a unique index probe
        // returns at most one row per key; a LIMIT bounds any lookup (§4.2).
        // The `Unoptimized` baseline of §7.2.1 disables it.
        fan_out(db, gateway_region)
    } else {
        PartitionStrategy::AllPartitions(&db.regions)
    };

    Ok(ReadPlan {
        index_id: index.id,
        keys,
        strategy,
        unique,
        residual,
    })
}

/// A bounded lookup of unknown region: locality-optimized search from the
/// gateway's region, or every region if the database lacks it.
fn fan_out<'a>(db: &'a Database, gateway_region: &str) -> PartitionStrategy<'a> {
    match db.regions.iter().find(|r| r.name == gateway_region) {
        Some(local) => PartitionStrategy::LocalityOptimized {
            local: &local.name,
            regions: &db.regions,
        },
        None => PartitionStrategy::AllPartitions(&db.regions),
    }
}

/// Plan the uniqueness checks for writing `row` into `table` (§4.1).
///
/// `generated` flags columns whose value came from a `gen_random_uuid()`
/// default in this statement (rule 1: checks omitted).
pub fn plan_uniqueness_checks(
    db: &Database,
    table: &Table,
    row: &[Datum],
    generated: &[bool],
) -> Vec<UniquenessCheck> {
    let region_ord = table.region_column();
    let mut checks = Vec::new();
    for index in &table.indexes {
        if !index.unique {
            continue;
        }
        // Rule 1: all key columns freshly generated UUIDs — collision
        // probability negligible, skip.
        if index
            .key_columns
            .iter()
            .all(|&kc| generated.get(kc).copied().unwrap_or(false))
        {
            continue;
        }
        let key: Vec<Datum> = index
            .key_columns
            .iter()
            .map(|&kc| row[kc].clone())
            .collect();
        let home = region_ord
            .and_then(|ro| row.get(ro))
            .and_then(|d| d.as_str())
            .map(|s| s.to_string());
        if !index.region_partitioned {
            // Single partition: one (local) probe.
            checks.push(UniquenessCheck {
                index_id: index.id,
                key,
                partitions: vec![None],
            });
            continue;
        }
        // Rule 2: the region column is part of the unique key — uniqueness
        // per region is all the constraint promises, so only the row's own
        // partition needs a probe (no cross-region hops).
        if region_ord.is_some_and(|ro| index.key_columns.contains(&ro)) {
            checks.push(UniquenessCheck {
                index_id: index.id,
                key,
                partitions: vec![home],
            });
            continue;
        }
        // Rule 3: region computed from a subset of this index's unique
        // columns — a row with these column values can only ever live in
        // one (computable) partition, so checking that partition alone
        // gives global uniqueness.
        let computed_from_key = region_ord.is_some_and(|ro| {
            table.columns[ro].computed.as_ref().is_some_and(|expr| {
                columns_referenced(expr, table)
                    .iter()
                    .all(|ord| index.key_columns.contains(ord))
            })
        });
        if computed_from_key {
            checks.push(UniquenessCheck {
                index_id: index.id,
                key,
                partitions: vec![home],
            });
            continue;
        }
        // General case: probe every region's partition.
        checks.push(UniquenessCheck {
            index_id: index.id,
            key,
            partitions: db.all_regions().into_iter().map(Some).collect(),
        });
    }
    checks
}

/// Ordinals of all columns referenced by `e`.
pub fn columns_referenced(e: &Expr, table: &Table) -> Vec<usize> {
    let mut out = Vec::new();
    walk_columns(e, table, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn walk_columns(e: &Expr, table: &Table, out: &mut Vec<usize>) {
    match e {
        Expr::Col(name) => {
            if let Some(o) = table.column_ordinal(name) {
                out.push(o);
            }
        }
        Expr::Lit(_) => {}
        Expr::BinOp { lhs, rhs, .. } => {
            walk_columns(lhs, table, out);
            walk_columns(rhs, table, out);
        }
        Expr::In { expr, list } => {
            walk_columns(expr, table, out);
            for e in list {
                walk_columns(e, table, out);
            }
        }
        Expr::Case { whens, else_ } => {
            for (c, v) in whens {
                walk_columns(c, table, out);
                walk_columns(v, table, out);
            }
            if let Some(e) = else_ {
                walk_columns(e, table, out);
            }
        }
        Expr::FnCall { args, .. } => {
            for a in args {
                walk_columns(a, table, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Database, Index, RegionState, RegionStatus, Table};
    use crate::parser::parse;
    use crate::types::ColumnType;
    use mr_kv::zone::{PlacementPolicy, SurvivalGoal};
    use std::collections::{BTreeMap, HashMap};

    fn col(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.into(),
            ty,
            not_null: false,
            hidden: false,
            default: None,
            computed: None,
            on_update: None,
            references: None,
        }
    }

    fn index(id: u32, name: &str, keys: Vec<usize>, unique: bool, partitioned: bool) -> Index {
        Index {
            id,
            name: name.into(),
            key_columns: keys,
            unique,
            storing: vec![],
            region_partitioned: partitioned,
            zone_override: None,
        }
    }

    /// RBR users table: (id pk, email unique, name, crdb_region hidden).
    fn rbr_table(computed_region: Option<&str>) -> Table {
        let mut region_col = col(crate::catalog::REGION_COLUMN, ColumnType::Region);
        region_col.hidden = true;
        if let Some(expr) = computed_region {
            let sql = format!("SELECT * FROM t WHERE x = ({expr})");
            let parsed = parse(&sql).unwrap();
            if let crate::ast::Stmt::Select {
                predicate: Some(crate::ast::Expr::BinOp { rhs, .. }),
                ..
            } = parsed
            {
                region_col.computed = Some(*rhs);
            } else {
                panic!("fixture parse");
            }
        }
        Table {
            id: 1,
            name: "users".into(),
            columns: vec![
                col("id", ColumnType::Int),
                col("email", ColumnType::String),
                col("name", ColumnType::String),
                region_col,
            ],
            locality: TableLocality::RegionalByRow,
            indexes: vec![
                index(1, "primary", vec![0], true, true),
                index(2, "users_email_key", vec![1], true, true),
            ],
            manual_partitioning: None,
            zone_override: None,
            next_index_id: 3,
        }
    }

    fn database() -> Database {
        Database {
            name: "db".into(),
            primary_region: "r0".into(),
            regions: ["r0", "r1", "r2"]
                .iter()
                .map(|r| RegionState {
                    name: r.to_string(),
                    status: RegionStatus::Public,
                })
                .collect(),
            survival: SurvivalGoal::Zone,
            placement: PlacementPolicy::Default,
            tables: BTreeMap::new(),
        }
    }

    fn plan<'a>(
        db: &'a Database,
        table: &Table,
        sql_where: &str,
        limit: Option<u64>,
        gateway: &str,
    ) -> ReadPlan<'a> {
        let stmt = parse(&format!("SELECT * FROM users WHERE {sql_where}")).unwrap();
        let pred = match stmt {
            crate::ast::Stmt::Select { predicate, .. } => predicate,
            _ => panic!(),
        };
        let mut src = || 1u128;
        let mut env = EvalEnv {
            gateway_region: gateway,
            uuid_source: &mut src,
        };
        plan_read(
            db,
            table,
            pred.as_ref(),
            limit,
            gateway,
            true,
            &mut env,
            &mut |_| None,
        )
        .unwrap()
    }

    #[test]
    fn keys_expand_with_the_last_column_fastest() {
        let idx = index(9, "k", vec![2, 0], false, false);
        let (int, s) = (Datum::Int, |v: &str| Datum::String(v.into()));
        let bound = [(0, vec![s("a"), s("b"), s("c")]), (2, vec![int(1), int(2)])];
        let keys = expand_keys(&idx, &bound);
        let want: Vec<Vec<Datum>> = [1, 2]
            .into_iter()
            .flat_map(|i| ["a", "b", "c"].map(|v| vec![int(i), s(v)]))
            .collect();
        assert_eq!(keys, want);
        let empty = [(0, vec![]), (2, vec![int(1)])];
        assert!(expand_keys(&idx, &empty).is_empty());
        let no_columns = index(9, "none", vec![], false, false);
        assert_eq!(expand_keys(&no_columns, &[]), vec![Vec::<Datum>::new()]);
    }

    #[test]
    fn unique_lookup_uses_los_when_region_unknown() {
        let t = rbr_table(None);
        let db = database();
        let p = plan(&db, &t, "email = 'a@b.c'", None, "r1");
        assert_eq!(p.index_id, 2);
        assert!(p.unique);
        match p.strategy {
            PartitionStrategy::LocalityOptimized { local, regions } => {
                assert_eq!(local, "r1");
                let remote: Vec<&str> = remote_regions(regions, local).collect();
                assert_eq!(remote, vec!["r0", "r2"]);
            }
            s => panic!("expected LOS, got {s:?}"),
        }
    }

    #[test]
    fn bound_region_goes_to_single_partition() {
        let t = rbr_table(None);
        let db = database();
        let p = plan(&db, &t, "id = 5 AND crdb_region = 'r2'", None, "r0");
        assert_eq!(p.strategy, PartitionStrategy::Single(Some("r2".into())));
    }

    #[test]
    fn computed_region_derived_from_determinants() {
        let t = rbr_table(Some("CASE WHEN name = 'west' THEN 'r2' ELSE 'r0' END"));
        let db = database();
        // Determinant (name) bound: partition computable.
        let p = plan(&db, &t, "id = 5 AND name = 'west'", None, "r1");
        assert_eq!(p.strategy, PartitionStrategy::Single(Some("r2".into())));
        // Determinant unbound: fall back to LOS (pk is unique).
        let p = plan(&db, &t, "id = 5", None, "r1");
        assert!(matches!(
            p.strategy,
            PartitionStrategy::LocalityOptimized { .. }
        ));
    }

    #[test]
    fn unbounded_scan_visits_all_partitions_unless_limited() {
        let t = rbr_table(None);
        let db = database();
        let p = plan(&db, &t, "name = 'x'", None, "r0");
        assert!(matches!(p.strategy, PartitionStrategy::AllPartitions(_)));
        assert!(p.residual);
        // A LIMIT bounds the row count: LOS applies (§4.2).
        let p = plan(&db, &t, "name = 'x'", Some(3), "r0");
        assert!(matches!(
            p.strategy,
            PartitionStrategy::LocalityOptimized { .. }
        ));
    }

    #[test]
    fn los_disabled_fans_out() {
        let t = rbr_table(None);
        let stmt = parse("SELECT * FROM users WHERE email = 'a@b.c'").unwrap();
        let pred = match stmt {
            crate::ast::Stmt::Select { predicate, .. } => predicate,
            _ => panic!(),
        };
        let mut src = || 1u128;
        let mut env = EvalEnv {
            gateway_region: "r1",
            uuid_source: &mut src,
        };
        let db = database();
        let p = plan_read(
            &db,
            &t,
            pred.as_ref(),
            None,
            "r1",
            false, // Unoptimized baseline
            &mut env,
            &mut |_| None,
        )
        .unwrap();
        assert!(matches!(p.strategy, PartitionStrategy::AllPartitions(_)));
    }

    #[test]
    fn duplicate_index_preference_picks_local_leaseholder() {
        let mut t = rbr_table(None);
        t.locality = TableLocality::Global;
        for i in t.indexes.iter_mut() {
            i.region_partitioned = false;
        }
        // A duplicate of the email index "pinned" to r2.
        t.indexes.push(index(3, "dup_r2", vec![1], true, false));
        let stmt = parse("SELECT * FROM users WHERE email = 'a@b.c'").unwrap();
        let pred = match stmt {
            crate::ast::Stmt::Select { predicate, .. } => predicate,
            _ => panic!(),
        };
        let mut src = || 1u128;
        let mut env = EvalEnv {
            gateway_region: "r2",
            uuid_source: &mut src,
        };
        let homes: HashMap<u32, &str> = [(2u32, "r0"), (3u32, "r2")].into_iter().collect();
        let db = database();
        let p = plan_read(
            &db,
            &t,
            pred.as_ref(),
            None,
            "r2",
            true,
            &mut env,
            &mut |idx| homes.get(&idx.id).map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(p.index_id, 3, "the r2-pinned duplicate serves r2 readers");
    }

    #[test]
    fn uniqueness_rules() {
        let db = database();
        // Rule 0 (general): plain unique columns probe every region.
        let t = rbr_table(None);
        let row = vec![
            Datum::Int(1),
            Datum::String("a@b.c".into()),
            Datum::Null,
            Datum::Region("r1".into()),
        ];
        let checks = plan_uniqueness_checks(&db, &t, &row, &[false; 4]);
        // Both pk and email must be probed in all 3 regions.
        assert_eq!(checks.len(), 2);
        for c in &checks {
            assert_eq!(c.partitions.len(), 3);
        }

        // Rule 1: generated uuid key → no checks for that index.
        let checks = plan_uniqueness_checks(&db, &t, &row, &[true, false, false, false]);
        assert_eq!(checks.len(), 1, "pk check skipped, email check remains");
        assert_eq!(checks[0].index_id, 2);

        // Rule 2: region explicitly part of the unique key → home-only probe.
        let mut t2 = rbr_table(None);
        t2.indexes[1].key_columns = vec![3, 1]; // (crdb_region, email)
        let checks = plan_uniqueness_checks(&db, &t2, &row, &[false; 4]);
        let email_check = checks.iter().find(|c| c.index_id == 2).unwrap();
        assert_eq!(email_check.partitions, vec![Some("r1".to_string())]);

        // Rule 3: region computed from the unique column → home-only probe.
        let t3 = rbr_table(Some("CASE WHEN id % 2 = 0 THEN 'r0' ELSE 'r1' END"));
        let checks = plan_uniqueness_checks(&db, &t3, &row, &[false; 4]);
        let pk_check = checks.iter().find(|c| c.index_id == 1).unwrap();
        assert_eq!(pk_check.partitions, vec![Some("r1".to_string())]);
        // ...but the email index's region is NOT computed from email: full fan-out.
        let email_check = checks.iter().find(|c| c.index_id == 2).unwrap();
        assert_eq!(email_check.partitions.len(), 3);
    }
}
