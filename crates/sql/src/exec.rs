//! The SQL executor and session API.
//!
//! [`SqlDb`] wraps a [`Cluster`] plus the catalog; [`Session`]s execute
//! statements against it. DDL executes synchronously (offline schema
//! changes, see [`crate::ddl`]); DML runs as transactions over the KV
//! layer in continuation-passing style:
//!
//! * implicit transactions (no explicit `BEGIN`) auto-commit and
//!   transparently retry on serialization failures (refresh failures /
//!   uncertainty restarts that cannot refresh);
//! * `SELECT ... AS OF SYSTEM TIME` runs lock-free as a stale read
//!   (exact or bounded staleness, §5.3) on the nearest replica;
//! * INSERT, UPSERT and UPDATE write each row through one routine
//!   (`write_row`): type and NOT NULL checks, global uniqueness with the
//!   planned probe set (§4.1) and foreign keys with parent lookups;
//! * lookups use locality-optimized search when applicable (§4.2);
//! * `UPDATE` applies `ON UPDATE rehome_row()` columns, moving rows
//!   between partitions (automatic rehoming, §2.3.2).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use mr_kv::cluster::{Cluster, ClusterConfig, Cont, ReadOptions, Staleness};
use mr_kv::join::{join_all, Task};
use mr_kv::TxnHandle;
use mr_proto::{Key, KvError, Span, Value};
use mr_sim::{NodeId, Topology};

use crate::ast::{Aost, Expr, Stmt};
use crate::catalog::{Catalog, Database, Index, Table};
use crate::ddl::{self, entry_key, row_region, DdlError, DdlOutcome};
use crate::encoding::{decode_row, encode_row, index_key};
use crate::expr::{eval, next_uuid, EvalEnv};
use crate::parser::parse;
use crate::plan::{
    plan_read, plan_uniqueness_checks, remote_regions, PartitionStrategy, ReadPlan, UniquenessCheck,
};
use crate::types::{ColumnType, Datum};

/// Continuation for SQL results.
pub type SqlCont<T> = Box<dyn FnOnce(&mut Cluster, Result<T, SqlError>)>;

/// Statement kind label for the `sql.stmt` trace span.
fn stmt_kind(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::CreateDatabase { .. } => "create_database",
        Stmt::AlterDatabase { .. } => "alter_database",
        Stmt::ShowRegions { .. } => "show_regions",
        Stmt::ShowRanges { .. } => "show_ranges",
        Stmt::ShowSurvivalGoal { .. } => "show_survival_goal",
        Stmt::CreateTable { .. } => "create_table",
        Stmt::DropTable { .. } => "drop_table",
        Stmt::AlterTable { .. } => "alter_table",
        Stmt::CreateIndex { .. } => "create_index",
        Stmt::AlterIndex { .. } => "alter_index",
        Stmt::AlterPartition { .. } => "alter_partition",
        Stmt::Insert { .. } => "insert",
        Stmt::Select { .. } => "select",
        Stmt::Update { .. } => "update",
        Stmt::Delete { .. } => "delete",
        Stmt::Begin => "begin",
        Stmt::Commit => "commit",
        Stmt::Rollback => "rollback",
        Stmt::Use { .. } => "use",
        Stmt::Explain(_) => "explain",
        Stmt::ExplainAnalyze(_) => "explain_analyze",
    }
}

/// Maximum automatic retries of an implicit transaction.
const MAX_IMPLICIT_RETRIES: u32 = 10;

/// SQL-level errors.
#[derive(Clone, Debug)]
pub enum SqlError {
    Parse(String),
    Catalog(String),
    Plan(String),
    Eval(String),
    Kv(KvError),
    UniqueViolation { table: String, index: String },
    NotNullViolation { table: String, column: String },
    FkViolation { table: String, parent: String },
    ReadOnlyRegion(String),
    TxnState(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Catalog(m) => write!(f, "catalog error: {m}"),
            SqlError::Plan(m) => write!(f, "planning error: {m}"),
            SqlError::Eval(m) => write!(f, "evaluation error: {m}"),
            SqlError::Kv(e) => write!(f, "kv error: {e}"),
            SqlError::UniqueViolation { table, index } => {
                write!(
                    f,
                    "duplicate key violates unique constraint {index:?} on {table:?}"
                )
            }
            SqlError::NotNullViolation { table, column } => {
                write!(f, "null value in column {column:?} of {table:?}")
            }
            SqlError::FkViolation { table, parent } => {
                write!(
                    f,
                    "insert into {table:?} violates foreign key to {parent:?}"
                )
            }
            SqlError::ReadOnlyRegion(r) => {
                write!(f, "region {r:?} is read-only (being dropped)")
            }
            SqlError::TxnState(m) => write!(f, "transaction state: {m}"),
        }
    }
}
impl std::error::Error for SqlError {}

impl SqlError {
    /// Whether re-running the whole transaction can succeed where this
    /// attempt failed: it lost a conflict (a failed refresh, an abort, a
    /// write pushed past a newer value). Constraint violations, parse and
    /// plan errors fail the same way every time. Implicit transactions are
    /// retried on it here; clients re-run explicit ones on it.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            SqlError::Kv(KvError::RefreshFailed { .. })
                | SqlError::Kv(KvError::TxnAborted { .. })
                | SqlError::Kv(KvError::WriteTooOld { .. })
        )
    }
}

impl From<DdlError> for SqlError {
    fn from(e: DdlError) -> SqlError {
        SqlError::Catalog(e.0)
    }
}

/// Result of a statement.
#[derive(Clone, Debug)]
pub enum SqlResult {
    Ok,
    Count(u64),
    Rows(Vec<Vec<Datum>>),
}

impl SqlResult {
    pub fn rows(&self) -> &[Vec<Datum>] {
        match self {
            SqlResult::Rows(r) => r,
            _ => &[],
        }
    }

    pub fn count(&self) -> u64 {
        match self {
            SqlResult::Count(n) => *n,
            SqlResult::Rows(r) => r.len() as u64,
            SqlResult::Ok => 0,
        }
    }
}

struct SessState {
    gateway: NodeId,
    /// Region name of `gateway`, shared with every statement's [`ExecCtx`].
    gateway_region: Rc<str>,
    db: Option<Rc<str>>,
    txn: Option<TxnHandle>,
}

/// A client session pinned to a gateway node.
#[derive(Clone)]
pub struct Session {
    inner: Rc<RefCell<SessState>>,
}

impl Session {
    pub fn gateway(&self) -> NodeId {
        self.inner.borrow().gateway
    }

    pub fn database(&self) -> Option<String> {
        self.inner.borrow().db.as_deref().map(str::to_string)
    }

    pub fn in_txn(&self) -> bool {
        self.inner.borrow().txn.is_some()
    }
}

/// The SQL database: a cluster plus its catalog.
pub struct SqlDb {
    pub cluster: Cluster,
    pub catalog: Rc<RefCell<Catalog>>,
    uuid_counter: Rc<Cell<u64>>,
    /// Enforce foreign keys with parent lookups (on by default).
    pub fk_checks: bool,
    /// Enforce UNIQUE constraints with probe reads (on by default; the
    /// `Unoptimized` baselines of §7.2 switch planner behaviours instead).
    pub unique_checks: bool,
    /// Locality-optimized search (§4.2); disabled by the `Unoptimized`
    /// baseline of §7.2.1, which fans out to all partitions instead.
    pub los_enabled: bool,
}

impl SqlDb {
    pub fn new(topo: Topology, cfg: ClusterConfig) -> SqlDb {
        SqlDb {
            cluster: Cluster::new(topo, cfg),
            catalog: Rc::new(RefCell::new(Catalog::new())),
            uuid_counter: Rc::new(Cell::new(0)),
            fk_checks: true,
            unique_checks: true,
            los_enabled: true,
        }
    }

    /// Open a session whose gateway is `node` (clients connect to a
    /// collocated node, §7.1.1).
    pub fn session(&self, node: NodeId, db: Option<&str>) -> Session {
        Session {
            inner: Rc::new(RefCell::new(SessState {
                gateway: node,
                gateway_region: self.cluster.region_name_of(node).into(),
                db: db.map(Rc::from),
                txn: None,
            })),
        }
    }

    /// Convenience: open a session on the first node of `region`.
    pub fn session_in_region(&self, region: &str, db: Option<&str>) -> Session {
        let rid = self
            .cluster
            .topology()
            .region_by_name(region)
            .unwrap_or_else(|| panic!("unknown region {region:?}"));
        let node = self.cluster.topology().nodes_in_region(rid)[0];
        self.session(node, db)
    }

    /// Execute one SQL statement asynchronously; `cont` fires with the
    /// result once the simulated operation completes.
    ///
    /// Each statement opens a root `sql.stmt` trace span; the KV operations
    /// it issues (via the ambient `trace_parent`) become its children, so a
    /// trace reads gateway-down: statement → txn → op → RPC hops.
    pub fn exec(&mut self, sess: &Session, sql: &str, cont: SqlCont<SqlResult>) {
        let stmt = match parse(sql) {
            Ok(s) => s,
            Err(e) => {
                cont(&mut self.cluster, Err(SqlError::Parse(e)));
                return;
            }
        };
        let gateway = sess.inner.borrow().gateway;
        let now = self.cluster.now();
        let span = self.cluster.obs.tracer.start("sql.stmt", None, now);
        self.cluster.obs.tracer.attr(span, "stmt", stmt_kind(&stmt));
        self.cluster
            .obs
            .tracer
            .attr(span, "gateway_region", self.cluster.region_name_of(gateway));
        let prev_parent = std::mem::replace(&mut self.cluster.trace_parent, span);
        let cont: SqlCont<SqlResult> = Box::new(move |c, res| {
            let now = c.now();
            if let Err(e) = &res {
                c.obs.tracer.event(span, now, format_args!("err: {e}"));
            }
            c.obs.tracer.finish(span, now);
            // The finished statement becomes "the last statement" that
            // `crdb_internal.session_trace` flattens.
            if span.is_some() {
                c.last_stmt_span = span;
            }
            cont(c, res)
        });
        self.exec_stmt(sess, stmt, cont);
        // The statement entry path is synchronous up to its first KV op, so
        // the ambient parent can be restored as soon as exec_stmt returns.
        self.cluster.trace_parent = prev_parent;
    }

    /// Execute a whole `;`-separated script synchronously (driving the
    /// simulation to quiescence after each statement). Intended for schema
    /// setup; returns the last statement's result.
    pub fn exec_script(&mut self, sess: &Session, script: &str) -> Result<SqlResult, SqlError> {
        let mut last = SqlResult::Ok;
        for piece in crate::parser::split_statements(script) {
            let piece = piece.trim();
            if piece.is_empty() || crate::parser::is_blank(piece) {
                continue;
            }
            last = self.exec_sync(sess, piece)?;
        }
        Ok(last)
    }

    /// Execute one statement and drive the simulation until it completes.
    pub fn exec_sync(&mut self, sess: &Session, sql: &str) -> Result<SqlResult, SqlError> {
        let slot: Rc<RefCell<Option<Result<SqlResult, SqlError>>>> = Rc::new(RefCell::new(None));
        let s2 = Rc::clone(&slot);
        self.exec(
            sess,
            sql,
            Box::new(move |_c, res| {
                *s2.borrow_mut() = Some(res);
            }),
        );
        let deadline = mr_sim::SimTime(self.cluster.now().nanos() + 600_000_000_000);
        while slot.borrow().is_none() {
            assert!(
                self.cluster.now() <= deadline,
                "statement did not complete: {sql}"
            );
            assert!(self.cluster.step(), "simulation drained mid-statement");
        }
        let out = slot.borrow_mut().take().unwrap();
        out
    }

    fn exec_stmt(&mut self, sess: &Session, stmt: Stmt, cont: SqlCont<SqlResult>) {
        match stmt {
            Stmt::Use { db } => {
                sess.inner.borrow_mut().db = Some(db.into());
                cont(&mut self.cluster, Ok(SqlResult::Ok));
            }
            Stmt::Begin => {
                let mut st = sess.inner.borrow_mut();
                if st.txn.is_some() {
                    drop(st);
                    cont(
                        &mut self.cluster,
                        Err(SqlError::TxnState("transaction already open".into())),
                    );
                    return;
                }
                let h = self.cluster.txn_begin(st.gateway);
                st.txn = Some(h);
                drop(st);
                cont(&mut self.cluster, Ok(SqlResult::Ok));
            }
            Stmt::Commit => {
                let h = sess.inner.borrow_mut().txn.take();
                match h {
                    None => cont(&mut self.cluster, Ok(SqlResult::Ok)),
                    Some(h) => self.cluster.txn_commit(
                        h,
                        Box::new(move |c, res| match res {
                            Ok(_) => cont(c, Ok(SqlResult::Ok)),
                            Err(e) => cont(c, Err(SqlError::Kv(e))),
                        }),
                    ),
                }
            }
            Stmt::Rollback => {
                let h = sess.inner.borrow_mut().txn.take();
                match h {
                    None => cont(&mut self.cluster, Ok(SqlResult::Ok)),
                    Some(h) => self
                        .cluster
                        .txn_rollback(h, Box::new(move |c, _| cont(c, Ok(SqlResult::Ok)))),
                }
            }
            // DDL: synchronous.
            Stmt::CreateDatabase { .. }
            | Stmt::AlterDatabase { .. }
            | Stmt::ShowRegions { .. }
            | Stmt::ShowRanges { .. }
            | Stmt::ShowSurvivalGoal { .. }
            | Stmt::CreateTable { .. }
            | Stmt::DropTable { .. }
            | Stmt::AlterTable { .. }
            | Stmt::CreateIndex { .. }
            | Stmt::AlterIndex { .. }
            | Stmt::AlterPartition { .. } => {
                let db = sess.inner.borrow().db.clone();
                // CREATE DATABASE implicitly selects the database.
                if let Stmt::CreateDatabase { name, .. } = &stmt {
                    sess.inner.borrow_mut().db = Some(name.as_str().into());
                }
                let mut catalog = self.catalog.borrow_mut();
                let res = ddl::exec_ddl(
                    &mut self.cluster,
                    &mut catalog,
                    db.as_deref(),
                    &stmt,
                    &self.uuid_counter,
                );
                drop(catalog);
                let res = res.map(|o| match o {
                    DdlOutcome::Ok => SqlResult::Ok,
                    DdlOutcome::Rows(rows) => SqlResult::Rows(rows),
                });
                cont(&mut self.cluster, res.map_err(Into::into));
            }
            Stmt::Explain(inner) => {
                let ctx = match self.ctx(sess) {
                    Ok(c) => c,
                    Err(e) => {
                        cont(&mut self.cluster, Err(e));
                        return;
                    }
                };
                let res = explain(&mut self.cluster, &ctx, &inner);
                cont(&mut self.cluster, res);
            }
            Stmt::ExplainAnalyze(inner) => {
                let ctx = match self.ctx(sess) {
                    Ok(c) => c,
                    Err(e) => {
                        cont(&mut self.cluster, Err(e));
                        return;
                    }
                };
                self.exec_explain_analyze(sess, ctx, *inner, cont);
            }
            // Virtual tables: materialized synchronously from live cluster
            // and catalog state — no KV reads, no transaction.
            Stmt::Select { ref table, .. } if crate::vtable::is_virtual(table) => {
                // Virtual tables work without a selected database.
                let db = sess.inner.borrow().db.clone().unwrap_or_else(|| "".into());
                let ctx = self.ctx_in(sess, db);
                let res = exec_select_virtual(&mut self.cluster, &ctx, &stmt);
                cont(&mut self.cluster, res);
            }
            // Stale SELECTs bypass the transaction machinery (§5.3).
            Stmt::Select {
                aost: Some(aost), ..
            } => {
                let ctx = match self.ctx(sess) {
                    Ok(c) => c,
                    Err(e) => {
                        cont(&mut self.cluster, Err(e));
                        return;
                    }
                };
                exec_select(
                    &mut self.cluster,
                    ctx,
                    Rc::new(stmt),
                    stale_mode(aost),
                    cont,
                );
            }
            // DML.
            Stmt::Insert { .. }
            | Stmt::Select { .. }
            | Stmt::Update { .. }
            | Stmt::Delete { .. } => {
                let ctx = match self.ctx(sess) {
                    Ok(c) => c,
                    Err(e) => {
                        cont(&mut self.cluster, Err(e));
                        return;
                    }
                };
                let stmt = Rc::new(stmt);
                let open = sess.inner.borrow().txn;
                match open {
                    Some(txn) => {
                        exec_dml_in_txn(&mut self.cluster, ctx, stmt, txn, cont);
                    }
                    None => run_implicit(&mut self.cluster, ctx, stmt, 0, cont),
                }
            }
        }
    }

    fn ctx(&self, sess: &Session) -> Result<ExecCtx, SqlError> {
        let db = sess.inner.borrow().db.clone();
        let db = db.ok_or_else(|| SqlError::Catalog("no database selected (USE <db>)".into()))?;
        Ok(self.ctx_in(sess, db))
    }

    fn ctx_in(&self, sess: &Session, db: Rc<str>) -> ExecCtx {
        let st = sess.inner.borrow();
        ExecCtx {
            catalog: Rc::clone(&self.catalog),
            uuid: Rc::clone(&self.uuid_counter),
            gateway: st.gateway,
            gateway_region: Rc::clone(&st.gateway_region),
            db,
            fk_checks: self.fk_checks,
            unique_checks: self.unique_checks,
            los_enabled: self.los_enabled,
        }
    }

    /// `EXPLAIN ANALYZE <stmt>`: execute the statement for real under a
    /// dedicated trace root (forcing the tracer on for its duration if
    /// necessary), then render the plan annotated with execution stats
    /// pulled from the span subtree and the attribution rollup.
    fn exec_explain_analyze(
        &mut self,
        sess: &Session,
        ctx: ExecCtx,
        inner: Stmt,
        cont: SqlCont<SqlResult>,
    ) {
        let was_enabled = self.cluster.obs.tracer.enabled();
        self.cluster.obs.tracer.set_enabled(true);
        let now = self.cluster.now();
        let root = self
            .cluster
            .obs
            .tracer
            .start("sql.analyze", self.cluster.trace_parent, now);
        self.cluster
            .obs
            .tracer
            .attr(root, "stmt", stmt_kind(&inner));
        let prev_parent = std::mem::replace(&mut self.cluster.trace_parent, root);
        let inner = Rc::new(inner);
        let inner2 = Rc::clone(&inner);
        let wrapped: SqlCont<SqlResult> = Box::new(move |c, res| {
            let now = c.now();
            c.obs.tracer.finish(root, now);
            if !was_enabled {
                c.obs.tracer.set_enabled(false);
            }
            // Even with session tracing off, the forced trace backs
            // `crdb_internal.session_trace` for the analyzed statement.
            c.last_stmt_span = root;
            match res {
                Ok(result) => {
                    let rows = render_analyze(c, &ctx, &inner2, root, &result);
                    cont(c, Ok(SqlResult::Rows(rows)));
                }
                Err(e) => cont(c, Err(e)),
            }
        });
        self.exec_stmt(sess, (*inner).clone(), wrapped);
        // Like `exec`: the entry path is synchronous up to the first KV op.
        self.cluster.trace_parent = prev_parent;
    }
}

/// Aggregate execution stats of one analyzed statement, computed from the
/// trace-span subtree under its `sql.analyze` root.
struct AnalyzeStats {
    /// End-to-end statement latency in nanos (root span duration).
    total_nanos: u64,
    /// RPCs issued (every `rpc.*` span below the root, including re-routed
    /// attempts).
    rpcs: u64,
    /// Distinct ranges those RPCs targeted.
    ranges: Vec<u64>,
    /// Distinct regions hosting an RPC target, sorted.
    regions: Vec<String>,
    /// Transaction attempts (statement-level restarts re-begin the txn).
    attempts: u64,
    /// Named component nanos, indexed like [`mr_kv::COMPONENTS`]; the
    /// aborted attempts' whole durations are folded into `retry`.
    comp_nanos: [u64; mr_kv::COMPONENTS.len()],
}

impl AnalyzeStats {
    fn collect(cluster: &Cluster, root: Option<mr_obs::SpanId>) -> Option<AnalyzeStats> {
        let root = root?;
        let tr = &cluster.obs.tracer;
        let root_data = tr.try_get(root)?;
        let total_nanos = root_data.duration().map(|d| d.nanos()).unwrap_or(0);
        let mut rpcs = 0u64;
        let mut ranges = std::collections::BTreeSet::new();
        let mut regions = std::collections::BTreeSet::new();
        let mut txn_spans = Vec::new();
        for id in tr.descendants(root) {
            let Some(s) = tr.try_get(id) else { continue };
            if s.name.starts_with("rpc.") {
                rpcs += 1;
                if let Some(r) = s.attr("range") {
                    if let Ok(n) = r.trim_start_matches("rng").parse::<u64>() {
                        ranges.insert(n);
                    }
                }
                if let Some(r) = s.attr("to_region") {
                    regions.insert(r.to_string());
                }
            } else if s.name == "txn" {
                txn_spans.push(s);
            }
        }
        let attempts = txn_spans.len() as u64;
        let mut comp_nanos = [0u64; mr_kv::COMPONENTS.len()];
        if let Some((last, aborted)) = txn_spans.split_last() {
            for (i, c) in mr_kv::COMPONENTS.iter().enumerate() {
                if let Some(v) = last.attr(c.attr_key()) {
                    comp_nanos[i] = v.parse().unwrap_or(0);
                }
            }
            // Every earlier attempt was rolled back and restarted: its whole
            // wall time (busy + backoff) is retry overhead of the statement.
            let retry_idx = mr_kv::COMPONENTS
                .iter()
                .position(|c| c.label() == "retry")
                .unwrap();
            for s in aborted {
                comp_nanos[retry_idx] += s.duration().map(|d| d.nanos()).unwrap_or(0);
            }
        }
        Some(AnalyzeStats {
            total_nanos,
            rpcs,
            ranges: ranges.into_iter().collect(),
            regions: regions.into_iter().collect(),
            attempts,
            comp_nanos,
        })
    }
}

/// Render the EXPLAIN ANALYZE result: the optimizer's plan tree followed by
/// an `execution stats:` section with integer-nanos component lines that sum
/// (with `other_nanos`) exactly to `total_nanos`.
fn render_analyze(
    cluster: &mut Cluster,
    ctx: &ExecCtx,
    stmt: &Stmt,
    root: Option<mr_obs::SpanId>,
    result: &SqlResult,
) -> Vec<Vec<Datum>> {
    let mut rows = match explain(cluster, ctx, stmt) {
        Ok(SqlResult::Rows(rows)) => rows,
        _ => vec![vec![Datum::String(format!(
            "explain analyze {}",
            stmt_kind(stmt)
        ))]],
    };
    let mut line = |s: String| rows.push(vec![Datum::String(s)]);
    line("execution stats:".into());
    line(format!("  rows: {}", result.count()));
    let Some(stats) = AnalyzeStats::collect(cluster, root) else {
        line("  (no trace recorded)".into());
        return rows;
    };
    line(format!(
        "  attempts: {} (retries: {})",
        stats.attempts,
        stats.attempts.saturating_sub(1)
    ));
    line(format!("  rpcs: {}", stats.rpcs));
    line(format!(
        "  ranges: {}",
        stats
            .ranges
            .iter()
            .map(|r| format!("rng{r}"))
            .collect::<Vec<_>>()
            .join(",")
    ));
    line(format!("  regions: {}", stats.regions.join(",")));
    line(format!("  total_nanos: {}", stats.total_nanos));
    let mut charged = 0u64;
    for (c, n) in mr_kv::COMPONENTS.iter().zip(stats.comp_nanos.iter()) {
        charged += n;
        line(format!("  {}_nanos: {}", c.label(), n));
    }
    line(format!(
        "  other_nanos: {}",
        stats.total_nanos.saturating_sub(charged)
    ));
    rows
}

/// Per-statement execution context, cloneable into continuations (every
/// clone is refcount bumps: the names are shared with the session).
#[derive(Clone)]
struct ExecCtx {
    catalog: Rc<RefCell<Catalog>>,
    uuid: Rc<Cell<u64>>,
    gateway: NodeId,
    gateway_region: Rc<str>,
    db: Rc<str>,
    fk_checks: bool,
    unique_checks: bool,
    los_enabled: bool,
}

impl ExecCtx {
    /// The descriptors this statement runs against: the versions current
    /// when it starts, kept until it ends whatever DDL lands meanwhile.
    fn snapshot(&self, table_name: &str) -> Result<(Rc<Database>, Rc<Table>), SqlError> {
        let cat = self.catalog.borrow();
        let db = cat
            .databases
            .get(&*self.db)
            .ok_or_else(|| SqlError::Catalog(format!("unknown database {:?}", self.db)))?;
        let table = db
            .tables
            .get(table_name)
            .ok_or_else(|| SqlError::Catalog(format!("unknown table {table_name:?}")))?;
        Ok((Rc::clone(db), Rc::clone(table)))
    }

    fn eval(&self, table: &Table, row: &[Datum], e: &Expr) -> Result<Datum, SqlError> {
        let mut env = EvalEnv {
            gateway_region: &self.gateway_region,
            uuid_source: &mut || next_uuid(&self.uuid),
        };
        eval(e, table, row, &mut env).map_err(|e| SqlError::Eval(e.0))
    }

    fn eval_pred(&self, table: &Table, row: &[Datum], e: &Expr) -> Result<bool, SqlError> {
        Ok(self.eval(table, row, e)?.as_bool() == Some(true))
    }
}

/// Execute a `SELECT` against a `crdb_internal.*` virtual table:
/// materialize all rows from live state, then filter / project / limit
/// with the regular expression machinery.
fn exec_select_virtual(
    cluster: &mut Cluster,
    ctx: &ExecCtx,
    stmt: &Stmt,
) -> Result<SqlResult, SqlError> {
    let Stmt::Select {
        table,
        columns,
        predicate,
        limit,
        aost,
    } = stmt
    else {
        unreachable!("exec_select_virtual requires a SELECT");
    };
    if aost.is_some() {
        return Err(SqlError::Plan(
            "AS OF SYSTEM TIME is not supported on virtual tables".into(),
        ));
    }
    let (schema, rows) = {
        let catalog = ctx.catalog.borrow();
        crate::vtable::build(cluster, &catalog, table).map_err(SqlError::Catalog)?
    };
    let proj: Option<Vec<usize>> = match columns {
        None => None,
        Some(cols) => Some(
            cols.iter()
                .map(|c| ordinal(&schema, c))
                .collect::<Result<_, _>>()?,
        ),
    };
    let mut out = Vec::new();
    for row in rows {
        if let Some(p) = predicate {
            if !ctx.eval_pred(&schema, &row, p)? {
                continue;
            }
        }
        out.push(match &proj {
            None => row,
            Some(ords) => ords.iter().map(|&i| row[i].clone()).collect(),
        });
        if let Some(l) = limit {
            if out.len() as u64 >= *l {
                break;
            }
        }
    }
    Ok(SqlResult::Rows(out))
}

// ---------------------------------------------------------------------
// CPS combinators
// ---------------------------------------------------------------------

/// Run all probe tasks concurrently, delivering as soon as `want` rows have
/// accumulated (or all tasks finished). Late results are discarded — the
/// locality-optimized-search fan-out needs only the partition that has the
/// row, not the farthest empty response.
fn race_until(
    cluster: &mut Cluster,
    tasks: Vec<Box<dyn FnOnce(&mut Cluster, SqlCont<Vec<Vec<Datum>>>)>>,
    seed_rows: Vec<Vec<Datum>>,
    want: usize,
    done: SqlCont<Vec<Vec<Datum>>>,
) {
    if tasks.is_empty() {
        done(cluster, Ok(seed_rows));
        return;
    }
    struct St {
        rows: Vec<Vec<Datum>>,
        remaining: usize,
        want: usize,
        done: Option<SqlCont<Vec<Vec<Datum>>>>,
    }
    let n = tasks.len();
    let st = Rc::new(RefCell::new(St {
        rows: seed_rows,
        remaining: n,
        want,
        done: Some(done),
    }));
    for t in tasks {
        let st = Rc::clone(&st);
        t(
            cluster,
            Box::new(move |c, res| {
                let mut s = st.borrow_mut();
                if s.done.is_none() {
                    return; // already delivered
                }
                match res {
                    Ok(rows) => {
                        s.rows.extend(rows);
                        s.remaining -= 1;
                        if s.rows.len() >= s.want || s.remaining == 0 {
                            let done = s.done.take().unwrap();
                            let rows = std::mem::take(&mut s.rows);
                            drop(s);
                            done(c, Ok(rows));
                        }
                    }
                    Err(e) => {
                        let done = s.done.take().unwrap();
                        drop(s);
                        done(c, Err(e));
                    }
                }
            }),
        );
    }
}

/// Run `f` over items sequentially, stopping on the first error.
fn for_each_seq<I: 'static>(
    cluster: &mut Cluster,
    mut items: std::vec::IntoIter<I>,
    f: Rc<dyn Fn(&mut Cluster, I, SqlCont<()>)>,
    done: SqlCont<()>,
) {
    match items.next() {
        None => done(cluster, Ok(())),
        Some(item) => {
            let f2 = Rc::clone(&f);
            f(
                cluster,
                item,
                Box::new(move |c, res| match res {
                    Ok(()) => for_each_seq(c, items, f2, done),
                    Err(e) => done(c, Err(e)),
                }),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Implicit transactions with retry
// ---------------------------------------------------------------------

fn run_implicit(
    cluster: &mut Cluster,
    ctx: ExecCtx,
    stmt: Rc<Stmt>,
    attempt: u32,
    cont: SqlCont<SqlResult>,
) {
    let txn = cluster.txn_begin(ctx.gateway);
    let ctx2 = ctx.clone();
    let stmt2 = Rc::clone(&stmt);
    exec_dml_in_txn(
        cluster,
        ctx,
        stmt,
        txn,
        Box::new(move |c, res| match res {
            Ok(result) => {
                c.txn_commit(
                    txn,
                    Box::new(move |c, cres| match cres {
                        Ok(_) => cont(c, Ok(result)),
                        Err(e) => {
                            let e = SqlError::Kv(e);
                            if e.is_retryable() && attempt < MAX_IMPLICIT_RETRIES {
                                run_implicit(c, ctx2, stmt2, attempt + 1, cont);
                            } else {
                                cont(c, Err(e));
                            }
                        }
                    }),
                );
            }
            Err(e) => {
                c.txn_rollback(
                    txn,
                    Box::new(move |c, _| {
                        if e.is_retryable() && attempt < MAX_IMPLICIT_RETRIES {
                            run_implicit(c, ctx2, stmt2, attempt + 1, cont);
                        } else {
                            cont(c, Err(e));
                        }
                    }),
                );
            }
        }),
    );
}

fn exec_dml_in_txn(
    cluster: &mut Cluster,
    ctx: ExecCtx,
    stmt: Rc<Stmt>,
    txn: TxnHandle,
    cont: SqlCont<SqlResult>,
) {
    match &*stmt {
        Stmt::Select { .. } => exec_select(cluster, ctx, stmt, FetchMode::Txn(txn), cont),
        Stmt::Insert {
            table,
            columns,
            rows,
            upsert,
        } => match Writer::new(ctx, table, txn) {
            Ok(w) => exec_insert(cluster, w, columns, rows, *upsert, cont),
            Err(e) => cont(cluster, Err(e)),
        },
        Stmt::Update {
            table, predicate, ..
        } => match Writer::new(ctx, table, txn) {
            Ok(w) => exec_update(cluster, w, Rc::clone(&stmt), predicate.as_ref(), cont),
            Err(e) => cont(cluster, Err(e)),
        },
        Stmt::Delete { table, predicate } => match Writer::new(ctx, table, txn) {
            Ok(w) => exec_delete(cluster, w, Rc::clone(&stmt), predicate.as_ref(), cont),
            Err(e) => cont(cluster, Err(e)),
        },
        other => cont(
            cluster,
            Err(SqlError::Plan(format!("not a DML statement: {other:?}"))),
        ),
    }
}

// ---------------------------------------------------------------------
// Row fetch (shared by SELECT / UPDATE / DELETE)
// ---------------------------------------------------------------------

/// How a fetch reads the KV layer: inside a transaction or as stale reads.
#[derive(Clone, Copy)]
enum FetchMode {
    Txn(TxnHandle),
    Stale(Staleness),
}

fn plan_for<'a>(
    ctx: &ExecCtx,
    cluster: &mut Cluster,
    db: &'a Database,
    table: &Table,
    predicate: Option<&Expr>,
    limit: Option<u64>,
) -> Result<ReadPlan<'a>, SqlError> {
    let mut env = EvalEnv {
        gateway_region: &ctx.gateway_region,
        uuid_source: &mut || next_uuid(&ctx.uuid),
    };
    // Resolver for duplicate-index selection: the home region of an
    // index's backing range.
    let cl: &Cluster = cluster;
    let mut resolver = |idx: &Index| ddl::index_home_region(cl, table, idx);
    plan_read(
        db,
        table,
        predicate,
        limit,
        &ctx.gateway_region,
        ctx.los_enabled,
        &mut env,
        &mut resolver,
    )
    .map_err(|e| SqlError::Plan(e.0))
}

/// `EXPLAIN`: render the plan the optimizer would use, without executing.
fn explain(cluster: &mut Cluster, ctx: &ExecCtx, stmt: &Stmt) -> Result<SqlResult, SqlError> {
    let mut rows: Vec<Vec<Datum>> = Vec::new();
    let mut line = |s: String| rows.push(vec![Datum::String(s)]);
    match stmt {
        Stmt::Select {
            table: tname,
            predicate,
            limit,
            aost,
            ..
        } => {
            let (db, table) = ctx.snapshot(tname)?;
            let plan = plan_for(ctx, cluster, &db, &table, predicate.as_ref(), *limit)?;
            let index = ddl::index_by_id(&table, plan.index_id)
                .map(|i| i.name.clone())
                .unwrap_or_default();
            line(format!(
                "scan {}@{index}{}",
                table.name,
                if aost.is_some() {
                    " (stale follower read)"
                } else {
                    ""
                }
            ));
            line(format!(
                "  keys: {}",
                if plan.keys.is_empty() {
                    "full scan".to_string()
                } else {
                    format!(
                        "{} point lookup(s), unique={}",
                        plan.keys.len(),
                        plan.unique
                    )
                }
            ));
            match &plan.strategy {
                PartitionStrategy::Single(None) => line("  partitions: single range".into()),
                PartitionStrategy::Single(Some(r)) => {
                    line(format!("  partitions: {r} (region derived from predicate)"))
                }
                PartitionStrategy::LocalityOptimized { local, regions } => {
                    let remote: Vec<&str> = remote_regions(regions, local).collect();
                    line(format!(
                        "  partitions: locality-optimized search — probe {local} first,                          then fan out to {}",
                        remote.join(", ")
                    ));
                }
                PartitionStrategy::AllPartitions(rs) => {
                    let rs: Vec<&str> = rs.iter().map(|r| r.name.as_str()).collect();
                    line(format!("  partitions: fan out to all ({})", rs.join(", ")))
                }
            }
            if plan.residual {
                line("  filter: residual predicate re-applied".into());
            }
        }
        Stmt::Insert {
            table: tname,
            columns,
            rows: vrows,
            upsert,
        } => {
            let (db, table) = ctx.snapshot(tname)?;
            line(format!(
                "{} into {}",
                if *upsert { "upsert" } else { "insert" },
                table.name
            ));
            if let Some(exprs) = vrows.first() {
                if let Ok((row, generated)) = build_insert_row(ctx, &table, columns, exprs) {
                    let checks = plan_uniqueness_checks(&db, &table, &row, &generated);
                    if checks.is_empty() {
                        line("  uniqueness checks: none (omitted by the optimizer)".into());
                    }
                    for c in checks {
                        let index = ddl::index_by_id(&table, c.index_id)
                            .map(|i| i.name.clone())
                            .unwrap_or_default();
                        let parts: Vec<String> = c
                            .partitions
                            .iter()
                            .map(|p| p.clone().unwrap_or_else(|| "(unpartitioned)".into()))
                            .collect();
                        line(format!(
                            "  uniqueness check: {index} probes [{}]",
                            parts.join(", ")
                        ));
                    }
                }
            }
        }
        other => {
            line(format!("explain not supported for {other:?}"));
        }
    }
    Ok(SqlResult::Rows(rows))
}

/// One probe task: returns decoded full rows.
type RowsTask = Task<Vec<Vec<Datum>>, SqlError>;
/// One constraint check: `Some(violation)` or `None`.
type CheckTask = Task<Option<SqlError>, SqlError>;

/// What one probe reads: one unique-index entry, or every entry under a key
/// prefix (non-unique index, partial key, or — with no key at all — the
/// whole partition).
enum Probe {
    Point(Key),
    Prefix(Span),
}

impl Probe {
    fn new(
        table: &Table,
        index_id: u32,
        unique: bool,
        region: Option<&str>,
        key: &[Datum],
    ) -> Probe {
        let k = index_key(table.id, index_id, region, key);
        if unique && !key.is_empty() {
            Probe::Point(k)
        } else {
            Probe::Prefix(Span::prefix(k))
        }
    }
}

fn probe_task(probe: Probe, mode: FetchMode, gateway: NodeId, limit: usize) -> RowsTask {
    fn decode(v: &Value) -> Result<Vec<Datum>, SqlError> {
        decode_row(v).ok_or_else(|| SqlError::Eval("corrupt row encoding".into()))
    }
    let opts = |staleness| ReadOptions {
        staleness,
        fallback_to_leaseholder: true,
    };
    Box::new(move |cluster, cont| match probe {
        Probe::Point(key) => {
            let done: Cont<Result<Option<Value>, KvError>> = Box::new(move |c, res| {
                let found = res.map_err(SqlError::Kv);
                cont(c, found.and_then(|v| v.iter().map(decode).collect()));
            });
            match mode {
                FetchMode::Txn(txn) => cluster.txn_get(txn, key, done),
                FetchMode::Stale(s) => cluster.read(gateway, key, opts(s), done),
            }
        }
        Probe::Prefix(span) => {
            let done: Cont<Result<Vec<(Key, Value)>, KvError>> = Box::new(move |c, res| {
                let found = res.map_err(SqlError::Kv);
                cont(
                    c,
                    found.and_then(|kvs| kvs.iter().map(|(_, v)| decode(v)).collect()),
                );
            });
            match mode {
                FetchMode::Txn(txn) => cluster.txn_scan(txn, span, limit, done),
                FetchMode::Stale(s) => cluster.scan(gateway, span, limit, opts(s), done),
            }
        }
    })
}

/// The WHERE clause and LIMIT of a row-fetching statement.
fn filter_of(stmt: &Stmt) -> (Option<&Expr>, usize) {
    match stmt {
        Stmt::Select {
            predicate, limit, ..
        } => (predicate.as_ref(), limit.map_or(usize::MAX, |l| l as usize)),
        Stmt::Update { predicate, .. } | Stmt::Delete { predicate, .. } => {
            (predicate.as_ref(), usize::MAX)
        }
        _ => (None, usize::MAX),
    }
}

/// The SET list of an UPDATE (empty for any other statement).
fn assignments(stmt: &Stmt) -> &[(String, Expr)] {
    match stmt {
        Stmt::Update { sets, .. } => sets,
        _ => &[],
    }
}

/// Fetch all rows of `stmt`'s table matching `plan`, applying
/// locality-optimized search.
fn fetch_rows(
    cluster: &mut Cluster,
    ctx: ExecCtx,
    table: Rc<Table>,
    stmt: Rc<Stmt>,
    plan: ReadPlan<'_>,
    mode: FetchMode,
    cont: SqlCont<Vec<Vec<Datum>>>,
) {
    let (_, limit) = filter_of(&stmt);
    let task = |region: Option<&str>, key: &[Datum]| {
        let probe = Probe::new(&table, plan.index_id, plan.unique, region, key);
        probe_task(probe, mode, ctx.gateway, limit)
    };
    // One fetch unit per key (a full scan is one probe with an empty key
    // prefix); results concatenated.
    let full_scan = [Vec::new()];
    let keys = match plan.keys.is_empty() {
        true => &full_scan[..],
        false => &plan.keys[..],
    };
    let mut tasks: Vec<RowsTask> = Vec::new();
    for key in keys {
        match &plan.strategy {
            PartitionStrategy::Single(region) => tasks.push(task(region.as_deref(), key)),
            PartitionStrategy::AllPartitions(regions) => {
                tasks.extend(regions.iter().map(|r| task(Some(&r.name), key)));
            }
            PartitionStrategy::LocalityOptimized { local, regions } => {
                // §4.2: probe the local partition; fan out only on a miss.
                let local_task = task(Some(local), key);
                let remote = remote_regions(regions, local);
                let remote_tasks: Vec<_> = remote.map(|r| task(Some(r), key)).collect();
                let want = if plan.unique { 1 } else { limit };
                tasks.push(Box::new(move |cluster, cont| {
                    local_task(
                        cluster,
                        Box::new(move |c, res| match res {
                            Ok(rows) if rows.len() >= want => cont(c, Ok(rows)),
                            Ok(rows) => {
                                // Fan out; a unique lookup can stop at the
                                // first partition that has the row (§4.2) —
                                // no need to wait for the farthest misses.
                                race_until(c, remote_tasks, rows, want, cont);
                            }
                            Err(e) => cont(c, Err(e)),
                        }),
                    );
                }));
            }
        }
    }
    let residual = plan.residual;
    join_all(
        cluster,
        tasks,
        Box::new(move |c, res| match res {
            Ok(groups) => {
                let mut rows: Vec<Vec<Datum>> = groups.into_iter().flatten().collect();
                let (predicate, _) = filter_of(&stmt);
                if let (true, Some(pred)) = (residual, predicate) {
                    let mut filtered = Vec::with_capacity(rows.len());
                    for row in rows {
                        match ctx.eval_pred(&table, &row, pred) {
                            Ok(true) => filtered.push(row),
                            Ok(false) => {}
                            Err(e) => {
                                cont(c, Err(e));
                                return;
                            }
                        }
                    }
                    rows = filtered;
                }
                rows.truncate(limit);
                cont(c, Ok(rows));
            }
            Err(e) => cont(c, Err(e)),
        }),
    );
}

// ---------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------

/// `name`'s position in `table`'s columns; every statement that names a
/// column it lacks fails planning with the same error.
fn ordinal(table: &Table, name: &str) -> Result<usize, SqlError> {
    table
        .column_ordinal(name)
        .ok_or_else(|| SqlError::Plan(format!("unknown column {name:?}")))
}

fn project(
    table: &Table,
    columns: &Option<Vec<String>>,
    rows: Vec<Vec<Datum>>,
) -> Result<Vec<Vec<Datum>>, SqlError> {
    let ords: Vec<usize> = match columns {
        None => table.visible_columns().map(|(i, _)| i).collect(),
        Some(names) => names
            .iter()
            .map(|n| ordinal(table, n))
            .collect::<Result<_, _>>()?,
    };
    Ok(rows
        .into_iter()
        .map(|row| {
            ords.iter()
                .map(|&o| row.get(o).cloned().unwrap_or(Datum::Null))
                .collect()
        })
        .collect())
}

/// How `AS OF SYSTEM TIME` reads: stale SELECTs bypass the transaction
/// machinery (§5.3).
fn stale_mode(aost: Aost) -> FetchMode {
    FetchMode::Stale(match aost {
        Aost::ExactAgo(d) => Staleness::ExactAgo(d),
        Aost::MaxStaleness(d) => Staleness::BoundedMaxStaleness(d),
        // with_min_timestamp is *bounded* staleness: negotiate the freshest
        // locally servable timestamp at or above the floor (§5.3.2).
        Aost::MinTimestamp(nanos) => {
            Staleness::BoundedMinTimestamp(mr_clock::Timestamp::new(nanos, 0))
        }
        // follower_read_timestamp(): comfortably below the closed-ts lag.
        Aost::FollowerReadTimestamp => Staleness::ExactAgo(mr_sim::SimDuration::from_millis(
            mr_kv::ClosedTsParams::DEFAULT_LAG_SECS * 1000 + 500,
        )),
    })
}

fn exec_select(
    cluster: &mut Cluster,
    ctx: ExecCtx,
    stmt: Rc<Stmt>,
    mode: FetchMode,
    cont: SqlCont<SqlResult>,
) {
    let Stmt::Select {
        table: tname,
        predicate,
        limit,
        ..
    } = &*stmt
    else {
        unreachable!()
    };
    let (db, table) = match ctx.snapshot(tname) {
        Ok(x) => x,
        Err(e) => return cont(cluster, Err(e)),
    };
    let plan = match plan_for(&ctx, cluster, &db, &table, predicate.as_ref(), *limit) {
        Ok(p) => p,
        Err(e) => return cont(cluster, Err(e)),
    };
    let (table2, stmt2) = (Rc::clone(&table), Rc::clone(&stmt));
    fetch_rows(
        cluster,
        ctx,
        table,
        stmt,
        plan,
        mode,
        Box::new(move |c, res| {
            let Stmt::Select { columns, .. } = &*stmt2 else {
                unreachable!()
            };
            let rows = res.and_then(|rows| project(&table2, columns, rows));
            cont(c, rows.map(SqlResult::Rows));
        }),
    );
}

// ---------------------------------------------------------------------
// INSERT / UPSERT / UPDATE / DELETE: one row write
// ---------------------------------------------------------------------

/// What the row writes of one INSERT, UPSERT, UPDATE or DELETE share: its
/// context, the descriptors it runs against and its transaction. A clone
/// into a continuation is refcount bumps.
#[derive(Clone)]
struct Writer {
    ctx: ExecCtx,
    db: Rc<Database>,
    table: Rc<Table>,
    txn: TxnHandle,
    /// Record a `RowRehomed` event for every row whose region the write
    /// changes: UPDATE's rows (automatic rehoming, §2.3.2). UPSERT moves
    /// rows without one.
    records_rehomes: bool,
}

impl Writer {
    fn new(ctx: ExecCtx, table: &str, txn: TxnHandle) -> Result<Writer, SqlError> {
        let (db, table) = ctx.snapshot(table)?;
        Ok(Writer {
            ctx,
            db,
            table,
            txn,
            records_rehomes: false,
        })
    }
}

fn exec_insert(
    cluster: &mut Cluster,
    w: Writer,
    columns: &Option<Vec<String>>,
    rows: &[Vec<Expr>],
    upsert: bool,
    cont: SqlCont<SqlResult>,
) {
    // Build full rows.
    let mut built: Vec<(Vec<Datum>, Vec<bool>)> = Vec::new();
    for value_exprs in rows {
        match build_insert_row(&w.ctx, &w.table, columns, value_exprs) {
            Ok(rg) => built.push(rg),
            Err(e) => return cont(cluster, Err(e)),
        }
    }
    let total = built.len() as u64;
    // UPSERT fast path: a table whose only index is an unpartitioned
    // primary can be blind-written in one round (no fetch, no uniqueness
    // probe; only REFERENCES columns probe their parent) — CRDB's UPSERT,
    // used by the YCSB driver (§7.1). Other tables take a
    // read-modify-write path: fetch by primary key, then overwrite or
    // insert.
    let blind_upsert =
        upsert && w.table.indexes.len() == 1 && !w.table.primary_index().region_partitioned;
    let per_row: Rc<dyn Fn(&mut Cluster, (Vec<Datum>, Vec<bool>), SqlCont<()>)> =
        Rc::new(move |cluster, (row, generated), done| {
            if blind_upsert {
                // No old row is read and no uniqueness probe runs (the write
                // replaces whatever the key held); the row checks and FK
                // probes are write_row's.
                let mut probes = Vec::new();
                match validate_row(&w.db, &w.table, None, &row)
                    .and_then(|()| fk_probes(&w, &row, |_| false, &mut probes))
                {
                    Ok(()) => probe_then_write(cluster, &w, probes, None, row, done),
                    Err(e) => done(cluster, Err(e)),
                }
            } else if upsert {
                upsert_row(cluster, &w, row, done);
            } else {
                write_row(cluster, &w, None, row, &generated, done);
            }
        });
    for_each_seq(
        cluster,
        built.into_iter(),
        per_row,
        Box::new(move |c, res| match res {
            Ok(()) => cont(c, Ok(SqlResult::Count(total))),
            Err(e) => cont(c, Err(e)),
        }),
    );
}

/// Assemble a full row from the INSERT column list: provided values, then
/// defaults, then computed columns. Returns the row plus per-column "came
/// from gen_random_uuid()" flags (rule 1 of §4.1). The row is checked where
/// it is written ([`validate_row`]).
fn build_insert_row(
    ctx: &ExecCtx,
    table: &Table,
    columns: &Option<Vec<String>>,
    value_exprs: &[Expr],
) -> Result<(Vec<Datum>, Vec<bool>), SqlError> {
    let target_cols: Vec<usize> = match columns {
        Some(names) => names
            .iter()
            .map(|n| ordinal(table, n))
            .collect::<Result<_, _>>()?,
        None => table.visible_columns().map(|(i, _)| i).collect(),
    };
    if target_cols.len() != value_exprs.len() {
        return Err(SqlError::Plan(format!(
            "INSERT has {} target columns but {} values",
            target_cols.len(),
            value_exprs.len()
        )));
    }
    let n = table.columns.len();
    let mut row = vec![Datum::Null; n];
    let mut provided = vec![false; n];
    let mut generated = vec![false; n];
    for (&ord, e) in target_cols.iter().zip(value_exprs) {
        row[ord] = ctx.eval(table, &row, e)?.coerce(table.columns[ord].ty);
        provided[ord] = true;
    }
    // Defaults for unprovided, non-computed columns.
    for (i, col) in table.columns.iter().enumerate() {
        if provided[i] || col.computed.is_some() {
            continue;
        }
        if let Some(d) = &col.default {
            row[i] = ctx.eval(table, &row, d)?.coerce(col.ty);
            if matches!(d, Expr::FnCall { name, .. } if name == "gen_random_uuid") {
                generated[i] = true;
            }
        }
    }
    // Computed columns (may reference defaults).
    for (i, col) in table.columns.iter().enumerate() {
        if let Some(cexpr) = &col.computed {
            row[i] = ctx.eval(table, &row, cexpr)?.coerce(col.ty);
        }
    }
    Ok((row, generated))
}

/// Read-modify-write UPSERT: fetch the existing row by primary key (the
/// row's own partition first when its region is known, then every other
/// one) and write over it. With no existing row this is an INSERT: its
/// primary-key probe re-reads the key just seen absent — cheap, and the
/// refresh at commit keeps it correct under races. An UPSERT marks no
/// column as generated, so its UUID defaults are probed like any value.
fn upsert_row(cluster: &mut Cluster, w: &Writer, row: Vec<Datum>, done: SqlCont<()>) {
    let (db, table) = (&w.db, &w.table);
    let pk = table.primary_index();
    let pk_key: Vec<Datum> = pk.key_columns.iter().map(|&o| row[o].clone()).collect();
    if pk_key.iter().any(|d| d.is_null()) {
        return done(
            cluster,
            Err(SqlError::Plan(
                "UPSERT requires all primary key columns".into(),
            )),
        );
    }
    let probe = |region: Option<&str>| {
        let probe = Probe::new(table, pk.id, true, region, &pk_key);
        probe_task(probe, FetchMode::Txn(w.txn), w.ctx.gateway, 1)
    };
    let tasks: Vec<RowsTask> = if pk.region_partitioned {
        let own = row_region(table, &row);
        let regions = db.regions.iter().map(|r| r.name.as_str());
        let others = regions.filter(|r| Some(*r) != own);
        own.into_iter()
            .chain(others)
            .map(|r| probe(Some(r)))
            .collect()
    } else {
        vec![probe(None)]
    };
    let w = w.clone();
    join_all(
        cluster,
        tasks,
        Box::new(move |c, res| match res {
            Ok(groups) => write_row(c, &w, groups.into_iter().flatten().next(), row, &[], done),
            Err(e) => done(c, Err(e)),
        }),
    );
}

/// The one row write of INSERT, UPSERT and UPDATE (DESIGN.md §17), over
/// `old` when the statement replaces a row. In order: check `row`
/// ([`validate_row`]); probe every unique index whose key columns changed
/// (all of them with no old row; `generated` marks the columns
/// `gen_random_uuid()` filled, §4.1 rule 1), then the parent of every
/// non-NULL referencing column that changed; unless a probe reports a
/// violation, write the row's index entries over `old`'s.
fn write_row(
    cluster: &mut Cluster,
    w: &Writer,
    old: Option<Vec<Datum>>,
    row: Vec<Datum>,
    generated: &[bool],
    done: SqlCont<()>,
) {
    if let Err(e) = validate_row(&w.db, &w.table, old.as_deref(), &row) {
        return done(cluster, Err(e));
    }
    if w.records_rehomes {
        record_rehome(cluster, &w.table, old.as_deref(), &row);
    }
    let kept = |o: usize| old.as_ref().is_some_and(|old| old.get(o) == row.get(o));
    let mut probes: Vec<CheckTask> = Vec::new();
    if w.ctx.unique_checks {
        for check in plan_uniqueness_checks(&w.db, &w.table, &row, generated) {
            let index = ddl::index_by_id(&w.table, check.index_id);
            if index.is_some_and(|i| !i.key_columns.iter().all(|&o| kept(o))) {
                uniqueness_probes(&w.table, &check, w.txn, &mut probes);
            }
        }
    }
    if let Err(e) = fk_probes(w, &row, kept, &mut probes) {
        return done(cluster, Err(e));
    }
    probe_then_write(cluster, w, probes, old, row, done);
}

/// The last step of [`write_row`]: run `probes`, then, unless one reports a
/// violation, write `row`'s index entries over `old`'s.
fn probe_then_write(
    cluster: &mut Cluster,
    w: &Writer,
    probes: Vec<CheckTask>,
    old: Option<Vec<Datum>>,
    row: Vec<Datum>,
    done: SqlCont<()>,
) {
    if probes.is_empty() {
        return write_row_entries(cluster, &w.table, old.as_deref(), &row, w.txn, done);
    }
    let (table, txn) = (Rc::clone(&w.table), w.txn);
    join_all(
        cluster,
        probes,
        Box::new(move |c, res| match res {
            Ok(outcomes) => match outcomes.into_iter().flatten().next() {
                Some(violation) => done(c, Err(violation)),
                None => write_row_entries(c, &table, old.as_deref(), &row, txn, done),
            },
            Err(e) => done(c, Err(e)),
        }),
    );
}

/// Step 1 of [`write_row`]: every column of `row` holds a value of its type
/// and no NULL where it is NOT NULL, and every region value the write
/// brings in — all of them with no old row, the changed ones over `old` —
/// names a region of the database that still takes writes.
fn validate_row(
    db: &Database,
    table: &Table,
    old: Option<&[Datum]>,
    row: &[Datum],
) -> Result<(), SqlError> {
    for (i, col) in table.columns.iter().enumerate() {
        let value = row.get(i).unwrap_or(&Datum::Null);
        if col.not_null && value.is_null() {
            return Err(SqlError::NotNullViolation {
                table: table.name.clone(),
                column: col.name.clone(),
            });
        }
        if !value.fits(col.ty) {
            return Err(SqlError::Eval(format!(
                "value {value:?} does not fit column {:?} ({:?})",
                col.name, col.ty
            )));
        }
        let kept = old.is_some_and(|old| old.get(i) == Some(value));
        if let (ColumnType::Region, false, Some(r)) = (col.ty, kept, value.as_str()) {
            if !db.has_region(r) {
                return Err(SqlError::Eval(format!(
                    "{r:?} is not a region of database {:?}",
                    db.name
                )));
            }
            if !db.region_writable(r) {
                return Err(SqlError::ReadOnlyRegion(r.to_string()));
            }
        }
    }
    Ok(())
}

/// Record that an UPDATE moved a row from `old`'s region to `row`'s.
fn record_rehome(cluster: &mut Cluster, table: &Table, old: Option<&[Datum]>, row: &[Datum]) {
    let (Some(ro), Some(old)) = (table.region_column(), old) else {
        return;
    };
    if row[ro] != old[ro] {
        let region = |row: &[Datum]| row[ro].as_str().unwrap_or_default().to_string();
        let now = cluster.now();
        cluster.events.record(
            now,
            mr_kv::events::EventKind::RowRehomed {
                from_region: region(old),
                to_region: region(row),
            },
        );
    }
}

/// One existence probe per partition `check` names: a hit violates the
/// index's UNIQUE constraint (§4.1).
fn uniqueness_probes(
    table: &Rc<Table>,
    check: &UniquenessCheck,
    txn: TxnHandle,
    probes: &mut Vec<CheckTask>,
) {
    for partition in &check.partitions {
        let key = index_key(table.id, check.index_id, partition.as_deref(), &check.key);
        let (table, index_id) = (Rc::clone(table), check.index_id);
        probes.push(Box::new(move |cluster, cont| {
            cluster.txn_get(
                txn,
                key,
                Box::new(move |c, res| match res {
                    Ok(Some(_)) => cont(
                        c,
                        Ok(Some(SqlError::UniqueViolation {
                            table: table.name.clone(),
                            index: ddl::index_by_id(&table, index_id)
                                .map(|i| i.name.clone())
                                .unwrap_or_default(),
                        })),
                    ),
                    Ok(None) => cont(c, Ok(None)),
                    Err(e) => cont(c, Err(SqlError::Kv(e))),
                }),
            );
        }));
    }
}

/// FK parent-existence probes for every non-NULL referencing column of
/// `row` that is not `kept` from the old row (none with FK checks off).
fn fk_probes(
    w: &Writer,
    row: &[Datum],
    kept: impl Fn(usize) -> bool,
    probes: &mut Vec<CheckTask>,
) -> Result<(), SqlError> {
    if !w.ctx.fk_checks {
        return Ok(());
    }
    let db = &w.db;
    for (i, col) in w.table.columns.iter().enumerate() {
        let Some((parent_name, parent_col)) = &col.references else {
            continue;
        };
        if row[i].is_null() || kept(i) {
            continue;
        }
        let parent = db
            .tables
            .get(parent_name)
            .ok_or_else(|| SqlError::Catalog(format!("unknown parent table {parent_name:?}")))?;
        // Find a unique index on the referenced column (default: pk).
        let ref_col = if parent_col.is_empty() {
            parent.primary_index().key_columns[0]
        } else {
            parent
                .column_ordinal(parent_col)
                .ok_or_else(|| SqlError::Catalog(format!("unknown parent column {parent_col:?}")))?
        };
        let index = parent
            .indexes
            .iter()
            .find(|idx| idx.unique && idx.key_columns == [ref_col])
            .ok_or_else(|| {
                SqlError::Catalog(format!(
                    "foreign key requires a unique index on {parent_name}.{parent_col}"
                ))
            })?;
        // Partition strategy for the parent probe: unpartitioned parent
        // (e.g. a GLOBAL dimension table) is a single local read — the §2.3.3
        // pattern. Partitioned parents use LOS: local first, then the rest
        // in parallel.
        let probe = |region: Option<&str>| {
            let probe = Probe::new(parent, index.id, true, region, &row[i..=i]);
            probe_task(probe, FetchMode::Txn(w.txn), w.ctx.gateway, 1)
        };
        let (local, remote): (RowsTask, Vec<RowsTask>) = if index.region_partitioned {
            let local = &*w.ctx.gateway_region;
            let regions = db.regions.iter().map(|r| r.name.as_str());
            let remote = regions.filter(|r| *r != local);
            (probe(Some(local)), remote.map(|r| probe(Some(r))).collect())
        } else {
            (probe(None), Vec::new())
        };
        let (table, parent) = (Rc::clone(&w.table), Rc::clone(parent));
        let found = move |found: bool| {
            (!found).then(|| SqlError::FkViolation {
                table: table.name.clone(),
                parent: parent.name.clone(),
            })
        };
        probes.push(Box::new(move |cluster, cont| {
            local(
                cluster,
                Box::new(move |c, res| match res {
                    Ok(rows) if !rows.is_empty() => cont(c, Ok(None)),
                    Ok(_) => join_all(
                        c,
                        remote,
                        Box::new(move |c2, res| {
                            let any = res.map(|groups| groups.iter().any(|g| !g.is_empty()));
                            cont(c2, any.map(found));
                        }),
                    ),
                    Err(e) => cont(c, Err(e)),
                }),
            );
        }));
    }
    Ok(())
}

/// One KV write of an index entry.
type WriteTask = Task<(), SqlError>;

/// Queue the KV writes that take `table`'s index entries from row `old` to
/// row `new`, index by index: delete the old entry unless the new row keeps
/// its key, then put the new one. DELETE passes no new row.
fn entry_writes(
    tasks: &mut Vec<WriteTask>,
    table: &Table,
    old: Option<&[Datum]>,
    new: Option<&[Datum]>,
    txn: TxnHandle,
) {
    let value = new.map(encode_row);
    let mut put = |key: Key, value: Option<Value>| {
        tasks.push(Box::new(move |cluster, cont| {
            cluster.txn_put(
                txn,
                key,
                value,
                Box::new(move |c, res| cont(c, res.map_err(SqlError::Kv))),
            );
        }));
    };
    for index in &table.indexes {
        let key = |row: &[Datum]| entry_key(table, index, row_region(table, row), row);
        let new_key = new.map(key);
        if let Some(old_key) = old.map(key).filter(|k| new_key.as_ref() != Some(k)) {
            put(old_key, None);
        }
        if let Some(new_key) = new_key {
            put(new_key, value.clone());
        }
    }
}

/// Write `row`'s index entries over `old`'s ([`entry_writes`]).
fn write_row_entries(
    cluster: &mut Cluster,
    table: &Table,
    old: Option<&[Datum]>,
    row: &[Datum],
    txn: TxnHandle,
    done: SqlCont<()>,
) {
    let mut tasks = Vec::new();
    entry_writes(&mut tasks, table, old, Some(row), txn);
    join_all(
        cluster,
        tasks,
        Box::new(move |c, res| done(c, res.map(|_| ()))),
    );
}

fn exec_update(
    cluster: &mut Cluster,
    w: Writer,
    stmt: Rc<Stmt>,
    predicate: Option<&Expr>,
    cont: SqlCont<SqlResult>,
) {
    // The plan borrows the descriptor, and the writer moves on.
    let db = Rc::clone(&w.db);
    let plan = match plan_for(&w.ctx, cluster, &db, &w.table, predicate, None) {
        Ok(p) => p,
        Err(e) => return cont(cluster, Err(e)),
    };
    let w = Writer {
        records_rehomes: true,
        ..w
    };
    let (ctx, table, mode) = (w.ctx.clone(), Rc::clone(&w.table), FetchMode::Txn(w.txn));
    fetch_rows(
        cluster,
        ctx,
        table,
        Rc::clone(&stmt),
        plan,
        mode,
        Box::new(move |c, res| {
            let rows = match res {
                Ok(r) => r,
                Err(e) => return cont(c, Err(e)),
            };
            let count = rows.len() as u64;
            let per_row: Rc<dyn Fn(&mut Cluster, Vec<Datum>, SqlCont<()>)> =
                Rc::new(move |cluster, old, done| {
                    match updated_row(&w.ctx, &w.table, assignments(&stmt), &old) {
                        Ok(row) => write_row(cluster, &w, Some(old), row, &[], done),
                        Err(e) => done(cluster, Err(e)),
                    }
                });
            for_each_seq(
                c,
                rows.into_iter(),
                per_row,
                Box::new(move |c2, res| match res {
                    Ok(()) => cont(c2, Ok(SqlResult::Count(count))),
                    Err(e) => cont(c2, Err(e)),
                }),
            );
        }),
    );
}

/// UPDATE's new row: `old` with the SET list applied (its expressions see
/// the old row), then the ON UPDATE columns not set explicitly (automatic
/// rehoming, §2.3.2), then the computed columns.
fn updated_row(
    ctx: &ExecCtx,
    table: &Table,
    sets: &[(String, Expr)],
    old: &[Datum],
) -> Result<Vec<Datum>, SqlError> {
    let mut row = old.to_vec();
    let mut set_ordinals = Vec::new();
    for (col, e) in sets {
        let ord = ordinal(table, col)?;
        if table.columns[ord].computed.is_some() {
            return Err(SqlError::Plan(format!(
                "cannot UPDATE computed column {col:?}"
            )));
        }
        row[ord] = ctx.eval(table, old, e)?.coerce(table.columns[ord].ty);
        set_ordinals.push(ord);
    }
    for (i, col) in table.columns.iter().enumerate() {
        if let (Some(e), false) = (&col.on_update, set_ordinals.contains(&i)) {
            row[i] = ctx.eval(table, old, e)?.coerce(col.ty);
        }
    }
    for (i, col) in table.columns.iter().enumerate() {
        if let Some(e) = &col.computed {
            row[i] = ctx.eval(table, &row, e)?.coerce(col.ty);
        }
    }
    Ok(row)
}

fn exec_delete(
    cluster: &mut Cluster,
    w: Writer,
    stmt: Rc<Stmt>,
    predicate: Option<&Expr>,
    cont: SqlCont<SqlResult>,
) {
    let plan = match plan_for(&w.ctx, cluster, &w.db, &w.table, predicate, None) {
        Ok(p) => p,
        Err(e) => return cont(cluster, Err(e)),
    };
    let (ctx, table, mode) = (w.ctx.clone(), Rc::clone(&w.table), FetchMode::Txn(w.txn));
    fetch_rows(
        cluster,
        ctx,
        table,
        stmt,
        plan,
        mode,
        Box::new(move |c, res| {
            let rows = match res {
                Ok(r) => r,
                Err(e) => return cont(c, Err(e)),
            };
            let count = rows.len() as u64;
            let mut tasks = Vec::new();
            for row in &rows {
                entry_writes(&mut tasks, &w.table, Some(row), None, w.txn);
            }
            join_all(
                c,
                tasks,
                Box::new(move |c2, res| match res {
                    Ok(_) => cont(c2, Ok(SqlResult::Count(count))),
                    Err(e) => cont(c2, Err(e)),
                }),
            );
        }),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_sim::{RttMatrix, SimDuration, SimTime, Topology};

    fn tiny_db() -> SqlDb {
        let topo = Topology::build(&["r0"], 3, RttMatrix::uniform(1, SimDuration::ZERO));
        SqlDb::new(topo, ClusterConfig::default())
    }

    #[test]
    fn race_until_returns_at_quota() {
        let mut db = tiny_db();
        let out: Rc<RefCell<Option<Vec<Vec<Datum>>>>> = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        let row = vec![Datum::Int(7)];
        let slow_row = vec![Datum::Int(9)];
        let tasks: Vec<Box<dyn FnOnce(&mut Cluster, SqlCont<Vec<Vec<Datum>>>)>> = vec![
            {
                let r = row.clone();
                Box::new(move |c, cont| {
                    c.schedule(
                        SimDuration::from_millis(10),
                        Box::new(move |c2| cont(c2, Ok(vec![r]))),
                    );
                })
            },
            {
                let r = slow_row.clone();
                Box::new(move |c, cont| {
                    c.schedule(
                        SimDuration::from_millis(500),
                        Box::new(move |c2| cont(c2, Ok(vec![r]))),
                    );
                })
            },
        ];
        let t0 = db.cluster.now();
        race_until(
            &mut db.cluster,
            tasks,
            Vec::new(),
            1,
            Box::new(move |_c, res| {
                *o2.borrow_mut() = Some(res.unwrap());
            }),
        );
        db.cluster
            .run_until(SimTime(SimDuration::from_millis(20).nanos()));
        // Delivered after the fast task, without waiting for the slow one.
        assert_eq!(out.borrow().clone().unwrap(), vec![vec![Datum::Int(7)]]);
        assert!(db.cluster.now() - t0 < SimDuration::from_millis(100));
        db.cluster
            .run_until(SimTime(SimDuration::from_secs(1).nanos()));
    }

    #[test]
    fn for_each_seq_stops_on_error() {
        let mut db = tiny_db();
        let seen: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let s2 = Rc::clone(&seen);
        let f: Rc<dyn Fn(&mut Cluster, u32, SqlCont<()>)> = Rc::new(move |c, item, done| {
            s2.borrow_mut().push(item);
            if item == 2 {
                done(c, Err(SqlError::Eval("stop".into())));
            } else {
                done(c, Ok(()));
            }
        });
        let result: Rc<RefCell<Option<Result<(), SqlError>>>> = Rc::new(RefCell::new(None));
        let r2 = Rc::clone(&result);
        for_each_seq(
            &mut db.cluster,
            vec![1u32, 2, 3, 4].into_iter(),
            f,
            Box::new(move |_c, res| {
                *r2.borrow_mut() = Some(res);
            }),
        );
        assert_eq!(*seen.borrow(), vec![1, 2], "must stop at the failing item");
        assert!(matches!(result.borrow().as_ref(), Some(Err(_))));
    }
}
