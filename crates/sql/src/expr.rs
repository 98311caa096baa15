//! Expression evaluation.
//!
//! Expressions appear in DEFAULT clauses, computed (STORED) columns,
//! `ON UPDATE` clauses, and WHERE predicates. Evaluation is rows-in,
//! datum-out against a table's column set, with an [`EvalEnv`] carrying the
//! request context (gateway region, RNG for `gen_random_uuid()`).

use std::cell::Cell;

use crate::ast::{BinOp, Expr};
use crate::catalog::Table;
use crate::types::Datum;

/// Context for evaluating builtins.
pub struct EvalEnv<'a> {
    /// Region of the gateway node serving the statement
    /// (`gateway_region()`, `rehome_row()`).
    pub gateway_region: &'a str,
    /// Pseudo-random bits for `gen_random_uuid()`.
    pub uuid_source: &'a mut dyn FnMut() -> u128,
}

/// The next value of a database's `gen_random_uuid()` stream: bump its
/// counter, then scramble it (splitmix-style) so generated UUIDs look
/// random but stay deterministic per simulation. Statements, the planner
/// and `ADD COLUMN` backfills all draw from the one counter of their
/// [`crate::exec::SqlDb`].
pub fn next_uuid(counter: &Cell<u64>) -> u128 {
    let v = counter.get() + 1;
    counter.set(v);
    let x = (v as u128).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
    x ^ (x >> 64)
}

/// Evaluation error.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for EvalError {}

fn err<T>(msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError(msg.into()))
}

/// Evaluate `expr` against `row` (columns per `table`).
pub fn eval(
    expr: &Expr,
    table: &Table,
    row: &[Datum],
    env: &mut EvalEnv<'_>,
) -> Result<Datum, EvalError> {
    match expr {
        Expr::Lit(d) => Ok(d.clone()),
        Expr::Col(name) => {
            let ord = table
                .column_ordinal(name)
                .ok_or_else(|| EvalError(format!("unknown column {name:?}")))?;
            Ok(row.get(ord).cloned().unwrap_or(Datum::Null))
        }
        Expr::BinOp { op, lhs, rhs } => {
            let l = eval(lhs, table, row, env)?;
            let r = eval(rhs, table, row, env)?;
            eval_binop(*op, l, r)
        }
        Expr::In { expr, list } => {
            let v = eval(expr, table, row, env)?;
            for item in list {
                let x = eval(item, table, row, env)?;
                if datums_eq(&v, &x) {
                    return Ok(Datum::Bool(true));
                }
            }
            Ok(Datum::Bool(false))
        }
        Expr::Case { whens, else_ } => {
            for (cond, val) in whens {
                if eval(cond, table, row, env)?.as_bool() == Some(true) {
                    return eval(val, table, row, env);
                }
            }
            match else_ {
                Some(e) => eval(e, table, row, env),
                None => Ok(Datum::Null),
            }
        }
        Expr::FnCall { name, args } => match name.as_str() {
            "gen_random_uuid" => Ok(Datum::Uuid((env.uuid_source)())),
            "gateway_region" => Ok(Datum::Region(env.gateway_region.to_string())),
            "rehome_row" => Ok(Datum::Region(env.gateway_region.to_string())),
            "default_to_database_primary_region" => {
                // Fallback used by some CRDB schemas; we treat the gateway
                // region argument as already resolved.
                match args.first() {
                    Some(a) => eval(a, table, row, env),
                    None => Ok(Datum::Region(env.gateway_region.to_string())),
                }
            }
            "concat" => {
                let mut s = String::new();
                for a in args {
                    match eval(a, table, row, env)? {
                        Datum::String(x) | Datum::Region(x) => s.push_str(&x),
                        Datum::Int(i) => s.push_str(&i.to_string()),
                        Datum::Null => {}
                        other => return err(format!("concat: unsupported {other:?}")),
                    }
                }
                Ok(Datum::String(s))
            }
            "mod" => {
                if args.len() != 2 {
                    return err("mod() takes 2 arguments");
                }
                let l = eval(&args[0], table, row, env)?;
                let r = eval(&args[1], table, row, env)?;
                eval_binop(BinOp::Mod, l, r)
            }
            other => err(format!("unknown function {other:?}")),
        },
    }
}

fn datums_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        // Region and string compare by content (the enum is stringly typed).
        (Datum::Region(x), Datum::String(y)) | (Datum::String(x), Datum::Region(y)) => x == y,
        _ => a == b,
    }
}

fn datum_cmp(a: &Datum, b: &Datum) -> Option<std::cmp::Ordering> {
    use std::cmp::Ordering;
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => Some(x.cmp(y)),
        (Datum::Float(x), Datum::Float(y)) => x.partial_cmp(y),
        (Datum::Int(x), Datum::Float(y)) => (*x as f64).partial_cmp(y),
        (Datum::Float(x), Datum::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Datum::String(x), Datum::String(y)) => Some(x.cmp(y)),
        (Datum::Region(x), Datum::Region(y)) => Some(x.cmp(y)),
        (Datum::Region(x), Datum::String(y)) | (Datum::String(x), Datum::Region(y)) => {
            Some(x.cmp(y))
        }
        (Datum::Timestamp(x), Datum::Timestamp(y)) => Some(x.cmp(y)),
        (Datum::Bool(x), Datum::Bool(y)) => Some(x.cmp(y)),
        (Datum::Uuid(x), Datum::Uuid(y)) => Some(x.cmp(y)),
        _ => {
            if datums_eq(a, b) {
                Some(Ordering::Equal)
            } else {
                None
            }
        }
    }
}

fn eval_binop(op: BinOp, l: Datum, r: Datum) -> Result<Datum, EvalError> {
    use std::cmp::Ordering;
    // SQL three-valued logic, simplified: NULL propagates except through
    // AND/OR short-circuits on known values.
    if matches!(op, BinOp::And | BinOp::Or) {
        let lb = l.as_bool();
        let rb = r.as_bool();
        return Ok(match (op, lb, rb) {
            (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Datum::Bool(false),
            (BinOp::And, Some(true), Some(true)) => Datum::Bool(true),
            (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Datum::Bool(true),
            (BinOp::Or, Some(false), Some(false)) => Datum::Bool(false),
            _ => Datum::Null,
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Datum::Null);
    }
    match op {
        BinOp::Eq => Ok(Datum::Bool(datums_eq(&l, &r))),
        BinOp::Ne => Ok(Datum::Bool(!datums_eq(&l, &r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = datum_cmp(&l, &r)
                .ok_or_else(|| EvalError(format!("cannot compare {l:?} and {r:?}")))?;
            Ok(Datum::Bool(match op {
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            // Numeric promotion: Int op Float → Float.
            let (l, r) = match (l, r) {
                (Datum::Int(x), r @ Datum::Float(_)) => (Datum::Float(x as f64), r),
                (l @ Datum::Float(_), Datum::Int(y)) => (l, Datum::Float(y as f64)),
                (l, r) => (l, r),
            };
            eval_arith(op, l, r)
        }
        BinOp::And | BinOp::Or => unreachable!(),
    }
}

fn eval_arith(op: BinOp, l: Datum, r: Datum) -> Result<Datum, EvalError> {
    match (&l, &r) {
        (Datum::Int(x), Datum::Int(y)) => {
            let v = match op {
                BinOp::Add => x.wrapping_add(*y),
                BinOp::Sub => x.wrapping_sub(*y),
                BinOp::Mul => x.wrapping_mul(*y),
                BinOp::Div => {
                    if *y == 0 {
                        return err("division by zero");
                    }
                    x / y
                }
                BinOp::Mod => {
                    if *y == 0 {
                        return err("division by zero");
                    }
                    x.rem_euclid(*y)
                }
                _ => unreachable!(),
            };
            Ok(Datum::Int(v))
        }
        (Datum::Float(x), Datum::Float(y)) => Ok(Datum::Float(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Mod => x % y,
            _ => unreachable!(),
        })),
        (Datum::String(x), Datum::String(y)) if op == BinOp::Add => {
            Ok(Datum::String(format!("{x}{y}")))
        }
        _ => err(format!("arithmetic on {l:?} and {r:?}")),
    }
}

/// Extract the conjunction of equality constraints `col = lit` / `col IN
/// (lits)` from a predicate, for index selection. Returns `(col, values)`
/// pairs; non-extractable conjuncts are reported via `residual`.
pub fn extract_equalities(pred: &Expr, table: &Table) -> (Vec<(usize, Vec<Datum>)>, bool) {
    let mut out = Vec::new();
    let mut residual = false;
    collect_eq(pred, table, &mut out, &mut residual);
    (out, residual)
}

fn collect_eq(e: &Expr, table: &Table, out: &mut Vec<(usize, Vec<Datum>)>, residual: &mut bool) {
    match e {
        Expr::BinOp {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_eq(lhs, table, out, residual);
            collect_eq(rhs, table, out, residual);
        }
        Expr::BinOp {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => match (&**lhs, &**rhs) {
            (Expr::Col(c), Expr::Lit(d)) | (Expr::Lit(d), Expr::Col(c)) => {
                match table.column_ordinal(c) {
                    Some(ord) => out.push((ord, vec![d.clone()])),
                    None => *residual = true,
                }
            }
            _ => *residual = true,
        },
        Expr::In { expr, list } => match &**expr {
            Expr::Col(c) => {
                let lits: Option<Vec<Datum>> = list
                    .iter()
                    .map(|e| match e {
                        Expr::Lit(d) => Some(d.clone()),
                        _ => None,
                    })
                    .collect();
                match (table.column_ordinal(c), lits) {
                    (Some(ord), Some(ds)) => out.push((ord, ds)),
                    _ => *residual = true,
                }
            }
            _ => *residual = true,
        },
        _ => *residual = true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, Index, TableLocality};
    use crate::types::ColumnType;

    fn table() -> Table {
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
        Table {
            id: 1,
            name: "t".into(),
            columns: vec![
                col("k", ColumnType::Int),
                col("v", ColumnType::String),
                col("state", ColumnType::String),
            ],
            locality: TableLocality::Global,
            indexes: vec![Index {
                id: 1,
                name: "primary".into(),
                key_columns: vec![0],
                unique: true,
                storing: vec![],
                region_partitioned: false,
                zone_override: None,
            }],
            manual_partitioning: None,
            zone_override: None,
            next_index_id: 2,
        }
    }

    fn env_eval(e: &Expr, row: &[Datum]) -> Datum {
        let mut next = || 7u128;
        let mut env = EvalEnv {
            gateway_region: "us-east1",
            uuid_source: &mut next,
        };
        eval(e, &table(), row, &mut env).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        use crate::parser::parse;
        let sel = parse("SELECT * FROM t WHERE k % 3 = 1 AND v = 'x'").unwrap();
        let pred = match sel {
            crate::ast::Stmt::Select { predicate, .. } => predicate.unwrap(),
            _ => panic!(),
        };
        let row = vec![Datum::Int(4), Datum::String("x".into()), Datum::Null];
        assert_eq!(env_eval(&pred, &row), Datum::Bool(true));
        let row = vec![Datum::Int(3), Datum::String("x".into()), Datum::Null];
        assert_eq!(env_eval(&pred, &row), Datum::Bool(false));
    }

    #[test]
    fn case_expression_for_computed_region() {
        use crate::parser::parse;
        let stmt = parse(
            "ALTER TABLE t ADD COLUMN r crdb_internal_region AS \
             (CASE WHEN state = 'CA' THEN 'us-west1' ELSE 'us-east1' END) STORED",
        )
        .unwrap();
        let computed = match stmt {
            crate::ast::Stmt::AlterTable {
                action: crate::ast::AlterTableAction::AddColumn(def),
                ..
            } => def.computed.unwrap(),
            _ => panic!(),
        };
        let row = vec![Datum::Int(1), Datum::Null, Datum::String("CA".into())];
        assert_eq!(env_eval(&computed, &row), Datum::String("us-west1".into()));
        let row = vec![Datum::Int(1), Datum::Null, Datum::String("NY".into())];
        assert_eq!(env_eval(&computed, &row), Datum::String("us-east1".into()));
    }

    #[test]
    fn builtins() {
        let e = Expr::FnCall {
            name: "gateway_region".into(),
            args: vec![],
        };
        assert_eq!(env_eval(&e, &[]), Datum::Region("us-east1".into()));
        let e = Expr::FnCall {
            name: "gen_random_uuid".into(),
            args: vec![],
        };
        assert_eq!(env_eval(&e, &[]), Datum::Uuid(7));
    }

    #[test]
    fn null_propagation() {
        use crate::ast::BinOp::*;
        let e = Expr::BinOp {
            op: Eq,
            lhs: Box::new(Expr::Lit(Datum::Null)),
            rhs: Box::new(Expr::Lit(Datum::Int(1))),
        };
        assert_eq!(env_eval(&e, &[]), Datum::Null);
        // AND short-circuits on false even with NULL.
        let e = Expr::BinOp {
            op: And,
            lhs: Box::new(Expr::Lit(Datum::Null)),
            rhs: Box::new(Expr::Lit(Datum::Bool(false))),
        };
        assert_eq!(env_eval(&e, &[]), Datum::Bool(false));
    }

    #[test]
    fn equality_extraction() {
        use crate::parser::parse;
        let pred = match parse("SELECT * FROM t WHERE k = 5 AND v IN ('a','b')").unwrap() {
            crate::ast::Stmt::Select { predicate, .. } => predicate.unwrap(),
            _ => panic!(),
        };
        let t = table();
        let (eqs, residual) = extract_equalities(&pred, &t);
        assert!(!residual);
        assert_eq!(eqs.len(), 2);
        assert_eq!(eqs[0], (0, vec![Datum::Int(5)]));
        assert_eq!(
            eqs[1],
            (
                1,
                vec![Datum::String("a".into()), Datum::String("b".into())]
            )
        );
        // A non-equality conjunct leaves a residual.
        let pred = match parse("SELECT * FROM t WHERE k = 5 AND k < 9").unwrap() {
            crate::ast::Stmt::Select { predicate, .. } => predicate.unwrap(),
            _ => panic!(),
        };
        let (eqs, residual) = extract_equalities(&pred, &t);
        assert_eq!(eqs.len(), 1);
        assert!(residual);
    }
}
