//! Recursive-descent parser for the multi-region SQL dialect.

use std::borrow::Cow;

use mr_sim::SimDuration;

use crate::ast::*;
use crate::lexer::{Lexer, Token};
use crate::types::{ColumnType, Datum};

/// Whether `sql` contains no tokens (blank or comments only).
pub fn is_blank(sql: &str) -> bool {
    Lexer::new(sql).next().is_none()
}

/// Parse one statement (a trailing `;` is allowed).
pub fn parse(sql: &str) -> Result<Stmt, String> {
    let mut p = Parser::new(sql);
    let stmt = p.statement().and_then(|stmt| {
        p.eat_symbol(';');
        match p.at_end() {
            true => Ok(stmt),
            false => Err(format!("unexpected trailing input at {:?}", p.peek())),
        }
    });
    // A bad character anywhere in the text is the error, whatever the parse
    // made of the tokens before it.
    let lex_error = p.lex_error.or_else(|| p.lexer.find_map(Result::err));
    match lex_error {
        Some(e) => Err(e),
        None => stmt,
    }
}

/// Split a script on top-level semicolons and parse each statement.
pub fn parse_script(sql: &str) -> Result<Vec<Stmt>, String> {
    let mut out = Vec::new();
    for piece in split_statements(sql) {
        let piece = piece.trim();
        if piece.is_empty() || is_blank(piece) {
            continue;
        }
        out.push(parse(piece).map_err(|e| format!("in {piece:?}: {e}"))?);
    }
    Ok(out)
}

/// Split on `;` outside string literals and `--` comments.
pub fn split_statements(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut in_comment = false;
    let mut prev = '\0';
    for ch in sql.chars() {
        match ch {
            '\n' if in_comment => {
                in_comment = false;
                cur.push(ch);
            }
            _ if in_comment => cur.push(ch),
            '\'' => {
                in_str = !in_str;
                cur.push(ch);
            }
            '-' if !in_str && prev == '-' => {
                in_comment = true;
                cur.push(ch);
            }
            ';' if !in_str => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(ch),
        }
        prev = if in_comment || in_str { '\0' } else { ch };
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

/// A statement's tokens, pulled from the lexer one ahead of the parse and
/// handed over by value.
struct Parser<'a> {
    lexer: Lexer<'a>,
    next: Option<Token<'a>>,
    /// The lexer's error, if it met a bad character: the tokens end there.
    lex_error: Option<String>,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Parser<'a> {
        let mut p = Parser {
            lexer: Lexer::new(sql),
            next: None,
            lex_error: None,
        };
        p.bump();
        p
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.next.as_ref()
    }

    fn at_end(&self) -> bool {
        self.next.is_none()
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let following = match self.lexer.next() {
            Some(Err(e)) => {
                self.lex_error = Some(e);
                None
            }
            token => token.and_then(Result::ok),
        };
        std::mem::replace(&mut self.next, following)
    }

    /// Consume the next token if `is` accepts it.
    fn eat(&mut self, is: impl FnOnce(&Token<'a>) -> bool) -> bool {
        let hit = self.peek().is_some_and(is);
        if hit {
            self.bump();
        }
        hit
    }

    fn kw(&mut self, kw: &str) -> bool {
        self.eat(|t| t.is_kw(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), String> {
        if self.kw(kw) {
            Ok(())
        } else {
            Err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    fn eat_symbol(&mut self, c: char) -> bool {
        self.eat(|t| *t == Token::Symbol(c))
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), String> {
        if self.eat_symbol(c) {
            Ok(())
        } else {
            Err(format!("expected '{c}', found {:?}", self.peek()))
        }
    }

    /// Identifier (word or quoted).
    fn ident(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(Token::Word(w) | Token::QuotedIdent(w)) => Ok(w.to_string()),
            t => Err(format!("expected identifier, found {t:?}")),
        }
    }

    /// Region names appear as quoted identifiers or string literals.
    fn region_name(&mut self) -> Result<String, String> {
        match self.bump() {
            Some(Token::QuotedIdent(w) | Token::Word(w)) => Ok(w.to_string()),
            Some(Token::String(s)) => Ok(s.into_owned()),
            t => Err(format!("expected region name, found {t:?}")),
        }
    }

    fn string_lit(&mut self) -> Result<Cow<'a, str>, String> {
        match self.bump() {
            Some(Token::String(s)) => Ok(s),
            t => Err(format!("expected string literal, found {t:?}")),
        }
    }

    // ------------------------------------------------------------------

    fn statement(&mut self) -> Result<Stmt, String> {
        if self.kw("CREATE") {
            return self.create();
        }
        if self.kw("ALTER") {
            return self.alter();
        }
        if self.kw("DROP") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            return Ok(Stmt::DropTable { name });
        }
        if self.kw("SHOW") {
            if self.kw("RANGES") {
                self.expect_kw("FROM")?;
                self.expect_kw("TABLE")?;
                let table = self.ident()?;
                return Ok(Stmt::ShowRanges { table });
            }
            if self.kw("SURVIVAL") {
                self.expect_kw("GOAL")?;
                let db = if self.kw("FROM") {
                    self.expect_kw("DATABASE")?;
                    Some(self.ident()?)
                } else {
                    None
                };
                return Ok(Stmt::ShowSurvivalGoal { db });
            }
            self.expect_kw("REGIONS")?;
            let db = if self.kw("FROM") {
                self.expect_kw("DATABASE")?;
                Some(self.ident()?)
            } else {
                None
            };
            return Ok(Stmt::ShowRegions { db });
        }
        if self.kw("EXPLAIN") {
            if self.kw("ANALYZE") {
                let inner = self.statement()?;
                return Ok(Stmt::ExplainAnalyze(Box::new(inner)));
            }
            let inner = self.statement()?;
            return Ok(Stmt::Explain(Box::new(inner)));
        }
        if self.kw("INSERT") {
            return self.insert(false);
        }
        if self.kw("UPSERT") {
            return self.insert(true);
        }
        if self.kw("SELECT") {
            return self.select();
        }
        if self.kw("UPDATE") {
            return self.update();
        }
        if self.kw("DELETE") {
            self.expect_kw("FROM")?;
            let table = self.ident()?;
            let predicate = if self.kw("WHERE") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Delete { table, predicate });
        }
        if self.kw("BEGIN") {
            return Ok(Stmt::Begin);
        }
        if self.kw("COMMIT") {
            return Ok(Stmt::Commit);
        }
        if self.kw("ROLLBACK") {
            return Ok(Stmt::Rollback);
        }
        if self.kw("USE") {
            let db = self.ident()?;
            return Ok(Stmt::Use { db });
        }
        Err(format!("unrecognized statement start: {:?}", self.peek()))
    }

    // ------------------------------------------------------------------
    // CREATE ...
    // ------------------------------------------------------------------

    fn create(&mut self) -> Result<Stmt, String> {
        if self.kw("DATABASE") {
            let name = self.ident()?;
            let mut primary_region = None;
            let mut regions = Vec::new();
            if self.kw("PRIMARY") {
                self.expect_kw("REGION")?;
                primary_region = Some(self.region_name()?);
            }
            if self.kw("REGIONS") {
                loop {
                    regions.push(self.region_name()?);
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
            }
            return Ok(Stmt::CreateDatabase {
                name,
                primary_region,
                regions,
            });
        }
        if self.kw("TABLE") {
            return self.create_table();
        }
        let unique = self.kw("UNIQUE");
        if self.kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            self.expect_symbol('(')?;
            let mut columns = Vec::new();
            loop {
                columns.push(self.ident()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            let mut storing = Vec::new();
            if self.kw("STORING") || self.kw("COVERING") {
                self.expect_symbol('(')?;
                loop {
                    storing.push(self.ident()?);
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol(')')?;
            }
            return Ok(Stmt::CreateIndex {
                name,
                table,
                columns,
                unique,
                storing,
            });
        }
        Err(format!("unsupported CREATE: {:?}", self.peek()))
    }

    fn create_table(&mut self) -> Result<Stmt, String> {
        let name = self.ident()?;
        self.expect_symbol('(')?;
        let mut columns = Vec::new();
        let mut constraints = Vec::new();
        loop {
            if self.kw("PRIMARY") {
                self.expect_kw("KEY")?;
                constraints.push(TableConstraint::PrimaryKey(self.paren_ident_list()?));
            } else if self.kw("UNIQUE") {
                constraints.push(TableConstraint::Unique(self.paren_ident_list()?));
            } else if self.kw("FOREIGN") {
                self.expect_kw("KEY")?;
                let columns = self.paren_ident_list()?;
                self.expect_kw("REFERENCES")?;
                let parent = self.ident()?;
                let parent_columns = if self.peek() == Some(&Token::Symbol('(')) {
                    self.paren_ident_list()?
                } else {
                    Vec::new()
                };
                constraints.push(TableConstraint::ForeignKey {
                    columns,
                    parent,
                    parent_columns,
                });
            } else if self.kw("CONSTRAINT") {
                // `CONSTRAINT name <constraint>`: skip the name, recurse.
                let _ = self.ident()?;
                continue;
            } else {
                columns.push(self.column_def()?);
            }
            if !self.eat_symbol(',') {
                break;
            }
        }
        self.expect_symbol(')')?;
        let locality = if self.kw("LOCALITY") {
            Some(self.locality()?)
        } else {
            None
        };
        Ok(Stmt::CreateTable {
            name,
            columns,
            constraints,
            locality,
        })
    }

    fn paren_ident_list(&mut self) -> Result<Vec<String>, String> {
        self.expect_symbol('(')?;
        let mut out = Vec::new();
        loop {
            out.push(self.ident()?);
            if !self.eat_symbol(',') {
                break;
            }
        }
        self.expect_symbol(')')?;
        Ok(out)
    }

    fn column_def(&mut self) -> Result<ColumnDef, String> {
        let name = self.ident()?;
        let ty_word = self.ident()?;
        let ty = ColumnType::parse(&ty_word)
            .ok_or_else(|| format!("unknown column type {ty_word:?}"))?;
        let mut def = ColumnDef {
            name,
            ty: Some(ty),
            ..ColumnDef::default()
        };
        loop {
            if self.kw("NOT") {
                if self.kw("NULL") {
                    def.not_null = true;
                } else if self.kw("VISIBLE") {
                    def.hidden = true;
                } else {
                    return Err("expected NULL or VISIBLE after NOT".into());
                }
            } else if self.kw("PRIMARY") {
                self.expect_kw("KEY")?;
                def.primary_key = true;
            } else if self.kw("UNIQUE") {
                def.unique = true;
            } else if self.kw("DEFAULT") {
                def.default = Some(self.expr()?);
            } else if self.kw("AS") {
                self.expect_symbol('(')?;
                def.computed = Some(self.expr()?);
                self.expect_symbol(')')?;
                // STORED / VIRTUAL — we only support stored.
                let _ = self.kw("STORED") || self.kw("VIRTUAL");
            } else if self.kw("ON") {
                self.expect_kw("UPDATE")?;
                def.on_update = Some(self.expr()?);
            } else if self.kw("REFERENCES") {
                let parent = self.ident()?;
                let col = if self.peek() == Some(&Token::Symbol('(')) {
                    self.paren_ident_list()?
                        .first()
                        .cloned()
                        .unwrap_or_default()
                } else {
                    String::new()
                };
                // Optional ON UPDATE/DELETE CASCADE — accepted, cascade
                // behaviour is the executor's default for region columns.
                while self.kw("ON") {
                    let _ = self.kw("UPDATE") || self.kw("DELETE");
                    let _ = self.kw("CASCADE") || self.kw("RESTRICT");
                }
                def.references = Some((parent, col));
            } else {
                break;
            }
        }
        Ok(def)
    }

    fn locality(&mut self) -> Result<Locality, String> {
        if self.kw("GLOBAL") {
            return Ok(Locality::Global);
        }
        self.expect_kw("REGIONAL")?;
        self.expect_kw("BY")?;
        if self.kw("ROW") {
            return Ok(Locality::RegionalByRow);
        }
        self.expect_kw("TABLE")?;
        if self.kw("IN") {
            if self.kw("PRIMARY") {
                self.expect_kw("REGION")?;
                return Ok(Locality::RegionalByTable(None));
            }
            let r = self.region_name()?;
            return Ok(Locality::RegionalByTable(Some(r)));
        }
        Ok(Locality::RegionalByTable(None))
    }

    // ------------------------------------------------------------------
    // ALTER ...
    // ------------------------------------------------------------------

    fn alter(&mut self) -> Result<Stmt, String> {
        if self.kw("DATABASE") {
            let name = self.ident()?;
            let action = if self.kw("ADD") {
                self.expect_kw("REGION")?;
                AlterDbAction::AddRegion(self.region_name()?)
            } else if self.kw("DROP") {
                self.expect_kw("REGION")?;
                AlterDbAction::DropRegion(self.region_name()?)
            } else if self.kw("SURVIVE") {
                if self.kw("REGION") {
                    self.expect_kw("FAILURE")?;
                    AlterDbAction::SurviveRegionFailure
                } else {
                    self.expect_kw("ZONE")?;
                    self.expect_kw("FAILURE")?;
                    AlterDbAction::SurviveZoneFailure
                }
            } else if self.kw("SET") {
                if self.kw("PRIMARY") {
                    self.expect_kw("REGION")?;
                    AlterDbAction::SetPrimaryRegion(self.region_name()?)
                } else {
                    self.expect_kw("PLACEMENT")?;
                    if self.kw("RESTRICTED") {
                        AlterDbAction::PlacementRestricted
                    } else {
                        self.expect_kw("DEFAULT")?;
                        AlterDbAction::PlacementDefault
                    }
                }
            } else if self.kw("PLACEMENT") {
                if self.kw("RESTRICTED") {
                    AlterDbAction::PlacementRestricted
                } else {
                    self.expect_kw("DEFAULT")?;
                    AlterDbAction::PlacementDefault
                }
            } else {
                return Err(format!("unsupported ALTER DATABASE: {:?}", self.peek()));
            };
            return Ok(Stmt::AlterDatabase { name, action });
        }
        if self.kw("TABLE") {
            let name = self.ident()?;
            if self.kw("SET") {
                self.expect_kw("LOCALITY")?;
                let loc = self.locality()?;
                return Ok(Stmt::AlterTable {
                    name,
                    action: AlterTableAction::SetLocality(loc),
                });
            }
            if self.kw("ADD") {
                let _ = self.kw("COLUMN");
                let def = self.column_def()?;
                return Ok(Stmt::AlterTable {
                    name,
                    action: AlterTableAction::AddColumn(def),
                });
            }
            if self.kw("PARTITION") {
                self.expect_kw("BY")?;
                self.expect_kw("LIST")?;
                self.expect_symbol('(')?;
                let column = self.ident()?;
                self.expect_symbol(')')?;
                self.expect_symbol('(')?;
                let mut partitions = Vec::new();
                loop {
                    self.expect_kw("PARTITION")?;
                    let pname = self.ident()?;
                    self.expect_kw("VALUES")?;
                    self.expect_kw("IN")?;
                    self.expect_symbol('(')?;
                    let mut vals = Vec::new();
                    loop {
                        vals.push(self.literal()?);
                        if !self.eat_symbol(',') {
                            break;
                        }
                    }
                    self.expect_symbol(')')?;
                    partitions.push((pname, vals));
                    if !self.eat_symbol(',') {
                        break;
                    }
                }
                self.expect_symbol(')')?;
                return Ok(Stmt::AlterTable {
                    name,
                    action: AlterTableAction::PartitionByList { column, partitions },
                });
            }
            if self.kw("CONFIGURE") {
                self.expect_kw("ZONE")?;
                self.expect_kw("USING")?;
                let zone = self.zone_overrides()?;
                return Ok(Stmt::AlterTable {
                    name,
                    action: AlterTableAction::ConfigureZone(zone),
                });
            }
            return Err(format!("unsupported ALTER TABLE: {:?}", self.peek()));
        }
        if self.kw("INDEX") {
            // ALTER INDEX table@index CONFIGURE ZONE USING ... — we lex
            // `table@index` as... '@' isn't lexed; accept `table.index` or
            // two identifiers.
            let first = self.ident()?;
            let (table, index) = match first.split_once('.') {
                Some((t, i)) => (t.to_string(), i.to_string()),
                None => {
                    let idx = self.ident()?;
                    (first, idx)
                }
            };
            self.expect_kw("CONFIGURE")?;
            self.expect_kw("ZONE")?;
            self.expect_kw("USING")?;
            let zone = self.zone_overrides()?;
            return Ok(Stmt::AlterIndex { table, index, zone });
        }
        if self.kw("PARTITION") {
            let partition = self.ident()?;
            self.expect_kw("OF")?;
            self.expect_kw("TABLE")?;
            let table = self.ident()?;
            self.expect_kw("CONFIGURE")?;
            self.expect_kw("ZONE")?;
            self.expect_kw("USING")?;
            let zone = self.zone_overrides()?;
            return Ok(Stmt::AlterPartition {
                partition,
                table,
                zone,
            });
        }
        Err(format!("unsupported ALTER: {:?}", self.peek()))
    }

    /// Parse `key = value, ...` zone overrides. Constraint strings use the
    /// CRDB syntax: `'{+region=us-east1: 2, +region=us-west1: 1}'` and
    /// `'[[+region=us-east1]]'`.
    fn zone_overrides(&mut self) -> Result<ZoneOverrides, String> {
        let mut z = ZoneOverrides::default();
        loop {
            let key = self.ident()?;
            self.expect_symbol('=')?;
            match key.to_ascii_lowercase().as_str() {
                "num_replicas" => {
                    z.num_replicas = Some(self.number()? as usize);
                }
                "num_voters" => {
                    z.num_voters = Some(self.number()? as usize);
                }
                "constraints" => {
                    z.constraints = parse_constraint_map(&self.string_lit()?)?;
                }
                "voter_constraints" => {
                    z.voter_constraints = parse_constraint_map(&self.string_lit()?)?;
                }
                "lease_preferences" => {
                    z.lease_preferences = parse_lease_prefs(&self.string_lit()?)?;
                }
                other => return Err(format!("unknown zone config field {other:?}")),
            }
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(z)
    }

    fn number(&mut self) -> Result<i64, String> {
        match self.bump() {
            Some(Token::Number(n)) => n.parse().map_err(|e| format!("bad number {n:?}: {e}")),
            t => Err(format!("expected number, found {t:?}")),
        }
    }

    fn literal(&mut self) -> Result<Datum, String> {
        match self.bump() {
            Some(Token::String(s)) => Ok(Datum::String(s.into_owned())),
            Some(Token::Number(n)) => {
                if n.contains('.') {
                    Ok(Datum::Float(n.parse().map_err(|e| format!("{e}"))?))
                } else {
                    Ok(Datum::Int(n.parse().map_err(|e| format!("{e}"))?))
                }
            }
            Some(t) if t.is_kw("TRUE") => Ok(Datum::Bool(true)),
            Some(t) if t.is_kw("FALSE") => Ok(Datum::Bool(false)),
            Some(t) if t.is_kw("NULL") => Ok(Datum::Null),
            t => Err(format!("expected literal, found {t:?}")),
        }
    }

    // ------------------------------------------------------------------
    // DML
    // ------------------------------------------------------------------

    fn insert(&mut self, upsert: bool) -> Result<Stmt, String> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.peek() == Some(&Token::Symbol('(')) {
            Some(self.paren_ident_list()?)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol('(')?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            rows.push(row);
            if !self.eat_symbol(',') {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            rows,
            upsert,
        })
    }

    fn select(&mut self) -> Result<Stmt, String> {
        let columns = if self.eat_symbol('*') {
            None
        } else {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            Some(cols)
        };
        self.expect_kw("FROM")?;
        // Allow one qualification level (`crdb_internal.ranges`).
        let mut table = self.ident()?;
        if self.eat_symbol('.') {
            table = format!("{table}.{}", self.ident()?);
        }
        let mut aost = None;
        if self.kw("AS") {
            self.expect_kw("OF")?;
            self.expect_kw("SYSTEM")?;
            self.expect_kw("TIME")?;
            aost = Some(self.aost()?);
        }
        let predicate = if self.kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let limit = if self.kw("LIMIT") {
            Some(self.number()? as u64)
        } else {
            None
        };
        Ok(Stmt::Select {
            table,
            columns,
            predicate,
            limit,
            aost,
        })
    }

    fn aost(&mut self) -> Result<Aost, String> {
        match self.bump() {
            Some(Token::String(s)) => {
                let d = parse_interval(&s)?;
                Ok(Aost::ExactAgo(d))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("with_max_staleness") => {
                self.expect_symbol('(')?;
                let s = self.string_lit()?;
                self.expect_symbol(')')?;
                let d = parse_interval(s.trim_start_matches('-'))?;
                Ok(Aost::MaxStaleness(d))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("with_min_timestamp") => {
                self.expect_symbol('(')?;
                let n = self.number()?;
                self.expect_symbol(')')?;
                Ok(Aost::MinTimestamp(n as u64))
            }
            Some(Token::Word(w)) if w.eq_ignore_ascii_case("follower_read_timestamp") => {
                self.expect_symbol('(')?;
                self.expect_symbol(')')?;
                Ok(Aost::FollowerReadTimestamp)
            }
            t => Err(format!("unsupported AS OF SYSTEM TIME value: {t:?}")),
        }
    }

    fn update(&mut self) -> Result<Stmt, String> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_symbol('=')?;
            sets.push((col, self.expr()?));
            if !self.eat_symbol(',') {
                break;
            }
        }
        let predicate = if self.kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            predicate,
        })
    }

    // ------------------------------------------------------------------
    // Expressions (precedence climbing)
    // ------------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, String> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.and_expr()?;
        while self.kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::BinOp {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.cmp_expr()?;
        while self.kw("AND") {
            let rhs = self.cmp_expr()?;
            lhs = Expr::BinOp {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, String> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Symbol('=')) => Some(BinOp::Eq),
            Some(Token::Symbol('<')) => Some(BinOp::Lt),
            Some(Token::Symbol('>')) => Some(BinOp::Gt),
            Some(Token::Op("<=")) => Some(BinOp::Le),
            Some(Token::Op(">=")) => Some(BinOp::Ge),
            Some(Token::Op("<>")) => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.add_expr()?;
            return Ok(Expr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        if self.kw("IN") {
            self.expect_symbol('(')?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat_symbol(',') {
                    break;
                }
            }
            self.expect_symbol(')')?;
            return Ok(Expr::In {
                expr: Box::new(lhs),
                list,
            });
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol('+')) => BinOp::Add,
                Some(Token::Symbol('-')) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, String> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol('*')) => BinOp::Mul,
                Some(Token::Symbol('/')) => BinOp::Div,
                Some(Token::Symbol('%')) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.atom()?;
            lhs = Expr::BinOp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr, String> {
        if self.eat_symbol('(') {
            let e = self.expr()?;
            self.expect_symbol(')')?;
            return Ok(self.maybe_cast(e));
        }
        if self.kw("CASE") {
            let mut whens = Vec::new();
            while self.kw("WHEN") {
                let cond = self.expr()?;
                self.expect_kw("THEN")?;
                let val = self.expr()?;
                whens.push((cond, val));
            }
            let else_ = if self.kw("ELSE") {
                Some(Box::new(self.expr()?))
            } else {
                None
            };
            self.expect_kw("END")?;
            return Ok(Expr::Case { whens, else_ });
        }
        match self.bump() {
            Some(Token::String(s)) => Ok(self.maybe_cast(Expr::Lit(Datum::String(s.into_owned())))),
            Some(Token::Number(n)) => {
                let d = if n.contains('.') {
                    Datum::Float(n.parse().map_err(|e| format!("{e}"))?)
                } else {
                    Datum::Int(n.parse().map_err(|e| format!("{e}"))?)
                };
                Ok(Expr::Lit(d))
            }
            Some(t) if t.is_kw("TRUE") => Ok(Expr::Lit(Datum::Bool(true))),
            Some(t) if t.is_kw("FALSE") => Ok(Expr::Lit(Datum::Bool(false))),
            Some(t) if t.is_kw("NULL") => Ok(Expr::Lit(Datum::Null)),
            Some(Token::Word(w)) => {
                if self.eat_symbol('(') {
                    let mut args = Vec::new();
                    if !self.eat_symbol(')') {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(',') {
                                break;
                            }
                        }
                        self.expect_symbol(')')?;
                    }
                    Ok(Expr::FnCall {
                        name: w.to_ascii_lowercase(),
                        args,
                    })
                } else {
                    Ok(self.maybe_cast(Expr::Col(w.to_string())))
                }
            }
            Some(Token::QuotedIdent(w)) => Ok(Expr::Col(w.to_string())),
            t => Err(format!("expected expression, found {t:?}")),
        }
    }

    /// Accept and discard `::type` casts (values carry their type already).
    fn maybe_cast(&mut self, e: Expr) -> Expr {
        if self.eat(|t| *t == Token::Op("::")) {
            // The type name, whatever token it is.
            self.bump();
        }
        e
    }
}

/// Parse intervals like `-30s`, `500ms`, `2m`, `1h`.
pub fn parse_interval(s: &str) -> Result<SimDuration, String> {
    let s = s.trim().trim_start_matches('-');
    let split = s
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .ok_or_else(|| format!("interval {s:?} missing unit"))?;
    let (num, unit) = s.split_at(split);
    let num: f64 = num
        .parse()
        .map_err(|e| format!("bad interval {s:?}: {e}"))?;
    let nanos = match unit {
        "ns" => num,
        "us" | "µs" => num * 1e3,
        "ms" => num * 1e6,
        "s" => num * 1e9,
        "m" => num * 60e9,
        "h" => num * 3600e9,
        _ => return Err(format!("unknown interval unit {unit:?}")),
    };
    Ok(SimDuration(nanos as u64))
}

/// Parse `{+region=us-east1: 2, +region=us-west1: 1}` (counts optional,
/// defaulting to 1; bare `[+region=x]` lists also accepted).
fn parse_constraint_map(s: &str) -> Result<Vec<(String, usize)>, String> {
    let body = s
        .trim()
        .trim_start_matches(['{', '['])
        .trim_end_matches(['}', ']']);
    let mut out = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (cons, count) = match part.split_once(':') {
            Some((c, n)) => (
                c.trim(),
                n.trim()
                    .parse::<usize>()
                    .map_err(|e| format!("bad constraint count in {part:?}: {e}"))?,
            ),
            None => (part, 1),
        };
        let region = cons
            .strip_prefix("+region=")
            .ok_or_else(|| format!("unsupported constraint {cons:?} (want +region=...)"))?;
        out.push((region.to_string(), count));
    }
    Ok(out)
}

/// Parse `[[+region=us-east1], [+region=us-west1]]`.
fn parse_lease_prefs(s: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for piece in s.split("[+region=").skip(1) {
        let end = piece
            .find(']')
            .ok_or_else(|| format!("malformed lease preference {s:?}"))?;
        out.push(piece[..end].to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_database_with_regions() {
        let s = parse(
            r#"CREATE DATABASE movr PRIMARY REGION "us-east1" REGIONS "us-west1", "europe-west1""#,
        )
        .unwrap();
        match s {
            Stmt::CreateDatabase {
                name,
                primary_region,
                regions,
            } => {
                assert_eq!(name, "movr");
                assert_eq!(primary_region.as_deref(), Some("us-east1"));
                assert_eq!(regions, vec!["us-west1", "europe-west1"]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn alter_database_actions() {
        for (sql, want) in [
            (
                r#"ALTER DATABASE movr ADD REGION "asia-northeast1""#,
                AlterDbAction::AddRegion("asia-northeast1".into()),
            ),
            (
                r#"ALTER DATABASE movr DROP REGION "us-west1""#,
                AlterDbAction::DropRegion("us-west1".into()),
            ),
            (
                "ALTER DATABASE movr SURVIVE REGION FAILURE",
                AlterDbAction::SurviveRegionFailure,
            ),
            (
                "ALTER DATABASE movr SURVIVE ZONE FAILURE",
                AlterDbAction::SurviveZoneFailure,
            ),
            (
                "ALTER DATABASE movr PLACEMENT RESTRICTED",
                AlterDbAction::PlacementRestricted,
            ),
            (
                "ALTER DATABASE movr SET PLACEMENT DEFAULT",
                AlterDbAction::PlacementDefault,
            ),
        ] {
            match parse(sql).unwrap() {
                Stmt::AlterDatabase { action, .. } => assert_eq!(action, want, "{sql}"),
                _ => panic!("{sql}"),
            }
        }
    }

    #[test]
    fn create_table_with_localities() {
        let s = parse(
            "CREATE TABLE users (id UUID PRIMARY KEY DEFAULT gen_random_uuid(), \
             email STRING UNIQUE NOT NULL) LOCALITY REGIONAL BY ROW",
        )
        .unwrap();
        match s {
            Stmt::CreateTable {
                columns, locality, ..
            } => {
                assert_eq!(columns.len(), 2);
                assert!(columns[0].primary_key);
                assert!(columns[0].default.is_some());
                assert!(columns[1].unique);
                assert!(columns[1].not_null);
                assert_eq!(locality, Some(Locality::RegionalByRow));
            }
            _ => panic!(),
        }
        match parse(r#"CREATE TABLE t (a INT) LOCALITY REGIONAL BY TABLE IN "us-west1""#).unwrap() {
            Stmt::CreateTable { locality, .. } => {
                assert_eq!(
                    locality,
                    Some(Locality::RegionalByTable(Some("us-west1".into())))
                )
            }
            _ => panic!(),
        }
        match parse("ALTER TABLE promo_codes SET LOCALITY GLOBAL").unwrap() {
            Stmt::AlterTable { action, .. } => {
                assert!(matches!(
                    action,
                    AlterTableAction::SetLocality(Locality::Global)
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn computed_region_column() {
        let s = parse(
            "ALTER TABLE users ADD COLUMN crdb_region crdb_internal_region \
             NOT VISIBLE NOT NULL AS (CASE WHEN state = 'CA' THEN 'us-west1' \
             ELSE 'us-east1' END) STORED",
        )
        .unwrap();
        match s {
            Stmt::AlterTable {
                action: AlterTableAction::AddColumn(def),
                ..
            } => {
                assert!(def.hidden);
                assert!(def.not_null);
                assert!(matches!(def.computed, Some(Expr::Case { .. })));
                assert_eq!(def.ty, Some(ColumnType::Region));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn select_forms() {
        match parse("SELECT * FROM users WHERE email = 'a@b.c'").unwrap() {
            Stmt::Select {
                columns, predicate, ..
            } => {
                assert!(columns.is_none());
                assert!(matches!(predicate, Some(Expr::BinOp { op: BinOp::Eq, .. })));
            }
            _ => panic!(),
        }
        match parse("SELECT a, b FROM t AS OF SYSTEM TIME '-30s' WHERE k = 5 LIMIT 10").unwrap() {
            Stmt::Select {
                columns,
                limit,
                aost,
                ..
            } => {
                assert_eq!(columns.unwrap().len(), 2);
                assert_eq!(limit, Some(10));
                assert_eq!(aost, Some(Aost::ExactAgo(SimDuration::from_secs(30))));
            }
            _ => panic!(),
        }
        match parse("SELECT * FROM t AS OF SYSTEM TIME with_max_staleness('10s') WHERE k = 1")
            .unwrap()
        {
            Stmt::Select { aost, .. } => {
                assert_eq!(aost, Some(Aost::MaxStaleness(SimDuration::from_secs(10))))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn insert_update_delete() {
        match parse("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap() {
            Stmt::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
            }
            _ => panic!(),
        }
        match parse("UPDATE t SET v = v + 1, w = 2 WHERE k = 7 AND z = 'a'").unwrap() {
            Stmt::Update {
                sets, predicate, ..
            } => {
                assert_eq!(sets.len(), 2);
                assert!(matches!(
                    predicate,
                    Some(Expr::BinOp { op: BinOp::And, .. })
                ));
            }
            _ => panic!(),
        }
        match parse("DELETE FROM t WHERE k IN (1, 2, 3)").unwrap() {
            Stmt::Delete { predicate, .. } => {
                assert!(matches!(predicate, Some(Expr::In { list, .. }) if list.len() == 3))
            }
            _ => panic!(),
        }
    }

    #[test]
    fn legacy_partitioning_and_zones() {
        let s = parse(
            "ALTER TABLE users PARTITION BY LIST (region) (\
             PARTITION us_east VALUES IN ('us-east1'), \
             PARTITION us_west VALUES IN ('us-west1'))",
        )
        .unwrap();
        match s {
            Stmt::AlterTable {
                action: AlterTableAction::PartitionByList { column, partitions },
                ..
            } => {
                assert_eq!(column, "region");
                assert_eq!(partitions.len(), 2);
                assert_eq!(partitions[0].0, "us_east");
            }
            _ => panic!(),
        }
        let s = parse(
            "ALTER PARTITION us_east OF TABLE users CONFIGURE ZONE USING \
             num_replicas = 3, constraints = '{+region=us-east1: 3}', \
             lease_preferences = '[[+region=us-east1]]'",
        )
        .unwrap();
        match s {
            Stmt::AlterPartition { zone, .. } => {
                assert_eq!(zone.num_replicas, Some(3));
                assert_eq!(zone.constraints, vec![("us-east1".to_string(), 3)]);
                assert_eq!(zone.lease_preferences, vec!["us-east1"]);
            }
            _ => panic!(),
        }
        let s = parse("CREATE INDEX idx_west ON promo_codes (code) STORING (description)").unwrap();
        match s {
            Stmt::CreateIndex {
                storing, unique, ..
            } => {
                assert_eq!(storing, vec!["description"]);
                assert!(!unique);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn script_splitting() {
        let stmts = parse_script(
            "CREATE DATABASE d PRIMARY REGION \"a\";\n\
             CREATE TABLE t (k INT PRIMARY KEY);\n\
             -- comment\n\
             INSERT INTO t VALUES (1);",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
    }

    #[test]
    fn expression_precedence() {
        match parse("SELECT * FROM t WHERE k % 3 = 0 AND v = 'x'").unwrap() {
            Stmt::Select { predicate, .. } => {
                // AND at top, Eq below, Mod below that.
                match predicate.unwrap() {
                    Expr::BinOp {
                        op: BinOp::And,
                        lhs,
                        ..
                    } => match *lhs {
                        Expr::BinOp {
                            op: BinOp::Eq, lhs, ..
                        } => {
                            assert!(matches!(*lhs, Expr::BinOp { op: BinOp::Mod, .. }))
                        }
                        _ => panic!(),
                    },
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn intervals() {
        assert_eq!(parse_interval("-30s").unwrap(), SimDuration::from_secs(30));
        assert_eq!(
            parse_interval("500ms").unwrap(),
            SimDuration::from_millis(500)
        );
        assert_eq!(parse_interval("2m").unwrap(), SimDuration::from_secs(120));
        assert!(parse_interval("xyz").is_err());
    }

    #[test]
    fn txn_control() {
        assert!(matches!(parse("BEGIN").unwrap(), Stmt::Begin));
        assert!(matches!(parse("COMMIT;").unwrap(), Stmt::Commit));
        assert!(matches!(parse("ROLLBACK").unwrap(), Stmt::Rollback));
        assert!(matches!(parse("USE movr").unwrap(), Stmt::Use { .. }));
    }
}
