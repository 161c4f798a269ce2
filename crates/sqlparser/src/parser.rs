//! The recursive-descent parser.

use crate::lexer::Tok;
use crate::phrases;
use lego_coverage::{CovMap, CovRecorder};
use lego_sqlast::ast::*;
use lego_sqlast::expr::*;
use lego_sqlast::kind::DdlVerb;
use std::fmt::{self, Write};

/// Record a grammar-rule entry on a tracing parser. Each invocation site
/// passes its own explicit [`lego_coverage::SiteId`] literal (a fresh random
/// 64-bit value for a new rule; see [`lego_coverage::site_id!`]), and
/// [`CovRecorder::hit`] chains rule→rule edges AFL-style, so the rule map
/// captures *paths* through the grammar, not just the set of rules entered.
/// One branch when tracing is off.
macro_rules! rule {
    ($p:expr, $id:literal) => {
        if let Some(r) = $p.rules.as_mut() {
            r.hit(lego_coverage::site_id!($id));
        }
    };
}

/// A parse error with token position.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    pub pos: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at token {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

/// Room for the longest keyword the parser dispatches on by `match`
/// (`CHECKPOINT`, 10 bytes).
const KW_MAX: usize = 16;

/// `word` in ASCII upper case, in `buf`; empty when `word` is longer than
/// any dispatched keyword, so that it matches none.
fn upper<'b>(word: &str, buf: &'b mut [u8; KW_MAX]) -> &'b str {
    let Some(dst) = buf.get_mut(..word.len()) else { return "" };
    dst.copy_from_slice(word.as_bytes());
    dst.make_ascii_uppercase();
    std::str::from_utf8(dst).expect("the ASCII upper case of a str is a str")
}

pub struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    /// Grammar-rule coverage recorder; `None` on the (default) untraced
    /// path, which keeps plain parsing allocation- and branch-cheap.
    rules: Option<CovRecorder>,
}

impl<'a> Parser<'a> {
    pub fn new(toks: Vec<Tok<'a>>) -> Self {
        Self { toks, pos: 0, rules: None }
    }

    /// A parser that records grammar-rule traversal coverage into `rec`.
    pub fn with_rules(toks: Vec<Tok<'a>>, rec: CovRecorder) -> Self {
        Self { toks, pos: 0, rules: Some(rec) }
    }

    /// Reset the rule→rule edge chain (call at each statement boundary so
    /// rule edges never span statements — mirroring how the engine resets
    /// its branch-edge chain per statement).
    pub fn reset_rule_chain(&mut self) {
        if let Some(r) = self.rules.as_mut() {
            r.reset_edge_chain();
        }
    }

    /// Take back the rule-coverage map (empty map if tracing was off).
    pub fn into_rule_map(self) -> CovMap {
        match self.rules {
            Some(r) => r.into_map(),
            None => CovMap::new(),
        }
    }

    // -- token plumbing ----------------------------------------------------

    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, offset: usize) -> Option<&Tok<'a>> {
        self.toks.get(self.pos + offset)
    }

    fn rest(&self) -> &[Tok<'a>] {
        &self.toks[self.pos.min(self.toks.len())..]
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub fn error(&self, msg: impl Into<String>) -> ParseError {
        let mut message = msg.into();
        if let Some(t) = self.peek() {
            let _ = write!(message, " (at `{t}`)");
        }
        ParseError { pos: self.pos, message }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().is_some_and(|t| t.is_kw(kw))
    }

    fn peek_kw_at(&self, offset: usize, kw: &str) -> bool {
        self.peek_at(offset).is_some_and(|t| t.is_kw(kw))
    }

    fn peek_sym(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_sym(s))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek_sym(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> PResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}")))
        }
    }

    fn expect_sym(&mut self, s: &str) -> PResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{s}`")))
        }
    }

    /// The next token's identifier text, borrowed from the source.
    fn word(&mut self) -> PResult<&'a str> {
        match self.peek() {
            Some(&Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error("expected identifier")),
        }
    }

    fn ident(&mut self) -> PResult<String> {
        self.word().map(str::to_string)
    }

    pub fn skip_semicolons(&mut self) {
        while self.eat_sym(";") {}
    }

    fn at_stmt_end(&self) -> bool {
        self.at_end() || self.peek_sym(";")
    }

    /// The tokens up to the statement end, or up to keyword `stop`, printed
    /// and joined by single spaces (no token prints empty).
    fn join_tokens(&mut self, stop: Option<&str>) -> String {
        let mut out = String::new();
        while !self.at_stmt_end() && !stop.is_some_and(|kw| self.peek_kw(kw)) {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{}", self.toks[self.pos]);
            self.pos += 1;
        }
        out
    }

    /// Join all tokens up to the statement end into one string (generic
    /// argument capture for the statement long tail).
    fn rest_of_statement(&mut self) -> Option<String> {
        let arg = self.join_tokens(None);
        (!arg.is_empty()).then_some(arg)
    }

    // -- statements ---------------------------------------------------------

    pub fn parse_statement(&mut self) -> PResult<Statement> {
        rule!(self, 0x3f0554deb9e4b1b0);
        // The generic long tail first: longest keyword-phrase match over all
        // statement kinds without dedicated parsers.
        if let Some((kind, n)) = phrases::match_misc(self.rest()) {
            self.pos += n;
            let arg = self.rest_of_statement();
            return Ok(Statement::Misc(MiscStmt { kind, arg }));
        }
        let word = match self.peek() {
            Some(&Tok::Ident(s)) => s,
            _ => return Err(self.error("expected a statement keyword")),
        };
        let mut buf = [0; KW_MAX];
        match upper(word, &mut buf) {
            "CREATE" => self.parse_create(),
            "ALTER" => self.parse_alter(),
            "DROP" => self.parse_drop(),
            "SELECT" | "SELECTV" => self.parse_select_statement(),
            "VALUES" => {
                self.bump();
                Ok(Statement::Values(self.parse_values_rows()?))
            }
            "WITH" => self.parse_with(),
            "INSERT" => self.parse_insert(false),
            "REPLACE" => self.parse_insert(true),
            "UPDATE" => self.parse_update(),
            "DELETE" => self.parse_delete(),
            "TRUNCATE" => {
                self.bump();
                self.eat_kw("TABLE");
                Ok(Statement::Truncate { table: self.ident()? })
            }
            "COPY" => self.parse_copy(),
            "GRANT" => self.parse_grant(false),
            "REVOKE" => self.parse_grant(true),
            "BEGIN" => {
                self.bump();
                self.eat_kw("TRANSACTION");
                self.eat_kw("WORK");
                Ok(Statement::Begin)
            }
            "START" => {
                self.bump();
                self.expect_kw("TRANSACTION")?;
                Ok(Statement::StartTransaction)
            }
            "COMMIT" => {
                self.bump();
                self.eat_kw("WORK");
                Ok(Statement::Commit)
            }
            "END" => {
                self.bump();
                Ok(Statement::End)
            }
            "ROLLBACK" => {
                self.bump();
                if self.eat_kw("TO") {
                    self.eat_kw("SAVEPOINT");
                    Ok(Statement::RollbackToSavepoint(self.ident()?))
                } else {
                    self.eat_kw("WORK");
                    Ok(Statement::Rollback)
                }
            }
            "ABORT" => {
                self.bump();
                Ok(Statement::Abort)
            }
            "SAVEPOINT" => {
                self.bump();
                Ok(Statement::Savepoint(self.ident()?))
            }
            "RELEASE" => {
                self.bump();
                self.eat_kw("SAVEPOINT");
                Ok(Statement::ReleaseSavepoint(self.ident()?))
            }
            "SET" => self.parse_set(),
            "RESET" => {
                self.bump();
                Ok(Statement::Reset(self.ident()?))
            }
            "SHOW" => {
                self.bump();
                Ok(Statement::Show(self.ident()?))
            }
            "PRAGMA" => {
                self.bump();
                let name = self.ident()?;
                let value = if self.eat_sym("=") {
                    Some(
                        self.bump().ok_or_else(|| self.error("expected pragma value"))?.to_string(),
                    )
                } else {
                    None
                };
                Ok(Statement::Pragma { name, value })
            }
            "ANALYZE" => {
                self.bump();
                let t = if self.at_stmt_end() { None } else { Some(self.ident()?) };
                Ok(Statement::Analyze(t))
            }
            "VACUUM" => {
                self.bump();
                let full = self.eat_kw("FULL");
                let t = if self.at_stmt_end() { None } else { Some(self.ident()?) };
                Ok(Statement::Vacuum { table: t, full })
            }
            "EXPLAIN" => {
                self.bump();
                self.eat_kw("ANALYZE");
                Ok(Statement::Explain(Box::new(self.parse_statement()?)))
            }
            "REINDEX" => {
                self.bump();
                let t = if self.eat_kw("TABLE") { Some(self.ident()?) } else { None };
                Ok(Statement::Reindex(t))
            }
            "CHECKPOINT" => {
                self.bump();
                Ok(Statement::Checkpoint)
            }
            "CLUSTER" => {
                self.bump();
                let t = if self.at_stmt_end() { None } else { Some(self.ident()?) };
                Ok(Statement::Cluster(t))
            }
            "DISCARD" => {
                self.bump();
                Ok(Statement::Discard(self.ident()?))
            }
            "LISTEN" => {
                self.bump();
                Ok(Statement::Listen(self.ident()?))
            }
            "NOTIFY" => {
                self.bump();
                let channel = self.ident()?;
                let payload = if self.eat_sym(",") {
                    match self.bump() {
                        Some(Tok::Str(s)) => Some(s.into_owned()),
                        _ => return Err(self.error("expected notify payload string")),
                    }
                } else {
                    None
                };
                Ok(Statement::Notify { channel, payload })
            }
            "UNLISTEN" => {
                self.bump();
                Ok(Statement::Unlisten(self.ident()?))
            }
            "LOCK" => {
                self.bump();
                self.eat_kw("TABLE");
                let table = self.ident()?;
                let mode = if self.eat_kw("IN") {
                    let mut words = String::new();
                    while !self.peek_kw("MODE") && !self.at_stmt_end() {
                        if !words.is_empty() {
                            words.push(' ');
                        }
                        words.push_str(self.word()?);
                    }
                    self.expect_kw("MODE")?;
                    Some(words)
                } else {
                    None
                };
                Ok(Statement::LockTable { table, mode })
            }
            "COMMENT" => {
                self.bump();
                self.expect_kw("ON")?;
                let (object, n) = phrases::match_object(self.rest())
                    .ok_or_else(|| self.error("expected object kind after COMMENT ON"))?;
                self.pos += n;
                let name = self.ident()?;
                self.expect_kw("IS")?;
                let text = match self.bump() {
                    Some(Tok::Str(s)) => s.into_owned(),
                    _ => return Err(self.error("expected comment string")),
                };
                Ok(Statement::Comment { object, name, text })
            }
            "CALL" => {
                self.bump();
                let name = self.ident()?;
                self.expect_sym("(")?;
                let mut args = Vec::new();
                if !self.peek_sym(")") {
                    loop {
                        args.push(self.parse_expr()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym(")")?;
                Ok(Statement::Call { name, args })
            }
            "REFRESH" => {
                self.bump();
                self.expect_kw("MATERIALIZED")?;
                self.expect_kw("VIEW")?;
                Ok(Statement::RefreshMatView(self.ident()?))
            }
            _ => {
                Err(self
                    .error(format!("unknown statement keyword `{}`", word.to_ascii_uppercase())))
            }
        }
    }

    // -- DDL -----------------------------------------------------------------

    fn parse_create(&mut self) -> PResult<Statement> {
        rule!(self, 0x1a7dd4deb7f42d54);
        self.expect_kw("CREATE")?;
        let or_replace = if self.peek_kw("OR") && self.peek_kw_at(1, "REPLACE") {
            self.pos += 2;
            true
        } else {
            false
        };
        let temporary = self.eat_kw("TEMPORARY") || self.eat_kw("TEMP");
        let unique = self.eat_kw("UNIQUE");
        let materialized = self.eat_kw("MATERIALIZED");

        if self.eat_kw("TABLE") {
            let if_not_exists = if self.peek_kw("IF")
                && self.peek_kw_at(1, "NOT")
                && self.peek_kw_at(2, "EXISTS")
            {
                self.pos += 3;
                true
            } else {
                false
            };
            let name = self.ident()?;
            if self.eat_kw("AS") {
                let query = self.parse_query()?;
                return Ok(Statement::CreateTableAs { name, query: Box::new(query) });
            }
            self.expect_sym("(")?;
            let mut columns = Vec::new();
            let mut constraints = Vec::new();
            loop {
                if self.peek_kw("PRIMARY") && self.peek_kw_at(1, "KEY") {
                    self.pos += 2;
                    constraints.push(TableConstraint::PrimaryKey(self.parse_paren_names()?));
                } else if self.peek_kw("UNIQUE") && self.peek_at(1).is_some_and(|t| t.is_sym("(")) {
                    self.pos += 1;
                    constraints.push(TableConstraint::Unique(self.parse_paren_names()?));
                } else if self.peek_kw("CHECK") {
                    self.pos += 1;
                    self.expect_sym("(")?;
                    let e = self.parse_expr()?;
                    self.expect_sym(")")?;
                    constraints.push(TableConstraint::Check(e));
                } else if self.peek_kw("FOREIGN") && self.peek_kw_at(1, "KEY") {
                    self.pos += 2;
                    let columns2 = self.parse_paren_names()?;
                    self.expect_kw("REFERENCES")?;
                    let ref_table = self.ident()?;
                    let ref_columns =
                        if self.peek_sym("(") { self.parse_paren_names()? } else { vec![] };
                    constraints.push(TableConstraint::ForeignKey {
                        columns: columns2,
                        ref_table,
                        ref_columns,
                    });
                } else {
                    columns.push(self.parse_column_def()?);
                }
                if !self.eat_sym(",") {
                    break;
                }
            }
            self.expect_sym(")")?;
            return Ok(Statement::CreateTable(CreateTable {
                name,
                temporary,
                if_not_exists,
                columns,
                constraints,
            }));
        }
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.parse_query()?;
            return Ok(Statement::CreateView(CreateView {
                name,
                or_replace,
                materialized,
                query: Box::new(query),
            }));
        }
        if self.eat_kw("INDEX") {
            let name = self.ident()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            let columns = self.parse_paren_names()?;
            return Ok(Statement::CreateIndex(CreateIndex { name, unique, table, columns }));
        }
        if self.eat_kw("TRIGGER") {
            let name = self.ident()?;
            let timing = if self.eat_kw("BEFORE") {
                TriggerTiming::Before
            } else {
                self.expect_kw("AFTER")?;
                TriggerTiming::After
            };
            let event = self.parse_dml_event()?;
            self.expect_kw("ON")?;
            let table = self.ident()?;
            let for_each_row = if self.peek_kw("FOR") {
                self.pos += 1;
                self.expect_kw("EACH")?;
                self.expect_kw("ROW")?;
                true
            } else {
                false
            };
            let action = Box::new(self.parse_statement()?);
            return Ok(Statement::CreateTrigger(CreateTrigger {
                name,
                timing,
                event,
                table,
                for_each_row,
                action,
            }));
        }
        if self.eat_kw("RULE") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            self.expect_kw("ON")?;
            let event = self.parse_dml_event()?;
            self.expect_kw("TO")?;
            let table = self.ident()?;
            self.expect_kw("DO")?;
            let instead = self.eat_kw("INSTEAD");
            let action =
                if self.eat_kw("NOTHING") { None } else { Some(Box::new(self.parse_statement()?)) };
            return Ok(Statement::CreateRule(CreateRule {
                name,
                or_replace,
                table,
                event,
                instead,
                action,
            }));
        }
        // Generic object DDL.
        let (object, n) = phrases::match_object(self.rest())
            .ok_or_else(|| self.error("expected object kind after CREATE"))?;
        self.pos += n;
        let name = self.ident().unwrap_or_default();
        let arg = self.rest_of_statement();
        Ok(Statement::GenericDdl(GenericDdl { verb: DdlVerb::Create, object, name, arg }))
    }

    fn parse_alter(&mut self) -> PResult<Statement> {
        rule!(self, 0xcd2d54deb3d92f08);
        self.expect_kw("ALTER")?;
        if self.eat_kw("TABLE") {
            let name = self.ident()?;
            let action = if self.eat_kw("ADD") {
                self.eat_kw("COLUMN");
                AlterTableAction::AddColumn(self.parse_column_def()?)
            } else if self.eat_kw("DROP") {
                self.eat_kw("COLUMN");
                AlterTableAction::DropColumn(self.ident()?)
            } else if self.eat_kw("RENAME") {
                if self.eat_kw("TO") {
                    AlterTableAction::RenameTo(self.ident()?)
                } else {
                    self.eat_kw("COLUMN");
                    let old = self.ident()?;
                    self.expect_kw("TO")?;
                    AlterTableAction::RenameColumn { old, new: self.ident()? }
                }
            } else if self.eat_kw("ALTER") {
                self.eat_kw("COLUMN");
                let cname = self.ident()?;
                self.expect_kw("TYPE")?;
                AlterTableAction::AlterColumnType { name: cname, ty: self.parse_data_type()? }
            } else {
                return Err(self.error("expected ALTER TABLE action"));
            };
            return Ok(Statement::AlterTable(AlterTable { name, action }));
        }
        let (object, n) = phrases::match_object(self.rest())
            .ok_or_else(|| self.error("expected object kind after ALTER"))?;
        self.pos += n;
        let name = self.ident().unwrap_or_default();
        let arg = self.rest_of_statement();
        Ok(Statement::GenericDdl(GenericDdl { verb: DdlVerb::Alter, object, name, arg }))
    }

    fn parse_drop(&mut self) -> PResult<Statement> {
        rule!(self, 0xb93614deb2c9c5fa);
        self.expect_kw("DROP")?;
        let (object, n) = phrases::match_object(self.rest())
            .ok_or_else(|| self.error("expected object kind after DROP"))?;
        self.pos += n;
        let if_exists = if self.peek_kw("IF") && self.peek_kw_at(1, "EXISTS") {
            self.pos += 2;
            true
        } else {
            false
        };
        let name = self.ident()?;
        let on_table = if self.eat_kw("ON") { Some(self.ident()?) } else { None };
        Ok(Statement::Drop(DropStmt { object, if_exists, name, on_table }))
    }

    fn parse_dml_event(&mut self) -> PResult<DmlEvent> {
        rule!(self, 0xbc65d4deb2f518c7);
        if self.eat_kw("INSERT") {
            Ok(DmlEvent::Insert)
        } else if self.eat_kw("UPDATE") {
            Ok(DmlEvent::Update)
        } else if self.eat_kw("DELETE") {
            Ok(DmlEvent::Delete)
        } else {
            Err(self.error("expected INSERT, UPDATE, or DELETE"))
        }
    }

    fn parse_column_def(&mut self) -> PResult<ColumnDef> {
        rule!(self, 0xc06dd4deb32bd63c);
        let name = self.ident()?;
        let ty = self.parse_data_type()?;
        let mut constraints = Vec::new();
        loop {
            if self.peek_kw("PRIMARY") && self.peek_kw_at(1, "KEY") {
                self.pos += 2;
                constraints.push(ColumnConstraint::PrimaryKey);
            } else if self.eat_kw("UNIQUE") {
                constraints.push(ColumnConstraint::Unique);
            } else if self.peek_kw("NOT") && self.peek_kw_at(1, "NULL") {
                self.pos += 2;
                constraints.push(ColumnConstraint::NotNull);
            } else if self.eat_kw("DEFAULT") {
                constraints.push(ColumnConstraint::Default(self.parse_expr()?));
            } else if self.eat_kw("CHECK") {
                self.expect_sym("(")?;
                let e = self.parse_expr()?;
                self.expect_sym(")")?;
                constraints.push(ColumnConstraint::Check(e));
            } else if self.eat_kw("REFERENCES") || self.eat_kw("REFERENCE") {
                let table = self.ident().unwrap_or_default();
                let column = if self.eat_sym("(") {
                    let c = self.ident()?;
                    self.expect_sym(")")?;
                    Some(c)
                } else {
                    None
                };
                constraints.push(ColumnConstraint::References { table, column });
            } else {
                break;
            }
        }
        Ok(ColumnDef { name, ty, constraints })
    }

    fn parse_data_type(&mut self) -> PResult<DataType> {
        rule!(self, 0xe2d794deb4ffb15e);
        let name = self.word()?;
        let mut buf = [0; KW_MAX];
        let ty = match upper(name, &mut buf) {
            "INT" | "INTEGER" => DataType::Int,
            "BIGINT" => DataType::BigInt,
            "SMALLINT" => DataType::SmallInt,
            "FLOAT" | "REAL" => DataType::Float,
            "DOUBLE" => {
                self.eat_kw("PRECISION");
                DataType::Double
            }
            "DECIMAL" | "NUMERIC" => {
                let (mut p, mut s) = (10u8, 0u8);
                if self.eat_sym("(") {
                    p = self.int_literal()? as u8;
                    if self.eat_sym(",") {
                        s = self.int_literal()? as u8;
                    }
                    self.expect_sym(")")?;
                }
                DataType::Decimal(p, s)
            }
            "TEXT" => DataType::Text,
            "VARCHAR" => {
                let mut n = 255u32;
                if self.eat_sym("(") {
                    n = self.int_literal()? as u32;
                    self.expect_sym(")")?;
                }
                DataType::VarChar(n)
            }
            "CHAR" => {
                let mut n = 1u32;
                if self.eat_sym("(") {
                    n = self.int_literal()? as u32;
                    self.expect_sym(")")?;
                }
                DataType::Char(n)
            }
            "BOOLEAN" | "BOOL" => DataType::Bool,
            "BLOB" | "BYTEA" => DataType::Blob,
            "DATE" => DataType::Date,
            "TIME" => DataType::Time,
            "TIMESTAMP" => DataType::Timestamp,
            "YEAR" => DataType::Year,
            _ => {
                let name = name.to_ascii_uppercase();
                return Err(self.error(format!("unknown data type `{name}`")));
            }
        };
        // Tolerate MySQL-style attribute noise (`YEAR ZEROFILL ZEROFILL`).
        while self.eat_kw("ZEROFILL") || self.eat_kw("UNSIGNED") || self.eat_kw("SIGNED") {}
        Ok(ty)
    }

    fn int_literal(&mut self) -> PResult<i64> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            _ => Err(self.error("expected integer literal")),
        }
    }

    fn parse_paren_names(&mut self) -> PResult<Vec<String>> {
        rule!(self, 0xd46614deb43b5a7a);
        self.expect_sym("(")?;
        let mut names = Vec::new();
        loop {
            names.push(self.ident()?);
            if !self.eat_sym(",") {
                break;
            }
        }
        self.expect_sym(")")?;
        Ok(names)
    }

    // -- DML -----------------------------------------------------------------

    fn parse_select_statement(&mut self) -> PResult<Statement> {
        rule!(self, 0xd7cc14deb4698d0a);
        let selectv = self.peek_kw("SELECTV");
        if selectv {
            // Rewrite the head token so the query parser sees a plain SELECT.
            self.toks[self.pos] = Tok::Ident("SELECT");
        }
        let mut into: Option<String> = None;
        let query = self.parse_query_with_into(Some(&mut into))?;
        let variant = if selectv {
            SelectVariant::SelectV
        } else if let Some(t) = into {
            SelectVariant::Into(t)
        } else {
            SelectVariant::Plain
        };
        Ok(Statement::Select(SelectStmt { query: Box::new(query), variant }))
    }

    fn parse_insert(&mut self, replace: bool) -> PResult<Statement> {
        rule!(self, 0xdc4214deb4a632cd);
        self.bump(); // INSERT or REPLACE
        let low_priority = self.eat_kw("LOW_PRIORITY");
        let ignore = self.eat_kw("IGNORE");
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let mut columns = Vec::new();
        if self.peek_sym("(") {
            columns = self.parse_paren_names()?;
        }
        let source = if self.eat_kw("VALUES") {
            InsertSource::Values(self.parse_values_rows()?)
        } else if self.peek_kw("SELECT") || self.peek_kw("VALUES") {
            InsertSource::Query(Box::new(self.parse_query()?))
        } else if self.peek_kw("DEFAULT") {
            self.pos += 1;
            self.expect_kw("VALUES")?;
            InsertSource::DefaultValues
        } else if self.at_stmt_end() {
            // Trigger bodies in the wild sometimes say just `INSERT INTO t`.
            InsertSource::DefaultValues
        } else {
            return Err(self.error("expected VALUES, SELECT, or DEFAULT VALUES"));
        };
        Ok(Statement::Insert(Insert { table, columns, source, ignore, replace, low_priority }))
    }

    fn parse_values_rows(&mut self) -> PResult<Vec<Vec<Expr>>> {
        rule!(self, 0x90a394deb0a23299);
        let mut rows = Vec::new();
        loop {
            self.expect_sym("(")?;
            let mut row = Vec::new();
            if !self.peek_sym(")") {
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_sym(",") {
                        break;
                    }
                }
            }
            self.expect_sym(")")?;
            rows.push(row);
            if !self.eat_sym(",") {
                break;
            }
        }
        Ok(rows)
    }

    fn parse_update(&mut self) -> PResult<Statement> {
        rule!(self, 0x95f3d4deb0ea7964);
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_sym("=")?;
            assignments.push((col, self.parse_expr()?));
            if !self.eat_sym(",") {
                break;
            }
        }
        let where_ = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Update(Update { table, assignments, where_ }))
    }

    fn parse_delete(&mut self) -> PResult<Statement> {
        rule!(self, 0x98ec14deb112ca72);
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let where_ = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        Ok(Statement::Delete(Delete { table, where_ }))
    }

    fn parse_with(&mut self) -> PResult<Statement> {
        rule!(self, 0x9a69d4deb1271f27);
        self.expect_kw("WITH")?;
        let mut ctes = Vec::new();
        loop {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            self.expect_sym("(")?;
            let body = if self.peek_kw("INSERT")
                || self.peek_kw("UPDATE")
                || self.peek_kw("DELETE")
                || self.peek_kw("REPLACE")
            {
                CteBody::Dml(Box::new(self.parse_statement()?))
            } else {
                CteBody::Query(Box::new(self.parse_query()?))
            };
            self.expect_sym(")")?;
            ctes.push(Cte { name, body });
            if !self.eat_sym(",") {
                break;
            }
        }
        let body = Box::new(self.parse_statement()?);
        Ok(Statement::With(WithStmt { ctes, body }))
    }

    fn parse_copy(&mut self) -> PResult<Statement> {
        rule!(self, 0x856194deb00927b6);
        self.expect_kw("COPY")?;
        let source = if self.eat_sym("(") {
            let q = self.parse_query()?;
            self.expect_sym(")")?;
            CopySource::Query(Box::new(q))
        } else {
            let name = self.ident()?;
            let columns = if self.peek_sym("(") { self.parse_paren_names()? } else { vec![] };
            CopySource::Table { name, columns }
        };
        let direction = if self.eat_kw("TO") {
            CopyDirection::To
        } else {
            self.expect_kw("FROM")?;
            CopyDirection::From
        };
        let target = match self.bump() {
            Some(t @ (Tok::Ident(_) | Tok::Str(_))) => t.to_string(),
            _ => return Err(self.error("expected COPY target")),
        };
        let mut options = Vec::new();
        while !self.at_stmt_end() {
            options.push(self.ident()?);
        }
        Ok(Statement::Copy(CopyStmt { source, direction, target, options }))
    }

    fn parse_grant(&mut self, revoke: bool) -> PResult<Statement> {
        rule!(self, 0x8b1dd4deb057206f);
        self.bump(); // GRANT or REVOKE
        let privilege = self.join_tokens(Some("ON"));
        self.expect_kw("ON")?;
        self.eat_kw("TABLE");
        let object = self.ident()?;
        if revoke {
            self.expect_kw("FROM")?;
        } else {
            self.expect_kw("TO")?;
        }
        let grantee = self.ident()?;
        let g = GrantStmt { privilege, object, grantee };
        Ok(if revoke { Statement::Revoke(g) } else { Statement::Grant(g) })
    }

    fn parse_set(&mut self) -> PResult<Statement> {
        rule!(self, 0xaa8d54deb2027423);
        self.expect_kw("SET")?;
        let mut scope = None;
        if self.eat_sym("@@") {
            let s = self.ident()?;
            self.expect_sym(".")?;
            scope = Some(format!("@@{}.", s));
        } else if (self.peek_kw("SESSION") || self.peek_kw("GLOBAL") || self.peek_kw("LOCAL"))
            && matches!(self.peek_at(1), Some(Tok::Ident(_)))
        {
            scope = Some(self.word()?.to_ascii_uppercase());
        }
        let name = self.ident()?;
        if !self.eat_sym("=") {
            self.expect_kw("TO")?;
        }
        let value =
            self.rest_of_statement().ok_or_else(|| self.error("expected value after SET"))?;
        Ok(Statement::Set(SetStmt { scope, name, value }))
    }

    // -- queries ---------------------------------------------------------------

    pub fn parse_query(&mut self) -> PResult<Query> {
        self.parse_query_with_into(None)
    }

    fn parse_query_with_into(&mut self, into: Option<&mut Option<String>>) -> PResult<Query> {
        rule!(self, 0xb07fd4deb2534c9f);
        let mut body = self.parse_set_atom(into)?;
        loop {
            let op = if self.peek_kw("UNION") {
                SetOp::Union
            } else if self.peek_kw("EXCEPT") {
                SetOp::Except
            } else if self.peek_kw("INTERSECT") {
                SetOp::Intersect
            } else {
                break;
            };
            self.pos += 1;
            let all = self.eat_kw("ALL");
            let right = self.parse_set_atom(None)?;
            body = SetExpr::SetOp { op, all, left: Box::new(body), right: Box::new(right) };
        }
        let mut order_by = Vec::new();
        if self.peek_kw("ORDER") {
            self.pos += 1;
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") { Some(self.parse_expr()?) } else { None };
        let offset = if self.eat_kw("OFFSET") { Some(self.parse_expr()?) } else { None };
        Ok(Query { body, order_by, limit, offset })
    }

    fn parse_set_atom(&mut self, into: Option<&mut Option<String>>) -> PResult<SetExpr> {
        rule!(self, 0x9f4b54deb1696940);
        if self.eat_kw("VALUES") {
            return Ok(SetExpr::Values(self.parse_values_rows()?));
        }
        Ok(SetExpr::Select(Box::new(self.parse_select_core(into)?)))
    }

    fn parse_select_core(&mut self, into: Option<&mut Option<String>>) -> PResult<Select> {
        rule!(self, 0xa0ff54deb1809db8);
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut projection = Vec::new();
        loop {
            if self.eat_sym("*") {
                projection.push(SelectItem::Star);
            } else if matches!(self.peek(), Some(Tok::Ident(_)))
                && self.peek_at(1).is_some_and(|t| t.is_sym("."))
                && self.peek_at(2).is_some_and(|t| t.is_sym("*"))
            {
                let t = self.ident()?;
                self.pos += 2;
                projection.push(SelectItem::QualifiedStar(t));
            } else {
                let expr = self.parse_expr()?;
                let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
                projection.push(SelectItem::Expr { expr, alias });
            }
            if !self.eat_sym(",") {
                break;
            }
        }
        if self.peek_kw("INTO") {
            match into {
                Some(slot) => {
                    self.pos += 1;
                    *slot = Some(self.ident()?);
                }
                None => return Err(self.error("INTO is not allowed in a subquery")),
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let where_ = if self.eat_kw("WHERE") { Some(self.parse_expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.peek_kw("GROUP") {
            self.pos += 1;
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") { Some(self.parse_expr()?) } else { None };
        Ok(Select { distinct, projection, from, where_, group_by, having })
    }

    fn parse_table_ref(&mut self) -> PResult<TableRef> {
        rule!(self, 0x0de794dec4e112de);
        let mut left = self.parse_table_primary()?;
        loop {
            let kind = if self.peek_kw("JOIN") {
                self.pos += 1;
                JoinKind::Inner
            } else if self.peek_kw("INNER") && self.peek_kw_at(1, "JOIN") {
                self.pos += 2;
                JoinKind::Inner
            } else if self.peek_kw("LEFT") {
                self.pos += 1;
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Left
            } else if self.peek_kw("RIGHT") {
                self.pos += 1;
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinKind::Right
            } else if self.peek_kw("CROSS") {
                self.pos += 1;
                self.expect_kw("JOIN")?;
                JoinKind::Cross
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            let on = if self.eat_kw("ON") { Some(self.parse_expr()?) } else { None };
            left = TableRef::Join { left: Box::new(left), right: Box::new(right), kind, on };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> PResult<TableRef> {
        rule!(self, 0x15f9d4dec54ecaf4);
        if self.eat_sym("(") {
            let query = self.parse_query()?;
            self.expect_sym(")")?;
            self.expect_kw("AS")?;
            let alias = self.ident()?;
            return Ok(TableRef::Subquery { query: Box::new(query), alias });
        }
        let name = self.ident()?;
        let alias = if self.eat_kw("AS") { Some(self.ident()?) } else { None };
        Ok(TableRef::Named { name, alias })
    }

    // -- expressions -------------------------------------------------------------

    pub fn parse_expr(&mut self) -> PResult<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> PResult<Expr> {
        rule!(self, 0xff0954dec416f5a8);
        let mut l = self.parse_and()?;
        while self.eat_kw("OR") {
            let r = self.parse_and()?;
            l = Expr::binary(l, BinOp::Or, r);
        }
        Ok(l)
    }

    fn parse_and(&mut self) -> PResult<Expr> {
        rule!(self, 0x004f94dec428489e);
        let mut l = self.parse_not()?;
        while self.eat_kw("AND") {
            let r = self.parse_not()?;
            l = Expr::binary(l, BinOp::And, r);
        }
        Ok(l)
    }

    fn parse_not(&mut self) -> PResult<Expr> {
        rule!(self, 0x0347d4dec45099ac);
        if self.peek_kw("NOT") && self.peek_kw_at(1, "EXISTS") {
            self.pos += 2;
            self.expect_sym("(")?;
            let q = self.parse_query()?;
            self.expect_sym(")")?;
            return Ok(Expr::Exists { query: Box::new(q), negated: true });
        }
        // `NOT LIKE` / `NOT IN` / `NOT BETWEEN` are postfix forms handled in
        // parse_cmp, so only treat NOT as prefix when not followed by them...
        // which requires an operand first. A prefix NOT here always applies
        // to a full comparison.
        if self.peek_kw("NOT")
            && !self.peek_kw_at(1, "LIKE")
            && !self.peek_kw_at(1, "IN")
            && !self.peek_kw_at(1, "BETWEEN")
        {
            self.pos += 1;
            let inner = self.parse_not()?;
            return Ok(Expr::Unary(UnaryOp::Not, Box::new(inner)));
        }
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> PResult<Expr> {
        rule!(self, 0x082b94dec49320f1);
        let mut l = self.parse_add()?;
        loop {
            if let Some(op) = self.peek_cmp_op() {
                self.pos += 1;
                let r = self.parse_add()?;
                l = Expr::binary(l, op, r);
                continue;
            }
            let negated = self.peek_kw("NOT")
                && (self.peek_kw_at(1, "LIKE")
                    || self.peek_kw_at(1, "IN")
                    || self.peek_kw_at(1, "BETWEEN"));
            if negated {
                self.pos += 1;
            }
            if self.eat_kw("LIKE") {
                let pattern = self.parse_add()?;
                l = Expr::Like { expr: Box::new(l), pattern: Box::new(pattern), negated };
                continue;
            }
            if self.eat_kw("IN") {
                self.expect_sym("(")?;
                let mut list = Vec::new();
                if !self.peek_sym(")") {
                    loop {
                        list.push(self.parse_expr()?);
                        if !self.eat_sym(",") {
                            break;
                        }
                    }
                }
                self.expect_sym(")")?;
                l = Expr::InList { expr: Box::new(l), list, negated };
                continue;
            }
            if self.eat_kw("BETWEEN") {
                let low = self.parse_add()?;
                self.expect_kw("AND")?;
                let high = self.parse_add()?;
                l = Expr::Between {
                    expr: Box::new(l),
                    low: Box::new(low),
                    high: Box::new(high),
                    negated,
                };
                continue;
            }
            if negated {
                return Err(self.error("dangling NOT"));
            }
            if self.peek_kw("IS") {
                self.pos += 1;
                let neg = self.eat_kw("NOT");
                if self.eat_kw("NULL") {
                    l = Expr::IsNull { expr: Box::new(l), negated: neg };
                    continue;
                }
                // `IS TRUE` / `IS FALSE` normalize to comparisons.
                if self.eat_kw("TRUE") {
                    l = Expr::binary(l, if neg { BinOp::Ne } else { BinOp::Eq }, Expr::Bool(true));
                    continue;
                }
                if self.eat_kw("FALSE") {
                    l = Expr::binary(l, if neg { BinOp::Ne } else { BinOp::Eq }, Expr::Bool(false));
                    continue;
                }
                return Err(self.error("expected NULL, TRUE, or FALSE after IS"));
            }
            break;
        }
        Ok(l)
    }

    fn peek_cmp_op(&self) -> Option<BinOp> {
        match self.peek() {
            Some(Tok::Sym("=")) => Some(BinOp::Eq),
            Some(Tok::Sym("<>")) | Some(Tok::Sym("!=")) => Some(BinOp::Ne),
            Some(Tok::Sym("<")) => Some(BinOp::Lt),
            Some(Tok::Sym("<=")) => Some(BinOp::Le),
            Some(Tok::Sym(">")) => Some(BinOp::Gt),
            Some(Tok::Sym(">=")) => Some(BinOp::Ge),
            _ => None,
        }
    }

    fn parse_add(&mut self) -> PResult<Expr> {
        rule!(self, 0x1b11d4dec593fb9c);
        let mut l = self.parse_mul()?;
        loop {
            let op = if self.peek_sym("+") {
                BinOp::Add
            } else if self.peek_sym("-") {
                BinOp::Sub
            } else if self.peek_sym("||") {
                BinOp::Concat
            } else {
                break;
            };
            self.pos += 1;
            let r = self.parse_mul()?;
            l = Expr::binary(l, op, r);
        }
        Ok(l)
    }

    fn parse_mul(&mut self) -> PResult<Expr> {
        rule!(self, 0x1f5154dec5cdbad0);
        let mut l = self.parse_unary()?;
        loop {
            let op = if self.peek_sym("*") {
                BinOp::Mul
            } else if self.peek_sym("/") {
                BinOp::Div
            } else if self.peek_sym("%") {
                BinOp::Mod
            } else {
                break;
            };
            self.pos += 1;
            let r = self.parse_unary()?;
            l = Expr::binary(l, op, r);
        }
        Ok(l)
    }

    fn parse_unary(&mut self) -> PResult<Expr> {
        rule!(self, 0x2391d4dec6079534);
        if self.eat_sym("-") {
            // Fold negation of numeric literals so `-86` round-trips as the
            // literal the generators emit.
            return Ok(match self.parse_unary()? {
                Expr::Integer(v) => Expr::Integer(v.wrapping_neg()),
                Expr::Float(f) => Expr::Float(-f),
                other => Expr::Unary(UnaryOp::Neg, Box::new(other)),
            });
        }
        if self.eat_sym("+") {
            return Ok(Expr::Unary(UnaryOp::Plus, Box::new(self.parse_unary()?)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> PResult<Expr> {
        rule!(self, 0xd53194dec1de2a81);
        let id = match self.peek() {
            Some(&Tok::Int(v)) => {
                self.pos += 1;
                return Ok(Expr::Integer(v));
            }
            Some(&Tok::Float(v)) => {
                self.pos += 1;
                return Ok(Expr::Float(v));
            }
            Some(Tok::Str(s)) => {
                let s = s.to_string();
                self.pos += 1;
                return Ok(Expr::Str(s));
            }
            Some(Tok::Sym("(")) => {
                self.pos += 1;
                return if self.peek_kw("SELECT") || self.peek_kw("VALUES") {
                    let q = self.parse_query()?;
                    self.expect_sym(")")?;
                    Ok(Expr::Subquery(Box::new(q)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_sym(")")?;
                    Ok(e)
                };
            }
            Some(&Tok::Ident(id)) => id,
            _ => return Err(self.error("expected expression")),
        };
        let mut buf = [0; KW_MAX];
        match upper(id, &mut buf) {
            "NULL" => {
                self.pos += 1;
                return Ok(Expr::Null);
            }
            "TRUE" => {
                self.pos += 1;
                return Ok(Expr::Bool(true));
            }
            "FALSE" => {
                self.pos += 1;
                return Ok(Expr::Bool(false));
            }
            "CASE" => return self.parse_case(),
            "CAST" => {
                self.pos += 1;
                self.expect_sym("(")?;
                let e = self.parse_expr()?;
                self.expect_kw("AS")?;
                let ty = self.parse_data_type()?;
                self.expect_sym(")")?;
                return Ok(Expr::Cast { expr: Box::new(e), ty });
            }
            "EXISTS" => {
                self.pos += 1;
                self.expect_sym("(")?;
                let q = self.parse_query()?;
                self.expect_sym(")")?;
                return Ok(Expr::Exists { query: Box::new(q), negated: false });
            }
            _ => {}
        }
        self.pos += 1;
        if self.peek_sym("(") {
            return self.parse_func_call(id.to_string());
        }
        if self.peek_sym(".") && matches!(self.peek_at(1), Some(Tok::Ident(_))) {
            self.pos += 1;
            let col = self.ident()?;
            return Ok(Expr::Column(ColumnRef::qualified(id, col)));
        }
        Ok(Expr::Column(ColumnRef::bare(id)))
    }

    fn parse_case(&mut self) -> PResult<Expr> {
        rule!(self, 0xca2614dec148062d);
        self.expect_kw("CASE")?;
        let operand = if self.peek_kw("WHEN") { None } else { Some(Box::new(self.parse_expr()?)) };
        let mut whens = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let t = self.parse_expr()?;
            whens.push((w, t));
        }
        if whens.is_empty() {
            return Err(self.error("CASE requires at least one WHEN"));
        }
        let else_ = if self.eat_kw("ELSE") { Some(Box::new(self.parse_expr()?)) } else { None };
        self.expect_kw("END")?;
        Ok(Expr::Case { operand, whens, else_ })
    }

    fn parse_func_call(&mut self, name: String) -> PResult<Expr> {
        rule!(self, 0xce9bd4dec184a524);
        self.expect_sym("(")?;
        let mut call = FuncCall { name, args: vec![], distinct: false, star: false };
        if self.eat_sym("*") {
            call.star = true;
        } else if !self.peek_sym(")") {
            call.distinct = self.eat_kw("DISTINCT");
            loop {
                call.args.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        if self.eat_kw("OVER") {
            let spec = self.parse_window_spec()?;
            return Ok(Expr::Window { func: Box::new(call), spec: Box::new(spec) });
        }
        Ok(Expr::Func(call))
    }

    fn parse_window_spec(&mut self) -> PResult<WindowSpec> {
        rule!(self, 0xd23754dec1b5a313);
        self.expect_sym("(")?;
        let mut spec = WindowSpec::default();
        if self.peek_kw("PARTITION") {
            self.pos += 1;
            self.expect_kw("BY")?;
            loop {
                spec.partition_by.push(self.parse_expr()?);
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.peek_kw("ORDER") {
            self.pos += 1;
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                spec.order_by.push(OrderItem { expr, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }
        if self.peek_kw("ROWS") || self.peek_kw("RANGE") {
            let unit = if self.eat_kw("ROWS") {
                FrameUnit::Rows
            } else {
                self.expect_kw("RANGE")?;
                FrameUnit::Range
            };
            if self.eat_kw("BETWEEN") {
                let start = self.parse_frame_bound()?;
                self.expect_kw("AND")?;
                let end = self.parse_frame_bound()?;
                spec.frame = Some(FrameClause { unit, start, end: Some(end) });
            } else {
                let start = self.parse_frame_bound()?;
                spec.frame = Some(FrameClause { unit, start, end: None });
            }
        }
        self.expect_sym(")")?;
        Ok(spec)
    }

    fn parse_frame_bound(&mut self) -> PResult<FrameBound> {
        rule!(self, 0xf873d4dec3bd7717);
        if self.eat_kw("UNBOUNDED") {
            if self.eat_kw("PRECEDING") {
                return Ok(FrameBound::UnboundedPreceding);
            }
            self.expect_kw("FOLLOWING")?;
            return Ok(FrameBound::UnboundedFollowing);
        }
        if self.peek_kw("CURRENT") {
            self.pos += 1;
            self.expect_kw("ROW")?;
            return Ok(FrameBound::CurrentRow);
        }
        let e = self.parse_add()?;
        if self.eat_kw("PRECEDING") {
            Ok(FrameBound::Preceding(Box::new(e)))
        } else {
            self.expect_kw("FOLLOWING")?;
            Ok(FrameBound::Following(Box::new(e)))
        }
    }
}
