//! Statement skeletons for the AST library (paper § III-B, instantiation).
//!
//! "When finding a new seed, LEGO parses each of its statements to extract
//! AST structures and saves them into the global library." A *skeleton* is a
//! statement with identifiers replaced by canonical placeholders and literals
//! left in place as typed holes; skeletons with the same structure deduplicate
//! via [`structure_key`]. The instantiator later *rebinds* a skeleton against
//! the current schema and refills the literal holes.

use crate::ast::Statement;
use crate::expr::Expr;
use crate::visit::{walk_statement, walk_statement_mut, MutVisitor, Visitor};
use std::fmt::{self, Write};

/// Replace identifiers with canonical `$tN` / `$cN` placeholders, preserving
/// repetition structure (the same original name maps to the same placeholder,
/// numbered in walk order).
pub fn normalize(stmt: &Statement) -> Statement {
    let mut s = stmt.clone();
    walk_statement_mut(&mut s, &mut Normalizer::default());
    s
}

/// The names seen so far, one list per placeholder kind; a name's
/// placeholder number is its index.
#[derive(Default)]
struct Normalizer {
    tables: Vec<String>,
    columns: Vec<String>,
}

impl Normalizer {
    fn canon(seen: &mut Vec<String>, prefix: &str, name: &mut String) {
        let n = seen.iter().position(|s| s == name).unwrap_or_else(|| {
            seen.push(std::mem::take(name));
            seen.len() - 1
        });
        name.clear();
        write!(name, "{prefix}{n}").expect("writing to a String cannot fail");
    }
}

impl MutVisitor for Normalizer {
    fn table_name(&mut self, name: &mut String) {
        Self::canon(&mut self.tables, "$t", name);
    }
    fn column_name(&mut self, name: &mut String) {
        Self::canon(&mut self.columns, "$c", name);
    }
    fn literal(&mut self, expr: &mut Expr) {
        // Normalize literal *values* but keep their type, so two inserts
        // differing only in data share a skeleton.
        match expr {
            Expr::Integer(v) => *v = 0,
            Expr::Float(v) => *v = 0.0,
            Expr::Str(s) => {
                s.clear();
                s.push_str("$s");
            }
            Expr::Bool(b) => *b = true,
            _ => {}
        }
    }
}

/// A stable structural fingerprint: equal iff the normalized statements
/// render identically. Used to keep the AST library free of duplicates
/// ("instantiates sequences into test cases with non-repetitive structures").
/// The rendering streams into the hash; no text is kept.
pub fn structure_key(stmt: &Statement) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    write!(h, "{}", normalize(stmt)).expect("hashing cannot fail");
    h.0
}

/// FNV-1a over the bytes written to it, with the multiplier the library
/// keys in checkpoints were made with (it is not the standard FNV prime).
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
        Ok(())
    }
}

/// A [`MutVisitor`] that rebinds identifiers/literals through caller-supplied
/// closures — the instantiator's workhorse.
pub struct Rebinder<T, C, L>
where
    T: FnMut(&mut String),
    C: FnMut(&mut String),
    L: FnMut(&mut Expr),
{
    pub on_table: T,
    pub on_column: C,
    pub on_literal: L,
}

impl<T, C, L> MutVisitor for Rebinder<T, C, L>
where
    T: FnMut(&mut String),
    C: FnMut(&mut String),
    L: FnMut(&mut Expr),
{
    fn table_name(&mut self, name: &mut String) {
        (self.on_table)(name)
    }
    fn column_name(&mut self, name: &mut String) {
        (self.on_column)(name)
    }
    fn literal(&mut self, expr: &mut Expr) {
        (self.on_literal)(expr)
    }
}

/// The read-only twin of [`Rebinder`]: a [`Visitor`] that shows every
/// identifier and literal to caller-supplied closures.
struct Inspector<T, C, L>
where
    T: FnMut(&str),
    C: FnMut(&str),
    L: FnMut(&Expr),
{
    on_table: T,
    on_column: C,
    on_literal: L,
}

impl<T, C, L> Visitor for Inspector<T, C, L>
where
    T: FnMut(&str),
    C: FnMut(&str),
    L: FnMut(&Expr),
{
    fn table_name(&mut self, name: &str) {
        (self.on_table)(name)
    }
    fn column_name(&mut self, name: &str) {
        (self.on_column)(name)
    }
    fn literal(&mut self, expr: &Expr) {
        (self.on_literal)(expr)
    }
}

/// Show a statement's identifiers and literals to closures, in the order
/// [`rebind`] visits them.
pub fn inspect<T, C, L>(stmt: &Statement, on_table: T, on_column: C, on_literal: L)
where
    T: FnMut(&str),
    C: FnMut(&str),
    L: FnMut(&Expr),
{
    walk_statement(stmt, &mut Inspector { on_table, on_column, on_literal });
}

/// Apply a rebinder to a statement in place.
pub fn rebind<T, C, L>(stmt: &mut Statement, on_table: T, on_column: C, on_literal: L)
where
    T: FnMut(&mut String),
    C: FnMut(&mut String),
    L: FnMut(&mut Expr),
{
    walk_statement_mut(stmt, &mut Rebinder { on_table, on_column, on_literal });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::expr::Expr;

    fn insert(table: &str, v: i64) -> Statement {
        Statement::Insert(Insert {
            table: table.into(),
            columns: vec![],
            source: InsertSource::Values(vec![vec![Expr::int(v)]]),
            ignore: false,
            replace: false,
            low_priority: false,
        })
    }

    #[test]
    fn normalize_canonicalizes_tables() {
        let s = normalize(&insert("orders", 42));
        assert_eq!(s.to_string(), "INSERT INTO $t0 VALUES (0)");
    }

    #[test]
    fn same_structure_same_key() {
        assert_eq!(structure_key(&insert("a", 1)), structure_key(&insert("b", 999)));
    }

    #[test]
    fn different_structure_different_key() {
        let one = insert("a", 1);
        let two = Statement::Insert(Insert {
            table: "a".into(),
            columns: vec!["x".into()],
            source: InsertSource::Values(vec![vec![Expr::int(1)]]),
            ignore: false,
            replace: false,
            low_priority: false,
        });
        assert_ne!(structure_key(&one), structure_key(&two));
    }

    #[test]
    fn repeated_names_share_placeholder() {
        // SELECT with a self-join on the same table must map both mentions to
        // the same placeholder.
        let q = Query::select(Select {
            distinct: false,
            projection: vec![SelectItem::Star],
            from: vec![TableRef::named("t9"), TableRef::named("t9")],
            where_: None,
            group_by: vec![],
            having: None,
        });
        let s = Statement::Select(SelectStmt { query: Box::new(q), variant: SelectVariant::Plain });
        assert_eq!(normalize(&s).to_string(), "SELECT * FROM $t0, $t0");
    }

    #[test]
    fn rebind_replaces_everything() {
        let mut s = insert("old", 7);
        rebind(&mut s, |t| *t = "new".into(), |_c| {}, |l| *l = Expr::int(99));
        assert_eq!(s.to_string(), "INSERT INTO new VALUES (99)");
    }
}
