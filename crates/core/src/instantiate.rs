//! Instantiation: turning SQL Type Sequences into executable test cases
//! (paper § III-B, the three-step AST synthesis / concatenation / validation
//! pipeline).

use crate::gen::{
    gen_literal, gen_literal_not_null, gen_statement, ColumnModel, SchemaModel, TableModel,
};
use lego_sqlast::ast::{ColumnConstraint, CreateView, Insert, InsertSource, Statement};
use lego_sqlast::expr::{ColumnRef, DataType, Expr};
use lego_sqlast::skeleton::{structure_key, Rebinder};
use lego_sqlast::visit::{
    walk_query, walk_query_mut, walk_statement, walk_statement_mut, MutVisitor, Visitor,
};
use lego_sqlast::{Dialect, StmtKind, TestCase};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The global AST-structure library: type-matched statement skeletons
/// harvested from every retained seed ("LEGO parses each of its statements to
/// extract AST structures and saves them into the global library").
#[derive(Clone, Debug, Default)]
pub struct AstLibrary {
    /// Buckets in kind order, which is kind-code order.
    by_kind: BTreeMap<StmtKind, Vec<Arc<Statement>>>,
    keys: HashSet<u64>,
    /// The statements whose key is already in `keys`, by identity: a mutant
    /// shares most statements with its seed, so most statements of a
    /// retained case were keyed with an earlier one. Holding each `Arc`
    /// keeps its address from being reused. Never iterated, not
    /// checkpointed: a restored library only keys some statements again.
    keyed: HashSet<ById>,
    per_kind_cap: usize,
}

/// A statement compared and hashed by address.
#[derive(Clone, Debug)]
struct ById(Arc<Statement>);

impl PartialEq for ById {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for ById {}

impl Hash for ById {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.0).hash(state)
    }
}

impl AstLibrary {
    pub fn new() -> Self {
        Self { per_kind_cap: 32, ..Self::default() }
    }

    /// Harvest the structures of a retained test case. Structural duplicates
    /// (same skeleton) are ignored so the library stays non-repetitive.
    pub fn add_case(&mut self, case: &TestCase) {
        for stmt in &case.statements {
            if !self.keyed.insert(ById(Arc::clone(stmt))) {
                continue;
            }
            let key = structure_key(stmt);
            if !self.keys.insert(key) {
                continue;
            }
            let bucket = self.by_kind.entry(stmt.kind()).or_default();
            if bucket.len() < self.per_kind_cap {
                bucket.push(Arc::clone(stmt));
            }
        }
    }

    /// Rebuild a library from checkpointed buckets. The per-bucket statement
    /// order matters ([`AstLibrary::pick`] indexes into it with the RNG);
    /// `dedup_keys` must be the full structural-dedup set, which can be
    /// larger than the stored statements (keys of statements dropped by the
    /// per-kind cap are still remembered).
    pub fn from_parts(buckets: Vec<(StmtKind, Vec<Statement>)>, dedup_keys: Vec<u64>) -> Self {
        Self {
            by_kind: buckets
                .into_iter()
                .map(|(kind, stmts)| (kind, stmts.into_iter().map(Arc::new).collect()))
                .collect(),
            keys: dedup_keys.into_iter().collect(),
            ..Self::new()
        }
    }

    /// Buckets sorted by kind code, for deterministic serialization.
    pub fn buckets_sorted(&self) -> Vec<(StmtKind, &[Arc<Statement>])> {
        self.by_kind.iter().map(|(k, stmts)| (*k, stmts.as_slice())).collect()
    }

    /// The structural-dedup key set, sorted (checkpoint serialization).
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Pick a random type-matched structure, shared with the library.
    pub fn pick(&self, kind: StmtKind, rng: &mut SmallRng) -> Option<Arc<Statement>> {
        self.by_kind.get(&kind).and_then(|v| {
            if v.is_empty() {
                None
            } else {
                Some(Arc::clone(&v[rng.gen_range(0..v.len())]))
            }
        })
    }

    pub fn kinds(&self) -> usize {
        self.by_kind.len()
    }

    pub fn structures(&self) -> usize {
        self.by_kind.values().map(Vec::len).sum()
    }
}

/// Semantic validation and data refill (paper: "the dependencies between
/// different data are analyzed, and the AST will be filled with concrete
/// values that satisfy all dependencies").
///
/// Walks the case front to back maintaining a [`SchemaModel`]:
/// * creation targets colliding with existing relations get fresh names,
/// * references to unknown tables are rebound to existing ones,
/// * column references are rebound to columns of the referenced tables,
/// * INSERT row widths are fixed up against the target table,
/// * literals are occasionally re-randomized (data refill).
///
/// Copy on write: a statement the case shares with others (its seed, the
/// library) is copied only when a repair step writes to it, which
/// [`writes`] decides without writing. A statement the case owns alone is
/// repaired in place.
pub fn fix_case(case: &mut TestCase, rng: &mut SmallRng) {
    let mut schema = SchemaModel::new();
    let mut mentions = Vec::new();
    for stmt in &mut case.statements {
        if let Some(owned) = Arc::get_mut(stmt) {
            fix_statement(owned, &schema, &mut mentions, rng);
        } else if writes(stmt, &schema, &mut mentions, rng) {
            fix_statement(Arc::make_mut(stmt), &schema, &mut mentions, rng);
        }
        schema.observe(stmt);
    }
}

/// A walk of a visitor over every name and literal of what steps 2–4 of
/// [`fix_statement`] repair: a whole statement, or the query of a CREATE
/// VIEW or CREATE TABLE AS.
type Walk<'a> = dyn FnMut(&mut dyn MutVisitor) + 'a;

/// The read-only walk over the same positions as a [`Walk`].
type ReadWalk<'a> = dyn FnMut(&mut dyn Visitor) + 'a;

/// `mentions` is scratch space for [`rebind_references`], kept across the
/// statements of a case.
fn fix_statement(
    stmt: &mut Statement,
    schema: &SchemaModel,
    mentions: &mut Vec<usize>,
    rng: &mut SmallRng,
) {
    // 1. Creation targets must not collide.
    match stmt {
        Statement::CreateTable(c) => {
            if schema.has_table(&c.name) {
                c.name = schema.fresh_table_name(rng);
            }
            // Self/FK references to unknown tables point back at an existing
            // table (or the table itself).
            let own = c.name.clone();
            for col in &mut c.columns {
                for con in &mut col.constraints {
                    if let ColumnConstraint::References { table, .. } = con {
                        if !schema.has_table(table) {
                            *table = schema
                                .random_table(rng)
                                .map(|t| t.name.clone())
                                .unwrap_or_else(|| own.clone());
                        }
                    }
                }
            }
            return;
        }
        // A view, like CREATE TABLE AS, has only its query repaired, as a
        // SELECT would be: its own name is a definition, not a reference to
        // rebind.
        Statement::CreateTableAs { name, query }
        | Statement::CreateView(CreateView { name, query, .. }) => {
            if schema.has_table(name) {
                *name = schema.fresh_table_name(rng);
            }
            rebind_references(&mut |v| walk_query_mut(query, v), schema, mentions, rng);
            refill_literals(&mut |v| walk_query_mut(query, v), rng);
            return;
        }
        _ => {}
    }

    // 2–3b. Table, column and self-join references.
    rebind_references(&mut |v| walk_statement_mut(stmt, v), schema, mentions, rng);

    // 4. Data refill.
    refill_literals(&mut |v| walk_statement_mut(stmt, v), rng);

    // 5. INSERT shape fix-up: row width must match the target table, and
    //    NOT NULL columns without a default must receive non-NULL values.
    if let Statement::Insert(Insert {
        table, columns, source: InsertSource::Values(rows), ..
    }) = stmt
    {
        if let Some(tm) = schema.table(table) {
            if !columns.is_empty() {
                columns.retain(|c| tm.column(c).is_some());
                // An explicit column list must still cover every required
                // column, or the implicit NULLs violate NOT NULL.
                if !columns.is_empty() {
                    for req in &tm.columns {
                        if lacks(columns, req) {
                            columns.push(req.name.clone());
                        }
                    }
                }
            }
            fix_rows(tm, columns, rows, rng);
        }
    }
}

/// Would [`fix_statement`] write to `stmt`? Decided by reading it, with the
/// same decision per name and literal as the repair makes: when no step
/// writes, `rng` is advanced past the draws the repair would have made (the
/// data refill's draw per literal, none of which fired); otherwise `rng` is
/// left as it was, for the repair to draw from.
///
/// The decisions take two walks, one over the table names and literals and
/// one over the columns, and the INSERT fix-up reads the rows.
fn writes(
    stmt: &Statement,
    schema: &SchemaModel,
    mentions: &mut Vec<usize>,
    rng: &mut SmallRng,
) -> bool {
    let mut probe = rng.clone();
    let writes = match stmt {
        Statement::CreateTable(c) => {
            schema.has_table(&c.name)
                || c.columns.iter().flat_map(|col| &col.constraints).any(|con| {
                    matches!(con, ColumnConstraint::References { table, .. }
                        if !schema.has_table(table))
                })
        }
        Statement::CreateTableAs { name, query }
        | Statement::CreateView(CreateView { name, query, .. }) => {
            schema.has_table(name)
                || references_write(&mut |v| walk_query(query, v), schema, mentions, &mut probe)
        }
        _ => {
            references_write(&mut |v| walk_statement(stmt, v), schema, mentions, &mut probe)
                || insert_writes(stmt, schema)
        }
    };
    if !writes {
        *rng = probe;
    }
    writes
}

/// Steps 2–4 of [`fix_statement`], read only: does a table, column or
/// self-join reference need rebinding, or does the data refill fire? Draws
/// the refill's decisions from `rng`.
fn references_write(
    walk: &mut ReadWalk,
    schema: &SchemaModel,
    mentions: &mut Vec<usize>,
    rng: &mut SmallRng,
) -> bool {
    mentions.clear();
    let mut tables = TablesAndLiterals { schema, mentions, rng, writes: false };
    walk(&mut tables);
    if tables.writes {
        return true;
    }
    let pool = column_pool(schema, mentions);
    let self_joined = self_joined(schema, mentions);
    if pool == 0 && self_joined.is_none() {
        return false;
    }
    let mut columns = ColumnsAndQualifiers { schema, mentions, pool, self_joined, writes: false };
    walk(&mut columns);
    columns.writes
}

/// The first read-only walk of [`references_write`]: step 2 over the table
/// names, noting their mentions as the repair would, and step 4 over the
/// literals.
struct TablesAndLiterals<'a> {
    schema: &'a SchemaModel,
    mentions: &'a mut Vec<usize>,
    rng: &'a mut SmallRng,
    writes: bool,
}

impl Visitor for TablesAndLiterals<'_> {
    fn table_name(&mut self, t: &str) {
        if rebinds_table(self.schema, t) {
            self.writes = true;
        } else {
            self.mentions.extend(mention(self.schema, t));
        }
    }
    fn literal(&mut self, l: &Expr) {
        if !self.writes {
            self.writes = refill_type(l, self.rng).is_some();
        }
    }
}

/// The second read-only walk of [`references_write`]: steps 3 and 3b over
/// the column references.
struct ColumnsAndQualifiers<'a> {
    schema: &'a SchemaModel,
    mentions: &'a [usize],
    pool: usize,
    self_joined: Option<&'a TableModel>,
    writes: bool,
}

impl Visitor for ColumnsAndQualifiers<'_> {
    fn column_name(&mut self, c: &str) {
        self.writes |= self.pool > 0 && rebinds_column(self.schema, self.mentions, c);
    }
    fn column_ref(&mut self, c: &ColumnRef) {
        self.writes |= self.self_joined.is_some_and(|tm| qualifies(tm, c));
        self.column_name(&c.column);
    }
}

/// Step 5 of [`fix_statement`], read only: does an INSERT's column list or
/// one of its rows need fixing?
fn insert_writes(stmt: &Statement, schema: &SchemaModel) -> bool {
    let Statement::Insert(Insert { table, columns, source: InsertSource::Values(rows), .. }) = stmt
    else {
        return false;
    };
    let Some(tm) = schema.table(table) else {
        return false;
    };
    if !columns.is_empty()
        && (columns.iter().any(|c| tm.column(c).is_none())
            || tm.columns.iter().any(|req| lacks(columns, req)))
    {
        return true;
    }
    let width = row_width(tm, columns);
    rows.iter().enumerate().any(|(r, row)| {
        row.len() != width
            || row.iter().enumerate().any(|(i, value)| {
                let slot = slot_at(tm, columns, i);
                slot.rejects(value) || slot.unique && stored_before(&rows[..r], i, value, slot.ty)
            })
    })
}

/// Step 2's decision for a table name: is it unknown, with a table in the
/// schema to rebind it to?
fn rebinds_table(schema: &SchemaModel, t: &str) -> bool {
    !schema.has_table(t) && !schema.tables.is_empty()
}

/// The schema table a table name refers to (its index in `schema.tables`).
fn mention(schema: &SchemaModel, t: &str) -> Option<usize> {
    schema.tables.iter().position(|tm| tm.name.eq_ignore_ascii_case(t))
}

/// The number of columns step 3 draws from: those of every mention.
fn column_pool(schema: &SchemaModel, mentions: &[usize]) -> usize {
    mentions.iter().map(|&i| schema.tables[i].columns.len()).sum()
}

/// Step 3's decision for a column name (when the pool is not empty): is it
/// in none of the mentioned tables? Parameters (`$n`) stay.
fn rebinds_column(schema: &SchemaModel, mentions: &[usize], c: &str) -> bool {
    !c.starts_with('$') && mentions.iter().all(|&i| schema.tables[i].column(c).is_none())
}

/// Step 3b's table: of the tables mentioned more than once, the one whose
/// name sorts first in lower case.
fn self_joined<'s>(schema: &'s SchemaModel, mentions: &[usize]) -> Option<&'s TableModel> {
    mentions
        .iter()
        .enumerate()
        .filter(|&(n, i)| mentions[..n].contains(i))
        .map(|(_, &i)| &schema.tables[i])
        .min_by(|a, b| cmp_lowercase(&a.name, &b.name))
}

/// Step 3b's decision for a column reference: is it a bare reference to a
/// column of the self-joined table `tm`?
fn qualifies(tm: &TableModel, c: &ColumnRef) -> bool {
    c.table.is_none() && tm.column(&c.column).is_some()
}

/// Step 4's decision for a literal: draws whether to refill it, and gives
/// the type of its new value when it is refilled (never for NULL).
fn refill_type(l: &Expr, rng: &mut SmallRng) -> Option<DataType> {
    if !rng.gen_bool(0.3) {
        return None;
    }
    match l {
        Expr::Integer(_) | Expr::Float(_) => Some(DataType::Int),
        Expr::Str(_) => Some(DataType::Text),
        Expr::Bool(_) => Some(DataType::Bool),
        _ => None,
    }
}

/// Steps 2–3b of [`fix_statement`], in one walk over the table names plus
/// one over the column names. The table walk notes in `mentions` the schema
/// table each name refers to (its index in `schema.tables`); their columns
/// are the pool the column walk draws from, and a table noted twice is a
/// self-join.
fn rebind_references(
    walk: &mut Walk,
    schema: &SchemaModel,
    mentions: &mut Vec<usize>,
    rng: &mut SmallRng,
) {
    // 2. Rebind unknown table references, and note the table each mention
    //    refers to (looked up by its name after any rebind).
    mentions.clear();
    walk(&mut Rebinder {
        on_table: |t: &mut String| {
            if rebinds_table(schema, t) {
                if let Some(existing) = schema.random_table(rng) {
                    *t = existing.name.clone();
                }
            }
            mentions.extend(mention(schema, t));
        },
        on_column: |_: &mut String| {},
        on_literal: |_: &mut Expr| {},
    });

    // 3. Rebind column references to columns of the tables now referenced:
    //    a draw from the columns of every mention, in mention order.
    let pool = column_pool(schema, mentions);
    if pool > 0 {
        walk(&mut Rebinder {
            on_table: |_: &mut String| {},
            on_column: |c: &mut String| {
                if rebinds_column(schema, mentions, c) {
                    let mut k = rng.gen_range(0..pool);
                    for t in mentions.iter().map(|&i| &schema.tables[i]) {
                        if let Some(col) = t.columns.get(k) {
                            *c = col.name.clone();
                            break;
                        }
                        k -= t.columns.len();
                    }
                }
            },
            on_literal: |_: &mut Expr| {},
        });
    }

    // 3b. Self-joins without aliases make every bare column reference
    //     ambiguous; qualify them with the table name (qualified lookup
    //     resolves to the first join side).
    if let Some(tm) = self_joined(schema, mentions) {
        walk(&mut Qualify(tm));
    }
}

/// Qualifies bare references to the columns of a table with its name.
struct Qualify<'a>(&'a TableModel);

impl MutVisitor for Qualify<'_> {
    fn column_ref(&mut self, c: &mut ColumnRef) {
        if qualifies(self.0, c) {
            c.table = Some(self.0.name.clone());
        }
    }
}

/// `a.to_ascii_lowercase().cmp(&b.to_ascii_lowercase())`, without the copies.
fn cmp_lowercase(a: &str, b: &str) -> Ordering {
    a.bytes().map(|c| c.to_ascii_lowercase()).cmp(b.bytes().map(|c| c.to_ascii_lowercase()))
}

/// Step 4 of [`fix_statement`], the data refill: re-randomize a fraction of
/// the literals.
fn refill_literals(walk: &mut Walk, rng: &mut SmallRng) {
    walk(&mut Rebinder {
        on_table: |_: &mut String| {},
        on_column: |_: &mut String| {},
        on_literal: |l: &mut Expr| {
            if let Some(ty) = refill_type(l, rng) {
                *l = gen_literal(ty, rng);
            }
        },
    });
}

/// Step 5's decision for a column of the target table: is it required, and
/// missing from an INSERT's explicit column list?
fn lacks(columns: &[String], req: &ColumnModel) -> bool {
    req.required && !columns.iter().any(|c| req.is(c))
}

/// Per-position metadata of an INSERT's effective column list (explicit or
/// the full table): type, NOT NULL (reject explicit NULLs), UNIQUE (reject
/// duplicate literals across the VALUES rows).
struct Slot {
    ty: DataType,
    not_null: bool,
    unique: bool,
}

impl Slot {
    /// Does the column reject `value` outright (a NULL into NOT NULL)?
    fn rejects(&self, value: &Expr) -> bool {
        self.not_null && matches!(value, Expr::Null)
    }
}

/// The number of values an INSERT into `tm` with `columns` gives each row.
fn row_width(tm: &TableModel, columns: &[String]) -> usize {
    if columns.is_empty() {
        tm.columns.len()
    } else {
        columns.len()
    }
}

/// The slot of the `i`th value of a row (see [`row_width`]).
fn slot_at(tm: &TableModel, columns: &[String], i: usize) -> Slot {
    let (name, ty) = match columns.get(i) {
        Some(c) => (c.as_str(), tm.column(c).map_or(DataType::Int, |col| col.ty)),
        None => (tm.columns[i].name.as_str(), tm.columns[i].ty),
    };
    Slot { ty, not_null: tm.is_not_null(name), unique: tm.is_unique(name) }
}

/// Did one of the `earlier` rows store `value` at position `i`?
fn stored_before(earlier: &[Vec<Expr>], i: usize, value: &Expr, ty: DataType) -> bool {
    earlier.iter().any(|prev| i < prev.len() && same_stored(&prev[i], value, ty))
}

/// Fit each VALUES row to the `columns` of an INSERT into `tm` (the whole
/// table when the list is empty): cut or pad it to their number, give NOT
/// NULL columns non-NULL values, and re-roll a UNIQUE column's value while
/// an earlier row stored the same one. A row whose value still repeats is
/// dropped (never the first: no row precedes it).
///
/// The rows are fixed in place. A value counts as stored once the row's
/// checks passed its column, so a row being dropped is cut to the values
/// it stored, and is removed at the end.
fn fix_rows(tm: &TableModel, columns: &[String], rows: &mut Vec<Vec<Expr>>, rng: &mut SmallRng) {
    let width = row_width(tm, columns);
    let slot_at = |i: usize| slot_at(tm, columns, i);
    for r in 0..rows.len() {
        let (earlier, rest) = rows.split_at_mut(r);
        let row = &mut rest[0];
        row.truncate(width);
        while row.len() < width {
            let slot = slot_at(row.len());
            row.push(if slot.not_null {
                gen_literal_not_null(slot.ty, rng)
            } else {
                gen_literal(slot.ty, rng)
            });
        }
        let stored_before =
            |i: usize, value: &Expr, ty: DataType| stored_before(earlier, i, value, ty);
        let mut stored = width;
        for (i, value) in row.iter_mut().enumerate() {
            let slot = slot_at(i);
            if slot.rejects(value) {
                *value = gen_literal_not_null(slot.ty, rng);
            }
            if slot.unique {
                // Re-roll repeats of an earlier row's stored value; bounded,
                // since narrow types may not have enough distinct values —
                // then the whole row is dropped.
                for _ in 0..4 {
                    if !stored_before(i, value, slot.ty) {
                        break;
                    }
                    *value = fresh_unique(slot.ty, rng);
                }
                if stored_before(i, value, slot.ty) {
                    stored = i;
                    break;
                }
            }
        }
        row.truncate(stored);
    }
    rows.retain(|row| row.len() == width);
}

/// Do `a` and `b` store the same value in a column of type `ty`? YEAR
/// clamps into [1901, 2155] (0 stays 0), so distinct out-of-range literals
/// still collide on a UNIQUE YEAR column.
fn same_stored(a: &Expr, b: &Expr, ty: DataType) -> bool {
    match (stored_year(a, ty), stored_year(b, ty)) {
        (Some(x), Some(y)) => x == y,
        (None, None) => a == b,
        _ => false,
    }
}

/// The year a numeric literal stores in a YEAR column; `None` for any other
/// column or value.
fn stored_year(value: &Expr, ty: DataType) -> Option<i64> {
    if !matches!(ty, DataType::Year) {
        return None;
    }
    let v = match value {
        Expr::Integer(v) => *v,
        Expr::Float(v) => *v as i64,
        _ => return None,
    };
    Some(if v == 0 { 0 } else { v.clamp(1901, 2155) })
}

fn fresh_unique(ty: DataType, rng: &mut SmallRng) -> Expr {
    match ty {
        DataType::Year => Expr::Integer(rng.gen_range(1901i64..2156)),
        DataType::Bool => Expr::Bool(rng.gen_bool(0.5)),
        _ => gen_literal_not_null(ty, rng),
    }
}

/// Instantiate a SQL Type Sequence into an executable test case: pick a
/// type-matched structure from the library for each entry (falling back to
/// the generator), concatenate, and run the validation/refill pass.
pub fn instantiate(
    seq: &[StmtKind],
    lib: &AstLibrary,
    dialect: Dialect,
    rng: &mut SmallRng,
) -> TestCase {
    let mut statements = Vec::with_capacity(seq.len() + 1);
    let mut schema = SchemaModel::new();
    // Dependency analysis: almost every statement needs a relation to act
    // on; when the sequence itself creates none, prepend a CREATE TABLE so
    // the instantiated case is semantically valid (paper § III-B: "the
    // dependencies between statements are also analyzed and maintained").
    let creates_table = seq.iter().any(|k| {
        matches!(
            k,
            StmtKind::Ddl(lego_sqlast::kind::DdlVerb::Create, lego_sqlast::kind::ObjectKind::Table)
        )
    });
    if !creates_table {
        let ct = gen_statement(
            StmtKind::Ddl(lego_sqlast::kind::DdlVerb::Create, lego_sqlast::kind::ObjectKind::Table),
            &schema,
            dialect,
            rng,
        );
        schema.observe(&ct);
        statements.push(Arc::new(ct));
        // …and populate it, so data-dependent statements downstream are
        // exercised on real rows rather than empty relations.
        if !seq.contains(&StmtKind::Other(lego_sqlast::kind::StandaloneKind::Insert)) {
            let ins = gen_statement(
                StmtKind::Other(lego_sqlast::kind::StandaloneKind::Insert),
                &schema,
                dialect,
                rng,
            );
            statements.push(Arc::new(ins));
        }
    }
    for &kind in seq {
        let stmt = match lib.pick(kind, rng) {
            // "Because of the randomness in selecting structures, one SQL
            // Type Sequence will be instantiated multiple times."
            Some(s) if rng.gen_bool(0.8) => s,
            _ => Arc::new(gen_statement(kind, &schema, dialect, rng)),
        };
        schema.observe(&stmt);
        statements.push(stmt);
    }
    let mut case = TestCase::shared(statements);
    fix_case(&mut case, rng);
    case
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlast::kind::{DdlVerb, ObjectKind, StandaloneKind};
    use lego_sqlast::skeleton::rebind;
    use lego_sqlparser::parse_script;
    use rand::SeedableRng;

    const CT: StmtKind = StmtKind::Ddl(DdlVerb::Create, ObjectKind::Table);
    const INS: StmtKind = StmtKind::Other(StandaloneKind::Insert);
    const SEL: StmtKind = StmtKind::Other(StandaloneKind::Select);

    #[test]
    fn library_dedups_structures() {
        let mut lib = AstLibrary::new();
        let case = parse_script("INSERT INTO a VALUES (1); INSERT INTO b VALUES (999);").unwrap();
        lib.add_case(&case);
        // Same skeleton -> one structure.
        assert_eq!(lib.structures(), 1);
        let case2 = parse_script("INSERT INTO a (x) VALUES (1);").unwrap();
        lib.add_case(&case2);
        assert_eq!(lib.structures(), 2);
    }

    #[test]
    fn instantiated_sequence_has_requested_types() {
        let lib = AstLibrary::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let seq = [CT, INS, SEL];
        let case = instantiate(&seq, &lib, Dialect::Postgres, &mut rng);
        assert_eq!(case.type_sequence(), seq.to_vec());
    }

    #[test]
    fn instantiated_cases_execute_mostly_clean() {
        // The paper's instantiation example: PRAGMA -> CREATE TABLE ->
        // INSERT, where the INSERT initially references a missing table and
        // the validator repairs it.
        let lib = AstLibrary::new();
        let mut rng = SmallRng::seed_from_u64(5);
        let seq = [CT, INS, SEL];
        let mut clean = 0;
        for _ in 0..30 {
            let case = instantiate(&seq, &lib, Dialect::Postgres, &mut rng);
            let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
            let r = db.execute_case(&case);
            if r.errors.is_empty() {
                clean += 1;
            }
        }
        // Validation should make the clear majority semantically valid.
        assert!(clean >= 20, "only {clean}/30 instantiations were clean");
    }

    #[test]
    fn fixer_repairs_unknown_references() {
        let mut case = parse_script(
            "CREATE TABLE v0 (x INT PRIMARY KEY, y INT);\n\
             INSERT INTO v2 (v1) VALUES (100);",
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        fix_case(&mut case, &mut rng);
        let sql = case.to_sql();
        assert!(sql.contains("INSERT INTO v0"), "{sql}");
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let r = db.execute_case(&case);
        assert!(r.errors.is_empty(), "{:?}\n{}", r.errors, sql);
    }

    #[test]
    fn fixer_renames_colliding_creations() {
        let mut case = parse_script(
            "CREATE TABLE t (a INT);\n\
             CREATE TABLE t (b INT);",
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        fix_case(&mut case, &mut rng);
        let seq = lego_sqlast::visit::table_names(&case.statements[1]);
        assert_ne!(seq[0], "t");
    }

    #[test]
    fn fixer_pads_insert_rows() {
        let mut case = parse_script(
            "CREATE TABLE t (a INT, b INT, c INT);\n\
             INSERT INTO t VALUES (1);",
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        fix_case(&mut case, &mut rng);
        let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
        let r = db.execute_case(&case);
        assert!(r.errors.is_empty(), "{:?}\n{}", r.errors, case.to_sql());
    }

    #[test]
    fn pick_returns_none_for_unknown_kind() {
        let lib = AstLibrary::new();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(lib.pick(CT, &mut rng).is_none());
    }

    /// The repaired last statement of `script` under `seed`.
    fn fixed_last(script: &str, seed: u64) -> String {
        let mut case = parse_script(script).unwrap();
        fix_case(&mut case, &mut SmallRng::seed_from_u64(seed));
        case.statements.last().unwrap().to_string()
    }

    #[test]
    fn fixer_keeps_view_names_out_of_the_table_rebind() {
        let script = "CREATE TABLE t (a INT); CREATE VIEW w AS SELECT a FROM t; SELECT * FROM w;";
        for seed in 0..8 {
            let mut case = parse_script(script).unwrap();
            fix_case(&mut case, &mut SmallRng::seed_from_u64(seed));
            let r = lego_dbms::Dbms::new(Dialect::Postgres).execute_case(&case);
            assert!(r.errors.is_empty(), "seed {seed}: {:?}\n{}", r.errors, case.to_sql());
        }
    }

    #[test]
    fn fixer_qualifies_bare_columns_of_a_self_join() {
        for seed in 0..8 {
            let sql = fixed_last("CREATE TABLE t (a INT); SELECT a FROM t, t;", seed);
            assert_eq!(sql, "SELECT t.a FROM t, t", "seed {seed}");
        }
    }

    #[test]
    fn fixer_qualifies_the_self_join_whose_name_sorts_first_in_lower_case() {
        for seed in 0..8 {
            let sql = fixed_last(
                "CREATE TABLE B2 (x INT); CREATE TABLE a1 (y INT); SELECT x, y FROM B2, B2, a1, a1;",
                seed,
            );
            assert_eq!(sql, "SELECT x, a1.y FROM B2, B2, a1, a1", "seed {seed}");
        }
    }

    #[test]
    fn fixer_rebinds_unknown_columns_across_every_referenced_table() {
        let script = "CREATE TABLE t (a INT); CREATE TABLE u (b INT); CREATE TABLE w (c INT);\n\
                      SELECT q FROM t, u;";
        let mut seen = HashSet::new();
        for seed in 0..16 {
            let sql = fixed_last(script, seed);
            let col = sql.strip_prefix("SELECT ").and_then(|r| r.strip_suffix(" FROM t, u"));
            assert!(matches!(col, Some("a" | "b")), "seed {seed}: {sql}");
            seen.insert(sql);
        }
        assert_eq!(seen.len(), 2, "both referenced tables supply columns: {seen:?}");
    }

    #[test]
    fn fixer_matches_known_columns_case_insensitively() {
        for seed in 0..8 {
            let sql = fixed_last("CREATE TABLE t (a INT, b INT); SELECT A, B FROM t;", seed);
            assert_eq!(sql, "SELECT A, B FROM t", "seed {seed}");
        }
    }

    /// Steps 2–3b of `fix_statement` as they were before the column pass
    /// borrowed its columns from the schema: the reference the current
    /// pass must reproduce output for output and draw for draw.
    fn reference_rebind_references(stmt: &mut Statement, schema: &SchemaModel, rng: &mut SmallRng) {
        rebind(
            stmt,
            |t| {
                if !schema.has_table(t) {
                    if let Some(existing) = schema.random_table(rng) {
                        *t = existing.name.clone();
                    }
                }
            },
            |_c| {},
            |_l| {},
        );
        let tables = lego_sqlast::visit::table_names(stmt);
        let mut cols: Vec<(String, DataType)> = Vec::new();
        for t in &tables {
            if let Some(tm) = schema.table(t) {
                cols.extend(tm.columns.iter().map(|c| (c.name.clone(), c.ty)));
            }
        }
        if !cols.is_empty() {
            let known: HashSet<String> = cols.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
            rebind(
                stmt,
                |_t| {},
                |c| {
                    if !known.contains(&c.to_ascii_lowercase()) && !c.starts_with('$') {
                        *c = cols[rng.gen_range(0..cols.len())].0.clone();
                    }
                },
                |_l| {},
            );
        }
        let mut lower: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        lower.sort();
        let dup = lower.windows(2).find(|w| w[0] == w[1]).map(|w| w[0].clone());
        if let Some(tm) = dup.and_then(|d| schema.table(&d)) {
            struct Qualify<'a> {
                table: &'a str,
                lowercase: HashSet<String>,
            }
            impl lego_sqlast::visit::MutVisitor for Qualify<'_> {
                fn column_ref(&mut self, c: &mut lego_sqlast::expr::ColumnRef) {
                    if c.table.is_none() && self.lowercase.contains(&c.column.to_ascii_lowercase())
                    {
                        c.table = Some(self.table.to_string());
                    }
                }
            }
            let lowercase = tm.columns.iter().map(|c| c.name.to_ascii_lowercase()).collect();
            let mut q = Qualify { table: &tm.name, lowercase };
            lego_sqlast::visit::walk_statement_mut(stmt, &mut q);
        }
    }

    /// Every statement of the generated cases, each with the schema of its
    /// prefix, as generated, with its names upper-cased (known names must
    /// still match) and with every other name upper-cased (one name in two
    /// letter cases), and once with the previous case's schema, which
    /// leaves most of its names unknown.
    fn for_each_generated_statement(mut check: impl FnMut(&Statement, &SchemaModel, u64, &str)) {
        for dialect in Dialect::ALL {
            let mut previous = SchemaModel::new();
            for (n, case) in crate::testutil::generated_cases(dialect).iter().enumerate() {
                let mut schema = SchemaModel::new();
                for (i, stmt) in case.statements.iter().enumerate() {
                    let seed = (n as u64) << 16 | i as u64;
                    let what = format!("{dialect:?} case {n} statement {i}");
                    let mut shouted = (**stmt).clone();
                    rebind(
                        &mut shouted,
                        |t| t.make_ascii_uppercase(),
                        |c| c.make_ascii_uppercase(),
                        |_l| {},
                    );
                    let mut mixed = (**stmt).clone();
                    let upper = std::cell::Cell::new(false);
                    let alternate = |name: &mut String| {
                        if upper.replace(!upper.get()) {
                            name.make_ascii_uppercase();
                        }
                    };
                    rebind(&mut mixed, alternate, alternate, |_l| {});
                    check(stmt, &schema, seed, &what);
                    check(&shouted, &schema, seed, &format!("{what}, upper-cased"));
                    check(&mixed, &schema, seed, &format!("{what}, mixed case"));
                    check(stmt, &previous, seed, &format!("{what}, previous schema"));
                    schema.observe(stmt);
                }
                previous = schema;
            }
        }
    }

    #[test]
    fn rebind_references_matches_its_reference_on_generated_cases() {
        for_each_generated_statement(|stmt, schema, seed, what| {
            let (mut new, mut old) = (stmt.clone(), stmt.clone());
            let (mut rng_new, mut rng_old) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            rebind_references(
                &mut |v| walk_statement_mut(&mut new, v),
                schema,
                &mut Vec::new(),
                &mut rng_new,
            );
            reference_rebind_references(&mut old, schema, &mut rng_old);
            assert_eq!(new, old, "{what}: {stmt}");
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}: {stmt}");
        });
    }

    /// Step 5 of `fix_statement` as it was before the rows were fixed in
    /// place: per-position slots, a list of stored values per column, and
    /// the kept rows moved to a new vector.
    fn reference_fix_rows(
        tm: &TableModel,
        columns: &[String],
        rows: &mut Vec<Vec<Expr>>,
        rng: &mut SmallRng,
    ) {
        let slot_of = |name: &str, ty: DataType| Slot {
            ty,
            not_null: tm.is_not_null(name),
            unique: tm.is_unique(name),
        };
        let slots: Vec<Slot> = if columns.is_empty() {
            tm.columns.iter().map(|c| slot_of(&c.name, c.ty)).collect()
        } else {
            columns
                .iter()
                .map(|c| {
                    let ty = tm
                        .columns
                        .iter()
                        .find(|col| col.name.eq_ignore_ascii_case(c))
                        .map(|col| col.ty)
                        .unwrap_or(DataType::Int);
                    slot_of(c, ty)
                })
                .collect()
        };
        fn stored_key(value: &Expr, ty: DataType) -> Expr {
            let as_int = match value {
                Expr::Integer(v) => Some(*v),
                Expr::Float(v) => Some(*v as i64),
                _ => None,
            };
            match (ty, as_int) {
                (DataType::Year, Some(0)) => Expr::Integer(0),
                (DataType::Year, Some(v)) => Expr::Integer(v.clamp(1901, 2155)),
                _ => value.clone(),
            }
        }
        let mut seen: Vec<Vec<Expr>> = slots.iter().map(|_| Vec::new()).collect();
        let mut kept = Vec::with_capacity(rows.len());
        for mut row in rows.drain(..) {
            while row.len() > slots.len() {
                row.pop();
            }
            while row.len() < slots.len() {
                let slot = &slots[row.len()];
                row.push(if slot.not_null {
                    gen_literal_not_null(slot.ty, rng)
                } else {
                    gen_literal(slot.ty, rng)
                });
            }
            let mut row_ok = true;
            for (i, value) in row.iter_mut().enumerate() {
                let slot = &slots[i];
                if slot.not_null && matches!(value, Expr::Null) {
                    *value = gen_literal_not_null(slot.ty, rng);
                }
                if slot.unique {
                    let mut key = stored_key(value, slot.ty);
                    for _ in 0..4 {
                        if !seen[i].contains(&key) {
                            break;
                        }
                        *value = fresh_unique(slot.ty, rng);
                        key = stored_key(value, slot.ty);
                    }
                    if seen[i].contains(&key) {
                        row_ok = false;
                        break;
                    }
                    seen[i].push(key);
                }
            }
            if row_ok || kept.is_empty() {
                kept.push(row);
            }
        }
        *rows = kept;
    }

    #[test]
    fn fix_rows_matches_its_reference_on_generated_inserts() {
        // Every INSERT ... VALUES of the generated cases, into every table of
        // its prefix schema, with its own column list and with the target's
        // first columns named, each as generated, with every row doubled and
        // with NULLs and colliding years: the last two hit the NOT NULL and
        // UNIQUE repairs of every column, the YEAR clamp and dropped rows.
        let mut inserts = 0;
        for_each_generated_statement(|stmt, schema, seed, what| {
            let Statement::Insert(Insert { columns, source: InsertSource::Values(rows), .. }) =
                stmt
            else {
                return;
            };
            inserts += 1;
            for (t, tm) in schema.tables.iter().enumerate() {
                let named: Vec<String> =
                    tm.columns.iter().take(2).map(|c| c.name.to_ascii_uppercase()).collect();
                let doubled: Vec<Vec<Expr>> = rows.iter().chain(rows).cloned().collect();
                let colliding: Vec<Vec<Expr>> = (0..6)
                    .map(|r| {
                        let v = [
                            Expr::Null,
                            Expr::Integer(0),
                            Expr::Integer(3000),
                            Expr::Float(2200.5),
                        ];
                        (0..tm.columns.len() + r % 3).map(|k| v[(r + k) % 4].clone()).collect()
                    })
                    .collect();
                for cols in [&columns[..], &named[..], &[]] {
                    for rows in [rows, &doubled, &colliding] {
                        let (mut new, mut old) = (rows.clone(), rows.clone());
                        let seed = seed ^ (t as u64) << 48;
                        let (mut rng_new, mut rng_old) =
                            (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                        fix_rows(tm, cols, &mut new, &mut rng_new);
                        reference_fix_rows(tm, cols, &mut old, &mut rng_old);
                        assert_eq!(new, old, "{what} into {}, columns {cols:?}: {stmt}", tm.name);
                        assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}: {stmt}");
                    }
                }
            }
        });
        assert!(inserts > 1000, "only {inserts} INSERT statements");
    }

    /// `structure_key` as it was before the key was streamed: names mapped
    /// through two hash maps, the skeleton rendered to a string, FNV over
    /// its bytes.
    fn reference_structure_key(stmt: &Statement) -> u64 {
        use std::collections::hash_map::Entry;
        use std::collections::HashMap;
        struct Normalizer {
            table_placeholders: HashMap<String, String>,
            column_placeholders: HashMap<String, String>,
        }
        fn canon(map: &mut HashMap<String, String>, prefix: &str, name: &mut String) {
            let next = map.len();
            match map.entry(name.clone()) {
                Entry::Occupied(e) => *name = e.get().clone(),
                Entry::Vacant(e) => {
                    let c = format!("{}{}", prefix, next);
                    e.insert(c.clone());
                    *name = c;
                }
            }
        }
        impl MutVisitor for Normalizer {
            fn table_name(&mut self, name: &mut String) {
                canon(&mut self.table_placeholders, "$t", name);
            }
            fn column_name(&mut self, name: &mut String) {
                canon(&mut self.column_placeholders, "$c", name);
            }
            fn literal(&mut self, expr: &mut Expr) {
                match expr {
                    Expr::Integer(v) => *v = 0,
                    Expr::Float(v) => *v = 0.0,
                    Expr::Str(s) => *s = "$s".into(),
                    Expr::Bool(b) => *b = true,
                    _ => {}
                }
            }
        }
        let mut s = stmt.clone();
        walk_statement_mut(
            &mut s,
            &mut Normalizer {
                table_placeholders: HashMap::new(),
                column_placeholders: HashMap::new(),
            },
        );
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in s.to_string().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }

    #[test]
    fn structure_key_matches_its_reference_on_generated_cases() {
        for_each_generated_statement(|stmt, _schema, _seed, what| {
            assert_eq!(structure_key(stmt), reference_structure_key(stmt), "{what}: {stmt}");
        });
    }

    /// `fix_case` as it was before statements were shared: every statement
    /// repaired in place by walks that write (so any statement the case
    /// shares is copied). The reference the copy-on-write version must
    /// reproduce output for output and draw for draw.
    fn clone_based_fix_case(case: &mut TestCase, rng: &mut SmallRng) {
        let mut schema = SchemaModel::new();
        let mut mentions = Vec::new();
        for stmt in &mut case.statements {
            clone_based_fix_statement(Arc::make_mut(stmt), &schema, &mut mentions, rng);
            schema.observe(stmt);
        }
    }

    fn clone_based_fix_statement(
        stmt: &mut Statement,
        schema: &SchemaModel,
        mentions: &mut Vec<usize>,
        rng: &mut SmallRng,
    ) {
        match stmt {
            Statement::CreateTable(c) => {
                if schema.has_table(&c.name) {
                    c.name = schema.fresh_table_name(rng);
                }
                let own = c.name.clone();
                for col in &mut c.columns {
                    for con in &mut col.constraints {
                        if let ColumnConstraint::References { table, .. } = con {
                            if !schema.has_table(table) {
                                *table = schema
                                    .random_table(rng)
                                    .map(|t| t.name.clone())
                                    .unwrap_or_else(|| own.clone());
                            }
                        }
                    }
                }
                return;
            }
            Statement::CreateTableAs { name, query }
            | Statement::CreateView(CreateView { name, query, .. }) => {
                if schema.has_table(name) {
                    *name = schema.fresh_table_name(rng);
                }
                clone_based_rebind_references(
                    &mut |v| walk_query_mut(query, v),
                    schema,
                    mentions,
                    rng,
                );
                clone_based_refill_literals(&mut |v| walk_query_mut(query, v), rng);
                return;
            }
            _ => {}
        }
        clone_based_rebind_references(&mut |v| walk_statement_mut(stmt, v), schema, mentions, rng);
        clone_based_refill_literals(&mut |v| walk_statement_mut(stmt, v), rng);
        if let Statement::Insert(Insert {
            table,
            columns,
            source: InsertSource::Values(rows),
            ..
        }) = stmt
        {
            if let Some(tm) = schema.table(table) {
                if !columns.is_empty() {
                    columns.retain(|c| tm.column(c).is_some());
                    if !columns.is_empty() {
                        for req in tm.columns.iter().filter(|c| c.required) {
                            if !columns.iter().any(|c| req.is(c)) {
                                columns.push(req.name.clone());
                            }
                        }
                    }
                }
                fix_rows(tm, columns, rows, rng);
            }
        }
    }

    fn clone_based_rebind_references(
        walk: &mut Walk,
        schema: &SchemaModel,
        mentions: &mut Vec<usize>,
        rng: &mut SmallRng,
    ) {
        mentions.clear();
        walk(&mut Rebinder {
            on_table: |t: &mut String| {
                if !schema.has_table(t) {
                    if let Some(existing) = schema.random_table(rng) {
                        *t = existing.name.clone();
                    }
                }
                mentions
                    .extend(schema.tables.iter().position(|tm| tm.name.eq_ignore_ascii_case(t)));
            },
            on_column: |_: &mut String| {},
            on_literal: |_: &mut Expr| {},
        });
        let tables = || mentions.iter().map(|&i| &schema.tables[i]);
        let pool: usize = tables().map(|t| t.columns.len()).sum();
        if pool > 0 {
            walk(&mut Rebinder {
                on_table: |_: &mut String| {},
                on_column: |c: &mut String| {
                    if !c.starts_with('$') && tables().all(|t| t.column(c).is_none()) {
                        let mut k = rng.gen_range(0..pool);
                        for t in tables() {
                            if let Some(col) = t.columns.get(k) {
                                *c = col.name.clone();
                                break;
                            }
                            k -= t.columns.len();
                        }
                    }
                },
                on_literal: |_: &mut Expr| {},
            });
        }
        let self_joined = mentions
            .iter()
            .enumerate()
            .filter(|&(n, i)| mentions[..n].contains(i))
            .map(|(_, &i)| &schema.tables[i])
            .min_by(|a, b| cmp_lowercase(&a.name, &b.name));
        if let Some(tm) = self_joined {
            struct Qualify<'a>(&'a TableModel);
            impl MutVisitor for Qualify<'_> {
                fn column_ref(&mut self, c: &mut ColumnRef) {
                    if c.table.is_none() && self.0.column(&c.column).is_some() {
                        c.table = Some(self.0.name.clone());
                    }
                }
            }
            walk(&mut Qualify(tm));
        }
    }

    fn clone_based_refill_literals(walk: &mut Walk, rng: &mut SmallRng) {
        walk(&mut Rebinder {
            on_table: |_: &mut String| {},
            on_column: |_: &mut String| {},
            on_literal: |l: &mut Expr| {
                if rng.gen_bool(0.3) {
                    let ty = match l {
                        Expr::Integer(_) | Expr::Float(_) => DataType::Int,
                        Expr::Str(_) => DataType::Text,
                        Expr::Bool(_) => DataType::Bool,
                        _ => return,
                    };
                    *l = gen_literal(ty, rng);
                }
            },
        });
    }

    /// Each generated case as a list of shared statements: as generated,
    /// without its first statement (so later ones lose what they refer
    /// to), followed by itself (so its creations collide), and edited so
    /// that every step has work: column references unqualified (self-joins
    /// need qualifying), INSERT rows doubled and followed by a row of NULLs
    /// (UNIQUE and NOT NULL columns need new values), explicit INSERT
    /// column lists without their first column and its values (required
    /// columns go missing) or with a parameter and a value added (a name
    /// no table has, which only the column-list fix-up removes), and each
    /// CREATE TABLE referencing a table that does not exist (a generated
    /// table has no REFERENCES of its own).
    fn generated_variants(dialect: Dialect) -> impl Iterator<Item = (String, Vec<Arc<Statement>>)> {
        struct Unqualify;
        impl MutVisitor for Unqualify {
            fn column_ref(&mut self, c: &mut ColumnRef) {
                c.table = None;
            }
        }
        let edited = |stmts: &[Arc<Statement>], edit: fn(&mut Statement)| -> Vec<Arc<Statement>> {
            stmts
                .iter()
                .map(|s| {
                    let mut s = (**s).clone();
                    edit(&mut s);
                    Arc::new(s)
                })
                .collect()
        };
        crate::testutil::generated_cases(dialect).iter().enumerate().flat_map(move |(n, case)| {
            let s = &case.statements;
            let what = |variant: &str| format!("{dialect:?} case {n}{variant}");
            [
                (what(""), s.clone()),
                (what(" without its head"), s[1.min(s.len())..].to_vec()),
                (what(" twice"), [&s[..], &s[..]].concat()),
                (what(" unqualified"), edited(s, |s| walk_statement_mut(s, &mut Unqualify))),
                (
                    what(" with doubled and NULL rows"),
                    edited(s, |s| {
                        if let Statement::Insert(Insert {
                            source: InsertSource::Values(rows),
                            ..
                        }) = s
                        {
                            let nulls = rows.first().map(|r| vec![Expr::Null; r.len()]);
                            rows.extend(rows.clone());
                            rows.extend(nulls);
                        }
                    }),
                ),
                (
                    what(" without the first INSERT column"),
                    named_inserts(s, |columns, rows| {
                        columns.remove(0);
                        rows.iter_mut().for_each(|r| drop(r.remove(0)));
                    }),
                ),
                (
                    what(" with a parameter INSERT column"),
                    named_inserts(s, |columns, rows| {
                        columns.push("$1".into());
                        rows.iter_mut().for_each(|r| r.push(Expr::Null));
                    }),
                ),
                (
                    what(" referencing a missing table"),
                    edited(s, |s| {
                        if let Statement::CreateTable(c) = s {
                            if let Some(col) = c.columns.first_mut() {
                                col.constraints.push(ColumnConstraint::References {
                                    table: "missing".into(),
                                    column: None,
                                });
                            }
                        }
                    }),
                ),
            ]
        })
    }

    /// `stmts` with each INSERT whose rows fill every column of its table
    /// (in the schema of its prefix) given the explicit list of those
    /// columns, then edited by `edit`; a generated INSERT names none.
    fn named_inserts(
        stmts: &[Arc<Statement>],
        edit: fn(&mut Vec<String>, &mut Vec<Vec<Expr>>),
    ) -> Vec<Arc<Statement>> {
        let mut schema = SchemaModel::new();
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let mut s = (**stmt).clone();
            if let Statement::Insert(Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
                ..
            }) = &mut s
            {
                if let Some(tm) = schema.table(table) {
                    let width = tm.columns.len();
                    if columns.is_empty() && width > 1 && rows.iter().all(|r| r.len() == width) {
                        columns.extend(tm.columns.iter().map(|c| c.name.clone()));
                        edit(columns, rows);
                    }
                }
            }
            schema.observe(stmt);
            out.push(Arc::new(s));
        }
        out
    }

    /// Copies of `stmts` that nothing else holds.
    fn owned(stmts: &[Arc<Statement>]) -> TestCase {
        TestCase::new(stmts.iter().map(|s| (**s).clone()).collect())
    }

    #[test]
    fn fix_case_matches_its_clone_based_reference_on_generated_cases() {
        // Once with every statement also held by the generated case, so
        // each takes the read-only decision, and once with every statement
        // owned alone, so each is repaired in place.
        let (mut decided, mut copied) = (0usize, 0usize);
        for dialect in Dialect::ALL {
            for (n, (what, stmts)) in generated_variants(dialect).enumerate() {
                let seed = n as u64;
                let mut want = owned(&stmts);
                let mut rng = SmallRng::seed_from_u64(seed);
                clone_based_fix_case(&mut want, &mut rng);
                let want_next: u64 = rng.gen();
                for alone in [false, true] {
                    let mut got =
                        if alone { owned(&stmts) } else { TestCase::shared(stmts.clone()) };
                    let mut rng = SmallRng::seed_from_u64(seed);
                    fix_case(&mut got, &mut rng);
                    let what = format!("{what}, owned alone: {alone}\n{}", owned(&stmts));
                    assert_eq!(got, want, "{what}");
                    assert_eq!(rng.gen::<u64>(), want_next, "{what}");
                    if !alone {
                        decided += stmts.len();
                        copied += got
                            .statements
                            .iter()
                            .zip(&stmts)
                            .filter(|(a, b)| !Arc::ptr_eq(a, b))
                            .count();
                    }
                }
            }
        }
        // Both answers of the decision are exercised.
        assert!(copied > decided / 20 && copied < decided / 2, "{copied} of {decided} copied");
    }

    /// `add_case` as it was before it skipped the statements already keyed.
    fn unskipped_add_case(lib: &mut AstLibrary, case: &TestCase) {
        for stmt in &case.statements {
            let key = structure_key(stmt);
            if !lib.keys.insert(key) {
                continue;
            }
            let bucket = lib.by_kind.entry(stmt.kind()).or_default();
            if bucket.len() < lib.per_kind_cap {
                bucket.push(Arc::clone(stmt));
            }
        }
    }

    #[test]
    fn library_skips_keyed_statements_without_changing_buckets_or_keys() {
        for dialect in Dialect::ALL {
            let (mut lib, mut reference) = (AstLibrary::new(), AstLibrary::new());
            let mut statements = 0;
            for case in crate::testutil::generated_cases(dialect) {
                lib.add_case(case);
                unskipped_add_case(&mut reference, case);
                statements += case.len();
            }
            assert_eq!(lib.keys_sorted(), reference.keys_sorted(), "{dialect:?}");
            let (got, want) = (lib.buckets_sorted(), reference.buckets_sorted());
            assert_eq!(got.len(), want.len(), "{dialect:?}");
            for ((kind, got), (_, want)) in got.iter().zip(&want) {
                assert_eq!(got.len(), want.len(), "{dialect:?} {kind:?}");
                assert!(got.iter().zip(*want).all(|(a, b)| Arc::ptr_eq(a, b)), "{dialect:?}");
            }
            // Most statements of the cases are shared, so most are skipped.
            assert!(lib.keyed.len() * 2 < statements, "{} of {statements}", lib.keyed.len());
        }
    }

    #[test]
    fn library_buckets_are_in_kind_code_order() {
        let mut lib = AstLibrary::new();
        for dialect in Dialect::ALL {
            for case in crate::testutil::generated_cases(dialect).iter().take(300) {
                lib.add_case(case);
            }
        }
        let codes: Vec<u16> = lib.buckets_sorted().iter().map(|(k, _)| k.code()).collect();
        assert!(codes.len() > 20, "{codes:?}");
        assert!(codes.windows(2).all(|w| w[0] < w[1]), "{codes:?}");
    }
}
