//! Instantiation: turning SQL Type Sequences into executable test cases
//! (paper § III-B, the three-step AST synthesis / concatenation / validation
//! pipeline).

use crate::gen::{gen_literal, gen_literal_not_null, gen_statement, SchemaModel, TableModel};
use lego_sqlast::ast::{CreateView, Insert, InsertSource, Statement};
use lego_sqlast::expr::{ColumnRef, DataType, Expr};
use lego_sqlast::skeleton::{structure_key, Rebinder};
use lego_sqlast::visit::{walk_query_mut, walk_statement_mut, MutVisitor};
use lego_sqlast::{Dialect, StmtKind, TestCase};
use rand::rngs::SmallRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

/// The global AST-structure library: type-matched statement skeletons
/// harvested from every retained seed ("LEGO parses each of its statements to
/// extract AST structures and saves them into the global library").
#[derive(Clone, Debug, Default)]
pub struct AstLibrary {
    /// Buckets in kind order, which is kind-code order.
    by_kind: BTreeMap<StmtKind, Vec<Statement>>,
    keys: HashSet<u64>,
    per_kind_cap: usize,
}

impl AstLibrary {
    pub fn new() -> Self {
        Self { by_kind: BTreeMap::new(), keys: HashSet::new(), per_kind_cap: 32 }
    }

    /// Harvest the structures of a retained test case. Structural duplicates
    /// (same skeleton) are ignored so the library stays non-repetitive.
    pub fn add_case(&mut self, case: &TestCase) {
        for stmt in &case.statements {
            let key = structure_key(stmt);
            if !self.keys.insert(key) {
                continue;
            }
            let bucket = self.by_kind.entry(stmt.kind()).or_default();
            if bucket.len() < self.per_kind_cap {
                bucket.push(stmt.clone());
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
            by_kind: buckets.into_iter().collect(),
            keys: dedup_keys.into_iter().collect(),
            per_kind_cap: 32,
        }
    }

    /// Buckets sorted by kind code, for deterministic serialization.
    pub fn buckets_sorted(&self) -> Vec<(StmtKind, &[Statement])> {
        self.by_kind.iter().map(|(k, stmts)| (*k, stmts.as_slice())).collect()
    }

    /// The structural-dedup key set, sorted (checkpoint serialization).
    pub fn keys_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.keys.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Pick a random type-matched structure.
    pub fn pick(&self, kind: StmtKind, rng: &mut SmallRng) -> Option<Statement> {
        self.by_kind.get(&kind).and_then(|v| {
            if v.is_empty() {
                None
            } else {
                Some(v[rng.gen_range(0..v.len())].clone())
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
pub fn fix_case(case: &mut TestCase, rng: &mut SmallRng) {
    let mut schema = SchemaModel::new();
    let mut mentions = Vec::new();
    for stmt in &mut case.statements {
        fix_statement(stmt, &schema, &mut mentions, rng);
        schema.observe(stmt);
    }
}

/// A walk of a visitor over every name and literal of what steps 2–4 of
/// [`fix_statement`] repair: a whole statement, or the query of a CREATE
/// VIEW or CREATE TABLE AS.
type Walk<'a> = dyn FnMut(&mut dyn MutVisitor) + 'a;

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
                    if let lego_sqlast::ast::ColumnConstraint::References { table, .. } = con {
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
            if !schema.has_table(t) {
                if let Some(existing) = schema.random_table(rng) {
                    *t = existing.name.clone();
                }
            }
            mentions.extend(schema.tables.iter().position(|tm| tm.name.eq_ignore_ascii_case(t)));
        },
        on_column: |_: &mut String| {},
        on_literal: |_: &mut Expr| {},
    });
    let tables = || mentions.iter().map(|&i| &schema.tables[i]);

    // 3. Rebind column references to columns of the tables now referenced:
    //    a draw from the columns of every mention, in mention order.
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

    // 3b. Self-joins without aliases make every bare column reference
    //     ambiguous; qualify them with the table name (qualified lookup
    //     resolves to the first join side). Of the tables mentioned more
    //     than once, the one whose name sorts first in lower case.
    let self_joined = mentions
        .iter()
        .enumerate()
        .filter(|&(n, i)| mentions[..n].contains(i))
        .map(|(_, &i)| &schema.tables[i])
        .min_by(|a, b| cmp_lowercase(&a.name, &b.name));
    if let Some(tm) = self_joined {
        walk(&mut Qualify(tm));
    }
}

/// Qualifies bare references to the columns of a table with its name.
struct Qualify<'a>(&'a TableModel);

impl MutVisitor for Qualify<'_> {
    fn column_ref(&mut self, c: &mut ColumnRef) {
        if c.table.is_none() && self.0.column(&c.column).is_some() {
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

/// Per-position metadata of an INSERT's effective column list (explicit or
/// the full table): type, NOT NULL (reject explicit NULLs), UNIQUE (reject
/// duplicate literals across the VALUES rows).
struct Slot {
    ty: DataType,
    not_null: bool,
    unique: bool,
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
    let width = if columns.is_empty() { tm.columns.len() } else { columns.len() };
    let slot_at = |i: usize| {
        let (name, ty) = match columns.get(i) {
            Some(c) => (c.as_str(), tm.column(c).map_or(DataType::Int, |col| col.ty)),
            None => (tm.columns[i].name.as_str(), tm.columns[i].ty),
        };
        Slot { ty, not_null: tm.is_not_null(name), unique: tm.is_unique(name) }
    };
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
        let stored_before = |i: usize, value: &Expr, ty: DataType| {
            earlier.iter().any(|prev| i < prev.len() && same_stored(&prev[i], value, ty))
        };
        let mut stored = width;
        for (i, value) in row.iter_mut().enumerate() {
            let slot = slot_at(i);
            if slot.not_null && matches!(value, Expr::Null) {
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
        statements.push(ct);
        // …and populate it, so data-dependent statements downstream are
        // exercised on real rows rather than empty relations.
        if !seq.contains(&StmtKind::Other(lego_sqlast::kind::StandaloneKind::Insert)) {
            let ins = gen_statement(
                StmtKind::Other(lego_sqlast::kind::StandaloneKind::Insert),
                &schema,
                dialect,
                rng,
            );
            statements.push(ins);
        }
    }
    for &kind in seq {
        let stmt = match lib.pick(kind, rng) {
            // "Because of the randomness in selecting structures, one SQL
            // Type Sequence will be instantiated multiple times."
            Some(s) if rng.gen_bool(0.8) => s,
            _ => gen_statement(kind, &schema, dialect, rng),
        };
        schema.observe(&stmt);
        statements.push(stmt);
    }
    let mut case = TestCase::new(statements);
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
                    let mut shouted = stmt.clone();
                    rebind(
                        &mut shouted,
                        |t| t.make_ascii_uppercase(),
                        |c| c.make_ascii_uppercase(),
                        |_l| {},
                    );
                    let mut mixed = stmt.clone();
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
