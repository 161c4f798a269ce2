//! Instantiation: turning SQL Type Sequences into executable test cases
//! (paper § III-B, the three-step AST synthesis / concatenation / validation
//! pipeline).

use crate::gen::{gen_literal, gen_literal_not_null, gen_statement, SchemaModel};
use lego_sqlast::ast::{Insert, InsertSource, Statement};
use lego_sqlast::expr::{DataType, Expr};
use lego_sqlast::skeleton::{rebind, structure_key};
use lego_sqlast::{Dialect, StmtKind, TestCase};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// The global AST-structure library: type-matched statement skeletons
/// harvested from every retained seed ("LEGO parses each of its statements to
/// extract AST structures and saves them into the global library").
#[derive(Clone, Debug, Default)]
pub struct AstLibrary {
    by_kind: HashMap<StmtKind, Vec<Statement>>,
    keys: HashSet<u64>,
    per_kind_cap: usize,
}

impl AstLibrary {
    pub fn new() -> Self {
        Self { by_kind: HashMap::new(), keys: HashSet::new(), per_kind_cap: 32 }
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
    /// `keys` must be the full structural-dedup set, which can be larger
    /// than the stored statements (keys of statements dropped by the
    /// per-kind cap are still remembered).
    pub fn from_parts(buckets: Vec<(StmtKind, Vec<Statement>)>, keys: Vec<u64>) -> Self {
        Self {
            by_kind: buckets.into_iter().collect(),
            keys: keys.into_iter().collect(),
            per_kind_cap: 32,
        }
    }

    /// Buckets sorted by kind code, for deterministic serialization.
    pub fn buckets_sorted(&self) -> Vec<(StmtKind, &[Statement])> {
        let mut v: Vec<(StmtKind, &[Statement])> =
            self.by_kind.iter().map(|(k, stmts)| (*k, stmts.as_slice())).collect();
        v.sort_by_key(|(k, _)| k.code());
        v
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
    for stmt in &mut case.statements {
        fix_statement(stmt, &schema, rng);
        schema.observe(stmt);
    }
}

fn fix_statement(stmt: &mut Statement, schema: &SchemaModel, rng: &mut SmallRng) {
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
        // A view, like CREATE TABLE AS, has only its query repaired: its own
        // name is a definition, not a reference to rebind.
        Statement::CreateTableAs { name, query }
        | Statement::CreateView(lego_sqlast::ast::CreateView { name, query, .. }) => {
            if schema.has_table(name) {
                *name = schema.fresh_table_name(rng);
            }
            let mut q = Statement::Select(lego_sqlast::ast::SelectStmt {
                query: query.clone(),
                variant: lego_sqlast::ast::SelectVariant::Plain,
            });
            fix_statement(&mut q, schema, rng);
            if let Statement::Select(s) = q {
                *query = s.query;
            }
            return;
        }
        _ => {}
    }

    // 2–3b. Table, column and self-join references.
    rebind_references(stmt, schema, rng);

    // 4. Data refill: re-randomize a fraction of literals.
    rebind(
        stmt,
        |_t| {},
        |_c| {},
        |l| {
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
    );

    // 5. INSERT shape fix-up: row width must match the target table, and
    //    NOT NULL columns without a default must receive non-NULL values.
    if let Statement::Insert(Insert {
        table, columns, source: InsertSource::Values(rows), ..
    }) = stmt
    {
        if let Some(tm) = schema.table(table) {
            if !columns.is_empty() {
                columns.retain(|c| tm.columns.iter().any(|(n, _)| n.eq_ignore_ascii_case(c)));
                // An explicit column list must still cover every required
                // column, or the implicit NULLs violate NOT NULL.
                if !columns.is_empty() {
                    for req in &tm.required {
                        if !columns.iter().any(|c| c.eq_ignore_ascii_case(req)) {
                            columns.push(req.clone());
                        }
                    }
                }
            }
            // Per-position metadata for the effective column list (explicit
            // or the full table): type, NOT NULL (reject explicit NULLs),
            // UNIQUE (reject duplicate literals across the VALUES rows).
            struct Slot {
                ty: DataType,
                not_null: bool,
                unique: bool,
            }
            let slot_of = |name: &str, ty: DataType| Slot {
                ty,
                not_null: tm.is_not_null(name),
                unique: tm.is_unique(name),
            };
            let slots: Vec<Slot> = if columns.is_empty() {
                tm.columns.iter().map(|(n, t)| slot_of(n, *t)).collect()
            } else {
                columns
                    .iter()
                    .map(|c| {
                        let ty = tm
                            .columns
                            .iter()
                            .find(|(n, _)| n.eq_ignore_ascii_case(c))
                            .map(|(_, t)| *t)
                            .unwrap_or(DataType::Int);
                        slot_of(c, ty)
                    })
                    .collect()
            };
            // A literal's identity under the column's storage coercion:
            // YEAR clamps into [1901, 2155], so distinct out-of-range
            // literals still collide on a UNIQUE YEAR column.
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
            fn fresh_unique(ty: DataType, rng: &mut SmallRng) -> Expr {
                match ty {
                    DataType::Year => Expr::Integer(rng.gen_range(1901i64..2156)),
                    DataType::Bool => Expr::Bool(rng.gen_bool(0.5)),
                    _ => gen_literal_not_null(ty, rng),
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
                        // Re-roll repeats of an earlier row's stored value;
                        // bounded, since narrow types may not have enough
                        // distinct values — then the whole row is dropped.
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
    }
}

/// Steps 2–3b of [`fix_statement`], in one walk over the table names plus
/// one over the column names. The columns of every referenced table are
/// borrowed from `schema` during the table walk.
fn rebind_references(stmt: &mut Statement, schema: &SchemaModel, rng: &mut SmallRng) {
    // 2. Rebind unknown table references, and gather the columns of each
    //    table referenced (looked up by its name after any rebind).
    let mut cols: Vec<&(String, DataType)> = Vec::new();
    let mut mentions = 0usize;
    rebind(
        stmt,
        |t| {
            if !schema.has_table(t) {
                if let Some(existing) = schema.random_table(rng) {
                    *t = existing.name.clone();
                }
            }
            if let Some(tm) = schema.table(t) {
                cols.extend(&tm.columns);
            }
            mentions += 1;
        },
        |_c| {},
        |_l| {},
    );

    // 3. Rebind column references to columns of the tables now referenced.
    if !cols.is_empty() {
        rebind(
            stmt,
            |_t| {},
            |c| {
                if !c.starts_with('$') && !cols.iter().any(|(n, _)| n.eq_ignore_ascii_case(c)) {
                    *c = cols[rng.gen_range(0..cols.len())].0.clone();
                }
            },
            |_l| {},
        );
    }

    // 3b. Self-joins without aliases make every bare column reference
    //     ambiguous; qualify them with the table name (qualified lookup
    //     resolves to the first join side). A self-join needs two mentions.
    if mentions >= 2 {
        let tables = lego_sqlast::visit::table_names(stmt);
        let mut lower: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        lower.sort();
        let dup = lower.windows(2).find(|w| w[0] == w[1]).map(|w| w[0].clone());
        if let Some(tm) = dup.and_then(|d| schema.table(&d)) {
            struct Qualify<'a> {
                table: &'a str,
                cols: HashSet<String>,
            }
            impl lego_sqlast::visit::MutVisitor for Qualify<'_> {
                fn column_ref(&mut self, c: &mut lego_sqlast::expr::ColumnRef) {
                    if c.table.is_none() && self.cols.contains(&c.column.to_ascii_lowercase()) {
                        c.table = Some(self.table.to_string());
                    }
                }
            }
            let cols = tm.columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
            let mut q = Qualify { table: &tm.name, cols };
            lego_sqlast::visit::walk_statement_mut(stmt, &mut q);
        }
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
    use lego_sqlparser::parse_script;
    use rand::SeedableRng;
    use std::sync::Arc;

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
                cols.extend(tm.columns.iter().cloned());
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
                cols: HashSet<String>,
            }
            impl lego_sqlast::visit::MutVisitor for Qualify<'_> {
                fn column_ref(&mut self, c: &mut lego_sqlast::expr::ColumnRef) {
                    if c.table.is_none() && self.cols.contains(&c.column.to_ascii_lowercase()) {
                        c.table = Some(self.table.to_string());
                    }
                }
            }
            let cols = tm.columns.iter().map(|(n, _)| n.to_ascii_lowercase()).collect();
            let mut q = Qualify { table: &tm.name, cols };
            lego_sqlast::visit::walk_statement_mut(stmt, &mut q);
        }
    }

    /// Hands out the wrapped engine's cases and keeps a copy of each.
    struct Recording {
        inner: crate::LegoFuzzer,
        cases: Vec<Arc<TestCase>>,
    }

    impl crate::campaign::FuzzEngine for Recording {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn next_case(&mut self) -> Arc<TestCase> {
            let case = self.inner.next_case();
            self.cases.push(Arc::clone(&case));
            case
        }
        fn feedback(
            &mut self,
            case: &Arc<TestCase>,
            report: &lego_dbms::ExecReport,
            new_coverage: bool,
        ) {
            self.inner.feedback(case, report, new_coverage)
        }
        fn corpus(&self) -> Vec<Arc<TestCase>> {
            self.inner.corpus()
        }
    }

    #[test]
    fn rebind_references_matches_its_reference_on_generated_cases() {
        use crate::campaign::{run_campaign, Budget};
        fn assert_same(stmt: &Statement, schema: &SchemaModel, seed: u64, what: &str) {
            let (mut new, mut old) = (stmt.clone(), stmt.clone());
            let (mut rng_new, mut rng_old) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            rebind_references(&mut new, schema, &mut rng_new);
            reference_rebind_references(&mut old, schema, &mut rng_old);
            assert_eq!(new, old, "{what}: {stmt}");
            assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}: {stmt}");
        }
        for dialect in Dialect::ALL {
            let cfg = crate::Config { rng_seed: 0x1e60, ..crate::Config::default() };
            let mut engine =
                Recording { inner: crate::LegoFuzzer::new(dialect, cfg), cases: vec![] };
            run_campaign(&mut engine, dialect, Budget::execs(3000));
            assert!(engine.cases.len() >= 3000, "{dialect:?}: {} cases", engine.cases.len());
            // Each statement meets the schema of its prefix as generated, and
            // again with its names upper-cased (known names must still match).
            // The previous case's schema leaves most of its names unknown.
            let mut previous = SchemaModel::new();
            for (n, case) in engine.cases.iter().enumerate() {
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
                    assert_same(stmt, &schema, seed, &what);
                    assert_same(&shouted, &schema, seed, &format!("{what}, upper-cased"));
                    assert_same(stmt, &previous, seed, &format!("{what}, previous schema"));
                    schema.observe(stmt);
                }
                previous = schema;
            }
        }
    }
}
