//! Conventional (syntax-preserving, within-statement) mutations — the
//! structure/data mutations all coverage-guided DBMS fuzzers share
//! (SQUIRREL-style), deliberately *unable* to change the SQL Type Sequence.

use crate::gen::{gen_expr, gen_literal, ColumnModel, SchemaModel};
use crate::instantiate::fix_case;
use lego_sqlast::ast::*;
use lego_sqlast::expr::*;
use lego_sqlast::skeleton::{inspect, rebind};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::Sema;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;

/// Apply one random within-statement mutation to a random statement of the
/// case; the result keeps the exact same SQL Type Sequence.
pub fn conventional_mutate(case: &TestCase, rng: &mut SmallRng) -> TestCase {
    conventional_mutate_stacked(case, rng, 1)
}

/// Apply up to `stack` within-statement mutations (SQUIRREL stacks several
/// structure/data edits per generated input). The mutant shares the seed's
/// statements; only a mutated one, or one the validator rewrites, is copied.
pub fn conventional_mutate_stacked(case: &TestCase, rng: &mut SmallRng, stack: usize) -> TestCase {
    let mut out = case.clone();
    if out.statements.is_empty() {
        return out;
    }
    let n = rng.gen_range(1..=stack.max(1));
    for _ in 0..n {
        let idx = rng.gen_range(0..out.statements.len());
        let schema = SchemaModel::of_statements(&out.statements[..idx]);
        let cols = schema.random_table(rng).map_or(&[][..], |t| &t.columns);
        let before = out.statements[idx].kind();
        mutate_statement(Arc::make_mut(&mut out.statements[idx]), cols, rng);
        debug_assert_eq!(
            out.statements[idx].kind(),
            before,
            "conventional mutation changed the type"
        );
    }
    fix_case(&mut out, rng);
    out
}

/// The relation name a statement *introduces* (as opposed to references);
/// [`sema_repair`] must not rewrite it, or a CREATE would collide with the
/// very relation the repair redirected it to.
fn defined_relation(stmt: &Statement) -> Option<&str> {
    match stmt {
        Statement::CreateTable(c) => Some(&c.name),
        Statement::CreateView(c) => Some(&c.name),
        Statement::CreateTableAs { name, .. } => Some(name),
        Statement::AlterTable(a) => match &a.action {
            AlterTableAction::RenameTo(n) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

/// Dependency repair for `--sema` campaigns: walk the static binder over the
/// case and rewrite every table reference the binder can *prove* dangling
/// (the relation definitely does not exist at that point) to the
/// alphabetically first relation in scope. Definition targets are exempt,
/// and references the binder is merely unsure about are left alone — only
/// provably-dead edges get repaired. The binder steps over each repaired
/// statement, so later statements bind against the post-repair scope.
///
/// Deterministic by construction (no RNG draws), which keeps `--sema`
/// campaigns replay-identical. Returns the number of rewritten references.
/// A statement is copied (if shared) only when it holds such a reference.
pub fn sema_repair(case: &mut TestCase, dialect: Dialect) -> usize {
    let mut binder = Sema::new(dialect).binder();
    let mut repaired = 0usize;
    for stmt in &mut case.statements {
        if let Some(target) = binder.first_relation_in_scope() {
            let defined = defined_relation(stmt).map(str::to_owned);
            let dangling =
                |t: &str| defined.as_deref() != Some(t) && binder.relation_definitely_absent(t);
            let mut any = false;
            inspect(stmt, |t| any |= dangling(t), |_c| {}, |_l| {});
            if any {
                rebind(
                    Arc::make_mut(stmt),
                    |t: &mut String| {
                        if dangling(t) {
                            *t = target.to_owned();
                            repaired += 1;
                        }
                    },
                    |_c| {},
                    |_l| {},
                );
            }
        }
        binder.step(stmt);
    }
    repaired
}

fn mutate_statement(stmt: &mut Statement, cols: &[ColumnModel], rng: &mut SmallRng) {
    // Try a structure mutation specific to the statement shape; fall back to
    // literal tweaking, which applies to anything with data.
    let done = match stmt {
        Statement::Select(s) => mutate_query(&mut s.query, cols, rng),
        Statement::Update(u) => {
            match rng.gen_range(0..3) {
                0 => {
                    u.where_ = if u.where_.is_some() && rng.gen_bool(0.5) {
                        None
                    } else {
                        Some(gen_expr(cols, rng, 2))
                    };
                }
                1 => {
                    if let Some((_, e)) = u.assignments.first_mut() {
                        *e = gen_expr(cols, rng, 1);
                    }
                }
                _ => {
                    if !cols.is_empty() {
                        let c = &cols[rng.gen_range(0..cols.len())];
                        u.assignments.push((c.name.clone(), gen_literal(c.ty, rng)));
                    }
                }
            }
            true
        }
        Statement::Delete(d) => {
            d.where_ = if d.where_.is_some() && rng.gen_bool(0.4) {
                None
            } else {
                Some(gen_expr(cols, rng, 2))
            };
            true
        }
        Statement::Insert(i) => {
            match (&mut i.source, rng.gen_range(0..3)) {
                (InsertSource::Values(rows), 0) => {
                    // Add a row shaped like the first.
                    if let Some(first) = rows.first().cloned() {
                        rows.push(first.iter().map(|_| gen_literal(DataType::Int, rng)).collect());
                    }
                    true
                }
                (InsertSource::Values(rows), 1) => {
                    if rows.len() > 1 {
                        let k = rng.gen_range(0..rows.len());
                        rows.remove(k);
                    }
                    true
                }
                _ => {
                    // Toggling IGNORE is a structure change, not a type change.
                    i.ignore = !i.ignore;
                    true
                }
            }
        }
        Statement::CreateIndex(ci) => {
            ci.unique = !ci.unique;
            true
        }
        Statement::CreateView(v) => mutate_query(&mut v.query, cols, rng),
        Statement::With(w) => match &mut *w.body {
            Statement::Select(s) => mutate_query(&mut s.query, cols, rng),
            Statement::Delete(d) => {
                d.where_ = Some(gen_expr(cols, rng, 1));
                true
            }
            _ => false,
        },
        _ => false,
    };
    if !done {
        // Data mutation: perturb literals in place.
        rebind(
            stmt,
            |_t| {},
            |_c| {},
            |l| {
                if rng.gen_bool(0.5) {
                    match l {
                        Expr::Integer(v) => {
                            *v = v
                                .wrapping_add(rng.gen_range(-10i64..100))
                                .wrapping_mul(if rng.gen_bool(0.1) { -1 } else { 1 })
                        }
                        Expr::Float(v) => *v *= 2.5,
                        Expr::Str(s) => s.push('x'),
                        Expr::Bool(b) => *b = !*b,
                        _ => {}
                    }
                }
            },
        );
    }
}

/// Structure mutations over a query (the grey "mutation areas" of Fig. 1).
fn mutate_query(q: &mut Query, cols: &[ColumnModel], rng: &mut SmallRng) -> bool {
    match rng.gen_range(0..6) {
        0 => {
            // WHERE add/replace/remove — the paper's running example turns
            // `WHERE v1=1` into `ORDER BY v1`.
            if let SetExpr::Select(sel) = &mut q.body {
                sel.where_ = if sel.where_.is_some() && rng.gen_bool(0.4) {
                    None
                } else {
                    Some(gen_expr(cols, rng, 2))
                };
                return true;
            }
            false
        }
        1 => {
            if q.order_by.is_empty() && !cols.is_empty() {
                q.order_by.push(OrderItem {
                    expr: Expr::col(cols[rng.gen_range(0..cols.len())].name.clone()),
                    desc: rng.gen_bool(0.5),
                });
            } else if !q.order_by.is_empty() {
                if rng.gen_bool(0.5) {
                    q.order_by[0].desc = !q.order_by[0].desc;
                } else {
                    q.order_by.clear();
                }
            }
            true
        }
        2 => {
            if let SetExpr::Select(sel) = &mut q.body {
                sel.distinct = !sel.distinct;
                return true;
            }
            false
        }
        3 => {
            q.limit = match q.limit {
                Some(_) if rng.gen_bool(0.4) => None,
                _ => Some(Expr::Integer(rng.gen_range(0..100))),
            };
            true
        }
        4 => {
            if let SetExpr::Select(sel) = &mut q.body {
                if sel.group_by.is_empty() && !cols.is_empty() {
                    let key = cols[rng.gen_range(0..cols.len())].name.clone();
                    sel.group_by = vec![Expr::col(key.clone())];
                    sel.projection = vec![
                        SelectItem::Expr { expr: Expr::col(key), alias: None },
                        SelectItem::Expr { expr: Expr::Func(FuncCall::star("COUNT")), alias: None },
                    ];
                } else {
                    sel.group_by.clear();
                }
                return true;
            }
            false
        }
        _ => {
            if let SetExpr::Select(sel) = &mut q.body {
                if !cols.is_empty() && rng.gen_bool(0.35) {
                    // Window-function projection (structure-level mutation).
                    let wf = ["ROW_NUMBER", "RANK", "LEAD"][rng.gen_range(0..3)];
                    let args = if wf == "LEAD" { vec![gen_expr(cols, rng, 0)] } else { vec![] };
                    sel.projection.push(SelectItem::Expr {
                        expr: Expr::Window {
                            func: Box::new(FuncCall::new(wf, args)),
                            spec: Box::new(WindowSpec {
                                partition_by: vec![],
                                order_by: vec![OrderItem {
                                    expr: Expr::col(
                                        cols[rng.gen_range(0..cols.len())].name.clone(),
                                    ),
                                    desc: false,
                                }],
                                frame: None,
                            }),
                        },
                        alias: None,
                    });
                } else {
                    sel.projection = vec![if rng.gen_bool(0.5) {
                        SelectItem::Star
                    } else {
                        SelectItem::Expr { expr: gen_expr(cols, rng, 1), alias: None }
                    }];
                }
                return true;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lego_sqlparser::parse_script;
    use rand::SeedableRng;

    fn fig1_seed() -> TestCase {
        parse_script(
            "CREATE TABLE t1 (v1 INT, v2 INT);\n\
             INSERT INTO t1 VALUES (1, 1);\n\
             INSERT INTO t1 VALUES (2, 1);\n\
             SELECT v2 FROM t1 WHERE v1 = 1;",
        )
        .unwrap()
    }

    #[test]
    fn conventional_mutation_preserves_type_sequence() {
        let seed = fig1_seed();
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let mutant = conventional_mutate(&seed, &mut rng);
            assert_eq!(mutant.type_sequence(), seed.type_sequence());
        }
    }

    #[test]
    fn conventional_mutation_changes_something() {
        let seed = fig1_seed();
        let mut rng = SmallRng::seed_from_u64(10);
        let changed =
            (0..50).map(|_| conventional_mutate(&seed, &mut rng)).filter(|m| *m != seed).count();
        assert!(changed > 30, "mutations were mostly no-ops: {changed}/50");
    }

    #[test]
    fn sema_repair_rewrites_dangling_references() {
        let mut case = parse_script(
            "CREATE TABLE t1 (v1 INT);\n\
             INSERT INTO missing VALUES (1);\n\
             SELECT * FROM nowhere;",
        )
        .unwrap();
        let n = sema_repair(&mut case, Dialect::Postgres);
        assert_eq!(n, 2, "both dangling references repaired: {}", case.to_sql());
        let sql = case.to_sql();
        assert!(!sql.contains("missing") && !sql.contains("nowhere"), "{sql}");
        // The repaired case now executes cleanly.
        let mut db = lego_dbms::Dbms::new(lego_sqlast::Dialect::Postgres);
        let r = db.execute_case(&case);
        assert!(r.errors.is_empty(), "repaired case still errors: {:?}", r.errors);
    }

    #[test]
    fn sema_repair_is_deterministic_and_leaves_valid_cases_alone() {
        let mut a = fig1_seed();
        let mut b = fig1_seed();
        assert_eq!(sema_repair(&mut a, Dialect::Postgres), 0);
        assert_eq!(sema_repair(&mut b, Dialect::Postgres), 0);
        assert_eq!(a, b);
        assert_eq!(a, fig1_seed(), "valid case must be untouched");
    }

    #[test]
    fn sema_repair_exempts_definition_targets() {
        // The CREATE's own name is absent by definition; repairing it into
        // the in-scope relation would produce a duplicate-table collision.
        let mut case = parse_script(
            "CREATE TABLE t1 (v1 INT);\n\
             CREATE TABLE t2 (v1 INT);",
        )
        .unwrap();
        assert_eq!(sema_repair(&mut case, Dialect::Postgres), 0);
        assert!(case.to_sql().contains("t2"));
    }

    /// `conventional_mutate_stacked` as it was before it borrowed the
    /// random table's columns: a copy of them per mutation.
    fn reference_conventional_mutate_stacked(
        case: &TestCase,
        rng: &mut SmallRng,
        stack: usize,
    ) -> TestCase {
        let mut out = case.clone();
        if out.statements.is_empty() {
            return out;
        }
        let n = rng.gen_range(1..=stack.max(1));
        for _ in 0..n {
            let idx = rng.gen_range(0..out.statements.len());
            let schema = SchemaModel::of_statements(&out.statements[..idx]);
            let cols = schema.random_table(rng).map(|t| t.columns.clone()).unwrap_or_default();
            mutate_statement(Arc::make_mut(&mut out.statements[idx]), &cols, rng);
        }
        fix_case(&mut out, rng);
        out
    }

    #[test]
    fn conventional_mutants_match_the_clone_based_reference_on_generated_cases() {
        for dialect in Dialect::ALL {
            for (n, case) in crate::testutil::generated_cases(dialect).iter().enumerate() {
                for stack in [1, 3] {
                    let seed = (n as u64) << 2 | stack as u64;
                    let (mut rng_new, mut rng_old) =
                        (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                    let new = conventional_mutate_stacked(case, &mut rng_new, stack);
                    let old = reference_conventional_mutate_stacked(case, &mut rng_old, stack);
                    let what = format!("{dialect:?} case {n}, stack {stack}: {}", case.to_sql());
                    assert_eq!(new, old, "{what}");
                    assert_eq!(rng_new.gen::<u64>(), rng_old.gen::<u64>(), "{what}");
                }
            }
        }
    }

    /// `sema_repair` as it was before statements were shared: every
    /// statement rebound by a walk that writes (so any statement the case
    /// shares is copied).
    fn clone_based_sema_repair(case: &mut TestCase, dialect: Dialect) -> usize {
        let mut binder = Sema::new(dialect).binder();
        let mut repaired = 0usize;
        for stmt in &mut case.statements {
            let stmt = Arc::make_mut(stmt);
            if let Some(target) = binder.first_relation_in_scope() {
                let defined = defined_relation(stmt).map(str::to_owned);
                rebind(
                    stmt,
                    |t: &mut String| {
                        if defined.as_deref() != Some(t.as_str())
                            && binder.relation_definitely_absent(t)
                        {
                            *t = target.to_owned();
                            repaired += 1;
                        }
                    },
                    |_c| {},
                    |_l| {},
                );
            }
            binder.step(stmt);
        }
        repaired
    }

    #[test]
    fn sema_repair_matches_its_clone_based_reference_on_generated_cases() {
        // Each generated case, and the case without its first statement (so
        // later ones lose what they refer to); once with every statement
        // also held by the generated case, and once owned alone.
        let (mut shared, mut copied) = (0usize, 0usize);
        for dialect in Dialect::ALL {
            for (n, case) in crate::testutil::generated_cases(dialect).iter().enumerate() {
                let s = &case.statements;
                for stmts in [&s[..], &s[1.min(s.len())..]] {
                    let owned = || TestCase::new(stmts.iter().map(|s| (**s).clone()).collect());
                    let mut want = owned();
                    let want_n = clone_based_sema_repair(&mut want, dialect);
                    for alone in [false, true] {
                        let mut got =
                            if alone { owned() } else { TestCase::shared(stmts.to_vec()) };
                        let got_n = sema_repair(&mut got, dialect);
                        let what = format!("{dialect:?} case {n}, owned alone: {alone}\n{want}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(got_n, want_n, "{what}");
                        if !alone {
                            shared += stmts.len();
                            copied += got
                                .statements
                                .iter()
                                .zip(stmts)
                                .filter(|(a, b)| !Arc::ptr_eq(a, b))
                                .count();
                        }
                    }
                }
            }
        }
        assert!(copied > 0 && copied * 4 < shared, "{copied} of {shared} copied");
    }

    #[test]
    fn mutants_remain_executable() {
        let seed = fig1_seed();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut clean = 0;
        for _ in 0..50 {
            let mutant = conventional_mutate(&seed, &mut rng);
            let mut db = lego_dbms::Dbms::new(lego_sqlast::Dialect::Postgres);
            let r = db.execute_case(&mutant);
            if r.errors.is_empty() {
                clean += 1;
            }
        }
        assert!(clean >= 35, "only {clean}/50 mutants executed cleanly");
    }
}
