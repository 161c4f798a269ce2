//! Cross-dialect differential oracle.
//!
//! The four dialect profiles intentionally differ in surface area (windows,
//! triggers, foreign-key enforcement, …), but on a shared-semantics core —
//! plain `CREATE TABLE` / `INSERT` / `UPDATE` / `DELETE` / window-free
//! `SELECT` — they must agree. This oracle projects a case onto that
//! neutral core, replays it on one fresh instance per dialect, and flags a
//! `SELECT` whose result-set fingerprint diverges between profiles.
//!
//! Soundness guard: a divergence is only reported while every dialect has
//! agreed on the accept/reject status of *every preceding neutral
//! statement*. The first status disagreement ends the comparison for the
//! rest of the case (the database states may legitimately differ from that
//! point on); it is recorded as expected dialect divergence, not a bug.

use crate::{plain_select, LogicBug, OracleKind, OracleOutcome};
use lego_dbms::Dbms;
use lego_sqlast::ast::{Query, SelectItem, SetExpr, Statement};
use lego_sqlast::{Dialect, Expr, TestCase};
use std::sync::Arc;

pub(crate) fn check(
    cross: &mut [Dbms],
    dialect: Dialect,
    case: &TestCase,
    out: &mut OracleOutcome,
) {
    let neutral: Vec<&Arc<Statement>> =
        case.statements.iter().filter(|s| neutral_statement(s)).collect();
    if !neutral.iter().any(|s| plain_select(s).is_some()) {
        return;
    }
    for db in cross.iter_mut() {
        db.reset();
    }
    for (idx, stmt) in neutral.iter().enumerate() {
        // For SELECTs capture the result fingerprint first (queries do not
        // mutate state), then advance every dialect through the statement
        // and compare accept/reject statuses.
        let fps: Option<Vec<Result<(u64, usize), ()>>> = plain_select(stmt).map(|q| {
            cross
                .iter_mut()
                .map(|db| {
                    out.execs += 1;
                    db.run_query(q).map(|rs| (rs.fingerprint(), rs.rows.len())).map_err(|_| ())
                })
                .collect()
        });
        let mut statuses = Vec::with_capacity(cross.len());
        for db in cross.iter_mut() {
            let rep = db.execute_case(&TestCase::shared(vec![Arc::clone(stmt)]));
            out.execs += rep.statements_executed.max(1);
            statuses.push(rep.crash().is_none() && rep.errors.is_empty());
            db.recycle(rep.coverage);
        }
        if let Some(fps) = fps {
            if fps.iter().all(|r| r.is_ok()) {
                out.checks += 1;
                let first = fps[0];
                if fps.iter().any(|f| *f != first) {
                    let counts: Vec<String> = Dialect::ALL
                        .iter()
                        .zip(&fps)
                        .map(|(d, f)| match f {
                            Ok((fp, n)) => format!("{}: {} rows (fp {:016x})", d.name(), n, fp),
                            Err(()) => format!("{}: error", d.name()),
                        })
                        .collect();
                    out.bugs.push(LogicBug {
                        oracle: OracleKind::Differential,
                        dialect,
                        statement: idx,
                        query: q_sql(stmt),
                        detail: format!(
                            "dialects disagree on a neutral-core query: {}",
                            counts.join("; ")
                        ),
                    });
                }
            }
        }
        // Expected divergence: one dialect rejected a statement the others
        // accepted (or vice versa). States may differ from here on.
        if statuses.iter().any(|&s| s != statuses[0]) {
            return;
        }
    }
}

fn q_sql(stmt: &Statement) -> String {
    plain_select(stmt).map(|q| q.to_string()).unwrap_or_else(|| stmt.to_string())
}

/// Statements whose semantics the four profiles share. Everything else
/// (DDL beyond plain tables, triggers, rules, transactions, session state,
/// privilege changes, dialect-specific INSERT modifiers, window functions)
/// is projected away before replay.
fn neutral_statement(stmt: &Statement) -> bool {
    match stmt {
        Statement::CreateTable(_) | Statement::Update(_) | Statement::Delete(_) => true,
        Statement::Insert(i) => !i.ignore && !i.replace,
        Statement::Select(_) => match plain_select(stmt) {
            Some(q) => !query_has_window(q),
            None => false,
        },
        _ => false,
    }
}

fn query_has_window(q: &Query) -> bool {
    match &q.body {
        SetExpr::Select(sel) => sel.projection.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr_has_window(expr),
            _ => false,
        }),
        // Set operations / VALUES are not produced with windows by the
        // generators; treat them as neutral.
        _ => false,
    }
}

fn expr_has_window(e: &Expr) -> bool {
    match e {
        Expr::Window { .. } => true,
        Expr::Unary(_, inner) => expr_has_window(inner),
        Expr::Binary(l, _, r) => expr_has_window(l) || expr_has_window(r),
        Expr::Cast { expr, .. } => expr_has_window(expr),
        Expr::Case { operand, whens, else_ } => {
            operand.as_deref().is_some_and(expr_has_window)
                || whens.iter().any(|(w, t)| expr_has_window(w) || expr_has_window(t))
                || else_.as_deref().is_some_and(expr_has_window)
        }
        Expr::Func(f) => f.args.iter().any(expr_has_window),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OracleConfig, OracleSuite};
    use lego_sqlparser::parse_script;

    fn diff_only() -> OracleConfig {
        OracleConfig { tlp: false, norec: false, differential: true, recovery: false }
    }

    fn case(sql: &str) -> TestCase {
        parse_script(sql).expect("test SQL parses")
    }

    #[test]
    fn neutral_core_agrees_across_dialects() {
        let mut s = OracleSuite::new(Dialect::Postgres, diff_only());
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, 'y'), (NULL, 'z');
             UPDATE t SET b = 'w' WHERE a = 2;
             DELETE FROM t WHERE a IS NULL;
             SELECT * FROM t WHERE a < 10;
             SELECT b FROM t;",
        ));
        assert!(out.bugs.is_empty(), "{:?}", out.bugs);
        assert_eq!(out.checks, 2);
    }

    #[test]
    fn non_neutral_statements_are_projected_away() {
        let mut s = OracleSuite::new(Dialect::Postgres, diff_only());
        // The trigger would fire on MySQL-family but Comdb2 has no triggers;
        // projecting it away keeps the replay comparable.
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT);
             CREATE TRIGGER trg AFTER INSERT ON t FOR EACH ROW INSERT INTO t VALUES (2);
             INSERT INTO t VALUES (1);
             SELECT * FROM t;",
        ));
        assert!(out.bugs.is_empty(), "{:?}", out.bugs);
        assert_eq!(out.checks, 1);
    }

    #[test]
    fn case_without_selects_is_skipped() {
        let mut s = OracleSuite::new(Dialect::Postgres, diff_only());
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1);",
        ));
        assert_eq!(out.checks, 0);
        assert_eq!(out.execs, 0, "no SELECT in the neutral core: no replay at all");
    }
}
