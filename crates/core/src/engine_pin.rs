//! The engine's output on generated cases, pinned.
//!
//! Every case of [`generated_cases`] runs on one [`Dbms`] of its dialect,
//! reset between cases, as a campaign runs them. Each case contributes its
//! [`lego_dbms::ExecReport`] (outcome, raw coverage counts, errors and their
//! statement positions, rows of the last query, ok and err counts) and the
//! committed-state fingerprint, and, for the query of every top-level
//! SELECT in the case, the [`lego_dbms::ResultSet`] or error that
//! [`Dbms::run_query`] gives against the case's final state. The FNV-64
//! digests of blocks of [`BLOCK`] cases are committed in
//! `tests/fixtures/engine_pin.txt`; on a mismatch the test prints the
//! dialect's actual lines.
//!
//! Campaign fixtures pin only aggregated statistics, so a change to a
//! result set that the logic oracles compare could pass them unseen.

use crate::testutil::{check_pinned, generated_cases, Fnv};
use lego_dbms::Dbms;
use lego_sqlast::ast::Statement;
use lego_sqlast::Dialect;
use std::fmt::Write;

/// Cases per digest line.
const BLOCK: usize = 250;

/// The fixture lines of one dialect: `<dialect> exec|query <first>-<last>
/// <digest>`.
fn actual_lines(dialect: Dialect) -> Vec<String> {
    let cases = generated_cases(dialect);
    let mut db = Dbms::new(dialect);
    let mut lines = Vec::new();
    let (mut exec, mut query) = (Fnv::new(), Fnv::new());
    for (n, case) in cases.iter().enumerate() {
        db.reset();
        let r = db.execute_case(case);
        let mut counts: Vec<(usize, u8)> =
            r.coverage.iter_nonzero().map(|(i, &c)| (i, c)).collect();
        counts.sort_unstable();
        let _ = writeln!(
            exec,
            "#{n} {:?} {counts:?} {:?} {:?} {} {} {} {} {:016x}",
            r.outcome,
            r.errors,
            r.stmt_errors,
            r.statements_executed,
            r.last_rows,
            r.stmts_ok,
            r.stmts_err,
            db.durable_fingerprint(),
        );
        db.recycle(r.coverage);
        let _ = write!(query, "#{n}");
        for stmt in &case.statements {
            if let Statement::Select(s) = &**stmt {
                let rs = db.run_query(&s.query);
                let _ = write!(query, " {:?}", rs.map(|rs| (rs.columns, rs.rows)));
            }
        }
        let _ = writeln!(query);
        if (n + 1) % BLOCK == 0 || n + 1 == cases.len() {
            let first = n / BLOCK * BLOCK;
            let name = dialect.name().to_ascii_lowercase();
            lines.push(format!("{name} exec {first:04}-{n:04} {:016x}", exec.0));
            lines.push(format!("{name} query {first:04}-{n:04} {:016x}", query.0));
            (exec, query) = (Fnv::new(), Fnv::new());
        }
    }
    lines
}

fn check(dialect: Dialect) {
    check_pinned("engine_pin.txt", &format!("{dialect:?}: engine output"), &actual_lines(dialect));
}

#[test]
fn postgres_engine_output_is_pinned() {
    check(Dialect::Postgres);
}

#[test]
fn mysql_engine_output_is_pinned() {
    check(Dialect::MySql);
}

#[test]
fn mariadb_engine_output_is_pinned() {
    check(Dialect::MariaDb);
}

#[test]
fn comdb2_engine_output_is_pinned() {
    check(Dialect::Comdb2);
}
