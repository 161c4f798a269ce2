//! Emit a regression corpus: one minimal crashing reproducer per planted
//! bug, written to `corpus/regression/<identifier>.sql`.
//!
//! Mirrors the paper's § V.B outcome, where PostgreSQL developers "added new
//! test cases which have the SQL Type Sequence CREATE RULE → NOTIFY → COPY →
//! WITH to do regression test". Replay any file with
//! `lego_cli replay <dbms> <file>`.
//!
//! Usage: `make_regression_corpus [OUT]` — OUT defaults to
//! `corpus/regression`.

use lego::reduce::reduce_case;
use lego_bench::grid::Cli;
use lego_dbms::{bugs, Dbms};
use lego_sqlast::{Dialect, TestCase};
use std::path::PathBuf;

fn main() {
    let cli = Cli::parse(&["OUT"], &[]);
    let out = cli
        .positional
        .first()
        .map(PathBuf::from)
        .unwrap_or_else(|| lego_bench::results_dir().join("../corpus/regression"));
    std::fs::create_dir_all(&out).expect("create corpus dir");
    let mut written = 0usize;
    let mut missed: Vec<&str> = Vec::new();
    for bug in bugs::manifest() {
        let script = match bug.special {
            Some(_) => Some(
                lego_sqlparser::parse_script(
                    "CREATE TABLE v0 (v1 INT);\n\
                     CREATE RULE r0 AS ON INSERT TO v0 DO INSTEAD NOTIFY ch;\n\
                     COPY (SELECT 1) TO STDOUT;\n\
                     WITH w AS (INSERT INTO v0 VALUES (1)) DELETE FROM v0 WHERE v1 = 0;",
                )
                .expect("case-study script"),
            ),
            None => craft(bug),
        };
        let Some(case) = script else {
            missed.push(&bug.identifier);
            continue;
        };
        let crash = match Dbms::new(bug.dialect).execute_case(&case).crash().cloned() {
            Some(c) => c,
            None => {
                missed.push(&bug.identifier);
                continue;
            }
        };
        let (reduced, _) = reduce_case(&case, bug.dialect, &crash);
        let name = bug.identifier.replace([' ', '#', '/'], "_").to_ascii_lowercase();
        let header = format!(
            "-- {} | {} | {} | {}\n",
            crash.identifier,
            bug.dialect.name(),
            bug.component.name(),
            bug.bug_type.name()
        );
        std::fs::write(out.join(format!("{name}.sql")), header + &reduced.to_sql())
            .expect("write reproducer");
        written += 1;
    }
    println!("wrote {written} reproducers to {} ({} not crafted)", out.display(), missed.len());
    if !missed.is_empty() {
        println!("not crafted: {missed:?}");
    }
}

/// Craft a triggering script for a pattern bug (same construction as the
/// `bug_reachability` integration test).
fn craft(bug: &bugs::BugSpec) -> Option<TestCase> {
    use bugs::StateReq;
    let mut statements = Vec::new();
    statements.push(lego_sqlparser::parse_statement("CREATE TABLE t0 (a INT, b INT);").ok()?);
    statements.push(lego_sqlparser::parse_statement("INSERT INTO t0 VALUES (1, 1), (2, 2);").ok()?);
    match bug.state {
        StateReq::TriggerExists => statements.push(
            lego_sqlparser::parse_statement(
                "CREATE TRIGGER tr0 AFTER DELETE ON t0 FOR EACH ROW DELETE FROM t0;",
            )
            .ok()?,
        ),
        StateReq::RuleExists => statements.push(
            lego_sqlparser::parse_statement("CREATE RULE r0 AS ON DELETE TO t0 DO NOTHING;")
                .ok()?,
        ),
        StateReq::InTransaction => statements.push(lego_sqlparser::parse_statement("BEGIN;").ok()?),
        StateReq::IndexExists => {
            statements.push(lego_sqlparser::parse_statement("CREATE INDEX ix0 ON t0 (a);").ok()?)
        }
        StateReq::ViewExists => statements
            .push(lego_sqlparser::parse_statement("CREATE VIEW vw0 AS SELECT a FROM t0;").ok()?),
        _ => {}
    }
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(900 + bug.id as u64);
    let mut schema = lego::gen::SchemaModel::new();
    for s in &statements {
        schema.observe(s);
    }
    for (i, &kind) in bug.pattern.iter().enumerate() {
        let structural =
            if i + 1 == bug.pattern.len() { bug.structural } else { bugs::Structural::Any };
        let stmt = crafted_stmt(kind, structural, &schema, bug.dialect, &mut rng);
        schema.observe(&stmt);
        statements.push(stmt);
    }
    Some(TestCase::new(statements))
}

fn crafted_stmt(
    kind: lego_sqlast::StmtKind,
    structural: bugs::Structural,
    schema: &lego::gen::SchemaModel,
    dialect: Dialect,
    rng: &mut rand::rngs::SmallRng,
) -> lego_sqlast::Statement {
    use bugs::Structural;
    use lego_sqlast::kind::StandaloneKind as K;
    use lego_sqlast::StmtKind;
    // For the structural-sensitive shapes reuse simple SQL text; everything
    // else comes from the generator.
    let sql = match (kind, structural) {
        (StmtKind::Other(K::Select), Structural::WindowFunction) => {
            Some("SELECT LEAD(a) OVER (ORDER BY a) FROM t0;")
        }
        (StmtKind::Other(K::Select), Structural::GroupBy) => {
            Some("SELECT a, COUNT(*) FROM t0 GROUP BY a;")
        }
        (StmtKind::Other(K::Select), Structural::OrderBy) => Some("SELECT * FROM t0 ORDER BY a;"),
        (StmtKind::Other(K::Select), Structural::WhereClause) => {
            Some("SELECT * FROM t0 WHERE a > 0;")
        }
        (StmtKind::Other(K::Select), Structural::Distinct) => Some("SELECT DISTINCT a FROM t0;"),
        (StmtKind::Other(K::Select), Structural::Join) => {
            Some("SELECT * FROM t0 AS x CROSS JOIN t0 AS y;")
        }
        (StmtKind::Other(K::Select), Structural::SetOperation) => {
            Some("SELECT a FROM t0 UNION ALL SELECT b FROM t0;")
        }
        (StmtKind::Other(K::SelectV), _) => Some("SELECTV * FROM t0;"),
        (StmtKind::Other(K::Insert), Structural::InsertIgnore) => {
            Some("INSERT IGNORE INTO t0 VALUES (3, 3);")
        }
        (StmtKind::Other(K::Insert), _) => Some("INSERT INTO t0 VALUES (3, 3);"),
        (StmtKind::Other(K::Update), Structural::WhereClause) => {
            Some("UPDATE t0 SET a = 9 WHERE a >= 0;")
        }
        (StmtKind::Other(K::Update), _) => Some("UPDATE t0 SET a = 9;"),
        (StmtKind::Other(K::Delete), Structural::WhereClause) => {
            Some("DELETE FROM t0 WHERE a < 0;")
        }
        (StmtKind::Other(K::Delete), _) => Some("DELETE FROM t0 WHERE a < -999;"),
        _ => None,
    };
    match sql {
        Some(text) => lego_sqlparser::parse_statement(text).expect("crafted SQL"),
        None => lego::gen::gen_statement(kind, schema, dialect, rng),
    }
}
