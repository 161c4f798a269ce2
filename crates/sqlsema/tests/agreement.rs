//! Analyzer-vs-engine agreement: the soundness contract of the crate.
//!
//! For any sequence the engine executes cleanly (`Outcome::Ok`):
//!   * a statement the analyzer `Accept`s must not have errored, and
//!   * a statement the analyzer `Reject`s must have errored.
//!
//! `Unknown` makes no claim. The deterministic scripts below pin specific
//! binder rules; the property tests at the bottom sweep generator-produced
//! sequences across all four dialect profiles.

use lego::gen::{gen_statement, SchemaModel};
use lego_dbms::engine::Outcome;
use lego_dbms::Dbms;
use lego_sqlast::{Dialect, Statement, TestCase};
use lego_sqlsema::{Sema, Verdict};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Check the agreement contract for one statement sequence, returning the
/// analyzer's verdicts for further assertions.
fn check_agreement(dialect: Dialect, stmts: &[Statement]) -> Vec<Verdict> {
    let sema = Sema::new(dialect);
    let report = sema.check_sequence(stmts);
    let case = TestCase::new(stmts.to_vec());
    let mut db = Dbms::new(dialect);
    let exec = db.execute_case(&case);
    let verdicts: Vec<Verdict> = report.verdicts.iter().map(|v| v.verdict).collect();
    if !matches!(exec.outcome, Outcome::Ok) {
        // Budget-tripped / crashed: the conformance contract makes no claim.
        return verdicts;
    }
    for (i, v) in report.verdicts.iter().enumerate().take(exec.statements_executed) {
        let errored = exec.stmt_errors.contains(&i);
        match v.verdict {
            Verdict::Accept => assert!(
                !errored,
                "stmt {i} ({}) analyzer-Accept but engine errored on {dialect:?}\n\
                 case:\n{}\nengine errors: {:?}",
                stmts[i], case, exec.errors
            ),
            Verdict::Reject => assert!(
                errored,
                "stmt {i} ({}) analyzer-Reject ({:?}) but engine accepted on {dialect:?}\n\
                 case:\n{}",
                stmts[i], v.reason, case
            ),
            Verdict::Unknown => {}
        }
    }
    verdicts
}

fn agree_script(dialect: Dialect, sql: &str) -> Vec<Verdict> {
    let case = lego_sqlparser::parse_script(sql).expect("test script must parse");
    let stmts: Vec<Statement> = case.statements.iter().map(|s| (**s).clone()).collect();
    check_agreement(dialect, &stmts)
}

// -- deterministic rule pins -------------------------------------------------

#[test]
fn literal_select_is_always_ok() {
    let v = agree_script(Dialect::Postgres, "SELECT 1;");
    assert_eq!(v, vec![Verdict::Accept]);
}

#[test]
fn select_from_missing_table_rejects() {
    let v = agree_script(Dialect::Postgres, "SELECT * FROM missing;");
    assert_eq!(v, vec![Verdict::Reject]);
}

#[test]
fn table_lifecycle() {
    let v = agree_script(
        Dialect::Postgres,
        "CREATE TABLE t1 (v1 INT);\n\
         CREATE TABLE t1 (v1 INT);\n\
         DROP TABLE t1;\n\
         DROP TABLE t1;\n\
         DROP TABLE IF EXISTS t1;",
    );
    assert_eq!(
        v,
        vec![
            Verdict::Accept,
            Verdict::Reject, // duplicate
            Verdict::Accept,
            Verdict::Reject, // already gone
            Verdict::Accept, // IF EXISTS no-op
        ]
    );
}

#[test]
fn duplicate_column_rejects() {
    let v = agree_script(Dialect::Postgres, "CREATE TABLE t1 (v1 INT, v1 TEXT);");
    assert_eq!(v, vec![Verdict::Reject]);
}

#[test]
fn commit_without_transaction_rejects() {
    let v = agree_script(Dialect::Postgres, "COMMIT;\nBEGIN;\nCOMMIT;\nCOMMIT;");
    assert_eq!(v, vec![Verdict::Reject, Verdict::Accept, Verdict::Accept, Verdict::Reject]);
}

#[test]
fn rollback_restores_catalog() {
    let v = agree_script(
        Dialect::Postgres,
        "BEGIN;\n\
         CREATE TABLE t1 (v1 INT);\n\
         ROLLBACK;\n\
         SELECT * FROM t1;",
    );
    assert_eq!(v[2], Verdict::Accept);
    assert_eq!(v[3], Verdict::Reject); // t1 rolled away
}

#[test]
fn savepoint_outside_transaction_rejects() {
    let v = agree_script(Dialect::Postgres, "SAVEPOINT s1;");
    assert_eq!(v, vec![Verdict::Reject]);
}

#[test]
fn savepoint_restore_tracks_catalog() {
    let v = agree_script(
        Dialect::Postgres,
        "BEGIN;\n\
         CREATE TABLE t1 (v1 INT);\n\
         SAVEPOINT s1;\n\
         DROP TABLE t1;\n\
         ROLLBACK TO SAVEPOINT s1;\n\
         SELECT * FROM t1;\n\
         ROLLBACK TO SAVEPOINT missing;",
    );
    assert_eq!(v[4], Verdict::Accept);
    assert_eq!(v[6], Verdict::Reject); // unknown savepoint name
}

#[test]
fn mysql_ddl_implicitly_commits() {
    // The CREATE TABLE closes the transaction, so the explicit COMMIT and a
    // savepoint rollback both fail afterwards.
    let v = agree_script(
        Dialect::MySql,
        "BEGIN;\n\
         SAVEPOINT s1;\n\
         CREATE TABLE t1 (v1 INT);\n\
         COMMIT;\n\
         ROLLBACK TO SAVEPOINT s1;",
    );
    assert_eq!(v[3], Verdict::Reject);
    assert_eq!(v[4], Verdict::Reject);
}

#[test]
fn postgres_ddl_does_not_commit() {
    let v = agree_script(Dialect::Postgres, "BEGIN;\nCREATE TABLE t1 (v1 INT);\nCOMMIT;");
    assert_eq!(v, vec![Verdict::Accept, Verdict::Accept, Verdict::Accept]);
}

#[test]
fn index_cascades_with_table_drop() {
    let v = agree_script(
        Dialect::Postgres,
        "CREATE TABLE t1 (v1 INT);\n\
         CREATE INDEX i1 ON t1 (v1);\n\
         CREATE INDEX i2 ON t1 (v9);\n\
         DROP TABLE t1;\n\
         DROP INDEX i1;",
    );
    assert_eq!(v[1], Verdict::Accept);
    assert_eq!(v[2], Verdict::Reject); // no column v9
    assert_eq!(v[4], Verdict::Reject); // index went with the table
}

#[test]
fn insert_into_missing_or_view_rejects() {
    let v = agree_script(
        Dialect::Postgres,
        "INSERT INTO t1 VALUES (1);\n\
         CREATE TABLE t1 (v1 INT);\n\
         INSERT INTO t1 VALUES (1);",
    );
    assert_eq!(v[0], Verdict::Reject);
    assert_ne!(v[2], Verdict::Reject);
}

#[test]
fn alter_table_column_rules() {
    let v = agree_script(
        Dialect::Postgres,
        "CREATE TABLE t1 (v1 INT, v2 TEXT);\n\
         ALTER TABLE t1 DROP COLUMN v9;\n\
         ALTER TABLE t1 DROP COLUMN v2;\n\
         ALTER TABLE t1 DROP COLUMN v1;\n\
         ALTER TABLE t9 ADD COLUMN v1 INT;",
    );
    assert_eq!(v[1], Verdict::Reject); // no such column
    assert_eq!(v[2], Verdict::Accept);
    assert_eq!(v[3], Verdict::Reject); // last remaining column
    assert_eq!(v[4], Verdict::Reject); // no such table
}

#[test]
fn unsupported_kind_rejects() {
    // MySQL has no CREATE RULE in its inventory.
    let v = agree_script(
        Dialect::MySql,
        "CREATE TABLE t1 (v1 INT);\nCREATE RULE r1 AS ON UPDATE TO t1 DO INSTEAD NOTHING;",
    );
    assert_eq!(v[1], Verdict::Reject);
}

#[test]
fn settings_lifecycle() {
    let v = agree_script(
        Dialect::Postgres,
        "SHOW nothing_set;\n\
         SET search_path = 'public';\n\
         SHOW search_path;\n\
         RESET search_path;\n\
         SHOW search_path;",
    );
    assert_eq!(
        v,
        vec![Verdict::Reject, Verdict::Accept, Verdict::Accept, Verdict::Accept, Verdict::Reject,]
    );
}

/// The planted over-acceptance belongs to the analyzer that carries it: a
/// faulted and a fault-free analyzer, side by side on one thread, disagree
/// on a bare `COMMIT`.
#[test]
fn planted_overacceptance_belongs_to_one_analyzer() {
    use lego_dbms::faults::Faults;

    let stmts = lego_sqlparser::parse_script("CREATE TABLE t (a INT); COMMIT;").unwrap().statements;
    let clean = Sema::new(Dialect::Postgres);
    let mut faulted = Sema::new(Dialect::Postgres);
    faulted.set_faults(Faults { overaccept_commit: true, ..Faults::default() });
    let verdict = |sema: &Sema| sema.check_sequence(&stmts).verdicts[1].verdict;
    assert_eq!(verdict(&clean), Verdict::Reject);
    assert_eq!(verdict(&faulted), Verdict::Accept);
}

// -- generator sweep ---------------------------------------------------------

const DIALECTS: [Dialect; 4] =
    [Dialect::Postgres, Dialect::MySql, Dialect::MariaDb, Dialect::Comdb2];

fn random_sequence(dialect: Dialect, seed: u64, len: usize) -> Vec<Statement> {
    let kinds = dialect.supported_kinds();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schema = SchemaModel::new();
    let mut stmts = Vec::with_capacity(len);
    for _ in 0..len {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let stmt = gen_statement(kind, &schema, dialect, &mut rng);
        schema.observe(&stmt);
        stmts.push(stmt);
    }
    stmts
}

/// Sweep generator output through the agreement contract. 256 seeds x 4
/// dialects x 12-statement sequences exercises every statement kind many
/// times over (the generator draws kinds uniformly from the dialect
/// inventory).
#[test]
fn generated_sequences_agree() {
    for dialect in DIALECTS {
        for seed in 0..256u64 {
            let stmts = random_sequence(dialect, 0x5e11_a000 ^ seed, 12);
            check_agreement(dialect, &stmts);
        }
    }
}

/// Longer sequences hit deeper abstract states (fog, savepoint stacks,
/// implicit commits interleaved with TCL).
#[test]
fn generated_long_sequences_agree() {
    for dialect in DIALECTS {
        for seed in 0..64u64 {
            let stmts = random_sequence(dialect, 0xdeed_5eed ^ seed, 40);
            check_agreement(dialect, &stmts);
        }
    }
}

/// The analyzer must not be vacuously sound by answering `Unknown` for
/// everything: over the sweep, every dialect needs a healthy share of both
/// definite verdicts.
#[test]
fn analyzer_is_not_vacuous() {
    for dialect in DIALECTS {
        let sema = Sema::new(dialect);
        let (mut accepts, mut rejects, mut total) = (0usize, 0usize, 0usize);
        for seed in 0..128u64 {
            let stmts = random_sequence(dialect, 0xabcd_0000 ^ seed, 12);
            let rep = sema.check_sequence(&stmts);
            accepts += rep.accepts();
            rejects += rep.rejects();
            total += rep.verdicts.len();
        }
        assert!(
            accepts * 10 >= total,
            "{dialect:?}: only {accepts}/{total} statements proved Accept"
        );
        assert!(
            rejects * 50 >= total,
            "{dialect:?}: only {rejects}/{total} statements proved Reject"
        );
    }
}
