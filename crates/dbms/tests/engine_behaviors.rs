//! Behavioural tests for the simulated engines: each test drives a realistic
//! multi-statement session and checks both results and error semantics.

use lego_dbms::{Dbms, Outcome, Value};
use lego_sqlast::Dialect;

fn run(dialect: Dialect, sql: &str) -> lego_dbms::ExecReport {
    Dbms::new(dialect).execute_script(sql)
}

fn run_ok(dialect: Dialect, sql: &str) -> lego_dbms::ExecReport {
    let r = run(dialect, sql);
    assert!(matches!(r.outcome, Outcome::Ok), "outcome: {:?}", r.errors);
    assert!(r.errors.is_empty(), "errors: {:?}", r.errors);
    r
}

// -- DDL ---------------------------------------------------------------------

#[test]
fn create_table_duplicate_errors() {
    let r = run(Dialect::Postgres, "CREATE TABLE t (a INT); CREATE TABLE t (b INT);");
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("already exists"));
}

#[test]
fn create_table_if_not_exists_is_idempotent() {
    run_ok(Dialect::Postgres, "CREATE TABLE t (a INT); CREATE TABLE IF NOT EXISTS t (b INT);");
}

#[test]
fn alter_table_add_column_backfills_default() {
    let mut db = Dbms::new(Dialect::MySql);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1);\n\
         ALTER TABLE t ADD COLUMN b INT DEFAULT 7;\n\
         SELECT * FROM t WHERE b = 7;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
}

#[test]
fn alter_column_type_coerces_existing_rows() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (42);\n\
         ALTER TABLE t ALTER COLUMN a TYPE TEXT;\n\
         SELECT * FROM t WHERE a = '42';",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
}

#[test]
fn drop_column_guard_rails() {
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE t (a INT);\n\
         ALTER TABLE t DROP COLUMN a;",
    );
    assert!(r.errors[0].contains("only column"));
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE t (a INT, b INT);\n\
         CREATE INDEX i ON t (b);\n\
         ALTER TABLE t DROP COLUMN b;",
    );
    assert!(r.errors[0].contains("used by an index"));
}

#[test]
fn unique_index_creation_fails_on_duplicates() {
    let r = run(
        Dialect::MariaDb,
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (1);\n\
         CREATE UNIQUE INDEX u ON t (a);",
    );
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn generic_ddl_lifecycle() {
    let r = run_ok(
        Dialect::Postgres,
        "CREATE SEQUENCE s1;\n\
         ALTER SEQUENCE s1 RESTART;\n\
         DROP SEQUENCE s1;",
    );
    assert_eq!(r.statements_executed, 3);
    let r = run(Dialect::Postgres, "DROP SEQUENCE missing;");
    assert_eq!(r.errors.len(), 1);
}

// -- constraints ---------------------------------------------------------------

#[test]
fn not_null_and_check_constraints_enforced() {
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE t (a INT NOT NULL, b INT CHECK ((b > 0)));\n\
         INSERT INTO t VALUES (NULL, 1);\n\
         INSERT INTO t VALUES (1, -5);\n\
         INSERT INTO t VALUES (1, 5);",
    );
    assert_eq!(r.errors.len(), 2);
    assert!(r.errors[0].contains("not-null"));
    assert!(r.errors[1].contains("check"));
}

#[test]
fn primary_key_uniqueness() {
    let r = run(
        Dialect::MySql,
        "CREATE TABLE t (a INT PRIMARY KEY);\n\
         INSERT INTO t VALUES (1);\n\
         INSERT INTO t VALUES (1);",
    );
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("unique"));
}

#[test]
fn insert_ignore_swallows_violations() {
    let mut db = Dbms::new(Dialect::MariaDb);
    let r = db.execute_script(
        "CREATE TABLE t (a INT PRIMARY KEY);\n\
         INSERT INTO t VALUES (1);\n\
         INSERT IGNORE INTO t VALUES (1), (2);\n\
         SELECT * FROM t;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 2);
}

#[test]
fn foreign_keys_enforced_when_profile_says_so() {
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE p (id INT PRIMARY KEY);\n\
         CREATE TABLE c (pid INT REFERENCES p(id));\n\
         INSERT INTO c VALUES (9);",
    );
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("foreign key"));
    // Comdb2's profile does not enforce FKs.
    let r = run(
        Dialect::Comdb2,
        "CREATE TABLE p (id INT PRIMARY KEY);\n\
         CREATE TABLE c (pid INT REFERENCES p(id));\n\
         INSERT INTO c VALUES (9);",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn varchar_and_char_cut_multibyte_text_at_characters() {
    // The length counts characters: cutting 'éx' at byte 1 would split 'é'.
    for ty in ["VARCHAR(1)", "CHAR(1)"] {
        let mut db = Dbms::new(Dialect::Postgres);
        let r = db.execute_script(&format!(
            "CREATE TABLE t (a {ty}); INSERT INTO t VALUES ('éx'); SELECT * FROM t;"
        ));
        assert!(matches!(r.outcome, Outcome::Ok), "{ty}: {:?}", r.errors);
        assert!(r.errors.is_empty(), "{ty}: {:?}", r.errors);
        assert_eq!(r.last_rows, 1, "{ty}");
        let rows = &db.session().cat.table("t").expect("table t").rows;
        assert_eq!(rows, &vec![vec![Value::Text("é".into())]], "{ty}");
    }
}

// -- views / matviews ----------------------------------------------------------

#[test]
fn view_reflects_underlying_writes() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         CREATE VIEW w AS SELECT a FROM t WHERE a > 10;\n\
         INSERT INTO t VALUES (5), (15);\n\
         SELECT * FROM w;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
}

#[test]
fn materialized_view_serves_snapshot_after_refresh() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1);\n\
         CREATE MATERIALIZED VIEW mv AS SELECT a FROM t;\n\
         REFRESH MATERIALIZED VIEW mv;\n\
         INSERT INTO t VALUES (2);\n\
         SELECT * FROM mv;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    // The snapshot predates the second insert.
    assert_eq!(r.last_rows, 1);
}

#[test]
fn insert_into_plain_view_is_rejected() {
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE t (a INT);\n\
         CREATE VIEW w AS SELECT a FROM t;\n\
         INSERT INTO w VALUES (1);",
    );
    assert_eq!(r.errors.len(), 1);
}

// -- rules (PostgreSQL) ----------------------------------------------------------

#[test]
fn instead_rule_redirects_insert() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         CREATE TABLE log (msg TEXT);\n\
         CREATE RULE r1 AS ON INSERT TO t DO INSTEAD INSERT INTO log VALUES ('redirected');\n\
         INSERT INTO t VALUES (1);\n\
         SELECT * FROM t;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 0, "t must stay empty");
    assert_eq!(db.session().cat.table("log").unwrap().rows.len(), 1);
}

#[test]
fn do_instead_nothing_swallows_the_statement() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         CREATE RULE r1 AS ON INSERT TO t DO INSTEAD NOTHING;\n\
         INSERT INTO t VALUES (1);\n\
         SELECT * FROM t;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 0);
}

#[test]
fn rules_are_postgres_only() {
    let r = run(
        Dialect::MySql,
        "CREATE TABLE t (a INT);\n\
         CREATE RULE r1 AS ON INSERT TO t DO NOTHING;",
    );
    assert_eq!(r.errors.len(), 1);
}

// -- triggers ---------------------------------------------------------------------

#[test]
fn trigger_recursion_is_bounded() {
    // A trigger that inserts into its own table must hit the depth guard,
    // not loop forever.
    let r = run(
        Dialect::MariaDb,
        "CREATE TABLE t (a INT);\n\
         CREATE TRIGGER tg AFTER INSERT ON t FOR EACH ROW INSERT INTO t VALUES (1);\n\
         INSERT INTO t VALUES (0);",
    );
    assert!(matches!(r.outcome, Outcome::Ok) || r.crash().is_some());
    assert!(r.errors.iter().any(|e| e.contains("recursion")) || r.crash().is_some());
}

#[test]
fn before_trigger_errors_abort_the_statement() {
    let r = run(
        Dialect::MariaDb,
        "CREATE TABLE t (a INT);\n\
         CREATE TRIGGER tg BEFORE INSERT ON t FOR EACH ROW DELETE FROM missing;\n\
         INSERT INTO t VALUES (1);",
    );
    assert!(!r.errors.is_empty());
}

/// Run `sql` on MariaDB: no crash, and the statement at `stmt` (0-based)
/// fails because a BEFORE trigger dropped or altered its table.
fn fails_after_its_before_trigger(sql: &str, stmt: usize) -> lego_dbms::ExecReport {
    let r = run(Dialect::MariaDb, sql);
    assert!(matches!(r.outcome, Outcome::Ok), "outcome: {:?}", r.outcome);
    assert_eq!(r.stmt_errors, vec![stmt], "errors: {:?}", r.errors);
    assert!(r.errors[0].contains("dropped or altered by a BEFORE trigger"), "{:?}", r.errors);
    r
}

#[test]
fn a_before_insert_trigger_that_drops_its_table_fails_the_insert() {
    fails_after_its_before_trigger(
        "CREATE TABLE t (a INT);\n\
         CREATE TRIGGER tg BEFORE INSERT ON t FOR EACH ROW DROP TABLE t;\n\
         INSERT INTO t VALUES (1);",
        2,
    );
}

#[test]
fn a_before_update_trigger_that_drops_its_table_fails_the_update() {
    fails_after_its_before_trigger(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1);\n\
         CREATE TRIGGER tg BEFORE UPDATE ON t FOR EACH ROW DROP TABLE t;\n\
         UPDATE t SET a = 2;",
        3,
    );
}

#[test]
fn a_before_delete_trigger_that_drops_its_table_fails_the_delete() {
    fails_after_its_before_trigger(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1);\n\
         CREATE TRIGGER tg BEFORE DELETE ON t FOR EACH ROW DROP TABLE t;\n\
         DELETE FROM t;",
        3,
    );
}

#[test]
fn a_before_insert_trigger_that_adds_a_column_fails_the_insert() {
    // The row used to be stored one column short, and the UPDATE indexed
    // past it.
    let r = fails_after_its_before_trigger(
        "CREATE TABLE t (a INT);\n\
         CREATE TRIGGER tg BEFORE INSERT ON t FOR EACH ROW ALTER TABLE t ADD COLUMN b INT;\n\
         INSERT INTO t VALUES (1);\n\
         UPDATE t SET b = 5;",
        2,
    );
    assert_eq!(r.statements_executed, 4);
}

#[test]
fn a_before_insert_trigger_that_drops_a_column_fails_the_insert() {
    // The row used to be stored one column too wide, with no error.
    let r = fails_after_its_before_trigger(
        "CREATE TABLE t (a INT, b INT);\n\
         CREATE TRIGGER tg BEFORE INSERT ON t FOR EACH ROW ALTER TABLE t DROP COLUMN b;\n\
         INSERT INTO t VALUES (1, 2);\n\
         SELECT * FROM t;",
        2,
    );
    assert_eq!(r.last_rows, 0);
}

// -- transactions ------------------------------------------------------------------

#[test]
fn nested_begin_is_an_error() {
    let r = run(Dialect::Postgres, "BEGIN; BEGIN;");
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn commit_without_txn_is_an_error() {
    let r = run(Dialect::Postgres, "COMMIT;");
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn mysql_ddl_implicitly_commits() {
    let mut db = Dbms::new(Dialect::MySql);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         BEGIN;\n\
         INSERT INTO t VALUES (1);\n\
         CREATE TABLE u (b INT);\n\
         ROLLBACK;\n\
         SELECT * FROM t;",
    );
    // The CREATE TABLE committed the transaction, so ROLLBACK errors and the
    // insert survives.
    assert_eq!(r.errors.len(), 1);
    assert_eq!(r.last_rows, 1);
}

#[test]
fn postgres_ddl_is_transactional() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         BEGIN;\n\
         CREATE TABLE u (b INT);\n\
         ROLLBACK;\n\
         SELECT * FROM u;",
    );
    // u was rolled back: the final select errors.
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("does not exist"));
}

#[test]
fn savepoint_requires_transaction() {
    let r = run(Dialect::Postgres, "SAVEPOINT s;");
    assert_eq!(r.errors.len(), 1);
}

// -- session statement state machines ------------------------------------------------

#[test]
fn cursor_lifecycle_is_order_sensitive() {
    let ok = run_ok(Dialect::Postgres, "DECLARE c0; FETCH c0; CLOSE c0;");
    assert_eq!(ok.statements_executed, 3);
    let bad = run(Dialect::Postgres, "FETCH c0;");
    assert_eq!(bad.errors.len(), 1);
    let double_close = run(Dialect::Postgres, "DECLARE c0; CLOSE c0; CLOSE c0;");
    assert_eq!(double_close.errors.len(), 1);
}

#[test]
fn prepared_statement_lifecycle() {
    run_ok(Dialect::Postgres, "PREPARE p0; EXECUTE p0; DEALLOCATE p0;");
    let r = run(Dialect::Postgres, "EXECUTE p0;");
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn xa_state_machine() {
    run_ok(Dialect::MySql, "XA BEGIN 'x'; XA COMMIT 'x';");
    let r = run(Dialect::MySql, "XA COMMIT 'x';");
    assert_eq!(r.errors.len(), 1);
    let r = run(Dialect::MySql, "XA BEGIN 'x'; XA BEGIN 'y';");
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn two_phase_commit_lifecycle() {
    run_ok(
        Dialect::Postgres,
        "CREATE TABLE t (a INT);\n\
         BEGIN;\n\
         INSERT INTO t VALUES (1);\n\
         PREPARE TRANSACTION 'g1';\n\
         COMMIT PREPARED 'g1';",
    );
    let r = run(Dialect::Postgres, "COMMIT PREPARED 'missing';");
    assert_eq!(r.errors.len(), 1);
}

#[test]
fn listen_notify_delivery() {
    let mut db = Dbms::new(Dialect::Postgres);
    db.execute_script("LISTEN ch1; NOTIFY ch1, 'ping'; NOTIFY other;");
    assert_eq!(db.session().notifications.len(), 1);
    assert!(db.session().notifications[0].contains("ping"));
}

#[test]
fn lock_mode_conflicts() {
    let r = run(
        Dialect::Postgres,
        "CREATE TABLE t (a INT);\n\
         LOCK TABLE t IN SHARE MODE;\n\
         LOCK TABLE t IN EXCLUSIVE MODE;",
    );
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("conflict"));
}

// -- access control ---------------------------------------------------------------

#[test]
fn grant_revoke_cycle() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         GRANT SELECT ON t TO alice;\n\
         SET ROLE alice;\n\
         SELECT * FROM t;\n\
         SET ROLE NONE;\n\
         REVOKE SELECT ON t FROM alice;\n\
         SET ROLE alice;\n\
         SELECT * FROM t;",
    );
    assert_eq!(r.errors.len(), 1, "{:?}", r.errors);
    assert!(r.errors[0].contains("permission denied"));
}

#[test]
fn non_admin_needs_insert_privilege() {
    let r = run(
        Dialect::MySql,
        "CREATE TABLE t (a INT);\n\
         SET ROLE bob;\n\
         INSERT INTO t VALUES (1);",
    );
    assert_eq!(r.errors.len(), 1);
}

// -- utility statements --------------------------------------------------------------

#[test]
fn copy_to_counts_rows() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (2), (3);\n\
         COPY (SELECT * FROM t) TO STDOUT CSV HEADER;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn cluster_requires_an_index() {
    let r = run(Dialect::Postgres, "CREATE TABLE t (a INT); CLUSTER t;");
    assert_eq!(r.errors.len(), 1);
    run_ok(Dialect::Postgres, "CREATE TABLE t (a INT); CREATE INDEX i ON t (a); CLUSTER t;");
}

#[test]
fn with_query_cte_materializes_for_the_body() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (2);\n\
         WITH big AS (SELECT a FROM t WHERE a > 1) SELECT * FROM big;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
    // The temp table is gone afterwards.
    let r2 = db.execute_script("SELECT * FROM big;");
    assert_eq!(r2.errors.len(), 1);
}

#[test]
fn with_dml_cte_mutates_for_real() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         WITH w AS (INSERT INTO t VALUES (7)) SELECT 1;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(db.session().cat.table("t").unwrap().rows.len(), 1);
}

#[test]
fn rename_table_via_misc_statement() {
    let mut db = Dbms::new(Dialect::MariaDb);
    let r = db.execute_script(
        "CREATE TABLE old_name (a INT);\n\
         RENAME TABLE old_name TO new_name;\n\
         SELECT * FROM new_name;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn shutdown_style_statements_are_refused() {
    let r = run(Dialect::MySql, "SHUTDOWN;");
    assert_eq!(r.errors.len(), 1);
    assert!(r.errors[0].contains("not permitted"));
}

#[test]
fn table_row_cap_is_enforced() {
    // Inserting via self-referencing INSERT ... SELECT doubles the table;
    // the cap must stop it with an error instead of unbounded growth.
    let mut script = String::from("CREATE TABLE t (a INT);\nINSERT INTO t VALUES (1);\n");
    for _ in 0..14 {
        script.push_str("INSERT INTO t SELECT * FROM t;\n");
    }
    let r = run(Dialect::Postgres, &script);
    assert!(r.errors.iter().any(|e| e.contains("full")));
}

// -- the statement long tail -----------------------------------------------------

#[test]
fn use_statement_switches_database_name() {
    let mut db = Dbms::new(Dialect::MySql);
    let r = db.execute_script("USE db1;");
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(db.session().current_db, "db1");
}

#[test]
fn handler_toggles_open_state() {
    let mut db = Dbms::new(Dialect::MariaDb);
    db.execute_script("CREATE TABLE t (a INT); HANDLER t OPEN;");
    assert!(db.session().handler_open);
    db.execute_script("HANDLER t CLOSE;");
    assert!(!db.session().handler_open);
}

#[test]
fn show_variants_report_rows() {
    let mut db = Dbms::new(Dialect::MariaDb);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         SHOW TABLES;\n\
         SHOW CREATE TABLE t;\n\
         SHOW VARIABLES;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn check_table_requires_existing_table() {
    let r = run(Dialect::MySql, "CHECK TABLE missing;");
    assert_eq!(r.errors.len(), 1);
    run_ok(Dialect::MySql, "CREATE TABLE t (a INT); CHECK TABLE t;");
}

#[test]
fn comdb2_put_and_exec_procedure() {
    let mut db = Dbms::new(Dialect::Comdb2);
    let r = db.execute_script("PUT counter1 ON;");
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    // EXEC PROCEDURE on a missing procedure errors; after CREATE it works.
    let r = db.execute_script("EXEC PROCEDURE p0 ( );");
    assert_eq!(r.errors.len(), 1);
    let r = db.execute_script("CREATE PROCEDURE p0; EXEC PROCEDURE p0 ( );");
    assert!(r.errors.is_empty(), "{:?}", r.errors);
}

#[test]
fn set_transaction_requires_open_transaction() {
    let r = run(Dialect::Postgres, "SET TRANSACTION ISOLATION LEVEL READ COMMITTED;");
    assert_eq!(r.errors.len(), 1);
    run_ok(Dialect::Postgres, "BEGIN; SET TRANSACTION ISOLATION LEVEL READ COMMITTED; COMMIT;");
}

#[test]
fn discard_all_clears_session_state() {
    let mut db = Dbms::new(Dialect::Postgres);
    db.execute_script("PREPARE p0; DECLARE c0; SET search_path = x; DISCARD ALL;");
    assert!(db.session().prepared.is_empty());
    assert!(db.session().cursors.is_empty());
    assert!(db.session().settings.is_empty());
}

#[test]
fn selectv_behaves_like_select_on_comdb2() {
    let mut db = Dbms::new(Dialect::Comdb2);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (2);\n\
         SELECTV * FROM t;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 2);
}

#[test]
fn explain_does_not_mutate() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         EXPLAIN SELECT * FROM t;\n\
         SELECT * FROM t;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(db.session().cat.total_rows(), 0);
}

#[test]
fn select_into_creates_a_table() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (2);\n\
         SELECT a INTO snapshot FROM t WHERE a > 1;\n\
         SELECT * FROM snapshot;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
}

#[test]
fn create_table_as_copies_rows() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE t (a INT);\n\
         INSERT INTO t VALUES (1), (2), (3);\n\
         CREATE TABLE c AS SELECT a FROM t WHERE a > 1;\n\
         SELECT * FROM c;",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 2);
}

#[test]
fn subquery_in_where_filters_by_other_table() {
    let mut db = Dbms::new(Dialect::Postgres);
    let r = db.execute_script(
        "CREATE TABLE a (x INT);\n\
         CREATE TABLE b (y INT);\n\
         INSERT INTO a VALUES (1), (5);\n\
         INSERT INTO b VALUES (3);\n\
         SELECT * FROM a WHERE x > (SELECT MAX(y) FROM b);",
    );
    assert!(r.errors.is_empty(), "{:?}", r.errors);
    assert_eq!(r.last_rows, 1);
}

// -- planted faults ----------------------------------------------------------

/// The planted faults belong to the instance that carries them: a faulted
/// and a fault-free engine, side by side on one thread, disagree on the
/// same case, through both entry points the oracles read results from.
#[test]
fn planted_faults_belong_to_one_instance() {
    use lego_dbms::faults::Faults;
    use lego_sqlast::ast::Statement;

    let setup = "CREATE TABLE t (a INT);\nINSERT INTO t VALUES (1), (2), (3);";
    let filter = "SELECT * FROM t WHERE a > 1;";
    let mut clean = Dbms::new(Dialect::Postgres);
    let mut faulted = Dbms::new(Dialect::Postgres);
    faulted.set_faults(Faults { where_drops_last_row: true, ..Faults::default() });
    let case = format!("{setup}\n{filter}");
    assert_eq!(clean.execute_script(&case).last_rows, 2);
    assert_eq!(faulted.execute_script(&case).last_rows, 1);

    // `run_query` sees the fault too, and a reset keeps it.
    let Statement::Select(select) = lego_sqlparser::parse_statement(filter).unwrap() else {
        panic!("{filter} is a SELECT");
    };
    for db in [&mut clean, &mut faulted] {
        db.reset();
        db.execute_script(setup);
    }
    assert_eq!(clean.run_query(&select.query).unwrap().rows.len(), 2);
    assert_eq!(faulted.run_query(&select.query).unwrap().rows.len(), 1);
}

/// An engine hands its torn-write fault to the WAL it attaches, and to one
/// already attached; a fault-free engine's WAL writes every synced record.
#[test]
fn the_torn_write_fault_reaches_only_the_faulted_engines_wal() {
    use lego_dbms::faults::Faults;

    let torn = Faults { wal_drops_last_record: true, ..Faults::default() };
    let wal = |tag: &str| {
        std::env::temp_dir().join(format!("lego_engine_faults_{}_{tag}.wal", std::process::id()))
    };
    let mut before = Dbms::new(Dialect::Postgres);
    before.set_faults(torn);
    before.wal_attach(&wal("before")).unwrap();
    let mut after = Dbms::new(Dialect::Postgres);
    after.wal_attach(&wal("after")).unwrap();
    after.set_faults(torn);
    let mut clean = Dbms::new(Dialect::Postgres);
    clean.wal_attach(&wal("clean")).unwrap();
    let script = "CREATE TABLE t (a INT);\nINSERT INTO t VALUES (1);";
    for (db, written) in [(&mut before, 0), (&mut after, 0), (&mut clean, 2)] {
        db.execute_script(script);
        let wal = db.wal().expect("attached");
        assert_eq!(wal.synced_records().len(), 2);
        assert_eq!(wal.written_records().len(), written);
        let _ = std::fs::remove_file(wal.path());
    }
}
