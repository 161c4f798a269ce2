//! The DBMS façade the fuzzers talk to: execute a test case, get back an
//! outcome plus an AFL-style coverage map.

use crate::bugs::{CrashReport, OracleState};
use crate::ctx::ExecCtx;
use crate::exec::Session;
use crate::limits::{AbortReason, Limits};
use crate::profile::Profile;
use crate::wal::Wal;
use lego_coverage::map::CovMap;
use lego_coverage::site_id;
use lego_sqlast::{Dialect, TestCase};
use std::path::Path;

/// Final outcome of executing one test case.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// All statements were attempted (individual semantic errors are
    /// recorded in [`ExecReport::errors`], as real fuzzing harnesses do).
    Ok,
    /// The script did not parse at all.
    ParseError(String),
    /// A planted memory-safety bug fired; the "server" died here.
    Crash(CrashReport),
    /// A per-case execution budget tripped (the deterministic analogue of an
    /// AFL timeout kill). The case must never be retained in a corpus.
    Aborted(AbortReason),
}

/// Everything observed while executing one test case.
pub struct ExecReport {
    pub outcome: Outcome,
    pub coverage: CovMap,
    pub statements_executed: usize,
    pub errors: Vec<String>,
    /// Statement indices of the entries in [`ExecReport::errors`], parallel
    /// to it: `stmt_errors[k]` is the 0-based position (within the executed
    /// prefix) of the statement that produced `errors[k]`. Conformance
    /// oracles need the per-statement mapping, not just the count.
    pub stmt_errors: Vec<usize>,
    /// Rows returned by the last query statement.
    pub last_rows: usize,
    /// Statements the binder/executor accepted (the semantic-validity
    /// numerator; `stmts_ok + stmts_err == statements_executed`).
    pub stmts_ok: usize,
    /// Statements the binder/executor rejected with a semantic error.
    pub stmts_err: usize,
}

impl ExecReport {
    pub fn crash(&self) -> Option<&CrashReport> {
        match &self.outcome {
            Outcome::Crash(c) => Some(c),
            _ => None,
        }
    }

    pub fn is_parse_error(&self) -> bool {
        matches!(self.outcome, Outcome::ParseError(_))
    }

    pub fn aborted(&self) -> Option<AbortReason> {
        match self.outcome {
            Outcome::Aborted(r) => Some(r),
            _ => None,
        }
    }

    /// Synthesize the report for a case whose execution *panicked* and was
    /// caught at the harness isolation boundary (`catch_unwind`). The panic
    /// becomes an ordinary deduplicatable crash finding: the stack is built
    /// from the panic message, so distinct panics dedup to distinct bugs and
    /// re-running the same case reproduces the same report. Coverage is
    /// empty — a panicked case is never retained as a seed.
    pub fn engine_panic(dialect: Dialect, message: &str) -> Self {
        let crash = CrashReport {
            bug_id: PANIC_BUG_ID,
            identifier: format!("{}-PANIC", dialect.name().to_ascii_uppercase()),
            bug_type: crate::bugs::BugType::Af,
            component: crate::profile::Component::Executor,
            dialect,
            stack: vec!["harness_catch_unwind".to_string(), format!("panic: {message}")],
        };
        ExecReport {
            outcome: Outcome::Crash(crash),
            coverage: CovMap::new(),
            statements_executed: 0,
            errors: vec![format!("engine panic: {message}")],
            stmt_errors: vec![0],
            last_rows: 0,
            stmts_ok: 0,
            stmts_err: 0,
        }
    }
}

/// Sentinel `bug_id` for crash reports synthesized from a caught engine
/// panic ([`ExecReport::engine_panic`]). Harness code must not re-execute
/// such cases for reduction — they would panic again.
pub const PANIC_BUG_ID: u32 = u32::MAX;

/// One simulated DBMS instance (fresh database + session).
///
/// Fuzzers get a fresh *state* per test case, mirroring AFL++'s forkserver
/// reset. Campaign loops keep one instance per worker and call [`Dbms::reset`]
/// between cases instead of constructing a new instance, which reuses the
/// session's allocations; a spare [`CovMap`] can be handed back with
/// [`Dbms::recycle`] so the per-case 64 KiB coverage buffer is reused too.
/// The instance stays poisoned once it crashes (until the next `reset`).
pub struct Dbms {
    session: Session,
    poisoned: Option<CrashReport>,
    spare_map: Option<CovMap>,
    limits: Limits,
    wal: Option<Wal>,
}

impl Dbms {
    pub fn new(dialect: Dialect) -> Self {
        Self {
            session: Session::new(Profile::for_dialect(dialect)),
            poisoned: None,
            spare_map: None,
            limits: Limits::default(),
            wal: None,
        }
    }

    /// Override the per-case execution budgets applied to every subsequent
    /// execution (survives [`Dbms::reset`]).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    pub fn limits(&self) -> Limits {
        self.limits
    }

    /// Reset to the fresh-instance state in place: empty catalog, default
    /// session, not poisoned, no WAL. Equivalent to `*self = Dbms::new(dialect)`
    /// but without dropping reusable allocations.
    pub fn reset(&mut self) {
        self.session.reset();
        self.poisoned = None;
        self.wal = None;
    }

    /// Attach a write-ahead log at `path` (truncating any existing file).
    /// Every subsequently executed statement is journaled and synced at
    /// commit boundaries; see [`crate::wal`].
    pub fn wal_attach(&mut self, path: &Path) -> std::io::Result<()> {
        self.wal = Some(Wal::create(path)?);
        Ok(())
    }

    /// Detach the WAL, leaving the file on disk as-is.
    pub fn wal_detach(&mut self) {
        self.wal = None;
    }

    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Simulate a crash of this instance: the WAL's unsynced pending tail
    /// is lost. The in-memory state is left untouched so oracles can still
    /// compute the expected post-recovery fingerprint from it.
    pub fn wal_crash(&mut self) {
        if let Some(wal) = self.wal.as_mut() {
            wal.crash();
        }
    }

    /// FNV-1a fingerprint of the *committed* database state: the catalog as
    /// of the last commit boundary (the transaction snapshot while a
    /// transaction is open, the live catalog otherwise). This is exactly the
    /// state a correct engine must reproduce by replaying its synced WAL, so
    /// it is the recovery oracle's comparison key. Deterministic: every
    /// catalog container is a `BTreeMap` and the hash walks the derived
    /// `Debug` rendering.
    pub fn durable_fingerprint(&self) -> u64 {
        use std::fmt::Write;
        struct Fnv(u64);
        impl std::fmt::Write for Fnv {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                for b in s.bytes() {
                    self.0 ^= b as u64;
                    self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
                }
                Ok(())
            }
        }
        let committed = self.session.txn.as_ref().unwrap_or(&self.session.cat);
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let _ = write!(h, "{committed:?}");
        h.0
    }

    /// Hand back a previously returned coverage map for reuse by the next
    /// execution.
    pub fn recycle(&mut self, map: CovMap) {
        self.spare_map = Some(map);
    }

    /// A context on the spare coverage map, if one was handed back, with
    /// the default [`Limits`].
    fn spare_ctx(&mut self) -> ExecCtx {
        match self.spare_map.take() {
            Some(map) => ExecCtx::reusing(map),
            None => ExecCtx::new(),
        }
    }

    fn fresh_ctx(&mut self) -> ExecCtx {
        let mut ctx = self.spare_ctx();
        ctx.limits = self.limits;
        ctx
    }

    pub fn dialect(&self) -> Dialect {
        self.session.prof.dialect
    }

    pub fn session(&self) -> &Session {
        &self.session
    }

    fn oracle_state(&self) -> OracleState {
        OracleState {
            any_trigger: !self.session.cat.triggers.is_empty(),
            any_rule: !self.session.cat.rules.is_empty(),
            in_txn: self.session.in_txn(),
            any_nonempty_table: self.session.cat.total_rows() > 0,
            any_index: !self.session.cat.indexes.is_empty(),
            any_view: !self.session.cat.views.is_empty(),
        }
    }

    /// Execute an already-parsed test case.
    pub fn execute_case(&mut self, case: &TestCase) -> ExecReport {
        let mut ctx = self.fresh_ctx();
        if let Some(crash) = &self.poisoned {
            return ExecReport {
                outcome: Outcome::Crash(crash.clone()),
                coverage: ctx.cov.into_map(),
                statements_executed: 0,
                errors: vec!["server is down".into()],
                stmt_errors: vec![0],
                last_rows: 0,
                stmts_ok: 0,
                stmts_err: 0,
            };
        }
        let mut errors = Vec::new();
        let mut stmt_errors = Vec::new();
        let mut executed = 0usize;
        let mut ok_count = 0usize;
        for stmt in &case.statements {
            // Every statement re-enters through the same command dispatcher,
            // so the AFL edge chain re-synchronizes at the statement
            // boundary; cross-statement effects flow through session state
            // and the explicit interaction sites instead of hash noise.
            ctx.cov.reset_edge_chain();
            let kind = stmt.kind();
            ctx.trace.push(kind);
            match self.session.exec_statement(&mut ctx, stmt) {
                Ok(_) => ok_count += 1,
                Err(e) => {
                    errors.push(e);
                    stmt_errors.push(executed);
                }
            }
            executed += 1;
            if let Some(wal) = self.wal.as_mut() {
                // Journal verbatim (Ok and Err alike — failed statements can
                // leave partial state); durable only at commit boundaries.
                // A crashing or aborting statement leaves its record pending,
                // exactly like a crash before fsync.
                wal.append(&format!("{stmt};"));
                if ctx.abort.is_none() && ctx.crash.is_none() && !self.session.in_txn() {
                    wal.sync();
                }
            }
            if let Some(reason) = ctx.abort {
                // A budget tripped: the harness kills the case (AFL timeout
                // analogue). The server is *not* poisoned — the next case
                // gets a reset instance as usual.
                return ExecReport {
                    outcome: Outcome::Aborted(reason),
                    last_rows: ctx.last_row_count,
                    coverage: ctx.cov.into_map(),
                    statements_executed: executed,
                    stmts_ok: ok_count,
                    stmts_err: executed - ok_count,
                    errors,
                    stmt_errors,
                };
            }
            if ctx.crash.is_none() {
                // Pattern-based oracle check on the observed type sequence.
                if let Some(crash) =
                    self.session.oracle.check(&ctx.trace, stmt, || self.oracle_state())
                {
                    ctx.crash = Some(crash);
                }
            }
            if let Some(crash) = ctx.crash.clone() {
                self.poisoned = Some(crash.clone());
                return ExecReport {
                    outcome: Outcome::Crash(crash),
                    last_rows: ctx.last_row_count,
                    coverage: ctx.cov.into_map(),
                    statements_executed: executed,
                    stmts_ok: ok_count,
                    stmts_err: executed - ok_count,
                    errors,
                    stmt_errors,
                };
            }
        }
        ExecReport {
            outcome: Outcome::Ok,
            last_rows: ctx.last_row_count,
            coverage: ctx.cov.into_map(),
            statements_executed: executed,
            stmts_ok: ok_count,
            stmts_err: executed - ok_count,
            errors,
            stmt_errors,
        }
    }

    /// Execute a read-only query against the current database state,
    /// outside the fuzzing pipeline: no coverage accounting, no trace, no
    /// crash-oracle check. This is the oracle layer's window into actual
    /// result sets (the normal execution path only reports row counts).
    pub fn run_query(
        &mut self,
        q: &lego_sqlast::ast::Query,
    ) -> Result<crate::query::ResultSet, String> {
        if self.poisoned.is_some() {
            return Err("server is down".into());
        }
        // The query's coverage is thrown away, so it borrows the spare map
        // and hands it straight back instead of zeroing a fresh one.
        let mut ctx = self.spare_ctx();
        let result = self.session.run_query(&mut ctx, q);
        self.spare_map = Some(ctx.cov.into_map());
        result
    }

    /// Parse and execute a SQL script.
    pub fn execute_script(&mut self, sql: &str) -> ExecReport {
        match lego_sqlparser::parse_script(sql) {
            Ok(case) => self.execute_case(&case),
            Err(e) => {
                // Parse failures still exercise parser branches: one site per
                // error-message bucket, so fuzzers get parser coverage too.
                let mut ctx = self.fresh_ctx();
                let mut h: u64 = 0;
                for b in e.message.bytes().take(24) {
                    h = h.wrapping_mul(31).wrapping_add(b as u64);
                }
                ctx.hit_idx(site_id!(0x4547129b3b5f5700), h % 64);
                ExecReport {
                    outcome: Outcome::ParseError(e.to_string()),
                    coverage: ctx.cov.into_map(),
                    statements_executed: 0,
                    errors: vec![e.to_string()],
                    stmt_errors: vec![0],
                    last_rows: 0,
                    stmts_ok: 0,
                    stmts_err: 0,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(d: Dialect) -> Dbms {
        Dbms::new(d)
    }

    #[test]
    fn figure_1_script_executes_cleanly() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE t1(v1 INT, v2 INT);\n\
             INSERT INTO t1 VALUES(1, 1);\n\
             INSERT INTO t1 VALUES(2, 1);\n\
             SELECT * FROM t1 ORDER BY v1;\n\
             SELECT v2 FROM t1 WHERE v1=1;",
        );
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.errors);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.statements_executed, 5);
        assert_eq!(r.last_rows, 1);
        assert!(r.coverage.edge_count() > 12);
    }

    #[test]
    fn reset_matches_fresh_instance() {
        // A reset + recycled-map instance must behave byte-identically to a
        // brand-new one: same catalog visibility, same coverage digest, and
        // poisoning must not survive the reset.
        let crash_script = "CREATE TABLE v0( v4 INT, v3 INT UNIQUE, v2 INT , v1 INT UNIQUE ) ;\n\
             CREATE OR REPLACE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY COMPRESSION;\n\
             COPY ( SELECT 32 EXCEPT SELECT v3 + 16 FROM v0 ) TO STDOUT CSV HEADER ;\n\
             WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = - - - 48;";
        let probe = "CREATE TABLE t (a INT);\nINSERT INTO t VALUES(1);\nSELECT * FROM t;";

        let mut reused = fresh(Dialect::Postgres);
        let r = reused.execute_script(crash_script);
        assert!(r.crash().is_some());
        reused.recycle(r.coverage);
        reused.reset();

        let r_reused = reused.execute_script(probe);
        let r_fresh = fresh(Dialect::Postgres).execute_script(probe);
        assert!(matches!(r_reused.outcome, Outcome::Ok), "{:?}", r_reused.errors);
        assert_eq!(r_reused.errors, r_fresh.errors);
        assert_eq!(r_reused.statements_executed, r_fresh.statements_executed);
        assert_eq!(r_reused.last_rows, r_fresh.last_rows);
        assert_eq!(r_reused.coverage.digest(), r_fresh.coverage.digest());
    }

    #[test]
    fn figure_2_order_sensitivity() {
        // Q1: insert before select -> sorted data; Q2: select before insert
        // -> empty result. Coverage must differ (the whole premise of the
        // paper).
        let q1 = "CREATE TABLE t1 (a INT, b VARCHAR(100));\n\
                  INSERT INTO t1 VALUES(1,'name1');\n\
                  INSERT INTO t1 VALUES(3,'name1');\n\
                  SELECT * FROM t1 ORDER BY a DESC;";
        let q2 = "CREATE TABLE t1 (a INT, b VARCHAR(100));\n\
                  SELECT * FROM t1 ORDER BY a DESC;\n\
                  INSERT INTO t1 VALUES(1,'name1');\n\
                  INSERT INTO t1 VALUES(3,'name1');";
        let r1 = fresh(Dialect::Postgres).execute_script(q1);
        let r2 = fresh(Dialect::Postgres).execute_script(q2);
        assert!(matches!(r1.outcome, Outcome::Ok));
        assert!(matches!(r2.outcome, Outcome::Ok));
        assert_ne!(r1.coverage.digest(), r2.coverage.digest());
    }

    #[test]
    fn case_study_script_crashes_postgres() {
        // Figure 7 verbatim.
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE v0( v4 INT, v3 INT UNIQUE, v2 INT , v1 INT UNIQUE ) ;\n\
             CREATE OR REPLACE RULE v1 AS ON INSERT TO v0 DO INSTEAD NOTIFY COMPRESSION;\n\
             COPY ( SELECT 32 EXCEPT SELECT v3 + 16 FROM v0 ) TO STDOUT CSV HEADER ;\n\
             WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = - - - 48;",
        );
        let crash = r.crash().expect("the case-study sequence must crash");
        assert_eq!(crash.identifier, "BUG #17097");
        assert!(crash.stack.iter().any(|f| f.contains("replace_empty_jointree")));
    }

    #[test]
    fn case_study_without_the_rule_does_not_crash() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE v0( v4 INT, v3 INT UNIQUE, v2 INT , v1 INT UNIQUE ) ;\n\
             COPY ( SELECT 32 EXCEPT SELECT v3 + 16 FROM v0 ) TO STDOUT CSV HEADER ;\n\
             WITH v2 AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v3 = - - - 48;",
        );
        assert!(r.crash().is_none());
    }

    #[test]
    fn cve_2021_35643_sequence_crashes_mysql() {
        let mut db = fresh(Dialect::MySql);
        let r = db.execute_script(
            "CREATE TABLE v0 (v1 YEAR);\n\
             INSERT IGNORE INTO v0 VALUES (NULL), (22471185.0), (2021);\n\
             CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0;\n\
             SELECT LEAD (v1) OVER (ORDER BY v1) AS v1 FROM v0;",
        );
        let crash = r.crash().expect("CVE-2021-35643 sequence must crash");
        assert_eq!(crash.identifier, "CVE-2021-35643");
    }

    #[test]
    fn crashed_server_stays_down() {
        let mut db = fresh(Dialect::MySql);
        db.execute_script(
            "CREATE TABLE v0 (v1 INT);\n\
             CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0;\n\
             SELECT RANK() OVER (ORDER BY v1) FROM v0;",
        );
        let r = db.execute_script("SELECT 1;");
        assert!(r.crash().is_some());
        assert_eq!(r.statements_executed, 0);
    }

    #[test]
    fn row_budget_aborts_without_poisoning() {
        let mut db = fresh(Dialect::Postgres);
        db.set_limits(Limits { max_rows: 4, ..Limits::default() });
        let r = db.execute_script(
            "CREATE TABLE t (a INT);\n\
             INSERT INTO t VALUES (1),(2),(3),(4),(5),(6);\n\
             SELECT 1;",
        );
        assert_eq!(r.aborted(), Some(AbortReason::RowBudget));
        assert!(r.statements_executed < 3, "aborts before the script ends");
        // Not poisoned: after the usual between-case reset the instance works.
        db.reset();
        db.set_limits(Limits::default());
        let r2 = db.execute_script("SELECT 1;");
        assert!(matches!(r2.outcome, Outcome::Ok));
    }

    #[test]
    fn statement_budget_aborts_long_scripts() {
        let mut db = fresh(Dialect::Postgres);
        db.set_limits(Limits { max_statements: 2, ..Limits::default() });
        let r = db.execute_script("SELECT 1;\nSELECT 2;\nSELECT 3;");
        assert_eq!(r.aborted(), Some(AbortReason::StatementBudget));
    }

    #[test]
    fn eval_depth_budget_aborts_deep_expressions() {
        let mut db = fresh(Dialect::Postgres);
        db.set_limits(Limits { max_eval_depth: 4, ..Limits::default() });
        let r = db.execute_script("SELECT 1+1+1+1+1+1+1+1+1+1;");
        assert_eq!(r.aborted(), Some(AbortReason::EvalDepth));
    }

    #[test]
    fn default_limits_do_not_fire_on_normal_scripts() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE t (a INT, b INT);\n\
             INSERT INTO t VALUES (1, 2), (3, 4);\n\
             SELECT t.a FROM t JOIN t AS u ON 1=1;",
        );
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.errors);
    }

    #[test]
    fn engine_panic_report_is_a_dedupable_crash() {
        let a = ExecReport::engine_panic(Dialect::Postgres, "boom at stmt 3");
        let b = ExecReport::engine_panic(Dialect::Postgres, "boom at stmt 3");
        let c = ExecReport::engine_panic(Dialect::Postgres, "different panic");
        let (ca, cb, cc) = (a.crash().unwrap(), b.crash().unwrap(), c.crash().unwrap());
        assert_eq!(ca.bug_id, PANIC_BUG_ID);
        assert_eq!(ca.stack_hash(), cb.stack_hash(), "same panic dedups");
        assert_ne!(ca.stack_hash(), cc.stack_hash(), "distinct panics are distinct bugs");
        assert_eq!(a.statements_executed, 0);
        assert!(a.aborted().is_none());
    }

    #[test]
    fn parse_errors_are_reported_not_fatal() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script("FROBNICATE;");
        assert!(r.is_parse_error());
        assert!(r.coverage.edge_count() >= 1);
        // The instance is still usable.
        let r2 = db.execute_script("SELECT 1;");
        assert!(matches!(r2.outcome, Outcome::Ok));
    }

    #[test]
    fn semantic_errors_do_not_stop_the_script() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "SELECT * FROM missing;\n\
             CREATE TABLE t (a INT);\n\
             INSERT INTO t VALUES (1);",
        );
        assert!(matches!(r.outcome, Outcome::Ok));
        assert_eq!(r.errors.len(), 1);
        assert_eq!(r.statements_executed, 3);
        assert_eq!(db.session().cat.total_rows(), 1);
    }

    #[test]
    fn unsupported_statements_error_per_dialect() {
        let mut db = fresh(Dialect::MySql);
        let r = db.execute_script("NOTIFY ch;");
        // MySQL has no NOTIFY: it parses (union grammar) but errors.
        assert!(matches!(r.outcome, Outcome::Ok));
        assert_eq!(r.errors.len(), 1);
        assert!(r.errors[0].contains("not supported"));
    }

    #[test]
    fn transactions_roll_back() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE t (a INT);\n\
             BEGIN;\n\
             INSERT INTO t VALUES (1);\n\
             ROLLBACK;",
        );
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.errors);
        assert!(r.errors.is_empty());
        assert_eq!(db.session().cat.total_rows(), 0);
    }

    #[test]
    fn savepoints_partial_rollback() {
        let mut db = fresh(Dialect::Postgres);
        db.execute_script(
            "CREATE TABLE t (a INT);\n\
             BEGIN;\n\
             INSERT INTO t VALUES (1);\n\
             SAVEPOINT s1;\n\
             INSERT INTO t VALUES (2);\n\
             ROLLBACK TO SAVEPOINT s1;\n\
             COMMIT;",
        );
        assert_eq!(db.session().cat.total_rows(), 1);
    }

    #[test]
    fn triggers_fire_and_cascade() {
        let mut db = fresh(Dialect::MariaDb);
        let r = db.execute_script(
            "CREATE TABLE a (x INT);\n\
             CREATE TABLE b (y INT);\n\
             CREATE TRIGGER tg AFTER INSERT ON a FOR EACH ROW INSERT INTO b VALUES (1);\n\
             INSERT INTO a VALUES (10), (20);",
        );
        assert!(matches!(r.outcome, Outcome::Ok), "{:?}", r.errors);
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(db.session().cat.table("b").unwrap().rows.len(), 2);
    }

    #[test]
    fn generic_ddl_is_order_sensitive() {
        // ALTER before CREATE errors; after CREATE succeeds — and covers
        // differently, which is what affinity analysis latches onto.
        let r1 = fresh(Dialect::Postgres).execute_script("ALTER SEQUENCE s1;");
        let r2 = fresh(Dialect::Postgres).execute_script("CREATE SEQUENCE s1; ALTER SEQUENCE s1;");
        assert_eq!(r1.errors.len(), 1);
        assert!(r2.errors.is_empty());
        assert_ne!(r1.coverage.digest(), r2.coverage.digest());
    }

    #[test]
    fn views_expand_on_read() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE t (a INT);\n\
             INSERT INTO t VALUES (1), (2);\n\
             CREATE VIEW w AS SELECT a FROM t WHERE a > 1;\n\
             SELECT * FROM w;",
        );
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        assert_eq!(r.last_rows, 1);
    }

    #[test]
    fn grant_then_set_role_then_select_is_a_meaningful_sequence() {
        let mut db = fresh(Dialect::Postgres);
        let r = db.execute_script(
            "CREATE TABLE t (a INT);\n\
             GRANT SELECT ON t TO alice;\n\
             SET ROLE alice;\n\
             SELECT * FROM t;",
        );
        assert!(r.errors.is_empty(), "{:?}", r.errors);
        // Without the GRANT the SELECT fails.
        let mut db2 = fresh(Dialect::Postgres);
        let r2 = db2.execute_script(
            "CREATE TABLE t (a INT);\n\
             SET ROLE alice;\n\
             SELECT * FROM t;",
        );
        assert_eq!(r2.errors.len(), 1);
    }

    #[test]
    fn comdb2_rejects_windows_and_triggers() {
        let mut db = fresh(Dialect::Comdb2);
        let r = db.execute_script(
            "CREATE TABLE t (a INT);\n\
             INSERT INTO t VALUES (1);\n\
             SELECT RANK() OVER (ORDER BY a) FROM t;",
        );
        assert_eq!(r.errors.len(), 1);
    }
}
