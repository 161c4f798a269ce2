//! Crash-reproducer reduction (triage support).
//!
//! The paper distinguishes bugs "from unique crashes by comparing the call
//! stack" and then analyzes them manually; a minimal reproducer makes that
//! manual step tractable. This module shrinks a crashing test case while
//! preserving the *same* crash (same stack hash):
//!
//! 1. statement-level delta debugging (drop chunks, then single statements),
//! 2. literal simplification (replace literals with canonical small values).
//!
//! The shrink algorithm itself lives in [`lego_oracle::reduce::reduce_with`],
//! parameterized over an arbitrary "still fails" predicate; this module
//! instantiates it with the crash predicate. The logic-bug instantiation is
//! [`lego_oracle::reduce::reduce_logic_bug`].

use lego_dbms::{CrashReport, Dbms};
use lego_oracle::reduce::reduce_with;
use lego_sqlast::{Dialect, TestCase};

/// Does this case still produce the same crash? Resets and reuses the one
/// triage instance rather than constructing a DBMS per candidate — reduction
/// runs hundreds of candidate executions per bug.
fn still_crashes(db: &mut Dbms, case: &TestCase, want: u64) -> bool {
    db.reset();
    let report = db.execute_case(case);
    let hit = report.crash().map(|c| c.stack_hash()) == Some(want);
    db.recycle(report.coverage);
    hit
}

/// Shrink a crashing test case, preserving its crash identity. Returns the
/// reduced case and the number of executions spent.
pub fn reduce_case(case: &TestCase, dialect: Dialect, crash: &CrashReport) -> (TestCase, usize) {
    reduce_case_on(&mut Dbms::new(dialect), case, crash)
}

/// [`reduce_case`] on a given instance, reset before every candidate — one
/// that carries planted faults, say.
pub fn reduce_case_on(db: &mut Dbms, case: &TestCase, crash: &CrashReport) -> (TestCase, usize) {
    let want = crash.stack_hash();
    debug_assert!(still_crashes(db, case, want), "input must reproduce the crash");
    reduce_with(case, |candidate| still_crashes(db, candidate, want))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure-3-style MySQL crasher padded with noise statements.
    fn noisy_crasher() -> TestCase {
        lego_sqlparser::parse_script(
            "CREATE TABLE pad1 (z INT);\n\
             INSERT INTO pad1 VALUES (123456);\n\
             CREATE TABLE v0 (v1 YEAR);\n\
             ANALYZE pad1;\n\
             INSERT INTO v0 VALUES (2021), (1999);\n\
             SELECT * FROM pad1;\n\
             CREATE TRIGGER tg AFTER UPDATE ON v0 FOR EACH ROW INSERT INTO v0;\n\
             SELECT LEAD (v1) OVER (ORDER BY v1) AS v1 FROM v0;",
        )
        .unwrap()
    }

    fn crash_of(case: &TestCase) -> CrashReport {
        Dbms::new(Dialect::MySql).execute_case(case).crash().cloned().expect("must crash")
    }

    #[test]
    fn reducer_shrinks_and_preserves_the_crash() {
        let case = noisy_crasher();
        let crash = crash_of(&case);
        let (reduced, execs) = reduce_case(&case, Dialect::MySql, &crash);
        assert!(reduced.len() < case.len(), "no shrinkage: {}", reduced.to_sql());
        assert!(execs > 0);
        let re_crash = crash_of(&reduced);
        assert_eq!(re_crash.stack_hash(), crash.stack_hash());
        // The sequence kernel must survive: trigger + window select.
        let sql = reduced.to_sql();
        assert!(sql.contains("CREATE TRIGGER"), "{sql}");
        assert!(sql.contains("OVER"), "{sql}");
    }

    #[test]
    fn reducer_reaches_the_two_statement_kernel_for_the_case_study() {
        let case = lego_sqlparser::parse_script(
            "CREATE TABLE v0 (v1 INT);\n\
             SELECT 1;\n\
             CREATE RULE r1 AS ON INSERT TO v0 DO INSTEAD NOTIFY ch;\n\
             ANALYZE v0;\n\
             WITH c AS (INSERT INTO v0 VALUES (0)) DELETE FROM v0 WHERE v1 = 0;",
        )
        .unwrap();
        let crash = Dbms::new(Dialect::Postgres)
            .execute_case(&case)
            .crash()
            .cloned()
            .expect("case-study crash");
        let (reduced, _) = reduce_case(&case, Dialect::Postgres, &crash);
        // CREATE TABLE + CREATE RULE + WITH is the irreducible core.
        assert!(reduced.len() <= 3, "{}", reduced.to_sql());
    }

    #[test]
    fn literals_are_simplified() {
        let case = noisy_crasher();
        let crash = crash_of(&case);
        let (reduced, _) = reduce_case(&case, Dialect::MySql, &crash);
        assert!(!reduced.to_sql().contains("123456"));
    }
}
