//! Oracle detection of an injected wrong-result fault: every suite here
//! replays on engines carrying the planted `WHERE` fault
//! (`lego_dbms::faults`), except the one that checks a fault-free suite
//! stays silent.

use lego_dbms::faults::Faults;
use lego_oracle::{OracleConfig, OracleKind, OracleSuite};
use lego_sqlast::{Dialect, TestCase};

fn case(sql: &str) -> TestCase {
    lego_sqlparser::parse_script(sql).expect("test SQL parses")
}

/// A PostgreSQL suite running `cfg` on engines whose `WHERE` filter drops
/// its last qualifying row.
fn faulted_suite(cfg: OracleConfig) -> OracleSuite {
    let mut suite = OracleSuite::new(Dialect::Postgres, cfg);
    suite.set_faults(Faults { where_drops_last_row: true, ..Faults::default() });
    suite
}

const BUGGY_CASE: &str = "CREATE TABLE t (a INT);
     INSERT INTO t VALUES (1), (2), (3), (4);
     SELECT * FROM t WHERE a > 1;";

#[test]
fn norec_catches_the_injected_filter_fault() {
    let mut s = faulted_suite(OracleConfig {
        tlp: false,
        norec: true,
        differential: false,
        recovery: false,
    });
    let out = s.check_case(&case(BUGGY_CASE));
    // The faulty WHERE drops the last qualifying row; the NoREC scan form
    // has no WHERE clause, so its TRUE-count stays correct.
    assert_eq!(out.bugs.len(), 1, "{:?}", out.bugs);
    let bug = &out.bugs[0];
    assert_eq!(bug.oracle, OracleKind::Norec);
    assert_eq!(bug.statement, 2);
    assert!(bug.query.contains("FROM t"), "{}", bug.query);
    assert!(bug.detail.contains("2 rows"), "{}", bug.detail);
}

#[test]
fn tlp_catches_the_injected_filter_fault() {
    let mut s = faulted_suite(OracleConfig {
        tlp: true,
        norec: false,
        differential: false,
        recovery: false,
    });
    // Include NULLs so all three partitions are non-trivial; each partition
    // query loses its last row while the unpartitioned scan stays intact.
    let out = s.check_case(&case(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (1), (NULL), (3), (4);
         SELECT * FROM t WHERE a > 1;",
    ));
    assert_eq!(out.bugs.len(), 1, "{:?}", out.bugs);
    assert_eq!(out.bugs[0].oracle, OracleKind::Tlp);
}

#[test]
fn fingerprint_is_stable_across_literal_variants_of_the_fault() {
    let mut s = faulted_suite(OracleConfig::metamorphic());
    let a = s.check_case(&case(BUGGY_CASE));
    let b = s.check_case(&case(
        "CREATE TABLE t (a INT);
         INSERT INTO t VALUES (10), (20), (30), (40);
         SELECT * FROM t WHERE a > 15;",
    ));
    assert!(!a.bugs.is_empty() && !b.bugs.is_empty());
    let fa: Vec<u64> = a.bugs.iter().map(|x| x.fingerprint()).collect();
    let fb: Vec<u64> = b.bugs.iter().map(|x| x.fingerprint()).collect();
    assert_eq!(fa, fb, "same defect shape must dedup across literal values");
}

#[test]
fn reduction_shrinks_a_logic_bug_reproducer() {
    let noisy = case(
        "CREATE TABLE pad (z TEXT);
         INSERT INTO pad VALUES ('noise');
         CREATE TABLE t (a INT);
         SELECT * FROM pad;
         INSERT INTO t VALUES (100), (200), (300);
         SELECT * FROM t WHERE a > 150;",
    );
    let mut s = faulted_suite(OracleConfig::metamorphic());
    let out = s.check_case(&noisy);
    let bug = out.bugs.first().cloned().expect("fault must be detected");
    let (reduced, evals) = lego_oracle::reduce::reduce_logic_bug(&noisy, &mut s, &bug);
    assert!(evals > 0);
    assert!(reduced.len() <= 3, "want <= 3 statements, got: {}", reduced.to_sql());
    assert!(!reduced.to_sql().contains("pad"), "{}", reduced.to_sql());
    // Literals canonicalized where the failure allows it.
    assert!(!reduced.to_sql().contains("300"), "{}", reduced.to_sql());
    // The reduced case still trips the oracle with the same identity.
    assert!(s.bug_persists(&reduced, bug.fingerprint()));
}

#[test]
fn a_fault_free_suite_reports_nothing_on_the_buggy_case() {
    let mut s = OracleSuite::new(Dialect::Postgres, OracleConfig::all());
    let out = s.check_case(&case(BUGGY_CASE));
    assert!(out.bugs.is_empty(), "{:?}", out.bugs);
}
