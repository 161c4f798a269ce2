//! Metamorphic oracles: TLP and NoREC.
//!
//! Both replay the case's statements one at a time on a dedicated DBMS
//! instance and, *before* each eligible plain `SELECT … WHERE p` executes,
//! run the oracle's rewritten companions against the current database state:
//!
//! * **TLP**: the multiset union of `WHERE p` / `WHERE NOT p` /
//!   `WHERE p IS NULL` must equal the unpartitioned result.
//! * **NoREC**: `SELECT … WHERE p` must return exactly as many rows as the
//!   predicate evaluates to TRUE on the unfiltered scan
//!   (`SELECT p AS norec FROM …`).
//!
//! Eligibility (no aggregates/windows/GROUP BY/DISTINCT/LIMIT…) is decided
//! by `lego_sqlast::rewrite`; queries that error are skipped rather than
//! flagged — execution errors are the crash oracle's domain.

use crate::{plain_select, LogicBug, OracleConfig, OracleKind, OracleOutcome};
use lego_dbms::{Dbms, ResultSet};
use lego_sqlast::ast::Query;
use lego_sqlast::rewrite::{norec_rewrite, tlp_partition};
use lego_sqlast::{Dialect, TestCase};

pub(crate) fn check(
    db: &mut Dbms,
    dialect: Dialect,
    cfg: OracleConfig,
    case: &TestCase,
    out: &mut OracleOutcome,
) {
    db.reset();
    for (idx, stmt) in case.statements.iter().enumerate() {
        if let Some(q) = plain_select(stmt) {
            if cfg.tlp {
                if let Some(bug) = check_tlp(db, dialect, idx, q, out) {
                    out.bugs.push(bug);
                }
            }
            if cfg.norec {
                if let Some(bug) = check_norec(db, dialect, idx, q, out) {
                    out.bugs.push(bug);
                }
            }
        }
        // Advance the database state through this statement. A single
        // statement has a single-kind type trace, so the sequence-pattern
        // crash oracle cannot fire on cases the campaign already ran clean —
        // but stop replaying if the instance dies anyway.
        let rep = db.execute_case(&TestCase::new(vec![stmt.clone()]));
        out.execs += rep.statements_executed.max(1);
        let crashed = rep.crash().is_some();
        db.recycle(rep.coverage);
        if crashed {
            break;
        }
    }
}

fn check_tlp(
    db: &mut Dbms,
    dialect: Dialect,
    idx: usize,
    q: &Query,
    out: &mut OracleOutcome,
) -> Option<LogicBug> {
    let part = tlp_partition(q)?;
    out.execs += 1;
    let base = db.run_query(&part.unpartitioned).ok()?;
    let mut union = ResultSet { columns: base.columns.clone(), rows: Vec::new() };
    for pq in &part.partitions {
        out.execs += 1;
        let rs = db.run_query(pq).ok()?;
        union.rows.extend(rs.rows);
    }
    out.checks += 1;
    if base.fingerprint() == union.fingerprint() {
        return None;
    }
    Some(LogicBug {
        oracle: OracleKind::Tlp,
        dialect,
        statement: idx,
        query: q.to_string(),
        detail: format!(
            "unpartitioned query returned {} rows but the TLP partitions \
             (p / NOT p / p IS NULL) union to {} rows",
            base.rows.len(),
            union.rows.len()
        ),
    })
}

fn check_norec(
    db: &mut Dbms,
    dialect: Dialect,
    idx: usize,
    q: &Query,
    out: &mut OracleOutcome,
) -> Option<LogicBug> {
    let pair = norec_rewrite(q)?;
    out.execs += 2;
    let optimized = db.run_query(&pair.optimized).ok()?;
    let scan = db.run_query(&pair.scan).ok()?;
    out.checks += 1;
    let expected = scan.truthy_rows();
    if optimized.rows.len() == expected {
        return None;
    }
    Some(LogicBug {
        oracle: OracleKind::Norec,
        dialect,
        statement: idx,
        query: q.to_string(),
        detail: format!(
            "filtered query returned {} rows but the predicate is TRUE on \
             {} of {} scanned rows",
            optimized.rows.len(),
            expected,
            scan.rows.len()
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleSuite;
    use lego_sqlparser::parse_script;

    fn suite(cfg: OracleConfig) -> OracleSuite {
        OracleSuite::new(Dialect::Postgres, cfg)
    }

    fn case(sql: &str) -> TestCase {
        parse_script(sql).expect("test SQL parses")
    }

    #[test]
    fn clean_engine_passes_tlp_and_norec() {
        let mut s = suite(OracleConfig::metamorphic());
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT, b TEXT);
             INSERT INTO t VALUES (1, 'x'), (2, NULL), (NULL, 'y');
             SELECT * FROM t WHERE a < 2;
             SELECT a FROM t WHERE b = 'x';",
        ));
        assert!(out.bugs.is_empty(), "{:?}", out.bugs);
        // Two eligible SELECTs × two oracles.
        assert_eq!(out.checks, 4);
        assert!(out.execs > 4);
    }

    #[test]
    fn ineligible_selects_are_skipped_not_flagged() {
        let mut s = suite(OracleConfig::metamorphic());
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1), (2);
             SELECT count(*) FROM t WHERE a > 0;
             SELECT * FROM t;
             SELECT * FROM t WHERE a > 0 LIMIT 1;",
        ));
        assert!(out.bugs.is_empty(), "{:?}", out.bugs);
        assert_eq!(out.checks, 0, "aggregate/where-less/limit queries are ineligible");
    }

    #[test]
    fn erroring_query_is_skipped() {
        let mut s = suite(OracleConfig::metamorphic());
        let out = s.check_case(&case("SELECT * FROM missing WHERE a = 1;"));
        assert!(out.bugs.is_empty());
        assert_eq!(out.checks, 0);
    }

    #[test]
    fn null_predicate_rows_are_partitioned_correctly() {
        // Rows where the predicate is NULL appear in no filtered result but
        // must appear in the `p IS NULL` partition — classic TLP territory.
        let mut s = suite(OracleConfig::metamorphic());
        let out = s.check_case(&case(
            "CREATE TABLE t (a INT);
             INSERT INTO t VALUES (1), (NULL), (3), (NULL);
             SELECT * FROM t WHERE a > 1;",
        ));
        assert!(out.bugs.is_empty(), "{:?}", out.bugs);
        assert_eq!(out.checks, 2);
    }

    // Fault-injection detection tests live in `tests/fault_detection.rs`:
    // the fault flag is process-global, so they need their own test binary.
}
