//! End-to-end triage pipeline test for the logic-bug oracles.
//!
//! A known wrong-result defect is injected behind the test-only
//! `lego_dbms::faults` flag (the WHERE filter silently drops its last
//! qualifying row). A campaign with oracles enabled must then:
//!
//! 1. detect the defect (NoREC: the un-filtered scan form bypasses the
//!    faulty filter),
//! 2. collapse duplicate findings across literal variants of the same query
//!    shape into exactly one report, and
//! 3. reduce the reproducer to at most 3 statements.
//!
//! The fault flag is process-global, so every campaign-with-fault test
//! lives in this binary and serializes on one lock.

use lego::campaign::{run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::oracle::OracleKind;
use lego::OracleConfig;
use lego_dbms::faults::FaultGuard;
use lego_observe::Telemetry;
use lego_sqlast::{Dialect, TestCase};
use std::sync::{Arc, Mutex};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic replay engine: cycles through a fixed case list. The cases
/// share one SELECT skeleton (same tables/columns/operators, different
/// literals) so every oracle finding has the same fingerprint, but each case
/// adds a fresh statement kind so each gains new coverage and is
/// oracle-checked.
struct Replay {
    cases: Vec<Arc<TestCase>>,
    next: usize,
}

impl Replay {
    fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|s| Arc::new(lego_sqlparser::parse_script(s).expect("replay SQL parses")))
            .collect();
        Self { cases, next: 0 }
    }
}

impl FuzzEngine for Replay {
    fn name(&self) -> &'static str {
        "replay"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        let case = Arc::clone(&self.cases[self.next % self.cases.len()]);
        self.next += 1;
        case
    }
    fn feedback(&mut self, _case: &Arc<TestCase>, _report: &lego_dbms::ExecReport, _new: bool) {}
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.cases.clone()
    }
}

/// Two literal variants of the same buggy query shape, plus noise
/// statements for the reducer to strip. The second case updates rows so it
/// reaches engine branches the first did not (UPDATE path) and is therefore
/// corpus-accepted and checked too.
const VARIANT_A: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
SELECT * FROM t WHERE a > 1;";

const VARIANT_B: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (5, 50), (6, 60), (7, 70);
UPDATE t SET b = 0 WHERE a = 5;
SELECT * FROM t WHERE a > 5;";

/// A 400-unit PostgreSQL campaign with the given oracles.
fn oracle_campaign(engine: &mut Replay, oracles: OracleConfig) -> CampaignStats {
    let spec = CampaignSpec { oracles, ..CampaignSpec::new(Dialect::Postgres, Budget::units(400)) };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
}

#[test]
fn injected_logic_bug_is_found_deduped_and_reduced() {
    let _lock = FAULT_LOCK.lock().unwrap();
    let _guard = FaultGuard::enable_where_drops_last_row();
    let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
    let oracles = OracleConfig { tlp: false, norec: true, differential: false, recovery: false };
    let stats = oracle_campaign(&mut engine, oracles);

    // Both variants were corpus-accepted and oracle-checked.
    assert!(stats.oracle_checks >= 2, "oracle_checks = {}", stats.oracle_checks);
    // The oracle found the injected defect; literal variants of the same
    // query shape collapsed into exactly one deduplicated report.
    assert_eq!(stats.logic_bugs.len(), 1, "{:#?}", stats.logic_bugs);
    let finding = &stats.logic_bugs[0];
    assert_eq!(finding.bug.oracle, OracleKind::Norec);
    assert_eq!(finding.bug.dialect, Dialect::Postgres);
    assert!(finding.bug.query.contains("FROM t"), "{}", finding.bug.query);

    // The reducer shrank the reproducer to the kernel: CREATE + INSERT +
    // SELECT (3 statements), with noise statements stripped.
    let reduced = lego_sqlparser::parse_script(&finding.reduced_sql).expect("reduced SQL parses");
    assert!(reduced.len() <= 3, "want <= 3 statements:\n{}", finding.reduced_sql);
    assert!(!finding.reduced_sql.contains("UPDATE"), "{}", finding.reduced_sql);

    // The reproducer still trips the oracle with the same identity.
    let mut suite = lego::oracle::OracleSuite::new(Dialect::Postgres, oracles);
    assert!(suite.bug_persists(&reduced, finding.fingerprint()));
}

#[test]
fn oracle_campaign_with_fault_is_deterministic() {
    let _lock = FAULT_LOCK.lock().unwrap();
    let _guard = FaultGuard::enable_where_drops_last_row();
    let run = || {
        let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
        oracle_campaign(&mut engine, OracleConfig::all())
    };
    assert_eq!(run().deterministic_json(), run().deterministic_json());
}

#[test]
fn clean_engine_reports_no_logic_bugs() {
    let _lock = FAULT_LOCK.lock().unwrap();
    // No fault: the same campaign must stay silent (oracle soundness on the
    // defect-free engine).
    let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
    let stats = oracle_campaign(&mut engine, OracleConfig::all());
    assert!(stats.logic_bugs.is_empty(), "{:#?}", stats.logic_bugs);
    assert!(stats.oracle_checks > 0);
}
