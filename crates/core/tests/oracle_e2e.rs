//! End-to-end triage pipeline test for the logic-bug oracles.
//!
//! A known wrong-result defect is planted in the campaign's engines through
//! `CampaignSpec::faults` (the WHERE filter silently drops its last
//! qualifying row; see `lego_dbms::faults`). A campaign with oracles enabled
//! must then:
//!
//! 1. detect the defect (NoREC: the un-filtered scan form bypasses the
//!    faulty filter),
//! 2. collapse duplicate findings across literal variants of the same query
//!    shape into exactly one report, and
//! 3. reduce the reproducer to at most 3 statements.

mod common;

use common::{Replay, VARIANT_A, VARIANT_B};
use lego::campaign::{run_engine, Budget, CampaignSpec, CampaignStats};
use lego::oracle::OracleKind;
use lego::OracleConfig;
use lego_dbms::faults::Faults;
use lego_observe::Telemetry;
use lego_sqlast::Dialect;

/// The planted wrong-result fault.
fn where_fault() -> Faults {
    Faults { where_drops_last_row: true, ..Faults::default() }
}

/// A 400-unit PostgreSQL campaign with the given oracles and faults.
fn oracle_campaign(engine: &mut Replay, oracles: OracleConfig, faults: Faults) -> CampaignStats {
    let spec = CampaignSpec {
        oracles,
        faults,
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(400))
    };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
}

#[test]
fn injected_logic_bug_is_found_deduped_and_reduced() {
    let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
    let oracles = OracleConfig { tlp: false, norec: true, differential: false, recovery: false };
    let stats = oracle_campaign(&mut engine, oracles, where_fault());

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
    suite.set_faults(where_fault());
    assert!(suite.bug_persists(&reduced, finding.fingerprint()));
}

#[test]
fn oracle_campaign_with_fault_is_deterministic() {
    let run = || {
        let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
        oracle_campaign(&mut engine, OracleConfig::all(), where_fault())
    };
    assert_eq!(run().deterministic_json(), run().deterministic_json());
}

#[test]
fn clean_engine_reports_no_logic_bugs() {
    // No fault: the same campaign must stay silent (oracle soundness on the
    // defect-free engine).
    let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
    let stats = oracle_campaign(&mut engine, OracleConfig::all(), Faults::default());
    assert!(stats.logic_bugs.is_empty(), "{:#?}", stats.logic_bugs);
    assert!(stats.oracle_checks > 0);
}
