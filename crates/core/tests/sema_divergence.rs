//! The analyzer-vs-engine conformance oracle, end to end.
//!
//! The analyzer and the engine agree on everything the agreement suite
//! covers, so a real divergence cannot be provoked from the outside. Instead
//! the planted `overaccept_commit` analyzer fault (see `lego_dbms::faults`),
//! set through `CampaignSpec::faults`, makes the campaign's binders wrongly
//! accept `COMMIT` outside a transaction; the engine then rejects the
//! statement at runtime and the campaign must surface the disagreement as a
//! `SemaDivergence` finding — deduplicated by fingerprint and delta-debugged
//! like every other logic bug.

mod common;

use common::Replay;
use lego::campaign::{run_engine, Budget, CampaignSpec, CampaignStats};
use lego::observe::Telemetry;
use lego_dbms::faults::Faults;
use lego_oracle::OracleKind;
use lego_sqlast::Dialect;

/// A 2,000-unit PostgreSQL campaign with the analyzer on and `faults`
/// planted.
fn sema_campaign(engine: &mut Replay, faults: Faults) -> CampaignStats {
    let spec = CampaignSpec {
        sema: true,
        faults,
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(2_000))
    };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
}

#[test]
fn planted_overacceptance_yields_exactly_one_reduced_divergence_finding() {
    // Two healthy fixtures plus the divergent one, which the cycle serves
    // many times over the budget — the fingerprint dedup must collapse every
    // repeat (and the padding statements must not split the identity).
    let mut engine = Replay::new(&[
        "CREATE TABLE t0 (c0 INT); INSERT INTO t0 (c0) VALUES (1); COMMIT; SELECT c0 FROM t0;",
        "CREATE TABLE t1 (c0 INT); SELECT c0 FROM t1;",
        "CREATE TABLE t2 (c0 INT); INSERT INTO t2 (c0) VALUES (7); COMMIT; SELECT c0 FROM t2;",
    ]);
    let stats = sema_campaign(&mut engine, Faults { overaccept_commit: true, ..Faults::default() });

    assert_eq!(
        stats.sema_divergences,
        1,
        "expected exactly one deduped divergence, got {} ({} logic bugs total)",
        stats.sema_divergences,
        stats.logic_bugs.len()
    );
    let finding = stats
        .logic_bugs
        .iter()
        .find(|f| f.bug.oracle == OracleKind::Sema)
        .expect("divergence finding rides the logic-bug channel");
    assert_eq!(finding.bug.query, "COMMIT", "divergence must point at the lying verdict");
    assert!(
        finding.bug.detail.contains("engine rejected"),
        "direction must be analyzer-accepts/engine-rejects: {}",
        finding.bug.detail
    );
    // Delta debugging keeps the disagreement while shedding the scaffold:
    // `COMMIT` alone still diverges, so nothing else may survive.
    assert_eq!(finding.reduced_sql.trim(), "COMMIT;", "reducer kept scaffold statements");
    // The un-reduced reproducer is one of the two divergent fixtures.
    assert!(finding.case_sql.contains("COMMIT"), "case_sql lost the divergent statement");
}

#[test]
fn healthy_analyzer_reports_no_divergence_on_the_same_fixtures() {
    // No fault: the analyzer honestly rejects the bare COMMITs, so the
    // cases are skipped (or audited and found to *agree*: the analyzer said
    // Reject and the engine erred) and no finding appears.
    let mut engine = Replay::new(&[
        "CREATE TABLE t0 (c0 INT); INSERT INTO t0 (c0) VALUES (1); COMMIT; SELECT c0 FROM t0;",
        "CREATE TABLE t1 (c0 INT); SELECT c0 FROM t1;",
    ]);
    let stats = sema_campaign(&mut engine, Faults::default());
    assert_eq!(stats.sema_divergences, 0);
    assert!(stats.sema_rejects > 0, "the bare COMMIT fixture must be statically rejected");
    assert!(stats.sema_skipped_stmts > 0);
}
