//! The analyzer-vs-engine conformance oracle, end to end.
//!
//! The analyzer and the engine agree on everything the agreement suite
//! covers, so a real divergence cannot be provoked from the outside. Instead
//! the planted `overaccept_commit` analyzer fault (see
//! `lego_sqlsema::faults`) makes the binder wrongly accept `COMMIT` outside
//! a transaction; the engine then rejects the statement at runtime and the
//! campaign must surface the disagreement as a `SemaDivergence` finding —
//! deduplicated by fingerprint and delta-debugged like every other logic
//! bug.
//!
//! Kept in its own test binary: the fault switch is global to the process,
//! so both tests — the fault-free one too — serialize on one lock.

use lego::campaign::{run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::observe::Telemetry;
use lego_dbms::ExecReport;
use lego_oracle::OracleKind;
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::faults::FaultGuard;
use std::sync::{Arc, Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    // A failed fault test must not wedge the other.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Hands out a fixed cycle of hand-written cases — no RNG, no corpus — so
/// the campaign sees exactly the fixtures below, repeatedly.
struct Fixtures {
    cases: Vec<Arc<TestCase>>,
    next: usize,
}

impl Fixtures {
    fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|sql| Arc::new(lego_sqlparser::parse_script(sql).expect("fixture must parse")))
            .collect();
        Self { cases, next: 0 }
    }
}

impl FuzzEngine for Fixtures {
    fn name(&self) -> &'static str {
        "fixtures"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        let case = self.cases[self.next % self.cases.len()].clone();
        self.next += 1;
        case
    }
    fn feedback(&mut self, _case: &Arc<TestCase>, _report: &ExecReport, _new_coverage: bool) {}
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.cases.clone()
    }
}

/// A 2,000-unit PostgreSQL campaign with the analyzer on.
fn sema_campaign(engine: &mut Fixtures) -> CampaignStats {
    let spec =
        CampaignSpec { sema: true, ..CampaignSpec::new(Dialect::Postgres, Budget::units(2_000)) };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
}

#[test]
fn planted_overacceptance_yields_exactly_one_reduced_divergence_finding() {
    let _lock = fault_lock();
    let _fault = FaultGuard::enable_overaccept_commit();
    // Two healthy fixtures plus the divergent one, which the cycle serves
    // many times over the budget — the fingerprint dedup must collapse every
    // repeat (and the padding statements must not split the identity).
    let mut engine = Fixtures::new(&[
        "CREATE TABLE t0 (c0 INT); INSERT INTO t0 (c0) VALUES (1); COMMIT; SELECT c0 FROM t0;",
        "CREATE TABLE t1 (c0 INT); SELECT c0 FROM t1;",
        "CREATE TABLE t2 (c0 INT); INSERT INTO t2 (c0) VALUES (7); COMMIT; SELECT c0 FROM t2;",
    ]);
    let stats = sema_campaign(&mut engine);

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
    let _lock = fault_lock();
    // No FaultGuard: the analyzer honestly rejects the bare COMMITs, so the
    // cases are skipped (or audited and found to *agree*: the analyzer said
    // Reject and the engine erred) and no finding appears.
    let mut engine = Fixtures::new(&[
        "CREATE TABLE t0 (c0 INT); INSERT INTO t0 (c0) VALUES (1); COMMIT; SELECT c0 FROM t0;",
        "CREATE TABLE t1 (c0 INT); SELECT c0 FROM t1;",
    ]);
    let stats = sema_campaign(&mut engine);
    assert_eq!(stats.sema_divergences, 0);
    assert!(stats.sema_rejects > 0, "the bare COMMIT fixture must be statically rejected");
    assert!(stats.sema_skipped_stmts > 0);
}
