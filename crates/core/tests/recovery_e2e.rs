//! End-to-end triage pipeline test for the recovery (durability) oracle.
//!
//! A known lost-write defect is injected behind the test-only
//! `lego_dbms::faults` flag: at every WAL sync the final pending record is
//! marked durable but its bytes never reach the file. A campaign with the
//! recovery oracle enabled must then:
//!
//! 1. detect the defect (replay of the WAL diverges from the state the
//!    engine claimed was durable),
//! 2. collapse every affected case into exactly one deduplicated finding
//!    (the divergence class, not the case text, is the bug's identity), and
//! 3. reduce the reproducer to at most 3 statements.
//!
//! The fault flag is process-global, so every campaign-with-fault test
//! lives in this binary and serializes on one lock.

use lego::campaign::{run_engine, Budget, CampaignSpec, FuzzEngine};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, Telemetry};
use lego::oracle::{OracleKind, OracleSuite};
use lego::OracleConfig;
use lego_dbms::faults::FaultGuard;
use lego_sqlast::{Dialect, TestCase};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Fresh per-test WAL directory: concurrent campaigns must never share
/// `worker00.wal`.
fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_recovery_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic replay engine: cycles through a fixed case list (the
/// oracle-e2e idiom — each case reaches new engine branches, so each is
/// corpus-accepted and oracle-checked).
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

const VARIANT_A: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);
SELECT * FROM t WHERE a > 1;";

const VARIANT_B: &str = "CREATE TABLE t (a INT, b INT);
INSERT INTO t VALUES (5, 50), (6, 60), (7, 70);
UPDATE t SET b = 0 WHERE a = 5;
SELECT * FROM t WHERE a > 5;";

fn run_recovery_campaign(dir: &Path, tel: &Telemetry) -> lego::CampaignStats {
    let mut engine = Replay::new(&[VARIANT_A, VARIANT_B]);
    let spec = CampaignSpec {
        oracles: OracleConfig::recovery_only(),
        wal_dir: Some(dir.to_path_buf()),
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(400))
    };
    run_engine(&spec, tel, &mut engine).expect("campaign completes")
}

#[test]
fn injected_lost_write_is_found_deduped_and_reduced() {
    let _lock = fault_lock();
    let _guard = FaultGuard::enable_wal_drops_last_record();
    let dir = wal_dir("fault");
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let stats = run_recovery_campaign(&dir, &tel);

    // Both variants were corpus-accepted and recovery-checked.
    assert!(stats.oracle_checks >= 2, "oracle_checks = {}", stats.oracle_checks);
    // Every affected case collapsed into exactly one durability finding.
    assert_eq!(stats.logic_bugs.len(), 1, "{:#?}", stats.logic_bugs);
    assert_eq!(stats.durability_bugs, 1);
    let finding = &stats.logic_bugs[0];
    assert_eq!(finding.bug.oracle, OracleKind::Recovery);
    assert_eq!(finding.bug.dialect, Dialect::Postgres);
    assert!(
        finding.bug.query.contains("replay divergence"),
        "divergence class is the bug identity: {}",
        finding.bug.query
    );

    // The reducer shrank the reproducer (any synced statement reproduces a
    // dropped record, so the kernel is tiny).
    let reduced = lego_sqlparser::parse_script(&finding.reduced_sql).expect("reduced SQL parses");
    assert!(reduced.len() <= 3, "want <= 3 statements:\n{}", finding.reduced_sql);

    // The reproducer still trips the oracle with the same identity.
    let mut suite =
        OracleSuite::with_wal(Dialect::Postgres, OracleConfig::recovery_only(), Some(&dir), 99);
    assert!(suite.bug_persists(&reduced, finding.fingerprint()));

    // The finding surfaced through telemetry as a durability event (not a
    // plain logic-bug event).
    let events = mem.snapshot();
    assert!(
        events.iter().any(|e| matches!(e, Event::DurabilityBugFound { .. })),
        "no DurabilityBugFound event emitted"
    );
    assert!(
        !events.iter().any(|e| matches!(e, Event::LogicBugFound { .. })),
        "durability findings must not double-report as logic bugs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_campaign_with_fault_is_deterministic() {
    let _lock = fault_lock();
    let _guard = FaultGuard::enable_wal_drops_last_record();
    let dir = wal_dir("det");
    let run = || run_recovery_campaign(&dir, &Telemetry::disabled());
    assert_eq!(run().deterministic_json(), run().deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_engine_reports_no_durability_bugs() {
    let _lock = fault_lock();
    // No fault: the same campaign must stay silent (oracle soundness on the
    // defect-free engine), and the WAL files must actually exist.
    let dir = wal_dir("clean");
    let stats = run_recovery_campaign(&dir, &Telemetry::disabled());
    assert!(stats.logic_bugs.is_empty(), "{:#?}", stats.logic_bugs);
    assert_eq!(stats.durability_bugs, 0);
    assert!(stats.oracle_checks > 0);
    let wal = dir.join("worker00.wal");
    assert!(wal.exists(), "recovery oracle never journaled to {}", wal.display());
    let bytes = std::fs::read(&wal).expect("read WAL");
    assert!(bytes.starts_with(b"LEGOWAL1"), "WAL magic missing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_location_never_influences_findings() {
    let _lock = fault_lock();
    // The WAL path is environment, not input: an explicit --wal-dir and the
    // default temp-dir placement must produce byte-identical reports.
    let dir = wal_dir("loc");
    let run = |wal_dir: Option<PathBuf>| {
        let cfg = Config { rng_seed: 0xd15c, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Comdb2, cfg);
        let budget = Budget { units: 20_000, snapshots: 10 };
        let spec = CampaignSpec {
            oracles: OracleConfig::recovery_only(),
            wal_dir,
            ..CampaignSpec::new(Dialect::Comdb2, budget)
        };
        run_engine(&spec, &Telemetry::disabled(), &mut engine).expect("campaign completes")
    };
    let explicit = run(Some(dir.clone()));
    let default = run(None);
    assert_eq!(explicit.deterministic_json(), default.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}
