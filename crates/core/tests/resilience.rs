//! Fault-tolerance contracts of the campaign supervisor.
//!
//! Three promises are exercised end to end, against *actually* faulty
//! engines (via the `lego-dbms` planted-fault switches):
//!
//! 1. **Panic isolation** — an engine panic mid-case becomes a recorded,
//!    deduplicated crash finding; the campaign runs to budget exhaustion.
//! 2. **Hang guards** — a spinning case trips its per-case execution budget,
//!    is counted and reported, and is never admitted to the corpus.
//! 3. **Worker-death tolerance** — a worker thread dying outside the
//!    per-case isolation boundary forfeits only its own budget slice; the
//!    join merges the survivors.
//!
//! Plus resume validation: a resume whose settings differ from the ones the
//! checkpoint recorded is refused with an error naming the setting. (That a
//! matching resume reproduces the uninterrupted run is pinned by
//! `campaign_matrix.rs`.)
//!
//! The fault switches are process-global and the cargo test harness runs
//! the tests in this binary on multiple threads, so every test holds
//! `FAULT_LOCK` for its whole body — the fault-free ones too, or a
//! concurrent test's planted fault would leak into their campaigns.

use lego::campaign::ParallelOpts;
use lego::campaign::{run, run_campaign, run_engine, Budget, CampaignSpec, FuzzEngine};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, Telemetry};
use lego_dbms::{ExecReport, PANIC_BUG_ID};
use lego_oracle::OracleConfig;
use lego_sqlast::{Dialect, TestCase};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> MutexGuard<'static, ()> {
    // A failed fault test must not wedge the others.
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_resilience_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic engine that cycles through a fixed script of cases and
/// records the admission verdict (`new_coverage`) each one received.
struct ScriptedEngine {
    cases: Vec<Arc<TestCase>>,
    next: usize,
    verdicts: Vec<(String, bool)>,
}

impl ScriptedEngine {
    fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|s| Arc::new(lego_sqlparser::parse_script(s).expect("scripted case parses")))
            .collect();
        Self { cases, next: 0, verdicts: Vec::new() }
    }
}

impl FuzzEngine for ScriptedEngine {
    fn name(&self) -> &'static str {
        "SCRIPTED"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        let case = Arc::clone(&self.cases[self.next % self.cases.len()]);
        self.next += 1;
        case
    }

    fn feedback(&mut self, case: &Arc<TestCase>, _report: &ExecReport, new_coverage: bool) {
        self.verdicts.push((case.to_sql(), new_coverage));
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        Vec::new()
    }
}

/// An engine that panics on its `n`-th case — *outside* the per-case
/// isolation boundary, modelling a bug in the fuzzer itself rather than in
/// the DBMS under test.
struct DyingEngine {
    inner: ScriptedEngine,
    dies_at: usize,
}

impl FuzzEngine for DyingEngine {
    fn name(&self) -> &'static str {
        "DYING"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        if self.inner.next >= self.dies_at {
            panic!("injected worker death");
        }
        self.inner.next_case()
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.inner.feedback(case, report, new_coverage);
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        Vec::new()
    }
}

const SCRIPT: [&str; 4] = [
    "CREATE TABLE t (a INT);",
    "INSERT INTO t VALUES (1);",
    "CREATE TRIGGER x1 AFTER INSERT ON t FOR EACH ROW DELETE FROM t;",
    "SELECT * FROM t;",
];

#[test]
fn engine_panic_becomes_a_recorded_finding_and_campaign_survives() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_panic_on_create_trigger();
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let stats = run_campaign(&mut engine, Dialect::Postgres, Budget::units(150));

    // The campaign survived to budget exhaustion and recorded exactly one
    // deduplicated panic finding (the same panic re-fires every cycle).
    assert!(stats.units >= 150, "campaign stopped early: {} units", stats.units);
    assert_eq!(stats.bugs.len(), 1, "expected one deduplicated panic finding");
    let bug = &stats.bugs[0];
    assert_eq!(bug.crash.bug_id, PANIC_BUG_ID);
    assert!(bug.crash.identifier.contains("PANIC"), "identifier: {}", bug.crash.identifier);
    // Panic findings skip delta debugging: the reproducer is the whole case.
    assert_eq!(bug.reduced_sql, bug.case_sql);
    // A panicking case is never admitted.
    assert!(engine
        .verdicts
        .iter()
        .filter(|(sql, _)| sql.contains("TRIGGER"))
        .all(|&(_, admitted)| !admitted));
}

#[test]
fn panic_campaigns_are_deterministic_across_worker_counts() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_panic_on_create_trigger();
    let factory =
        || |_w: usize| Box::new(ScriptedEngine::new(&SCRIPT)) as Box<dyn FuzzEngine + Send>;
    for workers in [1usize, 3] {
        let spec = CampaignSpec {
            parallel: ParallelOpts { workers, sync_every: 4 },
            ..CampaignSpec::new(Dialect::Postgres, Budget::units(900))
        };
        let go = || run(&spec, &Telemetry::disabled(), factory()).expect("campaign completes");
        let (a, b) = (go(), go());
        assert_eq!(
            a.deterministic_json(),
            b.deterministic_json(),
            "nondeterministic panic campaign at workers={workers}"
        );
        assert_eq!(a.bugs.len(), 1, "workers={workers}");
        assert_eq!(a.bugs[0].crash.bug_id, PANIC_BUG_ID);
        assert_eq!(a.workers_lost, 0);
    }
}

#[test]
fn hang_guard_aborts_spinning_cases_and_never_retains_them() {
    let _lock = fault_lock();
    let _fault = lego_dbms::faults::FaultGuard::enable_spin_on_create_trigger();
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let spec = CampaignSpec::new(Dialect::Postgres, Budget::units(400));
    let stats = run_engine(&spec, &tel, &mut engine).expect("campaign completes");

    assert!(stats.cases_aborted > 0, "hang guard never fired");
    assert!(stats.bugs.is_empty(), "a hang is not a crash");
    // Every abort surfaced in telemetry with its budget reason.
    let aborts: Vec<String> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::CaseAborted { reason, .. } => Some(reason.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(aborts.len(), stats.cases_aborted);
    assert!(aborts.iter().all(|r| r == "row_budget"), "reasons: {aborts:?}");
    // Aborted cases are never admitted to the corpus.
    assert!(engine
        .verdicts
        .iter()
        .filter(|(sql, _)| sql.contains("TRIGGER"))
        .all(|&(_, admitted)| !admitted));
}

#[test]
fn dead_worker_forfeits_only_its_own_slice() {
    // No fault switch is flipped (the death is injected in the engine), but
    // a concurrent test's would leak into this campaign.
    let _lock = fault_lock();
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let factory = |w: usize| -> Box<dyn FuzzEngine + Send> {
        if w == 1 {
            Box::new(DyingEngine { inner: ScriptedEngine::new(&SCRIPT), dies_at: 5 })
        } else {
            Box::new(ScriptedEngine::new(&SCRIPT))
        }
    };
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 3, sync_every: 2 },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(900))
    };
    let stats = run(&spec, &tel, factory).expect("campaign must survive a dead worker");

    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.fuzzer, "SCRIPTED", "fuzzer name comes from a survivor");
    // Both survivors ran their full slices (300 units each).
    assert!(stats.units >= 600, "survivors forfeited work: {} units", stats.units);
    assert!(stats.branches > 0);
    let deaths: Vec<(usize, String)> = mem
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::WorkerDied { worker, error } => Some((*worker, error.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(deaths.len(), 1);
    assert_eq!(deaths[0].0, 1);
    assert!(deaths[0].1.contains("injected worker death"), "error: {}", deaths[0].1);
}

fn lego(w: usize) -> Box<dyn FuzzEngine + Send> {
    let rng_seed = 7 ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    Box::new(LegoFuzzer::new(Dialect::Postgres, Config { rng_seed, ..Config::default() }))
}

fn scripted(_w: usize) -> Box<dyn FuzzEngine + Send> {
    Box::new(ScriptedEngine::new(&SCRIPT))
}

/// A changed setting of a resumed campaign.
type Change = fn(&mut CampaignSpec);
/// The engines a resumed campaign builds.
type Factory = fn(usize) -> Box<dyn FuzzEngine + Send>;

#[test]
fn resume_rejects_every_setting_that_differs_from_the_checkpoint() {
    let _lock = fault_lock();
    let dir = tmpdir("mismatch");
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 2, sync_every: 4 },
        checkpoint: CheckpointCfg { every_units: 2_000, dir: Some(dir.clone()), resume: None },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(6_000))
    };
    run(&spec, &Telemetry::disabled(), lego).expect("seeding run completes");
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    let resuming = CampaignSpec {
        checkpoint: CheckpointCfg { every_units: 2_000, dir: None, resume: Some(resume) },
        ..spec
    };
    // One row per setting the checkpoint records: the name the error must
    // give, the changed setting, and the engines to resume with.
    let rows: [(&str, Change, Factory); 10] = [
        ("fuzzer", |_| {}, scripted),
        ("dialect", |s| s.dialect = Dialect::MySql, lego),
        ("budget_units", |s| s.budget.units += 1, lego),
        ("snapshots", |s| s.budget.snapshots += 1, lego),
        ("workers", |s| s.parallel.workers = 3, lego),
        ("sync_every", |s| s.parallel.sync_every = 8, lego),
        ("every_units", |s| s.checkpoint.every_units = 3_000, lego),
        ("oracles", |s| s.oracles = OracleConfig::all(), lego),
        ("rule_cov", |s| s.rule_cov = true, lego),
        ("sema", |s| s.sema = true, lego),
    ];
    for (field, change, factory) in rows {
        let mut spec = resuming.clone();
        change(&mut spec);
        let err = run(&spec, &Telemetry::disabled(), factory).expect_err(field);
        assert!(err.contains(&format!("{field}=")), "{field}: unhelpful error: {err}");
    }
    run(&resuming, &Telemetry::disabled(), lego).expect("a matching resume is accepted");
    let _ = std::fs::remove_dir_all(&dir);
}
