//! Fault-tolerance contracts of the campaign supervisor.
//!
//! Three promises are exercised end to end, against *actually* faulty
//! engines (the planted faults of `lego_dbms::faults`, set per campaign
//! through `CampaignSpec::faults`):
//!
//! 1. **Panic isolation** — an engine panic mid-case becomes a recorded,
//!    deduplicated crash finding; the campaign runs to budget exhaustion.
//! 2. **Hang guards** — a spinning case trips its per-case execution budget,
//!    is counted and reported, and is never admitted to the corpus.
//! 3. **Worker-death tolerance** — a worker thread dying outside the
//!    per-case isolation boundary forfeits only its own budget slice; the
//!    join merges the survivors, and nothing of the dead worker.
//!
//! Plus resume validation: a resume whose settings differ from the ones the
//! checkpoint recorded is refused with an error naming the setting; workers
//! that stopped at different checkpoints each resume from their own newest
//! one; a resume reports none of its checkpoint's crash, oracle or analyzer
//! findings again; and a fresh campaign that dies before its first
//! checkpoint leaves no earlier campaign's checkpoint to resume from. (That
//! a matching resume of every feature set reproduces the uninterrupted run
//! is pinned by `campaign_matrix.rs`.) And fault isolation: a faulted
//! campaign leaves a concurrent fault-free one untouched.

mod common;

use common::StopsAfterCheckpoint;
use lego::campaign::ParallelOpts;
use lego::campaign::{run, run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, Telemetry};
use lego_dbms::faults::Faults;
use lego_dbms::{ExecReport, PANIC_BUG_ID};
use lego_oracle::OracleConfig;
use lego_sqlast::{Dialect, TestCase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

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
    /// Before handing out case `n`, wait on each of these barriers in turn.
    gate: Option<(usize, Vec<Arc<Barrier>>)>,
}

impl ScriptedEngine {
    fn new(scripts: &[&str]) -> Self {
        let cases = scripts
            .iter()
            .map(|s| Arc::new(lego_sqlparser::parse_script(s).expect("scripted case parses")))
            .collect();
        Self { cases, next: 0, verdicts: Vec::new(), gate: None }
    }
}

impl FuzzEngine for ScriptedEngine {
    fn name(&self) -> &'static str {
        "SCRIPTED"
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        if let Some((at, barriers)) = &self.gate {
            if *at == self.next {
                for barrier in barriers {
                    barrier.wait();
                }
            }
        }
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

/// The planted engine panic on `CREATE TRIGGER`.
fn panics() -> Faults {
    Faults { panic_on_create_trigger: true, ..Faults::default() }
}

/// A serial 150-unit PostgreSQL campaign on `engine` with `faults` planted.
fn scripted_campaign(engine: &mut ScriptedEngine, faults: Faults) -> CampaignStats {
    let spec = CampaignSpec { faults, ..CampaignSpec::new(Dialect::Postgres, Budget::units(150)) };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
}

#[test]
fn engine_panic_becomes_a_recorded_finding_and_campaign_survives() {
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let stats = scripted_campaign(&mut engine, panics());

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
fn a_faulted_campaign_leaves_a_concurrent_fault_free_one_untouched() {
    let solo = scripted_campaign(&mut ScriptedEngine::new(&SCRIPT), Faults::default());
    assert!(solo.bugs.is_empty(), "the fault-free engine never panics");
    // The faulted campaign stops before its 7th case (after the trigger
    // case has panicked once) until the fault-free campaign has run from
    // its first case to its end.
    let (mid, done) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let mut faulted = ScriptedEngine::new(&SCRIPT);
    faulted.gate = Some((6, vec![mid.clone(), done.clone()]));
    let mut clean = ScriptedEngine::new(&SCRIPT);
    clean.gate = Some((0, vec![mid]));
    let (faulted, clean) = std::thread::scope(|s| {
        let faulted = s.spawn(move || scripted_campaign(&mut faulted, panics()));
        let clean = s.spawn(move || {
            let stats = scripted_campaign(&mut clean, Faults::default());
            done.wait();
            stats
        });
        (faulted.join().unwrap(), clean.join().unwrap())
    });
    assert_eq!(clean.deterministic_json(), solo.deterministic_json());
    assert_eq!(faulted.bugs.len(), 1, "one deduplicated panic finding");
    assert_eq!(faulted.bugs[0].crash.bug_id, PANIC_BUG_ID);
}

#[test]
fn panic_campaigns_are_deterministic_across_worker_counts() {
    let factory =
        || |_w: usize| Box::new(ScriptedEngine::new(&SCRIPT)) as Box<dyn FuzzEngine + Send>;
    for workers in [1usize, 3] {
        let spec = CampaignSpec {
            parallel: ParallelOpts { workers },
            faults: panics(),
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
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let mut engine = ScriptedEngine::new(&SCRIPT);
    let spec = CampaignSpec {
        faults: Faults { spin_on_create_trigger: true, ..Faults::default() },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(400))
    };
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

/// The dying worker's script: its first cases run statements that [`SCRIPT`]
/// never does, so edges only the dying worker reached would show in the
/// report if any of its work were kept.
const DYING_SCRIPT: [&str; 2] = [
    "CREATE TABLE u (b INT);\nCREATE INDEX ub ON u (b);\nUPDATE u SET b = 2 WHERE b = 1;",
    "CREATE TABLE v (c INT);\nDELETE FROM v WHERE c > 0;",
];

#[test]
fn dead_worker_forfeits_only_its_own_slice() {
    // Worker 1 dies before its `dies_at`-th case; the others run SCRIPT.
    let factory = |dies_at: usize| {
        move |w: usize| -> Box<dyn FuzzEngine + Send> {
            if w == 1 {
                Box::new(DyingEngine { inner: ScriptedEngine::new(&DYING_SCRIPT), dies_at })
            } else {
                Box::new(ScriptedEngine::new(&SCRIPT))
            }
        }
    };
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 3 },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(900))
    };
    let mem = Arc::new(MemorySink::new());
    let tel = Telemetry::builder().sink(mem.clone()).seed(1).build();
    let stats = run(&spec, &tel, factory(5)).expect("campaign must survive a dead worker");

    assert_eq!(stats.workers_lost, 1);
    assert_eq!(stats.fuzzer, "SCRIPTED", "fuzzer name comes from a survivor");
    // Both survivors ran their full slices (300 units each).
    assert!(stats.units >= 600, "survivors forfeited work: {} units", stats.units);
    assert!(stats.branches > 0);
    // The dead worker contributes nothing: the totals are the survivors'
    // maps, which the last curve point unions too, and the report is the
    // one a worker that died before its first case leaves.
    assert_eq!(stats.coverage_curve.last(), Some(&(stats.units, stats.branches)));
    let at_once = run(&spec, &Telemetry::disabled(), factory(0)).expect("survivors complete");
    assert_eq!(stats.deterministic_json(), at_once.deterministic_json());
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
    let dir = tmpdir("mismatch");
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 2 },
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
    let rows: [(&str, Change, Factory); 9] = [
        ("fuzzer", |_| {}, scripted),
        ("dialect", |s| s.dialect = Dialect::MySql, lego),
        ("budget_units", |s| s.budget.units += 1, lego),
        ("snapshots", |s| s.budget.snapshots += 1, lego),
        ("workers", |s| s.parallel.workers = 3, lego),
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

/// A two-worker PostgreSQL campaign on [`lego`] engines, checkpointing to
/// `dir` at a cadence that does not divide the 3,000-unit slices.
fn two_workers(dir: &std::path::Path) -> CampaignSpec {
    CampaignSpec {
        parallel: ParallelOpts { workers: 2 },
        checkpoint: CheckpointCfg {
            every_units: 1_100,
            dir: Some(dir.to_path_buf()),
            resume: None,
        },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(6_000))
    }
}

#[test]
fn workers_resume_from_their_own_newest_checkpoints() {
    let dir = tmpdir("uneven");
    let spec = two_workers(&dir);
    let full = run(&spec, &Telemetry::disabled(), lego).expect("uninterrupted run completes");
    // Worker 0 dies right after its checkpoint 1; worker 1 runs its slice
    // out, checkpointing as it goes.
    let stops = |w: usize| -> Box<dyn FuzzEngine + Send> {
        match w {
            0 => Box::new(StopsAfterCheckpoint::new(lego(w))),
            _ => lego(w),
        }
    };
    let cut = run(&spec, &Telemetry::disabled(), stops).expect("worker 1 survives");
    assert_eq!(cut.workers_lost, 1);
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    let seqs: Vec<usize> = resume.workers.iter().map(|w| w.seq).collect();
    assert!(seqs[0] == 1 && seqs[1] > 1, "checkpoints taken: {seqs:?}");
    let resuming = CampaignSpec {
        checkpoint: CheckpointCfg { every_units: 1_100, dir: None, resume: Some(resume) },
        ..spec
    };
    let resumed = run(&resuming, &Telemetry::disabled(), lego).expect("resume completes");
    assert_eq!(resumed.deterministic_json(), full.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_fresh_campaign_that_dies_before_its_first_checkpoint_leaves_nothing_to_resume() {
    let dir = tmpdir("stale");
    let longer = CampaignSpec { parallel: ParallelOpts::default(), ..two_workers(&dir) };
    run(&longer, &Telemetry::disabled(), lego).expect("the longer campaign completes");
    load_campaign_checkpoint(&dir).expect("its checkpoint loads");
    // A shorter campaign in the same directory, whose engine panics at its
    // first case, writes its own meta.json and dies.
    let shorter = CampaignSpec { budget: Budget::units(3_000), ..longer };
    let mut dying = DyingEngine { inner: ScriptedEngine::new(&SCRIPT), dies_at: 0 };
    let died =
        catch_unwind(AssertUnwindSafe(|| run_engine(&shorter, &Telemetry::disabled(), &mut dying)));
    assert!(died.is_err(), "the engine panics at its first case");
    let err = load_campaign_checkpoint(&dir).expect_err("nothing of the longer campaign resumes");
    assert!(err.contains("worker00.json"), "the error should name worker00.json: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_resume_reports_no_finding_of_its_checkpoint_twice() {
    // MariaDB crashes, a planted wrong result and an over-accepting analyzer
    // fill all three findings lists before checkpoint 1. A resume rebuilds
    // their dedup sets from the stored fingerprints, so the findings that
    // recur after it are not reported again.
    let dir = tmpdir("findings");
    let spec = CampaignSpec {
        oracles: OracleConfig::all(),
        sema: true,
        faults: Faults { where_drops_last_row: true, overaccept_commit: true, ..Faults::default() },
        checkpoint: CheckpointCfg { every_units: 1_000, dir: Some(dir.clone()), resume: None },
        ..CampaignSpec::new(Dialect::MariaDb, Budget::units(8_000))
    };
    let maria = |_w: usize| -> Box<dyn FuzzEngine + Send> {
        Box::new(LegoFuzzer::new(Dialect::MariaDb, Config { sema: true, ..Config::default() }))
    };
    let full = run(&spec, &Telemetry::disabled(), maria).expect("uninterrupted run completes");
    let stops =
        |w: usize| -> Box<dyn FuzzEngine + Send> { Box::new(StopsAfterCheckpoint::new(maria(w))) };
    let died = catch_unwind(AssertUnwindSafe(|| run(&spec, &Telemetry::disabled(), stops)));
    assert!(died.is_err(), "the engine stops after checkpoint 1");
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    let ck = &resume.workers[0];
    let lists = [ck.bugs.len(), ck.logic_bugs.len(), ck.sema_findings.len()];
    assert!(lists.iter().all(|&n| n > 0), "findings at checkpoint 1: {lists:?}");
    let resuming = CampaignSpec {
        checkpoint: CheckpointCfg { every_units: 1_000, dir: None, resume: Some(resume) },
        ..spec
    };
    let resumed = run(&resuming, &Telemetry::disabled(), maria).expect("resume completes");
    assert_eq!(resumed.deterministic_json(), full.deterministic_json());
    let _ = std::fs::remove_dir_all(&dir);
}
