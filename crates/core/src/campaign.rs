//! The campaign harness: runs any fuzzing engine against a simulated DBMS
//! for a fixed execution budget, collecting the paper's evaluation metrics
//! (branch coverage over time, deduplicated bugs, corpus affinities).
//!
//! A campaign is a [`CampaignSpec`] run by [`run`] on any number of workers,
//! or by [`run_engine`] on one engine the caller keeps. Every worker runs
//! the same loop: one per-case step, one checkpoint writer, one resume
//! restorer; one assembly turns the workers' outcomes into
//! [`CampaignStats`].

use crate::affinity::corpus_affinities;
use crate::checkpoint::{
    self, CheckpointCfg, CheckpointMeta, FindingCk, LogicFindingCk, SnapCk, WorkerCheckpoint,
    WorkerResume, CHECKPOINT_VERSION,
};
use crate::checks::{OracleRuntime, SemaRuntime};
use lego_coverage::{CoverageSink, GlobalCoverage};
use lego_dbms::{CrashReport, Dbms, ExecReport, PANIC_BUG_ID};
use lego_observe::{Event, Stage, StageProfile, Telemetry};
use lego_oracle::{LogicBug, OracleConfig, OracleKind};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlparser::RuleTracer;
use lego_sqlsema::SeqReport;
use serde::Serialize;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub use crate::checks::SEMA_AUDIT_EVERY;

/// A fuzzing engine: produces test cases, receives coverage feedback.
///
/// The campaign loop owns execution (fresh DBMS instance per case, global
/// coverage accounting, crash dedup) so that every engine is measured under
/// identical conditions — the paper's "for a fair comparison … rerun the
/// input seeds to uniform the branch coverage".
pub trait FuzzEngine {
    fn name(&self) -> &'static str;
    /// The next test case to execute. Cases are handed out as `Arc`s so the
    /// engine can retain an admitted case (and the campaign can stash it in
    /// findings) without deep-cloning the AST.
    fn next_case(&mut self) -> Arc<TestCase>;
    /// Post-execution feedback. `new_coverage` is the AFL `has_new_bits`
    /// verdict against the campaign-global map. Admitting `case` to the
    /// corpus is an `Arc` bump.
    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool);
    /// Grammar-rule coverage feedback, called (after [`FuzzEngine::feedback`])
    /// only when the campaign runs with rule coverage enabled and this case
    /// traversed `new_rule_edges > 0` parser rule→rule edges never seen
    /// before. Default is a no-op so engines without a rule-novelty response
    /// need no changes.
    fn rule_feedback(&mut self, _case: &Arc<TestCase>, _new_rule_edges: usize) {}
    /// The engine's retained corpus (for Table II affinity accounting),
    /// shared — not cloned — out of the pool.
    fn corpus(&self) -> Vec<Arc<TestCase>>;
    /// Give the engine a telemetry handle for engine-internal events
    /// (mutations, affinity discoveries, synthesis steps). The default is a
    /// no-op so baseline engines need no changes; the campaign always calls
    /// this before the first `next_case`.
    fn attach_telemetry(&mut self, _tel: Telemetry) {}
    /// Serialize the engine's complete fuzzing state for a campaign
    /// checkpoint. This is a *reseed barrier*: implementations draw one
    /// value from their RNG, reseed themselves from it, and record it — so
    /// an uninterrupted run that calls `checkpoint()` at the same boundary
    /// has the identical RNG stream afterwards. Returns `None` if the
    /// engine does not support checkpointing (the default); the campaign
    /// then skips persistence but still calls this at every boundary.
    fn checkpoint(&mut self) -> Option<String> {
        None
    }
    /// Restore state from a [`FuzzEngine::checkpoint`] payload. The engine
    /// must have been constructed with the same configuration (dialect,
    /// seed, knobs) as the one that produced the payload.
    fn restore(&mut self, _snapshot: &str) -> Result<(), String> {
        Err(format!("engine '{}' does not support checkpoint/resume", self.name()))
    }
}

/// Execution budget, in *statement-execution units* — the stand-in for the
/// paper's 24-hour wall clock. Charging per statement (plus a fixed per-case
/// reset fee) preserves LEGO's real-world advantage: its synthesized test
/// cases are short and execute quickly, so it gets more executions per unit
/// of time (§ II C3).
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub units: usize,
    /// Number of points on the coverage-over-time curve.
    pub snapshots: usize,
}

/// Fixed per-test-case cost (process reset, parsing) in statement units.
pub const CASE_RESET_COST: usize = 2;

impl Budget {
    pub fn units(units: usize) -> Self {
        Self { units, snapshots: 25 }
    }

    /// Rough conversion helper for tests: budget sized for about `execs`
    /// average-size test cases.
    pub fn execs(execs: usize) -> Self {
        Self { units: execs * 10, snapshots: 25 }
    }
}

/// One deduplicated bug found during a campaign.
#[derive(Clone, Debug, Serialize)]
pub struct BugFinding {
    pub crash: CrashReport,
    /// Execution index at which the bug was first triggered.
    pub first_exec: usize,
    /// The triggering test case, as SQL.
    pub case_sql: String,
    /// Delta-debugged minimal reproducer (same crash stack), as SQL.
    pub reduced_sql: String,
}

/// One deduplicated wrong-result (logic) bug found by a correctness oracle.
#[derive(Clone, Debug, Serialize)]
pub struct LogicBugFinding {
    pub bug: LogicBug,
    /// Execution index of the corpus-accepted case that first tripped the
    /// oracle.
    pub first_exec: usize,
    /// The triggering test case, as SQL.
    pub case_sql: String,
    /// Delta-debugged minimal reproducer (same oracle fingerprint), as SQL.
    pub reduced_sql: String,
}

impl LogicBugFinding {
    pub fn fingerprint(&self) -> u64 {
        self.bug.fingerprint()
    }
}

/// Everything a campaign measured.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignStats {
    pub fuzzer: String,
    pub dialect: Dialect,
    /// Test cases executed within the budget.
    pub execs: usize,
    /// Statement units consumed.
    pub units: usize,
    /// `(units, branches)` samples.
    pub coverage_curve: Vec<(usize, usize)>,
    /// Final branch (edge) coverage.
    pub branches: usize,
    /// Final grammar-rule (parser rule→rule edge) coverage; 0 unless the
    /// campaign ran with `--rule-cov`.
    pub rule_branches: usize,
    /// Deduplicated bugs in discovery order.
    pub bugs: Vec<BugFinding>,
    /// Deduplicated oracle-flagged wrong-result bugs in discovery order
    /// (empty unless the campaign ran with oracles enabled).
    pub logic_bugs: Vec<LogicBugFinding>,
    /// Oracle comparisons performed (TLP + NoREC + differential + recovery;
    /// 0 with oracles disabled).
    pub oracle_checks: usize,
    /// Deduplicated recovery-oracle durability findings — the subset of
    /// `logic_bugs` with `oracle == Recovery` (0 unless the campaign ran
    /// with `--oracles=recovery`).
    pub durability_bugs: usize,
    /// Statements the static analyzer proved invalid before execution
    /// (0 unless the campaign ran with `--sema`).
    pub sema_rejects: usize,
    /// Statements of statically-skipped cases — generated by the fuzzer but
    /// never attempted on the engine because the analyzer rejected their
    /// case (0 unless `--sema`).
    pub sema_skipped_stmts: usize,
    /// Deduplicated analyzer-vs-engine conformance divergences — the subset
    /// of `logic_bugs` with `oracle == Sema` (0 unless `--sema`).
    pub sema_divergences: usize,
    /// Type-affinities contained in the engine's final corpus (Table II).
    pub corpus_affinities: usize,
    pub corpus_size: usize,
    /// Statements the binder/executor accepted across the whole campaign
    /// (the semantic-validity numerator). Deterministic; always counted.
    pub stmts_ok: usize,
    /// Statements the binder/executor rejected with a semantic error.
    pub stmts_err: usize,
    /// Cases cut short by a per-case execution budget (statement, row, or
    /// eval-depth limit). Aborted cases are never admitted to the corpus and
    /// their partial coverage is discarded.
    pub cases_aborted: usize,
    /// Worker threads that died mid-campaign (panicked outside the per-case
    /// isolation boundary). Their completed work up to the last shard sync is
    /// merged; their remaining budget slice is forfeited.
    pub workers_lost: usize,
    /// Wall-clock duration of the campaign, in milliseconds. Timing fields
    /// are the only non-deterministic part of the stats; see
    /// [`CampaignStats::deterministic_json`].
    pub wall_ms: u64,
    /// Test cases executed per second of wall time.
    pub execs_per_sec: f64,
    /// Worker threads that executed the campaign (1 for the serial path).
    pub workers: usize,
    /// Per-stage wall-clock breakdown and operator gain attribution, present
    /// when the campaign ran with telemetry enabled. Timing-bearing, so
    /// [`CampaignStats::deterministic_json`] strips it.
    pub stage_profile: Option<StageProfile>,
}

impl CampaignStats {
    pub fn bug_count(&self) -> usize {
        self.bugs.len()
    }

    /// Semantic-validity ratio in percent: binder-accepted statements over
    /// all *attempted* statements. Statements of statically-skipped cases
    /// (`--sema`) never reach the engine and are excluded from the
    /// denominator — this measures how valid the work the engine actually
    /// saw was. See [`CampaignStats::raw_validity_pct`] for the
    /// all-generated-statements number.
    pub fn validity_pct(&self) -> f64 {
        let total = self.stmts_ok + self.stmts_err;
        if total == 0 {
            100.0
        } else {
            self.stmts_ok as f64 * 100.0 / total as f64
        }
    }

    /// Semantic validity over *every* statement the fuzzer produced,
    /// counting statically-skipped statements (`--sema`) in the denominator
    /// — the pre-skip number, comparable across sema-on and sema-off runs.
    /// Identical to [`CampaignStats::validity_pct`] when `--sema` is off.
    pub fn raw_validity_pct(&self) -> f64 {
        let total = self.stmts_ok + self.stmts_err + self.sema_skipped_stmts;
        if total == 0 {
            100.0
        } else {
            self.stmts_ok as f64 * 100.0 / total as f64
        }
    }

    /// JSON with the wall-clock fields zeroed and the stage profile
    /// stripped, leaving only the deterministic campaign outcome. Two runs
    /// with the same engine seed and worker count must produce
    /// byte-identical output here — with or without telemetry attached.
    pub fn deterministic_json(&self) -> String {
        let mut c = self.clone();
        c.wall_ms = 0;
        c.execs_per_sec = 0.0;
        c.stage_profile = None;
        serde_json::to_string(&c).expect("stats serialize")
    }

    fn stamp_timing(&mut self, start: Instant, workers: usize) {
        let secs = start.elapsed().as_secs_f64();
        self.wall_ms = (secs * 1000.0) as u64;
        self.execs_per_sec = if secs > 0.0 { self.execs as f64 / secs } else { 0.0 };
        self.workers = workers;
    }
}

/// Merge `case`'s grammar-rule edges into the rule virgin map `rules`:
/// the number of new rule edges, 0 when nothing is new or the case does not
/// parse. Hit-count bucket changes can report novelty with no new edge
/// index; they count as 1, so the bucketed admit verdict is kept.
fn rule_novelty(rules: &mut GlobalCoverage, tracer: &mut RuleTracer, case: &TestCase) -> usize {
    let Some(map) = tracer.trace(&case.statements) else {
        return 0;
    };
    let before = rules.edges_covered();
    if rules.merge(map) {
        (rules.edges_covered() - before).max(1)
    } else {
        0
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Execute one case with panic isolation: an engine panic is converted into
/// a synthetic [`CrashReport`] (bug id [`PANIC_BUG_ID`], stack keyed by the
/// panic message) instead of unwinding through the campaign loop. The DBMS
/// instance is left in an unspecified state; the campaign's per-case
/// `db.reset()` restores it to a fresh one before its next use.
pub(crate) fn execute_case_isolated(
    db: &mut Dbms,
    dialect: Dialect,
    case: &TestCase,
) -> ExecReport {
    match catch_unwind(AssertUnwindSafe(|| db.execute_case(case))) {
        Ok(report) => report,
        Err(payload) => ExecReport::engine_panic(dialect, &panic_message(payload.as_ref())),
    }
}

/// Crash triage for one deduplicated finding. Panic findings skip delta
/// debugging: re-executing prefixes of a panicking case would re-trip the
/// panic for *every* candidate, so the reproducer is kept whole.
fn triage_crash(
    case: &TestCase,
    dialect: Dialect,
    crash: &CrashReport,
    tel: &Telemetry,
) -> (String, usize) {
    if crash.bug_id == PANIC_BUG_ID {
        return (case.to_sql(), 0);
    }
    let (reduced, spent) =
        tel.time(Stage::Dedup, || crate::reduce::reduce_case(case, dialect, crash));
    (reduced.to_sql(), spent)
}

/// Re-derive full [`BugFinding`]s from checkpointed reproducers by replaying
/// each stored case through the isolated executor. Fails loudly if a stored
/// crash no longer reproduces (the environment changed under the checkpoint).
/// Replay executions are bookkeeping, not campaign work — nothing is charged
/// to the unit budget.
fn rebuild_bugs(dialect: Dialect, findings: &[FindingCk]) -> Result<Vec<BugFinding>, String> {
    let mut db = Dbms::new(dialect);
    findings
        .iter()
        .map(|f| {
            let case = lego_sqlparser::parse_script(&f.case_sql)
                .map_err(|e| format!("checkpointed crash case re-parse: {e:?}"))?;
            db.reset();
            let report = execute_case_isolated(&mut db, dialect, &case);
            let crash = report.crash().cloned().ok_or_else(|| {
                format!("checkpointed crash no longer reproduces: {}", f.case_sql)
            })?;
            Ok(BugFinding {
                crash,
                first_exec: f.first_exec,
                case_sql: f.case_sql.clone(),
                reduced_sql: f.reduced_sql.clone(),
            })
        })
        .collect()
}

/// Run one engine against one DBMS for the budget: a serial campaign with
/// every optional layer off and no telemetry.
pub fn run_campaign(
    engine: &mut dyn FuzzEngine,
    dialect: Dialect,
    budget: Budget,
) -> CampaignStats {
    run_engine(&CampaignSpec::new(dialect, budget), &Telemetry::disabled(), engine)
        .expect("a campaign without checkpoints cannot fail")
}

/// How many workers share a campaign, and how often they sync.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOpts {
    /// Worker threads. `0` and `1` both select one worker on the calling
    /// thread.
    pub workers: usize,
    /// With more than one worker, each publishes its coverage to the shared
    /// map every this many executed cases (epoch-batched merge).
    pub sync_every: usize,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        Self { workers: 1, sync_every: 16 }
    }
}

/// Everything that configures a campaign except its engines. The outcome
/// is a deterministic function of the spec and the engines' seeds.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    pub dialect: Dialect,
    pub budget: Budget,
    pub parallel: ParallelOpts,
    /// Correctness oracles, run on every corpus-accepted, non-crashing case
    /// on dedicated DBMS instances. Their executions are charged to the
    /// budget like crash triage, and never feed coverage back; findings go
    /// through the same reduce/report pipeline as crashes.
    pub oracles: OracleConfig,
    /// Checkpoint cadence and directory, and the checkpoint to resume from.
    /// Each checkpoint boundary reseeds the engines, so a resumed run equals
    /// an uninterrupted run with the same cadence.
    pub checkpoint: CheckpointCfg,
    /// Where the recovery oracle keeps each worker's `worker{NN}.wal`;
    /// `None` uses the system temp dir. The location never influences
    /// findings.
    pub wal_dir: Option<PathBuf>,
    /// Grammar-rule coverage: every non-aborted case is traced through the
    /// instrumented grammar ([`RuleTracer`] parses each distinct statement
    /// once) into a second virgin map, charged to [`Stage::RuleCoverage`].
    /// Rule novelty admits cases the branch map alone would reject and
    /// triggers [`FuzzEngine::rule_feedback`].
    pub rule_cov: bool,
    /// Static sequence analysis: provably-invalid cases skip the engine,
    /// charged only their statement count; every [`SEMA_AUDIT_EVERY`]-th
    /// one executes anyway. Executed cases are compared statement by
    /// statement with the analyzer's verdicts, and disagreements become
    /// [`OracleKind::Sema`] findings in [`CampaignStats::logic_bugs`].
    pub sema: bool,
}

impl CampaignSpec {
    /// A serial campaign with every optional layer off.
    pub fn new(dialect: Dialect, budget: Budget) -> Self {
        Self {
            dialect,
            budget,
            parallel: ParallelOpts::default(),
            oracles: OracleConfig::disabled(),
            checkpoint: CheckpointCfg::disabled(),
            wal_dir: None,
            rule_cov: false,
            sema: false,
        }
    }

    fn workers(&self) -> usize {
        self.parallel.workers.max(1)
    }

    /// The campaign's `meta.json` record for engines named `fuzzer`.
    fn meta(&self, fuzzer: &str) -> CheckpointMeta {
        let (o, workers) = (self.oracles, self.workers());
        CheckpointMeta {
            version: CHECKPOINT_VERSION,
            fuzzer: fuzzer.to_string(),
            dialect: self.dialect.name().to_string(),
            budget_units: self.budget.units,
            snapshots: self.budget.snapshots,
            workers,
            sync_every: if workers > 1 { self.parallel.sync_every } else { 0 },
            every_units: self.checkpoint.every_units,
            oracles: (o.tlp, o.norec, o.differential, o.recovery),
            rule_cov: self.rule_cov,
            sema: self.sema,
        }
    }

    /// Check a resume against the record the checkpoint was taken under,
    /// then write this campaign's record when it persists checkpoints.
    fn begin(&self, fuzzer: &str) -> Result<(), String> {
        let want = self.meta(fuzzer);
        if let Some(got) = self.checkpoint.resume.as_ref().map(|r| &r.meta) {
            macro_rules! same {
                ($($field:ident),*) => {$(
                    if want.$field != got.$field {
                        return Err(format!(
                            "checkpoint was taken with {}={:?}, this campaign has {:?}; \
                             resume requires the same value",
                            stringify!($field), got.$field, want.$field
                        ));
                    }
                )*};
            }
            same!(
                fuzzer,
                dialect,
                budget_units,
                snapshots,
                workers,
                sync_every,
                every_units,
                oracles,
                rule_cov,
                sema
            );
        }
        if let Some(dir) = &self.checkpoint.dir {
            checkpoint::write_meta(dir, &want)
                .map_err(|e| format!("write checkpoint meta: {e}"))?;
        }
        Ok(())
    }
}

/// Run the campaign `spec` describes, on `spec.parallel.workers` engines
/// built by `factory(worker_index)` (which should give each a distinct RNG
/// seed).
///
/// With one worker this is [`run_engine`] on `factory(0)`, on the calling
/// thread. With N, each worker builds its engine on its own thread and runs
/// a static slice of the budget; the join merges curves, bugs and corpora in
/// worker order, so the result depends only on the seeds and the worker
/// count, never on scheduling. Each worker logs through a
/// [`Telemetry::worker_child`], replayed into `tel` in worker order.
///
/// A worker that panics outside the per-case isolation boundary forfeits
/// only its own slice: the join records an [`Event::WorkerDied`], counts it
/// in [`CampaignStats::workers_lost`], and merges the survivors (the shared
/// coverage keeps whatever the dead worker had synced).
///
/// Errors on checkpoint I/O failure, an inconsistent resume, or when every
/// worker died.
pub fn run<F>(spec: &CampaignSpec, tel: &Telemetry, factory: F) -> Result<CampaignStats, String>
where
    F: Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync,
{
    if spec.workers() == 1 {
        return run_engine(spec, tel, factory(0).as_mut());
    }
    finish_on_error(tel, run_workers(spec, tel, &factory))
}

/// Run a one-worker campaign on an engine the caller keeps (to save its
/// corpus, say). Telemetry never influences the campaign: events carry only
/// logical time, and with a disabled handle every instrument point is a
/// single branch.
pub fn run_engine(
    spec: &CampaignSpec,
    tel: &Telemetry,
    engine: &mut dyn FuzzEngine,
) -> Result<CampaignStats, String> {
    // wall-clock only: feeds wall_ms / execs_per_sec, which
    // deterministic_json() strips. Never consulted for exploration decisions.
    let start = Instant::now();
    let out = if spec.workers() > 1 {
        Err(format!("run_engine drives one engine, not {} workers", spec.workers()))
    } else {
        spec.begin(engine.name()).and_then(|()| run_worker(spec, tel, 0, None, engine))
    };
    let out = finish_on_error(tel, out)?;
    Ok(assemble(spec, tel, start, vec![Some(out)], None, 0))
}

/// A failing campaign still owes the operator a closing heartbeat line and
/// flushed sinks (the success path does this in [`finish_telemetry`]).
fn finish_on_error<T>(tel: &Telemetry, out: Result<T, String>) -> Result<T, String> {
    if out.is_err() {
        tel.finish();
    }
    out
}

/// The shared virgin maps of an N-worker campaign. Workers publish the words
/// their local maps dirtied (atomic `fetch_or`, no lock); `fetch_or` is
/// commutative and idempotent, so the result is interleaving-independent.
struct Sinks {
    cov: CoverageSink,
    rules: Option<CoverageSink>,
}

fn run_workers<F>(
    spec: &CampaignSpec,
    tel: &Telemetry,
    factory: &F,
) -> Result<CampaignStats, String>
where
    F: Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync,
{
    // wall-clock only: feeds wall_ms / execs_per_sec, which
    // deterministic_json() strips. Never consulted for exploration decisions.
    let start = Instant::now();
    let workers = spec.workers();
    if spec.checkpoint.dir.is_some() || spec.checkpoint.resume.is_some() {
        spec.begin(factory(0).name())?;
    }
    let children: Vec<Telemetry> = (0..workers).map(|w| tel.worker_child(w)).collect();
    let sinks = Sinks { cov: CoverageSink::new(), rules: spec.rule_cov.then(CoverageSink::new) };
    // Each slot: Ok(Ok) = survivor, Ok(Err) = fatal campaign error
    // (checkpoint I/O, bad resume), Err(msg) = worker died by panic.
    type Joined = Result<Result<WorkerOut, String>, String>;
    let joined: Vec<Joined> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (sinks, wtel) = (&sinks, &children[w]);
                s.spawn(move || run_worker(spec, wtel, w, Some(sinks), factory(w).as_mut()))
            })
            .collect();
        // Join in spawn order: every downstream merge sees workers in index
        // order regardless of which thread finished first.
        handles
            .into_iter()
            .map(|h| h.join().map_err(|payload| panic_message(payload.as_ref())))
            .collect()
    });
    // Replay buffered worker events into the parent sinks, in worker order.
    for child in &children {
        tel.merge_worker(child);
    }
    let mut outs = Vec::with_capacity(workers);
    let mut workers_lost = 0usize;
    for (w, slot) in joined.into_iter().enumerate() {
        match slot {
            Ok(Ok(out)) => outs.push(Some(out)),
            // An explicit error is a campaign-configuration or I/O failure,
            // not a crash-resilience event: surface it.
            Ok(Err(e)) => return Err(format!("worker {w}: {e}")),
            Err(panic_msg) => {
                workers_lost += 1;
                tel.emit(|| Event::WorkerDied { worker: w, error: panic_msg.clone() });
                outs.push(None);
            }
        }
    }
    if outs.iter().all(Option::is_none) {
        return Err("every campaign worker died".to_string());
    }
    Ok(assemble(spec, tel, start, outs, Some(sinks), workers_lost))
}

/// Drive worker `index` on `engine`: restore it from the resume checkpoint
/// if there is one, run its share of the budget, and hand back its outcome.
fn run_worker(
    spec: &CampaignSpec,
    tel: &Telemetry,
    index: usize,
    sinks: Option<&Sinks>,
    engine: &mut dyn FuzzEngine,
) -> Result<WorkerOut, String> {
    engine.attach_telemetry(tel.clone());
    let mut worker = Worker::new(spec, tel, index, sinks);
    if let Some(resume) = &spec.checkpoint.resume {
        worker.restore(engine, &resume.workers[index])?;
    }
    while worker.units < worker.slice {
        let case = tel.time(Stage::Generation, || engine.next_case());
        if worker.step(engine, &case) {
            worker.after_case(engine)?;
        }
    }
    Ok(worker.finish(engine))
}

/// A worker's coverage-over-time samples — one of the differences between
/// one worker and N that the report can see.
enum Curve {
    /// One worker: `(units, edges)` of the campaign map every `every` units
    /// (at most one point per case), plus a closing point.
    Points { points: Vec<(usize, usize)>, next: usize, every: usize },
    /// Worker of N: a sparse snapshot of its local map once it passes
    /// `i·slice/snapshots` units, for `i` in `1..=snapshots`. The join
    /// unions the workers' i-th snapshots pairwise.
    Shards { snaps: Vec<(usize, Vec<(usize, u8)>)>, next: usize, snapshots: usize },
}

impl Curve {
    fn sample(&mut self, units: usize, slice: usize, cov: &GlobalCoverage) {
        match self {
            Curve::Points { points, next, every } => {
                if units >= *next {
                    points.push((units, cov.edges_covered()));
                    *next += *every;
                }
            }
            Curve::Shards { snaps, next, snapshots } => {
                while *next <= *snapshots && units >= slice * *next / *snapshots {
                    snaps.push((units, cov.to_sparse()));
                    *next += 1;
                }
            }
        }
    }

    /// The closing point; shards pad to exactly `snapshots` snapshots.
    fn close(&mut self, units: usize, cov: &GlobalCoverage) {
        match self {
            Curve::Points { points, .. } => points.push((units, cov.edges_covered())),
            Curve::Shards { snaps, next, snapshots } => {
                while *next <= *snapshots {
                    snaps.push((units, cov.to_sparse()));
                    *next += 1;
                }
            }
        }
    }
}

/// One worker's campaign state. A one-worker campaign is a single `Worker`
/// whose maps are the campaign's; with N, each judges novelty against its
/// own maps only, so its run depends solely on its seed and budget slice.
struct Worker<'a> {
    spec: &'a CampaignSpec,
    tel: &'a Telemetry,
    index: usize,
    /// This worker's share of the budget, in units.
    slice: usize,
    /// `Some` with N workers: publish to these every `sync_every` cases.
    sinks: Option<&'a Sinks>,
    /// Reset between cases; its coverage map is recycled after feedback so
    /// the loop does not allocate per case.
    db: Dbms,
    cov: GlobalCoverage,
    /// Rule virgin map and tracer; `None` without `rule_cov`, so that path
    /// touches no extra state.
    rules: Option<(GlobalCoverage, RuleTracer)>,
    seen_stacks: HashMap<u64, usize>,
    bugs: Vec<BugFinding>,
    oracle: OracleRuntime,
    sema: Option<SemaRuntime>,
    curve: Curve,
    units: usize,
    execs: usize,
    stmts_ok: usize,
    stmts_err: usize,
    cases_aborted: usize,
    since_sync: usize,
    next_ckpt: usize,
    ckpt_seq: usize,
}

impl<'a> Worker<'a> {
    fn new(
        spec: &'a CampaignSpec,
        tel: &'a Telemetry,
        index: usize,
        sinks: Option<&'a Sinks>,
    ) -> Self {
        let (dialect, budget, workers) = (spec.dialect, spec.budget, spec.workers());
        // Static partition: worker w gets units/N, the remainder spread over
        // the first (units % N) workers. Deterministic for a given (units, N).
        let slice = budget.units / workers + usize::from(index < budget.units % workers);
        let curve = match sinks {
            None => Curve::Points {
                points: Vec::with_capacity(budget.snapshots + 1),
                next: 0,
                every: (budget.units / budget.snapshots.max(1)).max(1),
            },
            Some(_) => Curve::Shards {
                snaps: Vec::with_capacity(budget.snapshots),
                next: 1,
                snapshots: budget.snapshots.max(1),
            },
        };
        Self {
            spec,
            tel,
            index,
            slice,
            sinks,
            db: Dbms::new(dialect),
            cov: GlobalCoverage::new(),
            rules: spec.rule_cov.then(|| (GlobalCoverage::new(), RuleTracer::new())),
            seen_stacks: HashMap::new(),
            bugs: Vec::new(),
            oracle: OracleRuntime::new(dialect, spec.oracles, spec.wal_dir.as_deref(), index),
            sema: spec.sema.then(|| SemaRuntime::new(dialect)),
            curve,
            units: 0,
            execs: 0,
            stmts_ok: 0,
            stmts_err: 0,
            cases_aborted: 0,
            since_sync: 0,
            next_ckpt: if spec.checkpoint.active() {
                spec.checkpoint.every_units
            } else {
                usize::MAX
            },
            ckpt_seq: 0,
        }
    }

    /// Apply one worker's checkpoint: engine state, maps, re-derived
    /// findings and counters.
    fn restore(&mut self, engine: &mut dyn FuzzEngine, w: &WorkerResume) -> Result<(), String> {
        let dialect = self.spec.dialect;
        engine.restore(&w.engine)?;
        self.cov = GlobalCoverage::from_sparse(&w.coverage);
        if let Some((rules, _)) = self.rules.as_mut() {
            *rules = GlobalCoverage::from_sparse(&w.rule_coverage);
        }
        self.seen_stacks = w.seen_stacks.iter().copied().collect();
        self.bugs = rebuild_bugs(dialect, &w.bugs)?;
        self.oracle.restore(w)?;
        if let Some(srt) = self.sema.as_mut() {
            srt.restore(dialect, w)?;
        }
        match &mut self.curve {
            Curve::Points { points, next, .. } => {
                (*points, *next) = (w.curve.clone(), w.next_snapshot)
            }
            Curve::Shards { snaps, next, .. } => {
                (*snaps, *next) = (w.snaps.clone(), w.next_snapshot)
            }
        }
        self.units = w.units;
        self.execs = w.execs;
        self.stmts_ok = w.stmts_ok;
        self.stmts_err = w.stmts_err;
        self.cases_aborted = w.cases_aborted;
        self.since_sync = w.since_sync;
        self.next_ckpt = w.next_ckpt;
        self.ckpt_seq = w.seq;
        // The shared maps start empty on a resumed campaign; re-seed them
        // with everything this worker had synced. `from_sparse` marked all
        // restored words dirty, so the dirty-publish covers the whole map.
        if let Some(sinks) = self.sinks {
            sinks.cov.publish_dirty(&mut self.cov);
            if let (Some((rules, _)), Some(rs)) = (self.rules.as_mut(), &sinks.rules) {
                rs.publish_dirty(rules);
            }
        }
        Ok(())
    }

    /// Judge one case: analyze, execute, merge coverage, triage, check and
    /// feed back. Returns `false` when the analyzer skipped the case, which
    /// then counts for no sync, curve point or checkpoint boundary (those
    /// fire at the next executed case — deterministic either way, since the
    /// skip decision is).
    fn step(&mut self, engine: &mut dyn FuzzEngine, case: &Arc<TestCase>) -> bool {
        let (tel, dialect, worker, exec) = (self.tel, self.spec.dialect, self.index, self.execs);
        // Static pre-execution verdict: a provably-invalid case skips the
        // engine, charged its statement count plus the reset fee (what the
        // cheapest failing run would have cost). Every SEMA_AUDIT_EVERY-th
        // rejected case executes anyway, auditing the analyzer.
        let mut sema_rep: Option<SeqReport> = None;
        if let Some(srt) = self.sema.as_mut() {
            let rep = tel.time(Stage::Sema, || srt.sema.check_sequence(&case.statements));
            let rejects = rep.rejects();
            if rejects > 0 {
                srt.rejects += rejects;
                srt.audit += 1;
                let audit = srt.audit % SEMA_AUDIT_EVERY == 0;
                tel.emit(|| Event::SemaVerdict {
                    worker,
                    exec: exec as u64,
                    statements: case.statements.len() as u64,
                    rejects: rejects as u64,
                    skipped: !audit,
                });
                if !audit {
                    tel.emit(|| Event::ExecStart { worker, exec: exec as u64 });
                    self.units += case.statements.len() + CASE_RESET_COST;
                    srt.skipped_stmts += case.statements.len();
                    tel.emit(|| Event::ExecEnd {
                        worker,
                        exec: exec as u64,
                        statements: 0,
                        ok: 0,
                        err: 0,
                        new_coverage: false,
                    });
                    tel.time(Stage::Feedback, || engine.feedback(case, &srt.skipped, false));
                    self.execs += 1;
                    return false;
                }
            }
            sema_rep = Some(rep);
        }
        self.db.reset();
        tel.emit(|| Event::ExecStart { worker, exec: exec as u64 });
        let db = &mut self.db;
        let report = tel.time(Stage::Execution, || execute_case_isolated(db, dialect, case));
        self.units += report.statements_executed + CASE_RESET_COST;
        self.stmts_ok += report.stmts_ok;
        self.stmts_err += report.stmts_err;
        // A budget-tripped case never enters the corpus and its partial
        // coverage is discarded (like AFL's timeout inputs): retaining it
        // would reward runaway behaviour with novelty.
        let aborted = report.aborted();
        if let Some(reason) = aborted {
            self.cases_aborted += 1;
            tel.emit(|| Event::CaseAborted {
                worker,
                exec: exec as u64,
                reason: reason.name().to_string(),
            });
        }
        let cov = &mut self.cov;
        let prev_edges = cov.edges_covered();
        let new_coverage =
            aborted.is_none() && tel.time(Stage::CoverageUnion, || cov.merge(&report.coverage));
        if new_coverage {
            let edges = cov.edges_covered();
            // Stash the gain so the engine's feedback can attribute it to
            // the operator that produced this case.
            tel.set_pending_edges((edges - prev_edges) as u64);
            tel.live_progress(edges as u64);
        }
        // A case is corpus-worthy if EITHER map reports novelty.
        let rule_delta = match self.rules.as_mut() {
            Some((rules, tracer)) if aborted.is_none() => {
                tel.time(Stage::RuleCoverage, || rule_novelty(rules, tracer, case))
            }
            _ => 0,
        };
        let accepted = new_coverage || rule_delta > 0;
        tel.emit(|| Event::ExecEnd {
            worker,
            exec: exec as u64,
            statements: report.statements_executed as u64,
            ok: report.stmts_ok as u64,
            err: report.stmts_err as u64,
            new_coverage: accepted,
        });
        if let Some(crash) = report.crash() {
            let h = crash.stack_hash();
            if let std::collections::hash_map::Entry::Vacant(e) = self.seen_stacks.entry(h) {
                e.insert(exec);
                // Triage: minimize the reproducer right away (the reduction
                // executions are charged to the budget, like a real
                // campaign's triage time).
                let (reduced_sql, spent) = triage_crash(case, dialect, crash, tel);
                self.units += spent;
                tel.emit(|| Event::BugFound {
                    worker,
                    exec: exec as u64,
                    identifier: crash.identifier.clone(),
                    stack_hash: h,
                });
                self.bugs.push(BugFinding {
                    crash: crash.clone(),
                    first_exec: exec,
                    case_sql: case.to_sql(),
                    reduced_sql,
                });
            }
        }
        if accepted && report.crash().is_none() {
            self.units += self.oracle.check(case, worker, exec, tel);
        }
        // Conformance oracle: every executed case (including audits of
        // statically-rejected ones) checks the analyzer against the engine.
        if let (Some(srt), Some(rep)) = (self.sema.as_mut(), &sema_rep) {
            self.units += srt.conformance(case, rep, &report, dialect, worker, exec, tel);
        }
        tel.time(Stage::Feedback, || engine.feedback(case, &report, accepted));
        if rule_delta > 0 {
            // After feedback so the just-admitted case is the newest pool
            // entry when the engine boosts it.
            tel.time(Stage::Feedback, || engine.rule_feedback(case, rule_delta));
            tel.emit(|| Event::RuleCoverageGain {
                worker,
                exec: exec as u64,
                edges: rule_delta as u64,
            });
        }
        self.db.recycle(report.coverage);
        self.execs += 1;
        true
    }

    /// The bookkeeping after an executed case: sync, curve point, and
    /// checkpoint when a boundary has passed.
    fn after_case(&mut self, engine: &mut dyn FuzzEngine) -> Result<(), String> {
        if let Some(sinks) = self.sinks {
            self.since_sync += 1;
            if self.since_sync >= self.spec.parallel.sync_every.max(1) {
                self.sync(sinks);
            }
        }
        self.curve.sample(self.units, self.slice, &self.cov);
        if self.units >= self.next_ckpt {
            let tel = self.tel;
            tel.time(Stage::Checkpoint, || self.checkpoint(engine))?;
        }
        Ok(())
    }

    /// Publish the words of the local maps dirtied since the last sync; a
    /// novelty-free epoch performs zero atomic operations.
    fn sync(&mut self, sinks: &Sinks) {
        let tel = self.tel;
        let cov = &mut self.cov;
        tel.time(Stage::CoverageUnion, || sinks.cov.publish_dirty(cov));
        if let (Some((rules, _)), Some(rs)) = (self.rules.as_mut(), &sinks.rules) {
            tel.time(Stage::CoverageUnion, || rs.publish_dirty(rules));
        }
        tel.emit(|| Event::WorkerSync { worker: self.index, execs: self.execs as u64 });
        self.since_sync = 0;
    }

    /// Reseed barrier (state-changing even when nothing is persisted), then
    /// persist the post-barrier state when there is a checkpoint directory.
    fn checkpoint(&mut self, engine: &mut dyn FuzzEngine) -> Result<(), String> {
        while self.units >= self.next_ckpt {
            self.next_ckpt += self.spec.checkpoint.every_units;
        }
        self.ckpt_seq += 1;
        let engine_snap = engine.checkpoint();
        let Some(dir) = &self.spec.checkpoint.dir else { return Ok(()) };
        let engine_snap = engine_snap
            .ok_or_else(|| format!("engine '{}' does not support checkpointing", engine.name()))?;
        let (next_snapshot, curve, snaps) = match &self.curve {
            Curve::Points { points, next, .. } => (*next, points.clone(), Vec::new()),
            Curve::Shards { snaps, next, .. } => {
                let snaps = snaps
                    .iter()
                    .map(|(u, cov)| SnapCk { units: *u, coverage: checkpoint::sparse_out(cov) })
                    .collect();
                (*next, Vec::new(), snaps)
            }
        };
        let sema = self.sema.as_ref();
        let ck = WorkerCheckpoint {
            version: CHECKPOINT_VERSION,
            worker: self.index,
            seq: self.ckpt_seq,
            units: self.units,
            execs: self.execs,
            stmts_ok: self.stmts_ok,
            stmts_err: self.stmts_err,
            cases_aborted: self.cases_aborted,
            next_snapshot,
            next_ckpt: self.next_ckpt,
            since_sync: self.since_sync,
            curve,
            snaps,
            coverage: checkpoint::sparse_out(&self.cov.to_sparse()),
            rule_coverage: self
                .rules
                .as_ref()
                .map(|(r, _)| checkpoint::sparse_out(&r.to_sparse()))
                .unwrap_or_default(),
            seen_stacks: sorted_pairs(&self.seen_stacks),
            bugs: self
                .bugs
                .iter()
                .map(|b| FindingCk {
                    first_exec: b.first_exec,
                    case_sql: b.case_sql.clone(),
                    reduced_sql: b.reduced_sql.clone(),
                })
                .collect(),
            logic_bugs: logic_findings_out(&self.oracle.findings),
            oracle_seen: sorted_pairs(&self.oracle.seen),
            oracle_checks: self.oracle.checks,
            sema_rejects: sema.map_or(0, |s| s.rejects),
            sema_skipped_stmts: sema.map_or(0, |s| s.skipped_stmts),
            sema_audit: sema.map_or(0, |s| s.audit),
            sema_seen: sema.map_or_else(Vec::new, |s| sorted_pairs(&s.seen)),
            sema_findings: sema.map_or_else(Vec::new, |s| logic_findings_out(&s.findings)),
            engine: engine_snap,
        };
        let path =
            checkpoint::write_worker(dir, &ck).map_err(|e| format!("write checkpoint: {e}"))?;
        self.tel.emit(|| Event::CheckpointWritten {
            worker: self.index,
            seq: self.ckpt_seq as u64,
            units: self.units as u64,
            path: path.display().to_string(),
        });
        Ok(())
    }

    /// Close the curve, flush the shared maps one last time, and hand back
    /// what the stats need.
    fn finish(mut self, engine: &dyn FuzzEngine) -> WorkerOut {
        self.curve.close(self.units, &self.cov);
        if let Some(sinks) = self.sinks {
            self.sync(sinks);
        }
        // Sema divergences join the logic-bug list by discovery order
        // (stable on ties, oracle findings first). A sema-off run never
        // sorts, keeping its finding order byte-identical.
        let mut logic_bugs = self.oracle.findings;
        let (sema_rejects, sema_skipped_stmts) = match self.sema {
            Some(srt) => {
                logic_bugs.extend(srt.findings);
                logic_bugs.sort_by_key(|b| b.first_exec);
                (srt.rejects, srt.skipped_stmts)
            }
            None => (0, 0),
        };
        WorkerOut {
            fuzzer: engine.name().to_string(),
            execs: self.execs,
            units: self.units,
            stmts_ok: self.stmts_ok,
            stmts_err: self.stmts_err,
            cases_aborted: self.cases_aborted,
            curve: self.curve,
            branches: self.cov.edges_covered(),
            rule_branches: self.rules.as_ref().map_or(0, |(r, _)| r.edges_covered()),
            bugs: self.bugs,
            logic_bugs,
            oracle_checks: self.oracle.checks,
            sema_rejects,
            sema_skipped_stmts,
            corpus: engine.corpus(),
        }
    }
}

/// What one worker brings back to the join point.
struct WorkerOut {
    fuzzer: String,
    execs: usize,
    units: usize,
    stmts_ok: usize,
    stmts_err: usize,
    cases_aborted: usize,
    curve: Curve,
    /// Edges of the worker's own branch and rule maps.
    branches: usize,
    rule_branches: usize,
    bugs: Vec<BugFinding>,
    logic_bugs: Vec<LogicBugFinding>,
    oracle_checks: usize,
    sema_rejects: usize,
    sema_skipped_stmts: usize,
    corpus: Vec<Arc<TestCase>>,
}

/// The campaign's stats from its workers' outcomes (`None` for a dead
/// worker). With one worker its maps and curve are the campaign's; with N
/// the shared maps give the totals and the curve's i-th point unions every
/// survivor's i-th snapshot, at the units they had consumed by then.
fn assemble(
    spec: &CampaignSpec,
    tel: &Telemetry,
    start: Instant,
    outs: Vec<Option<WorkerOut>>,
    sinks: Option<Sinks>,
    workers_lost: usize,
) -> CampaignStats {
    let survivors = || outs.iter().flatten();
    let (coverage_curve, branches, rule_branches) = match sinks {
        None => {
            let out = survivors().next().expect("a one-worker campaign has its worker");
            let Curve::Points { points, .. } = &out.curve else { unreachable!("one worker") };
            (points.clone(), out.branches, out.rule_branches)
        }
        Some(sinks) => {
            let mut curve = vec![(0, 0)];
            for i in 0..spec.budget.snapshots.max(1) {
                let mut merged = GlobalCoverage::new();
                let mut x = 0usize;
                for out in survivors() {
                    let Curve::Shards { snaps, .. } = &out.curve else { unreachable!("N workers") };
                    x += snaps[i].0;
                    merged.union_sparse(&snaps[i].1);
                }
                curve.push((x, merged.edges_covered()));
            }
            let rules = sinks.rules.map_or(0, |rs| rs.into_global().edges_covered());
            (curve, sinks.cov.into_global().edges_covered(), rules)
        }
    };
    // Workers deduplicate locally; the join re-deduplicates across workers
    // in (first_exec, worker) order, so the survivor of a cross-worker
    // duplicate is deterministic. A lone worker's lists pass unchanged.
    let bugs = merge_findings(&outs, |o| &o.bugs, |b| (b.first_exec, b.crash.stack_hash()));
    let logic_bugs = merge_findings(&outs, |o| &o.logic_bugs, |b| (b.first_exec, b.fingerprint()));
    let corpus: Vec<Arc<TestCase>> = survivors().flat_map(|o| o.corpus.iter().cloned()).collect();
    let sum = |f: fn(&WorkerOut) -> usize| survivors().map(f).sum::<usize>();
    let mut stats = CampaignStats {
        fuzzer: survivors().next().map_or_else(|| "unknown".into(), |o| o.fuzzer.clone()),
        dialect: spec.dialect,
        execs: sum(|o| o.execs),
        units: sum(|o| o.units),
        coverage_curve,
        branches,
        rule_branches,
        corpus_affinities: corpus_affinities(&corpus).len(),
        corpus_size: corpus.len(),
        stmts_ok: sum(|o| o.stmts_ok),
        stmts_err: sum(|o| o.stmts_err),
        cases_aborted: sum(|o| o.cases_aborted),
        workers_lost,
        bugs,
        durability_bugs: logic_bugs.iter().filter(|f| f.bug.oracle == OracleKind::Recovery).count(),
        sema_rejects: sum(|o| o.sema_rejects),
        sema_skipped_stmts: sum(|o| o.sema_skipped_stmts),
        sema_divergences: logic_bugs.iter().filter(|f| f.bug.oracle == OracleKind::Sema).count(),
        logic_bugs,
        oracle_checks: sum(|o| o.oracle_checks),
        wall_ms: 0,
        execs_per_sec: 0.0,
        workers: 1,
        stage_profile: tel.stage_profile(),
    };
    stats.stamp_timing(start, spec.workers());
    finish_telemetry(tel, &stats);
    stats
}

/// Every survivor's findings in `(first_exec, worker)` order, keeping the
/// first of each dedup key (the second element of `key`).
fn merge_findings<T: Clone>(
    outs: &[Option<WorkerOut>],
    list: impl Fn(&WorkerOut) -> &Vec<T>,
    key: impl Fn(&T) -> (usize, u64),
) -> Vec<T> {
    let mut tagged: Vec<(usize, &T)> = outs
        .iter()
        .enumerate()
        .filter_map(|(w, out)| out.as_ref().map(|o| (w, o)))
        .flat_map(|(w, o)| list(o).iter().map(move |b| (w, b)))
        .collect();
    tagged.sort_by_key(|&(w, b)| (key(b).0, w));
    let mut seen = HashSet::new();
    tagged.into_iter().filter(|&(_, b)| seen.insert(key(b).1)).map(|(_, b)| b.clone()).collect()
}

/// Findings in their checkpoint form (reproducers + fingerprint).
fn logic_findings_out(findings: &[LogicBugFinding]) -> Vec<LogicFindingCk> {
    findings
        .iter()
        .map(|b| LogicFindingCk {
            first_exec: b.first_exec,
            fingerprint: b.fingerprint(),
            case_sql: b.case_sql.clone(),
            reduced_sql: b.reduced_sql.clone(),
        })
        .collect()
}

/// Hash-map dedup state as a deterministically ordered pair list.
fn sorted_pairs(m: &HashMap<u64, usize>) -> Vec<(u64, usize)> {
    let mut v: Vec<(u64, usize)> = m.iter().map(|(&k, &e)| (k, e)).collect();
    v.sort_unstable();
    v
}

/// End-of-campaign telemetry: dump replayable bug artifacts, publish the
/// final gauges, flush the sinks and print the last heartbeat line.
fn finish_telemetry(tel: &Telemetry, stats: &CampaignStats) {
    if !tel.enabled() {
        return;
    }
    for b in &stats.bugs {
        tel.dump_bug_artifact(
            &stats.fuzzer,
            &stats.dialect.name().to_lowercase(),
            &b.crash.identifier,
            b.crash.stack_hash(),
            &b.reduced_sql,
        );
    }
    for b in &stats.logic_bugs {
        tel.dump_logic_bug_artifact(
            &stats.fuzzer,
            &stats.dialect.name().to_lowercase(),
            b.bug.oracle.name(),
            b.fingerprint(),
            &b.bug.detail,
            &b.reduced_sql,
        );
    }
    tel.set_live_gauges(stats.branches as u64, stats.corpus_size as u64);
    tel.finish();
}

/// [`run`] with its spec spelled out as arguments, kept with this exact
/// signature for the `perfbench/` benchmark.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_parallel_sema<F>(
    factory: F,
    dialect: Dialect,
    budget: Budget,
    opts: ParallelOpts,
    tel: &Telemetry,
    oracles: OracleConfig,
    ckpt: &CheckpointCfg,
    wal_dir: Option<&Path>,
    rule_cov: bool,
    sema: bool,
) -> Result<CampaignStats, String>
where
    F: Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync,
{
    let checkpoint = ckpt.clone();
    let wal_dir = wal_dir.map(Path::to_path_buf);
    let spec = CampaignSpec {
        dialect,
        budget,
        parallel: opts,
        oracles,
        checkpoint,
        wal_dir,
        rule_cov,
        sema,
    };
    run(&spec, tel, factory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzzer::{Config, LegoFuzzer};

    #[test]
    fn campaign_runs_and_gains_coverage() {
        let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
        let stats = run_campaign(&mut fz, Dialect::Postgres, Budget::execs(300));
        assert!(stats.execs > 50);
        assert!(stats.branches > 50, "branches = {}", stats.branches);
        assert!(stats.corpus_size > 1);
        // Coverage curve is monotone.
        for w in stats.coverage_curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn lego_beats_lego_minus_on_coverage() {
        // The Table IV ablation shape, at a budget past the early-noise
        // regime (MariaDB shows the largest effect in the paper: +25%),
        // summed over two RNG seeds to damp single-run variance.
        let budget = Budget::units(300_000);
        let (mut br, mut br_minus, mut aff, mut aff_minus) = (0usize, 0usize, 0usize, 0usize);
        for seed in [0x1e60u64, 7] {
            let cfg = Config { rng_seed: seed, ..Config::default() };
            let mut lego = LegoFuzzer::new(Dialect::MariaDb, cfg.clone());
            let s1 = run_campaign(&mut lego, Dialect::MariaDb, budget);
            let mut minus = LegoFuzzer::lego_minus(Dialect::MariaDb, cfg);
            let s2 = run_campaign(&mut minus, Dialect::MariaDb, budget);
            br += s1.branches;
            br_minus += s2.branches;
            aff += s1.corpus_affinities;
            aff_minus += s2.corpus_affinities;
        }
        assert!(br > br_minus, "LEGO {br} vs LEGO- {br_minus} branches");
        // The corpus-affinity crossover happens later in the run than the
        // branch crossover (LEGO- front-loads raw executions); at this test
        // budget we only require LEGO to be at parity — the full-budget
        // advantage is measured by the table4_ablation experiment.
        assert!(aff * 100 >= aff_minus * 95, "LEGO {aff} vs LEGO- {aff_minus} affinities");
    }

    #[test]
    fn bugs_are_deduplicated() {
        let mut fz = LegoFuzzer::new(Dialect::MariaDb, Config::default());
        let stats = run_campaign(&mut fz, Dialect::MariaDb, Budget::execs(4_000));
        let mut ids: Vec<u32> = stats.bugs.iter().map(|b| b.crash.bug_id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate bug reports");
    }

    #[test]
    fn stats_serialize_to_json() {
        let mut fz = LegoFuzzer::new(Dialect::Comdb2, Config::default());
        let stats = run_campaign(&mut fz, Dialect::Comdb2, Budget::execs(100));
        let json = serde_json::to_string(&stats).unwrap();
        assert!(json.contains("\"fuzzer\":\"LEGO\""));
    }
}
