//! The per-case checks a campaign can run besides crash detection: the
//! correctness oracles and the static analyzer's conformance oracle. Each
//! runtime holds one worker's dedup state and findings, reduces a new
//! finding right away (like crash triage), and restores itself from a
//! checkpoint by replaying the stored reproducers.

use crate::campaign::LogicBugFinding;
use crate::checkpoint::{LogicFindingCk, WorkerResume};
use lego_coverage::CovMap;
use lego_dbms::{Dbms, ExecReport, Outcome};
use lego_observe::{Event, Stage, Telemetry};
use lego_oracle::{
    reduce::{reduce_logic_bug, reduce_with},
    LogicBug, OracleConfig, OracleKind, OracleSuite,
};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::{Sema, SeqReport, Verdict};
use std::collections::HashMap;
use std::path::Path;

/// Per-worker logic-bug oracle state: the replay suite, fingerprint dedup,
/// findings, and the check counter. With oracles disabled every call is a
/// no-op costing one branch, keeping the hot loop unchanged.
pub(crate) struct OracleRuntime {
    suite: Option<OracleSuite>,
    pub(crate) seen: HashMap<u64, usize>,
    pub(crate) findings: Vec<LogicBugFinding>,
    pub(crate) checks: usize,
}

impl OracleRuntime {
    pub(crate) fn new(
        dialect: Dialect,
        cfg: OracleConfig,
        wal_dir: Option<&Path>,
        worker: usize,
    ) -> Self {
        Self {
            suite: cfg.enabled().then(|| OracleSuite::with_wal(dialect, cfg, wal_dir, worker)),
            seen: HashMap::new(),
            findings: Vec::new(),
            checks: 0,
        }
    }

    /// Run the configured oracles over one corpus-accepted case. New
    /// (fingerprint-deduplicated) findings are reduced immediately, like
    /// crash triage. Returns the statement units consumed, which the caller
    /// charges to the campaign budget. The logic oracles are timed as
    /// [`Stage::Oracle`], the recovery oracle as [`Stage::Recovery`].
    pub(crate) fn check(
        &mut self,
        case: &TestCase,
        worker: usize,
        exec: usize,
        tel: &Telemetry,
    ) -> usize {
        let Some(suite) = self.suite.as_mut() else { return 0 };
        let mut out = tel.time(Stage::Oracle, || suite.check_case_logic(case));
        let rec = tel.time(Stage::Recovery, || suite.check_case_recovery(case));
        out.bugs.extend(rec.bugs);
        out.checks += rec.checks;
        out.execs += rec.execs;
        let mut spent = out.execs;
        self.checks += out.checks;
        for bug in out.bugs {
            let fp = bug.fingerprint();
            if let std::collections::hash_map::Entry::Vacant(e) = self.seen.entry(fp) {
                e.insert(exec);
                let durability = bug.oracle == OracleKind::Recovery;
                let stage = if durability { Stage::Recovery } else { Stage::Oracle };
                let (reduced, evals) = tel.time(stage, || reduce_logic_bug(case, suite, &bug));
                spent += evals;
                if durability {
                    tel.emit(|| Event::DurabilityBugFound {
                        worker,
                        exec: exec as u64,
                        fingerprint: fp,
                    });
                } else {
                    tel.emit(|| Event::LogicBugFound {
                        worker,
                        exec: exec as u64,
                        oracle: bug.oracle.name().to_string(),
                        fingerprint: fp,
                    });
                }
                self.findings.push(LogicBugFinding {
                    bug,
                    first_exec: exec,
                    case_sql: case.to_sql(),
                    reduced_sql: reduced.to_sql(),
                });
            }
        }
        spent
    }

    /// Restore dedup state, findings and the check counter from a
    /// checkpoint. Findings are re-derived by replaying each stored case
    /// through the suite and matching its fingerprint; those replays are
    /// bookkeeping, so `checks` is overwritten with the recorded count.
    pub(crate) fn restore(&mut self, w: &WorkerResume) -> Result<(), String> {
        if !w.logic_bugs.is_empty() {
            let suite = self
                .suite
                .as_mut()
                .ok_or("checkpoint has logic-bug findings but oracles are disabled")?;
            self.findings = w
                .logic_bugs
                .iter()
                .map(|f| {
                    let case = parse(f, "logic-bug")?;
                    let out = suite.check_case(&case);
                    let bug = out
                        .bugs
                        .into_iter()
                        .find(|b| b.fingerprint() == f.fingerprint)
                        .ok_or_else(|| {
                            format!(
                                "checkpointed logic bug {:#x} no longer reproduces: {}",
                                f.fingerprint, f.case_sql
                            )
                        })?;
                    Ok(finding(bug, f))
                })
                .collect::<Result<_, String>>()?;
        }
        self.seen = w.oracle_seen.iter().copied().collect();
        self.checks = w.oracle_checks;
        Ok(())
    }
}

/// Re-parse a checkpointed finding's case.
fn parse(f: &LogicFindingCk, what: &str) -> Result<TestCase, String> {
    lego_sqlparser::parse_script(&f.case_sql)
        .map_err(|e| format!("checkpointed {what} case re-parse: {e:?}"))
}

/// A re-derived finding with its checkpointed reproducers.
fn finding(bug: LogicBug, f: &LogicFindingCk) -> LogicBugFinding {
    LogicBugFinding {
        bug,
        first_exec: f.first_exec,
        case_sql: f.case_sql.clone(),
        reduced_sql: f.reduced_sql.clone(),
    }
}

/// Every how-many-th statically-rejected case executes anyway, as an audit
/// of the analyzer against the real engine. A deterministic counter, not a
/// probability, so serial and resumed runs agree on which cases audit.
pub const SEMA_AUDIT_EVERY: usize = 16;

/// Per-worker static-analysis state for `--sema` runs: the analyzer itself,
/// the skip/audit counters, and the conformance-oracle dedup + findings. The
/// campaign holds it as an `Option` so a sema-less run touches none of this.
pub(crate) struct SemaRuntime {
    pub(crate) sema: Sema,
    /// Statically-rejected cases seen so far; every
    /// [`SEMA_AUDIT_EVERY`]-th one executes anyway.
    pub(crate) audit: usize,
    /// Statements proven invalid across the campaign.
    pub(crate) rejects: usize,
    /// Statements of skipped cases — never attempted on the engine.
    pub(crate) skipped_stmts: usize,
    /// Divergence fingerprint → first exec.
    pub(crate) seen: HashMap<u64, usize>,
    pub(crate) findings: Vec<LogicBugFinding>,
    /// The report every skipped case feeds back to the engine: zero
    /// statements executed, empty coverage, `Ok` outcome. Built once.
    pub(crate) skipped: ExecReport,
}

/// The first analyzer-vs-engine disagreement in an executed case, as
/// `(statement index, analyzer_accepted, engine error text)`. Only
/// meaningful when the case ran to completion (`Outcome::Ok`): parse errors,
/// crashes and aborted cases leave no trustworthy per-statement outcome.
fn first_divergence(rep: &SeqReport, report: &ExecReport) -> Option<(usize, bool, String)> {
    for (i, v) in rep.verdicts.iter().enumerate() {
        if i >= report.statements_executed {
            break;
        }
        let engine_err = report.stmt_errors.iter().position(|&e| e == i);
        match (v.verdict, engine_err) {
            (Verdict::Accept, Some(k)) => {
                return Some((i, true, report.errors.get(k).cloned().unwrap_or_default()))
            }
            (Verdict::Reject, None) => {
                return Some((i, false, v.reason.unwrap_or("rejected").to_string()))
            }
            _ => {}
        }
    }
    None
}

/// The finding for a divergence [`first_divergence`] reported in `case`.
fn sema_bug(
    dialect: Dialect,
    case: &TestCase,
    (idx, accepted, why): (usize, bool, String),
) -> LogicBug {
    LogicBug {
        oracle: OracleKind::Sema,
        dialect,
        statement: idx,
        query: case.statements[idx].to_string(),
        detail: if accepted {
            format!("analyzer accepted statement {idx} but the engine rejected it: {why}")
        } else {
            format!("analyzer rejected statement {idx} ({why}) but the engine accepted it")
        },
    }
}

/// Does `case` still exhibit a sema divergence in the given direction?
/// Deterministic (fresh analyzer + fresh engine per candidate), as
/// [`reduce_with`] requires.
fn sema_still_diverges(dialect: Dialect, case: &TestCase, analyzer_accepted: bool) -> bool {
    let rep = Sema::new(dialect).check_sequence(&case.statements);
    let mut db = Dbms::new(dialect);
    let out = db.execute_case(case);
    matches!(out.outcome, Outcome::Ok)
        && first_divergence(&rep, &out).is_some_and(|(_, acc, _)| acc == analyzer_accepted)
}

impl SemaRuntime {
    pub(crate) fn new(dialect: Dialect) -> Self {
        Self {
            sema: Sema::new(dialect),
            audit: 0,
            rejects: 0,
            skipped_stmts: 0,
            seen: HashMap::new(),
            findings: Vec::new(),
            skipped: ExecReport {
                outcome: Outcome::Ok,
                coverage: CovMap::new(),
                statements_executed: 0,
                errors: Vec::new(),
                stmt_errors: Vec::new(),
                last_rows: 0,
                stmts_ok: 0,
                stmts_err: 0,
            },
        }
    }

    /// Conformance oracle over one *executed* case: compare the analyzer's
    /// per-statement verdicts with what the engine actually did. A fresh
    /// (fingerprint-deduplicated) divergence is ddmin-reduced immediately,
    /// like crash and logic-bug triage; returns the statement units the
    /// reduction consumed. Timed as [`Stage::Sema`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conformance(
        &mut self,
        case: &TestCase,
        rep: &SeqReport,
        report: &ExecReport,
        dialect: Dialect,
        worker: usize,
        exec: usize,
        tel: &Telemetry,
    ) -> usize {
        if !matches!(report.outcome, Outcome::Ok) {
            return 0;
        }
        let Some(divergence) = first_divergence(rep, report) else {
            return 0;
        };
        let analyzer_accepted = divergence.1;
        let bug = sema_bug(dialect, case, divergence);
        let fp = bug.fingerprint();
        let std::collections::hash_map::Entry::Vacant(e) = self.seen.entry(fp) else {
            return 0;
        };
        e.insert(exec);
        let (reduced, evals) = tel.time(Stage::Sema, || {
            reduce_with(case, |cand| sema_still_diverges(dialect, cand, analyzer_accepted))
        });
        tel.emit(|| Event::SemaDivergenceFound { worker, exec: exec as u64, fingerprint: fp });
        self.findings.push(LogicBugFinding {
            bug,
            first_exec: exec,
            case_sql: case.to_sql(),
            reduced_sql: reduced.to_sql(),
        });
        evals
    }

    /// Restore counters, dedup state and findings from a checkpoint. The
    /// findings are re-derived by replaying each case through a fresh
    /// analyzer and engine and matching the stored fingerprint.
    pub(crate) fn restore(&mut self, dialect: Dialect, w: &WorkerResume) -> Result<(), String> {
        let mut db = Dbms::new(dialect);
        self.findings = w
            .sema_findings
            .iter()
            .map(|f| {
                let case = parse(f, "sema")?;
                let rep = self.sema.check_sequence(&case.statements);
                db.reset();
                let out = db.execute_case(&case);
                let divergence = first_divergence(&rep, &out).ok_or_else(|| {
                    format!("checkpointed sema divergence no longer reproduces: {}", f.case_sql)
                })?;
                let bug = sema_bug(dialect, &case, divergence);
                if bug.fingerprint() != f.fingerprint {
                    return Err(format!(
                        "checkpointed sema divergence {:#x} re-derived with a different fingerprint: {}",
                        f.fingerprint, f.case_sql
                    ));
                }
                Ok(finding(bug, f))
            })
            .collect::<Result<_, String>>()?;
        self.audit = w.sema_audit;
        self.rejects = w.sema_rejects;
        self.skipped_stmts = w.sema_skipped_stmts;
        self.seen = w.sema_seen.iter().copied().collect();
        Ok(())
    }
}
