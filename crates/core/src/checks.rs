//! What a worker finds besides coverage. One [`Ledger`] keeps each kind of
//! finding (crashes, oracle findings, analyzer divergences): it dedups them,
//! stores them in a checkpoint and re-derives them on resume. The two
//! per-case checks besides crash detection, the correctness oracles and the
//! static analyzer's conformance oracle, record into their ledgers and
//! reduce a new finding right away, like crash triage.

use crate::campaign::{panic_message, BugFinding, CampaignSpec, LogicBugFinding};
use crate::checkpoint::{FindingCk, Tally};
use lego_coverage::CovMap;
use lego_dbms::{CrashReport, Dbms, ExecReport, Outcome};
use lego_observe::{Event, Stage, Telemetry};
use lego_oracle::{
    reduce::{reduce_logic_bug, reduce_with},
    LogicBug, OracleKind, OracleSuite,
};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::{Sema, SeqReport, Verdict};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A finding a [`Ledger`] keeps: what replaying its case re-derives, and
/// the reproducers it was found with.
pub(crate) trait Finding {
    /// What a replay re-derives: a crash or a logic bug.
    type Kind;
    fn fingerprint(kind: &Self::Kind) -> u64;
    fn new(kind: Self::Kind, first_exec: usize, case_sql: String, reduced_sql: String) -> Self;
    /// The finding as a checkpoint stores it.
    fn ck(&self) -> FindingCk;
}

/// Implement [`Finding`] for a finding struct whose field `$kind` holds what
/// a replay re-derives, fingerprinted by that value's method `$fp`.
macro_rules! finding {
    ($ty:ident, $kind:ident: $Kind:ty, $fp:ident) => {
        impl Finding for $ty {
            type Kind = $Kind;
            fn fingerprint(kind: &$Kind) -> u64 {
                kind.$fp()
            }
            fn new($kind: $Kind, first_exec: usize, case_sql: String, reduced_sql: String) -> Self {
                Self { $kind, first_exec, case_sql, reduced_sql }
            }
            fn ck(&self) -> FindingCk {
                FindingCk {
                    first_exec: self.first_exec,
                    fingerprint: self.$kind.$fp(),
                    case_sql: self.case_sql.clone(),
                    reduced_sql: self.reduced_sql.clone(),
                }
            }
        }
    };
}
finding!(BugFinding, crash: CrashReport, stack_hash);
finding!(LogicBugFinding, bug: LogicBug, fingerprint);

/// One worker's findings of one kind, in discovery order, with the
/// fingerprints that dedup them.
pub(crate) struct Ledger<F> {
    /// The checkpoint key of the list, named in every resume error.
    list: &'static str,
    /// Fingerprints of `found`.
    seen: HashSet<u64>,
    pub(crate) found: Vec<F>,
}

impl<F: Finding> Ledger<F> {
    pub(crate) fn new(list: &'static str) -> Self {
        Self { list, seen: HashSet::new(), found: Vec::new() }
    }

    /// Claim fingerprint `fp`: `true` the first time, when the caller
    /// triages the finding and [`Ledger::record`]s it.
    pub(crate) fn is_new(&mut self, fp: u64) -> bool {
        self.seen.insert(fp)
    }

    /// Record a new finding, first seen in the worker's `exec`-th case.
    pub(crate) fn record(
        &mut self,
        kind: F::Kind,
        exec: usize,
        case: &TestCase,
        reduced_sql: String,
    ) {
        self.found.push(F::new(kind, exec, case.to_sql(), reduced_sql));
    }

    /// The findings as a checkpoint stores them.
    pub(crate) fn stored(&self) -> Vec<FindingCk> {
        self.found.iter().map(F::ck).collect()
    }

    /// Re-derive the findings a checkpoint stored by replaying each case
    /// with `replay`, under `catch_unwind`, and keeping what it gives with
    /// the stored fingerprint. A case that does not parse, a replay that
    /// panics and one without that fingerprint are refused alike, naming
    /// the list and the index. Replays are bookkeeping, never charged to
    /// the budget.
    pub(crate) fn restore<I>(
        &mut self,
        stored: &[FindingCk],
        mut replay: impl FnMut(&TestCase) -> I,
    ) -> Result<(), String>
    where
        I: IntoIterator<Item = F::Kind>,
    {
        let list = self.list;
        self.found = stored
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let refuse = |why: String| {
                    format!(
                        "{list}[{i}]: finding {:#x} does not replay: {why}: {}",
                        f.fingerprint, f.case_sql
                    )
                };
                let case = lego_sqlparser::parse_script(&f.case_sql)
                    .map_err(|e| refuse(format!("the case does not parse ({e:?})")))?;
                let mut kinds: Vec<F::Kind> =
                    catch_unwind(AssertUnwindSafe(|| replay(&case).into_iter().collect()))
                        .map_err(|p| {
                            refuse(format!("the replay panicked ({})", panic_message(&*p)))
                        })?;
                let Some(at) = kinds.iter().position(|k| F::fingerprint(k) == f.fingerprint) else {
                    let gives: Vec<String> =
                        kinds.iter().map(|k| format!("{:#x}", F::fingerprint(k))).collect();
                    let gives =
                        if gives.is_empty() { "no finding".into() } else { gives.join(", ") };
                    return Err(refuse(format!("the replay gives {gives}")));
                };
                let kind = kinds.swap_remove(at);
                Ok(F::new(kind, f.first_exec, f.case_sql.clone(), f.reduced_sql.clone()))
            })
            .collect::<Result<_, String>>()?;
        self.seen = stored.iter().map(|f| f.fingerprint).collect();
        Ok(())
    }
}

/// Per-worker correctness oracles: the replay suite, `None` with oracles
/// disabled, when every call is a no-op costing one branch.
pub(crate) struct OracleRuntime {
    suite: Option<OracleSuite>,
}

impl OracleRuntime {
    /// The oracles of `spec`, for worker `worker`.
    pub(crate) fn new(spec: &CampaignSpec, worker: usize) -> Self {
        let suite = spec.oracles.enabled().then(|| {
            let wal_dir = spec.wal_dir.as_deref();
            let mut suite = OracleSuite::with_wal(spec.dialect, spec.oracles, wal_dir, worker);
            suite.set_faults(spec.faults);
            suite
        });
        Self { suite }
    }

    /// Run the configured oracles over one corpus-accepted case, the
    /// worker's `tally.execs`-th, charging `tally` the checks and the
    /// statement units they consumed. New findings are recorded in `found`
    /// and reduced immediately, like crash triage. The logic oracles are
    /// timed as [`Stage::Oracle`], the recovery oracle as [`Stage::Recovery`].
    pub(crate) fn check(
        &mut self,
        case: &TestCase,
        tally: &mut Tally,
        found: &mut Ledger<LogicBugFinding>,
        worker: usize,
        tel: &Telemetry,
    ) {
        let Some(suite) = self.suite.as_mut() else { return };
        let exec = tally.execs;
        let mut out = tel.time(Stage::Oracle, || suite.check_case_logic(case));
        let rec = tel.time(Stage::Recovery, || suite.check_case_recovery(case));
        out.bugs.extend(rec.bugs);
        out.checks += rec.checks;
        out.execs += rec.execs;
        tally.units += out.execs;
        tally.oracle_checks += out.checks;
        for bug in out.bugs {
            let fp = bug.fingerprint();
            if found.is_new(fp) {
                let durability = bug.oracle == OracleKind::Recovery;
                let stage = if durability { Stage::Recovery } else { Stage::Oracle };
                let (reduced, evals) = tel.time(stage, || reduce_logic_bug(case, suite, &bug));
                tally.units += evals;
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
                found.record(bug, exec, case, reduced.to_sql());
            }
        }
    }

    /// The findings the oracles give on `case` (none with oracles disabled).
    pub(crate) fn replay(&mut self, case: &TestCase) -> Vec<LogicBug> {
        self.suite.as_mut().map_or_else(Vec::new, |suite| suite.check_case(case).bugs)
    }
}

/// Every how-many-th statically-rejected case executes anyway, as an audit
/// of the analyzer against the real engine. A deterministic counter, not a
/// probability, so serial and resumed runs agree on which cases audit.
pub const SEMA_AUDIT_EVERY: usize = 16;

/// Per-worker static-analysis state for `--sema` runs: the analyzer and
/// the report every skipped case feeds back. The campaign holds it as an
/// `Option` so a sema-less run touches none of this.
pub(crate) struct SemaRuntime {
    pub(crate) sema: Sema,
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

/// The [`first_divergence`] of `sema` and the reset engine `db` on `case`,
/// when the case runs to completion. Deterministic (a fresh binder and a
/// reset engine per call), as [`reduce_with`] and a resume's replay require.
fn rerun_divergence(sema: &Sema, db: &mut Dbms, case: &TestCase) -> Option<(usize, bool, String)> {
    let rep = sema.check_sequence(&case.statements);
    db.reset();
    let out = db.execute_case(case);
    let divergence =
        if matches!(out.outcome, Outcome::Ok) { first_divergence(&rep, &out) } else { None };
    db.recycle(out.coverage);
    divergence
}

impl SemaRuntime {
    /// The analyzer of `spec`, carrying its faults.
    pub(crate) fn new(spec: &CampaignSpec) -> Self {
        let mut sema = Sema::new(spec.dialect);
        sema.set_faults(spec.faults);
        Self {
            sema,
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

    /// Conformance oracle over one *executed* case, the worker's
    /// `tally.execs`-th: compare the analyzer's per-statement verdicts with
    /// what the engine actually did. A new divergence is recorded in `found`
    /// and ddmin-reduced immediately on the worker's engine `db`, like crash
    /// and logic-bug triage, charging `tally` the statement units the
    /// reduction consumed. Timed as [`Stage::Sema`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn conformance(
        &self,
        case: &TestCase,
        rep: &SeqReport,
        report: &ExecReport,
        db: &mut Dbms,
        tally: &mut Tally,
        found: &mut Ledger<LogicBugFinding>,
        worker: usize,
        tel: &Telemetry,
    ) {
        if !matches!(report.outcome, Outcome::Ok) {
            return;
        }
        let Some(divergence) = first_divergence(rep, report) else { return };
        let analyzer_accepted = divergence.1;
        let bug = sema_bug(db.dialect(), case, divergence);
        let fp = bug.fingerprint();
        if !found.is_new(fp) {
            return;
        }
        let (reduced, evals) = tel.time(Stage::Sema, || {
            reduce_with(case, |cand| {
                rerun_divergence(&self.sema, db, cand)
                    .is_some_and(|(_, acc, _)| acc == analyzer_accepted)
            })
        });
        tally.units += evals;
        let exec = tally.execs;
        tel.emit(|| Event::SemaDivergenceFound { worker, exec: exec as u64, fingerprint: fp });
        found.record(bug, exec, case, reduced.to_sql());
    }

    /// The divergence the analyzer and the reset engine `db` give on `case`,
    /// if any.
    pub(crate) fn replay(&self, db: &mut Dbms, case: &TestCase) -> Option<LogicBug> {
        rerun_divergence(&self.sema, db, case).map(|d| sema_bug(db.dialect(), case, d))
    }
}
