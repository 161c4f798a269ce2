#![forbid(unsafe_code)]

//! `lego-oracle` — correctness oracles for the simulated DBMS.
//!
//! LEGO (the source paper) only observes *crashes*; most real DBMS bugs are
//! silent wrong results. This crate adds the SQLancer-style logic-bug
//! oracles on top of the existing pipeline:
//!
//! * **TLP** (ternary logic partitioning): a `SELECT … WHERE p` is
//!   partitioned into `p`, `NOT p`, `p IS NULL`; the multiset union of the
//!   three partitions must equal the unpartitioned result.
//! * **NoREC** (non-optimizing reference construction): the optimized
//!   predicate query's cardinality must match the count of rows on which
//!   the predicate — re-evaluated as a plain projection over the unfiltered
//!   scan — is true.
//! * **Differential**: dialect-neutral statement subsequences are replayed
//!   across the four dialect profiles; on the shared-semantics core, any
//!   result-set divergence between profiles is a bug.
//!
//! The campaign driver (`lego::campaign`) runs [`OracleSuite::check_case`]
//! after each corpus-accepted case and routes the resulting [`LogicBug`]s
//! through the same dedup/reduce/report pipeline as crash bugs. Everything
//! here is deterministic: oracle replays run on dedicated DBMS instances
//! with no coverage feedback into the campaign, so enabling oracles never
//! perturbs the campaign's coverage or corpus trajectory.

pub mod differential;
pub mod metamorphic;
pub mod recovery;
pub mod reduce;

use lego_dbms::faults::Faults;
use lego_dbms::Dbms;
use lego_sqlast::ast::{SelectVariant, Statement};
use lego_sqlast::skeleton::rebind;
use lego_sqlast::{Dialect, Expr, TestCase};
use serde::Serialize;
use std::path::Path;

pub use recovery::{DurabilityBug, RecoveryOracle};

/// Which oracle flagged a wrong result.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize)]
pub enum OracleKind {
    Tlp,
    Norec,
    Differential,
    /// WAL crash-recovery oracle (durability, not wrong results).
    Recovery,
    /// Analyzer-vs-engine conformance oracle (`--sema` campaigns): the
    /// static analyzer and the engine disagreed on a statement's validity.
    Sema,
}

impl OracleKind {
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Tlp => "TLP",
            OracleKind::Norec => "NoREC",
            OracleKind::Differential => "differential",
            OracleKind::Recovery => "recovery",
            OracleKind::Sema => "sema",
        }
    }
}

/// A deduplicable wrong-result finding — the logic-bug analogue of
/// `lego_dbms::CrashReport`.
#[derive(Clone, Debug, Serialize)]
pub struct LogicBug {
    pub oracle: OracleKind,
    /// Dialect of the campaign that found the bug.
    pub dialect: Dialect,
    /// Index of the offending SELECT within the triggering test case.
    pub statement: usize,
    /// The offending SELECT, as SQL.
    pub query: String,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl LogicBug {
    /// Stable identifier used as a human-facing bug label.
    pub fn identifier(&self) -> String {
        match self.oracle {
            OracleKind::Recovery => "recovery durability loss".to_string(),
            OracleKind::Sema => "sema conformance divergence".to_string(),
            _ => format!("{} wrong result", self.oracle.name()),
        }
    }

    /// Dedup key, analogous to `CrashReport::stack_hash`: FNV-1a over the
    /// oracle kind, the dialect, and the offending query's *skeleton* (the
    /// query with literals canonicalized). Literal values do not change
    /// which engine defect a divergence exposes, and the reducer's literal
    /// simplification must not change a bug's identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |s: &str| {
            for b in s.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        mix(self.oracle.name());
        mix("\u{1}");
        mix(self.dialect.name());
        mix("\u{1}");
        mix(&skeleton_sql(&self.query));
        h
    }
}

/// Canonicalize every literal in a SELECT's SQL text (parse → rebind →
/// re-print), matching the reducer's literal-simplification targets so that
/// reduced and unreduced reproducers of one defect fingerprint identically.
/// Unparseable input (never produced by the oracles themselves) hashes as-is.
fn skeleton_sql(query_sql: &str) -> String {
    match lego_sqlparser::parse_statement(query_sql) {
        Ok(mut stmt) => {
            rebind(
                &mut stmt,
                |_t| {},
                |_c| {},
                |l| match l {
                    Expr::Integer(_) | Expr::Float(_) => *l = Expr::Integer(1),
                    Expr::Str(_) => *l = Expr::Str("x".into()),
                    _ => {}
                },
            );
            stmt.to_string()
        }
        Err(_) => query_sql.to_string(),
    }
}

/// Which oracles to run. All off (`disabled`) makes every check a no-op.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleConfig {
    pub tlp: bool,
    pub norec: bool,
    pub differential: bool,
    /// WAL crash-recovery oracle. Opt-in (`--oracles=recovery`): it is not
    /// part of [`OracleConfig::all`] because it needs a WAL directory and
    /// checks durability rather than result correctness.
    pub recovery: bool,
}

impl OracleConfig {
    pub fn disabled() -> Self {
        Self::default()
    }

    /// TLP + NoREC + differential (the logic oracles; recovery stays
    /// opt-in).
    pub fn all() -> Self {
        Self { tlp: true, norec: true, differential: true, recovery: false }
    }

    /// The two metamorphic oracles only.
    pub fn metamorphic() -> Self {
        Self { tlp: true, norec: true, differential: false, recovery: false }
    }

    /// The recovery oracle only.
    pub fn recovery_only() -> Self {
        Self { tlp: false, norec: false, differential: false, recovery: true }
    }

    pub fn enabled(&self) -> bool {
        self.tlp || self.norec || self.differential || self.recovery
    }
}

/// What one `check_case` run produced.
#[derive(Clone, Debug, Default)]
pub struct OracleOutcome {
    /// Wrong-result findings (not yet deduplicated).
    pub bugs: Vec<LogicBug>,
    /// Oracle comparisons actually performed (eligible queries only).
    pub checks: usize,
    /// Statement-execution units spent on replays and rewritten queries —
    /// charged to the campaign budget like crash-triage executions.
    pub execs: usize,
}

/// Reusable oracle harness: one replay DBMS per dialect, reset between
/// cases. Campaign workers own one suite each, so parallel campaigns stay
/// scheduler-independent.
pub struct OracleSuite {
    cfg: OracleConfig,
    dialect: Dialect,
    /// Replay instance for the metamorphic oracles (campaign dialect).
    base: Dbms,
    /// One instance per dialect for the differential oracle.
    cross: Vec<Dbms>,
    /// WAL crash-recovery harness, when `cfg.recovery` (and the WAL
    /// directory was creatable).
    recovery: Option<RecoveryOracle>,
}

impl OracleSuite {
    pub fn new(dialect: Dialect, cfg: OracleConfig) -> Self {
        Self::with_wal(dialect, cfg, None, 0)
    }

    /// Like [`OracleSuite::new`], with an explicit WAL directory and worker
    /// index for the recovery oracle. Each worker writes its own
    /// `worker{NN}.wal` file, so parallel campaigns never share a path.
    /// With `wal_dir == None` a per-process directory under the system
    /// temp dir is used (the WAL path never influences findings).
    pub fn with_wal(
        dialect: Dialect,
        cfg: OracleConfig,
        wal_dir: Option<&Path>,
        worker: usize,
    ) -> Self {
        let recovery = if cfg.recovery {
            let default_dir;
            let dir = match wal_dir {
                Some(d) => d,
                None => {
                    default_dir =
                        std::env::temp_dir().join(format!("lego-wal-{}", std::process::id()));
                    &default_dir
                }
            };
            RecoveryOracle::new(dialect, dir, worker).ok()
        } else {
            None
        };
        Self {
            cfg,
            dialect,
            base: Dbms::new(dialect),
            cross: Dialect::ALL.iter().map(|&d| Dbms::new(d)).collect(),
            recovery,
        }
    }

    /// Plant test-only faults in every engine the suite replays on.
    pub fn set_faults(&mut self, faults: Faults) {
        self.base.set_faults(faults);
        for db in &mut self.cross {
            db.set_faults(faults);
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.set_faults(faults);
        }
    }

    pub fn config(&self) -> OracleConfig {
        self.cfg
    }

    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Path of the recovery oracle's WAL file, if it is active.
    pub fn wal_path(&self) -> Option<&Path> {
        self.recovery.as_ref().map(RecoveryOracle::wal_path)
    }

    /// Run every configured oracle over one (non-crashing) test case.
    /// Deterministic: depends only on the case, the dialect, and the config.
    pub fn check_case(&mut self, case: &TestCase) -> OracleOutcome {
        let mut out = self.check_case_logic(case);
        let rec = self.check_case_recovery(case);
        out.bugs.extend(rec.bugs);
        out.checks += rec.checks;
        out.execs += rec.execs;
        out
    }

    /// The logic oracles only (TLP/NoREC/differential) — split out so the
    /// campaign can profile them under `Stage::Oracle` while recovery is
    /// timed as `Stage::Recovery`.
    pub fn check_case_logic(&mut self, case: &TestCase) -> OracleOutcome {
        let mut out = OracleOutcome::default();
        if self.cfg.tlp || self.cfg.norec {
            metamorphic::check(&mut self.base, self.dialect, self.cfg, case, &mut out);
        }
        if self.cfg.differential {
            differential::check(&mut self.cross, self.dialect, case, &mut out);
        }
        out
    }

    /// The recovery oracle only.
    pub fn check_case_recovery(&mut self, case: &TestCase) -> OracleOutcome {
        let mut out = OracleOutcome::default();
        if let Some(rec) = self.recovery.as_mut() {
            rec.check(case, &mut out);
        }
        out
    }

    /// Does this case still trigger a logic bug with the given fingerprint?
    /// The reducer's "still fails the oracle" predicate.
    pub fn bug_persists(&mut self, case: &TestCase, fingerprint: u64) -> bool {
        self.check_case(case).bugs.iter().any(|b| b.fingerprint() == fingerprint)
    }
}

/// Is this statement an eligible plain SELECT (the only statement shape the
/// metamorphic oracles rewrite)?
pub(crate) fn plain_select(stmt: &Statement) -> Option<&lego_sqlast::ast::Query> {
    match stmt {
        Statement::Select(s) if matches!(s.variant, SelectVariant::Plain) => Some(&s.query),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bug(query: &str) -> LogicBug {
        LogicBug {
            oracle: OracleKind::Tlp,
            dialect: Dialect::Postgres,
            statement: 3,
            query: query.into(),
            detail: "x".into(),
        }
    }

    #[test]
    fn fingerprint_ignores_literal_values_and_statement_position() {
        let a = bug("SELECT * FROM t WHERE (a < 5);");
        let mut b = bug("SELECT * FROM t WHERE (a < 99);");
        b.statement = 0;
        b.detail = "different".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_query_shape_oracle_and_dialect() {
        let a = bug("SELECT * FROM t WHERE (a < 5);");
        let shape = bug("SELECT * FROM t WHERE (a = 5);");
        assert_ne!(a.fingerprint(), shape.fingerprint());
        let mut oracle = bug("SELECT * FROM t WHERE (a < 5);");
        oracle.oracle = OracleKind::Norec;
        assert_ne!(a.fingerprint(), oracle.fingerprint());
        let mut dialect = bug("SELECT * FROM t WHERE (a < 5);");
        dialect.dialect = Dialect::MySql;
        assert_ne!(a.fingerprint(), dialect.fingerprint());
    }

    #[test]
    fn config_flags() {
        assert!(!OracleConfig::disabled().enabled());
        assert!(OracleConfig::all().enabled());
        assert!(OracleConfig::metamorphic().enabled());
        assert!(!OracleConfig::metamorphic().differential);
    }

    #[test]
    fn logic_bugs_serialize() {
        let json = serde_json::to_string(&bug("SELECT 1;")).unwrap_or_default();
        // Vendored serde: unit-variant enums and plain structs derive.
        assert!(json.contains("Tlp"), "{json}");
    }
}
