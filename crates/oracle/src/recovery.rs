//! The recovery oracle: crash-point injection + WAL replay verification.
//!
//! For each checked case, the oracle picks a deterministic pseudo-random
//! **crash point** `k` (a statement index derived from the case's SQL text,
//! never from shared RNG state — so serial and N-worker campaigns stay
//! byte-identical), executes the `k`-statement prefix on a WAL-attached
//! engine, simulates a crash, and verifies recovery twice:
//!
//! 1. **Clean-boundary crash.** The post-crash disk image is the WAL as of
//!    the last sync (the open-transaction tail was never written). Recovery
//!    must yield exactly the records the engine acknowledged as synced, the
//!    log must not read as torn, and replaying the recovered records on a
//!    fresh engine must reproduce the live engine's *committed* state
//!    fingerprint.
//! 2. **Torn-tail crash.** The file is then truncated at a deterministic
//!    byte offset strictly inside the last written record — a crash mid
//!    `write(2)`. Recovery must detect the torn tail and yield the longest
//!    valid prefix (every written record but the last).
//!
//! ## Soundness
//!
//! Both sides of every comparison are functions of the same statement
//! prefix executed from a fresh engine, so a correct engine can never
//! diverge:
//!
//! * The synced records are a contiguous prefix of the executed statements
//!   (syncs happen only at commit boundaries), so the replay trace is a
//!   prefix of the live trace and cannot newly trip the pattern-based crash
//!   oracle — the live run already cleared every prefix.
//! * The committed fingerprint covers the catalog only (not session state),
//!   and is taken from the transaction snapshot while a transaction is
//!   open — exactly the state the synced prefix produces.
//! * Cases whose prefix crashes or trips a budget are skipped: their disk
//!   image is not attributable to a clean crash model.
//!
//! Any divergence is reported as a [`DurabilityBug`] and converted to a
//! [`LogicBug`] whose `query` is a canonical *class* string, so the
//! fingerprint dedups all instances of one failure mode (e.g. every case
//! that loses its last synced record) into a single finding, and ddmin
//! reduction via [`crate::OracleSuite::bug_persists`] works unchanged.

use crate::{LogicBug, OracleKind, OracleOutcome};
use lego_dbms::faults::Faults;
use lego_dbms::recovery::{self, RecoveredLog};
use lego_dbms::{Dbms, Outcome};
use lego_sqlast::{Dialect, TestCase};
use std::io;
use std::path::{Path, PathBuf};

/// Recovered log differs from the records the engine acknowledged as
/// durable (lost or reordered committed writes), or the clean-boundary
/// image reads as torn.
pub const CLASS_REPLAY_DIVERGENCE: &str = "recovery: replay divergence";
/// Truncation strictly inside the last record is not recovered as the
/// longest valid prefix.
pub const CLASS_TORN_RECOVERY: &str = "recovery: torn tail mishandled";
/// Records match but replaying them does not reproduce the committed state.
pub const CLASS_STATE_DIVERGENCE: &str = "recovery: state divergence";

/// A durability finding, before it enters the logic-bug triage pipeline.
#[derive(Clone, Debug)]
pub struct DurabilityBug {
    /// Failure-mode class (one of the `CLASS_*` constants) — the dedup key.
    pub class: &'static str,
    /// Statement index of the injected crash point.
    pub crash_point: usize,
    /// Human-readable description of the divergence.
    pub detail: String,
}

impl DurabilityBug {
    /// Enter the existing triage pipeline: the class string becomes the
    /// `LogicBug` query, which `skeleton_sql` hashes as-is (it is not SQL),
    /// so the fingerprint is `f(oracle, dialect, class)`.
    pub fn into_logic_bug(self, dialect: Dialect) -> LogicBug {
        LogicBug {
            oracle: OracleKind::Recovery,
            dialect,
            statement: self.crash_point,
            query: self.class.to_string(),
            detail: self.detail,
        }
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Reusable recovery-oracle harness: one WAL-attached live engine and one
/// replay engine, reset between cases. Each campaign worker owns one, with
/// its own WAL file, so parallel campaigns never contend on a path.
pub struct RecoveryOracle {
    dialect: Dialect,
    wal_path: PathBuf,
    /// Executes the crash-point prefix with the WAL attached.
    live: Dbms,
    /// Replays recovered records for the state comparison.
    replay: Dbms,
}

impl RecoveryOracle {
    /// `wal_dir` is created if missing; the WAL file is
    /// `wal_dir/worker{NN}.wal`, truncated per checked case.
    pub fn new(dialect: Dialect, wal_dir: &Path, worker: usize) -> io::Result<Self> {
        std::fs::create_dir_all(wal_dir)?;
        Ok(Self {
            dialect,
            wal_path: wal_dir.join(format!("worker{worker:02}.wal")),
            live: Dbms::new(dialect),
            replay: Dbms::new(dialect),
        })
    }

    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// Plant test-only faults in the live and the replay engine.
    pub fn set_faults(&mut self, faults: Faults) {
        self.live.set_faults(faults);
        self.replay.set_faults(faults);
    }

    /// Crash point for a case: a statement index in `1..=len`, derived only
    /// from the case text.
    pub fn crash_point(case_sql: &str, len: usize) -> usize {
        1 + (fnv64(case_sql.as_bytes()) % len as u64) as usize
    }

    /// Run the recovery check on one case, accumulating into `out`. Findings
    /// are appended as [`LogicBug`]s with [`OracleKind::Recovery`].
    pub fn check(&mut self, case: &TestCase, out: &mut OracleOutcome) {
        if case.statements.is_empty() {
            return;
        }
        let case_sql = case.to_sql();
        let k = Self::crash_point(&case_sql, case.statements.len());
        let prefix = TestCase::shared(case.statements[..k].to_vec());

        self.live.reset();
        if self.live.wal_attach(&self.wal_path).is_err() {
            // Environment failure (unwritable dir), not an engine bug.
            return;
        }
        let report = self.live.execute_case(&prefix);
        out.execs += 1;
        let clean = matches!(report.outcome, Outcome::Ok);
        self.live.recycle(report.coverage);
        if !clean {
            // A crashed or budget-killed prefix has no clean crash model.
            self.live.wal_detach();
            return;
        }
        out.checks += 1;

        let (expected, written, last_span, wal_io_error) = {
            let wal = self.live.wal().expect("wal attached above");
            (
                wal.synced_records().to_vec(),
                wal.written_records().to_vec(),
                wal.last_written_span(),
                wal.io_error().map(str::to_string),
            )
        };
        let live_fp = self.live.durable_fingerprint();
        // Simulate the crash: the pending (open-transaction) tail was never
        // written, so the file on disk is already the post-crash image.
        self.live.wal_crash();
        self.live.wal_detach();
        if wal_io_error.is_some() {
            // A real I/O failure (disk full) is an environment problem; a
            // divergence caused by it would be a false accusation.
            return;
        }

        if let Some(bug) = self.check_clean_boundary(&expected, live_fp, k, out) {
            out.bugs.push(bug.into_logic_bug(self.dialect));
            return;
        }
        if let Some(bug) = self.check_torn_tail(&written, last_span, &case_sql, k) {
            out.bugs.push(bug.into_logic_bug(self.dialect));
        }
    }

    /// Clean-boundary crash: recovered records must equal the synced list
    /// and replay must reproduce the committed fingerprint.
    fn check_clean_boundary(
        &mut self,
        expected: &[String],
        live_fp: u64,
        k: usize,
        out: &mut OracleOutcome,
    ) -> Option<DurabilityBug> {
        let log = match recovery::read_wal(&self.wal_path) {
            Ok(log) => log,
            Err(_) => return None,
        };
        if log.torn || log.records != expected {
            return Some(DurabilityBug {
                class: CLASS_REPLAY_DIVERGENCE,
                crash_point: k,
                detail: divergence_detail(&log, expected),
            });
        }
        self.replay.reset();
        match recovery::replay_into(&mut self.replay, &log.records) {
            Ok(rep) => {
                self.replay.recycle(rep.coverage);
                out.execs += 1;
            }
            Err(e) => {
                return Some(DurabilityBug {
                    class: CLASS_REPLAY_DIVERGENCE,
                    crash_point: k,
                    detail: e,
                })
            }
        }
        let replay_fp = self.replay.durable_fingerprint();
        if replay_fp != live_fp {
            return Some(DurabilityBug {
                class: CLASS_STATE_DIVERGENCE,
                crash_point: k,
                detail: format!(
                    "replaying {} recovered records gives state fingerprint \
                     {replay_fp:016x}, live committed state is {live_fp:016x}",
                    log.records.len(),
                ),
            });
        }
        None
    }

    /// Torn-tail crash: truncate strictly inside the last written record;
    /// recovery must flag the tear and keep every earlier record.
    fn check_torn_tail(
        &mut self,
        written: &[String],
        last_span: Option<(u64, u64)>,
        case_sql: &str,
        k: usize,
    ) -> Option<DurabilityBug> {
        let (start, len) = last_span?;
        debug_assert!(len >= 2, "a record is at least a header");
        // A cut anywhere in [start+1, start+len-1] leaves a non-empty,
        // incomplete tail. Derived from the case text, like the crash point.
        let cut = start + 1 + fnv64(format!("torn\u{1}{case_sql}").as_bytes()) % (len - 1);
        let file = match std::fs::OpenOptions::new().write(true).open(&self.wal_path) {
            Ok(f) => f,
            Err(_) => return None,
        };
        if file.set_len(cut).is_err() {
            return None;
        }
        let log = match recovery::read_wal(&self.wal_path) {
            Ok(log) => log,
            Err(_) => return None,
        };
        let want = &written[..written.len() - 1];
        if !log.torn || log.records != want {
            return Some(DurabilityBug {
                class: CLASS_TORN_RECOVERY,
                crash_point: k,
                detail: format!(
                    "after truncating mid-record at byte {cut}, recovery \
                     returned {} records (torn={}), want the {}-record valid \
                     prefix with torn=true",
                    log.records.len(),
                    log.torn,
                    want.len(),
                ),
            });
        }
        None
    }
}

fn divergence_detail(log: &RecoveredLog, expected: &[String]) -> String {
    let mismatch = log
        .records
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| log.records.len().min(expected.len()));
    format!(
        "recovered {} of {} synced records (torn={}), first mismatch at \
         record {mismatch}",
        log.records.len(),
        expected.len(),
        log.torn,
    )
}
