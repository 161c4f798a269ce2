//! Campaign checkpoint/resume.
//!
//! A long campaign periodically serializes everything its outcome depends on
//! — engine state (seed pool with costs, affinity map, sequence store, AST
//! library, queues, RNG), coverage accumulator, crash/logic-bug dedup state,
//! and loop counters — so an interrupted run can be resumed and produce the
//! *byte-identical* final report of an uninterrupted run.
//!
//! Two constraints shape the format:
//!
//! * The vendored `serde` is serialize-only, so the write side uses derived
//!   [`serde::Serialize`] but the read side hand-walks a
//!   [`serde_json::Value`] tree (see the helpers at the bottom).
//! * `SmallRng` state cannot be extracted, so checkpoints use a *reseed
//!   barrier*: at every checkpoint boundary the engine draws one `u64`,
//!   reseeds itself from it, and records the value. An uninterrupted run
//!   performs the same reseed at the same boundary, so both RNG streams are
//!   identical from that point on — which is why the checkpoint cadence is
//!   part of campaign configuration, not an afterthought.
//!
//! Heavyweight state round-trips through SQL text: test cases are stored as
//! scripts and re-parsed, and crash/logic-bug findings store only their
//! reproducers — resume *re-derives* the `CrashReport`/`LogicBug` structures
//! by replaying the stored SQL, failing loudly if the environment no longer
//! reproduces them.

use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};

/// Format version, stamped on `meta.json`, on every worker checkpoint and on
/// the engine snapshot each worker checkpoint embeds. Any layout change bumps
/// it and regenerates the engine-snapshot fixture under `tests/fixtures/`.
/// Restore accepts exactly this version: checkpoints are short-lived campaign
/// state, so an older one is refused rather than migrated.
pub const CHECKPOINT_VERSION: u64 = 6;

/// Checkpointing configuration for a resilient campaign run.
#[derive(Clone, Debug, Default)]
pub struct CheckpointCfg {
    /// Checkpoint cadence in statement units; `0` disables checkpointing
    /// entirely (no reseed barriers, no files).
    pub every_units: usize,
    /// Directory for checkpoint files. `None` with a nonzero cadence still
    /// performs the deterministic reseed barriers (so a run that persists
    /// checkpoints and one that doesn't remain comparable) but writes
    /// nothing.
    pub dir: Option<PathBuf>,
    /// A loaded checkpoint to resume from. The caller must reconstruct the
    /// campaign with the same configuration (seeds, budget, workers, oracle
    /// config, cadence) the checkpoint was taken under; [`CheckpointMeta`]
    /// records those knobs and the runner validates what it can see.
    pub resume: Option<CampaignResume>,
}

impl CheckpointCfg {
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Checkpoint cadence with no persistence (tests, determinism barriers).
    pub fn every(units: usize) -> Self {
        Self { every_units: units, dir: None, resume: None }
    }

    pub fn active(&self) -> bool {
        self.every_units > 0
    }
}

/// Campaign-level configuration recorded once per checkpoint directory, so
/// `--resume` can validate (and a human can reconstruct) the run.
#[derive(Clone, Debug, Serialize)]
pub struct CheckpointMeta {
    pub version: u64,
    pub fuzzer: String,
    pub dialect: String,
    pub budget_units: usize,
    pub snapshots: usize,
    pub workers: usize,
    pub sync_every: usize,
    pub every_units: usize,
    /// `(tlp, norec, differential, recovery)`.
    pub oracles: (bool, bool, bool, bool),
    /// Whether the campaign ran with grammar-rule coverage feedback (resume
    /// must be invoked with the same flag).
    pub rule_cov: bool,
    /// Whether the campaign ran with the static sequence analyzer (resume
    /// must be invoked with the same flag — skipping changes both the unit
    /// accounting and the exploration order).
    pub sema: bool,
}

/// One worker's (or the serial loop's) complete persisted state.
#[derive(Clone, Debug, Serialize)]
pub struct WorkerCheckpoint {
    pub version: u64,
    pub worker: usize,
    /// Monotonic checkpoint sequence number for this worker (1-based).
    pub seq: usize,
    pub units: usize,
    pub execs: usize,
    pub stmts_ok: usize,
    pub stmts_err: usize,
    pub cases_aborted: usize,
    /// Serial loop: the next curve-snapshot unit threshold. Worker loop: the
    /// next snapshot *index*.
    pub next_snapshot: usize,
    /// Next checkpoint unit threshold (already advanced past `units`).
    pub next_ckpt: usize,
    /// Cases since the last shard sync (worker loop; 0 for serial).
    pub since_sync: usize,
    /// Coverage curve so far (serial loop; empty for workers).
    pub curve: Vec<(usize, usize)>,
    /// Local-shard snapshots so far (worker loop; empty for serial).
    pub snaps: Vec<SnapCk>,
    /// Sparse dump of the coverage accumulator.
    pub coverage: Vec<(usize, u64)>,
    /// Sparse dump of the grammar-rule coverage accumulator (empty when the
    /// campaign ran without `rule_cov`).
    pub rule_coverage: Vec<(usize, u64)>,
    /// Crash dedup state: `(stack_hash, first_exec)`, hash-sorted.
    pub seen_stacks: Vec<(u64, usize)>,
    pub bugs: Vec<FindingCk>,
    pub logic_bugs: Vec<LogicFindingCk>,
    /// Oracle fingerprint dedup state: `(fingerprint, first_exec)`, sorted.
    pub oracle_seen: Vec<(u64, usize)>,
    pub oracle_checks: usize,
    /// Statements the static analyzer proved invalid (0 without `--sema`).
    pub sema_rejects: usize,
    /// Statements of statically-skipped cases, never attempted on the
    /// engine (0 without `--sema`).
    pub sema_skipped_stmts: usize,
    /// Statically-rejected cases seen so far — drives the every-Nth
    /// conformance-audit execution, so it must survive resume exactly.
    pub sema_audit: usize,
    /// Conformance-divergence dedup state: `(fingerprint, first_exec)`,
    /// sorted (empty without `--sema`).
    pub sema_seen: Vec<(u64, usize)>,
    /// Conformance-divergence findings; re-derived on resume by replaying
    /// each case through analyzer + engine (empty without `--sema`).
    pub sema_findings: Vec<LogicFindingCk>,
    /// Engine snapshot (`FuzzEngine::checkpoint` payload), embedded as a
    /// JSON string.
    pub engine: String,
}

/// One coverage-curve snapshot of a worker's local shard.
#[derive(Clone, Debug, Serialize)]
pub struct SnapCk {
    pub units: usize,
    pub coverage: Vec<(usize, u64)>,
}

/// A crash finding, stored as its reproducers; the `CrashReport` itself is
/// re-derived on resume by replaying `case_sql`.
#[derive(Clone, Debug, Serialize)]
pub struct FindingCk {
    pub first_exec: usize,
    pub case_sql: String,
    pub reduced_sql: String,
}

/// A logic-bug finding; the `LogicBug` is re-derived on resume by replaying
/// `case_sql` through the oracle suite and matching `fingerprint`.
#[derive(Clone, Debug, Serialize)]
pub struct LogicFindingCk {
    pub first_exec: usize,
    pub fingerprint: u64,
    pub case_sql: String,
    pub reduced_sql: String,
}

/// Sparse-dump helper: widen the `u8` bucket bits for serialization.
pub fn sparse_out(entries: &[(usize, u8)]) -> Vec<(usize, u64)> {
    entries.iter().map(|&(i, v)| (i, v as u64)).collect()
}

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

pub fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

pub fn worker_path(dir: &Path, worker: usize, seq: usize) -> PathBuf {
    dir.join(format!("worker{worker:02}_ckpt{seq:04}.json"))
}

/// Write `meta.json` (idempotent; called once at campaign start).
pub fn write_meta(dir: &Path, meta: &CheckpointMeta) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    atomic_write(&meta_path(dir), &serde_json::to_string_pretty(meta).expect("meta serialize"))
}

/// Atomically persist one worker checkpoint.
pub fn write_worker(dir: &Path, ck: &WorkerCheckpoint) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = worker_path(dir, ck.worker, ck.seq);
    atomic_write(&path, &serde_json::to_string(ck).expect("checkpoint serialize"))?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Read side (hand-rolled over serde_json::Value)
// ---------------------------------------------------------------------------

/// Parsed per-worker checkpoint, ready for the campaign runner to apply.
#[derive(Clone, Debug)]
pub struct WorkerResume {
    pub worker: usize,
    pub seq: usize,
    pub units: usize,
    pub execs: usize,
    pub stmts_ok: usize,
    pub stmts_err: usize,
    pub cases_aborted: usize,
    pub next_snapshot: usize,
    pub next_ckpt: usize,
    pub since_sync: usize,
    pub curve: Vec<(usize, usize)>,
    pub snaps: Vec<(usize, Vec<(usize, u8)>)>,
    pub coverage: Vec<(usize, u8)>,
    /// Grammar-rule coverage shard (empty for rule-cov-off runs).
    pub rule_coverage: Vec<(usize, u8)>,
    pub seen_stacks: Vec<(u64, usize)>,
    pub bugs: Vec<FindingCk>,
    pub logic_bugs: Vec<LogicFindingCk>,
    pub oracle_seen: Vec<(u64, usize)>,
    pub oracle_checks: usize,
    /// Static-analysis counters and state (zero/empty for sema-off runs).
    pub sema_rejects: usize,
    pub sema_skipped_stmts: usize,
    pub sema_audit: usize,
    pub sema_seen: Vec<(u64, usize)>,
    pub sema_findings: Vec<LogicFindingCk>,
    pub engine: String,
}

/// A complete, consistent checkpoint set: one [`WorkerResume`] per worker,
/// all at the same sequence number.
#[derive(Clone, Debug)]
pub struct CampaignResume {
    pub meta: CheckpointMeta,
    pub workers: Vec<WorkerResume>,
}

/// Load the latest checkpoint set *complete across all workers* from `dir`.
///
/// Workers checkpoint independently, so the directory can hold e.g. seq 1-4
/// for worker 0 but only 1-3 for worker 1; the consistent resume point is
/// the minimum over workers of each worker's maximum sequence number.
pub fn load_campaign_checkpoint(dir: &Path) -> Result<CampaignResume, String> {
    let path = meta_path(dir);
    let src =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let meta = parse_meta(&src).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut seq = usize::MAX;
    for w in 0..meta.workers {
        let newest = (1..)
            .take_while(|&s| worker_path(dir, w, s).exists())
            .last()
            .ok_or_else(|| format!("no checkpoint files for worker {w} in {}", dir.display()))?;
        seq = seq.min(newest);
    }
    let mut workers = Vec::with_capacity(meta.workers);
    for w in 0..meta.workers {
        let path = worker_path(dir, w, seq);
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let parsed = parse_worker(&src).map_err(|e| format!("{}: {e}", path.display()))?;
        if parsed.worker != w {
            return Err(format!("{}: worker field is {}", path.display(), parsed.worker));
        }
        workers.push(parsed);
    }
    Ok(CampaignResume { meta, workers })
}

/// Require `v`'s `version` field to be [`CHECKPOINT_VERSION`].
pub(crate) fn check_version(v: &serde_json::Value) -> Result<(), String> {
    let version = get_u64(v, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint format version {version}, but this build reads only version \
             {CHECKPOINT_VERSION}"
        ));
    }
    Ok(())
}

fn parse_meta(src: &str) -> Result<CheckpointMeta, String> {
    let v = serde_json::from_str(src).map_err(|e| e.to_string())?;
    check_version(&v)?;
    let flags = get(&v, "oracles")?
        .as_array()
        .filter(|a| a.len() == 4)
        .ok_or("oracles must be a 4-element array")?;
    let flag = |i: usize| flags[i].as_bool().ok_or("oracle flag must be a bool");
    Ok(CheckpointMeta {
        version: CHECKPOINT_VERSION,
        fuzzer: get_string(&v, "fuzzer")?,
        dialect: get_string(&v, "dialect")?,
        budget_units: get_usize(&v, "budget_units")?,
        snapshots: get_usize(&v, "snapshots")?,
        workers: get_usize(&v, "workers")?,
        sync_every: get_usize(&v, "sync_every")?,
        every_units: get_usize(&v, "every_units")?,
        oracles: (flag(0)?, flag(1)?, flag(2)?, flag(3)?),
        rule_cov: get_bool(&v, "rule_cov")?,
        sema: get_bool(&v, "sema")?,
    })
}

fn parse_worker(src: &str) -> Result<WorkerResume, String> {
    let v = serde_json::from_str(src).map_err(|e| e.to_string())?;
    check_version(&v)?;
    let snaps = get(&v, "snaps")?
        .as_array()
        .ok_or("snaps must be an array")?
        .iter()
        .map(|s| Ok((get_usize(s, "units")?, sparse_in(get(s, "coverage")?)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(WorkerResume {
        worker: get_usize(&v, "worker")?,
        seq: get_usize(&v, "seq")?,
        units: get_usize(&v, "units")?,
        execs: get_usize(&v, "execs")?,
        stmts_ok: get_usize(&v, "stmts_ok")?,
        stmts_err: get_usize(&v, "stmts_err")?,
        cases_aborted: get_usize(&v, "cases_aborted")?,
        next_snapshot: get_usize(&v, "next_snapshot")?,
        next_ckpt: get_usize(&v, "next_ckpt")?,
        since_sync: get_usize(&v, "since_sync")?,
        curve: pairs_usize(get(&v, "curve")?)?,
        snaps,
        coverage: sparse_in(get(&v, "coverage")?)?,
        rule_coverage: sparse_in(get(&v, "rule_coverage")?)?,
        seen_stacks: pairs_u64_usize(get(&v, "seen_stacks")?)?,
        bugs: findings_in(get(&v, "bugs")?)?,
        logic_bugs: logic_findings_in(get(&v, "logic_bugs")?)?,
        oracle_seen: pairs_u64_usize(get(&v, "oracle_seen")?)?,
        oracle_checks: get_usize(&v, "oracle_checks")?,
        sema_rejects: get_usize(&v, "sema_rejects")?,
        sema_skipped_stmts: get_usize(&v, "sema_skipped_stmts")?,
        sema_audit: get_usize(&v, "sema_audit")?,
        sema_seen: pairs_u64_usize(get(&v, "sema_seen")?)?,
        sema_findings: logic_findings_in(get(&v, "sema_findings")?)?,
        engine: get_string(&v, "engine")?,
    })
}

fn findings_in(v: &serde_json::Value) -> Result<Vec<FindingCk>, String> {
    v.as_array()
        .ok_or("bugs must be an array")?
        .iter()
        .map(|b| {
            Ok(FindingCk {
                first_exec: get_usize(b, "first_exec")?,
                case_sql: get_string(b, "case_sql")?,
                reduced_sql: get_string(b, "reduced_sql")?,
            })
        })
        .collect()
}

fn logic_findings_in(v: &serde_json::Value) -> Result<Vec<LogicFindingCk>, String> {
    v.as_array()
        .ok_or("logic_bugs must be an array")?
        .iter()
        .map(|b| {
            Ok(LogicFindingCk {
                first_exec: get_usize(b, "first_exec")?,
                fingerprint: get_u64(b, "fingerprint")?,
                case_sql: get_string(b, "case_sql")?,
                reduced_sql: get_string(b, "reduced_sql")?,
            })
        })
        .collect()
}

fn sparse_in(v: &serde_json::Value) -> Result<Vec<(usize, u8)>, String> {
    pair_array(v)?
        .iter()
        .map(|(a, b)| {
            let bits =
                b.as_u64().filter(|&x| x <= u8::MAX as u64).ok_or("bucket bits out of range")?;
            Ok((a.as_usize().ok_or("edge index must be an integer")?, bits as u8))
        })
        .collect()
}

// --- generic Value helpers, shared with the engine restore path -----------

pub(crate) fn get<'a>(
    v: &'a serde_json::Value,
    key: &str,
) -> Result<&'a serde_json::Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

pub(crate) fn get_u64(v: &serde_json::Value, key: &str) -> Result<u64, String> {
    get(v, key)?.as_u64().ok_or_else(|| format!("field '{key}' must be a u64"))
}

pub(crate) fn get_usize(v: &serde_json::Value, key: &str) -> Result<usize, String> {
    get(v, key)?.as_usize().ok_or_else(|| format!("field '{key}' must be an integer"))
}

fn get_bool(v: &serde_json::Value, key: &str) -> Result<bool, String> {
    get(v, key)?.as_bool().ok_or_else(|| format!("field '{key}' must be a bool"))
}

pub(crate) fn get_string(v: &serde_json::Value, key: &str) -> Result<String, String> {
    Ok(get(v, key)?.as_str().ok_or_else(|| format!("field '{key}' must be a string"))?.to_string())
}

/// An array of 2-element arrays, the JSON shape of `Vec<(A, B)>`.
fn pair_array(
    v: &serde_json::Value,
) -> Result<Vec<(&serde_json::Value, &serde_json::Value)>, String> {
    v.as_array()
        .ok_or("expected an array of pairs")?
        .iter()
        .map(|p| {
            let p = p.as_array().filter(|a| a.len() == 2).ok_or("expected a 2-element array")?;
            Ok((&p[0], &p[1]))
        })
        .collect()
}

pub(crate) fn pairs_usize(v: &serde_json::Value) -> Result<Vec<(usize, usize)>, String> {
    pair_array(v)?
        .iter()
        .map(|(a, b)| {
            Ok((
                a.as_usize().ok_or("pair element must be an integer")?,
                b.as_usize().ok_or("pair element must be an integer")?,
            ))
        })
        .collect()
}

pub(crate) fn pairs_u64_usize(v: &serde_json::Value) -> Result<Vec<(u64, usize)>, String> {
    pair_array(v)?
        .iter()
        .map(|(a, b)| {
            Ok((
                a.as_u64().ok_or("pair element must be a u64")?,
                b.as_usize().ok_or("pair element must be an integer")?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lego_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_worker(worker: usize, seq: usize) -> WorkerCheckpoint {
        WorkerCheckpoint {
            version: CHECKPOINT_VERSION,
            worker,
            seq,
            units: 1234,
            execs: 77,
            stmts_ok: 60,
            stmts_err: 17,
            cases_aborted: 2,
            next_snapshot: 3,
            next_ckpt: 2000,
            since_sync: 5,
            curve: vec![(0, 0), (500, 42)],
            snaps: vec![SnapCk { units: 500, coverage: vec![(9, 3)] }],
            coverage: vec![(3, 1), (70_000, 255)],
            rule_coverage: vec![(17, 1)],
            seen_stacks: vec![(u64::MAX - 3, 11)],
            bugs: vec![FindingCk {
                first_exec: 11,
                case_sql: "SELECT 1;".into(),
                reduced_sql: "SELECT 1;".into(),
            }],
            logic_bugs: vec![],
            oracle_seen: vec![(42, 7)],
            oracle_checks: 9,
            sema_rejects: 4,
            sema_skipped_stmts: 12,
            sema_audit: 3,
            sema_seen: vec![(77, 5)],
            sema_findings: vec![],
            engine: "{\"rng_reseed\":18446744073709551615}".into(),
        }
    }

    #[test]
    fn worker_checkpoint_roundtrips() {
        let ck = sample_worker(1, 2);
        let json = serde_json::to_string(&ck).unwrap();
        let back = parse_worker(&json).unwrap();
        assert_eq!(back.worker, 1);
        assert_eq!(back.seq, 2);
        assert_eq!(back.units, 1234);
        assert_eq!(back.coverage, vec![(3, 1u8), (70_000, 255u8)]);
        assert_eq!(back.seen_stacks, vec![(u64::MAX - 3, 11)]);
        assert_eq!(back.snaps, vec![(500, vec![(9, 3u8)])]);
        assert_eq!(back.bugs[0].case_sql, "SELECT 1;");
        // The embedded engine snapshot survives as an exact string, u64
        // precision included.
        let engine = serde_json::from_str(&back.engine).unwrap();
        assert_eq!(engine.get("rng_reseed").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn load_picks_latest_complete_sequence() {
        let dir = tmpdir("latest");
        let meta = CheckpointMeta {
            version: CHECKPOINT_VERSION,
            fuzzer: "LEGO".into(),
            dialect: "Postgres".into(),
            budget_units: 10_000,
            snapshots: 25,
            workers: 2,
            sync_every: 16,
            every_units: 2_000,
            oracles: (false, true, false, false),
            rule_cov: true,
            sema: true,
        };
        write_meta(&dir, &meta).unwrap();
        // Worker 0 reached seq 3; worker 1 only seq 2 — the consistent
        // resume point is seq 2.
        for (w, top) in [(0usize, 3usize), (1, 2)] {
            for s in 1..=top {
                write_worker(&dir, &sample_worker(w, s)).unwrap();
            }
        }
        let resume = load_campaign_checkpoint(&dir).unwrap();
        assert_eq!(resume.meta.workers, 2);
        assert_eq!(resume.meta.oracles, (false, true, false, false));
        assert_eq!(resume.workers.len(), 2);
        assert!(resume.workers.iter().all(|w| w.seq == 2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_worker_files_are_an_error() {
        let dir = tmpdir("missing");
        let meta = CheckpointMeta {
            version: CHECKPOINT_VERSION,
            fuzzer: "LEGO".into(),
            dialect: "Postgres".into(),
            budget_units: 1,
            snapshots: 1,
            workers: 2,
            sync_every: 16,
            every_units: 1,
            oracles: (false, false, false, false),
            rule_cov: false,
            sema: false,
        };
        write_meta(&dir, &meta).unwrap();
        write_worker(&dir, &sample_worker(0, 1)).unwrap();
        let err = load_campaign_checkpoint(&dir).unwrap_err();
        assert!(err.contains("worker 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut ck = sample_worker(0, 1);
        ck.version = 999;
        let err = parse_worker(&serde_json::to_string(&ck).unwrap()).unwrap_err();
        assert!(err.contains("version 999") && err.contains("version 6"), "{err}");
    }
}
