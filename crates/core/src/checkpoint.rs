//! Campaign checkpoint/resume.
//!
//! A long campaign periodically serializes everything its outcome depends on
//! that a resume cannot recompute — engine state (seed pool with costs,
//! affinity map, sequence store, AST library, queues, RNG), coverage
//! accumulator, findings and loop counters — so an interrupted run can be
//! resumed and produce the *byte-identical* final report of an
//! uninterrupted run.
//!
//! A checkpoint directory holds `meta.json` and one file per worker,
//! `worker{NN}.json`, which the worker overwrites at every checkpoint
//! boundary. Each worker resumes from its own newest checkpoint: a worker
//! judges novelty against its own maps only, so workers need not stop at
//! the same boundary.
//!
//! Two constraints shape the format:
//!
//! * The vendored `serde` is serialize-only. Each file is therefore one
//!   record struct (`meta.json` a [`CheckpointMeta`], a worker file a
//!   [`WorkerCheckpoint`], its embedded engine snapshot the fuzzer's
//!   `FuzzerSnapshot`) that derives [`serde::Serialize`] to write and is read
//!   back through the crate-private `FromJson` trait, which `from_json!`
//!   implements from the same field names. The reader looks up exactly the
//!   keys the writer emits, names the key in every error, and adds nothing to
//!   the bytes on disk.
//! * `SmallRng` state cannot be extracted, so checkpoints use a *reseed
//!   barrier*: at every checkpoint boundary the engine draws one `u64`,
//!   reseeds itself from it, and records the value. An uninterrupted run
//!   performs the same reseed at the same boundary, so both RNG streams are
//!   identical from that point on — which is why the checkpoint cadence is
//!   part of campaign configuration, not an afterthought.
//!
//! Heavyweight state round-trips through SQL text: test cases are stored as
//! scripts and re-parsed, and findings store only their fingerprint and
//! reproducers — resume *re-derives* the `CrashReport`/`LogicBug` structures
//! by replaying the stored SQL, failing loudly if the replay no longer gives
//! a finding with the stored fingerprint. The dedup sets are the findings'
//! fingerprints, the next checkpoint boundary follows from the units spent
//! and the next curve sample from the samples taken, so none of them is
//! stored.

use serde::Serialize;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Format version, stamped on `meta.json`, on every worker checkpoint and on
/// the engine snapshot each worker checkpoint embeds. Any layout change bumps
/// it and regenerates the engine-snapshot fixture under `tests/fixtures/`.
/// Restore accepts exactly this version: checkpoints are short-lived campaign
/// state, so an older one is refused rather than migrated.
pub const CHECKPOINT_VERSION: u64 = 8;

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
}

/// Campaign-level configuration recorded once per checkpoint directory, so
/// `--resume` can validate (and a human can reconstruct) the run.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct CheckpointMeta {
    pub version: u64,
    pub fuzzer: String,
    pub dialect: String,
    pub budget_units: usize,
    pub snapshots: usize,
    pub workers: usize,
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

/// One worker's (or the serial loop's) persisted state: everything a
/// resume cannot recompute.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct WorkerCheckpoint {
    pub version: u64,
    pub worker: usize,
    /// Checkpoints this worker has taken, this one included.
    pub seq: usize,
    pub units: usize,
    pub execs: usize,
    pub stmts_ok: usize,
    pub stmts_err: usize,
    pub cases_aborted: usize,
    /// Coverage curve so far (serial loop; empty for workers).
    pub curve: Vec<(usize, usize)>,
    /// Local-shard snapshots so far (worker loop; empty for serial).
    pub snaps: Vec<SnapCk>,
    /// Sparse dump of the coverage accumulator.
    pub coverage: Vec<(usize, u8)>,
    /// Sparse dump of the grammar-rule coverage accumulator (empty when the
    /// campaign ran without `rule_cov`).
    pub rule_coverage: Vec<(usize, u8)>,
    /// Crash findings; a crash's fingerprint is its stack hash.
    pub bugs: Vec<FindingCk>,
    /// Correctness-oracle findings (empty without oracles).
    pub logic_bugs: Vec<FindingCk>,
    pub oracle_checks: usize,
    /// Statements the static analyzer proved invalid (0 without `--sema`).
    pub sema_rejects: usize,
    /// Statements of statically-skipped cases, never attempted on the
    /// engine (0 without `--sema`).
    pub sema_skipped_stmts: usize,
    /// Statically-rejected cases seen so far — drives the every-Nth
    /// conformance-audit execution, so it must survive resume exactly.
    pub sema_audit: usize,
    /// Conformance-divergence findings (empty without `--sema`).
    pub sema_findings: Vec<FindingCk>,
    /// Engine snapshot (`FuzzEngine::checkpoint` payload), embedded as a
    /// JSON string.
    pub engine: String,
}

/// One coverage-curve snapshot of a worker's local shard.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SnapCk {
    pub units: usize,
    pub coverage: Vec<(usize, u8)>,
}

/// A crash, oracle or analyzer finding, stored as its dedup fingerprint and
/// reproducers. Resume re-derives the `CrashReport` or `LogicBug` by
/// replaying `case_sql` and refuses a replay whose fingerprint differs.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct FindingCk {
    pub first_exec: usize,
    pub fingerprint: u64,
    pub case_sql: String,
    pub reduced_sql: String,
}

impl FindingCk {
    /// Re-parse the stored case of a `what` finding.
    pub(crate) fn case(&self, what: &str) -> Result<lego_sqlast::TestCase, String> {
        lego_sqlparser::parse_script(&self.case_sql)
            .map_err(|e| format!("checkpointed {what} case re-parse: {e:?}"))
    }
}

// ---------------------------------------------------------------------------
// Write side
// ---------------------------------------------------------------------------

fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(contents.as_bytes())?;
    // The rename replaces a worker's only checkpoint: the new one must be
    // on disk before the old one goes.
    file.sync_all()?;
    std::fs::rename(&tmp, path)
}

pub fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta.json")
}

/// The name of worker `worker`'s checkpoint file.
pub fn worker_file(worker: usize) -> String {
    format!("worker{worker:02}.json")
}

pub fn worker_path(dir: &Path, worker: usize) -> PathBuf {
    dir.join(worker_file(worker))
}

/// Start a checkpoint directory: write `meta.json`, after removing the files
/// of workers `0..workers` unless the campaign resumes from them, so a
/// campaign that dies before its first checkpoint leaves no file of an
/// earlier campaign behind to resume from.
pub fn write_meta(dir: &Path, meta: &CheckpointMeta, resuming: bool) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if !resuming {
        for w in 0..meta.workers {
            match std::fs::remove_file(worker_path(dir, w)) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
        }
    }
    atomic_write(&meta_path(dir), &serde_json::to_string_pretty(meta).expect("meta serialize"))
}

/// Atomically replace a worker's checkpoint file with `ck`.
pub fn write_worker(dir: &Path, ck: &WorkerCheckpoint) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = worker_path(dir, ck.worker);
    atomic_write(&path, &serde_json::to_string(ck).expect("checkpoint serialize"))?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// Read side
// ---------------------------------------------------------------------------

/// A campaign's `meta.json` and each worker's newest checkpoint, in worker
/// order.
#[derive(Clone, Debug)]
pub struct CampaignResume {
    pub meta: CheckpointMeta,
    pub workers: Vec<WorkerCheckpoint>,
}

/// Load `meta.json` and the files of workers `0..workers` from `dir`, in
/// worker order; the first file that is missing or malformed is named in
/// the error.
pub fn load_campaign_checkpoint(dir: &Path) -> Result<CampaignResume, String> {
    let meta_file = meta_path(dir);
    let meta: CheckpointMeta = read_file(&meta_file)?;
    if meta.workers == 0 {
        return Err(format!("{}: workers is 0", meta_file.display()));
    }
    // Grown one file at a time: `workers` comes from the file, so nothing
    // is sized from it before each worker's file has been read.
    let mut workers = Vec::new();
    for w in 0..meta.workers {
        let path = worker_path(dir, w);
        let ck: WorkerCheckpoint = read_file(&path)?;
        if ck.worker != w {
            return Err(format!("{}: worker field is {}", path.display(), ck.worker));
        }
        workers.push(ck);
    }
    Ok(CampaignResume { meta, workers })
}

/// [`read`] the record in the file at `path`, naming the file on error.
fn read_file<T: FromJson>(path: &Path) -> Result<T, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    read(&src).map_err(|e| format!("{}: {e}", path.display()))
}

/// Parse one checkpoint record. Its `version` is checked before any other
/// field, so a file of another version is refused as such rather than for
/// a layout it does not share.
pub(crate) fn read<T: FromJson>(src: &str) -> Result<T, String> {
    let v = serde_json::from_str(src).map_err(|e| e.to_string())?;
    let version: u64 = field(&v, "version")?;
    if version != CHECKPOINT_VERSION {
        return Err(format!(
            "checkpoint format version {version}, but this build reads only version \
             {CHECKPOINT_VERSION}"
        ));
    }
    T::from_json(&v)
}

/// A value read back from the JSON its [`Serialize`] impl wrote. The vendored
/// `serde` cannot deserialize, so this is the one decoder of checkpoints.
pub(crate) trait FromJson: Sized {
    fn from_json(v: &serde_json::Value) -> Result<Self, String>;
}

/// Read the object `v`'s field `key`; every error names the key.
pub(crate) fn field<T: FromJson>(v: &serde_json::Value, key: &str) -> Result<T, String> {
    let obj = v.as_object().ok_or("expected an object")?;
    let x = obj.get(key).ok_or_else(|| format!("missing field '{key}'"))?;
    T::from_json(x).map_err(|e| format!("field '{key}': {e}"))
}

/// Implement [`FromJson`] for a struct with named fields, reading each field
/// from the key of the same name, which is the key the derived `Serialize`
/// writes. The struct literal makes the compiler reject a list that leaves
/// a field out.
macro_rules! from_json {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::checkpoint::FromJson for $ty {
            fn from_json(v: &::serde_json::Value) -> Result<Self, String> {
                Ok($ty { $($field: $crate::checkpoint::field(v, stringify!($field))?),* })
            }
        }
    };
}
pub(crate) use from_json;

macro_rules! from_json_uint {
    ($($ty:ty),*) => {$(
        impl FromJson for $ty {
            fn from_json(v: &serde_json::Value) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$ty>::try_from(n).ok())
                    .ok_or_else(|| format!("expected an integer in 0..={}", <$ty>::MAX))
            }
        }
    )*};
}
from_json_uint!(u8, u16, u64, usize);

impl FromJson for bool {
    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| "expected a bool".to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        v.as_str().map(str::to_string).ok_or_else(|| "expected a string".to_string())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        v.as_array()
            .ok_or("expected an array")?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| format!("[{i}]: {e}")))
            .collect()
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err("expected a 2-element array".to_string()),
        }
    }
}

impl<A: FromJson, B: FromJson, C: FromJson, D: FromJson> FromJson for (A, B, C, D) {
    fn from_json(v: &serde_json::Value) -> Result<Self, String> {
        match v.as_array() {
            Some([a, b, c, d]) => {
                Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?, D::from_json(d)?))
            }
            _ => Err("expected a 4-element array".to_string()),
        }
    }
}

from_json!(CheckpointMeta {
    version,
    fuzzer,
    dialect,
    budget_units,
    snapshots,
    workers,
    every_units,
    oracles,
    rule_cov,
    sema,
});

from_json!(WorkerCheckpoint {
    version,
    worker,
    seq,
    units,
    execs,
    stmts_ok,
    stmts_err,
    cases_aborted,
    curve,
    snaps,
    coverage,
    rule_coverage,
    bugs,
    logic_bugs,
    oracle_checks,
    sema_rejects,
    sema_skipped_stmts,
    sema_audit,
    sema_findings,
    engine,
});

from_json!(SnapCk { units, coverage });
from_json!(FindingCk { first_exec, fingerprint, case_sql, reduced_sql });

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lego_ckpt_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_worker(worker: usize, seq: usize) -> WorkerCheckpoint {
        let finding = |fingerprint, first_exec, sql: &str| FindingCk {
            first_exec,
            fingerprint,
            case_sql: sql.into(),
            reduced_sql: sql.lines().next().unwrap().into(),
        };
        WorkerCheckpoint {
            version: CHECKPOINT_VERSION,
            worker,
            seq,
            units: 1234,
            execs: 77,
            stmts_ok: 60,
            stmts_err: 17,
            cases_aborted: 2,
            curve: vec![(0, 0), (500, 42)],
            snaps: vec![SnapCk { units: 500, coverage: vec![(9, 3)] }],
            coverage: vec![(3, 1), (70_000, 255)],
            rule_coverage: vec![(17, 1)],
            bugs: vec![finding(u64::MAX - 3, 11, "SELECT 1;")],
            logic_bugs: vec![finding(u64::MAX - 1, 13, "SELECT 2;\nSELECT 3;")],
            oracle_checks: 9,
            sema_rejects: 4,
            sema_skipped_stmts: 12,
            sema_audit: 3,
            sema_findings: vec![finding(1 << 63, 21, "COMMIT;")],
            engine: "{\"rng_reseed\":18446744073709551615}".into(),
        }
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            version: CHECKPOINT_VERSION,
            fuzzer: "LEGO".into(),
            dialect: "Postgres".into(),
            budget_units: 10_000,
            snapshots: 25,
            workers: 2,
            every_units: 2_000,
            oracles: (false, true, false, true),
            rule_cov: true,
            sema: true,
        }
    }

    #[test]
    fn worker_checkpoint_roundtrips() {
        // The embedded engine snapshot survives as an exact string, u64
        // precision included, and each `u8` bucket as its digits.
        let ck = sample_worker(1, 2);
        let back: WorkerCheckpoint = read(&serde_json::to_string(&ck).unwrap()).unwrap();
        assert_eq!(back, ck);
    }

    #[test]
    fn load_reads_each_workers_newest_checkpoint() {
        let dir = tmpdir("newest");
        let meta = sample_meta();
        write_meta(&dir, &meta, false).unwrap();
        // Each worker overwrites its one file; worker 0 reached checkpoint 3
        // and worker 1 only 2, and each resumes from its own.
        for (w, top) in [(0usize, 3usize), (1, 2)] {
            for s in 1..=top {
                write_worker(&dir, &sample_worker(w, s)).unwrap();
            }
        }
        let resume = load_campaign_checkpoint(&dir).unwrap();
        assert_eq!(resume.meta, meta);
        assert_eq!(resume.workers, vec![sample_worker(0, 3), sample_worker(1, 2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fresh_campaign_removes_the_worker_files_it_will_write() {
        let dir = tmpdir("fresh");
        for w in 0..3 {
            write_worker(&dir, &sample_worker(w, 1)).unwrap();
        }
        write_meta(&dir, &sample_meta(), true).unwrap();
        assert!((0..3).all(|w| worker_path(&dir, w).exists()), "a resume removes nothing");
        write_meta(&dir, &sample_meta(), false).unwrap();
        let left: Vec<bool> = (0..3).map(|w| worker_path(&dir, w).exists()).collect();
        assert_eq!(left, [false, false, true], "only the files of workers 0..2 go");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_worker_files_are_an_error() {
        let dir = tmpdir("missing");
        write_meta(&dir, &sample_meta(), false).unwrap();
        write_worker(&dir, &sample_worker(0, 1)).unwrap();
        let err = load_campaign_checkpoint(&dir).unwrap_err();
        assert!(err.contains("worker01.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut ck = sample_worker(0, 1);
        ck.version = 999;
        let err = read::<WorkerCheckpoint>(&serde_json::to_string(&ck).unwrap()).unwrap_err();
        let this = format!("version {CHECKPOINT_VERSION}");
        assert!(err.contains("version 999") && err.contains(&this), "{err}");
    }
}
