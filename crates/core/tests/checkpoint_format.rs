//! The checkpoint format: one version, pinned by a fixture.
//!
//! The fixtures were written by this build's own code:
//! - `fixtures/engine_snapshot.json` — a LEGO engine snapshot after 60
//!   driven cases (PostgreSQL, default config);
//! - `fixtures/resume_stream.txt` — the 20 cases the engine schedules after
//!   restoring that snapshot, one per line (newlines → spaces).
//!
//! Any layout change bumps [`CHECKPOINT_VERSION`] and regenerates both, with
//! `cargo run -q -p lego --example dump_snapshot` and then
//! `cargo run -q -p lego --example dump_resume_stream` (each example's doc
//! gives the redirect). Every other version is refused, on the engine
//! snapshot, on `meta.json` and on each worker checkpoint alike, and so is a
//! record with any key missing or of the wrong type, and a stored finding
//! of any kind that does not replay. A directory holds `meta.json` and one
//! file per worker, however many checkpoints were taken.

use lego::campaign::{run, Budget, CampaignSpec, CampaignStats, FuzzEngine, ParallelOpts};
use lego::checkpoint::{
    load_campaign_checkpoint, meta_path, worker_path, CheckpointCfg, CHECKPOINT_VERSION,
};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::ngram::MAX_PACKED_SEQ;
use lego::observe::Telemetry;
use lego_dbms::faults::Faults;
use lego_oracle::OracleConfig;
use lego_sqlast::Dialect;
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe, UnwindSafe};
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = include_str!("fixtures/engine_snapshot.json");
const STREAM: &str = include_str!("fixtures/resume_stream.txt");

/// The version the refusal tests below stamp on otherwise valid files: the
/// one before this build's.
const OLD: u64 = CHECKPOINT_VERSION - 1;

/// Drive the restored engine exactly like the fixture generator did and
/// collect the scheduled case stream.
fn drive(fz: &mut LegoFuzzer, n: usize) -> Vec<String> {
    let mut db = lego_dbms::Dbms::new(Dialect::Postgres);
    let mut global = lego_coverage::GlobalCoverage::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let case = fz.next_case();
        db.reset();
        let report = db.execute_case(&case);
        let new_coverage = global.merge(&report.coverage);
        fz.feedback(&case, &report, new_coverage);
        out.push(case.to_sql().replace('\n', " "));
    }
    out
}

fn restore(snapshot: &str) -> Result<(), String> {
    LegoFuzzer::new(Dialect::Postgres, Config::default()).restore(snapshot)
}

/// Assert that `err` refuses `version` and names it next to this build's.
fn assert_refuses(err: &str, version: u64) {
    assert!(
        err.contains(&format!("version {version}"))
            && err.contains(&format!("version {CHECKPOINT_VERSION}")),
        "error should name versions {version} and {CHECKPOINT_VERSION}: {err}"
    );
}

/// Checkpoint cadence of [`campaign`]: three checkpoints per worker of two.
const CADENCE: usize = 500;

/// A short plain campaign on `workers` default-config LEGO engines, with
/// `checkpoint`.
fn campaign(dialect: Dialect, workers: usize, checkpoint: CheckpointCfg) -> Result<(), String> {
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers },
        checkpoint,
        ..CampaignSpec::new(dialect, Budget::units(3_000))
    };
    run(&spec, &Telemetry::disabled(), |_| Box::new(LegoFuzzer::new(dialect, Config::default())))
        .map(drop)
}

/// A fresh directory for the checkpoints of test `tag`.
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_ckfmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The checkpoint directory [`campaign`] leaves.
fn written_checkpoint(tag: &str, dialect: Dialect, workers: usize) -> PathBuf {
    let dir = tmpdir(tag);
    let every = CheckpointCfg { every_units: CADENCE, dir: Some(dir.clone()), resume: None };
    campaign(dialect, workers, every).expect("checkpointed campaign");
    dir
}

/// Stamp `version` on the file at `path`: its own field, which precedes the
/// embedded engine snapshot's. `meta.json` is pretty-printed, worker
/// checkpoints are compact.
fn stamp(path: &Path, version: u64) {
    let src = std::fs::read_to_string(path).unwrap();
    for key in ["\"version\": ", "\"version\":"] {
        let own = format!("{key}{CHECKPOINT_VERSION}");
        if src.contains(&own) {
            let stamped = src.replacen(&own, &format!("{key}{version}"), 1);
            return std::fs::write(path, stamped).unwrap();
        }
    }
    panic!("{} carries no version {CHECKPOINT_VERSION}", path.display());
}

#[test]
fn snapshot_restores_and_replays_the_recorded_stream() {
    let v = serde_json::from_str(SNAPSHOT).unwrap();
    assert_eq!(
        v.get("version").and_then(|x| x.as_u64()),
        Some(CHECKPOINT_VERSION),
        "regenerate the fixtures at the current version (see the module doc)"
    );
    let mut fz = LegoFuzzer::new(Dialect::Postgres, Config::default());
    fz.restore(SNAPSHOT).expect("fixture snapshot restores");

    let want: Vec<&str> = STREAM.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(want.len(), 20, "fixture stream holds 20 cases");
    let got = drive(&mut fz, want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "post-restore case #{i} diverged from the recorded stream");
    }
}

#[test]
fn future_snapshot_versions_are_rejected() {
    let from = format!("\"version\":{CHECKPOINT_VERSION}");
    let to = format!("\"version\":{}", CHECKPOINT_VERSION + 1);
    assert!(SNAPSHOT.contains(&from), "snapshot text carries the version field");
    let err = restore(&SNAPSHOT.replacen(&from, &to, 1)).unwrap_err();
    assert_refuses(&err, CHECKPOINT_VERSION + 1);
}

#[test]
fn older_snapshot_versions_are_rejected() {
    let from = format!("\"version\":{CHECKPOINT_VERSION}");
    let err = restore(&SNAPSHOT.replacen(&from, &format!("\"version\":{OLD}"), 1)).unwrap_err();
    assert_refuses(&err, OLD);
}

#[test]
fn older_meta_versions_are_rejected() {
    let dir = written_checkpoint("meta", Dialect::Postgres, 1);
    load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    stamp(&meta_path(&dir), OLD);
    let err = load_campaign_checkpoint(&dir).unwrap_err();
    assert!(err.contains("meta.json"), "error should name the file: {err}");
    assert_refuses(&err, OLD);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn older_worker_checkpoint_versions_are_rejected() {
    let dir = written_checkpoint("worker", Dialect::Postgres, 1);
    load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    let path = worker_path(&dir, 0);
    stamp(&path, OLD);
    let err = load_campaign_checkpoint(&dir).unwrap_err();
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    assert!(err.contains(&name), "error should name the file: {err}");
    assert_refuses(&err, OLD);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_packed_ngram_keys_are_rejected() {
    // A hole in the middle lane (first and third 16-bit lanes set, second
    // empty) can never be produced by pack2/pack3: 2^32 + 1.
    assert!(SNAPSHOT.contains("\"executed_ngrams\":["));
    let poisoned =
        SNAPSHOT.replacen("\"executed_ngrams\":[", "\"executed_ngrams\":[4294967297,", 1);
    let err = restore(&poisoned).unwrap_err();
    assert!(err.contains("n-gram"), "error should name the bad n-gram key: {err}");
}

#[test]
fn empty_checkpointed_sequence_is_rejected() {
    assert!(SNAPSHOT.contains("\"seqs\":[["));
    let err = restore(&SNAPSHOT.replacen("\"seqs\":[", "\"seqs\":[[],", 1)).unwrap_err();
    assert!(err.contains("empty"), "error should name the empty sequence: {err}");
}

#[test]
fn checkpointed_sequence_longer_than_len_is_rejected() {
    // One past LEN still packs into a key but would index the wrong prefix
    // row; one past the packed width would overflow the key's shift.
    for len in [Config::default().max_seq_len + 1, MAX_PACKED_SEQ + 1] {
        let long = vec!["5"; len].join(",");
        let poisoned = SNAPSHOT.replacen("\"seqs\":[", &format!("\"seqs\":[[{long}],"), 1);
        let err = restore(&poisoned).unwrap_err();
        assert!(err.contains("LEN"), "error should name the length limit: {err}");
    }
}

#[test]
fn checkpointed_synthesis_job_longer_than_len_is_rejected() {
    // A queued job is restored as a packed key: one past LEN would
    // instantiate a sequence no store holds, one past the packed width would
    // overflow the key's shift.
    assert!(SNAPSHOT.contains("\"synth_jobs\":[{"));
    for len in [Config::default().max_seq_len + 1, MAX_PACKED_SEQ + 1] {
        let long = vec!["5"; len].join(",");
        let poisoned = SNAPSHOT.replacen(
            "\"synth_jobs\":[",
            &format!("\"synth_jobs\":[{{\"seq\":[{long}],\"left\":1}},"),
            1,
        );
        let err = restore(&poisoned).unwrap_err();
        assert!(err.contains("LEN"), "error should name the length limit: {err}");
    }
}

/// The keys of `meta.json`, of a worker checkpoint, of the tally nested in
/// it and of the engine snapshot it embeds.
const META_KEYS: [&str; 10] = [
    "version",
    "fuzzer",
    "dialect",
    "budget_units",
    "snapshots",
    "workers",
    "every_units",
    "oracles",
    "rule_cov",
    "sema",
];
const WORKER_KEYS: [&str; 12] = [
    "version",
    "worker",
    "seq",
    "tally",
    "curve",
    "snaps",
    "coverage",
    "rule_coverage",
    "bugs",
    "logic_bugs",
    "sema_findings",
    "engine",
];
const TALLY_KEYS: [&str; 9] = [
    "units",
    "execs",
    "stmts_ok",
    "stmts_err",
    "cases_aborted",
    "oracle_checks",
    "sema_rejects",
    "sema_skipped_stmts",
    "sema_audit",
];
const ENGINE_KEYS: [&str; 16] = [
    "version",
    "name",
    "cfg",
    "rng_reseed",
    "schedule_tick",
    "pending_origin",
    "pool",
    "affinities",
    "seqs",
    "store_truncated",
    "library",
    "library_keys",
    "queue",
    "synth_jobs",
    "executed_ngrams",
    "stats",
];

/// `v` as compact JSON.
fn to_json(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => out.push_str(n),
        Value::String(s) => serde::write_json_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                to_json(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                serde::write_json_string(k, out);
                out.push(':');
                to_json(item, out);
            }
            out.push('}');
        }
    }
}

/// The record `src` as a JSON object.
fn object(src: &str) -> BTreeMap<String, Value> {
    let Ok(Value::Object(map)) = serde_json::from_str(src) else {
        panic!("a checkpoint record is a JSON object");
    };
    map
}

/// The record `src` with the key at the end of `path` set to `value`, or
/// dropped; the keys before it name the nested objects that hold it.
fn edited(src: &str, path: &[&str], value: Option<Value>) -> String {
    fn edit(map: &mut BTreeMap<String, Value>, path: &[&str], value: Option<Value>) {
        match (path, value) {
            ([key], Some(value)) => drop(map.insert(key.to_string(), value)),
            ([key], None) => drop(map.remove(*key)),
            ([outer, rest @ ..], value) => match map.get_mut(*outer) {
                Some(Value::Object(inner)) => edit(inner, rest, value),
                _ => panic!("'{outer}' holds no object"),
            },
            ([], _) => panic!("an empty key path"),
        }
    }
    let mut map = object(src);
    edit(&mut map, path, value);
    let mut out = String::new();
    to_json(&Value::Object(map), &mut out);
    out
}

/// Require the object `map` to hold exactly `keys`.
fn assert_keys(map: &BTreeMap<String, Value>, keys: &[&str]) {
    let mut want = keys.to_vec();
    want.sort_unstable();
    assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), want, "the record's keys");
}

/// The record `src` without the key at `path`, then with an object in its
/// place.
fn malformed(src: &str, path: &[&str]) -> [(&'static str, String); 2] {
    [
        ("without", edited(src, path, None)),
        ("with an object for", edited(src, path, Some(Value::Object(BTreeMap::new())))),
    ]
}

/// `attempt` must return an error containing `want`, not panic.
fn assert_refused<T>(
    case: &str,
    want: &str,
    attempt: impl FnOnce() -> Result<T, String> + UnwindSafe,
) {
    match catch_unwind(attempt) {
        Ok(Ok(_)) => panic!("{case}: accepted"),
        Ok(Err(err)) => assert!(err.contains(want), "{case}: the error should name {want}: {err}"),
        Err(_) => panic!("{case}: panicked"),
    }
}

#[test]
fn every_missing_or_mistyped_key_is_refused_by_name() {
    let dir = written_checkpoint("keys", Dialect::Postgres, 2);
    let resume = load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    let engine = resume.workers[0].engine.clone();
    restore(&engine).expect("the written engine snapshot restores");
    let mut cases = 0;
    // Each file's keys, then the worker's tally's, by their path.
    let (meta, worker) = (meta_path(&dir), worker_path(&dir, 0));
    for (path, nest, keys) in [
        (&meta, None, &META_KEYS[..]),
        (&worker, None, &WORKER_KEYS[..]),
        (&worker, Some("tally"), &TALLY_KEYS[..]),
    ] {
        let src = std::fs::read_to_string(path).unwrap();
        match nest {
            None => assert_keys(&object(&src), keys),
            Some(outer) => match object(&src).get(outer) {
                Some(Value::Object(inner)) => assert_keys(inner, keys),
                _ => panic!("'{outer}' holds no object"),
            },
        }
        for key in keys {
            let at: Vec<&str> = nest.into_iter().chain([*key]).collect();
            for (how, bad) in malformed(&src, &at) {
                std::fs::write(path, bad).unwrap();
                let case = format!("{} {how} '{}'", path.display(), at.join("."));
                assert_refused(&case, &format!("'{key}'"), || load_campaign_checkpoint(&dir));
                cases += 1;
            }
        }
        std::fs::write(path, src).unwrap();
    }
    assert_keys(&object(&engine), &ENGINE_KEYS);
    for key in ENGINE_KEYS {
        for (how, bad) in malformed(&engine, &[key]) {
            let case = format!("engine snapshot {how} '{key}'");
            assert_refused(&case, &format!("'{key}'"), || restore(&bad));
            cases += 1;
        }
    }
    assert_eq!(cases, 94);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The names of the files in `dir`, sorted.
fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort_unstable();
    names
}

#[test]
fn each_worker_keeps_one_file_however_many_checkpoints_it_takes() {
    let dir = written_checkpoint("layout", Dialect::Postgres, 2);
    let resume = load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    let seqs: Vec<usize> = resume.workers.iter().map(|w| w.seq).collect();
    assert!(seqs.iter().all(|&s| s >= 3), "three checkpoints per worker: {seqs:?}");
    assert_eq!(files_in(&dir), ["meta.json", "worker00.json", "worker01.json"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A MariaDB campaign of 3,000 units with the analyzer and the TLP, NoREC
/// and differential oracles on `workers` workers, with `faults` planted.
fn layered(
    workers: usize,
    checkpoint: CheckpointCfg,
    faults: Faults,
) -> Result<CampaignStats, String> {
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers },
        oracles: OracleConfig::all(),
        sema: true,
        faults,
        checkpoint,
        ..CampaignSpec::new(Dialect::MariaDb, Budget::units(3_000))
    };
    let cfg = Config { sema: true, ..Config::default() };
    run(&spec, &Telemetry::disabled(), |_| Box::new(LegoFuzzer::new(Dialect::MariaDb, cfg.clone())))
}

#[test]
fn a_stored_finding_of_any_kind_is_refused_by_name_never_by_a_panic() {
    // One finding appended to each list of worker00.json: its fingerprint is
    // one no replay of its case gives, and its case panics an engine
    // carrying the planted CREATE TRIGGER panic. Faults are not part of the
    // checkpoint record, so a resume may plant one the campaign lacked.
    let case = "CREATE TABLE t0 (c0 INT);\n\
                CREATE TRIGGER r0 AFTER INSERT ON t0 FOR EACH ROW DELETE FROM t0;";
    let stored = Value::Object(BTreeMap::from([
        ("first_exec".to_string(), Value::Number("0".into())),
        ("fingerprint".to_string(), Value::Number("1".into())),
        ("case_sql".to_string(), Value::String(case.into())),
        ("reduced_sql".to_string(), Value::String(case.into())),
    ]));
    let panics = Faults { panic_on_create_trigger: true, ..Faults::default() };
    let edits = [("an altered fingerprint", Faults::default()), ("a panicking case", panics)];
    for workers in [1, 2] {
        let dir = tmpdir(&format!("findings{workers}"));
        let every = |resume| CheckpointCfg { every_units: 1_000, dir: None, resume };
        let write = CheckpointCfg { dir: Some(dir.clone()), ..every(None) };
        layered(workers, write, Faults::default()).expect("checkpointed campaign");
        let path = worker_path(&dir, 0);
        let src = std::fs::read_to_string(&path).unwrap();
        let resume = load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
        for (edit, faults) in edits {
            let unedited = layered(workers, every(Some(resume.clone())), faults);
            assert_eq!(unedited.map(|s| s.workers_lost), Ok(0), "the unedited file, {edit}");
        }
        for list in ["bugs", "logic_bugs", "sema_findings"] {
            let Some(Value::Array(mut findings)) = object(&src).remove(list) else {
                panic!("'{list}' holds no array");
            };
            let index = findings.len();
            findings.push(stored.clone());
            std::fs::write(&path, edited(&src, &[list], Some(Value::Array(findings)))).unwrap();
            for (edit, faults) in edits {
                let row = format!("{list}, {edit}, {workers} worker(s)");
                let resume =
                    load_campaign_checkpoint(&dir).expect("the edited file is well-formed");
                let resumed = catch_unwind(AssertUnwindSafe(|| {
                    layered(workers, every(Some(resume)), faults)
                }));
                let err = match resumed {
                    Ok(Err(err)) => err,
                    Ok(Ok(stats)) => {
                        panic!("{row}: accepted, {} worker(s) lost", stats.workers_lost)
                    }
                    Err(_) => panic!("{row}: panicked"),
                };
                let want = format!("worker00.json: {list}[{index}]: finding 0x1 does not replay");
                assert!(
                    err.contains(&want),
                    "{row}: the error should name the file and the list: {err}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_worker_count_the_files_do_not_hold_is_refused() {
    // A record of no workers resumes nothing; one of more workers than
    // there are files is refused at the first missing file, and nothing
    // is sized from the count before that.
    let dir = written_checkpoint("count", Dialect::Postgres, 1);
    let meta = std::fs::read_to_string(meta_path(&dir)).unwrap();
    for (count, want) in [(0, "meta.json"), (u64::MAX, "worker01.json")] {
        let workers = Some(Value::Number(count.to_string()));
        std::fs::write(meta_path(&dir), edited(&meta, &["workers"], workers)).unwrap();
        assert_refused(&format!("workers {count}"), want, || load_campaign_checkpoint(&dir));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
