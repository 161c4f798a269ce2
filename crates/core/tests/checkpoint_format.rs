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
//! record with any key missing or of the wrong type.

use lego::campaign::{run, Budget, CampaignSpec, FuzzEngine, ParallelOpts};
use lego::checkpoint::{
    load_campaign_checkpoint, meta_path, worker_path, CheckpointCfg, CHECKPOINT_VERSION,
};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::ngram::MAX_PACKED_SEQ;
use lego::observe::Telemetry;
use lego_sqlast::Dialect;
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, UnwindSafe};
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

/// A checkpoint directory written by a short plain campaign on `workers`
/// default-config LEGO engines.
fn written_checkpoint(tag: &str, workers: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_ckfmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers, ..ParallelOpts::default() },
        checkpoint: CheckpointCfg { every_units: 750, dir: Some(dir.clone()), resume: None },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(3_000))
    };
    run(&spec, &Telemetry::disabled(), |_| {
        Box::new(LegoFuzzer::new(Dialect::Postgres, Config::default()))
    })
    .expect("checkpointed campaign");
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
    let dir = written_checkpoint("meta", 1);
    load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    stamp(&meta_path(&dir), OLD);
    let err = load_campaign_checkpoint(&dir).unwrap_err();
    assert!(err.contains("meta.json"), "error should name the file: {err}");
    assert_refuses(&err, OLD);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn older_worker_checkpoint_versions_are_rejected() {
    let dir = written_checkpoint("worker", 1);
    let seq = load_campaign_checkpoint(&dir).expect("the written checkpoint loads").workers[0].seq;
    let path = worker_path(&dir, 0, seq);
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

/// The keys of `meta.json`, of a worker checkpoint and of the engine snapshot
/// it embeds.
const META_KEYS: [&str; 11] = [
    "version",
    "fuzzer",
    "dialect",
    "budget_units",
    "snapshots",
    "workers",
    "sync_every",
    "every_units",
    "oracles",
    "rule_cov",
    "sema",
];
const WORKER_KEYS: [&str; 26] = [
    "version",
    "worker",
    "seq",
    "units",
    "execs",
    "stmts_ok",
    "stmts_err",
    "cases_aborted",
    "next_snapshot",
    "next_ckpt",
    "since_sync",
    "curve",
    "snaps",
    "coverage",
    "rule_coverage",
    "seen_stacks",
    "bugs",
    "logic_bugs",
    "oracle_seen",
    "oracle_checks",
    "sema_rejects",
    "sema_skipped_stmts",
    "sema_audit",
    "sema_seen",
    "sema_findings",
    "engine",
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

/// The record `src` with its top-level `key` set to `value`, or dropped.
fn edited(src: &str, key: &str, value: Option<Value>) -> String {
    let Ok(Value::Object(mut map)) = serde_json::from_str(src) else {
        panic!("a checkpoint record is a JSON object");
    };
    match value {
        Some(value) => map.insert(key.to_string(), value),
        None => map.remove(key),
    };
    let mut out = String::new();
    to_json(&Value::Object(map), &mut out);
    out
}

/// Require the record `src` to hold exactly `keys`.
fn assert_keys(src: &str, keys: &[&str]) {
    let Ok(Value::Object(map)) = serde_json::from_str(src) else {
        panic!("a checkpoint record is a JSON object");
    };
    let mut want = keys.to_vec();
    want.sort_unstable();
    assert_eq!(map.keys().map(String::as_str).collect::<Vec<_>>(), want, "the record's keys");
}

/// The record `src` without `key`, then with an object in its place.
fn malformed(src: &str, key: &str) -> [(&'static str, String); 2] {
    [
        ("without", edited(src, key, None)),
        ("with an object for", edited(src, key, Some(Value::Object(BTreeMap::new())))),
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
    let dir = written_checkpoint("keys", 2);
    let resume = load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    let engine = resume.workers[0].engine.clone();
    restore(&engine).expect("the written engine snapshot restores");
    let worker = worker_path(&dir, 0, resume.workers[0].seq);
    let mut cases = 0;
    for (path, keys) in [(meta_path(&dir), &META_KEYS[..]), (worker.clone(), &WORKER_KEYS[..])] {
        let src = std::fs::read_to_string(&path).unwrap();
        assert_keys(&src, keys);
        for key in keys {
            for (how, bad) in malformed(&src, key) {
                std::fs::write(&path, bad).unwrap();
                let case = format!("{} {how} '{key}'", path.display());
                assert_refused(&case, &format!("'{key}'"), || load_campaign_checkpoint(&dir));
                cases += 1;
            }
        }
        std::fs::write(&path, src).unwrap();
    }
    assert_keys(&engine, &ENGINE_KEYS);
    for key in ENGINE_KEYS {
        for (how, bad) in malformed(&engine, key) {
            let case = format!("engine snapshot {how} '{key}'");
            assert_refused(&case, &format!("'{key}'"), || restore(&bad));
            cases += 1;
        }
    }
    assert_eq!(cases, 106);

    // A worker of two whose next snapshot index disagrees with the shard
    // snapshots it holds would index past them when the campaign joins.
    let src = std::fs::read_to_string(&worker).unwrap();
    std::fs::write(&worker, edited(&src, "next_snapshot", Some(Value::Number("99".into()))))
        .unwrap();
    let name = worker.file_name().unwrap().to_string_lossy().into_owned();
    assert_refused("next_snapshot 99", &name, || load_campaign_checkpoint(&dir));
    std::fs::write(&worker, src).unwrap();

    // A record of no workers resumes nothing.
    let meta = std::fs::read_to_string(meta_path(&dir)).unwrap();
    std::fs::write(meta_path(&dir), edited(&meta, "workers", Some(Value::Number("0".into()))))
        .unwrap();
    assert_refused("workers 0", "meta.json", || load_campaign_checkpoint(&dir));
    let _ = std::fs::remove_dir_all(&dir);
}
