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
//! snapshot, on `meta.json` and on each worker checkpoint alike.

use lego::campaign::{run_engine, Budget, CampaignSpec, FuzzEngine};
use lego::checkpoint::{
    load_campaign_checkpoint, meta_path, worker_path, CheckpointCfg, CHECKPOINT_VERSION,
};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::ngram::MAX_PACKED_SEQ;
use lego::observe::Telemetry;
use lego_sqlast::Dialect;
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

/// A checkpoint directory written by a short plain campaign.
fn written_checkpoint(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_ckfmt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = CampaignSpec {
        checkpoint: CheckpointCfg { every_units: 750, dir: Some(dir.clone()), resume: None },
        ..CampaignSpec::new(Dialect::Postgres, Budget::units(3_000))
    };
    let mut engine = LegoFuzzer::new(Dialect::Postgres, Config::default());
    run_engine(&spec, &Telemetry::disabled(), &mut engine).expect("checkpointed campaign");
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
    let dir = written_checkpoint("meta");
    load_campaign_checkpoint(&dir).expect("the written checkpoint loads");
    stamp(&meta_path(&dir), OLD);
    let err = load_campaign_checkpoint(&dir).unwrap_err();
    assert!(err.contains("meta.json"), "error should name the file: {err}");
    assert_refuses(&err, OLD);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn older_worker_checkpoint_versions_are_rejected() {
    let dir = written_checkpoint("worker");
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
