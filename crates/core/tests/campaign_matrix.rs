//! The campaign determinism contract, as one table.
//!
//! Every cell is a feature set on a dialect. Each cell runs three ways —
//! serial, one worker built by the factory, and three workers — and each
//! way checks four promises:
//!
//! * **rerun identity** — the same seeds give a byte-identical
//!   [`CampaignStats::deterministic_json`];
//! * **telemetry parity** — on the everything-on cells, a run with events
//!   and metrics recorded equals the unobserved run;
//! * **resume identity** — a run resumed from checkpoint 1 equals the
//!   uninterrupted run with the same cadence;
//! * **pinned output** — the FNV-64 digest of each report matches
//!   `tests/fixtures/campaign_matrix.txt`.
//!
//! Serial and one-worker runs must also agree with each other. The event
//! streams of one serial and one three-worker cell are pinned as well. On a
//! mismatch the test prints the cell's actual fixture lines.

use lego::campaign::ParallelOpts;
use lego::campaign::{run, run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, MetricsRegistry, Telemetry};
use lego::OracleConfig;
use lego_sqlast::Dialect;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const BUDGET: Budget = Budget { units: 3_000, snapshots: 10 };
/// Checkpoint cadence: below a three-worker slice, so every worker writes
/// checkpoint 1.
const CADENCE: usize = 750;
const SEED: u64 = 0x5eed;
const SYNC_EVERY: usize = 4;

/// One row of the matrix: a feature set.
#[derive(Clone, Copy)]
struct Features {
    name: &'static str,
    oracles: OracleConfig,
    wal: bool,
    rule_cov: bool,
    sema: bool,
}

const NO_ORACLES: OracleConfig =
    OracleConfig { tlp: false, norec: false, differential: false, recovery: false };
const LOGIC_ORACLES: OracleConfig =
    OracleConfig { tlp: true, norec: true, differential: true, ..NO_ORACLES };

const PLAIN: Features =
    Features { name: "plain", oracles: NO_ORACLES, wal: false, rule_cov: false, sema: false };
const LOGIC: Features = Features { name: "logic", oracles: LOGIC_ORACLES, ..PLAIN };
const DURABLE: Features = Features {
    name: "durable",
    oracles: OracleConfig { recovery: true, ..LOGIC_ORACLES },
    wal: true,
    ..PLAIN
};
const RULE_COV: Features = Features { name: "rule_cov", rule_cov: true, ..PLAIN };
const SEMA: Features = Features { name: "sema", sema: true, ..PLAIN };
const EVERYTHING: Features = Features { name: "everything", rule_cov: true, sema: true, ..DURABLE };

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Serial,
    OneWorker,
    ThreeWorkers,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Serial => "serial",
            Mode::OneWorker => "w1",
            Mode::ThreeWorkers => "w3",
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_matrix_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn factory(dialect: Dialect, f: Features) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = SEED ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, rule_cov: f.rule_cov, sema: f.sema, ..Config::default() };
        Box::new(LegoFuzzer::new(dialect, cfg))
    }
}

/// One campaign of the cell in the given mode.
fn campaign(
    dialect: Dialect,
    f: Features,
    mode: Mode,
    tel: &Telemetry,
    checkpoint: CheckpointCfg,
    wal: &Path,
) -> CampaignStats {
    let workers = if mode == Mode::ThreeWorkers { 3 } else { 1 };
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers, sync_every: SYNC_EVERY },
        oracles: f.oracles,
        checkpoint,
        wal_dir: f.wal.then(|| wal.to_path_buf()),
        rule_cov: f.rule_cov,
        sema: f.sema,
        ..CampaignSpec::new(dialect, BUDGET)
    };
    let factory = factory(dialect, f);
    let out = match mode {
        Mode::Serial => run_engine(&spec, tel, factory(0).as_mut()),
        Mode::OneWorker | Mode::ThreeWorkers => run(&spec, tel, factory),
    };
    out.expect("campaign completes")
}

/// Delete every checkpoint of `worker` after sequence number `keep`, as if
/// the campaign had been killed shortly after checkpoint `keep`.
fn truncate_checkpoints(dir: &Path, worker: usize, keep: usize) {
    for seq in (keep + 1).. {
        let path = dir.join(format!("worker{worker:02}_ckpt{seq:04}.json"));
        if !path.exists() {
            break;
        }
        std::fs::remove_file(&path).unwrap();
    }
}

/// The committed digests, keyed by everything on a line but the digest.
fn fixture() -> HashMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/campaign_matrix.txt");
    let text = std::fs::read_to_string(&path).expect("fixture file");
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Compare `actual` fixture lines with the committed ones; print every line
/// of the cell and fail if any differs.
fn check_fixture(cell: &str, actual: &[(String, u64)]) {
    let want = fixture();
    let lines: Vec<String> = actual.iter().map(|(k, d)| format!("{k} {d:016x}")).collect();
    let bad = actual.iter().any(|(k, d)| want.get(k) != Some(&format!("{d:016x}")));
    if bad {
        panic!("{cell}: digests differ from the fixture; actual lines:\n{}", lines.join("\n"));
    }
}

/// Feature-specific facts every run of a cell must show.
fn check_features(key: &str, f: Features, s: &CampaignStats) {
    if f.oracles.enabled() {
        assert!(s.oracle_checks > 0, "{key}: no oracle check ran");
    } else {
        assert_eq!(s.oracle_checks, 0, "{key}");
    }
    if f.rule_cov {
        assert!(s.rule_branches > 0, "{key}: rule map stayed empty");
    } else {
        assert_eq!(s.rule_branches, 0, "{key}: rule map kept while off");
    }
    if f.sema {
        assert!(s.sema_rejects > 0 && s.sema_skipped_stmts > 0, "{key}: nothing skipped");
        assert!(s.raw_validity_pct() <= s.validity_pct(), "{key}");
        assert_eq!(s.sema_divergences, 0, "{key}: analyzer diverged from the engine");
    } else {
        assert_eq!((s.sema_rejects, s.sema_skipped_stmts, s.sema_divergences), (0, 0, 0), "{key}");
        assert!((s.validity_pct() - s.raw_validity_pct()).abs() < f64::EPSILON, "{key}");
    }
}

/// Run one cell in every mode and check all of its promises.
fn cell(dialect: Dialect, f: Features) {
    let tag = format!("{}_{}", dialect.name().to_lowercase(), f.name);
    let wal_a = tmpdir(&format!("{tag}_wal_a"));
    let wal_b = tmpdir(&format!("{tag}_wal_b"));
    let observed = f.name == EVERYTHING.name;
    let off = Telemetry::disabled();
    let mut actual = Vec::new();
    let mut serial: Option<(String, String)> = None;
    for mode in [Mode::Serial, Mode::OneWorker, Mode::ThreeWorkers] {
        let key = format!("{} {} {}", dialect.name().to_lowercase(), f.name, mode.name());

        // Uninterrupted, without checkpoints.
        let run = campaign(dialect, f, mode, &off, CheckpointCfg::disabled(), &wal_a);
        check_features(&key, f, &run);

        // Rerun identity. The one-worker run reruns the serial one through
        // the factory (checked below); three workers rerun themselves, and
        // the everything-on cells rerun serially with telemetry on.
        let rerun = match mode {
            Mode::Serial => observed,
            Mode::OneWorker => false,
            Mode::ThreeWorkers => true,
        };
        if rerun {
            let mem = Arc::new(MemorySink::new());
            let tel = if observed {
                let metrics = Arc::new(MetricsRegistry::new());
                Telemetry::builder().sink(mem.clone()).metrics(metrics).seed(SEED).build()
            } else {
                Telemetry::disabled()
            };
            let again = campaign(dialect, f, mode, &tel, CheckpointCfg::disabled(), &wal_b);
            assert_eq!(run.deterministic_json(), again.deterministic_json(), "{key}: rerun");
            if observed {
                assert!(run.stage_profile.is_none() && again.stage_profile.is_some(), "{key}");
                let events: Vec<String> = mem.snapshot().iter().map(Event::to_json).collect();
                assert!(!events.is_empty(), "{key}: telemetry recorded nothing");
                actual.push((format!("{key} events"), fnv64(&events.join("\n"))));
            }
        }

        // Checkpointed every CADENCE units, then resumed from checkpoint 1
        // into a fresh WAL directory.
        let dir = tmpdir(&format!("{tag}_{}_ckpt", mode.name()));
        let every = CheckpointCfg { every_units: CADENCE, dir: Some(dir.clone()), resume: None };
        let full = campaign(dialect, f, mode, &off, every, &wal_a);
        check_features(&key, f, &full);
        let workers = if mode == Mode::ThreeWorkers { 3 } else { 1 };
        for w in 0..workers {
            truncate_checkpoints(&dir, w, 1);
        }
        let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
        assert!(resume.workers.iter().all(|w| w.seq == 1), "{key}: checkpoint 1 missing");
        for wal in [&wal_a, &wal_b] {
            let _ = std::fs::remove_dir_all(wal);
        }
        let again = CheckpointCfg { every_units: CADENCE, dir: None, resume: Some(resume) };
        let resumed = campaign(dialect, f, mode, &off, again, &wal_b);
        assert_eq!(full.deterministic_json(), resumed.deterministic_json(), "{key}: resume");
        if f.wal && mode == Mode::ThreeWorkers {
            for w in 0..3 {
                let wal = wal_b.join(format!("worker{w:02}.wal"));
                assert!(wal.exists(), "{key}: worker {w} kept no WAL");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);

        let pair = (run.deterministic_json(), full.deterministic_json());
        match mode {
            Mode::Serial => serial = Some(pair),
            Mode::OneWorker => assert_eq!(serial.as_ref(), Some(&pair), "{key}: not serial"),
            Mode::ThreeWorkers => {}
        }
        actual.push((format!("{key} run"), fnv64(&run.deterministic_json())));
        actual.push((format!("{key} ckpt"), fnv64(&full.deterministic_json())));
    }
    for dir in [&wal_a, &wal_b] {
        let _ = std::fs::remove_dir_all(dir);
    }
    check_fixture(&tag, &actual);
}

#[test]
fn postgres_plain() {
    cell(Dialect::Postgres, PLAIN);
}

#[test]
fn mysql_plain() {
    cell(Dialect::MySql, PLAIN);
}

#[test]
fn mariadb_plain() {
    cell(Dialect::MariaDb, PLAIN);
}

#[test]
fn comdb2_plain() {
    cell(Dialect::Comdb2, PLAIN);
}

#[test]
fn postgres_logic_oracles() {
    cell(Dialect::Postgres, LOGIC);
}

#[test]
fn mariadb_logic_oracles() {
    cell(Dialect::MariaDb, LOGIC);
}

#[test]
fn postgres_all_oracles_with_wal() {
    cell(Dialect::Postgres, DURABLE);
}

#[test]
fn mariadb_all_oracles_with_wal() {
    cell(Dialect::MariaDb, DURABLE);
}

#[test]
fn postgres_rule_cov() {
    cell(Dialect::Postgres, RULE_COV);
}

#[test]
fn mariadb_rule_cov() {
    cell(Dialect::MariaDb, RULE_COV);
}

#[test]
fn postgres_sema() {
    cell(Dialect::Postgres, SEMA);
}

#[test]
fn mariadb_sema() {
    cell(Dialect::MariaDb, SEMA);
}

#[test]
fn postgres_everything() {
    cell(Dialect::Postgres, EVERYTHING);
}

#[test]
fn mariadb_everything() {
    cell(Dialect::MariaDb, EVERYTHING);
}
