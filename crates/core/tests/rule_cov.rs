//! Contracts of the grammar-rule coverage dimension (`--rule-cov`).
//!
//! The tentpole promises:
//! * **Off is free** — with `rule_cov == false` the `_full` entry points are
//!   byte-identical to the pre-existing `_durable` paths (same exploration
//!   order, same findings, same deterministic report).
//! * **On is deterministic** — serial reruns, `workers == 1` vs serial, and
//!   N-worker reruns are byte-identical; checkpoint/resume reproduces the
//!   uninterrupted run; resuming under a flipped flag is rejected.
//! * **On steers** — rule novelty admits corpus entries the branch map and
//!   sequence feedback alone reject.
//! * **The tracer is exact** — the campaign's per-statement cache gives the
//!   verdict and map of a whole-case traced parse on every generated case.

use lego::campaign::{
    run_campaign_durable, run_campaign_full, run_campaign_parallel_durable,
    run_campaign_parallel_full, Budget, FuzzEngine, ParallelOpts,
};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_coverage::CovRecorder;
use lego_dbms::ExecReport;
use lego_oracle::OracleConfig;
use lego_sqlast::{Dialect, TestCase};
use lego_sqlparser::{parse_script_traced, RuleTracer};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lego_rule_cov_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serial PostgreSQL campaign with the rule-coverage flag, everything else
/// disabled.
fn serial(engine: &mut dyn FuzzEngine, rule_cov: bool) -> lego::CampaignStats {
    serial_on(engine, Dialect::Postgres, Budget::units(20_000), rule_cov)
}

fn serial_on(
    engine: &mut dyn FuzzEngine,
    dialect: Dialect,
    budget: Budget,
    rule_cov: bool,
) -> lego::CampaignStats {
    run_campaign_full(
        engine,
        dialect,
        budget,
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg::disabled(),
        None,
        rule_cov,
    )
    .expect("campaign without checkpointing cannot fail")
}

fn factory(base_seed: u64, rule_cov: bool) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, rule_cov, ..Config::default() };
        Box::new(LegoFuzzer::new(Dialect::Postgres, cfg))
    }
}

#[test]
fn off_flag_is_byte_identical_to_the_durable_path() {
    let cfg = Config { rng_seed: 0x1e60, ..Config::default() };
    let mut a = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let durable = run_campaign_durable(
        &mut a,
        Dialect::Postgres,
        Budget::units(20_000),
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg::disabled(),
        None,
    )
    .unwrap();
    let mut b = LegoFuzzer::new(Dialect::Postgres, cfg);
    let full_off = serial(&mut b, false);
    assert_eq!(
        durable.deterministic_json(),
        full_off.deterministic_json(),
        "rule_cov=false must be byte-identical to the pre-existing path"
    );
    assert_eq!(full_off.rule_branches, 0, "no rule map is kept when the dimension is off");
}

#[test]
fn rule_cov_campaigns_are_deterministic_and_cover_rules() {
    let run = || {
        let cfg = Config { rng_seed: 0x121e, rule_cov: true, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
        serial(&mut engine, true)
    };
    let a = run();
    let b = run();
    assert_eq!(a.deterministic_json(), b.deterministic_json(), "serial rerun diverged");
    assert!(a.rule_branches > 10, "rule map barely populated: {}", a.rule_branches);
}

#[test]
fn workers1_parallel_full_is_byte_identical_to_serial_full() {
    let cfg = Config { rng_seed: 0x5eed, rule_cov: true, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
    let serial_stats = serial(&mut engine, true);
    let parallel = run_campaign_parallel_full(
        factory(0x5eed, true),
        Dialect::Postgres,
        Budget::units(20_000),
        ParallelOpts { workers: 1, sync_every: 4 },
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg::disabled(),
        None,
        true,
    )
    .unwrap();
    assert_eq!(serial_stats.deterministic_json(), parallel.deterministic_json());
}

#[test]
fn three_worker_rule_cov_rerun_is_byte_identical() {
    let run = |rule_cov: bool| {
        run_campaign_parallel_full(
            factory(42, rule_cov),
            Dialect::Postgres,
            Budget::units(24_000),
            ParallelOpts { workers: 3, sync_every: 4 },
            &Telemetry::disabled(),
            OracleConfig::disabled(),
            &CheckpointCfg::disabled(),
            None,
            rule_cov,
        )
        .unwrap()
    };
    let a = run(true);
    let b = run(true);
    assert_eq!(a.deterministic_json(), b.deterministic_json(), "3-worker rerun diverged");
    assert!(a.rule_branches > 10, "merged rule map barely populated: {}", a.rule_branches);
    // And the off flag stays identical to the pre-existing parallel path.
    let off = run(false);
    let durable = run_campaign_parallel_durable(
        factory(42, false),
        Dialect::Postgres,
        Budget::units(24_000),
        ParallelOpts { workers: 3, sync_every: 4 },
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg::disabled(),
        None,
    )
    .unwrap();
    assert_eq!(off.deterministic_json(), durable.deterministic_json());
}

/// Wraps LEGO and records every case with the campaign's admit verdict, so
/// two campaigns' admission streams can be compared case by case.
struct Recording {
    inner: LegoFuzzer,
    log: Vec<(Arc<TestCase>, bool)>,
}

impl Recording {
    fn new(dialect: Dialect, cfg: Config) -> Self {
        Self { inner: LegoFuzzer::new(dialect, cfg), log: Vec::new() }
    }
}

impl FuzzEngine for Recording {
    fn name(&self) -> &'static str {
        "recording"
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        self.inner.next_case()
    }
    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.log.push((Arc::clone(case), new_coverage));
        self.inner.feedback(case, report, new_coverage);
    }
    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        self.inner.rule_feedback(case, new_rule_edges);
    }
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
}

#[test]
fn rule_novelty_admits_cases_the_branch_map_alone_rejects() {
    // Same engine seed and engine-side config (rule_cov off in BOTH engines,
    // so the generated case streams are identical up to the first divergent
    // admission): the only difference is the campaign-level rule map.
    let cfg = Config { rng_seed: 0xad17, ..Config::default() };
    let mut off = Recording::new(Dialect::Postgres, cfg.clone());
    let _ = serial(&mut off, false);
    let mut on = Recording::new(Dialect::Postgres, cfg);
    let stats_on = serial(&mut on, true);
    assert!(stats_on.rule_branches > 0);

    // Walk the common prefix: identical cases, identical verdicts — until
    // the rule map admits a case the branch map rejected. After that point
    // the corpora (and therefore the case streams) legitimately diverge.
    let mut diverged = None;
    for (i, (a, b)) in off.log.iter().zip(on.log.iter()).enumerate() {
        assert_eq!(a.0, b.0, "case streams diverged before any admission did (exec {i})");
        if a.1 != b.1 {
            diverged = Some((i, a.1, b.1));
            break;
        }
    }
    let (exec, off_verdict, on_verdict) =
        diverged.expect("rule coverage never changed an admission verdict within the budget");
    assert!(
        !off_verdict && on_verdict,
        "first divergence at exec {exec} must be a rule-novelty admit (off={off_verdict}, on={on_verdict})"
    );
}

#[test]
fn rule_tracer_matches_whole_case_parses_on_generated_cases() {
    // One long-lived tracer over thousands of cases of every dialect, so
    // cache hits, misses and evictions all occur. Each case's verdict and
    // full counts array must equal the reference's: print the whole case
    // and parse it traced.
    let mut tracer = RuleTracer::new();
    let (mut looked_up, mut distinct) = (0u64, HashSet::new());
    for dialect in Dialect::ALL {
        let cfg = Config { rng_seed: 0x1e60, rule_cov: true, ..Config::default() };
        let mut engine = Recording::new(dialect, cfg);
        serial_on(&mut engine, dialect, Budget::execs(3000), true);
        assert!(engine.log.len() >= 3000, "{dialect:?}: {} cases", engine.log.len());
        for (n, (case, _)) in engine.log.iter().enumerate() {
            let sql = case.to_sql();
            let (parsed, want) = parse_script_traced(&sql, CovRecorder::new());
            let got = tracer.trace(&case.statements);
            assert_eq!(got.is_some(), parsed.is_ok(), "{dialect:?} case {n}, verdict:\n{sql}");
            if let Some(got) = got {
                assert!(got.counts() == want.counts(), "{dialect:?} case {n}, rule map:\n{sql}");
                looked_up += case.statements.len() as u64;
            }
            distinct.extend(case.statements.iter().map(|s| s.to_string()));
        }
    }
    assert!(tracer.misses() < looked_up, "no statement was served from the cache");
    assert!(tracer.misses() > distinct.len() as u64, "no statement was evicted and parsed again");
}

fn truncate_checkpoints(dir: &std::path::Path, worker: usize, keep: usize) {
    for seq in (keep + 1).. {
        let path = dir.join(format!("worker{worker:02}_ckpt{seq:04}.json"));
        if !path.exists() {
            break;
        }
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn serial_rule_cov_resume_is_byte_identical() {
    let dir = tmpdir("resume");
    let budget = Budget::units(20_000);
    let cadence = 6_000;
    let cfg = Config { rng_seed: 0x1e60, rule_cov: true, ..Config::default() };

    let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let full = run_campaign_full(
        &mut engine,
        Dialect::Postgres,
        budget,
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg { every_units: cadence, dir: Some(dir.clone()), resume: None },
        None,
        true,
    )
    .expect("full run completes");

    truncate_checkpoints(&dir, 0, 1);
    let resume = load_campaign_checkpoint(&dir).expect("checkpoint loads");
    assert!(resume.meta.rule_cov, "meta must record the rule-coverage flag");
    assert!(
        !resume.workers[0].rule_coverage.is_empty(),
        "worker checkpoint must persist the rule map"
    );

    // Resuming under the opposite flag would change the exploration order;
    // the campaign must refuse rather than silently diverge.
    let mut wrong = LegoFuzzer::new(Dialect::Postgres, cfg.clone());
    let err = run_campaign_full(
        &mut wrong,
        Dialect::Postgres,
        budget,
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
        None,
        false,
    )
    .expect_err("flag mismatch must be rejected");
    assert!(err.contains("rule_cov"), "unhelpful mismatch error: {err}");

    let resume = load_campaign_checkpoint(&dir).expect("checkpoint reloads");
    let mut fresh = LegoFuzzer::new(Dialect::Postgres, cfg);
    let resumed = run_campaign_full(
        &mut fresh,
        Dialect::Postgres,
        budget,
        &Telemetry::disabled(),
        OracleConfig::disabled(),
        &CheckpointCfg { every_units: cadence, dir: None, resume: Some(resume) },
        None,
        true,
    )
    .expect("resumed run completes");
    assert_eq!(
        full.deterministic_json(),
        resumed.deterministic_json(),
        "rule-cov resume diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
