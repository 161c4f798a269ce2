//! Observability contracts: telemetry must describe the campaign without
//! perturbing it.
//!
//! The hard promise of `lego-observe` is that turning instrumentation on
//! changes nothing about what the fuzzer does — same cases, same coverage,
//! same bugs, byte-for-byte — and that the event stream itself is a
//! deterministic function of (seed, worker count).

use lego::campaign::{
    run_campaign, run_campaign_full, run_campaign_observed, run_campaign_parallel_observed, Budget,
    CampaignStats, FuzzEngine, ParallelOpts,
};
use lego::checkpoint::CheckpointCfg;
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, MetricsRegistry, Telemetry};
use lego::OracleConfig;
use lego_sqlast::Dialect;
use std::path::PathBuf;
use std::sync::Arc;

fn lego_factory(
    dialect: Dialect,
    base_seed: u64,
) -> impl Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync {
    move |worker| {
        let rng_seed = base_seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let cfg = Config { rng_seed, ..Config::default() };
        Box::new(LegoFuzzer::new(dialect, cfg))
    }
}

fn opts(workers: usize) -> ParallelOpts {
    ParallelOpts { workers, sync_every: 4 }
}

/// A fully-loaded telemetry handle plus its memory sink for inspection.
fn observed() -> (Telemetry, Arc<MemorySink>, Arc<MetricsRegistry>) {
    let mem = Arc::new(MemorySink::new());
    let metrics = Arc::new(MetricsRegistry::new());
    let tel = Telemetry::builder().sink(mem.clone()).metrics(metrics.clone()).seed(0x5eed).build();
    (tel, mem, metrics)
}

fn serial_stats(dialect: Dialect, seed: u64, budget: Budget, tel: &Telemetry) -> CampaignStats {
    let cfg = Config { rng_seed: seed, ..Config::default() };
    let mut engine = LegoFuzzer::new(dialect, cfg);
    run_campaign_observed(&mut engine, dialect, budget, tel)
}

#[test]
fn telemetry_does_not_perturb_serial_campaigns() {
    let budget = Budget::execs(150);
    for dialect in [Dialect::Postgres, Dialect::MariaDb] {
        let cfg = Config { rng_seed: 0x5eed, ..Config::default() };
        let mut engine = LegoFuzzer::new(dialect, cfg);
        let off = run_campaign(&mut engine, dialect, budget);
        let (tel, mem, _) = observed();
        let on = serial_stats(dialect, 0x5eed, budget, &tel);
        assert_eq!(
            off.deterministic_json(),
            on.deterministic_json(),
            "telemetry changed the campaign on {dialect:?}"
        );
        assert!(!mem.is_empty(), "enabled telemetry produced no events");
        // The profile rides on the observed stats only, outside the
        // deterministic section.
        assert!(off.stage_profile.is_none());
        assert!(on.stage_profile.is_some());
    }
}

#[test]
fn telemetry_does_not_perturb_parallel_campaigns() {
    let budget = Budget::units(30_000);
    let off = run_campaign_parallel_observed(
        lego_factory(Dialect::Postgres, 42),
        Dialect::Postgres,
        budget,
        opts(3),
        &Telemetry::disabled(),
    );
    let (tel, mem, _) = observed();
    let on = run_campaign_parallel_observed(
        lego_factory(Dialect::Postgres, 42),
        Dialect::Postgres,
        budget,
        opts(3),
        &tel,
    );
    assert_eq!(
        off.deterministic_json(),
        on.deterministic_json(),
        "telemetry changed the 3-worker campaign"
    );
    assert!(!mem.is_empty());
    assert!(on.stage_profile.is_some());
}

/// The merged event stream is a deterministic function of seed and worker
/// count: two identical runs produce byte-identical JSONL.
#[test]
fn event_stream_is_deterministic_per_worker_count() {
    for workers in [1usize, 3] {
        let run = || {
            let (tel, mem, _) = observed();
            let stats = run_campaign_parallel_observed(
                lego_factory(Dialect::Postgres, 7),
                Dialect::Postgres,
                Budget::units(20_000),
                opts(workers),
                &tel,
            );
            let lines: Vec<String> = mem.snapshot().iter().map(Event::to_json).collect();
            (stats, lines)
        };
        let (stats_a, a) = run();
        let (stats_b, b) = run();
        assert_eq!(a, b, "event stream diverged between identical runs at workers={workers}");
        assert_eq!(stats_a.deterministic_json(), stats_b.deterministic_json());
        assert!(!a.is_empty());
    }
}

#[test]
fn event_stream_is_consistent_with_stats() {
    let (tel, mem, metrics) = observed();
    let stats = run_campaign_parallel_observed(
        lego_factory(Dialect::MariaDb, 1),
        Dialect::MariaDb,
        Budget::units(40_000),
        opts(3),
        &tel,
    );
    let events = mem.snapshot();
    let ends: Vec<&Event> = events.iter().filter(|e| matches!(e, Event::ExecEnd { .. })).collect();
    assert_eq!(ends.len(), stats.execs, "one ExecEnd per executed case");
    let starts = events.iter().filter(|e| matches!(e, Event::ExecStart { .. })).count();
    assert_eq!(starts, stats.execs);

    // Statement-validity counters: the event stream, the stats and the
    // metrics registry all agree.
    let (mut ok, mut err) = (0u64, 0u64);
    for e in &events {
        if let Event::ExecEnd { ok: o, err: e2, statements, .. } = e {
            ok += o;
            err += e2;
            assert_eq!(o + e2, *statements, "ok + err covers every statement");
        }
    }
    assert_eq!(ok, stats.stmts_ok as u64);
    assert_eq!(err, stats.stmts_err as u64);
    assert!(stats.validity_pct() > 0.0 && stats.validity_pct() <= 100.0);
    assert_eq!(metrics.counter("lego_execs_total"), stats.execs as u64);
    assert_eq!(metrics.counter("lego_statements_ok_total"), stats.stmts_ok as u64);

    // Every reported bug surfaces in the event stream. Workers deduplicate
    // locally and the join deduplicates across workers, so the stream may
    // hold more BugFound events than the final report — but the set of
    // distinct stack hashes must match exactly.
    let mut hashes: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::BugFound { stack_hash, .. } => Some(*stack_hash),
            _ => None,
        })
        .collect();
    let raw = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    assert!(raw >= stats.bugs.len());
    assert_eq!(hashes.len(), stats.bugs.len(), "BugFound stack hashes != deduplicated bugs");

    // Operator attribution: every coverage-gain edge total is backed by at
    // least one gaining case, and the profile echoes the event stream.
    let profile = stats.stage_profile.expect("observed run profiles");
    let gained: u64 = profile.operator_gains.iter().map(|g| g.edges_gained).sum();
    let event_gain: u64 = events
        .iter()
        .filter_map(|e| match e {
            Event::CoverageGain { edges, .. } => Some(*edges),
            _ => None,
        })
        .sum();
    assert_eq!(gained, event_gain);
    assert!(gained > 0, "campaign gained no attributed edges");
    assert!(!profile.stages.is_empty());
}

#[test]
fn deterministic_json_strips_profile_but_keeps_validity() {
    let (tel, _mem, _) = observed();
    let stats = serial_stats(Dialect::Postgres, 3, Budget::execs(80), &tel);
    let json = stats.deterministic_json();
    // The key stays (serialized as null) but no timing data may survive.
    assert!(!json.contains("total_ms"), "timing leaked into deterministic stats");
    assert!(!json.contains("share_pct"));
    assert!(!json.contains("operator_gains"));
    assert!(json.contains("stmts_ok"), "validity counters are deterministic and must stay");
}

#[test]
fn mutation_is_charged_as_a_subset_of_generation() {
    let (tel, _mem, _) = observed();
    let stats = serial_stats(Dialect::Postgres, 7, Budget::execs(300), &tel);
    let profile = stats.stage_profile.expect("observed run profiles");
    let stage = |name: &str| profile.stages.iter().find(|s| s.stage == name).expect(name);
    let (mutation, generation) = (stage("mutation"), stage("generation"));
    assert!(mutation.calls > 0, "LEGO's mutation arm was never charged");
    assert!(
        mutation.total_ms <= generation.total_ms,
        "mutation {} ms is not inside generation {} ms",
        mutation.total_ms,
        generation.total_ms
    );
}

#[test]
fn rule_coverage_has_a_stage_of_its_own() {
    for rule_cov in [false, true] {
        let (tel, _mem, _) = observed();
        let cfg = Config { rng_seed: 11, rule_cov, ..Config::default() };
        let mut engine = LegoFuzzer::new(Dialect::Postgres, cfg);
        let stats = run_campaign_full(
            &mut engine,
            Dialect::Postgres,
            Budget::execs(300),
            &tel,
            OracleConfig::disabled(),
            &CheckpointCfg::disabled(),
            None,
            rule_cov,
        )
        .expect("campaign without checkpointing cannot fail");
        let profile = stats.stage_profile.expect("observed run profiles");
        let calls = |name: &str| profile.stages.iter().find(|s| s.stage == name).expect(name).calls;
        if rule_cov {
            // One trace per case whose branch coverage is merged.
            assert!(calls("rule_coverage") > 0, "rule coverage was never charged");
            assert_eq!(calls("rule_coverage"), calls("coverage_union"));
        } else {
            assert_eq!(calls("rule_coverage"), 0, "rule coverage charged while off");
        }
    }
}

#[test]
fn bug_artifacts_are_replayable_sql() {
    let dir =
        std::env::temp_dir().join(format!("lego-observe-test-{}", std::process::id())).join("bugs");
    let _ = std::fs::remove_dir_all(&dir);
    let tel = Telemetry::builder().bug_artifacts(dir.clone()).seed(1).build();
    let cfg = Config { rng_seed: 1, ..Config::default() };
    let mut engine = LegoFuzzer::new(Dialect::MariaDb, cfg);
    let stats = run_campaign_observed(&mut engine, Dialect::MariaDb, Budget::units(40_000), &tel);
    assert!(!stats.bugs.is_empty(), "campaign found no bugs to dump");
    let files: Vec<PathBuf> = std::fs::read_dir(dir.join("mariadb"))
        .expect("artifact dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), stats.bugs.len(), "one artifact per deduplicated bug");
    for f in &files {
        let body = std::fs::read_to_string(f).unwrap();
        assert!(body.starts_with("-- lego bug artifact\n"), "missing header in {f:?}");
        assert!(body.contains("-- dialect: mariadb\n"));
        let sql: String =
            body.lines().filter(|l| !l.starts_with("--")).collect::<Vec<_>>().join("\n");
        assert!(
            lego_sqlparser::parse_script(&sql).is_ok(),
            "artifact body is not replayable SQL: {f:?}"
        );
    }
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn metrics_exports_are_well_formed() {
    let (tel, _mem, metrics) = observed();
    serial_stats(Dialect::Postgres, 9, Budget::execs(120), &tel);
    let prom = metrics.prometheus_text();
    assert!(prom.lines().any(|l| l.starts_with("lego_execs_total ")));
    let json = metrics.json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"lego_execs_total\""));
}
