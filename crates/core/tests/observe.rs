//! Observability contracts: telemetry must describe the campaign it
//! watches. That it never perturbs the campaign, and that the event stream
//! is a deterministic function of (seed, worker count), is pinned by
//! `campaign_matrix.rs`.

use lego::campaign::ParallelOpts;
use lego::campaign::{run, run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::{Event, MemorySink, MetricsRegistry, Telemetry};
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
    run_engine(&CampaignSpec::new(dialect, budget), tel, &mut engine).expect("campaign completes")
}

#[test]
fn event_stream_is_consistent_with_stats() {
    let (tel, mem, metrics) = observed();
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers: 3 },
        ..CampaignSpec::new(Dialect::MariaDb, Budget::units(40_000))
    };
    let stats = run(&spec, &tel, lego_factory(Dialect::MariaDb, 1)).expect("campaign completes");
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
        let spec =
            CampaignSpec { rule_cov, ..CampaignSpec::new(Dialect::Postgres, Budget::execs(300)) };
        let stats = run_engine(&spec, &tel, &mut engine).expect("campaign completes");
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
    let stats = serial_stats(Dialect::MariaDb, 1, Budget::units(40_000), &tel);
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
