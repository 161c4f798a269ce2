//! Behaviour of the grammar-rule coverage dimension (`--rule-cov`):
//! * **On steers** — rule novelty admits corpus entries the branch map and
//!   sequence feedback alone reject.
//! * **The tracer is exact** — the campaign's per-statement cache gives the
//!   verdict and map of a whole-case traced parse on every generated case.
//!
//! That the flag is free when off and deterministic when on (reruns, one
//! worker vs serial, N workers, resume) is pinned by `campaign_matrix.rs`.

use lego::campaign::{run_engine, Budget, CampaignSpec, FuzzEngine};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_coverage::CovRecorder;
use lego_dbms::ExecReport;
use lego_sqlast::{Dialect, TestCase};
use lego_sqlparser::{parse_script_traced, RuleTracer};
use std::collections::HashSet;
use std::sync::Arc;

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
    let spec = CampaignSpec { rule_cov, ..CampaignSpec::new(dialect, budget) };
    run_engine(&spec, &Telemetry::disabled(), engine).expect("campaign completes")
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
