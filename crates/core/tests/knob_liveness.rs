//! Every `Config` knob changes a campaign, or it goes.
//!
//! Each field of [`Config`] has one row below that sets it to an
//! alternative value. The row must change the
//! [`CampaignStats::deterministic_json`] of a plain serial campaign on at
//! least one dialect. The field list is read from the serialized form of
//! `Config::default()`, so a new knob fails this test until it registers a
//! row — and a knob whose every setting gives the same campaign is an
//! option nobody can observe.
//!
//! [`CampaignStats::deterministic_json`]: lego::campaign::CampaignStats::deterministic_json

use lego::campaign::{run_engine, Budget, CampaignSpec};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::observe::Telemetry;
use lego_sqlast::Dialect;

/// The determinism matrix's budget: large enough for every knob to act.
const BUDGET: Budget = Budget { units: 3_000, snapshots: 10 };

type Row = (&'static str, fn(&mut Config));

/// One alternative value per `Config` field.
const ROWS: &[Row] = &[
    ("max_seq_len", |c| c.max_seq_len = 3),
    ("synth_limit_per_affinity", |c| c.synth_limit_per_affinity = 12),
    ("conventional_per_seed", |c| c.conventional_per_seed = 2),
    ("mutation_stack", |c| c.mutation_stack = 3),
    ("seq_mutation", |c| c.seq_mutation = false),
    ("sequence_oriented", |c| c.sequence_oriented = false),
    ("max_case_len", |c| c.max_case_len = 4),
    ("nonadjacent_affinities", |c| c.nonadjacent_affinities = true),
    ("rng_seed", |c| c.rng_seed = 1),
    ("rule_cov", |c| c.rule_cov = true),
    ("sema", |c| c.sema = true),
];

fn report(dialect: Dialect, cfg: Config) -> String {
    let spec = CampaignSpec::new(dialect, BUDGET);
    let mut engine = LegoFuzzer::new(dialect, cfg);
    run_engine(&spec, &Telemetry::disabled(), &mut engine)
        .expect("a campaign without checkpoints cannot fail")
        .deterministic_json()
}

#[test]
fn every_config_field_has_a_row() {
    let json = serde_json::to_string(&Config::default()).expect("config serialize");
    let value = serde_json::from_str(&json).expect("config JSON parses");
    let fields: Vec<&str> = value
        .as_object()
        .expect("Config serializes as an object")
        .keys()
        .map(String::as_str)
        .collect();
    let rows: Vec<&str> = ROWS.iter().map(|(name, _)| *name).collect();
    let unregistered: Vec<&str> = fields.iter().copied().filter(|f| !rows.contains(f)).collect();
    assert!(unregistered.is_empty(), "Config fields without a knob-liveness row: {unregistered:?}");
    let stale: Vec<&str> = rows.iter().copied().filter(|r| !fields.contains(r)).collect();
    assert!(stale.is_empty(), "knob-liveness rows for fields Config no longer has: {stale:?}");
}

#[test]
fn every_knob_changes_a_campaign() {
    let base: Vec<String> = Dialect::ALL.iter().map(|&d| report(d, Config::default())).collect();
    let dead: Vec<&str> = ROWS
        .iter()
        .filter(|(_, set)| {
            !Dialect::ALL.iter().zip(&base).any(|(&dialect, base)| {
                let mut cfg = Config::default();
                set(&mut cfg);
                report(dialect, cfg) != *base
            })
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(dead.is_empty(), "Config knobs that leave every plain campaign unchanged: {dead:?}");
}
