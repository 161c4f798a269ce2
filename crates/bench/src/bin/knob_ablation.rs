//! Design-knob ablation (DESIGN.md § 7): how LEGO's scheduling parameters
//! trade off against each other on MariaDB — synthesis cap per affinity,
//! conventional mutants per seed, and non-adjacent affinities.
//!
//! Usage: `knob_ablation [UNITS] [--workers N]` — one grid cell per knob
//! setting; results are identical for any worker count.

use lego::campaign::{run_engine, Budget, CampaignSpec};
use lego::fuzzer::{Config, LegoFuzzer};
use lego_bench::grid::{run_grid, Cli};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    knob: String,
    value: usize,
    branches: usize,
    affinities: usize,
    bugs: usize,
    wall_ms: u64,
}

type Mutation = Box<dyn Fn(&mut Config) + Send + Sync>;

fn main() {
    let cli = Cli::parse();
    let units: usize = cli.arg(0, DAY_BUDGET_UNITS / 2);
    println!("Design-knob ablation on MariaDB ({units} units per cell, {} workers)\n", cli.workers);

    let mut specs: Vec<(String, usize, Mutation)> = Vec::new();
    for v in [12usize, 48, 128] {
        specs.push((
            "synth_limit_per_affinity".into(),
            v,
            Box::new(move |c| c.synth_limit_per_affinity = v),
        ));
    }
    for v in [2usize, 6, 12] {
        specs.push((
            "conventional_per_seed".into(),
            v,
            Box::new(move |c| c.conventional_per_seed = v),
        ));
    }
    specs.push(("baseline".into(), 0, Box::new(|_| {})));
    specs.push(("nonadjacent_affinities".into(), 0, Box::new(|c| c.nonadjacent_affinities = true)));

    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let jobs: Vec<_> = specs
        .iter()
        .map(|(_, _, mutate)| {
            move || {
                let mut cfg = Config { rng_seed: DEFAULT_SEED, ..Config::default() };
                mutate(&mut cfg);
                let mut fz = LegoFuzzer::new(Dialect::MariaDb, cfg);
                let spec = CampaignSpec::new(Dialect::MariaDb, Budget::units(units));
                run_engine(&spec, tel, &mut fz).expect("a campaign without checkpoints cannot fail")
            }
        })
        .collect();
    let stats = run_grid(jobs, cli.workers);
    guard.finish();

    let mut out = Vec::new();
    let mut rows = Vec::new();
    for ((knob, value, _), s) in specs.iter().zip(&stats) {
        let shown_value = if *value == 0 { "-".to_string() } else { value.to_string() };
        rows.push(vec![
            knob.clone(),
            shown_value,
            s.branches.to_string(),
            s.corpus_affinities.to_string(),
            s.bugs.len().to_string(),
        ]);
        out.push(Row {
            knob: knob.clone(),
            value: *value,
            branches: s.branches,
            affinities: s.corpus_affinities,
            bugs: s.bugs.len(),
            wall_ms: s.wall_ms,
        });
    }
    print_table(&["knob", "value", "branches", "affinities", "bugs"], &rows);
    save_json("knob_ablation", &out);
}
