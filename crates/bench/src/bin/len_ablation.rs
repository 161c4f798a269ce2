//! The § VI sequence-length experiment: LEGO on MariaDB with `LEN` set to
//! 3, 5, and 8.
//!
//! Paper: 30 / 35 / 27 bugs — cutting the length misses some bugs, while
//! increasing it also loses bugs to performance degradation. Expected shape:
//! a peak at LEN = 5.
//!
//! Usage: `len_ablation [UNITS] [SEEDS] [--workers N] [--telemetry PATH]
//! [--heartbeat] [--serve ADDR] [--trace PATH] [--plot-data PATH]
//! [--plot-every MS]` — one grid cell per (LEN, seed) pair; results are
//! identical for any worker count.

use lego::campaign::{run_engine, Budget, CampaignSpec};
use lego::fuzzer::{Config, LegoFuzzer};
use lego_bench::grid::{run_grid, Cli, MONITOR};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    len: usize,
    bugs: usize,
    branches: usize,
    execs: usize,
    wall_ms: u64,
}

fn main() {
    let cli = Cli::parse(&["UNITS", "SEEDS"], &[&["--workers"], MONITOR]);
    let units: usize = cli.arg(0, "UNITS", CONTINUOUS_BUDGET_UNITS);
    let seeds: usize = cli.arg(1, "SEEDS", 2);
    println!(
        "§ VI length ablation — LEGO on MariaDB, LEN ∈ {{3, 5, 8}} ({seeds} x {units} units, {} workers)\n",
        cli.workers
    );

    let specs: Vec<(usize, usize)> =
        [3usize, 5, 8].into_iter().flat_map(|len| (0..seeds).map(move |s| (len, s))).collect();
    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let jobs: Vec<_> = specs
        .iter()
        .map(|&(len, s)| {
            move || {
                // The paper couples the seed-length budget to LEN.
                let cfg = Config {
                    max_seq_len: len,
                    max_case_len: len * 2,
                    rng_seed: DEFAULT_SEED + s as u64 * 7717,
                    ..Config::default()
                };
                let mut fz = LegoFuzzer::new(Dialect::MariaDb, cfg);
                let spec = CampaignSpec::new(Dialect::MariaDb, Budget::units(units));
                run_engine(&spec, tel, &mut fz).expect("a campaign without checkpoints cannot fail")
            }
        })
        .collect();
    let all_stats = run_grid(jobs, cli.workers);
    guard.finish();

    let mut out = Vec::new();
    let mut rows = Vec::new();
    for len in [3usize, 5, 8] {
        let mut ids = std::collections::BTreeSet::new();
        let mut branches = 0;
        let mut execs = 0;
        let mut wall_ms = 0;
        for (&(l, _), stats) in specs.iter().zip(&all_stats) {
            if l != len {
                continue;
            }
            for b in &stats.bugs {
                ids.insert(b.crash.identifier.clone());
            }
            branches = branches.max(stats.branches);
            execs += stats.execs;
            wall_ms += stats.wall_ms;
        }
        rows.push(vec![
            len.to_string(),
            ids.len().to_string(),
            branches.to_string(),
            execs.to_string(),
        ]);
        out.push(Row { len, bugs: ids.len(), branches, execs, wall_ms });
    }
    print_table(&["LEN", "Bugs", "Branches(max)", "Execs"], &rows);
    save_json("len_ablation", &out);
}
