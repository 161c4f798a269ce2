//! Table III: number of (deduplicated) bugs triggered by each fuzzer within
//! one budgeted campaign.
//!
//! Paper: SQLancer 0, SQLsmith 0, SQUIRREL 11 (3 MySQL + 8 MariaDB), LEGO 52
//! (2 / 11 / 32 / 7). Expected shape: LEGO ≫ SQUIRREL > SQLancer = SQLsmith
//! = 0, with SQUIRREL's finds confined to MySQL/MariaDB.
//!
//! Usage: `table3_bugs [UNITS] [--workers N] [--telemetry PATH]
//! [--heartbeat] [--serve ADDR] [--trace PATH] [--plot-data PATH]
//! [--plot-every MS]` — the fuzzer×dialect cells run across a worker pool;
//! results are identical for any worker count.

use lego::campaign::{Budget, CampaignSpec};
use lego_bench::grid::{run_grid, Cli, MONITOR};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    dialect: String,
    fuzzer: String,
    bugs: usize,
    wall_ms: u64,
    execs_per_sec: f64,
    identifiers: Vec<String>,
}

const FUZZER_ORDER: [&str; 4] = ["SQLancer", "SQLsmith", "SQUIRREL", "LEGO"];

fn main() {
    let cli = Cli::parse(&["UNITS"], &[&["--workers"], MONITOR]);
    let units: usize = cli.arg(0, "UNITS", DAY_BUDGET_UNITS);
    println!(
        "Table III — bugs triggered in one budgeted campaign ({units} units, {} workers)\n",
        cli.workers
    );

    let pairs: Vec<(Dialect, &str)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| {
            FUZZER_ORDER
                .into_iter()
                .filter(move |&f| f != "SQLsmith" || d == Dialect::Postgres)
                .map(move |f| (d, f))
        })
        .collect();
    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let jobs: Vec<_> = pairs
        .iter()
        .map(|&(dialect, fuzzer)| {
            move || {
                campaign(
                    fuzzer,
                    &CampaignSpec::new(dialect, Budget::units(units)),
                    DEFAULT_SEED,
                    tel,
                )
            }
        })
        .collect();
    let stats = run_grid(jobs, cli.workers);
    guard.finish();

    let cells: Vec<Cell> = pairs
        .iter()
        .zip(&stats)
        .map(|(&(dialect, fuzzer), s)| Cell {
            dialect: dialect.name().to_string(),
            fuzzer: fuzzer.to_string(),
            bugs: s.bugs.len(),
            wall_ms: s.wall_ms,
            execs_per_sec: s.execs_per_sec,
            identifiers: s.bugs.iter().map(|b| b.crash.identifier.clone()).collect(),
        })
        .collect();

    let mut rows = Vec::new();
    let mut totals = std::collections::BTreeMap::new();
    for dialect in Dialect::ALL {
        let mut row = vec![dialect.name().to_string()];
        for fuzzer in FUZZER_ORDER {
            if fuzzer == "SQLsmith" && dialect != Dialect::Postgres {
                row.push("-".into());
                continue;
            }
            let cell = cells
                .iter()
                .find(|c| c.dialect == dialect.name() && c.fuzzer == fuzzer)
                .expect("cell ran");
            row.push(cell.bugs.to_string());
            *totals.entry(fuzzer.to_string()).or_insert(0usize) += cell.bugs;
        }
        rows.push(row);
    }
    rows.push(vec![
        "Total".into(),
        totals.get("SQLancer").copied().unwrap_or(0).to_string(),
        totals.get("SQLsmith").copied().unwrap_or(0).to_string(),
        totals.get("SQUIRREL").copied().unwrap_or(0).to_string(),
        totals.get("LEGO").copied().unwrap_or(0).to_string(),
    ]);
    print_table(&["DBMS", "SQLancer", "SQLsmith", "SQUIRREL", "LEGO"], &rows);
    save_json("table3_bugs", &cells);
}
