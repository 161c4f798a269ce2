//! Figure 9: branches covered by LEGO, SQUIRREL, SQLancer, and SQLsmith on
//! the four DBMSs over one "24-hour" budget.
//!
//! Expected shape (paper: LEGO covers 198% / 44% / 120% more branches than
//! SQLancer / SQLsmith / SQUIRREL on average): LEGO first everywhere, with
//! SQLsmith the strongest baseline on PostgreSQL.
//!
//! Usage: `fig9_coverage [UNITS] [--workers N]` — the fuzzer×dialect cells
//! run across a worker pool; results are identical for any worker count.

use lego::campaign::{Budget, CampaignSpec};
use lego_bench::grid::{run_grid, Cli};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

#[derive(Serialize)]
struct Fig9Cell {
    dialect: String,
    fuzzer: String,
    branches: usize,
    execs: usize,
    wall_ms: u64,
    execs_per_sec: f64,
    curve: Vec<(usize, usize)>,
}

fn main() {
    let cli = Cli::parse();
    let units: usize = cli.arg(0, DAY_BUDGET_UNITS);
    println!(
        "Figure 9 — branches covered in one budgeted campaign ({units} units ~ 24h, {} workers)\n",
        cli.workers
    );

    // The grid: every (dialect, fuzzer) campaign cell, in fixed order.
    let pairs: Vec<(Dialect, &str)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| fuzzer_names(d).into_iter().map(move |f| (d, f)))
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

    let cells: Vec<Fig9Cell> = pairs
        .iter()
        .zip(&stats)
        .map(|(&(dialect, fuzzer), s)| Fig9Cell {
            dialect: dialect.name().to_string(),
            fuzzer: fuzzer.to_string(),
            branches: s.branches,
            execs: s.execs,
            wall_ms: s.wall_ms,
            execs_per_sec: s.execs_per_sec,
            curve: s.coverage_curve.clone(),
        })
        .collect();

    let mut rows = Vec::new();
    for dialect in Dialect::ALL {
        let dcells: Vec<&Fig9Cell> = cells.iter().filter(|c| c.dialect == dialect.name()).collect();
        let mut row = vec![dialect.name().to_string()];
        row.extend(dcells.iter().map(|c| c.branches.to_string()));
        if dialect != Dialect::Postgres {
            row.push("-".into());
        }
        rows.push(row);
        let lego_branches =
            dcells.iter().find(|c| c.fuzzer == "LEGO").map(|c| c.branches).unwrap_or(0);
        for c in dcells.iter().filter(|c| c.fuzzer != "LEGO") {
            println!(
                "  {}: LEGO covers {:+.0}% vs {}",
                dialect.name(),
                pct_more(lego_branches, c.branches),
                c.fuzzer
            );
        }
    }
    println!();
    print_table(&["DBMS", "LEGO", "SQUIRREL", "SQLancer", "SQLsmith"], &rows);

    // ASCII coverage-over-time curves per DBMS (the figure itself).
    for dialect in Dialect::ALL {
        println!("\n{} — branches over statement units:", dialect.name());
        let dcells: Vec<&Fig9Cell> = cells.iter().filter(|c| c.dialect == dialect.name()).collect();
        let max = dcells.iter().map(|c| c.branches).max().unwrap_or(1).max(1);
        for c in dcells {
            let bar = "#".repeat((c.branches * 50 / max).max(1));
            println!("  {:<9} {:>7} {}", c.fuzzer, c.branches, bar);
        }
    }
    save_json("fig9_coverage", &cells);
}
