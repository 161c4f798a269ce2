//! Table II: number of type-affinities contained in the test cases each
//! fuzzer generated within the budget.
//!
//! Paper totals: SQLancer 770, SQUIRREL 119, LEGO 3707 — the expected shape
//! is LEGO ≫ SQLancer > SQUIRREL, with SQLsmith excluded because its
//! generated test cases contain a single statement.

use lego::campaign::{Budget, CampaignSpec};
use lego_bench::grid::{run_grid, Cli};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dialect: String,
    sqlancer: usize,
    squirrel: usize,
    lego: usize,
    wall_ms: u64,
}

fn main() {
    let cli = Cli::parse();
    let units: usize = cli.arg(0, DAY_BUDGET_UNITS);
    println!(
        "Table II — type-affinities in generated seeds ({units} units, {} workers)\n",
        cli.workers
    );

    let specs: Vec<(Dialect, &str)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| ["SQLancer", "SQUIRREL", "LEGO"].into_iter().map(move |f| (d, f)))
        .collect();
    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let jobs: Vec<_> = specs
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

    let mut out = Vec::new();
    let mut rows = Vec::new();
    let (mut t_sqlancer, mut t_squirrel, mut t_lego) = (0usize, 0usize, 0usize);
    for (i, dialect) in Dialect::ALL.into_iter().enumerate() {
        let cell = |j: usize| &stats[i * 3 + j];
        let (sqlancer, squirrel, lego) =
            (cell(0).corpus_affinities, cell(1).corpus_affinities, cell(2).corpus_affinities);
        let wall_ms = (0..3).map(|j| cell(j).wall_ms).sum();
        t_sqlancer += sqlancer;
        t_squirrel += squirrel;
        t_lego += lego;
        rows.push(vec![
            dialect.name().to_string(),
            sqlancer.to_string(),
            squirrel.to_string(),
            lego.to_string(),
        ]);
        out.push(Row { dialect: dialect.name().to_string(), sqlancer, squirrel, lego, wall_ms });
    }
    rows.push(vec![
        "Total".into(),
        t_sqlancer.to_string(),
        t_squirrel.to_string(),
        t_lego.to_string(),
    ]);
    rows.push(vec![
        "Increment (LEGO -)".into(),
        (t_lego.saturating_sub(t_sqlancer)).to_string(),
        (t_lego.saturating_sub(t_squirrel)).to_string(),
        "-".into(),
    ]);
    print_table(&["DBMS", "SQLancer", "SQUIRREL", "LEGO"], &rows);
    println!("\n(SQLsmith excluded: one statement per test case, hence zero affinities.)");
    save_json("table2_affinities", &out);
}
