//! Table IV: the LEGO vs LEGO- ablation — type-affinities found and branches
//! covered per DBMS, alongside each dialect's statement-type inventory size.
//!
//! Paper shape: LEGO ahead on both metrics everywhere; improvements grow
//! with the statement-type count (+20% / +15% / +25% / +7% branches on
//! PostgreSQL / MySQL / MariaDB / Comdb2), with Comdb2's 24 types capping
//! its headroom.
//!
//! Usage: `table4_ablation [UNITS] [SEEDS] [--workers N] [--rule-cov]
//! [--sema] [--telemetry PATH] [--heartbeat] [--serve ADDR] [--trace PATH]
//! [--plot-data PATH] [--plot-every MS]` — the dialect×seed×variant cells
//! run across a worker pool; results are identical for any worker count.
//! With `--rule-cov` a third variant (LEGO plus grammar-rule coverage
//! feedback) joins the grid and the table gains its branch and rule-edge
//! columns — the ablation recipe from EXPERIMENTS.md §rule-coverage. With
//! `--sema` a variant running the static sequence analyzer joins
//! instead/as well, adding branch, static-reject and skipped-statement
//! columns — the ablation recipe from EXPERIMENTS.md §static-analysis.

use lego::campaign::{run_engine, Budget, CampaignSpec};
use lego::fuzzer::{Config, LegoFuzzer};
use lego_bench::grid::{run_grid, Cli, MONITOR};
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;

/// Cell variants, in grid order. `Rule` only joins under `--rule-cov`,
/// `Sema` under `--sema`.
#[derive(Clone, Copy, PartialEq)]
enum Variant {
    Minus,
    Lego,
    Rule,
    Sema,
}

#[derive(Serialize)]
struct Row {
    dialect: String,
    types: usize,
    affinities_minus: usize,
    affinities_lego: usize,
    affinity_increment: i64,
    branches_minus: usize,
    branches_lego: usize,
    branch_improvement_pct: f64,
    /// Mean branches of the rule-coverage variant (0 without `--rule-cov`).
    branches_rule: usize,
    /// Mean grammar-rule edges of the rule-coverage variant (0 without
    /// `--rule-cov`).
    rule_branches: usize,
    /// Mean branches of the static-analyzer variant (0 without `--sema`).
    branches_sema: usize,
    /// Mean statically-rejected statements of the static-analyzer variant
    /// (0 without `--sema`).
    sema_rejects: usize,
    /// Mean statements skipped before execution by the static-analyzer
    /// variant (0 without `--sema`).
    sema_skipped_stmts: usize,
    wall_ms: u64,
}

fn main() {
    let cli = Cli::parse(&["UNITS", "SEEDS"], &[&["--workers", "--rule-cov", "--sema"], MONITOR]);
    let units: usize = cli.arg(0, "UNITS", DAY_BUDGET_UNITS);
    let seeds: u64 = cli.arg(1, "SEEDS", 3);
    let mut variant_list = vec![Variant::Minus, Variant::Lego];
    if cli.rule_cov {
        variant_list.push(Variant::Rule);
    }
    if cli.sema {
        variant_list.push(Variant::Sema);
    }
    let variants: &[Variant] = &variant_list;
    println!(
        "Table IV — LEGO- vs LEGO ablation ({units} units, mean of {seeds} seeds, {} workers{}{})\n",
        cli.workers,
        if cli.rule_cov { ", +rule-cov variant" } else { "" },
        if cli.sema { ", +sema variant" } else { "" }
    );

    // The grid: (dialect, seed, variant) campaign cells in fixed order.
    let specs: Vec<(Dialect, u64, Variant)> = Dialect::ALL
        .into_iter()
        .flat_map(|d| (0..seeds).flat_map(move |s| variants.iter().map(move |&v| (d, s, v))))
        .collect();
    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let jobs: Vec<_> = specs
        .iter()
        .map(|&(dialect, s, variant)| {
            move || {
                let (rule_cov, sema) = (variant == Variant::Rule, variant == Variant::Sema);
                let cfg = Config {
                    rng_seed: DEFAULT_SEED + s * 7717,
                    rule_cov,
                    sema,
                    ..Config::default()
                };
                let mut engine = if variant == Variant::Minus {
                    LegoFuzzer::lego_minus(dialect, cfg)
                } else {
                    LegoFuzzer::new(dialect, cfg)
                };
                let spec = CampaignSpec {
                    rule_cov,
                    sema,
                    ..CampaignSpec::new(dialect, Budget::units(units))
                };
                run_engine(&spec, tel, &mut engine)
                    .expect("a campaign without checkpoints cannot fail")
            }
        })
        .collect();
    let stats = run_grid(jobs, cli.workers);
    guard.finish();

    let mut out = Vec::new();
    let mut rows = Vec::new();
    for dialect in Dialect::ALL {
        let mut acc = [0usize; 9]; // aff-, aff, br-, br, br+rule, rule-edges,
                                   // br+sema, sema-rejects, sema-skipped
        let mut wall_ms = 0u64;
        for (&(d, _, variant), s) in specs.iter().zip(&stats) {
            if d != dialect {
                continue;
            }
            match variant {
                Variant::Minus => {
                    acc[0] += s.corpus_affinities;
                    acc[2] += s.branches;
                }
                Variant::Lego => {
                    acc[1] += s.corpus_affinities;
                    acc[3] += s.branches;
                }
                Variant::Rule => {
                    acc[4] += s.branches;
                    acc[5] += s.rule_branches;
                }
                Variant::Sema => {
                    acc[6] += s.branches;
                    acc[7] += s.sema_rejects;
                    acc[8] += s.sema_skipped_stmts;
                }
            }
            wall_ms += s.wall_ms;
        }
        let n = seeds as usize;
        let (am, al, bm, bl) = (acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n);
        let row = Row {
            dialect: dialect.name().to_string(),
            types: dialect.statement_type_count(),
            affinities_minus: am,
            affinities_lego: al,
            affinity_increment: al as i64 - am as i64,
            branches_minus: bm,
            branches_lego: bl,
            branch_improvement_pct: pct_more(bl, bm),
            branches_rule: acc[4] / n,
            rule_branches: acc[5] / n,
            branches_sema: acc[6] / n,
            sema_rejects: acc[7] / n,
            sema_skipped_stmts: acc[8] / n,
            wall_ms,
        };
        let mut cells = vec![
            row.dialect.clone(),
            row.types.to_string(),
            row.affinities_minus.to_string(),
            row.affinities_lego.to_string(),
            format!("{:+}", row.affinity_increment),
            row.branches_minus.to_string(),
            row.branches_lego.to_string(),
            format!("{:+.0}%", row.branch_improvement_pct),
        ];
        if cli.rule_cov {
            cells.push(row.branches_rule.to_string());
            cells.push(row.rule_branches.to_string());
        }
        if cli.sema {
            cells.push(row.branches_sema.to_string());
            cells.push(row.sema_rejects.to_string());
            cells.push(row.sema_skipped_stmts.to_string());
        }
        rows.push(cells);
        out.push(row);
    }
    let mut headers = vec![
        "DBMS",
        "Types",
        "Aff(LEGO-)",
        "Aff(LEGO)",
        "Increment",
        "Br(LEGO-)",
        "Br(LEGO)",
        "Improvement",
    ];
    if cli.rule_cov {
        headers.push("Br(+rule)");
        headers.push("RuleEdges");
    }
    if cli.sema {
        headers.push("Br(+sema)");
        headers.push("SemaRejects");
        headers.push("SemaSkipped");
    }
    print_table(&headers, &rows);
    save_json("table4_ablation", &out);
}
