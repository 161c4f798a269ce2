//! Table I: the continuous-fuzzing bug inventory.
//!
//! Runs LEGO with several RNG seeds and an extended budget per DBMS (the
//! stand-in for two weeks of continuous fuzzing) and reports the union of
//! deduplicated bugs, grouped by DBMS / component / bug type with their
//! identifiers — the same layout as the paper's Table I, which reports 102
//! bugs (PostgreSQL 6, MySQL 21, MariaDB 42, Comdb2 33) and 22 CVEs.

use lego::campaign::{Budget, CampaignSpec};
use lego_bench::grid::{run_grid, Cli};
use lego_bench::*;
use lego_dbms::bugs;
use lego_sqlast::Dialect;
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Serialize, Clone)]
struct Found {
    dialect: String,
    component: String,
    bug_type: String,
    identifier: String,
}

fn main() {
    let cli = Cli::parse();
    let units: usize = cli.arg(0, CONTINUOUS_BUDGET_UNITS);
    let seeds: usize = cli.arg(1, 3);
    println!(
        "Table I — continuous fuzzing with LEGO ({seeds} campaigns x {units} units per DBMS, {} workers)\n",
        cli.workers
    );
    // One campaign cell per (DBMS, seed) pair, fanned over the worker pool —
    // the paper runs each fuzzer instance in its own docker container on one
    // core.
    let specs: Vec<(Dialect, usize)> =
        Dialect::ALL.into_iter().flat_map(|d| (0..seeds).map(move |s| (d, s))).collect();
    let mut guard = build_telemetry(&cli, DEFAULT_SEED);
    let tel = &guard.tel;
    let oracles = cli.oracles;
    // Grid cells run concurrently in one process, so each gets its own WAL
    // subdirectory (the recovery oracle journals per worker index, and every
    // serial cell is worker 0). The WAL location never influences findings.
    let wal_base = oracles.recovery.then(|| {
        cli.wal_dir.as_ref().map(std::path::PathBuf::from).unwrap_or_else(|| {
            std::env::temp_dir().join(format!("lego-wal-{}", std::process::id()))
        })
    });
    let jobs: Vec<_> = specs
        .iter()
        .map(|&(dialect, s)| {
            let cell_wal = wal_base
                .as_ref()
                .map(|base| base.join(format!("{}_s{s}", dialect.name().to_lowercase())));
            move || {
                let spec = CampaignSpec {
                    oracles,
                    wal_dir: cell_wal,
                    ..CampaignSpec::new(dialect, Budget::units(units))
                };
                campaign("LEGO", &spec, DEFAULT_SEED + s as u64 * 7717, tel)
            }
        })
        .collect();
    let all_stats = run_grid(jobs, cli.workers);
    guard.finish();

    let mut found: Vec<Found> = Vec::new();
    let mut per: BTreeMap<String, std::collections::BTreeSet<String>> = BTreeMap::new();
    for (&(dialect, _), stats) in specs.iter().zip(&all_stats) {
        let ids = per.entry(dialect.name().to_string()).or_default();
        for b in &stats.bugs {
            if ids.insert(b.crash.identifier.clone()) {
                found.push(Found {
                    dialect: dialect.name().to_string(),
                    component: b.crash.component.name().to_string(),
                    bug_type: format!("{:?}", b.crash.bug_type).to_uppercase(),
                    identifier: b.crash.identifier.clone(),
                });
            }
        }
    }
    let per_dbms: BTreeMap<String, usize> = per.into_iter().map(|(k, v)| (k, v.len())).collect();

    // Group like the paper: DBMS + component -> type counts + identifiers.
    type Group = (BTreeMap<String, usize>, Vec<String>);
    let mut groups: BTreeMap<(String, String), Group> = BTreeMap::new();
    for f in &found {
        let e = groups.entry((f.dialect.clone(), f.component.clone())).or_default();
        *e.0.entry(f.bug_type.clone()).or_insert(0) += 1;
        e.1.push(f.identifier.clone());
    }
    let mut rows = Vec::new();
    for ((dbms, comp), (types, idents)) in &groups {
        let types_s = types.iter().map(|(t, n)| format!("{t}({n})")).collect::<Vec<_>>().join(", ");
        rows.push(vec![dbms.clone(), comp.clone(), types_s, idents.join(", ")]);
    }
    print_table(&["DBMS", "Component", "Bug Type and Number", "Identifier"], &rows);

    let total = found.len();
    let cves = found.iter().filter(|f| f.identifier.starts_with("CVE-")).count();
    println!(
        "\nFound {total} distinct bugs ({cves} CVE-identified) out of {} planted.",
        bugs::manifest().len()
    );
    if oracles.enabled() {
        let checks: usize = all_stats.iter().map(|s| s.oracle_checks).sum();
        let logic: usize = all_stats.iter().map(|s| s.logic_bugs.len()).sum();
        println!(
            "Correctness oracles: {checks} checks, {logic} wrong-result findings \
             (0 expected on the clean engine)."
        );
        if oracles.recovery {
            let durability: usize = all_stats.iter().map(|s| s.durability_bugs).sum();
            println!(
                "Durability: {durability} recovery findings (0 expected on the clean engine)."
            );
        }
    }
    for (d, n) in &per_dbms {
        let planted = match d.as_str() {
            "PostgreSQL" => 6,
            "MySQL" => 21,
            "MariaDB" => 42,
            _ => 33,
        };
        println!("  {d}: {n} / {planted}");
    }
    save_json("table1_bugs", &found);
}
