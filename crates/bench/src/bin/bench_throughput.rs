//! Campaign throughput measurement: executions per second for the serial
//! path and the sharded parallel path, plus the resulting speedup and a
//! per-stage wall-clock profile of each run.
//!
//! Usage: `bench_throughput [UNITS] [--workers N] [--telemetry PATH]
//! [--heartbeat]`. Writes `BENCH_throughput.json` at the repository root.
//! With `--telemetry ev.jsonl` the serial and parallel event streams land at
//! `ev.serial.jsonl` and `ev.parallel.jsonl`.

use lego::campaign::{Budget, CampaignSpec, ParallelOpts};
use lego::observe::{StageProfile, Telemetry};
use lego_bench::grid::Cli;
use lego_bench::*;
use lego_sqlast::Dialect;
use serde::Serialize;
use std::path::Path;

#[derive(Serialize)]
struct Run {
    workers: usize,
    execs: usize,
    units: usize,
    branches: usize,
    wall_ms: u64,
    execs_per_sec: f64,
    stage_profile: Option<StageProfile>,
}

#[derive(Serialize)]
struct Report {
    dialect: String,
    fuzzer: String,
    budget_units: usize,
    serial: Run,
    parallel: Run,
    speedup: f64,
}

fn run_of(s: &lego::campaign::CampaignStats) -> Run {
    Run {
        workers: s.workers,
        execs: s.execs,
        units: s.units,
        branches: s.branches,
        wall_ms: s.wall_ms,
        execs_per_sec: s.execs_per_sec,
        stage_profile: s.stage_profile.clone(),
    }
}

/// One fresh telemetry handle per measured run: stage accumulators are
/// cumulative per handle, so serial and parallel must not share one. With
/// no telemetry flags the handle still profiles (events discarded).
fn run_telemetry(cli: &Cli, tag: &str, workers: usize) -> (Telemetry, Option<TelemetryGuard>) {
    if cli.telemetry.is_none() && !cli.heartbeat {
        return (Telemetry::profile_only(), None);
    }
    let guard = build_monitored(MonitorOpts {
        event_log: cli
            .telemetry
            .as_ref()
            .map(|p| Path::new(p).with_extension(format!("{tag}.jsonl"))),
        workers,
        ..MonitorOpts::from_cli(cli, DEFAULT_SEED)
    });
    (guard.tel.clone(), Some(guard))
}

fn profiled(cli: &Cli, tag: &str, units: usize, workers: usize) -> lego::campaign::CampaignStats {
    let dialect = Dialect::Postgres;
    let (tel, guard) = run_telemetry(cli, tag, workers);
    let spec = CampaignSpec {
        parallel: ParallelOpts { workers },
        ..CampaignSpec::new(dialect, Budget::units(units))
    };
    let stats = campaign("LEGO", &spec, DEFAULT_SEED, &tel);
    if let Some(mut g) = guard {
        g.finish();
    }
    stats
}

fn print_profile(label: &str, profile: &Option<StageProfile>) {
    let Some(p) = profile else { return };
    let line = p
        .stages
        .iter()
        .filter(|s| s.total_ms > 0.0 || s.share_pct > 0.0)
        .map(|s| format!("{} {:.0}%", s.stage, s.share_pct))
        .collect::<Vec<_>>()
        .join(", ");
    println!("  {label} stage profile: {line}");
}

fn main() {
    let cli = Cli::parse(&["UNITS"], &[&["--workers", "--telemetry", "--heartbeat"]]);
    let units: usize = cli.arg(0, "UNITS", 200_000);
    let workers = cli.workers.max(2);
    let dialect = Dialect::Postgres;

    println!("Campaign throughput — LEGO on {} ({units} units)\n", dialect.name());
    let serial = profiled(&cli, "serial", units, 1);
    println!(
        "  serial   : {:>8} execs in {:>6} ms  ({:>8.0} execs/s)",
        serial.execs, serial.wall_ms, serial.execs_per_sec
    );
    let parallel = profiled(&cli, "parallel", units, workers);
    println!(
        "  {}-worker : {:>8} execs in {:>6} ms  ({:>8.0} execs/s)",
        workers, parallel.execs, parallel.wall_ms, parallel.execs_per_sec
    );
    print_profile("serial", &serial.stage_profile);
    print_profile("parallel", &parallel.stage_profile);

    let speedup = if serial.execs_per_sec > 0.0 {
        parallel.execs_per_sec / serial.execs_per_sec
    } else {
        0.0
    };
    println!("\n  throughput speedup at {workers} workers: {speedup:.2}x");

    let report = Report {
        dialect: dialect.name().to_string(),
        fuzzer: "LEGO".into(),
        budget_units: units,
        serial: run_of(&serial),
        parallel: run_of(&parallel),
        speedup,
    };
    let path = repo_root().join("BENCH_throughput.json");
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    println!("\n[report written to {}]", path.display());
}
