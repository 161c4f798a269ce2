//! `lego-cli` — drive the fuzzer from the command line.
//!
//! ```text
//! lego_cli fuzz <pg|mysql|maria|comdb2> [--fuzzer NAME] [--units N] [--seed S]
//!               [--out DIR] [--corpus DIR]   # --corpus: resume from saved seeds
//!               [--rule-cov]                 # grammar-rule coverage feedback
//!               [--sema]                     # static sequence analyzer
//!               [--telemetry PATH] [--heartbeat] [--oracles[=LIST]] [--wal-dir DIR]
//!               [--serve ADDR] [--trace PATH] [--plot-data PATH] [--plot-every MS]
//!               [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]
//! lego_cli replay <pg|mysql|maria|comdb2> <script.sql>
//! lego_cli reduce <pg|mysql|maria|comdb2> <script.sql>
//! lego_cli bugs  [pg|mysql|maria|comdb2]
//! ```
//!
//! Every subcommand parses its arguments with [`lego_bench::grid::Cli`];
//! `replay`, `reduce` and `bugs` take no flags. `--seed` takes decimal or
//! `0x` hex. A flag the subcommand does not take, one positional argument
//! too many, a flag given without its value, a numeric flag whose value
//! does not parse, `--checkpoint-every 0`, an empty `--out`, an unknown
//! `--fuzzer`, `--corpus` with another fuzzer than LEGO, or `--checkpoint`
//! together with `--resume` exits with status 2 before any campaign starts.
//!
//! `--telemetry PATH` (or `LEGO_TELEMETRY`) streams structured events to
//! `PATH` as JSONL and writes metrics exports next to it; `--heartbeat`
//! prints a ~1 Hz live status line to stderr.
//!
//! `--serve ADDR` (or `LEGO_SERVE`) starts the live monitoring HTTP server
//! (`/metrics` Prometheus text, `/status` JSON, `/events` SSE, `/healthz`)
//! and records AFL-style plot data under `results/<run>/`; `--trace PATH`
//! (or `LEGO_TRACE`) writes a Perfetto-loadable Chrome trace of the stage
//! spans at exit. The monitoring plane is read-only: findings, corpus, and
//! checkpoints are byte-identical with or without it.
//!
//! `--oracles` enables the wrong-result correctness oracles (TLP, NoREC and
//! cross-dialect differential replay) on every corpus-accepted case;
//! `--oracles=tlp,norec,differential,recovery` selects a subset (an
//! unknown or empty name exits with status 2, listing the known ones). The
//! `recovery` durability oracle is opt-in only: it journals every statement
//! to a write-ahead log, simulates a crash at a deterministic mid-sequence
//! point (clean record boundary and torn mid-record truncation), replays the
//! log into a fresh engine, and reports any post-recovery state divergence.
//! `--wal-dir DIR` (or `LEGO_WAL_DIR`) chooses where the per-worker WAL
//! files live (default: a per-process temp directory). Deduplicated logic
//! and durability bugs are reported next to crash bugs and written as
//! reproducers with `--out`.
//!
//! A `fuzz --out DIR` run writes `campaign.json`, one reduced reproducer per
//! bug, and the retained seed corpus under `DIR/corpus/`; a later run with
//! `--corpus DIR/corpus` resumes from it (the paper's continuous-fuzzing
//! workflow). `DIR` is created before the campaign starts: a path that
//! cannot be a directory exits with status 1 and runs no campaign, and so
//! does any later write that fails.
//!
//! `--rule-cov` adds the grammar-rule coverage dimension: every non-aborted
//! case is traced through the instrumented grammar and cases that
//! traverse never-seen rule→rule edges are admitted to the corpus even when
//! the branch map reports nothing new (the LEGO engine additionally mines
//! their type-affinities and schedules a FuzzySQL-style "special features"
//! seed pack). Off by default; with the flag absent the campaign is
//! byte-identical to previous releases.
//!
//! `--sema` runs every generated case through the static sequence analyzer
//! (`lego-sqlsema`) before execution: cases with a provably-invalid
//! statement are charged to the budget but never executed (a deterministic
//! 1-in-16 audit slice still runs, feeding the analyzer-vs-engine
//! conformance oracle, whose divergence findings ride the logic-bug
//! channel). The LEGO engine additionally repairs dangling references in
//! mutants and prunes implausible synthesis candidates with the same
//! analyzer. Off by default; with the flag absent the campaign is
//! byte-identical to previous releases.
//!
//! `--checkpoint DIR` persists the campaign state to `DIR` every
//! `--checkpoint-every N` units (default: a tenth of the budget): `DIR`
//! holds `meta.json` and `worker00.json`, which each checkpoint overwrites.
//! A fresh campaign first removes the `worker00.json` an earlier one left.
//! A later `--resume DIR` with the *same* seed and flags continues from
//! the last checkpoint, checkpointing into `DIR` again, and produces the
//! byte-identical deterministic report of an uninterrupted run. The
//! campaign refuses a resume whose fuzzer, dialect, budget, oracles,
//! `--rule-cov` or `--sema` differ from what the checkpoint recorded, and a
//! directory written by a build with another checkpoint format version;
//! `--checkpoint-every` on `--resume` defaults to the recorded cadence and
//! must match it.

use lego::campaign::{run_engine, Budget, CampaignSpec, CampaignStats, FuzzEngine};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::corpus_io::{load_corpus, save_corpus};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::oracle::OracleKind;
use lego::reduce::reduce_case;
use lego_baselines::engine_by_name;
use lego_bench::grid::{Cli, MONITOR};
use lego_bench::{build_monitored, MonitorOpts};
use lego_dbms::faults::Faults;
use lego_dbms::{bugs, Dbms};
use lego_sqlast::{Dialect, TestCase};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn dialect_of(arg: &str) -> Option<Dialect> {
    match arg {
        "pg" | "postgres" | "postgresql" => Some(Dialect::Postgres),
        "mysql" => Some(Dialect::MySql),
        "maria" | "mariadb" => Some(Dialect::MariaDb),
        "comdb2" => Some(Dialect::Comdb2),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lego_cli fuzz   <pg|mysql|maria|comdb2> [--fuzzer NAME] [--units N] [--seed S] [--out DIR]\n                  [--corpus DIR] [--rule-cov] [--sema] [--telemetry PATH] [--heartbeat]\n                  [--oracles[=tlp,norec,differential,recovery]] [--wal-dir DIR]\n                  [--serve ADDR] [--trace PATH] [--plot-data PATH] [--plot-every MS]\n                  [--checkpoint DIR] [--checkpoint-every N] [--resume DIR]\n  lego_cli replay <pg|mysql|maria|comdb2> <script.sql>\n  lego_cli reduce <pg|mysql|maria|comdb2> <script.sql>\n  lego_cli bugs   [pg|mysql|maria|comdb2]"
    );
    ExitCode::from(2)
}

/// The flags of `lego_cli fuzz`, besides [`MONITOR`].
const FUZZ_FLAGS: &[&str] = &[
    "--fuzzer",
    "--units",
    "--seed",
    "--out",
    "--corpus",
    "--oracles",
    "--wal-dir",
    "--rule-cov",
    "--sema",
    "--checkpoint",
    "--checkpoint-every",
    "--resume",
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let subcommand = args.next();
    let script = &["DIALECT", "SCRIPT"];
    match subcommand.as_deref() {
        Some("fuzz") => cmd_fuzz(Cli::parse_from(args, &["DIALECT"], &[FUZZ_FLAGS, MONITOR])),
        Some("replay") => cmd_replay(&Cli::parse_from(args, script, &[]).positional),
        Some("reduce") => cmd_reduce(&Cli::parse_from(args, script, &[]).positional),
        Some("bugs") => cmd_bugs(&Cli::parse_from(args, &["DIALECT"], &[]).positional),
        _ => usage(),
    }
}

fn cmd_fuzz(cli: Cli) -> ExitCode {
    let Some(dialect) = cli.positional.first().and_then(|a| dialect_of(a)) else {
        return usage();
    };
    if cli.checkpoint.is_some() && cli.resume.is_some() {
        eprintln!(
            "--checkpoint cannot be combined with --resume: --resume DIR checkpoints into DIR"
        );
        return ExitCode::from(2);
    }
    let (fuzzer, units, seed, rule_cov, sema, oracles) =
        (&cli.fuzzer, cli.units, cli.seed, cli.rule_cov, cli.sema, cli.oracles);
    // Hidden smoke-test hooks: `LEGO_PLANT_FAULT=wal-drop-last` plants the
    // torn-write fault so scripts/check_durability.sh can validate the whole
    // detect→dedup→reduce→artifact pipeline against a binary that is
    // actually wrong; `LEGO_PLANT_FAULT=sema-overaccept` plants the
    // over-accepting analyzer bug so scripts/check_sema.sh can do the same
    // for the conformance oracle. Deliberately env-only (not flags): they
    // are never part of a real campaign, and the warning keeps an inherited
    // env var loud.
    let planted = std::env::var("LEGO_PLANT_FAULT").unwrap_or_default();
    let faults = match planted.as_str() {
        "" => Faults::default(),
        "wal-drop-last" => Faults { wal_drops_last_record: true, ..Faults::default() },
        "sema-overaccept" => Faults { overaccept_commit: true, ..Faults::default() },
        other => {
            eprintln!(
                "unknown LEGO_PLANT_FAULT '{other}' (supported: wal-drop-last, sema-overaccept)"
            );
            return ExitCode::from(2);
        }
    };
    if !planted.is_empty() {
        eprintln!("WARNING: planted fault '{planted}' active (LEGO_PLANT_FAULT)");
    }
    let corpus = match &cli.corpus {
        Some(_) if fuzzer != "LEGO" => {
            eprintln!("--corpus is only supported for the LEGO engine");
            return ExitCode::from(2);
        }
        Some(dir) => match load_corpus(dir) {
            Ok((corpus, skipped)) => {
                if !skipped.is_empty() {
                    eprintln!("skipped {} unparseable corpus files", skipped.len());
                }
                Some((dir, corpus))
            }
            Err(e) => {
                eprintln!("cannot load corpus from {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if let Some(dir) = &cli.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create output directory {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("fuzzing {} with {fuzzer} for {units} units (seed {seed})…", dialect.name());
    let cfg = Config { rng_seed: seed, rule_cov, sema, ..Config::default() };
    let mut engine: Box<dyn FuzzEngine> = match corpus {
        Some((dir, corpus)) => {
            println!("resuming from {} seeds in {}", corpus.len(), dir.display());
            Box::new(LegoFuzzer::with_corpus(dialect, cfg, corpus))
        }
        // The engine-side rule_cov/sema switches (special seed pack,
        // rule-novelty boosting, dependency-aware mutation repair) are
        // LEGO-only; baselines still get the campaign-side rule map,
        // corpus-admission widening, and static skip/conformance checks.
        None if (rule_cov || sema) && fuzzer == "LEGO" => Box::new(LegoFuzzer::new(dialect, cfg)),
        None => engine_by_name(fuzzer, dialect, seed),
    };
    if rule_cov {
        println!("grammar-rule coverage feedback enabled");
    }
    if sema {
        println!("static sequence analyzer enabled");
    }
    if oracles.enabled() {
        let mut kinds = Vec::new();
        if oracles.tlp {
            kinds.push("TLP");
        }
        if oracles.norec {
            kinds.push("NoREC");
        }
        if oracles.differential {
            kinds.push("differential");
        }
        if oracles.recovery {
            kinds.push("recovery");
        }
        println!("correctness oracles enabled: {}", kinds.join(", "));
        if oracles.recovery {
            if let Some(dir) = &cli.wal_dir {
                println!("recovery-oracle WAL directory: {dir}");
            }
        }
    }
    // Checkpoint/resume wiring. A --resume directory is also where further
    // checkpoints go, so a run can be interrupted and resumed repeatedly.
    // The cadence is part of campaign configuration (each boundary reseeds
    // the engine RNG): on resume it defaults to the recorded one, and the
    // campaign refuses any setting that differs from the checkpoint's
    // record.
    let mut ckpt = CheckpointCfg::disabled();
    if let Some(dir) = &cli.resume {
        let resume = match load_campaign_checkpoint(dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot resume from {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "resuming from checkpoint {} in {} ({} units done)",
            resume.workers[0].seq,
            dir.display(),
            resume.workers[0].tally.units
        );
        ckpt.every_units = cli.checkpoint_every.unwrap_or(resume.meta.every_units);
        ckpt.dir = Some(dir.clone());
        ckpt.resume = Some(resume);
    } else if let Some(dir) = &cli.checkpoint {
        ckpt.every_units = cli.checkpoint_every.unwrap_or((units / 10).max(1));
        ckpt.dir = Some(dir.clone());
    }
    let mut guard = build_monitored(MonitorOpts {
        workers: 1,
        run_name: format!("fuzz_{}", dialect.name()),
        ..MonitorOpts::from_cli(&cli, seed)
    });
    let spec = CampaignSpec {
        oracles,
        checkpoint: ckpt,
        wal_dir: cli.wal_dir.as_ref().map(PathBuf::from),
        rule_cov,
        sema,
        faults,
        ..CampaignSpec::new(dialect, Budget::units(units))
    };
    let stats = match run_engine(&spec, &guard.tel, engine.as_mut()) {
        Ok(stats) => stats,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            guard.finish();
            return ExitCode::FAILURE;
        }
    };
    guard.finish();
    println!(
        "executed {} cases | {} branches | {} affinities | {} retained seeds | {:.1}% valid stmts | {} bugs",
        stats.execs,
        stats.branches,
        stats.corpus_affinities,
        stats.corpus_size,
        stats.validity_pct(),
        stats.bugs.len()
    );
    if rule_cov {
        // Kept on its own line: scripts/check_rule_cov.sh scrapes it.
        println!("rule branches: {}", stats.rule_branches);
    }
    if sema {
        // Each on its own line: scripts/check_sema.sh scrapes them.
        println!("sema rejects: {}", stats.sema_rejects);
        println!("sema skipped statements: {}", stats.sema_skipped_stmts);
        println!("sema divergences: {}", stats.sema_divergences);
        println!("raw validity: {:.1}% over all generated statements", stats.raw_validity_pct());
        for lb in stats.logic_bugs.iter().filter(|f| f.bug.oracle == OracleKind::Sema) {
            println!(
                "  [{}] {} at exec #{}: {}",
                lb.bug.oracle.name(),
                lb.bug.identifier(),
                lb.first_exec,
                lb.bug.detail
            );
        }
    }
    for bug in &stats.bugs {
        println!(
            "  [{}] {} in {} at exec #{}",
            bug.crash.identifier,
            bug.crash.bug_type.name(),
            bug.crash.component.name(),
            bug.first_exec
        );
    }
    if oracles.enabled() {
        println!("oracle checks: {} | logic bugs: {}", stats.oracle_checks, stats.logic_bugs.len());
        if oracles.recovery {
            // Kept on its own line: tooling scrapes the `oracle checks:` line.
            println!("durability bugs: {}", stats.durability_bugs);
        }
        for lb in &stats.logic_bugs {
            println!(
                "  [{}] {} at exec #{}: {}",
                lb.bug.oracle.name(),
                lb.bug.identifier(),
                lb.first_exec,
                lb.bug.detail
            );
        }
    }
    if let Some(dir) = &cli.out {
        match write_out(dir, &stats, &engine.corpus()) {
            Ok(n) => println!("reports + {n}-seed corpus written to {}", dir.display()),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Write a campaign's report, its reproducers and its retained corpus to
/// `dir`; returns the number of corpus seeds written.
fn write_out(dir: &Path, stats: &CampaignStats, corpus: &[Arc<TestCase>]) -> Result<usize, String> {
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write("campaign.json", &serde_json::to_string_pretty(stats).expect("serialize"))?;
    for bug in &stats.bugs {
        let name = bug.crash.identifier.replace([' ', '#', '/'], "_").to_ascii_lowercase();
        write(&format!("{name}.sql"), &bug.reduced_sql)?;
    }
    for lb in &stats.logic_bugs {
        let name = format!(
            "logic_{}_{:016x}",
            lb.bug.oracle.name().to_ascii_lowercase(),
            lb.fingerprint()
        );
        write(&format!("{name}.sql"), &lb.reduced_sql)?;
    }
    let corpus_dir = dir.join("corpus");
    save_corpus(&corpus_dir, corpus)
        .map_err(|e| format!("cannot save the corpus to {}: {e}", corpus_dir.display()))
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let (Some(dialect), Some(path)) = (args.first().and_then(|a| dialect_of(a)), args.get(1))
    else {
        return usage();
    };
    let sql = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut db = Dbms::new(dialect);
    let report = db.execute_script(&sql);
    println!(
        "executed {} statements, {} errors, {} branches",
        report.statements_executed,
        report.errors.len(),
        report.coverage.edge_count()
    );
    for e in &report.errors {
        println!("  error: {e}");
    }
    match report.crash() {
        Some(crash) => {
            println!(
                "CRASH: [{}] {} in {}",
                crash.identifier,
                crash.bug_type.name(),
                crash.component.name()
            );
            for frame in &crash.stack {
                println!("  at {frame}");
            }
            ExitCode::FAILURE
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_reduce(args: &[String]) -> ExitCode {
    let (Some(dialect), Some(path)) = (args.first().and_then(|a| dialect_of(a)), args.get(1))
    else {
        return usage();
    };
    let sql = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let case = match lego_sqlparser::parse_script(&sql) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let crash = match Dbms::new(dialect).execute_case(&case).crash().cloned() {
        Some(c) => c,
        None => {
            eprintln!("script does not crash {}", dialect.name());
            return ExitCode::FAILURE;
        }
    };
    let (reduced, execs) = reduce_case(&case, dialect, &crash);
    eprintln!(
        "reduced {} -> {} statements in {execs} executions ({}):",
        case.len(),
        reduced.len(),
        crash.identifier
    );
    print!("{}", reduced.to_sql());
    ExitCode::SUCCESS
}

fn cmd_bugs(args: &[String]) -> ExitCode {
    let filter = args.first().map(|a| dialect_of(a));
    if filter == Some(None) {
        return usage();
    }
    let filter = filter.flatten();
    for bug in bugs::manifest() {
        if let Some(d) = filter {
            if bug.dialect != d {
                continue;
            }
        }
        println!(
            "{:<22} {:<10} {:<9} {:<9} {:?}",
            bug.identifier,
            bug.dialect.name(),
            bug.component.name(),
            bug.bug_type.name(),
            bug.pattern.iter().map(|k| k.name()).collect::<Vec<_>>()
        );
    }
    ExitCode::SUCCESS
}
