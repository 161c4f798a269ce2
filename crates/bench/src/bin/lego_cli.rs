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
//! `--seed` takes decimal or `0x` hex. A numeric flag whose value does not
//! parse, or an unknown `--fuzzer`, exits with status 2 before any campaign
//! starts.
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
//! `--oracles=tlp,norec,differential,recovery` selects a subset. The
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
//! workflow).
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
//! `--checkpoint DIR` persists the complete campaign state to `DIR` every
//! `--checkpoint-every N` units (default: a tenth of the budget); a later
//! `--resume DIR` with the *same* seed and flags continues the interrupted
//! campaign and produces the byte-identical deterministic report of an
//! uninterrupted run. The campaign refuses a resume whose fuzzer, dialect,
//! budget, oracles, `--rule-cov` or `--sema` differ from what the checkpoint
//! recorded; `--checkpoint-every` on `--resume` defaults to the recorded
//! cadence and must match it.

use lego::campaign::{run_engine, Budget, CampaignSpec, FuzzEngine};
use lego::checkpoint::{load_campaign_checkpoint, CheckpointCfg};
use lego::corpus_io::{load_corpus, save_corpus};
use lego::fuzzer::{Config, LegoFuzzer};
use lego::oracle::OracleKind;
use lego::reduce::reduce_case;
use lego::OracleConfig;
use lego_baselines::{engine_by_name, ENGINE_NAMES};
use lego_bench::grid::parse_oracles;
use lego_dbms::{bugs, Dbms};
use lego_sqlast::Dialect;
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

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

/// The value after the flag `args[i]`, converted by `parse`. A missing or
/// unconvertible value is reported, naming the flag and the value, and gives
/// `None`.
fn flag_value<T>(
    args: &[String],
    i: usize,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    let flag = &args[i];
    let Some(value) = args.get(i + 1) else {
        eprintln!("{flag} needs a value");
        return None;
    };
    parse(value).map_err(|e| eprintln!("{flag} {value}: {e}")).ok()
}

fn number<T: FromStr>(s: &str) -> Result<T, String>
where
    T::Err: Display,
{
    s.parse().map_err(|e: T::Err| e.to_string())
}

/// A seed in decimal or `0x` hex.
fn seed_value(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("{e} (expected decimal or 0x hex)"))
}

fn fuzzer_name(s: &str) -> Result<String, String> {
    if ENGINE_NAMES.contains(&s) {
        Ok(s.to_string())
    } else {
        Err(format!("unknown fuzzer (known: {})", ENGINE_NAMES.join(", ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("reduce") => cmd_reduce(&args[1..]),
        Some("bugs") => cmd_bugs(&args[1..]),
        _ => usage(),
    }
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let Some(dialect) = args.first().and_then(|a| dialect_of(a)) else {
        return usage();
    };
    let mut fuzzer = "LEGO".to_string();
    let mut units = 400_000usize;
    let mut seed = 0x1e60u64;
    let mut out: Option<PathBuf> = None;
    let mut corpus_dir: Option<PathBuf> = None;
    let mut telemetry: Option<PathBuf> =
        std::env::var("LEGO_TELEMETRY").ok().filter(|p| !p.is_empty()).map(PathBuf::from);
    let mut heartbeat = false;
    let mut oracles = OracleConfig::disabled();
    let mut wal_dir: Option<PathBuf> =
        std::env::var("LEGO_WAL_DIR").ok().filter(|p| !p.is_empty()).map(PathBuf::from);
    let mut serve: Option<String> = std::env::var("LEGO_SERVE").ok().filter(|a| !a.is_empty());
    let mut trace: Option<PathBuf> =
        std::env::var("LEGO_TRACE").ok().filter(|p| !p.is_empty()).map(PathBuf::from);
    let mut plot_data: Option<PathBuf> = None;
    let mut plot_every_ms = 1000u64;
    let mut checkpoint_dir: Option<PathBuf> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut rule_cov = false;
    let mut sema = false;
    let mut i = 1;
    while i + 1 < args.len() + 1 {
        match args.get(i).map(String::as_str) {
            Some("--fuzzer") => {
                let Some(v) = flag_value(args, i, fuzzer_name) else { return ExitCode::from(2) };
                fuzzer = v;
                i += 2;
            }
            Some("--units") => {
                let Some(v) = flag_value(args, i, number) else { return ExitCode::from(2) };
                units = v;
                i += 2;
            }
            Some("--seed") => {
                let Some(v) = flag_value(args, i, seed_value) else { return ExitCode::from(2) };
                seed = v;
                i += 2;
            }
            Some("--out") => {
                out = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--corpus") => {
                corpus_dir = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--telemetry") => {
                telemetry = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--serve") => {
                serve = args.get(i + 1).cloned();
                i += 2;
            }
            Some("--trace") => {
                trace = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--plot-data") => {
                plot_data = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--plot-every") => {
                let Some(v) = flag_value(args, i, number::<u64>) else { return ExitCode::from(2) };
                plot_every_ms = v.max(10);
                i += 2;
            }
            Some("--checkpoint") => {
                checkpoint_dir = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--checkpoint-every") => {
                let Some(v) = flag_value(args, i, number) else { return ExitCode::from(2) };
                checkpoint_every = Some(v);
                i += 2;
            }
            Some("--resume") => {
                resume_dir = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some("--heartbeat") => {
                heartbeat = true;
                i += 1;
            }
            Some("--rule-cov") => {
                rule_cov = true;
                i += 1;
            }
            Some("--sema") => {
                sema = true;
                i += 1;
            }
            Some("--oracles") => {
                oracles = OracleConfig::all();
                i += 1;
            }
            Some(spec) if spec.starts_with("--oracles=") => {
                oracles = parse_oracles(&spec["--oracles=".len()..]);
                i += 1;
            }
            Some("--wal-dir") => {
                wal_dir = args.get(i + 1).map(PathBuf::from);
                i += 2;
            }
            Some(spec) if spec.starts_with("--wal-dir=") => {
                wal_dir = Some(PathBuf::from(&spec["--wal-dir=".len()..]));
                i += 1;
            }
            Some(other) => {
                eprintln!("unknown flag {other}");
                return usage();
            }
            None => break,
        }
    }
    // Hidden smoke-test hooks: `LEGO_PLANT_FAULT=wal-drop-last` plants the
    // torn-write fault so scripts/check_durability.sh can validate the whole
    // detect→dedup→reduce→artifact pipeline against a binary that is
    // actually wrong; `LEGO_PLANT_FAULT=sema-overaccept` plants the
    // over-accepting analyzer bug so scripts/check_sema.sh can do the same
    // for the conformance oracle. Deliberately env-only (not flags): they
    // are never part of a real campaign, and the warning keeps an inherited
    // env var loud.
    let mut _wal_fault = None;
    let mut _sema_fault = None;
    match std::env::var("LEGO_PLANT_FAULT").ok().as_deref() {
        Some("wal-drop-last") => {
            eprintln!("WARNING: planted fault 'wal-drop-last' active (LEGO_PLANT_FAULT)");
            _wal_fault = Some(lego_dbms::faults::FaultGuard::enable_wal_drops_last_record());
        }
        Some("sema-overaccept") => {
            eprintln!("WARNING: planted fault 'sema-overaccept' active (LEGO_PLANT_FAULT)");
            _sema_fault = Some(lego_sqlsema::faults::FaultGuard::enable_overaccept_commit());
        }
        Some(other) if !other.is_empty() => {
            eprintln!(
                "unknown LEGO_PLANT_FAULT '{other}' (supported: wal-drop-last, sema-overaccept)"
            );
            return ExitCode::from(2);
        }
        _ => {}
    };
    println!("fuzzing {} with {fuzzer} for {units} units (seed {seed})…", dialect.name());
    let mut engine: Box<dyn FuzzEngine> = match &corpus_dir {
        Some(dir) if fuzzer == "LEGO" => {
            let (corpus, skipped) = load_corpus(dir).expect("load corpus");
            if !skipped.is_empty() {
                eprintln!("skipped {} unparseable corpus files", skipped.len());
            }
            println!("resuming from {} seeds in {}", corpus.len(), dir.display());
            let cfg = Config { rng_seed: seed, rule_cov, sema, ..Config::default() };
            Box::new(LegoFuzzer::with_corpus(dialect, cfg, corpus))
        }
        Some(_) => {
            eprintln!("--corpus is only supported for the LEGO engine");
            return ExitCode::from(2);
        }
        // The engine-side rule_cov/sema switches (special seed pack,
        // rule-novelty boosting, dependency-aware mutation repair) are
        // LEGO-only; baselines still get the campaign-side rule map,
        // corpus-admission widening, and static skip/conformance checks.
        None if (rule_cov || sema) && fuzzer == "LEGO" => {
            let cfg = Config { rng_seed: seed, rule_cov, sema, ..Config::default() };
            Box::new(LegoFuzzer::new(dialect, cfg))
        }
        None => engine_by_name(&fuzzer, dialect, seed),
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
            if let Some(dir) = &wal_dir {
                println!("recovery-oracle WAL directory: {}", dir.display());
            }
        }
    }
    // Checkpoint/resume wiring. A --resume directory is also where further
    // checkpoints go (unless --checkpoint overrides it), so a run can be
    // interrupted and resumed repeatedly. The cadence is part of campaign
    // configuration (each boundary reseeds the engine RNG): on resume it
    // defaults to the recorded one, and the campaign refuses any setting
    // that differs from the checkpoint's record.
    let mut ckpt = CheckpointCfg::disabled();
    if let Some(dir) = &resume_dir {
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
            resume.workers[0].units
        );
        ckpt.every_units = checkpoint_every.unwrap_or(resume.meta.every_units);
        ckpt.dir = Some(checkpoint_dir.clone().unwrap_or_else(|| dir.clone()));
        ckpt.resume = Some(resume);
    } else if let Some(dir) = checkpoint_dir {
        ckpt.every_units = checkpoint_every.unwrap_or((units / 10).max(1));
        ckpt.dir = Some(dir);
    }
    let mut guard = lego_bench::build_monitored(lego_bench::MonitorOpts {
        event_log: telemetry,
        heartbeat,
        workers: 1,
        seed,
        serve,
        trace,
        plot_data,
        plot_every_ms,
        run_name: format!("fuzz_{}", dialect.name()),
    });
    let spec = CampaignSpec {
        oracles,
        checkpoint: ckpt,
        wal_dir,
        rule_cov,
        sema,
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
    if let Some(dir) = out {
        std::fs::create_dir_all(&dir).expect("create out dir");
        let report = serde_json::to_string_pretty(&stats).expect("serialize");
        std::fs::write(dir.join("campaign.json"), report).expect("write campaign.json");
        for bug in &stats.bugs {
            let name = bug.crash.identifier.replace([' ', '#', '/'], "_").to_ascii_lowercase();
            std::fs::write(dir.join(format!("{name}.sql")), &bug.reduced_sql)
                .expect("write reproducer");
        }
        for lb in &stats.logic_bugs {
            let name = format!(
                "logic_{}_{:016x}",
                lb.bug.oracle.name().to_ascii_lowercase(),
                lb.fingerprint()
            );
            std::fs::write(dir.join(format!("{name}.sql")), &lb.reduced_sql)
                .expect("write logic-bug reproducer");
        }
        let n = save_corpus(&dir.join("corpus"), &engine.corpus()).expect("save corpus");
        println!("reports + {n}-seed corpus written to {}", dir.display());
    }
    ExitCode::SUCCESS
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
    let filter = args.first().and_then(|a| dialect_of(a));
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
