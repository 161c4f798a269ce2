//! Grid-level campaign parallelism for the experiment binaries.
//!
//! The table/figure binaries run a grid of independent fuzzer×dialect×seed
//! campaign cells. [`run_grid`] fans those cells across a scoped thread
//! pool: each cell is a self-contained closure, workers pull the next
//! un-started cell from a shared counter, and results come back in cell
//! order — so the printed tables and JSON reports are byte-identical to a
//! serial run regardless of scheduling.
//!
//! [`Cli`] is the one command-line parser of `lego_cli` and every
//! experiment binary.

use lego_baselines::ENGINE_NAMES;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every job on a pool of `workers` threads, returning results in job
/// order. `workers <= 1` runs the jobs inline, in order, on this thread.
///
/// A panicking cell does not tear down the pool: the panic is caught at the
/// job boundary, the worker moves on to the next cell, and every remaining
/// cell still runs to completion. The first captured panic is re-raised
/// afterwards (with its cell index), so a grid failure is still loud — it
/// just can't silently discard the other cells' side effects (telemetry,
/// written reports) or poison the job slots.
pub fn run_grid<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = workers.max(1).min(jobs.len().max(1));
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }

    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let panics: Mutex<Vec<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("job claimed twice");
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)) {
                    Ok(out) => {
                        *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    }
                    Err(payload) => {
                        panics.lock().unwrap_or_else(|e| e.into_inner()).push((i, payload));
                    }
                }
            });
        }
    });
    let mut panics = panics.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some((i, payload)) = panics.drain(..).next() {
        eprintln!("grid cell {i} panicked; re-raising after the remaining cells completed");
        std::panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()).expect("job did not finish"))
        .collect()
}

/// Grid thread count when `--workers` is absent: `LEGO_WORKERS` if set to a
/// positive integer, otherwise the machine's available parallelism. Grid
/// cells are independent campaigns, so this never changes a result.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("LEGO_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Command line of `lego_cli` and the experiment binaries: positional
/// arguments plus optional flags (any position). Each binary names the
/// positional arguments and the flags it reads ([`Cli::parse`]); any other
/// flag, a misspelt one, or one positional argument too many exits with
/// status 2 before any campaign starts. So does a value that is missing
/// (another `--flag` in its place counts as missing) or does not parse,
/// here or in a positional argument ([`Cli::arg`]). A flag's value follows
/// it (`--flag V`) or is joined to it (`--flag=V`); a switch takes none.
/// An environment fallback below applies only to a binary that takes the
/// flag.
///
/// - `--workers N` — grid thread count (at least 1); falls back to
///   `LEGO_WORKERS`, then to the machine's parallelism.
/// - `--telemetry PATH` — JSONL event log destination;
///   falls back to the `LEGO_TELEMETRY` env var. Metrics exports land next
///   to the log (see [`crate::build_telemetry`]).
/// - `--heartbeat` — ~1 Hz live status line on stderr.
/// - `--oracles[=LIST]` — enable the correctness oracles. Bare `--oracles`
///   turns on the three logic oracles; `--oracles=tlp,norec,differential,recovery`
///   selects a subset (the recovery durability oracle is opt-in only).
/// - `--wal-dir PATH` — directory for the per-worker
///   write-ahead-log files used by the recovery oracle; falls back to
///   `LEGO_WAL_DIR`, then to a per-process temp directory.
/// - `--serve ADDR` — live monitoring HTTP server
///   (`/metrics`, `/status`, `/events`, `/healthz`); falls back to
///   `LEGO_SERVE`. Port `0` picks a free port (printed at startup).
///   Serving implies the time-series recorder.
/// - `--trace PATH` — Chrome-trace (Perfetto) stage-span
///   export written at exit; falls back to `LEGO_TRACE`.
/// - `--plot-data PATH` — AFL-style `plot_data.csv` destination (default
///   `results/<bin>/plot_data.csv` when serving).
/// - `--plot-every MS` — time-series sample cadence (default 1000 ms, at
///   least 10).
/// - `--rule-cov` — grammar-rule coverage feedback (second virgin map over
///   parser rule→rule edges; rule novelty widens corpus admission).
/// - `--sema` — static sequence analyzer (pre-execution validity skip,
///   dependency-aware mutation, analyzer-vs-engine conformance oracle).
/// - `--fuzzer NAME` — the engine of a `lego_cli fuzz` run, one of
///   [`ENGINE_NAMES`] (default `LEGO`).
/// - `--units N` — its unit budget (default [`crate::DAY_BUDGET_UNITS`]).
/// - `--seed S` — its RNG seed, decimal or `0x` hex (default
///   [`crate::DEFAULT_SEED`]).
/// - `--out DIR` — where it writes `campaign.json`, the reproducers and
///   the retained corpus.
/// - `--corpus DIR` — a saved corpus it starts from.
/// - `--checkpoint DIR`, `--checkpoint-every N` (at least 1), `--resume DIR`
///   — where it checkpoints, how often, and the checkpoint it resumes.
#[derive(Default)]
pub struct Cli {
    /// Positional arguments, flags removed, program name excluded.
    pub positional: Vec<String>,
    pub workers: usize,
    /// JSONL event-log path, when telemetry was requested.
    pub telemetry: Option<String>,
    pub heartbeat: bool,
    /// Correctness-oracle selection (disabled unless `--oracles` is given).
    pub oracles: lego::OracleConfig,
    /// WAL directory for the recovery oracle (`--wal-dir`/`LEGO_WAL_DIR`).
    pub wal_dir: Option<String>,
    /// Monitoring-server listen address, when `--serve`/`LEGO_SERVE` given.
    pub serve: Option<String>,
    /// Chrome-trace output path, when `--trace`/`LEGO_TRACE` given.
    pub trace: Option<String>,
    /// Explicit plot-data CSV path (`--plot-data`).
    pub plot_data: Option<String>,
    /// Time-series sample cadence in milliseconds (`--plot-every`).
    pub plot_every_ms: u64,
    /// Grammar-rule coverage feedback (`--rule-cov`).
    pub rule_cov: bool,
    /// Static sequence analyzer (`--sema`).
    pub sema: bool,
    pub fuzzer: String,
    pub units: usize,
    pub seed: u64,
    pub out: Option<PathBuf>,
    pub corpus: Option<PathBuf>,
    pub checkpoint: Option<PathBuf>,
    pub checkpoint_every: Option<usize>,
    pub resume: Option<PathBuf>,
}

/// The flags of the telemetry and monitoring plane ([`crate::MonitorOpts`]).
pub const MONITOR: &[&str] =
    &["--telemetry", "--heartbeat", "--serve", "--trace", "--plot-data", "--plot-every"];

/// The names an `--oracles=LIST` value may hold.
pub const ORACLE_NAMES: [&str; 6] = ["tlp", "norec", "differential", "diff", "recovery", "all"];

/// Parse an `--oracles` value: a comma-separated subset of
/// `tlp`/`norec`/`differential`/`recovery` (`diff` accepted). `all` means
/// the three logic oracles — the recovery durability oracle is only enabled
/// when named explicitly. An unknown or empty name is an error that names
/// it and lists the known ones.
pub fn parse_oracles(spec: &str) -> Result<lego::OracleConfig, String> {
    let mut cfg = lego::OracleConfig::disabled();
    for name in spec.split(',') {
        match name.trim().to_ascii_lowercase().as_str() {
            "tlp" => cfg.tlp = true,
            "norec" => cfg.norec = true,
            "differential" | "diff" => cfg.differential = true,
            "recovery" => cfg.recovery = true,
            "all" => {
                let recovery = cfg.recovery;
                cfg = lego::OracleConfig::all();
                cfg.recovery = recovery;
            }
            other => {
                let what = if other.is_empty() {
                    "an empty oracle name".to_string()
                } else {
                    format!("unknown oracle {other:?}")
                };
                return Err(format!(
                    "--oracles={spec}: {what}; known: {}",
                    ORACLE_NAMES.join(", ")
                ));
            }
        }
    }
    Ok(cfg)
}

impl Cli {
    /// The process arguments of a binary that takes the positional
    /// arguments named in `positional` (any of them may be left out) and
    /// the flags in `flags`; exits with status 2 on any other argument or
    /// a bad value.
    pub fn parse(positional: &[&str], flags: &[&[&str]]) -> Self {
        Self::parse_from(std::env::args().skip(1), positional, flags)
    }

    /// [`Cli::parse`] over `args`, the arguments after a subcommand, say.
    pub fn parse_from(
        args: impl Iterator<Item = String>,
        positional: &[&str],
        flags: &[&[&str]],
    ) -> Self {
        Self::from_args(args, positional, flags).unwrap_or_else(|e| refuse(&e))
    }

    fn from_args(
        args: impl Iterator<Item = String>,
        positional: &[&str],
        flags: &[&[&str]],
    ) -> Result<Self, String> {
        let accepts = |flag: &str| flags.iter().any(|group| group.contains(&flag));
        let takes = || {
            let mut words = positional.to_vec();
            words.extend(flags.iter().copied().flatten());
            format!("takes: {}", words.join(" "))
        };
        let mut cli = Cli {
            plot_every_ms: 1000,
            fuzzer: "LEGO".to_string(),
            units: crate::DAY_BUDGET_UNITS,
            seed: crate::DEFAULT_SEED,
            ..Cli::default()
        };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if !a.starts_with("--") {
                if cli.positional.len() == positional.len() {
                    return Err(format!("unexpected argument {a} ({})", takes()));
                }
                cli.positional.push(a);
                continue;
            }
            let (flag, joined) = match a.split_once('=') {
                Some((flag, v)) => (flag, Some(v.to_string())),
                None => (a.as_str(), None),
            };
            let unknown = || format!("unknown flag {flag} ({})", takes());
            let mut value = || {
                joined
                    .clone()
                    .or_else(|| args.next_if(|v| !v.starts_with("--")))
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let switch = || match &joined {
                None => Ok(true),
                Some(_) => Err(format!("{flag} takes no value")),
            };
            match flag {
                _ if !accepts(flag) => return Err(unknown()),
                "--workers" => match number(flag, value()?)? {
                    0 => return Err("--workers 0: need at least one worker".to_string()),
                    n => cli.workers = n,
                },
                "--telemetry" => cli.telemetry = Some(value()?),
                "--heartbeat" => cli.heartbeat = switch()?,
                "--oracles" => {
                    cli.oracles = match joined.as_deref() {
                        Some(spec) => parse_oracles(spec)?,
                        None => lego::OracleConfig::all(),
                    }
                }
                "--wal-dir" => cli.wal_dir = Some(value()?),
                "--serve" => cli.serve = Some(value()?),
                "--trace" => cli.trace = Some(value()?),
                "--plot-data" => cli.plot_data = Some(value()?),
                "--plot-every" => cli.plot_every_ms = number::<u64>(flag, value()?)?.max(10),
                "--rule-cov" => cli.rule_cov = switch()?,
                "--sema" => cli.sema = switch()?,
                "--fuzzer" => {
                    cli.fuzzer = value()?;
                    if !ENGINE_NAMES.contains(&cli.fuzzer.as_str()) {
                        return Err(format!(
                            "{flag} {}: unknown fuzzer (known: {})",
                            cli.fuzzer,
                            ENGINE_NAMES.join(", ")
                        ));
                    }
                }
                "--units" => cli.units = number(flag, value()?)?,
                "--seed" => {
                    let v = value()?;
                    cli.seed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => v.parse(),
                    }
                    .map_err(|e| format!("{flag} {v}: {e} (expected decimal or 0x hex)"))?
                }
                "--out" => match value()? {
                    v if v.is_empty() => return Err("--out needs a directory path".to_string()),
                    v => cli.out = Some(v.into()),
                },
                "--corpus" => cli.corpus = Some(value()?.into()),
                "--checkpoint" => cli.checkpoint = Some(value()?.into()),
                "--checkpoint-every" => match number(flag, value()?)? {
                    0 => return Err("--checkpoint-every 0: need at least one unit".to_string()),
                    n => cli.checkpoint_every = Some(n),
                },
                "--resume" => cli.resume = Some(value()?.into()),
                // A flag some binary lists that this parser does not know.
                _ => return Err(unknown()),
            }
        }
        // `--workers 0` is refused, so 0 here means the flag was not given.
        if cli.workers == 0 {
            cli.workers = default_workers();
        }
        let env = |flag: &str, var: &str| accepts(flag).then(|| std::env::var(var).ok()).flatten();
        let nonempty = |v: Option<String>| v.filter(|s| !s.is_empty());
        cli.telemetry = nonempty(cli.telemetry.or_else(|| env("--telemetry", "LEGO_TELEMETRY")));
        cli.wal_dir = nonempty(cli.wal_dir.or_else(|| env("--wal-dir", "LEGO_WAL_DIR")));
        cli.serve = nonempty(cli.serve.or_else(|| env("--serve", "LEGO_SERVE")));
        cli.trace = nonempty(cli.trace.or_else(|| env("--trace", "LEGO_TRACE")));
        cli.plot_data = nonempty(cli.plot_data);
        Ok(cli)
    }

    /// Positional argument `i`, called `name` in the error, parsed; `default`
    /// when it is absent. A value that does not parse exits with status 2.
    pub fn arg<T: FromStr>(&self, i: usize, name: &str, default: T) -> T
    where
        T::Err: Display,
    {
        self.try_arg(i, name, default).unwrap_or_else(|e| refuse(&e))
    }

    fn try_arg<T: FromStr>(&self, i: usize, name: &str, default: T) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.positional.get(i).map_or(Ok(default), |v| number(name, v.clone()))
    }
}

/// `value` of argument `name` parsed, or an error naming both.
fn number<T: FromStr>(name: &str, value: String) -> Result<T, String>
where
    T::Err: Display,
{
    value.parse().map_err(|e| format!("{name} {value}: {e}"))
}

/// Report a bad command line and exit with status 2.
fn refuse(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let flags: &[&str] = &["--workers", "--oracles", "--wal-dir", "--rule-cov", "--sema"];
        Cli::from_args(args.iter().map(|a| a.to_string()), &["UNITS", "SEEDS"], &[flags, MONITOR])
    }

    #[test]
    fn grid_preserves_job_order() {
        let jobs: Vec<_> = (0..64).map(|i| move || i * 2).collect();
        assert_eq!(run_grid(jobs, 8), (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn grid_runs_serially_with_one_worker() {
        let jobs: Vec<_> = (0..5).map(|i| move || i).collect();
        assert_eq!(run_grid(jobs, 1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn grid_panic_finishes_remaining_cells_before_reraising() {
        type Job<'a> = Box<dyn FnOnce() -> usize + Send + 'a>;
        let done = AtomicUsize::new(0);
        let jobs: Vec<Job> = (0..12usize)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 3 {
                        panic!("injected grid cell failure");
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                    i
                }) as Job
            })
            .collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_grid(jobs, 4)));
        let payload = caught.expect_err("grid panic must still surface");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected grid cell failure"), "unexpected payload: {msg}");
        assert_eq!(done.load(Ordering::Relaxed), 11, "surviving cells must all run");
    }

    #[test]
    fn grid_handles_empty_and_fewer_jobs_than_workers() {
        assert_eq!(run_grid(Vec::<fn() -> u8>::new(), 4), Vec::<u8>::new());
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_grid(jobs, 16), vec![0, 1]);
    }

    #[test]
    fn cli_extracts_workers_flag_anywhere() {
        let cli = parse(&["20000", "--workers", "3", "2"]).unwrap();
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.positional, vec!["20000", "2"]);
        assert_eq!(cli.arg::<usize>(0, "UNITS", 7), 20000);
        assert_eq!(cli.arg::<usize>(5, "SEEDS", 7), 7);

        let eq = parse(&["--workers=5"]).unwrap();
        assert_eq!(eq.workers, 5);
        assert!(eq.positional.is_empty());
    }

    #[test]
    fn cli_extracts_telemetry_and_heartbeat_flags() {
        let cli = parse(&["9000", "--telemetry", "/tmp/ev.jsonl", "--heartbeat", "4"]).unwrap();
        assert_eq!(cli.telemetry.as_deref(), Some("/tmp/ev.jsonl"));
        assert!(cli.heartbeat);
        assert_eq!(cli.positional, vec!["9000", "4"]);

        let eq = parse(&["--telemetry=x.jsonl"]).unwrap();
        assert_eq!(eq.telemetry.as_deref(), Some("x.jsonl"));
        assert!(!eq.heartbeat);
    }

    #[test]
    fn cli_extracts_monitoring_flags() {
        let cli = parse(&[
            "9000",
            "--serve",
            "127.0.0.1:0",
            "--trace",
            "/tmp/t.json",
            "--plot-every",
            "250",
        ])
        .unwrap();
        assert_eq!(cli.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(cli.plot_every_ms, 250);
        assert_eq!(cli.positional, vec!["9000"]);

        let eq = parse(&["--serve=0.0.0.0:9100", "--trace=t.json", "--plot-data=p.csv"]).unwrap();
        assert_eq!(eq.serve.as_deref(), Some("0.0.0.0:9100"));
        assert_eq!(eq.trace.as_deref(), Some("t.json"));
        assert_eq!(eq.plot_data.as_deref(), Some("p.csv"));
        assert_eq!(eq.plot_every_ms, 1000, "default cadence");

        let off = parse(&["9000"]).unwrap();
        assert!(off.serve.is_none() && off.trace.is_none() && off.plot_data.is_none());
    }

    #[test]
    fn cli_clamps_plot_cadence() {
        let cli = parse(&["--plot-every=1"]).unwrap();
        assert!(cli.plot_every_ms >= 10, "sub-10ms cadence must be clamped");
    }

    #[test]
    fn cli_extracts_rule_cov_flag() {
        let on = parse(&["9000", "--rule-cov", "2"]).unwrap();
        assert!(on.rule_cov);
        assert_eq!(on.positional, vec!["9000", "2"]);
        let off = parse(&["9000"]).unwrap();
        assert!(!off.rule_cov);
    }

    #[test]
    fn cli_extracts_sema_flag() {
        let on = parse(&["9000", "--sema"]).unwrap();
        assert!(on.sema);
        assert_eq!(on.positional, vec!["9000"]);
        let off = parse(&["9000"]).unwrap();
        assert!(!off.sema);
    }

    #[test]
    fn cli_refuses_unknown_and_empty_oracle_names() {
        for (args, needle) in [
            ("--oracles=tpl", "unknown oracle \"tpl\""),
            ("--oracles=tlp,nroec", "unknown oracle \"nroec\""),
            ("--oracles=", "an empty oracle name"),
            ("--oracles=tlp,,norec", "an empty oracle name"),
        ] {
            let err = parse(&[args]).err().unwrap_or_else(|| panic!("{args} accepted"));
            assert!(err.contains(args) && err.contains(needle), "{args}: {err}");
            for name in ORACLE_NAMES {
                assert!(err.contains(name), "{args}: {err} should list {name}");
            }
        }
    }

    #[test]
    fn cli_rejects_zero_workers() {
        let err = parse(&["--workers", "0"]).err().expect("zero workers refused");
        assert!(err.contains("--workers 0"), "{err}");
    }

    #[test]
    fn cli_refuses_values_that_do_not_parse_or_are_missing() {
        for (args, needle) in [
            (&["3e3", "--workers", "abc"][..], "--workers abc"),
            (&["--workers=-1"], "--workers -1"),
            (&["--plot-every", "fast"], "--plot-every fast"),
            (&["--plot-every"], "--plot-every needs a value"),
            (&["--telemetry"], "--telemetry needs a value"),
            (&["--telemetry", "--sema"], "--telemetry needs a value"),
        ] {
            let err = parse(args).err().unwrap_or_else(|| panic!("{args:?} accepted"));
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        let cli = parse(&["3e3", "x"]).unwrap();
        let err = cli.try_arg::<usize>(0, "UNITS", 7).expect_err("3e3 is not a unit count");
        assert!(err.contains("UNITS 3e3"), "{err}");
        assert!(cli.try_arg::<u64>(1, "SEEDS", 3).is_err());
    }

    #[test]
    fn cli_refuses_arguments_the_binary_does_not_take() {
        let fig9 = |args: &[&str]| {
            Cli::from_args(args.iter().map(|a| a.to_string()), &["UNITS"], &[&["--workers"]])
        };
        for (args, needle) in [
            (&["2000", "--sema"][..], "unknown flag --sema"),
            (&["2000", "--rule-cv"], "unknown flag --rule-cv"),
            (&["2000", "7"], "unexpected argument 7"),
        ] {
            let err = fig9(args).err().unwrap_or_else(|| panic!("{args:?} accepted"));
            assert!(err.contains(needle) && err.contains("UNITS --workers"), "{args:?}: {err}");
        }
        let err = parse(&["--sema=yes"]).err().expect("a switch takes no value");
        assert!(err.contains("--sema takes no value"), "{err}");
        assert_eq!(fig9(&["2000", "--workers", "2"]).unwrap().workers, 2);
    }

    #[test]
    fn cli_extracts_oracles_flag() {
        let off = parse(&["9000"]).unwrap();
        assert!(!off.oracles.enabled());

        let all = parse(&["--oracles", "9000"]).unwrap();
        assert_eq!(all.oracles, lego::OracleConfig::all());
        assert_eq!(all.positional, vec!["9000"]);

        let subset = parse(&["--oracles=tlp,norec"]).unwrap();
        assert!(subset.oracles.tlp && subset.oracles.norec && !subset.oracles.differential);
    }

    #[test]
    fn oracle_spec_parsing() {
        assert_eq!(parse_oracles("all"), Ok(lego::OracleConfig::all()));
        let d = parse_oracles("diff").unwrap();
        assert!(d.differential && !d.tlp && !d.norec);
        let recovery = parse_oracles("recovery,all").unwrap();
        assert!(recovery.tlp && recovery.norec && recovery.differential && recovery.recovery);
        assert!(parse_oracles("bogus").is_err());
        let spaced = parse_oracles(" tlp , differential ").unwrap();
        assert!(spaced.tlp && spaced.differential && !spaced.norec);
    }
}
