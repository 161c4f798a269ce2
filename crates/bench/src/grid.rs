//! Grid-level campaign parallelism for the experiment binaries.
//!
//! The table/figure binaries run a grid of independent fuzzer×dialect×seed
//! campaign cells. [`run_grid`] fans those cells across a scoped thread
//! pool: each cell is a self-contained closure, workers pull the next
//! un-started cell from a shared counter, and results come back in cell
//! order — so the printed tables and JSON reports are byte-identical to a
//! serial run regardless of scheduling.

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

/// Command line shared by the experiment binaries: positional arguments plus
/// optional flags (any position):
///
/// - `--workers N` / `--workers=N` — grid thread count; falls back to
///   `LEGO_WORKERS`, then to the machine's parallelism.
/// - `--telemetry PATH` / `--telemetry=PATH` — JSONL event log destination;
///   falls back to the `LEGO_TELEMETRY` env var. Metrics exports land next
///   to the log (see [`crate::build_telemetry`]).
/// - `--heartbeat` — ~1 Hz live status line on stderr.
/// - `--oracles[=LIST]` — enable the correctness oracles. Bare `--oracles`
///   turns on the three logic oracles; `--oracles=tlp,norec,differential,recovery`
///   selects a subset (the recovery durability oracle is opt-in only).
/// - `--wal-dir PATH` / `--wal-dir=PATH` — directory for the per-worker
///   write-ahead-log files used by the recovery oracle; falls back to
///   `LEGO_WAL_DIR`, then to a per-process temp directory.
/// - `--serve ADDR` / `--serve=ADDR` — live monitoring HTTP server
///   (`/metrics`, `/status`, `/events`, `/healthz`); falls back to
///   `LEGO_SERVE`. Port `0` picks a free port (printed at startup).
///   Serving implies the time-series recorder.
/// - `--trace PATH` / `--trace=PATH` — Chrome-trace (Perfetto) stage-span
///   export written at exit; falls back to `LEGO_TRACE`.
/// - `--plot-data PATH` — AFL-style `plot_data.csv` destination (default
///   `results/<bin>/plot_data.csv` when serving).
/// - `--plot-every MS` — time-series sample cadence (default 1000 ms).
/// - `--rule-cov` — grammar-rule coverage feedback (second virgin map over
///   parser rule→rule edges; rule novelty widens corpus admission).
/// - `--sema` — static sequence analyzer (pre-execution validity skip,
///   dependency-aware mutation, analyzer-vs-engine conformance oracle).
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
}

/// Parse an `--oracles` value: a comma-separated subset of
/// `tlp`/`norec`/`differential`/`recovery` (`diff` accepted). `all` means
/// the three logic oracles — the recovery durability oracle is only enabled
/// when named explicitly. Unknown names are ignored rather than fatal —
/// experiment binaries treat flags leniently.
pub fn parse_oracles(spec: &str) -> lego::OracleConfig {
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
            _ => {}
        }
    }
    cfg
}

impl Cli {
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    fn from_args(args: impl Iterator<Item = String>) -> Self {
        let mut positional = Vec::new();
        let mut workers = None;
        let mut telemetry = None;
        let mut heartbeat = false;
        let mut oracles = lego::OracleConfig::disabled();
        let mut wal_dir = None;
        let mut serve = None;
        let mut trace = None;
        let mut plot_data = None;
        let mut plot_every_ms = None;
        let mut rule_cov = false;
        let mut sema = false;
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            if a == "--workers" {
                workers = args.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--workers=") {
                workers = v.parse().ok();
            } else if a == "--telemetry" {
                telemetry = args.next();
            } else if let Some(v) = a.strip_prefix("--telemetry=") {
                telemetry = Some(v.to_string());
            } else if a == "--heartbeat" {
                heartbeat = true;
            } else if a == "--oracles" {
                oracles = lego::OracleConfig::all();
            } else if let Some(v) = a.strip_prefix("--oracles=") {
                oracles = parse_oracles(v);
            } else if a == "--wal-dir" {
                wal_dir = args.next();
            } else if let Some(v) = a.strip_prefix("--wal-dir=") {
                wal_dir = Some(v.to_string());
            } else if a == "--serve" {
                serve = args.next();
            } else if let Some(v) = a.strip_prefix("--serve=") {
                serve = Some(v.to_string());
            } else if a == "--trace" {
                trace = args.next();
            } else if let Some(v) = a.strip_prefix("--trace=") {
                trace = Some(v.to_string());
            } else if a == "--plot-data" {
                plot_data = args.next();
            } else if let Some(v) = a.strip_prefix("--plot-data=") {
                plot_data = Some(v.to_string());
            } else if a == "--plot-every" {
                plot_every_ms = args.next().and_then(|v| v.parse().ok());
            } else if let Some(v) = a.strip_prefix("--plot-every=") {
                plot_every_ms = v.parse().ok();
            } else if a == "--rule-cov" {
                rule_cov = true;
            } else if a == "--sema" {
                sema = true;
            } else {
                positional.push(a);
            }
        }
        Self {
            positional,
            workers: workers.filter(|&w| w >= 1).unwrap_or_else(default_workers),
            telemetry: telemetry
                .or_else(|| std::env::var("LEGO_TELEMETRY").ok())
                .filter(|p| !p.is_empty()),
            heartbeat,
            oracles,
            wal_dir: wal_dir
                .or_else(|| std::env::var("LEGO_WAL_DIR").ok())
                .filter(|p| !p.is_empty()),
            serve: serve.or_else(|| std::env::var("LEGO_SERVE").ok()).filter(|a| !a.is_empty()),
            trace: trace.or_else(|| std::env::var("LEGO_TRACE").ok()).filter(|p| !p.is_empty()),
            plot_data: plot_data.filter(|p| !p.is_empty()),
            plot_every_ms: plot_every_ms.unwrap_or(1000).max(10),
            rule_cov,
            sema,
        }
    }

    /// Positional argument `i` parsed, or the default.
    pub fn arg<T: std::str::FromStr>(&self, i: usize, default: T) -> T {
        self.positional.get(i).and_then(|s| s.parse().ok()).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DONE: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..12usize)
            .map(|i| {
                Box::new(move || {
                    if i == 3 {
                        panic!("injected grid cell failure");
                    }
                    DONE.fetch_add(1, Ordering::Relaxed);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
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
        assert_eq!(DONE.load(Ordering::Relaxed), 11, "surviving cells must all run");
    }

    #[test]
    fn grid_handles_empty_and_fewer_jobs_than_workers() {
        assert_eq!(run_grid(Vec::<fn() -> u8>::new(), 4), Vec::<u8>::new());
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_grid(jobs, 16), vec![0, 1]);
    }

    #[test]
    fn cli_extracts_workers_flag_anywhere() {
        let cli = Cli::from_args(["20000", "--workers", "3", "2"].into_iter().map(String::from));
        assert_eq!(cli.workers, 3);
        assert_eq!(cli.positional, vec!["20000", "2"]);
        assert_eq!(cli.arg::<usize>(0, 7), 20000);
        assert_eq!(cli.arg::<usize>(5, 7), 7);

        let eq = Cli::from_args(["--workers=5"].into_iter().map(String::from));
        assert_eq!(eq.workers, 5);
        assert!(eq.positional.is_empty());
    }

    #[test]
    fn cli_extracts_telemetry_and_heartbeat_flags() {
        let cli = Cli::from_args(
            ["9000", "--telemetry", "/tmp/ev.jsonl", "--heartbeat", "4"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(cli.telemetry.as_deref(), Some("/tmp/ev.jsonl"));
        assert!(cli.heartbeat);
        assert_eq!(cli.positional, vec!["9000", "4"]);

        let eq = Cli::from_args(["--telemetry=x.jsonl"].into_iter().map(String::from));
        assert_eq!(eq.telemetry.as_deref(), Some("x.jsonl"));
        assert!(!eq.heartbeat);
    }

    #[test]
    fn cli_extracts_monitoring_flags() {
        let cli = Cli::from_args(
            ["9000", "--serve", "127.0.0.1:0", "--trace", "/tmp/t.json", "--plot-every", "250"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(cli.serve.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.trace.as_deref(), Some("/tmp/t.json"));
        assert_eq!(cli.plot_every_ms, 250);
        assert_eq!(cli.positional, vec!["9000"]);

        let eq = Cli::from_args(
            ["--serve=0.0.0.0:9100", "--trace=t.json", "--plot-data=p.csv"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(eq.serve.as_deref(), Some("0.0.0.0:9100"));
        assert_eq!(eq.trace.as_deref(), Some("t.json"));
        assert_eq!(eq.plot_data.as_deref(), Some("p.csv"));
        assert_eq!(eq.plot_every_ms, 1000, "default cadence");

        let off = Cli::from_args(["9000"].into_iter().map(String::from));
        assert!(off.serve.is_none() && off.trace.is_none() && off.plot_data.is_none());
    }

    #[test]
    fn cli_clamps_plot_cadence() {
        let cli = Cli::from_args(["--plot-every=1"].into_iter().map(String::from));
        assert!(cli.plot_every_ms >= 10, "sub-10ms cadence must be clamped");
    }

    #[test]
    fn cli_extracts_rule_cov_flag() {
        let on = Cli::from_args(["9000", "--rule-cov", "2"].into_iter().map(String::from));
        assert!(on.rule_cov);
        assert_eq!(on.positional, vec!["9000", "2"]);
        let off = Cli::from_args(["9000"].into_iter().map(String::from));
        assert!(!off.rule_cov);
    }

    #[test]
    fn cli_extracts_sema_flag() {
        let on = Cli::from_args(["9000", "--sema"].into_iter().map(String::from));
        assert!(on.sema);
        assert_eq!(on.positional, vec!["9000"]);
        let off = Cli::from_args(["9000"].into_iter().map(String::from));
        assert!(!off.sema);
    }

    #[test]
    fn cli_rejects_zero_workers() {
        let cli = Cli::from_args(["--workers", "0"].into_iter().map(String::from));
        assert!(cli.workers >= 1);
    }

    #[test]
    fn cli_extracts_oracles_flag() {
        let off = Cli::from_args(["9000"].into_iter().map(String::from));
        assert!(!off.oracles.enabled());

        let all = Cli::from_args(["--oracles", "9000"].into_iter().map(String::from));
        assert_eq!(all.oracles, lego::OracleConfig::all());
        assert_eq!(all.positional, vec!["9000"]);

        let subset = Cli::from_args(["--oracles=tlp,norec"].into_iter().map(String::from));
        assert!(subset.oracles.tlp && subset.oracles.norec && !subset.oracles.differential);
    }

    #[test]
    fn oracle_spec_parsing() {
        assert_eq!(parse_oracles("all"), lego::OracleConfig::all());
        let d = parse_oracles("diff");
        assert!(d.differential && !d.tlp && !d.norec);
        assert!(!parse_oracles("bogus").enabled());
        let spaced = parse_oracles(" tlp , differential ");
        assert!(spaced.tlp && spaced.differential && !spaced.norec);
    }
}
