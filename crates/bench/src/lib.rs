#![forbid(unsafe_code)]

//! Shared experiment plumbing for the table/figure reproduction binaries.
//!
//! Every binary prints a human-readable table mirroring the paper's artifact
//! and writes a machine-readable JSON report under `results/`.

pub mod grid;

use lego::campaign::{run, CampaignSpec, CampaignStats};
use lego::observe::http::MonitorConfig;
use lego::observe::{
    BroadcastSink, MetricsRegistry, MonitorServer, Telemetry, TimeSeriesRecorder, TraceCollector,
};
use lego_baselines::engine_by_name;
use lego_sqlast::Dialect;
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The standard "24-hour" campaign budget, in statement-execution units.
/// Chosen so a full fuzzer×DBMS grid runs in minutes on a laptop while the
/// coverage curves are already well past their knees.
pub const DAY_BUDGET_UNITS: usize = 400_000;

/// The "continuous fuzzing" budget for the Table I bug hunt (per RNG seed).
pub const CONTINUOUS_BUDGET_UNITS: usize = 1_500_000;

/// Default RNG seed for single-run experiments.
pub const DEFAULT_SEED: u64 = 0x1e60;

/// Fuzzers evaluated on a dialect (paper § V-A: SQLsmith officially supports
/// only PostgreSQL syntax, so it is compared there alone).
pub fn fuzzer_names(dialect: Dialect) -> Vec<&'static str> {
    match dialect {
        Dialect::Postgres => vec!["LEGO", "SQUIRREL", "SQLancer", "SQLsmith"],
        _ => vec!["LEGO", "SQUIRREL", "SQLancer"],
    }
}

/// Run one fuzzer×dialect campaign as `spec` describes, reporting through
/// `tel` (shareable across grid cells: sinks are line-atomic and metrics
/// aggregate across cells). Worker `w` gets seed `seed ^ w·φ`, so worker 0
/// reproduces the serial stream and a one-worker spec is a serial campaign.
pub fn campaign(fuzzer: &str, spec: &CampaignSpec, seed: u64, tel: &Telemetry) -> CampaignStats {
    run(spec, tel, |w| {
        engine_by_name(fuzzer, spec.dialect, seed ^ (w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    })
    .expect("a campaign without checkpoints cannot fail")
}

/// A configured telemetry handle plus the monitoring-plane resources that
/// must be torn down (exports written, server stopped) when
/// [`TelemetryGuard::finish`] is called at process exit.
pub struct TelemetryGuard {
    pub tel: Telemetry,
    metrics: Option<Arc<MetricsRegistry>>,
    /// `<event log path minus extension>` — exports land at
    /// `<base>.metrics.json` and `<base>.prom`.
    export_base: Option<PathBuf>,
    server: Option<MonitorServer>,
    recorder: Option<TimeSeriesRecorder>,
    trace: Option<(Arc<TraceCollector>, PathBuf)>,
}

impl TelemetryGuard {
    fn disabled() -> Self {
        Self {
            tel: Telemetry::disabled(),
            metrics: None,
            export_base: None,
            server: None,
            recorder: None,
            trace: None,
        }
    }

    /// The address the monitoring server actually bound (port 0 resolved),
    /// when `--serve` was given.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.server.as_ref().map(|s| s.local_addr())
    }

    /// Flush sinks, print the final heartbeat, close out the time series
    /// and trace exports, write the metrics exports next to the event log,
    /// and stop the monitoring server.
    pub fn finish(&mut self) {
        self.tel.finish();
        if let Some(recorder) = &mut self.recorder {
            recorder.finish();
        }
        if let Some((collector, path)) = self.trace.take() {
            match collector.write_chrome_trace(&path) {
                Ok(spans) => {
                    println!("[trace: {spans} spans written to {}]", path.display());
                    if collector.dropped() > 0 {
                        println!("[trace: {} spans dropped at cap]", collector.dropped());
                    }
                }
                Err(e) => eprintln!("[trace: cannot write {}: {e}]", path.display()),
            }
        }
        if let (Some(m), Some(base)) = (&self.metrics, &self.export_base) {
            let json = base.with_extension("metrics.json");
            let prom = base.with_extension("prom");
            if std::fs::write(&json, m.json()).is_ok() {
                println!("[telemetry metrics written to {}]", json.display());
            }
            let _ = std::fs::write(&prom, m.prometheus_text());
        }
        if let Some(mut server) = self.server.take() {
            // CI smoke tests race short campaigns against curl; an optional
            // linger keeps the endpoints up after the run completes.
            if let Some(ms) =
                std::env::var("LEGO_SERVE_LINGER_MS").ok().and_then(|v| v.parse::<u64>().ok())
            {
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            server.shutdown();
        }
    }
}

/// Everything the monitoring plane needs to know. [`MonitorOpts::from_cli`]
/// fills it from the command line; a binary overrides what it sets per run.
pub struct MonitorOpts {
    pub event_log: Option<PathBuf>,
    pub heartbeat: bool,
    pub workers: usize,
    pub seed: u64,
    /// Listen address for the live HTTP server (`--serve`).
    pub serve: Option<String>,
    /// Chrome-trace output path (`--trace`).
    pub trace: Option<PathBuf>,
    /// Explicit plot-data CSV path; `--serve` defaults it to
    /// `results/<run>/plot_data.csv`.
    pub plot_data: Option<PathBuf>,
    pub plot_every_ms: u64,
    /// Run label shown in `/status` and used for the default plot path.
    pub run_name: String,
}

impl MonitorOpts {
    /// Fill from the command-line flags.
    pub fn from_cli(cli: &grid::Cli, seed: u64) -> Self {
        Self {
            event_log: cli.telemetry.as_deref().map(PathBuf::from),
            heartbeat: cli.heartbeat,
            workers: cli.workers,
            seed,
            serve: cli.serve.clone(),
            trace: cli.trace.as_deref().map(PathBuf::from),
            plot_data: cli.plot_data.as_deref().map(PathBuf::from),
            plot_every_ms: cli.plot_every_ms,
            run_name: run_name_from_arg0(),
        }
    }

    fn any_enabled(&self) -> bool {
        self.event_log.is_some()
            || self.heartbeat
            || self.serve.is_some()
            || self.trace.is_some()
            || self.plot_data.is_some()
    }
}

/// The invoking binary's file stem — the default run label.
fn run_name_from_arg0() -> String {
    std::env::args()
        .next()
        .as_deref()
        .map(Path::new)
        .and_then(Path::file_stem)
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "lego".into())
}

/// Build the experiment-binary telemetry handle from the shared CLI flags:
/// disabled unless `--telemetry`/`LEGO_TELEMETRY`, `--heartbeat`, or one of
/// the monitoring flags (`--serve`/`LEGO_SERVE`, `--trace`/`LEGO_TRACE`,
/// `--plot-data`) was given. With an event-log path, events stream to
/// `<path>` as JSONL, a metrics registry aggregates them (exported by
/// [`TelemetryGuard::finish`]), and deduplicated bug artifacts are dumped
/// under `results/bugs/<dialect>/`.
pub fn build_telemetry(cli: &grid::Cli, seed: u64) -> TelemetryGuard {
    build_monitored(MonitorOpts::from_cli(cli, seed))
}

/// Assemble the full telemetry + monitoring plane described by `opts`.
///
/// The monitoring plane is strictly read-side: the campaign's event stream,
/// findings, and checkpoints are byte-identical whether or not a server,
/// recorder, or trace collector is attached (`crates/core/tests/monitor.rs`
/// pins this).
pub fn build_monitored(opts: MonitorOpts) -> TelemetryGuard {
    if !opts.any_enabled() {
        return TelemetryGuard::disabled();
    }
    let mut builder = Telemetry::builder().seed(opts.seed);
    let mut metrics = None;
    let mut export_base = None;
    if let Some(path) = &opts.event_log {
        builder = match builder.jsonl(path) {
            Ok(b) => b,
            Err(e) => panic!("cannot open telemetry log {}: {e}", path.display()),
        };
        export_base = Some(path.with_extension(""));
        builder = builder.bug_artifacts(results_dir().join("bugs"));
    }
    // /metrics needs a registry even without an event log (it is fed by the
    // same per-event observer plus direct wall-clock observations).
    if opts.event_log.is_some() || opts.serve.is_some() {
        let registry = Arc::new(MetricsRegistry::new());
        builder = builder.metrics(registry.clone());
        metrics = Some(registry);
    }
    if opts.heartbeat {
        builder = builder.heartbeat(opts.workers);
    }
    let broadcast = opts.serve.as_ref().map(|_| Arc::new(BroadcastSink::new()));
    if let Some(b) = &broadcast {
        builder = builder.live_sink(b.clone());
    }
    let trace = opts.trace.as_ref().map(|path| {
        let collector = Arc::new(TraceCollector::new());
        (collector, path.clone())
    });
    if let Some((collector, _)) = &trace {
        builder = builder.trace(collector.clone());
    }
    let tel = builder.build();

    let server = opts.serve.as_ref().and_then(|addr| {
        let config = MonitorConfig {
            run_name: opts.run_name.clone(),
            workers: opts.workers,
            seed: opts.seed,
            extra: Vec::new(),
        };
        match MonitorServer::bind(addr, tel.clone(), broadcast.clone(), config) {
            Ok(server) => {
                println!("[monitor listening on http://{}]", server.local_addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("[monitor: cannot bind {addr}: {e} — continuing unserved]");
                None
            }
        }
    });

    // `--serve` implies the time-series recorder: live dashboards and
    // post-hoc plots come from the same sampler.
    let plot_path = opts.plot_data.clone().or_else(|| {
        opts.serve.as_ref().map(|_| results_dir().join(&opts.run_name).join("plot_data.csv"))
    });
    let recorder = plot_path.and_then(|path| {
        let live = tel.live_arc()?;
        match TimeSeriesRecorder::start(&path, opts.plot_every_ms, live) {
            Ok(r) => {
                println!("[plot data recording to {}]", path.display());
                Some(r)
            }
            Err(e) => {
                eprintln!("[plot data: cannot open {}: {e}]", path.display());
                None
            }
        }
    });

    TelemetryGuard { tel, metrics, export_base, server, recorder, trace }
}

/// The repository root (where `BENCH_*.json` artifacts land).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root")
}

/// Where experiment outputs land.
pub fn results_dir() -> PathBuf {
    let dir = repo_root().join("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Persist a JSON report next to the printed table.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    std::fs::write(&path, json).expect("write report");
    println!("\n[report written to {}]", path.display());
}

/// Percentage by which `a` exceeds `b`.
pub fn pct_more(a: usize, b: usize) -> f64 {
    if b == 0 {
        return 0.0;
    }
    (a as f64 - b as f64) / b as f64 * 100.0
}

/// Render a simple aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i.min(widths.len() - 1)]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqlsmith_only_on_postgres() {
        assert!(fuzzer_names(Dialect::Postgres).contains(&"SQLsmith"));
        assert!(!fuzzer_names(Dialect::MySql).contains(&"SQLsmith"));
    }

    #[test]
    fn pct_more_basics() {
        assert_eq!(pct_more(150, 100), 50.0);
        assert_eq!(pct_more(100, 0), 0.0);
    }

    #[test]
    fn tiny_campaign_runs_for_every_pair() {
        for d in Dialect::ALL {
            for f in fuzzer_names(d) {
                let spec = CampaignSpec::new(d, lego::Budget::units(3_000));
                let stats = campaign(f, &spec, 1, &Telemetry::disabled());
                assert!(stats.branches > 0, "{f} on {d:?}");
            }
        }
    }
}
