//! Campaign benchmark for the LEGO fuzzer: the workload table, the campaign
//! runner shared by the untraced and traced binaries, the output checks and
//! the result line. See `README.md` in this directory for the workloads, the
//! metrics and how they were made steady.

pub mod calib;
pub mod trace;

use calib::Kernel;
use lego::campaign::{run_campaign_parallel_sema, Budget, CampaignStats, FuzzEngine, ParallelOpts};
use lego::checkpoint::CheckpointCfg;
use lego::observe::Telemetry;
use lego::oracle::OracleKind;
use lego::{Config, LegoFuzzer, OracleConfig};
use lego_dbms::{Dbms, ExecReport, Outcome, PANIC_BUG_ID};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::{Sema, Verdict};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Set-up is under a millisecond, so one sample is at the mercy of a single
/// page fault or timer interrupt; `setup_s` is the median of
/// `SETUP_BLOCKS * SETUP_BLOCK` samples.
pub const SETUP_BLOCKS: usize = 10;
pub const SETUP_BLOCK: usize = 11;

/// One benchmark workload: a fixed-budget LEGO campaign, run back to back
/// with distinct seeds until the run's time is filled.
pub struct Workload {
    pub name: &'static str,
    pub dialect: Dialect,
    /// Statement-unit budget of each campaign.
    pub units: usize,
    /// 1 takes the serial loop; more shards the budget over worker threads.
    pub workers: usize,
    pub oracles: OracleConfig,
    pub rule_cov: bool,
    pub sema: bool,
    /// Seconds one campaign takes on the reference host (2-core Xeon VM).
    /// `--seconds` is divided by this to get the number of campaigns, so the
    /// work a run does depends only on its arguments, never on host speed.
    pub nominal_s: f64,
}

/// The workload table. Budgets matter beyond run length: per-case feedback
/// cost grows with campaign length, so the budget decides which layer a
/// workload loads (README.md, "Workloads").
pub fn workloads() -> Vec<Workload> {
    let off = OracleConfig::disabled();
    vec![
        Workload {
            name: "pg-long",
            dialect: Dialect::Postgres,
            units: 400_000,
            workers: 1,
            oracles: off,
            rule_cov: false,
            sema: false,
            nominal_s: 2.5,
        },
        Workload {
            name: "comdb2-grid",
            dialect: Dialect::Comdb2,
            units: 600_000,
            workers: 1,
            oracles: off,
            rule_cov: false,
            sema: false,
            nominal_s: 2.1,
        },
        Workload {
            name: "maria-layers",
            dialect: Dialect::MariaDb,
            units: 1_000_000,
            workers: 1,
            oracles: OracleConfig::all(),
            rule_cov: true,
            sema: true,
            nominal_s: 6.0,
        },
        Workload {
            name: "mysql-2w",
            dialect: Dialect::MySql,
            units: 800_000,
            workers: 2,
            oracles: off,
            rule_cov: false,
            sema: false,
            nominal_s: 2.3,
        },
    ]
}

/// Command-line arguments shared by both binaries.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Directory for the oracles' WAL files and the span dump.
    pub work_dir: PathBuf,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let (mut name, mut seed, mut seconds, mut work_dir) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => name = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    seconds = Some(value.parse().map_err(|e| format!("--seconds {value}: {e}"))?)
                }
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let name = name.ok_or("--workload is required")?;
        let seed = seed.ok_or("--seed is required")?;
        let seconds = seconds.ok_or("--seconds is required")?;
        let workload = workloads()
            .into_iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let work_dir: PathBuf = work_dir.ok_or("--work-dir is required")?;
        std::fs::create_dir_all(&work_dir)
            .map_err(|e| format!("create {}: {e}", work_dir.display()))?;
        Ok(Args { workload, seed, seconds, work_dir })
    }

    /// Seeds of the campaigns this run executes. The first is the workload
    /// seed itself, so campaign 0 of a serial workload is
    /// `lego_cli fuzz --seed <seed>` with the workload's options.
    pub fn campaign_seeds(&self) -> Vec<u64> {
        let n = (self.seconds / self.workload.nominal_s).round().max(1.0) as u64;
        (0..n).map(|i| if i == 0 { self.seed } else { splitmix64(self.seed ^ (i << 32)) }).collect()
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The LEGO engine of worker `worker` of a campaign seeded with `seed`
/// (same per-worker seed derivation as the experiment binaries).
pub fn engine(w: &Workload, seed: u64, worker: usize) -> LegoFuzzer {
    let rng_seed = seed ^ (worker as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let cfg = Config { rng_seed, rule_cov: w.rule_cov, sema: w.sema, ..Config::default() };
    LegoFuzzer::new(w.dialect, cfg)
}

/// Run one campaign of `w` through the public campaign entry point, with
/// `factory` building each worker's engine. With one worker this is the
/// serial loop.
pub fn run_campaign<F>(
    w: &Workload,
    units: usize,
    wal_dir: &Path,
    factory: F,
) -> Result<CampaignStats, String>
where
    F: Fn(usize) -> Box<dyn FuzzEngine + Send> + Sync,
{
    run_campaign_parallel_sema(
        factory,
        w.dialect,
        Budget::units(units),
        ParallelOpts { workers: w.workers, ..ParallelOpts::default() },
        &Telemetry::disabled(),
        w.oracles,
        &CheckpointCfg::disabled(),
        Some(wal_dir),
        w.rule_cov,
        w.sema,
    )
}

/// Engine wrapper that records when the campaign first asks for a case:
/// everything before that instant is set-up.
pub(crate) struct FirstCase {
    pub(crate) inner: LegoFuzzer,
    pub(crate) first: Arc<Mutex<Option<Instant>>>,
}

impl FuzzEngine for FirstCase {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        let now = Instant::now();
        self.first.lock().expect("set-up probe lock").get_or_insert(now);
        self.inner.next_case()
    }
    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.inner.feedback(case, report, new_coverage)
    }
    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        self.inner.rule_feedback(case, new_rule_edges)
    }
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.inner.attach_telemetry(tel)
    }
}

/// Set-up samples in reference-host seconds (see [`calib`]): the time from
/// entering the campaign entry point to its first `next_case`, over one-unit
/// campaigns. Each sample builds the engines, the DBMS, the coverage maps,
/// the enabled oracle suite and the analyzer. The host's speed swings by a
/// third within milliseconds here, so the samples come in short blocks
/// between calibration slices and each block is scaled by its own two.
pub fn setup_samples(
    w: &Workload,
    seed: u64,
    wal_dir: &Path,
    kernel: &mut Kernel,
) -> Result<Vec<f64>, String> {
    let mut scaled = Vec::with_capacity(SETUP_BLOCKS * SETUP_BLOCK);
    let mut before = kernel.slice();
    for _ in 0..SETUP_BLOCKS {
        let mut block = Vec::with_capacity(SETUP_BLOCK);
        for _ in 0..SETUP_BLOCK {
            let first = Arc::new(Mutex::new(None));
            let t0 = Instant::now();
            run_campaign(w, 1, wal_dir, |k| {
                Box::new(FirstCase { inner: engine(w, seed, k), first: Arc::clone(&first) })
            })?;
            let first = first.lock().expect("set-up probe lock").ok_or("no case was asked for")?;
            block.push(first.duration_since(t0).as_secs_f64());
        }
        let after = kernel.slice();
        let scale = calib::scale((before + after).as_secs_f64() / 2.0);
        scaled.extend(block.into_iter().map(|s| s * scale));
        before = after;
    }
    Ok(scaled)
}

/// Engine wrapper of the untraced run: every [`calib::SLICE_EVERY`] of wall
/// time it runs one calibration slice on the worker's own thread. The
/// kernel is built before the campaign starts and handed back on drop.
struct Calibrated {
    inner: LegoFuzzer,
    kernel: Option<Kernel>,
    next: Instant,
    home: Arc<Mutex<Vec<Option<Kernel>>>>,
    worker: usize,
}

impl FuzzEngine for Calibrated {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn next_case(&mut self) -> Arc<TestCase> {
        if let Some(kernel) = self.kernel.as_mut() {
            if Instant::now() >= self.next {
                kernel.slice();
                self.next = Instant::now() + calib::SLICE_EVERY;
            }
        }
        self.inner.next_case()
    }
    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        self.inner.feedback(case, report, new_coverage)
    }
    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        self.inner.rule_feedback(case, new_rule_edges)
    }
    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }
    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.inner.attach_telemetry(tel)
    }
}

impl Drop for Calibrated {
    fn drop(&mut self) {
        if let Some(kernel) = self.kernel.as_mut() {
            kernel.finished = Some(Instant::now());
        }
        if let Ok(mut home) = self.home.lock() {
            home[self.worker] = self.kernel.take();
        }
    }
}

/// Calibration kernels for the workers of the untraced campaigns, built
/// once per run.
pub struct Kernels(Arc<Mutex<Vec<Option<Kernel>>>>);

impl Kernels {
    pub fn new(workers: usize) -> Kernels {
        Kernels(Arc::new(Mutex::new((0..workers).map(|_| Some(Kernel::new())).collect())))
    }

    /// Run one full campaign of `w` with `seed`, interleaved with
    /// calibration slices. Returns its stats, its duration in reference-host
    /// seconds and its wall time. Each worker's time, from the start to the
    /// drop of its engine and without its slices, is scaled by its own mean
    /// slice time; the campaign takes as long as its slowest worker, plus
    /// the join after it, scaled like the workers on average.
    pub fn campaign(
        &self,
        w: &Workload,
        seed: u64,
        wal_dir: &Path,
    ) -> Result<(CampaignStats, f64, f64), String> {
        for k in self.0.lock().map_err(|_| "kernel lock poisoned")?.iter_mut().flatten() {
            k.reset();
        }
        let t0 = Instant::now();
        let stats = run_campaign(w, w.units, wal_dir, |k| {
            let kernel = self.0.lock().expect("kernel lock").get_mut(k).and_then(Option::take);
            let home = Arc::clone(&self.0);
            Box::new(Calibrated { inner: engine(w, seed, k), kernel, next: t0, home, worker: k })
        })?;
        let end = Instant::now();
        let kernels = self.0.lock().map_err(|_| "kernel lock poisoned")?;
        let mut slowest = 0.0f64;
        let mut last = t0;
        let mut scales = 0.0;
        for k in kernels.iter() {
            let k = k.as_ref().ok_or("a calibration kernel was not handed back")?;
            let finished = k.finished.ok_or("a worker never finished")?;
            if k.slices() == 0 {
                return Err("a worker ran no calibration slice".into());
            }
            let scale = calib::scale(k.mean_slice_s());
            let own = finished.duration_since(t0).saturating_sub(k.busy());
            slowest = slowest.max(own.as_secs_f64() * scale);
            last = last.max(finished);
            scales += scale;
        }
        let join = end.duration_since(last).as_secs_f64() * scales / kernels.len() as f64;
        Ok((stats, slowest + join, end.duration_since(t0).as_secs_f64()))
    }

    /// Worker 0's kernel, for calibrating set-up samples.
    pub fn with_first<T>(&self, f: impl FnOnce(&mut Kernel) -> T) -> Result<T, String> {
        let mut kernels = self.0.lock().map_err(|_| "kernel lock poisoned")?;
        let kernel = kernels[0].as_mut().ok_or("calibration kernel missing")?;
        Ok(f(kernel))
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Cases that did not complete: aborted by a per-case limit or ended in an
/// engine panic (deduplicated panic findings; a lower bound on panicking
/// cases). Lost workers are a check failure instead (see [`check_campaign`]).
pub fn failed_cases(stats: &CampaignStats) -> usize {
    stats.cases_aborted + stats.bugs.iter().filter(|b| b.crash.bug_id == PANIC_BUG_ID).count()
}

/// Findings of every kind: deduplicated crashes plus logic findings.
pub fn bug_count(stats: &CampaignStats) -> usize {
    stats.bugs.len() + stats.logic_bugs.len()
}

/// Output checks for one finished campaign. Returns one message per failed
/// check.
pub fn check_campaign(w: &Workload, stats: &CampaignStats, wal_dir: &Path) -> Vec<String> {
    let mut errors = Vec::new();
    if stats.units < w.units {
        errors.push(format!("used {} units of a {}-unit budget", stats.units, w.units));
    }
    if stats.workers_lost > 0 {
        errors.push(format!("{} worker(s) died", stats.workers_lost));
    }
    for bug in &stats.bugs {
        match reproduce_crash(w.dialect, &bug.reduced_sql) {
            Ok(id) if id == bug.crash.identifier => {}
            Ok(id) => errors.push(format!(
                "reduced reproducer of {} crashes as {id}: {}",
                bug.crash.identifier, bug.reduced_sql
            )),
            Err(e) => errors.push(format!("{}: {e}", bug.crash.identifier)),
        }
    }
    let mut suite = lego_oracle::OracleSuite::with_wal(w.dialect, w.oracles, Some(wal_dir), 0);
    for lb in &stats.logic_bugs {
        let case = match lego_sqlparser::parse_script(&lb.reduced_sql) {
            Ok(case) => case,
            Err(e) => {
                errors.push(format!("logic reproducer does not parse ({e}): {}", lb.reduced_sql));
                continue;
            }
        };
        let persists = if lb.bug.oracle == OracleKind::Sema {
            sema_diverges(w.dialect, &case)
        } else {
            suite.bug_persists(&case, lb.fingerprint())
        };
        if !persists {
            errors.push(format!(
                "{} finding no longer trips its oracle: {}",
                lb.bug.oracle.name(),
                lb.reduced_sql
            ));
        }
    }
    errors
}

/// Re-run a reduced crash reproducer on a fresh engine and return the
/// identifier of the crash it causes.
fn reproduce_crash(dialect: Dialect, sql: &str) -> Result<String, String> {
    let case = lego_sqlparser::parse_script(sql).map_err(|e| format!("does not parse: {e}"))?;
    let mut db = Dbms::new(dialect);
    let report = catch_unwind(AssertUnwindSafe(|| db.execute_case(&case)))
        .unwrap_or_else(|_| ExecReport::engine_panic(dialect, "replay"));
    report.crash().map(|c| c.identifier.clone()).ok_or_else(|| "no longer crashes".to_string())
}

/// Does the analyzer still disagree with the engine on some statement of a
/// case that ran to completion? The conformance oracle's own predicate.
fn sema_diverges(dialect: Dialect, case: &TestCase) -> bool {
    let verdicts = Sema::new(dialect).check_sequence(&case.statements).verdicts;
    let report = Dbms::new(dialect).execute_case(case);
    matches!(report.outcome, Outcome::Ok)
        && verdicts.iter().take(report.statements_executed).enumerate().any(|(i, v)| {
            let engine_err = report.stmt_errors.contains(&i);
            (v.verdict == Verdict::Accept && engine_err)
                || (v.verdict == Verdict::Reject && !engine_err)
        })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One named metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object, printed last on stdout. Only printed
/// when every check passed, so `correct` is always true here.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}
