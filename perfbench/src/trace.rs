//! Traced mode. A [`Traced`] engine wraps each worker's `LegoFuzzer` and
//! times three things from the benchmark's side: `next_case` (generation),
//! `feedback`/`rule_feedback` (feedback), and the interval the campaign
//! spends on the case in between. The layers inside that interval run in
//! the campaign's own code, out of reach of a wrapper, so the wrapper calls
//! each enabled layer's public entry point on the same case, on instances
//! of its own that it drives through the same sequence of cases, and times
//! those calls. Its engine report must equal the one the campaign fed back,
//! so the replay is checked to do the campaign's work. The replay itself is
//! tracing overhead and is excluded from every layer and from
//! `campaign.other_s`, which is what is left of the wall time once the
//! named layers are taken out.

use crate::{engine, median, run_campaign, FirstCase, Metric, Workload, SETUP_BLOCK, SETUP_BLOCKS};
use lego::campaign::{CampaignStats, FuzzEngine, SEMA_AUDIT_EVERY};
use lego::fuzzer::LegoStats;
use lego::observe::Telemetry;
use lego::oracle::OracleSuite;
use lego::{reduce_case, LegoFuzzer};
use lego_coverage::{CovMap, CovRecorder, GlobalCoverage};
use lego_dbms::{Dbms, ExecReport, PANIC_BUG_ID};
use lego_sqlast::{Dialect, TestCase};
use lego_sqlsema::Sema;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocator that counts, per thread, the calls that hand out memory
/// (`alloc`, `alloc_zeroed`, `realloc`). Only the traced binary installs it,
/// so untraced runs pay nothing for it.
pub struct CountingAlloc;

fn count_alloc() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations this thread has made so far (0 without [`CountingAlloc`]).
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting beside it touches only a
// const-initialised thread-local integer, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Timed layers. `Interval` is the campaign's own time between `next_case`
/// and `feedback`; the layers after it are the replayed calls.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layer {
    Gen,
    Feedback,
    Interval,
    Dbms,
    Cov,
    RuleCov,
    Sema,
    Triage,
    Oracle,
}

const LAYERS: [(Layer, &str); 9] = [
    (Layer::Gen, "gen"),
    (Layer::Feedback, "feedback"),
    (Layer::Interval, "interval"),
    (Layer::Dbms, "dbms"),
    (Layer::Cov, "cov"),
    (Layer::RuleCov, "rulecov"),
    (Layer::Sema, "sema"),
    (Layer::Triage, "triage"),
    (Layer::Oracle, "oracle"),
];

/// Calls, busy time and allocations of one layer.
#[derive(Clone, Copy, Default)]
struct Acc {
    calls: u64,
    ns: u64,
    allocs: u64,
}

/// One recorded span, relative to the campaign's start.
struct Span {
    case: u32,
    layer: Layer,
    start_ns: u64,
    dur_ns: u64,
}

/// Everything one worker's wrapper recorded.
#[derive(Default)]
struct Recorder {
    worker: usize,
    acc: [Acc; LAYERS.len()],
    spans: Vec<Span>,
    feedback_ns: Vec<u64>,
    first: Option<Instant>,
    last: Option<Instant>,
    replay_ns: u64,
    accepted: u64,
    stmts: u64,
    stmts_ok: u64,
    stmts_err: u64,
    aborted: u64,
    cov_novel: u64,
    rule_novel: u64,
    rule_feedbacks: u64,
    sema_skipped: u64,
    oracle_checks: u64,
    triage_units: u64,
    /// The first few mismatches, for the error message, and their count.
    mismatches: Vec<String>,
    mismatch_count: usize,
    engine: LegoStats,
    affinities: usize,
}

impl Recorder {
    fn add(
        &mut self,
        layer: Layer,
        case: u32,
        base: Instant,
        t0: Instant,
        t1: Instant,
        allocs: u64,
    ) {
        let a = &mut self.acc[layer as usize];
        let dur_ns = t1.duration_since(t0).as_nanos() as u64;
        a.calls += 1;
        a.ns += dur_ns;
        a.allocs += allocs;
        let start_ns = t0.duration_since(base).as_nanos() as u64;
        self.spans.push(Span { case, layer, start_ns, dur_ns });
    }

    fn mismatch(&mut self, case: u32, what: String) {
        self.mismatch_count += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(format!("worker {} case {case}: {what}", self.worker));
        }
    }
}

/// The wrapper's own instances of every layer the campaign runs inside the
/// interval, fed the same cases in the same order.
struct Replay {
    dialect: Dialect,
    db: Dbms,
    cov: GlobalCoverage,
    rules: Option<(GlobalCoverage, CovMap)>,
    sema: Option<(Sema, usize)>,
    suite: Option<OracleSuite>,
    crashes: HashSet<u64>,
    logic: HashSet<u64>,
}

/// Traced engine wrapper for one worker. On drop it hands its recorder to
/// the campaign's collector.
pub struct Traced {
    inner: LegoFuzzer,
    replay: Replay,
    rec: Recorder,
    base: Instant,
    case: u32,
    after_next: Instant,
    rule_expected: bool,
    sink: Arc<Mutex<Vec<Recorder>>>,
}

impl Traced {
    fn new(
        w: &Workload,
        seed: u64,
        worker: usize,
        base: Instant,
        wal_dir: &Path,
        sink: Arc<Mutex<Vec<Recorder>>>,
    ) -> Traced {
        let suite = w
            .oracles
            .enabled()
            .then(|| OracleSuite::with_wal(w.dialect, w.oracles, Some(wal_dir), worker));
        Traced {
            inner: engine(w, seed, worker),
            replay: Replay {
                dialect: w.dialect,
                db: Dbms::new(w.dialect),
                cov: GlobalCoverage::new(),
                rules: w.rule_cov.then(|| (GlobalCoverage::new(), CovMap::new())),
                sema: w.sema.then(|| (Sema::new(w.dialect), 0)),
                suite,
                crashes: HashSet::new(),
                logic: HashSet::new(),
            },
            rec: Recorder { worker, ..Recorder::default() },
            base,
            case: 0,
            after_next: base,
            rule_expected: false,
            sink,
        }
    }

    /// Replay the campaign's work on `case` through each layer's public
    /// entry point, timing every call, and check that it matches what the
    /// campaign saw. Returns whether the campaign must call `rule_feedback`.
    fn replay(&mut self, case: &TestCase, report: &ExecReport, new_coverage: bool) -> bool {
        let (r, rec, base, n) = (&mut self.replay, &mut self.rec, self.base, self.case);
        if let Some((sema, audit)) = r.sema.as_mut() {
            let t0 = Instant::now();
            let verdicts = sema.check_sequence(&case.statements);
            rec.add(Layer::Sema, n, base, t0, Instant::now(), 0);
            if verdicts.rejects() > 0 {
                *audit += 1;
                if *audit % SEMA_AUDIT_EVERY != 0 {
                    rec.sema_skipped += 1;
                    if report.statements_executed != 0 || report.coverage.edge_count() != 0 {
                        rec.mismatch(n, "analyzer skip, but the campaign executed the case".into());
                    }
                    return false;
                }
            }
        }

        let (t0, a0) = (Instant::now(), allocs());
        r.db.reset();
        let mine = catch_unwind(AssertUnwindSafe(|| r.db.execute_case(case)))
            .unwrap_or_else(|_| ExecReport::engine_panic(r.dialect, "replay"));
        rec.add(Layer::Dbms, n, base, t0, Instant::now(), allocs() - a0);
        if let Some(diff) = report_diff(&mine, report) {
            rec.mismatch(n, format!("engine report differs: {diff}"));
        }
        rec.stmts += mine.statements_executed as u64;
        rec.stmts_ok += mine.stmts_ok as u64;
        rec.stmts_err += mine.stmts_err as u64;
        let aborted = report.aborted().is_some();
        rec.aborted += u64::from(aborted);

        let mut novel = false;
        if !aborted {
            let t0 = Instant::now();
            novel = r.cov.merge(&report.coverage);
            rec.add(Layer::Cov, n, base, t0, Instant::now(), 0);
            rec.cov_novel += u64::from(novel);
        }
        let mut rule_new = false;
        if let (Some((rules, spare)), false) = (r.rules.as_mut(), aborted) {
            let t0 = Instant::now();
            let recorder = CovRecorder::from_recycled(std::mem::take(spare));
            let (parsed, map) = lego_sqlparser::parse_script_traced(&case.to_sql(), recorder);
            rule_new = parsed.is_ok() && rules.merge(&map);
            *spare = map;
            rec.add(Layer::RuleCov, n, base, t0, Instant::now(), 0);
            rec.rule_novel += u64::from(rule_new);
        }
        if (novel || rule_new) != new_coverage {
            rec.mismatch(
                n,
                format!("novelty {} but the campaign said {new_coverage}", novel || rule_new),
            );
        }

        if let Some(crash) = report.crash() {
            if r.crashes.insert(crash.stack_hash()) && crash.bug_id != PANIC_BUG_ID {
                let t0 = Instant::now();
                let (_, spent) = reduce_case(case, r.dialect, crash);
                rec.add(Layer::Triage, n, base, t0, Instant::now(), 0);
                rec.triage_units += spent as u64;
            }
        }

        if let (Some(suite), true) = (r.suite.as_mut(), new_coverage && report.crash().is_none()) {
            let t0 = Instant::now();
            let out = suite.check_case(case);
            rec.oracle_checks += out.checks as u64;
            for bug in out.bugs {
                if r.logic.insert(bug.fingerprint()) {
                    lego_oracle::reduce::reduce_logic_bug(case, suite, &bug);
                }
            }
            rec.add(Layer::Oracle, n, base, t0, Instant::now(), 0);
        }
        r.db.recycle(mine.coverage);
        rule_new
    }
}

/// The first field in which two engine reports differ, if any.
fn report_diff(a: &ExecReport, b: &ExecReport) -> Option<&'static str> {
    if format!("{:?}", a.outcome) != format!("{:?}", b.outcome) {
        Some("outcome")
    } else if a.coverage.counts() != b.coverage.counts() {
        Some("coverage")
    } else if a.statements_executed != b.statements_executed || a.last_rows != b.last_rows {
        Some("statements or rows")
    } else if a.errors != b.errors || a.stmt_errors != b.stmt_errors {
        Some("errors")
    } else if a.stmts_ok != b.stmts_ok || a.stmts_err != b.stmts_err {
        Some("validity counts")
    } else {
        None
    }
}

impl FuzzEngine for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_case(&mut self) -> Arc<TestCase> {
        let (t0, a0) = (Instant::now(), allocs());
        self.rec.first.get_or_insert(t0);
        let case = self.inner.next_case();
        let t1 = Instant::now();
        self.rec.add(Layer::Gen, self.case, self.base, t0, t1, allocs() - a0);
        self.after_next = t1;
        case
    }

    fn feedback(&mut self, case: &Arc<TestCase>, report: &ExecReport, new_coverage: bool) {
        let t0 = Instant::now();
        self.rec.add(Layer::Interval, self.case, self.base, self.after_next, t0, 0);
        self.rule_expected = self.replay(case, report, new_coverage);
        let (t1, a1) = (Instant::now(), allocs());
        self.rec.replay_ns += t1.duration_since(t0).as_nanos() as u64;
        self.inner.feedback(case, report, new_coverage);
        let t2 = Instant::now();
        self.rec.add(Layer::Feedback, self.case, self.base, t1, t2, allocs() - a1);
        self.rec.feedback_ns.push(t2.duration_since(t1).as_nanos() as u64);
        self.rec.accepted += u64::from(new_coverage);
        self.rec.last = Some(t2);
        self.case += 1;
    }

    fn rule_feedback(&mut self, case: &Arc<TestCase>, new_rule_edges: usize) {
        if !std::mem::take(&mut self.rule_expected) {
            self.rec.mismatch(self.case, "unexpected rule_feedback".into());
        }
        let (t0, a0) = (Instant::now(), allocs());
        self.inner.rule_feedback(case, new_rule_edges);
        let t1 = Instant::now();
        self.rec.add(
            Layer::Feedback,
            self.case.saturating_sub(1),
            self.base,
            t0,
            t1,
            allocs() - a0,
        );
        self.rec.rule_feedbacks += 1;
        self.rec.last = Some(t1);
    }

    fn corpus(&self) -> Vec<Arc<TestCase>> {
        self.inner.corpus()
    }

    fn attach_telemetry(&mut self, tel: Telemetry) {
        self.inner.attach_telemetry(tel)
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        if std::mem::take(&mut self.rule_expected) {
            self.rec.mismatch(self.case, "rule_feedback was expected but never came".into());
        }
        let mut rec = std::mem::take(&mut self.rec);
        rec.engine = self.inner.stats.clone();
        rec.affinities = self.inner.affinity_count();
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(rec);
        }
    }
}

/// Medians over `SETUP_BLOCKS * SETUP_BLOCK` one-unit campaigns of the two parts of
/// set-up: building worker 0's engine, and the rest up to the first case.
pub fn setup_split(w: &Workload, seed: u64, wal_dir: &Path) -> Result<(f64, f64), String> {
    let (mut engine_s, mut rest_s) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_BLOCKS * SETUP_BLOCK {
        let first = Arc::new(Mutex::new(None));
        let built = Mutex::new(Duration::ZERO);
        let t0 = Instant::now();
        run_campaign(w, 1, wal_dir, |k| {
            let t = Instant::now();
            let inner = engine(w, seed, k);
            if k == 0 {
                *built.lock().expect("set-up probe lock") = t.elapsed();
            }
            Box::new(FirstCase { inner, first: Arc::clone(&first) })
        })?;
        let first = first.lock().expect("set-up probe lock").ok_or("no case was asked for")?;
        let built = built.lock().expect("set-up probe lock").as_secs_f64();
        engine_s.push(built);
        rest_s.push(first.duration_since(t0).as_secs_f64() - built);
    }
    Ok((median(&engine_s), median(&rest_s)))
}

/// Per-layer totals of a traced campaign.
#[derive(Default)]
pub struct Totals {
    acc: [Acc; LAYERS.len()],
    feedback_ns: Vec<u64>,
    accepted: u64,
    stmts: u64,
    stmts_ok: u64,
    stmts_err: u64,
    aborted: u64,
    cov_novel: u64,
    rule_novel: u64,
    sema_skipped: u64,
    oracle_checks: u64,
    triage_units: u64,
    mutants: u64,
    synth_cases: u64,
    synth_sequences: u64,
    synth_skipped: u64,
    queue_dropped: u64,
    affinities: u64,
    other_s: f64,
    untraced_s: f64,
    traced_s: f64,
    imbalance_pct: f64,
    join_s: f64,
    bugs: u64,
    failed: u64,
    execs: u64,
    spans: Vec<(usize, Span)>,
}

/// Run one traced campaign of `w` with `seed`. `untraced_s` is the wall
/// time of the same campaign run untraced. Returns the campaign's stats,
/// its per-layer totals and every replay mismatch.
pub fn traced_campaign(
    w: &Workload,
    seed: u64,
    wal_dir: &Path,
    untraced_s: f64,
) -> Result<(CampaignStats, Totals, Vec<String>), String> {
    let sink = Arc::new(Mutex::new(Vec::new()));
    let base = Instant::now();
    let stats = run_campaign(w, w.units, wal_dir, |k| {
        Box::new(Traced::new(w, seed, k, base, wal_dir, Arc::clone(&sink)))
    })?;
    let end = Instant::now();
    let mut recs = std::mem::take(&mut *sink.lock().map_err(|_| "recorder lock poisoned")?);
    recs.sort_by_key(|r| r.worker);
    if recs.len() != w.workers {
        return Err(format!("{} of {} worker recorders came back", recs.len(), w.workers));
    }

    let mut totals = Totals::default();
    let mut mismatches = Vec::new();
    let (mut layers_s, mut busy) = (0.0, Vec::new());
    let first = recs.iter().filter_map(|r| r.first).min().unwrap_or(end);
    let last = recs.iter().filter_map(|r| r.last).max().unwrap_or(first);
    let edges_s = first.duration_since(base).as_secs_f64() + end.duration_since(last).as_secs_f64();
    let mut span_s = edges_s;
    for mut r in recs {
        let window = match (r.first, r.last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        let replay_s = r.replay_ns as f64 * 1e-9;
        span_s += window - replay_s;
        busy.push(window - replay_s);
        for (i, (layer, _)) in LAYERS.iter().enumerate() {
            let a = r.acc[i];
            let t = &mut totals.acc[i];
            t.calls += a.calls;
            t.ns += a.ns;
            t.allocs += a.allocs;
            if *layer != Layer::Interval {
                layers_s += a.ns as f64 * 1e-9;
            }
        }
        totals.feedback_ns.append(&mut r.feedback_ns);
        totals.accepted += r.accepted;
        totals.stmts += r.stmts;
        totals.stmts_ok += r.stmts_ok;
        totals.stmts_err += r.stmts_err;
        totals.aborted += r.aborted;
        totals.cov_novel += r.cov_novel;
        totals.rule_novel += r.rule_novel;
        totals.sema_skipped += r.sema_skipped;
        totals.oracle_checks += r.oracle_checks;
        totals.triage_units += r.triage_units;
        let e = &r.engine;
        totals.mutants += (e.seq_mutants + e.conventional_mutants) as u64;
        totals.synth_cases += e.cases_instantiated as u64;
        totals.synth_sequences += e.sequences_synthesized as u64;
        totals.synth_skipped += e.sequences_skipped_covered as u64;
        totals.queue_dropped += e.queue_dropped as u64;
        totals.affinities += r.affinities as u64;
        if r.rule_feedbacks != r.rule_novel {
            mismatches.push(format!(
                "worker {}: {} rule_feedback calls for {} rule-novel cases",
                r.worker, r.rule_feedbacks, r.rule_novel
            ));
        }
        if r.mismatch_count > r.mismatches.len() {
            mismatches.push(format!("worker {}: {} mismatches in all", r.worker, r.mismatch_count));
        }
        mismatches.append(&mut r.mismatches);
        let worker = r.worker;
        totals.spans.extend(r.spans.into_iter().map(|s| (worker, s)));
    }
    // Campaign-loop time: what the named layers leave of the traced wall
    // time once the replay is taken out (summed over workers).
    totals.other_s = span_s - layers_s;
    if w.workers > 1 {
        let (lo, hi) = busy.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        totals.imbalance_pct = 100.0 * (hi - lo) / hi;
        totals.join_s = end.duration_since(last).as_secs_f64();
    }
    // The traced wall time without the replay: set-up, the slowest worker's
    // own work, and the join.
    totals.traced_s = edges_s + busy.iter().copied().fold(0.0, f64::max);
    totals.untraced_s = untraced_s;
    totals.bugs = crate::bug_count(&stats) as u64;
    totals.failed = crate::failed_cases(&stats) as u64;
    totals.execs = stats.execs as u64;
    Ok((stats, totals, mismatches))
}

fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn per(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// The `q`-quantile of `xs` (nearest rank), or an error when fewer than ten
/// samples lie beyond it.
fn quantile(xs: &mut [u64], q: f64) -> Result<f64, String> {
    xs.sort_unstable();
    let n = xs.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n - rank < 10 {
        return Err(format!("{n} samples are too few for a {q} quantile"));
    }
    Ok(xs[rank - 1] as f64)
}

impl Totals {
    /// Cases attempted and cases failed.
    pub fn cases(&self) -> (usize, usize) {
        (self.execs as usize, self.failed as usize)
    }

    fn layer(&self, l: Layer) -> Acc {
        self.acc[l as usize]
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    pub fn metrics(&mut self, setup: (f64, f64)) -> Result<Vec<Metric>, String> {
        let s = |ns: u64| ns as f64 * 1e-9;
        let (gen, fb, db) =
            (self.layer(Layer::Gen), self.layer(Layer::Feedback), self.layer(Layer::Dbms));
        let (cov, rule) = (self.layer(Layer::Cov), self.layer(Layer::RuleCov));
        let (sema, tri) = (self.layer(Layer::Sema), self.layer(Layer::Triage));
        let orc = self.layer(Layer::Oracle);
        let p50 = quantile(&mut self.feedback_ns, 0.50)? * 1e-3;
        let p99 = quantile(&mut self.feedback_ns, 0.99)? * 1e-3;
        let generated = self.mutants + self.synth_sequences;
        let m = |name, value, unit| Metric { name, value, unit };
        Ok(vec![
            m("gen.calls", gen.calls as f64, "count"),
            m("gen.busy_s", s(gen.ns), "s"),
            m("gen.us_per_case", per(s(gen.ns) * 1e6, gen.calls), "us/case"),
            m("gen.allocs_per_case", per(gen.allocs as f64, gen.calls), "allocs/case"),
            m("gen.mutants", self.mutants as f64, "count"),
            m("gen.synth_cases", self.synth_cases as f64, "count"),
            m("gen.drop_pct", pct(self.queue_dropped, generated), "%"),
            m("feedback.calls", fb.calls as f64, "count"),
            m("feedback.busy_s", s(fb.ns), "s"),
            m("feedback.p50_us", p50, "us"),
            m("feedback.p99_us", p99, "us"),
            m("feedback.allocs_per_call", per(fb.allocs as f64, fb.calls), "allocs/call"),
            m("feedback.accept_pct", pct(self.accepted, self.feedback_ns.len() as u64), "%"),
            m("synthesis.sequences", self.synth_sequences as f64, "count"),
            m("synthesis.skip_pct", pct(self.synth_skipped, self.synth_sequences), "%"),
            m("affinity.count", self.affinities as f64, "count"),
            m("dbms.calls", db.calls as f64, "count"),
            m("dbms.busy_s", s(db.ns), "s"),
            m("dbms.stmts", self.stmts as f64, "count"),
            m("dbms.ns_per_stmt", per(db.ns as f64, self.stmts), "ns/stmt"),
            m("dbms.allocs_per_stmt", per(db.allocs as f64, self.stmts), "allocs/stmt"),
            m("dbms.validity_pct", pct(self.stmts_ok, self.stmts_ok + self.stmts_err), "%"),
            m("dbms.aborted", self.aborted as f64, "count"),
            m("cov.calls", cov.calls as f64, "count"),
            m("cov.busy_s", s(cov.ns), "s"),
            m("cov.novel_pct", pct(self.cov_novel, cov.calls), "%"),
            m("triage.calls", tri.calls as f64, "count"),
            m("triage.busy_s", s(tri.ns), "s"),
            m("triage.units", self.triage_units as f64, "count"),
            m("oracle.calls", orc.calls as f64, "count"),
            m("oracle.busy_s", s(orc.ns), "s"),
            m("oracle.checks", self.oracle_checks as f64, "count"),
            m("rulecov.calls", rule.calls as f64, "count"),
            m("rulecov.busy_s", s(rule.ns), "s"),
            m("rulecov.novel_pct", pct(self.rule_novel, rule.calls), "%"),
            m("sema.calls", sema.calls as f64, "count"),
            m("sema.busy_s", s(sema.ns), "s"),
            m("sema.skip_pct", pct(self.sema_skipped, sema.calls), "%"),
            m("campaign.other_s", self.other_s, "s"),
            m("setup.engine_s", setup.0, "s"),
            m("setup.campaign_s", setup.1, "s"),
            m(
                "trace.overhead_pct",
                100.0 * (self.traced_s - self.untraced_s) / self.untraced_s,
                "%",
            ),
            m("parallel.imbalance_pct", self.imbalance_pct, "%"),
            m("parallel.join_s", self.join_s, "s"),
            m("bugs", self.bugs as f64, "count"),
            m("failed_pct", pct(self.failed, self.execs), "%"),
        ])
    }

    /// Write every span as a tab-separated line: worker, case, layer, start
    /// and duration in nanoseconds.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        let write = |out: &mut std::io::BufWriter<std::fs::File>| -> std::io::Result<()> {
            writeln!(out, "worker\tcase\tlayer\tstart_ns\tdur_ns")?;
            for (w, s) in &self.spans {
                let name = LAYERS[s.layer as usize].1;
                writeln!(out, "{w}\t{}\t{name}\t{}\t{}", s.case, s.start_ns, s.dur_ns)?;
            }
            out.flush()
        };
        write(&mut out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Where the span dump of a workload goes; one file per workload, replaced
/// by every traced run.
pub fn spans_path(work_dir: &Path, workload: &str) -> PathBuf {
    work_dir.join(format!("spans-{workload}.tsv"))
}
