//! # lego-observe — structured telemetry for LEGO fuzzing campaigns
//!
//! A lightweight event bus with pluggable sinks, an aggregating metrics
//! registry, a per-stage wall-clock profiler and a live terminal heartbeat.
//!
//! Design rules, in priority order:
//!
//! 1. **Zero-cost when disabled.** [`Telemetry::disabled`] is an `Option`
//!    that is `None`; every instrument method is one branch and the event
//!    constructor closure is never called.
//! 2. **Determinism is sacred.** Events carry logical time only, telemetry
//!    never touches the RNG streams or case ordering, and all timing lands
//!    in the [`profile::StageProfile`] which `deterministic_json` strips.
//! 3. **Workers stay independent.** Each parallel worker gets a
//!    [`Telemetry::worker_child`] that buffers its events locally; the
//!    parent merges the buffers in worker-index order at join, so the JSONL
//!    stream is identical run-to-run at a fixed seed and worker count.

pub mod event;
pub mod heartbeat;
pub mod http;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod timeseries;
pub mod trace;

pub use event::{Event, MutOp};
pub use heartbeat::{Heartbeat, LiveCounters};
pub use http::MonitorServer;
pub use metrics::MetricsRegistry;
pub use profile::{OperatorGain, Stage, StageAccum, StageEntry, StageProfile};
pub use sink::{BroadcastSink, EventSink, JsonlSink, MemorySink, NoopSink};
pub use timeseries::TimeSeriesRecorder;
pub use trace::TraceCollector;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Campaign identity stamped into bug artifacts.
#[derive(Clone, Debug, Default)]
struct Meta {
    seed: u64,
}

struct Inner {
    sinks: Vec<Arc<dyn EventSink>>,
    /// Real-time sinks (SSE broadcast). Unlike `sinks`, these are shared
    /// with worker children and receive events as they happen — a lossy
    /// *live view* for human observers, never part of the deterministic
    /// record (that is `sinks` + the ordered merge replay).
    live_sinks: Vec<Arc<dyn EventSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    /// Registry for direct wall-clock observations (exec-latency histogram,
    /// queue gauges). Shared with worker children — safe because these
    /// metrics are never derived from replayed events, so the merge cannot
    /// double count them.
    wall_metrics: Option<Arc<MetricsRegistry>>,
    stages: StageAccum,
    live: Arc<LiveCounters>,
    heartbeat: Option<Arc<Heartbeat>>,
    /// Chrome-trace span collector, shared with worker children (each child
    /// records onto its own track via `worker`).
    trace: Option<Arc<TraceCollector>>,
    /// Track id for trace spans: 0 for the parent/serial driver, worker
    /// index + offset handled by the collector for children.
    worker: usize,
    bug_dir: Option<PathBuf>,
    meta: Meta,
    /// Edge delta of the most recent interesting case, stashed by the
    /// campaign driver after the coverage union and consumed by
    /// [`Telemetry::record_gain`] for operator attribution.
    pending_edges: AtomicU64,
    /// Set on worker children: the buffer the parent drains at join.
    buffer: Option<Arc<MemorySink>>,
}

/// The cheap, clonable telemetry handle threaded through campaign, engine
/// and DBMS layers. `Telemetry::disabled()` is the default everywhere; all
/// instrumentation methods early-return on it.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: every instrument call is a single `None` check.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// Enabled with only the stage profiler — no sinks, no metrics, no
    /// heartbeat. Used by benches that want `stage_profile()` without the
    /// event-log overhead.
    pub fn profile_only() -> Self {
        TelemetryBuilder::new().build()
    }

    pub fn builder() -> TelemetryBuilder {
        TelemetryBuilder::new()
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit one event. The closure runs only when telemetry is enabled, so
    /// callers can build `String`s inside it without cost on the fast path.
    #[inline]
    pub fn emit(&self, f: impl FnOnce() -> Event) {
        if let Some(inner) = &self.inner {
            let ev = f();
            // Live counters and heartbeat are driven off the event stream so
            // the campaign hot loop has exactly one instrumentation call.
            match &ev {
                Event::ExecEnd { worker, ok, err, .. } => {
                    inner.live.record_exec(*worker, *ok, *err);
                    if let Some(hb) = &inner.heartbeat {
                        hb.tick(&inner.live);
                    }
                }
                Event::BugFound { .. } => inner.live.record_bug(),
                Event::LogicBugFound { .. } => inner.live.record_logic_bug(),
                Event::CaseAborted { .. } => inner.live.record_abort(),
                Event::RuleCoverageGain { edges, .. } => inner.live.add_rule_edges(*edges),
                _ => {}
            }
            inner.emit_now(&ev);
        }
    }

    /// Charge the wall time of `f` to `stage`. When disabled this is a bare
    /// call to `f` — no clock is read. When a trace collector or a metrics
    /// registry is attached, the same measurement also feeds the Chrome
    /// trace track for this worker and the `lego_exec_latency_us` histogram.
    #[inline]
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        match &self.inner {
            None => f(),
            Some(inner) => {
                let t0 = Instant::now();
                let out = f();
                let nanos = t0.elapsed().as_nanos() as u64;
                inner.stages.charge(stage, nanos);
                if let Some(tr) = &inner.trace {
                    tr.record(inner.worker, stage, t0, nanos);
                }
                if stage == Stage::Execution {
                    if let Some(m) = &inner.wall_metrics {
                        m.observe_histogram("lego_exec_latency_us", nanos / 1_000);
                    }
                }
                out
            }
        }
    }

    /// Stash the edge delta of the case that just gained coverage; consumed
    /// by the next [`record_gain`](Self::record_gain).
    pub fn set_pending_edges(&self, edges: u64) {
        if let Some(inner) = &self.inner {
            inner.pending_edges.store(edges, Ordering::Relaxed);
        }
    }

    /// Attribute the pending coverage gain to `op` and emit
    /// [`Event::CoverageGain`].
    pub fn record_gain(&self, op: MutOp) {
        if let Some(inner) = &self.inner {
            let edges = inner.pending_edges.swap(0, Ordering::Relaxed);
            inner.stages.record_gain(op, edges);
            let ev = Event::CoverageGain { op, edges };
            inner.emit_now(&ev);
        }
    }

    /// Publish the scheduler backlog (pending + synthesis queues) as a live
    /// gauge. Racy last-writer-wins across workers — a live view only.
    pub fn set_queue_depth(&self, depth: u64) {
        if let Some(inner) = &self.inner {
            inner.live.set_queued(depth);
            if let Some(m) = &inner.wall_metrics {
                m.set_gauge("lego_queue_depth", depth as f64);
            }
        }
    }

    /// Live progress from the campaign hot loop on an interesting case: the
    /// branch gauge is raised monotonically (parallel workers publish their
    /// local shard's edge count as a lower bound) and the corpus gauge is
    /// bumped by one retained seed.
    pub fn live_progress(&self, branches_lower_bound: u64) {
        if let Some(inner) = &self.inner {
            inner.live.raise_branches(branches_lower_bound);
            inner.live.bump_corpus();
        }
    }

    /// Update the live branch/corpus gauges (heartbeat + metrics).
    pub fn set_live_gauges(&self, branches: u64, corpus: u64) {
        if let Some(inner) = &self.inner {
            inner.live.set_branches(branches);
            inner.live.set_corpus(corpus);
            if let Some(m) = &inner.metrics {
                m.set_gauge("lego_branches", branches as f64);
                m.set_gauge("lego_corpus_size", corpus as f64);
            }
        }
    }

    /// Snapshot the stage profile, if enabled.
    pub fn stage_profile(&self) -> Option<StageProfile> {
        self.inner.as_ref().map(|i| i.stages.report())
    }

    /// The shared live counters, if enabled (for tests and status displays).
    pub fn live(&self) -> Option<&LiveCounters> {
        self.inner.as_ref().map(|i| &*i.live)
    }

    /// Clone of the shared live-counter handle, if enabled. The time-series
    /// recorder samples it from its own thread.
    pub fn live_arc(&self) -> Option<Arc<LiveCounters>> {
        self.inner.as_ref().map(|i| i.live.clone())
    }

    /// Metrics registry attached to this handle, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.as_ref().and_then(|i| i.metrics.as_ref())
    }

    /// Chrome-trace span collector attached to this handle, if any.
    pub fn trace_collector(&self) -> Option<&Arc<TraceCollector>> {
        self.inner.as_ref().and_then(|i| i.trace.as_ref())
    }

    /// Flush all sinks and print a final heartbeat line.
    pub fn finish(&self) {
        if let Some(inner) = &self.inner {
            if let Some(hb) = &inner.heartbeat {
                hb.finish(&inner.live);
            }
            for s in &inner.sinks {
                s.flush();
            }
        }
    }

    /// Derive the telemetry handle for one parallel worker. The child shares
    /// the parent's live counters and heartbeat (live introspection must see
    /// all workers) but buffers its events in a private [`MemorySink`] so the
    /// parent can merge the streams deterministically at join. The child has
    /// its own stage accumulator and no metrics registry (aggregation
    /// happens once, at merge — no double counting).
    pub fn worker_child(&self, worker: usize) -> Telemetry {
        match &self.inner {
            None => Telemetry::disabled(),
            Some(inner) => {
                let buffer = Arc::new(MemorySink::new());
                Telemetry {
                    inner: Some(Arc::new(Inner {
                        sinks: vec![buffer.clone()],
                        live_sinks: inner.live_sinks.clone(),
                        metrics: None,
                        wall_metrics: inner.wall_metrics.clone(),
                        stages: StageAccum::default(),
                        live: inner.live.clone(),
                        heartbeat: inner.heartbeat.clone(),
                        trace: inner.trace.clone(),
                        worker,
                        bug_dir: None,
                        meta: inner.meta.clone(),
                        pending_edges: AtomicU64::new(0),
                        buffer: Some(buffer),
                    })),
                }
            }
        }
    }

    /// Merge a worker child back into this (parent) handle: replay its
    /// buffered events into the parent's sinks and metrics, and absorb its
    /// stage/operator accumulators. Call in worker-index order for a
    /// deterministic merged stream. Live counters are NOT replayed — the
    /// child updated the shared ones in real time.
    pub fn merge_worker(&self, child: &Telemetry) {
        let (Some(inner), Some(child_inner)) = (&self.inner, &child.inner) else {
            return;
        };
        if let Some(buffer) = &child_inner.buffer {
            for ev in buffer.drain() {
                inner.forward(&ev);
            }
        }
        inner.stages.absorb(&child_inner.stages);
    }

    /// Write a replayable bug artifact under `<bug_dir>/<dialect>/<hash>.sql`
    /// and return its path. No-op unless `bug_artifacts` was configured.
    /// `fuzzer`/`dialect` are per-call because one telemetry handle can
    /// serve many campaign cells (experiment grids); the seed comes from
    /// [`TelemetryBuilder::seed`] and is the base seed in grid runs
    /// (per-cell seeds derive deterministically from it).
    pub fn dump_bug_artifact(
        &self,
        fuzzer: &str,
        dialect: &str,
        identifier: &str,
        stack_hash: u64,
        reduced_sql: &str,
    ) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let dir = inner.bug_dir.as_ref()?;
        let dialect = if dialect.is_empty() { "unknown" } else { dialect };
        let subdir = dir.join(dialect);
        std::fs::create_dir_all(&subdir).ok()?;
        let path = subdir.join(format!("{stack_hash:016x}.sql"));
        let mut body = String::with_capacity(reduced_sql.len() + 160);
        body.push_str("-- lego bug artifact\n");
        body.push_str(&format!("-- identifier: {identifier}\n"));
        body.push_str(&format!("-- dialect: {dialect}\n"));
        body.push_str(&format!("-- fuzzer: {fuzzer}\n"));
        body.push_str(&format!("-- seed: {:#x}\n", inner.meta.seed));
        body.push_str(&format!("-- stack_hash: {stack_hash:#018x}\n"));
        body.push_str(reduced_sql);
        if !reduced_sql.ends_with('\n') {
            body.push('\n');
        }
        std::fs::write(&path, body).ok()?;
        Some(path)
    }

    /// Write a replayable logic-bug artifact under
    /// `<bug_dir>/<dialect>/logic-<fingerprint>.sql` and return its path.
    /// The `logic-` prefix keeps wrong-result findings from colliding with
    /// crash artifacts (both key on a 64-bit hash). No-op unless
    /// `bug_artifacts` was configured.
    #[allow(clippy::too_many_arguments)]
    pub fn dump_logic_bug_artifact(
        &self,
        fuzzer: &str,
        dialect: &str,
        oracle: &str,
        fingerprint: u64,
        detail: &str,
        reduced_sql: &str,
    ) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let dir = inner.bug_dir.as_ref()?;
        let dialect = if dialect.is_empty() { "unknown" } else { dialect };
        let subdir = dir.join(dialect);
        std::fs::create_dir_all(&subdir).ok()?;
        let path = subdir.join(format!("logic-{fingerprint:016x}.sql"));
        let mut body = String::with_capacity(reduced_sql.len() + 200);
        body.push_str("-- lego logic-bug artifact\n");
        body.push_str(&format!("-- oracle: {oracle}\n"));
        body.push_str(&format!("-- dialect: {dialect}\n"));
        body.push_str(&format!("-- fuzzer: {fuzzer}\n"));
        body.push_str(&format!("-- seed: {:#x}\n", inner.meta.seed));
        body.push_str(&format!("-- fingerprint: {fingerprint:#018x}\n"));
        for line in detail.lines() {
            body.push_str(&format!("-- {line}\n"));
        }
        body.push_str(reduced_sql);
        if !reduced_sql.ends_with('\n') {
            body.push('\n');
        }
        std::fs::write(&path, body).ok()?;
        Some(path)
    }
}

impl Inner {
    /// Route one event to sinks and metrics (no live/heartbeat side
    /// effects — used both for fresh emits and for the worker merge replay).
    /// Live sinks are deliberately excluded: they got the event in real
    /// time via [`emit_now`](Self::emit_now), so replaying the merge here
    /// would deliver it twice.
    fn forward(&self, ev: &Event) {
        for s in &self.sinks {
            s.emit(ev);
        }
        if let Some(m) = &self.metrics {
            m.observe_event(ev);
        }
    }

    /// Route a *freshly produced* event: real-time delivery to live sinks
    /// (SSE) plus the deterministic `forward` path.
    fn emit_now(&self, ev: &Event) {
        for s in &self.live_sinks {
            s.emit(ev);
        }
        self.forward(ev);
    }
}

/// Builder for an enabled [`Telemetry`] handle.
#[derive(Default)]
pub struct TelemetryBuilder {
    sinks: Vec<Arc<dyn EventSink>>,
    live_sinks: Vec<Arc<dyn EventSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
    trace: Option<Arc<TraceCollector>>,
    heartbeat_workers: Option<usize>,
    bug_dir: Option<PathBuf>,
    meta: Meta,
}

impl TelemetryBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Log every event as one JSON object per line at `path`. Errors opening
    /// the file are returned so callers can report bad `--telemetry` paths.
    pub fn jsonl(mut self, path: &Path) -> std::io::Result<Self> {
        self.sinks.push(Arc::new(JsonlSink::create(path)?));
        Ok(self)
    }

    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Attach a real-time sink (e.g. [`BroadcastSink`] for `/events` SSE).
    /// Shared with worker children and fed as events happen — a lossy live
    /// view outside the deterministic merge-replay path.
    pub fn live_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.live_sinks.push(sink);
        self
    }

    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Record per-stage Chrome-trace spans into `collector` (exported via
    /// [`TraceCollector::write_chrome_trace`] at end of campaign).
    pub fn trace(mut self, collector: Arc<TraceCollector>) -> Self {
        self.trace = Some(collector);
        self
    }

    /// Print a ~1 Hz status line to stderr while the campaign runs.
    pub fn heartbeat(mut self, workers: usize) -> Self {
        self.heartbeat_workers = Some(workers.max(1));
        self
    }

    /// Dump replayable artifacts for deduplicated bugs under `dir`.
    pub fn bug_artifacts(mut self, dir: PathBuf) -> Self {
        self.bug_dir = Some(dir);
        self
    }

    /// Stamp the campaign's base RNG seed into bug artifacts.
    pub fn seed(mut self, seed: u64) -> Self {
        self.meta = Meta { seed };
        self
    }

    pub fn build(self) -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                sinks: self.sinks,
                live_sinks: self.live_sinks,
                wall_metrics: self.metrics.clone(),
                metrics: self.metrics,
                stages: StageAccum::default(),
                live: Arc::new(LiveCounters::new()),
                heartbeat: self.heartbeat_workers.map(|w| Arc::new(Heartbeat::new(w))),
                trace: self.trace,
                worker: 0,
                bug_dir: self.bug_dir,
                meta: self.meta,
                pending_edges: AtomicU64::new(0),
                buffer: None,
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_never_runs_the_closure() {
        let tel = Telemetry::disabled();
        assert!(!tel.enabled());
        tel.emit(|| panic!("closure must not run when disabled"));
        let v = tel.time(Stage::Execution, || 41 + 1);
        assert_eq!(v, 42);
        assert!(tel.stage_profile().is_none());
    }

    #[test]
    fn emit_routes_to_sinks_and_metrics_and_live() {
        let mem = Arc::new(MemorySink::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let tel = Telemetry::builder().sink(mem.clone()).metrics(metrics.clone()).build();
        tel.emit(|| Event::ExecEnd {
            worker: 0,
            exec: 0,
            statements: 3,
            ok: 2,
            err: 1,
            new_coverage: true,
        });
        assert_eq!(mem.len(), 1);
        assert_eq!(metrics.counter("lego_execs_total"), 1);
        assert_eq!(tel.live().unwrap().execs(), 1);
    }

    #[test]
    fn record_gain_consumes_pending_edges() {
        let mem = Arc::new(MemorySink::new());
        let tel = Telemetry::builder().sink(mem.clone()).build();
        tel.set_pending_edges(9);
        tel.record_gain(MutOp::Insertion);
        tel.record_gain(MutOp::Insertion); // no pending edges left
        let evs = mem.drain();
        assert_eq!(
            evs,
            vec![
                Event::CoverageGain { op: MutOp::Insertion, edges: 9 },
                Event::CoverageGain { op: MutOp::Insertion, edges: 0 },
            ]
        );
        let prof = tel.stage_profile().unwrap();
        let ins = prof.operator_gains.iter().find(|g| g.op == "insertion").unwrap();
        assert_eq!((ins.cases_with_new_coverage, ins.edges_gained), (2, 9));
    }

    #[test]
    fn worker_children_buffer_and_merge_in_order() {
        let mem = Arc::new(MemorySink::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let parent = Telemetry::builder().sink(mem.clone()).metrics(metrics.clone()).build();
        let c0 = parent.worker_child(0);
        let c1 = parent.worker_child(1);
        // Interleaved in wall time, merged in worker order.
        c1.emit(|| Event::WorkerDied { worker: 1, error: "boom".into() });
        c0.emit(|| Event::WorkerDied { worker: 0, error: "boom".into() });
        c0.emit(|| Event::ExecEnd {
            worker: 0,
            exec: 4,
            statements: 1,
            ok: 1,
            err: 0,
            new_coverage: false,
        });
        assert!(mem.is_empty(), "children must not write parent sinks directly");
        // Child exec already visible live (shared counters).
        assert_eq!(parent.live().unwrap().execs(), 1);
        parent.merge_worker(&c0);
        parent.merge_worker(&c1);
        let evs = mem.drain();
        assert_eq!(evs.len(), 3);
        assert!(matches!(evs[0], Event::WorkerDied { worker: 0, .. }));
        assert!(matches!(evs[2], Event::WorkerDied { worker: 1, .. }));
        // Metrics aggregated exactly once, at merge.
        assert_eq!(metrics.counter("lego_execs_total"), 1);
        assert_eq!(metrics.counter("lego_worker_deaths_total"), 2);
    }

    #[test]
    fn bug_artifact_is_written_with_header() {
        let dir = std::env::temp_dir().join("lego_observe_bug_test");
        let _ = std::fs::remove_dir_all(&dir);
        let tel = Telemetry::builder().bug_artifacts(dir.clone()).seed(0x1e60).build();
        let path = tel
            .dump_bug_artifact(
                "lego",
                "sqlite",
                "assert: btree",
                0xdead_beef,
                "CREATE TABLE t(a);\nSELECT a FROM t;",
            )
            .expect("artifact path");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(path.starts_with(dir.join("sqlite")));
        assert!(text.starts_with("-- lego bug artifact\n"));
        assert!(text.contains("-- identifier: assert: btree"));
        assert!(text.contains("-- seed: 0x1e60"));
        assert!(text.ends_with("SELECT a FROM t;\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_only_times_stages() {
        let tel = Telemetry::profile_only();
        assert!(tel.enabled());
        tel.time(Stage::Generation, || std::hint::black_box(1 + 1));
        let prof = tel.stage_profile().unwrap();
        let gen = prof.stages.iter().find(|e| e.stage == "generation").unwrap();
        assert_eq!(gen.calls, 1);
    }
}
