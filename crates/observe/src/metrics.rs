//! Aggregating metrics registry: counters, gauges, and histograms with
//! Prometheus-text and JSON export.
//!
//! Metric keys embed their labels Prometheus-style
//! (`lego_coverage_gains_total{op="insertion"}`) with label values escaped
//! per the exposition format, and every map is a `BTreeMap`, so exports are
//! deterministically ordered. The text export carries `# HELP` / `# TYPE`
//! metadata for every known metric family (pinned by a golden test).

use crate::event::Event;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Bucket upper bounds for the statements-per-case histogram.
const STMT_BUCKETS: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Bucket upper bounds for the per-case execution-latency histogram, in
/// microseconds (roughly exponential, 10 µs … 100 ms).
const LATENCY_BUCKETS: &[u64] = &[10, 25, 50, 100, 250, 500, 1_000, 5_000, 25_000, 100_000];

/// Bucket bounds for a histogram family. Unknown families get the generic
/// power-of-two ladder.
fn bucket_bounds(name: &str) -> &'static [u64] {
    match base_name(name) {
        "lego_exec_latency_us" => LATENCY_BUCKETS,
        "lego_case_stmts" => STMT_BUCKETS,
        _ => &[1, 2, 4, 8, 16, 32, 64, 128, 256],
    }
}

/// `# HELP` / `# TYPE` metadata for the standard campaign metric families,
/// keyed by base name (labels stripped).
fn metric_meta(base: &str) -> Option<(&'static str, &'static str)> {
    Some(match base {
        "lego_events_total" => ("counter", "Telemetry events routed to the registry, by type."),
        "lego_execs_total" => ("counter", "Test cases executed."),
        "lego_statements_total" => ("counter", "SQL statements executed."),
        "lego_statements_ok_total" => ("counter", "Statements the binder/executor accepted."),
        "lego_statements_err_total" => ("counter", "Statements rejected with a semantic error."),
        "lego_interesting_cases_total" => ("counter", "Cases that covered new branches."),
        "lego_mutations_total" => ("counter", "Mutants produced, by operator."),
        "lego_affinities_total" => ("counter", "Type-affinities discovered (Algorithm 2)."),
        "lego_synthesized_sequences_total" => ("counter", "Sequences synthesized (Algorithm 3)."),
        "lego_instantiated_cases_total" => ("counter", "Synthesized sequences instantiated."),
        "lego_coverage_gains_total" => ("counter", "Coverage-gaining cases, by operator."),
        "lego_coverage_gain_edges_total" => ("counter", "New edges gained, by operator."),
        "lego_rule_edges_total" => {
            ("counter", "New grammar-rule edges covered (--rule-cov campaigns).")
        }
        "lego_sema_rejects_total" => {
            ("counter", "Statements proven invalid by the static analyzer (--sema campaigns).")
        }
        "lego_sema_skipped_cases_total" => {
            ("counter", "Cases whose engine execution was skipped as statically invalid.")
        }
        "lego_sema_divergences_total" => {
            ("counter", "Deduplicated analyzer-vs-engine conformance divergences.")
        }
        "lego_bugs_total" => ("counter", "Deduplicated crash bugs."),
        "lego_logic_bugs_total" => ("counter", "Deduplicated oracle-flagged wrong-result bugs."),
        "lego_durability_bugs_total" => {
            ("counter", "Deduplicated recovery-oracle durability bugs.")
        }
        "lego_aborted_cases_total" => ("counter", "Cases killed by a per-case budget, by reason."),
        "lego_worker_deaths_total" => ("counter", "Worker threads that died mid-campaign."),
        "lego_checkpoints_written_total" => ("counter", "Campaign checkpoints persisted."),
        "lego_branches" => ("gauge", "Branches (edges) covered."),
        "lego_corpus_size" => ("gauge", "Seeds retained in the corpus."),
        "lego_queue_depth" => ("gauge", "Pending + synthesis scheduler backlog."),
        "lego_case_stmts" => ("histogram", "Statements per executed case."),
        "lego_exec_latency_us" => ("histogram", "Per-case execution wall time, microseconds."),
        _ => return None,
    })
}

/// The metric family name with any `{label="…"}` suffix stripped.
fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Escape a label value per the Prometheus text exposition format
/// (backslash, double quote, and newline).
pub fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Build a single-label metric key, escaping the label value.
pub fn labeled(name: &str, label: &str, value: &str) -> String {
    format!("{name}{{{label}=\"{}\"}}", escape_label(value))
}

#[derive(Clone, Debug)]
struct Histogram {
    /// Upper bounds, fixed per family at first observation.
    bounds: &'static [u64],
    /// Cumulative counts per bucket in `bounds` order, plus +Inf.
    buckets: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    fn new(bounds: &'static [u64]) -> Self {
        Self { bounds, buckets: vec![0; bounds.len() + 1], sum: 0, count: 0 }
    }

    fn observe(&mut self, v: u64) {
        for (i, &le) in self.bounds.iter().enumerate() {
            if v <= le {
                self.buckets[i] += 1;
            }
        }
        *self.buckets.last_mut().expect("+Inf bucket") += 1;
        self.sum += v;
        self.count += 1;
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Thread-safe metrics store. One registry typically serves a whole process
/// (all grid cells of an experiment binary feed the same registry).
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Registry>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        // Poison-tolerant: a panicking reader must never take the campaign's
        // metrics down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn inc(&self, name: &str, by: u64) {
        let mut r = self.lock();
        *r.counters.entry(name.to_string()).or_insert(0) += by;
    }

    pub fn set_gauge(&self, name: &str, v: f64) {
        let mut r = self.lock();
        r.gauges.insert(name.to_string(), v);
    }

    pub fn observe_histogram(&self, name: &str, v: u64) {
        let mut r = self.lock();
        let bounds = bucket_bounds(name);
        r.histograms.entry(name.to_string()).or_insert_with(|| Histogram::new(bounds)).observe(v);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// `(sum, count)` of a histogram family, if it has observations.
    pub fn histogram_stats(&self, name: &str) -> Option<(u64, u64)> {
        self.lock().histograms.get(name).map(|h| (h.sum, h.count))
    }

    /// Fold one event into the standard campaign metrics.
    pub fn observe_event(&self, ev: &Event) {
        self.inc(&labeled("lego_events_total", "type", ev.type_name()), 1);
        match ev {
            Event::ExecEnd { statements, ok, err, new_coverage, .. } => {
                self.inc("lego_execs_total", 1);
                self.inc("lego_statements_total", *statements);
                self.inc("lego_statements_ok_total", *ok);
                self.inc("lego_statements_err_total", *err);
                if *new_coverage {
                    self.inc("lego_interesting_cases_total", 1);
                }
                self.observe_histogram("lego_case_stmts", *statements);
            }
            Event::MutationApplied { op } => {
                self.inc(&labeled("lego_mutations_total", "op", op.name()), 1);
            }
            Event::AffinityDiscovered { .. } => self.inc("lego_affinities_total", 1),
            Event::SynthesisStep { sequences, instantiated, .. } => {
                self.inc("lego_synthesized_sequences_total", *sequences);
                self.inc("lego_instantiated_cases_total", *instantiated);
            }
            Event::CoverageGain { op, edges } => {
                self.inc(&labeled("lego_coverage_gains_total", "op", op.name()), 1);
                self.inc(&labeled("lego_coverage_gain_edges_total", "op", op.name()), *edges);
            }
            Event::RuleCoverageGain { edges, .. } => self.inc("lego_rule_edges_total", *edges),
            Event::BugFound { .. } => self.inc("lego_bugs_total", 1),
            Event::LogicBugFound { .. } => self.inc("lego_logic_bugs_total", 1),
            Event::DurabilityBugFound { .. } => self.inc("lego_durability_bugs_total", 1),
            Event::CaseAborted { reason, .. } => {
                self.inc(&labeled("lego_aborted_cases_total", "reason", reason), 1);
            }
            Event::WorkerDied { .. } => self.inc("lego_worker_deaths_total", 1),
            Event::CheckpointWritten { .. } => self.inc("lego_checkpoints_written_total", 1),
            Event::SemaVerdict { rejects, skipped, .. } => {
                self.inc("lego_sema_rejects_total", *rejects);
                if *skipped {
                    self.inc("lego_sema_skipped_cases_total", 1);
                }
            }
            Event::SemaDivergenceFound { .. } => self.inc("lego_sema_divergences_total", 1),
            Event::ExecStart { .. } => {}
        }
    }

    /// Prometheus text exposition format, with `# HELP` / `# TYPE` metadata
    /// emitted once per metric family.
    pub fn prometheus_text(&self) -> String {
        let r = self.lock();
        let mut out = String::new();
        let mut last_base = String::new();
        let mut meta = |out: &mut String, key: &str, kind: &str| {
            let base = base_name(key);
            if base != last_base {
                last_base = base.to_string();
                if let Some((ty, help)) = metric_meta(base) {
                    out.push_str(&format!("# HELP {base} {help}\n# TYPE {base} {ty}\n"));
                } else {
                    out.push_str(&format!("# TYPE {base} {kind}\n"));
                }
            }
        };
        for (k, v) in &r.counters {
            meta(&mut out, k, "counter");
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &r.gauges {
            meta(&mut out, k, "gauge");
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, h) in &r.histograms {
            meta(&mut out, k, "histogram");
            for (i, &le) in h.bounds.iter().enumerate() {
                out.push_str(&format!("{k}_bucket{{le=\"{le}\"}} {}\n", h.buckets[i]));
            }
            out.push_str(&format!(
                "{k}_bucket{{le=\"+Inf\"}} {}\n",
                h.buckets.last().copied().unwrap_or(0)
            ));
            out.push_str(&format!("{k}_sum {}\n", h.sum));
            out.push_str(&format!("{k}_count {}\n", h.count));
        }
        out
    }

    /// JSON export: `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    /// Histograms carry their bucket bounds so consumers need no side table.
    pub fn json(&self) -> String {
        let r = self.lock();
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in r.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(k, &mut out);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in r.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(k, &mut out);
            out.push(':');
            serde::Serialize::serialize_json(v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in r.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            serde::write_json_string(k, &mut out);
            out.push_str(&format!(":{{\"sum\":{},\"count\":{},\"le\":[", h.sum, h.count));
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("],\"buckets\":[");
            for (j, b) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&b.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MutOp;

    #[test]
    fn exec_end_updates_counters_and_histogram() {
        let m = MetricsRegistry::new();
        m.observe_event(&Event::ExecEnd {
            worker: 0,
            exec: 0,
            statements: 5,
            ok: 4,
            err: 1,
            new_coverage: true,
        });
        assert_eq!(m.counter("lego_execs_total"), 1);
        assert_eq!(m.counter("lego_statements_ok_total"), 4);
        assert_eq!(m.counter("lego_statements_err_total"), 1);
        assert_eq!(m.counter("lego_interesting_cases_total"), 1);
        let prom = m.prometheus_text();
        assert!(prom.contains("lego_case_stmts_bucket{le=\"8\"} 1"));
        assert!(prom.contains("lego_case_stmts_sum 5"));
    }

    #[test]
    fn labeled_counters_and_json_export() {
        let m = MetricsRegistry::new();
        m.observe_event(&Event::CoverageGain { op: MutOp::Insertion, edges: 7 });
        m.set_gauge("lego_branches", 42.0);
        assert_eq!(m.counter("lego_coverage_gains_total{op=\"insertion\"}"), 1);
        let json = m.json();
        assert!(json.contains("\"lego_coverage_gain_edges_total{op=\\\"insertion\\\"}\":7"));
        assert!(json.contains("\"lego_branches\":42.0"));
    }

    #[test]
    fn exports_are_deterministically_ordered() {
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for m in [&a, &b] {
            m.inc("z_total", 1);
            m.inc("a_total", 2);
            m.set_gauge("m_gauge", 1.5);
        }
        assert_eq!(a.prometheus_text(), b.prometheus_text());
        assert_eq!(a.json(), b.json());
        assert!(
            a.prometheus_text().find("a_total").unwrap()
                < a.prometheus_text().find("z_total").unwrap()
        );
    }

    #[test]
    fn exec_latency_histogram_uses_microsecond_buckets() {
        let m = MetricsRegistry::new();
        m.observe_histogram("lego_exec_latency_us", 40);
        m.observe_histogram("lego_exec_latency_us", 90_000);
        m.observe_histogram("lego_exec_latency_us", 2_000_000);
        let prom = m.prometheus_text();
        assert!(prom.contains("lego_exec_latency_us_bucket{le=\"50\"} 1"), "{prom}");
        assert!(prom.contains("lego_exec_latency_us_bucket{le=\"100000\"} 2"), "{prom}");
        assert!(prom.contains("lego_exec_latency_us_bucket{le=\"+Inf\"} 3"), "{prom}");
        assert!(prom.contains("lego_exec_latency_us_count 3"));
        assert_eq!(m.histogram_stats("lego_exec_latency_us"), Some((2_090_040, 3)));
        // JSON export carries the bounds alongside the cumulative buckets.
        assert!(m.json().contains("\"le\":[10,25,50,100,250,500,1000,5000,25000,100000]"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(labeled("m_total", "op", "we\"ird"), "m_total{op=\"we\\\"ird\"}");
        let m = MetricsRegistry::new();
        m.observe_event(&Event::CaseAborted {
            worker: 0,
            exec: 0,
            reason: "stmt\"quota".to_string(),
        });
        assert!(m
            .prometheus_text()
            .contains("lego_aborted_cases_total{reason=\"stmt\\\"quota\"} 1"));
    }

    #[test]
    fn help_and_type_lines_precede_families() {
        let m = MetricsRegistry::new();
        m.inc("lego_execs_total", 3);
        m.set_gauge("lego_branches", 10.0);
        m.observe_histogram("lego_case_stmts", 4);
        let prom = m.prometheus_text();
        let lines: Vec<&str> = prom.lines().collect();
        for family in ["lego_execs_total", "lego_branches", "lego_case_stmts"] {
            let help = lines
                .iter()
                .position(|l| l.starts_with(&format!("# HELP {family} ")))
                .expect(family);
            let ty = lines
                .iter()
                .position(|l| l.starts_with(&format!("# TYPE {family} ")))
                .expect(family);
            let sample = lines
                .iter()
                .position(|l| {
                    l.starts_with(&format!("{family} "))
                        || l.starts_with(&format!("{family}_bucket"))
                })
                .expect(family);
            assert!(help < ty, "{family}: HELP after TYPE");
            assert!(ty < sample, "{family}: sample before metadata");
        }
        assert!(prom.contains("# TYPE lego_case_stmts histogram"));
    }
}
