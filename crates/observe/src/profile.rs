//! Per-stage wall-clock profiling with scoped timers.
//!
//! The campaign driver and the engine both charge elapsed time to a
//! [`Stage`] through [`crate::Telemetry::time`]; the accumulators are plain
//! atomics, so worker threads charge concurrently without locks and the
//! parallel join sums per-worker accumulators in worker order. When
//! telemetry is disabled the timer call is a single branch around the
//! closure — no `Instant::now` is taken.

use crate::event::MutOp;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// The campaign pipeline stages whose wall time is profiled.
///
/// `Mutation` is charged from *inside* the engine while the driver is
/// charging `Generation` (scheduling + queue management + mutation +
/// instantiation), so `Mutation` is a nested subset of `Generation`;
/// `Generation` minus `Mutation` is the scheduling and synthesis
/// instantiation. The remaining stages are disjoint top-level slices of
/// the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// `FuzzEngine::next_case` — scheduling, mutation and instantiation.
    Generation,
    /// Engine-internal mutant construction (subset of `Generation`): one
    /// call per refill of LEGO's mutation queue, covering the Algorithm 1
    /// mutants and the conventional mutants, each with its `fix_case`.
    Mutation,
    /// `Dbms::execute_case`.
    Execution,
    /// Merging per-case coverage into the global/shard map (+ worker sync).
    CoverageUnion,
    /// Crash dedup and delta-debugging reduction of new bugs.
    Dedup,
    /// `FuzzEngine::feedback` — affinity analysis and synthesis.
    Feedback,
    /// Logic-bug oracle checks (TLP / NoREC / differential replays) plus
    /// logic-bug reduction.
    Oracle,
    /// Recovery-oracle checks: WAL-attached prefix execution, crash
    /// simulation, log scan and replay.
    Recovery,
    /// Campaign snapshot serialization + checkpoint file I/O.
    Checkpoint,
    /// Static sequence analysis (`lego_sqlsema`) under `--sema`: binder
    /// verdicts plus the analyzer-vs-engine conformance comparison.
    Sema,
    /// Grammar-rule coverage under `--rule-cov`: tracing each executed
    /// case's rule edges and merging them into the rule map.
    RuleCoverage,
}

pub const STAGE_COUNT: usize = 11;

impl Stage {
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Generation,
        Stage::Mutation,
        Stage::Execution,
        Stage::CoverageUnion,
        Stage::Dedup,
        Stage::Feedback,
        Stage::Oracle,
        Stage::Recovery,
        Stage::Checkpoint,
        Stage::Sema,
        Stage::RuleCoverage,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Generation => "generation",
            Stage::Mutation => "mutation",
            Stage::Execution => "execution",
            Stage::CoverageUnion => "coverage_union",
            Stage::Dedup => "dedup",
            Stage::Feedback => "feedback",
            Stage::Oracle => "oracle",
            Stage::Recovery => "recovery",
            Stage::Checkpoint => "checkpoint",
            Stage::Sema => "sema",
            Stage::RuleCoverage => "rule_coverage",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Stage::Generation => 0,
            Stage::Mutation => 1,
            Stage::Execution => 2,
            Stage::CoverageUnion => 3,
            Stage::Dedup => 4,
            Stage::Feedback => 5,
            Stage::Oracle => 6,
            Stage::Recovery => 7,
            Stage::Checkpoint => 8,
            Stage::Sema => 9,
            Stage::RuleCoverage => 10,
        }
    }

    /// Whether this stage is a disjoint top-level slice of the campaign
    /// loop (share percentages are computed over these only).
    fn top_level(self) -> bool {
        self != Stage::Mutation
    }
}

/// Lock-free per-stage accumulators (nanoseconds + call counts) plus the
/// per-operator coverage-gain attribution counters.
#[derive(Default)]
pub struct StageAccum {
    ns: [AtomicU64; STAGE_COUNT],
    calls: [AtomicU64; STAGE_COUNT],
    gain_cases: [AtomicU64; MutOp::ALL.len()],
    gain_edges: [AtomicU64; MutOp::ALL.len()],
}

impl StageAccum {
    pub fn charge(&self, stage: Stage, nanos: u64) {
        let i = stage.index();
        self.ns[i].fetch_add(nanos, Ordering::Relaxed);
        self.calls[i].fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_gain(&self, op: MutOp, edges: u64) {
        let i = op.index();
        self.gain_cases[i].fetch_add(1, Ordering::Relaxed);
        self.gain_edges[i].fetch_add(edges, Ordering::Relaxed);
    }

    /// Fold another accumulator into this one (parallel join).
    pub fn absorb(&self, other: &StageAccum) {
        for i in 0..STAGE_COUNT {
            self.ns[i].fetch_add(other.ns[i].load(Ordering::Relaxed), Ordering::Relaxed);
            self.calls[i].fetch_add(other.calls[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        for i in 0..MutOp::ALL.len() {
            self.gain_cases[i]
                .fetch_add(other.gain_cases[i].load(Ordering::Relaxed), Ordering::Relaxed);
            self.gain_edges[i]
                .fetch_add(other.gain_edges[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Snapshot into the serializable report.
    pub fn report(&self) -> StageProfile {
        let top_total_ns: u64 = Stage::ALL
            .iter()
            .filter(|s| s.top_level())
            .map(|s| self.ns[s.index()].load(Ordering::Relaxed))
            .sum();
        let stages = Stage::ALL
            .iter()
            .map(|&s| {
                let ns = self.ns[s.index()].load(Ordering::Relaxed);
                StageEntry {
                    stage: s.name().to_string(),
                    calls: self.calls[s.index()].load(Ordering::Relaxed),
                    total_ms: ns as f64 / 1e6,
                    share_pct: if top_total_ns == 0 {
                        0.0
                    } else {
                        ns as f64 * 100.0 / top_total_ns as f64
                    },
                }
            })
            .collect();
        let operator_gains = MutOp::ALL
            .iter()
            .map(|&op| OperatorGain {
                op: op.name().to_string(),
                cases_with_new_coverage: self.gain_cases[op.index()].load(Ordering::Relaxed),
                edges_gained: self.gain_edges[op.index()].load(Ordering::Relaxed),
            })
            .collect();
        StageProfile { stages, operator_gains }
    }
}

/// One profiled stage in the report.
#[derive(Clone, Debug, Serialize)]
pub struct StageEntry {
    pub stage: String,
    pub calls: u64,
    pub total_ms: f64,
    /// Share of the summed top-level stage time. `mutation` is a nested
    /// subset of `generation`, so shares exclude it from the denominator.
    pub share_pct: f64,
}

/// Per-operator attribution of coverage gains: which operator's cases
/// produced new edges, and how many.
#[derive(Clone, Debug, Serialize)]
pub struct OperatorGain {
    pub op: String,
    pub cases_with_new_coverage: u64,
    pub edges_gained: u64,
}

/// The wall-clock breakdown of one campaign, attached to `CampaignStats` as
/// the optional `stage_profile` section. Timing-bearing, so it is stripped
/// from `CampaignStats::deterministic_json`.
#[derive(Clone, Debug, Serialize)]
pub struct StageProfile {
    pub stages: Vec<StageEntry>,
    pub operator_gains: Vec<OperatorGain>,
}

impl StageProfile {
    /// The top-level stage with the largest share — "where did the time go".
    pub fn hottest_stage(&self) -> Option<&StageEntry> {
        self.stages
            .iter()
            .filter(|e| e.stage != "mutation")
            .max_by(|a, b| a.total_ms.total_cmp(&b.total_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_are_computed_over_top_level_stages() {
        let acc = StageAccum::default();
        acc.charge(Stage::Generation, 3_000_000);
        acc.charge(Stage::Mutation, 2_000_000); // nested in generation
        acc.charge(Stage::Execution, 7_000_000);
        let p = acc.report();
        let gen = p.stages.iter().find(|e| e.stage == "generation").unwrap();
        let exec = p.stages.iter().find(|e| e.stage == "execution").unwrap();
        assert!((gen.share_pct - 30.0).abs() < 1e-9, "{}", gen.share_pct);
        assert!((exec.share_pct - 70.0).abs() < 1e-9);
        assert_eq!(p.hottest_stage().unwrap().stage, "execution");
    }

    #[test]
    fn absorb_sums_worker_accumulators() {
        let a = StageAccum::default();
        let b = StageAccum::default();
        a.charge(Stage::Execution, 10);
        b.charge(Stage::Execution, 32);
        b.record_gain(MutOp::Deletion, 5);
        a.absorb(&b);
        let p = a.report();
        let exec = p.stages.iter().find(|e| e.stage == "execution").unwrap();
        assert_eq!(exec.calls, 2);
        let del = p.operator_gains.iter().find(|g| g.op == "deletion").unwrap();
        assert_eq!((del.cases_with_new_coverage, del.edges_gained), (1, 5));
    }
}
