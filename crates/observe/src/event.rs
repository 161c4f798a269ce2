//! The typed event taxonomy of a fuzzing campaign.
//!
//! Events are deliberately *wall-clock free*: they carry only logical time
//! (execution indexes, statement counts, edge totals), so an event stream is
//! a deterministic function of the engine seed and worker count and two runs
//! at the same seed produce byte-identical JSONL. Timing lives in the
//! [stage profiler](crate::profile) and the metrics registry instead.

/// Which mutation/generation operator produced a test case. The campaign
/// attributes coverage gains to the operator of the case that earned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MutOp {
    /// Built-in or reloaded seed corpus entry.
    Seed,
    /// Algorithm 1 substitution (type at position i replaced).
    Substitution,
    /// Algorithm 1 insertion (new statement spliced after position i).
    Insertion,
    /// Algorithm 1 deletion (statement at position i removed).
    Deletion,
    /// Conventional within-statement (syntax-preserving) mutation.
    Conventional,
    /// Algorithm 3 synthesized-and-instantiated sequence.
    Synthesis,
}

impl MutOp {
    pub const ALL: [MutOp; 6] = [
        MutOp::Seed,
        MutOp::Substitution,
        MutOp::Insertion,
        MutOp::Deletion,
        MutOp::Conventional,
        MutOp::Synthesis,
    ];

    pub fn name(self) -> &'static str {
        match self {
            MutOp::Seed => "seed",
            MutOp::Substitution => "substitution",
            MutOp::Insertion => "insertion",
            MutOp::Deletion => "deletion",
            MutOp::Conventional => "conventional",
            MutOp::Synthesis => "synthesis",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            MutOp::Seed => 0,
            MutOp::Substitution => 1,
            MutOp::Insertion => 2,
            MutOp::Deletion => 3,
            MutOp::Conventional => 4,
            MutOp::Synthesis => 5,
        }
    }
}

/// One telemetry event. Emitted from the campaign driver (`ExecStart`,
/// `ExecEnd`, `CoverageGain`, `BugFound`) and from inside the LEGO engine
/// (`MutationApplied`, `AffinityDiscovered`, `SynthesisStep`).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A test case is about to execute.
    ExecStart { worker: usize, exec: u64 },
    /// A test case finished. `ok`/`err` are the binder's accept/reject
    /// statement counts (the validity signal).
    ExecEnd { worker: usize, exec: u64, statements: u64, ok: u64, err: u64, new_coverage: bool },
    /// The engine produced a mutant with the given operator.
    MutationApplied { op: MutOp },
    /// Algorithm 2 discovered a new type-affinity `t1 -> t2`.
    AffinityDiscovered { t1: String, t2: String },
    /// Algorithm 3 ran for one new affinity.
    SynthesisStep { t1: String, t2: String, sequences: u64, instantiated: u64 },
    /// A case covered new branches; attributed to its producing operator.
    CoverageGain { op: MutOp, edges: u64 },
    /// A case traversed grammar-rule edges never seen before (`--rule-cov`
    /// campaigns only). `edges` is the number of newly covered rule→rule
    /// edges, minimum 1 (hit-count bucket novelty with no new index).
    RuleCoverageGain { worker: usize, exec: u64, edges: u64 },
    /// A deduplicated bug was recorded.
    BugFound { worker: usize, exec: u64, identifier: String, stack_hash: u64 },
    /// A correctness oracle (TLP / NoREC / differential) flagged a
    /// deduplicated wrong-result bug.
    LogicBugFound { worker: usize, exec: u64, oracle: String, fingerprint: u64 },
    /// The recovery oracle flagged a deduplicated durability bug (WAL
    /// replay divergence after a simulated crash).
    DurabilityBugFound { worker: usize, exec: u64, fingerprint: u64 },
    /// A per-case execution budget tripped and the case was killed (the
    /// deterministic analogue of an AFL timeout kill).
    CaseAborted { worker: usize, exec: u64, reason: String },
    /// A worker thread died mid-campaign (engine panic outside the per-case
    /// isolation boundary); the supervisor merged the surviving shards.
    WorkerDied { worker: usize, error: String },
    /// A campaign checkpoint was persisted to disk.
    CheckpointWritten { worker: usize, seq: u64, units: u64, path: String },
    /// The static analyzer classified a case (`--sema` campaigns only).
    /// `rejects` counts provably-failing statements; `skipped` is true when
    /// the campaign skipped engine execution because of them.
    SemaVerdict { worker: usize, exec: u64, statements: u64, rejects: u64, skipped: bool },
    /// The conformance oracle flagged a deduplicated analyzer-vs-engine
    /// disagreement (analyzer-accept but engine-error, or the reverse).
    SemaDivergenceFound { worker: usize, exec: u64, fingerprint: u64 },
}

impl Event {
    /// Stable discriminant name (the JSONL `type` field).
    pub fn type_name(&self) -> &'static str {
        match self {
            Event::ExecStart { .. } => "ExecStart",
            Event::ExecEnd { .. } => "ExecEnd",
            Event::MutationApplied { .. } => "MutationApplied",
            Event::AffinityDiscovered { .. } => "AffinityDiscovered",
            Event::SynthesisStep { .. } => "SynthesisStep",
            Event::CoverageGain { .. } => "CoverageGain",
            Event::RuleCoverageGain { .. } => "RuleCoverageGain",
            Event::BugFound { .. } => "BugFound",
            Event::LogicBugFound { .. } => "LogicBugFound",
            Event::DurabilityBugFound { .. } => "DurabilityBugFound",
            Event::CaseAborted { .. } => "CaseAborted",
            Event::WorkerDied { .. } => "WorkerDied",
            Event::CheckpointWritten { .. } => "CheckpointWritten",
            Event::SemaVerdict { .. } => "SemaVerdict",
            Event::SemaDivergenceFound { .. } => "SemaDivergenceFound",
        }
    }

    /// One JSON object (no trailing newline). Hand-rolled because the
    /// vendored serde derive does not handle struct enum variants; field
    /// order is fixed so the output is stable.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"type\":\"");
        s.push_str(self.type_name());
        s.push('"');
        match self {
            Event::ExecStart { worker, exec } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
            }
            Event::ExecEnd { worker, exec, statements, ok, err, new_coverage } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_num(&mut s, "statements", *statements);
                push_num(&mut s, "ok", *ok);
                push_num(&mut s, "err", *err);
                s.push_str(",\"new_coverage\":");
                s.push_str(if *new_coverage { "true" } else { "false" });
            }
            Event::MutationApplied { op } => push_str(&mut s, "op", op.name()),
            Event::AffinityDiscovered { t1, t2 } => {
                push_str(&mut s, "t1", t1);
                push_str(&mut s, "t2", t2);
            }
            Event::SynthesisStep { t1, t2, sequences, instantiated } => {
                push_str(&mut s, "t1", t1);
                push_str(&mut s, "t2", t2);
                push_num(&mut s, "sequences", *sequences);
                push_num(&mut s, "instantiated", *instantiated);
            }
            Event::CoverageGain { op, edges } => {
                push_str(&mut s, "op", op.name());
                push_num(&mut s, "edges", *edges);
            }
            Event::RuleCoverageGain { worker, exec, edges } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_num(&mut s, "edges", *edges);
            }
            Event::BugFound { worker, exec, identifier, stack_hash } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_str(&mut s, "identifier", identifier);
                push_num(&mut s, "stack_hash", *stack_hash);
            }
            Event::LogicBugFound { worker, exec, oracle, fingerprint } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_str(&mut s, "oracle", oracle);
                push_num(&mut s, "fingerprint", *fingerprint);
            }
            Event::DurabilityBugFound { worker, exec, fingerprint } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_num(&mut s, "fingerprint", *fingerprint);
            }
            Event::CaseAborted { worker, exec, reason } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_str(&mut s, "reason", reason);
            }
            Event::WorkerDied { worker, error } => {
                push_num(&mut s, "worker", *worker as u64);
                push_str(&mut s, "error", error);
            }
            Event::CheckpointWritten { worker, seq, units, path } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "seq", *seq);
                push_num(&mut s, "units", *units);
                push_str(&mut s, "path", path);
            }
            Event::SemaVerdict { worker, exec, statements, rejects, skipped } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_num(&mut s, "statements", *statements);
                push_num(&mut s, "rejects", *rejects);
                s.push_str(",\"skipped\":");
                s.push_str(if *skipped { "true" } else { "false" });
            }
            Event::SemaDivergenceFound { worker, exec, fingerprint } => {
                push_num(&mut s, "worker", *worker as u64);
                push_num(&mut s, "exec", *exec);
                push_num(&mut s, "fingerprint", *fingerprint);
            }
        }
        s.push('}');
        s
    }
}

fn push_num(s: &mut String, key: &str, v: u64) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    s.push_str(&v.to_string());
}

fn push_str(s: &mut String, key: &str, v: &str) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    serde::write_json_string(v, s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_single_line_json() {
        let ev =
            Event::ExecEnd { worker: 1, exec: 7, statements: 5, ok: 4, err: 1, new_coverage: true };
        let json = ev.to_json();
        assert_eq!(
            json,
            "{\"type\":\"ExecEnd\",\"worker\":1,\"exec\":7,\"statements\":5,\"ok\":4,\"err\":1,\"new_coverage\":true}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn string_fields_are_escaped() {
        let ev = Event::AffinityDiscovered { t1: "CREATE \"T\"".into(), t2: "SELECT".into() };
        assert!(ev.to_json().contains("\\\"T\\\""));
    }

    #[test]
    fn every_op_has_a_distinct_index_and_name() {
        let mut names: Vec<&str> = MutOp::ALL.iter().map(|o| o.name()).collect();
        let mut idx: Vec<usize> = MutOp::ALL.iter().map(|o| o.index()).collect();
        names.sort_unstable();
        names.dedup();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(names.len(), MutOp::ALL.len());
        assert_eq!(idx, (0..MutOp::ALL.len()).collect::<Vec<_>>());
    }
}
