#!/usr/bin/env bash
# Validate a lego-observe JSONL event log: every line is a JSON object with a
# known event type and the per-type invariants hold. Also sanity-checks the
# metrics exports written next to the log, when present.
#
# Usage: scripts/check_telemetry.sh <events.jsonl>
set -euo pipefail

log="${1:?usage: check_telemetry.sh <events.jsonl>}"
command -v jq >/dev/null || { echo "check_telemetry: jq not found" >&2; exit 1; }
[[ -s "$log" ]] || { echo "check_telemetry: $log is missing or empty" >&2; exit 1; }

# 1. Every line parses as a JSON object with a recognised type.
jq -e -s '
  (length > 0) and
  (map(type == "object" and (.type | type == "string")) | all) and
  (map(.type) - ["ExecStart","ExecEnd","MutationApplied","AffinityDiscovered",
                 "SynthesisStep","CoverageGain","RuleCoverageGain","BugFound","LogicBugFound",
                 "CaseAborted","WorkerDied","CheckpointWritten",
                 "DurabilityBugFound","SemaVerdict","SemaDivergenceFound"] == [])
' "$log" >/dev/null || { echo "check_telemetry: malformed or unknown events in $log" >&2; exit 1; }

# 2. Per-type invariants: paired exec markers, statement counters that add
#    up, attributed coverage gains, and worker indexes present where due.
jq -e -s '
  (map(select(.type == "ExecStart")) | length) as $starts |
  (map(select(.type == "ExecEnd"))) as $ends |
  ($starts > 0) and ($starts == ($ends | length)) and
  ($ends | map(.ok + .err == .statements) | all) and
  ($ends | map(.worker >= 0 and .exec >= 0) | all) and
  (map(select(.type == "CoverageGain")) | map(.edges >= 0 and (.op | type == "string")) | all) and
  (map(select(.type == "RuleCoverageGain")) | map(.edges >= 1 and .worker >= 0 and .exec >= 0) | all) and
  (map(select(.type == "BugFound")) | map((.identifier | length) > 0) | all) and
  (map(select(.type == "LogicBugFound")) | map((.oracle | length) > 0) | all) and
  (map(select(.type == "DurabilityBugFound")) | map(.worker >= 0 and ((.fingerprint | tostring | length) > 0)) | all) and
  (map(select(.type == "SemaVerdict")) | map(.worker >= 0 and .rejects >= 1 and .statements >= .rejects) | all) and
  (map(select(.type == "SemaDivergenceFound")) | map(.worker >= 0 and ((.fingerprint | tostring | length) > 0)) | all) and
  (map(select(.type == "CaseAborted")) | map((.reason | length) > 0 and .worker >= 0) | all) and
  (map(select(.type == "WorkerDied")) | map((.error | length) > 0 and .worker >= 0) | all) and
  (map(select(.type == "CheckpointWritten")) | map(.seq >= 1 and (.path | length) > 0) | all)
' "$log" >/dev/null || { echo "check_telemetry: event invariants violated in $log" >&2; exit 1; }

# 3. Metrics exports (written by TelemetryGuard::finish next to the log).
base="${log%.*}"
if [[ -f "$base.metrics.json" ]]; then
  execs=$(jq -e '.counters.lego_execs_total' "$base.metrics.json")
  starts=$(jq -s 'map(select(.type == "ExecStart")) | length' "$log")
  [[ "$execs" == "$starts" ]] || {
    echo "check_telemetry: metrics execs ($execs) != ExecStart events ($starts)" >&2; exit 1; }
  # The statement-count histogram is fed from ExecEnd events, so its sample
  # count must equal the exec count; buckets are cumulative (last == count)
  # and non-decreasing.
  jq -e --argjson execs "$execs" '
    .histograms.lego_case_stmts as $h |
    ($h.count == $execs) and ($h.buckets | last == $execs) and
    ([range(1; $h.buckets | length) | $h.buckets[.] >= $h.buckets[. - 1]] | all) and
    ($h.sum >= $h.count)
  ' "$base.metrics.json" >/dev/null || {
    echo "check_telemetry: lego_case_stmts histogram inconsistent in $base.metrics.json" >&2; exit 1; }
fi
if [[ -f "$base.prom" ]]; then
  grep -q '^lego_execs_total ' "$base.prom" || {
    echo "check_telemetry: $base.prom lacks lego_execs_total" >&2; exit 1; }
  grep -q '^# TYPE lego_case_stmts histogram' "$base.prom" || {
    echo "check_telemetry: $base.prom lacks the statement-count histogram" >&2; exit 1; }
  grep -q '^lego_case_stmts_bucket{le="+Inf"} ' "$base.prom" || {
    echo "check_telemetry: $base.prom histogram lacks the +Inf bucket" >&2; exit 1; }
fi

lines=$(wc -l < "$log")
echo "check_telemetry: OK ($lines events in $log)"
