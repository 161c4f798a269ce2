#!/usr/bin/env bash
# Rule-coverage smoke: drive real --rule-cov campaigns through lego_cli and
# require the grammar-rule feedback dimension to (1) actually cover rules and
# show its cost as the `rule_coverage` stage, (2) stay deterministic across
# reruns, and (3) cost nothing when off — an off-flag campaign must be
# byte-identical to a rerun of itself, report zero rule branches, charge
# nothing to the `rule_coverage` stage and emit no RuleCoverageGain telemetry.
#
# Usage: scripts/check_rule_cov.sh [path-to-lego_cli]
#        (default: target/release/lego_cli — build with
#         cargo build --release -p lego-bench --bin lego_cli)
set -euo pipefail

cli="${1:-target/release/lego_cli}"
command -v jq >/dev/null || { echo "check_rule_cov: jq not found" >&2; exit 1; }
[[ -x "$cli" ]] || {
  echo "check_rule_cov: $cli not found; build with: cargo build --release -p lego-bench --bin lego_cli" >&2
  exit 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

units=24000
seed=42
strip='del(.wall_ms, .execs_per_sec, .stage_profile)'
stage_calls() { # <campaign.json> -> calls charged to the rule_coverage stage
  jq -r '.stage_profile.stages[] | select(.stage == "rule_coverage") | .calls' "$1"
}

# 1. Rule-cov campaign: the stdout line and campaign.json must agree on a
#    nonzero rule-edge count, and RuleCoverageGain telemetry must flow.
"$cli" fuzz pg --units "$units" --seed "$seed" --rule-cov \
  --out "$work/on" --telemetry "$work/on.jsonl" | tee "$work/on.log" >/dev/null
edges=$(grep '^rule branches:' "$work/on.log" | awk '{print $3}')
[[ -n "$edges" && "$edges" -gt 0 ]] || {
  echo "check_rule_cov: expected a nonzero 'rule branches:' line, got '${edges:-none}'" >&2; exit 1; }
json_edges=$(jq -r '.rule_branches' "$work/on/campaign.json")
[[ "$json_edges" == "$edges" ]] || {
  echo "check_rule_cov: campaign.json rule_branches ($json_edges) != stdout ($edges)" >&2; exit 1; }
gains=$(jq -s 'map(select(.type == "RuleCoverageGain")) | length' "$work/on.jsonl")
[[ "$gains" -ge 1 ]] || {
  echo "check_rule_cov: no RuleCoverageGain events in the on-flag run" >&2; exit 1; }
calls=$(stage_calls "$work/on/campaign.json")
[[ -n "$calls" && "$calls" -gt 0 ]] || {
  echo "check_rule_cov: expected rule_coverage stage calls > 0, got '${calls:-none}'" >&2; exit 1; }
"$(dirname "$0")/check_telemetry.sh" "$work/on.jsonl"

# 2. Determinism: a rerun with the same seed is byte-identical (timing
#    fields stripped, mirroring CampaignStats::deterministic_json).
"$cli" fuzz pg --units "$units" --seed "$seed" --rule-cov \
  --out "$work/on2" >/dev/null
a=$(jq -S "$strip" "$work/on/campaign.json")
b=$(jq -S "$strip" "$work/on2/campaign.json")
if [[ "$a" != "$b" ]]; then
  echo "check_rule_cov: --rule-cov rerun diverged" >&2
  diff <(echo "$a") <(echo "$b") >&2 || true
  exit 1
fi

# 3. Off is free: no rule-branches line, zero rule_branches in the report,
#    no RuleCoverageGain telemetry, and the off-flag path stays
#    deterministic too.
"$cli" fuzz pg --units "$units" --seed "$seed" \
  --out "$work/off" --telemetry "$work/off.jsonl" | tee "$work/off.log" >/dev/null
if grep -q '^rule branches:' "$work/off.log"; then
  echo "check_rule_cov: off-flag run printed a rule-branches line" >&2; exit 1
fi
off_edges=$(jq -r '.rule_branches' "$work/off/campaign.json")
[[ "$off_edges" == "0" ]] || {
  echo "check_rule_cov: off-flag run reported rule_branches=$off_edges" >&2; exit 1; }
off_gains=$(jq -s 'map(select(.type == "RuleCoverageGain")) | length' "$work/off.jsonl")
[[ "$off_gains" == "0" ]] || {
  echo "check_rule_cov: off-flag run emitted $off_gains RuleCoverageGain events" >&2; exit 1; }
off_calls=$(stage_calls "$work/off/campaign.json")
[[ "$off_calls" == "0" ]] || {
  echo "check_rule_cov: off-flag run charged '${off_calls:-none}' calls to rule_coverage" >&2; exit 1; }
"$cli" fuzz pg --units "$units" --seed "$seed" --out "$work/off2" >/dev/null
c=$(jq -S "$strip" "$work/off/campaign.json")
d=$(jq -S "$strip" "$work/off2/campaign.json")
if [[ "$c" != "$d" ]]; then
  echo "check_rule_cov: off-flag rerun diverged" >&2
  diff <(echo "$c") <(echo "$d") >&2 || true
  exit 1
fi

execs=$(jq -r '.execs' "$work/on/campaign.json")
echo "check_rule_cov: OK ($edges rule edges, $gains gain events, $calls traced of $execs cases, reruns byte-identical)"
