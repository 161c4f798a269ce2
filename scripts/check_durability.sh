#!/usr/bin/env bash
# Durability smoke: drive real recovery-oracle campaigns through lego_cli.
#
# 1. Fault-free run with `--oracles=recovery --wal-dir`: the WAL file must be
#    created and well-formed (magic + records), oracle checks must run, and
#    zero durability bugs may be reported (oracle soundness on the clean
#    engine). Run twice; the deterministic report fields must be
#    byte-identical.
# 2. Faulted run (LEGO_PLANT_FAULT=wal-drop-last plants the torn-write
#    fault): the lost committed write must be detected, deduplicated to
#    exactly one finding, its ddmin-reduced artifact written under
#    results/bugs/, and the lego_durability_bugs_total metric exported.
#
# Usage: scripts/check_durability.sh [path-to-lego_cli]
#        (default: a release lego_cli built from this checkout first)
set -euo pipefail

source "$(dirname "$0")/lego_cli_bin.sh" "$@"
command -v jq >/dev/null || { echo "check_durability: jq not found" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

units=30000
seed=42
strip='del(.wall_ms, .execs_per_sec, .stage_profile)'

# 1. Fault-free recovery campaign: WAL created, checks run, zero findings.
run_clean() {
  "$cli" fuzz pg --units "$units" --seed "$seed" \
    --oracles=recovery --wal-dir "$work/wal$1" --out "$work/clean$1" \
    | tee "$work/clean$1.log" >/dev/null
}
run_clean 1

wal="$work/wal1/worker00.wal"
[[ -f "$wal" ]] || { echo "check_durability: no WAL file at $wal" >&2; exit 1; }
magic=$(head -c 8 "$wal")
[[ "$magic" == "LEGOWAL1" ]] || {
  echo "check_durability: $wal lacks the LEGOWAL1 magic (got '$magic')" >&2; exit 1; }
size=$(wc -c < "$wal")
[[ "$size" -gt 8 ]] || {
  echo "check_durability: $wal holds no records ($size bytes) — nothing was replayed" >&2; exit 1; }

checks=$(jq -r '.oracle_checks' "$work/clean1/campaign.json")
dbugs=$(jq -r '.durability_bugs' "$work/clean1/campaign.json")
[[ "$checks" -gt 0 ]] || { echo "check_durability: no recovery checks ran" >&2; exit 1; }
[[ "$dbugs" -eq 0 ]] || {
  echo "check_durability: clean engine reported $dbugs durability bugs" >&2; exit 1; }
grep -q '^durability bugs: 0$' "$work/clean1.log" || {
  echo "check_durability: CLI did not report the durability-bug count" >&2; exit 1; }

# Same campaign again (different WAL dir — the path must not matter): the
# deterministic report fields must be byte-identical.
run_clean 2
a=$(jq -S "$strip" "$work/clean1/campaign.json")
b=$(jq -S "$strip" "$work/clean2/campaign.json")
if [[ "$a" != "$b" ]]; then
  echo "check_durability: recovery campaign is nondeterministic" >&2
  diff <(echo "$a") <(echo "$b") >&2 || true
  exit 1
fi

# 2. Faulted campaign: the planted lost write is detected end to end.
LEGO_PLANT_FAULT=wal-drop-last "$cli" fuzz pg --units "$units" --seed "$seed" \
  --oracles=recovery --wal-dir "$work/wal-fault" --out "$work/fault" \
  --telemetry "$work/fault.jsonl" | tee "$work/fault.log" >/dev/null

dbugs=$(jq -r '.durability_bugs' "$work/fault/campaign.json")
[[ "$dbugs" -eq 1 ]] || {
  echo "check_durability: expected exactly 1 deduplicated durability bug, got $dbugs" >&2; exit 1; }
grep -q '^durability bugs: 1$' "$work/fault.log" || {
  echo "check_durability: CLI did not report the injected durability bug" >&2; exit 1; }

# The finding carries the recovery oracle's identity and a reduced
# reproducer both in the report and as an artifact.
jq -e '.logic_bugs | length == 1' "$work/fault/campaign.json" >/dev/null || {
  echo "check_durability: finding missing from campaign.json" >&2; exit 1; }
ls "$work"/fault/logic_recovery_*.sql >/dev/null 2>&1 || {
  echo "check_durability: no reduced reproducer written to --out" >&2; exit 1; }
repo_root=$(cd "$(dirname "$0")/.." && pwd)
ls "$repo_root"/results/bugs/*/logic-*.sql >/dev/null 2>&1 || {
  echo "check_durability: no logic-bug artifact under results/bugs/" >&2; exit 1; }

# Telemetry: the event log is well-formed, carries the DurabilityBugFound
# event, and the metrics export counts it.
"$(dirname "$0")/check_telemetry.sh" "$work/fault.jsonl"
found=$(jq -s 'map(select(.type == "DurabilityBugFound")) | length' "$work/fault.jsonl")
[[ "$found" -eq 1 ]] || {
  echo "check_durability: expected 1 DurabilityBugFound event, saw $found" >&2; exit 1; }
total=$(jq -r '.counters.lego_durability_bugs_total' "$work/fault.metrics.json")
[[ "$total" == "1" ]] || {
  echo "check_durability: lego_durability_bugs_total = $total, want 1" >&2; exit 1; }
grep -q '^lego_durability_bugs_total 1$' "$work/fault.prom" || {
  echo "check_durability: prometheus export lacks lego_durability_bugs_total" >&2; exit 1; }

echo "check_durability: OK ($checks recovery checks clean, planted fault detected, reduced, exported)"
