#!/usr/bin/env bash
# Static-analyzer smoke: drive real --sema campaigns through lego_cli and
# require the pre-execution validity dimension to (1) actually reject and
# skip statically-invalid cases, (2) stay deterministic across reruns,
# (3) cost nothing when off — an off-flag campaign must be byte-identical
# to a rerun of itself, report zero sema counters, and emit no SemaVerdict
# telemetry — and (4) surface the planted analyzer fault
# (LEGO_PLANT_FAULT=sema-overaccept) as deduplicated, delta-debugged
# SemaDivergence findings with on-disk reproducers.
#
# Usage: scripts/check_sema.sh [path-to-lego_cli]
#        (default: a release lego_cli built from this checkout first)
set -euo pipefail

source "$(dirname "$0")/lego_cli_bin.sh" "$@"
command -v jq >/dev/null || { echo "check_sema: jq not found" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

units=24000
seed=42
strip='del(.wall_ms, .execs_per_sec, .stage_profile)'

# 1. Sema campaign: the stdout lines and campaign.json must agree on nonzero
#    static rejects and skipped statements, and SemaVerdict telemetry must
#    flow. The mutation stages (deletion mutants, splices) are exactly what
#    produces statically-dead sequences, so a stock campaign suffices as the
#    mutation-heavy workload.
"$cli" fuzz pg --units "$units" --seed "$seed" --sema \
  --out "$work/on" --telemetry "$work/on.jsonl" | tee "$work/on.log" >/dev/null
rejects=$(grep '^sema rejects:' "$work/on.log" | awk '{print $3}')
[[ -n "$rejects" && "$rejects" -gt 0 ]] || {
  echo "check_sema: expected a nonzero 'sema rejects:' line, got '${rejects:-none}'" >&2; exit 1; }
json_rejects=$(jq -r '.sema_rejects' "$work/on/campaign.json")
[[ "$json_rejects" == "$rejects" ]] || {
  echo "check_sema: campaign.json sema_rejects ($json_rejects) != stdout ($rejects)" >&2; exit 1; }
skipped=$(jq -r '.sema_skipped_stmts' "$work/on/campaign.json")
[[ "$skipped" -gt 0 ]] || {
  echo "check_sema: rejected cases but sema_skipped_stmts=$skipped" >&2; exit 1; }
verdicts=$(jq -s 'map(select(.type == "SemaVerdict")) | length' "$work/on.jsonl")
[[ "$verdicts" -ge 1 ]] || {
  echo "check_sema: no SemaVerdict events in the on-flag run" >&2; exit 1; }
"$(dirname "$0")/check_telemetry.sh" "$work/on.jsonl"

# A healthy analyzer must not disagree with our own engine.
divergences=$(jq -r '.sema_divergences' "$work/on/campaign.json")
[[ "$divergences" == "0" ]] || {
  echo "check_sema: healthy run reported $divergences analyzer-vs-engine divergences" >&2; exit 1; }

# 2. Determinism: a rerun with the same seed is byte-identical (timing
#    fields stripped, mirroring CampaignStats::deterministic_json).
"$cli" fuzz pg --units "$units" --seed "$seed" --sema \
  --out "$work/on2" >/dev/null
a=$(jq -S "$strip" "$work/on/campaign.json")
b=$(jq -S "$strip" "$work/on2/campaign.json")
if [[ "$a" != "$b" ]]; then
  echo "check_sema: --sema rerun diverged" >&2
  diff <(echo "$a") <(echo "$b") >&2 || true
  exit 1
fi

# 3. Off is free: no sema lines, zero sema counters in the report, no
#    SemaVerdict telemetry, and the off-flag path stays deterministic too.
"$cli" fuzz pg --units "$units" --seed "$seed" \
  --out "$work/off" --telemetry "$work/off.jsonl" | tee "$work/off.log" >/dev/null
if grep -q '^sema rejects:' "$work/off.log"; then
  echo "check_sema: off-flag run printed a sema-rejects line" >&2; exit 1
fi
off_rejects=$(jq -r '.sema_rejects' "$work/off/campaign.json")
[[ "$off_rejects" == "0" ]] || {
  echo "check_sema: off-flag run reported sema_rejects=$off_rejects" >&2; exit 1; }
off_verdicts=$(jq -s 'map(select(.type == "SemaVerdict")) | length' "$work/off.jsonl")
[[ "$off_verdicts" == "0" ]] || {
  echo "check_sema: off-flag run emitted $off_verdicts SemaVerdict events" >&2; exit 1; }
"$cli" fuzz pg --units "$units" --seed "$seed" --out "$work/off2" >/dev/null
c=$(jq -S "$strip" "$work/off/campaign.json")
d=$(jq -S "$strip" "$work/off2/campaign.json")
if [[ "$c" != "$d" ]]; then
  echo "check_sema: off-flag rerun diverged" >&2
  diff <(echo "$c") <(echo "$d") >&2 || true
  exit 1
fi

# Skipping statically-dead cases must not make each *executed* case slower:
# compare per-exec wall time informationally (no hard gate — CI timing is
# noisy; the numbers land in the log for trend review).
on_rate=$(jq -r '.execs_per_sec' "$work/on/campaign.json")
off_rate=$(jq -r '.execs_per_sec' "$work/off/campaign.json")
echo "check_sema: throughput on=$on_rate execs/s off=$off_rate execs/s"

# 4. Planted analyzer fault: the conformance oracle must catch the binder
#    over-accepting COMMIT outside a transaction, dedup the findings by
#    fingerprint, and write delta-debugged reproducers.
LEGO_PLANT_FAULT=sema-overaccept "$cli" fuzz pg --units "$units" --seed "$seed" --sema \
  --out "$work/fault" --telemetry "$work/fault.jsonl" | tee "$work/fault.log" >/dev/null
fault_div=$(jq -r '.sema_divergences' "$work/fault/campaign.json")
[[ "$fault_div" -ge 1 ]] || {
  echo "check_sema: planted fault produced no divergence finding" >&2; exit 1; }
found=$(jq -s 'map(select(.type == "SemaDivergenceFound")) | length' "$work/fault.jsonl")
[[ "$found" == "$fault_div" ]] || {
  echo "check_sema: $fault_div findings but $found SemaDivergenceFound events (dedup broken?)" >&2
  exit 1; }
repro_count=$(find "$work/fault" -name 'logic_sema_*.sql' | wc -l)
[[ "$repro_count" == "$fault_div" ]] || {
  echo "check_sema: $fault_div findings but $repro_count reproducer files" >&2; exit 1; }
for repro in "$work/fault"/logic_sema_*.sql; do
  grep -Eq 'COMMIT|END' "$repro" || {
    echo "check_sema: reproducer $repro lost the divergent statement" >&2; exit 1; }
done

execs=$(jq -r '.execs' "$work/on/campaign.json")
echo "check_sema: OK ($rejects static rejects, $skipped skipped stmts, $execs cases, $fault_div planted divergences, reruns byte-identical)"
