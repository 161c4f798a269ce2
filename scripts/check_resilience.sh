#!/usr/bin/env bash
# Resilience smoke: drive a real checkpointed campaign through lego_cli at a
# cadence that does not divide the budget, so its last checkpoint falls
# before the end; resume from the checkpoint directory as the run left it,
# and require the resumed outcome to be byte-identical to the uninterrupted
# run (timing fields stripped, mirroring CampaignStats::deterministic_json).
# Also validates that CheckpointWritten telemetry was emitted, that the
# directory holds only meta.json and worker00.json however many checkpoints
# were taken, and that a worker file stamped with the previous format
# version, or holding an object where the coverage map belongs, is refused.
#
# Usage: scripts/check_resilience.sh [path-to-lego_cli]
#        (default: target/release/lego_cli — build with
#         cargo build --release -p lego-bench --bin lego_cli)
set -euo pipefail

cli="${1:-target/release/lego_cli}"
command -v jq >/dev/null || { echo "check_resilience: jq not found" >&2; exit 1; }
[[ -x "$cli" ]] || {
  echo "check_resilience: $cli not found; build with: cargo build --release -p lego-bench --bin lego_cli" >&2
  exit 1
}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

units=24000
seed=42
every=7000

# 1. Uninterrupted reference run, checkpointing every $every units: the
#    last checkpoint falls at about 21000 units, before the end.
"$cli" fuzz pg --units "$units" --seed "$seed" \
  --checkpoint "$work/ckpt" --checkpoint-every "$every" \
  --out "$work/full" --telemetry "$work/full.jsonl" >/dev/null

wrote=$(jq -s 'map(select(.type == "CheckpointWritten")) | length' "$work/full.jsonl")
[[ "$wrote" -ge 3 ]] || {
  echo "check_resilience: expected >=3 CheckpointWritten events, saw $wrote" >&2; exit 1; }
files=$(cd "$work/ckpt" && ls | tr '\n' ' ')
[[ "$files" == "meta.json worker00.json " ]] || {
  echo "check_resilience: expected only meta.json and worker00.json, found: $files" >&2; exit 1; }
"$(dirname "$0")/check_telemetry.sh" "$work/full.jsonl"

# 2. Resume from the directory as the run left it, as after a crash past
#    the last checkpoint. Same seed and flags (the campaign refuses any
#    setting that differs from the checkpoint's record); the deterministic
#    outcome must match the uninterrupted run byte-for-byte.
"$cli" fuzz pg --units "$units" --seed "$seed" --resume "$work/ckpt" \
  --out "$work/resumed" >/dev/null

strip='del(.wall_ms, .execs_per_sec, .stage_profile)'
full=$(jq -S "$strip" "$work/full/campaign.json")
resumed=$(jq -S "$strip" "$work/resumed/campaign.json")
if [[ "$full" != "$resumed" ]]; then
  echo "check_resilience: resumed campaign diverged from the uninterrupted run" >&2
  diff <(echo "$full") <(echo "$resumed") >&2 || true
  exit 1
fi

# 3. Checkpoints have one format version: stamp the previous one on the
#    worker file (its own `version` is the first key; the embedded engine
#    snapshot's is escaped) and require the resume to fail, naming the file
#    and both versions.
ck="$work/ckpt/worker00.json"
cp "$ck" "$work/worker00.saved"
current=$(jq -r '.version' "$work/ckpt/meta.json")
old=$((current - 1))
sed "s/\"version\":$current/\"version\":$old/" "$work/worker00.saved" > "$ck"
if "$cli" fuzz pg --units "$units" --seed "$seed" --resume "$work/ckpt" \
  >/dev/null 2>"$work/old.err"; then
  echo "check_resilience: resume accepted a version-$old checkpoint" >&2; exit 1
fi
if ! grep -q "worker00.json" "$work/old.err" || ! grep -q "version $old" "$work/old.err" \
  || ! grep -q "version $current" "$work/old.err" || grep -q panicked "$work/old.err"; then
  echo "check_resilience: version-$old refusal should name worker00.json and versions" \
    "$old and $current:" >&2
  cat "$work/old.err" >&2
  exit 1
fi

# 4. A malformed record is refused by name, not by a panic: put the worker
#    file back, replace its `coverage` with an object, and require the
#    resume to exit 1 with an error naming the key.
jq -c '.coverage = {}' "$work/worker00.saved" > "$ck"
status=0
"$cli" fuzz pg --units "$units" --seed "$seed" --resume "$work/ckpt" \
  >/dev/null 2>"$work/bad.err" || status=$?
if [[ "$status" -ne 1 ]] || ! grep -q "'coverage'" "$work/bad.err" \
  || ! grep -q "worker00.json" "$work/bad.err" || grep -q panicked "$work/bad.err"; then
  echo "check_resilience: an object for coverage should exit 1 naming worker00.json" \
    "and 'coverage' (exit $status):" >&2
  cat "$work/bad.err" >&2
  exit 1
fi

execs=$(jq -r '.execs' "$work/full/campaign.json")
echo "check_resilience: OK (resume byte-identical across $execs cases, $wrote checkpoints" \
  "in one worker file; version-$old checkpoint and malformed coverage refused)"
