#!/usr/bin/env bash
# Resilience smoke: drive a real checkpointed campaign through lego_cli,
# simulate a crash by deleting every checkpoint after the first, resume, and
# require the resumed outcome to be byte-identical to the uninterrupted run
# (timing fields stripped, mirroring CampaignStats::deterministic_json).
# Also validates that CheckpointWritten telemetry was emitted, and that a
# checkpoint stamped with the previous format version, or holding an object
# where the coverage map belongs, is refused.
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
every=6000

# 1. Uninterrupted reference run, checkpointing every $every units.
"$cli" fuzz pg --units "$units" --seed "$seed" \
  --checkpoint "$work/ckpt" --checkpoint-every "$every" \
  --out "$work/full" --telemetry "$work/full.jsonl" >/dev/null

[[ -f "$work/ckpt/meta.json" ]] || { echo "check_resilience: no checkpoint meta written" >&2; exit 1; }
wrote=$(jq -s 'map(select(.type == "CheckpointWritten")) | length' "$work/full.jsonl")
[[ "$wrote" -ge 2 ]] || {
  echo "check_resilience: expected >=2 CheckpointWritten events, saw $wrote" >&2; exit 1; }
"$(dirname "$0")/check_telemetry.sh" "$work/full.jsonl"

# 2. Simulate a crash right after the first checkpoint: every later
#    checkpoint file vanishes, as if the process died before writing them.
find "$work/ckpt" -name 'worker*_ckpt*.json' ! -name '*_ckpt0001.json' -delete

# 3. Resume. Same seed and flags (the campaign refuses any setting that
#    differs from the checkpoint's record); the deterministic outcome must
#    match the uninterrupted run byte-for-byte.
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

# 4. Checkpoints have one format version: stamp the previous one on
#    meta.json and require the resume to fail, naming both versions.
current=$(jq -r '.version' "$work/ckpt/meta.json")
old=$((current - 1))
jq ".version = $old" "$work/ckpt/meta.json" > "$work/meta.old"
mv "$work/meta.old" "$work/ckpt/meta.json"
if "$cli" fuzz pg --units "$units" --seed "$seed" --resume "$work/ckpt" \
  >/dev/null 2>"$work/old.err"; then
  echo "check_resilience: resume accepted a version-$old checkpoint" >&2; exit 1
fi
if ! grep -q "version $old" "$work/old.err" || ! grep -q "version $current" "$work/old.err" \
  || grep -q panicked "$work/old.err"; then
  echo "check_resilience: version-$old refusal should name versions $old and $current:" >&2
  cat "$work/old.err" >&2
  exit 1
fi

# 5. A malformed record is refused by name, not by a panic: put the version
#    back, drop the checkpoints the resume of step 3 wrote, replace the first
#    one's `coverage` with an object, and require the resume to exit 1 with
#    an error naming the key.
jq ".version = $current" "$work/ckpt/meta.json" > "$work/meta.cur"
mv "$work/meta.cur" "$work/ckpt/meta.json"
find "$work/ckpt" -name 'worker*_ckpt*.json' ! -name '*_ckpt0001.json' -delete
ck="$work/ckpt/worker00_ckpt0001.json"
jq -c '.coverage = {}' "$ck" > "$work/bad.json"
mv "$work/bad.json" "$ck"
status=0
"$cli" fuzz pg --units "$units" --seed "$seed" --resume "$work/ckpt" \
  >/dev/null 2>"$work/bad.err" || status=$?
if [[ "$status" -ne 1 ]] || ! grep -q "'coverage'" "$work/bad.err" \
  || grep -q panicked "$work/bad.err"; then
  echo "check_resilience: an object for coverage should exit 1 naming 'coverage'" \
    "(exit $status):" >&2
  cat "$work/bad.err" >&2
  exit 1
fi

execs=$(jq -r '.execs' "$work/full/campaign.json")
echo "check_resilience: OK (resume byte-identical across $execs cases, $wrote checkpoints;" \
  "version-$old checkpoint and malformed coverage refused)"
