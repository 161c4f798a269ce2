#!/usr/bin/env bash
# Bench gate: re-run the end-to-end campaign throughput bench and fail on a
# stage-share or throughput regression against the checked-in baseline
# report (BENCH_throughput.json at the repo root).
#
# What is gated, and why these thresholds:
#   * serial feedback share — the absolute acceptance bar is 30% of wall
#     time; the gate also allows baseline+5pp so a noisy runner never fails
#     a baseline that is already well under the bar.
#   * parallel feedback share — baseline+7pp (worker contention makes this
#     number noisier than the serial one).
#   * serial generation share — baseline+5pp, the serial feedback margin.
#     Generation (scheduling, mutation, instantiation and fix_case's
#     repair) is the largest serial stage.
#   * serial execution share — baseline+5pp, the same margin. Execution
#     (the engine: bind, plan, execute and the bug-pattern check) is the
#     other large serial stage; with this ceiling every large stage has one.
#   * serial execs/s — at least 0.6x the baseline. Stage *shares* transfer
#     across machines; absolute execs/s do not, so this floor only catches
#     order-of-magnitude regressions (the bug class that motivated the
#     gate was a 4x slowdown, comfortably caught at 0.6x).
#   * parallel speedup >= 2.0x at 3 workers — only enforced when the runner
#     actually has >= 4 cores (3 workers + coordinator). On fewer cores the
#     workers time-slice one another and the physical ceiling is ~1.0x, so
#     the gate records the core count and skips instead of lying.
#
# The default budget is 400k units because the serial PostgreSQL campaign
# fills Algorithm 3's 200k-sequence store about 235k units in. At 200k the
# store peaks near 180k sequences and never fills, so a cost that only a
# full store pays (such as a synthesis walk past the cap) passes the gate
# unseen; at 400k it shows up in the serial feedback share and execs/s.
#
# Usage: scripts/check_bench_gate.sh [path-to-bench_throughput]
#        (default: target/release/bench_throughput — build with
#         cargo build --release -p lego-bench --bin bench_throughput)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
bench="${1:-$root/target/release/bench_throughput}"
baseline="$root/BENCH_throughput.json"
units="${BENCH_GATE_UNITS:-400000}"

command -v jq >/dev/null || { echo "check_bench_gate: jq not found" >&2; exit 1; }
[[ -x "$bench" ]] || {
  echo "check_bench_gate: $bench not found; build with: cargo build --release -p lego-bench --bin bench_throughput" >&2
  exit 1
}
[[ -f "$baseline" ]] || { echo "check_bench_gate: no baseline at $baseline" >&2; exit 1; }

cores=$(nproc)
work=$(mktemp -d)
# The bench binary writes its report over the baseline path, so stash the
# checked-in baseline first and always restore it.
cp "$baseline" "$work/baseline.json"
restore() { cp "$work/baseline.json" "$baseline"; rm -rf "$work"; }
trap restore EXIT

echo "check_bench_gate: $cores core(s), $units units"
"$bench" "$units" --workers 3
cp "$baseline" "$work/fresh.json"

jqv() { jq -r "$2" "$work/$1.json"; }
share() { # <file> <run> [stage, default feedback] -> share_pct
  jqv "$1" ".$2.stage_profile.stages[] | select(.stage == \"${3:-feedback}\") | .share_pct"
}

base_serial_share=$(share baseline serial)
base_parallel_share=$(share baseline parallel)
base_gen_share=$(share baseline serial generation)
base_exec_share=$(share baseline serial execution)
base_serial_eps=$(jqv baseline .serial.execs_per_sec)
fresh_serial_share=$(share fresh serial)
fresh_parallel_share=$(share fresh parallel)
fresh_gen_share=$(share fresh serial generation)
fresh_exec_share=$(share fresh serial execution)
fresh_serial_eps=$(jqv fresh .serial.execs_per_sec)
fresh_speedup=$(jqv fresh .speedup)

fail=0
check() { # <label> <ok:0/1> <detail>
  if [[ "$2" == "1" ]]; then echo "  PASS  $1 ($3)"; else echo "  FAIL  $1 ($3)"; fail=1; fi
}

serial_ceil=$(jq -n "[30, $base_serial_share + 5] | max")
ok=$(jq -n "($fresh_serial_share <= $serial_ceil) | if . then 1 else 0 end")
check "serial feedback share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_serial_share" "$serial_ceil")"

parallel_ceil=$(jq -n "[35, $base_parallel_share + 7] | max")
ok=$(jq -n "($fresh_parallel_share <= $parallel_ceil) | if . then 1 else 0 end")
check "parallel feedback share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_parallel_share" "$parallel_ceil")"

gen_ceil=$(jq -n "$base_gen_share + 5")
ok=$(jq -n "($fresh_gen_share <= $gen_ceil) | if . then 1 else 0 end")
check "serial generation share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_gen_share" "$gen_ceil")"

exec_ceil=$(jq -n "$base_exec_share + 5")
ok=$(jq -n "($fresh_exec_share <= $exec_ceil) | if . then 1 else 0 end")
check "serial execution share" "$ok" \
  "$(printf '%.1f%% vs ceiling %.1f%%' "$fresh_exec_share" "$exec_ceil")"

eps_floor=$(jq -n "$base_serial_eps * 0.6")
ok=$(jq -n "($fresh_serial_eps >= $eps_floor) | if . then 1 else 0 end")
check "serial execs/s" "$ok" \
  "$(printf '%.0f vs floor %.0f (baseline %.0f)' "$fresh_serial_eps" "$eps_floor" "$base_serial_eps")"

if (( cores >= 4 )); then
  ok=$(jq -n "($fresh_speedup >= 2.0) | if . then 1 else 0 end")
  check "3-worker speedup" "$ok" "$(printf '%.2fx vs floor 2.00x' "$fresh_speedup")"
else
  echo "  SKIP  3-worker speedup ($cores core(s) < 4: physical ceiling ~1.0x," \
       "measured $(printf '%.2fx' "$fresh_speedup"))"
fi

if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
  {
    echo "### Bench gate ($cores cores, $units units)"
    echo ""
    echo "| Metric | Baseline | Fresh |"
    echo "| --- | --- | --- |"
    printf '| serial feedback share | %.1f%% | %.1f%% |\n' "$base_serial_share" "$fresh_serial_share"
    printf '| parallel feedback share | %.1f%% | %.1f%% |\n' "$base_parallel_share" "$fresh_parallel_share"
    printf '| serial generation share | %.1f%% | %.1f%% |\n' "$base_gen_share" "$fresh_gen_share"
    printf '| serial execution share | %.1f%% | %.1f%% |\n' "$base_exec_share" "$fresh_exec_share"
    printf '| serial execs/s | %.0f | %.0f |\n' "$base_serial_eps" "$fresh_serial_eps"
    printf '| 3-worker speedup | — | %.2fx |\n' "$fresh_speedup"
  } >> "$GITHUB_STEP_SUMMARY"
fi

exit "$fail"
