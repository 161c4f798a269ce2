#!/usr/bin/env bash
# Monitoring-plane smoke: run a short campaign with the live HTTP server,
# hit every endpoint while it fuzzes, then validate the exported artifacts
# (AFL-style plot data, Perfetto-loadable Chrome trace) and require the
# monitored run's deterministic outcome to be byte-identical to an
# unmonitored reference run — the plane must be a pure read-side observer.
#
# Usage: scripts/check_monitor.sh [path-to-lego_cli]
#        (default: a release lego_cli built from this checkout first)
set -euo pipefail

source "$(dirname "$0")/lego_cli_bin.sh" "$@"
command -v jq >/dev/null || { echo "check_monitor: jq not found" >&2; exit 1; }
command -v curl >/dev/null || { echo "check_monitor: curl not found" >&2; exit 1; }

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

units=60000
seed=42

# 1. Unmonitored reference run.
"$cli" fuzz pg --units "$units" --seed "$seed" --out "$work/off" >/dev/null

# 2. Monitored run: serve on an ephemeral port, record plot data and a
#    trace. The linger keeps the endpoints up after a fast campaign so the
#    curls below cannot race the shutdown.
LEGO_SERVE_LINGER_MS=20000 "$cli" fuzz pg --units "$units" --seed "$seed" \
  --serve 127.0.0.1:0 --trace "$work/trace.json" \
  --plot-data "$work/plot_data.csv" --plot-every 50 \
  --out "$work/on" > "$work/run.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(grep -o 'http://[0-9.:]*' "$work/run.log" | head -1) && [[ -n "$addr" ]] && break
  kill -0 "$pid" 2>/dev/null || { cat "$work/run.log" >&2; echo "check_monitor: campaign died before binding" >&2; exit 1; }
  sleep 0.1
done
[[ -n "$addr" ]] || { echo "check_monitor: no listen address in run log" >&2; exit 1; }

fetch() { # fetch <path> — retry a few times to absorb server startup
  for _ in $(seq 1 20); do
    if out=$(curl -sf --max-time 5 "$addr$1"); then echo "$out"; return 0; fi
    sleep 0.2
  done
  echo "check_monitor: GET $1 failed" >&2
  return 1
}

# 3. Every endpoint answers while (or just after) the campaign runs.
[[ "$(fetch /healthz)" == "ok" ]] || { echo "check_monitor: bad /healthz" >&2; exit 1; }

status=$(fetch /status)
echo "$status" | jq -e '
  (.config.workers >= 1) and
  (.live.execs >= 0) and (.live.branches >= 0) and
  (.live | has("validity_pct") and has("logic_bugs") and has("cases_aborted")) and
  (.worker_execs | type == "array")
' >/dev/null || { echo "check_monitor: /status shape violated: $status" >&2; exit 1; }

metrics=$(fetch /metrics)
echo "$metrics" | grep -q '^lego_execs_total ' || {
  echo "check_monitor: /metrics lacks lego_execs_total" >&2; exit 1; }
echo "$metrics" | grep -q '^# TYPE lego_exec_latency_us histogram' || {
  echo "check_monitor: /metrics lacks the exec-latency histogram" >&2; exit 1; }

# SSE: the stream must frame events as `data: {...}` lines. The stream is
# endless, so cap it with timeout and only require at least one frame.
sse=$(timeout 3 curl -sN --max-time 3 "$addr/events" | head -20 || true)
echo "$sse" | grep -q '^data: {"type":' || {
  echo "check_monitor: /events produced no SSE frames: $sse" >&2; exit 1; }

wait "$pid" || { cat "$work/run.log" >&2; echo "check_monitor: monitored campaign failed" >&2; exit 1; }

# 4. Read-side parity: deterministic outcome and retained corpus are
#    byte-identical with and without the monitoring plane.
strip='del(.wall_ms, .execs_per_sec, .stage_profile)'
off=$(jq -S "$strip" "$work/off/campaign.json")
on=$(jq -S "$strip" "$work/on/campaign.json")
if [[ "$off" != "$on" ]]; then
  echo "check_monitor: the monitoring plane perturbed the campaign" >&2
  diff <(echo "$off") <(echo "$on") >&2 || true
  exit 1
fi
diff -r "$work/off/corpus" "$work/on/corpus" >/dev/null || {
  echo "check_monitor: retained corpus differs under monitoring" >&2; exit 1; }

# 5. Plot data: header + >=2 rows, time and coverage monotone, closing row
#    consistent with the campaign report.
awk -F, '
  NR == 1 { if ($0 != "t_s,execs,execs_per_sec,branches,corpus,queued,validity_pct,bugs,logic_bugs,aborted,rule_edges")
              { print "bad header: " $0; exit 1 } next }
  { if ($1 + 0 < t) { print "time not monotone at row " NR; exit 1 }
    if ($4 + 0 < b) { print "branches not monotone at row " NR; exit 1 }
    t = $1 + 0; b = $4 + 0; rows++ }
  END { if (rows < 2) { print "want >=2 data rows, got " rows; exit 1 } }
' "$work/plot_data.csv" || { echo "check_monitor: plot_data.csv invalid" >&2; exit 1; }
execs=$(jq -r '.execs' "$work/on/campaign.json")
tail -1 "$work/plot_data.csv" | awk -F, -v e="$execs" \
  '$2 + 0 != e { print "closing row execs " $2 " != campaign execs " e; exit 1 }' || {
  echo "check_monitor: plot_data.csv closing row disagrees with campaign.json" >&2; exit 1; }
jq -e '.columns[0] == "t_s" and (.rows | length >= 2)' \
  "${work}/plot_data.json" >/dev/null || {
  echo "check_monitor: plot_data.json invalid" >&2; exit 1; }

# 6. Trace: Chrome-trace schema, per-stage complete events, nonempty.
jq -e '
  (.traceEvents | type == "array" and length > 0) and
  ([.traceEvents[] | select(.ph == "X")] | length > 0 and
   (map(has("name") and has("ts") and has("dur") and has("pid") and has("tid")) | all)) and
  ([.traceEvents[] | select(.ph == "M" and .name == "thread_name")] | length > 0)
' "$work/trace.json" >/dev/null || { echo "check_monitor: trace.json invalid" >&2; exit 1; }

spans=$(jq '[.traceEvents[] | select(.ph == "X")] | length' "$work/trace.json")
rows=$(($(wc -l < "$work/plot_data.csv") - 1))
echo "check_monitor: OK ($execs cases parity-checked, $rows plot rows, $spans trace spans, served at $addr)"
