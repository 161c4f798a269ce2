#!/usr/bin/env bash
# Grep lint for nondeterminism leaks in the deterministic hot paths.
#
# The campaign's replay/resume contract (byte-identical reruns, checkpoint
# parity, --sema/--rule-cov off-path parity) only holds if the exploration
# code never consults an ambient source of nondeterminism. This lint rejects
# the classic leaks in the files that make exploration decisions:
#
#   1. Ambient entropy / wall clocks / host facts used as data: SystemTime,
#      thread_rng, from_entropy, rand::random, RandomState, DefaultHasher,
#      env::var, available_parallelism. Forbidden outright — seeds and
#      worker counts come from the caller, hashes from the FNV helpers.
#   2. Instant::now(): allowed only for throughput reporting, and every use
#      must carry a `wall-clock` comment on the same line or within the
#      three preceding lines explaining that the value never feeds an
#      exploration decision (deterministic_json() strips the derived
#      fields).
#   3. Hash-order leaks: iterating a HashMap/HashSet observes the random
#      SipHash bucket order. Any .iter()/.keys()/.values()/.drain()/
#      into_iter()/`for _ in &m` over a binding declared as a hash
#      collection must either sort within the next two lines or be an
#      order-insensitive rebuild (`.copied().collect()` into another hash
#      collection).
#   4. One id per coverage site: every cov!/site_id!/rule! call in
#      crates/dbms/src and crates/sqlparser/src passes an explicit 64-bit
#      literal (lego_coverage::site_id!), and no two sites may share one —
#      a copied `cov!` line would silently merge two branches into one
#      edge. A new site takes a fresh random id, e.g. from
#      `od -An -N8 -tx8 /dev/urandom` written as `0x` + 16 hex digits;
#      never derive it from the site's position, which must stay free to
#      move.
#   5. No mutable process-global state in the engine, analyzer, oracles,
#      parser, coverage and campaign crates (crates/{dbms,sqlsema,oracle,
#      sqlparser,coverage,core}/src): no `static mut`, and no `static`
#      whose type is an Atomic*, Mutex or RwLock. Such a static is shared
#      by every instance and every test thread in the process, so one
#      instance's setting leaks into another's run and a test's result
#      depends on the scheduler; state belongs to the instance that uses it
#      (the planted faults are a per-instance `Faults` value for this
#      reason). Write-once tables (`static … OnceLock`) stay allowed.
#   6. Workers share nothing until the join: no std::sync::atomic, Atomic*,
#      Mutex or RwLock in crates/coverage/src, crates/core/src/campaign.rs or
#      crates/core/src/checks.rs (the oracle and analyzer runtimes and the
#      finding ledgers, which run inside each worker). Each worker judges
#      novelty on its own maps and hands them back when it finishes; the
#      join unions them in worker order. A map shared while the workers run
#      would be written in scheduler order, and a read of it would make a
#      worker's run depend on the others' progress.
#
# Usage: scripts/check_determinism_lint.sh   (run from the repo root)
set -euo pipefail

cd "$(dirname "$0")/.."

# The deterministic set: everything that decides WHAT the fuzzer does next.
# Telemetry, metrics and the observe crate are intentionally excluded —
# they are allowed to look at the clock because nothing replayable reads
# them back.
files=(
  crates/core/src/fuzzer.rs
  crates/core/src/campaign.rs
  crates/core/src/checks.rs
  crates/core/src/mutation.rs
  crates/core/src/synthesis.rs
  crates/core/src/checkpoint.rs
  crates/core/src/instantiate.rs
  crates/core/src/gen.rs
  crates/core/src/pool.rs
  crates/core/src/affinity.rs
  crates/core/src/ngram.rs
  crates/core/src/reduce.rs
  crates/core/src/seeds.rs
  crates/core/src/special.rs
  # The AST: its printing and walks key the library and the fingerprints.
  crates/sqlast/src/lib.rs
  crates/sqlast/src/ast.rs
  crates/sqlast/src/expr.rs
  crates/sqlast/src/kind.rs
  crates/sqlast/src/dialect.rs
  crates/sqlast/src/rewrite.rs
  crates/sqlast/src/visit.rs
  crates/sqlast/src/skeleton.rs
  # The engine: its coverage decides which cases the fuzzer keeps.
  crates/dbms/src/engine.rs
  crates/dbms/src/exec.rs
  crates/dbms/src/query.rs
  crates/dbms/src/eval.rs
  crates/dbms/src/catalog.rs
  crates/dbms/src/value.rs
  crates/dbms/src/ctx.rs
  crates/dbms/src/bugs.rs
  # The parser: under --rule-cov the rule tracer's verdict decides which
  # cases are admitted.
  crates/sqlparser/src/lib.rs
  crates/sqlparser/src/lexer.rs
  crates/sqlparser/src/parser.rs
  crates/sqlparser/src/phrases.rs
  crates/sqlparser/src/tracer.rs
)
while IFS= read -r f; do files+=("$f"); done \
  < <(find crates/coverage/src crates/sqlsema/src -name '*.rs' | sort)

fail=0

# --- Rule 1: ambient entropy, wall clocks and host facts as data -----------
if hits=$(grep -nE 'SystemTime|thread_rng|from_entropy|rand::random|RandomState|DefaultHasher|env::var|available_parallelism' \
    "${files[@]}"); then
  echo "determinism-lint: ambient entropy / wall-clock / host facts as data in deterministic paths:" >&2
  echo "$hits" >&2
  fail=1
fi

# --- Rule 2: Instant::now() must be annotated wall-clock-only --------------
# awk keeps a 3-line comment window; an unannotated Instant::now() is a leak
# waiting to be compared, persisted, or branched on.
for f in "${files[@]}"; do
  bad=$(awk '
    /wall-clock/ { mark = NR }
    /Instant::now/ {
      if (mark == 0 || NR - mark > 3) print FILENAME ":" NR ": " $0
    }
  ' "$f")
  if [[ -n "$bad" ]]; then
    echo "determinism-lint: Instant::now() without a wall-clock annotation:" >&2
    echo "$bad" >&2
    fail=1
  fi
done

# --- Rule 3: hash-collection iteration must be ordered or order-free -------
for f in "${files[@]}"; do
  # Pass 1: names declared as HashMap/HashSet in this file (fields, lets,
  # and reference parameters alike).
  names=$(grep -oE '[A-Za-z_][A-Za-z0-9_]*[[:space:]]*(:[[:space:]]*&?(std::collections::)?Hash(Map|Set)[<,)]|=[[:space:]]*Hash(Map|Set)::)' "$f" \
    | grep -oE '^[A-Za-z_][A-Za-z0-9_]*' | sort -u || true)
  [[ -n "$names" ]] || continue
  # Pass 2: iteration over those names. Allowed escapes:
  #   - `sort` on the same line or within the next two;
  #   - `.copied().collect()` rebuilds (slice -> hash or hash -> hash are
  #     order-insensitive: the destination imposes no order).
  for name in $names; do
    bad=$(awk -v name="$name" '
      {
        line[NR] = $0
        pat = "(^|[^A-Za-z0-9_.])" name "\\.(iter|keys|values|drain|into_iter)\\(" \
              "|for[[:space:]].*[[:space:]]in[[:space:]]+&" name "([^A-Za-z0-9_]|$)"
        if ($0 ~ pat) flagged[NR] = 1
      }
      END {
        for (n in flagged) {
          window = line[n] " " line[n + 1] " " line[n + 2]
          if (window ~ /sort/) continue
          if (line[n] ~ /\.copied\(\)\.collect\(\)/) continue
          print FILENAME ":" n ": " line[n]
        }
      }
    ' "$f")
    if [[ -n "$bad" ]]; then
      echo "determinism-lint: unordered hash iteration (receiver \`$name\`):" >&2
      echo "$bad" >&2
      fail=1
    fi
  done
done

# --- Rule 4: one id per coverage site --------------------------------------
# perl reads each file whole, so a call that rustfmt splits over lines still
# counts; it prints file:line:id for every site.
site_files=$(find crates/dbms/src crates/sqlparser/src -name '*.rs' | sort)
# shellcheck disable=SC2086
sites=$(perl -0777 -ne '
  while (/\b(?:cov|site_id|rule)!\(\s*(?:[^()]*?,\s*)?(0x[0-9a-fA-F_]+)\s*\)/g) {
    my ($id, $pos) = (lc $1, $-[0]);
    $id =~ tr/_//d;
    my $line = 1 + (substr($_, 0, $pos) =~ tr/\n//);
    print "$ARGV:$line $id\n";
  }' $site_files)
if [[ -z "$sites" ]]; then
  echo "determinism-lint: found no coverage sites; the site pattern is stale" >&2
  fail=1
else
  dups=$(awk '{ n[$NF]++; at[$NF] = at[$NF] "\n  " $1 }
              END { for (id in n) if (n[id] > 1) print id ":" at[id] }' <<<"$sites")
  if [[ -n "$dups" ]]; then
    echo "determinism-lint: coverage sites sharing an id:" >&2
    echo -e "$dups" >&2
    fail=1
  fi
fi

# --- Rule 5: no mutable process-global state ------------------------------
if hits=$(grep -rnE '\bstatic[[:space:]]+mut\b|\bstatic[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:[[:space:]]*([A-Za-z_][A-Za-z0-9_]*::)*(Atomic[A-Za-z0-9]*|Mutex|RwLock)\b' \
    crates/{dbms,sqlsema,oracle,sqlparser,coverage,core}/src); then
  echo "determinism-lint: mutable process-global state (static mut / Atomic* / Mutex / RwLock):" >&2
  echo "$hits" >&2
  fail=1
fi

# --- Rule 6: workers share nothing until the join --------------------------
if hits=$(grep -rnE 'std::sync::atomic|\bAtomic[A-Za-z0-9]*|\bMutex\b|\bRwLock\b' \
    crates/coverage/src crates/core/src/campaign.rs crates/core/src/checks.rs); then
  echo "determinism-lint: state shared between workers (atomic / Mutex / RwLock):" >&2
  echo "$hits" >&2
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "determinism-lint: FAILED" >&2
  exit 1
fi
echo "determinism-lint: OK (${#files[@]} files clean, $(wc -l <<<"$sites") coverage sites with distinct ids)"
