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
#      collection must either sort within the next two lines (the
#      sorted_pairs pattern) or be an order-insensitive rebuild
#      (`.copied().collect()` into another hash collection, i.e. the
#      checkpoint-restore pattern).
#   4. One id per coverage site: every cov!/site_id!/rule! call in
#      crates/dbms/src and crates/sqlparser/src passes an explicit 64-bit
#      literal (lego_coverage::site_id!), and no two sites may share one —
#      a copied `cov!` line would silently merge two branches into one
#      edge. A new site takes a fresh random id, e.g. from
#      `od -An -N8 -tx8 /dev/urandom` written as `0x` + 16 hex digits;
#      never derive it from the site's position, which must stay free to
#      move.
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
  #   - `sort` on the same line or within the next two (sorted_pairs);
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

if [[ "$fail" -ne 0 ]]; then
  echo "determinism-lint: FAILED" >&2
  exit 1
fi
echo "determinism-lint: OK (${#files[@]} files clean, $(wc -l <<<"$sites") coverage sites with distinct ids)"
