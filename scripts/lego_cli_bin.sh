# Sourced by the CLI smoke scripts to set `cli`, the lego_cli they drive.
# A path given as the script's first argument wins. Without one, build a
# release lego_cli from this checkout (a no-op when it is fresh) and use
# that build, so a smoke run never tests a binary left by an older build.
#
# Usage, in a script run with `set -euo pipefail`:
#   source "$(dirname "$0")/lego_cli_bin.sh" "$@"
if [[ $# -ge 1 ]]; then
  cli="$1"
else
  cli=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." \
    && cargo build --release -q -p lego-bench --bin lego_cli \
      --message-format=json-render-diagnostics \
    | grep -o '"executable":"[^"]*/lego_cli"' | cut -d'"' -f4)
fi
[[ -x "$cli" ]] || { echo "$(basename "$0"): lego_cli not found at '$cli'" >&2; exit 1; }
