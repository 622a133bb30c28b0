#!/bin/sh
# Figure-bench regression gate (wired into CTest as figure_gate when the
# benches are built).
#
# bench_figure9, bench_figure10 and bench_figure13 run sessions with the
# access-record tools, so their stdout depends on record delivery and
# the tools' reducers. At PASTA_BENCH_GRANULARITY=1048576 each runs in
# well under a second and prints the same bytes on every run; this gate
# byte-compares that stdout with the checked-in goldens in
# tests/corpus/live/.
#
# A failure means a reproduced figure changed. If that is intentional,
# regenerate the goldens with
#   PASTA_BENCH_GRANULARITY=1048576 build/bench_figureN \
#     >tests/corpus/live/bench_figureN.txt
# and explain the diff in review.
#
# Usage: check_figures.sh path/to/bench_figure9 path/to/bench_figure10 \
#          path/to/bench_figure13
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
LIVE="$REPO_ROOT/tests/corpus/live"
[ $# -gt 0 ] || {
  echo "usage: check_figures.sh path/to/bench_figureN..." >&2
  exit 2
}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

for BENCH in "$@"; do
  NAME=$(basename "$BENCH")
  GOLDEN="$LIVE/$NAME.txt"
  PASTA_BENCH_GRANULARITY=1048576 "$BENCH" >"$OUT"
  if ! cmp -s "$OUT" "$GOLDEN"; then
    echo "figure_gate: $NAME stdout diverges from $(basename "$GOLDEN")" >&2
    echo "--- diff (golden vs run) ---" >&2
    diff -u "$GOLDEN" "$OUT" >&2 || true
    exit 1
  fi
done

echo "figure_gate: $# figure benches match their goldens"
