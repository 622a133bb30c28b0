#!/bin/sh
# Record-tool regression gate (wired into CTest as record_tools_gate).
#
# The replay corpus cannot pin the tools that consume access records
# (working_set, working_set_host, hotness, redundant_load): a replayed
# trace carries no records. This gate runs them live on the cs-cpu
# simulator, whose virtual time and seeded record generator make the
# report deterministic, and byte-diffs the JSON report against the
# checked-in golden.
#
# A failure means a record tool's results changed. If that is
# intentional, regenerate the golden with the first command below and
# explain the diff in review.
#
# Usage: check_record_tools.sh path/to/accelprof
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ACCELPROF=${1:?usage: check_record_tools.sh path/to/accelprof}
GOLDEN="$REPO_ROOT/tests/corpus/live/alexnet_cs_cpu_1iter.record_tools.json"

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

"$ACCELPROF" -t working_set_host -t working_set -t hotness \
  -t redundant_load -b cs-cpu --iters 1 --format json alexnet >"$OUT"
if ! cmp -s "$OUT" "$GOLDEN"; then
  echo "record_tools_gate: the report diverges from" \
    "$(basename "$GOLDEN")" >&2
  echo "--- diff (golden vs this run) ---" >&2
  diff -u "$GOLDEN" "$OUT" >&2 || true
  exit 1
fi

echo "record_tools_gate: the report matches the golden"
