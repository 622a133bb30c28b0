#!/bin/sh
# Record-tool regression gate (wired into CTest as record_tools_gate).
#
# The replay corpus cannot pin the tools that consume access records
# (working_set, working_set_host, hotness): a replayed trace carries no
# records. This gate runs them live on the cs-cpu simulator, whose
# virtual time and seeded record generator make the report
# deterministic, and byte-diffs the JSON report against the checked-in
# golden twice: once on the synchronous pipeline, and once on the async
# pipeline with two dispatch lanes after dropping its event_pipeline
# entry (queue counters, which only the async run reports).
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

RAW=$(mktemp)
OUT=$(mktemp)
trap 'rm -f "$RAW" "$OUT"' EXIT

check() {
  if ! cmp -s "$OUT" "$GOLDEN"; then
    echo "record_tools_gate: the $1 report diverges from" \
      "$(basename "$GOLDEN")" >&2
    echo "--- diff (golden vs $1 run) ---" >&2
    diff -u "$GOLDEN" "$OUT" >&2 || true
    exit 1
  fi
}

"$ACCELPROF" -t working_set_host -t working_set -t hotness -b cs-cpu \
  --iters 1 --format json alexnet >"$OUT"
check sync

"$ACCELPROF" -t working_set_host -t working_set -t hotness -b cs-cpu \
  --iters 1 --format json --async --dispatch-threads 2 alexnet >"$RAW"
grep -v '^  {"tool": "event_pipeline"' "$RAW" >"$OUT" || true
check async

echo "record_tools_gate: sync and async reports match the golden"
