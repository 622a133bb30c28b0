#!/bin/sh
# Regenerates the checked-in trace corpus under tests/corpus/.
#
# The corpus is the regression anchor for the binary trace format
# (docs/TRACE_FORMAT.md): the capture pipeline is deterministic (the
# simulator runs on virtual time, the workload generators are seeded),
# so the trace bytes and the replayed reports are stable across runs
# and machines. CI replays every checked-in trace and byte-diffs each
# report against its checked-in golden (see check_corpus.sh), and
# re-captures every trace and byte-compares it (see check_capture.sh);
# any wire-format or tool-output change must regenerate the corpus in
# the same commit and explain the diff in review.
#
# The members and the capture command live in corpus_members.sh.
#
# Usage: scripts/capture_corpus.sh [path/to/accelprof]
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ACCELPROF=${1:-"$REPO_ROOT/build/accelprof"}
CORPUS="$REPO_ROOT/tests/corpus"
. "$REPO_ROOT/scripts/corpus_members.sh"

if [ ! -x "$ACCELPROF" ]; then
  echo "error: accelprof not found at $ACCELPROF (build first)" >&2
  exit 1
fi

mkdir -p "$CORPUS"

# capture <name> "<tool> <tool>..." <capture flags and model...>
#
# Captures tests/corpus/<name>.trace and writes
# <name>.<tool>.golden.json for every listed tool, plus
# <name>.<first-tool>.golden.{csv,txt} so the non-JSON sinks stay
# anchored too. The gate (check_corpus.sh) discovers goldens by
# filename, so adding a member to corpus_members.sh is the whole
# corpus-growth step.
capture() {
  NAME=$1
  TOOLS=$2
  shift 2
  capture_corpus_trace "$ACCELPROF" "$CORPUS/$NAME.trace" "$@"
  FIRST=1
  for TOOL in $TOOLS; do
    "$ACCELPROF" -t "$TOOL" -b replay --trace "$CORPUS/$NAME.trace" \
      --format json >"$CORPUS/$NAME.$TOOL.golden.json"
    if [ "$FIRST" = 1 ]; then
      "$ACCELPROF" -t "$TOOL" -b replay --trace "$CORPUS/$NAME.trace" \
        --format csv >"$CORPUS/$NAME.$TOOL.golden.csv"
      "$ACCELPROF" -t "$TOOL" -b replay --trace "$CORPUS/$NAME.trace" \
        --format text >"$CORPUS/$NAME.$TOOL.golden.txt"
      FIRST=0
    fi
  done
}

corpus_members capture

echo "corpus regenerated:"
ls -l "$CORPUS"
