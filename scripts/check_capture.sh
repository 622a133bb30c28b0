#!/bin/sh
# Trace-capture gate (wired into CTest as trace_capture_gate).
#
# Re-captures every corpus member (scripts/corpus_members.sh) with the
# given accelprof into a temporary directory and byte-compares each
# trace with tests/corpus/<name>.trace. trace_corpus_gate checks what
# the reader makes of the checked-in bytes; this gate pins the bytes
# the writer produces, so a writer change that alters the wire format
# (or loses determinism) fails here even when the replayed reports
# would not notice. Every checked-in trace must be a member.
#
# Usage: check_capture.sh path/to/accelprof
set -eu

REPO_ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
ACCELPROF=${1:?usage: check_capture.sh path/to/accelprof}
CORPUS="$REPO_ROOT/tests/corpus"
. "$REPO_ROOT/scripts/corpus_members.sh"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

CHECKED=0
recapture() {
  NAME=$1
  shift 2
  capture_corpus_trace "$ACCELPROF" "$TMP/$NAME.trace" "$@"
  if ! cmp "$TMP/$NAME.trace" "$CORPUS/$NAME.trace" >&2; then
    echo "trace_capture_gate: re-captured $NAME.trace differs from" \
      "tests/corpus/$NAME.trace" >&2
    echo "If the wire format changed on purpose, bump trace::Version and" \
      "regenerate with scripts/capture_corpus.sh." >&2
    exit 1
  fi
  CHECKED=$((CHECKED + 1))
}
corpus_members recapture

TRACES=$(find "$CORPUS" -maxdepth 1 -name '*.trace' | wc -l)
if [ "$CHECKED" -ne "$TRACES" ]; then
  echo "error: $CHECKED members re-captured but tests/corpus holds" \
    "$TRACES traces; list every trace in scripts/corpus_members.sh" >&2
  exit 1
fi
echo "trace_capture_gate: $CHECKED re-captured traces match byte for byte"
