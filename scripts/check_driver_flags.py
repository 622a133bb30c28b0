#!/usr/bin/env python3
"""Checks that accelprof's flags, its usage text and the knob docs agree.

Usage: check_driver_flags.py [REPO_ROOT]   (default: this script's repo)

Reads src/driver/accelprof.cpp and reports every mismatch, not just the
first:
  * a flag main() parses (`Arg == "--flag"`) that usage() does not show;
  * a flag usage() shows that main() does not parse;
  * a flag named in a table row of docs/TUNING.md or docs/SERVE.md that
    main() does not parse (a row a flag deletion left behind).

Exit status is non-zero when any mismatch is found.
"""

import os
import re
import sys

DRIVER = os.path.join("src", "driver", "accelprof.cpp")
DOCS = [os.path.join("docs", "TUNING.md"), os.path.join("docs", "SERVE.md")]

PARSED_RE = re.compile(r'Arg == "(-[^"]+)"')
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
# A flag starts a word: "cs-gpu" holds no flag, "[-b|--backend" holds two.
FLAG_RE = re.compile(r"(?<![\w-])(--?[a-z][a-z0-9-]*)")
CODE_SPAN_RE = re.compile(r"`([^`]*)`")


def usage_text(source: str) -> str:
    """The concatenated string literals of usage()'s body."""
    start = source.index("int usage(")
    end = source.index("\n}\n", start)
    return "".join(STRING_RE.findall(source[start:end]))


def doc_table_flags(path: str):
    """(line number, flag) for every code span in a table row that
    starts with a flag, e.g. `--overflow sample:N` or `-t TOOL`."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.lstrip().startswith("|"):
                continue
            for span in CODE_SPAN_RE.findall(line):
                match = FLAG_RE.match(span)
                if match:
                    yield number, match.group(1)


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..")
    with open(os.path.join(root, DRIVER), encoding="utf-8") as handle:
        source = handle.read()
    parsed = set(PARSED_RE.findall(source))
    shown = set(FLAG_RE.findall(usage_text(source)))

    errors = []
    for flag in sorted(parsed - shown):
        errors.append(f"{DRIVER}: '{flag}' is parsed but missing from "
                      "usage()")
    for flag in sorted(shown - parsed):
        errors.append(f"{DRIVER}: usage() shows '{flag}', which main() "
                      "does not parse")
    documented = 0
    for doc in DOCS:
        for number, flag in doc_table_flags(os.path.join(root, doc)):
            documented += 1
            if flag not in parsed:
                errors.append(f"{doc}:{number}: table row names '{flag}', "
                              "which accelprof does not parse")

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    print(f"{len(parsed)} accelprof flags all in usage(); "
          f"{documented} flag mentions in doc tables all parsed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
