#!/usr/bin/env python3
"""Checks that accelprof's flags, its usage text, the environment
variables PASTA reads and the knob docs agree.

Usage: check_driver_flags.py [REPO_ROOT]   (default: this script's repo)

Reads src/driver/accelprof.cpp, every source file under src/ and the
table rows of docs/TUNING.md and docs/SERVE.md, and reports every
mismatch, not just the first:
  * a flag main() parses (`Arg == "--flag"`) that usage() does not show;
  * a flag usage() shows that main() does not parse;
  * a flag named in a doc table row that main() does not parse (a row a
    flag deletion left behind);
  * an environment variable read under src/ (a literal name passed to a
    getEnv*("NAME", ...) call) that no doc table row names as a code
    span;
  * an environment variable a doc table row names (a code span starting
    with an UPPER_CASE name, e.g. `PASTA_FAULTS=seed:spec`) that nothing
    under src/ reads.

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
GETENV_RE = re.compile(r'\bgetEnv\w*\(\s*"([^"]+)"')
# An env-style span: an UPPER_CASE name with at least one underscore,
# optionally followed by "=value" or "/..." (`PASTA_CONNECT/_TENANT`).
ENV_SPAN_RE = re.compile(r"([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)(?![\w])")
SOURCE_EXTS = (".h", ".cpp")


def usage_text(source: str) -> str:
    """The concatenated string literals of usage()'s body."""
    start = source.index("int usage(")
    end = source.index("\n}\n", start)
    return "".join(STRING_RE.findall(source[start:end]))


def doc_table_spans(path: str, pattern: re.Pattern):
    """(line number, name) for every code span in a table row that
    starts with `pattern`: a flag (`--overflow sample:N`, `-t TOOL`)
    or an environment variable (`PASTA_FAULTS=seed:spec`)."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if not line.lstrip().startswith("|"):
                continue
            for span in CODE_SPAN_RE.findall(line):
                match = pattern.match(span)
                if match:
                    yield number, match.group(1)


def env_reads(root: str):
    """(path relative to root, line number, name) for every literal
    name passed to a getEnv*() call under src/."""
    for directory, _, files in sorted(os.walk(os.path.join(root, "src"))):
        for name in sorted(files):
            if not name.endswith(SOURCE_EXTS):
                continue
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for match in GETENV_RE.finditer(text):
                line = text.count("\n", 0, match.start(1)) + 1
                yield os.path.relpath(path, root), line, match.group(1)


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
    doc_envs = {}
    for doc in DOCS:
        path = os.path.join(root, doc)
        for number, flag in doc_table_spans(path, FLAG_RE):
            documented += 1
            if flag not in parsed:
                errors.append(f"{doc}:{number}: table row names '{flag}', "
                              "which accelprof does not parse")
        for number, env in doc_table_spans(path, ENV_SPAN_RE):
            doc_envs.setdefault(env, (doc, number))

    read = set()
    for path, number, env in env_reads(root):
        read.add(env)
        if env not in doc_envs:
            errors.append(f"{path}:{number}: reads env var '{env}', which "
                          "no docs/TUNING.md or docs/SERVE.md table row "
                          "names")
    for env, (doc, number) in sorted(doc_envs.items()):
        if env not in read:
            errors.append(f"{doc}:{number}: table row names env var "
                          f"'{env}', which nothing under src/ reads")

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    print(f"{len(parsed)} accelprof flags all in usage(); "
          f"{documented} flag mentions in doc tables all parsed; "
          f"{len(read)} env vars read under src/ all in doc tables")
    return 0


if __name__ == "__main__":
    sys.exit(main())
