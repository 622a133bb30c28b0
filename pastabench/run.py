#!/usr/bin/env python3
"""Wall-clock benchmark of PASTA's own cost.

Builds the `pastabench` runner from this checkout (pastabench/CMakeLists.txt)
and runs one workload, or all of them, for a fixed time budget:

  python3 pastabench/run.py --workload fleet --seed 1 --seconds 30 --trace 0
  python3 pastabench/run.py --workload all           # every workload, keeps going
  python3 pastabench/run.py --smoke                  # tiny self-check

--trace 0 reports the end-to-end metrics named in BENCHMARK.json; --trace 1
runs the traced arms and reports the per-layer metrics. Every run prints a
table (metric, value, unit, configuration, failures) and, as its last line,
one JSON object with the keys correct, attempted, failed and metrics. The
full record, with the seed and the effective configuration, is written to
<build>/results/. The build directory is $CARGO_TARGET_DIR/pastabench
(default .bench_build/pastabench) under the checkout root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

# Runnable by name and part of --workload all and --smoke, but not in
# BENCHMARK.json: on a 4-vCPU KVM guest its run-to-run spread (0.26 of the
# median for run_s.p50 over five runs) exceeds the largest bound a gated
# metric may have (see README.md).
UNGATED = ["zoo_live"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
START = time.monotonic()
# A run must end within this many seconds (the first one may also build).
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 720


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "pastabench")


def fail_setup(message):
    sys.stderr.write("pastabench: %s\n" % message)
    sys.exit(2)


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "pasta"))):
        fail_setup("no PASTA sources next to %s; run from a full checkout"
                   % HERE)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "pastabench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            proc = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_LIMIT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail_setup("build step %s failed: %s" % (step[:2], err))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail_setup("build step %s exited %d" % (" ".join(step[:2]),
                                                   proc.returncode))
    exe = os.path.join(out, "pastabench")
    if not os.path.isfile(exe):
        fail_setup("build produced no %s" % exe)
    return exe


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "unavailable (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "pastabench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name)
                         for name in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def run_workload(exe, workload, seed, seconds, trace, smoke, started):
    """Runs one workload; returns the runner's record (or a failure)."""
    workdir = os.path.join(build_dir(), "work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", "."]
    if smoke:
        cmd.append("--smoke")
    budget = max(30.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        # cwd = workdir keeps the fleet socket path short.
        proc = subprocess.run(cmd, cwd=workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired as err:
        return {"workload": workload, "seed": seed, "attempted": 1,
                "failed": 1, "crashed": True,
                "errors": ["timed out after %.0f s; stderr: %s"
                           % (budget, (err.stderr or "")[-500:])]}
    record = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    if proc.returncode != 0 or record is None:
        how = ("killed by signal %d" % -proc.returncode
               if proc.returncode < 0 else "exit %d" % proc.returncode)
        return {"workload": workload, "seed": seed, "attempted": 1,
                "failed": 1, "crashed": True,
                "errors": ["runner %s; stderr: %s"
                           % (how, proc.stderr.strip()[-800:])]}
    return record


def comparability(config):
    reasons = []
    if config.get("build_type") not in ("Release", "RelWithDebInfo"):
        reasons.append("build type '%s' is not optimized"
                       % config.get("build_type"))
    env = config.get("validate_env", "")
    if config.get("validate_default") or env not in ("", "0"):
        reasons.append("PASTA_VALIDATE is on")
    return reasons


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def print_table(record, names, trace):
    config = record.get("config", {})
    print("== %s  seed %s  trace %d  samples %s"
          % (record.get("workload"), record.get("seed"), int(trace),
             json.dumps(record.get("samples", {}))))
    for key in ("program", "backend", "tools", "pipeline", "lanes",
                "queue_depth", "analysis_threads", "app_threads",
                "hardware_threads", "build_type", "compiler",
                "validate_default", "git_commit", "source_digest"):
        if key in config:
            print("   config %-18s %s" % (key, fmt(config[key])))
    reasons = comparability(config) if config else ["no configuration"]
    if reasons:
        print("   NOT COMPARABLE: " + "; ".join(reasons))
    section = "per_layer" if trace else "end_to_end"
    metrics = record.get(section, {})
    for name in names:
        entry = metrics.get(name)
        if entry:
            print("   %-28s %14s %s" % (name, fmt(entry["value"]),
                                        entry["unit"]))
        else:
            print("   %-28s %14s" % (name, "MISSING"))
    for name, entry in sorted(record.get("extra", {}).items()):
        if isinstance(entry, dict):
            print("   %-28s %14s %s" % (name, fmt(entry["value"]),
                                        entry["unit"]))
        else:
            print("   %-28s %14s" % (name, fmt(entry)))
    for tool, values in sorted(record.get("tools", {}).items()):
        for key in ("hook_s", "calls", "finish_s", "report_s", "device_s"):
            entry = values[key]
            print("   %-28s %14s %s" % ("tool.%s.%s" % (tool, key),
                                        fmt(entry["value"]), entry["unit"]))
    if trace and "hook_time_within_bound" in record:
        print("   summed hook time within run time x hook threads: %s"
              % record["hook_time_within_bound"])
    for err in record.get("errors", []):
        print("   FAILED " + err)


def summarize(record, names, trace):
    """The result line: every named metric, or correct=false."""
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name in names:
        entry = record.get(section, {}).get(name)
        if entry is not None and entry.get("value") is not None:
            metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    attempted = max(1, int(record.get("attempted", 1)))
    failed = int(record.get("failed", attempted))
    correct = (failed == 0 and not record.get("crashed")
               and len(metrics) == len(names)
               and record.get("hook_time_within_bound", True))
    return {"correct": bool(correct), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def save(record, workload, seed, trace):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%s-trace%d.json"
                        % (workload, seed, int(trace)))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def run_one(exe, spec, workload, seed, seconds, trace, smoke, identity,
            started):
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    record = run_workload(exe, workload, seed, seconds, trace, smoke, started)
    record.setdefault("config", {})
    record["config"]["git_commit"], record["config"]["source_digest"] = \
        identity
    record["comparable"] = not comparability(record["config"])
    result = summarize(record, names, trace)
    record["result"] = result
    print_table(record, names, trace)
    print("   error_rate %s (%d of %d samples failed); record: %s"
          % (fmt(result["failed"] / result["attempted"]), result["failed"],
             result["attempted"], save(record, workload, seed, trace)))
    return result, record


def smoke(exe, spec, identity):
    """Runs every workload tiny, traced and untraced, and checks that every
    named metric is emitted with its unit, that admitted counts reconcile
    (the runner fails a sample otherwise) and that summed hook time stays
    within run time x hook threads."""
    problems = []
    named_extras = {"zoo_records": ["records_per_s"],
                    "admit_cold": ["admit_ns.p50", "admit_ns.p99"]}
    for workload in [w["name"] for w in spec["workloads"]] + UNGATED:
        for trace in (False, True):
            result, record = run_one(exe, spec, workload, 1, 1, trace, True,
                                     identity, time.monotonic())
            tag = "%s trace %d" % (workload, int(trace))
            section = "per_layer" if trace else "end_to_end"
            for metric in spec[section]:
                got = record.get(section, {}).get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append("%s: %s missing or not in %s"
                                    % (tag, metric["name"], metric["unit"]))
            wanted = ["error_rate"] + (
                ["run_s.p50", "run_s.p90", "events_per_s", "overhead_pct"]
                + named_extras.get(workload, []) if not trace else [])
            for name in wanted:
                if name not in record.get("extra", {}):
                    problems.append("%s: %s missing" % (tag, name))
            if not result["correct"]:
                problems.append("%s: not correct (%s)"
                                % (tag, "; ".join(record.get("errors", []))))
            if trace and not record.get("hook_time_within_bound"):
                problems.append("%s: summed hook time exceeds run time x "
                                "hook threads" % tag)
            # Admitted counts reconcile: nothing dropped anywhere, and every
            # fleet stream arrived clean (the runner already fails a sample
            # whose admitted count differs from what was sent).
            layers = record.get("per_layer", {})
            expected = {"pipeline.dropped": 0, "serve.corrupt_streams": 0,
                        "serve.duplicate_frames": 0}
            if workload == "fleet":
                expected["serve.clean_streams"] = 3
            for name, want in expected.items() if trace else ():
                got = layers.get(name, {}).get("value")
                if got != want:
                    problems.append("%s: %s is %s, expected %s"
                                    % (tag, name, got, want))
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke: %s" % ("FAIL" if problems else "PASS"))
    return not problems


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and self-check")
    args = parser.parse_args()

    exe = build()
    identity = source_identity()
    if args.smoke:
        sys.exit(0 if smoke(exe, spec, identity) else 1)

    workloads = names if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        # Keep going: a failing or crashing workload is recorded as failed
        # and the others still run.
        started = START if len(workloads) == 1 else time.monotonic()
        results[workload], _ = run_one(exe, spec, workload, args.seed,
                                       args.seconds, bool(args.trace), False,
                                       identity, started)
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s/%s" % (w, m): v
                             for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))


if __name__ == "__main__":
    main()
