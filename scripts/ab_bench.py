#!/usr/bin/env python3
"""Paired A/B comparison of pastabench between a base revision and this
checkout.

  scripts/ab_bench.py --base REV --pairs 10 --workload fleet --seconds 30
  scripts/ab_bench.py --base HEAD~1 --pairs 10 --seconds 30 \\
      --workload zoo_records fleet admit_cold --out ab.json

REV is checked out (detached) in a git worktree under a scratch
directory; this checkout is the change. For each workload the script runs
each tree's own pastabench/run.py --trace 0 in pairs, alternating which
tree goes first, with a fresh seed per pair that both sides of the pair
share. It first runs each tree once for one second, unrecorded, so that
the pastabench build stays out of the timed runs.

For each end-to-end metric in this checkout's BENCHMARK.json it prints
the median of each side, the base's interquartile range (IQR), how many
pairs the change won (was better in, by the metric's "better"), and a
verdict: "gain" when the change won at least 9 of every 10 pairs and its
median is better than the base's by more than the base's IQR, "loss" for
the same rule in the other direction, and "none" otherwise, or when
fewer than 10 pairs completed. Running the same revision on both sides
(an A/A run) should give "none" everywhere.

The last line of output is one JSON record: the revisions, the host's
hardware threads and steal time over the whole comparison, and per
workload every paired value, failure counts, medians, IQRs, win counts
and verdicts; --out also writes it to a file. The worktree is removed on
exit. Neither tree's pastabench/ nor BENCHMARK.json is modified; each
tree builds into its own directory.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The 9-of-10 rule means nothing on fewer pairs: 2 of 2 wins happen by
# chance one time in four, so fewer completed pairs give no verdict.
MIN_PAIRS = 10


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True).stdout.strip()


def cpu_times():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_pct(begin, end):
    if begin is None or end is None or end[1] <= begin[1]:
        return None
    return 100.0 * (end[0] - begin[0]) / (end[1] - begin[1])


def run_side(tree, build_base, workload, seed, seconds):
    """One pastabench run; returns (metrics dict or None, failed, attempted).

    build_base, when set, is the CARGO_TARGET_DIR the tree builds under."""
    env = dict(os.environ)
    if build_base:
        env["CARGO_TARGET_DIR"] = build_base
    cmd = [sys.executable, os.path.join(tree, "pastabench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        record = None
    if proc.returncode != 0 or not isinstance(record, dict):
        sys.stderr.write("ab_bench: %s seed %d in %s failed (exit %d): %s\n"
                         % (workload, seed, tree, proc.returncode,
                            proc.stderr.strip()[-400:]))
        return None, 1, 1
    metrics = {name: entry["value"]
               for name, entry in record.get("metrics", {}).items()}
    return metrics, record.get("failed", 0), record.get("attempted", 0)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def compare(base, change, better):
    """Medians, base IQR, wins/losses and the verdict for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    # gap > 0 means the change is better.
    gaps = [sign * (b - c) for b, c in zip(base, change)]
    wins = sum(1 for g in gaps if g > 0)
    losses = sum(1 for g in gaps if g < 0)
    pairs = len(gaps)
    base_median = statistics.median(base) if base else None
    change_median = statistics.median(change) if change else None
    spread = iqr(base)
    verdict = "none"
    if pairs >= MIN_PAIRS:
        median_gap = sign * (base_median - change_median)
        if wins * 10 >= 9 * pairs and median_gap > spread:
            verdict = "gain"
        elif losses * 10 >= 9 * pairs and -median_gap > spread:
            verdict = "loss"
    return {"base_median": base_median, "change_median": change_median,
            "base_iqr": spread, "wins": wins, "losses": losses,
            "pairs": pairs, "verdict": verdict}


def fmt(value):
    return "-" if value is None else "%.6g" % value


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=None,
                        help="seed of the first pair (default: from the "
                        "clock); pair i uses first-seed + i")
    parser.add_argument("--scratch", default=None,
                        help="directory for the base worktree (default: a "
                        "new temporary directory)")
    parser.add_argument("--out", default=None,
                        help="also write the JSON record to this file")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    known = [w["name"] for w in spec["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error("unknown workload '%s' (BENCHMARK.json has %s)"
                         % (workload, ", ".join(known)))
    end_to_end = spec["end_to_end"]
    first_seed = (args.first_seed if args.first_seed is not None
                  else int(time.time()) % 1000000)

    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    change_commit = git("rev-parse", "HEAD")
    change_dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    scratch = args.scratch or tempfile.mkdtemp(prefix="ab_bench-")
    os.makedirs(scratch, exist_ok=True)
    tree = os.path.join(scratch, "base-%s" % base_commit[:12])
    git("worktree", "add", "--detach", tree, base_commit)
    base_build = os.path.join(tree, ".bench_build")
    sides = {"base": (tree, base_build), "change": (ROOT, None)}

    record = {"base": {"rev": args.base, "commit": base_commit},
              "change": {"commit": change_commit,
                         "uncommitted_changes": change_dirty},
              "pairs": args.pairs, "seconds": args.seconds,
              "first_seed": first_seed,
              "host": {"hardware_threads": os.cpu_count()},
              "workloads": {}}
    try:
        begin = cpu_times()
        for workload in args.workload:
            for side, (path, build_base) in sides.items():
                print("ab_bench: warming %s (%s)" % (side, workload),
                      flush=True)
                run_side(path, build_base, workload, first_seed, 1)
            values = {"base": [], "change": []}
            failed = {"base": 0, "change": 0}
            attempted = {"base": 0, "change": 0}
            skipped = []
            for pair in range(args.pairs):
                seed = first_seed + pair
                order = ["base", "change"] if pair % 2 == 0 else \
                    ["change", "base"]
                got = {}
                for side in order:
                    path, build_base = sides[side]
                    metrics, bad, tried = run_side(path, build_base,
                                                   workload, seed,
                                                   args.seconds)
                    failed[side] += bad
                    attempted[side] += tried
                    got[side] = metrics
                if got["base"] is None or got["change"] is None:
                    skipped.append(seed)
                    continue
                values["base"].append(got["base"])
                values["change"].append(got["change"])
                print("ab_bench: %s pair %d/%d (seed %d, %s first) done"
                      % (workload, pair + 1, args.pairs, seed, order[0]),
                      flush=True)
            metrics = {}
            for metric in end_to_end:
                name = metric["name"]
                base = [v[name] for v in values["base"] if name in v]
                change = [v[name] for v in values["change"] if name in v]
                result = compare(base, change, metric["better"])
                result.update({"unit": metric["unit"], "base": base,
                               "change": change})
                metrics[name] = result
            record["workloads"][workload] = {
                "seeds": [first_seed + p for p in range(args.pairs)],
                "skipped_pairs": skipped, "failed": failed,
                "attempted": attempted, "metrics": metrics}
        record["host"]["steal_pct"] = steal_pct(begin, cpu_times())
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", tree],
                       cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    print("\nbase %s (%s) vs change %s%s, %d pairs x %g s, seeds from %d, "
          "%s hardware threads, host steal %s%%"
          % (args.base, base_commit[:12], change_commit[:12],
             " + uncommitted changes" if change_dirty else "", args.pairs,
             args.seconds, first_seed, os.cpu_count(),
             fmt(record["host"]["steal_pct"])))
    for workload, entry in record["workloads"].items():
        print("\n%s (failed/attempted: base %d/%d, change %d/%d)"
              % (workload, entry["failed"]["base"],
                 entry["attempted"]["base"], entry["failed"]["change"],
                 entry["attempted"]["change"]))
        print("  %-14s %14s %14s %12s %6s  %s"
              % ("metric", "base median", "change median", "base IQR",
                 "wins", "verdict"))
        for name, m in entry["metrics"].items():
            print("  %-14s %14s %14s %12s %6s  %s"
                  % (name, fmt(m["base_median"]), fmt(m["change_median"]),
                     fmt(m["base_iqr"]), "%d/%d" % (m["wins"], m["pairs"]),
                     m["verdict"]))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
