#!/usr/bin/env python3
"""Run the ablation benches and record the per-PR perf trajectory.

Produces a JSON artifact (BENCH_pr<N>.json for --pr N, checked in at the
repo root) with the admission-path throughput sweep from
bench_ablation_admission, the capture/replay throughput figures from
bench_ablation_replay, the fleet-aggregation producer-overhead matrix
from bench_ablation_serve, the fault-tolerance producer-overhead and
chaos exactly-once record from bench_ablation_faults, the machine's
hardware-thread count, plus pass/fail for the other ablation benches'
structural gates — so every PR leaves a comparable perf record instead
of a table that scrolls away in a terminal.

Every bench runs even when an earlier one fails: each bench's record
carries its exit_status (null when the binary is missing), and the
script exits non-zero at the end if any bench failed.

Usage:
  scripts/run_benches.py --pr N [--build-dir build] [--out PATH] [--smoke]

--pr N sets the record's "pr" field and the default output path
BENCH_pr<N>.json; without --pr, --out is required and "pr" is null.

--smoke runs one small repetition (500 events/producer for admission,
2000 events for replay, serve, and faults; no gated benches) — CI uses
it so this script cannot rot; the numbers it records are for harness
verification, not measurement.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# The benches with structural (exit-code) gates worth recording per PR.
GATED_BENCHES = [
    "bench_ablation_event_arena",
    "bench_ablation_dispatch_shards",
]


def run_json_bench(build_dir, name, extra_args):
    """Run a bench that takes --json PATH; return its record.

    The record is the bench's parsed JSON plus its exit_status. A missing
    binary (exit_status null) or a failed run still yields a record, with
    what the bench wrote, so the remaining benches run."""
    exe = os.path.join(build_dir, name)
    if not os.path.exists(exe):
        print(f"error: {exe} not found (build with PASTA_BUILD_BENCHES=ON)")
        return {"exit_status": None, "error": "not built"}
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        proc = subprocess.run(
            [exe, *extra_args, "--json", json_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: {name} failed (exit {proc.returncode})")
        try:
            with open(json_path) as handle:
                record = json.load(handle)
        except ValueError as err:
            record = {"error": f"no JSON record: {err}"}
        record["exit_status"] = proc.returncode
        return record
    finally:
        os.unlink(json_path)


def run_gated(build_dir):
    results = {}
    for name in GATED_BENCHES:
        exe = os.path.join(build_dir, name)
        if not os.path.exists(exe):
            results[name] = "not-built"
            continue
        proc = subprocess.run([exe], stdout=subprocess.DEVNULL,
                              stderr=subprocess.STDOUT)
        results[name] = "pass" if proc.returncode == 0 else "FAIL"
        print(f"{name}: {results[name]}")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--pr", type=int,
                        help="PR number: the record's \"pr\" field and the "
                             "default output BENCH_pr<N>.json")
    parser.add_argument("--out",
                        help="output path (default BENCH_pr<N>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="one small repetition, admission + replay + "
                             "serve benches only (CI harness check, not a "
                             "measurement)")
    args = parser.parse_args()
    if args.out is None:
        if args.pr is None:
            parser.error("give --pr N (or --out PATH)")
        args.out = f"BENCH_pr{args.pr}.json"

    admission_events = 500 if args.smoke else 20000
    replay_events = 2000 if args.smoke else 200000
    serve_events = 2000 if args.smoke else 50000
    faults_events = 2000 if args.smoke else 50000
    record = {
        "pr": args.pr,
        "smoke": args.smoke,
        "hardware_threads": os.cpu_count(),
        "admission": run_json_bench(args.build_dir,
                                    "bench_ablation_admission",
                                    ["--events", str(admission_events)]),
        "replay": run_json_bench(args.build_dir, "bench_ablation_replay",
                                 ["--events", str(replay_events)]),
        "serve": run_json_bench(args.build_dir, "bench_ablation_serve",
                                ["--events", str(serve_events)]),
        "faults": run_json_bench(args.build_dir, "bench_ablation_faults",
                                 ["--events", str(faults_events)]),
        "gated_benches": {} if args.smoke else run_gated(args.build_dir),
    }

    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    failed = [name for name, value in record.items()
              if isinstance(value, dict)
              and value.get("exit_status", 0) != 0]
    failed += [name for name, verdict in record["gated_benches"].items()
               if verdict == "FAIL"]
    if failed:
        sys.exit("error: failed benches: " + ", ".join(failed))


if __name__ == "__main__":
    main()
