#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics on this host.

Usage (from the repository root):

    python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                                [--same-seed] [--record FILE]

Runs perfbench/run.py once per seed, for BENCHMARK.json's run_seconds and with
--trace 0, and prints, for every end-to-end metric, the median and the
distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median — the figure the
end-to-end bounds in BENCHMARK.json are checked against. --same-seed runs
--first-seed every time, to show how far a metric moves between repeats of
the same inputs. --record appends the summary, with the host's CPU count and
model, to FILE (a JSON object mapping each workload to its list of recorded
sets), so the spread a bound was derived from stays on record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="run --first-seed every time")
    parser.add_argument("--record", help="JSON file to merge the summary into")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]

    seeds = ([args.first_seed] * args.seeds if args.same_seed else
             list(range(args.first_seed, args.first_seed + args.seeds)))
    values = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit("seed %d failed:\n%s" % (seed, out.stderr[-2000:]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med,
                         "iqr_share": (q[2] - q[0]) / med if med else 0.0,
                         "values": vals}
        print("%-34s median %-12.6g iqr/median %.4f" % (name, med,
                                                         summary[name]["iqr_share"]))
    record = {"seeds": seeds, "seconds": seconds, "trace": 0,
              "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
              "metrics": summary}
    print(json.dumps(dict(record, workload=args.workload)))
    if args.record:
        recorded = {}
        if os.path.exists(args.record):
            with open(args.record) as f:
                recorded = json.load(f)
        recorded.setdefault(args.workload, []).append(record)
        with open(args.record, "w") as f:
            json.dump(recorded, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
