#!/usr/bin/env python3
"""DistCache engine benchmark runner.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Builds the measurement program (perfbench/perfbench_run.cc, against the
engine sources in src/) into the build directory, then runs repetitions of
the named workload, each in a fresh process, until S seconds have passed.
The repetition seeds are derived from --seed, so the same seed gives the same
inputs. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all measures every workload in turn for S seconds each, prints
each one's object on a line of its own after the workload's name, and ends
with one object whose metric names are "<workload>/<metric>".

--trace 0 reports the end-to-end metrics (medians over repetitions);
--trace 1 reports the per-layer metrics of the traced replay, which each
repetition runs after its timed Run() call, plus the tracing overhead, and
prints the traced run's own end-to-end figures on a line before the result.
A repetition whose correctness check fails counts its requests as failed and
makes the run exit nonzero. A host-context line (CPU count, pinning, CPU
steal across the run, load average, failed fraction, per-repetition figures)
precedes the result and is appended to runs.jsonl in the build directory.
Sharded workloads pin their shards to cores 0..shards-1 and keep the
program's other threads off those cores; the sequential workload runs each
repetition on one CPU, taking the CPUs in turn. A workload that needs more
busy threads than there are CPUs is refused.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
PROGRAM = os.path.join(BUILD_DIR, "perfbench_run")
# Every run, its repetitions included, must end within this many seconds of
# the build finishing; a repetition that would overrun it is killed.
RUN_DEADLINE_S = 170
# Traced repetitions per --trace 1 run, at least.
TRACE_REPS = 3

# Paper-default cluster (32 spines, 32 racks x 32 servers, 100 objects per
# switch, Zipf-0.99); open-loop Poisson arrivals at 0.9 x the aggregate server
# capacity of 1024 servers. Every workload runs open loop, so every workload
# reports a simulated p99 and the queueing overlay's cost shows in each trace.
ARRIVAL_RATE = 0.9 * 1024
# LRU routes every hit to the topmost copy, so its hottest spine carries ~9x
# the mean cache load; at 0.9x server capacity that spine saturates and p99
# grows with run length. 0.3x keeps every node below saturation.
LRU_ARRIVAL_RATE = 0.3 * 1024

# Per workload: `requests` per repetition; `setups` timed MakeSimBackend calls
# per repetition (many where set-up takes milliseconds, so its median is
# steady); `min_reps` untraced repetitions every run makes, whose fidelity
# metrics (hit ratio, imbalance, sim p99) are reported, so those repeat exactly
# for a given --seed. LRU's cache imbalance depends on where the seed places
# the hottest keys (about 15% per repetition), so that workload takes short
# repetitions and many of them.
WORKLOADS = {
    "read_openloop_seq": {
        "busy_threads": 1,
        "requests": 16_000_000,
        "setups": 20,
        "min_reps": 9,
        # The fluid engine's hit ratio must lie within eight standard errors
        # of a hit ratio over n requests (p(1-p) <= 1/4): 0.001 at 16M, where
        # the measured gap over five seeds was at most 1.8e-4.
        "flags": lambda n: {
            "backend": "sequential", "keys": 100_000_000,
            "arrival-rate": ARRIVAL_RATE, "fluid-tolerance": 4 / math.sqrt(n),
        },
    },
    "lru_writeback_shift_sharded2": {
        "busy_threads": 2,
        "requests": 2_000_000,
        "setups": 20,
        "min_reps": 24,
        "flags": lambda n: {
            "backend": "sharded", "shards": 2, "pin": 1, "keys": 10_000_000,
            "write-ratio": 0.2, "policy": "lru", "write-policy": "back",
            "shift-at": n // 4, "shift-by": 5_000_000, "realloc-at": n // 2,
            "arrival-rate": LRU_ARRIVAL_RATE,
        },
    },
    "memwall_failover_multiproc2": {
        "busy_threads": 3,
        "requests": 40_000_000,
        "setups": 1,
        "min_reps": 6,
        "flags": lambda n: {
            "backend": "multiproc", "shards": 2, "pin": 1,
            "keys": 100_000_000, "pool": 32_000_000, "objects": 16_384,
            "two-level": 1, "fail-spines": 2, "fail-at": n // 5,
            "remap-at": n // 2, "recover-at": n * 3 // 4,
            "arrival-rate": ARRIVAL_RATE,
        },
    },
}

END_TO_END_UNITS = {
    "throughput_mrps": "Mreq/s",
    "setup_s": "s",
    "cpu_s_per_mreq": "s/Mreq",
    "peak_rss_mb": "MiB",
    "hit_ratio": "fraction",
    "cache_imbalance": "ratio",
    "sim_p99": "vtime",
}

PER_LAYER_UNITS = {
    "common.sample_ns": "ns",
    "common.sampler_build_s": "s",
    "sim.model_build_s": "s",
    "sim.route_build_s": "s",
    "sim.plan_build_s": "s",
    "sim.route_table_mb": "MiB",
    "sim.process_ns_per_req": "ns",
    "sim.open_loop_ns_per_req": "ns",
    "sim.hot_prefix_fraction": "fraction",
    "sim.sink_charges_per_req": "count",
    "sim.codec_us_per_shard": "us",
    "core.pot_choose_ns": "ns",
    "core.copies_of_ns": "ns",
    "core.policy_evictions_per_req": "count",
    "core.policy_writebacks_per_req": "count",
    "sketch.record_ns": "ns",
    "runtime.spsc_ns_per_msg": "ns",
    "runtime.shm_ring_ns_per_msg": "ns",
    "runtime.arena_map_ms": "ms",
    "runtime.fork_ms": "ms",
    "runtime.ring_msgs_per_kreq": "count",
    "runtime.contended_poll_fraction": "fraction",
    "runtime.cpu_util": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.core_share": "fraction",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the measurement program; exits on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_run",
                  "-j", jobs])
    with open(log_path, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed (" + " ".join(cmd) + ")")
                sys.exit(1)


def read_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) if len(fields) > 8 else 0


def rep_seed(seed, index):
    return (seed * 1_000_003 + index) % (1 << 62)


def program_cpus(flags, index):
    """CPUs repetition `index` of the program starts on.

    Pinned shards take cores 0..shards-1; the sharded engine's joining thread
    and the multiproc supervisor stay off them, so no shard time-shares its
    core with another thread of the run. The sequential engine is one thread:
    each repetition runs on one CPU, the next repetition on the next CPU. On a
    shared host each virtual CPU has slow spells of 10-30 s of its own, so
    visiting every CPU in turn steadies the median more than staying on one.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if not flags.get("pin"):
        return {allowed[index % len(allowed)]}
    rest = set(allowed) - set(range(flags["shards"]))
    return rest or set(allowed)


def run_rep(flags, cpus, trace, timeout, trace_out=None):
    """Runs one repetition in a fresh process group; returns (result, ok)."""
    args = [PROGRAM] + ["--%s=%s" % (k, v) for k, v in flags.items()]
    args.append("--trace=%d" % (1 if trace else 0))
    if trace_out:
        args.append("--trace-out=" + trace_out)
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: repetition timed out: " + " ".join(args))
        return None, False
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: repetition crashed (exit %d): %s\n%s"
            % (proc.returncode, " ".join(args), err[-2000:]))
        return None, False
    if result.get("errors"):
        log("perfbench: correctness check failed: %s" % "; ".join(result["errors"]))
    return result, proc.returncode == 0 and not result.get("errors")


def median(values):
    return statistics.median(values) if values else 0.0


def mrps(rep):
    return rep["requests"] / rep["wall_s"] / 1e6


def end_to_end(reps, fidelity_reps):
    setups = [s for r in reps for s in r["setup_s"]]
    return {
        "throughput_mrps": median([mrps(r) for r in reps]),
        "setup_s": median(setups),
        "cpu_s_per_mreq": median([r["cpu_s"] / (r["requests"] / 1e6) for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        # Fidelity metrics: medians over a fixed set of repetition seeds, so
        # they repeat exactly for a given --seed on deterministic engines.
        "hit_ratio": median([r["hit_ratio"] for r in fidelity_reps]),
        "cache_imbalance": median([r["cache_imbalance"] for r in fidelity_reps]),
        "sim_p99": median([r["sim_p99"] for r in fidelity_reps]),
    }


def measure(name, args, nproc):
    """Runs one workload for args.seconds; returns its result object."""
    spec = WORKLOADS[name]
    requests = spec["requests"] // (50 if args.smoke else 1)
    min_reps = 1 if args.smoke else spec["min_reps"]
    base = spec["flags"](requests)
    base.update({"requests": requests, "setups": spec["setups"]})
    if args.break_check:
        base["expect-requests"] = requests + 1

    clk = os.sysconf("SC_CLK_TCK")
    steal0 = read_steal_ticks()
    load1 = os.getloadavg()[0]
    t0 = time.monotonic()
    reps, durations = [], []
    used_cpus = set()
    attempted = failed = 0
    index = 0
    trace_dir = os.path.join(BUILD_DIR, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    if args.trace:
        min_reps = min(min_reps, TRACE_REPS)
    while len(reps) < min_reps or (
            time.monotonic() - t0 + median(durations) <= args.seconds):
        flags = dict(base, seed=rep_seed(args.seed, index))
        cpus = program_cpus(base, index)
        used_cpus |= cpus
        out = None
        if args.trace:
            out = os.path.join(trace_dir, "%s-%d-%d.json" % (name, args.seed, index))
        started = time.monotonic()
        timeout = max(1.0, RUN_DEADLINE_S - (started - t0))
        result, ok = run_rep(flags, cpus, args.trace, timeout, out)
        durations.append(time.monotonic() - started)
        index += 1
        attempted += requests
        if not ok:
            failed += requests
            break
        reps.append(result)
    wall = time.monotonic() - t0
    steal_s = (read_steal_ticks() - steal0) / clk

    host = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "nproc": nproc, "program_cpus": sorted(used_cpus),
        "shards": base.get("shards", 1), "busy_threads": spec["busy_threads"],
        "repetitions": index, "wall_s": round(wall, 3),
        "cpu_steal_s": steal_s, "cpu_steal_frac": steal_s / (wall * nproc),
        "loadavg_1m_before": load1, "loadavg_1m_after": os.getloadavg()[0],
        "failed_fraction": failed / attempted if attempted else 0.0,
        "rep_mrps": [round(mrps(r), 4) for r in reps],
        "rep_setup_s": [round(median(r["setup_s"]), 6) for r in reps],
    }
    print("host " + json.dumps(host))
    with open(os.path.join(BUILD_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps(host) + "\n")

    metrics = {}
    if reps and not failed:
        e2e = end_to_end(reps, reps[:min_reps])
        if args.trace:
            shards = base.get("shards", 1) if base["backend"] != "sequential" else 1
            layer = {k: median([r["layer"][k] for r in reps]) for k in reps[0]["layer"]}
            # Share of the per-thread end-to-end time per request that the
            # replayed request-core layers (key draw + request processing)
            # account for; the rest is set-up inside Run, transport and waits.
            per_req_ns = 1e3 * shards / e2e["throughput_mrps"]
            layer["trace.core_share"] = (layer["common.sample_ns"] +
                                         layer["sim.process_ns_per_req"]) / per_req_ns
            print("traced run end-to-end: " + ", ".join(
                "%s %.6g" % (k, v) for k, v in e2e.items()))
            metrics = {k: {"value": layer[k], "unit": u}
                       for k, u in PER_LAYER_UNITS.items()}
        else:
            metrics = {k: {"value": e2e[k], "unit": u}
                       for k, u in END_TO_END_UNITS.items()}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink each repetition 50x (tests)")
    parser.add_argument("--break-check", action="store_true",
                        help="expect a wrong request count (tests the check)")
    args = parser.parse_args()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    nproc = len(os.sched_getaffinity(0))
    for name in names:
        if WORKLOADS[name]["busy_threads"] > nproc:
            log("perfbench: %s needs %d busy threads but only %d CPUs are available"
                % (name, WORKLOADS[name]["busy_threads"], nproc))
            sys.exit(2)
    build()

    results = {}
    for name in names:
        results[name] = measure(name, args, nproc)
        if len(names) > 1:
            print(name + " " + json.dumps(results[name]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        # One object for every workload: metric names are "<workload>/<metric>".
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (name, k): m for name, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
