#!/usr/bin/env python3
"""Builds and runs the serving benchmark from the checkout it sits in.

    python3 servebench/run.py --workload hot_views --seed 1 --seconds 10 --trace 0
    python3 servebench/run.py --smoke     # all three workloads, toy size

The build goes to .bench_build/servebench under the checkout root (CMake,
Release). The last line of standard output is the benchmark's JSON result;
build output and the per-process reports go to standard error.

An untraced run is made of PROCESSES separate processes, each setting its
workload up once and measuring a fixed number of rounds sized for
seconds / PROCESSES, with its own seed (seed * PROCESSES + i). On a 4-vCPU virtual machine about one process
in three ran in a slow mode, with the whole process pinned to one CPU too:
result-cache hits took ~17 us instead of ~9 us on the same inputs. The
median over the processes flipped between the two modes from run to run.
The second best of eight stays in the fast mode unless seven are slow, so
read_p50_us, write_p50_us and reads_per_s are taken that way. A traced run
is the untraced run's first process (same seed, same length), followed by
the replay.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORKLOADS = ["hot_views", "user_lookups", "adhoc_queries"]
PROCESSES = 8
# Taken as the second best of the processes' values; read_p99_us is taken
# over the pooled reads, so that a run has enough reads beyond it, and
# setup_s and peak_rss_mib are medians.
SECOND_BEST = {"read_p50_us", "write_p50_us", "reads_per_s"}


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("servebench: build failed")
    return os.path.join(BUILD, "servebench")


def run(binary, args):
    """Runs the binary; its output goes to standard error. Returns the
    parsed counts line and result line (None when the run failed)."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          universal_newlines=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("servebench: %s exited with %d" % (args, proc.returncode))
    counts = next((json.loads(l[len("counts "):]) for l in lines
                   if l.startswith("counts ")), {})
    return counts, json.loads(lines[-1])


def percentile(values, q):
    """Linear interpolation between closest ranks, as the binary computes."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def pooled(binary, workload, seed, seconds):
    """One untraced run: PROCESSES processes, samples pooled."""
    reads, per_process, measured = [], [], 0.0
    correct, attempted, failed, fixed, counts = True, 0, 0, set(), []
    for i in range(PROCESSES):
        raw = os.path.join(BUILD, "raw-%s-%d-%d.json" % (workload, seed, i))
        c, res = run(binary, ["--workload", workload,
                              "--seed", str(seed * PROCESSES + i),
                              "--seconds", repr(seconds / PROCESSES),
                              "--trace", "0",
                              "--raw-out", raw])
        with open(raw) as f:
            samples = json.load(f)
        os.remove(raw)
        reads += samples["reads_us"]
        measured += samples["measured_s"]
        per_process.append(res["metrics"])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        fixed.add(json.dumps(c.get("fixed"), sort_keys=True))
        counts.append(c)
    if len(reads) < 1000:
        print("servebench: %d reads leave fewer than ten beyond p99" %
              len(reads), file=sys.stderr)
    if len(fixed) != 1:
        print("servebench: counts fixed by construction differ between "
              "processes: %s" % sorted(fixed), file=sys.stderr)
        correct = False
    summary = dict(counts[-1])
    summary.update({"seed": seed, "processes": PROCESSES,
                    "fixed": json.loads(sorted(fixed)[0]),
                    "reads": len(reads),
                    "writes": sum(c.get("writes", 0) for c in counts),
                    "measured_s": measured})
    metrics = {}
    for k, v in per_process[0].items():
        values = sorted(m[k]["value"] for m in per_process)
        if k in SECOND_BEST:
            # Lower is better except for a rate.
            value = values[-2] if k == "reads_per_s" else values[1]
        else:
            value = statistics.median(values)
        metrics[k] = {"value": value, "unit": v["unit"]}
    metrics["read_p99_us"]["value"] = percentile(reads, 0.99)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return summary, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size with every check")
    a = ap.parse_args()
    binary = build()
    if a.smoke:
        ok = True
        for w in WORKLOADS:
            _, res = run(binary, ["--workload", w, "--seed", str(a.seed),
                                  "--seconds", "1", "--trace", "1", "--smoke"])
            passed = res["correct"] is True and res["failed"] == 0
            print("smoke %s: %s" % (w, "ok" if passed else "FAILED"),
                  file=sys.stderr)
            ok = ok and passed
        sys.exit(0 if ok else 1)
    if a.workload is None:
        ap.error("--workload is required without --smoke")
    if a.trace:
        # The traced run is the untraced run's first process, replayed.
        spans = os.path.join(BUILD, "spans-%s-%d.tsv" % (a.workload, a.seed))
        counts, result = run(binary, ["--workload", a.workload,
                                      "--seed", str(a.seed * PROCESSES),
                                      "--seconds", repr(a.seconds / PROCESSES),
                                      "--trace", "1",
                                      "--spans-out", spans])
    else:
        counts, result = pooled(binary, a.workload, a.seed, a.seconds)
    print("counts " + json.dumps(counts))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
