#!/usr/bin/env python3
"""Steadiness check: runs each workload repeatedly with distinct seeds.

    python3 servebench/steady.py --runs 10
    python3 servebench/steady.py --runs 5 --workloads user_lookups

For every end-to-end metric it prints the median over the runs and the
quartile spread (Q3 - Q1 of statistics.quantiles(values, n=4), as a share of
the median) against the metric's bound from BENCHMARK.json: "steady" below a
third of the bound, "in bound" below the bound. It also confirms that the counts fixed
by construction (the "fixed" object of each run's counts line) and the share
of failed operations repeat exactly, that every run is correct, and that each
run prints exactly the declared metrics with their units. Exits non-zero when
any of these fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, universal_newlines=True,
                         cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit code %d" % (workload, seed,
                                                       out.returncode))
    counts = next((json.loads(l[len("counts "):]) for l in lines
                   if l.startswith("counts ")), {})
    return json.loads(lines[-1]), counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--json", help="write every run's result to this file")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if a.trace else "end_to_end"]
    names = [w["name"] for w in spec["workloads"]]
    ok = True
    dump = {}
    for w in a.workloads or names:
        results = []
        for i in range(a.runs):
            seed = a.seed0 + i
            res, counts = run_once(w, seed, spec["run_seconds"], a.trace)
            results.append((res, counts))
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (w, seed, res["correct"], res["attempted"], res["failed"]),
                  file=sys.stderr)
        dump[w] = [{"result": r, "counts": c} for r, c in results]
        print("\n== %s (%d runs)" % (w, a.runs))
        if not all(r["correct"] for r, _ in results):
            print("  FAIL: a run reported correct=false")
            ok = False
        shares = {r["failed"] / r["attempted"] for r, _ in results}
        if len(shares) != 1:
            print("  FAIL: failed share differs between runs: %s" % shares)
            ok = False
        fixed = [json.dumps(c.get("fixed"), sort_keys=True) for _, c in results]
        if len(set(fixed)) != 1:
            print("  FAIL: counts fixed by construction differ:")
            for f in sorted(set(fixed)):
                print("    " + f)
            ok = False
        else:
            print("  fixed counts repeat exactly: %s" % fixed[0])
        for m in declared:
            units = {r["metrics"].get(m["name"], {}).get("unit")
                     for r, _ in results}
            if units != {m["unit"]}:
                print("  FAIL: %s printed with units %s" % (m["name"], units))
                ok = False
                continue
            values = [r["metrics"][m["name"]]["value"] for r, _ in results]
            med = statistics.median(values)
            if "bound" not in m or len(values) < 2:
                print("  %-24s median %14.4f" % (m["name"], med))
                continue
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / abs(med) if med else float("inf")
            bound = m["bound"]
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "in bound"
            else:
                verdict = "FAIL"
                ok = False
            print("  %-24s median %14.4f  spread %6.3f  bound %.2f  %s" %
                  (m["name"], med, spread, bound, verdict))
        extra = set(results[0][0]["metrics"]) - {m["name"] for m in declared}
        if extra:
            print("  FAIL: undeclared metrics %s" % sorted(extra))
            ok = False
    if a.json:
        with open(a.json, "w") as f:
            json.dump(dump, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
