"""Steadiness check: two sets of benchmark runs of the same code.

Run from the root of a checkout:

    python3 bench/steadiness.py --runs 10 --baseline bench/baseline.json
    python3 bench/steadiness.py --runs 5 --workloads jacobian-corpus

Each set runs bench/run.py once per seed on every workload, one run at a
time: the first set with seeds 1..N, the second with N+1..2N.  For every
end-to-end metric of BENCHMARK.json and every workload it prints the median
of each set and its spread, the distance between the first and third
quartiles as a share of the median.  The check passes when every spread stays
within the metric's bound and no second median is worse than the first by
more than the bound.  Raw results go to bench/out/.  With
--baseline, the medians and quartiles of every set, and the per-layer metrics
of one traced run per workload, are written to the given file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    change = (second - first) / first
    return -change if better == "higher" else change


def run_once(name, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
         "--seed", str(seed), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"{name} seed {seed} failed:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        sys.exit(f"{name} seed {seed}: {line['failed']} failed operations")
    return {m: v["value"] for m, v in line["metrics"].items()}


def run_set(workloads, seeds):
    results = {name: [] for name in workloads}
    for name in workloads:
        for seed in seeds:
            values = run_once(name, seed, 0)
            results[name].append(values)
            print(f"  {name} seed {seed}: "
                  + "  ".join(f"{m}={v:.4g}" for m, v in values.items()), flush=True)
    return results


def write_baseline(args, spec, workloads, sets):
    baseline = {
        "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                   f"Python {platform.python_version()}",
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for name in workloads:
        entry = {"sets": []}
        for k, results in enumerate(sets):
            summary = {"seeds": [1 + k * args.runs, (k + 1) * args.runs]}
            for metric in spec["end_to_end"]:
                values = [r[metric["name"]] for r in results[name]]
                q1, median, q3 = statistics.quantiles(values, n=4)
                summary[metric["name"]] = {
                    "median": median, "q1": q1, "q3": q3,
                    "unit": metric["unit"],
                }
            entry["sets"].append(summary)
        print(f"  {name} seed 1: traced run", flush=True)
        entry["per_layer_seed"] = 1
        entry["per_layer"] = run_once(name, 1, 1)
        baseline["workloads"][name] = entry
    with open(args.baseline, "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--baseline", help="file to write the baseline to")
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    sets = []
    for k in range(2):
        seeds = range(1 + k * args.runs, 1 + (k + 1) * args.runs)
        print(f"set {k + 1}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        sets.append(run_set(workloads, seeds))
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    with open(os.path.join(BENCH, "out", "steadiness.json"), "w") as fh:
        json.dump(sets, fh, indent=1)
    if args.baseline:
        write_baseline(args, spec, workloads, sets)

    ok = True
    print(f"\n{'workload':18s} {'metric':12s} {'median':>11s} {'spread':>7s}"
          f" {'median 2':>11s} {'spread 2':>8s} {'worse':>7s} {'bound':>6s}")
    for name in workloads:
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            cols, verdict = [], ""
            medians = []
            for results in sets:
                values = [r[m] for r in results[name]]
                s = spread(values)
                medians.append(statistics.median(values))
                cols.append(f"{medians[-1]:11.4g} {s:{7 if not cols else 8}.1%}")
                if s > bound:
                    ok, verdict = False, " SPREAD"
                elif s > bound / 3 and not verdict:
                    verdict = " (over a third of the bound)"
            w = worse_by(medians[0], medians[1], metric["better"])
            cols.append(f"{w:7.1%}")
            if w > bound:
                ok, verdict = False, verdict + " SHIFT"
            print(f"{name:18s} {m:12s} {' '.join(cols)} {bound:6.0%}{verdict}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
