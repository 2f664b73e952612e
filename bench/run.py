"""Benchmark of newtonpoly: the seeded closed-loop workloads of BENCHMARK.json.

Run from the root of a checkout:

    python3 bench/run.py --workload polygon-monoid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

BENCHMARK.json names the workloads (``all`` runs every one), the metrics with
their units and the default ``--seconds``.  Each workload runs in its own
fresh interpreter (bench/worker.py), one after another, as a closed loop with
a single caller.  Inputs and expected answers are generated from ``--seed``
in this process before anything is timed; the worker sees only the generated
inputs.  With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it prints the per-layer metrics of a traced run instead and
writes its spans to ``bench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Operation and set-up
times are scaled to one fixed machine speed, measured by the reference
computation of bench/reference.py beside every operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# set-up is sampled in this many fresh interpreters during pauses spread
# evenly over the timed phase, so that the median spans the machine's speed
# over the whole run; the timed interpreter's own set-up is one more sample
SETUP_PAUSES = 8
# a workload must finish well inside three minutes, set-up included
TIME_LIMIT_S = 170


class BenchError(Exception):
    pass


def _worker(job, deadline, on_pause=None):
    """Run worker.py on job and return its result.  Each "pause" line the
    worker prints is answered once on_pause() has returned.  The worker's
    standard error goes straight to ours."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{job['workload']}: out of time before the {job['mode']} worker")
    proc = subprocess.Popen(
        [sys.executable, WORKER],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    lines = []
    try:
        proc.stdin.write(json.dumps(job) + "\n")
        proc.stdin.flush()
        for line in proc.stdout:
            if line == "pause\n":
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                lines.append(line)
    except BrokenPipeError:
        pass  # the worker died; its exit status says how
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if time.monotonic() >= deadline:
        raise BenchError(f"{job['workload']}: worker exceeded {TIME_LIMIT_S} s")
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['workload']}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, spec):
    """Generate, set up, time and check one workload; returns the worker's
    result with the set-up samples added."""
    from workloads import load

    deadline = time.monotonic() + TIME_LIMIT_S
    data = load(name).generate(seed)
    job = {"workload": name, "warmup": data["warmup"]}

    setups, walls = [], []

    def setup_sample():
        sample = _worker(dict(job, mode="setup"), deadline)
        setups.append(sample["setup_s"])
        walls.append(sample["setup_wall_s"])

    result = _worker(
        dict(
            job,
            mode="run",
            rounds=data["rounds"],
            seconds=seconds,
            pauses=0 if trace else SETUP_PAUSES,
            trace=trace,
            per_layer=[m["name"] for m in spec["per_layer"]],
            spans_path=os.path.join(BENCH, "out", f"spans-{name}.tsv"),
        ),
        deadline,
        setup_sample,
    )
    setups.append(result["setup_s"])
    walls.append(result["setup_wall_s"])
    result["setup_samples"] = setups
    result["setup_wall_s"] = statistics.median(walls)
    result["setup_s"] = statistics.median(setups)
    return result


def report(name, seed, seconds, trace, res, spec):
    """Human-readable lines; returns the metrics for the JSON line."""
    print(f"{name}  seed {seed}  closed loop, one caller  {seconds:g} s timed"
          + ("  (traced run)" if trace else ""))
    print(f"  ops_per_s    {res['ops_per_s']:12.3f} 1/s   "
          f"{res['ops']} operations, scaled;"
          f" {res['wall_ops_per_s']:.3f} 1/s unscaled over {res['elapsed_s']:.2f} s"
          + ("  (untraced half)" if trace else ""))
    print(f"  op_p50_ms    {res['op_p50_ms']:12.3f} ms")
    print(f"  op_tail_ms   {res['op_tail_ms']:12.3f} ms    p{res['tail_percentile']} "
          f"of {res['ops']} samples, {res['tail_beyond']} beyond it")
    print(f"  fail_frac    {res['failed'] / res['attempted']:12.6f}       "
          f"{res['failed']} failed of {res['attempted']} attempted")
    samples = ", ".join(f"{s:.3f}" for s in res["setup_samples"])
    print(f"  setup_s      {res['setup_s']:12.3f} s     median of [{samples}],"
          f" {res['setup_wall_s']:.3f} s unscaled")
    print(f"  peak_rss_mb  {res['peak_rss_mb']:12.1f} MB")
    for line in res["failures"]:
        print(f"  FAIL {line}")
    if trace:
        values = {m["name"]: (res["per_layer"][m["name"]], m["unit"]) for m in spec["per_layer"]}
        for metric, (value, unit) in values.items():
            print(f"  {metric:56s} {value:14.4f} {unit}")
    else:
        values = {m["name"]: (res[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return {m: {"value": v, "unit": u} for m, (v, u) in values.items()}


def main(argv=None):
    with open(SPEC) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "newtonpoly", "__init__.py")):
        print(f"bench: no newtonpoly sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    names = workloads if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace, spec)
            values = report(name, args.seed, args.seconds, args.trace, res, spec)
            attempted += res["attempted"]
            failed += res["failed"]
            if len(names) == 1:
                metrics = values
            else:
                metrics.update({f"{name}.{m}": v for m, v in values.items()})
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
