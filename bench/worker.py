"""One workload in a fresh interpreter: set-up, timed closed loop, checks.

run.py starts this script and sends it a job as JSON on standard input:
``{"mode": "setup" | "run", "workload": name, "warmup": item, "rounds":
[...], "seconds": s, "pauses": n, "trace": 0 | 1, "per_layer": [metric,
...], "spans_path": path}`` on one line.  The script prints one JSON line with
its measurements; before that, "pause" once per pause of the timed phase.

Set-up is the time to import newtonpoly plus one untimed warm-up operation.
In "run" mode the timed phase follows: a closed loop with a single caller,
where each operation starts when the previous one returns.  It cycles through
the rounds and stops at the first round boundary after ``seconds``; it
pauses, untimed, at ``pauses`` round boundaries in between.  With
tracing on, the phase is split in two halves over the same inputs, the first
untraced and the second traced, and their ratio is the tracing overhead.
Every output is checked against the workload's oracle only after timing ends.

Every time reported is scaled to one fixed machine speed (see reference.py):
the worker times the reference computation between every two operations,
and an operation's time is multiplied by NOMINAL_S over the geometric mean of
the reference times right before and right after it.  ops_per_s, op_p50_ms and op_tail_ms are read
off the scaled times; the unscaled wall-clock throughput is reported beside
them.  Set-up is scaled by the median of REFERENCE_REPEATS reference timings
made right after it.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

from reference import NOMINAL_S, scaled, time_reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

clock = time.perf_counter
REFERENCE_REPEATS = 25


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_values)
    rank = max(1, -(-pct * n // 100))  # ceil(pct * n / 100)
    return sorted_values[rank - 1], n - rank


def tail(sorted_values, pct):
    """The requested percentile, lowered until ten samples lie beyond it."""
    while pct > 1:
        value, beyond = percentile(sorted_values, pct)
        if beyond >= 10:
            return value, pct, beyond
        pct -= 1
    value, beyond = percentile(sorted_values, 1)
    return value, 1, beyond


class Run:
    """Outputs of every operation: the first output of each input in full,
    later ones as a digest to be compared with it."""

    def __init__(self, wl):
        self.wl = wl
        self.first = {}
        self.repeats = []
        self.errors = []

    def phase(self, rounds, seconds, pauses=0):
        """Time operations for ``seconds``, stopping at a round boundary.  At
        ``pauses`` round boundaries spread evenly over the phase the clock
        stops, and the phase waits for a line on standard input while run.py
        takes a set-up sample in another interpreter."""
        wl, samples = self.wl, []
        elapsed, r, paused = 0.0, 0, 0
        start = clock()
        before = time_reference(clock)
        while True:
            for i, item in enumerate(rounds[r % len(rounds)]):
                key = (r % len(rounds), i)
                t0 = clock()
                try:
                    out, err = wl.op(item), None
                except Exception as exc:  # a failed operation is counted, never fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                t = clock() - t0
                after = time_reference(clock)
                samples.append(scaled(t, before, after))
                before = after
                if err is not None:
                    self.errors.append((key, err))
                elif key not in self.first:
                    self.first[key] = out
                else:
                    digest = hashlib.blake2b(wl.fingerprint(out).encode(), digest_size=16)
                    self.repeats.append((key, digest.digest()))
            r += 1
            timed = elapsed + clock() - start
            if timed >= seconds:
                return samples, timed
            if paused < pauses and timed >= (paused + 1) * seconds / (pauses + 1):
                print("pause", flush=True)
                sys.stdin.readline()
                elapsed, paused = timed, paused + 1
                start = clock()
                before = time_reference(clock)

    def check(self, rounds):
        """Run the oracles; returns (number of failed operations, messages)."""
        wl = self.wl
        failures = [f"input {key}: raised {err}" for key, err in self.errors]
        verdict = {}
        for key, out in self.first.items():
            item = rounds[key[0]][key[1]]
            try:
                problem = wl.check(item, out)
            except Exception as exc:  # an oracle that cannot run counts as a failure
                problem = f"check raised {type(exc).__name__}: {exc}"
            digest = hashlib.blake2b(wl.fingerprint(out).encode(), digest_size=16).digest()
            verdict[key] = (digest, problem)
            if problem:
                failures.append(f"input {key}: {problem}")
        failed = len(failures)
        for key, digest in self.repeats:
            first_digest, problem = verdict[key]
            if problem:
                failed += 1
            elif digest != first_digest:
                failed += 1
                failures.append(f"input {key}: output differs from its first run")
        return failed, failures


def summarise(scaled_times, elapsed, pct):
    ordered = sorted(scaled_times)
    tail_value, tail_pct, beyond = tail(ordered, pct)
    return {
        "ops": len(ordered),
        "elapsed_s": elapsed,
        "wall_ops_per_s": len(ordered) / elapsed,
        "ops_per_s": len(ordered) / sum(ordered),
        "op_p50_ms": 1000.0 * percentile(ordered, 50)[0],
        "op_tail_ms": 1000.0 * tail_value,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
    }


def main():
    job = json.loads(sys.stdin.readline())
    t0 = clock()
    import newtonpoly  # noqa: F401  (the import is part of set-up)
    from workloads import load

    wl = load(job["workload"])
    wl.op(job["warmup"])
    setup = clock() - t0
    reference = statistics.median(time_reference(clock) for _ in range(REFERENCE_REPEATS))
    result = {"setup_s": setup * NOMINAL_S / reference, "setup_wall_s": setup}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return

    rounds, seconds = job["rounds"], job["seconds"]
    run = Run(wl)
    if not job["trace"]:
        samples, elapsed = run.phase(rounds, seconds, job["pauses"])
        result.update(summarise(samples, elapsed, wl.TAIL_PERCENTILE))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracing import Tracer

        samples, elapsed = run.phase(rounds, seconds / 2)
        result.update(summarise(samples, elapsed, wl.TAIL_PERCENTILE))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run.phase(rounds, seconds / 2)
        finally:
            tracer.uninstall()
        layers = tracer.metrics(len(traced), job["per_layer"])
        layers["trace.overhead_frac"] = 1.0 - (
            len(traced) / sum(traced)) / result["ops_per_s"]
        result["per_layer"] = layers
        samples = samples + traced
        os.makedirs(os.path.dirname(job["spans_path"]), exist_ok=True)
        tracer.write(job["spans_path"])
    failed, failures = run.check(rounds)
    result.update({"attempted": len(samples), "failed": failed, "failures": failures[:10]})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
