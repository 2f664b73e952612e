"""The seeded workloads of the benchmark, one module each.

Each workload module exposes the same interface:

* ``TAIL_PERCENTILE``: the operation-time percentile reported as
  ``op_tail_ms``, chosen so that a normal run has at least ten samples
  beyond it;
* ``generate(seed)``: builds the inputs and their expected answers before
  anything is timed, as JSON-able data ``{"warmup": item, "rounds": [[item,
  ...], ...]}``; the same seed always gives the same data;
* ``op(item)``: one timed operation; it sees only the generated input and
  returns the program's output;
* ``fingerprint(output)``: a string that identifies the output, so that a
  repeat of an input can be compared with its first, fully checked run;
* ``check(item, output)``: the independent oracle, run after the timed phase;
  it returns an error message, or ``None`` when the output is correct.

A round holds one item per stratum of the workload; the timed loop stops only
at a round boundary, so every run times the same mix of strata.
"""

import importlib


def load(name):
    """Import the module of the named workload: polygon-monoid is
    ``workloads.polygon_monoid``."""
    return importlib.import_module("workloads." + name.replace("-", "_"))
