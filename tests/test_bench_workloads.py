"""The benchmark's jacobian-corpus workload checks every answer with its own
oracle (Merle's packets for branches, Kouchnirenko's number for products), so
a change to the library that the oracle rejects must fail here, not only when
the benchmark runs."""

import importlib.util
import pathlib

WORKLOAD = (
    pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads" / "jacobian_corpus.py"
)


def _load_workload():
    spec = importlib.util.spec_from_file_location("bench_jacobian_corpus", WORKLOAD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_jacobian_corpus_passes_its_oracle():
    workload = _load_workload()
    rounds = workload.generate(301)["rounds"][:2]
    failures = [
        (item["text"], error)
        for items in rounds
        for item in items
        if (error := workload.check(item, workload.op(item))) is not None
    ]
    assert sum(len(items) for items in rounds) == 14
    assert not failures, failures
