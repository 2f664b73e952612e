"""The benchmark's per-layer tracer wraps library functions and methods by
name, so renaming or deleting one of them must fail here, not only when the
benchmark runs with tracing on."""

import importlib.util
import pathlib

from newtonpoly import field, invariants, series

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (
        series.intersection_number,
        invariants.milnor_number,
        invariants.intersection_number,
        field.FieldElement.inverse,
        field.FieldElement.__mul__,
        series.TruncatedSeries.__mul__,
        series.TruncatedSeries.__rmul__,
    )
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert invariants.milnor_number is not originals[1]
        assert invariants.milnor_number(series.parse_polynomial("y^2 - x^3")) == 2
        unit = series.parse_series("1 - x")
        assert unit * unit == series.parse_series("1 - 2*x + x^2")
        assert field.QQ.from_rational(2) * 3 == 6
        metrics = tracer.metrics(
            1, ["invariants.milnor_number.calls", "series.mul.calls", "field.mul.qq.calls"])
        assert metrics["invariants.milnor_number.calls"] == 1
        assert metrics["series.mul.calls"] >= 1 and metrics["field.mul.qq.calls"] >= 1
    finally:
        tracer.uninstall()
    assert (
        series.intersection_number,
        invariants.milnor_number,
        invariants.intersection_number,
        field.FieldElement.inverse,
        field.FieldElement.__mul__,
        series.TruncatedSeries.__mul__,
        series.TruncatedSeries.__rmul__,
    ) == originals
