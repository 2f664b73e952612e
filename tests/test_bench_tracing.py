"""The benchmark's per-layer tracer wraps library functions and methods by
name, so renaming or deleting one of them must fail here, not only when the
benchmark runs with tracing on."""

import importlib
import importlib.util
import pathlib

from newtonpoly import field, invariants, polygon, puiseux, series

# the package re-exports the function product under the module's name
product = importlib.import_module("newtonpoly.product")

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# (owner, attribute) pairs the tracer replaces while installed; the module
# functions are also replaced where invariants imported them
WRAPPED = (
    (polygon, "polygon_sum"),
    (polygon, "dominates"),
    (polygon, "from_support"),
    (polygon, "format_compact"),
    (polygon, "parse_compact"),
    (product, "product"),
    (product, "mixed_height"),
    (series, "intersection_number"),
    (series, "sylvester_resultant"),
    (puiseux, "puiseux_expand"),
    (invariants, "jacobian_polygon_direct"),
    (invariants, "milnor_number"),
    (invariants, "intersection_number"),
    (invariants, "puiseux_expand"),
    (field.FieldElement, "inverse"),
    (field.FieldElement, "__mul__"),
    (series.TruncatedSeries, "__mul__"),
    (series.TruncatedSeries, "__rmul__"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = tuple(getattr(owner, attr) for owner, attr in WRAPPED)
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        unwrapped = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), original in zip(WRAPPED, originals)
            if getattr(owner, attr) is original
        ]
        assert not unwrapped, f"not wrapped: {unwrapped}"
        assert invariants.milnor_number(series.parse_polynomial("y^2 - x^3")) == 2
        j = invariants.jacobian_polygon_direct(series.parse_polynomial("y^3 - x^4"))
        assert repr(j) == "{6/2}"
        unit = series.parse_series("1 - x")
        assert unit * unit == series.parse_series("1 - 2*x + x^2")
        assert field.QQ.from_rational(2) * 3 == 6
        steep, diagonal = polygon.parse_compact("{2/3}"), polygon.make_elementary(1, 1)
        assert polygon.dominates(polygon.make_elementary(3, 3), product.product(steep, diagonal))
        metrics = tracer.metrics(1, [
            "invariants.milnor_number.calls", "series.mul.calls", "field.mul.qq.calls",
            "product.product.calls", "polygon.dominates.self_ms",
        ])
        assert metrics["invariants.milnor_number.calls"] == 2
        assert metrics["invariants.jacobian_polygon_direct.expansions_per_call"] == 1.0
        assert metrics["series.mul.calls"] >= 1 and metrics["field.mul.qq.calls"] >= 1
        assert metrics["product.product.calls"] == 1
        assert metrics["polygon.dominates.self_ms"] >= 0
    finally:
        tracer.uninstall()
    assert tuple(getattr(owner, attr) for owner, attr in WRAPPED) == originals
