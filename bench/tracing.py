"""Per-layer tracing of newtonpoly, installed from outside the library.

``Tracer.install`` replaces each traced public function by a wrapper in every
module that holds a reference to it (``invariants.intersection_number`` as
well as ``series.intersection_number``), and wraps a few methods on their
classes.  A wrapper records a span: name, start, end and the span that was
open when it started.  Hot per-element methods (field and series
multiplication, field inverses, polygon construction) are only counted,
never timed, so that the trace does not swamp them.

Spans are kept in flat arrays and turned into metrics, and written to a file,
only when the run ends.  The per-layer metrics and their units are listed in
BENCHMARK.json; ``.calls`` and ``.self_ms`` metrics are per operation.
``uninstall`` restores every original.
"""

import sys
import time
from array import array

LAYERS = ("polygon", "product", "polyhedra", "field", "series", "puiseux", "invariants")

# (metric, child span prefix, ancestor span): child spans opened under the
# ancestor, per call of the ancestor
NESTED = (
    ("polyhedra.mixed_covolume.builds_per_call",
     "polyhedra.NewtonPolyhedron.", "polyhedra.mixed_covolume"),
    ("invariants.milnor_number.resultants_per_call",
     "series.sylvester_resultant", "invariants.milnor_number"),
    ("invariants.jacobian_polygon_direct.expansions_per_call",
     "puiseux.puiseux_expand", "invariants.jacobian_polygon_direct"),
)


def _level_name(prefix):
    return lambda args: prefix + (".qq" if args[0].level == 0 else ".tower")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}
        self.maxima = {"field.tower_degree.max": 0, "series.sylvester_resultant.dim.max": 0}
        self._patches = []

    # -- recording ---------------------------------------------------------------

    def _intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name, observe=None):
        """Wrap fn in a span; name is a string or a function of the arguments."""
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        intern = self._intern
        fixed = None if callable(name) else intern(name)

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(fixed if fixed is not None else intern(name(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _level_counter(self, fn, prefix):
        """Count calls on elements of Q and of proper towers separately."""
        qq = self.counts.setdefault(prefix + ".qq.calls", [0])
        tower = self.counts.setdefault(prefix + ".tower.calls", [0])

        def wrapper(self_, *args):
            (qq if self_.field.level == 0 else tower)[0] += 1
            return fn(self_, *args)

        return wrapper

    def _observe_max(self, name, measure):
        maxima = self.maxima

        def observe(args, result):
            value = measure(args, result)
            if value > maxima[name]:
                maxima[name] = value

        return observe

    # -- installation --------------------------------------------------------------

    def install(self):
        from newtonpoly import field, invariants, polygon, polyhedra, puiseux, series

        product = sys.modules["newtonpoly.product"]
        functions = {
            polygon.polygon_sum: self._span(polygon.polygon_sum, "polygon.polygon_sum"),
            polygon.dominates: self._span(polygon.dominates, "polygon.dominates"),
            polygon.from_support: self._span(polygon.from_support, "polygon.from_support"),
            polygon.format_compact: self._span(polygon.format_compact, "polygon.format_parse"),
            polygon.parse_compact: self._span(polygon.parse_compact, "polygon.format_parse"),
            product.product: self._span(product.product, "product.product"),
            product.mixed_height: self._span(product.mixed_height, "product.mixed_height"),
            polyhedra.mixed_covolume: self._span(
                polyhedra.mixed_covolume, "polyhedra.mixed_covolume"),
            polyhedra.face_identity_check: self._span(
                polyhedra.face_identity_check, "polyhedra.face_identity_check"),
            polyhedra.monomial_multiplicity: self._span(
                polyhedra.monomial_multiplicity, "polyhedra.monomial_multiplicity"),
            field.factor_poly: self._span(field.factor_poly, _level_name("field.factor_poly")),
            series.sylvester_resultant: self._span(
                series.sylvester_resultant, "series.sylvester_resultant",
                self._observe_max("series.sylvester_resultant.dim.max",
                                  lambda args, _: args[0].degree() + args[1].degree())),
            series.intersection_number: self._span(
                series.intersection_number, "series.intersection_number"),
            series.parse_polynomial: self._span(
                series.parse_polynomial, "series.parse_polynomial"),
            series.newton_polygon_of: self._span(
                series.newton_polygon_of, "series.newton_polygon_of"),
            puiseux.puiseux_expand: self._span(
                puiseux.puiseux_expand, "puiseux.puiseux_expand", self._count_branches),
            puiseux.order_along_branch: self._span(
                puiseux.order_along_branch, "puiseux.order_along_branch"),
            invariants.jacobian_polygon_direct: self._span(
                invariants.jacobian_polygon_direct, "invariants.jacobian_polygon_direct"),
            invariants.milnor_number: self._span(
                invariants.milnor_number, "invariants.milnor_number"),
            invariants.invariants_from_polygon: self._span(
                invariants.invariants_from_polygon, "invariants.invariants_from_polygon"),
        }
        by_id = {id(fn): wrapper for fn, wrapper in functions.items()}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith(("newtonpoly", "workloads")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id:
                    self._patch(mod, attr, by_id[id(value)])

        fe, ts = field.FieldElement, series.TruncatedSeries
        methods = [
            (polyhedra.NewtonPolyhedron, "__init__", self._span(
                polyhedra.NewtonPolyhedron.__init__,
                lambda args: f"polyhedra.NewtonPolyhedron.d{int(args[1])}")),
            (polygon.NewtonPolygon, "__init__",
             self._counter(polygon.NewtonPolygon.__init__, "polygon.NewtonPolygon.calls")),
            (fe, "__mul__", self._level_counter(fe.__mul__, "field.mul")),
            (fe, "__rmul__", self._level_counter(fe.__rmul__, "field.mul")),
            (fe, "inverse", self._counter(fe.inverse, "field.inverse.calls")),
            (ts, "__mul__", self._counter(ts.__mul__, "series.mul.calls")),
            (ts, "__rmul__", self._counter(ts.__rmul__, "series.mul.calls")),
            (ts, "exact_div", self._counter(ts.exact_div, "series.exact_div.calls")),
            (field.GroundField, "extend", self._span(
                field.GroundField.extend, "field.GroundField.extend",
                self._observe_max("field.tower_degree.max", lambda _, k: k.degree()))),
        ]
        for owner, attr, wrapper in methods:
            self._patch(owner, attr, wrapper)

    def _count_branches(self, args, branches):
        self.counts.setdefault("puiseux.branches", [0])[0] += len(branches)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------------

    def metrics(self, ops, listed):
        """Per-layer metrics, normalised by the number of operations: those
        listed that end in ".calls" or ".self_ms", and every maximum,
        nesting ratio and span count this tracer records."""
        n = len(self.name)
        names, parent, start, end = self.names, self.parent, self.start, self.end
        child_time = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += end[i] - start[i]
        self_s = [0.0] * len(names)
        calls = [0] * len(names)
        for i in range(n):
            nid = self.name[i]
            self_s[nid] += end[i] - start[i] - child_time[i]
            calls[nid] += 1
        by_name = {name: (calls[k], self_s[k]) for k, name in enumerate(names)}

        per_op = max(ops, 1)
        out = {}
        for metric in listed:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                total = by_name.get(base, (0, 0.0))[0]
                if metric in self.counts:
                    total = self.counts[metric][0]
                out[metric] = total / per_op
            elif kind == "self_ms":
                if base in LAYERS:
                    total = sum(s for name, (_, s) in by_name.items() if name.startswith(base + "."))
                else:
                    total = by_name.get(base, (0, 0.0))[1]
                out[metric] = 1000.0 * total / per_op
        out.update(self.maxima)
        for metric, child, ancestor in NESTED:
            inside = self._count_inside(child, ancestor)
            out[metric] = inside / max(by_name.get(ancestor, (0, 0.0))[0], 1)
        expands = by_name.get("puiseux.puiseux_expand", (0, 0.0))[0]
        out["puiseux.branches_per_expand"] = (
            self.counts.get("puiseux.branches", [0])[0] / max(expands, 1)
        )
        out["trace.spans_per_op"] = n / per_op
        return out

    def _count_inside(self, child_prefix, ancestor):
        """Spans whose name starts with child_prefix and that have a span
        named ancestor above them.  Parents precede children in the arrays."""
        target = self._ids.get(ancestor)
        if target is None:
            return 0
        child_ids = {k for k, name in enumerate(self.names) if name.startswith(child_prefix)}
        under = bytearray(len(self.name))
        count = 0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if p >= 0 and (self.name[p] == target or under[p]):
                under[i] = 1
                if nid in child_ids:
                    count += 1
        return count

    def write(self, path):
        """Write every span as tab-separated id, parent, name, start, end (s)."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
