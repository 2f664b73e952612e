"""Exact arithmetic of plane Newton polygons.

A Newton polygon is the lower-left boundary of a region ``offsets + edges``
inside the first quadrant: the region of all points lying on or above a
descending chain of edges, translated by ``(x_offset, y_offset)``.  Each edge
is an elementary polygon ``{l/h}`` of horizontal extent ``l`` and vertical
extent ``h``; one of the two entries may be infinite (a vertical ray when
``h = inf``, a horizontal floor when ``l = inf``).

Polygons form a commutative monoid under the sum (convex hull of pointwise
sums of the bounded regions), realised here as a merge of edge multisets in
which edges of equal slope coalesce by componentwise addition.  All slope
comparisons and areas use exact rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BothInfinite, EmptySupport, NotFiniteVolume, ZeroDimension

#: Sentinel for infinite extents.  Comparisons against ``Fraction`` are exact.
INF = float("inf")


def is_inf(v) -> bool:
    return v == INF


def ext_add(a, b):
    """Addition of extended naturals, absorbing infinity."""
    if is_inf(a) or is_inf(b):
        return INF
    return a + b


def ext_mul(a, b):
    """Multiplication of extended naturals with ``a*inf = inf`` for a >= 1."""
    if is_inf(a) or is_inf(b):
        if a == 0 or b == 0:
            raise ArithmeticError("0 * inf is indeterminate")
        return INF
    return a * b


def _check_extent(v, name):
    if is_inf(v):
        return INF
    if not isinstance(v, int):
        raise TypeError(f"{name} must be an integer or INF, got {v!r}")
    if v == 0:
        raise ZeroDimension(f"{name} = 0; represent monomial factors via offsets")
    if v < 0:
        raise ZeroDimension(f"{name} must be positive, got {v}")
    return v


@dataclass(frozen=True)
class ElementaryPolygon:
    """Single-edge polygon ``{l/h}``, described by its length and height."""

    ell: object
    h: object

    def __post_init__(self):
        ell = _check_extent(self.ell, "ell")
        h = _check_extent(self.h, "h")
        if is_inf(ell) and is_inf(h):
            raise BothInfinite("an elementary polygon cannot be infinite in both directions")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "h", h)

    @property
    def slope(self):
        """Descent rate h/ell as an extended nonnegative rational."""
        if is_inf(self.h):
            return INF
        if is_inf(self.ell):
            return Fraction(0)
        return Fraction(self.h, self.ell)

    @property
    def is_finite(self) -> bool:
        return not (is_inf(self.ell) or is_inf(self.h))

    def __repr__(self):
        fmt = lambda v: "inf" if is_inf(v) else str(v)
        return "{%s/%s}" % (fmt(self.ell), fmt(self.h))


def _merge_edges(edges):
    """Sort steepest first and coalesce equal slopes componentwise."""
    ordered = sorted(edges, key=lambda e: e.slope, reverse=True)
    merged: list[ElementaryPolygon] = []
    for e in ordered:
        if merged and merged[-1].slope == e.slope:
            last = merged[-1]
            merged[-1] = ElementaryPolygon(ext_add(last.ell, e.ell), ext_add(last.h, e.h))
        else:
            merged.append(e)
    return tuple(merged)


@dataclass(frozen=True)
class NewtonPolygon:
    """Canonical Newton polygon: offsets plus edges of strictly decreasing slope."""

    x_offset: int = 0
    y_offset: int = 0
    edges: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.x_offset < 0 or self.y_offset < 0:
            raise ValueError("offsets must be nonnegative")
        edges = _merge_edges(self.edges)
        for e in edges[1:]:
            if is_inf(e.h):
                raise ValueError("at most one vertical-ray edge, placed first")
        for e in edges[:-1]:
            if is_inf(e.ell):
                raise ValueError("at most one horizontal-floor edge, placed last")
        object.__setattr__(self, "edges", edges)

    # -- structure ---------------------------------------------------------

    @property
    def is_finite_volume(self) -> bool:
        return (
            self.x_offset == 0
            and self.y_offset == 0
            and bool(self.edges)
            and all(e.is_finite for e in self.edges)
        )

    @property
    def is_trivial(self) -> bool:
        """True for the additive identity (no edges, zero offsets)."""
        return not self.edges and self.x_offset == 0 and self.y_offset == 0

    def vertices(self):
        """Vertex chain of the finite part, top-left to bottom-right."""
        if any(not e.is_finite for e in self.edges):
            raise NotFiniteVolume("vertex chain undefined with infinite edges")
        x = self.x_offset
        y = self.y_offset + sum(e.h for e in self.edges)
        chain = [(x, y)]
        for e in self.edges:
            x += e.ell
            y -= e.h
            chain.append((x, y))
        return chain

    def __repr__(self):
        if self.is_trivial:
            return "NewtonPolygon()"
        parts = [repr(e) for e in self.edges]
        body = "+".join(parts) if parts else "0"
        if self.x_offset or self.y_offset:
            body += f" @({self.x_offset},{self.y_offset})"
        return f"NewtonPolygon[{body}]"

    # -- measurements ------------------------------------------------------

    def length(self):
        """Horizontal extent x_offset + sum of edge lengths (inf-absorbing)."""
        total = self.x_offset
        for e in self.edges:
            total = ext_add(total, e.ell)
        return total

    def height(self):
        """Vertical extent y_offset + sum of edge heights (inf-absorbing)."""
        total = self.y_offset
        for e in self.edges:
            total = ext_add(total, e.h)
        return total


EMPTY = NewtonPolygon()

#: Unit elementary polygon {1/1}; neutral for * exactly on special polygons.
ONE = NewtonPolygon(edges=(ElementaryPolygon(1, 1),))


def make_elementary(ell, h) -> NewtonPolygon:
    """Single-edge polygon {ell/h} with zero offsets."""
    return NewtonPolygon(edges=(ElementaryPolygon(ell, h),))


def polygon_sum(p: NewtonPolygon, q: NewtonPolygon) -> NewtonPolygon:
    """Monoid sum: offsets add, edges merge by slope."""
    return NewtonPolygon(
        p.x_offset + q.x_offset,
        p.y_offset + q.y_offset,
        p.edges + q.edges,
    )


def scale(p: NewtonPolygon, k: int) -> NewtonPolygon:
    """Sum of k copies of p: offsets and extents multiply by k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return EMPTY
    return NewtonPolygon(
        k * p.x_offset,
        k * p.y_offset,
        tuple(ElementaryPolygon(ext_mul(k, e.ell), ext_mul(k, e.h)) for e in p.edges),
    )


def canonical_decomposition(p: NewtonPolygon):
    """Unique list of elementary polygons with distinct slopes summing to p."""
    if not p.is_finite_volume:
        raise NotFiniteVolume("canonical decomposition needs a finite-volume polygon")
    return list(p.edges)


def from_support(points) -> NewtonPolygon:
    """Polygon of a monomial support: hull of the union of translated quadrants.

    Offsets are the componentwise minima; the edge chain is the strictly
    convex lower-left hull of the Pareto-minimal points.
    """
    pts = {(int(a), int(b)) for a, b in points}
    if not pts:
        raise EmptySupport("support is empty")
    if any(a < 0 or b < 0 for a, b in pts):
        raise ValueError("support points must have nonnegative coordinates")
    minimal = [
        p for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    minimal.sort()
    # lower-left convex chain; pop middle points on non-strict turns
    chain: list[tuple[int, int]] = []
    for p in minimal:
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    x_offset = chain[0][0]
    y_offset = chain[-1][1]
    edges = [
        ElementaryPolygon(b[0] - a[0], a[1] - b[1])
        for a, b in zip(chain, chain[1:])
    ]
    return NewtonPolygon(x_offset, y_offset, tuple(edges))


def boundary_at(p: NewtonPolygon, x) -> object:
    """Infimum of ordinates of the region bounded by p over abscissa x.

    Returns a Fraction, or INF left of a vertical ray.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("abscissa must be nonnegative")
    wall = Fraction(p.x_offset)
    floor = Fraction(p.y_offset)
    finite = []
    for e in p.edges:
        if is_inf(e.h):
            wall += e.ell
        elif is_inf(e.ell):
            floor += e.h
        else:
            finite.append(e)
    if x < wall:
        return INF
    cur_x = wall
    cur_y = floor + sum(e.h for e in finite)
    for e in finite:
        if x <= cur_x + e.ell:
            return cur_y - Fraction(e.h, e.ell) * (x - cur_x)
        cur_x += e.ell
        cur_y -= e.h
    return floor


def dominates(p: NewtonPolygon, q: NewtonPolygon) -> bool:
    """True iff the region bounded by p is contained in the region of q.

    Equivalent to boundary_at(p, .) >= boundary_at(q, .) everywhere; by
    piecewise linearity it suffices to compare at both vertex abscissae.
    """
    xs = {Fraction(0)}
    last = Fraction(0)
    for poly in (p, q):
        cur = Fraction(poly.x_offset)
        xs.add(cur)
        for e in poly.edges:
            if not is_inf(e.ell):
                cur += e.ell
                xs.add(cur)
        last = max(last, cur)
    xs.add(last + 1)
    return all(boundary_at(p, x) >= boundary_at(q, x) for x in xs)


def transpose(p: NewtonPolygon) -> NewtonPolygon:
    """Mirror across the diagonal: lengths and heights exchange roles."""
    return NewtonPolygon(
        p.y_offset,
        p.x_offset,
        tuple(ElementaryPolygon(e.h, e.ell) for e in p.edges),
    )


def covolume2(p: NewtonPolygon) -> Fraction:
    """Exact area between the axes and the polygon boundary."""
    if not p.is_finite_volume:
        raise NotFiniteVolume("covolume needs a finite-volume polygon")
    chain = [(Fraction(0), Fraction(0))] + [
        (Fraction(a), Fraction(b)) for a, b in p.vertices()
    ]
    total = Fraction(0)
    n = len(chain)
    for i in range(n):
        x0, y0 = chain[i]
        x1, y1 = chain[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return abs(total) / 2


# -- JSON encoding ----------------------------------------------------------


def _extent_to_json(v):
    return "inf" if is_inf(v) else v


def _extent_from_json(v):
    if v == "inf":
        return INF
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"extent must be an integer or 'inf', got {v!r}")
    return v


def to_json_dict(p: NewtonPolygon) -> dict:
    return {
        "x_offset": p.x_offset,
        "y_offset": p.y_offset,
        "edges": [{"l": _extent_to_json(e.ell), "h": _extent_to_json(e.h)} for e in p.edges],
    }


def from_json_dict(data: dict) -> NewtonPolygon:
    """Parse the JSON encoding; unordered edges are normalised."""
    edges = tuple(
        ElementaryPolygon(_extent_from_json(item["l"]), _extent_from_json(item["h"]))
        for item in data.get("edges", [])
    )
    return NewtonPolygon(int(data.get("x_offset", 0)), int(data.get("y_offset", 0)), edges)


def dumps(p: NewtonPolygon) -> str:
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def loads(text: str) -> NewtonPolygon:
    return from_json_dict(json.loads(text))


def parse_compact(text: str) -> NewtonPolygon:
    """Parse the compact notation ``{5/1}+{11/2}``; 'inf' allowed as entry."""
    text = text.strip()
    if not text or text in {"0", "{}"}:
        return EMPTY
    edges = []
    for part in text.split("+"):
        part = part.strip()
        if not (part.startswith("{") and part.endswith("}")):
            raise ValueError(f"bad elementary polygon {part!r}")
        ell_s, _, h_s = part[1:-1].partition("/")
        ell = INF if ell_s.strip() == "inf" else int(ell_s)
        h = INF if h_s.strip() == "inf" else int(h_s)
        edges.append(ElementaryPolygon(ell, h))
    return NewtonPolygon(edges=tuple(edges))


def format_compact(p: NewtonPolygon) -> str:
    if p.is_trivial:
        return "0"
    if p.x_offset or p.y_offset:
        raise ValueError("compact notation covers offset-free polygons only")
    return "+".join(repr(e) for e in p.edges)
