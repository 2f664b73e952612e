"""Exact arithmetic of plane Newton polygons.

A Newton polygon is the lower-left boundary of a region ``offsets + edges``
inside the first quadrant: the region of all points lying on or above a
descending chain of edges, translated by ``(x_offset, y_offset)``.  Each edge
is an elementary polygon ``{l/h}`` of horizontal extent ``l`` and vertical
extent ``h``; one of the two entries may be infinite (a vertical ray when
``h = inf``, a horizontal floor when ``l = inf``).

Polygons form a commutative monoid under the sum (convex hull of pointwise
sums of the bounded regions), realised here as a merge of edge multisets in
which edges of equal slope coalesce by componentwise addition.  Slopes are
compared by integer cross-multiplication, with explicit branches for
infinite extents.  The constructions of the library (sum, product, scale,
transpose, support hulls) produce their edges in canonical order and skip
the sort; only edges from outside (the public constructor, JSON, compact
text) are sorted.  The dominance order is decided in one integer walk over
the corners, and areas are integer shoelace sums.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key

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


def _integral(value) -> int:
    """value as a plain int when int() keeps it exactly (True, 2.0 and
    Fraction(4, 2) among them); anything else, such as 1.5, INF or "3",
    raises ValueError."""
    if type(value) is int:
        return value
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{value!r} is not an integer")


def ascii_int(text: str, signed=True) -> int:
    """int(text) of ASCII digits, after an optional sign when signed is set,
    with surrounding spaces; int() alone also takes underscores and other
    digits, such as "\u0662"."""
    digits = text.strip()
    if signed and digits[:1] in ("-", "+"):
        digits = digits[1:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer in ASCII digits")
    return int(text)


def _check_extent(v, name):
    if is_inf(v):
        return INF
    v = _integral(v)
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
        # the common case first: two positive plain ints need nothing more
        if type(self.ell) is int and type(self.h) is int and self.ell > 0 and self.h > 0:
            return
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


def _steeper(e: ElementaryPolygon, f: ElementaryPolygon) -> int:
    """Sign of slope(e) - slope(f), the sign of h·ℓ′ − h′·ℓ for finite edges.

    Infinite extents take their own branches: INF is never multiplied.
    """
    if e.h == INF:
        return 0 if f.h == INF else 1
    if f.h == INF:
        return -1
    if e.ell == INF:
        return 0 if f.ell == INF else -1
    if f.ell == INF:
        return 1
    d = e.h * f.ell - f.h * e.ell
    return (d > 0) - (d < 0)


def _merge_edges(edges):
    """Sort steepest first and coalesce equal slopes componentwise.

    Edges already in strictly decreasing slope are returned as they are.
    """
    edges = tuple(edges)
    if all(_steeper(e, f) > 0 for e, f in zip(edges, edges[1:])):
        return edges
    merged: list[ElementaryPolygon] = []
    for e in sorted(edges, key=cmp_to_key(_steeper), reverse=True):
        if merged and _steeper(merged[-1], e) == 0:
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
        if type(self.x_offset) is not int or type(self.y_offset) is not int:
            object.__setattr__(self, "x_offset", _integral(self.x_offset))
            object.__setattr__(self, "y_offset", _integral(self.y_offset))
        if self.x_offset < 0 or self.y_offset < 0:
            raise ValueError("offsets must be nonnegative")
        # vertical rays coalesce into one steepest edge, floors into one last edge
        object.__setattr__(self, "edges", _merge_edges(self.edges))

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
        return _corners(self.x_offset, self.y_offset, self.edges)

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


def _canonical(x_offset: int, y_offset: int, edges: tuple) -> NewtonPolygon:
    """Polygon of nonnegative offsets and an edge tuple already in canonical
    order (strictly decreasing slope), built without the sort."""
    p = object.__new__(NewtonPolygon)
    object.__setattr__(p, "x_offset", x_offset)
    object.__setattr__(p, "y_offset", y_offset)
    object.__setattr__(p, "edges", edges)
    return p


EMPTY = NewtonPolygon()

#: Unit elementary polygon {1/1}; neutral for * exactly on special polygons.
ONE = NewtonPolygon(edges=(ElementaryPolygon(1, 1),))


def make_elementary(ell, h) -> NewtonPolygon:
    """Single-edge polygon {ell/h} with zero offsets."""
    return NewtonPolygon(edges=(ElementaryPolygon(ell, h),))


def polygon_sum(p: NewtonPolygon, q: NewtonPolygon) -> NewtonPolygon:
    """Monoid sum: offsets add, edges merge by slope.

    One pass over the two canonical edge lists, steepest first; an edge of
    p and an edge of q of equal slope coalesce componentwise.
    """
    a, b = p.edges, q.edges
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        e, f = a[i], b[j]
        cmp = _steeper(e, f)
        if cmp > 0:
            out.append(e)
            i += 1
        elif cmp < 0:
            out.append(f)
            j += 1
        else:
            out.append(ElementaryPolygon(ext_add(e.ell, f.ell), ext_add(e.h, f.h)))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return _canonical(p.x_offset + q.x_offset, p.y_offset + q.y_offset, tuple(out))


def scale(p: NewtonPolygon, k: int) -> NewtonPolygon:
    """Sum of k copies of p: offsets and extents multiply by k."""
    k = _integral(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return EMPTY
    return _canonical(
        k * p.x_offset,
        k * p.y_offset,
        tuple(ElementaryPolygon(ext_mul(k, e.ell), ext_mul(k, e.h)) for e in p.edges),
    )


def canonical_decomposition(p: NewtonPolygon):
    """Unique list of elementary polygons with distinct slopes summing to p."""
    if not p.is_finite_volume:
        raise NotFiniteVolume("canonical decomposition needs a finite-volume polygon")
    return list(p.edges)


def _convex_chain(points):
    """The points of a lexicographically sorted sequence (ascending or
    descending) at which the path through them turns strictly left, with
    both ends: the middle point of a non-strict turn is popped."""
    chain = []
    for p in points:
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) > 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def from_support(points) -> NewtonPolygon:
    """Polygon of a monomial support: hull of the union of translated quadrants.

    Offsets are the componentwise minima; the edge chain is the strictly
    convex lower-left hull of the Pareto-minimal points.
    """
    pts = {(_integral(a), _integral(b)) for a, b in points}
    if not pts:
        raise EmptySupport("support is empty")
    if any(a < 0 or b < 0 for a, b in pts):
        raise ValueError("support points must have nonnegative coordinates")
    # in lexicographic order a point is Pareto-minimal iff it lies strictly
    # below every point kept before it
    minimal: list[tuple[int, int]] = []
    for p in sorted(pts):
        if not minimal or p[1] < minimal[-1][1]:
            minimal.append(p)
    chain = _convex_chain(minimal)
    x_offset = chain[0][0]
    y_offset = chain[-1][1]
    edges = tuple(
        ElementaryPolygon(b[0] - a[0], a[1] - b[1])
        for a, b in zip(chain, chain[1:])
    )
    return _canonical(x_offset, y_offset, edges)


def boundary_at(p: NewtonPolygon, x) -> object:
    """Infimum of ordinates of the region bounded by p over abscissa x.

    Returns a Fraction, or INF left of a vertical ray.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("abscissa must be nonnegative")
    wall, floor, chain = _wall_floor_chain(p)
    if x < wall:
        return INF
    for (cx, cy), e in zip(_corners(wall, floor, chain), chain):
        if x <= cx + e.ell:
            return cy - Fraction(e.h, e.ell) * (x - cx)
    return Fraction(floor)


def _wall_floor_chain(p: NewtonPolygon):
    """Abscissa of the wall, ordinate of the floor and the finite edges of p."""
    wall, floor = p.x_offset, p.y_offset
    chain = []
    for e in p.edges:
        if is_inf(e.h):
            wall += e.ell
        elif is_inf(e.ell):
            floor += e.h
        else:
            chain.append(e)
    return wall, floor, chain


def _corners(x, floor, chain):
    """Corners of the finite edges ``chain`` from (x, floor + their total
    height) down to the floor, as ``_wall_floor_chain`` gives them."""
    y = floor + sum(e.h for e in chain)
    corners = [(x, y)]
    for e in chain:
        x += e.ell
        y -= e.h
        corners.append((x, y))
    return corners


def dominates(p: NewtonPolygon, q: NewtonPolygon) -> bool:
    """True iff the region bounded by p is contained in the region of q.

    The region of q is convex and closed upward, and the region of p is the
    convex hull of p's corners plus the quadrant, so p dominates q iff every
    corner of p lies in the region of q.  The corners of p and the edges of q
    are walked together by abscissa, in integer arithmetic.
    """
    p_wall, p_floor, p_chain = _wall_floor_chain(p)
    q_wall, q_floor, q_chain = _wall_floor_chain(q)
    if p_wall < q_wall or p_floor < q_floor:
        return False
    cx, cy = q_wall, q_floor + sum(e.h for e in q_chain)
    i = 0
    for x, y in _corners(p_wall, p_floor, p_chain):
        while i < len(q_chain) and x > cx + q_chain[i].ell:
            cx, cy = cx + q_chain[i].ell, cy - q_chain[i].h
            i += 1
        if i == len(q_chain):
            if y < q_floor:
                return False
        elif y * q_chain[i].ell < cy * q_chain[i].ell - q_chain[i].h * (x - cx):
            return False
    return True


def transpose(p: NewtonPolygon) -> NewtonPolygon:
    """Mirror across the diagonal: lengths and heights exchange roles, and
    the steepest edge becomes the shallowest."""
    return _canonical(
        p.y_offset,
        p.x_offset,
        tuple(ElementaryPolygon(e.h, e.ell) for e in reversed(p.edges)),
    )


def covolume2(p: NewtonPolygon) -> Fraction:
    """Exact area between the axes and the polygon boundary."""
    if not p.is_finite_volume:
        raise NotFiniteVolume("covolume needs a finite-volume polygon")
    chain = [(0, 0)] + p.vertices()
    total = sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(chain, chain[1:] + chain[:1])
    )
    return Fraction(abs(total), 2)


# -- JSON encoding ----------------------------------------------------------


def _extent_to_json(v):
    return "inf" if is_inf(v) else v


def _is_json_int(v) -> bool:
    """JSON's integer rule, stricter than _integral: no true, no 2.0."""
    return isinstance(v, int) and not isinstance(v, bool)


def _int_from_json(v, expected):
    if not _is_json_int(v):
        raise ValueError(f"{expected}, got {v!r}")
    return v


def _extent_from_json(v):
    if v == "inf":
        return INF
    return _int_from_json(v, "extent must be an integer or 'inf'")


def to_json_dict(p: NewtonPolygon) -> dict:
    return {
        "x_offset": p.x_offset,
        "y_offset": p.y_offset,
        "edges": [{"l": _extent_to_json(e.ell), "h": _extent_to_json(e.h)} for e in p.edges],
    }


def _check_keys(data, keys, required, what):
    """ValueError naming the first key of the JSON object ``data`` outside
    ``keys``, or the first of ``required`` that it lacks."""
    for key in data:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in required:
        if key not in data:
            raise ValueError(f"missing key {key!r} in {what}")


def from_json_dict(data) -> NewtonPolygon:
    """Parse the JSON encoding (docs/polygon.schema.json); unordered edges are
    normalised, and data of any other shape, an unknown key or a missing
    "edges" among them, raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError('a polygon is a JSON object {"x_offset": n, "y_offset": n, "edges": [...]}')
    _check_keys(data, ("x_offset", "y_offset", "edges"), ("edges",), "a polygon")
    items = data["edges"]
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError('"edges" must be a list of objects {"l": ..., "h": ...}')
    for item in items:
        _check_keys(item, ("l", "h"), ("l", "h"), 'an item of "edges"')
    edges = tuple(
        ElementaryPolygon(_extent_from_json(item["l"]), _extent_from_json(item["h"]))
        for item in items
    )
    return NewtonPolygon(
        _int_from_json(data.get("x_offset", 0), "x_offset must be an integer"),
        _int_from_json(data.get("y_offset", 0), "y_offset must be an integer"),
        edges,
    )


def dumps(p: NewtonPolygon) -> str:
    return json.dumps(to_json_dict(p), separators=(",", ":"))


def loads(text: str) -> NewtonPolygon:
    return from_json_dict(json.loads(text))


def _extent_from_compact(text: str):
    """ASCII digits or 'inf', without a sign."""
    try:
        return ascii_int(text, False)
    except ValueError:
        if text.strip() == "inf":
            return INF
        raise ValueError(f"extent must be ASCII digits or 'inf', got {text.strip()!r}") from None


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
        edges.append(ElementaryPolygon(_extent_from_compact(ell_s), _extent_from_compact(h_s)))
    return _canonical(0, 0, _merge_edges(edges))


def format_compact(p: NewtonPolygon) -> str:
    if p.is_trivial:
        return "0"
    if p.x_offset or p.y_offset:
        raise ValueError("compact notation covers offset-free polygons only")
    return "+".join(repr(e) for e in p.edges)
