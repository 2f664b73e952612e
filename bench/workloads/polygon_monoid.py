"""polygon-monoid: finite-volume polygons through the sum monoid, the product
and the text format.

Why this workload exists: the polygon and product layers do almost all of the
work here and almost none of it in the curve workloads, so a change to slope
comparison, edge merging or the construction of ``product`` shows here and
nowhere else.  The cost of ``product`` grows with the square of the edge
count, so each round pairs polygons of 1, 2, ..., 12 edges: the small pairs
set the median and the 12-edge pairs set the tail.

Expected answers come from integer arithmetic written here, not from the
library: edges are merged by reduced slope, and twice the mixed covolume is
read off shoelace areas, ``A(P+Q) - A(P) - A(Q)``.
"""

import random
from fractions import Fraction
from math import gcd

from newtonpoly import polygon as pg
from newtonpoly.product import mixed_height, product

TAIL_PERCENTILE = 99
EDGE_COUNTS = range(1, 13)
MAX_EXTENT = 30
ROUNDS = 40


# -- generation ----------------------------------------------------------------


def _random_edges(rng, k):
    """k edges {l/h} of pairwise distinct slope, extents in 1..MAX_EXTENT."""
    slopes = set()
    edges = []
    while len(edges) < k:
        ell, h = rng.randint(1, MAX_EXTENT), rng.randint(1, MAX_EXTENT)
        g = gcd(ell, h)
        if (h // g, ell // g) in slopes:
            continue
        slopes.add((h // g, ell // g))
        edges.append([ell, h])
    return edges


def _canonical(edges):
    """Edges merged by reduced slope, steepest first."""
    merged = {}
    for ell, h in edges:
        g = gcd(ell, h)
        key = (h // g, ell // g)
        old = merged.get(key, (0, 0))
        merged[key] = (old[0] + ell, old[1] + h)
    order = sorted(merged, key=lambda s: Fraction(s[0], s[1]), reverse=True)
    return [list(merged[s]) for s in order]


def _twice_area(canonical_edges):
    """Twice the area between the axes and an offset-free edge chain."""
    y = sum(h for _, h in canonical_edges)
    total = 0
    for ell, h in canonical_edges:
        total += ell * (2 * y - h)
        y -= h
    return total


def _support(rng, canonical_edges):
    """Vertices of the chain, lattice points on its edges and points just
    above them: a support whose hull is the chain itself."""
    x, y = 0, sum(h for _, h in canonical_edges)
    points = [(x, y)]
    for ell, h in canonical_edges:
        g = gcd(ell, h)
        for step in range(1, g):
            if rng.random() < 0.5:
                points.append((x + step * ell // g, y - step * h // g))
        if ell > 1:
            px = x + rng.randint(1, ell - 1)
            line_ceil = y - (h * (px - x)) // ell  # ceiling of the edge's ordinate at px
            points.append((px, line_ceil + rng.randint(1, 3)))
        x, y = x + ell, y - h
        points.append((x, y))
    rng.shuffle(points)
    return [list(p) for p in points]


def _offsets(rng):
    if rng.random() < 0.5:
        return [0, 0]
    return [rng.randint(0, 5), rng.randint(0, 5)]


def _item(rng, k):
    p, q = _random_edges(rng, k), _random_edges(rng, k)
    cp, cq = _canonical(p), _canonical(q)
    p_off, q_off = _offsets(rng), _offsets(rng)
    twice_mixed = _twice_area(_canonical(p + q)) - _twice_area(cp) - _twice_area(cq)
    return {
        "p": p,
        "q": q,
        "p_off": p_off,
        "q_off": q_off,
        "support": _support(rng, cp),
        "expect": {
            "sum": [p_off[0] + q_off[0], p_off[1] + q_off[1], _canonical(p + q)],
            "decomposition": cp,
            "mixed_height": twice_mixed // 2,
            "product_length": sum(e[0] for e in p) * sum(e[0] for e in q),
        },
    }


def generate(seed):
    rng = random.Random(seed)
    rounds = [[_item(rng, k) for k in EDGE_COUNTS] for _ in range(ROUNDS)]
    return {"warmup": _item(rng, 4), "rounds": rounds}


# -- the timed operation ------------------------------------------------------------


def _polygon(edges, offsets=(0, 0)):
    return pg.NewtonPolygon(
        offsets[0], offsets[1], tuple(pg.ElementaryPolygon(ell, h) for ell, h in edges)
    )


def _edges(poly):
    return [[e.ell, e.h] for e in poly.edges]


def op(item):
    p, q = _polygon(item["p"]), _polygon(item["q"])
    p_off, q_off = _polygon(item["p"], item["p_off"]), _polygon(item["q"], item["q_off"])
    total = pg.polygon_sum(p_off, q_off)
    prod = product(p, q)
    text = pg.format_compact(prod)
    reparsed = pg.parse_compact(text)
    hull = pg.from_support(item["support"])
    return {
        "sum": [total.x_offset, total.y_offset, _edges(total)],
        "product": text,
        "product_height": prod.height(),
        "product_length": prod.length(),
        "reparsed": [reparsed.x_offset, reparsed.y_offset, _edges(reparsed)],
        "mixed_height": mixed_height(p, q),
        "dominates": [pg.dominates(total, p_off), pg.dominates(p_off, total)],
        "decomposition": [[e.ell, e.h] for e in pg.canonical_decomposition(p)],
        "hull": [hull.x_offset, hull.y_offset, _edges(hull)],
    }


def fingerprint(output):
    return repr(output)


# -- the oracle ------------------------------------------------------------------


def _parse_compact_text(text):
    """Edges of the compact notation, read without the library's parser."""
    edges = []
    for part in text.split("+"):
        ell, h = part.strip("{}").split("/")
        edges.append([int(ell), int(h)])
    return edges


def check(item, out):
    exp = item["expect"]
    if out["sum"] != exp["sum"]:
        return f"sum {out['sum']} != {exp['sum']}"
    swapped = pg.polygon_sum(
        _polygon(item["q"], item["q_off"]), _polygon(item["p"], item["p_off"])
    )
    if [swapped.x_offset, swapped.y_offset, _edges(swapped)] != out["sum"]:
        return "sum is not commutative"
    if not (out["product_height"] == out["mixed_height"] == exp["mixed_height"]):
        return (
            f"h(P*Q) = {out['product_height']}, mixed_height = {out['mixed_height']},"
            f" areas give {exp['mixed_height']}"
        )
    if out["product_length"] != exp["product_length"]:
        return f"l(P*Q) = {out['product_length']} != {exp['product_length']}"
    if pg.format_compact(product(_polygon(item["q"]), _polygon(item["p"]))) != out["product"]:
        return "product is not commutative"
    if out["reparsed"] != [0, 0, _parse_compact_text(out["product"])]:
        return f"format -> parse round trip changed {out['product']}"
    if out["dominates"] != [True, False]:
        return f"dominates(P+Q, P), dominates(P, P+Q) = {out['dominates']}"
    if out["decomposition"] != exp["decomposition"]:
        return f"decomposition {out['decomposition']} != {exp['decomposition']}"
    if out["hull"] != [0, 0, exp["decomposition"]]:
        return f"support hull {out['hull']} != {exp['decomposition']}"
    return None
