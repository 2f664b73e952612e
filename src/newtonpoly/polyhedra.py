"""Newton polyhedra of monomial supports in dimension d <= 4.

The region of a polyhedron is ``conv(generators) + R_{>=0}^d``.  Its compact
facets are enumerated exactly: every d-subset of generators that spans a
supporting hyperplane with strictly positive inward normal gives one.  A
d-subset on a hyperplane already found (its points' bitmasks of known
hyperplanes AND to nonzero) is skipped unexamined, which changes no answer:
d affinely independent points of a hyperplane span it, and dependent points
span none.  The others are side-tested in one pass, with the raw cofactor
vector made primitive only on acceptance.  Covolume (the volume of the
complement inside the positive orthant) is the cone sum from the origin over
those facets, ``(1/d!) sum |N . p_0|`` over the simplices (p_0, ...)
triangulating each facet, in exact integers.  N, the closed-form cofactor
vector of ``_cofactors``, is also the normal of the facet hyperplanes.  A
facet with exactly d points is its own simplex; the other d = 4 facets are
tetrahedralised with the same facet enumerator, applied to their
3-dimensional projections.

Mixed covolumes are coefficients of the polynomial ``Vol(sum lambda_i N_i)``,
their defining identity; the one of lambda^alpha is read off by the
alpha-th mixed forward difference of that polynomial on the integer nodes
0 <= j <= alpha, with no linear solve.  The normal fan of
``sum lambda_i N_i`` is the common refinement of the fans of the N_i with
lambda_i > 0, whatever those positive lambda_i are, so the nodes that share
a support pattern share their compact facet normals: only the first node of
each pattern runs the enumerator, and a node with one positive lambda_i is
lambda_i^d times the covolume of N_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, prod
from operator import le, mul

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptySupport,
    IndexMismatch,
    InfiniteVolume,
    NonIntegralMultiplicity,
    NonPolynomialGrowth,
)
from .polygon import _check_keys, _convex_chain, _integral, _is_json_int

MAX_DIM = 4


# -- exact facet helpers ------------------------------------------------------


def _cofactors(points):
    """First-row cofactors N of (p_0; p_1 - p_0; ...) for d points in Z^d.

    Closed forms: a cross product at d = 3, six shared 2 x 2 minors at d = 4.
    N . (p_i - p_0) = 0, so N is normal to the points' hyperplane and is 0
    exactly when they are affinely dependent; N . p_0 = det(p_0; ...) by
    Laplace expansion along the first row.
    """
    p = points[0]
    d = len(p)
    if d == 1:
        return (1,)
    if d == 2:
        q = points[1]
        return (q[1] - p[1], p[0] - q[0])
    if d == 3:
        (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = points
        u0, u1, u2 = q0 - p0, q1 - p1, q2 - p2
        v0, v1, v2 = r0 - p0, r1 - p1, r2 - p2
        return (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3) = points
    u0, u1, u2, u3 = q0 - p0, q1 - p1, q2 - p2, q3 - p3
    v0, v1, v2, v3 = r0 - p0, r1 - p1, r2 - p2, r3 - p3
    w0, w1, w2, w3 = s0 - p0, s1 - p1, s2 - p2, s3 - p3
    m01, m02, m03 = v0 * w1 - v1 * w0, v0 * w2 - v2 * w0, v0 * w3 - v3 * w0
    m12, m13, m23 = v1 * w2 - v2 * w1, v1 * w3 - v3 * w1, v2 * w3 - v3 * w2
    return (
        u1 * m23 - u2 * m13 + u3 * m12,
        u2 * m03 - u0 * m23 - u3 * m02,
        u0 * m13 - u1 * m03 + u3 * m01,
        u1 * m02 - u0 * m12 - u2 * m01,
    )


def _dot(n, p):
    return sum(map(mul, n, p))


def _facets(points):
    """Facets of conv(points) as (inward normal, offset, on-points), exact.

    Every d-subset of the points that spans a hyperplane supporting all of
    them gives a facet: the normal is oriented inward (normal . p >= offset
    for every point), and the d spanning points give the facet affine rank
    d - 1.  The on-points keep the order of ``points``.  When all points lie
    on one hyperplane it supports them from both sides, and both
    orientations are returned.

    ``masks[i]`` has bit h set when point i lies on the h-th supporting
    hyperplane found, so a d-subset whose masks AND to nonzero lies on a
    known hyperplane and is skipped before its normal is computed: d
    affinely independent points of a hyperplane span that hyperplane, so
    the subset would give a facet already listed, and dependent points give
    none.  The side test of any other subset takes the raw cofactor vector,
    as the signs need no primitive normal, collects the on-points in the
    same pass and stops at the first pair of points strictly on opposite
    sides.  Only an accepted hyperplane is divided by its gcd.
    """
    d = len(points[0])
    found = {}
    masks = [0] * len(points)
    bit = 1
    for index in itertools.combinations(range(len(points)), d):
        known = -1
        for i in index:
            known &= masks[i]
        if known:
            continue
        normal = _cofactors([points[i] for i in index])
        if not any(normal):
            continue
        off = sum(map(mul, normal, points[index[0]]))
        above = below = False
        on = []
        for i, p in enumerate(points):
            v = sum(map(mul, normal, p))
            if v > off:
                above = True
            elif v < off:
                below = True
            else:
                on.append(i)
                continue
            if above and below:
                break
        else:
            for i in on:
                masks[i] |= bit
            bit <<= 1
            g = gcd(*normal)
            normal, off = tuple(c // g for c in normal), off // g
            on = tuple(points[i] for i in on)
            if not below:
                found[(normal, off)] = on
            if not above:
                found[(tuple(-c for c in normal), -off)] = on
    return [(normal, off, on) for (normal, off), on in sorted(found.items())]


def _ring_2d(points):
    """Convex-position ring of 2d points, counterclockwise, strict turns."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    return _convex_chain(pts)[:-1] + _convex_chain(pts[::-1])[:-1]


def _project_facet(on, normal):
    """Drop the coordinate of largest |normal| entry; injective on the facet."""
    k = max(range(len(normal)), key=lambda i: abs(normal[i]))
    shadow = {tuple(c for i, c in enumerate(p) if i != k): p for p in on}
    return shadow


def _facet_triangulation(on, normal):
    """(d-1)-simplices covering the facet, as tuples of d original points.

    The on-points of a facet span its hyperplane, so a facet with exactly d
    of them is a simplex and is returned as it stands; at d = 4 that skips
    the hull of its 3-dimensional shadow.
    """
    d = len(normal)
    if len(on) == d:
        return [tuple(on)]
    shadow = _project_facet(on, normal)
    flat = sorted(shadow)
    if d == 2:
        return [(shadow[flat[0]], shadow[flat[-1]])]
    if d == 3:
        ring = _ring_2d(flat)
        return [
            (shadow[ring[0]], shadow[ring[i]], shadow[ring[i + 1]])
            for i in range(1, len(ring) - 1)
        ]
    # d == 4: cone from one vertex over the 2-faces of the 3-dimensional
    # shadow that miss it
    anchor = flat[0]
    tets = []
    for sub_normal, sub_off, sub_on in _facets(flat):
        if anchor in sub_on:
            continue
        for tri in _facet_triangulation(sub_on, sub_normal):
            tets.append((shadow[anchor],) + tuple(shadow[p] for p in tri))
    return tets


def _cone_volume(d, facets) -> Fraction:
    """Volume of the union of the cones from the origin over the facets,
    given as (normal, offset, on-points) triples, from their triangulations."""
    total = 0
    for normal, _, on in facets:
        for simplex in _facet_triangulation(on, normal):
            total += abs(_dot(_cofactors(simplex), simplex[0]))
    return Fraction(total, factorial(d))


def _minimal(points):
    """The componentwise-minimal points of a sorted list, in its order.

    A point h <= g with h != g precedes g lexicographically, so each point
    is compared only with the points kept before it: a dropped point is
    dominated by an earlier kept one, which then dominates g too.
    """
    kept = []
    for g in points:
        for h in kept:
            if all(map(le, h, g)):
                break
        else:
            kept.append(g)
    return tuple(kept)


# -- the polyhedron type -----------------------------------------------------


@dataclass(frozen=True)
class MixedVolumeIndex:
    """Index alpha = (alpha_1, ..., alpha_r) with |alpha| = d."""

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(map(_integral, self.alpha)))
        if any(a < 0 for a in self.alpha):
            raise IndexMismatch("index entries must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.alpha)


class NewtonPolyhedron:
    """Upward-closed region conv(generators) + R_{>=0}^d, exact and immutable."""

    __slots__ = ("dim", "generators", "_hull_facets", "_covolume")

    def __init__(self, dim, generators):
        dim = _integral(dim)
        if dim < 1:
            raise ValueError("dimension must be positive")
        if dim > MAX_DIM:
            raise DimensionTooLarge(f"dimension {dim} exceeds the supported bound {MAX_DIM}")
        gens = sorted({tuple(map(_integral, g)) for g in generators})
        if not gens:
            raise EmptySupport("no generators")
        for g in gens:
            if len(g) != dim:
                raise DimensionMismatch(f"generator {g} does not have dimension {dim}")
            if any(c < 0 for c in g):
                raise ValueError("generator coordinates must be nonnegative")
        object.__setattr__(self, "dim", dim)
        # drop componentwise-dominated (redundant) generators
        object.__setattr__(self, "generators", _minimal(gens))
        # finite iff every axis meets the region; only then are facets and covolume computed
        finite = all(any(not any(g[:i] + g[i + 1:]) for g in self.generators) for i in range(dim))
        object.__setattr__(self, "_hull_facets", self._compute_region_facets() if finite else None)
        object.__setattr__(self, "_covolume", self._compute_covolume() if finite else None)

    def __setattr__(self, name, value):
        raise AttributeError("NewtonPolyhedron is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, NewtonPolyhedron)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return f"NewtonPolyhedron(dim={self.dim}, generators={list(self.generators)})"

    @property
    def is_finite_volume(self) -> bool:
        """True iff every coordinate axis meets the region (decided at construction)."""
        return self._covolume is not None

    @property
    def max_coordinate(self) -> int:
        return max(max(g) for g in self.generators)

    def _compute_covolume(self) -> Fraction:
        """Cone sum from the origin over the triangulated compact facets.

        The complement of the region is star-shaped from the origin, and
        the part of its boundary off the compact facets lies in coordinate
        hyperplanes, whose cones are flat.
        """
        return _cone_volume(self.dim, self._hull_facets)

    def _compute_region_facets(self):
        """Compact facets of the region as (normal, offset, points-on-facet).

        A compact facet has a strictly positive inward normal; it is the
        convex hull of the generators lying on its supporting hyperplane.
        """
        return tuple(f for f in _facets(self.generators) if all(c > 0 for c in f[0]))

    # -- serialisation ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "generators": [list(g) for g in self.generators]}

    @classmethod
    def from_json_dict(cls, data) -> "NewtonPolyhedron":
        """Read {"dim": d, "generators": [[...], ...]} (docs/polyhedron.schema.json);
        anything else, an unknown or a missing key among them, raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError('a polyhedron is a JSON object {"dim": d, "generators": [...]}')
        _check_keys(data, ("dim", "generators"), ("dim", "generators"), "a polyhedron")
        dim, gens = data["dim"], data["generators"]
        if not _is_json_int(dim):
            raise ValueError('"dim" must be an integer')
        if not (isinstance(gens, list) and all(
            isinstance(g, list) and all(_is_json_int(c) for c in g) for g in gens
        )):
            raise ValueError('"generators" must be a list of lists of integers')
        return cls(dim, gens)


def from_support_d(dim, points) -> NewtonPolyhedron:
    """Polyhedron generated by a set of lattice points in N^dim."""
    return NewtonPolyhedron(dim, points)


def sum_d(n1: NewtonPolyhedron, n2: NewtonPolyhedron) -> NewtonPolyhedron:
    """Hull of pairwise generator sums."""
    if n1.dim != n2.dim:
        raise DimensionMismatch(f"dimensions {n1.dim} and {n2.dim} differ")
    gens = {
        tuple(a + b for a, b in zip(g1, g2))
        for g1 in n1.generators
        for g2 in n2.generators
    }
    return NewtonPolyhedron(n1.dim, gens)


def scale_d(n: NewtonPolyhedron, k: int) -> NewtonPolyhedron:
    """Dilation by a nonnegative integer; k = 0 gives the full orthant."""
    k = _integral(k)
    if k < 0:
        raise ValueError("scale factor must be nonnegative")
    if k == 0:
        return NewtonPolyhedron(n.dim, [tuple(0 for _ in range(n.dim))])
    return NewtonPolyhedron(n.dim, [tuple(k * c for c in g) for g in n.generators])


def covolume(n: NewtonPolyhedron) -> Fraction:
    """Exact volume of the complement of the region in the positive orthant."""
    if not n.is_finite_volume:
        raise InfiniteVolume("covolume of an infinite-volume polyhedron")
    return n._covolume


def _combo_points(polys, lams):
    """Generator sums of sum(lam_i * N_i): lam_i * g_i summed over one g_i
    from each N_i with lam_i > 0, as a set."""
    d = polys[0].dim
    weights = [lam for lam in lams if lam > 0]
    choices = itertools.product(*(n.generators for n, lam in zip(polys, lams) if lam > 0))
    return {
        tuple(sum(lam * g[i] for lam, g in zip(weights, choice)) for i in range(d))
        for choice in choices
    }


def _combo(polys, lams) -> NewtonPolyhedron:
    """Integer combination sum(lam_i * N_i), skipping zero coefficients;
    the constructor keeps the minimal generator sums."""
    return NewtonPolyhedron(polys[0].dim, _combo_points(polys, lams))


def _fan_covolume(generators, normals) -> Fraction:
    """Covolume of the region of the minimal generators whose compact facet
    normals are known to be ``normals``.

    The face of each normal w is the set of generators minimising w . p.
    It is certified to be a facet: d of its points must be affinely
    independent, else ``ArithmeticError`` is raised.  They lie on the
    hyperplane w . p = min, so they span it.  That the normals are all of
    the compact ones is the caller's claim, and is not checked here.
    """
    d = len(generators[0])
    faces = []
    for w in normals:
        values = [_dot(w, p) for p in generators]
        low = min(values)
        on = tuple(p for p, v in zip(generators, values) if v == low)
        if not any(any(_cofactors(s)) for s in itertools.combinations(on, d)):
            raise ArithmeticError(f"the face of {w} is not a facet of {list(generators)}")
        faces.append((w, low, on))
    return _cone_volume(d, faces)


def _node_covolume(polys, lams, fans) -> Fraction:
    """Vol(sum lam_i N_i) at one node of the difference sum.

    ``fans`` maps the support pattern (which lam_i are positive) of each
    node already built to its compact facet normals.  The fan of the
    combination is the common refinement of the operands' fans, the same
    for every positive lam_i, so a later node of a known pattern needs only
    its minimal generator sums and ``_fan_covolume``.
    """
    pattern = tuple(lam > 0 for lam in lams)
    if sum(pattern) == 1:
        i = pattern.index(True)
        return lams[i] ** polys[i].dim * covolume(polys[i])
    normals = fans.get(pattern)
    if normals is None:
        combo = _combo(polys, lams)
        fans[pattern] = [normal for normal, b, pts in combo._hull_facets]
        return covolume(combo)
    return _fan_covolume(_minimal(sorted(_combo_points(polys, lams))), normals)


def mixed_covolume(polys, index: MixedVolumeIndex) -> Fraction:
    """Mixed covolume Vol(N_1^[a_1], ..., N_r^[a_r]) by polarization.

    P(lambda) = Vol(sum lambda_i N_i) is a homogeneous degree-d polynomial,
    and the coefficient of lambda^alpha is (d!/alpha!) times the requested
    mixed covolume.  The alpha-th mixed forward difference at 0,
    sum over 0 <= j <= alpha of (-1)^(d - |j|) prod C(alpha_i, j_i) P(j),
    sends lambda^alpha to alpha! and every other degree-d monomial
    lambda^gamma to 0 (some gamma_i < alpha_i, and the alpha_i-th difference
    of lambda_i^gamma_i vanishes), so it is d! times the mixed covolume; the
    node j = 0 has P = 0 and is skipped.

    The nodes lie in alpha's support and are grouped by which j_i are
    positive.  A node with one positive j_i is j_i^d Vol(N_i), by
    homogeneity, and builds nothing.  The first node of every other pattern
    builds its combination and keeps the normals of its compact facets; the
    later nodes of that pattern reuse them, because the normal fan of
    sum lambda_i N_i is the common refinement of the operands' fans for
    every positive lambda (Ziegler, Lectures on Polytopes, Prop. 7.12).
    Each reused face is certified to span its hyperplane (``_fan_covolume``).
    """
    polys = list(polys)
    if not polys:
        raise IndexMismatch("need at least one polyhedron")
    d = polys[0].dim
    for n in polys:
        if n.dim != d:
            raise DimensionMismatch("mixed covolume operands must share dimension")
        if not n.is_finite_volume:
            raise InfiniteVolume("mixed covolume needs finite-volume operands")
    alpha = index.alpha
    if len(alpha) != len(polys) or index.total != d:
        raise IndexMismatch(f"index {alpha} does not fit {len(polys)} polyhedra in dimension {d}")
    total, fans = Fraction(0), {}
    for j in itertools.product(*(range(a + 1) for a in alpha)):
        if any(j):
            weight = (-1) ** (d - sum(j)) * prod(map(comb, alpha, j))
            total += weight * _node_covolume(polys, j, fans)
    return total / factorial(d)


def face_identity_check(n: NewtonPolyhedron):
    """Return (d*Vol(N), sum h_i * Vol(sigma_i)) over compact facets.

    Each product h_i * Vol_{d-1}(sigma_i) is d times the volume of the cone
    over sigma_i from the origin, so the right-hand side is d times the cone
    sum of ``_cone_volume`` over the compact facets.  Both sides are the
    same cone sum, taken once for the covolume and once here, so they agree
    by construction; the independent check is criterion 8's slicing oracle
    in ``newtonpoly.verify``, which the covolume must match.
    """
    if not n.is_finite_volume:
        raise InfiniteVolume("face identity needs a finite-volume polyhedron")
    d = n.dim
    return d * covolume(n), d * _cone_volume(d, n._hull_facets)


def monomial_multiplicity(n: NewtonPolyhedron) -> int:
    """Multiplicity of a monomial ideal: d! times the covolume, an integer."""
    v = factorial(n.dim) * covolume(n)
    if v.denominator != 1:
        raise NonIntegralMultiplicity(f"d! * covolume = {v} is not an integer")
    return int(v)


def colength_growth_oracle(dim, generators, kmax) -> int:
    """Independent multiplicity oracle from the colength sequence.

    Counts monomials outside n^k for k <= kmax and extracts the leading
    Hilbert-Samuel coefficient e by exact d-th finite differencing of the
    eventually-polynomial sequence.
    """
    n = NewtonPolyhedron(dim, generators)
    if not n.is_finite_volume:
        raise InfiniteVolume("colength is infinite for an infinite-volume support")
    if kmax < 2 * dim + 2:
        raise ValueError(f"kmax must be at least {2 * dim + 2}")
    gens = n.generators
    if tuple(0 for _ in range(dim)) in gens:
        return 0  # unit ideal: every colength vanishes
    m = n.max_coordinate
    d = n.dim
    box = m * kmax
    # power[v] = largest k with v in n^k (0 if v not in n)
    power = {}
    for v in itertools.product(range(box + 1), repeat=d):
        best = 0
        for g in gens:
            w = tuple(a - b for a, b in zip(v, g))
            if all(c >= 0 for c in w):
                cand = 1 + power[w]
                if cand > best:
                    best = cand
        power[v] = best
    counts = []
    for k in range(1, kmax + 1):
        inside = sum(1 for v in power.values() if v < k)
        counts.append(inside)
    diffs = counts
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    tail = diffs[-(d + 1):]
    if len(set(tail)) != 1:
        raise NonPolynomialGrowth(f"colength d-th differences {diffs} not stable; raise kmax")
    return tail[0]
